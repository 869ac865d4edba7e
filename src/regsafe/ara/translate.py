"""Translation from safety formulas to alternating register automata.

One automaton state per structurally distinct formula that must be tracked
across positions: the sentence itself, the body of every X subformula, and
every R subformula.  Boolean structure, register tests and the freeze binder
are compiled away into the transition formulas, so the state count is often
much smaller than the subformula count.
"""

from functools import lru_cache

from .. import ltl
from ..errors import ValidationError
from ..words import Alphabet
from . import posbool as pb
from .automaton import FLAGS, AlternatingAutomaton


def _tracked(f):
    """Formulas needing a state, in first-discovery order (sentence first)."""
    order = [f]
    seen = {f}
    visited = set()

    def walk(g):
        if g in visited:
            return
        visited.add(g)
        if isinstance(g, ltl.Release):
            if g not in seen:
                seen.add(g)
                order.append(g)
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, ltl.Next):
            if g.body not in seen:
                seen.add(g.body)
                order.append(g.body)
            walk(g.body)
        elif isinstance(g, (ltl.And, ltl.Or)):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, ltl.Freeze):
            walk(g.body)

    walk(f)
    return order


def _down_mark(g):
    """Down-mark a plain state reference; other leaves stay."""
    return pb.DownRef(g.state) if isinstance(g, pb.Ref) else g


@lru_cache(maxsize=256)
def ltl_to_ara(f: ltl.Formula, alphabet: Alphabet) -> AlternatingAutomaton:
    if not ltl.is_sentence(f):
        raise ValidationError("formula has a free register test")
    tracked = _tracked(f)
    name = {g: "s%d" % i for i, g in enumerate(tracked)}
    memo = {}

    def row(g, a, flag):
        key = (g, a, flag)
        if key in memo:
            return memo[key]
        if isinstance(g, ltl.Atom):
            phi = pb.Top() if g.letter == a else pb.Bot()
        elif isinstance(g, ltl.Top):
            phi = pb.Top()
        elif isinstance(g, ltl.Bot):
            phi = pb.Bot()
        elif isinstance(g, ltl.Up):
            phi = pb.Top() if flag == "up" else pb.Bot()
        elif isinstance(g, ltl.NotUp):
            phi = pb.Top() if flag == "nup" else pb.Bot()
        elif isinstance(g, ltl.And):
            phi = pb.pand(row(g.lhs, a, flag), row(g.rhs, a, flag))
        elif isinstance(g, ltl.Or):
            phi = pb.por(row(g.lhs, a, flag), row(g.rhs, a, flag))
        elif isinstance(g, ltl.Next):
            phi = pb.Ref(name[g.body])
        elif isinstance(g, ltl.Release):
            phi = pb.pand(row(g.rhs, a, flag), pb.por(row(g.lhs, a, flag), pb.Ref(name[g])))
        elif isinstance(g, ltl.Freeze):
            # the binder re-freezes: evaluate the body as if at its own
            # position (flag up) and down-mark every produced reference
            phi = pb.rebuild(row(g.body, a, "up"), _down_mark)
        else:
            raise TypeError("not a formula: %r" % (g,))
        memo[key] = phi
        return phi

    delta = {}
    bot = pb.Bot()
    for g in tracked:
        for a in alphabet.letters:
            for flag in FLAGS:
                phi = row(g, a, flag)
                if phi != bot:
                    delta[(name[g], a, flag)] = phi
    states = tuple(name[g] for g in tracked)
    return AlternatingAutomaton(alphabet, states, name[f], delta)
