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
    order = {f: None}  # an ordered set
    for g in ltl.subformulas(f):
        if type(g) is ltl.Release:
            order.setdefault(g)
        elif type(g) is ltl.Next:
            order.setdefault(g.body)
    return list(order)


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
        # on an explicit stack, the rows a row is built from first; the
        # memo builds the row of each structurally distinct formula once
        todo = [(g, flag)]
        while todo:
            h, fl = todo[-1]
            if (h, a, fl) in memo:
                todo.pop()
                continue
            kind = type(h)
            if kind is ltl.Freeze:  # the body is read as at its own position
                parts = ((h.body, "up"),)
            elif kind is ltl.And or kind is ltl.Or or kind is ltl.Release:
                parts = ((h.rhs, fl), (h.lhs, fl))
            else:
                parts = ()
            missing = [(k, kf) for k, kf in parts if (k, a, kf) not in memo]
            if missing:
                todo += missing
                continue
            todo.pop()
            memo[(h, a, fl)] = _row(h, a, fl, name, memo)
        return memo[(g, a, flag)]

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


def _row(g, a, flag, name, memo):
    """g's transition formula on (a, flag), from its subformulas' rows."""
    kind = type(g)
    if kind is ltl.Atom:
        return pb.Top() if g.letter == a else pb.Bot()
    if kind is ltl.Top:
        return pb.Top()
    if kind is ltl.Bot:
        return pb.Bot()
    if kind is ltl.Up:
        return pb.Top() if flag == "up" else pb.Bot()
    if kind is ltl.NotUp:
        return pb.Top() if flag == "nup" else pb.Bot()
    if kind is ltl.Next:
        return pb.Ref(name[g.body])
    if kind is ltl.Freeze:
        # down-mark every reference the body's row produces
        return pb.rebuild(memo[(g.body, a, "up")], _down_mark)
    lhs, rhs = memo[(g.lhs, a, flag)], memo[(g.rhs, a, flag)]
    if kind is ltl.And:
        return pb.pand(lhs, rhs)
    if kind is ltl.Or:
        return pb.por(lhs, rhs)
    if kind is ltl.Release:
        return pb.pand(rhs, pb.por(lhs, pb.Ref(name[g])))
    raise TypeError("not a formula: %r" % (g,))
