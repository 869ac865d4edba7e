"""Translation from safety formulas to alternating register automata.

One automaton state per structurally distinct formula that must be tracked
across positions: the sentence itself, the body of every X subformula, and
every R subformula.  Boolean structure, register tests and the freeze binder
are compiled away into the transition formulas, so the state count is often
much smaller than the subformula count.

A translation is one bottom-up pass over the distinct subformulas.  One
tree.fold lists them children first and gives each an index: its leaf and
join return indices.  The fold walks the formula as the DAG of its node
objects, joining each inner object once, so a subtree shared by reference
costs one visit however often it occurs.  Equal subtrees that are distinct
objects share one index too, found from their class and their children's
indices, so no two formulas are ever compared.  The pass also marks each
index whose subformula has a register test that no binder in it binds; the
sentence is refused when its own index is marked, so no second pass checks
it.

Each subformula's rows, its transition formulas under each register flag
and letter, are then built from its children's rows by index.  A
subformula with no unbound register test reads alike under both flags: its
one row serves both.  One with no letter test outside an X reads alike
under every letter: its row under a flag is built once and serves every
letter.  No step recurses, so formulas of any nesting depth translate.
"""

from functools import partial
from itertools import repeat

from .. import ltl
from ..errors import ValidationError
from ..tree import fold
from ..words import Alphabet
from . import posbool as pb
from .automaton import AlternatingAutomaton


def _index(f):
    """f's distinct subformulas, children first, as (formulas, kids,
    unbound): formulas[i] is one of the equal subtrees of index i, kids[i]
    its children's indices, and unbound[i] whether it has a register test
    that no binder in it binds.  Every child's index is below its parent's,
    and f's is the last."""
    formulas, kids, unbound = [], [], []
    index = {}  # (class, children's indices or a leaf's fields) -> index
    Up, NotUp, Freeze = ltl.Up, ltl.NotUp, ltl.Freeze

    def add(g, key, ks, free_test):
        i = index.setdefault(key, len(formulas))
        if i == len(formulas):
            formulas.append(g)
            kids.append(ks)
            unbound.append(free_test)
        return i

    def leaf(g):
        kind = type(g)
        return add(g, (kind,) + g.fields, (), kind is Up or kind is NotUp)

    def join(g, *ks):
        kind = type(g)
        return add(g, (kind,) + ks, ks, kind is not Freeze and any([unbound[k] for k in ks]))

    fold(f, leaf, join)
    return formulas, kids, unbound


def _tracked(formulas, kids):
    """The indices of the formulas needing a state, in first-discovery order
    of an outer-first, left-to-right walk (sentence first)."""
    root = len(formulas) - 1
    order = {root: None}  # an ordered set
    seen = set()
    todo = [root]
    while todo:
        i = todo.pop()
        if i in seen:
            continue
        seen.add(i)
        kind = type(formulas[i])
        if kind is ltl.Release:
            order.setdefault(i)
        elif kind is ltl.Next:
            order.setdefault(kids[i][0])
        todo += kids[i][::-1]
    return list(order)


def _down_mark(g):
    """Down-mark a plain state reference; other leaves stay."""
    return pb.DownRef(g.state) if isinstance(g, pb.Ref) else g


_TOP, _BOT = pb.Top(), pb.Bot()


def ltl_to_ara(f: ltl.Formula, alphabet: Alphabet) -> AlternatingAutomaton:
    """The automaton of the sentence f over alphabet, a new one on every
    call.  Raises ValidationError when f has a free register test."""
    formulas, kids, unbound = _index(f)
    if unbound[-1]:
        raise ValidationError("formula has a free register test")
    tracked = _tracked(formulas, kids)
    name = {i: "s%d" % k for k, i in enumerate(tracked)}
    letters = alphabet.letters
    # free[i]: whether formula i reads alike under every letter; up[i] and
    # nup[i] are then its one row under each flag, else the tuples of its
    # rows per letter.  up[i] is nup[i] unless unbound[i]
    free = []
    up, nup = [], []

    def joined(join, rows, lhs, rhs, fr):
        if fr:
            return join(rows[lhs], rows[rhs])
        return tuple(map(join, repeat(rows[lhs]) if free[lhs] else rows[lhs],
                         repeat(rows[rhs]) if free[rhs] else rows[rhs]))

    for i, g in enumerate(formulas):
        kind = type(g)
        ks = kids[i]
        fr = kind is not ltl.Atom and (kind is ltl.Next or all([free[k] for k in ks]))
        free.append(fr)
        if kind is ltl.Next:
            row = other = pb.Ref(name[ks[0]])
        elif kind is ltl.Freeze:
            # down-mark every reference the body's row under up produces
            body = up[ks[0]]
            row = other = (pb.rebuild(body, _down_mark) if fr else
                           tuple([pb.rebuild(r, _down_mark) for r in body]))
        elif kind is ltl.And or kind is ltl.Or or kind is ltl.Release:
            join = (pb.por if kind is ltl.Or else pb.pand if kind is ltl.And
                    else partial(_release, pb.Ref(name[i])))
            lhs, rhs = ks
            row = joined(join, up, lhs, rhs, fr)
            other = joined(join, nup, lhs, rhs, fr) if unbound[i] else row
        else:
            row = _leaf_row(g, "up", letters)
            other = _leaf_row(g, "nup", letters) if unbound[i] else row
        up.append(row)
        nup.append(other)

    delta = {}
    for i in tracked:
        q = name[i]
        for j, a in enumerate(letters):
            for flag, rows in (("up", up), ("nup", nup)):
                phi = rows[i] if free[i] else rows[i][j]
                if type(phi) is not pb.Bot:
                    delta[(q, a, flag)] = phi
    states = tuple(name[i] for i in tracked)
    return AlternatingAutomaton(alphabet, states, name[len(formulas) - 1], delta)


def _release(ref, lhs, rhs):
    """The row of lhs R rhs, whose state is ref, from its sides' rows."""
    return pb.pand(rhs, pb.por(lhs, ref))


def _leaf_row(g, flag, letters):
    """The row of a leaf under flag: a letter test's is the tuple of its rows
    per letter."""
    kind = type(g)
    if kind is ltl.Atom:
        return tuple([_TOP if a == g.letter else _BOT for a in letters])
    if kind is ltl.Top:
        return _TOP
    if kind is ltl.Bot:
        return _BOT
    if kind is ltl.Up:
        return _TOP if flag == "up" else _BOT
    if kind is ltl.NotUp:
        return _TOP if flag == "nup" else _BOT
    raise TypeError("not a formula: %r" % (g,))
