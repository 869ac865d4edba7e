"""Translation from safety formulas to alternating register automata.

One automaton state per structurally distinct formula that must be tracked
across positions: the sentence itself, the body of every X subformula, and
every R subformula.  Boolean structure, register tests and the freeze binder
are compiled away into the transition formulas, so the state count is often
much smaller than the subformula count.

A translation is one bottom-up pass over the distinct subformulas.  A walk
on an explicit stack lists them children first and gives each an index;
equal subtrees share one, found from their class and their children's
indices, so no two formulas are ever compared.  Each subformula's rows, its
transition formulas under each register flag and letter, are then built
from its children's rows by index.  A subformula with no letter test
outside an X reads alike under every letter: its row under a flag is built
once and serves every letter.  No step recurses, so formulas of any nesting
depth translate.
"""

from functools import lru_cache, partial
from itertools import repeat

from .. import ltl
from ..errors import ValidationError
from ..tree import fold
from ..words import Alphabet
from . import posbool as pb
from .automaton import FLAGS, AlternatingAutomaton


def _index(f):
    """f's distinct subformulas, children first, as (formulas, kids):
    formulas[i] is one of the equal subtrees of index i, kids[i] its
    children's indices.  Every child's index is below its parent's, and f's
    is the last."""
    formulas, kids = [], []
    index = {}  # (class, children's indices or a leaf's fields) -> index

    def add(g, key, ks):
        i = index.setdefault(key, len(formulas))
        if i == len(formulas):
            formulas.append(g)
            kids.append(ks)
        return i

    fold(f, lambda g: add(g, (type(g),) + g.fields, ()),
         lambda g, *ks: add(g, (type(g),) + ks, ks))
    return formulas, kids


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


@lru_cache(maxsize=256)
def ltl_to_ara(f: ltl.Formula, alphabet: Alphabet) -> AlternatingAutomaton:
    """The automaton of the sentence f over alphabet.  Raises
    ValidationError when f has a free register test.

    Cached: every caller with an equal (f, alphabet) gets one shared
    automaton, together with the memo tables it fills (models_at, run_exists'
    steps), so callers must not mutate it.  The cache is for
    ltl.evaluate_prefix, which translates its formula anew for each prefix:
    over the 117 prefixes of bouncer.tm's 8-step run it hits 107 times and
    takes 0.19 s against 1.30 s uncached (2-core Xeon, Python 3.11).  The
    benchmark workloads translate each formula once and never hit it."""
    if not ltl.is_sentence(f):
        raise ValidationError("formula has a free register test")
    formulas, kids = _index(f)
    tracked = _tracked(formulas, kids)
    name = {i: "s%d" % k for k, i in enumerate(tracked)}
    letters = alphabet.letters
    # free[i]: whether formula i reads alike under every letter; rows[flag][i]
    # is then its one row under flag, else the tuple of its rows per letter
    free = []
    rows = {flag: [] for flag in FLAGS}

    def per_letter(i, flag):
        r = rows[flag][i]
        return repeat(r) if free[i] else r

    for i, g in enumerate(formulas):
        kind = type(g)
        ks = kids[i]
        fr = kind is not ltl.Atom and (kind is ltl.Next or all([free[k] for k in ks]))
        free.append(fr)
        if kind is ltl.Next:
            ref = pb.Ref(name[ks[0]])
            for flag in FLAGS:
                rows[flag].append(ref)
        elif kind is ltl.Freeze:
            # down-mark every reference the body's row under up produces
            body = rows["up"][ks[0]]
            row = (pb.rebuild(body, _down_mark) if fr else
                   tuple([pb.rebuild(r, _down_mark) for r in body]))
            for flag in FLAGS:
                rows[flag].append(row)
        elif kind is ltl.And or kind is ltl.Or or kind is ltl.Release:
            join = (pb.por if kind is ltl.Or else pb.pand if kind is ltl.And
                    else partial(_release, pb.Ref(name[i])))
            lhs, rhs = ks
            for flag in FLAGS:
                rows[flag].append(join(rows[flag][lhs], rows[flag][rhs]) if fr else
                                  tuple(map(join, per_letter(lhs, flag), per_letter(rhs, flag))))
        else:
            for flag in FLAGS:
                rows[flag].append(_leaf_row(g, flag, letters))

    delta = {}
    for i in tracked:
        q = name[i]
        for j, a in enumerate(letters):
            for flag in FLAGS:
                phi = rows[flag][i] if free[i] else rows[flag][i][j]
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
