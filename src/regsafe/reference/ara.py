"""Minimal models read as state names, dual formulas and automata, and the
inclusion product built as an automaton, which the runtime folds away."""

from ..ara import posbool as pb
from ..ara.automaton import FLAGS, AlternatingAutomaton, combined_names, intersect
from ..tree import fold


def models_at(aut: AlternatingAutomaton, q, a, flag):
    """Minimal satisfying pairs of aut.delta_at(q, a, flag) as pairs of
    state-name sets, read off its mask models under the bit map of
    aut.states."""
    states = aut.states
    bit = {p: 1 << i for i, p in enumerate(states)}

    def names(mask):
        return frozenset([p for i, p in enumerate(states) if mask >> i & 1])

    return tuple([(names(kept), names(refrozen))
                  for kept, refrozen in pb.minimal_models(aut.delta_at(q, a, flag), bit)])


def _swapped_join(g, lhs, rhs):
    return (pb.Or if type(g) is pb.And else pb.And)(lhs, rhs)


def _dual_leaf(g):
    kind = type(g)
    if kind is pb.Top:
        return pb.Bot()
    if kind is pb.Bot:
        return pb.Top()
    return g


def dual(phi: pb.PosBool) -> pb.PosBool:
    """Swap conjunction with disjunction and true with false."""
    return fold(phi, _dual_leaf, _swapped_join)


def dualize(aut: AlternatingAutomaton) -> AlternatingAutomaton:
    """Swap and/or and true/false in every entry.  Entries absent from the
    table are false, so the dual table must list their duals explicitly."""
    delta = {}
    for q in aut.states:
        for a in aut.alphabet:
            for flag in FLAGS:
                delta[(q, a, flag)] = dual(aut.delta_at(q, a, flag))
    return AlternatingAutomaton(aut.alphabet, aut.states, aut.initial, delta)


def inclusion_product(a1, a2):
    """a1 conjoined with the dual of a2, with the names of the dual
    component's states; a word witnesses non-inclusion exactly when the
    product has a run that at some point drops every thread in those states
    and still continues forever.  inclusion_check compiles this product
    from a1 and a2 (pipeline.compile.product_machine)."""
    d2 = dualize(a2)
    _, r2 = combined_names(a1, d2)
    return intersect(a1, d2), tuple(r2[q] for q in d2.states)
