"""Counting abstraction of automaton configurations.

A set of threads (state, class) at a position is abstracted to: the letter at
the position, the set of states frozen to the position's own class, and, for
every non-empty state set, how many other classes carry exactly that set.
Class identities are forgotten; only multiplicities survive.  A step exists
between two abstract configurations exactly when some concrete configurations
abstracting to them make a step, which is what the counter machines explore.

abstract_successors, the set of abstract configurations one step from a
given one, is the specification that test_abstraction holds
CompiledMachine.config_successors to.
"""

from collections import Counter
from dataclasses import dataclass

from ..ara.automaton import AlternatingAutomaton
from ..errors import ValidationError
from ..pipeline.oracle import satisfying_pairs


def _sorted_counts(counts):
    items = [(frozenset(r), n) for r, n in counts.items() if n]
    for r, n in items:
        if not r:
            raise ValueError("counts may only track non-empty state sets")
        if n < 0:
            raise ValueError("negative multiplicity")
    return tuple(sorted(items, key=lambda it: (len(it[0]), sorted(it[0]))))


@dataclass(frozen=True)
class AbstractionTriple:
    """letter: about to be consumed; here: states frozen to the current
    class; counts: multiplicity of every non-empty state set among the other
    classes."""

    letter: str
    here: frozenset
    counts: tuple

    @staticmethod
    def make(letter, here, counts=None):
        return AbstractionTriple(letter, frozenset(here), _sorted_counts(counts or {}))


def abstract_configs(letter, configs, current_class) -> AbstractionTriple:
    """Forget class identities in a set of (state, class) threads."""
    here = frozenset(q for q, d in configs if d == current_class)
    per_class = {}
    for q, d in configs:
        if d != current_class:
            per_class.setdefault(d, set()).add(q)
    counts = Counter(frozenset(s) for s in per_class.values())
    return AbstractionTriple.make(letter, here, counts)


def h_abstraction(w, i, F) -> AbstractionTriple:
    """Abstract the thread set F at position i of w: the letter there, the
    states whose class is the position's own, and the multiset of state sets
    carried by the other classes."""
    if i < 0 or i >= len(w):
        raise ValidationError("position %r out of range" % (i,))
    return abstract_configs(w.letters[i], F, w.classes[i])


def achievable_pairs(aut: AlternatingAutomaton, states, letter, flag):
    """All (kept, refrozen) state-set pairs a class with the given thread
    states can reach in one step: the pairs satisfying every thread's
    formula.  A pair satisfies a positive formula exactly when it lies above
    one of its minimal models, so these are the upward closure of the unions
    of one minimal model per thread, which config_successors steps by; found
    without minimal models, they check that code independently.  No threads
    reach exactly (empty, empty); a thread without models blocks the class
    (empty result)."""
    if not states:
        return frozenset({(frozenset(), frozenset())})
    return frozenset.intersection(*(
        frozenset(satisfying_pairs(aut.delta_at(q, letter, flag), aut.states))
        for q in states))


def abstract_successors(aut: AlternatingAutomaton, src: AbstractionTriple):
    """The (here, counts) of every triple one step from src: the letter
    consumed is src.letter, the next letter is free.

    The counted classes are folded one token at a time into a set of
    (union of refrozen sets, sorted kept sets of the classes left with
    states), each token picking one of its class's achievable pairs under
    nup; a class with none empties the result.  Then each up pair (P, F)
    of the current class carries P | F | that union, and the next current
    class is a fresh one, which leaves every class counted, or any class
    with states, the old current class included.  Intended for small
    automata (it enumerates pairs of state sets)."""
    partial = {(frozenset(), ())}
    for r, n in src.counts:
        opts = achievable_pairs(aut, r, src.letter, "nup")
        for _ in range(n):
            partial = {(fresh | f, tuple(sorted(kept + (p,), key=sorted)) if p else kept)
                       for fresh, kept in partial for p, f in opts}
    here_sets = {p | f for p, f in achievable_pairs(aut, src.here, src.letter, "up")}
    out = set()
    for carried, kept in {(h | fresh, kept) for h in here_sets for fresh, kept in partial}:
        classes = kept + (carried,) if carried else kept
        out.add((frozenset(), _sorted_counts(Counter(classes))))
        for i, here in enumerate(classes):
            out.add((here, _sorted_counts(Counter(classes[:i] + classes[i + 1:]))))
    return out
