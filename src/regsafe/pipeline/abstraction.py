"""Counting abstraction of automaton configurations.

A set of threads (state, class) at a position is abstracted to: the letter at
the position, the set of states frozen to the position's own class, and, for
every non-empty state set, how many other classes carry exactly that set.
Class identities are forgotten; only multiplicities survive.  A step exists
between two abstract configurations exactly when some concrete configurations
abstracting to them make a step, which is what the counter machines explore.

Reference only: nothing in the library imports this module.  triple_step is
the specification that tests hold CompiledMachine.config_successors to.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product

from ..ara.automaton import AlternatingAutomaton
from ..errors import ValidationError


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

    def count_of(self, stateset):
        for r, n in self.counts:
            if r == frozenset(stateset):
                return n
        return 0


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
    states can reach in one step: the upward closure of the unions of minimal
    models, one per thread.  Empty thread set reaches exactly (empty, empty);
    a thread without models blocks the class entirely (empty result)."""
    states = frozenset(states)
    if not states:
        return frozenset({(frozenset(), frozenset())})
    per_state = []
    for q in sorted(states):
        models = aut.models_at(q, letter, flag)
        if not models:
            return frozenset()
        per_state.append(models)
    bases = set()
    for family in product(*per_state):
        plain = frozenset().union(*(m[0] for m in family))
        fresh = frozenset().union(*(m[1] for m in family))
        bases.add((plain, fresh))
    universe = sorted({q for q in aut.states})
    out = set()
    for pmask in _subsets(universe):
        for fmask in _subsets(universe):
            if any(bp <= pmask and bf <= fmask for bp, bf in bases):
                out.add((pmask, fmask))
    return frozenset(out)


def _subsets(items):
    for bits in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if bits >> i & 1)


def triple_step(aut: AlternatingAutomaton, src: AbstractionTriple,
                dst: AbstractionTriple) -> bool:
    """Is there a one-letter step between concrete configurations abstracting
    to src and dst?  The letter consumed is src.letter; dst.letter is free.
    Intended for small automata (it enumerates model families)."""
    here_pairs = achievable_pairs(aut, src.here, src.letter, "up")
    if not here_pairs:
        return False
    here_sets = {p | f for p, f in here_pairs}
    class_options = []
    for r, n in src.counts:
        opts = achievable_pairs(aut, r, src.letter, "nup")
        if not opts:
            return False
        class_options.extend([tuple(sorted(opts, key=_pair_key))] * n)

    target = Counter(dict(dst.counts))

    def match(i, remaining, fresh_union, become_idx):
        """Assign kept/refrozen pairs to the other classes; the class at
        become_idx (if any) supplies the next current class and its kept set
        must equal dst.here instead of being consumed from the target."""
        if i == len(class_options):
            return _finish(remaining, fresh_union, become_idx)
        for kept, refrozen in class_options[i]:
            fu = fresh_union | refrozen
            if i == become_idx:
                if kept == dst.here and match(i + 1, remaining, fu, become_idx):
                    return True
            elif not kept:
                if match(i + 1, remaining, fu, become_idx):
                    return True
            elif remaining[kept] > 0:
                remaining[kept] -= 1
                ok = match(i + 1, remaining, fu, become_idx)
                remaining[kept] += 1
                if ok:
                    return True
        return False

    def _finish(remaining, fresh_union, become_idx):
        for here_set in here_sets:
            carried = here_set | fresh_union
            if become_idx is None and dst.here == carried:
                # next position keeps the current class
                if not +remaining:
                    return True
            if become_idx is not None or not dst.here:
                # next position moves to another class (tracked, dead or
                # fresh); the old current class deposits its carried set
                left = +remaining
                if not carried:
                    if not left:
                        return True
                elif left == Counter({carried: 1}):
                    return True
        return False

    # the _finish cases need fresh_union before deciding; enumerate the choice
    # of which tracked class (if any) becomes current
    if match(0, target.copy(), frozenset(), None):
        return True
    for idx in range(len(class_options)):
        if match(0, target.copy(), frozenset(), idx):
            return True
    return False


def _pair_key(pair):
    p, f = pair
    return (len(p), sorted(p), len(f), sorted(f))
