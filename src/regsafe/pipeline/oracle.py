"""Brute-force reference procedures used to cross-check the optimized ones.

oracle_run_exists answers the same question as ara.run_exists.  Both rest on
threads of an alternating run never interacting: a configuration set can
cover the rest of the word exactly when each of its configurations can on
its own, so both decide single configurations per position, memoized.  The
oracle enumerates every satisfying pair of every transition formula by
evaluating the formula on all pairs of state sets, so it depends neither on
minimal_models nor on the monotonicity that lets run_exists try minimal
models only.  frontier_step is the definition's one-position step on a
configuration set, the only copy of it; _frontier_run_exists runs the
definition itself with it (sets of configuration sets, full choice products
over all satisfying pairs).  That route shares no thread argument with the
other two, is exponentially heavier and only meant for very small inputs, as
a third route to the same answer.  pattern_occurs decides the three-letter
freeze pattern directly on a word, independent of any automaton.
"""

from itertools import combinations, product

from ..errors import ValidationError
from ..words import DataWord
from ..ara import posbool as pb
from ..ara.automaton import AlternatingAutomaton


def _all_pairs(phi, states):
    """Every (plain, fresh) pair of state sets satisfying phi."""
    subsets = [frozenset(c) for r in range(len(states) + 1)
               for c in combinations(states, r)]
    out = []
    for plain in subsets:
        for fresh in subsets:
            if pb.eval_posbool(phi, (plain, fresh)):
                out.append((plain, fresh))
    return out


def _pair_table(aut):
    pairs = {}
    for q in aut.states:
        for a in aut.alphabet.letters:
            for flag in ("up", "nup"):
                pairs[(q, a, flag)] = _all_pairs(aut.delta_at(q, a, flag), aut.states)
    return pairs


def oracle_run_exists(aut: AlternatingAutomaton, w: DataWord,
                      max_len=6, max_states=4) -> bool:
    """Partial-run existence over w by exhaustive search over all satisfying
    pairs.  Guarded: refuses words longer than max_len or automata with more
    than max_states states."""
    if len(w) == 0:
        raise ValidationError("word must be non-empty")
    if len(w) > max_len:
        raise ValidationError("oracle guard: word length %d > %d" % (len(w), max_len))
    if len(aut.states) > max_states:
        raise ValidationError("oracle guard: %d states > %d" % (len(aut.states), max_states))
    pairs = _pair_table(aut)
    n = len(w)
    memo = {}

    def thread(i, q, cls):
        # can the single thread (q, cls) survive positions i..n-1?
        if i == n:
            return True
        key = (i, q, cls)
        if key in memo:
            return memo[key]
        letter = w.letters[i]
        here = w.classes[i]
        flag = "up" if cls == here else "nup"
        ok = False
        for plain, fresh in pairs[(q, letter, flag)]:
            if (all(thread(i + 1, q2, cls) for q2 in plain)
                    and all(thread(i + 1, q2, here) for q2 in fresh)):
                ok = True
                break
        memo[key] = ok
        return ok

    return thread(0, aut.initial, w.classes[0])


def initial_configs(aut, w):
    """The configuration set a run over w starts from: the initial state in
    the class of position 0."""
    return frozenset([(aut.initial, w.classes[0])])


def frontier_step(w: DataWord, i, configs, pairs):
    """All successor configuration sets of `configs` at position i of w.
    Each configuration (q, cls) picks one pair (plain, fresh) of
    pairs(q, letter, flag), the flag being up iff cls is the class of
    position i; plain states go on in cls, fresh ones in the class of
    position i.  No successors means some configuration has no pair; the
    empty configuration set steps to itself.  Exponential in the number of
    configurations."""
    letter = w.letters[i]
    here = w.classes[i]
    per_config = []
    for (q, cls) in sorted(configs):
        flag = "up" if cls == here else "nup"
        options = pairs(q, letter, flag)
        if not options:
            return set()
        per_config.append((cls, options))
    out = set()
    for choice in product(*(opts for (_, opts) in per_config)):
        succ = set()
        for (cls, _), (plain, fresh) in zip(per_config, choice):
            succ.update((q2, cls) for q2 in plain)
            succ.update((q2, here) for q2 in fresh)
        out.add(frozenset(succ))
    return out


def _frontier_run_exists(aut: AlternatingAutomaton, w: DataWord,
                         max_len=3, max_states=2) -> bool:
    """The definition, executed literally: keep the family of all reachable
    configuration sets, stepping each by every combination of satisfying
    pairs.  Exponential in several directions; guards are tight."""
    if len(w) == 0:
        raise ValidationError("word must be non-empty")
    if len(w) > max_len:
        raise ValidationError("frontier guard: word length %d > %d" % (len(w), max_len))
    if len(aut.states) > max_states:
        raise ValidationError("frontier guard: %d states > %d" % (len(aut.states), max_states))
    table = _pair_table(aut)
    frontiers = {initial_configs(aut, w)}
    for i in range(len(w)):
        nxt = set()
        for configs in frontiers:
            nxt |= frontier_step(w, i, configs, lambda *key: table[key])
        if not nxt:
            return False
        frontiers = nxt
    return True


def pattern_occurs(w: DataWord, first, middle, last) -> bool:
    """Is there i < j < k with w[i] = first, w[j] = middle, w[k] = last and
    positions i and k in the same class?"""
    n = len(w)
    for i in range(n):
        if w.letters[i] != first:
            continue
        for j in range(i + 1, n):
            if w.letters[j] != middle:
                continue
            for k in range(j + 1, n):
                if w.letters[k] == last and w.classes[k] == w.classes[i]:
                    return True
    return False
