"""Brute-force reference procedures used to cross-check the optimized ones.

oracle_run_exists answers the same question as ara.run_exists.  Both rest on
threads of an alternating run never interacting: a configuration set can
cover the rest of the word exactly when each of its configurations can on
its own.  run_exists settles every state of a class at once, backwards from
the end of the word; the oracle searches single configurations per
position, memoized.  It enumerates every satisfying pair of each transition
formula a search reaches (satisfying_pairs, one fold of the formula over a
truth table of all pairs of state sets, shared with the frontier route and
reference.abstraction), so it depends neither on minimal_models nor on the
monotonicity that lets run_exists try minimal models only.  frontier_step
is the definition's one-position step on a configuration set, the only copy
of it; frontier_run_exists runs the definition itself with it (sets of
configuration sets, full choice products over all satisfying pairs).  That
route shares no thread argument with the other two, is exponentially
heavier and only meant for very small inputs, as a third route to the same
answer.  pattern_occurs decides the three-letter freeze pattern directly on
a word, independent of any automaton.
"""

import functools
from itertools import combinations, product

from ..errors import ValidationError
from ..words import DataWord
from ..ara import posbool as pb
from ..ara.automaton import AlternatingAutomaton
from ..tree import fold


def satisfying_pairs(phi, states):
    """Every (plain, fresh) pair of sets of the given states that satisfies
    phi, plain sets outer and fresh sets inner, each in size-then-state
    order.

    One fold of phi over truth tables, not one evaluation per pair: with the
    k subsets in that order, bit i*k + j of a table is the pair (i-th subset,
    j-th subset).  Ref q is the pairs whose plain set holds q, DownRef q
    those whose fresh set holds q, Top every pair and Bot none; And is & and
    Or is |.  The table is read back a row of k bits at a time."""
    subsets = [frozenset(c) for r in range(len(states) + 1)
               for c in combinations(states, r)]
    k = len(subsets)
    row = (1 << k) - 1
    # bit 0 of every row: times a k-bit mask, that mask in every row
    every_row = sum(1 << i * k for i in range(k))
    ref = {q: sum(row << i * k for i, s in enumerate(subsets) if q in s) for q in states}
    down = {q: every_row * sum(1 << j for j, s in enumerate(subsets) if q in s) for q in states}

    def leaf(g):
        kind = type(g)
        if kind is pb.Top:
            return row * every_row
        if kind is pb.Bot:
            return 0
        return (ref if kind is pb.Ref else down).get(g.state, 0)

    table = fold(phi, leaf, _table_join)
    out = []
    for plain in subsets:
        bits = table & row
        table >>= k
        while bits:
            low = bits & -bits
            out.append((plain, subsets[low.bit_length() - 1]))
            bits ^= low
    return out


def _table_join(g, lhs, rhs):
    return lhs & rhs if type(g) is pb.And else lhs | rhs


def _pairs(aut):
    """pairs(q, letter, flag): every satisfying pair of that transition
    formula, computed when a search first asks for it."""
    return functools.lru_cache(maxsize=None)(
        lambda q, letter, flag: satisfying_pairs(aut.delta_at(q, letter, flag), aut.states))


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
    pairs = _pairs(aut)
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
        for plain, fresh in pairs(q, letter, flag):
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


def frontier_takes(aut: AlternatingAutomaton, w: DataWord) -> bool:
    """Whether the word and the automaton lie within the frontier route's
    guards: 1 to 3 letters, at most 2 states."""
    return 0 < len(w) <= 3 and len(aut.states) <= 2


def frontier_run_exists(aut: AlternatingAutomaton, w: DataWord) -> bool:
    """The definition, executed literally: keep the family of all reachable
    configuration sets, stepping each by every combination of satisfying
    pairs.  Exponential in several directions, so it refuses what
    frontier_takes does not take."""
    if not frontier_takes(aut, w):
        raise ValidationError("frontier guard: 1 to 3 letters and at most 2 states, not %d and %d"
                              % (len(w), len(aut.states)))
    pairs = _pairs(aut)
    frontiers = {initial_configs(aut, w)}
    for i in range(len(w)):
        nxt = set()
        for configs in frontiers:
            nxt |= frontier_step(w, i, configs, pairs)
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
