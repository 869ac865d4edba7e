from collections import Counter
from functools import partial
from itertools import combinations, permutations, product
import random

import pytest

from regsafe.errors import ValidationError
from regsafe.words import Alphabet, parse_word
from regsafe.ara import format_automaton
from regsafe.pipeline import ara_to_ipcant
from regsafe.pipeline.oracle import frontier_step, initial_configs
from regsafe import randgen
from regsafe.reference.abstraction import (AbstractionTriple, abstract_configs,
                                           abstract_successors, achievable_pairs,
                                           h_abstraction)
from regsafe.reference.ara import models_at

AB = Alphabet(("a", "b"))
UNCUT = 1 << 30  # a value bound above every count these tests reach


def test_triple_make_normalizes():
    t = AbstractionTriple.make("a", ["q", "q"], {frozenset(["q1"]): 2})
    assert t.here == frozenset(["q"])
    assert t.counts == ((frozenset(["q1"]), 2),)
    # zero entries are dropped, so two spellings of the same triple compare equal
    same = AbstractionTriple.make("a", ["q"], {frozenset(["q1"]): 2,
                                               frozenset(["q"]): 0})
    assert t == same


def test_triple_rejects_bad_counts():
    with pytest.raises(ValueError):
        AbstractionTriple.make("a", [], {frozenset(): 1})
    with pytest.raises(ValueError):
        AbstractionTriple.make("a", [], {frozenset(["q"]): -1})


def test_h_abstraction_initial(fig1, abc):
    w = parse_word("a@X b@Y c@X", abc)
    t = h_abstraction(w, 0, initial_configs(fig1, w))
    assert t == AbstractionTriple.make("a", ["q"])


def test_h_abstraction_empty_set(abc):
    w = parse_word("b@X a@Y", abc)
    assert h_abstraction(w, 1, frozenset()) == AbstractionTriple.make("a", [])


def test_h_abstraction_split_classes(abc):
    w = parse_word("a@X b@Y", abc)
    f = frozenset([("q", 0), ("q1", 1)])
    t = h_abstraction(w, 1, f)
    assert t.letter == "b"
    assert t.here == frozenset(["q1"])
    assert t.counts == ((frozenset(["q"]), 1),)


def test_h_abstraction_bad_position(abc):
    w = parse_word("a@X", abc)
    with pytest.raises(ValidationError):
        h_abstraction(w, 1, frozenset())
    with pytest.raises(ValidationError):
        h_abstraction(w, -1, frozenset())


def test_abstract_configs_groups_by_class():
    f = frozenset([("q", 3), ("q1", 3), ("q", 7), ("q1", 5)])
    t = abstract_configs("b", f, 5)
    assert t.here == frozenset(["q1"])
    assert t.counts == ((frozenset(["q"]), 1), (frozenset(["q", "q1"]), 1))


def test_achievable_pairs_trivial_cases(fig1):
    assert achievable_pairs(fig1, [], "a", "up") == frozenset(
        [(frozenset(), frozenset())])
    # q2 has no transition on b with a matching register
    assert achievable_pairs(fig1, ["q2"], "b", "up") == frozenset()


def test_achievable_pairs_upward_closed(fig1):
    states = sorted(fig1.states)
    pairs = achievable_pairs(fig1, ["q"], "a", "up")
    assert (frozenset(["q"]), frozenset(["q1"])) in pairs
    assert (frozenset(), frozenset()) not in pairs
    for plain, fresh in pairs:
        for extra in states:
            assert (plain | {extra}, fresh) in pairs
            assert (plain, fresh | {extra}) in pairs


def _closure_of_model_unions(aut, states, letter, flag):
    """The upward closure, within aut's states, of the unions of one minimal
    model per thread state; (empty, empty) alone for no threads."""
    if not states:
        return frozenset({(frozenset(), frozenset())})
    bases = {(frozenset().union(*(m[0] for m in family)),
              frozenset().union(*(m[1] for m in family)))
             for family in product(*(models_at(aut, q, letter, flag) for q in states))}
    subsets = [frozenset(c) for r in range(len(aut.states) + 1)
               for c in combinations(aut.states, r)]
    return frozenset((plain, fresh) for plain in subsets for fresh in subsets
                     if any(bp <= plain and bf <= fresh for bp, bf in bases))


def test_achievable_pairs_is_the_closure_of_model_unions():
    """The pairs satisfying every thread's formula are the upward closure of
    the unions of minimal models, on every thread set of seeded automata of
    1 to 3 states."""
    rng = random.Random(48)
    for _ in range(120):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        for r in range(len(aut.states) + 1):
            for states in combinations(aut.states, r):
                for a in AB:
                    for flag in ("up", "nup"):
                        assert achievable_pairs(aut, states, a, flag) == \
                            _closure_of_model_unions(aut, states, a, flag), (aut.delta, states)


def test_abstract_successors_vacuous(fig1):
    src = AbstractionTriple.make("a", [])
    assert abstract_successors(fig1, src) == {(frozenset(), ())}


def test_abstract_successors_fig1_example(fig1):
    succ = abstract_successors(fig1, AbstractionTriple.make("a", ["q"]))
    assert (frozenset(["q", "q1"]), ()) in succ
    # the branch into q1 is conjunctive, so dropping it is impossible
    assert (frozenset(), ()) not in succ


def test_abstract_successors_blocked(fig1):
    assert abstract_successors(fig1, AbstractionTriple.make("b", ["q2"])) == set()


def test_abstract_successors_class_switch(fig1):
    # the freeze-carrying class may stop being current: its states move into
    # the counted part while another tracked class takes over
    src = AbstractionTriple.make("a", ["q"], {frozenset(["q1"]): 1})
    dst = AbstractionTriple.make("a", ["q1"], {frozenset(["q", "q1"]): 1})
    assert (dst.here, dst.counts) in abstract_successors(fig1, src)


def test_simulation_coherence_random_runs():
    rng = random.Random(11)
    for trial in range(150):
        aut = randgen.random_automaton(rng, AB, max_states=2)
        w = randgen.random_word(rng, AB, 4)
        frontier = [initial_configs(aut, w)]
        for i in range(len(w) - 1):
            configs = frontier[rng.randrange(len(frontier))]
            succs = frontier_step(w, i, configs, partial(models_at, aut))
            if not succs:
                break
            t = h_abstraction(w, i, configs)
            steps = abstract_successors(aut, t)
            for nxt in succs:
                t2 = h_abstraction(w, i + 1, nxt)
                assert (t2.here, t2.counts) in steps, (trial, i, t, t2)
            frontier = sorted(succs, key=sorted)


def _states(cm, mask):
    return frozenset(q for i, q in enumerate(cm.states_order) if mask >> i & 1)


def _triple(cm, letter, mask, sv):
    """A compiled configuration as an abstraction triple: the control's
    states are the current class's, each token's counter names its class's
    states.  A counter-0 token is a class with no thread left, which the
    abstraction does not count."""
    counts = Counter()
    for ci, cnt in sv:
        if ci:
            counts[_states(cm, ci)] += cnt
    return AbstractionTriple.make(letter, _states(cm, mask), counts)


def _above(big, small):
    """big is above small: its here-set holds small's, and small's classes
    map one to one onto classes of big holding at least their states."""
    if not small.here <= big.here:
        return False
    mine = [r for r, n in small.counts for _ in range(n)]
    theirs = [r for r, n in big.counts for _ in range(n)]
    return any(all(r <= r2 for r, r2 in zip(mine, perm))
               for perm in permutations(theirs, len(mine)))


def _compiled_step_against_abstract_successors(rng, aut, sources):
    """Steps `sources` random configurations of aut's machine on every
    letter.  Forward: every successor is in abstract_successors.  Converse:
    every member of abstract_successors lies above some successor.  Returns
    the numbers of successors and of abstract successors."""
    cm = ara_to_ipcant(aut)
    full = range(1 << cm.n)
    successors = abstract = 0
    for _ in range(sources):
        mask = rng.choice(full)
        sv = tuple(sorted(Counter(rng.choice(full) for _ in range(rng.randint(0, 2))).items()))
        for letter in AB.letters:
            src = _triple(cm, letter, mask, sv)
            steps = abstract_successors(aut, src)
            succ, truncated = cm.config_successors((mask, False), sv, letter, UNCUT)
            assert not truncated
            got = []
            for a, control, sv2, _ in succ:
                dst = _triple(cm, a, control[0], sv2)
                assert (dst.here, dst.counts) in steps, (format_automaton(aut), src, dst)
                got.append(dst)
            successors += len(got)
            abstract += len(steps)
            for here, counts in steps:
                dst = AbstractionTriple(letter, here, counts)
                assert any(_above(dst, s) for s in got), (format_automaton(aut), src, dst)
    return successors, abstract


def test_compiled_step_matches_abstract_successors():
    """The compiled letter step against the counting abstraction it stands
    for (_compiled_step_against_abstract_successors), on seeded automata of
    up to 2 states, and on seeded 3-state ones, whose 3-thread masks join
    threads of one model with threads of several in one union.  Equality
    would be too strong, since abstract_successors also steps by
    non-minimal models, which the compiled step leaves out."""
    rng = random.Random(5)
    successors = abstract = 0
    for _ in range(100):
        got = _compiled_step_against_abstract_successors(
            rng, randgen.random_automaton(rng, AB, max_states=2), 5)
        successors += got[0]
        abstract += got[1]
    assert successors >= 2000 and abstract > 0
    rng = random.Random(6)
    successors = abstract = three = 0
    while three < 20:
        aut = randgen.random_automaton(rng, AB, max_states=3)
        if len(aut.states) < 3:
            continue
        three += 1
        got = _compiled_step_against_abstract_successors(rng, aut, 4)
        successors += got[0]
        abstract += got[1]
    assert successors >= 300 and abstract >= 50
