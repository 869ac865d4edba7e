from collections import Counter
from itertools import combinations_with_replacement, permutations
import random

import pytest

from regsafe.errors import ValidationError
from regsafe.words import Alphabet, parse_word
from regsafe.ara import format_automaton
from regsafe.pipeline import ara_to_ipcant
from regsafe.pipeline.abstraction import (AbstractionTriple, abstract_configs,
                                          achievable_pairs, h_abstraction,
                                          triple_step)
from regsafe.pipeline.oracle import frontier_step, initial_configs
from regsafe import randgen

AB = Alphabet(("a", "b"))


def test_triple_make_normalizes():
    t = AbstractionTriple.make("a", ["q", "q"], {frozenset(["q1"]): 2})
    assert t.here == frozenset(["q"])
    assert t.count_of(["q1"]) == 2
    assert t.count_of(["q"]) == 0
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
    assert t.count_of(["q", "q1"]) == 1
    assert t.count_of(["q"]) == 1
    assert t.count_of(["q1"]) == 0


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


def test_triple_step_vacuous(fig1):
    src = AbstractionTriple.make("a", [])
    for letter in ("a", "b", "c"):
        assert triple_step(fig1, src, AbstractionTriple.make(letter, []))


def test_triple_step_fig1_example(fig1):
    src = AbstractionTriple.make("a", ["q"])
    assert triple_step(fig1, src, AbstractionTriple.make("b", ["q", "q1"]))
    # the branch into q1 is conjunctive, so dropping it is impossible
    assert not triple_step(fig1, src, AbstractionTriple.make("a", []))


def test_triple_step_blocked(fig1):
    src = AbstractionTriple.make("b", ["q2"])
    for letter in ("a", "b", "c"):
        assert not triple_step(fig1, src, AbstractionTriple.make(letter, []))


def test_triple_step_class_switch(fig1):
    # the freeze-carrying class may stop being current: its states move into
    # the counted part while another tracked class takes over
    src = AbstractionTriple.make("a", ["q"], {frozenset(["q1"]): 1})
    dst = AbstractionTriple.make("a", ["q1"], {frozenset(["q", "q1"]): 1})
    assert triple_step(fig1, src, dst)


def test_simulation_coherence_random_runs():
    rng = random.Random(11)
    for trial in range(150):
        aut = randgen.random_automaton(rng, AB, max_states=2)
        w = randgen.random_word(rng, AB, 4)
        frontier = [initial_configs(aut, w)]
        for i in range(len(w) - 1):
            configs = frontier[rng.randrange(len(frontier))]
            succs = frontier_step(w, i, configs, aut.models_at)
            if not succs:
                break
            t = h_abstraction(w, i, configs)
            for nxt in sorted(succs, key=sorted)[:3]:
                t2 = h_abstraction(w, i + 1, nxt)
                assert triple_step(aut, t, t2), (trial, i, t, t2)
            frontier = sorted(succs, key=sorted)


def _states(cm, mask):
    return frozenset(q for i, q in enumerate(cm.states_order) if mask >> i & 1)


def _triple(cm, letter, mask, sv):
    """A compiled configuration as an abstraction triple: the control's
    states are the current class's, each token's counter names its class's
    states.  A counter-0 token is a class with no thread left, which the
    abstraction does not count."""
    counts = Counter()
    for ci, cnt in sv.items():
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


def test_compiled_step_matches_triple_step():
    """The compiled letter step against the counting abstraction it stands
    for.  Forward: triple_step accepts every successor of
    CompiledMachine.config_successors.  Converse: every triple it accepts
    with at most one class more than the source lies above some successor.
    Equality would be too strong, since triple_step also steps by
    non-minimal models, which the compiled step leaves out."""
    rng = random.Random(5)
    successors = accepted = 0
    for _ in range(100):
        aut = randgen.random_automaton(rng, AB, max_states=2)
        cm = ara_to_ipcant(aut)
        full = range(1 << cm.n)
        heres = [_states(cm, m) for m in full]
        for _ in range(5):
            mask = rng.choice(full)
            sv = Counter(rng.choice(full) for _ in range(rng.randint(0, 2)))
            tokens = sum(sv.values())
            for letter in AB.letters:
                src = _triple(cm, letter, mask, sv)
                succ, truncated = cm.config_successors(("read", mask, False), dict(sv),
                                                       letter)
                assert not truncated
                got = []
                for a, control, sv2, _ in succ:
                    dst = _triple(cm, a, control[1], sv2)
                    assert triple_step(aut, src, dst), (format_automaton(aut), src, dst)
                    got.append(dst)
                successors += len(got)
                for here in heres:
                    for size in range(tokens + 2):
                        for sets in combinations_with_replacement(heres[1:], size):
                            dst = AbstractionTriple.make(letter, here, Counter(sets))
                            if triple_step(aut, src, dst):
                                accepted += 1
                                assert any(_above(dst, s) for s in got), (
                                    format_automaton(aut), src, dst)
    assert successors >= 2000 and accepted > 0
