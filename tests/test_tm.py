import os
import random

import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe.words import canonicalize
from regsafe.ara import format_automaton, ltl_to_ara, run_exists
from regsafe.ltl import (is_sentence, parse_formula, parse_formula_file, print_formula,
                         print_formula_file)
from regsafe.pipeline import (HaltReached, TuringMachine, ara_to_ipcant, config_length,
                              encode_tm_run, format_tm, parse_tm, prefix_reachable,
                              tm_alphabet, tm_to_formula)
from regsafe.pipeline.tm import run_configs


@pytest.fixture(scope="module")
def bouncer(data_text):
    return parse_tm(data_text("bouncer.tm"))


@pytest.fixture(scope="module")
def halting(data_text):
    return parse_tm(data_text("halting.tm"))


def test_alphabet_and_config_length(bouncer):
    ab = tm_alphabet(bouncer)
    assert ab.letters == ("r0", "r1", "0_1", "1_1", "0_2", "1_2",
                          "B", "M", "B^", "M^")
    assert bouncer.cells == 4
    assert config_length(bouncer) == 13


def test_run_configs_bounce(bouncer):
    configs = run_configs(bouncer, 6)
    assert len(configs) == 7
    assert [(q, head) for q, head, _ in configs[:4]] == [
        ("r0", 0), ("r1", 1), ("r0", 0), ("r1", 1)]
    assert configs[0][2] == ("B", "B", "B", "B")
    assert configs[1][2] == ("M", "B", "B", "B")
    assert configs[2][2] == ("M", "B", "B", "B")


def test_halt_by_falling_off(halting):
    with pytest.raises(HaltReached) as exc:
        run_configs(halting, 1)
    assert exc.value.completed == 0
    run_configs(halting, 0)  # the initial configuration alone is fine


def test_encode_shape(bouncer):
    w = encode_tm_run(bouncer, 2)
    assert len(w) == 3 * config_length(bouncer)
    ab = tm_alphabet(bouncer)
    assert set(w.letters) <= set(ab.letters)
    stride = config_length(bouncer)
    for t in range(3):
        assert w.letters[t * stride] in bouncer.states
        for j in range(bouncer.cells):
            block = t * stride + 1 + j * (bouncer.size + 1)
            for d in range(1, bouncer.size + 1):
                bit = (j >> (bouncer.size - d)) & 1
                assert w.letters[block + d - 1] == "%d_%d" % (bit, d)
    # the head marker sits on cell 0, 1, 0 in the first three configurations
    assert w.letters[0 * stride + 3] == "B^"
    assert w.letters[1 * stride + 1 + 1 * 3 + 2] == "B^"
    assert w.letters[2 * stride + 3] == "M^"


def test_encode_classes(bouncer):
    w = encode_tm_run(bouncer, 2)
    stride = config_length(bouncer)
    cell_class = {}
    state_classes = []
    for t in range(3):
        state_classes.append(w.classes[t * stride])
        for j in range(bouncer.cells):
            block = t * stride + 1 + j * (bouncer.size + 1)
            got = set(w.classes[block:block + bouncer.size + 1])
            assert len(got) == 1  # address and content share the cell class
            cell_class.setdefault(j, set()).add(got.pop())
    for j, classes in cell_class.items():
        assert len(classes) == 1  # one class per cell across configurations
    assert len(set(state_classes)) == 3  # fresh class per configuration
    assert not set(state_classes) & {c for s in cell_class.values() for c in s}


def test_formula_is_sentence_and_round_trips(bouncer):
    f = tm_to_formula(bouncer)
    assert is_sentence(f)
    text = print_formula_file(tm_alphabet(bouncer), f)
    ab, again = parse_formula_file(text)
    assert ab.letters == tm_alphabet(bouncer).letters
    assert again == f


def test_shared_subformulas_translate_like_unshared(bouncer):
    """tm_to_formula builds each letter disjunction once and reuses it; a
    reparsed copy, whose equal subtrees are distinct objects, translates to
    the same automaton."""
    ab = tm_alphabet(bouncer)
    f = tm_to_formula(bouncer)
    copy = parse_formula(print_formula(f), ab)
    assert copy == f
    shared = ltl_to_ara(f, ab)
    unshared = ltl_to_ara(copy, ab)
    assert (shared.states, shared.initial) == (unshared.states, unshared.initial)
    assert shared.delta == unshared.delta
    assert format_automaton(shared) == format_automaton(unshared)


def _seeded_tm(seed, n_states, size):
    rng = random.Random(seed)
    states = ("q0", "q1")[:n_states]
    rules = {(q, a): (rng.choice(states), rng.choice("BM"), rng.choice((-1, 1)))
             for q in states for a in "BM"}
    return TuringMachine(("B", "M"), "B", states, "q0", rules, size)


def test_formulas_match_the_recorded_ones(bouncer, halting):
    """tm_to_formula gives, node for node, the formulas recorded in
    tm_formulas.txt: those of bouncer.tm, halting.tm and seeded machines of
    1-2 states at sizes 1-3 (seed 10 * size + states)."""
    machines = {"bouncer.tm": bouncer, "halting.tm": halting}
    for size in (1, 2, 3):
        for n in (1, 2):
            machines["seed %d" % (10 * size + n)] = _seeded_tm(10 * size + n, n, size)
    with open(os.path.join(os.path.dirname(__file__), "tm_formulas.txt")) as fh:
        recorded = dict(line.split(": ", 1) for line in fh.read().splitlines())
    assert recorded.keys() == machines.keys()
    for name, m in machines.items():
        f = tm_to_formula(m)
        assert print_formula(f) == recorded[name], name
        assert f == parse_formula(recorded[name], tm_alphabet(m)), name


def test_long_run_prefix_reachable(bouncer):
    """The letters of an 8-transition run encoding (117 letters) can be read
    to rest by the compiled machine of bouncer.tm's formula."""
    aut = ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer))
    letters = encode_tm_run(bouncer, 8).letters
    assert len(letters) == 9 * config_length(bouncer) == 117
    assert prefix_reachable(ara_to_ipcant(aut), letters)


def test_formula_accepts_encoded_run(bouncer):
    aut = ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer))
    w = encode_tm_run(bouncer, 2)
    assert run_exists(aut, w)
    for i in (1, 7, 13, 26):
        assert run_exists(aut, w.prefix(i))


def test_formula_rejects_corrupted_run(bouncer):
    aut = ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer))
    w = encode_tm_run(bouncer, 2)
    stride = config_length(bouncer)
    # wrong successor state in the second configuration
    letters = list(w.letters)
    assert letters[stride] == "r1"
    letters[stride] = "r0"
    assert not run_exists(aut, canonicalize(letters, w.classes))
    # head marker dropped entirely
    letters = list(w.letters)
    assert letters[3] == "B^"
    letters[3] = "B"
    assert not run_exists(aut, canonicalize(letters, w.classes))


def test_parse_format_round_trip(bouncer, halting):
    for m in (bouncer, halting):
        text = format_tm(m)
        again = parse_tm(text)
        assert format_tm(again) == text
        assert again.rules == m.rules and again.states == m.states
        assert again.size == m.size and again.blank == m.blank


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tm("tape: B\nblank: B\nstates: q\ninitial: q\n")  # no size
    with pytest.raises(ParseError):
        parse_tm("tape: B\nblank: B\nstates: q\ninitial: q\nsize: x\n")
    base = "tape: B\nblank: B\nstates: q\ninitial: q\nsize: 1\n"
    with pytest.raises(ParseError):
        parse_tm(base + "q, B -> q, B\n")  # missing move
    with pytest.raises(ParseError):
        parse_tm(base + "q, B -> q, B, 0\n")
    with pytest.raises(ParseError):
        parse_tm(base + "q, B -> q, B, +1\nq, B -> q, B, -1\n")


def test_validation_errors():
    rules = {("q", "B"): ("q", "B", 1)}
    with pytest.raises(ValidationError):
        TuringMachine(("B",), "B", ("q",), "q", rules, 0)
    with pytest.raises(ValidationError):
        TuringMachine(("B",), "C", ("q",), "q", rules, 1)
    with pytest.raises(ValidationError):
        TuringMachine(("B",), "B", ("q",), "r", rules, 1)
    with pytest.raises(ValidationError):
        TuringMachine(("B", "M"), "B", ("q",), "q", rules, 1)  # not total
    with pytest.raises(ValidationError):
        TuringMachine(("B",), "B", ("q",), "q",
                      {("q", "B"): ("q", "B", 0)}, 1)
    with pytest.raises(ValidationError):
        # a state named like a hatted content letter collides in the encoding
        TuringMachine(("B",), "B", ("B^",), "B^",
                      {("B^", "B"): ("B^", "B", 1)}, 1)


def test_size_ceiling():
    """A tape of at most 2^64 cells: a larger size is refused on
    construction, so also when a file is parsed."""
    rules = {("q", "B"): ("q", "B", 1)}
    assert TuringMachine(("B",), "B", ("q",), "q", rules, 64).cells == 2 ** 64
    for size in (65, 1000):
        with pytest.raises(ValidationError, match="size must be at most 64"):
            TuringMachine(("B",), "B", ("q",), "q", rules, size)
        with pytest.raises(ValidationError, match="size must be at most 64"):
            parse_tm("tape: B\nblank: B\nstates: q\ninitial: q\nsize: %d\n"
                     "q, B -> q, B, +1\n" % size)
