import random

from hypothesis import given, settings, strategies as hst
import pytest

from regsafe.errors import ValidationError
from regsafe.words import Alphabet, DataWord, parse_word
from regsafe.ara import run_exists
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.pipeline import oracle_run_exists, pattern_occurs
from regsafe.pipeline.oracle import frontier_run_exists, frontier_takes
from regsafe import randgen

AB = Alphabet(("a", "b"))


def test_pattern_occurs_frozen(abc):
    assert pattern_occurs(parse_word("a@D c@E b@D", abc), "a", "c", "b")
    assert not pattern_occurs(parse_word("a@D c@D b@E", abc), "a", "c", "b")
    assert not pattern_occurs(parse_word("a@D b@D c@D", abc), "a", "c", "b")
    assert pattern_occurs(parse_word("b@X a@D c@D b@D", abc), "a", "c", "b")
    assert not pattern_occurs(parse_word("a@D c@E", abc), "a", "c", "b")


def test_oracle_on_trivial_automata(top_automaton, abc):
    bot = AlternatingAutomaton(AB, ("z",), "z", {})
    rng = random.Random(3)
    for _ in range(30):
        w = randgen.random_word(rng, AB, 5)
        assert oracle_run_exists(top_automaton, w)
        assert not oracle_run_exists(bot, w)


def test_oracle_matches_fig1_pattern(fig1, abc):
    rng = random.Random(4)
    for _ in range(200):
        w = randgen.random_word(rng, abc, 5)
        assert oracle_run_exists(fig1, w) == (
            not pattern_occurs(w, "a", "c", "b"))


def test_oracle_matches_run_exists_seeded():
    rng = random.Random(5)
    for trial in range(300):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        w = randgen.random_word(rng, AB, 5)
        assert oracle_run_exists(aut, w) == run_exists(aut, w), trial


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), data=hst.data())
def test_three_routes_agree_property(seed, data):
    """run_exists, oracle_run_exists and frontier_run_exists agree on a
    random 1-3-state automaton and a canonical word of length <= 6.  The
    frontier route is asked only inside its default guards (2 states,
    length 3): it keeps every reachable family of configuration sets, and
    past them one pair can take seconds."""
    aut = randgen.random_automaton(random.Random(seed), AB, max_states=3)
    n = data.draw(hst.integers(1, 6))
    letters = data.draw(hst.lists(hst.sampled_from(AB.letters), min_size=n, max_size=n))
    classes = []
    for _ in range(n):
        classes.append(data.draw(hst.integers(0, max(classes, default=-1) + 1)))
    w = DataWord(tuple(letters), tuple(classes))
    got = run_exists(aut, w)
    assert oracle_run_exists(aut, w) == got
    if frontier_takes(aut, w):
        assert frontier_run_exists(aut, w) == got


def test_frontier_route_agrees():
    rng = random.Random(6)
    for trial in range(200):
        aut = randgen.random_automaton(rng, AB, max_states=2)
        w = randgen.random_word(rng, AB, 3)
        got = frontier_run_exists(aut, w)
        assert got == run_exists(aut, w), trial
        assert got == oracle_run_exists(aut, w), trial


def test_oracle_guards(fig1, abc):
    w7 = parse_word("a@D a@D a@D a@D a@D a@D a@D", abc)
    with pytest.raises(ValidationError):
        oracle_run_exists(fig1, w7)
    big = AlternatingAutomaton(AB, ("q0", "q1", "q2", "q3", "q4"), "q0", {})
    with pytest.raises(ValidationError):
        oracle_run_exists(big, parse_word("a@D", AB))
    with pytest.raises(ValidationError):
        frontier_run_exists(fig1, parse_word("a@D", abc))  # three states
    w4 = parse_word("a@D a@D a@D a@D", AB)
    two = AlternatingAutomaton(AB, ("p", "r"), "p", {})
    with pytest.raises(ValidationError):
        frontier_run_exists(two, w4)
    empty = DataWord((), ())
    with pytest.raises(ValidationError, match="non-empty"):
        oracle_run_exists(two, empty)
    with pytest.raises(ValidationError, match="frontier guard"):
        frontier_run_exists(two, empty)
