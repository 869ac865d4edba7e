from itertools import product

import pytest

from regsafe.words import Alphabet, canonicalize
from regsafe.ara import ltl_to_ara, run_exists
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.ipcant import parse_machine
from regsafe.ltl import parse_formula
from regsafe.pipeline import (Inclusion, Nonemptiness, ara_to_ipcant,
                              bounded_nonemptiness, inclusion_check,
                              initial_config, prefix_reachable)

AB = Alphabet(("a", "b"))


def _bot_automaton():
    return AlternatingAutomaton(AB, ("z",), "z", {})


def _forker():
    return AlternatingAutomaton(AB, ("p", "r"), "p", {
        ("p", "a", "up"): pb.And(pb.Ref("p"), pb.DownRef("r")),
        ("p", "a", "nup"): pb.Ref("p"),
        ("p", "b", "up"): pb.Top(),
        ("r", "a", "nup"): pb.Ref("r"),
        ("r", "b", "nup"): pb.Top(),
    })


def _words_with_letters(letters):
    """Every data word (up to class renaming) whose letter sequence is
    exactly `letters`."""
    seen = set()
    for labels in product(range(len(letters)), repeat=len(letters)):
        w = canonicalize(letters, labels)
        if w.classes not in seen:
            seen.add(w.classes)
            yield w


def test_nonemptiness_compiled_verdicts(fig1, top_automaton):
    assert bounded_nonemptiness(ara_to_ipcant(top_automaton)) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(ara_to_ipcant(fig1)) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(ara_to_ipcant(_bot_automaton())) is Nonemptiness.EMPTY


def test_nonemptiness_file_machine(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    # the counter climbs forever: a short cap concludes, a tight value cap
    # cuts the only branch and leaves the question open
    assert bounded_nonemptiness(machine, cap=50) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(machine, vcap=8) is Nonemptiness.UNKNOWN


def test_nonemptiness_start_override(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    control, sv = initial_config(machine)
    assert control == "p" and sv == {}
    assert bounded_nonemptiness(machine, cap=50,
                                start=("p", {0: 3})) is Nonemptiness.NONEMPTY


def test_prefix_reachable_file_machine(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    assert prefix_reachable(machine, ("a", "a", "a"))
    assert not prefix_reachable(machine, ("a", "b"))


def test_prefix_reachable_explicit_machine_must_rest():
    # b reads q0 away from the register, but the current class's q0 has no
    # b move: the explicit cycle dies after its read instruction
    aut = AlternatingAutomaton(AB, ("q0",), "q0", {
        ("q0", "a", "up"): pb.And(pb.Ref("q0"), pb.DownRef("q0")),
        ("q0", "b", "nup"): pb.Ref("q0"),
    })
    for machine in (ara_to_ipcant(aut), ara_to_ipcant(aut).materialize()):
        assert not prefix_reachable(machine, ("b",))
        assert prefix_reachable(machine, ("a",))


def test_prefix_reachable_blocked_automaton():
    machine = ara_to_ipcant(_bot_automaton())
    assert not prefix_reachable(machine, ("a",))


@pytest.mark.parametrize("max_len", [3])
def test_prefix_reachable_matches_runs(fig1, abc, max_len):
    machine = ara_to_ipcant(fig1)
    for n in range(1, max_len + 1):
        for letters in product(abc.letters, repeat=n):
            got = prefix_reachable(machine, letters)
            want = any(run_exists(fig1, w) for w in _words_with_letters(letters))
            assert got == want, letters


def test_prefix_reachable_matches_runs_forker():
    aut = _forker()
    machine = ara_to_ipcant(aut)
    for n in range(1, 5):
        for letters in product(AB.letters, repeat=n):
            got = prefix_reachable(machine, letters)
            want = any(run_exists(aut, w) for w in _words_with_letters(letters))
            assert got == want, letters


def test_inclusion_self(fig1):
    res = inclusion_check(fig1, fig1)
    assert res.verdict is Inclusion.INCLUDED
    assert res.explored == 1275
    assert res.converged
    # the dual obligations never fully discharge along minimal configurations
    assert res.checkpoints == 0


def test_inclusion_strict(fig1, top_automaton):
    res = inclusion_check(top_automaton, fig1)
    assert res.verdict is Inclusion.NOT_INCLUDED
    assert res.checkpoints >= 1
    assert inclusion_check(fig1, top_automaton).verdict is Inclusion.INCLUDED


def test_inclusion_formula_weakening(abc):
    phi = parse_formula("G (down X G (b | c | nup)) & G a | G b", abc)
    weaker = parse_formula("G (down X G (b | c | nup)) & G a | G b | G c", abc)
    a1 = ltl_to_ara(phi, abc)
    a2 = ltl_to_ara(weaker, abc)
    assert inclusion_check(a1, a2).verdict is Inclusion.INCLUDED


def test_inclusion_cap_exhaustion(fig1):
    res = inclusion_check(fig1, fig1, cap=50)
    assert res.verdict is Inclusion.UNKNOWN
    assert not res.converged
    assert res.explored == 53


def test_saturation_result_is_minimal(fig1, top_automaton):
    res = inclusion_check(top_automaton, fig1)
    assert res.s_last
    by_control = {}
    for control, sv in res.s_last:
        assert all(n > 0 for n in sv.values())
        by_control.setdefault(control, []).append(sv)
    for chain in by_control.values():
        for i, small in enumerate(chain):
            for j, big in enumerate(chain):
                if i == j:
                    continue
                assert not all(big.get(ci, 0) >= n for ci, n in small.items())
