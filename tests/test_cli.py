import io
import json
import os
import shlex
import subprocess
import sys

import pytest

from regsafe import memo
from regsafe.cli import TMGEN_MAX_LETTERS, run_cli
from regsafe.words import parse_word
from regsafe.ara import parse_automaton
from regsafe.ipcant import format_machine, parse_machine
from regsafe.ipcant.fileformat import _parse_structure
from regsafe.ltl import parse_formula, parse_formula_file
from regsafe.pipeline import encode_tm_run, parse_tm, tm_alphabet
from regsafe.pipeline.compile import family_structure, letter_free_cycle
from regsafe.words import print_word

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def _alone(args, timeout=60):
    """(exit code, stdout, stderr) of a fresh interpreter given args, with
    the source tree on its path."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def _empty_family_caches():
    """Empty the process-wide caches of counter families, as a fresh
    process has them."""
    for cache in (family_structure, letter_free_cycle, _parse_structure):
        cache.cache_clear()


def test_parse_echoes_canonical_formula(data_path, capsys):
    assert run_cli(["parse", "--formula", data_path("example.ltl")]) == 0
    out, _ = _out(capsys)
    assert out == "G (b | c | down X G (a | b | X G (a | c | nup)))\n"


def test_parse_json_record(data_path, capsys):
    assert run_cli(["parse", "--format", "json",
                    "--formula", data_path("example.ltl")]) == 0
    out, _ = _out(capsys)
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["command"] == "parse"
    assert record["alphabet"] == ["a", "b", "c"]
    assert lines[0] == json.dumps(record, sort_keys=True)


def test_ltl2ara_output_parses(data_path, capsys):
    assert run_cli(["ltl2ara", "--formula", data_path("example.ltl")]) == 0
    out, _ = _out(capsys)
    aut = parse_automaton(out)
    assert len(aut.states) == 3


def test_ara2cm_output_parses(data_path, capsys):
    assert run_cli(["ara2cm", "--automaton", data_path("top.ara")]) == 0
    out, _ = _out(capsys)
    machine = parse_machine(out)
    assert len(machine.states) == 18
    assert machine.initial == "read_1"


def test_run_verdicts(data_path, data_text, monkeypatch, capsys):
    fig = data_path("fig1.ara")
    assert run_cli(["run", "--automaton", fig, "--word", "a@D c@D b@E"]) == 0
    assert _out(capsys)[0] == "YES\n"
    assert run_cli(["run", "--automaton", fig, "--word", "a@D c@D b@D"]) == 1
    assert _out(capsys)[0] == "NO\n"
    # an input path of - reads the file from standard input
    monkeypatch.setattr(sys, "stdin", io.StringIO(data_text("fig1.ara")))
    assert run_cli(["run", "--automaton", "-", "--word", "a@D c@D b@E"]) == 0
    assert _out(capsys) == ("YES\n", "")


def test_sat_verdicts(data_path, capsys):
    tiny = data_path("tiny.cm")
    assert run_cli(["sat", "--machine", tiny, "--cap", "50"]) == 0
    assert _out(capsys)[0] == "NONEMPTY\n"
    assert run_cli(["sat", "--machine", tiny, "--vcap", "8"]) == 2
    assert _out(capsys)[0] == "UNKNOWN\n"
    assert run_cli(["sat", "--automaton", data_path("fig1.ara")]) == 0
    assert _out(capsys)[0] == "NONEMPTY\n"
    assert run_cli(["sat"]) == 64


def test_sat_machine_relation_header(tmp_path, capsys):
    """A decrement of an empty counter loops on a lazy machine only."""
    header = "alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
    lazy = tmp_path / "lazy.cm"
    lazy.write_text(header + "p -a, dec {x}-> p\n")
    assert run_cli(["sat", "--machine", str(lazy)]) == 0
    assert _out(capsys)[0] == "NONEMPTY\n"
    free = tmp_path / "free.cm"
    free.write_text(header + "relation: error-free\np -a, dec {x}-> p\n")
    assert run_cli(["sat", "--machine", str(free)]) == 1
    assert _out(capsys)[0] == "EMPTY\n"
    bogus = tmp_path / "bogus.cm"
    bogus.write_text(header + "relation: bogus\np -a, dec {x}-> p\n")
    assert run_cli(["sat", "--machine", str(bogus)]) == 65
    out, err = _out(capsys)
    assert out == "" and err.startswith("parse error: ")


def test_ara2cm_then_sat_machine_matches_automaton(data_path, tmp_path, capsys):
    """The printed machine is the error-free one materialize() built, so it
    gets the automaton's verdict."""
    assert run_cli(["ara2cm", "--automaton", data_path("fig1.ara")]) == 0
    machine = tmp_path / "fig1.cm"
    machine.write_text(_out(capsys)[0])
    assert run_cli(["sat", "--machine", str(machine)]) == 0
    assert _out(capsys)[0] == "NONEMPTY\n"


def test_fig1_prints_alike_fresh_and_after_another_of_its_family(data_path, tmp_path, capsys):
    """The letter-free part of the cycle, the counter structure and the
    parsed, checked and printed lines and instructions are shared by the
    machines of a counter family within a process.  From empty family
    caches, another automaton over fig1's states is printed first, then
    fig1: it prints as in a fresh process, and both machines print back as
    parsed, other first, so that fig1 is parsed against a warm line cache."""
    fig1 = ["ara2cm", "--automaton", data_path("fig1.ara")]
    code, fresh, _ = _alone(["-m", "regsafe"] + fig1)
    assert code == 0
    _empty_family_caches()
    other = tmp_path / "other.ara"
    other.write_text("alphabet: a b c\nstates: q q1 q2\ninitial: q1\nq, a, up -> q2\n"
                     "q1, b, * -> d(q) | q1\nq2, a, nup -> q2 & d(q1)\n")
    printed = []
    for argv in (["ara2cm", "--automaton", str(other)], fig1):
        assert run_cli(argv) == 0, argv
        printed.append(_out(capsys)[0])
    other, after = printed
    assert other.splitlines()[3].startswith("states: "), other
    assert after == fresh, "fig1's machine differs after another of its family"
    assert other != fresh
    for text in (other, fresh):
        assert format_machine(parse_machine(text, "full")) == text


@pytest.fixture(scope="module")
def default_bound_answers(data_path):
    """(exit code, stdout, stderr) of fig1's ara2cm and three sat queries,
    each in a fresh interpreter at the default memo bound."""
    queries = [("ara2cm", "--automaton", data_path("fig1.ara")),
               ("sat", "--automaton", data_path("fig1.ara")),
               ("sat", "--automaton", data_path("top.ara")),
               ("sat", "--machine", data_path("tiny.cm"))]
    return {argv: _alone(["-m", "regsafe", *argv], timeout=300) for argv in queries}


@pytest.mark.parametrize("order", ["bound-first", "fig1-first"])
def test_answers_alike_with_every_memo_bounded_at_8(data_path, default_bound_answers,
                                                    monkeypatch, capsys, order):
    """regsafe.memo.BOUND is read each time a memo keeps, so setting it
    bounds run_exists's step tables, the lettered steps and every counter
    family's memos at once, those made before it too from their next keep
    on.  Here the step tables, the read-transfer and edge memos and the op
    and print memos fill and empty many times over, and no answer or
    printed byte may change.  From empty family caches, bound-first sets
    the bound before anything is built; fig1-first compiles fig1 at the
    default bound first, so that its family is interned before the bound
    drops."""
    fig1 = data_path("fig1.ara")
    _empty_family_caches()
    if order == "fig1-first":
        assert run_cli(["ara2cm", "--automaton", fig1]) == 0
        _out(capsys)
    monkeypatch.setattr(memo, "BOUND", 8)
    for extra in ([], ["--max-states", "3", "--max-len", "40"]):
        assert run_cli(["oracle", "--trials", "200", "--seed", "4"] + extra) == 0, extra
        assert _out(capsys) == ("AGREE trials=200 seed=4\n", ""), extra
    assert run_cli(["include", "--format", "json", "--lhs", fig1, "--rhs", fig1]) == 0
    record = json.loads(_out(capsys)[0])
    assert (record["verdict"], record["explored"]) == ("INCLUDED", 1275), record
    for argv, alone in default_bound_answers.items():
        code = run_cli(list(argv))
        assert (code, *_out(capsys)) == alone, argv


@pytest.mark.parametrize("module", ["regsafe", "regsafe.cli"])
def test_python_m_runs_the_cli(data_path, module):
    code, out, _ = _alone(["-m", module, "sat", "--machine", data_path("tiny.cm"), "--cap", "50"])
    assert (code, out) == (0, "NONEMPTY\n")


_RUNTIME_PROBE = """
import contextlib, io, os, sys
import regsafe, regsafe.cli, regsafe.ipcant, regsafe.pipeline
data = sys.argv[1]
runs = [
    (0, ["parse", "--formula", os.path.join(data, "example.ltl")]),
    (0, ["ltl2ara", "--formula", os.path.join(data, "example.ltl")]),
    (0, ["ara2cm", "--automaton", os.path.join(data, "fig1.ara")]),
    (0, ["run", "--automaton", os.path.join(data, "fig1.ara"), "--word", "a@D c@D b@E"]),
    (0, ["sat", "--automaton", os.path.join(data, "fig1.ara")]),
    (1, ["include", "--lhs", os.path.join(data, "top.ara"), "--rhs", os.path.join(data, "fig1.ara")]),
    (0, ["refine", "--lhs", os.path.join(data, "example.ltl"),
         "--rhs", os.path.join(data, "example.ltl")]),
    (0, ["bound", "--machine", os.path.join(data, "tiny.cm")]),
    (0, ["tmgen", "--tm", os.path.join(data, "halting.tm"), "--steps", "0"]),
    (0, ["oracle", "--trials", "3"]),
]
for code, argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert regsafe.cli.run_cli(argv) == code, argv
loaded = [m for m in sys.modules if m == "regsafe.reference" or m.startswith("regsafe.reference.")]
assert not loaded, "loaded by the command line: %s" % loaded
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, name + " loaded by the command line"
print(" ".join(argv[0] for _, argv in runs))
"""


def test_command_line_loads_nothing_test_only(data_path):
    """In a fresh interpreter, importing what the benchmark's worker imports
    and running every subcommand once loads nothing of regsafe.reference,
    nor dataclasses and inspect."""
    code, out, err = _alone(["-c", _RUNTIME_PROBE, os.path.dirname(data_path("fig1.ara"))])
    assert (code, err) == (0, ""), err
    assert out == "parse ltl2ara ara2cm run sat include refine bound tmgen oracle\n"


def test_include_verdicts(data_path, capsys):
    fig, top = data_path("fig1.ara"), data_path("top.ara")
    assert run_cli(["include", "--lhs", fig, "--rhs", fig]) == 0
    assert _out(capsys)[0] == "INCLUDED\n"
    assert run_cli(["include", "--lhs", top, "--rhs", fig]) == 1
    assert _out(capsys)[0] == "NOT_INCLUDED\n"


def test_include_json_record(data_path, capsys):
    fig = data_path("fig1.ara")
    assert run_cli(["include", "--format", "json",
                    "--lhs", fig, "--rhs", fig]) == 0
    record = json.loads(_out(capsys)[0])
    assert record["verdict"] == "INCLUDED"
    assert record["explored"] == 1275
    assert record["converged"] is True
    assert "checkpoints" in record


def test_refine(data_path, tmp_path, capsys):
    example = data_path("example.ltl")
    assert run_cli(["refine", "--lhs", example, "--rhs", example]) == 0
    assert _out(capsys) == ("INCLUDED\n", "")
    lhs = tmp_path / "strong.ltl"
    rhs = tmp_path / "weak.ltl"
    lhs.write_text("alphabet: a b\n(G a) & (down X (a R b))\n")
    rhs.write_text("alphabet: a b\nG a\n")
    assert run_cli(["refine", "--lhs", str(lhs), "--rhs", str(rhs)]) == 0
    assert _out(capsys)[0] == "INCLUDED\n"
    assert run_cli(["refine", "--lhs", str(rhs), "--rhs", str(lhs)]) == 1
    assert _out(capsys)[0] == "NOT_INCLUDED\n"


def test_mismatched_alphabets_exit_65(tmp_path, data_path, capsys):
    """Two inputs that each validate but share no alphabet cannot be
    compared: invalid input (65), naming both files and both alphabets."""
    fig = data_path("fig1.ara")
    ab, ac = tmp_path / "ab.ara", tmp_path / "ac.ara"
    ab.write_text("alphabet: a b\nstates: p\ninitial: p\np, a, * -> p\n")
    ac.write_text("alphabet: a c\nstates: p\ninitial: p\np, a, * -> p\n")
    for lhs, letters in ((fig, "a b c"), (ab, "a b")):
        assert run_cli(["include", "--lhs", str(lhs), "--rhs", str(ac)]) == 65
        out, err = _out(capsys)
        assert out == ""
        assert err == "invalid input: %s and %s must share an alphabet, not %s and a c\n" % (
            lhs, ac, letters)
    lhs, rhs = tmp_path / "a.ltl", tmp_path / "ab.ltl"
    lhs.write_text("alphabet: a\nG a\n")
    rhs.write_text("alphabet: a b\nG a\n")
    assert run_cli(["refine", "--lhs", str(lhs), "--rhs", str(rhs)]) == 65
    out, err = _out(capsys)
    assert out == ""
    assert err == "invalid input: %s and %s must share an alphabet, not a and a b\n" % (
        lhs, rhs)


def test_too_deep_input_exits_65(data_path, monkeypatch, capsys):
    """An input nested past the call stack, where some step still recurses,
    is invalid input (65) on one stderr line, not a traceback."""
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("regsafe.cli.parse_automaton", too_deep)
    assert run_cli(["run", "--automaton", data_path("fig1.ara"), "--word", "a@0"]) == 65
    out, err = _out(capsys)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invalid input: nested too deeply")


def test_free_register_test_exits_65(tmp_path, capsys):
    """A formula with a free register test parses, and parse echoes it, but
    it is no sentence: ltl2ara and refine, on either side, refuse it as
    invalid input (65) with nothing on stdout."""
    free, closed = tmp_path / "free.ltl", tmp_path / "closed.ltl"
    free.write_text("alphabet: a b\nup\n")
    closed.write_text("alphabet: a b\nG a\n")
    assert run_cli(["parse", "--formula", str(free)]) == 0
    assert _out(capsys) == ("up\n", "")
    for argv in (["ltl2ara", "--formula", str(free)],
                 ["refine", "--lhs", str(free), "--rhs", str(closed)],
                 ["refine", "--lhs", str(closed), "--rhs", str(free)]):
        assert run_cli(argv) == 65, argv
        assert _out(capsys) == (
            "", "invalid input: %s: formula has a free register test\n" % free), argv


def test_ara2cm_refuses_the_reserved_letter_eps(tmp_path, capsys):
    """A machine file labels letter-free moves eps, so no machine has a
    letter of that name: ara2cm refuses an automaton over one as invalid
    input (65), printing nothing, as sat --machine refuses a machine file
    declaring one."""
    formula = tmp_path / "eps.ltl"
    formula.write_text("alphabet: eps b\nG eps\n")
    assert run_cli(["ltl2ara", "--formula", str(formula)]) == 0
    aut = tmp_path / "eps.ara"
    aut.write_text(_out(capsys)[0])
    assert run_cli(["ara2cm", "--automaton", str(aut)]) == 65
    assert _out(capsys) == ("", "invalid input: %s: letter name 'eps' is reserved\n" % aut)
    machine = tmp_path / "eps.cm"
    machine.write_text("alphabet: eps b\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
                       "p -b, inc {x}-> p\n")
    assert run_cli(["sat", "--machine", str(machine)]) == 65
    assert _out(capsys) == ("", "invalid input: %s: letter name 'eps' is reserved\n" % machine)


def test_bound_file_machine(data_path, capsys):
    assert run_cli(["bound", "--machine", data_path("tiny.cm")]) == 0
    assert _out(capsys)[0] == "alpha: 1 2\nU: 1 3\nm=12\n"


def test_bound_automaton(data_path, capsys):
    assert run_cli(["bound", "--automaton", data_path("top.ara")]) == 0
    out, _ = _out(capsys)
    assert out.startswith("alpha: 18 ")
    assert "m=" in out


def test_bound_puts_the_digit_limit_back(tmp_path, capsys):
    """bound lifts the process-wide int-to-str digit limit to print m, here
    of some 33k digits, and restores it after both output formats."""
    one = tmp_path / "one.ara"
    one.write_text("alphabet: a\nstates: p\ninitial: p\np, a, * -> p\n")
    before = sys.get_int_max_str_digits()
    for fmt in ("text", "json"):
        assert run_cli(["bound", "--format", fmt, "--automaton", str(one)]) == 0
        assert sys.get_int_max_str_digits() == before
        out, _ = _out(capsys)
        assert len(out) > 30000


def test_bound_without_the_digit_limit(data_path, capsys, monkeypatch):
    """Pythons before 3.10.7 have no digit limit and no function to read it."""
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run_cli(["bound", "--machine", data_path("tiny.cm")]) == 0
    assert _out(capsys)[0] == "alpha: 1 2\nU: 1 3\nm=12\n"


def _refuse_constant(name):
    raise ValueError("not strict JSON: %s" % name)


def test_bound_past_the_float_range(data_path, tmp_path, capsys):
    """On the bouncer formula's 88-state automaton log2 m overflows a float:
    bound prints log2(log2 m) instead, in text and as strict JSON.  On 520
    states the machine's counter count is itself past the floats."""
    formula, automaton = tmp_path / "bouncer.ltl", tmp_path / "bouncer.ara"
    assert run_cli(["tmgen", "--tm", data_path("bouncer.tm")]) == 0
    formula.write_text(_out(capsys)[0])
    assert run_cli(["ltl2ara", "--formula", str(formula)]) == 0
    automaton.write_text(_out(capsys)[0])
    assert len(parse_automaton(automaton.read_text()).states) == 88
    assert run_cli(["bound", "--automaton", str(automaton)]) == 0
    assert _out(capsys) == ("m is about 2^(2^46824.082), too large to materialize\n", "")
    assert run_cli(["bound", "--format", "json", "--automaton", str(automaton)]) == 0
    record = json.loads(_out(capsys)[0], parse_constant=_refuse_constant)
    assert record == {"command": "bound", "materialized": False,
                      "m_log2_log2": pytest.approx(46824.082, abs=0.001)}
    wide = tmp_path / "wide.ara"
    wide.write_text("alphabet: a\nstates: %s\ninitial: q0\nq0, a, * -> q0\n"
                    % " ".join("q%d" % i for i in range(520)))
    assert run_cli(["bound", "--automaton", str(wide)]) == 0
    assert _out(capsys) == ("m is about 2^(2^1624490.616), too large to materialize\n", "")


def test_tmgen_round_trip(data_path, data_text, tmp_path, capsys):
    """tmgen's formula of bouncer.tm and the word of its run of two steps:
    parse echoes the formula, the echo echoes alike, and the formula's
    automaton accepts the word."""
    assert run_cli(["tmgen", "--tm", data_path("bouncer.tm")]) == 0
    out, _ = _out(capsys)
    ab, f = parse_formula_file(out)
    assert ab.letters[0] == "r0"
    assert run_cli(["tmgen", "--tm", data_path("bouncer.tm"),
                    "--steps", "2"]) == 0
    out, _ = _out(capsys)
    word_lines = [l for l in out.splitlines() if l.startswith("word: ")]
    assert len(word_lines) == 1
    machine = parse_tm(data_text("bouncer.tm"))
    expected = print_word(encode_tm_run(machine, 2))
    assert word_lines[0] == "word: " + expected
    parse_word(word_lines[0][len("word: "):], tm_alphabet(machine))
    lines = out.splitlines()
    formula, echoed = tmp_path / "bouncer.ltl", tmp_path / "echoed.ltl"
    formula.write_text("".join(line + "\n" for line in lines[:2]))
    assert run_cli(["parse", "--formula", str(formula)]) == 0
    once, err = _out(capsys)
    assert err == ""
    echoed.write_text(lines[0] + "\n" + once)
    assert run_cli(["parse", "--formula", str(echoed)]) == 0
    assert _out(capsys) == (once, "")
    automaton = tmp_path / "bouncer.ara"
    assert run_cli(["ltl2ara", "--formula", str(formula)]) == 0
    automaton.write_text(_out(capsys)[0])
    assert run_cli(["run", "--automaton", str(automaton), "--word", expected]) == 0
    assert _out(capsys) == ("YES\n", "")


@pytest.mark.parametrize("argv", [
    ["--trials", "500", "--seed", "1"],
    # up to 6 states, so the step memos' s_c | s_here << n keys reach 12
    # bits, and words of up to 8 letters
    ["--trials", "300", "--seed", "2", "--max-states", "6", "--max-len", "8"],
    # run_exists steps every live class's mask in place; 216 of these words
    # are longer than 10 letters, with many classes live at once, and 37 of
    # those are accepted
    ["--trials", "300", "--seed", "3", "--max-states", "3", "--max-len", "40"],
], ids=["500-samples", "300-wide-automata", "300-long-words"])
def test_oracle_agrees(capsys, argv):
    """run_exists agrees with the brute-force run searches on seeded
    samples; oracle exits 1 and prints MISMATCH with the automaton and the
    word when the backward pass, the thread search or the definition
    differ."""
    assert run_cli(["oracle"] + argv) == 0
    assert _out(capsys) == ("AGREE trials=%s seed=%s\n" % (argv[1], argv[3]), "")


def test_oracle_json(capsys):
    assert run_cli(["oracle", "--trials", "5", "--format", "json"]) == 0
    record = json.loads(_out(capsys)[0])
    assert record == {"command": "oracle", "verdict": "AGREE",
                      "trials": 5, "seed": 0}


def test_oracle_checks_the_frontier_route(monkeypatch, capsys):
    """The frontier route is asked on every sample within its guards, and
    a wrong answer from it is reported."""
    import regsafe.cli as cli
    asked = []

    real = cli.frontier_run_exists

    def frontier(aut, w):
        asked.append((len(aut.states), len(w)))
        return real(aut, w)

    monkeypatch.setattr(cli, "frontier_run_exists", frontier)
    assert run_cli(["oracle", "--trials", "60", "--seed", "2"]) == 0
    assert _out(capsys)[0] == "AGREE trials=60 seed=2\n"
    # asked up to its guards, never past them, and not on every sample
    assert max(states for states, _ in asked) == 2
    assert max(letters for _, letters in asked) == 3
    assert len(asked) < 60

    monkeypatch.setattr(cli, "frontier_run_exists",
                        lambda aut, w: not cli.run_exists(aut, w))
    assert run_cli(["oracle", "--trials", "60", "--seed", "2"]) == 1
    out, err = _out(capsys)
    assert out.startswith("MISMATCH trial=")
    assert "word: " in err


def test_run_long_word(data_path, capsys):
    word = " ".join(["a@0"] * 5000)
    for name in ("top.ara", "fig1.ara"):
        assert run_cli(["run", "--automaton", data_path(name), "--word", word]) == 0
        out, err = _out(capsys)
        assert (out, err) == ("YES\n", "")


def test_run_deep_formula_file(tmp_path, capsys):
    """A transition nested deeper than the call stack, as format_automaton
    prints it, gives a verdict and no traceback."""
    formula = "d(p) & (" * 2999 + "d(p) & p" + ")" * 2999
    deep = tmp_path / "deep.ara"
    deep.write_text("alphabet: a\nstates: p\ninitial: p\np, a, * -> %s\n" % formula)
    assert run_cli(["run", "--automaton", str(deep), "--word", "a@0"]) in (0, 1)
    out, err = _out(capsys)
    assert out in ("YES\n", "NO\n") and err == ""


@pytest.mark.parametrize("command", ["parse", "ltl2ara"])
@pytest.mark.parametrize("body,states", [("X " * 3000 + "a", 3001),
                                         ("(" * 3000 + "a" + ")" * 3000, 1),
                                         (" & ".join(["a"] * 3000), 1)],
                         ids=["next", "parens", "and"])
def test_deep_formula_file_exits_65(tmp_path, capsys, command, body, states):
    """Formula files nested deeper than the call stack, which once exited
    65, now get an answer: parse echoes the formula, ltl2ara translates it."""
    deep = tmp_path / "deep.ltl"
    deep.write_text("alphabet: a\n%s\n" % body)
    assert run_cli([command, "--formula", str(deep)]) == 0
    out, err = _out(capsys)
    assert err == ""
    ab, f = parse_formula_file(deep.read_text())
    if command == "parse":
        assert parse_formula(out, ab) == f
    else:
        assert len(parse_automaton(out).states) == states


def test_tmgen_steps_past_the_letter_ceiling(data_path, data_text, tmp_path, capsys):
    """--steps whose run would encode more than TMGEN_MAX_LETTERS letters
    is a usage error, refused before the run is built: the first count past
    the ceiling on bouncer.tm (13 letters a configuration), a billion, and
    one step on a copy with 2^64 tape cells."""
    huge = tmp_path / "huge.tm"
    huge.write_text(data_text("bouncer.tm").replace("size: 2", "size: 64"))
    first = TMGEN_MAX_LETTERS // 13
    assert first * 13 <= TMGEN_MAX_LETTERS < (first + 1) * 13
    for path, steps in ((data_path("bouncer.tm"), first), (data_path("bouncer.tm"), 10 ** 9),
                        (str(huge), 1)):
        assert run_cli(["tmgen", "--tm", path, "--steps", str(steps)]) == 64, (path, steps)
        out, err = _out(capsys)
        assert out == "" and err.count("\n") == 1, (path, steps)
        assert err.startswith("error: --steps %d encodes " % steps), err
        assert err.endswith("more than the %d allowed\n" % TMGEN_MAX_LETTERS), err


def test_tmgen_on_a_machine_that_halts_at_once(data_path, capsys):
    """--steps past the run of a machine that halts is a usage error: exit
    64, one line on stderr and nothing on stdout."""
    assert run_cli(["tmgen", "--tm", data_path("halting.tm"), "--steps", "1"]) == 64
    assert _out(capsys) == ("", "error: machine halts after 0 transitions\n")


def test_tm_size_past_the_ceiling(data_text, tmp_path, capsys):
    """A .tm file whose size: is above 64 is invalid input (65), with or
    without --steps: no formula is built and no traceback printed."""
    for size in (65, 1000):
        path = tmp_path / ("size%d.tm" % size)
        path.write_text(data_text("bouncer.tm").replace("size: 2", "size: %d" % size))
        for steps in ([], ["--steps", "1"]):
            assert run_cli(["tmgen", "--tm", str(path)] + steps) == 65, (size, steps)
            out, err = _out(capsys)
            assert (out, err) == ("", "invalid input: %s: size must be at most 64\n" % path)


def test_usage_errors(data_path, tmp_path, capsys):
    assert run_cli(["nonsense"]) == 64
    assert run_cli(["run", "--automaton", data_path("fig1.ara")]) == 64
    assert run_cli(["sat", "--machine", data_path("tiny.cm"),
                    "--cap", "0"]) == 64
    assert run_cli(["parse", "--formula", str(tmp_path / "absent.ltl")]) == 64
    _out(capsys)
    # only sat, include and refine explore, and only they take the bounds
    fig, ltl = data_path("fig1.ara"), data_path("example.ltl")
    for argv in (["parse", "--formula", ltl], ["ltl2ara", "--formula", ltl],
                 ["ara2cm", "--automaton", fig], ["run", "--automaton", fig, "--word", "a@D"],
                 ["bound", "--automaton", fig], ["tmgen", "--tm", data_path("bouncer.tm")],
                 ["oracle", "--trials", "1"]):
        for flag in ("--cap", "--vcap"):
            assert run_cli(argv + [flag, "5"]) == 64, (argv, flag)
            out, err = _out(capsys)
            assert out == "" and err == "error: unrecognized arguments: %s 5\n" % flag, argv
        assert run_cli(argv) == 0, argv
        _out(capsys)
    # counts out of range, the oracle's ceilings among them: one error line
    # each, nothing run
    for argv in (["oracle", "--max-len", "0"], ["oracle", "--max-states", "0"],
                 ["oracle", "--trials", "-1"], ["oracle", "--max-states", "7"],
                 ["oracle", "--max-len", "51"], ["oracle", "--max-len", "900"],
                 ["tmgen", "--tm", data_path("bouncer.tm"), "--steps", "-1"]):
        assert run_cli(argv) == 64, argv
        out, err = _out(capsys)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    assert run_cli(["oracle", "--max-states", "6", "--max-len", "50", "--trials", "2"]) == 0
    assert _out(capsys)[0].startswith("AGREE")
    # sat and bound take exactly one of --machine and --automaton
    both = ["--machine", data_path("tiny.cm"), "--automaton", data_path("fig1.ara")]
    for command in ("sat", "bound"):
        assert run_cli([command] + both) == 64
        assert run_cli([command]) == 64
        out, err = _out(capsys)
        assert out == "" and err.count("error: ") == 2


def test_parse_errors_exit_65(tmp_path, data_path, capsys):
    bad = tmp_path / "bad.ltl"
    bad.write_text("alphabet: a\n(((\n")
    assert run_cli(["parse", "--formula", str(bad)]) == 65
    badword = ["run", "--automaton", data_path("fig1.ara"), "--word", "@@"]
    assert run_cli(badword) == 65
    _out(capsys)


def test_malformed_and_empty_words_exit_65(data_path, capsys):
    """The word of run is input: a malformed one and an empty one each exit
    65, the empty one with a message that names the word."""
    fig = data_path("fig1.ara")
    assert run_cli(["run", "--automaton", fig, "--word", "a@1@2"]) == 65
    assert _out(capsys) == ("", "parse error: malformed word token 'a@1@2'\n")
    for word in ("", "  "):
        assert run_cli(["run", "--automaton", fig, "--word", word]) == 65
        assert _out(capsys) == ("", "invalid input: the word given with --word is empty\n")


def test_formula_file_error_names_line_and_column(tmp_path, capsys):
    """A syntax error in a formula file is reported at its line and column
    in the file, not as an offset into the joined body."""
    bad = tmp_path / "bad.ltl"
    bad.write_text("alphabet: a b\n# comment\nG (a |\n  b) & X b)\n")
    assert run_cli(["parse", "--formula", str(bad)]) == 65
    _, err = _out(capsys)
    assert err == "parse error: %s: line 4, column 11: trailing input ')'\n" % bad
    # a bad character is named, not the whitespace before it
    bad.write_text("alphabet: a\nG a\n\t  %\n")
    assert run_cli(["parse", "--formula", str(bad)]) == 65
    _, err = _out(capsys)
    assert err == "parse error: %s: line 3, column 4: unexpected character '%%'\n" % bad
    # and so is an unknown state in a transition formula, after a blank line
    bad = tmp_path / "bad.ara"
    bad.write_text("alphabet: a\nstates: p\ninitial: p\n\np, a, * -> p & x\n")
    assert run_cli(["ara2cm", "--automaton", str(bad)]) == 65
    assert _out(capsys) == ("", "parse error: %s: line 5, column 16: unknown state 'x'\n" % bad)


def test_invalid_input_files_exit_65(tmp_path, capsys):
    """Files that parse but break an invariant of their format."""
    header = "alphabet: a\nbasis: x y\ncounters: {x} {y} {x,y}\nstates: p q\ninitial: p\n"
    nondistributive = tmp_path / "nondistributive.cm"
    nondistributive.write_text(header + "p -a, transf {x}->[{x}]; {y}->[{y}]; {x,y}->[]-> p\n")
    assert run_cli(["sat", "--machine", str(nondistributive)]) == 65
    eps_cycle = tmp_path / "cycle.cm"
    eps_cycle.write_text(header + "p -eps, inc {x}-> q\nq -eps, nop-> p\n")
    assert run_cli(["sat", "--machine", str(eps_cycle)]) == 65
    assert run_cli(["bound", "--machine", str(eps_cycle)]) == 65
    partial = tmp_path / "partial.tm"
    partial.write_text("tape: B M\nblank: B\nstates: h0\ninitial: h0\nsize: 2\n"
                       "h0, B -> h0, B, -1\n")
    assert run_cli(["tmgen", "--tm", str(partial)]) == 65
    ifz = tmp_path / "ifz.cm"
    ifz.write_text("alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
                   "p -a, ifz^cap {zz}-> p\n")
    assert run_cli(["sat", "--machine", str(ifz)]) == 65
    unknown = tmp_path / "unknown.cm"
    unknown.write_text("alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
                       "p -a, inc {x}-> p\np -a, inc {z}-> p\n")
    assert run_cli(["sat", "--machine", str(unknown)]) == 65
    out, err = _out(capsys)
    assert out == "" and err.count("invalid input: ") == 6
    # a body line's ValidationError names its line, as a ParseError does
    assert ("invalid input: %s: line 6: ifz^cap set ['zz'] uses unknown basis elements\n"
            % ifz) in err
    assert ("invalid input: %s: line 7: instruction uses unknown counter ['z']\n"
            % unknown) in err


_ARA = "alphabet: a b\nstates: p q\ninitial: p\n"
_CM = "alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
_TM = ("tape: B M\nblank: B\nstates: h0\ninitial: h0\nsize: 2\n"
       "h0, B -> h0, B, -1\nh0, M -> h0, M, -1\n")


# (name, file text, the error line with the file's path as {path})
_HOSTILE = [
    ("ara-no-arrow", _ARA + "p, a, up q\n",
     "parse error: {path}: line 4: expected 'state, letter, flag -> formula'"),
    ("ara-two-fields", _ARA + "p, a -> q\n",
     "parse error: {path}: line 4: expected 'state, letter, flag' before '->'"),
    ("ara-four-fields", _ARA + "p, a, up, b -> q\n",
     "parse error: {path}: line 4: expected 'state, letter, flag' before '->'"),
    ("ara-unknown-state", _ARA + "z, a, up -> q\n", "parse error: {path}: line 4: unknown state 'z'"),
    ("ara-unknown-letter", _ARA + "p, c, up -> q\n", "parse error: {path}: line 4: unknown letter 'c'"),
    ("ara-bad-flag", _ARA + "p, a, down -> q\n",
     "parse error: {path}: line 4: flag must be up, nup or *"),
    ("cm-no-dash", _CM + "p a, inc {x}-> p\n",
     "parse error: {path}: line 6: expected '-label, instruction-> dst'"),
    ("cm-no-comma", _CM + "p -a inc {x}-> p\n", "parse error: {path}: line 6: missing ',' after label"),
    ("cm-bare-image", _CM + "p -a, transf {x}->{x}-> p\n",
     "parse error: {path}: line 6: transfer image '{x}' must be a [...] list"),
    ("cm-duplicate-state", _CM.replace("states: p", "states: p p"), "invalid input: {path}: duplicate state name"),
    ("cm-undeclared-initial", _CM.replace("initial: p", "initial: q"),
     "invalid input: {path}: initial state 'q' not declared"),
    ("cm-unknown-letter", _CM + "p -b, inc {x}-> p\n",
     "invalid input: {path}: line 6: transition on unknown letter 'b'"),
    ("cm-unknown-state", _CM + "p -a, inc {x}-> p\np -a, nop-> q\n",
     "invalid input: {path}: line 7: transition 'p' -a-> 'q' uses unknown state 'q'"),
    ("tm-duplicate-letter", _TM.replace("tape: B M", "tape: B M B"),
     "invalid input: {path}: tape alphabet must be non-empty without duplicates"),
    ("tm-duplicate-state", _TM.replace("states: h0", "states: h0 h0"),
     "invalid input: {path}: state set must be non-empty without duplicates"),
    ("tm-bad-name", _TM.replace("tape: B M", "tape: B M!"), "invalid input: {path}: bad name: 'M!'"),
    ("tm-unknown-pair", _TM + "h1, B -> h0, B, -1\n",
     "invalid input: {path}: rule for unknown pair ('h1', 'B')"),
    ("tm-unknown-target", _TM.replace("h0, B -> h0, B, -1", "h0, B -> h9, B, -1"),
     "invalid input: {path}: rule target ('h9', 'B') unknown"),
    ("tm-no-arrow", _TM + "h0, B h0, B, -1\n",
     "parse error: {path}: line 8: expected 'q, a -> q2, a2, move'"),
]


@pytest.mark.parametrize("name, text, err", _HOSTILE, ids=[c[0] for c in _HOSTILE])
def test_hostile_input_files_exit_65(tmp_path, capsys, name, text, err):
    """A broken automaton, machine or Turing machine file exits 65 with one
    line that names the file and the fault, and no traceback."""
    kind = name.partition("-")[0]
    path = tmp_path / ("bad." + kind)
    path.write_text(text)
    argv = {"ara": ["run", "--automaton", str(path), "--word", "a@D"],
            "cm": ["sat", "--machine", str(path)],
            "tm": ["tmgen", "--tm", str(path)]}[kind]
    assert run_cli(argv) == 65
    assert _out(capsys) == ("", err.replace("{path}", str(path)) + "\n")


@pytest.mark.parametrize("argv", [
    ["sat", "--machine", "{bad}"],
    ["run", "--automaton", "{bad}", "--word", "a@D"],
    ["include", "--lhs", "{bad}", "--rhs", "{fig1}"],
    ["parse", "--formula", "{bad}"],
    ["tmgen", "--tm", "{bad}"],
])
def test_non_utf8_input_exits_65(tmp_path, data_path, capsys, argv):
    """A file that is not text is invalid input, not a crash."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    argv = [a.format(bad=bad, fig1=data_path("fig1.ara")) for a in argv]
    assert run_cli(argv) == 65
    out, err = _out(capsys)
    assert out == "" and err.startswith("invalid input: %s: " % bad)
    assert "decode" in err


def test_non_distributive_machine_exits_65(tmp_path, capsys):
    """Loading checks every transfer, also after a good file over the same
    counters has been loaded, and on 14 counters, where the check walks
    every cover as on 3."""
    header = "alphabet: a\nbasis: x y\ncounters: {x} {y} {x,y}\nstates: p\ninitial: p\n"
    good = tmp_path / "good.cm"
    good.write_text(header + "p -a, transf {x,y}->[{x,y}]-> p\n")
    assert run_cli(["bound", "--machine", str(good)]) == 0
    _out(capsys)
    bad = tmp_path / "bad.cm"
    bad.write_text(header + "p -a, transf {x,y}->[]-> p\n")
    names = ["a%d" % i for i in range(11)]
    wide = tmp_path / "wide.cm"
    wide.write_text(header.replace("x y\n", "x y %s\n" % " ".join(names)).replace(
        "{x,y}\n", "{x,y} %s\n" % " ".join("{%s}" % e for e in names))
        + "p -a, transf {x,y}->[]-> p\n")
    assert len(parse_machine(wide.read_text(), "off").counters) == 14
    for command, path in (("sat", bad), ("bound", bad), ("sat", wide), ("sat", wide)):
        assert run_cli([command, "--machine", str(path)]) == 65
        out, err = _out(capsys)
        assert out == "" and err.startswith("invalid input: ") and "not distributive" in err


def _whole_and_singletons(n, line):
    """A machine file whose counters are the whole basis x0 ... x{n-1} and
    its n singletons, and whose one body line is `line`, with {all} standing
    for the whole basis."""
    names = ["x%d" % i for i in range(n)]
    whole = "{%s}" % ",".join(names)
    return ("alphabet: a\nbasis: %s\ncounters: %s %s\nstates: p\ninitial: p\n%s\n"
            % (" ".join(names), whole, " ".join("{%s}" % e for e in names),
               line.replace("{all}", whole)))


# {x} and {y} cover {x,y}; choosing {z} as the image of both leaves {x,y}'s
# image outside the union.  Only one choice of images on one cover of 13
# counters shows it, so only a check of every cover does
_RARE_COVER = ("alphabet: a\nbasis: x y z a0 a1 a2 a3 a4 a5 a6 a7 a8\n"
               "counters: {x} {y} {x,y} {z} {a0} {a1} {a2} {a3} {a4} {a5} {a6} {a7} {a8}\n"
               "states: p\ninitial: p\np -a, transf {x}->[{x,y},{z}]; {y}->[{z},{x,y}]-> p\n")


@pytest.mark.parametrize("text, code, out, err", [
    (_whole_and_singletons(24, "p -a, transf {all}->[]-> p"), 65, "",
     "transfer map is not distributive"),
    (_whole_and_singletons(1200, "p -a, nop-> p"), 0, "NONEMPTY\n", ""),
    (_RARE_COVER, 65, "", "transfer map is not distributive"),
], ids=["empty-image-24", "nop-1200", "rare-cover-13"])
def test_wide_families_load_in_a_fresh_process(tmp_path, text, code, out, err):
    """The whole basis of n counters has two irredundant covers, itself and
    its n singletons together.  An empty image for it is refused well
    within the timeout, as no partial selection of singletons that skips
    one is extended, and a nop over 1201 counters loads, as no cover walk
    nests a call per member.  The one bad cover of the rare-cover file is
    found as soon."""
    path = tmp_path / "wide.cm"
    path.write_text(text)
    got = _alone(["-m", "regsafe", "sat", "--machine", str(path)], timeout=5)
    assert got[:2] == (code, out)
    assert err in got[2] and "Traceback" not in got[2]


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli([]) == 64  # a subcommand is required
    _out(capsys)


def test_deterministic_output(data_path, capsys):
    assert run_cli(["ltl2ara", "--formula", data_path("example.ltl")]) == 0
    first, _ = _out(capsys)
    assert run_cli(["ltl2ara", "--formula", data_path("example.ltl")]) == 0
    second, _ = _out(capsys)
    assert first == second


def _readme_examples():
    """(command line, expected output) for each `$ regsafe ...` line in a
    text block of the README; the output is the block's lines up to the
    next command or the block's end."""
    examples = []
    block = False
    lines = None  # the output lines of the example being read
    with open(README) as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                block = line == "```text"
                lines = None
            elif block and line.startswith("$ regsafe "):
                lines = []
                examples.append((line[len("$ regsafe "):], lines))
            elif lines is not None:
                lines.append(line)
    return examples


def test_readme_examples(monkeypatch, capsys):
    """The README's command examples, run from the repository root, print
    what the README shows.  Every `$ regsafe ...` line of the README is
    one of them, so none stands outside a text block unchecked."""
    monkeypatch.chdir(ROOT)
    examples = _readme_examples()
    with open(README) as fh:
        commands = [line for line in fh if line.startswith("$ regsafe ")]
    assert len(examples) == len(commands) >= 6
    for command, lines in examples:
        assert run_cli(shlex.split(command)) in (0, 1), command
        out, err = _out(capsys)
        assert (out, err) == ("".join(line + "\n" for line in lines), ""), command


def test_parse_errors_name_the_file(tmp_path, data_path, capsys):
    """With two inputs, a parse error says which one is broken."""
    dup = tmp_path / "dup.ara"
    dup.write_text("alphabet: a b c\nstates: p\ninitial: p\np, a, * -> p\np, a, up -> p\n")
    assert run_cli(["include", "--lhs", data_path("fig1.ara"), "--rhs", str(dup)]) == 65
    out, err = _out(capsys)
    assert out == ""
    assert err == "parse error: %s: line 5: duplicate entry for p, a, up\n" % dup


def test_parser_is_built_once_and_carries_no_state(data_path, capsys):
    """run_cli shares one argument parser across calls; a run of different
    commands, a usage error and --help in one process each behave as on
    their own, and sat answers alike before and after them."""
    from regsafe.cli import _build_parser
    assert _build_parser() is _build_parser()
    fig, top = data_path("fig1.ara"), data_path("top.ara")
    sat = ["sat", "--automaton", fig]
    calls = [
        (sat, 0, "NONEMPTY\n"),
        (["include", "--lhs", top, "--rhs", fig], 1, "NOT_INCLUDED\n"),
        (["sat", "--format", "json", "--machine", data_path("tiny.cm"), "--cap", "50"], 0,
         '{"command": "sat", "verdict": "NONEMPTY"}\n'),
        (["sat", "--automaton", fig, "--bogus"], 64, ""),
        (["include", "--help"], 0, None),
        (["include", "--lhs", fig, "--rhs", fig], 0, "INCLUDED\n"),
        (["sat", "--machine", data_path("tiny.cm"), "--vcap", "8"], 2, "UNKNOWN\n"),
        (sat, 0, "NONEMPTY\n"),
    ]
    for argv, code, want in calls:
        assert run_cli(argv) == code, argv
        out, err = _out(capsys)
        if want is None:
            assert out.startswith("usage: regsafe include ") and err == "", argv
        else:
            assert out == want, argv
        assert (err.startswith("error: unrecognized arguments: --bogus")
                if code == 64 else err == ""), argv
