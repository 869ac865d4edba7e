"""The four file formats (.ltl, .ara, .cm, .tm) and the reader they share,
words.read_sections: print-parse round trips, comment and blank lines
anywhere, and the header placements every format refuses."""

from functools import partial
import os
import re
import random

from hypothesis import assume, given, settings, strategies as hst
import pytest

from regsafe import ltl, randgen
from regsafe.ara import format_automaton, parse_automaton
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.cli import run_cli
from regsafe.errors import ParseError, ValidationError
from regsafe.ipcant import CounterMachine, Transition, format_machine, parse_machine
from regsafe.pipeline.tm import (TuringMachine, format_tm, parse_tm, tm_alphabet,
                                 tm_to_formula)
from regsafe.reference.ipcant import random_structure, random_transfer
from regsafe.reference.ltl import random_sentence
from regsafe.words import Alphabet

DATA = os.path.join(os.path.dirname(__file__), "data")
AB = Alphabet(("a", "b"))

# the printout of a parse, and the header names, per format
REPRINT = {
    ".ltl": lambda text: ltl.print_formula_file(*ltl.parse_formula_file(text)),
    ".ara": lambda text: format_automaton(parse_automaton(text)),
    ".cm": lambda text: format_machine(parse_machine(text, "off")),
    ".tm": lambda text: format_tm(parse_tm(text)),
}
HEADERS = {
    ".ltl": {"alphabet"},
    ".ara": {"alphabet", "states", "initial"},
    ".cm": {"alphabet", "basis", "counters", "states", "initial", "relation"},
    ".tm": {"tape", "blank", "states", "initial", "size"},
}


def _random_cm(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, max_basis=2, max_counters=3)
    states = tuple("p%d" % i for i in range(rng.randint(1, 3)))
    transitions = [Transition(rng.choice(states), rng.choice(AB.letters),
                              random_transfer(rng, structure), rng.choice(states))
                   for _ in range(rng.randint(1, 4))]
    return format_machine(CounterMachine(AB, states, states[0], structure, transitions,
                                         check_transfers="off", lazy=rng.random() < 0.5))


# name pools that hold every word a format reserves: a state of an
# automaton file may not be a formula constant or the down mark, and a tape
# letter or state of a Turing machine, each a letter of its formula, may not
# be a formula keyword
ARA_RESERVED = {"true", "false", "d"}
TM_RESERVED = {"true", "false", "up", "nup", "down", "X", "G", "R", "U"}
ARA_NAMES = ("q0", "q1", "up", "G") + tuple(sorted(ARA_RESERVED))
TM_TAPE = ("B", "M", "d") + tuple(sorted(TM_RESERVED))
TM_STATES = ("q0", "h") + tuple(sorted(TM_RESERVED))
SEEDS = hst.integers(0, 2 ** 32 - 1)


@hst.composite
def automata(draw):
    """A randgen automaton, its states renamed from ARA_NAMES, as a
    constructor call that may refuse the names."""
    aut = randgen.random_automaton(random.Random(draw(SEEDS)), AB, max_states=3)
    n = len(aut.states)
    ren = dict(zip(aut.states, draw(hst.lists(hst.sampled_from(ARA_NAMES), min_size=n,
                                              max_size=n, unique=True))))

    def leaf(g):
        return type(g)(ren[g.state]) if isinstance(g, (pb.Ref, pb.DownRef)) else g

    delta = {(ren[q], a, flag): pb.rebuild(phi, leaf) for (q, a, flag), phi in aut.delta.items()}
    return partial(AlternatingAutomaton, AB, tuple(ren.values()), ren[aut.initial], delta)


@hst.composite
def turing_machines(draw, tape_names=("B", "M", "a"), state_names=("q0", "q1", "h")):
    """A Turing machine over names from the two pools, as a constructor call
    that may refuse them."""
    tape = draw(hst.lists(hst.sampled_from(tape_names), min_size=1, max_size=3, unique=True))
    states = draw(hst.lists(hst.sampled_from(state_names), min_size=1, max_size=3,
                            unique=True))
    rules = {}
    for q in states:
        for a in tape:
            rules[(q, a)] = (draw(hst.sampled_from(states)), draw(hst.sampled_from(tape)),
                             draw(hst.sampled_from((1, -1))))
    return partial(TuringMachine, tape, draw(hst.sampled_from(tape)), states,
                   draw(hst.sampled_from(states)), rules, draw(hst.integers(1, 3)))


TEXTS = {
    ".ltl": SEEDS.map(lambda seed: ltl.print_formula_file(
        AB, random_sentence(random.Random(seed), AB, depth=4))),
    ".ara": SEEDS.map(lambda seed: format_automaton(
        randgen.random_automaton(random.Random(seed), AB, max_states=3))),
    ".cm": SEEDS.map(_random_cm),
    ".tm": turing_machines().map(lambda make: format_tm(make())),
}
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _ltl_round_trip(data):
    text = data.draw(TEXTS[".ltl"])
    assert REPRINT[".ltl"](text) == text


def _ara_round_trip(data):
    make = data.draw(automata())
    try:
        aut = make()
    except ValidationError:
        assert ARA_RESERVED & set(make.args[1])
        return
    assert not ARA_RESERVED & set(aut.states)
    back = parse_automaton(format_automaton(aut))
    assert (back.states, back.initial, back.delta) == (aut.states, aut.initial, aut.delta)


def _tm_round_trip(data):
    # half the machines from the plain pools: from the wide ones, nearly
    # every machine takes a reserved word
    make = data.draw(hst.booleans().flatmap(
        lambda wide: turing_machines(TM_TAPE, TM_STATES) if wide else turing_machines()))
    tape, _, states = make.args[:3]
    try:
        m = make()
    except ValidationError:
        assert TM_RESERVED & set(tape + states) or set(tape) & set(states)
        return
    assert not TM_RESERVED & set(m.tape + m.states)
    back = parse_tm(format_tm(m))
    assert vars(back) == vars(m)
    ltl.parse_formula_file(ltl.print_formula_file(tm_alphabet(m), tm_to_formula(m)))


@pytest.mark.parametrize("ext, check", [(".ltl", _ltl_round_trip), (".ara", _ara_round_trip),
                                        (".tm", _tm_round_trip)], ids=[".ltl", ".ara", ".tm"])
@PROPERTY
@given(data=hst.data())
def test_round_trip_property(ext, check, data):
    """A printed .ltl file parses back to the same printout.  An automaton or
    Turing machine over names from pools that hold every reserved word is
    either refused at construction, exactly when it takes a reserved word,
    or prints a file that parses back to an equal object, and a machine's
    tmgen formula parses.  Objects are compared, not printouts: a state
    named true prints as the constant does.  (.cm has its own,
    test_ipcant::test_machine_file_round_trip_property.)"""
    check(data)


NOISE = ("", "   ", "#", "# a comment", "  # indented: comment", "#alphabet: z",
         "# states: q9 -> q9")


@pytest.mark.parametrize("ext", sorted(REPRINT))
@PROPERTY
@given(data=hst.data())
def test_comments_and_blank_lines_anywhere(ext, data):
    text = data.draw(TEXTS[ext])
    lines = text.splitlines()
    for _ in range(data.draw(hst.integers(1, 6))):
        lines.insert(data.draw(hst.integers(0, len(lines))), data.draw(hst.sampled_from(NOISE)))
    assert REPRINT[ext]("\n".join(lines) + "\n") == text


@pytest.mark.parametrize("ext", sorted(REPRINT))
@PROPERTY
@given(data=hst.data())
def test_repeated_or_late_header_refused(ext, data):
    text = data.draw(TEXTS[ext])
    lines = text.splitlines()
    # printers put every header before the body
    n = sum(1 for line in lines if line.partition(":")[0] in HEADERS[ext])
    assert n and all(line.partition(":")[0] in HEADERS[ext] for line in lines[:n])
    header = lines[data.draw(hst.integers(0, n - 1))]
    again = list(lines)
    again.insert(data.draw(hst.integers(0, len(lines))), header)
    with pytest.raises(ParseError, match="repeated"):
        REPRINT[ext]("\n".join(again) + "\n")
    assume(n < len(lines))
    late = [line for line in lines if line != header]
    late.insert(data.draw(hst.integers(n, len(late))), header)
    with pytest.raises(ParseError, match="after the first body line"):
        REPRINT[ext]("\n".join(late) + "\n")


@pytest.mark.parametrize("name", sorted(os.listdir(DATA)))
def test_data_files_reprint(name, data_text):
    """Every shipped file prints the same after a second parse."""
    reprint = REPRINT[os.path.splitext(name)[1]]
    once = reprint(data_text(name))
    assert reprint(once) == once


def test_ltl_file_takes_comments():
    ab, f = ltl.parse_formula_file("# note\nalphabet: a b\n\n# the property\nG a\n")
    assert ltl.print_formula_file(ab, f) == "alphabet: a b\nG a\n"


def test_ltl_file_errors_point_into_the_file():
    """Every positioned formula error of a file names the line and column of
    its token; an error at the end of the formula has no position."""
    cases = [
        ("alphabet: a b\n# comment\nG (a |\n  b) & X b)\n", 4, 11, "trailing input ')'", ")"),
        ("alphabet: a\n\n   a &\n\n  c\n", 5, 3, "letter 'c' not declared", "c"),
        ("alphabet: a\n a & U a\n", 2, 6, "until is not part", "U"),
        ("alphabet: a\n  a\n# x\n   &   $\n", 4, 8, "unexpected character '$'", "$"),
    ]
    for text, line, column, message, token in cases:
        with pytest.raises(ParseError) as err:
            ltl.parse_formula_file(text)
        assert str(err.value).startswith("line %d, column %d: %s" % (line, column, message))
        assert text.splitlines()[line - 1][column - 1] == token
    with pytest.raises(ParseError, match="^unexpected end of formula$"):
        ltl.parse_formula_file("alphabet: a\nG (a &\n")


def test_ara_formula_errors_name_their_line():
    """A transition formula's error names the line and, at a token, the
    column of the token in the file."""
    head = "alphabet: a b\nstates: p q\ninitial: p\n"
    cases = [
        (head + "p, a, * -> p & x\n", 4, 16, "unknown state 'x'", "x"),
        (head + "# note\n\n  q ,b, up ->   d(q) | $\n", 6, 24,
         "unexpected character '$' in formula", "$"),
        (head + "p, b, nup->(p & q) q\n", 4, 20, "trailing input 'q'", "q"),
    ]
    for text, line, column, message, token in cases:
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert str(err.value) == "line %d, column %d: %s" % (line, column, message)
        assert text.splitlines()[line - 1][column - 1] == token
    with pytest.raises(ParseError, match="^line 4: unexpected end of formula$"):
        parse_automaton(head + "p, a, * -> d(\n")


def test_header_value_errors_name_the_header():
    with pytest.raises(ParseError, match="size must be an integer"):
        parse_tm("tape: B\nblank: B\nstates: q\ninitial: q\nsize: two\nq, B -> q, B, +1\n")
    with pytest.raises(ParseError, match="one initial state"):
        parse_automaton("alphabet: a\nstates: p q\ninitial: p q\n")
    with pytest.raises(ParseError, match="empty alphabet"):
        ltl.parse_formula_file("alphabet:\ntrue\n")
    with pytest.raises(ParseError, match="no formula"):
        ltl.parse_formula_file("alphabet: a\n# only a comment\n")


def _cli(tmp_path, name, text, command, flag, *rest):
    """The exit code of `command` given `text`, written to a file, as `flag`."""
    path = tmp_path / name
    path.write_text(text)
    return run_cli([command, flag, str(path)] + list(rest))


def test_repeated_header_no_longer_wins(tmp_path, capsys):
    """The last copy of a repeated header used to win silently."""
    ara = "alphabet: a\nstates: q\ninitial: q\nalphabet: b\nq, b, * -> q\n"
    assert _cli(tmp_path, "rep.ara", ara, "run", "--automaton", "--word", "b@1") == 65
    tm = "tape: B\nblank: B\nstates: q\ninitial: q\nsize: 1\nsize: 2\nq, B -> q, B, +1\n"
    assert _cli(tmp_path, "rep.tm", tm, "tmgen", "--tm") == 65
    assert capsys.readouterr().err == (
        "parse error: %s: line 4: repeated alphabet: header\n"
        "parse error: %s: line 6: repeated size: header\n"
        % (tmp_path / "rep.ara", tmp_path / "rep.tm"))


CM_NAMES = ("alphabet: a\nbasis: {x}\ncounters: {{{x}}}\nstates: p {q}\ninitial: p\n"
            "p -a, inc {{{x}}}-> {q}\n{q} -a, nop-> p\n")


def test_machine_names_follow_name_re(tmp_path, capsys):
    """A state `#q` made its transition line a comment, and `x;y` is no
    name; both are refused, and the machine with plain names decides."""
    for name, basis, state, error in (("hash.cm", "x", "#q", "bad state name '#q'"),
                                      ("semi.cm", "x;y", "q", "bad basis name 'x;y'")):
        assert _cli(tmp_path, name, CM_NAMES.format(x=basis, q=state), "sat", "--machine") == 65
        assert error in capsys.readouterr().err
    plain = CM_NAMES.format(x="x", q="q")
    assert len(parse_machine(plain).transitions) == 2
    assert _cli(tmp_path, "plain.cm", plain, "sat", "--machine") == 2


CM_STRICT = ("alphabet: a\nbasis: x y\ncounters: {x} {y} {x,y}\nstates: p q\ninitial: p\n"
             "p -a, transf {x,y}->[{x,y}]-> q\nq -a, nop-> q\n")


@pytest.mark.parametrize("old, new, error", [
    ("nop-> q", "nopinc {x}-> q", "unknown instruction 'nopinc {x}'"),
    ("{x} {y} {x,y}", "{x} junk {y} {x,y}", "bad counters: header"),
    ("[{x,y}]", "[{x,y} garbage]", "bad transfer image"),
    ("[{x,y}]", "[{x,y}{x}]", "bad transfer image"),
    ("[{x,y}]", "[,{x,y}]", "bad transfer image"),
    ("transf {x,y}->[", "transf {x,y}[", "transfer entry '{x,y}[{x,y}]' lacks '->'"),
    ("nop-> q", "inc x-> q", "expected a counter like {x,y}, got 'x'"),
    ("initial: p", "initial: p q", "expected one initial state"),
    ("initial: p", "initial:", "expected one initial state"),
    ("nop-> q", "nop->", "missing target state"),
])
def test_machine_syntax_is_strict(tmp_path, capsys, old, new, error):
    """Text the parser used to skip or cut short is refused, on the command
    line with exit 65; an error in a transition line names the line."""
    text = CM_STRICT.replace(old, new)
    assert text != CM_STRICT
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if new in line)
    if not lines[lineno - 1].split()[0].endswith(":"):  # not a header
        error = "line %d: %s" % (lineno, error)
    with pytest.raises(ParseError, match=re.escape(error)):
        parse_machine(text)
    assert _cli(tmp_path, "bad.cm", text, "sat", "--machine") == 65
    assert error in capsys.readouterr().err


def test_machine_syntax_spacing():
    """Whitespace around counters, commas and a nop is still read."""
    want = format_machine(parse_machine(CM_STRICT))
    for old, new, printed in (("{x} {y} {x,y}", "  {x}\t{y}{x,y} ", "[{x,y}]"),
                              ("[{x,y}]", "[ {x, y} , {x,y} ]", "[{x,y},{x,y}]"),
                              ("[{x,y}]", "[ ]", "[]"),
                              ("nop-> q", "  nop  -> q", "[{x,y}]")):
        text = CM_STRICT.replace(old, new)
        assert text != CM_STRICT
        got = format_machine(parse_machine(text, "off"))
        assert got == want.replace("[{x,y}]", printed), (old, new)
