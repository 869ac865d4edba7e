"""Command-line front end over the library.

One subcommand per pipeline stage; verdict-producing commands exit 0 on the
positive verdict, 1 on the negative one and 2 on unknown.  Usage problems
exit 64; input files that fail to parse or validate exit 65, and so do the
two inputs of include or refine when their alphabets differ.  Formula files
of any nesting depth get an answer.  With --format json every result is
emitted as one JSON record per line instead of plain text.
"""

import argparse
import json
import random
import sys
from collections import namedtuple

from .errors import ParseError, RegsafeError, ValidationError
from .words import Alphabet, parse_word, print_word
from . import ltl
from .ara import format_automaton, ltl_to_ara, parse_automaton, run_exists
from .ipcant import bound_log2, bound_params, format_machine, parse_machine
from .pipeline import (Inclusion, Nonemptiness, ara_to_ipcant,
                       bounded_nonemptiness, config_length, encode_tm_run,
                       inclusion_check, oracle_run_exists, parse_tm, tm_alphabet,
                       tm_to_formula)
from .pipeline.oracle import _frontier_run_exists
from . import randgen


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(least, most=None, **counts):
    """Refuse a count flag below `least`, or above `most` when given, named
    by its keyword."""
    for name, value in counts.items():
        if value < least or most is not None and value > most:
            bound = "at least %d" % least if value < least else "at most %d" % most
            raise _UsageError("--%s must be %s" % (name.replace("_", "-"), bound))


class Invocation(namedtuple("Invocation", ("cap", "vcap", "fmt"))):
    """One parsed CLI job: the exploration bounds and the output format."""

    __slots__ = ()

    def __new__(cls, cap, vcap, fmt):
        _at_least(1, cap=cap, vcap=vcap)
        return super().__new__(cls, cap, vcap, fmt)


class _InvalidInput(Exception):
    pass


def _load(parse, path):
    """Parse an input file, "-" being standard input.  A file that parses
    but breaks an invariant of its format is as unusable as one that does
    not parse, and so is one that is not text: each exits 65."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r") as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        raise _InvalidInput("%s: %s" % (path, e)) from e
    try:
        return parse(text)
    except ValidationError as e:
        raise _InvalidInput("%s: %s" % (path, e)) from e


def _emit(inv, text_lines, record):
    if inv.fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


_POSITIVE = {"YES", "NONEMPTY", "INCLUDED", "AGREE"}
_NEGATIVE = {"NO", "EMPTY", "NOT_INCLUDED", "MISMATCH"}

# largest bound, in bits, that `bound` will evaluate exactly
_BOUND_PRINT_BITS = 1_000_000


def _verdict_exit(verdict):
    if verdict in _POSITIVE:
        return 0
    if verdict in _NEGATIVE:
        return 1
    return 2


def _cmd_parse(inv, ns):
    ab, f = _load(ltl.parse_formula_file, ns.formula)
    canonical = ltl.print_formula(f)
    _emit(inv, [canonical],
          {"command": "parse", "alphabet": list(ab.letters), "formula": canonical})
    return 0


def _formula_automaton(text):
    """The automaton of a formula file; a formula with a free register test
    fails to validate."""
    ab, f = ltl.parse_formula_file(text)
    return ltl_to_ara(f, ab)


def _cmd_ltl2ara(inv, ns):
    aut = _load(_formula_automaton, ns.formula)
    text = format_automaton(aut)
    _emit(inv, [text.rstrip("\n")], {"command": "ltl2ara", "artifact": text})
    return 0


def _explicit_machine(text):
    """The explicit counter machine of an automaton file; an automaton whose
    machine cannot be written as a machine file fails to validate."""
    return ara_to_ipcant(parse_automaton(text)).materialize()


def _cmd_ara2cm(inv, ns):
    machine = _load(_explicit_machine, ns.automaton)
    text = format_machine(machine)
    _emit(inv, [text.rstrip("\n")], {"command": "ara2cm", "artifact": text})
    return 0


def _cmd_run(inv, ns):
    aut = _load(parse_automaton, ns.automaton)
    w = parse_word(ns.word, aut.alphabet)
    verdict = "YES" if run_exists(aut, w) else "NO"
    _emit(inv, [verdict], {"command": "run", "verdict": verdict})
    return _verdict_exit(verdict)


def _machine_from(ns):
    if ns.machine is not None:
        return _load(parse_machine, ns.machine)
    return ara_to_ipcant(_load(parse_automaton, ns.automaton))


def _cmd_sat(inv, ns):
    machine = _machine_from(ns)
    outcome = bounded_nonemptiness(machine, cap=inv.cap, vcap=inv.vcap)
    verdict = outcome.name
    _emit(inv, [verdict], {"command": "sat", "verdict": verdict})
    return _verdict_exit(verdict)


def _same_alphabet(ns, ab1, ab2):
    """Refuse --lhs and --rhs inputs over different alphabets ab1 and ab2:
    each is valid, but the two cannot be compared, so they exit 65 like an
    input that fails to validate."""
    if ab1 != ab2:
        raise _InvalidInput("%s and %s must share an alphabet, not %s and %s" % (
            ns.lhs, ns.rhs, " ".join(ab1), " ".join(ab2)))


def _include_verdict(inv, command, a1, a2):
    result = inclusion_check(a1, a2, cap=inv.cap, vcap=inv.vcap)
    verdict = result.verdict.name
    _emit(inv, [verdict],
          {"command": command, "verdict": verdict,
           "explored": result.explored, "converged": result.converged,
           "checkpoints": result.checkpoints})
    return _verdict_exit(verdict)


def _cmd_include(inv, ns):
    a1 = _load(parse_automaton, ns.lhs)
    a2 = _load(parse_automaton, ns.rhs)
    _same_alphabet(ns, a1.alphabet, a2.alphabet)
    return _include_verdict(inv, "include", a1, a2)


def _cmd_refine(inv, ns):
    a1 = _load(_formula_automaton, ns.lhs)
    a2 = _load(_formula_automaton, ns.rhs)
    _same_alphabet(ns, a1.alphabet, a2.alphabet)
    return _include_verdict(inv, "refine", a1, a2)


def _cmd_bound(inv, ns):
    machine = _machine_from(ns)
    q_count, basis_size, counter_count = machine.bound_counts()
    bits = bound_log2(q_count, basis_size, counter_count)
    if bits > _BOUND_PRINT_BITS:
        _emit(inv, ["m is about 2^%.3e, too large to materialize" % bits],
              {"command": "bound", "m_log2": bits, "materialized": False})
        return 0
    params = bound_params(q_count, basis_size, counter_count)
    # the bound is doubly exponential; lift the process-wide int-to-str
    # guard to fit it while it is printed (Python 3.10 before 3.10.7 has
    # none, and 0 means none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = params.m.bit_length() // 3 + 20
    lift = 0 < limit < digits
    if lift:
        sys.set_int_max_str_digits(digits)
    try:
        lines = ["alpha: " + " ".join(str(a) for a in params.alphas),
                 "U: " + " ".join(str(u) for u in params.us),
                 "m=%d" % params.m]
        _emit(inv, lines,
              {"command": "bound", "alpha": list(params.alphas),
               "U": list(params.us), "m": params.m})
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    return 0


# the most letters tmgen --steps encodes: the run is built in memory, about
# 180 bytes a letter
TMGEN_MAX_LETTERS = 10 ** 6


def _cmd_tmgen(inv, ns):
    if ns.steps is not None:
        _at_least(0, steps=ns.steps)
    machine = _load(parse_tm, ns.tm)
    if ns.steps is not None:
        letters = (ns.steps + 1) * config_length(machine)
        if letters > TMGEN_MAX_LETTERS:
            raise _UsageError("--steps %d encodes %d letters, more than the %d allowed"
                              % (ns.steps, letters, TMGEN_MAX_LETTERS))
    f = tm_to_formula(machine)
    artifact = ltl.print_formula_file(tm_alphabet(machine), f)
    lines = [artifact.rstrip("\n")]
    record = {"command": "tmgen", "artifact": artifact}
    if ns.steps is not None:
        word = print_word(encode_tm_run(machine, ns.steps))
        lines.append("word: " + word)
        record["word"] = word
    _emit(inv, lines, record)
    return 0


def _cmd_oracle(inv, ns):
    _at_least(0, trials=ns.trials)
    # ceilings of the brute-force search: a transition formula has 4^states
    # pairs to try, and the thread search recurses once per word position
    _at_least(1, 50, max_len=ns.max_len)
    _at_least(1, 6, max_states=ns.max_states)
    rng = random.Random(ns.seed)
    alphabet = Alphabet(("a", "b"))
    for trial in range(ns.trials):
        aut = randgen.random_automaton(rng, alphabet, max_states=ns.max_states)
        w = randgen.random_word(rng, alphabet, max_len=ns.max_len)
        fast = run_exists(aut, w)
        slow = [oracle_run_exists(aut, w, max_len=ns.max_len, max_states=ns.max_states)]
        if len(w) <= 3 and len(aut.states) <= 2:  # within the frontier route's guards
            slow.append(_frontier_run_exists(aut, w))
        if any(answer != fast for answer in slow):
            print("automaton:\n%s" % format_automaton(aut), file=sys.stderr)
            print("word: %s" % print_word(w), file=sys.stderr)
            verdict = "MISMATCH"
            _emit(inv, ["%s trial=%d seed=%d" % (verdict, trial, ns.seed)],
                  {"command": "oracle", "verdict": verdict,
                   "trial": trial, "seed": ns.seed})
            return 1
    verdict = "AGREE"
    _emit(inv, ["%s trials=%d seed=%d" % (verdict, ns.trials, ns.seed)],
          {"command": "oracle", "verdict": verdict,
           "trials": ns.trials, "seed": ns.seed})
    return 0


def _build_parser():
    top = _ArgumentParser(prog="regsafe",
                          description="decision pipeline for safety register formulas")
    shared = _ArgumentParser(add_help=False)
    shared.add_argument("--cap", type=int, default=10000,
                        help="exploration step bound (default 10000)")
    shared.add_argument("--vcap", type=int, default=64,
                        help="counter value bound (default 64)")
    shared.add_argument("--format", choices=("text", "json"), default="text",
                        help="output style (default text)")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", parents=[shared], help="echo a formula file canonically")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("ltl2ara", parents=[shared], help="translate a formula file to an automaton file")
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_ltl2ara)

    p = sub.add_parser("ara2cm", parents=[shared], help="compile an automaton file to a counter machine file")
    p.add_argument("--automaton", required=True)
    p.set_defaults(handler=_cmd_ara2cm)

    p = sub.add_parser("run", parents=[shared], help="does the automaton have a partial run on the word")
    p.add_argument("--automaton", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sat", parents=[shared], help="bounded nonemptiness of a counter machine")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--machine")
    source.add_argument("--automaton")
    p.set_defaults(handler=_cmd_sat)

    p = sub.add_parser("include", parents=[shared], help="language inclusion of two automaton files")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=_cmd_include)

    p = sub.add_parser("refine", parents=[shared], help="implication of two formula files via inclusion")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("bound", parents=[shared], help="print the theoretical exploration bound parameters")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--machine")
    source.add_argument("--automaton")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("tmgen", parents=[shared], help="emit the run-encoding formula of a machine file")
    p.add_argument("--tm", required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="also emit the encoded run over this many transitions")
    p.set_defaults(handler=_cmd_tmgen)

    p = sub.add_parser("oracle", parents=[shared], help="seeded cross-check of the run-existence procedures")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-states", type=int, default=4)
    p.set_defaults(handler=_cmd_oracle)

    return top


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.handler(Invocation(ns.cap, ns.vcap, ns.format), ns)
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 64
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 65
    except _InvalidInput as e:
        print("invalid input: %s" % e, file=sys.stderr)
        return 65
    except RecursionError as e:
        print("invalid input: nested too deeply (%s)" % e, file=sys.stderr)
        return 65
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 64
    except RegsafeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 64


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
