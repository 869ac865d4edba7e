"""The machine file format, which parse_machine reads and format_machine
prints, each distinct piece once per counter family (see the package
docstring)."""

import functools
import re

from ..errors import ParseError, ValidationError
from ..words import Alphabet, read_names, read_sections
from .machine import (EPS, CounterMachine, CounterStructure, Dec, Inc, Transfer, Transition,
                      _transition_fault, ifz_cap)

_COUNTER_RE = re.compile(r"\{[^{}]*\}")
# the counters: header, {...} groups apart by whitespace, and a transfer
# image, {...} groups apart by commas, or nothing
_COUNTERS_RE = re.compile(r"\s*(?:\{[^{}]*\}\s*)*")
_IMAGE_RE = re.compile(r"\s*(?:\{[^{}]*\}\s*(?:,\s*\{[^{}]*\}\s*)*)?")
_HEADERS = ("alphabet", "basis", "counters", "states", "initial")
_RELATIONS = {"lazy": True, "error-free": False}


def _parse_counter(text):
    text = text.strip()
    if not _COUNTER_RE.fullmatch(text):
        raise ParseError("expected a counter like {x,y}, got %r" % text)
    return frozenset(part.strip() for part in text[1:-1].split(",") if part.strip())


def _parse_counters(text, pattern, what):
    """The counters of a list that must match pattern; `what` names it in
    the error."""
    if not pattern.fullmatch(text):
        raise ParseError("bad %s %r" % (what, text))
    return tuple(_parse_counter(m.group(0)) for m in _COUNTER_RE.finditer(text))


def _parse_instr(text, structure):
    """The instruction of a stripped instruction text over the family's
    CounterStructure, whose counters an ifz^cap expands over and whose basis
    must hold the ifz^cap's set."""
    if text.startswith("inc "):
        return Inc(_parse_counter(text[4:]))
    if text.startswith("dec "):
        return Dec(_parse_counter(text[4:]))
    if text.startswith("ifz^cap "):
        y = _parse_counter(text[len("ifz^cap "):])
        if not y.issubset(structure.basis):
            raise ValidationError("ifz^cap set %r uses unknown basis elements" % (sorted(y),))
        return ifz_cap(y, structure.counters)
    if text == "nop":
        return Transfer(())
    if text.startswith("transf "):
        entries = []
        for part in text[len("transf "):].split(";"):
            part = part.strip()
            if not part:
                continue
            left, sep, right = part.partition("->")
            if not sep:
                raise ParseError("transfer entry %r lacks '->'" % part)
            right = right.strip()
            if not (right.startswith("[") and right.endswith("]")):
                raise ParseError("transfer image %r must be a [...] list" % right)
            entries.append((_parse_counter(left),
                            _parse_counters(right[1:-1], _IMAGE_RE, "transfer image")))
        return Transfer(tuple(entries))
    raise ParseError("unknown instruction %r" % text)


@functools.lru_cache
def _parse_structure(basis_text, counters_text):
    """The CounterStructure of a file's basis: and counters: header values;
    files whose headers read alike share it, and its counter tuple."""
    basis = read_names(basis_text, "basis")
    return CounterStructure(basis, _parse_counters(counters_text, _COUNTERS_RE,
                                                   "counters: header"))


def _parse_line(line, structure):
    """The Transition of a stripped body line over the family's
    CounterStructure, its instruction resolved to its op through the family
    memo, so that a counter outside the family is refused at its line.  The
    instruction comes from the family's instrs memo, as the lines of one
    file repeat an instruction text under other states: they share one
    instruction object, whose op is kept once.  Its ParseError or
    ValidationError carries no line number; parse_machine adds it."""
    src, _, rest = line.partition(" ")
    rest = rest.strip()
    if not rest.startswith("-"):
        raise ParseError("expected '-label, instruction-> dst'")
    labeltext, sep, rest = rest[1:].partition(",")
    if not sep:
        raise ParseError("missing ',' after label")
    label = labeltext.strip()
    instr_text, sep, dst = rest.rpartition("->")
    if not sep:
        raise ParseError("missing '->' before target state")
    dst = dst.strip()
    if not dst:
        raise ParseError("missing target state")
    text, instrs = instr_text.strip(), structure.instrs
    instr = instrs.get(text) or instrs.keep(text, _parse_instr(text, structure))
    structure.op(instr)
    return Transition(src, EPS if label == "eps" else label, instr, dst)


def parse_machine(text, check_transfers="full") -> CounterMachine:
    """Read a machine file.  The header is parsed once per process
    (_parse_structure) and each distinct body line once per counter family
    (its structure's parsed memo), so machines of one family share their
    structure and the Transitions and instructions of their common lines.
    An error in a body line names the line.  So does a state or letter
    that the file's own headers do not declare: two files of one family
    may declare different ones, so the lines are searched for one per
    file, once the machine has refused the file."""
    headers, body = read_sections(text, _HEADERS, ("relation",))
    lazy = _RELATIONS.get(headers.get("relation", "lazy"))
    if lazy is None:
        raise ParseError("relation must be lazy or error-free, not %r" % headers["relation"])
    alphabet = Alphabet(tuple(headers["alphabet"].split()))
    structure = _parse_structure(headers["basis"], headers["counters"])
    states = read_names(headers["states"], "state")
    initial = read_names(headers["initial"], "state")
    if len(initial) != 1:
        raise ParseError("expected one initial state")
    transitions = []
    get, keep = structure.parsed.get, structure.parsed.keep
    for lineno, line in body:
        try:
            transitions.append(get(line) or keep(line, _parse_line(line, structure)))
        except (ParseError, ValidationError) as err:
            raise type(err)("line %d: %s" % (lineno, err)) from None
    try:
        return CounterMachine(alphabet, states, initial[0], structure, transitions,
                              check_transfers=check_transfers, lazy=lazy)
    except ValidationError:
        known = set(states)
        for (lineno, _), t in zip(body, transitions):
            fault = _transition_fault(t, known, alphabet)
            if fault:
                raise ValidationError("line %d: %s" % (lineno, fault)) from None
        raise


def _format_instr(instr, printed):
    """The text of an instruction of a machine, an Inc, Dec or Transfer
    over its family as the machine's construction checked, its counters
    printed by the family's `printed` table."""
    if not isinstance(instr, Transfer):
        return ("inc " if isinstance(instr, Inc) else "dec ") + printed[instr.counter]
    if not instr.entries:
        return "nop"
    parts = []
    for src, dsts in sorted(instr.entries, key=lambda e: sorted(e[0])):
        parts.append("%s->[%s]" % (printed[src], ",".join(map(printed.__getitem__, dsts))))
    return "transf " + "; ".join(parts)


def _format_line(structure, t):
    """The (transition, body line) entry of a Transition, made and kept in
    its family's print memo."""
    line = "%s -%s, %s-> %s" % (t.src, "eps" if t.label is EPS else t.label,
                                _format_instr(t.instr, structure.printed), t.dst)
    return structure.lines.keep(id(t), (t, line))


def format_machine(m: CounterMachine) -> str:
    """The machine file text.  An error-free machine says so in a
    `relation:` line; a lazy one, the default, prints none.  Each body line
    comes from the family's print memo (CounterStructure.lines), kept per
    Transition object: the machines of a family share their Transitions
    (parsed ones through the structure's parsed memo, materialized ones
    through compile.letter_free_cycle), so each is printed once, and no
    lookup compares transitions."""
    structure = m.structure
    get = structure.lines.get
    lines = [
        "alphabet: " + " ".join(m.alphabet.letters),
        "basis: " + " ".join(structure.basis),
        "counters: " + " ".join(structure.printed.values()),
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
    ]
    if not m.lazy:
        lines.append("relation: error-free")
    lines += [(get(id(t)) or _format_line(structure, t))[1] for t in m.transitions]
    return "\n".join(lines) + "\n"
