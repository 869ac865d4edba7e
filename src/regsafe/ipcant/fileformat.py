"""The machine file format, which parse_machine reads and format_machine
prints, each distinct piece once per process (see the package docstring)."""

import functools
import re

from ..errors import ParseError, ValidationError
from ..words import Alphabet, read_names, read_sections
from .machine import (EPS, CounterMachine, CounterStructure, Dec, Inc, Transfer, Transition,
                      ifz_cap)

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


@functools.lru_cache(maxsize=4096)
def _parse_instr(text, counters):
    """The instruction of a stripped instruction text over the family's
    counter tuple, which an ifz^cap expands over.  Kept under _parse_line's
    memo because the lines of one file repeat an instruction text under
    other states: they share one instruction object, which CounterMachine
    resolves to its op once."""
    if text.startswith("inc "):
        return Inc(_parse_counter(text[4:]))
    if text.startswith("dec "):
        return Dec(_parse_counter(text[4:]))
    if text.startswith("ifz^cap "):
        return ifz_cap(_parse_counter(text[len("ifz^cap "):]), counters)
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


@functools.lru_cache(maxsize=64)
def _parse_structure(basis_text, counters_text):
    """The CounterStructure of a file's basis: and counters: header values;
    files whose headers read alike share it, and its counter tuple."""
    basis = read_names(basis_text, "basis")
    return CounterStructure(basis, _parse_counters(counters_text, _COUNTERS_RE,
                                                   "counters: header"))


@functools.lru_cache(maxsize=4096)
def _parse_line(line, counters):
    """The Transition of a stripped body line over the family's counter
    tuple.  Its ParseError carries no line number; parse_machine adds it."""
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
    return Transition(src, EPS if label == "eps" else label,
                      _parse_instr(instr_text.strip(), counters), dst)


def parse_machine(text, check_transfers="auto") -> CounterMachine:
    """Read a machine file.  The header and each distinct body line of a
    counter family are parsed once per process (_parse_structure,
    _parse_line), so machines of one family share their structure and the
    Transitions of their common lines."""
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
    counters = structure.counters
    transitions = []
    for lineno, line in body:
        try:
            transitions.append(_parse_line(line, counters))
        except ParseError as err:
            raise ParseError("line %d: %s" % (lineno, err)) from None
    return CounterMachine(alphabet, states, initial[0], structure, transitions,
                          check_transfers=check_transfers, lazy=lazy)


@functools.lru_cache(maxsize=4096)
def _format_counter(c):
    return "{%s}" % ",".join(sorted(c))


def _format_instr(instr):
    if isinstance(instr, Inc):
        return "inc " + _format_counter(instr.counter)
    if isinstance(instr, Dec):
        return "dec " + _format_counter(instr.counter)
    if isinstance(instr, Transfer):
        if not instr.entries:
            return "nop"
        parts = []
        for src, dsts in sorted(instr.entries, key=lambda e: sorted(e[0])):
            parts.append("%s->[%s]" % (_format_counter(src),
                                       ",".join(map(_format_counter, dsts))))
        return "transf " + "; ".join(parts)
    raise ValidationError("unknown instruction %r" % (instr,))


@functools.lru_cache(maxsize=4096)
def _format_transition(t):
    label = "eps" if t.label is EPS else t.label
    return "%s -%s, %s-> %s" % (t.src, label, _format_instr(t.instr), t.dst)


def format_machine(m: CounterMachine) -> str:
    """The machine file text.  An error-free machine says so in a
    `relation:` line; a lazy one, the default, prints none.
    _format_transition prints each distinct transition once per process."""
    lines = [
        "alphabet: " + " ".join(m.alphabet.letters),
        "basis: " + " ".join(m.structure.basis),
        "counters: " + " ".join(map(_format_counter, m.structure.counters)),
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
    ]
    if not m.lazy:
        lines.append("relation: error-free")
    lines += map(_format_transition, m.transitions)
    return "\n".join(lines) + "\n"
