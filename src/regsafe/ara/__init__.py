"""One-way alternating automata with a single freeze register, safety
acceptance (every infinite run accepts; rejection is the inability to
continue)."""

from . import posbool
from .automaton import (
    AlternatingAutomaton,
    dualize,
    format_automaton,
    inclusion_product,
    intersect,
    parse_automaton,
    run_exists,
    union,
)
from .translate import ltl_to_ara

__all__ = [
    "AlternatingAutomaton",
    "posbool",
    "dualize",
    "format_automaton",
    "inclusion_product",
    "intersect",
    "parse_automaton",
    "run_exists",
    "union",
    "ltl_to_ara",
]
