"""Safety decision procedures for data words: temporal formulas with one
freeze register, alternating one-register automata, and counter machines with
distributive transfers, plus bounded nonemptiness and language inclusion."""

__version__ = "0.1.0"

from .words import (
    Alphabet,
    DataWord,
    canonicalize,
    parse_word,
    print_word,
)
from .ltl import (
    PrefixVerdict,
    evaluate_prefix,
    is_sentence,
    parse_formula,
    print_formula,
)

__all__ = [
    "Alphabet",
    "DataWord",
    "canonicalize",
    "parse_word",
    "print_word",
    "PrefixVerdict",
    "evaluate_prefix",
    "is_sentence",
    "parse_formula",
    "print_formula",
    "__version__",
]
