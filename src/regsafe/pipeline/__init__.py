"""Translations and decision procedures tying the layers together:
compilation of alternating automata to counter machines, bounded
nonemptiness and inclusion saturation, the Turing-machine formula generator,
and brute-force cross-check oracles.  The counting abstraction
(pipeline.abstraction) is the test-only reference for the compiled letter
step and is not imported here."""

from .compile import CompiledMachine, ara_to_ipcant, product_machine
from .explore import (Inclusion, Nonemptiness, SaturationResult,
                      bounded_nonemptiness, inclusion_check, prefix_reachable)
from .oracle import oracle_run_exists, pattern_occurs
from .tm import (HaltReached, TuringMachine, config_length, encode_tm_run,
                 format_tm, parse_tm, tm_alphabet, tm_to_formula)

__all__ = [
    "CompiledMachine", "ara_to_ipcant", "product_machine",
    "Inclusion", "Nonemptiness", "SaturationResult",
    "bounded_nonemptiness", "inclusion_check", "prefix_reachable",
    "oracle_run_exists", "pattern_occurs",
    "HaltReached", "TuringMachine", "config_length", "encode_tm_run",
    "format_tm", "parse_tm", "tm_alphabet", "tm_to_formula",
]
