"""Counter machines, one concern per module: machine, distributive, bound
and fileformat.  The dense valuations the tests check the machines against
are regsafe.reference.ipcant's.

Every result kept past one call is an lru_cache on the pure function that
computes it, keyed by counter tuples and structures, texts, instructions and
transitions, never by a machine: parsing an instruction or a whole body line
over a counter structure (_parse_instr, _parse_line), printing a counter or
a whole body line (_format_counter, _format_transition), the counter
structure of a file's basis: and counters: headers (_parse_structure), an
instruction's op (_instruction_op), a counter family's cover table
(cover_table) and the one distributivity memo, a transfer's exhaustive
verdict over a counter tuple (_exhaustive_verdict).  So the machines of one
counter family, which share their header and most of their lines, parse and
print each distinct line, and parse and check each distinct instruction,
once per process, and share one structure and, while the caches keep them,
the Transition objects of the lines they have in common.  The caches only
save work: equal instructions or transitions need not be one object.  Every
machine is still validated in full on construction.  Errors are raised
afresh on every call."""

from .machine import (BRANCH_BUDGET, EPS, CounterMachine, CounterStructure, Dec, Inc,
                      Instruction, Transfer, Transition, add_tokens, compositions, ifz_cap,
                      split_tokens)
from .distributive import CoverTable, check_distributive, cover_table
from .bound import BoundParams, bound_log2_log2, bound_params
from .fileformat import format_machine, parse_machine
