"""Counter machines, one concern per module: machine, distributive, bound
and fileformat.  The dense valuations the tests check the machines against
are regsafe.reference.ipcant's.

Results kept past one call are never keyed by a machine.  What is keyed by
texts, counter tuples and structures is kept by a process-wide lru_cache on
a pure function, with a stated bound, the least recently used entry dropped
first: parsing an instruction or a body line over a counter structure
(_parse_instr, _parse_line), printing a counter (_format_counter), the
structure of a file's basis: and counters: headers (_parse_structure), a
family's cover table (cover_table) and the one distributivity memo, a
transfer's exhaustive verdict (_exhaustive_verdict).  What is keyed by an
instruction or transition object is kept by a family memo, a regsafe.memo
Memo of FAMILY_MEMO entries held by the family's CounterStructure or by
compile.letter_free_cycle: the op of each instruction (CounterStructure.op)
and the printed line of each Transition (CounterStructure.lines).  A family
memo is keyed by object identity and holds its key object, so no lookup
compares two instructions or transitions; the machines of one family share
those objects (_parse_instr, _parse_line, letter_free_cycle), while an
equal copy made elsewhere gets entries of its own.  Every machine still
runs every check on construction, and errors are raised afresh on every
call: no memo keeps one."""

from .machine import (BRANCH_BUDGET, EPS, FAMILY_MEMO, CounterMachine, CounterStructure, Dec,
                      Inc, Instruction, Transfer, Transition, add_tokens, compositions, ifz_cap,
                      split_tokens)
from .distributive import CoverTable, check_distributive, cover_table
from .bound import BoundParams, bound_log2_log2, bound_params
from .fileformat import format_machine, parse_machine
