"""Counter machines, one concern per module: machine, distributive, bound
and fileformat.  The dense valuations the tests check the machines against
are regsafe.reference.ipcant's.

What is derived from a counter family is owned by the family's
CounterStructure, and a process-wide lru_cache only interns a shared
object: here the structure of a file's basis: and counters: headers
(_parse_structure) and a family's cover table (cover_table).  The structure
keeps each counter's printed text and its family memos, each a
regsafe.memo Memo, bounded by memo.BOUND as it reads at each keep: the
Transition of each body line text (parsed) and the instruction of each
instruction text (instrs), and, keyed by object identity and holding
their key object, the op of each instruction (CounterStructure.op), the
printed line of each Transition (lines) and each transfer's
distributivity verdict (verdicts).  No lookup compares two instructions
or transitions; the machines of one family share those objects (the
parsed memo, compile.letter_free_cycle), while an equal copy made
elsewhere gets entries of its own.  Every machine still runs every check
on construction, and errors are raised afresh on every call: no memo
keeps one."""

from .machine import (BRANCH_BUDGET, EPS, CounterMachine, CounterStructure, Dec, Inc,
                      Instruction, Transfer, Transition, add_tokens, compositions, ifz_cap,
                      split_tokens)
from .distributive import CoverTable, check_distributive, cover_table
from .bound import BoundParams, bound_log2_log2, bound_params
from .fileformat import format_machine, parse_machine
