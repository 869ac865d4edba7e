"""Counter machines, one concern per module: machine, distributive, bound
and fileformat.  The dense valuations the tests check the machines against
are regsafe.reference.ipcant's.

Results kept past one call live in one of two kinds of memo, never keyed by
a machine.  A process-wide lru_cache on a pure function, with a stated bound
and the least recently used entry dropped first, keeps what is keyed by
texts, counter tuples and structures: parsing an instruction or a whole
body line over a counter structure (_parse_instr, _parse_line), printing a
counter (_format_counter), the counter structure of a file's basis: and
counters: headers (_parse_structure), a counter family's cover table
(cover_table) and the one distributivity memo, a transfer's exhaustive
verdict over a counter tuple (_exhaustive_verdict).  A family memo, a dict
kept by the family's CounterStructure or by compile.letter_free_cycle and
emptied when it holds FAMILY_MEMO entries, keeps what is keyed by an
instruction or transition: the op of each instruction object
(CounterStructure.op) and the printed line of each Transition object
(CounterStructure.lines).  A family memo is keyed by object identity and
holds its key object, so no lookup compares two instructions or
transitions.  That works because the machines of one family share their
objects: a parsed machine's instructions and Transitions are one object per
text and structure (_parse_instr, _parse_line), and a materialized
machine's come from letter_free_cycle and its memos.  An equal copy made
elsewhere, such as the parsed twin of a materialized machine, gets entries
of its own.  So the machines of one counter family parse and print each
distinct line, and parse and resolve each distinct instruction, once per
process while the memos keep them.  Every machine still runs every check
on construction, an op found in the memo having been checked over the same
family.  Errors are raised afresh on every call, and no memo keeps one."""

from .machine import (BRANCH_BUDGET, EPS, FAMILY_MEMO, CounterMachine, CounterStructure, Dec,
                      Inc, Instruction, Transfer, Transition, add_tokens, compositions, ifz_cap,
                      remember, split_tokens)
from .distributive import CoverTable, check_distributive, cover_table
from .bound import BoundParams, bound_log2_log2, bound_params
from .fileformat import format_machine, parse_machine
