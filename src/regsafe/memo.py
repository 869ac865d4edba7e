"""The one rule for a bounded memo kept by an object past one call.

A Memo is a dict of at most `bound` entries: when it is full it is emptied
before the next entry goes in.  The bound is fixed when the memo is made,
from its owner's constant: automaton.STEP_MEMO for run_exists's step
tables, compile.LETTERED_MEMO for a compiled machine's lettered steps and
ipcant.machine.FAMILY_MEMO for a counter family's memos.  Emptying, not
dropping the least recently used entry, keeps a hit a plain dict lookup,
which the hot loops make inline."""


class Memo(dict):
    """A dict that holds at most `bound` entries, filled through keep."""

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def keep(self, key, value):
        """Put value under key, emptying the memo first when it is full,
        and return value."""
        if len(self) >= self.bound:
            self.clear()
        self[key] = value
        return value
