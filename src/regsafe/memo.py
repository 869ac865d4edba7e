"""The one rule for a bounded memo kept by an object past one call.

A Memo is a dict of at most BOUND entries: when it is full it is emptied
before the next entry goes in.  Every memo has that one bound, read each
time a memo keeps, so every live memo follows its current value (one already
past a lowered bound is emptied at its next keep): run_exists's step tables,
a compiled machine's lettered steps and a counter family's memos alike.
Emptying, not dropping the least recently used entry, keeps a hit a plain
dict lookup, which the hot loops make inline."""

BOUND = 4096  # the most entries a memo keeps


class Memo(dict):
    """A dict that holds at most BOUND entries, filled through keep."""

    __slots__ = ()

    def keep(self, key, value):
        """Put value under key, emptying the memo first when it holds BOUND
        entries, and return value."""
        if len(self) >= BOUND:
            self.clear()
        self[key] = value
        return value
