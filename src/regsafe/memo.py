"""The one rule for a bounded memo kept by an object past one call.

A Memo is a dict that is emptied when it holds BOUND entries, before the
next entry goes in.  Every memo has that one bound, read each time a memo
keeps: run_exists's step tables, a compiled machine's lettered steps and a
counter family's memos alike.  So a lowered bound caps growth, not what a
memo holds: a memo already past it is emptied at its next keep, not at
once, and one whose lookups all hit keeps every entry.  Emptying, not
dropping the least recently used entry, keeps a hit a plain dict lookup,
which the hot loops make inline."""

BOUND = 4096  # the most entries a memo keeps


class Memo(dict):
    """A dict filled through keep, which empties it at BOUND entries."""

    __slots__ = ()

    def keep(self, key, value):
        """Put value under key, emptying the memo first when it holds BOUND
        entries, and return value."""
        if len(self) >= BOUND:
            self.clear()
        self[key] = value
        return value
