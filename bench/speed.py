"""How fast the machine runs right now, from a fixed reference kernel.

On a shared VM the speed of the same Python code swings by up to 1.9x, in
spells of seconds to minutes, while CPU time stays equal to wall time (see
the README).  No statistic over one run's own timings can tell such a spell
from a slower program.  The worker therefore runs a small fixed kernel of
plain Python between queries, at least every INTERVAL_S, and scales each
query's time by NOMINAL_S over the kernel's time around that query.  The
kernel lives in this file and never calls the program, so a change to the
program moves the scaled figures and a change in the machine's speed
mostly does not.
"""

import bisect
import statistics
import time

# the kernel's time at the speed the scaled figures are expressed in
NOMINAL_S = 0.005
INTERVAL_S = 0.2
# kernel samples on each side of a query that set its scale
SIDE = 3


def kernel():
    """Dictionary, tuple and frozenset work, the kind the program does; of
    the kernels tried it tracked the program's speed swings best."""
    counts = {}
    seen = set()
    acc = 0
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset((i % 7, i % 11)))
        acc += len(key)
    return acc + len(counts) + len(seen)


class SpeedProbe:
    def __init__(self):
        kernel()  # the first call in a fresh interpreter runs cold
        self.starts = []
        self.ends = []
        self.times = []

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - start)

    def due(self):
        return not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S

    def scale(self, start, end):
        """NOMINAL_S over the median kernel time of the SIDE samples that
        ended before `start` and the SIDE that began after `end`."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.times[max(0, before - SIDE):before] + self.times[after:after + SIDE]
        if not near:
            raise ValueError("no speed sample around a timed span")
        return NOMINAL_S / statistics.median(near)
