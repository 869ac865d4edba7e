"""Exploration of counter machine configuration graphs.

Configurations pair a control state with a valuation in ipcant's one form
(sorted (counter index, positive count) pairs), and are their own keys in
every search.  Both machine kinds supply their initial configuration and
their successor relation (config_successors), which each machine fixes.
Compiled machines step one letter cycle at a time, error-free; machines
built from instruction lists step one instruction at a time on their
transitions compiled to counter indices, under the lazy relation
(decrementing a zero counter may leave the valuation unchanged) unless built
error-free, as materialized ones are.  A parsed machine is lazy unless its
file says `relation: error-free`, which format_machine writes for an
error-free machine.

Every bound counts instruction steps: the step cap, NODE_BUDGET and the
saturation's explored count charge a compiled letter step the instructions
of the cycle it replaces, so a bound means the same on both machine kinds.

prefix_reachable searches depth-first over (position, configuration) pairs,
expanding each at most once, and stops at the first resting configuration
after the last letter, so a True answer costs one path rather than every
configuration reachable at each position.  On a compiled machine every
expansion is a lettered step, which the machine memoizes, so an expansion
repeated within one query or by another query on the same machine is one
lookup.  It needs neither a node cap nor a value cap: within a position
only letter-free steps are taken, and that graph is finite (compiled
machines have none, explicit machines reject letter-free cycles at
construction).  So a False answer is exact, unless a transfer's splits
passed BRANCH_BUDGET and were dropped.

bounded_nonemptiness searches for an infinite run: any configuration cycle
is one (control cycles must consume letters, so a lasso reads infinitely many
letters), and so is any path reaching the step bound.  Exhausting the graph
without hitting a value or node cap is a definite emptiness answer.

inclusion_check saturates the product of one automaton with the dual of
another, compiled straight from the two (compile.product_machine, the
machine of reference.ara.inclusion_product), keeping only valuation-minimal
configurations per control state: smaller configurations carry fewer
obligations and simulate larger ones, so pruning preserves both witnesses
and their absence.  Non-inclusion
is witnessed by a checkpoint configuration (dual threads all discharged)
that still has an infinite continuation.  The minimal valuations of a
control form an Antichain indexed by support, the set of counters a
valuation holds: a valuation can lie below another only if its support is a
subset of the other's, so the test for a smaller kept valuation looks only at
supports inside the new one's, and the pruning of larger ones only at
supports that hold all of its counters.
"""

from collections import deque, namedtuple
from enum import Enum
from itertools import combinations
import math

from ..ara.automaton import AlternatingAutomaton
from ..ipcant import EPS
from .compile import product_machine

NODE_BUDGET = 200000
CAP = 10000  # the default step cap of bounded_nonemptiness and inclusion_check
VCAP = 64  # and their default counter value bound


class Nonemptiness(Enum):
    NONEMPTY = "nonempty"
    EMPTY = "empty"
    UNKNOWN = "unknown"


class Inclusion(Enum):
    INCLUDED = "included"
    NOT_INCLUDED = "not_included"
    UNKNOWN = "unknown"


class SaturationResult(namedtuple("SaturationResult", (
        "verdict", "explored", "converged", "checkpoints", "chains"))):
    """Outcome of the inclusion saturation: the verdict, how the exploration
    went, and the kept minimal configurations, one Antichain per control
    state in the order the controls were first reached.  Results are equal
    when all five fields are; the repr leaves out the chains."""

    __slots__ = ()

    def __repr__(self):
        return "%s(verdict=%r, explored=%r, converged=%r, checkpoints=%r)" % (
            (type(self).__name__,) + self[:4])


def successors(machine, control, sv, vcap, letter=None):
    """Successors as (label, control', sv', steps), plus a flag saying
    whether anything was cut off by the value cap or branch budget.  Given a
    letter, only letter-free steps and steps reading that letter are made.
    An explicit machine steps one instruction at a time (steps 1); a
    compiled machine steps one letter cycle at a time, charged its
    instruction count."""
    succ, truncated = machine.config_successors(control, sv, letter, vcap)
    # unpacked, as bench/spans.py hands the compiled pair back as an iterator
    return succ, truncated


def bounded_nonemptiness(machine, cap=CAP, vcap=VCAP, start=None) -> Nonemptiness:
    """Search for an infinite run from `start`, a (control, valuation) pair
    with the valuation in the canonical form, or else from the initial
    configuration: a configuration lasso or a simple path of cap
    instruction steps counts as one.  A fully exhausted graph without
    cutoffs is a definite emptiness verdict.  Path lengths and the node
    count charge each step its instruction count.  Raises ValueError on a
    cap or vcap below 1.

    The cap is tested only where a path grows: on pop, where a
    configuration's longest path plus the steps into it extends its
    parent's.  A successor already finished needs no test.  The steps into
    a configuration depend on it alone (a compiled step charges its cycle
    plus the checkpoint flag of the control it enters, an explicit one 1),
    so its sum is the one its first parent compared against the cap when
    it was popped, and found short."""
    if cap < 1 or vcap < 1:
        raise ValueError("cap and vcap must be at least 1, not %r and %r" % (cap, vcap))
    truncated = False
    longest = {}  # config -> None while on the stack, then its longest path (in steps)
    visited = 1

    def expand(control, sv):
        nonlocal truncated
        succ, cut = successors(machine, control, sv, vcap)
        truncated |= cut
        return iter(succ)

    config0 = machine.initial_config() if start is None else start
    # frame: [config, successor iterator, longest path from it, steps into it]
    stack = [[config0, expand(*config0), 0, 0]]
    longest[config0] = None
    while stack:
        frame = stack[-1]
        for label, control2, sv2, steps in frame[1]:
            k2 = (control2, sv2)
            if k2 in longest:
                length = longest[k2]
                if length is None:
                    return Nonemptiness.NONEMPTY  # lasso: a cycle repeats forever
                frame[2] = max(frame[2], length + steps)
                continue
            visited += steps
            if visited > NODE_BUDGET:
                return Nonemptiness.UNKNOWN
            stack.append([k2, expand(control2, sv2), 0, steps])
            longest[k2] = None
            break
        else:
            stack.pop()
            longest[frame[0]] = frame[2]
            if stack:
                parent = stack[-1]
                parent[2] = max(parent[2], frame[2] + frame[3])
                if parent[2] >= cap:
                    return Nonemptiness.NONEMPTY
    return Nonemptiness.UNKNOWN if truncated else Nonemptiness.EMPTY


def prefix_reachable(machine, letters) -> bool:
    """Can the machine consume the letter sequence and come to rest?  For
    compiled machines this matches the existence of a partial automaton run
    on some data word with those letters.  A depth-first search over
    (position, configuration) pairs, each expanded at most once: a lettered
    step reading the letter at the position moves to the next one, a
    letter-free step stays, and past the last letter only letter-free steps
    are taken.  The search answers True at the first resting configuration
    it pops at the last position (a state that is not resting has
    letter-free steps only), so a True answer stops at the first path.
    Expansions are shared through a compiled machine's lettered-step memo,
    within this query and with earlier ones on the same machine.
    Every position's letter-free graph is finite, as compiled machines have
    no letter-free steps and explicit ones no letter-free cycles, so the
    search needs no node cap and steps with no value cap (math.inf): its
    False is exact unless a step dropped a transfer's splits past
    BRANCH_BUDGET."""
    letters = tuple(letters)
    last = len(letters)
    stack = [(0,) + machine.initial_config()]
    seen = set(stack)
    while stack:
        pos, control, sv = stack.pop()
        if pos == last:
            if machine.is_resting(control):
                return True
            letter = None
        else:
            letter = letters[pos]
        succ, _ = successors(machine, control, sv, math.inf, letter)
        for label, control2, sv2, _ in succ:
            key = (pos if label is EPS else pos + 1, control2, sv2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return False


class Antichain:
    """Pointwise-minimal valuations, kept in insertion order and grouped by
    support (the set of counters a valuation holds), with the supports that
    hold each counter listed per counter.  A valuation can be below another
    only if its support is a subset of the other's, so neither dominated nor
    add looks at a group whose support rules it out."""

    __slots__ = ("_kept", "_groups", "_holding")

    def __init__(self):
        self._kept = {}  # kept valuations, in insertion order
        self._groups = {}  # support -> kept valuations with that support
        self._holding = {}  # counter -> supports that hold it

    def __iter__(self):
        return iter(self._kept)

    def __contains__(self, sv):
        return sv in self._kept

    def dominated(self, sv):
        """Is some kept valuation pointwise <= sv?  A kept sv is, itself.
        Otherwise looks up the subsets of sv's support when there are no
        more of them than groups, and else tests each group's support for
        inclusion."""
        if sv in self._kept:
            return True
        groups = self._groups
        counts = dict(sv)
        if 1 << len(counts) <= len(groups):
            for r in range(len(counts) + 1):
                for sub in combinations(counts, r):
                    group = groups.get(frozenset(sub))
                    if group and _any_below(group, counts):
                        return True
            return False
        support = counts.keys()
        for s, group in groups.items():
            if support >= s and _any_below(group, counts):
                return True
        return False

    def add(self, sv):
        """Keep sv, which no kept valuation may be <=, and drop every kept
        valuation >= sv: those among the groups whose support holds all of
        sv's counters."""
        groups, holding = self._groups, self._holding
        counts = dict(sv)
        support = frozenset(counts)
        if groups:
            if counts:
                fewest = min([holding.get(ci, ()) for ci in counts], key=len)
                above = [s for s in fewest if s >= support]
            else:
                above = list(groups)
            for s in above:
                rest = []
                for kept in groups[s]:
                    if all(counts.get(ci, 0) <= n for ci, n in kept):
                        del self._kept[kept]
                    else:
                        rest.append(kept)
                if rest:
                    groups[s] = rest
                else:
                    del groups[s]
                    for ci in s:
                        holding[ci].discard(s)
        group = groups.get(support)
        if group is None:
            groups[support] = [sv]
            for ci in support:
                holding.setdefault(ci, set()).add(support)
        else:
            group.append(sv)
        self._kept[sv] = None


def _any_below(group, counts):
    """Is some valuation of the group pointwise <= the counts (a dict)?
    Every counter the group's valuations hold must be among them."""
    for kept in group:
        for ci, n in kept:
            if counts[ci] < n:
                break
        else:
            return True
    return False


def inclusion_check(a1: AlternatingAutomaton, a2: AlternatingAutomaton,
                    cap=CAP, vcap=VCAP) -> SaturationResult:
    """Decide whether every data word accepted by a1 is accepted by a2, by
    saturating the product of a1 with the dual of a2, compiled from the two
    automata (product_machine) with a2's states as co-states.  Each control
    state keeps an Antichain of the minimal valuations reached with it; a
    successor below or equal to a kept valuation is dropped, and one that is
    kept prunes every kept valuation above it.  A configuration whose
    valuation was pruned while it waited in the queue is not expanded.
    Raises ValidationError unless a1 and a2 share an alphabet, and
    ValueError on a cap or vcap below 1."""
    if cap < 1 or vcap < 1:
        raise ValueError("cap and vcap must be at least 1, not %r and %r" % (cap, vcap))
    machine = product_machine(a1, a2)
    control0, sv0 = machine.initial_config()
    chain = Antichain()
    chain.add(sv0)
    chains = {control0: chain}
    # a queued configuration carries the steps of the cycle that reached it
    queue = deque([(control0, sv0, 1)])
    explored = 0
    truncated = False
    converged = True
    while queue:
        if explored >= cap:
            converged = False
            break
        control, sv, steps = queue.popleft()
        if sv not in chains[control]:
            continue  # pruned by a smaller configuration meanwhile
        explored += steps
        succ, cut = successors(machine, control, sv, vcap)
        truncated |= cut
        for label, control2, sv2, steps2 in succ:
            chain = chains.get(control2)
            if chain is None:
                chain = chains[control2] = Antichain()
            elif chain.dominated(sv2):
                continue
            chain.add(sv2)
            queue.append((control2, sv2, steps2))
    checkpoints = [(control, sv) for control, chain in chains.items()
                   if machine.is_checkpoint(control) for sv in chain]
    verdict = Inclusion.UNKNOWN if truncated or not converged else Inclusion.INCLUDED
    for start in checkpoints:
        r = bounded_nonemptiness(machine, cap=cap, vcap=vcap, start=start)
        if r is Nonemptiness.NONEMPTY:
            verdict = Inclusion.NOT_INCLUDED
            break
        if r is Nonemptiness.UNKNOWN:
            verdict = Inclusion.UNKNOWN
    return SaturationResult(verdict, explored, converged, len(checkpoints), chains)
