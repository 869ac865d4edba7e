"""Exploration of counter machine configuration graphs.

Configurations pair a control state with a sparse valuation (counter index to
positive count).  Both machine kinds supply the successor relation through
config_successors.  Compiled machines step one letter cycle at a time and
are explored error-free; machines built from instruction lists step one
instruction at a time on their transitions compiled to counter indices, and
are explored under the lazy relation by default (decrementing a zero
counter may leave the valuation unchanged) unless the transition opts out.

Every bound counts instruction steps: the step cap, NODE_BUDGET and the
saturation's explored count charge a compiled letter step the instructions
of the cycle it replaces, so a bound means the same on both machine kinds.

bounded_nonemptiness searches for an infinite run: any configuration cycle
is one (control cycles must consume letters, so a lasso reads infinitely many
letters), and so is any path reaching the step bound.  Exhausting the graph
without hitting a value or node cap is a definite emptiness answer.

inclusion_check saturates the compiled product of one automaton with the
dual of another, keeping only valuation-minimal configurations per control
state: smaller configurations carry fewer obligations and simulate larger
ones, so pruning preserves both witnesses and their absence.  Non-inclusion
is witnessed by a checkpoint configuration (dual threads all discharged)
that still has an infinite continuation.
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..ara.automaton import AlternatingAutomaton, inclusion_product
from ..ipcant import EPS
from .compile import CompiledMachine, ara_to_ipcant

NODE_BUDGET = 200000


class Nonemptiness(Enum):
    NONEMPTY = "nonempty"
    EMPTY = "empty"
    UNKNOWN = "unknown"


class Inclusion(Enum):
    INCLUDED = "included"
    NOT_INCLUDED = "not_included"
    UNKNOWN = "unknown"


@dataclass
class SaturationResult:
    """Outcome of the inclusion saturation: the verdict, the kept minimal
    configurations (control state paired with a sparse valuation), and how the
    exploration went."""

    verdict: Inclusion
    s_last: tuple
    explored: int
    converged: bool
    checkpoints: int


def initial_config(machine):
    if isinstance(machine, CompiledMachine):
        return (machine.initial_control, {})
    return (machine.initial, {})


def _is_lazy_default(machine):
    return not isinstance(machine, CompiledMachine)


def successors(machine, control, sv, lazy, vcap, letter=None):
    """Successors as (label, control', sv', steps), plus a flag saying
    whether anything was cut off by the value cap or branch budget.  Given a
    letter, only letter-free steps and steps reading that letter are made.
    An explicit machine steps one instruction at a time (steps 1), under the
    lazy relation when asked; a compiled machine steps one letter cycle at a
    time, error-free, charged its instruction count."""
    if isinstance(machine, CompiledMachine):
        succ, truncated = machine.config_successors(control, sv, letter, vcap)
    else:
        succ, truncated = machine.config_successors(control, sv, letter, vcap, lazy)
    # unpacked, as bench/spans.py hands the compiled pair back as an iterator
    return succ, truncated


def _freeze(control, sv):
    return (control, tuple(sorted(sv.items())))


def bounded_nonemptiness(machine, cap=10000, vcap=64, start=None, lazy=None) -> Nonemptiness:
    """Search for an infinite run: a configuration lasso or a simple path of
    cap instruction steps counts as one.  A fully exhausted graph without
    cutoffs is a definite emptiness verdict.  Path lengths and the node
    count charge each step its instruction count."""
    if lazy is None:
        lazy = _is_lazy_default(machine)
    if start is None:
        start = initial_config(machine)
    control0, sv0 = start
    truncated = False
    longest = {}  # frozen config -> longest path length (in steps) from it
    onstack = set()
    visited = 1

    def expand(control, sv):
        nonlocal truncated
        succ, cut = successors(machine, control, sv, lazy, vcap)
        truncated |= cut
        return iter(succ)

    key0 = _freeze(control0, sv0)
    # frame: [config, successor iterator, longest path from it, steps into it]
    stack = [[key0, expand(control0, sv0), 0, 0]]
    onstack.add(key0)
    while stack:
        frame = stack[-1]
        advanced = False
        for label, control2, sv2, steps in frame[1]:
            k2 = _freeze(control2, sv2)
            if k2 in onstack:
                return Nonemptiness.NONEMPTY  # lasso: a cycle repeats forever
            if k2 in longest:
                frame[2] = max(frame[2], longest[k2] + steps)
                if frame[2] >= cap:
                    return Nonemptiness.NONEMPTY
                continue
            visited += steps
            if visited > NODE_BUDGET:
                return Nonemptiness.UNKNOWN
            stack.append([k2, expand(control2, sv2), 0, steps])
            onstack.add(k2)
            advanced = True
            break
        if not advanced:
            stack.pop()
            onstack.discard(frame[0])
            longest[frame[0]] = frame[2]
            if frame[2] >= cap:
                return Nonemptiness.NONEMPTY
            if stack:
                parent = stack[-1]
                parent[2] = max(parent[2], frame[2] + frame[3])
                if parent[2] >= cap:
                    return Nonemptiness.NONEMPTY
    return Nonemptiness.UNKNOWN if truncated else Nonemptiness.EMPTY


def prefix_reachable(machine, letters, lazy=None, vcap=64) -> bool:
    """Can the machine consume the letter sequence and come to rest?  For
    compiled machines this matches the existence of a partial automaton run
    on some data word with those letters.  Each stage closes the frontier
    under letter-free steps and collects the steps on the next letter; the
    last stage, after the final letter, looks for a resting configuration
    (a state that is not resting has letter-free steps only)."""
    if lazy is None:
        lazy = _is_lazy_default(machine)
    control0, sv0 = initial_config(machine)
    frontier = {_freeze(control0, sv0): (control0, sv0)}
    for letter in tuple(letters) + (None,):
        seen = dict(frontier)
        todo = list(frontier.values())
        frontier = {}
        while todo:
            control, sv = todo.pop()
            if letter is None and machine.is_resting(control):
                return True
            succ, _ = successors(machine, control, sv, lazy, vcap, letter)
            for label, control2, sv2, _ in succ:
                key = _freeze(control2, sv2)
                if label is not EPS:
                    frontier[key] = (control2, sv2)
                elif key not in seen and len(seen) < NODE_BUDGET:
                    seen[key] = (control2, sv2)
                    todo.append((control2, sv2))
        if not frontier:
            return False
    return False


def _dominated(chain, sv):
    for kept in chain:
        if all(sv.get(ci, 0) >= n for ci, n in kept.items()):
            return True
    return False


def _prune(chain, sv):
    return [kept for kept in chain
            if not all(kept.get(ci, 0) >= n for ci, n in sv.items())]


def inclusion_check(a1: AlternatingAutomaton, a2: AlternatingAutomaton,
                    cap=10000, vcap=64) -> SaturationResult:
    """Decide whether every data word accepted by a1 is accepted by a2, by
    saturating the compiled product of a1 with the dual of a2."""
    aut, co_states = inclusion_product(a1, a2)
    machine = ara_to_ipcant(aut, co_states=co_states)
    control0, sv0 = initial_config(machine)
    chains = {control0: [sv0]}
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
        if sv not in chains.get(control, ()):
            continue  # pruned by a smaller configuration meanwhile
        explored += steps
        succ, cut = successors(machine, control, sv, lazy=False, vcap=vcap)
        truncated |= cut
        for label, control2, sv2, steps2 in succ:
            chain = chains.setdefault(control2, [])
            if _dominated(chain, sv2):
                continue
            chains[control2] = _prune(chain, sv2) + [sv2]
            queue.append((control2, sv2, steps2))
    s_last = tuple((control, dict(sv)) for control, chain in chains.items()
                   for sv in chain)
    checkpoints = [(control, sv) for control, chain in chains.items()
                   if machine.is_checkpoint(control) for sv in chain]
    unknown = truncated or not converged
    for start in checkpoints:
        r = bounded_nonemptiness(machine, cap=cap, vcap=vcap, start=start, lazy=False)
        if r is Nonemptiness.NONEMPTY:
            return SaturationResult(Inclusion.NOT_INCLUDED, s_last, explored,
                                    converged, len(checkpoints))
        if r is Nonemptiness.UNKNOWN:
            unknown = True
    if unknown:
        return SaturationResult(Inclusion.UNKNOWN, s_last, explored, converged,
                                len(checkpoints))
    return SaturationResult(Inclusion.INCLUDED, s_last, explored, converged,
                            len(checkpoints))
