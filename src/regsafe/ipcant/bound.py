"""The bound recurrence on a machine's state, basis and counter counts."""

from collections import namedtuple
import math

from ..errors import ValidationError


BoundParams = namedtuple("BoundParams", ("alphas", "us", "m"))


def compute_bound(machine) -> BoundParams:
    """Bound parameters of a machine, from its state, basis and counter
    counts."""
    return bound_params(*machine.bound_counts())


def bound_params(q_count, basis_size, counter_count) -> BoundParams:
    """Exact big-int evaluation of the anti-chain length recurrence: from any
    configuration, some infinite run exists iff one with at most m steps
    between repeating configurations does."""
    if q_count < 1 or basis_size < 0 or counter_count < 0:
        raise ValidationError("bad bound parameters")
    alphas = [q_count]
    us = [1]
    for i in range(basis_size):
        a, u = alphas[-1], us[-1]
        alphas.append(2 * (basis_size - i) * a * (u ** counter_count))
        us.append(3 * a * (u ** counter_count))
    m = 2 * alphas[-1] * (us[-1] ** counter_count)
    return BoundParams(tuple(alphas), tuple(us), m)


def bound_ceiling(q_count, basis_size) -> int:
    """Closed-form ceiling the recurrence stays under: (3|Q|)^(2^(2|X|^2+|X|))."""
    return (3 * q_count) ** (2 ** (2 * basis_size * basis_size + basis_size))


def bound_log2(q_count, basis_size, counter_count) -> float:
    """log2 of the recurrence's m, evaluated in log space.  The exact value
    grows doubly exponentially with the basis size, so callers use this to
    decide whether materializing it is feasible at all."""
    if q_count < 1 or basis_size < 0 or counter_count < 0:
        raise ValidationError("bad bound parameters")
    la = math.log2(q_count)
    lu = 0.0
    for i in range(basis_size):
        la, lu = (1 + math.log2(basis_size - i) + la + counter_count * lu,
                  math.log2(3) + la + counter_count * lu)
    return 1 + la + counter_count * lu
