"""The bound recurrence on a machine's state, basis and counter counts."""

from collections import namedtuple
import math

from ..errors import ValidationError


BoundParams = namedtuple("BoundParams", ("alphas", "us", "m"))


def _check(q_count, basis_size, counter_count):
    if q_count < 1 or basis_size < 0 or counter_count < 0:
        raise ValidationError("bad bound parameters")


def bound_params(q_count, basis_size, counter_count) -> BoundParams:
    """Exact big-int evaluation of the anti-chain length recurrence: from any
    configuration, some infinite run exists iff one with at most m steps
    between repeating configurations does."""
    _check(q_count, basis_size, counter_count)
    alphas = [q_count]
    us = [1]
    for i in range(basis_size):
        a, u = alphas[-1], us[-1]
        alphas.append(2 * (basis_size - i) * a * (u ** counter_count))
        us.append(3 * a * (u ** counter_count))
    m = 2 * alphas[-1] * (us[-1] ** counter_count)
    return BoundParams(tuple(alphas), tuple(us), m)


def bound_log2_log2(q_count, basis_size, counter_count) -> float:
    """log2(log2 m), finite where log2 m overflows a float (from about 13
    automaton states on), so callers can tell whether materializing m is
    feasible: the recurrence on the logarithms of its terms, a zero term
    being -inf."""
    _check(q_count, basis_size, counter_count)

    def add(*xs):  # log2 of the sum of the terms 2^x
        top = max(xs)
        return top + math.log2(sum(2.0 ** (x - top) for x in xs))

    lc = math.log2(counter_count) if counter_count else -math.inf
    lla, llu = math.log2(math.log2(q_count)) if q_count > 1 else -math.inf, -math.inf
    for i in range(basis_size):
        lla, llu = (add(math.log2(1 + math.log2(basis_size - i)), lla, lc + llu),
                    add(math.log2(math.log2(3)), lla, lc + llu))
    return add(0.0, lla, lc + llu)
