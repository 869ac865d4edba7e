"""A dense view of the counter machines: a Valuation pairs a counter
structure with an int tuple aligned with the structure's counter order, so
firing operations need no extra context, and a transfer fires through the
image it gives each counter (image); the token-embedding order sqsse,
decided by Hall's condition, exponential in the number of held counters and
so a reference for small valuations only; seeded random structures,
valuations and instructions to fire; and the bound's closed-form ceiling."""

from dataclasses import dataclass
from itertools import combinations, product

from ..errors import ValidationError
from ..ipcant import CounterStructure, Dec, Inc, Transfer, check_distributive, compositions


@dataclass(frozen=True)
class Valuation:
    """A total assignment of naturals to the structure's counters, stored as
    an int tuple in the structure's counter order."""

    structure: CounterStructure
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.structure.counters):
            raise ValidationError("valuation length does not match counter count")
        for n in self.values:
            if not isinstance(n, int) or n < 0:
                raise ValidationError("counter values must be naturals")

    def __getitem__(self, counter):
        return self.values[self.structure.index[frozenset(counter)]]

    def items(self):
        return zip(self.structure.counters, self.values)

    def total(self):
        return sum(self.values)

    def _with(self, i, n) -> "Valuation":
        return Valuation(self.structure, self.values[:i] + (n,) + self.values[i + 1:])


def valuation(structure: CounterStructure, assignment) -> Valuation:
    """The Valuation of a mapping from counters, given as any iterables of
    basis elements, to their counts; counters it leaves out hold 0."""
    v = [0] * len(structure.counters)
    for c, n in assignment.items():
        v[structure.index[frozenset(c)]] = n
    return Valuation(structure, tuple(v))


def image(transfer, c):
    """The image tuple of counter c under transfer: its first entry's, or
    (c,) when the transfer lists no entry for it."""
    for src, dsts in transfer.entries:
        if src == c:
            return dsts
    return (c,)


def transfer_witnesses(v: "Valuation", transfer):
    """Yield (witness, result) pairs for every way of splitting each source
    counter's tokens over its image counters.  The witness maps pairs
    (source counter, image counter) to the amount moved; row sums give back v
    and column sums give the result.  Yields nothing when the transfer is not
    firable (a counter with tokens but an empty image)."""
    structure = v.structure
    idx = structure.index
    moving = []
    for c, n in v.items():
        if n == 0:
            continue
        dsts = image(transfer, c)
        if not dsts:
            return
        moving.append((c, n, dsts))
    for split in product(*(compositions(n, len(dsts)) for _, n, dsts in moving)):
        out = [0] * len(v.values)
        witness = {}
        for (c, n, dsts), parts in zip(moving, split):
            for d, part in zip(dsts, parts):
                out[idx[d]] += part
                if part:
                    witness[(c, d)] = part
        yield witness, Valuation(structure, tuple(out))


def fire(v: "Valuation", instr):
    """Error-free firing: the set of all possible successor valuations."""
    if isinstance(instr, (Inc, Dec)):
        i = v.structure.index[instr.counter]
        n = v.values[i] + (1 if isinstance(instr, Inc) else -1)
        return {v._with(i, n)} if n >= 0 else set()
    if isinstance(instr, Transfer):
        return {v2 for _, v2 in transfer_witnesses(v, instr)}
    raise ValidationError("unknown instruction %r" % (instr,))


def fire_lazy(v: "Valuation", instr):
    """Error-free results plus the single lazy error: decrementing a zero
    counter leaves the valuation unchanged."""
    out = fire(v, instr)
    if isinstance(instr, Dec) and v[instr.counter] == 0:
        out.add(v)
    return out


def sqsse(v_surd: "Valuation", v: "Valuation") -> bool:
    """The token-embedding preorder: true iff every token of v_surd can be
    matched injectively to a token of v on a counter containing the token's
    own counter (equivalently, v dominates some up-set transfer of v_surd).
    By Hall's marriage theorem such a matching exists iff every set S of
    v_surd's held counters holds no more tokens than v has on the counters
    containing some member of S.  Exponential in the number of held
    counters: a reference for small valuations."""
    if v_surd.structure != v.structure:
        raise ValidationError("valuations over different counter structures")
    counters, small, big = v.structure.counters, v_surd.values, v.values
    held = [i for i, n in enumerate(small) if n]
    for r in range(1, len(held) + 1):
        for subset in combinations(held, r):
            room = sum(m for j, m in enumerate(big)
                       if any(counters[i] <= counters[j] for i in subset))
            if sum(small[i] for i in subset) > room:
                return False
    return True


def bound_ceiling(q_count, basis_size) -> int:
    """Closed-form ceiling the recurrence stays under: (3|Q|)^(2^(2|X|^2+|X|))."""
    return (3 * q_count) ** (2 ** (2 * basis_size * basis_size + basis_size))


def random_structure(rng, max_basis=3, max_counters=4) -> CounterStructure:
    """A counter structure over a small basis with 1..max_counters distinct
    non-empty counters."""
    k = rng.randint(1, max_basis)
    basis = tuple("x%d" % i for i in range(k))
    pool = [frozenset(c) for r in range(1, k + 1)
            for c in combinations(basis, r)]
    rng.shuffle(pool)
    take = rng.randint(1, min(max_counters, len(pool)))
    return CounterStructure(basis, sorted(pool[:take], key=sorted))


def random_valuation(rng, structure: CounterStructure, max_value=3) -> Valuation:
    return Valuation(structure, tuple(
        rng.randint(0, max_value) for _ in structure.counters))


def sub_valuation(rng, v: Valuation) -> Valuation:
    """A componentwise smaller-or-equal valuation."""
    return Valuation(v.structure, tuple(rng.randint(0, n) for n in v.values))


def embedded_valuation(rng, v: Valuation) -> Valuation:
    """A valuation below v in the token-embedding order: drop some tokens and
    slide the rest onto subset counters."""
    structure = v.structure
    values = [0] * len(structure.counters)
    for c, n in v.items():
        homes = [i for i, c2 in enumerate(structure.counters) if c2 <= c]
        for _ in range(n):
            if rng.random() < 0.3:
                continue
            values[rng.choice(homes)] += 1
    return Valuation(structure, tuple(values))


def random_transfer(rng, structure: CounterStructure, empty_prob=0.2) -> Transfer:
    """A transfer map with arbitrary images; not necessarily distributive."""
    entries = []
    for c in structure.counters:
        if rng.random() < empty_prob:
            entries.append((c, ()))
            continue
        size = rng.randint(1, min(2, len(structure.counters)))
        dsts = rng.sample(list(structure.counters), size)
        entries.append((c, tuple(dsts)))
    return Transfer(tuple(entries))


def random_distributive_transfer(rng, structure: CounterStructure,
                                 attempts=50) -> Transfer:
    """Rejection-sample random transfers until one passes the distributivity
    check; falls back to the identity map."""
    for _ in range(attempts):
        t = random_transfer(rng, structure)
        if check_distributive(t.as_map(structure.counters), structure.counters):
            return t
    return Transfer(tuple((c, (c,)) for c in structure.counters))


def random_instruction(rng, structure: CounterStructure):
    """An increment, a decrement, or a distributive transfer."""
    roll = rng.random()
    if roll < 0.35:
        return Inc(rng.choice(structure.counters))
    if roll < 0.7:
        return Dec(rng.choice(structure.counters))
    return random_distributive_transfer(rng, structure)
