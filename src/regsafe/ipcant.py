"""Counter machines over a finite basis: counters are non-empty subsets of the
basis, instructions are increments, decrements and nondeterministic transfers.

A transfer names, for every counter, the set of counters its tokens may move
to; it is firable iff every counter with an empty image holds zero.  Transfer
maps must be distributive: whenever a counter is covered by a union of
counters, any choice of image counters for the cover admits an image counter
of the covered one inside the union of the choices.  Distributivity is what
makes the token-embedding preorder compatible with firing.

Incrementing errors: a run may spontaneously gain tokens but never lose them.
The lazy restriction allows only one kind of error, decrementing a zero
counter and leaving the valuation unchanged.

A Valuation pairs a counter structure with an int tuple aligned with the
structure's counter order, so firing operations need no extra context.
"""

from dataclasses import dataclass, field
from itertools import product
import math
import random
import re

from .errors import ParseError, ValidationError
from .words import Alphabet, NAME_RE

EPS = None  # transition label for letter-free moves


class CounterStructure:
    """A basis and an ordered family of counters (non-empty basis subsets)."""

    def __init__(self, basis, counters):
        self.basis = tuple(basis)
        self.counters = tuple(frozenset(c) for c in counters)
        if len(set(self.basis)) != len(self.basis):
            raise ValidationError("duplicate basis element")
        base = set(self.basis)
        seen = set()
        for c in self.counters:
            if not c:
                raise ValidationError("counters must be non-empty")
            if not c <= base:
                raise ValidationError("counter %r uses unknown basis elements" % (sorted(c),))
            if c in seen:
                raise ValidationError("duplicate counter %r" % (sorted(c),))
            seen.add(c)
        self.index = {c: i for i, c in enumerate(self.counters)}

    def __eq__(self, other):
        return (isinstance(other, CounterStructure)
                and self.basis == other.basis and self.counters == other.counters)

    def __hash__(self):
        return hash((self.basis, self.counters))

    def zero(self) -> "Valuation":
        return Valuation(self, (0,) * len(self.counters))

    def valuation(self, assignment) -> "Valuation":
        v = [0] * len(self.counters)
        for c, n in assignment.items():
            v[self.index[frozenset(c)]] = n
        return Valuation(self, tuple(v))


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


@dataclass(frozen=True)
class Instruction:
    pass


@dataclass(frozen=True)
class Inc(Instruction):
    counter: frozenset


@dataclass(frozen=True)
class Dec(Instruction):
    counter: frozenset


@dataclass(frozen=True)
class Transfer(Instruction):
    """entries: tuple of (source counter, tuple of image counters); counters
    not listed map to themselves."""

    entries: tuple

    def image(self, c):
        for src, dsts in self.entries:
            if src == c:
                return dsts
        return (c,)

    def as_map(self, counters):
        return {c: tuple(self.image(c)) for c in counters}


def ifz_cap(basis_subset, counters) -> Transfer:
    """The transfer that verifies every counter meeting the given basis subset
    is zero and leaves everything else alone."""
    y = frozenset(basis_subset)
    entries = tuple((c, ()) for c in counters if c & y)
    return Transfer(entries)


@dataclass(frozen=True)
class Transition:
    src: str
    label: object  # letter name or EPS
    instr: Instruction
    dst: str
    # set by the compiler on decrements whose lazy zero-branch is redundant
    # (a sibling choice dominates); file-loaded machines never set it
    elide_zero_dec: bool = field(default=False, compare=False)


class CounterMachine:
    def __init__(self, alphabet: Alphabet, states, initial, structure: CounterStructure,
                 transitions, check_transfers="auto"):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = initial
        self.structure = structure
        self.transitions = tuple(transitions)
        if len(set(self.states)) != len(self.states):
            raise ValidationError("duplicate state name")
        if initial not in self.states:
            raise ValidationError("initial state %r not declared" % (initial,))
        known = set(structure.counters)
        for t in self.transitions:
            if t.src not in self.states or t.dst not in self.states:
                raise ValidationError("transition uses unknown state")
            if t.label is not EPS and t.label not in alphabet:
                raise ValidationError("transition on unknown letter %r" % (t.label,))
            for c in _instr_counters(t.instr):
                if frozenset(c) not in known:
                    raise ValidationError("instruction uses unknown counter %r" % (sorted(c),))
        self._check_eps_acyclic()
        if check_transfers != "off":
            self._check_transfers(check_transfers)
        self._out = None
        self._resting = frozenset(t.src for t in self.transitions if t.label is not EPS)

    def _check_eps_acyclic(self):
        adj = {}
        for t in self.transitions:
            if t.label is EPS:
                adj.setdefault(t.src, []).append(t.dst)
        color = {}

        def dfs(q):
            color[q] = 1
            for r in adj.get(q, ()):
                if color.get(r) == 1:
                    raise ValidationError("letter-free transition cycle through %r" % (q,))
                if r not in color:
                    dfs(r)
            color[q] = 2

        for q in self.states:
            if q not in color:
                dfs(q)

    def _check_transfers(self, mode):
        counters = self.structure.counters
        exhaustive = len(counters) <= 12 or mode == "full"
        seen = set()
        for t in self.transitions:
            if not isinstance(t.instr, Transfer) or t.instr in seen:
                continue
            seen.add(t.instr)
            f = t.instr.as_map(counters)
            ok = (check_distributive(f, counters) if exhaustive
                  else _sampled_distributive(f, counters))
            if not ok:
                raise ValidationError("transfer map is not distributive")

    @property
    def basis(self):
        return self.structure.basis

    @property
    def counters(self):
        return self.structure.counters

    def is_resting(self, state):
        """True when the state has a lettered transition: a run that has
        consumed a letter sequence can stop only at such a state."""
        return state in self._resting

    def outgoing(self, state):
        if self._out is None:
            self._out = {}
            for t in self.transitions:
                self._out.setdefault(t.src, []).append(t)
        return self._out.get(state, [])


def _instr_counters(instr):
    if isinstance(instr, (Inc, Dec)):
        yield instr.counter
    elif isinstance(instr, Transfer):
        for src, dsts in instr.entries:
            yield src
            yield from dsts
    else:
        raise ValidationError("unknown instruction %r" % (instr,))


def _irredundant_covers(c, members):
    """Yield index-increasing selections from members whose union covers c and
    where no member can be dropped."""
    def covered_union(sel):
        u = set()
        for m in sel:
            u |= m
        return u

    def rec(start, sel, covered):
        if c <= covered:
            if all(not c <= covered_union([m for m in sel if m is not x]) for x in sel):
                yield list(sel)
            return
        for i in range(start, len(members)):
            m = members[i]
            gain = (m & c) - covered
            if not gain:
                continue
            sel.append(m)
            yield from rec(i + 1, sel, covered | m)
            sel.pop()

    yield from rec(0, [], frozenset())


def check_distributive(f, counters) -> bool:
    """Exhaustive check of the distributivity condition over all irredundant
    covers (sufficient: a redundant cover's condition follows from any
    irredundant subcover).  Feasible for |counters| up to a dozen or two; the
    cost is driven by the cover count, not directly by |counters|."""
    counters = list(counters)
    for c in counters:
        if c not in f:
            raise ValidationError("transfer map not total: missing %r" % (sorted(c),))
    for c in counters:
        images_c = list(f[c])
        members = [d for d in counters if d & c]
        for cover in _irredundant_covers(c, members):
            for choice in product(*(f[d] for d in cover)):
                u = frozenset().union(*choice) if choice else frozenset()
                if not any(img <= u for img in images_c):
                    return False
    return True


def _sampled_distributive(f, counters, trials=200, seed=0):
    rng = random.Random(seed)
    counters = list(counters)
    for _ in range(trials):
        c = rng.choice(counters)
        members = [d for d in counters if d & c]
        if not members:
            continue
        rng.shuffle(members)
        cover, covered = [], frozenset()
        for d in members:
            if (d & c) - covered:
                cover.append(d)
                covered |= d
            if c <= covered:
                break
        if not c <= covered:
            continue
        choice = []
        ok = True
        for d in cover:
            opts = list(f.get(d, ()))
            if not opts:
                ok = False
                break
            choice.append(rng.choice(opts))
        if not ok:
            continue
        u = frozenset().union(*choice) if choice else frozenset()
        if not any(img <= u for img in f.get(c, ())):
            return False
    return True


# the most ways one transfer may split its tokens before exploration gives up
# on it and reports truncation instead of enumerating them
BRANCH_BUDGET = 100000


def compositions(n, k):
    """All k-tuples of non-negative ints summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, k - 1):
            yield (head,) + rest


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
        dsts = transfer.image(c)
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


def fire_iter(v: "Valuation", instr):
    """Yield every error-free result of firing instr on v (possibly none)."""
    structure = v.structure
    if isinstance(instr, Inc):
        i = structure.index[instr.counter]
        yield v._with(i, v.values[i] + 1)
        return
    if isinstance(instr, Dec):
        i = structure.index[instr.counter]
        if v.values[i] > 0:
            yield v._with(i, v.values[i] - 1)
        return
    if hasattr(instr, "image"):  # Transfer or any transfer-like map
        seen = set()
        for _, v2 in transfer_witnesses(v, instr):
            if v2.values not in seen:
                seen.add(v2.values)
                yield v2
        return
    raise ValidationError("unknown instruction %r" % (instr,))


def fire(v: "Valuation", instr):
    """Error-free firing: the set of all possible successor valuations."""
    return set(fire_iter(v, instr))


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
    own counter (equivalently, v dominates some up-set transfer of v_surd)."""
    if v_surd.structure != v.structure:
        raise ValidationError("valuations over different counter structures")
    return _token_embedding(v_surd.structure.counters, v_surd.values, v.values)


def _token_embedding(counters, small, big) -> bool:
    """Max-flow feasibility over the counter-inclusion bipartite graph."""
    sources = [(i, n) for i, n in enumerate(small) if n > 0]
    sinks = {i: n for i, n in enumerate(big) if n > 0}
    need = sum(n for _, n in sources)
    if need == 0:
        return True
    if need > sum(sinks.values()):
        return False
    # capacity[si][ti]: remaining sink capacity per source-side assignment
    flow = {}
    residual_sink = dict(sinks)
    assigned = {i: 0 for i, _ in sources}

    def augment(si):
        # BFS over alternating paths: source counter -> sink counter (subset
        # relation) -> any source currently using that sink -> ...
        parent = {}
        queue = [("s", si)]
        seen_s = {si}
        seen_t = set()
        while queue:
            kind, x = queue.pop(0)
            if kind == "s":
                for ti in sinks:
                    if ti in seen_t or not counters[x] <= counters[ti]:
                        continue
                    parent[("t", ti)] = ("s", x)
                    if residual_sink[ti] > 0:
                        # found augmenting path
                        cur = ("t", ti)
                        residual_sink[ti] -= 1
                        while cur in parent:
                            prev = parent[cur]
                            if cur[0] == "t" and prev[0] == "s":
                                flow[(prev[1], cur[1])] = flow.get((prev[1], cur[1]), 0) + 1
                            elif cur[0] == "s" and prev[0] == "t":
                                flow[(cur[1], prev[1])] -= 1
                            cur = prev
                        return True
                    seen_t.add(ti)
                    queue.append(("t", ti))
            else:
                for (sj, tj), used in flow.items():
                    if tj == x and used > 0 and sj not in seen_s:
                        parent[("s", sj)] = ("t", x)
                        seen_s.add(sj)
                        queue.append(("s", sj))
        return False

    for si, n in sources:
        for _ in range(n):
            if not augment(si):
                return False
            assigned[si] += 1
    return True


@dataclass(frozen=True)
class BoundParams:
    alphas: tuple
    us: tuple
    m: int


def machine_counts(machine):
    """(state, basis, counter) counts of a machine.  Machines that know
    their counts without enumerating anything expose bound_counts()."""
    counts = getattr(machine, "bound_counts", None)
    if counts is not None:
        return counts()
    return (len(machine.states), len(machine.structure.basis),
            len(machine.structure.counters))


def compute_bound(machine) -> BoundParams:
    """Bound parameters of a machine, from its state, basis and counter
    counts."""
    return bound_params(*machine_counts(machine))


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


_COUNTER_RE = re.compile(r"\{[^{}]*\}")


def _parse_counter(text, structure=None):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("expected a counter like {x,y}, got %r" % text)
    names = [part.strip() for part in text[1:-1].split(",") if part.strip()]
    return frozenset(names)


def _parse_instr(text, counters):
    text = text.strip()
    if text.startswith("inc "):
        return Inc(_parse_counter(text[4:]))
    if text.startswith("dec "):
        return Dec(_parse_counter(text[4:]))
    if text.startswith("ifz^cap "):
        y = _parse_counter(text[len("ifz^cap "):])
        return ifz_cap(y, counters)
    if text.startswith("nop"):
        return Transfer(())
    if text.startswith("transf "):
        entries = []
        for part in text[len("transf "):].split(";"):
            part = part.strip()
            if not part:
                continue
            left, sep, right = part.partition("->")
            if not sep:
                raise ParseError("transfer entry %r lacks '->'" % part)
            src = _parse_counter(left)
            right = right.strip()
            if not (right.startswith("[") and right.endswith("]")):
                raise ParseError("transfer image %r must be a [...] list" % right)
            inner = right[1:-1].strip()
            dsts = tuple(_parse_counter(m.group(0)) for m in _COUNTER_RE.finditer(inner))
            if inner and not dsts:
                raise ParseError("bad transfer image %r" % right)
            entries.append((src, dsts))
        return Transfer(tuple(entries))
    raise ParseError("unknown instruction %r" % text)


def parse_machine(text, check_transfers="auto") -> CounterMachine:
    alphabet = None
    basis = None
    counters = None
    states = None
    initial = None
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            alphabet = Alphabet(tuple(line[len("alphabet:"):].split()))
        elif line.startswith("basis:"):
            basis = tuple(line[len("basis:"):].split())
        elif line.startswith("counters:"):
            counters = tuple(_parse_counter(m.group(0))
                             for m in _COUNTER_RE.finditer(line[len("counters:"):]))
        elif line.startswith("states:"):
            states = tuple(line[len("states:"):].split())
        elif line.startswith("initial:"):
            initial = line[len("initial:"):].strip()
        else:
            body.append((lineno, line))
    if None in (alphabet, basis, counters, states, initial):
        raise ParseError("machine file needs alphabet:, basis:, counters:, states: and initial: lines")
    structure = CounterStructure(basis, counters)
    if "eps" in alphabet:
        raise ParseError("letter name 'eps' is reserved")
    transitions = []
    for lineno, line in body:
        src, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest.startswith("-"):
            raise ParseError("line %d: expected '-label, instruction-> dst'" % lineno)
        labeltext, sep, rest2 = rest[1:].partition(",")
        if not sep:
            raise ParseError("line %d: missing ',' after label" % lineno)
        label = EPS if labeltext.strip() == "eps" else labeltext.strip()
        instr_text, sep, dst = rest2.rpartition("->")
        if not sep:
            raise ParseError("line %d: missing '->' before target state" % lineno)
        instr = _parse_instr(instr_text.strip(), structure.counters)
        transitions.append(Transition(src, label, instr, dst.strip()))
    return CounterMachine(alphabet, states, initial, structure, transitions,
                          check_transfers=check_transfers)


def _format_counter(c):
    return "{%s}" % ",".join(sorted(c))


def _format_instr(instr):
    if isinstance(instr, Inc):
        return "inc %s" % _format_counter(instr.counter)
    if isinstance(instr, Dec):
        return "dec %s" % _format_counter(instr.counter)
    if isinstance(instr, Transfer):
        if not instr.entries:
            return "nop"
        parts = []
        for src, dsts in sorted(instr.entries, key=lambda e: sorted(e[0])):
            parts.append("%s->[%s]" % (_format_counter(src),
                                       ",".join(_format_counter(d) for d in dsts)))
        return "transf " + "; ".join(parts)
    raise ValidationError("unknown instruction %r" % (instr,))


def format_machine(m: CounterMachine) -> str:
    lines = [
        "alphabet: " + " ".join(m.alphabet.letters),
        "basis: " + " ".join(m.structure.basis),
        "counters: " + " ".join(_format_counter(c) for c in m.structure.counters),
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
    ]
    for t in m.transitions:
        label = "eps" if t.label is EPS else t.label
        lines.append("%s -%s, %s-> %s" % (t.src, label, _format_instr(t.instr), t.dst))
    return "\n".join(lines) + "\n"
