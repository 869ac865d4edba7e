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

Machines step on sparse valuations (counter index to positive count).
Every transfer, the explicit ones of a CounterMachine and the compiled read
step of pipeline.compile alike, moves tokens through split_tokens, the one
splitting fold: images are (target index, mark bits) pairs, the marks being
zero on explicit transfers.  Only an identity transfer (nop) skips it: its
step copies the valuation.

Valuation, fire, fire_lazy, transfer_witnesses and sqsse are a dense
reference view: a Valuation pairs a counter structure with an int tuple
aligned with the structure's counter order, so firing operations need no
extra context.  Tests and the acceptance criteria check the machines against
this view; exploration never uses it.

Every result kept past one call is an lru_cache on the pure function that
computes it, keyed by counter tuples, texts, instructions and transitions,
never by a machine: parsing and printing a counter, an instruction or a
whole body line (_parse_line, _format_transition), the counter structure
of a file's basis: and counters: headers (_parse_structure), an
instruction's op (_instruction_op), a counter family's cover table and a
transfer map's distributivity verdict.  So the machines of one counter
family, which share their header and most of their lines, parse, check and
print each distinct line and instruction once per process, and share one
structure and, while the caches keep them, the Transition objects of the
lines they have in common.  The caches only save work: equal instructions
or transitions need not be one object.  Every machine is still validated
in full on construction.  Errors are raised afresh on every call.
"""

from dataclasses import dataclass
import functools
from itertools import combinations_with_replacement, product
import math
import random
import re

from .errors import ParseError, ValidationError
from .words import Alphabet, read_names, read_sections

EPS = None  # transition label for letter-free moves


class CounterStructure:
    """A basis and an ordered family of counters (non-empty basis subsets).
    Nothing changes a structure once it is built, so the machines of one
    family share one: family_structure's for compiled machines and
    _parse_structure's for parsed ones."""

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
        """Each counter's image tuple, as image reads it.  Raises
        ValidationError on an entry whose source is not among the counters."""
        f = {c: (c,) for c in counters}
        for src, dsts in reversed(self.entries):  # so the first entry wins
            if src not in f:
                raise ValidationError("instruction uses unknown counter %r" % (sorted(src),))
            f[src] = tuple(dsts)
        return f


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


class CounterMachine:
    """An explicit machine over its transition list.  `lazy` fixes its
    successor relation: whether a decrement of a zero counter may leave the
    valuation unchanged (the lazy error) or does not fire (error-free).  A
    parsed machine is lazy unless its file says `relation: error-free`."""

    def __init__(self, alphabet: Alphabet, states, initial, structure: CounterStructure,
                 transitions, check_transfers="auto", lazy=True):
        if check_transfers not in ("auto", "full", "off"):
            raise ValueError("check_transfers must be 'auto', 'full' or 'off', not %r"
                             % (check_transfers,))
        self.alphabet = alphabet
        self._lazy = lazy
        self.states = tuple(states)
        self.initial = initial
        self.structure = structure
        self.transitions = tuple(transitions)
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValidationError("duplicate state name")
        if initial not in known:
            raise ValidationError("initial state %r not declared" % (initial,))
        # one pass over the transitions builds the op table; the letter-free
        # moves and the transfers it collects are checked after it
        self._ops = ops = {}  # source state -> (label, kind, arg, dst) per transition
        eps = {}  # source state -> the targets of its letter-free transitions
        op_of = {}  # id(instruction) -> its (kind, arg), for each object met
        transfers = {}  # the distinct transfers, equal ones once, in order
        resting = set()
        counters = structure.counters
        for t in self.transitions:
            src, label, instr, dst = t.src, t.label, t.instr, t.dst
            if src not in known or dst not in known:
                raise ValidationError("transition %r -%s-> %r uses unknown state %r" % (
                    src, "eps" if label is EPS else label, dst,
                    src if src not in known else dst))
            if label is EPS:
                eps.setdefault(src, []).append(dst)
            else:
                if label not in alphabet:
                    raise ValidationError("transition on unknown letter %r" % (label,))
                resting.add(src)
            op = op_of.get(id(instr))
            if op is None:
                if not isinstance(instr, (Inc, Dec, Transfer)):
                    raise ValidationError("unknown instruction %r" % (instr,))
                op = op_of[id(instr)] = _instruction_op(instr, counters)
                if isinstance(instr, Transfer):
                    transfers[instr] = None
            ops.setdefault(src, []).append((label, op[0], op[1], dst))
        self._resting = frozenset(resting)
        self._check_eps_acyclic(eps)
        if check_transfers != "off":
            self._check_transfers(check_transfers, transfers)

    @property
    def lazy(self):
        """Whether a decrement of a zero counter may leave the valuation
        unchanged (True) or does not fire (False)."""
        return self._lazy

    def _check_eps_acyclic(self, eps):
        """Raise ValidationError when the letter-free moves, eps mapping a
        state to its targets, form a cycle."""
        color = {}  # 1 while on the search path, 2 once finished
        for root in self.states:
            if root in color or root not in eps:
                continue
            color[root] = 1
            stack = [(root, iter(eps[root]))]
            while stack:
                q, succ = stack[-1]
                for r in succ:
                    if color.get(r) == 1:
                        raise ValidationError("letter-free transition cycle through %r" % (q,))
                    if r not in color:
                        color[r] = 1
                        stack.append((r, iter(eps.get(r, ()))))
                        break
                else:
                    color[q] = 2
                    stack.pop()

    def _check_transfers(self, mode, transfers):
        counters = self.structure.counters
        exhaustive = len(counters) <= 12 or mode == "full"
        for instr in transfers:
            f = instr.as_map(counters)
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

    def initial_config(self):
        """The initial state with every counter empty."""
        return (self.initial, {})

    def bound_counts(self):
        """(state, basis, counter) counts, the inputs of the bound."""
        return (len(self.states), len(self.structure.basis), len(self.structure.counters))

    def is_resting(self, state):
        """True when the state has a lettered transition: a run that has
        consumed a letter sequence can stop only at such a state."""
        return state in self._resting

    def config_successors(self, control, sv, letter=None, vcap=None):
        """One instruction step from a configuration: sv maps counter index
        to a positive count.  Given a letter, only letter-free transitions and
        those reading that letter fire.  On a lazy machine a decrement of a
        zero counter leaves the valuation unchanged.  Returns (successors,
        truncated): successors are (label, state', sv', 1) in transition
        order, and truncated says whether a result was cut by `vcap` or a
        transfer by BRANCH_BUDGET."""
        lazy = self._lazy
        out = []
        truncated = False
        for label, kind, arg, dst in self._ops.get(control, ()):
            if letter is not None and label is not EPS and label != letter:
                continue
            if kind is None:
                if vcap is not None and sv and max(sv.values()) > vcap:
                    truncated = True
                else:
                    out.append((label, dst, dict(sv), 1))
            elif kind is Inc:
                n = sv.get(arg, 0) + 1
                if vcap is not None and n > vcap:
                    truncated = True
                    continue
                sv2 = dict(sv)
                sv2[arg] = n
                out.append((label, dst, sv2, 1))
            elif kind is Dec:
                n = sv.get(arg, 0)
                if n:
                    sv2 = dict(sv)
                    if n == 1:
                        del sv2[arg]
                    else:
                        sv2[arg] = n - 1
                    out.append((label, dst, sv2, 1))
                elif lazy:
                    out.append((label, dst, dict(sv), 1))
            else:
                fired, cut = split_tokens(sv, arg.__getitem__)
                truncated |= cut
                for _, sv2 in fired:
                    if vcap is not None and sv2 and max(sv2.values()) > vcap:
                        truncated = True
                    else:
                        out.append((label, dst, sv2, 1))
        return out, truncated


@functools.lru_cache(maxsize=4096)
def _instruction_op(instr, counters):
    """The op (kind, argument) a step of an Inc, Dec or Transfer over the
    counter tuple fires.  An increment or decrement carries its counter
    index; a transfer carries the images of every counter as split_tokens
    takes them, one tuple of (image index, 0) pairs per counter index.  An
    identity transfer (nop, or one mapping each listed counter to itself)
    has kind None: its step copies the valuation.  Raises ValidationError
    on a counter outside the tuple."""
    pair = {c: (i, 0) for i, c in enumerate(counters)}
    try:
        if isinstance(instr, Transfer):
            identity = tuple([(p,) for p in pair.values()])
            arg = tuple([tuple(map(pair.__getitem__, dsts))
                         for dsts in instr.as_map(counters).values()])
            return (None, None) if arg == identity else (Transfer, arg)
        return (Inc if isinstance(instr, Inc) else Dec, pair[instr.counter][0])
    except KeyError as e:
        raise ValidationError("instruction uses unknown counter %r"
                              % (sorted(e.args[0]),)) from None


class CoverTable:
    """A counter family on basis bitmasks: each basis element of a counter
    gets a bit, and each counter its irredundant covers, index-increasing
    tuples of counter indices whose union contains it and none of which can
    be dropped.  The distributivity condition sees the family only through
    these covers, so one table serves every transfer map over it."""

    def __init__(self, counters):
        self.bits = {}
        for c in counters:
            for e in c:
                self.bits.setdefault(e, 1 << len(self.bits))
        masks = tuple(self.mask(c) for c in counters)
        self.masks = dict(zip(counters, masks))
        self.covers = tuple(_irredundant_covers_of(m, masks) for m in masks)

    def mask(self, elements, extra=None):
        """Bitmask of a set of basis elements.  An element that no counter
        holds takes a bit past the counters' ones, recorded in `extra`, so
        distinct such elements stay apart."""
        m = 0
        for e in elements:
            bit = self.bits.get(e)
            if bit is None:
                bit = extra.setdefault(e, 1 << (len(self.bits) + len(extra)))
            m |= bit
        return m


@functools.lru_cache(maxsize=64)
def cover_table(counters):
    """The shared CoverTable of a counter tuple, built once per process: every
    machine and every check over the same family uses it.  At most 64 tables
    are kept, the least recently used dropped first."""
    return CoverTable(counters)


def _irredundant_covers_of(target, masks):
    """Index-increasing selections of masks whose union contains target and
    where every member keeps a private element of target, so none can be
    dropped.  A member's private part only shrinks as members are added, so
    a selection that loses one is not extended."""
    members = [(j, m & target) for j, m in enumerate(masks) if m & target]
    if len(members) == 1:  # the target alone
        return ((members[0][0],),)
    out = []

    def extend(start, sel, private, covered):
        for k in range(start, len(members)):
            j, m = members[k]
            gain = m & ~covered
            if not gain:
                continue
            for p in private:
                if not p & ~m:
                    break  # m would leave that member nothing of its own
            else:
                if covered | m == target:
                    out.append(sel + (j,))
                else:
                    extend(k + 1, sel + (j,), [p & ~m for p in private] + [gain],
                           covered | m)

    extend(0, (), [], 0)
    return tuple(out)


def check_distributive(f, counters, table=None) -> bool:
    """Exhaustive check of the distributivity condition over all irredundant
    covers (sufficient: a redundant cover's condition follows from any
    irredundant subcover); feasible for families up to a dozen or two
    counters, the cost being driven by the cover count.  `table` is the
    CoverTable of the counters; without it the verdict is the memoised one
    of _covers_distributive, on the shared cover_table."""
    counters = tuple(counters)
    key = []
    for c in counters:
        if c not in f:
            raise ValidationError("transfer map not total: missing %r" % (sorted(c),))
        key.append(tuple(f[c]))
    key = tuple(key)
    if table is None:
        return _covers_distributive(key, counters)
    return _cover_loop(key, table)


@functools.lru_cache(maxsize=4096)
def _covers_distributive(key, counters):
    """check_distributive's verdict on the images of each counter, key, over
    the counter tuple's shared cover_table."""
    return _cover_loop(key, cover_table(counters))


def _cover_loop(key, table):
    """The cover loop of check_distributive on the images of each counter,
    key.  The condition on a cover depends only on the union of the chosen
    images, so the unions are folded cover member by member into a set."""
    known = table.masks
    extra = {}
    images = []
    for dsts in key:
        imgs = set()
        for d in dsts:
            m = known.get(d)
            imgs.add(table.mask(d, extra) if m is None else m)
        images.append(tuple(imgs))
    for i, (imgs, covers) in enumerate(zip(images, table.covers)):
        # unions known to hold an image: each image holds itself, which
        # settles the counter's cover by itself
        fine = set(imgs)
        own = (i,)
        for cover in covers:
            if cover == own:
                continue
            unions = {0}
            for j in cover:
                unions = {u | m for u in unions for m in images[j]}
            for u in unions:
                if u in fine:
                    continue
                if not any(not img & ~u for img in imgs):
                    return False
                fine.add(u)
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
    """All k-tuples of non-negative ints summing to n, in lexicographic
    order: each is cut from 0..n at k - 1 non-decreasing points."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        parts = []
        prev = 0
        for cut in cuts:
            parts.append(cut - prev)
            prev = cut
        parts.append(n - prev)
        yield tuple(parts)


def split_tokens(sv, image_of):
    """Every way to move the tokens of a sparse valuation (counter index to
    positive count) along a transfer: each token of counter ci moves to one
    of image_of(ci), a tuple of (target index, mark bits) pairs.  Returns
    (outcomes, truncated): outcomes are the distinct (marks, post) pairs,
    with marks the union of the mark bits of the images used and post the
    sparse valuation the tokens land in.  Counters with one image add their
    tokens to it; the splits of the others are folded counter by counter in
    index order with duplicates dropped, which keeps the order of the full
    product of compositions.  A counter with tokens and no image leaves no
    outcome, and a product larger than BRANCH_BUDGET is not built and
    reports truncation.  Counters are asked in index order: on compiled
    machines that order meets a blocked class early."""
    marks = 0
    base = {}
    splitting = []
    branches = 1
    for ci in sorted(sv):
        n = sv[ci]
        pairs = image_of(ci)
        if len(pairs) == 1:
            (j, m), = pairs
            marks |= m
            base[j] = base.get(j, 0) + n
        elif not pairs:
            return [], False
        else:
            branches *= math.comb(n + len(pairs) - 1, n)
            splitting.append((n, pairs))
    if branches > BRANCH_BUDGET:
        return [], True
    outcomes = [(marks, base)]
    for n, pairs in splitting:
        shares = {}  # distinct ways to spread this counter, in order
        for parts in compositions(n, len(pairs)):
            m = 0
            share = {}
            for (j, mj), part in zip(pairs, parts):
                if part:
                    m |= mj
                    share[j] = share.get(j, 0) + part
            shares.setdefault((m, tuple(sorted(share.items()))), share)
        folded = {}
        for m0, partial in outcomes:
            for (m1, _), share in shares.items():
                post = dict(partial)
                for j, part in share.items():
                    post[j] = post.get(j, 0) + part
                m = m0 | m1
                folded.setdefault((m, tuple(sorted(post.items()))), (m, post))
        outcomes = list(folded.values())
    return outcomes, False


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


def fire(v: "Valuation", instr):
    """Error-free firing: the set of all possible successor valuations."""
    if isinstance(instr, (Inc, Dec)):
        i = v.structure.index[instr.counter]
        n = v.values[i] + (1 if isinstance(instr, Inc) else -1)
        return {v._with(i, n)} if n >= 0 else set()
    if hasattr(instr, "image"):  # Transfer or any transfer-like map
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
    own counter (equivalently, v dominates some up-set transfer of v_surd)."""
    if v_surd.structure != v.structure:
        raise ValidationError("valuations over different counter structures")
    return _token_embedding(v_surd.structure.counters, v_surd.values, v.values)


def _token_embedding(counters, small, big) -> bool:
    """Place small's tokens one at a time on big's tokens of superset
    counters; when every fitting big token is taken, an augmenting path moves
    earlier placements on to free one.  The embedding exists iff every token
    finds a place."""
    if sum(small) > sum(big):
        return False
    fits = {i: [j for j, m in enumerate(big) if m and counters[i] <= counters[j]]
            for i, n in enumerate(small) if n}
    free = list(big)
    holders = [{} for _ in big]  # big counter -> {small counter: tokens placed}

    def place(i, seen):
        for j in fits[i]:
            if j in seen:
                continue
            seen.add(j)
            if free[j]:
                free[j] -= 1
            else:
                for k in holders[j]:
                    if place(k, seen):
                        break
                else:
                    continue
                holders[j][k] -= 1
                if not holders[j][k]:
                    del holders[j][k]
            holders[j][i] = holders[j].get(i, 0) + 1
            return True
        return False

    return all(place(i, set()) for i, n in enumerate(small) for _ in range(n))


@dataclass(frozen=True)
class BoundParams:
    alphas: tuple
    us: tuple
    m: int


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


_COUNTER_RE = re.compile(r"\{[^{}]*\}")
# the counters: header, {...} groups apart by whitespace, and a transfer
# image, {...} groups apart by commas, or nothing
_COUNTERS_RE = re.compile(r"\s*(?:\{[^{}]*\}\s*)*")
_IMAGE_RE = re.compile(r"\s*(?:\{[^{}]*\}\s*(?:,\s*\{[^{}]*\}\s*)*)?")
_HEADERS = ("alphabet", "basis", "counters", "states", "initial")
_RELATIONS = {"lazy": True, "error-free": False}


@functools.lru_cache(maxsize=4096)
def _parse_counter(text):
    text = text.strip()
    if not _COUNTER_RE.fullmatch(text):
        raise ParseError("expected a counter like {x,y}, got %r" % text)
    return frozenset(part.strip() for part in text[1:-1].split(",") if part.strip())


def _parse_counters(text, pattern, what):
    """The counters of a list that must match pattern; `what` names it in
    the error."""
    if not pattern.fullmatch(text):
        raise ParseError("bad %s %r" % (what, text))
    return tuple(_parse_counter(m.group(0)) for m in _COUNTER_RE.finditer(text))


@functools.lru_cache(maxsize=4096)
def _parse_instr(text, counters):
    """The instruction of a stripped instruction text over the family's
    counter tuple, which an ifz^cap expands over."""
    if text.startswith("inc "):
        return Inc(_parse_counter(text[4:]))
    if text.startswith("dec "):
        return Dec(_parse_counter(text[4:]))
    if text.startswith("ifz^cap "):
        return ifz_cap(_parse_counter(text[len("ifz^cap "):]), counters)
    if text == "nop":
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
            right = right.strip()
            if not (right.startswith("[") and right.endswith("]")):
                raise ParseError("transfer image %r must be a [...] list" % right)
            entries.append((_parse_counter(left),
                            _parse_counters(right[1:-1], _IMAGE_RE, "transfer image")))
        return Transfer(tuple(entries))
    raise ParseError("unknown instruction %r" % text)


@functools.lru_cache(maxsize=64)
def _parse_structure(basis_text, counters_text):
    """The CounterStructure of a file's basis: and counters: header values;
    files whose headers read alike share it, and its counter tuple."""
    basis = read_names(basis_text, "basis")
    return CounterStructure(basis, _parse_counters(counters_text, _COUNTERS_RE,
                                                   "counters: header"))


@functools.lru_cache(maxsize=4096)
def _parse_line(line, counters):
    """The Transition of a stripped body line over the family's counter
    tuple.  Its ParseError carries no line number; parse_machine adds it."""
    src, _, rest = line.partition(" ")
    rest = rest.strip()
    if not rest.startswith("-"):
        raise ParseError("expected '-label, instruction-> dst'")
    labeltext, sep, rest = rest[1:].partition(",")
    if not sep:
        raise ParseError("missing ',' after label")
    label = labeltext.strip()
    instr_text, sep, dst = rest.rpartition("->")
    if not sep:
        raise ParseError("missing '->' before target state")
    dst = dst.strip()
    if not dst:
        raise ParseError("missing target state")
    return Transition(src, EPS if label == "eps" else label,
                      _parse_instr(instr_text.strip(), counters), dst)


def parse_machine(text, check_transfers="auto") -> CounterMachine:
    """Read a machine file.  The header and each distinct body line of a
    counter family are parsed once per process (_parse_structure,
    _parse_line), so machines of one family share their structure and the
    Transitions of their common lines."""
    headers, body = read_sections(text, _HEADERS, ("relation",))
    lazy = _RELATIONS.get(headers.get("relation", "lazy"))
    if lazy is None:
        raise ParseError("relation must be lazy or error-free, not %r" % headers["relation"])
    alphabet = Alphabet(tuple(headers["alphabet"].split()))
    structure = _parse_structure(headers["basis"], headers["counters"])
    states = read_names(headers["states"], "state")
    initial = read_names(headers["initial"], "state")
    if len(initial) != 1:
        raise ParseError("expected one initial state")
    if "eps" in alphabet:
        raise ParseError("letter name 'eps' is reserved")
    counters = structure.counters
    transitions = []
    for lineno, line in body:
        try:
            transitions.append(_parse_line(line, counters))
        except ParseError as err:
            raise ParseError("line %d: %s" % (lineno, err)) from None
    return CounterMachine(alphabet, states, initial[0], structure, transitions,
                          check_transfers=check_transfers, lazy=lazy)


@functools.lru_cache(maxsize=4096)
def _format_counter(c):
    return "{%s}" % ",".join(sorted(c))


@functools.lru_cache(maxsize=4096)
def _format_instr(instr):
    if isinstance(instr, Inc):
        return "inc " + _format_counter(instr.counter)
    if isinstance(instr, Dec):
        return "dec " + _format_counter(instr.counter)
    if isinstance(instr, Transfer):
        if not instr.entries:
            return "nop"
        parts = []
        for src, dsts in sorted(instr.entries, key=lambda e: sorted(e[0])):
            parts.append("%s->[%s]" % (_format_counter(src),
                                       ",".join(map(_format_counter, dsts))))
        return "transf " + "; ".join(parts)
    raise ValidationError("unknown instruction %r" % (instr,))


@functools.lru_cache(maxsize=4096)
def _format_transition(t):
    label = "eps" if t.label is EPS else t.label
    return "%s -%s, %s-> %s" % (t.src, label, _format_instr(t.instr), t.dst)


def format_machine(m: CounterMachine) -> str:
    """The machine file text.  An error-free machine says so in a
    `relation:` line; a lazy one, the default, prints none.
    _format_transition prints each distinct transition, and _format_instr
    each distinct instruction, once per process."""
    lines = [
        "alphabet: " + " ".join(m.alphabet.letters),
        "basis: " + " ".join(m.structure.basis),
        "counters: " + " ".join(map(_format_counter, m.structure.counters)),
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
    ]
    if not m.lazy:
        lines.append("relation: error-free")
    lines += map(_format_transition, m.transitions)
    return "\n".join(lines) + "\n"
