"""Counter machines over a finite basis: counters are non-empty subsets of the
basis, instructions are increments, decrements and nondeterministic transfers.

A transfer names, for every counter, the set of counters its tokens may move
to; it is firable iff every counter with an empty image holds zero.  Every
transfer map must be distributive (distributive.py).

Incrementing errors: a run may spontaneously gain tokens but never lose them.
The lazy restriction allows only one kind of error, decrementing a zero
counter and leaving the valuation unchanged.

Machines step on sparse valuations in one canonical form, hashable as it
is: a tuple of (counter index, positive count) pairs in increasing index
order.  add_tokens edits the count of one counter.  Every transfer, the
explicit ones of a CounterMachine and the compiled read step of
pipeline.compile alike, moves tokens through split_tokens, the one
splitting fold: images are (target index, mark bits) pairs, the marks being
zero on explicit transfers.  Only an identity transfer (nop) skips it: its
step returns the valuation it was given."""

from bisect import bisect_left
from collections import defaultdict, namedtuple
import functools
from itertools import combinations_with_replacement
import math

from ..errors import ValidationError
from ..memo import Memo
from ..tree import Node, node
from ..words import Alphabet
from .distributive import _check_transfers

EPS = None  # transition label for letter-free moves


class CounterStructure:
    """A basis and an ordered family of counters (non-empty basis subsets).
    Nothing changes a structure's basis and counters once it is built, so
    the machines of one family share one: family_structure's for compiled
    machines and _parse_structure's for parsed ones.  A structure owns what
    is derived from its family: each counter's printed text (`printed`),
    and its family memos, each a Memo (regsafe.memo), bounded by
    memo.BOUND as it reads each time the memo keeps.  Those keyed by text
    hold the Transition of each body line (`parsed`) and the instruction of
    each instruction text (`instrs`); those keyed by object identity hold
    their key object, the op of each instruction (op), the printed text of
    each body line (`lines`, format_machine's) and the distributivity
    verdict of each transfer, exhaustive or sampled (`verdicts`)."""

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
        self._hash = hash((self.basis, self.counters))
        self.printed = {c: "{%s}" % ",".join(sorted(c)) for c in self.counters}
        self.parsed = Memo()  # body line text -> its transition
        self.instrs = Memo()  # instruction text -> its instruction
        self.ops = Memo()  # id(instruction) -> (instruction, kind, arg)
        self.lines = Memo()  # id(transition) -> (transition, its body line)
        self.verdicts = Memo()  # (id(transfer), exhaustive) -> (transfer, verdict)

    @functools.cached_property
    def index(self):
        """A dict from each counter to its position, built on first use."""
        return {c: i for i, c in enumerate(self.counters)}

    def op(self, instr):
        """The family memo's entry for an instruction object: (instr, kind,
        arg), the op a step of it fires over the counters.  An increment or
        decrement carries its counter index; a transfer carries the images
        of every counter as split_tokens takes them, one tuple of (image
        index, 0) pairs per counter index.  An identity transfer (nop, or
        one mapping each listed counter to itself) has kind None: its step
        returns the valuation as it is.  The entry is kept per object and
        holds it, so its id names no other object while kept; an equal copy
        gets its own entry, and no lookup compares instructions.  Raises
        ValidationError, keeping nothing, on anything but an Inc, Dec or
        Transfer and on a counter outside the family."""
        found = self.ops.get(id(instr))
        if found is not None:
            return found
        if not isinstance(instr, (Inc, Dec, Transfer)):
            raise ValidationError("unknown instruction %r" % (instr,))
        index = self.index
        try:
            if isinstance(instr, Transfer):
                arg = tuple([tuple([(index[d], 0) for d in dsts])
                             for dsts in instr.as_map(self.counters).values()])
                identity = all(img == ((i, 0),) for i, img in enumerate(arg))
                found = (instr, None, None) if identity else (instr, Transfer, arg)
            else:
                found = (instr, Inc if isinstance(instr, Inc) else Dec, index[instr.counter])
        except KeyError as e:
            raise ValidationError("instruction uses unknown counter %r"
                                  % (sorted(e.args[0]),)) from None
        return self.ops.keep(id(instr), found)

    def __eq__(self, other):
        return (isinstance(other, CounterStructure)
                and self.basis == other.basis and self.counters == other.counters)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt with empty memos: a copied memo would keep ids of objects
        # the copy does not hold
        return CounterStructure, (self.basis, self.counters)


@node
class Instruction(Node):
    """The base of the instructions, each a tree leaf that hashes once when
    it is made; Instruction() itself is a fieldless node no machine runs."""


@node
class Inc(Instruction):
    counter: frozenset


@node
class Dec(Instruction):
    counter: frozenset


@node
class Transfer(Instruction):
    """entries: tuple of (source counter, tuple of image counters); counters
    not listed map to themselves."""

    entries: tuple

    def as_map(self, counters):
        """Each counter's image tuple: its first entry's, or itself alone when
        it has none.  Raises ValidationError on an entry whose source is not
        among the counters."""
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


# label is a letter name or EPS; instr is an Instruction
Transition = namedtuple("Transition", ("src", "label", "instr", "dst"))


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
        if "eps" in alphabet:  # the machine file's label of letter-free moves
            raise ValidationError("letter name 'eps' is reserved")
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
        # one pass over the transitions builds the op table, each op read
        # from the family memo; the letter-free moves and the transfers it
        # collects are checked after it
        self._ops = ops = defaultdict(list)  # source state -> (label, kind, arg, dst)s
        eps = defaultdict(list)  # source state -> the targets of its letter-free moves
        transfers = {}  # id -> each distinct transfer object, in order
        resting = set()
        op_of = structure.ops.get
        for src, label, instr, dst in self.transitions:
            if src not in known or dst not in known:
                raise ValidationError("transition %r -%s-> %r uses unknown state %r" % (
                    src, "eps" if label is EPS else label, dst,
                    src if src not in known else dst))
            if label is EPS:
                eps[src].append(dst)
            elif label in alphabet:
                resting.add(src)
            else:
                raise ValidationError("transition on unknown letter %r" % (label,))
            key = id(instr)
            _, kind, arg = op_of(key) or structure.op(instr)
            if kind is not Inc and kind is not Dec:
                transfers[key] = instr
            ops[src].append((label, kind, arg, dst))
        self._resting = frozenset(resting)
        self._check_eps_acyclic(eps)
        if check_transfers != "off":
            _check_transfers(transfers.values(), structure, check_transfers)

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

    @property
    def counters(self):
        return self.structure.counters

    def initial_config(self):
        """The initial state with every counter empty."""
        return (self.initial, ())

    def bound_counts(self):
        """(state, basis, counter) counts, the inputs of the bound."""
        return (len(self.states), len(self.structure.basis), len(self.structure.counters))

    def is_resting(self, state):
        """True when the state has a lettered transition: a run that has
        consumed a letter sequence can stop only at such a state."""
        return state in self._resting

    def config_successors(self, control, sv, letter, vcap):
        """One instruction step from a configuration, sv being a valuation in
        the canonical form (sorted (counter index, positive count) pairs).
        Given a letter, only letter-free transitions and those reading that
        letter fire.  On a lazy machine a decrement of a zero counter leaves
        the valuation unchanged: that step, and a nop's, gives sv itself.
        Returns (successors, truncated): successors are (label, state', sv',
        1) in transition order, sv' in the same form, and truncated says
        whether a result was cut by `vcap` or a transfer by BRANCH_BUDGET."""
        lazy = self._lazy
        counts = None  # the counts of sv, looked up by increments and decrements
        out = []
        truncated = False
        for label, kind, arg, dst in self._ops.get(control, ()):
            if letter is not None and label is not EPS and label != letter:
                continue
            if kind is None:
                if sv and max(n for _, n in sv) > vcap:
                    truncated = True
                else:
                    out.append((label, dst, sv, 1))
            elif kind is not Transfer:  # an increment or decrement of counter arg
                if counts is None:
                    counts = dict(sv)
                n = counts.get(arg, 0)
                if kind is Inc and n >= vcap:
                    truncated = True
                elif kind is Inc or n:  # fires: within vcap, or on a held counter
                    out.append((label, dst, add_tokens(sv, arg, 1 if kind is Inc else -1), 1))
                elif lazy:
                    out.append((label, dst, sv, 1))
            else:
                fired, cut = split_tokens(sv, arg.__getitem__)
                truncated |= cut
                for _, sv2 in fired:
                    if sv2 and max(n for _, n in sv2) > vcap:
                        truncated = True
                    else:
                        out.append((label, dst, sv2, 1))
        return out, truncated


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


def add_tokens(sv, ci, k):
    """A new valuation in the canonical form: sv with k tokens added to
    counter ci, or removed when k is negative, which ci must then hold."""
    i = j = bisect_left(sv, (ci,))
    if i < len(sv) and sv[i][0] == ci:
        k += sv[i][1]
        j += 1
    return sv[:i] + ((ci, k),) + sv[j:] if k else sv[:i] + sv[j:]


def split_tokens(sv, image_of):
    """Every way to move the tokens of a valuation along a transfer: each
    token of counter ci moves to one of image_of(ci), a tuple of (target
    index, mark bits) pairs.  Returns (outcomes, truncated): outcomes are the
    distinct (marks, post) pairs, with marks the union of the mark bits of
    the images used and post the valuation the tokens land in, in the
    canonical form as sv is.  Counters with one image add their
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
    for ci, n in sv:
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
    outcomes = [(marks, tuple(sorted(base.items())))]
    for n, pairs in splitting:
        shares = {}  # distinct (marks, share) ways to spread this counter, in order
        for parts in compositions(n, len(pairs)):
            m = 0
            share = {}
            for (j, mj), part in zip(pairs, parts):
                if part:
                    m |= mj
                    share[j] = share.get(j, 0) + part
            shares[m, tuple(sorted(share.items()))] = None
        folded = {}  # the outcomes themselves, each once, in order
        for m0, partial in outcomes:
            for m1, share in shares:
                post = dict(partial)
                for j, part in share:
                    post[j] = post.get(j, 0) + part
                folded[m0 | m1, tuple(sorted(post.items()))] = None
        outcomes = list(folded)
    return outcomes, False
