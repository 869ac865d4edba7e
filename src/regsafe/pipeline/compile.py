"""Compile a safety alternating register automaton into a counter machine
over the counting abstraction.

Basis: one element per state for classes away from the register ("^b"), one
per state for the in-flight generation ("^bb"), one per state marking threads
that just refroze to the current class ("^bbd"), plus one anchor per family
("^b" / "^bb" alone).  Counters: for every state set R a counter tracking
classes whose thread set is exactly R, and for every pair (kept, refrozen) an
in-flight counter.  A machine configuration holds the current class's states
in control and one token per other class in the counter matching its set.

Per letter the machine runs one cycle:
  read   -- letter a: one transfer moves every class token to an in-flight
            pair counter, choosing, per token, minimal models for each of its
            threads (away classes read the letter with the register mismatch
            flag); a class with a model-less thread blocks the transfer.
  models -- branch on a choice of minimal models for the current class's own
            threads (register match flag); their kept and refrozen states
            both stay with the current class.
  merge  -- for each state q in a fixed order, either certify that no class
            refroze a thread onto q (all marked counters zero) or certify a
            witness (decrement then re-increment one) and add q to the
            accumulated current set.
  shift  -- deposit the old current class as an ordinary class token, then
            one transfer drops the in-flight marks (pair counters map to the
            counter of their kept set).
  pick   -- choose the next current class: take a token from any counter
            (its set becomes the control set) or start on a fresh class.

When co_states is given, an extra branch between shift and pick certifies
that no class anywhere holds a co-state and visits a checkpoint control
state; reachability of a checkpoint with an infinite continuation decides
language inclusion.

The minimal models of each state's transition formulas are folded straight
to (kept mask, refrozen mask) pairs, a state's bit being 1 << its index
(posbool.minimal_models with the machine's bit map), into one list per
(letter, flag) with an entry per state, filled on first use.  read_images
and here_sets join them per thread set, fetching that list once and walking
only the set bits of the mask: the threads with one model add the same pair
to every union, so they are ORed into one pair, only the threads with
several models multiply, and a thread with none empties the result.  Each
state's row says where its formulas come from (Row): a transition table,
the state's name in it and the bit map of that table's names, and whether
the row is dualized.  A machine folds each distinct formula once per dual
flag, however many (state, letter, flag) entries hold it: the fold memo is
keyed by (formula, dual), which is sound because the rows with one dual
flag share one bit map (see Row).  read_images and here_sets compute
afresh; the step keeps their results per letter in int-keyed tables
(thread-set mask -> result), which config_successors alone fills and reads
inline.  The fold memo, the model lists and these two tables are not
bounded: their keys are the machine's own formulas, letters and reached
thread-set masks, at most 2^n per letter.

The inclusion product of a1 with the dual of a2 is compiled straight from
the two automata (product_machine), with no dual or product formula built,
where the reference route, reference.ara.inclusion_product, dualizes a2's
formulas (reference.ara.dual) and then intersects.  Its states are those
of that reference: a fresh initial state, a1's states, then a2's renamed
apart (automaton.combined_names), a2's being the co-states.  a1's rows fold from
a1's table under the machine's bits; a2's rows fold from a2's table as
their duals (minimal_models with dual), under a bit map from a2's own names
to the bits of their renamings, an absent a2 entry being Bot, whose dual
has the one model (0, 0).  The fresh initial state's row conjoins the two
initial states' rows (posbool.conjoin_models), so it is the product's And
of the two.

materialize() spells the cycle out as an explicit instruction list for small
automata, a CounterMachine built error-free.  The counter structure and the
part of the cycle no transition of the automaton changes are built once per
state-name tuple (and co-states) and shared by the machines that use them
(family_structure, letter_free_cycle).  Exploration instead uses
config_successors, which takes the whole cycle as one step under the
error-free relation too (it never fabricates tokens).  Only the read split,
the here-set and the pick are choices; the merge is the here-set joined with
the refrozen marks of the in-flight counters, and the shift maps each
in-flight counter to the away counter of its kept set.  The read and the
shift therefore fire as one transfer from away counters to away counters
whose images carry the refrozen marks, through the splitting fold explicit
transfers use too (ipcant.split_tokens); the in-flight counters appear only
in materialize().  So every control is a resting one, (mask,
via_checkpoint), where the flag records that the step into it passed the
checkpoint, which it does whenever the certificate holds.  Valuations are
in the one canonical form of ipcant (sorted (away-counter index, positive
count) pairs): the deposit is added with ipcant.add_tokens, and each pick
slices one token off the result.  Each step reports the instructions it stands
for (n + 5, one more with co-states, one more through the checkpoint), so
exploration bounds keep their instruction unit.  A step given a letter
(prefix_reachable's) is memoized per machine by (control, valuation, letter,
vcap) in a Memo (regsafe.memo); the every-letter step of the other searches
is not.
"""

from collections import defaultdict, namedtuple
from functools import lru_cache

from ..ara import posbool as pb
from ..ara.automaton import AlternatingAutomaton, combined_names
from ..errors import ValidationError
from ..ipcant import (
    CounterMachine, CounterStructure, Dec, Inc, Transfer, Transition, EPS, add_tokens,
    ifz_cap, split_tokens,
)
from ..memo import Memo

ANCHOR_AWAY = "^b"
ANCHOR_FLIGHT = "^bb"


def _away_name(q):
    return q + "^b"


def _kept_name(q):
    return q + "^bb"


def _mark_name(q):
    return q + "^bbd"


# counter indexing: an away counter's index is its mask, an in-flight
# counter's this
def _flight_index(n, kept, marked):
    return (1 << n) + (kept << n | marked)


# Where a state's row of minimal models comes from: the formula
# delta.get((name, letter, flag), Bot) of a transition table, folded under
# `bit`, the map from the table's state names to the machine's bits (None:
# the machine's own), and dualized when `dual` is set.  The rows of one
# machine with one dual flag share one bit map: the machine's own for plain
# rows, product_machine's map of a2's names for dual ones.  The machine's
# fold memo is keyed by (formula, dual) and relies on it.
Row = namedtuple("Row", "delta name bit dual")

_BOT = pb.Bot()


class CompiledMachine:
    """Counter machine compiled from an automaton; transitions are generated
    on demand.  Counters are indexed by bitmask: away counters first (one per
    state set), then in-flight pair counters (kept mask, refrozen mask).

    `states` gives the bit order (state i is 1 << i).  Each entry of `rows`
    is the Row of the state at that index, or a pair of state indices for a
    state whose rows are the And of theirs."""

    def __init__(self, alphabet, states, initial, rows, co_states=None):
        self.alphabet = alphabet
        self.states_order = tuple(states)
        self.n = len(self.states_order)
        self._bit = {q: 1 << i for i, q in enumerate(self.states_order)}
        self._rows = tuple(rows)
        self.co_states = tuple(co_states) if co_states else ()
        self.co_mask = 0
        for q in self.co_states:
            if q not in self._bit:
                raise ValidationError("co-state %r is not a state" % (q,))
            self.co_mask |= self._bit[q]
        self.initial_control = (self._bit[initial], False)
        # instructions of one letter cycle: read, models, n merges, the
        # current class's deposit, shift, [next,] pick; the checkpoint adds one
        self._cycle_steps = self.n + 5 + (1 if self.co_states else 0)
        self._folds = {}  # (formula, dual) -> its minimal models under the rows' bit map
        n = self.n
        self._mm = defaultdict(lambda: [None] * n)  # (letter, flag) -> models by state index
        self._reads = defaultdict(dict)  # letter -> {thread-set mask: read_images}
        self._heres = defaultdict(dict)  # letter -> {thread-set mask: here_sets}
        self._lettered = Memo()  # (control, sv, letter, vcap) -> lettered step

    @property
    def structure(self):
        """The counter family's structure, shared by every machine over the
        same state names (family_structure).  The on-demand transition
        relation never needs it."""
        return family_structure(self.states_order)

    def bound_counts(self):
        """(control state, basis, counter) counts without enumerating
        anything; the control count matches materialize() where that exists."""
        n = self.n
        letters = len(self.alphabet.letters)
        states = (1 << n) * (letters + n + 2) + n * (1 << (3 * n - 1)) + 2
        if self.co_states:
            states += 2
        return (states, 3 * n + 2, (1 << n) + (1 << (2 * n)))

    # minimal models as (kept mask, refrozen mask) pairs, folded straight
    # to masks from the state's row, each distinct formula once per dual
    # flag (see Row), into the (letter, flag) list of an entry per state
    def _models(self, qi, letter, flag):
        entries = self._mm[letter, flag]
        models = entries[qi]
        if models is None:
            row = self._rows[qi]
            if type(row) is Row:
                phi = row.delta.get((row.name, letter, flag), _BOT)
                fold = (phi, row.dual)
                models = self._folds.get(fold)
                if models is None:
                    models = self._folds[fold] = pb.minimal_models(
                        phi, row.bit or self._bit, row.dual)
            else:
                i, j = row
                models = pb.conjoin_models(self._models(i, letter, flag),
                                           self._models(j, letter, flag))
            entries[qi] = models
        return models

    def _model_unions(self, letter, mask, flag):
        """The (kept mask, refrozen mask) unions of one minimal model per
        thread of `mask` on the letter under the register flag; empty when
        some thread has no model (see the module docstring)."""
        entries = self._mm[letter, flag]
        kept = refrozen = 0
        multi = []
        while mask:  # the set bits, lowest first
            low = mask & -mask
            mask ^= low
            qi = low.bit_length() - 1
            models = entries[qi] or self._models(qi, letter, flag)
            if len(models) == 1:
                (k, m), = models
                kept |= k
                refrozen |= m
            elif models:
                multi.append(models)
            else:
                return set()
        pairs = {(kept, refrozen)}
        for models in multi:
            pairs = {(k | pk, m | pm) for k, m in pairs for pk, pm in models}
        return pairs

    def read_images(self, letter, mask):
        """The in-flight counters a class token with thread set `mask` may
        move to when the letter is read away from the register, as sorted
        (kept mask, refrozen mask) pairs; () when some thread has no model.
        Since the shift sends each in-flight counter to the away counter of
        its kept set, the pairs are also the (target index, mark bits) images
        of the whole read-and-shift, as split_tokens takes them.  Computed
        afresh on each call; config_successors keeps the results."""
        return tuple(sorted(self._model_unions(letter, mask, "nup")))

    def here_sets(self, letter, mask):
        """Distinct new current-class state sets reachable by the current
        class's own threads on the letter (register match).  Computed afresh
        on each call; config_successors keeps the results."""
        return tuple(sorted({k | m for k, m in self._model_unions(letter, mask, "up")}))

    def initial_config(self):
        """The initial state's class as the current class, no other class."""
        return (self.initial_control, ())

    def is_checkpoint(self, control):
        """True when the step into this control passed the checkpoint."""
        return control[1]

    def is_resting(self, control):
        """True at the top of the per-letter cycle, which is every control
        the macro step produces."""
        return True

    def config_successors(self, control, sv, letter, vcap):
        """One macro step from a resting configuration: every way to process
        the next data-word position on `letter` (every letter when None)
        under the error-free relation.  sv is a valuation of the away
        counters in the canonical form.  Returns (successors, truncated):
        successors are (letter, control', sv', steps) with `steps` the number
        of instructions of the cycle the step stands for, one per distinct
        (letter, read split, here-set, pick); truncated says whether a
        successor was cut by `vcap` (checked on the post-shift valuation,
        the largest one of the cycle) or a read split by BRANCH_BUDGET.  The
        read and the shift are one transfer through split_tokens on the
        read_images pairs: each outcome is the refrozen marks and the
        post-shift away valuation, to which the current class's deposit is
        added.  A letter some token cannot read is skipped before any split.

        A lettered step is a pure function of (control, sv, letter, vcap)
        and the machine's rows, and is memoized per machine in a Memo.  The
        step fills the read_images and here_sets tables (see the module
        docstring).  A memoized answer is the very pair returned before, its
        list shared; callers must not mutate it.  The unlettered step is not
        memoized."""
        if letter is None:
            letters = self.alphabet
        else:
            key = (control, sv, letter, vcap)
            found = self._lettered.get(key)
            if found is not None:
                return found
            letters = (letter,)
        mask = control[0]
        heres_of, reads_of = self._heres, self._reads
        out = []
        truncated = False
        for a in letters:
            heres = heres_of[a]
            here = heres.get(mask)
            if here is None:
                here = heres[mask] = self.here_sets(a, mask)
            if not here:
                continue
            reads = reads_of[a]
            for ci, _ in sv:
                images = reads.get(ci)
                if images is None:
                    images = reads[ci] = self.read_images(a, ci)
                if not images:
                    break  # a class with a model-less thread blocks the letter
            else:
                splits, cut = split_tokens(sv, reads.__getitem__)
                truncated |= cut
                seen = set()
                for marks, post in splits:
                    for s in here:
                        sv2 = add_tokens(post, s | marks, 1)
                        if sv2 in seen:
                            continue
                        seen.add(sv2)
                        if max(n for _, n in sv2) > vcap:
                            truncated = True
                            continue
                        checkpoint = bool(self.co_states) and not any(
                            ci & self.co_mask for ci, _ in sv2)
                        steps = self._cycle_steps + checkpoint
                        out.append((a, (0, checkpoint), sv2, steps))  # fresh class
                        for i, (ci, n) in enumerate(sv2):  # pick: one token of ci off
                            rest = sv2[i + 1:]
                            sv3 = sv2[:i] + ((ci, n - 1),) + rest if n > 1 else sv2[:i] + rest
                            out.append((a, (ci, checkpoint), sv3, steps))
        if letter is None:
            return out, truncated
        return self._lettered.keep(key, (out, truncated))

    # explicit machine for small automata
    def materialize(self) -> CounterMachine:
        """The letter cycle spelled out as an explicit instruction list.
        Each control is named once and each distinct instruction built once
        and shared by the transitions that use it: one ifz^cap per merged
        state, one decrement and increment per in-flight counter, and per
        letter one read transfer, which every machine of the family whose
        reads of that letter are alike shares.  Only the read transfers and
        the read and models_* edges depend on the automaton's transitions.
        The rest of the cycle, from the merges to the pick, depends on the
        state names and co-states alone and comes from letter_free_cycle,
        shared by every machine of the family together with its nop, which
        the models_* edges use too.  The read transfers and edges come from
        that cycle's memos: a letter's read transfer is kept under the read
        images of every mask, which spell its entries, and an edge under
        itself, so equal ones are one object in every machine of the
        family."""
        if self.n > 3:
            raise ValidationError("explicit compilation is for small automata")
        full = range(1 << self.n)
        counters = self.structure.counters
        cycle = letter_free_cycle(self.states_order, self.co_states)
        reads = []
        for letter in self.alphabet:
            images = tuple([self.read_images(letter, mask) for mask in full])
            read = cycle.reads.get(images)
            if read is None:
                read = cycle.reads.keep(images, Transfer(tuple(
                    (counters[mask], tuple(counters[_flight_index(self.n, kept, marked)]
                                           for kept, marked in pairs))
                    for mask, pairs in zip(full, images))))
            reads.append(read)
        shared = cycle.edges
        edges = []
        states = list(cycle.states)
        for mask in full:
            for li, letter in enumerate(self.alphabet):
                models = "models_%d_%d" % (mask, li)
                states.append(models)
                made = [Transition(cycle.read[mask], letter, reads[li], models)]
                made += [Transition(models, EPS, cycle.nop, cycle.merge[s])
                         for s in self.here_sets(letter, mask)]
                edges += [shared.get(t) or shared.keep(t, t) for t in made]
        edges += cycle.transitions
        states.sort()
        return CounterMachine(self.alphabet, states, cycle.read[self.initial_control[0]],
                              self.structure, edges, check_transfers="off", lazy=False)


@lru_cache
def family_structure(names):
    """The CounterStructure of the machines compiled over the state-name
    tuple: the basis and counters of the module docstring, an away counter
    at its mask and an in-flight one at _flight_index.  Built once per
    process."""
    n = len(names)
    basis = [ANCHOR_AWAY] + [_away_name(q) for q in names]
    basis += [ANCHOR_FLIGHT] + [_kept_name(q) for q in names] + [_mark_name(q) for q in names]
    counters = []
    for mask in range(1 << n):
        counters.append(frozenset([ANCHOR_AWAY] +
                                  [_away_name(names[i]) for i in range(n) if mask >> i & 1]))
    for kept in range(1 << n):
        for marked in range(1 << n):
            c = [ANCHOR_FLIGHT]
            c += [_kept_name(names[i]) for i in range(n) if kept >> i & 1]
            c += [_mark_name(names[i]) for i in range(n) if marked >> i & 1]
            counters.append(frozenset(c))
    return CounterStructure(basis, counters)


# The part of materialize()'s letter cycle that no transition of the
# automaton changes: `transitions` from the merges to the pick, in the order
# they are listed, and the states they use; `read` and `merge` name each
# mask's read control and first merge control; `nop` is the identity
# transfer they share.  `reads` and `edges` are the family memos of
# materialize(), a Memo each: the read transfers by their read images, and
# the read and models_* edges by themselves
LetterFreeCycle = namedtuple("LetterFreeCycle", "nop transitions states read merge reads edges")


@lru_cache
def letter_free_cycle(names, co_states):
    """The LetterFreeCycle of the machines compiled over the state-name tuple
    with the given co-states, each distinct instruction built once: one
    ifz^cap per merged state, one decrement and increment per in-flight
    counter, each witness through its hold_* state.  Built once per
    process."""
    n = len(names)
    full = range(1 << n)
    counters = family_structure(names).counters
    away = counters[:1 << n]
    transitions = []
    states = set()

    def add(src, instr, dst):
        states.add(src)
        states.add(dst)
        transitions.append(Transition(src, EPS, instr, dst))

    read = tuple("read_%d" % mask for mask in full)
    merge = [["merge_%d_%d" % (s, k) for k in range(n + 1)] for s in full]
    nop = Transfer(())
    # per merged state k: its ifz^cap and the in-flight counters whose
    # refrozen mask holds it, each with its decrement and increment
    witness = {}
    merges = []
    for k in range(n):
        marked_k = []
        for kept in full:
            for marked in full:
                if marked >> k & 1:
                    ci = _flight_index(n, kept, marked)
                    if ci not in witness:
                        witness[ci] = (ci, Dec(counters[ci]), Inc(counters[ci]))
                    marked_k.append(witness[ci])
        merges.append((ifz_cap({_mark_name(names[k])}, counters), marked_k))
    for s in full:
        for k, (ifz, witnesses) in enumerate(merges):
            add(merge[s][k], ifz, merge[s][k + 1])
            for ci, dec, inc in witnesses:
                hold = "hold_%d_%d_%d" % (s, k, ci)
                add(merge[s][k], dec, hold)
                add(hold, inc, merge[s | 1 << k][k + 1])
        add(merge[s][n], Inc(away[s]), "shift")
    shift = Transfer(tuple((counters[_flight_index(n, kept, marked)], (away[kept],))
                           for kept in full for marked in full))
    add("shift", shift, "next" if co_states else "pick")
    if co_states:
        add("next", nop, "pick")
        add("next", ifz_cap({_away_name(q) for q in co_states}, counters), "checkpoint")
        add("checkpoint", nop, "pick")
    for mask in full:
        add("pick", Dec(away[mask]), read[mask])
    add("pick", nop, read[0])
    return LetterFreeCycle(nop, tuple(transitions), tuple(states), read,
                           tuple(m[0] for m in merge), Memo(), Memo())


def ara_to_ipcant(aut: AlternatingAutomaton, co_states=None) -> CompiledMachine:
    """The machine of one automaton, its states in the automaton's order."""
    rows = [Row(aut.delta, q, None, False) for q in aut.states]
    return CompiledMachine(aut.alphabet, aut.states, aut.initial, rows, co_states)


def product_machine(a1: AlternatingAutomaton, a2: AlternatingAutomaton) -> CompiledMachine:
    """The machine of a1 conjoined with the dual of a2, with a2's states as
    co-states: ara_to_ipcant(*reference.ara.inclusion_product(a1, a2)),
    compiled from a1's and a2's own tables (see the module docstring).  Raises
    ValidationError unless the two share an alphabet."""
    init, r2 = combined_names(a1, a2)
    co_states = tuple(r2[q] for q in a2.states)
    states = (init,) + a1.states + co_states
    offset = 1 + len(a1.states)
    bit2 = {q: 1 << (offset + i) for i, q in enumerate(a2.states)}
    rows = [(1 + a1.states.index(a1.initial), offset + a2.states.index(a2.initial))]
    rows += [Row(a1.delta, q, None, False) for q in a1.states]
    rows += [Row(a2.delta, q, bit2, True) for q in a2.states]
    return CompiledMachine(a1.alphabet, states, init, rows, co_states)
