from functools import partial
import gc
from itertools import product
from math import comb
import random
import weakref

import pytest

from regsafe import ipcant, memo, randgen, tree
from regsafe.errors import ValidationError
from regsafe.words import Alphabet, parse_word
from regsafe.ara import ltl_to_ara, parse_automaton, run_exists
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.ipcant import (BRANCH_BUDGET, EPS, Transfer, check_distributive, compositions,
                            format_machine, parse_machine, split_tokens)
from regsafe.ltl import parse_formula
from regsafe.pipeline import (ara_to_ipcant, bounded_nonemptiness, compile as compile_module,
                              encode_tm_run, explore, inclusion_check, parse_tm,
                              prefix_reachable, product_machine, tm_alphabet, tm_to_formula)
from regsafe.pipeline.compile import _flight_index, family_structure, letter_free_cycle
from regsafe.reference.ara import inclusion_product, models_at
from regsafe.reference.ipcant import Valuation, fire

AB = Alphabet(("a", "b"))
UNCUT = 1 << 30  # a value bound above every count these tests reach


def _one_state(alphabet):
    return ltl_to_ara(parse_formula("G a", alphabet), alphabet)


def _two_state():
    # p forks a frozen observer r; r survives a's, b closes both threads
    return AlternatingAutomaton(AB, ("p", "r"), "p", {
        ("p", "a", "up"): pb.And(pb.Ref("p"), pb.DownRef("r")),
        ("p", "a", "nup"): pb.Ref("p"),
        ("p", "b", "up"): pb.Top(),
        ("r", "a", "nup"): pb.Ref("r"),
        ("r", "b", "nup"): pb.Top(),
    })


def test_structure_sizes_one_state(abc):
    cm = ara_to_ipcant(_one_state(abc))
    q = cm.states_order[0]
    assert cm.structure.basis == ("^b", q + "^b", "^bb", q + "^bb", q + "^bbd")
    assert len(cm.structure.counters) == 6
    assert cm.structure.counters[0] == frozenset(["^b"])
    assert cm.structure.counters[1] == frozenset(["^b", q + "^b"])
    for c in cm.structure.counters[2:]:
        assert "^bb" in c


def test_structure_sizes_general(fig1):
    cm = ara_to_ipcant(fig1)
    assert len(cm.structure.basis) == 3 * 3 + 2
    assert len(cm.structure.counters) == 2 ** 3 + 4 ** 3


def test_counter_indexing():
    cm = ara_to_ipcant(_two_state())
    assert cm.structure.counters[3] == frozenset(
        ["^b", "p^b", "r^b"])
    ci = _flight_index(cm.n, 1, 2)
    assert cm.structure.counters[ci] == frozenset(["^bb", "p^bb", "r^bbd"])


def test_co_state_must_exist():
    with pytest.raises(ValidationError):
        ara_to_ipcant(_two_state(), co_states=("nope",))


def test_read_images_and_here_sets():
    cm = ara_to_ipcant(_two_state())
    p_mask, r_mask = 1, 2
    # (kept, refrozen) pairs; () when a thread has no model
    assert cm.read_images("a", p_mask) == ((p_mask, 0),)
    assert cm.read_images("b", r_mask) == ((0, 0),)
    assert cm.read_images("b", p_mask) == ()
    assert cm.read_images("a", 0) == ((0, 0),)
    assert cm.here_sets("a", p_mask) == (p_mask | r_mask,)
    assert cm.here_sets("b", p_mask) == (0,)
    assert cm.here_sets("a", p_mask | r_mask) == ()
    assert cm.here_sets("b", 0) == (0,)


def _reference_unions(aut, letter, mask, flag):
    """The (kept, refrozen) unions of one minimal model per thread of mask,
    from the automaton's name-form models; empty when a thread has none."""
    bit = {q: 1 << i for i, q in enumerate(aut.states)}
    pairs = {(0, 0)}
    for q in aut.states:
        if mask & bit[q]:
            models = [(sum(bit[p] for p in plain), sum(bit[p] for p in fresh))
                      for plain, fresh in models_at(aut, q, letter, flag)]
            pairs = {(k | pk, m | pm) for k, m in pairs for pk, pm in models}
    return pairs


@pytest.mark.parametrize("with_co", [False, True])
def test_mask_models_match_name_models(with_co):
    """read_images and here_sets, whose models are folded straight to masks,
    equal a reference built from the name-form models, for every thread set
    and letter of 1-3-state automata."""
    rng = random.Random(19)
    sizes = set()
    for _ in range(120):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        co = None
        if with_co:
            co = tuple(q for q in aut.states if rng.random() < 0.5) or aut.states[-1:]
        cm = ara_to_ipcant(aut, co_states=co)
        sizes.add(cm.n)
        for mask in range(1 << cm.n):
            for letter in AB.letters:
                read = _reference_unions(aut, letter, mask, "nup")
                here = _reference_unions(aut, letter, mask, "up")
                assert cm.read_images(letter, mask) == tuple(sorted(read))
                assert cm.here_sets(letter, mask) == tuple(sorted({k | m for k, m in here}))
    assert sizes == {1, 2, 3}


def _assert_product_matches_reference(a1, a2):
    """product_machine(a1, a2) is the machine of the built product,
    ara_to_ipcant(*inclusion_product(a1, a2)): the same states, initial
    control and co-states, and the same read_images and here_sets for every
    letter and thread set."""
    ref = ara_to_ipcant(*inclusion_product(a1, a2))
    cm = product_machine(a1, a2)
    assert cm.states_order == ref.states_order
    assert (cm.initial_control, cm.co_states, cm.co_mask) == (
        ref.initial_control, ref.co_states, ref.co_mask)
    for mask in range(1 << cm.n):
        for letter in a1.alphabet:
            assert cm.read_images(letter, mask) == ref.read_images(letter, mask)
            assert cm.here_sets(letter, mask) == ref.here_sets(letter, mask)
    return cm


def _with_names(aut, names):
    """aut with its states renamed to `names`, in order."""
    ren = dict(zip(aut.states, names))

    def leaf(g):
        return type(g)(ren[g.state]) if isinstance(g, (pb.Ref, pb.DownRef)) else g

    delta = {(ren[q], a, flag): pb.rebuild(phi, leaf)
             for (q, a, flag), phi in aut.delta.items()}
    return AlternatingAutomaton(aut.alphabet, names, ren[aut.initial], delta)


def test_product_machine_matches_built_product_fixtures(fig1, top_automaton, abc,
                                                        example_formula):
    _, f = example_formula
    bot = AlternatingAutomaton(abc, ("z",), "z", {})
    chain = pb.Ref("p")
    for _ in range(3000):
        chain = pb.And(pb.DownRef("p"), chain)
    deep = AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): chain})
    fixtures = (fig1, top_automaton, ltl_to_ara(f, abc), bot, deep)
    for a1 in fixtures:
        for a2 in fixtures:
            _assert_product_matches_reference(a1, a2)


def test_product_machine_matches_built_product_random():
    """200 seeded pairs of 1-3-state automata with absent entries, whose
    state names clash with each other's and with the fresh initial state."""
    rng = random.Random(29)
    pool = ("init", "q0", "q0_2", "init0", "q1")
    sizes, clashes = set(), 0
    for _ in range(200):
        a1, a2 = (randgen.random_automaton(rng, AB, max_states=3, bot_prob=0.4)
                  for _ in range(2))
        if rng.random() < 0.5:
            a1 = _with_names(a1, rng.sample(pool, len(a1.states)))
        if rng.random() < 0.5:
            a2 = _with_names(a2, rng.sample(pool, len(a2.states)))
        cm = _assert_product_matches_reference(a1, a2)
        sizes.add(cm.n)
        clashes += cm.states_order[0] != "init"
    assert sizes == {3, 4, 5, 6, 7}
    assert clashes > 20


def test_product_machine_needs_a_shared_alphabet(fig1):
    other = AlternatingAutomaton(AB, ("p",), "p", {})
    with pytest.raises(ValidationError, match="automata must share an alphabet"):
        product_machine(fig1, other)


def test_read_images_and_here_sets_monotone_in_the_mask():
    """For thread sets X within Y: X is never blocked where Y is free, each
    (kept, refrozen) pair of X lies below some pair of Y, and each here-set
    of X inside some here-set of Y.  Y's threads include X's, so a model
    choice for Y restricts to one for X."""
    rng = random.Random(45)
    cases = 0
    for _ in range(300):
        cm = ara_to_ipcant(randgen.random_automaton(rng, AB, max_states=3))
        masks = range(1 << cm.n)
        for y in masks:
            for x in (m for m in masks if not m & ~y):
                for letter in AB.letters:
                    cases += 1
                    small, big = cm.read_images(letter, x), cm.read_images(letter, y)
                    assert small or not big
                    for k, m in small if big else ():
                        assert any(not k & ~k2 and not m & ~m2 for k2, m2 in big)
                    small, big = cm.here_sets(letter, x), cm.here_sets(letter, y)
                    assert small or not big
                    for s in small if big else ():
                        assert any(not s & ~s2 for s2 in big)
    assert cases > 6000


def test_resting_and_checkpoint_predicates():
    cm = ara_to_ipcant(_two_state(), co_states=("r",))
    assert cm.initial_control == (1, False)
    assert cm.is_resting((0, False)) and cm.is_resting((3, True))
    assert cm.is_checkpoint((0, True))
    assert not cm.is_checkpoint((0, False))
    succ, truncated = cm.config_successors(cm.initial_control, (), None, UNCUT)
    assert not truncated
    # on a the current class keeps the co-state r: no checkpoint; on b every
    # thread closes, so the cycle passes the checkpoint and costs one more
    assert sorted(succ) == [
        ("a", (0, False), ((3, 1),), 8),
        ("a", (3, False), (), 8),
        ("b", (0, True), (), 9),
        ("b", (0, True), ((0, 1),), 9),
    ]


def test_read_step_branch_budget(monkeypatch):
    # q | d(q) gives each token two read images, so n tokens split n + 1
    # ways; past BRANCH_BUDGET the step reports truncation unexpanded
    aut = AlternatingAutomaton(AB, ("q",), "q", {
        ("q", "a", "nup"): pb.Or(pb.Ref("q"), pb.DownRef("q")),
        ("q", "a", "up"): pb.Ref("q"),
    })
    cm = ara_to_ipcant(aut)
    assert len(cm.read_images("a", 1)) == 2
    assert cm.config_successors((0, False), ((1, BRANCH_BUDGET),), "a", UNCUT) == ([], True)
    succ, truncated = cm.config_successors((0, False), ((1, 2),), "a", UNCUT)
    assert not truncated and succ
    # the compiled step reads the budget when it fires, as explicit ones do
    monkeypatch.setattr(ipcant.machine, "BRANCH_BUDGET", 6)
    succ, truncated = cm.config_successors((0, False), ((1, 5),), "a", UNCUT)
    assert not truncated and succ
    assert cm.config_successors((0, False), ((1, 6),), "a", UNCUT) == ([], True)


def _reference_read_splits(cm, letter, sv):
    """The compiled read fold as it stood on its own: every counter, those
    with one image too, folded in index order with duplicate (marks, post)
    outcomes dropped."""
    moving = []
    branches = 1
    for ci, count in sv:
        pairs = cm.read_images(letter, ci)
        if not pairs:
            return [], False  # some class has a model-less thread
        branches *= comb(count + len(pairs) - 1, count)
        moving.append((count, pairs))
    if branches > ipcant.BRANCH_BUDGET:
        return [], True
    partial_outcomes = {(0, ()): None}  # insertion-ordered set
    for count, pairs in moving:
        parts_of = {}
        for parts in compositions(count, len(pairs)):
            marks = 0
            post = {}
            for (kept, marked), part in zip(pairs, parts):
                if part:
                    marks |= marked
                    post[kept] = post.get(kept, 0) + part
            parts_of[(marks, tuple(sorted(post.items())))] = None
        folded = {}
        for marks0, post0 in partial_outcomes:
            for marks1, post1 in parts_of:
                post = dict(post0)
                for ci, cnt in post1:
                    post[ci] = post.get(ci, 0) + cnt
                folded[(marks0 | marks1, tuple(sorted(post.items())))] = None
        partial_outcomes = folded
    return list(partial_outcomes), False


def test_read_split_keeps_reference_order(abc):
    rng = random.Random(23)
    blocked = split = 0
    for _ in range(60):
        cm = ara_to_ipcant(randgen.random_automaton(rng, abc, max_states=3))
        for _ in range(5):
            masks = rng.sample(range(1 << cm.n), rng.randint(1, min(3, 1 << cm.n)))
            sv = tuple(sorted((mask, rng.randint(1, 4)) for mask in masks))
            for a in abc:
                got, truncated = split_tokens(sv, partial(cm.read_images, a))
                assert (got, truncated) == _reference_read_splits(cm, a, sv)
                blocked += not got
                split += len(got) > 1
    assert blocked and split


def test_materialize_state_counts(abc):
    assert len(ara_to_ipcant(_one_state(abc)).materialize().states) == 18
    assert len(ara_to_ipcant(_two_state()).materialize().states) == 90


def test_materialize_initial_and_labels(abc):
    m = ara_to_ipcant(_one_state(abc)).materialize()
    assert m.initial == "read_1"
    for t in m.transitions:
        if t.label != EPS:
            assert t.src.startswith("read_")
            assert t.label in ("a", "b", "c")


def test_materialize_round_trip(abc):
    m = ara_to_ipcant(_one_state(abc)).materialize()
    text = format_machine(m)
    again = parse_machine(text)
    assert format_machine(again) == text
    assert again.states == m.states and again.initial == m.initial


def _meaning(machine):
    """The transitions with each transfer as its map: a machine file lists
    a transfer's entries sorted."""
    counters = machine.structure.counters
    return [(t.src, t.label, t.dst,
             t.instr.as_map(counters) if isinstance(t.instr, Transfer) else t.instr)
            for t in machine.transitions]


def _under(machine, lazy):
    """The machine's transitions, stepped under the given relation."""
    return ipcant.CounterMachine(machine.alphabet, machine.states, machine.initial,
                                 machine.structure, machine.transitions,
                                 check_transfers="off", lazy=lazy)


def _reached_configs(machine, limit=150):
    """Configurations of the explicit machine in breadth-first order, under
    its own relation, values capped at 3."""
    seen = {}
    todo = [machine.initial_config()]
    while todo and len(seen) < limit:
        control, sv = todo.pop(0)
        key = (control, sv)
        if key in seen:
            continue
        seen[key] = (control, sv)
        succ, _ = machine.config_successors(control, sv, None, 3)
        todo += [(dst, sv2) for _, dst, sv2, _ in succ]
    return list(seen.values())


def test_materialized_machine_file_round_trip_random():
    """Printing is stable through a parse, the parsed machine has the same
    transitions and shares one instruction object per distinct instruction
    as the materialized one does, and both step alike: the file records the
    error-free relation, so the parsed machine's own successor lists are the
    materialized machine's, in the same order; stepped under the lazy
    relation, its transitions add only zero decrements to those."""
    rng = random.Random(29)
    for k in range(24):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        co = None
        if k % 2:
            co = tuple(q for q in aut.states if rng.random() < 0.5) or aut.states[-1:]
        m = ara_to_ipcant(aut, co_states=co).materialize()
        text = format_machine(m)
        parsed = parse_machine(text)
        assert format_machine(parsed) == text
        assert _meaning(parsed) == _meaning(m)
        assert (parsed.states, parsed.initial) == (m.states, m.initial)
        instrs = [t.instr for t in parsed.transitions]
        assert len({id(i) for i in instrs}) == len(set(instrs))
        # materialize builds each distinct instruction once, except that
        # two letters may have equal read transfers
        instrs = [t.instr for t in m.transitions]
        incdec = [i for i in instrs if not isinstance(i, Transfer)]
        assert len({id(i) for i in incdec}) == len(set(incdec))
        assert len({id(i) for i in instrs}) <= len(set(instrs)) + len(AB) - 1
        assert not parsed.lazy
        lazy = _under(parsed, True)
        for control, sv in _reached_configs(m):
            for letter in (None,) + AB.letters:
                for vcap in (UNCUT, 2):
                    want = m.config_successors(control, sv, letter, vcap)
                    assert parsed.config_successors(control, sv, letter, vcap) == want
                exact_m, _ = m.config_successors(control, sv, letter, UNCUT)
                lazy_p, _ = lazy.config_successors(control, sv, letter, UNCUT)
                assert all(s in lazy_p for s in exact_m)
                assert all(s in exact_m or (s[2] == sv and s[1].startswith(("hold_", "read_")))
                           for s in lazy_p)


def _printed(aut, co):
    """The materialized machine's text and that text parsed and printed."""
    text = format_machine(ara_to_ipcant(aut, co_states=co).materialize())
    return text, format_machine(parse_machine(text, "off"))


def test_warm_machines_print_as_cold_ones():
    """Materialized and parsed machines of 1-3-state automata, built one
    after another in one process, whose family caches fill up with the
    machines before them, print as each machine built alone with every
    family cache of compile and ipcant emptied first: the lru_caches, and
    with the structures and cycles they drop, the family memos those
    own."""
    rng = random.Random(61)
    cases = []
    for k in range(40):
        aut = randgen.random_automaton(rng, AB if k % 3 else Alphabet(("a",)), max_states=3)
        co = None
        if k % 2:
            co = tuple(q for q in aut.states if rng.random() < 0.5) or aut.states[:1]
        cases.append((aut, co))
    warm = [_printed(aut, co) for aut, co in cases]
    for k, ((aut, co), (text, again)) in enumerate(zip(cases, warm)):
        assert text == again
        for cache in (family_structure, letter_free_cycle, ipcant.fileformat._parse_structure):
            cache.cache_clear()
        assert _printed(aut, co) == (text, again), k


def test_machines_of_one_family_share_the_letter_free_cycle():
    """Two automata over the same state names: everything from the merges
    to the pick is the same transition objects, the models_* edges use the
    cycle's nop, and the read transfers, which differ, are each machine's
    own.  The first automaton materialized again gives the very read
    transfers and edges of its first machine.  Other co-states or other
    state names make another cycle."""
    rng = random.Random(62)
    auts = []
    while len(auts) < 2:
        aut = randgen.random_automaton(rng, AB, max_states=2)
        if len(aut.states) == 2:
            auts.append(aut)
    one, two = (ara_to_ipcant(aut).materialize() for aut in auts)
    assert one.transitions != two.transitions
    cycle = letter_free_cycle(("q0", "q1"), ())
    for m in (one, two):
        assert m.structure is family_structure(("q0", "q1"))
        tail = m.transitions[-len(cycle.transitions):]
        assert all(t is u for t, u in zip(tail, cycle.transitions))
        models = [t for t in m.transitions if t.src.startswith("models_")]
        assert models and all(t.instr is cycle.nop for t in models)
    reads = [{id(t.instr) for t in m.transitions if t.label is not EPS} for m in (one, two)]
    assert not reads[0] & reads[1]
    again = ara_to_ipcant(auts[0]).materialize()
    assert all(t is u for t, u in zip(again.transitions, one.transitions))
    assert letter_free_cycle(("q0", "q1"), ("q1",)) is not cycle
    assert letter_free_cycle(("q1", "q0"), ()).nop is not cycle.nop


def test_materialize_transfers_distributive():
    m = ara_to_ipcant(_one_state(AB)).materialize()
    counters = m.structure.counters
    checked = 0
    for t in m.transitions:
        if isinstance(t.instr, Transfer):
            assert check_distributive(t.instr.as_map(counters), counters)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("co", [None, ("r",)])
def test_bound_counts_match_materialized(abc, co):
    for cm in (ara_to_ipcant(_one_state(abc)),
               ara_to_ipcant(_two_state(), co_states=co)):
        q_count, basis_size, counter_count = cm.bound_counts()
        assert q_count == len(cm.materialize().states)
        assert basis_size == len(cm.structure.basis)
        assert counter_count == len(cm.structure.counters)


def test_materialize_rejects_large_automata():
    big = AlternatingAutomaton(AB, ("q0", "q1", "q2", "q3"), "q0", {})
    with pytest.raises(ValidationError):
        ara_to_ipcant(big).materialize()


def _macro_resting(cm, depth):
    """Resting configurations after exactly `depth` letters under the macro
    step, named as in the materialized machine, with the checkpoint flag of
    the last cycle."""
    frontier = {("", cm.initial_control, ())}
    for _ in range(depth):
        nxt = set()
        for letters, control, sv in frontier:
            succ, truncated = cm.config_successors(control, sv, None, UNCUT)
            assert not truncated
            for label, c2, sv2, _ in succ:
                nxt.add((letters + label, c2, sv2))
        frontier = nxt
    return {(letters, "read_%d" % control[0], sv, cm.is_checkpoint(control))
            for letters, control, sv in frontier}


def _explicit_resting(machine, depth):
    """The same relation read off the materialized machine; the flag says
    whether the last cycle passed the checkpoint state."""
    by_src = {}
    for t in machine.transitions:
        by_src.setdefault(t.src, []).append(t)
    v0 = Valuation(machine.structure, (0,) * len(machine.structure.counters))
    out = set()
    seen = set()
    stack = [((), machine.initial, v0, False)]
    while stack:
        letters, state, v, via = stack.pop()
        key = (letters, state, v.values, via)
        if key in seen:
            continue
        seen.add(key)
        if state.startswith("read_") and len(letters) == depth:
            sv = tuple((i, n) for i, n in enumerate(v.values) if n)
            out.add(("".join(letters), state, sv, via))
            continue
        for t in by_src.get(state, ()):
            l2 = letters if t.label == EPS else letters + (t.label,)
            if len(l2) > depth:
                continue
            via2 = (via and t.label == EPS) or t.dst == "checkpoint"
            for v2 in fire(v, t.instr):
                stack.append((l2, t.dst, v2, via2))
    return out


def _assert_macro_matches(cm, depths):
    machine = cm.materialize()
    for depth in depths:
        macro = _macro_resting(cm, depth)
        explicit = _explicit_resting(machine, depth)
        assert {c[:3] for c in macro} == {c[:3] for c in explicit}
        # the macro step passes the checkpoint whenever the explicit
        # machine can
        assert {c[:3] for c in macro if c[3]} == {c[:3] for c in explicit if c[3]}


@pytest.mark.parametrize("co", [None, ("r",)])
def test_config_successors_match_materialized(co):
    _assert_macro_matches(ara_to_ipcant(_two_state(), co_states=co), (1, 2))


def test_config_successors_match_materialized_one_state(abc):
    _assert_macro_matches(ara_to_ipcant(_one_state(abc)), (1, 2, 3))


@pytest.mark.parametrize("with_co", [False, True])
def test_config_successors_match_materialized_random(with_co):
    rng = random.Random(7)
    for _ in range(20):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        co = None
        if with_co:
            co = tuple(q for q in aut.states if rng.random() < 0.5) or aut.states[-1:]
        _assert_macro_matches(ara_to_ipcant(aut, co_states=co), (1, 2, 3))


def _lettered_queries(cm, limit=40):
    """(control, valuation, letter) for up to `limit` configurations
    reached from the initial one with counts at most 3, and every letter."""
    start = cm.initial_config()
    seen = {start: None}
    frontier = [start]
    while frontier and len(seen) < limit:
        nxt = []
        for control, sv in frontier:
            for _, control2, sv2, _ in cm.config_successors(control, sv, None, 3)[0]:
                if (control2, sv2) not in seen and len(seen) < limit:
                    seen[control2, sv2] = None
                    nxt.append((control2, sv2))
        frontier = nxt
    return [(control, sv, a) for control, sv in seen for a in cm.alphabet]


@pytest.mark.parametrize("with_co", [False, True])
def test_lettered_step_memo_matches_fresh_machines(with_co):
    """Every lettered step reached from the initial configuration, asked
    twice on one machine under vcap UNCUT, 2 and 64 in turn, equals a fresh
    machine's answer, and the second ask is the memoized first one.  A memo
    key without the letter or the value cap would hand back another
    query's answer."""
    rng = random.Random(29)
    capped = lettered = 0
    for _ in range(25):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        co = aut.states[-1:] if with_co else None
        cm = ara_to_ipcant(aut, co_states=co)
        queries = _lettered_queries(ara_to_ipcant(aut, co_states=co))
        for vcap in (UNCUT, 2, 64):
            for control, sv, a in queries:
                got = cm.config_successors(control, sv, a, vcap)
                assert cm.config_successors(control, sv, a, vcap) is got
                fresh = ara_to_ipcant(aut, co_states=co)
                assert got == fresh.config_successors(control, sv, a, vcap), (control, sv, a)
                capped += vcap == 2 and got[1]
                lettered += bool(got[0])
    assert capped and lettered


def test_fig1_prefixes_answer_alike_in_either_order(data_text):
    """prefix_reachable shares lettered steps through the machine's memo:
    every string of at most three letters, asked on one machine of fig1 in
    order and then in reverse, gets the answer of a fresh machine."""
    fig1 = parse_automaton(data_text("fig1.ara"))
    strings = [s for n in range(4) for s in product("abc", repeat=n)]
    fresh = {s: prefix_reachable(ara_to_ipcant(fig1), s) for s in strings}
    shared = ara_to_ipcant(fig1)
    for s in strings + strings[::-1]:
        assert prefix_reachable(shared, s) == fresh[s], s


def test_lettered_step_memo_stays_within_its_bound(abc, monkeypatch):
    """Every string over a, b, c of length at most 4 overflows a memo of 8
    lettered steps on a random three-state automaton's machine: unbounded,
    it holds more.  With regsafe.memo.BOUND at 8 while the strings are
    asked, it never does, and the answers are the same."""
    aut = randgen.random_automaton(random.Random(5), abc, max_states=3)
    strings = [s for n in range(5) for s in product(abc.letters, repeat=n)]
    monkeypatch.setattr(memo, "BOUND", 8)
    bounded = ara_to_ipcant(aut)
    answers = []
    for s in strings:
        answers.append(prefix_reachable(bounded, s))
        assert len(bounded._lettered) <= 8
    assert 0 < answers.count(True) < len(strings)
    monkeypatch.setattr(memo, "BOUND", 10 ** 9)
    unbounded = ara_to_ipcant(aut)
    assert [prefix_reachable(unbounded, s) for s in strings] == answers
    assert len(unbounded._lettered) > 8


def test_machines_and_automata_are_freed_without_the_cycle_collector(data_text):
    """No table a compiled machine or an automaton keeps refers back to it:
    with the cycle collector off, each is freed as soon as its last
    reference goes, after the searches and run_exists have filled them."""
    aut = parse_automaton(data_text("fig1.ara"))
    cm = ara_to_ipcant(aut)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert prefix_reachable(cm, ("a", "c", "b"))
        assert bounded_nonemptiness(cm, cap=200) is not None
        assert cm._lettered and cm._reads and cm._heres
        assert not run_exists(aut, parse_word("a@1 c@2 b@1", aut.alphabet))
        assert aut._steps is not None
        machine, automaton = weakref.ref(cm), weakref.ref(aut)
        del cm
        assert machine() is None
        del aut
        assert automaton() is None
    finally:
        if enabled:
            gc.enable()


def test_unlettered_searches_leave_the_lettered_memo_alone(fig1, top_automaton, monkeypatch):
    """bounded_nonemptiness and inclusion_check step every letter at once:
    they neither read nor fill the lettered-step memo."""
    made = []

    def recording_product(a1, a2):
        made.append(product_machine(a1, a2))
        return made[-1]

    monkeypatch.setattr(explore, "product_machine", recording_product)
    cm = ara_to_ipcant(fig1)
    bounded_nonemptiness(cm, cap=200)
    inclusion_check(top_automaton, fig1, cap=200)
    inclusion_check(fig1, fig1, cap=200)
    assert len(made) == 2
    assert all(not m._lettered for m in [cm] + made)


def _fresh_models(cm, qi, letter, flag):
    """The minimal models of state qi's row, folded afresh."""
    row = cm._rows[qi]
    if type(row) is compile_module.Row:
        phi = row.delta.get((row.name, letter, flag), pb.Bot())
        return pb.minimal_models(phi, row.bit or cm._bit, row.dual)
    i, j = row
    return pb.conjoin_models(_fresh_models(cm, i, letter, flag),
                             _fresh_models(cm, j, letter, flag))


def _every_bit_unions(cm, letter, mask, flag):
    """The model unions of mask's threads, from fresh folds, walking every
    bit of the machine."""
    pairs = {(0, 0)}
    for i in range(cm.n):
        if mask >> i & 1:
            models = _fresh_models(cm, i, letter, flag)
            pairs = {(k | pk, m | pm) for k, m in pairs for pk, pm in models}
    return pairs


def _with_shared_formulas(rng, aut):
    """aut with one formula object under both flags of an entry, and a
    structurally equal copy of a formula under another entry."""
    delta = dict(aut.delta)
    keys = sorted(delta)
    if keys:
        q, a, flag = rng.choice(keys)
        delta[(q, a, "nup" if flag == "up" else "up")] = delta[(q, a, flag)]
        phi = delta[rng.choice(keys)]
        copy = pb.rebuild(phi, lambda g: type(g)(*g.fields))
        assert copy == phi and copy is not phi
        delta[(rng.choice(aut.states), rng.choice(AB.letters), rng.choice(("up", "nup")))] = copy
    return AlternatingAutomaton(aut.alphabet, aut.states, aut.initial, delta)


def test_folds_match_fresh_folds_on_machines_and_products(monkeypatch):
    """Machines of seeded 1-3-state automata, some with a formula shared by
    two flags or by two entries, and their product machines, which have dual
    rows: asked in a random order, every read_images and here_sets entry
    equals the unions of fresh folds over every bit, each distinct (formula,
    dual) is folded exactly once, and every entry of every (letter, flag)
    list of per-state models is filled and equals a fresh fold.  The rows
    with one dual flag share one bit map, which the fold memo's (formula,
    dual) key relies on."""
    folded = []
    fold = pb.minimal_models

    def recording_fold(phi, bit=None, dual=False):
        folded.append((phi, dual))
        return fold(phi, bit, dual)

    monkeypatch.setattr(pb, "minimal_models", recording_fold)
    rng = random.Random(47)
    sizes, products = set(), 0
    for _ in range(60):
        a1, a2 = (_with_shared_formulas(rng, randgen.random_automaton(
            rng, AB, max_states=3, bot_prob=0.3)) for _ in range(2))
        for cm in (ara_to_ipcant(a1), product_machine(a1, a2), product_machine(a2, a1)):
            sizes.add(cm.n)
            rows = [row for row in cm._rows if type(row) is compile_module.Row]
            for dual in (False, True):
                assert len({id(row.bit) for row in rows if row.dual == dual}) <= 1
            products += any(row.dual for row in rows)
            asks = [(letter, mask) for letter in AB.letters for mask in range(1 << cm.n)]
            rng.shuffle(asks)
            del folded[:]
            got = [(cm.read_images(letter, mask), cm.here_sets(letter, mask))
                   for letter, mask in asks]
            made = list(folded)
            for (letter, mask), (images, here_sets) in zip(asks, got):
                read = _every_bit_unions(cm, letter, mask, "nup")
                here = _every_bit_unions(cm, letter, mask, "up")
                assert images == tuple(sorted(read))
                assert here_sets == tuple(sorted({k | m for k, m in here}))
            assert len(made) == len(set(made))
            assert set(made) == set(cm._folds) == {
                (row.delta.get((row.name, letter, flag), pb.Bot()), row.dual)
                for row in rows for letter in AB.letters for flag in ("up", "nup")}
            assert sorted(cm._mm) == sorted(product(AB.letters, ("up", "nup")))
            for (letter, flag), entries in cm._mm.items():
                assert len(entries) == cm.n
                for qi, models in enumerate(entries):
                    assert models == _fresh_models(cm, qi, letter, flag)
    assert sizes == {1, 2, 3, 4, 5, 6, 7}
    assert products == 120


def test_large_masks_join_single_models_exactly(data_text, monkeypatch):
    """The bouncer formula's machine while prefix_reachable reads the first
    12 letters of the machine's run: its masks hold dozens of threads, most
    with one minimal model, some with two and some with none.  Every
    read_images and here_sets entry it computes equals the plain product,
    over the mask's threads, of fresh folds, with no thread's single model
    joined first."""
    bouncer = parse_tm(data_text("bouncer.tm"))
    cm = ara_to_ipcant(ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer)))
    asked = set()
    for name, flag in (("read_images", "nup"), ("here_sets", "up")):
        def recording(letter, mask, compute=getattr(cm, name), flag=flag):
            asked.add((letter, mask, flag))
            return compute(letter, mask)
        monkeypatch.setattr(cm, name, recording)
    assert prefix_reachable(cm, encode_tm_run(bouncer, 2).letters[:12])
    monkeypatch.undo()
    mixes = set()  # per mask of 30 threads or more: its threads' model counts, 2 meaning more
    for letter, mask, flag in asked:
        pairs = _every_bit_unions(cm, letter, mask, flag)
        if flag == "nup":
            assert cm.read_images(letter, mask) == tuple(sorted(pairs))
        else:
            assert cm.here_sets(letter, mask) == tuple(sorted({k | m for k, m in pairs}))
        counts = [min(len(_fresh_models(cm, i, letter, flag)), 2)
                  for i in range(cm.n) if mask >> i & 1]
        if len(counts) >= 30:
            mixes.add(frozenset(counts))
    assert any({1, 2} <= mix for mix in mixes) and any(0 in mix for mix in mixes)


def test_family_loads_compare_no_nodes(monkeypatch):
    """Once one machine of a counter family has been materialized, printed
    and parsed, doing the same for a second machine of the family and
    printing the parsed one compares no two tree nodes: every memo on the
    way meets its own objects by identity, never an equal copy made by the
    other side of the round trip."""
    ref, down = pb.Ref("q0"), pb.DownRef("q0")

    def one_state(delta):
        return AlternatingAutomaton(AB, ("q0",), "q0", {
            ("q0", a, flag): f for (a, flag), f in delta.items()})

    first = one_state({("a", "up"): pb.Top(), ("a", "nup"): ref, ("b", "nup"): down})
    second = one_state({("a", "up"): pb.And(ref, down), ("b", "up"): ref,
                        ("b", "nup"): pb.Or(ref, down)})

    def load(aut):
        text = format_machine(ara_to_ipcant(aut).materialize())
        assert format_machine(parse_machine(text, "full")) == text

    load(first)
    calls = []
    eq = tree.Node.__eq__

    def counting(self, other):
        calls.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(tree.Node, "__eq__", counting)
    load(second)
    load(second)
    assert calls == []
    assert ipcant.Inc(frozenset("x")) == ipcant.Inc(frozenset("x")) and len(calls) == 1


def _one_state_automata(rng, count):
    """count automata over {a, b} with the one state q0, each entry drawn
    from a few formulas or left out."""
    ref, down = pb.Ref("q0"), pb.DownRef("q0")
    choices = (None, pb.Top(), ref, down, pb.Or(ref, down))
    keys = [("q0", a, flag) for a in AB for flag in ("up", "nup")]
    auts = []
    for _ in range(count):
        delta = {k: f for k, f in zip(keys, (rng.choice(choices) for _ in keys)) if f}
        auts.append(AlternatingAutomaton(AB, ("q0",), "q0", delta))
    return auts


def test_family_memos_of_materialize_stay_within_their_bound(monkeypatch):
    """With regsafe.memo.BOUND at 3 while the family's memos fill, one-state
    automata over {a, b} materialize, print and parse back as with the
    default bound, and no memo of their family holds more than 3 entries:
    neither letter_free_cycle's read and edge memos nor the five memos of
    the compiled or the parsed structure."""
    auts = _one_state_automata(random.Random(63), 30)
    texts = [format_machine(ara_to_ipcant(aut).materialize()) for aut in auts]
    monkeypatch.setattr(memo, "BOUND", 3)
    for cache in (family_structure, letter_free_cycle, ipcant.fileformat._parse_structure):
        cache.cache_clear()  # so the family's memos start empty under the bound
    for aut, text in zip(auts * 2, texts * 2):
        cm = ara_to_ipcant(aut)
        m = cm.materialize()
        assert format_machine(m) == text
        assert format_machine(parse_machine(text, "full")) == text
        cycle = letter_free_cycle(cm.states_order, cm.co_states)
        parsed = parse_machine(text).structure
        for kept in (cycle.reads, cycle.edges, *(getattr(st, name) for st in (m.structure, parsed)
                     for name in ("parsed", "instrs", "ops", "lines", "verdicts"))):
            assert len(kept) <= 3


def test_family_memos_follow_the_bound_after_it_is_raised(monkeypatch):
    """A family interned while regsafe.memo.BOUND is low keeps no copy of
    it: once the bound is back at its default, the ('q0',) family's read,
    print and op memos fill past the low bound as more one-state automata
    materialize, print and parse."""
    auts = _one_state_automata(random.Random(64), 45)
    with monkeypatch.context() as low:
        low.setattr(memo, "BOUND", 3)
        for cache in (family_structure, letter_free_cycle, ipcant.fileformat._parse_structure):
            cache.cache_clear()  # so the family is interned under the low bound
        for aut in auts[:5]:
            parse_machine(format_machine(ara_to_ipcant(aut).materialize()))
    for aut in auts[5:]:
        parse_machine(format_machine(ara_to_ipcant(aut).materialize()))
    structure = family_structure(("q0",))
    assert min(len(letter_free_cycle(("q0",), ()).reads), len(structure.lines),
               len(structure.ops)) > 3
