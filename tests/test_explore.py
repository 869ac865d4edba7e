from collections import deque
from functools import partial
from itertools import product
import random

from hypothesis import given, settings, strategies as hst
import pytest

from regsafe.words import Alphabet, canonicalize, parse_word
from regsafe.ara import ltl_to_ara, parse_automaton, run_exists
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton, intersect, union
from regsafe import ipcant, randgen
from regsafe.ipcant import (BRANCH_BUDGET, EPS, CounterMachine, CounterStructure, Dec, Inc,
                            Transfer, Transition, compositions, parse_machine, split_tokens)
from regsafe.ltl import parse_formula
from regsafe.pipeline import (Inclusion, Nonemptiness, ara_to_ipcant,
                              bounded_nonemptiness, inclusion_check, prefix_reachable)
from regsafe.pipeline import explore
from regsafe.pipeline.explore import Antichain, successors
from regsafe.reference.ara import inclusion_product
from regsafe.reference.ipcant import (fire, fire_lazy, image, random_instruction,
                                      random_structure, random_transfer, random_valuation,
                                      valuation)

AB = Alphabet(("a", "b"))
UNCUT = 1 << 30  # a value bound above every count these tests reach


def _bot_automaton():
    return AlternatingAutomaton(AB, ("z",), "z", {})


def _forker():
    return AlternatingAutomaton(AB, ("p", "r"), "p", {
        ("p", "a", "up"): pb.And(pb.Ref("p"), pb.DownRef("r")),
        ("p", "a", "nup"): pb.Ref("p"),
        ("p", "b", "up"): pb.Top(),
        ("r", "a", "nup"): pb.Ref("r"),
        ("r", "b", "nup"): pb.Top(),
    })


def _words_with_letters(letters):
    """Every data word (up to class renaming) whose letter sequence is
    exactly `letters`."""
    seen = set()
    for labels in product(range(len(letters)), repeat=len(letters)):
        w = canonicalize(letters, labels)
        if w.classes not in seen:
            seen.add(w.classes)
            yield w


def test_nonemptiness_compiled_verdicts(fig1, top_automaton):
    assert bounded_nonemptiness(ara_to_ipcant(top_automaton)) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(ara_to_ipcant(fig1)) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(ara_to_ipcant(_bot_automaton())) is Nonemptiness.EMPTY


def test_nonemptiness_materialized_fig1(fig1):
    """The materialized machine steps error-free, as the compiled one does,
    and reaches the same verdict."""
    assert bounded_nonemptiness(ara_to_ipcant(fig1).materialize()) is Nonemptiness.NONEMPTY


def test_nonemptiness_file_machine(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    # the counter climbs forever: a short cap concludes, a tight value cap
    # cuts the only branch and leaves the question open
    assert bounded_nonemptiness(machine, cap=50) is Nonemptiness.NONEMPTY
    assert bounded_nonemptiness(machine, vcap=8) is Nonemptiness.UNKNOWN


def test_nonemptiness_start_override(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    control, sv = machine.initial_config()
    assert control == "p" and sv == ()
    assert bounded_nonemptiness(machine, cap=50,
                                start=("p", ((0, 3),))) is Nonemptiness.NONEMPTY


def test_nonemptiness_unknown_at_the_node_budget(monkeypatch):
    """An automaton that reads two letters and dies has an empty language;
    the search proves it with 49 nodes and answers UNKNOWN with one less."""
    states = ("q0", "q1", "q2")
    delta = {(states[i], a, flag): pb.Ref(states[i + 1])
             for i in range(2) for a in AB for flag in ("up", "nup")}
    aut = AlternatingAutomaton(AB, states, "q0", delta)
    monkeypatch.setattr(explore, "NODE_BUDGET", 49)
    assert bounded_nonemptiness(ara_to_ipcant(aut)) is Nonemptiness.EMPTY
    monkeypatch.setattr(explore, "NODE_BUDGET", 48)
    assert bounded_nonemptiness(ara_to_ipcant(aut)) is Nonemptiness.UNKNOWN


def test_inclusion_unknown_when_a_checkpoint_search_is(abc, monkeypatch):
    """Each checkpoint search of a converged saturation that finds no run
    at the node budget makes the verdict UNKNOWN, not NOT_INCLUDED; the
    saturation itself is the same."""
    weaker = ltl_to_ara(parse_formula("G (down X G (b | c | nup)) & G a | G b | G c", abc), abc)
    stronger = ltl_to_ara(parse_formula("G (down X G (b | c | nup)) & G a | G b", abc), abc)
    res = inclusion_check(weaker, stronger)
    assert (res.verdict, res.explored, res.converged, res.checkpoints) == (
        Inclusion.NOT_INCLUDED, 309, True, 2)
    monkeypatch.setattr(explore, "NODE_BUDGET", 1)
    assert tuple(inclusion_check(weaker, stronger))[:4] == (Inclusion.UNKNOWN, 309, True, 2)


def test_bounds_below_one_are_refused(fig1):
    """Every search with a cap or vcap raises ValueError on one below 1.
    The parsed one-state machine with no transition has no run, so at cap 1
    it is empty."""
    machine = parse_machine("alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n")
    assert not machine.transitions
    for bad in ({"cap": 0}, {"cap": -1}, {"vcap": 0}):
        with pytest.raises(ValueError):
            bounded_nonemptiness(machine, **bad)
        with pytest.raises(ValueError):
            inclusion_check(fig1, fig1, **bad)
    assert bounded_nonemptiness(machine, cap=1) is Nonemptiness.EMPTY


def test_prefix_reachable_file_machine(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    assert prefix_reachable(machine, ("a", "a", "a"))
    assert not prefix_reachable(machine, ("a", "b"))


def test_prefix_reachable_explicit_machine_must_rest():
    # b reads q0 away from the register, but the current class's q0 has no
    # b move: the explicit cycle dies after its read instruction
    aut = AlternatingAutomaton(AB, ("q0",), "q0", {
        ("q0", "a", "up"): pb.And(pb.Ref("q0"), pb.DownRef("q0")),
        ("q0", "b", "nup"): pb.Ref("q0"),
    })
    for machine in (ara_to_ipcant(aut), ara_to_ipcant(aut).materialize()):
        assert not prefix_reachable(machine, ("b",))
        assert prefix_reachable(machine, ("a",))


def test_prefix_reachable_has_no_value_cap():
    """Each letter leaves one more p thread on an earlier class, so a word
    of n distinct data puts n - 1 tokens on one counter: past 64 letters
    prefix_reachable still answers as run_exists does, on the compiled
    machine and on its materialized one."""
    aut = parse_automaton("alphabet: a\nstates: q p\ninitial: q\n"
                          "q, a, * -> q & d(p)\np, a, nup -> p\n")
    for n in (66, 70):
        assert run_exists(aut, parse_word(" ".join("a@%d" % i for i in range(n)), aut.alphabet))
        for machine in (ara_to_ipcant(aut), ara_to_ipcant(aut).materialize()):
            assert prefix_reachable(machine, ("a",) * n), (n, machine)


def test_prefix_reachable_blocked_automaton():
    machine = ara_to_ipcant(_bot_automaton())
    assert not prefix_reachable(machine, ("a",))


@pytest.mark.parametrize("max_len", [3])
def test_prefix_reachable_matches_runs(fig1, abc, max_len):
    machine = ara_to_ipcant(fig1)
    for n in range(1, max_len + 1):
        for letters in product(abc.letters, repeat=n):
            got = prefix_reachable(machine, letters)
            want = any(run_exists(fig1, w) for w in _words_with_letters(letters))
            assert got == want, letters


def test_prefix_reachable_matches_runs_forker():
    aut = _forker()
    machine = ara_to_ipcant(aut)
    for n in range(1, 5):
        for letters in product(AB.letters, repeat=n):
            got = prefix_reachable(machine, letters)
            want = any(run_exists(aut, w) for w in _words_with_letters(letters))
            assert got == want, letters


def test_prefix_reachable_explicit_matches_compiled():
    """The materialized machine reaches rest after a letter string exactly
    when the compiled one does: its letter-free steps replay each letter
    cycle, and a string is read only once the search comes to rest."""
    rng = random.Random(13)
    strings = [s for n in range(1, 4) for s in product(AB.letters, repeat=n)]
    for trial in range(25):
        aut = randgen.random_automaton(rng, AB, max_states=2)
        compiled = ara_to_ipcant(aut)
        explicit = compiled.materialize()
        for letters in strings:
            assert (prefix_reachable(explicit, letters)
                    == prefix_reachable(compiled, letters)), (trial, letters)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hst.integers(0, 2 ** 32 - 1), hst.booleans())
def test_prefix_reachable_explicit_matches_compiled_property(seed, with_co):
    """The seeded comparison above as a property, on 1-2-state automata with
    and without a co-state and every string of length at most 3."""
    rng = random.Random(seed)
    aut = randgen.random_automaton(rng, AB, max_states=2)
    co = (rng.choice(aut.states),) if with_co else None
    compiled = ara_to_ipcant(aut, co_states=co)
    explicit = compiled.materialize()
    for letters in (s for n in range(4) for s in product(AB.letters, repeat=n)):
        assert prefix_reachable(explicit, letters) == prefix_reachable(compiled, letters), letters


def test_inclusion_self(fig1):
    res = inclusion_check(fig1, fig1)
    assert res.verdict is Inclusion.INCLUDED
    assert res.explored == 1275
    assert res.converged
    # the dual obligations never fully discharge along minimal configurations
    assert res.checkpoints == 0


def _kept(res):
    """The kept configurations of a SaturationResult as (control, valuation)
    pairs, control by control and, within one, in insertion order."""
    return tuple((control, sv) for control, chain in res.chains.items() for sv in chain)


def test_saturation_result_fields_and_repr(fig1):
    """fig1 in fig1: the five fields by name and in order, a repr without
    the chains, and no assignment."""
    res = inclusion_check(fig1, fig1)
    assert repr(res) == ("SaturationResult(verdict=<Inclusion.INCLUDED: 'included'>, "
                         "explored=1275, converged=True, checkpoints=0)")
    verdict, explored, converged, checkpoints, chains = res
    assert (verdict, explored, converged, checkpoints) == (
        res.verdict, res.explored, res.converged, res.checkpoints)
    assert chains is res.chains and len(chains) > 1
    with pytest.raises(AttributeError):
        res.explored = 0
    assert len(_kept(res)) > len(chains)


def test_inclusion_strict(fig1, top_automaton):
    res = inclusion_check(top_automaton, fig1)
    assert res.verdict is Inclusion.NOT_INCLUDED
    assert res.checkpoints >= 1
    assert inclusion_check(fig1, top_automaton).verdict is Inclusion.INCLUDED


def test_inclusion_formula_weakening(abc):
    phi = parse_formula("G (down X G (b | c | nup)) & G a | G b", abc)
    weaker = parse_formula("G (down X G (b | c | nup)) & G a | G b | G c", abc)
    a1 = ltl_to_ara(phi, abc)
    a2 = ltl_to_ara(weaker, abc)
    assert inclusion_check(a1, a2).verdict is Inclusion.INCLUDED


def test_inclusion_cap_exhaustion(fig1):
    res = inclusion_check(fig1, fig1, cap=50)
    assert res.verdict is Inclusion.UNKNOWN
    assert not res.converged
    assert res.explored == 53


def test_saturation_result_is_minimal(fig1, top_automaton):
    res = inclusion_check(top_automaton, fig1)
    assert _kept(res)
    by_control = {}
    for control, sv in _kept(res):
        assert all(n > 0 for _, n in sv)
        by_control.setdefault(control, []).append(sv)
    for chain in by_control.values():
        for i, small in enumerate(chain):
            for j, big in enumerate(chain):
                if i == j:
                    continue
                assert not all(dict(big).get(ci, 0) >= n for ci, n in small)


# the list-based antichain the saturation used before Antichain, kept as
# the reference that Antichain must agree with step by step
def _reference_dominated(chain, sv):
    for kept in chain:
        if all(dict(sv).get(ci, 0) >= n for ci, n in kept):
            return True
    return False


def _reference_prune(chain, sv):
    return [kept for kept in chain
            if not all(dict(kept).get(ci, 0) >= n for ci, n in sv)]


def test_antichain_matches_linear_reference():
    rng = random.Random(81)
    paths = {"subsets": 0, "groups": 0}
    for _ in range(150):
        chain, reference, offered = Antichain(), [], []
        counters = range(rng.randint(1, 8))
        for _ in range(rng.randint(1, 60)):
            support = rng.sample(counters, rng.randint(0, min(6, len(counters))))
            sv = tuple(sorted({ci: rng.randint(1, 3) for ci in support}.items()))
            groups = len({frozenset(dict(kept)) for kept in reference})
            paths["subsets" if 1 << len(sv) <= groups else "groups"] += 1
            dominated = _reference_dominated(reference, sv)
            assert chain.dominated(sv) == dominated
            offered.append(sv)
            if not dominated:
                reference = _reference_prune(reference, sv) + [sv]
                chain.add(sv)
            assert [id(kept) for kept in chain] == [id(kept) for kept in reference]
            assert [sv2 in chain for sv2 in offered] == \
                [any(sv2 == kept for kept in reference) for sv2 in offered]
    assert min(paths.values()) > 500, paths


def _reference_inclusion(a1, a2, cap, vcap=64):
    """The saturation on per-control lists with the linear scans."""
    aut, co_states = inclusion_product(a1, a2)
    machine = ara_to_ipcant(aut, co_states=co_states)
    control0, sv0 = machine.initial_config()
    chains = {control0: [sv0]}
    queue = deque([(control0, sv0, 1)])
    explored, truncated, converged = 0, False, True
    while queue:
        if explored >= cap:
            converged = False
            break
        control, sv, steps = queue.popleft()
        if sv not in chains.get(control, ()):
            continue
        explored += steps
        succ, cut = machine.config_successors(control, sv, None, vcap)
        truncated |= cut
        for _, control2, sv2, steps2 in succ:
            chain = chains.setdefault(control2, [])
            if not _reference_dominated(chain, sv2):
                chains[control2] = _reference_prune(chain, sv2) + [sv2]
                queue.append((control2, sv2, steps2))
    s_last = tuple((control, sv) for control, chain in chains.items() for sv in chain)
    checkpoints = [(control, sv) for control, sv in s_last if machine.is_checkpoint(control)]
    verdict = "UNKNOWN" if truncated or not converged else "INCLUDED"
    for start in checkpoints:
        r = bounded_nonemptiness(machine, cap=cap, vcap=vcap, start=start)
        if r is Nonemptiness.NONEMPTY:
            verdict = "NOT_INCLUDED"
            break
        if r is Nonemptiness.UNKNOWN:
            verdict = "UNKNOWN"
    return verdict, explored, converged, len(checkpoints), s_last


def test_inclusion_matches_list_reference(fig1, example_formula):
    ab, formula = example_formula
    queries = [(fig1, union(fig1, ltl_to_ara(formula, ab)))]
    rng = random.Random(82)
    for i in range(30):
        a = randgen.random_automaton(rng, AB, max_states=2)
        b = randgen.random_automaton(rng, AB, max_states=2)
        queries.append([(a, a), (intersect(a, b), a), (a, union(a, b)),
                        (union(a, b), a)][i % 4])
    verdicts = set()
    for a1, a2 in queries:
        res = inclusion_check(a1, a2, cap=2000)
        got = (res.verdict.name, res.explored, res.converged, res.checkpoints, _kept(res))
        assert got == _reference_inclusion(a1, a2, cap=2000)
        verdicts.add(res.verdict)
    assert len(verdicts) == 3


def _inclusion_queries(fig1, example_formula):
    ab, formula = example_formula
    queries = [(fig1, fig1), (fig1, union(fig1, ltl_to_ara(formula, ab)))]
    rng = random.Random(83)
    for i in range(40):
        a = randgen.random_automaton(rng, AB, max_states=2)
        b = randgen.random_automaton(rng, AB, max_states=2)
        queries.append([(a, a), (intersect(a, b), a), (a, union(a, b)),
                        (union(a, b), a), (a, b)][i % 5])
    return queries


def test_inclusion_on_built_product_gives_the_same_saturation(
        fig1, example_formula, monkeypatch):
    """The saturation on the machine of the built product (the reference
    route) answers alike, with the same counts and kept configurations."""
    queries = _inclusion_queries(fig1, example_formula)
    got = [inclusion_check(a1, a2, cap=2000) for a1, a2 in queries]
    monkeypatch.setattr(explore, "product_machine",
                        lambda a1, a2: ara_to_ipcant(*inclusion_product(a1, a2)))
    for (a1, a2), res in zip(queries, got):
        ref = inclusion_check(a1, a2, cap=2000)
        assert (res.verdict, res.explored, res.converged, res.checkpoints, _kept(res)) == (
            ref.verdict, ref.explored, ref.converged, ref.checkpoints, _kept(ref))
    assert {res.verdict for res in got} == set(Inclusion)


def test_inclusion_builds_no_product_automaton(fig1, example_formula, monkeypatch):
    """inclusion_check compiles the product from its two automata: no
    AlternatingAutomaton is built and no formula rebuilt on the way."""
    queries = _inclusion_queries(fig1, example_formula)
    calls = {"automaton": 0, "rebuild": 0}
    init, rebuild = AlternatingAutomaton.__init__, pb.rebuild

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(AlternatingAutomaton, "__init__", counted("automaton", init))
    monkeypatch.setattr(pb, "rebuild", counted("rebuild", rebuild))
    inclusion_product(fig1, fig1)
    assert calls["automaton"] == 2 and calls["rebuild"] > 0  # the guard counts
    calls.update(automaton=0, rebuild=0)
    for a1, a2 in queries:
        inclusion_check(a1, a2, cap=2000)
    assert calls == {"automaton": 0, "rebuild": 0}


def _random_explicit_machine(rng, shared=False):
    """Up to four states over a random structure; letter-free edges only go
    forward, so there is no letter-free cycle.  Some machines carry arbitrary
    (possibly non-distributive) transfers, with the check off.  With
    `shared`, the instructions are drawn from a small pool, so transitions
    share instruction objects, and the pool holds identity transfers: nop
    and a transfer mapping some counters to themselves."""
    st = random_structure(rng)
    states = ("s0", "s1", "s2", "s3")
    arbitrary = rng.random() < 0.5

    def draw():
        return (random_transfer(rng, st) if arbitrary and rng.random() < 0.5
                else random_instruction(rng, st))

    pool = None
    if shared:
        listed = rng.sample(st.counters, rng.randint(1, len(st.counters)))
        pool = [Transfer(()), Transfer(tuple((c, (c,)) for c in listed))]
        pool += [draw() for _ in range(rng.randint(1, 3))]
    transitions = []
    for _ in range(rng.randint(1, 10)):
        i, j = rng.randrange(4), rng.randrange(4)
        label = rng.choice(("a", "b", EPS))
        if label is EPS and i >= j:
            label = "a"
        instr = rng.choice(pool) if pool else draw()
        transitions.append(Transition(states[i], label, instr, states[j]))
    return CounterMachine(AB, states, "s0", st, transitions,
                          check_transfers="off" if arbitrary else "auto")


def _under(machine, lazy):
    """The machine's transitions, stepped under the given relation."""
    return CounterMachine(machine.alphabet, machine.states, machine.initial,
                          machine.structure, machine.transitions,
                          check_transfers="off", lazy=lazy)


def _assert_successors_match_dense_fire(rng, machine):
    """Per transition the same distinct results as the dense reference,
    sparse and positive, for both relations, with and without a letter."""
    st = machine.structure
    relations = {lazy: _under(machine, lazy) for lazy in (False, True)}
    for _ in range(4):
        v = random_valuation(rng, st, max_value=rng.choice((1, 3, 5)))
        sv = tuple((i, n) for i, n in enumerate(v.values) if n)
        for state in machine.states:
            outgoing = [t for t in machine.transitions if t.src == state]
            for lazy, stepped in relations.items():
                for letter in (None, "a"):
                    succ, truncated = successors(stepped, state, sv, vcap=64,
                                                 letter=letter)
                    assert not truncated
                    got = []
                    for label, dst, sv2, steps in succ:
                        assert steps == 1 and all(n > 0 for _, n in sv2)
                        values = tuple(dict(sv2).get(i, 0) for i in range(len(st.counters)))
                        got.append((label, dst, values))
                    want = []
                    for t in outgoing:
                        if letter is not None and t.label not in (EPS, letter):
                            continue
                        results = fire_lazy(v, t.instr) if lazy else fire(v, t.instr)
                        want += [(t.label, t.dst, v2.values) for v2 in results]
                    assert sorted(got, key=repr) == sorted(want, key=repr)


def test_explicit_successors_match_dense_fire():
    """The indexed kernel against the dense reference."""
    rng = random.Random(71)
    for _ in range(300):
        _assert_successors_match_dense_fire(rng, _random_explicit_machine(rng))


def test_explicit_successors_match_dense_fire_shared_identity():
    """As above, on machines whose transitions share instruction objects,
    identity transfers among them; an identity transfer returns the
    valuation itself, in transition order among the other steps."""
    rng = random.Random(73)
    identities = 0
    for _ in range(300):
        machine = _random_explicit_machine(rng, shared=True)
        _assert_successors_match_dense_fire(rng, machine)
        for t in machine.transitions:
            if isinstance(t.instr, Transfer) and all(d == (c,) for c, d in t.instr.entries):
                identities += 1
                sv = ((0, 2),)
                succ, _ = successors(_under(machine, False), t.src, sv, vcap=64)
                assert (t.label, t.dst, sv, 1) in succ
                assert any(s[:2] == (t.label, t.dst) and s[2] is sv for s in succ)
    assert identities > 100


def _product_order(sv, images):
    """Distinct transfer results in the order of the full product of
    compositions, counter by counter in index order."""
    moving = [(n, images[ci]) for ci, n in sv]
    out = {}
    for split in product(*(compositions(n, len(idxs)) for n, idxs in moving)):
        sv2 = {}
        for (n, idxs), parts in zip(moving, split):
            for j, part in zip(idxs, parts):
                if part:
                    sv2[j] = sv2.get(j, 0) + part
        out.setdefault(tuple(sorted(sv2.items())), None)
    return list(out)


def test_explicit_transfer_keeps_product_order():
    rng = random.Random(72)
    for _ in range(300):
        st = random_structure(rng)
        t = random_transfer(rng, st, empty_prob=0.0)
        machine = CounterMachine(AB, ("p",), "p", st, [Transition("p", "a", t, "p")],
                                 check_transfers="off")
        v = random_valuation(rng, st)
        sv = tuple((i, n) for i, n in enumerate(v.values) if n)
        succ, _ = successors(machine, "p", sv, vcap=64)
        images = [tuple(st.index[d] for d in image(t, c)) for c in st.counters]
        assert [sv2 for _, _, sv2, _ in succ] == \
            _product_order(sv, images)


def test_explicit_transfer_first_entry_wins():
    """A counter listed twice in a transfer moves by its first entry, as
    the dense reference reads it."""
    x, y = frozenset("x"), frozenset("y")
    st = CounterStructure(("x", "y"), (x, y))
    twice = Transfer(((x, (y,)), (x, (x,)), (y, (y,))))
    machine = CounterMachine(AB, ("p",), "p", st, [Transition("p", "a", twice, "p")],
                             check_transfers="off")
    assert successors(machine, "p", ((0, 2),), vcap=64)[0] == [("a", "p", ((1, 2),), 1)]
    assert [v.values for v in fire(valuation(st, {"x": 2}), twice)] == [(0, 2)]


def test_explicit_step_truncation(monkeypatch):
    x, y = frozenset("x"), frozenset("y")
    st = CounterStructure(("x", "y"), (x, y))
    spread = Transfer(((x, (x, y)), (y, (y,))))
    merge = Transfer(((x, (x,)), (y, (x,))))
    machine = CounterMachine(AB, ("p", "q", "r", "s"), "p", st, [
        Transition("p", "a", Inc(x), "p"),
        Transition("q", "a", spread, "q"),
        Transition("r", "a", merge, "r"),
        Transition("s", "a", Transfer(()), "s"),
        Transition("s", "b", Transfer(((x, (x,)),)), "s"),
    ], check_transfers="off")
    # an identity transfer returns a valuation within vcap and cuts one past it
    assert successors(machine, "s", ((0, 4),), vcap=4) == (
        [("a", "s", ((0, 4),), 1), ("b", "s", ((0, 4),), 1)], False)
    assert successors(machine, "s", ((0, 5), (1, 1)), vcap=4) == ([], True)
    # an increment past vcap is cut
    assert successors(machine, "p", ((0, 4),), vcap=4) == ([], True)
    assert successors(machine, "p", ((0, 3),), vcap=4)[0][0][2] == ((0, 4),)
    # tokens merged past vcap are cut, and only the results past it
    assert successors(machine, "r", ((0, 3), (1, 3)), vcap=5) == ([], True)
    succ, cut = successors(machine, "q", ((0, 6),), vcap=4)
    assert cut and [sv2 for _, _, sv2, _ in succ] == [
        ((0, 2), (1, 4)), ((0, 3), (1, 3)), ((0, 4), (1, 2))]
    # more splits than BRANCH_BUDGET are not enumerated
    assert successors(machine, "q", ((0, BRANCH_BUDGET),), vcap=10 ** 9) == ([], True)
    monkeypatch.setattr(ipcant.machine, "BRANCH_BUDGET", 6)
    succ, cut = successors(machine, "q", ((0, 5),), vcap=64)
    assert not cut and len(succ) == 6
    assert successors(machine, "q", ((0, 6),), vcap=64) == ([], True)


def _canonical(sv):
    """Is sv a valuation in the one form: a tuple of (counter index, positive
    count) pairs in strictly increasing index order?"""
    return (type(sv) is tuple
            and all(type(pair) is tuple and len(pair) == 2 and pair[1] > 0 for pair in sv)
            and all(a[0] < b[0] for a, b in zip(sv, sv[1:])))


def _is_identity(instr, counters):
    return isinstance(instr, Transfer) and all(tuple(image(instr, c)) == (c,) for c in counters)


def test_explicit_steps_keep_the_canonical_form():
    """Seeded explicit machines over randgen structures and instructions,
    under both relations: every valuation that config_successors and
    split_tokens return is canonical, and a nop (any identity transfer) or a
    lazy decrement of an empty counter returns the very valuation it was
    given."""
    rng = random.Random(91)
    steps = unchanged = 0
    for k in range(200):
        machine = _random_explicit_machine(rng, shared=k % 2 == 1)
        st = machine.structure
        for _ in range(3):
            v = random_valuation(rng, st)
            sv = tuple((i, n) for i, n in enumerate(v.values) if n)
            for lazy in (False, True):
                stepped = _under(machine, lazy)
                for state in machine.states:
                    for letter in (None, "a"):
                        succ, _ = stepped.config_successors(state, sv, letter, 64)
                        assert all(_canonical(sv2) for _, _, sv2, _ in succ)
            for t in machine.transitions:
                for lazy in (False, True):
                    one = CounterMachine(AB, ("p",), "p", st, [Transition("p", "a", t.instr, "p")],
                                         check_transfers="off", lazy=lazy)
                    succ, _ = one.config_successors("p", sv, None, UNCUT)
                    assert all(_canonical(sv2) for _, _, sv2, _ in succ)
                    steps += len(succ)
                    same = _is_identity(t.instr, st.counters) or (
                        lazy and isinstance(t.instr, Dec)
                        and st.index[t.instr.counter] not in dict(sv))
                    if same:
                        assert len(succ) == 1 and succ[0][2] is sv
                        unchanged += 1
                if isinstance(t.instr, Transfer):
                    images = [tuple((st.index[d], 0) for d in image(t.instr, c))
                              for c in st.counters]
                    outcomes, _ = split_tokens(sv, images.__getitem__)
                    assert all(_canonical(post) for _, post in outcomes)
    assert steps > 1000 and unchanged > 100, (steps, unchanged)


@pytest.mark.parametrize("with_co", [False, True])
def test_compiled_steps_keep_the_canonical_form(with_co):
    """Compiled 1-3-state randgen automata, with and without co-states:
    every valuation that a macro step or its read split returns, from the
    configurations reached within three letters, is canonical.  On the
    materialized machine, stepped lazily from those valuations, each nop and
    each decrement of an empty counter returns the very valuation it was
    given."""
    rng = random.Random(92)
    unchanged = 0
    for _ in range(20):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        co = None
        if with_co:
            co = tuple(q for q in aut.states if rng.random() < 0.5) or aut.states[-1:]
        cm = ara_to_ipcant(aut, co_states=co)
        frontier = {cm.initial_config()}
        reached = set(frontier)
        for _ in range(3):
            nxt = set()
            for control, sv in frontier:
                for a in AB:
                    splits, _ = split_tokens(sv, partial(cm.read_images, a))
                    assert all(_canonical(post) for _, post in splits)
                succ, _ = cm.config_successors(control, sv, None, 4)
                for _, control2, sv2, _ in succ:
                    assert _canonical(sv2)
                    nxt.add((control2, sv2))
            frontier = set(sorted(nxt)[:40])
            reached |= frontier
        m = cm.materialize()
        lazy = _under(m, True)
        by_src = {}
        for t in m.transitions:
            by_src.setdefault(t.src, []).append(t)
        for sv in {sv for _, sv in reached}:
            for src, ts in by_src.items():
                if not all(t.instr == Transfer(()) or isinstance(t.instr, Dec) for t in ts):
                    continue
                succ, _ = lazy.config_successors(src, sv, None, UNCUT)
                assert len(succ) == len(ts)  # one successor each under the lazy relation
                for t, (_, _, sv2, _) in zip(ts, succ):
                    if t.instr == Transfer(()) or \
                            m.structure.index[t.instr.counter] not in dict(sv):
                        assert sv2 is sv
                        unchanged += 1
                    else:
                        assert sv2 is not sv and _canonical(sv2)
    assert unchanged > 1000, unchanged
