"""End-to-end acceptance checks, one test per criterion.

Each test prints a one-line summary and enforces its own wall-clock budget.
The random checks are seeded, so reruns are reproducible.
"""

import math
import random
import time
from itertools import product

from regsafe.words import Alphabet, canonicalize, enumerate_words
from regsafe.ara import ltl_to_ara, run_exists
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.ipcant import (CounterMachine, CounterStructure, Inc, Transfer,
                            bound_params, check_distributive, ifz_cap)
from regsafe import ltl
from regsafe.pipeline import (Inclusion, ara_to_ipcant, config_length,
                              encode_tm_run, inclusion_check, oracle_run_exists,
                              parse_tm, pattern_occurs, prefix_reachable,
                              tm_alphabet, tm_to_formula)
from regsafe import randgen
from regsafe.reference.ipcant import (Valuation, embedded_valuation, fire, fire_lazy,
                                      random_distributive_transfer, random_instruction,
                                      random_structure, random_valuation, sqsse, sub_valuation)
from regsafe.reference.ltl import random_sentence

AB = Alphabet(("a", "b"))


def test_criterion_01_example_agreement(fig1, example_formula):
    started = time.time()
    ab, formula = example_formula
    translated = ltl_to_ara(formula, ab)
    words = list(enumerate_words(ab, 5, 3))
    assert len(words) == 11253
    for w in words:
        by_figure = run_exists(fig1, w)
        by_formula = run_exists(translated, w)
        by_pattern = not pattern_occurs(w, "a", "c", "b")
        assert by_figure == by_formula == by_pattern, w
    elapsed = time.time() - started
    print("criterion 1: three routes agree on %d words (%.1fs)"
          % (len(words), elapsed))
    assert elapsed < 30


def test_criterion_02_translation_state_count(fig1, example_formula):
    started = time.time()
    ab, formula = example_formula
    translated = ltl_to_ara(formula, ab)
    assert len(translated.states) == 3
    assert len(fig1.states) == 3
    elapsed = time.time() - started
    print("criterion 2: translation has exactly 3 states (%.2fs)" % elapsed)
    assert elapsed < 1


def _powerset_counters(basis):
    out = []
    for bits in range(1, 1 << len(basis)):
        out.append(frozenset(basis[i] for i in range(len(basis))
                             if bits >> i & 1))
    return tuple(out)


def _all_one_state_automata(letters):
    q = "q0"
    choices = (None, pb.Top(), pb.Ref(q), pb.DownRef(q),
               pb.And(pb.Ref(q), pb.DownRef(q)),
               pb.Or(pb.Ref(q), pb.DownRef(q)))
    keys = [(q, a, flag) for a in letters for flag in ("up", "nup")]
    for assignment in product(choices, repeat=len(keys)):
        delta = {k: c for k, c in zip(keys, assignment) if c is not None}
        yield AlternatingAutomaton(Alphabet(letters), (q,), q, delta)


def _machine_transfers_distributive(aut):
    machine = ara_to_ipcant(aut).materialize()
    counters = machine.structure.counters
    for t in machine.transitions:
        if isinstance(t.instr, Transfer):
            if not check_distributive(t.instr.as_map(counters), counters):
                return False
    return True


def test_criterion_03_distributivity_suite():
    started = time.time()
    # zero-test maps over full powerset counter sets
    zero_maps = 0
    for size in range(1, 5):
        basis = tuple("xyzw"[:size])
        counters = _powerset_counters(basis)
        for bits in range(1 << size):
            y = {basis[i] for i in range(size) if bits >> i & 1}
            f = ifz_cap(y, counters).as_map(counters)
            assert check_distributive(f, counters), (basis, y)
            zero_maps += 1
    # arbitrary maps over structures whose counters are singletons
    rng = random.Random(31)
    singleton_maps = 0
    for _ in range(100000):
        size = rng.randint(1, 3)
        counters = tuple(frozenset([b]) for b in "xyz"[:size])
        f = {c: tuple(rng.choice(counters) for _ in range(rng.randint(0, 3)))
             for c in counters}
        assert check_distributive(f, counters), f
        singleton_maps += 1
    # every transfer a compiled machine carries, exhaustively for one state
    compiled = 0
    for letters in (("a",), ("a", "b")):
        for aut in _all_one_state_automata(letters):
            assert _machine_transfers_distributive(aut), aut.delta
            compiled += 1
    # and for a seeded sample of two-state automata
    rng = random.Random(32)
    sampled = 0
    while sampled < 60:
        aut = randgen.random_automaton(rng, AB, max_states=2)
        if len(aut.states) != 2:
            continue
        assert _machine_transfers_distributive(aut), aut.delta
        sampled += 1
    # the non-distributive witness map is recognized as such
    x, y, xy = frozenset("x"), frozenset("y"), frozenset("xy")
    witness = {x: (x,), y: (y,), xy: ()}
    assert not check_distributive(witness, (x, y, xy))
    elapsed = time.time() - started
    print("criterion 3: %d zero-test, %d singleton, %d compiled maps "
          "distributive; witness rejected (%.1fs)"
          % (zero_maps, singleton_maps, compiled + sampled, elapsed))
    assert elapsed < 60


def test_criterion_04_bound_recurrence(data_text):
    started = time.time()
    from regsafe.ipcant import parse_machine
    tiny = parse_machine(data_text("tiny.cm"))
    assert bound_params(*tiny.bound_counts()).m == 12
    structure = CounterStructure(("x",), (frozenset("x"),))
    two = CounterMachine(Alphabet(("a",)), ("p", "q"), "p", structure,
                         (), check_transfers="off")
    assert bound_params(*two.bound_counts()).m == 48
    rng = random.Random(14)
    for _ in range(50):
        q = rng.randint(1, 4)
        x = rng.randint(0, 3)
        c = rng.randint(0, 2 ** x - 1) if x else 0
        m = bound_params(q, x, c).m
        exponent = 2 ** (2 * x * x + x) * math.log2(3 * q)
        assert math.log2(m) < exponent, (q, x, c)
    elapsed = time.time() - started
    print("criterion 4: m=12 and m=48 reproduced; ceiling holds on 50 "
          "parameter sets (%.2fs)" % elapsed)
    assert elapsed < 1


def _drift(rng, v):
    values = list(v.values)
    for i in range(len(values)):
        if rng.random() < 0.3:
            values[i] += rng.randint(1, 2)
    return Valuation(v.structure, tuple(values))


def _leq(v1, v2):
    return all(a <= b for a, b in zip(v1.values, v2.values))


def test_criterion_05_order_compatibility_suites():
    started = time.time()
    rng = random.Random(41)
    lazy_trials = 0
    for _ in range(10000):
        structure = random_structure(rng, max_basis=3, max_counters=4)
        v = random_valuation(rng, structure, max_value=3)
        instr = random_instruction(rng, structure)
        mid = _drift(rng, v)
        fired = sorted(fire(mid, instr), key=lambda u: u.values)
        lazy_trials += 1
        if not fired:
            continue  # the drifted transition is blocked: nothing to match
        v_err = _drift(rng, fired[rng.randrange(len(fired))])
        v_dag = sub_valuation(rng, v)
        assert any(_leq(u, v_err) for u in fire_lazy(v_dag, instr)), (
            v.values, v_dag.values, instr, v_err.values)
    rng = random.Random(42)
    embed_trials = 0
    for _ in range(10000):
        structure = random_structure(rng, max_basis=3, max_counters=4)
        v = random_valuation(rng, structure, max_value=3)
        v_surd = embedded_valuation(rng, v)
        assert sqsse(v_surd, v)
        transfer = random_distributive_transfer(rng, structure)
        embed_trials += 1
        for v2 in fire(v, transfer):
            assert any(sqsse(u, v2) for u in fire(v_surd, transfer)), (
                v.values, v_surd.values, transfer, v2.values)
    elapsed = time.time() - started
    print("criterion 5: %d lazy and %d embedding trials, zero "
          "counterexamples (%.1fs)" % (lazy_trials, embed_trials, elapsed))
    assert elapsed < 60


def _string_has_partial_run(aut, letters):
    seen = set()
    for labels in product(range(len(letters)), repeat=len(letters)):
        w = canonicalize(letters, labels)
        if w.classes in seen:
            continue
        seen.add(w.classes)
        if run_exists(aut, w):
            return True
    return False


def test_criterion_06_compilation_prefix_soundness():
    started = time.time()
    rng = random.Random(51)
    strings = [s for n in range(1, 5) for s in product(AB.letters, repeat=n)]
    for trial in range(20):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        machine = ara_to_ipcant(aut)
        for letters in strings:
            got = prefix_reachable(machine, letters)
            want = _string_has_partial_run(aut, letters)
            assert got == want, (trial, letters)
    elapsed = time.time() - started
    print("criterion 6: 20 automata x %d strings agree with data-word runs "
          "(%.1fs)" % (len(strings), elapsed))
    assert elapsed < 300


def test_criterion_07_inclusion_and_refinement(fig1, top_automaton,
                                               example_formula):
    started = time.time()
    ab, formula = example_formula
    corpus = (fig1, top_automaton, ltl_to_ara(formula, ab))
    for aut in corpus:
        assert inclusion_check(aut, aut).verdict is Inclusion.INCLUDED
    assert inclusion_check(top_automaton, fig1).verdict is Inclusion.NOT_INCLUDED
    rng = random.Random(61)
    pairs = 0
    while pairs < 20:
        f1 = random_sentence(rng, AB)
        f2 = random_sentence(rng, AB)
        lhs = ltl_to_ara(ltl.And(f1, f2), AB)
        rhs = ltl_to_ara(f1, AB)
        if len(lhs.states) + len(rhs.states) + 1 > 9:
            continue  # keep the compiled product small enough to saturate
        res = inclusion_check(lhs, rhs)
        assert res.verdict is Inclusion.INCLUDED, (f1, f2, res.verdict)
        pairs += 1
    elapsed = time.time() - started
    print("criterion 7: corpus self-inclusions, strict pair and %d "
          "refinement pairs all correct (%.1fs)" % (pairs, elapsed))
    assert elapsed < 300


def test_criterion_08_machine_run_encodings(data_text):
    started = time.time()
    bouncer = parse_tm(data_text("bouncer.tm"))
    aut = ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer))
    w = encode_tm_run(bouncer, 2)
    assert len(w) == 3 * config_length(bouncer)
    for i in range(1, len(w) + 1):
        assert run_exists(aut, w.prefix(i)), i
    spot = w.prefix(13)
    assert ltl.evaluate_prefix(tm_to_formula(bouncer), spot) is \
        ltl.PrefixVerdict.UNDETERMINED

    halting = parse_tm(data_text("halting.tm"))
    haut = ltl_to_ara(tm_to_formula(halting), tm_alphabet(halting))
    halt_word = encode_tm_run(halting, 0)
    stride = config_length(halting)
    assert run_exists(haut, halt_word)
    rng = random.Random(71)
    continuations = [list(halt_word.letters)]
    hab = tm_alphabet(halting)
    for _ in range(10):
        continuations.append(
            [rng.choice(hab.letters) for _ in range(stride)])
    worst = 0
    for cont in continuations:
        letters = list(halt_word.letters) + cont
        labels = [("old", c) for c in halt_word.classes]
        labels += [("new", i) for i in range(len(cont))]
        extended = canonicalize(letters, labels)
        broke = None
        for i in range(len(halt_word) + 1, len(extended) + 1):
            if not run_exists(haut, extended.prefix(i)):
                broke = i - len(halt_word)
                break
        assert broke is not None, cont
        assert broke <= stride, (cont, broke)
        worst = max(worst, broke)
    elapsed = time.time() - started
    print("criterion 8: bouncer prefixes all consistent; halting machine "
          "falsified within %d letters (%.1fs)" % (worst, elapsed))
    assert elapsed < 60


def test_criterion_09_oracle_equivalence():
    started = time.time()
    rng = random.Random(81)
    for trial in range(1000):
        aut = randgen.random_automaton(rng, AB, max_states=4)
        w = randgen.random_word(rng, AB, 6)
        assert run_exists(aut, w) == oracle_run_exists(aut, w), trial
    elapsed = time.time() - started
    print("criterion 9: 1000 seeded pairs agree across both procedures "
          "(%.1fs)" % elapsed)
    assert elapsed < 60
