from functools import partial
import hashlib
from itertools import combinations
import random
import re
import time

import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe.words import Alphabet, DataWord, canonicalize, enumerate_words, parse_word
from regsafe.ara import automaton
from regsafe.ara import posbool as pb
from regsafe.ara import (format_automaton, intersect, ltl_to_ara, parse_automaton,
                         run_exists, union)
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe import ltl
from regsafe.ltl import parse_formula, parse_formula_file
from regsafe.pipeline import (config_length, encode_tm_run, oracle_run_exists, parse_tm,
                              pattern_occurs, tm_alphabet, tm_to_formula)
from regsafe.pipeline.oracle import frontier_step, initial_configs, satisfying_pairs
from regsafe import memo, randgen
from regsafe.tree import fold
from regsafe.reference.ara import dual, dualize, inclusion_product, models_at
from regsafe.reference.ltl import random_sentence

AB = Alphabet(("a", "b"))


def test_satisfying_pairs_examples():
    phi = pb.And(pb.Ref("p"), pb.Or(pb.DownRef("q"), pb.Top()))
    pairs = satisfying_pairs(phi, ("p", "q"))
    assert (frozenset(["p"]), frozenset()) in pairs
    assert (frozenset(), frozenset(["q"])) not in pairs
    assert satisfying_pairs(pb.Bot(), ("p",)) == []
    assert satisfying_pairs(pb.Top(), ()) == [(frozenset(), frozenset())]


def _satisfies(phi, plain, fresh):
    """Whether the pair (plain, fresh) satisfies phi, evaluated on its own."""
    def leaf(g):
        kind = type(g)
        if kind is pb.Top or kind is pb.Bot:
            return kind is pb.Top
        return g.state in (plain if kind is pb.Ref else fresh)

    def join(g, lhs, rhs):
        return (lhs and rhs) if type(g) is pb.And else (lhs or rhs)

    return fold(phi, leaf, join)


def _pairs_by_definition(phi, states):
    """Every pair of sets of states, plain outer and fresh inner, each in
    size-then-state order, that satisfies phi when evaluated pair by pair."""
    subsets = [frozenset(c) for r in range(len(states) + 1) for c in combinations(states, r)]
    return [(plain, fresh) for plain in subsets for fresh in subsets
            if _satisfies(phi, plain, fresh)]


def _random_formula(rng, states, depth):
    """A random formula over states whose leaves include Top and Bot."""
    if depth <= 0 or rng.random() < 0.35:
        pick = rng.random()
        if pick < 0.1:
            return pb.Top()
        if pick < 0.2:
            return pb.Bot()
        return (pb.DownRef if rng.random() < 0.4 else pb.Ref)(rng.choice(states))
    return (pb.And if rng.random() < 0.5 else pb.Or)(_random_formula(rng, states, depth - 1),
                                                     _random_formula(rng, states, depth - 1))


def test_satisfying_pairs_match_the_definition():
    """The truth-table fold lists exactly the pairs that satisfy the formula
    one by one, in the same order: seeded formulas of 1 to 6 states, the
    constants, a chain deeper than the call stack and a row that shares its
    subformulas by reference."""
    rng = random.Random(48)
    for n, count in ((1, 60), (2, 60), (3, 60), (4, 20), (5, 8), (6, 4)):
        states = tuple(rng.sample(["q%d" % i for i in range(n)], n))  # any order
        for _ in range(count):
            phi = _random_formula(rng, states, 4)
            assert satisfying_pairs(phi, states) == _pairs_by_definition(phi, states), phi
        for phi in (pb.Top(), pb.Bot()):
            assert satisfying_pairs(phi, states) == _pairs_by_definition(phi, states)
    deep = pb.Or(pb.Ref("q"), _deep_chain(3000))
    assert satisfying_pairs(deep, ("p", "q")) == _pairs_by_definition(deep, ("p", "q"))
    shared = pb.Or(pb.DownRef("p"), pb.Ref("q"))
    for _ in range(24):
        shared = pb.And(shared, shared)  # 2^25 leaf places over 27 objects
    assert satisfying_pairs(shared, ("p", "q")) == _pairs_by_definition(shared, ("p", "q"))


def test_minimal_models_examples():
    bit = {"p": 1, "q": 2}
    phi = pb.And(pb.Ref("p"), pb.DownRef("q"))
    assert pb.minimal_models(phi, bit) == _as_masks([({"p"}, {"q"})], bit) == ((1, 2),)
    phi = pb.Or(pb.Ref("p"), pb.Ref("q"))
    assert pb.minimal_models(phi, bit) == _as_masks([({"p"}, ()), ({"q"}, ())], bit)
    assert pb.minimal_models(pb.Bot(), bit) == ()
    assert pb.minimal_models(pb.Top(), bit) == _as_masks([((), ())], bit) == ((0, 0),)


def _as_masks(models, bit):
    """Models given by state names as ascending (kept mask, refrozen mask)
    pairs."""
    return tuple(sorted((sum(bit[q] for q in plain), sum(bit[q] for q in fresh))
                        for plain, fresh in models))


def test_minimal_models_is_minimal_antichain_of_all_models():
    """Every minimal model satisfies, no model is below another, and every
    satisfying pair dominates some minimal one; seeded sweep."""
    rng = random.Random(4)
    states = ("p", "q", "r")
    for _ in range(300):
        phi = randgen._random_posbool(rng, states, 3)
        # any bit order
        order = rng.sample(states, len(states))
        bit = {q: 1 << i for i, q in enumerate(order)}
        mins = pb.minimal_models(phi, bit)
        # the dual fold gives the dual formula's models
        assert pb.minimal_models(phi, bit, dual=True) == pb.minimal_models(dual(phi), bit)
        alls = set(_as_masks(satisfying_pairs(phi, states), bit))
        for m in mins:
            assert m in alls
        for m in mins:
            for m2 in mins:
                if m != m2:
                    assert not (m[0] | m2[0] == m2[0] and m[1] | m2[1] == m2[1])
        for pair in alls:
            assert any(m[0] | pair[0] == pair[0] and m[1] | pair[1] == pair[1] for m in mins)
        if not alls:
            assert mins == ()


def test_minimal_models_mask_form_examples():
    bit = {"p": 1, "q": 2}
    phi = pb.Or(pb.And(pb.Ref("q"), pb.DownRef("p")), pb.Ref("p"))
    assert pb.minimal_models(phi, bit) == ((1, 0), (2, 1))
    assert pb.minimal_models(pb.Top(), bit) == ((0, 0),)
    assert pb.minimal_models(pb.Bot(), bit) == ()
    assert pb.minimal_models(pb.Or(pb.Ref("p"), pb.And(pb.Ref("p"), pb.Ref("q"))), bit) == (
        (1, 0),)


def test_dual_fold_of_constants_and_absent_rows():
    """Top and Bot trade models under the dual fold; an absent row is Bot,
    so its dual has the one empty model."""
    bit = {"p": 1, "q": 2}
    assert pb.minimal_models(pb.Top(), bit, dual=True) == ()
    assert pb.minimal_models(pb.Bot(), bit, dual=True) == pb.minimal_models(pb.Top(), bit)
    aut = AlternatingAutomaton(AB, ("p",), "p", {("p", "a", "up"): pb.Top()})
    for a in AB:
        for flag in ("up", "nup"):
            phi = aut.delta_at("p", a, flag)
            assert pb.minimal_models(phi, bit, dual=True) == pb.minimal_models(dual(phi), bit)
    assert pb.minimal_models(aut.delta_at("p", "b", "nup"), bit, dual=True) == ((0, 0),)
    phi = pb.Or(pb.And(pb.Ref("q"), pb.DownRef("p")), pb.Ref("p"))
    # dual: (q | d(p)) & p
    assert pb.minimal_models(phi, bit, dual=True) == ((1, 1), (3, 0))
    assert pb.conjoin_models(((1, 0), (2, 0)), ((0, 1), (1, 0))) == ((1, 0), (2, 1))
    assert pb.conjoin_models((), ((0, 0),)) == ()


def test_posbool_parse_format_round_trip():
    states = {"p", "q"}
    for text in ("p", "d(q)", "p & d(q)", "p | q & d(p)", "true", "false",
                 "(p | q) & d(q)"):
        phi = pb.parse_posbool(text, states)
        assert pb.parse_posbool(pb.format_posbool(phi), states) == phi
    with pytest.raises(ParseError):
        pb.parse_posbool("z", states)
    with pytest.raises(ParseError):
        pb.parse_posbool("p &", states)


def test_dual_is_involution_on_random_formulas():
    rng = random.Random(5)
    states = ("p", "q")
    for _ in range(200):
        phi = randgen._random_posbool(rng, states, 3)
        assert dual(dual(phi)) == phi


def test_automaton_validation(abc):
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p", "p"), "p", {})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "q", {})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "z", "up"): pb.Top()})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): pb.Ref("z")})
    with pytest.raises(ValidationError, match="transition from unknown state 'z'"):
        AlternatingAutomaton(abc, ("p",), "p", {("z", "a", "up"): pb.Top()})
    with pytest.raises(ValidationError, match="bad register flag 'down'"):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "down"): pb.Top()})
    # such a state would print as a constant or the down mark, and its
    # file would parse back as another automaton or not at all
    for word in ("true", "false", "d"):
        with pytest.raises(ValidationError, match="^state name '%s' is a formula keyword$" % word):
            AlternatingAutomaton(abc, ("p", word), "p", {("p", "a", "up"): pb.Ref(word)})


def test_automaton_validation_deep_formula(abc):
    # built directly, not parsed, and deeper than the call stack
    phi = pb.Ref("p")
    for _ in range(3000):
        phi = pb.And(pb.DownRef("p"), phi)
    aut = AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): phi})
    assert aut.delta_at("p", "a", "up") is phi

    def spine(g):
        # (node class, left leaf) down the right spine, then the last leaf
        out = []
        while isinstance(g, (pb.And, pb.Or)):
            out.append((type(g), type(g.lhs), g.lhs.state))
            g = g.rhs
        return out, (type(g), g.state)

    chain = [(pb.And, pb.DownRef, "p")] * 3000
    dual_chain = [(pb.Or, pb.DownRef, "p")] * 3000
    assert spine(dualize(aut).delta_at("p", "a", "up")) == (dual_chain, (pb.Ref, "p"))
    both = intersect(aut, aut)
    assert spine(both.delta_at("p", "a", "up")) == (chain, (pb.Ref, "p"))
    renamed = [(pb.And, pb.DownRef, "p_2")] * 3000
    assert spine(both.delta_at("p_2", "a", "up")) == (renamed, (pb.Ref, "p_2"))
    either = union(aut, aut)
    assert spine(either.delta_at("p_2", "a", "up")) == (renamed, (pb.Ref, "p_2"))
    assert isinstance(either.delta_at(either.initial, "a", "up"), pb.Or)
    product, co_states = inclusion_product(aut, aut)
    assert co_states == ("p_2",)
    assert spine(product.delta_at("p_2", "a", "up")) == (
        [(pb.Or, pb.DownRef, "p_2")] * 3000, (pb.Ref, "p_2"))
    with pytest.raises(ValidationError, match="references unknown state 'z'"):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): pb.Or(phi, pb.Ref("z"))})
    # the leftmost unknown reference is the one reported
    with pytest.raises(ValidationError, match="unknown state 'x'"):
        AlternatingAutomaton(abc, ("p",), "p",
                             {("p", "a", "up"): pb.And(pb.Ref("x"), pb.Ref("y"))})


def test_shared_subformulas_report_the_first_unknown_state():
    """A subformula object shared by several entries, or twice within one,
    is walked once per construction; the unknown state reported is still
    the first one, entry by entry and left to right."""
    ab = Alphabet(("a", "b"))
    fine = pb.And(pb.Ref("p"), pb.DownRef("p"))
    bad = pb.Or(fine, pb.DownRef("z"))
    keys = [("p", a, flag) for a in "ab" for flag in ("up", "nup")]
    AlternatingAutomaton(ab, ("p",), "p", {k: pb.And(fine, fine) for k in keys})
    with pytest.raises(ValidationError, match="^transition references unknown state 'z'$"):
        AlternatingAutomaton(ab, ("p",), "p", {k: pb.And(fine, bad) for k in keys})
    # the shared bad part of the first entry is met again, behind 'y', in
    # the second, and 'x' follows the shared fine part in the third
    for delta, state in (
            ({keys[0]: pb.Or(fine, bad), keys[1]: pb.And(pb.Ref("y"), bad)}, "z"),
            ({keys[0]: fine, keys[1]: pb.And(fine, pb.Or(pb.Ref("y"), bad))}, "y"),
            ({keys[0]: fine, keys[1]: pb.And(fine, fine), keys[2]: pb.Or(fine, pb.Ref("x")),
              keys[3]: bad}, "x")):
        with pytest.raises(ValidationError, match="unknown state '%s'" % state):
            AlternatingAutomaton(ab, ("p",), "p", delta)


def test_automaton_file_round_trip(fig1):
    text = format_automaton(fig1)
    again = parse_automaton(text)
    assert again.delta == fig1.delta
    assert format_automaton(again) == text


def test_fig1_examples(fig1, abc):
    assert not run_exists(fig1, parse_word("a@0 c@1 b@0", abc))
    assert run_exists(fig1, parse_word("a@0 c@1 b@1", abc))
    assert run_exists(fig1, parse_word("a@0 b@0 c@1", abc))
    assert run_exists(fig1, parse_word("b@0 c@0 a@1 c@2 c@1", abc))
    assert not run_exists(fig1, parse_word("b@0 a@1 c@2 b@1", abc))


def test_step_examples(fig1, abc):
    w = parse_word("a@0", abc)
    succ = frontier_step(w, 0, frozenset({("q", 0)}), partial(models_at, fig1))
    assert succ == {frozenset({("q", 0), ("q1", 0)})}
    assert frontier_step(w, 0, frozenset(), partial(models_at, fig1)) == {frozenset()}
    blocked = frontier_step(parse_word("b@0", abc), 0, frozenset({("q2", 0)}),
                            partial(models_at, fig1))
    assert blocked == set()


def test_initial_configs(fig1, abc):
    w = parse_word("b@0 a@1", abc)
    assert initial_configs(fig1, w) == frozenset({("q", 0)})


def test_run_exists_rejects_empty_word(fig1, abc):
    with pytest.raises(ValidationError):
        run_exists(fig1, DataWord((), ()))


def test_intersect_and_union_against_components(fig1, top_automaton, abc, bot_automaton):
    """Meet with the all-accepting automaton and join with the all-rejecting
    one both leave prefix acceptance unchanged."""
    assert len(intersect(fig1, fig1).states) == 7
    both = intersect(fig1, top_automaton)
    either = union(bot_automaton(abc), fig1)
    rng = random.Random(6)
    for _ in range(120):
        w = randgen.random_word(rng, abc, max_len=4)
        assert run_exists(both, w) == run_exists(fig1, w)
        assert run_exists(either, w) == run_exists(fig1, w)


def test_combine_renames_each_distinct_formula_once(fig1, example_formula, abc):
    """intersect and union rename each distinct formula object of their
    second automaton once, so the renamed entries share formula objects as
    the second automaton's own entries do."""
    _, f = example_formula
    example = ltl_to_ara(f, abc)

    def distinct(phis):
        return len({id(phi) for phi in phis})

    pairs = ((fig1, example), (example, example), (fig1, fig1))
    for a1, a2 in pairs:
        for combine in (intersect, union):
            both = combine(a1, a2)
            a2_entries = [phi for (q, _, _), phi in both.delta.items()
                          if q not in a1.states and q != both.initial]
            assert len(a2_entries) == len(a2.delta)
            assert distinct(a2_entries) == distinct(a2.delta.values()), (a1.states, a2.states)
    # example's entries share formulas, and the latter pairs rename every
    # state of their second automaton
    assert distinct(example.delta.values()) < len(example.delta)
    assert union(example, example).states[-1] == example.states[-1] + "_2"


def test_dualize_automaton_involution(fig1):
    again = dualize(dualize(fig1))
    assert again.states == fig1.states
    for key, phi in fig1.delta.items():
        assert again.delta_at(*key) == phi


def test_inclusion_product_shape(fig1, top_automaton):
    aut, co_states = inclusion_product(top_automaton, fig1)
    assert set(co_states) <= set(aut.states)
    assert len(co_states) == len(fig1.states)
    assert len(aut.states) == len(fig1.states) + len(top_automaton.states) + 1


def test_translation_state_counts(example_formula, abc):
    _, f = example_formula
    aut = ltl_to_ara(f, abc)
    assert len(aut.states) == 3
    assert len(ltl_to_ara(parse_formula("G a", AB), AB).states) == 1
    assert len(ltl_to_ara(parse_formula("a", AB), AB).states) == 1


def test_translation_rejects_open_formulas(abc):
    from regsafe.ltl import Up
    with pytest.raises(ValidationError):
        ltl_to_ara(Up(), abc)


def _distinct_nodes(aut):
    """The number of distinct node objects in the automaton's rows."""
    seen = set()
    todo = list(aut.delta.values())
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen.add(id(g))
            todo += g.fields if g.arity else ()
    return len(seen)


def test_shared_subformulas_translate_once():
    """And(f, f) nested 24 deep over X a is a tree of about 2^25 nodes over
    25 objects; the translation walks the objects, so it takes well under a
    second, where a walk of the tree takes tens of seconds.  So do the
    down-marked rows of down f and their renamed copies in intersect and
    union, which share their inner nodes as their sources do."""
    depth = 24
    f = ltl.Next(ltl.Atom("a"))
    for _ in range(depth):
        f = ltl.And(f, f)
    start = time.perf_counter()
    aut = ltl_to_ara(f, AB)
    assert time.perf_counter() - start < 1
    assert aut.states == ("s0", "s1") and aut.initial == "s0"
    assert aut.delta[("s1", "a", "up")] == pb.Top()
    assert ("s1", "b", "up") not in aut.delta
    phi = aut.delta[("s0", "a", "up")]
    for flag, a in (("nup", "a"), ("up", "b"), ("nup", "b")):
        assert aut.delta[("s0", a, flag)] is phi
    for _ in range(depth):
        assert type(phi) is pb.And and phi.lhs is phi.rhs
        phi = phi.lhs
    assert phi == pb.Ref("s1")
    start = time.perf_counter()
    aut = ltl_to_ara(ltl.Freeze(f), AB)
    both, either = intersect(aut, aut), union(aut, aut)
    assert time.perf_counter() - start < 1
    phi = aut.delta[(aut.initial, "a", "up")]
    for _ in range(depth - 1):
        assert type(phi) is pb.And and phi.lhs is phi.rhs
        phi = phi.lhs
    # leaves are copied at each place
    assert type(phi) is pb.And and phi.lhs == phi.rhs == pb.DownRef(phi.lhs.state)
    assert (frozenset(), frozenset([phi.lhs.state])) in satisfying_pairs(
        aut.delta[(aut.initial, "a", "up")], aut.states)
    distinct = _distinct_nodes(aut)
    assert distinct <= 3 * depth
    # each combined automaton holds the two copies and its initial rows,
    # one junction node over two shared rows per letter and flag
    for combined in (both, either):
        assert _distinct_nodes(combined) <= 2 * distinct + len(AB) * 3


def test_entries_share_rows_translate_once():
    """G nested 2000 deep over a, a Release(Bot(), .) chain: each G's row
    is its inner G's row and its own state, so every entry is a tail of the
    outermost one, millions of node places over a few thousand objects.
    Translating and validating walk each object once across all entries,
    well under a second; a walk per entry takes about 2 s."""
    depth = 2000
    f = ltl.Atom("a")
    for _ in range(depth):
        f = ltl.Release(ltl.Bot(), f)
    start = time.perf_counter()
    aut = ltl_to_ara(f, AB)
    assert time.perf_counter() - start < 1
    assert len(aut.states) == depth and len(aut.delta) == 2 * depth
    inner = aut.delta[("s%d" % (depth - 1), "a", "up")]
    assert inner == pb.Ref("s%d" % (depth - 1))
    for k in range(depth - 2, -1, -1):
        row = aut.delta[("s%d" % k, "a", "up")]
        assert aut.delta[("s%d" % k, "a", "nup")] is row
        assert row.lhs is inner and row.rhs == pb.Ref("s%d" % k)
        inner = row


def test_rows_without_register_tests_serve_both_flags(data_text):
    """A tracked subformula with no register test outside a binder gets one
    transition formula object for up and nup under each letter; the walk's
    unbound flags agree with ltl.is_sentence on every distinct subformula."""
    from regsafe.ara.translate import _index, _tracked
    formulas = []
    for name in ("bouncer.tm", "halting.tm"):
        tm = parse_tm(data_text(name))
        formulas.append((tm_to_formula(tm), tm_alphabet(tm)))
    rng = random.Random(25)
    abc = Alphabet(("a", "b", "c"))
    formulas += [(random_sentence(rng, abc, depth=1 + k % 6), abc) for k in range(200)]
    shared = split = 0
    for f, ab in formulas:
        subformulas, kids, unbound = _index(f)
        assert unbound == [not ltl.is_sentence(g) for g in subformulas]
        aut = ltl_to_ara(f, ab)
        for q, i in zip(aut.states, _tracked(subformulas, kids)):
            for a in ab:
                up, nup = aut.delta.get((q, a, "up")), aut.delta.get((q, a, "nup"))
                if not unbound[i]:
                    assert up is nup, (q, a)
                    shared += 1
                elif up is not nup:
                    split += 1
    assert shared > 1000 and split > 100, (shared, split)


def test_shared_free_register_test_is_refused():
    """A register test shared by reference between a place under a binder
    and one outside every binder is free, whichever the walk meets first."""
    s = ltl.Or(ltl.Up(), ltl.Atom("a"))
    for f in (ltl.And(ltl.Freeze(s), ltl.Next(s)), ltl.And(ltl.Next(s), ltl.Freeze(s)),
              ltl.Release(ltl.Freeze(ltl.Next(s)), s)):
        with pytest.raises(ValidationError, match="formula has a free register test"):
            ltl_to_ara(f, AB)
    bound = ltl_to_ara(ltl.Freeze(ltl.And(s, ltl.Next(s))), AB)
    assert bound.states == ("s0", "s1")


def test_pand_por_return_the_deciding_constant():
    """pand and por fold constants and make no node for them: the operand
    that decides the result, or the other one, is returned itself."""
    top, bot, p = pb.Top(), pb.Bot(), pb.Ref("p")
    assert pb.pand(bot, p) is bot and pb.pand(p, bot) is bot and pb.pand(top, bot) is bot
    assert pb.pand(top, p) is p and pb.pand(p, top) is p and pb.pand(top, top) == top
    assert pb.por(top, p) is top and pb.por(p, top) is top and pb.por(bot, top) is top
    assert pb.por(bot, p) is p and pb.por(p, bot) is p and pb.por(bot, bot) == bot
    assert pb.pand(p, p) == pb.And(p, p) and pb.por(p, p) == pb.Or(p, p)


def test_translated_example_matches_fig1(example_formula, fig1, abc):
    """The translated example accepts exactly the same prefixes as the
    hand-written automaton on a seeded sample."""
    _, f = example_formula
    aut = ltl_to_ara(f, abc)
    rng = random.Random(7)
    for _ in range(200):
        w = randgen.random_word(rng, abc, max_len=5, max_classes=3)
        assert run_exists(aut, w) == run_exists(fig1, w)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_translations_print_as_pinned(data_text):
    """The printed translations of the run-encoding formulas, the example
    and 300 seeded random sentences, pinned byte for byte: state names and
    order, the initial state, the order of the transitions and every
    transition formula.  None depends on PYTHONHASHSEED."""
    want = {"bouncer.tm": "f88861729533ce3fd932de2f5bf11b467b49ef3e68a7b4df7261fd9dc6466f70",
            "halting.tm": "f72d041585e766a17c313a8d2d10e9bd4a827ee786c2e00a60366dc4d2b61d83"}
    for name, digest in want.items():
        tm = parse_tm(data_text(name))
        aut = ltl_to_ara(tm_to_formula(tm), tm_alphabet(tm))
        assert _digest(format_automaton(aut)) == digest, name
    ab, f = parse_formula_file(data_text("example.ltl"))
    assert _digest(format_automaton(ltl_to_ara(f, ab))) == (
        "2928652bd17a21f115d2355d3c9b7f6c348522a8437426922610743e9aa1d9ab")
    rng = random.Random(24)
    abc = Alphabet(("a", "b", "c"))
    texts = [format_automaton(ltl_to_ara(random_sentence(rng, abc, depth=1 + k % 6), abc))
             for k in range(300)]
    assert _digest("".join(texts)) == (
        "ec993469ce2ada241b08c60fdd51cdbc536ed4539c428b787290b3146c85823b")


def test_deep_formulas_translate():
    """Formulas nested deeper than the call stack, built directly, translate
    and print in well under the gate: X^3000 a, one state per X, and the
    3000-deep chain a & down (up | b & down (up | ...)), whose every binder
    is satisfied at once."""
    f = ltl.Atom("a")
    for _ in range(3000):
        f = ltl.Next(f)
    chain = ltl.Up()
    for _ in range(3000):
        chain = ltl.Freeze(ltl.Or(ltl.Up(), ltl.And(ltl.Atom("b"), chain)))
    chain = ltl.And(ltl.Atom("a"), chain)
    start = time.perf_counter()
    nexts = format_automaton(ltl_to_ara(f, AB))
    chained = format_automaton(ltl_to_ara(chain, AB))
    assert time.perf_counter() - start < 5
    lines = nexts.splitlines()
    assert lines[:3] == ["alphabet: a b",
                         "states: " + " ".join("s%d" % i for i in range(3001)),
                         "initial: s0"]
    assert lines[3:] == ["s%d, %s, * -> s%d" % (i, a, i + 1) for i in range(3000) for a in "ab"] + [
        "s3000, a, * -> true"]
    assert chained == "alphabet: a b\nstates: s0\ninitial: s0\ns0, a, * -> true\n"


def _deep_chain(depth):
    # d(p) & (d(p) & ... & p), built directly, not parsed
    phi = pb.Ref("p")
    for _ in range(depth):
        phi = pb.And(pb.DownRef("p"), phi)
    return phi


def test_deep_formula_models_eval_format_run(abc):
    """Every posbool traversal on a formula deeper than the call stack."""
    phi = _deep_chain(3000)
    aut = AlternatingAutomaton(abc, ("p",), "p",
                               {("p", "a", flag): phi for flag in ("up", "nup")})
    both = (frozenset(["p"]), frozenset(["p"]))
    assert models_at(aut, "p", "a", "up") == (both,)
    bit = {"p": 2, "q": 1}
    assert pb.minimal_models(pb.Or(pb.Ref("p"), phi), bit) == _as_masks([({"p"}, ())], bit)
    assert pb.minimal_models(phi, bit) == _as_masks((both,), bit) == ((2, 2),)
    # its dual is an Or chain of 3000 d(p) ending in p, folded without
    # building it
    assert pb.minimal_models(phi, bit, dual=True) == pb.minimal_models(dual(phi), bit) == (
        (0, 2), (2, 0))
    wide = pb.Or(pb.DownRef("q"), pb.And(pb.Ref("q"), phi))
    assert pb.minimal_models(wide, bit) == _as_masks([((), {"q"}), ({"p", "q"}, {"p"})], bit) == (
        (0, 1), (3, 2))
    assert satisfying_pairs(phi, ("p",)) == [both]
    assert format_automaton(aut).splitlines()[3:] == [
        "p, a, * -> " + "d(p) & (" * 2999 + "d(p) & p" + ")" * 2999]
    assert run_exists(aut, parse_word("a@0 a@1 a@0 a@2", abc))
    assert not run_exists(aut, parse_word("a@0 a@1 b@0", abc))


def test_deep_formula_parse(abc):
    """The parser keeps its own stack: a formula nested deeper than the
    call stack parses back to the chain it was printed from, alone and in
    an automaton file."""
    phi = _deep_chain(3000)
    text = pb.format_posbool(phi)
    assert pb.parse_posbool(text, ("p",)) == phi
    aut = AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): phi})
    assert parse_automaton(format_automaton(aut)).delta_at("p", "a", "up") == phi
    with pytest.raises(ParseError, match="unexpected end of formula"):
        pb.parse_posbool(text[:-1], ("p",))
    with pytest.raises(ParseError, match=re.escape("expected ')'")):
        pb.parse_posbool(text[:-1] + " p", ("p",))


def test_deep_formula_equality_and_hash():
    """== and hash of And and Or keep their own stack, and give what a
    frozen dataclass's methods would: equal when of one class with equal
    sides, hashed as the tuple of the class tag and the sides."""
    phi = _deep_chain(3000)
    copy = pb.rebuild(phi, lambda g: g)
    assert copy is not phi
    assert copy == phi and not copy != phi
    assert hash(copy) == hash(phi)
    # the innermost leaf p becomes q
    changed = pb.rebuild(phi, lambda g: pb.Ref("q") if isinstance(g, pb.Ref) else g)
    assert changed != phi and not changed == phi
    assert dual(phi) != phi
    p, q = pb.Ref("p"), pb.DownRef("q")
    assert hash(pb.And(p, q)) == hash((pb.And.tag, p, q)) != hash(pb.Or(p, q))
    assert hash(pb.Or(pb.And(p, q), p)) == hash((pb.Or.tag, pb.And(p, q), p))
    assert pb.And(p, q) != pb.Or(p, q) and pb.And(p, q) != (p, q)
    assert {pb.And(p, q): 1}[pb.And(pb.Ref("p"), pb.DownRef("q"))] == 1


def test_posbool_parse_errors():
    states = ("p", "q")
    cases = [("", "unexpected end of formula", None), ("p &", "unexpected end of formula", None),
             ("p q", "trailing input 'q'", 2), ("(p q", "expected ')'", 3),
             ("p & | q", "unexpected '|'", 4), ("d p", "expected '(' after 'd'", 0),
             ("d(r)", "unknown state 'r'", 2), ("d(p q", "expected ')'", 4),
             ("(p | q) & r", "unknown state 'r'", 10), ("p$", "unexpected character '$'", 1),
             (")", "unexpected ')'", 0)]
    for text, message, position in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            pb.parse_posbool(text, states)
        assert err.value.position == position, text
    assert pb.parse_posbool("p | q & d(p) | true", states) == pb.Or(
        pb.Or(pb.Ref("p"), pb.And(pb.Ref("q"), pb.DownRef("p"))), pb.Top())
    assert pb.parse_posbool("((p)) & (q | false) & p", states) == pb.And(
        pb.And(pb.Ref("p"), pb.Or(pb.Ref("q"), pb.Bot())), pb.Ref("p"))


def test_format_posbool_parenthesizes_by_precedence():
    p, q, r = pb.Ref("p"), pb.Ref("q"), pb.DownRef("r")
    assert pb.format_posbool(pb.And(pb.Or(p, q), r)) == "(p | q) & d(r)"
    assert pb.format_posbool(pb.And(p, pb.And(q, r))) == "p & (q & d(r))"
    assert pb.format_posbool(pb.And(pb.And(p, q), r)) == "p & q & d(r)"
    assert pb.format_posbool(pb.Or(p, pb.Or(q, r))) == "p | (q | d(r))"
    assert pb.format_posbool(pb.Or(pb.And(p, q), pb.Or(q, r))) == "p & q | (q | d(r))"
    assert pb.format_posbool(pb.Or(pb.Top(), pb.Bot())) == "true | false"
    with pytest.raises(TypeError):
        pb.format_posbool(pb.And(p, "q"))


def _frontier_reference(aut, w):
    """Test-only reference: the definition run forwards on the frontier of
    configuration sets, which shares nothing with run_exists's backward pass
    of alive masks but the minimal models.  Each position steps every set of
    the frontier by `frontier_step` on minimal models and keeps the
    inclusion-minimal successors."""
    frontier = [initial_configs(aut, w)]
    for i in range(len(w)):
        nxt = set()
        for configs in frontier:
            nxt |= frontier_step(w, i, configs, partial(models_at, aut))
        if not nxt:
            return False
        kept = []
        for s in sorted(nxt, key=len):
            if not any(k <= s for k in kept):
                kept.append(s)
        frontier = kept
    return True


def test_run_exists_matches_frontier_reference_random():
    rng = random.Random(9)
    seen = set()
    for trial in range(2000):
        aut = randgen.random_automaton(rng, AB, max_states=4,
                                       bot_prob=(0.25, 0.05)[trial % 2])
        for _ in range(3):
            w = randgen.random_word(rng, AB, max_len=8)
            want = _frontier_reference(aut, w)
            assert run_exists(aut, w) == want, (trial, w)
            seen.add((want, len(w) >= 7))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_run_exists_matches_frontier_reference_all_short_words(example_formula, fig1, abc):
    _, f = example_formula
    words = list(enumerate_words(abc, 4, 4))
    for aut in (fig1, ltl_to_ara(f, abc)):
        answers = [run_exists(aut, w) for w in words]
        assert answers == [_frontier_reference(aut, w) for w in words]
        assert 0 < answers.count(False) < len(words)


def test_run_exists_long_word(top_automaton, abc):
    """Threads go 5000 positions deep; the pass is a loop, not a recursion."""
    w = DataWord(("a",) * 5000, (0,) * 5000)
    assert run_exists(top_automaton, w)
    keep = parse_automaton("alphabet: a b c\nstates: s\ninitial: s\n"
                           "s, a, * -> s & d(s)\n")
    assert run_exists(keep, w)
    assert run_exists(keep, DataWord(("a",) * 5000, tuple(i % 2 for i in range(5000))))
    assert not run_exists(keep, DataWord(("a",) * 4999 + ("b",), (0,) * 5000))


def test_run_exists_matches_oracle_on_fresh_and_single_class_words():
    """Seeded 1-4-state automata against the brute-force thread search on
    the two class shapes at the ends of the range: every position opening a
    fresh class (a halting continuation's shape, one mask per class seen),
    and one class throughout, up to 12 letters (only the here mask); and
    between them, classes drawn freely over 9-24 letters, so that many
    classes are live at once and their masks are stepped in place."""
    rng = random.Random(31)
    seen = set()
    for trial in range(300):
        aut = randgen.random_automaton(rng, AB, max_states=4,
                                       bot_prob=(0.25, 0.05)[trial % 2])
        n = rng.randint(1, 8)
        fresh = DataWord(tuple(rng.choice(AB.letters) for _ in range(n)), tuple(range(n)))
        n = rng.randint(1, 12)
        single = DataWord(tuple(rng.choice(AB.letters) for _ in range(n)), (0,) * n)
        free = randgen.random_word(rng, AB, max_len=24)
        while len(free) < 9:
            free = randgen.random_word(rng, AB, max_len=24)
        for shape, w in (("fresh", fresh), ("single", single), ("free", free)):
            want = oracle_run_exists(aut, w, max_len=24)
            assert run_exists(aut, w) == want, (trial, shape, w)
            seen.add((shape, want, len(w) >= 6))
    assert seen == {(shape, want, long) for shape in ("fresh", "single")
                    for want in (False, True) for long in (False, True)} | {
                        ("free", want, True) for want in (False, True)}


def _ask(aut, words, backwards=False):
    """run_exists on each word, in the given order or reversed, answered in
    the given order."""
    order = list(reversed(words)) if backwards else words
    answers = {w: run_exists(aut, w) for w in order}
    return [answers[w] for w in words]


def test_run_exists_answers_do_not_depend_on_the_memo(fig1, abc, data_text):
    """fig1's 4-letter words and the prefixes of bouncer's run and of a
    corrupted copy get the same answers asked forwards on a cold automaton,
    then reversed on the warm one, then reversed on a fresh parsed copy."""
    bouncer = parse_tm(data_text("bouncer.tm"))
    run = encode_tm_run(bouncer, 3)
    letters = list(run.letters)
    stride = config_length(bouncer)
    letters[stride] = "r0" if letters[stride] == "r1" else "r1"
    broken = canonicalize(letters, run.classes)
    runs = [w.prefix(i) for w in (run, broken) for i in range(1, len(w) + 1)]
    words = list(enumerate_words(abc, 4, 4))
    bouncer_aut = ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer))
    for aut, ws in ((fig1, words), (bouncer_aut, runs)):
        text = format_automaton(aut)
        cold = parse_automaton(text)
        forwards = _ask(cold, ws)
        assert _ask(cold, ws, backwards=True) == forwards
        assert _ask(parse_automaton(text), ws, backwards=True) == forwards
        assert 0 < forwards.count(False) < len(ws)
    assert _ask(fig1, words) == [not pattern_occurs(w, "a", "c", "b") for w in words]
    assert _ask(bouncer_aut, runs)[:len(run)] == [True] * len(run)


def test_run_exists_letter_outside_the_alphabet(fig1, top_automaton):
    """A thread that must read a letter outside the alphabet dies; one that
    ended before it never reads it."""
    for aut in (fig1, top_automaton):
        assert not run_exists(aut, DataWord(("z",), (0,)))
        assert not run_exists(aut, DataWord(("z", "a"), (0, 0)))
    assert not run_exists(fig1, DataWord(("a", "z"), (0, 1)))
    assert run_exists(top_automaton, DataWord(("a", "z"), (0, 1)))
    assert run_exists(top_automaton, DataWord(("a", "b", "z"), (0, 1, 0)))


def _step_memos(aut):
    """The _Step memos of both register flags' tables of aut."""
    up, nup, _ = aut._steps
    return [step for table in (up, nup) for step in table.values()]


def test_step_key_matches_the_models():
    """On seeded 1-3-state random automata, the entry of a letter's _Step
    under a flag at s_c | s_here << n is, for every pair of state sets, the
    set of states with a minimal model whose kept states lie in s_c and
    whose refrozen states lie in s_here."""
    rng = random.Random(26)
    sizes = set()
    for _ in range(40):
        aut = randgen.random_automaton(rng, AB, max_states=3)
        n = len(aut.states)
        sizes.add(n)
        subsets = [frozenset(q for i, q in enumerate(aut.states) if s >> i & 1)
                   for s in range(1 << n)]
        for a in AB.letters:
            for flag in automaton.FLAGS:
                step = automaton._Steps(aut.states, aut.delta, flag)[a]
                for s_c, kept_ok in enumerate(subsets):
                    for s_here, refrozen_ok in enumerate(subsets):
                        want = sum(1 << i for i, q in enumerate(aut.states)
                                   if any(kept <= kept_ok and refrozen <= refrozen_ok
                                          for kept, refrozen in models_at(aut, q, a, flag)))
                        assert step[s_c | s_here << n] == want, (aut.states, a, flag, s_c, s_here)
    assert sizes == {1, 2, 3}


def test_step_memo_stays_within_its_bound(data_text, monkeypatch):
    """A few hundred long words of the halting formula's automaton, the
    prefixes of its run and continuations of it with classes drawn freely,
    overflow its step memos: unbounded, some memo holds more than 1024
    entries.  With regsafe.memo.BOUND at 1024 while the words are asked,
    none does, and the answers are the same."""
    bound = 1024
    halting = parse_tm(data_text("halting.tm"))
    text = format_automaton(ltl_to_ara(tm_to_formula(halting), tm_alphabet(halting)))
    run = encode_tm_run(halting, 0)
    alphabet = tm_alphabet(halting).letters
    rng = random.Random(43)
    words = {run.prefix(i): None for i in range(1, len(run) + 1)}
    while len(words) < 300:
        n = rng.randint(1, 2 * len(run))
        labels = list(run.classes) + [rng.randrange(len(run) + n) for _ in range(n)]
        words[canonicalize(list(run.letters) + [rng.choice(alphabet) for _ in range(n)],
                           labels)] = None
    words = list(words)
    monkeypatch.setattr(memo, "BOUND", bound)
    bounded = parse_automaton(text)
    answers = _ask(bounded, words)
    assert max(len(step) for step in _step_memos(bounded)) <= bound
    assert 0 < answers.count(True) < len(words)
    monkeypatch.setattr(memo, "BOUND", 10 ** 9)
    unbounded = parse_automaton(text)
    assert _ask(unbounded, words, backwards=True) == answers
    assert max(len(step) for step in _step_memos(unbounded)) > bound


def _line_by_line(text):
    """The transition table of an automaton file with every formula parsed
    from its own line; the file's first three lines are its headers, as
    format_automaton prints them."""
    lines = text.splitlines()
    known = set(lines[1].split()[1:])
    delta = {}
    for line in lines[3:]:
        if "->" not in line:
            continue
        head, _, body = line.partition("->")
        q, a, flag = (p.strip() for p in head.split(","))
        for fl in (automaton.FLAGS if flag == "*" else (flag,)):
            delta[(q, a, fl)] = pb.parse_posbool(body.strip(), known)
    return delta


def test_parse_automaton_parses_each_formula_text_once(data_text):
    """The bouncer formula's automaton and seeded random ones: one formula
    object per distinct formula text, and the same table as a parse of every
    line on its own."""
    bouncer = parse_tm(data_text("bouncer.tm"))
    rng = random.Random(31)
    texts = [format_automaton(ltl_to_ara(tm_to_formula(bouncer), tm_alphabet(bouncer)))]
    texts += [format_automaton(randgen.random_automaton(rng, AB, max_states=3))
              for _ in range(100)]
    shared = 0
    for text in texts:
        aut = parse_automaton(text)
        bodies = {line.partition("->")[2].strip() for line in text.splitlines()[3:]}
        assert len({id(phi) for phi in aut.delta.values()}) == len(bodies)
        assert aut.delta == _line_by_line(text)
        shared += len(bodies) < len(text.splitlines()) - 3
    assert shared > 10


def test_repeated_bad_formula_is_named_at_its_first_line():
    head = "alphabet: a b\nstates: p q\ninitial: p\n"
    text = head + "p, a, up -> q\np, b, * ->  q & x\nq, a, * -> p\nq, b, * -> q & x\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert str(err.value) == "line 5, column 17: unknown state 'x'"
    # a repeated bad text whose error has no position, after a repeated good one
    text = head + "p, a, * -> p | q\np, b, * -> p | q\nq, a, * -> (q\nq, b, * -> (q\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert str(err.value) == "line 6: unexpected end of formula"
