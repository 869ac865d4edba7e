import random
import re

import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe.words import Alphabet, DataWord, enumerate_words, parse_word
from regsafe.ara import posbool as pb
from regsafe.ara import (dualize, format_automaton, inclusion_product,
                         intersect, ltl_to_ara, parse_automaton, run_exists,
                         step, union)
from regsafe.ara.automaton import AlternatingAutomaton, initial_configs
from regsafe.ltl import parse_formula
from regsafe.pipeline.oracle import _all_pairs
from regsafe import randgen

AB = Alphabet(("a", "b"))


def _bot_automaton(alphabet):
    return AlternatingAutomaton(alphabet, ("z",), "z", {})


def test_eval_posbool():
    phi = pb.And(pb.Ref("p"), pb.Or(pb.DownRef("q"), pb.Top()))
    assert pb.eval_posbool(phi, (frozenset(["p"]), frozenset()))
    assert not pb.eval_posbool(phi, (frozenset(), frozenset(["q"])))
    assert pb.eval_posbool(pb.Bot(), (frozenset(["p"]), frozenset())) is False
    assert pb.eval_posbool(pb.Top(), (frozenset(), frozenset()))


def test_minimal_models_examples():
    phi = pb.And(pb.Ref("p"), pb.DownRef("q"))
    assert pb.minimal_models(phi) == ((frozenset(["p"]), frozenset(["q"])),)
    phi = pb.Or(pb.Ref("p"), pb.Ref("q"))
    assert set(pb.minimal_models(phi)) == {
        (frozenset(["p"]), frozenset()), (frozenset(["q"]), frozenset())}
    assert pb.minimal_models(pb.Bot()) == ()
    assert pb.minimal_models(pb.Top()) == ((frozenset(), frozenset()),)


def test_minimal_models_is_minimal_antichain_of_all_models():
    """Every minimal model satisfies, no model is below another, and every
    satisfying pair dominates some minimal one; seeded sweep."""
    rng = random.Random(4)
    states = ("p", "q", "r")
    for _ in range(300):
        phi = randgen._random_posbool(rng, states, 3, 0.4)
        mins = pb.minimal_models(phi)
        alls = set(_all_pairs(phi, states))
        for m in mins:
            assert m in alls
        for m in mins:
            for m2 in mins:
                if m != m2:
                    assert not (m[0] <= m2[0] and m[1] <= m2[1])
        for pair in alls:
            assert any(m[0] <= pair[0] and m[1] <= pair[1] for m in mins)
        if not alls:
            assert mins == ()


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
        phi = randgen._random_posbool(rng, states, 3, 0.3)
        assert pb.dual(pb.dual(phi)) == phi


def test_automaton_validation(abc):
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p", "p"), "p", {})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "q", {})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "z", "up"): pb.Top()})
    with pytest.raises(ValidationError):
        AlternatingAutomaton(abc, ("p",), "p", {("p", "a", "up"): pb.Ref("z")})


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
    succ = step(fig1, w, 0, frozenset({("q", 0)}))
    assert succ == {frozenset({("q", 0), ("q1", 0)})}
    assert step(fig1, w, 0, frozenset()) == {frozenset()}
    blocked = step(fig1, parse_word("b@0", abc), 0, frozenset({("q2", 0)}))
    assert blocked == set()


def test_initial_configs(fig1, abc):
    w = parse_word("b@0 a@1", abc)
    assert initial_configs(fig1, w) == frozenset({("q", 0)})


def test_run_exists_rejects_empty_word(fig1, abc):
    with pytest.raises(ValidationError):
        run_exists(fig1, DataWord((), ()))


def test_intersect_and_union_against_components(fig1, top_automaton, abc):
    """Meet with the all-accepting automaton and join with the all-rejecting
    one both leave prefix acceptance unchanged."""
    assert len(intersect(fig1, fig1).states) == 7
    both = intersect(fig1, top_automaton)
    either = union(_bot_automaton(abc), fig1)
    rng = random.Random(6)
    for _ in range(120):
        w = randgen.random_word(rng, abc, max_len=4)
        assert run_exists(both, w) == run_exists(fig1, w)
        assert run_exists(either, w) == run_exists(fig1, w)


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


def test_translated_example_matches_fig1(example_formula, fig1, abc):
    """The translated example accepts exactly the same prefixes as the
    hand-written automaton on a seeded sample."""
    _, f = example_formula
    aut = ltl_to_ara(f, abc)
    rng = random.Random(7)
    for _ in range(200):
        w = randgen.random_word(rng, abc, max_len=5, max_classes=3)
        assert run_exists(aut, w) == run_exists(fig1, w)


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
    assert aut.models_at("p", "a", "up") == (both,)
    assert pb.minimal_models(pb.Or(pb.Ref("p"), phi)) == (
        (frozenset(["p"]), frozenset()),)
    assert pb.eval_posbool(phi, both) is True
    assert pb.eval_posbool(phi, (frozenset(["p"]), frozenset())) is False
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
    """== and hash of And and Or keep their own stack, and give what the
    generated dataclass methods give: equal when of one class with equal
    sides, hashed as the tuple of the sides."""
    phi = _deep_chain(3000)
    copy = pb.rebuild(phi, lambda g: g)
    assert copy is not phi
    assert copy == phi and not copy != phi
    assert hash(copy) == hash(phi)
    # the innermost leaf p becomes q
    changed = pb.rebuild(phi, lambda g: pb.Ref("q") if isinstance(g, pb.Ref) else g)
    assert changed != phi and not changed == phi
    assert pb.rebuild(phi, lambda g: g, swap=True) != phi
    p, q = pb.Ref("p"), pb.DownRef("q")
    assert hash(pb.And(p, q)) == hash((p, q)) == hash(pb.Or(p, q))
    assert hash(pb.Or(pb.And(p, q), p)) == hash((pb.And(p, q), p))
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
    """Test-only reference: the frontier of configuration sets that
    run_exists kept before it decided threads one at a time.  Each position
    steps every set of the frontier by `step` and keeps the
    inclusion-minimal successors."""
    frontier = [initial_configs(aut, w)]
    for i in range(len(w)):
        nxt = set()
        for configs in frontier:
            nxt |= step(aut, w, i, configs)
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
    """Threads go 5000 positions deep; the search keeps its own stack."""
    w = DataWord(("a",) * 5000, (0,) * 5000)
    assert run_exists(top_automaton, w)
    keep = parse_automaton("alphabet: a b c\nstates: s\ninitial: s\n"
                           "s, a, * -> s & d(s)\n")
    assert run_exists(keep, w)
    assert run_exists(keep, DataWord(("a",) * 5000, tuple(i % 2 for i in range(5000))))
    assert not run_exists(keep, DataWord(("a",) * 4999 + ("b",), (0,) * 5000))
