import random

import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe import ltl
from regsafe.ara import posbool as pb
from regsafe.ltl import (KEYWORDS, And, Atom, Bot, Freeze, Next, NotUp, Or,
                         PrefixVerdict, Release, Top, Up, evaluate_prefix,
                         is_sentence, parse_formula, print_formula)
from regsafe.pipeline import parse_tm, tm_alphabet, tm_to_formula
from regsafe.tree import tokenize
from regsafe.words import Alphabet, parse_word
from regsafe import randgen
from regsafe.reference.ltl import monitor_prefix, random_sentence


AB = Alphabet(("a", "b"))


def test_parse_precedence():
    """Unary binds tightest, then &, then |, then R (right-associative)."""
    f = parse_formula("a & b | X a R b R true", AB)
    assert f == Release(Or(And(Atom("a"), Atom("b")), Next(Atom("a"))),
                        Release(Atom("b"), Top()))


def test_parse_g_sugar():
    assert parse_formula("G a", AB) == Release(Bot(), Atom("a"))
    assert print_formula(Release(Bot(), Atom("a"))) == "G a"


def test_parse_freeze_and_tests():
    f = parse_formula("down X (up & a | nup)", AB)
    assert f == Freeze(Next(Or(And(Up(), Atom("a")), NotUp())))


def test_until_rejected():
    with pytest.raises(ParseError):
        parse_formula("a U b", AB)


def test_parse_errors():
    for bad in ("", "a &", "(a", "a b", "down", "zzz"):
        with pytest.raises(ParseError):
            parse_formula(bad, AB)


class _ReferenceParser:
    """The recursive-descent formula parser as it stood, one method per
    precedence level; parse_formula must give its trees and its errors."""

    def __init__(self, tokens, alphabet):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0
        for a in alphabet:
            if a in KEYWORDS:
                raise ParseError("alphabet letter %r collides with a keyword" % a)

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of formula")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        f = self.release()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError("trailing input %r" % tok, pos)
        return f

    def release(self):
        lhs = self.disj()
        if self.peek() == "R":
            self.next()
            rhs = self.release()
            return Release(lhs, rhs)
        return lhs

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        tok, pos = self.next()
        if tok == "(":
            f = self.release()
            closing, cpos = self.next()
            if closing != ")":
                raise ParseError("expected ')'", cpos)
            return f
        if tok == "true":
            return Top()
        if tok == "false":
            return Bot()
        if tok == "up":
            return Up()
        if tok == "nup":
            return NotUp()
        if tok == "down":
            return Freeze(self.unary())
        if tok == "X":
            return Next(self.unary())
        if tok == "G":
            return Release(Bot(), self.unary())
        if tok == "U":
            raise ParseError("until is not part of the safety fragment", pos)
        if tok in ("&", "|", ")", "R"):
            raise ParseError("unexpected %r" % tok, pos)
        if tok not in self.alphabet:
            raise ParseError("letter %r not declared in alphabet" % tok, pos)
        return Atom(tok)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.position


_VOCABULARY = ["a", "b", "c", "&", "|", "R", "X", "G", "U", "down", "(", ")",
               "true", "false", "up", "nup"]


def _mutations(rng, tokens):
    """Malformed neighbours of a token list: a token deleted, inserted or
    swapped with its neighbour, and parentheses unbalanced."""
    n = len(tokens)
    i = rng.randrange(n)
    yield tokens[:i] + tokens[i + 1:]
    j = rng.randrange(n + 1)
    yield tokens[:j] + [rng.choice(_VOCABULARY)] + tokens[j:]
    if n > 1:
        k = rng.randrange(n - 1)
        yield tokens[:k] + [tokens[k + 1], tokens[k]] + tokens[k + 2:]
    parens = [m for m, t in enumerate(tokens) if t in "()"]
    if parens:
        m = rng.choice(parens)
        yield tokens[:m] + tokens[m + 1:]
    yield ["("] + tokens
    yield tokens + [")"]


def test_parser_matches_recursive_reference():
    """Printed random sentences and malformed mutations of them parse to
    the reference parser's trees, or fail with its message and position."""
    rng = random.Random(10)
    reference = lambda text: _ReferenceParser(tokenize(text), AB).parse()
    iterative = lambda text: parse_formula(text, AB)
    texts = ["", "a b", "(a", "a)", "a U b", "U", "X", "down &", "G )", "((a) | (b R",
             "a $ b", "c & a", "a R b R c"]
    for k in range(600):
        text = print_formula(random_sentence(rng, AB, depth=1 + k % 6))
        texts.append(text)
        tokens = [tok for tok, _ in tokenize(text)]
        for mutated in _mutations(rng, tokens):
            texts.append(" ".join(mutated))
            texts.append("".join(t if t in "()&|" else " %s " % t for t in mutated))
    failed = 0
    for text in texts:
        want = _parsed(reference, text)
        assert _parsed(iterative, text) == want, text
        failed += isinstance(want, tuple)
    assert 0.3 * len(texts) < failed < 0.9 * len(texts)
    with pytest.raises(ParseError, match="collides with a keyword"):
        parse_formula("a", Alphabet(("a", "up")))


def test_print_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(300):
        f = random_sentence(rng, AB, depth=4)
        assert parse_formula(print_formula(f), AB) == f


def test_formula_file_round_trip(example_formula):
    ab, f = example_formula
    text = ltl.print_formula_file(ab, f)
    ab2, f2 = ltl.parse_formula_file(text)
    assert (ab2, f2) == (ab, f)


def test_is_sentence():
    assert is_sentence(parse_formula("G (a | down X up)", AB))
    assert not is_sentence(Up())
    assert not is_sentence(Next(NotUp()))
    assert is_sentence(Freeze(Next(Up())))


def test_evaluate_prefix_requires_sentence():
    """Both prefix routes refuse a free register test and an empty prefix,
    and fail on a tree node that is no formula, such as a posbool one."""
    w = parse_word("a@0", AB)
    for verdict in (evaluate_prefix, monitor_prefix):
        with pytest.raises(ValidationError):
            verdict(Up(), w)
        with pytest.raises(ValidationError, match="non-empty"):
            verdict(Atom("a"), parse_word("", AB))
        with pytest.raises(TypeError, match="not a formula"):
            verdict(pb.Ref("p"), w)


def test_evaluate_prefix_atoms():
    w = parse_word("a@0 b@1", AB)
    assert evaluate_prefix(Atom("a"), w) is PrefixVerdict.UNDETERMINED
    assert evaluate_prefix(Atom("b"), w) is PrefixVerdict.FALSIFIED
    assert evaluate_prefix(Next(Atom("b")), w) is PrefixVerdict.UNDETERMINED
    assert evaluate_prefix(Next(Atom("a")), w) is PrefixVerdict.FALSIFIED


def test_evaluate_prefix_register():
    """down at the first position, up tested later."""
    f = Freeze(Next(Up()))
    assert evaluate_prefix(f, parse_word("a@0 a@0", AB)) is PrefixVerdict.UNDETERMINED
    assert evaluate_prefix(f, parse_word("a@0 a@1", AB)) is PrefixVerdict.FALSIFIED
    # too short to falsify
    assert evaluate_prefix(f, parse_word("a@0", AB)) is PrefixVerdict.UNDETERMINED


def test_evaluate_prefix_undetermined_without_an_extension(data_text):
    """UNDETERMINED says only that a partial run over the prefix exists: the
    halting machine's run formula has an empty language, yet its first
    letter is not falsified."""
    halting = parse_tm(data_text("halting.tm"))
    w = parse_word("h0@0", tm_alphabet(halting))
    assert evaluate_prefix(tm_to_formula(halting), w) is PrefixVerdict.UNDETERMINED


def test_example_formula_on_pattern_words(example_formula, abc):
    _, f = example_formula
    assert evaluate_prefix(f, parse_word("a@0 c@1 b@0", abc)) is PrefixVerdict.FALSIFIED
    assert evaluate_prefix(f, parse_word("a@0 c@1 b@1", abc)) is PrefixVerdict.UNDETERMINED
    assert evaluate_prefix(f, parse_word("a@0 b@0 c@1", abc)) is PrefixVerdict.UNDETERMINED


def test_monitor_matches_examples(example_formula, abc):
    _, f = example_formula
    assert monitor_prefix(f, parse_word("a@0 c@1 b@0", abc)) is PrefixVerdict.FALSIFIED
    assert monitor_prefix(f, parse_word("a@0 c@1 b@1", abc)) is PrefixVerdict.UNDETERMINED


def test_monitor_long_word():
    """The monitor walks word positions without recursing: G a holds on
    3000 letters a so far, and a late b falsifies it."""
    f = parse_formula("G a", AB)
    w = parse_word(" ".join(["a@0"] * 3000), AB)
    assert monitor_prefix(f, w) is PrefixVerdict.UNDETERMINED
    w = parse_word(" ".join(["a@0"] * 2999 + ["b@0"]), AB)
    assert monitor_prefix(f, w) is PrefixVerdict.FALSIFIED


def test_monitor_sound_random():
    """The syntactic monitor never falsifies a prefix the automaton route
    keeps; seeded sweep."""
    rng = random.Random(9)
    for _ in range(150):
        f = random_sentence(rng, AB, depth=3)
        w = randgen.random_word(rng, AB, max_len=4)
        if monitor_prefix(f, w) is PrefixVerdict.FALSIFIED:
            assert evaluate_prefix(f, w) is PrefixVerdict.FALSIFIED


def test_prefix_antitonicity_random():
    """Once falsified, every extension stays falsified (checked backward:
    an undetermined longer prefix forces undetermined shorter ones)."""
    rng = random.Random(10)
    for _ in range(100):
        f = random_sentence(rng, AB, depth=3)
        w = randgen.random_word(rng, AB, max_len=4)
        verdicts = [evaluate_prefix(f, w.prefix(i)) for i in range(1, len(w) + 1)]
        falsified = False
        for v in verdicts:
            if falsified:
                assert v is PrefixVerdict.FALSIFIED
            falsified = falsified or v is PrefixVerdict.FALSIFIED

