import copy
import pickle
import random

import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe.words import (Alphabet, DataWord, canonical_class_sequences,
                           canonicalize, enumerate_words, parse_word,
                           print_word, read_names, read_sections)


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        Alphabet(())
    with pytest.raises(ValidationError):
        Alphabet(("a", "a"))
    with pytest.raises(ValidationError):
        Alphabet(("a", "b c"))
    ab = Alphabet(("a", "b"))
    assert "a" in ab and "c" not in ab
    assert ab.index("b") == 1
    with pytest.raises(ValidationError):
        ab.index("z")


def test_alphabets_and_words_are_values():
    """Equal when of one class with equal fields, with equal hashes; frozen;
    back equal from pickle, copy and deepcopy; the reprs the fields give."""
    cases = [(Alphabet(("a", "b")), Alphabet(("a", "b")), Alphabet(("b", "a")), "letters"),
             (Alphabet(["a", "b"]), Alphabet(("a", "b")), Alphabet(["b", "a"]), "letters"),
             (DataWord(("a",), (0,)), DataWord(("a",), (0,)), DataWord(("b",), (0,)), "classes"),
             (DataWord(["a", "b"], [0, 1]), DataWord(("a", "b"), (0, 1)),
              DataWord(["a", "b"], [0, 0]), "classes")]
    for value, alike, other, field in cases:
        assert alike is not value and alike == value and hash(alike) == hash(value)
        assert value != other and not value == other
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert back == value and hash(back) == hash(value) and type(back) is type(value)
    assert Alphabet(("a",)) != DataWord(("a",), (0,))
    assert repr(Alphabet(("a", "b"))) == "Alphabet(letters=('a', 'b'))"
    assert repr(DataWord(("a",), (0,))) == "DataWord(letters=('a',), classes=(0,))"


def test_alphabet_is_a_validated_tuple():
    """Built from a list, a tuple or an Alphabet, an Alphabet is one value
    with one hash, equal to the plain tuple of its letters, and stays an
    Alphabet through pickle, copy and deepcopy; its letters are a plain
    tuple; it refuses assignment and names an absent letter in a
    ValidationError."""
    built = [Alphabet(["a", "b"]), Alphabet(("a", "b")), Alphabet(Alphabet(("a", "b")))]
    for ab in built:
        assert ab == built[0] and hash(ab) == hash(built[0]) and type(ab) is Alphabet
        assert ab == ("a", "b") and hash(ab) == hash(("a", "b"))
        for back in (pickle.loads(pickle.dumps(ab)), copy.copy(ab), copy.deepcopy(ab)):
            assert back == ab and hash(back) == hash(ab) and type(back) is Alphabet
        assert ab.letters == ("a", "b") and type(ab.letters) is tuple
        assert list(ab) == ["a", "b"] and len(ab) == 2 and "b" in ab
        with pytest.raises(AttributeError):
            ab.letters = ("c",)
        with pytest.raises(AttributeError):
            ab.extra = 1
        with pytest.raises(ValidationError):
            ab.index("c")
    with pytest.raises(ValidationError):
        Alphabet(["a", "a"])


def test_canonicalize_renumbers_by_first_occurrence():
    w = canonicalize("abca", [7, "x", 7, "y"])
    assert w.classes == (0, 1, 0, 2)


def test_parse_print_round_trip(abc):
    w = parse_word("a@5 b@5 c@9", abc)
    assert print_word(w) == "a@0 b@0 c@1"
    assert parse_word(print_word(w), abc) == w


def test_parse_canonicalization_example(abc):
    """Parsing arbitrary labels and printing yields first-occurrence numbering."""
    assert print_word(parse_word("a@5 b@5", abc)) == "a@0 b@0"


def test_parse_rejections(abc):
    with pytest.raises(ParseError):
        parse_word("a@@", abc)
    with pytest.raises(ParseError):
        parse_word("a@", abc)
    with pytest.raises(ParseError):
        parse_word("d@0", abc)


def test_noncanonical_rejected():
    with pytest.raises(ValidationError):
        DataWord(("a",), (1,))
    with pytest.raises(ValidationError):
        DataWord(("a", "b"), (0, 2))
    with pytest.raises(ValidationError, match="equal length"):
        DataWord(("a", "b"), (0,))
    with pytest.raises(ValidationError, match="equal length"):
        canonicalize("ab", [7])


def test_prefix_of_canonical_is_canonical(abc):
    w = parse_word("a@0 b@1 c@0 a@2", abc)
    assert w.prefix(2) == parse_word("a@0 b@1", abc)
    assert w.prefix(len(w)) == w
    with pytest.raises(ValidationError):
        w.prefix(5)


def test_class_sequence_counts():
    """Canonical class sequences of length n with unbounded classes are Bell
    numbers; the cap trims the tail."""
    assert len(list(canonical_class_sequences(3, 3))) == 5
    assert len(list(canonical_class_sequences(4, 4))) == 15
    assert len(list(canonical_class_sequences(4, 2))) == 8
    assert list(canonical_class_sequences(0, 3)) == [()]


def test_enumerate_words_count(abc):
    """The desk-scale corpus size is frozen: all canonical words over three
    letters, length up to 5, at most 3 classes."""
    count = sum(1 for _ in enumerate_words(abc, 5, 3))
    assert count == 11253


def test_enumerate_words_all_canonical_and_distinct(abc):
    seen = set()
    for w in enumerate_words(abc, 3, 3):
        assert w not in seen
        seen.add(w)
        DataWord(w.letters, w.classes)


def test_random_round_trips(abc):
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 8)
        letters = [rng.choice(abc.letters) for _ in range(n)]
        labels = [rng.randint(0, 3) for _ in range(n)]
        w = canonicalize(letters, labels)
        assert parse_word(print_word(w), abc) == w
        for i in range(1, n + 1):
            assert w.prefix(i).letters == w.letters[:i]


def test_read_sections():
    text = "# c\n\nsize: 3 \n  size : 2\n  body: one\nq -> p\n#size: 9\n"
    headers, body = read_sections(text, ("size",), ("tag",))
    # only declared names are headers, and only when the name ends at the colon
    assert headers == {"size": "3"}
    assert body == [(4, "size : 2"), (5, "body: one"), (6, "q -> p")]
    with pytest.raises(ParseError, match="missing header line.*: a: c:"):
        read_sections("b: 1\n", ("a", "b", "c"))
    with pytest.raises(ParseError, match="line 2: repeated tag: header"):
        read_sections("tag: x\ntag: x\n", (), ("tag",))
    with pytest.raises(ParseError, match="line 3: tag: header after"):
        read_sections("\nbody\ntag: x\n", (), ("tag",))


def test_read_names():
    assert read_names(" p  q-1 r^a ", "state") == ("p", "q-1", "r^a")
    for bad in ("#q", "x;y", "{x}", "a@b"):
        with pytest.raises(ParseError, match="bad state name"):
            read_names("p " + bad, "state")
