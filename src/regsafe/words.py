"""Finite data words: strings over a finite alphabet with an equivalence
relation on positions.

A word is stored in canonical form: positions carry class numbers, classes are
numbered by first occurrence, the first position always carries class 0.  Two
words that differ only by a renaming of the equivalence classes are therefore
equal as values.

Text format: whitespace-separated tokens ``letter@label``; labels are
arbitrary and get renumbered on parse, e.g. ``a@0 c@1 b@0``.
"""

from dataclasses import dataclass
import re

from .errors import ParseError, ValidationError

NAME_RE = re.compile(r"[A-Za-z0-9_^-]+\Z")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of letter names."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("alphabet must be non-empty")
        if len(set(self.letters)) != len(self.letters):
            raise ValidationError("duplicate letter in alphabet")
        for a in self.letters:
            if not NAME_RE.match(a):
                raise ValidationError("bad letter name: %r" % (a,))

    def __contains__(self, letter):
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def index(self, letter):
        try:
            return self.letters.index(letter)
        except ValueError:
            raise ValidationError("letter %r not in alphabet" % (letter,)) from None


@dataclass(frozen=True)
class DataWord:
    """A finite data word in canonical form.

    letters: tuple of letter names
    classes: tuple of ints, same length; classes[i] is the equivalence class
             of position i, numbered by first occurrence starting at 0
    """

    letters: tuple
    classes: tuple

    def __post_init__(self):
        if len(self.letters) != len(self.classes):
            raise ValidationError("letters and classes must have equal length")
        seen = 0
        for i, c in enumerate(self.classes):
            # canonical form: a class id may exceed the ones seen so far by at most 1
            if not isinstance(c, int) or c < 0 or c > seen:
                raise ValidationError("classes not canonical at position %d" % i)
            if c == seen:
                seen += 1

    def __len__(self):
        return len(self.letters)

    @property
    def num_classes(self):
        return max(self.classes) + 1 if self.classes else 0

    def prefix(self, n) -> "DataWord":
        """First n positions.  A prefix of a canonical word is canonical."""
        if n < 0 or n > len(self):
            raise ValidationError("prefix length out of range")
        return DataWord(self.letters[:n], self.classes[:n])

    def extend(self, letter, cls) -> "DataWord":
        """Append one position; cls may be an existing class or num_classes."""
        return DataWord(self.letters + (letter,), self.classes + (cls,))


def canonicalize(letters, labels) -> DataWord:
    """Build a DataWord from letters and arbitrary hashable class labels."""
    letters = tuple(letters)
    labels = tuple(labels)
    if len(letters) != len(labels):
        raise ValidationError("letters and labels must have equal length")
    renum = {}
    classes = []
    for lab in labels:
        if lab not in renum:
            renum[lab] = len(renum)
        classes.append(renum[lab])
    return DataWord(letters, tuple(classes))


def prefix(w: DataWord, i) -> DataWord:
    """The first i positions of w, 1 <= i <= len(w).  Restriction of a
    canonical word stays canonical, so no renumbering happens."""
    if i < 1 or i > len(w):
        raise ValidationError("prefix length %r out of range" % (i,))
    return w.prefix(i)


def parse_word(text, alphabet: Alphabet) -> DataWord:
    letters = []
    labels = []
    for tok in text.split():
        if tok.count("@") != 1:
            raise ParseError("malformed word token %r" % tok)
        letter, label = tok.split("@")
        if not label:
            raise ParseError("empty class label in token %r" % tok)
        if letter not in alphabet:
            raise ParseError("letter %r not declared in alphabet" % letter)
        letters.append(letter)
        labels.append(label)
    return canonicalize(letters, labels)


def print_word(w: DataWord) -> str:
    return " ".join("%s@%d" % (a, c) for a, c in zip(w.letters, w.classes))


def canonical_class_sequences(length, max_classes):
    """Yield every canonical class tuple of the given length using at most
    max_classes distinct classes."""
    if length == 0:
        yield ()
        return

    def rec(seq, seen):
        if len(seq) == length:
            yield tuple(seq)
            return
        bound = min(seen + 1, max_classes)
        for c in range(bound):
            seq.append(c)
            yield from rec(seq, seen + 1 if c == seen else seen)
            seq.pop()

    yield from rec([], 0)


def enumerate_words(alphabet: Alphabet, max_len, max_classes):
    """Yield every canonical data word with 1 <= len <= max_len."""
    from itertools import product

    for n in range(1, max_len + 1):
        for letters in product(alphabet.letters, repeat=n):
            for classes in canonical_class_sequences(n, max_classes):
                yield DataWord(letters, classes)
