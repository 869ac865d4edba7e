"""Finite data words: strings over a finite alphabet with an equivalence
relation on positions.

A word is stored in canonical form: positions carry class numbers, classes are
numbered by first occurrence, the first position always carries class 0.  Two
words that differ only by a renaming of the equivalence classes are therefore
equal as values.

Text format: whitespace-separated tokens ``letter@label``; labels are
arbitrary and get renumbered on parse, e.g. ``a@0 c@1 b@0``.

read_sections reads the lines of all four file formats (.ltl, .ara, .cm, .tm),
and locate names the line and column of a formula error in such a file.
"""

import re

from .errors import ParseError, ValidationError

NAME_RE = re.compile(r"[A-Za-z0-9_^-]+\Z")


def read_sections(text, required, optional=()):
    """Split a file into its headers and body lines.  Blank lines and lines
    starting with '#' are skipped.  A line ``name: value`` is a header when
    `name` is one of `required` or `optional`; any other line is a body line.
    A header comes at most once and before the first body line.  Returns
    (headers, body): headers maps each header given to its stripped value,
    body lists the (line number, stripped line) pairs in file order."""
    names = frozenset(required).union(optional)
    headers = {}
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        name, colon, value = line.partition(":")
        if not colon or name not in names:
            body.append((lineno, line))
        elif name in headers:
            raise ParseError("line %d: repeated %s: header" % (lineno, name))
        elif body:
            raise ParseError("line %d: %s: header after the first body line" % (lineno, name))
        else:
            headers[name] = value.strip()
    missing = ["%s:" % name for name in required if name not in headers]
    if missing:
        raise ParseError("missing header line(s): %s" % " ".join(missing))
    return headers, body


def locate(error, text, pieces):
    """The ParseError naming the line and column in `text` of error.position,
    an offset into the texts of `pieces`, (line number, text) pairs from
    `text`, joined by newlines.  Each piece is stripped and ends its line
    but for trailing blanks."""
    offset = error.position
    for lineno, piece in pieces:
        if offset <= len(piece):
            break
        offset -= len(piece) + 1
    column = text.splitlines()[lineno - 1].rindex(piece) + offset + 1
    return ParseError("line %d, column %d: %s" % (lineno, column, error.detail))


def read_names(value, what):
    """The whitespace-separated names of a header value, each matching
    NAME_RE; `what` names them in the error."""
    names = tuple(value.split())
    for name in names:
        if not NAME_RE.match(name):
            raise ParseError("bad %s name %r" % (what, name))
    return names


class Alphabet(tuple):
    """Ordered finite set of letter names, built from any sequence: a tuple
    of distinct names, so it equals the plain tuple of its letters."""

    __slots__ = ()

    def __new__(cls, letters):
        letters = tuple(letters)
        if not letters:
            raise ValidationError("alphabet must be non-empty")
        if len(set(letters)) != len(letters):
            raise ValidationError("duplicate letter in alphabet")
        for a in letters:
            if not NAME_RE.match(a):
                raise ValidationError("bad letter name: %r" % (a,))
        return super().__new__(cls, letters)

    def __repr__(self):
        return "%s(letters=%r)" % (type(self).__name__, self.letters)

    letters = property(tuple)  # the letters as a plain tuple

    def index(self, letter):
        try:
            return super().index(letter)
        except ValueError:
            raise ValidationError("letter %r not in alphabet" % (letter,)) from None


class DataWord:
    """A finite data word in canonical form.

    letters: tuple of letter names
    classes: tuple of ints, same length; classes[i] is the equivalence class
             of position i, numbered by first occurrence starting at 0
    """

    __slots__ = ("letters", "classes")

    def __init__(self, letters, classes):
        letters, classes = tuple(letters), tuple(classes)
        if len(letters) != len(classes):
            raise ValidationError("letters and classes must have equal length")
        seen = 0
        for i, c in enumerate(classes):
            # canonical form: a class id may exceed the ones seen so far by at most 1
            if not isinstance(c, int) or c < 0 or c > seen:
                raise ValidationError("classes not canonical at position %d" % i)
            if c == seen:
                seen += 1
        _set_letters(self, letters)
        _set_classes(self, classes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.classes == other.classes

    def __hash__(self):
        return hash((self.letters, self.classes))

    def __repr__(self):
        return "%s(letters=%r, classes=%r)" % (type(self).__name__, self.letters, self.classes)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), (self.letters, self.classes)

    def __len__(self):
        return len(self.letters)

    def prefix(self, n) -> "DataWord":
        """First n positions.  A prefix of a canonical word is canonical."""
        if n < 0 or n > len(self):
            raise ValidationError("prefix length out of range")
        return DataWord(self.letters[:n], self.classes[:n])


_set_letters = DataWord.letters.__set__
_set_classes = DataWord.classes.__set__


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
    return DataWord(letters, classes)


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
