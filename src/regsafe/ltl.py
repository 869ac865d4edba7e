"""Safety temporal formulas over data words, with a single freeze register.

The fragment is negation-normal: letters, boolean connectives, next (X),
release (R), the register binder (down), and the register tests (up / nup).
G phi is accepted as sugar for false R phi.  Until is deliberately absent:
release keeps every formula safety, so a violation is always witnessed by a
finite prefix.

Grammar (precedence: unary > & > | > R, R associates right):

    phi := "true" | "false" | IDENT | "up" | "nup"
         | "down" phi | "X" phi | "G" phi | "(" phi ")"
         | phi "&" phi | phi "|" phi | phi "R" phi

Formula files hold a header line ``alphabet: a b c`` followed by the
formula text (which may span lines); words.read_sections reads them.
"""

import enum

from .errors import ParseError, ValidationError
from .tree import Node, fold, infix_printer, node, parenthesize, parse_infix, tokenize
from .words import Alphabet, DataWord, locate, read_sections


class Formula(Node):
    __slots__ = ()


@node
class Atom(Formula):
    letter: str


@node
class Top(Formula):
    pass


@node
class Bot(Formula):
    pass


@node
class And(Formula):
    lhs: Formula
    rhs: Formula


@node
class Or(Formula):
    lhs: Formula
    rhs: Formula


@node
class Next(Formula):
    body: Formula


@node
class Release(Formula):
    lhs: Formula
    rhs: Formula


@node
class Freeze(Formula):
    """Binds the register to the class of the current position."""

    body: Formula


@node
class Up(Formula):
    """Current position is in the register's class."""


@node
class NotUp(Formula):
    """Current position is not in the register's class."""


KEYWORDS = {"true", "false", "up", "nup", "down", "X", "G", "R", "U"}

# infix operators by precedence, R associating right; prefix operators with
# the node each wraps its operand in
_BINARY = {"R": (0, Release, True), "|": (1, Or, False), "&": (2, And, False)}
_PREFIX = {"down": Freeze, "X": Next, "G": lambda f: Release(Bot(), f)}
_LEAVES = {"true": Top, "false": Bot, "up": Up, "nup": NotUp}


def parse_formula(text, alphabet: Alphabet) -> Formula:
    tokens = tokenize(text)
    for a in alphabet:
        if a in KEYWORDS:
            raise ParseError("alphabet letter %r collides with a keyword" % a)

    def operand(tok, pos, peek, take):
        if tok in _LEAVES:
            return _LEAVES[tok]()
        if tok == "U":
            raise ParseError("until is not part of the safety fragment", pos)
        if tok not in alphabet:
            raise ParseError("letter %r not declared in alphabet" % tok, pos)
        return Atom(tok)

    return parse_infix(tokens, _BINARY, _PREFIX, operand)


def parse_formula_file(text):
    """Parse ``alphabet: ...`` header plus formula body; returns (Alphabet,
    Formula).  A syntax error at a token names the token's line and column
    in the file."""
    headers, body = read_sections(text, ("alphabet",))
    letters = headers["alphabet"].split()
    if not letters:
        raise ParseError("empty alphabet declaration")
    ab = Alphabet(tuple(letters))
    if not body:
        raise ParseError("formula file has no formula")
    try:
        return ab, parse_formula("\n".join(line for _, line in body), ab)
    except ParseError as e:
        if e.position is None:
            raise
        raise locate(e, text, body) from None


def print_formula(f: Formula) -> str:
    return fold(f, _format_leaf, _format_join)[0]


# each part comes with its precedence (R = 0, | = 1, & = 2, unary = 3,
# atomic = 4)
_LEAF_TEXT = {kind: text for text, kind in _LEAVES.items()}
_PREFIX_TEXT = {Freeze: "down ", Next: "X "}
_format_infix = infix_printer(_BINARY)


def _format_leaf(g):
    return (g.letter if type(g) is Atom else _LEAF_TEXT[type(g)]), 4


def _format_join(g, *parts):
    kind = type(g)
    if kind in _PREFIX_TEXT:
        return _PREFIX_TEXT[kind] + parenthesize(parts[0], 3), 3
    if kind is Release and type(g.lhs) is Bot:
        return "G " + parenthesize(parts[1], 3), 3
    return _format_infix(g, *parts)


def print_formula_file(alphabet: Alphabet, f: Formula) -> str:
    return "alphabet: %s\n%s\n" % (" ".join(alphabet.letters), print_formula(f))


def is_sentence(f: Formula) -> bool:
    """True iff every register test (up/nup) sits under a down binder."""
    # folded: whether a subformula has a register test that no binder in it binds
    return not fold(f, lambda g: type(g) in (Up, NotUp),
                    lambda g, *free: type(g) is not Freeze and any(free))


class PrefixVerdict(enum.Enum):
    FALSIFIED = "FALSIFIED"
    UNDETERMINED = "UNDETERMINED"


def evaluate_prefix(f: Formula, w: DataWord) -> PrefixVerdict:
    """Three-valued prefix verdict: FALSIFIED when f's alternating automaton
    has no partial run over w, UNDETERMINED whenever it has one.

    FALSIFIED implies that no data omega-word extending w satisfies f, since
    a run over such a word covers w.  The converse fails: a partial run over
    w need not extend to an infinite one, so UNDETERMINED does not say that
    an extension exists.  The run formula of tests/data/halting.tm has an
    empty language, yet its prefix h0@0 is UNDETERMINED.
    """
    if len(w) == 0:
        raise ValidationError("prefix must be non-empty")
    # ltl_to_ara refuses a free register test
    from .ara.translate import ltl_to_ara
    from .ara.automaton import run_exists

    # w's letters in first-occurrence order: enough for evaluating on w itself
    aut = ltl_to_ara(f, Alphabet(dict.fromkeys(w.letters)))
    return PrefixVerdict.UNDETERMINED if run_exists(aut, w) else PrefixVerdict.FALSIFIED

