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
from .words import Alphabet, DataWord, read_sections


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
        # the offset is into the stripped body lines joined by newlines
        start = 0
        for lineno, line in body:
            if e.position <= start + len(line):
                break
            start += len(line) + 1
        raw = text.splitlines()[lineno - 1]
        column = len(raw) - len(raw.lstrip()) + e.position - start + 1
        raise ParseError("line %d, column %d: %s" % (lineno, column, e.detail)) from None


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
    """Three-valued prefix verdict: FALSIFIED iff no data omega-word extending
    w satisfies f.

    Decided by translating f to its alternating automaton and asking whether a
    partial run over w exists.
    """
    if not is_sentence(f):
        raise ValidationError("formula has a free register test")
    if len(w) == 0:
        raise ValidationError("prefix must be non-empty")
    from .ara.translate import ltl_to_ara
    from .ara.automaton import run_exists

    aut = ltl_to_ara(f, _word_alphabet(w))
    return PrefixVerdict.UNDETERMINED if run_exists(aut, w) else PrefixVerdict.FALSIFIED


def _word_alphabet(w):
    # letters in first-occurrence order; enough for evaluating on w itself
    seen = []
    for a in w.letters:
        if a not in seen:
            seen.append(a)
    return Alphabet(tuple(seen))


_F, _U, _T = 0, 1, 2


def monitor_prefix(f: Formula, w: DataWord) -> PrefixVerdict:
    """Purely syntactic three-valued monitor, sound but not necessarily
    complete: FALSIFIED here implies evaluate_prefix FALSIFIED.

    X at the last position is unknown; R is unrolled one step per position.
    The values of (subformula, position, register) triples are found on an
    explicit stack, each once, so neither the word's length nor the
    formula's depth is bounded by the call stack.
    """
    if not is_sentence(f):
        raise ValidationError("formula has a free register test")
    if len(w) == 0:
        raise ValidationError("prefix must be non-empty")
    n = len(w)
    memo = {}

    def parts(g, i, reg):
        """The triples whose values g's value at i is made of."""
        if isinstance(g, (And, Or)):
            return ((g.lhs, i, reg), (g.rhs, i, reg))
        if isinstance(g, Next):
            return ((g.body, i + 1, reg),) if i + 1 < n else ()
        if isinstance(g, Freeze):
            return ((g.body, i, w.classes[i]),)
        if isinstance(g, Release):
            later = ((g, i + 1, reg),) if i + 1 < n else ()
            return ((g.lhs, i, reg), (g.rhs, i, reg)) + later
        return ()

    def val(g, i, reg, vals):
        """g's value at i from the values of its parts, in their order."""
        if isinstance(g, Atom):
            return _T if w.letters[i] == g.letter else _F
        if isinstance(g, Top):
            return _T
        if isinstance(g, Bot):
            return _F
        if isinstance(g, Up):
            return _T if w.classes[i] == reg else _F
        if isinstance(g, NotUp):
            return _F if w.classes[i] == reg else _T
        if isinstance(g, And):
            return min(vals)
        if isinstance(g, Or):
            return max(vals)
        if isinstance(g, (Next, Freeze)):
            return vals[0] if vals else _U
        if isinstance(g, Release):
            later = vals[2] if len(vals) == 3 else _U
            return min(vals[1], max(vals[0], later))
        raise TypeError("not a formula: %r" % (g,))

    root = (f, 0, None)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        keys = parts(*key)
        missing = [k for k in keys if k not in memo]
        if missing:
            stack += missing
            continue
        stack.pop()
        memo[key] = val(*key, [memo[k] for k in keys])

    return PrefixVerdict.FALSIFIED if memo[root] == _F else PrefixVerdict.UNDETERMINED

