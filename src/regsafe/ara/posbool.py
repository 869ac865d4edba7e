"""Positive boolean formulas over automaton states, where a state may be
referenced plainly (keep the current register class) or down-marked (re-freeze
the register to the current position's class).

A model is a pair of state sets (plain, fresh); there is no negation, so the
set of models is upward closed and is represented by its minimal elements.
"""

from dataclasses import dataclass
import re

from ..errors import ParseError


@dataclass(frozen=True)
class PosBool:
    pass


@dataclass(frozen=True)
class Top(PosBool):
    pass


@dataclass(frozen=True)
class Bot(PosBool):
    pass


@dataclass(frozen=True)
class Ref(PosBool):
    state: str


@dataclass(frozen=True)
class DownRef(PosBool):
    state: str


class _Binary(PosBool):
    """Equality and hashing of And and Or on an explicit stack: formulas
    built outside the parser may nest deeper than the call stack.  Both
    agree with the generated ones of a frozen dataclass: nodes are equal
    when of one class with equal sides, and hash as (lhs, rhs)."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__:
                return False
            if kind is And or kind is Or:
                todo.append((a.rhs, b.rhs))
                todo.append((a.lhs, b.lhs))
            elif a != b:
                return False
        return True

    def __hash__(self):
        return fold(self, hash, _hash_join)


class _Hashed:
    """A stand-in whose hash is a given one, so that a node's hash is that
    of the tuple of its sides without hashing them again."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _hash_join(g, lhs, rhs):
    return hash((_Hashed(lhs), _Hashed(rhs)))


@dataclass(frozen=True, eq=False)
class And(_Binary):
    lhs: PosBool
    rhs: PosBool


@dataclass(frozen=True, eq=False)
class Or(_Binary):
    lhs: PosBool
    rhs: PosBool


def pand(lhs, rhs):
    """And with constant folding."""
    if isinstance(lhs, Bot) or isinstance(rhs, Bot):
        return Bot()
    if isinstance(lhs, Top):
        return rhs
    if isinstance(rhs, Top):
        return lhs
    return And(lhs, rhs)


def por(lhs, rhs):
    """Or with constant folding."""
    if isinstance(lhs, Top) or isinstance(rhs, Top):
        return Top()
    if isinstance(lhs, Bot):
        return rhs
    if isinstance(rhs, Bot):
        return lhs
    return Or(lhs, rhs)


def eval_posbool(phi: PosBool, chosen) -> bool:
    """Does the pair of state sets (plain, fresh) satisfy phi?"""
    plain, fresh = chosen

    def leaf(g):
        kind = type(g)
        if kind is Top or kind is Bot:
            return kind is Top
        return g.state in (plain if kind is Ref else fresh)

    return fold(phi, leaf, _eval_join)


def _eval_join(g, lhs, rhs):
    return (lhs and rhs) if type(g) is And else (lhs or rhs)


def minimal_models(phi: PosBool):
    """The antichain of minimal satisfying pairs, canonically ordered.

    Empty tuple means unsatisfiable (phi is equivalent to false).
    """
    pairs = fold(phi, _models_leaf, _models_join)
    return tuple(sorted(pairs, key=lambda p: (sorted(p[0]), sorted(p[1]))))


_EMPTY = frozenset()


def _models_leaf(g):
    kind = type(g)
    if kind is Top:
        return {(_EMPTY, _EMPTY)}
    if kind is Bot:
        return set()
    if kind is Ref:
        return {(frozenset([g.state]), _EMPTY)}
    return {(_EMPTY, frozenset([g.state]))}


def _models_join(g, left, right):
    if type(g) is Or:
        return _minimize(left | right)
    return _minimize({(a | c, b | d) for (a, b) in left for (c, d) in right})


def _minimize(pairs):
    if len(pairs) < 2:
        return pairs
    out = set()
    for a, b in pairs:
        if not any((c, d) != (a, b) and c <= a and d <= b for (c, d) in pairs):
            out.add((a, b))
    return out


_PB_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_^-]+|[&|()])")


def parse_posbool(text, states) -> PosBool:
    """Parse a formula: `|` binds weaker than `&`, both associate left,
    atoms are true, false, a state, d(state) and a parenthesized formula.
    Runs on an explicit stack, so nesting is not bounded by the call
    stack."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _PB_TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r in formula" % text[pos], pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, None))  # end marker
    i = 0

    def take():
        nonlocal i
        tok = tokens[i]
        if tok[0] is None:
            raise ParseError("unexpected end of formula")
        i += 1
        return tok

    # the open parentheses' pending disjunction and conjunction, innermost
    # last; disj and conj are those of the innermost group, None when empty
    groups = []
    disj = conj = None
    while True:
        tok, p = take()
        if tok == "(":
            groups.append((disj, conj))
            disj = conj = None
            continue
        if tok == "true":
            f = Top()
        elif tok == "false":
            f = Bot()
        elif tok == "d":
            if tokens[i][0] != "(":
                raise ParseError("expected '(' after 'd'", p)
            i += 1
            name, np = take()
            if name not in states:
                raise ParseError("unknown state %r" % name, np)
            closing, cp = take()
            if closing != ")":
                raise ParseError("expected ')'", cp)
            f = DownRef(name)
        elif tok in ("&", "|", ")"):
            raise ParseError("unexpected %r" % tok, p)
        elif tok not in states:
            raise ParseError("unknown state %r" % tok, p)
        else:
            f = Ref(tok)
        # f completes an atom; closing parentheses complete further ones
        while True:
            conj = f if conj is None else And(conj, f)
            nxt = tokens[i][0]
            if nxt == "&":
                break
            disj = conj if disj is None else Or(disj, conj)
            conj = None
            if nxt == "|":
                break
            if not groups:
                if nxt is not None:
                    raise ParseError("trailing input %r" % nxt, tokens[i][1])
                return disj
            closing, cp = take()
            if closing != ")":
                raise ParseError("expected ')'", cp)
            f = disj
            disj, conj = groups.pop()
        i += 1  # the & or |


def format_posbool(phi: PosBool) -> str:
    return fold(phi, _format_leaf, _format_join)[0]


# each side comes with its precedence (| = 0, & = 1, atomic = 2) and is
# parenthesized where the operator wants a higher one
def _format_leaf(g):
    kind = type(g)
    if kind is Top:
        return "true", 2
    if kind is Bot:
        return "false", 2
    if kind is Ref:
        return g.state, 2
    return "d(%s)" % g.state, 2


def _format_join(g, lhs, rhs):
    if type(g) is And:
        return _side(lhs, 1) + " & " + _side(rhs, 2), 1
    return _side(lhs, 0) + " | " + _side(rhs, 1), 0


def _side(part, level):
    text, prec = part
    return "(" + text + ")" if prec < level else text


_JOIN = object()  # marks, on the fold's stack, a node whose sides are done


def fold(phi: PosBool, leaf, join):
    """The value of phi computed bottom-up: leaf(g) at every leaf g (Top,
    Bot, Ref, DownRef), join(g, lhs, rhs) at every And or Or node g from the
    values of its sides.  Sides are folded left before right.  Runs on an
    explicit stack: formulas built outside the parser may nest deeper than
    the call stack."""
    done = []
    todo = [phi]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is And or kind is Or:
            todo += (g, _JOIN, g.rhs, g.lhs)
        elif g is _JOIN:
            g = todo.pop()
            rhs = done.pop()
            done[-1] = join(g, done[-1], rhs)
        elif kind is Ref or kind is DownRef or kind is Top or kind is Bot:
            done.append(leaf(g))
        else:
            raise TypeError("not a positive boolean formula: %r" % (g,))
    return done[0]


def rebuild(phi: PosBool, leaf, swap=False) -> PosBool:
    """A copy of phi with every leaf g (Top, Bot, Ref, DownRef) replaced by
    leaf(g), and with And and Or exchanged when swap is set."""
    return fold(phi, leaf, _swapped_join if swap else _same_join)


def _same_join(g, lhs, rhs):
    return type(g)(lhs, rhs)


def _swapped_join(g, lhs, rhs):
    return (Or if type(g) is And else And)(lhs, rhs)


def _dual_leaf(g):
    kind = type(g)
    if kind is Top:
        return Bot()
    if kind is Bot:
        return Top()
    return g


def dual(phi: PosBool) -> PosBool:
    """Swap conjunction with disjunction and true with false."""
    return rebuild(phi, _dual_leaf, swap=True)
