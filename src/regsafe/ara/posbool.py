"""Positive boolean formulas over automaton states, where a state may be
referenced plainly (keep the current register class) or down-marked (re-freeze
the register to the current position's class).

A model is a pair of state sets (plain, fresh); there is no negation, so the
set of models is upward closed and is represented by its minimal elements.
"""

from ..errors import ParseError
from ..tree import Node, fold, infix_printer, node, parse_infix, tokenize


class PosBool(Node):
    __slots__ = ()


@node
class Top(PosBool):
    pass


@node
class Bot(PosBool):
    pass


@node
class Ref(PosBool):
    state: str


@node
class DownRef(PosBool):
    state: str


@node
class And(PosBool):
    lhs: PosBool
    rhs: PosBool


@node
class Or(PosBool):
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


_BINARY = {"|": (0, Or, False), "&": (1, And, False)}


def parse_posbool(text, states) -> PosBool:
    """Parse a formula: `|` binds weaker than `&`, both associate left,
    atoms are true, false, a state, d(state) and a parenthesized formula."""

    def operand(tok, pos, peek, take):
        if tok == "true":
            return Top()
        if tok == "false":
            return Bot()
        if tok == "d":
            if peek() != "(":
                raise ParseError("expected '(' after 'd'", pos)
            take()
            name, npos = take()
            if name not in states:
                raise ParseError("unknown state %r" % name, npos)
            closing, cpos = take()
            if closing != ")":
                raise ParseError("expected ')'", cpos)
            return DownRef(name)
        if tok not in states:
            raise ParseError("unknown state %r" % tok, pos)
        return Ref(tok)

    return parse_infix(tokenize(text, "unexpected character %r in formula"),
                       _BINARY, {}, operand)


def format_posbool(phi: PosBool) -> str:
    return fold(phi, _format_leaf, _format_join)[0]


# each part comes with its precedence (| = 0, & = 1, atomic = 2)
def _format_leaf(g):
    kind = type(g)
    if kind is Top:
        return "true", 2
    if kind is Bot:
        return "false", 2
    if kind is Ref:
        return g.state, 2
    return "d(%s)" % g.state, 2


_format_join = infix_printer(_BINARY)


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
