"""Positive boolean formulas over automaton states, where a state may be
referenced plainly (keep the current register class) or down-marked (re-freeze
the register to the current position's class).

A model is a pair of state sets (plain, fresh); there is no negation, so the
set of models is upward closed and is represented by its minimal elements.
minimal_models folds a formula to them either as pairs of frozensets of
state names (the reference procedures) or, given each state's bit, as pairs
of int masks (run_exists and the compiled machine), with one join for both.
The same fold gives the minimal models of a formula's dual (Top and Bot,
And and Or exchanged) without building the dual formula.
"""

from functools import partial

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


def minimal_models(phi: PosBool, bit=None, dual=False):
    """The antichain of minimal satisfying pairs (plain, fresh); the empty
    tuple means unsatisfiable (phi is equivalent to false).

    With no bit, each side is a frozenset of state names and the pairs are
    canonically ordered by their sorted names.  With bit, a mapping from
    each state to its own bit (1 << i), each side is the int mask of its
    states, the pairs (kept mask, refrozen mask) in ascending order.  One
    fold computes both: its join and minimisation use only | and ==, which
    act alike on sets and on masks (c is below a iff c | a == a).

    With dual, the result is minimal_models(dual(phi), bit), folded from phi
    itself without building its dual: Top gets the models of Bot and Bot
    those of Top, And joins as Or and Or as And."""
    true, join = _DUAL_FOLD if dual else _FOLD
    if bit is None:
        pairs = fold(phi, partial(_name_leaf, true), join)
        return tuple(sorted(pairs, key=lambda p: (sorted(p[0]), sorted(p[1]))))
    return tuple(sorted(fold(phi, partial(_mask_leaf, bit, true), join)))


def conjoin_models(left, right):
    """The minimal models of And(l, r) from minimal_models(l, bit) and
    minimal_models(r, bit), as ascending mask pairs."""
    return tuple(sorted(_conjoin(left, right)))


_EMPTY = frozenset()


# leaves: `true` is the constant whose models are {(empty, empty)}, Top or,
# for the dual fold, Bot; the other constant has none
def _name_leaf(true, g):
    kind = type(g)
    if kind is Ref:
        return {(frozenset([g.state]), _EMPTY)}
    if kind is DownRef:
        return {(_EMPTY, frozenset([g.state]))}
    return {(_EMPTY, _EMPTY)} if kind is true else set()


def _mask_leaf(bit, true, g):
    kind = type(g)
    if kind is Ref:
        return {(bit[g.state], 0)}
    if kind is DownRef:
        return {(0, bit[g.state])}
    return {(0, 0)} if kind is true else set()


# joins: `union` is the node whose models are the union of its sides', Or
# or, for the dual fold, And; the other node conjoins them
def _models_join(union, g, left, right):
    if type(g) is union:
        return _minimize(left | right)
    return _conjoin(left, right)


def _conjoin(left, right):
    return _minimize({(a | c, b | d) for (a, b) in left for (c, d) in right})


def _minimize(pairs):
    if len(pairs) < 2:
        return pairs
    return {p for p in pairs
            if not any(q is not p and q[0] | p[0] == p[0] and q[1] | p[1] == p[1]
                       for q in pairs)}


_FOLD = (Top, partial(_models_join, Or))
_DUAL_FOLD = (Bot, partial(_models_join, And))


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


def rebuild(phi: PosBool, leaf) -> PosBool:
    """A copy of phi with every leaf g (Top, Bot, Ref, DownRef) replaced by
    leaf(g)."""
    return fold(phi, leaf, _same_join)


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
    return fold(phi, _dual_leaf, _swapped_join)
