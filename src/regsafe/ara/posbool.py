"""Positive boolean formulas over automaton states, where a state may be
referenced plainly (keep the current register class) or down-marked (re-freeze
the register to the current position's class).

A model is a pair of state sets (plain, fresh); there is no negation, so the
set of models is upward closed and is represented by its minimal elements.
minimal_models computes them in one loop on its own stack, safe on formulas
nested deeper than the call stack, each set an int mask under a map from
each state to its own bit.  The same loop gives the minimal models of a
formula's dual (Top and Bot, And and Or exchanged) without building the
dual formula.
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
    """And with constant folding, telling constants by their class.  A fold
    returns an operand, never a new node: false when either side is false,
    else the other side of a true one."""
    if type(lhs) is Bot or type(rhs) is Top:
        return lhs
    if type(rhs) is Bot or type(lhs) is Top:
        return rhs
    return And(lhs, rhs)


def por(lhs, rhs):
    """Or with constant folding, telling constants by their class.  A fold
    returns an operand, never a new node: true when either side is true,
    else the other side of a false one."""
    if type(lhs) is Top or type(rhs) is Bot:
        return lhs
    if type(rhs) is Top or type(lhs) is Bot:
        return rhs
    return Or(lhs, rhs)


def minimal_models(phi: PosBool, bit, dual=False):
    """The antichain of minimal satisfying pairs (plain, fresh) under bit,
    a mapping from each state to its own bit (1 << i): each side is the int
    mask of its states, the pairs (kept mask, refrozen mask) in ascending
    order.  The empty tuple means unsatisfiable (phi is equivalent to
    false).

    With dual, the result is minimal_models(reference.ara.dual(phi), bit),
    computed from phi itself without building its dual: Top gets the
    models of Bot and Bot those of Top, And joins as Or and Or as And.

    One explicit-stack loop, so any depth folds: an inner node's operands
    are pushed above a marker, True when their model sets are joined by
    union and False when by conjunction.  The loop walks phi as a tree, so
    a formula that shares subformulas by reference costs one walk per path
    through them."""
    union, true = (And, Bot) if dual else (Or, Top)
    done = []  # the model sets of the finished operands, left to right
    todo = [phi]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is bool:
            right = done.pop()
            left = done[-1]
            done[-1] = _minimize(left | right) if g else _conjoin(left, right)
        elif kind is And or kind is Or:
            todo += (kind is union, g.rhs, g.lhs)
        elif kind is Ref:
            done.append({(bit[g.state], 0)})
        elif kind is DownRef:
            done.append({(0, bit[g.state])})
        else:
            done.append({(0, 0)} if kind is true else set())
    models, = done
    return tuple(sorted(models))


def conjoin_models(left, right):
    """The minimal models of And(l, r) from minimal_models(l, bit) and
    minimal_models(r, bit), as ascending mask pairs."""
    return tuple(sorted(_conjoin(left, right)))


def _conjoin(left, right):
    return _minimize({(a | c, b | d) for (a, b) in left for (c, d) in right})


def _minimize(pairs):
    """The pairs no other pair of the set lies below."""
    if len(pairs) < 2:
        return pairs
    kept = set()
    for p in pairs:
        a, b = p
        for q in pairs:
            if q is not p and q[0] | a == a and q[1] | b == b:
                break
        else:
            kept.add(p)
    return kept


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

