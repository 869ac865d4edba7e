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


@dataclass(frozen=True)
class And(PosBool):
    lhs: PosBool
    rhs: PosBool


@dataclass(frozen=True)
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
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Ref):
        return phi.state in plain
    if isinstance(phi, DownRef):
        return phi.state in fresh
    if isinstance(phi, And):
        return eval_posbool(phi.lhs, chosen) and eval_posbool(phi.rhs, chosen)
    if isinstance(phi, Or):
        return eval_posbool(phi.lhs, chosen) or eval_posbool(phi.rhs, chosen)
    raise TypeError("not a positive boolean formula: %r" % (phi,))


def minimal_models(phi: PosBool):
    """The antichain of minimal satisfying pairs, canonically ordered.

    Empty tuple means unsatisfiable (phi is equivalent to false).
    """
    pairs = _models(phi)
    return tuple(sorted(pairs, key=lambda p: (sorted(p[0]), sorted(p[1]))))


def _models(phi):
    if isinstance(phi, Top):
        return {(frozenset(), frozenset())}
    if isinstance(phi, Bot):
        return set()
    if isinstance(phi, Ref):
        return {(frozenset([phi.state]), frozenset())}
    if isinstance(phi, DownRef):
        return {(frozenset(), frozenset([phi.state]))}
    if isinstance(phi, Or):
        return _minimize(_models(phi.lhs) | _models(phi.rhs))
    if isinstance(phi, And):
        left = _models(phi.lhs)
        right = _models(phi.rhs)
        return _minimize({(a | c, b | d) for (a, b) in left for (c, d) in right})
    raise TypeError("not a positive boolean formula: %r" % (phi,))


def _minimize(pairs):
    out = set()
    for a, b in pairs:
        if not any((c, d) != (a, b) and c <= a and d <= b for (c, d) in pairs):
            out.add((a, b))
    return out


_PB_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_^-]+|[&|()])")


def parse_posbool(text, states) -> PosBool:
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

    i = [0]

    def peek():
        return tokens[i[0]][0] if i[0] < len(tokens) else None

    def take():
        if i[0] >= len(tokens):
            raise ParseError("unexpected end of formula")
        tok = tokens[i[0]]
        i[0] += 1
        return tok

    def disj():
        f = conj()
        while peek() == "|":
            take()
            f = Or(f, conj())
        return f

    def conj():
        f = atom()
        while peek() == "&":
            take()
            f = And(f, atom())
        return f

    def atom():
        tok, p = take()
        if tok == "(":
            f = disj()
            closing, cp = take()
            if closing != ")":
                raise ParseError("expected ')'", cp)
            return f
        if tok == "true":
            return Top()
        if tok == "false":
            return Bot()
        if tok == "d":
            if peek() != "(":
                raise ParseError("expected '(' after 'd'", p)
            take()
            name, np = take()
            if name not in states:
                raise ParseError("unknown state %r" % name, np)
            closing, cp = take()
            if closing != ")":
                raise ParseError("expected ')'", cp)
            return DownRef(name)
        if tok in ("&", "|", ")"):
            raise ParseError("unexpected %r" % tok, p)
        if tok not in states:
            raise ParseError("unknown state %r" % tok, p)
        return Ref(tok)

    f = disj()
    if i[0] < len(tokens):
        tok, p = tokens[i[0]]
        raise ParseError("trailing input %r" % tok, p)
    return f


def format_posbool(phi: PosBool) -> str:
    # precedence: | = 0, & = 1, atomic = 2
    def fmt(g, level):
        if isinstance(g, Top):
            return "true"
        if isinstance(g, Bot):
            return "false"
        if isinstance(g, Ref):
            return g.state
        if isinstance(g, DownRef):
            return "d(%s)" % g.state
        if isinstance(g, And):
            s = fmt(g.lhs, 1) + " & " + fmt(g.rhs, 2)
            return "(" + s + ")" if level > 1 else s
        if isinstance(g, Or):
            s = fmt(g.lhs, 0) + " | " + fmt(g.rhs, 1)
            return "(" + s + ")" if level > 0 else s
        raise TypeError("not a positive boolean formula: %r" % (g,))

    return fmt(phi, 0)


def rebuild(phi: PosBool, leaf, swap=False) -> PosBool:
    """A copy of phi with every leaf g (Top, Bot, Ref, DownRef) replaced by
    leaf(g), and with And and Or exchanged when swap is set.  Runs on an
    explicit stack: formulas built outside the parser may nest deeper than
    the call stack."""
    joins = {And: Or, Or: And} if swap else {And: And, Or: Or}
    done = []
    todo = [phi]
    while todo:
        g = todo.pop()
        join = joins.get(type(g))
        if join is not None:  # rebuild g from its sides once both are done
            todo += (join, g.rhs, g.lhs)
        elif g is And or g is Or:
            rhs = done.pop()
            done[-1] = g(done[-1], rhs)
        else:
            done.append(leaf(g))
    return done[0]


def _dual_leaf(g):
    if isinstance(g, Top):
        return Bot()
    if isinstance(g, Bot):
        return Top()
    if isinstance(g, (Ref, DownRef)):
        return g
    raise TypeError("not a positive boolean formula: %r" % (g,))


def dual(phi: PosBool) -> PosBool:
    """Swap conjunction with disjunction and true with false."""
    return rebuild(phi, _dual_leaf, swap=True)
