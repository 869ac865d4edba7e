"""Immutable trees, such as ltl and ara.posbool formulas, that hash once
when a node is made and are parsed, compared and folded on an explicit
stack, so that no operation on a tree is bounded by the call stack.  A node
class is a Node subclass made with the `node` decorator; its fields are all
subtrees, left to right (an inner node), or all data such as a letter or a
state name (a leaf)."""

from dataclasses import dataclass, fields as dataclass_fields
from operator import attrgetter
import re

from .errors import ParseError


class Node:
    """Base of the node classes, which keep their fields in slots (a class
    that only groups node classes declares empty __slots__).  A node hashes
    as the tuple of its class's tag and its fields; the tag, the class's
    qualified name, keeps And(x, y) apart from Or(x, y), a formula from its
    dual and one fieldless node from another.  The subtrees' hashes are
    fixed by then, so making a node hashes no subtree again.  Nodes are
    equal when of one class with equal fields."""

    __slots__ = ("_hash",)
    arity = 0  # the number of subtrees; 0 at a leaf
    fields = ()  # the field values in declaration order; node sets a getter
    tag = ""  # "module.qualname" of the node class; node sets it

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            if a.arity:
                todo += zip(a.fields, b.fields)
            elif a.fields != b.fields:
                return False
        return True

    def __repr__(self):
        return fold(self, _repr_leaf, _repr_join)

    def __reduce__(self):
        # rebuilt through the constructor, which hashes afresh: string
        # hashes differ between processes
        return type(self), self.fields


def node(cls):
    """Make a Node subclass a frozen dataclass with slots.  Its fields are
    all subtrees, annotated with a Node class, or all data."""
    cls = dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)(cls)
    cls.tag = "%s.%s" % (cls.__module__, cls.__qualname__)
    fields = dataclass_fields(cls)
    names = [f.name for f in fields]
    cls.__init__ = _initializer(cls, [cls.__dict__[name].__set__ for name in names])
    if not fields:
        return cls  # Node's fields and arity serve
    get = attrgetter(*names)
    cls.fields = property(get if len(names) > 1 else lambda self: (get(self),))
    if isinstance(fields[0].type, type) and issubclass(fields[0].type, Node):
        cls.arity = len(names)
    return cls


_set_hash = Node._hash.__set__


def _initializer(cls, setters):
    """An __init__ that fills the slots through their descriptors, which the
    frozen __setattr__ does not guard, and fixes the hash; no field, one
    and two fields, the common shapes, get one of their own.  The nodes of
    a fieldless class share one hash object."""
    tag = cls.tag
    if not setters:
        shared = hash((tag,))

        def __init__(self):
            _set_hash(self, shared)
    elif len(setters) == 1:
        set_only, = setters

        def __init__(self, value):
            set_only(self, value)
            _set_hash(self, hash((tag, value)))
    elif len(setters) == 2:
        set_lhs, set_rhs = setters

        def __init__(self, lhs, rhs):
            set_lhs(self, lhs)
            set_rhs(self, rhs)
            _set_hash(self, hash((tag, lhs, rhs)))
    else:
        def __init__(self, *values):
            if len(values) != len(setters):
                raise TypeError("%s takes %d fields, not %d"
                                % (cls.__name__, len(setters), len(values)))
            for set_field, value in zip(setters, values):
                set_field(self, value)
            _set_hash(self, hash((tag,) + values))
    return __init__


_JOIN = object()  # marks, on the fold's stack, a node whose subtrees are done


def fold(root: Node, leaf, join):
    """The value of a tree computed bottom-up: leaf(g) at every leaf g,
    join(g, *values) at every inner node g from the values of its subtrees,
    which are folded left to right."""
    done = []
    todo = [root]
    while todo:
        g = todo.pop()
        if g is _JOIN:
            g = todo.pop()
            n = g.arity
            if n == 2:
                rhs = done.pop()
                done[-1] = join(g, done[-1], rhs)
            else:
                done[-n:] = (join(g, *done[-n:]),)
            continue
        try:
            n = g.arity
        except AttributeError:
            raise TypeError("not a tree node: %r" % (g,)) from None
        if n == 2:  # the common shape, pushed without slicing
            lhs, rhs = g.fields
            todo += (g, _JOIN, rhs, lhs)
        elif n:
            todo += (g, _JOIN)
            todo += g.fields[::-1]
        else:
            done.append(leaf(g))
    return done[0]


def _repr_leaf(g):
    return _repr_join(g, *map(repr, g.fields))


def _repr_join(g, *parts):
    names = [f.name for f in dataclass_fields(g)]
    return "%s(%s)" % (type(g).__name__,
                       ", ".join("%s=%s" % pair for pair in zip(names, parts)))


_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_^-]+|[&|()])")


def tokenize(text, unexpected="unexpected character %r"):
    """The (token, position) pairs of a formula: names and & | ( )."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(unexpected % rest[0], len(text) - len(rest))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_infix(tokens, binary, prefix, operand):
    """The tree of a token list read by operator precedence.  binary maps
    each infix operator to (precedence, node class, right-associative);
    prefix maps each prefix operator to the function that wraps its
    operand; parentheses group; operand(tok, pos, peek, take) makes the node
    of any other token, peek() showing and take() consuming the tokens
    after it."""
    tokens = tokens + [(None, None)]  # end marker
    i = 0

    def peek():
        return tokens[i][0]

    def take():
        nonlocal i
        tok = tokens[i]
        if tok[0] is None:
            raise ParseError("unexpected end of formula")
        i += 1
        return tok

    # per open parenthesis, innermost last, and for the group being read: the
    # prefix operators waiting for an operand, and the (precedence, node
    # class, left side) of the infix operators waiting for a right side
    groups = []
    wraps, waiting = [], []
    while True:
        tok, pos = take()
        if tok in prefix:
            wraps.append(prefix[tok])
            continue
        if tok == "(":
            groups.append((wraps, waiting))
            wraps, waiting = [], []
            continue
        if tok == ")" or tok in binary:
            raise ParseError("unexpected %r" % tok, pos)
        f = operand(tok, pos, peek, take)
        # f completes an operand; closing parentheses complete further ones
        while True:
            while wraps:
                f = wraps.pop()(f)
            nxt, npos = tokens[i]
            prec, make, right = binary.get(nxt, (-1, None, False))
            while waiting and (waiting[-1][0] > prec or waiting[-1][0] == prec and not right):
                _, join, lhs = waiting.pop()
                f = join(lhs, f)
            if make is not None:
                waiting.append((prec, make, f))
                i += 1
                break
            if not groups:
                if nxt is not None:
                    raise ParseError("trailing input %r" % nxt, npos)
                return f
            closing, cpos = take()
            if closing != ")":
                raise ParseError("expected ')'", cpos)
            wraps, waiting = groups.pop()


def infix_printer(binary):
    """The fold join that prints the infix nodes of a parse_infix operator
    table from the (text, precedence) pairs of their sides, each side
    parenthesized where the operator binds tighter."""
    table = {kind: (" %s " % tok, prec, right) for tok, (prec, kind, right) in binary.items()}

    def join(g, lhs, rhs):
        text, prec, right = table[type(g)]
        return parenthesize(lhs, prec + right) + text + parenthesize(rhs, prec + (not right)), prec
    return join


def parenthesize(part, level):
    """The text of a (text, precedence) pair, in parentheses when its
    precedence is below level."""
    text, prec = part
    return "(" + text + ")" if prec < level else text
