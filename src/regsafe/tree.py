"""Immutable trees, such as ltl and ara.posbool formulas, that hash once
when a node is made and are parsed, compared and folded on an explicit
stack, so that no operation on a tree is bounded by the call stack.  A node
class is a Node subclass made with the `node` decorator from its field
annotations; its fields are all subtrees, left to right (an inner node), or
all data such as a letter or a state name (a leaf).  A node keeps its
fields in slots and refuses assignment."""

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
    field_names = ()  # the field names in declaration order; node sets them
    fields = ()  # the field values in declaration order; node sets a getter
    tag = ""  # "module.qualname" of the node class; node sets it

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self.arity:
            return self._hash == other._hash and self.fields == other.fields
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

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        # rebuilt through the constructor, which hashes afresh: string
        # hashes differ between processes
        return type(self), self.fields


def node(cls):
    """The node class of a Node subclass: the class made again with one
    slot per annotated field, an __init__ taking the fields in order, and
    the class's tag, field names and field getter.  Its fields, at most
    two, are all subtrees, annotated with a Node class, or all data."""
    annotations = cls.__annotations__  # only the class's own, from Python 3.10
    names = tuple(annotations)
    if len(names) > 2:
        raise TypeError("%s has %d fields; a node has at most 2" % (cls.__name__, len(names)))
    body = {key: value for key, value in cls.__dict__.items()
            if key not in ("__dict__", "__weakref__")}
    body["__slots__"] = names
    body["__qualname__"] = cls.__qualname__
    body["field_names"] = names
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls.tag = "%s.%s" % (cls.__module__, cls.__qualname__)
    cls.__init__ = _initializer(cls, [cls.__dict__[name].__set__ for name in names])
    if not names:
        return cls  # Node's fields and arity serve
    get = attrgetter(*names)
    cls.fields = property(get if len(names) > 1 else lambda self: (get(self),))
    kind = annotations[names[0]]
    if isinstance(kind, type) and issubclass(kind, Node):
        cls.arity = len(names)
    return cls


_set_hash = Node._hash.__set__


def _initializer(cls, setters):
    """An __init__ that fills the slots through their descriptors, which
    Node's refusing __setattr__ does not guard, and fixes the hash, for no
    field, one or two.  The nodes of a fieldless class share one hash
    object."""
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
    else:
        set_lhs, set_rhs = setters

        def __init__(self, lhs, rhs):
            set_lhs(self, lhs)
            set_rhs(self, rhs)
            _set_hash(self, hash((tag, lhs, rhs)))
    return __init__


_JOIN = object()  # marks, on the fold's stack, a node whose subtrees are done


def fold(root: Node, leaf, join):
    """The value of a tree computed bottom-up: leaf(g) at every leaf g,
    join(g, *values) at every inner node g from the values of its subtrees,
    which are folded left to right.  Each distinct inner node object is
    joined once, at its first place in that order, and its value serves
    wherever else it sits: the work is linear in the nodes of the DAG, not
    in the paths of the tree, and a fold that copies shares the inner nodes
    its source shares.  leaf is called at every place of a leaf."""
    values = {}  # id of an inner node joined in this call -> its value
    done = []
    todo = [root]
    while todo:
        g = todo.pop()
        if g is _JOIN:
            g = todo.pop()
            n = g.arity
            if n == 2:
                rhs = done.pop()
                value = done[-1] = join(g, done[-1], rhs)
            else:
                value = join(g, *done[-n:])
                done[-n:] = (value,)
            values[id(g)] = value
            continue
        try:
            n = g.arity
        except AttributeError:
            raise TypeError("not a tree node: %r" % (g,)) from None
        if not n:
            done.append(leaf(g))
            continue
        key = id(g)
        if key in values:  # folded before: its whole subtree is done
            done.append(values[key])
        elif n == 2:  # the common shape, pushed without slicing
            lhs, rhs = g.fields
            todo += (g, _JOIN, rhs, lhs)
        else:
            todo += (g, _JOIN)
            todo += g.fields[::-1]
    return done[0]


def _repr_leaf(g):
    return _repr_join(g, *map(repr, g.fields))


def _repr_join(g, *parts):
    return "%s(%s)" % (type(g).__name__,
                       ", ".join("%s=%s" % pair for pair in zip(g.field_names, parts)))


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
