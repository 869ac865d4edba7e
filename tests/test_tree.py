"""Property tests of the shared tree base: equality, hashing and fold on
random formula and positive boolean trees, each against a recursive
reference kept here."""

import copy
from dataclasses import make_dataclass
from itertools import combinations
import pickle

from hypothesis import given, settings, strategies as st
import pytest

from regsafe import ltl
from regsafe.ara import posbool as pb
from regsafe.reference.ara import dual
from regsafe.tree import Node, fold, node

# seeded, and with no example database left on disk
_settings = settings(max_examples=150, derandomize=True, database=None, deadline=None)

LTL_LEAVES = st.one_of(st.sampled_from("ab").map(ltl.Atom), st.just(ltl.Top()),
                       st.just(ltl.Bot()), st.just(ltl.Up()), st.just(ltl.NotUp()))
PB_LEAVES = st.one_of(st.sampled_from("pq").map(pb.Ref), st.sampled_from("pq").map(pb.DownRef),
                      st.just(pb.Top()), st.just(pb.Bot()))


def _ltl_inner(sub):
    binary = st.sampled_from([ltl.And, ltl.Or, ltl.Release])
    unary = st.sampled_from([ltl.Next, ltl.Freeze])
    return st.one_of(st.builds(lambda k, l, r: k(l, r), binary, sub, sub),
                     st.builds(lambda k, b: k(b), unary, sub))


def _pb_inner(sub):
    return st.builds(lambda k, l, r: k(l, r), st.sampled_from([pb.And, pb.Or]), sub, sub)


TREES = st.one_of(st.recursive(LTL_LEAVES, _ltl_inner, max_leaves=12),
                  st.recursive(PB_LEAVES, _pb_inner, max_leaves=12))


# -- recursive references ---------------------------------------------------

def _children(g):
    return g.fields if g.arity else ()


def _copy(g):
    """A structurally equal tree of distinct objects."""
    if g.arity:
        return type(g)(*map(_copy, _children(g)))
    return type(g)(*g.fields)


_MIRRORS = {}


def _mirror(g):
    """The tree rebuilt from plain frozen dataclasses of the same names, with
    the node class's tag as a field before the node's own, whose generated
    == and hash are the references."""
    kind = type(g)
    if kind not in _MIRRORS:
        names = ["tag"] + list(kind.field_names)
        _MIRRORS[kind] = make_dataclass(kind.__name__, names, frozen=True)
    values = map(_mirror, _children(g)) if g.arity else g.fields
    return _MIRRORS[kind](kind.tag, *values)


def _fold_reference(g, leaf, join, values=None):
    """The recursive fold, calling leaf at every leaf and join once per
    inner node object, at its first place left to right."""
    if not g.arity:
        return leaf(g)
    values = {} if values is None else values
    if id(g) not in values:
        values[id(g)] = join(g, *(_fold_reference(c, leaf, join, values) for c in _children(g)))
    return values[id(g)]


def _leaves(g):
    if g.arity:
        return [leaf for c in _children(g) for leaf in _leaves(c)]
    return [g]


def _replace_leaf(g, index, new):
    """g with its index-th leaf, counted left to right, replaced by new."""
    if not g.arity:
        return new
    parts = []
    for c in _children(g):
        size = len(_leaves(c))
        parts.append(_replace_leaf(c, index, new) if 0 <= index < size else c)
        index -= size
    return type(g)(*parts)


def _swap_and_or(g, index):
    """g with its index-th And or Or node, subtrees before their node,
    exchanged for the other connective, and index less the number of such
    nodes (negative when one was exchanged)."""
    kinds = {ltl.And: ltl.Or, ltl.Or: ltl.And, pb.And: pb.Or, pb.Or: pb.And}
    if not g.arity:
        return g, index
    parts = []
    for c in _children(g):
        c, index = _swap_and_or(c, index)
        parts.append(c)
    kind = type(g)
    if kind in kinds:
        if index == 0:
            kind = kinds[kind]
        index -= 1
    return kind(*parts), index


# -- properties -------------------------------------------------------------

def _agree(a, b):
    assert (a == b) == (_mirror(a) == _mirror(b))
    assert (a != b) == (_mirror(a) != _mirror(b))
    assert hash(a) == hash(_mirror(a)) and hash(b) == hash(_mirror(b))


@_settings
@given(TREES)
def test_equal_copies_are_equal(t):
    copy = _copy(t)
    assert copy is not t
    assert copy == t and not copy != t and hash(copy) == hash(t)
    _agree(copy, t)
    assert {t: 1}[copy] == 1


@_settings
@given(TREES, TREES)
def test_equality_and_hash_match_dataclass_reference(a, b):
    _agree(a, b)


@_settings
@given(TREES, st.integers(min_value=0), st.data())
def test_one_leaf_changed(t, index, data):
    leaves = _leaves(t)
    index %= len(leaves)
    new = data.draw(LTL_LEAVES if isinstance(t, ltl.Formula) else PB_LEAVES)
    changed = _replace_leaf(t, index, new)
    assert (changed == t) == (new == leaves[index])
    _agree(changed, t)


@_settings
@given(TREES, st.integers(min_value=0, max_value=11))
def test_and_or_swapped(t, index):
    swapped, left = _swap_and_or(t, index)
    assert (swapped == t) == (left >= 0)
    _agree(swapped, t)


@_settings
@given(TREES)
def test_fold_matches_recursive_fold(t):
    calls = {"fold": [], "reference": []}

    def folder(log):
        def leaf(g):
            log.append(("leaf", g))
            return repr(g)

        def join(g, *parts):
            log.append(("join", type(g), parts))
            return "%s[%s]" % (type(g).__name__, ",".join(parts))
        return leaf, join

    # and on a DAG, whose second t is joined no more
    shared = (ltl.And if isinstance(t, ltl.Formula) else pb.And)(t, t)
    for g in (t, shared):
        got = fold(g, *folder(calls["fold"]))
        want = _fold_reference(g, *folder(calls["reference"]))
        assert got == want
        assert calls["fold"] == calls["reference"]


def test_node_classes_hash_apart():
    """The class tag keeps apart what has the same fields: a connective and
    its dual, a reference and its down-marked twin, and fieldless nodes."""
    x, y = pb.Ref("p"), pb.DownRef("q")
    pairs = [(pb.And(x, y), pb.Or(x, y)), (pb.Ref("p"), pb.DownRef("p")),
             (ltl.And(ltl.Top(), ltl.Up()), ltl.Or(ltl.Top(), ltl.Up())),
             (ltl.Next(ltl.Top()), ltl.Freeze(ltl.Top()))]
    pairs += combinations((pb.Top(), pb.Bot(), ltl.Top(), ltl.Bot(), ltl.Up(), ltl.NotUp()), 2)
    for f, g in pairs:
        assert hash(f) != hash(g), (f, g)
    phi = pb.And(pb.Or(x, pb.Top()), pb.And(y, pb.Bot()))
    assert hash(dual(phi)) != hash(phi)


def test_equal_hashes_are_not_trusted():
    """hash(-1) == hash(-2) in CPython, so these nodes collide and only
    their fields tell them apart."""
    a, b = ltl.Atom(-1), ltl.Atom(-2)
    assert hash(a) == hash(b) and a != b
    assert hash(ltl.Next(a)) == hash(ltl.Next(b)) and ltl.Next(a) != ltl.Next(b)


def test_pickle_and_copy_hash_afresh():
    f = ltl.Release(ltl.Bot(), ltl.Freeze(ltl.Next(ltl.Or(ltl.Up(), ltl.Atom("a")))))
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g == f and hash(g) == hash(f)
    with pytest.raises(AttributeError):
        f.lhs = ltl.Top()
    with pytest.raises(AttributeError):
        del f.lhs


def test_fold_rejects_a_non_node():
    with pytest.raises(TypeError, match="not a tree node"):
        fold(pb.And(pb.Ref("p"), "q"), repr, lambda g, *parts: parts)


def test_deep_ltl_equality_hash_and_repr():
    """Nodes made one on another, deeper than the call stack."""
    f = g = ltl.Atom("a")
    for k in range(3000):
        f = ltl.Next(f) if k % 2 else ltl.And(ltl.Top(), f)
        g = ltl.Next(g) if k % 2 else ltl.And(ltl.Top(), g)
    assert f is not g and f == g and hash(f) == hash(g)
    assert repr(f).startswith("Next(body=And(lhs=Top(), rhs=Next(body=")
    assert ltl.print_formula(f).count("X") == 1500


def test_node_refuses_three_fields():
    """No node class has more than two fields, and node keeps it so."""
    class Triple(Node):
        a: Node
        b: Node
        c: Node

    with pytest.raises(TypeError, match="Triple has 3 fields; a node has at most 2"):
        node(Triple)
