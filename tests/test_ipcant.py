import copy
import importlib
import math
import os
import pickle
import pkgutil
import random

from hypothesis import given, settings, strategies as hst
import pytest

from regsafe.errors import ParseError, ValidationError
from regsafe.words import Alphabet
from itertools import combinations, permutations, product

from regsafe.ipcant import (BoundParams, CounterMachine, CounterStructure, Dec, EPS, Inc,
                            Instruction, Transfer, Transition, bound_log2_log2, bound_params,
                            check_distributive, compositions, format_machine, ifz_cap,
                            parse_machine, split_tokens)
from regsafe.ipcant.distributive import _irredundant_covers_of
import regsafe
from regsafe import ipcant, memo, randgen
from regsafe.ara import ltl_to_ara, parse_automaton
from regsafe.cli import run_cli
from regsafe.ltl import parse_formula
from regsafe.pipeline import ara_to_ipcant
from regsafe.reference.ipcant import (Valuation, bound_ceiling, fire, fire_lazy, image,
                                      random_distributive_transfer, random_instruction,
                                      random_structure, random_transfer, random_valuation,
                                      sqsse, sub_valuation, transfer_witnesses, valuation)

UNCUT = 1 << 30  # a value bound above every count these tests reach


def _vals(results):
    return {tuple(v.values) for v in results}


@pytest.fixture()
def xy():
    return CounterStructure(("x", "y"), (frozenset("x"), frozenset("y")))


def test_structure_validation():
    with pytest.raises(ValidationError):
        CounterStructure(("x", "x"), ())
    with pytest.raises(ValidationError):
        CounterStructure(("x",), (frozenset(),))
    with pytest.raises(ValidationError):
        CounterStructure(("x",), (frozenset("y"),))
    with pytest.raises(ValidationError):
        CounterStructure(("x",), (frozenset("x"), frozenset("x")))


def test_valuation_validation(xy):
    with pytest.raises(ValidationError):
        Valuation(xy, (1,))
    with pytest.raises(ValidationError):
        Valuation(xy, (1, -1))
    v = valuation(xy, {"x": 2})
    assert v["x"] == 2 and v[frozenset("y")] == 0
    assert v.total() == 2


def test_fire_inc_dec(xy):
    v = valuation(xy, {"x": 1})
    assert _vals(fire(v, Inc(frozenset("y")))) == {(1, 1)}
    assert _vals(fire(v, Dec(frozenset("x")))) == {(0, 0)}
    assert fire(v, Dec(frozenset("y"))) == set()
    with pytest.raises(ValidationError, match="unknown instruction"):
        fire(v, Instruction())


def test_fire_transfer_splitting(xy):
    """Two tokens on x split over {x, y}: every distribution is a result."""
    f = Transfer(((frozenset("x"), (frozenset("x"), frozenset("y"))),
                  (frozenset("y"), (frozenset("y"),))))
    v = valuation(xy, {"x": 2, "y": 1})
    assert _vals(fire(v, f)) == {(2, 1), (1, 2), (0, 3)}


def test_fire_transfer_unfirable_on_empty_image(xy):
    f = Transfer(((frozenset("x"), ()),))
    assert fire(valuation(xy, {"x": 1}), f) == set()
    assert _vals(fire(valuation(xy, {"y": 2}), f)) == {(0, 2)}


def _compositions_reference(n, k):
    """compositions as it stood, recursing once per part."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions_reference(n - head, k - 1):
            yield (head,) + rest


def test_compositions_match_recursive_reference():
    for n in range(7):
        for k in range(7):
            assert list(compositions(n, k)) == list(_compositions_reference(n, k)), (n, k)


def test_split_tokens_many_images():
    """One token over more images than the call stack is deep: every image
    is an outcome, in the order of compositions, which puts the last image
    first."""
    outcomes, truncated = split_tokens(((0, 1),), lambda ci: tuple((j, 0) for j in range(1500)))
    assert not truncated
    assert outcomes == [(0, ((j, 1),)) for j in reversed(range(1500))]


def test_ifz_cap_semantics():
    st = CounterStructure(("x", "y"), (frozenset("x"), frozenset("y"),
                                       frozenset(("x", "y"))))
    instr = ifz_cap(("x",), st.counters)
    ok = valuation(st, {"y": 3})
    assert fire(ok, instr) == {ok}
    assert fire(valuation(st, {"x": 1}), instr) == set()
    assert fire(valuation(st, {("x", "y"): 1}), instr) == set()


def test_transfer_witness_sums(xy):
    f = Transfer(((frozenset("x"), (frozenset("x"), frozenset("y"))),))
    v = valuation(xy, {"x": 2, "y": 1})
    for witness, result in transfer_witnesses(v, f):
        for c, n in v.items():
            assert sum(k for (src, _), k in witness.items() if src == c) == n
        for c, n in result.items():
            assert sum(k for (_, dst), k in witness.items() if dst == c) == n


def test_fire_transfer_preserves_tokens():
    rng = random.Random(12)
    for _ in range(300):
        st = random_structure(rng)
        f = random_distributive_transfer(rng, st)
        v = random_valuation(rng, st)
        for v2 in fire(v, f):
            assert v2.total() == v.total()


def test_fire_lazy(xy):
    v = valuation(xy, {})
    assert fire_lazy(v, Dec(frozenset("x"))) == {v}
    v2 = valuation(xy, {"x": 2})
    assert _vals(fire_lazy(v2, Dec(frozenset("x")))) == {(1, 0)}
    f = Transfer(((frozenset("x"), (frozenset("y"),)),))
    assert fire_lazy(v2, f) == fire(v2, f)


def test_sqsse_examples():
    st = CounterStructure(("x", "y"), (frozenset("x"), frozenset(("x", "y"))))
    small = valuation(st, {"x": 1})
    big = valuation(st, {("x", "y"): 1})
    assert sqsse(small, big)
    assert not sqsse(big, small)
    assert sqsse(small, small)
    v = valuation(st, {"x": 1, ("x", "y"): 2})
    assert sqsse(valuation(st, {"x": 1, ("x", "y"): 1}), v)


def test_sqsse_pointwise_and_structure_mismatch(xy):
    rng = random.Random(13)
    for _ in range(100):
        st = random_structure(rng)
        v = random_valuation(rng, st)
        assert sqsse(sub_valuation(rng, v), v)
    other = CounterStructure(("x",), (frozenset("x"),))
    with pytest.raises(ValidationError):
        sqsse(valuation(other, {}), valuation(xy, {}))


def _tokens(values):
    """One counter index per token, in counter order."""
    return [i for i, n in enumerate(values) for _ in range(n)]


def _embeds(counters, small, big):
    """By brute force: some injective assignment of small's tokens to big's
    puts each on a counter containing its own."""
    want, have = _tokens(small), _tokens(big)
    return any(all(counters[i] <= counters[have[k]] for i, k in zip(want, ks))
               for ks in permutations(range(len(have)), len(want)))


def _greedy_embeds(counters, small, big):
    """Each of small's tokens in turn on the first free fitting token of big."""
    free = list(big)
    for i in _tokens(small):
        j = next((j for j, m in enumerate(free) if m and counters[i] <= counters[j]), None)
        if j is None:
            return False
        free[j] -= 1
    return True


def test_sqsse_matches_hall_condition():
    """Against a brute-force token assignment on seeded pairs of at most 5
    tokens each: half drawn independently, half made by lifting small's
    tokens onto random superset counters and then moving one token anywhere.
    Some pairs embed although placing tokens greedily fails."""
    rng = random.Random(17)
    seen = set()
    for trial in range(600):
        st = random_structure(rng, max_basis=4, max_counters=8)
        counters = st.counters
        small = [0] * len(counters)
        for _ in range(rng.randint(1, 5)):
            small[rng.randrange(len(counters))] += 1
        big = [0] * len(counters)
        if trial % 2:
            for _ in range(rng.randint(0, 5)):
                big[rng.randrange(len(counters))] += 1
        else:
            for i in _tokens(small):
                big[rng.choice([j for j, d in enumerate(counters) if counters[i] <= d])] += 1
            if rng.random() < 0.5:
                big[rng.choice(_tokens(big))] -= 1
                big[rng.randrange(len(counters))] += 1
        want = _embeds(counters, small, big)
        got = sqsse(Valuation(st, tuple(small)), Valuation(st, tuple(big)))
        assert got == want, (counters, small, big)
        seen.add((want, _greedy_embeds(counters, small, big)))
    assert seen == {(True, True), (True, False), (False, False)}


def test_check_distributive_fy_and_singletons():
    for k in range(1, 5):
        basis = tuple("x%d" % i for i in range(k))
        pool = []
        for r in range(1, k + 1):
            pool += [frozenset(c) for c in combinations(basis, r)]
        for r in range(k + 1):
            for y in combinations(basis, r):
                f = ifz_cap(y, pool).as_map(pool)
                assert check_distributive(f, pool)


def test_check_distributive_witness_false():
    x, y, xy_ = frozenset("x"), frozenset("y"), frozenset(("x", "y"))
    counters = (x, y, xy_)
    f = {x: (x,), y: (y,), xy_: ()}
    assert not check_distributive(f, counters)


def test_check_distributive_requires_total():
    x, y = frozenset("x"), frozenset("y")
    with pytest.raises(ValidationError):
        check_distributive({x: (x,)}, (x, y))


def _reference_covers(c, members):
    """Reference enumerator on frozensets: index-increasing selections from
    members whose union covers c and where no member can be dropped."""
    def rec(start, sel, covered):
        if c <= covered:
            if all(not c <= frozenset().union(*(m for m in sel if m is not x)) for x in sel):
                yield list(sel)
            return
        for i in range(start, len(members)):
            if (members[i] & c) - covered:
                sel.append(members[i])
                yield from rec(i + 1, sel, covered | members[i])
                sel.pop()

    yield from rec(0, [], frozenset())


def _reference_distributive(f, counters):
    """Reference check: every image choice over every irredundant cover."""
    for c in counters:
        members = [d for d in counters if d & c]
        for cover in _reference_covers(c, members):
            for choice in product(*(f[d] for d in cover)):
                u = frozenset().union(*choice)
                if not any(img <= u for img in f[c]):
                    return False
    return True


def test_irredundant_covers_match_reference():
    """The enumerator yields the reference's covers of every counter of a
    family, in the reference's order, from the counters' basis bitmasks."""
    rng = random.Random(40)
    for _ in range(200):
        st = random_structure(rng, max_basis=4, max_counters=7)
        counters = st.counters
        masks = [sum(1 << st.basis.index(e) for e in c) for c in counters]
        for c, m in zip(counters, masks):
            members = [d for d in counters if d & c]
            assert [[counters[j] for j in cover] for cover in _irredundant_covers_of(m, masks)] \
                == list(_reference_covers(c, members))


def test_check_distributive_matches_reference():
    rng = random.Random(41)
    verdicts = []
    for _ in range(400):
        st = random_structure(rng, max_basis=4, max_counters=6)
        f = random_transfer(rng, st).as_map(st.counters)
        want = _reference_distributive(f, st.counters)
        assert check_distributive(f, st.counters) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_check_distributive_images_outside_the_counters():
    """Images may name basis elements no counter holds, and elements beyond
    the basis; each keeps a bit of its own."""
    x, y, xy_ = frozenset("x"), frozenset("y"), frozenset("xy")
    counters = (x, y, xy_)
    v, w = frozenset("v"), frozenset("w")
    # the cover {x}, {y} of {x,y} unions to {v}, which misses w
    assert not check_distributive({x: (v,), y: (v,), xy_: (v | w,)}, counters)
    assert check_distributive({x: (v,), y: (w,), xy_: (v | w,)}, counters)
    assert not check_distributive({x: (x,), y: (y,), xy_: (xy_ | w,)}, counters)
    rng = random.Random(42)
    verdicts = []
    for _ in range(400):
        st = random_structure(rng, max_basis=4, max_counters=5)
        pool = st.basis + ("z",)
        f = {}
        for c in st.counters:
            f[c] = tuple(frozenset(rng.sample(pool, rng.randint(1, 2)))
                         for _ in range(rng.randint(0, 2)))
        want = _reference_distributive(f, st.counters)
        assert check_distributive(f, st.counters) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


_X, _Y, _XY = frozenset("x"), frozenset("y"), frozenset("xy")
_WITNESS = {_X: (_X,), _Y: (_Y,), _XY: ()}  # the cover {x}, {y} of {x,y} has no image
_CM_HEADER = "alphabet: a\nbasis: x y\ncounters: {x} {y} {x,y}\nstates: p\ninitial: p\n"


def test_repeated_checks_keep_refusing_non_distributive_maps():
    counters = (_X, _Y, _XY)
    assert check_distributive({c: (c,) for c in counters}, counters)
    assert not check_distributive(_WITNESS, counters)
    assert check_distributive({c: (c,) for c in counters}, counters)
    assert not check_distributive(dict(_WITNESS), list(counters))
    good = parse_machine(_CM_HEADER + "p -a, transf {x,y}->[{x,y}]-> p\n", "full")
    assert good.counters == counters
    with pytest.raises(ValidationError, match="not distributive"):
        parse_machine(_CM_HEADER + "p -a, transf {x,y}->[]-> p\n", "full")
    with pytest.raises(ValidationError, match="not distributive"):
        parse_machine(_CM_HEADER + "p -a, transf {x,y}->[]-> p\n")


def test_non_total_map_raises_on_every_check():
    counters = (_X, _Y, _XY)
    check_distributive({c: (c,) for c in counters}, counters)
    for _ in range(2):
        with pytest.raises(ValidationError, match="not total"):
            check_distributive({_X: (_X,), _Y: (_Y,)}, counters)


def test_families_keep_their_own_verdicts():
    """Maps of one shape, counter i to the counters at the same indices, over
    families of the same size, one of them a reordering of another: each
    verdict is its own family's."""
    # {x,y} is covered by {x} and {y} in the first family only
    assert not check_distributive(_WITNESS, (_X, _Y, _XY))
    z = frozenset("z")
    assert check_distributive({_X: (_X,), _Y: (_Y,), z: ()}, (_X, _Y, z))
    rng = random.Random(43)
    verdicts = set()
    for _ in range(300):
        a = random_structure(rng, max_basis=3, max_counters=5)
        b = random_structure(rng, max_basis=3, max_counters=5)
        n = min(len(a.counters), len(b.counters))
        shape = [rng.sample(range(n), rng.randint(0, min(2, n))) for _ in range(n)]
        mixed = tuple(rng.sample(a.counters[:n], n))
        for counters in (a.counters[:n], b.counters[:n], mixed, a.counters[:n]):
            f = {c: tuple(counters[j] for j in js) for c, js in zip(counters, shape)}
            want = _reference_distributive(f, counters)
            assert check_distributive(f, counters) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_caches_stay_within_their_bounds(monkeypatch):
    # more distinct transfers over one family than its verdicts memo keeps,
    # bounded by regsafe.memo.BOUND as it reads each time the memo keeps
    limit = 64
    monkeypatch.setattr(memo, "BOUND", limit)
    counters = tuple(frozenset([e]) for e in "stuv")
    st = CounterStructure("stuv", counters)
    images = [()] + [(c,) for c in counters] + [(c, d) for c in counters for d in counters]
    maps = product(images, repeat=len(counters))
    for _ in range(2 * limit + 10):
        ipcant.distributive._check_transfers([Transfer(tuple(zip(counters, next(maps))))], st)
        assert len(st.verdicts) <= limit
    assert len(st.verdicts) == 10
    assert all(ok for _, ok in st.verdicts.values())


def test_process_wide_caches_only_intern():
    """The lru_caches of every regsafe module outside regsafe.reference: the
    shared argument parser and three interners of a shared family object, at
    the stdlib's default bound.  What is derived from a family is kept in
    its structure's memos (test_family_memos_stay_within_their_bound), and
    ltl_to_ara keeps nothing: equal calls return distinct automata."""
    caches = {}
    for info in pkgutil.walk_packages(regsafe.__path__, "regsafe."):
        if info.name == "regsafe.__main__" or info.name.startswith("regsafe.reference"):
            continue
        module = importlib.import_module(info.name)
        caches.update(((info.name.rpartition(".")[2], name), f.cache_info().maxsize)
                      for name, f in vars(module).items()
                      if hasattr(f, "cache_info") and f.__module__ == info.name)
    assert caches == {("cli", "_build_parser"): 1, ("compile", "family_structure"): 128,
                      ("compile", "letter_free_cycle"): 128, ("fileformat", "_parse_structure"): 128}
    ab = Alphabet(("a", "b"))
    f = parse_formula("G (down X nup | a)", ab)
    assert ltl_to_ara(f, ab) is not ltl_to_ara(f, ab)


def test_family_memos_stay_within_their_bound(monkeypatch):
    """A machine with more distinct instruction and Transition objects than
    a family memo keeps, all equal, built and printed twice: the op and
    print memos of its structure, bounded by regsafe.memo.BOUND as it reads
    each time a memo keeps, are emptied when full, so they never exceed
    it, and every op and printed line stays right.
    Equal copies are kept apart, one entry per object.  The bound holds for
    every memo of a structure: a file with more distinct lines,
    instructions and transfers than that bound parses, checks and prints
    as its text in either check mode."""
    limit = 16
    monkeypatch.setattr(memo, "BOUND", limit)
    st = CounterStructure(("x",), (frozenset("x"),))
    trans = [Transition("p", "a", Inc(frozenset("x")), "p") for _ in range(limit + 10)]
    for _ in range(2):
        m = CounterMachine(Alphabet(("a",)), ("p",), "p", st, trans)
        assert 0 < len(st.ops) <= limit
        assert format_machine(m).count("p -a, inc {x}-> p\n") == limit + 10
        assert 0 < len(st.lines) <= limit
        assert m.config_successors("p", ((0, 2),), None, UNCUT) == (
            [("a", "p", ((0, 3),), 1)] * (limit + 10), False)
    st = CounterStructure(("x",), (frozenset("x"),))
    one, two = Inc(frozenset("x")), Inc(frozenset("x"))
    assert st.op(one) == (one, Inc, 0) and st.op(two)[0] is two
    assert st.op(one)[0] is one and len(st.ops) == 2
    # a copy, whose memos would name objects by ids it does not hold, starts
    # with empty memos
    memos = ("parsed", "instrs", "ops", "lines", "verdicts")
    for back in (pickle.loads(pickle.dumps(st)), copy.copy(st), copy.deepcopy(st)):
        assert back == st and hash(back) == hash(st)
        assert all(getattr(back, name) == {} for name in memos)
    monkeypatch.setattr(memo, "BOUND", 3)
    header = "alphabet: a b\nbasis: m n\ncounters: {m} {n} {m,n}\nstates: p q\ninitial: p\n"
    body = ["p -%s, transf %s-> q" % (a, entry) for a in "ab"
            for entry in ("{m}->[{m,n}]", "{m}->[{m},{m,n}]", "{n}->[{m,n}]", "{n}->[{n},{m,n}]")]
    body += ["q -%s, %s {%s}-> p" % (a, op, c) for a in "ab" for op in ("inc", "dec")
             for c in ("m", "n")]
    text = header + "\n".join(body) + "\n"
    ipcant.fileformat._parse_structure.cache_clear()
    for load in range(4):
        m = parse_machine(text)
        assert format_machine(m) == text
        assert m.structure.printed == {c: "{%s}" % ",".join(sorted(c)) for c in m.counters}
        assert all(0 < len(getattr(m.structure, name)) <= 3 for name in memos), load


def test_ifz_cap_outside_the_basis_is_refused():
    """An ifz^cap set with an element outside basis: is refused on every
    parse, the empty set and the basis's own elements are not."""
    header = "alphabet: a\nbasis: x y\ncounters: {x} {x,y}\nstates: p\ninitial: p\n"
    for text in ("{z}", "{x,z}", "{zz}"):
        for _ in range(2):
            with pytest.raises(ValidationError, match="unknown basis elements"):
                parse_machine(header + "p -a, ifz^cap %s-> p\n" % text)
    for text, y in (("{}", ""), ("{y}", "y"), ("{x,y}", "xy")):
        m = parse_machine(header + "p -a, ifz^cap %s-> p\n" % text)
        assert m.transitions[0].instr == ifz_cap(set(y), m.counters)


def test_structure_builds_its_index_on_first_use():
    st = CounterStructure(("x", "y"), [{"x"}, {"x", "y"}])
    assert "index" not in vars(st)
    assert st.index == {frozenset("x"): 0, frozenset("xy"): 1}
    assert st.index is st.index
    assert hash(st) == hash(CounterStructure(("x", "y"), [{"x"}, {"y", "x"}]))


def test_instruction_memo_is_per_family():
    """One ifz^cap text parsed over two counter families, in either order,
    expands over each family's own counters and is kept in each family's
    instrs memo; within a family every machine gets the same instruction
    object."""
    line = "p -a, ifz^cap {x}-> p\n"
    first = "alphabet: a\nbasis: x y\ncounters: {x} {y} {x,y}\nstates: p\ninitial: p\n" + line
    second = "alphabet: a\nbasis: x y\ncounters: {y} {x,y}\nstates: p\ninitial: p\n" + line
    for texts in ((first, second), (second, first)):
        ipcant.fileformat._parse_structure.cache_clear()
        for text in texts + texts:
            m = parse_machine(text)
            assert m.transitions[0].instr == ifz_cap({"x"}, m.structure.counters)
            assert m.structure.instrs == {"ifz^cap {x}": m.transitions[0].instr}
    ifz = [parse_machine(text).transitions[0].instr for text in (first, first, second)]
    assert ifz[0] is ifz[1] and ifz[0] != ifz[2]


def test_instruction_memo_at_its_bound(monkeypatch):
    """A file with more distinct instruction texts than the family's instrs
    memo keeps, its first text repeated at the end: the memo stays at its
    bound, so the last line parses its text again, every instruction
    equals the one its text says, and the machine prints as the texts
    say."""
    monkeypatch.setattr(memo, "BOUND", 16)
    texts = ["inc" + " " * k + "{x}" for k in range(1, 16 + 10)]
    body = "".join("p -a, %s-> p\n" % t for t in texts + texts[:1])
    ipcant.fileformat._parse_structure.cache_clear()
    m = parse_machine("alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n" + body)
    # 16 texts fill the memo, which empties for the 17th
    assert list(m.structure.instrs) == texts[16:] + texts[:1]
    assert m.transitions[-1] is not m.transitions[0]
    assert [t.instr for t in m.transitions] == [Inc(frozenset("x"))] * (len(texts) + 1)
    assert format_machine(m).count("inc {x}-> p") == len(texts) + 1


def test_instruction_memo_across_kept_lines():
    """Two lines kept by the family's parsed memo with their instructions
    parsed apart, the text dropped from its instrs memo in between: a file
    holding both reuses the kept Transitions, parses no instruction, steps
    both alike and prints as its text."""
    header = "alphabet: a b\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
    st = parse_machine(header).structure
    st.parsed.clear()
    one = parse_machine(header + "p -a, inc {x}-> p\n").transitions[0]
    st.instrs.clear()
    two = parse_machine(header + "p -b, inc {x}-> p\n").transitions[0]
    assert one.instr == two.instr == Inc(frozenset("x")) and one.instr is not two.instr
    text = header + "p -a, inc {x}-> p\np -b, inc {x}-> p\n"
    both = parse_machine(text)
    assert both.transitions[0] is one and both.transitions[1] is two
    assert st.instrs == {"inc {x}": two.instr}
    assert both.config_successors("p", (), None, UNCUT) == (
        [("a", "p", ((0, 1),), 1), ("b", "p", ((0, 1),), 1)], False)
    assert format_machine(both) == text


def test_machine_verdicts_match_check_distributive():
    """Seeded random transfers over families of at most 12 counters, every
    other one listing a counter a second time with other images: a machine
    refuses exactly the maps check_distributive refuses, as_map takes each
    counter's first entry, and a step moves the tokens of a repeated
    counter by its first entry."""
    rng = random.Random(64)
    ab = Alphabet(("a",))
    verdicts = []
    repeated = 0
    for k in range(300):
        st = random_structure(rng, max_basis=4, max_counters=12)
        counters = st.counters
        t = random_transfer(rng, st)
        src = rng.choice(counters)
        if k % 2:
            entries = list(t.entries)
            assert [c for c, _ in entries] == list(counters)
            first = counters.index(src)
            images = tuple(rng.sample(counters, rng.randint(0, min(2, len(counters)))))
            entries.insert(rng.randint(first + 1, len(entries)), (src, images))
            t = Transfer(tuple(entries))
            repeated += image(t, src) != images
        f = t.as_map(counters)
        assert f == {c: tuple(image(t, c)) for c in counters}
        want = check_distributive(f, counters)
        transitions = [Transition("p", "a", t, "p")]
        if want:
            CounterMachine(ab, ("p",), "p", st, transitions)
        else:
            with pytest.raises(ValidationError, match="not distributive"):
                CounterMachine(ab, ("p",), "p", st, transitions)
        verdicts.append(want)
        # tokens on src and at most one other counter, so the reference
        # firing enumerates few splits
        m = CounterMachine(ab, ("p",), "p", st, transitions, check_transfers="off")
        v = valuation(st, {src: rng.randint(1, 2)})
        other = rng.choice(counters)
        if other != src:
            v = v._with(st.index[other], rng.randint(0, 1))
        sv = tuple((i, n) for i, n in enumerate(v.values) if n)
        successors, truncated = m.config_successors("p", sv, None, UNCUT)
        assert not truncated
        assert sorted(list(post) for _, _, post, _ in successors) == \
            sorted(sorted((i, n) for i, n in enumerate(w.values) if n) for w in fire(v, t))
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    assert repeated >= 50


def test_machine_refuses_unknown_check_modes(xy):
    """A check_transfers value other than full and off is refused before
    any transition is looked at, by parse_machine too."""
    text = "alphabet: a\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\np -a, nop-> p\n"
    for mode in ("auto", "ful", "Full", "", False, True, None):
        with pytest.raises(ValueError, match="'full' or 'off', not %r" % (mode,)):
            CounterMachine(Alphabet(("a",)), ("p",), "p", xy, (), check_transfers=mode)
        with pytest.raises(ValueError, match="'full' or 'off'"):
            parse_machine(text, mode)


def test_machine_refuses_the_reserved_letter_eps(xy):
    """eps labels the letter-free moves of a machine file, so every machine,
    built directly, parsed or compiled from an automaton, refuses a letter
    of that name."""
    with pytest.raises(ValidationError, match="^letter name 'eps' is reserved$"):
        CounterMachine(Alphabet(("eps", "b")), ("p",), "p", xy, ())
    with pytest.raises(ValidationError, match="^letter name 'eps' is reserved$"):
        parse_machine("alphabet: b eps\nbasis: x\ncounters: {x}\nstates: p\ninitial: p\n"
                      "p -b, nop-> p\n")
    aut = parse_automaton("alphabet: eps b\nstates: s0\ninitial: s0\ns0, eps, * -> s0\n")
    with pytest.raises(ValidationError, match="^letter name 'eps' is reserved$"):
        ara_to_ipcant(aut).materialize()


def test_machines_of_one_family_share_lines_and_structure():
    """Two machines of one family, parsed one after the other, share the
    Transition of every line they have in common, their CounterStructure
    and its counter tuple; each prints as its text."""
    rng = random.Random(63)
    texts = []
    while len(texts) < 2:
        aut = randgen.random_automaton(rng, Alphabet(("a", "b")), max_states=1)
        text = format_machine(ara_to_ipcant(aut).materialize())
        if text not in texts:
            texts.append(text)
    machines = [parse_machine(text, "full") for text in texts]
    assert machines[0].structure is machines[1].structure
    assert machines[0].counters is machines[1].counters
    # each body line with its transition
    one, two = (dict(zip(text.splitlines()[-len(m.transitions):], m.transitions))
                for text, m in zip(texts, machines))
    common = one.keys() & two.keys()
    assert len(common) > len(one) // 2
    assert all(one[line] is two[line] for line in common)
    assert [format_machine(m) for m in machines] == texts


def test_bad_lines_and_headers_refused_around_good_files():
    """A bad line is refused, with its line number, before and after a good
    file of its family is loaded; so is a bad counters: header, on every
    load, and a line whose target state is not declared."""
    good = _CM_HEADER + "p -a, transf {x,y}->[{x,y}]-> p\np -a, inc {x}-> p\n"
    bad_line = good.replace("p -a, inc {x}-> p", "p -a, inc {x} p")
    bad_header = good.replace("{x} {y} {x,y}", "{x} {y} {x,y} x")
    two_targets = good.replace("inc {x}-> p", "inc {x}-> p q")
    for _ in range(3):
        with pytest.raises(ParseError, match="^line 7: missing '->' before target state$"):
            parse_machine(bad_line, "full")
        with pytest.raises(ParseError, match="bad counters: header"):
            parse_machine(bad_header, "full")
        with pytest.raises(ValidationError,
                           match="^line 7: transition 'p' -a-> 'p q' uses unknown state 'p q'$"):
            parse_machine(two_targets, "full")
        parse_machine(good, "full")
    with pytest.raises(ValidationError, match="^transition 'r' -eps-> 'p' uses unknown state 'r'$"):
        CounterMachine(Alphabet(("a",)), ("p",), "p", CounterStructure(("x",), ()),
                       [Transition("r", EPS, Transfer(()), "p")])


def test_invalid_instructions_refused_every_time(xy):
    """Errors are not cached: an instruction naming an unknown counter, one
    of an unknown kind and an unparsable text are refused on every
    construction, before and after a valid one, and the family memo of the
    structure keeps only the valid instruction.  A parsed body line names
    its line in a ValidationError as in a ParseError."""
    header = "alphabet: a\nbasis: x y\ncounters: {x} {y}\nstates: p\ninitial: p\n"
    good = Inc(frozenset("x"))
    bads = (Inc(frozenset("z")), Transfer(((frozenset("x"), (frozenset("z"),)),)))
    for _ in range(3):
        for bad in bads:
            with pytest.raises(ValidationError, match="unknown counter"):
                CounterMachine(Alphabet(("a",)), ("p",), "p", xy, [Transition("p", "a", bad, "p")])
            with pytest.raises(ValidationError, match="unknown counter"):
                xy.op(bad)
        with pytest.raises(ValidationError, match="unknown instruction"):
            CounterMachine(Alphabet(("a",)), ("p",), "p", xy,
                           [Transition("p", "a", Instruction(), "p")])
        with pytest.raises(ValidationError, match="^line 7: instruction uses unknown counter"):
            parse_machine(header + "p -a, inc {x}-> p\np -a, dec {z}-> p\n")
        with pytest.raises(ParseError, match="^line 6: unknown instruction"):
            parse_machine(header + "p -a, inc{x}-> p\n")
        CounterMachine(Alphabet(("a",)), ("p",), "p", xy, [Transition("p", "a", good, "p")])
        assert [entry[0] for entry in xy.ops.values()] == [good]


def test_unchecked_parse_checks_no_transfer(monkeypatch):
    """An unchecked parse calls check_distributive on nothing, where a
    checked parse of a transfer its family has not met calls it."""
    def fail(f, counters):
        raise AssertionError("check_distributive called")

    monkeypatch.setattr(ipcant.distributive, "check_distributive", fail)
    header = "alphabet: a\nbasis: unchecked\ncounters: {unchecked}\nstates: p\ninitial: p\n"
    parse_machine(header + "p -a, transf {unchecked}->[]-> p\n", "off")
    with pytest.raises(AssertionError, match="check_distributive called"):
        parse_machine(header + "p -a, transf {unchecked}->[{unchecked}]-> p\n")


def _random_machine(rng, structure, lazy):
    """A machine over the structure with random increments, decrements and
    transfers, distributive or not; letter-free moves only go forward, so
    they form no cycle."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    transitions = []
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(len(states)), rng.randrange(len(states))
        label = rng.choice(("a", "b", EPS)) if i < j else rng.choice("ab")
        instr = (random_transfer(rng, structure) if rng.random() < 0.5
                 else random_instruction(rng, structure))
        transitions.append(Transition(states[i], label, instr, states[j]))
    return CounterMachine(Alphabet(("a", "b")), states, states[0], structure,
                          transitions, check_transfers="off", lazy=lazy)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(hst.integers(0, 2 ** 32 - 1), hst.booleans())
def test_machine_file_round_trip_property(seed, lazy):
    """Printing is stable through a parse, and a checked load succeeds
    exactly when every transfer passes check_distributive."""
    rng = random.Random(seed)
    structure = random_structure(rng, max_basis=3, max_counters=4)
    text = format_machine(_random_machine(rng, structure, lazy))
    parsed = parse_machine(text, "off")
    assert format_machine(parsed) == text
    counters = structure.counters
    maps = [t.instr.as_map(counters) for t in parsed.transitions
            if isinstance(t.instr, Transfer)]
    ok = all(check_distributive(f, counters) for f in maps)
    assert ok == all(_reference_distributive(f, counters) for f in maps)
    try:
        parse_machine(text, "full")
    except ValidationError as e:
        assert not ok and "not distributive" in str(e)
    else:
        assert ok


def test_bound_recurrence():
    p = bound_params(1, 1, 1)
    assert (p.alphas, p.us, p.m) == ((1, 2), (1, 3), 12)
    p = bound_params(2, 1, 1)
    assert (p.alphas, p.us, p.m) == ((2, 4), (1, 6), 48)
    assert bound_params(3, 0, 0).m == 6
    assert all(a > 0 for a in p.alphas) and all(u > 0 for u in p.us)
    assert list(p.alphas) == sorted(p.alphas)
    assert list(p.us) == sorted(p.us)


def _check_value(a, alike, other, field):
    """a equals alike, made apart, with an equal hash, and not other; it
    refuses assignment to field with AttributeError; pickle, copy and
    deepcopy give it back equal."""
    assert alike is not a and alike == a and not alike != a and hash(alike) == hash(a)
    assert a != other and not a == other
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a and hash(b) == hash(a) and type(b) is type(a)


def test_instructions_transitions_and_bounds_are_values():
    x, y = frozenset("x"), frozenset("y")
    _check_value(Inc(x), Inc(frozenset("x")), Inc(y), "counter")
    _check_value(Dec(x), Dec(frozenset("x")), Dec(y), "counter")
    _check_value(Transfer(((x, (y,)),)), Transfer(((frozenset("x"), (frozenset("y"),)),)),
                 Transfer(((x, ()),)), "entries")
    move = Transition("p", "a", Inc(x), "q")
    _check_value(move, Transition("p", "a", Inc(frozenset("x")), "q"),
                 Transition("p", "a", Dec(x), "q"), "instr")
    _check_value(bound_params(2, 1, 1), BoundParams((2, 4), (1, 6), 48), bound_params(1, 1, 1), "m")
    assert Inc(x) != Dec(x) and hash(Inc(x)) != hash(Dec(x))
    assert isinstance(Inc(x), Instruction) and Instruction() == Instruction()
    assert repr(Inc(x)) == "Inc(counter=frozenset({'x'}))"
    assert repr(move) == "Transition(src='p', label='a', instr=Inc(counter=frozenset({'x'})), dst='q')"


def test_bound_ceiling():
    assert bound_ceiling(1, 1) == 6561
    rng = random.Random(14)
    for _ in range(50):
        q = rng.randint(1, 4)
        x = rng.randint(0, 3)
        c = rng.randint(0, 2 ** x - 1) if x else 0
        m = bound_params(q, x, c).m
        exponent = 2 ** (2 * x * x + x) * math.log2(3 * q)
        assert math.log2(m) < exponent


def test_bound_log2_log2_is_the_log_of_bound_log2():
    """Where the exact m fits in memory (here at most 2^20 bits), the
    log-log evaluation gives log2(log2 m).  The counts of ara_to_ipcant's
    machine of 88 states over 10 letters, the bouncer formula's, stay
    finite although log2 m overflows a float."""
    rng = random.Random(15)
    checked = 0
    while checked < 200:
        args = (rng.randint(1, 300), rng.randint(0, 4), rng.randint(0, 12))
        if bound_log2_log2(*args) > 20:
            continue
        m = bound_params(*args).m
        assert bound_log2_log2(*args) == pytest.approx(math.log2(math.log2(m)),
                                                       rel=1e-12, abs=1e-12)
        checked += 1
    n = 88
    huge = ((1 << n) * (10 + n + 2) + n * (1 << (3 * n - 1)) + 2, 3 * n + 2,
            (1 << n) + (1 << (2 * n)))
    assert bound_log2_log2(*huge) == pytest.approx(46824.082, abs=0.001)
    with pytest.raises(ValidationError):
        bound_log2_log2(0, 1, 1)


def test_compute_bound_from_machine(data_text):
    machine = parse_machine(data_text("tiny.cm"))
    assert bound_params(*machine.bound_counts()).m == 12


def test_machine_file_round_trip():
    text = ("alphabet: a\n"
            "basis: x y\n"
            "counters: {x} {x,y}\n"
            "states: p q\n"
            "initial: p\n"
            "p -a, inc {x}-> q\n"
            "q -eps, transf {x}->[{x},{x,y}]; {x,y}->[{x,y}]-> p\n"
            "q -a, dec {x,y}-> q\n")
    m = parse_machine(text)
    assert format_machine(parse_machine(format_machine(m))) == format_machine(m)
    # a trailing ';' ends the transfer's entries as the line's end does
    trailing = parse_machine(text.replace("{x,y}->[{x,y}]-> p", "{x,y}->[{x,y}];-> p"))
    assert trailing.transitions[1].instr == m.transitions[1].instr
    assert format_machine(trailing) == format_machine(m)


def test_machine_file_relation_header(data_text):
    """A file without `relation:` is lazy and prints none; an error-free
    machine prints the line and reads back error-free."""
    tiny = data_text("tiny.cm")
    m = parse_machine(tiny)
    assert m.lazy
    text = format_machine(m)
    assert "relation:" not in text
    assert format_machine(parse_machine(text)) == text
    free = parse_machine(tiny.replace("initial: p\n", "initial: p\nrelation: error-free\n"))
    assert not free.lazy
    text = format_machine(free)
    assert text.splitlines()[5] == "relation: error-free"
    assert not parse_machine(text).lazy and format_machine(parse_machine(text)) == text
    before_body = "initial: p\nrelation: %s\n"
    assert parse_machine(tiny.replace("initial: p\n", before_body % "lazy")).lazy
    with pytest.raises(ParseError, match="relation must be"):
        parse_machine(tiny.replace("initial: p\n", before_body % "bogus"))
    # a header after the first transition line is refused, as in every format
    with pytest.raises(ParseError, match="after the first body line"):
        parse_machine(tiny + "relation: lazy\n")


def test_machine_rejects_eps_cycle():
    st = CounterStructure(("x",), (frozenset("x"),))
    trans = [Transition("p", EPS, Inc(frozenset("x")), "q"),
             Transition("q", EPS, Inc(frozenset("x")), "p")]
    with pytest.raises(ValidationError):
        CounterMachine(Alphabet(("a",)), ("p", "q"), "p", st, trans)


def test_machine_rejects_unknown_counters(xy):
    """With the distributivity check or without: validation is not part
    of the check."""
    x, z = frozenset("x"), frozenset("z")
    ab = Alphabet(("a",))
    for mode in ("full", "off"):
        for instr in (Inc(z), Dec(z), Transfer(((x, (z,)),)), Transfer(((z, (x,)),))):
            with pytest.raises(ValidationError, match="unknown counter"):
                CounterMachine(ab, ("p",), "p", xy, [Transition("p", "a", instr, "p")],
                               check_transfers=mode)
        with pytest.raises(ValidationError, match="unknown instruction"):
            CounterMachine(ab, ("p",), "p", xy, [Transition("p", "a", "inc {x}", "p")],
                           check_transfers=mode)


def test_machine_long_eps_chain():
    """A letter-free chain far deeper than the interpreter's recursion limit
    loads, and a cycle at its end is still found."""
    n = 3000
    lines = ["alphabet: a", "basis: x", "counters: {x}",
             "states: " + " ".join("s%d" % i for i in range(n + 1)), "initial: s0"]
    lines += ["s%d -eps, inc {x}-> s%d" % (i, i + 1) for i in range(n)]
    machine = parse_machine("\n".join(lines + ["s%d -a, nop-> s%d" % (n, n)]) + "\n")
    assert machine.is_resting("s%d" % n) and not machine.is_resting("s0")
    with pytest.raises(ValidationError):
        parse_machine("\n".join(lines + ["s%d -eps, nop-> s1" % n]) + "\n")


def test_machine_rejects_nondistributive_transfer():
    x, y, xy_ = frozenset("x"), frozenset("y"), frozenset(("x", "y"))
    st = CounterStructure(("x", "y"), (x, y, xy_))
    bad = Transfer(((x, (x,)), (y, (y,)), (xy_, ())))
    good = Transfer(((x, (x,)), (y, (y,)), (xy_, (xy_,))))
    trans = [Transition("p", "a", bad, "p")]
    with pytest.raises(ValidationError):
        CounterMachine(Alphabet(("a",)), ("p",), "p", st, trans)
    CounterMachine(Alphabet(("a",)), ("p",), "p", st,
                   [Transition("p", "a", good, "p")])


def test_memoised_verdicts_keep_refusing_the_benchmark_file():
    """The benchmark's non-distributive machine file is refused on every
    parse, though its transfer's verdict is kept in its family's verdicts
    memo after the first."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "data", "nondistributive.cm")
    with open(path) as fh:
        text = fh.read()
    for _ in range(2):
        with pytest.raises(ValidationError, match="not distributive"):
            parse_machine(text)
    unchecked = parse_machine(text, "off")
    instr = unchecked.transitions[0].instr
    assert unchecked.structure.verdicts[id(instr)] == (instr, False)


def test_fourteen_counter_check_refuses_and_keeps_its_verdict(monkeypatch):
    """On a family of 14 counters every cover is checked: {x} and {y}
    cover {x,y}, which has no image, so the check refuses the transfer on
    the first load, and the family's verdicts memo refuses it again on the
    second without checking."""
    names = ["a%d" % i for i in range(11)]
    text = ("alphabet: a\nbasis: x y %s\ncounters: {x} {y} {x,y} %s\nstates: p\ninitial: p\n"
            "p -a, transf {x,y}->[]-> p\n" % (" ".join(names), " ".join("{%s}" % e for e in names)))
    ipcant.fileformat._parse_structure.cache_clear()
    with pytest.raises(ValidationError, match="transfer map is not distributive"):
        parse_machine(text)

    def rechecked(f, counters):
        raise AssertionError("checked again")

    monkeypatch.setattr(ipcant.distributive, "check_distributive", rechecked)
    with pytest.raises(ValidationError, match="transfer map is not distributive"):
        parse_machine(text)
    unchecked = parse_machine(text, "off")
    instr = unchecked.transitions[0].instr
    assert len(unchecked.counters) == 14
    assert unchecked.structure.verdicts == {id(instr): (instr, False)}


# 13 counters, and a transfer whose one bad cover is rare: choosing {z} as
# the image of both {x} and {y}, which cover {x,y}, leaves {x,y}'s only
# image {x,y} outside the union.  A check of sampled covers can miss it:
# 200 seeded samples did.
_RARE_HOLE_CM = (
    "alphabet: a\n"
    "basis: x y z a0 a1 a2 a3 a4 a5 a6 a7 a8\n"
    "counters: {x} {y} {x,y} {z} {a0} {a1} {a2} {a3} {a4} {a5} {a6} {a7} {a8}\n"
    "states: p\n"
    "initial: p\n"
    "p -a, transf {x}->[{x,y},{z}]; {y}->[{z},{x,y}]-> p\n")


def test_rare_bad_cover_is_refused(tmp_path, capsys):
    """Every cover is checked however many counters the family has, so a
    map with one bad choice of images on one cover is refused, by
    parse_machine and by sat --machine."""
    unchecked = parse_machine(_RARE_HOLE_CM, "off")
    assert len(unchecked.counters) == 13
    with pytest.raises(ValidationError, match="transfer map is not distributive"):
        parse_machine(_RARE_HOLE_CM)
    path = tmp_path / "hole.cm"
    path.write_text(_RARE_HOLE_CM)
    assert run_cli(["sat", "--machine", str(path)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid input: ") and "not distributive" in err
