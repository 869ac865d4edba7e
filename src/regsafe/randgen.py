"""Seeded random generators for property testing and the cross-check CLI.

Everything takes an explicit random.Random so runs are reproducible; nothing
here touches the global generator state.
"""

from itertools import combinations

from .words import Alphabet, DataWord, canonicalize
from . import ltl
from .ara import posbool as pb
from .ara.automaton import AlternatingAutomaton
from .ipcant import CounterStructure, Inc, Dec, Transfer, check_distributive


def random_word(rng, alphabet: Alphabet, max_len, max_classes=None) -> DataWord:
    """A canonical data word of length 1..max_len with classes drawn freely
    (capped at max_classes when given)."""
    n = rng.randint(1, max_len)
    letters = [rng.choice(alphabet.letters) for _ in range(n)]
    labels = []
    used = 0
    for i in range(n):
        cap = used if max_classes is not None and used >= max_classes else used + 1
        pick = rng.randrange(cap)
        labels.append(pick)
        used = max(used, pick + 1)
    return canonicalize(letters, labels)


def _random_posbool(rng, states, depth, down_prob):
    if depth <= 0 or rng.random() < 0.4:
        q = rng.choice(states)
        if rng.random() < down_prob:
            return pb.DownRef(q)
        return pb.Ref(q)
    node = pb.And if rng.random() < 0.5 else pb.Or
    return node(_random_posbool(rng, states, depth - 1, down_prob),
                _random_posbool(rng, states, depth - 1, down_prob))


def random_automaton(rng, alphabet: Alphabet, max_states=3,
                     bot_prob=0.25, down_prob=0.3) -> AlternatingAutomaton:
    """An alternating automaton with 1..max_states states; each transition
    entry is absent with probability bot_prob, otherwise a random positive
    formula of depth <= 2."""
    n = rng.randint(1, max_states)
    states = tuple("q%d" % i for i in range(n))
    delta = {}
    for q in states:
        for a in alphabet.letters:
            for flag in ("up", "nup"):
                if rng.random() < bot_prob:
                    continue
                delta[(q, a, flag)] = _random_posbool(rng, states, 2, down_prob)
    return AlternatingAutomaton(alphabet, states, states[0], delta)


def random_sentence(rng, alphabet: Alphabet, depth=3) -> ltl.Formula:
    """A closed safety formula: register tests only appear under a freeze."""

    def go(d, in_scope):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            choices = ["atom", "atom", "true"]
            if in_scope:
                choices += ["up", "nup"]
            kind = rng.choice(choices)
            if kind == "atom":
                return ltl.Atom(rng.choice(alphabet.letters))
            if kind == "true":
                return ltl.Top()
            if kind == "up":
                return ltl.Up()
            return ltl.NotUp()
        if roll < 0.55:
            node = ltl.And if rng.random() < 0.5 else ltl.Or
            return node(go(d - 1, in_scope), go(d - 1, in_scope))
        if roll < 0.7:
            return ltl.Next(go(d - 1, in_scope))
        if roll < 0.85:
            return ltl.Freeze(go(d - 1, True))
        if rng.random() < 0.5:
            return ltl.Release(ltl.Bot(), go(d - 1, in_scope))
        return ltl.Release(go(d - 1, in_scope), go(d - 1, in_scope))

    return go(depth, False)


def random_structure(rng, max_basis=3, max_counters=4) -> CounterStructure:
    """A counter structure over a small basis with 1..max_counters distinct
    non-empty counters."""
    k = rng.randint(1, max_basis)
    basis = tuple("x%d" % i for i in range(k))
    pool = [frozenset(c) for r in range(1, k + 1)
            for c in combinations(basis, r)]
    rng.shuffle(pool)
    take = rng.randint(1, min(max_counters, len(pool)))
    return CounterStructure(basis, sorted(pool[:take], key=sorted))


def random_valuation(rng, structure: CounterStructure, max_value=3) -> "Valuation":
    from .ipcant.reference import Valuation
    return Valuation(structure, tuple(
        rng.randint(0, max_value) for _ in structure.counters))


def sub_valuation(rng, v: "Valuation") -> "Valuation":
    """A componentwise smaller-or-equal valuation."""
    from .ipcant.reference import Valuation
    return Valuation(v.structure, tuple(rng.randint(0, n) for n in v.values))


def embedded_valuation(rng, v: "Valuation") -> "Valuation":
    """A valuation below v in the token-embedding order: drop some tokens and
    slide the rest onto subset counters."""
    from .ipcant.reference import Valuation
    structure = v.structure
    values = [0] * len(structure.counters)
    for c, n in v.items():
        homes = [i for i, c2 in enumerate(structure.counters) if c2 <= c]
        for _ in range(n):
            if rng.random() < 0.3:
                continue
            values[rng.choice(homes)] += 1
    return Valuation(structure, tuple(values))


def random_transfer(rng, structure: CounterStructure, empty_prob=0.2) -> Transfer:
    """A transfer map with arbitrary images; not necessarily distributive."""
    entries = []
    for c in structure.counters:
        if rng.random() < empty_prob:
            entries.append((c, ()))
            continue
        size = rng.randint(1, min(2, len(structure.counters)))
        image = rng.sample(list(structure.counters), size)
        entries.append((c, tuple(image)))
    return Transfer(tuple(entries))


def random_distributive_transfer(rng, structure: CounterStructure,
                                 attempts=50) -> Transfer:
    """Rejection-sample random transfers until one passes the distributivity
    check; falls back to the identity map."""
    for _ in range(attempts):
        t = random_transfer(rng, structure)
        if check_distributive(t.as_map(structure.counters), structure.counters):
            return t
    return Transfer(tuple((c, (c,)) for c in structure.counters))


def random_instruction(rng, structure: CounterStructure):
    """An increment, a decrement, or a distributive transfer."""
    roll = rng.random()
    if roll < 0.35:
        return Inc(rng.choice(structure.counters))
    if roll < 0.7:
        return Dec(rng.choice(structure.counters))
    return random_distributive_transfer(rng, structure)
