"""A syntactic prefix monitor, a second route to ltl.evaluate_prefix, and
seeded random sentences."""

from ..errors import ValidationError
from ..ltl import (And, Atom, Bot, Formula, Freeze, Next, NotUp, Or, PrefixVerdict, Release,
                   Top, Up, is_sentence)
from ..words import Alphabet, DataWord


_F, _U, _T = 0, 1, 2


def monitor_prefix(f: Formula, w: DataWord) -> PrefixVerdict:
    """Purely syntactic three-valued monitor, sound but not necessarily
    complete: FALSIFIED here implies evaluate_prefix FALSIFIED.

    X at the last position is unknown; R is unrolled one step per position.
    The values of (subformula, position, register) triples are found on an
    explicit stack, each once, so neither the word's length nor the
    formula's depth is bounded by the call stack.
    """
    if not is_sentence(f):
        raise ValidationError("formula has a free register test")
    if len(w) == 0:
        raise ValidationError("prefix must be non-empty")
    n = len(w)
    memo = {}

    def parts(g, i, reg):
        """The triples whose values g's value at i is made of."""
        if isinstance(g, (And, Or)):
            return ((g.lhs, i, reg), (g.rhs, i, reg))
        if isinstance(g, Next):
            return ((g.body, i + 1, reg),) if i + 1 < n else ()
        if isinstance(g, Freeze):
            return ((g.body, i, w.classes[i]),)
        if isinstance(g, Release):
            later = ((g, i + 1, reg),) if i + 1 < n else ()
            return ((g.lhs, i, reg), (g.rhs, i, reg)) + later
        return ()

    def val(g, i, reg, vals):
        """g's value at i from the values of its parts, in their order."""
        if isinstance(g, Atom):
            return _T if w.letters[i] == g.letter else _F
        if isinstance(g, Top):
            return _T
        if isinstance(g, Bot):
            return _F
        if isinstance(g, Up):
            return _T if w.classes[i] == reg else _F
        if isinstance(g, NotUp):
            return _F if w.classes[i] == reg else _T
        if isinstance(g, And):
            return min(vals)
        if isinstance(g, Or):
            return max(vals)
        if isinstance(g, (Next, Freeze)):
            return vals[0] if vals else _U
        if isinstance(g, Release):
            later = vals[2] if len(vals) == 3 else _U
            return min(vals[1], max(vals[0], later))
        raise TypeError("not a formula: %r" % (g,))

    root = (f, 0, None)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        keys = parts(*key)
        missing = [k for k in keys if k not in memo]
        if missing:
            stack += missing
            continue
        stack.pop()
        memo[key] = val(*key, [memo[k] for k in keys])

    return PrefixVerdict.FALSIFIED if memo[root] == _F else PrefixVerdict.UNDETERMINED


def random_sentence(rng, alphabet: Alphabet, depth=3) -> Formula:
    """A closed safety formula: register tests only appear under a freeze."""

    def go(d, in_scope):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            choices = ["atom", "atom", "true"]
            if in_scope:
                choices += ["up", "nup"]
            kind = rng.choice(choices)
            if kind == "atom":
                return Atom(rng.choice(alphabet.letters))
            if kind == "true":
                return Top()
            if kind == "up":
                return Up()
            return NotUp()
        if roll < 0.55:
            node = And if rng.random() < 0.5 else Or
            return node(go(d - 1, in_scope), go(d - 1, in_scope))
        if roll < 0.7:
            return Next(go(d - 1, in_scope))
        if roll < 0.85:
            return Freeze(go(d - 1, True))
        if rng.random() < 0.5:
            return Release(Bot(), go(d - 1, in_scope))
        return Release(go(d - 1, in_scope), go(d - 1, in_scope))

    return go(depth, False)
