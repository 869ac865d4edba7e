"""Deterministic Turing machines on a fixed-size tape, their run encodings as
data words, and the safety formula whose models are exactly the well-formed
infinite runs.

A machine with size parameter n works on 2^n tape cells and halts only by
moving the head off either tape edge.  A configuration is spelled as one
state letter followed, per cell, by the cell's address in binary (one letter
per bit, most significant first) and the cell's content; the content letter
carries a hat when the head sits on that cell.  A run encoding concatenates
configuration spellings; all positions of one cell share one data class
(address bits travel with the cell) and every state letter gets a class of
its own.

The generated formula conjoins, in negation normal form:
  - shape: the word starts with a state letter; state letters are followed by
    the all-zero address, level-n bits by a content letter, the all-one
    address plus content by the next state letter; addresses count up by one
    from cell to cell; hats and state letters alternate.
  - start: the first configuration is the initial state, head on cell zero,
    every cell blank.
  - stepping: the state letter after a configuration with state q reading a
    is delta's target state; non-head cells keep their content; the head
    cell is rewritten and the hat moves to the neighbour cell.
  - classes: address bits chain to their cell's content position, a class
    never carries both values of one bit level, and between two successive
    same-class content positions at most one state letter occurs.
"""

from functools import reduce

from ..errors import RegsafeError, ParseError, ValidationError
from ..words import Alphabet, DataWord, NAME_RE, canonicalize, read_sections
from .. import ltl


class HaltReached(RegsafeError):
    """The machine walked off the tape edge before completing the requested
    number of transitions; completed says how many it managed."""

    def __init__(self, completed):
        super().__init__("machine halts after %d transitions" % completed)
        self.completed = completed


def digit_letter(bit, level) -> str:
    return "%d_%d" % (bit, level)


def hatted(letter) -> str:
    return letter + "^"


class TuringMachine:
    """tape: content letters with a designated blank; states with an initial
    one; rules: total mapping (state, content) -> (state, content, move) with
    move in {-1, +1}; size: the tape holds 2**size cells."""

    def __init__(self, tape, blank, states, initial, rules, size):
        self.tape = tuple(tape)
        self.blank = blank
        self.states = tuple(states)
        self.initial = initial
        self.rules = dict(rules)
        self.size = size
        if size < 1:
            raise ValidationError("size must be at least 1")
        if size > 64:
            raise ValidationError("size must be at most 64")
        if len(set(self.tape)) != len(self.tape) or not self.tape:
            raise ValidationError("tape alphabet must be non-empty without duplicates")
        if len(set(self.states)) != len(self.states) or not self.states:
            raise ValidationError("state set must be non-empty without duplicates")
        if blank not in self.tape:
            raise ValidationError("blank %r not a tape letter" % (blank,))
        if initial not in self.states:
            raise ValidationError("initial state %r not declared" % (initial,))
        for name in self.tape + self.states:
            if not NAME_RE.match(name):
                raise ValidationError("bad name: %r" % (name,))
        for q in self.states:
            for a in self.tape:
                if (q, a) not in self.rules:
                    raise ValidationError("rules not total: missing (%s, %s)" % (q, a))
        for (q, a), (q2, a2, move) in self.rules.items():
            if q not in self.states or a not in self.tape:
                raise ValidationError("rule for unknown pair (%r, %r)" % (q, a))
            if q2 not in self.states or a2 not in self.tape:
                raise ValidationError("rule target (%r, %r) unknown" % (q2, a2))
            if move not in (-1, 1):
                raise ValidationError("move must be -1 or +1, got %r" % (move,))
        here = _letters(self)
        if len(set(here)) != len(here):
            raise ValidationError("state, digit, content and hatted letter names collide")

    @property
    def cells(self):
        return 2 ** self.size


def _letters(m):
    """The encoding's letters in order: states, address digits per level,
    contents, hatted contents."""
    letters = list(m.states)
    for d in range(1, m.size + 1):
        letters += [digit_letter(0, d), digit_letter(1, d)]
    return letters + list(m.tape) + [hatted(b) for b in m.tape]


def tm_alphabet(m: TuringMachine) -> Alphabet:
    """The encoding alphabet, in _letters' order."""
    return Alphabet(_letters(m))


def config_length(m: TuringMachine) -> int:
    """Letters one configuration occupies: state + per cell its address bits
    and content."""
    return 1 + m.cells * (m.size + 1)


def run_configs(m: TuringMachine, steps):
    """The first steps+1 configurations (state, head, tape tuple) of the run
    from the initial configuration; raises HaltReached when the head leaves
    the tape earlier."""
    tape = [m.blank] * m.cells
    head = 0
    state = m.initial
    out = [(state, head, tuple(tape))]
    for t in range(steps):
        state, written, move = m.rules[(state, tape[head])]
        tape[head] = written
        head += move
        if head < 0 or head >= m.cells:
            raise HaltReached(t)
        out.append((state, head, tuple(tape)))
    return out


def encode_tm_run(m: TuringMachine, steps) -> DataWord:
    """Encode the run's first steps+1 configurations as one data word.  Every
    cell keeps one class across all configurations; every state letter gets a
    fresh class."""
    letters = []
    labels = []
    for t, (state, head, tape) in enumerate(run_configs(m, steps)):
        letters.append(state)
        labels.append(("state", t))
        for j in range(m.cells):
            for d in range(1, m.size + 1):
                bit = (j >> (m.size - d)) & 1
                letters.append(digit_letter(bit, d))
                labels.append(("cell", j))
            content = tape[j]
            letters.append(hatted(content) if j == head else content)
            labels.append(("cell", j))
    return canonicalize(letters, labels)


def tm_to_formula(m: TuringMachine) -> ltl.Formula:
    """The safety sentence whose data-word models are exactly the well-formed
    encodings of infinite runs of m."""
    ab = tm_alphabet(m)
    n = m.size
    states = list(m.states)
    hats = [hatted(b) for b in m.tape]
    contents = list(m.tape) + hats
    shared = {}  # name tuple -> its disjunction, built once

    def disj(names):
        names = tuple(names)
        out = shared.get(names)
        if out is None:
            out = shared[names] = reduce(ltl.Or, map(ltl.Atom, names)) if names else ltl.Bot()
        return out

    def bar(excluded):
        banned = set(excluded)
        return disj([l for l in ab.letters if l not in banned])

    def xk(f, k):
        for _ in range(k):
            f = ltl.Next(f)
        return f

    def always(f):
        return ltl.Release(ltl.Bot(), f)

    def chain(d, top, below):
        """The bit top at level d, then below at each lower level, one
        position apart: top_d & X(below_{d+1} & X(... below_n))."""
        out = ltl.Atom(digit_letter(top if d == n else below, n))
        for lev in range(n - 1, d - 1, -1):
            out = ltl.And(ltl.Atom(digit_letter(top if lev == d else below, lev)),
                          ltl.Next(out))
        return out

    conjuncts = []

    # the word opens with a state letter
    conjuncts.append(disj(states))

    # a state letter is followed by the all-zero address of cell zero
    conjuncts.append(always(ltl.Or(bar(states), ltl.Next(chain(1, 0, 0)))))

    # a bottom-level bit is followed by a content letter
    conjuncts.append(always(ltl.Or(
        bar([digit_letter(0, n), digit_letter(1, n)]),
        ltl.Next(disj(contents)))))

    # a bit above the bottom level repeats one cell later unless every bit
    # below it reads one (the ripple of adding one)
    for b in (0, 1):
        for d in range(1, n):
            conjuncts.append(always(reduce(ltl.Or, [
                bar([digit_letter(b, d)]),
                ltl.Next(chain(d + 1, 1, 1)),
                xk(ltl.Atom(digit_letter(b, d)), n + 1)])))

    # a zero bit whose lower bits all read one flips to one with zeroes below
    for d in range(1, n + 1):
        parts = [bar([digit_letter(0, d)])]
        for k in range(1, n - d + 1):
            parts.append(xk(bar([digit_letter(1, d + k)]), k))
        parts.append(xk(chain(d, 1, 0), n + 1))
        conjuncts.append(always(reduce(ltl.Or, parts)))

    # after the all-one address and its content comes the next state letter
    parts = [xk(bar([digit_letter(1, d)]), d - 1) for d in range(1, n + 1)]
    parts.append(xk(bar(contents), n))
    parts.append(xk(disj(states), n + 1))
    conjuncts.append(always(reduce(ltl.Or, parts)))

    # state letters and hats alternate
    conjuncts.append(always(ltl.Or(
        bar(states), ltl.Next(ltl.Release(disj(hats), bar(states))))))
    conjuncts.append(always(ltl.Or(
        bar(hats), ltl.Next(ltl.Release(disj(states), bar(hats))))))

    # the first configuration: initial state, head on cell zero, all blank
    parts = [ltl.Atom(m.initial)]
    for d in range(1, n + 1):
        parts.append(xk(ltl.Atom(digit_letter(0, d)), d))
    parts.append(xk(ltl.Atom(hatted(m.blank)), n + 1))
    parts.append(ltl.Next(ltl.Release(
        disj(states),
        reduce(ltl.Or, [bar(contents), ltl.Atom(m.blank), ltl.Atom(hatted(m.blank))]))))
    conjuncts.append(reduce(ltl.And, parts))

    # reading a in state q leads to delta's state
    for (q, a), (q2, _, _) in sorted(m.rules.items()):
        conjuncts.append(always(ltl.Or(bar([q]), ltl.Release(
            disj(hats),
            ltl.Or(bar([hatted(a)]), ltl.Next(
                ltl.Release(ltl.Atom(q2), ltl.Or(bar(states), ltl.Atom(q2)))))))))

    # a cell away from the head keeps its content (the hat may arrive)
    for b in m.tape:
        conjuncts.append(always(ltl.Or(bar([b]), ltl.Freeze(ltl.Next(
            ltl.Release(
                ltl.And(disj(contents), ltl.Up()),
                reduce(ltl.Or, [bar(contents), ltl.NotUp(), ltl.Atom(b),
                                ltl.Atom(hatted(b))])))))))

    # the head cell is rewritten and the hat lands on the neighbour
    for (q, a), (_, a2, move) in sorted(m.rules.items()):
        if move < 0:
            inner = ltl.Freeze(ltl.Next(ltl.Release(
                disj(hats),
                ltl.Or(bar(hats), xk(ltl.And(ltl.Atom(a2), ltl.Up()), n + 1)))))
        else:
            inner = ltl.Freeze(ltl.Next(ltl.Release(
                ltl.And(disj(contents), ltl.Up()),
                reduce(ltl.Or, [bar(contents), ltl.NotUp(),
                     ltl.And(ltl.Atom(a2), xk(disj(hats), n + 1))]))))
        conjuncts.append(always(ltl.Or(bar([q]), ltl.Release(
            disj(hats), ltl.Or(bar([hatted(a)]), inner)))))

    # every address bit shares its class with the following position
    for b in (0, 1):
        for d in range(1, n + 1):
            conjuncts.append(always(ltl.Or(
                bar([digit_letter(b, d)]), ltl.Freeze(ltl.Next(ltl.Up())))))

    # a class never carries both values of one bit level
    for b in (0, 1):
        for d in range(1, n + 1):
            conjuncts.append(always(ltl.Or(
                bar([digit_letter(b, d)]),
                ltl.Freeze(ltl.Next(always(ltl.Or(
                    bar([digit_letter(1 - b, d)]), ltl.NotUp())))))))

    # between successive same-class content positions, at most one state letter
    same = ltl.And(disj(contents), ltl.Up())
    conjuncts.append(always(ltl.Or(bar(contents), ltl.Freeze(ltl.Next(
        ltl.Release(same, ltl.Or(
            bar(states),
            ltl.Next(ltl.Release(same, bar(states))))))))))

    return reduce(ltl.And, conjuncts)


def parse_tm(text) -> TuringMachine:
    """Headers tape:, blank:, states:, initial:, size:; rule lines like
    ``q, a -> q', a', +1``."""
    headers, body = read_sections(text, ("tape", "blank", "states", "initial", "size"))
    try:
        size = int(headers["size"])
    except ValueError:
        raise ParseError("size must be an integer") from None
    rules = {}
    for lineno, line in body:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError("line %d: expected 'q, a -> q2, a2, move'" % lineno)
        src = [p.strip() for p in left.split(",")]
        dst = [p.strip() for p in right.split(",")]
        if len(src) != 2 or len(dst) != 3:
            raise ParseError("line %d: expected 'q, a -> q2, a2, move'" % lineno)
        if dst[2] not in ("+1", "-1", "1"):
            raise ParseError("line %d: move must be +1 or -1" % lineno)
        key = (src[0], src[1])
        if key in rules:
            raise ParseError("line %d: duplicate rule for (%s, %s)" % ((lineno,) + key))
        rules[key] = (dst[0], dst[1], 1 if dst[2] in ("+1", "1") else -1)
    return TuringMachine(headers["tape"].split(), headers["blank"], headers["states"].split(),
                         headers["initial"], rules, size)


def format_tm(m: TuringMachine) -> str:
    lines = [
        "tape: " + " ".join(m.tape),
        "blank: " + m.blank,
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
        "size: %d" % m.size,
    ]
    for (q, a), (q2, a2, move) in sorted(m.rules.items()):
        lines.append("%s, %s -> %s, %s, %s" % (q, a, q2, a2, "+1" if move > 0 else "-1"))
    return "\n".join(lines) + "\n"
