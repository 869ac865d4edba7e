"""One-way alternating automata over data words with one freeze register.

A thread is a pair (state, class).  At position i it picks a satisfying pair
(plain, fresh) of its transition formula for the current letter and register
flag (up exactly when its class is the class of position i).  Plainly
referenced states go on in the thread's class, down-marked states in the
class of position i.  Safety acceptance: a data omega-word is accepted iff an
infinite sequence of steps from the initial thread exists; over a finite word
we ask for a partial run covering every position.

Threads of an alternating run never interact, so a set of threads covers the
rest of a word exactly when each of its threads does, and whether one does
depends on the rest of the word alone.  run_exists evaluates the automaton
backwards from the end of the word, as alternation is evaluated over a
finite input (Chandra, Kozen and Stockmeyer, 1981): no search over the
threads' choices, one mask of alive states per data class.  The definition's
forward step on configuration sets, the product of the models of every live
thread, is pipeline.oracle.frontier_step, kept there as a reference; the
dual automaton and the inclusion product built from it are reference.ara's.
"""

from ..errors import ParseError, ValidationError
from ..memo import Memo
from ..words import Alphabet, DataWord, locate, read_names, read_sections
from . import posbool as pb

FLAGS = ("up", "nup")

_BOT = pb.Bot()  # the formula of an absent entry


class AlternatingAutomaton:
    """States, one initial state, and a transition table
    (state, letter, flag) -> positive boolean formula; missing entries mean
    false (the thread cannot continue)."""

    def __init__(self, alphabet: Alphabet, states, initial, delta):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = initial
        self.delta = dict(delta)
        self._steps = None  # run_exists's (up _Steps, nup _Steps, initial index)
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValidationError("duplicate state name")
        if initial not in known:
            raise ValidationError("initial state %r not declared" % (initial,))
        for q in self.states:
            if q in pb.KEYWORDS:
                raise ValidationError("state name %r is a formula keyword" % (q,))
        And, Or, Ref, DownRef = pb.And, pb.Or, pb.Ref, pb.DownRef
        # ids of the formula objects walked, leaves included, each once: the
        # stack finishes an object's subformulas before it meets the object
        # again, so a repeat, within an entry or in another entry sharing
        # the object, is known to be fine and is skipped
        walked = set()
        for (q, a, flag), phi in self.delta.items():
            if q not in known:
                raise ValidationError("transition from unknown state %r" % (q,))
            if a not in alphabet:
                raise ValidationError("transition on unknown letter %r" % (a,))
            if flag not in FLAGS:
                raise ValidationError("bad register flag %r" % (flag,))
            # references left to right, on an explicit stack: formulas built
            # outside the parser may nest deeper than the call stack
            todo = [phi]
            while todo:
                phi = todo.pop()
                if id(phi) in walked:
                    continue
                walked.add(id(phi))
                kind = type(phi)
                if kind is And or kind is Or:
                    todo.append(phi.rhs)
                    todo.append(phi.lhs)
                elif (kind is Ref or kind is DownRef) and phi.state not in known:
                    raise ValidationError("transition references unknown state %r"
                                          % (phi.state,))

    def delta_at(self, q, a, flag) -> pb.PosBool:
        return self.delta.get((q, a, flag), _BOT)


class _Steps(dict):
    """steps[a]: the _Step of letter a under one register flag, folding the
    minimal models of every state the first time a word reads a, under the
    state-bit map built once with the _Steps."""

    __slots__ = ("states", "delta", "flag", "bit")

    def __init__(self, states, delta, flag):
        self.states, self.delta, self.flag = states, delta, flag
        self.bit = {q: 1 << i for i, q in enumerate(states)}

    def __missing__(self, a):
        n, bit, delta, flag = len(self.states), self.bit, self.delta, self.flag
        step = self[a] = _Step(tuple(
            (i, kept | refrozen << n) for i, q in enumerate(self.states)
            for kept, refrozen in pb.minimal_models(delta.get((q, a, flag), _BOT), bit)))
        return step


class _Step(Memo):
    """step[s_c | s_here << n]: the mask of the states alive at position i
    in a class c, from the masks s_c and s_here of the n states alive at
    i + 1 in c and in the class of position i, namely the states with a
    minimal model whose kept states lie in s_c and refrozen ones in s_here.
    rows holds each model of each state i as (i, kept mask | refrozen mask
    << n), so a model fits exactly when its row's mask lies in the key.
    A Memo, so it holds at most regsafe.memo.BOUND entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __missing__(self, have):
        alive = 0
        for i, need in self.rows:
            if need & have == need:
                alive |= 1 << i
        return self.keep(have, alive)


def run_exists(aut: AlternatingAutomaton, w: DataWord) -> bool:
    """Is there a partial run over the whole of w from the initial
    configuration?

    A thread (q, c) is alive at n = len(w), and at i < n when one of q's
    minimal models for letter i and the flag (up iff c is the class of
    position i) keeps its plain states alive at i + 1 in c and its
    down-marked ones alive at i + 1 in the class of position i; a run exists
    iff the initial thread is alive at 0.  A larger model only spawns more
    threads, so minimal ones suffice.  One backward pass keeps per class the
    mask of states alive at i + 1 and steps it to i by _Step, a memoized
    pure function of (letter, flag, S_c, S_here), looked up in the flag's
    _Steps by the letter and then by the int S_c | S_here << |Q|.
    - A class that does not occur at i or later sees nup and the same
      classes of positions from i on as any other such class, so all of them
      share one "other" mask.
    - A thread at i is in the class of position 0 or in a class it was
      refrozen to before i, so only classes first seen before i get a mask
      of their own at i, and at 0 only the class of position 0 is stepped.
    The pass keeps one dict of masks for the whole word and updates it in
    place: at i it pops the mask of the class of position i, steps every
    other class's mask where it stands, and puts the popped one back, stepped
    under up, only when its class occurred before i.  A word of length n
    costs at most n * (live classes + 1) memo lookups and builds no dict
    after the first; a miss costs |Q| * models mask tests.
    """
    letters, classes = w.letters, w.classes
    n = len(classes)
    if n == 0:
        raise ValidationError("word must be non-empty")
    seen = []  # seen[i]: the number of classes seen before position i
    count = 0
    for c in classes:
        seen.append(count)
        if c == count:
            count += 1
    if aut._steps is None:
        aut._steps = (_Steps(aut.states, aut.delta, "up"), _Steps(aut.states, aut.delta, "nup"),
                      aut.states.index(aut.initial))
    up, nup, initial = aut._steps
    k = len(aut.states)
    other = (1 << k) - 1
    masks = {}  # class -> alive mask at i + 1 of the classes seen before and at or after i + 1
    for i in range(n - 1, 0, -1):
        here = classes[i]
        s_here = masks.pop(here, other)
        high = s_here << k
        step = nup[letters[i]]
        for c, s_c in masks.items():  # every class ahead but here was seen before i
            masks[c] = step[s_c | high]
        if here < seen[i]:  # canonical: here occurred before i
            masks[here] = up[letters[i]][s_here | high]
        other = step[other | high]
    s_0 = masks.get(0, other)
    return bool(up[letters[0]][s_0 | s_0 << k] >> initial & 1)


def combined_names(a1: AlternatingAutomaton, a2: AlternatingAutomaton):
    """The state names of a1 and a2 side by side: (fresh initial state,
    a2's renaming), the combined states being the initial one, a1's under
    their own names, then a2's renamed apart from both.  Raises
    ValidationError unless the two share an alphabet."""
    if a1.alphabet != a2.alphabet:
        raise ValidationError("automata must share an alphabet")
    used = set(a1.states)
    r2 = {}
    for q in a2.states:
        name = q
        while name in used:
            name += "_2"
        r2[q] = name
        used.add(name)
    init = "init"
    while init in used:
        init += "0"
    return init, r2


def _combine(a1: AlternatingAutomaton, a2: AlternatingAutomaton, junction):
    """a1 and a2 named apart (combined_names) under a fresh initial state
    whose rows are junction(a1's initial row, a2's)."""
    init, r2 = combined_names(a1, a2)
    Ref, DownRef = pb.Ref, pb.DownRef

    def leaf(g):
        kind = type(g)
        return kind(r2[g.state]) if kind is Ref or kind is DownRef else g

    # formulas are immutable, so those not renamed are shared, not copied,
    # and each distinct a2 formula object is renamed once: entries that
    # share a formula share its renamed copy
    renamed = any(r2[q] != q for q in a2.states)
    copies = {}  # id of an a2 formula -> its renamed copy
    delta = dict(a1.delta)
    for (q, a, flag), phi in a2.delta.items():
        if renamed:
            copy = copies.get(id(phi))
            if copy is None:
                copy = copies[id(phi)] = pb.rebuild(phi, leaf)
            phi = copy
        delta[(r2[q], a, flag)] = phi
    for a in a1.alphabet:
        for flag in FLAGS:
            lhs = delta.get((a1.initial, a, flag), _BOT)
            rhs = delta.get((r2[a2.initial], a, flag), _BOT)
            delta[(init, a, flag)] = junction(lhs, rhs)
    states = (init,) + a1.states + tuple(r2[q] for q in a2.states)
    return AlternatingAutomaton(a1.alphabet, states, init, delta)


def intersect(a1, a2) -> AlternatingAutomaton:
    return _combine(a1, a2, pb.And)


def union(a1, a2) -> AlternatingAutomaton:
    return _combine(a1, a2, pb.Or)


def parse_automaton(text) -> AlternatingAutomaton:
    """The automaton of an automaton file.  State names are checked against
    one set, and each distinct formula text is parsed once per file: its
    entries share the one formula object.  A bad formula text is reported
    at the line of its first occurrence, with the column of the offending
    token when the formula parser gives one."""
    headers, entries = read_sections(text, ("alphabet", "states", "initial"))
    alphabet = Alphabet(tuple(headers["alphabet"].split()))
    states = read_names(headers["states"], "state")
    known = set(states)
    for q in states:
        if q in pb.KEYWORDS:
            raise ParseError("state name %r is a formula keyword" % q)
    initial = headers["initial"].split()
    if len(initial) != 1:
        raise ParseError("expected one initial state")
    delta = {}
    formulas = {}  # formula text -> its formula
    for lineno, line in entries:
        if "->" not in line:
            raise ParseError("line %d: expected 'state, letter, flag -> formula'" % lineno)
        head, _, body = line.partition("->")
        parts = [p.strip() for p in head.split(",")]
        if len(parts) != 3:
            raise ParseError("line %d: expected 'state, letter, flag' before '->'" % lineno)
        q, a, flag = parts
        if q not in known:
            raise ParseError("line %d: unknown state %r" % (lineno, q))
        if a not in alphabet:
            raise ParseError("line %d: unknown letter %r" % (lineno, a))
        if flag not in ("up", "nup", "*"):
            raise ParseError("line %d: flag must be up, nup or *" % lineno)
        body = body.strip()
        phi = formulas.get(body)
        if phi is None:
            try:
                phi = formulas[body] = pb.parse_posbool(body, known)
            except ParseError as e:
                if e.position is None:
                    raise ParseError("line %d: %s" % (lineno, e.detail)) from None
                raise locate(e, text, [(lineno, body)]) from None
        for fl in (FLAGS if flag == "*" else (flag,)):
            if (q, a, fl) in delta:
                raise ParseError("line %d: duplicate entry for %s, %s, %s" % (lineno, q, a, fl))
            delta[(q, a, fl)] = phi
    return AlternatingAutomaton(alphabet, states, initial[0], delta)


def format_automaton(aut: AlternatingAutomaton) -> str:
    lines = [
        "alphabet: " + " ".join(aut.alphabet.letters),
        "states: " + " ".join(aut.states),
        "initial: " + aut.initial,
    ]
    for q in aut.states:
        for a in aut.alphabet.letters:
            up = aut.delta_at(q, a, "up")
            nup = aut.delta_at(q, a, "nup")
            if up == nup:
                if up != _BOT:
                    lines.append("%s, %s, * -> %s" % (q, a, pb.format_posbool(up)))
            else:
                if up != _BOT:
                    lines.append("%s, %s, up -> %s" % (q, a, pb.format_posbool(up)))
                if nup != _BOT:
                    lines.append("%s, %s, nup -> %s" % (q, a, pb.format_posbool(nup)))
    return "\n".join(lines) + "\n"
