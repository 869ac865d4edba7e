"""One-way alternating automata over data words with one freeze register.

A thread is a pair (state, class).  At position i it picks a satisfying pair
(plain, fresh) of its transition formula for the current letter and register
flag (up exactly when its class is the class of position i).  Plainly
referenced states go on in the thread's class, down-marked states in the
class of position i.  Safety acceptance: a data omega-word is accepted iff an
infinite sequence of steps from the initial thread exists; over a finite word
we ask for a partial run covering every position.

Threads of an alternating run never interact, so a set of threads covers the
rest of a word exactly when each of its threads does.  run_exists therefore
decides one thread (position, state, class) at a time and memoizes it.  The
models of a formula are upward closed and a larger model only spawns more
threads, each of which must live, so only minimal models need trying.  A word
of length n then costs O(n * |Q| * classes * models) model trials, where the
definition's frontier of configuration sets takes at every position the
product of the models of every live thread.  That one-position step is
pipeline.oracle.frontier_step, kept there as a reference.
"""

from ..errors import ParseError, ValidationError
from ..words import Alphabet, DataWord, read_names, read_sections
from . import posbool as pb

FLAGS = ("up", "nup")


class AlternatingAutomaton:
    """States, one initial state, and a transition table
    (state, letter, flag) -> positive boolean formula; missing entries mean
    false (the thread cannot continue)."""

    def __init__(self, alphabet: Alphabet, states, initial, delta):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = initial
        self.delta = dict(delta)
        self._models = {}
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValidationError("duplicate state name")
        if initial not in known:
            raise ValidationError("initial state %r not declared" % (initial,))
        And, Or, Ref, DownRef = pb.And, pb.Or, pb.Ref, pb.DownRef
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
                kind = type(phi)
                if kind is And or kind is Or:
                    todo.append(phi.rhs)
                    todo.append(phi.lhs)
                elif (kind is Ref or kind is DownRef) and phi.state not in known:
                    raise ValidationError("transition references unknown state %r"
                                          % (phi.state,))

    def delta_at(self, q, a, flag) -> pb.PosBool:
        return self.delta.get((q, a, flag), pb.Bot())

    def models_at(self, q, a, flag):
        """Minimal satisfying pairs of delta_at, cached."""
        key = (q, a, flag)
        if key not in self._models:
            self._models[key] = pb.minimal_models(self.delta_at(q, a, flag))
        return self._models[key]


def run_exists(aut: AlternatingAutomaton, w: DataWord) -> bool:
    """Is there a partial run over the whole of w from the initial
    configuration?

    Threads never interact, so a run exists exactly when the initial thread
    (0, initial, class of position 0) is alive, where a thread (i, q, cls)
    is alive when i = len(w), or when one of q's minimal models for letter i
    and the flag (up iff cls is the class of position i) sends every thread
    it spawns to an alive thread at i + 1: plain states in cls, down-marked
    states in the class of position i.  This is monotone: a model below a
    working one spawns a subset of its threads, so it works too, and the
    minimal models are the only ones worth trying.

    A depth-first search on an explicit stack settles each thread once: it
    drops a model at its first dead thread and stops at the first model whose
    threads all live.  There are at most n * |Q| * (classes of w) threads,
    each trying each of its models at most once, so a word of length n costs
    O(n * |Q| * classes * models) model trials of at most 2 |Q| lookups.
    """
    n = len(w)
    if n == 0:
        raise ValidationError("word must be non-empty")
    letters, classes = w.letters, w.classes
    models_at = aut.models_at
    alive = {}  # settled threads (i, q, cls) -> bool

    def frame(thread):
        # [thread, its models, index of the model on trial, that model's
        # threads at i + 1 not yet known to live (None before it is opened)]
        i, q, cls = thread
        flag = "up" if cls == classes[i] else "nup"
        return [thread, models_at(q, letters[i], flag), 0, None]

    root = (0, aut.initial, classes[0])
    stack = [frame(root)]
    while stack:
        top = stack[-1]
        thread, models, k, pending = top
        while True:
            if pending is None:
                if k == len(models):
                    verdict = False
                    break
                i, _, cls = thread
                if i + 1 == n:
                    verdict = True
                    break
                plain, fresh = models[k]
                here = classes[i]
                pending = ([(i + 1, q2, cls) for q2 in plain]
                           + [(i + 1, q2, here) for q2 in fresh])
            while pending and alive.get(pending[-1]):
                pending.pop()
            if not pending:
                verdict = True
                break
            if pending[-1] in alive:  # settled dead: try the next model
                k += 1
                pending = None
                continue
            top[2], top[3] = k, pending
            stack.append(frame(pending[-1]))
            verdict = None
            break
        if verdict is not None:
            alive[thread] = verdict
            stack.pop()
    return alive[root]


def _disjoint(a1, a2):
    """Names for a2's states apart from a1's, which keep theirs; returns
    (rename, every name used)."""
    used = set(a1.states)
    ren = {}
    for q in a2.states:
        name = q
        while name in used:
            name += "_2"
        ren[q] = name
        used.add(name)
    return ren, used


def _rename_phi(phi, ren):
    def leaf(g):
        if isinstance(g, (pb.Ref, pb.DownRef)):
            return type(g)(ren[g.state])
        return g

    return pb.rebuild(phi, leaf)


def _combine(a1: AlternatingAutomaton, a2: AlternatingAutomaton, junction):
    if a1.alphabet != a2.alphabet:
        raise ValidationError("automata must share an alphabet")
    r2, used = _disjoint(a1, a2)
    init = "init"
    while init in used:
        init += "0"
    # formulas are immutable, so those not renamed are shared, not copied
    delta = dict(a1.delta)
    renamed = any(r2[q] != q for q in a2.states)
    for (q, a, flag), phi in a2.delta.items():
        delta[(r2[q], a, flag)] = _rename_phi(phi, r2) if renamed else phi
    for a in a1.alphabet:
        for flag in FLAGS:
            lhs = delta.get((a1.initial, a, flag), pb.Bot())
            rhs = delta.get((r2[a2.initial], a, flag), pb.Bot())
            delta[(init, a, flag)] = junction(lhs, rhs)
    states = (init,) + a1.states + tuple(r2[q] for q in a2.states)
    aut = AlternatingAutomaton(a1.alphabet, states, init, delta)
    return aut, tuple(r2[q] for q in a2.states)


def intersect(a1, a2) -> AlternatingAutomaton:
    return _combine(a1, a2, pb.And)[0]


def union(a1, a2) -> AlternatingAutomaton:
    return _combine(a1, a2, pb.Or)[0]


def inclusion_product(a1, a2):
    """Combine a1 with the dual of a2 conjunctively.  Returns the combined
    automaton together with the names of the dual component's states; a word
    witnesses non-inclusion exactly when the combined automaton has a run that
    at some point drops every thread in those states and still continues
    forever."""
    aut, co_states = _combine(a1, dualize(a2), pb.And)
    return aut, co_states


def dualize(aut: AlternatingAutomaton) -> AlternatingAutomaton:
    """Swap and/or and true/false in every entry.  Entries absent from the
    table are false, so the dual table must list their duals explicitly."""
    delta = {}
    for q in aut.states:
        for a in aut.alphabet:
            for flag in FLAGS:
                delta[(q, a, flag)] = pb.dual(aut.delta_at(q, a, flag))
    return AlternatingAutomaton(aut.alphabet, aut.states, aut.initial, delta)


def parse_automaton(text) -> AlternatingAutomaton:
    headers, entries = read_sections(text, ("alphabet", "states", "initial"))
    alphabet = Alphabet(tuple(headers["alphabet"].split()))
    states = read_names(headers["states"], "state")
    initial = headers["initial"].split()
    if len(initial) != 1:
        raise ParseError("expected one initial state")
    delta = {}
    for lineno, line in entries:
        if "->" not in line:
            raise ParseError("line %d: expected 'state, letter, flag -> formula'" % lineno)
        head, _, body = line.partition("->")
        parts = [p.strip() for p in head.split(",")]
        if len(parts) != 3:
            raise ParseError("line %d: expected 'state, letter, flag' before '->'" % lineno)
        q, a, flag = parts
        if q not in states:
            raise ParseError("line %d: unknown state %r" % (lineno, q))
        if a not in alphabet:
            raise ParseError("line %d: unknown letter %r" % (lineno, a))
        if flag not in ("up", "nup", "*"):
            raise ParseError("line %d: flag must be up, nup or *" % lineno)
        phi = pb.parse_posbool(body.strip(), set(states))
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
    bot = pb.Bot()
    for q in aut.states:
        for a in aut.alphabet.letters:
            up = aut.delta_at(q, a, "up")
            nup = aut.delta_at(q, a, "nup")
            if up == nup:
                if up != bot:
                    lines.append("%s, %s, * -> %s" % (q, a, pb.format_posbool(up)))
            else:
                if up != bot:
                    lines.append("%s, %s, up -> %s" % (q, a, pb.format_posbool(up)))
                if nup != bot:
                    lines.append("%s, %s, nup -> %s" % (q, a, pb.format_posbool(nup)))
    return "\n".join(lines) + "\n"
