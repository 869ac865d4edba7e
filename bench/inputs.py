"""Inputs and reference answers that the benchmark derives without the
program under test.

The random automata and words are drawn by this file's own generators, so a
change to the program's own ``randgen`` module leaves the benchmark's inputs
unchanged.  The Turing-machine simulator below encodes runs from the file
format's specification; its answers (does the machine halt, what does its
run look like) are the reference for the bouncer and halting queries.
"""

from itertools import islice, product

# the machine-file workload enumerates every one-state automaton with these
# transition formulas per (letter, register flag) entry; "none" leaves the
# entry out (the thread is blocked)
ONE_STATE_CHOICES = ("none", "top", "q", "dq", "q&dq", "q|dq")


def random_posbool(pb, rng, states, depth, down_prob=0.3):
    if depth <= 0 or rng.random() < 0.4:
        q = rng.choice(states)
        return pb.DownRef(q) if rng.random() < down_prob else pb.Ref(q)
    node = pb.And if rng.random() < 0.5 else pb.Or
    return node(random_posbool(pb, rng, states, depth - 1, down_prob),
                random_posbool(pb, rng, states, depth - 1, down_prob))


def random_automaton(rs, rng, letters, min_states, max_states, bot_prob=0.25):
    """An automaton with min_states..max_states states; each transition entry
    is absent with probability bot_prob, otherwise a random positive formula
    of depth at most 2."""
    pb = rs.ara.posbool
    n = rng.randint(min_states, max_states)
    states = tuple("q%d" % i for i in range(n))
    delta = {}
    for q in states:
        for a in letters:
            for flag in ("up", "nup"):
                if rng.random() < bot_prob:
                    continue
                delta[(q, a, flag)] = random_posbool(pb, rng, states, 2)
    return rs.ara.AlternatingAutomaton(rs.words.Alphabet(tuple(letters)),
                                       states, states[0], delta)


def one_state_automata(rs, letters):
    """Every one-state automaton over the letters whose entries are drawn
    from ONE_STATE_CHOICES, in a fixed order."""
    pb = rs.ara.posbool
    q = "q0"
    make = {"top": pb.Top(), "q": pb.Ref(q), "dq": pb.DownRef(q),
            "q&dq": pb.And(pb.Ref(q), pb.DownRef(q)),
            "q|dq": pb.Or(pb.Ref(q), pb.DownRef(q))}
    keys = [(q, a, flag) for a in letters for flag in ("up", "nup")]
    alphabet = rs.words.Alphabet(tuple(letters))
    out = []
    for assignment in product(ONE_STATE_CHOICES, repeat=len(keys)):
        delta = {k: make[c] for k, c in zip(keys, assignment) if c != "none"}
        out.append(rs.ara.AlternatingAutomaton(alphabet, (q,), q, delta))
    return out


def random_word_labels(rng, letters, max_len):
    """Letters and canonical class labels of a random word, length
    1..max_len; every position joins an old class or opens a new one."""
    n = rng.randint(1, max_len)
    word = [rng.choice(letters) for _ in range(n)]
    labels = []
    opened = 0
    for _ in range(n):
        c = rng.randrange(opened + 1)
        labels.append(c)
        opened = max(opened, c + 1)
    return word, labels


def copy_automaton(rs, aut):
    """A fresh automaton object with the same table, so that per-object
    caches start cold."""
    return rs.ara.AlternatingAutomaton(aut.alphabet, aut.states, aut.initial,
                                       aut.delta)


# Turing machines, from the .tm file format's specification


def read_tm(text):
    """(tape, blank, states, initial, size, rules) from a .tm file."""
    head = {}
    rules = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if sep and "->" not in line:
            head[key] = rest.split()
            continue
        left, _, right = line.partition("->")
        q, a = (p.strip() for p in left.split(","))
        q2, a2, move = (p.strip() for p in right.split(","))
        rules[(q, a)] = (q2, a2, -1 if move == "-1" else 1)
    return (tuple(head["tape"]), head["blank"][0], tuple(head["states"]),
            head["initial"][0], int(head["size"][0]), rules)


def tm_run(tm):
    """The run's configurations (state, head, tape), in order, until the
    head leaves the tape."""
    tape_letters, blank, states, initial, size, rules = tm
    tape = [blank] * (2 ** size)
    state, head = initial, 0
    while 0 <= head < len(tape):
        yield state, head, tuple(tape)
        state, tape[head], move = rules[(state, tape[head])]
        head += move


def tm_halts(tm):
    """True when the run leaves the tape, False when a configuration
    repeats (the machine is deterministic, so it then runs forever)."""
    seen = set()
    for config in tm_run(tm):
        if config in seen:
            return False
        seen.add(config)
    return True


def tm_run_word(tm, steps):
    """Letters and class labels encoding the run's first configurations:
    each configuration is its state letter, then per cell the address bits
    (most significant first, letter ``<bit>_<level>``) and the content, with
    ``^`` on the head cell.  All positions of a cell share one class; every
    state letter has a class of its own."""
    size = tm[4]
    letters, labels = [], []
    for t, (state, head, tape) in enumerate(islice(tm_run(tm), steps + 1)):
        letters.append(state)
        labels.append(("state", t))
        for cell, content in enumerate(tape):
            for level in range(1, size + 1):
                letters.append("%d_%d" % ((cell >> (size - level)) & 1, level))
                labels.append(("cell", cell))
            letters.append(content + "^" if cell == head else content)
            labels.append(("cell", cell))
    return letters, labels


def config_stride(tm):
    return 1 + (2 ** tm[4]) * (tm[4] + 1)


def tm_letters(tm):
    tape_letters, blank, states, initial, size, rules = tm
    out = list(states)
    for level in range(1, size + 1):
        out += ["0_%d" % level, "1_%d" % level]
    return out + list(tape_letters) + [b + "^" for b in tape_letters]


def partitions(n):
    """Every canonical class labelling of n positions."""
    def rec(seq, opened):
        if len(seq) == n:
            yield tuple(seq)
            return
        for c in range(opened + 1):
            seq.append(c)
            yield from rec(seq, max(opened, c + 1))
            seq.pop()
    yield from rec([], 0)
