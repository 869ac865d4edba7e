"""The four workloads: their inputs, their queries and the checks of the
answers.

Each workload has three parts:
  setup(rs, data)          parses the fixed input files (timed as setup_s)
  prepare(rs, fixed, seed) draws the seeded inputs with the benchmark's own
                           generators and writes any files the CLI reads
  run_round(rs, ask, inp)  issues every query once; each round runs in a
                           fresh interpreter, and the queries that churn
                           hundreds of megabytes come last, so they cannot
                           slow the small queries of their round
  check(rs, inp, results)  compares each answer with a reference computed
                           apart from the program, or with a property the
                           method must have; returns {query id: status}

A status is "ok", "wrong" (a wrong definite answer) or "unknown".  KNOWN
names, per workload, the queries that fail today because of a recorded fault
and the status they fail with.
"""

import contextlib
import io
import os
import random
from itertools import product

import inputs

AB = ("a", "b")
ABC = ("a", "b", "c")

# exit codes of the regsafe CLI's verdict commands
SAT_EXIT = {0: "NONEMPTY", 1: "EMPTY", 2: "UNKNOWN"}
INCLUDE_EXIT = {0: "INCLUDED", 1: "NOT_INCLUDED", 2: "UNKNOWN"}

# a@1 c@2 b@1 holds the a..c..b pattern with the a's datum: fig1 and the
# example formula reject it, the accept-all automaton top accepts it
NOT_INCLUDED_WITNESS = (("a", "c", "b"), (0, 1, 0))


class Workload:
    KNOWN = {}
    # faults matched by a pattern of query ids, with the most queries each
    # may fail in a round; fewer is a (partial) mend, more is a new fault
    FAULT_LIMITS = {}

    def known(self, qid):
        """(fault tag, status) when the query fails today because of a
        recorded fault, else None."""
        return self.KNOWN.get(qid)


def _read(data, name):
    with open(os.path.join(data, name)) as fh:
        return fh.read()


def _verdict_status(got, want):
    if got == want:
        return "ok"
    return "unknown" if got == "UNKNOWN" else "wrong"


def _bool_status(got, want):
    return "ok" if got is want else "wrong"


def _has_partial_run(rs, aut, letters):
    """Reference for prefix queries: some class labelling of the letters has
    a run, found by the brute-force oracle."""
    for labels in inputs.partitions(len(letters)):
        w = rs.words.DataWord(tuple(letters), labels)
        if rs.pipeline.oracle_run_exists(aut, w, max_len=len(letters)):
            return True
    return False


def _pattern_free_labelling(rs, letters):
    """Reference for fig1 and the example formula: some labelling of the
    letters avoids the a..c..b same-datum pattern."""
    return any(not rs.pipeline.pattern_occurs(rs.words.DataWord(tuple(letters), labels),
                                              "a", "c", "b")
               for labels in inputs.partitions(len(letters)))


def _translate_tm(rs, text):
    tm = rs.pipeline.parse_tm(text)
    formula = rs.pipeline.tm_to_formula(tm)
    return rs.ara.ltl_to_ara(formula, rs.pipeline.tm_alphabet(tm))


def _paper_automata(rs, data):
    ab, formula = rs.ltl.parse_formula_file(_read(data, "example.ltl"))
    return {"fig1": rs.ara.parse_automaton(_read(data, "fig1.ara")),
            "example": rs.ara.ltl_to_ara(formula, ab)}


# ---------------------------------------------------------------- membership


class Membership(Workload):
    """run_exists on short words, on run-encoding prefixes and on random
    automata; no counter machine is ever built."""

    name = "membership"
    # the seconds of --seconds that one round stands for: a run asks
    # round(--seconds / ROUND_SECONDS) rounds.  For machine_file it is about
    # one round's cost, process start and set-up included, on the 2-vCPU
    # machine of the README's figures in its slowest spells.  Membership's
    # is larger, because its 23000 short queries are steady with fewer
    # rounds; prefix's and decide's are smaller, because a few long queries
    # make up much of their wall_s and each gets one sample a round
    ROUND_SECONDS = 6.0
    BOUNCER_STEPS = 3
    CONTINUATIONS = 10
    RANDOM_PAIRS = 300

    def setup(self, rs, data):
        fixed = _paper_automata(rs, data)
        fixed["bouncer"] = _translate_tm(rs, _read(data, "bouncer.tm"))
        fixed["halting"] = _translate_tm(rs, _read(data, "halting.tm"))
        return fixed

    def prepare(self, rs, fixed, seed, data, work):
        rng = random.Random(seed)
        W = rs.words
        inp = dict(fixed)
        inp["words"] = list(W.enumerate_words(W.Alphabet(ABC), 5, 3))
        bouncer = inputs.read_tm(_read(data, "bouncer.tm"))
        inp["bouncer_word"] = W.canonicalize(*inputs.tm_run_word(bouncer, self.BOUNCER_STEPS))
        halting = inputs.read_tm(_read(data, "halting.tm"))
        letters, labels = inputs.tm_run_word(halting, 0)
        stride = inputs.config_stride(halting)
        alphabet = inputs.tm_letters(halting)
        inp["halt_len"] = len(letters)
        inp["halt_words"] = []
        for _ in range(self.CONTINUATIONS):
            # every continuation position opens a fresh class
            cont = [rng.choice(alphabet) for _ in range(stride)]
            inp["halt_words"].append(W.canonicalize(
                letters + cont,
                [("old", c) for c in labels] + [("new", i) for i in range(stride)]))
        inp["random"] = []
        for _ in range(self.RANDOM_PAIRS):
            aut = inputs.random_automaton(rs, rng, AB, 1, 4)
            word, classes = inputs.random_word_labels(rng, AB, 6)
            inp["random"].append((aut, W.DataWord(tuple(word), tuple(classes))))
        return inp

    def run_round(self, rs, ask, inp):
        run_exists = rs.ara.run_exists
        for key in ("fig1", "example"):
            for i, w in enumerate(inp["words"]):
                ask("%s/%d" % (key, i), run_exists, inp[key], w)
        w = inp["bouncer_word"]
        for n in range(1, len(w) + 1):
            ask("bouncer/%d" % n, run_exists, inp["bouncer"], w.prefix(n))
        aut = inp["halting"]
        first = inp["halt_words"][0]
        ask("halting/run", run_exists, aut, first.prefix(inp["halt_len"]))
        for j, w in enumerate(inp["halt_words"]):
            for n in range(inp["halt_len"] + 1, len(w) + 1):
                ask("halting/%d/%d" % (j, n), run_exists, aut, w.prefix(n))
        for i, (aut, w) in enumerate(inp["random"]):
            ask("random/%d" % i, run_exists, aut, w)

    def check(self, rs, inp, results):
        status = {}
        for key in ("fig1", "example"):
            for i, w in enumerate(inp["words"]):
                want = not rs.pipeline.pattern_occurs(w, "a", "c", "b")
                status["%s/%d" % (key, i)] = _bool_status(results["%s/%d" % (key, i)], want)
        # every prefix of a real run encoding is consistent with the formula
        for n in range(1, len(inp["bouncer_word"]) + 1):
            status["bouncer/%d" % n] = _bool_status(results["bouncer/%d" % n], True)
        status["halting/run"] = _bool_status(results["halting/run"], True)
        # the machine halts, so no continuation of its run can be read to a
        # full configuration: answers along a continuation only fall, and the
        # full stride is rejected
        for j, w in enumerate(inp["halt_words"]):
            alive = True
            for n in range(inp["halt_len"] + 1, len(w) + 1):
                qid = "halting/%d/%d" % (j, n)
                got = results[qid]
                ok = (got is False) if (n == len(w) or not alive) else isinstance(got, bool)
                alive = alive and got is True
                status[qid] = "ok" if ok else "wrong"
        for i, (aut, w) in enumerate(inp["random"]):
            want = rs.pipeline.oracle_run_exists(aut, w)
            status["random/%d" % i] = _bool_status(results["random/%d" % i], want)
        return status


# -------------------------------------------------------------------- prefix


class Prefix(Workload):
    """prefix_reachable on compiled machines: the compile caches and the
    successor kernel do almost all of the work."""

    name = "prefix"
    ROUND_SECONDS = 4.8
    BOUNCER_LENGTHS = (4, 8, 12, 14, 16, 18)
    # costs vary widely between automata (over 120 three-state draws the
    # median took 20 ms, the costliest 477 ms), mostly on the strings of
    # length 4, and a small seeded sample moved the figures from seed to
    # seed.  So 60 automata come from one fixed draw and are asked every
    # string of length <= 4, and 100 seeded automata are asked the strings
    # of length <= 3; over ten seeds, the seeded part moved query_p50_ms by
    # an interquartile 0.04 to 0.07 of its median, where 40 seeded automata
    # on all strings of length <= 4 moved it by 0.19
    FIXED_SEED = 51
    FIXED_AUTOMATA = 60
    SEEDED_AUTOMATA = 100

    def setup(self, rs, data):
        fixed = _paper_automata(rs, data)
        fixed["bouncer"] = _translate_tm(rs, _read(data, "bouncer.tm"))
        return fixed

    def prepare(self, rs, fixed, seed, data, work):
        rng = random.Random(seed)
        inp = dict(fixed)
        bouncer = inputs.read_tm(_read(data, "bouncer.tm"))
        letters, _ = inputs.tm_run_word(bouncer, 2)
        inp["bouncer_letters"] = letters
        inp["short"] = [s for n in range(1, 4) for s in product(ABC, repeat=n)]
        strings = [s for n in range(1, 5) for s in product(AB, repeat=n)]
        shorter = [s for s in strings if len(s) <= 3]
        fixed_rng = random.Random(self.FIXED_SEED)
        inp["random"] = ([(inputs.random_automaton(rs, fixed_rng, AB, 1, 3), strings)
                          for _ in range(self.FIXED_AUTOMATA)]
                         + [(inputs.random_automaton(rs, rng, AB, 1, 3), shorter)
                            for _ in range(self.SEEDED_AUTOMATA)])
        return inp

    def run_round(self, rs, ask, inp):
        P = rs.pipeline
        for key in ("fig1", "example"):
            machine = P.ara_to_ipcant(inp[key])
            for s in inp["short"]:
                ask("%s/%s" % (key, "".join(s)), P.prefix_reachable, machine, s)
        for i, (aut, strings) in enumerate(inp["random"]):
            machine = P.ara_to_ipcant(aut)
            for s in strings:
                ask("random/%d/%s" % (i, "".join(s)), P.prefix_reachable, machine, s)
        for n in self.BOUNCER_LENGTHS:
            # a fresh automaton per length keeps the queries independent
            machine = P.ara_to_ipcant(inputs.copy_automaton(rs, inp["bouncer"]))
            ask("bouncer/%d" % n, P.prefix_reachable, machine, inp["bouncer_letters"][:n])

    def check(self, rs, inp, results):
        status = {}
        for n in self.BOUNCER_LENGTHS:
            status["bouncer/%d" % n] = _bool_status(results["bouncer/%d" % n], True)
        for key in ("fig1", "example"):
            for s in inp["short"]:
                qid = "%s/%s" % (key, "".join(s))
                status[qid] = _bool_status(results[qid], _pattern_free_labelling(rs, s))
        for i, (aut, strings) in enumerate(inp["random"]):
            for s in strings:
                qid = "random/%d/%s" % (i, "".join(s))
                status[qid] = _bool_status(results[qid], _has_partial_run(rs, aut, s))
        return status


# -------------------------------------------------------------------- decide


def _cli(rs, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return rs.cli.run_cli(argv)


class Decide(Workload):
    """inclusion_check and bounded_nonemptiness on compiled machines, the
    sat and include queries partly through the CLI."""

    name = "decide"
    ROUND_SECONDS = 4.8
    # pairs of one-state automata: 200 from one fixed draw, 100 from the seed
    FIXED_SEED = 61
    FIXED_PAIRS = 200
    SEEDED_PAIRS = 100

    # known answers: top accepts every word; fig1 and the example formula
    # accept b b b ...; tiny.cm increments forever; the Turing-machine
    # formulas are satisfiable exactly when the machine never halts, which
    # prepare() decides by simulation
    KNOWN = {
        "sat/tiny": ("F5", "unknown"),
        "sat/halting-cap300": ("F1", "wrong"),
        "sat/bouncer": ("F2", "unknown"),
        "include/halting-self": ("F3", "unknown"),
        "include/fig1-in-fig1-or-example": ("F3", "unknown"),
        "include/pinned-intersection": ("F3", "unknown"),
    }

    def setup(self, rs, data):
        fixed = _paper_automata(rs, data)
        fixed["top"] = rs.ara.parse_automaton(_read(data, "top.ara"))
        fixed["bouncer"] = _translate_tm(rs, _read(data, "bouncer.tm"))
        fixed["halting"] = _translate_tm(rs, _read(data, "halting.tm"))
        fixed["f3_a"] = rs.ara.parse_automaton(_read(data, "f3_a.ara"))
        fixed["f3_b"] = rs.ara.parse_automaton(_read(data, "f3_b.ara"))
        return fixed

    def prepare(self, rs, fixed, seed, data, work):
        rng = random.Random(seed)
        inp = dict(fixed)
        files = {}
        for key in ("bouncer", "halting"):
            path = os.path.join(work, key + ".ara")
            with open(path, "w") as fh:
                fh.write(rs.ara.format_automaton(fixed[key]))
            files[key] = path
        for name in ("tiny.cm", "top.ara", "fig1.ara"):
            files[name] = os.path.join(data, name)
        inp["files"] = files
        halts = {key: inputs.tm_halts(inputs.read_tm(_read(data, key + ".tm")))
                 for key in ("bouncer", "halting")}
        inp["sat"] = [
            ("sat/tiny", ["sat", "--machine", files["tiny.cm"]], "NONEMPTY"),
            ("sat/tiny-cap50", ["sat", "--machine", files["tiny.cm"], "--cap", "50"],
             "NONEMPTY"),
            ("sat/top", ["sat", "--automaton", files["top.ara"]], "NONEMPTY"),
            ("sat/fig1", ["sat", "--automaton", files["fig1.ara"]], "NONEMPTY"),
            ("sat/bouncer", ["sat", "--automaton", files["bouncer"]],
             "EMPTY" if halts["bouncer"] else "NONEMPTY"),
            ("sat/halting-cap300", ["sat", "--automaton", files["halting"], "--cap", "300"],
             "EMPTY" if halts["halting"] else "NONEMPTY"),
        ]
        inp["cli_include"] = [
            ("include/fig1-self", files["fig1.ara"], files["fig1.ara"], "INCLUDED"),
            ("include/top-self", files["top.ara"], files["top.ara"], "INCLUDED"),
            ("include/fig1-in-top", files["fig1.ara"], files["top.ara"], "INCLUDED"),
            ("include/top-in-fig1", files["top.ara"], files["fig1.ara"], "NOT_INCLUDED"),
        ]
        # one-state automata: every such query converges, so the share of
        # failed queries does not depend on the seed
        fixed_rng = random.Random(self.FIXED_SEED)
        draws = [fixed_rng] * self.FIXED_PAIRS + [rng] * self.SEEDED_PAIRS
        inp["pairs"] = [(i, inputs.random_automaton(rs, r, AB, 1, 1),
                          inputs.random_automaton(rs, r, AB, 1, 1))
                         for i, r in enumerate(draws)]
        return inp

    def run_round(self, rs, ask, inp):
        A = rs.ara
        inclusion = rs.pipeline.inclusion_check
        for qid, lhs, rhs, _ in inp["cli_include"]:
            ask(qid, _cli, rs, ["include", "--lhs", lhs, "--rhs", rhs],
                summary=lambda code: INCLUDE_EXIT.get(code, "exit%d" % code))
        verdict = lambda result: result.verdict.name
        pairs = [
            ("include/example-self", inp["example"], inp["example"]),
            ("include/fig1-in-example", inp["fig1"], inp["example"]),
            ("include/example-in-fig1", inp["example"], inp["fig1"]),
            ("include/example-in-top", inp["example"], inp["top"]),
            ("include/top-in-example", inp["top"], inp["example"]),
            ("include/fig1-and-example-in-fig1",
             A.intersect(inp["fig1"], inp["example"]), inp["fig1"]),
            ("include/halting-self", inp["halting"], inp["halting"]),
            ("include/fig1-in-fig1-or-example", inp["fig1"],
             A.union(inp["fig1"], inp["example"])),
            ("include/pinned-intersection", A.intersect(inp["f3_a"], inp["f3_b"]),
             inp["f3_a"]),
        ]
        for qid, lhs, rhs in pairs:
            ask(qid, inclusion, lhs, rhs, summary=verdict)
        for i, a, b in inp["pairs"]:
            ask("pair/%d/self" % i, inclusion, a, a, summary=verdict)
            ask("pair/%d/meet" % i, inclusion, A.intersect(a, b), a, summary=verdict)
            ask("pair/%d/join" % i, inclusion, a, A.union(a, b), summary=verdict)
        for qid, argv, _ in inp["sat"]:
            ask(qid, _cli, rs, argv, summary=lambda code: SAT_EXIT.get(code, "exit%d" % code))

    def check(self, rs, inp, results):
        status = {}
        for qid, _, want in inp["sat"]:
            status[qid] = _verdict_status(results[qid], want)
        for qid, _, _, want in inp["cli_include"]:
            status[qid] = _verdict_status(results[qid], want)
        # fig1 and the example formula accept the same words, top accepts all
        wants = {"include/top-in-example": "NOT_INCLUDED"}
        for qid in ("include/example-self", "include/fig1-in-example",
                    "include/example-in-fig1", "include/example-in-top",
                    "include/top-in-example", "include/fig1-and-example-in-fig1",
                    "include/halting-self", "include/fig1-in-fig1-or-example",
                    "include/pinned-intersection"):
            status[qid] = _verdict_status(results[qid], wants.get(qid, "INCLUDED"))
        for i, _, _ in inp["pairs"]:
            for kind in ("self", "meet", "join"):
                qid = "pair/%d/%s" % (i, kind)
                status[qid] = _verdict_status(results[qid], "INCLUDED")
        # the NOT_INCLUDED answers rest on a witness word
        witness = rs.words.DataWord(*NOT_INCLUDED_WITNESS)
        if not (rs.pipeline.oracle_run_exists(inp["top"], witness)
                and not rs.pipeline.oracle_run_exists(inp["fig1"], witness)
                and not rs.pipeline.oracle_run_exists(inp["example"], witness)):
            for qid in ("include/top-in-fig1", "include/top-in-example"):
                status[qid] = "wrong"
        return status


# -------------------------------------------------------------- machine_file


class MachineFile(Workload):
    """The ara2cm -> sat --machine path: materialize, print, parse with the
    full distributivity check, then sat and prefix_reachable on the explicit
    machine."""

    name = "machine_file"
    ROUND_SECONDS = 6.0
    # sat runs on every one-state automaton over {a} and on every SAT_STRIDE-th
    # one over {a,b} in enumeration order; the rest have load and prefix
    # queries only, which keeps a round near five seconds
    SAT_STRIDE = 6
    TWO_STATE = 8
    KNOWN_PREFIX = ("F4", "wrong")
    # the one-state automata are enumerated, not drawn, so F4 fails the same
    # queries on every seed
    FAULT_LIMITS = {"F4": 438}

    def setup(self, rs, data):
        return {"nondistributive": _read(data, "nondistributive.cm")}

    def prepare(self, rs, fixed, seed, data, work):
        rng = random.Random(seed)
        inp = dict(fixed)
        inp["one_state"] = (inputs.one_state_automata(rs, ("a",))
                            + inputs.one_state_automata(rs, AB))
        inp["two_state"] = [inputs.random_automaton(rs, rng, AB, 2, 2)
                            for _ in range(self.TWO_STATE)]
        return inp

    def _sat_here(self, i, aut):
        return len(aut.alphabet) == 1 or i % self.SAT_STRIDE == 0

    @staticmethod
    def _load(rs, aut):
        machine = rs.pipeline.ara_to_ipcant(aut).materialize()
        text = rs.ipcant.format_machine(machine)
        return text, rs.ipcant.parse_machine(text, check_transfers="full")

    def run_round(self, rs, ask, inp):
        I = rs.ipcant
        P = rs.pipeline
        # printing the parsed machine must give back the loaded text
        round_trip = lambda loaded: I.format_machine(loaded[1]) == loaded[0]
        ask("nondistributive/load", I.parse_machine, inp["nondistributive"], "full",
            summary=lambda machine: "loaded")
        for i, aut in enumerate(inp["one_state"]):
            loaded = ask("one/%d/load" % i, self._load, rs, aut, summary=round_trip)
            if loaded is None:
                continue
            machine = loaded[1]
            if self._sat_here(i, aut):
                ask("one/%d/sat" % i, P.bounded_nonemptiness, machine,
                    summary=lambda v: v.name)
            for letter in aut.alphabet:
                ask("one/%d/prefix/%s" % (i, letter), P.prefix_reachable, machine, (letter,))
        for i, aut in enumerate(inp["two_state"]):
            ask("two/%d/load" % i, self._load, rs, aut, summary=round_trip)

    def known(self, qid):
        return self.KNOWN_PREFIX if "/prefix/" in qid else None

    def check(self, rs, inp, results):
        status = {}
        # the known non-distributive map is refused at load time
        got = results["nondistributive/load"]
        status["nondistributive/load"] = "ok" if got == "error:ValidationError" else "wrong"
        for i, aut in enumerate(inp["one_state"]):
            qid = "one/%d/load" % i
            status[qid] = _bool_status(results[qid], True)
            if results[qid] is not True:
                continue
            if self._sat_here(i, aut):
                # the explicit and the compiled machine must never contradict
                compiled = rs.pipeline.bounded_nonemptiness(rs.pipeline.ara_to_ipcant(aut)).name
                got = results["one/%d/sat" % i]
                if got == "UNKNOWN":
                    status["one/%d/sat" % i] = "unknown"
                else:
                    ok = compiled == "UNKNOWN" or compiled == got
                    status["one/%d/sat" % i] = "ok" if ok else "wrong"
            for letter in aut.alphabet:
                qid = "one/%d/prefix/%s" % (i, letter)
                want = _has_partial_run(rs, aut, (letter,))
                # F4 accepts letters no data word can read; a rejection of a
                # readable letter would be a different fault
                status[qid] = ("ok" if results[qid] is want
                               else "wrong" if want is False else "wrong-reject")
        for i in range(len(inp["two_state"])):
            qid = "two/%d/load" % i
            status[qid] = _bool_status(results[qid], True)
        return status


WORKLOADS = {w.name: w for w in (Membership(), Prefix(), Decide(), MachineFile())}
