"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--check]

MODE is "setup" (time the set-up only), "round" (set up, then answer every
query of the workload once) or "trace" (as "round", with the span recorder
of spans.py wrapped around the program's entry points).  With --check the
answers are then checked, after peak memory has been read.  Between
queries the worker samples the machine's speed (speed.py); every time it
reports is scaled by it, and the raw times are reported as well.  The result
is one JSON object on the last line of standard output.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PROGRAM_MODULES = ("ltl", "words", "ara", "ipcant", "pipeline", "cli")


class Session:
    """Times each query and keeps its answer; samples the machine's speed
    between queries."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.answers = {}
        self.spans = []

    def ask(self, qid, fn, *args, summary=None):
        if self.probe.due():
            self.probe.sample()
        tracer = self.tracer
        if tracer is not None:
            tracer.query = qid
            tracer.active = True
        start = time.perf_counter()
        try:
            result = fn(*args)
            error = None
        except Exception as exc:  # a failing query is an answer to check
            result = None
            error = "error:%s" % type(exc).__name__
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        self.spans.append((start, end))
        self.answers[qid] = error if error is not None else (
            summary(result) if summary else result)
        return result


def per_layer(tracer, scale):
    """Layer metrics of the set-up plus one round of queries, times scaled
    by `scale`."""
    calls, incl, counts, own = (tracer.calls, tracer.inclusive, tracer.counts,
                                tracer.self_time)
    out = {
        "ltl.parse_s": incl.get("ltl.parse", 0.0),
        "tm.tm_to_formula_s": incl.get("tm.tm_to_formula", 0.0),
        "translate.ltl_to_ara_s": incl.get("translate.ltl_to_ara", 0.0),
        "translate.states": counts.get("translate.states", 0),
        "posbool.minimal_models_calls": calls.get("posbool.minimal_models", 0),
        "posbool.minimal_models_s": incl.get("posbool.minimal_models", 0.0),
        "automaton.run_exists_calls": calls.get("automaton.run_exists", 0),
        "automaton.run_exists_s": incl.get("automaton.run_exists", 0.0),
        "automaton.step_calls": calls.get("automaton.step", 0),
        "automaton.inclusion_product_s": incl.get("automaton.inclusion_product", 0.0),
        "compile.config_successors_calls": calls.get("compile.config_successors", 0),
        "compile.config_successors_s": incl.get("compile.config_successors", 0.0),
        "compile.read_images_calls": calls.get("compile.read_images", 0),
        "compile.read_images_s": incl.get("compile.read_images", 0.0),
        "compile.here_sets_calls": calls.get("compile.here_sets", 0),
        "compile.here_sets_s": incl.get("compile.here_sets", 0.0),
        "compile.materialize_s": incl.get("compile.materialize", 0.0),
        "explore.successors_calls": calls.get("explore.successors", 0),
        "explore.configs_generated": counts.get("explore.configs_generated", 0),
        "explore.prefix_reachable_s": incl.get("explore.prefix_reachable", 0.0),
        "explore.inclusion_check_s": incl.get("explore.inclusion_check", 0.0),
        "explore.inclusion_explored": counts.get("explore.inclusion_explored", 0),
        "explore.inclusion_checkpoints": counts.get("explore.inclusion_checkpoints", 0),
        "explore.bounded_nonemptiness_s": incl.get("explore.bounded_nonemptiness", 0.0),
        "explore.bounded_nonemptiness_expanded":
            counts.get("explore.bounded_nonemptiness_expanded", 0),
        "ipcant.parse_machine_s": incl.get("ipcant.parse_machine", 0.0),
        "ipcant.format_machine_s": incl.get("ipcant.format_machine", 0.0),
        "ipcant.check_distributive_calls": calls.get("ipcant.check_distributive", 0),
        "ipcant.check_distributive_s": incl.get("ipcant.check_distributive", 0.0),
        "cli.run_cli_calls": calls.get("cli.run_cli", 0),
        "cli.run_cli_s": incl.get("cli.run_cli", 0.0),
    }
    for name in out:
        if name.endswith("_s"):
            out[name] *= scale
    read_calls = out["compile.read_images_calls"]
    out["compile.read_images_hit_ratio"] = (
        counts.get("compile.read_images_hits", 0) / read_calls if read_calls else 0.0)
    successors_s = incl.get("explore.successors", 0.0) * scale
    out["explore.configs_per_s"] = (
        out["explore.configs_generated"] / successors_s if successors_s else 0.0)
    for layer in spans.LAYERS:
        out["self.%s_s" % layer] = own.get(layer, 0.0) * scale
    out["trace.spans"] = sum(calls.values())
    return out


def peak_rss_kb():
    """High-water resident set of this process's own address space.
    getrusage's ru_maxrss would also count the parent's pages at fork time,
    which grow with the parent's bookkeeping."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def check(wl, rs, inp, answers):
    """Statuses of the first round's answers, split by known fault."""
    status = wl.check(rs, inp, answers)
    failed = {qid: st for qid, st in status.items() if st != "ok"}
    faults = {}
    unexpected = []
    for qid, st in sorted(failed.items()):
        known = wl.known(qid)
        if known is not None and known[1] == st:
            faults[known[0]] = faults.get(known[0], 0) + 1
        else:
            unexpected.append("%s=%s" % (qid, st))
    for tag, count in sorted(faults.items()):
        limit = wl.FAULT_LIMITS.get(tag)
        if limit is not None and count > limit:
            unexpected.append("%s failed %d queries, more than the %d recorded"
                              % (tag, count, limit))
    unchecked = sorted(set(answers) - set(status))
    return {
        "failed": sorted(failed),
        "wrong": sum(1 for st in failed.values() if st.startswith("wrong")),
        "unknown": sum(1 for st in failed.values() if st == "unknown"),
        "faults": faults,
        "unexpected": unexpected,
        "unchecked": unchecked,
        "correct": not unexpected and not unchecked,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "round", "trace"), required=True)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.mode == "trace" else None
    probe = speed.SpeedProbe()
    for _ in range(speed.SIDE):
        probe.sample()

    # set-up: from here to the first query
    start = time.perf_counter()
    import regsafe  # noqa: F401
    import regsafe.cli
    import regsafe.ipcant
    import regsafe.pipeline
    rs = types.SimpleNamespace(**{name: sys.modules["regsafe." + name]
                                  for name in PROGRAM_MODULES})
    if tracer is not None:
        tracer.install(sys.modules)
        tracer.query = "setup"
        tracer.active = True
    fixed = wl.setup(rs, DATA)
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    for _ in range(speed.SIDE):
        probe.sample()
    raw_setup_s = end - start
    setup_s = raw_setup_s * probe.scale(start, end)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        inp = wl.prepare(rs, fixed, args.seed, DATA, work)
        session = Session(tracer, probe)
        wl.run_round(rs, session.ask, inp)
        for _ in range(speed.SIDE):
            probe.sample()
        peak_rss_mb = peak_rss_kb() / 1024.0
        result = check(wl, rs, inp, session.answers) if args.check else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = [end - start for start, end in session.spans]
    scales = [probe.scale(start, end) for start, end in session.spans]
    result.update({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "latencies": [t * k for t, k in zip(raw, scales)],
        "raw_latencies": raw,
        "peak_rss_mb": peak_rss_mb,
        "qids": list(session.answers),
        "answers": [repr(a) for a in session.answers.values()],
    })
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, statistics.median(scales))
        result["trace_missing"] = tracer.missing
    if tracer is not None and args.check:
        out_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-seed%d.json" % (args.workload, args.seed))
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
