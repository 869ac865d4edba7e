"""The regsafe benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a regsafe checkout.  Each round of a workload, which
asks every one of its queries once, runs in a fresh single-threaded
interpreter (bench/worker.py) that receives only the seed, so every cache of
the program starts equally cold and no round inherits another's heap.
A run asks a fixed number of rounds, S divided by the workload's nominal
round time, so the number depends on S alone and never on the machine's
speed.  The first round's answers are checked, and every later round must
give the same answers.  Every time is scaled to the machine's speed at the
moment it was taken (bench/speed.py), and each query's figure is its median
over the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many
untraced rounds and as many rounds again with spans recorded around the
program's entry points, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
# every run must end within this many seconds
RUN_LIMIT = 170.0

END_TO_END_UNITS = (("setup_s", "s"), ("wall_s", "s"), ("query_p50_ms", "ms"),
                    ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _worker(args, mode, deadline, check=False):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed hashing makes set iteration, and so the work done, repeat exactly
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode] + (["--check"] if check else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a %s worker" % mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a %s worker did not finish in time" % mode) from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("a %s worker exited with %d" % (mode, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("a %s worker printed nothing" % mode)
    return json.loads(lines[-1])


def round_count(workload, seconds):
    """Rounds that fill `seconds` at the workload's nominal round time."""
    return max(1, round(seconds / workloads.WORKLOADS[workload].ROUND_SECONDS))


class Rounds:
    """A fixed number of rounds of one workload."""

    def __init__(self, args, mode, count, deadline):
        self.rounds = []
        for k in range(count):
            run = _worker(args, mode, deadline, check=k == 0)
            if k and run["qids"] != self.rounds[0]["qids"]:
                raise BenchError("rounds asked different queries")
            self.rounds.append(run)
        self.first = self.rounds[0]
        # an answer that differs from the first round's is a failure too
        self.differing = sum(a != b for run in self.rounds[1:]
                             for a, b in zip(run["answers"], self.first["answers"]))
        per_round = len(self.first["qids"])
        self.attempted = per_round * len(self.rounds)
        self.failed = len(self.first["failed"]) * len(self.rounds) + self.differing
        self.correct = self.first["correct"] and self.differing == 0

    def latencies(self, field="latencies"):
        """Each query's median time over the rounds.  `latencies` are scaled
        to the machine's speed (speed.py), `raw_latencies` are not."""
        return [statistics.median(times) for times in zip(*(run[field] for run in self.rounds))]

    def end_to_end(self, setups, field="latencies"):
        per_query = self.latencies(field)
        return {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_query),
            "query_p50_ms": 1000.0 * statistics.median(per_query),
            "query_p90_ms": 1000.0 * statistics.quantiles(per_query, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in self.rounds),
        }


def _warm_bytecode(deadline):
    """Compile the sources once, so that no timed import pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def _report(args, rounds, metrics, extra):
    first = rounds.first
    print("workload %s, seed %d: %d rounds of %d queries"
          % (args.workload, args.seed, len(rounds.rounds), len(first["qids"])))
    for name, entry in metrics.items():
        print("  %-40s %16.6f %s" % (name, entry["value"], entry["unit"]))
    n = len(rounds.rounds)
    print("  attempted %d, failed %d (wrong %d, unknown %d, differing from round 1 %d)"
          % (rounds.attempted, rounds.failed, n * first["wrong"], n * first["unknown"],
             rounds.differing))
    for tag, count in sorted(first["faults"].items()):
        print("  known fault %s: %d failed" % (tag, n * count))
    for line in first["unexpected"][:20]:
        print("  unexpected failure: %s" % line)
    for line in first["unchecked"][:20]:
        print("  unchecked answer: %s" % line)
    for line in extra:
        print("  %s" % line)
    print(json.dumps({"correct": rounds.correct, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))


def measure(args, deadline):
    rounds = Rounds(args, "round", round_count(args.workload, args.seconds), deadline)
    setup_runs = list(rounds.rounds)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(_worker(args, "setup", deadline))
    setups = [run["setup_s"] for run in setup_runs]
    values = rounds.end_to_end(setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS}
    raw = rounds.end_to_end([run["raw_setup_s"] for run in setup_runs], "raw_latencies")
    extra = ["set-up samples: %s" % ", ".join("%.4f" % s for s in setups),
             "unscaled: %s" % ", ".join("%s %.6g" % (name, raw[name])
                                        for name, _ in END_TO_END_UNITS[:4])]
    _report(args, rounds, metrics, extra)


def trace(args, deadline):
    count = round_count(args.workload, args.seconds / 2.0)
    plain = Rounds(args, "round", count, deadline)
    traced = Rounds(args, "trace", count, deadline)
    units = per_layer_units()
    metrics = {}
    for name in traced.first["per_layer"]:
        value = statistics.median(run["per_layer"][name] for run in traced.rounds)
        metrics[name] = {"value": value, "unit": units[name]}
    plain_wall, traced_wall = sum(plain.latencies()), sum(traced.latencies())
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    extra = ["untraced wall_s %.6f over %d rounds, traced wall_s %.6f over %d rounds"
             % (plain_wall, len(plain.rounds), traced_wall, len(traced.rounds)),
             "spans of the first traced round written to %s" % traced.first["trace_file"]]
    extra += ["entry point not found: %s" % name for name in traced.first["trace_missing"]]
    if traced.first["answers"] != plain.first["answers"]:
        traced.correct = False
        extra.append("traced and untraced rounds gave different answers")
    _report(args, traced, metrics, extra)


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description="regsafe benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run unwinds, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "regsafe", "__init__.py")):
        print("error: %s holds no regsafe sources (src/regsafe)" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    try:
        _warm_bytecode(deadline)
        (trace if args.trace else measure)(args, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
