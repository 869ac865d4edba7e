"""Check that the benchmark agrees with itself.

    python3 bench/selfcheck.py

Runs bench/run.py ten times on every workload (seeds 1..10), and then a
second set of ten (seeds 101..110), on the code of this checkout.  For every
end-to-end metric it prints each run's value and, per set, the median and
the spread, the spread being the distance between the first and third
quartile as a share of the median.  The verdict follows the bounds in
BENCHMARK.json: every spread stays within its bound, the two sets' medians
differ, in either direction, by no more than the bound, and every run fails
the same share of its queries.  Exit status 0 when all of that holds.
"""

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    # every workload's first set runs before any second set, so the two sets
    # lie as far apart in time as the whole check allows
    sets = {name: [] for name in names}
    for k in range(SETS):
        for name in names:
            seeds = [100 * k + i + 1 for i in range(RUNS)]
            runs = [run_once(spec, name, seed) for seed in seeds]
            sets[name].append(runs)
            print("%s set %d: %s" % (name, k + 1, ", ".join(
                "seed %d %s/%s%s" % (seed, r["failed"], r["attempted"],
                                     "" if r["correct"] else " INCORRECT")
                for seed, r in zip(seeds, runs))), flush=True)
    ok = True
    for name in names:
        print(name)
        runs_all = [r for runs in sets[name] for r in runs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs_all}
        if len(shares) != 1 or not all(r["correct"] for r in runs_all):
            ok = False
            print("  FAIL: failed shares %s differ or a run is incorrect"
                  % sorted(str(s) for s in shares))
        for metric in spec["end_to_end"]:
            metric_name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets[name]):
                values = [r["metrics"][metric_name]["value"] for r in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                flag = " OVER" if s > bound else " (above a third)" if s > bound / 3 else ""
                ok = ok and s <= bound
                print("  %-14s set %d: median %.6g spread %.3f%s | %s"
                      % (metric_name, k + 1, medians[-1], s, flag,
                         " ".join("%.4g" % v for v in values)))
            for later in medians[1:]:
                change = (later - medians[0]) / medians[0]
                over = abs(change) > bound
                ok = ok and not over
                print("  %-14s bound %.2f, drift %+.3f%s"
                      % (metric_name, bound, change, " OVER" if over else ""), flush=True)
    print("selfcheck: %s" % ("agree within bounds" if ok else "DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
