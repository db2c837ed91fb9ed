#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--workloads serve-warm,adapt]
        [--runs 10] [--first-seed 1] [--seconds 10]

Run it from the repository root. It runs perfbench/run.py once per seed
(seeds first-seed .. first-seed+runs-1) on each workload (by default
those BENCHMARK.json declares), untraced, and prints for every
end-to-end metric its median, quartiles
(statistics.quantiles(n=4)) and spread: (Q3 - Q1) / median. A metric is
steady when its spread stays below a third of its bound in
BENCHMARK.json (setup_s has no spread requirement). The figures are also
written to .bench_build/steadiness.json. Exit status is 1 when a run
fails or a metric is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None,
                    help="defaults to the workloads of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    ok = True
    table = {}
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", "%g" % seconds,
                   "--trace", "0"]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (workload, seed,
                                                  out.stderr[-2000:]))
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d (%.1f s): %s" % (workload, seed, wall, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
        table[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok = ok and steady
            table[workload][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "steady": steady}
            print("  %-22s median %-12.6g spread %6.2f%%  bound %4.0f%%  %s"
                  % (name, med, 100 * spread, 100 * bounds[name],
                     "steady" if steady else "NOT STEADY"), flush=True)
    with open(".bench_build/steadiness.json", "w") as f:
        json.dump({"seconds": seconds, "runs": args.runs,
                   "first_seed": args.first_seed, "workloads": table}, f,
                  indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
