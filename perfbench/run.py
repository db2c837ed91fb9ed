#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve-warm|adapt|train \
        --seed N --seconds S --trace 0|1

BENCHMARK.json declares serve-warm and adapt; train is run by hand (its
spread on a shared host is too wide for the benchmark's bounds). Run it
from the repository root. It builds pbt-serve and the pbt-perfbench
harness from source into .bench_build/ (the first run takes about a
minute), runs the workload, and prints two JSON lines on stdout:
the full report (host record, every metric with its sample count, closure
checks, tracing overhead), then the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes the spans to .bench_build/trace/; the full report also holds the
workload's own figures that BENCHMARK.json does not declare. Reports are
also kept under .bench_build/reports/. Exit status is 0 only when every
output passed its oracle.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "pbt-perfbench")
WORKLOADS = ("serve-warm", "adapt", "train")
# What the build and the oracles need from the checkout.
REQUIRED = ("CMakeLists.txt", "src", "tools/PbtServe.cpp", "tests/golden",
            "perfbench/CMakeLists.txt", "BENCHMARK.json")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the build up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "pbt-perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the sources the benchmark builds and checks against."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "tests/golden", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "commit": commit,
            "source_sha256": source_digest()}


def run_harness(args, golden, trace_out):
    """Runs the harness in its own process group, so nothing it started
    (pbt-serve children) outlives it."""
    cmd = [HARNESS, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--golden=" + golden, "--work-dir=" + os.path.join(BUILD_DIR, "run")]
    if trace_out:
        cmd.append("--trace-out=" + trace_out)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no report (exit %d)" % proc.returncode)
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness report is not JSON: " + lines[-1][:200])


def declared_metrics(report, trace):
    """The metrics BENCHMARK.json declares for this mode, taken from the
    report; each must be there with its declared unit. The report keeps
    the workload's other metrics as well."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) is missing from the report"
                 % (m["name"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default="tests/golden",
                    help="oracle directory (the self-test passes a "
                         "corrupted copy)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    for path in REQUIRED:
        if not os.path.exists(path):
            fail("missing %s: run from the repository root" % path)

    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("run", "reports", "trace"):
        os.makedirs(os.path.join(BUILD_DIR, sub), exist_ok=True)
    trace_out = (os.path.join(BUILD_DIR, "trace", tag + ".jsonl")
                 if args.trace else None)
    code, report = run_harness(args, args.golden, trace_out)
    report["host"] = dict(report.get("host", {}), **host_record())
    report["seconds"] = args.seconds
    metrics = declared_metrics(report, args.trace)
    with open(os.path.join(BUILD_DIR, "reports", tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    correct = bool(report["correct"]) and code == 0
    # A percentile over more failed requests than it excludes is +inf,
    # which the harness prints as null: such a run did not measure.
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            print("perfbench: %s has no finite value" % name, file=sys.stderr)
            correct = False
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
