#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:
  * every workload -- those BENCHMARK.json declares and train -- untraced
    and traced, prints the result line with exactly the contract's keys
    and exactly the metrics BENCHMARK.json declares for that mode, each
    with its declared unit;
  * the counts that must repeat do repeat for one seed: adapt's retrains
    and swaps, train's program runs, model bytes and speedup;
  * a run against a corrupted copy of an oracle fails: one flipped golden
    choice (serve-warm) and one flipped model byte (train);
  * a directory holding only BENCHMARK.json and perfbench/ fails without
    printing a result.
Exit status 0 means every check passed.
"""

import json
import os
import re
import shutil
import subprocess
import sys

SECONDS = "0.5"
WORK = os.path.join(".bench_build", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, golden=None, cwd=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    if golden:
        cmd += ["--golden", golden]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)
    lines = out.stdout.strip().splitlines()
    result = report = None
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        pass
    return out.returncode, result, out.stderr, report


def corrupt_copy(name, edit):
    """Copies tests/golden to WORK/name and applies edit(dir) to it."""
    dst = os.path.join(WORK, name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree("tests/golden", dst)
    edit(dst)
    return dst


def flip_choice(d):
    path = os.path.join(d, "sort1.choices.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    inp, landmark = lines[1].split(",")
    lines[1] = "%s,%d" % (inp, int(landmark) + 1)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def flip_model_byte(d):
    """Changes the last digit of the last long decimal in sort1.pbt: the
    file still loads, but its bytes no longer match what training
    produces."""
    path = os.path.join(d, "sort1.pbt")
    with open(path, "rb") as f:
        data = bytearray(f.read())
    i = [m.end() - 1 for m in re.finditer(rb"\.\d{10,}", data)][-1]
    data[i] = ord("1") if data[i] == ord("0") else ord("0")
    with open(path, "wb") as f:
        f.write(bytes(data))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(WORK, exist_ok=True)

    reports = {}
    for name in [w["name"] for w in spec["workloads"]] + ["train"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err, report = run(name, trace)
            reports[(name, trace)] = report
            tag = "%s --trace %d" % (name, trace)
            check(code == 0 and result is not None and result["correct"],
                  tag + " runs correct" + ("" if code == 0 else
                                           ": " + err[-500:]))
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, tag + " result has the "
                  "contract's keys")
            check(result["attempted"] >= 1, tag + " attempted >= 1")
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            check(got == want, tag + " prints its metrics" +
                  ("" if got == want else ": missing %s, extra %s"
                   % (sorted(want - got), sorted(got - want))))
            check(all(m["unit"] == units.get(n)
                      for n, m in result["metrics"].items()),
                  tag + " prints every metric with its declared unit")

    # These figures may be ones the full report line keeps beyond the
    # declared metrics.
    def values(report, names):
        return report and {n: report["metrics"][n]["value"] for n in names}

    for workload, trace, names in (
            ("adapt", 1, ["runtime.retrains", "runtime.swaps"]),
            ("train", 1, ["benchmarks.run_calls", "serialize.model_bytes"]),
            ("train", 0, ["speedup_over_static"])):
        first = values(reports[(workload, trace)], names)
        again = values(run(workload, trace)[3], names)
        check(first is not None and first == again,
              "%s repeat exactly: %s vs %s" % (", ".join(names), first, again))

    golden = corrupt_copy("flipped-choice", flip_choice)
    code, result, err, _ = run("serve-warm", 0, golden=golden)
    check(code != 0 and result is not None and not result["correct"]
          and "golden choice" in err,
          "serve-warm fails against one flipped golden choice")
    golden = corrupt_copy("flipped-byte", flip_model_byte)
    code, result, err, _ = run("train", 0, golden=golden)
    check(code != 0 and result is not None and not result["correct"]
          and "differs from the golden model bytes" in err,
          "train fails against one flipped model byte")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, result, _, _ = run("serve-warm", 0, cwd=bare)
    check(code != 0 and result is None,
          "a directory with only the benchmark fails without a result")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
