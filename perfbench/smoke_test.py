#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
through perfbench/run.py, and checks that each run passes its correctness
gate, that every metric BENCHMARK.json names is printed with its unit
(end-to-end metrics untraced, per-layer metrics traced), that end-to-end
values are positive, and that the tiny reference seed reproduces the
simulated results recorded in perfbench/baseline.json. Run from the
checkout root; exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", trace,
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        fail("%s trace=%s exited %d:\n%s" % (workload, trace, out.returncode,
                                              out.stdout))
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            lines = run(name, trace)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (name, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 or \
                    result["attempted"] < 1:
                fail("%s trace=%s: correctness gate: %s" % (
                    name, trace, lines[-1]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            if set(got) != set(want):
                fail("%s trace=%s: metrics differ: missing %s, extra %s" % (
                    name, trace, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want))))
            for m, unit in want.items():
                v = got[m]["value"]
                if got[m]["unit"] != unit:
                    fail("%s: %s has unit %s, want %s" % (
                        name, m, got[m]["unit"], unit))
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail("%s: %s is not a finite number: %r" % (name, m, v))
                if key == "end_to_end" and v <= 0:
                    fail("%s: end-to-end metric %s is %r" % (name, m, v))
            if trace == "0" and not any(
                    l.startswith("# sim-guard reference seed 1: matches")
                    for l in lines):
                fail("%s: tiny reference run does not match the baseline" %
                     name)
            print("ok  %-14s trace=%s  %d metrics" % (name, trace, len(got)))
    print("smoke test passed")


if __name__ == "__main__":
    main()
