#!/usr/bin/env python3
"""Build and run the LMAS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from src/) into the directory named
by CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed. The measurement itself is perfbench/main.cpp; this script pins
its environment (one thread, tracing off), compares the simulated results
it reports with the baseline committed in perfbench/baseline.json, and
prints the benchmark's result object as the last line of standard output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("fig9-fanout", "skew-managed", "tenancy-open")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
GUARD_FIELDS = ("sim_pass1_s", "sim_makespan_s", "job_p50_sim_s",
                "job_p99_sim_s", "goodput_jobs_per_sim_s", "sim_events",
                "digest")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(d)


def build(bdir):
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "lmas_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def load_guard():
    try:
        with open(BASELINE) as f:
            return json.load(f).get("sim_guard", {})
    except (OSError, ValueError):
        return {}


def check_guard(records, guard):
    """Compare the '# sim-guard' records with the committed baseline."""
    out, counts = [], {"match": 0, "differ": 0, "unrecorded": 0}
    for rec in records:
        want = guard.get(rec["workload"], {}).get(rec["size"], {}).get(
            rec["seed"])
        where = "%s seed %s" % (rec["role"], rec["seed"])
        if want is None:
            counts["unrecorded"] += 1
            status = "no baseline recorded for this seed"
        else:
            diff = [k for k in GUARD_FIELDS if rec.get(k) != want.get(k)]
            counts["differ" if diff else "match"] += 1
            status = ("DIFFERS from the baseline in " + ", ".join(diff)
                      if diff else "matches the baseline bit for bit")
        if rec["role"] == "reference" or status.startswith("DIFFERS"):
            out.append("# sim-guard %s: %s" % (where, status))
    out.append("# sim-guard summary: %(match)d match, %(differ)d differ, "
               "%(unrecorded)d without a baseline" % counts)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("seed must be >= 0 and seconds > 0")
        return 2

    bdir = build_dir()
    if not build(bdir):
        log("benchmark build failed")
        return 1

    env = dict(os.environ)
    env.pop("LMAS_TRACE", None)   # the engine's own tracer stays off
    env.pop("LMAS_SHARDS", None)
    env["LMAS_JOBS"] = "1"        # every workload runs on one thread
    cmd = [os.path.join(bdir, "lmas_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            bdir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1

    lines = proc.stdout.splitlines()
    if not lines:
        log("benchmark printed nothing (exit %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines))
        log("benchmark did not end with a result object")
        return 1

    records = []
    for line in lines[:-1]:
        print(line)
        if line.startswith("# sim-guard {"):
            records.append(json.loads(line[len("# sim-guard "):]))
    for line in check_guard(records, load_guard()):
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
