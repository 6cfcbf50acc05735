#!/usr/bin/env python3
"""Measure the benchmark's baseline and run-to-run spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b]
                                  [--write]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, then prints, for every end-to-end metric, the median, the
quartiles (statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median
next to the metric's bound. With --write it stores those figures, and the
simulated results of the reference and held-out seeds (the simulated-
behaviour guard), in perfbench/baseline.json. Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace="0", size="full"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace, "--size", size]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stdout))
    guards = [json.loads(l[len("# sim-guard "):]) for l in lines
              if l.startswith("# sim-guard {")]
    return json.loads(lines[-1]), guards


def record_guard(base, guards, seed):
    """Keep the reference repetition and the run seed's own stream."""
    for rec in guards:
        if rec["role"] != "reference" and rec["seed"] != str(seed):
            continue
        entry = {k: v for k, v in rec.items()
                 if k not in ("role", "workload", "size", "seed")}
        base["sim_guard"].setdefault(rec["workload"], {}).setdefault(
            rec["size"], {})[rec["seed"]] = entry


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(BASELINE) as f:
        base = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    for name in names:
        values = {m: [] for m in bounds}
        for seed in seeds:
            result, guards = run(name, seed, bench["run_seconds"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            if args.write:
                record_guard(base, guards, seed)
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.6g" % (m, values[m][-1]) for m in bounds)), flush=True)
        summary = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "runs": len(vals)}
            print("  %-24s median %-12.6g IQR/median %.4f (bound %.2f)%s"
                  % (m, med, spread, bounds[m],
                     "" if m == "setup_s" or spread <= bounds[m] / 3
                     else "  <-- above a third of the bound"), flush=True)
        if args.write:
            base["end_to_end"][name] = summary
            # The held-out seed, and the tiny size the smoke test runs.
            for size, seed in (("full", base["held_out_seed"]),
                               ("tiny", base["reference_seed"]),
                               ("tiny", base["held_out_seed"])):
                record_guard(base, run(name, seed, 1, size=size)[1], seed)
    if args.write:
        with open(BASELINE, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
