#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs of the same build.

Usage (from the repository root):
    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
                                [--seconds S] [--first-seed 1]

Each set runs every workload --runs times, one seed per run (set A uses
seeds first-seed .. first-seed+runs-1, set B the next --runs seeds), with
the workloads interleaved. For every end-to-end metric of every workload it
prints each set's median and quartiles, the quartile spread as a share of
the median, and whether the sets agree within BENCHMARK.json's bounds:
each spread (setup_s excepted) is within the bound and set B's median is
not worse than set A's by more than the bound. Exits 1 on disagreement.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(2):
        samples = {w: {} for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                for name, value in run_once(w, seed, args.seconds).items():
                    samples[w].setdefault(name, []).append(value)
        sets.append(samples)

    ok = True
    print(f"{'workload':15} {'metric':15} {'set':3} {'q1':>12} {'median':>12}"
          f" {'q3':>12} {'spread':>7} {'bound':>6} verdict")
    for w in workloads:
        for name, values_a in sets[0][w].items():
            m = metrics[name]
            rows = [summary(values_a), summary(sets[1][w][name])]
            med_a, med_b = rows[0][1], rows[1][1]
            drift = (med_b - med_a) / med_a if med_a else float("inf")
            if m["better"] == "higher":
                drift = -drift
            agree = drift <= m["bound"]
            if name != "setup_s":
                agree = agree and all(r[3] <= m["bound"] for r in rows)
            ok = ok and agree
            for label, (q1, q2, q3, spread) in zip("AB", rows):
                print(f"{w:15} {name:15} {label:3} {q1:12.6g} {q2:12.6g}"
                      f" {q3:12.6g} {spread:7.3f} {m['bound']:6.2f}"
                      + (f" {'agree' if agree else 'DISAGREE'}"
                         f" (B vs A {drift:+.3f})" if label == "B" else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
