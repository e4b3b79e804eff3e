#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig-sweep|service-stream|stream-pass \
        --seed N --seconds S --trace 0|1

The harness is built with CMake into .bench_build/ at the repository root
(the first run builds; later runs rebuild only what changed). Build output
goes to stderr. The harness's report is relayed to stdout; its last line is
the JSON result, checked here against BENCHMARK.json before it is printed.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "fgp_perfbench"

WORKLOADS = ["fig-sweep", "service-stream", "stream-pass"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                       stderr=sys.stderr, check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "-j", jobs,
                "--target", "fgp_perfbench"], BUILD_TIMEOUT_S)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def check_result(line, traced):
    """Validates the harness's JSON result line; returns an error or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    e2e, layers = declared_metrics()
    # Every workload reports every declared metric of its kind.
    declared = layers if traced else e2e
    got = result["metrics"]
    if sorted(got) != sorted(declared):
        return f"metrics {sorted(got)} differ from declared {sorted(declared)}"
    for name, m in got.items():
        if m.get("unit") != declared[name]:
            return f"{name}: unit {m.get('unit')} != declared {declared[name]}"
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    scratch = BUILD / f"run-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    error = check_result(lines[-1], args.trace == "1")
    if error is not None:
        fail(error, 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
