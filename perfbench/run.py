#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload,
check its output and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the driver into .bench_build/ (Release, 4 jobs); later runs only
re-check the build. The driver's human-readable report goes to stdout; the
last line is {"correct", "attempted", "failed", "metrics"}, with the metric
set of BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1).

Beyond the driver's own checks (every x against an independent residual and
a sequential CG reference), a run of --trace 0 records its deterministic
counts per (workload, seed) in .bench_build/ and marks the run incorrect if
an earlier run of the same binary and seed reported different ones.
"""
import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"
DETERMINISTIC = ("rounds", "pa_calls", "outer_iterations")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return BUILD / "perfbench"


def run_driver(binary, args):
    """Runs the driver; returns (report lines, parsed JSON result)."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver exited {done.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")


def expected_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metric_set(result, trace):
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in want if k in got and got[k] != want[k])
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {wrong}", code=3)


def counts_repeat(binary, workload, seed, metrics):
    """Compares this run's deterministic counts with any earlier run of the
    same binary and seed; records them. Returns False on a mismatch."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = BUILD / "counts.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    key = f"{digest}/{workload}/{seed}"
    counts = {k: metrics[k]["value"] for k in DETERMINISTIC}
    previous = book.get(key)
    book[key] = counts
    path.write_text(json.dumps(book, indent=1, sort_keys=True))
    if previous is not None and previous != counts:
        print(f"# deterministic counts changed for seed {seed}: "
              f"{previous} -> {counts}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not SPEC.is_file():
        fail(f"{SPEC} not found")
    names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")

    binary = build()
    report, result = run_driver(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    check_metric_set(result, args.trace)
    correct = bool(result["correct"])
    if not args.trace:
        correct = counts_repeat(binary, args.workload, args.seed,
                                result["metrics"]) and correct
    for line in report:
        print(line)
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
