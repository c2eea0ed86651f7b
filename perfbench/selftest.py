#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (16×16 grids, n = 256 expander).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that every workload, untraced and
traced, emits exactly the metrics BENCHMARK.json names, each with its unit
and a finite value; that metric names match [A-Za-z0-9_.-]+; that the
solution checks fire when every returned x is perturbed (--corrupt); and
that run.py refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and perfbench/. Exits non-zero on any failure.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point: build() and paths)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(NAME.fullmatch(n) for n in names),
           "names match [A-Za-z0-9_.-]+ and start with a letter or digit")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "each workload has a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(all(UNIT.fullmatch(m["unit"]) for m in metrics), "units well formed")
    expect(all(m["better"] in ("lower", "higher") for m in metrics),
           "better is lower or higher")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "end-to-end bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and
           setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s present in s with the largest bound")


def run_smoke(binary, workload, trace, corrupt=False):
    args = [str(binary), "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    if corrupt:
        args.append("--corrupt")
    done = subprocess.run(args, stdout=subprocess.PIPE, timeout=300,
                          check=False)
    lines = done.stdout.decode().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def check_result(result, spec, workload, trace):
    label = f"{workload} trace={trace}"
    if result is None:
        expect(False, f"{label}: driver ran")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: every named metric emitted with its unit")
    expect(all(isinstance(v["value"], (int, float)) and
               math.isfinite(v["value"]) for v in result["metrics"].values()),
           f"{label}: values are finite numbers")
    expect(result["correct"] is True and result["failed"] == 0 and
           result["attempted"] >= 1, f"{label}: all operations verified")


def check_bare_directory():
    bare = run.BUILD.parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(run.SPEC, bare / "BENCHMARK.json")
    for f in run.HERE.rglob("*"):
        if f.is_file() and "__pycache__" not in f.parts:
            dst = bare / "perfbench" / f.relative_to(run.HERE)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(f, dst)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
        check=False)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "refuses without library sources (non-zero exit, no result)")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads(run.SPEC.read_text())
    check_spec(spec)
    binary = run.build()
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(run_smoke(binary, w, trace), spec, w, trace)
        bad = run_smoke(binary, w, 0, corrupt=True)
        expect(bad is not None and bad["correct"] is False and
               bad["failed"] > 0, f"{w}: checks fire on a corrupted x")
    check_bare_directory()
    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
