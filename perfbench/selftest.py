#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for `serve`, which is runnable
but not part of BENCHMARK.json, runs the benchmark with --smoke on
two seeds, untraced and traced, and checks that:

* the run exits 0 and its last stdout line is the result object with
  exactly the keys correct, attempted, failed and metrics;
* the run is correct: no failed or mismatched operation on either seed;
* the metrics are exactly the BENCHMARK.json end-to-end (untraced) or
  per-layer (traced) names, each with the unit BENCHMARK.json gives, each
  a finite number, and each also printed on its own line with its unit.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = [1, 2]
# Runnable but not in BENCHMARK.json (see README.md): checked all the same.
EXTRA_WORKLOADS = ["serve"]


def check_run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} seed {seed} trace {trace}"
    problems = []
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not correct: {lines[-1][:300]}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{where}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    return problems


def main():
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(workload, seed, trace)
                print(f"{workload:<11} seed {seed} trace {trace}: {'ok' if not found else 'FAIL'}",
                      flush=True)
                problems += found
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
