#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 benchmark/smoke.py

Runs every workload named in ``BENCHMARK.json`` at its smallest inputs,
untraced and traced, and checks that each run prints every metric
``BENCHMARK.json`` names for that mode, with its unit and a finite value,
and that no op failed.  Prints the metrics of each run by name and unit.
Also checks that the benchmark refuses to run, printing no result, while
``STRATA_LIMITS_THREADS`` is set.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"smoke: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(ROOT / "benchmark" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(workload: str, trace: int, expected: dict[str, str]) -> None:
    done = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{label} exited {done.returncode}: {done.stderr.strip()}")
    *_, summary_line, result_line = done.stdout.strip().splitlines()
    summary, result = json.loads(summary_line), json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or summary["fail_frac"] != 0:
        fail(f"{label}: {result['failed']} of {result['attempted']} ops failed: {done.stderr.strip()}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    print(f"{label}: {result['attempted']} ops, fail_frac {summary['fail_frac']}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            fail(f"{label}: {name} has unit {metrics[name]['unit']!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {name} = {value!r} is not a finite number")
        print(f"  {name} = {value:.6g} {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)

    refused = run(spec["workloads"][0]["name"], 0, dict(os.environ, STRATA_LIMITS_THREADS="2"))
    if refused.returncode == 0 or refused.stdout.strip():
        fail("the benchmark ran with STRATA_LIMITS_THREADS set")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
