#!/usr/bin/env python3
"""Run one workload of the strata-limits benchmark and print its metrics.

    python3 benchmark/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The workload's inputs come from ``--seed``.  Passes
over the input set repeat, one op at a time in this one process (a closed
loop with one caller), until the next pass would end after ``--seconds``;
at least two passes run, so every op's output is compared between repeats.
Each op's output is checked after its pass, outside the timed region.

Every time reported is scaled to a nominal host speed measured by
``speed.probe`` between ops; the raw times are on the summary line.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics of ``tracer.LAYER_METRICS`` per traced pass, plus
``trace.overhead_frac``.  The line before it records the environment, the
pass and sample counts, ``fail_frac`` and the raw times.  ``--smoke`` runs
the smallest inputs.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_REPEATS = 11
# Ops run back to back for about this long between two speed probes, each
# of which takes 20-40 ms.
PROBE_INTERVAL_S = 0.25
CHILD_TIMEOUT_S = 120
FAILURES_SHOWN = 5

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import strata_limits, strata_limits.cli\n"
    "print(time.perf_counter() - start)\n"
)


def refuse(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run the smallest inputs")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the package's source files, which names the code measured
    also where there is no git revision."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "strata_limits").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup_s(speed) -> tuple[float, float]:
    """Median time to import the package in a fresh interpreter, scaled and
    raw.  Each import is scaled by the mean of the probes on either side.

    The first import of the series is not counted: it may write the
    bytecode caches, which a user's earlier runs would have written."""
    scaled, raw = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        after = speed.probe()
        raw.append(float(done.stdout))
        scaled.append(raw[-1] * speed.NOMINAL_S * 2 / (before + after))
        before = after
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def make_inputs(workload_cls, seed: int, smoke: bool, workdir: Path):
    if workload_cls.name == "build-files":
        code = (
            "from pathlib import Path\n"
            "import workloads\n"
            f"workloads.make_build_files({seed}, {smoke}, Path({str(workdir)!r}))\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            timeout=CHILD_TIMEOUT_S, check=True,
        )
    return workload_cls(seed, smoke, workdir)


class Pass:
    """One timed pass: scaled and raw times, outputs and guard counts per op.

    Latencies are kept as C doubles, so that the memory they take, which
    counts in ``peak_rss_mb``, stays small as faster code fits more passes
    into a run."""

    __slots__ = ("traced", "wall", "raw_wall", "latencies", "raw_latencies", "speeds",
                 "results", "guards")

    def __init__(self, traced):
        self.traced = traced
        self.wall = self.raw_wall = 0.0
        self.latencies = array("d")
        self.raw_latencies = array("d")
        self.speeds: list[float] = []
        self.results: list = []
        self.guards: list[dict] = []


def run_pass(workload, tracer, guard_keys, speed) -> Pass:
    """Time every op once.

    Ops run in segments of about ``PROBE_INTERVAL_S``, with a speed probe
    before the first and after each segment; a segment's times are scaled
    by the mean of its two probes.  Only the op itself is inside its
    latency; the pass wall time also holds the per-op cache clearing and
    counter reads, and not the probes.  Each pass starts from an empty
    young generation, as a fresh CLI call does."""
    record = Pass(tracer.timed)

    def snapshot():
        return [tracer.calls[k] for k in guard_keys[:-1]] + [tracer.extra[guard_keys[-1]]]

    snapshots = [snapshot()]
    segment: list[float] = []
    probe = speed.probe()

    def close_segment(wall: float) -> float:
        nonlocal probe
        after = speed.probe()
        factor = speed.NOMINAL_S * 2 / (probe + after)
        record.raw_wall += wall
        record.wall += wall * factor
        record.latencies.extend(t * factor for t in segment)
        record.speeds.append(factor)
        segment.clear()
        probe = after
        return perf_counter()

    gc.collect()
    tracer.install()
    try:
        start = perf_counter()
        for op in workload.ops:
            workload.before_op()
            t0 = perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed op is counted, not fatal
                result = exc
            segment.append(perf_counter() - t0)
            record.raw_latencies.append(segment[-1])
            record.results.append(result)
            snapshots.append(snapshot())
            if perf_counter() - start >= PROBE_INTERVAL_S:
                start = close_segment(perf_counter() - start)
        if segment:
            close_segment(perf_counter() - start)
    finally:
        tracer.uninstall()
    before = snapshots.pop(0)
    for snap in snapshots:
        record.guards.append({k: now - then for k, now, then in zip(guard_keys, snap, before)})
        before = snap
    return record


def timing_metrics(passes: list[Pass], ops, scaled: bool) -> dict[str, float]:
    """wall_s, op_p50_ms, op_p90_ms and top_rung_s over untraced passes."""
    walls = [p.wall if scaled else p.raw_wall for p in passes]
    per_pass = [p.latencies if scaled else p.raw_latencies for p in passes]
    latencies = [t for times in per_pass for t in times]
    top = max(op.size for op in ops)
    top_ops = [i for i, op in enumerate(ops) if op.size == top]
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "top_rung_s": statistics.median(sum(times[i] for i in top_ops) for times in per_pass),
    }


def main(argv=None) -> int:
    if not (SRC / "strata_limits" / "__init__.py").is_file():
        refuse(f"no package at {SRC / 'strata_limits'}; run from a strata-limits checkout")
    if "STRATA_LIMITS_THREADS" in os.environ:
        refuse("STRATA_LIMITS_THREADS is set; unset it so classify measures the serial default")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import strata_limits
    if not Path(strata_limits.__file__).resolve().is_relative_to(SRC.resolve()):
        refuse(f"imported strata_limits from {strata_limits.__file__}, not from {SRC}")
    import speed
    import tracer as tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    guard_keys = (*tracing.GUARDS, "pyramids.jobs")
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "strata_limits_threads_set": False,
    }

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workload = make_inputs(workloads.WORKLOADS[args.workload], args.seed, args.smoke, Path(tmp))
        setup = None if args.trace else measure_setup_s(speed)
        counted, traced = tracing.Tracer(timed=False), tracing.Tracer(timed=True)
        ops = workload.ops
        # The inputs stay alive for the whole run; frozen, the collector no
        # longer walks them, so a collection costs what it costs a fresh CLI
        # call.
        gc.collect()
        gc.freeze()
        passes: list[Pass] = []
        first_digests: list = [None] * len(ops)
        failures: list[str] = []
        attempted = failed = 0
        start = perf_counter()
        while True:
            use_trace = bool(args.trace) and len(passes) % 2 == 1
            record = run_pass(workload, traced if use_trace else counted, guard_keys, speed)
            problems: dict[int, list[str]] = {}
            for i, (op, result) in enumerate(zip(ops, record.results)):
                if isinstance(result, Exception):
                    problems[i] = [f"raised {type(result).__name__}: {result}"]
                    continue
                found = workload.check(op, result, record.guards[i])
                op_digest = workload.digest(op, result)
                if first_digests[i] is None:
                    first_digests[i] = op_digest
                elif op_digest != first_digests[i]:
                    found.append("output differs from an earlier repeat")
                if found:
                    problems[i] = found
                if use_trace:
                    traced.extra["stable_graphs.classes"] += workload.classes(result)
                    traced.extra["cli.stdout_bytes"] += workload.stdout_bytes(result)
            if not passes:
                for i, problem in workload.check_pass(ops, record.results):
                    problems.setdefault(i, []).append(problem)
            attempted += len(ops)
            failed += len(problems)
            failures += [f"op {i} (size {ops[i].size}): {'; '.join(p)}" for i, p in problems.items()]
            record.results = record.guards = None  # checked; keeping them grows the RSS
            passes.append(record)
            elapsed = perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

    # Read before the metrics below sort copies of the latencies.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    raw = timing_metrics(untraced, ops, scaled=False)
    if args.trace:
        # Self times are scaled like the pass they were measured in.
        time_scale = sum(p.wall for p in traced_passes) / sum(p.raw_wall for p in traced_passes)
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            value = traced.layer_metric(name, len(traced_passes))
            metrics[name] = {"value": value * time_scale if unit == "s" else value, "unit": unit}
        overhead = (
            statistics.median(p.wall for p in traced_passes)
            / statistics.median(p.wall for p in untraced) - 1
        )
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        values = timing_metrics(untraced, ops, scaled=True)
        values["setup_s"], raw["setup_s"] = setup
        values["peak_rss_mb"] = peak_rss_mb
        units = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "top_rung_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    for line in failures[:FAILURES_SHOWN]:
        print(f"benchmark: failed {line}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "env": env,
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "op_latency_samples": sum(len(p.latencies) for p in untraced),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "speed_factor_median": statistics.median(s for p in passes for s in p.speeds),
        "raw": raw,
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
