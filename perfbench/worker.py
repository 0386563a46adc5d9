"""Runs one workload in this process and prints its results as JSON.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned and
the package's ``src`` directory on ``PYTHONPATH``.  With ``--probe`` it
only imports the CLI and runs the workload's warm-up op, which is what
``run.py`` times as set-up.  Otherwise it runs the warm-up op, computes
the oracles, then repeats whole passes over the workload's ops, timing
each op in CPU seconds, until ``--seconds`` have passed and the pooled
op samples leave at least ten beyond their 90th percentile.  With ``--trace 1`` it
alternates untraced and traced passes instead, and reports per-layer
metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy
from scipy.special import betainc

import symhardy.cli  # the import that set-up time covers

import ops

MIN_OP_SAMPLES = 100  # ten samples beyond the 90th percentile


def run_passes(workload_ops, scratch, seconds, min_samples, tracer=None):
    """Whole passes over the ops until ``seconds`` of wall clock have passed.

    Returns (pass CPU seconds, pass wall seconds, per-op records), each
    record holding the op, its CPU and wall seconds and its result.  The package runs on this one
    thread, does no blocking I/O beyond page-cache writes and never
    sleeps, so CPU time is its whole cost; wall time adds the time the
    shared host gives the core to other work.
    """
    pass_cpu, pass_wall, records = [], [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(records) < min_samples or not pass_cpu):
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        for i, op in enumerate(workload_ops):
            if tracer is not None:
                tracer.op_index += 1
            t0, w0 = time.process_time(), time.perf_counter()
            result = op.run(os.path.join(scratch, f"op{i}"))
            records.append((op, time.process_time() - t0,
                            time.perf_counter() - w0, result))
        pass_cpu.append(time.process_time() - cpu_start)
        pass_wall.append(time.perf_counter() - wall_start)
    return pass_cpu, pass_wall, records


def traced_passes(workload_ops, scratch, seconds, spans_path):
    """Untraced and traced passes in turn until ``seconds`` have passed."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, records = [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not traced:
        untraced += run_passes(workload_ops, scratch, 0.0, 0)[1]
        uninstall = tracing.install(tracer)
        try:
            _, pass_seconds, pass_records = run_passes(
                workload_ops, scratch, 0.0, 0, tracer)
        finally:
            uninstall()
        traced += pass_seconds
        records += pass_records
    tracer.save(spans_path)
    untraced_wall, traced_wall = statistics.median(untraced), statistics.median(traced)
    layer = tracer.summary(len(workload_ops), len(traced))
    layer["quadrature.mc_integral.degenerate_frac"] = (
        layer.get("quadrature.mc_integral.degenerate", 0.0)
        / max(layer.get("quadrature.mc_integral.samples", 0.0), 1.0))
    layer["minimax.min_over_t.nonfinite_frac"] = (
        layer.get("minimax.min_over_t.nonfinite", 0.0)
        / max(layer.get("minimax.min_over_t.calls", 0.0), 1.0))
    gaps = [r.gap for *_, r in records if not math.isnan(r.gap)]
    layer["minimax.max_gap"] = max(gaps, default=0.0)
    layer["cli.bytes_out"] = sum(r.bytes_out for *_, r in records) / len(traced)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.spans"] = len(tracer.start) / len(traced)
    doc = {"layers": layer, "untraced_wall_s": untraced_wall,
           "traced_wall_s": traced_wall, "untraced_passes": len(untraced)}
    return traced, records, doc


def outcome_summary(records, n_ops):
    failures = {}
    for op, *_, result in records:
        if result.outcome != op.expected:
            failures.setdefault(op.id, {
                "op": op.id, "expected": op.expected, "outcome": result.outcome,
                "error": result.error, "known": op.known_failure, "count": 0,
            })["count"] += 1
    classes = {}
    for *_, result in records[:n_ops]:
        classes[result.outcome] = classes.get(result.outcome, 0) + 1
    failed = sum(f["count"] for f in failures.values())
    oracle_z = [r.z for *_, r in records[:n_ops] if not math.isnan(r.z)]
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": all(f["known"] for f in failures.values()),
        "failures": sorted(failures.values(), key=lambda f: f["op"]),
        "outcomes_per_pass": classes,
        "oracle_rows": len(oracle_z),
        "oracle_max_abs_z": max((abs(z) for z in oracle_z), default=None),
    }


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, so a gap between clusters of op costs at the quantile
    does not make the estimate jump from run to run."""
    x = np.sort(values)
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def untraced_metrics(pass_cpu, pass_wall, records):
    """End-to-end metrics of the untraced passes.

    The host's speed shifts by a fifth for seconds to minutes at a time.
    A low quantile of the pooled samples follows the fastest of those
    spells wherever one covers part of the run, so the per-pass and the
    typical-op figures are means over the passes, which shift in
    proportion to the time spent slow; the tail stays a pooled quantile.
    """
    times = [dt for _, dt, _, _ in records]
    walls = [wall for _, _, wall, _ in records]
    per_op = {}
    for op, dt, _, _ in records:
        per_op.setdefault(op.id, []).append(dt)
    p50 = harrell_davis([statistics.fmean(v) for v in per_op.values()], 0.5)
    p90 = harrell_davis(times, 0.9)
    err2 = [
        (r.quotient_err / abs(r.quotient)) ** 2 * dt
        for op, dt, _, r in records
        if op.kind == "verify" and r.outcome == op.expected == "ok"
    ]
    metrics = {
        "pass_cpu_s": (statistics.fmean(pass_cpu), "s", len(pass_cpu)),
        "wall_s": (statistics.median(pass_wall), "s", len(pass_wall)),
        "op_cpu_p50_s": (p50, "s", len(times)),
        "op_cpu_p90_s": (p90, "s", len(times)),
        "op_p50_s": (harrell_davis(walls, 0.5), "s", len(walls)),
        "op_p90_s": (harrell_davis(walls, 0.9), "s", len(walls)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if err2:
        metrics["err2_s"] = (statistics.median(err2), "s", len(err2))
    by_kind = {}
    for op, dt, _, _ in records:
        by_kind.setdefault(op.id.split("/")[0], []).append(dt)
    return metrics, {k: (statistics.median(v), len(v)) for k, v in by_kind.items()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--scratch-root", required=True)
    args = parser.parse_args(argv)

    workload_ops = ops.build(args.workload, args.seed)
    os.makedirs(args.scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=args.scratch_root)
    try:
        workload_ops[0].run(os.path.join(scratch, "warmup"))
        if args.probe:
            return 0
        for op in workload_ops:
            op.prepare()
        n_ops = len(workload_ops)
        if args.trace:
            spans_path = os.path.join(
                args.scratch_root, f"spans-{args.workload}-seed{args.seed}.npz")
            pass_seconds, records, doc = traced_passes(
                workload_ops, scratch, args.seconds, spans_path)
        else:
            pass_seconds, pass_wall, records = run_passes(
                workload_ops, scratch, args.seconds, MIN_OP_SAMPLES)
            metrics, by_kind = untraced_metrics(pass_seconds, pass_wall, records)
            doc = {"metrics": metrics, "op_median_by_kind": by_kind}
        doc["passes"] = len(pass_seconds)
        doc["ops_per_pass"] = n_ops
        doc.update(outcome_summary(records, n_ops))
        doc["failed_frac"] = doc["failed"] / doc["attempted"]
        doc["versions"] = versions()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def versions():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "symhardy": symhardy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
