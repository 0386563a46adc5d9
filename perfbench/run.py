"""symhardy benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 20 --trace 0

Workloads (see ``ops.py``):
  mc_verify     32 Monte Carlo ``verify`` ops; time sits in the sampler,
                the trial derivatives and the Vandermonde gradient.
  radial_sweep  36 ``sharpness`` ops and 8 ``verify --method product`` ops;
                scalar ``quad`` callbacks and per-radius sphere loops.
  certificate   54 ``minimax`` solves, 24 pointwise certificate checks
                through ``fields`` and one ``constants`` table; scalar work
                bound by per-call overhead, quadrature idle.

This launcher pins the BLAS and OpenMP thread counts to 1, runs the
workload in a fresh interpreter (``worker.py``), times set-up as the
median CPU seconds of several fresh interpreters that import
``symhardy.cli`` and run the workload's warm-up op, prints a
human-readable report, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, each as ``BENCHMARK.json`` lists
them.  It writes only under
``.perfbench/`` in the repository root and exits 2 without a result when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def pinned_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def worker(args, env, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scratch-root", str(SCRATCH), *extra]
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def children_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(args, env):
    """Fresh interpreter start through import and warm-up op, per probe:
    (CPU seconds of the probe process, wall seconds)."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        cpu_start, wall_start = children_cpu_seconds(), time.perf_counter()
        worker(args, env, ["--probe"], PROBE_TIMEOUT_S)
        wall.append(time.perf_counter() - wall_start)
        cpu.append(children_cpu_seconds() - cpu_start)
    return cpu, wall


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def src_lines():
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def header(args, doc):
    v = doc["versions"]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    return [
        f"symhardy benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"  python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
        f"symhardy {v['symhardy']}",
        f"  nproc {affinity} (cpu_count {os.cpu_count()})  "
        f"commit {git_commit()}  src lines {src_lines()}",
        "  pinned to 1: " + " ".join(THREAD_VARS),
    ]


def outcome_lines(doc):
    lines = [
        f"  ops: {doc['ops_per_pass']} per pass x {doc['passes']} passes = "
        f"{doc['attempted']} attempted, {doc['failed']} failed "
        f"(failed_frac {doc['failed_frac']:.4f})",
        "  outcomes per pass: " + ", ".join(
            f"{k} {n}" for k, n in sorted(doc["outcomes_per_pass"].items())),
    ]
    if doc["oracle_rows"]:
        lines.append(f"  exact-oracle rows {doc['oracle_rows']}, "
                     f"max |z| {doc['oracle_max_abs_z']:.2f}")
    for f in doc["failures"]:
        lines.append(
            f"  FAILED {f['op']}: expected {f['expected']}, got {f['outcome']}"
            f" {f['error']!r} in {f['count']} of {doc['passes']} passes"
            + ("  [known seed failure]" if f["known"] else "  [NEW]"))
    return lines


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symhardy" / "cli.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    try:
        run = worker(args, env, ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], WORKER_TIMEOUT_S)
        doc = json.loads(run.stdout.splitlines()[-1])
        setup, setup_wall = ([], []) if args.trace else setup_seconds(args, env)
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited {exc.returncode}\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker timed out after {exc.timeout} s", file=sys.stderr)
        return 1

    lines = header(args, doc)
    metrics = {}
    if args.trace:
        layers = doc["layers"]
        lines.append(f"  passes {doc['passes']} traced, {doc['untraced_passes']} "
                     f"untraced: wall_s traced "
                     f"{doc['traced_wall_s']:.4f} s, untraced "
                     f"{doc['untraced_wall_s']:.4f} s, overhead "
                     f"{layers['trace.overhead_s']:.4f} s; "
                     f"{layers['trace.spans']:.0f} spans per pass")
        lines.append("  per-layer metrics (per pass, median over passes):")
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = float(layers.get(name, 0.0))  # 0 where the layer is idle
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"    {name:<42} {value:>14.6g} {unit}")
    else:
        measured = dict(doc["metrics"])
        measured["setup_s"] = (statistics.median(setup), "s", len(setup))
        measured["setup_wall_s"] = (
            statistics.median(setup_wall), "s", len(setup_wall))
        lines.append("  end-to-end metrics:")
        for name, (value, unit, n) in measured.items():
            lines.append(f"    {name:<12} {value:>14.6g} {unit:<3} n={n}")
        lines.append(f"    {'failed_frac':<12} {doc['failed_frac']:>14.6g} 1   "
                     f"n={doc['attempted']}")
        lines.append("  op median CPU seconds by kind: " + ", ".join(
            f"{kind} {sec:.4f} (n={n})"
            for kind, (sec, n) in doc["op_median_by_kind"].items()))
        # Gated timings are CPU seconds: on a shared host, wall time adds
        # whatever the neighbours take from the core, which made wall-clock
        # medians spread by a quarter between runs of the same code.
        # wall_s, op_p50_s, op_p90_s and setup_wall_s are printed for
        # reference.  err2_s and failed_frac are printed but not gated:
        # err2_s is undefined on certificate and failed_frac is 0 on two
        # workloads.
        for metric in spec["end_to_end"]:
            value, unit, _ = measured[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": unit}
    lines += outcome_lines(doc)
    print("\n".join(lines))
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
