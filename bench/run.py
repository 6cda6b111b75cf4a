"""Benchmark of p2dyn: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 bench/run.py --workload walk --seed 0 --seconds 30 --trace 0

Each run starts fresh worker processes one after another (no two at once,
BLAS pinned to one thread): with ``--trace 0`` first a few that only set up,
whose median is ``setup_s``, then one that also measures.  Times are
calibrated CPU times (see ``calibrate.py``).  Every metric is
printed by name with its unit, failed checks are printed with their values,
a JSON run record is written to ``.bench_runs/``, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
RECORDS = ROOT / ".bench_runs"

#: set-up-only worker processes per untraced run
SETUP_PROBES = {"full": 5, "smoke": 1}
#: one BLAS/OpenMP thread: a single-threaded run, steady on a shared host
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: wall-clock limit of a whole run; workers still running then are killed
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its last line."""
    cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd + extra, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic(),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def end_to_end_metrics(result: dict, probes: list[dict]) -> dict:
    return {"run_s": median(result["unit_s"]),
            "setup_s": median([p["setup_s"] for p in probes + [result]]),
            "peak_rss_mb": result["peak_rss_mb"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full",
                        choices=list(workloads.SIZES),
                        help="'smoke' runs toy sizes for the benchmark's "
                             "own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "p2dyn" / "__init__.py").is_file():
        print("error: no p2dyn sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = [] if args.trace else [
            run_worker(args, ["--setup-only"], deadline)
            for _ in range(SETUP_PROBES[args.size])]
        result = run_worker(args, [], deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end_metrics(result, probes), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print("workload %s  seed %d  size %s  trace %d  units %d untraced, %d "
          "traced" % (args.workload, args.seed, args.size, args.trace,
                      len(result["unit_s"]), len(result["traced_unit_s"])))
    for op in failed:
        print("  FAILED %s: %s" % (op["name"], op["detail"]))
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print("  %-*s %.6g %s" % (width, name, metric["value"],
                                  metric["unit"]))
    fail_ratio = len(failed) / len(ops)
    print("  %-*s %.6g 1 (%d of %d operations)"
          % (width, "fail_ratio", fail_ratio, len(failed), len(ops)))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "unit_sizes": result["sizes"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **result["environment"],
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        **{key: [p[key] for p in probes + [result]]
           for key in ("setup_s", "setup_cpu_s", "setup_wall_s")},
        "unit_s": result["unit_s"],
        "unit_cpu_s": result["unit_cpu_s"],
        "unit_wall_s": result["unit_wall_s"],
        "traced_unit_s": result["traced_unit_s"],
        "traced_unit_cpu_s": result["traced_unit_cpu_s"],
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": fail_ratio,
        "failures": failed,
        "operations": ops,
        "diagnostics": result["diagnostics"],
        "metrics": metrics,
        "spans": result.get("spans", []),
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("  record %s" % path.relative_to(ROOT))

    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
