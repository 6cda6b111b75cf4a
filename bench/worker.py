"""One benchmark worker: a fresh process that sets up and runs one workload.

Run as ``python -m bench.worker`` from the repository root (``run.py`` does
this).  numpy is imported before the clock starts, so ``setup_s`` covers
``import p2dyn`` plus building the workload's inputs.  After set-up the
worker repeats the workload's unit of fixed work until ``--seconds`` would
be exceeded (at least once) and prints one JSON object as its last line.

Every time is CPU time of the worker's only thread, rescaled to the
reference host speed by the workload's calibration kernel, timed before and
after it and every half second of CPU time during a unit (see
``calibrate.py``); the raw CPU and wall times are reported too.

With ``--trace 1`` untraced and traced units alternate, starting untraced;
the traced ones give the per-layer metrics and the difference of the two
medians is the tracing overhead.  Every unit after the first must reproduce
the first unit's outputs bit for bit, traced or not.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, thread_time

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import calibrate, trace, workloads  # noqa: E402

#: calibration kernel calls around set-up and between units
SETUP_CALLS = 20
UNIT_CALLS = 100


def _same_outputs(first: dict, later: dict) -> bool:
    return first.keys() == later.keys() and all(
        np.array_equal(first[key], later[key], equal_nan=True)
        for key in first)


def measure(m, unit, inputs, probe: calibrate.Probe, seconds: float,
            traced: bool) -> dict:
    """Run units for ``seconds``; return timings, operations, the tracer.

    ``plain`` and ``traced`` hold the calibrated times of untraced and
    traced units, ``cpu`` and ``wall`` the raw times of all units in order.
    """
    tracer = trace.Tracer(m.errors.P2DynError, probe.clock) \
        if traced else None
    times = {"plain": [], "traced": [], "cpu": [], "wall": [],
             "traced_cpu": []}
    ops: list[workloads.Op] = []
    first = None
    diagnostics: dict = {}
    start = perf_counter()
    before = probe.kernel_s(UNIT_CALLS)
    while True:
        use_trace = traced and len(times["traced"]) < len(times["plain"])
        t0, c0 = perf_counter(), probe.clock()
        with probe.sampling(before):
            if use_trace:
                with trace.installed(tracer):
                    outcome = unit(m, inputs)
            else:
                outcome = unit(m, inputs)
        cpu, wall = probe.clock() - c0, perf_counter() - t0
        after = probe.kernel_s(UNIT_CALLS)
        times["traced" if use_trace else "plain"].append(
            probe.scale(cpu, probe.samples + [after]))
        if use_trace:
            times["traced_cpu"].append(cpu)
        times["cpu"].append(cpu)
        times["wall"].append(wall)
        before = after
        if first is None:
            first = outcome.outputs
        else:
            outcome.check("repeat", _same_outputs(first, outcome.outputs),
                          "unit %d reproduces the first unit's outputs"
                          % len(times["cpu"]))
        ops.extend(outcome.ops)
        diagnostics = outcome.diagnostics
        elapsed = perf_counter() - start
        have_all = bool(times["traced"]) or not traced
        if have_all and elapsed + median(times["wall"]) > seconds:
            break
    return {"times": times, "ops": ops, "diagnostics": diagnostics,
            "tracer": tracer}


def layer_metrics(tracer: trace.Tracer, diag: dict, size: dict,
                  times: dict) -> dict:
    """Per-layer metrics per traced unit (0 where a layer is not called).

    Span times are raw CPU times; they are rescaled with the traced units'
    calibration like the unit times themselves.
    """
    n = len(times["traced"])
    speed = sum(times["traced"]) / sum(times["traced_cpu"])
    spans = tracer.by_name()

    def span(name: str, key: str) -> float:
        value = float(spans.get(name, {}).get(key, 0.0))
        return value * speed if key.endswith("_s") else value

    def per_unit(name: str, key: str) -> float:
        return span(name, key) / n

    def rate(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    pb, ev, er = ("preimages.preimage_batch", "projective.evaluate",
                  "green.escape_rate")
    sample_root = "sampler.sample_equilibrium"
    count = diag.get("count", 0)
    # level-synchronous steps of all walkers plus replacement walks; the
    # targets solved under sample_equilibrium include the replacements'
    walker_steps = count * size.get("depth", 0) * n + tracer.under(
        sample_root, "sampler.backward_orbit").get("steps", 0)
    solved = tracer.under(sample_root, pb).get("targets", 0)
    self_total = sum(s["self_s"] for s in spans.values())
    traced, plain = times["traced"], times["plain"]
    metrics = {
        pb + ".calls": per_unit(pb, "calls"),
        pb + ".targets": per_unit(pb, "targets"),
        pb + ".self_s": per_unit(pb, "self_s"),
        pb + ".ms_per_target": rate(span(pb, "total_s"),
                                    span(pb, "targets"), 1e3),
        pb + ".failed": per_unit(pb, "failed"),
        "sampler.sample_equilibrium.self_s": per_unit(sample_root, "self_s"),
        "sampler.walker_steps": walker_steps / n,
        "sampler.solve_ratio": rate(solved, walker_steps),
        "sampler.aborted_ratio": rate(diag.get("n_failures", 0), count),
        "sampler.censored_ratio": rate(diag.get("n_truncated", 0), count),
        "sampler.contributing_ratio": rate(diag.get("contributing", 0),
                                           count),
        "sampler.lambda1_rel_err": diag.get("lambda1_rel_err", 0.0),
        "sampler.lambda2_rel_err": diag.get("lambda2_rel_err", 0.0),
        "sampler.lyapunov_exponents.self_s":
            per_unit("sampler.lyapunov_exponents", "self_s"),
        "sampler.backward_orbit.self_s":
            per_unit("sampler.backward_orbit", "self_s"),
        "frames.compute_frame.self_s":
            per_unit("frames.compute_frame", "self_s"),
        "frames.default_coordinates.self_s":
            per_unit("frames.default_coordinates", "self_s"),
        ev + ".calls": per_unit(ev, "calls"),
        ev + ".points": per_unit(ev, "points"),
        ev + ".self_s": per_unit(ev, "self_s"),
        ev + ".ns_per_point": rate(span(ev, "self_s"), span(ev, "points"),
                                   1e9),
        "projective.jacobian.points": per_unit("projective.jacobian",
                                               "points"),
        "projective.jacobian.self_s": per_unit("projective.jacobian",
                                               "self_s"),
        "projective.injectivity_radius.self_s":
            per_unit("projective.injectivity_radius", "self_s"),
        er + ".point_steps": per_unit(er, "point_steps"),
        er + ".self_s": per_unit(er, "self_s"),
        er + ".ns_per_point_step": rate(span(er, "total_s"),
                                        span(er, "point_steps"), 1e9),
        "slices.sample_green.nodes": per_unit("slices.sample_green", "nodes"),
        "slices.sample_green.self_s": per_unit("slices.sample_green",
                                               "self_s"),
        "slices.slice_measure.self_s": per_unit("slices.slice_measure",
                                                "self_s"),
        "slices.ball_mass.calls": per_unit("slices.ball_mass", "calls"),
        "slices.ball_mass.self_s": per_unit("slices.ball_mass", "self_s"),
        "slices.clamped_ratio": diag.get("clamped_ratio", 0.0),
        "slices.slope_max_dev": diag.get("slope_max_dev", 0.0),
        "slices.mass_certificate.self_s":
            per_unit("slices.mass_certificate", "self_s"),
        "slices.certificate_rel_err": diag.get("certificate_rel_err", 0.0),
        "slices.certificate_residual": diag.get("certificate_residual", 0.0),
        "trace.run_s": median(traced),
        "trace.overhead_s": median(traced) - median(plain),
        "trace.named_share": self_total / sum(times["traced_cpu"]),
    }
    return {key: float(value) for key, value in metrics.items()}


def environment() -> dict:
    """Library versions; scipy is read from its metadata, not imported."""
    from importlib import metadata
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"numpy": np.__version__, "scipy": scipy_version,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full",
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, unit = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    probe = calibrate.Probe(workloads.KERNELS[args.workload])
    before = probe.kernel_s(SETUP_CALLS)
    t0, c0 = perf_counter(), thread_time()
    m = workloads.import_layers()
    inputs = setup(m, args.seed, size)
    setup_cpu, setup_wall = thread_time() - c0, perf_counter() - t0
    setup = {"setup_s": probe.scale(setup_cpu,
                                    [before, probe.kernel_s(SETUP_CALLS)]),
             "setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = measure(m, unit, inputs, probe, args.seconds, bool(args.trace))
    times = run["times"]
    result = {
        "sizes": size,
        **setup,
        "unit_s": times["plain"],
        "traced_unit_s": times["traced"],
        "traced_unit_cpu_s": times["traced_cpu"],
        "unit_cpu_s": times["cpu"],
        "unit_wall_s": times["wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": [vars(op) for op in run["ops"]],
        "diagnostics": run["diagnostics"],
        "environment": environment(),
    }
    if args.trace:
        tracer = run["tracer"]
        result["layers"] = layer_metrics(tracer, run["diagnostics"], size,
                                         times)
        result["spans"] = tracer.tree()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
