"""Span tracing of p2dyn's layers from outside the library.

The traced run wraps public functions of the layer modules in place and
restores them afterwards.  Every wrapped call is a span: spans form a stack
(the innermost open span is the parent of the next one), and a span's self
time is its duration minus the durations of its direct children.  Spans are
aggregated in memory by ``(root, name)``, where ``root`` is the outermost
open span when the call started, so a count can be attributed to the entry
point that caused it (for example the preimage targets solved inside
``sample_equilibrium`` as opposed to inside ``backward_orbit``).

Durations are CPU time of the calling thread, like the benchmark's unit
times (the worker runs everything in one thread), read from the clock the
tracer is given; the worker's clock leaves out its calibration samples.  Counts come from
argument shapes only; nothing inside ``p2dyn`` is asked for them.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import thread_time

import numpy as np


def _rows(array) -> int:
    """Number of points in an ``(N, 3)`` or ``(N, 2)`` array, 1 for a row."""
    shape = np.shape(array)
    return 1 if len(shape) <= 1 else int(shape[0])


def _method_points(args, kwargs):
    return {"points": _rows(args[1] if len(args) > 1 else kwargs["points"])}


def _preimage_targets(args, kwargs):
    return {"targets": _rows(args[1] if len(args) > 1 else kwargs["targets"])}


def _escape_point_steps(args, kwargs):
    ev = args[0] if args else kwargs["ev"]
    lifts = args[1] if len(args) > 1 else kwargs["lifts"]
    depth = args[2] if len(args) > 2 else kwargs.get("depth")
    steps = ev.depth if depth is None else depth
    return {"point_steps": _rows(lifts) * int(steps)}


def _orbit_steps(args, kwargs):
    return {"steps": int(args[2] if len(args) > 2 else kwargs["depth"])}


def _grid_nodes(args, kwargs):
    return {"nodes": (args[0].resolution + 2) ** 4}


#: (span name, defining module, attribute, (modules binding it by name),
#: count function).  Functions that other modules import by name are wrapped
#: in each importer too, because the importer calls its own binding.
MODULE_SPANS = (
    ("preimages.preimage_batch", "preimages", "preimage_batch",
     ("preimages", "sampler", "frames"), _preimage_targets),
    ("green.escape_rate", "green", "escape_rate", ("green",),
     _escape_point_steps),
    ("projective.injectivity_radius", "projective", "injectivity_radius",
     ("frames",), None),
    ("sampler.sample_equilibrium", "sampler", "sample_equilibrium",
     ("sampler",), None),
    ("sampler.lyapunov_exponents", "sampler", "lyapunov_exponents",
     ("sampler",), None),
    ("sampler.backward_orbit", "sampler", "backward_orbit", ("sampler",),
     _orbit_steps),
    ("frames.compute_frame", "frames", "compute_frame", ("frames",), None),
    ("frames.default_coordinates", "frames", "default_coordinates",
     ("frames", "slices"), None),
    ("slices.axis_chart", "slices", "axis_chart", ("slices",), None),
    ("slices.slice_measure", "slices", "slice_measure", ("slices",), None),
    ("slices.ball_mass", "slices", "ball_mass", ("slices",), None),
    ("slices.mass_certificate", "slices", "mass_certificate", ("slices",),
     None),
)

#: (span name, module, class, method, count function)
METHOD_SPANS = (
    ("projective.evaluate", "projective", "HomogeneousMap", "evaluate_batch",
     _method_points),
    ("projective.evaluate", "projective", "HomogeneousMap",
     "evaluate_batch_safe", _method_points),
    ("projective.jacobian", "projective", "HomogeneousMap",
     "jacobian_h_batch", _method_points),
    ("slices.sample_green", "slices", "LocalGrid", "sample_green",
     _grid_nodes),
)


class SpanStats:
    """Aggregate of the spans sharing one ``(root, name)`` key."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.counts: dict[str, int] = defaultdict(int)

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "failed": self.failed,
                **self.counts}


class Tracer:
    """Span stack plus per-``(root, name)`` aggregates."""

    def __init__(self, failure_type: type[BaseException], clock=thread_time):
        self.failure_type = failure_type
        self.clock = clock
        self.stack: list[list] = []
        self.stats: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording one span per call."""
        stack = self.stack
        failure_type = self.failure_type
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = count(args, kwargs) if count is not None else None
            # frame: name, start, summed child durations
            frame = [name, clock(), 0.0]
            root = stack[0][0] if stack else name
            stack.append(frame)
            failed = False
            try:
                return fn(*args, **kwargs)
            except failure_type:
                failed = True
                raise
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                rec = self.stats[(root, name)]
                rec.calls += 1
                rec.total_s += duration
                rec.self_s += duration - frame[2]
                rec.failed += failed
                if counts:
                    for key, value in counts.items():
                        rec.counts[key] += value

        return traced

    def by_name(self) -> dict[str, dict]:
        """Aggregates summed over roots, keyed by span name."""
        out: dict[str, dict] = {}
        for (_, name), rec in self.stats.items():
            agg = out.setdefault(name, defaultdict(float))
            for key, value in rec.as_dict().items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}

    def under(self, root: str, name: str) -> dict:
        """Aggregate of ``name`` spans opened inside entry point ``root``."""
        rec = self.stats.get((root, name))
        return rec.as_dict() if rec is not None else SpanStats().as_dict()

    def tree(self) -> list[dict]:
        """JSON-ready ``(root, name)`` aggregates for the run record."""
        return [{"root": root, "name": name, **rec.as_dict()}
                for (root, name), rec in sorted(self.stats.items())]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block.

    Modules are fetched with :func:`importlib.import_module` because the
    package re-exports some functions under their module's name (the
    attribute ``p2dyn.preimages`` is the function, not the module).  Every
    replaced attribute is put back on exit, even when the block raises.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr, binders, count in MODULE_SPANS:
            original = getattr(importlib.import_module("p2dyn." + owner),
                               attr)
            wrapped = tracer.wrap(name, original, count)
            for binder in binders:
                module = importlib.import_module("p2dyn." + binder)
                if getattr(module, attr) is not original:
                    raise RuntimeError("p2dyn.%s.%s is not p2dyn.%s.%s"
                                       % (binder, attr, owner, attr))
                saved.append((module, attr, original))
                setattr(module, attr, wrapped)
        for name, owner, cls_name, attr, count in METHOD_SPANS:
            cls = getattr(importlib.import_module("p2dyn." + owner), cls_name)
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
