"""The benchmark's workloads: seeded inputs, one unit of fixed work, checks.

Each workload has a ``setup`` that builds its inputs from the seed (zoo
families, Green evaluators, seeded points) and a ``unit`` that runs the
fixed work once against the public API of ``p2dyn`` and checks every output
against a reference band taken from the test suite or the zoo references.
A unit is a list of operations; an operation fails when it raises a
``P2DynError`` or its output falls outside its band, and an operation whose
input could not be produced fails with it.  Layer functions are always
looked up on their module at call time, so the traced run sees every call.

Why these three workloads:

* ``walk`` is the preimage and backward-walker path (``preimages``,
  ``sampler``, ``frames``); it never calls ``green``.
* ``grid`` is the deep, large-batch sup-norm Green evaluation behind the
  slice grids (``projective``, ``green``, ``slices``); it never calls
  ``preimages``.
* ``certify`` runs the same evaluation kernel shallow and 2-norm over three
  whole chart cubes plus Hessian stencils; it carries the memory load.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

LAYERS = ("errors", "projective", "preimages", "sampler", "frames", "green",
          "slices", "zoo")

#: fixed work per unit.  ``full`` is what the benchmark measures; ``smoke``
#: is a toy configuration for the benchmark's own tests.
SIZES = {
    "full": {
        "walk": {"depth": 30, "count": 200, "n_iter": 500, "frames": 2,
                 "frame_depth": 30},
        "grid": {"degrees": (2, 3), "resolution": 32, "green_depth": 8,
                 "radii": 6},
        "certify": {"families": ("power2", "lattes_suspension"),
                    "pullbacks": 1, "resolution": 24},
    },
    "smoke": {
        "walk": {"depth": 20, "count": 12, "n_iter": 100, "frames": 1,
                 "frame_depth": 20},
        "grid": {"degrees": (2,), "resolution": 32, "green_depth": 2,
                 "radii": 6},
        "certify": {"families": ("power2", "lattes_suspension"),
                    "pullbacks": 1, "resolution": 8},
    },
}

#: band on both exponents: 2 % of the reference plus three of the
#: estimate's own standard errors, the tolerance of
#: tests/test_sampler.py::test_cross_validation_against_factor_birkhoff_oracles
#: (depth 30 x 200 walkers x 500 iterations on lattes_suspension).  The
#: estimate is random in the seed, so a band without its standard error
#: fails on a share of seeds whatever the program does.
LAMBDA_REL_BAND = 0.02
LAMBDA_STDERRS = 3.0
#: ball-mass slope band and clamped-mass share on torus grids
#: (tests/test_slices.py, TestEquilibriumGrids)
SLOPE_BAND = (2.9, 3.1)
CLAMP_SHARE = 1e-6
#: certificate band around d^n (tests/test_slices.py, TestMassCertificate)
CERTIFICATE_BAND = 0.2


@dataclass
class Op:
    """One checked operation of a unit."""

    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    """What one unit produced: checked operations, raw outputs, diagnostics.

    ``outputs`` holds every number a later run must reproduce exactly;
    ``diagnostics`` holds the result objects' own counters for the record.
    """

    ops: list[Op] = field(default_factory=list)
    outputs: dict[str, np.ndarray] = field(default_factory=dict)
    diagnostics: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.ops.append(Op(name, bool(ok), detail))


def import_layers() -> SimpleNamespace:
    """Import ``p2dyn`` and return its layer modules by name."""
    importlib.import_module("p2dyn")
    return SimpleNamespace(**{name: importlib.import_module("p2dyn." + name)
                              for name in LAYERS})


# ---------------------------------------------------------------------------
# walk: sample mu, exponents, frames
# ---------------------------------------------------------------------------

def setup_walk(m: SimpleNamespace, seed: int, size: dict) -> dict:
    return {"family": m.zoo.suspension_family(), "seed": seed, "size": size}


def unit_walk(m: SimpleNamespace, inp: dict) -> Outcome:
    size, seed = inp["size"], inp["seed"]
    family = inp["family"]
    f = family.map
    out = Outcome()
    frame_ops = ["frame[%d]" % k for k in range(size["frames"])]
    try:
        sample = m.sampler.sample_equilibrium(
            f, depth=size["depth"], count=size["count"], seed=seed)
    except m.errors.P2DynError as exc:
        out.check("sample_equilibrium", False, repr(exc))
        for name in ["lyapunov_exponents"] + frame_ops:
            out.check(name, False, "no sample")
        return out
    out.check("sample_equilibrium", True, "%d aborted walkers replaced"
              % sample.n_failures)
    out.outputs["sample"] = sample.array
    out.diagnostics.update(count=size["count"], n_failures=sample.n_failures)

    try:
        est = m.sampler.lyapunov_exponents(f, sample, size["n_iter"])
    except m.errors.P2DynError as exc:
        out.check("lyapunov_exponents", False, repr(exc))
    else:
        refs = (family.reference["lambda1"], family.reference["lambda2"])
        values = (est.lambda1, est.lambda2)
        stderrs = (est.stderr1, est.stderr2)
        errs = [abs(v / r - 1.0) for v, r in zip(values, refs)]
        bands = [LAMBDA_REL_BAND + LAMBDA_STDERRS * s / r
                 for s, r in zip(stderrs, refs)]
        ok = all(np.isfinite(b) and e < b for e, b in zip(errs, bands))
        out.check("lyapunov_exponents", ok,
                  "lambda1 %.6f rel err %.4f (band %.4f), lambda2 %.6f rel "
                  "err %.4f (band %.4f)" % (est.lambda1, errs[0], bands[0],
                                            est.lambda2, errs[1], bands[1]))
        out.outputs["exponents"] = np.array(
            [est.lambda1, est.lambda2, est.stderr1, est.stderr2])
        out.outputs["per_point"] = est.per_point
        out.diagnostics.update(
            n_truncated=est.n_truncated, n_discarded=est.n_discarded,
            contributing=int(est.per_point.shape[0]),
            lambda1_rel_err=errs[0], lambda2_rel_err=errs[1])

    for k, name in enumerate(frame_ops):
        rng = np.random.default_rng([seed, k])
        try:
            orbit = m.sampler.backward_orbit(f, sample.points[k],
                                             size["frame_depth"], rng)
            frame = m.frames.compute_frame(f, orbit)
            coords = m.frames.default_coordinates(f, frame)
        except m.errors.P2DynError as exc:
            out.check(name, False, repr(exc))
            continue
        out.check(name, True, "conditioning %.4g, domain radius %.4g"
                  % (frame.conditioning, coords.domain_radius))
        out.outputs[name] = np.concatenate(
            [frame.e1, frame.e2, [coords.domain_radius]])
    return out


# ---------------------------------------------------------------------------
# grid: slice grids and ball-mass slopes at exact torus points
# ---------------------------------------------------------------------------

def setup_grid(m: SimpleNamespace, seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for d in size["degrees"]:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=2)
        point = np.array([np.exp(1j * angles[0]), np.exp(1j * angles[1]),
                          1.0], dtype=np.complex128)
        family = m.zoo.power_family(d)
        evaluator = m.green.GreenEvaluator(family.map,
                                           depth=size["green_depth"])
        cases.append((family, point, evaluator))
    return {"cases": cases, "size": size}


def unit_grid(m: SimpleNamespace, inp: dict) -> Outcome:
    size = inp["size"]
    out = Outcome()
    slopes_dev, clamped, clamped_mass = [], [], []
    for family, point, evaluator in inp["cases"]:
        name = "grid[%s]" % family.name
        try:
            coords = m.slices.axis_chart(family.map, point)
            grid = m.slices.LocalGrid.from_coords(
                coords, resolution=size["resolution"])
            values = grid.sample_green(evaluator)
            radii = np.geomspace(3.0 * grid.spacing, 0.45 * grid.radius,
                                 size["radii"])
            centre = np.zeros(2, dtype=np.complex128)
            slopes, shares = [], []
            for direction in ("Z", "W"):
                measure = m.slices.slice_measure(values, grid, direction)
                masses = np.array([m.slices.ball_mass(measure, centre, r)
                                   for r in radii])
                slopes.append(float(np.polyfit(np.log(radii),
                                               np.log(masses), 1)[0]))
                shares.append(measure.clamped_mass / measure.total_mass)
                clamped_mass.append(measure.clamped_mass)
                out.outputs["%s.%s.masses" % (name, direction)] = masses
        except m.errors.P2DynError as exc:
            out.check(name, False, repr(exc))
            continue
        lo, hi = SLOPE_BAND
        ok = all(lo < s < hi for s in slopes) and max(shares) < CLAMP_SHARE
        out.check(name, ok, "slopes Z %.4f W %.4f (band %g-%g), clamped "
                  "share %.3g (< %g)" % (slopes[0], slopes[1], lo, hi,
                                         max(shares), CLAMP_SHARE))
        slopes_dev += [abs(s - 3.0) for s in slopes]
        clamped += shares
    if slopes_dev:
        out.diagnostics.update(slope_max_dev=max(slopes_dev),
                               clamped_ratio=max(clamped),
                               clamped_mass=max(clamped_mass))
    return out


# ---------------------------------------------------------------------------
# certify: global mass certificates
# ---------------------------------------------------------------------------

def _phase_conjugate(m: SimpleNamespace, f, phases: np.ndarray):
    """``D^-1 f D`` for ``D = diag(phases, 1)``: a unitary change of
    coordinates, so the certificate's exact value ``d^n`` is unchanged."""
    scale = np.append(phases, 1.0)
    tables = []
    for comp, table in enumerate(f.tables):
        tables.append({exps: complex(c) * np.prod(scale ** np.array(exps))
                       / scale[comp] for exps, c in table.items()})
    return m.projective.HomogeneousMap(tables, name=f.name)


def setup_certify(m: SimpleNamespace, seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    maps = []
    for name in size["families"]:
        family = m.zoo.family_by_name(name)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
        maps.append(_phase_conjugate(m, family.map, phases))
    return {"maps": maps, "size": size}


def unit_certify(m: SimpleNamespace, inp: dict) -> Outcome:
    size = inp["size"]
    n = size["pullbacks"]
    out = Outcome()
    errs, residuals = [], []
    for f in inp["maps"]:
        name = "certificate[%s]" % f.name
        expected = float(f.degree ** n)
        try:
            cert = m.slices.mass_certificate(f, n,
                                             resolution=size["resolution"])
        except m.errors.P2DynError as exc:
            out.check(name, False, repr(exc))
            continue
        ok = abs(cert.value - expected) <= CERTIFICATE_BAND \
            and not cert.inconclusive
        out.check(name, ok, "value %.6f (expected %g +- %g), residual %.4g%s"
                  % (cert.value, expected, CERTIFICATE_BAND, cert.residual,
                     ", inconclusive" if cert.inconclusive else ""))
        out.outputs[name] = np.array([cert.value, cert.coarse_value])
        errs.append(abs(cert.value / expected - 1.0))
        residuals.append(cert.residual)
    if errs:
        out.diagnostics.update(certificate_rel_err=max(errs),
                               certificate_residual=max(residuals))
    return out


WORKLOADS = {
    "walk": (setup_walk, unit_walk),
    "grid": (setup_grid, unit_grid),
    "certify": (setup_certify, unit_certify),
}

#: calibration kernel of each workload (see ``calibrate.py``): ``walk``
#: spends its time in thousands of numpy calls on a few rows each, ``grid``
#: and ``certify`` in calls on large arrays
KERNELS = {"walk": "calls", "grid": "array", "certify": "array"}
