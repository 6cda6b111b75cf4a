"""Tests for directional slice measures, ball masses, and the mass certificate.

Independent oracles used here:

* quadratic calibration chain: with the unit-mass Fubini-Study
  normalization, wedging ``dd^c |W|^2`` against the Z-area form gives
  constant density ``2/pi`` with respect to 4-D Lebesgue measure, so the
  box total is ``(2/pi)(2 rho)^4`` and the Euclidean ball mass is exactly
  ``pi r^4`` (elementary integration, no dynamics);
* exact line measure: ``Delta_W log|W| = 2 pi delta_{W=0}``, so the
  Z-direction slice of the line current is exactly 2-D Lebesgue measure
  on the plane ``{W = 0}``: box total ``(2 rho)^2``, ball mass
  ``pi r^2``, log-log slope 2;
* cohomological wedge pairing: both certificate potentials are smooth
  2-norm escape rates, so the certificate integral equals ``degree^n``
  exactly for every truncation depth -- quadrature is the only error --
  and the depth-0 baseline is the Fubini-Study volume, exactly 1;
* double resolution: statistics of dynamical grids (slice totals, ball
  slopes, defect scale) are recomputed at m = 64 and must agree with the
  m = 32 values;
* support of the current: walker endpoints sample mu, which lies in the
  support of T, so grids centred there carry mass; the basin of the
  attracting point [0:0:1] lies off it, where G is pluriharmonic.
"""

import logging
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2dyn import green, slices
from p2dyn.errors import ResolutionError
from p2dyn.frames import compute_frame, default_coordinates
from p2dyn.green import GreenEvaluator, escape_rate, local_potential
from p2dyn.projective import CHART_OTHERS, HomogeneousPoint
from p2dyn.sampler import (
    GENERIC_START,
    backward_orbit,
    sample_equilibrium,
)
from p2dyn.slices import (
    CERTIFICATE_DEPTH,
    CERTIFICATE_RESOLUTION,
    DEFAULT_RADIUS_FRACTION,
    MASS_NORMALIZATION,
    POSITIVITY_SCALE,
    LocalGrid,
    axis_chart,
    ball_mass,
    calibration_defect,
    calibration_mass,
    harmonicity_defect,
    mass_certificate,
    slice_measure,
    trace_measure,
)
from p2dyn.zoo import lattes_suspension, power_map

POWER = power_map(2)
RHO = 1.0
H32 = 2.0 * RHO / 32
#: geometric radius schedule between the resolution floor and the box edge
RADII = np.geomspace(3.0 * H32, 0.45 * RHO, 6)
ORIGIN = np.zeros(2, dtype=np.complex128)
FLAT_BASE = np.array([0.2 + 0.1j, -0.3 + 0.05j, 1.0])
TORUS_POINT = np.array([np.exp(0.31j), np.exp(1.12j), 1.0])
BASIN_POINT = np.array([0.15 + 0.10j, 0.20 - 0.05j, 1.0])
BASIN_POINTS = np.array([[0.1 * k + 0.05j, 0.12 - 0.03j * k, 1.0]
                         for k in range(1, 4)])


def ball_slope(measure, radii=RADII):
    masses = np.array([ball_mass(measure, ORIGIN, r) for r in radii])
    return float(np.polyfit(np.log(radii), np.log(masses), 1)[0])


def quadratic_w(Z, W):
    return np.abs(W) ** 2


def quadratic_z(Z, W):
    return np.abs(Z) ** 2 + 0.0 * np.real(W)


def line_w(Z, W):
    # cell-centered nodes never hit W = 0, so the log stays finite
    return np.log(np.abs(W)) + 0.0 * np.real(Z)


def pluriharmonic(Z, W):
    return np.real(Z * W)


def carries_mass(evaluator, point):
    """(Z, W) verdicts: does the m = 32 axis-chart grid at ``point`` carry
    slice mass?  A total must beat ``POSITIVITY_SCALE`` times the
    calibration mass and eight times its own clamped mass: rounding noise
    has comparable positive and negative parts, a current does not.  One
    sampled grid serves both directions."""
    grid = LocalGrid.from_coords(axis_chart(POWER, point), resolution=32)
    values = grid.sample_green(evaluator)
    verdicts = []
    for direction in ("Z", "W"):
        measure = slice_measure(values, grid, direction,
                                clamp_budget=math.inf)
        floor = max(POSITIVITY_SCALE * calibration_mass(grid),
                    8.0 * measure.clamped_mass)
        verdicts.append(measure.total_mass > floor)
    return verdicts


@pytest.fixture(scope="module")
def flat_grid():
    coords = axis_chart(POWER, FLAT_BASE, domain_radius=2.5)
    return LocalGrid(coords=coords, resolution=32, radius=RHO)


@pytest.fixture(scope="module")
def flat_grid64(flat_grid):
    return LocalGrid(coords=flat_grid.coords, resolution=64, radius=RHO)


@pytest.fixture(scope="module")
def calibration_slice(flat_grid):
    return slice_measure(flat_grid.sample_scalar(quadratic_w),
                         flat_grid, "Z")


@pytest.fixture(scope="module")
def line_slice(flat_grid):
    return slice_measure(flat_grid.sample_scalar(line_w), flat_grid, "Z",
                         clamp_budget=0.10)


@pytest.fixture(scope="module")
def torus_evaluator():
    return GreenEvaluator(POWER, depth=8)


@pytest.fixture(scope="module")
def torus_grid32(torus_evaluator):
    coords = axis_chart(POWER, TORUS_POINT)
    grid = LocalGrid.from_coords(coords, resolution=32)
    return grid, grid.sample_green(torus_evaluator)


@pytest.fixture(scope="module")
def torus_grid64(torus_evaluator, torus_grid32):
    grid32, _ = torus_grid32
    grid = LocalGrid.from_coords(grid32.coords, resolution=64)
    return grid, grid.sample_green(torus_evaluator)


@pytest.fixture(scope="module")
def equilibrium_sample():
    return sample_equilibrium(POWER, depth=20, count=12, seed=7)


class TestLocalGrid:
    def test_geometry(self, flat_grid):
        assert flat_grid.spacing == pytest.approx(H32)
        nodes = flat_grid.axis_nodes(ghost=False)
        assert nodes.shape == (32,)
        assert nodes[0] == pytest.approx(-RHO + 0.5 * H32)
        assert nodes[-1] == pytest.approx(RHO - 0.5 * H32)
        ghosted = flat_grid.axis_nodes()
        assert ghosted.shape == (34,)
        assert ghosted[0] == pytest.approx(-RHO - 0.5 * H32)

    def test_from_coords_default_radius(self):
        coords = axis_chart(POWER, FLAT_BASE, domain_radius=2.5)
        grid = LocalGrid.from_coords(coords)
        assert grid.resolution == 32
        assert grid.radius == pytest.approx(
            DEFAULT_RADIUS_FRACTION * coords.domain_radius)

    def test_minimum_resolution(self, flat_grid):
        with pytest.raises(ValueError):
            LocalGrid(coords=flat_grid.coords, resolution=16, radius=0.5)
        with pytest.raises(ValueError):
            LocalGrid(coords=flat_grid.coords, resolution=32.5, radius=0.5)

    def test_domain_reach_guard(self, flat_grid):
        # ghosted box corners reach chart norm 2 (radius + h/2) > 2.5
        with pytest.raises(ResolutionError):
            LocalGrid(coords=flat_grid.coords, resolution=32, radius=1.3)

    def test_sample_scalar_nodes(self, flat_grid):
        values = flat_grid.sample_scalar(quadratic_w)
        assert values.shape == (34, 34, 34, 34)
        nodes = flat_grid.axis_nodes()
        assert values[0, 0, 5, 7] == pytest.approx(
            nodes[5] ** 2 + nodes[7] ** 2)

    def test_axis_chart_frame_is_isotropic(self):
        coords = axis_chart(POWER, TORUS_POINT)
        assert coords.frame.isotropic
        assert coords.frame.conditioning == pytest.approx(1.0)
        assert coords.domain_radius > 0


def explicit_potential(grid, evaluator):
    """``sample_green`` restated: ``local_potential`` at nodes built one
    Z-slab at a time, through the chart's own ``lift_batch``."""
    plane = (grid.axis_nodes()[:, None] + 1j * grid.axis_nodes()[None, :])
    n = plane.shape[0]
    out = np.empty((n,) * 4)
    for a in range(n):
        xi = np.empty((n, n, n, 2), dtype=np.complex128)
        xi[..., 0] = plane[a][:, None, None]
        xi[..., 1] = plane[None, :, :]
        out[a] = local_potential(evaluator, grid.coords, xi)
    return out


@pytest.fixture(scope="module")
def suspension_chart():
    """Dynamical frame chart of lattes_suspension: its frame matrix is
    not the identity, unlike an axis chart's."""
    susp = lattes_suspension()
    start = HomogeneousPoint(np.array(GENERIC_START))
    warm = backward_orbit(susp, start, 25, rng=np.random.default_rng(31))
    orbit = backward_orbit(susp, warm.points[-1], 20,
                           rng=np.random.default_rng(41))
    return susp, default_coordinates(susp, compute_frame(susp, orbit))


class TestGridSampling:
    def test_axis_chart_matches_local_potential(self, flat_grid):
        evaluator = GreenEvaluator(POWER, depth=4)
        assert np.array_equal(flat_grid.coords.frame.matrix, np.eye(2))
        got = flat_grid.sample_green(evaluator)
        want = explicit_potential(flat_grid, evaluator)
        assert np.max(np.abs(got - want)) <= 2e-15

    def test_frame_chart_matches_local_potential(self, suspension_chart):
        susp, coords = suspension_chart
        assert not np.allclose(coords.frame.matrix, np.eye(2))
        grid = LocalGrid.from_coords(coords, resolution=32)
        evaluator = GreenEvaluator(susp, depth=3)
        got = grid.sample_green(evaluator)
        want = explicit_potential(grid, evaluator)
        assert np.max(np.abs(got - want)) <= 2e-15

    def test_out_of_domain_nodes_raise(self, suspension_chart, flat_grid):
        susp, coords = suspension_chart
        evaluator = GreenEvaluator(susp, depth=3)
        outside = np.array([[1.0001 * coords.domain_radius, 0.0]])
        with pytest.raises(ResolutionError):
            local_potential(evaluator, coords, outside)
        # a grid whose corner node passes the domain radius by 5e-13 is
        # refused at construction, so it is never sampled
        domain = flat_grid.coords.domain_radius
        with pytest.raises(ResolutionError):
            LocalGrid(coords=flat_grid.coords, resolution=32,
                      radius=domain * (1 + 5e-13) / (2 * (1 + 1 / 32)))

    @settings(max_examples=10, deadline=None)
    @example(rel=5e-13)
    @given(rel=st.floats(-1e-12, 1e-12))
    def test_every_grid_that_constructs_samples(self, flat_grid, rel):
        # radii straddling the largest one whose ghost corner stays in the
        # chart domain: a grid is refused at construction (only past the
        # bound, up to rounding) or it samples
        domain = flat_grid.coords.domain_radius
        radius = domain * (1 + rel) / (2 * (1 + 1 / 32))
        try:
            grid = LocalGrid(coords=flat_grid.coords, resolution=32,
                             radius=radius)
        except ResolutionError:
            assert rel > -1e-14
            return
        values = grid.sample_green(GreenEvaluator(POWER, depth=1))
        assert np.all(np.isfinite(values))


def full_cube_ball_mass(sm, center, r):
    """``ball_mass`` over every cell of the grid, without the box."""
    grid = sm.grid
    h = grid.spacing
    cz, cw = np.asarray(center, dtype=np.complex128).reshape(2)
    parts = (cz.real, cz.imag, cw.real, cw.imag)
    ax = grid.axis_nodes(ghost=False)
    d2 = [np.square(ax - p) for p in parts]
    dist2 = (d2[0][:, None, None, None] + d2[1][None, :, None, None]
             + d2[2][None, None, :, None] + d2[3][None, None, None, :])
    inside = dist2 <= (r - h) ** 2
    shell = (dist2 < (r + h) ** 2) & ~inside
    total = float(sm.cell_mass[inside].sum())
    idx = np.nonzero(shell)
    if idx[0].size:
        offsets = np.array(list(product((-0.25 * h, 0.25 * h), repeat=4)))
        centers = np.stack([ax[idx[k]] - parts[k] for k in range(4)], axis=1)
        counts = np.zeros(idx[0].size, dtype=np.float64)
        for off in offsets:
            counts += (np.square(centers + off).sum(axis=1) <= r * r)
        total += float((counts / offsets.shape[0]
                        * sm.cell_mass[shell]).sum())
    return total


class TestBallMassBox:
    CENTERS = (
        (0.0, 0.0),
        (0.21 - 0.13j, -0.08 + 0.3j),
        (0.9 * RHO + 0.85j * RHO, -0.95 * RHO),   # ball cut by the box
    )

    @pytest.mark.parametrize("center", CENTERS)
    def test_equals_the_full_cube_rule(self, torus_grid32, center):
        grid, values = torus_grid32
        center = np.array(center, dtype=np.complex128) * grid.radius / RHO
        radii = np.geomspace(3.0 * grid.spacing, 1.5 * grid.radius, 7)
        for direction in ("Z", "W"):
            measure = slice_measure(values, grid, direction)
            for r in radii:
                assert ball_mass(measure, center, r) == \
                    full_cube_ball_mass(measure, center, r)


class TestCalibrationSlice:
    def test_cell_masses_constant_density(self, calibration_slice, flat_grid):
        expected = (2.0 / math.pi) * flat_grid.spacing ** 4
        assert np.allclose(calibration_slice.cell_mass, expected,
                           rtol=1e-10)

    def test_total_is_box_mass(self, calibration_slice, flat_grid):
        assert calibration_slice.total_mass == pytest.approx(
            calibration_mass(flat_grid), rel=1e-12)
        assert calibration_slice.clamped_mass == 0.0

    def test_ball_mass_oracle(self, calibration_slice):
        for r in RADII:
            mass = ball_mass(calibration_slice, ORIGIN, float(r))
            assert mass == pytest.approx(math.pi * r ** 4, rel=0.05)

    def test_mass_slope(self, calibration_slice):
        # measured 3.9746 at m = 32 on this schedule
        assert abs(ball_slope(calibration_slice) - 4.0) < 0.05

    def test_doubling_ratio(self, calibration_slice):
        ratio = (ball_mass(calibration_slice, ORIGIN, 0.42)
                 / ball_mass(calibration_slice, ORIGIN, 0.21))
        assert ratio == pytest.approx(16.0, rel=0.10)

    def test_covering_ball_is_total(self, calibration_slice):
        mass = ball_mass(calibration_slice, ORIGIN, 2.0 * RHO)
        assert mass == pytest.approx(calibration_slice.total_mass,
                                     rel=1e-12)

    def test_monotone_in_radius(self, calibration_slice):
        masses = [ball_mass(calibration_slice, ORIGIN, r) for r in RADII]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_small_radius_raises(self, calibration_slice, flat_grid):
        with pytest.raises(ResolutionError):
            ball_mass(calibration_slice, ORIGIN, 2.9 * flat_grid.spacing)

    def test_center_outside_grid_raises(self, calibration_slice):
        outside = np.array([RHO + 0.0j, 0.0j])
        with pytest.raises(ValueError):
            ball_mass(calibration_slice, outside, 0.3)

    @pytest.mark.parametrize("center", [[complex(np.nan, 0.0), 0.0j],
                                        [0.0j, complex(0.1, np.nan)],
                                        [complex(np.inf, 0.0), 0.0j]])
    def test_non_finite_center_raises(self, calibration_slice, center):
        # a NaN part passed the box check and left an empty axis run,
        # whose first index raised a bare IndexError
        with pytest.raises(ValueError, match="not finite"):
            ball_mass(calibration_slice, np.array(center), 0.3)

    def test_radius_nan_raises_and_inf_covers_the_box(self,
                                                      calibration_slice):
        with pytest.raises(ValueError, match="NaN"):
            ball_mass(calibration_slice, ORIGIN, math.nan)
        assert ball_mass(calibration_slice, ORIGIN, math.inf) == \
            pytest.approx(calibration_slice.total_mass, rel=1e-12)

    def test_transverse_free_potential_has_zero_slice(self, flat_grid):
        # |Z|^2 has no W-plane curvature: its Z-direction slice vanishes
        measure = slice_measure(flat_grid.sample_scalar(quadratic_z),
                                flat_grid, "Z")
        assert measure.total_mass == 0.0

    def test_pluriharmonic_slices_vanish(self, flat_grid):
        values = flat_grid.sample_scalar(pluriharmonic)
        for direction in ("Z", "W"):
            measure = slice_measure(values, flat_grid, direction)
            assert measure.total_mass < 1e-9
            assert harmonicity_defect(values, flat_grid, direction).max() \
                < 1e-8

    def test_superharmonic_budget_failure(self, flat_grid):
        values = -flat_grid.sample_scalar(quadratic_w)
        with pytest.raises(ResolutionError):
            slice_measure(values, flat_grid, "Z")

    def test_wrong_shape_raises(self, flat_grid):
        with pytest.raises(ValueError):
            slice_measure(np.zeros((33, 33, 33, 33)), flat_grid, "Z")

    def test_non_finite_potential_raises(self, flat_grid):
        # one NaN node made the masses and the total NaN, silently
        values = flat_grid.sample_scalar(quadratic_w)
        values[5, 6, 7, 8] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            slice_measure(values, flat_grid, "Z")

    @pytest.mark.parametrize("budget", [math.nan, -0.01, -math.inf])
    def test_nan_or_negative_budget_raises(self, flat_grid, budget):
        values = flat_grid.sample_scalar(quadratic_w)
        with pytest.raises(ValueError, match="clamp_budget"):
            slice_measure(values, flat_grid, "Z", clamp_budget=budget)

    def test_bad_direction_raises(self, flat_grid):
        values = flat_grid.sample_scalar(quadratic_w)
        with pytest.raises(ValueError):
            slice_measure(values, flat_grid, "trace")

    def test_quadratic_defect_is_four_times_area(self, flat_grid):
        values = flat_grid.sample_scalar(quadratic_w)
        defect = harmonicity_defect(values, flat_grid, "Z")
        assert defect.shape == (32, 32)
        # each slice integrates |Delta_W |W|^2| = 4 over the (2 rho)^2 box
        assert np.allclose(defect, calibration_defect(flat_grid),
                           rtol=0.02)


class TestLineCurrent:
    def test_default_budget_rejects_singular_column(self, flat_grid):
        # the discrete Laplacian of log|w| is ~7% negative next to the
        # singular column, beyond the 1% default budget
        with pytest.raises(ResolutionError):
            slice_measure(flat_grid.sample_scalar(line_w), flat_grid, "Z")

    def test_total_near_plane_area(self, line_slice):
        # exact line measure gives (2 rho)^2 = 4; clamping overshoots by
        # a measured +7.9%
        ratio = line_slice.total_mass / (2.0 * RHO) ** 2
        assert 1.0 < ratio < 1.12

    def test_clamp_fraction_measured(self, line_slice):
        fraction = line_slice.clamped_mass / line_slice.total_mass
        assert 0.03 < fraction < 0.10

    def test_clamped_cells_are_fields(self, line_slice, flat_grid, caplog):
        raw = slices._raw_stencil(flat_grid.sample_scalar(line_w), flat_grid,
                                  "Z") * (flat_grid.spacing ** 2
                                          * MASS_NORMALIZATION)
        below = raw[raw < 0.0]
        assert line_slice.n_clamped == below.size > 0
        assert line_slice.worst_clamped == -below.min()
        assert line_slice.clamped_mass == -below.sum()
        # the counts are on the result, so clamping logs no INFO line
        caplog.set_level(logging.INFO, logger="p2dyn.slices")
        slice_measure(flat_grid.sample_scalar(line_w), flat_grid, "Z",
                      clamp_budget=0.10)
        assert all(r.levelno >= logging.WARNING for r in caplog.records
                   if r.name == "p2dyn.slices")

    def test_clamped_line_slice_still_warns(self, flat_grid, caplog):
        # 3-10 % of the line slice's mass is clamped, its worst cell far
        # past both warning floors
        caplog.set_level(logging.WARNING, logger="p2dyn.slices")
        slice_measure(flat_grid.sample_scalar(line_w), flat_grid, "Z",
                      clamp_budget=0.10)
        assert [r for r in caplog.records if r.name == "p2dyn.slices"
                and r.levelno == logging.WARNING]

    def test_slab_concentration(self, line_slice, flat_grid):
        centers = flat_grid.axis_nodes(ghost=False)
        w_dist = np.hypot(centers[:, None], centers[None, :])
        slab = np.broadcast_to((w_dist < 2.0 * flat_grid.spacing)
                               [None, None, :, :],
                               line_slice.cell_mass.shape)
        fraction = line_slice.cell_mass[slab].sum() / line_slice.total_mass
        assert fraction > 0.9

    def test_off_plane_mass_negligible(self, line_slice, flat_grid):
        centers = flat_grid.axis_nodes(ghost=False)
        w_dist = np.hypot(centers[:, None], centers[None, :])
        far = np.broadcast_to((w_dist > 3.0 * flat_grid.spacing)
                              [None, None, :, :],
                              line_slice.cell_mass.shape)
        # stencil truncation residue beyond the column: measured 1.3% of
        # the total, largest far cell ~1e-3 of a column cell
        fraction = line_slice.cell_mass[far].sum() / line_slice.total_mass
        assert fraction < 0.02
        assert line_slice.cell_mass[far].max(initial=0.0) \
            < 0.01 * line_slice.cell_mass.max()

    def test_mass_slope(self, line_slice):
        # measured 2.0705 at m = 32 on this schedule
        assert abs(ball_slope(line_slice) - 2.0) < 0.1

    def test_ball_mass_oracle(self, line_slice):
        for r in RADII:
            mass = ball_mass(line_slice, ORIGIN, float(r))
            assert mass == pytest.approx(math.pi * r ** 2, rel=0.10)

    def test_longitudinal_direction_vanishes(self, flat_grid):
        # log|W| is Z-independent, so the W-direction stencil is exactly 0
        measure = slice_measure(flat_grid.sample_scalar(line_w),
                                flat_grid, "W")
        assert measure.total_mass == 0.0


class TestTraceMeasure:
    def test_smooth_trace_follows_minimum_rule(self, flat_grid):
        values = flat_grid.sample_scalar(
            lambda Z, W: np.abs(Z) ** 2 + np.abs(W) ** 2)
        z_part = slice_measure(values, flat_grid, "Z")
        w_part = slice_measure(values, flat_grid, "W")
        trace = trace_measure(z_part, w_part)
        assert trace.direction == "trace"
        assert trace.total_mass == pytest.approx(
            z_part.total_mass + w_part.total_mass, rel=1e-12)
        slope = ball_slope(trace)
        # both directions carry slope-4 mass and the trace keeps it
        assert abs(slope - 4.0) < 0.05
        assert slope >= 2.0 - 0.15

    def test_trace_pools_the_clamp_fields(self, line_slice, flat_grid):
        # the W slice of 2 log|Z| clamps the same cells twice as deep
        w_part = slice_measure(
            flat_grid.sample_scalar(lambda Z, W: 2.0 * line_w(W, Z)),
            flat_grid, "W", clamp_budget=0.10)
        trace = trace_measure(line_slice, w_part)
        assert trace.n_clamped == line_slice.n_clamped + w_part.n_clamped
        assert trace.worst_clamped == w_part.worst_clamped \
            > line_slice.worst_clamped
        assert trace.clamped_mass == line_slice.clamped_mass \
            + w_part.clamped_mass

    def test_line_trace_keeps_transverse_slope(self, line_slice, flat_grid):
        empty = slice_measure(flat_grid.sample_scalar(line_w),
                              flat_grid, "W")
        trace = trace_measure(line_slice, empty)
        assert trace.total_mass == pytest.approx(line_slice.total_mass,
                                                 rel=1e-12)
        slope = ball_slope(trace)
        assert abs(slope - 2.0) < 0.1
        assert slope >= 2.0 - 0.15

    def test_zero_plus_zero_is_zero(self, flat_grid):
        values = flat_grid.sample_scalar(pluriharmonic)
        trace = trace_measure(slice_measure(values, flat_grid, "Z"),
                              slice_measure(values, flat_grid, "W"))
        assert trace.total_mass < 1e-9

    def test_direction_validation(self, calibration_slice):
        with pytest.raises(ValueError):
            trace_measure(calibration_slice, calibration_slice)

    def test_grid_mismatch_raises(self, calibration_slice, flat_grid):
        other = LocalGrid(coords=flat_grid.coords, resolution=32,
                          radius=0.9)
        w_other = slice_measure(other.sample_scalar(quadratic_w), other,
                                "W")
        with pytest.raises(ValueError):
            trace_measure(calibration_slice, w_other)


class TestRefinementStability:
    def test_calibration_slope_stable(self, calibration_slice, flat_grid64):
        fine = slice_measure(flat_grid64.sample_scalar(quadratic_w),
                             flat_grid64, "Z")
        # measured 3.9746 (m=32) vs 4.0036 (m=64)
        assert abs(ball_slope(fine) - ball_slope(calibration_slice)) < 0.1

    def test_line_slope_stable(self, line_slice, flat_grid64):
        fine = slice_measure(flat_grid64.sample_scalar(line_w),
                             flat_grid64, "Z", clamp_budget=0.10)
        # measured 2.0705 (m=32) vs 2.0288 (m=64)
        assert abs(ball_slope(fine) - ball_slope(line_slice)) < 0.1


class TestEquilibriumGrids:
    def test_carries_mass_both_directions(self, torus_grid32):
        grid, values = torus_grid32
        for direction in ("Z", "W"):
            measure = slice_measure(values, grid, direction)
            assert measure.total_mass > 1e-8 * calibration_mass(grid)
            assert measure.clamped_mass < 1e-6 * measure.total_mass

    def test_defect_exceeds_floor(self, torus_grid32):
        grid, values = torus_grid32
        floor = 1e-8 * calibration_defect(grid)
        for direction in ("Z", "W"):
            defect = harmonicity_defect(values, grid, direction).max()
            assert defect > 100.0 * floor

    def test_slopes_in_measured_band(self, torus_grid32):
        grid, values = torus_grid32
        radii = np.geomspace(3.0 * grid.spacing, 0.45 * grid.radius, 6)
        trace = trace_measure(slice_measure(values, grid, "Z"),
                              slice_measure(values, grid, "W"))
        for measure in (slice_measure(values, grid, "Z"),
                        slice_measure(values, grid, "W"), trace):
            slope = ball_slope(measure, radii)
            # measured 3.004-3.015, stable under doubling the resolution
            assert 2.9 < slope < 3.1
            assert slope >= 2.0 - 0.15

    def test_double_resolution_totals(self, torus_grid32, torus_grid64):
        grid, values = torus_grid32
        fine_grid, fine_values = torus_grid64
        for direction in ("Z", "W"):
            coarse = slice_measure(values, grid, direction).total_mass
            fine = slice_measure(fine_values, fine_grid,
                                 direction).total_mass
            # measured ratios 0.9999 (Z) and 0.9998 (W)
            assert fine / coarse == pytest.approx(1.0, abs=0.01)

    def test_double_resolution_slopes(self, torus_grid32, torus_grid64):
        grid, values = torus_grid32
        fine_grid, fine_values = torus_grid64
        radii = np.geomspace(3.0 * grid.spacing, 0.45 * grid.radius, 6)
        for direction in ("Z", "W"):
            coarse = ball_slope(slice_measure(values, grid, direction),
                                radii)
            fine = ball_slope(slice_measure(fine_values, fine_grid,
                                            direction), radii)
            # measured drift < 0.004
            assert abs(fine - coarse) < 0.1

    def test_double_resolution_defect(self, torus_grid32, torus_grid64):
        grid, values = torus_grid32
        fine_grid, fine_values = torus_grid64
        for direction in ("Z", "W"):
            coarse = harmonicity_defect(values, grid, direction).max()
            fine = harmonicity_defect(fine_values, fine_grid,
                                      direction).max()
            # measured ratios 1.0000 (Z), 0.9961 (W)
            assert fine / coarse == pytest.approx(1.0, abs=0.1)

    def test_basin_grids_are_massless(self):
        evaluator = GreenEvaluator(POWER, depth=8)
        coords = axis_chart(POWER, BASIN_POINT, domain_radius=0.1)
        grid = LocalGrid.from_coords(coords, resolution=32)
        values = grid.sample_green(evaluator)
        floor = 1e-8 * calibration_mass(grid)
        for direction in ("Z", "W"):
            measure = slice_measure(values, grid, direction)
            # measured: 0.0 (Z) and 1.4e-9 of calibration (W)
            assert measure.total_mass < floor

    def test_walker_points_lie_in_the_support(self, equilibrium_sample):
        picks = np.sort(np.random.default_rng(0).choice(12, size=4,
                                                        replace=False))
        evaluator = GreenEvaluator(POWER, depth=6)
        # measured: totals 45-53 calibration masses, clamped < 1e-9 of them
        for point in equilibrium_sample.points[picks]:
            assert carries_mass(evaluator, point) == [True, True]

    def test_basin_points_lie_off_the_support(self):
        evaluator = GreenEvaluator(POWER, depth=6)
        # measured: totals 5.5e-9 to 1.6e-8 of calibration, each about
        # equal to its clamped mass, so the noise guard decides the first
        for point in BASIN_POINTS:
            assert carries_mass(evaluator, point) == [False, False]

    def test_basin_rounding_noise_logs_no_warning(self, caplog):
        # the basin grids' worst clamped cells read 2.3-2.6 eps S h^2 / 2 pi
        # (S = max(|potential|, 1)), below slice_measure's rounding floor
        # of 32 of those; NEGATIVITY_FLOOR times the largest cell is ~1e-34
        caplog.set_level(logging.WARNING, logger="p2dyn.slices")
        evaluator = GreenEvaluator(POWER, depth=6)
        for point in BASIN_POINTS:
            carries_mass(evaluator, point)
        assert not [r for r in caplog.records if r.name == "p2dyn.slices"]


class TestMassCertificate:
    def test_fubini_study_baseline(self):
        cert = mass_certificate(POWER, 0, green_depth=0, resolution=40)
        # depth 0 pairs the Fubini-Study form with itself: volume 1
        assert cert.value == pytest.approx(1.0, abs=0.05)
        assert not cert.inconclusive
        assert cert.pullbacks == 0
        assert cert.green_depth == 0
        assert cert.resolution == 40

    def test_power_map_unit_mass(self):
        cert = mass_certificate(POWER, 0)
        assert cert.green_depth == CERTIFICATE_DEPTH
        assert cert.resolution == CERTIFICATE_RESOLUTION
        # measured 0.99984, residual 0.0010
        assert cert.value == pytest.approx(1.0, abs=0.1)
        assert cert.residual < 0.1
        assert not cert.inconclusive

    def test_power_map_pullback_mass(self):
        cert = mass_certificate(POWER, 1)
        # measured 2.00476, residual 0.0056
        assert cert.value == pytest.approx(2.0, abs=0.2)
        assert not cert.inconclusive

    def test_suspension_pullback_mass(self):
        cert = mass_certificate(lattes_suspension(), 1)
        # measured 2.00468, residual 0.0053
        assert cert.value == pytest.approx(2.0, abs=0.2)
        assert not cert.inconclusive

    def test_invalid_pullback_count(self):
        with pytest.raises(ValueError):
            mass_certificate(POWER, 2)
        with pytest.raises(ValueError):
            mass_certificate(POWER, -1)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            mass_certificate(POWER, 0, resolution=9)
        with pytest.raises(ValueError):
            mass_certificate(POWER, 0, resolution=6)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            mass_certificate(POWER, 0, green_depth=-1)

    @pytest.mark.parametrize("depth", [math.inf, math.nan, 2.5, 3.0, "3"])
    def test_depth_must_be_an_integer(self, depth):
        # int(inf) raised a bare OverflowError, int(nan) a ValueError about
        # converting a float
        with pytest.raises(ValueError, match="green_depth must be an "
                                             "integer"):
            mass_certificate(POWER, 0, green_depth=depth)

    @pytest.mark.parametrize("resolution", [math.inf, math.nan, 16.0, "16"])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an "
                                             "integer"):
            mass_certificate(POWER, 0, resolution=resolution)

    @pytest.mark.parametrize("n, depth", [(0, 0), (1, 0), (1, 3)])
    def test_one_pass_matches_two_calls(self, monkeypatch, n, depth):
        # the reference answers every chart cube's request with two
        # separate 2-norm calls at the truncations the certificate pairs,
        # the deeper first; (1, 0) has n > green_depth
        ev = GreenEvaluator(lattes_suspension())
        one_pass = slices._certificate_integral(ev, n, depth, 8)

        def two_calls(ev, lifts, *args, **kwargs):
            return (escape_rate(ev, lifts, max(depth, n), "2"),
                    escape_rate(ev, lifts, min(depth, n), "2"))

        monkeypatch.setattr(green, "escape_rate", two_calls)
        assert slices._certificate_integral(ev, n, depth, 8) == one_pass


    @pytest.mark.parametrize("n, depth", [(0, 3), (1, 3), (1, 0)])
    def test_masked_integral_matches_full_cube_reference(self, n, depth):
        # the reference evaluates every node of each chart cube and forms
        # the density from the complex Hessian entries
        ev = GreenEvaluator(lattes_suspension())
        resolution = 8
        axis, weight, _ = slices._certificate_quadrature(resolution)
        h = 2.0 * math.sqrt(3.0) / resolution
        k = axis.size
        plane = (axis[:, None] + 1j * axis[None, :]).ravel()

        def at(cube, shifts):
            index = [slice(1, -1)] * 4
            for ax, step in shifts.items():
                index[ax] = slice(1 + step, k - 1 + step)
            return cube[tuple(index)]

        def hessian(cube):
            def lap(a, b):
                return (at(cube, {a: 1}) + at(cube, {a: -1})
                        + at(cube, {b: 1}) + at(cube, {b: -1})
                        - 4.0 * at(cube, {}))

            def cross(a, b):
                return (at(cube, {a: 1, b: 1}) - at(cube, {a: 1, b: -1})
                        - at(cube, {a: -1, b: 1})
                        + at(cube, {a: -1, b: -1}))

            return (lap(0, 1) / (4 * h * h), lap(2, 3) / (4 * h * h),
                    (cross(0, 2) + cross(1, 3)
                     + 1j * (cross(0, 3) - cross(1, 2))) / (16 * h * h))

        total = 0.0
        for chart in range(3):
            lifts = np.zeros((plane.size ** 2, 3), dtype=np.complex128)
            lifts[:, chart] = 1.0
            lifts[:, CHART_OTHERS[chart][0]] = np.repeat(plane, plane.size)
            lifts[:, CHART_OTHERS[chart][1]] = np.tile(plane, plane.size)
            u_zz, u_ww, u_zw = hessian(
                escape_rate(ev, lifts, depth, "2").reshape((k,) * 4))
            v_zz, v_ww, v_zw = hessian(
                escape_rate(ev, lifts, n, "2").reshape((k,) * 4))
            density = (u_zz * v_ww + u_ww * v_zz
                       - 2.0 * np.real(u_zw * np.conj(v_zw)))
            total += float((weight * density).sum()) * h ** 4
        reference = total * 2 ** n * 4.0 / math.pi ** 2
        value = slices._certificate_integral(ev, n, depth, resolution)
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("resolution", [8, 12, 24])
    def test_node_mask_covers_every_stencil_read(self, resolution):
        _, weight, nodes = slices._certificate_quadrature(resolution)
        assert nodes.shape == (resolution + 2,) * 4
        # the centre, the 8 axis neighbours, the 16 Z-axis/W-axis diagonals
        steps = [np.zeros(4, dtype=int)]
        for ax in range(4):
            for s in (1, -1):
                steps.append(s * np.eye(4, dtype=int)[ax])
        for a, b in product((0, 1), (2, 3)):
            for s, t in product((1, -1), repeat=2):
                step = np.zeros(4, dtype=int)
                step[a], step[b] = s, t
                steps.append(step)
        assert len(steps) == 25
        cells = np.argwhere(weight > 0.0) + 1
        for step in steps:
            assert nodes[tuple((cells + step).T)].all()
        # the mask leaves out about two thirds of the cube
        assert nodes.mean() < 0.36

    @pytest.mark.parametrize("resolution", [8, 24])
    def test_block_calls_stream_each_chart_once(self, monkeypatch,
                                                resolution):
        # concatenated in order, each chart's escape-rate calls are every
        # masked node once, at the lift (1, z, w) with its coordinates
        # permuted, in C order; a call carries the new node slabs of one
        # block: the first block's slabs + 2 (its halo too), later blocks'
        # slabs.  At resolution 24 a chart takes six calls, at 8 one.
        axis, _, nodes = slices._certificate_quadrature(resolution)
        slabs = min(max(1, (1 << 16) // resolution ** 3), resolution)
        calls = []

        def recording(ev, lifts, *args, **kwargs):
            calls.append(np.array(lifts))
            return escape_rate(ev, lifts, *args, **kwargs)

        monkeypatch.setattr(green, "escape_rate", recording)
        slices._certificate_integral(GreenEvaluator(POWER), 1, 3, resolution)
        idx = np.argwhere(nodes)
        k = idx.shape[0]
        z = axis[idx[:, 0]] + 1j * axis[idx[:, 1]]
        w = axis[idx[:, 2]] + 1j * axis[idx[:, 3]]
        expected = np.zeros((3 * k, 3), dtype=np.complex128)
        for chart in range(3):
            rows = slice(chart * k, (chart + 1) * k)
            expected[rows, chart] = 1.0
            expected[rows, CHART_OTHERS[chart][0]] = z
            expected[rows, CHART_OTHERS[chart][1]] = w
        np.testing.assert_array_equal(np.concatenate(calls), expected)
        start = 0
        for lifts in calls:
            first = start % k
            assert first + len(lifts) <= k  # no call spans two charts
            held = idx[first:first + len(lifts), 0]
            if held.size:
                width = slabs + 2 if first == 0 else slabs
                assert held[-1] - held[0] < width
            start += len(lifts)
        assert len(calls) == 3 * -(-resolution // slabs)

    @pytest.mark.parametrize("resolution", [8, 24])
    def test_cached_lifts_are_shared_and_read_only(self, resolution):
        # int32 indices into the ghosted plane, 8 bytes a node, which
        # gather to the (Z, W) coordinates of the true nodes in C order
        axis, _, nodes = slices._certificate_quadrature(resolution)
        zw = slices._certificate_lifts(resolution)
        assert slices._certificate_lifts(resolution) is zw
        k = int(nodes.sum())
        assert zw.shape == (2, k)
        assert zw.dtype == np.int32 and zw.nbytes == 8 * k
        with pytest.raises(ValueError):
            zw[0, 0] = 0
        plane = (axis[:, None] + 1j * axis[None, :]).ravel()
        idx = np.argwhere(nodes)
        expected = np.stack([axis[idx[:, 0]] + 1j * axis[idx[:, 1]],
                             axis[idx[:, 2]] + 1j * axis[idx[:, 3]]])
        assert plane[zw].tobytes() == expected.tobytes()

    def test_certificate_is_independent_of_cache_state(self):
        # cold caches, warm caches, and caches that another resolution's
        # certificate has just grown give the same bits
        def run():
            cert = mass_certificate(lattes_suspension(), 1, resolution=16)
            return cert.value.hex(), cert.coarse_value.hex()

        slices._certificate_quadrature.cache_clear()
        slices._certificate_lifts.cache_clear()
        cold = run()
        assert run() == cold
        mass_certificate(lattes_suspension(), 1, resolution=24)
        assert run() == cold

    @staticmethod
    def integral_budget(m):
        """Bytes one m-resolution integral must hold once its caches are
        built: the (2, slabs + 2, (m+2)^3) float window; the largest
        block's (rows, 3) complex lifts and two (rows,) float escape-rate
        outputs; and one block of stencil temporaries, the mixed
        differences of v formed while those of u are held, at most two
        halo-block differences and five cell blocks."""
        nodes = slices._certificate_quadrature(m)[2]
        slabs = min(max(1, (1 << 16) // m ** 3), m)
        counts = nodes.sum(axis=(1, 2, 3))
        rows = max(counts[a + (2 if a else 0):a + slabs + 2].sum()
                   for a in range(0, m, slabs))
        window = 2 * (slabs + 2) * (m + 2) ** 3
        return 8 * (window + 8 * rows + window + 5 * slabs * m ** 3)

    @staticmethod
    def traced_peak(call):
        """Traced bytes ``call()`` adds at its peak over what was live."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_integral_holds_one_potential_buffer(self):
        # Once a warm-up call has cached the quadrature and the lifts, the
        # call holds the arrays of integral_budget; the bound adds 25 %
        # slack.  One full potential cube (2 x (m+2)^4 floats, 7.3 MB at
        # m = 24) or one chart's (3, K) lifts (7.1 MB) takes the peak past
        # it.
        ev = GreenEvaluator(lattes_suspension())
        m = 24
        slices._certificate_integral(ev, 1, 3, m)
        peak = self.traced_peak(lambda: slices._certificate_integral(
            ev, 1, 3, m))
        # measured 9.5 MB against a bound of 10.0 MB
        assert peak < 1.25 * self.integral_budget(m)

    def test_cold_integral_peaks_near_what_it_keeps(self):
        # From cold caches the integral also builds, and keeps, the float
        # weight (m^4), the boolean node mask ((m+2)^4) and the (2, K)
        # int32 lift indices; each build's temporaries stay below the
        # integral's own arrays, so the peak is what the caches keep plus
        # integral_budget, with 25 % slack.  Building the weight or the
        # lifts over the whole cube at once takes it past.
        ev = GreenEvaluator(lattes_suspension())
        m = 24
        slices._certificate_quadrature.cache_clear()
        slices._certificate_lifts.cache_clear()
        peak = self.traced_peak(lambda: slices._certificate_integral(
            ev, 1, 3, m))
        _, weight, nodes = slices._certificate_quadrature(m)
        kept = weight.nbytes + nodes.nbytes \
            + slices._certificate_lifts(m).nbytes
        # measured 13.8 MB against a bound of 15.4 MB; whole-cube builds
        # and buffers, with complex lifts, read 28.2 MB
        assert peak < 1.25 * (kept + self.integral_budget(m))
