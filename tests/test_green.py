"""Tests for the escape-rate potential module.

Independent oracles used here:

* coordinatewise power map: the potential in the chart with last
  coordinate 1 is exactly ``log max(1, |z|, |w|)`` (every renormalized
  iterate stays on the sup-norm sphere, so all correction terms vanish);
* product of two degree-2 Chebyshev polynomials: the chart potential is
  ``max(g(z), g(w), 0)`` where ``g`` is the classical exterior Green
  function of the segment [-2, 2], ``g(z) = log(|z + sqrt(z^2 - 4)| / 2)``
  with the larger branch of the square root;
* log-homogeneity and the one-step telescoping identity, which the
  partial sums satisfy exactly up to floating-point roundoff.
"""

import math

import numpy as np
import pytest

from p2dyn.errors import DegenerateEvaluationError, ResolutionError
from p2dyn.frames import NormalFormCoordinates, OseledecFrame
from p2dyn.green import (
    DEFAULT_DEPTH,
    GreenEvaluator,
    escape_rate,
    local_potential,
)
from p2dyn.projective import HomogeneousMap, HomogeneousPoint, lift_from_chart
from p2dyn.slices import (
    LocalGrid,
    axis_chart,
    harmonicity_defect,
    slice_measure,
)
from p2dyn.zoo import (
    chebyshev_product,
    lattes_suspension,
    power_map,
    perturbed_power_family,
)

LOG2 = float(np.log(2.0))


def segment_green(z):
    """Exterior Green function of [-2, 2]: log of the larger Joukowski root
    over 2.  Classical 1D potential theory, no dynamics involved."""
    z = np.asarray(z, dtype=np.complex128)
    root = np.sqrt(z * z - 4.0)
    big = np.maximum(np.abs(z + root), np.abs(z - root))
    return np.log(big / 2.0)


def random_lifts(rng, n, spread=2.0):
    pts = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return pts * spread


class TestTruncationBound:
    def test_power_map_bound_closed_form(self):
        # coefficient sup = 1 (single unit monomials) and the sampled
        # sphere minimum of max(|z|^2,|w|^2,|t|^2) is exactly 1, halved by
        # the safety margin: B = log 2 and bound(N) = log2 * 2^-N.
        ev = GreenEvaluator(power_map(2))
        assert ev.truncation_bound(10) == pytest.approx(LOG2 * 2.0 ** -10,
                                                        rel=1e-12)
        assert ev.truncation_bound() == pytest.approx(LOG2 * 2.0 ** -40,
                                                      rel=1e-12)

    def test_geometric_decay(self):
        for map_ in (chebyshev_product(), lattes_suspension()):
            ev = GreenEvaluator(map_)
            d = map_.degree
            for n in (5, 17, 40):
                assert ev.truncation_bound(n) > 0.0
                assert ev.truncation_bound(n + 1) * d == pytest.approx(
                    ev.truncation_bound(n), rel=1e-12)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            GreenEvaluator(power_map(2), depth=0)


class TestPowerMapClosedForm:
    def test_chart_potential_matches_log_sup(self):
        ev = GreenEvaluator(power_map(2))
        rng = np.random.default_rng(5)
        zw = rng.normal(size=(40, 2)) * 2 + 1j * rng.normal(size=(40, 2)) * 2
        expected = np.log(np.maximum(1.0, np.max(np.abs(zw), axis=1)))
        got = escape_rate(ev, lift_from_chart(2, zw))
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_value_at_two_zero(self):
        ev = GreenEvaluator(power_map(2))
        val = escape_rate(ev, lift_from_chart(2, [2.0 + 0.0j, 0.0 + 0.0j]))
        assert abs(float(val[0]) - LOG2) <= ev.truncation_bound() + 1e-13

    def test_inside_unit_bidisk_is_zero(self):
        ev = GreenEvaluator(power_map(3))
        val = escape_rate(ev, lift_from_chart(2, [[0.5 + 0.1j, -0.25j],
                                                  [0.0j, 0.0j]]))
        assert np.max(np.abs(val)) < 1e-13

    def test_green_value_scale_invariant_form(self):
        # G([2:0:1]) - log ||(2,0,1)||_2 = log 2 - log sqrt(5)
        ev = GreenEvaluator(power_map(2))
        arr = HomogeneousPoint([2.0, 0.0, 1.0]).array
        got = escape_rate(ev, arr) - np.log(np.linalg.norm(arr))
        assert got == pytest.approx(LOG2 - 0.5 * np.log(5.0), abs=1e-12)


class TestHomogeneityAndScale:
    def test_log_homogeneous_in_the_lift(self):
        # squares of coordinates near 1e160 or 1e-170 overflow or
        # underflow, so the 2-norm must not be taken of the raw lift
        ev = GreenEvaluator(chebyshev_product(), depth=25)
        rng = np.random.default_rng(11)
        lifts = random_lifts(rng, 30)
        for norm in ("sup", "2"):
            base = escape_rate(ev, lifts, norm=norm)
            for c in (2.0, 0.125, -3.0 + 4.0j, 1e6j, 1e160, 1e-170):
                shifted = escape_rate(ev, c * lifts, norm=norm)
                gap = shifted - base - np.log(abs(c))
                assert np.max(np.abs(gap)) < 1e-10

    def test_green_value_ignores_representative(self):
        ev = GreenEvaluator(lattes_suspension(), depth=25)
        rng = np.random.default_rng(12)
        for _ in range(10):
            arr = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = escape_rate(ev, arr) - np.log(np.linalg.norm(arr))
            c = arr * (37.0 - 2.0j)
            b = escape_rate(ev, c) - np.log(np.linalg.norm(c))
            assert a == pytest.approx(b, abs=1e-10)


class TestDegeneracy:
    # (z^2, zw, zt) vanishes on z = 0; at the lift [a : 1 : 1] the image
    # of the unit-norm representative has norm a (sup) or a / sqrt(2) (2)
    MAP = HomogeneousMap([{(2, 0, 0): 1.0}, {(1, 1, 0): 1.0},
                          {(1, 0, 1): 1.0}], name="z-cone")

    @pytest.mark.parametrize("a", [0.0, 5e-15])
    def test_collapsed_image_raises_in_both_norms(self, a):
        ev = GreenEvaluator(self.MAP, depth=3)
        for norm in ("sup", "2"):
            with pytest.raises(DegenerateEvaluationError):
                escape_rate(ev, np.array([a, 1.0, 1.0]), norm=norm)

    def test_threshold_reads_the_unit_norm_representative(self):
        # the depth loop's iterates have norm in [1/2, 1): their raw images
        # fall below the tolerance before the unit representative's do
        ev = GreenEvaluator(self.MAP, depth=1)
        for norm in ("sup", "2"):
            got = escape_rate(ev, np.array([2e-14, 1.0, 1.0]), norm=norm)
            assert np.isfinite(got)


class TestTwoDepthsOnePass:
    """``also`` returns a shallower truncation from the same depth loop."""

    @pytest.mark.parametrize("norm", ["sup", "2"])
    @pytest.mark.parametrize("also", [0, 1, 4])
    def test_pair_equals_separate_calls_bitwise(self, norm, also):
        ev = GreenEvaluator(lattes_suspension(), depth=4)
        rng = np.random.default_rng(21)
        lifts = random_lifts(rng, 40)
        # far-from-unit lifts take the sup-exponent rescale before the loop
        for scaled in (lifts, 1e160 * lifts, 1e-170 * lifts):
            deep, shallow = escape_rate(ev, scaled, norm=norm, also=also)
            assert np.array_equal(deep, escape_rate(ev, scaled, norm=norm))
            assert np.array_equal(
                shallow, escape_rate(ev, scaled, depth=also, norm=norm))

    def test_single_lift_and_depth_zero(self):
        ev = GreenEvaluator(chebyshev_product())
        lift = np.array([0.3 + 1j, -2.0, 0.5j])
        deep, shallow = escape_rate(ev, lift, depth=0, also=0)
        assert deep == shallow == escape_rate(ev, lift, depth=0)
        deep, shallow = escape_rate(ev, lift, depth=3, norm="2", also=1)
        assert deep == escape_rate(ev, lift, depth=3, norm="2")
        assert shallow == escape_rate(ev, lift, depth=1, norm="2")

    def test_degenerate_lift_raises(self):
        ev = GreenEvaluator(TestDegeneracy.MAP, depth=3)
        for norm in ("sup", "2"):
            with pytest.raises(DegenerateEvaluationError):
                escape_rate(ev, np.array([0.0, 1.0, 1.0]), norm=norm,
                            also=1)

    @pytest.mark.parametrize("also", [-1, 4, 1.5])
    def test_also_outside_the_depth_rejected(self, also):
        ev = GreenEvaluator(power_map(2))
        with pytest.raises(ValueError):
            escape_rate(ev, np.ones(3), depth=3, also=also)


class TestTelescoping:
    @pytest.mark.parametrize("map_", [
        chebyshev_product(),
        lattes_suspension(),
        perturbed_power_family(0.01).map,
    ], ids=lambda m: m.name)
    def test_one_step_identity_depth_40(self, map_):
        # G_N(p) = d^-1 G_{N-1}(F(p)/||F(p)||) + d^-1 log ||F(p)|| for
        # sup-normalized p: holds to full precision, required below 1e-9.
        ev = GreenEvaluator(map_, depth=DEFAULT_DEPTH)
        rng = np.random.default_rng(7)
        lifts = random_lifts(rng, 100)
        lifts /= np.max(np.abs(lifts), axis=1)[:, None]
        lhs = escape_rate(ev, lifts, depth=40)
        image = map_.evaluate_batch(lifts, renormalize=False)
        norms = np.max(np.abs(image), axis=1)
        d = map_.degree
        rhs = (escape_rate(ev, image / norms[:, None], depth=39)
               + np.log(norms)) / d
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestTruncationEmpirical:
    @pytest.mark.parametrize("map_", [
        chebyshev_product(),
        lattes_suspension(),
        perturbed_power_family(0.01).map,
    ], ids=lambda m: m.name)
    def test_depth_doubling_within_bound(self, map_):
        ev = GreenEvaluator(map_, depth=40)
        rng = np.random.default_rng(21)
        lifts = random_lifts(rng, 100)
        g40 = escape_rate(ev, lifts, depth=40)
        g80 = escape_rate(ev, lifts, depth=80)
        assert np.max(np.abs(g80 - g40)) <= ev.truncation_bound(40)

    def test_single_step_monotone_truncation(self):
        ev = GreenEvaluator(lattes_suspension())
        rng = np.random.default_rng(22)
        lifts = random_lifts(rng, 60)
        values = [escape_rate(ev, lifts, depth=n) for n in range(3, 10)]
        for i, n in enumerate(range(3, 9)):
            gap = np.max(np.abs(values[i + 1] - values[i]))
            assert gap <= ev.truncation_bound(n)


class TestChebyshevProductOracle:
    def test_exterior_closed_form(self):
        ev = GreenEvaluator(chebyshev_product())
        points = np.array([
            [3.0 + 0.0j, 1.0 + 0.0j],
            [2.5 + 0.0j, 6.0 + 0.0j],
            [3.0 + 1.0j, 0.5 + 0.0j],
            [-4.0 + 0.5j, 2.0 + 3.0j],
        ])
        expected = np.maximum.reduce([
            segment_green(points[:, 0]).real,
            segment_green(points[:, 1]).real,
            np.zeros(len(points)),
        ])
        got = escape_rate(ev, lift_from_chart(2, points))
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_vanishes_on_the_filled_square(self):
        ev = GreenEvaluator(chebyshev_product())
        rng = np.random.default_rng(31)
        pts = rng.uniform(-2.0, 2.0, size=(25, 2)).astype(np.complex128)
        got = escape_rate(ev, lift_from_chart(2, pts))
        assert np.max(np.abs(got)) < 1e-9


class _AffineSection:
    """Duck-typed frame chart: plain affine embedding in chart 2."""

    def __init__(self, scale=1.0, domain_radius=None):
        self.scale = scale
        self.domain_radius = domain_radius

    def lift_batch(self, xi):
        return self.scale * lift_from_chart(2, xi)


class TestLocalPotential:
    def test_matches_chart_potential_and_shape(self):
        ev = GreenEvaluator(chebyshev_product(), depth=25)
        rng = np.random.default_rng(41)
        xi = rng.normal(size=(4, 5, 2)) + 1j * rng.normal(size=(4, 5, 2))
        out = local_potential(ev, _AffineSection(), xi)
        assert out.shape == (4, 5)
        ref = escape_rate(ev, lift_from_chart(2, xi.reshape(-1, 2)))
        ref = ref.reshape(xi.shape[:-1])
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_section_change_is_pluriharmonic_shift(self):
        # scaling the section by a constant shifts G by log of the scale
        ev = GreenEvaluator(lattes_suspension(), depth=25)
        rng = np.random.default_rng(42)
        xi = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        a = local_potential(ev, _AffineSection(), xi)
        b = local_potential(ev, _AffineSection(scale=5.0), xi)
        assert np.max(np.abs(b - a - np.log(5.0))) < 1e-12

    def test_domain_escape_raises(self):
        ev = GreenEvaluator(power_map(2), depth=10)
        xi = np.array([[0.05 + 0.0j, 0.0j], [0.3 + 0.0j, 0.0j]])
        with pytest.raises(ResolutionError):
            local_potential(ev, _AffineSection(domain_radius=0.1), xi)
        ok = local_potential(ev, _AffineSection(domain_radius=0.4), xi)
        assert ok.shape == (2,)


class TestPshProxy:
    """Plurisubharmonicity read off the slice stencil of :mod:`p2dyn.slices`.

    The proxy's floor is ``-h^2 * 1e-6`` on each unnormalized 5-point
    stencil.  Adding ``(1e-6 / 4) (|Z|^2 + |W|^2)`` adds exactly
    ``h^2 * 1e-6`` to every stencil, so the floor holds at every node
    exactly when the shifted potential's slice measure clamps no mass.
    """

    @pytest.mark.parametrize("map_", [
        chebyshev_product(),
        lattes_suspension(),
        perturbed_power_family(0.01).map,
    ], ids=lambda m: m.name)
    def test_sampled_potential_is_subharmonic_on_lines(self, map_):
        # grid spacing comparable to the slice grids used downstream;
        # coarser grids let the O(h^4) stencil truncation outgrow the
        # floor where the true Laplacian vanishes.  The chart's Z and W
        # axes are the affine z and w of chart 2, so the grid's slices are
        # the complex lines z -> (z, w) and w -> (z, w) through its nodes
        base = np.array([0.31 + 0.07j, 0.22 - 0.11j, 1.0])
        frame = OseledecFrame(
            e1=np.array([1.0, 0.0j]), e2=np.array([0.0j, 1.0]),
            isotropic=True, base_lift=base,
            tangent_basis=np.eye(3, 2) / np.linalg.norm(base))
        grid = LocalGrid(coords=NormalFormCoordinates(frame=frame,
                                                      domain_radius=0.25),
                         resolution=32, radius=0.1)
        values = grid.sample_green(GreenEvaluator(map_)) + grid.sample_scalar(
            lambda Z, W: 0.25e-6 * (np.abs(Z) ** 2 + np.abs(W) ** 2))
        for direction in ("Z", "W"):
            measure = slice_measure(values, grid, direction,
                                    clamp_budget=math.inf)
            assert measure.clamped_mass == 0.0

    @pytest.fixture(scope="class")
    def grid(self):
        return LocalGrid(coords=axis_chart(power_map(2), np.ones(3),
                                           domain_radius=2.5),
                         resolution=32, radius=0.5)

    def test_detector_dichotomy(self, grid):
        # harmonic sample passes (singularity far enough that the O(h^4)
        # stencil truncation stays below the floor), strictly concave
        # sample fails loudly: per W-slice, the mean absolute stencil is
        # compared with the floor h^2 * 1e-6 and with h^2
        floor = grid.resolution ** 2 * grid.spacing ** 2
        harmonic = grid.sample_scalar(
            lambda Z, W: np.log(np.abs(10.0 + W)) + 0.0 * Z.real)
        assert harmonicity_defect(harmonic, grid, "Z").max() <= floor * 1e-6
        concave = grid.sample_scalar(
            lambda Z, W: -np.abs(W) ** 2 + 0.0 * Z.real)
        assert harmonicity_defect(concave, grid, "Z").min() > floor * 1.0

    def test_rejects_tiny_grids(self, grid):
        with pytest.raises(ValueError):
            harmonicity_defect(np.zeros((2, 5)), grid, "Z")


class TestNormArgument:
    """The 2-norm truncation: the same telescoping sum in another norm."""

    def test_two_norm_telescopes_to_iterated_image(self):
        # d^-N log ||F^N(p)||_2 by direct iteration of the raw lift
        map_ = lattes_suspension()
        ev = GreenEvaluator(map_)
        rng = np.random.default_rng(31)
        lifts = random_lifts(rng, 50, spread=0.5)
        image = lifts.copy()
        for _ in range(3):
            image = map_.polynomial_batch(image)
        direct = np.log(np.linalg.norm(image, axis=1)) / map_.degree ** 3
        got = escape_rate(ev, lifts, depth=3, norm="2")
        assert np.max(np.abs(got - direct)) < 1e-13

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_norms_differ_by_at_most_half_log3_over_d_n(self, depth):
        # both telescope to d^-N log |F^N(p)|, and for x in C^3
        # ||x||_sup <= ||x||_2 <= sqrt(3) ||x||_sup
        map_ = chebyshev_product()
        ev = GreenEvaluator(map_)
        rng = np.random.default_rng(32)
        lifts = random_lifts(rng, 200)
        gap = (escape_rate(ev, lifts, depth=depth, norm="2")
               - escape_rate(ev, lifts, depth=depth))
        bound = 0.5 * np.log(3.0) * float(map_.degree) ** -depth
        assert np.all(gap >= -1e-13) and np.all(gap <= bound + 1e-13)

    def test_unknown_norm_rejected(self):
        ev = GreenEvaluator(power_map(2))
        with pytest.raises(ValueError):
            escape_rate(ev, np.ones(3), norm="inf")
