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
  partial sums satisfy exactly up to floating-point roundoff;
* a per-step reference of the depth loop, which reads the norm after
  every step: escape_rate must agree with it bitwise;
* a seeded sample of the sup-norm unit sphere, whose least image bounds
  every proven growth floor from above.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2dyn import green
from p2dyn.errors import DegenerateMapError, ResolutionError
from p2dyn.frames import NormalFormCoordinates, OseledecFrame
from p2dyn.green import (
    DEFAULT_DEPTH,
    GreenEvaluator,
    escape_rate,
    local_potential,
)
from p2dyn.projective import (
    DEGENERATE_EVAL_TOL,
    HomogeneousMap,
    HomogeneousPoint,
    _growth_floor,
    _SupportKernel,
    lift_from_chart,
    sup_normalize,
)
from p2dyn.slices import (
    LocalGrid,
    axis_chart,
    harmonicity_defect,
    slice_measure,
)
from p2dyn.zoo import (
    chebyshev_product,
    lattes_suspension,
    mixed_product_family,
    power_map,
    perturbed_power_family,
    standard_zoo,
)

LOG2 = float(np.log(2.0))

#: degree-2 triples whose components share a zero: (z^2, zw, zt) on z = 0,
#: (zw, wt, tz) at the coordinate points, (z^2, zt, wt) at [0:1:0] and
#: [0:0:1]; construction refuses each
Z_CONE = [{(2, 0, 0): 1.0}, {(1, 1, 0): 1.0}, {(1, 0, 1): 1.0}]
CYCLIC = [{(1, 1, 0): 1.0}, {(0, 1, 1): 1.0}, {(1, 0, 1): 1.0}]
DRIFT = [{(2, 0, 0): 1.0}, {(1, 0, 1): 1.0}, {(0, 1, 1): 1.0}]


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
        # coefficient sup U = 1 (single unit monomials) and the proven floor
        # c_F = 1 up to its rounding term: B = |log c_F| <= 1e-14, and
        # bound(N) = B 2^-N (G is exact at every depth on power maps)
        ev = GreenEvaluator(power_map(2))
        step = abs(math.log(ev.map.growth_floor))
        assert step <= 1e-14
        assert ev.truncation_bound(10) == pytest.approx(step * 2.0 ** -10,
                                                        rel=1e-12)
        assert ev.truncation_bound() == pytest.approx(step * 2.0 ** -40,
                                                      rel=1e-12)

    def test_no_growth_floor_no_bound(self):
        # the z-cone has a common zero: no proof, so no map and no evaluator
        # to bound, and no log(0) warning (pytest turns RuntimeWarning into
        # an error)
        assert _growth_floor(Z_CONE, 2) == 0.0
        with pytest.raises(DegenerateMapError, match="growth floor"):
            GreenEvaluator(HomogeneousMap(Z_CONE, name="z-cone"))

    @pytest.mark.parametrize("depth", [-5, math.nan, 2.5, "3"])
    def test_bound_depth_must_be_a_nonnegative_integer(self, depth):
        # -5 returned a finite bound and NaN returned NaN
        ev = GreenEvaluator(chebyshev_product())
        with pytest.raises(ValueError, match="depth must be an integer >= 0"):
            ev.truncation_bound(depth)
        assert ev.truncation_bound(0) > ev.truncation_bound(np.int64(3))

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

    @pytest.mark.parametrize("depth", [2.5, 3.0, "3", -1])
    def test_depth_must_be_an_integer(self, depth):
        # a fractional depth must fail here, not on the evaluator's first
        # call (range() raised a bare TypeError there)
        with pytest.raises(ValueError):
            GreenEvaluator(power_map(2), depth=depth)


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
    """The images escape_rate once screened step by step are those of
    triples that construction refuses, so no evaluator meets one."""

    @pytest.mark.parametrize("a", [0.0, 5e-15])
    def test_collapsed_image_raises_in_both_norms(self, a):
        # at the lift [a : 1 : 1] the z-cone's image of the unit-norm
        # representative has norm a (sup) or about a / sqrt(2) (2): below
        # the tolerance in both, and the triple is refused when it is built
        lift = np.array([a, 1.0, 1.0], dtype=complex)
        for ord_ in (np.inf, 2):
            unit = lift / np.linalg.norm(lift, ord=ord_)
            image = _SupportKernel(Z_CONE)(unit[None, :])[0]
            assert np.linalg.norm(image, ord=ord_) <= DEGENERATE_EVAL_TOL
        with pytest.raises(DegenerateMapError, match="growth floor"):
            HomogeneousMap(Z_CONE, name="z-cone")


class TestRefusalByScale:
    """Construction refuses by the image floor relative to the growth
    bound, and by the range one step must stay in: the scaled power map
    c (z^2, w^2, t^2) has c_F = U = c, so its refusal depends on c only
    through that range."""

    @staticmethod
    def scaled_power(c):
        return HomogeneousMap([{(2, 0, 0): c}, {(0, 2, 0): c},
                               {(0, 0, 2): c}], name="scaled power")

    @pytest.mark.parametrize("exponent", [-46, -50])
    def test_scaled_down_power_map_builds(self, exponent):
        # both scales were refused by an absolute floor of 1e-14; the sup
        # norm of F^N(p) is c^(2^N - 1) ||p||^(2^N), so G_N = log||p||_sup
        # + (1 - 2^-N) log c, each side within a few ulp of its terms
        c, depth = 2.0 ** exponent, 40
        lifts = random_lifts(np.random.default_rng(exponent + 100), 300)
        got = escape_rate(GreenEvaluator(self.scaled_power(c)), lifts, depth)
        log_p = np.log(np.max(np.abs(lifts), axis=1))
        want = log_p + (1.0 - 2.0 ** -depth) * math.log(c)
        budget = 4.0 * np.finfo(float).eps * (np.abs(log_p)
                                              + abs(math.log(c)))
        assert np.all(np.abs(got - want) <= budget)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_step_out_of_the_two_norm_range_is_refused(self, exponent):
        # at c = 2^600 both spans read 1, yet one step from a unit vector
        # overflowed the 2-norm's squares (a bare RuntimeWarning); now no
        # such map is built, and nothing warns on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMapError, match="one step"):
                self.scaled_power(2.0 ** exponent)


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
        # a zero or non-finite lift is no point of P^2, with also as without
        ev = GreenEvaluator(power_map(2), depth=3)
        for lift in ([0.0, 0.0, 0.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0]):
            for norm in ("sup", "2"):
                with pytest.raises(ValueError,
                                   match="not a projective point"):
                    escape_rate(ev, np.array(lift), norm=norm, also=1)

    @pytest.mark.parametrize("also", [-1, 4, 1.5])
    def test_also_outside_the_depth_rejected(self, also):
        ev = GreenEvaluator(power_map(2))
        with pytest.raises(ValueError):
            escape_rate(ev, np.ones(3), depth=3, also=also)

    @pytest.mark.parametrize("also", [math.inf, math.nan, 1.0, "1"])
    def test_also_must_be_an_integer(self, also):
        # int(inf) raised a bare OverflowError, int(nan) a ValueError about
        # converting a float
        ev = GreenEvaluator(power_map(2))
        with pytest.raises(ValueError, match="also must be an integer"):
            escape_rate(ev, np.ones(3), depth=3, also=also)

    @pytest.mark.parametrize("depth", [-3, 2.5, 3.0, "3"])
    def test_depth_must_be_a_nonnegative_integer(self, depth):
        # a negative depth returned the depth-0 value log 2; a fractional
        # one raised a bare TypeError from range()
        ev = GreenEvaluator(power_map(2))
        with pytest.raises(ValueError):
            escape_rate(ev, [[2.0, 0.5, 1.0]], depth=depth)

    def test_integer_depths_are_accepted(self):
        ev = GreenEvaluator(power_map(2))
        lift = [[2.0, 0.5, 1.0]]
        assert escape_rate(ev, lift, depth=0) == np.log(2.0)
        assert escape_rate(ev, lift, depth=np.int64(3)) == escape_rate(
            ev, lift, depth=3)


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
        image = map_.polynomial_batch(sup_normalize(lifts))
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


class TestRescaleSpan:
    """The depth loop rescales once per span of steps derived from the map:
    overflow and row independence between rescales."""

    @pytest.mark.parametrize("norm", ["sup", "2"])
    def test_a_chain_of_near_collapses_reads_its_closed_form(self, norm):
        # on c (z^2, w^2, t^2), c = 2^-40, every image of a unit vector on
        # the torus has the least norm the growth floor c allows, so a
        # span's iterates fall as far as the span lets them (to 2^-616 in
        # the sup norm); G_N = (1 - 2^-N) log c, plus 2^-N log sqrt(3) in
        # the 2-norm
        c, depth = 2.0 ** -40, 8
        ev = GreenEvaluator(scaled_power(c), depth=depth)
        assert ev.rescale_spans == {"sup": 4, "2": 3}
        lifts = np.exp(2j * np.pi * np.random.default_rng(9).uniform(
            size=(50, 3)))
        want = (1.0 - 2.0 ** -depth) * math.log(c)
        if norm == "2":
            want += 2.0 ** -depth * 0.5 * math.log(3.0)
        got = escape_rate(ev, lifts, norm=norm)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(abs(want)))

    @pytest.mark.parametrize("c", [2.0 ** 60, 2.0 ** 300])
    def test_scaled_power_map_reads_its_closed_form(self, c):
        # F^N(p) = c^(2^N - 1) p^(2^N), so in the sup norm
        # G_N = log |p|_sup + (1 - 2^-N) log c; the 2-norm adds
        # 2^-(N+1) log sum_i (|p_i| / |p|_sup)^(2^(N+1)).  Iterates grow
        # by c per step: with c = 2^300 a span of 3 steps would overflow
        n = 8
        map_ = HomogeneousMap([{(2, 0, 0): c}, {(0, 2, 0): c},
                               {(0, 0, 2): c}], name="scaled-power")
        ev = GreenEvaluator(map_, depth=n)
        lifts = random_lifts(np.random.default_rng(27), 200)
        size = np.abs(lifts)
        sup = np.max(size, axis=1)
        want = np.log(sup) + (1.0 - 2.0 ** -n) * math.log(c)
        extra = np.log(np.sum((size / sup[:, None]) ** 2.0 ** (n + 1), axis=1))
        for norm, shift in (("sup", 0.0), ("2", 2.0 ** -(n + 1) * extra)):
            got = escape_rate(ev, lifts, norm=norm)
            assert np.all(np.abs(got - want - shift)
                          <= 4 * np.spacing(np.abs(want)))

    def test_spans_and_screens_keep_their_derived_values(self):
        # spans of the zoo and of c (z^2, w^2, t^2), derived from the
        # coefficient bound U and the image floor f, c_F 3^(-d/2) less
        # rounding.  By hand on power2 (c_F = U = 1, log2 f = -1.585): the
        # lower bounds lo_1 = log2 f - 2, lo_(j+1) = 2 lo_j + log2 f read
        # -3.58, -8.75, -19.1, -39.8, -81.1, -163.9, -329.3, -660.2 and
        # -1321.9, so the sup norm (range 2^+-1000) keeps 8 steps and the
        # 2-norm (2^+-500) 7, while hi_j = 0 (sup) or (2^j - 1) log2 sqrt(3)
        by_family = {"power2": (8, 7), "power3": (5, 4),
                     "chebyshev_product": (7, 6), "product_mixed": (7, 6),
                     "lattes_suspension": (8, 7), "perturbed_power": (8, 7)}
        maps = [(f.map, by_family[f.name]) for f in standard_zoo()]
        for c, spans in ((2.0 ** 60, (4, 3)), (2.0 ** 300, (2, 1))):
            maps.append((HomogeneousMap(
                [{(2, 0, 0): c}, {(0, 2, 0): c}, {(0, 0, 2): c}],
                name="scaled-power"), spans))
        for map_, (sup_span, two_span) in maps:
            ev = GreenEvaluator(map_)
            assert ev.rescale_spans == {"sup": sup_span, "2": two_span}

    @pytest.mark.parametrize("norm", ["sup", "2"])
    def test_rows_do_not_depend_on_their_block(self, norm):
        # one block of lifts from 1e-170 to 1e160 (the pre-loop rescale),
        # coordinates spread over eight decades (fast escape) and rows on
        # the invariant line t = 0 of chebyshev_product, at a depth that
        # rescales within the loop in either norm
        ev = GreenEvaluator(chebyshev_product(), depth=8)
        rng = np.random.default_rng(34)
        n = 1 << 13
        lifts = random_lifts(rng, n) * 10.0 ** rng.uniform(-4, 4, (n, 3))
        lifts[::5, 2] = 0.0
        lifts *= 10.0 ** rng.uniform(-170, 160, (n, 1))
        block = escape_rate(ev, lifts, norm=norm)
        alone = np.array([escape_rate(ev, row, norm=norm) for row in lifts])
        assert np.array_equal(block, alone)


_REFERENCE_NORMS = {
    "sup": lambda cols: np.max(np.abs(cols), axis=0),
    "2": lambda cols: np.sqrt(np.sum(cols.real ** 2 + cols.imag ** 2,
                                     axis=0)),
}


def reference_escape_rate(ev, lifts, depth, norm, also=None):
    """The documented loop step by step: the norm after every step and the
    rescale at steps divisible by the span.  Returns G_N, G_also and each
    row's largest |log2 |v_k|| over steps 1 to N."""
    d, span = ev.map.degree, ev.rescale_spans[norm]
    col = _REFERENCE_NORMS[norm]
    table = np.empty((d, 3, len(lifts)), dtype=np.complex128)
    v = table[0]
    v[...] = lifts.T
    norms, exps, factor, shallow = col(v), 0.0, 1.0, None
    reach = np.zeros(len(lifts))
    for step in range(depth):
        if step == also:
            shallow = LOG2 * exps + factor * np.log(norms)
        if step % span == 0:
            e = np.frexp(norms)[1]
            exps += factor * e
            v *= np.ldexp(1.0, -e)
        ev.map.polynomial_columns(table)
        norms = col(v)
        reach = np.maximum(reach, np.abs(np.log2(norms)))
        factor /= d
    total = LOG2 * exps + factor * np.log(norms)
    return total, total if also == depth else shallow, reach


def scaled_power(c):
    return HomogeneousMap([{(2, 0, 0): c}, {(0, 2, 0): c}, {(0, 0, 2): c}],
                          name="scaled-power")


def spread_lifts(seed):
    """24 lifts: unit-scale rows mixed with rows whose coordinates spread
    over eight decades (fast escape, near-axis directions)."""
    rng = np.random.default_rng(seed)
    lifts = random_lifts(rng, 24)
    lifts[::2] *= 10.0 ** rng.uniform(-4, 4, (12, 3))
    return lifts


def random_map(seed, degree):
    """Dense map with standard complex normal coefficients."""
    rng = np.random.default_rng(seed)
    keys = [(i, j, degree - i - j) for i in range(degree + 1)
            for j in range(degree + 1 - i)]
    return HomogeneousMap([dict(zip(keys, rng.normal(size=len(keys))
                                    + 1j * rng.normal(size=len(keys))))
                           for _ in range(3)], name="random")


def sphere_minimum(map_):
    """Least ||F(v)||_sup over a seeded sample of 4,096 points of the
    sup-norm unit sphere: an upper bound on any true growth floor."""
    rng = np.random.default_rng(524287)
    re, im = rng.normal(size=(2, 4096, 3))
    images = map_.polynomial_batch(sup_normalize(re + 1j * im))
    return float(np.min(np.max(np.abs(images), axis=1)))


#: zoo, scaled power and random dense degree 2-4 maps
FLOOR_MAPS = (st.sampled_from([f.map for f in standard_zoo()]
                              + [scaled_power(2.0 ** 60),
                                 scaled_power(2.0 ** 300)])
              | st.builds(random_map, st.integers(0, 2 ** 32 - 1),
                          st.integers(2, 4)))


class TestGrowthFloor:
    """HomogeneousMap.growth_floor proves ||F(v)||_sup >= c_F ||v||_sup^d
    from a Macaulay identity (maps without one are refused when built)."""

    @settings(max_examples=60, deadline=None)
    @given(map_=FLOOR_MAPS)
    def test_floor_is_below_every_sampled_image(self, map_):
        assert 0.0 <= map_.growth_floor <= sphere_minimum(map_)

    def test_every_zoo_map_has_a_floor(self):
        for family in standard_zoo():
            assert family.map.growth_floor > 0.0

    def test_power_maps_are_tight(self):
        for d in (2, 3):
            assert abs(power_map(d).growth_floor - 1.0) < 1e-14

    def test_maps_with_common_zeros_get_no_floor(self):
        # no Macaulay identity exists when the components share a zero
        for tables in (Z_CONE, CYCLIC, DRIFT):
            assert _growth_floor(tables, 2) == 0.0


class TestNormReads:
    """escape_rate reads the norm only where G needs it, since the growth
    floor of every map rules out a collapse; a per-step reference loop is
    the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(map_=FLOOR_MAPS, norm=st.sampled_from(["sup", "2"]),
           depth=st.integers(1, 40), also=st.none() | st.integers(0, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_step_reference(self, map_, norm, depth, also,
                                            seed):
        # the loop that reads only the norms G needs gives the bits of the
        # reference that reads every norm
        also = None if also is None else min(also, depth)
        ev = GreenEvaluator(map_, depth=depth)
        lifts = spread_lifts(seed)
        total, shallow, _ = reference_escape_rate(ev, lifts, depth, norm,
                                                  also)
        got = escape_rate(ev, lifts, norm=norm, also=also)
        if also is None:
            assert np.array_equal(got, total)
        else:
            assert np.array_equal(got[0], total)
            assert np.array_equal(got[1], shallow)

    @settings(max_examples=60, deadline=None)
    @given(map_=FLOOR_MAPS, norm=st.sampled_from(["sup", "2"]),
           depth=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_spans_from_the_floor_keep_every_norm_in_range(
            self, map_, norm, depth, seed):
        # the span's proof, checked: from a rescale to [1/2, 1) every
        # per-step |v_k| of the reference stays in the norm's log2 range
        ev = GreenEvaluator(map_, depth=depth)
        reach = reference_escape_rate(ev, spread_lifts(seed), depth, norm)[2]
        assert np.all(reach <= green._COLUMN_NORMS[norm][2])

    @pytest.mark.parametrize("norm", ["sup", "2"])
    def test_norms_read_once_per_span(self, norm, monkeypatch):
        # a block of a map with a growth floor reads |v_0|, the norm before
        # each later rescale and |v_N|: ceil(N / span) + 1 norms, one more
        # for a mid-span also; product maps too, whose smaller growth floor
        # gives them shorter spans than power2's
        col_norm, k, limit = green._COLUMN_NORMS[norm]
        calls = []

        def counted(cols):
            calls.append(cols.shape)
            return col_norm(cols)

        monkeypatch.setitem(green._COLUMN_NORMS, norm, (counted, k, limit))
        lifts = random_lifts(np.random.default_rng(30), 500)
        for map_, depths in ((power_map(2), (1, 3, 8, 13, 40)),
                             (mixed_product_family().map, (40,))):
            ev = GreenEvaluator(map_)
            span = ev.rescale_spans[norm]
            for depth in depths:
                calls.clear()
                escape_rate(ev, lifts, depth=depth, norm=norm)
                assert len(calls) == math.ceil(depth / span) + 1
                calls.clear()
                escape_rate(ev, lifts, depth=depth, norm=norm,
                            also=depth // 2)
                extra = (depth // 2) % span != 0
                assert len(calls) == math.ceil(depth / span) + 1 + extra
