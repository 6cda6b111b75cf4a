"""Tests for expansion-adapted frames and normal-form coordinates.

Oracles used here:

* Conformal halving: every inverse branch of the squaring map scales
  Fubini-Study lengths by exactly 1/2 on the unit torus, so the pullback
  coordinate factors must satisfy |alpha_n| = |beta_n| = 2^-n; the test
  bases the frame at a deep backward-walk endpoint (within ~1e-11 of the
  torus) so the closed form holds to well below 1e-9 relative.
* Pulled-back stencil: the cocycle reading of the inverse branches is
  checked against finite differences of test points pulled back through
  the preimage solver, which shares no code with the cocycle.
* Product invariance: for product endomorphisms the two coordinate line
  fields are invariant, so on the product of z^2 - 3 and w^2 + 1, whose z
  factor has the larger exponent, the fast direction is the projected z
  axis; on the fibered semi-extremal family it is the fiber axis.
* One-variable factor exponents: the semi-extremal family contracts its
  slow coordinate at the Lattes factor rate log(2)/2 and its fast
  coordinate at the squaring rate log 2 per inverse step.
* Covariant-vector identities: with ``s`` the first column of the QR
  start frame, ``e1`` is the direction of the full backward product
  applied to ``s`` and ``e2`` is orthogonal to ``F^H s`` for the full
  forward product ``F``, both to rounding, since the QR reader
  renormalizes every step of the same products.
* Linear algebra: the frame chart is built from an orthonormal tangent
  basis followed by the [e1 e2] change of basis, giving the bi-Lipschitz
  sandwich d/2 <= |dxi| <= beta * d with beta <= 2 / conditioning, and an
  exact round trip with its holomorphic lift section.
"""

import numpy as np
import pytest

from p2dyn.errors import FrameError, ResolutionError
from p2dyn.frames import (
    CONDITIONING_TOL,
    NormalFormCoordinates,
    OseledecFrame,
    _forward_factors,
    compute_frame,
    default_coordinates,
    pullback_scaling,
    resonance_detect,
)
from p2dyn.green import GreenEvaluator, local_potential
from p2dyn.preimages import preimage_batch
from p2dyn.projective import (
    HomogeneousPoint,
    fs_distance_batch,
    injectivity_radius,
    sup_normalize,
)
from p2dyn.sampler import (
    GENERIC_START,
    QR_START,
    BackwardOrbit,
    backward_orbit,
    chained_factors,
    sample_equilibrium,
    tangent_basis_batch,
)
from p2dyn.zoo import (
    family_by_name,
    lattes_suspension,
    perturbed_power_family,
    power_map,
    product_map,
)

LOG2 = float(np.log(2.0))
GENERIC = HomogeneousPoint(np.array(GENERIC_START))


def axis_directions(lift):
    """Projected tangent directions of the two coordinate lines at a lift."""
    basis = tangent_basis_batch(np.asarray(lift)[None, :])[0]
    a_z = basis.conj().T @ np.array([1.0, 0.0, 0.0])
    a_w = basis.conj().T @ np.array([0.0, 1.0, 0.0])
    return a_z / np.linalg.norm(a_z), a_w / np.linalg.norm(a_w)


def alignment(v, a):
    return abs(np.vdot(v, a))


def angle_degrees(u, v):
    return float(np.degrees(np.arccos(min(1.0, abs(np.vdot(u, v))))))


@pytest.fixture(scope="module")
def power_setup():
    """Deep-based squaring-map frame: base within ~1e-11 of the torus."""
    power = power_map(2)
    warm = backward_orbit(power, GENERIC, 35, rng=np.random.default_rng(11))
    orbit = backward_orbit(power, warm.points[-1], 25,
                           rng=np.random.default_rng(12))
    frame = compute_frame(power, orbit)
    return power, orbit, frame, default_coordinates(power, frame)


@pytest.fixture(scope="module")
def susp_setup():
    susp = lattes_suspension()
    warm = backward_orbit(susp, GENERIC, 25, rng=np.random.default_rng(31))
    base = warm.points[-1]
    orb20 = backward_orbit(susp, base, 20, rng=np.random.default_rng(41))
    orb40 = backward_orbit(susp, base, 40, rng=np.random.default_rng(42))
    return susp, base, orb20, orb40, compute_frame(susp, orb20), \
        compute_frame(susp, orb40)


class TestResonanceDetect:
    def test_equal_exponents_are_not_resonant(self):
        assert resonance_detect(LOG2, LOG2) is None

    def test_double_exponent_detects_k2(self):
        assert resonance_detect(LOG2, 0.5 * LOG2) == 2

    def test_triple_exponent_detects_k3(self):
        assert resonance_detect(3 * 0.35, 0.35) == 3

    def test_non_integer_ratio_is_none(self):
        assert resonance_detect(1.0, 0.35, tolerance=0.05) is None

    def test_tolerance_widens_the_window(self):
        assert resonance_detect(2.1, 1.0, tolerance=0.2) == 2
        assert resonance_detect(2.1, 1.0, tolerance=0.05) is None

    def test_measured_suspension_exponents_resonate(self):
        # values measured by the exponent estimator on the semi-extremal
        # family (depth 30, 400 walkers); k = 2 within 5% of the slow rate
        assert resonance_detect(0.690685, 0.348130, tolerance=0.05) == 2

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            resonance_detect(1.0, 0.0)
        with pytest.raises(ValueError):
            resonance_detect(0.3, 0.6)
        with pytest.raises(ValueError):
            resonance_detect(1.0, 0.5, tolerance=0.0)
        with pytest.raises(ValueError):
            resonance_detect(float("nan"), 0.5)


class TestOseledecFrameValidation:
    def _basis(self):
        lift = np.array([1.0, 0.3 + 0.1j, -0.2j]) / np.sqrt(1.14)
        return lift / np.linalg.norm(lift), \
            tangent_basis_batch(lift[None, :])[0]

    def test_orthonormal_pair_accepted(self):
        lift, basis = self._basis()
        frame = OseledecFrame(
            e1=np.array([1.0, 0.0j]), e2=np.array([0.0j, 1.0]),
            isotropic=False, base_lift=lift, tangent_basis=basis)
        assert np.allclose(frame.matrix, np.eye(2))
        assert frame.conditioning == 1.0
        ambient_e1 = frame.tangent_basis @ frame.e1
        assert np.allclose(ambient_e1, basis[:, 0])
        assert abs(np.vdot(ambient_e1, lift)) < 1e-12

    def test_parallel_directions_rejected(self):
        lift, basis = self._basis()
        e = np.array([0.6, 0.8j])
        with pytest.raises(FrameError):
            OseledecFrame(e1=e, e2=e * np.exp(0.3j), isotropic=False,
                          base_lift=lift, tangent_basis=basis)

    def test_non_unit_direction_rejected(self):
        lift, basis = self._basis()
        with pytest.raises(FrameError):
            OseledecFrame(e1=np.array([2.0, 0.0j]),
                          e2=np.array([0.0j, 1.0]), isotropic=False,
                          base_lift=lift, tangent_basis=basis)


class TestComputeFrame:
    def test_conformal_map_flagged_isotropic(self, power_setup):
        _, _, frame, _ = power_setup
        assert frame.isotropic
        assert frame.conditioning > CONDITIONING_TOL

    def test_semi_extremal_not_isotropic(self, susp_setup):
        *_, f20, f40 = susp_setup
        assert not f20.isotropic and not f40.isotropic
        assert f20.conditioning > 0.9

    def test_fast_direction_is_the_fiber_axis(self, susp_setup):
        _, _, _, _, f20, f40 = susp_setup
        _, a_w = axis_directions(f20.base_lift)
        assert alignment(f20.e1, a_w) > 0.999
        assert alignment(f40.e1, a_w) > 0.999

    def test_direction_stability_depth_20_vs_40(self, susp_setup):
        *_, f20, f40 = susp_setup
        assert angle_degrees(f20.e1, f40.e1) < 2.0
        assert angle_degrees(f20.e2, f40.e2) < 2.0

    def test_product_frame_aligns_with_an_axis(self):
        # the product of z^2 - 3 and w^2 + 1 expands its z axis at 1.1300
        # and its w axis at 0.8968 per step, so e1 is the z axis; a QR run
        # started on the identity kept column 0 on whichever axis it began
        # and read 0.57-0.72 on the z axis at these four points
        f = product_map([-3, 0, 1], [1, 0, 1])
        sample = sample_equilibrium(f, depth=30, count=5, seed=2)
        for k in range(1, 5):
            orbit = backward_orbit(f, sample.points[k], 30,
                                   rng=np.random.default_rng([2, k]))
            frame = compute_frame(f, orbit)
            a_z, _ = axis_directions(frame.base_lift)
            assert alignment(frame.e1, a_z) > 0.999
            assert not frame.isotropic

    def test_shallow_orbit_rejected(self, power_setup):
        power, _, _, _ = power_setup
        orbit = backward_orbit(power, GENERIC, 10,
                               rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            compute_frame(power, orbit)

    def test_forward_window_off_the_support_still_frames(self):
        # this point's forward orbit retraces its path to the generic start
        # at step 30 and falls into the attracting fixed point [0 : 0.0101
        # : 1] by step 40, so a 60-step product of the forward factors
        # underflows its second singular value; QR renormalizes every step
        f = perturbed_power_family().map
        s = sample_equilibrium(f, depth=30, count=16, seed=12)
        orbit = backward_orbit(f, s.points[7], 30,
                               rng=np.random.default_rng([12, 7]))
        frame = compute_frame(f, orbit)
        assert frame.conditioning > CONDITIONING_TOL

    @pytest.mark.parametrize("family", ["lattes_suspension",
                                        "chebyshev_product", "power2"])
    def test_directions_are_the_full_products_covariant_vectors(
            self, family, power_setup, susp_setup, product_frames):
        if family == "power2":
            map_, orbit, frame, _ = power_setup
        elif family == "lattes_suspension":
            map_, _, _, orbit, _, frame = susp_setup
        else:
            map_, orbit, frame = product_frames[family]
        start = QR_START[:, 0]
        back = chained_factors(map_, sup_normalize(orbit.array[::-1]))
        column = np.linalg.multi_dot(back[::-1]) @ start
        assert 1.0 - alignment(frame.e1, column / np.linalg.norm(column)) \
            < 1e-12
        fwd = np.linalg.multi_dot(_forward_factors(map_, orbit.array[0])[::-1])
        row = fwd.conj().T @ start
        assert alignment(frame.e2, row / np.linalg.norm(row)) < 1e-12

    def test_transient_base_rejected(self):
        # the forward orbit of a generic (off-measure) start collapses
        # into the superattracting basin within a handful of steps
        power = power_map(2)
        orbit = backward_orbit(power, GENERIC, 20,
                               rng=np.random.default_rng(5))
        with pytest.raises(FrameError):
            compute_frame(power, orbit)


class TestNormalFormCoordinates:
    def test_round_trip_is_exact(self, susp_setup):
        susp, _, _, _, f20, _ = susp_setup
        coords = default_coordinates(susp, f20)
        rng = np.random.default_rng(7)
        xi = (rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2)))
        xi *= coords.domain_radius / 4
        back = coords.to_frame(coords.lift_batch(xi))
        assert np.max(np.abs(back - xi)) < 1e-12

    def test_base_maps_to_origin(self, susp_setup):
        susp, _, _, _, f20, _ = susp_setup
        coords = default_coordinates(susp, f20)
        xi = coords.to_frame(f20.base_lift[None, :])
        assert np.max(np.abs(xi)) < 1e-12

    @pytest.mark.parametrize("which", ["power", "susp"])
    def test_bilipschitz_sandwich_on_200_pairs(self, which, power_setup,
                                               susp_setup):
        if which == "power":
            _, _, frame, coords = power_setup
        else:
            susp, _, _, _, frame, _ = susp_setup
            coords = default_coordinates(susp, frame)
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        radii = coords.domain_radius * rng.random(400) ** 0.25
        xi = raw * radii[:, None]
        lifts = coords.lift_batch(xi)
        p, q = lifts[:200], lifts[200:]
        d = fs_distance_batch(p, q)
        dxi = np.linalg.norm(xi[:200] - xi[200:], axis=1)
        beta = coords.bilipschitz_upper
        assert beta <= 2.0 / frame.conditioning
        assert np.all(dxi >= 0.5 * d)
        assert np.all(dxi <= beta * d)

    def test_default_radius_is_a_fraction_of_injectivity(self, power_setup):
        power, _, frame, coords = power_setup
        inj = injectivity_radius(power, HomogeneousPoint(frame.base_lift))
        assert coords.domain_radius == pytest.approx(0.05 * inj, rel=1e-12)

    def test_invalid_radius_rejected(self, susp_setup):
        *_, f20, _ = susp_setup
        with pytest.raises(ValueError):
            NormalFormCoordinates(frame=f20, domain_radius=0.0)
        with pytest.raises(ValueError):
            NormalFormCoordinates(frame=f20, domain_radius=float("inf"))

    def test_far_point_escapes_the_chart(self, susp_setup):
        susp, _, _, _, f20, _ = susp_setup
        coords = default_coordinates(susp, f20)
        far = np.array([[0.0, 0.0, 1.0]], dtype=np.complex128) \
            if abs(f20.base_lift[2]) < 0.5 else \
            np.array([[1.0, 0.0, 0.0]], dtype=np.complex128)
        with pytest.raises(FrameError):
            coords.to_frame(far)

    def test_chart_feeds_the_potential_sampler(self, power_setup):
        power, _, _, coords = power_setup
        ev = GreenEvaluator(power)
        side = np.linspace(-0.5, 0.5, 5) * coords.domain_radius
        zz, ww = np.meshgrid(side, side)
        grid = np.stack([zz, ww], axis=-1).astype(np.complex128)
        vals = local_potential(ev, coords, grid)
        assert vals.shape == (5, 5) and np.all(np.isfinite(vals))
        with pytest.raises(ResolutionError):
            local_potential(ev, coords,
                            np.array([[3 * coords.domain_radius, 0.0]]))


def stencil_scaling(map_, orbit, frame, h, levels):
    """Reference ``(levels, 2)`` moduli of the inverse branches' diagonal.

    Pulls the stencil ``+-h``, ``+-2h`` along ``e1`` and along ``e2``
    through :func:`preimage_batch` one level at a time, keeping the
    preimage nearest the recorded orbit point, and reads each level in
    the orthonormal tangent coordinates of ``to_frame``.  The
    fourth-order difference gives the derivative's columns there; the
    inverse-transported chart has unit columns along them, so its
    diagonal entries are the column norms.  No cocycle factor is used.
    """
    sup = sup_normalize(orbit.array)
    steps = np.array([h, -h, 2 * h, -2 * h])
    xi = np.zeros((8, 2), dtype=np.complex128)
    xi[:4, 0], xi[4:, 1] = steps, steps
    current = frame.base_lift + xi @ (frame.tangent_basis @ frame.matrix).T
    rows = np.arange(8)
    out = np.empty((levels, 2))
    for k in range(1, levels + 1):
        lifts = preimage_batch(map_, current).lifts
        nearest = np.argmin(fs_distance_batch(lifts, sup[k]), axis=1)
        current = lifts[rows, nearest]
        unit = sup[k] / np.linalg.norm(sup[k])
        basis = tangent_basis_batch(sup[k][None, :])[0]
        ortho = (current / (current @ unit.conj())[:, None] - unit) \
            @ basis.conj()
        for j, x in enumerate((ortho[:4], ortho[4:])):
            column = (8.0 * (x[0] - x[1]) - (x[2] - x[3])) / (12.0 * h)
            out[k - 1, j] = np.linalg.norm(column)
    return out


@pytest.fixture(scope="module")
def product_frames():
    """Depth-20 frames of the two product maps, built like ``power_setup``."""
    out = {}
    for name in ("chebyshev_product", "product_mixed"):
        map_ = family_by_name(name).map
        warm = backward_orbit(map_, GENERIC, 35,
                              rng=np.random.default_rng(11))
        orbit = backward_orbit(map_, warm.points[-1], 20,
                               rng=np.random.default_rng(12))
        out[name] = map_, orbit, compute_frame(map_, orbit)
    return out


class TestPullbackScaling:
    def test_conformal_halving_to_1e9(self, power_setup):
        power, orbit, frame, _ = power_setup
        result = pullback_scaling(power, orbit, frame)
        expected = 2.0 ** -result.depths.astype(float)
        assert np.max(np.abs(result.alpha_abs / expected - 1.0)) < 1e-9
        assert np.max(np.abs(result.beta_abs / expected - 1.0)) < 1e-9

    @pytest.mark.parametrize("family", ["power2", "lattes_suspension",
                                        "chebyshev_product",
                                        "product_mixed"])
    def test_matches_a_stencil_pulled_through_preimages(
            self, family, power_setup, susp_setup, product_frames):
        """Cocycle reading against :func:`stencil_scaling`, depths 1-5.

        The stencil's error is about (solver noise) / h + C h^4.  At h of
        0.075 of the chart domain radius it was at most 1.6e-10 relative on
        these orbits; at 0.3 of the radius the h^4 term reached 6.5e-9 on
        product_mixed.
        """
        if family == "power2":
            map_, orbit, frame, _ = power_setup
        elif family == "lattes_suspension":
            map_, _, orbit, _, frame, _ = susp_setup
        else:
            map_, orbit, frame = product_frames[family]
        result = pullback_scaling(map_, orbit, frame)
        h = 0.075 * default_coordinates(map_, frame).domain_radius
        ref = stencil_scaling(map_, orbit, frame, h, 5)
        assert np.max(np.abs(result.alpha_abs[:5] / ref[:, 0] - 1.0)) < 1e-9
        assert np.max(np.abs(result.beta_abs[:5] / ref[:, 1] - 1.0)) < 1e-9

    @pytest.mark.parametrize("depth", [20, 40])
    def test_semi_extremal_rates(self, depth, susp_setup):
        """Fast rate -log 2, slow rate -log 2 / 2, read on one orbit.

        The band is for one orbit's finite-time rates: over 40 orbits from
        the fixture's base the slow rate's spread was 0.028 at depth 20
        and 0.013 at depth 40.
        """
        susp, base, _, orb40, _, f40 = susp_setup
        if depth == 20:
            orbit = backward_orbit(susp, base, 20,
                                   rng=np.random.default_rng(45))
            frame = compute_frame(susp, orbit)
        else:
            orbit, frame = orb40, f40
        result = pullback_scaling(susp, orbit, frame)
        assert abs(result.alpha_rates[-1] + LOG2) < 0.05
        assert abs(result.beta_rates[-1] + 0.5 * LOG2) < 0.05

    def test_slow_rate_misses_a_wrong_band(self, susp_setup):
        susp, base, _, _, _, _ = susp_setup
        orbit = backward_orbit(susp, base, 20, rng=np.random.default_rng(45))
        result = pullback_scaling(susp, orbit, compute_frame(susp, orbit))
        assert abs(result.beta_rates[-1] + 0.55) > 0.1

    def test_rate_properties_are_consistent(self, power_setup):
        power, orbit, frame, _ = power_setup
        result = pullback_scaling(power, orbit, frame)
        assert np.allclose(result.alpha_rates,
                           np.log(result.alpha_abs) / result.depths)
        assert np.allclose(result.beta_rates,
                           np.log(result.beta_abs) / result.depths)

    def test_depths_and_base_validation(self, power_setup, susp_setup):
        power, orbit, frame, _ = power_setup
        result = pullback_scaling(power, orbit, frame)
        assert np.array_equal(result.depths, np.arange(1, orbit.depth + 1))
        with pytest.raises(ValueError):
            pullback_scaling(power, BackwardOrbit(power, orbit.array[:1], ()),
                             frame)
        *_, f20, _ = susp_setup
        with pytest.raises(ValueError):
            pullback_scaling(power, orbit, f20)
