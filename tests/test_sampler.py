"""Tests for equilibrium sampling and exponents.

Independent oracles used here:

* squaring map [z^2 : w^2 : t^2]: the invariant measure lives on the unit
  torus |z| = |w| = 1, where the map is conformal with metric derivative
  exactly 2 in every direction; both exponents equal log 2 and cocycle
  products have singular values 2^n exactly.
* Chebyshev product: the invariant set is the real square [-2, 2]^2, and
  the all-positive-square-root branch sequence is the real monotone
  iteration z -> sqrt(z + 2) converging to the fixed point 2.
* fibered Lattes-base family: factor exponents log 2 (fiber) and
  (1/2) log 2 (base) are cross-checked against one-dimensional Birkhoff
  averages of the factor maps, computed by independent scalar iteration.
* finite differences: metric derivative rates are compared against direct
  difference quotients of the Fubini-Study distance along curves.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from p2dyn.errors import OrbitInvariantError
from p2dyn.projective import HomogeneousPoint, fs_distance_batch, sup_normalize
from p2dyn.sampler import (
    ORBIT_CONSISTENCY_TOL,
    PATH_BURN_IN,
    PATH_START_SKIP,
    BackwardOrbit,
    ExponentEstimate,
    MeasureSample,
    _clear_start,
    backward_orbit,
    fs_jacobian_dets,
    fs_tangent_maps,
    lyapunov_exponents,
    sample_equilibrium,
    tangent_basis_batch,
)
from p2dyn.preimages import preimages
from p2dyn.zoo import (
    birkhoff_exponent,
    chebyshev_product,
    lattes_factor,
    lattes_suspension,
    perturbed_power_family,
    power_map,
    product_map,
    squaring_factor,
    standard_zoo,
)

LOG2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# shared samples (expensive; built once per module)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def power_sample():
    return sample_equilibrium(power_map(2), depth=25, count=200, seed=5)


@pytest.fixture(scope="module")
def power_estimate(power_sample):
    return lyapunov_exponents(power_map(2), power_sample, 300)


@pytest.fixture(scope="module")
def cheb_sample():
    return sample_equilibrium(chebyshev_product(), depth=25, count=200,
                              seed=7)


@pytest.fixture(scope="module")
def suspension_samples():
    f = lattes_suspension()
    return (sample_equilibrium(f, depth=30, count=200, seed=101),
            sample_equilibrium(f, depth=30, count=200, seed=202))


@pytest.fixture(scope="module")
def suspension_estimates(suspension_samples):
    f = lattes_suspension()
    a, b = suspension_samples
    return lyapunov_exponents(f, a, 500), lyapunov_exponents(f, b, 500)


def assert_jacobian_identity(f, sample, est):
    """Birkhoff's theorem for the determinant cocycle: the sample's mean
    log FS Jacobian is lambda1 + lambda2, within 3 combined standard
    errors of the two means."""
    logs = np.log(fs_jacobian_dets(f, sample.array))
    sums = est.per_point.sum(axis=1)
    combined = np.hypot(logs.std(ddof=1) / np.sqrt(logs.size),
                        sums.std(ddof=1) / np.sqrt(sums.size))
    assert abs(logs.mean() - (est.lambda1 + est.lambda2)) < 3 * combined


def affine_coords(sample):
    arr = sample.array
    return arr[:, :2] / arr[:, 2:]


# ---------------------------------------------------------------------------
# tangent bases
# ---------------------------------------------------------------------------

class TestTangentBasis:
    def test_columns_orthonormal_and_normal_to_point(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        basis = tangent_basis_batch(pts)
        assert basis.shape == (40, 3, 2)
        gram = np.einsum("nij,nik->njk", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        unit = pts / np.linalg.norm(pts, axis=1)[:, None]
        overlap = np.einsum("nij,ni->nj", basis.conj(), unit)
        assert np.max(np.abs(overlap)) < 1e-12

    def test_modulus_ties_and_determinism(self):
        pts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                        [0.0, 2.0, 2.0]], dtype=np.complex128)
        b1 = tangent_basis_batch(pts)
        b2 = tangent_basis_batch(pts)
        assert np.array_equal(b1, b2)
        gram = np.einsum("nij,nik->njk", b1.conj(), b1)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# metric derivative factors
# ---------------------------------------------------------------------------

class TestFsTangentMaps:
    def test_squaring_map_is_conformal_rate_two_on_torus(self):
        rng = np.random.default_rng(8)
        angles = rng.uniform(0, 2 * np.pi, size=(30, 2))
        pts = np.stack([np.exp(1j * angles[:, 0]),
                        np.exp(1j * angles[:, 1]),
                        np.ones(30, dtype=np.complex128)], axis=1)
        mats, _ = fs_tangent_maps(power_map(2), pts)
        sing = np.linalg.svd(mats, compute_uv=False)
        assert np.max(np.abs(sing - 2.0)) < 1e-12
        dets = np.abs(np.linalg.det(mats))
        assert np.max(np.abs(dets - 4.0)) < 1e-11

    def test_matches_finite_difference_distance_rates(self):
        f = chebyshev_product()
        p = np.array([[0.31 + 0.12j, -0.44 + 0.27j, 1.0]],
                     dtype=np.complex128)
        p /= np.max(np.abs(p))
        mats, _ = fs_tangent_maps(f, p)
        basis = tangent_basis_batch(p)
        rng = np.random.default_rng(12)
        t = 1e-6
        for _ in range(4):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            moved = p + t * (basis[0] @ v)[None, :]
            step = fs_distance_batch(moved, p)[0]
            img_gap = fs_distance_batch(f.evaluate_batch(moved),
                                        f.evaluate_batch(p))[0]
            fd_rate = img_gap / step
            predicted = np.linalg.norm(mats[0] @ v)
            assert abs(fd_rate - predicted) < 1e-4 * predicted

    def test_det_vanishes_on_the_critical_set(self):
        pts = np.array([[1.0, 0.0, 0.0]], dtype=np.complex128)
        assert fs_jacobian_dets(power_map(2), pts)[0] < 1e-15

    def test_closed_form_det_matches_the_qr_factors(self):
        # fs_tangent_maps builds both tangent bases by QR; it is the
        # reference for the basis-free |det J| |p|^3 / (d |F(p)|^3)
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(2000, 3)) + 1j * rng.normal(size=(2000, 3))
        for family in standard_zoo():
            mats, _ = fs_tangent_maps(family.map, pts)
            ref = np.abs(np.linalg.det(mats))
            got = fs_jacobian_dets(family.map, pts)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0,
                                       err_msg=family.name)

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_det_is_exact_on_power_maps(self, d):
        # F = (x^d, y^d, t^d) has J = d diag(x, y, t)^(d-1), so the FS
        # factor's |det| is d^2 |xyt|^(d-1) |p|^3 / |F(p)|^3 exactly; the
        # closed form rounds only a few times, while the QR reference
        # above is itself off by up to 6e-14 on power3
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(2000, 3)) + 1j * rng.normal(size=(2000, 3))
        norm = np.linalg.norm
        want = d ** 2 * np.abs(pts.prod(axis=1)) ** (d - 1) \
            * (norm(pts, axis=1) / norm(pts ** d, axis=1)) ** 3
        np.testing.assert_allclose(fs_jacobian_dets(power_map(d), pts),
                                   want, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# canonical branch order
# ---------------------------------------------------------------------------

class TestBranchOrder:
    def test_real_chebyshev_target_puts_positive_roots_first(self):
        batch = preimages(chebyshev_product(),
                          HomogeneousPoint([2.0, 2.0, 1.0]))
        lifts, ids = batch.lifts[0], batch.root_ids[0]
        assert lifts.shape == (4, 3)
        aff = lifts[:, :2] / lifts[:, 2:]
        expected = np.array([[2.0, 2.0], [2.0, -2.0],
                             [-2.0, 2.0], [-2.0, -2.0]])
        assert np.max(np.abs(aff - expected)) < 1e-9
        assert len(set(ids.tolist())) == 4

    def test_multiple_roots_expand_adjacently(self):
        batch = preimages(power_map(2), HomogeneousPoint([0.0, 1.0, 1.0]))
        lifts, ids = batch.lifts[0], batch.root_ids[0]
        assert lifts.shape == (4, 3)
        # two double roots (0, +-1); copies of one root sit side by side
        assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]
        assert np.array_equal(lifts[0], lifts[1])
        aff = lifts[:, :2] / lifts[:, 2:]
        assert np.max(np.abs(aff[0] - np.array([0.0, 1.0]))) < 1e-9
        assert np.max(np.abs(aff[2] - np.array([0.0, -1.0]))) < 1e-9


# ---------------------------------------------------------------------------
# backward orbits
# ---------------------------------------------------------------------------

class TestBackwardOrbit:
    def test_depth_zero_is_just_the_start(self):
        x0 = HomogeneousPoint([0.3 + 0.2j, -0.5 + 0.1j, 1.0])
        orbit = backward_orbit(power_map(2), x0, 0)
        assert orbit.depth == 0
        assert orbit.branch_choices == ()
        assert np.array_equal(orbit.array[0], x0.array)

    def test_forward_reiteration_returns_to_start(self):
        f = power_map(2)
        x0 = HomogeneousPoint([0.3 + 0.2j, -0.5 + 0.1j, 1.0])
        orbit = backward_orbit(f, x0, 25, np.random.default_rng(3))
        arr = orbit.array
        x0n = sup_normalize(arr[:1])
        for k in (5, 15, 25):
            cur = arr[k][None, :]
            for _ in range(k):
                cur = f.evaluate_batch(cur)
            assert fs_distance_batch(cur, x0n)[0] < 1e-7

    def test_chebyshev_zero_branches_iterate_positive_square_root(self):
        f = chebyshev_product()
        x0 = HomogeneousPoint([0.5, 0.9, 1.0])
        orbit = backward_orbit(f, x0, 20, branch_choices=(0,) * 20)
        aff = orbit.array[:, :2] / orbit.array[:, 2:]
        assert np.max(np.abs(aff.imag)) < 1e-10
        re = aff.real
        assert np.all(np.diff(re[:, 0]) > 0)
        assert np.all(np.diff(re[:, 1]) > 0)
        assert np.max(np.abs(re[-1] - 2.0)) < 1e-9

    def test_random_orbit_replays_from_recorded_choices(self):
        f = chebyshev_product()
        x0 = HomogeneousPoint([0.4 + 0.1j, -0.2 + 0.3j, 1.0])
        orbit = backward_orbit(f, x0, 8, np.random.default_rng(17))
        again = backward_orbit(f, x0, 8, np.random.default_rng(17))
        assert np.array_equal(orbit.array, again.array)
        assert orbit.branch_choices == again.branch_choices
        replay = backward_orbit(f, x0, 8,
                                branch_choices=orbit.branch_choices)
        assert np.array_equal(orbit.array, replay.array)

    def test_tampered_points_are_rejected(self):
        f = power_map(2)
        orbit = backward_orbit(f, HomogeneousPoint([0.3, 0.4 + 0.2j, 1.0]),
                               4, np.random.default_rng(5))
        points = list(orbit.points)
        bad = orbit.array[2] + np.array([0.05, 0.0, 0.0])
        points[2] = HomogeneousPoint(bad)
        with pytest.raises(OrbitInvariantError):
            BackwardOrbit(f, tuple(points), orbit.branch_choices)

    def test_choice_count_must_match_depth(self):
        f = power_map(2)
        orbit = backward_orbit(f, HomogeneousPoint([0.3, 0.4, 1.0]), 3,
                               np.random.default_rng(6))
        with pytest.raises(OrbitInvariantError):
            BackwardOrbit(f, orbit.points, orbit.branch_choices[:-1])

    def test_critically_close_start_is_rejected(self):
        with pytest.raises(OrbitInvariantError):
            backward_orbit(power_map(2), HomogeneousPoint([1.0, 0.0, 0.0]),
                           3, np.random.default_rng(1))

    def test_argument_validation(self):
        x0 = HomogeneousPoint([0.3, 0.4, 1.0])
        with pytest.raises(ValueError):
            backward_orbit(power_map(2), x0, -1, np.random.default_rng(1))
        with pytest.raises(ValueError):
            backward_orbit(power_map(2), x0, 3)

    @pytest.mark.parametrize("depth", [2.5, 3.0])
    def test_depth_must_be_an_integer(self, depth):
        x0 = HomogeneousPoint([0.3, 0.4, 1.0])
        with pytest.raises(ValueError):
            backward_orbit(power_map(2), x0, depth, np.random.default_rng(1))


# ---------------------------------------------------------------------------
# equilibrium sampling
# ---------------------------------------------------------------------------

class TestSampleEquilibrium:
    def test_squaring_sample_lands_on_the_unit_torus(self, power_sample):
        aff = affine_coords(power_sample)
        dev = np.abs(np.abs(aff) - 1.0)
        on_torus = np.all(dev < 1e-3, axis=1)
        assert np.mean(on_torus) >= 0.99
        assert abs(float(np.sum(power_sample.weights)) - 1.0) < 1e-12
        assert power_sample.provenance == (25, 200, 5)
        assert power_sample.n_failures == 0

    def test_deeper_walks_land_closer(self):
        f = power_map(2)
        shallow = sample_equilibrium(f, depth=12, count=40, seed=9)
        deep = sample_equilibrium(f, depth=25, count=40, seed=9)
        dev_s = np.median(np.abs(np.abs(affine_coords(shallow)) - 1.0))
        dev_d = np.median(np.abs(np.abs(affine_coords(deep)) - 1.0))
        assert dev_d < dev_s / 100

    def test_chebyshev_marginals_fill_the_real_square(self, cheb_sample):
        aff = affine_coords(cheb_sample)
        assert np.max(np.abs(aff.imag)) < 1e-3
        assert np.all(aff.real >= -2.0 - 1e-3)
        assert np.all(aff.real <= 2.0 + 1e-3)

    def test_seed_reproducibility(self):
        f = chebyshev_product()
        a = sample_equilibrium(f, depth=6, count=25, seed=42)
        b = sample_equilibrium(f, depth=6, count=25, seed=42)
        c = sample_equilibrium(f, depth=6, count=25, seed=43)
        assert np.array_equal(a.array, b.array)
        assert not np.array_equal(a.array, c.array)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sample_equilibrium(power_map(2), depth=0, count=10, seed=1)
        with pytest.raises(ValueError):
            sample_equilibrium(power_map(2), depth=5, count=0, seed=1)

    @pytest.mark.parametrize("depth, count", [(2.5, 10), (5, 2.5),
                                              (5.0, 10), (5, "10")])
    def test_depth_and_count_must_be_integers(self, depth, count):
        with pytest.raises(ValueError):
            sample_equilibrium(power_map(2), depth=depth, count=count,
                               seed=1)

    @pytest.mark.parametrize("which", ["power", "suspension"])
    def test_paths_are_the_walkers_backward_orbits(
            self, which, power_sample, suspension_samples):
        f, sample = {"power": (power_map(2), power_sample),
                     "suspension": (lattes_suspension(),
                                    suspension_samples[0])}[which]
        depth, count, _ = sample.provenance
        paths = sample.paths
        assert paths.shape == (count, depth + 1, 3)
        assert np.array_equal(paths[:, -1], sample.array)
        assert np.array_equal(paths[:, 0],
                              np.tile(_clear_start(f), (count, 1)))
        images = f.evaluate_batch(paths[:, 1:].reshape(-1, 3))
        gaps = fs_distance_batch(images, paths[:, :-1].reshape(-1, 3))
        assert np.max(gaps) < ORBIT_CONSISTENCY_TOL

    def test_weights_are_coerced_to_a_float_array(self):
        points = np.tile([0.3 + 0.2j, -0.5 + 0.1j, 1.0], (20, 1))
        sample = MeasureSample(points, [0.05] * 20, (1, 20, 1))
        assert sample.weights.dtype == np.float64
        assert sample.weights.shape == (20,)
        with pytest.raises(ValueError, match="1-D"):
            MeasureSample(points, np.full((20, 1), 0.05), (1, 20, 1))


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

class TestLyapunovExponents:
    def test_squaring_map_exponents_equal_log_two(self, power_estimate):
        est = power_estimate
        assert abs(est.lambda1 - LOG2) < 0.01 * LOG2
        assert abs(est.lambda2 - LOG2) < 0.01 * LOG2
        assert est.lambda1 >= est.lambda2
        assert est.stderr1 >= 0 and np.isfinite(est.stderr1)
        assert est.stderr2 >= 0 and np.isfinite(est.stderr2)
        assert est.n_iter == 300
        # every walker reads its stored path; none is censored
        assert est.n_truncated == 0
        assert est.n_discarded == 0
        assert est.per_point.shape == (200, 2)

    def test_window_is_the_steps_actually_used(self, suspension_estimates):
        # every walker reads the same levels of its depth-30 path, far
        # fewer than its n_iter = 500 cap
        steps = 30 - PATH_BURN_IN - PATH_START_SKIP
        for est in suspension_estimates:
            assert est.window == (steps, steps, steps)
            assert steps < est.n_iter / 10

    def test_semi_extremal_exponents_split(self, suspension_estimates):
        est = suspension_estimates[0]
        assert abs(est.lambda1 - LOG2) < 0.02 * LOG2
        assert abs(est.lambda2 - 0.5 * LOG2) < 0.02 * 0.5 * LOG2

    def test_cross_validation_against_factor_birkhoff_oracles(
            self, suspension_estimates):
        est = suspension_estimates[0]
        fiber_oracle, fiber_err = birkhoff_exponent(
            squaring_factor(), seed=91, n_steps=40_000)
        base_oracle, base_err = birkhoff_exponent(
            lattes_factor(), seed=92, n_steps=40_000)
        assert abs(est.lambda1 - fiber_oracle) < \
            0.02 * LOG2 + 3 * (est.stderr1 + fiber_err)
        assert abs(est.lambda2 - base_oracle) < \
            0.02 * 0.5 * LOG2 + 3 * (est.stderr2 + base_err)

    def test_small_exponent_obeys_half_log_degree_bound(
            self, power_estimate, suspension_estimates):
        for est in (power_estimate,) + suspension_estimates:
            assert est.lambda2 >= 0.5 * LOG2 - 3 * est.stderr2
            # entropy/exponent scaffold at entropy 2 log d
            bound = 0.5 * LOG2 - 3 * est.stderr2
            assert 2 * LOG2 / est.lambda1 <= 2 * LOG2 / bound
            assert 2 * LOG2 / est.lambda2 <= 2 * LOG2 / bound

    def test_jacobian_average_matches_the_exponent_sum(
            self, suspension_samples, suspension_estimates):
        assert_jacobian_identity(lattes_suspension(), suspension_samples[0],
                                 suspension_estimates[0])

    def test_perturbed_power_meets_the_bound_and_the_jacobian_identity(self):
        # no closed form here, but every endomorphism obeys both checks; a
        # forward walk from these points fell into a non-critical attracting
        # fixed point and read lambda1 ~ -3.5, lambda2 ~ -11.9
        f = perturbed_power_family().map
        sample = sample_equilibrium(f, depth=30, count=200, seed=0)
        est = lyapunov_exponents(f, sample, 500)
        assert est.lambda2 >= 0.5 * LOG2 - 3 * est.stderr2
        assert_jacobian_identity(f, sample, est)

    def test_disjoint_samples_agree_within_three_stderr(
            self, suspension_estimates):
        a, b = suspension_estimates
        assert abs(a.lambda1 - b.lambda1) < \
            3 * np.hypot(a.stderr1, b.stderr1)
        assert abs(a.lambda2 - b.lambda2) < \
            3 * np.hypot(a.stderr2, b.stderr2)

    def test_equal_exponents_meet_the_band(self, cheb_sample):
        # both exponents of the Chebyshev product are log 2; sorting each
        # walker's 15-step pair before averaging read 0.7528 / 0.6340
        # here, 8.6 % off against the 2 % + 3 standard error band
        est = lyapunov_exponents(chebyshev_product(), cheb_sample, 500)
        assert abs(est.lambda1 - LOG2) < 0.02 * LOG2 + 3 * est.stderr1
        assert abs(est.lambda2 - LOG2) < 0.02 * LOG2 + 3 * est.stderr2
        assert est.lambda1 >= est.lambda2

    def test_cantor_product_exponents_follow_manning_przytycki(self):
        """Both exponents of (z^2 - 3, w^2 + 1) within the bench band.

        For p_c(z) = z^2 + c with the critical point 0 escaping, the
        exponent is log 2 + G_c(0) (Manning, Ann. Math. 119, 1984;
        Przytycki, Invent. Math. 80, 1985), G_c = lim 2^-k log|p_c^k| the
        escape rate.  With z_k = p_c^k(0), log|z_(k+1)| = 2 log|z_k| +
        log|1 + c / z_k^2|, so 2^-k log|z_k| moves by 2^-(k+1) log|1 + c
        / z_k^2| per step, and by less than 2^-k |c| 1e-200 in all once
        |z_k| > 1e100: there it is G_c(0) to rounding.  The product's
        cocycle is diagonal on the z and w axes, so its exponents are the
        factors', 1.1300 and 0.8968.  A QR run started on the identity
        stays on whichever axis it began and read 1.0612 / 0.9704 here.
        """
        def exponent(c):
            z, k = 0j, 0
            while abs(z) <= 1e100:
                z, k = z * z + c, k + 1
            return LOG2 + np.log(abs(z)) / 2 ** k

        f = product_map([-3, 0, 1], [1, 0, 1])
        est = lyapunov_exponents(
            f, sample_equilibrium(f, depth=60, count=200, seed=1), 500)
        for value, err, ref in ((est.lambda1, est.stderr1, exponent(-3)),
                                (est.lambda2, est.stderr2, exponent(1))):
            assert abs(value - ref) < 0.02 * ref + 3 * err

    def test_walkers_are_read_independently(self):
        # each walker's QR run reads only its own path, so a sample of
        # walkers 50-89 alone gives their rows of the full call; the bound
        # leaves room for a batched kernel that rounds a row differently
        # by its place in the batch (they read bit-identical)
        f = lattes_suspension()
        full = sample_equilibrium(f, depth=30, count=200, seed=0)
        rows = slice(50, 90)
        part = MeasureSample(full.points[rows], np.full(40, 1 / 40),
                             full.provenance, paths=full.paths[rows])
        expected = lyapunov_exponents(f, full, 500).per_point[rows]
        got = lyapunov_exponents(f, part, 500).per_point
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))

    def test_memory_follows_the_steps_walked(self):
        # the estimator reads 11 steps of a depth-25 path, so a huge budget
        # changes nothing; a buffer of n_iter steps would take 192 MB here
        f = power_map(2)
        sample = sample_equilibrium(f, depth=25, count=12, seed=3)
        short = lyapunov_exponents(f, sample, 500)
        tracemalloc.start()
        try:
            long = lyapunov_exponents(f, sample, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert long.n_iter == 10 ** 6
        for field in dataclasses.fields(ExponentEstimate):
            if field.name != "n_iter":
                assert np.array_equal(getattr(long, field.name),
                                      getattr(short, field.name)), field.name

    def test_rejects_short_iteration_budget(self, power_sample):
        with pytest.raises(ValueError):
            lyapunov_exponents(power_map(2), power_sample, 99)

    def test_estimate_requires_sorted_exponents(self):
        with pytest.raises(ValueError):
            ExponentEstimate(0.1, 0.2, 0.0, 0.0, 100,
                             np.zeros((1, 2)))

