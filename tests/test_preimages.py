"""Preimage solver: root finding, multiplicities, Bezout certification.

Independent oracles: numpy.roots companion-matrix eigenvalues for the
univariate stages, exact rational sympy resultants for a full bivariate
system, factorized per-coordinate solves for product maps, and hand-derived
closed forms for the power and Chebyshev families.
"""

import numpy as np
import pytest
import sympy as sp

from p2dyn.errors import PreimageSolverError
from p2dyn.preimages import polynomial_roots, preimage_batch, preimages
from p2dyn.projective import (
    DEGENERATE_EVAL_TOL,
    HomogeneousMap,
    HomogeneousPoint,
    fs_distance_batch,
    lift_from_chart,
    sup_normalize,
)
from p2dyn.sampler import _raise_for_stuck, _walker_step, backward_orbit


def power_map(d: int = 2) -> HomogeneousMap:
    return HomogeneousMap(
        [{(d, 0, 0): 1.0}, {(0, d, 0): 1.0}, {(0, 0, d): 1.0}])


def chebyshev_product() -> HomogeneousMap:
    return HomogeneousMap(
        [{(2, 0, 0): 1.0, (0, 0, 2): -2.0},
         {(0, 2, 0): 1.0, (0, 0, 2): -2.0},
         {(0, 0, 2): 1.0}])


def random_map(degree: int, seed: int) -> HomogeneousMap:
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(3):
        table = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                table[(a, b, degree - a - b)] = complex(rng.normal(),
                                                        rng.normal())
        comps.append(table)
    return HomogeneousMap(comps)


def match_sets(points_a: np.ndarray, points_b: np.ndarray, tol: float):
    """Greedy projective matching; asserts a perfect pairing within tol."""
    assert points_a.shape[0] == points_b.shape[0]
    remaining = list(range(points_b.shape[0]))
    for pa in points_a:
        dists = [fs_distance_batch(pa[None, :], points_b[j][None, :])[0]
                 for j in remaining]
        k = int(np.argmin(dists))
        assert dists[k] < tol, "unmatched root at distance %g" % dists[k]
        remaining.pop(k)



# ---------------------------------------------------------------------------
# univariate stage
# ---------------------------------------------------------------------------

class TestEigensolveRoots:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    def test_matches_companion_matrix_roots(self, degree):
        rng = np.random.default_rng(100 + degree)
        coeffs = rng.normal(size=(12, degree + 1)) \
            + 1j * rng.normal(size=(12, degree + 1))
        got = polynomial_roots(coeffs)
        for row in range(coeffs.shape[0]):
            oracle = np.roots(coeffs[row, ::-1])
            a = np.sort_complex(got[row])
            b = np.sort_complex(oracle)
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)

    def test_repeated_root(self):
        # (x - 0.5)^3 expanded, ascending: roots cluster at 0.5
        coeffs = np.array([[-0.125, 0.75, -1.5, 1.0]])
        got = polynomial_roots(coeffs)[0]
        np.testing.assert_allclose(got, 0.5 * np.ones(3), atol=2e-5)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots(np.array([[1.0, 2.0, 0.0]]))


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_power_map_four_square_roots(self):
        batch = preimages(power_map(2),
                          HomogeneousPoint(np.array([1.0, 1.0, 1.0])))
        assert batch.lifts.shape == (1, 4, 3)
        _, mults = np.unique(batch.root_ids[0], return_counts=True)
        assert mults.tolist() == [1, 1, 1, 1]
        oracle = np.array([[s1, s2, 1.0] for s1 in (1, -1)
                           for s2 in (1, -1)], dtype=complex)
        match_sets(oracle, batch.lifts[0], 1e-10)
        assert batch.residuals.max() < 1e-10

    def test_power_map_critical_value_multiplicity_two(self):
        # [0:1:1] pulls back to (0, ±1) each with multiplicity 2
        batch = preimages(power_map(2),
                          HomogeneousPoint(np.array([0.0, 1.0, 1.0])))
        assert batch.lifts.shape == (1, 4, 3)
        _, first, mults = np.unique(batch.root_ids[0], return_index=True,
                                    return_counts=True)
        assert mults.tolist() == [2, 2]
        oracle = np.array([[0.0, 1.0, 1.0], [0.0, -1.0, 1.0]], dtype=complex)
        match_sets(oracle, batch.lifts[0, first], 1e-7)

    def test_totally_invariant_point_multiplicity_four(self):
        # [0:0:1] is totally invariant for the power map: one root, mult 4
        batch = preimages(power_map(2),
                          HomogeneousPoint(np.array([0.0, 0.0, 1.0])))
        assert batch.lifts.shape == (1, 4, 3)
        _, mults = np.unique(batch.root_ids[0], return_counts=True)
        assert mults.tolist() == [4]

    def test_chebyshev_square_preimages(self):
        # z^2 - 2 = 2 and w^2 - 2 = 2: four roots (±2, ±2)
        batch = preimages(chebyshev_product(),
                          HomogeneousPoint(np.array([2.0, 2.0, 1.0])))
        assert batch.lifts.shape == (1, 4, 3)
        oracle = np.array([[s1 * 2.0, s2 * 2.0, 1.0] for s1 in (1, -1)
                           for s2 in (1, -1)], dtype=complex)
        # four distinct oracle roots: a repeated lift cannot match them all
        match_sets(oracle, batch.lifts[0], 1e-10)

    def test_power_map_cube(self):
        batch = preimages(power_map(3),
                          HomogeneousPoint(np.array([1.0, 1.0, 1.0])))
        assert batch.lifts.shape == (1, 9, 3)
        cube = np.exp(2j * np.pi * np.arange(3) / 3)
        oracle = np.array([[a, b, 1.0] for a in cube for b in cube])
        match_sets(oracle, batch.lifts[0], 1e-10)


# ---------------------------------------------------------------------------
# exact-algebra oracle on a generic system
# ---------------------------------------------------------------------------

def _exact(c):
    c = complex(c)
    return sp.Rational(c.real) + sp.I * sp.Rational(c.imag)


def sympy_preimage_oracle(map_: HomogeneousMap, target: np.ndarray):
    """All preimages with lift t=1, via an exact rational resultant."""
    u, v = sp.symbols("u v")
    tau = [_exact(t) for t in target / target[2]]
    comps = []
    for table in map_.tables:
        e = sp.Integer(0)
        for (i, j, _k), coeff in table.items():
            e += _exact(coeff) * u**i * v**j
        comps.append(sp.expand(e))
    g1 = sp.expand(comps[0] - tau[0] * comps[2])
    g2 = sp.expand(comps[1] - tau[1] * comps[2])
    res = sp.resultant(sp.Poly(g1, v), sp.Poly(g2, v))
    rc = [complex(c) for c in sp.Poly(res, u).all_coeffs()]
    pairs = []
    for ur in np.roots(rc):
        vpoly = [complex(c)
                 for c in sp.Poly(g2.subs(u, _exact(ur)), v).all_coeffs()]
        for vr in np.roots(vpoly):
            r1 = complex(g1.subs({u: _exact(ur), v: _exact(vr)}))
            if abs(r1) < 1e-6:
                pairs.append((ur, vr))
    return lift_from_chart(2, np.array(pairs))


class TestExactAlgebraOracle:
    def test_generic_quadratic_system(self):
        f = random_map(2, seed=31)
        target = np.array([0.4 - 0.3j, 0.2 + 0.5j, 1.0])
        oracle = sympy_preimage_oracle(f, target)
        batch = preimages(f, HomogeneousPoint(target))
        assert batch.lifts.shape == (1, 4, 3)
        assert np.unique(batch.root_ids[0]).size == oracle.shape[0] == 4
        match_sets(oracle, batch.lifts[0], 1e-9)

    def test_second_seed_and_target(self):
        f = random_map(2, seed=32)
        target = np.array([-0.7 + 0.2j, 0.1 - 0.9j, 1.0])
        oracle = sympy_preimage_oracle(f, target)
        batch = preimages(f, HomogeneousPoint(target))
        _, first = np.unique(batch.root_ids[0], return_index=True)
        assert first.size == oracle.shape[0]
        match_sets(oracle, batch.lifts[0, first], 1e-9)


# ---------------------------------------------------------------------------
# product maps: full pipeline vs factorized per-coordinate solve
# ---------------------------------------------------------------------------

def factorized_product_oracle(p_coeffs, q_coeffs, target: np.ndarray):
    """Roots of a product map via two univariate companion solves.

    ``p_coeffs``/``q_coeffs`` are ascending coefficients of the degree-d
    dehomogenized factors; the map is [P(z,t), Q(w,t), t^d] and the target
    is given with t=1.
    """
    tz, tw = target[0] / target[2], target[1] / target[2]
    pz = np.array(p_coeffs, dtype=complex)
    pz[0] -= tz
    qw = np.array(q_coeffs, dtype=complex)
    qw[0] -= tw
    zr = np.roots(pz[::-1])
    wr = np.roots(qw[::-1])
    return np.array([[z, w, 1.0] for z in zr for w in wr])


class TestProductFactorization:
    def test_random_product_quadratics_root_for_root(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            pc = rng.normal(size=3) + 1j * rng.normal(size=3)
            qc = rng.normal(size=3) + 1j * rng.normal(size=3)
            f = HomogeneousMap([
                {(2, 0, 0): pc[2], (1, 0, 1): pc[1], (0, 0, 2): pc[0]},
                {(0, 2, 0): qc[2], (0, 1, 1): qc[1], (0, 0, 2): qc[0]},
                {(0, 0, 2): 1.0}])
            target = np.array([complex(rng.normal(), rng.normal()),
                               complex(rng.normal(), rng.normal()), 1.0])
            oracle = factorized_product_oracle(pc, qc, target)
            batch = preimages(f, HomogeneousPoint(target))
            assert batch.lifts.shape == (1, 4, 3)
            got = batch.lifts[0]
            # expand oracle by multiplicity pairing: all roots simple here
            assert got.shape[0] == oracle.shape[0]
            match_sets(oracle, got, 1e-9)


# ---------------------------------------------------------------------------
# Bezout certification sweeps
# ---------------------------------------------------------------------------

class TestCertification:
    @pytest.mark.parametrize("factory,degree", [
        (lambda: power_map(2), 2),
        (chebyshev_product, 2),
        (lambda: random_map(2, seed=51), 2),
        (lambda: random_map(3, seed=52), 3),
    ])
    def test_multiplicities_sum_to_bezout_count(self, factory, degree):
        f = factory()
        rng = np.random.default_rng(60 + degree)
        targets = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        batch = preimage_batch(f, targets)
        assert batch.lifts.shape == (20, degree ** 2, 3)
        assert batch.residuals.max() < 1e-10

    def test_forward_evaluation_closes_the_loop(self):
        f = random_map(3, seed=53)
        rng = np.random.default_rng(54)
        target = rng.normal(size=3) + 1j * rng.normal(size=3)
        pts = preimages(f, HomogeneousPoint(target)).lifts[0]
        images = f.evaluate_batch(pts)
        tiled = np.repeat(target[None, :] / np.max(np.abs(target)),
                          pts.shape[0], axis=0)
        assert fs_distance_batch(images, tiled).max() < 1e-10

    def test_degenerate_system_raises_solver_error(self):
        # (z^2, zw + 1e-6 t^2, zt + 1e-6 w^2) is 1e-6 from sharing the zero
        # z = 0: its growth floor is proven, but its preimages are too ill
        # conditioned for any rotation to reach the Bezout count
        f = HomogeneousMap([{(2, 0, 0): 1.0},
                            {(1, 1, 0): 1.0, (0, 0, 2): 1e-6},
                            {(1, 0, 1): 1.0, (0, 2, 0): 1e-6}])
        assert f.image_floor > DEGENERATE_EVAL_TOL
        with pytest.raises(PreimageSolverError):
            preimages(f, HomogeneousPoint(np.array([0.3, 0.4, 1.0])))


# ---------------------------------------------------------------------------
# determinism and branch draws
# ---------------------------------------------------------------------------

class TestDeterminismAndSampling:
    def test_identical_calls_identical_roots(self):
        f = random_map(2, seed=71)
        target = np.array([0.2 + 0.1j, -0.4, 1.0])
        a = preimages(f, HomogeneousPoint(target))
        b = preimages(f, HomogeneousPoint(target))
        assert np.array_equal(a.lifts, b.lifts)
        assert np.array_equal(a.root_ids, b.root_ids)

    def test_random_branch_is_a_preimage(self):
        f = random_map(2, seed=72)
        target = HomogeneousPoint(np.array([0.1, 0.7 - 0.2j, 1.0]))
        rng = np.random.default_rng(73)
        branch = backward_orbit(f, target, 1, rng).array[1:]
        img = f.evaluate_batch(branch)
        assert fs_distance_batch(img, sup_normalize(target.array))[0] < 1e-9

    def test_branch_draws_are_uniform_over_multiplicity(self):
        # 10^4 multiplicity-weighted draws over a shared target hit each
        # of the four simple preimages with frequency 1/4 +- 0.02
        f = power_map(2)
        pt = np.array([1.0, 1.0, 1.0], dtype=np.complex128)
        n = 10_000
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(123).spawn(n)]
        out, picks, _, _ = _walker_step(f, np.tile(pt, (n, 1)), rngs)
        _raise_for_stuck(f, picks)
        aff = out[:, :2] / out[:, 2:]
        signs = np.stack([np.sign(aff[:, 0].real),
                          np.sign(aff[:, 1].real)], axis=1)
        for sz in (-1.0, 1.0):
            for sw in (-1.0, 1.0):
                freq = np.mean(np.all(signs == (sz, sw), axis=1))
                assert abs(freq - 0.25) < 0.02

    def test_batch_draw_deduplicates_but_streams_stay_private(self):
        f = power_map(2)
        pt = np.array([0.5 + 0.2j, -0.3, 1.0])
        points = np.stack([pt, pt, pt])
        seeds = np.random.SeedSequence(99).spawn(3)
        rngs = [np.random.default_rng(s) for s in seeds]
        out, picks, _, _ = _walker_step(f, points, rngs)
        _raise_for_stuck(f, picks)
        # all outputs are preimages of the shared target
        images = f.evaluate_batch(out)
        tiled = np.repeat(pt[None, :] / np.max(np.abs(pt)), 3, axis=0)
        assert fs_distance_batch(images, tiled).max() < 1e-9
        # identical seeds reproduce identical draws
        rngs2 = [np.random.default_rng(s)
                 for s in np.random.SeedSequence(99).spawn(3)]
        out2, _, _, _ = _walker_step(f, points, rngs2)
        assert np.array_equal(out, out2)
