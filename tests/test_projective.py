"""Projective-plane primitives: charts, distances, maps, differentials.

Oracles used here are independent of the implementation under test:
hand-derived closed forms, finite differences, and sympy symbolic algebra.
"""

import numpy as np
import pytest
import sympy as sp

from p2dyn.errors import CriticalPointError, DegenerateMapError
from p2dyn.projective import (
    CHART_OTHERS,
    HomogeneousMap,
    HomogeneousPoint,
    affine_coords,
    c2_norm,
    chart_indices,
    chart_normalize,
    fs_distance_batch,
    injectivity_radius,
    lift_from_chart,
    substitute_linear,
    sup_normalize,
)


def power_map(d: int = 2) -> HomogeneousMap:
    return HomogeneousMap(
        [{(d, 0, 0): 1.0}, {(0, d, 0): 1.0}, {(0, 0, d): 1.0}],
        name="power%d" % d)


def random_map(degree: int, seed: int) -> HomogeneousMap:
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(3):
        table = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c = degree - a - b
                table[(a, b, c)] = complex(rng.normal(), rng.normal())
        comps.append(table)
    return HomogeneousMap(comps, name="random%d" % degree)


def sympy_polys(map_: HomogeneousMap):
    z, w, t = sp.symbols("z w t")
    exprs = []
    for table in map_.tables:
        e = sp.Integer(0)
        for (i, j, k), coeff in table.items():
            c = complex(coeff)
            e += (sp.Float(c.real, 17) + sp.I * sp.Float(c.imag, 17)) \
                * z**i * w**j * t**k
        exprs.append(sp.expand(e))
    return (z, w, t), exprs


# ---------------------------------------------------------------------------
# charts and normalization
# ---------------------------------------------------------------------------

class TestCharts:
    def test_chart_is_max_modulus_coordinate(self):
        pts = np.array([[3.0, 1.0, 2.0],
                        [0.1, -5.0j, 2.0],
                        [0.0, 0.0, 1.0]], dtype=np.complex128)
        assert chart_indices(pts).tolist() == [0, 1, 2]

    def test_chart_tie_breaks_to_lowest_index(self):
        pts = np.array([[1.0, 1.0, 1.0],
                        [0.5, 1.0, 1.0],
                        [1.0, 0.3, 1.0]], dtype=np.complex128)
        assert chart_indices(pts).tolist() == [0, 1, 0]

    def test_affine_coords_drop_chart_coordinate_in_index_order(self):
        pt = np.array([[2.0, 4.0, 1.0]], dtype=np.complex128)
        coords, charts = affine_coords(pt)
        assert charts.tolist() == [1]
        # chart 1 keeps coordinates (0, 2) in increasing index order
        assert CHART_OTHERS[1] == (0, 2)
        np.testing.assert_allclose(coords[0], [0.5, 0.25])

    def test_lift_roundtrip(self):
        coords = np.array([[0.3 + 0.1j, -0.7j]])
        lifted = lift_from_chart(1, coords)
        np.testing.assert_allclose(lifted[0], [0.3 + 0.1j, 1.0, -0.7j])
        back, charts = affine_coords(lifted)
        assert charts[0] == 1
        np.testing.assert_allclose(back, coords)

    def test_chart_coordinate_exactly_one_after_normalization(self):
        pts = np.array([[3.0 + 4.0j, 1.0, 2.0]])
        norm, charts = chart_normalize(pts)
        assert charts[0] == 0
        assert norm[0, 0] == 1.0 + 0.0j

    def test_sup_normalize_unit_max_modulus(self):
        pts = np.array([[3.0 + 4.0j, 1.0, 2.0]])
        out = sup_normalize(pts)
        assert abs(np.max(np.abs(out)) - 1.0) < 1e-15

    def test_chart_coordinate_exactly_one_on_random_rows(self):
        # complex division of a coordinate by itself misses 1 by an ulp on
        # about a fifth of random rows, so the 1 is written, not divided
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100_000, 3)) \
            + 1j * rng.normal(size=(100_000, 3))
        norm, charts = chart_normalize(pts)
        assert np.all(norm[np.arange(len(pts)), charts] == 1.0)


# ---------------------------------------------------------------------------
# projective distance
# ---------------------------------------------------------------------------

class TestProjectiveDistance:
    def test_orthogonal_lines_at_distance_one(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        assert fs_distance_batch(p, q) == pytest.approx(1.0)

    def test_sine_of_angle_closed_form(self):
        # dist([1:0:0],[1:1:0]) = sin(pi/4) = 1/sqrt(2), hand-derived
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([1.0, 1.0, 0.0])
        assert fs_distance_batch(p, q) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_scale_invariance_complex_rescaling(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        q = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        base = fs_distance_batch(p, q)
        scaled = fs_distance_batch(p * (2.0 - 1.5j), q * (-0.25j))
        np.testing.assert_allclose(scaled, base, atol=1e-14)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        q = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        d1 = fs_distance_batch(p, q)
        d2 = fs_distance_batch(q, p)
        np.testing.assert_allclose(d1, d2, atol=1e-14)
        assert np.all(d1 >= 0.0) and np.all(d1 <= 1.0)
        assert fs_distance_batch(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_minors_match_the_cross_product_formula(self):
        # the np.cross / np.linalg.norm form of |p ^ q| / (|p| |q|), on
        # 10,000 pairs broadcast as in the cross-chart merge, (B, K, 1, 3)
        # against (B, 1, K, 3), with near-duplicate roots; each target's
        # rows are scaled by 1e150, 1 or 1e-150 on one side and by the
        # inverse on the other, so that no squared modulus overflows
        def reference(p, q):
            num = np.linalg.norm(np.cross(p, q), axis=-1)
            den = np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
            return np.minimum(num / den, 1.0)

        rng = np.random.default_rng(18)
        b, k = 625, 4
        lifts = rng.normal(size=(b, k, 3)) + 1j * rng.normal(size=(b, k, 3))
        lifts[:, 1] = (0.3 - 0.7j) * lifts[:, 0] \
            + 1e-9 * rng.normal(size=(b, 3))
        scale = 10.0 ** (150 * rng.integers(-1, 2, size=(b, 1, 1)))
        p, q = (lifts * scale)[:, :, None], (lifts / scale)[:, None]
        got, want = fs_distance_batch(p, q), reference(p, q)
        assert got.shape == (b, k, k)
        assert np.all(np.abs(got - want) <= np.maximum(1e-15 * want, 1e-30))


# ---------------------------------------------------------------------------
# map construction and evaluation
# ---------------------------------------------------------------------------

class TestHomogeneousMap:
    def test_power_map_evaluation(self):
        f = power_map(2)
        img = f.evaluate_batch(np.array([[2.0, 0.0, 1.0]]))
        # [2:0:1] -> [4:0:1]
        coords, charts = affine_coords(img)
        assert charts[0] == 0
        np.testing.assert_allclose(coords[0], [0.0, 0.25], atol=1e-15)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(DegenerateMapError):
            HomogeneousMap([{(2, 0, 0): 1.0}, {(0, 1, 0): 1.0},
                            {(0, 0, 2): 1.0}])

    def test_degree_one_rejected(self):
        with pytest.raises(DegenerateMapError):
            HomogeneousMap([{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0},
                            {(0, 0, 1): 1.0}])

    #: triples whose components share a zero, and one within 1e-16 of
    #: such a triple: none is a holomorphic endomorphism to the tolerance
    COMMON_ZEROS = {
        # (z^2, zw, zt) vanishes on z = 0
        "z-cone": [{(2, 0, 0): 1.0}, {(1, 1, 0): 1.0}, {(1, 0, 1): 1.0}],
        # (zw, wt, tz) at the three coordinate points
        "cyclic-monomial": [{(1, 1, 0): 1.0}, {(0, 1, 1): 1.0},
                            {(1, 0, 1): 1.0}],
        # (z^2, zt, wt) at [0:1:0] and [0:0:1]
        "drift-monomial": [{(2, 0, 0): 1.0}, {(1, 0, 1): 1.0},
                           {(0, 1, 1): 1.0}],
        # (z^2, zw, t^2) at [0:1:0]
        "common_zero": [{(2, 0, 0): 1.0}, {(1, 1, 0): 1.0},
                        {(0, 0, 2): 1.0}],
        # (z^2, zw + 1e-16 t^2, zt + 1e-16 w^2) has no common zero, but its
        # images on z = 0 have modulus 1e-16 at most
        "z-cone+1e-16": [{(2, 0, 0): 1.0}, {(1, 1, 0): 1.0, (0, 0, 2): 1e-16},
                         {(1, 0, 1): 1.0, (0, 2, 0): 1e-16}],
    }

    @pytest.mark.parametrize("name", list(COMMON_ZEROS))
    def test_maps_with_common_zeros_are_refused(self, name):
        # no growth floor clears the tolerance, so construction refuses
        # the triple and no evaluation ever meets a collapsed image
        with pytest.raises(DegenerateMapError, match="growth floor"):
            HomogeneousMap(self.COMMON_ZEROS[name], name=name)

    def test_common_zero_locus_evaluation_raises(self):
        # the components of a built map share only the zero at the origin,
        # which is no projective point: evaluation refuses it
        for f in (power_map(2), random_map(3, seed=20)):
            with pytest.raises(ValueError, match="not a projective point"):
                f.evaluate_batch(np.zeros((1, 3), dtype=complex))

    @pytest.mark.parametrize("coeff", [np.nan, np.inf, complex(1.0, np.nan),
                                       complex(0.0, -np.inf)])
    def test_non_finite_coefficients_are_refused(self, coeff):
        # a NaN coefficient made every image NaN, and the growth floor's
        # least-squares solve raised a bare LinAlgError
        with pytest.raises(DegenerateMapError, match="not finite"):
            HomogeneousMap([{(2, 0, 0): 1.0, (0, 1, 1): coeff},
                            {(0, 2, 0): 1.0}, {(0, 0, 2): 1.0}])

    def test_evaluation_matches_sympy(self):
        f = random_map(3, seed=20)
        (z, w, t), exprs = sympy_polys(f)
        pt = np.array([0.4 - 0.2j, -0.8 + 0.1j, 1.0])
        img = f.evaluate_batch(pt[None, :], renormalize=False)[0]
        subs = {z: complex(pt[0]), w: complex(pt[1]), t: complex(pt[2])}
        oracle = np.array([complex(e.evalf(subs=subs)) for e in exprs])
        # evaluate_batch sup-normalizes its input first; compare projectively
        ratio = img[np.argmax(np.abs(oracle))] / oracle[np.argmax(np.abs(oracle))]
        np.testing.assert_allclose(img, oracle * ratio, rtol=1e-12)


# ---------------------------------------------------------------------------
# polynomial algebra against sympy
# ---------------------------------------------------------------------------

class TestSymbolicAlgebra:
    def test_linear_substitution_matches_pointwise_oracle(self):
        f = random_map(2, seed=11)
        rng = np.random.default_rng(12)
        u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = substitute_linear(f, u)
        pts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        got = g.evaluate_batch(pts, renormalize=False)
        # oracle: evaluate f at U x directly (projective comparison)
        fx = f.evaluate_batch(pts @ u.T, renormalize=False)
        for row in range(pts.shape[0]):
            k = int(np.argmax(np.abs(fx[row])))
            np.testing.assert_allclose(got[row] / got[row][k],
                                       fx[row] / fx[row][k],
                                       rtol=1e-10, atol=1e-12)

    def test_dehomogenized_tables_reproduce_map_on_chart(self):
        f = random_map(3, seed=13)
        tables = f.chart_tables[2]
        rng = np.random.default_rng(14)
        uv = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        lifts = lift_from_chart(2, uv)
        oracle = f.evaluate_batch(lifts, renormalize=False)
        pu = np.stack([uv[:, 0] ** a for a in range(f.degree + 1)], axis=1)
        pv = np.stack([uv[:, 1] ** b for b in range(f.degree + 1)], axis=1)
        top = np.max(np.abs(lifts), axis=1) ** f.degree
        for comp in range(3):
            vals = np.einsum("ab,na,nb->n", tables[comp], pu, pv)
            # tables are exact coefficients; evaluate_batch sup-normalizes
            # its input, so its values are scaled down by max|lift|^degree
            np.testing.assert_allclose(vals, oracle[:, comp] * top,
                                       rtol=1e-10)


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def fd_chart_differential(map_, point, h=1e-6):
    """Central-difference oracle for the chart-to-chart derivative."""
    coords, charts = affine_coords(point[None, :])
    chart_in = int(charts[0])
    image = map_.evaluate_batch(point[None, :])
    chart_out = int(chart_indices(image)[0])
    out = np.empty((2, 2), dtype=np.complex128)
    for c in range(2):
        plus = coords.copy()
        plus[0, c] += h
        minus = coords.copy()
        minus[0, c] -= h
        img_p = map_.evaluate_batch(lift_from_chart(chart_in, plus))
        img_m = map_.evaluate_batch(lift_from_chart(chart_in, minus))
        ap = img_p[0] / img_p[0, chart_out]
        am = img_m[0] / img_m[0, chart_out]
        rows = CHART_OTHERS[chart_out]
        out[:, c] = (ap[list(rows)] - am[list(rows)]) / (2.0 * h)
    return out, chart_in, chart_out


class TestChartDifferential:
    def test_power_map_diagonal_closed_form(self):
        f = power_map(2)
        p = np.array([0.5, 0.25, 1.0])
        mats, cin, cout = f.chart_differential_batch(p[None, :])
        assert cin[0] == 2 and cout[0] == 2
        # (u,v) -> (u^2,v^2): derivative diag(2u, 2v) = diag(1.0, 0.5)
        np.testing.assert_allclose(mats[0], np.diag([1.0, 0.5]), atol=1e-12)
        assert np.linalg.det(mats[0]) == pytest.approx(0.5)

    def test_matches_finite_difference_oracle_random_map(self):
        f = random_map(2, seed=17)
        rng = np.random.default_rng(18)
        for _ in range(5):
            p = rng.normal(size=3) + 1j * rng.normal(size=3)
            mats, cin, cout = f.chart_differential_batch(p[None, :])
            oracle, ci, co = fd_chart_differential(f, p)
            assert (cin[0], cout[0]) == (ci, co)
            np.testing.assert_allclose(mats[0], oracle, rtol=1e-5,
                                       atol=1e-7)

    def test_critical_point_raises(self):
        f = power_map(2)
        with pytest.raises(CriticalPointError):
            injectivity_radius(f, HomogeneousPoint(np.array([0.0, 0.5, 1.0])))

    def test_cross_chart_output(self):
        f = power_map(2)
        # [2:0:1] -> [4:0:1]: input chart 0, output chart 0
        p = np.array([2.0, 0.5, 1.0])
        mats, cin, cout = f.chart_differential_batch(p[None, :])
        assert cin[0] == 0 and cout[0] == 0
        oracle, _, _ = fd_chart_differential(f, p)
        np.testing.assert_allclose(mats[0], oracle, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# second-derivative norm and injectivity radius
# ---------------------------------------------------------------------------

class TestInjectivityRadius:
    def test_power_map_c2_norm_is_four(self):
        # chart map (u,v) -> (u^2, v^2): all second derivatives are 2,
        # times the 2x safety factor
        assert c2_norm(power_map(2)) == pytest.approx(4.0, rel=1e-6)

    def test_power_map_radius_closed_form(self):
        f = power_map(2)
        # radius = min(sigma_min(Df)/2 / c2, 1); at (1,1): diag(2,2) -> 1/4
        p = HomogeneousPoint(np.array([1.0, 1.0, 1.0]))
        assert injectivity_radius(f, p) == pytest.approx(0.25, rel=1e-6)
        q = HomogeneousPoint(np.array([0.5, 0.25, 1.0]))
        assert injectivity_radius(f, q) == pytest.approx(0.0625, rel=1e-6)

    def test_radius_capped_at_one(self):
        # a nearly-linear-in-chart map would exceed 1; the cap applies.
        f = power_map(2)
        p = HomogeneousPoint(np.array([1.0, 1.0, 1.0]))
        assert injectivity_radius(f, p) <= 1.0
