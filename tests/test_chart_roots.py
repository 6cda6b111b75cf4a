"""Batched multiplicity bookkeeping and the univariate root solver.

``_chart_roots`` collapses the raw (u, v) candidate pairs of a whole batch
of chart solves to distinct roots with multiplicities.  It is checked
against the per-target loop it replaced (kept below as the reference),
which must be reproduced exactly: coordinates bit for bit, multiplicities
and order.  The reference ranks a fiber's v-clusters with a stable sort:
numpy's default sort is not stable on every platform (SIMD sorts reorder
ties among four or more entries), and the stated rule is "larger clusters
first, then seed order".

The root tolerances are fixed before running from float64 analysis: a
simple root is found to about eps times its condition number (1e-10 leaves
room for the random coefficients used), a root of multiplicity m only to
about eps^(1/m) times a modest constant (double roots: 1e-6).
"""

import importlib
import itertools

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from p2dyn.preimages import (
    CLUSTER_RADIUS,
    U_FIBER_RADIUS,
    _chart_roots,
    polynomial_roots,
)
from p2dyn.zoo import lattes_suspension

# the module itself (the package's ``preimages`` attribute is the function)
preimages = importlib.import_module("p2dyn.preimages")


# ---------------------------------------------------------------------------
# reference: the former per-target clustering loop
# ---------------------------------------------------------------------------

def reference_cluster_complex(values, radius):
    """Greedy clustering of complex scalars; returns list of index arrays."""
    n = values.shape[0]
    used = np.zeros(n, dtype=bool)
    order = np.lexsort((values.imag, values.real))
    clusters = []
    for idx in order:
        if used[idx]:
            continue
        members = np.nonzero((np.abs(values - values[idx]) <= radius)
                             & ~used)[0]
        used[members] = True
        clusters.append(members)
    return clusters


def reference_assemble(u0, v, uid, direct):
    """One target's candidates to ``(coords, mults)``, as before."""
    coords = []
    mults = []
    for fiber in reference_cluster_complex(u0, U_FIBER_RADIUS):
        uf, vf = u0[fiber], v[fiber]
        v_clusters = reference_cluster_complex(vf, CLUSTER_RADIUS)
        if direct:
            for members in v_clusters:
                coords.append([uf[members].mean(), vf[members].mean()])
                mults.append(members.size)
            continue
        k = np.unique(uid[fiber]).size
        r = len(v_clusters)
        base, extra = divmod(k, r)
        order = np.argsort([-c.size for c in v_clusters], kind="stable")
        for rank, ci in enumerate(order):
            m = base + (1 if rank < extra else 0)
            if m <= 0:
                continue
            members = v_clusters[ci]
            coords.append([uf[members].mean(), vf[members].mean()])
            mults.append(m)
    return (np.asarray(coords, dtype=np.complex128).reshape(-1, 2),
            np.asarray(mults, dtype=np.int64))


def reference_chart_roots(rows, uid, u, v, direct, b):
    """The former loop over targets around :func:`reference_assemble`."""
    raw = []
    for row in range(b):
        sel = rows == row
        raw.append(reference_assemble(u[sel], v[sel], uid[sel],
                                      bool(direct[row])))
    rep_row = np.repeat(np.arange(b), [c.shape[0] for c, _ in raw])
    coords = np.concatenate([np.empty((0, 2), dtype=np.complex128)]
                            + [c for c, _ in raw])
    mults = np.concatenate([np.empty(0, dtype=np.int64)]
                           + [m for _, m in raw])
    return rep_row, coords, mults


# ---------------------------------------------------------------------------
# random candidate sets shaped like chart solves
# ---------------------------------------------------------------------------

fiber_shape = st.tuples(
    st.integers(1, 3),          # u-copies above the fiber
    st.integers(1, 4),          # distinct v-points in the fiber
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-7]),   # u-copy spread
    st.sampled_from([0.0, 1e-12, 0.3 * CLUSTER_RADIUS]),  # v spread
    st.booleans(),              # drop one candidate (a gated-out pairing)
    st.booleans(),              # add one v-duplicate
    st.booleans(),              # share the previous fiber's v-points
)

row_shape = st.tuples(st.booleans(), st.lists(fiber_shape, max_size=3))


def candidate_batch(shapes, seed):
    """Flat candidates ``(rows, uid, u, v, direct, b)`` in shuffled order."""
    rng = np.random.default_rng(seed)
    rows, uids, us, vs = [], [], [], []
    direct = np.array([d for d, _ in shapes], dtype=bool)
    next_uid = 0
    for row, (_, fibers) in enumerate(shapes):
        v_base = np.empty(0, dtype=np.complex128)
        for copies, n_v, u_spread, v_spread, drop, dup, share in fibers:
            u_base = complex(*rng.uniform(-1, 1, 2))
            if not (share and v_base.size):
                # (two roots with one v-coordinate, as in product maps)
                v_base = rng.uniform(-1, 1, n_v) \
                    + 1j * rng.uniform(-1, 1, n_v)
            entries = []
            for _ in range(copies):
                u = u_base + u_spread * complex(*rng.normal(size=2))
                for vb in v_base:
                    noise = v_spread * complex(*rng.normal(size=2))
                    entries.append((next_uid, u, vb + noise))
                next_uid += 1
            if dup:
                uid, u, vv = entries[int(rng.integers(len(entries)))]
                entries.append((uid, u, vv + 0.3 * CLUSTER_RADIUS))
            if drop and len(entries) > 1:
                entries.pop(int(rng.integers(len(entries))))
            for uid, u, vv in entries:
                rows.append(row)
                uids.append(uid)
                us.append(u)
                vs.append(vv)
    perm = rng.permutation(len(rows))
    return (np.asarray(rows, dtype=np.int64)[perm],
            np.asarray(uids, dtype=np.int64)[perm],
            np.asarray(us, dtype=np.complex128)[perm],
            np.asarray(vs, dtype=np.complex128)[perm],
            direct, len(shapes))


def assert_same_roots(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(row_shape, max_size=12), st.integers(0, 2**32 - 1))
def test_batched_clustering_matches_per_target_loop(shapes, seed):
    batch = candidate_batch(shapes, seed)
    assert_same_roots(_chart_roots(*batch), reference_chart_roots(*batch))


def test_empty_batch_and_rows_without_candidates():
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=complex), np.empty(0, dtype=complex))
    for b in (0, 4):
        batch = empty + (np.zeros(b, dtype=bool), b)
        got = _chart_roots(*batch)
        assert [a.size for a in got] == [0, 0, 0]
        assert_same_roots(got, reference_chart_roots(*batch))


def test_double_fiber_budget_is_split_over_its_v_points():
    # a double u-root (two copies spread by 1e-8) above two v-points, on the
    # resultant path: the fiber's multiplicity 2 goes one to each v-point;
    # on the factorized path each v-cluster keeps its own size
    u = np.array([0.5, 0.5 + 1e-8, 0.5, 0.5 + 1e-8], dtype=np.complex128)
    v = np.array([0.25, 0.25, -0.25, -0.25], dtype=np.complex128)
    rows = np.zeros(4, dtype=np.int64)
    uid = np.array([0, 1, 0, 1])
    _, coords, mults = _chart_roots(rows, uid, u, v, np.array([False]), 1)
    assert mults.tolist() == [1, 1]
    assert np.allclose(coords[:, 1], [-0.25, 0.25])
    _, _, mults = _chart_roots(rows, uid, u, v, np.array([True]), 1)
    assert mults.tolist() == [2, 2]


# ---------------------------------------------------------------------------
# roots: simple and multiple roots in one batch
# ---------------------------------------------------------------------------

def count_eigensolver_calls(monkeypatch):
    """Record the matrices of the eigenvalue solves of
    :func:`polynomial_roots`; a batched solve is one ``eigvals`` call on
    the ``(B, D, D)`` stack of companion matrices, whatever the
    multiplicities.  Quartics call it only for the rows their residual
    certificate rejects."""
    calls = []
    eigvals = np.linalg.eigvals

    def spy(a):
        calls.append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(preimages.np.linalg, "eigvals", spy)
    return calls


def companion(coeffs):
    """The companion matrix of one ascending-coefficient row, made monic."""
    monic = coeffs / coeffs[-1]
    deg = monic.size - 1
    out = np.zeros((deg, deg), dtype=np.complex128)
    out[0] = -monic[-2::-1]
    out[1:, :-1] = np.eye(deg - 1)
    return out


def test_one_eigensolve_resolves_simple_and_multiple_roots(monkeypatch):
    rng = np.random.default_rng(2024)
    simple = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    double = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    double = np.concatenate([double[:, :1], double], axis=1)   # r0 twice
    triple = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    triple = np.concatenate([triple[:, :1], triple[:, :1], triple], axis=1)
    roots = np.concatenate([simple, double, triple])
    coeffs = np.array([np.poly(r)[::-1] for r in roots])
    calls = count_eigensolver_calls(monkeypatch)
    got = polynomial_roots(coeffs)
    # quartics are split in closed form; the certificate rejects none of
    # these rows, double and triple roots included, so nothing is left for
    # the eigensolve
    assert calls == []
    for row in range(simple.shape[0]):
        want = np.sort_complex(np.roots(coeffs[row, ::-1]))
        np.testing.assert_allclose(np.sort_complex(got[row]), want,
                                   rtol=0, atol=1e-10)
    for row in range(20, 26):
        found = got[row][np.argsort(np.abs(got[row] - roots[row, 0]))]
        assert np.abs(found[:2] - roots[row, 0]).max() < 1e-6
        np.testing.assert_allclose(np.sort_complex(found[2:]),
                                   np.sort_complex(roots[row, 2:]),
                                   rtol=0, atol=1e-10)
    for row in range(26, 30):
        found = got[row][np.argsort(np.abs(got[row] - roots[row, 0]))]
        # a triple root is accurate to about eps^(1/3)
        assert np.abs(found[:3] - roots[row, 0]).max() < 1e-4


def test_one_sweep_makes_one_eigensolve_per_degree(monkeypatch):
    # a target is solved first as one row in its own chart: one root solve
    # per degree for the u-roots (the quartic resultant), then one per
    # degree for the v-roots; a target that needs no three-chart sweep
    # makes no more, and its quartic row passes the certificate, so no
    # eigensolve runs at all
    eigensolves = count_eigensolver_calls(monkeypatch)
    solves = []
    roots, u_candidates = preimages.polynomial_roots, preimages._u_candidates

    def spy(coeffs):
        solves.append(np.shape(coeffs))
        return roots(coeffs)

    def marked(*args):
        out = u_candidates(*args)
        solves.append("u-roots done")
        return out

    monkeypatch.setattr(preimages, "polynomial_roots", spy)
    monkeypatch.setattr(preimages, "_u_candidates", marked)
    rng = np.random.default_rng(3)
    target = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    batch = preimages.preimage_batch(lattes_suspension(), target)
    assert batch.rotations.tolist() == [0]
    assert batch.swept.tolist() == [False]  # one pass
    assert solves.count("u-roots done") == 1
    split = solves.index("u-roots done")
    u_stage, v_stage = solves[:split], solves[split + 1:]
    assert u_stage == [(1, 5)]  # one row per target, one quartic
    assert v_stage and all(shape[1] == 3 for shape in v_stage)
    for stage in (u_stage, v_stage):
        degrees = [shape[1] - 1 for shape in stage]
        assert len(degrees) == len(set(degrees)), solves
    assert eigensolves == []


@pytest.mark.parametrize("degree", [2, 4, 7])
def test_one_eigensolve_matches_numpy_on_simple_roots(degree, monkeypatch):
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=(50, degree + 1)) \
        + 1j * rng.normal(size=(50, degree + 1))
    calls = count_eigensolver_calls(monkeypatch)
    got = polynomial_roots(coeffs)
    # quadratics and quartics are solved in closed form; every row of
    # these random quartics passes the certificate
    shapes = [a.shape for a in calls]
    assert shapes == ([] if degree in (2, 4) else [(50, degree, degree)])
    for row in range(coeffs.shape[0]):
        want = np.sort_complex(np.roots(coeffs[row, ::-1]))
        np.testing.assert_allclose(np.sort_complex(got[row]), want,
                                   rtol=1e-9, atol=1e-9)


def test_rejected_quartic_rows_take_one_eigensolve(monkeypatch):
    # x^4 + x^2 + 1e-8 has roots near +-i and +-1e-4 i: the split loses
    # the small pair's relative accuracy, its residual reads about 18,000
    # times the certificate's bound, and only that row of the batch goes
    # to the companion eigensolve, in one call
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    coeffs[3] = [1e-8, 0.0, 1.0, 0.0, 1.0]
    calls = count_eigensolver_calls(monkeypatch)
    got = polynomial_roots(coeffs)
    assert len(calls) == 1 and calls[0].shape == (1, 4, 4)
    # its scale 2^e is 1, so the matrix is the row's own companion
    np.testing.assert_array_equal(calls[0][0], companion(coeffs[3]))
    np.testing.assert_array_equal(
        got[3], np.linalg.eigvals(companion(coeffs[3])[None])[0])
    for row in set(range(7)) - {3}:
        want = np.sort_complex(np.roots(coeffs[row, ::-1]))
        np.testing.assert_allclose(np.sort_complex(got[row]), want,
                                   rtol=0, atol=1e-10)


# the closed-form quadratic: roots of modulus at most 10, coefficients
# scaled by a common factor of modulus 1e-8 to 1e8
_quadratic_root = st.complex_numbers(max_magnitude=10.0)
_coefficient_scale = st.builds(
    lambda exponent, phase: 10.0 ** exponent * np.exp(1j * phase),
    st.floats(-8.0, 8.0), st.floats(0.0, 2 * np.pi))


def quadratic_coeffs(r1, r2, scale):
    """Ascending coefficients of scale (x - r1)(x - r2), one row."""
    return scale * np.array([[r1 * r2, -(r1 + r2), 1.0]])


def paired_error(got, want):
    """Largest distance between two root pairs, matched the better way."""
    return min(np.abs(got - want).max(), np.abs(got - want[::-1]).max())


@settings(max_examples=300, deadline=None)
@given(_quadratic_root, _quadratic_root, _coefficient_scale)
def test_quadratic_roots_match_numpy_on_simple_roots(r1, r2, scale):
    # with coefficients rounded to eps relative, a root moves by at most
    # about 400 eps / |r1 - r2| here: below 1e-11 at the separation assumed
    size = max(1.0, abs(r1), abs(r2))
    assume(abs(r1 - r2) >= 1e-2 * size)
    coeffs = quadratic_coeffs(r1, r2, scale)
    got = polynomial_roots(coeffs)[0]
    assert paired_error(got, np.roots(coeffs[0, ::-1])) <= 1e-10 * size


@settings(max_examples=300, deadline=None)
@given(_quadratic_root, st.one_of(st.just(0.0), st.floats(-14.0, -8.0)),
       st.floats(0.0, 2 * np.pi), _coefficient_scale)
@example(2.225073858507e-311, 0.0, 0.0, 1.0)  # q underflows, p subnormal
def test_quadratic_roots_resolve_double_and_near_double_roots(
        root, gap_exponent, gap_phase, scale):
    # an exact double root (gap 0) or two roots 1e-14 to 1e-8 apart: both
    # are found to about eps^(1/2), the double-root bound of the eigensolve
    gap = 10.0 ** gap_exponent * np.exp(1j * gap_phase) if gap_exponent \
        else 0.0
    size = max(1.0, abs(root))
    coeffs = quadratic_coeffs(root, root + gap, scale)
    got = polynomial_roots(coeffs)[0]
    assert np.abs(got - root).max() <= 1e-6 * size
    assert paired_error(got, np.roots(coeffs[0, ::-1])) <= 1e-6 * size


@pytest.mark.parametrize("r1, r2", [
    (-1e200, -1e-200),          # q = 1 and p = 1e200: p^2 overflows
    (1e154 * (1 + 1j), 2.0),    # p^2 overflows
    (1e-170, 0.0),              # p^2 underflows, q = 0
    (3e-311, 0.0),              # p subnormal, q = 0
])
def test_quadratic_roots_keep_relative_accuracy_across_the_range(r1, r2):
    # with coefficients rounded to eps relative, each root of these well
    # separated pairs is determined to a few eps of its own modulus
    got = polynomial_roots(quadratic_coeffs(r1, r2, 1.0))[0]
    assert np.isfinite(got).all()
    for r in (r1, r2):
        assert np.abs(got - r).min() <= 4 * np.finfo(float).eps * abs(r)


# the closed-form quartic, on the same roots and coefficient scales
def quartic_coeffs(roots, scale):
    """Ascending coefficients of scale (x - r_1) ... (x - r_4), one row."""
    return scale * np.poly(np.asarray(roots, dtype=np.complex128))[None, ::-1]


def matched_error(got, want):
    """Largest distance between two root sets, matched the best way."""
    return min(np.abs(got[list(perm)] - want).max()
               for perm in itertools.permutations(range(want.size)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_quadratic_root, min_size=4, max_size=4), _coefficient_scale)
def test_quartic_roots_match_numpy_on_simple_roots(roots, scale):
    # both solvers are backward stable to a few eps of the coefficients;
    # a root moves by the backward error times sum_j |c_j| |r|^j / |p'(r)|,
    # at most 16 size^4 / (1e-2 size)^3 = 1.6e7 size at this separation,
    # but only when three roots crowd within 2e-2 size: over 23,000 draws
    # the worst disagreement read 1.8e-12 size
    size = max(1.0, *map(abs, roots))
    assume(min(abs(a - b) for a, b in itertools.combinations(roots, 2))
           >= 1e-2 * size)
    coeffs = quartic_coeffs(roots, scale)
    got = polynomial_roots(coeffs)[0]
    assert matched_error(got, np.roots(coeffs[0, ::-1])) <= 1e-10 * size


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4]), _quadratic_root,
       st.lists(_quadratic_root, min_size=2, max_size=2), _coefficient_scale)
def test_quartic_roots_resolve_multiple_roots(mult, root, others, scale):
    # a root of multiplicity m moves by (eta sum_j |c_j| |r|^j / |rest|)^(1/m)
    # for a backward error eta (<= 24 eps where the certificate passes);
    # with every other root at least size / 2 away, |rest| >= (size /
    # 2)^(4-m), that is at most (384 eps 2^(4-m))^(1/m) size: 5.8e-7,
    # 5.5e-5 and 5.4e-4 for m = 2, 3, 4, inside the eigensolve's bounds
    # (over 13,000 draws: 5.8e-8, 1.8e-5, 2.3e-4)
    others = others[:4 - mult]
    size = max(1.0, abs(root), *map(abs, others))
    assume(all(abs(other - root) >= 0.5 * size for other in others))
    assume(len(others) < 2 or abs(others[0] - others[1]) >= 1e-2 * size)
    got = polynomial_roots(quartic_coeffs([root] * mult + others, scale))[0]
    bound = {2: 1e-6, 3: 1e-4, 4: 1e-3}[mult]
    assert np.sort(np.abs(got - root))[:mult].max() <= bound * size


@pytest.mark.parametrize("lead, big", [(1e-300, 1e150), (1e300, 1e-150)])
def test_quartic_roots_keep_relative_accuracy_across_the_range(lead, big):
    # lead (x - big r_1) ... (x - big r_4): the monic coefficients would
    # overflow (underflow) before any scaling, but each root of this well
    # separated set is determined to a few eps of its own modulus
    roots = np.array([1.0, -2.0, 1j, 0.5 + 0.5j])
    coeffs = lead * np.poly(roots)[::-1]
    for k in range(1, 5):  # c_j times big^(4 - j), without overflow
        coeffs[:5 - k] *= big
    got = polynomial_roots(coeffs[None])[0]
    assert np.isfinite(got).all()
    for r in big * roots:
        assert np.abs(got - r).min() <= 8 * np.finfo(float).eps * abs(r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_non_finite_quartic_coefficients_are_rejected(bad):
    coeffs = np.array([[1.0, 2.0, 1.0, 0.5, 1.0],
                       [1.0, bad, 1.0, 0.5, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        polynomial_roots(coeffs)
    with pytest.raises(ValueError, match="non-finite"):
        polynomial_roots(coeffs[:, ::-1])  # in the leading coefficient


# ---------------------------------------------------------------------------
# resultant: closed-form node values against the Sylvester determinant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m1, m2, degree", [
    (2, 2, 2), (2, 1, 2), (1, 2, 2), (1, 1, 2), (3, 1, 3), (1, 3, 3),
    (2, 2, 3)])
def test_resultant_closed_forms_equal_sylvester_determinants(
        m1, m2, degree, monkeypatch):
    rng = np.random.default_rng(10 * m1 + m2)
    shape = (6, degree + 1, degree + 1)
    g1, g2 = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
              for _ in range(2))
    g1[..., m1 + 1:], g2[..., m2 + 1:] = 0.0, 0.0
    k = 2 * degree * degree + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    # Sylvester matrices (6, K, m1 + m2, m1 + m2): m2 shifted rows of g1's
    # descending v-coefficients, then m1 rows of g2's, at each node
    a = np.einsum("bij,ki->bkj", g1, nodes[:, None] ** np.arange(degree + 1))
    b = np.einsum("bij,ki->bkj", g2, nodes[:, None] ** np.arange(degree + 1))
    syl = np.zeros((6, k, m1 + m2, m1 + m2), dtype=np.complex128)
    for r in range(m2):
        syl[:, :, r, r:r + m1 + 1] = a[:, :, m1::-1]
    for r in range(m1):
        syl[:, :, m2 + r, r:r + m2 + 1] = b[:, :, m2::-1]
    want = np.linalg.det(syl)
    calls = []
    monkeypatch.setattr(preimages.np.linalg, "det",
                        lambda m: calls.append(m.shape))
    coeffs = preimages._sylvester_resultant_coeffs(g1, g2, m1, m2, degree)
    assert calls == []  # no LU at all for these shapes
    got = k * np.fft.ifft(coeffs, axis=1)  # back to the node values
    rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert rel.max() <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_non_finite_coefficients_are_rejected(bad):
    coeffs = np.array([[1.0, 2.0, 1.0], [1.0, bad, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        polynomial_roots(coeffs)
    with pytest.raises(ValueError, match="non-finite"):
        polynomial_roots(coeffs[:, ::-1])  # in the leading coefficient


# ---------------------------------------------------------------------------
# the Horner helper behind every bivariate evaluation of the solve
# ---------------------------------------------------------------------------

def horner_2d(c, u, v):
    """Value and both partials of c[n, a, b] u^a v^b at each row n, the way
    the Newton step reads them: a pass over v with its slope, one over u
    with its slope, one over u of the v-slopes."""
    at_v, slope_v = preimages._horner(c.transpose(2, 1, 0), v, slope=True)
    value, d_u = preimages._horner(at_v, u, slope=True)
    return value, d_u, preimages._horner(slope_v, u)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_horner_matches_polyval2d_and_its_partials(degree):
    # Horner's rule in one variable makes one product and one sum per
    # coefficient, each within sqrt(5) u and u of its exact value (u =
    # 2^-53, Higham Lemma 3.5), so a value is within 2 (sqrt(5) + 1) n u of
    # sum_j |c_j| |x|^j, n the degree (Higham 5.1); the slope recurrence
    # takes one more product and sum per step.  Both passes (over v, then
    # u) stay within 4 (sqrt(5) + 1) (2 n + 1) u of the absolute
    # polynomial (|c| at |u|, |v|), and numpy's polyval2d within the same
    # of the exact value: a factor 2 covers the pair
    rng = np.random.default_rng(degree)
    n = 300
    c = rng.normal(size=(n, degree + 1, degree + 1, 2)) @ [1.0, 1j]
    u, v = rng.normal(size=(2, n, 2)) @ [1.0, 1j] * rng.uniform(0.2, 2, (2, n))
    got = horner_2d(c, u, v)
    bound = 8 * (np.sqrt(5) + 1) * (2 * degree + 1) * 2.0 ** -53
    for n_row in range(n):
        cn, un, vn = c[n_row], u[n_row], v[n_row]
        for k, coef in enumerate((cn, P.polyder(cn, axis=0),
                                  P.polyder(cn, axis=1))):
            want = P.polyval2d(un, vn, coef)
            scale = P.polyval2d(abs(un), abs(vn), np.abs(coef))
            assert abs(got[k][n_row] - want) <= bound * scale
    # every product is elementwise and out of place: a row alone gets the
    # same bits as in the batch, also in batches below and above the size
    # where numpy reuses a temporary as a product's output
    for rows in ([7], [3, 4], list(range(40))):
        alone = horner_2d(c[rows], u[rows], v[rows])
        for k in range(3):
            assert np.array_equal(alone[k], got[k][rows])
    big = np.resize(np.arange(n), 12_000)
    whole = horner_2d(c[big], u[big], v[big])
    for k in range(3):
        assert np.array_equal(whole[k][:n], got[k])
