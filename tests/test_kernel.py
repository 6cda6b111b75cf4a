"""The map evaluation kernel against a term-by-term reference.

``HomogeneousMap`` evaluates its components and their partials with one
term-by-term kernel over the union of the monomial supports.  The reference
below evaluates each component separately, term by term, with its own power
table; it is the kernel the library used before the shared basis.  Sparse
supports often share a zero, which no map may have, so the reference and
the (zw, wt, tz) case run on the kernel itself, ``_SupportKernel``.

Tolerance, fixed from float64 before running: on sup-normalized points
every monomial has modulus <= 1.  Either evaluation forms a monomial of
degree <= 8 with at most 7 complex multiplications (relative error
<= sqrt(5) u each, u = 2**-53) and sums at most 45 terms (<= 45 u of the
absolute sum), and the kernel's re-normalization of its input costs <= 8 u
more.  One evaluation is therefore within about 70 u * sum|c| ~ 8e-15
sum|c| of the exact value, two of them within 1.6e-14 sum|c|; the test
allows 1e-13 sum|c|, per component and per partial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2dyn.green import GreenEvaluator, escape_rate
from p2dyn.projective import (
    HomogeneousMap,
    _partial_table,
    _SupportKernel,
    sup_normalize,
)
from p2dyn.zoo import lattes_suspension, power_map, standard_zoo

KERNEL_RTOL = 1e-13


def eval_terms(exps, coeffs, points):
    """Evaluate sum coeffs * z^i w^j t^k on an (N, 3) array, term by term."""
    n = points.shape[0]
    dmax = int(exps.max())
    pows = np.empty((3, n, dmax + 1), dtype=np.complex128)
    pows[:, :, 0] = 1.0
    for var in range(3):
        col = points[:, var]
        for e in range(1, dmax + 1):
            pows[var, :, e] = pows[var, :, e - 1] * col
    vals = (pows[0][:, exps[:, 0]]
            * pows[1][:, exps[:, 1]]
            * pows[2][:, exps[:, 2]])
    return vals @ coeffs


def table_arrays(table):
    exps = np.asarray(list(table), dtype=np.int64).reshape(-1, 3)
    coeffs = np.asarray(list(table.values()), dtype=np.complex128)
    return exps, coeffs


def random_tables(rng, degree, density, real=False):
    """Three tables of one degree; each monomial kept with ``density``,
    with real or complex coefficients."""
    monomials = [(a, b, degree - a - b) for a in range(degree + 1)
                 for b in range(degree + 1 - a)]
    tables = []
    for _ in range(3):
        keep = rng.random(len(monomials)) < density
        keep[rng.integers(len(monomials))] = True  # never identically zero
        tables.append({m: complex(rng.normal(), 0.0 if real else rng.normal())
                       for m, k in zip(monomials, keep) if k})
    return tables


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(2, 8),
       density=st.sampled_from([0.1, 0.4, 1.0]),
       batch=st.integers(1, 1000),
       real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_term_by_term_reference(degree, density, batch, real,
                                               seed):
    # the value and partial kernels a map with these tables would hold
    rng = np.random.default_rng(seed)
    tables = random_tables(rng, degree, density, real)
    kernel = _SupportKernel(tables)
    partials = _SupportKernel([_partial_table(table, var)
                               for table in tables for var in range(3)])
    pts = sup_normalize(rng.normal(size=(batch, 3))
                        + 1j * rng.normal(size=(batch, 3)))
    values = kernel(pts)
    jac = partials(pts).reshape(batch, 3, 3)
    powers = np.empty((degree, 3, batch), dtype=np.complex128)
    powers[0] = pts.T
    columns = kernel.sums(powers, powers[0])
    assert values.shape == (batch, 3) and jac.shape == (batch, 3, 3)
    assert columns.shape == (3, batch) and np.shares_memory(columns, powers)
    for comp, table in enumerate(tables):
        exps, coeffs = table_arrays(table)
        tol = KERNEL_RTOL * np.sum(np.abs(coeffs))
        ref = eval_terms(exps, coeffs, pts)
        assert np.max(np.abs(values[:, comp] - ref)) <= tol
        assert np.max(np.abs(columns[comp] - ref)) <= tol
        for var in range(3):
            dtable = _partial_table(table, var)
            if not dtable:
                assert np.all(jac[:, comp, var] == 0.0)
                continue
            dexps, dcoeffs = table_arrays(dtable)
            dtol = KERNEL_RTOL * np.sum(np.abs(dcoeffs))
            dref = eval_terms(dexps, dcoeffs, pts)
            assert np.max(np.abs(jac[:, comp, var] - dref)) <= dtol


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_each_row_is_the_same_alone(degree):
    # the kernel adds each entry's coefficient-times-monomial products in
    # one fixed order, and every product is elementwise, not in place and
    # from named operands, so a row gets the same bits alone as in any
    # batch: here dense supports (second and third monomial factors), a
    # 20,000-row batch (past the size where numpy reuses a temporary as a
    # product's output) and its first 300 rows alone
    rng = np.random.default_rng(degree)
    maps = [HomogeneousMap(random_tables(rng, degree, 1.0, real))
            for real in (False, True)] + [lattes_suspension()]
    pts = sup_normalize(rng.normal(size=(20_000, 3))
                        + 1j * rng.normal(size=(20_000, 3)))
    for f in maps:
        values, jac = f.polynomial_batch(pts), f.jacobian_h_batch(pts)
        images, ok = f.evaluate_batch_safe(pts)
        for i in range(300):
            one = pts[i:i + 1]
            assert np.array_equal(f.polynomial_batch(one)[0], values[i])
            assert np.array_equal(f.jacobian_h_batch(one)[0], jac[i])
            assert np.array_equal(f.evaluate_batch_safe(one)[0][0],
                                  images[i])
        assert ok.all()


def test_power_map_support_has_three_monomials():
    f = HomogeneousMap([{(3, 0, 0): 1.0}, {(0, 3, 0): 1.0},
                        {(0, 0, 3): 1.0}])
    assert f._values.matrix.shape == (3, 3)
    assert f._partials.matrix.shape == (3, 9)


def phase_conjugate(f, a, b):
    """``D^-1 F D`` for ``D = diag(e^(ia), e^(ib), 1)``: complex
    coefficients on a real map's support."""
    scale = np.exp(1j * np.array([a, b, 0.0]))
    return HomogeneousMap(
        [{key: c * np.prod(scale ** np.array(key)) / scale[comp]
          for key, c in table.items()}
         for comp, table in enumerate(f.tables)], name=f.name + ".phased")


def kernels():
    """(value kernel, degree) of the zoo, two phase-conjugated maps and
    dense complex maps of degree 2-4, and of (zw, wt, tz), whose monomials
    read only the first power (top 1) and share the coordinate points as
    zeros, so that no map holds it."""
    zoo = {family.name: family.map for family in standard_zoo()}
    maps = dict(zoo)
    for name in ("power2", "lattes_suspension"):
        maps[name + ".phased"] = phase_conjugate(zoo[name], 0.7, -2.1)
    rng = np.random.default_rng(17)
    for degree in (2, 3, 4):
        maps["dense%d" % degree] = HomogeneousMap(
            random_tables(rng, degree, 1.0))
    out = {name: (f._values, f.degree) for name, f in maps.items()}
    out["zw_wt_tz"] = (_SupportKernel([{(1, 1, 0): 1.0}, {(0, 1, 1): 1.0},
                                       {(1, 0, 1): 1.0}]), 2)
    return out


KERNELS = kernels()


def power_table(degree, pts):
    table = np.empty((degree, 3, pts.shape[0]), dtype=np.complex128)
    table[0] = pts.T
    return table


@pytest.mark.parametrize("name", list(KERNELS))
def test_columns_and_batch_are_one_kernel(name):
    # the escape-rate loop evaluates in place on a power table
    # (polynomial_columns), every other caller on a batch of rows
    # (polynomial_batch): one kernel gives both the same bits
    kernel, degree = KERNELS[name]
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(2_000, 3)) + 1j * rng.normal(size=(2_000, 3))
    batch = kernel(pts)
    table = power_table(degree, pts)
    columns = kernel.sums(table, table[0])
    bits = [np.ascontiguousarray(rows).view(np.uint64)
            for rows in (columns.T, batch)]
    differ = np.flatnonzero(np.any(bits[0] != bits[1], axis=1))
    assert differ.size == 0, "rows %s differ" % differ[:10]


@pytest.mark.parametrize("degree", [2, 3])
def test_power_map_monomials_are_read_in_place(degree):
    pts = sup_normalize(np.random.default_rng(4).normal(size=(50, 3)))
    table = power_table(degree, pts)
    rows = power_map(degree)._values.monomials(table)
    assert len(rows) == 3
    assert all(np.shares_memory(row, table) for row in rows)


@pytest.mark.parametrize("name", ["dense2", "dense3", "dense4", "zw_wt_tz"])
def test_no_monomial_reads_the_entry_the_sums_write(name):
    # polynomial_columns writes F into table[0] while it sums: single
    # powers of degree >= 2 lie in later entries, mixed ones are new arrays
    kernel, degree = KERNELS[name]
    rng = np.random.default_rng(5)
    table = power_table(degree, rng.normal(size=(50, 3)) + 0j)
    rows = kernel.monomials(table)
    for row, factors in zip(rows, kernel.factors):
        assert not np.shares_memory(row, table[0])
        assert np.shares_memory(row, table) == (len(factors) == 1)


class TestNonFiniteRows:
    """Zero, NaN and infinite rows are errors, never silent NaN values."""

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, np.inf, 2.0],
        [complex(0.0, np.nan), 1.0, 1.0]])
    def test_sup_normalize_and_evaluate_reject(self, bad):
        pts = np.array([[1.0, 2.0, 3.0], bad], dtype=np.complex128)
        with pytest.raises(ValueError):
            sup_normalize(pts)
        with pytest.raises(ValueError):
            lattes_suspension().evaluate_batch(pts)

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, -np.inf, 2.0]])
    def test_escape_rate_rejects(self, bad):
        ev = GreenEvaluator(lattes_suspension(), depth=5)
        pts = np.array([bad, [1.0, 2.0, 3.0]], dtype=np.complex128)
        for norm in ("sup", "2"):
            with pytest.raises(ValueError):
                escape_rate(ev, pts, norm=norm)

    def test_safe_evaluation_masks_bad_rows(self):
        f = lattes_suspension()
        pts = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 0.0],
                        [0.0, 0.0, 0.0], [np.inf, 0.0, 1.0]],
                       dtype=np.complex128)
        out, ok = f.evaluate_batch_safe(pts)
        assert ok.tolist() == [True, False, False, False]
        assert np.all(np.isfinite(out.view(np.float64)))
        np.testing.assert_allclose(out[0], f.evaluate_batch(pts[:1])[0],
                                   rtol=1e-15)


def test_row_division_is_correctly_rounded():
    # dividing a row by its scale must equal dividing the real and the
    # imaginary parts separately, bit for bit (numpy's complex-by-real
    # division multiplies by a rounded reciprocal instead)
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    scale = np.abs(pts).max(axis=1)[:, None]
    got = sup_normalize(pts)
    assert np.array_equal(got.real, pts.real / scale)
    assert np.array_equal(got.imag, pts.imag / scale)
    f = lattes_suspension()
    raw = f.polynomial_batch(got)
    image = f.evaluate_batch(pts)
    scale = np.abs(raw).max(axis=1)[:, None]
    assert np.array_equal(image.real, raw.real / scale)
    assert np.array_equal(image.imag, raw.imag / scale)


def test_zero_row_batches_evaluate_to_empty_arrays():
    # an empty batch is a batch: the kernel's power table must not need a
    # row to infer its shape
    f = lattes_suspension()
    empty = np.empty((0, 3), dtype=np.complex128)
    assert f.polynomial_batch(empty).shape == (0, 3)
    assert f.evaluate_batch(empty).shape == (0, 3)
    images, ok = f.evaluate_batch_safe(empty)
    assert images.shape == (0, 3) and ok.shape == (0,)
