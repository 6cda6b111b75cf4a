"""The closed-form tangent bases and cocycle factors against their references.

:func:`~p2dyn.sampler.tangent_basis_batch` writes out, row by row, the
unitary factor that LAPACK's Householder QR gives for [p, e_i, e_j], and
:func:`~p2dyn.sampler.chained_factors` sums B_out^H DF B_in term by term.
The references here are the code they replaced: ``np.linalg.qr`` on the
stacked matrices and a three-operand ``np.einsum``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2dyn.projective import CHART_OTHERS_INDEX, sup_normalize
from p2dyn.sampler import (
    chained_factors,
    sample_equilibrium,
    tangent_basis_batch,
)
from p2dyn.slices import axis_chart
from p2dyn.zoo import chebyshev_product, lattes_suspension


def qr_basis(points):
    """Columns 1 and 2 of ``np.linalg.qr`` of [p / |p|, e_i, e_j]."""
    n = points.shape[0]
    stack = np.zeros((n, 3, 3), dtype=np.complex128)
    stack[:, :, 0] = points / np.linalg.norm(points, axis=1)[:, None]
    others = CHART_OTHERS_INDEX[np.argmax(np.abs(points), axis=1)]
    stack[np.arange(n), others[:, 0], 1] = 1.0
    stack[np.arange(n), others[:, 1], 2] = 1.0
    return np.linalg.qr(stack)[0][:, :, 1:]


def einsum_factors(f, chain):
    """B_out^H . DF(p) . B_in * |p| / |F(p)| for each step of a chain."""
    width = chain.shape[1]
    sup = sup_normalize(chain.reshape(-1, 3))
    bases = tangent_basis_batch(sup)
    raw = f.polynomial_batch(sup[:-width])
    scale = np.linalg.norm(sup[:-width], axis=1) / np.linalg.norm(raw, axis=1)
    mats = np.einsum("nji,njk,nkl->nil", bases[width:].conj(),
                     f.jacobian_h_batch(sup[:-width]), bases[:-width])
    return (mats * scale[:, None, None]).reshape(chain.shape[0] - 1, width,
                                                 2, 2)


def edge_rows():
    """Standard basis vectors, purely imaginary rows, zero coordinates and
    modulus ties.

    No coordinate has real and imaginary parts of one modulus (1 + i,
    say): with a real top coordinate that makes a pivot exactly real, and
    LAPACK's fused multiply-adds then leave a rounding residual in its
    imaginary part where exact arithmetic, and the closed form, leave
    none, so the two take different branches of ``zlarfg``.
    """
    eye = np.eye(3)
    rows = [sign * eye[k] for k in range(3) for sign in (1, -1, 1j, -1j)]
    values = [0.0, 2.0, -0.5, 0.3 - 0.8j, 1.1j]
    rows += [[a, b, c] for a in values for b in values for c in values
             if a or b or c]
    rows += [1j * np.array(row) for row in ([1, -2, 0.5], [0, 3, -1],
                                            [2, 2, 0], [0.7, 0, 0])]
    phases = np.exp(1j * np.array([0.0, 0.5, 1.0, 2.0, -2.5, np.pi]))
    rows += [[a, b, c] for a in phases for b in phases[:3] for c in (1, -1)]
    rows += [[2.0, 2.0 * phases[1], 0.3], [0.1, -1j, 1.0], [1j, 1.0, 1.0]]
    return np.array(rows, dtype=np.complex128)


@pytest.fixture(scope="module")
def walk_chain():
    """24 levels of 200 suspension walkers: the 4,600 factor rows and
    4,800 points that an exponent estimate reads from a depth-23 sample."""
    sample = sample_equilibrium(lattes_suspension(), depth=23, count=200,
                                seed=11)
    return sample.paths.transpose(1, 0, 2)


@pytest.mark.parametrize("kind", ["complex", "real", "edge"])
def test_basis_matches_lapack_qr(kind):
    rng = np.random.default_rng(28)
    pts = {"complex": rng.normal(size=(2000, 3))
           + 1j * rng.normal(size=(2000, 3)),
           "real": rng.normal(size=(500, 3)) + 0j,
           "edge": edge_rows()}[kind]
    got = tangent_basis_batch(pts)
    assert got.shape == (len(pts), 3, 2)
    assert np.abs(got - qr_basis(pts)).max() <= 4e-15


def test_basis_of_walker_points_matches_lapack_qr(walk_chain):
    # walker lifts come from charts, so the top coordinate is exactly 1
    pts = walk_chain.reshape(-1, 3)
    assert np.abs(tangent_basis_batch(pts) - qr_basis(pts)).max() <= 4e-15


coords = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                   st.floats(-1e100, -1e-100))


@settings(max_examples=200, deadline=None)
@given(st.lists(coords, min_size=6, max_size=6).filter(any),
       st.integers(-600, 600))
@example([0.3, -1.2, 0.7, 0.5, 0.0, -2.0], 600)
@example([0.3, -1.2, 0.7, 0.5, 0.0, -2.0], -600)
def test_basis_is_orthonormal_normal_to_p_and_scale_free(parts, k):
    row = np.array(parts[:3]) + 1j * np.array(parts[3:])
    basis = tangent_basis_batch(row[None, :])[0]
    assert np.abs(basis.conj().T @ basis - np.eye(2)).max() <= 1e-14
    unit = sup_normalize(row)[0]
    unit /= np.linalg.norm(unit)
    assert np.abs(unit.conj() @ basis).max() <= 1e-14
    scaled = tangent_basis_batch(np.ldexp(1.0, k) * row[None, :])[0]
    assert np.array_equal(scaled, basis)


@pytest.mark.parametrize("row, k", [([1e200, 1e200, 1.0], -664),
                                    ([1e-200, 2e-200, 1e-200], 664)])
def test_extreme_rows_have_the_basis_of_a_scaled_copy(row, k):
    # a 2-norm of the raw row overflows or underflows to zero; that of the
    # sup-normalized row cannot
    row = np.array(row, dtype=np.complex128)
    copy = row * 2.0 ** k
    basis = tangent_basis_batch(row[None, :])[0]
    assert np.array_equal(tangent_basis_batch(copy[None, :])[0], basis)
    f = chebyshev_product()
    chart = axis_chart(f, row, domain_radius=0.1)
    assert np.all(np.isfinite(chart.frame.base_lift))
    assert np.array_equal(chart.frame.tangent_basis,
                          axis_chart(f, copy, domain_radius=0.1)
                          .frame.tangent_basis)


def test_chained_factors_match_the_einsum_reference(walk_chain):
    got = chained_factors(lattes_suspension(), walk_chain)
    want = einsum_factors(lattes_suspension(), walk_chain)
    assert got.shape == want.shape == (23, 200, 2, 2)
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_each_row_is_the_same_alone(walk_chain):
    # elementwise forms only: a row's bits do not depend on its batch
    f = lattes_suspension()
    pts = walk_chain[:-1].reshape(-1, 3)
    bases = tangent_basis_batch(pts)
    factors = chained_factors(f, walk_chain)
    assert len(pts) == 4600
    for i, row in enumerate(pts):
        assert np.array_equal(tangent_basis_batch(row[None, :])[0],
                              bases[i])
    for level in range(len(walk_chain) - 1):
        for walker in range(walk_chain.shape[1]):
            alone = chained_factors(
                f, walk_chain[level:level + 2, walker:walker + 1])
            assert np.array_equal(alone[0, 0], factors[level, walker])
