"""All d^2 preimages of a point under an endomorphism of the projective plane.

Each target is solved first in its own (largest-coordinate) chart, which
holds every preimage under a power map: write the preimage condition as
two bivariate polynomial equations, eliminate v with a Sylvester resultant
(:func:`_sylvester_resultant_coeffs`), find its roots u
(:func:`polynomial_roots`), back-substitute them for v, cluster the pairs
into distinct roots with multiplicities, refine each with a damped 2D
Newton step, and certify the count against the Bezout number d^2.  A
target left short (a root at infinity of its chart, say) gets the
three-chart sweep, whose charts partition the preimages, and then up to
three unitary changes of coordinates.

Everything is batched, so thousands of simultaneous preimage queries (one
per backward-orbit walker) cost a handful of vectorized passes per solve:
one root solve per degree of the u-polynomials and one per v-degree, and
Newton loops that drop each row once it has converged.  Roots of degree 1,
2 (the v back-substitution of every quadratic map) and 4 (its u-resultant,
certified row by row) and the resultant of two quadratics, or of a pair
with one equation linear in v, are closed forms evaluated for the whole
batch at once: LAPACK works one small matrix at a time, and at these sizes
its per-matrix dispatch dominated those stages.  Other degrees and
rejected quartic rows take one batched companion eigensolve, other
resultants one batched LU.  Resultant node values are one stacked matrix
product per equation and pair of v-degrees; every other bivariate
polynomial goes through the batch-last Horner helper :func:`_horner`.
Each root's residual is measured once, at its gate, and travels with it.
Every stage works row by row, so a target's results do not depend on the
rest of its batch.  :func:`preimage_batch` returns a :class:`PreimageBatch`
whose ``(B, d^2, 3)`` lifts are in the one canonical branch order that the
backward walkers draw from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreimageSolverError
from .projective import (
    CHART_OTHERS_INDEX,
    MAX_DEGREE,
    HomogeneousMap,
    as_point_array,
    chart_indices,
    chart_normalize,
    fs_distance_batch,
    lift_from_chart,
    one_point,
    substitute_linear,
)

#: candidates closer than this in chart coordinates form one root
CLUSTER_RADIUS = 1e-8

#: pre-clustering residual gate (projective distance of f(root) to target)
RESIDUAL_GATE = 1e-8

#: relative tolerance for both chart equations at a raw (u, v) candidate;
#: genuine pairings satisfy both at root-finder accuracy, spurious pairings
#: (a true u matched with a v-root belonging to a different fiber point)
#: miss by an O(1) amount
PAIR_GATE = 1e-5

#: u-values closer than this share one fiber for multiplicity bookkeeping
#: (looser than CLUSTER_RADIUS: copies of a multiple resultant root spread
#: by roughly the root-finder's multiple-root accuracy)
U_FIBER_RADIUS = 1e-6

#: slack of the unit-bidisk gate max(|u|, |v|) <= 1 + slack, which also
#: drops u-roots outside the disk before back-substitution
BIDISK_SLACK = 1e-9

#: relative floor below which polynomial coefficients count as zero
TRIM_REL = 1e-10

#: maximum deterministic coordinate rotations before giving up
MAX_ROTATIONS = 3

_ROTATION_SEED = 718293541

#: cap on the damped Newton steps that polish each 2D root, and the
#: relative step after which a row stops early (see :func:`_newton_refine`)
NEWTON_STEPS = 14
NEWTON_STOP = 1e-9


# ---------------------------------------------------------------------------
# univariate roots
# ---------------------------------------------------------------------------

def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each row of ascending-coefficient polynomials.

    Rows share one degree D; returns a (B, D) array.  Degrees 1, 2 and 4
    have closed forms, a few vectorized passes for the whole batch: of the
    monic x^2 + p x + q, r1 = :func:`_larger_root` and r2 = q / r1 (0 if
    q = 0); quartics by :func:`_quartic_roots`.  Other degrees and the
    quartic rows its certificate rejects take the eigenvalues of the monic
    companion matrices in one ``np.linalg.eigvals`` call (LAPACK ``geev``
    balances each first).  All are backward stable: a simple root is
    accurate to about eps times its condition number, a root of
    multiplicity m to about eps^(1/m).  Each row is solved on its own.  A
    zero leading or a non-finite coefficient raises ``ValueError``.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    b, deg = coeffs.shape[0], coeffs.shape[1] - 1
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite coefficient in polynomial_roots")
    if deg == 0:
        return np.empty((b, 0), dtype=np.complex128)
    lead = coeffs[:, -1]
    if not lead.all():
        raise ValueError("zero leading coefficient in polynomial_roots")
    if deg == 4:
        return _quartic_roots(coeffs)
    monic = coeffs / lead[:, None]
    if deg == 1:
        return -monic[:, :1]
    if deg == 2:
        q, p = monic[:, 0], monic[:, 1]
        # r1 from x / 2^e, 2^e the binade of max(|p|, |q|^(1/2)) kept
        # normal: the scaling is exact, and p^2 neither overflows nor
        # underflows; r2 from the unscaled q, as |r1| >= |q|^(1/2) is normal
        # unless q = 0 (then r2 = 0)
        e = np.frexp(np.maximum(np.abs(p), np.sqrt(np.abs(q))))[1]
        inv = np.ldexp(1.0, np.minimum(np.maximum(-e, -1020), 1020))
        out = np.empty((b, 2), dtype=np.complex128)
        out[:, 0] = big = _larger_root(p * inv, q * inv * inv) / inv
        np.divide(q, np.where(q != 0, big, 1.0), out=out[:, 1])
        return out
    return _companion_roots(monic)


def _companion_roots(monic: np.ndarray) -> np.ndarray:
    b, deg = monic.shape[0], monic.shape[1] - 1
    companion = np.zeros((b, deg, deg), dtype=np.complex128)
    companion[:, 0] = -monic[:, -2::-1]
    companion.reshape(b, -1)[:, deg::deg + 1] = 1.0  # the subdiagonal
    return np.linalg.eigvals(companion)


def _larger_root(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """-(p + s sqrt(p^2 - 4 q)) / 2, the larger root of x^2 + p x + q, with
    s = +-1 such that Re(conj(p) s sqrt(.)) >= 0: the sum never cancels."""
    root = np.sqrt(p * p - 4.0 * q)
    root *= np.copysign(1.0, (p.conj() * root).real)
    return -0.5 * (p + root)


#: cube roots of unity; 4 - j for j < 4; j - 4 for j <= 4
_CUBE_ROOTS = np.exp(2j * np.pi / 3 * np.arange(3))
_CODEGREE, _DEGREE_GAP = np.arange(4, 0, -1), np.arange(-4, 1)


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of (B, 5) quartic rows by a certified split into quadratics.

    x = 2^e y, e = max_j ceil((E_j - E_4) / (4 - j)) over nonzero c_j (E
    binary exponents), is exact, forms no overflowing ratio and makes
    |a_j| < 2, a_j = c_j 2^(e (j - 4)) / c_4.  With y = z - a_3 / 4, z^4 +
    p z^2 + q z + r = (z^2 - w z + h + g) (z^2 + w z + h - g), h = (p +
    s) / 2, g = q / 2w, s = w^2 the largest of Cardano's roots of s^3 + 2
    p s^2 + (p^2 - 4 r) s - q^2.  kappa: Horner rounds a_j y^j through at
    most 4 complex products (2 sqrt(2) u each, Higham Lemma 3.5) and 4
    sums (u each), by 4 (2 sqrt(2) + 1) u = 7.7 eps of sum_j |a_j| |y|^j at
    most; kappa = 16 passes every backward error |P(y)| / sum_j |a_j| |y|^j
    below 8 eps, none above 24 eps.  The factors' product misses the
    quartic only in its constant term, the residual at every root: a row
    passing at all four roots is the root set of one nearby quartic.
    """
    mags = np.abs(coeffs)
    exps = np.frexp(mags)[1]
    rel = (exps[:, :4] - exps[:, 4:] + _CODEGREE - 1) // _CODEGREE
    e = np.maximum.reduce(np.where(mags[:, :4] > 0, rel, -1100), axis=1)
    shift = _DEGREE_GAP * e[:, None] - exps[:, 4:]
    scaled = np.ldexp(coeffs.real, shift) + 1j * np.ldexp(coeffs.imag, shift)
    scaled /= scaled[:, 4:]
    a0, a1, a2, a3, _ = scaled.T
    c, c2 = 0.25 * a3, 0.0625 * a3 * a3
    p = a2 - 6.0 * c2
    q = a1 - c * (2.0 * a2 - 8.0 * c2)
    r = a0 - c * (a1 - c * (a2 - 3.0 * c2))
    p3 = -(p * p / 9.0 + 4.0 / 3.0 * r)
    u = np.power(_larger_root(p * (8.0 / 3.0 * r - 2.0 / 27.0 * p * p)
                              - q * q, -p3 * p3 * p3), 1.0 / 3.0)
    s = (u[:, None] * _CUBE_ROOTS - (p3 / (u + (u == 0)))[:, None]
         * _CUBE_ROOTS.conj() - (2.0 / 3.0) * p[:, None])
    s = s[np.arange(len(s)), np.abs(s).argmax(axis=1)]
    w = np.sqrt(s)  # 0 only if p = q = r = 0
    h, g = 0.5 * (p + s), 0.5 * q / (w + (w == 0))
    lin, const = w[:, None] * [-1.0, 1.0], h[:, None] + g[:, None] * [1, -1]
    big = _larger_root(lin, const)
    y = np.concatenate([big, const / (big + (big == 0))], axis=1) - c[:, None]
    ay, ascaled, val, scale = np.abs(y), np.abs(scaled), 1.0, 1.0
    for j in (3, 2, 1, 0):
        val = val * y + scaled[:, j:j + 1]
        scale = scale * ay + ascaled[:, j:j + 1]
    bad = ~(np.abs(val) <= 16 * 2.220446049250313e-16 * scale).all(axis=1)
    if bad.any():
        y[bad] = _companion_roots(scaled[bad])
    return y * np.ldexp(1.0, e)[:, None]


# ---------------------------------------------------------------------------
# 2D polynomial helpers (coefficient tensors C[..., a, b] for u^a v^b)
# ---------------------------------------------------------------------------

def _powers(x: np.ndarray, deg: int) -> np.ndarray:
    out = np.empty(x.shape + (deg + 1,), dtype=np.complex128)
    out[..., 0] = 1.0
    for k in range(1, deg + 1):
        out[..., k] = out[..., k - 1] * x
    return out


def _horner(c: np.ndarray, x: np.ndarray, slope: bool = False):
    """sum_j c[j] x^j over the first axis of ``c`` (batch last), and with
    ``slope`` its x-derivative; elementwise and out of place, so a row's
    bits do not depend on its batch.  A bivariate ``(dv+1, du+1, ..., N)``
    c takes a v-pass, then a u-pass of the result (and of its slope)."""
    val, der = c[-1], None
    for cj in c[-2::-1]:
        if slope:
            der = val if der is None else der * x + val
        val = val * x + cj
    return (val, der) if slope else val


def _trim_degree_rows(coeffs: np.ndarray) -> np.ndarray:
    """Effective degree of each row of an ascending-coefficient array."""
    mags = np.abs(coeffs)
    nz = mags > mags.max(axis=1, keepdims=True) * TRIM_REL
    return np.where(nz.any(axis=1),
                    coeffs.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), -1)


# ---------------------------------------------------------------------------
# the stacked (target, search chart) solve
# ---------------------------------------------------------------------------

#: per degree d, powers (K, d+1) of the resultant's K = 2 d^2 + 1 nodes
_FOURIER = {d: _powers(np.exp(2j * np.pi * np.arange(2 * d * d + 1)
                              / (2 * d * d + 1)), d)
            for d in range(2, MAX_DEGREE + 1)}


def _sylvester_resultant_coeffs(g1: np.ndarray, g2: np.ndarray,
                                m1: int, m2: int, degree: int) -> np.ndarray:
    """Coefficients in u of Res_v(g1, g2) for a batch with fixed v-degrees.

    Evaluates the Sylvester determinant on K Fourier nodes and interpolates
    back by inverse DFT; exact because the resultant degree is < K.  The
    v-coefficients a_j, b_j of g1, g2 at the nodes are the node powers
    times each row's coefficients, one small product per row, so a row's
    values do not depend on its batch.  At a node the determinant is a
    closed form for two quadratics, (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)
    (a1 b0 - a0 b1), and for one equation linear in v: the other one's
    coefficients against the linear one's root, sum_j a_j b0^j (-b1)^(m1-j)
    when g2 is linear, sum_j b_j (-a0)^j a1^(m2-j) when g1 is.  Other
    shapes take ``np.linalg.det``, one LU per node.
    """
    vand, k = _FOURIER[degree], 2 * degree * degree + 1  # (K, du+1), K
    # values (B, K, m + 1) of the v-coefficient polynomials at the nodes
    vals1, vals2 = vand @ g1[:, :, :m1 + 1], vand @ g2[:, :, :m2 + 1]
    if m1 == m2 == 2:
        (a0, a1, a2), (b0, b1, b2) = vals1.T, vals2.T
        outer = a2 * b0 - a0 * b2
        dets = (outer * outer - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)).T
    elif min(m1, m2) == 1:
        if m2 == 1:
            coef, m, x, y = vals1, m1, vals2[..., 0], -vals2[..., 1]
        else:
            coef, m, x, y = vals2, m2, -vals1[..., 0], vals1[..., 1]
        dets = (coef * _powers(x, m) * _powers(y, m)[..., ::-1]).sum(axis=-1)
    else:
        size = m1 + m2
        syl = np.zeros((g1.shape[0], k, size, size), dtype=np.complex128)
        for r in range(m2):
            syl[:, :, r, r:r + m1 + 1] = vals1[:, :, ::-1]
        for r in range(m1):
            syl[:, :, m2 + r, r:r + m2 + 1] = vals2[:, :, ::-1]
        dets = np.linalg.det(syl)  # (B, K)
    # R(e^{2 pi i k / K}) = sum_m c_m e^{+2 pi i m k / K}: the ascending
    # coefficients are the *forward* DFT of the node values over K
    return np.fft.fft(dets, axis=1) / k


def _u_candidates(g, m1_rows, m2_rows, degree):
    """Flat root candidates in u, via the resultant or a direct solve.

    Returns ``(rows, u, direct)``: the row and value of every u-root copy
    (repeated according to resultant multiplicity), sorted by row, and a
    per-row flag marking rows solved on the factorized path (one equation
    free of v), where each (u, v) combination is an intersection in its
    own right.
    """
    direct = (np.minimum(m1_rows, m2_rows) <= 0) \
        & (np.maximum(m1_rows, m2_rows) > 0)
    # rows with both equations free of v (no isolated roots) stay zero
    res = np.zeros((g.shape[0], 2 * degree * degree + 1), np.complex128)
    keys = (m1_rows + 1) * (degree + 2) + m2_rows + 1
    for key in np.bincount(keys).nonzero()[0]:
        rows = (keys == key).nonzero()[0]
        m1, m2 = (int(m) - 1 for m in divmod(key, degree + 2))
        if m1 > 0 and m2 > 0:
            res[rows] = _sylvester_resultant_coeffs(
                g[rows, 0], g[rows, 1], m1, m2, degree)
        elif max(m1, m2) > 0:
            # one equation is univariate in u: use it directly
            res[rows, :degree + 1] = g[rows, int(m1 > 0), :, 0]
    degs = _trim_degree_rows(res)  # one root solve per effective degree
    count = np.maximum(degs, 0)
    rows = np.repeat(np.arange(degs.size), count)
    u = np.empty(rows.size, dtype=np.complex128)
    at = count.cumsum() - count  # each row's first entry
    for d_eff in np.bincount(degs[degs > 0]).nonzero()[0]:
        sel = (degs == d_eff).nonzero()[0]
        u[at[sel, None] + np.arange(d_eff)] = polynomial_roots(
            res[sel, :d_eff + 1])
    return rows, u, direct


def _newton_refine(g: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Damped Newton on per-candidate 2x2 polynomial systems.

    ``g`` (N, 2, du+1, dv+1) holds both equations of each candidate, ``uv``
    is (N, 2); three :func:`_horner` passes give a step both values and all
    four partials.  A row stops after ``NEWTON_STEPS`` steps or after its
    first step s (largest coordinate) with ``s <= NEWTON_STOP * max(1, |u|,
    |v|)``: near a simple root the error left after a step is about C s^2
    (C = |J^-1 H| / 2), here at most 1e-18 C max(1, |u|, |v|)^2, below the
    coordinates' rounding (2.2e-16, relative) while C max(1, |u|, |v|) <
    200.  A multiple root runs to the cap.
    """
    out, live, coef = uv.copy(), np.arange(uv.shape[0]), g.T  # batch last
    out_u, out_v = out[:, 0], out[:, 1]
    for _ in range(NEWTON_STEPS):
        u, v = out_u[live], out_v[live]
        at_v, slope_v = _horner(coef, v, slope=True)
        (f1, f2), (a, c) = _horner(at_v, u, slope=True)
        bq, dq = _horner(slope_v, u)
        det = a * dq - bq * c
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        du = (f1 * dq - f2 * bq) / det
        dv = (a * f2 - c * f1) / det
        step = np.maximum(np.abs(du), np.abs(dv))
        damp = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-300), 1.0)
        out_u[live], out_v[live] = u - du * damp, v - dv * damp
        go = step > NEWTON_STOP * np.abs(out[live]).max(axis=1, initial=1.0)
        live = live[go]
        if not live.size:
            break
        coef = coef[..., go]
    return out


def _slots(rows: np.ndarray, b: int):
    """Each flat entry's slot in its row, keeping the flat order, and the
    width K of the padded ``(b, K)`` array they fill by ``[rows, slot]``."""
    counts = np.bincount(rows, minlength=b)
    rank = np.empty_like(rows)
    rank[np.argsort(rows, kind="stable")] = np.arange(rows.size)
    return rank - (counts.cumsum() - counts)[rows], int(counts.max(initial=0))


def _greedy_clusters(close: np.ndarray, order: np.ndarray,
                     valid: np.ndarray) -> np.ndarray:
    """The one greedy clustering rule, looping over K slots of B rows.

    Slots are visited in ``order`` ``(B, K)`` or ``(1, K)``; a ``valid``
    slot unclaimed when visited seeds a cluster that claims every unclaimed
    valid slot it is ``close`` ``(B, K, K)`` to, itself included (``close``
    holds on the diagonal).  Returns each slot's cluster label, the step at
    which its seed was visited (-1 for invalid slots).
    """
    b, k = valid.shape
    # each step's seed as a flat slot index, and its row of close
    seeds = (np.arange(b)[:, None] * k + order).T
    near = close.reshape(b * k, k)[seeds]
    claims = np.empty((k + 1, b, k), dtype=bool)  # slots claimed per step
    claims[k] = True  # a sentinel step: argmax needs one when K = 0
    free = valid.copy()
    for t in range(k):
        claim = np.logical_and(near[t], free, out=claims[t])
        claim &= free.reshape(-1)[seeds[t, :, None]]  # the seed is free
        free ^= claim
    return np.where(valid, claims.argmax(axis=0), -1)


def _solve_chart_batch(map_: HomogeneousMap, targets_norm: np.ndarray,
                       tcharts: np.ndarray, scharts: np.ndarray,
                       partition: bool = True):
    """Roots in search chart ``scharts[n]`` for every row n (with
    ``partition``, only those whose home chart it is): flat ``(rows, lifts,
    mults)``, the row, the lift (1 in the search chart, its residual in a
    fourth column) and the multiplicity of each accepted root, by row.  With
    ``partition``, u-roots outside the unit disk are dropped before
    back-substitution: the bidisk gate rejects every pair they give.  Every
    stage runs on arrays flat or padded over the batch; the only Python
    loops are over degrees and padded slots.
    """
    d = map_.degree
    # the two preimage equations (N, 2, d+1, d+1) of row n: in its search
    # chart, F_j(lift(u, v)) - tau_j F_b(lift(u, v)) = 0 for the two j != b
    # (b = tcharts[n], tau normalized so tau_b = 1)
    js = CHART_OTHERS_INDEX[tcharts]
    tau = targets_norm[np.arange(js.shape[0])[:, None], js][..., None, None]
    mats = map_.chart_tables  # [search chart, component]
    g = mats[scharts[:, None], js] - tau * mats[scharts, tcharts][:, None]
    mag = np.abs(g).max(axis=2)  # (N, 2, d+1): largest over u-powers
    # structural v-degree of each equation: that of its largest u-coefficients
    m_rows = _trim_degree_rows(mag.reshape(-1, d + 1))
    m1_rows, m2_rows = m_rows[0::2], m_rows[1::2]
    # one entry per (target row, u-root copy); its index is the copy's id
    # in the multiplicity budgets
    flat_rows, flat_u, direct = _u_candidates(g, m1_rows, m2_rows, d)
    if partition:
        inside = np.abs(flat_u) <= 1.0 + BIDISK_SLACK
        flat_rows, flat_u = flat_rows[inside], flat_u[inside]

    # back-substitution, batch last: per row, the equation of larger v-degree
    which = (m2_rows >= m1_rows).astype(np.intp)
    vcoeffs = _horner(g[flat_rows, which[flat_rows]].transpose(1, 2, 0),
                      flat_u)
    vdegs = _trim_degree_rows(vcoeffs.T)

    # expand to (u, v) candidate pairs, batched over uniform v-degrees;
    # cand_flat indexes the flat u-copy arrays
    cand_flat, v = [np.empty(0, dtype=np.int64)], [flat_u[:0]]
    for d_eff in np.bincount(vdegs[vdegs > 0]).nonzero()[0]:
        sel = (vdegs == d_eff).nonzero()[0]
        cand_flat.append(np.repeat(sel[None], d_eff, axis=0).ravel())
        v.append(polynomial_roots(vcoeffs[:d_eff + 1, sel].T).T.ravel())
    cand_flat, v = np.concatenate(cand_flat), np.concatenate(v)

    # polish v along its own fiber (u held fixed) so every candidate stays
    # attached to the u-copy that produced it: 2D refinement here would let
    # spurious pairings migrate onto other genuine roots and corrupt the
    # multiplicity budgets; rows stop as in _newton_refine
    vc, live = vcoeffs[:, cand_flat], np.arange(v.size)
    for _ in range(12):
        vl = v[live]
        p, dp = _horner(vc, vl, slope=True)
        step = p / np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        mag_step = np.abs(step)
        vl -= step * np.where(mag_step > 0.5,
                              0.5 / np.maximum(mag_step, 1e-300), 1.0)
        v[live] = vl
        go = mag_step > NEWTON_STOP * np.maximum(1.0, np.abs(vl))
        live = live[go]
        if not live.size:
            break
        vc = vc[:, go]

    cand_row = flat_rows[cand_flat]
    u0 = flat_u[cand_flat]

    # gate on BOTH chart equations at the raw pair, plus the bidisk /
    # home-chart partition (boundary ties within the slack are kept in all
    # adjacent charts and deduplicated across charts later)
    f = _horner(_horner(g[cand_row].T, v), u0)
    keep = (np.abs(f) <= PAIR_GATE * mag.max(axis=2)[cand_row].T).all(axis=0)
    if partition:
        maxmod = np.maximum(np.abs(u0), np.abs(v))
        lifts = lift_from_chart(scharts[cand_row], np.stack([u0, v], axis=1))
        home = chart_indices(lifts) == scharts[cand_row]
        keep &= (maxmod <= 1.0 + BIDISK_SLACK) & (
            home | (maxmod >= 1.0 - BIDISK_SLACK))
    keep = keep.nonzero()[0]

    # multiplicity bookkeeping on the raw fibers
    rep_row, rep_uv, rep_mult = _chart_roots(
        cand_row[keep], cand_flat[keep], u0[keep], v[keep], direct,
        targets_norm.shape[0])

    # only now refine the representatives in 2D, and require the refined
    # point to certify as an actual preimage of its target
    refined = _newton_refine(g[rep_row], rep_uv)
    moved = np.abs(refined - rep_uv).max(axis=1)
    lifts = lift_from_chart(scharts[rep_row], refined)
    images, ok = map_.evaluate_batch_safe(lifts)
    res = fs_distance_batch(images, targets_norm[rep_row])
    good = ok & (res < RESIDUAL_GATE) & (moved < 1e-3)
    return rep_row[good], np.column_stack((lifts, res))[good], rep_mult[good]


def _chart_roots(rows: np.ndarray, uid: np.ndarray, u: np.ndarray,
                 v: np.ndarray, direct: np.ndarray, b: int):
    """Collapse raw candidate pairs to distinct roots with multiplicities.

    Takes flat candidates (target row, u-copy id, u, v), padded per row to
    ``(b, K)`` slots in their flat order, and groups them into fibers
    (u-values within ``U_FIBER_RADIUS``, seeds in (real, imag) order) and
    then into distinct v-points of each fiber (within ``CLUSTER_RADIUS``).
    On the factorized path (``direct``) each (u-copy, v-copy) pair is one
    unit of intersection multiplicity, so cluster sizes are multiplicities.
    On the resultant path a fiber's k distinct u-copies are split over its
    r v-points by ``divmod(k, r)``, larger clusters (then earlier seeds)
    first, and clusters left at 0 are dropped.  Returns flat ``(rows,
    coords, mults)``: cluster means, fiber by fiber in that rank order.
    """
    slot, k = _slots(rows, b)
    valid = np.zeros((b, k), dtype=bool)
    pu, pv = np.zeros((2, b, k), dtype=np.complex128)
    valid[rows, slot], pu[rows, slot], pv[rows, slot] = True, u, v
    fiber = _greedy_clusters(
        np.abs(pu[:, :, None] - pu[:, None]) <= U_FIBER_RADIUS,
        np.lexsort((pu.imag, pu.real, ~valid), axis=-1), valid)
    cluster = _greedy_clusters(
        (np.abs(pv[:, :, None] - pv[:, None]) <= CLUSTER_RADIUS)
        & (fiber[:, :, None] == fiber[:, None]),
        np.lexsort((pv.imag, pv.real, ~valid), axis=-1), valid)
    fid = rows * k + fiber[rows, slot]

    # members grouped by cluster, in slot order; means over (clusters,
    # size) blocks, whose rows numpy sums in the order it sums one cluster
    cid = rows * k + cluster[rows, slot]
    members = np.argsort(cid * k + slot)
    size = np.bincount(cid)
    start = (size.cumsum() - size)[size > 0]  # each cluster's first member
    head, size = members[start], size[size > 0]
    mean = np.empty((start.size, 2), dtype=np.complex128)
    for n in np.bincount(size).nonzero()[0]:
        sel = size == n
        at = members[start[sel, None] + np.arange(n)]
        mean[sel, 0] = np.add.reduce(u[at], axis=1) / n
        mean[sel, 1] = np.add.reduce(v[at], axis=1) / n

    # fiber budgets: distinct u-copies k_f and distinct v-points r_f; rank
    # within a fiber by size (resultant path only), then seed order.  The
    # copies of one u-copy share their u exactly, hence their fiber
    row, seed, cfid = rows[head], cid[head] % k, fid[head]
    fiber_of = np.zeros(uid.max(initial=0) + 1, dtype=np.int64)
    fiber_of[uid] = fid + 1  # 0: a u-copy with no candidate left
    k_f = np.bincount(fiber_of, minlength=b * k + 1)[cfid + 1]
    r_f = np.bincount(cfid, minlength=b * k)
    order = np.lexsort((seed, np.where(direct[row], 0, -size), cfid))
    rank = np.arange(order.size) - (r_f.cumsum() - r_f)[cfid[order]]
    k_f, r_f = k_f[order], r_f[cfid[order]]
    mult = np.where(direct[row[order]], size[order],
                    k_f // r_f + (rank < k_f % r_f))
    keep = order[mult > 0]
    return row[keep], mean[keep], mult[mult > 0]


# ---------------------------------------------------------------------------
# the own-chart pass, the chart sweep and the canonical branch order
# ---------------------------------------------------------------------------

def _merge_across_charts(lifts: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Multiplicities ``(B, K)`` after merging near-duplicate roots.

    :func:`_greedy_clusters` visits each target's K root slots in order
    (multiplicity 0 marks an unused slot) on one broadcast FS-distance
    matrix per target: a root not merged yet absorbs every later unmerged
    root within ``CLUSTER_RADIUS`` and keeps the largest multiplicity of
    its cluster.  Merged roots come back with multiplicity 0.
    """
    b, k = mults.shape
    close = fs_distance_batch(lifts[:, :, None], lifts[:, None]) \
        < CLUSTER_RADIUS
    valid = mults > 0
    labels = _greedy_clusters(close, np.arange(k)[None], valid)
    kept = np.zeros(b * k, dtype=np.int64)
    np.maximum.at(kept, (np.arange(b)[:, None] * k + labels)[valid],
                  mults[valid])
    return kept.reshape(b, k)


def _merged_slots(rows: np.ndarray, lifts: np.ndarray, mults: np.ndarray,
                  b: int):
    """Flat roots in ``(b, K)`` slots, flat order kept, extra columns too,
    and the multiplicities after :func:`_merge_across_charts`."""
    slot, k = _slots(rows, b)
    padded = np.ones((b, k, lifts.shape[1]), dtype=np.complex128)
    padded_mults = np.zeros((b, k), dtype=np.int64)
    padded[rows, slot], padded_mults[rows, slot] = lifts, mults
    return padded, _merge_across_charts(padded[..., :3], padded_mults)


def _chart_sweep(map_: HomogeneousMap, targets_norm: np.ndarray,
                 tcharts: np.ndarray):
    """Flat ``(targets, lifts, mults)`` of the three-chart sweep, one call
    whose row r is target r // 3 in search chart r % 3."""
    rows, lifts, mults = _solve_chart_batch(
        map_, np.repeat(targets_norm, 3, axis=0), np.repeat(tcharts, 3),
        np.tile(np.arange(3), tcharts.size))
    return rows // 3, lifts, mults


def _solve_batch_once(map_: HomogeneousMap, targets: np.ndarray):
    """The own-chart pass, then :func:`_chart_sweep` for targets left short.

    Each power-map preimage has the target's largest coordinate, so the
    target's chart, with nothing to partition, keeps all roots it finds.
    The sweep is for roots at infinity of it (lattes_suspension [1:0:0]:
    (0:0:1), double).  Both passes merge near-duplicates, also one chart's
    (perturbed_power [0:0:1]: fibres split past ``U_FIBER_RADIUS``).
    Returns ``(lifts, mults, swept)``, roots in ``(B, K)`` slots (1 in
    their own chart, then the residual; mults 0 on unused or merged slots).
    """
    b = targets.shape[0]
    targets_norm, tcharts = chart_normalize(targets)
    rows, lifts, mults = _solve_chart_batch(map_, targets_norm, tcharts,
                                            tcharts, partition=False)
    lifts[:, :3] = chart_normalize(lifts[:, :3])[0]
    padded, merged = _merged_slots(rows, lifts, mults, b)
    swept = merged.sum(axis=1) != map_.degree ** 2
    redo = swept.nonzero()[0]
    if redo.size:
        s_rows, s_lifts, s_mults = _chart_sweep(map_, targets_norm[redo],
                                                tcharts[redo])
        own = ~swept[rows]
        padded, merged = _merged_slots(
            np.concatenate([rows[own], redo[s_rows]]),
            np.concatenate([lifts[own], s_lifts]),
            np.concatenate([mults[own], s_mults]), b)
    return padded, merged, swept


def _canonical_branches(lifts: np.ndarray, mults: np.ndarray):
    """Lifts in branch order and root ids, flat over ``(B, d^2)``.

    Takes padded ``(B, K)`` roots whose multiplicities sum to d^2 per
    target; columns past the three coordinates travel with their lift.
    Roots sort by descending real, then imaginary, part of their
    affine coordinates in the standard chart (t = 1), roots at infinity of
    that chart last and sorted on their sup-normalized coordinates; ties
    keep the solve order.  Keys adjacent in sorted order within
    ``CLUSTER_RADIUS * max(1, |key|)`` tie and fall through to the next
    key, far above the rounding noise of refined roots, so noise never
    decides the order (not even for keys equal in exact arithmetic, like
    the x of roots (x, +-y)).  Each root is then repeated by multiplicity,
    so copies of one root sit side by side, and root ids number a target's
    distinct roots 0, 1, ... in that order.
    """
    b, k = mults.shape
    mag = np.abs(lifts[..., :3])
    sup = mag.max(axis=-1)
    finite = mag[..., 2] > 1e-12 * sup
    aff = lifts[..., :2] / np.where(finite, lifts[..., 2], sup)[..., None]
    # the four keys (re, im of both coordinates), each flat over (B, K)
    keys = -aff.view(np.float64).reshape(-1, 4).T
    tols = CLUSTER_RADIUS * np.maximum(1, np.abs(keys))
    # tie classes, flat and increasing row by row, refined key by key
    # (unused slots last in their row)
    group = (np.where(mults == 0, 2, ~finite)
             + 3 * np.arange(b)[:, None]).ravel()
    new = np.zeros(b * k, dtype=np.int64)
    for key, tol in zip(keys, tols):
        order = np.lexsort((key, group))
        g, x = group[order], key[order]
        new[1:] = (g[1:] != g[:-1]) | (x[1:] - x[:-1] > tol[order[1:]])
        group[order] = new.cumsum()
    branch = np.argsort(group, kind="stable")
    count = mults.ravel()[branch]
    ids = np.arange(b * k) % k  # each sorted slot's rank in its target
    flat = lifts.reshape(-1, lifts.shape[-1])
    return flat[branch.repeat(count)], ids.repeat(count)


def _rotation_matrix(attempt: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_ROTATION_SEED + attempt))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreimageBatch:
    """All d^2 preimages of each of B targets, in canonical branch order.

    ``lifts`` is ``(B, d^2, 3)``: row b holds the preimages of target b
    in the branch order of :func:`_canonical_branches`
    (descending affine coordinates in the standard chart, so branch 0 of a
    real Chebyshev product target is the coordinatewise positive square
    root), each root repeated by its multiplicity.  ``root_ids`` ``(B, d^2)``
    numbers each target's distinct roots 0, 1, ... in that order,
    ``residuals`` ``(B, d^2)`` is the FS distance of each root's image to
    its target as the solve's ``RESIDUAL_GATE`` measured it (the map,
    rotated for a rotated attempt, at the lift with 1 in its search chart;
    a fresh evaluation at ``lifts`` differs by rounding), ``rotations``
    ``(B,)`` counts the coordinate rotations each target needed, and
    ``swept`` ``(B,)`` flags the targets that needed the three-chart sweep
    (every rotated target did).
    """
    lifts: np.ndarray
    root_ids: np.ndarray
    residuals: np.ndarray
    rotations: np.ndarray
    swept: np.ndarray


def preimage_batch(map_: HomogeneousMap, targets) -> PreimageBatch:
    """All preimages of a batch of targets, certified to sum to d^2.

    Each attempt solves every target in its own chart and sweeps all three
    charts only for the targets left short.  Targets still short are
    retried under up to three deterministic unitary changes of coordinates
    U (the roots q found for ``F(U x)`` map back as ``p = U q``); a
    persistent mismatch raises :class:`PreimageSolverError`.  Each root
    keeps the residual its solve measured.
    """
    targets = as_point_array(targets)
    b = targets.shape[0]
    want = map_.degree ** 2
    lifts = np.empty((b, want, 4), dtype=np.complex128)  # and residuals
    root_ids = np.empty((b, want), dtype=np.int64)
    rotations = np.zeros(b, dtype=np.int64)
    swept = np.zeros(b, dtype=bool)
    todo = np.arange(b)
    for attempt in range(MAX_ROTATIONS + 1):
        if todo.size == 0:
            break
        if attempt == 0:
            found, mults, short = _solve_batch_once(map_, targets[todo])
        else:
            u = _rotation_matrix(attempt)
            found, mults, short = _solve_batch_once(
                substitute_linear(map_, u), targets[todo])
            # map the roots back, p = U q, with 1 in each one's own chart
            back = chart_normalize(found[..., :3].reshape(-1, 3) @ u.T)[0]
            found[..., :3] = back.reshape(found.shape[:-1] + (3,))
        done = mults.sum(axis=1) == want
        branches, ids = _canonical_branches(found[done], mults[done])
        fixed = todo[done]
        lifts[fixed] = branches.reshape(-1, want, 4)
        root_ids[fixed], rotations[fixed] = ids.reshape(-1, want), attempt
        swept[todo[short]] = True
        todo = todo[~done]
    if todo.size:
        raise PreimageSolverError(
            "could not account for %d preimages of %d target(s) "
            "after %d rotations" % (want, todo.size, MAX_ROTATIONS))
    return PreimageBatch(lifts[..., :3].copy(), root_ids,
                         lifts[..., 3].real.copy(), rotations, swept)


def preimages(map_: HomogeneousMap, target) -> PreimageBatch:
    """The one-row :class:`PreimageBatch` of a single target, given as any
    :func:`~p2dyn.projective.one_point` input.

    It stays because the package attribute ``p2dyn.preimages`` is this
    function, and the benchmark's own tests check that it is callable.
    """
    return preimage_batch(map_, one_point(target))
