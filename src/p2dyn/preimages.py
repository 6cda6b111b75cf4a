"""All d^2 preimages of a point under an endomorphism of the projective plane.

Pipeline per affine search chart: write the preimage condition as two
bivariate polynomial equations, eliminate the second variable with a
Sylvester resultant (evaluated on Fourier nodes and interpolated back to
coefficients), find the resultant's roots by a vectorized Aberth-Ehrlich
iteration, back-substitute to recover the second coordinate, refine every
candidate pair with a damped 2D Newton step, and keep the solutions whose
own max-modulus chart is the search chart (so the three charts partition
the preimages).  Root counts are certified against the Bezout number d^2;
shortfalls trigger up to three deterministic unitary changes of coordinates
before raising.

Everything is batched over targets: the solver's inner loops are uniform in
the target point, so thousands of simultaneous preimage queries (one per
backward-orbit walker) cost a handful of vectorized passes.  The result is
arrays too: :func:`preimage_batch` merges the roots found on chart
boundaries with one broadcast distance matrix per target and returns a
:class:`PreimageBatch` whose ``(B, d^2, 3)`` lifts are in the one canonical
branch order that the backward walkers draw from.  :class:`PreimageSet` and
:class:`PreimageRoot` are per-target views of it for the scalar API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreimageSolverError
from .projective import (
    CHART_OTHERS,
    ChartPoint,
    HomogeneousMap,
    HomogeneousPoint,
    as_point_array,
    chart_indices,
    chart_normalize,
    dehomogenized_tables,
    fs_distance_batch,
    lift_from_chart,
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

#: relative floor below which polynomial coefficients count as zero
TRIM_REL = 1e-10

#: maximum deterministic coordinate rotations before giving up
MAX_ROTATIONS = 3

_ROTATION_SEED = 718293541

#: Aberth stopping rule (relative correction, iteration cap) and the
#: damped Newton steps that polish each clustered root in 2D
ABERTH_REL_TOL = 1e-13
ABERTH_MAX_ITER = 200
NEWTON_STEPS = 14


# ---------------------------------------------------------------------------
# vectorized Aberth-Ehrlich root finder
# ---------------------------------------------------------------------------

def _horner_batch(coeffs: np.ndarray, x: np.ndarray):
    """Evaluate rows of ascending-coefficient polynomials and derivatives.

    ``coeffs`` is (B, D+1), ``x`` is (B, R); returns (p, dp) of shape (B, R).
    """
    b, dp1 = coeffs.shape
    p = np.broadcast_to(coeffs[:, -1][:, None], x.shape).copy()
    dp = np.zeros_like(x)
    for k in range(dp1 - 2, -1, -1):
        dp = dp * x + p
        p = p * x + coeffs[:, k][:, None]
    return p, dp


def aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each row of ascending-coefficient polynomials.

    Rows share one degree D (leading coefficients must be nonzero); returns
    an (B, D) array.  Simultaneous Aberth-Ehrlich iteration started on a
    perturbed circle of the per-row Cauchy radius.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim == 1:
        coeffs = coeffs[None, :]
    b, dp1 = coeffs.shape
    deg = dp1 - 1
    if deg == 0:
        return np.empty((b, 0), dtype=np.complex128)
    lead = coeffs[:, -1]
    if np.any(lead == 0):
        raise ValueError("zero leading coefficient in aberth_roots")
    monic = coeffs / lead[:, None]
    if deg == 1:
        return -monic[:, :1]
    cauchy = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
    j = np.arange(deg)
    angles = 2.0 * np.pi * (j + 0.37) / deg + 0.31
    radii = 0.7 * cauchy[:, None] * (1.0 + 0.05 * (j[None, :] + 1) / deg)
    x = radii * np.exp(1j * angles)[None, :]
    eye = np.eye(deg, dtype=bool)
    for _ in range(ABERTH_MAX_ITER):
        p, dp = _horner_batch(monic, x)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = x[:, :, None] - x[:, None, :]
        diff[:, eye] = 1.0
        inv = 1.0 / diff
        inv[:, eye] = 0.0
        s = inv.sum(axis=2)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        corr = w / denom
        x = x - corr
        if np.max(np.abs(corr) / (np.abs(x) + 1.0)) < ABERTH_REL_TOL:
            break
    return x


# ---------------------------------------------------------------------------
# 2D polynomial helpers (coefficient tensors C[..., a, b] for u^a v^b)
# ---------------------------------------------------------------------------

def _powers(x: np.ndarray, deg: int) -> np.ndarray:
    out = np.empty(x.shape + (deg + 1,), dtype=np.complex128)
    out[..., 0] = 1.0
    for k in range(1, deg + 1):
        out[..., k] = out[..., k - 1] * x
    return out


def _eval2d(c: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluate batched 2D polynomials at batched points (same lead shape)."""
    du = c.shape[-2] - 1
    dv = c.shape[-1] - 1
    pu = _powers(u, du)
    pv = _powers(v, dv)
    return np.einsum("...ab,...a,...b->...", c, pu, pv)


def _d_du(c: np.ndarray) -> np.ndarray:
    out = c[..., 1:, :].copy()
    mult = np.arange(1, c.shape[-2])
    return out * mult[:, None]


def _d_dv(c: np.ndarray) -> np.ndarray:
    out = c[..., :, 1:].copy()
    mult = np.arange(1, c.shape[-1])
    return out * mult[None, :]


def _trim_degree_rows(coeffs: np.ndarray) -> np.ndarray:
    """Effective degree of each row of an ascending-coefficient array."""
    mags = np.abs(coeffs)
    floor = mags.max(axis=1, keepdims=True) * TRIM_REL
    nz = mags > floor
    deg = np.where(nz.any(axis=1), coeffs.shape[1] - 1 -
                   np.argmax(nz[:, ::-1], axis=1), -1)
    return deg


# ---------------------------------------------------------------------------
# per-(target-chart, search-chart) solve
# ---------------------------------------------------------------------------

def _chart_equations(map_: HomogeneousMap, search_chart: int,
                     targets_norm: np.ndarray, target_chart: int):
    """Coefficient tensors (B, d+1, d+1) of the two preimage equations.

    Preimages of tau in the search chart satisfy, for the two indices
    j != b (b = tau's own chart, tau normalized so tau_b = 1):
    ``F_j(lift(u, v)) - tau_j F_b(lift(u, v)) = 0``.
    """
    mats = dehomogenized_tables(map_, search_chart)
    j1, j2 = CHART_OTHERS[target_chart]
    mb = mats[target_chart]
    g1 = mats[j1][None, :, :] - targets_norm[:, j1][:, None, None] * mb
    g2 = mats[j2][None, :, :] - targets_norm[:, j2][:, None, None] * mb
    return g1, g2


def _sylvester_resultant_coeffs(g1: np.ndarray, g2: np.ndarray,
                                m1: int, m2: int, degree: int) -> np.ndarray:
    """Coefficients in u of Res_v(g1, g2) for a batch with fixed v-degrees.

    Evaluates the Sylvester determinant on K Fourier nodes and interpolates
    back by inverse DFT; exact because the resultant degree is < K.
    """
    b = g1.shape[0]
    size = m1 + m2
    k = 2 * degree * degree + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    vand = _powers(nodes, g1.shape[1] - 1)  # (K, du+1)
    # values of the v-coefficient polynomials at the nodes
    vals1 = np.einsum("baj,ka->bkj", g1[:, :, :m1 + 1], vand)
    vals2 = np.einsum("baj,ka->bkj", g2[:, :, :m2 + 1], vand)
    syl = np.zeros((b, k, size, size), dtype=np.complex128)
    desc1 = vals1[:, :, ::-1]
    desc2 = vals2[:, :, ::-1]
    for r in range(m2):
        syl[:, :, r, r:r + m1 + 1] = desc1
    for r in range(m1):
        syl[:, :, m2 + r, r:r + m2 + 1] = desc2
    dets = np.linalg.det(syl)  # (B, K)
    # R(e^{2 pi i k / K}) = sum_m c_m e^{+2 pi i m k / K}: the ascending
    # coefficients are the *forward* DFT of the node values over K
    return np.fft.fft(dets, axis=1) / k


def _u_candidates(g1, g2, m1_rows, m2_rows, degree):
    """Root candidates in u for each row, via resultant or direct solve.

    Returns ``(out, direct)``: per-row 1D arrays of u values (repeated
    according to resultant multiplicity) and a per-row flag marking rows
    solved on the factorized path (one equation free of v), where each
    (u, v) combination is an intersection in its own right.
    """
    b = g1.shape[0]
    out = [np.empty(0, dtype=np.complex128) for _ in range(b)]
    direct = np.zeros(b, dtype=bool)
    keys = {}
    for row in range(b):
        keys.setdefault((int(m1_rows[row]), int(m2_rows[row])),
                        []).append(row)
    for (m1, m2), rows in keys.items():
        rows = np.asarray(rows)
        if m1 <= 0 and m2 <= 0:
            # both equations free of v: no isolated roots in this chart
            continue
        if m1 <= 0 or m2 <= 0:
            # one equation is univariate in u: use it directly
            guni = (g1 if m1 <= 0 else g2)[rows, :, 0]
            res = guni
            direct[rows] = True
        else:
            res = _sylvester_resultant_coeffs(
                g1[rows], g2[rows], m1, m2, degree)
        degs = _trim_degree_rows(res)
        for d_eff in np.unique(degs):
            if d_eff <= 0:
                continue
            sel = degs == d_eff
            roots = aberth_roots(res[sel][:, :d_eff + 1])
            for local, row in enumerate(rows[sel]):
                out[row] = roots[local]
    return out, direct


def _newton_refine(g1, g2, uv: np.ndarray) -> np.ndarray:
    """Damped Newton on per-candidate 2x2 polynomial systems.

    ``g1``/``g2`` are (N, du+1, dv+1) coefficient tensors (one system per
    candidate), ``uv`` is (N, 2).
    """
    g1u, g1v = _d_du(g1), _d_dv(g1)
    g2u, g2v = _d_du(g2), _d_dv(g2)
    u, v = uv[:, 0].copy(), uv[:, 1].copy()
    for _ in range(NEWTON_STEPS):
        f1 = _eval2d(g1, u, v)
        f2 = _eval2d(g2, u, v)
        a = _eval2d(g1u, u, v)
        bq = _eval2d(g1v, u, v)
        c = _eval2d(g2u, u, v)
        dq = _eval2d(g2v, u, v)
        det = a * dq - bq * c
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        du = (f1 * dq - f2 * bq) / det
        dv = (a * f2 - c * f1) / det
        step = np.maximum(np.abs(du), np.abs(dv))
        damp = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-300), 1.0)
        u = u - du * damp
        v = v - dv * damp
    return np.stack([u, v], axis=1)


def _cluster_complex(values: np.ndarray, radius: float):
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


def _no_roots():
    """Empty ``(rows, coords, mults)`` result of a chart solve."""
    return (np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.complex128),
            np.empty(0, dtype=np.int64))


def _solve_chart_batch(map_: HomogeneousMap, targets_norm: np.ndarray,
                       target_chart: int, search_chart: int):
    """Roots (home chart == search chart) for every target in the batch.

    Returns flat arrays ``(rows, coords, mults)``: the target row, the
    (u, v) chart coordinates and the multiplicity of each accepted root,
    sorted by row.  All candidate processing (back-substitution, Newton,
    residual gating) is flattened across the batch; only the per-target
    clustering runs as a Python loop over a handful of candidates each.
    """
    d = map_.degree
    g1, g2 = _chart_equations(map_, search_chart, targets_norm, target_chart)
    # structural v-degree of each row: that of its largest u-coefficients
    m1_rows = _trim_degree_rows(np.abs(g1).max(axis=1))
    m2_rows = _trim_degree_rows(np.abs(g2).max(axis=1))
    u_cands, direct = _u_candidates(g1, g2, m1_rows, m2_rows, d)
    b = targets_norm.shape[0]

    # flatten u-candidates: one entry per (target row, u-root copy), with a
    # distinct id per u-root copy for the multiplicity budgets
    flat_rows = np.repeat(np.arange(b), [c.size for c in u_cands])
    if flat_rows.size == 0:
        return _no_roots()
    flat_u = np.concatenate(u_cands)
    flat_uid = np.arange(flat_u.size)

    # batched back-substitution: per row, the equation with larger v-degree
    use_g2 = (m2_rows >= m1_rows)[flat_rows]
    back = np.where(use_g2[:, None, None], g2[flat_rows], g1[flat_rows])
    pu = _powers(flat_u, back.shape[1] - 1)
    vcoeffs = np.einsum("nab,na->nb", back, pu)
    vdegs = _trim_degree_rows(vcoeffs)

    # expand to (u, v) candidate pairs, batched over uniform v-degrees
    cand_flat = []  # index into the flat u-copy arrays
    cand_v = []
    for d_eff in np.unique(vdegs):
        if d_eff <= 0:
            continue
        sel = np.nonzero(vdegs == d_eff)[0]
        roots = aberth_roots(vcoeffs[sel][:, :d_eff + 1])  # (S, d_eff)
        for j in range(d_eff):
            cand_flat.append(sel)
            cand_v.append(roots[:, j])
    if not cand_flat:
        return _no_roots()
    cand_flat = np.concatenate(cand_flat)
    v = np.concatenate(cand_v)

    # polish v along its own fiber (u held fixed) so every candidate stays
    # attached to the u-copy that produced it: 2D refinement here would let
    # spurious pairings migrate onto other genuine roots and corrupt the
    # multiplicity budgets
    vc = vcoeffs[cand_flat]
    for _ in range(12):
        p, dp = _horner_batch(vc, v[:, None])
        dp = np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        step = p[:, 0] / dp[:, 0]
        mag = np.abs(step)
        v = v - step * np.where(mag > 0.5, 0.5 / np.maximum(mag, 1e-300), 1.0)

    cand_row = flat_rows[cand_flat]
    cand_uid = flat_uid[cand_flat]
    u0 = flat_u[cand_flat]

    # gate on BOTH chart equations at the raw pair, plus the bidisk /
    # home-chart partition (boundary ties within 1e-9 are kept in every
    # adjacent chart and deduplicated across charts later)
    f1 = np.abs(_eval2d(g1[cand_row], u0, v))
    f2 = np.abs(_eval2d(g2[cand_row], u0, v))
    scale1 = np.abs(g1).max(axis=(1, 2))[cand_row]
    scale2 = np.abs(g2).max(axis=(1, 2))[cand_row]
    maxmod = np.maximum(np.abs(u0), np.abs(v))
    lifts = lift_from_chart(search_chart, np.stack([u0, v], axis=1))
    home = chart_indices(lifts) == search_chart
    keep = (f1 <= PAIR_GATE * scale1) & (f2 <= PAIR_GATE * scale2) \
        & (maxmod <= 1.0 + 1e-9) & (home | (maxmod >= 1.0 - 1e-9))
    cand_row, cand_uid = cand_row[keep], cand_uid[keep]
    u0, v = u0[keep], v[keep]

    # per-target multiplicity bookkeeping on the raw fibers
    raw = []
    for row in range(b):
        sel = cand_row == row
        raw.append(_assemble_chart_roots(u0[sel], v[sel], cand_uid[sel],
                                         bool(direct[row])))

    # only now refine the representatives in 2D, and require the refined
    # point to certify as an actual preimage of its target
    rep_row = np.repeat(np.arange(b), [coords.shape[0] for coords, _ in raw])
    if rep_row.size == 0:
        return _no_roots()
    rep_uv = np.concatenate([coords for coords, _ in raw])
    rep_mult = np.concatenate([mults for _, mults in raw])

    refined = _newton_refine(g1[rep_row], g2[rep_row], rep_uv)
    moved = np.max(np.abs(refined - rep_uv), axis=1)
    lifts = lift_from_chart(search_chart, refined)
    images, ok = map_.evaluate_batch_safe(lifts)
    res = fs_distance_batch(images, targets_norm[rep_row])
    good = ok & (res < RESIDUAL_GATE) & (moved < 1e-3)
    return rep_row[good], refined[good], rep_mult[good]


def _assemble_chart_roots(u0: np.ndarray, v: np.ndarray, uid: np.ndarray,
                          direct: bool):
    """Collapse raw candidate pairs to distinct roots with multiplicities.

    Returns ``(coords, mults)`` of shapes (n, 2) and (n,).  Candidates are
    grouped into fibers (clusters of u-values) and then into distinct
    v-points within each fiber.  On the factorized path every (u-copy,
    v-copy) pair is one unit of intersection multiplicity, so the
    pair-cluster sizes are the multiplicities.  On the resultant path the
    fiber carries the total multiplicity above it (the distinct u-copy
    count k), which is redistributed over the distinct v-points, larger
    candidate clusters first.
    """
    coords = []
    mults = []
    for fiber in _cluster_complex(u0, U_FIBER_RADIUS):
        uf, vf = u0[fiber], v[fiber]
        v_clusters = _cluster_complex(vf, CLUSTER_RADIUS)
        if direct:
            for members in v_clusters:
                coords.append([uf[members].mean(), vf[members].mean()])
                mults.append(members.size)
            continue
        k = np.unique(uid[fiber]).size
        r = len(v_clusters)
        base, extra = divmod(k, r)
        order = np.argsort([-c.size for c in v_clusters])
        for rank, ci in enumerate(order):
            m = base + (1 if rank < extra else 0)
            if m <= 0:
                continue
            members = v_clusters[ci]
            coords.append([uf[members].mean(), vf[members].mean()])
            mults.append(m)
    return (np.asarray(coords, dtype=np.complex128).reshape(-1, 2),
            np.asarray(mults, dtype=np.int64))


# ---------------------------------------------------------------------------
# merging the chart sweeps and the canonical branch order
# ---------------------------------------------------------------------------

def _merge_across_charts(lifts: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Multiplicities ``(B, K)`` after merging near-duplicate boundary roots.

    Each target's K root slots are scanned in order (multiplicity 0 marks
    an unused slot); a root not merged yet absorbs every later unmerged
    root within ``CLUSTER_RADIUS`` (FS distance) and keeps the larger
    multiplicity.  The scan runs over the K slots, each step vectorized
    over targets on one broadcast distance matrix per target.  Merged roots
    come back with multiplicity 0.
    """
    close = fs_distance_batch(lifts[:, :, None], lifts[:, None]) \
        < CLUSTER_RADIUS
    mults = mults.copy()
    alive = mults > 0
    for i in range(mults.shape[1]):
        absorb = close[:, i, i + 1:] & alive[:, i + 1:] & alive[:, i, None]
        mults[:, i] = np.maximum(
            mults[:, i], np.max(mults[:, i + 1:] * absorb, axis=1, initial=0))
        alive[:, i + 1:] &= ~absorb
    return np.where(alive, mults, 0)


def _solve_batch_once(map_: HomogeneousMap, targets: np.ndarray):
    """One full 3x3 chart sweep followed by the cross-chart merge.

    Returns ``(lifts, mults)`` padded to ``(B, K)`` root slots: a target's
    roots fill its leading slots in search-chart order, each lift has 1 in
    the chart it was found in, and unused or merged slots have
    multiplicity 0.
    """
    targets_norm, tcharts = chart_normalize(targets)
    parts = []
    for tchart in range(3):
        idx = np.flatnonzero(tcharts == tchart)
        for schart in range(3 if idx.size else 0):
            local, coords, mults = _solve_chart_batch(
                map_, targets_norm[idx], tchart, schart)
            parts.append((idx[local], lift_from_chart(schart, coords), mults))
    rows, lifts, mults = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=targets.shape[0])
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shape = (targets.shape[0], int(counts.max(initial=0)))
    padded = np.ones(shape + (3,), dtype=np.complex128)
    padded[rows[order], slot] = lifts[order]
    padded_mults = np.zeros(shape, dtype=np.int64)
    padded_mults[rows[order], slot] = mults[order]
    return padded, _merge_across_charts(padded, padded_mults)


def _canonical_branches(lifts: np.ndarray, mults: np.ndarray):
    """Lifts in branch order and root ids, flat over ``(B, d^2)``.

    Takes padded ``(B, K)`` roots whose multiplicities sum to d^2 per
    target.  Roots sort by descending real, then imaginary, part of their
    affine coordinates in the standard chart (t = 1), roots at infinity of
    that chart last and sorted on their sup-normalized coordinates; exact
    ties keep the solve order.  The keys are rounded to 12 decimals so that
    solver noise never decides the order (distinct roots differ by at
    least the merge radius).  Each root is then repeated by multiplicity,
    so copies of one root sit side by side, and root ids number a target's
    distinct roots 0, 1, ... in that order.
    """
    b, k = mults.shape
    sup = np.abs(lifts).max(axis=-1)
    finite = np.abs(lifts[..., 2]) > 1e-12 * sup
    aff = lifts[..., :2] / np.where(finite, lifts[..., 2], sup)[..., None]
    keys = np.round(-np.stack([aff[..., 1].imag, aff[..., 1].real,
                               aff[..., 0].imag, aff[..., 0].real]), 12)
    keys = np.concatenate([keys, ~finite[None]])
    keys[:, mults == 0] = np.inf  # unused slots sort last
    ranked = np.lexsort(keys)
    count = np.take_along_axis(mults, ranked, axis=1).ravel()
    branch = np.repeat((ranked + k * np.arange(b)[:, None]).ravel(), count)
    ids = np.repeat(np.tile(np.arange(k), b), count)
    return lifts.reshape(-1, 3)[branch], ids


def _rotation_matrix(attempt: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_ROTATION_SEED + attempt))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreimageRoot:
    """One distinct preimage: chart representative, multiplicity, residual."""
    point: ChartPoint
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class PreimageSet:
    """One target's row of a :class:`PreimageBatch`, for the scalar API."""
    target: HomogeneousPoint
    lifts: np.ndarray
    root_ids: np.ndarray
    residuals: np.ndarray

    @property
    def roots(self) -> list[PreimageRoot]:
        """Distinct roots in branch order with their multiplicities."""
        _, first, mults = np.unique(self.root_ids, return_index=True,
                                    return_counts=True)
        return [PreimageRoot(HomogeneousPoint(self.lifts[i]).chart_point(),
                             int(m), float(self.residuals[i]))
                for i, m in zip(first, mults)]

    @property
    def total_multiplicity(self) -> int:
        return int(self.root_ids.size)

    def expanded_points(self) -> np.ndarray:
        """(d^2, 3) lifts in branch order, roots repeated by multiplicity."""
        return self.lifts


@dataclass(frozen=True)
class PreimageBatch:
    """All d^2 preimages of each of B targets, in canonical branch order.

    ``lifts`` is ``(B, d^2, 3)``: row b holds the preimages of
    ``targets[b]`` in the branch order of :func:`_canonical_branches`
    (descending affine coordinates in the standard chart, so branch 0 of a
    real Chebyshev product target is the coordinatewise positive square
    root), each root repeated by its multiplicity.  ``root_ids`` ``(B, d^2)``
    numbers each target's distinct roots 0, 1, ... in that order,
    ``residuals`` ``(B, d^2)`` is the FS distance of each lift's image to
    its target, and ``rotations`` ``(B,)`` counts the coordinate rotations
    each target needed.  ``len``, indexing and iteration give
    :class:`PreimageSet` views of single targets.
    """
    targets: np.ndarray
    lifts: np.ndarray
    root_ids: np.ndarray
    residuals: np.ndarray
    rotations: np.ndarray

    def __len__(self) -> int:
        return self.lifts.shape[0]

    def __getitem__(self, row: int) -> PreimageSet:
        return PreimageSet(HomogeneousPoint(self.targets[row]),
                           self.lifts[row], self.root_ids[row],
                           self.residuals[row])

    def __iter__(self):
        return (self[row] for row in range(len(self)))


def preimage_batch(map_: HomogeneousMap, targets) -> PreimageBatch:
    """All preimages of a batch of targets, certified to sum to d^2.

    Targets whose first sweep comes up short are retried under up to three
    deterministic unitary changes of coordinates U (the roots q found for
    ``F(U x)`` map back as ``p = U q``); a persistent mismatch raises
    :class:`PreimageSolverError`.  Residuals come from one batched
    evaluation of the map at every lift.
    """
    targets = as_point_array(targets)
    b = targets.shape[0]
    want = map_.degree ** 2
    lifts = np.empty((b, want, 3), dtype=np.complex128)
    root_ids = np.empty((b, want), dtype=np.int64)
    rotations = np.zeros(b, dtype=np.int64)
    todo = np.arange(b)
    for attempt in range(MAX_ROTATIONS + 1):
        if todo.size == 0:
            break
        if attempt == 0:
            found, mults = _solve_batch_once(map_, targets[todo])
        else:
            u = _rotation_matrix(attempt)
            found, mults = _solve_batch_once(substitute_linear(map_, u),
                                             targets[todo])
            # map the roots back, p = U q, with 1 in each one's own chart
            back, charts = chart_normalize((found @ u.T).reshape(-1, 3))
            back[np.arange(charts.size), charts] = 1.0
            found = back.reshape(found.shape)
        done = mults.sum(axis=1) == want
        branches, ids = _canonical_branches(found[done], mults[done])
        lifts[todo[done]] = branches.reshape(-1, want, 3)
        root_ids[todo[done]] = ids.reshape(-1, want)
        rotations[todo[done]] = attempt
        todo = todo[~done]
    if todo.size:
        raise PreimageSolverError(
            "could not account for %d preimages of %d target(s) "
            "after %d rotations" % (want, todo.size, MAX_ROTATIONS))
    images = map_.evaluate_batch(lifts.reshape(-1, 3))
    residuals = fs_distance_batch(images, np.repeat(targets, want, axis=0))
    return PreimageBatch(targets, lifts, root_ids,
                         residuals.reshape(b, want), rotations)


def preimages(map_: HomogeneousMap, target: HomogeneousPoint) -> PreimageSet:
    """All preimages of one target with multiplicities and residuals."""
    return preimage_batch(map_, target.array[None, :])[0]


def random_preimage_batch(map_: HomogeneousMap, points: np.ndarray,
                          rngs: list[np.random.Generator]) -> np.ndarray:
    """One multiplicity-weighted preimage per row, one RNG per row.

    This is one step of the backward walker: duplicate targets are solved
    once, and each row draws a branch from its own generator, so results
    are independent of the deduplication; a critically close branch is
    re-drawn as in :func:`p2dyn.sampler.backward_orbit`.
    """
    from .sampler import _raise_for_stuck, _walker_step
    out, picks, _, _ = _walker_step(map_, as_point_array(points), rngs)
    _raise_for_stuck(map_, picks)
    return out


def random_inverse_branch(map_: HomogeneousMap, point: HomogeneousPoint,
                          rng: np.random.Generator) -> HomogeneousPoint:
    """One preimage drawn uniformly among the d^2 roots with multiplicity."""
    return HomogeneousPoint(random_preimage_batch(map_, point.array, [rng])[0])
