"""Equilibrium-measure sampling, the QR cocycle and Lyapunov exponents.

Backward random walks (one uniformly chosen preimage per step, counted with
multiplicity) equidistribute toward the measure of maximal entropy; the
walk is also numerically stable because inverse branches contract toward
the measure's support.  :func:`sample_equilibrium` keeps every walker's
path.

All tangent-space computations use Fubini-Study orthonormal frames: at a
lift p the tangent plane is the hermitian orthogonal complement of p, and
the derivative cocycle factor from p to its image q = F(p) is

    A = B(q)^H . DF(p) . B(p) * (||p|| / ||F(p)||),

a 2x2 matrix whose singular values are the metric derivative rates.
Factors chain exactly when consecutive steps share the basis at the
common point (:func:`chained_factors`), and |det A| is basis-independent.
B(p) is LAPACK's Householder QR basis in closed form; bases, factors and
|det| are elementwise over the batch, with no LAPACK call per matrix.

One batched QR run, :func:`qr_run`, reads every chain of factors: its
per-step log rates give the exponents, and its final Q the frames of
:mod:`p2dyn.frames`.  :func:`lyapunov_exponents` runs it along the stored
paths, forward in time from each path's deep end, and drops
``PATH_BURN_IN`` steps at the deep end (the QR alignment transient) and
``PATH_START_SKIP`` levels next to the generic start (not yet on the
support).  No forward orbit is iterated for the exponents: one would leave
the expanding support within about ``52 / log2(e^l1)`` steps of float64
rounding and then measure whatever attracts it.

Concurrency model: walkers are independent; the implementation realizes
the parallel map over walkers as vectorized batch steps.  One walker step
(deduplicate the positions, solve their preimages in one batch, draw a
critically clear branch per walker) serves the level-synchronous sampler,
single backward orbits and the replacement walkers, so all of them draw
from the same canonical branch order with the same calls on each walker's
generator.  Walker k draws from a generator seeded with the k-th child of
``SeedSequence(seed)``; replacement walkers consume children ``count,
count+1, ...`` in the order failures are found, by level and then by row
(deterministic, because the batch sweep is).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    OrbitInvariantError,
    PreimageSolverError,
    SamplingError,
)
from .preimages import preimage_batch
from .projective import (
    HomogeneousMap,
    as_point_array,
    chart_indices,
    check_integer,
    check_row_scale,
    fs_distance_batch,
    one_point,
    sup_normalize,
    sup_norms,
)

logger = logging.getLogger("p2dyn.sampler")

#: clearance threshold on the Fubini-Study Jacobian determinant
CRITICAL_DET_TOL = 1e-10
#: forward-backward consistency tolerance along stored orbits
ORBIT_CONSISTENCY_TOL = 1e-9
#: branch re-draws allowed when a chosen preimage is critically close
BRANCH_RETRIES = 5
#: aborted-walker budget before sampling gives up
MAX_FAILURE_FRACTION = 0.01

#: levels dropped at the deep end of each stored path (QR alignment
#: transient) and next to the generic start (off the support); derived in
#: :func:`lyapunov_exponents`
PATH_BURN_IN = 6
PATH_START_SKIP = 8

#: fixed generic starting lift for backward walks
GENERIC_START = (0.4371 + 0.2913j, -0.1718 + 0.8842j, 1.0 + 0.0j)

#: every QR run starts from the unitary factor of this matrix.  Not the
#: identity: column 0 of :func:`tangent_basis_batch` moves one homogeneous
#: coordinate alone, product maps preserve that line field, and a run
#: started on it keeps column 0 there, fast or slow.  Any fixed frame is
#: invariant for some map.
QR_START = np.array([[1.0, 0.618 + 0.3j], [0.414 - 0.7j, 1.0]])


@functools.cache
def _start_q() -> np.ndarray:
    """The unitary factor of :data:`QR_START`, made on first use: a LAPACK
    call at import raised every workload's peak RSS by about 1 MB."""
    return np.linalg.qr(QR_START)[0]


# ---------------------------------------------------------------------------
# Fubini-Study tangent frames and cocycle factors
# ---------------------------------------------------------------------------

def tangent_basis_batch(points) -> np.ndarray:
    """(N, 3, 2) orthonormal bases of the hermitian complements of rows.

    Columns 1, 2 of the unitary Q of LAPACK's Householder QR (``zgeqrf``,
    ``zungqr``) of [p, e_i, e_j], e_i, e_j the standard vectors off the
    row's largest coordinate (the first of ties).  It must stay this basis:
    :data:`QR_START`, the frames' ``e1``, ``e2`` and chart axes are
    coordinates in it.  Q = H1 H2 H3, row by row: H1 = I + z z^H / (b
    conj(w)) sends p to b e0, b = -sign(Re p0) |p|, z = p - b e0, w = p0 -
    b; H2 does so on coordinates 1, 2 for c = H1^H e_i, and is I where c2
    = 0 and c1 is real (``zlarfg``'s tau = 0); H3 = diag(1, 1, h) makes a
    = (H2^H H1^H e_j)_2 real: h = -a / (sign(Re a) |a|), 1 if a is real.
    Rows are sup-normalized first (exact for power-of-two scales); a row's
    bits do not depend on its batch.  Q is LAPACK's to rounding, but a
    column may flip sign where a pivot is real in exact arithmetic and not
    under LAPACK's fused multiply-adds (p = [2, 0, 1 + i], say).
    """
    pts = as_point_array(points)
    scale = sup_norms(pts)
    check_row_scale(scale)
    top, n = chart_indices(pts), pts.shape[0]
    p0, p1, p2 = sup = np.divide(pts.T, scale, out=np.empty((3, n), complex))
    # H1: b, w, and g = 1 / (b w), so that H1^H = I + z z^H g
    b = -np.copysign(np.linalg.norm(sup, axis=0), p0.real)
    w = p0 - b
    g = 1.0 / (b * w)
    # c = H1^H e_i, d = H1^H e_j: i = 0 unless top = 0, j = 2 unless top = 2
    zi = np.where(top == 0, p1, w).conj() * g
    zj = np.where(top == 2, p1, p2).conj() * g
    c1, c2 = (top == 0) + p1 * zi, p2 * zi
    d1, d2 = (top == 2) + p1 * zj, (top != 2) + p2 * zj
    # H2 the same for (c1, c2), g2 = 0 where it is I; then the pivot a
    plain = (c2 == 0) & (c1.imag == 0)
    b2 = np.where(plain, c1.real,
                  -np.copysign(np.linalg.norm((c1, c2), axis=0), c1.real))
    w2 = c1 - b2
    g2 = np.divide(1.0, b2 * w2, out=np.zeros(n, complex), where=~plain)
    a = d2 + c2 * (w2.conj() * d1 + c2.conj() * d2) * g2
    h = np.where(a.imag == 0, 1.0, -a / np.copysign(np.abs(a), a.real))
    # columns 1 and 2 of H2 H3, then H1 applied to each
    h2 = g2.conj() * h
    cols = (c1 / b2, c2 / b2), (w2 * c2.conj() * h2, h + abs(c2) ** 2 * h2)
    out = np.empty((3, 2, n), dtype=np.complex128)
    for col, (y1, y2) in enumerate(cols):
        t = (p1.conj() * y1 + p2.conj() * y2) * g.conj()
        out[:, col] = w * t, y1 + p1 * t, y2 + p2 * t
    return out.transpose(2, 0, 1)


def _factor_from_bases(map_: HomogeneousMap, pts: np.ndarray,
                       basis_in: np.ndarray,
                       basis_out: np.ndarray) -> np.ndarray:
    """FS cocycle factors B_out^H . DF(p) . B_in * (||p|| / ||F(p)||),
    summed term by term on (3, ., N) views with F(p) = DF(p) p / d (Euler),
    so a row's bits do not depend on its batch."""
    jac = map_.jacobian_h_batch(pts).transpose(1, 2, 0)
    b_in, b_out = basis_in.transpose(1, 2, 0), basis_out.transpose(1, 2, 0)
    jb = sum(jac[:, k, None] * b_in[k] for k in range(3))
    a = sum(b_out[k, :, None].conj() * jb[k] for k in range(3))
    d, image = map_.degree, sum(jac[:, k] * pts[:, k] for k in range(3))
    scale = d * np.linalg.norm(pts, axis=1) / np.linalg.norm(image, axis=0)
    return (a * scale).transpose(2, 0, 1)


def fs_tangent_maps(map_: HomogeneousMap, points):
    """Per-point FS derivative factors and raw images.

    Each factor's output basis comes from the point's own image, so the
    matrices are self-contained; their singular values and |det| are
    basis-independent metric derivatives.
    """
    pts = sup_normalize(points)
    raw = map_.polynomial_batch(pts)
    mats = _factor_from_bases(map_, pts, tangent_basis_batch(pts),
                              tangent_basis_batch(raw))
    return mats, raw


def fs_jacobian_dets(map_: HomogeneousMap, points) -> np.ndarray:
    """|det| of the FS derivative at each row.

    With q = F(p) and unitary U_p = [p/|p|, B(p)], Euler's identity
    J p = d q makes U_q^H J U_p block upper triangular: its first column
    is (d |q| / |p|, 0, 0).  So |det J| = d (|q| / |p|) |det B(q)^H J B(p)|,
    and the factor of :func:`fs_tangent_maps`, scaled by |p| / |q| in each
    of two dimensions, has |det| = |det J| |p|^3 / (d |q|^3): no bases.
    det J is its cofactor expansion along the first row, row by row.
    """
    pts = sup_normalize(points)
    raw = map_.polynomial_batch(pts)
    ratio = np.linalg.norm(pts, axis=1) / np.linalg.norm(raw, axis=1)
    j = map_.jacobian_h_batch(pts).transpose(1, 2, 0)
    det = (j[0, 0] * (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
           - j[0, 1] * (j[1, 0] * j[2, 2] - j[1, 2] * j[2, 0])
           + j[0, 2] * (j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0]))
    return np.abs(det) * ratio ** 3 / map_.degree


def chained_factors(map_: HomogeneousMap, pts) -> np.ndarray:
    """Composable factors along stored orbits pts[0] -> pts[-1].

    ``pts`` is one orbit, (L, 3), or n orbits level by level, (L, n, 3);
    factor k, of the (L - 1, 2, 2) or (L - 1, n, 2, 2) result, maps level
    k to level k + 1.  Both bases of each factor are built from the
    *stored* representatives, so products telescope exactly; the stored
    image agrees with the true one within the orbit consistency tolerance.
    """
    pts = np.asarray(pts, dtype=np.complex128)
    width = pts[0].size // 3
    sup = sup_normalize(pts.reshape(-1, 3))
    bases = tangent_basis_batch(sup)
    mats = _factor_from_bases(map_, sup[:-width], bases[:-width],
                              bases[width:])
    return mats.reshape((len(pts) - 1,) + pts.shape[1:-1] + (2, 2))


# ---------------------------------------------------------------------------
# backward orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BackwardOrbit:
    """Finite backward orbit x_0, x_{-1}, ..., x_{-n} under a map.

    ``points`` (alias ``array``) is the (depth + 1, 3) array x_0, ...,
    x_{-n}, coerced by :func:`~p2dyn.projective.as_point_array`;
    ``points[k+1]`` is a preimage of ``points[k]``, and
    ``branch_choices[k]`` is the index into the canonical branch order of
    :class:`p2dyn.preimages.PreimageBatch` lifts that produced it.
    Construction validates forward-backward consistency and critical-set
    clearance of every point.
    """

    map: HomogeneousMap
    points: np.ndarray
    branch_choices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", as_point_array(self.points))
        if len(self.points) != len(self.branch_choices) + 1:
            raise OrbitInvariantError(
                "need exactly one branch choice per backward step")
        arr = self.points
        if arr.shape[0] > 1:
            images = self.map.evaluate_batch(arr[1:])
            gaps = fs_distance_batch(images, arr[:-1])
            if np.max(gaps) >= ORBIT_CONSISTENCY_TOL:
                raise OrbitInvariantError(
                    "forward image strays %.3g from the stored orbit"
                    % float(np.max(gaps)))
        dets = fs_jacobian_dets(self.map, arr)
        if np.min(dets) < CRITICAL_DET_TOL:
            raise OrbitInvariantError(
                "orbit point within tolerance of the critical set "
                "(|Jac| = %.3g)" % float(np.min(dets)))

    @property
    def depth(self) -> int:
        return len(self.points) - 1

    @property
    def array(self) -> np.ndarray:
        return self.points


#: branch picks of walkers that could not move: no certified preimage set,
#: or no critically clear branch within the re-draw budget
_UNSOLVED, _STUCK = -1, -2


def _walker_step(map_: HomogeneousMap, pts: np.ndarray,
                 rngs: list[np.random.Generator]):
    """One backward step for every row of ``pts``, each with its own RNG.

    Rows are deduplicated on their sup-normalized coordinates rounded to 12
    decimals (a stable lexsort: distinct rows in sorted order, each at its
    first index), and the distinct targets solved in one
    :func:`preimage_batch` call; if that raises, they are solved one at a
    time so that only the failing targets are lost.  Each row then draws a
    canonical branch index uniformly among its d^2 preimages counted with
    multiplicity.  A branch whose FS Jacobian is below ``CRITICAL_DET_TOL``
    is re-drawn, excluding every copy of its root, at most
    ``BRANCH_RETRIES`` times.

    Returns ``(lifts, picks, rotated, worst)``: the chosen lifts (rows that
    could not move keep their point), the branch indices (``_UNSOLVED`` or
    ``_STUCK`` for those rows), the number of distinct targets that needed
    coordinate rotations, and the worst preimage residual.
    """
    keys = sup_normalize(pts).round(12).view(np.float64)
    order = np.lexsort(keys.T[::-1])
    new = np.concatenate(([True],
                          (keys[order[1:]] != keys[order[:-1]]).any(axis=1)))
    first, inverse = order[new], np.empty_like(order)
    inverse[order] = new.cumsum() - 1
    try:
        found = [(slice(None), preimage_batch(map_, pts[first]))]
    except PreimageSolverError:
        found = []
        for i, row in enumerate(first if first.size > 1 else ()):
            try:
                found.append(([i], preimage_batch(map_, pts[row][None, :])))
            except PreimageSolverError:
                pass
    want = map_.degree ** 2
    lifts = np.ones((first.size, want, 3), dtype=np.complex128)
    ids = np.zeros((first.size, want), dtype=np.int64)
    solved = np.zeros(first.size, dtype=bool)
    rotated, worst = 0, 0.0
    for sel, batch in found:
        lifts[sel], ids[sel], solved[sel] = batch.lifts, batch.root_ids, True
        rotated += int(np.count_nonzero(batch.rotations))
        worst = max(worst, float(batch.residuals.max()))

    out = pts.copy()
    picks = np.where(solved[inverse], 0, _UNSOLVED)
    pending = np.flatnonzero(solved[inverse])
    blocked = np.zeros((pts.shape[0], want), dtype=bool)
    for attempt in range(BRANCH_RETRIES + 1):
        if not attempt:  # nothing blocked yet: draw among all d^2 directly
            picks[pending] = [rngs[row].integers(0, want) for row in pending]
        else:
            for row in pending:
                allowed = np.flatnonzero(~blocked[row])
                picks[row] = (allowed[int(rngs[row].integers(0, allowed.size))]
                              if allowed.size else _STUCK)
        pending = pending[picks[pending] >= 0]
        if pending.size == 0:
            break
        cands = lifts[inverse[pending], picks[pending]]
        clear = fs_jacobian_dets(map_, cands) >= CRITICAL_DET_TOL
        out[pending[clear]] = cands[clear]
        pending = pending[~clear]
        root = ids[inverse[pending]]
        blocked[pending] |= root == root[np.arange(pending.size),
                                         picks[pending], None]
    picks[pending] = _STUCK
    return out, picks, rotated, worst


def _raise_for_stuck(map_: HomogeneousMap, picks: np.ndarray) -> None:
    """Raise the typed error for walkers a step could not move."""
    if np.any(picks == _UNSOLVED):
        raise PreimageSolverError(
            "no certified preimage set for %d walker target(s) of %r"
            % (np.count_nonzero(picks == _UNSOLVED), map_.name))
    if np.any(picks == _STUCK):
        raise OrbitInvariantError(
            "all preimage branches of %r are critically close" % map_.name)


def backward_orbit(map_: HomogeneousMap, x0, depth: int,
                   rng: np.random.Generator | None = None,
                   branch_choices=None) -> BackwardOrbit:
    """Depth-n backward random walk from x0 with validated invariants.

    ``x0`` is any :func:`~p2dyn.projective.one_point` input.  Each step is
    the walker step of :func:`sample_equilibrium` for a single walker: a
    branch is chosen uniformly among the d^2 preimages counted with
    multiplicity, and a critically close choice is re-drawn (different
    root, at most ``BRANCH_RETRIES`` times).  Passing ``branch_choices``
    replays fixed canonical indices instead of sampling (no retries).
    """
    check_integer("depth", depth, 0)
    if branch_choices is None and rng is None and depth > 0:
        raise ValueError("need an rng or explicit branch choices")
    if branch_choices is not None and len(branch_choices) != depth:
        raise ValueError("need %d branch choices, got %d"
                         % (depth, len(branch_choices)))
    current = one_point(x0)
    if float(fs_jacobian_dets(map_, current)[0]) < CRITICAL_DET_TOL:
        raise OrbitInvariantError("starting point is critically close")
    points, chosen = [current], []
    for k in range(depth):
        if branch_choices is None:
            current, picks, _, _ = _walker_step(map_, current, [rng])
            _raise_for_stuck(map_, picks)
            idx = int(picks[0])
        else:
            idx = int(branch_choices[k])
            lifts = preimage_batch(map_, current).lifts
            if not 0 <= idx < lifts.shape[1]:
                raise OrbitInvariantError("branch index %d out of range" % idx)
            current = lifts[:, idx]
        points.append(current)
        chosen.append(idx)
    return BackwardOrbit(map_, np.concatenate(points), tuple(chosen))


# ---------------------------------------------------------------------------
# equilibrium sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureSample:
    """Uniformly weighted empirical sample of the equilibrium measure.

    ``points`` (alias ``array``) is the (N, 3) array of lifts, coerced by
    :func:`~p2dyn.projective.as_point_array` (so a tuple of points works).
    Of the level steps, ``n_rotated`` counts targets that needed coordinate
    rotations and ``worst_residual`` is the largest preimage residual.
    ``paths`` is the (N, depth + 1, 3) array of the walkers' backward
    orbits, each ordered like :attr:`BackwardOrbit.points` (``paths[:, 0]``
    is the start, ``paths[:, -1]`` equals ``points``), or ``None`` for a
    sample built without them; it takes 48 N (depth + 1) bytes, 0.3 MB for
    200 walkers at depth 30.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: tuple[int, int, int]  # (depth, count, seed)
    n_failures: int = 0
    n_rotated: int = 0
    worst_residual: float = 0.0
    paths: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", as_point_array(self.points))
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-D array")
        object.__setattr__(self, "weights", weights)
        if len(self.points) != len(weights):
            raise ValueError("one weight per point required")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.paths is not None and \
                np.shape(self.paths)[::2] != (len(weights), 3):
            raise ValueError("paths must be an (N, depth + 1, 3) array")

    @property
    def array(self) -> np.ndarray:
        return self.points


def _clear_start(map_: HomogeneousMap) -> np.ndarray:
    """The fixed generic start, nudged deterministically if critical."""
    candidates = np.asarray(GENERIC_START, dtype=np.complex128) \
        + np.outer(np.arange(6), [0.013, -0.007, 0.0])
    clear = fs_jacobian_dets(map_, candidates) >= CRITICAL_DET_TOL
    if clear.any():
        return candidates[np.argmax(clear)]
    raise OrbitInvariantError(
        "could not find a critically clear start for %r" % map_.name)


def sample_equilibrium(map_: HomogeneousMap, depth: int = 25,
                       count: int = 2000, seed: int = 0) -> MeasureSample:
    """Endpoints and paths of ``count`` depth-n backward random walks.

    Walks run level-synchronously: each depth level is one walker step
    (:func:`_walker_step`, one batched preimage solve over the distinct
    walker positions), and each walker draws branches from its own seeded
    stream.  A walker whose solve or clearance re-draws fail is aborted and,
    after the last level, replaced by a fresh-seeded full walk; more than
    ``MAX_FAILURE_FRACTION`` aborts raise ``SamplingError``.  Every
    walker's path is kept, a replaced walker's from its replacement orbit.
    The result counts aborts, rotated targets and the worst residual (see
    :class:`MeasureSample`); one log line per call reports them.
    """
    check_integer("depth", depth, 1)
    check_integer("count", count, 1)
    check_integer("seed", seed, 0)
    ss = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(c) for c in ss.spawn(count)]
    start = _clear_start(map_)
    paths = np.tile(start, (count, depth + 1, 1))
    active = np.ones(count, dtype=bool)
    failures = 0
    rotated, worst = 0, 0.0

    def check_budget() -> None:
        if failures > MAX_FAILURE_FRACTION * count:
            raise SamplingError(
                "%d of %d walkers aborted (> %.0f%%)"
                % (failures, count, 100 * MAX_FAILURE_FRACTION))

    replacement_rows = []
    for level in range(1, depth + 1):
        rows = np.flatnonzero(active)
        paths[rows, level], picks, step_rotated, step_worst = _walker_step(
            map_, paths[rows, level - 1], [rngs[row] for row in rows])
        rotated += step_rotated
        worst = max(worst, step_worst)
        lost = rows[picks < 0]
        active[lost] = False
        replacement_rows.extend(lost.tolist())
        failures += lost.size
        check_budget()

    for row in replacement_rows:
        while True:
            check_budget()
            fresh = np.random.default_rng(ss.spawn(1)[0])
            try:
                paths[row] = backward_orbit(map_, start, depth, fresh).points
                break
            except (PreimageSolverError, OrbitInvariantError):
                failures += 1

    logger.info("sample_equilibrium: %d walker(s) aborted, %d replaced; %d "
                "preimage target(s) needed coordinate rotations; worst "
                "preimage residual %.3g", failures, len(replacement_rows),
                rotated, worst)
    return MeasureSample(paths[:, -1].copy(), np.full(count, 1.0 / count),
                         (depth, count, seed), failures, rotated, worst,
                         paths)


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExponentEstimate:
    """Lyapunov exponents (nats per iteration) with walker statistics.

    ``per_point`` holds each walker's finite-time pair in QR column order,
    unsorted; ``window`` is the (min, median, max) number of path steps
    the walkers read, one common count.  Every walker reads every step,
    so ``n_truncated`` and ``n_discarded`` read 0; they stay for callers
    that read them.
    """

    lambda1: float
    lambda2: float
    stderr1: float
    stderr2: float
    n_iter: int
    per_point: np.ndarray = field(repr=False)
    n_truncated: int = 0
    n_discarded: int = 0
    window: tuple[int, float, int] = (0, 0.0, 0)

    def __post_init__(self):
        if self.lambda1 < self.lambda2:
            raise ValueError("exponents must be sorted descending")


def qr_run(factors: np.ndarray):
    """QR cocycle over an (L, n, 2, 2) stack of factors applied in order.

    Every run starts from the unitary factor of :data:`QR_START`.
    Returns the final (n, 2, 2) Q and the (L, n, 2) per-step ``[log r11,
    log r22]``.  Q's first column follows the leading growth of the
    products applied so far, and its second the complement: the exponents
    sum the logs, and the frames of :mod:`p2dyn.frames` read Q.  A step
    works on (2, 2, n) arrays, walkers last: its product and the sums over
    its 2-long axes are written out term by term.
    """
    q = np.repeat(_start_q()[:, :, None], factors.shape[1], axis=2)
    logs = np.empty(factors.shape[:2] + (2,))
    for m, r in zip(factors.transpose(0, 2, 3, 1), logs.transpose(0, 2, 1)):
        a = m[:, :1] * q[0] + m[:, 1:] * q[1]  # m @ q, term by term
        q = np.empty_like(a)
        for j in (0, 1):
            if j:  # the second column less its part along the first
                dots = q[:, 0].conj() * a[:, 1]
                along = dots[0] + dots[1]
                a[:, 1] -= q[:, 0] * along
            mods = np.abs(a[:, j])
            np.maximum(np.hypot(mods[0], mods[1]), 1e-300, out=r[j])
            np.divide(a[:, j], r[j], out=q[:, j])
    return q.transpose(2, 0, 1), np.log(logs, out=logs)


def _guard_margin(dof: int) -> float:
    """Student's t quantile with upper tail Phi(-3) = 0.135 % at ``dof``.

    theta = arctan(t / sqrt(dof)) is bisected on the exact series (A&S
    26.7.3-4) P(|T| < t) = sin(theta) S (even dof), (2 / pi) (theta +
    sin(theta) cos(theta) S) (odd; 2 theta / pi at 1), S = sum_(k < (dof -
    1) / 2) w_k cos(theta)^(2k), w_0 = 1, w_k / w_(k-1) = (2k - 1 + odd) /
    (2k + odd), all positive: within 4e-16, 1.2e-14, 2.5e-12 relative at
    11, 199, 9,999 dof (Cornish-Fisher is poor at dof <= 4).
    """
    tails, odd = math.erfc(3.0 / math.sqrt(2.0)), dof % 2  # 2 Phi(-3)
    k = np.arange(1, (dof + 1) // 2 - odd)
    weights = np.cumprod((2 * k - 1.0 + odd) / (2 * k + odd))
    lo, hi = 0.0, 0.5 * np.pi
    for _ in range(60):
        theta = 0.5 * (lo + hi)
        cos, sin = math.cos(theta), math.sin(theta)
        part = sin * (1.0 + float(weights @ (cos * cos) ** k))
        inside = 2 / np.pi * (theta + (dof > 1) * cos * part) if odd else part
        lo, hi = (theta, hi) if 1.0 - inside > tails else (lo, theta)
    return math.sqrt(dof) * math.tan(0.5 * (lo + hi))


def lyapunov_exponents(map_: HomogeneousMap, sample: MeasureSample,
                       n_iter: int) -> ExponentEstimate:
    """QR cocycle statistics along the sample's stored backward paths.

    Each path is read forward in time, from its deep end toward the start,
    one level of all walkers per QR step of :func:`chained_factors`
    factors; its inverse branches contracted toward the support, so the
    stored points cannot drift off it as a forward orbit does.  The first
    ``PATH_BURN_IN`` steps (QR alignment) and the last ``PATH_START_SKIP``
    levels (next to the start) are dropped; at most ``n_iter`` steps are
    read in between.

    Both counts come from a sweep over 2,000 paths (seeds 500-509, 200
    walkers each) on lattes_suspension, whose exponents differ, from
    :data:`QR_START`.  The fast column's mean step read 0.111, 0.112, 0.080,
    0.056, 0.047, 0.026 and 0.017 below log 2 at steps 0-6 from the deep
    end, then about halved per step, and QR moves the same amount onto the
    slow column.  Past 6 steps the pooled depth-30 lambda2 reads +0.70 %
    (standard error 0.25 %), the first burn-in under half the 2 % band
    (5 steps leave +1.27 %, 4 leave +1.85 %).  The
    basis-free mean log |det| of the step onto level j from the start sat
    0.29, -0.12, 0.18, 0.068, 0.026, 0.021 and 0.021 off l1 + l2 for j =
    0-6, each at least 2.3 standard errors, and within 2 from j = 7 on;
    one level of margin gives 8.

    Aggregates are means with standard errors of the unsorted pairs; only
    the means are sorted.  One log line per call reports the steps read.

    Briend and Duval (Acta Math. 182, 1999) give lambda2 >= (log d) / 2.
    On the bound, (mean - bound) / stderr2 of n normal walker values is
    Student's t at n - 1 degrees of freedom, so a mean ``_guard_margin(n -
    1)`` or more standard errors below it (chance 0.135 %) raises
    SamplingError.  A sample without paths or steps: InsufficientDataError.
    """
    check_integer("n_iter", n_iter, 100)
    if sample.paths is None:
        raise InsufficientDataError("the sample carries no backward paths")
    # level-major, deepest level first: the direction of the dynamics
    chain = sample.paths.transpose(1, 0, 2)[::-1]
    steps = min(len(chain) - 1 - PATH_BURN_IN - PATH_START_SKIP, n_iter)
    if steps < 1:
        raise InsufficientDataError(
            "paths of depth %d leave no cocycle step after dropping %d + %d "
            "levels" % (len(chain) - 1, PATH_BURN_IN, PATH_START_SKIP))
    n = chain.shape[1]
    _, logs = qr_run(chained_factors(map_, chain[:PATH_BURN_IN + steps + 1]))
    per_point = logs[PATH_BURN_IN:].sum(axis=0) / steps
    logger.info("lyapunov_exponents: %d walker(s) read %d path step(s) "
                "each, of depth-%d paths (cap %d)", n, steps, len(chain) - 1,
                n_iter)
    means = per_point.mean(axis=0)
    if n > 1:
        errs = per_point.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        errs = np.full(2, np.inf)
    order = np.argsort(-means, kind="stable")
    means, errs = means[order], errs[order]
    floor = 0.5 * np.log(map_.degree)
    margin = _guard_margin(max(n - 1, 1))
    if means[1] < floor - margin * errs[1]:
        raise SamplingError(
            "lambda2 = %.6g +- %.2g lies below the Briend-Duval bound "
            "(log d) / 2 = %.6g by more than %.4g standard errors"
            % (means[1], errs[1], floor, margin))
    return ExponentEstimate(float(means[0]), float(means[1]),
                            float(errs[0]), float(errs[1]), n_iter,
                            per_point, window=(steps, float(steps), steps))
