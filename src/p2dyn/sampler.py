"""Equilibrium-measure sampling and Lyapunov exponents.

Backward random walks (one uniformly chosen preimage per step, counted with
multiplicity) equidistribute toward the measure of maximal entropy; the
walk is also numerically stable because inverse branches contract toward
the measure's support.  Forward orbits on that support are expanding, so a
float64 forward orbit loses the support after roughly ``52 / log2(e^l1)``
steps (representation error grows like ``e^{n l1}``).  The one forward
cocycle walk, :func:`_forward_cocycle`, stops each row at the critical
degeneracy detector and :func:`_censored_length` drops a fixed number of
steps before that stop, removing the exponentially concentrated end of
track contamination; this one rule serves both the exponent estimator and
the slow direction of :mod:`p2dyn.frames`.

All tangent-space computations use Fubini-Study orthonormal frames: at a
lift p the tangent plane is the hermitian orthogonal complement of p, and
the derivative cocycle factor from p to its image q = F(p) is

    A = B(q)^H . DF(p) . B(p) * (||p|| / ||F(p)||),

a 2x2 matrix whose singular values are the metric derivative rates.
Factors chain exactly when consecutive steps share the basis at the
common point, and |det A| is basis-independent, so the same machinery
serves exponent estimation, backward-orbit validation and the frames
of :mod:`p2dyn.frames`.

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

import logging
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
    CHART_OTHERS,
    DEGENERATE_EVAL_TOL,
    HomogeneousMap,
    as_point_array,
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

#: cocycle steps dropped before a walker's degeneracy event; the
#: off-support contamination halves per dropped step, so 12 steps shrink
#: it below 1e-3 of a single step's value
COCYCLE_BACKOFF = 12
#: steps dropped from the start of each series (QR alignment transient)
COCYCLE_BURN_CAP = 10
#: minimum usable steps for a walker to contribute an exponent; the forward
#: orbit of a depth-n backward sample retraces its backward path, and every
#: walker stops at the same step, n + 6 or 7: after COCYCLE_BACKOFF and the
#: burn-in that leaves 19 steps at depth 30, 15 at depth 25, 12 at depth 20
COCYCLE_MIN_WINDOW = 12

#: fixed generic starting lift for backward walks
GENERIC_START = (0.4371 + 0.2913j, -0.1718 + 0.8842j, 1.0 + 0.0j)


# ---------------------------------------------------------------------------
# Fubini-Study tangent frames and cocycle factors
# ---------------------------------------------------------------------------

def tangent_basis_batch(points) -> np.ndarray:
    """(N, 3, 2) orthonormal bases of the hermitian complements of rows.

    Columns come from a QR factorization of [p_unit, e_i, e_j] where e_i,
    e_j are the standard vectors away from each row's largest coordinate,
    so the triple is always nonsingular and the result deterministic.
    """
    pts = as_point_array(points)
    check_row_scale(sup_norms(pts))
    unit = pts / np.linalg.norm(pts, axis=1)[:, None]
    n = pts.shape[0]
    others = np.asarray(CHART_OTHERS)[np.argmax(np.abs(pts), axis=1)]
    m = np.zeros((n, 3, 3), dtype=np.complex128)
    m[:, :, 0] = unit
    rows = np.arange(n)
    m[rows, others[:, 0], 1] = 1.0
    m[rows, others[:, 1], 2] = 1.0
    q = np.linalg.qr(m)[0]
    return q[:, :, 1:]


def _raw_images(map_: HomogeneousMap, pts: np.ndarray):
    """Unnormalized images of rows the caller has sup-normalized, plus a
    validity mask; images collapsing below ``DEGENERATE_EVAL_TOL`` read
    ``[1, 0, 0]``."""
    raw = map_.polynomial_batch(pts)
    ok = sup_norms(raw) > DEGENERATE_EVAL_TOL
    raw[~ok] = 1.0, 0.0, 0.0
    return raw, ok


def _factor_from_bases(map_: HomogeneousMap, pts: np.ndarray,
                       raw: np.ndarray, basis_in: np.ndarray,
                       basis_out: np.ndarray) -> np.ndarray:
    """FS cocycle factors B_out^H . DF(p) . B_in * (||p|| / ||F(p)||)."""
    jac = map_.jacobian_h_batch(pts)
    a = np.einsum("nij,njk,nkl->nil", basis_out.conj().transpose(0, 2, 1),
                  jac, basis_in)
    scale = np.linalg.norm(pts, axis=1) / np.linalg.norm(raw, axis=1)
    return a * scale[:, None, None]


def fs_tangent_maps(map_: HomogeneousMap, points):
    """Per-point FS derivative factors and raw images.

    Each factor's output basis comes from the point's own image, so the
    matrices are self-contained; their singular values and |det| are
    basis-independent metric derivatives.
    """
    pts = sup_normalize(points)
    raw, ok = _raw_images(map_, pts)
    mats = _factor_from_bases(map_, pts, raw, tangent_basis_batch(pts),
                              tangent_basis_batch(raw))
    return mats, raw, ok


def fs_jacobian_dets(map_: HomogeneousMap, points) -> np.ndarray:
    """|det| of the FS derivative at each row (0 where evaluation fails).

    With q = F(p) and unitary U_p = [p/|p|, B(p)], Euler's identity
    J p = d q makes U_q^H J U_p block upper triangular: its first column
    is (d |q| / |p|, 0, 0).  So |det J| = d (|q| / |p|) |det B(q)^H J B(p)|,
    and the factor of :func:`fs_tangent_maps`, scaled by |p| / |q| in each
    of two dimensions, has |det| = |det J| |p|^3 / (d |q|^3): no bases.
    """
    pts = sup_normalize(points)
    raw, ok = _raw_images(map_, pts)
    ratio = np.linalg.norm(pts, axis=1) / np.linalg.norm(raw, axis=1)
    dets = np.abs(np.linalg.det(map_.jacobian_h_batch(pts))) * ratio ** 3
    return np.where(ok, dets / map_.degree, 0.0)


def _chained_factors(map_: HomogeneousMap, pts: np.ndarray) -> np.ndarray:
    """Composable factors along a stored orbit pts[0] -> pts[-1].

    Both bases of each factor are built from the *stored* representatives,
    so products telescope exactly; the stored image agrees with the true
    one within the orbit consistency tolerance.
    """
    sup = sup_normalize(pts)
    bases = tangent_basis_batch(sup)
    raw, ok = _raw_images(map_, sup[:-1])
    if not np.all(ok):
        raise OrbitInvariantError("orbit point evaluation collapsed")
    return _factor_from_bases(map_, sup[:-1], raw, bases[:-1], bases[1:])


def _forward_cocycle(map_: HomogeneousMap, points, steps: int):
    """Chained FS cocycle factors along the forward orbits of rows.

    Yields ``(rows, mats)`` per step: the rows still walking and their
    factors.  A row stops at its first image collapse or its first factor
    with |det| below ``CRITICAL_DET_TOL``, which is not yielded.
    """
    p = sup_normalize(points)
    basis = tangent_basis_batch(p)
    rows = np.arange(p.shape[0])
    for _ in range(steps):
        raw, ok = _raw_images(map_, p)
        basis_out = tangent_basis_batch(raw)
        mats = _factor_from_bases(map_, p, raw, basis, basis_out)
        dets = np.abs(mats[:, 0, 0] * mats[:, 1, 1]
                      - mats[:, 0, 1] * mats[:, 1, 0])
        live = ok & (dets >= CRITICAL_DET_TOL)
        rows, mats = rows[live], mats[live]
        if rows.size == 0:
            return
        yield rows, mats
        p, basis = sup_normalize(raw[live]), basis_out[live]


def _censored_length(length, steps: int):
    """Usable steps of a series that ran ``length`` of ``steps`` steps,
    less ``COCYCLE_BACKOFF`` when the detector stopped it early."""
    return length - COCYCLE_BACKOFF * (length < steps)


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
    if depth < 0:
        raise ValueError("depth must be >= 0")
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
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: tuple[int, int, int]  # (depth, count, seed)
    n_failures: int = 0
    n_rotated: int = 0
    worst_residual: float = 0.0

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
    """Endpoints of ``count`` depth-n backward random walks.

    Walks run level-synchronously: each depth level is one walker step
    (:func:`_walker_step`, one batched preimage solve over the distinct
    walker positions), and each walker draws branches from its own seeded
    stream.  A walker whose solve or clearance re-draws fail is aborted and,
    after the last level, replaced by a fresh-seeded full walk; more than
    ``MAX_FAILURE_FRACTION`` aborts raise ``SamplingError``.  The result
    counts aborts, rotated targets and the worst residual (see
    :class:`MeasureSample`); one log line per call reports them.
    """
    if depth < 1 or count < 1:
        raise ValueError("depth and count must be >= 1")
    ss = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(c) for c in ss.spawn(count)]
    start = _clear_start(map_)
    pos = np.tile(start, (count, 1))
    active = np.ones(count, dtype=bool)
    failures = 0
    rotated, worst = 0, 0.0

    def fail_budget_ok() -> bool:
        return failures <= MAX_FAILURE_FRACTION * count

    replacement_rows = []
    for _ in range(depth):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        pos[rows], picks, step_rotated, step_worst = _walker_step(
            map_, pos[rows], [rngs[row] for row in rows])
        rotated += step_rotated
        worst = max(worst, step_worst)
        lost = rows[picks < 0]
        active[lost] = False
        replacement_rows.extend(lost.tolist())
        failures += lost.size
        if not fail_budget_ok():
            raise SamplingError(
                "%d of %d walkers aborted (> %.0f%%)"
                % (failures, count, 100 * MAX_FAILURE_FRACTION))

    for row in replacement_rows:
        done = False
        while fail_budget_ok() and not done:
            fresh = np.random.default_rng(ss.spawn(1)[0])
            try:
                orbit = backward_orbit(map_, start, depth, fresh)
                pos[row] = orbit.points[-1]
                done = True
            except (PreimageSolverError, OrbitInvariantError):
                failures += 1
        if not done:
            raise SamplingError(
                "%d of %d walkers aborted (> %.0f%%)"
                % (failures, count, 100 * MAX_FAILURE_FRACTION))

    logger.info("sample_equilibrium: %d walker(s) aborted, %d replaced; %d "
                "preimage target(s) needed coordinate rotations; worst "
                "preimage residual %.3g", failures, len(replacement_rows),
                rotated, worst)
    return MeasureSample(pos, np.full(count, 1.0 / count),
                         (depth, count, seed), failures, rotated, worst)


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExponentEstimate:
    """Lyapunov exponents (nats per iteration) with walker statistics.

    ``per_point`` holds each contributing walker's finite-time pair in QR
    column order, unsorted; ``n_truncated`` counts walkers whose series was
    censored at the degeneracy detector (numerical loss of the expanding
    support), ``n_discarded`` those with too little usable data.
    ``window`` is the (min, median, max) number of steps the contributing
    walkers kept, which is what the estimate rests on rather than ``n_iter``.
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


def _qr_accumulate(q: np.ndarray, mats: np.ndarray):
    """One batched 2x2 QR step: returns (new Q, log r11, log r22)."""
    a = mats @ q
    a1 = a[:, :, 0]
    a2 = a[:, :, 1]
    r11 = np.linalg.norm(a1, axis=1)
    r11 = np.maximum(r11, 1e-300)
    q1 = a1 / r11[:, None]
    r12 = np.sum(q1.conj() * a2, axis=1)
    u = a2 - q1 * r12[:, None]
    r22 = np.maximum(np.linalg.norm(u, axis=1), 1e-300)
    q2 = u / r22[:, None]
    return np.stack([q1, q2], axis=2), np.log(r11), np.log(r22)


def lyapunov_exponents(map_: HomogeneousMap, sample: MeasureSample,
                       n_iter: int) -> ExponentEstimate:
    """Forward QR cocycle statistics over the sample's walkers.

    Each sample point is iterated forward up to ``n_iter`` steps; the FS
    derivative factor feeds a per-walker QR accumulation.  A walker whose
    FS Jacobian falls below ``CRITICAL_DET_TOL`` is stopped there and
    counted in ``n_truncated``: on an expanding support this fires when
    accumulated rounding has carried the computed orbit off the support,
    so the walker's last ``COCYCLE_BACKOFF`` steps (where the contamination
    concentrates) are censored and the rest kept.  The first few steps are
    dropped as the QR alignment transient.  Aggregates are means with
    standard errors of the unsorted pairs; only the means are sorted.
    One log line per call reports the censored and discarded counts and
    the usable window.
    """
    if n_iter < 100:
        raise ValueError("n_iter must be >= 100")
    n = len(sample.points)
    q = np.tile(np.eye(2, dtype=np.complex128), (n, 1, 1))
    # one (n, 2) slab per step walked: the walk stops long before n_iter
    steps = []
    length = np.zeros(n, dtype=np.int64)
    for k, (rows, mats) in enumerate(
            _forward_cocycle(map_, sample.array, n_iter)):
        steps.append(np.zeros((n, 2)))
        q[rows], steps[k][rows, 0], steps[k][rows, 1] = \
            _qr_accumulate(q[rows], mats)
        length[rows] = k + 1
    logs = np.stack(steps, axis=1) if steps else np.zeros((n, 0, 2))

    per_point, kept = [], []
    for i, stop in enumerate(_censored_length(length, n_iter)):
        burn = min(COCYCLE_BURN_CAP, stop // 4) if stop > 0 else 0
        if stop - burn < COCYCLE_MIN_WINDOW:
            continue
        per_point.append(logs[i, burn:stop].mean(axis=0))
        kept.append(int(stop - burn))
    n_discarded = n - len(per_point)
    n_truncated = int(np.count_nonzero(length < n_iter))
    window = ((min(kept), float(np.median(kept)), max(kept)) if kept
              else (0, 0.0, 0))
    logger.info("lyapunov_exponents: %d of %d walker(s) censored at the "
                "critical tolerance zone, %d discarded with fewer than %d "
                "usable cocycle steps; usable window min %d, median %g, "
                "max %d of %d", n_truncated, n, n_discarded,
                COCYCLE_MIN_WINDOW, *window, n_iter)
    if not per_point:
        raise InsufficientDataError(
            "no walker produced %d usable cocycle steps; sample at a "
            "larger depth to extend the forward-stable horizon"
            % COCYCLE_MIN_WINDOW)
    per_point = np.asarray(per_point)
    m = per_point.shape[0]
    means = per_point.mean(axis=0)
    if m > 1:
        errs = per_point.std(axis=0, ddof=1) / np.sqrt(m)
    else:
        errs = np.full(2, np.inf)
    order = np.argsort(-means, kind="stable")
    means, errs = means[order], errs[order]
    return ExponentEstimate(float(means[0]), float(means[1]),
                            float(errs[0]), float(errs[1]), n_iter,
                            per_point, n_truncated, n_discarded, window)

