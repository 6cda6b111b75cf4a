"""Expansion-adapted local frames and affine normal-form coordinates.

At a point carrying a backward orbit, two tangent directions organize the
local dynamics: the fastest-expanded direction ``e1`` and the
slowly-expanded direction ``e2``, the two covariant Lyapunov vectors of
the Fubini-Study cocycle.  Both are read with :func:`p2dyn.sampler.qr_run`,
the run whose log rates give the exponents, in the covariant-vector
construction of Ginelli et al. (PRL 99, 130601, 2007) in two dimensions:
``e1`` is Q's first column after the backward orbit's factors run from
its deep end to the point, and ``e2`` Q's second column after the forward
factors' adjoints run from the far end back to the point.  The first is
the backward product applied to the run's start column ``v``, the second
is orthogonal to ``F^H v`` for the forward product ``F``, and both
converge at rate ``exp(-m (l1 - l2))`` in the run length ``m``.  No
stored path holds the point's future, so the frame iterates its forward
orbit itself and reads it through the same chained factors.

The pair spans an affine chart ``p -> (Z, W)``: offsets from the base
point are computed in the Fubini-Study orthonormal tangent basis (project
the scaled lift difference onto the hermitian complement of the base) and
then expressed in the ``[e1 e2]`` basis.  Because the orthonormal step is
an isometry up to second-order chart distortion, the chart is bi-Lipschitz
with lower constant 1/2 and upper constant at most 2 / conditioning,
where ``conditioning = |det [e1 e2]|``.

For maps whose two exponents coincide (conformal cocycles) the
directions of any finite run are fluctuation artifacts; the frame is
still returned deterministically but is flagged ``isotropic`` when each
run's mean per-step rates ``log r11`` and ``log r22`` are within five
percent of each other.

The inverse branches along the orbit's recorded path are read from the
same cocycle: with ``P_k`` the product over the last ``k`` steps, the
``k``-fold branch carries ``e1`` and ``e2`` to ``P_k^{-1} e1`` and
``P_k^{-1} e2``, so in the inverse-transported chart (columns of
``P_k^{-1} [e1 e2]`` normalized) its derivative is diagonal with entries
``|P_k^{-1} e1|`` and ``|P_k^{-1} e2|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameError
# frames solves no preimages; bench/trace.py wraps this binding by name
from .preimages import preimage_batch  # noqa: F401
from .projective import (
    HomogeneousMap,
    as_point_array,
    fs_distance_batch,
    injectivity_radius,
    sup_normalize,
)
from .sampler import (
    CRITICAL_DET_TOL,
    BackwardOrbit,
    chained_factors,
    fs_jacobian_dets,
    qr_run,
    tangent_basis_batch,
)

#: minimum backward-orbit depth accepted by :func:`compute_frame`
MIN_FRAME_DEPTH = 20

#: frames with |det [e1 e2]| at or below this are rejected as degenerate
CONDITIONING_TOL = 1e-6

#: per-step QR rate gap below which a cocycle counts as isotropic
ISOTROPY_TOL = 0.05

#: fraction of the local injectivity radius used as the chart domain
DOMAIN_FRACTION = 0.05

#: cap on live forward steps used to estimate the slow direction
FORWARD_CAP = 60

#: forward steps dropped before the stop of an orbit that stopped early;
#: the off-support contamination halves per dropped step, so 12 steps
#: shrink it below 1e-3 of a single step's value
FORWARD_BACKOFF = 12

#: minimum usable forward steps for the slow direction
MIN_FORWARD_STEPS = 8

#: cosine of the Fubini-Study angle beyond which a point leaves a chart
CHART_COS_MIN = 0.5


def _forward_factors(map_: HomogeneousMap, lift: np.ndarray) -> np.ndarray:
    """Chained factors along a lift's stored forward orbit.

    The orbit is iterated :data:`FORWARD_CAP` steps and stops at its first
    point with FS Jacobian below ``CRITICAL_DET_TOL``, found with one
    batched check over the stored points; one that stopped early lost the
    support, so its last :data:`FORWARD_BACKOFF` factors are dropped.
    Fewer than :data:`MIN_FORWARD_STEPS` usable factors raise
    :class:`FrameError`.
    """
    orbit = [sup_normalize(lift)]
    for _ in range(FORWARD_CAP):
        orbit.append(map_.evaluate_batch(orbit[-1]))
    orbit = np.concatenate(orbit)
    clear = fs_jacobian_dets(map_, orbit[:-1]) >= CRITICAL_DET_TOL
    steps = FORWARD_CAP if clear.all() else int(np.argmin(clear))
    usable = steps - FORWARD_BACKOFF * (steps < FORWARD_CAP)
    if usable < MIN_FORWARD_STEPS:
        raise FrameError(
            "only %d usable forward cocycle steps at the base point (need "
            ">= %d; use backward-walk endpoints, whose forward horizon is "
            "deep)" % (max(usable, 0), MIN_FORWARD_STEPS))
    return chained_factors(map_, orbit[:steps + 1])[:usable]


@dataclass(frozen=True, eq=False)
class OseledecFrame:
    """Fast/slow tangent directions at a base point, in its FS basis.

    ``e1`` and ``e2`` are unit 2-vectors expressed in the orthonormal
    Fubini-Study tangent basis columns ``tangent_basis`` at the unit lift
    ``base_lift`` (so ``tangent_basis @ e1`` is ``e1`` as an ambient
    3-vector).  ``conditioning``, derived as ``|det [e1 e2]|``, measures
    their angular separation and must exceed :data:`CONDITIONING_TOL`.
    ``isotropic`` marks cocycles whose QR runs grow both columns at
    per-step rates within :data:`ISOTROPY_TOL` of each other, in which
    case the directions are finite-run fluctuation artifacts
    (deterministic but not dynamically distinguished).
    """

    e1: np.ndarray
    e2: np.ndarray
    isotropic: bool
    base_lift: np.ndarray
    tangent_basis: np.ndarray

    def __post_init__(self):
        for name in ("e1", "e2"):
            vec = np.asarray(getattr(self, name), dtype=np.complex128)
            if vec.shape != (2,) or abs(np.linalg.norm(vec) - 1.0) > 1e-9:
                raise FrameError("%s must be a unit 2-vector" % name)
            object.__setattr__(self, name, vec)
        lift = np.asarray(self.base_lift, dtype=np.complex128)
        object.__setattr__(self, "base_lift",
                           lift / np.linalg.norm(lift))
        if self.conditioning <= CONDITIONING_TOL:
            raise FrameError(
                "frame directions are numerically parallel "
                "(|det [e1 e2]| = %.3g <= %.1g); the directions resonate "
                "even though the exponents may not"
                % (self.conditioning, CONDITIONING_TOL))

    @property
    def conditioning(self) -> float:
        """``|det [e1 e2]|``: 1 for orthonormal directions, 0 for parallel."""
        return float(abs(self.e1[0] * self.e2[1] - self.e1[1] * self.e2[0]))

    @property
    def matrix(self) -> np.ndarray:
        """2x2 matrix with columns ``e1``, ``e2``."""
        return np.stack([self.e1, self.e2], axis=1)


def compute_frame(map_: HomogeneousMap, orbit: BackwardOrbit
                  ) -> OseledecFrame:
    """Fast/slow frame at the endpoint ``x_0`` of a backward orbit.

    Two single-row QR runs, as the module docstring derives: ``e1`` from
    the orbit's factors from ``x_{-n}`` to ``x_0``, ``e2`` from the
    adjoints of :func:`_forward_factors` run back to ``x_0``; the
    isotropy gap is each run's mean ``log r11 - log r22``.
    """
    if orbit.depth < MIN_FRAME_DEPTH:
        raise ValueError("frame estimation needs a backward orbit of depth "
                         ">= %d, got %d" % (MIN_FRAME_DEPTH, orbit.depth))
    chain = sup_normalize(orbit.array[::-1])
    q_back, logs_back = qr_run(chained_factors(map_, chain[:, None]))
    fwd = _forward_factors(map_, orbit.array[0])
    q_fwd, logs_fwd = qr_run(fwd[::-1, None].conj().transpose(0, 1, 3, 2))
    e1, e2 = q_back[0, :, 0], q_fwd[0, :, 1]
    base_lift = chain[-1]
    basis = tangent_basis_batch(base_lift[None, :])[0]
    gap = max(np.mean(logs[:, 0, 0] - logs[:, 0, 1])
              for logs in (logs_back, logs_fwd))
    isotropic = np.exp(gap) <= 1.0 + ISOTROPY_TOL
    return OseledecFrame(e1=e1, e2=e2, isotropic=bool(isotropic),
                         base_lift=base_lift, tangent_basis=basis)


def _chart_offsets(base_lift: np.ndarray, points: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Tangent offsets of lifts from a unit base, plus chart cosines.

    Scales each lift so its component along the base is 1 and subtracts
    the base; the remainder lies exactly in the hermitian complement of
    the base.  The cosine |<base, q>| / |q| measures how far into the
    chart each point sits (1 at the base, 0 on the far hyperplane).
    """
    pts = as_point_array(points)
    inner = pts @ base_lift.conj()
    cosine = np.abs(inner) / np.linalg.norm(pts, axis=1)
    safe = np.where(np.abs(inner) == 0.0, 1.0, inner)
    offsets = pts / safe[:, None] - base_lift
    return offsets, cosine


@dataclass(frozen=True, eq=False)
class NormalFormCoordinates:
    """Affine chart adapted to a frame: ``p -> (Z, W)`` near the base.

    Offsets from the base are measured in the Fubini-Study orthonormal
    tangent basis and expressed in the (generally non-orthogonal)
    ``[e1 e2]`` basis, so the chart is holomorphic, exactly inverts via
    :meth:`lift_batch`, and satisfies the bi-Lipschitz sandwich
    ``d/2 <= |xi(p) - xi(q)| <= beta d`` against the Fubini-Study
    distance on the chart domain, with ``beta <= 2 / conditioning``.
    """

    frame: OseledecFrame
    domain_radius: float

    def __post_init__(self):
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ValueError("domain_radius must be a positive real")

    def to_frame(self, points) -> np.ndarray:
        """(N, 2) frame coordinates of lifts near the base point."""
        offsets, cosine = _chart_offsets(self.frame.base_lift,
                                         as_point_array(points))
        if np.min(cosine) < CHART_COS_MIN:
            raise FrameError(
                "point at Fubini-Study cosine %.3g from the base is outside "
                "the frame chart" % float(np.min(cosine)))
        ortho = offsets @ self.frame.tangent_basis.conj()
        return np.ascontiguousarray(
            np.linalg.solve(self.frame.matrix, ortho.T).T)

    def lift_batch(self, xi: np.ndarray) -> np.ndarray:
        """(N, 3) holomorphic lift section of frame coordinates."""
        xi = np.asarray(xi, dtype=np.complex128).reshape(-1, 2)
        ambient = (self.frame.tangent_basis @ (self.frame.matrix @ xi.T)).T
        return np.ascontiguousarray(self.frame.base_lift[None, :] + ambient)


def default_coordinates(map_: HomogeneousMap, frame: OseledecFrame
                        ) -> NormalFormCoordinates:
    """Frame chart with domain a safe fraction of the injectivity radius."""
    radius = injectivity_radius(map_, frame.base_lift)
    return NormalFormCoordinates(frame=frame,
                                 domain_radius=DOMAIN_FRACTION * radius)


def resonance_detect(lambda1: float, lambda2: float,
                     tolerance: float = 0.05):
    """Integer ``k >= 2`` with ``lambda1 ~ k * lambda2``, else ``None``.

    Detects when the fast exponent is an integer multiple of the slow one
    within ``tolerance * lambda2``; equal exponents are *not* resonant in
    this sense (``k >= 2`` is required).  Downstream reporting downgrades
    fast-coordinate claims to warnings under a detected resonance.
    """
    if not (np.isfinite(lambda1) and np.isfinite(lambda2)):
        raise ValueError("exponents must be finite")
    if lambda2 <= 0 or lambda1 < lambda2:
        raise ValueError("need lambda1 >= lambda2 > 0, got %.6g, %.6g"
                         % (lambda1, lambda2))
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    k = int(round(lambda1 / lambda2))
    if k >= 2 and abs(lambda1 - k * lambda2) < tolerance * lambda2:
        return k
    return None


@dataclass(frozen=True, eq=False)
class PullbackScaling:
    """Per-depth scaling of the frame directions by the inverse branches.

    ``depths`` is ``1, ..., n``; ``alpha_abs[k-1]`` and ``beta_abs[k-1]``
    are ``|P_k^{-1} e1|`` and ``|P_k^{-1} e2|``, the moduli of the diagonal
    entries of the derivative at the base of the recorded ``k``-fold
    inverse branch, read in the base frame chart and the inverse-transported
    chart at ``x_{-k}``.
    """

    depths: np.ndarray
    alpha_abs: np.ndarray
    beta_abs: np.ndarray


def pullback_scaling(map_: HomogeneousMap, orbit: BackwardOrbit,
                     frame: OseledecFrame) -> PullbackScaling:
    """Scaling of ``e1`` and ``e2`` by the orbit's inverse branches.

    ``P_k`` is the Fubini-Study cocycle from ``x_{-k}`` to the base ``x_0``
    along the stored orbit, a product of the chained factors that
    :func:`compute_frame` uses, so no preimage is solved.  A depth below 1,
    or a frame not based at ``x_0``, raises :class:`ValueError`.
    """
    depth = orbit.depth
    if depth < 1:
        raise ValueError("pullback scaling needs a backward orbit of depth "
                         ">= 1")
    if fs_distance_batch(frame.base_lift, orbit.array[0]) > 1e-9:
        raise ValueError("frame is not based at the orbit endpoint")
    back = chained_factors(map_, sup_normalize(orbit.array[::-1]))
    prod = np.eye(2, dtype=np.complex128)
    scale = np.empty((depth, 2))
    for k in range(1, depth + 1):
        prod = prod @ back[depth - k]
        scale[k - 1] = np.linalg.norm(np.linalg.solve(prod, frame.matrix),
                                      axis=0)
    return PullbackScaling(depths=np.arange(1, depth + 1),
                           alpha_abs=scale[:, 0], beta_abs=scale[:, 1])
