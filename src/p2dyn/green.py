"""Escape-rate potential of the invariant current of an endomorphism.

The dynamical Green function G of a degree-d endomorphism with polynomial
lift F is the renormalized escape rate

    G(p) = lim_N d^(-N) log ||F^N(p)||,

log-homogeneous of degree 1 (G(c p) = log|c| + G(p)).  The invariant
current is (i/pi) d d-bar G in any holomorphic trivialization, so sampling
G along holomorphic lift sections provides local potentials whose discrete
Laplacians feed the slice-measure machinery.

Partial sums telescope exactly -- G_N(p) = log||p|| + sum_{k<N}
d^(-k-1) log||F(u_k)|| with u_k the orbit rescaled to unit norm -- so each
step adds a bounded term and the truncation error after depth N is at most
B d^(-N) / (d-1), where B bounds |log ||F|| | on the sup-norm unit sphere.
:func:`escape_rate` computes G_N in the sup norm or in the 2-norm (they
differ by at most d^(-N) log sqrt(3)), rescaling by exact powers of two once
per span of steps the coefficients and the degeneracy rule keep in range and
reading the norm only where a rescale, ``also`` or the result needs it.
Its ``also`` argument returns a shallower truncation G_M (M <= N) from the
same pass: the partial sum at step M is bit-identical to a depth-M call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEvaluationError, ResolutionError
from .projective import (
    DEGENERATE_EVAL_TOL,
    HomogeneousMap,
    as_point_array,
    check_row_scale,
)

#: default escape-rate depth: d^(-40) is far below double-precision noise
DEFAULT_DEPTH = 40

#: rows that escape_rate carries through all depth steps at once; small
#: enough that one block's power tables and images stay in cache
_BLOCK_ROWS = 1 << 13

_SPHERE_SAMPLE_SEED = 524287
_SPHERE_SAMPLE_COUNT = 4096


@dataclass(frozen=True)
class GreenEvaluator:
    """Escape-rate evaluator at a fixed truncation depth."""

    map: HomogeneousMap
    depth: int = DEFAULT_DEPTH

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @cached_property
    def growth_bound(self) -> float:
        """U = max_i sum_j |c_ij|, so ||F(v)||_sup <= U ||v||_sup^d."""
        return max(float(np.sum(np.abs(list(table.values()))))
                   for table in self.map.tables)

    @cached_property
    def step_bound(self) -> float:
        """B with |log ||F(v)||_sup| <= B for sup-normalized v: U above, and
        below half the least image of a seeded sample of the unit sphere
        (adequate for an error *estimate*; tests check it empirically)."""
        rng = np.random.default_rng(_SPHERE_SAMPLE_SEED)
        re, im = rng.normal(size=(2, _SPHERE_SAMPLE_COUNT, 3))
        images = self.map.evaluate_batch(re + 1j * im, renormalize=False)
        lower = 0.5 * float(np.min(np.max(np.abs(images), axis=1)))
        return max(abs(np.log(lower)), abs(np.log(self.growth_bound)))

    @cached_property
    def rescale_spans(self) -> dict[str, int]:
        """Steps per rescale in :func:`escape_rate` by norm, derived there."""
        return {norm: cut.size for norm, cut in self.collapse_screens.items()}

    @cached_property
    def collapse_screens(self) -> dict[str, np.ndarray]:
        """s_j >= |v_j| after a collapse in a span; see :func:`escape_rate`."""
        d, down, screens = self.map.degree, np.log2(DEGENERATE_EVAL_TOL), {}
        for norm, (_, k, limit) in _COLUMN_NORMS.items():
            up = np.log2(max(k * self.growth_bound, 1.0))
            hi, lo, cut = up, down - d, [down + 1.0]  # log2 bounds on |v_1|
            while d * hi + up <= limit and d * lo + down >= -limit:
                cut.append(max(d * cut[-1] + up, down + d * hi) + 1.0)
                hi, lo = d * hi + up, d * lo + down
            screens[norm] = np.exp2(cut)
        return screens

    def truncation_bound(self, depth: int | None = None) -> float:
        """|G - G_N| <= B d^(-N) / (d-1): geometric in the depth."""
        n = self.depth if depth is None else depth
        d = self.map.degree
        return self.step_bound * d ** (-float(n)) / (d - 1.0)


#: norms of (3, N) columns for :func:`escape_rate`, with K (||F(v)|| <= K U
#: ||v||^d) and the log2 range where each reads to rounding (squares normal)
_COLUMN_NORMS = {
    "sup": (lambda cols: np.max(np.abs(cols), axis=0), 1.0, 1000.0),
    "2": (lambda cols: np.sqrt(np.sum(cols.real ** 2 + cols.imag ** 2,
                                      axis=0)), np.sqrt(3.0), 500.0),
}


def escape_rate(ev: GreenEvaluator, lifts: np.ndarray,
                depth: int | None = None, norm: str = "sup", *,
                also: int | None = None):
    """G_N at the exact lifts given ((N,3) complex): log-homogeneous.

    The one truncated Green function ``d^(-N) log |F^N(p)|`` in the chosen
    norm (``"sup"``, or ``"2"`` for the Hermitian norm); the slice grids use
    the sup norm, the mass certificate the 2-norm, whose truncations are
    smooth.  It iterates ``v_0 = p``, ``v_(k+1) = F(2^(-e_k) v_k)`` with
    ``|v_k| = m_k 2^(e_k)``, ``m_k`` in [1/2, 1), at steps k divisible by
    ``span = ev.rescale_spans[norm]`` and ``e_k = 0`` between: by homogeneity
    G_N telescopes to ``log 2 sum_{k<N} d^(-k) e_k + d^(-N) log |v_N|``.
    ``span`` is the largest j (at least 1) keeping j steps from a norm in
    [1/2, 1) in the norm's range: above by ``|F(v)| <= K U |v|^d``, below by
    the degeneracy rule (4 for degree-2 zoo maps and 3 for power3 in the
    sup norm, 3 and 2 in the 2-norm, whose squares must stay normal).

    Zero or non-finite lifts raise ``ValueError``; a step with ``|v_(k+1)|
    <= DEGENERATE_EVAL_TOL |w|^d``, w the point F is applied to (norm m_k
    after a rescale), raises :class:`DegenerateEvaluationError`.  Blocks of
    ``_BLOCK_ROWS`` points run as (3, b) columns in one power table, where
    the map writes F; no row's value depends on its block.

    G reads ``|v_k|`` only before a rescale, at ``also`` and at N (ceil(N /
    span) + 1 norms a block) and screens the rule there.  In a span
    ``|v_i| <= 2^hi_i``, ``hi_0 = 0``, ``hi_(i+1) = d hi_i + up``, ``up =
    log2 max(K U, 1)``; a collapse at step i leaves ``log2 |v_(i+1)| <=
    down + d hi_i`` (``down = log2 DEGENERATE_EVAL_TOL``), which each later
    step maps by ``x -> d x + up``.  With a bit of rounding slack a step,
    the largest over i < j is ``s_j = ev.collapse_screens[norm][j - 1]``.
    A block whose least ``|v_j|`` is at most s_j (as in
    ``test_a_chain_of_near_collapses_reads_its_closed_form``) runs again
    from its lifts, with every norm and the rule at every step, as do the
    call's later blocks: G reads the same exponents and norms either way.

    With ``also = M`` (an integer, 0 <= M <= N) the result is the pair
    ``(G_N, G_M)``: G_M is the partial sum the loop holds after M steps,
    the same operations in the same order as a depth-M call, so both are
    bit-identical to separate calls (a lift that degenerates within N
    steps raises, as the depth-N call does).
    """
    if norm not in _COLUMN_NORMS:
        raise ValueError("norm must be 'sup' or '2', got %r" % (norm,))
    col_norm, screen = _COLUMN_NORMS[norm][0], ev.collapse_screens[norm]
    span = screen.size
    n = ev.depth if depth is None else depth
    if also is not None and (int(also) != also or not 0 <= also <= n):
        raise ValueError("also must be an integer in [0, %d], got %r"
                         % (n, also))
    d, tol = ev.map.degree, DEGENERATE_EVAL_TOL
    squeeze = np.ndim(lifts) == 1
    pts = as_point_array(lifts)
    total = np.empty(pts.shape[0], dtype=np.float64)
    shallow = None if also is None else np.empty_like(total)
    passes = (False, True)
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        table = np.empty((d, 3, total[rows].size), dtype=np.complex128)
        v = table[0]
        for checked in passes:
            v[...] = pts[rows].T
            with np.errstate(over="ignore"):
                norms = col_norm(v)
            exps, factor = 0.0, 1.0
            # 2-norm squares over- or underflow far from unit scale, and 2^-e
            # must stay finite: such (or invalid) lifts take a sup exponent
            if not np.all((norms > 2.0 ** -500) & (norms < 2.0 ** 500)):
                sup = np.max(np.abs(v), axis=0)
                check_row_scale(sup)
                pre = np.maximum(np.frexp(sup)[1], -1021)
                v *= np.ldexp(1.0, -pre)
                exps, norms = pre.astype(np.float64), col_norm(v)
            for step in range(n):
                if step == also:
                    shallow[rows] = np.log(2.0) * exps + factor * np.log(norms)
                ref = norms
                if step % span == 0:
                    ref, e = np.frexp(norms)
                    exps += factor * e
                    v *= np.ldexp(1.0, -e)
                ev.map.polynomial_columns(table)
                if checked:
                    norms = col_norm(v)
                    # the block screen passes every degenerate row; a
                    # rescaled ref holds mantissas, all below 1
                    top = 1.0 if step % span == 0 else ref.max()
                    if norms.min() <= tol * top ** d and np.any(
                            norms <= tol * ref ** d):
                        raise DegenerateEvaluationError(
                            "map %r collapsed a point to ~0 (common-zero "
                            "locus hit)" % ev.map.name)
                elif (step + 1) % span == 0 or step + 1 in (also, n):
                    norms = col_norm(v)
                    if norms.min() <= screen[step % span]:
                        passes = (True,)  # later blocks start checked
                        break  # a row may have collapsed: run it checked
                factor /= d
            else:
                break
        total[rows] = np.log(2.0) * exps + factor * np.log(norms)
        if also == n:
            shallow[rows] = total[rows]
    if also is None:
        return total[0] if squeeze else total
    return (total[0], shallow[0]) if squeeze else (total, shallow)


def local_potential(ev: GreenEvaluator, coords, xi: np.ndarray) -> np.ndarray:
    """G sampled along a holomorphic lift section at frame coordinates xi.

    ``coords`` is anything with a ``lift_batch((M, 2) complex) -> (M, 3)``
    method (the normal-form frame charts provide one).  Sections differing
    by a nonvanishing holomorphic factor shift G pluriharmonically, so all
    downstream Laplacians are section-independent.  Nodes past
    ``coords.domain_radius`` (when it has one) raise
    :class:`ResolutionError` rather than silently sampling an invalid
    trivialization.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    flat = xi.reshape(-1, 2)
    extent = float(np.max(np.linalg.norm(flat, axis=1), initial=0.0))
    radius = getattr(coords, "domain_radius", None)
    if radius is not None and extent > radius:
        raise ResolutionError(
            "grid extends to |xi| = %.3g beyond the chart domain "
            "radius %.3g" % (extent, radius))
    vals = escape_rate(ev, coords.lift_batch(flat))
    return vals.reshape(xi.shape[:-1])
