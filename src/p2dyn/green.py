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
B d^(-N) / (d-1), with B = max(|log c_F|, |log U|) (c_F the map's
``growth_floor`` and U its ``growth_bound``, both proven when the map is
built, which refuses a map with a common zero).  :func:`escape_rate`
computes G_N in the sup norm or in the 2-norm (they differ by at most
d^(-N) log sqrt(3)), rescaling by exact powers of two once per span of
steps that U and c_F keep in range; no step can collapse, so none checks.
Its ``also`` argument returns a shallower truncation G_M (M <= N) from the
same pass: the partial sum at step M is bit-identical to a depth-M call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResolutionError
from .projective import (
    NORM_LOG2_RANGE,
    HomogeneousMap,
    as_point_array,
    check_integer,
    check_row_scale,
)

#: default escape-rate depth: d^(-40) is far below double-precision noise
DEFAULT_DEPTH = 40

#: rows that escape_rate carries through all depth steps at once; small
#: enough that one block's power tables and images stay in cache
_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class GreenEvaluator:
    """Escape-rate evaluator at a fixed truncation depth."""

    map: HomogeneousMap
    depth: int = DEFAULT_DEPTH

    def __post_init__(self):
        check_integer("depth", self.depth, 1)

    @cached_property
    def rescale_spans(self) -> dict[str, int]:
        """Steps per rescale in :func:`escape_rate` by norm, from the map's
        ``growth_bound`` U and ``image_floor`` f."""
        d, down, spans = self.map.degree, np.log2(self.map.image_floor), {}
        for norm, (_, k, limit) in _COLUMN_NORMS.items():
            up = np.log2(max(k * self.map.growth_bound, 1.0))
            hi, lo, span = up, down - d, 1  # log2 bounds on |v_1|
            while d * hi + up <= limit and d * lo + down >= -limit:
                hi, lo, span = d * hi + up, d * lo + down, span + 1
            spans[norm] = span
        return spans

    def truncation_bound(self, depth: int | None = None) -> float:
        """|G - G_N| <= B d^(-N) / (d - 1), B = max(|log c_F|, |log U|)."""
        n = self.depth if depth is None else depth
        check_integer("depth", n, 0)
        step = max(abs(np.log(self.map.growth_floor)),
                   abs(np.log(self.map.growth_bound)))
        return step * self.map.degree ** (-float(n)) / (self.map.degree - 1)


#: norms of (3, N) columns for :func:`escape_rate`, with K (||F(v)|| <= K U
#: ||v||^d) and the log2 range where each reads to rounding (squares normal)
_COLUMN_NORMS = {
    "sup": (lambda cols: np.max(np.abs(cols), axis=0), 1.0, 1000.0),
    "2": (lambda cols: np.sqrt(np.sum(cols.real ** 2 + cols.imag ** 2,
                                      axis=0)),
          np.sqrt(3.0), NORM_LOG2_RANGE),
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
    [1/2, 1) in the norm's range (squares normal in the 2-norm): above by
    ``|F(w)| <= K U |w|^d``, below by ``|F(w)| >= f |w|^d`` with f the
    map's ``image_floor`` (sup spans 8, 7 and 5 on power2, the product maps
    and power3; 2-norm spans one less).

    Zero or non-finite lifts raise ``ValueError``.  G reads |v_k| only
    before a rescale, at ``also`` and at N (ceil(N / span) + 1 norms a
    block).  Blocks of ``_BLOCK_ROWS`` points run as (3, b) columns in one
    power table, where the map writes F; no row's value depends on its
    block.

    With ``also = M`` (an integer, 0 <= M <= N) the result is the pair
    ``(G_N, G_M)``: G_M is the partial sum the loop holds after M steps,
    the same operations in the same order as a depth-M call, so both are
    bit-identical to separate calls.
    """
    if norm not in _COLUMN_NORMS:
        raise ValueError("norm must be 'sup' or '2', got %r" % (norm,))
    col_norm, span = _COLUMN_NORMS[norm][0], ev.rescale_spans[norm]
    n = ev.depth if depth is None else depth
    check_integer("depth", n, 0)
    if also is not None:
        check_integer("also", also, 0, n)
    d = ev.map.degree
    squeeze, pts = np.ndim(lifts) == 1, as_point_array(lifts)
    total = np.empty(pts.shape[0], dtype=np.float64)
    shallow = None if also is None else np.empty_like(total)
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        table = np.empty((d, 3, total[rows].size), dtype=np.complex128)
        v = table[0]
        v[...] = pts[rows].T
        with np.errstate(over="ignore"):
            norms = col_norm(v)
        exps, factor = 0.0, 1.0
        # 2-norm squares over- or underflow far from unit scale, and 2^-e
        # must stay finite: such (or invalid) lifts take a sup exponent
        if not np.all((norms > 2.0 ** -NORM_LOG2_RANGE)
                      & (norms < 2.0 ** NORM_LOG2_RANGE)):
            sup = np.max(np.abs(v), axis=0)
            check_row_scale(sup)
            pre = np.maximum(np.frexp(sup)[1], -1021)
            v *= np.ldexp(1.0, -pre)
            exps, norms = pre.astype(np.float64), col_norm(v)
        for step in range(n):
            if step == also:
                shallow[rows] = np.log(2.0) * exps + factor * np.log(norms)
            if step % span == 0:
                e = np.frexp(norms)[1]
                exps += factor * e
                v *= np.ldexp(1.0, -e)
            ev.map.polynomial_columns(table)
            if (step + 1) % span == 0 or step + 1 in (also, n):
                norms = col_norm(v)
            factor /= d
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
