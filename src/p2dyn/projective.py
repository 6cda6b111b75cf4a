"""Points, maps, metric, and derivatives on the complex projective plane.

Points are homogeneous triples in C^3 \\ {0}.  Every point owns a preferred
affine chart: the index of its largest-modulus coordinate (ties resolved to
the lowest index), which keeps affine representatives inside the closed unit
bidisk.  Maps are triples of homogeneous polynomials of a common degree d
with 2 <= d <= 8.  A map keeps its coefficient tables as given and compiles
them into one coefficient matrix over the union of its components' monomial
supports (and one more for its first partial derivatives), so every
evaluation is a single monomial gather and matrix product.

Points are ``(N, 3)`` complex arrays of homogeneous triples, and every
kernel takes and returns them.  :class:`HomogeneousPoint` is one validated
triple that converts to such an array (it has ``__array__``), so a single-point
entry point accepts it, a ``(3,)`` row or a ``(1, 3)`` array alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalPointError,
    DegenerateEvaluationError,
    DegenerateMapError,
)

#: indices of the two affine coordinates for each chart, in increasing order
CHART_OTHERS = ((1, 2), (0, 2), (0, 1))

#: evaluations whose sup-norm falls below this (on sup-normalized input)
#: count as degenerate
DEGENERATE_EVAL_TOL = 1e-14

#: chart-Jacobian modulus below which differentials refuse to invert
CRITICAL_JACOBIAN_TOL = 1e-12

MAX_DEGREE = 8

#: complex lattice nodes per variable and safety factor of the C^2 estimate
C2_NODES = 8
C2_SAFETY = 2.0

#: composed coefficients below this share of the largest one are dropped
CLEAN_REL_TOL = 1e-14


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def as_point_array(points) -> np.ndarray:
    """Coerce input to an (N, 3) complex array of homogeneous triples."""
    arr = np.asarray(points, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("expected an (N, 3) array of homogeneous triples")
    return arr


def one_point(point) -> np.ndarray:
    """One point -- a :class:`HomogeneousPoint`, a (3,) row or a (1, 3)
    array -- as a (1, 3) array; zero or non-finite raises ValueError."""
    arr = as_point_array(point)
    if arr.shape[0] != 1:
        raise ValueError("expected a single homogeneous triple")
    check_row_scale(sup_norms(arr))
    return arr


def sup_norms(points: np.ndarray) -> np.ndarray:
    """Per-row sup norm of an (N, 3) array."""
    mag = np.abs(points)
    return np.maximum(np.maximum(mag[:, 0], mag[:, 1]), mag[:, 2])


def check_row_scale(scale: np.ndarray) -> None:
    """Reject rows whose norm is zero or not finite.

    ``scale`` holds one norm per row; a NaN or infinite coordinate makes
    the row's norm NaN or infinite, so this one check covers both.
    """
    if not np.all((scale > 0.0) & (scale < np.inf)):
        raise ValueError("zero or non-finite vector is not a projective "
                         "point")


def divide_rows(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Divide each row of a C-contiguous complex array by a real scale.

    Works in place and returns ``values``.  Dividing the float64 view
    divides the real and imaginary parts separately, which is correctly
    rounded; numpy's complex-by-real division multiplies by a rounded
    reciprocal instead, and is slower.
    """
    values.view(np.float64)[...] /= scale[:, None]
    return values


def sup_normalize(points: np.ndarray) -> np.ndarray:
    """Scale each row to unit sup-norm."""
    arr = as_point_array(points)
    scale = sup_norms(arr)
    check_row_scale(scale)
    return divide_rows(arr.copy(), scale)


def chart_indices(points: np.ndarray) -> np.ndarray:
    """Index of the largest-modulus coordinate per row (ties -> lowest)."""
    return np.argmax(np.abs(as_point_array(points)), axis=1)


def chart_normalize(points: np.ndarray, charts: np.ndarray | None = None):
    """Divide each row by its chart coordinate.

    Returns ``(normalized, charts)`` where the chart coordinate of each
    normalized row equals exactly 1.
    """
    arr = as_point_array(points)
    if charts is None:
        charts = chart_indices(arr)
    pivot = np.take_along_axis(arr, charts[:, None], axis=1)[:, 0]
    return arr / pivot[:, None], charts


def affine_coords(points: np.ndarray, charts: np.ndarray | None = None):
    """Affine coordinates ``(N, 2)`` in each row's own chart."""
    norm, charts = chart_normalize(points, charts)
    others = np.asarray(CHART_OTHERS)[charts]  # (N, 2)
    coords = np.take_along_axis(norm, others, axis=1)
    return coords, charts


def lift_from_chart(chart, coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`affine_coords`: insert 1 in ``chart``, one chart
    for all rows (an int) or one per row (an ``(N,)`` array)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.complex128))
    rows = np.arange(coords.shape[0])
    chart = np.broadcast_to(chart, rows.shape)
    out = np.empty((rows.size, 3), dtype=np.complex128)
    out[rows, chart] = 1.0
    out[rows[:, None], np.asarray(CHART_OTHERS)[chart]] = coords
    return out


def fs_distance_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fubini-Study chordal distance |p ^ q| / (|p| |q|), broadcastable.

    This is the sine of the Fubini-Study angle: 0 on equal projective
    points, 1 on orthogonal ones.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    cross = np.cross(p, q)
    num = np.linalg.norm(cross, axis=-1)
    den = np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
    return np.minimum(num / den, 1.0)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousPoint:
    """A point of the projective plane as a homogeneous triple."""

    coords: tuple[complex, complex, complex]

    def __init__(self, coords):
        arr = one_point(coords)[0]
        object.__setattr__(self, "coords", tuple(complex(c) for c in arr))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype or np.complex128)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self)


# ---------------------------------------------------------------------------
# homogeneous polynomial maps
# ---------------------------------------------------------------------------

def _component_table(table, degree) -> dict:
    """Validate one component's {(i, j, k): coeff} table; drop zero terms."""
    out = {}
    for key, val in table.items():
        i, j, k = (int(e) for e in key)
        if min(i, j, k) < 0 or i + j + k != degree:
            raise DegenerateMapError(
                "exponent triple %r does not have total degree %d"
                % (key, degree))
        if val != 0:
            out[(i, j, k)] = complex(val)
    if not out:
        raise DegenerateMapError("component is identically zero")
    return out


def _partial_table(table: dict, var: int) -> dict:
    """Coefficient table of the partial derivative along one variable."""
    out = {}
    for key, val in table.items():
        if key[var]:
            lowered = list(key)
            lowered[var] -= 1
            out[tuple(lowered)] = val * key[var]
    return out


class _SupportKernel:
    """K polynomials in (z, w, t) over the union M of their supports.

    Holds the ``(M, K)`` coefficient matrix.  :meth:`monomials` builds the
    powers of the three coordinates once and multiplies the M monomials
    from them; a call sums them with one ``(N, M) @ (M, K)`` product.
    """

    def __init__(self, tables):
        # monomials with more variables first: the second and third factors
        # then multiply leading blocks of rows in place
        support = sorted({key for table in tables for key in table},
                         key=lambda key: (-np.count_nonzero(key), key))
        row = {key: m for m, key in enumerate(support)}
        self.matrix = np.zeros((len(support), len(tables)),
                               dtype=np.complex128)
        for col, table in enumerate(tables):
            for key, val in table.items():
                self.matrix[row[key], col] = val
        self.real_t = (None if self.matrix.imag.any()
                       else self.matrix.T.real.copy())
        self.top = max(max(key) for key in support)
        # x_var^e sits in row (e - 1) * 3 + var of the flattened powers
        factors = [[(e - 1) * 3 + var for var, e in enumerate(key) if e]
                   for key in support]
        self.factors = [np.asarray([f[k] for f in factors if len(f) > k],
                                   dtype=np.int64) for k in range(3)]

    def monomials(self, table: np.ndarray) -> np.ndarray:
        """The (M, n) monomials of the (3, n) columns in ``table[0]``;
        ``table`` holds at least ``top`` powers."""
        for e in range(1, self.top):
            np.multiply(table[e - 1], table[0], out=table[e])
        flat = table.reshape(3 * len(table), -1)
        first, second, third = self.factors
        mono = flat[first]
        mono[:second.size] *= flat[second]
        mono[:third.size] *= flat[third]
        return mono

    def __call__(self, points: np.ndarray) -> np.ndarray:
        table = np.empty((self.top, 3, points.shape[0]), dtype=np.complex128)
        table[0] = points.T
        return self.monomials(table).T @ self.matrix


class HomogeneousMap:
    """Endomorphism candidate: three homogeneous polynomials of degree d.

    Construction validates homogeneity, the degree range, and that no
    component is identically zero.  Full nondegeneracy (no common root) is
    certified separately through preimage counting (see the zoo module).

    ``tables`` keeps the three ``{(i, j, k): coeff}`` tables as given.  For
    evaluation they are compiled into one ``(M, 3)`` coefficient matrix over
    the union of the components' monomial supports (M = 3 for the power
    maps, at most (d+1)(d+2)/2), and the nine first partials into a second
    matrix over the union of the derivative supports.
    """

    def __init__(self, components, name: str = "map"):
        if len(components) != 3:
            raise DegenerateMapError("a map needs exactly three components")
        degrees = set()
        for table in components:
            for key in table:
                i, j, k = key
                degrees.add(int(i) + int(j) + int(k))
        if len(degrees) != 1:
            raise DegenerateMapError(
                "components must share a single total degree")
        degree = degrees.pop()
        if not 2 <= degree <= MAX_DEGREE:
            raise DegenerateMapError(
                "degree %d outside the supported range [2, %d]"
                % (degree, MAX_DEGREE))
        self.degree = degree
        self.name = name
        self.tables = tuple(dict(t) for t in components)
        terms = [_component_table(t, degree) for t in components]
        self._values = _SupportKernel(terms)
        self._partials = _SupportKernel(
            [_partial_table(t, var) for t in terms for var in range(3)])
        self._c2_cache: float | None = None

    # -- evaluation --------------------------------------------------------

    def polynomial_batch(self, points: np.ndarray) -> np.ndarray:
        """Raw values ``F(x)`` on an (N, 3) array: no scaling, no checks."""
        return self._values(as_point_array(points))

    def polynomial_columns(self, table: np.ndarray) -> np.ndarray:
        """Raw values in place on a (degree, 3, n) table of powers: its
        first entry holds (3, n) columns x and is overwritten by F(x); a
        real coefficient matrix takes one real product of float64 views."""
        k = self._values
        if k.real_t is None:
            return np.matmul(k.matrix.T, k.monomials(table), out=table[0])
        np.matmul(k.real_t, k.monomials(table).view(np.float64),
                  out=table[0].view(np.float64))
        return table[0]

    def evaluate_batch(self, points: np.ndarray,
                       renormalize: bool = True) -> np.ndarray:
        """Apply the lift to an (N, 3) array of sup-normalized triples.

        Rows whose image collapses below the degeneracy threshold raise
        :class:`DegenerateEvaluationError`.
        """
        out = self._values(sup_normalize(points))
        scale = sup_norms(out)
        if np.any(scale <= DEGENERATE_EVAL_TOL):
            raise DegenerateEvaluationError(
                "map %r collapsed a point to ~0 (common-zero locus hit)"
                % self.name)
        if renormalize:
            divide_rows(out, scale)
        return out

    def evaluate_batch_safe(self, points: np.ndarray):
        """Like :meth:`evaluate_batch` but returns a validity mask.

        Rows that collapse below the degeneracy threshold, and zero or
        non-finite input rows, come back as unit vectors with ``ok`` False
        instead of raising; used by solvers that must filter wild
        intermediate candidates row by row.
        """
        pts = as_point_array(points)
        scale = sup_norms(pts)
        usable = (scale > 0.0) & (scale < np.inf)
        pts = divide_rows(np.where(usable[:, None], pts, 1.0),
                          np.where(usable, scale, 1.0))
        out = self._values(pts)
        scale = sup_norms(out)
        ok = usable & (scale > DEGENERATE_EVAL_TOL)
        divide_rows(out, np.where(ok, scale, 1.0))
        out[~ok] = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        return out, ok

    def orbit_batch(self, points: np.ndarray, length: int) -> np.ndarray:
        """Forward orbits: array (N, length + 1, 3), renormalized each step."""
        pts = sup_normalize(points)
        out = np.empty((pts.shape[0], length + 1, 3), dtype=np.complex128)
        out[:, 0] = pts
        for k in range(length):
            pts = self.evaluate_batch(pts)
            out[:, k + 1] = pts
        return out

    # -- derivatives -------------------------------------------------------

    def jacobian_h_batch(self, points: np.ndarray) -> np.ndarray:
        """Homogeneous 3x3 Jacobian dF_i/dx_j on an (N, 3) array."""
        pts = as_point_array(points)
        return self._partials(pts).reshape(pts.shape[0], 3, 3)

    def chart_differential_batch(self, points: np.ndarray):
        """Derivative of the chart representation at each row.

        Returns ``(mats, charts_in, charts_out)`` where ``mats[k]`` is the
        2x2 complex derivative of the map read from the k-th point's own
        chart to its image's own chart.
        """
        pts, charts_in = chart_normalize(points)
        images = self._values(pts)
        scale = sup_norms(images)
        if np.any(scale <= DEGENERATE_EVAL_TOL):
            raise DegenerateEvaluationError(
                "map %r collapsed a point to ~0" % self.name)
        charts_out = np.argmax(np.abs(images), axis=1)
        jac = self.jacobian_h_batch(pts)

        n = pts.shape[0]
        others = np.asarray(CHART_OTHERS)
        rows = others[charts_out]          # (N, 2) output affine indices
        cols = others[charts_in]           # (N, 2) input affine indices
        fb = np.take_along_axis(images, charts_out[:, None], axis=1)[:, 0]
        mats = np.empty((n, 2, 2), dtype=np.complex128)
        idx = np.arange(n)
        for r in range(2):
            fr = images[idx, rows[:, r]]
            for c in range(2):
                jr = jac[idx, rows[:, r], cols[:, c]]
                jb = jac[idx, charts_out, cols[:, c]]
                mats[:, r, c] = (jr * fb - fr * jb) / (fb * fb)
        return mats, charts_in, charts_out

    def __repr__(self):
        return "HomogeneousMap(%r, degree=%d)" % (self.name, self.degree)


# ---------------------------------------------------------------------------
# polynomial algebra on exponent tables
# ---------------------------------------------------------------------------

def _mul_tables(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _clean_table(table: dict) -> dict:
    mags = [abs(c) for c in table.values()]
    floor = max(mags) * CLEAN_REL_TOL if mags else 0.0
    return {k: c for k, c in table.items() if abs(c) > floor}


def _substitute(map_: HomogeneousMap, rows, name: str) -> HomogeneousMap:
    """Coefficient tables of ``F(rows[0], rows[1], rows[2])``.

    ``rows`` are three homogeneous polynomial tables of a common degree;
    the result has degree ``map_.degree`` times theirs.
    """
    # powers of each substituted polynomial up to map_.degree
    powers = [[{(0, 0, 0): 1.0 + 0j}] for _ in range(3)]
    for var in range(3):
        for _ in range(map_.degree):
            powers[var].append(_mul_tables(powers[var][-1], rows[var]))
    comps = []
    for table in map_.tables:
        acc: dict = {}
        for (i, j, k), c in table.items():
            term = _mul_tables(powers[0][i], powers[1][j])
            term = _mul_tables(term, powers[2][k])
            for key, val in term.items():
                acc[key] = acc.get(key, 0j) + c * val
        comps.append(_clean_table(acc))
    return HomogeneousMap(comps, name=name)


def compose(outer: HomogeneousMap, inner: HomogeneousMap,
            name: str | None = None) -> HomogeneousMap:
    """Coefficient table of ``outer(inner(.))`` (degree multiplies)."""
    if name is None:
        name = "%s.%s" % (outer.name, inner.name)
    return _substitute(outer, inner.tables, name)


def substitute_linear(map_: HomogeneousMap, matrix: np.ndarray,
                      name: str | None = None) -> HomogeneousMap:
    """Coefficient table of ``F(U x)`` for a 3x3 linear change ``U``."""
    u = np.asarray(matrix, dtype=np.complex128)
    rows = [{(1, 0, 0): complex(u[r, 0]),
             (0, 1, 0): complex(u[r, 1]),
             (0, 0, 1): complex(u[r, 2])} for r in range(3)]
    if name is None:
        name = "%s.rotated" % map_.name
    return _substitute(map_, rows, name)


def dehomogenized_tables(map_: HomogeneousMap, chart: int) -> list[np.ndarray]:
    """Dense 2D coefficient matrices of each component on one chart.

    Entry ``[a, b]`` of matrix ``c`` is the coefficient of ``u^a v^b`` in
    component ``c`` after setting the chart coordinate to 1, where (u, v)
    are the chart's affine coordinates in increasing index order.
    """
    d = map_.degree
    i1, i2 = CHART_OTHERS[chart]
    out = []
    for table in map_.tables:
        mat = np.zeros((d + 1, d + 1), dtype=np.complex128)
        for exps, coeff in table.items():
            mat[exps[i1], exps[i2]] += coeff
        out.append(mat)
    return out


# ---------------------------------------------------------------------------
# geometry of local charts: second-derivative norm and injectivity radius
# ---------------------------------------------------------------------------

def _c2_norm_estimate(map_: HomogeneousMap) -> float:
    """Estimated sup of second chart-derivatives over the unit bidisks.

    Samples a lattice of ``C2_NODES`` complex nodes per variable on each of
    the three input charts (which together cover the plane), reads the map
    in the output chart chosen at each node, and takes finite differences
    of the 2x2 first derivative, inflated by ``C2_SAFETY``.
    """
    h = 1e-4
    sup = 0.0
    side = np.linspace(-1.0, 1.0, C2_NODES)
    re, im = np.meshgrid(side, side)
    nodes = (re + 1j * im).ravel()
    uu, vv = np.meshgrid(nodes, nodes)
    base = np.stack([uu.ravel(), vv.ravel()], axis=1)
    for chart in range(3):
        pts = lift_from_chart(chart, base)
        offsets = [(h, 0), (-h, 0), (0, h), (0, -h), (0, 0)]
        mats = []
        ok = np.ones(pts.shape[0], dtype=bool)
        for du, dv in offsets:
            shifted = pts.copy()
            i, j = CHART_OTHERS[chart]
            shifted[:, i] += du
            shifted[:, j] += dv
            try:
                m, ci, co = map_.chart_differential_batch(shifted)
            except DegenerateEvaluationError:
                return float("inf")
            mats.append((m, ci, co))
        _, ci0, co0 = mats[-1]
        for k in range(4):
            ok &= (mats[k][1] == ci0) & (mats[k][2] == co0)
        if not np.any(ok):
            continue
        d_u = (mats[0][0][ok] - mats[1][0][ok]) / (2 * h)
        d_v = (mats[2][0][ok] - mats[3][0][ok]) / (2 * h)
        mag = max(np.max(np.abs(d_u)), np.max(np.abs(d_v)))
        sup = max(sup, float(mag))
    if sup == 0.0:
        sup = 1.0
    return C2_SAFETY * sup


def c2_norm(map_: HomogeneousMap) -> float:
    """Cached second-derivative sup-norm estimate for a map."""
    if map_._c2_cache is None:
        map_._c2_cache = _c2_norm_estimate(map_)
    return map_._c2_cache


def injectivity_radius(map_: HomogeneousMap, point) -> float:
    """Radius on which the chart representation is safely invertible.

    Uses the inverse-function bound min(a / C2, 1) with a = sigma_min(Df) / 2,
    Df the chart differential at one :func:`one_point` input and C2 the
    cached second-derivative estimate; |det Df| below
    ``CRITICAL_JACOBIAN_TOL`` raises :class:`CriticalPointError`.
    """
    mats, _, _ = map_.chart_differential_batch(one_point(point))
    m = mats[0]
    det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if det < CRITICAL_JACOBIAN_TOL:
        raise CriticalPointError(
            "chart Jacobian determinant %.3e below threshold" % det)
    sigma_min = float(np.linalg.svd(m, compute_uv=False)[-1])
    return float(min(0.5 * sigma_min / c2_norm(map_), 1.0))
