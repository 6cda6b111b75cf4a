"""Points, maps, metric, and derivatives on the complex projective plane.

Points are homogeneous triples in C^3 \\ {0}.  Every point owns a preferred
affine chart: the index of its largest-modulus coordinate (ties resolved to
the lowest index), which keeps affine representatives inside the closed unit
bidisk.  Maps are triples of homogeneous polynomials of a common degree d
with 2 <= d <= 8.  A map keeps its coefficient tables as given and compiles
them into one coefficient matrix over the union of its components' monomial
supports (and one more for its first partial derivatives); one kernel
evaluates them, adding each component's terms one by one in a fixed order.

Points are ``(N, 3)`` complex arrays of homogeneous triples, and every
kernel takes and returns them.  :class:`HomogeneousPoint` is one validated
triple that converts to such an array (it has ``__array__``), so a single-point
entry point accepts it, a ``(3,)`` row or a ``(1, 3)`` array alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .errors import CriticalPointError, DegenerateMapError

#: indices of the two affine coordinates for each chart, in increasing order
CHART_OTHERS = ((1, 2), (0, 2), (0, 1))
#: the same as a read-only ``(3, 2)`` index array
CHART_OTHERS_INDEX = np.array(CHART_OTHERS)
CHART_OTHERS_INDEX.flags.writeable = False

#: a map whose proven image floor does not exceed this is refused
DEGENERATE_EVAL_TOL = 1e-14

#: chart-Jacobian modulus below which differentials refuse to invert
CRITICAL_JACOBIAN_TOL = 1e-12

MAX_DEGREE = 8

#: complex lattice nodes per variable and safety factor of the C^2 estimate
C2_NODES = 8
C2_SAFETY = 2.0

#: substituted coefficients below this share of the largest one are dropped
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
    if not ((scale > 0.0) & (scale < np.inf)).all():
        raise ValueError("zero or non-finite vector is not a projective "
                         "point")


def check_integer(name: str, value, low: int, high: int | None = None):
    """Reject anything but a Python or numpy integer in [low, high] with a
    ``ValueError`` naming the argument (no ``high``: no upper end)."""
    if (not isinstance(value, (int, np.integer)) or value < low
            or high is not None and value > high):
        span = ">= %d" % low if high is None else "in [%d, %d]" % (low, high)
        raise ValueError("%s must be an integer %s, got %r"
                         % (name, span, value))


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
    return np.abs(as_point_array(points)).argmax(axis=1)


def chart_normalize(points: np.ndarray, charts: np.ndarray | None = None):
    """Divide each row by its chart coordinate.

    Returns ``(normalized, charts)`` where the chart coordinate of each
    normalized row equals exactly 1 (written: z / z can miss it by an ulp).
    """
    arr = as_point_array(points)
    if charts is None:
        charts = chart_indices(arr)
    rows = np.arange(arr.shape[0])
    out = arr / arr[rows, charts][:, None]
    out[rows, charts] = 1.0
    return out, charts


def affine_coords(points: np.ndarray, charts: np.ndarray | None = None):
    """Affine coordinates ``(N, 2)`` in each row's own chart."""
    norm, charts = chart_normalize(points, charts)
    others = CHART_OTHERS_INDEX[charts]
    return norm[np.arange(norm.shape[0])[:, None], others], charts


def lift_from_chart(chart, coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`affine_coords`: insert 1 in ``chart``, one chart
    for all rows (an int) or one per row (an ``(N,)`` array)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.complex128))
    rows = np.arange(coords.shape[0])
    out = np.empty((rows.size, 3), dtype=np.complex128)
    out[rows, chart] = 1.0
    out[rows[:, None], CHART_OTHERS_INDEX[chart]] = coords
    return out


def fs_distance_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fubini-Study chordal distance |p ^ q| / (|p| |q|), broadcastable.

    This is the sine of the Fubini-Study angle: 0 on equal projective
    points, 1 on orthogonal ones.  The components of p ^ q are the 2x2
    minors of (p, q), in the order and arithmetic of ``np.cross``.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    i, j = [1, 2, 0], [2, 0, 1]
    minors = p[..., i] * q[..., j] - p[..., j] * q[..., i]
    num, pp, qq = (np.sqrt(np.add.reduce((z.conj() * z).real, axis=-1))
                   for z in (minors, p, q))
    return np.minimum(num / (pp * qq), 1.0)


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
        coef = complex(val)
        if not cmath.isfinite(coef):
            raise DegenerateMapError("coefficient %r of %r is not finite"
                                     % (val, key))
        if coef:
            out[(i, j, k)] = coef
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
    powers of the three coordinates once and reads the M monomials from
    them; :meth:`sums` adds each column's nonzero coefficient-times-monomial
    products in support order, one pass over the batch per term, so a row
    gets the same bits alone as in any batch and in either entry point.
    """

    def __init__(self, tables):
        # the support order fixes each column's order of summation
        support = sorted({key for table in tables for key in table},
                         key=lambda key: (-np.count_nonzero(key), key))
        row = {key: m for m, key in enumerate(support)}
        self.matrix = np.zeros((len(support), len(tables)),
                               dtype=np.complex128)
        for col, table in enumerate(tables):
            for key, val in table.items():
                self.matrix[row[key], col] = val
        self.columns = [[(m, coef) for m, coef in enumerate(col) if coef]
                        for col in self.matrix.T]
        self.top = max(max(key) for key in support)
        # x_var^e sits in table[e - 1, var]
        self.factors = [[(e - 1, var) for var, e in enumerate(key) if e]
                        for key in support]

    def monomials(self, table: np.ndarray) -> list:
        """The M monomial rows of the (3, n) columns in ``table[0]``, which
        holds at least ``top`` powers: a single power is a view of it, a
        mixed one a new product of its powers in coordinate order (not in
        place: numpy rounds a one-element complex product into an operand
        without the fused multiply-add of its vector loop)."""
        for e in range(1, self.top):
            np.multiply(table[e - 1], table[0], out=table[e])
        return [table[f[0]] if len(f) == 1
                else reduce(np.multiply, [table[pos] for pos in f])
                for f in self.factors]

    def sums(self, table: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each column's terms summed into its row of ``out`` (K, n); a
        column with no term is left as it is."""
        mono = self.monomials(table)
        for k, column in enumerate(self.columns):
            for m, coef in column[:1]:
                np.multiply(coef, mono[m], out=out[k])
            for m, coef in column[1:]:
                out[k] += coef * mono[m]
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        table = np.empty((self.top, 3, points.shape[0]), dtype=np.complex128)
        table[0] = points.T
        out = np.zeros((len(self.columns), points.shape[0]), complex)
        return self.sums(table, out).T


def _growth_floor(tables, degree: int) -> float:
    """Proven c_F with ``||F(v)||_sup >= c_F ||v||_sup^d``, or 0.0.

    A least-squares identity ``x_i^D = sum_k A_ik F_k + R_i`` (D = 3d - 2,
    Macaulay) gives 1 <= sum_k |A_ik(v)| |F_k(v)| + |R_i(v)| where |v_i| =
    1 = ||v||_sup, so c_F = min_i (1 - r_i) / sum_k ||A_ik||_1; r_i adds to
    the computed ||R_i||_1 (n + 3) eps times the moduli summed into each
    coefficient (n nonzero products).  0.0: no proof.
    """
    low, top = 2 * degree - 2, 3 * degree - 2
    pairs = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]
    row = {(i, j, top - i - j): m for m, (i, j) in enumerate(pairs)}
    lower = [(i, j, low - i - j) for i, j in pairs if i + j <= low]
    system = np.zeros((len(row), 3 * len(lower)), dtype=np.complex128)
    for col, (table, key) in enumerate(product(tables, lower)):
        for mono, coef in _mul_tables({key: 1.0}, table).items():
            system[row[mono], col] = coef
    pure = [row[key] for key in ((top, 0, 0), (0, top, 0), (0, 0, top))]
    target = np.eye(len(row))[:, pure]
    coef = np.linalg.lstsq(system, target, rcond=None)[0]
    slack = (np.count_nonzero(system, axis=1) + 3) * np.finfo(float).eps
    rounding = slack[:, None] * (target + np.abs(system) @ np.abs(coef))
    residual = np.sum(np.abs(target - system @ coef) + rounding, axis=0)
    if np.any(residual >= 1.0):
        return 0.0
    return float(np.min((1.0 - residual) / np.sum(np.abs(coef), axis=0)))


class HomogeneousMap:
    """Holomorphic endomorphism: three homogeneous polynomials of degree d.

    Construction validates homogeneity, the degree range, finite
    coefficients and that no component is identically zero, then proves
    that the triple has no common zero: ``growth_floor`` c_F is a proven
    ``||F(v)||_sup >= c_F ||v||_sup^d``, ``growth_bound`` U = max_i sum_j
    |c_ij| gives ``||F(v)||_sup <= U ||v||_sup^d``, and ``image_floor`` f =
    c_F 3^(-d/2) less the evaluation rounding ((d+1)(d+2)/2 + 2d + 6) eps
    sqrt(3) U bounds every computed image of a unit vector from below, in
    either norm.  A map whose f does not exceed ``DEGENERATE_EVAL_TOL``
    raises :class:`DegenerateMapError`, so no evaluation of a built map can
    collapse and none checks.

    ``tables`` keeps the three ``{(i, j, k): coeff}`` tables as given.  For
    evaluation they are compiled into one ``(M, 3)`` coefficient matrix over
    the union of the components' monomial supports (M = 3 for the power
    maps, at most (d+1)(d+2)/2), and the nine first partials into a second
    matrix over the union of the derivative supports, both summed term by
    term by one kernel.  For the preimage solver, read-only
    ``chart_tables[c, k, a, b]`` is the coefficient of u^a v^b in component
    k once coordinate c is set to 1, (u, v) the other two in increasing
    order.
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
        tables = np.zeros((3, 3, degree + 1, degree + 1), dtype=np.complex128)
        for comp, table in enumerate(terms):
            for key, val in table.items():
                for chart, (i1, i2) in enumerate(CHART_OTHERS):
                    tables[chart, comp, key[i1], key[i2]] = val
        tables.flags.writeable = False
        self.chart_tables = tables
        self.growth_floor = _growth_floor(self.tables, degree)
        self.growth_bound = max(float(np.sum(np.abs(list(table.values()))))
                                for table in self.tables)
        eps = np.finfo(float).eps
        rounding = ((degree + 1) * (degree + 2) // 2 + 2 * degree + 6) \
            * eps * np.sqrt(3.0)
        self.image_floor = (self.growth_floor * 3.0 ** (-degree / 2)
                            - rounding * self.growth_bound)
        if not self.image_floor > DEGENERATE_EVAL_TOL:
            raise DegenerateMapError(
                "map %r has no proven growth floor (image floor %.3g): its "
                "components may share a zero" % (name, self.image_floor))

    # -- evaluation --------------------------------------------------------

    def polynomial_batch(self, points: np.ndarray) -> np.ndarray:
        """Raw values ``F(x)`` on an (N, 3) array: no scaling, no checks."""
        return self._values(as_point_array(points))

    def polynomial_columns(self, table: np.ndarray) -> np.ndarray:
        """Raw values in place on a (degree, 3, n) table of powers: its
        first entry holds (3, n) columns x and is overwritten by F(x), the
        same bits as :meth:`polynomial_batch`."""
        # safe: at degree >= 2 a single power lies past table[0] and mixed
        # monomials are new arrays, so no term reads what the sums write
        return self._values.sums(table, table[0])

    def evaluate_batch(self, points: np.ndarray,
                       renormalize: bool = True) -> np.ndarray:
        """Apply the lift to an (N, 3) array of sup-normalized triples."""
        out = self._values(sup_normalize(points)).copy()
        if renormalize:
            divide_rows(out, sup_norms(out))
        return out

    def evaluate_batch_safe(self, points: np.ndarray):
        """Like :meth:`evaluate_batch` but returns a validity mask.

        Zero or non-finite input rows come back as unit vectors with ``ok``
        False instead of raising; used by solvers that must filter wild
        intermediate candidates row by row.
        """
        pts = as_point_array(points)
        scale = sup_norms(pts)
        ok = (scale > 0.0) & (scale < np.inf)
        pts = divide_rows(np.where(ok[:, None], pts, 1.0),
                          np.where(ok, scale, 1.0))
        out = self._values(pts).copy()
        divide_rows(out, np.where(ok, sup_norms(out), 1.0))
        out[~ok] = 1.0, 0.0, 0.0
        return out, ok

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
            mats.append(map_.chart_differential_batch(shifted))
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
