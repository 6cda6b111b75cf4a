"""Slice measures, ball masses, and a global mass certificate for currents.

The invariant current of a holomorphic endomorphism is locally ``dd^c`` of
a plurisubharmonic potential.  Wedging it against either coordinate area
form of a frame chart gives a measure whose density is the *transverse*
Laplacian of the potential: the ``Z``-direction measure (against
``(i/2) dZ ^ dZbar``) weighs the ``W``-plane Laplacian and vice versa.
This module realizes those measures as nonnegative mass grids over a
bidisk in chart coordinates:

* :class:`LocalGrid` fixes a cell-centered grid with one ghost node ring
  so 5-point stencils cover every interior cell.
* :func:`slice_measure` converts a sampled potential into per-cell masses
  ``mass = (raw 5-point stencil) * h^2 / (2 pi)``.  The raw stencil is
  ``h^2`` times the transverse Laplacian, so this is the measure of the
  cell under the normalization fixed by the smooth calibration potential
  ``|W|^2``: constant density ``2/pi`` against 4-dimensional Lebesgue
  measure and Euclidean ball mass ``pi r^4``.  The same convention makes
  :func:`mass_certificate` integrate the current against the Fubini-Study
  area form to exactly one.  Slightly negative stencil values are pure
  discretization error (the potentials are plurisubharmonic); they are
  clamped to zero, counted on the result, and budgeted.
* :func:`ball_mass` sums cell masses over a Euclidean ball, weighting
  boundary cells by fractional coverage (2 x 2 x 2 x 2 subsamples).
* :func:`trace_measure` adds the two directional grids cellwise; its ball
  scaling realizes the minimum of the two directional scalings.
* :func:`mass_certificate` integrates (depth-``N`` truncated current)
  wedge (``n``-fold pullback of the Fubini-Study form) over the whole
  projective plane with a three-chart partition-of-unity quadrature.  The
  pairing is cohomological, so the exact value is ``d^n`` for *every*
  truncation depth; the computed number certifies the quadrature and the
  mass normalization at once.  A chart's weight is nonzero only where
  ``|z|^2 + |w|^2 < 3``; only the nodes its stencils read are evaluated,
  at lifts from plane indices cached per resolution, a few Z-slabs at a time.
* :func:`harmonicity_defect` integrates ``|transverse Laplacian|`` per
  slice, separating harmonic slice families from mass-bearing ones.

Charts for grids at arbitrary points (no dynamical frame needed) come from
:func:`axis_chart`, which reuses the frame-chart machinery with the
orthonormal tangent basis itself as the (unit) frame.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResolutionError
from .frames import NormalFormCoordinates, OseledecFrame, default_coordinates
from . import green
from .green import GreenEvaluator
from .projective import CHART_OTHERS, HomogeneousMap, one_point
from .sampler import tangent_basis_batch

__all__ = [
    "CERTIFICATE_DEPTH",
    "CERTIFICATE_RESOLUTION",
    "CLAMP_BUDGET",
    "DEFAULT_RADIUS_FRACTION",
    "MIN_RESOLUTION",
    "POSITIVITY_SCALE",
    "LocalGrid",
    "MassCertificate",
    "SliceMeasure",
    "axis_chart",
    "ball_mass",
    "calibration_defect",
    "calibration_mass",
    "harmonicity_defect",
    "mass_certificate",
    "slice_measure",
    "trace_measure",
]

logger = logging.getLogger(__name__)

#: Minimum grid resolution per real axis.
MIN_RESOLUTION = 32
#: Default grid radius as a fraction of the chart domain radius; leaves the
#: ghost ring inside the chart for every resolution >= MIN_RESOLUTION.
DEFAULT_RADIUS_FRACTION = 0.45
#: Cell mass = raw stencil * h^2 * MASS_NORMALIZATION.
MASS_NORMALIZATION = 1.0 / (2.0 * math.pi)
#: Clamped (negative) mass may not exceed this fraction of the total.
CLAMP_BUDGET = 0.01
#: Negative cells beyond -NEGATIVITY_FLOOR * max cell trigger a warning.
NEGATIVITY_FLOOR = 1e-9
#: A grid "carries mass" when its total exceeds this times the calibration.
POSITIVITY_SCALE = 1e-8
#: Depth of the truncated potential used by the mass certificate.
CERTIFICATE_DEPTH = 3
#: Quadrature nodes per real axis (per chart) for the mass certificate.
CERTIFICATE_RESOLUTION = 40
#: Half-width of the per-chart quadrature box; the partition-of-unity
#: weight vanishes outside |z|^2 + |w|^2 = 3, i.e. inside this bidisk.
_CERTIFICATE_EXTENT = math.sqrt(3.0)
#: Partition-of-unity hinge offset: weights activate where a homogeneous
#: coordinate carries more than this fraction of the squared norm.
_HINGE_OFFSET = 0.25
#: Relative disagreement between full and half resolution that flags the
#: certificate as inconclusive.
_CERTIFICATE_RESIDUAL_TOL = 0.10

_DIRECTIONS = ("Z", "W")


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalGrid:
    """Cell-centered bidisk grid ``|Z| < radius, |W| < radius`` in a chart.

    ``resolution`` cells per real axis, spacing ``h = 2 radius /
    resolution``; node ``i`` of an axis sits at ``-radius + (i + 1/2) h``.
    One ghost node beyond each edge supports the 5-point stencils, so the
    sampled node cube has ``resolution + 2`` nodes per axis and must stay
    inside the chart domain (including the ghost ring); construction
    checks this, once, so every grid that constructs can be sampled, and
    raises :class:`ResolutionError` past the domain, as sampling would.
    """

    coords: NormalFormCoordinates
    resolution: int
    radius: float

    def __post_init__(self):
        if int(self.resolution) != self.resolution \
                or self.resolution < MIN_RESOLUTION:
            raise ValueError("grid resolution must be an integer >= %d, "
                             "got %r" % (MIN_RESOLUTION, self.resolution))
        object.__setattr__(self, "resolution", int(self.resolution))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("grid radius must be positive and finite")
        # worst corner: all four real axes at the outermost ghost node, so
        # the chart norm |xi| reaches twice its modulus there
        reach = 2.0 * float(np.abs(self.axis_nodes()).max())
        domain = float(self.coords.domain_radius)
        if reach > domain:
            raise ResolutionError(
                "grid (with its ghost ring) reaches |xi| = %.3g beyond the "
                "chart domain radius %.3g; shrink the grid radius below "
                "%.3g" % (reach, domain, domain / 2.0))

    @classmethod
    def from_coords(cls, coords: NormalFormCoordinates,
                    resolution: int = MIN_RESOLUTION,
                    radius: float | None = None) -> "LocalGrid":
        """Grid filling the default fraction of the chart domain."""
        if radius is None:
            radius = DEFAULT_RADIUS_FRACTION * float(coords.domain_radius)
        return cls(coords=coords, resolution=resolution, radius=float(radius))

    @property
    def spacing(self) -> float:
        """Cell side ``h = 2 radius / resolution``."""
        return 2.0 * self.radius / self.resolution

    def axis_nodes(self, ghost: bool = True) -> np.ndarray:
        """Per-axis node coordinates, optionally with the ghost ring."""
        m, h = self.resolution, self.spacing
        ax = -self.radius + (np.arange(m + 2) - 0.5) * h
        return ax if ghost else ax[1:-1]

    def sample_scalar(self, fn) -> np.ndarray:
        """Sample ``fn(Z, W)`` on the ghosted node cube.

        ``fn`` receives broadcastable complex arrays ``Z`` of shape
        ``(n, n, 1, 1)`` and ``W`` of shape ``(1, 1, n, n)`` with
        ``n = resolution + 2`` and must return a real broadcastable array.
        """
        ax = self.axis_nodes()
        plane = ax[:, None] + 1j * ax[None, :]
        vals = np.asarray(fn(plane[:, :, None, None], plane[None, None]),
                          dtype=np.float64)
        return np.ascontiguousarray(np.broadcast_to(vals, (ax.size,) * 4))

    def sample_green(self, evaluator: GreenEvaluator) -> np.ndarray:
        """Truncated potential on the ghosted node cube.

        The lift section is ``base + Z c1 + W c2`` with ``(c1 c2) =
        tangent_basis @ frame.matrix``.  Construction has already checked
        that every node lies in the chart domain.
        """
        frame = self.coords.frame
        return _cube_potential(evaluator, self.axis_nodes(), frame.base_lift,
                               frame.tangent_basis @ frame.matrix)


def _cube_potential(ev: GreenEvaluator, axis: np.ndarray, base: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Escape rate at the lifts ``base + Z c[:, 0] + W c[:, 1]``, ``Z`` and
    ``W`` over ``axis + i axis``: each block of Z-slabs of the node cube
    is one broadcast sum of ``(3, n^2)`` Z-parts (base included) and
    W-parts, the block's lift columns."""
    n = axis.size
    plane = (axis[:, None] + 1j * axis[None, :]).ravel()
    # plane on the left: numpy's complex product is not bit-commutative
    zpart = base[:, None] + plane * c[:, :1]
    wpart = plane * c[:, 1:]
    out = np.empty((n,) * 4)
    slabs = max(1, (1 << 16) // (n * plane.size))
    lifts = np.empty((3, slabs * n, plane.size), dtype=np.complex128)
    for a in range(0, n, slabs):
        k = min(slabs, n - a)
        block = np.add(zpart[:, a * n:(a + k) * n, None], wpart[:, None],
                       out=lifts[:, :k * n])
        # looked up at call time, so a wrapped green.escape_rate is seen
        vals = green.escape_rate(ev, block.reshape(3, -1).T)
        out[a:a + k] = np.reshape(vals, (k, n, n, n))
    return out


def axis_chart(map_: HomogeneousMap, point,
               domain_radius: float | None = None) -> NormalFormCoordinates:
    """Chart at ``point`` whose frame is the orthonormal tangent basis.

    ``point`` is any :func:`~p2dyn.projective.one_point` input; zero or
    non-finite coordinates raise ``ValueError``.  This is pure geometry --
    the two directions are the Fubini-Study tangent basis columns, not
    dynamically distinguished ones -- so the frame is marked isotropic.
    With ``domain_radius=None`` the domain is the same safe fraction of the
    injectivity radius that dynamical frame charts use.
    """
    arr = one_point(point)[0]
    lift = arr / np.linalg.norm(arr)
    basis = tangent_basis_batch(lift[None, :])[0]
    frame = OseledecFrame(
        e1=np.array([1.0, 0.0], dtype=np.complex128),
        e2=np.array([0.0, 1.0], dtype=np.complex128),
        isotropic=True,
        base_lift=lift,
        tangent_basis=basis,
    )
    if domain_radius is None:
        return default_coordinates(map_, frame)
    return NormalFormCoordinates(frame=frame,
                                 domain_radius=float(domain_radius))


def calibration_mass(grid: LocalGrid) -> float:
    """Total slice mass of the calibration potential ``|W|^2`` on ``grid``.

    The transverse Laplacian is 4, the density ``4 / (2 pi) = 2 / pi``,
    and the grid box has Lebesgue volume ``(2 radius)^4``.
    """
    return (2.0 / math.pi) * (2.0 * grid.radius) ** 4


def calibration_defect(grid: LocalGrid) -> float:
    """Per-slice harmonicity defect of ``|W|^2``: ``4 * (2 radius)^2``."""
    return 4.0 * (2.0 * grid.radius) ** 2


# ---------------------------------------------------------------------------
# slice measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SliceMeasure:
    """Nonnegative cell masses of one directional slice of the current.

    ``cell_mass`` has shape ``(m, m, m, m)`` indexed by the interior cells
    (Z-real, Z-imag, W-real, W-imag); ``direction`` names the area form
    the current was wedged against ('Z', 'W', or their cellwise 'trace').
    ``clamped_mass`` is the total discretization-negative mass that was
    clamped to zero, ``n_clamped`` the number of cells clamped and
    ``worst_clamped`` the largest mass removed from one cell.
    """

    grid: LocalGrid
    direction: str
    cell_mass: np.ndarray
    total_mass: float
    clamped_mass: float = 0.0
    n_clamped: int = 0
    worst_clamped: float = 0.0

    def __post_init__(self):
        if self.direction not in _DIRECTIONS + ("trace",):
            raise ValueError("direction must be 'Z', 'W', or 'trace', "
                             "got %r" % (self.direction,))
        mass = np.asarray(self.cell_mass, dtype=np.float64)
        m = self.grid.resolution
        if mass.shape != (m, m, m, m):
            raise ValueError("cell_mass shape %r does not match the grid "
                             "resolution %d" % (mass.shape, m))
        if mass.size and float(mass.min()) < 0.0:
            raise ValueError("cell masses must be nonnegative")
        object.__setattr__(self, "cell_mass", mass)
        total = float(mass.sum())
        if abs(total - self.total_mass) > 1e-9 * max(abs(total), 1.0):
            raise ValueError("total_mass %.17g does not equal the cell sum "
                             "%.17g" % (self.total_mass, total))


def _shifted(values: np.ndarray, shifts: dict) -> np.ndarray:
    """Interior nodes of a 4-axis node cube, each axis in ``shifts`` moved
    one node up (+1) or down (-1)."""
    index = [slice(1, -1)] * 4
    for axis, step in shifts.items():
        index[axis] = slice(2, None) if step > 0 else slice(None, -2)
    return values[tuple(index)]


def _plane_stencil(values: np.ndarray, plane: int) -> np.ndarray:
    """Unnormalized 5-point stencil over the Z-plane (``plane`` 0, axes 0
    and 1) or the W-plane (``plane`` 1, axes 2 and 3) at interior nodes."""
    a, b = 2 * plane, 2 * plane + 1
    return (_shifted(values, {a: 1}) + _shifted(values, {a: -1})
            + _shifted(values, {b: 1}) + _shifted(values, {b: -1})
            - 4.0 * _shifted(values, {}))


def _raw_stencil(potential: np.ndarray, grid: LocalGrid,
                 direction: str) -> np.ndarray:
    """Unnormalized transverse 5-point stencil on interior cells.

    The returned array is ``h^2`` times the transverse Laplacian up to
    ``O(h^4)``: the W-plane Laplacian for direction 'Z' and vice versa.
    """
    if direction not in _DIRECTIONS:
        raise ValueError("direction must be 'Z' or 'W', got %r"
                         % (direction,))
    pot = np.asarray(potential, dtype=np.float64)
    n = grid.resolution + 2
    if pot.shape != (n, n, n, n):
        raise ValueError(
            "potential grid mismatch: expected the ghosted node cube "
            "%r, got %r" % ((n, n, n, n), pot.shape))
    return _plane_stencil(pot, 1 if direction == "Z" else 0)


def slice_measure(potential: np.ndarray, grid: LocalGrid, direction: str,
                  clamp_budget: float = CLAMP_BUDGET) -> SliceMeasure:
    """Directional slice of ``dd^c potential`` as a cell-mass grid.

    ``potential`` must be sampled on the grid's ghosted node cube (shape
    ``(m+2,)*4``).  Negative stencil values are clamped to zero and
    counted on the result; if the clamped mass exceeds ``clamp_budget`` of
    the total (and is not floor-level noise) the discretization cannot be
    trusted and a :class:`ResolutionError` is raised.  Potentials with a
    genuinely singular transverse part (a point mass on the transverse
    plane) carry a few percent of discrete negativity next to the
    singularity; callers knowingly slicing one may widen ``clamp_budget``.
    An infinite budget disables the failure entirely (clamping is still
    applied and reported) for callers that merely classify whether mass is
    present.

    A clamped cell logs a WARNING past ``NEGATIVITY_FLOOR`` times the
    largest cell and the rounding floor ``32 eps S h^2 MASS_NORMALIZATION``,
    ``S = max(|potential|, 1)``: node values (sums of order-one logs, as the
    escape rate's ``e_k log 2``) are off by up to ``eps S``, the weights (1,
    1, 1, 1, -4) carry 8 such errors and 4 sums round partials up to ``8 S``
    by ``eps / 2``: 24, taken up to 32.  Massless basin grids read 2.3-2.6.
    """
    mass = _raw_stencil(potential, grid, direction)
    mass *= grid.spacing ** 2 * MASS_NORMALIZATION
    negative = mass < 0.0
    below = mass[negative]
    clamped = float(-below.sum()) if below.size else 0.0
    worst = float(-below.min()) if clamped else 0.0
    mass[negative] = 0.0
    total = float(mass.sum())
    if clamped:
        max_cell = float(mass.max(initial=0.0))
        # A grid whose mass sits below the positivity floor carries no
        # measurable slice mass, so clamping there cannot be material; the
        # relative budget alone would reject every massless grid, because
        # stencil truncation error on a curved potential is never exactly 0.
        if math.isfinite(clamp_budget) and \
                clamped > max(clamp_budget * total,
                              POSITIVITY_SCALE * calibration_mass(grid)):
            raise ResolutionError(
                "clamped negative mass %.3g exceeds %.0f%% of the total "
                "%.3g; the transverse Laplacian is not resolved at "
                "spacing %.3g" % (clamped, 100.0 * clamp_budget, total,
                                  grid.spacing))
        scale = max(float(np.max(potential)), -float(np.min(potential)), 1.0)
        floor = max(NEGATIVITY_FLOOR * max_cell, 32.0 * np.finfo(float).eps
                    * scale * grid.spacing ** 2 * MASS_NORMALIZATION)
        if max_cell > 0.0 and worst > floor:
            logger.warning(
                "negative cell mass %.3g beyond the discretization floor "
                "%.3g; treat cell-level values with care", worst, floor)
    return SliceMeasure(grid=grid, direction=direction, cell_mass=mass,
                        total_mass=total, clamped_mass=clamped,
                        n_clamped=below.size, worst_clamped=worst)


def trace_measure(z_slices: SliceMeasure,
                  w_slices: SliceMeasure) -> SliceMeasure:
    """Cellwise sum of the two directional slices (the trace-like grid).

    Both inputs must live on the same grid.  Ball masses of the result
    scale like the *smaller* of the two directional scalings (a direction
    whose grid carries no mass at all is degenerate and simply does not
    contribute).
    """
    if z_slices.direction != "Z" or w_slices.direction != "W":
        raise ValueError("trace_measure expects a Z-direction and a "
                         "W-direction slice measure, got %r and %r"
                         % (z_slices.direction, w_slices.direction))
    ga, gb = z_slices.grid, w_slices.grid
    same = ga is gb or (
        ga.resolution == gb.resolution
        and ga.radius == gb.radius
        and np.allclose(ga.coords.frame.base_lift,
                        gb.coords.frame.base_lift, atol=1e-12))
    if not same:
        raise ValueError("slice measures live on different grids")
    mass = z_slices.cell_mass + w_slices.cell_mass
    return SliceMeasure(
        grid=ga, direction="trace", cell_mass=mass,
        total_mass=float(mass.sum()),
        clamped_mass=z_slices.clamped_mass + w_slices.clamped_mass,
        n_clamped=z_slices.n_clamped + w_slices.n_clamped,
        worst_clamped=max(z_slices.worst_clamped, w_slices.worst_clamped))


# ---------------------------------------------------------------------------
# ball masses
# ---------------------------------------------------------------------------

def ball_mass(sm: SliceMeasure, center, r: float) -> float:
    """Mass of the Euclidean chart ball ``B(center, r)``.

    Cells whose center is more than one cell diagonal inside (outside) the
    sphere count fully (not at all); the shell in between is weighted by
    the fraction of a 2x2x2x2 subsample of the cell falling inside, which
    makes the result exactly monotone in ``r``.  ``center`` is a complex
    pair ``(Z, W)`` and must lie inside the grid box; radii below three
    cell widths are under-resolved and raise :class:`ResolutionError`.
    Balls reaching beyond the grid box are truncated to it (the returned
    value is then a lower bound; keep ``r`` small enough if that matters).
    Only the box of cells whose every axis term ``(x - c)^2`` is below
    ``(r + h)^2`` can be inside or in the shell; its cells are gathered in
    the same C order as over the whole cube, so the sums are identical.
    """
    grid = sm.grid
    h = grid.spacing
    if r < 3.0 * h:
        raise ResolutionError(
            "ball radius %.3g is below the resolution floor 3h = %.3g"
            % (r, 3.0 * h))
    cz, cw = np.asarray(center, dtype=np.complex128).reshape(2)
    parts = (cz.real, cz.imag, cw.real, cw.imag)
    if max(abs(p) for p in parts) >= grid.radius:
        raise ValueError("ball center %r lies outside the grid box of "
                         "radius %.3g" % (center, grid.radius))
    ax = grid.axis_nodes(ghost=False)
    # ax is sorted and has a cell centre near each part: a nonempty run
    keep = [np.flatnonzero(np.square(ax - p) < (r + h) ** 2) for p in parts]
    box = tuple(slice(k[0], k[-1] + 1) for k in keep)
    d2 = [np.square(ax[b] - p) for b, p in zip(box, parts)]
    cells = sm.cell_mass[box]
    dist2 = (d2[0][:, None, None, None] + d2[1][None, :, None, None]
             + d2[2][None, None, :, None] + d2[3][None, None, None, :])
    inside = dist2 <= (r - h) ** 2
    shell = (dist2 < (r + h) ** 2) & ~inside
    total = float(cells[inside].sum())
    # squared distances of the cells' 2^4 subsample points, as a row sum
    near = [0.0]
    for b, i, p in zip(box, np.nonzero(shell), parts):
        sq = [np.square(ax[b][i] - p + s) for s in (-0.25 * h, 0.25 * h)]
        near = [d + q for d in near for q in sq]
    counts = sum(d <= r * r for d in near)
    return total + float((counts / len(near) * cells[shell]).sum())


# ---------------------------------------------------------------------------
# harmonicity diagnostic
# ---------------------------------------------------------------------------

def harmonicity_defect(potential: np.ndarray, grid: LocalGrid,
                       direction: str) -> np.ndarray:
    """Per-slice integral of ``|transverse Laplacian|``.

    For direction 'Z' the result is an ``(m, m)`` array over the Z-plane
    cells: entry ``(i, j)`` is ``sum |Laplacian_W potential| h^2`` over the
    W-plane at that Z node, which is just the sum of the absolute raw
    stencils.  A slice family of a potential that is harmonic transverse
    to it has defect at the truncation-noise floor; mass-carrying slices
    sit far above the floor and survive grid refinement.
    """
    raw = _raw_stencil(potential, grid, direction)
    if direction == "Z":
        return np.abs(raw).sum(axis=(2, 3))
    return np.abs(raw).sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# global mass certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassCertificate:
    """Quadrature value of current wedge pullback area, expected ``d^n``.

    ``residual`` compares the full-resolution value against half
    resolution; above 10% the certificate is ``inconclusive``.
    """

    value: float
    coarse_value: float
    residual: float
    inconclusive: bool
    pullbacks: int
    green_depth: int
    resolution: int


def _hinge(x: np.ndarray) -> np.ndarray:
    return np.square(np.maximum(x - _HINGE_OFFSET, 0.0))


@lru_cache(maxsize=None)
def _certificate_quadrature(resolution: int):
    """Ghosted node axis of a chart cube, the partition-of-unity weight on
    its cells (zero where ``|z|^2 + |w|^2 >= 3``), and the nodes that the
    densities of the nonzero-weight cells read: the centre, 8 axis and 16
    (Z-axis, W-axis) diagonal neighbours, i.e. the Z-plane 5-point cross
    grown by the W-plane cross.  Built once per resolution; read-only."""
    h = 2.0 * _CERTIFICATE_EXTENT / resolution
    axis = -_CERTIFICATE_EXTENT + (np.arange(resolution + 2) - 0.5) * h
    interior = axis[1:-1]
    abs_z2 = (np.square(interior[:, None])
              + np.square(interior[None, :]))
    s_w = abs_z2[None, :, :]
    weight = np.empty((resolution,) * 4)
    for s_z, w in zip(abs_z2[:, :, None, None], weight):
        denom = 1.0 + s_z + s_w
        w[...] = _hinge(1.0 / denom)
        w /= w + _hinge(s_z / denom) + _hinge(s_w / denom)
    nodes = np.pad(weight > 0.0, 1)
    # the ghost ring stays empty along the rolled axes, so nothing wraps
    for plane in ((0, 1), (2, 3)):
        grown = nodes.copy()
        for ax in plane:
            grown |= np.roll(nodes, 1, ax) | np.roll(nodes, -1, ax)
        nodes = grown
    for a in (axis, weight, nodes):
        a.flags.writeable = False
    return axis, weight, nodes


@lru_cache(maxsize=None)
def _certificate_lifts(resolution: int) -> np.ndarray:
    """Read-only ``(2, K)`` int32 ``(Z, W)`` of the ``K`` true nodes of
    :func:`_certificate_quadrature` in C order, as indices into the ghosted
    plane ``(axis[:, None] + 1j * axis[None, :]).ravel()``, built one
    Z-slab at a time.  8 K bytes: 1.1 MiB at resolution 24, 7.6 at 40."""
    _, _, nodes = _certificate_quadrature(resolution)
    zw = np.empty((2, np.count_nonzero(nodes)), dtype=np.int32)
    start = 0
    for a, slab in enumerate(nodes):
        b, w = np.nonzero(slab.reshape(len(slab), -1))
        zw[:, start:start + b.size] = a * len(slab) + b, w
        start += b.size
    zw.flags.writeable = False
    return zw


def _mixed_differences(values: np.ndarray):
    """``A = D0 D2 + D1 D3`` and ``B = D0 D3 - D1 D2`` at interior nodes,
    ``D_a`` the unnormalized central difference along axis ``a``."""
    i = slice(1, -1)
    d2 = values[:, :, 2:, :] - values[:, :, :-2, :]
    d3 = values[..., 2:] - values[..., :-2]
    return ((d2[2:, i, :, i] - d2[:-2, i, :, i])
            + (d3[i, 2:, i, :] - d3[i, :-2, i, :]),
            (d3[2:, i, i, :] - d3[:-2, i, i, :])
            - (d2[i, 2:, :, i] - d2[i, :-2, :, i]))


def _certificate_integral(ev: GreenEvaluator, n: int, depth: int,
                          resolution: int) -> float:
    """Three-chart partition-of-unity quadrature of the wedge density at
    the nodes of :func:`_certificate_quadrature` only.  Each chart streams
    its node cube through a window of ``slabs + 2`` Z-slabs: per block of
    ``slabs`` cell slabs the two halo slabs move down and one escape-rate
    call evaluates the new node slabs, at lift columns gathered by their
    run of :func:`_certificate_lifts`.  With ``P`` the unnormalized plane
    stencils, ``h^4`` times the density
    ``u_ZZbar v_WWbar + u_WWbar v_ZZbar - 2 Re(u_ZWbar conj(v_ZWbar))`` is
    ``(P_Z u P_W v + P_W u P_Z v) / 16 - (A_u A_v + B_u B_v) / 128`` (see
    :func:`_mixed_differences`), summed over the blocks."""
    axis, weight, nodes = _certificate_quadrature(resolution)
    plane = (axis[:, None] + 1j * axis[None, :]).ravel()
    zw = _certificate_lifts(resolution)
    slabs = min(max(1, (1 << 16) // resolution ** 3), resolution)
    offsets = [0] + np.cumsum(np.count_nonzero(nodes, axis=(1, 2, 3))).tolist()
    rows = max(offsets[min(a + slabs, resolution) + 2]
               - offsets[a + 2 * (a > 0)] for a in range(0, resolution, slabs))
    total = 0.0
    # one allocation per integral, none per block: the largest block's lifts,
    # then the window (zeroed once; stale off-mask nodes meet zero weights)
    scratch = np.zeros(6 * rows + 2 * (slabs + 2) * (resolution + 2) ** 3)
    room = scratch[:6 * rows].view(np.complex128).reshape(3, rows)
    window = scratch[6 * rows:].reshape((2, slabs + 2) + nodes.shape[1:])
    u, v = window if depth >= n else window[::-1]
    for chart in range(3):
        for a in range(0, resolution, slabs):
            k = min(slabs, resolution - a)
            fresh = 2 if a else 0
            for i in range(fresh):  # halo down, a slab at a time: may overlap
                window[:, i] = window[:, slabs + i]
            start, stop = offsets[a + fresh], offsets[a + k + 2]
            # lifts (1, Z, W) permuted; 2-norm truncations keep every
            # integral exactly cohomological; one pass gives both
            lifts = room[:, :stop - start]
            lifts[chart] = 1.0
            # in-range indices: "wrap" skips the buffered copy "raise" makes
            for ax, idx in zip(CHART_OTHERS[chart], zw[:, start:stop]):
                np.take(plane, idx, out=lifts[ax], mode="wrap")
            for cube, vals in zip(window, green.escape_rate(
                    ev, lifts.T, max(depth, n), "2", also=min(depth, n))):
                cube[fresh:k + 2][nodes[a + fresh:a + k + 2]] = vals
            # cells past the block's (radial, centred) nonzero range add 0
            lo = int(np.argmax(weight[a:a + k].any(axis=(0, 2, 3))))
            ic, kn = slice(lo, resolution - lo), slice(lo, resolution + 2 - lo)
            w = weight[a:a + k, ic, ic, ic]
            us, vs = u[:k + 2, kn, kn, kn], v[:k + 2, kn, kn, kn]
            (au, bu), (av, bv) = _mixed_differences(us), _mixed_differences(vs)
            total += (np.vdot(w * _plane_stencil(us, 0), _plane_stencil(vs, 1))
                      + np.vdot(w * _plane_stencil(us, 1),
                                _plane_stencil(vs, 0))) / 16.0
            total -= (np.vdot(w * au, av) + np.vdot(w * bu, bv)) / 128.0
    # v is the depth-n truncation, and log ||F^n||_2 is d^n times it
    return float(total) * ev.map.degree ** n * 4.0 / math.pi ** 2


def mass_certificate(map_: HomogeneousMap, n: int, *,
                     green_depth: int = CERTIFICATE_DEPTH,
                     resolution: int = CERTIFICATE_RESOLUTION
                     ) -> MassCertificate:
    """Integral of current wedge ``n``-fold pullback area over the plane.

    The truncated potential of depth ``green_depth`` represents the
    current (depth 0 is the Fubini-Study form itself); the pairing equals
    ``degree^n`` exactly for every depth, so the returned value checks the
    quadrature and normalization.  ``n`` beyond 1 would need prohibitively
    fine global grids and is rejected.  The value is recomputed at half
    resolution; a relative spread above 10% flags the certificate as
    inconclusive.  A chart's weight is nonzero only where ``|z|^2 + |w|^2
    < 3``, and only the nodes read by those cells' stencils (about a third
    of each cube) take the escape-rate pass, to the larger of
    ``green_depth`` and ``n``, which also returns the smaller truncation.
    Node plane indices are cached per resolution, a chart's cube streams
    through a few Z-slabs, and one evaluator serves both resolutions.
    """
    if n not in (0, 1):
        raise ValueError("the global quadrature certificate supports "
                         "n in {0, 1}, got %r" % (n,))
    if int(green_depth) != green_depth or green_depth < 0:
        raise ValueError("green_depth must be a nonnegative integer")
    if int(resolution) != resolution or resolution < 8 or resolution % 2:
        raise ValueError("certificate resolution must be an even integer "
                         ">= 8, got %r" % (resolution,))
    ev = GreenEvaluator(map_)
    value = _certificate_integral(ev, n, int(green_depth), int(resolution))
    coarse = _certificate_integral(ev, n, int(green_depth),
                                   int(resolution) // 2)
    residual = abs(value - coarse) / max(abs(value), 1e-300)
    return MassCertificate(value=value, coarse_value=coarse,
                           residual=residual,
                           inconclusive=residual > _CERTIFICATE_RESIDUAL_TOL,
                           pullbacks=n, green_depth=int(green_depth),
                           resolution=int(resolution))
