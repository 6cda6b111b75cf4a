"""Benchmark map families with reference dynamics, plus a plain-text format.

The zoo collects endomorphisms whose exponents, entropy, and measure
dimension are known in closed form or certified by an independent
one-variable oracle, so every estimator in the package can be tested against
ground truth:

* coordinatewise power maps (conformal expansion on the unit torus),
* products of equal-degree one-variable polynomials,
* the Chebyshev x Chebyshev product,
* a fibered suspension whose base is a degree-2 one-variable map with
  flat-metric dilation sqrt(2) (exponent log(2)/2) and whose fiber is the
  squaring map (exponent log 2) -- the semi-extremal reference with a
  2:1 exponent resonance,
* small perturbations of any of the above, proven nondegenerate like
  every map when they are built.

One-variable maps on the Riemann sphere are carried as homogeneous
coefficient pairs so that orbits never overflow and the spherical derivative
has a clean cross-product form; long-orbit Birkhoff averages of its log
provide the factor exponent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DegenerateMapError, PreimageSolverError,
                     SamplingError)
from .preimages import preimage_batch
from .projective import HomogeneousMap, check_integer

LOG2 = float(np.log(2.0))

#: independent orbits of a Birkhoff average and unsampled steps of each
BIRKHOFF_ORBITS = 50
BIRKHOFF_BURN_IN = 200


# ---------------------------------------------------------------------------
# one-variable maps on the sphere (homogeneous pairs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RationalMap1D:
    """Self-map of the Riemann sphere as a homogeneous coefficient pair.

    ``numerator``/``denominator`` hold ascending coefficients n_k of
    sum_k n_k z^k t^(d-k); the pair must share degree d and have no common
    root (not re-checked here -- zoo constructors only build known-good
    pairs).
    """

    numerator: np.ndarray
    denominator: np.ndarray
    name: str = "rational"

    def __post_init__(self):
        num = np.asarray(self.numerator, dtype=np.complex128)
        den = np.asarray(self.denominator, dtype=np.complex128)
        if num.ndim != 1 or den.ndim != 1 or num.size != den.size:
            raise DegenerateMapError(
                "numerator and denominator need equal homogeneous degree")
        if num.size < 3:
            raise DegenerateMapError("one-variable factors need degree >= 2")
        if not np.any(num) or not np.any(den):
            raise DegenerateMapError("zero component in one-variable map")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def degree(self) -> int:
        return self.numerator.size - 1

    def _powers(self, pairs: np.ndarray):
        """Columns z^k, t^(d-k) and the monomials z^k t^(d-k), k = 0..d."""
        z, t = pairs[:, 0], pairs[:, 1]
        d = self.degree
        zp = np.stack([z ** k for k in range(d + 1)], axis=1)
        tp = np.stack([t ** (d - k) for k in range(d + 1)], axis=1)
        return zp, tp, zp * tp

    def evaluate_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Apply to (N, 2) homogeneous pairs, sup-normalizing the output."""
        basis = self._powers(pairs)[2]
        out = np.stack([basis @ self.numerator,
                        basis @ self.denominator], axis=1)
        scale = np.max(np.abs(out), axis=1)
        if np.any(scale == 0):
            raise DegenerateMapError(
                "one-variable map %r collapsed a point" % self.name)
        return out / scale[:, None]

    def spherical_derivative(self, pairs: np.ndarray) -> np.ndarray:
        """|Df(p)v ^ f(p)| / ||f(p)||^2 with v = (-conj(p2), conj(p1)).

        This is the expansion factor in the round metric; it is invariant
        under rescaling of the pair.
        """
        z, t = pairs[:, 0], pairs[:, 1]
        d = self.degree
        zp, tp, basis = self._powers(pairs)
        nval = basis @ self.numerator
        dval = basis @ self.denominator
        k = np.arange(d + 1)
        # d/dz (z^k t^(d-k)) = k z^(k-1) t^(d-k); the clamped power at k=0
        # is multiplied by the factor 0, so the clamp is harmless
        zz = np.stack([z ** max(kk - 1, 0) for kk in k], axis=1)
        tt = np.stack([t ** max(d - kk - 1, 0) for kk in k], axis=1)
        dz_basis = k[None, :] * zz * tp
        dt_basis = (d - k)[None, :] * zp * tt
        nz = dz_basis @ self.numerator
        nt = dt_basis @ self.numerator
        dz = dz_basis @ self.denominator
        dt = dt_basis @ self.denominator
        v1, v2 = -np.conj(t), np.conj(z)
        img1 = nz * v1 + nt * v2
        img2 = dz * v1 + dt * v2
        cross = img1 * dval - img2 * nval
        norm2 = np.abs(nval) ** 2 + np.abs(dval) ** 2
        return np.abs(cross) / norm2


def polynomial_factor(coeffs, name: str = "poly") -> RationalMap1D:
    """Homogenize an ascending-coefficient polynomial p(z) to a sphere map."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size < 3 or c[-1] == 0:
        raise DegenerateMapError(
            "factor polynomials need degree >= 2 and a nonzero leading "
            "coefficient")
    d = c.size - 1
    den = np.zeros(d + 1, dtype=np.complex128)
    den[0] = 1.0  # t^d
    return RationalMap1D(c, den, name=name)


def chebyshev_factor() -> RationalMap1D:
    return polynomial_factor([-2.0, 0.0, 1.0], name="chebyshev2")


def squaring_factor() -> RationalMap1D:
    return polynomial_factor([0.0, 0.0, 1.0], name="square")


def lattes_factor() -> RationalMap1D:
    """Degree-2 sphere map realizing multiplication by (1+i) on a torus.

    L(z) = i (z^2 + 1) / (2 z).  Its invariant measure is smooth and the
    expansion rate in the flat metric is |1+i| = sqrt(2), so the exponent is
    log(2)/2; tests re-validate this with the Birkhoff oracle before the
    value is trusted anywhere.
    """
    return RationalMap1D(np.array([1j, 0.0, 1j]),
                         np.array([0.0, 2.0, 0.0]), name="lattes2")


def birkhoff_exponent(factor: RationalMap1D, seed: int,
                      n_steps: int = 100_000):
    """Orbit average of the log spherical derivative over n_steps samples.

    The budget is spread over ``BIRKHOFF_ORBITS`` independent long orbits,
    each first run for ``BIRKHOFF_BURN_IN`` unsampled steps (run in
    one vectorized batch); the estimate is the grand mean and the stderr the
    spread of per-orbit means.  Starts are measure-typical per family:
    Chebyshev-like factors start on the invariant interval (2 cos of a
    uniform angle), monomials on the unit circle (with the radial rounding
    drift projected out -- the circle is invariant), everything else at
    generic points whose orbits equidistribute after burn-in.  Orbits
    that reach a zero of the spherical derivative (z^2 - 3 escapes to
    infinity) do not sample the measure: :class:`SamplingError`.
    """
    rng = np.random.default_rng(seed)
    poly = not np.any(factor.denominator[1:])
    monomial = poly and not np.any(factor.numerator[:-1])
    b = BIRKHOFF_ORBITS
    if poly and factor.numerator[0] == -2.0 and factor.numerator[1] == 0:
        starts = 2.0 * np.cos(rng.uniform(0.0, np.pi, size=b)) + 0j
    elif monomial:
        starts = np.exp(2j * np.pi * rng.uniform(size=b))
    else:
        starts = 0.437 + 0.291j + 0.05 * (rng.normal(size=b)
                                          + 1j * rng.normal(size=b))
    pairs = np.stack([starts, np.ones(b, dtype=np.complex128)], axis=1)
    pairs /= np.max(np.abs(pairs), axis=1)[:, None]

    def step(p):
        p = factor.evaluate_pairs(p)
        if monomial:
            # the invariant measure lives on the unit circle; project out
            # the radial rounding drift so orbits stay measure-typical
            zc = p[:, 0] / p[:, 1]
            zc = zc / np.abs(zc)
            p = np.stack([zc, np.ones_like(zc)], axis=1)
        return p

    n_per = max(1, n_steps // b)
    logs = np.empty((n_per, b))
    for _ in range(BIRKHOFF_BURN_IN):
        pairs = step(pairs)
    for k in range(n_per):
        derivs = factor.spherical_derivative(pairs)
        if not np.all(derivs > 0):
            raise SamplingError("an orbit of %r reached a zero of the "
                                "spherical derivative" % factor.name)
        logs[k] = np.log(derivs)
        pairs = step(pairs)
    per_orbit = logs.mean(axis=0)
    return float(per_orbit.mean()), \
        float(per_orbit.std(ddof=1) / np.sqrt(b))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass
class MapFamily:
    """A benchmark endomorphism with reference dynamics attached.

    ``reference`` may hold lambda1, lambda2, entropy, dimension, and
    resonance_k; ``provenance`` explains, per key, how the value is known
    (closed form vs. oracle-derived).  ``factor_oracles`` optionally maps
    'lambda1'/'lambda2' to the one-variable factor whose Birkhoff average
    independently estimates that exponent.
    """

    name: str
    map: HomogeneousMap
    reference: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    factor_oracles: dict = field(default_factory=dict)

    def __post_init__(self):
        ref = self.reference
        d = self.map.degree
        l1, l2 = ref.get("lambda1"), ref.get("lambda2")
        if l1 is not None and l2 is not None:
            if not (l1 >= l2 - 1e-12 and l2 >= 0.5 * np.log(d) - 1e-12):
                raise DegenerateMapError(
                    "reference exponents of %r violate the ordering "
                    "lambda1 >= lambda2 >= log(d)/2" % self.name)
        h = ref.get("entropy")
        if h is not None and abs(h - 2.0 * np.log(d)) > 1e-12:
            raise DegenerateMapError(
                "reference entropy of %r must equal log d^2" % self.name)

    @property
    def degree(self) -> int:
        return self.map.degree


def power_map(d: int = 2) -> HomogeneousMap:
    """Coordinatewise d-th power [z:w:t] -> [z^d : w^d : t^d]."""
    if d < 2:
        raise DegenerateMapError("power map needs degree >= 2")
    return HomogeneousMap([{(d, 0, 0): 1.0}, {(0, d, 0): 1.0},
                           {(0, 0, d): 1.0}], name="power%d" % d)


def product_map(p_coeffs, q_coeffs, name: str = "product") -> HomogeneousMap:
    """Homogenized (z, w) -> (p(z), q(w)) for equal-degree polynomials.

    Coefficients ascend: p(z) = sum_k p_k z^k.  Equal degrees and nonzero
    leading coefficients are required for the extension to be holomorphic.
    """
    p = np.asarray(p_coeffs, dtype=np.complex128)
    q = np.asarray(q_coeffs, dtype=np.complex128)
    if p.ndim != 1 or q.ndim != 1 or p.size != q.size:
        raise DegenerateMapError("product factors must share one degree")
    if p.size < 3 or p[-1] == 0 or q[-1] == 0:
        raise DegenerateMapError(
            "product factors need degree >= 2 and nonzero leading "
            "coefficients")
    d = p.size - 1
    comp0 = {(k, 0, d - k): p[k] for k in range(d + 1) if p[k] != 0}
    comp1 = {(0, k, d - k): q[k] for k in range(d + 1) if q[k] != 0}
    comp2 = {(0, 0, d): 1.0}
    return HomogeneousMap([comp0, comp1, comp2], name=name)


def chebyshev_product() -> HomogeneousMap:
    """Product of two degree-2 Chebyshev polynomials z^2 - 2."""
    return product_map([-2.0, 0.0, 1.0], [-2.0, 0.0, 1.0],
                       name="chebyshev_product")


def lattes_suspension() -> HomogeneousMap:
    """[z:w:t] -> [i(z^2+t^2) : w^2 : 2zt]: the semi-extremal reference.

    The pencil coordinate [z:t] undergoes the degree-2 torus-dilation map
    L(z) = i(z^2+1)/(2z) (exponent log(2)/2); the fiber coordinate is
    squared (exponent log 2).  Exponents resonate: lambda1 = 2 lambda2.
    """
    return HomogeneousMap([
        {(2, 0, 0): 1j, (0, 0, 2): 1j},
        {(0, 2, 0): 1.0},
        {(1, 0, 1): 2.0},
    ], name="lattes_suspension")


def certify_nondegenerate(map_: HomogeneousMap, n_targets: int = 20,
                          seed: int = 417) -> float:
    """Certify exactly d^2 preimages (with multiplicity) of random targets.

    Returns the worst residual.  Raises DegenerateMapError when the count
    cannot be achieved -- the fibers of a true endomorphism always carry
    d^2 points.
    """
    check_integer("n_targets", n_targets, 1)
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(n_targets, 3)) \
        + 1j * rng.normal(size=(n_targets, 3))
    try:
        batch = preimage_batch(map_, targets)
    except PreimageSolverError as exc:
        raise DegenerateMapError(
            "map %r failed the preimage-count certificate: %s"
            % (map_.name, exc)) from exc
    return float(batch.residuals.max())


def perturb(map_: HomogeneousMap, g: HomogeneousMap,
            eps: float) -> HomogeneousMap:
    """Componentwise map + eps*g; construction proves it nondegenerate."""
    if g.degree != map_.degree:
        raise DegenerateMapError(
            "perturbation degree %d does not match map degree %d"
            % (g.degree, map_.degree))
    tables = []
    for base, extra in zip(map_.tables, g.tables):
        table = dict(base)
        for key, coeff in extra.items():
            val = table.get(key, 0.0) + eps * coeff
            if val == 0:
                table.pop(key, None)
            else:
                table[key] = val
        if not table:
            raise DegenerateMapError(
                "perturbation canceled a component entirely")
        tables.append(table)
    return HomogeneousMap(tables, name="%s+%g*%s" % (map_.name, eps, g.name))


# ---------------------------------------------------------------------------
# the standard zoo
# ---------------------------------------------------------------------------

def power_family(d: int = 2) -> MapFamily:
    logd = float(np.log(d))
    return MapFamily(
        name="power%d" % d,
        map=power_map(d),
        reference={"lambda1": logd, "lambda2": logd, "entropy": 2 * logd,
                   "dimension": 2.0, "resonance_k": None},
        provenance={
            "lambda1": "closed form: |derivative| = d on the unit torus",
            "lambda2": "closed form: conformal on the unit torus",
            "entropy": "closed form: maximal entropy log d^2",
            "dimension": "closed form: measure = area on the unit torus",
        },
        factor_oracles={"lambda1": squaring_factor() if d == 2 else None,
                        "lambda2": squaring_factor() if d == 2 else None},
    )


def chebyshev_family() -> MapFamily:
    return MapFamily(
        name="chebyshev_product",
        map=chebyshev_product(),
        reference={"lambda1": LOG2, "lambda2": LOG2, "entropy": 2 * LOG2,
                   "dimension": 2.0, "resonance_k": None},
        provenance={
            "lambda1": "oracle: factor Birkhoff average on the invariant "
                       "interval",
            "lambda2": "oracle: factor Birkhoff average on the invariant "
                       "interval",
            "entropy": "closed form: maximal entropy log d^2",
            "dimension": "closed form: product of two interval measures of "
                         "dimension 1",
        },
        factor_oracles={"lambda1": chebyshev_factor(),
                        "lambda2": chebyshev_factor()},
    )


def mixed_product_family() -> MapFamily:
    # squaring times Chebyshev: different factors, both with exponent
    # exactly log 2 (circle rotation factor / interval doubling factor)
    return MapFamily(
        name="product_mixed",
        map=product_map([0.0, 0.0, 1.0], [-2.0, 0.0, 1.0],
                        name="product_mixed"),
        reference={"lambda1": LOG2, "lambda2": LOG2, "entropy": 2 * LOG2,
                   "dimension": 2.0, "resonance_k": None},
        provenance={
            "lambda1": "closed form: |derivative| = 2 on the unit circle; "
                       "oracle cross-check via factor Birkhoff average",
            "lambda2": "oracle: Chebyshev factor Birkhoff average on the "
                       "invariant interval",
            "entropy": "closed form: maximal entropy log d^2",
            "dimension": "closed form: product of two factor measures of "
                         "dimension 1",
        },
        factor_oracles={"lambda1": squaring_factor(),
                        "lambda2": chebyshev_factor()},
    )


def suspension_family() -> MapFamily:
    return MapFamily(
        name="lattes_suspension",
        map=lattes_suspension(),
        reference={"lambda1": LOG2, "lambda2": 0.5 * LOG2,
                   "entropy": 2 * LOG2, "dimension": 3.0, "resonance_k": 2},
        provenance={
            "lambda1": "closed form: fiberwise squaring with bounded "
                       "scaling cocycle; oracle cross-check via the fiber "
                       "factor",
            "lambda2": "closed form: base dilation by sqrt(2) in the flat "
                       "metric; oracle cross-check via the base factor",
            "entropy": "closed form: maximal entropy log d^2",
            "dimension": "closed form: 2 + log(d)/lambda1 for the "
                         "semi-extremal profile",
            "resonance_k": "closed form: lambda1 = 2 lambda2",
        },
        factor_oracles={"lambda1": squaring_factor(),
                        "lambda2": lattes_factor()},
    )


def perturbed_power_family(eps: float = 0.01) -> MapFamily:
    g = HomogeneousMap([{(0, 2, 0): 1.0}, {(0, 0, 2): 1.0},
                        {(2, 0, 0): 1.0}], name="cycle")
    return MapFamily(
        name="perturbed_power",
        map=perturb(power_map(2), g, eps),
        reference={},
        provenance={"note": "no reference values: perturbations explore "
                            "estimator robustness only"},
    )


def standard_zoo() -> list[MapFamily]:
    """The five benchmark families used by the acceptance experiments."""
    return [
        power_family(2),
        power_family(3),
        chebyshev_family(),
        mixed_product_family(),
        suspension_family(),
        perturbed_power_family(),
    ]


def family_by_name(name: str, **params) -> MapFamily:
    """CLI-facing lookup: families addressable by name."""
    if name.startswith("power"):
        try:
            d = int(name[len("power"):] or params.get("degree", 2))
        except ValueError as exc:
            raise ConfigError("bad power-family name %r" % name) from exc
        return power_family(d)
    builders = {
        "chebyshev_product": chebyshev_family,
        "product_mixed": mixed_product_family,
        "lattes_suspension": suspension_family,
        "perturbed_power": perturbed_power_family,
    }
    if name not in builders:
        raise ConfigError(
            "unknown family %r (known: power<d>, %s)"
            % (name, ", ".join(sorted(builders))))
    return builders[name]()


# ---------------------------------------------------------------------------
# plain-text map format
# ---------------------------------------------------------------------------

def serialize_map(map_: HomogeneousMap) -> str:
    """Stable plain-text form: name, degree, then one line per term."""
    lines = ["name %s" % map_.name, "degree %d" % map_.degree]
    for comp, table in enumerate(map_.tables):
        for (i, j, k) in sorted(table):
            c = complex(table[(i, j, k)])
            lines.append("term %d %d %d %d %.17g %.17g"
                         % (comp, i, j, k, c.real, c.imag))
    return "\n".join(lines) + "\n"


def parse_map(text: str) -> HomogeneousMap:
    """Inverse of serialize_map; raises ConfigError on malformed input."""
    name = "map"
    degree = None
    tables: list[dict] = [{}, {}, {}]
    saw_term = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "name" and len(parts) == 2:
                name = parts[1]
            elif kind == "degree" and len(parts) == 2:
                degree = int(parts[1])
            elif kind == "term" and len(parts) == 7:
                comp = int(parts[1])
                i, j, k = int(parts[2]), int(parts[3]), int(parts[4])
                coeff = complex(float(parts[5]), float(parts[6]))
                if not 0 <= comp <= 2:
                    raise ValueError("component out of range")
                if min(i, j, k) < 0:
                    raise ValueError("negative exponent")
                tables[comp][(i, j, k)] = \
                    tables[comp].get((i, j, k), 0.0) + coeff
                saw_term = True
            else:
                raise ValueError("unrecognized directive")
        except ValueError as exc:
            raise ConfigError(
                "map text line %d (%r): %s" % (lineno, rawline, exc)) from exc
    if not saw_term:
        raise ConfigError("map text contains no terms")
    try:
        out = HomogeneousMap(tables, name=name)
    except DegenerateMapError as exc:
        raise ConfigError("map text does not define a valid map: %s"
                          % exc) from exc
    if degree is not None and out.degree != degree:
        raise ConfigError(
            "declared degree %d but terms have degree %d"
            % (degree, out.degree))
    return out
