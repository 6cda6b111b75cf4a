"""Map zoo: constructors, factor-exponent oracles, perturbation, text format,
and the growth-floor proof of every map the lab builds.

Frozen targets: log 2 = 0.6931471805599453 (factor exponents), the degree-4
self-composition identity of the chosen torus-dilation map, and closed-form
spherical derivatives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2dyn.errors import ConfigError, DegenerateMapError, SamplingError
from p2dyn.preimages import _rotation_matrix, preimage_batch, preimages
from p2dyn.projective import (
    DEGENERATE_EVAL_TOL,
    HomogeneousMap,
    HomogeneousPoint,
    substitute_linear,
    sup_normalize,
)
from p2dyn.zoo import (
    MapFamily,
    birkhoff_exponent,
    chebyshev_factor,
    chebyshev_product,
    family_by_name,
    lattes_factor,
    lattes_suspension,
    parse_map,
    perturb,
    polynomial_factor,
    power_family,
    power_map,
    product_map,
    serialize_map,
    squaring_factor,
    standard_zoo,
    suspension_family,
)

LOG2 = 0.6931471805599453


class TestConstructors:
    def test_power_map_doubles_example(self):
        f = power_map(2)
        img = f.evaluate_batch(np.array([[2.0, 1.0, 1.0]]))[0]
        arr = img / img[2]
        np.testing.assert_allclose(arr, [4.0, 1.0, 1.0], atol=1e-14)

    def test_product_of_squares_equals_power_map(self):
        assert product_map([0, 0, 1.0], [0, 0, 1.0]).tables == \
            power_map(2).tables

    def test_product_degree_mismatch_rejected(self):
        with pytest.raises(DegenerateMapError):
            product_map([0, 0, 1.0], [0, 0, 0, 1.0])

    def test_product_zero_leading_coefficient_rejected(self):
        with pytest.raises(DegenerateMapError):
            product_map([1.0, 1.0, 0.0], [0, 0, 1.0])

    def test_suspension_base_semiconjugacy(self):
        # the pencil coordinate z/t of the suspension undergoes
        # L(z) = i(z^2+1)/(2z)
        f = lattes_suspension()
        rng = np.random.default_rng(21)
        for _ in range(5):
            arr = rng.normal(size=3) + 1j * rng.normal(size=3)
            img = f.polynomial_batch(sup_normalize(arr[None, :]))[0]
            base_in = arr[0] / arr[2]
            base_out = img[0] / img[2]
            oracle = 1j * (base_in ** 2 + 1.0) / (2.0 * base_in)
            assert abs(base_out - oracle) < 1e-10 * max(1.0, abs(oracle))


class TestFactorOracles:
    def test_spherical_derivative_of_squaring_closed_form(self):
        sq = squaring_factor()
        z = 0.7 - 0.4j
        got = sq.spherical_derivative(np.array([[z, 1.0]]))[0]
        want = 2 * abs(z) * (1 + abs(z) ** 2) / (1 + abs(z) ** 4)
        assert got == pytest.approx(want, rel=1e-14)

    def test_spherical_derivative_scale_invariant(self):
        lat = lattes_factor()
        p = np.array([[0.3 + 0.8j, 1.0]])
        a = lat.spherical_derivative(p)[0]
        b = lat.spherical_derivative(p * (2.5 - 1.0j))[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_torus_dilation_self_composition_identity(self):
        # L(L(z)) = -(z^2-1)^2 / (4 z (z^2+1)): the degree-4 dilation-by-2i
        # formula (the flat coordinate has the odd symmetry s(iu) = -s(u)),
        # certifying the degree-2 formula as a torus dilation by 1+i
        lat = lattes_factor()
        rng = np.random.default_rng(22)
        for _ in range(8):
            z = complex(rng.normal(), rng.normal())
            p1 = lat.evaluate_pairs(np.array([[z, 1.0]]))
            p2 = lat.evaluate_pairs(p1)
            got = p2[0, 0] / p2[0, 1]
            want = -(z ** 2 - 1) ** 2 / (4 * z * (z ** 2 + 1))
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_chebyshev_exponent_log2(self):
        est, err = birkhoff_exponent(chebyshev_factor(), seed=5)
        assert abs(est - LOG2) < 0.01 * LOG2
        assert err < 0.01

    def test_squaring_exponent_log2(self):
        est, err = birkhoff_exponent(squaring_factor(), seed=5)
        assert abs(est - LOG2) < 1e-10

    def test_torus_dilation_exponent_half_log2(self):
        est, err = birkhoff_exponent(lattes_factor(), seed=5)
        assert abs(est - 0.5 * LOG2) < 0.01 * 0.5 * LOG2
        assert err < 0.01

    def test_escaping_orbits_raise_a_typed_error(self):
        # z^2 - 3 sends the generic starts to infinity, a superattracting
        # point with spherical derivative 0, whose log numpy would only
        # warn about
        with pytest.raises(SamplingError):
            birkhoff_exponent(polynomial_factor([-3, 0, 1]), seed=5,
                              n_steps=1000)

    def test_polynomial_factor_validation(self):
        with pytest.raises(DegenerateMapError):
            polynomial_factor([1.0, 2.0])  # degree 1
        with pytest.raises(DegenerateMapError):
            polynomial_factor([1.0, 2.0, 0.0])  # zero leading


class TestPerturb:
    def test_zero_perturbation_identity(self):
        f = power_map(2)
        g = HomogeneousMap([{(0, 2, 0): 1.0}, {(0, 0, 2): 1.0},
                            {(2, 0, 0): 1.0}])
        assert perturb(f, g, 0.0).tables == f.tables

    def test_small_perturbation_keeps_four_preimages(self):
        f = power_map(2)
        g = HomogeneousMap([{(0, 2, 0): 1.0}, {(0, 0, 2): 1.0},
                            {(2, 0, 0): 1.0}])
        h = perturb(f, g, 0.01)
        batch = preimages(h, HomogeneousPoint(
            np.array([0.3 + 0.2j, -0.6, 1.0])))
        assert batch.lifts.shape == (1, 4, 3)

    def test_full_cancellation_raises(self):
        f = power_map(2)
        neg = HomogeneousMap([{(2, 0, 0): -1.0}, {(0, 2, 0): -1.0},
                              {(0, 0, 2): -1.0}])
        with pytest.raises(DegenerateMapError):
            perturb(f, neg, 1.0)

    def test_degree_mismatch_raises(self):
        with pytest.raises(DegenerateMapError):
            perturb(power_map(2), power_map(3), 0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_raises(self, eps):
        # a NaN eps failed deep in a preimage rotation, claiming that the
        # components did not share a single total degree
        g = HomogeneousMap([{(0, 2, 0): 1.0}, {(0, 0, 2): 1.0},
                            {(2, 0, 0): 1.0}])
        with pytest.raises(DegenerateMapError, match="not finite"):
            perturb(power_map(2), g, eps)


class TestFamilies:
    def test_zoo_has_at_least_five_families(self):
        zoo = standard_zoo()
        assert len(zoo) >= 5
        assert len({fam.name for fam in zoo}) == len(zoo)

    def test_every_family_passes_nondegeneracy_certificate(self):
        # every fiber of an endomorphism carries d^2 points with
        # multiplicity: certified on 20 random targets
        rng = np.random.default_rng(31)
        targets = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        for fam in standard_zoo():
            batch = preimage_batch(fam.map, targets)
            assert batch.lifts.shape == (20, fam.degree ** 2, 3), fam.name
            assert batch.residuals.max() < 1e-10, fam.name

    def test_reference_invariants(self):
        for fam in standard_zoo():
            ref = fam.reference
            if not ref:
                continue
            d = fam.degree
            assert ref["lambda1"] >= ref["lambda2"] >= 0.5 * np.log(d) - 1e-12
            assert ref["entropy"] == pytest.approx(2 * np.log(d))

    def test_bad_reference_exponents_rejected(self):
        with pytest.raises(DegenerateMapError):
            MapFamily(name="bad", map=power_map(2),
                      reference={"lambda1": 0.1, "lambda2": 0.05})

    def test_semi_extremal_references(self):
        fam = suspension_family()
        assert fam.reference["lambda1"] == pytest.approx(LOG2)
        assert fam.reference["lambda2"] == pytest.approx(0.5 * LOG2)
        assert fam.reference["dimension"] == pytest.approx(3.0)
        assert fam.reference["resonance_k"] == 2
        assert set(fam.factor_oracles) == {"lambda1", "lambda2"}

    def test_factor_oracles_match_references(self):
        for fam in (suspension_family(), power_family(2)):
            for key, factor in fam.factor_oracles.items():
                if factor is None:
                    continue
                est, err = birkhoff_exponent(factor, seed=7,
                                             n_steps=40_000)
                target = fam.reference[key]
                assert abs(est - target) < 0.01 * target + 3 * err, \
                    (fam.name, key)

    def test_family_by_name(self):
        assert family_by_name("power2").degree == 2
        assert family_by_name("power3").degree == 3
        assert family_by_name("lattes_suspension").reference["resonance_k"] \
            == 2
        with pytest.raises(ConfigError):
            family_by_name("does_not_exist")
        # power degrees the zoo cannot build raised DegenerateMapError
        for name, params in (("power1", {}), ("power9", {}),
                             ("power", {"degree": 1})):
            with pytest.raises(ConfigError, match="bad power family"):
                family_by_name(name, **params)


class TestTextFormat:
    def test_roundtrip_every_zoo_map(self):
        for fam in standard_zoo():
            text = serialize_map(fam.map)
            back = parse_map(text)
            assert back.tables == fam.map.tables
            assert back.name == fam.map.name

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a power map
        name demo
        degree 2

        term 0 2 0 0 1 0  # leading
        term 1 0 2 0 1 0
        term 2 0 0 2 1 0
        """
        f = parse_map(text)
        assert f.name == "demo" and f.degree == 2

    def test_malformed_lines_raise_config_error(self):
        for bad in [
            "term 0 2 0 0 1",          # too few fields
            "term 3 2 0 0 1 0",        # component out of range
            "term 0 -1 0 3 1 0",       # negative exponent
            "degree x",                # non-integer degree
            "bogus 1 2 3",             # unknown directive
            "",                        # no terms at all
        ]:
            with pytest.raises(ConfigError):
                parse_map(bad)

    def test_declared_degree_must_match(self):
        text = ("degree 3\n"
                "term 0 2 0 0 1 0\nterm 1 0 2 0 1 0\nterm 2 0 0 2 1 0\n")
        with pytest.raises(ConfigError):
            parse_map(text)

    def test_mixed_degrees_rejected_via_config_error(self):
        text = ("term 0 2 0 0 1 0\nterm 1 0 1 0 1 0\nterm 2 0 0 2 1 0\n")
        with pytest.raises(ConfigError):
            parse_map(text)

    @pytest.mark.parametrize("coeff", ["nan 0", "1 nan", "inf 0", "0 -inf"])
    def test_non_finite_coefficient_raises_config_error(self, coeff):
        text = ("term 0 2 0 0 %s\nterm 1 0 2 0 1 0\nterm 2 0 0 2 1 0\n"
                % coeff)
        with pytest.raises(ConfigError, match="not finite"):
            parse_map(text)


# ---------------------------------------------------------------------------
# every map the lab builds is proven when it is built
# ---------------------------------------------------------------------------

def dense_map(seed, degree):
    """Every monomial of one degree, standard complex normal coefficients."""
    rng = np.random.default_rng(seed)
    keys = [(i, j, degree - i - j) for i in range(degree + 1)
            for j in range(degree + 1 - i)]
    return HomogeneousMap([dict(zip(keys, rng.normal(size=len(keys))
                                    + 1j * rng.normal(size=len(keys))))
                           for _ in range(3)], name="dense")


def phase_conjugate(f, a, b):
    """``D^-1 F D`` for ``D = diag(e^(ia), e^(ib), 1)``, as the benchmark's
    certify workload builds its maps."""
    scale = np.exp(1j * np.array([a, b, 0.0]))
    return HomogeneousMap(
        [{key: c * np.prod(scale ** np.array(key)) / scale[comp]
          for key, c in table.items()}
         for comp, table in enumerate(f.tables)], name=f.name + ".phased")


def sym2_lattes():
    """The symmetric square of lattes_factor (ROADMAP item 13):
    (-(a^2 + b^2 - 2ac + c^2), 2i b (a + c), 4ac)."""
    return HomogeneousMap([
        {(2, 0, 0): -1.0, (0, 2, 0): -1.0, (1, 0, 1): 2.0, (0, 0, 2): -1.0},
        {(1, 1, 0): 2j, (0, 1, 1): 2j},
        {(1, 0, 1): 4.0}], name="sym2_lattes")


def lab_maps():
    """Builders of the zoo maps, their three preimage-solver rotations and
    a phase conjugation each, the sym^2 Lattes map, Cantor products
    z^2 + c1 x w^2 + c2 (item 17) and lattes_suspension + 0.3 g for seeded
    dense g (item 15)."""
    builders = {}
    for family in standard_zoo():
        f = family.map
        builders[f.name] = lambda f=f: f
        for a in (1, 2, 3):
            builders["%s.rotated%d" % (f.name, a)] = \
                lambda f=f, a=a: substitute_linear(f, _rotation_matrix(a))
        builders[f.name + ".phased"] = lambda f=f: phase_conjugate(f, 0.7,
                                                                   -2.1)
    builders["sym2_lattes"] = sym2_lattes
    for c1, c2 in ((-3, -3), (-3, 1), (-2.5, 0.6 + 0.5j), (-100, -100)):
        builders["cantor(%s, %s)" % (c1, c2)] = \
            lambda c1=c1, c2=c2: product_map([c1, 0, 1], [c2, 0, 1])
    for seed in (0, 1, 2):
        builders["lattes_suspension+0.3*dense%d" % seed] = \
            lambda seed=seed: perturb(lattes_suspension(),
                                      dense_map(seed, 2), 0.3)
    return builders


LAB_MAPS = lab_maps()


class TestEveryMapIsProven:
    """Construction proves a growth floor whose image floor clears the
    degeneracy tolerance on every map the lab and its roadmap build."""

    @pytest.mark.parametrize("name", list(LAB_MAPS))
    def test_lab_map_constructs(self, name):
        assert LAB_MAPS[name]().image_floor > DEGENERATE_EVAL_TOL

    @settings(max_examples=60, deadline=None)
    @given(map_=st.builds(dense_map, st.integers(0, 2 ** 32 - 1),
                          st.integers(2, 4))
           | st.sampled_from([f.map for f in standard_zoo()]).flatmap(
               lambda f: st.builds(perturb, st.just(f), st.builds(
                   dense_map, st.integers(0, 2 ** 32 - 1),
                   st.just(f.degree)), st.floats(1e-3, 0.3))))
    def test_random_and_perturbed_maps_construct(self, map_):
        assert map_.image_floor > DEGENERATE_EVAL_TOL
