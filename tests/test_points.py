"""Points are arrays: every point form reaches the same kernels.

A single-point entry point accepts a ``HomogeneousPoint``, a ``(3,)`` row
or a ``(1, 3)`` array and must give bit-identical results for all three,
because each is coerced to the same ``(1, 3)`` array before any work.
Samples and orbits store that array form directly.  The property tests
pin invariants of the array kernels themselves.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2dyn.preimages import preimage_batch, preimages
from p2dyn.projective import (
    HomogeneousPoint,
    affine_coords,
    as_point_array,
    chart_normalize,
    fs_distance_batch,
    injectivity_radius,
    lift_from_chart,
)
from p2dyn.sampler import (
    ExponentEstimate,
    MeasureSample,
    backward_orbit,
    sample_equilibrium,
)
from p2dyn.slices import axis_chart
from p2dyn.zoo import lattes_factor, lattes_suspension

POINT = (0.31 + 0.12j, 0.4 - 0.33j, 1.0)
FORMS = {
    "point": HomogeneousPoint(POINT),
    "row": np.array(POINT),
    "array": np.array([POINT]),
}
F = lattes_suspension()
BAD = [np.zeros(3), np.array([np.nan, 1.0, 0.0]), np.array([np.inf, 0, 1])]


def _same_for_every_form(fn):
    results = [fn(form) for form in FORMS.values()]
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)


class TestEntryPoints:
    def test_backward_orbit(self):
        def walk(x):
            orbit = backward_orbit(F, x, 6, np.random.default_rng(3))
            return orbit.array, orbit.branch_choices
        _same_for_every_form(walk)

    def test_injectivity_radius(self):
        _same_for_every_form(lambda x: (injectivity_radius(F, x),))

    def test_axis_chart(self):
        def chart(x):
            coords = axis_chart(F, x)
            return (coords.frame.base_lift, coords.frame.tangent_basis,
                    coords.domain_radius)
        _same_for_every_form(chart)

    def test_preimages(self):
        def solve(x):
            batch = preimages(F, x)
            return batch.lifts, batch.root_ids, batch.residuals
        _same_for_every_form(solve)

    @pytest.mark.parametrize("bad", BAD, ids=["zero", "nan", "inf"])
    def test_zero_and_non_finite_points_raise(self, bad):
        rng = np.random.default_rng(0)
        for call in (lambda: backward_orbit(F, bad, 2, rng),
                     lambda: injectivity_radius(F, bad),
                     lambda: axis_chart(F, bad),
                     lambda: preimages(F, bad)):
            with pytest.raises(ValueError, match="zero or non-finite"):
                call()

    def test_samples_and_orbits_store_the_array(self):
        sample = sample_equilibrium(F, 4, 8, seed=1)
        assert sample.array is sample.points
        assert sample.points.shape == (8, 3)
        orbit = backward_orbit(F, sample.points[0], 3,
                               np.random.default_rng(2))
        assert orbit.array is orbit.points
        assert orbit.points.shape == (4, 3)
        big = np.ones((100_000, 3), dtype=np.complex128)
        built = MeasureSample(big, np.full(100_000, 1e-5), (0, 100_000, 0))
        assert built.points is big

    def test_tuples_of_points_still_construct(self):
        pts = tuple(HomogeneousPoint([0.1 * k, 0.2j, 1.0]) for k in range(3))
        sample = MeasureSample(pts, np.full(3, 1.0 / 3.0), (0, 3, 0))
        assert np.array_equal(sample.points, [p.array for p in pts])


_ARRAY_RESULTS = {
    "ExponentEstimate": lambda: ExponentEstimate(
        0.7, 0.35, 0.01, 0.01, 100, np.array([[0.7, 0.35], [0.69, 0.36]])),
    "PreimageBatch": lambda: preimage_batch(F, np.array([POINT])),
    "RationalMap1D": lattes_factor,
}


@pytest.mark.parametrize("build", _ARRAY_RESULTS.values(),
                         ids=_ARRAY_RESULTS.keys())
def test_array_results_compare_by_identity(build):
    # a generated __eq__ would compare array fields and raise numpy's
    # ambiguous-truth-value ValueError; __hash__ would raise TypeError
    obj = build()
    assert obj == obj
    assert obj != copy.deepcopy(obj)
    assert hash(obj) == hash(obj)


# ---------------------------------------------------------------------------
# properties of the array kernels
# ---------------------------------------------------------------------------

_coord = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False)
_triples = st.tuples(_coord, _coord, _coord).map(np.array).filter(
    lambda p: np.max(np.abs(p)) > 1e-3)
_scales = _coord.filter(lambda c: abs(c) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(_triples, _triples)
def test_fs_distance_is_symmetric_and_bounded(p, q):
    d = fs_distance_batch(p, q)
    assert abs(d - fs_distance_batch(q, p)) <= 1e-15
    assert 0.0 <= d <= 1.0


@settings(max_examples=200, deadline=None)
@given(_triples, _scales)
def test_fs_distance_vanishes_between_multiples(p, c):
    assert fs_distance_batch(p, c * p) < 1e-13


@settings(max_examples=200, deadline=None)
@given(_triples)
def test_lift_from_chart_inverts_affine_coords(p):
    coords, charts = affine_coords(p)
    normalized, _ = chart_normalize(p)
    lift = lift_from_chart(int(charts[0]), coords)
    np.testing.assert_allclose(lift, normalized, rtol=0.0, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.lists(_triples, min_size=1, max_size=5))
def test_tuple_of_points_stacks_their_arrays(rows):
    points = tuple(HomogeneousPoint(row) for row in rows)
    assert np.array_equal(as_point_array(points),
                          np.stack([p.array for p in points]))
