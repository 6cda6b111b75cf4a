"""The forward FS cocycle's edges: masked images, censoring, bad input.

Every forward cocycle factor comes from images that are masked where the
map collapses a row, and a walker whose orbit reaches the critical set is
censored away; these tests pin what the callers see in those cases, and
that malformed input is rejected with ``ValueError`` before any work.
"""

import numpy as np
import pytest

from p2dyn.errors import InsufficientDataError
from p2dyn.projective import HomogeneousMap, HomogeneousPoint
from p2dyn.sampler import (
    MeasureSample,
    backward_orbit,
    fs_jacobian_dets,
    fs_tangent_maps,
    lyapunov_exponents,
    tangent_basis_batch,
)
from p2dyn.zoo import power_map

#: [x^2 : xy : z^2] vanishes at [0:1:0], so it is not an endomorphism
COMMON_ZERO_MAP = HomogeneousMap([{(2, 0, 0): 1}, {(1, 1, 0): 1},
                                  {(0, 0, 2): 1}], name="common_zero")


def test_collapsed_rows_are_masked_without_touching_the_others():
    pts = np.array([[0.0, 1.0, 0.0], [0.3, 0.5, 1.0]])
    mats, _, ok = fs_tangent_maps(COMMON_ZERO_MAP, pts)
    assert ok.tolist() == [False, True]
    dets = fs_jacobian_dets(COMMON_ZERO_MAP, pts)
    assert dets[0] == 0.0 and dets[1] > 0.0
    single, _, _ = fs_tangent_maps(COMMON_ZERO_MAP, pts[1:])
    np.testing.assert_allclose(mats[1], single[0], rtol=1e-13, atol=1e-15)


def test_estimator_raises_typed_error_when_every_walker_is_censored():
    # each start lies in the basin of the critical fixed point [0:0:1]
    points = tuple(
        HomogeneousPoint(np.array([0.1 * k + 0.05j, 0.12 - 0.03j * k, 1.0]))
        for k in range(1, 4))
    sample = MeasureSample(points=points, weights=np.full(3, 1.0 / 3.0),
                           provenance=(0, 3, 0), n_failures=0)
    with pytest.raises(InsufficientDataError):
        lyapunov_exponents(power_map(2), sample, 100)


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0],
                                 [np.inf, 0.0, 1.0]])
def test_tangent_basis_rejects_zero_and_non_finite_rows(row):
    with pytest.raises(ValueError, match="zero or non-finite"):
        tangent_basis_batch(np.array([[0.3, 0.5, 1.0], row]))


@pytest.mark.parametrize("choices", [(0, 1), (0, 1, 2, 3)])
def test_backward_orbit_needs_one_branch_choice_per_step(choices):
    start = HomogeneousPoint([0.3 + 0.2j, -0.5 + 0.1j, 1.0])
    with pytest.raises(ValueError, match="branch choices"):
        backward_orbit(power_map(2), start, 3, branch_choices=choices)
