"""The FS cocycle's edges: missing paths, bad input.

The exponent estimator needs stored paths that lie on the support of the
measure, and malformed input is rejected with ``ValueError`` before any
work; these tests pin what the callers see.
"""

import math

import numpy as np
import pytest

from p2dyn.errors import InsufficientDataError, SamplingError
from p2dyn.projective import HomogeneousPoint, fs_distance_batch
from p2dyn.sampler import (
    CRITICAL_DET_TOL,
    MeasureSample,
    _guard_margin,
    backward_orbit,
    fs_jacobian_dets,
    lyapunov_exponents,
    sample_equilibrium,
    tangent_basis_batch,
)
from p2dyn.zoo import perturbed_power_family, power_map


def test_estimator_raises_typed_error_on_a_sample_without_paths():
    points = tuple(
        HomogeneousPoint(np.array([0.1 * k + 0.05j, 0.12 - 0.03j * k, 1.0]))
        for k in range(1, 4))
    sample = MeasureSample(points=points, weights=np.full(3, 1.0 / 3.0),
                           provenance=(0, 3, 0), n_failures=0)
    with pytest.raises(InsufficientDataError, match="no backward paths"):
        lyapunov_exponents(power_map(2), sample, 100)


def test_estimator_raises_below_the_briend_duval_bound():
    # perturbed_power attracts [0 : 0.01 : 1] to a fixed point near
    # [0 : 0.0101 : 1] that is not critical; a forward walk from points in
    # its basin read negative exponents there and raised nothing
    f = perturbed_power_family().map
    fixed = np.array([[0.0, 0.01, 1.0]], dtype=np.complex128)
    for _ in range(60):
        fixed = f.evaluate_batch(fixed)
    assert fs_distance_batch(f.evaluate_batch(fixed), fixed)[0] < 1e-15
    assert fs_jacobian_dets(f, fixed)[0] >= CRITICAL_DET_TOL
    paths = np.tile(fixed, (4, 31, 1))
    sample = MeasureSample(paths[:, -1], np.full(4, 0.25), (30, 4, 0),
                           paths=paths)
    with pytest.raises(SamplingError, match="Briend-Duval"):
        lyapunov_exponents(f, sample, 500)


#: Phi(-3), the one-sided normal tail of the Briend-Duval guard
TAIL = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


@pytest.mark.parametrize("walkers, want", [
    (2, math.tan(math.pi * (0.5 - TAIL))),  # Cauchy quantile
    (3, (1 - 2 * TAIL) / math.sqrt(2 * TAIL * (1 - TAIL))),
    # Student's t quantiles at Phi(-3) from an independent routine
    # (scipy.stats.t.isf(scipy.stats.norm.sf(3), dof)), dof = walkers - 1
    (12, 3.8499364281584865),
    (200, 3.0381278926104676),
])
def test_briend_duval_margin_is_the_student_t_quantile(walkers, want):
    # a mean over n walkers on the bound reads below it by more than the
    # margin with chance Phi(-3) = 0.135 % at every n; a fixed 3 standard
    # errors does so with 0.60 % at 12 walkers
    assert abs(_guard_margin(walkers - 1) / want - 1.0) <= 1e-12


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


def _sample_without_paths():
    points = np.array([[0.1 * k + 0.05j, 0.12 - 0.03j * k, 1.0]
                       for k in range(1, 4)])
    return MeasureSample(points=points, weights=np.full(3, 1.0 / 3.0),
                         provenance=(0, 3, 0), n_failures=0)


@pytest.mark.parametrize("n_iter", ["500", 500.5, 500.0, math.inf, math.nan,
                                    99])
def test_n_iter_must_be_an_integer_from_100(n_iter):
    # "500" raised a bare TypeError and 500.5 was accepted
    with pytest.raises(ValueError, match="n_iter must be an integer"):
        lyapunov_exponents(power_map(2), _sample_without_paths(), n_iter)


@pytest.mark.parametrize("seed", [1.5, math.nan, "1", -1])
def test_sample_seed_must_be_a_nonnegative_integer(seed):
    # 1.5 raised a bare TypeError from SeedSequence
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_equilibrium(power_map(2), depth=2, count=2, seed=seed)
