"""One walker step: batched walkers replay as single orbits, one log line.

The level-synchronous sampler and ``backward_orbit`` share one walker
step, so walker k of a sample is the endpoint of the single backward orbit
drawn from walker k's generator.  The two paths solve different batches,
which changes only the rounding of the solver's iterates; 1e-12 in FS
distance is far above that and far below the distance between branches.
"""

import logging

import numpy as np

from p2dyn.projective import HomogeneousPoint, fs_distance_batch
from p2dyn.sampler import (
    _clear_start,
    _walker_step,
    backward_orbit,
    lyapunov_exponents,
    sample_equilibrium,
)
from p2dyn.zoo import lattes_suspension, power_map


def test_batched_walkers_replay_as_single_orbits():
    f = lattes_suspension()
    sample = sample_equilibrium(f, 25, 200, seed=0)
    children = np.random.SeedSequence(0).spawn(200)
    start = _clear_start(f)
    for k in range(0, 200, 20):
        orbit = backward_orbit(f, start, 25,
                               np.random.default_rng(children[k]))
        gap = fs_distance_batch(sample.array[k], orbit.array[-1])
        assert gap < 1e-12


def test_random_branches_follow_the_walker_draw():
    # a batched walker step draws from the same canonical order as a
    # single backward orbit with the same generator
    f = power_map(2)
    start = HomogeneousPoint([0.3 + 0.2j, -0.5 + 0.1j, 1.0])
    orbit = backward_orbit(f, start, 1, np.random.default_rng(8))
    rows, _, _, _ = _walker_step(f, np.stack([start.array] * 2),
                                 [np.random.default_rng(8),
                                  np.random.default_rng(9)])
    assert np.array_equal(rows[0], orbit.array[1])


def sampler_records(caplog):
    return [r for r in caplog.records if r.name == "p2dyn.sampler"]


def test_one_summary_line_per_call(caplog):
    f = power_map(2)
    caplog.set_level(logging.INFO, logger="p2dyn.sampler")
    sample = sample_equilibrium(f, depth=25, count=40, seed=5)
    records = sampler_records(caplog)
    assert len(records) <= 1
    assert "0 walker(s) aborted" in records[0].getMessage()
    caplog.clear()
    est = lyapunov_exponents(f, sample, 300)
    records = sampler_records(caplog)
    # every walker of the squaring map is censored (see test_sampler.py)
    assert est.n_truncated == 40
    assert len(records) <= 1
    assert "40 of 40 walker(s) censored" in records[0].getMessage()
