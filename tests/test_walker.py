"""One walker step: batched walkers replay as single orbits, one log line.

The level-synchronous sampler and ``backward_orbit`` share one walker
step, so walker k of a sample is the endpoint of the single backward orbit
drawn from walker k's generator.  The two paths solve different batches,
which changes only the rounding of the solver's iterates; 1e-12 in FS
distance is far above that and far below the distance between branches.
"""

import logging

import numpy as np
import pytest

from p2dyn import sampler
from p2dyn.errors import PreimageSolverError, SamplingError
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


class TestFailurePath:
    """A preimage solve that fails for one target costs only its walkers.

    ``preimage_batch`` is patched to raise for any batch holding one
    blocked point.  Each walker draws from its own stream, so the first k
    levels of a depth-6 sample are the depth-k sample of the same seed, and
    the walkers at the blocked level-k position are exactly those the
    patch can reach at step k + 1.
    """

    F = power_map(2)
    COUNT, DEPTH, SEED = 400, 6, 3

    def _block(self, monkeypatch, point):
        calls = []
        solve = sampler.preimage_batch

        def patched(map_, targets):
            hit = bool(np.any(fs_distance_batch(targets, point) < 1e-12))
            calls.append((len(targets), hit))
            if hit:
                raise PreimageSolverError("blocked target")
            return solve(map_, targets)

        monkeypatch.setattr(sampler, "preimage_batch", patched)
        return calls

    def _level(self, k):
        return sample_equilibrium(self.F, k, self.COUNT, self.SEED).array

    def test_failing_target_costs_only_its_walkers(self, monkeypatch):
        reference = self._level(self.DEPTH)
        level4 = self._level(4)
        at_blocked = fs_distance_batch(level4, level4[0]) < 1e-12
        assert 1 <= np.count_nonzero(at_blocked) <= 4
        calls = self._block(monkeypatch, level4[0])
        sample = sample_equilibrium(self.F, self.DEPTH, self.COUNT,
                                    self.SEED)
        # the failing batch at step 5 is retried one target at a time, and
        # only the blocked one of those single-target solves fails
        failed = next(i for i, (_, hit) in enumerate(calls) if hit)
        width = calls[failed][0]
        assert width > 1
        retries = calls[failed + 1:failed + 1 + width]
        assert [n for n, _ in retries] == [1] * width
        assert sum(hit for _, hit in retries) == 1
        assert sample.n_failures >= np.count_nonzero(at_blocked)
        # replaced walkers are full depth-6 walks back from the start
        start = _clear_start(self.F)[None, :]
        for row in np.flatnonzero(at_blocked):
            cur = sample.array[row][None, :]
            for _ in range(self.DEPTH):
                cur = self.F.evaluate_batch(cur)
            assert fs_distance_batch(cur, start)[0] < 1e-9
        # every other walker is the unpatched walker, bit for bit
        assert np.array_equal(sample.array[~at_blocked],
                              reference[~at_blocked])

    def test_blocking_a_quarter_of_the_walkers_raises(self, monkeypatch):
        level1 = self._level(1)
        share = np.mean(fs_distance_batch(level1, level1[0]) < 1e-12)
        assert share > sampler.MAX_FAILURE_FRACTION
        self._block(monkeypatch, level1[0])
        with pytest.raises(SamplingError, match="walkers aborted"):
            sample_equilibrium(self.F, self.DEPTH, self.COUNT, self.SEED)
