"""The array result of the preimage solver.

``preimage_batch`` returns one :class:`PreimageBatch`: ``(B, d^2, 3)``
lifts in the canonical branch order, root ids, residuals and rotation
counts.  The cross-chart merge is checked against the pairwise loop it
replaced; the batch as a whole is checked by property tests over zoo maps
and random degree 2-3 maps.

Tolerances, fixed before running: a computed preimage p of a target tau
maps to within a few hundred ulps of tau for well-conditioned roots (the
residual gate of the solver itself is 1e-8), so 1e-9 leaves room without
hiding a wrong root; distinct roots of random targets are simple, so a
one-target solve agrees with the batched one (every row is solved on its
own, so they are bit-identical), well under 1e-12.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2dyn.preimages import (
    CLUSTER_RADIUS,
    _canonical_branches,
    _chart_sweep,
    _merge_across_charts,
    _merged_slots,
    polynomial_roots,
    preimage_batch,
)
from p2dyn.projective import (
    CLEAN_REL_TOL,
    HomogeneousMap,
    chart_indices,
    chart_normalize,
    fs_distance_batch,
    lift_from_chart,
    sup_normalize,
)
from p2dyn.zoo import (
    chebyshev_product,
    lattes_suspension,
    mixed_product_family,
    perturbed_power_family,
    power_map,
    standard_zoo,
)

# the module itself (the package's ``preimages`` attribute is the function)
preimages = importlib.import_module("p2dyn.preimages")


def reference_merge(lifts, mults):
    """The former pairwise merge loop over one target's chart roots."""
    mults = [int(m) for m in mults]
    keep = []
    dropped = np.zeros(len(mults), dtype=bool)
    for i in range(len(mults)):
        if dropped[i]:
            continue
        for j in range(i + 1, len(mults)):
            if dropped[j]:
                continue
            if float(fs_distance_batch(lifts[i], lifts[j])) < CLUSTER_RADIUS:
                mults[i] = max(mults[i], mults[j])
                dropped[j] = True
        keep.append(i)
    return keep, [mults[i] for i in keep]


def boundary_duplicate(rng, lift, scale):
    """The same projective point in another chart, moved by ~scale."""
    moved = lift + scale * (rng.normal(size=3) + 1j * rng.normal(size=3))
    chart = int(rng.integers(0, 3))
    others = [i for i in range(3) if i != chart]
    moved = moved / moved[chart]
    return lift_from_chart(chart, moved[others])[0]


def random_chart_roots(rng, n_targets):
    """Per-target chart-root lists with planted near-duplicates and chains."""
    sets = []
    for _ in range(n_targets):
        lifts = []
        for _ in range(int(rng.integers(1, 7))):
            chart = int(rng.integers(0, 3))
            coords = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            lifts.append(lift_from_chart(chart, coords)[0])
        for _ in range(int(rng.integers(0, 4))):
            base = lifts[int(rng.integers(0, len(lifts)))]
            # within the radius, just outside it, or a chain of two steps
            scale = CLUSTER_RADIUS * rng.choice([0.1, 0.4, 3.0])
            dup = boundary_duplicate(rng, base, scale)
            lifts.append(dup)
            if rng.random() < 0.5:
                lifts.append(boundary_duplicate(rng, dup, scale))
        order = rng.permutation(len(lifts))
        lifts = np.asarray(lifts)[order]
        mults = rng.integers(1, 4, size=len(lifts))
        sets.append((lifts, mults))
    return sets


@pytest.mark.parametrize("seed", range(5))
def test_vectorized_merge_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    sets = random_chart_roots(rng, 40)
    k = max(len(m) for _, m in sets)
    lifts = np.ones((len(sets), k, 3), dtype=np.complex128)
    mults = np.zeros((len(sets), k), dtype=np.int64)
    for row, (ls, ms) in enumerate(sets):
        lifts[row, :len(ms)] = ls
        mults[row, :len(ms)] = ms
    merged = _merge_across_charts(lifts, mults)
    n_merged = 0
    for row, (ls, ms) in enumerate(sets):
        keep, kept_mults = reference_merge(ls, ms)
        got = np.flatnonzero(merged[row])
        assert got.tolist() == keep
        assert merged[row, got].tolist() == kept_mults
        assert np.array_equal(lifts[row, got], ls[keep])
        n_merged += len(ms) - len(keep)
    assert n_merged > 0  # the planted duplicates did get merged


def random_map(degree: int, seed: int) -> HomogeneousMap:
    rng = np.random.default_rng(seed)
    keys = [(a, b, degree - a - b) for a in range(degree + 1)
            for b in range(degree + 1 - a)]
    comps = [{key: complex(rng.normal(), rng.normal()) for key in keys}
             for _ in range(3)]
    return HomogeneousMap(comps, name="random%d_%d" % (degree, seed))


ZOO = (power_map(2), power_map(3), chebyshev_product(), lattes_suspension())


def branch_key(lift):
    """Chart group and the four sort keys of one lift, as the solver forms
    them: negated affine coordinates in the standard chart (t = 1), or the
    sup-normalized coordinates for roots at infinity of that chart."""
    sup = np.max(np.abs(lift))
    t = lift[2]
    finite = bool(np.abs(t) > 1e-12 * sup)
    a, b = lift[:2] / (t if finite else sup)
    return int(not finite), [-a.real, -a.imag, -b.real, -b.imag]


def branch_order(keys):
    """Positions of ``keys`` in branch order, by the tie rule spelled out.

    Within a chart group, a tie class is sorted on its next key and split
    wherever two adjacent keys differ by more than
    ``CLUSTER_RADIUS * max(1, |key|)``; each part is refined on the key
    after that, and classes still tied after the last key keep the given
    order.
    """
    def refine(idx, level):
        if level == 4 or len(idx) < 2:
            return idx
        srt = sorted(idx, key=lambda i: keys[i][1][level])
        parts = [[srt[0]]]
        for i, j in zip(srt, srt[1:]):
            x, y = keys[i][1][level], keys[j][1][level]
            if y - x > CLUSTER_RADIUS * max(1, abs(y)):
                parts.append([])
            parts[-1].append(j)
        return [i for part in parts for i in refine(sorted(part), level + 1)]
    return [i for group in (0, 1) for i in
            refine([i for i, key in enumerate(keys) if key[0] == group], 0)]


maps = st.one_of(st.sampled_from(ZOO),
                 st.builds(random_map, st.integers(2, 3),
                           st.integers(0, 10_000)))


@settings(max_examples=40, deadline=None)
@given(f=maps, n_targets=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
# targets whose keys straddle a 12-decimal boundary inside a tie class
@example(f=chebyshev_product(), n_targets=4, seed=2565501)
@example(f=power_map(3), n_targets=5, seed=2079)
@example(f=lattes_suspension(), n_targets=5, seed=1470)
def test_batch_properties(f, n_targets, seed):
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(n_targets, 3)) \
        + 1j * rng.normal(size=(n_targets, 3))
    want = f.degree ** 2
    batch = preimage_batch(f, targets)
    assert batch.lifts.shape == (n_targets, want, 3)
    assert batch.root_ids.shape == batch.residuals.shape == (n_targets, want)
    assert batch.rotations.shape == (n_targets,)
    for i in range(n_targets):
        lifts, ids = batch.lifts[i], batch.root_ids[i]
        images = f.evaluate_batch(lifts)
        assert fs_distance_batch(images, targets[i]).max() < 1e-9
        assert batch.residuals[i].max() < 1e-9
        # ids count the roots 0, 1, ... in branch order, and copies of one
        # root are adjacent and identical
        assert ids[0] == 0 and np.all(np.isin(np.diff(ids), (0, 1)))
        runs = np.flatnonzero(np.diff(ids)) + 1
        for run in np.split(np.arange(want), runs):
            assert np.all(lifts[run] == lifts[run[0]])
        # the distinct roots are already in branch order
        keys = [branch_key(lifts[run[0]]) for run in
                np.split(np.arange(want), runs)]
        assert branch_order(keys) == list(range(len(keys)))
        one = preimage_batch(f, targets[i:i + 1])
        assert fs_distance_batch(lifts, one.lifts[0]).max() < 1e-12
        assert np.array_equal(ids, one.root_ids[0])


@pytest.mark.parametrize("x", [
    (-213.06602132392948, -213.0660213239295),  # the sign flips the order
    (4.99999e-13, 5.00001e-13),                 # 12-decimal boundary at 0
])
def test_branch_order_ignores_noise_across_rounding_boundaries(x):
    # two roots (x, +-y) share x in exact arithmetic, and solver noise puts
    # the computed x values on either side of a rounding boundary (the first
    # pair is from a walker of the seed-7 lattes_suspension sample): x ties,
    # so y decides, and the larger y comes first in either solve order
    for xa, xb in (x, x[::-1]):
        lifts = np.array([[[xa, -0.5, 1.0], [xb, 0.5, 1.0]]], dtype=complex)
        got, ids = _canonical_branches(lifts, np.array([[1, 1]]))
        assert got[:, 1].real.tolist() == [0.5, -0.5]
        assert ids.tolist() == [0, 1]
    # keys apart by much more than noise still decide on their own
    lifts = np.array([[[1.0, -0.5, 1.0], [1.0 - 1e-6, 0.5, 1.0]]],
                     dtype=complex)
    got, _ = _canonical_branches(lifts, np.array([[1, 1]]))
    assert got[:, 1].real.tolist() == [-0.5, 0.5]


def test_target_solved_only_after_a_rotation():
    # [0:0:1] under the Chebyshev product is solved in its own chart:
    # z^2 - 2 t^2 = w^2 - 2 t^2 = 0 with t = 1: (+-sqrt 2, +-sqrt 2)
    target = np.array([[0.0, 0.0, 1.0]], dtype=np.complex128)
    s = np.sqrt(2.0)
    # under perturbed_power, z^2 + w^2 / 100 = w^2 + t^2 / 100 = 0:
    # (+-0.01, +-0.1i); both u-roots are double and their copies split past
    # U_FIBER_RADIUS, so each copy claims the same v-point and chart 2
    # finds (0.01, -0.1i) and (-0.01, -0.1i) twice each; the merge drops
    # the copies, the sweep falls short the same way, and the batch is
    # solved in rotated coordinates
    for f, rotations, roots in [
            (chebyshev_product(), 0, [[s, s], [s, -s], [-s, s], [-s, -s]]),
            (perturbed_power_family().map, 1,
             [[0.01, 0.1j], [0.01, -0.1j], [-0.01, 0.1j], [-0.01, -0.1j]])]:
        batch = preimage_batch(f, target)
        assert batch.rotations.tolist() == [rotations]
        assert batch.swept.tolist() == [rotations > 0]
        assert batch.root_ids.tolist() == [[0, 1, 2, 3]]
        assert fs_distance_batch(f.evaluate_batch(batch.lifts[0]),
                                 target[0]).max() < 1e-12
        aff = batch.lifts[0, :, :2] / batch.lifts[0, :, 2:]
        assert np.max(np.abs(aff - roots)) < 1e-9


def test_double_roots_on_the_line_at_infinity():
    # product_mixed is (z^2, w^2 - 2 t^2, t^2): [1:1:0] pulls back to
    # (1:+-1:0), each double; the three-chart sweep and all three rotations
    # came up short on it, the target's own chart solves it
    f = mixed_product_family().map
    batch = preimage_batch(f, np.array([[1.0, 1.0, 0.0]]))
    assert batch.rotations.tolist() == [0]
    assert batch.swept.tolist() == [False]
    assert batch.root_ids.tolist() == [[0, 0, 1, 1]]
    assert batch.residuals.max() < 1e-12
    want = np.array([[1, 1, 0], [1, 1, 0], [1, -1, 0], [1, -1, 0]])
    assert fs_distance_batch(batch.lifts[0], want).max() < 1e-12


def test_root_at_infinity_of_the_target_chart_needs_the_sweep():
    # lattes_suspension [1:0:0] pulls back to (1:0:0) and (0:0:1), each
    # double; (0:0:1) lies at infinity of chart 0, the target's own chart,
    # so only the three-chart sweep (not a rotation) finds it
    f = lattes_suspension()
    batch = preimage_batch(f, np.array([[1.0, 0.0, 0.0]]))
    assert batch.rotations.tolist() == [0]
    assert batch.swept.tolist() == [True]
    assert batch.root_ids.tolist() == [[0, 0, 1, 1]]
    want = np.array([[0, 0, 1], [0, 0, 1], [1, 0, 0], [1, 0, 0]])
    assert fs_distance_batch(batch.lifts[0], want).max() < 1e-12


@pytest.mark.parametrize("name", ["lattes_suspension", "chebyshev_product",
                                  "mixed_product"])
def test_each_row_is_independent_of_its_batch(name):
    # every row is solved on its own (one eigensolve per matrix, Newton
    # stopping per row), so a target gets bit for bit the same lifts, root
    # ids and rotations inside a batch as alone; the slice holds targets
    # whose rotation count used to depend on the rest of their batch
    f = {"lattes_suspension": lattes_suspension(),
         "chebyshev_product": chebyshev_product(),
         "mixed_product": mixed_product_family().map}[name]
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    targets = targets[:450]
    batch = preimage_batch(f, targets)
    for i in range(targets.shape[0]):
        one = preimage_batch(f, targets[i:i + 1])
        assert np.array_equal(batch.lifts[i], one.lifts[0])
        assert np.array_equal(batch.root_ids[i], one.root_ids[0])
        assert batch.rotations[i] == one.rotations[0]


@pytest.mark.parametrize("family", standard_zoo(), ids=lambda f: f.name)
def test_carried_residuals_match_a_fresh_evaluation(family):
    # each root keeps the residual its solve measured, the map at the lift
    # with 1 in its search chart against the chart-normalized target; a
    # fresh one evaluates F at the returned lift against the target as
    # given.  The chordal distance is a metric, so the two differ by at
    # most the distance of the two images plus that of the two targets
    # plus each distance's own rounding.  With u = 2^-53: a complex
    # division (Smith's, six roundings on terms below sqrt(2) |a / b|)
    # is within 9 u normwise, so the targets are within 9 u and the lifts
    # within 9 u + 2 u (two sup-normalizations).  A lift moved by delta
    # moves F by d delta S |p|^d (first order), and an evaluation rounds F
    # by (d sqrt(5) + M) u S |p|^d (the count in test_kernel.py), S the
    # 2-norm of the components' absolute coefficient sums, M the support
    # size: relative to |F(p)| both scale with kappa = S |p|_sup^d / |F(p)|.
    # A distance's minors are products of unit-scale coordinates, within
    # 7 u.  So |carried - fresh| <= (9 + 14) u + (2 (d sqrt(5) + M) +
    # 11 d) u kappa.  A rotated target's roots also went through U q (three
    # products and sums per coordinate, U unitary: (3 sqrt(5) + 2) sqrt(3) u
    # normwise) and were measured under substitute_linear's coefficients,
    # cleaned below CLEAN_REL_TOL of the largest (at most (d+1)(d+2)/2 of
    # them, |coefficient| <= 3^(d/2) S): that much more times kappa
    f = family.map
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    corners = [c for c in itertools.product([0, 1, -1, 1j], repeat=3)
               if any(c)]  # where three of the six maps need a rotation
    targets = np.concatenate([targets, np.array(corners, dtype=complex)])
    batch = preimage_batch(f, targets)
    d, want = f.degree, f.degree ** 2
    lifts = batch.lifts.reshape(-1, 3)
    fresh = fs_distance_batch(f.evaluate_batch(lifts),
                              np.repeat(targets, want, axis=0))
    s = np.linalg.norm([np.sum(np.abs(list(t.values()))) for t in f.tables])
    kappa = s / np.linalg.norm(f.polynomial_batch(sup_normalize(lifts)),
                               axis=1)
    m = len(set().union(*f.tables))
    u = 2.0 ** -53
    tol = u * (23 + (2 * (d * np.sqrt(5) + m) + 11 * d) * kappa)
    rotated = np.repeat(batch.rotations > 0, want)
    tol += rotated * kappa * (u * d * (3 * np.sqrt(5) + 2) * np.sqrt(3)
                              + (d + 1) * (d + 2) / 2 * CLEAN_REL_TOL
                              * 3 ** (d / 2))
    assert np.all(np.abs(batch.residuals.ravel() - fresh) <= tol)
    if family.name in ("chebyshev_product", "product_mixed",
                       "perturbed_power"):
        assert batch.rotations.any()
    # copies of one root carry its one residual
    for ids, res in zip(batch.root_ids, batch.residuals):
        assert all(np.unique(res[ids == k]).size == 1 for k in set(ids))


# ---------------------------------------------------------------------------
# the own-chart pass and the stacked sweep of (target, search chart) rows
# ---------------------------------------------------------------------------

def sweep(f, targets):
    """The three-chart sweep of every target, padded and merged."""
    targets_norm, tcharts = chart_normalize(targets)
    return _merged_slots(*_chart_sweep(f, targets_norm, tcharts),
                         targets.shape[0])


SWEEP_MAPS = {"power2": power_map(2),
              "lattes_suspension": lattes_suspension(),
              "chebyshev_product": chebyshev_product(),
              "product_mixed": mixed_product_family().map,
              "perturbed_power": perturbed_power_family().map}


@pytest.mark.parametrize("name", sorted(SWEEP_MAPS))
def test_stacked_rows_match_one_target_solves(name):
    # the own-chart pass solves each target as a row of one batch, and the
    # sweep each (target, search chart) pair, so a target's roots must not
    # depend on the other rows: each of 40 targets, in all three target
    # charts, gets bit for bit what it gets alone, from preimage_batch and
    # from the sweep called directly; the last target, [0:0:1], needs a
    # rotated retry under perturbed_power
    f = SWEEP_MAPS[name]
    rng = np.random.default_rng(41)
    targets = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    targets[-1] = [0.0, 0.0, 1.0]
    assert set(chart_indices(targets).tolist()) == {0, 1, 2}
    batch = preimage_batch(f, targets)
    if name == "perturbed_power":
        assert batch.rotations[-1] > 0
    lifts, mults = sweep(f, targets)
    for i in range(targets.shape[0]):
        one = preimage_batch(f, targets[i:i + 1])
        assert np.array_equal(batch.lifts[i], one.lifts[0])
        assert np.array_equal(batch.root_ids[i], one.root_ids[0])
        assert np.array_equal(batch.residuals[i], one.residuals[0])
        assert batch.rotations[i] == one.rotations[0]
        assert batch.swept[i] == one.swept[0]
        one_lifts, one_mults = sweep(f, targets[i:i + 1])
        k = one_mults.shape[1]
        assert np.array_equal(mults[i, :k], one_mults[0])
        assert not mults[i, k:].any()
        assert np.array_equal(lifts[i, :k], one_lifts[0])


def companion_roots(coeffs):
    """:func:`polynomial_roots` with quartics sent to the companion
    eigensolve, as every quartic row was solved before the closed form."""
    coeffs = np.atleast_2d(coeffs)
    if coeffs.shape[1] != 5:
        return polynomial_roots(coeffs)
    companion = np.zeros((coeffs.shape[0], 4, 4), dtype=np.complex128)
    companion[:, 0] = -(coeffs / coeffs[:, -1:])[:, -2::-1]
    companion[:, 1:, :3] = np.eye(3)
    return np.linalg.eigvals(companion)


@pytest.mark.parametrize("name", ["lattes_suspension", "chebyshev_product"])
def test_quartic_closed_form_matches_the_companion_path(name, monkeypatch):
    # both maps send their targets through quartic u-resultants; the
    # closed form and the eigensolve are both backward stable, and the
    # 2D Newton polish then refines both to the same roots: same distinct
    # roots in the same branch order, lifts within rounding
    f = SWEEP_MAPS[name]
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    batch = preimage_batch(f, targets)
    monkeypatch.setattr(preimages, "polynomial_roots", companion_roots)
    before = preimage_batch(f, targets)
    assert np.array_equal(batch.root_ids, before.root_ids)
    assert np.array_equal(batch.rotations, before.rotations)
    assert fs_distance_batch(batch.lifts.reshape(-1, 3),
                             before.lifts.reshape(-1, 3)).max() <= 1e-14


@pytest.mark.parametrize("name", ["power2", "lattes_suspension",
                                  "perturbed_power"])
@pytest.mark.parametrize("p", [[1.0, 0.3 + 0.2j, np.exp(0.7j)],
                               [1.0, np.exp(0.7j), 0.3 + 0.2j]])
def test_preimage_on_a_chart_boundary_survives_the_prune(name, p):
    # p has |p_0| = |p_2| = 1 (or |p_0| = |p_1| = 1) > the third modulus:
    # in search chart 2 (in both charts 0 and 1) a coordinate u of p lies
    # on the unit circle, where u-roots are dropped only beyond
    # 1 + BIDISK_SLACK; under power2 all four preimages of F(p) are such.
    # The first attempt must find them all: a rotated retry would hide a
    # prune that drops u-roots on the circle.  The own-chart pass, which
    # has no prune, solves these targets, so the sweep is also called
    # directly; under perturbed_power it still loses a boundary root
    # (CHANGES.md FOUND), and only the own-chart pass finds all four
    f = SWEEP_MAPS[name]
    p = np.array([p])
    batch = preimage_batch(f, f.evaluate_batch(p))
    assert batch.rotations.tolist() == [0]
    assert batch.swept.tolist() == [False]
    assert batch.lifts.shape == (1, f.degree ** 2, 3)
    assert batch.residuals.max() < 1e-9
    assert fs_distance_batch(batch.lifts[0], p[0]).min() < 1e-9
    if name != "perturbed_power":
        lifts, mults = sweep(f, f.evaluate_batch(p))
        assert mults.sum() == f.degree ** 2
        assert fs_distance_batch(lifts[0][mults[0] > 0], p[0]).min() < 1e-9
