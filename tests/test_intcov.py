"""IntCov correctness tests, including brute-force optimality."""

import itertools

import numpy as np
import pytest

from repro.core.intcov import (
    TauLadder,
    _pad_to_k,
    candidate_mhr_values,
    intcov,
)
from repro.core.intervalcover import GroupIntervals, fair_interval_cover
from repro.data.dataset import Dataset
from repro.data.synthetic import (
    anticorrelated,
    anticorrelated_dataset,
    correlated,
    independent,
)
from repro.fairness.constraints import FairnessConstraint
from repro.geometry.envelope import tau_interval, tau_intervals_bulk, upper_envelope
from repro.hms.exact import mhr_exact_2d
from repro.serving import SolverArtifacts


def brute_force_fairhms(dataset, constraint):
    """Exhaustive optimum over all fair size-k subsets."""
    best_val, best_set = -1.0, None
    labels = dataset.labels
    for combo in itertools.combinations(range(dataset.n), constraint.k):
        if not constraint.satisfied_by(labels, list(combo)):
            continue
        val = mhr_exact_2d(dataset.points[list(combo)], dataset.points)
        if val > best_val:
            best_val, best_set = val, combo
    return best_val, best_set


def random_instance(seed, n=14, C=2):
    ds = anticorrelated_dataset(n, 2, C, seed=seed).normalized()
    return ds


class TestCandidateValues:
    def test_contains_coordinates(self):
        ds = random_instance(0)
        H = candidate_mhr_values(ds.points)
        # Normalized data: every coordinate is itself a candidate ratio.
        for v in ds.points[:, 0]:
            assert np.min(np.abs(H - v)) < 1e-9

    def test_sorted_unique_unit_range(self):
        ds = random_instance(1)
        H = candidate_mhr_values(ds.points)
        assert (np.diff(H) > 0).all()
        assert H.min() >= 0.0 and H.max() <= 1.0

    def test_optimum_is_a_candidate(self):
        """The brute-force optimal MHR must appear in H (Theorem 3.1)."""
        ds = random_instance(2, n=10)
        c = FairnessConstraint(lower=[1, 1], upper=[2, 2], k=3)
        best_val, _ = brute_force_fairhms(ds, c)
        H = candidate_mhr_values(ds.points)
        assert np.min(np.abs(H - best_val)) < 1e-7


class TestIntCovOptimality:
    @pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
    def test_matches_brute_force_two_groups(self, seed):
        ds = random_instance(seed, n=12, C=2)
        c = FairnessConstraint(lower=[1, 1], upper=[2, 2], k=3)
        solution = intcov(ds, c)
        brute_val, _ = brute_force_fairhms(ds, c)
        assert solution.mhr_estimate == pytest.approx(brute_val, abs=1e-7)
        assert c.satisfied_by(ds.labels, solution.indices)

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_matches_brute_force_three_groups(self, seed):
        ds = anticorrelated_dataset(12, 2, 3, seed=seed).normalized()
        c = FairnessConstraint(lower=[1, 1, 1], upper=[2, 2, 2], k=4)
        solution = intcov(ds, c)
        brute_val, _ = brute_force_fairhms(ds, c)
        assert solution.mhr_estimate == pytest.approx(brute_val, abs=1e-7)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_brute_force_tight_quota(self, seed):
        ds = random_instance(seed, n=10, C=2)
        c = FairnessConstraint.exact([2, 1])
        solution = intcov(ds, c)
        brute_val, _ = brute_force_fairhms(ds, c)
        assert solution.mhr_estimate == pytest.approx(brute_val, abs=1e-7)

    def test_unconstrained_matches_brute_force(self):
        ds = random_instance(13, n=12)
        single = ds.with_groups(np.zeros(ds.n, dtype=np.int64), names=("all",))
        c = FairnessConstraint(lower=[0], upper=[3], k=3)
        solution = intcov(single, c)
        best = -1.0
        for combo in itertools.combinations(range(ds.n), 3):
            best = max(best, mhr_exact_2d(ds.points[list(combo)], ds.points))
        assert solution.mhr_estimate == pytest.approx(best, abs=1e-7)


class TestIntCovValidation:
    def test_requires_2d(self):
        ds = anticorrelated_dataset(10, 3, 2, seed=0).normalized()
        c = FairnessConstraint(lower=[1, 1], upper=[2, 2], k=2)
        with pytest.raises(ValueError, match="d=2"):
            intcov(ds, c)

    def test_group_count_mismatch(self):
        ds = random_instance(14)
        c = FairnessConstraint(lower=[1], upper=[2], k=2)
        with pytest.raises(ValueError, match="groups"):
            intcov(ds, c)

    def test_infeasible_constraint(self):
        ds = random_instance(15, n=10, C=2)
        sizes = ds.group_sizes
        c = FairnessConstraint(
            lower=[int(sizes[0]) + 1, 0], upper=[int(sizes[0]) + 2, 1], k=3
        )
        with pytest.raises(ValueError, match="infeasible"):
            intcov(ds, c)


class TestIntCovSolutionShape:
    def test_solution_size_and_fairness(self):
        ds = anticorrelated_dataset(60, 2, 3, seed=16).normalized()
        c = FairnessConstraint.proportional(6, ds.group_sizes, alpha=0.1)
        solution = intcov(ds, c)
        assert solution.size == 6
        assert solution.violations() == 0
        assert solution.algorithm == "IntCov"

    def test_mhr_estimate_is_exact(self):
        ds = anticorrelated_dataset(40, 2, 2, seed=17).normalized()
        c = FairnessConstraint(lower=[1, 1], upper=[3, 3], k=4)
        solution = intcov(ds, c)
        assert solution.mhr_estimate == pytest.approx(
            mhr_exact_2d(solution.points, ds.points), abs=1e-12
        )

    def test_beats_or_matches_any_fair_sample(self):
        rng = np.random.default_rng(18)
        ds = anticorrelated_dataset(40, 2, 2, seed=19).normalized()
        c = FairnessConstraint(lower=[1, 1], upper=[3, 3], k=4)
        opt = intcov(ds, c).mhr_estimate
        labels = ds.labels
        for _ in range(50):
            combo = rng.choice(ds.n, 4, replace=False)
            if c.satisfied_by(labels, combo):
                val = mhr_exact_2d(ds.points[combo], ds.points)
                assert opt >= val - 1e-9

    def test_skyline_input_equivalent(self):
        """Running on the per-group skyline gives the same optimum."""
        ds = anticorrelated_dataset(50, 2, 2, seed=20).normalized()
        c = FairnessConstraint(lower=[1, 1], upper=[3, 3], k=3)
        on_full = intcov(ds, c).mhr_estimate
        on_sky = intcov(ds.skyline(per_group=True), c).mhr_estimate
        assert on_sky == pytest.approx(on_full, abs=1e-9)


def search_over_h(dataset, constraint):
    """Paper Algorithm 1 as written: binary search over the full ``H``.

    Every decision computes ``I_tau(p)`` for every point, with no bound on
    which points can reach ``tau``.  Returns ``(tau, indices)`` for the
    largest feasible candidate.
    """
    points = dataset.points
    envelope = upper_envelope(points)
    H = candidate_mhr_values(points, envelope)
    masks = [dataset.labels == g for g in range(dataset.num_groups)]
    lo, hi = 0, H.size - 1
    best_tau, best_set = 0.0, []
    while lo <= hi:
        mid = (lo + hi) // 2
        left, right, ok = tau_intervals_bulk(points, envelope, float(H[mid]))
        buckets = []
        for mask in masks:
            sel = np.nonzero(ok & mask)[0]
            buckets.append(GroupIntervals.from_arrays(left[sel], right[sel], sel))
        cover = fair_interval_cover(buckets, constraint)
        if cover is None:
            hi = mid - 1
        else:
            best_tau, best_set = float(H[mid]), cover
            lo = mid + 1
    full = _pad_to_k(best_set, dataset, constraint)
    return best_tau, np.array(sorted(full), dtype=np.int64)


def family_points(family, n, seed):
    """Seeded 2-D inputs, including the numerically awkward shapes."""
    rng = np.random.default_rng(seed)
    if family == "anticor":
        return anticorrelated(n, 2, seed=seed)
    if family == "independent":
        return independent(n, 2, seed=seed)
    if family == "correlated":
        return correlated(n, 2, seed=seed)
    if family == "rounded":  # many exact ties in score and slope
        return np.round(anticorrelated(n, 2, seed=seed), 2)
    if family == "duplicates":
        base = anticorrelated(max(2, (n + 1) // 2), 2, seed=seed)
        return np.concatenate([base, base])[:n]
    if family == "parallel":  # scaled copies: exactly parallel score lines
        base = independent(max(2, (n + 1) // 2), 2, seed=seed)
        return np.concatenate([base, base * 0.5])[:n]
    if family == "grid":
        return rng.integers(1, 6, size=(n, 2)).astype(float) / 5
    # "raw": unnormalized coordinates far from the unit square
    return anticorrelated(n, 2, seed=seed) * 1000.0 + 3.0


FAMILIES = (
    "anticor", "independent", "correlated", "rounded",
    "duplicates", "parallel", "grid", "raw",
)


class TestLadderSearchMatchesFullH:
    """The ladder-and-bracket search returns the tau and solution that
    binary search over all of ``H`` returns, bit for bit, with any hint."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n,seed", [(3, 1), (7, 2), (40, 3), (150, 4), (600, 5)])
    def test_bit_identical_for_every_k_and_hint(self, family, n, seed):
        rng = np.random.default_rng([seed, len(family)])
        groups = min(int(rng.integers(1, 4)), n)
        labels = rng.integers(0, groups, size=n)
        labels[:groups] = np.arange(groups)
        data = Dataset(points=family_points(family, n, seed), labels=labels)
        if seed % 2:
            data = data.skyline()
        artifacts = SolverArtifacts(data)
        optima = {}
        for k in range(1, 9):
            if k > data.n:
                break
            constraint = FairnessConstraint.proportional(
                k, data.group_sizes, alpha=0.2, clamp=True
            ).capped_by_availability(data.group_sizes)
            if not constraint.is_feasible_for(data.group_sizes):
                continue
            tau, indices = search_over_h(data, constraint)
            optima[k] = tau
            neighbour = optima.get(k - 1, tau)
            hints = (
                None, tau, neighbour, tau + 1e-9, tau - 1e-9,
                0.0, 1.0, 1.5, float("nan"),
            )
            for hint in hints:
                # Unhinted solves build the geometry inline; hinted ones
                # share one cached ladder and its listed brackets.
                shared = None if hint is None else artifacts
                got = intcov(data, constraint, artifacts=shared, tau_hint=hint)
                assert got.stats["tau"] == tau, (k, hint)
                np.testing.assert_array_equal(got.indices, indices)
            assert got.mhr_estimate == mhr_exact_2d(got.points, data.points)

    def test_bit_identical_on_a_serving_sized_skyline(self):
        # ~2,000 skyline points: H holds ~1.9M values, the ladder ~6k.
        data = anticorrelated_dataset(2000, 2, 3, seed=101).normalized()
        sky = data.skyline()
        artifacts = SolverArtifacts(sky)
        for k in (4, 6, 8):
            constraint = FairnessConstraint.proportional(
                k, sky.population_group_sizes, alpha=0.1
            ).capped_by_availability(sky.group_sizes)
            tau, indices = search_over_h(sky, constraint)
            for hint in (None, tau):
                got = intcov(sky, constraint, artifacts=artifacts, tau_hint=hint)
                assert got.stats["tau"] == tau
                np.testing.assert_array_equal(got.indices, indices)


def bound_points(family, n, seed):
    """``family_points`` plus the shapes that stress the bound's margin."""
    if family == "zero-y":  # env(0) = 0: the margin is +inf
        points = independent(n, 2, seed=seed)
        points[:, 1] = 0.0
        return points
    if family == "skewed":  # column maxima 1e3 and 1e-3
        points = anticorrelated(n, 2, seed=seed)
        return points / points.max(axis=0) * np.array([1e3, 1e-3])
    if family == "tiny":
        return anticorrelated(n, 2, seed=seed) * 1e-6
    return family_points(family, n, seed)


class TestBoundedIntervalPass:
    """``TauLadder.intervals`` skips only points whose peak ratio cannot
    reach tau: it marks exactly the rows feasible that the full pass over
    all points marks, with bit-identical endpoints."""

    @pytest.mark.parametrize("family", FAMILIES + ("zero-y", "skewed", "tiny"))
    @pytest.mark.parametrize("n,seed", [(3, 1), (40, 2), (600, 3)])
    @pytest.mark.parametrize("skyline", [False, True])
    def test_matches_the_full_pass(self, family, n, seed, skyline):
        points = bound_points(family, n, seed)
        if skyline:
            labels = np.zeros(points.shape[0], dtype=np.int64)
            points = Dataset(points=points, labels=labels).skyline().points
        envelope = upper_envelope(points)
        ladder = TauLadder(points, envelope)
        rng = np.random.default_rng([seed, len(family)])
        rungs = ladder.rungs
        taus = np.concatenate([rungs, rungs - 1e-9, rungs + 1e-9, rng.random(20)])
        taus = taus[(taus >= 0.0) & (taus <= 1.0)]
        for tau in taus.tolist():
            lo, hi, ok = tau_intervals_bulk(points, envelope, tau)
            b_lo, b_hi, b_ok = ladder.intervals(tau)
            assert (b_ok == ok).all(), tau
            assert (b_lo[ok].view(np.int64) == lo[ok].view(np.int64)).all(), tau
            assert (b_hi[ok].view(np.int64) == hi[ok].view(np.int64)).all(), tau
        for tau in rng.choice(taus, 5).tolist():
            b_lo, b_hi, b_ok = ladder.intervals(tau)
            for row in rng.choice(points.shape[0], min(8, points.shape[0]), replace=False):
                scalar = tau_interval(points[row], envelope, tau)
                got = (float(b_lo[row]), float(b_hi[row])) if b_ok[row] else None
                assert got == scalar, (row, tau)
