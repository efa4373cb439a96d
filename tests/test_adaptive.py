"""BiGreedy+ (adaptive sampling) tests."""

import numpy as np
import pytest

from repro.core.adaptive import bigreedy_plus
from repro.fairness.constraints import FairnessConstraint


class TestBiGreedyPlus:
    def test_solution_is_fair(self, small3d):
        c = FairnessConstraint.proportional(5, small3d.group_sizes, alpha=0.1)
        s = bigreedy_plus(small3d, c, seed=0)
        assert s.size == 5
        assert s.violations() == 0
        assert s.algorithm == "BiGreedy+"

    def test_deterministic(self, small3d):
        c = FairnessConstraint.proportional(5, small3d.group_sizes, alpha=0.1)
        a = bigreedy_plus(small3d, c, seed=9)
        b = bigreedy_plus(small3d, c, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_doubling_schedule(self, small3d):
        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        s = bigreedy_plus(
            small3d, c, initial_size=8, max_size=64, lam=1e-9, seed=1
        )
        sizes = s.stats["net_sizes"]
        assert sizes[0] == 8
        for a, b in zip(sizes, sizes[1:]):
            assert b == min(2 * a, 64)
        assert sizes[-1] <= 64

    def test_lambda_stops_early(self, small3d):
        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        s = bigreedy_plus(small3d, c, initial_size=8, max_size=512, lam=0.9, seed=2)
        # A huge lambda accepts after the second iteration.
        assert s.stats["iterations"] == 2

    def test_runs_every_iteration_with_tiny_lambda(self, small3d):
        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        s = bigreedy_plus(small3d, c, initial_size=8, max_size=32, lam=1e-9, seed=3)
        assert s.stats["iterations"] == len(s.stats["net_sizes"])

    def test_invalid_lambda(self, small3d):
        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        with pytest.raises(ValueError, match="lam"):
            bigreedy_plus(small3d, c, lam=0.0)

    def test_initial_exceeding_max(self, small3d):
        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        with pytest.raises(ValueError, match="exceeds"):
            bigreedy_plus(small3d, c, initial_size=100, max_size=50)

    def test_quality_close_to_bigreedy(self, small3d):
        from repro.core.bigreedy import bigreedy

        c = FairnessConstraint.proportional(5, small3d.group_sizes, alpha=0.1)
        full = bigreedy(small3d, c, seed=4)
        plus = bigreedy_plus(small3d, c, seed=4)
        assert plus.mhr() >= full.mhr() - 0.15

    def test_lsac_example(self, lsac_sky):
        c = FairnessConstraint.exact([1, 1])
        s = bigreedy_plus(lsac_sky, c, seed=0)
        assert sorted(s.ids.tolist()) == [4, 7]  # a5, a8

    def test_phases_sum_every_iteration(self, small3d, monkeypatch):
        import repro.core.adaptive as adaptive
        from repro.core.bigreedy import bigreedy

        c = FairnessConstraint.proportional(4, small3d.group_sizes, alpha=0.1)
        plain = bigreedy_plus(small3d, c, initial_size=8, max_size=64, lam=1e-9, seed=5)
        recorded = []

        def recording_bigreedy(*args, **kwargs):
            solution = bigreedy(*args, **kwargs)
            recorded.append(dict(solution.stats["phases"]))
            return solution

        monkeypatch.setattr(adaptive, "bigreedy", recording_bigreedy)
        s = bigreedy_plus(small3d, c, initial_size=8, max_size=64, lam=1e-9, seed=5)
        assert len(recorded) == s.stats["iterations"] >= 2
        for phase in ("engine", "search", "finalize"):
            assert s.stats["phases"][phase] >= sum(p[phase] for p in recorded)
        # Timing only: the answer is the unwrapped one.
        np.testing.assert_array_equal(s.indices, plain.indices)
        assert s.mhr_estimate == plain.mhr_estimate
