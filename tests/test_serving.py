"""Serving-layer tests: SolverArtifacts, FairHMSIndex, batch queries."""

import numpy as np
import pytest

import repro.serving.artifacts as artifacts_module
from repro.core.adaptive import bigreedy_plus
from repro.core.bigreedy import bigreedy, default_net_size
from repro.core.intcov import candidate_mhr_values, intcov
from repro.core.solve import resolve_algorithm, solve_fairhms
from repro.data.synthetic import anticorrelated_dataset
from repro.fairness.constraints import FairnessConstraint
from repro.hms.evaluation import MhrEvaluator
from repro.service import DatasetRegistry
from repro.serving import FairHMSIndex, Query, SolverArtifacts


def proportional(dataset, k, alpha=0.1):
    constraint = FairnessConstraint.proportional(
        k, dataset.population_group_sizes, alpha=alpha, clamp=True
    )
    lower = np.minimum(constraint.lower, dataset.group_sizes)
    upper = np.maximum(constraint.upper, lower)
    return FairnessConstraint(lower=lower, upper=upper, k=k)


class TestResolveAlgorithm:
    def test_auto_2d_is_intcov(self, small2d):
        c = proportional(small2d, 4)
        assert resolve_algorithm(small2d, c) == "IntCov"

    def test_auto_md_is_bigreedy_plus(self, small3d):
        c = proportional(small3d, 4)
        assert resolve_algorithm(small3d, c) == "BiGreedy+"

    def test_explicit_passthrough(self, small3d):
        c = proportional(small3d, 4)
        assert resolve_algorithm(small3d, c, "BiGreedy") == "BiGreedy"

    def test_unknown_rejected(self, small3d):
        c = proportional(small3d, 4)
        with pytest.raises(ValueError, match="unknown algorithm"):
            resolve_algorithm(small3d, c, "Magic")


class TestSolverArtifacts:
    def test_engine_cached_by_key(self, small3d):
        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        assert art.engine(40, 3) is art.engine(40, 3)
        assert art.engine(40, 3) is not art.engine(40, 4)
        assert art.engine(40, 3) is not art.engine(50, 3)
        info = art.cache_info()
        assert info["engines_cached"] == 3
        assert info["engine_hits"] == 3  # the three repeated lookups above

    def test_numpy_seed_hits_int_key(self, small3d):
        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        assert art.engine(24, np.int64(5)) is art.engine(24, 5)

    def test_non_int_seed_bypasses_cache(self, small3d):
        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        assert art.engine(24, None) is not art.engine(24, None)
        assert art.cache_info()["net_bypasses"] == 2
        assert art.cache_info()["engines_cached"] == 0

    def test_cached_net_matches_cold_stream(self, small3d):
        from repro.geometry.deltanet import sample_directions

        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        expected = sample_directions(32, sky.dim, np.random.default_rng(9))
        np.testing.assert_array_equal(art.net(32, 9), expected)

    def test_matches_is_identity(self, small3d):
        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        assert art.matches(sky)
        assert not art.matches(small3d)
        assert not art.matches(small3d.skyline())  # equal content, new object

    def test_envelope_requires_2d(self, small3d):
        with pytest.raises(ValueError, match="2-D"):
            SolverArtifacts(small3d.skyline()).envelope()

    def test_tau_ladder_lists_exactly_h(self, small2d):
        sky = small2d.skyline()
        art = SolverArtifacts(sky)
        ladder = art.tau_ladder()
        assert art.tau_ladder() is ladder
        H = candidate_mhr_values(sky.points)
        rungs = ladder.rungs
        assert np.isin(rungs, H).all()
        assert rungs.size < H.size // 10
        # Every bracket, open ends included, lists exactly H between rungs.
        for rank in (-1, 0, rungs.size // 2, rungs.size - 2, rungs.size - 1):
            lo = rungs[rank] if rank >= 0 else -np.inf
            hi = rungs[rank + 1] if rank + 1 < rungs.size else np.inf
            np.testing.assert_array_equal(
                ladder.bracket(rank), H[(H > lo) & (H < hi)]
            )
        assert ladder.bracket(0) is ladder.bracket(0)  # listed once


class TestGeometryFootprint:
    """A 2-D tenant keeps O(n) IntCov state, never the O(n^2) set H."""

    def test_answered_2d_index_caches_under_a_mebibyte(self):
        index = FairHMSIndex(anticorrelated_dataset(2000, 2, 3, seed=101))
        for k in (4, 6, 8):
            index.query(k)
        info = index.cache_info()
        assert info["envelope_cached"] and info["ladder_cached"]
        assert info["cache_bytes"] < 1 << 20
        # The ladder's peak ratios, 8 bytes a point beside its slopes,
        # count toward the byte budget.
        artifacts = index.artifacts
        ladder = artifacts.tau_ladder()
        assert ladder.peak.shape == (index.skyline.n,)
        assert artifacts.cache_bytes() >= ladder.rungs.nbytes + 2 * ladder.peak.nbytes

    def test_byte_budget_keeps_answered_2d_tenants_resident(self):
        reg = DatasetRegistry(max_bytes=2 << 20)
        for name, seed in (("a", 101), ("b", 102)):
            reg.register(name, anticorrelated_dataset(2000, 2, 3, seed=seed))
            for k in (4, 6, 8):
                reg.get(name).query(k)
        assert reg.peek("a") is not None and reg.peek("b") is not None


class TestArtifactEpochs:
    """bump_epoch / rebind / flush: staged, per-component invalidation."""

    def test_bump_epoch_counts_and_reports(self, small3d):
        art = SolverArtifacts(small3d.skyline())
        art.engine(24, 3)
        info = art.cache_info()
        assert info["epoch"] == 0
        assert info["dirty_components"] == ()
        assert art.bump_epoch(skyline_changed=True) == 1
        info = art.cache_info()
        assert info["epoch"] == 1
        assert info["epoch_bumps"] == 1
        assert info["dirty_components"] == ("engines", "geometry")
        # Staged, not applied: the engine is still cached until a flush.
        assert info["engines_cached"] == 1
        assert info["engine_misses"] == 1  # counters survive the bump

    def test_skyline_unchanged_bump_keeps_engines(self, small3d):
        art = SolverArtifacts(small3d.skyline())
        engine = art.engine(24, 3)
        net = art.net(24, 3)
        art.bump_epoch(skyline_changed=False)
        assert art.dirty_components() == ()
        assert art.engine(24, 3) is engine  # object identity: no rebuild
        assert art.net(24, 3) is net

    def test_flush_drops_engines_keeps_nets(self, small3d):
        art = SolverArtifacts(small3d.skyline())
        engine = art.engine(24, 3)
        net = art.net(24, 3)
        art.bump_epoch(skyline_changed=True)
        art.flush_invalidations()
        assert art.cache_info()["engines_cached"] == 0
        assert art.cache_info()["engine_invalidations"] == 1
        assert art.net(24, 3) is net  # nets depend on (m, d, seed) only
        assert art.engine(24, 3) is not engine

    def test_accessors_self_flush(self, small2d):
        sky = small2d.skyline()
        art = SolverArtifacts(sky)
        envelope = art.envelope()
        ladder = art.tau_ladder()
        art.bump_epoch(skyline_changed=True)
        assert art.envelope() is not envelope
        assert art.tau_ladder() is not ladder

    def test_rebind_swaps_dataset_and_stages(self, small3d):
        sky = small3d.skyline()
        art = SolverArtifacts(sky)
        art.engine(24, 3)
        other = small3d.subset(np.arange(50)).skyline()
        assert art.rebind(other) == 1
        assert art.matches(other) and not art.matches(sky)
        assert art.dirty_components() == ("engines", "geometry")
        assert art.rebind(other) == 1  # same object: no-op

    def test_rebind_rejects_dimension_change(self, small3d, small2d):
        art = SolverArtifacts(small3d.skyline())
        with pytest.raises(ValueError, match="dimensions"):
            art.rebind(small2d.skyline())

    def test_prime_geometry_clears_dirty(self, small2d):
        sky = small2d.skyline()
        art = SolverArtifacts(sky)
        envelope = art.envelope()
        art.bump_epoch(skyline_changed=True)
        art.prime_geometry(envelope)
        assert "geometry" not in art.dirty_components()
        assert art.envelope() is envelope

    def test_clear_resets_staged_invalidation(self, small3d):
        art = SolverArtifacts(small3d.skyline())
        art.engine(24, 3)
        art.bump_epoch(skyline_changed=True)
        art.clear()
        assert art.dirty_components() == ()
        assert art.cache_info()["engines_cached"] == 0


class TestResultMemoBoundary:
    """max_cached_results: exactly-full memo, then one more."""

    def test_exactly_full_then_one_more(self, small3d):
        index = FairHMSIndex(small3d, max_cached_results=2)
        first = index.query(4, seed=1)
        second = index.query(4, seed=2)
        # Exactly full: both entries must still be served from the memo.
        assert index.cache_info()["results_cached"] == 2
        assert index.query(4, seed=1) is first
        assert index.query(4, seed=2) is second
        assert index.cache_info()["result_hits"] == 2
        # One more distinct query evicts exactly the oldest entry.
        third = index.query(4, seed=3)
        assert index.cache_info()["results_cached"] == 2
        assert index.query(4, seed=2) is second
        assert index.query(4, seed=3) is third
        assert index.query(4, seed=1) is not first  # evicted: re-solved
        np.testing.assert_array_equal(index.query(4, seed=1).indices, first.indices)

    def test_memo_of_one(self, small3d):
        index = FairHMSIndex(small3d, max_cached_results=1)
        first = index.query(4, seed=1)
        assert index.query(4, seed=1) is first
        index.query(4, seed=2)
        assert index.cache_info()["results_cached"] == 1
        assert index.query(4, seed=1) is not first

    def test_hits_refresh_recency_true_lru(self, small3d):
        # Regression: the memo used to evict in pure insertion order, so
        # the hottest repeated query could be evicted by a one-off burst
        # of distinct queries even while being hit constantly.
        index = FairHMSIndex(small3d, max_cached_results=2)
        hot = index.query(4, seed=1)
        index.query(4, seed=2)
        assert index.query(4, seed=1) is hot  # hit: moves to MRU
        index.query(4, seed=3)  # burst: must evict seed=2 (now LRU) ...
        assert index.query(4, seed=1) is hot  # ... never the hot entry
        assert index.query(4, seed=2) is not None  # re-solved (was evicted)
        assert index.cache_info()["results_cached"] == 2


class TestSolversWithArtifacts:
    """artifacts= must be a pure cache: results identical with or without."""

    def test_bigreedy(self, small3d):
        sky = small3d.skyline()
        c = proportional(sky, 4)
        art = SolverArtifacts(sky)
        cold = bigreedy(sky, c, seed=3)
        warm = bigreedy(sky, c, seed=3, artifacts=art)
        np.testing.assert_array_equal(cold.indices, warm.indices)
        assert cold.mhr_estimate == warm.mhr_estimate

    def test_bigreedy_plus(self, small6d):
        sky = small6d.skyline()
        c = proportional(sky, 5)
        art = SolverArtifacts(sky)
        cold = bigreedy_plus(sky, c, seed=3)
        warm = bigreedy_plus(sky, c, seed=3, artifacts=art)
        np.testing.assert_array_equal(cold.indices, warm.indices)
        assert cold.mhr_estimate == warm.mhr_estimate
        assert cold.stats["net_sizes"] == warm.stats["net_sizes"]

    def test_intcov(self, small2d):
        sky = small2d.skyline()
        c = proportional(sky, 4)
        art = SolverArtifacts(sky)
        cold = intcov(sky, c)
        warm = intcov(sky, c, artifacts=art)
        np.testing.assert_array_equal(cold.indices, warm.indices)
        assert cold.stats["tau"] == warm.stats["tau"]

    def test_mismatched_artifacts_fall_back(self, small3d, small6d):
        sky = small3d.skyline()
        c = proportional(sky, 4)
        art = SolverArtifacts(small6d.skyline())  # wrong dataset
        warm = bigreedy(sky, c, seed=3, artifacts=art)
        cold = bigreedy(sky, c, seed=3)
        np.testing.assert_array_equal(cold.indices, warm.indices)
        assert art.cache_info()["engines_cached"] == 0


class TestFairHMSIndex:
    @pytest.mark.parametrize("algorithm", ["IntCov", "auto"])
    def test_identity_2d(self, small2d, algorithm):
        index = FairHMSIndex(small2d)
        for k in (3, 5):
            constraint = index.constraint_for(k)
            cold = solve_fairhms(index.skyline, constraint, algorithm="IntCov")
            warm = index.query(k, algorithm=algorithm)
            np.testing.assert_array_equal(cold.indices, warm.indices)
            assert cold.mhr_estimate == warm.mhr_estimate

    @pytest.mark.parametrize("algorithm", ["BiGreedy", "BiGreedy+", "auto"])
    def test_identity_md(self, small3d, algorithm):
        index = FairHMSIndex(small3d)
        for k, seed in ((4, 11), (5, 12)):
            constraint = index.constraint_for(k)
            cold = solve_fairhms(
                index.skyline,
                constraint,
                algorithm="BiGreedy+" if algorithm == "auto" else algorithm,
                seed=seed,
            )
            warm = index.query(k, algorithm=algorithm, seed=seed)
            np.testing.assert_array_equal(cold.indices, warm.indices)
            assert cold.mhr_estimate == warm.mhr_estimate

    def test_result_cache_returns_same_object(self, small3d):
        index = FairHMSIndex(small3d)
        first = index.query(4, seed=5)
        second = index.query(4, seed=5)
        assert second is first
        assert index.cache_info()["result_hits"] == 1

    def test_result_cache_disabled(self, small3d):
        index = FairHMSIndex(small3d, cache_results=False)
        first = index.query(4, seed=5)
        second = index.query(4, seed=5)
        assert second is not first
        np.testing.assert_array_equal(first.indices, second.indices)
        assert index.cache_info()["result_hits"] == 0
        # artifact (net/engine) caches still work with result caching off
        assert index.cache_info()["engine_hits"] > 0

    def test_engines_shared_across_eps(self, small3d):
        index = FairHMSIndex(small3d)
        index.query(4, algorithm="BiGreedy", seed=5, eps=0.02)
        misses = index.cache_info()["engine_misses"]
        index.query(4, algorithm="BiGreedy", seed=5, eps=0.1)
        info = index.cache_info()
        assert info["engine_misses"] == misses  # same (m, seed): no rebuild
        assert info["engine_hits"] >= 1

    def test_distinct_keys_get_distinct_engines(self, small3d):
        index = FairHMSIndex(small3d)
        index.query(4, algorithm="BiGreedy", seed=1)
        index.query(4, algorithm="BiGreedy", seed=2)  # new seed -> new net
        index.query(5, algorithm="BiGreedy", seed=1)  # new m -> new net
        info = index.cache_info()
        assert info["engines_cached"] == 3
        assert info["net_misses"] == 3
        d = index.skyline.dim
        art = index.artifacts
        assert (default_net_size(4, d), 1) in art._engines
        assert (default_net_size(4, d), 2) in art._engines
        assert (default_net_size(5, d), 1) in art._engines

    def test_net_sampled_once_across_queries(self, small3d, monkeypatch):
        calls = {"n": 0}
        real = artifacts_module.sample_directions

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(artifacts_module, "sample_directions", counting)
        index = FairHMSIndex(small3d)
        index.query(4, algorithm="BiGreedy", seed=5, eps=0.02)
        index.query(4, algorithm="BiGreedy", seed=5, eps=0.05)
        index.query(4, algorithm="BiGreedy", seed=5, eps=0.1)
        assert calls["n"] == 1

    def test_query_requires_k_or_constraint(self, small3d):
        with pytest.raises(ValueError, match="either k or an explicit"):
            FairHMSIndex(small3d).query()

    def test_unknown_scheme_rejected(self, small3d):
        with pytest.raises(ValueError, match="unknown scheme"):
            FairHMSIndex(small3d).query(4, scheme="quotas")

    def test_explicit_constraint_respected(self, small3d):
        index = FairHMSIndex(small3d)
        constraint = FairnessConstraint.exact([2, 2])
        solution = index.query(constraint=constraint, seed=3)
        assert solution.size == 4
        assert constraint.satisfied_by(index.skyline.labels, solution.indices)

    def test_constraint_for_cached_and_clamped(self, small3d):
        index = FairHMSIndex(small3d)
        c1 = index.constraint_for(4)
        assert index.constraint_for(4) is c1
        assert (c1.lower <= index.skyline.group_sizes).all()
        assert index.constraint_for(4, scheme="balanced") is not c1

    def test_clear_result_cache(self, small3d):
        index = FairHMSIndex(small3d)
        first = index.query(4, seed=5)
        index.clear_result_cache()
        second = index.query(4, seed=5)
        assert second is not first
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_result_cache_bounded(self, small3d):
        index = FairHMSIndex(small3d, max_cached_results=2)
        index.query(4, seed=1)
        index.query(4, seed=2)
        index.query(4, seed=3)  # evicts the seed=1 entry
        assert index.cache_info()["results_cached"] == 2
        first_again = index.query(4, seed=1)  # miss: re-solved
        assert index.cache_info()["result_hits"] == 0
        assert first_again.size == 4

    def test_clear_caches_drops_engines_too(self, small3d):
        index = FairHMSIndex(small3d)
        index.query(4, seed=5)
        assert index.cache_info()["engines_cached"] > 0
        index.clear_caches()
        info = index.cache_info()
        assert info["engines_cached"] == 0
        assert info["nets_cached"] == 0
        assert info["results_cached"] == 0
        # still serves correctly after clearing, identical answer
        np.testing.assert_array_equal(
            index.query(4, seed=5).indices, index.query(4, seed=5).indices
        )

    def test_constraint_for_matches_paper_constraint(self, small3d):
        from repro.experiments.workloads import paper_constraint

        index = FairHMSIndex(small3d)
        ours = index.constraint_for(5, alpha=0.1)
        harness = paper_constraint(index.skyline, 5, alpha=0.1)
        np.testing.assert_array_equal(ours.lower, harness.lower)
        np.testing.assert_array_equal(ours.upper, harness.upper)

    def test_evaluate_matches_solution_mhr(self, small3d):
        index = FairHMSIndex(small3d)
        solution = index.query(4, seed=5)
        evaluation = index.evaluate(solution)
        assert evaluation.exact
        assert evaluation.value == pytest.approx(solution.mhr(), abs=1e-9)

    def test_generator_seed_bypasses_caches(self, small3d):
        index = FairHMSIndex(small3d)
        rng = np.random.default_rng(0)
        first = index.query(4, algorithm="BiGreedy", seed=rng)
        info = index.cache_info()
        assert info["results_cached"] == 0
        assert info["net_bypasses"] >= 1
        assert first.size == 4


class TestQueryBatch:
    def test_batch_matches_sequential(self, small3d):
        warm = FairHMSIndex(small3d)
        sequential = FairHMSIndex(small3d)
        queries = [
            Query(k=4, seed=1),
            Query(k=5, seed=1),
            Query(k=4, seed=1),  # duplicate: served from the result cache
            Query(k=4, seed=1, algorithm="BiGreedy"),
        ]
        batch = warm.query_batch(queries)
        singles = [
            sequential.query(
                q.k, algorithm=q.algorithm, seed=q.seed, eps=q.eps, alpha=q.alpha
            )
            for q in queries
        ]
        for got, want in zip(batch, singles):
            np.testing.assert_array_equal(got.indices, want.indices)
        assert batch[2] is batch[0]

    def test_batch_accepts_dicts(self, small3d):
        index = FairHMSIndex(small3d)
        batch = index.query_batch([{"k": 4, "seed": 2}, {"k": 4, "seed": 2}])
        assert batch[1] is batch[0]

    def test_batch_shares_net_across_heterogeneous_eps(self, small3d):
        index = FairHMSIndex(small3d)
        index.query_batch(
            [
                {"k": 4, "seed": 3, "algorithm": "BiGreedy", "eps": e}
                for e in (0.02, 0.05, 0.1)
            ]
        )
        info = index.cache_info()
        assert info["net_misses"] == 1
        assert info["engine_misses"] == 1
        assert info["engine_hits"] == 2

    def test_batch_with_options(self, small6d):
        index = FairHMSIndex(small6d)
        (solution,) = index.query_batch(
            [Query(k=5, seed=4, algorithm="BiGreedy", options={"mode": "bicriteria"})]
        )
        assert solution.stats["mode"] == "bicriteria"


class TestKBuiltTauHint:
    """A k-built IntCov query with no hint of its own starts at the last
    k-built optimum; no answer depends on it."""

    @pytest.fixture(scope="class", params=[101, 102, 103])
    def data(self, request):
        return anticorrelated_dataset(2_000, 2, 3, seed=request.param)

    @pytest.mark.parametrize(
        "order", [(4, 6, 8), (8, 6, 4), (6, 4, 8)], ids=["up", "down", "mixed"]
    )
    def test_any_k_order_matches_fresh_solves(self, small2d, order):
        index = FairHMSIndex(small2d)
        for k in order:
            got, fresh = index.query(k), FairHMSIndex(small2d).query(k)
            np.testing.assert_array_equal(got.indices, fresh.indices)
            assert got.mhr_estimate == fresh.mhr_estimate

    def test_next_k_starts_at_the_last_optimum(self, data):
        index = FairHMSIndex(data)
        index.query(6)
        # k=6 and k=8 share their optimum here: certified in two probes.
        assert index.query(8).stats["decision_evaluations"] == 2
        index.clear_caches()  # drops the hint with everything else
        fresh = FairHMSIndex(data).query(8).stats["decision_evaluations"]
        assert index.query(8).stats["decision_evaluations"] == fresh

    def test_explicit_bounds_take_no_k_built_hint(self, data):
        explicit = FairnessConstraint(
            lower=np.array([2, 2, 2]), upper=np.array([4, 4, 4]), k=8
        )
        index = FairHMSIndex(data)
        index.query(6)
        index.query(8)
        got = index.query(constraint=explicit)
        fresh = FairHMSIndex(data).query(constraint=explicit)
        np.testing.assert_array_equal(got.indices, fresh.indices)
        evaluations = fresh.stats["decision_evaluations"]
        assert got.stats["decision_evaluations"] == evaluations


class TestMhrEvaluatorPreseeding:
    def test_preseeded_candidates_and_net_are_used(self, small6d):
        base = MhrEvaluator(small6d.points, seed=1)
        candidates = base.candidates
        net = base.net
        preseeded = MhrEvaluator(small6d.points, seed=999)  # different seed
        assert preseeded._candidates is None
        preseeded = MhrEvaluator(
            small6d.points, seed=999, candidates=candidates, net=net
        )
        np.testing.assert_array_equal(preseeded.candidates, candidates)
        np.testing.assert_array_equal(preseeded.net, net)

    def test_preseeded_evaluation_matches(self, small6d):
        S = small6d.points[:5]
        base = MhrEvaluator(small6d.points)
        preseeded = MhrEvaluator(
            small6d.points, candidates=base.candidates, net=base.net
        )
        assert preseeded.evaluate(S).value == base.evaluate(S).value
