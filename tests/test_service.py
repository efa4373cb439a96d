"""Service layer: sharded builds, registry eviction, gateway coalescing.

The load-bearing invariants:

* sharded parallel preprocessing (any shard count, pooled or inline) is
  bit-identical to ``dataset.normalized().skyline(per_group=True)``;
* registry eviction releases engine references and a rebuilt index
  answers bit-identically to the evicted one;
* gateway answers — coalesced or not, concurrent or drained — equal
  direct ``index.query`` calls, and writes are ordered against queries
  exactly as a serial replay.
"""

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import anticorrelated_dataset
from repro.serving import FairHMSIndex, LiveFairHMSIndex
from repro.service import (
    DatasetRegistry,
    Gateway,
    LatencyHistogram,
    ServiceMetrics,
    build_index_sharded,
    build_tenant_datasets,
    build_tenant_workload,
    parallel_preprocess,
    run_service_benchmark,
    shard_spans,
)
from repro.service.workload import naive_solve
from repro.serving.index import Query


def assert_same_dataset(a: Dataset, b: Dataset) -> None:
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.meta.get("population_group_sizes") == b.meta.get(
        "population_group_sizes"
    )


def assert_same_solution(a, b) -> None:
    np.testing.assert_array_equal(a.ids, b.ids)
    assert a.mhr_estimate == b.mhr_estimate


class TestShardSpans:
    def test_spans_partition_range(self):
        for n, shards in [(10, 3), (7, 7), (5, 9), (100, 4), (1, 1)]:
            spans = shard_spans(n, shards)
            covered = [i for a, b in spans for i in range(a, b)]
            assert covered == list(range(n))
            assert all(b > a for a, b in spans)

    def test_empty_and_degenerate(self):
        assert shard_spans(0, 4) == []
        assert shard_spans(3, 1) == [(0, 3)]


class TestParallelPreprocess:
    @pytest.mark.parametrize(
        "n,d,groups,shards",
        [
            (300, 2, 3, 4),  # 2-D: merge uses the sweep
            (400, 3, 2, 3),  # odd split
            (500, 4, 3, 7),  # dominance-light: merge is the build
            (150, 5, 4, 2),
        ],
    )
    def test_matches_sequential(self, n, d, groups, shards):
        data = anticorrelated_dataset(n, d, groups, seed=11)
        seq_norm = data.normalized()
        seq_sky = seq_norm.skyline(per_group=True)
        norm, sky = parallel_preprocess(data, num_shards=shards, max_workers=0)
        np.testing.assert_array_equal(norm.points, seq_norm.points)
        assert_same_dataset(sky, seq_sky)

    def test_single_shard_matches_sequential(self):
        data = anticorrelated_dataset(200, 3, 2, seed=12)
        _, sky = parallel_preprocess(data, num_shards=1, max_workers=0)
        assert_same_dataset(sky, data.normalized().skyline(per_group=True))

    def test_process_pool_matches_sequential(self):
        data = anticorrelated_dataset(400, 3, 3, seed=13)
        _, sky = parallel_preprocess(data, num_shards=4, max_workers=2)
        assert_same_dataset(sky, data.normalized().skyline(per_group=True))

    def test_duplicates_survive_like_sequential(self):
        # Exact duplicates never dominate each other; both paths must
        # keep every copy.
        rng = np.random.default_rng(0)
        pts = rng.random((120, 3)) + 0.05
        pts = np.vstack([pts, pts[:40]])
        labels = rng.integers(0, 2, pts.shape[0])
        labels[:2] = [0, 1]  # both groups guaranteed non-empty
        data = Dataset(points=pts, labels=labels)
        _, sky = parallel_preprocess(data, num_shards=5, max_workers=0)
        assert_same_dataset(sky, data.normalized().skyline(per_group=True))

    def test_group_absent_from_a_shard(self):
        # Sorted labels concentrate each group into few shards; shards
        # missing a group must not break the per-shard phase.
        rng = np.random.default_rng(1)
        pts = rng.random((90, 3)) + 0.05
        labels = np.sort(rng.integers(0, 3, 90))
        data = Dataset(points=pts, labels=labels)
        _, sky = parallel_preprocess(data, num_shards=6, max_workers=0)
        assert_same_dataset(sky, data.normalized().skyline(per_group=True))

    def test_preserves_population_provenance(self):
        data = anticorrelated_dataset(150, 2, 3, seed=14)
        _, sky = parallel_preprocess(data, num_shards=3, max_workers=0)
        assert sky.meta["population_group_sizes"] == data.group_sizes.tolist()


class TestShardedIndex:
    def test_sharded_build_answers_bit_identical(self):
        data = anticorrelated_dataset(500, 3, 3, seed=5)
        seq = FairHMSIndex(data, default_seed=7)
        par = build_index_sharded(
            data, num_shards=4, max_workers=0, default_seed=7
        )
        assert_same_dataset(par.skyline, seq.skyline)
        for k in (3, 5, 7):
            assert_same_solution(par.query(k), seq.query(k))
        # The sharded index is a full FairHMSIndex: caches, info, repr.
        assert par.cache_info()["engines_cached"] >= 1
        assert par.cache_bytes() > 0

    def test_from_preprocessed_rejects_live(self):
        data = anticorrelated_dataset(60, 2, 2, seed=6)
        with pytest.raises(TypeError, match="frozen"):
            LiveFairHMSIndex.from_preprocessed(data, data.skyline())

    def test_from_preprocessed_rejects_dim_mismatch(self):
        a = anticorrelated_dataset(60, 2, 2, seed=6)
        b = anticorrelated_dataset(60, 3, 2, seed=6)
        with pytest.raises(ValueError, match="dimensions"):
            FairHMSIndex.from_preprocessed(a, b)


def tenant(n=220, d=2, groups=2, seed=30, name="t"):
    return anticorrelated_dataset(n, d, groups, seed=seed, name=name)


class TestRegistry:
    def test_lazy_build_and_lru_touch(self):
        reg = DatasetRegistry()
        reg.register("a", tenant(seed=30))
        reg.register("b", tenant(seed=31))
        assert reg.resident_names() == ()
        reg.get("a")
        reg.get("b")
        assert reg.resident_names() == ("a", "b")
        reg.get("a")  # a becomes most recent
        assert reg.resident_names() == ("b", "a")
        assert reg.metrics.snapshot()["totals"]["builds"] == 2

    def test_unknown_and_duplicate_names(self):
        reg = DatasetRegistry()
        reg.register("a", tenant())
        with pytest.raises(KeyError):
            reg.get("nope")
        with pytest.raises(KeyError):
            reg.lock_for("nope")
        with pytest.raises(ValueError, match="registered"):
            reg.register("a", tenant())
        with pytest.raises(ValueError, match="exactly one"):
            reg.register("c")
        with pytest.raises(ValueError, match="sequentially"):
            reg.register("d", tenant(), live=True, build_workers=4)

    def test_byte_budget_evicts_lru_first(self):
        reg = DatasetRegistry(max_bytes=1)  # everything is over budget
        for name, seed in [("a", 30), ("b", 31), ("c", 32)]:
            reg.register(name, tenant(seed=seed, name=name))
        reg.get("a")
        reg.get("b")  # evicts a (LRU), keeps b (just touched)
        assert reg.resident_names() == ("b",)
        reg.get("c")
        assert reg.resident_names() == ("c",)
        assert reg.metrics.snapshot()["totals"]["evictions"] == 2

    def test_budget_respects_recency_order(self):
        # Generous budget: eviction starts only once the third index
        # tips the total over, and takes the least recently *touched*.
        reg = DatasetRegistry()
        reg.register("a", tenant(seed=30))
        reg.register("b", tenant(seed=31))
        reg.register("c", tenant(seed=32))
        a = reg.get("a")
        b = reg.get("b")
        a.query(4), b.query(4)
        reg.get("a")  # order now: b, a
        reg.max_bytes = reg.total_cache_bytes() + 1  # c will overflow
        reg.get("c")
        assert "b" not in reg.resident_names()
        assert "a" in reg.resident_names()

    def test_never_evicts_sole_resident(self):
        reg = DatasetRegistry(max_bytes=1)
        reg.register("a", tenant())
        index = reg.get("a")
        index.query(4)
        assert reg.enforce_budget() == 0
        assert reg.resident_names() == ("a",)

    def test_eviction_releases_engine_references(self):
        # d=3 so queries build a TruncatedEngine; after eviction and
        # clear_caches the engine must be collectable.
        reg = DatasetRegistry()
        reg.register("a", tenant(d=3, seed=33))
        index = reg.get("a")
        index.query(4)
        engines = list(index.artifacts._engines.values())
        assert engines
        ref = weakref.ref(engines[0])
        del engines
        assert reg.evict("a")
        del index
        gc.collect()
        assert ref() is None
        assert reg.resident_names() == ()
        assert reg.evict("a") is False  # already gone

    def test_evicted_then_retouched_rebuild_bit_identical(self):
        reg = DatasetRegistry()
        reg.register("a", tenant(seed=34))
        before = reg.get("a").query(5)
        reg.evict("a")
        after = reg.get("a").query(5)
        assert_same_solution(before, after)
        assert reg.metrics.snapshot()["totals"]["builds"] == 2

    def test_factory_registration_and_unregister(self):
        calls = []

        def factory():
            calls.append(1)
            return tenant(seed=35)

        reg = DatasetRegistry()
        reg.register("f", factory=factory)
        first = reg.get("f").query(4)
        reg.evict("f")
        second = reg.get("f").query(4)
        assert calls == [1, 1]  # one load per (re)build
        assert_same_solution(first, second)
        reg.unregister("f")
        assert "f" not in reg
        with pytest.raises(KeyError):
            reg.get("f")

    def test_live_index_writes_survive_budget_pressure(self):
        # A live index's applied writes exist nowhere else: the budget
        # must clear its caches, never drop-and-rebuild it.
        reg = DatasetRegistry(max_bytes=1)
        reg.register("live", tenant(seed=51, name="live"), live=True)
        reg.register("frozen", tenant(seed=52, name="frozen"))
        live = reg.get("live")
        live.insert(90_001, np.array([0.99, 0.98]), 0)
        with_insert = live.query(4)
        assert 90_001 in with_insert.ids.tolist()
        assert live.cache_info()["results_cached"] > 0
        reg.get("frozen")  # budget pressure: frozen was touched last
        reg.get("frozen")
        assert "live" in reg.resident_names()  # pinned, not rebuilt
        # ...but budget pressure did reclaim its caches, as documented.
        assert live.cache_info()["results_cached"] == 0
        assert reg.get("live") is live
        assert_same_solution(reg.get("live").query(4), with_insert)
        # Explicit evict reclaims caches but keeps the live index...
        assert reg.evict("live") is False
        assert "live" in reg.resident_names()
        assert_same_solution(reg.get("live").query(4), with_insert)
        # ...and only force (via unregister) really drops it.
        reg.unregister("live")
        assert "live" not in reg

    def test_pinned_live_evict_counts_cache_clear_not_eviction(self):
        # Regression: a pinned live index whose caches were merely
        # cleared used to increment the evictions counter, inflating
        # eviction metrics even though nothing was dropped.
        reg = DatasetRegistry()
        reg.register("live", tenant(seed=51, name="live"), live=True)
        reg.get("live").query(4)
        assert reg.evict("live") is False
        assert reg.evict("live") is False
        totals = reg.metrics.snapshot()["totals"]
        assert totals["evictions"] == 0
        assert totals["cache_clears"] == 2
        # A frozen drop still counts as a real eviction.
        reg.register("frozen", tenant(seed=52, name="frozen"))
        reg.get("frozen")
        assert reg.evict("frozen")
        totals = reg.metrics.snapshot()["totals"]
        assert totals["evictions"] == 1
        assert totals["cache_clears"] == 2

    def test_sharded_registry_build_matches_sequential(self):
        data = tenant(n=300, d=3, seed=50)
        seq = DatasetRegistry()
        seq.register("a", data)
        par = DatasetRegistry()
        par.register("a", data, build_workers=2, build_shards=3)
        assert_same_solution(par.get("a").query(4), seq.get("a").query(4))

    def test_snapshot_shape(self):
        reg = DatasetRegistry(max_bytes=10 * 2**20)
        reg.register("a", tenant())
        reg.get("a").query(4)
        snap = reg.snapshot()
        assert snap["max_bytes"] == 10 * 2**20
        assert snap["registered"] == ["a"]
        assert snap["resident"]["a"] > 0
        assert snap["total_cache_bytes"] == snap["resident"]["a"]


class TestGateway:
    def make(self, **kwargs):
        reg = DatasetRegistry()
        reg.register("a", tenant(seed=36, name="a"))
        reg.register("b", tenant(seed=37, name="b"))
        return reg, Gateway(reg, **kwargs)

    def test_duplicate_requests_coalesce_into_one_solve(self):
        reg, gw = self.make()
        futures = [gw.submit("a", 4) for _ in range(8)]
        futures += [gw.submit("a", 6), gw.submit("b", 4)]
        gw.drain()
        results = [f.result(timeout=0) for f in futures]
        direct = reg.get("a").query(4)
        for r in results[:8]:
            assert r is results[0]  # one Solution object fanned out
            assert_same_solution(r, direct)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["solves"] == 3
        assert totals["coalesced"] == 7
        assert totals["fence_violations"] == 0

    def test_generator_seeds_never_coalesce(self):
        # 3-D routes to BiGreedy+, which actually consumes the seed; a
        # live Generator means fresh randomness per request, so the two
        # must solve separately.  (On a 2-D/IntCov dataset the seed is
        # never consumed and coalescing them is correct — see
        # test_intcov_requests_coalesce_across_eps_and_seed.)
        reg = DatasetRegistry()
        reg.register("a", tenant(d=3, seed=36, name="a"))
        gw = Gateway(reg)
        futures = [
            gw.submit("a", 4, seed=np.random.default_rng(1)) for _ in range(2)
        ]
        gw.drain()
        for f in futures:
            f.result(timeout=0)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["solves"] == 2
        assert totals["coalesced"] == 0

    def test_intcov_requests_coalesce_across_eps_and_seed(self):
        # Regression: eps/seed (and the literal "auto" vs "IntCov" name)
        # used to split the coalesce key even though IntCov consumes
        # none of them — two requests differing only there solved twice.
        reg, gw = self.make()
        futures = [
            gw.submit("a", 4, eps=0.02),
            gw.submit("a", 4, eps=0.05),
            gw.submit("a", 4, algorithm="IntCov", eps=0.1, seed=99),
            gw.submit("a", 4, seed=np.random.default_rng(1)),  # unused seed
        ]
        gw.drain()
        results = [f.result(timeout=0) for f in futures]
        direct = reg.get("a").query(4)
        for r in results:
            assert r is results[0]  # one solve fanned out to all four
            assert_same_solution(r, direct)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["solves"] == 1
        assert totals["coalesced"] == 3

    def test_bigreedy_requests_still_split_on_eps_and_seed(self):
        # The IntCov normalization must not leak into solvers that do
        # consume eps and seed.
        reg = DatasetRegistry()
        reg.register("a", tenant(d=3, seed=36, name="a"))
        gw = Gateway(reg)
        futures = [
            gw.submit("a", 4, eps=0.02, seed=7),
            gw.submit("a", 4, eps=0.05, seed=7),
            gw.submit("a", 4, eps=0.02, seed=8),
            gw.submit("a", 4, eps=0.02, seed=7),  # dup of the first
        ]
        gw.drain()
        for f in futures:
            f.result(timeout=0)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["solves"] == 3
        assert totals["coalesced"] == 1

    def test_unknown_dataset_rejected_at_submit(self):
        _, gw = self.make()
        with pytest.raises(KeyError):
            gw.submit("nope", 4)
        with pytest.raises(KeyError):
            gw.submit_update("nope", "delete", 1)
        with pytest.raises(ValueError, match="update kind"):
            gw.submit_update("a", "upsert", 1)
        with pytest.raises(TypeError, match="FairnessConstraint"):
            gw.submit("a", constraint={"k": 5})

    def test_errors_propagate_to_every_coalesced_future(self):
        from repro.fairness.constraints import FairnessConstraint

        reg, gw = self.make()
        # Lower bounds exceeding k are structurally infeasible.
        bad = FairnessConstraint(lower=[3, 3], upper=[3, 3], k=4)
        futures = [gw.submit("a", constraint=bad) for _ in range(3)]
        gw.drain()
        for f in futures:
            with pytest.raises(ValueError):
                f.result(timeout=0)
        assert reg.metrics.snapshot()["totals"]["errors"] == 3

    def test_concurrent_submits_match_direct_queries(self):
        reg, gw = self.make()
        ks = [4, 5, 6, 4, 5, 6, 4, 4]
        with gw:
            with ThreadPoolExecutor(max_workers=4) as clients:
                futures = list(
                    clients.map(
                        lambda nk: gw.submit(nk[0], nk[1]),
                        [("a", k) for k in ks] + [("b", k) for k in ks],
                    )
                )
            results = [f.result(timeout=60) for f in futures]
        for (name, k), r in zip(
            [("a", k) for k in ks] + [("b", k) for k in ks], results
        ):
            assert_same_solution(r, reg.get(name).query(k))
        assert reg.metrics.snapshot()["totals"]["fence_violations"] == 0

    def test_write_read_ordering_matches_serial_replay(self):
        data = tenant(seed=38, name="live")
        reg = DatasetRegistry()
        reg.register("live", data, live=True, default_seed=7)
        gw = Gateway(reg)
        point = np.array([0.95, 0.9])
        f1 = gw.submit("live", 4)
        f2 = gw.submit_update("live", "insert", 10_001, point, 1)
        f3 = gw.submit("live", 4)
        f4 = gw.submit_update("live", "delete", 10_001)
        f5 = gw.submit("live", 4)
        gw.drain()

        serial = LiveFairHMSIndex(data, default_seed=7)
        expect_pre = serial.query(4)
        serial.insert(10_001, point, 1)
        expect_mid = serial.query(4)
        serial.delete(10_001)
        expect_post = serial.query(4)

        assert_same_solution(f1.result(0), expect_pre)
        assert f2.result(0) is not None  # data version after the write
        assert_same_solution(f3.result(0), expect_mid)
        f4.result(0)
        assert_same_solution(f5.result(0), expect_post)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["updates"] == 2
        assert totals["fence_violations"] == 0

    def test_rogue_writer_trips_the_fence(self):
        data = tenant(seed=39, name="live")
        reg = DatasetRegistry()
        reg.register("live", data, live=True, default_seed=7)
        index = reg.get("live")
        gw = Gateway(reg)
        original = index.query

        def query_and_mutate(*args, **kwargs):
            solution = original(*args, **kwargs)
            # A write landing mid-batch around the gateway: the RLock is
            # reentrant, so this models an undisciplined same-process
            # caller rather than a blocked concurrent one.
            index.insert(50_000 + index.version, np.array([0.5, 0.5]), 0)
            return solution

        index.query = query_and_mutate
        try:
            f = gw.submit("live", 4)
            gw.drain()
            f.result(timeout=0)
        finally:
            index.query = original
        assert reg.metrics.snapshot()["totals"]["fence_violations"] == 1

    def test_unregister_with_queued_requests_fails_futures_not_hangs(self):
        reg, gw = self.make()
        futures = [gw.submit("a", 4) for _ in range(3)]
        reg.unregister("a")
        gw.drain()
        for f in futures:
            with pytest.raises(KeyError):
                f.result(timeout=0)
        # The name is not wedged: re-register and serve again.
        reg.register("a", tenant(seed=36, name="a"))
        again = gw.submit("a", 4)
        gw.drain()
        assert_same_solution(again.result(timeout=0), reg.get("a").query(4))

    def test_stop_drains_pending_requests(self):
        reg, gw = self.make()
        gw.start()
        futures = [gw.submit("a", 4) for _ in range(4)]
        gw.stop()
        for f in futures:
            assert_same_solution(f.result(timeout=0), reg.get("a").query(4))

    def test_submit_during_stop_never_strands_futures(self):
        # Stress the stop()/submit() race: producers keep submitting
        # while stop() runs.  Every accepted future must resolve — a
        # submit that finds the pool shut down (or already detached)
        # drains its dataset on its own thread, and each pool drainer
        # empties its mailbox before the pool exits.
        import threading

        for _ in range(5):
            reg, gw = self.make()
            gw.start()
            results: list[list] = [[] for _ in range(3)]

            def producer(bucket):
                for i in range(10):
                    k = 4 + (i % 2)
                    bucket.append((k, gw.submit("a", k)))

            threads = [
                threading.Thread(target=producer, args=(results[i],))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            gw.stop()
            for t in threads:
                t.join()
            gw.drain()  # anything enqueued after stop() returned
            for bucket in results:
                assert len(bucket) == 10
                for k, f in bucket:
                    assert_same_solution(f.result(timeout=10), reg.get("a").query(k))

    def test_cross_dataset_parallelism_is_safe(self):
        # Hammer two datasets from many threads through the started
        # gateway; every answer must equal the direct solve.
        reg, gw = self.make(max_workers=4)
        with gw:
            futures = []
            for i in range(30):
                futures.append(gw.submit("a" if i % 2 else "b", 4 + (i % 3)))
            results = [f.result(timeout=60) for f in futures]
        for i, r in enumerate(results):
            name = "a" if i % 2 else "b"
            assert_same_solution(r, reg.get(name).query(4 + (i % 3)))

    def test_multi_k_burst_solves_in_ascending_k(self):
        # ks 8, 4, 6 and a duplicate 6 in one run: three solves, in
        # ascending k so each starts from the last optimum, every answer
        # == a cold solve on a fresh index.
        reg, gw = self.make()
        index, solved = reg.get("a"), []
        query = index.query

        def recording_query(k=None, **kwargs):
            solved.append(k)
            return query(k, **kwargs)

        index.query = recording_query
        futures = {k: gw.submit("a", k) for k in (8, 4, 6)}
        dup = gw.submit("a", 6)
        gw.drain()
        assert solved == [4, 6, 8]
        data = tenant(seed=36, name="a")
        for k, f in futures.items():
            assert_same_solution(f.result(timeout=0), FairHMSIndex(data).query(k))
        assert dup.result(timeout=0) is futures[6].result(timeout=0)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["solves"] == 3
        assert totals["coalesced"] == 1

    def test_backlog_queued_during_a_solve_is_the_next_run(self):
        # No clock: whatever queues while a dataset's run executes is its
        # next run.  Hold the first solve open, queue a burst behind it,
        # release: the burst is one run, its duplicates coalesced and
        # its repeat of the held key answered from the memo.
        import threading

        reg, gw = self.make()
        index = reg.get("a")
        original = index.query
        entered, release = threading.Event(), threading.Event()

        def held_query(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                if not release.wait(timeout=60):
                    raise TimeoutError("the test never released the solve")
            return original(*args, **kwargs)

        index.query = held_query
        try:
            with gw:
                first = gw.submit("a", 4)
                assert entered.wait(timeout=60)
                burst = [gw.submit("a", 6) for _ in range(5)]
                repeat = gw.submit("a", 4)
                release.set()
                results = [f.result(timeout=60) for f in [first, *burst, repeat]]
        finally:
            release.set()
            index.query = original
        data = tenant(seed=36, name="a")
        assert_same_solution(results[0], FairHMSIndex(data).query(4))
        for r in results[1:6]:
            assert r is results[1]  # one solve fanned out to the burst
            assert_same_solution(r, FairHMSIndex(data).query(6))
        assert results[6] is results[0]
        snap = reg.metrics.snapshot()
        assert (snap["batches"], snap["batched_requests"]) == (2, 7)
        assert snap["totals"]["solves"] == 2  # the repeat is no solve
        assert snap["totals"]["coalesced"] == 4
        assert index.cache_info()["result_hits"] == 1

    def test_concurrent_producers_drain_every_op_exactly_once(self):
        # More producers than cores and a tiny switch interval: each op
        # is drained once, by whichever thread owns its dataset's
        # mailbox — none is stranded, none runs twice.
        import sys
        import threading

        reg, gw = self.make(max_workers=4)
        direct = {(name, k): reg.get(name).query(k) for name in "ab" for k in (4, 5, 6)}
        buckets: list[list] = [[] for _ in range(6)]

        def producer(i):
            for j in range(40):
                name, k = "ab"[(i + j) % 2], 4 + j % 3
                buckets[i].append((name, k, gw.submit(name, k)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with gw:
                threads = [
                    threading.Thread(target=producer, args=(i,)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for bucket in buckets:
                    for name, k, f in bucket:
                        assert f.result(timeout=60) is direct[name, k]
        finally:
            sys.setswitchinterval(interval)
        snap = reg.metrics.snapshot()
        assert snap["batched_requests"] == snap["totals"]["requests"] == 240

    def test_memo_hits_are_not_counted_as_solves(self):
        # One stream replayed twice through one drained gateway: the
        # second pass is all memo hits.  Solves, solve latency and
        # planner feedback count solver runs only.
        datasets = build_tenant_datasets(350)
        reg = DatasetRegistry()
        for name, data in datasets.items():
            reg.register(name, data, default_seed=7)
        gw = Gateway(reg)
        stream = build_tenant_workload(datasets, num_requests=24, seed=3)
        observed = reg.planner.stats()["observations"]
        for _ in range(2):
            futures = [
                gw.submit(
                    r.dataset,
                    r.query.k,
                    eps=r.query.eps,
                    algorithm=r.query.algorithm,
                    alpha=r.query.alpha,
                )
                for r in stream
            ]
            gw.drain()
            for f in futures:
                f.result(timeout=0)
        misses = {
            name: reg.get(name).cache_info()["result_misses"] for name in datasets
        }
        snap = reg.metrics.snapshot()
        assert snap["totals"]["solves"] == sum(misses.values()) == 9
        for name, block in snap["datasets"].items():
            assert block["solve_latency"]["count"] == misses[name]
        assert reg.planner.stats()["observations"] - observed == 9


class TestMetrics:
    def test_histogram_quantiles_and_snapshot(self):
        hist = LatencyHistogram()
        assert hist.snapshot() == {"count": 0, "total_s": 0.0}
        for ms in [1, 1, 2, 4, 50]:
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["min_s"] == pytest.approx(0.001)
        assert snap["max_s"] == pytest.approx(0.05)
        assert snap["p50_s"] >= 0.001
        assert snap["p99_s"] >= snap["p50_s"]
        assert hist.quantile(0.0) <= hist.quantile(1.0)

    def test_overflow_bucket_reports_observed_max(self):
        # Regression: samples beyond the last bucket edge (~67s) used to
        # report that edge as every quantile, understating a 100s (or
        # 10000s) outlier by an unbounded amount.
        hist = LatencyHistogram()
        hist.observe(100.0)
        assert hist.quantile(0.5) == 100.0
        assert hist.quantile(1.0) == 100.0
        hist.observe(0.001)
        assert hist.quantile(1.0) == 100.0  # p100 is the slow sample
        assert hist.quantile(0.0) < 1.0  # p0 is the fast one

    def test_zero_quantile_skips_empty_leading_buckets(self):
        # Regression: q=0.0 used to return the *first* bucket's edge
        # (1 microsecond) even when every sample sat far above it.
        hist = LatencyHistogram()
        hist.observe(0.5)
        assert hist.quantile(0.0) == 0.5  # capped at the observed max
        hist.observe(2.0)
        q0 = hist.quantile(0.0)
        assert 0.25 <= q0 <= 0.53  # the 0.5s sample's bucket, not 1e-6

    def test_quantiles_never_exceed_observed_max(self):
        hist = LatencyHistogram()
        for v in (0.003, 0.005, 0.009):
            hist.observe(v)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) <= hist.max

    def test_service_metrics_totals_aggregate(self):
        metrics = ServiceMetrics()
        metrics.incr("a", "solves")
        metrics.incr("b", "solves", 2)
        metrics.incr("b", "coalesced", 3)
        metrics.observe_request("a", 0.01)
        metrics.observe_solve("a", 0.005)
        metrics.record_batch(4)
        snap = metrics.snapshot()
        assert snap["totals"]["solves"] == 3
        assert snap["totals"]["coalesced"] == 3
        assert snap["datasets"]["a"]["request_latency"]["count"] == 1
        assert snap["batches"] == 1
        assert snap["batched_requests"] == 4

    def test_shed_counter_exists_and_aggregates(self):
        metrics = ServiceMetrics()
        metrics.incr("a", "shed")
        metrics.incr("b", "shed", 2)
        snap = metrics.snapshot()
        assert snap["datasets"]["a"]["shed"] == 1
        assert snap["totals"]["shed"] == 3

    def test_concurrent_recording_is_consistent(self):
        """Regression: no lost increments and no torn histogram reads.

        Writer threads hammer counters and both histograms while a
        reader snapshots continuously.  Every snapshot must be
        internally consistent — a histogram's mean derivable from its
        own count/total, quantiles ordered and bounded by min/max —
        and the final state must account for every recorded sample.
        """
        metrics = ServiceMetrics()
        writers, per_writer = 8, 400
        start = ThreadPoolExecutor(max_workers=writers + 1)
        stop = []

        def write(w):
            name = f"d{w % 2}"
            for i in range(per_writer):
                metrics.incr(name, "solves")
                metrics.incr(name, "shed", 2)
                metrics.observe_request(name, 0.001 * (i % 7 + 1))
                metrics.observe_solve(name, 0.002)
                metrics.record_batch(1)

        def read():
            torn = []
            while not stop:
                snap = metrics.snapshot()
                for block in snap["datasets"].values():
                    for key in ("request_latency", "solve_latency"):
                        hist = block[key]
                        if hist["count"] == 0:
                            continue
                        mean = hist["total_s"] / hist["count"]
                        if abs(mean - hist["mean_s"]) > 1e-6:
                            torn.append(("mean", hist))
                        if not (
                            hist["min_s"]
                            <= hist["p50_s"]
                            <= hist["p90_s"]
                            <= hist["p99_s"]
                            <= hist["max_s"] + 1e-12
                        ):
                            torn.append(("quantiles", hist))
            return torn

        reader = start.submit(read)
        jobs = [start.submit(write, w) for w in range(writers)]
        for j in jobs:
            j.result(timeout=120)
        stop.append(True)
        assert reader.result(timeout=120) == []
        start.shutdown(wait=True)

        snap = metrics.snapshot()
        total = writers * per_writer
        assert snap["totals"]["solves"] == total
        assert snap["totals"]["shed"] == 2 * total
        assert snap["batches"] == total
        assert snap["batched_requests"] == total
        counts = sum(
            block["request_latency"]["count"]
            for block in snap["datasets"].values()
        )
        assert counts == total

    def test_standalone_histogram_concurrent_observe(self):
        """A bare LatencyHistogram (no ServiceMetrics owner) is safe too."""
        hist = LatencyHistogram()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda w: [hist.observe(0.001 * (i % 5 + 1)) for i in range(500)],
                    range(4),
                )
            )
        snap = hist.snapshot()
        assert snap["count"] == 2000
        assert snap["total_s"] == pytest.approx(
            sum(0.001 * (i % 5 + 1) for i in range(500)) * 4
        )


class TestTenantWorkload:
    def test_stream_is_reproducible_and_skewed(self):
        names = ["t0", "t1", "t2"]
        a = build_tenant_workload(names, num_requests=60, seed=9)
        b = build_tenant_workload(names, num_requests=60, seed=9)
        assert [(r.dataset, r.query.k) for r in a] == [
            (r.dataset, r.query.k) for r in b
        ]
        counts = {n: sum(r.dataset == n for r in a) for n in names}
        assert counts["t0"] >= counts["t2"]  # Zipf-ish skew

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one dataset"):
            build_tenant_workload([])
        with pytest.raises(ValueError, match="positive size"):
            build_tenant_workload(["a"], ks=())
        with pytest.raises(ValueError, match="hot_frac"):
            build_tenant_workload(["a"], hot_frac=1.5)

    def test_naive_solve_matches_index(self):
        data = tenant(seed=40)
        index = FairHMSIndex(data, default_seed=7)
        q = Query(k=5)
        assert_same_solution(naive_solve(data, q, default_seed=7), index.query(5))

    def test_run_service_benchmark_tiny(self):
        datasets = {
            f"t{i}": tenant(n=160, seed=41 + i, name=f"t{i}") for i in range(2)
        }
        report = run_service_benchmark(
            datasets, num_requests=12, ks=(3, 4), seed=2
        )
        assert report.identical, report.mismatches
        assert report.num_requests == 12
        assert report.solves + report.coalesced + report.result_hits >= 12
        assert report.coalesced > 0
        assert report.speedup > 0
        assert report.throughput > 0
        assert report.metrics["totals"]["requests"] == 12


class TestBenchIO:
    def test_write_bench_json_roundtrip(self, tmp_path):
        import json

        from repro.benchio import write_bench_json

        path = write_bench_json(
            "unit",
            {
                "speedup": np.float64(2.5),
                "counts": np.array([1, 2, 3]),
                "flag": np.bool_(True),
                "nested": {"n": np.int64(7)},
            },
            directory=tmp_path,
        )
        assert path == tmp_path / "BENCH_unit.json"
        record = json.loads(path.read_text())
        assert record["bench"] == "unit"
        assert record["speedup"] == 2.5
        assert record["counts"] == [1, 2, 3]
        assert record["flag"] is True
        assert record["nested"]["n"] == 7
        assert "timestamp" in record
