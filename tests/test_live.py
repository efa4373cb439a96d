"""Live serving: LiveFairHMSIndex, epochs, invariants.

Property-based/randomized invariants (seeded, derandomized):

* after any random insert/delete sequence, the live index's maintained
  skyline equals the batch per-group skyline of the surviving points;
* warm query results are bit-identical to a cold ``solve_fairhms`` on
  the current dataset (and to a freshly built static index);
* ``mhr_tau`` marginal gains are monotone non-increasing along greedy
  prefixes (submodularity of the truncated objective).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intcov import intcov
from repro.core.solve import solve_fairhms
from repro.data.synthetic import anticorrelated_dataset
from repro.fairness.constraints import FairnessConstraint
from repro.geometry.deltanet import sample_directions
from repro.geometry.dominance import skyline_indices
from repro.hms.truncated import TruncatedEngine
from repro.serving import FairHMSIndex, LiveFairHMSIndex
from repro.serving.workload import build_mixed_workload, run_mixed_workload


def random_updates(live, rng, steps, *, dim, num_groups, next_key, alive):
    """Apply a random insert/delete sequence; mirrors it in ``alive``."""
    for _ in range(steps):
        if alive and rng.random() < 0.45:
            key = int(rng.choice(sorted(alive)))
            live.delete(key)
            del alive[key]
        else:
            point = rng.random(dim) * 0.9 + 0.05
            group = int(rng.integers(0, num_groups))
            live.insert(next_key, point, group)
            alive[next_key] = (point, group)
            next_key += 1
    return next_key


def expected_skyline_keys(alive, num_groups):
    """Batch per-group skyline of the surviving points, as key sets."""
    expected = set()
    for c in range(num_groups):
        members = [(k, p) for k, (p, g) in alive.items() if g == c]
        if not members:
            continue
        pts = np.asarray([p for _, p in members])
        expected |= {members[i][0] for i in skyline_indices(pts)}
    return expected


class TestLiveSkylineInvariant:
    """Maintained skyline == batch skyline of the survivors, always."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_sequences(self, seed, dim):
        rng = np.random.default_rng(seed)
        live = LiveFairHMSIndex(dim=dim, num_groups=2, normalize=False)
        alive = {}
        next_key = 0
        for _ in range(6):
            next_key = random_updates(
                live, rng, 30, dim=dim, num_groups=2, next_key=next_key,
                alive=alive,
            )
            assert set(live.skyline_keys()) == expected_skyline_keys(alive, 2)

    def test_skyline_dataset_matches_static_pipeline(self):
        data = anticorrelated_dataset(120, 2, 3, seed=9)
        live = LiveFairHMSIndex(data)
        rng = np.random.default_rng(4)
        for i in range(40):
            live.insert(10_000 + i, rng.random(2), int(rng.integers(0, 3)))
            if i % 2:
                live.delete(int(rng.choice(live.skyline_keys())))
        sky = live.skyline
        rebuilt = live.dataset.skyline(per_group=True)
        np.testing.assert_array_equal(sky.ids, rebuilt.ids)
        np.testing.assert_array_equal(sky.labels, rebuilt.labels)
        np.testing.assert_array_equal(sky.points, rebuilt.points)
        assert (
            sky.meta["population_group_sizes"]
            == rebuilt.meta["population_group_sizes"]
        )


class TestBitIdentity:
    """Warm live answers == cold solves on the current data, bit for bit."""

    @pytest.mark.parametrize("dim,algorithm", [(2, "auto"), (3, "BiGreedy+")])
    def test_interleaved_updates_and_queries(self, dim, algorithm):
        data = anticorrelated_dataset(150, dim, 2, seed=5)
        live = LiveFairHMSIndex(data, default_seed=11)
        rng = np.random.default_rng(6)
        alive = {
            int(k): (p, int(g))
            for k, p, g in zip(data.ids, live.dataset.points, data.labels)
        }
        next_key = 10_000
        for _ in range(5):
            next_key = random_updates(
                live, rng, 12, dim=dim, num_groups=2, next_key=next_key,
                alive=alive,
            )
            for k in (3, 5):
                warm = live.query(k, algorithm=algorithm)
                constraint = live.constraint_for(k)
                kwargs = {} if dim == 2 else {"seed": 11, "epsilon": 0.02}
                cold = solve_fairhms(
                    live.skyline, constraint, algorithm=algorithm, **kwargs
                )
                np.testing.assert_array_equal(warm.indices, cold.indices)
                np.testing.assert_array_equal(warm.ids, cold.ids)
                assert warm.mhr_estimate == cold.mhr_estimate

    def test_matches_fresh_static_index(self):
        data = anticorrelated_dataset(200, 2, 3, seed=7)
        live = LiveFairHMSIndex(data, default_seed=7)
        rng = np.random.default_rng(8)
        for i in range(25):
            live.insert(10_000 + i, rng.random(2), int(rng.integers(0, 3)))
        live.delete(int(live.query(4).ids[0]))
        for k in (4, 6):
            warm = live.query(k)
            cold = FairHMSIndex(
                live.dataset, normalize=False, default_seed=7
            ).query(k)
            np.testing.assert_array_equal(warm.ids, cold.ids)
            assert warm.mhr_estimate == cold.mhr_estimate
            assert warm.stats["tau"] == cold.stats["tau"]


@st.composite
def greedy_instance(draw):
    n = draw(st.integers(6, 24))
    d = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    tau = draw(st.sampled_from([0.6, 0.85, 1.0]))
    return n, d, seed, tau


class TestSubmodularityAlongGreedy:
    """mhr_tau marginal gains never increase along a greedy prefix."""

    @given(greedy_instance())
    @settings(max_examples=25)
    def test_chosen_gains_non_increasing(self, inst):
        n, d, seed, tau = inst
        rng = np.random.default_rng(seed)
        points = rng.random((n, d)) + 0.01
        net = sample_directions(8 * d, d, rng)
        engine = TruncatedEngine(points, net)
        state = engine.new_state(tau)
        chosen_gains = []
        candidates = np.arange(n)
        for _ in range(min(n, 8)):
            gains = engine.gains(state, candidates)
            best = int(np.argmax(gains))
            chosen_gains.append(float(gains[best]))
            engine.add(state, int(candidates[best]))
            candidates = np.delete(candidates, best)
        diffs = np.diff(chosen_gains)
        assert (diffs <= 1e-9).all(), chosen_gains

    @given(greedy_instance())
    @settings(max_examples=25)
    def test_fixed_candidate_gain_non_increasing(self, inst):
        n, d, seed, tau = inst
        rng = np.random.default_rng(seed)
        points = rng.random((n, d)) + 0.01
        net = sample_directions(8 * d, d, rng)
        engine = TruncatedEngine(points, net)
        state = engine.new_state(tau)
        watched = 0
        previous = engine.gain_of(state, watched)
        for idx in range(1, min(n, 9)):
            engine.add(state, idx)
            current = engine.gain_of(state, watched)
            assert current <= previous + 1e-9
            previous = current


def reachable_arrays(root):
    """Every numpy array reachable from ``root`` through repro objects."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


class TestGeometryFootprint:
    def test_live_2d_index_holds_no_pair_matrix(self):
        data = anticorrelated_dataset(400, 2, 2, seed=14).normalized()
        live = LiveFairHMSIndex(data)
        alive = {
            int(k): (p, int(g))
            for k, p, g in zip(data.ids, data.points, data.labels)
        }
        rng = np.random.default_rng(15)
        next_key = 10_000
        for _ in range(4):
            next_key = random_updates(
                live, rng, 20, dim=2, num_groups=2, next_key=next_key,
                alive=alive,
            )
            live.query(3)
            live.query(5)
        assert live.cache_info()["ladder_cached"]
        arrays = reachable_arrays(live)
        assert arrays
        # Points and envelope pieces are (rows, 2); nothing is n x n.
        assert all(a.ndim < 2 or min(a.shape) <= 2 for a in arrays)
        assert max(a.size for a in arrays) < 16 * len(live)


class TestTauHint:
    def test_hint_verified_in_two_evaluations(self, small2d):
        index = FairHMSIndex(small2d)
        first = index.query(4)
        assert first.stats["decision_evaluations"] > 2
        index.clear_result_cache()  # hints survive; memo does not
        second = index.query(4)
        assert second.stats["decision_evaluations"] == 2
        np.testing.assert_array_equal(first.indices, second.indices)
        assert first.stats["tau"] == second.stats["tau"]

    def test_wrong_hint_falls_back_to_identical_answer(self, small2d):
        sky = small2d.skyline()
        constraint = FairnessConstraint.proportional(
            4, sky.population_group_sizes, alpha=0.1
        ).capped_by_availability(sky.group_sizes)
        plain = intcov(sky, constraint)
        for hint in (0.0, 0.5, 1.0, plain.stats["tau"] + 1e-9):
            hinted = intcov(sky, constraint, tau_hint=hint)
            np.testing.assert_array_equal(hinted.indices, plain.indices)
            assert hinted.stats["tau"] == plain.stats["tau"]


class TestEpochsAndInvalidation:
    def test_dominated_insert_keeps_caches_warm(self, small3d):
        live = LiveFairHMSIndex(small3d)
        live.query(4, algorithm="BiGreedy", seed=5)
        art = live.artifacts
        engine_key = next(iter(art._engines))
        engine = art._engines[engine_key]
        epoch = live.epoch
        live.insert(90_000, np.full(small3d.dim, 1e-4), 0)  # dominated
        live.query(4, algorithm="BiGreedy", seed=5)
        assert live.epoch == epoch + 1
        assert live.artifacts is art
        assert art._engines[engine_key] is engine  # no rebuild
        assert art.dirty_components() == ()

    def test_skyline_change_rebuilds_engines_keeps_nets(self, small3d):
        live = LiveFairHMSIndex(small3d)
        live.query(4, algorithm="BiGreedy", seed=5)
        art = live.artifacts
        engine_key = next(iter(art._engines))
        engine = art._engines[engine_key]
        net = art._nets[engine_key]
        live.insert(90_001, np.full(small3d.dim, 2.0), 1)  # new skyline point
        live.query(4, algorithm="BiGreedy", seed=5)
        assert art._engines[engine_key] is not engine  # rebuilt over new rows
        assert art._nets[engine_key] is net  # nets never data-dependent

    def test_memo_dropped_every_epoch(self, small3d):
        live = LiveFairHMSIndex(small3d)
        first = live.query(4, seed=5)
        assert live.query(4, seed=5) is first  # memo hit within the epoch
        live.insert(90_002, np.full(small3d.dim, 1e-4), 0)  # off-skyline
        second = live.query(4, seed=5)
        assert second is not first  # population counts moved: re-solved

    def test_updates_between_queries_share_one_epoch(self, small3d):
        live = LiveFairHMSIndex(small3d)
        live.query(4)
        epoch = live.epoch
        rng = np.random.default_rng(3)
        for i in range(5):
            live.insert(91_000 + i, rng.random(small3d.dim), 0)
        live.query(4)
        assert live.epoch == epoch + 1

    def test_empty_start_and_total_deletion(self):
        live = LiveFairHMSIndex(dim=2, num_groups=2, normalize=False)
        with pytest.raises(ValueError, match="no tuples alive"):
            live.query(2)
        with pytest.raises(ValueError, match="no tuples alive"):
            live.constraint_for(2)
        with pytest.raises(ValueError, match="no tuples alive"):
            live.dataset
        live.insert(0, [0.9, 0.2], 0)
        live.insert(1, [0.2, 0.9], 1)
        solution = live.query(2)
        assert solution.size == 2
        live.delete(0)
        live.delete(1)
        with pytest.raises(ValueError, match="no tuples alive"):
            live.query(2)
        live.insert(2, [0.5, 0.5], 0)
        live.insert(3, [0.4, 0.6], 1)
        assert live.query(2).size == 2

    def test_frozen_flag(self, small3d):
        assert FairHMSIndex(small3d).frozen is True
        assert LiveFairHMSIndex(small3d).frozen is False
        assert FairHMSIndex(small3d).epoch == 0
        assert LiveFairHMSIndex(small3d).epoch >= 1


class TestKeyReuse:
    """Deleting a key and re-inserting it with a different point must
    invalidate like any other skyline change (regression tests)."""

    def test_reused_key_new_point_2d(self):
        live = LiveFairHMSIndex(dim=2, num_groups=1, normalize=False)
        live.insert(1, [1.0, 0.1], 0)
        live.insert(2, [0.1, 1.0], 0)
        live.insert(3, [0.6, 0.6], 0)
        live.query(2)
        live.delete(2)
        live.insert(2, [0.3, 0.8], 0)  # same key set, different content
        warm = live.query(2)
        cold = solve_fairhms(live.dataset.skyline(), live.constraint_for(2))
        np.testing.assert_array_equal(warm.ids, cold.ids)
        assert warm.mhr_estimate == cold.mhr_estimate
        np.testing.assert_array_equal(
            live.skyline.points[live.skyline.ids.tolist().index(2)],
            [0.3, 0.8],
        )

    def test_reused_keys_random_sequence_2d(self):
        rng = np.random.default_rng(50)

        def anticor_point():
            # Points near the antidiagonal rarely dominate each other, so
            # group skylines stay populated and every query is feasible.
            x = rng.random()
            return np.array([x, 1.0 - x]) + rng.random(2) * 0.05

        live = LiveFairHMSIndex(dim=2, num_groups=2, normalize=False)
        for key in range(12):
            live.insert(key, anticor_point(), key % 2)
        for _ in range(30):
            key = int(rng.integers(0, 12))
            live.delete(key)
            live.insert(key, anticor_point(), key % 2)  # reuse, new point
            warm = live.query(3)
            cold = FairHMSIndex(live.dataset, normalize=False).query(3)
            np.testing.assert_array_equal(warm.ids, cold.ids)
            assert warm.mhr_estimate == cold.mhr_estimate

    def test_reused_key_3d_engine_path(self, small3d):
        live = LiveFairHMSIndex(small3d)
        first = live.query(4, algorithm="BiGreedy", seed=5)
        victim = int(first.ids[0])
        group = live._dyn.group_of(victim)
        live.delete(victim)
        live.insert(victim, np.full(small3d.dim, 0.9), group)
        warm = live.query(4, algorithm="BiGreedy", seed=5)
        cold = FairHMSIndex(live.dataset, normalize=False).query(
            4, algorithm="BiGreedy", seed=5
        )
        np.testing.assert_array_equal(warm.ids, cold.ids)
        assert warm.mhr_estimate == cold.mhr_estimate


class TestBulkInsertAtomicity:
    def test_duplicate_key_leaves_store_untouched(self):
        from repro.extensions.dynamic import DynamicFairHMS

        dyn = DynamicFairHMS(2, 1)
        dyn.insert(3, [0.5, 0.5], 0)
        version = dyn.version
        with pytest.raises(KeyError, match="already present"):
            dyn.bulk_insert([1, 3], [[0.4, 0.4], [0.6, 0.6]], [0, 0])
        assert len(dyn) == 1
        assert 1 not in dyn
        assert dyn.version == version

    def test_duplicate_within_batch_rejected(self):
        from repro.extensions.dynamic import DynamicFairHMS

        dyn = DynamicFairHMS(2, 1)
        with pytest.raises(KeyError, match="already present"):
            dyn.bulk_insert([5, 5], [[0.4, 0.4], [0.6, 0.6]], [0, 0])
        assert len(dyn) == 0


class TestAvailabilityMidStream:
    """A group draining below its floor must fail identically cold and live."""

    def build(self):
        rng = np.random.default_rng(20)
        pts = rng.random((40, 2)) * 0.5 + 0.25
        live = LiveFairHMSIndex(dim=2, num_groups=2, normalize=False)
        for i in range(40):
            live.insert(i, pts[i], i % 2)
        return live

    def test_capped_constraint_tracks_draining_group(self):
        live = self.build()
        base = FairnessConstraint(lower=[2, 2], upper=[4, 4], k=6)
        capped = base.capped_by_availability(live.group_sizes())
        np.testing.assert_array_equal(capped.lower, [2, 2])
        for key in range(1, 36, 2):  # drain group 1 down to 2 tuples
            live.delete(key)
        capped = base.capped_by_availability(live.group_sizes())
        np.testing.assert_array_equal(capped.lower, [2, 2])
        live.delete(37)  # availability 1 < floor 2: the cap must drop
        capped = base.capped_by_availability(live.group_sizes())
        np.testing.assert_array_equal(capped.lower, [2, 1])
        assert not base.is_feasible_for(live.group_sizes())

    def test_infeasible_raises_same_error_cold_and_live(self):
        live = self.build()
        constraint = FairnessConstraint(lower=[2, 2], upper=[4, 4], k=6)
        assert live.query(constraint=constraint).size == 6
        for key in range(1, 38, 2):  # leave group 1 a single tuple
            live.delete(key)
        with pytest.raises(ValueError) as live_err:
            live.query(constraint=constraint)
        with pytest.raises(ValueError) as cold_err:
            solve_fairhms(live.skyline, constraint)
        assert str(live_err.value) == str(cold_err.value)
        assert "infeasible" in str(live_err.value)


class TestStreamingFrontEnd:
    def test_observed_champions_enter_evicted_leave(self):
        live = LiveFairHMSIndex(
            dim=2, num_groups=2, normalize=False,
            stream_buffer_per_group=4, stream_slack=0.3,
        )
        rng = np.random.default_rng(30)
        keys = np.arange(100)
        points = rng.random((100, 2)) * 0.8 + 0.1
        groups = keys % 2
        admitted = live.observe_stream(keys, points, groups)
        assert 0 < admitted <= 100
        assert len(live) <= 8  # bounded by the sieve buffers
        assert set(live._streamed) == set(live._stream.buffered_keys())
        solution = live.query(2)
        assert solution.size == 2
        cold = FairHMSIndex(live.dataset, normalize=False).query(2)
        np.testing.assert_array_equal(solution.ids, cold.ids)

    def test_single_observation_form(self):
        live = LiveFairHMSIndex(dim=2, num_groups=1, normalize=False)
        assert live.observe_stream(7, [0.9, 0.9], 0) == 1
        assert 7 in live
        assert live.query(1).ids.tolist() == [7]


class TestWorkloadDriver:
    def test_build_mixed_workload_shapes(self):
        data = anticorrelated_dataset(200, 2, 2, seed=40)
        initial, ops = build_mixed_workload(
            data, num_ops=50, write_frac=0.3, ks=(3, 4), seed=2
        )
        assert initial.n == 150
        kinds = [op.kind for op in ops]
        assert kinds.count("query") + kinds.count("insert") + kinds.count(
            "delete"
        ) == len(ops)
        inserted = {op.key for op in ops if op.kind == "insert"}
        assert inserted.isdisjoint(set(initial.ids.tolist()))
        deleted = [op.key for op in ops if op.kind == "delete"]
        assert len(deleted) == len(set(deleted))

    def test_initial_load_keeps_every_group(self):
        # A tiny group must not be dropped (and labels remapped) by the
        # initial cut: pool ops carry original group ids.
        rng = np.random.default_rng(44)
        points = rng.random((60, 2)) + 0.05
        labels = np.zeros(60, dtype=np.int64)
        labels[:3] = 2  # tiny group 2; groups 0/1 fill the rest
        labels[3:30] = 1
        from tests.conftest import make_dataset

        data = make_dataset(points, labels)
        initial, ops = build_mixed_workload(
            data, num_ops=40, write_frac=0.5, ks=(3,), initial_frac=0.1, seed=5
        )
        assert initial.num_groups == data.num_groups
        report = run_mixed_workload(
            data, num_ops=40, write_frac=0.5, ks=(3,), initial_frac=0.1, seed=5
        )
        assert report.identical

    def test_run_mixed_workload_tiny_identical(self):
        data = anticorrelated_dataset(120, 2, 2, seed=41)
        report = run_mixed_workload(
            data, num_ops=30, write_frac=0.3, ks=(3, 4), seed=3
        )
        assert report.identical
        assert report.num_ops == 30
        assert report.epochs >= 1

    def test_run_mixed_workload_6d_identical(self):
        data = anticorrelated_dataset(120, 6, 2, seed=42)
        report = run_mixed_workload(
            data, num_ops=20, write_frac=0.3, ks=(3, 4), seed=4
        )
        assert report.identical

    def test_write_frac_zero_is_pure_query_stream(self):
        data = anticorrelated_dataset(150, 2, 2, seed=43)
        _, ops = build_mixed_workload(
            data, num_ops=25, write_frac=0.0, ks=(3, 5), seed=6
        )
        assert len(ops) == 25
        assert all(op.kind == "query" for op in ops)
        # The k sweep cycles deterministically.
        assert [op.k for op in ops] == [(3, 5)[i % 2] for i in range(25)]
        report = run_mixed_workload(
            data, num_ops=25, write_frac=0.0, ks=(3, 5), seed=6
        )
        assert report.identical
        assert report.num_updates == 0
        assert report.num_queries == 25

    def test_write_frac_one_exhausted_pool_keeps_length(self):
        # n=40, initial_frac=0.9: a 4-tuple insert pool and delete floors
        # at max(ks)+2 per group cap total writes far below num_ops, so
        # the driver must degrade the surplus to queries instead of
        # silently emitting a short sequence.
        data = anticorrelated_dataset(40, 2, 2, seed=44)
        _, ops = build_mixed_workload(
            data, num_ops=80, write_frac=1.0, ks=(3,), initial_frac=0.9, seed=7
        )
        assert len(ops) == 80
        kinds = [op.kind for op in ops]
        assert kinds.count("insert") <= 4  # pool size bound
        assert kinds.count("query") > 0  # fallback engaged
        report = run_mixed_workload(
            data, num_ops=80, write_frac=1.0, ks=(3,), initial_frac=0.9, seed=7
        )
        assert report.identical
        assert report.num_ops == 80

    def test_write_frac_one_with_room_is_pure_writes(self):
        data = anticorrelated_dataset(200, 2, 2, seed=45)
        _, ops = build_mixed_workload(
            data, num_ops=15, write_frac=1.0, ks=(3,), seed=8
        )
        assert len(ops) == 15
        assert all(op.kind in ("insert", "delete") for op in ops)

    def test_empty_ks_rejected(self):
        data = anticorrelated_dataset(60, 2, 2, seed=46)
        with pytest.raises(ValueError, match="ks"):
            build_mixed_workload(data, num_ops=10, ks=())
        with pytest.raises(ValueError, match="ks"):
            build_mixed_workload(data, num_ops=10, ks=(0,))
