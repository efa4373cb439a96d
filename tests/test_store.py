"""Snapshot persistence: round trips, checksums, and the registry spill tier.

The load-bearing invariants:

* a reloaded index answers **bit-identically** (ids + exact MHR) to the
  index it was saved from AND to a cold build of the same data — for
  frozen indexes, live indexes with applied inserts/deletes, and
  registry-mediated spill/reload cycles;
* every warm artifact survives the round trip (nets, engine matrices,
  geometry, memoized results) — a reload never silently degrades to a
  cold index;
* corruption never serves: checksum mismatches, missing payloads, and
  foreign format versions raise ``SnapshotError`` instead of answering.
"""

import json
import threading

import numpy as np
import pytest

from repro.data.synthetic import anticorrelated_dataset
from repro.service import (
    DatasetRegistry,
    Gateway,
    SnapshotError,
    SnapshotStore,
    dataset_fingerprint,
    load_index,
    save_index,
)
from repro.serving import FairHMSIndex, LiveFairHMSIndex


def assert_same_answers(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    assert a.mhr() == b.mhr()


def sweep(index, ks=(4, 6, 8)):
    return [index.query(k) for k in ks]


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "snaps")


def frozen_index(n=300, d=2, groups=3, seed=30, **kwargs):
    data = anticorrelated_dataset(n, d, groups, seed=seed, name=f"t{seed}")
    return FairHMSIndex(data, default_seed=7, **kwargs), data


class TestFrozenRoundTrip:
    def test_reload_bit_identical_to_saved_and_cold(self, store):
        index, data = frozen_index()
        before = sweep(index)
        store.save_index("a", index)
        reloaded = store.load_index("a")
        after = sweep(reloaded)
        cold = sweep(FairHMSIndex(data, default_seed=7))
        for b, a, c in zip(before, after, cold):
            assert_same_answers(b, a)
            assert_same_answers(a, c)

    def test_reload_restores_warm_state(self, store):
        # 6-D so engines exist; queries before saving warm everything.
        index, _ = frozen_index(n=200, d=6, groups=2, seed=31)
        before = sweep(index)
        saved_info = index.cache_info()
        assert saved_info["engines_cached"] >= 1
        store.save_index("a", index)
        reloaded = store.load_index("a")
        info = reloaded.cache_info()
        assert info["engines_cached"] == saved_info["engines_cached"]
        assert info["nets_cached"] == saved_info["nets_cached"]
        # The memo came back: repeating the workload solves nothing.
        after = sweep(reloaded)
        info = reloaded.cache_info()
        assert info["result_hits"] == len(after)
        assert info["result_misses"] == 0
        for b, a in zip(before, after):
            assert_same_answers(b, a)

    def test_reload_restores_2d_geometry(self, store):
        index, _ = frozen_index(n=250, d=2, seed=32)
        sweep(index)
        assert index.cache_info()["envelope_cached"]
        store.save_index("a", index)
        reloaded = store.load_index("a")
        assert reloaded.cache_info()["envelope_cached"]
        saved, restored = index.artifacts.envelope(), reloaded.artifacts.envelope()
        np.testing.assert_array_equal(restored.breaks, saved.breaks)
        np.testing.assert_array_equal(restored.lines, saved.lines)
        manifest = store.manifest("a")
        assert manifest["format_version"] == 1
        assert manifest["artifacts"]["geometry"] is True
        with np.load(store.path_for("a") / manifest["arrays_file"]) as payload:
            stored = set(payload.files)
        assert {k for k in stored if not k.startswith(("dataset.", "skyline.", "memo."))} == {
            "envelope.breaks", "envelope.lines", "envelope.point_index"
        }

    def test_parent_format_snapshot_still_serves(self, store):
        # Earlier snapshots also stored IntCov's full candidate array
        # under "mhr_candidates"; they must load and answer unchanged.
        from repro.core.intcov import candidate_mhr_values
        from repro.service.store import _hash_arrays

        index, data = frozen_index(n=250, d=2, seed=37)
        before = sweep(index)
        path = store.save_index("a", index)
        manifest = store.manifest("a")
        with np.load(path / manifest["arrays_file"]) as payload:
            arrays = {key: payload[key] for key in payload.files}
        arrays["mhr_candidates"] = candidate_mhr_values(
            index.skyline.points, index.artifacts.envelope()
        )
        checksum = _hash_arrays(arrays)
        (path / manifest["arrays_file"]).unlink()
        manifest["arrays_file"] = f"arrays-{checksum[:12]}.npz"
        manifest["checksum"] = checksum
        manifest["artifacts"]["geometry"] = True
        with open(path / manifest["arrays_file"], "wb") as fh:
            np.savez(fh, **arrays)
        (path / "manifest.json").write_text(json.dumps(manifest))
        reloaded = store.load_index("a")
        assert reloaded.cache_info()["envelope_cached"]
        for b, a in zip(before, sweep(reloaded)):
            assert_same_answers(b, a)
        reloaded.clear_result_cache()  # re-solve over the restored envelope
        cold = sweep(FairHMSIndex(data, default_seed=7))
        for c, a in zip(cold, sweep(reloaded)):
            assert_same_answers(c, a)
            assert c.stats["tau"] == a.stats["tau"]

    def test_restored_solutions_carry_provenance(self, store):
        index, _ = frozen_index(seed=33)
        solution = index.query(5)
        store.save_index("a", index)
        restored = store.load_index("a").query(5)
        assert restored.algorithm == solution.algorithm
        assert restored.mhr_estimate == solution.mhr_estimate
        assert restored.constraint is not None
        np.testing.assert_array_equal(
            restored.constraint.lower, solution.constraint.lower
        )
        assert restored.violations() == solution.violations()

    def test_unwarmed_index_round_trips(self, store):
        # Nothing cached yet: the snapshot is just the datasets.
        index, data = frozen_index(seed=34)
        store.save_index("a", index)
        reloaded = store.load_index("a")
        for a, b in zip(sweep(reloaded), sweep(FairHMSIndex(data, default_seed=7))):
            assert_same_answers(a, b)

    def test_skyline_meta_survives(self, store):
        index, data = frozen_index(seed=35)
        store.save_index("a", index)
        reloaded = store.load_index("a")
        assert (
            reloaded.skyline.meta["population_group_sizes"]
            == index.skyline.meta["population_group_sizes"]
        )
        assert reloaded.skyline.group_names == index.skyline.group_names

    def test_serving_config_survives(self, store):
        data = anticorrelated_dataset(150, 2, 2, seed=36)
        index = FairHMSIndex(data, default_seed=11, max_cached_results=17)
        store.save_index("a", index)
        assert store.load_index("a").serving_config() == {
            "default_seed": 11,
            "cache_results": True,
            "max_cached_results": 17,
        }


class TestLiveRoundTrip:
    def test_applied_writes_survive_the_spill(self, store):
        data = anticorrelated_dataset(250, 2, 3, seed=40, name="live")
        live = LiveFairHMSIndex(data, default_seed=7)
        live.insert(90_001, np.array([0.99, 0.97]), 0)
        live.insert(90_002, np.array([0.97, 0.99]), 1)
        live.delete(int(data.ids[0]))
        before = sweep(live)
        store.save_index("lv", live)
        reloaded = store.load_index("lv")
        assert isinstance(reloaded, LiveFairHMSIndex)
        assert 90_001 in reloaded and int(data.ids[0]) not in reloaded
        for b, a in zip(before, sweep(reloaded)):
            assert_same_answers(b, a)

    def test_reload_matches_cold_build_of_alive_set(self, store):
        data = anticorrelated_dataset(200, 3, 2, seed=41, name="live")
        live = LiveFairHMSIndex(data, default_seed=7)
        rng = np.random.default_rng(5)
        for i in range(15):
            live.insert(10_000 + i, rng.random(3) * 0.8 + 0.1, i % 2)
        for key in data.ids[:5].tolist():
            live.delete(int(key))
        store.save_index("lv", live)
        reloaded = store.load_index("lv")
        cold = LiveFairHMSIndex.from_live_state(**live.live_state())
        for a, b in zip(sweep(reloaded), sweep(cold)):
            assert_same_answers(a, b)

    def test_version_and_epoch_resume(self, store):
        data = anticorrelated_dataset(150, 2, 2, seed=42, name="live")
        live = LiveFairHMSIndex(data, default_seed=7)
        live.insert(90_001, np.array([0.5, 0.6]), 0)
        live.query(4)  # applies the update: epoch advances
        store.save_index("lv", live)
        reloaded = store.load_index("lv")
        assert reloaded.version == live.version
        assert reloaded.epoch == live.epoch

    def test_mutations_continue_after_reload(self, store):
        data = anticorrelated_dataset(180, 2, 3, seed=43, name="live")
        live = LiveFairHMSIndex(data, default_seed=7)
        live.insert(90_001, np.array([0.9, 0.8]), 0)
        store.save_index("lv", live)
        reloaded = store.load_index("lv")
        for ix in (live, reloaded):
            ix.insert(90_002, np.array([0.8, 0.95]), 2)
            ix.delete(90_001)
        for a, b in zip(sweep(live), sweep(reloaded)):
            assert_same_answers(a, b)


class TestIntegrity:
    def test_missing_snapshot_raises(self, store):
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.load_index("ghost")
        with pytest.raises(SnapshotError):
            store.manifest("ghost")
        assert "ghost" not in store

    def test_corrupt_arrays_detected(self, store):
        index, _ = frozen_index(seed=50)
        path = store.save_index("a", index)
        arrays = next(path.glob("arrays-*.npz"))
        arrays.write_bytes(arrays.read_bytes()[: arrays.stat().st_size // 2])
        with pytest.raises(SnapshotError):
            store.load_index("a")

    def test_checksum_mismatch_detected(self, store):
        index, _ = frozen_index(seed=51)
        path = store.save_index("a", index)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["checksum"] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="checksum"):
            store.load_index("a")
        # ...but the caller can opt out (e.g. forensics).
        reloaded = store.load_index("a", verify=False)
        assert reloaded.dataset.n == index.dataset.n

    def test_foreign_format_version_refused(self, store):
        index, _ = frozen_index(seed=52)
        path = store.save_index("a", index)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            store.load_index("a")

    def test_remove_and_names(self, store):
        index, _ = frozen_index(seed=53)
        store.save_index("a/b c", index)  # names are encoded, any string works
        assert store.names() == ("a/b c",)
        assert store.size_bytes("a/b c") > 0
        assert store.remove("a/b c")
        assert store.names() == ()
        assert not store.remove("a/b c")

    def test_fingerprint_identifies_data(self, store):
        _, data_a = frozen_index(seed=54)
        _, data_b = frozen_index(seed=55)
        assert dataset_fingerprint(data_a) == dataset_fingerprint(data_a)
        assert dataset_fingerprint(data_a) != dataset_fingerprint(data_b)

    def test_module_level_helpers(self, tmp_path):
        index, data = frozen_index(seed=56)
        save_index(tmp_path, "x", index)
        reloaded = load_index(tmp_path, "x")
        for a, b in zip(sweep(index), sweep(reloaded)):
            assert_same_answers(a, b)

    def test_overwrite_replaces_previous_snapshot(self, store):
        index, _ = frozen_index(seed=57)
        path = store.save_index("a", index)
        first = store.manifest("a")["checksum"]
        index.query(9)  # new memo entry -> different content
        store.save_index("a", index)
        manifest = store.manifest("a")
        assert manifest["checksum"] != first
        assert store.load_index("a").cache_info()["results_cached"] >= 1
        # The payload is content-addressed and the manifest is the only
        # commit point: after the overwrite exactly the referenced
        # payload remains (the superseded one was garbage collected), so
        # a crash between the two writes leaves the old pair intact.
        payloads = sorted(p.name for p in path.glob("arrays-*.npz"))
        assert payloads == [manifest["arrays_file"]]

    def test_dot_and_dotted_names_stay_inside_the_store(self, store):
        # Regression: percent-encoding leaves dots intact, so "." and
        # ".." used to escape the store root (writing into — and
        # remove() deleting from — the parent directory).
        index, _ = frozen_index(seed=58)
        for name in (".", "..", "a.b"):
            store.save_index(name, index)
        assert store.names() == (".", "..", "a.b")
        for child in store.root.iterdir():
            assert child.parent == store.root
        parent = store.root.parent
        assert not (parent / "manifest.json").exists()
        assert not list(parent.glob("arrays-*.npz"))
        for name in (".", "..", "a.b"):
            assert_same_answers(store.load_index(name).query(4), index.query(4))
            assert store.remove(name)
        assert store.root.is_dir()  # removal never touched the root itself
        with pytest.raises(ValueError, match="non-empty"):
            store.path_for("")


class TestRegistrySpillTier:
    def tenant(self, seed=60, **kwargs):
        return anticorrelated_dataset(260, 2, 3, seed=seed, **kwargs)

    def test_evict_spills_and_get_reloads_not_rebuilds(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(name="a"))
        before = reg.get("a").query(4)
        assert reg.evict("a")
        assert "a" in reg.store
        after = reg.get("a").query(4)
        assert_same_answers(before, after)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["builds"] == 1  # the reload did NOT rebuild
        assert totals["spills"] == 1
        assert totals["spill_loads"] == 1
        assert totals["evictions"] == 1

    def test_live_index_becomes_spillable(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("lv", self.tenant(name="lv"), live=True)
        live = reg.get("lv")
        live.insert(90_001, np.array([0.99, 0.98]), 0)
        before = live.query(4)
        assert 90_001 in before.ids.tolist()
        assert reg.evict("lv")  # dropped, not pinned
        assert "lv" not in reg.resident_names()
        reloaded = reg.get("lv")
        assert reloaded is not live
        after = reloaded.query(4)
        assert_same_answers(before, after)
        totals = reg.metrics.snapshot()["totals"]
        assert totals["evictions"] == 1
        assert totals["cache_clears"] == 0

    def test_budget_pressure_spills_live_victims(self, tmp_path):
        reg = DatasetRegistry(max_bytes=1, spill_dir=tmp_path)
        reg.register("lv", self.tenant(seed=61, name="lv"), live=True)
        reg.register("b", self.tenant(seed=62, name="b"))
        live = reg.get("lv")
        live.insert(90_001, np.array([0.97, 0.96]), 1)
        with_insert = live.query(4)
        reg.get("b")
        reg.get("b")  # budget pass: lv is the LRU victim and spills
        assert "lv" not in reg.resident_names()
        assert_same_answers(reg.get("lv").query(4), with_insert)

    def test_busy_dataset_degrades_to_cache_clear(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("lv", self.tenant(seed=63, name="lv"), live=True)
        live = reg.get("lv")
        live.query(4)
        # A gateway worker holds the dataset's scheduling lock mid-batch
        # (from its own thread — the lock is reentrant, so holding it
        # here would not block the evict).
        lock = reg.lock_for("lv")
        held = threading.Event()
        release = threading.Event()

        def worker():
            with lock:
                held.set()
                release.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        held.wait(timeout=10)
        try:
            assert reg.evict("lv") is False
        finally:
            release.set()
            t.join()
        assert "lv" in reg.resident_names()
        totals = reg.metrics.snapshot()["totals"]
        assert totals["cache_clears"] == 1
        assert totals["evictions"] == 0

    def test_unregister_removes_the_snapshot(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("lv", self.tenant(seed=64, name="lv"), live=True)
        reg.get("lv").insert(90_001, np.array([0.5, 0.5]), 0)
        assert reg.evict("lv")
        assert "lv" in reg.store
        reg.unregister("lv")
        assert "lv" not in reg.store
        # Re-registering starts from the spec, not a stale snapshot.
        reg.register("lv", self.tenant(seed=64, name="lv"), live=True)
        assert 90_001 not in reg.get("lv")

    def test_corrupt_frozen_snapshot_falls_back_to_rebuild(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=65, name="a"))
        before = reg.get("a").query(4)
        assert reg.evict("a")
        arrays = next(reg.store.path_for("a").glob("arrays-*.npz"))
        arrays.write_bytes(arrays.read_bytes()[:100])
        after = reg.get("a").query(4)  # deterministic rebuild, same answer
        assert_same_answers(before, after)
        assert reg.metrics.snapshot()["totals"]["builds"] == 2

    def test_corrupt_live_snapshot_raises_not_silently_rebuilds(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("lv", self.tenant(seed=66, name="lv"), live=True)
        reg.get("lv").insert(90_001, np.array([0.5, 0.5]), 0)
        assert reg.evict("lv")
        arrays = next(reg.store.path_for("lv").glob("arrays-*.npz"))
        arrays.write_bytes(arrays.read_bytes()[:100])
        with pytest.raises(SnapshotError):
            reg.get("lv")  # rebuilding would silently drop the insert

    def test_config_mismatch_rebuilds_frozen(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=67, name="a"), default_seed=7)
        reg.get("a")
        assert reg.evict("a")
        reg.unregister("a")
        assert "a" not in reg.store  # unregister cleaned up
        # A snapshot surviving from another process under a *different*
        # registration config must be ignored, not served.
        reg.register("a", self.tenant(seed=67, name="a"), default_seed=7)
        reg.get("a")
        assert reg.evict("a")
        reg2 = DatasetRegistry(spill_dir=tmp_path)
        reg2.register("a", self.tenant(seed=67, name="a"), default_seed=9)
        reg2.get("a")
        totals = reg2.metrics.snapshot()["totals"]
        assert totals["builds"] == 1
        assert totals["spill_loads"] == 0

    def test_preprocessing_config_mismatch_rebuilds_frozen(self, tmp_path):
        # Regression: the mismatch guard only compared the serving
        # config, so a snapshot spilled under per_group_skyline=True was
        # reloaded into a per_group_skyline=False registration — serving
        # answers for the wrong preprocessing.
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=72, name="a"))
        reg.get("a")
        assert reg.evict("a")
        reg2 = DatasetRegistry(spill_dir=tmp_path)
        reg2.register(
            "a", self.tenant(seed=72, name="a"), per_group_skyline=False
        )
        index = reg2.get("a")
        totals = reg2.metrics.snapshot()["totals"]
        assert totals["builds"] == 1
        assert totals["spill_loads"] == 0
        # And the rebuild really honors the new registration.
        assert index.skyline.n == index.dataset.skyline(per_group=False).n

    def test_cross_registry_warm_start(self, tmp_path):
        # "Process restart": a second registry over the same spill dir
        # serves without building.
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=68, name="a"))
        before = reg.get("a").query(5)
        assert reg.evict("a")
        reg2 = DatasetRegistry(spill_dir=tmp_path)
        reg2.register("a", self.tenant(seed=68, name="a"))
        after = reg2.get("a").query(5)
        assert_same_answers(before, after)
        totals = reg2.metrics.snapshot()["totals"]
        assert totals["builds"] == 0
        assert totals["spill_loads"] == 1

    def test_gateway_traffic_across_a_spill(self, tmp_path):
        # Writes submitted through the gateway land on the reloaded
        # index after an eviction mid-stream.
        reg = DatasetRegistry(spill_dir=tmp_path)
        data = self.tenant(seed=69, name="lv")
        reg.register("lv", data, live=True, default_seed=7)
        gw = Gateway(reg)
        point = np.array([0.96, 0.94])
        f1 = gw.submit("lv", 4)
        gw.drain()
        assert reg.evict("lv")
        f2 = gw.submit_update("lv", "insert", 90_001, point, 1)
        f3 = gw.submit("lv", 4)
        gw.drain()
        serial = LiveFairHMSIndex(data, default_seed=7)
        assert_same_answers(f1.result(0), serial.query(4))
        f2.result(0)
        serial.insert(90_001, point, 1)
        assert_same_answers(f3.result(0), serial.query(4))

    def test_snapshot_dict_reports_spill_tier(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=70, name="a"))
        reg.get("a")
        reg.evict("a")
        snap = reg.snapshot()
        assert snap["spill_dir"] == str(reg.store.root)
        assert snap["spilled"] == ("a",)

    def test_concurrent_evict_and_get_stay_consistent(self, tmp_path):
        reg = DatasetRegistry(spill_dir=tmp_path)
        reg.register("a", self.tenant(seed=71, name="a"))
        expected = reg.get("a").query(4)
        errors = []

        def hammer(fn):
            try:
                for _ in range(10):
                    fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(lambda: reg.evict("a"),)),
            threading.Thread(
                target=hammer,
                args=(lambda: assert_same_answers(reg.get("a").query(4), expected),),
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestSnapshotCli:
    def test_snapshot_roundtrip_and_load_only(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            ["snapshot", "anticor", "--n", "200", "--d", "2", "--groups", "2",
             "--dir", "snaps", "--k", "4,6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical (ids + mhr): yes" in out
        code = main(
            ["snapshot", "anticor", "--dir", "snaps", "--load-only", "--k", "4,6"]
        )
        assert code == 0
        assert "reloaded in" in capsys.readouterr().out
        code = main(["snapshot", "anticor", "--dir", "snaps", "--info"])
        assert code == 0
        assert '"format_version": 1' in capsys.readouterr().out

    def test_snapshot_load_only_missing_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["snapshot", "anticor", "--dir", "empty", "--load-only"])
        assert code == 1
        assert "no snapshot" in capsys.readouterr().out
