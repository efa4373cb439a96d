"""Cluster layer: hash ring, WAL, router, SDK, and the e2e crash test.

The load-bearing invariants:

* the consistent-hash ring is deterministic across processes and
  minimally disruptive under membership changes;
* a WAL append is part of the write ack — replaying snapshot + WAL
  tail reproduces the live index bit-identically, torn tails are
  tolerated, and version gaps are refused loudly;
* the router proxies worker responses byte-for-byte (the bit-identity
  surface survives the hop), fails frozen reads over to a replica, and
  answers 503 ``worker_unavailable`` when nobody is reachable;
* the full cluster serves answers bit-identical to a single-process
  gateway over the same data — including after SIGKILLing the live
  dataset's owner mid-run (WAL recovery).
"""

import asyncio
import json
import logging
import socket
import threading

import numpy as np
import pytest

from repro.client import (
    DatasetNotFound,
    FairHMSClient,
    ProtocolError,
    RequestShed,
    WorkerUnavailable,
    exception_for,
)
from repro.cluster import (
    ClusterRouter,
    FairHMSCluster,
    HashRing,
    RouterThread,
    WalError,
    WriteAheadLog,
    shard_datasets,
)
from repro.data.synthetic import anticorrelated_dataset
from repro.serving import FairHMSIndex, LiveFairHMSIndex
from repro.service import DatasetRegistry
from repro.service.gateway import Gateway
from repro.server import ServerThread
from repro.server.config import ClusterConfig, DatasetSpec, ServerConfig


def tenant(n=250, seed=40, name="t"):
    return anticorrelated_dataset(n, 2, 3, seed=seed, name=name)


# --------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------- #


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"tenant{i}" for i in range(50)]
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # construction order is irrelevant
        assert a.assignment(keys) == b.assignment(keys)

    def test_owner_is_first_preference(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in ("alpha", "beta", "live0"):
            pref = ring.preference(key, 2)
            assert pref[0] == ring.owner(key)
            assert len(pref) == len(set(pref)) == 2

    def test_preference_caps_at_ring_size(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring.preference("x", 5)) == 2

    def test_add_node_moves_few_keys(self):
        keys = [f"d{i}" for i in range(200)]
        ring = HashRing(["w0", "w1", "w2"])
        before = ring.assignment(keys)
        ring.add("w3")
        after = ring.assignment(keys)
        moved = sum(1 for k in keys if before[k] != after[k])
        # Consistent hashing: ~1/4 of keys move to the new node, and
        # only to it; nothing reshuffles between survivors.
        assert 0 < moved < len(keys) * 0.45
        assert all(after[k] == "w3" for k in keys if before[k] != after[k])

    def test_remove_node_only_moves_its_keys(self):
        keys = [f"d{i}" for i in range(200)]
        ring = HashRing(["w0", "w1", "w2"])
        before = ring.assignment(keys)
        ring.remove("w1")
        after = ring.assignment(keys)
        for key in keys:
            if before[key] != "w1":
                assert after[key] == before[key]
            else:
                assert after[key] in ("w0", "w2")

    def test_membership_and_errors(self):
        ring = HashRing(["w0"])
        assert "w0" in ring and len(ring) == 1
        with pytest.raises(ValueError):
            ring.add("w0")
        with pytest.raises(KeyError):
            ring.remove("w9")
        ring.remove("w0")
        with pytest.raises(ValueError):
            ring.owner("anything")


# --------------------------------------------------------------------- #
# write-ahead log
# --------------------------------------------------------------------- #


class TestWriteAheadLog:
    def test_replay_reproduces_live_index_bit_identically(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        source = LiveFairHMSIndex(tenant(seed=42, name="m"), default_seed=7)
        twin = LiveFairHMSIndex(tenant(seed=42, name="m"), default_seed=7)
        for i in range(6):
            key, point, group = 9_000 + i, [0.5 + i * 0.01, 0.4], i % 3
            source.insert(key, np.array(point), group)
            wal.log_insert("m", source.version, key, point, group)
        source.delete(9_002)
        wal.log_delete("m", source.version, 9_002)
        applied = wal.replay_into("m", twin)
        assert applied == 7
        assert twin.version == source.version
        a, b = source.query(4), twin.query(4)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.mhr_estimate == b.mhr_estimate

    def test_replay_skips_already_applied_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        index = LiveFairHMSIndex(tenant(name="m"), default_seed=7)
        wal.log_insert("m", index.version + 1, 1_000, [0.1, 0.2], 0)
        index.insert(1_000, np.array([0.1, 0.2]), 0)  # snapshot caught up
        assert wal.replay_into("m", index) == 0

    def test_replay_refuses_version_gap(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        index = LiveFairHMSIndex(tenant(name="m"), default_seed=7)
        wal.log_insert("m", index.version + 5, 1_000, [0.1, 0.2], 0)
        with pytest.raises(WalError, match="gap"):
            wal.replay_into("m", index)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_insert("m", 1, 1, [0.1, 0.2], 0)
        wal.log_insert("m", 2, 2, [0.3, 0.4], 1)
        wal.close()
        path = next(tmp_path.glob("*.wal"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # crash mid-append: torn last record
        assert [r["v"] for r in WriteAheadLog(tmp_path).records("m")] == [1]

    def test_corruption_before_tail_is_an_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_insert("m", 1, 1, [0.1, 0.2], 0)
        wal.close()
        path = next(tmp_path.glob("*.wal"))
        path.write_bytes(b"garbage\n" + path.read_bytes())
        with pytest.raises(WalError, match="corrupt"):
            WriteAheadLog(tmp_path).records("m")

    def test_truncate_drops_spilled_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for v in range(1, 6):
            wal.log_insert("m", v, v, [0.1, 0.2], 0)
        assert wal.truncate("m", 3) == 2  # v4, v5 survive
        assert [r["v"] for r in wal.records("m")] == [4, 5]
        assert wal.truncate("m", 5) == 0
        assert wal.records("m") == []

    def test_dataset_names_are_quoted_on_disk(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_insert("a/b c", 1, 1, [0.0], 0)
        assert wal.records("a/b c")[0]["key"] == 1
        assert "a/b c" in wal.datasets()
        wal.remove("a/b c")
        assert wal.records("a/b c") == []


class TestWalGatewayWiring:
    def test_append_is_part_of_the_write_ack(self, tmp_path):
        """The satellite bugfix: a write is acked only after its WAL
        record is durably appended, so ack => replayable."""
        wal = WriteAheadLog(tmp_path)
        registry = DatasetRegistry(wal=wal)
        registry.register("m", tenant(seed=43, name="m"), live=True,
                          default_seed=7)
        with Gateway(registry) as gw:
            gw.submit_update(
                "m", "insert", 5_000, np.array([0.7, 0.2]), 1
            ).result(timeout=60)
            gw.submit_update("m", "delete", 5_000).result(timeout=60)
        assert [r["op"] for r in wal.records("m")] == ["insert", "delete"]
        assert registry.metrics.snapshot()["datasets"]["m"]["wal_appends"] == 2

    def test_failed_append_fails_the_write(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        registry = DatasetRegistry(wal=wal)
        registry.register("m", tenant(seed=43, name="m"), live=True,
                          default_seed=7)
        with Gateway(registry) as gw:
            gw.submit_update(
                "m", "insert", 6_001, np.array([0.1, 0.1]), 0
            ).result(timeout=60)

            def boom(*args, **kwargs):
                raise OSError("disk full")

            wal.log_insert = boom
            with pytest.raises(OSError, match="disk full"):
                gw.submit_update(
                    "m", "insert", 6_002, np.array([0.2, 0.2]), 0
                ).result(timeout=60)

    def test_restart_replays_wal_over_snapshot(self, tmp_path):
        spill, waldir = tmp_path / "spill", tmp_path / "wal"
        wal = WriteAheadLog(waldir)
        registry = DatasetRegistry(spill_dir=spill, wal=wal)
        registry.register("m", factory=lambda: tenant(seed=44, name="m"),
                          live=True, default_seed=7)
        with Gateway(registry) as gw:
            gw.submit_update(
                "m", "insert", 7_100, np.array([0.9, 0.1]), 2
            ).result(timeout=60)
            gw.submit_update(
                "m", "insert", 7_101, np.array([0.1, 0.9]), 0
            ).result(timeout=60)
            expected = gw.submit("m", 4).result(timeout=60)
        # No spill happened: the process "crashes" here.  A fresh
        # registry over the same dirs rebuilds from the factory and
        # replays the WAL tail on top.
        registry2 = DatasetRegistry(
            spill_dir=spill, wal=WriteAheadLog(waldir)
        )
        registry2.register("m", factory=lambda: tenant(seed=44, name="m"),
                           live=True, default_seed=7)
        with Gateway(registry2) as gw2:
            recovered = gw2.submit("m", 4).result(timeout=60)
        np.testing.assert_array_equal(expected.ids, recovered.ids)
        assert expected.mhr_estimate == recovered.mhr_estimate
        assert (
            registry2.metrics.snapshot()["datasets"]["m"]["wal_replays"] == 2
        )


# --------------------------------------------------------------------- #
# client SDK
# --------------------------------------------------------------------- #


class TestClientSdk:
    def test_typed_exceptions_from_codes(self):
        assert isinstance(
            exception_for("dataset_not_found", "x"), DatasetNotFound
        )
        shed = exception_for("shed", "busy", status=429, retry_after=2.0)
        assert isinstance(shed, RequestShed)
        assert shed.retryable and shed.retry_after == 2.0
        unknown = exception_for("weird_new_code", "x")
        assert unknown.code == "weird_new_code"

    def test_query_against_live_server_and_keepalive(self):
        registry = DatasetRegistry()
        registry.register("a", tenant(seed=45, name="a"), default_seed=7)
        with ServerThread(registry) as (host, port):
            with FairHMSClient(host, port) as client:
                oracle = FairHMSIndex(tenant(seed=45, name="a"),
                                      default_seed=7)
                data = client.query("a", 4)
                assert data["ids"] == [int(v) for v in oracle.query(4).ids]
                with pytest.raises(DatasetNotFound):
                    client.query("ghost", 3)
                assert len(client._conns) == 1  # one reused connection

    def test_retry_honors_retry_after_and_jitter(self):
        naps = []
        client = FairHMSClient(
            "127.0.0.1", 1, retries=2, backoff=0.05, sleep=naps.append,
        )
        attempts = []

        def fake_roundtrip(endpoint, method, path, body, headers):
            attempts.append(path)
            if len(attempts) < 3:
                body = json.dumps({
                    "data": None,
                    "error": {"code": "shed", "message": "busy",
                              "retryable": True},
                    "meta": {},
                }).encode()
                return 429, {"Retry-After": "0.4"}, body
            return 200, {}, json.dumps(
                {"data": {"ok": True}, "error": None, "meta": {}}
            ).encode()

        client._roundtrip = fake_roundtrip
        assert client.request("POST", "/v1/query", {}).data == {"ok": True}
        assert len(attempts) == 3
        assert len(naps) == 2
        assert all(nap >= 0.4 for nap in naps)  # Retry-After floor held

    def test_non_retryable_errors_do_not_retry(self):
        calls = []

        def fake_roundtrip(endpoint, method, path, body, headers):
            calls.append(1)
            return 404, {}, json.dumps({
                "data": None,
                "error": {"code": "dataset_not_found", "message": "nope",
                          "retryable": False},
                "meta": {},
            }).encode()

        client = FairHMSClient("127.0.0.1", 1, retries=5, sleep=lambda _: None)
        client._roundtrip = fake_roundtrip
        with pytest.raises(DatasetNotFound):
            client.request("POST", "/v1/query", {})
        assert len(calls) == 1

    def test_transparent_redirect(self):
        hops = []

        def fake_roundtrip(endpoint, method, path, body, headers):
            hops.append(endpoint)
            if len(hops) == 1:
                return 307, {"Location": "http://127.0.0.1:7001/v1/query"}, b""
            return 200, {}, json.dumps(
                {"data": {"from": endpoint[1]}, "error": None, "meta": {}}
            ).encode()

        client = FairHMSClient("127.0.0.1", 7000, retries=0)
        client._roundtrip = fake_roundtrip
        assert client.request("POST", "/v1/query", {}).data == {"from": 7001}
        assert hops == [("127.0.0.1", 7000), ("127.0.0.1", 7001)]

    def test_connection_refused_becomes_protocol_error(self):
        # A port nothing listens on: bind-then-close to find one.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = FairHMSClient(
            "127.0.0.1", port, retries=1, backoff=0.001, timeout=2,
        )
        with pytest.raises(ProtocolError):
            client.request("GET", "/healthz")


# --------------------------------------------------------------------- #
# router (against in-process worker servers)
# --------------------------------------------------------------------- #


def worker_fleet(specs):
    """In-process 'workers': N ServerThreads over per-shard registries.

    ``specs`` maps worker name -> list of (dataset name, data, live).
    Returns (threads, addresses) — callers drain the threads.
    """
    threads, addresses = {}, {}
    for wname, datasets in specs.items():
        registry = DatasetRegistry()
        for dname, data, live in datasets:
            registry.register(dname, data, live=live, default_seed=7)
        thread = ServerThread(registry, worker_id=wname)
        addresses[wname] = thread.start()
        threads[wname] = thread
    return threads, addresses


class TestRouter:
    def test_proxied_answer_is_byte_identical(self):
        data = tenant(seed=46, name="a")
        threads, addresses = worker_fleet({
            "w0": [("a", data, False)], "w1": [("a", data, False)],
        })
        try:
            with RouterThread(addresses, datasets={"a": False},
                              replicas=2) as (host, port):
                direct = FairHMSClient(*addresses["w0"])
                via_router = FairHMSClient(host, port)
                a = direct.request("POST", "/v1/query",
                                   {"dataset": "a", "k": 4})
                b = via_router.request("POST", "/v1/query",
                                       {"dataset": "a", "k": 4})
                assert a.data == b.data  # payload identical through the hop
                assert b.headers.get("x-repro-worker") in ("w0", "w1")
                assert b.headers.get("x-repro-route") == "replica"
                direct.close(), via_router.close()
        finally:
            for t in threads.values():
                t.drain()

    def test_live_dataset_pins_to_owner(self):
        ring_probe = HashRing(["w0", "w1"])
        owner = ring_probe.owner("m")
        data = tenant(seed=47, name="m")
        threads, addresses = worker_fleet({
            "w0": [("m", data, True)] if owner == "w0" else [],
            "w1": [("m", data, True)] if owner == "w1" else [],
        })
        try:
            with RouterThread(addresses, datasets={"m": True},
                              replicas=2) as (host, port):
                client = FairHMSClient(host, port)
                for i in range(3):
                    ack = client.insert("m", 8_000 + i, [0.5, 0.5], 0)
                    assert ack["applied"] == "insert"
                resp = client.request("POST", "/v1/query",
                                      {"dataset": "m", "k": 3})
                assert resp.headers["x-repro-worker"] == owner
                assert resp.headers["x-repro-route"] == "owner"
                client.close()
        finally:
            for t in threads.values():
                t.drain()

    def test_read_failover_to_replica(self):
        data = tenant(seed=48, name="a")
        threads, addresses = worker_fleet({
            "w0": [("a", data, False)], "w1": [("a", data, False)],
        })
        with RouterThread(addresses, datasets={"a": False},
                          replicas=2) as (host, port):
            client = FairHMSClient(host, port, retries=3, backoff=0.01)
            expected = client.query("a", 4)["ids"]
            # Kill one worker: reads must keep answering via the other.
            victim = threads.pop("w0")
            victim.drain()
            for _ in range(4):
                resp = client.request("POST", "/v1/query",
                                      {"dataset": "a", "k": 4})
                assert resp.data["ids"] == expected
                assert resp.headers["x-repro-worker"] == "w1"
            client.close()
        for t in threads.values():
            t.drain()

    def test_all_replicas_down_is_worker_unavailable(self):
        data = tenant(seed=49, name="a")
        threads, addresses = worker_fleet({"w0": [("a", data, False)]})
        with RouterThread(addresses, datasets={"a": False},
                          replicas=1) as (host, port):
            client = FairHMSClient(host, port, retries=1, backoff=0.01)
            assert client.query("a", 3)["ids"]
            threads.pop("w0").drain()
            with pytest.raises(WorkerUnavailable) as info:
                client.query("a", 3)
            assert info.value.retryable
            client.close()

    def test_router_error_mapping_and_local_endpoints(self):
        data = tenant(seed=50, name="a")
        threads, addresses = worker_fleet({"w0": [("a", data, False)]})
        try:
            with RouterThread(addresses, datasets={"a": False},
                              replicas=1) as (host, port):
                client = FairHMSClient(host, port)
                # Worker-originated 404 passes through with its code.
                with pytest.raises(DatasetNotFound):
                    client.query("ghost", 3)
                # Router-originated 400: missing dataset field.
                resp = client.request(
                    "POST", "/v1/query", {"k": 3},
                    retry=False, raise_for_error=False,
                )
                assert resp.status == 400
                assert resp.error["code"] == "invalid_argument"
                assert resp.meta["worker"] == "router"
                # Local endpoints answer without a worker round-trip.
                health = client.health()
                assert health["role"] == "router"
                assert health["workers_healthy"] == 1
                topo = client.request("GET", "/v1/cluster").data
                assert topo["datasets"]["a"]["replicas"] == ["w0"]
                stats = client.metrics()
                assert stats["workers"]["w0"]["healthy"] is True
                # /v1/datasets proxies to a worker.
                assert [d["name"] for d in client.datasets()] == ["a"]
                client.close()
        finally:
            for t in threads.values():
                t.drain()

    def test_minted_trace_id_reaches_the_worker(self):
        """With no ``x-repro-trace`` from the client, the id the router
        mints for its proxy span is the one the worker traces under."""
        data = tenant(seed=52, name="a")
        threads, addresses = worker_fleet({"w0": [("a", data, False)]})
        try:
            with RouterThread(addresses, datasets={"a": False},
                              replicas=1) as (host, port):
                client = FairHMSClient(host, port)
                resp = client.request("POST", "/v1/query",
                                      {"dataset": "a", "k": 3})
                request_id = resp.meta["request_id"]
                router = client.traces()["recent"]
                worker = client.request(
                    "GET", "/v1/traces?worker=w0"
                ).data["recent"]
                assert [t["trace_id"] for t in router] == [request_id]
                assert [t["trace_id"] for t in worker] == [request_id]
                client.close()
        finally:
            for t in threads.values():
                t.drain()

    def test_drain_with_idle_client_logs_nothing(self, caplog):
        data = tenant(seed=53, name="a")
        threads, addresses = worker_fleet({"w0": [("a", data, False)]})
        router = RouterThread(addresses, datasets={"a": False}, replicas=1)
        try:
            client = FairHMSClient(*router.start())
            client.query("a", 3)  # its keep-alive connection now idles
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                router.drain()
            assert [r for r in caplog.records if r.name == "asyncio"] == []
            client.close()
        finally:
            router.drain()
            for t in threads.values():
                t.drain()

    def test_drain_ends_health_loop_when_a_probe_swallows_the_cancel(
        self, monkeypatch
    ):
        # Before Python 3.12, asyncio.wait_for drops a cancel that lands
        # just as the awaited call completes (CPython gh-86296), so a
        # probe can return normally after drain cancelled the loop.
        probing = threading.Event()

        async def probe(self, worker):
            probing.set()
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                pass  # swallowed, as wait_for does in that race

        monkeypatch.setattr(ClusterRouter, "_probe", probe)
        router = RouterThread({"w0": ("127.0.0.1", 9)}, health_interval=0.0)
        router.start()
        assert probing.wait(timeout=10)
        router.drain(timeout=10)  # TimeoutError if the loop outlived the cancel

    def test_prometheus_exposition_renders(self):
        data = tenant(seed=51, name="a")
        threads, addresses = worker_fleet({"w0": [("a", data, False)]})
        try:
            with RouterThread(addresses, datasets={"a": False},
                              replicas=1) as (host, port):
                client = FairHMSClient(host, port)
                client.query("a", 3)
                import http.client as hc

                conn = hc.HTTPConnection(host, port, timeout=30)
                conn.request("GET", "/metrics")
                resp = conn.getresponse()
                text = resp.read().decode()
                conn.close()
                assert resp.status == 200
                assert "repro_cluster_workers_healthy 1" in text
                assert "repro_cluster_proxied_total" in text
                from repro.obs.prometheus import validate_exposition

                validate_exposition(text)
                client.close()
        finally:
            for t in threads.values():
                t.drain()


# --------------------------------------------------------------------- #
# sharding policy
# --------------------------------------------------------------------- #


class TestShardDatasets:
    def test_frozen_everywhere_live_on_owner_only(self):
        config = ServerConfig(
            cluster=ClusterConfig(workers=3),
            datasets=(
                DatasetSpec(name="f0", n=100),
                DatasetSpec(name="f1", n=100),
                DatasetSpec(name="m0", n=100, live=True),
            ),
        )
        ring = HashRing(["w0", "w1", "w2"])
        shards = shard_datasets(config, ring)
        owner = ring.owner("m0")
        for wname, wconfig in shards.items():
            names = [s.name for s in wconfig.datasets]
            assert "f0" in names and "f1" in names
            assert ("m0" in names) == (wname == owner)
            assert wconfig.port == 0
            assert wconfig.worker_id == wname


# --------------------------------------------------------------------- #
# end-to-end: real worker processes, SIGKILL recovery
# --------------------------------------------------------------------- #


def cluster_config(tmp_path, *, workers=3):
    return ServerConfig(
        port=0,
        spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "wal"),
        cluster=ClusterConfig(workers=workers, replicas=2,
                              health_interval=0.25),
        datasets=(
            DatasetSpec(name="f0", n=220, seed=60),
            DatasetSpec(name="f1", n=220, seed=61),
            DatasetSpec(name="m0", n=180, seed=62, live=True),
        ),
    )


def oracle_answers(trace, queries):
    """Single-process ground truth: replay the same writes in-process,
    then solve the same queries through an ordinary gateway."""
    registry = DatasetRegistry()
    registry.register("f0", tenant(220, 60, "f0"), default_seed=7)
    registry.register("f1", tenant(220, 61, "f1"), default_seed=7)
    registry.register("m0", tenant(180, 62, "m0"), live=True, default_seed=7)
    out = []
    with Gateway(registry) as gw:
        for op, args in trace:
            if op == "insert":
                key, point, group = args
                gw.submit_update(
                    "m0", "insert", key, np.array(point), group
                ).result(timeout=120)
            else:
                gw.submit_update("m0", "delete", args).result(timeout=120)
        for name, k in queries:
            sol = gw.submit(name, k).result(timeout=120)
            out.append({
                "ids": [int(v) for v in sol.ids],
                "mhr": sol.mhr_estimate,
            })
    return out


class TestClusterEndToEnd:
    def test_mixed_trace_bit_identical_and_sigkill_recovery(self, tmp_path):
        config = cluster_config(tmp_path)
        cluster = FairHMSCluster(config, start_timeout=120)
        try:
            host, port = cluster.start()
            client = FairHMSClient(host, port, timeout=120, retries=8,
                                   backoff=0.2)
            trace = [
                ("insert", (9_000, [0.55, 0.40], 0)),
                ("insert", (9_001, [0.40, 0.58], 1)),
                ("insert", (9_002, [0.70, 0.20], 2)),
                ("delete", 9_001),
            ]
            queries = [("f0", 4), ("f1", 5), ("m0", 3), ("f0", 6)]
            for op, args in trace:
                if op == "insert":
                    key, point, group = args
                    client.insert("m0", key, point, group)
                else:
                    client.delete("m0", args)
            got = []
            for name, k in queries:
                data = client.query(name, k)
                got.append({"ids": data["ids"], "mhr": data["mhr_estimate"]})
            expected = oracle_answers(trace, queries)
            assert got == expected  # bit-identical through the router

            # SIGKILL the live owner; the supervisor respawns it and the
            # WAL replays — answers must come back bit-identical.
            owner = cluster.router.router.ring.owner("m0")
            incarnation = cluster.kill_worker(owner)
            cluster.wait_worker(owner, incarnation=incarnation, timeout=120)
            recovered = []
            for name, k in queries:
                data = client.query(name, k)
                recovered.append(
                    {"ids": data["ids"], "mhr": data["mhr_estimate"]}
                )
            assert recovered == expected
            assert cluster.restarts >= 1
            client.close()
        finally:
            cluster.stop()
