"""HTTP serving front-end: protocol, admission control, graceful drain.

The load-bearing invariants:

* every HTTP 200 query answer is bit-identical (ids + solver MHR
  estimate) to a direct ``FairHMSIndex`` solve over the same data;
* admission control sheds with 429 — never by queueing without bound —
  and the shed is counted in ``ServiceMetrics``;
* a drain lets in-flight requests resolve, answers later requests with
  503, refuses new connections, and spills live datasets (applied
  writes included) into a reloadable snapshot.
"""

import asyncio
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.data.synthetic import anticorrelated_dataset
from repro.serving import FairHMSIndex, LiveFairHMSIndex
from repro.service import DatasetRegistry
from repro.service.store import SnapshotStore
from repro.server import (
    DatasetSpec,
    FairHMSServer,
    ServerConfig,
    ServerThread,
    build_registry,
    demo_config,
    load_config,
    parse_config,
)
from repro.server.config import tomllib

N_FROZEN, N_LIVE = 300, 240


def frozen_data():
    return anticorrelated_dataset(N_FROZEN, 2, 3, seed=40, name="alpha")


def live_data():
    return anticorrelated_dataset(N_LIVE, 2, 3, seed=41, name="mut")


def make_registry(*, spill_dir=None) -> DatasetRegistry:
    registry = DatasetRegistry(spill_dir=spill_dir)
    registry.register("alpha", frozen_data(), default_seed=7)
    registry.register("mut", live_data(), live=True, default_seed=7)
    return registry


class Client:
    """Tiny keep-alive JSON client over one http.client connection."""

    def __init__(self, host, port, timeout=60):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        body = json.loads(resp.read())
        # /v1/* responses arrive in the v1.1 envelope (TestEnvelope
        # pins its exact shape); successes unwrap to the payload so the
        # protocol tests keep asserting on substance, and errors stay
        # whole so they can check ``error.code``.
        if isinstance(body, dict) and "data" in body and "meta" in body:
            if body.get("error") is None:
                body = body["data"]
        return resp.status, body

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload):
        return self.request("POST", path, payload)

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def server():
    """One shared server over a frozen and a live dataset."""
    registry = make_registry()
    st = ServerThread(registry)
    host, port = st.start()
    yield host, port, registry
    st.drain()


@pytest.fixture()
def client(server):
    host, port, _ = server
    c = Client(host, port)
    yield c
    c.close()


class TestEndpoints:
    def test_healthz(self, client):
        status, payload = client.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"] == 2
        assert payload["inflight"] == 0

    def test_datasets_listing(self, client):
        status, payload = client.get("/v1/datasets")
        assert status == 200
        rows = {row["name"]: row for row in payload["datasets"]}
        assert set(rows) == {"alpha", "mut"}
        assert rows["mut"]["live"] is True
        assert rows["alpha"]["live"] is False

    def test_query_bit_identical_to_direct_solve(self, client):
        reference = FairHMSIndex(frozen_data(), default_seed=7)
        for k in (3, 4, 6):
            status, payload = client.post(
                "/v1/query", {"dataset": "alpha", "k": k}
            )
            assert status == 200
            sol = reference.query(k)
            assert payload["ids"] == [int(v) for v in sol.ids]
            assert payload["mhr_estimate"] == sol.mhr_estimate
            assert payload["algorithm"] == sol.algorithm
            assert payload["group_counts"] == [int(v) for v in sol.group_counts()]
            assert payload["violations"] == sol.violations()

    def test_query_with_explicit_constraint(self, client):
        reference = FairHMSIndex(frozen_data(), default_seed=7)
        constraint = reference.constraint_for(4)
        status, payload = client.post(
            "/v1/query",
            {
                "dataset": "alpha",
                "constraint": {
                    "k": int(constraint.k),
                    "lower": [int(v) for v in constraint.lower],
                    "upper": [int(v) for v in constraint.upper],
                },
            },
        )
        assert status == 200
        sol = reference.query(constraint=constraint)
        assert payload["ids"] == [int(v) for v in sol.ids]

    def test_keep_alive_reuses_one_connection(self, client):
        for _ in range(3):
            status, _ = client.get("/healthz")
            assert status == 200

    def test_metrics_exposes_all_layers(self, client):
        client.post("/v1/query", {"dataset": "alpha", "k": 4})
        status, payload = client.get("/v1/metrics")
        assert status == 200
        assert payload["service"]["totals"]["requests"] >= 1
        assert "alpha" in payload["service"]["datasets"]
        assert payload["registry"]["registered"] == ["alpha", "mut"]
        server_block = payload["server"]
        assert server_block["max_inflight"] == 64
        assert server_block["draining"] is False
        assert server_block["http_latency"]["count"] >= 1
        assert server_block["endpoints"]["POST /v1/query"] >= 1

    def test_write_then_query_observes_the_write(self, client):
        status, payload = client.post(
            "/v1/write",
            {
                "dataset": "mut",
                "op": "insert",
                "key": 9_001,
                "point": [0.9, 0.9],
                "group": 1,
            },
        )
        assert status == 200
        assert payload["applied"] == "insert"
        assert payload["version"] == N_LIVE + 1
        status, payload = client.post("/v1/query", {"dataset": "mut", "k": 3})
        assert status == 200
        # Replay the same history in process: the answers must agree.
        oracle = LiveFairHMSIndex(live_data(), default_seed=7)
        oracle.insert(9_001, np.array([0.9, 0.9]), 1)
        sol = oracle.query(3)
        assert payload["ids"] == [int(v) for v in sol.ids]
        assert payload["mhr_estimate"] == sol.mhr_estimate
        # Clean up for the other tests sharing the module server.
        status, payload = client.post(
            "/v1/write", {"dataset": "mut", "op": "delete", "key": 9_001}
        )
        assert status == 200
        assert payload["applied"] == "delete"


class TestErrorMapping:
    def test_unknown_dataset_404(self, client):
        status, payload = client.post("/v1/query", {"dataset": "nope", "k": 3})
        assert status == 404
        assert payload["error"]["code"] == "dataset_not_found"
        assert "nope" in payload["error"]["message"]

    def test_unknown_route_404(self, client):
        status, _ = client.get("/v2/query")
        assert status == 404

    def test_wrong_method_405(self, client):
        status, _ = client.get("/v1/query")
        assert status == 405
        status, _ = client.post("/healthz", {})
        assert status == 405

    def test_oversized_header_line_400(self, server):
        # Regression: a header line past the asyncio stream limit used
        # to raise an unanswered ValueError out of the connection task
        # instead of the promised 400.
        host, port, _ = server
        c = Client(host, port)
        try:
            c.conn.request("GET", "/healthz", headers={"X-Big": "a" * 100_000})
            resp = c.conn.getresponse()
            assert resp.status == 400
            assert "too long" in json.loads(resp.read())["error"]
        finally:
            c.close()

    def test_malformed_json_400(self, client):
        client.conn.request(
            "POST",
            "/v1/query",
            body="{not json",
            headers={"Content-Type": "application/json"},
        )
        resp = client.conn.getresponse()
        assert resp.status == 400
        assert "invalid JSON" in json.loads(resp.read())["error"]["message"]

    def test_missing_k_and_constraint_400(self, client):
        status, payload = client.post("/v1/query", {"dataset": "alpha"})
        assert status == 400
        assert payload["error"]["code"] == "invalid_argument"
        assert payload["error"]["retryable"] is False

    def test_unknown_query_key_400(self, client):
        status, payload = client.post(
            "/v1/query", {"dataset": "alpha", "k": 3, "knob": 1}
        )
        assert status == 400
        assert "knob" in payload["error"]["message"]

    def test_write_to_frozen_dataset_400(self, client):
        status, _ = client.post(
            "/v1/write",
            {"dataset": "alpha", "op": "insert", "key": 1, "point": [0, 0],
             "group": 0},
        )
        assert status == 400

    def test_bad_write_op_400(self, client):
        status, payload = client.post(
            "/v1/write", {"dataset": "mut", "op": "upsert", "key": 1}
        )
        assert status == 400
        assert "upsert" in payload["error"]["message"]

    def test_infeasible_constraint_400(self, client):
        # Lower bounds beyond k are structurally infeasible.
        status, payload = client.post(
            "/v1/query",
            {
                "dataset": "alpha",
                "constraint": {"k": 2, "lower": [5, 5, 5], "upper": [5, 5, 5]},
            },
        )
        assert status == 400
        assert payload["error"]["code"] == "infeasible_constraint"


class TestEnvelope:
    """The v1.1 response envelope: shape, codes, and the legacy opt-out."""

    def raw(self, server, method, path, payload=None, headers=None):
        host, port, _ = server
        conn = http.client.HTTPConnection(host, port, timeout=60)
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        parsed = json.loads(resp.read())
        conn.close()
        return resp.status, parsed

    def test_success_envelope_shape(self, server):
        status, body = self.raw(
            server, "POST", "/v1/query", {"dataset": "alpha", "k": 4}
        )
        assert status == 200
        assert set(body) == {"data", "error", "meta"}
        assert body["error"] is None
        assert body["data"]["ids"]
        meta = body["meta"]
        assert meta["api_version"] == "1.1"
        assert meta["worker"] == "server"  # standalone default
        assert isinstance(meta["request_id"], str) and meta["request_id"]

    def test_error_envelope_shape(self, server):
        status, body = self.raw(
            server, "POST", "/v1/query", {"dataset": "ghost", "k": 4}
        )
        assert status == 404
        assert body["data"] is None
        assert set(body["error"]) == {"code", "message", "retryable"}
        assert body["error"]["code"] == "dataset_not_found"
        assert body["error"]["retryable"] is False
        assert body["meta"]["api_version"] == "1.1"

    def test_request_id_echoes_trace_id(self, server):
        _, body = self.raw(
            server, "POST", "/v1/query", {"dataset": "alpha", "k": 4},
            headers={"x-repro-trace": "envelope-test-1"},
        )
        assert body["meta"]["request_id"] == "envelope-test-1"

    def test_legacy_body_via_query_param(self, server):
        # Deprecated pre-1.1 compatibility: ?envelope=0 strips the
        # envelope and returns the bare payload (docs/API.md).
        status, body = self.raw(
            server, "POST", "/v1/query?envelope=0",
            {"dataset": "alpha", "k": 4},
        )
        assert status == 200
        assert "meta" not in body and "ids" in body
        status, body = self.raw(
            server, "POST", "/v1/query?envelope=0",
            {"dataset": "ghost", "k": 4},
        )
        assert status == 404
        assert isinstance(body["error"], str)  # legacy message-only shape

    def test_legacy_body_via_accept_header(self, server):
        from repro.server import LEGACY_ACCEPT

        status, body = self.raw(
            server, "POST", "/v1/query", {"dataset": "alpha", "k": 4},
            headers={"Accept": LEGACY_ACCEPT},
        )
        assert status == 200
        assert "meta" not in body and "ids" in body

    def test_envelope_param_overrides_accept(self, server):
        from repro.server import LEGACY_ACCEPT

        status, body = self.raw(
            server, "POST", "/v1/query?envelope=1",
            {"dataset": "alpha", "k": 4},
            headers={"Accept": LEGACY_ACCEPT},
        )
        assert status == 200
        assert set(body) == {"data", "error", "meta"}

    def test_healthz_stays_bare(self, server):
        status, body = self.raw(server, "GET", "/healthz")
        assert status == 200
        assert "meta" not in body and body["status"] == "ok"

    def test_worker_id_lands_in_meta(self):
        registry = DatasetRegistry()
        registry.register("alpha", frozen_data(), default_seed=7)
        with ServerThread(registry, worker_id="w7") as (host, port):
            status, body = self.raw(
                (host, port, registry), "POST", "/v1/query",
                {"dataset": "alpha", "k": 3},
            )
        assert status == 200
        assert body["meta"]["worker"] == "w7"


class GatedFactory:
    """Dataset factory that blocks builds until released (shed tests)."""

    def __init__(self, n=120, seed=50, name="slow"):
        self.gate = threading.Event()
        self._args = (n, seed, name)

    def __call__(self):
        self.gate.wait(timeout=60)
        n, seed, name = self._args
        return anticorrelated_dataset(n, 2, 3, seed=seed, name=name)


def _post_in_thread(host, port, path, payload, results, idx):
    client = Client(host, port, timeout=120)
    try:
        results[idx] = client.post(path, payload)
    finally:
        client.close()


def _wait_for_inflight(host, port, want, timeout=30.0):
    client = Client(host, port)
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            _, payload = client.get("/healthz")
            if payload["inflight"] >= want:
                return
            time.sleep(0.01)
    finally:
        client.close()
    raise AssertionError(f"inflight never reached {want}")


class TestAdmissionControl:
    def test_429_load_shedding_and_shed_counter(self):
        """With max_inflight=1, a second request sheds instead of queueing."""
        factory = GatedFactory()
        registry = DatasetRegistry()
        registry.register("slow", factory=factory, default_seed=7)
        with ServerThread(registry, max_inflight=1) as (host, port):
            results = [None, None]
            blocked = threading.Thread(
                target=_post_in_thread,
                args=(host, port, "/v1/query", {"dataset": "slow", "k": 3},
                      results, 0),
            )
            blocked.start()
            _wait_for_inflight(host, port, 1)

            shed_client = Client(host, port)
            status, payload = shed_client.post(
                "/v1/query", {"dataset": "slow", "k": 4}
            )
            assert status == 429
            assert payload["error"]["code"] == "shed"
            assert payload["error"]["retryable"] is True

            # Observability endpoints stay admitted under overload.
            status, metrics = shed_client.get("/v1/metrics")
            assert status == 200
            assert metrics["service"]["datasets"]["slow"]["shed"] == 1
            assert metrics["server"]["shed"] == 1
            shed_client.close()

            factory.gate.set()
            blocked.join(timeout=120)
            status, payload = results[0]
            assert status == 200  # the in-flight request was never harmed
            oracle = FairHMSIndex(
                anticorrelated_dataset(120, 2, 3, seed=50, name="slow"),
                default_seed=7,
            )
            assert payload["ids"] == [int(v) for v in oracle.query(3).ids]

    def test_shed_request_is_cheap_not_queued(self):
        """Sheds answer immediately even while the only slot is blocked."""
        factory = GatedFactory()
        registry = DatasetRegistry()
        registry.register("slow", factory=factory, default_seed=7)
        with ServerThread(registry, max_inflight=1) as (host, port):
            results = [None]
            blocked = threading.Thread(
                target=_post_in_thread,
                args=(host, port, "/v1/query", {"dataset": "slow", "k": 3},
                      results, 0),
            )
            blocked.start()
            _wait_for_inflight(host, port, 1)
            client = Client(host, port)
            t0 = time.perf_counter()
            status, _ = client.post("/v1/query", {"dataset": "slow", "k": 5})
            elapsed = time.perf_counter() - t0
            client.close()
            assert status == 429
            assert elapsed < 5.0  # immediate, not behind the blocked build
            factory.gate.set()
            blocked.join(timeout=120)
            assert results[0][0] == 200


class TestRetryAfter:
    """429 Retry-After derived from observed solve latency, not hardcoded."""

    def test_cold_server_hints_one_second(self):
        # No solve observed yet: nothing to derive from, fall back to 1.
        assert FairHMSServer(make_registry())._retry_after() == "1"

    def test_derived_from_solve_p50_and_inflight(self):
        registry = make_registry()
        server = FairHMSServer(registry)
        for _ in range(4):
            registry.metrics.observe_solve("alpha", 2.0)
        assert server._retry_after() == "2"  # ceil(p50), nothing in flight
        server._inflight = 3
        assert server._retry_after() == "6"  # ceil(2s p50 * 3 in flight)

    def test_clamped_to_sixty_seconds(self):
        registry = make_registry()
        server = FairHMSServer(registry)
        registry.metrics.observe_solve("alpha", 120.0)
        assert server._retry_after() == "60"

    def test_shed_response_carries_the_header(self):
        factory = GatedFactory()
        registry = DatasetRegistry()
        registry.register("slow", factory=factory, default_seed=7)
        with ServerThread(registry, max_inflight=1) as (host, port):
            results = [None]
            blocked = threading.Thread(
                target=_post_in_thread,
                args=(host, port, "/v1/query", {"dataset": "slow", "k": 3},
                      results, 0),
            )
            blocked.start()
            _wait_for_inflight(host, port, 1)
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.request(
                "POST",
                "/v1/query",
                body=json.dumps({"dataset": "slow", "k": 4}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            retry = resp.getheader("Retry-After")
            resp.read()
            conn.close()
            assert resp.status == 429
            assert retry is not None and retry.isdigit() and int(retry) >= 1
            factory.gate.set()
            blocked.join(timeout=120)
            assert results[0][0] == 200


class TestGracefulDrain:
    def test_drain_resolves_inflight_and_spills_reloadable(self, tmp_path):
        """The SIGTERM path end to end (triggered via drain()):

        in-flight request completes with a correct answer, later
        requests on live connections get 503, new connections are
        refused, and the live dataset's applied writes land in a
        snapshot a fresh process can reload.
        """
        factory = GatedFactory()
        registry = make_registry(spill_dir=tmp_path)
        registry.register("slow", factory=factory, default_seed=7)
        st = ServerThread(registry)
        host, port = st.start()

        # A write that must survive the drain, and a warm query.
        setup = Client(host, port)
        status, _ = setup.post(
            "/v1/write",
            {"dataset": "mut", "op": "insert", "key": 7_777,
             "point": [0.8, 0.7], "group": 2},
        )
        assert status == 200
        status, _ = setup.post("/v1/query", {"dataset": "mut", "k": 3})
        assert status == 200

        # Hold one request in flight on the gated dataset.
        results = [None]
        blocked = threading.Thread(
            target=_post_in_thread,
            args=(host, port, "/v1/query", {"dataset": "slow", "k": 3},
                  results, 0),
        )
        blocked.start()
        _wait_for_inflight(host, port, 1)

        # Drain from a helper thread (it blocks until shutdown is done).
        drainer = threading.Thread(target=st.drain)
        drainer.start()

        # The existing keep-alive connection sees draining (and the
        # server closes it after that response — drain semantics).
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, payload = setup.get("/healthz")
            if payload.get("status") == "draining":
                break
            time.sleep(0.01)
        assert payload["status"] == "draining"
        setup.close()

        # A query arriving while draining is answered 503, not queued
        # (dispatched on the server loop: drained listeners refuse new
        # connections, so the wire can no longer carry one).
        from repro.server.http import HttpRequest

        request = HttpRequest(
            method="POST",
            path="/v1/query",
            query="",
            headers={},
            body=json.dumps({"dataset": "mut", "k": 4}).encode(),
        )
        status, payload, _ = asyncio.run_coroutine_threadsafe(
            st.server._dispatch(request), st.loop
        ).result(timeout=30)
        assert status == 503
        assert payload["error"]["code"] == "draining"
        assert "drain" in payload["error"]["message"]

        # Release the gate: the in-flight request must resolve correctly.
        factory.gate.set()
        blocked.join(timeout=120)
        drainer.join(timeout=120)
        status, payload = results[0]
        assert status == 200
        oracle = FairHMSIndex(
            anticorrelated_dataset(120, 2, 3, seed=50, name="slow"),
            default_seed=7,
        )
        assert payload["ids"] == [int(v) for v in oracle.query(3).ids]

        # New connections are refused after the drain.
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            probe.request("GET", "/healthz")
            probe.getresponse()

        # The live dataset spilled with its applied write, reloadable.
        store = SnapshotStore(tmp_path)
        assert "mut" in store
        reloaded = store.load_index("mut")
        assert isinstance(reloaded, LiveFairHMSIndex)
        assert 7_777 in reloaded.dataset.ids
        oracle = LiveFairHMSIndex(live_data(), default_seed=7)
        oracle.insert(7_777, np.array([0.8, 0.7]), 2)
        a, b = reloaded.query(3), oracle.query(3)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.mhr_estimate == b.mhr_estimate

    def test_drain_with_idle_keepalive_client(self):
        """From Python 3.12.1 ``Server.wait_closed`` returns only once
        every accepted connection is closed, so a drain that waits on it
        before closing idle keep-alive connections never finishes."""
        factory = GatedFactory()
        registry = make_registry()
        registry.register("slow", factory=factory, default_seed=7)
        st = ServerThread(registry)
        host, port = st.start()
        server = st.server

        async def wait_closed_like_3_12():
            while any(not writer.is_closing() for writer in server._writers):
                await asyncio.sleep(0.01)

        server._server.wait_closed = wait_closed_like_3_12
        idle = Client(host, port)
        assert idle.get("/healthz")[0] == 200  # now idles, kept alive
        results = [None]
        inflight = threading.Thread(
            target=_post_in_thread,
            args=(host, port, "/v1/query", {"dataset": "slow", "k": 3},
                  results, 0),
        )
        inflight.start()
        _wait_for_inflight(host, port, 1)
        drainer = threading.Thread(target=st.drain, daemon=True)
        drainer.start()
        deadline = time.monotonic() + 5
        while not server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        factory.gate.set()
        drainer.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not drainer.is_alive(), "drain hung on an idle client"
        inflight.join(timeout=30)
        assert not inflight.is_alive()
        status, payload = results[0]
        assert status == 200 and payload["size"] == 3  # answered in flight
        idle.close()

    def test_drain_is_idempotent(self):
        registry = DatasetRegistry()
        registry.register("alpha", frozen_data(), default_seed=7)
        st = ServerThread(registry)
        st.start()
        st.drain()
        st.drain()  # second drain is a no-op, not an error

    def test_warm_start_from_drained_spill(self, tmp_path):
        """A second server over the same spill dir serves the writes the
        first one drained — the cross-process restart story."""
        registry = make_registry(spill_dir=tmp_path)
        with ServerThread(registry) as (host, port):
            c = Client(host, port)
            status, _ = c.post(
                "/v1/write",
                {"dataset": "mut", "op": "insert", "key": 4_242,
                 "point": [0.6, 0.6], "group": 0},
            )
            assert status == 200
            c.close()
        # Fresh registry, same specs + spill dir: reloads, not rebuilds.
        registry2 = make_registry(spill_dir=tmp_path)
        with ServerThread(registry2) as (host, port):
            c = Client(host, port)
            status, payload = c.post("/v1/query", {"dataset": "mut", "k": 3})
            assert status == 200
            c.close()
        oracle = LiveFairHMSIndex(live_data(), default_seed=7)
        oracle.insert(4_242, np.array([0.6, 0.6]), 0)
        sol = oracle.query(3)
        assert payload["ids"] == [int(v) for v in sol.ids]
        assert registry2.metrics.snapshot()["datasets"]["mut"]["spill_loads"] == 1


# Run in a fresh interpreter: import the serving entry points, serve the
# three kinds of request perfbench drives (2-D IntCov, 4-D BiGreedy+, a
# WAL-logged live write), then score a 3-D answer exactly.
_SERVING_FOOTPRINT_SCRIPT = """
import json, sys

import repro.cli
import repro.cluster.supervisor
import repro.server.app
from repro.client import FairHMSClient
from repro.data.synthetic import anticorrelated_dataset
from repro.server import ServerThread, build_registry, parse_config
from repro.serving import FairHMSIndex

config = parse_config(json.loads(sys.argv[1]))
with ServerThread(build_registry(config)) as (host, port):
    with FairHMSClient(host, port) as client:
        flat = client.query("flat", 4)
        wide = client.query("wide", 6)
        ack = client.insert("mut", 9_001, [0.9, 0.9], 1)
        mut = client.query("mut", 3)
loaded_while_serving = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
cube = FairHMSIndex(anticorrelated_dataset(200, 3, 2, seed=44), default_seed=7)
mhr = cube.query(4).mhr()
print(json.dumps({
    "answers": {"flat": flat, "wide": wide, "mut": mut},
    "version": ack["version"],
    "loaded_while_serving": loaded_while_serving,
    "loaded_for_mhr": "scipy" in sys.modules,
    "mhr": mhr,
}))
"""


class TestServingImportFootprint:
    """SciPy backs only exact MHR evaluation (the LP and hull code), so
    no serving process imports it; it loads on the first exact score."""

    def test_serving_never_imports_scipy(self, tmp_path):
        raw = {
            "server": {"wal_dir": str(tmp_path / "wal")},
            "datasets": [
                {"name": "flat", "n": 300, "d": 2, "groups": 3, "seed": 40},
                {"name": "wide", "n": 600, "d": 4, "groups": 2, "seed": 41},
                {"name": "mut", "n": 200, "d": 2, "groups": 3, "seed": 42,
                 "live": True},
            ],
        }
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _SERVING_FOOTPRINT_SCRIPT, json.dumps(raw)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["loaded_while_serving"] == []
        assert out["loaded_for_mhr"] is True

        # The served answers are the in-process ones, bit for bit.
        specs = {spec.name: spec for spec in parse_config(raw).datasets}
        live = LiveFairHMSIndex(specs["mut"].factory()(), default_seed=7)
        live.insert(9_001, np.array([0.9, 0.9]), 1)
        assert out["version"] == live.version
        assert [p.name for p in (tmp_path / "wal").iterdir()], "WAL not written"
        expected = {
            "flat": FairHMSIndex(specs["flat"].factory()(), default_seed=7).query(4),
            "wide": FairHMSIndex(specs["wide"].factory()(), default_seed=7).query(6),
            "mut": live.query(3),
        }
        assert out["answers"]["flat"]["algorithm"] == "IntCov"
        assert out["answers"]["wide"]["algorithm"] == "BiGreedy+"
        for name, sol in expected.items():
            assert out["answers"][name]["ids"] == [int(v) for v in sol.ids]
            assert out["answers"][name]["mhr_estimate"] == sol.mhr_estimate
            assert out["answers"][name]["algorithm"] == sol.algorithm

        # SciPy on demand scores exactly what it scores in this process.
        cube = FairHMSIndex(anticorrelated_dataset(200, 3, 2, seed=44), default_seed=7)
        assert out["mhr"] == cube.query(4).mhr()


class TestConfig:
    def test_defaults_and_validation(self):
        config = ServerConfig()
        assert config.max_inflight == 64
        with pytest.raises(ValueError, match="max_inflight"):
            ServerConfig(max_inflight=0)
        with pytest.raises(ValueError, match="duplicate"):
            ServerConfig(
                datasets=(DatasetSpec(name="a"), DatasetSpec(name="a"))
            )
        with pytest.raises(ValueError, match="kind"):
            DatasetSpec(name="x", kind="parquet")
        with pytest.raises(ValueError, match="sequentially"):
            DatasetSpec(name="x", live=True, build_workers=4)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown \\[server\\] keys"):
            parse_config({"server": {"prot": 1}})
        with pytest.raises(ValueError, match="warmup"):
            parse_config({"server": {"warmup": False}})  # retired knob
        for knob in ("batch_window", "max_batch"):  # the retired batch window
            with pytest.raises(ValueError, match=knob):
                parse_config({"server": {knob: 1}})
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config({"datasets": [{"name": "a", "sise": 5}]})
        with pytest.raises(ValueError, match="top-level"):
            parse_config({"serverr": {}})

    def test_json_config_roundtrip(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(
            json.dumps(
                {
                    "server": {"port": 0, "max_inflight": 7, "spill_dir": "sp"},
                    "datasets": [
                        {"name": "a", "n": 200, "seed": 1},
                        {"name": "b", "n": 150, "seed": 2, "live": True},
                    ],
                }
            )
        )
        config = load_config(path)
        assert config.max_inflight == 7
        assert config.spill_dir == str(tmp_path / "sp")  # anchored to the file
        registry = build_registry(config)
        assert set(registry.names()) == {"a", "b"}
        assert registry.describe("b")["live"] is True
        # The factories really load (deterministically).
        assert registry.get("a").dataset.n == 200

    @pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11+")
    def test_toml_config(self, tmp_path):
        path = tmp_path / "server.toml"
        path.write_text(
            '[server]\nport = 0\nmax_inflight = 5\n\n'
            '[[datasets]]\nname = "a"\nn = 200\nseed = 3\n'
        )
        config = load_config(path)
        assert config.max_inflight == 5
        assert config.datasets[0].name == "a"

    def test_example_toml_config_parses(self):
        pytest.importorskip("tomllib")
        from pathlib import Path

        example = Path(__file__).resolve().parents[1] / "examples" / "server.toml"
        config = load_config(example)
        assert {spec.name for spec in config.datasets} == {
            "tenant0", "tenant1", "events",
        }
        assert any(spec.live for spec in config.datasets)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "server.yaml"
        path.write_text("{}")
        with pytest.raises(ValueError, match="unsupported config format"):
            load_config(path)

    def test_demo_config(self):
        config = demo_config(tenants=2, n=500)
        assert len(config.datasets) == 2
        registry = build_registry(config)
        assert set(registry.names()) == {"tenant0", "tenant1"}


class TestServerCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["server", "--demo"])
        assert args.config is None
        assert args.demo and not args.check
        assert args.tenants == 3

    def test_check_with_config_file(self, tmp_path, capsys):
        path = tmp_path / "srv.json"
        path.write_text(
            json.dumps(
                {
                    "server": {"port": 0},
                    "datasets": [{"name": "a", "n": 150, "seed": 4}],
                }
            )
        )
        assert main(["server", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "a: frozen" in out

    def test_check_demo(self, capsys):
        assert main(["server", "--demo", "--check", "--port", "0"]) == 0
        assert "3 dataset(s)" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["server"]) == 2
        assert main(["server", "x.toml", "--demo"]) == 2

    def test_bad_config_path(self, capsys):
        assert main(["server", "/nonexistent/conf.json", "--check"]) == 2
        assert "error:" in capsys.readouterr().out
