"""Observability: tracing, Prometheus exposition, SLO tracking.

The load-bearing invariants:

* spans measure only when a trace is active — unobserved code paths pay
  one thread-local read and produce :data:`NULL_SPAN`;
* trace propagation survives the thread hops of the serving stack
  (HTTP loop -> gateway actor -> registry build -> solver), and a
  coalesced follower's trace points at its leader instead of carrying a
  duplicate solve span;
* the Prometheus exposition is *valid* (the bench's CI gate scrapes it
  with the same parser used here) and its derived quantile gauges agree
  with ``merge_quantile`` — the single quantile implementation;
* SLO attainment is a pure function of the rolling window: exact
  nearest-rank latency quantiles, shed requests excluded.
"""

import json
import time

import pytest

from repro.data.synthetic import anticorrelated_dataset
from repro.obs import (
    NULL_SPAN,
    SloObjectives,
    SloTracker,
    Trace,
    TraceStore,
    child_of_current,
    current_span,
    current_trace,
    format_trace,
    parse_prometheus,
    process_stats,
    render_prometheus,
    use_trace,
    validate_exposition,
)
from repro.obs.trace import MAX_SPANS_PER_TRACE
from repro.server.config import parse_config
from repro.service import DatasetRegistry, Gateway, ServiceMetrics
from repro.service.metrics import LatencyHistogram, merge_quantile


def tenant(n=220, d=2, groups=2, seed=30, name="t"):
    return anticorrelated_dataset(n, d, groups, seed=seed, name=name)


# ---------------------------------------------------------------------- #
# spans and traces
# ---------------------------------------------------------------------- #


class TestSpanTrace:
    def test_span_tree_and_serialization(self):
        trace = Trace("req", dataset="a")
        with trace.child("outer", phase="x") as outer:
            inner = outer.child("inner")
            inner.annotate(rows=3)
            inner.end()
        entry = trace.finish().to_dict()
        assert entry["trace_id"] == trace.trace_id
        assert entry["spans"] == 3
        root = entry["root"]
        assert root["name"] == "req" and root["tags"] == {"dataset": "a"}
        (outer_d,) = root["children"]
        assert outer_d["tags"] == {"phase": "x"}
        (inner_d,) = outer_d["children"]
        assert inner_d["tags"] == {"rows": 3}
        # Durations nest: every child fits inside the root's window.
        assert 0 <= outer_d["start_s"] <= entry["duration_s"]
        assert inner_d["duration_s"] <= entry["duration_s"] + 1e-9

    def test_end_is_idempotent(self):
        trace = Trace()
        span = trace.child("s")
        span.end()
        stop = span.stop
        time.sleep(0.002)
        span.end()
        assert span.stop == stop

    def test_supplied_trace_id_honored_and_garbage_replaced(self):
        assert Trace(trace_id="client-abc-42").trace_id == "client-abc-42"
        for bad in (None, "", "x" * 200, "has\nnewline", "\x00bin"):
            generated = Trace(trace_id=bad).trace_id
            assert generated != bad
            assert len(generated) == 16  # secrets.token_hex(8)

    def test_span_cap_degrades_to_null_span(self):
        trace = Trace()
        spans = [trace.child(f"s{i}") for i in range(MAX_SPANS_PER_TRACE + 10)]
        assert spans[0] is not NULL_SPAN
        assert spans[-1] is NULL_SPAN
        assert trace.root.tags["spans_dropped"] == 11
        # The serialized tree stays bounded.
        assert trace.finish().to_dict()["spans"] == MAX_SPANS_PER_TRACE

    def test_use_trace_sets_and_restores(self):
        assert current_trace() is None
        assert child_of_current("x") is NULL_SPAN
        outer, inner = Trace("outer"), Trace("inner")
        with use_trace(outer):
            assert current_trace() is outer
            assert current_span() is outer.root
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
            with use_trace(None):  # explicit suppression nests too
                assert current_trace() is None
                assert child_of_current("x") is NULL_SPAN
            span = child_of_current("x", k=1)
            assert span is not NULL_SPAN and span.tags == {"k": 1}
        assert current_trace() is None

    def test_use_trace_restores_on_exception(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with use_trace(trace):
                raise RuntimeError("boom")
        assert current_trace() is None


class TestTraceStore:
    def record_one(self, store, *, duration, name="req"):
        trace = Trace(name)
        trace.root.start = 0.0
        trace.root.end(duration)
        return store.record(trace)

    def test_ring_is_bounded_and_slowest_survive(self):
        store = TraceStore(capacity=4, slow_threshold=0.5, keep_slowest=2)
        for i in range(10):
            self.record_one(store, duration=float(i), name=f"req{i}")
        stats = store.stats()
        assert stats["recorded"] == 10
        assert stats["buffered"] == 4
        # 0.5s threshold: requests 1..9 were slow.
        assert stats["slow"] == 9
        recent = store.recent()  # newest first
        assert [e["root"]["name"] for e in recent] == [
            "req9", "req8", "req7", "req6"
        ]
        # The worst offenders outlive the ring.
        slowest = store.slowest()
        assert [e["root"]["name"] for e in slowest] == ["req9", "req8"]

    def test_snapshot_shape_and_limit(self):
        store = TraceStore(capacity=8)
        for i in range(5):
            self.record_one(store, duration=0.001 * i)
        snap = store.snapshot(limit=3)
        assert set(snap) == {"recent", "slowest", "stats"}
        assert len(snap["recent"]) == 3
        json.dumps(snap)  # serializable as-is

    def test_record_finishes_open_traces(self):
        store = TraceStore(capacity=2)
        entry = store.record(Trace("open"))
        assert entry["duration_s"] >= 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)
        with pytest.raises(ValueError):
            TraceStore(slow_threshold=0.0)

    def test_format_trace_renders_tree(self):
        trace = Trace("req", dataset="a")
        trace.child("solve", k=4).end()
        text = format_trace(TraceStore(capacity=1).record(trace))
        assert f"trace {trace.trace_id}" in text
        assert "solve" in text and "k=4" in text


# ---------------------------------------------------------------------- #
# metrics: counter validation + shared quantile math (satellites 1 + 2)
# ---------------------------------------------------------------------- #


class TestMetricsValidation:
    def test_unknown_counter_raises_with_valid_names(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError) as exc:
            metrics.incr("a", "solvs")  # the classic typo
        message = str(exc.value)
        assert "solvs" in message
        assert "solves" in message and "coalesced" in message
        # Checked before touching state: no dataset block side-effect.
        assert metrics.snapshot()["datasets"] == {}

    def test_known_counters_all_accepted(self):
        metrics = ServiceMetrics()
        for name in ("requests", "solves", "coalesced", "shed", "wal_appends"):
            metrics.incr("a", name)
        assert metrics.snapshot()["datasets"]["a"]["shed"] == 1


class TestMergeQuantile:
    def test_empty_and_single_histogram(self):
        assert merge_quantile([], 0.5) is None
        hist = LatencyHistogram()
        assert merge_quantile([hist], 0.5) is None
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        assert merge_quantile([hist], 0.5) == hist.quantile(0.5)
        assert merge_quantile([hist], 0.99) == hist.quantile(0.99)

    def test_merged_equals_union_histogram(self):
        # Bucketing is deterministic, so quantiles over N separate
        # histograms merged == one histogram fed the union of samples.
        import random

        rng = random.Random(7)
        samples = [rng.uniform(1e-4, 2.0) for _ in range(300)]
        union = LatencyHistogram()
        parts = [LatencyHistogram() for _ in range(3)]
        for i, v in enumerate(samples):
            union.observe(v)
            parts[i % 3].observe(v)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert merge_quantile(parts, q) == union.quantile(q)

    def test_service_quantiles_route_through_merge_quantile(self):
        metrics = ServiceMetrics()
        for i in range(10):
            metrics.observe_solve("a", 0.001 * (i + 1))
            metrics.observe_request("a", 0.002 * (i + 1))
        hists = [
            metrics.snapshot()["datasets"]["a"],  # shape check only
        ]
        assert hists[0]["solve_latency"]["count"] == 10
        assert metrics.solve_quantile(0.5) == pytest.approx(
            merge_quantile(
                [metrics._stats("a").solve_latency], 0.5  # noqa: SLF001
            )
        )
        assert metrics.request_quantile(0.99) is not None


# ---------------------------------------------------------------------- #
# prometheus exposition
# ---------------------------------------------------------------------- #


def populated_metrics() -> ServiceMetrics:
    metrics = ServiceMetrics(scenario="unit")
    for dataset in ("a", "b"):
        metrics.incr(dataset, "requests", 5)
        metrics.incr(dataset, "solves", 3)
        for i in range(5):
            metrics.observe_request(dataset, 0.002 * (i + 1))
            metrics.observe_solve(dataset, 0.001 * (i + 1))
        metrics.observe_phase(dataset, "search", 0.003)
    metrics.record_batch(4)
    return metrics


class TestPrometheus:
    def test_round_trip_and_validation(self):
        metrics = populated_metrics()
        slo = SloTracker(SloObjectives())
        slo.record("a", 0.01)
        slo.record("a", 0.3, ok=False)
        store = TraceStore(capacity=4)
        store.record(Trace("req"))
        text = render_prometheus(
            metrics,
            gauges={"inflight": 2, "skipped": None},
            slo=slo.snapshot(),
            process=process_stats(),
            traces=store.stats(),
        )
        validate_exposition(text)
        families = parse_prometheus(text)

        req = families["repro_requests_total"]
        assert req["type"] == "counter"
        by_dataset = {s[1]["dataset"]: s[2] for s in req["samples"]}
        assert by_dataset == {"a": 5.0, "b": 5.0}
        assert all(s[1]["scenario"] == "unit" for s in req["samples"])

        hist = families["repro_request_latency_seconds"]
        assert hist["type"] == "histogram"
        names = {s[0] for s in hist["samples"]}
        assert {
            "repro_request_latency_seconds_bucket",
            "repro_request_latency_seconds_sum",
            "repro_request_latency_seconds_count",
        } <= names
        counts = {
            s[1]["dataset"]: s[2]
            for s in hist["samples"]
            if s[0].endswith("_count")
        }
        assert counts == {"a": 5.0, "b": 5.0}

        # Derived quantile gauges agree with the shared implementation.
        p99 = families["repro_solve_latency_p99_seconds"]["samples"][0][2]
        assert p99 == metrics.solve_quantile(0.99)

        # SLO + gauges + process + traces all present.
        assert families["repro_inflight"]["samples"][0][2] == 2.0
        assert "skipped" not in {f.split("_", 1)[1] for f in families}
        slo_attained = {
            s[1]["dataset"]: s[2]
            for s in families["repro_slo_attained"]["samples"]
        }
        assert slo_attained == {"a": 0.0}  # one 5xx in a 2-request window
        assert families["repro_process_threads"]["samples"][0][2] >= 1.0
        assert families["repro_traces_recorded_total"]["samples"][0][2] == 1.0

    def test_phase_histograms_carry_phase_label(self):
        text = render_prometheus(populated_metrics())
        families = parse_prometheus(text)
        phase = families["repro_solve_phase_seconds"]
        labels = {
            (s[1]["dataset"], s[1]["phase"])
            for s in phase["samples"]
            if s[0].endswith("_count")
        }
        assert labels == {("a", "search"), ("b", "search")}

    def test_validate_exposition_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="_total"):
            validate_exposition(
                "# TYPE repro_requests counter\nrepro_requests 1\n"
            )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_exposition(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.1"} 1\n'
                "repro_h_sum 0.05\n"
                "repro_h_count 1\n"
            )
        with pytest.raises(ValueError, match="non-cumulative"):
            validate_exposition(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.1"} 2\n'
                'repro_h_bucket{le="0.5"} 1\n'
                'repro_h_bucket{le="+Inf"} 2\n'
                "repro_h_sum 0.05\n"
                "repro_h_count 2\n"
            )
        with pytest.raises(ValueError, match="TYPE"):
            validate_exposition("repro_mystery 1\n")

    def test_parser_unescapes_label_values(self):
        text = (
            "# TYPE repro_g gauge\n"
            'repro_g{name="a\\"b\\\\c\\nd"} 1\n'
        )
        families = parse_prometheus(text)
        assert families["repro_g"]["samples"][0][1]["name"] == 'a"b\\c\nd'


# ---------------------------------------------------------------------- #
# SLO objectives and tracking
# ---------------------------------------------------------------------- #


class TestSlo:
    def test_objectives_validation(self):
        with pytest.raises(ValueError):
            SloObjectives(latency_quantile=1.0)
        with pytest.raises(ValueError):
            SloObjectives(latency_target_s=0.0)
        with pytest.raises(ValueError):
            SloObjectives(error_rate=-0.1)
        with pytest.raises(ValueError):
            SloObjectives(window=0)

    def test_from_dict_rejects_unknown_and_bad_types(self):
        obj = SloObjectives.from_dict(
            {"latency_quantile": 0.95, "latency_target_s": 0.05}
        )
        assert obj.latency_quantile == 0.95 and obj.window == 512
        with pytest.raises(ValueError, match="unknown"):
            SloObjectives.from_dict({"latency_p99": 0.1})
        with pytest.raises(ValueError):
            SloObjectives.from_dict({"window": 10.5})
        assert SloObjectives.from_dict(obj.to_dict()) == obj

    def test_latency_objective_is_exact_nearest_rank(self):
        tracker = SloTracker(
            SloObjectives(latency_quantile=0.9, latency_target_s=0.1, window=10)
        )
        for _ in range(9):
            tracker.record("a", 0.01)
        tracker.record("a", 5.0)  # the one slow request = the p90 edge
        status = tracker.snapshot()["datasets"]["a"]
        assert status["window"] == 10
        assert status["latency_observed_s"] == 0.01  # rank ceil(0.9*10)=9
        assert status["latency_attained"] is True
        tracker.record("a", 5.0)  # second slow sample pushes p90 over
        status = tracker.snapshot()["datasets"]["a"]
        assert status["latency_observed_s"] == 5.0
        assert status["latency_attained"] is False
        assert status["attained"] is False

    def test_error_budget_burn(self):
        tracker = SloTracker(SloObjectives(error_rate=0.1, window=20))
        for i in range(20):
            tracker.record("a", 0.01, ok=i != 0)
        status = tracker.snapshot()["datasets"]["a"]
        assert status["errors"] == 1
        assert status["error_rate"] == pytest.approx(0.05)
        assert status["error_budget_burn"] == pytest.approx(0.5)
        assert status["availability_attained"] is True

    def test_zero_budget_burn_is_none_not_infinity(self):
        tracker = SloTracker(SloObjectives(error_rate=0.0))
        tracker.record("a", 0.01, ok=False)
        status = tracker.snapshot()["datasets"]["a"]
        assert status["error_budget_burn"] is None
        assert status["availability_attained"] is False
        json.dumps(tracker.snapshot())  # no Infinity leaks into JSON

    def test_window_rolls(self):
        tracker = SloTracker(SloObjectives(window=4))
        for _ in range(4):
            tracker.record("a", 9.0, ok=False)
        for _ in range(4):
            tracker.record("a", 0.001)
        status = tracker.snapshot()["datasets"]["a"]
        assert status["window"] == 4
        assert status["errors"] == 0 and status["attained"] is True


class TestProcessStats:
    def test_gauges_present_and_sane(self):
        stats = process_stats()
        assert stats["threads"] >= 1
        assert stats["uptime_s"] >= 0.0
        assert stats["gc_gen0"] >= 0
        assert stats["gc_collections"] >= 0
        rss = stats["max_rss_bytes"]
        # None only where the resource module is missing entirely.
        assert rss is None or rss > 10 * 2**20
        json.dumps(stats)


# ---------------------------------------------------------------------- #
# config plumbing
# ---------------------------------------------------------------------- #


class TestConfig:
    def test_tracing_and_slo_sections_parse(self):
        config = parse_config(
            {
                "server": {
                    "tracing": True,
                    "trace_buffer": 32,
                    "slow_trace_s": 0.25,
                },
                "slo": {"latency_target_s": 0.05, "window": 64},
            }
        )
        assert config.trace_buffer == 32
        assert config.slow_trace_s == 0.25
        assert config.slo.latency_target_s == 0.05
        assert config.slo.window == 64

    def test_slo_never_a_server_key(self):
        with pytest.raises(ValueError, match=r"\[server\] keys"):
            parse_config({"server": {"slo": {}}})

    def test_bad_observability_values_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"server": {"trace_buffer": 0}})
        with pytest.raises(ValueError):
            parse_config({"server": {"slow_trace_s": 0.0}})
        with pytest.raises(ValueError, match="unknown"):
            parse_config({"slo": {"p99": 0.1}})


# ---------------------------------------------------------------------- #
# propagation through the serving stack (satellite 4)
# ---------------------------------------------------------------------- #


def span_names(entry: dict) -> set:
    names = set()

    def walk(span):
        names.add(span["name"])
        for child in span.get("children", []):
            walk(child)

    walk(entry["root"])
    return names


class TestGatewayPropagation:
    def make(self):
        reg = DatasetRegistry()
        reg.register("a", tenant(seed=36, name="a"))
        return reg, Gateway(reg)

    def test_coalesced_follower_points_at_leader(self):
        reg, gw = self.make()
        traces = [Trace(f"req{i}") for i in range(3)]
        futures = [gw.submit("a", 4, trace=t) for t in traces]
        gw.drain()
        for f in futures:
            f.result(timeout=0)
        entries = [t.finish().to_dict() for t in traces]
        leaders = [e for e in entries if "solve" in span_names(e)]
        followers = [e for e in entries if "solve" not in span_names(e)]
        assert len(leaders) == 1 and len(followers) == 2
        leader = leaders[0]
        assert leader["root"]["tags"]["coalesce_group"] == 3
        # The leader paid the cold build too.
        assert "build" in span_names(leader)
        assert "queue_wait" in span_names(leader)
        for follower in followers:
            tags = follower["root"]["tags"]
            assert tags["coalesced_into"] == leader["trace_id"]
            assert tags["coalesce_group"] == 3
            # No duplicate solve span — the whole point of coalescing.
            assert span_names(follower) == {follower["root"]["name"],
                                            "queue_wait"}

    def test_untraced_ops_still_coalesce_without_spans(self):
        reg, gw = self.make()
        traced = Trace("traced")
        futures = [gw.submit("a", 4), gw.submit("a", 4, trace=traced)]
        gw.drain()
        assert futures[0].result(timeout=0) is futures[1].result(timeout=0)
        entry = traced.finish().to_dict()
        # The only traced op leads its group even arriving second.
        assert "solve" in span_names(entry)

    def test_write_trace_gets_queue_wait_and_apply(self):
        reg = DatasetRegistry()
        reg.register("m", tenant(seed=38, name="m"), live=True)
        gw = Gateway(reg)
        trace = Trace("write")
        future = gw.submit_update("m", "delete", 3, trace=trace)
        gw.drain()
        future.result(timeout=0)
        names = span_names(trace.finish().to_dict())
        assert {"queue_wait", "apply_write"} <= names

    def test_solver_phases_become_child_spans(self):
        reg, gw = self.make()
        trace = Trace("req")
        future = gw.submit("a", 4, trace=trace)
        gw.drain()
        solution = future.result(timeout=0)
        entry = trace.finish().to_dict()
        solve = next(
            c for c in entry["root"]["children"] if c["name"] == "solve"
        )
        phases = dict(solution.stats["phases"])
        assert [c["name"] for c in solve["children"]] == list(phases)
        # to_dict rounds durations to microseconds for JSON compactness.
        for child in solve["children"]:
            assert child["duration_s"] == pytest.approx(
                phases[child["name"]], abs=1e-6
            )
        # Phase spans tile the solve span.
        assert sum(phases.values()) <= solve["duration_s"] + 1e-6


# ---------------------------------------------------------------------- #
# end-to-end over HTTP
# ---------------------------------------------------------------------- #


class TestHttpTracing:
    def serve(self, **kwargs):
        from repro.server import ServerThread

        reg = DatasetRegistry()
        reg.register("a", tenant(seed=42, name="a"), default_seed=7)
        return reg, ServerThread(reg, **kwargs)

    @staticmethod
    def unwrap(body):
        # /v1/* responses arrive in the v1.1 envelope; these tests care
        # about the payload (the envelope has its own tests).
        if isinstance(body, dict) and "data" in body and "meta" in body:
            return body["data"] if body.get("error") is None else body
        return body

    def post(self, host, port, path, payload, headers=None):
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request(
            "POST", path, json.dumps(payload).encode(), headers or {}
        )
        resp = conn.getresponse()
        body = self.unwrap(json.loads(resp.read()))
        trace_id = resp.getheader("x-repro-trace")
        conn.close()
        return resp.status, body, trace_id

    def get(self, host, port, path):
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", path)
        resp = conn.getresponse()
        body = self.unwrap(json.loads(resp.read()))
        conn.close()
        return resp.status, body

    def test_cold_query_trace_explains_the_latency(self):
        reg, thread = self.serve()
        with thread as (host, port):
            t0 = time.perf_counter()
            status, _, trace_id = self.post(
                host, port, "/v1/query", {"dataset": "a", "k": 4},
                {"x-repro-trace": "e2e-cold-1"},
            )
            client_s = time.perf_counter() - t0
            assert status == 200
            assert trace_id == "e2e-cold-1"  # caller's id honored
            status, payload = self.get(host, port, "/v1/traces")
            assert status == 200 and payload["tracing"] is True
            (entry,) = payload["recent"]
        assert entry["trace_id"] == "e2e-cold-1"
        root = entry["root"]
        assert root["name"] == "POST /v1/query"
        assert root["tags"]["dataset"] == "a"
        assert root["tags"]["status"] == 200
        children = {c["name"]: c for c in root["children"]}
        # The cold path, fully attributed: queue wait, registry build,
        # solve with the solver's own phase breakdown.
        assert {"queue_wait", "build", "solve"} <= set(children)
        assert [c["name"] for c in children["solve"]["children"]] == [
            "geometry", "search", "finalize"
        ]
        # Span accounting is consistent with the observed latency: every
        # child fits in the root window, and the root fits what the
        # client measured.
        for child in root["children"]:
            assert child["start_s"] + child["duration_s"] <= (
                entry["duration_s"] + 1e-6
            )
        assert entry["duration_s"] <= client_s

    def test_write_trace_and_generated_ids(self):
        reg, thread = self.serve()
        with thread as (host, port):
            reg.register("m", tenant(seed=43, name="m"), live=True)
            status, _, trace_id = self.post(
                host, port, "/v1/write",
                {"dataset": "m", "op": "delete", "key": 2},
            )
            assert status == 200
            assert trace_id and len(trace_id) == 16  # generated, emitted
            _, payload = self.get(host, port, "/v1/traces")
            entry = next(
                e for e in payload["recent"] if e["trace_id"] == trace_id
            )
        assert {"queue_wait", "apply_write"} <= span_names(entry)

    def test_error_requests_are_traced_and_counted_against_slo(self):
        reg, thread = self.serve()
        with thread as (host, port):
            status, body, trace_id = self.post(
                host, port, "/v1/query", {"dataset": "a", "k": 10_000},
            )
            assert status == 400  # infeasible k: client error
            assert trace_id is not None
            _, metrics = self.get(host, port, "/v1/metrics")
            _, payload = self.get(host, port, "/v1/traces")
            entry = next(
                e for e in payload["recent"] if e["trace_id"] == trace_id
            )
        assert entry["root"]["tags"]["error"] is True
        assert entry["root"]["tags"]["status"] == 400
        slo = metrics["slo"]["datasets"]["a"]
        # 4xx: in the latency window but not an availability error.
        assert slo["window"] == 1 and slo["errors"] == 0

    def test_tracing_disabled_is_clean(self):
        reg, thread = self.serve(tracing=False)
        with thread as (host, port):
            status, _, trace_id = self.post(
                host, port, "/v1/query", {"dataset": "a", "k": 4},
                {"x-repro-trace": "ignored"},
            )
            assert status == 200 and trace_id is None
            status, payload = self.get(host, port, "/v1/traces")
            assert status == 200
            assert payload == {"tracing": False, "recent": [], "slowest": []}
            # SLO tracking still works without tracing.
            _, metrics = self.get(host, port, "/v1/metrics")
            assert metrics["slo"]["datasets"]["a"]["window"] == 1
            assert "traces" not in metrics

    def test_traces_limit_param_validated(self):
        reg, thread = self.serve()
        with thread as (host, port):
            status, body = self.get(host, port, "/v1/traces?limit=zap")
            assert status == 400
            status, body = self.get(host, port, "/v1/traces?limit=1")
            assert status == 200 and len(body["recent"]) <= 1
