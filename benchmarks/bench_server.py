"""Benchmark: the HTTP serving front-end under closed- and open-loop load.

Replays the PR 3 multi-tenant workload (Zipf tenant skew, hot-set query
redundancy) against a real ``repro.server`` instance over real sockets,
two ways:

* **closed loop** — N client threads with persistent keep-alive
  connections, each issuing its next request as soon as the previous
  answer lands.  This measures sustained throughput *and* tail latency;
  the acceptance floors are >= 50 req/s and p99 < 100 ms on the
  AntiCor-2D 3-tenant workload.  Before the loop opens, the bench
  primes the server through the client with one query per (tenant, k)
  of the stream — the p99 floor is about *serving*, so cold builds and
  first-query geometry stay out of the tail.
* **open loop** — requests arrive on a fixed wall-clock schedule
  regardless of completions, the arrival rate set above the measured
  closed-loop capacity.  This exercises admission control: excess
  requests are shed with 429, and the bench cross-checks the server's
  ``shed`` counter against the client-observed 429 count.

All HTTP traffic goes through the ``repro.client.FairHMSClient`` SDK
(keep-alive reuse, envelope parsing, typed errors) — the loops count
:class:`~repro.client.RequestShed` instead of parsing status codes.

Every HTTP 200 answer is verified **bit-identical** (ids + solver MHR
estimate; JSON round-trips floats exactly) against an in-process
``Gateway.drain()`` replay of the same request stream — the network
layer must never change an answer.

Run as a script for a smoke check that also writes ``BENCH_server.json``
(validated in CI by ``benchmarks/check_bench.py``)::

    PYTHONPATH=src python benchmarks/bench_server.py --tiny

With ``--scenario NAME_OR_PATH`` the synthetic tenant workload is
replaced by a declarative scenario from ``repro.scenarios``: datasets
come from the scenario's materialized tenants and the request stream is
its HTTP trace.  The open loop then follows the trace's own arrival
schedule (rescaled to the target mean rate), so flash-crowd scenarios
hit the server with their bursts intact::

    PYTHONPATH=src python benchmarks/bench_server.py \\
        --scenario admissions-intersectional
"""

import argparse
import http.client
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.benchio import write_bench_json
from repro.client import FairHMSClient, FairHMSError, RequestShed
from repro.obs.prometheus import parse_prometheus, validate_exposition
from repro.scenarios import (
    materialize,
    resolve_scenario,
    service_requests,
    shrink_spec,
)
from repro.server import ServerThread
from repro.service import DatasetRegistry, Gateway
from repro.service.workload import build_tenant_datasets, build_tenant_workload

NUM_TENANTS = 3
NUM_REQUESTS = 120
KS = (4, 6, 8)
SEED = 3
DEFAULT_SEED = 7
THROUGHPUT_FLOOR = 50.0  # req/s, closed loop, non-tiny
# Recorded in ``floors`` like the others but semantically a *ceiling*:
# closed-loop p99 must come in under it (the cold-solve tail crushed).
LATENCY_P99_CEIL_S = 0.1


def request_payload(r) -> dict:
    return {
        "dataset": r.dataset,
        "k": r.query.k,
        "eps": r.query.eps,
        "algorithm": r.query.algorithm,
        "alpha": r.query.alpha,
    }


def oracle_replay(datasets, requests):
    """In-process ground truth: the same stream through Gateway.drain().

    Returns ``(elapsed_s, answers)`` where each answer is
    ``(ids_list, mhr_estimate)`` — exactly the bit-identity surface the
    HTTP responses are compared against.
    """
    registry = DatasetRegistry()
    for name, data in datasets.items():
        registry.register(name, data, default_seed=DEFAULT_SEED)
    gateway = Gateway(registry)
    t0 = time.perf_counter()
    futures = [
        gateway.submit(
            r.dataset,
            r.query.k,
            eps=r.query.eps,
            algorithm=r.query.algorithm,
            alpha=r.query.alpha,
        )
        for r in requests
    ]
    gateway.drain()
    answers = []
    for f in futures:
        solution = f.result(timeout=600)
        est = solution.mhr_estimate
        answers.append(
            ([int(v) for v in solution.ids], None if est is None else float(est))
        )
    return time.perf_counter() - t0, answers


def _post_query(client, payload):
    """One /v1/query through the SDK; returns ``(status, data)``."""
    resp = client.request("POST", "/v1/query", payload, retry=False)
    return resp.status, resp.data


def closed_loop(host, port, requests, *, clients):
    """All clients busy at once, each looping over its share of the stream."""
    answers = [None] * len(requests)
    latencies = [0.0] * len(requests)
    sheds = [0] * max(1, clients)
    barrier = threading.Barrier(clients + 1)

    def worker(w):
        client = FairHMSClient(host, port, timeout=300)
        barrier.wait()
        for i in range(w, len(requests), clients):
            payload = request_payload(requests[i])
            t0 = time.perf_counter()
            while True:
                try:
                    status, data = _post_query(client, payload)
                except RequestShed:  # closed loop: back off and retry
                    sheds[w] += 1
                    time.sleep(0.005)
                    continue
                except FairHMSError as exc:
                    # Record the failure; the SDK reconnects on its own.
                    # A None answer is a *failure* in the closed loop, so
                    # a dead request must not go silently unverified.
                    status = exc.status or 0
                    data = {"error": f"{type(exc).__name__}: {exc}"}
                latencies[i] = time.perf_counter() - t0
                answers[i] = (status, data)
                break
        client.close()

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, answers, latencies, sum(sheds)


def open_loop(host, port, requests, *, rate, pool_size=16, offsets=None):
    """Fixed arrival rate; sheds are expected and counted, not retried.

    With ``offsets`` (a monotone schedule of arrival times, e.g. from a
    scenario trace) the arrivals follow that schedule rescaled so the
    *mean* rate equals ``rate`` — burst shape is preserved, only the
    clock speed changes.  Without it, arrivals are uniform at ``rate``.
    """
    answers = [None] * len(requests)
    counts = {"ok": 0, "shed": 0, "error": 0}
    lock = threading.Lock()
    local = threading.local()

    if offsets is not None and len(offsets) == len(requests):
        span = float(offsets[-1]) if len(offsets) else 0.0
        scale = (len(requests) / rate) / span if span > 0 else 0.0
        schedule = [float(o) * scale for o in offsets]
    else:
        schedule = [i / rate for i in range(len(requests))]

    def issue(i):
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = FairHMSClient(host, port, timeout=300)
        try:
            status, data = _post_query(client, request_payload(requests[i]))
        except RequestShed:
            with lock:
                counts["shed"] += 1
            return
        except FairHMSError:
            with lock:
                counts["error"] += 1
            return
        with lock:
            if status == 200:
                counts["ok"] += 1
                answers[i] = (status, data)
            else:
                counts["error"] += 1

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        pending = []
        for i in range(len(requests)):
            delay = (t0 + schedule[i]) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pending.append(pool.submit(issue, i))
        for f in pending:
            f.result(timeout=600)
    return time.perf_counter() - t0, answers, counts


def verify_http_answers(answers, oracle, *, require_all=False) -> list:
    """Indexes whose HTTP answer differs from the in-process replay.

    With ``require_all`` (the closed loop: every request must have been
    answered) a missing entry counts as a mismatch; without it (the open
    loop) ``None`` marks a shed or errored request — already accounted
    for separately — and only the 200s are compared.
    """
    mismatches = []
    for i, entry in enumerate(answers):
        if entry is None:
            if require_all:
                mismatches.append(i)
            continue
        status, data = entry
        if status != 200:
            mismatches.append(i)
            continue
        ids, est = oracle[i]
        if data["ids"] != ids or data["mhr_estimate"] != est:
            mismatches.append(i)
    return mismatches


def fetch_metrics(host, port) -> dict:
    with FairHMSClient(host, port, timeout=60) as client:
        return client.metrics()


def fetch_exposition(host, port) -> str:
    """Scrape the Prometheus text exposition from ``/metrics``."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request("GET", "/metrics")
    resp = conn.getresponse()
    ctype = resp.getheader("Content-Type", "")
    text = resp.read().decode("utf-8")
    conn.close()
    assert resp.status == 200, f"GET /metrics -> {resp.status}"
    assert ctype.startswith("text/plain; version=0.0.4"), ctype
    return text


def fetch_traces(host, port, *, limit=20) -> dict:
    with FairHMSClient(host, port, timeout=60) as client:
        return client.traces(limit=limit)


def prime(host, port, requests) -> tuple[float, int]:
    """Send the stream's first query per (tenant, k), keeping cold builds
    and geometry out of the loops; returns ``(seconds, queries sent)``."""
    first = {}
    for r in requests:
        first.setdefault((r.dataset, r.query.k), r)
    t0 = time.perf_counter()
    with FairHMSClient(host, port, timeout=300) as client:
        for r in first.values():
            client.request("POST", "/v1/query", request_payload(r))
    return time.perf_counter() - t0, len(first)


def test_http_answers_bit_identical():
    """Closed-loop HTTP answers == in-process Gateway.drain() replay."""
    datasets = build_tenant_datasets(350)
    requests = build_tenant_workload(
        datasets, num_requests=24, ks=KS, seed=SEED
    )
    _, oracle = oracle_replay(datasets, requests)
    registry = DatasetRegistry()
    for name, data in datasets.items():
        registry.register(name, data, default_seed=DEFAULT_SEED)
    with ServerThread(registry) as (host, port):
        _, answers, _, _ = closed_loop(host, port, requests, clients=4)
    assert verify_http_answers(answers, oracle, require_all=True) == []


def test_open_loop_sheds_match_server_counter():
    """Client-observed 429s == the server's ServiceMetrics shed counter."""
    datasets = build_tenant_datasets(350, tenants=1)
    requests = build_tenant_workload(
        datasets, num_requests=16, ks=KS, seed=SEED
    )
    _, oracle = oracle_replay(datasets, requests)
    registry = DatasetRegistry()
    for name, data in datasets.items():
        registry.register(name, data, default_seed=DEFAULT_SEED)
    registry.get("tenant0")  # pre-build; the floor is about serving
    with ServerThread(registry, max_inflight=1) as (host, port):
        _, answers, counts = open_loop(host, port, requests, rate=400.0)
        metrics = fetch_metrics(host, port)
    assert verify_http_answers(answers, oracle) == []
    assert counts["error"] == 0
    assert metrics["service"]["totals"]["shed"] == counts["shed"]


def test_prometheus_scrape_and_tracing_tail():
    """The CI observability perf gate (run via ``pytest -k prometheus``).

    A primed server under a tiny closed loop — with tracing **on** (the
    default) — must (a) serve a valid Prometheus exposition carrying the
    request counters and SLO gauges, (b) have recorded traces whose span
    trees contain the queue-wait and solve spans, and (c) keep the
    client-observed p99 under the 100 ms serving ceiling: tracing
    overhead is part of the serving contract, not an excuse.
    """
    datasets = build_tenant_datasets(350)
    requests = build_tenant_workload(datasets, num_requests=24, ks=KS, seed=SEED)
    registry = DatasetRegistry()
    for name, data in datasets.items():
        registry.register(name, data, default_seed=DEFAULT_SEED)
    with ServerThread(registry) as (host, port):
        _, primes = prime(host, port, requests)
        _, answers, latencies, _ = closed_loop(host, port, requests, clients=4)
        text = fetch_exposition(host, port)
        traces = fetch_traces(host, port)
        metrics = fetch_metrics(host, port)
    assert all(a is not None and a[0] == 200 for a in answers)

    # (a) valid exposition, counters present with dataset labels, SLO gauges.
    validate_exposition(text)
    families = parse_prometheus(text)
    assert "repro_requests_total" in families
    req_samples = families["repro_requests_total"]["samples"]
    assert {s[1]["dataset"] for s in req_samples} == set(datasets)
    assert sum(s[2] for s in req_samples) == primes + len(requests)
    assert "repro_request_latency_seconds" in families
    assert families["repro_request_latency_seconds"]["type"] == "histogram"
    for gauge in ("repro_slo_attained", "repro_slo_latency_ok_ratio",
                  "repro_process_max_rss_bytes", "repro_traces_buffered"):
        assert gauge in families, gauge

    # (b) traces recorded, span trees carry queue_wait + solve.
    assert traces["tracing"] is True
    assert traces["stats"]["recorded"] >= len(requests)
    query_traces = [
        t for t in traces["recent"] if t["root"]["name"] == "POST /v1/query"
    ]
    assert query_traces, "no query traces in the ring"
    span_names = {
        c["name"] for t in query_traces for c in t["root"].get("children", [])
    }
    assert "queue_wait" in span_names
    # Every query trace must explain where its answer came from: its own
    # solve span, a result-cache hit, or coalescing onto another trace's
    # solve (followers carry ``coalesced_into`` instead of a duplicate
    # solve span).
    explained = [
        t for t in query_traces
        if "solve" in {c["name"] for c in t["root"].get("children", [])}
        or t["root"]["tags"].get("result_cache_hit")
        or "coalesced_into" in t["root"]["tags"]
    ]
    assert len(explained) == len(query_traces)

    # (c) the tracing-enabled serving tail, client-observed.
    p99 = float(np.percentile(np.asarray(latencies), 99))
    assert p99 <= LATENCY_P99_CEIL_S, f"p99 {p99 * 1e3:.1f}ms with tracing on"
    # And the SLO tracker agrees the window was healthy.
    slo = metrics["slo"]
    assert all(d["attained"] for d in slo["datasets"].values()), slo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small smoke workload (n=350, 24 requests) for CI",
    )
    parser.add_argument("--n", type=int, default=1_500, help="tenant size")
    parser.add_argument("--tenants", type=int, default=NUM_TENANTS)
    parser.add_argument("--requests", type=int, default=NUM_REQUESTS)
    parser.add_argument("--clients", type=int, default=8, help="closed-loop clients")
    parser.add_argument(
        "--max-inflight", type=int, default=64, help="admission-control bound"
    )
    parser.add_argument(
        "--open-rate",
        type=float,
        default=None,
        help="open-loop arrival rate in req/s (default: 2x measured capacity)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--scenario",
        default=None,
        help="scenario name or spec path; replaces the synthetic workload",
    )
    parser.add_argument(
        "--pack", default=None, help="scenario pack directory (with --scenario)"
    )
    args = parser.parse_args(argv)
    if args.tiny:
        args.n, args.requests, args.clients = 350, 24, 4

    scenario_name = None
    arrival_offsets = None
    if args.scenario:
        spec = resolve_scenario(args.scenario, pack_dir=args.pack)
        if args.tiny:
            spec = shrink_spec(spec)
        scenario = materialize(spec)
        scenario_name = spec.name
        datasets = scenario.datasets
        arrival_offsets, requests = service_requests(scenario)
        ks = sorted({r.query.k for r in requests})
        print(
            f"scenario {spec.name}: {len(datasets)} tenant(s) "
            f"({sum(d.n for d in datasets.values())} rows), "
            f"{len(requests)} trace requests, ks={ks}"
        )
    else:
        datasets = build_tenant_datasets(args.n, tenants=args.tenants)
        requests = build_tenant_workload(
            datasets, num_requests=args.requests, ks=KS, seed=args.seed
        )
        ks = list(KS)

    oracle_s, oracle = oracle_replay(datasets, requests)
    print(
        f"oracle:  {len(requests)} req via in-process Gateway.drain() in "
        f"{oracle_s:.2f}s (builds included)"
    )

    registry = DatasetRegistry()
    registry.metrics.scenario = scenario_name
    for name, data in datasets.items():
        registry.register(name, data, default_seed=DEFAULT_SEED)
    t0 = time.perf_counter()
    for name in datasets:
        registry.get(name)  # pre-build; the floor measures serving
    build_s = time.perf_counter() - t0

    with ServerThread(registry, max_inflight=args.max_inflight) as (host, port):
        prime_s, primes = prime(host, port, requests)
        print(f"prime:   {primes} (tenant, k) queries in {prime_s:.2f}s")
        closed_s, closed_answers, latencies, closed_sheds = closed_loop(
            host, port, requests, clients=args.clients
        )
        throughput = len(requests) / max(closed_s, 1e-12)
        lat = np.asarray(latencies)
        print(
            f"closed:  {len(requests)} req x {args.clients} clients in "
            f"{closed_s:.2f}s = {throughput:.1f} req/s "
            f"(p50 {np.percentile(lat, 50) * 1e3:.1f}ms, "
            f"p99 {np.percentile(lat, 99) * 1e3:.1f}ms; builds {build_s:.2f}s "
            f"excluded)"
        )

        open_rate = args.open_rate or max(20.0, 2.0 * throughput)
        open_s, open_answers, open_counts = open_loop(
            host, port, requests, rate=open_rate, offsets=arrival_offsets
        )
        achieved = len(requests) / max(open_s, 1e-12)
        print(
            f"open:    arrival {open_rate:.0f} req/s (achieved {achieved:.0f}) "
            f"-> {open_counts['ok']} ok, {open_counts['shed']} shed, "
            f"{open_counts['error']} errors"
        )

        metrics = fetch_metrics(host, port)
        exposition = fetch_exposition(host, port)
    validate_exposition(exposition)
    totals = metrics["service"]["totals"]
    server_stats = metrics["server"]
    slo = metrics["slo"]
    slo_attained = all(d["attained"] for d in slo["datasets"].values())
    obj = slo["objectives"]
    worst_burn = max(
        (d["error_budget_burn"] for d in slo["datasets"].values()
         if d["error_budget_burn"] is not None),
        default=0.0,
    )
    print(
        f"slo:     p{obj['latency_quantile'] * 100:g} <= "
        f"{obj['latency_target_s'] * 1e3:.0f}ms, errors <= "
        f"{obj['error_rate'] * 100:g}% -> attained={slo_attained} "
        f"across {len(slo['datasets'])} tenant(s), "
        f"worst error-budget burn {worst_burn:.2f}x"
    )

    closed_mismatches = verify_http_answers(
        closed_answers, oracle, require_all=True
    )
    open_mismatches = verify_http_answers(open_answers, oracle)
    identical = not closed_mismatches and not open_mismatches
    shed_expected = closed_sheds + open_counts["shed"]
    sheds_consistent = totals.get("shed", 0) == shed_expected
    print(
        f"verify:  identical={identical} "
        f"(closed mismatches {closed_mismatches[:5]}, "
        f"open mismatches {open_mismatches[:5]}); "
        f"server shed counter {totals.get('shed', 0)} vs observed "
        f"{shed_expected}; {totals.get('solves', 0)} solves, "
        f"{totals.get('coalesced', 0)} coalesced"
    )

    check_floors = not args.tiny
    throughput_ok = (not check_floors) or throughput >= THROUGHPUT_FLOOR
    p99 = float(np.percentile(lat, 99))
    p99_ok = (not check_floors) or p99 <= LATENCY_P99_CEIL_S

    workload_info = {
        "tenants": len(datasets),
        "tenant_n": max(d.n for d in datasets.values()),
        "num_requests": len(requests),
        "ks": list(ks),
        "seed": args.seed,
        "clients": args.clients,
        "max_inflight": args.max_inflight,
        "open_rate_rps": open_rate,
        "tiny": args.tiny,
    }
    if scenario_name is not None:
        workload_info["scenario"] = scenario_name

    report = {
        "workload": workload_info,
        "timings": {
            "oracle_s": oracle_s,
            "build_s": build_s,
            "prime_s": prime_s,
            "closed_loop_s": closed_s,
            "open_loop_s": open_s,
        },
        "throughput_rps": throughput,
        "latency_p50_s": float(np.percentile(lat, 50)),
        "latency_p99_s": p99,
        "open_loop": {
            "arrival_rps": open_rate,
            "ok": open_counts["ok"],
            "shed": open_counts["shed"],
            "errors": open_counts["error"],
        },
        "shed_total": totals.get("shed", 0),
        "sheds_consistent": sheds_consistent,
        "solves": totals.get("solves", 0),
        "coalesced": totals.get("coalesced", 0),
        "http_errors": server_stats["http_errors"],
        "slo": {
            "objectives": obj,
            "attained": slo_attained,
            "worst_error_budget_burn": worst_burn,
            "datasets": slo["datasets"],
        },
        "identical": identical,
        "floors": {
            "throughput_rps": THROUGHPUT_FLOOR,
            "latency_p99_s": LATENCY_P99_CEIL_S,
        },
        "floors_checked": check_floors,
    }
    if scenario_name is not None:
        report["scenario"] = scenario_name
    out = write_bench_json("server", report)
    print(f"wrote {out}")
    if not identical:
        print("FAIL: HTTP answers diverged from the in-process replay")
        return 1
    if not sheds_consistent:
        print("FAIL: shed accounting diverged between client and server")
        return 1
    if open_counts["error"]:
        print("FAIL: open-loop requests errored")
        return 1
    if not throughput_ok:
        print(f"FAIL: {throughput:.1f} req/s under the {THROUGHPUT_FLOOR} floor")
        return 1
    if not p99_ok:
        print(
            f"FAIL: closed-loop p99 {p99 * 1e3:.1f}ms over the "
            f"{LATENCY_P99_CEIL_S * 1e3:.0f}ms ceiling"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
