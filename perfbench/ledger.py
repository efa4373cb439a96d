"""The per-layer ledger: one caller replays a stream at each boundary.

The boundaries, innermost first, each on fresh state built from the same
config and primed the same way:

1. ``index``   — direct ``FairHMSIndex`` / ``LiveFairHMSIndex`` calls,
   split into ``plan_query`` and the pinned-plan ``query`` the gateway
   makes, with the solver's phases as children of a memo miss;
2. ``gateway`` — ``Gateway.submit(...).result()``;
3. ``server``  — ``FairHMSClient`` to a ``ServerThread`` (tracing off,
   then on: the shipped default);
4. ``router``  — the same client through a ``RouterThread`` in front of
   that server.

Each call is a span ``(name, start, end, parent, request_id)`` kept in
memory and written out at the end.  A layer's added time is the
difference between the p50s of neighbouring boundaries; a span's self
time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

import numpy as np

from loadgen import send
from oracle import answer_payload
from quantiles import percentile
from streams import ALPHA, Op, Workload, client_streams, priming_ops

__all__ = ["Spans", "replay_boundaries", "self_times"]


class Spans:
    """In-memory span log; ``add`` returns the span's index (its id).

    Priming calls carry ``request_id`` None: they are kept in the log but
    left out of :meth:`durations`, so boundary percentiles cover the
    replayed stream only.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, name, start, end, parent=None, request_id=None) -> int:
        self.rows.append((name, start, end, parent, request_id))
        return len(self.rows) - 1

    def extend(self, other: "Spans") -> None:
        """Append another log's spans, re-basing their parent ids."""
        base = len(self.rows)
        self.rows.extend(
            (name, start, end, None if parent is None else parent + base, rid)
            for name, start, end, parent, rid in other.rows
        )

    def durations(self, name: str) -> list[float]:
        return [
            end - start
            for n, start, end, _, rid in self.rows
            if n == name and rid is not None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.rows):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": rid,
                }) + "\n")


def self_times(rows) -> dict[str, list[float]]:
    """Per span name, each span's duration minus its children's union."""
    children = defaultdict(list)
    for name, start, end, parent, _ in rows:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(rows):
        covered, cursor = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out[name].append((end - start) - covered)
    return out


def ledger_stream(workload: Workload, seed: int) -> list[Op]:
    """The stream prefix the ledger replays: clients interleaved in turn."""
    per_client = [
        list(islice(stream, workload.ledger_ops))
        for stream in client_streams(workload, seed)
    ]
    return [op for turn in zip(*per_client) for op in turn]


def _query_spec(op: Op):
    from repro import FairnessConstraint, Query

    if op.lower is None:
        return Query(k=op.k, alpha=ALPHA)
    return Query(constraint=FairnessConstraint(
        lower=np.asarray(op.lower), upper=np.asarray(op.upper), k=op.k,
    ))


class _Index:
    """Boundary 1: direct index calls, as the gateway makes them."""

    name = "index.op"

    def __init__(self, registry, wal) -> None:
        self.registry = registry
        self.wal = wal
        self.spans = Spans()
        self.solved: set[int] = set()
        self.phases = defaultdict(list)
        self.solves: list[float] = []
        self.requeries: list[float] = []
        self.probes = 0
        self._written: set[str] = set()
        self._indexes: dict = {}

    def __call__(self, op: Op, rid: str):
        index = self._indexes.get(op.dataset)
        if index is None:
            index = self._indexes[op.dataset] = self.registry.get(op.dataset)
        spans = self.spans
        if op.kind != "query":
            t0 = time.perf_counter()
            if op.kind == "insert":
                index.insert(op.key, op.point, op.group)
            else:
                index.delete(op.key)
            t1 = time.perf_counter()
            op_id = spans.add(self.name, t0, t1, None, rid)
            spans.add("serving.live.apply", t0, t1, op_id, rid)
            # The WAL append the gateway makes after applying, timed alone.
            a0 = time.perf_counter()
            if op.kind == "insert":
                self.wal.log_insert(op.dataset, index.version, op.key, op.point, op.group)
            else:
                self.wal.log_delete(op.dataset, index.version, op.key)
            spans.add("cluster.wal.append", a0, time.perf_counter(), None, rid)
            self._written.add(op.dataset)
            return {"applied": op.kind, "version": index.version}
        spec = _query_spec(op)
        t0 = time.perf_counter()
        plan = index.plan_query(spec, dataset=op.dataset, queue_depth=1)
        t1 = time.perf_counter()
        solution = index.query(
            spec.k, constraint=spec.constraint, alpha=spec.alpha, plan=plan
        )
        t2 = time.perf_counter()
        op_id = spans.add(self.name, t0, t2, None, rid)
        spans.add("planner.plan", t0, t1, op_id, rid)
        query_id = spans.add("serving.index.query", t1, t2, op_id, rid)
        if id(solution) not in self.solved:  # memo hits return the memo's object
            self.solved.add(id(solution))
            self.solves.append(t2 - t1)
            cursor = t1
            for phase, seconds in solution.stats.get("phases", {}).items():
                spans.add(f"core.phase.{phase}", cursor, cursor + seconds, query_id, rid)
                cursor += seconds
                self.phases[phase].append(seconds)
            if op.dataset in self._written:
                self.requeries.append(t2 - t0)
        self._written.discard(op.dataset)
        # A memo hit with the pinned plan, timed alone.
        h0 = time.perf_counter()
        index.query(spec.k, constraint=spec.constraint, alpha=spec.alpha, plan=plan)
        spans.add("serving.index.hit", h0, time.perf_counter(), None, rid)
        self.probes += 1
        return answer_payload(solution)


class _Gateway:
    name = "gateway.op"

    def __init__(self, gateway) -> None:
        self.gateway = gateway
        self.spans = Spans()

    def __call__(self, op: Op, rid: str):
        t0 = time.perf_counter()
        if op.kind == "query":
            spec = _query_spec(op)
            result = self.gateway.submit(
                op.dataset, spec.k, constraint=spec.constraint, alpha=spec.alpha
            ).result()
            answer = answer_payload(result)
        else:
            args = (op.key, op.point, op.group) if op.kind == "insert" else (op.key,)
            version = self.gateway.submit_update(op.dataset, op.kind, *args).result()
            answer = {"applied": op.kind, "version": version}
        self.spans.add(self.name, t0, time.perf_counter(), None, rid)
        return answer


class _Client:
    def __init__(self, name: str, client) -> None:
        self.name = name
        self.client = client
        self.spans = Spans()

    def __call__(self, op: Op, rid: str):
        t0 = time.perf_counter()
        data = send(self.client, op)
        self.spans.add(self.name, t0, time.perf_counter(), None, rid)
        if op.kind == "query":
            return {k: data[k] for k in ("ids", "mhr_estimate", "group_counts", "size")}
        return {"applied": data["applied"], "version": data["version"]}


def _registry(config: dict, wal_dir: Path | None):
    from dataclasses import replace

    from repro.server.config import build_registry, parse_config

    cfg = parse_config(config)
    cfg = replace(cfg, wal_dir=None if wal_dir is None else str(wal_dir))
    return build_registry(cfg)


def replay_boundaries(workload: Workload, seed: int, config: dict, workdir: Path):
    """Replay the ledger stream at every boundary; returns the ledger.

    The result holds each boundary's span log, the index boundary's
    solver breakdown, the cold registry build time, and ``mismatches``:
    answers that differ from the index boundary's (bit for bit).
    """
    from repro.client import FairHMSClient
    from repro.cluster.router import RouterThread
    from repro.cluster.wal import WriteAheadLog
    from repro.server.runner import ServerThread
    from repro.service.gateway import Gateway

    live = any(t.live for t in workload.tenants)
    prime = priming_ops(workload, seed)
    ops = ledger_stream(workload, seed)
    out: dict = {"ops": len(ops) + len(prime)}
    counter = iter(range(1 << 30))

    def wal_dir():
        return workdir / f"ledger-wal-{next(counter)}" if live else None

    def run(call) -> list:
        for op in prime:
            call(op, None)
        return [call(op, f"op{i}") for i, op in enumerate(ops)]

    # 1. index boundary on a cold registry: builds timed per dataset.
    registry = _registry(config, None)
    build = 0.0
    for name in registry.names():
        t0 = time.perf_counter()
        registry.get(name)
        build += time.perf_counter() - t0
    out["build_s"] = build
    wal = WriteAheadLog(workdir / "ledger-wal-direct")
    index_call = _Index(registry, wal)
    expected = run(index_call)
    wal.close()
    out["index"] = index_call
    hits = misses = 0
    for name in registry.names():
        info = registry.get(name).cache_info()
        hits += info["result_hits"]
        misses += info["result_misses"]
    hits -= index_call.probes  # the pinned-plan probes are not traffic
    out["hit_ratio"] = hits / max(1, hits + misses)
    boundaries = [index_call.spans]
    mismatches = 0

    def compare(answers) -> int:
        return sum(a != b for a, b in zip(answers, expected))

    # 2. gateway boundary.
    registry = _registry(config, wal_dir())
    gateway = Gateway(registry).start()
    try:
        call = _Gateway(gateway)
        mismatches += compare(run(call))
    finally:
        gateway.stop()
    boundaries.append(call.spans)

    # 3. server boundary, tracing off then on; 4. router in front of it.
    for name, kwargs, routed in (
        ("server.untraced.op", {"tracing": False}, False),
        ("server.op", {}, False),
        ("router.op", {}, True),
    ):
        registry = _registry(config, wal_dir())
        with ServerThread(registry, **kwargs) as (host, port):
            router = None
            if routed:
                router = RouterThread(
                    {"w0": (host, port)},
                    datasets={t.name: t.live for t in workload.tenants},
                    replicas=1,
                )
                host, port = router.start()
            client = FairHMSClient(host, port, timeout=30.0, retries=0)
            try:
                call = _Client(name, client)
                mismatches += compare(run(call))
            finally:
                client.close()
                if router is not None:
                    router.drain()
        boundaries.append(call.spans)
    out["boundaries"] = boundaries
    out["mismatches"] = mismatches
    return out


def layer_metrics(ledger: dict) -> dict:
    """The per-layer numbers (seconds, or a ratio) from a replayed ledger."""
    spans = Spans()
    for part in ledger["boundaries"]:
        spans.extend(part)
    p50 = {
        name: percentile(spans.durations(name), 0.5)
        for name in ("index.op", "gateway.op", "server.untraced.op",
                     "server.op", "router.op")
    }
    p99 = {
        name: percentile(spans.durations(name), 0.99)
        for name in ("index.op", "gateway.op", "server.op")
    }

    def diff(table, a, b):
        if table[a] is None or table[b] is None:
            return None
        return table[a] - table[b]

    index = ledger["index"]
    idx_spans = index.spans
    out = {
        "server.added_p50": diff(p50, "server.op", "gateway.op"),
        "server.added_p99": diff(p99, "server.op", "gateway.op"),
        "service.gateway.added_p50": diff(p50, "gateway.op", "index.op"),
        "service.gateway.added_p99": diff(p99, "gateway.op", "index.op"),
        "cluster.router.added_p50": diff(p50, "router.op", "server.op"),
        "obs.tracing_added_p50": diff(p50, "server.op", "server.untraced.op"),
        "planner.plan_p50": percentile(idx_spans.durations("planner.plan"), 0.5),
        "serving.index.hit_p50": percentile(idx_spans.durations("serving.index.hit"), 0.5),
        "serving.index.hit_ratio": ledger["hit_ratio"],
        "core.solve_p50": percentile(index.solves, 0.5),
        "core.solve_p99": percentile(index.solves, 0.99),
        "service.registry.build": ledger["build_s"],
        "serving.live.apply_p50": percentile(idx_spans.durations("serving.live.apply"), 0.5),
        "serving.live.requery_p50": percentile(index.requeries, 0.5),
        "serving.live.requery_p99": percentile(index.requeries, 0.99),
        "cluster.wal.append_p50": percentile(idx_spans.durations("cluster.wal.append"), 0.5),
        "cluster.wal.append_p99": percentile(idx_spans.durations("cluster.wal.append"), 0.99),
    }
    for phase in ("engine", "geometry", "search", "finalize"):
        values = index.phases.get(phase)
        out[f"core.phase.{phase}"] = statistics.fmean(values) if values else None
    return out
