"""The micro-batching gateway: concurrent requests in, one solve out.

Real FairHMS traffic is bursty and redundant — many users ask the same
``(dataset, k, constraint, algorithm)`` at once.  The
:class:`Gateway` absorbs concurrent requests and turns them into the
minimum amount of solver work:

* **micro-batching** — :meth:`Gateway.submit` enqueues a request and
  returns a :class:`concurrent.futures.Future`; the dispatcher collects
  requests for one ``batch_window`` (or until ``max_batch``), so bursts
  are handled as batches instead of a convoy of single solves;
* **coalescing** — within a batch window, requests with identical query
  keys collapse into **one** solve whose solution resolves every peer's
  future (solves are deterministic, so the shared answer is exactly what
  each peer would have computed alone);
* **per-dataset serialization with write fencing** — each dataset's
  operations drain FIFO under its registry lock (an actor, in effect):
  writes to a live index never interleave a query batch, queries between
  two writes see exactly the epoch the first write produced, and
  cross-dataset work still runs in parallel across the worker pool.  A
  version check around every query run *verifies* the fence and counts
  violations (only possible when callers mutate an index behind the
  gateway's back);
* distinct queries of one batch run back to back against the dataset's
  index in ascending ``k`` (one ``index.query`` per coalesce group — the
  same per-query path ``query_batch`` takes), sharing its artifacts,
  nets, memoized results and IntCov tau hints, with per-group error
  isolation.

Error semantics: a failing solve (e.g. an infeasible constraint) sets
the exception on every future it was coalesced into — the same exception
type a direct ``index.query`` call raises.

Use either the background dispatcher (:meth:`start` / :meth:`stop`, or
the context manager) with concurrent producers, or the synchronous
:meth:`drain` to process everything queued from the calling thread
(tests, benchmarks, single-threaded replay).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..fairness.constraints import FairnessConstraint
from ..obs.trace import Trace, child_of_current, use_trace
from ..serving.index import Query
from .metrics import ServiceMetrics
from .registry import DatasetRegistry

__all__ = ["Gateway"]


@dataclass
class _PendingOp:
    """One enqueued operation: a query, or a live-index write."""

    dataset: str
    kind: str  # "query" | "insert" | "delete"
    query: Query | None
    args: tuple
    future: Future
    enqueued: float
    trace: Trace | None = None


def _coalesce_key(q: Query, resolved: str | None = None) -> tuple | None:
    """Hashable identity of a query, or ``None`` when not coalescible.

    Two requests coalesce only when every field that can influence the
    solution matches; any non-scalar option (a ``Generator`` seed, an
    explicit net array) makes the request non-coalescible, mirroring the
    index's own memoization rules.

    ``resolved`` is the concrete algorithm the dataset's index reports
    for this query (``FairHMSIndex.resolve_query``).  With it the key is
    *normalized*: ``"auto"`` and its resolution are the same request,
    and knobs the exact IntCov never consumes — ``eps`` and ``seed`` —
    are dropped, so two IntCov requests differing only in them share one
    solve instead of solving twice.
    """
    if q.constraint is not None:
        constraint_key = (
            int(q.constraint.k),
            tuple(int(v) for v in q.constraint.lower),
            tuple(int(v) for v in q.constraint.upper),
        )
    else:
        constraint_key = (
            None if q.k is None else int(q.k),
            float(q.alpha),
            str(q.scheme),
        )
    algorithm = str(q.algorithm) if resolved is None else str(resolved)
    if algorithm == "IntCov":
        # Exact and deterministic: neither eps nor seed reaches the
        # solver, so neither may split (or block) coalescing.
        seed_key = eps_key = None
    else:
        if q.seed is None or isinstance(q.seed, bool):
            seed_key = None if q.seed is None else NotImplemented
        elif isinstance(q.seed, (int, np.integer)):
            seed_key = int(q.seed)
        else:
            return None  # a live Generator: never coalesce
        if seed_key is NotImplemented:
            return None
        eps_key = float(q.eps)
    options = []
    for name, value in sorted(q.options.items()):
        if isinstance(value, (bool, str, type(None))):
            options.append((name, value))
        elif isinstance(value, (int, np.integer)):
            options.append((name, int(value)))
        elif isinstance(value, (float, np.floating)):
            options.append((name, float(value)))
        else:
            return None
    return (constraint_key, eps_key, algorithm, seed_key, tuple(options))


class Gateway:
    """Concurrent multi-dataset front door over a :class:`DatasetRegistry`.

    Args:
        registry: where datasets live; indexes are built on first touch
            (and may be evicted/rebuilt under its byte budget at any
            point — answers are unaffected).
        batch_window: seconds the dispatcher waits after the first
            request of a cycle for more to arrive.  Larger windows
            coalesce more at the cost of added latency.
        max_batch: dispatch early once this many requests are queued.
        max_workers: threads executing per-dataset drains; parallelism
            across datasets (one dataset's work is always serialized).
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        batch_window: float = 0.002,
        max_batch: int = 256,
        max_workers: int | None = None,
    ) -> None:
        self.registry = registry
        self.metrics: ServiceMetrics = registry.metrics
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self._max_workers = max_workers or min(8, (os.cpu_count() or 1) + 4)
        self._inbox: queue.SimpleQueue[_PendingOp] = queue.SimpleQueue()
        self._mailboxes: dict[str, deque[_PendingOp]] = {}
        self._scheduled: set[str] = set()
        self._mail_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._stopping = False
        # Serializes drain() callers against each other; combined with
        # joining the dispatcher first, it keeps the final stop-time
        # drain from ever overlapping a dispatcher cycle (drain()'s
        # contract).
        self._drain_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # producer API
    # ------------------------------------------------------------------ #

    def submit(
        self,
        dataset: str,
        k: int | None = None,
        *,
        constraint=None,
        eps: float = 0.02,
        algorithm: str = "auto",
        seed=None,
        alpha: float = 0.1,
        scheme: str = "proportional",
        trace: Trace | None = None,
        **options,
    ) -> Future:
        """Enqueue one query; returns a future resolving to its Solution.

        Parameters mirror :meth:`repro.serving.FairHMSIndex.query`.  The
        future raises whatever the solve raises (e.g. infeasibility).
        ``trace`` attaches a request trace: queue wait, the cold build
        (if any), the solve with its phases, and coalescing outcomes are
        recorded as spans/tags on it while the op moves through the
        gateway.
        """
        if dataset not in self.registry:
            raise KeyError(f"unknown dataset {dataset!r}")
        if constraint is not None and not isinstance(constraint, FairnessConstraint):
            # Fail fast in the caller's thread; a malformed constraint
            # must not reach the dispatch path.
            raise TypeError(
                f"constraint must be a FairnessConstraint, got "
                f"{type(constraint).__name__}"
            )
        spec = Query(
            k=k,
            constraint=constraint,
            eps=eps,
            algorithm=algorithm,
            seed=seed,
            alpha=alpha,
            scheme=scheme,
            options=dict(options),
        )
        return self._enqueue(dataset, "query", spec, (), trace=trace)

    def submit_update(
        self, dataset: str, kind: str, *args, trace: Trace | None = None
    ) -> Future:
        """Enqueue a write for a live dataset; future resolves when applied.

        ``kind`` is ``"insert"`` (args: ``key, point, group``) or
        ``"delete"`` (args: ``key``).  Writes are applied in submission
        order relative to the same dataset's queries — a query submitted
        after a write observes it; one submitted before does not.
        """
        if kind not in ("insert", "delete"):
            raise ValueError(f"unknown update kind {kind!r}")
        if dataset not in self.registry:
            raise KeyError(f"unknown dataset {dataset!r}")
        return self._enqueue(dataset, kind, None, args, trace=trace)

    def _enqueue(self, dataset, kind, spec, args, *, trace=None) -> Future:
        op = _PendingOp(
            dataset=dataset,
            kind=kind,
            query=spec,
            args=args,
            future=Future(),
            enqueued=time.perf_counter(),
            trace=trace,
        )
        self.metrics.incr(dataset, "requests" if kind == "query" else "updates")
        self._inbox.put(op)
        if self._stopping:
            # Enqueued concurrently with stop(): the dispatcher may
            # already have drained for the last time, so process the
            # inbox here — no accepted future may be left pending.  Wait
            # out the dispatcher's final cycle first: drain() must never
            # run while it may still be mid-collect.
            dispatcher = self._dispatcher
            if dispatcher is not None:
                dispatcher.join()
            self.drain()
        return op.future

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "Gateway":
        """Start the background dispatcher (idempotent)."""
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return self
        self._stop_event.clear()
        self._stopping = False
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-gateway",
            )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-gateway-dispatch", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(self, *, timeout: float | None = 10.0) -> None:
        """Stop dispatching; drains already-collected work, then shuts down.

        Requests still sitting in the inbox are processed by a final
        synchronous :meth:`drain`, so no accepted future is left forever
        pending; a submit racing this call drains its own op (see
        :meth:`submit`).
        """
        self._stopping = True
        self._stop_event.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.drain()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _collect(self, *, block: bool) -> list[_PendingOp]:
        """One micro-batch: first op (maybe blocking), then the window."""
        ops: list[_PendingOp] = []
        try:
            first = self._inbox.get(timeout=0.05) if block else self._inbox.get_nowait()
        except queue.Empty:
            return ops
        ops.append(first)
        deadline = time.perf_counter() + self.batch_window
        while len(ops) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if block and remaining > 0:
                    ops.append(self._inbox.get(timeout=remaining))
                else:
                    ops.append(self._inbox.get_nowait())
            except queue.Empty:
                break
        return ops

    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            ops = self._collect(block=True)
            if ops:
                self._route(ops, inline=False)

    def _route(self, ops: list[_PendingOp], *, inline: bool) -> None:
        """File ops into per-dataset mailboxes; schedule idle datasets."""
        self.metrics.record_batch(len(ops))
        to_schedule: list[str] = []
        with self._mail_lock:
            for op in ops:
                self._mailboxes.setdefault(op.dataset, deque()).append(op)
            for name in {op.dataset for op in ops}:
                if name not in self._scheduled:
                    self._scheduled.add(name)
                    to_schedule.append(name)
        for name in to_schedule:
            if inline or self._pool is None:
                self._drain_mailbox(name)
            else:
                self._pool.submit(self._drain_mailbox, name)

    def drain(self) -> int:
        """Synchronously process everything queued; returns ops handled.

        Single-threaded alternative to the background dispatcher for
        tests and replay benchmarks — coalescing and fencing behave
        identically.  Concurrent drain() calls serialize on an internal
        lock (the stop()/submit() shutdown race funnels through here),
        but do not call it alongside a *running* dispatcher thread —
        stop() and racing submits join the dispatcher before draining.
        """
        handled = 0
        with self._drain_lock:
            while True:
                ops = self._collect(block=False)
                if not ops:
                    break
                handled += len(ops)
                self._route(ops, inline=True)
        return handled

    # ------------------------------------------------------------------ #
    # per-dataset execution (the actor body)
    # ------------------------------------------------------------------ #

    def _drain_mailbox(self, name: str) -> None:
        """Process ``name``'s mailbox until empty, FIFO, under its lock."""
        while True:
            with self._mail_lock:
                box = self._mailboxes.get(name)
                ops = list(box) if box else []
                if box:
                    box.clear()
                if not ops:
                    self._scheduled.discard(name)
                    return
            try:
                lock = self.registry.lock_for(name)
            except KeyError as exc:
                # Unregistered with requests still queued: fail them
                # (leaving futures forever-pending would hang callers)
                # and keep draining — the name must not stay wedged.
                self._fail_ops(name, ops, exc)
                continue
            with lock:
                try:
                    self._execute(name, ops)
                except Exception as exc:  # noqa: BLE001 - backstop
                    # Nothing may escape the actor body: an unforeseen
                    # error must fail the affected futures, not strand
                    # them and wedge the dataset's scheduled flag.
                    self._fail_ops(name, ops, exc)

    def _fail_ops(self, name: str, ops: list[_PendingOp], exc: Exception) -> None:
        """Resolve every still-pending future in ``ops`` with ``exc``."""
        failed = 0
        for op in ops:
            try:
                if op.future.set_running_or_notify_cancel():
                    op.future.set_exception(exc)
                    failed += 1
            except Exception:  # noqa: BLE001 - already resolved normally
                continue
        if failed:
            self.metrics.incr(name, "errors", failed)

    def _execute(self, name: str, ops: list[_PendingOp]) -> None:
        """Run one dataset's op run: writes in order, query runs coalesced."""
        run: list[_PendingOp] = []
        for op in ops:
            if op.kind == "query":
                run.append(op)
                continue
            # A write fences: flush the queries submitted before it,
            # then apply.  Queries after it see the new data version.
            self._solve_run(name, run)
            run = []
            self._apply_write(name, op)
        self._solve_run(name, run)

    def _apply_write(self, name: str, op: _PendingOp) -> None:
        if not op.future.set_running_or_notify_cancel():
            return
        if op.trace is not None:
            op.trace.child("queue_wait", start=op.enqueued).end()
        try:
            # The op's trace is the thread's active trace for the whole
            # write, so a cold build triggered here lands in it too.
            with use_trace(op.trace):
                index = self.registry.get(name)
                with child_of_current("apply_write", kind=op.kind):
                    if op.kind == "insert":
                        key, point, group = op.args
                        index.insert(key, point, group)
                    else:
                        (key,) = op.args
                        index.delete(key)
                version = getattr(index, "version", None)
                wal = getattr(self.registry, "wal", None)
                if wal is not None and version is not None:
                    # Durability is part of the ack: the record reaches
                    # disk (fsync'd) before the caller's future resolves,
                    # so an acked write can always be replayed after a
                    # crash.  A failed append fails the write — the
                    # in-memory apply alone must not report success.
                    with child_of_current("wal_append", kind=op.kind):
                        if op.kind == "insert":
                            key, point, group = op.args
                            wal.log_insert(name, version, key, point, group)
                        else:
                            wal.log_delete(name, version, op.args[0])
                    self.metrics.incr(name, "wal_appends")
        except Exception as exc:  # noqa: BLE001 - forwarded to the caller
            self.metrics.incr(name, "errors")
            if op.trace is not None:
                op.trace.annotate(error=type(exc).__name__)
            op.future.set_exception(exc)
            return
        self.metrics.observe_request(name, time.perf_counter() - op.enqueued)
        op.future.set_result(version)

    def _record_phases(self, name: str, solution) -> None:
        """Feed a solve's per-phase breakdown into the metrics, once.

        Solutions are memoized and fanned out to coalesced peers, so the
        phase timings (recorded by the solver at solve time) are consumed
        exactly once per underlying solve — a marker in the stats dict
        keeps cache hits from re-reporting the original solve's phases.
        """
        stats = getattr(solution, "stats", None)
        if not isinstance(stats, dict):
            return
        phases = stats.get("phases")
        if not isinstance(phases, dict) or stats.get("_phases_recorded"):
            return
        stats["_phases_recorded"] = True
        for phase, seconds in phases.items():
            self.metrics.observe_phase(name, str(phase), float(seconds))

    def _solve_run(self, name: str, run: list[_PendingOp]) -> None:
        """Coalesce one uninterrupted query run and solve each key once."""
        if not run:
            return
        try:
            # A cold build pays for every op in the run; attribute it to
            # the first traced one (the request that would have paid it
            # alone) — peers learn the index was cold from the metrics.
            with use_trace(next((op.trace for op in run if op.trace is not None), None)):
                index = self.registry.get(name)
        except Exception as exc:  # noqa: BLE001 - e.g. unregistered mid-run
            self._fail_ops(name, run, exc)
            return
        planner = getattr(index, "planner", None)
        if planner is not None:
            planner.note_queue_depth(name, len(run))
        groups: dict[object, list[_PendingOp]] = {}
        group_plans: dict[object, object] = {}
        for op in run:
            try:
                # Plan once per request: the plan normalizes the coalesce
                # key (so "auto" coalesces with explicit requests and
                # IntCov ignores eps/seed) AND is pinned for execution, so
                # an adaptive decision can never flip between scheduling
                # and the solve.
                plan = index.plan_query(
                    op.query, dataset=name, queue_depth=len(run)
                )
                resolved = plan.algorithm
            except Exception:  # noqa: BLE001 - e.g. k and constraint unset
                plan = None  # solve alone; index.query raises the real error
                resolved = None  # key on the literal fields instead
            try:
                key = _coalesce_key(op.query, resolved)
            except Exception:  # noqa: BLE001 - e.g. a malformed constraint
                key = None
            if key is None:
                key = object()  # unique: never coalesced
            groups.setdefault(key, []).append(op)
            group_plans.setdefault(key, plan)
        # Solve in ascending k (stable, so equal ks keep arrival order):
        # each k-built IntCov solve starts from the last one's optimum, so
        # a burst of ks climbs from optimum to optimum.  Order never
        # changes an answer, only where each search starts.
        def planned_k(key) -> int:
            plan = group_plans[key]
            return -1 if plan is None else int(plan.stats.k)

        # Fence: remember the data version this run is answered at; a
        # change mid-run means someone wrote around the gateway.
        fence = getattr(index, "version", None)
        for key in sorted(groups, key=planned_k):
            plan = group_plans[key]
            live = [
                op for op in groups[key] if op.future.set_running_or_notify_cancel()
            ]
            if not live:
                continue
            pickup = time.perf_counter()
            leader = None
            for op in live:
                if op.trace is not None:
                    op.trace.child("queue_wait", start=op.enqueued).end(pickup)
                    if leader is None:
                        leader = op.trace
            q = live[0].query
            t0 = time.perf_counter()
            try:
                # The group leader's trace is active for the solve: the
                # index records the solve span (and its phases) on it.
                with use_trace(leader):
                    solution = index.query(
                        q.k,
                        constraint=q.constraint,
                        eps=q.eps,
                        algorithm=q.algorithm,
                        seed=q.seed,
                        alpha=q.alpha,
                        scheme=q.scheme,
                        plan=plan,
                        **q.options,
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to callers
                self.metrics.incr(name, "errors", len(live))
                for op in live:
                    if op.trace is not None:
                        op.trace.annotate(error=type(exc).__name__)
                    op.future.set_exception(exc)
                continue
            solve_seconds = time.perf_counter() - t0
            self.metrics.observe_solve(name, solve_seconds)
            if planner is not None and plan is not None:
                # The feedback loop: the same measurement observe_solve
                # records, attributed to the exact planned configuration.
                planner.observe(
                    name,
                    plan.algorithm,
                    int(plan.stats.k),
                    solve_seconds,
                    eps=plan.solver_kwargs().get("epsilon"),
                )
            self.metrics.incr(name, "solves")
            self._record_phases(name, solution)
            if len(live) > 1:
                self.metrics.incr(name, "coalesced", len(live) - 1)
            for op in live:
                tr = op.trace
                if tr is None:
                    continue
                if tr is leader:
                    tr.annotate(coalesce_group=len(live))
                else:
                    # A follower shares the leader's solve — its trace
                    # points at it instead of duplicating the solve span.
                    tr.annotate(
                        coalesced_into=leader.trace_id, coalesce_group=len(live)
                    )
            done = time.perf_counter()
            for op in live:
                self.metrics.observe_request(name, done - op.enqueued)
                op.future.set_result(solution)
        if getattr(index, "version", None) != fence:
            # Only reachable when an index is mutated outside the
            # gateway while a batch was in flight.
            self.metrics.incr(name, "fence_violations")
            for op in run:
                if op.trace is not None:
                    op.trace.annotate(fence_violation=True)
