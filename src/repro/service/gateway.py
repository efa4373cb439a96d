"""The batching gateway: concurrent requests in, one solve out.

Real FairHMS traffic is bursty and redundant — many users ask the same
``(dataset, k, constraint, algorithm)`` at once.  The
:class:`Gateway` absorbs concurrent requests and turns them into the
minimum amount of solver work:

* **batching by backlog** — :meth:`Gateway.submit` files a request
  straight into its dataset's mailbox and returns a
  :class:`concurrent.futures.Future`; an idle dataset is scheduled on
  the worker pool at once, and whatever queues while a dataset's run
  executes becomes its next run.  The running solve is the window: a
  lone request waits for nothing, a burst is handled as a batch instead
  of a convoy of single solves;
* **coalescing** — within one run, requests with identical query keys
  collapse into **one** solve whose solution resolves every peer's
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
* distinct queries of one run execute back to back against the
  dataset's index in ascending ``k`` (one ``index.query`` per coalesce
  group — the same per-query path ``query_batch`` takes), sharing its
  artifacts, nets, memoized results and IntCov tau hints, with
  per-group error isolation.

Error semantics: a failing solve (e.g. an infeasible constraint) sets
the exception on every future it was coalesced into — the same exception
type a direct ``index.query`` call raises.

Use either the worker pool (:meth:`start` / :meth:`stop`, or the context
manager) with concurrent producers, or, without starting it, the
synchronous :meth:`drain` to process everything queued from the calling
thread (tests, benchmarks, single-threaded replay).
"""

from __future__ import annotations

import os
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
        max_workers: threads executing per-dataset drains; parallelism
            across datasets (one dataset's work is always serialized).
    """

    def __init__(
        self, registry: DatasetRegistry, *, max_workers: int | None = None
    ) -> None:
        self.registry = registry
        self.metrics: ServiceMetrics = registry.metrics
        self._max_workers = max_workers or min(8, (os.cpu_count() or 1) + 4)
        # A dataset name is in _scheduled while exactly one thread owns
        # its mailbox; only the owner drains it, and the owner leaves
        # only once it finds the mailbox empty (both under _mail_lock).
        self._mailboxes: dict[str, deque[_PendingOp]] = {}
        self._scheduled: set[str] = set()
        self._mail_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._stopping = False

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
        with self._mail_lock:
            self._mailboxes.setdefault(dataset, deque()).append(op)
            pool = self._pool
            # Not started: only queue (drain() or start() picks it up).
            # Started or stopped, an idle dataset is claimed here; a busy
            # one's owner takes the op in its next run.
            claim = (pool is not None or self._stopping) and (
                dataset not in self._scheduled
            )
            if claim:
                self._scheduled.add(dataset)
        if claim:
            if pool is not None:
                try:
                    pool.submit(self._drain_mailbox, dataset)
                    return op.future
                except RuntimeError:
                    pass  # shut down by a racing stop(): drain it here
            self._drain_mailbox(dataset)
        return op.future

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "Gateway":
        """Start the worker pool (idempotent); schedules anything queued."""
        with self._mail_lock:
            if self._pool is not None:
                return self
            self._stopping = False
            pool = self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-gateway",
            )
            queued = self._claim_idle()
        for name in queued:
            pool.submit(self._drain_mailbox, name)
        return self

    def stop(self) -> None:
        """Finish every queued op, then shut the worker pool down.

        Each pool drainer empties its own mailbox before the pool exits,
        and a final :meth:`drain` handles what was queued while the
        gateway was not started, so no accepted future is left forever
        pending.  A submit racing this call, or arriving after it,
        drains its own dataset on the calling thread.
        """
        with self._mail_lock:
            self._stopping = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.drain()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def drain(self) -> int:
        """Synchronously process everything queued; returns ops handled.

        Single-threaded alternative to the worker pool for tests and
        replay benchmarks — coalescing and fencing behave identically:
        each dataset's queued ops form one run.  Mailboxes another
        thread is already draining are left to that thread.
        """
        with self._mail_lock:
            names = self._claim_idle()
        return sum(self._drain_mailbox(name) for name in names)

    def _claim_idle(self) -> list[str]:
        """Claim every unowned non-empty mailbox (under ``_mail_lock``)."""
        names = [
            name
            for name, box in self._mailboxes.items()
            if box and name not in self._scheduled
        ]
        self._scheduled.update(names)
        return names

    # ------------------------------------------------------------------ #
    # per-dataset execution (the actor body)
    # ------------------------------------------------------------------ #

    def _drain_mailbox(self, name: str) -> int:
        """Process ``name``'s mailbox until empty, FIFO, under its lock.

        Each pass takes the whole mailbox as one run: whatever queued
        while the previous run executed.  Returns the ops handled.
        """
        handled = 0
        while True:
            with self._mail_lock:
                box = self._mailboxes.get(name)
                ops = list(box) if box else []
                if box:
                    box.clear()
                if not ops:
                    self._scheduled.discard(name)
                    return handled
            handled += len(ops)
            self.metrics.record_batch(len(ops))
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

    def _record_solve(
        self, name: str, solution, seconds: float, planner, plan
    ) -> None:
        """Account one solver run, once per fresh :class:`Solution`.

        Solutions are memoized and fanned out to coalesced peers, so a
        marker in the stats dict tells a fresh solve from a memo hit:
        only the first sighting counts a solve, its seconds, its planner
        observation and its phase breakdown (recorded by the solver at
        solve time).  Memo hits and followers record only their request
        latency.
        """
        stats = solution.stats
        if stats.get("_solve_recorded"):
            return
        stats["_solve_recorded"] = True
        self.metrics.incr(name, "solves")
        self.metrics.observe_solve(name, seconds)
        if planner is not None and plan is not None:
            # The feedback loop: the same measurement observe_solve
            # records, attributed to the exact planned configuration.
            planner.observe(
                name,
                plan.algorithm,
                int(plan.stats.k),
                seconds,
                eps=plan.solver_kwargs().get("epsilon"),
            )
        phases = stats.get("phases")
        if isinstance(phases, dict):
            for phase, phase_seconds in phases.items():
                self.metrics.observe_phase(name, str(phase), float(phase_seconds))

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
            self._record_solve(
                name, solution, time.perf_counter() - t0, planner, plan
            )
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
