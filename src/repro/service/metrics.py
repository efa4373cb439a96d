"""Service observability: latency histograms and per-dataset counters.

The gateway and the registry both report into one
:class:`ServiceMetrics` sink: request/solve latencies as log-scaled
histograms, and counts of solves, coalesced requests, result-cache hits,
builds, evictions, updates, errors, and fence violations — per dataset,
with totals.  Everything is exported by :meth:`ServiceMetrics.snapshot`
as one plain dict (JSON-ready), which is what the ``repro service`` CLI
and ``benchmarks/bench_service.py`` print.

All sinks are thread-safe behind a **single** reentrant lock: a
histogram observation (bucket bump + count/total/min/max) and a counter
increment are each atomic, and :meth:`ServiceMetrics.snapshot` reads
every counter and histogram under that same lock — a concurrent recorder
can never produce a torn view (a bucket counted but not totalled, a
dataset block mid-update).  Standalone :class:`LatencyHistogram` objects
carry their own lock, so the HTTP server's per-endpoint histograms get
the same guarantee.  Recording a sample is a few dict operations, far
below solve cost.
"""

from __future__ import annotations

import threading

__all__ = ["BUCKET_EDGES", "LatencyHistogram", "ServiceMetrics", "merge_quantile"]

# Powers of two from 1 microsecond to ~67 seconds; the final bucket is
# open-ended.  Log-scaled buckets keep quantile error proportional.
_BUCKET_EDGES = tuple(1e-6 * 2.0**i for i in range(27))

# Public alias: renderers (e.g. the Prometheus exposition) need the
# bucket boundaries to emit cumulative `le=` labels that match what the
# histograms actually recorded.
BUCKET_EDGES = _BUCKET_EDGES

# The full counter schema, fixed up front: every dataset block carries
# exactly these keys, so totals and exposition output never drift.
_COUNTER_NAMES = (
    "requests",
    "solves",
    "coalesced",
    "updates",
    "shed",
    "errors",
    "builds",
    "evictions",
    "cache_clears",
    "spills",
    "spill_loads",
    "wal_appends",
    "wal_replays",
    "fence_violations",
)


class LatencyHistogram:
    """Fixed-bucket log-scaled latency histogram (seconds), thread-safe.

    Quantiles are bucket upper bounds — at most one power of two above
    the true value, which is plenty to tell a 2 ms solve from a 2 s one.

    Every public method serializes on ``lock``; one is created per
    histogram unless the owner passes a shared (reentrant) lock —
    :class:`ServiceMetrics` shares its own, so a metrics snapshot and a
    concurrent observation can never interleave into a torn read (count
    bumped but total not yet added, a bucket list mid-update).
    """

    __slots__ = ("_lock", "_counts", "count", "total", "min", "max")

    def __init__(self, *, lock=None) -> None:
        # An RLock even when private: snapshot() -> _quantile() nesting
        # stays safe if a subclass (or a shared owner) re-enters.
        self._lock = lock if lock is not None else threading.RLock()
        self._counts = [0] * (len(_BUCKET_EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        value = max(0.0, float(seconds))
        lo, hi = 0, len(_BUCKET_EDGES)
        while lo < hi:  # first bucket whose edge bounds the value
            mid = (lo + hi) // 2
            if value <= _BUCKET_EDGES[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def _quantile(self, q: float) -> float:
        """Quantile lookup; caller holds the lock."""
        if self.count == 0:
            return 0.0
        # At least one sample must be covered: q = 0.0 means "the first
        # sample's bucket", not "wherever a cumulative count of zero
        # first clears zero" (that returned the empty first bucket).
        target = max(1.0, q * self.count)
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= target:
                if i >= len(_BUCKET_EDGES):
                    return self.max  # overflow bucket: the edge would lie
                return min(_BUCKET_EDGES[i], self.max)
        return self.max

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        Bounded by the observed extremes: samples in the open-ended
        overflow bucket report the observed maximum (the last bucket
        edge would understate them by an unbounded amount), and every
        quantile is capped at that maximum.  ``q = 0.0`` targets the
        smallest recorded sample — never an empty leading bucket's edge.
        """
        with self._lock:
            return self._quantile(q)

    def snapshot(self) -> dict:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "total_s": 0.0}
            return {
                "count": self.count,
                "total_s": round(self.total, 6),
                "mean_s": round(self.total / self.count, 6),
                "min_s": round(self.min, 6),
                "max_s": round(self.max, 6),
                "p50_s": self._quantile(0.50),
                "p90_s": self._quantile(0.90),
                "p99_s": self._quantile(0.99),
            }

    def export(self) -> dict:
        """Raw point-in-time export: bucket counts + running stats.

        For renderers that need the buckets themselves (the Prometheus
        exposition emits cumulative ``_bucket{le=...}`` series) rather
        than the derived quantiles :meth:`snapshot` reports.  ``edges``
        is the shared module-level tuple; ``counts`` has one extra slot
        for the open-ended overflow bucket.
        """
        with self._lock:
            return {
                "edges": _BUCKET_EDGES,
                "counts": list(self._counts),
                "count": self.count,
                "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max,
            }


def merge_quantile(hists, q: float) -> float | None:
    """Quantile of the bucket-wise merge of several histograms.

    Returns ``None`` when no histogram has observed a sample.  Same
    semantics as :meth:`LatencyHistogram.quantile` on the merged counts:
    bucket upper bounds, capped at the observed maximum, and overflow
    samples report that maximum rather than a lying edge.

    Each histogram's lock is taken one at a time while its buckets are
    copied — safe whether the histograms share one reentrant lock (as
    inside :class:`ServiceMetrics`) or each carry their own.
    """
    merged = [0] * (len(_BUCKET_EDGES) + 1)
    count = 0
    observed_max = 0.0
    for hist in hists:
        with hist._lock:
            if hist.count == 0:
                continue
            count += hist.count
            observed_max = max(observed_max, hist.max)
            for i, c in enumerate(hist._counts):
                merged[i] += c
    if count == 0:
        return None
    target = max(1.0, q * count)
    seen = 0
    for i, c in enumerate(merged):
        seen += c
        if seen >= target:
            if i >= len(_BUCKET_EDGES):
                return observed_max
            return min(_BUCKET_EDGES[i], observed_max)
    return observed_max


class _DatasetStats:
    """Mutable per-dataset counter block (guarded by the parent lock)."""

    __slots__ = ("counters", "request_latency", "solve_latency", "phases", "_lock")

    def __init__(self, lock) -> None:
        self.counters = dict.fromkeys(_COUNTER_NAMES, 0)
        # Histograms share the owning ServiceMetrics lock, so the whole
        # sink is consistent under one lock (snapshot vs record races).
        self._lock = lock
        self.request_latency = LatencyHistogram(lock=lock)
        self.solve_latency = LatencyHistogram(lock=lock)
        # Per-phase solve breakdown (e.g. IntCov's geometry / search /
        # finalize), keyed by the phase names solvers report; created
        # lazily so datasets that never report phases carry no entry.
        self.phases: dict[str, LatencyHistogram] = {}

    def phase(self, name: str) -> LatencyHistogram:
        hist = self.phases.get(name)
        if hist is None:
            hist = self.phases.setdefault(name, LatencyHistogram(lock=self._lock))
        return hist

    def snapshot(self) -> dict:
        out = dict(self.counters)
        out["request_latency"] = self.request_latency.snapshot()
        out["solve_latency"] = self.solve_latency.snapshot()
        if self.phases:
            out["solve_phases"] = {
                name: hist.snapshot() for name, hist in self.phases.items()
            }
        return out


class ServiceMetrics:
    """Thread-safe per-dataset counters + latency histograms.

    ``incr(dataset, name, n)`` bumps one of the fixed counters;
    ``observe_request`` / ``observe_solve`` record latencies.  The
    gateway records ``requests`` on submit, ``solves`` per actual solver
    run, and ``coalesced`` for every request answered by a solve it
    shared; the HTTP server records ``shed`` for every request refused
    by admission control (429); the registry records ``builds``,
    ``evictions`` (index actually dropped), ``cache_clears`` (pinned
    live index reclaimed in place), ``spills`` (snapshot written on
    eviction), and ``spill_loads`` (index reloaded from its snapshot).

    One reentrant lock guards every counter *and* every histogram (the
    per-dataset histograms share it), so :meth:`snapshot` is a
    consistent point-in-time view even while gateway workers, the HTTP
    loop, and the registry record concurrently.
    """

    def __init__(self, *, scenario: str | None = None) -> None:
        # Reentrant: snapshot() holds it while the histograms (sharing
        # the same lock) take it again for their own snapshots.
        self._lock = threading.RLock()
        self._datasets: dict[str, _DatasetStats] = {}
        self._batches = 0
        self._batched_requests = 0
        # Optional label naming the scenario the traffic belongs to
        # (set by workload drivers replaying a `repro.scenarios` spec);
        # surfaces in snapshot() and the emitted bench JSON.
        self.scenario = scenario

    def _stats(self, dataset: str) -> _DatasetStats:
        stats = self._datasets.get(dataset)
        if stats is None:
            stats = self._datasets.setdefault(dataset, _DatasetStats(self._lock))
        return stats

    def incr(self, dataset: str, name: str, n: int = 1) -> None:
        if name not in _COUNTER_NAMES:
            # Checked before touching state: a typo'd call site must not
            # create a dataset block or grow the schema silently.
            raise ValueError(
                f"unknown counter {name!r}; valid counters: "
                + ", ".join(_COUNTER_NAMES)
            )
        with self._lock:
            self._stats(dataset).counters[name] += n

    def observe_request(self, dataset: str, seconds: float) -> None:
        """End-to-end latency of one request (enqueue -> result set)."""
        with self._lock:
            self._stats(dataset).request_latency.observe(seconds)

    def observe_solve(self, dataset: str, seconds: float) -> None:
        """Wall time of one actual solver run (coalesced peers pay 0)."""
        with self._lock:
            self._stats(dataset).solve_latency.observe(seconds)

    def observe_phase(self, dataset: str, phase: str, seconds: float) -> None:
        """One solver-internal phase timing (recorded once per solve).

        Phase names come from the solver's ``Solution.stats["phases"]``
        breakdown — e.g. IntCov reports ``geometry`` (envelope +
        candidate enumeration), ``search`` (the tau descent), and
        ``finalize`` (padding + exact MHR) — and say *where* a slow
        solve spent its time, which the aggregate solve histogram can't.
        """
        with self._lock:
            self._stats(dataset).phase(phase).observe(seconds)

    def solve_quantile(self, q: float) -> float | None:
        """Cross-dataset solve-latency quantile, or ``None`` if unobserved.

        Merges every dataset's solve histogram bucket-wise under the one
        metrics lock — cheap enough for a per-request caller (the HTTP
        server derives ``Retry-After`` for shed clients from the p50).
        """
        with self._lock:
            return merge_quantile(
                [s.solve_latency for s in self._datasets.values()], q
            )

    def request_quantile(self, q: float) -> float | None:
        """Cross-dataset end-to-end request-latency quantile, or ``None``."""
        with self._lock:
            return merge_quantile(
                [s.request_latency for s in self._datasets.values()], q
            )

    def exposition_data(self) -> dict:
        """Raw per-dataset export for renderers (Prometheus exposition).

        Unlike :meth:`snapshot`, histograms come out as raw bucket
        counts (via :meth:`LatencyHistogram.export`) so a renderer can
        emit cumulative ``_bucket``/``_sum``/``_count`` series.  Taken
        under the one metrics lock — a consistent point-in-time view.
        """
        with self._lock:
            datasets = {}
            for name, stats in self._datasets.items():
                datasets[name] = {
                    "counters": dict(stats.counters),
                    "request_latency": stats.request_latency.export(),
                    "solve_latency": stats.solve_latency.export(),
                    "phases": {
                        phase: hist.export()
                        for phase, hist in stats.phases.items()
                    },
                }
            return {
                "scenario": self.scenario,
                "datasets": datasets,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
            }

    def record_batch(self, num_requests: int) -> None:
        """One gateway mailbox run: ``num_requests`` ops of one dataset."""
        with self._lock:
            self._batches += 1
            self._batched_requests += int(num_requests)

    def snapshot(self) -> dict:
        """Plain-dict export: per-dataset blocks plus cross-dataset totals."""
        with self._lock:
            datasets = {
                name: stats.snapshot() for name, stats in self._datasets.items()
            }
            totals: dict[str, int] = {}
            for stats in self._datasets.values():
                for name, value in stats.counters.items():
                    totals[name] = totals.get(name, 0) + value
            snap = {
                "datasets": datasets,
                "totals": totals,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
            }
            if self.scenario is not None:
                snap["scenario"] = self.scenario
            return snap
