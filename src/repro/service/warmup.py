"""Speculative warm-up: prime cold datasets before their first query.

`BENCH_server.json` told the story: p50 a few milliseconds, p99 close to
a second — the tail was entirely *first* queries paying a dataset's cold
start (index build, then the IntCov envelope and tau ladder, or a
BiGreedy delta-net score matrix).  The
:class:`Warmer` is a small background thread that pays those costs ahead
of traffic: it scans the registry for registered-but-cold datasets,
builds their indexes, primes the solver artifacts, and (optionally)
pre-solves a handful of standard solution sizes so the hottest keys are
memoized before the first client arrives.

Design constraints, in order:

* **Correctness is untouched.**  Warm-up only ever calls the same build
  and prime paths a first query would; every artifact is deterministic,
  so a warmed answer is bit-identical to a cold one.
* **Drain-safe.**  The loop checks its stop event between datasets and
  between priming steps; :meth:`Warmer.stop` joins the thread, and the
  server stops the warmer *before* the gateway so shutdown never races
  a speculative build.
* **Budget-respecting.**  A dataset the registry's byte budget evicted
  is not speculatively rebuilt (that would ping-pong with the LRU);
  only never-primed datasets are built, and re-priming happens only for
  indexes that are resident again anyway.
"""

from __future__ import annotations

import threading
import weakref

from ..obs.trace import Trace, use_trace

__all__ = ["Warmer"]

#: The standard multi-k workload sizes; also the default speculative set.
DEFAULT_WARMUP_KS = (4, 6, 8)


class Warmer:
    """Background primer over a :class:`~repro.service.registry.DatasetRegistry`.

    Args:
        registry: where the datasets live.  Builds go through
            ``registry.get`` (so they are serialized per dataset on the
            same lock the gateway uses) and are counted as ordinary
            builds; each primed dataset additionally counts one
            ``warmups`` metric.
        ks: solution sizes to warm.  For 2-D datasets the geometry
            (envelope + tau ladder) is primed — it is shared by
            every ``k``; for higher dimensions one truncated-MHR engine
            per ``k`` (at the paper's default net size) is built.
        solve: additionally pre-solve each ``k`` with default parameters
            through :meth:`~repro.serving.index.FairHMSIndex.query_multi`,
            so the standard keys are memoized (and tau hints recorded)
            before the first client asks.  Infeasible sizes are skipped.
        interval: seconds between registry scans; new registrations (and
            indexes rebuilt after an explicit eviction) are picked up on
            the next pass.
        traces: optional :class:`~repro.obs.trace.TraceStore`; each
            dataset actually primed records one ``warmup`` trace (build +
            pre-solve spans), so speculative work is as explainable as
            request work.
    """

    def __init__(
        self,
        registry,
        *,
        ks=DEFAULT_WARMUP_KS,
        solve: bool = True,
        interval: float = 1.0,
        traces=None,
    ) -> None:
        self.registry = registry
        self.ks = tuple(int(k) for k in ks)
        self.solve = bool(solve)
        self.interval = float(interval)
        self.traces = traces
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # name -> weakref to the index last primed.  A weakref (not an
        # id()) so a rebuilt index is always recognized as new — a dead
        # index's memory address can be reused by its replacement — and
        # so the warmer never keeps an evicted index alive.
        self._primed: dict[str, weakref.ref] = {}
        self._passes = 0
        self._errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "Warmer":
        """Start the background thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-warmup", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, timeout: float | None = 10.0) -> None:
        """Signal the thread and wait for it to exit (drain-safe point)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "Warmer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stats(self) -> dict:
        """JSON-ready warm-up state (surfaced by the server's metrics)."""
        with self._lock:
            return {
                "primed": sorted(self._primed),
                "passes": self._passes,
                "errors": self._errors,
                "ks": list(self.ks),
                "running": self._thread is not None and self._thread.is_alive(),
            }

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        while not self._stop.is_set():
            self.run_once()
            self._stop.wait(self.interval)

    def run_once(self) -> int:
        """One scan over the registry; returns datasets primed.

        Exposed for synchronous use (tests, bench setup): callers that
        want everything warm *now* call this directly instead of waiting
        for the background cadence.
        """
        primed = 0
        for name in self.registry.names():
            if self._stop.is_set():
                break
            try:
                if self._prime_dataset(name):
                    primed += 1
            except Exception:  # noqa: BLE001 - warm-up must never kill serving
                with self._lock:
                    self._errors += 1
        with self._lock:
            self._passes += 1
        return primed

    def _prime_dataset(self, name: str) -> bool:
        trace = (
            Trace("warmup", dataset=name) if self.traces is not None else None
        )
        with use_trace(trace):
            primed = self._prime_dataset_traced(name)
        if primed and trace is not None:
            # Only datasets that actually did work record a trace — the
            # steady-state "already primed" scan stays out of the ring.
            self.traces.record(trace)
        return primed

    def _prime_dataset_traced(self, name: str) -> bool:
        index = self.registry.peek(name)
        if index is None:
            with self._lock:
                if name in self._primed:
                    # Previously warmed and since evicted: the byte budget
                    # (or an operator) decided it should not be resident —
                    # rebuilding it speculatively would thrash the LRU.
                    return False
            index = self.registry.get(name)
        with self._lock:
            ref = self._primed.get(name)
            if ref is not None and ref() is index:
                return False
        if self._stop.is_set():
            return False
        self._prime_index(index)
        with self._lock:
            self._primed[name] = weakref.ref(index)
        self.registry.metrics.incr(name, "warmups")
        return True

    def _prime_index(self, index) -> None:
        """Build the solver artifacts a first query would have to build.

        Plan-driven: each warm-up ``k`` is planned through the index's
        :class:`~repro.planner.Planner` (without counting toward plan
        metrics), and priming pays the **predicted-most-expensive** work
        first — an interrupted pass has already shaved the worst of the
        cold tail.  What gets primed follows the plan's algorithm: the
        shared envelope + tau ladder for IntCov, one
        truncated-MHR engine per ``k`` for the BiGreedy family.
        """
        from ..core.bigreedy import default_net_size
        from ..serving.index import Query

        with index.lock:
            artifacts = index.artifacts
            skyline = index.skyline
            if artifacts is None or skyline is None:
                return  # an empty live dataset: nothing to warm yet
            plans = []
            for k in self.ks:
                if self._stop.is_set():
                    return
                try:
                    plans.append((k, index.plan_query(Query(k=k), record=False)))
                except ValueError:
                    continue  # k infeasible for this dataset's groups
            plans.sort(key=lambda item: -item[1].predicted_cost_s)
            if not plans and skyline.dim == 2:
                # Every standard k infeasible, but the geometry is shared
                # by ad-hoc constraints too — keep the old guarantee.
                artifacts.tau_ladder()
            seed = index.serving_config()["default_seed"]
            for k, plan in plans:
                if self._stop.is_set():
                    return
                if plan.algorithm == "IntCov":
                    # Shared by every k: the first IntCov plan pays it,
                    # the rest find it warm.
                    artifacts.tau_ladder()
                else:
                    engine_seed = plan.solver_kwargs().get("seed", seed)
                    artifacts.engine(
                        default_net_size(k, skyline.dim), engine_seed
                    )
            if self.solve and self.ks and not self._stop.is_set():
                try:
                    index.query_multi(list(self.ks))
                except ValueError:
                    # Some k is infeasible for this dataset's groups —
                    # warm each size independently and skip the bad ones.
                    for k in self.ks:
                        if self._stop.is_set():
                            return
                        try:
                            index.query(k)
                        except ValueError:
                            continue
