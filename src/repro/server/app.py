"""``FairHMSServer``: the asyncio HTTP/JSON front door over the Gateway.

The serving stack, bottom to top: ``FairHMSIndex`` answers queries over
one dataset; ``Gateway`` coalesces and fences concurrent requests across
many datasets; this server puts a network protocol in front of the
gateway so real clients can reach it — stdlib asyncio only, one event
loop thread doing protocol work while the gateway's worker pool does the
solves.

Endpoints (all JSON):

* ``POST /v1/query``  — ``{"dataset", "k", ...}`` -> one FairHMS answer.
* ``POST /v1/write``  — ``{"dataset", "op": "insert"|"delete", ...}``
  applied to a live dataset, in submission order against queries.
* ``GET /v1/datasets`` — registered datasets with residency/live flags.
* ``GET /v1/metrics``  — service metrics + registry + HTTP-layer stats +
  process gauges + per-tenant SLO attainment;
  ``?format=prometheus`` (or the ``/metrics`` alias) renders the same
  data in the Prometheus text exposition format.
* ``GET /v1/traces``   — recent + slowest completed request traces.
* ``GET /healthz``     — liveness plus the draining flag.

**Wire contract (v1.1)**: every ``/v1/*`` JSON response is wrapped in
the ``{"data", "error", "meta"}`` envelope with stable machine-readable
error codes (see :mod:`repro.server.api` and ``docs/API.md``); the
deprecated bare bodies remain reachable via ``?envelope=0`` or the
legacy ``Accept`` header.  ``/healthz`` and the Prometheus expositions
stay bare.

**Tracing**: with ``tracing`` on (the default) every query/write gets a
:class:`~repro.obs.trace.Trace` — honoring a caller-supplied
``x-repro-trace`` id and echoing it as a response header — that the
gateway, registry, and solver index annotate with queue-wait, build,
and solve/phase spans.  Completed traces land in a bounded
:class:`~repro.obs.trace.TraceStore` ring (``trace_buffer`` entries;
traces slower than ``slow_trace_s`` are logged), served by
``/v1/traces`` and the ``repro trace`` CLI.  Admitted requests also
feed the per-tenant :class:`~repro.obs.slo.SloTracker` (shed 429s stay
out of the SLO window: refusing work by design is not a violation of
the work admitted).

**Admission control**: at most ``max_inflight`` queries/writes are in
flight at once; excess requests are shed immediately with HTTP 429 (and
a ``Retry-After`` hint) instead of growing an unbounded queue — the
gateway's batching stays effective and latency stays bounded under
overload.  Sheds are counted per dataset in ``ServiceMetrics`` under
``shed``.  Reads of ``/healthz``, ``/v1/metrics`` and ``/v1/datasets``
are always admitted (operators need them most under overload).

**Graceful drain** (SIGTERM/SIGINT via :meth:`install_signal_handlers`,
or :meth:`drain` directly): stop accepting connections, let in-flight
requests resolve (bounded by ``drain_timeout``), stop the gateway (its
own stop() drains every accepted future), then spill the registry to
disk when a snapshot tier is configured — live datasets' applied writes
survive into the next process's warm start.

The event-loop side never blocks on solver work: gateway futures are
bridged with ``asyncio.wrap_future`` and the blocking shutdown path runs
in the loop's default executor.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal as _signal
import time

import numpy as np

# NumPy 2 loads these two on first use: numpy.random at the first
# np.random access and numpy.ma inside the first np.unique call, both of
# which every dataset build makes.  Loading them here puts that cost in
# start-up, before the server listens, instead of in its first requests.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from ..fairness.constraints import FairnessConstraint
from ..obs.process import process_stats
from ..obs.prometheus import render_prometheus
from ..obs.slo import SloObjectives, SloTracker
from ..obs.trace import Trace, TraceStore
from ..service.gateway import Gateway
from ..service.metrics import LatencyHistogram
from ..service.registry import DatasetRegistry
from .api import new_request_id, wants_envelope, wrap_legacy
from .config import ServerConfig, build_registry
from .http import HttpError, HttpRequest, read_request, send_json, send_text

__all__ = ["FairHMSServer"]

_ENDPOINTS = {
    ("GET", "/healthz"),
    ("GET", "/v1/metrics"),
    ("GET", "/metrics"),
    ("GET", "/v1/traces"),
    ("GET", "/v1/datasets"),
    ("POST", "/v1/query"),
    ("POST", "/v1/write"),
}

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _PlainText(str):
    """Dispatch payload marker: send as plain text, not JSON (exposition)."""


def _solution_payload(dataset: str, solution) -> dict:
    """JSON body for one answered query.

    ``ids`` and ``mhr_estimate`` are the bit-identity surface: JSON
    round-trips Python floats exactly (shortest-repr), so an HTTP answer
    compares bit-for-bit against an in-process solve.
    """
    violations = None
    if solution.constraint is not None:
        violations = int(solution.violations())
    est = solution.mhr_estimate
    return {
        "dataset": dataset,
        "algorithm": solution.algorithm,
        "ids": [int(v) for v in solution.ids],
        "size": int(solution.size),
        "mhr_estimate": None if est is None else float(est),
        "group_counts": [int(v) for v in solution.group_counts()],
        "violations": violations,
    }


def _parse_constraint(raw) -> FairnessConstraint:
    if not isinstance(raw, dict):
        raise HttpError(400, "constraint must be an object with lower/upper/k")
    unknown = set(raw) - {"lower", "upper", "k"}
    if unknown:
        raise HttpError(400, f"unknown constraint keys: {sorted(unknown)}")
    try:
        return FairnessConstraint(
            lower=np.asarray(raw["lower"], dtype=np.int64),
            upper=np.asarray(raw["upper"], dtype=np.int64),
            k=int(raw["k"]),
        )
    except HttpError:
        raise
    except Exception as exc:  # noqa: BLE001 - anything malformed is a 400
        raise HttpError(400, f"invalid constraint: {exc}") from None


class FairHMSServer:
    """Asyncio HTTP server over a :class:`Gateway` (see module docstring).

    Construct with a ready registry (tests, embedding) or via
    :meth:`from_config`.  Lifecycle: ``await start()`` inside a running
    loop, then ``await wait_stopped()``; ``await drain()`` (or a signal,
    after :meth:`install_signal_handlers`) shuts down gracefully.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        drain_timeout: float = 30.0,
        max_body_bytes: int = 1 << 20,
        tracing: bool = True,
        trace_buffer: int = 256,
        slow_trace_s: float = 1.0,
        slo: SloObjectives | None = None,
        worker_id: str | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.registry = registry
        #: Process name surfaced in envelope meta (cluster workers get
        #: theirs from the supervisor; a standalone server is "server").
        self.worker_id = str(worker_id) if worker_id else "server"
        self.metrics = registry.metrics
        self.gateway = Gateway(registry)
        #: Completed-trace ring buffer (None with tracing disabled).
        self.traces: TraceStore | None = (
            TraceStore(capacity=trace_buffer, slow_threshold=slow_trace_s)
            if tracing
            else None
        )
        #: Per-tenant SLO attainment over a rolling request window.
        self.slo = SloTracker(slo if slo is not None else SloObjectives())
        self.host = str(host)
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.drain_timeout = float(drain_timeout)
        self.max_body_bytes = int(max_body_bytes)
        #: HTTP-layer latency (request parsed -> response built), kept
        #: separate from the gateway's per-dataset histograms.
        self.http_latency = LatencyHistogram()
        self._endpoint_hits: dict[str, int] = {}
        self._shed_total = 0
        self._http_errors = 0
        #: solver-side work in flight (admission control bound).
        self._inflight = 0
        #: HTTP requests mid-handling, response write included (drain
        #: waits on this, not on _inflight, so the final response of an
        #: in-flight request is written before connections are closed).
        self._active = 0
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._writers: set = set()
        self._quiesced: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None

    @classmethod
    def from_config(
        cls, config: ServerConfig, *, registry: DatasetRegistry | None = None
    ) -> "FairHMSServer":
        """Build a server (and, unless given, its registry) from a config."""
        if registry is None:
            registry = build_registry(config)
        return cls(
            registry,
            host=config.host,
            port=config.port,
            max_inflight=config.max_inflight,
            drain_timeout=config.drain_timeout,
            max_body_bytes=config.max_body_bytes,
            tracing=config.tracing,
            trace_buffer=config.trace_buffer,
            slow_trace_s=config.slow_trace_s,
            slo=config.slo,
            worker_id=config.worker_id,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves at start)."""
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "FairHMSServer":
        """Bind the listener and start the gateway's worker pool."""
        self._quiesced = asyncio.Event()
        self._quiesced.set()
        self._stopped = asyncio.Event()
        self.gateway.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def install_signal_handlers(self, signals=(_signal.SIGTERM, _signal.SIGINT)):
        """Drain gracefully on the given signals; returns those installed.

        Only possible from the main thread of the main interpreter (a
        CPython restriction on signal handling); elsewhere — e.g. the
        test harness's server thread — this is a no-op and the caller
        drains explicitly.
        """
        loop = asyncio.get_running_loop()
        installed = []
        for sig in signals:
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread or unsupported platform
            installed.append(sig)
        return tuple(installed)

    async def wait_stopped(self) -> None:
        """Block until a drain has fully shut the server down."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, spill, stop.

        Idempotent.  Order matters: (1) flag draining and close the
        listener — new connections are refused, requests on live
        connections get 503; (2) wait (bounded by ``drain_timeout``) for
        every in-flight request to resolve *and its response to be
        written*; (3) close lingering idle keep-alive connections (their
        handlers see EOF and exit cleanly), and only then wait for the
        listener to close — from Python 3.12.1 that wait lasts until
        every accepted connection has closed, so waiting any earlier
        hangs on an idle client; (4) stop the gateway — its own shutdown
        drains anything still queued so no accepted future is dropped;
        (5) spill the registry when a snapshot tier exists, so live
        datasets' applied writes are durable for the next process.
        Steps 4-5 block, so they run in the executor.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._active:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._quiesced.wait(), timeout=self.drain_timeout
                )
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        await asyncio.sleep(0)  # let the woken handlers observe EOF and exit
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_blocking)
        self._stopped.set()

    def _shutdown_blocking(self) -> None:
        """Worker-side shutdown: gateway stop, then registry spill."""
        self.gateway.stop()
        if self.registry.store is not None:
            for name in self.registry.resident_names():
                self.registry.evict(name)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def _begin_request(self) -> None:
        self._active += 1
        self._quiesced.clear()

    def _end_request(self) -> None:
        self._active -= 1
        if self._active == 0:
            self._quiesced.set()

    async def _serve_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body_bytes
                    )
                except HttpError as exc:
                    self._http_errors += 1
                    await send_json(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    return
                if request is None:
                    return
                self._begin_request()
                try:
                    t0 = time.perf_counter()
                    status, payload, extra = await self._dispatch(request)
                    self.http_latency.observe(time.perf_counter() - t0)
                    if status >= 500:
                        self._http_errors += 1
                    close = not request.keep_alive or self._draining
                    if isinstance(payload, _PlainText):
                        await send_text(
                            writer,
                            status,
                            str(payload),
                            content_type=_PROMETHEUS_CONTENT_TYPE,
                            close=close,
                            extra_headers=extra,
                        )
                    else:
                        await send_json(
                            writer, status, payload, close=close, extra_headers=extra
                        )
                finally:
                    self._end_request()
                if close:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            return  # mid-request disconnect: nothing left to answer
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest):
        """Route one request; returns ``(status, payload, extra_headers)``.

        ``/v1/*`` JSON responses come back wrapped in the v1.1 envelope
        unless the request selected the deprecated bare body
        (``?envelope=0`` / legacy ``Accept`` — see ``repro.server.api``).
        ``/healthz``, ``/metrics``, and the Prometheus rendering of
        ``/v1/metrics`` always keep their historical bare shapes.
        """
        status, payload, extra = await self._dispatch_bare(request)
        if (
            request.path.startswith("/v1/")
            and not isinstance(payload, _PlainText)
            and wants_envelope(request)
        ):
            # The trace id (echoed as x-repro-trace) doubles as the
            # request id, so an envelope and the trace store correlate.
            request_id = (extra or {}).get("x-repro-trace") or new_request_id()
            payload = wrap_legacy(
                status, payload, request_id=request_id, worker=self.worker_id
            )
        return status, payload, extra

    async def _dispatch_bare(self, request: HttpRequest):
        """Route one request to its handler (legacy-shaped payloads)."""
        method, path = request.method, request.path
        key = f"{method} {path}"
        if (method, path) in _ENDPOINTS:
            self._endpoint_hits[key] = self._endpoint_hits.get(key, 0) + 1
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                return 200, self._health_payload(), None
            if path in ("/v1/metrics", "/metrics"):
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                # /metrics is the conventional scrape alias: always the
                # exposition format.  /v1/metrics defaults to JSON and
                # opts into exposition via ?format=prometheus.
                if path == "/metrics" or request.param("format") == "prometheus":
                    return 200, _PlainText(self.prometheus_exposition()), None
                payload = {
                    "service": self.metrics.snapshot(),
                    "registry": self.registry.snapshot(),
                    "server": self.server_stats(),
                    "slo": self.slo.snapshot(),
                    "planner": self.registry.planner.stats(),
                    "process": process_stats(),
                }
                if self.traces is not None:
                    payload["traces"] = self.traces.stats()
                return 200, payload, None
            if path == "/v1/traces":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                if self.traces is None:
                    return 200, {"tracing": False, "recent": [], "slowest": []}, None
                limit = request.param("limit")
                try:
                    limit = 20 if limit is None else max(1, min(100, int(limit)))
                except ValueError:
                    raise HttpError(400, f"limit must be an integer: {limit!r}") from None
                payload = self.traces.snapshot(limit=limit)
                payload["tracing"] = True
                return 200, payload, None
            if path == "/v1/datasets":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                return (
                    200,
                    {
                        "datasets": [
                            self.registry.describe(name)
                            for name in self.registry.names()
                        ]
                    },
                    None,
                )
            if path == "/v1/query":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                return await self._handle_query(request)
            if path == "/v1/write":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                return await self._handle_write(request)
            return 404, {"error": f"no such endpoint: {method} {path}"}, None
        except HttpError as exc:
            return exc.status, {"error": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 - never kill the connection loop
            return (
                500,
                {"error": str(exc), "error_type": type(exc).__name__},
                None,
            )

    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "worker": self.worker_id,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "datasets": len(self.registry),
        }

    def server_stats(self) -> dict:
        """HTTP-layer observability block for ``/v1/metrics``."""
        return {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "shed": self._shed_total,
            "http_errors": self._http_errors,
            "endpoints": dict(self._endpoint_hits),
            "http_latency": self.http_latency.snapshot(),
        }

    def prometheus_exposition(self) -> str:
        """The ``/metrics`` scrape body (Prometheus text exposition).

        Every ``ServiceMetrics`` counter and histogram (with ``dataset``
        /``scenario`` labels), the server/registry gauges, the
        per-tenant SLO gauges, process gauges, and trace-store counters
        — rendered in one consistent pass.
        """
        reg = self.registry.snapshot()
        gauges = {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "http_active_requests": self._active,
            "http_shed": self._shed_total,
            "http_errors": self._http_errors,
            "http_latency_p99_seconds": self.http_latency.quantile(0.99),
            "registry_cache_bytes": reg["total_cache_bytes"],
            "registry_resident_indexes": len(reg["resident"]),
            "registry_registered_datasets": len(reg["registered"]),
        }
        return render_prometheus(
            self.metrics,
            gauges=gauges,
            slo=self.slo.snapshot(),
            process=process_stats(),
            traces=None if self.traces is None else self.traces.stats(),
            plans=self.registry.planner.counters_export(),
        )

    # ------------------------------------------------------------------ #
    # query / write
    # ------------------------------------------------------------------ #

    def _retry_after(self) -> str:
        """Seconds a shed client should back off, from observed latency.

        Estimates the time to drain the current in-flight backlog as
        ``solve-latency p50 x inflight`` (the gateway serializes per
        dataset but overlaps datasets, so this overestimates mildly —
        the right direction for a backoff hint).  Before any solve has
        been observed there is nothing to extrapolate from; fall back to
        the old fixed 1 second.  Clamped to [1, 60]: integer seconds are
        what the header grammar allows, and a p99 blip must not tell
        clients to go away for minutes.
        """
        p50 = self.metrics.solve_quantile(0.5)
        if p50 is None:
            return "1"
        estimate = p50 * max(1, self._inflight)
        return str(max(1, min(60, math.ceil(estimate))))

    def _admit(self, dataset: str):
        """Admission check; returns a shed response or None when admitted.

        Runs entirely on the event loop, so the counter needs no lock;
        the matching decrement is in :meth:`_await_future`'s finally.
        """
        if self._draining:
            return 503, {"error": "server is draining"}, None
        if self._inflight >= self.max_inflight:
            self._shed_total += 1
            self.metrics.incr(dataset, "shed")
            return (
                429,
                {
                    "error": (
                        f"server overloaded ({self._inflight} requests in "
                        f"flight); retry later"
                    ),
                    "shed": True,
                },
                {"Retry-After": self._retry_after()},
            )
        return None

    async def _await_future(self, future):
        """Bridge a gateway future into the loop, tracking in-flight count."""
        self._inflight += 1
        try:
            return await asyncio.wrap_future(future)
        finally:
            self._inflight -= 1

    def _open_trace(self, request: HttpRequest, name: str, dataset: str):
        """A per-request trace honoring an inbound ``x-repro-trace`` id."""
        if self.traces is None:
            return None
        return Trace(
            name,
            trace_id=request.headers.get("x-repro-trace"),
            dataset=dataset,
        )

    def _close_request(self, trace, headers, started: float, dataset: str, status: int):
        """Account one admitted request: SLO sample + trace; returns headers.

        Only requests that made it past admission reach here, so shed
        429s never burn error budget; client errors (4xx) count against
        latency but not availability.
        """
        self.slo.record(dataset, time.perf_counter() - started, ok=status < 500)
        if trace is None:
            return headers
        trace.annotate(status=int(status))
        if status >= 400:
            trace.annotate(error=True)
        self.traces.record(trace)
        headers = dict(headers or {})
        headers["x-repro-trace"] = trace.trace_id
        return headers

    @staticmethod
    def _error_response(exc: Exception):
        if isinstance(exc, KeyError):
            return 404, {"error": str(exc).strip("'\""), "error_type": "KeyError"}, None
        if isinstance(exc, (ValueError, TypeError, AttributeError)):
            # Bad parameters, infeasible constraints, writes to a frozen
            # dataset — the request is at fault, not the server.
            return (
                400,
                {"error": str(exc), "error_type": type(exc).__name__},
                None,
            )
        return 500, {"error": str(exc), "error_type": type(exc).__name__}, None

    async def _handle_query(self, request: HttpRequest):
        body = request.json()
        dataset = body.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise HttpError(400, "dataset must be a non-empty string")
        if dataset not in self.registry:
            return 404, {"error": f"unknown dataset {dataset!r}"}, None
        shed = self._admit(dataset)
        if shed is not None:
            return shed
        allowed = {
            "dataset", "k", "constraint", "eps", "algorithm",
            "seed", "alpha", "scheme", "options",
        }
        unknown = set(body) - allowed
        if unknown:
            raise HttpError(400, f"unknown query keys: {sorted(unknown)}")
        options = body.get("options", {})
        if not isinstance(options, dict):
            raise HttpError(400, "options must be an object")
        constraint = body.get("constraint")
        if constraint is not None:
            constraint = _parse_constraint(constraint)
        k = body.get("k")
        trace = self._open_trace(request, "POST /v1/query", dataset)
        started = time.perf_counter()
        try:
            future = self.gateway.submit(
                dataset,
                None if k is None else int(k),
                constraint=constraint,
                eps=float(body.get("eps", 0.02)),
                algorithm=str(body.get("algorithm", "auto")),
                seed=body.get("seed"),
                alpha=float(body.get("alpha", 0.1)),
                scheme=str(body.get("scheme", "proportional")),
                trace=trace,
                **options,
            )
            solution = await self._await_future(future)
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status
            status, payload, headers = self._error_response(exc)
            return status, payload, self._close_request(
                trace, headers, started, dataset, status
            )
        return 200, _solution_payload(dataset, solution), self._close_request(
            trace, None, started, dataset, 200
        )

    async def _handle_write(self, request: HttpRequest):
        body = request.json()
        dataset = body.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise HttpError(400, "dataset must be a non-empty string")
        if dataset not in self.registry:
            return 404, {"error": f"unknown dataset {dataset!r}"}, None
        shed = self._admit(dataset)
        if shed is not None:
            return shed
        op = body.get("op")
        if op not in ("insert", "delete"):
            raise HttpError(400, f"op must be 'insert' or 'delete', got {op!r}")
        if "key" not in body:
            raise HttpError(400, "write needs a key")
        try:
            key = int(body["key"])
            if op == "insert":
                point = np.asarray(body["point"], dtype=np.float64)
                args = (key, point, int(body["group"]))
            else:
                args = (key,)
        except HttpError:
            raise
        except Exception as exc:  # noqa: BLE001 - malformed write payload
            raise HttpError(400, f"invalid write payload: {exc}") from None
        trace = self._open_trace(request, "POST /v1/write", dataset)
        started = time.perf_counter()
        try:
            future = self.gateway.submit_update(dataset, op, *args, trace=trace)
            version = await self._await_future(future)
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status
            status, payload, headers = self._error_response(exc)
            return status, payload, self._close_request(
                trace, headers, started, dataset, status
            )
        return (
            200,
            {
                "dataset": dataset,
                "applied": op,
                "key": key,
                "version": None if version is None else int(version),
            },
            self._close_request(trace, None, started, dataset, 200),
        )
