"""The cluster router: one asyncio front door over N worker servers.

The router owns no solver state.  It parses just enough of each
``/v1/*`` request to pick a worker — the dataset name, hashed onto the
consistent-hash ring — and proxies the request over a pooled keep-alive
connection, passing the worker's response bytes through untouched (the
bit-identity surface survives the hop byte-for-byte).  Routing policy:

* **live datasets are pinned to their owner.**  All writes and all
  queries for a live dataset go to the single ring owner, so the write
  order (and the index version sequence the WAL records) stays one
  serial history.
* **frozen datasets fan across replicas.**  Frozen indexes are
  immutable and deterministic, so the first ``replicas`` nodes of the
  dataset's ring preference list all answer bit-identically; reads
  rotate across the healthy ones, and a connect failure fails over to
  the next replica transparently.
* **health**: a background probe hits every worker's ``/healthz`` each
  ``health_interval``; a failed probe (or a failed proxy connect) marks
  the worker unhealthy immediately, a succeeding probe heals it.  With
  no reachable candidate the router answers 503
  ``worker_unavailable`` (retryable, with ``Retry-After``) — the SDK
  rides out a supervisor restart with its own backoff.

Router-originated endpoints: ``/healthz`` (bare, like the workers'),
``/v1/cluster`` (topology: workers, health, per-dataset routing),
``/metrics`` (Prometheus text exposition of the ``repro_cluster_*``
series), ``/v1/metrics`` (JSON router stats; ``?worker=NAME`` proxies
to that worker instead), and ``/v1/traces`` (router-hop traces;
``?worker=NAME`` proxies).  Router responses use the same v1.1
envelope as the workers with ``meta.worker = "router"``.

Every proxied response gains ``x-repro-worker`` (who answered) and
``x-repro-route`` (``owner``, ``replica``, or ``failover``) headers, so
clients and benches can observe routing without parsing bodies.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

from ..obs.prometheus import PrometheusRenderer
from ..obs.trace import Trace, TraceStore
from ..server.api import error_object, new_request_id, wants_envelope, wrap_legacy
from ..server.http import HttpError, HttpRequest, read_request, send_json, send_text
from ..service.metrics import LatencyHistogram
from .hashring import HashRing

__all__ = ["ClusterRouter", "RouterThread"]

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request headers forwarded to workers (hop-by-hop headers are not).
_FORWARD_HEADERS = ("content-type", "accept", "x-repro-trace")


class _Worker:
    """Router-side record of one worker process."""

    __slots__ = ("name", "host", "port", "healthy", "pool")

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = str(host)
        self.port = int(port)
        self.healthy = True
        self.pool: list[tuple] = []  # free (reader, writer) pairs


class ClusterRouter:
    """Asyncio proxy partitioning datasets across worker servers.

    Args:
        workers: ``name -> (host, port)`` of the worker fleet.
        datasets: ``name -> live?`` for every configured dataset — live
            ones are pinned to their owner, frozen ones fan across
            replicas.  Unknown names route to their would-be owner,
            which answers the authoritative 404.
        replicas: how many ring nodes serve each frozen dataset.
        vnodes: virtual nodes per worker (must match the supervisor's).
        host / port: listen address (port 0 = OS-assigned).
        health_interval: seconds between active health probes.
        connect_timeout: seconds to wait for a worker TCP connect.
        tracing / trace_buffer: router-hop trace ring (span per proxy).
    """

    def __init__(
        self,
        workers: dict,
        *,
        datasets: dict | None = None,
        replicas: int = 2,
        vnodes: int = 64,
        host: str = "127.0.0.1",
        port: int = 0,
        health_interval: float = 1.0,
        connect_timeout: float = 1.0,
        max_body_bytes: int = 1 << 20,
        tracing: bool = True,
        trace_buffer: int = 256,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        self.host = str(host)
        self.port = int(port)
        self.replicas = int(replicas)
        self.health_interval = float(health_interval)
        self.connect_timeout = float(connect_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.ring = HashRing(workers, vnodes=vnodes)
        self._workers = {
            name: _Worker(name, host_, port_)
            for name, (host_, port_) in workers.items()
        }
        self._live = {
            name: bool(live) for name, live in (datasets or {}).items()
        }
        self._rr: dict[str, int] = {}  # per-dataset replica rotation
        self.traces: TraceStore | None = (
            TraceStore(capacity=trace_buffer) if tracing else None
        )
        self.hop_latency = LatencyHistogram()
        self._counters: dict[tuple, int] = {}
        self._server: asyncio.base_events.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        # writer -> handler task, for connections waiting between requests
        self._idle: dict = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def start(self) -> "ClusterRouter":
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self

    async def drain(self) -> None:
        """Stop accepting, close idle clients, cancel probes, close pools.

        Idle keep-alive connections are closed and their handlers run to
        completion here (they see EOF and return), rather than being
        cancelled mid-read when the event loop shuts down.  A connection
        with a request in flight answers it and then closes.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        idle = dict(self._idle)
        for writer in idle:
            with contextlib.suppress(Exception):
                writer.close()
        if idle:
            await asyncio.wait(idle.values())
        if self._server is not None:
            await self._server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for worker in self._workers.values():
            for _reader, writer in worker.pool:
                with contextlib.suppress(Exception):
                    writer.close()
            worker.pool.clear()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def set_worker(self, name: str, host: str, port: int) -> None:
        """Point ``name`` at a new address (supervisor restarted it).

        Call from the router's event loop (the supervisor uses
        ``call_soon_threadsafe``).  The old pool is dropped — those
        sockets point at the dead process.
        """
        worker = self._workers.get(name)
        if worker is None:
            raise KeyError(f"unknown worker {name!r}")
        for _reader, writer in worker.pool:
            with contextlib.suppress(Exception):
                writer.close()
        worker.pool = []
        worker.host = str(host)
        worker.port = int(port)
        worker.healthy = True

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def _incr(self, name: str, label: str | None = None, n: int = 1) -> None:
        key = (name, label)
        self._counters[key] = self._counters.get(key, 0) + n

    def stats(self) -> dict:
        """JSON router stats (the ``/v1/metrics`` body)."""
        counters: dict[str, object] = {}
        for (name, label), value in sorted(self._counters.items()):
            if label is None:
                counters[name] = value
            else:
                counters.setdefault(name, {})[label] = value  # type: ignore[union-attr]
        return {
            "workers": {
                name: {
                    "host": w.host,
                    "port": w.port,
                    "healthy": w.healthy,
                    "pooled_connections": len(w.pool),
                }
                for name, w in sorted(self._workers.items())
            },
            "counters": counters,
            "hop_latency": self.hop_latency.snapshot(),
            "datasets": {
                name: self.describe_route(name) for name in sorted(self._live)
            },
        }

    def describe_route(self, dataset: str) -> dict:
        """Routing verdict for one dataset name (``/v1/cluster`` rows)."""
        live = self._live.get(dataset, False)
        preference = self.ring.preference(
            dataset, 1 if live else self.replicas
        )
        return {
            "live": live,
            "owner": preference[0],
            "replicas": preference,
        }

    def prometheus_exposition(self) -> str:
        """The ``repro_cluster_*`` scrape body."""
        r = PrometheusRenderer(namespace="repro_cluster")
        healthy = sum(1 for w in self._workers.values() if w.healthy)
        r.gauge("workers", len(self._workers), help="Configured workers.")
        r.gauge("workers_healthy", healthy, help="Workers passing health checks.")
        r.gauge(
            "datasets",
            len(self._live),
            help="Datasets the router knows routing policy for.",
        )
        help_by_name = {
            "requests": "Requests accepted by the router, per endpoint.",
            "proxied": "Requests proxied, per worker.",
            "failovers": "Reads retried on a replica after a worker failure.",
            "routing_errors": "Router-originated error responses, per code.",
            "health_probes": "Active health probes sent.",
            "health_failures": "Active health probes that failed.",
        }
        label_by_name = {
            "requests": "endpoint",
            "proxied": "worker",
            "routing_errors": "code",
        }
        for (name, label), value in sorted(self._counters.items()):
            labels = None
            if label is not None:
                labels = {label_by_name.get(name, "label"): label}
            r.counter(
                f"{name}_total",
                value,
                labels,
                help=help_by_name.get(name, f"Router counter {name}."),
            )
        r.histogram(
            "hop_seconds",
            self.hop_latency.export(),
            help="Router hop latency: request parsed to response relayed.",
        )
        return r.render()

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #

    async def _health_loop(self) -> None:
        # drain() cancels this task, but on Python < 3.12 a cancel that
        # lands as a probe's wait_for completes is swallowed (CPython
        # gh-86296) and the probe returns normally; the flag still ends
        # the loop, so drain never waits on it forever.
        while not self._draining:
            await asyncio.sleep(self.health_interval)
            for worker in list(self._workers.values()):
                if self._draining:
                    return
                await self._probe(worker)

    async def _probe(self, worker: _Worker) -> None:
        """One active /healthz probe on a throwaway connection."""
        self._incr("health_probes")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(worker.host, worker.port),
                timeout=self.connect_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            self._mark_down(worker)
            return
        try:
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: cluster\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            status, _headers, _body, _close = await asyncio.wait_for(
                _read_response(reader), timeout=self.connect_timeout + 1.0
            )
            worker.healthy = status == 200
            if not worker.healthy:
                self._incr("health_failures")
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            self._mark_down(worker)
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    def _mark_down(self, worker: _Worker) -> None:
        self._incr("health_failures")
        worker.healthy = False
        for _reader, w in worker.pool:
            with contextlib.suppress(Exception):
                w.close()
        worker.pool = []

    # ------------------------------------------------------------------ #
    # proxy plumbing
    # ------------------------------------------------------------------ #

    async def _checkout(self, worker: _Worker):
        """A pooled connection to ``worker``, or a fresh one."""
        while worker.pool:
            reader, writer = worker.pool.pop()
            if not writer.is_closing():
                return reader, writer
            with contextlib.suppress(Exception):
                writer.close()
        return await asyncio.wait_for(
            asyncio.open_connection(worker.host, worker.port),
            timeout=self.connect_timeout,
        )

    async def _exchange(self, worker: _Worker, request: HttpRequest):
        """Proxy one request; returns ``(status, header_lines, body)``.

        Raises ``OSError``/``TimeoutError``/``IncompleteReadError`` on
        transport failure (caller decides whether failover is safe).
        """
        reader, writer = await self._checkout(worker)
        try:
            target = request.path + (f"?{request.query}" if request.query else "")
            head = [
                f"{request.method} {target} HTTP/1.1",
                f"Host: {worker.host}:{worker.port}",
                "Connection: keep-alive",
                f"Content-Length: {len(request.body)}",
            ]
            for name in _FORWARD_HEADERS:
                value = request.headers.get(name)
                if value is not None:
                    head.append(f"{name}: {value}")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + request.body)
            await writer.drain()
            status, header_lines, body, close = await _read_response(reader)
        except BaseException:
            with contextlib.suppress(Exception):
                writer.close()
            raise
        if close:
            with contextlib.suppress(Exception):
                writer.close()
        else:
            worker.pool.append((reader, writer))
        return status, header_lines, body

    def _candidates(self, dataset: str, *, write: bool) -> list[_Worker]:
        """Routing order for one request: owner first, then replicas.

        Live datasets and writes pin to the owner alone; frozen reads
        rotate the healthy replicas (sticky owner start otherwise) and
        keep unhealthy ones as last-resort candidates — a stale health
        verdict must not turn into a refusal while the worker is back.
        """
        live = self._live.get(dataset, False)
        if write or live:
            return [self._workers[self.ring.owner(dataset)]]
        names = self.ring.preference(dataset, self.replicas)
        workers = [self._workers[name] for name in names]
        healthy = [w for w in workers if w.healthy]
        if not healthy:
            return workers
        turn = self._rr.get(dataset, 0)
        self._rr[dataset] = turn + 1
        rotated = healthy[turn % len(healthy):] + healthy[: turn % len(healthy)]
        return rotated + [w for w in workers if not w.healthy]

    async def _proxy(self, request: HttpRequest, dataset: str, *, write: bool):
        """Route + proxy one request; returns a relay or router error."""
        candidates = self._candidates(dataset, write=write)
        route = "owner" if (write or self._live.get(dataset, False)) else "replica"
        span = None
        if self.traces is not None:
            span = Trace(
                f"proxy {request.path}",
                trace_id=request.headers.get("x-repro-trace"),
                dataset=dataset,
            )
            # Forward the span's id (minted when the client sent none) so
            # the worker's trace stitches to this one.
            request.headers["x-repro-trace"] = span.trace_id
        attempts = list(candidates)
        if write and len(attempts) == 1:
            # The owner gets a second chance: a supervisor restart swaps
            # the address between the tries (set_worker drops the pool).
            attempts = attempts * 2
        last_worker = None
        for tries, worker in enumerate(attempts):
            last_worker = worker
            t0 = time.perf_counter()
            try:
                status, header_lines, body = await self._exchange(worker, request)
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                self._mark_down(worker)
                if span is not None:
                    span.annotate(failed_worker=worker.name)
                if tries + 1 < len(attempts):
                    self._incr("failovers")
                    route = "failover"
                    if write:
                        await asyncio.sleep(
                            min(self.health_interval, self.connect_timeout)
                        )
                continue
            self.hop_latency.observe(time.perf_counter() - t0)
            self._incr("proxied", worker.name)
            worker.healthy = True
            if span is not None:
                span.annotate(worker=worker.name, route=route, status=status)
                self.traces.record(span)
            extra = [f"x-repro-worker: {worker.name}", f"x-repro-route: {route}"]
            return ("relay", status, header_lines + extra, body)
        if span is not None:
            span.annotate(error=True, route="unavailable")
            self.traces.record(span)
        self._incr("routing_errors", "worker_unavailable")
        who = last_worker.name if last_worker is not None else "?"
        return (
            "error",
            503,
            {
                "error": (
                    f"no worker reachable for dataset {dataset!r} "
                    f"(last tried {who})"
                ),
                "code": "worker_unavailable",
            },
            {"Retry-After": "1"},
        )

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        try:
            while not self._draining:
                self._idle[writer] = task
                try:
                    request = await read_request(
                        reader, max_body=self.max_body_bytes
                    )
                except HttpError as exc:
                    await send_json(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    return
                finally:
                    self._idle.pop(writer, None)
                if request is None:
                    return
                close = not request.keep_alive or self._draining
                done = await self._handle(request, writer, close=close)
                if close or not done:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            return
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle(self, request: HttpRequest, writer, *, close: bool) -> bool:
        """Answer one request; False ends the connection (relay failed)."""
        self._incr("requests", f"{request.method} {request.path}")
        outcome = await self._route_request(request)
        kind = outcome[0]
        if kind == "relay":
            _, status, header_lines, body = outcome
            await _relay(writer, status, header_lines, body)
            return True
        _, status, payload, extra = outcome
        if request.path.startswith("/v1/") and wants_envelope(request):
            request_id = request.headers.get("x-repro-trace") or new_request_id()
            code = payload.pop("code", None) if isinstance(payload, dict) else None
            if status < 400:
                payload = wrap_legacy(
                    status, payload, request_id=request_id, worker="router"
                )
            else:
                message = (
                    payload.get("error", "") if isinstance(payload, dict) else ""
                )
                payload = {
                    "data": None,
                    "error": error_object(code or "internal", message),
                    "meta": {
                        "request_id": request_id,
                        "worker": "router",
                        "api_version": "1.1",
                    },
                }
        elif isinstance(payload, dict):
            payload.pop("code", None)
        if isinstance(payload, str):
            await send_text(
                writer,
                status,
                payload,
                content_type=_PROMETHEUS_CONTENT_TYPE,
                close=close,
                extra_headers=extra,
            )
        else:
            await send_json(
                writer, status, payload, close=close, extra_headers=extra
            )
        return True

    async def _route_request(self, request: HttpRequest):
        """Dispatch: router-originated endpoints, else proxy by dataset."""
        method, path = request.method, request.path
        if path == "/healthz":
            healthy = sum(1 for w in self._workers.values() if w.healthy)
            return (
                "local",
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "role": "router",
                    "workers": len(self._workers),
                    "workers_healthy": healthy,
                    "datasets": len(self._live),
                },
                None,
            )
        if path == "/metrics" or (
            path == "/v1/metrics" and request.param("format") == "prometheus"
        ):
            return ("local", 200, self.prometheus_exposition(), None)
        if path == "/v1/cluster":
            if method != "GET":
                return ("local", 405, {"error": "use GET"}, None)
            return (
                "local",
                200,
                {
                    "replicas": self.replicas,
                    "workers": self.stats()["workers"],
                    "datasets": {
                        name: self.describe_route(name)
                        for name in sorted(self._live)
                    },
                },
                None,
            )
        if path in ("/v1/metrics", "/v1/traces"):
            target = request.param("worker")
            if target is not None:
                worker = self._workers.get(target)
                if worker is None:
                    return (
                        "local",
                        404,
                        {
                            "error": f"unknown worker {target!r}",
                            "code": "not_found",
                        },
                        None,
                    )
                try:
                    status, header_lines, body = await self._exchange(
                        worker, request
                    )
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                    self._mark_down(worker)
                    self._incr("routing_errors", "worker_unavailable")
                    return (
                        "error",
                        503,
                        {
                            "error": f"worker {target!r} unreachable",
                            "code": "worker_unavailable",
                        },
                        {"Retry-After": "1"},
                    )
                self._incr("proxied", worker.name)
                extra = [
                    f"x-repro-worker: {worker.name}",
                    "x-repro-route: direct",
                ]
                return ("relay", status, header_lines + extra, body)
            if path == "/v1/metrics":
                return ("local", 200, self.stats(), None)
            if self.traces is None:
                return (
                    "local",
                    200,
                    {"tracing": False, "recent": [], "slowest": []},
                    None,
                )
            payload = self.traces.snapshot(limit=20)
            payload["tracing"] = True
            return ("local", 200, payload, None)
        if path in ("/v1/query", "/v1/write", "/v1/datasets"):
            if path == "/v1/datasets":
                # Any healthy worker can answer (all register the full
                # dataset list); reuse the frozen fan-out policy with a
                # name every worker "owns".
                for worker in self._candidates("", write=False) or list(
                    self._workers.values()
                ):
                    try:
                        status, header_lines, body = await self._exchange(
                            worker, request
                        )
                    except (
                        OSError,
                        asyncio.TimeoutError,
                        asyncio.IncompleteReadError,
                    ):
                        self._mark_down(worker)
                        continue
                    self._incr("proxied", worker.name)
                    extra = [
                        f"x-repro-worker: {worker.name}",
                        "x-repro-route: any",
                    ]
                    return ("relay", status, header_lines + extra, body)
                self._incr("routing_errors", "worker_unavailable")
                return (
                    "error",
                    503,
                    {"error": "no worker reachable", "code": "worker_unavailable"},
                    {"Retry-After": "1"},
                )
            if method != "POST":
                return ("local", 405, {"error": "use POST"}, None)
            try:
                body = request.json()
            except HttpError as exc:
                return (
                    "local",
                    exc.status,
                    {"error": str(exc), "code": "invalid_argument"},
                    None,
                )
            dataset = body.get("dataset")
            if not isinstance(dataset, str) or not dataset:
                return (
                    "local",
                    400,
                    {
                        "error": "dataset must be a non-empty string",
                        "code": "invalid_argument",
                    },
                    None,
                )
            return await self._proxy(
                request, dataset, write=path == "/v1/write"
            )
        return (
            "local",
            404,
            {"error": f"no such endpoint: {method} {path}", "code": "not_found"},
            None,
        )


async def _read_response(reader):
    """Parse one upstream HTTP response.

    Returns ``(status, header_lines, body, close)`` where
    ``header_lines`` are the verbatim header strings (relayed untouched
    so the worker's response survives byte-for-byte).
    """
    status_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
    if not status_line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise OSError(f"malformed upstream status line: {status_line!r}")
    status = int(parts[1])
    header_lines: list[str] = []
    length = 0
    close = False
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        header_lines.append(line.rstrip("\r\n"))
        name, _, value = line.partition(":")
        lowered = name.strip().lower()
        if lowered == "content-length":
            length = int(value.strip())
        elif lowered == "connection" and value.strip().lower() == "close":
            close = True
    body = await reader.readexactly(length) if length else b""
    return status, header_lines, body, close


async def _relay(writer, status: int, header_lines: list, body: bytes) -> None:
    """Forward an upstream response (original headers + router's) out."""
    reason = {200: "OK"}.get(status, "")
    head = [f"HTTP/1.1 {status} {reason}".rstrip()] + list(header_lines)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    try:
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


class RouterThread:
    """A :class:`ClusterRouter` on a daemon thread (context manager).

    The cluster-side sibling of ``repro.server.runner.ServerThread`` —
    used by the supervisor, the tests, and ``bench_cluster.py``.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._args = args
        self._kwargs = kwargs
        self.router: ClusterRouter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.router is None:
            raise RuntimeError("router failed to start within 30s")
        return self.router.address

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        router = ClusterRouter(*self._args, **self._kwargs)
        await router.start()
        self._loop = asyncio.get_running_loop()
        self.router = router
        self._started.set()
        await router.wait_stopped()

    @property
    def loop(self) -> asyncio.AbstractEventLoop | None:
        return self._loop

    def set_worker(self, name: str, host: str, port: int) -> None:
        """Thread-safe worker address update (supervisor restarts)."""
        if self.router is None or self._loop is None:
            raise RuntimeError("router not started")
        self._loop.call_soon_threadsafe(
            self.router.set_worker, name, host, port
        )

    def drain(self, timeout: float = 30.0) -> None:
        if self.router is None or self._loop is None:
            return
        if self._thread is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.router.drain(), self._loop
            )
            future.result(timeout=timeout)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()
