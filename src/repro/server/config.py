"""Server configuration: a TOML or JSON file -> registry + settings.

One config file describes everything a ``repro server`` process needs:
the listen address, admission-control and drain knobs, the registry's
byte budget and snapshot spill directory, and the datasets to register.
Datasets are *specs*, not data — synthetic specs name the generator
parameters, real specs name the bundled dataset — so the registry builds
(or, with ``spill_dir``, warm-starts from a previous process's
snapshots via :class:`~repro.service.store.SnapshotStore`) lazily on
first request.

TOML (Python 3.11+, stdlib ``tomllib``)::

    [server]
    host = "127.0.0.1"
    port = 8080
    max_inflight = 64
    spill_dir = "spill"

    [[datasets]]
    name = "tenant0"
    kind = "synthetic"
    n = 1500
    d = 2
    groups = 3
    seed = 40

The same structure as JSON works on every supported Python::

    {"server": {"port": 8080}, "datasets": [{"name": "tenant0"}]}

Unknown keys are rejected — a typo in a production config must fail at
startup, not silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py3.10 fallback path
    tomllib = None

from ..obs.slo import SloObjectives
from ..planner import Planner, PlannerConfig
from ..service.metrics import ServiceMetrics
from ..service.registry import DatasetRegistry

__all__ = [
    "ClusterConfig",
    "DatasetSpec",
    "ServerConfig",
    "build_registry",
    "demo_config",
    "load_config",
    "parse_config",
]

_KINDS = ("synthetic", "real")


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset to register: a synthetic generator or a bundled dataset.

    Args:
        name: registry key clients address in requests.
        kind: ``"synthetic"`` (anti-correlated generator) or ``"real"``
            (bundled dataset loaded by ``source``/``attribute``).
        n: row count (synthetic) or row-count cap (real; ``None`` = all).
        d / groups / seed: synthetic generator parameters.
        source: real-dataset name (``Adult``, ``Compas``, ...); defaults
            to ``name``.
        attribute: group attribute for real datasets (dataset default
            when omitted).
        live: register a :class:`~repro.serving.live.LiveFairHMSIndex`
            that accepts ``/v1/write`` requests.
        build_workers: process-pool workers for sharded cold builds
            (frozen specs only; 0 = sequential).
        default_seed: the index's solver seed policy.
        index: extra keyword arguments forwarded to the index
            constructor (``cache_results``, ``max_cached_results``, ...).
    """

    name: str
    kind: str = "synthetic"
    n: int | None = 1_500
    d: int = 2
    groups: int = 3
    seed: int = 40
    source: str | None = None
    attribute: str | None = None
    live: bool = False
    build_workers: int = 0
    default_seed: int = 7
    index: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"dataset name must be a non-empty string: {self.name!r}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"dataset {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if self.live and self.build_workers > 1:
            raise ValueError(
                f"dataset {self.name!r}: live indexes build sequentially; "
                f"drop build_workers"
            )

    def factory(self):
        """Zero-argument dataset loader (deterministic, so rebuilds are
        bit-identical to the build a previous process snapshotted)."""
        if self.kind == "synthetic":
            from ..data.synthetic import anticorrelated_dataset

            n, d, groups, seed, name = (
                int(self.n if self.n is not None else 1_500),
                int(self.d),
                int(self.groups),
                int(self.seed),
                self.name,
            )
            return lambda: anticorrelated_dataset(n, d, groups, seed=seed, name=name)
        from ..data.realworld import load_dataset

        source = self.source or self.name
        attribute, n = self.attribute, self.n
        return lambda: load_dataset(source, attribute, n=n)


@dataclass(frozen=True)
class ClusterConfig:
    """The top-level ``[cluster]`` section: router + worker-fleet knobs.

    ``workers`` is the number of worker processes ``repro cluster``
    spawns; ``replicas`` is how many workers each *frozen* dataset is
    served from (reads fan across them; live datasets are always pinned
    to their single owner so the write order stays a serial history);
    ``vnodes`` is the virtual-node count per worker on the consistent-
    hash ring (router and supervisor must agree — both read this value);
    ``health_interval`` is the router's active health-check period in
    seconds.
    """

    workers: int = 2
    replicas: int = 2
    vnodes: int = 64
    health_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"cluster workers must be >= 1, got {self.workers}")
        if self.replicas < 1:
            raise ValueError(f"cluster replicas must be >= 1, got {self.replicas}")
        if self.vnodes < 1:
            raise ValueError(f"cluster vnodes must be >= 1, got {self.vnodes}")
        if self.health_interval <= 0:
            raise ValueError(
                f"cluster health_interval must be > 0, got {self.health_interval}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusterConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"[cluster] must be a mapping, got {raw!r}")
        allowed = {f.name for f in fields(cls)}
        unknown = set(raw) - allowed
        if unknown:
            raise ValueError(f"unknown [cluster] keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro server`` needs to come up.

    ``max_inflight`` is the admission-control bound: queries and writes
    beyond it are shed with HTTP 429 instead of queueing without limit
    (metrics/health reads are always admitted).  ``drain_timeout`` caps
    how long a SIGTERM-triggered drain waits for in-flight requests
    before shutting the gateway down anyway.

    ``tracing`` enables per-request tracing (on by default — overhead is
    a bounded ring buffer, see ``docs/OBSERVABILITY.md``);
    ``trace_buffer`` sizes the completed-trace ring and ``slow_trace_s``
    is the slow-trace log threshold.  ``slo`` holds the per-tenant
    objectives parsed from the top-level ``[slo]`` config section
    (defaults: p99 <= 100 ms, error rate <= 0.1%).

    ``planner`` holds the query-planner settings parsed from the
    top-level ``[planner]`` section (see ``docs/PLANNER.md``): the
    default ``static`` mode is byte-for-byte today's dispatch, and
    ``mode = "adaptive"`` turns on observed-cost steering with the
    latency budget defaulting to the ``[slo]`` target.

    ``wal_dir`` enables the live write-ahead log (fsync'd append before
    every write ack, replayed over the snapshot on restart — see
    ``docs/CLUSTER.md``).  ``worker_id`` names this process in v1.1
    response envelopes (``meta.worker``); the cluster supervisor sets it
    per worker.  ``cluster`` holds the top-level ``[cluster]`` section
    consumed by ``repro cluster``.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 64
    drain_timeout: float = 30.0
    max_body_bytes: int = 1 << 20
    budget_mb: float | None = None
    spill_dir: str | None = None
    tracing: bool = True
    trace_buffer: int = 256
    slow_trace_s: float = 1.0
    wal_dir: str | None = None
    worker_id: str | None = None
    slo: SloObjectives = SloObjectives()
    planner: PlannerConfig = PlannerConfig()
    cluster: ClusterConfig = ClusterConfig()
    datasets: tuple[DatasetSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")
        if self.trace_buffer < 1:
            raise ValueError(f"trace_buffer must be >= 1, got {self.trace_buffer}")
        if self.slow_trace_s <= 0:
            raise ValueError(f"slow_trace_s must be > 0, got {self.slow_trace_s}")
        names = [spec.name for spec in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dataset names in config: {names}")


def parse_config(raw: dict, *, base_dir=None) -> ServerConfig:
    """Validate a raw config mapping (parsed TOML/JSON) into a ServerConfig.

    ``base_dir`` anchors a relative ``spill_dir`` (the config file's
    directory, so the snapshot tier lands next to the config rather
    than wherever the process was launched from).
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {"server", "datasets", "slo", "planner", "cluster"}
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")

    server_raw = dict(raw.get("server", {}))
    # `slo`, `planner`, and `cluster` are their own top-level sections,
    # never [server] keys.
    allowed = {f.name for f in fields(ServerConfig)} - {
        "datasets",
        "slo",
        "planner",
        "cluster",
    }
    unknown = set(server_raw) - allowed
    if unknown:
        raise ValueError(f"unknown [server] keys: {sorted(unknown)}")
    if "slo" in raw:
        server_raw["slo"] = SloObjectives.from_dict(raw["slo"])
    if "planner" in raw:
        server_raw["planner"] = PlannerConfig.from_dict(raw["planner"])
    if "cluster" in raw:
        server_raw["cluster"] = ClusterConfig.from_dict(raw["cluster"])

    specs = []
    datasets_raw = raw.get("datasets", [])
    if not isinstance(datasets_raw, (list, tuple)):
        raise ValueError("datasets must be a list of tables/objects")
    spec_fields = {f.name for f in fields(DatasetSpec)}
    for entry in datasets_raw:
        if not isinstance(entry, dict):
            raise ValueError(f"dataset entry must be a mapping, got {entry!r}")
        unknown = set(entry) - spec_fields
        if unknown:
            raise ValueError(
                f"dataset {entry.get('name', '?')!r}: unknown keys {sorted(unknown)}"
            )
        specs.append(DatasetSpec(**entry))

    config = ServerConfig(datasets=tuple(specs), **server_raw)
    if base_dir is not None:
        # Relative disk tiers anchor to the config file's directory.
        for attr in ("spill_dir", "wal_dir"):
            value = getattr(config, attr)
            if value is not None and not Path(value).is_absolute():
                config = replace(config, **{attr: str(Path(base_dir) / value)})
    return config


def load_config(path) -> ServerConfig:
    """Parse a ``.toml`` or ``.json`` server config file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if tomllib is None:  # pragma: no cover - py3.10 only
            raise RuntimeError(
                "TOML configs need Python 3.11+ (stdlib tomllib); "
                "use an equivalent .json config instead"
            )
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    elif suffix == ".json":
        with open(path) as fh:
            raw = json.load(fh)
    else:
        raise ValueError(
            f"unsupported config format {suffix!r} (expected .toml or .json)"
        )
    return parse_config(raw, base_dir=path.parent)


def demo_config(
    *, tenants: int = 3, n: int = 1_500, d: int = 2, groups: int = 3, port: int = 8080
) -> ServerConfig:
    """Built-in config mirroring the PR 3 multi-tenant benchmark workload."""
    specs = tuple(
        DatasetSpec(name=f"tenant{i}", n=n, d=d, groups=groups, seed=40 + i)
        for i in range(int(tenants))
    )
    return ServerConfig(port=port, datasets=specs)


def build_registry(
    config: ServerConfig, *, metrics: ServiceMetrics | None = None
) -> DatasetRegistry:
    """A :class:`DatasetRegistry` with every configured dataset registered.

    Nothing is built here — indexes come up lazily on first request, and
    with ``spill_dir`` set they warm-start from snapshots a previous
    process spilled under the same names.
    """
    max_bytes = (
        None if config.budget_mb is None else int(config.budget_mb * 2**20)
    )
    pconf = config.planner
    if pconf.mode == "adaptive" and pconf.target_p99_s is None:
        # The adaptive latency budget defaults to the SLO the server is
        # already held to — one target, stated once.
        pconf = replace(pconf, target_p99_s=config.slo.latency_target_s)
    wal = None
    if config.wal_dir is not None:
        # Imported lazily: repro.cluster pulls in the router/supervisor,
        # which import this module right back.
        from ..cluster.wal import WriteAheadLog

        wal = WriteAheadLog(config.wal_dir)
    registry = DatasetRegistry(
        max_bytes=max_bytes,
        metrics=metrics,
        spill_dir=config.spill_dir,
        planner=Planner(pconf),
        wal=wal,
    )
    for spec in config.datasets:
        registry.register(
            spec.name,
            factory=spec.factory(),
            live=spec.live,
            build_workers=spec.build_workers,
            default_seed=spec.default_seed,
            **spec.index,
        )
    return registry
