"""Concurrent multi-dataset serving: registry, gateway, sharded builds.

``repro.serving`` answers many queries over *one* dataset fast;
``repro.service`` scales that across datasets and concurrent callers:

* :class:`DatasetRegistry` — many named ``FairHMSIndex`` /
  ``LiveFairHMSIndex`` instances, built lazily and LRU-evicted under a
  byte budget (rebuilds are bit-identical);
* :func:`build_index_sharded` / :func:`parallel_preprocess` — cold
  builds with normalization + per-group skyline extraction partitioned
  across a process pool, bit-identical to the sequential build;
* :class:`Gateway` — backlog-batching request scheduler: coalesces
  identical concurrent queries into one solve, serializes each
  dataset's writes against its query batches (epoch fencing), and runs
  different datasets in parallel;
* :class:`ServiceMetrics` — per-dataset latency histograms and
  solve/coalesce/eviction counters, exported as one ``snapshot()`` dict;
* :class:`SnapshotStore` — versioned on-disk snapshots of warm indexes
  (checksummed npz + JSON manifest); the registry's ``spill_dir=`` tier
  evicts to it and reloads from it, and it warm-starts new processes.

See ``docs/SCALING.md`` for the architecture, the shard-merge
correctness argument, and tuning guidance; ``benchmarks/
bench_service.py`` and the ``repro service`` CLI subcommand measure it.
"""

from .gateway import Gateway
from .metrics import LatencyHistogram, ServiceMetrics
from .registry import DatasetRegistry
from .shard import build_index_sharded, parallel_preprocess, shard_spans
from .store import (
    SnapshotError,
    SnapshotStore,
    dataset_fingerprint,
    load_index,
    save_index,
)
from .workload import (
    ServiceBenchReport,
    ServiceRequest,
    build_tenant_datasets,
    build_tenant_workload,
    naive_solve,
    run_service_benchmark,
)

__all__ = [
    "DatasetRegistry",
    "Gateway",
    "LatencyHistogram",
    "ServiceBenchReport",
    "ServiceMetrics",
    "ServiceRequest",
    "SnapshotError",
    "SnapshotStore",
    "build_index_sharded",
    "build_tenant_datasets",
    "build_tenant_workload",
    "dataset_fingerprint",
    "load_index",
    "naive_solve",
    "parallel_preprocess",
    "run_service_benchmark",
    "save_index",
    "shard_spans",
]
