"""Seeded multi-tenant workload driver for the service gateway.

Builds a reproducible stream of queries across several named datasets —
tenant popularity is Zipf-ish (a few hot datasets take most traffic) and
each tenant's queries are drawn mostly from a small *hot set* (real
traffic repeats itself; that redundancy is what coalescing and result
memoization exploit) — and replays it two ways:

* **gateway** — all requests submitted concurrently through a
  :class:`~repro.service.gateway.Gateway` over a fresh
  :class:`~repro.service.registry.DatasetRegistry` (indexes cold-build
  on first touch, so the measured time includes every build);
* **naive** — the stateless deployment: a one-query-at-a-time loop that
  redoes normalization, skyline extraction, and the full solve per
  request, exactly what PR 1 measured as the "cold" path.

Every gateway answer is verified **bit-identical** (selected ids and the
solver's MHR estimate) to the naive loop's independently computed answer
for the same request — coalesced or not — before any speedup is
reported.  Used by ``benchmarks/bench_service.py`` and the
``repro service`` CLI subcommand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.solve import solve_fairhms
from ..planner import default_planner
from ..data.dataset import Dataset
from ..data.synthetic import anticorrelated_dataset
from ..fairness.constraints import FairnessConstraint
from ..serving.index import Query
from .gateway import Gateway
from .registry import DatasetRegistry

__all__ = [
    "ServiceBenchReport",
    "ServiceRequest",
    "build_tenant_datasets",
    "build_tenant_workload",
    "naive_solve",
    "run_service_benchmark",
]


def build_tenant_datasets(
    n: int, *, tenants: int = 3, d: int = 2, groups: int = 3, base_seed: int = 40
) -> dict:
    """The standard multi-tenant population: independent AntiCor tenants.

    One definition shared by ``benchmarks/bench_service.py``,
    ``benchmarks/bench_server.py``, and the ``repro service`` CLI, so
    "the 3-tenant workload" always means the same datasets (distinct
    seeds ``base_seed + i``, names ``tenant<i>``) everywhere a speedup
    or throughput number is quoted.
    """
    return {
        f"tenant{i}": anticorrelated_dataset(
            n, d, groups, seed=base_seed + i, name=f"tenant{i}"
        )
        for i in range(int(tenants))
    }


@dataclass(frozen=True)
class ServiceRequest:
    """One tenant request: which dataset, and the query to answer."""

    dataset: str
    query: Query


@dataclass
class ServiceBenchReport:
    """Timings and integrity results of one gateway-vs-naive replay."""

    num_requests: int
    num_datasets: int
    gateway_total: float
    naive_total: float
    solves: int
    coalesced: int
    result_hits: int
    identical: bool
    mismatches: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    scenario: str | None = None

    @property
    def speedup(self) -> float:
        """Naive serial loop time over gateway time (builds included)."""
        return self.naive_total / max(self.gateway_total, 1e-12)

    @property
    def throughput(self) -> float:
        """Gateway requests answered per second."""
        return self.num_requests / max(self.gateway_total, 1e-12)


def build_tenant_workload(
    names,
    *,
    num_requests: int = 60,
    ks=(4, 6, 8),
    eps: float = 0.02,
    algorithm: str = "auto",
    alpha: float = 0.1,
    hot_frac: float = 0.7,
    seed: int = 0,
) -> list[ServiceRequest]:
    """Seeded multi-tenant request stream with realistic redundancy.

    Tenant ``i`` receives traffic proportional to ``1 / (i + 1)``
    (Zipf-ish skew).  With probability ``hot_frac`` a request repeats
    one of the tenant's three *hot* queries; otherwise it draws a
    uniform ``k`` from ``ks``.  All parameters come from finite sets, so
    duplicates — the coalescing and memoization fuel — occur at
    realistic rates and the stream is exactly reproducible from
    ``seed``.
    """
    names = list(names)
    if not names:
        raise ValueError("need at least one dataset name")
    ks = tuple(int(k) for k in ks)
    if not ks or min(ks) < 1:
        raise ValueError(f"ks needs at least one positive size, got {ks!r}")
    if not 0.0 <= hot_frac <= 1.0:
        raise ValueError(f"hot_frac must lie in [0, 1], got {hot_frac}")
    rng = np.random.default_rng(seed)
    weights = np.array([1.0 / (i + 1) for i in range(len(names))])
    weights /= weights.sum()
    hot_sets = {
        name: [ks[(i + j) % len(ks)] for j in range(3)]
        for i, name in enumerate(names)
    }
    requests: list[ServiceRequest] = []
    for _ in range(int(num_requests)):
        name = names[int(rng.choice(len(names), p=weights))]
        if rng.random() < hot_frac:
            hot = hot_sets[name]
            k = hot[int(rng.integers(0, len(hot)))]
        else:
            k = ks[int(rng.integers(0, len(ks)))]
        requests.append(
            ServiceRequest(
                dataset=name,
                query=Query(k=k, eps=eps, algorithm=algorithm, alpha=alpha),
            )
        )
    return requests


def naive_solve(data: Dataset, query: Query, *, default_seed: int = 7):
    """One fully stateless solve, as a no-index deployment would do it.

    Re-runs normalization, per-group skyline extraction, constraint
    construction (the paper's Section 5.1 recipe with availability
    capping — exactly what ``FairHMSIndex.constraint_for`` builds), and
    the solver, sharing nothing between calls.  This is both the
    throughput baseline and the bit-identity oracle for gateway answers.
    """
    sky = data.normalized().skyline(per_group=True)
    if query.constraint is not None:
        constraint = query.constraint
    else:
        base = FairnessConstraint.proportional(
            query.k, sky.population_group_sizes, alpha=query.alpha, clamp=True
        )
        constraint = base.capped_by_availability(sky.group_sizes)
    algorithm = default_planner().resolve(sky, constraint, query.algorithm)
    seed = query.seed if query.seed is not None else default_seed
    kwargs = dict(query.options)
    if algorithm != "IntCov":
        kwargs.setdefault("epsilon", float(query.eps))
        kwargs.setdefault("seed", seed)
    return solve_fairhms(sky, constraint, algorithm=algorithm, **kwargs)


def run_service_benchmark(
    datasets: dict[str, Dataset],
    *,
    num_requests: int = 60,
    ks=(4, 6, 8),
    eps: float = 0.02,
    algorithm: str = "auto",
    alpha: float = 0.1,
    hot_frac: float = 0.7,
    seed: int = 0,
    default_seed: int = 7,
    max_bytes: int | None = None,
    build_workers: int = 0,
    naive: bool = True,
    verify: bool = True,
    requests: list[ServiceRequest] | None = None,
    scenario: str | None = None,
) -> ServiceBenchReport:
    """Replay one multi-tenant workload through the gateway and naively.

    The gateway pass submits every request up front (maximal concurrency
    — all requests are in flight together, as under load) and waits for
    all futures; index builds happen lazily inside and are charged to
    the gateway.  With ``naive=False`` the serial loop is skipped
    (``naive_total`` is 0 and no identity check runs) — useful for
    profiling the gateway alone.

    ``requests`` overrides the built-in Zipf/hot-set stream with a
    prepared one — e.g. a scenario trace from ``repro.scenarios`` — in
    which case the stream-shape parameters (``num_requests``, ``ks``,
    ``hot_frac``, ``seed``) are ignored.  ``scenario`` labels the report
    and the metrics snapshot with the scenario name.
    """
    if requests is None:
        requests = build_tenant_workload(
            datasets,
            num_requests=num_requests,
            ks=ks,
            eps=eps,
            algorithm=algorithm,
            alpha=alpha,
            hot_frac=hot_frac,
            seed=seed,
        )
    else:
        requests = list(requests)
        unknown = {r.dataset for r in requests} - set(datasets)
        if unknown:
            raise ValueError(
                f"prepared requests target unregistered datasets: {sorted(unknown)}"
            )
    registry = DatasetRegistry(max_bytes=max_bytes)
    registry.metrics.scenario = scenario
    for name, data in datasets.items():
        registry.register(
            name, data, build_workers=build_workers, default_seed=default_seed
        )
    gateway = Gateway(registry)
    t0 = time.perf_counter()
    with gateway:
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
        gateway_results = [f.result(timeout=600) for f in futures]
    gateway_total = time.perf_counter() - t0

    naive_total = 0.0
    identical = True
    mismatches: list[int] = []
    if naive:
        t0 = time.perf_counter()
        naive_results = [
            naive_solve(datasets[r.dataset], r.query, default_seed=default_seed)
            for r in requests
        ]
        naive_total = time.perf_counter() - t0
        if verify:
            for i, (g, c) in enumerate(zip(gateway_results, naive_results)):
                same = np.array_equal(g.ids, c.ids) and (
                    g.mhr_estimate == c.mhr_estimate
                )
                if not same:
                    identical = False
                    mismatches.append(i)

    snapshot = registry.metrics.snapshot()
    totals = snapshot["totals"]
    return ServiceBenchReport(
        num_requests=len(requests),
        num_datasets=len(datasets),
        gateway_total=gateway_total,
        naive_total=naive_total,
        solves=totals.get("solves", 0),
        coalesced=totals.get("coalesced", 0),
        result_hits=sum(
            index.cache_info()["result_hits"]
            for name in datasets
            if (index := registry.peek(name)) is not None
        ),
        identical=identical,
        mismatches=mismatches,
        metrics=snapshot,
        scenario=scenario,
    )
