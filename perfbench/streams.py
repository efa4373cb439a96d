"""Workload definitions and their seeded op streams.

Every input the benchmark sends is made here from the ``--seed``
argument: the same seed gives the same streams, op for op.  Datasets are
fixed per tenant (they come from ``repro.anticorrelated_dataset`` with
the tenant's own seed), so a seed changes what is asked and written,
never the data a tenant starts from.

An op is one request a client sends:

* ``Op("query", dataset, k)`` — the tenant's standard proportional
  constraint for ``k`` (alpha 0.1), or an explicit one when ``lower`` and
  ``upper`` are set;
* ``Op("insert", dataset, key=..., point=..., group=...)``;
* ``Op("delete", dataset, key=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Op",
    "Tenant",
    "WORKLOADS",
    "Workload",
    "client_streams",
    "priming_ops",
    "server_config",
]

ALPHA = 0.1


@dataclass(frozen=True)
class Tenant:
    """One registered dataset: an anti-correlated table."""

    name: str
    n: int
    d: int
    groups: int = 3
    seed: int = 0
    live: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: tuple[Tenant, ...]
    clients: int
    ks: tuple[int, ...]
    #: "zipf" (hot-read), "constraints" (cold-solve) or "owned" (live-write)
    shape: str
    #: ops per client the in-process layer replay takes from the stream
    ledger_ops: int


@dataclass(frozen=True)
class Op:
    kind: str  # "query" | "insert" | "delete"
    dataset: str
    k: int | None = None
    lower: tuple[int, ...] | None = None
    upper: tuple[int, ...] | None = None
    key: int | None = None
    point: tuple[float, ...] | None = None
    group: int | None = None

    def wire_constraint(self) -> dict | None:
        if self.lower is None:
            return None
        return {"lower": list(self.lower), "upper": list(self.upper), "k": self.k}


WORKLOADS = {
    "hot-read": Workload(
        name="hot-read",
        tenants=tuple(
            Tenant(f"hot{i}", n=2000, d=2, seed=101 + i) for i in range(3)
        ),
        clients=2,
        ks=(4, 6, 8),
        shape="zipf",
        ledger_ops=300,
    ),
    "cold-solve": Workload(
        name="cold-solve",
        tenants=(
            Tenant("cold2d", n=300, d=2, seed=201),
            Tenant("cold4d", n=2000, d=4, seed=202),
        ),
        clients=1,
        ks=(6, 7, 8),
        shape="constraints",
        ledger_ops=120,
    ),
    "live-write": Workload(
        name="live-write",
        tenants=tuple(
            Tenant(f"live{i}", n=500, d=2, seed=301 + i, live=True)
            for i in range(2)
        ),
        clients=2,
        ks=(4, 6, 8),
        shape="owned",
        ledger_ops=100,
    ),
}

#: Zipf skew over the hot-read tenants: tenant r (from 1) has weight 1/r.
ZIPF_S = 1.0
#: live-write: share of writes that are inserts (inserts : deletes = 2 : 1)
INSERT_SHARE = 2.0 / 3.0
#: live-write: insert keys start here, one block per client
INSERT_KEY_BASE = 10_000_000
#: live-write: an insert scales a tenant row by factors drawn from this range
SHRINK = (0.5, 0.95)


def server_config(workload: Workload, wal_dir: str | None = None) -> dict:
    """The ``repro server`` config: datasets only (plus the WAL for live).

    Every serving knob — ``batch_window``, ``max_inflight``, ``warmup``,
    ``[planner]`` — keeps its shipped default.
    """
    raw: dict = {
        "datasets": [
            {
                "name": t.name,
                "kind": "synthetic",
                "n": t.n,
                "d": t.d,
                "groups": t.groups,
                "seed": t.seed,
                "live": t.live,
            }
            for t in workload.tenants
        ]
    }
    if wal_dir is not None:
        raw["server"] = {"wal_dir": wal_dir}
    return raw


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


# --------------------------------------------------------------------- #
# hot-read: Zipf-skewed tenants, standard constraints, all memo hits
# --------------------------------------------------------------------- #


def _zipf_weights(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** ZIPF_S
    return weights / weights.sum()


def _hot_read(workload: Workload, seed: int, client: int):
    rng = _rng(seed, 1, client)
    names = [t.name for t in workload.tenants]
    weights = _zipf_weights(len(names))
    while True:
        tenants = rng.choice(len(names), size=256, p=weights)
        ks = rng.choice(workload.ks, size=256)
        for t, k in zip(tenants, ks):
            yield Op("query", names[int(t)], k=int(k))


# --------------------------------------------------------------------- #
# cold-solve: explicit constraints that never repeat
# --------------------------------------------------------------------- #


def _bounds(rng, k: int, groups: int):
    """Per-group ``(lower, upper)`` for size ``k``, or None if infeasible.

    Lower bounds are 0 or 1 and upper bounds at least ceil(k/2): loose
    enough that every tenant's skyline can meet them.  With k in 6..8
    both solver families cost about the same (BiGreedy+ at k 4-5 costs
    several times more), so the p50 never falls between two modes.
    """
    lower = tuple(int(v) for v in rng.integers(0, 2, groups))
    upper = tuple(int(v) for v in rng.integers((k + 1) // 2, k + 1, groups))
    if sum(lower) > k or sum(upper) < k:
        return None
    return lower, upper


def _draw_constraint(rng, workload: Workload, seen: set) -> Op:
    """A fresh (tenant, k, lower, upper) never drawn before in this run."""
    while True:
        tenant = workload.tenants[int(rng.integers(len(workload.tenants)))]
        k = int(rng.choice(workload.ks))
        bounds = _bounds(rng, k, tenant.groups)
        if bounds is None or (tenant.name, k, *bounds) in seen:
            continue
        seen.add((tenant.name, k, *bounds))
        return Op("query", tenant.name, k=k, lower=bounds[0], upper=bounds[1])


def _cold_priming(workload: Workload, seed: int) -> tuple[list[Op], set]:
    rng = _rng(seed, 2, 0)
    seen: set = set()
    ops = []
    for tenant in workload.tenants:
        for k in workload.ks:
            bounds = None
            while bounds is None:
                bounds = _bounds(rng, k, tenant.groups)
            seen.add((tenant.name, k, *bounds))
            ops.append(
                Op("query", tenant.name, k=k, lower=bounds[0], upper=bounds[1])
            )
    return ops, seen


def _cold_solve(workload: Workload, seed: int, client: int):
    _, seen = _cold_priming(workload, seed)
    rng = _rng(seed, 3, client)
    while True:
        yield _draw_constraint(rng, workload, seen)


# --------------------------------------------------------------------- #
# live-write: each client owns one live tenant and writes beside reads
# --------------------------------------------------------------------- #


def _owned_writes(workload: Workload, seed: int, client: int):
    """Queries and writes on the client's own live tenant.

    The stream cycles: one write, then one query for each k in a seeded
    order, so one write per three queries.  A write drops the result
    memo, so every query re-solves (a hinted IntCov on warm geometry).
    With writes placed at random about half the queries hit the memo
    instead, and the p50 fell in the gap between hits (~4 ms) and
    re-solves (~11 ms): 6.4 ms on one seed, 8.7 ms on the next (on a
    shared 2-CPU machine).

    An insert is a copy of one of the tenant's rows shrunk toward the
    origin, so that row dominates it and the skyline never moves; a
    delete removes one of the client's alive inserts.  Every write still
    shifts the population counts, so each requery costs about the same
    whatever the seed.
    """
    import repro

    tenant = workload.tenants[client]
    base = repro.anticorrelated_dataset(
        tenant.n, tenant.d, tenant.groups, seed=tenant.seed
    )
    rng = _rng(seed, 5, client)
    inserted: list[int] = []
    next_key = INSERT_KEY_BASE * (client + 1)
    while True:
        if rng.random() < INSERT_SHARE or not inserted:
            row = int(rng.integers(tenant.n))
            shrink = rng.uniform(SHRINK[0], SHRINK[1], tenant.d)
            point = tuple(float(v) for v in base.points[row] * shrink)
            inserted.append(next_key)
            yield Op("insert", tenant.name, key=next_key, point=point,
                     group=int(base.labels[row]))
            next_key += 1
        else:
            # Swap-remove keeps the draw O(1); the list order is part of
            # the seeded state, so streams stay reproducible.
            i = int(rng.integers(len(inserted)))
            inserted[i], inserted[-1] = inserted[-1], inserted[i]
            yield Op("delete", tenant.name, key=inserted.pop())
        for k in rng.permutation(workload.ks):
            yield Op("query", tenant.name, k=int(k))


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #

_GENERATORS = {
    "zipf": _hot_read,
    "constraints": _cold_solve,
    "owned": _owned_writes,
}


def client_streams(workload: Workload, seed: int) -> list:
    """One endless op iterator per client, all derived from ``seed``."""
    make = _GENERATORS[workload.shape]
    return [make(workload, seed, c) for c in range(workload.clients)]


def priming_ops(workload: Workload, seed: int) -> list[Op]:
    """One query per (tenant, k) the stream uses, sent before timing.

    Builds, the 2-D envelopes and the BiGreedy+ engines land in set-up.
    For cold-solve the priming constraints are drawn from the same
    never-repeat pool, so no timed request can be a memo hit.
    """
    if workload.shape == "constraints":
        return _cold_priming(workload, seed)[0]
    return [
        Op("query", t.name, k=k) for t in workload.tenants for k in workload.ks
    ]
