"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — reproduce the paper's Example 2.2 and print the result.
* ``solve``       — run FairHMS on a named dataset with chosen parameters.
* ``serve``       — build a ``FairHMSIndex`` and replay a query workload
  against it, reporting the amortized speedup over stateless solves.
* ``live``        — replay a mixed read/write workload against a
  ``LiveFairHMSIndex`` and the rebuild-per-update baseline, verifying
  bit-identical answers and reporting the amortized speedup.
* ``service``     — run a seeded multi-tenant workload through the
  concurrent ``Gateway`` (registry + coalescing + backlog batching) and
  the naive one-query-at-a-time loop, verifying bit-identical answers
  and printing throughput plus the metrics snapshot.
* ``snapshot``    — persist a warm ``FairHMSIndex`` to a versioned
  on-disk snapshot, reload it, and verify the reload answers
  bit-identically to the in-memory index (``--load-only`` skips the
  build and serves straight from an existing snapshot — the
  cross-process warm start; ``--info`` prints the manifest).
* ``server``      — run the asyncio HTTP/JSON front-end over the
  gateway from a TOML/JSON config (or ``--demo`` synthetic tenants):
  ``POST /v1/query``, ``POST /v1/write``, ``GET /v1/metrics``,
  ``GET /v1/datasets``, ``GET /healthz``; 429 load shedding past
  ``max_inflight``; SIGTERM drains gracefully (``--check`` validates
  the config and exits).
* ``cluster``     — run N worker processes behind the consistent-hash
  router from the same config's ``[cluster]`` section: datasets are
  sharded onto workers, frozen reads fan across replicas, live writes
  pin to the owner and WAL before acking, crashed workers respawn and
  replay (``--check`` prints the shard plan and exits; see
  docs/CLUSTER.md).
* ``scenario``    — the config-driven scenario factory: ``list`` the
  named pack, ``describe`` one spec, ``check`` spec files (CI
  validation), ``materialize`` a scenario to disk (datasets + event
  stream + HTTP trace, byte-deterministic), or ``replay`` its event
  stream through a ``LiveFairHMSIndex`` against cold per-epoch solves,
  verifying bit-identical answers (see docs/SCENARIOS.md).
* ``trace``       — fetch ``GET /v1/traces`` from a running server and
  pretty-print the recorded request traces as indented span trees
  (``--slowest`` shows the retained worst offenders instead of the
  recent ring; see docs/OBSERVABILITY.md).
* ``table2``      — print the dataset-statistics table.
* ``experiments`` — forward to ``repro.experiments.run_all``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_demo(_args) -> int:
    from .experiments.example22 import run_example22

    print("Example 2.2 (Table 1): paper vs this reproduction\n")
    for r in run_example22():
        status = "MATCH" if r.matches else "MISMATCH"
        print(
            f"  {r.name:8s} -> {sorted(r.selected)} mhr={r.mhr:.4f} "
            f"(paper: {sorted(r.expected_selected)} {r.expected_mhr:.4f}) [{status}]"
        )
    return 0


def _load_cli_dataset(args):
    """Raw (un-normalized) dataset named on the command line."""
    from .data.realworld import DATASET_GROUPS, load_dataset
    from .data.synthetic import anticorrelated_dataset

    if args.dataset == "anticor":
        return anticorrelated_dataset(
            args.n or 2_000, args.d, args.groups, seed=args.seed
        )
    attribute = args.attribute or DATASET_GROUPS[args.dataset][0]
    return load_dataset(args.dataset, attribute, n=args.n)


def _cmd_solve(args) -> int:
    from .core.solve import solve_fairhms
    from .fairness.constraints import FairnessConstraint

    data = _load_cli_dataset(args).normalized()
    sky = data.skyline(per_group=True)
    print(f"{data} -> per-group skyline of {sky.n} tuples")

    constraint = FairnessConstraint.proportional(
        args.k, sky.population_group_sizes, alpha=args.alpha
    )
    constraint = FairnessConstraint(
        lower=np.minimum(constraint.lower, sky.group_sizes),
        upper=constraint.upper,
        k=args.k,
    )
    print(f"constraint: {constraint.describe(sky.group_names)}")
    solution = solve_fairhms(
        sky,
        constraint,
        algorithm=args.algorithm,
        **({} if args.algorithm == "IntCov" else {"seed": args.seed}),
    )
    print(f"\nalgorithm: {solution.algorithm}")
    print(f"selected ids: {solution.ids.tolist()}")
    print(f"group counts: {solution.group_counts().tolist()}")
    print(f"exact MHR: {solution.mhr():.4f}   violations: {solution.violations()}")
    return 0


def _cmd_plan(args) -> int:
    """Show the planner's dispatch decision for one query, without solving.

    ``--explain`` prints the full decision breakdown (instance stats,
    warm-artifact state, per-candidate predicted costs); ``--json`` emits
    the recorded :class:`~repro.planner.Plan` value itself.
    """
    import json

    from .serving import FairHMSIndex, Query

    data = _load_cli_dataset(args)
    index = FairHMSIndex(data, default_seed=args.seed)
    plan = index.plan_query(
        Query(k=args.k, eps=args.eps, algorithm=args.algorithm, alpha=args.alpha),
        record=False,
    )
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    elif args.explain:
        print(plan.explain())
    else:
        print(
            f"{plan.algorithm} (reason={plan.reason}, "
            f"predicted {plan.predicted_cost_s:.6f}s)"
        )
    return 0


def _parse_ks(text: str) -> tuple[int, ...] | None:
    """Parse a comma-separated ``--k`` list; None (with a message) on error."""
    try:
        ks = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        print(f"error: --k must be comma-separated integers, got {text!r}")
        return None
    if not ks or min(ks) < 1:
        print(f"error: --k needs at least one positive size, got {text!r}")
        return None
    return ks


def _cmd_serve(args) -> int:
    """Index a dataset once, replay a query workload, compare with cold solves.

    The warm pass answers every query through one :class:`FairHMSIndex`;
    the cold pass redoes normalization, skyline extraction, and the full
    solve per query — what a stateless server would do.  Results are
    checked to be identical before the speedup is reported.
    """
    import time

    import numpy as np

    from .core.solve import solve_fairhms
    from .planner import default_planner
    from .serving import FairHMSIndex, Query

    ks = _parse_ks(args.k)
    if ks is None:
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}")
        return 2

    data = _load_cli_dataset(args)
    queries = [
        Query(k=k, eps=args.eps, algorithm=args.algorithm, alpha=args.alpha)
        for _ in range(args.repeat)
        for k in ks
    ]

    t0 = time.perf_counter()
    index = FairHMSIndex(data, default_seed=args.seed)
    build = time.perf_counter() - t0
    print(f"{index!r}  (built in {build:.3f}s)")

    t0 = time.perf_counter()
    warm_solutions = index.query_batch(queries)
    warm = time.perf_counter() - t0
    info = index.cache_info()
    print(
        f"warm: {len(queries)} queries in {warm:.3f}s "
        f"({warm / len(queries):.4f}s/query; engines built: "
        f"{info['engines_cached']}, result-cache hits: {info['result_hits']})"
    )
    for k, solution in zip(ks, warm_solutions[: len(ks)]):
        est = solution.mhr_estimate
        est_text = "n/a" if est is None else f"{est:.4f}"
        print(
            f"  k={k:3d} {solution.algorithm:9s} mhr~{est_text} "
            f"violations={solution.violations()}"
        )

    if args.no_cold:
        return 0

    t0 = time.perf_counter()
    cold_solutions = []
    for q in queries:
        sky = data.normalized().skyline(per_group=True)
        constraint = index.constraint_for(q.k, alpha=q.alpha)
        algorithm = default_planner().resolve(sky, constraint, q.algorithm)
        kwargs = (
            {} if algorithm == "IntCov" else {"epsilon": q.eps, "seed": args.seed}
        )
        cold_solutions.append(
            solve_fairhms(sky, constraint, algorithm=algorithm, **kwargs)
        )
    cold = time.perf_counter() - t0
    print(f"cold: {len(queries)} stateless solves in {cold:.3f}s "
          f"({cold / len(queries):.4f}s/query)")

    identical = all(
        np.array_equal(w.indices, c.indices)
        for w, c in zip(warm_solutions, cold_solutions)
    )
    print(f"results identical to cold solves: {'yes' if identical else 'NO'}")
    print(f"amortized speedup (index build included): {cold / (build + warm):.1f}x")
    return 0


def _cmd_live(args) -> int:
    """Mixed query/update workload: live index vs rebuild-per-update."""
    from .serving.workload import run_mixed_workload

    ks = _parse_ks(args.k)
    if ks is None:
        return 2
    if not 0.0 <= args.write_frac <= 1.0:
        print(f"error: --write-frac must lie in [0, 1], got {args.write_frac}")
        return 2
    if not 0.0 < args.initial_frac < 1.0:
        print(
            f"error: --initial-frac must lie in (0, 1), got {args.initial_frac}"
        )
        return 2

    data = _load_cli_dataset(args)
    print(f"{data}: {args.ops} ops, {args.write_frac:.0%} updates, k in {ks}")
    report = run_mixed_workload(
        data,
        num_ops=args.ops,
        write_frac=args.write_frac,
        ks=ks,
        initial_frac=args.initial_frac,
        seed=args.workload_seed,
        default_seed=args.seed,
        eps=args.eps,
        alpha=args.alpha,
        algorithm=args.algorithm,
        verify=not args.no_verify,
    )
    print(
        f"replayed {report.num_queries} queries + {report.num_updates} "
        f"updates ({report.epochs} serving epochs)"
    )
    print(
        f"live:    build {report.live_build:.3f}s + serve "
        f"{report.live_total:.3f}s"
    )
    print(
        f"rebuild: build {report.rebuild_build:.3f}s + serve "
        f"{report.rebuild_total:.3f}s"
    )
    if not args.no_verify:
        status = "yes" if report.identical else "NO"
        print(f"live answers bit-identical to rebuilds: {status}")
    print(f"amortized speedup (builds included): {report.speedup:.1f}x")
    return 0 if (args.no_verify or report.identical) else 1


def _cmd_service(args) -> int:
    """Multi-tenant gateway workload vs the naive stateless loop."""
    from .service import build_tenant_datasets, run_service_benchmark

    ks = _parse_ks(args.k)
    if ks is None:
        return 2
    if args.tenants < 1:
        print(f"error: --tenants must be >= 1, got {args.tenants}")
        return 2
    if not 0.0 <= args.hot_frac <= 1.0:
        print(f"error: --hot-frac must lie in [0, 1], got {args.hot_frac}")
        return 2

    datasets = build_tenant_datasets(
        args.n or 1_500, tenants=args.tenants, d=args.d, groups=args.groups
    )
    max_bytes = None if args.budget_mb is None else int(args.budget_mb * 2**20)
    print(
        f"{args.tenants} tenants (AntiCor-{args.d}D n={args.n or 1500}), "
        f"{args.requests} requests, k in {ks}, "
        f"budget={'unbounded' if max_bytes is None else f'{args.budget_mb}MiB'}"
    )
    report = run_service_benchmark(
        datasets,
        num_requests=args.requests,
        ks=ks,
        eps=args.eps,
        algorithm=args.algorithm,
        alpha=args.alpha,
        hot_frac=args.hot_frac,
        seed=args.workload_seed,
        default_seed=args.seed,
        max_bytes=max_bytes,
        build_workers=args.build_workers,
        naive=not args.no_naive,
    )
    print(
        f"gateway: {report.num_requests} requests in {report.gateway_total:.2f}s "
        f"({report.throughput:.1f} req/s; {report.solves} solves, "
        f"{report.coalesced} coalesced, {report.result_hits} memo hits)"
    )
    if not args.no_naive:
        print(
            f"naive:   {report.naive_total:.2f}s serial -> speedup "
            f"{report.speedup:.1f}x"
        )
        status = "yes" if report.identical else "NO"
        print(f"gateway answers bit-identical to uncoalesced solves: {status}")
    totals = report.metrics["totals"]
    for name, block in sorted(report.metrics["datasets"].items()):
        lat = block["request_latency"]
        p50 = lat.get("p50_s", 0.0)
        p99 = lat.get("p99_s", 0.0)
        print(
            f"  {name}: {block['requests']} req, {block['solves']} solves, "
            f"{block['coalesced']} coalesced, {block['builds']} builds, "
            f"{block['evictions']} evictions, "
            f"p50={p50 * 1e3:.1f}ms p99={p99 * 1e3:.1f}ms"
        )
    print(
        f"totals: {totals.get('solves', 0)} solves for "
        f"{totals.get('requests', 0)} requests, "
        f"{totals.get('fence_violations', 0)} fence violations"
    )
    return 0 if report.identical else 1


def _cmd_snapshot(args) -> int:
    """Save/reload a warm index snapshot and verify bit-identity."""
    import json
    import time

    import numpy as np

    from .serving import FairHMSIndex, Query
    from .service.store import SnapshotError, SnapshotStore

    ks = _parse_ks(args.k)
    if ks is None:
        return 2
    name = args.name or args.dataset
    store = SnapshotStore(args.dir)
    queries = [Query(k=k, eps=args.eps, alpha=args.alpha) for k in ks]

    if args.info:
        try:
            manifest = store.manifest(name)
        except SnapshotError as exc:
            print(f"error: {exc}")
            return 1
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    if not args.load_only:
        data = _load_cli_dataset(args)
        t0 = time.perf_counter()
        index = FairHMSIndex(data, default_seed=args.seed)
        built = index.query_batch(queries)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        store.save_index(name, index)
        t_save = time.perf_counter() - t0
        print(
            f"{index!r}\nbuilt + served {len(queries)} queries in "
            f"{t_build:.3f}s; saved {store.size_bytes(name) / 2**20:.1f} MiB "
            f"snapshot in {t_save:.3f}s -> {store.path_for(name)}"
        )

    try:
        t0 = time.perf_counter()
        loaded = store.load_index(name)
        t_load = time.perf_counter() - t0
    except SnapshotError as exc:
        print(f"error: {exc}")
        return 1
    t0 = time.perf_counter()
    reloaded = loaded.query_batch(queries)
    t_serve = time.perf_counter() - t0
    print(
        f"reloaded in {t_load:.3f}s, served {len(queries)} queries in "
        f"{t_serve:.3f}s (result-cache hits: "
        f"{loaded.cache_info()['result_hits']})"
    )
    if args.load_only:
        for k, solution in zip(ks, reloaded):
            print(f"  k={k:3d} {solution.algorithm:9s} ids={solution.ids.tolist()}")
        return 0

    identical = all(
        np.array_equal(a.ids, b.ids) and a.mhr() == b.mhr()
        for a, b in zip(built, reloaded)
    )
    print(f"reloaded answers bit-identical (ids + mhr): {'yes' if identical else 'NO'}")
    print(
        f"reload speedup over build-and-serve: "
        f"{t_build / (t_load + t_serve):.1f}x"
    )
    return 0 if identical else 1


def _cmd_server(args) -> int:
    """Serve FairHMS over HTTP from a config file (or the demo tenants)."""
    from dataclasses import replace

    from .server import build_registry, demo_config, load_config, serve_forever

    if (args.config is None) == (not args.demo):
        print("error: provide a config file or --demo (exactly one)")
        return 2
    try:
        if args.demo:
            config = demo_config(tenants=args.tenants, n=args.n or 1_500)
        else:
            config = load_config(args.config)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if overrides:
        config = replace(config, **overrides)

    registry = build_registry(config)
    if args.check:
        spill = config.spill_dir or "(no spill tier)"
        print(
            f"config ok: {len(config.datasets)} dataset(s) on "
            f"{config.host}:{config.port}, max_inflight={config.max_inflight}, "
            f"spill_dir={spill}"
        )
        for name in registry.names():
            info = registry.describe(name)
            kind = "live" if info["live"] else "frozen"
            warm = " (snapshot on disk)" if info["spilled"] else ""
            print(f"  {name}: {kind}{warm}")
        return 0
    serve_forever(config, registry=registry)
    return 0


def _cmd_cluster(args) -> int:
    """Run the worker fleet + router from a config's [cluster] section."""
    from dataclasses import replace

    from .cluster import HashRing, run_cluster, shard_datasets
    from .server import load_config

    try:
        config = load_config(args.config)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.workers is not None:
        overrides["cluster"] = replace(config.cluster, workers=args.workers)
    if overrides:
        config = replace(config, **overrides)

    if args.check:
        names = [f"w{i}" for i in range(config.cluster.workers)]
        ring = HashRing(names, vnodes=config.cluster.vnodes)
        shards = shard_datasets(config, ring)
        print(
            f"config ok: {config.cluster.workers} worker(s), "
            f"replicas={config.cluster.replicas}, "
            f"router on {config.host}:{config.port}"
        )
        for wname in names:
            kinds = [
                f"{s.name} ({'live' if s.live else 'frozen'})"
                for s in shards[wname].datasets
            ]
            print(f"  {wname}: {', '.join(kinds) or '(no datasets)'}")
        return 0
    run_cluster(config)
    return 0


def _cmd_trace(args) -> int:
    """Fetch and pretty-print request traces from a running server."""
    import http.client
    import json
    import urllib.parse

    from .obs.trace import format_trace

    raw = args.url if "//" in args.url else f"//{args.url}"
    url = urllib.parse.urlsplit(raw)
    host = url.hostname or "127.0.0.1"
    port = url.port or 8080
    limit = max(1, min(100, args.limit))
    try:
        conn = http.client.HTTPConnection(host, port, timeout=args.timeout)
        conn.request("GET", f"/v1/traces?limit={limit}")
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        conn.close()
    except (OSError, ValueError) as exc:
        print(f"error: cannot fetch traces from {host}:{port}: {exc}")
        return 2
    if resp.status != 200:
        print(f"error: GET /v1/traces -> {resp.status}: {payload.get('error')}")
        return 2
    if not payload.get("tracing", False):
        print(f"tracing is disabled on {host}:{port}")
        return 1
    which = "slowest" if args.slowest else "recent"
    entries = payload.get(which, [])
    stats = payload.get("stats", {})
    print(
        f"{host}:{port} — {stats.get('recorded', 0)} trace(s) recorded, "
        f"{stats.get('slow', 0)} slow "
        f"(>= {stats.get('slow_threshold_s', '?')}s), "
        f"{stats.get('buffered', 0)}/{stats.get('capacity', '?')} buffered"
    )
    if not entries:
        print(f"no {which} traces yet")
        return 0
    for entry in entries:
        print()
        print(format_trace(entry))
    return 0


def _scenario_check(paths) -> int:
    """Validate scenario spec files; nonzero exit when any is invalid."""
    from .scenarios import load_scenario

    if not paths:
        print("error: scenario check needs at least one spec file")
        return 2
    failures = 0
    for path in paths:
        try:
            spec = load_scenario(path)
        except (OSError, RuntimeError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        tenants = spec.all_tenants()
        print(
            f"ok   {path}: {spec.name} [{spec.archetype}] "
            f"{len(tenants)} tenant(s), {spec.total_events} events, "
            f"{spec.workload.requests} trace requests"
        )
    print(f"{len(paths)} spec(s), {failures} failure(s)")
    return 1 if failures else 0


def _cmd_scenario(args) -> int:
    """The scenario factory front-end (see docs/SCENARIOS.md)."""
    import time

    from .scenarios import (
        default_pack_dir,
        materialize,
        replay,
        resolve_scenario,
        shrink_spec,
        write_scenario,
    )

    action = args.action
    targets = list(args.targets)
    if args.check:
        # `repro scenario --check FILES...`: the leading positional is a
        # file, not an action.
        if action not in (None, "check"):
            targets.insert(0, action)
        return _scenario_check(targets)
    if action is None:
        action = "list"
    if action == "check":
        return _scenario_check(targets)

    pack = args.pack or default_pack_dir()
    if action == "list":
        from pathlib import Path

        files = sorted(Path(pack).glob("*.toml")) + sorted(Path(pack).glob("*.json"))
        if not files:
            print(f"no scenarios found in {pack}")
            return 1
        for path in files:
            try:
                spec = resolve_scenario(path)
            except (RuntimeError, ValueError) as exc:
                print(f"  {path.stem:28s} INVALID: {exc}")
                continue
            print(
                f"  {path.stem:28s} [{spec.archetype}] "
                f"{len(spec.all_tenants())} tenant(s), "
                f"{spec.total_events} events — {spec.description or spec.name}"
            )
        return 0

    if not targets:
        print(f"error: scenario {action} needs a scenario name or spec file")
        return 2
    if len(targets) > 1:
        print(f"error: scenario {action} takes exactly one scenario, got {targets}")
        return 2
    try:
        spec = resolve_scenario(targets[0], pack_dir=pack)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    if args.tiny:
        spec = shrink_spec(spec)

    if action == "describe":
        print(f"{spec.name} [{spec.archetype}] seed={spec.seed}")
        if spec.description:
            print(f"  {spec.description}")
        for tenant in spec.all_tenants():
            print(
                f"  tenant {tenant.name}: n={tenant.n} "
                f"correlation={tenant.correlation:+.2f}"
            )
        for i, phase in enumerate(spec.phases):
            print(
                f"  phase {i}: {phase.ops} ops, write_frac={phase.write_frac}, "
                f"churn={phase.churn}, drift={phase.drift:+.2f}, "
                f"burst={phase.burst}x"
            )
        w = spec.workload
        print(
            f"  workload: {w.requests} requests, ks={list(w.ks)}, "
            f"eps={w.eps}, alpha={w.alpha}, hot_frac={w.hot_frac}"
        )
        return 0

    scenario = materialize(spec)
    if action == "materialize":
        out = write_scenario(scenario, args.out or f"scenario-{spec.name}")
        total = sum(d.n for d in scenario.datasets.values())
        print(
            f"materialized {spec.name}: {len(scenario.datasets)} tenant(s) "
            f"({total} rows), {len(scenario.events)} events, "
            f"{len(scenario.trace)} trace requests -> {out}"
        )
        return 0

    if action == "replay":
        t0 = time.perf_counter()
        report = replay(
            scenario, default_seed=args.seed, verify=not args.no_verify
        )
        elapsed = time.perf_counter() - t0
        for name, r in report.tenants.items():
            print(
                f"  {name}: {r.num_queries} queries + {r.num_updates} updates "
                f"({r.epochs} epochs), live {r.live_build + r.live_total:.2f}s "
                f"vs rebuild {r.rebuild_build + r.rebuild_total:.2f}s"
            )
        print(
            f"replayed {report.num_queries} queries + {report.num_updates} "
            f"updates across {len(report.tenants)} tenant(s) in {elapsed:.2f}s"
        )
        if not args.no_verify:
            status = "yes" if report.identical else "NO"
            print(f"live answers bit-identical to cold per-epoch solves: {status}")
        print(f"amortized speedup over rebuild-per-update: {report.speedup:.1f}x")
        return 0 if (args.no_verify or report.identical) else 1

    print(
        f"error: unknown scenario action {action!r} "
        f"(expected list/describe/check/materialize/replay)"
    )
    return 2


def _cmd_table2(args) -> int:
    from .experiments.table2 import render_table2, run_table2

    print(render_table2(run_table2(scale=args.scale)))
    return 0


def _cmd_experiments(args) -> int:
    from .experiments.run_all import main

    argv = ["--fast"] if args.fast else []
    if args.out:
        argv += ["--out", args.out]
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="reproduce Example 2.2")

    solve = sub.add_parser("solve", help="solve FairHMS on a dataset")
    solve.add_argument(
        "dataset",
        choices=["Lawschs", "Adult", "Compas", "Credit", "anticor"],
    )
    solve.add_argument("--attribute", default=None, help="group attribute")
    solve.add_argument("-k", type=int, default=10, help="solution size")
    solve.add_argument("--alpha", type=float, default=0.1)
    solve.add_argument("--n", type=int, default=None, help="row-count override")
    solve.add_argument("--d", type=int, default=6, help="dimension (anticor)")
    solve.add_argument("--groups", type=int, default=3, help="groups (anticor)")
    solve.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "IntCov", "BiGreedy", "BiGreedy+"],
    )
    solve.add_argument("--seed", type=int, default=7)

    plan = sub.add_parser(
        "plan", help="show the planner's dispatch decision for a query"
    )
    plan.add_argument(
        "dataset",
        choices=["Lawschs", "Adult", "Compas", "Credit", "anticor"],
    )
    plan.add_argument("--attribute", default=None, help="group attribute")
    plan.add_argument("-k", type=int, default=10, help="solution size")
    plan.add_argument("--alpha", type=float, default=0.1)
    plan.add_argument("--eps", type=float, default=0.02)
    plan.add_argument("--n", type=int, default=None, help="row-count override")
    plan.add_argument("--d", type=int, default=6, help="dimension (anticor)")
    plan.add_argument("--groups", type=int, default=3, help="groups (anticor)")
    plan.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "IntCov", "BiGreedy", "BiGreedy+"],
    )
    plan.add_argument("--seed", type=int, default=7)
    plan.add_argument(
        "--explain",
        action="store_true",
        help="print the full decision breakdown (stats + candidate costs)",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit the Plan record as JSON"
    )

    serve = sub.add_parser(
        "serve", help="index a dataset and replay a query workload against it"
    )
    serve.add_argument(
        "dataset",
        choices=["Lawschs", "Adult", "Compas", "Credit", "anticor"],
    )
    serve.add_argument("--attribute", default=None, help="group attribute")
    serve.add_argument(
        "--k", default="4,8,12", help="comma-separated solution sizes"
    )
    serve.add_argument(
        "--repeat", type=int, default=3, help="times to replay the k sweep"
    )
    serve.add_argument("--alpha", type=float, default=0.1)
    serve.add_argument("--eps", type=float, default=0.02)
    serve.add_argument("--n", type=int, default=None, help="row-count override")
    serve.add_argument("--d", type=int, default=6, help="dimension (anticor)")
    serve.add_argument("--groups", type=int, default=3, help="groups (anticor)")
    serve.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "IntCov", "BiGreedy", "BiGreedy+"],
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--no-cold",
        action="store_true",
        help="skip the cold-solve comparison pass",
    )

    live = sub.add_parser(
        "live",
        help="mixed query/update workload: live index vs rebuild-per-update",
    )
    live.add_argument(
        "dataset",
        choices=["Lawschs", "Adult", "Compas", "Credit", "anticor"],
    )
    live.add_argument("--attribute", default=None, help="group attribute")
    live.add_argument("--ops", type=int, default=200, help="operation count")
    live.add_argument(
        "--write-frac",
        type=float,
        default=0.2,
        help="fraction of ops that are updates (default 0.2 = 80/20)",
    )
    live.add_argument(
        "--k", default="4,6,8", help="comma-separated solution sizes"
    )
    live.add_argument(
        "--initial-frac",
        type=float,
        default=0.75,
        help="fraction of tuples loaded before the workload starts",
    )
    live.add_argument("--alpha", type=float, default=0.1)
    live.add_argument("--eps", type=float, default=0.02)
    live.add_argument("--n", type=int, default=None, help="row-count override")
    live.add_argument("--d", type=int, default=2, help="dimension (anticor)")
    live.add_argument("--groups", type=int, default=3, help="groups (anticor)")
    live.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "IntCov", "BiGreedy", "BiGreedy+"],
    )
    live.add_argument("--seed", type=int, default=7, help="solver seed")
    live.add_argument(
        "--workload-seed", type=int, default=1, help="op-sequence seed"
    )
    live.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-identity check against the rebuild baseline",
    )

    service = sub.add_parser(
        "service",
        help="multi-tenant gateway workload vs the naive stateless loop",
    )
    service.add_argument(
        "--tenants", type=int, default=3, help="number of hosted datasets"
    )
    service.add_argument(
        "--requests", type=int, default=36, help="workload request count"
    )
    service.add_argument(
        "--k", default="4,6,8", help="comma-separated solution sizes"
    )
    service.add_argument(
        "--hot-frac",
        type=float,
        default=0.7,
        help="fraction of requests drawn from each tenant's hot query set",
    )
    service.add_argument("--alpha", type=float, default=0.1)
    service.add_argument("--eps", type=float, default=0.02)
    service.add_argument("--n", type=int, default=None, help="tenant size")
    service.add_argument("--d", type=int, default=2, help="tenant dimension")
    service.add_argument("--groups", type=int, default=3)
    service.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "IntCov", "BiGreedy", "BiGreedy+"],
    )
    service.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="registry cache budget in MiB (LRU eviction past it)",
    )
    service.add_argument(
        "--build-workers",
        type=int,
        default=0,
        help="process-pool workers for sharded cold builds (0 = sequential)",
    )
    service.add_argument("--seed", type=int, default=7, help="solver seed")
    service.add_argument(
        "--workload-seed", type=int, default=3, help="request-stream seed"
    )
    service.add_argument(
        "--no-naive",
        action="store_true",
        help="skip the naive serial loop (no speedup / identity check)",
    )

    snapshot = sub.add_parser(
        "snapshot",
        help="persist a warm index to disk, reload it, verify bit-identity",
    )
    snapshot.add_argument(
        "dataset",
        choices=["Lawschs", "Adult", "Compas", "Credit", "anticor"],
    )
    snapshot.add_argument("--attribute", default=None, help="group attribute")
    snapshot.add_argument(
        "--dir", default="snapshots", help="snapshot store directory"
    )
    snapshot.add_argument(
        "--name", default=None, help="snapshot name (default: dataset name)"
    )
    snapshot.add_argument(
        "--k", default="4,6,8", help="comma-separated solution sizes"
    )
    snapshot.add_argument("--alpha", type=float, default=0.1)
    snapshot.add_argument("--eps", type=float, default=0.02)
    snapshot.add_argument("--n", type=int, default=None, help="row-count override")
    snapshot.add_argument("--d", type=int, default=2, help="dimension (anticor)")
    snapshot.add_argument("--groups", type=int, default=3, help="groups (anticor)")
    snapshot.add_argument("--seed", type=int, default=7)
    snapshot.add_argument(
        "--load-only",
        action="store_true",
        help="skip the build: serve from an existing snapshot "
        "(cross-process warm start)",
    )
    snapshot.add_argument(
        "--info",
        action="store_true",
        help="print the snapshot manifest and exit",
    )

    server = sub.add_parser(
        "server",
        help="serve FairHMS over HTTP (asyncio front-end over the gateway)",
    )
    server.add_argument(
        "config",
        nargs="?",
        default=None,
        help="TOML or JSON server config (see docs/SERVER.md)",
    )
    server.add_argument(
        "--demo",
        action="store_true",
        help="skip the config file: serve 3 synthetic AntiCor-2D tenants",
    )
    server.add_argument(
        "--tenants", type=int, default=3, help="tenant count for --demo"
    )
    server.add_argument("--n", type=int, default=None, help="tenant size (--demo)")
    server.add_argument("--host", default=None, help="listen host override")
    server.add_argument("--port", type=int, default=None, help="listen port override")
    server.add_argument(
        "--check",
        action="store_true",
        help="validate the config, print the dataset plan, and exit",
    )

    cluster = sub.add_parser(
        "cluster",
        help="run N FairHMS workers behind the consistent-hash router "
        "(docs/CLUSTER.md)",
    )
    cluster.add_argument(
        "config",
        help="TOML or JSON server config with a [cluster] section",
    )
    cluster.add_argument(
        "--workers", type=int, default=None, help="worker-count override"
    )
    cluster.add_argument("--host", default=None, help="router host override")
    cluster.add_argument(
        "--port", type=int, default=None, help="router port override"
    )
    cluster.add_argument(
        "--check",
        action="store_true",
        help="validate the config, print the shard plan, and exit",
    )

    scenario = sub.add_parser(
        "scenario",
        help="config-driven scenario factory: list/describe/check/"
        "materialize/replay (docs/SCENARIOS.md)",
    )
    scenario.add_argument(
        "action",
        nargs="?",
        default=None,
        help="list | describe | check | materialize | replay (default: list)",
    )
    scenario.add_argument(
        "targets",
        nargs="*",
        default=[],
        help="scenario name (resolved in the pack) or spec file path(s)",
    )
    scenario.add_argument(
        "--check",
        action="store_true",
        help="validate spec files and exit (equivalent to the check action)",
    )
    scenario.add_argument(
        "--pack",
        default=None,
        help="scenario pack directory (default: examples/scenarios)",
    )
    scenario.add_argument(
        "--out", default=None, help="output directory for materialize"
    )
    scenario.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the scenario to CI size (tenants <= 240 rows, "
        "<= 30 ops/phase, <= 24 trace requests)",
    )
    scenario.add_argument("--seed", type=int, default=7, help="solver seed")
    scenario.add_argument(
        "--no-verify",
        action="store_true",
        help="replay without the bit-identity check against cold solves",
    )

    trace = sub.add_parser(
        "trace",
        help="pretty-print request traces from a running server "
        "(GET /v1/traces)",
    )
    trace.add_argument(
        "url",
        nargs="?",
        default="127.0.0.1:8080",
        help="server address, host:port or URL (default: 127.0.0.1:8080)",
    )
    trace.add_argument(
        "--limit", type=int, default=10, help="traces to fetch (1..100)"
    )
    trace.add_argument(
        "--slowest",
        action="store_true",
        help="show the retained slowest traces instead of the recent ring",
    )
    trace.add_argument(
        "--timeout", type=float, default=10.0, help="HTTP timeout seconds"
    )

    table2 = sub.add_parser("table2", help="print dataset statistics")
    table2.add_argument("--scale", type=float, default=0.25)

    experiments = sub.add_parser("experiments", help="run the full harness")
    experiments.add_argument("--fast", action="store_true")
    experiments.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "solve": _cmd_solve,
        "plan": _cmd_plan,
        "serve": _cmd_serve,
        "live": _cmd_live,
        "service": _cmd_service,
        "snapshot": _cmd_snapshot,
        "server": _cmd_server,
        "cluster": _cmd_cluster,
        "scenario": _cmd_scenario,
        "trace": _cmd_trace,
        "table2": _cmd_table2,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
