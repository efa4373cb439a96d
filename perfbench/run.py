"""End-to-end benchmark over ``repro server``: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0

``--trace 0`` starts the server as its own process, sets it up several
times (``setup_s`` is the median), drives the last one in a closed loop
for ``--seconds``, checks every answer against an in-process replay and
prints the end-to-end metrics.  ``--trace 1`` runs the loop untraced and
then with client spans, prints both side by side, replays the stream at
each layer boundary in-process and prints the per-layer ledger.  Spans
land in ``.perfbench/spans-<workload>-<seed>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server set-ups per run; ``setup_s`` is their median.  Live-write and
#: cold-solve set up in ~0.2 s, so scheduling noise is a large share of
#: one set-up: with three, live-write's spread over ten seeds was 22% on
#: a shared 2-CPU machine.
SETUPS = 5
#: Oracle checker processes, started after the server has stopped.
CHECKERS = 2

#: The tail metric is p95: over ten seeds on a shared 2-CPU machine the
#: p99 of ~1000 cold-solve queries spread 10-28% (IQR over median) and
#: hot-read's 13-18%, because a stall of a few hundred ms fills the top
#: 1% alone.  p99 is still printed, with its sample count.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "mhr_mean": "ratio",
    "rss_mb": "MiB",
}
PER_LAYER = {  # name -> (ledger key, scale, unit)
    "server.start_s": ("server.start", 1.0, "s"),
    "server.added_p50_ms": ("server.added_p50", 1e3, "ms"),
    "service.gateway.added_p50_ms": ("service.gateway.added_p50", 1e3, "ms"),
    "planner.plan_p50_us": ("planner.plan_p50", 1e6, "us"),
    "serving.index.hit_p50_us": ("serving.index.hit_p50", 1e6, "us"),
    "core.phase.geometry_ms": ("core.phase.geometry", 1e3, "ms"),
    "core.phase.search_ms": ("core.phase.search", 1e3, "ms"),
    "core.phase.finalize_ms": ("core.phase.finalize", 1e3, "ms"),
    "service.registry.build_s": ("service.registry.build", 1.0, "s"),
    "cluster.router.added_p50_ms": ("cluster.router.added_p50", 1e3, "ms"),
    "obs.tracing_added_p50_ms": ("obs.tracing_added_p50", 1e3, "ms"),
}
#: Printed in the ledger but not in the JSON result: each is missing (or
#: a constant) on at least one workload.
PRINT_ONLY = {
    "server.added_p99_ms": ("server.added_p99", 1e3, "ms"),
    "service.gateway.added_p99_ms": ("service.gateway.added_p99", 1e3, "ms"),
    "service.gateway.batch_mean": ("service.gateway.batch_mean", 1.0, "ops"),
    "service.gateway.coalesced_ratio": ("service.gateway.coalesced_ratio", 1.0, "ratio"),
    "serving.index.hit_ratio": ("serving.index.hit_ratio", 1.0, "ratio"),
    "core.solve_p50_ms": ("core.solve_p50", 1e3, "ms"),
    "core.solve_p99_ms": ("core.solve_p99", 1e3, "ms"),
    "core.phase.engine_ms": ("core.phase.engine", 1e3, "ms"),
    "serving.live.apply_p50_ms": ("serving.live.apply_p50", 1e3, "ms"),
    "serving.live.requery_p50_ms": ("serving.live.requery_p50", 1e3, "ms"),
    "serving.live.requery_p99_ms": ("serving.live.requery_p99", 1e3, "ms"),
    "cluster.wal.append_p50_ms": ("cluster.wal.append_p50", 1e3, "ms"),
    "cluster.wal.append_p99_ms": ("cluster.wal.append_p99", 1e3, "ms"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value, unit: str) -> str:
    return "withheld" if value is None else f"{value:.4f} {unit}"


# --------------------------------------------------------------------- #
# the end-to-end run
# --------------------------------------------------------------------- #


def _setup(workload, seed, workdir, index: int):
    """Spawn a server and prime it; returns ``(server, address, setup_s)``."""
    from loadgen import ServerProcess, prime
    from streams import priming_ops, server_config

    live = any(t.live for t in workload.tenants)
    wal_dir = str(workdir / f"wal-{index}") if live else None
    server = ServerProcess(ROOT, server_config(workload, wal_dir), workdir)
    address = server.start()
    try:
        prime(address, priming_ops(workload, seed))
    except BaseException:
        server.stop()
        raise
    return server, address, time.perf_counter() - server.listening


def _check(workload, logs, workdir: Path) -> tuple[list[float], list[str]]:
    """Oracle pass over every record; failing records get an ``error``.

    Independent groups (a live-write client's ops, a frozen tenant's
    queries) replay in ``CHECKERS`` child processes (``oracle.py`` run as
    a script) once the server has stopped.  Every child is waited for,
    and killed first if the pass fails.  Returns the MHR scores and the
    oracle's problem notes.
    """
    import pickle
    import subprocess

    from loadgen import child_env

    if workload.shape == "owned":
        groups = [log for log in logs if log]
    else:
        by_tenant: dict = {}
        for rec in (r for log in logs for r in log):
            by_tenant.setdefault(rec.op.dataset, []).append(rec)
        groups = list(by_tenant.values())
    batches = [groups[i::CHECKERS] for i in range(CHECKERS)]
    mhr, problems = [], []
    children = []
    try:
        for i, batch in enumerate(b for b in batches if b):
            src, dst = workdir / f"check-{i}.in", workdir / f"check-{i}.out"
            with open(src, "wb") as fh:
                pickle.dump(
                    (workload.name, [[(r.op, r.answer) for r in g] for g in batch]), fh
                )
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), str(src), str(dst)],
                cwd=ROOT, env=child_env(ROOT), stdin=subprocess.DEVNULL,
            )
            children.append((proc, batch, dst))
        for proc, batch, dst in children:
            if proc.wait() != 0:
                raise RuntimeError(f"oracle checker exited with {proc.returncode}")
            with open(dst, "rb") as fh:
                results = pickle.load(fh)
            for group, (errors, scores, notes) in zip(batch, results):
                for rec, error in zip(group, errors):
                    rec.error = error
                mhr.extend(scores)
                problems.extend(notes)
    finally:
        for proc, _, _ in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return mhr, problems


def _loop_metrics(logs, wall: float) -> dict:
    """Throughput and client-seen latencies of one closed loop."""
    from quantiles import summary

    records = [r for log in logs for r in log]
    done = sum(r.error is None for r in records)
    out = {
        "attempted": len(records),
        "failed": len(records) - done,
        "throughput_ops": done / wall,
        "wall_s": wall,
    }
    for label, is_query in (("query", True), ("write", False)):
        out[label] = summary([
            (r.latency if r.error is None else math.inf) * 1e3
            for r in records
            if (r.op.kind == "query") == is_query
        ], qs=(0.5, 0.95, 0.99))
    return out


def _print_loop(title: str, m: dict) -> None:
    print(f"  {title}: {m['attempted']} ops in {m['wall_s']:.2f} s, "
          f"{m['failed']} failed, throughput {m['throughput_ops']:.2f} ops/s")
    for label in ("query", "write"):
        s = m[label]
        if s["n"]:
            print("    " + "  ".join(
                f"{label}_{p}_ms {_fmt(s[p], 'ms')}" for p in ("p50", "p95", "p99")
            ) + f"  (n={s['n']})")


def _gateway_counters(client) -> dict:
    """Batch size and coalescing from ``/v1/metrics``; absent if not exposed."""
    try:
        service = client.metrics().get("service") or {}
    except Exception as exc:  # noqa: BLE001 - a missing counter is not a crash
        print(f"  /v1/metrics unavailable: {exc}")
        return {}
    out = {}
    batches, batched = service.get("batches"), service.get("batched_requests")
    if batches:
        out["service.gateway.batch_mean"] = batched / batches
    totals = service.get("totals") or {}
    if totals.get("requests"):
        out["service.gateway.coalesced_ratio"] = (
            totals.get("coalesced", 0) / totals["requests"]
        )
    return out


def run_end_to_end(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from loadgen import closed_loop
    from streams import client_streams

    setups = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            server, address, setup_s = _setup(workload, seed, workdir, i)
            setups.append(setup_s)
            print(f"  setup {i}: start {server.listening - server.spawned:.3f} s, "
                  f"setup {setup_s:.4f} s")
        logs, wall = closed_loop(address, client_streams(workload, seed), seconds)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    mhr, problems = _check(workload, logs, workdir)
    m = _loop_metrics(logs, wall)
    _print_loop("timed loop", m)
    for problem in problems:
        print(f"  mismatch: {problem}")
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops": m["throughput_ops"],
        "query_p50_ms": m["query"]["p50"],
        "query_p95_ms": m["query"]["p95"],
        "mhr_mean": statistics.fmean(mhr) if mhr else None,
        "rss_mb": rss,
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:16s} {_fmt(metrics[name], unit)}")
    missing = [name for name, v in metrics.items() if v is None]
    if missing:
        print(f"  missing metrics: {missing}")
    return {
        "correct": m["failed"] == 0 and not missing,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()
            if value is not None
        },
    }


# --------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------- #


def run_traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from ledger import Spans, layer_metrics, replay_boundaries, self_times
    from loadgen import closed_loop, connect
    from streams import client_streams, server_config

    spans = Spans()
    server, address, setup_s = _setup(workload, seed, workdir, 0)
    layers = {"server.start": server.listening - server.spawned}
    spans.add("server.start", server.spawned, server.listening, None, "setup")
    spans.add("server.prime", server.listening, server.listening + setup_s, None, "setup")
    try:
        streams = client_streams(workload, seed)
        plain, plain_wall = closed_loop(address, streams, seconds / 2)
        client_spans: list = []
        traced, traced_wall = closed_loop(
            address, streams, seconds / 2, spans=client_spans
        )
        client = connect(address)
        try:
            layers.update(_gateway_counters(client))
        finally:
            client.close()
    finally:
        server.stop()
    for row in client_spans:
        spans.add(*row)
    # Both loops continue one stream per client: check them as one.
    logs = [a + b for a, b in zip(plain, traced)]
    _, problems = _check(workload, logs, workdir)
    for problem in problems:
        print(f"  mismatch: {problem}")
    print("  end-to-end, untraced vs traced (client spans on):")
    _print_loop("untraced", _loop_metrics(plain, plain_wall))
    _print_loop("traced  ", _loop_metrics(traced, traced_wall))
    e2e_failed = sum(r.error is not None for log in logs for r in log)

    config = server_config(workload)
    ledger = replay_boundaries(workload, seed, config, workdir)
    layers.update(layer_metrics(ledger))
    for part in ledger["boundaries"]:
        spans.extend(part)
    out_path = ROOT / ".perfbench" / f"spans-{workload.name}-{seed}.jsonl"
    spans.write(out_path)

    print(f"  self time per span (ms), from {out_path.name}:")
    for part in ledger["boundaries"]:
        for name, values in sorted(self_times(part.rows).items()):
            print(f"    {name:28s} n={len(values):5d} "
                  f"mean self {statistics.fmean(values) * 1e3:9.4f}")
    print("  per-layer ledger:")
    metrics = {}
    for name, (key, scale, unit) in {**PER_LAYER, **PRINT_ONLY}.items():
        value = layers.get(key)
        value = None if value is None else value * scale
        print(f"    {name:34s} {_fmt(value, unit)}")
        if name in PER_LAYER and value is not None:
            metrics[name] = {"value": value, "unit": unit}
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        print(f"  missing metrics: {missing}")
    replayed = ledger["ops"] * len(ledger["boundaries"])
    attempted = sum(len(log) for log in logs) + replayed
    failed = e2e_failed + ledger["mismatches"]
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _terminate(signum, frame):
    """SIGTERM unwinds like an error, so every ``finally`` stops its child."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Import the client side now, so no set-up pays for it.
    import repro.client  # noqa: F401
    from streams import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, workdir)
        else:
            result = run_end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
