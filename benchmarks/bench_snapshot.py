"""Benchmark: snapshot persistence — reload vs cold rebuild, warm restarts.

Three measurements over the serving benchmark workload (the ``k`` sweep
of ``bench_serving.py``, replayed REPEAT times):

* **rebuild**: what a registry without a spill tier pays after eviction
  (or a fresh process pays on start) — build the ``FairHMSIndex`` and
  serve the workload with every artifact cold;
* **reload**: load the snapshot (checksum verified) and serve the same
  workload — datasets, nets, engines, geometry, and memoized results
  all come back warm, so repeated queries never reach a solver;
* **cross-process warm start**: a child process loads the same snapshot
  and serves the workload, timing load and serve inside the child — the
  restart story, minus interpreter startup noise.

Every reloaded answer is verified bit-identical (ids + exact MHR) to the
cold-built index's before any speedup is reported, and a live-index
segment spills a mutated ``LiveFairHMSIndex`` through a
``DatasetRegistry`` spill tier and verifies the reload still carries the
applied writes.

Expected shape: on AntiCor-2D (n = 2,000) reload is >= 5x faster than
rebuild-and-serve — the dominant cold costs (the skyline, IntCov
solves, engine matrices) are exactly what the snapshot persists.
``test_snapshot_reload_speedup_2d`` asserts the 5x floor directly.

Run as a script for a smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_snapshot.py --tiny

Script mode writes a machine-readable ``BENCH_snapshot.json`` (timings,
speedup, snapshot size, workload params, git SHA) — see ``repro.benchio``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.benchio import write_bench_json
from repro.data.synthetic import anticorrelated_dataset
from repro.service import DatasetRegistry, SnapshotStore
from repro.serving import FairHMSIndex, Query

SEED = 7
KS = (4, 6, 8)
REPEAT = 3
RELOAD_FLOOR = 5.0  # enforced in non-tiny script mode and in the test

_CHILD_SCRIPT = """\
import json, sys, time
from repro.service import load_index
from repro.serving import Query

directory, name, ks = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
t0 = time.perf_counter()
index = load_index(directory, name)
load_s = time.perf_counter() - t0
queries = [Query(k=k) for _ in range(3) for k in ks]
t0 = time.perf_counter()
solutions = index.query_batch(queries)
serve_s = time.perf_counter() - t0
print(json.dumps({
    "load_s": load_s,
    "serve_s": serve_s,
    "ids": [s.ids.tolist() for s in solutions],
}))
"""


def workload():
    """The serving bench's k sweep, replayed REPEAT times."""
    return [Query(k=k) for _ in range(REPEAT) for k in KS]


def run_rebuild(data):
    """Cold path: build the index and serve the workload from nothing."""
    index = FairHMSIndex(data, default_seed=SEED)
    return index, index.query_batch(workload())


def run_snapshot_cycle(data, directory):
    """Save / reload / serve; returns timings plus both answer sets."""
    store = SnapshotStore(directory)
    t0 = time.perf_counter()
    index, cold_solutions = run_rebuild(data)
    rebuild_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    store.save_index("bench", index)
    save_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reloaded = store.load_index("bench")
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_solutions = reloaded.query_batch(workload())
    serve_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(a.ids, b.ids) and a.mhr() == b.mhr()
        for a, b in zip(cold_solutions, warm_solutions)
    )
    return {
        "rebuild_s": rebuild_s,
        "save_s": save_s,
        "load_s": load_s,
        "serve_s": serve_s,
        "reload_total_s": load_s + serve_s,
        "speedup": rebuild_s / (load_s + serve_s),
        "snapshot_bytes": store.size_bytes("bench"),
        "identical": identical,
        "cold_ids": [s.ids.tolist() for s in cold_solutions],
    }


def run_cross_process(directory, cold_ids):
    """Load + serve the saved snapshot in a child process; verify ids."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(directory), "bench", json.dumps(KS)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    child = json.loads(out.stdout)
    child["identical"] = child.pop("ids") == cold_ids
    return child


def run_live_spill(data, directory):
    """Spill a mutated live index through the registry; verify the reload."""
    reg = DatasetRegistry(spill_dir=directory)
    reg.register("live", data, live=True, default_seed=SEED)
    live = reg.get("live")
    rng = np.random.default_rng(3)
    for i in range(20):
        live.insert(10_000 + i, rng.random(data.dim) * 0.9 + 0.05, i % data.num_groups)
    for key in data.ids[:10].tolist():
        live.delete(key)
    before = [live.query(k) for k in KS]

    t0 = time.perf_counter()
    assert reg.evict("live"), "live index must be spillable with a spill tier"
    spill_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    reloaded = reg.get("live")
    reload_s = time.perf_counter() - t0
    after = [reloaded.query(k) for k in KS]
    identical = all(
        np.array_equal(a.ids, b.ids) and a.mhr() == b.mhr()
        for a, b in zip(before, after)
    )
    writes_present = 10_019 in reloaded and data.ids[0] not in reloaded
    return {
        "spill_s": spill_s,
        "reload_s": reload_s,
        "identical": identical and writes_present,
    }


@pytest.fixture(scope="module")
def anticor2d_raw():
    """AntiCor_2D serving input, pre-preprocessing (n = 2,000)."""
    return anticorrelated_dataset(2_000, 2, 3, seed=42)


def test_bench_snapshot_cycle_2d(benchmark, anticor2d_raw, tmp_path):
    report = benchmark.pedantic(
        lambda: run_snapshot_cycle(anticor2d_raw, tmp_path),
        rounds=1,
        iterations=1,
    )
    assert report["identical"]
    benchmark.extra_info["speedup"] = round(report["speedup"], 2)
    benchmark.extra_info["snapshot_mib"] = round(report["snapshot_bytes"] / 2**20, 2)


def test_snapshot_reload_speedup_2d(anticor2d_raw, tmp_path):
    """Acceptance floor: reload >= 5x over rebuild-and-serve, bit-identical."""
    report = run_snapshot_cycle(anticor2d_raw, tmp_path)
    print(
        f"\nsnapshot reload: rebuild {report['rebuild_s']:.3f}s vs "
        f"load {report['load_s']:.3f}s + serve {report['serve_s']:.3f}s "
        f"= {report['speedup']:.1f}x ({report['snapshot_bytes'] / 2**20:.1f} MiB)"
    )
    assert report["identical"]
    assert report["speedup"] >= RELOAD_FLOOR


def test_snapshot_cross_process_warm_start(anticor2d_raw, tmp_path):
    """A fresh process serves bit-identical answers from the snapshot."""
    report = run_snapshot_cycle(anticor2d_raw, tmp_path)
    child = run_cross_process(tmp_path, report["cold_ids"])
    print(
        f"\ncross-process: load {child['load_s']:.3f}s, "
        f"serve {child['serve_s']:.3f}s"
    )
    assert child["identical"]


def test_snapshot_live_spill_roundtrip(tmp_path):
    data = anticorrelated_dataset(500, 2, 3, seed=41, name="live-bench")
    report = run_live_spill(data, tmp_path)
    assert report["identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small smoke workload (n=300) for CI",
    )
    parser.add_argument("--n", type=int, default=2_000)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--dir", default=None, help="snapshot directory")
    args = parser.parse_args(argv)
    if args.tiny:
        args.n = 300
    data = anticorrelated_dataset(args.n, args.d, args.groups, seed=42)
    live_data = anticorrelated_dataset(
        max(200, args.n // 4), args.d, args.groups, seed=41, name="live-bench"
    )
    with tempfile.TemporaryDirectory() as tmp:
        directory = args.dir or tmp
        frozen = run_snapshot_cycle(data, directory)
        child = run_cross_process(directory, frozen["cold_ids"])
        live = run_live_spill(live_data, directory)
    name = f"AntiCor-{args.d}D n={args.n}"
    print(
        f"{name}: rebuild {frozen['rebuild_s']:.3f}s vs reload "
        f"{frozen['reload_total_s']:.3f}s = {frozen['speedup']:.1f}x "
        f"(save {frozen['save_s']:.3f}s, "
        f"{frozen['snapshot_bytes'] / 2**20:.1f} MiB) "
        f"identical={frozen['identical']}"
    )
    print(
        f"cross-process warm start: load {child['load_s']:.3f}s + serve "
        f"{child['serve_s']:.3f}s identical={child['identical']}"
    )
    print(
        f"live spill/reload: spill {live['spill_s']:.3f}s, reload "
        f"{live['reload_s']:.3f}s identical={live['identical']}"
    )
    identical = frozen["identical"] and child["identical"] and live["identical"]
    frozen.pop("cold_ids")
    out = write_bench_json(
        "snapshot",
        {
            "workload": {
                "dataset": f"AntiCor-{args.d}D",
                "n": args.n,
                "d": args.d,
                "groups": args.groups,
                "ks": list(KS),
                "repeat": REPEAT,
                "seed": SEED,
                "tiny": args.tiny,
            },
            "frozen": frozen,
            "cross_process": child,
            "live": live,
            "identical": identical,
            "floors": {"reload_speedup": RELOAD_FLOOR},
            "floors_checked": not args.tiny,
        },
    )
    print(f"wrote {out}")
    if not identical:
        print("FAIL: reloaded answers diverged")
        return 1
    if not args.tiny and frozen["speedup"] < RELOAD_FLOOR:
        print(f"FAIL: {frozen['speedup']:.1f}x under the {RELOAD_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
