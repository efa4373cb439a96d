"""Benchmark: live serving — mixed read/write workload, live vs rebuild.

Replays a seeded 80/20 query/update workload (see
``repro.serving.workload``) against a ``LiveFairHMSIndex`` and against
the rebuild-per-update baseline (every update invalidates the index; the
next query pays a full rebuild).  Every query answered by the live index
is verified bit-identical to the baseline's cold solve at the same
epoch before any speedup is reported.

Expected shape: on AntiCor-2D (n = 2,000) the live index is >= 3x
faster amortized (initial builds included) — incremental skyline
maintenance, warm delta-nets and tau-hint warm starts remove almost all
per-epoch rebuild work.  On
AntiCor-6D the shared BiGreedy+ greedy dominates both sides, so the gap
is small; the live side still wins on update latency.

Run as a script for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_live.py --tiny

Script mode writes a machine-readable ``BENCH_live.json`` (timings,
speedup, workload parameters, git SHA) next to the working directory —
see ``repro.benchio``.
"""

import argparse
import sys

import pytest

from repro.benchio import write_bench_json
from repro.data.synthetic import anticorrelated_dataset
from repro.serving.workload import run_mixed_workload

NUM_OPS = 200
WRITE_FRAC = 0.2
KS = (4, 6, 8)
SEED = 1
SPEEDUP_FLOOR = 3.0  # 2-D default workload; enforced in non-tiny script mode


@pytest.fixture(scope="module")
def anticor2d_raw():
    """AntiCor_2D live-serving input, pre-preprocessing (n = 2,000)."""
    return anticorrelated_dataset(2_000, 2, 3, seed=42)


@pytest.fixture(scope="module")
def anticor6d_raw():
    """AntiCor_6D live-serving input, pre-preprocessing (n = 1,500)."""
    return anticorrelated_dataset(1_500, 6, 3, seed=42)


def _report_line(name, report):
    return (
        f"{name}: {report.num_queries}q/{report.num_updates}u "
        f"epochs={report.epochs} "
        f"live={report.live_build + report.live_total:.2f}s "
        f"rebuild={report.rebuild_build + report.rebuild_total:.2f}s "
        f"speedup={report.speedup:.1f}x identical={report.identical}"
    )


def test_bench_live_mixed_2d(benchmark, anticor2d_raw):
    report = benchmark.pedantic(
        lambda: run_mixed_workload(
            anticor2d_raw,
            num_ops=NUM_OPS,
            write_frac=WRITE_FRAC,
            ks=KS,
            seed=SEED,
        ),
        rounds=1,
        iterations=1,
    )
    assert report.identical
    benchmark.extra_info["speedup"] = round(report.speedup, 2)
    benchmark.extra_info["epochs"] = report.epochs


def test_bench_live_mixed_6d(benchmark, anticor6d_raw):
    report = benchmark.pedantic(
        lambda: run_mixed_workload(
            anticor6d_raw,
            num_ops=NUM_OPS // 2,
            write_frac=WRITE_FRAC,
            ks=KS,
            seed=SEED,
        ),
        rounds=1,
        iterations=1,
    )
    assert report.identical
    benchmark.extra_info["speedup"] = round(report.speedup, 2)


def test_live_amortized_speedup_2d(anticor2d_raw):
    """Acceptance floor: live >= 3x over rebuild-per-update, bit-identical."""
    report = run_mixed_workload(
        anticor2d_raw,
        num_ops=NUM_OPS,
        write_frac=WRITE_FRAC,
        ks=KS,
        seed=SEED,
    )
    print("\n" + _report_line("AntiCor-2D n=2000 80/20", report))
    assert report.identical, f"query mismatches at {report.mismatches}"
    assert report.speedup >= SPEEDUP_FLOOR


def test_live_identical_6d(anticor6d_raw):
    """6-D has no speedup floor (the shared greedy dominates), but every
    live answer must still match the rebuilt index bit for bit."""
    report = run_mixed_workload(
        anticor6d_raw,
        num_ops=NUM_OPS // 2,
        write_frac=WRITE_FRAC,
        ks=KS,
        seed=SEED,
    )
    print("\n" + _report_line("AntiCor-6D n=1500 80/20", report))
    assert report.identical, f"query mismatches at {report.mismatches}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small smoke workload (n=300, 40 ops) for CI",
    )
    parser.add_argument("--n", type=int, default=2_000)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--ops", type=int, default=NUM_OPS)
    parser.add_argument("--write-frac", type=float, default=WRITE_FRAC)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    if args.tiny:
        args.n, args.ops = 300, 40
    data = anticorrelated_dataset(args.n, args.d, args.groups, seed=42)
    report = run_mixed_workload(
        data,
        num_ops=args.ops,
        write_frac=args.write_frac,
        ks=KS,
        seed=args.seed,
    )
    name = f"AntiCor-{args.d}D n={args.n} ops={args.ops}"
    print(_report_line(name, report))
    out = write_bench_json(
        "live",
        {
            "workload": {
                "dataset": f"AntiCor-{args.d}D",
                "n": args.n,
                "d": args.d,
                "groups": args.groups,
                "num_ops": args.ops,
                "write_frac": args.write_frac,
                "ks": list(KS),
                "seed": args.seed,
                "tiny": args.tiny,
            },
            "timings": {
                "live_build_s": report.live_build,
                "live_serve_s": report.live_total,
                "rebuild_build_s": report.rebuild_build,
                "rebuild_serve_s": report.rebuild_total,
            },
            "speedup": report.speedup,
            "num_queries": report.num_queries,
            "num_updates": report.num_updates,
            "epochs": report.epochs,
            "identical": report.identical,
            "floors": {"speedup": SPEEDUP_FLOOR},
            # The 3x floor is calibrated on the 2-D workload; a run at
            # another dimension honestly reports its floor unchecked.
            "floors_checked": not args.tiny and args.d == 2,
        },
    )
    print(f"wrote {out}")
    if not report.identical:
        print(f"FAIL: live answers diverged at queries {report.mismatches}")
        return 1
    if not args.tiny and args.d != 2:
        # The floor is calibrated on the 2-D workload (6-D is dominated
        # by the shared greedy, ~1.1x); identity still holds everywhere.
        print(f"note: {args.d}-D workload; the {SPEEDUP_FLOOR}x floor applies at d=2")
    elif not args.tiny and report.speedup < SPEEDUP_FLOOR:
        print(f"FAIL: {report.speedup:.1f}x under the {SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
