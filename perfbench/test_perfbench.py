"""Tests of the benchmark's own parts: streams, oracle, percentile rule.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Spans, self_times  # noqa: E402
from oracle import Oracle, Record, answer_payload  # noqa: E402
from quantiles import percentile  # noqa: E402
from streams import (  # noqa: E402
    WORKLOADS,
    Op,
    client_streams,
    priming_ops,
    server_config,
)


def _take(name: str, seed: int, count: int) -> list[list[Op]]:
    return [list(islice(s, count)) for s in client_streams(WORKLOADS[name], seed)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream_other_seed_other_stream(name):
    assert _take(name, 7, 300) == _take(name, 7, 300)
    assert _take(name, 7, 300) != _take(name, 8, 300)
    assert priming_ops(WORKLOADS[name], 7) == priming_ops(WORKLOADS[name], 7)


def test_live_write_deletes_only_alive_keys_and_keeps_tenants_large():
    workload = WORKLOADS["live-write"]
    for client, ops in enumerate(_take("live-write", 3, 4000)):
        tenant = workload.tenants[client]
        alive = set(range(tenant.n))  # anticorrelated_dataset ids are 0..n-1
        writes = inserts = 0
        since_write: set[int] = set()
        for op in ops:
            assert op.dataset == tenant.name  # each client owns its tenant
            if op.kind == "query":
                assert op.k not in since_write  # a write precedes every re-query
                since_write.add(op.k)
                continue
            since_write.clear()
            if op.kind == "insert":
                assert op.key not in alive
                alive.add(op.key)
                writes += 1
                inserts += 1
            elif op.kind == "delete":
                assert op.key in alive
                alive.remove(op.key)
                writes += 1
            assert len(alive) >= max(workload.ks)
        assert 0.2 < writes / len(ops) < 0.3  # about one write per three queries
        assert 0.55 < inserts / writes < 0.8  # inserts : deletes about 2 : 1


def test_cold_solve_never_repeats_a_constraint():
    workload = WORKLOADS["cold-solve"]
    (ops,) = _take("cold-solve", 5, 2000)
    ops = priming_ops(workload, 5) + ops
    keys = [(op.dataset, op.k, op.lower, op.upper) for op in ops]
    assert len(set(keys)) == len(keys)
    for op in ops:
        assert op.lower is not None and sum(op.lower) <= op.k <= sum(op.upper)


def test_config_names_only_datasets():
    for workload in WORKLOADS.values():
        live = any(t.live for t in workload.tenants)
        raw = server_config(workload, wal_dir="wal" if live else None)
        assert set(raw) == ({"datasets", "server"} if live else {"datasets"})
        if live:
            assert raw["server"] == {"wal_dir": "wal"}


def test_oracle_flags_a_corrupted_answer():
    oracle = Oracle(WORKLOADS["hot-read"])
    op = Op("query", "hot0", k=4)
    good = answer_payload(oracle.solve(oracle.index("hot0"), op))
    wrong_ids = dict(good, ids=good["ids"][:-1] + [good["ids"][-1] + 1])
    wrong_mhr = dict(good, mhr_estimate=good["mhr_estimate"] - 1e-12)
    records = [Record(op, 0.001, a) for a in (good, wrong_ids, wrong_mhr)]
    oracle.check_frozen(records)
    assert [r.error for r in records] == [None, "mismatch", "mismatch"]
    assert oracle.mismatches == 2
    assert len(oracle.mhr) == 1 and 0.0 < oracle.mhr[0] <= 1.0


def test_oracle_flags_a_wrong_write_ack():
    oracle = Oracle(WORKLOADS["live-write"])
    insert = Op("insert", "live0", key=10**9, point=(0.5, 0.5), group=1)
    records = [
        Record(insert, 0.001, {"applied": "insert", "version": 999}),
    ]
    oracle.check_owned(records)
    assert records[0].error == "mismatch"


def test_checker_entry_point_round_trips_a_group(tmp_path):
    import pickle

    from oracle import _main

    op = Op("query", "hot0", k=4)
    oracle = Oracle(WORKLOADS["hot-read"])
    good = answer_payload(oracle.solve(oracle.index("hot0"), op))
    src, dst = tmp_path / "in", tmp_path / "out"
    src.write_bytes(pickle.dumps(("hot-read", [[(op, good), (op, dict(good, size=3))]])))
    assert _main([str(src), str(dst)]) == 0
    ((errors, scores, _),) = pickle.loads(dst.read_bytes())
    assert errors == [None, "mismatch"] and len(scores) == 1


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(19), 0.5) is None
    assert percentile(range(20), 0.5) == 9
    assert percentile(range(999), 0.99) is None
    assert percentile(range(1000), 0.99) == 989
    assert percentile([], 0.5) is None


def test_self_time_subtracts_the_children_union():
    rows = [
        ("parent", 0.0, 10.0, None, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 5.0, 0, "r"),  # overlaps a: the union is [1, 5]
        ("c", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    times = self_times(rows)
    assert times["parent"] == [10.0 - 4.0 - 1.0]
    assert times["a"] == [3.0]


def test_merged_span_logs_keep_their_parent_links():
    merged, part = Spans(), Spans()
    merged.add("client.query", 0.0, 1.0, None, "c0-1")
    parent = part.add("index.op", 0.0, 2.0, None, "op0")
    part.add("planner.plan", 0.0, 1.0, parent, "op0")
    part.add("index.op", 3.0, 4.0, None, None)  # priming: not a sample
    merged.extend(part)
    assert merged.rows[2][3] == 1  # the child still points at index.op
    assert merged.durations("index.op") == [2.0]


def test_ops_are_plain_values():
    op = Op("query", "x", k=4, lower=(0, 1, 0), upper=(4, 4, 4))
    assert dataclasses.replace(op) == op and hash(op) == hash(dataclasses.replace(op))
    assert op.wire_constraint() == {"lower": [0, 1, 0], "upper": [4, 4, 4], "k": 4}
