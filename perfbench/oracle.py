"""The in-process oracle every served answer is checked against.

Frozen tenants replay through ``FairHMSIndex``; each live-write client's
op sequence replays, in order, through its own ``LiveFairHMSIndex``.  An
answer passes when its ``ids`` and ``mhr_estimate`` are bit-identical to
the replay's, its group counts match, and those counts meet the bounds
of the constraint it answered.  Each answer's minimum happiness ratio is
then scored with ``MhrEvaluator`` against the data it was computed on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streams import ALPHA, Op, Tenant, Workload

__all__ = ["Oracle", "Record", "answer_payload", "check_group"]


@dataclass
class Record:
    """One op as a client executed it."""

    op: Op
    latency: float  # seconds, send to parsed answer
    answer: dict | None  # query payload or write ack; None when it failed
    error: str | None = None


def answer_payload(solution) -> dict:
    """The fields of a served answer the oracle compares, from a Solution."""
    est = solution.mhr_estimate
    return {
        "ids": [int(v) for v in solution.ids],
        "mhr_estimate": None if est is None else float(est),
        "group_counts": [int(v) for v in solution.group_counts()],
        "size": int(solution.size),
    }


def _dataset(tenant: Tenant):
    import repro

    return repro.anticorrelated_dataset(
        tenant.n, tenant.d, tenant.groups, seed=tenant.seed, name=tenant.name
    )


def _evaluator(points):
    """2-D scores with the exact sweep; above it a direction net with a
    few LP refinements keeps each score in milliseconds."""
    from repro.hms.evaluation import MhrEvaluator

    if points.shape[1] == 2:
        return MhrEvaluator(points)
    return MhrEvaluator(points, exact_limit=0, net_size=1024, refine=8)


def _constraint(op: Op):
    from repro.fairness.constraints import FairnessConstraint

    return FairnessConstraint(
        lower=np.asarray(op.lower), upper=np.asarray(op.upper), k=op.k
    )


class Oracle:
    """Replays a workload's ops in-process and checks served answers.

    ``mismatches`` counts answers that failed a check; ``mhr`` holds one
    minimum happiness ratio per checked answer.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.tenants = {t.name: t for t in workload.tenants}
        self.mismatches = 0
        self.problems: list[str] = []
        self.mhr: list[float] = []
        self._frozen: dict = {}
        self._evaluators: dict = {}
        self._scores: dict = {}

    # -- indexes -------------------------------------------------------

    def index(self, name: str):
        """The frozen replay index for tenant ``name`` (built once)."""
        index = self._frozen.get(name)
        if index is None:
            from repro import FairHMSIndex

            index = FairHMSIndex(_dataset(self.tenants[name]))
            self._frozen[name] = index
        return index

    def live_index(self, name: str):
        """A fresh live replay index for tenant ``name``."""
        from repro import LiveFairHMSIndex

        return LiveFairHMSIndex(_dataset(self.tenants[name]))

    @staticmethod
    def solve(index, op: Op):
        if op.lower is None:
            return index.query(op.k, alpha=ALPHA)
        return index.query(constraint=_constraint(op))

    # -- checks --------------------------------------------------------

    def _fail(self, op: Op, why: str) -> None:
        self.mismatches += 1
        if len(self.problems) < 10:
            self.problems.append(f"{op.kind} {op.dataset} k={op.k}: {why}")

    def check_answer(self, op: Op, answer: dict, solution) -> bool:
        """Compare one served query answer with the replay's solution."""
        expected = answer_payload(solution)
        for name in ("ids", "mhr_estimate", "group_counts", "size"):
            if answer.get(name) != expected[name]:
                self._fail(op, f"{name} {answer.get(name)!r} != {expected[name]!r}")
                return False
        bounds = solution.constraint
        counts = np.asarray(expected["group_counts"])
        if op.lower is not None and (
            tuple(bounds.lower) != op.lower or tuple(bounds.upper) != op.upper
        ):
            self._fail(op, "answered a different constraint")
            return False
        if (
            expected["size"] != op.k
            or (counts < bounds.lower).any()
            or (counts > bounds.upper).any()
        ):
            self._fail(op, f"group counts {counts.tolist()} break the bounds")
            return False
        return True

    def _score(self, index, dataset: str, version: int, solution) -> float:
        """MHR of ``solution`` against ``index``'s data at ``version``."""
        key = (dataset, version, tuple(int(v) for v in solution.ids))
        value = self._scores.get(key)
        if value is None:
            held = self._evaluators.get(dataset)
            if held is None or held[0] != version:
                held = (version, _evaluator(index.dataset.points))
                self._evaluators[dataset] = held
            value = self._scores[key] = float(held[1].evaluate(solution.points).value)
        return value

    def check_frozen(self, records) -> None:
        """Check every query record against the frozen replay.

        A record that fails a check gets ``error = "mismatch"``.
        """
        solutions: dict = {}
        for rec in records:
            if rec.answer is None:
                continue
            op = rec.op
            index = self.index(op.dataset)
            key = (op.dataset, op.k, op.lower, op.upper)
            solution = solutions.get(key)
            if solution is None:
                solution = solutions[key] = self.solve(index, op)
            if self.check_answer(op, rec.answer, solution):
                self.mhr.append(self._score(index, op.dataset, 0, solution))
            else:
                rec.error = "mismatch"

    def check_owned(self, records) -> None:
        """Replay one live-write client's ops in order and check each.

        Only acknowledged writes are applied to the replay.
        """
        live = None
        for rec in records:
            op = rec.op
            if live is None:
                live = self.live_index(op.dataset)
            if op.kind != "query":
                if rec.answer is not None:
                    if op.kind == "insert":
                        live.insert(op.key, op.point, op.group)
                    else:
                        live.delete(op.key)
                    if not self._check_ack(op, rec.answer, live.version):
                        rec.error = "mismatch"
                continue
            if rec.answer is None:
                continue
            solution = self.solve(live, op)
            if self.check_answer(op, rec.answer, solution):
                self.mhr.append(self._score(live, op.dataset, live.version, solution))
            else:
                rec.error = "mismatch"

    def _check_ack(self, op: Op, ack: dict, version: int) -> bool:
        if ack.get("applied") != op.kind or ack.get("version") != version:
            self._fail(op, f"ack {ack!r}, replay at version {version}")
            return False
        return True


def check_group(workload_name: str, records: list) -> tuple:
    """Check one independent group of records.

    Returns each record's error (``None`` when it passed), the MHR
    scores and the oracle's problem notes.
    """
    from streams import WORKLOADS

    workload = WORKLOADS[workload_name]
    oracle = Oracle(workload)
    if workload.shape == "owned":
        oracle.check_owned(records)
    else:
        oracle.check_frozen(records)
    return [r.error for r in records], oracle.mhr, oracle.problems


def _main(argv) -> int:
    """Checker process: ``python3 oracle.py <in> <out>``.

    ``<in>`` holds a pickled ``(workload name, groups)``, each group a
    list of ``(op, answer)`` pairs; ``<out>`` receives a pickled list
    with one :func:`check_group` result per group.
    """
    import pickle

    src, dst = argv
    with open(src, "rb") as fh:
        workload_name, groups = pickle.load(fh)
    results = [
        check_group(workload_name, [Record(op, 0.0, answer) for op, answer in group])
        for group in groups
    ]
    with open(dst, "wb") as fh:
        pickle.dump(results, fh)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main(sys.argv[1:]))
