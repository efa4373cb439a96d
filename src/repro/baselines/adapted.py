"""Fair adaptations of the unconstrained baselines (paper Section 5.1).

Two adaptation schemes are evaluated in the paper:

* ``G-<name>``: split the budget ``k`` into per-group quotas ``k_c`` within
  ``[l_c, h_c]``, run the unconstrained baseline once per group on that
  group's tuples, and return the union.  Cheap, trivially fair, but the
  per-group runs are blind to each other, so the union carries redundant
  tuples — the quality gap behind Figures 5-7.
* ``F-Greedy``: the matroid greedy of El Halabi et al. applied directly to
  the MHR objective — each step adds the point maximizing ``mhr(S + p)``
  among the groups the fairness matroid still accepts.  The paper evaluates
  marginals with exact linear programs; we default to the exact 2-D sweep
  when ``d = 2`` and a dense evaluation net otherwise, with
  ``marginals="lp"`` restoring the paper's exact variant (see
  docs/ALGORITHMS.md, "Substitutions", item 3).
"""

from __future__ import annotations

import numpy as np

from ..core.bigreedy import default_net_size
from ..core.solution import Solution
from ..data.dataset import Dataset
from ..fairness.constraints import FairnessConstraint
from ..fairness.matroid import FairnessMatroid
from ..geometry.deltanet import sample_directions
from ..geometry.envelope import upper_envelope
from ..geometry.hull import maxima_candidates
from ..hms.exact import mhr_exact, mhr_exact_2d_with_env
from ..hms.truncated import TruncatedEngine
from .dmm import dmm
from .greedy import rdp_greedy
from .hs import hitting_set
from .sphere import sphere

__all__ = [
    "split_quota",
    "adapt_per_group",
    "f_greedy",
    "BASELINES",
    "FAIR_BASELINES",
]

#: The unconstrained baselines, keyed by their paper names.
BASELINES = {
    "Greedy": rdp_greedy,
    "DMM": dmm,
    "Sphere": sphere,
    "HS": hitting_set,
}


def split_quota(constraint: FairnessConstraint, group_sizes) -> np.ndarray:
    """Per-group solution sizes ``k_c`` for the ``G-*`` adaptations.

    Starts every group at its lower bound and distributes the remaining
    budget by largest proportional remainder, never exceeding ``h_c`` or
    the group's population.
    """
    sizes = np.asarray(group_sizes, dtype=np.int64)
    if not constraint.is_feasible_for(sizes):
        raise ValueError("constraint infeasible for these group sizes")
    quota = constraint.lower.astype(np.int64).copy()
    capacity = np.minimum(constraint.upper, sizes)
    remaining = constraint.k - int(quota.sum())
    shares = sizes / sizes.sum()
    while remaining > 0:
        room = capacity - quota
        eligible = np.nonzero(room > 0)[0]
        # Largest-remainder: most underfilled relative to proportional share.
        deficit = shares[eligible] * constraint.k - quota[eligible]
        pick = int(eligible[int(np.argmax(deficit))])
        quota[pick] += 1
        remaining -= 1
    return quota


def adapt_per_group(
    base_name: str,
    dataset: Dataset,
    constraint: FairnessConstraint,
    **kwargs,
) -> Solution:
    """Run ``G-<base_name>``: the per-group union adaptation.

    Raises:
        ValueError: when the base algorithm cannot run at some group's
            quota (e.g. DMM/Sphere need ``k_c >= d``) — matching the paper,
            where those series are simply absent.
    """
    if base_name not in BASELINES:
        raise ValueError(f"unknown baseline {base_name!r}")
    base = BASELINES[base_name]
    quota = split_quota(constraint, dataset.group_sizes)
    union: list[int] = []
    for c in range(dataset.num_groups):
        k_c = int(quota[c])
        if k_c == 0:
            continue
        rows = dataset.group_indices(c)
        sub = dataset.subset(rows)
        local = base(sub, k_c, **kwargs)
        union.extend(int(rows[i]) for i in local.indices)
    return Solution(
        indices=np.asarray(sorted(union), dtype=np.int64),
        dataset=dataset,
        algorithm=f"G-{base_name}",
        constraint=constraint,
        stats={"quota": quota.tolist()},
    )


def _marginal_values_net(engine, best, candidates):
    """min-ratio of S+p per candidate, vectorized on the evaluation net."""
    cols = np.maximum(engine.ratios[:, candidates], best[:, None])
    return cols.min(axis=0)


def f_greedy(
    dataset: Dataset,
    constraint: FairnessConstraint,
    *,
    marginals: str = "auto",
    net_factor: int = 4,
    seed: int = 0,
) -> Solution:
    """F-Greedy: matroid greedy on the exact(-estimated) MHR objective.

    Args:
        dataset: input dataset (per-group skyline recommended).
        constraint: fairness bounds with solution size ``k``.
        marginals: ``"auto"`` (exact sweep in 2-D, dense net otherwise),
            ``"sweep"`` (force 2-D exact), ``"net"`` (force net), or
            ``"lp"`` (the paper's exact LPs; slow, small inputs only).
        net_factor: evaluation-net size multiplier over BiGreedy's default
            ``10 k d`` (the finer estimate is what lets F-Greedy edge out
            BiGreedy at large ``k`` in some panels, as in the paper).
        seed: net-sampling seed.
    """
    if marginals not in ("auto", "sweep", "net", "lp"):
        raise ValueError(f"invalid marginals mode {marginals!r}")
    if not constraint.is_feasible_for(dataset.group_sizes):
        raise ValueError("fairness constraint infeasible for this dataset")
    if marginals == "auto":
        marginals = "sweep" if dataset.dim == 2 else "net"
    if marginals == "sweep" and dataset.dim != 2:
        raise ValueError("the sweep marginal evaluator requires d = 2")

    points = dataset.points
    matroid = FairnessMatroid(constraint, dataset.labels)
    counts = np.zeros(dataset.num_groups, dtype=np.int64)
    selected: list[int] = []

    engine = None
    best = None
    lp_candidates = None
    env_d = None
    if marginals == "net":
        m = net_factor * default_net_size(constraint.k, dataset.dim)
        net = sample_directions(m, dataset.dim, seed)
        engine = TruncatedEngine(points, net)
        best = np.zeros(engine.m)
    elif marginals == "lp":
        lp_candidates = maxima_candidates(points)
    elif marginals == "sweep":
        env_d = upper_envelope(points)

    while True:
        addable = matroid.addable_groups(counts)
        if addable.size == 0:
            break
        addable_mask = np.zeros(dataset.num_groups, dtype=bool)
        addable_mask[addable] = True
        in_sel = np.zeros(dataset.n, dtype=bool)
        if selected:
            in_sel[np.asarray(selected, dtype=np.int64)] = True
        candidates = np.nonzero(addable_mask[dataset.labels] & ~in_sel)[0]
        if candidates.size == 0:
            break
        if marginals == "net":
            values = _marginal_values_net(engine, best, candidates)
        elif marginals == "sweep":
            values = np.array(
                [
                    mhr_exact_2d_with_env(points[selected + [int(c)]], env_d)
                    for c in candidates
                ]
            )
        else:  # lp
            values = np.array(
                [
                    mhr_exact(
                        points[selected + [int(c)]],
                        points,
                        candidates=lp_candidates,
                    )
                    for c in candidates
                ]
            )
        pick = int(candidates[int(np.argmax(values))])
        selected.append(pick)
        counts[dataset.labels[pick]] += 1
        if marginals == "net":
            best = np.maximum(best, engine.ratios[:, pick])
    return Solution(
        indices=np.asarray(sorted(selected), dtype=np.int64),
        dataset=dataset,
        algorithm="F-Greedy",
        constraint=constraint,
        stats={"marginals": marginals},
    )


def _make_group_adapter(name):
    def run(dataset: Dataset, constraint: FairnessConstraint, **kwargs) -> Solution:
        return adapt_per_group(name, dataset, constraint, **kwargs)

    run.__name__ = f"g_{name.lower()}"
    run.__doc__ = f"G-{name}: per-group adaptation of {name} (see adapt_per_group)."
    return run


#: Fairness-aware baselines, keyed by their paper names.
FAIR_BASELINES = {
    "G-Greedy": _make_group_adapter("Greedy"),
    "G-DMM": _make_group_adapter("DMM"),
    "G-Sphere": _make_group_adapter("Sphere"),
    "G-HS": _make_group_adapter("HS"),
    "F-Greedy": f_greedy,
}
