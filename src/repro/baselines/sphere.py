"""Sphere: the epsilon-kernel RMS algorithm (Xie et al., SIGMOD 2018).

Reproduced at the level the paper's evaluation exercises (see
docs/ALGORITHMS.md, "Substitutions", item 4): Sphere first takes the ``d`` "boundary" points — the best
point per dimension — then fills the remaining ``k - d`` slots with the
best response to directions spread evenly over ``S^{d-1}_+`` (the
construction behind its epsilon-kernel guarantee).  Its signature behaviour
in the paper — the fastest baseline, weak when ``k`` is close to ``d``
because the solution is mostly extreme points — follows directly.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int
from ..core.solution import Solution
from ..data.dataset import Dataset
from ..geometry.deltanet import grid_directions_2d, sample_directions
from .base import make_solution, pad_unconstrained

__all__ = ["sphere"]


def sphere(
    dataset: Dataset,
    k: int,
    *,
    oversample: int = 8,
    seed: int = 0,
) -> Solution:
    """Run Sphere for size ``k`` (unconstrained).

    Args:
        dataset: input dataset (skyline recommended).
        k: solution size; Sphere requires ``k >= d`` (the boundary points
          alone need ``d`` slots), as in the paper where results are
          omitted otherwise.
        oversample: how many candidate directions per remaining slot; more
            directions give better coverage of the sphere at linear cost.
        seed: direction-sampling seed for ``d > 2``.
    """
    k = check_positive_int(k, name="k")
    if k > dataset.n:
        raise ValueError(f"k={k} exceeds dataset size {dataset.n}")
    if k < dataset.dim:
        raise ValueError(f"Sphere requires k >= d (k={k}, d={dataset.dim})")
    points = dataset.points
    # Step 1: boundary (extreme) points, one per dimension.
    selected: list[int] = []
    for j in range(dataset.dim):
        best = int(np.argmax(points[:, j]))
        if best not in selected:
            selected.append(best)
    # Step 2: best responses to evenly spread directions.
    remaining = k - len(selected)
    if remaining > 0:
        m = max(remaining * oversample, remaining)
        if dataset.dim == 2:
            directions = grid_directions_2d(m)
        else:
            directions = sample_directions(m, dataset.dim, seed)
        responses = np.asarray((directions @ points.T).argmax(axis=1))
        # Keep first occurrences in direction order until the budget fills.
        for idx in responses:
            if int(idx) not in selected:
                selected.append(int(idx))
                if len(selected) == k:
                    break
    full = pad_unconstrained(selected, dataset, k)
    return make_solution(
        full, dataset, "Sphere", stats={"boundary_points": int(dataset.dim)}
    )
