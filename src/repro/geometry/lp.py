"""Exact maximum-regret / minimum-happiness computation via linear programs.

The classic decomposition (Nanongkai et al., VLDB 2010): for a fixed subset
``S`` and a candidate best-response point ``q``,

    LP(q):  maximize x
            s.t.  <u, q> = 1
                  <u, p> + x <= 1     for every p in S
                  u >= 0

For any feasible ``(u, x)`` one has ``x <= rr(u) <= MRR``: at ``u`` the
best score in ``S`` is at most ``1 - x`` and the best in ``D`` at least
``q``'s score 1, so ``rr(u) >= 1 - (1 - x) / 1 = x``.  The maximizing
direction together with its true best point attains equality, so

    mrr(S, D) = max over q in maxima-candidates(D) of LP(q),

and ``mhr = 1 - mrr``.  Candidates can be restricted to skyline points that
are convex-hull vertices without losing exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_points
from .hull import maxima_candidates

__all__ = [
    "RegretResult",
    "max_regret_ratio_lp",
    "solve_regret_lp",
    "worst_direction_lp",
]


@dataclass(frozen=True)
class RegretResult:
    """Outcome of an exact max-regret computation.

    Attributes:
        value: the maximum regret ratio ``mrr(S, D)`` in ``[0, 1]``.
        direction: a unit direction attaining it (l2-normalized), or None
            when ``S`` already covers every direction perfectly.
        witness: index (into ``D``) of the best-response point at that
            direction.
    """

    value: float
    direction: np.ndarray | None
    witness: int | None


def solve_regret_lp(q: np.ndarray, S: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Solve LP(q); returns (x*, u*) or (-inf, None) if infeasible.

    ``x*`` is the largest regret any direction normalized to ``<u, q> = 1``
    can inflict on ``S``; ``u*`` is that direction (unnormalized).
    """
    # SciPy loads here, on the first exact LP, so code that never scores a
    # solution exactly (the serving stack) never pays for it.
    from scipy.optimize import linprog

    d = q.shape[0]
    c = np.zeros(d + 1)
    c[-1] = -1.0  # maximize x
    A_ub = np.hstack([S, np.ones((S.shape[0], 1))])
    b_ub = np.ones(S.shape[0])
    A_eq = np.concatenate([q, [0.0]])[None, :]
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * d + [(None, None)]
    result = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return float("-inf"), None
    return float(-result.fun), result.x[:d]


def max_regret_ratio_lp(S, D, *, candidates=None) -> RegretResult:
    """Exact ``mrr(S, D)`` over all nonnegative linear utilities.

    Args:
        S: the selected subset's points, shape ``(k, d)``.
        D: the database points, shape ``(n, d)``.
        candidates: optional index array into ``D`` restricting the
            best-response candidates (must contain every possible utility
            maximizer; defaults to :func:`maxima_candidates`).
    """
    D_arr = as_points(D, name="D")
    S_arr = np.asarray(S, dtype=np.float64)
    if S_arr.ndim != 2 or S_arr.shape[1] != D_arr.shape[1]:
        raise ValueError("S must be a 2-D array with the same dimension as D")
    if S_arr.shape[0] == 0:
        return RegretResult(value=1.0, direction=None, witness=None)
    if candidates is None:
        candidates = maxima_candidates(D_arr)
    candidates = np.asarray(candidates, dtype=np.int64)
    best_value = 0.0
    best_direction: np.ndarray | None = None
    best_witness: int | None = None
    for q_idx in candidates:
        value, direction = solve_regret_lp(D_arr[q_idx], S_arr)
        if value > best_value:
            best_value = value
            best_direction = direction
            best_witness = int(q_idx)
    if best_direction is not None:
        norm = np.linalg.norm(best_direction)
        if norm > 0:
            best_direction = best_direction / norm
    return RegretResult(
        value=float(min(max(best_value, 0.0), 1.0)),
        direction=best_direction,
        witness=best_witness,
    )


def worst_direction_lp(S, D, *, candidates=None) -> tuple[np.ndarray, float]:
    """Direction with the lowest happiness ratio for ``S`` and that ratio.

    Falls back to the all-ones direction when ``S`` is optimal everywhere
    (mrr = 0), so callers always receive a usable direction.
    """
    result = max_regret_ratio_lp(S, D, candidates=candidates)
    if result.direction is None:
        D_arr = as_points(D, name="D")
        direction = np.ones(D_arr.shape[1]) / np.sqrt(D_arr.shape[1])
        return direction, 1.0 - result.value
    return result.direction, 1.0 - result.value
