"""Deterministic analytic cost model for the FairHMS solvers.

:func:`predict_cost` maps an :class:`~repro.planner.stats.InstanceStats`
and a concrete algorithm name to a predicted wall-clock cost in seconds.
The model is a calibrated asymptotic estimate, not a measurement — its
job is ordering, not accuracy:

* every recorded :class:`~repro.planner.plan.Plan` carries the predicted
  cost of the configuration it chose, so a decision is explainable after
  the fact;
* with **no observations** the planner never dispatches *on* these
  numbers — the cold path is exactly ``resolve_algorithm``'s static rule
  (see :class:`~repro.planner.plan.Planner`), so the analytic model can
  be re-calibrated freely without moving any answer.

Costs decompose into the dataset-level build a cold cache pays once
(IntCov's envelope + tau ladder, ``O(n log n)``; a BiGreedy
``(m, n)`` score matrix) and the per-solve work, scaled by constants
calibrated against the repo's own bench reports on commodity hardware.
Deterministic by construction: same stats, same numbers.
"""

from __future__ import annotations

import math

from ..core.bigreedy import default_net_size
from .stats import InstanceStats

__all__ = ["predict_cost", "predict_costs"]

# Calibration constants (seconds per unit of asymptotic work).  Order of
# magnitude from BENCH_serving/BENCH_server measurements: an n=1500 2-D
# cold geometry build lands around tens of milliseconds, a warm IntCov
# solve around a millisecond, a BiGreedy+ solve a few milliseconds.
_ENVELOPE_UNIT = 3.0e-7  # upper envelope + tau ladder, ~n log n
_SEARCH_UNIT = 1.5e-7  # tau-descent work per candidate per step
_MATRIX_UNIT = 6.0e-9  # (m, n) score-ratio matrix build
_GREEDY_UNIT = 2.5e-8  # greedy sweep work per direction per step
_FLOOR_S = 1.0e-5  # no solve is ever predicted below this


def _intcov_cost(stats: InstanceStats) -> float:
    n = max(1, stats.n)
    build = 0.0
    if not stats.warm_geometry:
        build = _ENVELOPE_UNIT * n * math.log2(n + 1)
    # Tau descent: ~log2(candidates) galloping steps, each scanning the
    # interval structure once per group bound.
    steps = math.log2(n + 1) + 1.0
    search = _SEARCH_UNIT * n * max(1, stats.groups) * steps
    return build + search


def _bigreedy_cost(stats: InstanceStats, *, eps: float, plus: bool) -> float:
    n = max(1, stats.n)
    m = default_net_size(max(1, stats.k), max(1, stats.dim))
    build = 0.0 if stats.warm_engines > 0 else _MATRIX_UNIT * m * n
    # Cap search: ~log(1/eps) bisection rounds, each running a greedy
    # sweep of k selections over the m-direction net; BiGreedy+ adds a
    # refinement pass on top (a constant-factor, not a new asymptotic).
    eps = min(max(float(eps), 1e-4), 1.0)
    rounds = math.log2(1.0 / eps) + 1.0
    sweep = _GREEDY_UNIT * m * max(1, stats.k) * rounds
    if plus:
        sweep *= 1.5
    return build + sweep


def predict_cost(stats: InstanceStats, algorithm: str, *, eps: float = 0.02) -> float:
    """Predicted wall-clock seconds for running ``algorithm`` on ``stats``.

    Raises:
        ValueError: for an unknown algorithm name.
    """
    if algorithm == "IntCov":
        cost = _intcov_cost(stats)
    elif algorithm == "BiGreedy":
        cost = _bigreedy_cost(stats, eps=eps, plus=False)
    elif algorithm == "BiGreedy+":
        cost = _bigreedy_cost(stats, eps=eps, plus=True)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return max(_FLOOR_S, cost)


def predict_costs(stats: InstanceStats, algorithms, *, eps: float = 0.02) -> dict:
    """``{algorithm: predicted seconds}`` for several candidates at once."""
    return {a: predict_cost(stats, a, eps=eps) for a in algorithms}
