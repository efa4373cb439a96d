"""BiGreedy+: adaptive net sizing (paper Section 4.3, Algorithm 4).

BiGreedy's cost is dominated by the net size ``m``; the theoretical
``O(delta^{-d})`` is far larger than needed in practice.  BiGreedy+ starts
from a small sample ``m_0``, doubles it until the successful cap value
stabilizes (``tau_{i-1} - tau_i < lambda``) or the budget ``M`` is reached,
and returns the best solution found across iterations (compared on the
final, finest net so estimates are consistent).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .._rng import ensure_rng, spawn_seeds
from ..data.dataset import Dataset
from ..fairness.constraints import FairnessConstraint
from ..geometry.deltanet import sample_directions
from ..hms.ratios import happiness_ratios
from ..hms.truncated import TruncatedEngine
from .bigreedy import bigreedy, default_net_size
from .solution import Solution

__all__ = ["bigreedy_plus"]


def bigreedy_plus(
    dataset: Dataset,
    constraint: FairnessConstraint,
    *,
    epsilon: float = 0.02,
    lam: float = 0.04,
    initial_size: int | None = None,
    max_size: int | None = None,
    mode: str = "feasible",
    extra_steps: int = 2,
    seed=None,
    artifacts=None,
) -> Solution:
    """Run BiGreedy+ (paper Algorithm 4).

    Args:
        dataset: input :class:`Dataset` (per-group skyline recommended).
        constraint: fairness bounds with solution size ``k``.
        epsilon: BiGreedy cap-search granularity (paper default 0.02).
        lam: stabilization threshold on consecutive cap values (paper
            default 0.04).
        initial_size: ``m_0``; defaults to ``0.05 * M`` as in Section 5.1.
        max_size: ``M``; defaults to the paper's practical ``10 k d``.
        mode / extra_steps / seed: forwarded to :func:`bigreedy`.
        artifacts: optional :class:`repro.serving.SolverArtifacts` bound to
            ``dataset``; caches the per-iteration nets and engines across
            calls keyed by ``(m_i, child_seed)``.  Results are bit-identical
            to the inline path for any given ``seed``.

    Returns:
        The best solution across doubling iterations, with stats recording
        the per-iteration net sizes and cap values.  ``stats["phases"]``
        sums every iteration's phases; fetching or building each
        iteration's engine counts as ``engine`` and the final net
        comparison as ``finalize``.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    rng = ensure_rng(seed)
    M = max_size or default_net_size(constraint.k, dataset.dim)
    m0 = initial_size or max(4, int(round(0.05 * M)))
    if m0 > M:
        raise ValueError(f"initial size {m0} exceeds the maximum size {M}")

    sizes: list[int] = []
    m = m0
    while True:
        sizes.append(m)
        if m >= M:
            break
        m = min(2 * m, M)
    child_seeds = spawn_seeds(rng, len(sizes))
    use_artifacts = artifacts is not None and artifacts.matches(dataset)

    solutions: list[Solution] = []
    taus: list[float] = []
    nets: list[np.ndarray] = []
    phases = {"engine": 0.0, "search": 0.0, "finalize": 0.0}
    for i, m_i in enumerate(sizes):
        t0 = perf_counter()
        if use_artifacts:
            engine = artifacts.engine(m_i, child_seeds[i])
        else:
            net = sample_directions(
                m_i, dataset.dim, np.random.default_rng(child_seeds[i])
            )
            engine = TruncatedEngine(dataset.points, net)
        phases["engine"] += perf_counter() - t0
        sol = bigreedy(
            dataset,
            constraint,
            epsilon=epsilon,
            engine=engine,
            mode=mode,
            extra_steps=extra_steps,
            algorithm_name="BiGreedy+",
        )
        for phase, seconds in sol.stats["phases"].items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        solutions.append(sol)
        nets.append(engine.net)
        tau_i = sol.stats.get("tau_success") or 0.0
        taus.append(float(tau_i))
        if i > 0 and abs(taus[i - 1] - taus[i]) < lam:
            break

    # Compare candidates on the finest net used, for a consistent estimate.
    t0 = perf_counter()
    final_net = nets[-1]
    D = dataset.points

    def net_mhr(sol: Solution) -> float:
        return float(happiness_ratios(sol.points, D, final_net).min())

    estimates = [net_mhr(s) for s in solutions]
    best_at = int(np.argmax(estimates))
    best = solutions[best_at]
    best.mhr_estimate = float(estimates[best_at])
    best.stats.update(
        {
            "iterations": len(solutions),
            "net_sizes": [int(s) for s in sizes[: len(solutions)]],
            "cap_values": taus,
            "chosen_iteration": best_at,
            "max_size": int(M),
            "lambda": float(lam),
        }
    )
    phases["finalize"] += perf_counter() - t0
    best.stats["phases"] = phases
    return best
