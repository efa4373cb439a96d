"""Instance statistics the planner predicts cost from.

One :class:`InstanceStats` captures everything about a FairHMS query
instance that the cost model and the feedback estimators key on: the
solver-input size and shape (``n``, ``dim``, ``groups``), the query
(``k``, the interval-cover DP state count), how much of the per-dataset
artifact cache is already warm (the single biggest cost cliff — a cold
dataset builds a BiGreedy score matrix, or IntCov's envelope and tau
ladder), and the gateway queue depth at planning time.

Stats are plain frozen values: collecting them never mutates the index
or the artifacts, so planning is free to happen on any thread that
already holds the serving lock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.solve import DP_STATE_LIMIT, dp_state_count

__all__ = ["InstanceStats", "instance_stats"]


@dataclass(frozen=True)
class InstanceStats:
    """Everything the cost model may read about one query instance.

    ``dp_states`` is saturated at ``DP_STATE_LIMIT + 1`` (see
    :func:`repro.core.solve.dp_state_count`), so equality of two stats
    objects never depends on an astronomically large exact product.
    """

    dataset: str
    n: int  #: rows in the solver-input dataset (normally the skyline)
    dim: int
    groups: int
    k: int
    dp_states: int
    warm_geometry: bool  #: 2-D envelope cached
    warm_engines: int  #: truncated-MHR engines cached (BiGreedy family)
    queue_depth: int  #: requests waiting on this dataset at plan time

    def to_dict(self) -> dict:
        return asdict(self)


def instance_stats(
    skyline,
    constraint,
    *,
    dataset: str = "",
    artifacts=None,
    queue_depth: int = 0,
) -> InstanceStats:
    """Collect an :class:`InstanceStats` for one query instance.

    Args:
        skyline: the solver-input dataset (what the chosen algorithm
            will actually run over).
        constraint: the (constructed) fairness constraint, carrying
            ``k`` and the group bounds.
        dataset: the serving-layer name of the dataset (estimator key).
        artifacts: optional :class:`~repro.serving.SolverArtifacts`; when
            bound to ``skyline`` its cache state feeds the warm-artifact
            fields (a mismatched or absent cache reads as fully cold).
        queue_depth: requests currently queued on this dataset.
    """
    warm_geometry = False
    warm_engines = 0
    if artifacts is not None and artifacts.matches(skyline):
        # Apply staged invalidation first: an engine a live write dirtied
        # must read as cold, exactly as solve_fairhms would treat it.
        artifacts.flush_invalidations()
        warm_geometry = artifacts.cached_envelope() is not None
        warm_engines = len(artifacts.cached_engines())
    return InstanceStats(
        dataset=str(dataset),
        n=int(skyline.n),
        dim=int(skyline.dim),
        groups=int(skyline.num_groups),
        k=int(constraint.k),
        dp_states=min(dp_state_count(constraint), DP_STATE_LIMIT + 1),
        warm_geometry=warm_geometry,
        warm_engines=int(warm_engines),
        queue_depth=int(queue_depth),
    )
