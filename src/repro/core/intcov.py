"""IntCov: the exact two-dimensional FairHMS algorithm (paper Section 3).

Pipeline (Algorithm 1):

1. The optimal MHR is one of the values in ``H``: the happiness ratios of
   single points at the axis directions and of point pairs at the
   direction where their scores tie ([Asudeh et al. 2017, Theorem 2]
   adapted to happiness ratios).  :func:`candidate_mhr_values` lists all
   ``O(n^2)`` of them; the search never does.
2. Find the largest ``tau in H`` for which the decision problem — *is
   there a fair size-k set with mhr >= tau?* — answers yes, holding
   ``O(n)`` members of ``H`` in expectation — the ladder, and the part of
   ``H`` between two of its random samples (:class:`TauLadder`):

   a. **ladder** — the ``2n`` axis values plus the values of ``~n``
      seeded random pairs, sorted and deduplicated;
   b. **bracket** — binary-search the ladder down to adjacent rungs
      ``tau_a`` (feasible) ``< tau_b`` (infeasible);
   c. **list** ``H`` strictly between them: a pair's value lies in the
      bracket iff its tie direction lies in both points' lost flanks
      ``I_tau_a(p) \\ I_tau_b(p)``, so sorting the ``<= 2n`` flanks and
      joining the overlapping ones yields every such pair in
      ``O(n log n + joined pairs)``; each is priced exactly and kept when
      its value falls strictly inside;
   d. binary-search the listed values.

   This is the sample-then-list idea of randomized slope selection
   (Matoušek, IPL 1991).  Every value is computed with the same float
   expression :func:`candidate_mhr_values` uses, and the cover is a
   function of ``tau`` alone, so answers are bit-identical to binary
   search over the full ``H``.
3. Decide each ``tau`` by reducing to fair interval cover: a point helps at
   the directions where its score line clears ``tau`` times the upper
   envelope, a single sub-interval of ``[0, 1]``; a fair set of intervals
   must cover ``[0, 1]`` (Algorithm 2, :mod:`repro.core.intervalcover`).
4. Pad the covering set to exactly ``k`` respecting the group bounds (the
   fairness matroid guarantees a completion exists).
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter

import numpy as np

from ..data.dataset import Dataset
from ..fairness.constraints import FairnessConstraint
from ..fairness.matroid import FairnessMatroid
from ..geometry.envelope import _EPS as _PASS_EPS
from ..geometry.envelope import Envelope, tau_intervals_bulk, upper_envelope
from ..hms.exact import mhr_exact_2d_with_env
from .intervalcover import GroupIntervals, fair_interval_cover
from .solution import Solution

__all__ = ["TauLadder", "intcov", "candidate_mhr_values"]

_PAIR_BLOCK = 512  # pairwise candidate enumeration block size (memory bound)
_VALUE_TOL = 1e-12  # candidate filter: keep values in [0, 1 + _VALUE_TOL]
_LADDER_SEED = 2208_06553  # fixed: moves decision counts, never answers
# Flanks are widened by a margin in ratio space and a pad in lambda, so a
# pair whose priced value lies inside the bracket is always joined, even
# where an interval endpoint is ill-conditioned (a score line nearly
# parallel to tau times the envelope).
_FLANK_MARGIN = 1e-9
_FLANK_PAD = 1e-9
_BRACKETS_KEPT = 64  # listed brackets cached per ladder (LRU)
_JOIN_BLOCK = 1 << 18  # flank pairs priced per slice of the join


def _axis_values(x: np.ndarray, y: np.ndarray, envelope: Envelope) -> np.ndarray:
    """Every point's happiness ratio at the two axis directions."""
    return np.concatenate([y / envelope.value(0.0), x / envelope.value(1.0)])


def _pair_values(
    y: np.ndarray,
    slope: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    envelope: Envelope,
) -> np.ndarray:
    """The common happiness ratio of each pair ``(rows[i], cols[i])``.

    ``rows < cols`` elementwise: the lower index's score line is the one
    evaluated at the tie direction.  Pairs whose scores tie outside
    ``[0, 1]`` (or never) contribute nothing.  This is the one float
    expression for a member of ``H``; the enumeration and the bracket
    listing both call it, which keeps their values bit-identical.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (y[cols] - y[rows]) / (slope[rows] - slope[cols])
    valid = (lam >= 0.0) & (lam <= 1.0) & np.isfinite(lam)
    rows, lam = rows[valid], lam[valid]
    return (y[rows] + slope[rows] * lam) / np.asarray(envelope.value(lam))


def _admit(values: np.ndarray) -> np.ndarray:
    """Drop values outside ``[0, 1 + _VALUE_TOL]``; clip the rest to [0, 1]."""
    values = values[(values >= 0.0) & (values <= 1.0 + _VALUE_TOL)]
    return np.clip(values, 0.0, 1.0)


def candidate_mhr_values(points: np.ndarray, envelope: Envelope | None = None) -> np.ndarray:
    """All possible optimal-MHR values ``H`` (ascending, deduplicated).

    For each point, its happiness ratio at the two axis directions; for
    each pair of points, their common happiness ratio at the direction
    where their scores tie (when that direction is nonnegative).  The
    optimum of FairHMS always equals one of these ``O(n^2)`` values.
    IntCov never materializes this array; it is the reference its search
    is tested against.
    """
    if envelope is None:
        envelope = upper_envelope(points)
    x = points[:, 0]
    y = points[:, 1]
    slope = x - y
    chunks = [_axis_values(x, y, envelope)]
    n = points.shape[0]
    for start in range(0, n, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        # Pairs (i, j) with i in [start, stop) and j > i.
        upper = np.arange(n)[None, :] > np.arange(start, stop)[:, None]
        rows, cols = np.nonzero(upper)
        chunks.append(_pair_values(y, slope, rows + start, cols, envelope))
    return np.unique(_admit(np.concatenate(chunks)))


class TauLadder:
    """A sorted sample of ``H`` (the rungs), the exact ``H`` between rungs,
    and IntCov's interval pass.

    The ladder owns the bounded pass (:meth:`intervals`): each point's
    *peak ratio*, computed once here, bounds the happiness ratio it can
    reach anywhere on ``[0, 1]``, so a pass at ``tau`` runs
    :func:`tau_intervals_bulk` only over the points whose peak can clear
    ``tau`` — at the ``tau`` the search probes, a few percent of them.

    Depends only on the points and their envelope — never on a
    constraint — so the serving layer keeps one per skyline beside the
    envelope (:meth:`repro.serving.SolverArtifacts.tau_ladder`) and every
    query reuses its rungs, peak ratios and listed brackets.
    """

    def __init__(self, points: np.ndarray, envelope: Envelope) -> None:
        self._points = points
        self._envelope = envelope
        x = points[:, 0]
        self._y = points[:, 1]
        self._slope = x - self._y
        n = points.shape[0]
        rng = np.random.default_rng(_LADDER_SEED)
        i = rng.integers(0, n, size=n)
        j = rng.integers(0, n, size=n)
        distinct = i != j
        rows = np.minimum(i, j)[distinct]
        cols = np.maximum(i, j)[distinct]
        sampled = _pair_values(self._y, self._slope, rows, cols, envelope)
        self.rungs = np.unique(
            _admit(np.concatenate([_axis_values(x, self._y, envelope), sampled]))
        )
        # Peak ratio: each point's largest f_p / env over the envelope's
        # piece endpoints.  On a piece env is linear, so where it is
        # positive f_p / env is linear-fractional, hence monotone, and the
        # endpoint maximum is the point's best ratio over [0, 1].  Each
        # piece is evaluated with its own line at its own ends, the values
        # the pass compares against; an end where env is 0 bounds nothing.
        ends = np.concatenate([envelope.breaks[:-1], envelope.breaks[1:]])
        lines = np.concatenate([envelope.lines, envelope.lines])
        env_at = lines[:, 0] * ends + lines[:, 1]
        scores = self._slope[:, None] * ends + self._y[:, None]
        self.peak = np.divide(
            scores, env_at, out=np.full(scores.shape, np.inf), where=env_at > 0.0
        ).max(axis=1)
        # Margin, from the pass's own tolerances (eps = 1e-12 in lam and in
        # beta).  Write s_p, m_t for the slopes of point p and of piece t
        # on [a_t, b_t], and g = alpha * lam + beta = f_p - tau * env_t.
        # The pass marks p feasible only if, on some piece,
        #   |alpha| <= eps and beta >= -eps:  g(a_t) >= -2 eps;
        #   alpha > eps, crossing <= b_t + eps:  g(b_t) >= -|alpha| eps;
        #   alpha < -eps, crossing >= a_t - eps:  g(a_t) >= -|alpha| eps;
        # with |alpha| <= |s_p| + |m_t|.  So at an endpoint lam* of that
        # piece f_p - tau * env_t >= -K, K = eps (2 + max|s| + max|m|) plus
        # rounding: alpha, beta, the crossing and the quotients above each
        # err by a few ulps of the largest line coefficient (8 covers
        # them).  Dividing by env_t(lam*) >= env_min (itself less its
        # rounding) gives peak_p >= tau - K / env_min: a point below that
        # reaches tau nowhere, and skipping it changes no answer.  Four
        # ulps more cover the quotient and the subtraction tau - margin.
        # Where env_min is 0 the margin is +inf and every row is kept.
        ulp = np.finfo(np.float64).eps
        slopes = np.abs(self._slope).max() + np.abs(envelope.lines[:, 0]).max()
        scale = slopes + self._y.max() + np.abs(envelope.lines[:, 1]).max()
        k_bound = _PASS_EPS * (2.0 + slopes) + 8.0 * ulp * scale
        env_min = max(env_at.min() - 2.0 * ulp * scale, 0.0)
        with np.errstate(divide="ignore"):
            self._margin = np.float64(k_bound) / env_min + 4.0 * ulp
        self._brackets: OrderedDict[int, np.ndarray] = OrderedDict()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the rungs, slopes, peak ratios and brackets."""
        return int(
            self.rungs.nbytes
            + self._slope.nbytes
            + self.peak.nbytes
            + sum(values.nbytes for values in list(self._brackets.values()))
        )

    def intervals(self, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`tau_intervals_bulk` at ``tau``, run only where it can pass.

        Returns full-length ``(lo, hi, ok)`` over the ladder's points.  The
        pass runs over the rows whose peak ratio reaches ``tau`` less the
        margin, in ascending order; a skipped row would fail the full pass
        too, and every row's arithmetic is independent of the others, so
        ``ok`` equals the full pass's and ``lo``/``hi`` are bit-identical
        wherever ``ok``.  Skipped rows read ``(0, 0, False)``.
        """
        n = self._points.shape[0]
        rows = np.flatnonzero(self.peak >= tau - self._margin)
        if rows.size == n:  # low tau: no gather, no scatter
            return tau_intervals_bulk(self._points, self._envelope, tau)
        lo, hi, ok = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
        lo[rows], hi[rows], ok[rows] = tau_intervals_bulk(
            self._points.take(rows, axis=0), self._envelope, tau
        )
        return lo, hi, ok

    def bracket(self, rank: int) -> np.ndarray:
        """``H`` strictly between ``rungs[rank]`` and ``rungs[rank + 1]``.

        ``rank = -1`` opens the lower side and ``rank = len(rungs) - 1``
        the upper one.  Ascending and deduplicated; cached per rank.
        """
        listed = self._brackets.get(rank)
        if listed is None:
            listed = self._list(rank)
            self._brackets[rank] = listed
            while len(self._brackets) > _BRACKETS_KEPT:
                self._brackets.popitem(last=False)
        else:
            self._brackets.move_to_end(rank)
        return listed

    def _list(self, rank: int) -> np.ndarray:
        n = self._points.shape[0]
        tau_a = float(self.rungs[rank]) if rank >= 0 else None
        tau_b = float(self.rungs[rank + 1]) if rank + 1 < self.rungs.size else None
        if tau_a is not None and tau_a >= 1.0:
            return np.empty(0)  # admitted values never exceed 1
        # Outer intervals: where a point's ratio reaches tau_a (less the
        # margin); inner: where it reaches tau_b (plus the margin).  The
        # flank a point loses between them holds every tie direction at
        # which its ratio lies inside the bracket.
        if tau_a is None or tau_a - _FLANK_MARGIN <= 0.0:
            lo_a, hi_a, ok_a = np.zeros(n), np.ones(n), np.ones(n, dtype=bool)
        else:
            lo_a, hi_a, ok_a = self.intervals(tau_a - _FLANK_MARGIN)
        if tau_b is None or tau_b + _FLANK_MARGIN > 1.0:
            lo_b = hi_b = np.zeros(n)
            ok_b = np.zeros(n, dtype=bool)
        else:
            lo_b, hi_b, ok_b = self.intervals(tau_b + _FLANK_MARGIN)
        # A point whose inner interval is empty lost all of its outer one;
        # otherwise it lost a left and a right flank.
        whole = np.nonzero(ok_a & ~ok_b)[0]
        split = np.nonzero(ok_a & ok_b)[0]
        left = (lo_a[split], lo_b[split])
        right = (hi_b[split], hi_a[split])
        flank_lo = np.concatenate([lo_a[whole], np.minimum(*left), np.minimum(*right)])
        flank_hi = np.concatenate([hi_a[whole], np.maximum(*left), np.maximum(*right)])
        owner = np.concatenate([whole, split, split])
        # A zero-width flank lost nothing: at that direction the point's
        # ratio already clears tau_b, or never reaches tau_a (both ends
        # clipped to 0 or 1 is the common case, and it would otherwise
        # join every point with every other).
        lost = flank_hi > flank_lo
        flank_lo = flank_lo[lost] - _FLANK_PAD
        flank_hi = flank_hi[lost] + _FLANK_PAD
        owner = owner[lost]
        order = np.argsort(flank_lo, kind="stable")
        flank_lo, flank_hi, owner = flank_lo[order], flank_hi[order], owner[order]
        # Overlap join: flank f meets every later flank that starts
        # before f ends.  Joined in slices of at most _JOIN_BLOCK pairs, so
        # memory stays bounded where many flanks coincide (duplicates).
        first_after = np.arange(1, flank_lo.size + 1)
        counts = np.maximum(
            np.searchsorted(flank_lo, flank_hi, side="right") - first_after, 0
        )
        joined_before = np.cumsum(counts) - counts
        inside = [np.empty(0)]
        start = 0
        while start < flank_lo.size:
            stop = max(
                start + 1,
                int(np.searchsorted(joined_before, joined_before[start] + _JOIN_BLOCK)),
            )
            c = counts[start:stop]
            f = np.repeat(np.arange(start, stop), c)
            g = (
                np.arange(f.size)
                - np.repeat(joined_before[start:stop] - joined_before[start], c)
                + np.repeat(first_after[start:stop], c)
            )
            p, q = owner[f], owner[g]
            distinct = p != q
            p, q = p[distinct], q[distinct]
            rows, cols = np.minimum(p, q), np.maximum(p, q)
            values = _admit(
                _pair_values(self._y, self._slope, rows, cols, self._envelope)
            )
            # Axis values are all rungs, so only pairs lie strictly inside.
            keep = np.ones(values.shape[0], dtype=bool)
            if tau_a is not None:
                keep &= values > tau_a
            if tau_b is not None:
                keep &= values < tau_b
            inside.append(values[keep])
            start = stop
        return np.unique(np.concatenate(inside))


class _Search:
    """Largest feasible value of one ascending array, in any probe order.

    Feasibility is monotone in ``tau``, so each probe narrows the live
    range ``[lo, hi]``; any order that empties it ends on the same value.
    ``best`` is ``(tau, cover)`` of the largest feasible value probed.
    """

    def __init__(self, values: np.ndarray, decide) -> None:
        self.values = values
        self._decide = decide
        self.lo = 0
        self.hi = int(values.shape[0]) - 1
        self.best: tuple[float, list[int]] | None = None

    def probe(self, rank: int) -> bool:
        tau = float(self.values[rank])
        cover = self._decide(tau)
        if cover is None:
            self.hi = rank - 1
            return False
        self.best = (tau, cover)
        self.lo = rank + 1
        return True

    def gallop(self, start: int) -> None:
        """Probe ``start``, then double the step away from it.

        When ``start`` is the optimum this certifies it in two probes
        (it is feasible, its successor is not); near the optimum the
        bracket closes in ``O(log(rank distance))`` probes.
        """
        if self.probe(start):
            step = 1
            while self.lo <= self.hi:
                if not self.probe(min(start + step, self.hi)):
                    break
                step *= 2
        else:
            step = 1
            while self.lo <= self.hi:
                if self.probe(max(start - step, self.lo)):
                    break
                step *= 2

    def bisect(self) -> None:
        while self.lo <= self.hi:
            self.probe((self.lo + self.hi) // 2)


def _search(ladder: TauLadder, decide, tau_hint: float | None):
    """The largest feasible member of ``H`` as ``(tau, cover)``, or None.

    Also returns how many listed values the search held beside the rungs.
    """
    rungs = ladder.rungs
    steps = _Search(rungs, decide)
    listed = 0
    if tau_hint is not None and rungs.size:
        # List the hint's own bracket first and gallop from the hint's
        # rank in it.  Rung, listed values and next rung are consecutive
        # members of H, so a hint that is the optimum is certified in two
        # probes: it is feasible and its successor is not.
        r = int(np.searchsorted(rungs, tau_hint, side="right")) - 1
        r = min(max(r, 0), rungs.size - 1)
        near_listed = ladder.bracket(r)
        listed += near_listed.shape[0]
        near = _Search(
            np.concatenate([rungs[r : r + 1], near_listed, rungs[r + 1 : r + 2]]),
            decide,
        )
        after = int(np.searchsorted(near.values, tau_hint, side="right"))
        near.gallop(min(max(after - 1, 0), near.hi))
        near.bisect()
        if near.lo == near.values.shape[0] and r + 1 < rungs.size:
            # Rung r + 1 is feasible: the optimum lies above this bracket.
            steps.lo, steps.best = r + 2, near.best
            if steps.lo <= steps.hi:
                steps.gallop(steps.lo)
        elif near.hi < 0:
            # Rung r is infeasible: the optimum lies below it.
            steps.hi = r - 1
            if steps.lo <= steps.hi:
                steps.gallop(steps.hi)
        else:
            return near.best, listed
    steps.bisect()
    final = _Search(ladder.bracket(steps.lo - 1), decide)
    listed += final.values.shape[0]
    final.bisect()
    return (final.best if final.best is not None else steps.best), listed


def _intervals_by_group(
    ladder: TauLadder,
    tau: float,
    group_masks: list[np.ndarray],
) -> list[GroupIntervals]:
    """Compute ``I_tau(p)`` for every point that reaches ``tau``, by group.

    The ladder's bounded pass (:meth:`TauLadder.intervals`) feeds masked
    slices straight into :meth:`GroupIntervals.from_arrays`.  Within each
    group the points keep ascending index order, so the resulting interval
    indexes — and every cover computed from them — are bit-identical to
    the scalar construction.
    """
    lo, hi, ok = ladder.intervals(tau)
    buckets: list[GroupIntervals] = []
    for mask in group_masks:
        sel = np.nonzero(ok & mask)[0]
        buckets.append(GroupIntervals.from_arrays(lo[sel], hi[sel], sel))
    return buckets


def _pad_to_k(
    selected: list[int],
    dataset: Dataset,
    constraint: FairnessConstraint,
) -> list[int]:
    """Extend a partial fair-independent selection to exactly ``k`` tuples.

    Adds the highest-coordinate-sum unused tuples group by group, filling
    lower-bound deficits first (the order the fairness matroid's completion
    routine prescribes).
    """
    matroid = FairnessMatroid(constraint, dataset.labels)
    counts = np.bincount(
        dataset.labels[np.asarray(selected, dtype=np.int64)]
        if selected
        else np.empty(0, dtype=np.int64),
        minlength=constraint.num_groups,
    )
    order = matroid.completion_groups(counts)
    chosen = set(selected)
    result = list(selected)
    sums = dataset.points.sum(axis=1)
    for group in order:
        members = dataset.group_indices(group)
        members = members[np.argsort(-sums[members], kind="stable")]
        for idx in members:
            if int(idx) not in chosen:
                chosen.add(int(idx))
                result.append(int(idx))
                break
        else:
            raise ValueError(
                f"group {group} has too few tuples to satisfy the constraint"
            )
    return result


def intcov(
    dataset: Dataset,
    constraint: FairnessConstraint,
    *,
    artifacts=None,
    tau_hint: float | None = None,
) -> Solution:
    """Exact FairHMS on a two-dimensional dataset (paper Algorithm 1).

    Args:
        dataset: a 2-D :class:`Dataset` (typically ``dataset.skyline()``;
            correctness does not require it, speed benefits from it).
        constraint: group bounds with ``constraint.k`` the solution size.
        artifacts: optional :class:`repro.serving.SolverArtifacts` bound to
            ``dataset``; reuses the upper envelope and the :class:`TauLadder`
            (rungs and listed brackets) across calls — both depend only on
            the points, not on ``constraint``, so results are unchanged.
        tau_hint: optional guess for the optimal MHR (e.g. last epoch's
            optimum from a live index, or the optimum of the index's
            previous solve for another ``k``).  The search lists the
            hint's ladder bracket first and starts at the hint's rank in
            it: when the hint *is* the optimum it is certified in two
            decision evaluations, and otherwise a galloping (exponential)
            search homes in on the optimum in ``O(log(rank distance))``
            evaluations.  Feasibility is monotone in ``tau`` and every
            probe is a real decision evaluation, so the returned solution
            is identical with any hint — only the
            ``decision_evaluations`` diagnostic differs.

    Returns:
        The optimal fair solution with ``mhr_estimate`` set to its exact
        minimum happiness ratio.  ``stats["num_candidates"]`` counts the
        members of ``H`` the search held (rungs plus listed values).

    Raises:
        ValueError: if the dataset is not 2-D or the constraint cannot be
            met by any size-``k`` subset.
    """
    if dataset.dim != 2:
        raise ValueError(f"IntCov requires d=2, got d={dataset.dim}")
    if constraint.num_groups != dataset.num_groups:
        raise ValueError(
            f"constraint has {constraint.num_groups} groups, dataset has "
            f"{dataset.num_groups}"
        )
    if not constraint.is_feasible_for(dataset.group_sizes):
        raise ValueError(
            "fairness constraint is infeasible for this dataset: "
            + constraint.describe(dataset.group_names)
        )
    t0 = perf_counter()
    points = dataset.points
    if artifacts is not None and artifacts.matches(dataset):
        envelope = artifacts.envelope()
        ladder = artifacts.tau_ladder()
    else:
        envelope = upper_envelope(points)
        ladder = TauLadder(points, envelope)
    group_masks = [dataset.labels == g for g in range(dataset.num_groups)]
    t_geometry = perf_counter() - t0
    evaluations = 0

    def decide(tau: float):
        nonlocal evaluations
        evaluations += 1
        buckets = _intervals_by_group(ladder, tau, group_masks)
        return fair_interval_cover(buckets, constraint)

    t0 = perf_counter()
    best, listed = _search(ladder, decide, tau_hint)
    best_tau, best_set = (0.0, None) if best is None else best
    t_search = perf_counter() - t0

    t0 = perf_counter()
    if best_set is None:
        # Every candidate failed; fall back to the smallest (tau = 0 cover
        # always succeeds with any fair set, so this means numerics — be
        # safe and return a padded fair set).
        best_set = []
    full = _pad_to_k(best_set, dataset, constraint)
    solution = Solution(
        indices=np.array(sorted(full), dtype=np.int64),
        dataset=dataset,
        algorithm="IntCov",
        constraint=constraint,
        stats={
            "num_candidates": int(ladder.rungs.shape[0]) + listed,
            "decision_evaluations": evaluations,
            "cover_size": len(best_set),
            "tau": best_tau,
        },
    )
    # The search's envelope is the database envelope mhr() would rebuild.
    solution.mhr_estimate = mhr_exact_2d_with_env(solution.points, envelope)
    solution.stats["phases"] = {
        "geometry": t_geometry,
        "search": t_search,
        "finalize": perf_counter() - t0,
    }
    return solution
