"""Two-dimensional score-line envelopes (paper Section 3.1).

For ``d = 2`` every nonnegative linear utility, rescaled to unit l1-norm,
is ``u = (lam, 1 - lam)`` with ``lam in [0, 1]``.  A point ``p = (x, y)``
then scores ``f_lam(p) = y + (x - y) * lam`` — a line over ``[0, 1]``.  The
*upper envelope* ``env(lam) = max_p f_lam(p)`` is the best achievable score;
it is convex piecewise-linear (a max of lines).

Key consequence used by IntCov: for a threshold ``tau``, the region where a
point's line sits on or above the ``tau``-envelope,

    I_tau(p) = { lam : f_lam(p) >= tau * env(lam) },

is a single (possibly empty) closed interval, because a linear function
minus a convex function is concave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_points, check_dim

__all__ = [
    "Envelope",
    "upper_envelope",
    "tau_interval",
    "tau_intervals",
    "tau_intervals_bulk",
]

_EPS = 1e-12


@dataclass(frozen=True)
class Envelope:
    """Upper envelope of the score lines of a 2-D point set over ``[0, 1]``.

    Attributes:
        breaks: increasing array ``[0, b_1, ..., 1]`` of piece boundaries.
        lines: ``(num_pieces, 2)`` array of ``(slope, intercept)`` per piece.
        point_index: index (into the defining point set) of the point whose
            line realizes each piece.
    """

    breaks: np.ndarray
    lines: np.ndarray
    point_index: np.ndarray

    @property
    def num_pieces(self) -> int:
        return self.lines.shape[0]

    def value(self, lam) -> np.ndarray:
        """Envelope value at ``lam`` (scalar or array), vectorized."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
        if ((lam_arr < -1e-9) | (lam_arr > 1 + 1e-9)).any():
            raise ValueError("lam must lie in [0, 1]")
        lam_arr = np.clip(lam_arr, 0.0, 1.0)
        piece = np.clip(
            np.searchsorted(self.breaks, lam_arr, side="right") - 1,
            0,
            self.num_pieces - 1,
        )
        values = self.lines[piece, 0] * lam_arr + self.lines[piece, 1]
        return values if np.ndim(lam) else float(values[0])

    def vertices(self) -> np.ndarray:
        """All piece boundaries, including 0 and 1."""
        return self.breaks.copy()

    def supporting_points(self) -> np.ndarray:
        """Indices of points that appear on the envelope (deduplicated)."""
        return np.unique(self.point_index)


def _lines_of(points: np.ndarray) -> np.ndarray:
    """(slope, intercept) of each point's score line: f(lam)=y+(x-y)lam."""
    slope = points[:, 0] - points[:, 1]
    intercept = points[:, 1]
    return np.column_stack([slope, intercept])


def upper_envelope(points) -> Envelope:
    """Compute the upper envelope of the score lines of ``points``.

    Classic convex-hull-trick construction: sort lines by slope (keeping
    only the highest intercept per slope), then maintain a stack where the
    intersections of consecutive lines are strictly increasing.  Runs in
    ``O(n log n)``.
    """
    arr = as_points(points)
    check_dim(arr, 2)
    lines = _lines_of(arr)
    order = np.lexsort((-lines[:, 1], lines[:, 0]))
    # The loops below run on Python floats: the same IEEE doubles as the
    # numpy scalars, without numpy's per-element indexing overhead.
    slope = lines[:, 0].tolist()
    intercept = lines[:, 1].tolist()
    # Deduplicate (near-)equal slopes, keeping the highest intercept.  The
    # comparison must be by value, not sort position: slopes that are only
    # a few ulps apart sort by rounding noise.
    kept: list[int] = []
    for idx in order.tolist():
        if kept and abs(slope[kept[-1]] - slope[idx]) <= _EPS:
            if intercept[idx] > intercept[kept[-1]]:
                kept[-1] = idx
            continue
        kept.append(idx)

    def crossing(i: int, j: int) -> float:
        """lam where lines i and j intersect (slopes differ)."""
        return (intercept[j] - intercept[i]) / (slope[i] - slope[j])

    # Maintain the hull stack: with slopes strictly increasing, the line
    # on top becomes useless once the new line overtakes the second-from-top
    # no later than the top does.
    stack: list[int] = []
    for idx in kept:
        while len(stack) >= 2 and crossing(stack[-2], idx) <= crossing(
            stack[-2], stack[-1]
        ) + _EPS:
            stack.pop()
        stack.append(idx)
    cross = [crossing(stack[t], stack[t + 1]) for t in range(len(stack) - 1)]

    # Clip the piecewise structure to [0, 1].
    boundaries = [-np.inf] + cross + [np.inf]
    pieces: list[tuple[float, float, int]] = []  # (start, end, line index)
    for t, line_idx in enumerate(stack):
        start = max(0.0, boundaries[t])
        end = min(1.0, boundaries[t + 1])
        if end > start + _EPS or (not pieces and end >= start):
            pieces.append((start, end, line_idx))
    # Guarantee coverage of [0, 1] even under numerical degeneracy.
    if not pieces:
        best = max(kept, key=lambda i: intercept[i])
        pieces = [(0.0, 1.0, best)]
    pieces[0] = (0.0, pieces[0][1], pieces[0][2])
    pieces[-1] = (pieces[-1][0], 1.0, pieces[-1][2])

    breaks = np.array([p[0] for p in pieces] + [1.0])
    piece_lines = np.array([[lines[p[2], 0], lines[p[2], 1]] for p in pieces])
    point_index = np.array([p[2] for p in pieces], dtype=np.int64)
    return Envelope(breaks=breaks, lines=piece_lines, point_index=point_index)


def tau_interval(point, envelope: Envelope, tau: float) -> tuple[float, float] | None:
    """The interval ``I_tau(p)`` where ``p``'s line clears ``tau * env``.

    Returns ``(lo, hi)`` with ``0 <= lo <= hi <= 1`` or ``None`` when the
    point never reaches a happiness ratio of ``tau``.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (2,):
        raise ValueError("point must be a 2-vector")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    slope = p[0] - p[1]
    intercept = p[1]
    lo: float | None = None
    hi: float | None = None
    for t in range(envelope.num_pieces):
        a, b = envelope.breaks[t], envelope.breaks[t + 1]
        if b < a:
            continue
        # f_p(lam) - tau * env_piece(lam) = alpha * lam + beta
        alpha = slope - tau * envelope.lines[t, 0]
        beta = intercept - tau * envelope.lines[t, 1]
        if abs(alpha) <= _EPS:
            if beta >= -_EPS:
                seg = (a, b)
            else:
                seg = None
        elif alpha > 0:
            start = max(a, -beta / alpha)
            seg = (start, b) if start <= b + _EPS else None
        else:
            end = min(b, -beta / alpha)
            seg = (a, end) if end >= a - _EPS else None
        if seg is None:
            continue
        s0, s1 = max(0.0, seg[0]), min(1.0, seg[1])
        if s1 < s0 - _EPS:
            continue
        if lo is None:
            lo, hi = s0, s1
        else:
            # Concavity: feasible pieces are contiguous.
            hi = max(hi, s1)
    if lo is None:
        return None
    return (float(lo), float(hi))


def tau_intervals_bulk(
    points, envelope: Envelope, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`tau_interval` over a whole point set.

    Returns ``(lo, hi, feasible)`` arrays of length ``n``; rows where
    ``feasible`` is False carry no interval.  Replicates the scalar
    routine's arithmetic exactly — same elementwise IEEE operations per
    (point, piece) — so the endpoints are bit-identical to calling
    :func:`tau_interval` per point, at a fraction of the cost (IntCov
    evaluates intervals for every point at every binary-search step).
    """
    arr = as_points(points)
    check_dim(arr, 2)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    slope = arr[:, 0] - arr[:, 1]
    intercept = arr[:, 1]
    a = envelope.breaks[:-1][None, :]
    b = envelope.breaks[1:][None, :]
    # f_p(lam) - tau * env_piece(lam) = alpha * lam + beta, per (point, piece)
    alpha = slope[:, None] - tau * envelope.lines[:, 0][None, :]
    beta = intercept[:, None] - tau * envelope.lines[:, 1][None, :]
    near_zero = np.abs(alpha) <= _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = -beta / alpha
    rising = alpha > 0
    start = np.where(rising & ~near_zero, np.maximum(a, crossing), a)
    end = np.where(~rising & ~near_zero, np.minimum(b, crossing), b)
    feasible = np.where(
        near_zero,
        beta >= -_EPS,
        np.where(rising, start <= b + _EPS, end >= a - _EPS),
    )
    feasible &= (b >= a)
    s0 = np.maximum(0.0, start)
    s1 = np.minimum(1.0, end)
    feasible &= ~(s1 < s0 - _EPS)
    ok = feasible.any(axis=1)
    first = np.argmax(feasible, axis=1)
    lo = s0[np.arange(arr.shape[0]), first]
    hi = np.where(feasible, s1, -np.inf).max(axis=1)
    return lo, hi, ok


def tau_intervals(points, envelope: Envelope, tau: float) -> list:
    """``I_tau(p)`` for every point (list of ``(lo, hi)`` or ``None``)."""
    arr = as_points(points)
    check_dim(arr, 2)
    lo, hi, ok = tau_intervals_bulk(arr, envelope, tau)
    return [
        (float(lo[i]), float(hi[i])) if ok[i] else None
        for i in range(arr.shape[0])
    ]
