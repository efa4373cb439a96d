"""Percentiles that are only reported when the sample supports them."""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "percentile", "summary"]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` when too few samples lie beyond.

    With ``N`` samples the quantile is the ``ceil(q * N)``-th smallest;
    the ``N - ceil(q * N)`` samples above it must number at least
    :data:`MIN_BEYOND`, so p50 needs 20 samples and p99 needs 1000.
    A failed op enters as ``math.inf``: it misses every latency limit.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return values[rank - 1]


def summary(samples, qs=(0.5, 0.99)) -> dict:
    """``{"n": N, "p50": ..., "p99": ...}`` with withheld ranks as ``None``."""
    out: dict = {"n": len(samples)}
    for q in qs:
        out[f"p{round(q * 100)}"] = percentile(samples, q)
    return out
