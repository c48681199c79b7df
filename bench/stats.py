"""Order statistics used for every reported timing."""

from __future__ import annotations

import math
import statistics
from functools import lru_cache

import numpy as np

MIN_BEYOND = 10
# Integration steps per order statistic in the Harrell-Davis weights.
_STEPS = 20


def _harrell_davis(xs: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples `xs`.

    The weight of the i-th order statistic is the Beta((n+1)q, (n+1)(1-q))
    probability of ((i-1)/n, i/n], integrated numerically.
    """
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, _STEPS * n + 1)
    inner = grid[1:-1]
    log_pdf = ((a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    pdf = np.concatenate(([0.0], np.exp(log_pdf), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))))
    weights = np.diff(cdf[::_STEPS] / cdf[-1])
    return float(weights @ xs)


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by the Harrell-Davis estimator.

    It averages every order statistic with weights peaked at rank q*n,
    rather than interpolating between the two nearest. Item latencies come
    in clusters (one per catalog id or vertex count) with gaps between
    them, and a quantile that falls in a gap would otherwise jump across it
    whenever one sample swaps sides.

    A tail percentile is only reported when at least MIN_BEYOND samples lie
    strictly above it; with fewer the estimate rests on a handful of points
    and ValueError is raised instead.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if not len(xs):
        raise ValueError("no samples")
    value = _harrell_davis(xs, q)
    beyond = int(np.sum(xs > value))
    if q > 0.5 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples has {beyond} beyond it, "
            f"need {MIN_BEYOND}")
    return value


@lru_cache(maxsize=None)
def samples_needed(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the
    q-quantile when no two samples tie."""
    n = MIN_BEYOND + 1
    while np.sum(np.arange(n) > _harrell_davis(np.arange(n, dtype=float), q)) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are judged by."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
