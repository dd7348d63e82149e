"""Grid construction and slope diagnostics shared by weights and analysis."""

from __future__ import annotations

import numpy as np

#: |log-slope| below which a ratio sequence counts as bounded, above which
#: (over the last quartile of a geometric grid) it counts as divergent.
SLOPE_TOLERANCE = 0.05

#: Default cap on evidence ratios for a bounded verdict.
DIVERGENCE_THRESHOLD = 1.0e6


def dyadic_radii(k_max: int = 24, k_min: int = 0) -> np.ndarray:
    """Radii r_k = 1 - 2^{-k}, k = k_min..k_max, approaching the boundary geometrically."""
    k = np.arange(k_min, k_max + 1)
    return 1.0 - 2.0 ** (-k.astype(float))


def geometric_ints(lo_exp: int, hi_exp: int, base: int = 2) -> list[int]:
    """Integers base^lo_exp .. base^hi_exp."""
    return [base**e for e in range(lo_exp, hi_exp + 1)]


def last_quartile_slice(m: int) -> slice:
    """Index slice selecting the last quartile of m points (at least 3)."""
    q = max(3, -(-m // 4))
    return slice(max(0, m - q), m)


def log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against x over all points.

    y must be strictly positive; x is already on the scale of interest
    (log(1/(1-r)), log n, or sqrt(N) depending on the diagnostic).  An
    infinite y gives a NaN slope.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a slope")
    ly = np.log(y)
    xm = x - x.mean()
    with np.errstate(invalid="ignore"):  # y = inf: inf - inf, a NaN slope
        return float(np.dot(xm, ly - ly.mean()) / np.dot(xm, xm))


def last_quartile_log_slope(x, y) -> float:
    """log_slope restricted to the last quartile of the grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points for a quartile slope")
    sl = last_quartile_slice(x.size)
    return log_slope(x[sl], y[sl])
