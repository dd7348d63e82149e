"""Grid construction and the trend classifier shared by weights and analysis."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: Half-width of the "flat" band of last-quartile log-slopes (series_trend).
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


def last_quartile_log_slope(x, y) -> float:
    """Least-squares slope of log(y) against x over the last quartile of the grid.

    y must be strictly positive; x is already on the scale of interest
    (log(1/(1-r)), log n, or sqrt(N) depending on the diagnostic).  An
    infinite y gives a NaN slope.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points for a quartile slope")
    sl = last_quartile_slice(x.size)
    ly = np.log(y[sl])
    xm = x[sl] - x[sl].mean()
    with np.errstate(invalid="ignore"):  # y = inf: inf - inf, a NaN slope
        return float(np.dot(xm, ly - ly.mean()) / np.dot(xm, xm))


class Trend(NamedTuple):
    """A series' last-quartile log-slope (NaN when short) and its trend."""

    slope: float
    trend: str  # short, undefined, falling, flat or rising


def series_trend(scale, values) -> Trend:
    """The trend of values against scale, by their last-quartile log-slope.

    short: fewer than 3 points; undefined: a NaN slope (an infinite value);
    falling, flat or rising: a slope below, within (edges included) or
    above +-SLOPE_TOLERANCE.  Every verdict on an evidence series reads it.
    """
    if np.size(values) < 3:
        return Trend(math.nan, "short")
    slope = last_quartile_log_slope(scale, values)
    if math.isnan(slope):
        return Trend(slope, "undefined")
    if slope < -SLOPE_TOLERANCE:
        return Trend(slope, "falling")
    return Trend(slope, "rising" if slope > SLOPE_TOLERANCE else "flat")
