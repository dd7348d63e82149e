"""Reference values computed apart from bergman_lab.

Everything here uses closed forms, scipy.integrate.quad and
scipy.special; nothing imports the package under test, so a fault in the
package cannot hide in its own reference.  The derivations are in
bench/README.md.

Radii near the boundary are passed as u = 1 - r, which keeps full floating
resolution where r itself would round to 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import expn

_QUAD = dict(epsabs=0.0, epsrel=1.0e-12, limit=400)


def _quad_pieces(f, breaks) -> float:
    """Sum of quad over consecutive breakpoints; each piece is smooth."""
    return math.fsum(quad(f, lo, hi, **_QUAD)[0]
                     for lo, hi in zip(breaks[:-1], breaks[1:]) if hi > lo)


def _dyadic_breaks(depth: int) -> list[float]:
    """0, 2^-depth, ..., 1/2, 1: graded toward 0 in a distance variable."""
    return [0.0] + [2.0 ** -j for j in range(depth, -1, -1)]


# ----------------------------------------------------------------------
# Scaled exponential integral e^x E_n(x)
# ----------------------------------------------------------------------

def expn_scaled(n: int, x: float) -> float:
    """e^x E_n(x) for n >= 1, x > 0, finite where E_n itself underflows.

    Continued fraction (modified Lentz) for x > 1, scipy's expn below.
    """
    if x <= 1.0:
        return math.exp(x) * float(expn(n, x))
    b = x + n
    c = 1.0e300
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1.0e-16:
            return h
    raise ArithmeticError("continued fraction for E_n did not converge")


# ----------------------------------------------------------------------
# Weights: density, tail rhohat, moments rho_x
# ----------------------------------------------------------------------

def std0_tail(u: float) -> float:
    """rho = 1: rhohat(1-u) = u."""
    return u


def std2_density(u: float) -> float:
    """rho = (1-r^2)^2 = (u(2-u))^2."""
    return (u * (2.0 - u)) ** 2


def std2_tail(u: float) -> float:
    """int_0^u s^2 (2-s)^2 ds = 4u^3/3 - u^4 + u^5/5."""
    return u ** 3 * (4.0 / 3.0 - u + u * u / 5.0)


def std0_moment(x: float) -> float:
    return 1.0 / (x + 1.0)


def std2_moment(x: float) -> float:
    """int_0^1 t^x (1-t^2)^2 dt = 8 / ((x+1)(x+3)(x+5))."""
    return 8.0 / ((x + 1.0) * (x + 3.0) * (x + 5.0))


def log0_density(u: float) -> float:
    """rho = log(e/(1-r))^-2 = (1 - log u)^-2."""
    return (1.0 - math.log(u)) ** -2


@lru_cache(maxsize=None)
def log0_tail(u: float) -> float:
    """int_0^u (1 - log s)^-2 ds by quad, in y = -log s:
    int_L^inf e^-y (1+y)^-2 dy with L = -log u."""
    lo = -math.log(u)
    return quad(lambda y: math.exp(-y) / (1.0 + y) ** 2, lo, math.inf,
                **_QUAD)[0]


@lru_cache(maxsize=None)
def log0_moment(x: float) -> float:
    """int_0^1 t^x log(e/(1-t))^-2 dt by quad, in y = -log(1-t).

    The factor (1 - e^-y)^x cuts off below y ~ log x, so the breakpoints
    bracket that knee.
    """
    def f(y):
        if y <= 0.0:
            return 0.0
        return math.exp(x * math.log1p(-math.exp(-y)) - y) / (1.0 + y) ** 2

    knee = math.log(x)
    breaks = sorted({0.0, max(knee - 4.0, 0.0), max(knee - 1.0, 0.0), knee,
                     knee + 2.0, knee + 8.0, knee + 40.0})
    return _quad_pieces(f, breaks) + quad(f, breaks[-1], math.inf, **_QUAD)[0]


def exp11_log_density(u: float) -> float:
    """log rho for rho = exp(-1/(1-r))."""
    return -1.0 / u


def exp11_log_tail(u: float) -> float:
    """log int_0^u e^{-1/s} ds = log(E_2(x)/x), x = 1/u."""
    x = 1.0 / u
    return math.log(expn_scaled(2, x)) - x - math.log(x)


@lru_cache(maxsize=None)
def exp11_moment(x: float) -> float:
    """int_0^1 t^x exp(-1/(1-t)) dt by quad in u = 1-t.

    The integrand peaks where x u^2 = 1 - u, near u = 1/sqrt(x).
    """
    def f(u):
        if not 0.0 < u < 1.0:
            return 0.0
        return math.exp(x * math.log1p(-u) - 1.0 / u)

    peak = (-1.0 + math.sqrt(1.0 + 4.0 * x)) / (2.0 * x)
    breaks = sorted({0.0, 0.25 * peak, 0.5 * peak, peak, 2.0 * peak,
                     4.0 * peak, min(16.0 * peak, 1.0), 1.0})
    return _quad_pieces(f, breaks)


WEIGHTS = {
    # label: (log tail(u), log density(u), moment(x))
    "std0": (lambda u: math.log(std0_tail(u)), lambda u: 0.0,
             std0_moment),
    "std2": (lambda u: math.log(std2_tail(u)),
             lambda u: math.log(std2_density(u)), std2_moment),
    "log0": (lambda u: math.log(log0_tail(u)),
             lambda u: math.log(log0_density(u)), log0_moment),
    "exp11": (exp11_log_tail, exp11_log_density, exp11_moment),
}


# ----------------------------------------------------------------------
# Theorem quantities for rho = 1, n = 2
# ----------------------------------------------------------------------

def std0_circle_mean(xi: float, one_minus_xi: float) -> float:
    """A(xi) = mean over |t| = xi of |R K| for rho = 1, n = 2:
    3 xi (1 + xi^2) / (1 - xi^2)^3, with 1 - xi passed separately."""
    one_minus_sq = one_minus_xi * (1.0 + xi)
    return 3.0 * xi * (1.0 + xi * xi) / one_minus_sq ** 3


@lru_cache(maxsize=None)
def std0_functional(u: float) -> float:
    """M(r) = 8 (1-r^2) int_0^1 A(r v) v (1-v^2)/2 dv, r = 1-u, by quad.

    Integrated in s = 1 - v, where 1 - r v = u + r s stays exact; the
    peak of width ~u is resolved by dyadic breakpoints toward s = 0.
    """
    r = 1.0 - u

    def f(s):
        v = 1.0 - s
        return std0_circle_mean(r * v, u + r * s) * v * s * (2.0 - s) / 2.0

    depth = int(math.ceil(-math.log2(u))) + 12
    return 8.0 * u * (2.0 - u) * _quad_pieces(f, _dyadic_breaks(depth))


def std0_majorant(r: float) -> float:
    """U(r) = 1 + r / (2 (1 - r)) for rhohat(t) = 1 - t."""
    return 1.0 + r / (2.0 * (1.0 - r))


def std0_cesaro(N: int, n: int = 2) -> float:
    """(1/N) sum_{d=1}^N rho_{d+2n-1}/rho_{2d+2n-1} with rho_x = 1/(x+1)."""
    d = np.arange(1, N + 1, dtype=float)
    return float(np.mean((2.0 * d + 2 * n) / (d + 2 * n)))


def cesaro_from_moments(moment, N: int, n: int = 2) -> float:
    """(1/N) sum_{d=1}^N rho_{d+2n-1}/rho_{2d+2n-1} from a moment function."""
    return math.fsum(moment(float(d + 2 * n - 1)) / moment(float(2 * d + 2 * n - 1))
                     for d in range(1, N + 1)) / N


# ----------------------------------------------------------------------
# Projection of slice symbols for rho = 1, n = 2 at z = r e_1
# ----------------------------------------------------------------------

#: P(w1/|w1|) = c_1 z_1 int |w1| dv = 3 * 8/15 z_1.
PHASE_FACTOR = 1.6


def phase_projection(r: float) -> float:
    return PHASE_FACTOR * r


def phase_bloch_density(r: float) -> float:
    return (1.0 - r * r) * PHASE_FACTOR * r


def polynomial_projection(a: float, b: float, r: float) -> float:
    """a w1 + b w1^3 is holomorphic, so P reproduces it: a r + b r^3."""
    return a * r + b * r ** 3
