"""Reproducing kernel series for the weighted Bergman space on the ball.

For a radial weight rho on B_n the kernel is a power series in the inner
product,

    K(z, w) = sum_{d>=0} c_d <z,w>^d,
    c_d = (d+n-1)! / (2 d! n! rho_{2n-1+2d}),

and the radial derivative applied in z multiplies term d by d.  The slice
series

    g(lam) = sum_{d>=1} Gamma(d+n)/Gamma(d) * lam^{d-1} / rho_{2n-1+2d}

ties the two together: R K(z,w) = <z,w> g(<z,w>) / (2 Gamma(n+1)), and the
n-th z-derivative of the corresponding disk kernel is g(z conj(w)) conj(w)^n / 2.

Everything is computed in log space from log-Gamma and log-moments, so
coefficient tables stay finite for weights whose moments underflow.

Every evaluator of sum_d d^m c_d t^d (m = 0 for K, 1 for R K) draws on one
term table, `_terms`, built for the largest argument modulus amax: the
degree D at which the tail is certified below tolerance, and the terms
d^m c_d amax^d, d <= D, divided by e^scale so the largest is 1.  The tail
is certified by the sharper of two geometric envelopes: the moment lower
bound rho_s >= C_eps (1-eps)^s with eps = (1-|t|)/2 (valid for every radial
weight), or the observed decay ratio of the computed terms (valid once term
ratios decrease, which holds past the peak for all weight families here;
the doubling-stability property test guards it).  The ratio test scans
prefixes of the coefficient table that double from 512 degrees, so
certification reads only the degrees it needs, and D does not depend on
how far an earlier call grew the table.  One point is summed with
cosines, arrays by the power recursion, circle means by an FFT wrap; each
result is multiplied back by e^scale, so only one beyond double range fails.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericRangeError, QuadratureError, TruncationError
from .quadrature import BallPoint, inner
from .weights import MomentTable

__all__ = [
    "KernelCoeffs",
    "KernelEvalInfo",
    "build_coeffs",
    "eval_kernel",
    "eval_g",
    "eval_rk",
    "eval_disk_kernel_deriv",
    "kernel_norm_sq",
    "rk_circle_mean",
    "kernel_values_many",
    "g_values_many",
]

_LOG_MAX = 709.0
_RATIO_WINDOW = 16
#: degrees in the first prefix the ratio test scans; later prefixes double
_CERTIFY_PREFIX = 512
#: head moments log rho_{2n-1+2d}, d < _EPS_HEAD, fix the moment envelope
_EPS_HEAD = 65


@dataclass(frozen=True)
class KernelEvalInfo:
    """Truncation metadata for one series evaluation."""

    degree_used: int
    tail_bound_rel: float
    tail_bound_abs: float


class KernelCoeffs:
    """Log-space kernel coefficients log c_d for degrees 0..d_max.

    Construction is lazy: an initial block is built and the table grows by
    doubling, under a lock, whenever an evaluation needs deeper degrees.
    Extension is idempotent, so concurrent readers are safe.
    """

    def __init__(self, table: MomentTable, n: int, d_max: int = 4096,
                 initial: int = 256):
        if n < 1:
            raise ValueError("n must be >= 1")
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        self.table = table
        self.n = n
        self.d_max = d_max
        self._lock = threading.RLock()
        self._log_coeffs = np.empty(0)
        self._head_log_moms = np.empty(0)
        self.ensure(min(initial, d_max) + 1)

    @property
    def built(self) -> int:
        return self._log_coeffs.size

    @property
    def log_coeffs(self) -> np.ndarray:
        return self._log_coeffs

    def ensure(self, count: int):
        """Grow the table to at least `count` coefficients (capped at d_max+1)."""
        count = min(count, self.d_max + 1)
        if self.built >= count:
            return
        with self._lock:
            if self.built >= count:
                return
            lo = self.built
            n = self.n
            new_moms = self.table.log_moments_arith(2 * n - 1 + 2 * lo, 2.0, count - lo)
            d = np.arange(lo, count, dtype=float)
            new_coeffs = (gammaln(d + n) - gammaln(d + 1) - gammaln(n + 1)
                          - math.log(2.0) - new_moms)
            head = self._head_log_moms
            self._head_log_moms = np.concatenate(
                [head, new_moms[:_EPS_HEAD - head.size]])
            self._log_coeffs = np.concatenate([self._log_coeffs, new_coeffs])

    def log_c(self, d: int) -> float:
        self.ensure(d + 1)
        return float(self._log_coeffs[d])


def build_coeffs(t: MomentTable, n: int, d_max: int = 4096,
                 initial: int = 256) -> KernelCoeffs:
    """Kernel coefficient table for dimension n over the given moment table."""
    return KernelCoeffs(t, n, d_max=d_max, initial=initial)


# ----------------------------------------------------------------------
# Truncation machinery
# ----------------------------------------------------------------------

def _log_terms(log_c: np.ndarray, abs_t: float, degree_weight: int) -> np.ndarray:
    """log |term_d| = log c_d + m log d + d log|t| for the degrees of log_c.

    log_c is a prefix of a table's coefficients, so certification reads only
    the degrees it scans.  degree_weight m = 0 for the kernel itself, 1 for
    the radial-derivative series sum d c_d t^d.  Degree 0 of the m = 1
    series is -inf.
    """
    d = np.arange(log_c.size, dtype=float)
    out = log_c + d * math.log(abs_t)
    if degree_weight:
        with np.errstate(divide="ignore"):
            out = out + degree_weight * np.log(d)
    return out


def _window_max(x: np.ndarray) -> np.ndarray:
    """out[j] = max(x[j:j + _RATIO_WINDOW]), by doubling shifts; NaN propagates."""
    width = 1
    while width < _RATIO_WINDOW:
        x = np.maximum(x[:-width], x[width:])
        width *= 2
    return x


def _epsilon_tail_log(k: KernelCoeffs, abs_t: float, D: int, degree_weight: int):
    """log of the moment-envelope tail bound past degree D, or +inf."""
    n = k.n
    eps = 0.5 * (1.0 - abs_t)
    log_one_minus_eps = math.log1p(-eps)
    q = abs_t * math.exp(-2.0 * log_one_minus_eps)
    if q >= 1.0:
        return math.inf
    head = k._head_log_moms
    d = np.arange(head.size, dtype=float)
    log_c_eps = float(np.min(head - (2 * n - 1 + 2 * d) * log_one_minus_eps))
    log_a = -math.log(2 * n) - (2 * n - 1) * log_one_minus_eps - log_c_eps
    m = degree_weight
    kappa = q * (D + 1 + n) / (D + 2) * ((D + 2) / (D + 1)) ** m
    if kappa >= 1.0:
        return math.inf
    log_binom = gammaln(D + n + 1) - gammaln(D + 2) - gammaln(n)
    return (log_a + m * math.log(D + 1) + log_binom
            + (D + 1) * math.log(q) - math.log1p(-kappa))


def _certify(k: KernelCoeffs, abs_t: float, tol_rel: float, degree_weight: int):
    """Pick the truncation degree D and its certified relative tail bound.

    Returns (D, log_terms, tail_rel), where log_terms covers at least
    degrees 0..D.  The ratio test scans prefixes of the built table that
    double from _CERTIFY_PREFIX degrees, so its cost follows D rather than
    the table's size.  Its verdict at D reads only degrees <= D (the ratio
    window ends at D and the partial sums run in order), so the first hit in
    a prefix is the first hit in the whole table.  Extends the coefficient
    table as needed; raises TruncationError if no degree within d_max
    certifies.
    """
    if tol_rel <= 0:
        raise ValueError("tolerance must be positive")
    log_tol = math.log(tol_rel)
    start = 1 if degree_weight else 0
    while True:
        log_c = k.log_coeffs  # read once: another thread may publish a longer table
        n_built = log_c.size
        size = min(_CERTIFY_PREFIX, n_built)
        while True:
            lt = _log_terms(log_c[:size], abs_t, degree_weight)
            finite = lt[start:]
            cum = np.logaddexp.accumulate(lt) if start == 0 else \
                np.concatenate([[-np.inf], np.logaddexp.accumulate(finite)])
            if size - start > _RATIO_WINDOW + 2:
                # rhat[j]: max log ratio over the window of degrees ending at
                # D = start + window + j; the tail starts at D+1
                rhat = _window_max(finite[1:] - finite[:-1])
                ds = np.arange(rhat.size) + start + _RATIO_WINDOW
                with np.errstate(invalid="ignore", divide="ignore"):
                    ok_ratio = rhat < -1.0e-12
                    tail_log = np.where(ok_ratio, lt[ds] + rhat - np.log1p(-np.exp(rhat)),
                                        np.inf)
                    ok = ok_ratio & (tail_log <= log_tol + cum[ds])
                hit = np.flatnonzero(ok)
                if hit.size:
                    D = int(ds[hit[0]])
                    bound_log = min(float(tail_log[hit[0]]),
                                    _epsilon_tail_log(k, abs_t, D, degree_weight))
                    return D, lt, math.exp(bound_log - cum[D])
            if size == n_built:
                break
            size = min(2 * size, n_built)
        # epsilon envelope may certify the full built prefix even when the
        # ratio test cannot (e.g. short tables)
        D = n_built - 1
        eps_log = _epsilon_tail_log(k, abs_t, D, degree_weight)
        if eps_log <= log_tol + cum[D]:
            return D, lt, math.exp(eps_log - cum[D])
        if n_built >= k.d_max + 1:
            scale = float(lt.max())
            with np.errstate(under="ignore", over="ignore"):
                partial = float(np.exp(scale) * np.sum(np.exp(lt - scale)))
            raise TruncationError(
                f"tail not certified below {tol_rel:.1e} within d_max={k.d_max} "
                f"at |t|={abs_t:.6g}",
                partial_sum=partial, degree_used=D,
                tail_bound=math.exp(eps_log) if math.isfinite(eps_log) else None)
        k.ensure(min(2 * n_built, k.d_max + 1))


def _terms(k: KernelCoeffs, amax: float, tol: float, m: int):
    """Certified term table of sum_d d^m c_d t^d for every |t| <= amax.

    Returns (D, scale, gamma, tail_rel): the truncation degree, the rescaled
    terms gamma_d = d^m c_d amax^d / e^scale for d <= D (the largest is 1),
    and the certified relative tail bound at |t| = amax.
    """
    D, lt, tail_rel = _certify(k, amax, tol, m)
    scale = float(np.max(lt[:D + 1]))
    with np.errstate(under="ignore"):
        gamma = np.exp(lt[:D + 1] - scale)
    return D, scale, gamma, tail_rel


def _unscale(value, scale: float, what: str):
    """value * e^scale; NumericRangeError if that leaves double range."""
    mag = float(np.max(np.abs(value)))
    if mag > 0.0 and scale + math.log(mag) > _LOG_MAX:
        raise NumericRangeError(f"{what} exceeds double range")
    return value * math.exp(scale)


def _series_at(k: KernelCoeffs, t: complex, tol: float, degree_weight: int):
    """Truncated sum_{d} d^m c_d t^d with certified tail < tol (relative)."""
    abs_t = abs(t)
    if abs_t >= 1.0:
        raise ValueError("series argument must satisfy |t| < 1")
    if abs_t == 0.0:
        if degree_weight:
            return 0.0 + 0.0j, KernelEvalInfo(0, 0.0, 0.0)
        c0 = math.exp(k.log_c(0))
        return complex(c0), KernelEvalInfo(0, 0.0, 0.0)
    D, scale, gamma, tail_rel = _terms(k, abs_t, tol, degree_weight)
    angles = math.atan2(t.imag, t.real) * np.arange(D + 1)
    value = _unscale(complex(np.sum(gamma * np.cos(angles)),
                             np.sum(gamma * np.sin(angles))), scale, "series value")
    return value, KernelEvalInfo(D, tail_rel, tail_rel * abs(value))


# ----------------------------------------------------------------------
# Public evaluators
# ----------------------------------------------------------------------

def eval_kernel(k: KernelCoeffs, z: BallPoint, w: BallPoint, tol: float = 1.0e-10,
                return_info: bool = False):
    """K(z, w) = sum c_d <z,w>^d, truncated with certified relative tail < tol."""
    value, info = _series_at(k, inner(z, w), tol, 0)
    return (value, info) if return_info else value


def eval_rk(k: KernelCoeffs, z: BallPoint, w: BallPoint, tol: float = 1.0e-10,
            return_info: bool = False):
    """Radial derivative R K(z, w) = sum_d d c_d <z,w>^d.

    This equals <z,w> g(<z,w>) / (2 Gamma(n+1)); the test suite checks the
    two routes against each other.
    """
    value, info = _series_at(k, inner(z, w), tol, 1)
    return (value, info) if return_info else value


def eval_g(k: KernelCoeffs, lam: complex, tol: float = 1.0e-10,
           return_info: bool = False):
    """Slice series g(lam) = sum_{d>=1} Gamma(d+n)/Gamma(d) lam^{d-1} / rho_{2n-1+2d}."""
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("|lambda| must be < 1")
    if lam == 0:
        value = 2.0 * math.gamma(k.n + 1) * math.exp(k.log_c(1))
        info = KernelEvalInfo(1, 0.0, 0.0)
    else:
        # g(lam) = 2 Gamma(n+1) * sum_{d>=1} d c_d lam^{d-1}
        rk_sum, info = _series_at(k, lam, tol, 1)
        value = 2.0 * math.gamma(k.n + 1) * rk_sum / lam
    return (value, info) if return_info else value


def eval_disk_kernel_deriv(k: KernelCoeffs, z: complex, w: complex,
                           order: int | None = None, tol: float = 1.0e-10):
    """n-th z-derivative of the one-dimensional kernel with the same weight:

        d^n/dz^n K1(z, w) = g(z conj(w)) conj(w)^n / 2.

    Only order n (the table's dimension) is supported; that is the order for
    which the g identity holds.
    """
    n = k.n
    if order is not None and order != n:
        raise ValueError("only derivative order n is supported")
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("|z| and |w| must be < 1")
    if w == 0:
        return 0.0j
    return 0.5 * eval_g(k, z * w.conjugate(), tol) * w.conjugate() ** n


def kernel_norm_sq(k: KernelCoeffs, z: BallPoint, tol: float = 1.0e-10,
                   return_info: bool = False):
    """Squared Bergman norm of K(., z): sum c_d |z|^{2d} = K(z, z)."""
    t = z.norm ** 2
    value, info = _series_at(k, complex(t), tol, 0)
    result = float(value.real)
    return (result, info) if return_info else result


# ----------------------------------------------------------------------
# Batch / angular evaluation
# ----------------------------------------------------------------------

def _values_many(k: KernelCoeffs, ts: np.ndarray, tol: float, degree_weight: int):
    ts = np.asarray(ts, dtype=complex)
    flat = ts.ravel()
    if not np.any(flat != 0):
        fill = math.exp(k.log_c(0)) if degree_weight == 0 else 0.0
        return np.full(ts.shape, fill, dtype=complex)
    amax = float(np.max(np.abs(flat)))
    _, scale, gamma, _ = _terms(k, amax, tol, degree_weight)
    # iterative powers of t / amax: D cheap vector multiplies instead of complex
    # exps.  Divide componentwise: complex division multiplies by a rounded
    # 1/amax, and that one-ulp error compounds over D powers.
    x = flat.real / amax + 1j * (flat.imag / amax)
    vals = np.full(flat.shape, gamma[0], dtype=complex)
    p = np.ones(flat.shape, dtype=complex)
    for g in gamma[1:]:
        p = p * x
        vals += g * p
    return _unscale(vals, scale, "series value").reshape(ts.shape)


def kernel_values_many(k: KernelCoeffs, ts, tol: float = 1.0e-10) -> np.ndarray:
    """K as a scalar series evaluated at an array of arguments t = <z,w>."""
    return _values_many(k, ts, tol, 0)


def g_values_many(k: KernelCoeffs, ts, tol: float = 1.0e-10) -> np.ndarray:
    """g evaluated at an array of arguments."""
    ts = np.asarray(ts, dtype=complex)
    rk = _values_many(k, ts, tol, 1)
    out = np.empty_like(rk)
    nz = ts != 0
    out[nz] = 2.0 * math.gamma(k.n + 1) * rk[nz] / ts[nz]
    out[~nz] = 2.0 * math.gamma(k.n + 1) * math.exp(k.log_c(1))
    return out


def rk_circle_mean(k: KernelCoeffs, xi: float, tol: float = 1.0e-8,
                   start_nodes: int = 256, max_nodes: int = 1 << 20) -> float:
    """Angular mean of |R K| on the circle of radius xi:

        (1/2 pi) int |sum_d d c_d (xi e^{i theta})^d| d theta.

    The polynomial is evaluated on uniform angle grids by FFT (exactly the
    trapezoid values), and the grid is doubled until two levels agree.  The
    node count must resolve the angular peak of width ~(1 - xi), so deep
    radii climb to large FFTs; these stay cheap.

    Computed with an overall exponential scale factor, so the only failure
    mode is a result whose true magnitude exceeds double range.
    """
    if not (0.0 <= xi < 1.0):
        raise ValueError("xi must be in [0, 1)")
    if xi == 0.0:
        return 0.0
    _, scale, gamma, _ = _terms(k, xi, tol, 1)
    n_nodes = start_nodes
    prev = None
    while n_nodes <= max_nodes:
        rows = -(-gamma.size // n_nodes)
        wrapped = np.zeros(rows * n_nodes)
        wrapped[:gamma.size] = gamma
        wrapped = wrapped.reshape(rows, n_nodes).sum(axis=0)
        vals = np.fft.ifft(wrapped) * n_nodes
        cur = float(np.mean(np.abs(vals)))
        if prev is not None and abs(cur - prev) <= tol * abs(cur):
            return _unscale(cur, scale, "circle mean")
        prev = cur
        n_nodes *= 2
    raise QuadratureError("circle mean did not stabilize", partial_value=prev)
