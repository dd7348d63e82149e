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
cosines, arrays by the power recursion; each result is multiplied back by
e^scale, so only one beyond double range fails.  Circle means take an
array of radii at once: the radii are certified together, in order, and
those whose FFT wrap has not settled at an angle level share one inverse
FFT, in blocks of at most _BLOCK_ELEMENTS.
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
#: elements in one (rows x degrees) or (rows x angles) block when many |t|
#: are certified or circle means taken at once; a single row may exceed it
_BLOCK_ELEMENTS = 1 << 17


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

def _log_terms(log_c: np.ndarray, log_t, degree_weight: int, lo: int = 0) -> np.ndarray:
    """log |term_d| = log c_d + m log d + d log|t| for d = lo, lo+1, ...,
    where log_c holds log c_d from degree lo on.

    Certification reads only the degrees it scans.  log_t is log|t| from
    math.log, or a column of them for a block with one row per |t|.
    degree_weight m = 0 for the kernel itself, 1 for the radial-derivative
    series sum d c_d t^d.  Degree 0 of the m = 1 series is -inf (callers
    ignore divide warnings).
    """
    d = np.arange(lo, lo + log_c.size, dtype=float)
    out = log_c + d * log_t
    if degree_weight:
        out = out + degree_weight * np.log(d)
    return out


def _window_max(x: np.ndarray) -> np.ndarray:
    """out[..., j] = max(x[..., j:j + _RATIO_WINDOW]), by doubling shifts along
    the last axis; NaN propagates."""
    width = 1
    while width < _RATIO_WINDOW:
        x = np.maximum(x[..., :-width], x[..., width:])
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


def _ratio_scan(log_c: np.ndarray, log_ts: list, log_tol: float, degree_weight: int):
    """The ratio test for one row of terms per log|t| in log_ts, over
    prefixes of log_c that double from _CERTIFY_PREFIX degrees.

    Returns one (D, tail_log, cum) per row: the first degree at which the
    test certifies (None where no prefix does), its log tail bound, and the
    log partial sum through D (through the last degree of log_c where D is
    None).  The verdict at D reads only degrees <= D (the ratio window ends
    at D and the partial sums run in order), so the first hit in a prefix
    is the first hit in the whole table.  Each doubling therefore tests
    only its new degrees: their terms, the window's reach back, and the
    partial sums carried on from the previous prefix.  A row leaves the
    scan at its hit; the rest go on in blocks of rows under
    _BLOCK_ELEMENTS.  Callers ignore invalid and divide warnings.
    """
    n_built = log_c.size
    start = 1 if degree_weight else 0
    out = [None] * len(log_ts)
    carry = [None] * len(log_ts)  # log partial sum through degree lo - 1
    live = list(range(len(log_ts)))
    lo, hi = start, min(_CERTIFY_PREFIX, n_built)
    while True:
        # terms of degrees first..hi-1; the ratio windows ending at D >= lo
        # reach back _RATIO_WINDOW degrees, except in the first prefix
        first = max(start, lo - _RATIO_WINDOW)
        D0 = first + _RATIO_WINDOW  # the first degree tested
        missed = []
        step = max(1, _BLOCK_ELEMENTS // (hi - first))
        for b in range(0, len(live), step):
            rows = live[b:b + step]
            lt = _log_terms(log_c[first:hi], np.array([[log_ts[i]] for i in rows]),
                            degree_weight, first)
            if lo == start:
                cum = np.logaddexp.accumulate(lt, axis=1)
            else:
                cum = np.logaddexp.accumulate(np.concatenate(
                    [[[carry[i]] for i in rows], lt[:, lo - first:]], axis=1), axis=1)[:, 1:]
            # cum[:, j]: log partial sum through degree lo + j
            hit = [False] * len(rows)
            if hi - start > _RATIO_WINDOW + 2:
                # rhat[:, j]: max log ratio over the window of degrees ending
                # at D = D0 + j; the tail starts at D+1
                rhat = _window_max(lt[:, 1:] - lt[:, :-1])
                tl = lt[:, _RATIO_WINDOW:] + rhat - np.log1p(-np.exp(rhat))
                ok = (rhat < -1.0e-12) & (tl <= log_tol + cum[:, D0 - lo:])
                hit, at = ok.any(axis=1).tolist(), ok.argmax(axis=1).tolist()
            for r, i in enumerate(rows):
                if hit[r]:
                    j = at[r]
                    out[i] = (D0 + j, float(tl[r, j]), cum[r, D0 - lo + j])
                else:
                    carry[i] = cum[r, -1]
                    missed.append(i)
        live = missed
        if hi == n_built or not live:
            for i in live:
                out[i] = (None, None, carry[i])
            return out
        lo, hi = hi, min(2 * hi, n_built)


def _certify(k: KernelCoeffs, abs_ts, tol_rel: float, degree_weight: int,
             before_growth=None):
    """Truncation degree D and log tail bound for each |t| in abs_ts,
    exactly as certifying them one at a time in this order would pick them.
    Returns lists (D, bound_log, sum_log): the relative tail bound is
    exp(min(bound_log, _epsilon_tail_log(..., D, ...)) - sum_log).

    The ratio test (_ratio_scan) certifies rows on the built table at once.
    Its D for a row does not change when the table grows, so only the rows
    it misses take their turn, in order: the epsilon envelope at the built
    size, else the table doubles (before_growth(j, D) is called first, once
    the rows before j hold their D), else TruncationError at d_max.  After a
    growth the missed rows still to come are scanned again.  The first row
    is scanned alone, so a |t| that needs the table grown, or cannot be
    certified, costs one row's scan rather than one per row.
    """
    if not (0.0 < tol_rel < math.inf):
        raise ValueError("tolerance must be a finite positive number")
    log_tol = math.log(tol_rel)
    abs_ts = [float(t) for t in abs_ts]
    log_ts = [math.log(t) for t in abs_ts]
    D = [None] * len(abs_ts)
    bound_log = [None] * len(abs_ts)
    sum_log = [None] * len(abs_ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = list(range(len(abs_ts)))
        for pending in (rows[:1], rows[1:]):
            while pending:
                log_c = k.log_coeffs  # read once: another thread may publish a longer table
                n_built = log_c.size
                scanned = _ratio_scan(log_c, [log_ts[j] for j in pending], log_tol,
                                      degree_weight)
                missed = []
                for j, (d, tail_log, cum) in zip(pending, scanned):
                    if d is None:
                        missed.append((j, cum))
                    else:
                        D[j], bound_log[j], sum_log[j] = d, tail_log, cum
                pending = []
                for pos, (j, cum) in enumerate(missed):
                    if k.built > n_built:  # grown by another thread: scan that table
                        pending = [j for j, _ in missed[pos:]]
                        break
                    # epsilon envelope may certify the full built prefix even
                    # when the ratio test cannot (e.g. short tables)
                    eps_log = _epsilon_tail_log(k, abs_ts[j], n_built - 1, degree_weight)
                    if eps_log <= log_tol + cum:
                        D[j], bound_log[j], sum_log[j] = n_built - 1, eps_log, cum
                        continue
                    if before_growth is not None:
                        before_growth(j, D)
                    if n_built >= k.d_max + 1:
                        lt = _log_terms(log_c, log_ts[j], degree_weight)
                        scale = float(lt.max())
                        with np.errstate(under="ignore", over="ignore"):
                            partial = float(np.exp(scale) * np.sum(np.exp(lt - scale)))
                        raise TruncationError(
                            f"tail not certified below {tol_rel:.1e} within "
                            f"d_max={k.d_max} at |t|={abs_ts[j]:.6g}",
                            partial_sum=partial, degree_used=n_built - 1,
                            tail_bound=math.exp(eps_log) if math.isfinite(eps_log) else None)
                    k.ensure(min(2 * n_built, k.d_max + 1))
                    pending = [j for j, _ in missed[pos:]]
                    break
    return D, bound_log, sum_log


def _scaled_terms(log_c: np.ndarray, abs_t: float, degree_weight: int):
    """(scale, gamma): the terms d^m c_d |t|^d over the degrees of log_c,
    divided by e^scale so that the largest is 1."""
    with np.errstate(divide="ignore", under="ignore"):
        lt = _log_terms(log_c, math.log(abs_t), degree_weight)
        scale = float(lt.max())
        return scale, np.exp(lt - scale)


def _terms(k: KernelCoeffs, amax: float, tol: float, m: int):
    """Certified term table of sum_d d^m c_d t^d for every |t| <= amax.

    Returns (D, scale, gamma, tail_rel): the truncation degree, the rescaled
    terms gamma_d = d^m c_d amax^d / e^scale for d <= D (the largest is 1),
    and the certified relative tail bound at |t| = amax.
    """
    (D,), (bound_log,), (sum_log,) = _certify(k, [amax], tol, m)
    bound_log = min(bound_log, _epsilon_tail_log(k, amax, D, m))
    scale, gamma = _scaled_terms(k.log_coeffs[:D + 1], amax, m)
    return D, scale, gamma, math.exp(bound_log - sum_log)


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


def _fft_levels(gammas, tol: float, start_nodes: int, max_nodes: int):
    """Trapezoid means of |sum_d gamma_d e^{i d theta}| for each term table in
    gammas, on angle grids doubled from start_nodes until two levels agree
    to tol.  The tables still unsettled at a level share one inverse FFT per
    block of rows under _BLOCK_ELEMENTS.  Returns (means, prev): a row's
    mean, or None with its last level's value in prev if max_nodes passed.
    """
    means = [None] * len(gammas)
    prev = [None] * len(gammas)
    live = list(range(len(gammas)))
    n_nodes = start_nodes
    while live and n_nodes <= max_nodes:
        unsettled = []
        step = max(1, _BLOCK_ELEMENTS // n_nodes)
        for b in range(0, len(live), step):
            rows = live[b:b + step]
            wrapped = np.zeros((len(rows), n_nodes))
            for out, i in zip(wrapped, rows):
                gamma = gammas[i]
                if gamma.size <= n_nodes:
                    out[:gamma.size] = gamma
                else:  # fold the terms onto the grid: degrees d and d + n_nodes alias
                    folds = -(-gamma.size // n_nodes)
                    padded = np.zeros(folds * n_nodes)
                    padded[:gamma.size] = gamma
                    out[:] = padded.reshape(folds, n_nodes).sum(axis=0)
            vals = np.fft.ifft(wrapped, axis=1)
            vals *= n_nodes
            cur = np.mean(np.abs(vals), axis=1)
            for c, i in zip(cur.tolist(), rows):
                if prev[i] is not None and abs(c - prev[i]) <= tol * abs(c):
                    means[i] = c
                else:
                    prev[i] = c
                    unsettled.append(i)
        live = unsettled
        n_nodes *= 2
    return means, prev


def _circle_means(k: KernelCoeffs, xs: list, D: list, tol: float,
                  start_nodes: int, max_nodes: int) -> np.ndarray:
    """Circle means of |R K| at the radii xs, certified at degrees D.  The
    term tables are built for blocks of consecutive radii whose degrees sum
    to at most _BLOCK_ELEMENTS; the first radius in order that fails raises
    what it raises alone."""
    log_c = k.log_coeffs
    out = np.empty(len(xs))
    lo = 0
    while lo < len(xs):
        hi, size = lo + 1, D[lo] + 1
        while hi < len(xs) and size + D[hi] + 1 <= _BLOCK_ELEMENTS:
            size += D[hi] + 1
            hi += 1
        terms = [_scaled_terms(log_c[:D[i] + 1], xs[i], 1) for i in range(lo, hi)]
        means, prev = _fft_levels([g for _, g in terms], tol, start_nodes, max_nodes)
        for i, (scale, _) in enumerate(terms):
            if means[i] is None:
                raise QuadratureError("circle mean did not stabilize",
                                      partial_value=prev[i])
            out[lo + i] = _unscale(means[i], scale, "circle mean")
        lo = hi
    return out


def rk_circle_mean(k: KernelCoeffs, xi, tol: float = 1.0e-8,
                   start_nodes: int = 256, max_nodes: int = 1 << 20):
    """Angular mean of |R K| on the circle of radius xi:

        (1/2 pi) int |sum_d d c_d (xi e^{i theta})^d| d theta.

    The polynomial is evaluated on uniform angle grids by FFT (exactly the
    trapezoid values), and the grid is doubled until two levels agree.  The
    node count must resolve the angular peak of width ~(1 - xi), so deep
    radii climb to large FFTs; these stay cheap.

    xi is a float or an array of radii.  An array gives, bit for bit, the
    values of one call per radius in C order, grows the table as those
    calls would, and raises what the first failing one would raise; its
    radii are certified together and share their FFT levels.

    Computed with an overall exponential scale factor, so the only failure
    mode is a result whose true magnitude exceeds double range.
    """
    xs = np.asarray(xi, dtype=float)
    if not np.all((xs >= 0.0) & (xs < 1.0)):
        raise ValueError("xi must be in [0, 1)")
    flat = xs.ravel()
    nz = np.flatnonzero(flat)
    out = np.zeros(flat.size)
    done = 0

    def settle(stop, D):
        # before the table grows for radius stop: the radii before it go
        # first, as one call per radius would take them
        nonlocal done
        rows = nz[done:stop]
        out[rows] = _circle_means(k, flat[rows].tolist(), D[done:stop], tol,
                                  start_nodes, max_nodes)
        done = stop

    D = _certify(k, flat[nz], tol, 1, settle)[0]
    settle(nz.size, D)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
