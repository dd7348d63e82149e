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

Everything is computed in log space from log-moments, so coefficient
tables stay finite for weights whose moments underflow.  The factorial
part of log c_d is the exact sum of logs sum_{j=1}^{n-1} log(d+j) - log n!:
a difference of log-Gammas would lose about 1e-10 to cancellation at d =
2^17.  A table grows through the sizes 257 2^k (capped at d_max + 1), so
its coefficients do not depend on how it was asked to grow.

Every evaluator of sum_d d^m c_d t^d (m = 0 for K, 1 for R K) draws on one
term table, `_terms`, built for the largest argument modulus amax: the
degree D at which the tail is certified below tolerance, and the terms
d^m c_d amax^d, d <= D, divided by e^scale so the largest is 1.  The tail
is certified by the sharper of two geometric envelopes: the moment lower
bound rho_s >= C_eps (1-eps)^s, eps = (1-|t|)/2, that the log-convexity of
the moments gives past D where they fall slowly enough there (valid for
every radial weight), or the observed decay ratio of the computed terms (valid once term
ratios decrease, which holds past the peak for all weight families here;
the doubling-stability property test guards it).  D is the one a fresh
table would certify: the ratio test's at the first table size s it passes
below, else s - 1 at the first size where the moment envelope holds.  The
ratio test scans ranges of the coefficient table that end at the table
sizes.  The largest ratio of consecutive terms over the 16 degrees before
D is the table's ratio envelope at D times |t|, formed once per range for
every |t|; a row whose |t| times the range's least envelope value is not
below e^-1e-12 only adds that range's terms.  The others are tested, with
a little slack, against partial sums of terms scaled by their running
maximum: linear arithmetic.  The first degree that passes is checked in
log space; where that check fails or the scaled sums underflow, the range
is tested in log space, as is a block of rows short enough to test there
outright (one row in the first two ranges).  So D and its tail bound are
the log-space test's, and D reads only degrees <= D: it does not depend on
how far an earlier call grew the table.

One point and arrays of points alike take their powers by the recursion
x^d = x^{d-1} x (one point's terms are summed exactly rounded, by
math.fsum); each result is multiplied back by e^scale, so only one beyond
double range fails.  Circle means take an array of radii at once:
the radii are certified together, in order.  Each mean climbs nested angle
grids, first level from D: the grid starts at no fewer than (D+1)/2 nodes.
The first level takes one real FFT on the half circle (|p| is even in the
angle, the terms being real); each later level adds only the previous
grid's midpoints to the node sum, by one complex FFT of half the previous
node count.  The radii whose mean has not settled at a level share that
level's FFT, in blocks of at most _BLOCK_ELEMENTS.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

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
#: the ratio test needs the window's largest log ratio below this
_DECAY = -1.0e-12
#: blocks of (rows x degrees) up to this many elements in a range of the
#: ratio test are tested in log space
_CERTIFY_PREFIX = 512
#: relative slack of the linear ratio test, far above its rounding gap to
#: the log-space test, so every degree the log-space test passes passes it
_SLACK = 1.0e-9
#: where the linear ratio test's right-hand side falls below this, the
#: scaled partial sums may have underflowed: that range is tested in log space
_TINY = 1.0e-290
#: a coefficient table holds _FIRST_SIZE 2^k coefficients, or d_max + 1
_FIRST_SIZE = 257
#: elements in one (rows x degrees) or (rows x angles) block when many |t|
#: are certified or circle means taken at once, and in one (degrees x
#: points) block of a many-point series; a single row may exceed it when
#: circle means are taken
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class KernelEvalInfo:
    """Truncation metadata for one series evaluation."""

    degree_used: int
    tail_bound_rel: float
    tail_bound_abs: float


@dataclass(frozen=True)
class _Table:
    """One published size of a coefficient table: log c_d and log d, d < size."""

    log_c: np.ndarray
    log_d: np.ndarray


class KernelCoeffs:
    """Log-space kernel coefficients log c_d for degrees 0..d_max.

    Construction is lazy: the table holds 257 2^k coefficients (or d_max + 1,
    the cap) and grows through these sizes in turn, under a lock, whenever
    an evaluation needs deeper degrees.  Each growth extends the moment
    recurrence from its first degree, so the sizes a table passed through
    fix its bits: growing through the same sizes, every table holds the
    same coefficients, however far and in what steps it was asked to grow.
    Each growth publishes one new _Table, so a reader always sees log c_d
    and log d of one size.
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
        self._table = _Table(np.empty(0), np.empty(0))
        self.ensure(min(initial, d_max) + 1)

    @property
    def built(self) -> int:
        return self._table.log_c.size

    @property
    def log_coeffs(self) -> np.ndarray:
        return self._table.log_c

    def ensure(self, count: int):
        """Grow the table to at least `count` coefficients (capped at
        d_max+1), through each table size below it."""
        count = min(count, self.d_max + 1)
        if self.built >= count:
            return
        with self._lock:
            while self.built < count:
                self._grow(min(_next_size(self.built), self.d_max + 1))

    def _grow(self, size: int):
        old = self._table
        lo = old.log_c.size
        n = self.n
        new_moms = self.table.log_moments_arith(2 * n - 1 + 2 * lo, 2.0, size - lo)
        d = np.arange(lo, size, dtype=float)
        # log((d+n-1)! / (d! n!)) - log 2 - moments, in place: the largest
        # growth holds few arrays of its size at once
        coeffs = _log_gamma_part(d, n)
        coeffs -= math.log(2.0)
        coeffs -= new_moms
        del new_moms
        log_c = np.concatenate([old.log_c, coeffs])
        del coeffs
        with np.errstate(divide="ignore"):  # log 0 = -inf
            log_d = np.concatenate([old.log_d, np.log(d, out=d)])
        del d
        self._table = _Table(log_c, log_d)

    def log_c(self, d: int) -> float:
        if not 0 <= d <= self.d_max:
            raise ValueError(f"kernel degree {d} is outside 0..d_max={self.d_max}")
        self.ensure(d + 1)
        return float(self._table.log_c[d])


def _next_size(size: int) -> int:
    """The least table size _FIRST_SIZE 2^k above size."""
    s = _FIRST_SIZE
    while s <= size:
        s *= 2
    return s


def _log_gamma_part(d: np.ndarray, n: int) -> np.ndarray:
    """log((d+n-1)! / (d! n!)) = sum_{j=1}^{n-1} log(d+j) - log n! at the
    degrees d, as an exact sum of logs: gammaln(d+n) - gammaln(d+1) loses
    about 1e-10 to cancellation at d = 2^17."""
    out = np.full(d.shape, -math.log(math.factorial(n)))
    tmp = np.empty_like(out)
    for j in range(1, n):
        out += np.log(np.add(d, j, out=tmp), out=tmp)
    return out


def build_coeffs(t: MomentTable, n: int, d_max: int = 4096,
                 initial: int = 256) -> KernelCoeffs:
    """Kernel coefficient table for dimension n over the given moment table."""
    return KernelCoeffs(t, n, d_max=d_max, initial=initial)


# ----------------------------------------------------------------------
# Truncation machinery
# ----------------------------------------------------------------------

def _log_terms(log_c: np.ndarray, log_d: np.ndarray, log_t, degree_weight: int,
               lo: int = 0) -> np.ndarray:
    """log |term_d| = log c_d + m log d + d log|t| for d = lo, lo+1, ...,
    where log_c and log_d hold log c_d and log d from degree lo on, and the
    degree weight m is 0 for the kernel itself or 1 for the radial-derivative
    series sum d c_d t^d.

    Certification reads only the degrees it scans.  log_t is log|t| from
    math.log, or a column of them for a block with one row per |t|.  Degree
    0 of the m = 1 series is -inf.
    """
    out = np.arange(lo, lo + log_c.size, dtype=float) * log_t
    out += log_c
    if degree_weight:
        out += log_d
    return out


def _window_max(x: np.ndarray) -> np.ndarray:
    """out[..., j] = max(x[..., j:j + _RATIO_WINDOW]), by doubling shifts along
    the last axis; NaN propagates."""
    width = 1
    while width < _RATIO_WINDOW:
        x = np.maximum(x[..., :-width], x[..., width:])
        width *= 2
    return x


def _epsilon_tail_log(k: KernelCoeffs, abs_t: np.ndarray, D: int,
                      degree_weight: int) -> np.ndarray:
    """log of the moment-envelope tail bound past degree D at each |t| of
    the array abs_t, +inf where the envelope gives none.

    log rho_x is convex in x, so past x_D = 2n-1+2D it lies above the chord
    through x_{D-1} and x_D.  Where that chord falls by no more than 2
    log(1-eps) per degree, eps = (1-|t|)/2, rho_x >= C_eps (1-eps)^x for x
    >= x_D with C_eps = rho_{x_D} (1-eps)^-x_D, and the terms past D are
    bounded by a geometric series of ratio q = |t| / (1-eps)^2 times the
    factorial part.  The moments are read back from log c_{D-1} and log c_D.
    """
    n, m = k.n, degree_weight
    if D < 1:
        return np.full(np.shape(abs_t), math.inf)
    log_c = k._table.log_c
    chord = math.log((D + n - 1) / D) - float(log_c[D] - log_c[D - 1])
    log_one_minus_eps = np.log1p(-0.5 * (1.0 - abs_t))
    steep = chord < 2.0 * log_one_minus_eps
    if steep.all():
        return np.full(np.shape(abs_t), math.inf)
    log_mom = (sum(math.log(D + j) for j in range(1, n)) - math.log(math.factorial(n))
               - math.log(2.0) - float(log_c[D]))  # log rho_{x_D}
    q = abs_t * np.exp(-2.0 * log_one_minus_eps)
    log_c_eps = log_mom - (2 * n - 1 + 2 * D) * log_one_minus_eps
    log_a = -math.log(2 * n) - (2 * n - 1) * log_one_minus_eps - log_c_eps
    kappa = q * ((D + 1 + n) / (D + 2) * ((D + 2) / (D + 1)) ** m)
    # log((D+n)! / ((D+1)! (n-1)!)), an exact sum of logs as in _log_gamma_part
    log_binom = (sum(math.log(D + j) for j in range(2, n + 1))
                 - math.log(math.factorial(n - 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (log_a + m * math.log(D + 1) + log_binom
               + (D + 1) * np.log(q) - np.log1p(-kappa))
    out[steep | (q >= 1.0) | (kappa >= 1.0)] = math.inf
    return out


def _ratio_range(log_c: np.ndarray, log_d: np.ndarray, degree_weight: int,
                 lo: int, hi: int) -> np.ndarray:
    """The ratio envelope of degree weight m at D = lo..hi-1.

    ratio[D] is the largest ratio c_{d+1} (d+1)^m / (c_d d^m) over the
    window d = D-16..D-1 (+inf for D < 16), so ratio[D] |t| is the largest
    ratio of consecutive terms at |t| in the window ending at D: one
    envelope serves every |t|.  It reads degrees <= D only.  Callers
    ignore overflow and invalid warnings.
    """
    first = max(lo - _RATIO_WINDOW, 0)
    c, d = log_c[first:hi], log_d[first:hi]
    steps = c[1:] - c[:-1]
    if degree_weight:
        steps += d[1:] - d[:-1]
    window = _window_max(steps)  # D = hi - window.size .. hi - 1
    del steps
    out = np.empty(hi - lo)
    pad = out.size - window.size
    out[:pad] = np.inf
    np.exp(window, out=out[pad:])
    return out


def _tail_log(table: _Table, log_t: float, degree_weight: int, D: int,
              lt=None) -> float:
    """log of the ratio test's tail bound past D, term_D rhat / (1 - rhat),
    rhat the largest ratio of consecutive terms over the window ending at
    D, from the log terms lt of degrees D-16..D (formed here if None); +inf
    where rhat is not below e^_DECAY."""
    if lt is None:
        lo = D - _RATIO_WINDOW
        lt = _log_terms(table.log_c[lo:D + 1], table.log_d[lo:D + 1], log_t,
                        degree_weight, lo)
    rhat = (lt[1:] - lt[:-1]).max(keepdims=True)
    if not rhat[0] < _DECAY:
        return math.inf
    return float((lt[-1:] + rhat - np.log1p(-np.exp(rhat)))[0])


def _log_space_range(table: _Table, log_t: np.ndarray, log_tol: float,
                     degree_weight: int, lo: int, hi: int, carry=None) -> list:
    """The ratio test in log space at D = lo..hi-1, one row per log|t| in
    the column log_t: rhat, the window's largest log ratio of the row's own
    terms, below _DECAY, and log(term_D rhat / (1 - rhat)) <= log_tol + the
    log partial sum through D.  carry holds each row's log partial sum
    through lo - 1 (None at the table's first degree).  Returns one (D,
    tail_log, sum_log) per row as _ratio_scan does, D None (with the
    partial sum through hi - 1) where no degree passes."""
    start = 1 if degree_weight else 0
    first = max(start, lo - _RATIO_WINDOW)  # the windows reach back to first
    D0 = first + _RATIO_WINDOW  # the first degree tested
    lt = _log_terms(table.log_c[first:hi], table.log_d[first:hi], log_t,
                    degree_weight, first)
    # cum[:, j]: log partial sum through degree lo + j
    if carry is None:
        cum = np.logaddexp.accumulate(lt, axis=1)
    else:
        cum = np.logaddexp.accumulate(np.concatenate(
            [carry[:, None], lt[:, lo - first:]], axis=1), axis=1)[:, 1:]
    hit = [False] * lt.shape[0]
    if hi - start > _RATIO_WINDOW + 2:
        # rhat[:, j]: the window's largest log ratio at D = D0 + j
        rhat = _window_max(lt[:, 1:] - lt[:, :-1])
        tl = lt[:, _RATIO_WINDOW:] + rhat - np.log1p(-np.exp(rhat))
        ok = (rhat < _DECAY) & (tl <= log_tol + cum[:, D0 - lo:])
        hit, at = ok.any(axis=1).tolist(), ok.argmax(axis=1).tolist()
    return [(D0 + at[r], float(tl[r, at[r]]), float(cum[r, D0 - lo + at[r]]))
            if hit[r] else (None, None, float(cum[r, -1])) for r in range(lt.shape[0])]


def _ratio_scan(k: KernelCoeffs, table: _Table, abs_ts: list, log_ts: list,
                tol: float, degree_weight: int):
    """Certification on one published table of k, one row per |t| in
    abs_ts (log|t| in log_ts).

    Returns one (D, tail_log, sum_log) per row: the degree at which the row
    certifies (None where it does not within the table), its log tail
    bound, and the log partial sum through D (through the table's last
    degree where D is None).  Rows go together through ranges of degrees
    that end at the table sizes _FIRST_SIZE 2^k (and d_max + 1), at most
    _BLOCK_ELEMENTS wide, in blocks of rows under _BLOCK_ELEMENTS, each
    row carrying (scale, total): its partial sum is total e^scale, scale
    its largest log term.  Where a range ends at a table size s, a row the
    ratio test has not certified below s takes the epsilon envelope at s -
    1 if it holds there: a fresh table of s coefficients would do the same,
    so D does not depend on how far the table has grown.

    The ratio test at D is _log_space_range's, and it reads degrees <= D
    only.  A block of rows tested over at most _CERTIFY_PREFIX elements,
    such as one row in the first two ranges, is tested in log space: fewer
    array operations there.  Otherwise the range's envelope is formed once
    (_ratio_range).  With rho = ratio[D] |t| (1 - _SLACK), a degree is a
    candidate where rho < e^_DECAY and term_D rho <= tol (1 + _SLACK) (1 -
    rho) sum_{d<=D} term_d: linear arithmetic on the scaled terms.  Rounded
    multiplication is monotone, so a row whose rho at the envelope's least
    value is not below e^_DECAY has no candidate in the range: it only adds
    its terms.  The slack makes every degree the log-space test passes a
    candidate, so a row whose first candidate passes that test has its D;
    where it does not, or where the right-hand side falls below _TINY (the
    scaled sums may have underflowed), the row tests the range in log space.
    Callers ignore invalid, divide and overflow warnings.
    """
    n_built = table.log_c.size
    start = 1 if degree_weight else 0
    log_tol = math.log(tol)
    decay, tol_slack = math.exp(_DECAY), tol * (1.0 + _SLACK)
    abs_t, log_t = np.array(abs_ts), np.array(log_ts)
    scale = np.array([-math.inf] * log_t.size)
    total = np.zeros(log_t.size)
    out = [None] * log_t.size
    live = np.arange(log_t.size)

    def sum_log(i):
        return float(scale[i]) + math.log(total[i])

    lo, hi = start, min(_FIRST_SIZE, n_built)
    while True:
        log_c, log_d = table.log_c[lo:hi], table.log_d[lo:hi]
        step = max(1, _BLOCK_ELEMENTS // (hi - lo))
        groups = [(live, True)]
        if live.size * (hi - lo) > _CERTIFY_PREFIX:
            env = _ratio_range(table.log_c, table.log_d, degree_weight, lo, hi)
            slack_t = abs_t * (1.0 - _SLACK)
            testing = slack_t[live] * np.fmin.reduce(env) < decay  # else no candidate
            groups = [(live[~testing], False), (live[testing], True)]
        for group, test in groups:
            for b in range(0, group.size, step):
                rows = group[b:b + step]
                if test and rows.size * (hi - lo) <= _CERTIFY_PREFIX:
                    redo = rows
                    carry = scale[redo] + np.log(total[redo]) if lo > start else None
                else:
                    lt = _log_terms(log_c, log_d, log_t[rows][:, None], degree_weight, lo)
                    # the partial sums from below lo, on the new scale
                    top = np.maximum(scale[rows], lt.max(axis=1))
                    carried = total[rows] * np.exp(scale[rows] - top)
                    e = np.exp(lt - top[:, None])
                    if not test:
                        total[rows], scale[rows] = e.sum(axis=1) + carried, top
                        continue
                    partial = e.cumsum(axis=1)
                    partial += carried[:, None]
                    rho = env * slack_t[rows, None]
                    ok = rho < decay
                    e *= rho
                    rhs = np.subtract(1.0, rho, out=rho)
                    rhs *= partial
                    rhs *= tol_slack
                    risky = (ok & (rhs < _TINY)).any(axis=1)
                    ok &= e <= rhs
                    for r in (ok.any(axis=1) & ~risky).nonzero()[0].tolist():
                        j = int(ok[r].argmax())
                        D, log_sum = lo + j, float(top[r]) + math.log(partial[r, j])
                        # the window's log terms, where this range holds all of them
                        window = lt[r, j - _RATIO_WINDOW:j + 1] if j >= _RATIO_WINDOW else None
                        tail = _tail_log(table, log_ts[rows[r]], degree_weight, D, window)
                        if tail <= log_tol + log_sum:
                            out[rows[r]] = (D, tail, log_sum)
                        else:
                            risky[r] = True
                    redo = rows[risky]
                    carry = scale[redo] + np.log(total[redo]) if lo > start else None
                    scale[rows], total[rows] = top, partial[:, -1]
                if redo.size:
                    tested = _log_space_range(table, log_t[redo][:, None], log_tol, degree_weight,
                                              lo, hi, carry)
                    for i, (D, tail, log_sum) in zip(redo.tolist(), tested):
                        if D is None:
                            scale[i], total[i] = log_sum, 1.0
                        else:
                            out[i] = (D, tail, log_sum)
        live = [i for i in live.tolist() if out[i] is None]
        if live and (hi == n_built or hi == _next_size(hi - 1)):
            # the rows a table of hi coefficients leaves to the epsilon envelope
            eps = _epsilon_tail_log(k, abs_t[live], hi - 1, degree_weight).tolist()
            for i, eps_log in zip(live, eps):
                if eps_log < math.inf and eps_log <= log_tol + sum_log(i):
                    out[i] = (hi - 1, eps_log, sum_log(i))
            live = [i for i in live if out[i] is None]
        if hi == n_built or not live:
            for i in live:
                out[i] = (None, None, sum_log(i))
            return out
        live = np.array(live)
        lo, hi = hi, min(_next_size(hi), hi + _BLOCK_ELEMENTS, n_built)


def _certify(k: KernelCoeffs, abs_ts, tol_rel: float, degree_weight: int,
             before_growth=None):
    """Truncation degree D and log tail bound for each |t| in abs_ts, the
    ones a fresh table would certify for them one at a time in this order.
    Returns lists (D, bound_log, sum_log): the relative tail bound is
    exp(min(bound_log, _epsilon_tail_log(..., D, ...)) - sum_log).

    A row certifies at the first table size s where the ratio test passes
    at a degree below s, or else where the epsilon envelope holds at s - 1
    (_ratio_scan takes both on the built table for all rows at once).  The
    rows it misses take their turn, in order: the table grows to its next
    size (before_growth(j, D) is called first, once the rows before j hold
    their D), else TruncationError at d_max.  After a growth the missed
    rows are scanned again.  The first row is scanned alone, so a |t| that
    needs the table grown, or cannot be certified, costs one row's scan
    rather than one per row.
    """
    if not (0.0 < tol_rel < math.inf):
        raise ValueError("tolerance must be a finite positive number")
    abs_ts = [float(t) for t in abs_ts]
    log_ts = [math.log(t) for t in abs_ts]
    D = [None] * len(abs_ts)
    bound_log = [None] * len(abs_ts)
    sum_log = [None] * len(abs_ts)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rows = list(range(len(abs_ts)))
        for pending in (rows[:1], rows[1:]):
            while pending:
                # one snapshot: another thread may publish a longer table
                table = k._table
                n_built = table.log_c.size
                scanned = _ratio_scan(k, table, [abs_ts[j] for j in pending],
                                      [log_ts[j] for j in pending], tol_rel,
                                      degree_weight)
                for j, (d, tail_log, cum) in zip(pending, scanned):
                    if d is not None:
                        D[j], bound_log[j], sum_log[j] = d, tail_log, cum
                pending = [j for j in pending if D[j] is None]
                if not pending or k.built > n_built:  # grown by another thread: scan that
                    continue
                j = pending[0]
                if before_growth is not None:
                    before_growth(j, D)
                if n_built >= k.d_max + 1:
                    lt = _log_terms(table.log_c, table.log_d, log_ts[j], degree_weight)
                    scale = float(lt.max())
                    with np.errstate(under="ignore", over="ignore"):
                        partial = float(np.exp(scale) * np.sum(np.exp(lt - scale)))
                    eps_log = float(_epsilon_tail_log(k, np.array([abs_ts[j]]), n_built - 1,
                                                      degree_weight)[0])
                    raise TruncationError(
                        f"tail not certified below {tol_rel:.1e} within "
                        f"d_max={k.d_max} at |t|={abs_ts[j]:.6g}",
                        partial_sum=partial, degree_used=n_built - 1,
                        tail_bound=math.exp(eps_log) if math.isfinite(eps_log) else None)
                k.ensure(n_built + 1)
    return D, bound_log, sum_log


def _scaled_terms(log_c: np.ndarray, log_d: np.ndarray, abs_t: float,
                  degree_weight: int):
    """(scale, gamma): the terms d^m c_d |t|^d over the degrees of log_c
    (log_d the logs of those degrees), divided by e^scale so that the
    largest is 1."""
    with np.errstate(under="ignore"):
        lt = _log_terms(log_c, log_d, math.log(abs_t), degree_weight)
        scale = float(lt.max())
        lt -= scale
        return scale, np.exp(lt, out=lt)


def _terms(k: KernelCoeffs, amax: float, tol: float, m: int):
    """Certified term table of sum_d d^m c_d t^d for every |t| <= amax.

    Returns (D, scale, gamma, tail_rel): the truncation degree, the rescaled
    terms gamma_d = d^m c_d amax^d / e^scale for d <= D (the largest is 1),
    and the certified relative tail bound at |t| = amax.
    """
    (D,), (bound_log,), (sum_log,) = _certify(k, [amax], tol, m)
    bound_log = min(bound_log, float(_epsilon_tail_log(k, np.array([amax]), D, m)[0]))
    table = k._table
    scale, gamma = _scaled_terms(table.log_c[:D + 1], table.log_d[:D + 1], amax, m)
    return D, scale, gamma, math.exp(bound_log - sum_log)


def _unscale(value, scale: float, what: str):
    """value * e^scale; NumericRangeError if that leaves double range."""
    mag = float(np.max(np.abs(value)))
    if mag > 0.0 and scale + math.log(mag) > _LOG_MAX:
        raise NumericRangeError(f"{what} exceeds double range")
    return value * math.exp(scale)


def _power_sums(k: KernelCoeffs, flat: np.ndarray, tol: float, degree_weight: int):
    """(values, D, tail_rel): sum_d d^m c_d t^d at each t of the 1-D complex
    array flat (not all zero), from the term table certified at max |t|.

    The powers of x = t / amax come by repeated multiplication, x^d =
    x^{d-1} x: D cheap multiplies instead of complex exps or cosines of a
    rounded angle times d.  Divide componentwise: complex division
    multiplies by a rounded 1/amax, and that one-ulp error compounds over D
    powers.  Many points take a block of degrees at a time: the rows of a
    (degrees x points) array are the powers, each the previous row times x,
    then the terms gamma_d x^d; one reduce down the degree axis, seeded
    with the running sums as row 0, adds them one degree after another, so
    the values are bit for bit those of one degree at a time.  One point
    runs the same recurrence along the degrees with np.multiply.accumulate
    and sums its terms with math.fsum, the real and imaginary parts each
    exactly rounded.  Where the series cancels, any rounded running sum
    keeps an error of about 1e-16 of the largest term: for exp11, n = 2, at
    t = 0.995i the sum is 4e-13 of it, so that error would be 1e-4 of the
    value.
    """
    amax = float(np.max(np.abs(flat)))
    D, scale, gamma, tail_rel = _terms(k, amax, tol, degree_weight)
    x = flat.real / amax + 1j * (flat.imag / amax)
    if x.size == 1:
        steps = np.full(gamma.size, x[0])
        steps[0] = 1.0
        terms = gamma * np.multiply.accumulate(steps)
        vals = np.array([complex(math.fsum(terms.real), math.fsum(terms.imag))])
    else:
        vals = np.full(x.shape, gamma[0], dtype=complex)
        p = np.ones(x.shape, dtype=complex)
        rows = max(1, min(gamma.size - 1, _BLOCK_ELEMENTS // x.size))
        buf = np.empty((rows + 1, x.size), dtype=complex)
        for d in range(1, gamma.size, rows):
            g = gamma[d:d + rows, None]
            block = buf[:g.size + 1]
            for r in range(1, g.size + 1):
                p = np.multiply(p, x, out=block[r])
            p = p.copy()
            np.multiply(block[1:], g, out=block[1:])
            block[0] = vals
            np.add.reduce(block, axis=0, out=vals)
    return _unscale(vals, scale, "series value"), D, tail_rel


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
    vals, D, tail_rel = _power_sums(k, np.array([t], dtype=complex), tol, degree_weight)
    value = complex(vals[0])
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
    return _power_sums(k, flat, tol, degree_weight)[0].reshape(ts.shape)


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


def _first_level(D: int, start_nodes: int, max_nodes: int) -> int:
    """The first angle level for terms of degree <= D: start_nodes, doubled
    while the grid has fewer than (D+1)/2 nodes and the next level stays
    within max_nodes.  The levels skipped only alias the terms; from this
    one on, a settled mean compares two grids that each fold the terms at
    most once."""
    n_nodes = start_nodes
    while 2 * n_nodes < D + 1 and 2 * n_nodes <= max_nodes:
        n_nodes *= 2
    return n_nodes


def _folded(gammas, rows: list, period: int, width: int, alternate: bool) -> np.ndarray:
    """(len(rows), width) array whose row r folds gammas[rows[r]] onto period
    degrees: sum_m s^m gamma_{k + m period} at k < width, zero past the
    table, with s = -1 if alternate else 1 (width is period where a table
    is longer)."""
    out = np.zeros((len(rows), width))
    for o, i in zip(out, rows):
        gamma = gammas[i]
        o[:min(period, gamma.size)] = gamma[:period]
        # degrees d and d + period alias, with a sign flip if alternate
        for m, lo in enumerate(range(period, gamma.size, period), 1):
            chunk = gamma[lo:lo + period]
            fold = np.subtract if alternate and m % 2 else np.add
            fold(o[:chunk.size], chunk, out=o[:chunk.size])
    return out


def _midpoint_twiddles(prev_nodes: int) -> np.ndarray:
    """e^{-i pi k / N} for k < N/2, N = prev_nodes a power of two >= 2: the
    outer product of a coarse and a fine table of about sqrt(N/2) exps."""
    half = prev_nodes // 2
    fine = 1 << ((half.bit_length() - 1) // 2)
    angle = -math.pi / prev_nodes
    return np.multiply.outer(np.exp(1j * angle * np.arange(0, half, fine)),
                             np.exp(1j * angle * np.arange(fine))).ravel()


def _node_sums(gammas, rows: list, n_nodes: int) -> np.ndarray:
    """sum_{j<N} |p(2 pi j / N)| for the tables gammas[rows], N = n_nodes
    even, by one real FFT of the folded terms on the half circle."""
    # rows only as wide as the longest table: rfft pads them to n_nodes
    width = min(n_nodes, max(gammas[i].size for i in rows))
    spectrum = np.abs(np.fft.rfft(_folded(gammas, rows, n_nodes, width, False),
                                  n=n_nodes, axis=1))
    # |R_j| for 0 < j < N/2 stands for the nodes j and N - j
    half = n_nodes // 2
    return spectrum[:, 0] + 2.0 * np.add.reduce(spectrum[:, 1:half], axis=1) + spectrum[:, half]


def _midpoint_sums(gammas, rows: list, prev_nodes: int, twiddles: np.ndarray) -> np.ndarray:
    """sum_{j<N} |p((2j+1) pi / N)| for the tables gammas[rows], N =
    prev_nodes, by one complex FFT of length N/2; twiddles is
    _midpoint_twiddles(N)."""
    half = prev_nodes // 2
    folded = _folded(gammas, rows, prev_nodes, prev_nodes, True)
    u = np.empty((len(rows), half), dtype=complex)
    u.real = folded[:, :half]
    np.negative(folded[:, half:], out=u.imag)
    u *= twiddles
    return 2.0 * np.add.reduce(np.abs(np.fft.fft(u, axis=1)), axis=1)


def _fft_levels(gammas, first: list, tol: float, max_nodes: int):
    """Trapezoid means of |p(theta)| = |sum_d gamma_d e^{i d theta}| for each
    term table in gammas, on nested angle grids doubled from first[i] nodes
    (a power of two >= 2) until two levels agree to tol (the first levels
    share one doubling sequence).

    A row keeps its node sum S_N = sum_{j<N} |p(2 pi j / N)|; its mean on N
    nodes is S_N / N.  At its first level the terms are real, so |p(-theta)|
    = |p(theta)|, and one real FFT of the folded terms a_k = sum_m
    gamma_{k+mN} gives the half circle: S_N = |R_0| + |R_{N/2}| + 2
    sum_{0<j<N/2} |R_j|.  Each later level only adds the N midpoints,
    S_2N = S_N + sum_{j<N} |p((2j+1) pi / N)|.  With the alternating fold
    b_k = sum_m (-1)^m gamma_{k+mN} (degree d + N picks up e^{i pi (2j+1)}
    = -1), the midpoint values are conj p((2j+1) pi / N) = sum_{k<N} b_k
    e^{-i pi k (2j+1) / N}.  Midpoints j and N-1-j are complex conjugates,
    so the even j = 2l suffice, and splitting k at N/2 makes them one
    complex FFT of length N/2: z = fft(u), u_k = (b_k - i b_{k+N/2})
    e^{-i pi k / N}, and the midpoint sum is 2 sum_l |z_l|.  The tables
    at a level share one FFT per block of rows under _BLOCK_ELEMENTS, the
    rows at their first level apart from the others.  Returns (means,
    prev): a row's mean, or None with its last level's value in prev if
    max_nodes passed.
    """
    means = [None] * len(gammas)
    prev = [None] * len(gammas)
    sums = [0.0] * len(gammas)
    pending = list(range(len(gammas)))
    n_nodes = min(first)
    while pending and n_nodes <= max_nodes:
        step = max(1, _BLOCK_ELEMENTS // n_nodes)
        fresh = [i for i in pending if first[i] == n_nodes]
        older = [i for i in pending if first[i] < n_nodes]
        twiddles = _midpoint_twiddles(n_nodes // 2) if older else None
        for live in (fresh, older):
            for b in range(0, len(live), step):
                rows = live[b:b + step]
                added = (_node_sums(gammas, rows, n_nodes) if live is fresh
                         else _midpoint_sums(gammas, rows, n_nodes // 2, twiddles))
                for a, i in zip(added.tolist(), rows):
                    sums[i] += a
                    c = sums[i] / n_nodes
                    if prev[i] is not None and abs(c - prev[i]) <= tol * abs(c):
                        means[i] = c
                    else:
                        prev[i] = c
        pending = [i for i in pending if means[i] is None]
        n_nodes *= 2
    return means, prev


def _circle_means(k: KernelCoeffs, xs: list, D: list, tol: float,
                  start_nodes: int, max_nodes: int) -> np.ndarray:
    """Circle means of |R K| at the radii xs, certified at degrees D.  The
    term tables are built for blocks of consecutive radii whose degrees sum
    to at most _BLOCK_ELEMENTS; the first radius in order that fails raises
    what it raises alone."""
    table = k._table
    out = np.empty(len(xs))
    lo = 0
    while lo < len(xs):
        hi, size = lo + 1, D[lo] + 1
        while hi < len(xs) and size + D[hi] + 1 <= _BLOCK_ELEMENTS:
            size += D[hi] + 1
            hi += 1
        terms = [_scaled_terms(table.log_c[:D[i] + 1], table.log_d[:D[i] + 1], xs[i], 1)
                 for i in range(lo, hi)]
        first = [_first_level(D[i], start_nodes, max_nodes) for i in range(lo, hi)]
        means, prev = _fft_levels([g for _, g in terms], first, tol, max_nodes)
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

    The trapezoid means are taken on nested uniform angle grids, doubled
    until two levels agree.  The first level takes one real FFT (exactly
    the trapezoid values, on the half circle since the terms are real);
    each later level keeps the previous node sum and adds only the new
    midpoints, which one complex FFT of half the previous node count gives
    (see _fft_levels).  The grid starts at start_nodes, a power of two >=
    2, doubled up to at least (D+1)/2 nodes for the certified degree D
    (never past max_nodes): a coarser grid only aliases the terms.  The
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
    if start_nodes < 2 or start_nodes & (start_nodes - 1):
        raise ValueError("start_nodes must be a power of two >= 2")
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
