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
d^m c_d amax^d, d <= D, divided by e^scale so the largest is 1.  The
moments rho_x of a positive radial weight are log-convex in x, so the
steps sigma_d = log c_{d+1} - log c_d never rise, and neither does the
term ratio q_d = e^{rho_d}, rho_d = sigma_d (+ log((d+1)/d) for m = 1) +
log|t|.  The ratio at D therefore bounds every later one, and the tail
past D is at most term_D q_D / (1 - q_D).  D is the first degree where
rho_D < _DECAY and that bound is at most tol times the partial sum S_D:
a predicate monotone in D that reads degrees <= D + 1 only, so D does
not depend on how far the table has grown.  Each published table
carries its steps, and a table whose steps rise anywhere is refused.

Rows (one |t| each) are certified together, one snapshot of the table
for all, by numpy array passes that also yield their terms: searches over
all rows at once find d0, where each ratio first falls below e^_DECAY,
and a degree D_hi where the rule holds against a lower bound on S_D with
room for the rounding of the sums; each block of rows forms its terms
through D_hi in one buffer, scaled by the largest through d0, and D is
the first degree, from where the tail bound crosses tol times their sum
(S_D lies within the tail bound of it), at which the rule holds against
the partial sum S_D.  A row with D_hi below the last degree therefore
always certifies.  One |t| is a block of one row.

One point and arrays of points alike take their powers by the recursion
x^d = x^{d-1} x (one point's terms are summed exactly rounded, by
math.fsum); each result is multiplied back by e^scale, so only one
beyond double range fails.  Circle means take an array of radii at once:
each block of certified radii feeds the FFT levels from the block's
buffer.  Each mean climbs nested angle grids, first level from D: the
grid starts at no fewer than (D+1)/2 nodes.  The first level takes one
real FFT on the half circle (|p| is even in the angle, the terms being
real); each later level adds only the previous grid's midpoints to the
node sum, by one complex FFT of half the previous node count.  The radii
whose mean has not settled at a level share that level's FFT, in blocks
of at most _BLOCK_ELEMENTS.
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
    "KernelCoeffs", "KernelEvalInfo", "build_coeffs", "eval_kernel", "eval_g", "eval_rk",
    "eval_disk_kernel_deriv", "kernel_norm_sq", "rk_circle_mean", "kernel_values_many",
    "g_values_many",
]

_LOG_MAX = 709.0
#: the row rule needs the log term ratio at D below this
_DECAY = -1.0e-12
#: a coefficient table holds _FIRST_SIZE 2^k coefficients, or d_max + 1
_FIRST_SIZE = 257
#: elements in one (rows x angles) block when circle means are taken at
#: once, in the term buffer their rows share, and in one (degrees x points)
#: block of a many-point series; a single row may exceed it when circle
#: means are taken
_BLOCK_ELEMENTS = 1 << 17
#: degrees at which one round of a row search evaluates its predicate; the
#: search on the tail bound, dearer per degree, takes a quarter of them
_SEARCH_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class KernelEvalInfo:
    """Truncation metadata for one series evaluation."""

    degree_used: int
    tail_bound_rel: float
    tail_bound_abs: float


@dataclass(frozen=True)
class _Table:
    """One published size of a coefficient table: log c_d and log d for d <
    size, and the steps log c_{d+1} - log c_d for d < size - 1."""

    log_c: np.ndarray
    log_d: np.ndarray
    steps: np.ndarray


class KernelCoeffs:
    """Log-space kernel coefficients log c_d for degrees 0..d_max.

    Construction is lazy: the table holds 257 2^k coefficients (or d_max + 1,
    the cap) and grows through these sizes in turn, under a lock, whenever
    an evaluation needs deeper degrees.  Each growth extends the moment
    recurrence from its first degree, so every table holds the same
    coefficients, however far and in what steps it was asked to grow.  Each
    growth publishes one new _Table (log c_d, log d and steps of one size);
    one whose steps rise anywhere raises NumericRangeError and publishes
    nothing, as the moments of a radial weight are log-convex.  Extension
    is idempotent, so concurrent readers are safe.
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
        self._table = _Table(np.empty(0), np.empty(0), np.empty(0))
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
        steps = np.concatenate([old.steps, np.diff(log_c[max(lo - 1, 0):])])
        # the new steps and the last old one: none may rise (NaN fails too)
        first = max(lo - 2, 0)
        rises = ~(np.diff(steps[first:]) <= 0.0)
        if rises.any():
            at = first + 1 + int(rises.argmax())
            raise NumericRangeError(
                f"kernel coefficient steps rise at degree {at} of {size}: the "
                f"moments are not log-convex there to rounding (the moment grid "
                f"does not resolve the peak of t^x rho(t))")
        with np.errstate(divide="ignore"):  # log 0 = -inf
            log_d = np.concatenate([old.log_d, np.log(d, out=d)])
        del d
        self._table = _Table(log_c, log_d, steps)

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
# Truncation: the row rule
# ----------------------------------------------------------------------

def _rho(table: _Table, log_t, m: int, D):
    """rho_D = sigma_D (+ log((D+1)/D) for m = 1) + log|t|, the log of the
    term ratio past degree D: the degree weight m is 0 for the kernel and 1
    for sum d c_d t^d.  D is an int or an int array broadcasting against
    log_t, and so are the arguments of _log_term and _tail."""
    r = table.steps[D]
    if m:
        r = r + (table.log_d[D + 1] - table.log_d[D])
    return r + log_t


def _log_term(table: _Table, log_t, m: int, D):
    """log |term_D| = D log|t| + log c_D (+ log D for m = 1)."""
    value = D * log_t + table.log_c[D]
    return value + table.log_d[D] if m else value


def _tail(table: _Table, log_t, m: int, D):
    """log(term_D q_D / (1 - q_D)), q_D = e^rho_D, the tail bound past D."""
    r = _rho(table, log_t, m, D)
    return _log_term(table, log_t, m, D) + r - np.log(-np.expm1(r))


def _first_true(pred, lo: np.ndarray, hi: np.ndarray, budget: int = _SEARCH_ELEMENTS):
    """Per row, the least D in (lo, hi] where pred holds, for pred false then
    true there and true at hi.  Each round calls pred(D) once, D the (rows,
    k) degrees spread evenly over each row's bracket, about budget of them
    in all, and keeps the step where pred turns true: brackets of at most k
    degrees take one round."""
    rows, k = np.arange(lo.size), max(2, budget // max(lo.size, 1))
    while lo.size and (most := int((hi - lo).max())) > 1:
        step = 1 if most <= k else -((lo - hi) // k)[:, None]
        D = np.minimum(lo[:, None] + step * np.arange(1, min(k, most) + 1), hi[:, None])
        j = pred(D).argmax(axis=1)  # the last column is hi, where pred holds
        if most <= k:
            return D[rows, j]
        lo, hi = np.where(j > 0, D[rows, j - 1], lo), D[rows, j]
    return hi


def _bracket(table: _Table, log_t: np.ndarray, m: int, log_tol: float):
    """(d0, hi) for the rows log_t (log|t| per row), stopping before the
    first row that the table surely cannot certify.  d0 is the first degree
    whose ratio is below e^_DECAY, past which the terms fall: + and < round
    alike in numpy and math, so d0 is exact.  hi is the first degree where
    the rule surely holds, else the last degree with a step.  Past d0 the
    ratios up to D are at least q_D, so S_D >= term_d0 (1 - q_D^(D-d0+1)) /
    (1 - q_D); "surely" leaves 1e-9 (1 + |line|), line = log tol + log
    term_d0, of room for the rounding of the sums that _pass forms, so
    _pass certifies every row with hi < last.  No term before d0 exceeds term_d0 e^(1e-12 d0), so S_last <=
    (last + 1) term_d0 e^(1e-12 last), with slack for rounding.  hi only
    bounds the terms a pass forms: D never depends on it (see _pass)."""
    last = table.log_c.size - 2
    log_t = log_t[:np.append(_rho(table, log_t, m, last) < _DECAY, False).argmin()]
    t, n = log_t[:, None], log_t.size
    d0 = _first_true(lambda D: _rho(table, t, m, D) < _DECAY, np.full(n, m - 1),
                     np.full(n, last))
    line = log_tol + _log_term(table, log_t, m, d0)
    sure_line = (line - 1.0e-9 * (1.0 + np.abs(line)))[:, None]

    def sure(D):
        r = _rho(table, t, m, D)
        return (_log_term(table, t, m, D) + r
                <= sure_line + np.log(-np.expm1((D - d0[:, None] + 1) * r)))

    at_last = sure(np.full((n, 1), last))[:, 0]
    hi = _first_true(sure, np.where(at_last, d0 - 1, last - 1), np.full(n, last))
    if not at_last.all():  # stop at the first row no degree can certify
        n = np.append(at_last | (_tail(table, log_t, m, last) <= line + math.log(last + 1)
                                 + 1.0e-12 * last + 1.0e-9), False).argmin()
    return d0[:n], hi[:n]


def _pass(table: _Table, log_t: np.ndarray, m: int, log_tol: float, d0: np.ndarray,
          hi: np.ndarray, terms: np.ndarray) -> list:
    """The row rule for each row from its terms through hi, formed back to
    back in the flat buffer terms: per row (D, scale, gamma), or None where
    no degree through hi passes.  scale is the largest log term through d0,
    past which the terms fall, and gamma = exp(log term - scale) for d <= D
    is a view of terms.

    A search finds D', the first degree where the tail bound is at most
    line = log tol + log S_hi.  As S_hi - S_D is at most the tail bound at
    D, the rule holds at D' or just past it; D is the first degree from D'
    where it holds against the partial sum S_D of gamma, so D does not
    depend on hi."""
    ends = np.cumsum(hi + 1)
    starts, flat = ends - hi - 1, terms[:ends[-1]]
    scale = np.empty(hi.size)
    degrees = np.arange(hi.max() + 1, dtype=float)
    for i, (lt, s, e, d) in enumerate(zip(log_t.tolist(), starts.tolist(), ends.tolist(),
                                          d0.tolist())):
        row = np.multiply(degrees[:e - s], lt, out=terms[s:e])
        row += table.log_c[:e - s]
        if m:
            row += table.log_d[:e - s]
        scale[i] = row[:d + 1].max()
        row -= scale[i]
    gamma = np.exp(flat, out=flat)
    line = log_tol + scale + np.log(np.add.reduceat(gamma, starts))
    t, live = log_t[:, None], _tail(table, log_t, m, hi) <= line
    D = _first_true(lambda D: _tail(table, t, m, D) <= line[:, None],
                    np.where(live, d0 - 1, hi - 1), hi, _SEARCH_ELEMENTS // 4)
    # S_D per row: the even segments of reduceat, the last running to the end
    cuts = np.column_stack([starts, starts + D + 1]).ravel()
    S = np.add.reduceat(gamma, cuts[:-1] if cuts[-1] == gamma.size else cuts)[::2]
    found = np.zeros(hi.size, dtype=bool)
    while live.any():
        holds = _tail(table, log_t, m, D) <= log_tol + scale + np.log(S)
        found |= live & holds
        live &= ~holds & (D < hi)
        D[live] += 1
        S[live] += gamma[starts[live] + D[live]]
    return [(d, sc, gamma[s:s + d + 1]) if ok else None for sc, s, d, ok in zip(
        scale.tolist(), starts.tolist(), D.tolist(), found.tolist())]


def _certified(table: _Table, log_t: np.ndarray, m: int, log_tol: float, work: dict):
    """Certify the rows log_t in order on one published table, in blocks
    whose terms through hi fill at most _BLOCK_ELEMENTS of the working set
    work (a single row may exceed it).  Yields each block's list of _pass
    tuples, to be used before the next is asked for; stops before the first
    row the table cannot certify: one past _bracket's rows, or one that
    _pass refuses, which it does only at hi = last."""
    d0, hi = _bracket(table, log_t, m, log_tol)
    i = 0
    while i < d0.size:
        j, used = i + 1, hi[i] + 1
        while j < d0.size and used + hi[j] + 1 <= _BLOCK_ELEMENTS:
            used += hi[j] + 1
            j += 1
        rows = _pass(table, log_t[i:j], m, log_tol, d0[i:j], hi[i:j],
                     _scratch(work, "terms", (used,)))
        for r, row in enumerate(rows):
            if row is None:
                if r:
                    yield rows[:r]
                return
        yield rows
        i = j


def _log_tol(tol: float) -> float:
    if not (0.0 < tol < math.inf):
        raise ValueError("tolerance must be a finite positive number")
    return math.log(tol)


def _grow_or_raise(k: KernelCoeffs, table: _Table, abs_t: float, tol: float,
                   degree_weight: int):
    """Grow k past the snapshot table for a row it cannot certify, or raise
    TruncationError where the table is at d_max: the partial sum through
    d_max, and the tail bound term_D q_D / (1 - q_D) at D = d_max - 1 where
    q_D < 1 (None otherwise)."""
    size = table.log_c.size
    if size < k.d_max + 1:
        return k.ensure(size + 1)
    log_t, last = math.log(abs_t), size - 2
    with np.errstate(under="ignore", over="ignore"):
        lt = np.arange(size, dtype=float) * log_t  # in place: the table is at d_max
        lt += table.log_c
        if degree_weight:
            lt += table.log_d
        scale = float(lt.max())
        partial = float(np.exp(scale) * np.sum(np.exp(lt - scale)))
        below_1 = last >= 0 and _rho(table, log_t, degree_weight, last) < 0.0
        tail_bound = float(np.exp(_tail(table, log_t, degree_weight, last))) if below_1 else None
    raise TruncationError(
        f"tail not certified below {tol:.1e} within d_max={k.d_max} at |t|={abs_t:.6g}",
        partial_sum=partial, degree_used=size - 1, tail_bound=tail_bound)


def _certified_growing(k: KernelCoeffs, abs_t: list, m: int, tol: float, work: dict):
    """Yield (table, rows) for each block of _certified over the rows |t| =
    abs_t in order; where a snapshot stops short of a row, the rows before
    it having gone first as alone, grow k past it or raise for it."""
    log_t, log_tol = np.array([math.log(x) for x in abs_t]), _log_tol(tol)
    done = 0
    while done < len(abs_t):
        table = k._table  # one snapshot: another thread may publish a longer table
        for rows in _certified(table, log_t[done:], m, log_tol, work):
            yield table, rows
            done += len(rows)
        if done < len(abs_t):
            _grow_or_raise(k, table, abs_t[done], tol, m)


def _terms(k: KernelCoeffs, amax: float, tol: float, m: int):
    """Certified term table of sum_d d^m c_d t^d for every |t| <= amax.

    Returns (D, scale, gamma, tail_rel): the truncation degree, the rescaled
    terms gamma_d = d^m c_d amax^d / e^scale for d <= D (the largest is 1),
    and the certified relative tail bound at |t| = amax, a single row of
    _certified_growing (TruncationError where d_max cannot certify it).
    """
    for table, rows in _certified_growing(k, [amax], m, tol, {}):
        D, scale, gamma = rows[0]
        sum_log = scale + math.log(np.add.reduce(gamma))
        return D, scale, gamma, math.exp(_tail(table, math.log(amax), m, D) - sum_log)


def _unscale(value, scale: float, what: str):
    """value * e^scale; NumericRangeError if that leaves double range.  A
    float is checked in math."""
    mag = abs(value) if isinstance(value, float) else float(np.max(np.abs(value)))
    if mag > 0.0 and scale + math.log(mag) > _LOG_MAX:
        raise NumericRangeError(f"{what} exceeds double range")
    return value * math.exp(scale)


def _power_sums(k: KernelCoeffs, flat: np.ndarray, tol: float, degree_weight: int):
    """(values, D, tail_rel): sum_d d^m c_d t^d at each t of the 1-D complex
    array flat (not all zero), from the term table certified at max |t|.

    The powers of x = t / amax come by repeated multiplication, x^d =
    x^{d-1} x, divided componentwise: complex division multiplies by a
    rounded 1/amax, and that one-ulp error compounds over D powers.  Many points take a block of degrees at a time: the rows of a
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


def _scratch(work: dict, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """A view of the given shape into work[name], a flat buffer that every
    block of one call reuses, grown only when a block needs more: the call
    faults its pages in once instead of once per block and level."""
    size = math.prod(shape)
    if work.get(name, np.empty(0)).size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _folded(gammas, rows: list, period: int, width: int, alternate: bool,
            out: np.ndarray) -> np.ndarray:
    """Write into out, (len(rows), width), row r folding gammas[rows[r]]
    onto period degrees: sum_m s^m gamma_{k + m period} at k < width, zero
    past the table, with s = -1 if alternate else 1 (width is period where a
    table is longer)."""
    for o, i in zip(out, rows):
        gamma = gammas[i]
        head = min(period, gamma.size)
        o[:head] = gamma[:head]
        o[head:] = 0.0
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


def _node_sums(gammas, rows: list, n_nodes: int, work: dict) -> np.ndarray:
    """sum_{j<N} |p(2 pi j / N)| for the tables gammas[rows], N = n_nodes
    even, by one real FFT of the folded terms on the half circle, in the
    working set work (see _scratch)."""
    # rows only as wide as the longest table: rfft pads them to n_nodes
    width = min(n_nodes, max(gammas[i].size for i in rows))
    half = n_nodes // 2
    folded = _folded(gammas, rows, n_nodes, width, False,
                     _scratch(work, "fold", (len(rows), width)))
    spectrum = np.fft.rfft(folded, n=n_nodes, axis=1,
                           out=_scratch(work, "spectrum", (len(rows), half + 1), complex))
    mag = np.abs(spectrum, out=_scratch(work, "magnitude", spectrum.shape))
    # |R_j| for 0 < j < N/2 stands for the nodes j and N - j
    return mag[:, 0] + 2.0 * np.add.reduce(mag[:, 1:half], axis=1) + mag[:, half]


def _midpoint_sums(gammas, rows: list, prev_nodes: int, twiddles: np.ndarray,
                   work: dict) -> np.ndarray:
    """sum_{j<N} |p((2j+1) pi / N)| for the tables gammas[rows], N =
    prev_nodes, by one complex FFT of length N/2; twiddles is
    _midpoint_twiddles(N), work the working set."""
    half = prev_nodes // 2
    folded = _folded(gammas, rows, prev_nodes, prev_nodes, True,
                     _scratch(work, "fold", (len(rows), prev_nodes)))
    u = _scratch(work, "twiddled", (len(rows), half), complex)
    u.real = folded[:, :half]
    np.negative(folded[:, half:], out=u.imag)
    u *= twiddles
    spectrum = np.fft.fft(u, axis=1, out=_scratch(work, "spectrum", (len(rows), half), complex))
    mag = np.abs(spectrum, out=_scratch(work, "magnitude", spectrum.shape))
    return 2.0 * np.add.reduce(mag, axis=1)


def _fft_levels(gammas, first: list, tol: float, max_nodes: int, work=None):
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
    rows at their first level apart from the others, in one working set
    (see _scratch; a fresh one if work is None).  Returns (means, prev): a
    row's mean, or None with its last level's value in prev if max_nodes
    passed.
    """
    means, prev, sums = [None] * len(gammas), [None] * len(gammas), [0.0] * len(gammas)
    pending = list(range(len(gammas)))
    work = {} if work is None else work
    n_nodes = min(first)
    while pending and n_nodes <= max_nodes:
        step = max(1, _BLOCK_ELEMENTS // n_nodes)
        fresh = [i for i in pending if first[i] == n_nodes]
        older = [i for i in pending if first[i] < n_nodes]
        twiddles = _midpoint_twiddles(n_nodes // 2) if older else None
        for live in (fresh, older):
            for b in range(0, len(live), step):
                rows = live[b:b + step]
                added = (_node_sums(gammas, rows, n_nodes, work) if live is fresh
                         else _midpoint_sums(gammas, rows, n_nodes // 2, twiddles, work))
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


def rk_circle_mean(k: KernelCoeffs, xi, tol: float = 1.0e-8,
                   start_nodes: int = 256, max_nodes: int | None = None):
    """Angular mean of |R K| on the circle of radius xi:

        (1/2 pi) int |sum_d d c_d (xi e^{i theta})^d| d theta.

    The trapezoid means are taken on nested uniform angle grids, doubled
    until two levels agree (see _fft_levels).  The grid starts at
    start_nodes, a power of two >= 2, doubled up to at least (D+1)/2 nodes
    for the certified degree D (never past max_nodes): a coarser grid only
    aliases the terms.  Deep radii climb to large FFTs; these stay cheap.
    max_nodes defaults to max(2^20, 2 k.d_max), so a table deeper than
    2^19 degrees gets a grid that can resolve its terms.

    xi is a float or an array of radii.  An array gives, bit for bit, the
    values of one call per radius in C order, grows the table as those
    calls would, and raises what the first failing one would raise.  Its
    radii certify together (see _certified), block by block, and each
    block's radii share FFT levels.

    Computed with an overall exponential scale factor, so the only failure
    mode is a result whose true magnitude exceeds double range.
    """
    xs = np.asarray(xi, dtype=float)
    if not np.all((xs >= 0.0) & (xs < 1.0)):
        raise ValueError("xi must be in [0, 1)")
    if start_nodes < 2 or start_nodes & (start_nodes - 1):
        raise ValueError("start_nodes must be a power of two >= 2")
    if max_nodes is None:
        max_nodes = max(1 << 20, 2 * k.d_max)
    flat = xs.ravel()
    out = np.zeros(flat.size)
    todo = np.flatnonzero(flat)
    work, done = {}, 0  # work: every block's terms and FFT levels
    for _, rows in _certified_growing(k, flat[todo].tolist(), 1, tol, work):
        first = [_first_level(row[0], start_nodes, max_nodes) for row in rows]
        means, prev = _fft_levels([row[2] for row in rows], first, tol, max_nodes, work)
        for i, row, mean, last in zip(todo[done:].tolist(), rows, means, prev):
            if mean is None:  # the first radius in order that fails raises
                raise QuadratureError("circle mean did not stabilize", partial_value=last)
            out[i] = _unscale(mean, row[1], "circle mean")
        done += len(rows)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
