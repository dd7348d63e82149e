"""Radial weight models, tail integrals, moments, and class diagnostics.

A radial weight rho is a positive integrable function on [0,1), extended to
the ball by rho(z) = rho(|z|).  The quantities driving everything else are

    tail:    rhohat(r) = int_r^1 rho(s) ds
    moment:  rho_x     = int_0^1 t^x rho(t) dt,  x >= 1.

The class diagnostics test the four equivalent characterizations of the
doubling-type class (tail halving rhohat(r) <= C rhohat((1+r)/2), the
power-envelope beta condition, moment-vs-tail comparability, and moment
doubling rho_n <= C rho_{2n}), plus the stricter regularity condition
rhohat(r) comparable to (1-r) rho(r).

Verdicts are never decided from a single threshold: each ratio sequence
is classified by utils.series_trend on its natural geometric scale, and a
verdict needs both that trend and the ratios' cap.  Everything else is
INCONCLUSIVE.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import WeightDomainError
from .quadrature import QuadSpec, DEFAULT_SPEC, integrate_to_end
from .quadrature import integrate_radial  # noqa: F401  (a module attribute that tracing patches)
from .utils import DIVERGENCE_THRESHOLD, dyadic_radii, series_trend

__all__ = [
    "RadialWeight",
    "MomentTable",
    "DiagnosticsReport",
    "eval_weight",
    "tail",
    "is_dhat_tail",
    "is_dhat_moments",
    "dhat_beta_estimate",
    "moment_tail_ratio",
    "is_regular",
]

VERDICT_IN = "IN_CLASS"
VERDICT_OUT = "NOT_IN_CLASS"
VERDICT_UNDECIDED = "INCONCLUSIVE"


class RadialWeight:
    """A positive integrable radial weight on [0,1).

    Supported kinds, each one entry of the kind table _KINDS:

      standard     rho(r) = (1-r^2)^alpha,                     alpha > -1
      exponential  rho(r) = exp(-c/(1-r)^beta),                c, beta > 0
      logarithmic  rho(r) = (1-r)^gamma log(e/(1-r))^{-2},     gamma > -1
      tabulated    monotone-cubic interpolant of >= 4 (r, value) samples

    Parameters are finite, and the label defaults to `kind(p=v,...)`.  The
    tabulated interpolant is PCHIP (Fritsch-Carlson slopes as scipy's
    PchipInterpolator takes them).  Tabulated weights extrapolate past the
    last sample by the last interpolant segment; any such evaluation sets
    `extrapolation_used`, which downstream reports surface as a note.
    """

    def __init__(self, kind, label="", *, alpha=None, c=None, beta=None,
                 gamma=None, samples=None):
        self._kind = _KINDS.get(kind)
        if self._kind is None:
            raise WeightDomainError(f"unknown weight kind {kind!r}")
        vars(self).update(alpha=alpha, c=c, beta=beta, gamma=gamma, samples=samples)
        bad = self._kind.admit(vars(self))
        if bad is not None:
            raise WeightDomainError(bad[1])
        self.kind = kind
        self.label = label or self._kind.label.format(**vars(self))
        self.extrapolation_used = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def standard(cls, alpha, label=""):
        return cls("standard", label, alpha=alpha)

    @classmethod
    def exponential(cls, c, beta, label=""):
        return cls("exponential", label, c=c, beta=beta)

    @classmethod
    def logarithmic(cls, gamma, label=""):
        return cls("logarithmic", label, gamma=gamma)

    @classmethod
    def tabulated(cls, samples, label="tabulated"):
        return cls("tabulated", label, samples=samples)

    # -- evaluation -----------------------------------------------------

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r >= 1.0):
            raise WeightDomainError("radius outside [0, 1)")
        return self.eval_at_one_minus(1.0 - r)

    def eval_at_one_minus(self, u):
        """rho(1-u) from u = 1-r directly, avoiding cancellation near the boundary."""
        with np.errstate(under="ignore"):
            return self._kind.rho(self, np.asarray(u, dtype=float))

    def log_eval_at_one_minus(self, u):
        """log rho(1-u), exact in the exponent even where rho underflows."""
        return self._kind.log_rho(self, np.asarray(u, dtype=float))

    def descriptor(self) -> dict:
        """Round-trippable plain-dict form, mirroring the weight file format."""
        d = {"kind": self.kind, "label": self.label}
        for name in self._kind.bounds:  # the samples array as nested lists
            d[name] = np.asarray(getattr(self, name)).tolist()
        return d


class _Kind(NamedTuple):
    """A weight kind: each parameter in descriptor order, with the exclusive
    lower bound of its domain and its type in a descriptor; the message for
    one outside it; the default label's format; rho(1-u), log rho(1-u)."""

    bounds: dict
    domain: str
    label: str
    rho: Callable
    log_rho: Callable
    param_type: type = float

    def admit(self, values):
        """(name, message) for the first parameter in values (a weight's
        attribute dict, or a descriptor's fields) outside its domain, or None."""
        for name, floor in self.bounds.items():
            x = values[name]
            if x is None or not math.isfinite(x) or x <= floor:
                return name, self.domain
        return None


class _Tabulated(_Kind):
    """The tabulated kind: admit turns the samples into an array, adding their _pchip."""

    def admit(self, values):
        try:
            pts = np.asarray(values["samples"], dtype=float)
        except (TypeError, ValueError) as exc:  # not a table of numbers
            return "samples", str(exc)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            return "samples", "tabulated weight needs >= 4 (r, value) samples"
        if not np.all(np.isfinite(pts)):
            return "samples", "tabulated weight samples must be finite"
        r, v = pts.T
        if np.any(r < 0) or np.any(r >= 1) or np.any(np.diff(r) <= 0):
            return "samples", "sample radii must be strictly increasing in [0,1)"
        if np.any(v <= 0):
            return "samples", "sample values must be positive"
        values["samples"], values["_pchip"] = pts, _Pchip(r, v)
        return None


def _tabulated_rho(w, u):
    vals = w._pchip(1.0 - u)
    if np.any(1.0 - u > w._pchip.x[-1]):
        w.extrapolation_used = True
    if np.any(vals <= 0.0):
        raise WeightDomainError(
            f"tabulated weight {w.label!r} is nonpositive "
            "(extrapolated segment left the positive range)")
    return vals


#: every weight kind, under the name its descriptors give
_KINDS = {
    "standard": _Kind(
        {"alpha": -1.0}, "standard weight needs finite alpha > -1",
        "standard(alpha={alpha:g})", lambda w, u: (u * (2.0 - u)) ** w.alpha,
        lambda w, u: w.alpha * (np.log(u) + np.log(2.0 - u))),
    "exponential": _Kind(
        {"c": 0.0, "beta": 0.0}, "exponential weight needs finite c > 0 and beta > 0",
        "exponential(c={c:g},beta={beta:g})",  # u^-beta = inf: rho = 0, log rho = -inf
        np.errstate(over="ignore")(lambda w, u: np.exp(-w.c * u ** (-w.beta))),
        np.errstate(over="ignore")(lambda w, u: -w.c * u ** (-w.beta))),
    "logarithmic": _Kind(
        {"gamma": -1.0}, "logarithmic weight needs finite gamma > -1",
        "logarithmic(gamma={gamma:g})", lambda w, u: u ** w.gamma * (1.0 - np.log(u)) ** -2.0,
        lambda w, u: w.gamma * np.log(u) - 2.0 * np.log(1.0 - np.log(u))),
    "tabulated": _Tabulated(
        {"samples": None}, "", "tabulated", _tabulated_rho,
        lambda w, u: np.log(w.eval_at_one_minus(u)), list),
}


class _Pchip:
    """Monotone piecewise cubic Hermite interpolant of three or more samples
    (x, y), x strictly increasing, with scipy's PchipInterpolator slopes: the
    weighted harmonic mean of the neighbouring secants where they share a
    sign (else 0), and at each end the three-point one-sided estimate,
    kept to the end secant's sign and to at most three times it where the
    secants change sign.  Outside [x_0, x_last] the end cubics continue.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        slopes = np.zeros_like(y)
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        slopes[1:-1][inner] = 1.0 / whmean[inner]
        slopes[0] = self._end_slope(h[0], h[1], m[0], m[1])
        slopes[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        # s = x - x_i on segment i: y_i + slopes_i s + c1 s^2 + c0 s^3
        t = (slopes[:-1] + slopes[1:] - 2.0 * m) / h
        self.x = x
        self.coeffs = (t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        i = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, self.x.size - 2)
        s = xs - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.coeffs)
        # added from the constant term up, in scipy's PPoly order: the same bits
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def eval_weight(w: RadialWeight, r: float) -> float:
    """rho(r) as a scalar; domain error outside [0,1)."""
    return float(w(float(r)))


def tail(w: RadialWeight, r, spec: QuadSpec | None = None):
    """Tail integral rhohat(r) = int_r^1 rho, by adaptive graded quadrature.

    r is a radius or an array of radii: one quadrature.integrate_to_end
    over the lengths 1 - r, so every radius gives, bit for bit, what it
    gives alone.  A float gives a float; an array gives an array of the
    same shape.

    Nonincreasing in r.  May underflow to exactly 0.0 for weights that decay
    faster than any power near the boundary; callers treat that as a flagged
    evidence point, not an error.
    """
    spec = spec or DEFAULT_SPEC
    radii = np.asarray(r, dtype=float)
    if not np.all((0.0 <= radii) & (radii < 1.0)):
        raise WeightDomainError("radius outside [0, 1)")
    values = np.maximum(integrate_to_end(w.eval_at_one_minus, 1.0 - radii, spec)[0], 0.0)
    return float(values) if radii.ndim == 0 else values


# ----------------------------------------------------------------------
# Moment table
# ----------------------------------------------------------------------

_SEG_NODES = np.polynomial.legendre.leggauss(24)
#: tail octaves reach u = 1-t = 2^-_GRID_DEPTH, head octaves t = 2^-_HEAD_DEPTH
_GRID_DEPTH = 80
_HEAD_DEPTH = 32
#: the mass past the grid is integrated in s = -log u over panels of this
#: many octaves, down to u = 2^-_BEYOND_DEPTH, where u is still a normal double
_BEYOND_PANEL = 16
_BEYOND_DEPTH = 1008
#: log_moments_arith recomputes its grid values exactly once per this many
#: terms, and retires the grid nodes whose scaled value has fallen below
#: _RETIRE, the smallest normal double, once per _COMPACT_EVERY terms
_REFRESH = 16384
_COMPACT_EVERY = 256
_RETIRE = np.finfo(float).tiny
#: exp(y) is exactly 0 for y below this: a log-space term this far under
#: another cannot change it through logaddexp
_LOG_UNDERFLOW = -746.0
#: elements in log_moments_arith's table of step-factor powers, and so in
#: one (degrees x live nodes) window
_ARITH_BLOCK = 1 << 16
#: nodes with x |log t| <= _FOLD_RADIUS over a whole refresh block enter
#: the moments through their Taylor polynomial of degree _FOLD_DEGREE in x
_FOLD_RADIUS = 2.0 ** -8
_FOLD_DEGREE = 6


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[i, j]) for each row i, about its largest entry;
    -inf for a row that is all -inf."""
    top = a.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
    out[top == -np.inf] = -np.inf
    return out


def _rim_fold(logt: np.ndarray, logw: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """log sum_j exp(logw_j + x logt_j) at each x of xs, for nodes with
    x |logt_j| <= _FOLD_RADIUS at every x: the polynomial
    sum_{k <= _FOLD_DEGREE} A_k x^k / k!, A_k = sum_j w_j (logt_j)^k taken
    about the largest log-weight.  The terms of e^y past y^6/6! add up to
    at most |y|^7/7! for y <= 0, so the remainder is below
    _FOLD_RADIUS^7 e^_FOLD_RADIUS / 7! < 2.8e-21 of the folded mass.
    -inf everywhere when there is no node."""
    top = logw.max(initial=-np.inf)
    if top == -np.inf:
        return np.full(xs.shape, -np.inf)
    w = np.exp(logw - top)
    poly = np.zeros(xs.shape)
    for k in range(_FOLD_DEGREE, -1, -1):
        poly = poly * xs + np.dot(w, logt ** k) / math.factorial(k)
    return top + np.log(poly)


def _arith_start(logv: np.ndarray, logt: np.ndarray, step: float):
    """(v, powers) that start log_moments_arith's windows: v = e^logv at
    the nodes where it is at least _RETIRE, and the table of their step
    factors f^1, ..., f^R, f = t^step, R x nodes <= _ARITH_BLOCK."""
    v = np.exp(logv)
    live = v >= _RETIRE
    v, logt = v[live], logt[live]
    rows = max(1, min(_COMPACT_EVERY, _ARITH_BLOCK // v.size))
    return v, np.multiply.accumulate(
        np.broadcast_to(np.exp(step * logt), (rows, v.size)), axis=0)


class MomentTable:
    """Moments rho_x with a shared graded quadrature grid.

    The grid is a dyadic composite Gauss rule in u = 1-t, 24 points per
    octave down to u = 2^-80.  Each octave resolves e^{-x u}-type boundary
    layers at its own scale: standard weights with alpha up to 200 match
    the Beta closed form within 1.3e-9 in log rho_x up to x = 1,048,579,
    the size of lgamma's own rounding there.  A peak of t^x rho(t) narrower
    than the node spacing inside an octave is not resolved, and exponential
    weights have one: against peak-located references, log rho_x of
    exp(-1/(1-t)) is off by 6e-14 at x = 1e4, 7.9e-8 at 1e5 and 1.9e-3 at
    524,291; of exp(-1/(1-t)^3) by 1.16 at 1e5; of exp(-1/(1-t)^20) by 6.4
    at 1e4.  All sums are done in log space, so moments of rapidly
    decaying weights keep their exponent even when their linear value
    underflows.

    The mass past u = 2^-80, where t^x = 1 to within x 2^-80, enters every
    moment as one number: a weight singular at the rim, such as
    (1-r^2)^-0.99, keeps a large share there.  It is integrated in s =
    -log u down to u = 2^-1008; past that the last two panels' masses are
    continued as a geometric series, which is exact for a power-law rim
    (1-r)^alpha and leaves about 1e-7 of a moment of (1-r)^-0.99 /
    log(e/(1-r))^2 out.

    Along an arithmetic progression of exponents (log_moments_arith) the
    nodes near the rim, where x |log t| <= 2^-8 over a block of exponents,
    enter as one Taylor polynomial in x, and the others advance in windows
    of degrees by a table of step-factor powers.
    """

    def __init__(self, weight: RadialWeight):
        self.weight = weight
        self._lock = threading.RLock()
        self._grid = None

    # -- master grid ----------------------------------------------------

    def _build_grid(self):
        xg, wg = _SEG_NODES
        # head octaves t in [2^-j-1, 2^-j], j = _HEAD_DEPTH..1: the t^x factor
        # has a branch point at t = 0, so the mesh must grade toward both
        # endpoints; tail octaves u = 1-t in [2^-k-1, 2^-k], k = 1.._GRID_DEPTH-1,
        # stored through u so the boundary offset keeps full floating resolution
        hi = 2.0 ** -np.arange(_HEAD_DEPTH, 0, -1.0)[:, None]
        t = 0.75 * hi + 0.25 * hi * xg
        lw_head = np.log(0.25 * hi * wg) + self.weight.log_eval_at_one_minus(1.0 - t)
        hi = 2.0 ** -np.arange(1.0, _GRID_DEPTH)[:, None]
        u = 0.75 * hi + 0.25 * hi * xg
        lw_tail = np.log(0.25 * hi * wg) + self.weight.log_eval_at_one_minus(u)
        self._grid = {
            "logt_f": np.concatenate([np.log(t).ravel(), np.log1p(-u).ravel()]),
            "logw_f": np.concatenate([lw_head.ravel(), lw_tail.ravel()]),
            "beyond": self._beyond_log(),
        }

    def _beyond_log(self) -> float:
        """log of the weight's mass past u = 2^-_GRID_DEPTH: Gauss panels
        in s = -log u (du = e^-s ds) of _BEYOND_PANEL octaves down to
        2^-_BEYOND_DEPTH, then the last two panels' masses continued as a
        geometric series when they decrease."""
        xg, wg = _SEG_NODES
        width = 0.5 * _BEYOND_PANEL * math.log(2.0)
        mids = (np.arange(_GRID_DEPTH, _BEYOND_DEPTH, _BEYOND_PANEL) * math.log(2.0)
                + width)
        s = mids[:, None] + width * xg
        with np.errstate(under="ignore", over="ignore", divide="ignore", invalid="ignore"):
            masses = _row_logsumexp(np.log(width * wg) - s
                                    + self.weight.log_eval_at_one_minus(np.exp(-s)))
        if math.isfinite(masses[-1]):
            step = masses[-1] - masses[-2]
            if step < 0.0:
                masses[-1] = np.logaddexp(masses[-1],
                                          masses[-1] + step - math.log1p(-math.exp(step)))
        return float(_row_logsumexp(masses[None, :])[0])

    def _g(self):
        with self._lock:
            if self._grid is None:
                self._build_grid()
            return self._grid

    # -- log-space batch API ---------------------------------------------

    def log_moments(self, xs) -> np.ndarray:
        """log rho_x for an arbitrary array of finite exponents x >= 1."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not np.all(np.isfinite(xs) & (xs >= 1.0)):
            raise WeightDomainError("moment exponent must be finite and >= 1")
        g = self._g()
        out = np.empty(xs.size)
        block = max(1, (1 << 22) // g["logt_f"].size)
        for i in range(0, xs.size, block):
            xb = xs[i:i + block, None]
            out[i:i + block] = _row_logsumexp(xb * g["logt_f"][None, :] + g["logw_f"][None, :])
        return np.logaddexp(out, g["beyond"], out=out)

    def log_moments_arith(self, x0: float, step: float, count: int) -> np.ndarray:
        """log rho_x along the arithmetic progression x0, x0+step, ...

        Works in refresh blocks of _REFRESH terms [x_a, x_b], each started
        from exact grid values, so rounding never accumulates past one
        block.  This is what makes deep kernel coefficient tables (hundreds
        of thousands of degrees) affordable.  In each block:

        - Rim fold.  The grid nodes with x_b |log t| <= 2^-8 enter as one
          Taylor polynomial in x (_rim_fold), added by logaddexp as the
          mass past the grid is; its remainder is below
          (2^-8)^7 e^(2^-8) / 7! < 2.8e-21 of the folded mass.  The fold
          is at most log sum_j w_j; where that lies more than 746 below
          the block's smallest value, exp of the difference is 0 and
          logaddexp would return that value, so the fold is skipped.
        - Power windows.  The other nodes advance by t^(x+step) = t^x f,
          f = t^step.  A table f, f^2, ..., f^R (R x live nodes <=
          _ARITH_BLOCK) comes from one np.multiply.accumulate; a window of
          up to R degrees is then one matrix-vector product (f^r) v, a
          BLAS dgemv that gives each degree's sum as one dot product, and
          one np.log.  The carried vector is v f^r at the window's last
          degree.  Every _COMPACT_EVERY terms the nodes whose scaled value
          has fallen below the smallest normal double, 2^-1022, retire
          from v and from the table's columns: a product in subnormals
          costs several normal ones, and deep exponents leave few nodes.
        - Restarts.  Where a sum falls below 1e-120 the window ends at that
          degree, and the next one restarts v from the exact grid values of
          every non-folded node, scaled by that sum, with a fresh table.
          A node retires only below 2^-1022 = e^-708.4; it never grows
          (f <= 1), and the sum stays above 1e-120 = e^-276 until the next
          restart, so a retired node stays below e^-432 of the sum.
          Carrying v over (v divided by the sum) instead would lose for
          good a node that underflowed early but dominates later in the
          block, as happens for steep weights such as exp(-1/(1-t)^20).

        The dgemv kernel is chosen for the CPU at run time, so the bits
        are fixed for one host and BLAS build, not across them.
        """
        if not (math.isfinite(x0) and math.isfinite(step)) or x0 < 1.0 or step < 0.0:
            raise WeightDomainError("moment progression needs finite x0 >= 1 and step >= 0")
        if count <= 0:
            return np.empty(0)
        g = self._g()
        logt, logw = g["logt_f"], g["logw_f"]
        out = np.empty(count)
        sums_buf = np.empty(_COMPACT_EVERY)
        for j in range(0, count, _REFRESH):
            n = min(_REFRESH, count - j)
            xs = x0 + (j + np.arange(n)) * step
            fold = xs[-1] * logt >= -_FOLD_RADIUS
            lt, lw = logt[~fold], logw[~fold]
            base = xs[0] * lt + lw
            scale = base.max()
            logs = out[j:j + n]
            with np.errstate(under="ignore"):
                v, powers = _arith_start(base - scale, lt, step)
                logs[0] = scale + math.log(np.add.reduce(v))
                i = 1
                while i < n:
                    if i % _COMPACT_EVERY == 0:
                        live = v >= _RETIRE
                        if not live.all():
                            v, powers = v[live], powers[:, live]
                    rows = min(_COMPACT_EVERY - i % _COMPACT_EVERY, n - i, powers.shape[0])
                    sums = np.matmul(powers[:rows], v, out=sums_buf[:rows])
                    # the first degree whose sum needs a rescale ends the window
                    last = int(np.argmax(sums < 1.0e-120))
                    if sums[last] >= 1.0e-120:
                        last = rows - 1
                    np.log(sums[:last + 1], out=logs[i:i + last + 1])
                    logs[i:i + last + 1] += scale
                    if sums[last] < 1.0e-120:
                        scale = logs[i + last]  # scale + log of that sum
                        v, powers = _arith_start(xs[i + last] * lt + lw - scale,
                                                 lt, step)
                    else:
                        v = v * powers[last]
                    i += last + 1
            # t^x <= 1: the fold is at most log sum_j w_j <= max log w + log(count)
            folded = logw[fold]
            if (folded.size and folded.max() + math.log(folded.size)
                    >= logs.min() + _LOG_UNDERFLOW):
                np.logaddexp(logs, _rim_fold(logt[fold], folded, xs), out=logs)
        return np.logaddexp(out, g["beyond"], out=out)

    # -- scalar API -------------------------------------------------------

    def moment(self, x: float) -> float:
        """rho_x = int_0^1 t^x rho(t) dt."""
        return math.exp(self.log_moment(x))

    def log_moment(self, x: float) -> float:
        return float(self.log_moments(np.array([float(x)]))[0])


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    """Outcome of one class-membership test.

    evidence holds (parameter, ratio) pairs actually used for the verdict;
    points whose denominators underflowed are excluded and counted in notes.
    For IN_CLASS verdicts estimated_constant is the max evidence ratio.
    """

    verdict: str
    estimated_constant: float
    evidence: list[tuple[float, float]]
    criterion_id: str
    notes: list[str] = field(default_factory=list)
    aux: dict = field(default_factory=dict)

    @property
    def in_class(self) -> bool:
        return self.verdict == VERDICT_IN

    def to_dict(self) -> dict:
        return {
            "criterion_id": self.criterion_id,
            "verdict": self.verdict,
            "estimated_constant": self.estimated_constant,
            "evidence": [[p, v] for p, v in self.evidence],
            "notes": list(self.notes),
            "aux": dict(self.aux),
        }


def _ratio_verdict(params, ratios, scale, criterion_id, notes, rule, bound, aux=None):
    """Report on the float arrays params and ratios, whose trend is taken
    against scale (log(1/(1-r)), log n, ...).  Fewer than 3 points are
    INCONCLUSIVE; otherwise rule(trend, ratios, bound, aux) gives the
    verdict and a note for INCONCLUSIVE, and may add fields to aux."""
    evidence = list(zip(params.tolist(), ratios.tolist()))
    trend = series_trend(scale, ratios)
    if trend.trend == "short":
        notes.append("fewer than 3 valid evidence points")
        return DiagnosticsReport(VERDICT_UNDECIDED, math.nan, evidence,
                                 criterion_id, notes, aux or {})
    aux = {**(aux or {}), "last_quartile_slope": trend.slope}
    verdict, note = rule(trend, ratios, bound, aux)
    if note:
        notes.append(note)
    return DiagnosticsReport(verdict, float(ratios.max()), evidence,
                             criterion_id, notes, aux)


def _doubling_rule(trend, ratios, threshold, aux):
    """IN: flat or falling, every ratio under threshold.  OUT: rising, the
    largest ratio at or past it."""
    top = float(ratios.max())
    if trend.trend in ("flat", "falling") and top < threshold:
        return VERDICT_IN, None
    if trend.trend == "rising" and top >= threshold:
        return VERDICT_OUT, None
    return VERDICT_UNDECIDED, (f"slope {trend.slope:.3g} and max ratio {top:.3g} "
                               "do not jointly certify either verdict")


def _regular_rule(trend, ratios, window_bound, aux):
    """IN: flat, max/min spread under window_bound.  OUT: rising or falling."""
    aux["spread"] = spread = float(ratios.max() / ratios.min())
    if trend.trend == "flat" and spread < window_bound:
        return VERDICT_IN, None
    if trend.trend in ("rising", "falling"):
        return VERDICT_OUT, None
    return VERDICT_UNDECIDED, "bounded slope but spread beyond window"


def _extrapolation_note(w: RadialWeight, notes: list[str]):
    if w.extrapolation_used:
        notes.append("tabulated weight extrapolated beyond last sample")


def is_dhat_tail(w: RadialWeight, radii=None, threshold: float = DIVERGENCE_THRESHOLD,
                 spec: QuadSpec | None = None) -> DiagnosticsReport:
    """Tail-halving test: ratios rhohat(r) / rhohat((1+r)/2) along the grid.

    This is the defining condition of the doubling-type class, so it is the
    canonical diagnostic; the others cross-check it.
    """
    radii = dyadic_radii() if radii is None else np.asarray(radii, dtype=float)
    num = tail(w, radii, spec)
    den = tail(w, 0.5 * (1.0 + radii), spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ok = (den > 0.0) & np.isfinite(ratios)
    notes = [f"r={r:.10g}: halved tail underflowed, point excluded" for r in radii[~ok]]
    _extrapolation_note(w, notes)
    scale = np.log(1.0 / (1.0 - radii[ok]))
    return _ratio_verdict(radii[ok], ratios[ok], scale, "dhat-tail-halving", notes,
                          _doubling_rule, threshold)


def is_dhat_moments(t: MomentTable, n_max: int = 4096,
                    threshold: float = DIVERGENCE_THRESHOLD,
                    spec: QuadSpec | None = None) -> DiagnosticsReport:
    """Moment-doubling test: ratios rho_n / rho_{2n} on a geometric n grid.

    Also reports the head constant rhohat(0) / rhohat(1/2) (the C0 part of
    the moment characterization) in aux.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    ns = []
    n = 1
    while n <= n_max:
        ns.append(n)
        n *= 2
    ns = np.asarray(ns, dtype=float)
    log_m = t.log_moments(np.concatenate([ns, 2.0 * ns]))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(log_m[:ns.size] - log_m[ns.size:])
    finite = np.isfinite(ratios)
    notes = [f"n={n:g}: moment ratio not finite, point excluded" for n in ns[~finite]]
    head, half = tail(t.weight, np.array([0.0, 0.5]), spec)
    c0 = float(head / half) if half > 0.0 else None
    if c0 is None:
        notes.append("head ratio: tail at 1/2 underflowed, reported as null")
    _extrapolation_note(t.weight, notes)
    return _ratio_verdict(ns[finite], ratios[finite], np.log(ns[finite]),
                          "dhat-moment-doubling", notes, _doubling_rule, threshold,
                          {"c0_head_ratio": c0})


def dhat_beta_estimate(w: RadialWeight, radii=None, beta_grid=None,
                       threshold: float = 1.0e3,
                       spec: QuadSpec | None = None):
    """Smallest grid beta with rhohat(r) <= C ((1-r)/(1-t))^beta rhohat(t), r <= t.

    Returns (beta0, C) where C is the sup of the normalized ratio over grid
    pairs, or None if no grid beta keeps the sup under the threshold (the
    inconclusive signal).  Meant for weights already classified IN_CLASS.
    """
    radii = dyadic_radii() if radii is None else np.asarray(radii, dtype=float)
    beta_grid = (np.arange(1, 17) * 0.5 if beta_grid is None
                 else np.asarray(beta_grid, dtype=float))
    v = tail(w, radii, spec)
    keep = v > 0.0
    log_tails = np.array([math.log(x) for x in v[keep]])
    log_one_minus = np.array([math.log1p(-r) for r in radii[keep]])
    log_threshold = math.log(threshold)
    for beta in beta_grid:
        h = log_tails - beta * log_one_minus
        # sup over r <= t of h(r) - h(t), radii sorted increasing
        sup = float(np.max(np.maximum.accumulate(h) - h))
        if sup <= log_threshold:
            return float(beta), math.exp(sup)
    return None


def moment_tail_ratio(t: MomentTable, x, spec: QuadSpec | None = None):
    """rho_x / rhohat(1 - 1/x); comparable above and below for class weights.

    x is an exponent or an array of exponents, as `tail` takes radii: a
    float gives a float, an array an array of the same shape, from one
    log_moments call and one array tail.  Each moment is math.exp of its
    log (np.exp rounds some of them differently).  Returns math.inf where
    the tail underflows to 0.0.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 1.0):
        raise WeightDomainError("x must be >= 1")
    moments = [math.exp(v) for v in t.log_moments(xs.ravel()).tolist()]
    dens = np.ravel(tail(t.weight, 1.0 - 1.0 / xs, spec)).tolist()
    ratios = [m / d if d > 0.0 else math.inf for m, d in zip(moments, dens)]
    return ratios[0] if xs.ndim == 0 else np.reshape(ratios, xs.shape)


def is_regular(w: RadialWeight, radii=None,
               window_bound: float = DIVERGENCE_THRESHOLD,
               spec: QuadSpec | None = None) -> DiagnosticsReport:
    """Regularity test: rhohat(r) / ((1-r) rho(r)) bounded above AND below."""
    radii = dyadic_radii() if radii is None else np.asarray(radii, dtype=float)
    den = (1.0 - radii) * np.array([float(w(float(r))) for r in radii])
    num = tail(w, radii, spec)
    ok = (den > 0.0) & (num > 0.0)
    notes = [f"r={r:.10g}: underflow, point excluded" for r in radii[~ok]]
    _extrapolation_note(w, notes)
    return _ratio_verdict(radii[ok], num[ok] / den[ok], np.log(1.0 / (1.0 - radii[ok])),
                          "regular-tail-density", notes, _regular_rule, window_bound)
