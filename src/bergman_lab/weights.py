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

Verdicts are never decided from a single threshold: a ratio sequence counts
as divergent only when its last-quartile log-slope on the natural geometric
scale exceeds SLOPE_TOLERANCE, and as bounded when the slope is small and
the ratios stay under the divergence threshold.  Everything else is
INCONCLUSIVE.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import logsumexp

from .errors import WeightDomainError
from .quadrature import QuadSpec, DEFAULT_SPEC, integrate_radial, integrate_to_end
from .utils import (DIVERGENCE_THRESHOLD, SLOPE_TOLERANCE, dyadic_radii,
                    last_quartile_log_slope)

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

    Supported kinds:

      standard     rho(r) = (1-r^2)^alpha,                     alpha > -1
      exponential  rho(r) = exp(-c/(1-r)^beta),                c, beta > 0
      logarithmic  rho(r) = (1-r)^gamma log(e/(1-r))^{-2},     gamma > -1
      tabulated    monotone-cubic interpolant of (r, value) samples

    Tabulated weights extrapolate past the last sample by the last
    interpolant segment; any such evaluation sets `extrapolation_used`, which
    downstream reports surface as a note.
    """

    def __init__(self, kind, label="", *, alpha=None, c=None, beta=None,
                 gamma=None, samples=None):
        self.kind = kind
        self.label = label or kind
        self.alpha = alpha
        self.c = c
        self.beta = beta
        self.gamma = gamma
        self.samples = None
        self.extrapolation_used = False
        self._pchip = None
        self._r_last = None

        if kind == "standard":
            if alpha is None or alpha <= -1:
                raise WeightDomainError("standard weight needs alpha > -1")
        elif kind == "exponential":
            if c is None or c <= 0 or beta is None or beta <= 0:
                raise WeightDomainError("exponential weight needs c > 0 and beta > 0")
        elif kind == "logarithmic":
            if gamma is None or gamma <= -1:
                raise WeightDomainError("logarithmic weight needs gamma > -1")
        elif kind == "tabulated":
            pts = np.asarray(samples, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
                raise WeightDomainError("tabulated weight needs >= 4 (r, value) samples")
            r, v = pts[:, 0], pts[:, 1]
            if np.any(r < 0) or np.any(r >= 1) or np.any(np.diff(r) <= 0):
                raise WeightDomainError("sample radii must be strictly increasing in [0,1)")
            if np.any(v <= 0):
                raise WeightDomainError("sample values must be positive")
            self.samples = pts
            self._pchip = PchipInterpolator(r, v, extrapolate=True)
            self._r_last = float(r[-1])
        else:
            raise WeightDomainError(f"unknown weight kind {kind!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def standard(cls, alpha, label=""):
        return cls("standard", label or f"standard(alpha={alpha:g})", alpha=alpha)

    @classmethod
    def exponential(cls, c, beta, label=""):
        return cls("exponential", label or f"exponential(c={c:g},beta={beta:g})",
                   c=c, beta=beta)

    @classmethod
    def logarithmic(cls, gamma, label=""):
        return cls("logarithmic", label or f"logarithmic(gamma={gamma:g})", gamma=gamma)

    @classmethod
    def tabulated(cls, samples, label="tabulated"):
        return cls("tabulated", label, samples=samples)

    # -- evaluation -----------------------------------------------------

    def _check_domain(self, r):
        if np.any(r < 0.0) or np.any(r >= 1.0):
            raise WeightDomainError("radius outside [0, 1)")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        self._check_domain(r)
        return self.eval_at_one_minus(1.0 - r)

    def eval_at_one_minus(self, u):
        """rho(1-u) from u = 1-r directly, avoiding cancellation near the boundary."""
        u = np.asarray(u, dtype=float)
        with np.errstate(under="ignore"):
            if self.kind == "standard":
                return (u * (2.0 - u)) ** self.alpha
            if self.kind == "exponential":
                return np.exp(-self.c * u ** (-self.beta))
            if self.kind == "logarithmic":
                return u ** self.gamma * (1.0 - np.log(u)) ** -2.0
            vals = self._pchip(1.0 - u)
            if np.any(1.0 - u > self._r_last):
                self.extrapolation_used = True
            if np.any(vals <= 0.0):
                raise WeightDomainError(
                    f"tabulated weight {self.label!r} is nonpositive "
                    "(extrapolated segment left the positive range)")
            return vals

    def log_eval_at_one_minus(self, u):
        """log rho(1-u), exact in the exponent even where rho underflows."""
        u = np.asarray(u, dtype=float)
        if self.kind == "standard":
            return self.alpha * (np.log(u) + np.log(2.0 - u))
        if self.kind == "exponential":
            return -self.c * u ** (-self.beta)
        if self.kind == "logarithmic":
            return self.gamma * np.log(u) - 2.0 * np.log(1.0 - np.log(u))
        return np.log(self.eval_at_one_minus(u))

    def descriptor(self) -> dict:
        """Round-trippable plain-dict form, mirroring the weight file format."""
        d = {"kind": self.kind, "label": self.label}
        if self.kind == "standard":
            d["alpha"] = self.alpha
        elif self.kind == "exponential":
            d["c"] = self.c
            d["beta"] = self.beta
        elif self.kind == "logarithmic":
            d["gamma"] = self.gamma
        else:
            d["samples"] = [[float(r), float(v)] for r, v in self.samples]
        return d


def eval_weight(w: RadialWeight, r: float) -> float:
    """rho(r) as a scalar; domain error outside [0,1)."""
    return float(w(float(r)))


def tail(w: RadialWeight, r, spec: QuadSpec | None = None):
    """Tail integral rhohat(r) = int_r^1 rho, by adaptive graded quadrature.

    r is a radius or an array of radii.  A float gives a float; an array
    gives an array of the same shape, whose initial meshes are evaluated in
    one pass (quadrature.integrate_to_end), bit for bit the values of one
    call per radius.

    Nonincreasing in r.  May underflow to exactly 0.0 for weights that decay
    faster than any power near the boundary; callers treat that as a flagged
    evidence point, not an error.
    """
    spec = spec or DEFAULT_SPEC
    radii = np.asarray(r, dtype=float)
    if not np.all((0.0 <= radii) & (radii < 1.0)):
        raise WeightDomainError("radius outside [0, 1)")
    if radii.ndim == 0:
        value, _ = integrate_radial(spec=spec, a=r, b=1.0, graded_end=1.0,
                                    f_dist=w.eval_at_one_minus)
        return max(float(value), 0.0)
    values, _ = integrate_to_end(w.eval_at_one_minus, 1.0 - radii, spec)
    return np.maximum(values, 0.0)


# ----------------------------------------------------------------------
# Moment table
# ----------------------------------------------------------------------

_SEG_NODES_FULL = np.polynomial.legendre.leggauss(24)
_SEG_NODES_HALF = np.polynomial.legendre.leggauss(12)
#: tail octaves reach u = 1-t = 2^-_GRID_DEPTH, head octaves t = 2^-_HEAD_DEPTH
_GRID_DEPTH = 80
_HEAD_DEPTH = 32


class MomentTable:
    """Memoized moments rho_x with a shared graded quadrature grid.

    The grid is a dyadic composite Gauss rule in u = 1-t, 24 points per
    octave down to u = 2^-80.  Because each octave resolves e^{-x u}-type
    boundary layers at its own scale, one grid serves every exponent from
    x = 1 up to roughly 2^40, far past what the kernel series
    needs at desk scale.  All sums are done in log space, so moments of
    rapidly decaying weights come out with full relative accuracy even when
    their linear value underflows.

    Scalar lookups are memoized in `entries` (value, abs error estimate);
    the estimate is the deviation from an embedded half-order rule plus a
    bound on the mass beyond the deepest octave.
    """

    def __init__(self, weight: RadialWeight):
        self.weight = weight
        self.entries: dict[float, tuple[float, float]] = {}
        self._lock = threading.RLock()
        self._grid = None

    # -- master grid ----------------------------------------------------

    def _build_grid(self):
        xg_f, wg_f = _SEG_NODES_FULL
        xg_h, wg_h = _SEG_NODES_HALF
        lt_f, lw_f, lt_h, lw_h = [], [], [], []
        tail_logmass = []
        head_logmass = None
        # head octaves t in [2^-j-1, 2^-j]: the t^x factor has a branch point
        # at t = 0, so the mesh must grade toward both endpoints
        for j in range(_HEAD_DEPTH, 0, -1):
            hi = 2.0 ** (-j)
            half = 0.25 * hi
            mid = 0.75 * hi
            for lt, lw, x, wq in ((lt_f, lw_f, xg_f, wg_f), (lt_h, lw_h, xg_h, wg_h)):
                t = mid + half * x
                lt.append(np.log(t))
                lw.append(np.log(half * wq)
                          + self.weight.log_eval_at_one_minus(1.0 - t))
            if j == _HEAD_DEPTH:
                head_logmass = logsumexp(lw_f[-1])
        # tail octaves u = 1-t in [2^-k-1, 2^-k], stored through u so the
        # boundary offset keeps full floating resolution
        for k in range(1, _GRID_DEPTH):
            hi = 2.0 ** (-k)
            half = 0.25 * hi
            mid = 0.75 * hi
            for lt, lw, x, wq in ((lt_f, lw_f, xg_f, wg_f), (lt_h, lw_h, xg_h, wg_h)):
                u = mid + half * x
                lt.append(np.log1p(-u))
                lw.append(np.log(half * wq) + self.weight.log_eval_at_one_minus(u))
            tail_logmass.append(logsumexp(lw_f[-1]))
        # unresolved slivers enter the error estimate only: past the deepest
        # tail octave (t^x <= 1 there), and below the deepest head octave
        # (t^x <= t <= 2^-_HEAD_DEPTH there)
        m1, m2 = tail_logmass[-1], tail_logmass[-2]
        ldiff = min(m1 - m2, -0.05)
        if math.isfinite(m1) and math.isfinite(ldiff):
            sliver_log = m1 + ldiff - math.log1p(-math.exp(ldiff))
        else:
            sliver_log = -math.inf  # mass beyond the grid underflows entirely
        head_sliver_log = head_logmass + (1 - _HEAD_DEPTH) * math.log(2.0)
        with np.errstate(under="ignore", over="ignore"):
            self._grid = {
                "logt_f": np.concatenate(lt_f), "logw_f": np.concatenate(lw_f),
                "logt_h": np.concatenate(lt_h), "logw_h": np.concatenate(lw_h),
                "sliver": math.exp(sliver_log) + math.exp(head_sliver_log),
            }

    def _g(self):
        with self._lock:
            if self._grid is None:
                self._build_grid()
            return self._grid

    # -- log-space batch API ---------------------------------------------

    def log_moments(self, xs) -> np.ndarray:
        """log rho_x for an arbitrary array of exponents x >= 1."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(xs < 1.0):
            raise WeightDomainError("moment exponent must be >= 1")
        g = self._g()
        out = np.empty(xs.size)
        block = max(1, (1 << 22) // g["logt_f"].size)
        for i in range(0, xs.size, block):
            xb = xs[i:i + block, None]
            out[i:i + block] = logsumexp(xb * g["logt_f"][None, :] + g["logw_f"][None, :],
                                         axis=1)
        return out

    def log_moments_arith(self, x0: float, step: float, count: int) -> np.ndarray:
        """log rho_x along the arithmetic progression x0, x0+step, ...

        Uses the recurrence t^{x+step} = t^x * t^step on the shared grid,
        refreshed exactly every few thousand terms so rounding never
        accumulates.  This is what makes deep kernel coefficient tables
        (hundreds of thousands of degrees) affordable.
        """
        if count <= 0:
            return np.empty(0)
        g = self._g()
        logt, logw = g["logt_f"], g["logw_f"]
        with np.errstate(under="ignore"):
            step_factor = np.exp(step * logt)
        out = np.empty(count)
        refresh = 16384
        j = 0
        while j < count:
            base = (x0 + j * step) * logt + logw
            scale = base.max()
            with np.errstate(under="ignore"):
                v = np.exp(base - scale)
                for i in range(min(refresh, count - j)):
                    s = np.add.reduce(v)
                    out[j + i] = scale + math.log(s)
                    if s < 1.0e-120:
                        v /= s
                        scale += math.log(s)
                    v *= step_factor
            j += min(refresh, count - j)
        return out

    # -- scalar API -------------------------------------------------------

    def moment_with_error(self, x: float) -> tuple[float, float]:
        x = float(x)
        if x < 1.0:
            raise WeightDomainError("moment exponent must be >= 1")
        with self._lock:
            if x in self.entries:
                return self.entries[x]
        g = self._g()
        lf = logsumexp(x * g["logt_f"] + g["logw_f"])
        lh = logsumexp(x * g["logt_h"] + g["logw_h"])
        with np.errstate(under="ignore", over="ignore"):
            value = math.exp(lf)
        err = abs(value * -math.expm1(lh - lf)) + g["sliver"]
        entry = (value, err)
        with self._lock:
            self.entries[x] = entry
        return entry

    def moment(self, x: float) -> float:
        """rho_x = int_0^1 t^x rho(t) dt, memoized."""
        return self.moment_with_error(x)[0]

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


def _ratio_verdict(params, ratios, scale, threshold, criterion_id, notes, aux=None):
    """Shared bounded/divergent/inconclusive logic for ratio sequences.

    scale is the abscissa the log-slope is measured against (log(1/(1-r)),
    log n, ...).  Bounded needs a small last-quartile slope and ratios under
    the threshold; divergent needs a clearly positive slope and ratios
    beyond the threshold.
    """
    params = np.asarray(params, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    evidence = list(zip(params.tolist(), ratios.tolist()))
    if ratios.size < 3:
        notes.append("fewer than 3 valid evidence points")
        return DiagnosticsReport(VERDICT_UNDECIDED, math.nan, evidence,
                                 criterion_id, notes, aux or {})
    slope = last_quartile_log_slope(scale, ratios)
    max_ratio = float(ratios.max())
    aux = dict(aux or {})
    aux["last_quartile_slope"] = slope
    if slope <= SLOPE_TOLERANCE and max_ratio < threshold:
        return DiagnosticsReport(VERDICT_IN, max_ratio, evidence,
                                 criterion_id, notes, aux)
    if slope > SLOPE_TOLERANCE and max_ratio >= threshold:
        return DiagnosticsReport(VERDICT_OUT, max_ratio, evidence,
                                 criterion_id, notes, aux)
    notes.append(f"slope {slope:.3g} and max ratio {max_ratio:.3g} do not "
                 "jointly certify either verdict")
    return DiagnosticsReport(VERDICT_UNDECIDED, max_ratio, evidence,
                             criterion_id, notes, aux)


def _extrapolation_note(w: RadialWeight, notes: list[str]):
    if w.kind == "tabulated" and w.extrapolation_used:
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
    return _ratio_verdict(radii[ok], ratios[ok], scale, threshold, "dhat-tail-halving",
                          notes)


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
    return _ratio_verdict(ns[finite], ratios[finite], np.log(ns[finite]), threshold,
                          "dhat-moment-doubling", notes, {"c0_head_ratio": c0})


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


def moment_tail_ratio(t: MomentTable, x: float,
                      spec: QuadSpec | None = None) -> float:
    """rho_x / rhohat(1 - 1/x); comparable above and below for class weights.

    Returns math.inf where the tail underflows to 0.0.
    """
    if x < 1.0:
        raise WeightDomainError("x must be >= 1")
    den = tail(t.weight, 1.0 - 1.0 / x, spec)
    return t.moment(x) / den if den > 0.0 else math.inf


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
    params = radii[ok].tolist()
    ratios = (num[ok] / den[ok]).tolist()
    evidence = list(zip(params, ratios))
    if len(ratios) < 3:
        notes.append("fewer than 3 valid evidence points")
        return DiagnosticsReport(VERDICT_UNDECIDED, math.nan, evidence,
                                 "regular-tail-density", notes)
    arr = np.asarray(ratios)
    scale = np.log(1.0 / (1.0 - np.asarray(params)))
    slope = last_quartile_log_slope(scale, arr)
    spread = float(arr.max() / arr.min())
    aux = {"last_quartile_slope": slope, "spread": spread}
    if abs(slope) <= SLOPE_TOLERANCE and spread < window_bound:
        return DiagnosticsReport(VERDICT_IN, float(arr.max()), evidence,
                                 "regular-tail-density", notes, aux)
    if abs(slope) > SLOPE_TOLERANCE:
        return DiagnosticsReport(VERDICT_OUT, float(arr.max()), evidence,
                                 "regular-tail-density", notes, aux)
    notes.append("bounded slope but spread beyond window")
    return DiagnosticsReport(VERDICT_UNDECIDED, float(arr.max()), evidence,
                             "regular-tail-density", notes, aux)
