"""Quantitative machinery for both directions of the boundedness theorem.

Forward direction (class weight implies bounded projection): the boundedness
functional

    M(r) = (1 - r^2) int_{B_n} |R K(r e_1, w)| rho(w) dv(w)

stays bounded along the radial grid, and is dominated by the tail-ratio
majorant

    U(r) = 1 + int_0^r [rhohat(t/r) / rhohat(t)] (1-t)^{-2} dt.

Converse direction (bounded projection forces the class): the lower-bound
series sum_d rho_{2n-1+d}/rho_{2n-1+2d} |z|^d and its Cesaro means

    (1/N) sum_{d=1}^N rho_{d+2n-1} / rho_{2d+2n-1}

sit below M, so a divergent Cesaro profile witnesses unboundedness, and
bounded Cesaro means force the moment-doubling ratios rho_{4N}/rho_{6N} to
stay bounded.

Divergence is always judged by utils.series_trend on the natural scale of
each quantity (log 1/(1-r) for radial profiles, sqrt(N) for Cesaro means),
never by absolute thresholds alone.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import NumericRangeError, QuadratureError, TruncationError
from .kernel import KernelCoeffs, build_coeffs, rk_circle_mean
from .quadrature import (QuadSpec, DEFAULT_SPEC, _outer_spec, angular_mean,
                         integrate_radial, integrate_to_end)
from .utils import Trend, dyadic_radii, geometric_ints, series_trend
from .weights import (DiagnosticsReport, MomentTable, RadialWeight,
                      VERDICT_IN, VERDICT_OUT, is_dhat_moments, is_dhat_tail,
                      tail)

__all__ = [
    "TheoremReport",
    "AnalysisConfig",
    "bloch_seminorm",
    "boundedness_functional",
    "majorant",
    "pr_estimate_check",
    "lower_bound_series",
    "cesaro_lower",
    "moment_doubling_chain",
    "hardy_littlewood_check",
    "hardy_littlewood_converse",
    "theorem_check",
]

CONSISTENT_BOUNDED = "CONSISTENT_BOUNDED"
CONSISTENT_UNBOUNDED = "CONSISTENT_UNBOUNDED"
INCONSISTENT = "INCONSISTENT"
INCONCLUSIVE = "INCONCLUSIVE"

#: Looser error budget for O(1) profile sweeps; the defining integrals are
#: smooth and the verdicts are slope tests, so 1e-6 relative is ample.
PROFILE_SPEC = QuadSpec(tolerance=1.0e-8, rel_tolerance=1.0e-6)

#: Functional slope beyond which a positive class verdict counts as
#: contradicted rather than merely unsaturated (divergent weights land near
#: 25, unsaturated class weights below ~1.3 even at shallow depths).
FUNCTIONAL_CONTRADICTION_SLOPE = 2.0

#: Relative tolerance of the circle means of |R K| in the functional M(r)
#: and the disk estimate
CIRCLE_MEAN_TOL = 1.0e-7

#: v -> W(v) shared by the radii of one functional sweep (same weight, n and
#: rule); unset, each boundedness_functional call fills a dict of its own
_SLICE_PROFILES: ContextVar[dict | None] = ContextVar("slice_profiles", default=None)


def bloch_seminorm(rf, grid) -> float:
    """max over the grid of (1-|z|^2) |Rf(z)|, a lower bound for the seminorm.

    rf maps a BallPoint to the radial derivative value.  Grid points where
    the evaluator fails are skipped with a warning.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    best = 0.0
    skipped = 0
    for z in grid:
        try:
            val = abs(rf(z))
        except Exception as exc:  # evaluator failures are data, not fatal
            skipped += 1
            warnings.warn(f"bloch_seminorm: evaluator failed at |z|={z.norm:.6g}: {exc}")
            continue
        best = max(best, (1.0 - z.norm ** 2) * val)
    if skipped:
        warnings.warn(f"bloch_seminorm: {skipped} of {len(grid)} grid points skipped")
    return best


def _slice_integrand(w: RadialWeight, n: int):
    """s^{2n-3} (1 - v^2/s^2)^{n-2} rho(s) in the distance u = 1 - s, for
    the parameter v."""
    def f_dist(u, v):
        s = 1.0 - u
        base = s ** (2 * n - 3) * w.eval_at_one_minus(u)
        if n > 2:
            base = base * (1.0 - (v / s) ** 2) ** (n - 2)
        return base

    return f_dist


def _slice_weight_profiles(w: RadialWeight, n: int, vs: list, spec: QuadSpec) -> list:
    """W(v) = v int_v^1 s^{2n-3} (1 - v^2/s^2)^{n-2} rho(s) ds  (n >= 2)
    for every v < 1 in vs: one integrate_to_end over the lengths 1 - v,
    each integrand node carrying its own v."""
    v = np.array(vs, dtype=float)
    vals, _ = integrate_to_end(_slice_integrand(w, n), 1.0 - v, spec, v)
    return (v * vals).tolist()


def boundedness_functional(k: KernelCoeffs, w: RadialWeight, r: float,
                           q: QuadSpec | None = None) -> float:
    """M(r) = (1 - r^2) int_{B_n} |R K(r e_1, w)| rho(w) dv(w).

    By unitary invariance the integral depends on |z| only, so z = r e_1.
    Evaluation pipeline: the polar ball integral composed with the slice
    reduction of the sphere average; collapsing the two radial variables
    onto their product v = s|lambda| leaves

        M(r) = 4 n (n-1) (1 - r^2) int_0^1 A(r v) W(v) dv      (n >= 2)
        M(r) = 2 (1 - r^2) int_0^1 s rho(s) A(r s) ds          (n = 1)

    where A is the angular mean of |R K| on a circle (rk_circle_mean, i.e.
    the slice average's trapezoid rule evaluated by FFT) and W folds the
    weighted radial factors.  The outer integral's initial mesh is graded
    toward the rim only down to the kernel's scale 1 - r, by the rule
    quadrature._outer_spec, which the pr-check left-hand side shares;
    bisection refines past it where the integrand asks.  Each integrand
    call takes A at all its nodes in one array and, at every n >= 2, W at
    the nodes it lacks in one batch (_slice_weight_profiles), always under
    q itself, so W(v) does not depend on r.  Custom projections of symbols
    of the slice variable alone integrate against the same W.  The nested
    form is checked against this one in the tests.

    Raises TruncationError or NumericRangeError when the kernel series at
    r cannot be certified within the table's d_max or leaves double range;
    profile sweeps treat those radii as flagged points.
    """
    q = q or PROFILE_SPEC
    if not (0.0 <= r < 1.0):
        raise ValueError("r must be in [0, 1)")
    if r == 0.0:
        return 0.0
    n = k.n
    outer = _outer_spec(q, r)

    # integrands in the distance u = 1 - s (or 1 - v) from the rim, so each
    # call takes every node of the initial mesh in one rk_circle_mean call
    if n == 1:
        def f_dist(u):
            s = 1.0 - u
            return 2.0 * s * w.eval_at_one_minus(u) * rk_circle_mean(k, r * s, CIRCLE_MEAN_TOL)

        val, _ = integrate_to_end(f_dist, 1.0, outer)
        return (1.0 - r * r) * val[()]

    w_cache = _SLICE_PROFILES.get()
    if w_cache is None:
        w_cache = {}

    def f_dist(u):
        v = 1.0 - u
        nodes = v.tolist()
        missing = [vi for vi in dict.fromkeys(nodes) if vi < 1.0 and vi not in w_cache]
        try:
            if missing:
                w_cache.update(zip(missing, _slice_weight_profiles(w, n, missing, q)))
        except Exception:
            for vi in missing:  # the first W(v) failing alone raises after the earlier means
                try:
                    w_cache[vi], = _slice_weight_profiles(w, n, [vi], q)
                except Exception:
                    rk_circle_mean(k, r * v[:nodes.index(vi)], CIRCLE_MEAN_TOL)
                    raise
            raise
        profile = np.array([w_cache.get(vi, 0.0) for vi in nodes])  # W(v) = 0 for v >= 1
        return rk_circle_mean(k, r * v, CIRCLE_MEAN_TOL) * profile

    val, _ = integrate_to_end(f_dist, 1.0, outer)
    return 4.0 * n * (n - 1) * (1.0 - r * r) * val[()]


def _functional_sharing_profiles(profiles: dict, k: KernelCoeffs, w: RadialWeight,
                                 r: float, q: QuadSpec | None) -> float:
    """boundedness_functional(k, w, r, q), reading and filling W(v) in profiles.

    The dict travels in a context variable rather than a parameter, so the
    sweep still goes through the public function and anything wrapped
    around that name (such as tracing spans) sees every radius.  Filling the
    dict is idempotent (W(v) is a pure function of v for a fixed weight, n
    and rule), so worker threads may share it.
    """
    token = _SLICE_PROFILES.set(profiles)
    try:
        return boundedness_functional(k, w, r, q)
    finally:
        _SLICE_PROFILES.reset(token)


def majorant(w: RadialWeight, r: float, q: QuadSpec | None = None) -> float:
    """U(r) = 1 + int_0^r [rhohat(t/r)/rhohat(t)] (1-t)^{-2} dt.

    The tail ratio is at most 1 and vanishes as t -> r, so the integrand is
    integrable; where both tails underflow the ratio is treated as 0 (its
    true value is astronomically small there).
    """
    q = q or PROFILE_SPEC
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")

    def f(t):
        t = np.atleast_1d(t)
        den = tail(w, t, q)
        num = tail(w, t / r, q)
        out = np.divide(num, den, out=np.zeros(t.size), where=den > 0.0)
        return out / (1.0 - t) ** 2

    val, _ = integrate_radial(f, q, a=0.0, b=r)
    return 1.0 + val


def pr_estimate_check(k: KernelCoeffs, w: RadialWeight, s: float,
                      q: QuadSpec | None = None):
    """Two-sided check of the disk-kernel derivative estimate

        int_D |d^n/dz^n K1(z, s)| (1-|z|^2)^{n-2} dA(z)
            ~  int_0^s dt / (rhohat(t) (1-t)^2),     1/2 <= s < 1.

    Returns (lhs, rhs, ratio).  The left side uses the identity
    d^n/dz^n K1(z, w) = g(z conj w) conj(w)^n / 2 and the angular-mean
    reduction mean|g|(xi) = 2 Gamma(n+1) A(xi) / xi, leaving a single radial
    quadrature in the rim distance, on the functional's mesh graded only
    down to the kernel's scale 1 - s (quadrature._outer_spec); the literal
    nested quadrature agrees (tested at moderate s).
    """
    q = q or PROFILE_SPEC
    n = k.n
    if n < 2:
        raise ValueError("the disk estimate needs n >= 2")
    if not (0.5 <= s < 1.0):
        raise ValueError("s must be in [1/2, 1)")
    gfac = 2.0 * math.gamma(n + 1)

    def f_lhs(dist):
        # u (1-u^2)^{n-2} * mean|g|(s u), with mean|g|(xi) = 2 Gamma(n+1) A(xi)/xi,
        # at u = 1 - dist
        u = 1.0 - dist
        xi = s * u
        mean_g = np.divide(gfac * rk_circle_mean(k, xi, CIRCLE_MEAN_TOL), xi,
                           out=np.zeros(xi.shape), where=xi > 0)
        return u * (1.0 - u * u) ** (n - 2) * mean_g

    lhs_int, _ = integrate_to_end(f_lhs, 1.0, _outer_spec(q, s))
    lhs = s ** n * lhs_int[()]

    def f_rhs(t):
        t = np.atleast_1d(t)
        th = tail(w, t, q)
        return np.divide(1.0, th * (1.0 - t) ** 2, out=np.full(t.size, math.inf),
                         where=th > 0)

    rhs, _ = integrate_radial(f_rhs, q, a=0.0, b=s)
    return lhs, rhs, lhs / rhs


def lower_bound_series(t: MomentTable, n: int, r: float, d_max: int = 4096,
                       tol: float = 1.0e-8) -> float:
    """Truncated sum_{d>=1} rho_{2n-1+d}/rho_{2n-1+2d} r^d.

    The moment ratios grow subexponentially, so the terms are eventually
    dominated by a geometric envelope; summation stops when the observed
    envelope certifies the tail below tol, and raises TruncationError if
    d_max terms cannot.
    """
    if not (0.0 <= r < 1.0):
        raise ValueError("r must be in [0, 1)")
    if r == 0.0:
        return 0.0
    total = 0.0
    block = 512
    d0 = 1
    log_r = math.log(r)
    prev_tail_term = None
    while d0 <= d_max:
        count = min(block, d_max - d0 + 1)
        lm1 = t.log_moments_arith(2 * n - 1 + d0, 1.0, count)
        lm2 = t.log_moments_arith(2 * n - 1 + 2 * d0, 2.0, count)
        d = np.arange(d0, d0 + count, dtype=float)
        log_terms = lm1 - lm2 + d * log_r
        if prev_tail_term is not None:
            log_terms_all = np.concatenate([[prev_tail_term], log_terms])
        else:
            log_terms_all = log_terms
        total += float(np.sum(np.exp(log_terms)))
        steps = np.diff(log_terms_all)
        if steps.size >= 8:
            rhat = float(np.max(steps[-8:]))
            if rhat < -1e-12:
                tail_bound = math.exp(log_terms[-1] + rhat - math.log1p(-math.exp(rhat)))
                if tail_bound < tol * max(total, 1.0):
                    return total
        prev_tail_term = float(log_terms[-1])
        d0 += count
    raise TruncationError(
        f"series tail not below {tol:.1e} within d_max={d_max}",
        partial_sum=total, degree_used=d_max)


def cesaro_lower(t: MomentTable, n: int, N: int) -> float:
    """(1/N) sum_{d=1}^N rho_{d+2n-1} / rho_{2d+2n-1}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _cesaro_profile(t, n, [N])[0][1]


def _cesaro_profile(t: MomentTable, n: int, ns) -> list[tuple[int, float]]:
    """(N, cesaro_lower(t, n, N)) for each N of ns, from one pair of
    progressions of length max(ns): each mean is that of a prefix of the
    ratios.  A progression's refresh blocks fold the rim up to their own
    last exponent, so a prefix's moments match a shorter call's to
    rounding, not bit for bit.  A ratio past double range is inf, and so
    is every mean that takes it."""
    count = max(ns)
    lm1 = t.log_moments_arith(2 * n, 1.0, count)
    lm2 = t.log_moments_arith(2 * n + 1, 2.0, count)
    with np.errstate(over="ignore"):
        ratios = np.exp(lm1 - lm2)
        return [(N, float(np.mean(ratios[:N]))) for N in ns]


def moment_doubling_chain(t: MomentTable, N_list):
    """Ratios rho_{4N}/rho_{6N} along N_list; bounded whenever the Cesaro
    means are, by the chain rho_k <= rho_{8N} <~ rho_{12N} <~ rho_{18N} <= rho_{2k}."""
    ns = np.asarray(N_list, dtype=float)
    lm = t.log_moments(np.concatenate([4.0 * ns, 6.0 * ns]))
    return [(int(N), math.exp(a - b))
            for N, a, b in zip(ns.tolist(), lm[:ns.size].tolist(), lm[ns.size:].tolist())]


# ----------------------------------------------------------------------
# Hardy-Littlewood coefficient inequalities (disk, polynomials)
# ----------------------------------------------------------------------

def hardy_littlewood_check(coeffs, p: float, q: QuadSpec | None = None):
    """Coefficient inequality sum (j+1)^{p-2} |a_j|^p <~ ||f||_p^p, 0 < p <= 2.

    Returns (lhs, rhs_norm_p) with rhs_norm_p = ||f||_p^p computed on the
    unit circle (polynomials are continuous up to the boundary, where the
    Hardy norm is attained).  The caller asserts lhs <= C * rhs.
    """
    q = q or DEFAULT_SPEC
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        raise ValueError("empty coefficient list")
    if not (0.0 < p <= 2.0):
        raise ValueError("p must be in (0, 2]")
    j = np.arange(coeffs.size, dtype=float)
    lhs = float(np.sum((j + 1.0) ** (p - 2.0) * np.abs(coeffs) ** p))
    norm_p_p = angular_mean(lambda z: np.abs(polyval(z, coeffs)) ** p, 1.0, q,
                            start_nodes=max(256, 4 * coeffs.size))
    return lhs, float(norm_p_p)


def hardy_littlewood_converse(coeffs, q_exp: float, q: QuadSpec | None = None):
    """Converse inequality ||f||_q^q <~ sum (j+1)^{q-2} |a_j|^q, q >= 2.

    Returns (norm_q_q, rhs).  At q = 2 both sides are the Parseval sum.
    """
    q = q or DEFAULT_SPEC
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        raise ValueError("empty coefficient list")
    if q_exp < 2.0:
        raise ValueError("q must be >= 2")
    j = np.arange(coeffs.size, dtype=float)
    rhs = float(np.sum((j + 1.0) ** (q_exp - 2.0) * np.abs(coeffs) ** q_exp))
    norm_q_q = angular_mean(lambda z: np.abs(polyval(z, coeffs)) ** q_exp, 1.0, q,
                            start_nodes=max(256, 4 * coeffs.size))
    return float(norm_q_q), rhs


# ----------------------------------------------------------------------
# Theorem check
# ----------------------------------------------------------------------

@dataclass
class AnalysisConfig:
    """Knobs for theorem_check; defaults match the desk-scale grids."""

    k_max: int = 12
    d_max: int = 1 << 19
    cesaro_exponents: tuple[int, int] = (4, 12)
    moment_n_max: int = 4096
    quad: QuadSpec = field(default_factory=lambda: PROFILE_SPEC)
    threads: int = 1


@dataclass
class TheoremReport:
    """Combined evidence for one weight: class verdicts, the forward
    functional and majorant profiles, the converse Cesaro profile, and the
    resulting consistency conclusion."""

    weight_label: str
    dhat_verdict: DiagnosticsReport
    moment_verdict: DiagnosticsReport
    functional_profile: list[tuple[float, float]]
    majorant_profile: list[tuple[float, float]]
    cesaro_profile: list[tuple[int, float]]
    conclusion: str
    notes: list[str] = field(default_factory=list)
    aux: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "weight_label": self.weight_label,
            "conclusion": self.conclusion,
            "dhat_verdict": self.dhat_verdict.to_dict(),
            "moment_verdict": self.moment_verdict.to_dict(),
            "functional_profile": [[r, m] for r, m in self.functional_profile],
            "majorant_profile": [[r, u] for r, u in self.majorant_profile],
            "cesaro_profile": [[n, c] for n, c in self.cesaro_profile],
            "notes": list(self.notes),
            "aux": dict(self.aux),
        }


def _sweep(fn, params, notes, label, threads=1):
    """Evaluate fn over params, flagging failed points instead of aborting.

    Skip notes are appended in parameter order, whichever worker finishes
    first, so reports do not depend on thread scheduling.
    """
    def one(p):
        try:
            return fn(p), None
        except (TruncationError, NumericRangeError, QuadratureError) as exc:
            return None, f"{label} at {p:.10g} skipped: {type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, params))
    else:
        results = [one(p) for p in params]
    notes.extend(note for _, note in results if note is not None)
    return [(float(p), float(v)) for p, (v, _) in zip(params, results)
            if v is not None]


def _conclusion(verdicts: tuple[str, str], func: Trend, ces: Trend):
    """(conclusion, note or None) from the tail-halving and moment-doubling
    verdicts and the trends of the functional and Cesaro profiles."""
    if VERDICT_IN in verdicts and VERDICT_OUT in verdicts:
        return INCONSISTENT, "tail-halving and moment-doubling verdicts disagree"
    if verdicts == (VERDICT_IN, VERDICT_IN):
        if func.trend == "short":
            return INCONCLUSIVE, "class weight but functional profile too short"
        if func.trend in ("flat", "falling"):
            return CONSISTENT_BOUNDED, None
        if func.slope > FUNCTIONAL_CONTRADICTION_SLOPE:
            return INCONSISTENT, "class weight but functional profile diverges"
        # class-weight profiles still rise at shallow grid depths (slopes up
        # to ~1.3 at k <= 4); only far larger slopes are evidence against
        # boundedness rather than of truncation
        return INCONCLUSIVE, ("functional profile still rising at this depth; "
                              "deepen the radial grid")
    if verdicts == (VERDICT_OUT, VERDICT_OUT):
        if ces.trend == "short":
            return INCONCLUSIVE, "non-class weight but Cesaro profile too short"
        if ces.trend == "rising":
            return CONSISTENT_UNBOUNDED, None
        if ces.trend == "undefined":
            return INCONCLUSIVE, "non-class weight but Cesaro profile overflowed"
        return INCONSISTENT, "non-class weight but Cesaro profile stays bounded"
    return INCONCLUSIVE, None


def theorem_check(w: RadialWeight, n: int, config: AnalysisConfig | None = None,
                  table: MomentTable | None = None) -> TheoremReport:
    """Run the full two-sided diagnostic for one weight in dimension n.

    CONSISTENT_BOUNDED: class verdicts positive and the functional profile
    non-divergent.  CONSISTENT_UNBOUNDED: class verdicts negative and the
    Cesaro profile divergent.  Cross-contradictions come back INCONSISTENT;
    anything undecidable (including failed sub-computations on required
    evidence) is INCONCLUSIVE.
    """
    config = config or AnalysisConfig()
    notes: list[str] = []
    table = table or MomentTable(w)

    dhat_tail_rep = is_dhat_tail(w, spec=config.quad)
    dhat_mom_rep = is_dhat_moments(table, n_max=config.moment_n_max, spec=config.quad)

    coeffs = build_coeffs(table, n, d_max=config.d_max)
    radii = dyadic_radii(config.k_max, 1)
    profiles: dict[float, float] = {}
    functional = _sweep(
        lambda r: _functional_sharing_profiles(profiles, coeffs, w, r, config.quad),
        radii, notes, "functional", config.threads)
    maj = _sweep(lambda r: majorant(w, r, config.quad),
                 radii, notes, "majorant", config.threads)
    cesaro = _cesaro_profile(table, n, geometric_ints(*config.cesaro_exponents))

    rs, ms = np.array(functional, dtype=float).reshape(-1, 2).T
    func = series_trend(np.log(1.0 / (1.0 - rs)), ms)
    ns_arr, cs = np.array(cesaro, dtype=float).reshape(-1, 2).T
    ces = series_trend(np.sqrt(ns_arr), cs)
    aux = {name: t.slope for name, t in (("functional_slope", func), ("cesaro_slope", ces))
           if t.trend != "short"}
    conclusion, note = _conclusion((dhat_tail_rep.verdict, dhat_mom_rep.verdict), func, ces)
    if note:
        notes.append(note)

    return TheoremReport(
        weight_label=w.label,
        dhat_verdict=dhat_tail_rep,
        moment_verdict=dhat_mom_rep,
        functional_profile=functional,
        majorant_profile=maj,
        cesaro_profile=cesaro,
        conclusion=conclusion,
        notes=notes,
        aux=aux,
    )
