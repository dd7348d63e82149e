"""Weight evaluation, tails, moments, and the class diagnostics."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betaln, expn

from bergman_lab import (MomentTable, QuadSpec, QuadratureError, RadialWeight,
                         WeightDomainError, dhat_beta_estimate, eval_weight,
                         integrate_radial, is_dhat_moments, is_dhat_tail,
                         is_regular, moment_tail_ratio, tail)
from bergman_lab.analysis import PROFILE_SPEC
from bergman_lab.quadrature import DEFAULT_SPEC, _initial_mesh
from bergman_lab.serialize import parse_weight
from bergman_lab.utils import dyadic_radii, last_quartile_slice


def std_moment_oracle(x, alpha):
    """rho_x = (1/2) B((x+1)/2, alpha+1) for the standard weight."""
    return 0.5 * math.exp(betaln((x + 1) / 2.0, alpha + 1.0))


class TestEvalWeight:
    def test_constant(self):
        assert eval_weight(RadialWeight.standard(0.0), 0.5) == 1.0

    def test_alpha_one(self):
        assert_allclose(eval_weight(RadialWeight.standard(1.0), 0.5), 0.75)

    def test_exponential(self):
        # direct formula: exp(-1/(1-0.5)) = e^{-2}
        assert_allclose(eval_weight(RadialWeight.exponential(1.0, 1.0), 0.5),
                        math.exp(-2.0), rtol=1e-14)

    @pytest.mark.parametrize("c, beta, u", [(0.5, 2.0, 2.0 ** -1008), (1.0, 20.0, 2.0 ** -60)])
    def test_exponential_overflow_is_silent(self, c, beta, u):
        """Where u^-beta overflows, rho(1-u) is 0 and log rho(1-u) is -inf,
        with no warning, for a float and for an array."""
        w = RadialWeight.exponential(c, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w.eval_at_one_minus(u) == 0.0
            assert w.log_eval_at_one_minus(u) == -math.inf
            assert w.eval_at_one_minus(np.array([u, 0.5])).tolist() == [
                0.0, math.exp(-c * 0.5 ** -beta)]

    def test_logarithmic(self):
        w = RadialWeight.logarithmic(0.0)
        assert_allclose(eval_weight(w, 0.5), (1.0 - math.log(0.5)) ** -2, rtol=1e-14)

    def test_domain_error(self):
        w = RadialWeight.standard(0.0)
        with pytest.raises(WeightDomainError):
            eval_weight(w, 1.0)
        with pytest.raises(WeightDomainError):
            eval_weight(w, -0.1)

    def test_parameter_validation(self):
        with pytest.raises(WeightDomainError):
            RadialWeight.standard(-1.0)
        with pytest.raises(WeightDomainError):
            RadialWeight.exponential(0.0, 1.0)
        with pytest.raises(WeightDomainError):
            RadialWeight.logarithmic(-1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, bad):
        """NaN fails every comparison, so a test like alpha <= -1 let it
        through; infinities are no parameters either."""
        samples = [[0.0, 1.0], [0.25, 0.9], [0.5, 0.7], [0.75, 0.4]]
        makers = [lambda: RadialWeight.standard(bad),
                  lambda: RadialWeight.exponential(bad, 1.0),
                  lambda: RadialWeight.exponential(1.0, bad),
                  lambda: RadialWeight.logarithmic(bad),
                  lambda: RadialWeight.tabulated([*samples[:3], [0.75, bad]]),
                  lambda: RadialWeight.tabulated([*samples[:3], [bad, 0.4]])]
        for make in makers:
            with pytest.raises(WeightDomainError):
                make()

    def test_steep_exponential_underflows_without_warning(self):
        """Where u^-beta overflows, log rho is -inf, and the moment grid and
        its beyond mass take such nodes as zero mass, with no warning."""
        w = RadialWeight.exponential(1.0, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs = w.log_eval_at_one_minus(np.array([0.5, 2.0 ** -60]))
            grid = MomentTable(w)._g()
        assert logs[0] == -2.0 ** 20 and logs[1] == -math.inf
        assert np.isneginf(grid["logw_f"]).any() and grid["beyond"] == -math.inf


def _frozen_rho(w, u):
    """rho(1-u) as the per-kind branches wrote it before the kinds became
    one table: the reference the table's entries are held to, bit for bit."""
    with np.errstate(under="ignore"):
        if w.kind == "standard":
            return (u * (2.0 - u)) ** w.alpha
        if w.kind == "exponential":
            return np.exp(-w.c * u ** (-w.beta))
        if w.kind == "logarithmic":
            return u ** w.gamma * (1.0 - np.log(u)) ** -2.0
        return w._pchip(1.0 - u)


def _frozen_log_rho(w, u):
    if w.kind == "standard":
        return w.alpha * (np.log(u) + np.log(2.0 - u))
    if w.kind == "exponential":
        with np.errstate(over="ignore"):
            return -w.c * u ** (-w.beta)
    if w.kind == "logarithmic":
        return w.gamma * np.log(u) - 2.0 * np.log(1.0 - np.log(u))
    return np.log(_frozen_rho(w, u))


#: r = 0, 0.1, ..., 0.9 of e^-r: the last cubic stays positive up to r = 1
_EXP_DECAY = [[r / 10, math.exp(-r / 10)] for r in range(10)]


class TestKindTable:
    @pytest.mark.parametrize("make", [
        lambda: RadialWeight.standard(1.5),
        lambda: RadialWeight.standard(-0.9, "std-0.9"),
        lambda: RadialWeight.exponential(1.0, 1.0),
        lambda: RadialWeight.exponential(0.5, 2.0),
        lambda: RadialWeight.exponential(1.0, 20.0, "steep"),
        lambda: RadialWeight.logarithmic(0.0),
        lambda: RadialWeight.logarithmic(-0.99),
        lambda: RadialWeight.tabulated(_EXP_DECAY),
        lambda: RadialWeight.tabulated(_EXP_DECAY, "decay"),
    ], ids=["std1.5", "std-0.9", "exp11", "exp0.5-2", "exp1-20", "log0", "log-0.99",
            "tabulated", "tabulated-labelled"])
    def test_bit_identical_to_frozen_formulas(self, make):
        """u runs from 2^-1008 to 1: exponential u^-beta overflows there
        (log rho = -inf, rho = 0), and the tabulated weight extrapolates."""
        u = np.concatenate([2.0 ** -np.arange(1008.0, 0.0, -1.0), np.linspace(0.5, 1.0, 257)])
        w = make()
        with np.errstate(over="ignore"):  # rho(1-u) of a steep weight: u^-beta = inf
            assert w.eval_at_one_minus(u).tobytes() == _frozen_rho(w, u).tobytes()
            assert w.log_eval_at_one_minus(u).tobytes() == _frozen_log_rho(w, u).tobytes()
        assert w.extrapolation_used == (w.kind == "tabulated")
        if w.kind == "exponential" and w.beta == 20.0:
            assert np.isneginf(w.log_eval_at_one_minus(u)).any()

    @pytest.mark.parametrize("make", [
        lambda: RadialWeight.standard(1.5),
        lambda: RadialWeight.exponential(0.5, 2.0, "e"),
        lambda: RadialWeight.logarithmic(-0.5),
        lambda: RadialWeight.tabulated(_EXP_DECAY),
    ], ids=["standard", "exponential", "logarithmic", "tabulated"])
    def test_descriptor_round_trip(self, make):
        d = make().descriptor()
        assert parse_weight(d).descriptor() == d

    def test_default_labels(self):
        for w, label in [(RadialWeight.standard(1.5), "standard(alpha=1.5)"),
                         (RadialWeight.exponential(1.0, 1.0), "exponential(c=1,beta=1)"),
                         (RadialWeight("exponential", c=1.0, beta=1.0), "exponential(c=1,beta=1)"),
                         (RadialWeight.logarithmic(0.0), "logarithmic(gamma=0)"),
                         (RadialWeight.tabulated(_EXP_DECAY), "tabulated")]:
            assert w.label == label
            d = w.descriptor()
            assert d["label"] == label
            del d["label"]
            assert parse_weight(d).label == label


class TestTail:
    def test_constant(self, weights):
        assert_allclose(tail(weights["std0"], 0.5), 0.5, atol=1e-12)

    def test_alpha_one_symbolic(self, weights):
        # antiderivative oracle (2 - 3r + r^3)/3
        r = 0.5
        assert_allclose(tail(weights["std1"], r), (2 - 3 * r + r ** 3) / 3.0,
                        atol=1e-12)

    def test_exponential_laplace_oracle(self, weights):
        # rhohat(r) = int_{1/(1-r)}^inf e^-u u^-2 du = E_2(x)/x at x = 10
        oracle = expn(2, 10.0) / 10.0
        assert_allclose(tail(weights["exp11"], 0.9), oracle, rtol=1e-9)

    def test_nonincreasing_random_pairs(self, weights, rng):
        w = weights["std2"]
        for _ in range(100):
            r1, r2 = np.sort(rng.uniform(0.0, 0.999, size=2))
            assert tail(w, r1) >= tail(w, r2) - 1e-14

    def test_additivity(self, weights, rng):
        """rhohat(r) = rhohat(s) + int_r^s rho for r < s."""
        for key in ("std1", "exp11", "log0"):
            w = weights[key]
            for _ in range(20):
                r, s = np.sort(rng.uniform(0.0, 0.99, size=2))
                if s - r < 1e-6:
                    continue
                mid, _ = integrate_radial(lambda t, w=w: w(t), a=r, b=s)
                assert_allclose(tail(w, r), tail(w, s) + mid, atol=1e-9)


ARRAY_RADII = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 2.0 ** -10,
                        1 - 2.0 ** -20, 1 - 2.0 ** -40])

ARRAY_WEIGHTS = {
    "std0": lambda: RadialWeight.standard(0.0),
    "std-0.9": lambda: RadialWeight.standard(-0.9),
    "log0": lambda: RadialWeight.logarithmic(0.0),
    "exp11": lambda: RadialWeight.exponential(1.0, 1.0),
    "tabulated": lambda: RadialWeight.tabulated(
        [[r, 1 - r * r] for r in [*np.linspace(0.0, 0.98, 12), 0.99, 0.995, 0.999]]),
}


def _initial_segments(spec):
    """Segments of spec's initial mesh, which one integrand call covers."""
    return _initial_mesh(1.0, spec).size - 1


def _integrand_calls(w, r, spec):
    """Integrand calls of the per-point tail quadrature at r: 1 means the
    initial mesh met the error budget, more means bisection ran."""
    calls = [0]

    def f_dist(s):
        calls[0] += 1
        return w.eval_at_one_minus(s)

    integrate_radial(spec=spec, a=r, b=1.0, f_dist=f_dist)
    return calls[0]


class TestTailArray:
    """tail on an array of radii evaluates every initial mesh in one pass and
    bisects only the misses; it must give the per-point values bit for bit."""

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, PROFILE_SPEC],
                             ids=["default", "profile"])
    @pytest.mark.parametrize("key", list(ARRAY_WEIGHTS))
    def test_bitwise_equal_per_point(self, key, spec):
        w = ARRAY_WEIGHTS[key]()
        batched = tail(w, ARRAY_RADII, spec)
        per_point = np.array([tail(w, float(r), spec) for r in ARRAY_RADII])
        assert isinstance(batched, np.ndarray) and batched.shape == ARRAY_RADII.shape
        assert batched.tobytes() == per_point.tobytes()
        assert tail(w, ARRAY_RADII.reshape(3, 3), spec).tobytes() == per_point.tobytes()

    def test_cases_cover_refinement_and_underflow(self):
        """The weights above reach every branch of the batched pass."""
        def calls(key, spec):
            w = ARRAY_WEIGHTS[key]()
            return [_integrand_calls(w, float(r), spec) for r in ARRAY_RADII]

        assert _initial_segments(DEFAULT_SPEC) == _initial_segments(PROFILE_SPEC) == 13
        assert min(calls("std-0.9", DEFAULT_SPEC)) > 1
        assert min(calls("std-0.9", PROFILE_SPEC)) > 1
        log0 = calls("log0", DEFAULT_SPEC)
        assert min(log0) == 1 < max(log0)
        exp11 = tail(ARRAY_WEIGHTS["exp11"](), ARRAY_RADII)
        assert np.any(exp11 == 0.0) and np.any(exp11 > 0.0)

    def test_coinciding_breakpoints_fall_back(self):
        """A grading of 2^100 sends the finest breakpoint below the double
        range, where it coincides with 0; each radius merges it within the
        batched pass, as one radius alone does (a zero-length segment would
        evaluate the singular weight at s = 0 and give NaN)."""
        w = RadialWeight.standard(-0.5)
        spec = QuadSpec(grading=2.0 ** 100, initial_levels=11)
        radii = np.array([0.0, 0.5, 0.9])
        per_point = np.array([tail(w, float(r), spec) for r in radii])
        assert tail(w, radii, spec).tobytes() == per_point.tobytes()

    @pytest.mark.parametrize("radii", [[0.5, 1.0], [-0.1, 0.5], [0.5, np.nan]],
                             ids=["one", "negative", "nan"])
    def test_radius_outside_domain(self, radii):
        with pytest.raises(WeightDomainError):
            tail(RadialWeight.standard(0.0), np.array(radii))

    @pytest.mark.parametrize("key", ["log0", "exp11"])
    def test_diagnostics_evidence_per_point(self, key):
        """Tail halving and regularity keep the evidence and exclusions that
        one tail per radius gives (exp11 excludes its underflowed radii)."""
        w = ARRAY_WEIGHTS[key]()
        radii = dyadic_radii(16)
        halving, regular = [], []
        for r in radii:
            num, den = tail(w, float(r)), tail(w, float(0.5 * (1.0 + r)))
            if den > 0.0 and math.isfinite(num / den):
                halving.append((float(r), num / den))
            den = (1.0 - r) * float(w(float(r)))
            if den > 0.0 and num > 0.0:
                regular.append((float(r), num / den))
        assert is_dhat_tail(w, radii).evidence == halving
        assert is_regular(w, radii).evidence == regular
        if key == "exp11":
            assert len(halving) < radii.size and len(regular) < radii.size

    def test_nonconvergence_raises_like_per_point(self):
        w = RadialWeight.standard(-0.99)
        spec = QuadSpec(tolerance=1e-14, rel_tolerance=1e-15, max_subdivisions=16)
        with pytest.raises(QuadratureError) as per_point:
            tail(w, 0.5, spec)
        with pytest.raises(QuadratureError) as batched:
            tail(w, np.array([0.5]), spec)
        assert str(batched.value) == str(per_point.value)
        assert batched.value.partial_value == per_point.value.partial_value


class TestMoments:
    @pytest.mark.parametrize("alpha", [-0.5, -0.9, -0.99])
    def test_mass_beyond_the_grid(self, alpha):
        """rho_x = B((x+1)/2, alpha+1)/2 for (1-r^2)^alpha; for alpha = -0.99
        more than half of rho_1 = 50 lies past u = 2^-80, the grid's end,
        and every route to a moment must count it."""
        t = MomentTable(RadialWeight.standard(alpha))
        xs = np.array([1.0, 7.0, 101.0])
        exact = 0.5 * np.exp(betaln((xs + 1.0) / 2.0, alpha + 1.0))
        assert_allclose(np.exp(t.log_moments(xs)), exact, rtol=1e-10)
        assert_allclose(np.exp(t.log_moments_arith(1.0, 6.0, 2)), exact[:2], rtol=1e-10)
        assert_allclose([t.moment(x) for x in xs], exact, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [-0.9, -0.99])
    def test_mass_beyond_the_grid_logarithmic(self, gamma):
        """(1-r)^gamma log(e/(1-r))^-2 loses mass past the grid like a power
        of log u, not geometrically per octave: against adaptive quadrature
        of rho_x in s = -log u, to 1e-7 (the geometric continuation past
        u = 2^-1008 leaves about 7e-9 of rho_1 out at gamma = -0.99)."""
        from scipy.integrate import quad

        def exact(x):
            def f(s):
                return math.exp(-(gamma + 1.0) * s - 2.0 * math.log1p(s)
                                + x * math.log1p(-math.exp(-s)))
            cuts = [0.0, 1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 1e3, 1e4, 1e5, 1e6, np.inf]
            return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                       for a, b in zip(cuts, cuts[1:]))

        t = MomentTable(RadialWeight.logarithmic(gamma))
        xs = np.array([1.0, 7.0, 101.0])
        want = [exact(x) for x in xs]
        assert_allclose(np.exp(t.log_moments(xs)), want, rtol=1e-7)
        assert_allclose(np.exp(t.log_moments_arith(1.0, 6.0, 2)), want[:2], rtol=1e-7)
        assert_allclose([t.moment(x) for x in xs], want, rtol=1e-7)

    def test_constant_closed_forms(self, tables):
        assert_allclose(tables["std0"].moment(1), 0.5, atol=1e-12)
        assert_allclose(tables["std0"].moment(7), 0.125, atol=1e-12)

    def test_beta_oracle(self, tables):
        assert_allclose(tables["std1"].moment(2), 2.0 / 15.0, atol=1e-12)

    @pytest.mark.parametrize("alpha_key,alpha", [("std0", 0.0), ("std1", 1.0),
                                                 ("std2", 2.0), ("std5", 5.0)])
    def test_standard_closed_forms(self, tables, alpha_key, alpha):
        t = tables[alpha_key]
        for x in (1, 3, 10, 101):
            assert abs(t.moment(x) - std_moment_oracle(x, alpha)) < 1e-10

    def test_monotone_in_exponent(self, tables, rng):
        for key in ("std1", "exp11", "log0"):
            t = tables[key]
            for _ in range(100):
                x1, x2 = np.sort(rng.uniform(1.0, 500.0, size=2))
                assert t.moment(x1) >= t.moment(x2) - 1e-15

    def test_positive_and_memoized(self, tables):
        t = tables["std1"]
        v = t.moment(17.5)
        assert v > 0

    def test_against_adaptive_quadrature(self, weights, rng):
        """Master-grid moments agree with the independent adaptive integrator,
        including past the x = 1e4 boundary-layer regime."""
        from bergman_lab import QuadSpec

        w = weights["std2"]
        t = MomentTable(w)
        spec = QuadSpec(tolerance=1e-13, rel_tolerance=1e-12)
        for x in (1.7, 23.0, 407.0, 2.0 ** 14, 30000.0):
            direct, _ = integrate_radial(
                spec=spec,
                f_dist=lambda u, x=x: (1.0 - u) ** x * w.eval_at_one_minus(u))
            assert_allclose(t.moment(x), direct, rtol=1e-9)

    def test_domain(self, tables):
        with pytest.raises(WeightDomainError):
            tables["std0"].moment(0.5)

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_non_finite_exponent(self, tables, x):
        """t^inf is not 1 on the grid's last octaves, and NaN is no exponent:
        both are refused, alone and inside an array."""
        t = tables["std0"]
        with pytest.raises(WeightDomainError):
            t.moment(x)
        with pytest.raises(WeightDomainError):
            t.log_moments(np.array([2.0, x]))

    def test_concurrent_memoization_idempotent(self, weights):
        t = MomentTable(weights["std1"])
        with ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(lambda _: t.moment(33.0), range(64)))
        assert len(set(vals)) == 1

    def test_arith_progression_matches_batch(self, tables):
        t = tables["log0"]
        la = t.log_moments_arith(3.0, 2.0, 5000)
        idx = np.array([0, 1, 17, 499, 4999])
        lb = t.log_moments(3.0 + 2.0 * idx)
        assert_allclose(la[idx], lb, atol=1e-11)

    def test_arith_progression_deep_exponential(self, tables):
        """exp11 up to x = 2^20, where all but a few dozen grid nodes
        underflow against the largest and the recurrence drops them."""
        t = tables["exp11"]
        count = 1 << 19
        la = t.log_moments_arith(1.0, 2.0, count)
        idx = np.r_[np.arange(0, count, 997), count - 1]
        x = 1.0 + 2.0 * idx
        lb = t.log_moments(x)
        assert_allclose(la[idx], lb, rtol=1e-12)
        g = t._g()
        base = x[-1] * g["logt_f"] + g["logw_f"]
        with np.errstate(under="ignore"):
            assert np.count_nonzero(np.exp(base - base.max())) < base.size // 10


def _oracle_log_moments_arith(t, x0, step, count):
    """log_moments_arith advanced one degree at a time: one sum, one log
    and one multiply per degree.  Where the sum falls below 1e-120, the
    next degree starts again from the exact grid values, scaled by that
    sum.  Returns the values, the degrees at which that happened, and the
    number of grid nodes dropped as underflowed (each node counted once
    per refresh block)."""
    g = t._g()
    logt, logw = g["logt_f"], g["logw_f"]
    with np.errstate(under="ignore"):
        full_step_factor = np.exp(step * logt)
    out = np.empty(count)
    rescaled, dropped = [], 0
    j = 0
    while j < count:
        base = (x0 + j * step) * logt + logw
        scale = base.max()
        nodes, gone = np.arange(logt.size), set()
        with np.errstate(under="ignore"):
            v = np.exp(base - scale)
            for i in range(min(16384, count - j)):
                if i % 256 == 0:
                    live = v != 0.0
                    gone.update(nodes[~live].tolist())
                    v, nodes = v[live], nodes[live]
                s = np.add.reduce(v)
                out[j + i] = scale + math.log(s)
                if s < 1.0e-120:
                    scale += math.log(s)
                    nodes = np.arange(logt.size)
                    v = np.exp((x0 + (j + i) * step) * logt + logw - scale)
                    rescaled.append(j + i)
                v *= full_step_factor[nodes]
        dropped += len(gone)
        j += min(16384, count - j)
    return np.logaddexp(out, g["beyond"], out=out), rescaled, dropped


def _broadcast_log_moments_arith(t, x0, step, count):
    """log_moments_arith with the previous windows: each window one
    broadcast product v f^r into a buffer and one sum along the node axis,
    and a node dropped only once its scaled value is exactly 0.  The rim
    fold, the refresh blocks and the restarts are the package's."""
    from bergman_lab.weights import (_ARITH_BLOCK, _COMPACT_EVERY, _REFRESH,
                                     _FOLD_RADIUS, _rim_fold)

    def start(logv, lt):
        v = np.exp(logv)
        live = v != 0.0
        v, lt = v[live], lt[live]
        rows = max(1, min(_COMPACT_EVERY, _ARITH_BLOCK // v.size))
        return v, np.multiply.accumulate(
            np.broadcast_to(np.exp(step * lt), (rows, v.size)), axis=0)

    g = t._g()
    logt, logw = g["logt_f"], g["logw_f"]
    out = np.empty(count)
    buf = np.empty(_ARITH_BLOCK)
    for j in range(0, count, _REFRESH):
        n = min(_REFRESH, count - j)
        xs = x0 + (j + np.arange(n)) * step
        fold = xs[-1] * logt >= -_FOLD_RADIUS
        lt, lw = logt[~fold], logw[~fold]
        base = xs[0] * lt + lw
        scale = base.max()
        logs = out[j:j + n]
        with np.errstate(under="ignore"):
            v, powers = start(base - scale, lt)
            logs[0] = scale + math.log(np.add.reduce(v))
            i = 1
            while i < n:
                if i % _COMPACT_EVERY == 0:
                    live = v != 0.0
                    v, powers = v[live], powers[:, live]
                rows = min(_COMPACT_EVERY - i % _COMPACT_EVERY, n - i, powers.shape[0])
                window = np.multiply(v, powers[:rows],
                                     out=buf[:rows * v.size].reshape(rows, v.size))
                sums = np.add.reduce(window, axis=1)
                last = int(np.argmax(sums < 1.0e-120))
                if sums[last] >= 1.0e-120:
                    last = rows - 1
                logs[i:i + last + 1] = scale + np.log(sums[:last + 1])
                if sums[last] < 1.0e-120:
                    scale = logs[i + last]
                    v, powers = start(xs[i + last] * lt + lw - scale, lt)
                else:
                    v = window[last].copy()
                i += last + 1
        np.logaddexp(logs, _rim_fold(logt[fold], logw[fold], xs), out=logs)
    return np.logaddexp(out, g["beyond"], out=out)


def _oracle_grid(w):
    """The moment grid built one octave at a time, 24-point Gauss rule per
    octave: head octaves t in [2^-j-1, 2^-j] for j = 32..1, then tail
    octaves u = 1-t in [2^-k-1, 2^-k] for k = 1..79."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    lt, lw = [], []
    for j in range(32, 0, -1):
        hi = 2.0 ** (-j)
        half, mid = 0.25 * hi, 0.75 * hi
        t = mid + half * xg
        lt.append(np.log(t))
        lw.append(np.log(half * wg) + w.log_eval_at_one_minus(1.0 - t))
    for k in range(1, 80):
        hi = 2.0 ** (-k)
        half, mid = 0.25 * hi, 0.75 * hi
        u = mid + half * xg
        lt.append(np.log1p(-u))
        lw.append(np.log(half * wg) + w.log_eval_at_one_minus(u))
    return np.concatenate(lt), np.concatenate(lw)


ARITH_WEIGHTS = {
    "std-0.5": lambda: RadialWeight.standard(-0.5),
    "tabulated": lambda: RadialWeight.tabulated(
        [[r, 1 - r * r] for r in [*np.linspace(0.0, 0.98, 12), 0.99, 0.995, 0.999]]),
}


class TestMomentRecurrenceBlocks:
    """log_moments_arith folds the rim into a Taylor polynomial and
    advances the other nodes in windows of step-factor powers; its values
    agree with the per-degree loop to 1e-13 + 1e-15 |log rho|."""

    @pytest.mark.parametrize("step", [1.0, 2.0])
    @pytest.mark.parametrize("key", ["std0", "std2", "log0", "exp11", "exp21",
                                     "std-0.5", "tabulated"])
    def test_bitwise_equal_per_degree(self, tables, key, step):
        """Counts at and around a compaction (256 degrees) and a refresh
        (16,384); exp11 drops nodes and, at step 2, rescales its sum.  The
        values once matched the loop bit for bit, hence the name; the fold
        and the windows round differently."""
        t = tables[key] if key in tables else MomentTable(ARITH_WEIGHTS[key]())
        for count in (1, 255, 256, 257, 16384, 16385, 40000):
            want, rescaled, dropped = _oracle_log_moments_arith(t, 3.0, step, count)
            assert_allclose(t.log_moments_arith(3.0, step, count), want,
                            rtol=1e-15, atol=1e-13)
        if key == "exp11":
            assert dropped > 0
            assert rescaled or step == 1.0

    @pytest.mark.parametrize("width", [3, 300])
    @pytest.mark.parametrize("first", [255, 256])
    def test_rescale_at_block_ends(self, width, first):
        """A hand-built grid whose width - 2 dominant nodes sit at log t =
        -1, so the sum is about (width - 2) e^(-step d): the step puts its
        first rescale on degree 255, the last before a compaction, or 256,
        the first after one.  Two nodes underflow and are dropped in each
        of the two refresh spans.  Width 3 takes windows of 256 degrees,
        width 300 windows of 218, which end between compactions."""
        logt = np.r_[np.full(width - 2, -1.0), -50.0, -400.0]
        step = (math.log(width - 2) - math.log(1.0e-120)) / (first - 0.5)
        t = MomentTable(RadialWeight.standard(0.0))
        t._grid = {"logt_f": logt, "logw_f": np.zeros(width), "beyond": -math.inf}
        want, rescaled, dropped = _oracle_log_moments_arith(t, 1.0, step, 20000)
        assert rescaled[0] == first and len(rescaled) > 60 and dropped == 4
        assert_allclose(t.log_moments_arith(1.0, step, 20000), want, rtol=1e-15, atol=1e-13)

    @pytest.mark.parametrize("make", [lambda: RadialWeight.standard(-0.99),
                                      lambda: RadialWeight.logarithmic(-0.99)],
                             ids=["std-0.99", "log-0.99"])
    def test_rim_heavy_weights(self, make):
        """Up to x = 2^20 on weights whose grid mass at x = 2^20 lies mostly
        in the fold, against log_moments, which sums every node directly."""
        t = MomentTable(make())
        count = (1 << 19) + 1
        la = t.log_moments_arith(1.0, 2.0, count)
        idx = np.r_[np.arange(0, count, 1021), count - 1]
        x = 1.0 + 2.0 * idx
        assert_allclose(la[idx], t.log_moments(x), rtol=1e-15, atol=1e-13)
        g = t._g()
        terms = x[-1] * g["logt_f"] + g["logw_f"]
        fold = x[-1] * g["logt_f"] >= -2.0 ** -8
        assert np.logaddexp.reduce(terms[fold]) > np.logaddexp.reduce(terms[~fold])

    def test_fold_set_changes_between_blocks(self):
        """Each refresh block folds the nodes that stay within the radius
        up to its own last exponent, so deeper blocks fold fewer; the
        values run on across the block ends as the per-degree loop's."""
        t = MomentTable(RadialWeight.standard(-0.5))
        count = 3 * 16384 + 1
        want, _, _ = _oracle_log_moments_arith(t, 1.0, 2.0, count)
        assert_allclose(t.log_moments_arith(1.0, 2.0, count), want, rtol=1e-15, atol=1e-13)
        logt = t._g()["logt_f"]
        x_last = 1.0 + 2.0 * (np.array([1, 2, 3, 3]) * 16384 - [1, 1, 1, 0])
        folded = [np.count_nonzero(x * logt >= -2.0 ** -8) for x in x_last]
        assert folded[0] > folded[1] > folded[2] >= folded[3] > 0

    @pytest.mark.parametrize("c,beta", [(1.0, 20.0), (1.0, 3.0), (1.0, 2.0), (200.0, 1.0)])
    def test_steep_weights_against_batch(self, c, beta):
        """Steep exponential weights, whose grid nodes underflow at a block
        start or at a rescale and dominate later in the same block, against
        log_moments, which sums every node directly.  Carried over instead of
        restarted, the dropped nodes left log rho up to 4.7e3 off from
        degree 1,306 on."""
        t = MomentTable(RadialWeight.exponential(c, beta))
        x = 3.0 + 2.0 * np.arange(40000)
        assert_allclose(t.log_moments_arith(3.0, 2.0, x.size), t.log_moments(x),
                        rtol=1e-15, atol=1e-12)

    def test_constant_weight_closed_form(self, tables):
        """rho_x = 1/(x+1) for the constant weight, to 1e-12 relative over
        the 131,584 degrees a theorem call at n = 2 takes."""
        x = 3.0 + 2.0 * np.arange(131584)
        la = tables["std0"].log_moments_arith(3.0, 2.0, x.size)
        assert_allclose(np.exp(la), 1.0 / (x + 1.0), rtol=1e-12)

    def test_rim_fold_against_direct_sum(self, rng):
        """The fold polynomial against exactly rounded sums of the terms,
        for nodes at the fold radius and well inside it."""
        from bergman_lab.weights import _rim_fold

        xs = np.array([1.0, 777.0, 2.0 ** 20])
        logt = -rng.uniform(0.0, 2.0 ** -8 / xs[-1], size=500)
        logt[:2] = -2.0 ** -8 / xs[-1]
        logw = rng.uniform(-30.0, 0.0, size=500)
        want = [math.log(math.fsum(np.exp(logw + x * logt))) for x in xs]
        assert_allclose(_rim_fold(logt, logw, xs), want, rtol=0, atol=1e-14)
        assert np.all(_rim_fold(logt[:0], logw[:0], xs) == -np.inf)

    @pytest.mark.parametrize("make", [lambda: RadialWeight.standard(0.0),
                                      lambda: RadialWeight.standard(-0.9),
                                      lambda: RadialWeight.logarithmic(0.0),
                                      lambda: RadialWeight.exponential(1.0, 1.0),
                                      lambda: RadialWeight.exponential(1.0, 3.0)],
                             ids=["std0", "std-0.9", "log0", "exp11", "exp13"])
    def test_matrix_windows_against_broadcast_windows(self, make):
        """Each window's sums are one matrix-vector product, nodes retire
        below the smallest normal double, and a fold that lies past
        exp's range is skipped; along x = 3 + 2d, d < 2^19, this moves
        log rho_x by at most 1e-14 max(1, |log rho_x|) from the broadcast
        windows that dropped a node only at exact 0."""
        t = MomentTable(make())
        want = _broadcast_log_moments_arith(t, 3.0, 2.0, 1 << 19)
        got = t.log_moments_arith(3.0, 2.0, 1 << 19)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("make, x0, count, stride, bound", [
        (lambda: RadialWeight.standard(0.0), 3.0, 131584, 97, 1.65e-13),
        (lambda: RadialWeight.standard(-0.99), 1.0, (1 << 19) + 1, 1021, 8.95e-15),
        (lambda: RadialWeight.logarithmic(-0.99), 1.0, (1 << 19) + 1, 1021, 6.25e-14)],
        ids=["std0", "std-0.99", "log-0.99"])
    def test_against_batch_within_stated_figures(self, make, x0, count, stride, bound):
        """The README's agreement of log_moments_arith with the direct
        log_moments sum, in log rho, to the two digits it states: 1.6e-13
        for the constant weight over the 131,584 degrees a theorem call at
        n = 2 takes, and 8.9e-15 and 6.2e-14 for the rim-heavy weights up
        to x = 2^20 at every 1021st exponent."""
        t = MomentTable(make())
        idx = np.r_[np.arange(0, count, stride), count - 1]
        la = t.log_moments_arith(x0, 2.0, count)
        assert np.max(np.abs(la[idx] - t.log_moments(x0 + 2.0 * idx))) <= bound

    def test_fold_past_exp_range_is_skipped(self, tables, monkeypatch):
        """exp11's folded nodes (u <= 2^-8 / x_b) weigh below e^(-2^23)
        against moments above e^(-640) in three refresh blocks: no block
        evaluates its fold, and the values are those of adding it."""
        from bergman_lab import weights

        calls = []
        real = weights._rim_fold
        monkeypatch.setattr(weights, "_rim_fold", lambda *a: calls.append(a) or real(*a))
        t = tables["exp11"]
        got = t.log_moments_arith(3.0, 2.0, 3 * 16384)
        assert not calls
        monkeypatch.undo()
        want = _broadcast_log_moments_arith(t, 3.0, 2.0, 3 * 16384)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("x0,step", [(0.5, 2.0), (-3.0, 2.0), (math.nan, 2.0),
                                         (math.inf, 2.0), (3.0, -2.0), (3.0, math.inf),
                                         (3.0, math.nan)])
    def test_domain(self, tables, x0, step):
        with pytest.raises(WeightDomainError):
            tables["std0"].log_moments_arith(x0, step, 4)

    def test_empty_progression(self, tables):
        for count in (0, -1):
            assert tables["std0"].log_moments_arith(3.0, 2.0, count).size == 0


class TestMomentGrid:
    """The grid is built as two array expressions, bit for bit the
    per-octave loop."""

    @pytest.mark.parametrize("make", [
        lambda: RadialWeight.standard(0.0),
        lambda: RadialWeight.standard(2.0),
        lambda: RadialWeight.standard(-0.9),
        lambda: RadialWeight.logarithmic(0.0),
        lambda: RadialWeight.logarithmic(-0.99),
        lambda: RadialWeight.exponential(1.0, 1.0),
        ARITH_WEIGHTS["tabulated"],
    ], ids=["std0", "std2", "std-0.9", "log0", "log-0.99", "exp11", "tabulated"])
    def test_bitwise_equal_per_octave(self, make):
        w, w_oracle = make(), make()
        g = MomentTable(w)._g()
        logt, logw = _oracle_grid(w_oracle)
        assert g["logt_f"].tobytes() == logt.tobytes()
        assert g["logw_f"].tobytes() == logw.tobytes()
        beyond = MomentTable(make())._beyond_log()
        assert np.float64(g["beyond"]).tobytes() == np.float64(beyond).tobytes()
        # the tabulated rule's last tail octaves lie past its last sample
        assert w.extrapolation_used == w_oracle.extrapolation_used
        assert w.extrapolation_used == (w.kind == "tabulated")


class TestDhatTail:
    def test_constant_weight_exact_constant(self, weights):
        rep = is_dhat_tail(weights["std0"])
        assert rep.verdict == "IN_CLASS"
        assert abs(rep.estimated_constant - 2.0) < 1e-10

    def test_alpha_one_constant_below_four(self, weights):
        rep = is_dhat_tail(weights["std1"])
        assert rep.verdict == "IN_CLASS"
        assert rep.estimated_constant <= 4.0 + 1e-9
        # exact halving ratio 8(2+r)/(5+r) approaches 4 from below
        assert rep.estimated_constant > 3.9

    def test_exponential_diverges(self, weights):
        rep = is_dhat_tail(weights["exp11"])
        assert rep.verdict == "NOT_IN_CLASS"
        # underflowing halved tails are excluded and flagged
        assert any("underflow" in note for note in rep.notes)
        # Laplace oracle at r = 0.9: ratio ~ E2(10)/10 / (E2(20)/20) ~ 8.3e4
        num = expn(2, 10.0) / 10.0
        den = expn(2, 20.0) / 20.0
        assert_allclose(tail(weights["exp11"], 0.9) / tail(weights["exp11"], 0.95),
                        num / den, rtol=1e-8)
        assert 7e4 < num / den < 1e5

    def test_logarithmic_in_class(self, weights):
        assert is_dhat_tail(weights["log0"]).verdict == "IN_CLASS"

    def test_report_invariant_in_class(self, weights):
        rep = is_dhat_tail(weights["std2"])
        assert rep.verdict == "IN_CLASS"
        assert rep.estimated_constant == max(v for _, v in rep.evidence)
        assert math.isfinite(rep.estimated_constant)


class TestDhatMoments:
    def test_constant_weight_closed_form(self, tables):
        rep = is_dhat_moments(tables["std0"])
        assert rep.verdict == "IN_CLASS"
        for n, ratio in rep.evidence:
            assert_allclose(ratio, (2 * n + 1) / (n + 1), rtol=1e-10)
        assert rep.estimated_constant <= 2.0
        assert_allclose(rep.aux["c0_head_ratio"], 2.0, rtol=1e-10)

    def test_alpha_one(self, tables):
        rep = is_dhat_moments(tables["std1"])
        assert rep.verdict == "IN_CLASS"
        assert rep.estimated_constant <= 4.0 + 1e-6

    def test_exponential_saddle_growth(self, tables):
        rep = is_dhat_moments(tables["exp11"], n_max=1024)
        assert rep.verdict == "NOT_IN_CLASS"
        ratios = dict(rep.evidence)
        for n in (64, 256, 1024):
            # saddle-point oracle exp(2(sqrt2-1)sqrt n) with prefactor ~ 1.6
            asym = math.exp(2 * (math.sqrt(2) - 1) * math.sqrt(n))
            assert 1.3 < ratios[n] / asym < 2.0
        # numerically confirmed values (graded scipy.quad oracle)
        assert_allclose(ratios[64], 1221.85, rtol=1e-3)
        assert_allclose(ratios[1024], 5.43293e11, rtol=1e-3)


class TestBetaEstimate:
    def test_constant_weight(self, weights):
        beta0, c = dhat_beta_estimate(weights["std0"])
        assert beta0 == 1.0
        assert_allclose(c, 1.0, rtol=1e-9)

    def test_alpha_two(self, weights):
        beta0, c = dhat_beta_estimate(weights["std2"])
        assert beta0 == 3.0
        assert c <= 1.0 + 1e-9

    def test_grid_starting_past_beta0(self, weights):
        # any beta >= beta0 is admissible, so a coarser grid returns its floor
        beta0, c = dhat_beta_estimate(weights["std0"],
                                      beta_grid=np.arange(2.0, 9.0))
        assert beta0 == 2.0
        assert c <= 1.0 + 1e-9

    def test_no_admissible_beta_signals_inconclusive(self, weights):
        # a grid of inadmissible exponents yields the None signal
        assert dhat_beta_estimate(weights["std2"], beta_grid=[0.25]) is None


class TestMomentTailRatio:
    def test_constant_weight(self, tables):
        assert_allclose(moment_tail_ratio(tables["std0"], 1.0), 0.5, rtol=1e-10)
        assert_allclose(moment_tail_ratio(tables["std0"], 100.0), 100.0 / 101.0,
                        rtol=1e-10)

    def test_alpha_one_closed_form(self, tables):
        # exact ratio 6x^3 / ((x+1)(x+3)(3x-1))
        for x in (10.0, 100.0, 1000.0):
            oracle = 6 * x ** 3 / ((x + 1) * (x + 3) * (3 * x - 1))
            assert_allclose(moment_tail_ratio(tables["std1"], x), oracle,
                            rtol=1e-9)

    @pytest.mark.parametrize("key", ["std0", "log0", "exp11"])
    def test_array_equals_per_exponent(self, tables, weights, key):
        """One log_moments call and one array tail give, bit for bit, the
        per-exponent math.exp(log_moment(x)) / tail(w, 1 - 1/x); exp11's
        tail underflows at the deep exponents, which give inf."""
        t, w = tables[key], weights[key]
        xs = 2.0 ** np.arange(0, 15)
        want = [math.exp(t.log_moment(x)) / den if (den := tail(w, 1.0 - 1.0 / x)) > 0.0
                else math.inf for x in xs.tolist()]
        got = moment_tail_ratio(t, xs)
        assert got.shape == xs.shape
        assert got.tobytes() == np.array(want).tobytes()
        assert moment_tail_ratio(t, xs.reshape(3, 5)).tobytes() == got.tobytes()
        assert (key == "exp11") == (math.inf in want)
        one = moment_tail_ratio(t, np.float64(xs[7]))
        assert type(one) is float and one == want[7]
        assert moment_tail_ratio(t, 128.0) == want[7]

    @pytest.mark.parametrize("x", [0.5, math.nan, [2.0, math.nan], [4.0, 0.5]])
    def test_domain(self, tables, x):
        with pytest.raises(WeightDomainError):
            moment_tail_ratio(tables["std0"], x)

    def test_window_for_class_weights(self, tables):
        """For class weights the ratio settles into a window [1/C, C]."""
        xs = 2.0 ** np.arange(1, 15)
        for key in ("std0", "std1", "std2", "log0"):
            ratios = np.array([moment_tail_ratio(tables[key], x) for x in xs])
            lq = ratios[last_quartile_slice(ratios.size)]
            assert lq.max() / lq.min() < 1.1


class TestIsRegular:
    def test_constant_weight_ratio_one(self, weights):
        rep = is_regular(weights["std0"])
        assert rep.verdict == "IN_CLASS"
        for _, ratio in rep.evidence:
            assert_allclose(ratio, 1.0, atol=1e-10)

    def test_alpha_two_limit_one_third(self, weights):
        rep = is_regular(weights["std2"])
        assert rep.verdict == "IN_CLASS"
        assert_allclose(rep.evidence[-1][1], 1.0 / 3.0, rtol=1e-3)

    def test_exponential_not_regular(self, weights):
        rep = is_regular(weights["exp11"])
        assert rep.verdict == "NOT_IN_CLASS"


class TestLemmaCoherence:
    def test_verdicts_agree_across_family(self, weights, tables):
        """Tail-halving and moment-doubling give the same verdict family-wide."""
        expected = {"std0": "IN_CLASS", "std1": "IN_CLASS", "std2": "IN_CLASS",
                    "std5": "IN_CLASS", "exp11": "NOT_IN_CLASS",
                    "log0": "IN_CLASS"}
        for key, verdict in expected.items():
            assert is_dhat_tail(weights[key]).verdict == verdict, key
            assert is_dhat_moments(tables[key], n_max=1024).verdict == verdict, key


class TestTabulated:
    @pytest.fixture()
    def tab_alpha1(self):
        r = np.linspace(0.0, 0.9995, 400)
        return RadialWeight.tabulated(np.stack([r, (1 - r * r)], axis=1), "tab-a1")

    def test_matches_sampled_weight(self, tab_alpha1):
        for r in (0.1, 0.33, 0.77):
            assert_allclose(eval_weight(tab_alpha1, r), 1 - r * r, rtol=1e-6)

    def test_diagnostics_match_standard(self, tab_alpha1):
        rep = is_dhat_tail(tab_alpha1, radii=dyadic_radii(10))
        assert rep.verdict == "IN_CLASS"
        assert rep.estimated_constant < 4.1

    def test_extrapolation_flagged(self, tab_alpha1):
        assert not tab_alpha1.extrapolation_used
        eval_weight(tab_alpha1, 0.99995)
        assert tab_alpha1.extrapolation_used
        rep = is_dhat_tail(tab_alpha1, radii=dyadic_radii(8))
        assert any("extrapolat" in note for note in rep.notes)

    def test_validation(self):
        with pytest.raises(WeightDomainError):
            RadialWeight.tabulated([[0.0, 1.0], [0.5, -1.0], [0.6, 1.0], [0.7, 1.0]])
        with pytest.raises(WeightDomainError):
            RadialWeight.tabulated([[0.0, 1.0], [0.5, 1.0]])

    @pytest.mark.parametrize("kind", ["one-minus-r2", "random", "flat-steps"])
    def test_interpolant_matches_scipy_pchip(self, kind):
        """The numpy monotone cubic equals scipy's PchipInterpolator to
        1e-14 relative on a dense grid up to the last sample and past it to
        r = 0.9999 (the last segment's cubic).  The weight evaluates it at 1 -
        (1 - r), a rounding away from r."""
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(11)
        if kind == "one-minus-r2":
            r = np.array([*np.linspace(0.0, 0.98, 12), 0.99, 0.995, 0.999])
            v = 1.0 - r * r
        elif kind == "random":  # secants of both signs, uneven spacing
            r = np.sort(rng.uniform(0.0, 0.99, 15))
            v = rng.uniform(0.1, 2.0, 15)
        else:  # zero secants and sign changes at both ends
            r = np.linspace(0.05, 0.9, 8)
            v = np.array([1.0, 3.0, 3.0, 2.0, 2.0, 2.5, 0.5, 0.6])
        w = RadialWeight.tabulated(np.stack([r, v], axis=1))
        x = np.concatenate([np.linspace(r[0], r[-1], 4001), np.linspace(r[-1], 0.9999, 400)])
        expected = PchipInterpolator(r, v, extrapolate=True)(x)
        got = w._pchip(x)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))
        inside = x <= r[-1]
        assert_allclose(w(x[inside]), expected[inside], rtol=1e-12)
