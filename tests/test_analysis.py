"""Bloch seminorm, boundedness functional, majorant, series bounds, and the
combined theorem check."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bergman_lab import (AnalysisConfig, BallPoint, MomentTable, QuadratureError,
                         QuadSpec, RadialWeight, bloch_seminorm, boundedness_functional,
                         build_coeffs, cesaro_lower, hardy_littlewood_check,
                         hardy_littlewood_converse, integrate_ball_radial,
                         integrate_radial, lower_bound_series, majorant,
                         moment_doubling_chain, pr_estimate_check,
                         rk_circle_mean, sphere_slice_average, tail,
                         theorem_check)
from bergman_lab import analysis
from bergman_lab.analysis import PROFILE_SPEC, _slice_weight_profile
from bergman_lab.kernel import _values_many
from bergman_lab.utils import dyadic_radii, last_quartile_log_slope
from scipy.special import gammaln

TIGHT = QuadSpec(tolerance=1e-12, rel_tolerance=1e-10)


class TestBlochSeminorm:
    def test_constant_function(self):
        grid = [BallPoint.radial(r, 2) for r in np.linspace(0.0, 0.9, 10)]
        assert bloch_seminorm(lambda z: 0.0, grid) == 0.0

    def test_coordinate_function(self):
        grid = [BallPoint.radial(r, 2) for r in np.linspace(0.01, 0.99, 197)]
        val = bloch_seminorm(lambda z: z.coords[0], grid)
        assert_allclose(val, 2 / (3 * math.sqrt(3)), atol=1e-4)

    def test_logarithmic_function(self):
        """f = log(1/(1-z1)): densities r(1+r) climb to 2 along the grid."""
        grid = [BallPoint.radial(r, 2) for r in dyadic_radii(12)]
        val = bloch_seminorm(lambda z: z.coords[0] / (1 - z.coords[0]), grid)
        assert 1.9 <= val <= 2.0

    def test_failures_skipped_with_warning(self):
        def rf(z):
            if z.norm > 0.5:
                raise RuntimeError("synthetic failure")
            return z.coords[0]

        grid = [BallPoint.radial(r, 2) for r in (0.2, 0.4, 0.8)]
        with pytest.warns(UserWarning):
            val = bloch_seminorm(rf, grid)
        assert val == pytest.approx((1 - 0.16) * 0.4)


class TestBoundednessFunctional:
    def test_zero_radius(self, coeffs_std0_n2, weights):
        assert boundedness_functional(coeffs_std0_n2, weights["std0"], 0.0) == 0.0

    def test_closed_form_cross_check(self, weights):
        """Nested polar quadrature of the closed form |RK| = 3|t|/|1-t|^4
        agrees with the series pipeline at r = 1/2."""
        w = weights["std0"]
        tab_k = build_coeffs(MomentTable(w), 2, d_max=4096)
        fast = boundedness_functional(tab_k, w, 0.5)
        z = BallPoint.radial(0.5, 2)

        def slice_fn(s):
            # |RK| at <z, s xi> = s <z, xi>, closed form 3|t|/|1-t|^4
            h = lambda lam: np.abs(3 * (s * lam) / (1 - s * lam) ** 4)
            return sphere_slice_average(h, z, QuadSpec(initial_levels=6))

        nested = (1 - 0.25) * integrate_ball_radial(slice_fn, w, 2,
                                                    QuadSpec(initial_levels=6))
        assert_allclose(fast, nested, atol=1e-3)
        assert_allclose(fast, 0.968564, rtol=1e-4)

    def test_nested_series_route_agrees(self, coeffs_std0_n2, weights):
        """Same cross-check against the literal composition with the kernel
        series itself (not the closed form)."""
        k = coeffs_std0_n2
        fast = boundedness_functional(k, weights["std0"], 0.5)
        z = BallPoint.radial(0.5, 2)

        def slice_fn(s):
            h = lambda lam: np.abs(_values_many(k, s * lam, 1e-9, 1))
            return sphere_slice_average(h, z, QuadSpec(initial_levels=6))

        nested = 0.75 * integrate_ball_radial(slice_fn, weights["std0"], 2,
                                              QuadSpec(initial_levels=6))
        assert_allclose(fast, nested, rtol=1e-5)

    def test_profile_bounded_spread(self, functional_profiles):
        """M(1-2^-k), k = 2..10, stays within a small window (factor ~3.02
        by the graded reference quadrature)."""
        prof = dict(functional_profiles("std0"))
        vals = [prof[1 - 2.0 ** -k] for k in range(2, 11)]
        spread = max(vals) / min(vals)
        assert 2.8 <= spread <= 3.1

    def test_unitary_invariance(self, coeffs_std0_n2):
        """The sphere integral of |RK(z, s xi)| matches between two unit
        directions of z, via an independent product-angle rule on S_2."""
        def sphere_integral(zc, s):
            psi, wq = np.polynomial.legendre.leggauss(48)
            psi = 0.25 * np.pi * (psi + 1.0)
            wq = wq * 0.25 * np.pi * np.sin(2 * psi)
            th = 2 * np.pi * np.arange(64) / 64
            tot = 0.0
            for p, wp in zip(psi, wq):
                xi1 = np.cos(p) * np.exp(1j * th)[:, None]
                xi2 = np.sin(p) * np.exp(1j * th)[None, :]
                t = s * (zc[0] * np.conj(xi1) + zc[1] * np.conj(xi2))
                vals = np.abs(_values_many(coeffs_std0_n2, t, 1e-10, 1))
                tot += wp * vals.mean()
            return tot

        rng = np.random.default_rng(7)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = 0.7 * u / np.linalg.norm(u)
        a = sphere_integral(np.array([0.7, 0.0], dtype=complex), 0.6)
        b = sphere_integral(u, 0.6)
        assert_allclose(a, b, rtol=1e-6)
        z = BallPoint.radial(0.7, 2)
        slice_route = sphere_slice_average(
            lambda lam: np.abs(_values_many(coeffs_std0_n2, 0.6 * lam,
                                            1e-10, 1)), z)
        assert_allclose(a, slice_route, rtol=1e-6)


def _per_node_functional(k, w, r, profile=_slice_weight_profile):
    """The functional as one float circle mean per integrand node."""
    q = PROFILE_SPEC
    if k.n == 1:
        def f(s):
            s = np.atleast_1d(s)
            means = np.array([rk_circle_mean(k, float(r * si), 1e-7) for si in s])
            return 2.0 * s * w(s) * means

        return (1.0 - r * r) * integrate_radial(f, q)[0]

    def f(v):
        v = np.atleast_1d(v)
        out = []
        for vi in v:
            wv = profile(w, k.n, float(vi), q)
            out.append(rk_circle_mean(k, r * float(vi), 1e-7) * wv)
        return np.array(out)

    return 4.0 * k.n * (k.n - 1) * (1.0 - r * r) * integrate_radial(f, q)[0]


class TestFunctionalPerNode:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_matches_per_node_circle_means(self, weights, tables, key, n):
        """The integrands take each initial mesh in one array call; the value
        is the per-node loop's, bit for bit, on a table grown the same way."""
        for r in (0.5, 0.875, 1.0 - 2.0 ** -6):
            k_loop = build_coeffs(tables[key], n, d_max=1 << 19)
            k = build_coeffs(tables[key], n, d_max=1 << 19)
            expected = _per_node_functional(k_loop, weights[key], r)
            assert boundedness_functional(k, weights[key], r) == expected, r
            assert k.built == k_loop.built

    def test_failing_profile_after_earlier_means(self, weights, tables, monkeypatch):
        """W(v) failing at the sixth node raises its error after the circle
        means of the five nodes before it, which grow the table, as node by
        node."""
        def failing_at(count):
            calls = []

            def profile(*args):
                calls.append(args)
                if len(calls) == count:
                    raise QuadratureError("W fails here")
                return _slice_weight_profile(*args)
            return profile

        r = 1.0 - 2.0 ** -10
        outcomes = []
        for run in ("loop", "array"):
            k = build_coeffs(tables["std0"], 2, d_max=1 << 19)
            if run == "loop":
                call = lambda: _per_node_functional(k, weights["std0"], r, failing_at(6))
            else:
                monkeypatch.setattr(analysis, "_slice_weight_profile", failing_at(6))
                call = lambda: boundedness_functional(k, weights["std0"], r)
            with pytest.raises(QuadratureError, match="W fails here"):
                call()
            outcomes.append(k.built)
        assert outcomes[0] == outcomes[1] > 257

    @pytest.mark.parametrize("s", [0.5, 0.99])
    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_pr_lhs_matches_per_node_circle_means(self, weights, tables, key, s):
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        gfac = 2.0 * math.gamma(3)

        def f_lhs(u):
            u = np.atleast_1d(u)
            out = np.array([gfac * rk_circle_mean(k, float(s * ui), 1e-7) / float(s * ui)
                            for ui in u])
            return u * (1.0 - u * u) ** 0 * out

        expected = s ** 2 * integrate_radial(f_lhs, PROFILE_SPEC)[0]
        fresh = build_coeffs(tables[key], 2, d_max=1 << 19)
        assert pr_estimate_check(fresh, weights[key], s)[0] == expected


class TestMajorant:
    def test_constant_weight_exact(self, weights):
        # antiderivative oracle: U(1/2) = 3/2 exactly, U(0.9) = 11/2
        assert_allclose(majorant(weights["std0"], 0.5), 1.5, atol=1e-8)
        u09 = majorant(weights["std0"], 0.9)
        assert_allclose(u09, 5.5, atol=1e-7)
        assert (1 - 0.9) * u09 <= 1.0

    def test_small_radius_limit(self, weights):
        assert majorant(weights["std1"], 1e-3) == pytest.approx(1.0, abs=2e-3)

    def test_exponential_weight_finite(self, weights):
        # underflowing tail ratios are treated as zero, the integral stays finite
        val = majorant(weights["exp11"], 1 - 2.0 ** -8)
        assert np.isfinite(val) and val > 1.0

    @pytest.mark.parametrize("r", [1 - 2.0 ** -3, 1 - 2.0 ** -10], ids=["k3", "k10"])
    @pytest.mark.parametrize("key", ["std0", "exp11", "std-0.5"])
    def test_matches_per_point_tails(self, weights, key, r):
        """The majorant's integrand takes its tails as arrays; the value is
        the one a tail quadrature per node gives, bit for bit."""
        w = RadialWeight.standard(-0.5) if key == "std-0.5" else weights[key]

        def f(t):
            t = np.atleast_1d(t)
            out = np.empty(t.size)
            for i, ti in enumerate(t):
                den = tail(w, float(ti), PROFILE_SPEC)
                if den <= 0.0:
                    out[i] = 0.0
                    continue
                out[i] = tail(w, float(ti / r), PROFILE_SPEC) / den
            return out / (1.0 - t) ** 2

        val, _ = integrate_radial(f, PROFILE_SPEC, a=0.0, b=r, graded_end=r)
        assert majorant(w, r) == 1.0 + val


class TestPrEstimate:
    def test_rhs_closed_form(self, coeffs_std0_n2, weights):
        # rhohat(t)(1-t)^2 = (1-t)^3 so rhs = ((1-s)^-2 - 1)/2 = 49.5 at s=0.9
        _, rhs, _ = pr_estimate_check(coeffs_std0_n2, weights["std0"], 0.9)
        assert_allclose(rhs, 49.5, rtol=1e-8)

    def test_constant_weight_ratio_closed_form(self, coeffs_std0_n2, weights):
        """ratio(s) = 12 s / ((1+s)^2 (2-s)) for the constant weight."""
        for s in (0.5, 0.7, 0.9):
            _, _, ratio = pr_estimate_check(coeffs_std0_n2, weights["std0"], s)
            assert_allclose(ratio, 12 * s / ((1 + s) ** 2 * (2 - s)), rtol=1e-5)

    def test_rhs_increasing(self, coeffs_std0_n2, weights):
        vals = [pr_estimate_check(coeffs_std0_n2, weights["std0"], s)[1]
                for s in (0.5, 0.7, 0.9)]
        assert vals[0] < vals[1] < vals[2]

    def test_literal_disk_quadrature_route(self, coeffs_std0_n2, weights):
        """The angular-mean reduction equals the literal disk integral of
        |d^n/dz^n K1(z, s)| at moderate s."""
        from bergman_lab import integrate_disk
        s = 0.5
        k = coeffs_std0_n2

        def h(zarr):
            from bergman_lab.kernel import g_values_many
            return 0.5 * s ** 2 * np.abs(g_values_many(k, zarr * s))

        lhs_literal = integrate_disk(h, 0, QuadSpec(initial_levels=6,
                                                    tolerance=1e-9,
                                                    rel_tolerance=1e-8))
        lhs_fast, _, _ = pr_estimate_check(k, weights["std0"], s)
        assert_allclose(lhs_fast, lhs_literal, rtol=1e-5)


class TestLowerBoundSeries:
    def test_zero_radius(self, tables):
        assert lower_bound_series(tables["std0"], 2, 0.0) == 0.0

    def test_constant_weight_direct_sum(self, tables):
        # terms (2d+4)/(d+4) r^d, summed directly
        d = np.arange(1, 400)
        oracle = float(np.sum((2 * d + 4) / (d + 4) * 0.5 ** d))
        assert_allclose(lower_bound_series(tables["std0"], 2, 0.5), oracle,
                        rtol=1e-7)

    def test_scaled_series_bounded(self, tables):
        """(1-r) times the series stays below 2.5 (ratio envelope -> 2)."""
        for r in dyadic_radii(8, 1):
            val = lower_bound_series(tables["std0"], 2, float(r), d_max=1 << 14)
            assert (1 - r) * val <= 2.5


class TestCesaro:
    def test_first_value(self, tables):
        assert_allclose(cesaro_lower(tables["std0"], 2, 1), 1.2, rtol=1e-12)

    def test_constant_weight_bounded(self, tables):
        vals = {N: cesaro_lower(tables["std0"], 2, N) for N in (16, 256, 4096)}
        assert_allclose(vals[16], 1.6213984, rtol=1e-7)
        assert_allclose(vals[256], 1.9366174, rtol=1e-7)
        assert_allclose(vals[4096], 1.9933469, rtol=1e-7)
        assert all(1.2 <= v <= 2.0 for v in vals.values())

    def test_exponential_diverges(self, tables):
        """Frozen against the graded scipy.quad oracle."""
        vals = {N: cesaro_lower(tables["exp11"], 2, N) for N in (64, 256, 1024)}
        assert_allclose(vals[64], 277.737, rtol=1e-3)
        assert_allclose(vals[256], 124955.0, rtol=1e-3)
        assert_allclose(vals[1024], 3.85351e10, rtol=1e-3)
        assert vals[64] < vals[256] < vals[1024]
        assert vals[1024] / vals[64] > 5


class TestMomentDoubling:
    def test_constant_weight_closed_form(self, tables):
        for N, ratio in moment_doubling_chain(tables["std0"], [8, 64, 1024]):
            assert_allclose(ratio, (6 * N + 1) / (4 * N + 1), rtol=1e-10)

    def test_alpha_two_bounded(self, tables):
        chain = moment_doubling_chain(tables["std2"], [8, 32, 128, 512, 1024])
        assert all(ratio < 4.0 for _, ratio in chain)

    def test_exponential_saddle_rate(self, tables):
        """Ratios grow like exp(2(sqrt6 - 2) sqrt N), prefactor ~ 1.33."""
        chain = moment_doubling_chain(tables["exp11"], [16, 64, 256])
        for N, ratio in chain:
            asym = math.exp(2 * (math.sqrt(6) - 2) * math.sqrt(N))
            assert 1.25 <= ratio / asym <= 1.45
        ratios = [r for _, r in chain]
        assert ratios[0] > 10 and ratios[0] < ratios[1] < ratios[2]


class TestHardyLittlewood:
    def test_constant_polynomial(self):
        lhs, rhs = hardy_littlewood_check(np.array([1.0 + 0j]), 1.0)
        assert_allclose([lhs, rhs], [1.0, 1.0], atol=1e-12)

    def test_cubed_monomial(self):
        lhs, rhs = hardy_littlewood_check(np.array([0, 0, 0, 1.0]), 1.0)
        assert_allclose([lhs, rhs], [0.25, 1.0], atol=1e-12)

    def test_parseval_case(self):
        norm_qq, rhs = hardy_littlewood_converse(np.array([0, 1.0, 1.0]), 2.0)
        assert_allclose(norm_qq, 2.0, atol=1e-10)
        assert_allclose(rhs, 2.0, atol=1e-12)

    def test_random_trials_constant_two(self, rng):
        for _ in range(100):
            a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            lhs, rhs = hardy_littlewood_check(a, 1.0)
            assert lhs <= 2.0 * rhs
            norm_qq, rhs_q = hardy_littlewood_converse(a, 4.0)
            assert norm_qq <= 2.0 * rhs_q

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hardy_littlewood_check(np.array([]), 1.0)


class TestGammaRatioNormalization:
    @pytest.mark.parametrize("n,lo,hi", [(2, 0.5, 2.05), (3, 0.6, 4.05)])
    def test_window(self, n, lo, hi):
        """Gamma(d+n)Gamma(d/2+1) / ((d+1)Gamma(d)Gamma(d/2+n)) stays in a
        fixed window for d up to 10^4 (limits 2^{n-1})."""
        d = np.arange(1, 10001, dtype=float)
        vals = np.exp(gammaln(d + n) + gammaln(d / 2 + 1) - np.log(d + 1)
                      - gammaln(d) - gammaln(d / 2 + n))
        assert vals.min() >= lo - 0.2
        assert vals.max() <= hi


class TestSphereIntegralAsymptotics:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_normalization(self, n):
        """Computed sphere integral of |<xi,w>|^d over the oracle
        Gamma(d/2+1)Gamma(n)/Gamma(d/2+n) |w|^d equals 1 with normalized
        measures."""
        a = 0.9
        z = BallPoint.radial(a, n)
        for d in (1, 2, 3, 7, 16, 33, 64):
            val = sphere_slice_average(lambda lam: np.abs(lam) ** d, z)
            oracle = a ** d * math.exp(gammaln(d / 2 + 1) + gammaln(n)
                                       - gammaln(d / 2 + n))
            assert_allclose(val, oracle, rtol=1e-8)


class TestSandwich:
    @pytest.mark.parametrize("key,kappa2_bound", [("std0", 10.0), ("std1", 20.0),
                                                  ("std2", 50.0), ("log0", 10.0)])
    def test_series_below_functional_below_majorant(self, weights, tables,
                                                    functional_profiles, key,
                                                    kappa2_bound):
        """(1-r^2) * series <= kappa1 M(r) and M(r) <= kappa2 (1-r^2) U(r),
        with kappa1 ~ 1 and kappa2 frozen per family from the reference run."""
        prof = dict(functional_profiles(key))
        for r in dyadic_radii(6, 2):
            r = float(r)
            m = prof[r]
            series = lower_bound_series(tables[key], 2, r, d_max=1 << 14)
            u = majorant(weights[key], r)
            assert (1 - r * r) * series <= 1.05 * m
            assert m <= kappa2_bound * (1 - r * r) * u


class TestFunctionalSlopes:
    @pytest.mark.parametrize("key", ["std0", "std1", "std2", "std5", "log0"])
    def test_class_weights_non_divergent(self, functional_profiles, key):
        """Class weights: M over k <= 12 has last-quartile log-slope <= 0.05."""
        prof = functional_profiles(key)
        rs = np.array([r for r, _ in prof])
        ms = np.array([m for _, m in prof])
        slope = last_quartile_log_slope(np.log(1 / (1 - rs)), ms)
        assert slope <= 0.05

    @pytest.mark.parametrize("key", ["exp11", "exp21"])
    def test_non_class_weights_cesaro_diverges(self, tables, key):
        """Non-class weights: Cesaro means diverge on the sqrt(N) scale."""
        ns = 2.0 ** np.arange(4, 13)
        vals = np.array([cesaro_lower(tables[key], 2, int(N)) for N in ns])
        slope = last_quartile_log_slope(np.sqrt(ns), vals)
        assert slope >= 0.05


@pytest.fixture(scope="module")
def theorem_reports(weights):
    cfg = AnalysisConfig(k_max=12)
    return {
        ("std0", 2): theorem_check(weights["std0"], 2, cfg),
        ("exp11", 2): theorem_check(weights["exp11"], 2, cfg),
        ("std0", 1): theorem_check(weights["std0"], 1, cfg),
    }


class TestTheoremCheck:
    def test_constant_weight_bounded(self, theorem_reports):
        rep = theorem_reports[("std0", 2)]
        assert rep.conclusion == "CONSISTENT_BOUNDED"
        assert rep.dhat_verdict.verdict == "IN_CLASS"
        assert rep.aux["functional_slope"] <= 0.05

    def test_exponential_unbounded(self, theorem_reports):
        rep = theorem_reports[("exp11", 2)]
        assert rep.conclusion == "CONSISTENT_UNBOUNDED"
        assert rep.dhat_verdict.verdict == "NOT_IN_CLASS"
        assert rep.aux["cesaro_slope"] >= 0.05
        # deep radii fall past the series budget and are flagged, not fatal
        assert any("skipped" in note for note in rep.notes)

    def test_disk_case(self, theorem_reports):
        rep = theorem_reports[("std0", 1)]
        assert rep.conclusion == "CONSISTENT_BOUNDED"

    def test_report_serializes(self, theorem_reports):
        d = theorem_reports[("std0", 2)].to_dict()
        assert d["conclusion"] == "CONSISTENT_BOUNDED"
        assert len(d["functional_profile"]) == 12
        assert len(d["cesaro_profile"]) == 9

    def test_shared_slice_profiles_change_no_value(self, weights, tables):
        """The sweep shares W(v) across radii; each radius still equals a
        standalone call on a table of its own, bit for bit."""
        cfg = AnalysisConfig(k_max=6, d_max=1 << 15)
        profile = dict(theorem_check(weights["std0"], 2, cfg, tables["std0"])
                       .functional_profile)
        for r in (0.5, 0.875, 1.0 - 2.0 ** -6):
            k = build_coeffs(tables["std0"], 2, d_max=1 << 15)
            assert profile[r] == boundedness_functional(k, weights["std0"], r)

    def test_threads_complete_with_ordered_notes(self, weights):
        """Two threads share one growing coefficient table: the run must not
        race, and its skip notes come in parameter order as with one."""
        def notes(threads):
            cfg = AnalysisConfig(k_max=8, d_max=4096, threads=threads)
            return theorem_check(weights["exp11"], 2, cfg).notes

        single = notes(1)
        assert sum("skipped" in note for note in single) >= 2
        assert notes(2) == single
