"""Kernel series construction, evaluation, truncation control, derivatives."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bergman_lab import (BallPoint, MomentTable, NumericRangeError, RadialWeight,
                         TruncationError, build_coeffs, eval_disk_kernel_deriv, eval_g,
                         eval_kernel, eval_rk, inner, integrate_ball_radial,
                         kernel_norm_sq, rk_circle_mean, sphere_slice_average)
from bergman_lab import kernel
from bergman_lab.kernel import (_BLOCK_ELEMENTS, _DECAY, _series_at, _terms,
                                 _values_many, g_values_many, kernel_values_many)


def _pair(t, n=2):
    """Real points z = w = sqrt(t) e_1 so that <z,w> = t."""
    r = math.sqrt(t)
    return BallPoint.radial(r, n), BallPoint.radial(r, n)


class TestBuildCoeffs:
    def test_constant_weight_n2(self, coeffs_std0_n2):
        # c_d = (d+1)(d+2)/2: the binomial coefficients of (1-t)^-3
        for d, expected in ((0, 1.0), (1, 3.0), (2, 6.0), (9, 55.0)):
            assert_allclose(math.exp(coeffs_std0_n2.log_c(d)), expected,
                            rtol=1e-12)

    def test_constant_weight_n1(self, tables):
        k = build_coeffs(tables["std0"], 1, d_max=512)
        for d in (0, 1, 5, 11):
            assert_allclose(math.exp(k.log_c(d)), d + 1.0, rtol=1e-12)

    def test_head_coefficient_any_weight(self, tables):
        # c_0 = 1/(2 n rho_{2n-1}); for alpha=1, n=2: rho_3 = 1/12 so c_0 = 3
        k = build_coeffs(tables["std1"], 2, d_max=64)
        assert_allclose(math.exp(k.log_c(0)), 3.0, rtol=1e-11)

    def test_subgeometric_growth(self, tables):
        """log c_d / d -> 0 for class weights (series radius 1)."""
        for key in ("std0", "std2", "log0"):
            k = build_coeffs(tables[key], 2, d_max=4096, initial=4097)
            d = 4096
            assert k.log_c(d) / d < 0.01

    def test_degree_past_d_max_rejected(self, tables):
        k = build_coeffs(tables["std0"], 2, d_max=4)
        assert math.exp(k.log_c(4)) == pytest.approx(15.0)
        with pytest.raises(ValueError, match="kernel degree 6 .*d_max=4"):
            k.log_c(6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_factorial_part_against_mpmath(self, n):
        """log((d+n-1)! / (d! n!)) as a sum of logs is within 1e-14 of the
        mpmath value at 50 digits; gammaln(d+n) - gammaln(d+1) - gammaln(n+1)
        misses it by 2.8e-10 at n = 2, d = 2^17."""
        import mpmath

        d = np.array([0.0, 1.0, 2.0 ** 17, 2.0 ** 19])
        got = kernel._log_gamma_part(d, n)
        with mpmath.workdps(50):
            for dd, value in zip(d.tolist(), got.tolist()):
                exact = (mpmath.loggamma(dd + n) - mpmath.loggamma(dd + 1)
                         - mpmath.loggamma(n + 1))
                assert abs(value - float(exact)) <= 1e-14, dd

    def test_lazy_extension_threadsafe(self, tables):
        k = build_coeffs(tables["std1"], 2, d_max=8192, initial=16)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda d: k.ensure(d), [512, 1024, 300, 2048, 4096] * 4))
        assert k.built >= 4096
        fresh = build_coeffs(tables["std1"], 2, d_max=8192, initial=4096)
        assert_allclose(k.log_coeffs[:4096], fresh.log_coeffs[:4096], atol=1e-11)


class TestEvalKernel:
    def test_constant_weight_closed_form(self, coeffs_std0_n2):
        z, w = _pair(0.25)
        assert_allclose(complex(eval_kernel(coeffs_std0_n2, z, w)),
                        (1 - 0.25) ** -3.0, rtol=1e-9)

    def test_w_zero_gives_head(self, tables):
        k = build_coeffs(tables["std1"], 2, d_max=64)
        z = BallPoint.radial(0.4, 2)
        w = BallPoint(np.zeros(2, dtype=complex))
        assert complex(eval_kernel(k, z, w)) == pytest.approx(3.0, rel=1e-11)

    def test_orthogonal_points(self, coeffs_std0_n2):
        z = BallPoint(np.array([0.3 + 0j, 0j]))
        w = BallPoint(np.array([0j, 0.4 + 0j]))
        assert complex(eval_kernel(coeffs_std0_n2, z, w)) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_weight_closed_form_random_pairs(self, alpha, n, rng):
        """K = c_0 (1 - <z,w>)^{-(n+1+alpha)} for standard weights."""
        table = MomentTable(RadialWeight.standard(alpha))
        k = build_coeffs(table, n, d_max=1 << 15)
        c0 = math.exp(k.log_c(0))
        done = 0
        while done < 10:
            zc = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
            wc = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
            if np.linalg.norm(zc) >= 0.97 or np.linalg.norm(wc) >= 0.97:
                continue
            z, w = BallPoint(zc), BallPoint(wc)
            t = inner(z, w)
            if abs(t) > 0.9:
                continue
            oracle = c0 * (1 - t) ** -(n + 1 + alpha)
            val = complex(eval_kernel(k, z, w, tol=1e-13))
            assert abs(val - oracle) <= 1e-8 * abs(oracle)
            done += 1

    def test_hermitian_symmetry_exact(self, coeffs_std0_n2, rng):
        for _ in range(10):
            zc = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            wc = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            z, w = BallPoint(zc), BallPoint(wc)
            assert complex(eval_kernel(coeffs_std0_n2, z, w)) == \
                complex(eval_kernel(coeffs_std0_n2, w, z)).conjugate()

    def test_diagonal_positive_and_at_least_head(self, tables):
        k = build_coeffs(tables["std2"], 2, d_max=4096)
        c0 = math.exp(k.log_c(0))
        for r in (0.0, 0.3, 0.8):
            val = complex(eval_kernel(k, *_pair(r * r)))
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val.real))
            assert val.real >= c0 - 1e-12

    def test_truncation_metadata_and_doubling_stability(self, tables):
        """Certified tail below tol, and doubling the degree moves the value
        by less than twice the tolerance."""
        k = build_coeffs(tables["std1"], 2, d_max=1 << 15)
        tol = 1e-9
        for t in (0.5, 0.9):
            z, w = _pair(t)
            val, info = eval_kernel(k, z, w, tol=tol, return_info=True)
            assert info.tail_bound_rel < tol
            d = np.arange(2 * info.degree_used + 1)
            k.ensure(d.size)
            terms = np.exp(k.log_coeffs[:d.size] + d * math.log(t))
            s1 = terms[:info.degree_used + 1].sum()
            s2 = terms.sum()
            assert abs(s2 - s1) < 2 * tol * abs(s2)
            assert_allclose(val.real, s1, rtol=1e-13)

    def test_truncation_error_carries_partial(self, tables):
        """d_max = 48, c_d = (d+1)(d+2)/2: the error carries the partial sum
        through degree 48, and the row rule's tail bound at D = 47, term_47
        q / (1 - q) with q = |t| 50/48, where q < 1 (|t| = 0.9); at |t| =
        0.995, q > 1 and there is none."""
        k = build_coeffs(tables["std0"], 2, d_max=48)
        d = np.arange(49)
        c = (d + 1) * (d + 2) / 2
        for t, q in ((0.995, None), (0.9, 0.9 * 50 / 48)):
            with pytest.raises(TruncationError) as excinfo:
                eval_kernel(k, *_pair(t), tol=1e-10)
            assert excinfo.value.degree_used == 48
            assert_allclose(excinfo.value.partial_sum, np.sum(c * t ** d), rtol=1e-12)
            if q is None:
                assert excinfo.value.tail_bound is None
            else:
                assert_allclose(excinfo.value.tail_bound, c[47] * t ** 47 * q / (1 - q),
                                rtol=1e-12)


class TestEvalG:
    def test_at_zero(self, coeffs_std0_n2):
        assert complex(eval_g(coeffs_std0_n2, 0.0)) == pytest.approx(12.0, rel=1e-11)

    def test_closed_form(self, coeffs_std0_n2):
        # g(t) = 12 / (1-t)^4 for the constant weight in n = 2
        assert complex(eval_g(coeffs_std0_n2, 0.25)) == pytest.approx(
            12.0 / 0.75 ** 4, rel=1e-9)

    def test_n1_series_oracle(self, tables):
        # n=1 constant weight: g(lam) = sum d (2d+2) lam^{d-1} = 4/(1-lam)^3
        k = build_coeffs(tables["std0"], 1, d_max=4096)
        assert complex(eval_g(k, 0.5)) == pytest.approx(32.0, rel=1e-9)


class TestEvalRK:
    def test_zero_argument(self, coeffs_std0_n2):
        z = BallPoint.radial(0.5, 2)
        w = BallPoint(np.array([0j, 0.5 + 0j]))
        assert complex(eval_rk(coeffs_std0_n2, z, w)) == 0.0

    def test_closed_form(self, coeffs_std0_n2):
        # R(1-t)^{-3} = 3t(1-t)^{-4}
        z, w = _pair(0.25)
        assert complex(eval_rk(coeffs_std0_n2, z, w)) == pytest.approx(
            3 * 0.25 / 0.75 ** 4, rel=1e-9)
        z, w = _pair(0.5)
        assert complex(eval_rk(coeffs_std0_n2, z, w)) == pytest.approx(24.0, rel=1e-9)

    def test_matches_termwise_derivative_series(self, tables, rng):
        """The g-route value equals the direct sum d c_d t^d."""
        k = build_coeffs(tables["std1"], 2, d_max=8192)
        k.ensure(4096)
        d = np.arange(4096)
        for _ in range(5):
            t = complex(rng.uniform(0.05, 0.8), rng.uniform(-0.3, 0.3))
            if abs(t) >= 0.85:
                continue
            direct = np.sum(np.exp(k.log_coeffs[:4096]) * d * t ** d)
            val = t * complex(eval_g(k, t)) / (2 * math.gamma(3))
            assert_allclose(val, direct, rtol=1e-9)

    def test_finite_difference_consistency(self, tables):
        """R K along the diagonal matches a centered difference of K."""
        k = build_coeffs(tables["std1"], 2, d_max=1 << 14)
        h = 1e-6
        for t in (0.1, 0.5, 0.8):
            plus = complex(eval_kernel(k, *_pair(t + h), tol=1e-12))
            minus = complex(eval_kernel(k, *_pair(t - h), tol=1e-12))
            fd = t * (plus - minus) / (2 * h)
            rk = complex(eval_rk(k, *_pair(t), tol=1e-12))
            assert_allclose(rk.real, fd.real, rtol=1e-5)


class TestDiskKernelDeriv:
    def test_w_zero(self, coeffs_std0_n2):
        assert eval_disk_kernel_deriv(coeffs_std0_n2, 0.3, 0.0) == 0.0

    def test_hand_values(self, coeffs_std0_n2):
        assert complex(eval_disk_kernel_deriv(coeffs_std0_n2, 0.0, 0.5)) == \
            pytest.approx(1.5, rel=1e-10)
        assert complex(eval_disk_kernel_deriv(coeffs_std0_n2, 0.5, 0.5)) == \
            pytest.approx(0.5 * (12 / 0.75 ** 4) * 0.25, rel=1e-9)

    @pytest.mark.parametrize("key", ["std0", "std1"])
    def test_termwise_derivative_cross_validation(self, tables, key, rng):
        """Independent route: differentiate K1(z,w) = (1/2) sum (z conj w)^d / rho_{2d+1}
        term by term, using the odd moments directly."""
        from scipy.special import gammaln

        n = 2
        k = build_coeffs(tables[key], n, d_max=4096)
        t = tables[key]
        d = np.arange(n, 3000, dtype=float)
        log_m = t.log_moments(2.0 * d + 1.0)
        for _ in range(4):
            z = complex(rng.uniform(0, 0.6), rng.uniform(-0.3, 0.3))
            w = complex(rng.uniform(0.1, 0.6), rng.uniform(-0.3, 0.3))
            zw = z * np.conj(w)
            terms = np.exp(gammaln(d + 1) - gammaln(d - n + 1) - log_m) \
                * zw ** (d - n) * np.conj(w) ** n
            direct = 0.5 * np.sum(terms)
            val = eval_disk_kernel_deriv(k, z, w, tol=1e-11)
            assert_allclose(val, direct, rtol=1e-8)

    def test_only_order_n(self, coeffs_std0_n2):
        with pytest.raises(ValueError):
            eval_disk_kernel_deriv(coeffs_std0_n2, 0.1, 0.2, order=1)


class TestKernelNormSq:
    def test_at_origin(self, tables):
        k = build_coeffs(tables["std1"], 2, d_max=64)
        z = BallPoint(np.zeros(2, dtype=complex))
        assert kernel_norm_sq(k, z) == pytest.approx(3.0, rel=1e-11)

    def test_closed_form(self, coeffs_std0_n2):
        z = BallPoint.radial(0.5, 2)
        assert kernel_norm_sq(coeffs_std0_n2, z) == pytest.approx(
            0.75 ** -3.0, rel=1e-9)

    def test_equals_diagonal_kernel(self, tables):
        k = build_coeffs(tables["std2"], 2, d_max=4096)
        z = BallPoint(np.array([0.4 + 0.2j, -0.3 + 0.5j]))
        diag = complex(eval_kernel(k, z, z))
        assert abs(diag.imag) < 1e-12 * abs(diag.real)
        assert kernel_norm_sq(k, z) == pytest.approx(diag.real, rel=1e-10)

    def test_reproduces_own_norm_by_quadrature(self, coeffs_std0_n2, weights):
        """||K(., z)||^2 = int |K(z,w)|^2 rho dv, via the polar pipeline."""
        k = coeffs_std0_n2
        z = BallPoint.radial(0.5, 2)

        def slice_fn(s):
            # w = s xi, so the kernel argument is s <z, xi>
            return sphere_slice_average(
                lambda lam: np.abs(kernel_values_many(k, s * lam)) ** 2, z)

        val = integrate_ball_radial(slice_fn, weights["std0"], 2)
        assert_allclose(val, kernel_norm_sq(k, z), atol=1e-4)


class TestCircleMean:
    def test_zero_radius(self, coeffs_std0_n2):
        assert rk_circle_mean(coeffs_std0_n2, 0.0) == 0.0

    def test_against_direct_trapezoid(self, coeffs_std0_n2):
        """FFT wrap equals the plain trapezoid mean of |RK| on the circle."""
        xi = 0.7
        theta = 2 * np.pi * np.arange(8192) / 8192
        d = np.arange(4096)
        coeffs_std0_n2.ensure(4096)
        terms = np.exp(coeffs_std0_n2.log_coeffs[:4096] + d * math.log(xi))
        vals = np.polynomial.polynomial.polyval(np.exp(1j * theta), terms * d)
        direct = np.mean(np.abs(vals))
        assert_allclose(rk_circle_mean(coeffs_std0_n2, xi, tol=1e-12), direct,
                        rtol=1e-8)

    @pytest.mark.parametrize("key, xi", [("std0", 1.0 - 2.0 ** -10), ("exp11", 0.97)])
    def test_deep_radius_against_direct_trapezoid(self, tables, key, xi):
        """At a deep radius, the half-circle real FFTs started from the
        certified degree give the plain trapezoid mean over the full circle
        at the node count where they settle.  The oracle evaluates the
        polynomial at every node with polyval and applies the same stop
        rule; each coarser grid is a subsample of the finest."""
        tol = 1e-8
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        D, scale, gamma, _ = _terms(k, xi, tol, 1)
        start = 256
        while 2 * start < D + 1:
            start *= 2
        top = 4 * start
        vals = np.abs(np.polynomial.polynomial.polyval(
            np.exp(2j * np.pi * np.arange(top) / top), gamma))
        means = [float(np.mean(vals[::top // n_nodes])) for n_nodes in (start, 2 * start, top)]
        settled = next(j for j in (1, 2) if abs(means[j] - means[j - 1]) <= tol * means[j])
        assert_allclose(rk_circle_mean(k, xi, tol), means[settled] * math.exp(scale),
                        rtol=1e-7)

    @pytest.mark.parametrize("xi, degree", [(0.91529, 300), (0.9947, 5000), (0.99956, 60000)])
    def test_started_at_degree_matches_start_at_256(self, coeffs_std0_n2, xi, degree):
        """Starting the doubling at (D+1)/2 nodes skips only levels that alias
        the terms: the mean agrees within tol with the inverse-FFT doubling
        from 256 nodes, written out here."""
        tol = 1e-8
        D, scale, gamma, _ = _terms(coeffs_std0_n2, xi, tol, 1)
        assert abs(D - degree) <= 0.01 * degree
        prev, n_nodes = None, 256
        while True:
            folded = np.zeros(-(-gamma.size // n_nodes) * n_nodes)
            folded[:gamma.size] = gamma
            wrapped = folded.reshape(-1, n_nodes).sum(axis=0)
            cur = float(np.mean(np.abs(np.fft.ifft(wrapped) * n_nodes)))
            if prev is not None and abs(cur - prev) <= tol * cur:
                break
            prev, n_nodes = cur, 2 * n_nodes
        value = rk_circle_mean(coeffs_std0_n2, xi, tol)
        assert abs(value - cur * math.exp(scale)) <= tol * value


def _oracle_fft_levels(gammas, first, tol, max_nodes):
    """The full-level loop: every level takes the real FFT of the terms
    folded onto all of its nodes, none reuses the previous level."""
    means = [None] * len(gammas)
    prev = [None] * len(gammas)
    pending = list(range(len(gammas)))
    n_nodes = min(first)
    while pending and n_nodes <= max_nodes:
        live = [i for i in pending if first[i] <= n_nodes]
        step = max(1, _BLOCK_ELEMENTS // n_nodes)
        for b in range(0, len(live), step):
            rows = live[b:b + step]
            wrapped = np.zeros((len(rows), min(n_nodes, max(gammas[i].size for i in rows))))
            for out, i in zip(wrapped, rows):
                gamma = gammas[i]
                if gamma.size <= n_nodes:
                    out[:gamma.size] = gamma
                else:
                    folds = -(-gamma.size // n_nodes)
                    padded = np.zeros(folds * n_nodes)
                    padded[:gamma.size] = gamma
                    out[:] = padded.reshape(folds, n_nodes).sum(axis=0)
            half = np.abs(np.fft.rfft(wrapped, n=n_nodes, axis=1))
            total = half[:, 0] + 2.0 * np.add.reduce(half[:, 1:(n_nodes + 1) // 2], axis=1)
            if n_nodes % 2 == 0:
                total += half[:, n_nodes // 2]
            cur = total / n_nodes
            for c, i in zip(cur.tolist(), rows):
                if prev[i] is not None and abs(c - prev[i]) <= tol * abs(c):
                    means[i] = c
                else:
                    prev[i] = c
        pending = [i for i in pending if means[i] is None]
        n_nodes *= 2
    return means, prev


def _assert_same_levels(got, expected, rtol):
    """Rows settle or fail alike, and their means (or last values) agree."""
    for (m, p), (m_oracle, p_oracle) in zip(zip(*got), zip(*expected)):
        assert (m is None) == (m_oracle is None)
        value, oracle = (m, m_oracle) if m is not None else (p, p_oracle)
        assert (value is None) == (oracle is None)
        if oracle is not None:
            assert abs(value - oracle) <= rtol * abs(oracle)


def _fresh_folded(gammas, rows, period, width, alternate):
    out = np.zeros((len(rows), width))
    for o, i in zip(out, rows):
        gamma = gammas[i]
        o[:min(period, gamma.size)] = gamma[:period]
        for m, lo in enumerate(range(period, gamma.size, period), 1):
            chunk = gamma[lo:lo + period]
            fold = np.subtract if alternate and m % 2 else np.add
            fold(o[:chunk.size], chunk, out=o[:chunk.size])
    return out


def _fresh_fft_levels(gammas, first, tol, max_nodes):
    """The nested levels with fresh arrays for every fold, FFT and
    magnitude of every block, as they were before the working set."""
    means, prev = [None] * len(gammas), [None] * len(gammas)
    sums = [0.0] * len(gammas)
    pending = list(range(len(gammas)))
    n_nodes = min(first)
    while pending and n_nodes <= max_nodes:
        step = max(1, _BLOCK_ELEMENTS // n_nodes)
        fresh = [i for i in pending if first[i] == n_nodes]
        older = [i for i in pending if first[i] < n_nodes]
        twiddles = kernel._midpoint_twiddles(n_nodes // 2) if older else None
        for live in (fresh, older):
            for b in range(0, len(live), step):
                rows = live[b:b + step]
                if live is fresh:
                    width = min(n_nodes, max(gammas[i].size for i in rows))
                    spectrum = np.abs(np.fft.rfft(
                        _fresh_folded(gammas, rows, n_nodes, width, False), n=n_nodes, axis=1))
                    half = n_nodes // 2
                    added = (spectrum[:, 0] + 2.0 * np.add.reduce(spectrum[:, 1:half], axis=1)
                             + spectrum[:, half])
                else:
                    half = n_nodes // 4
                    folded = _fresh_folded(gammas, rows, n_nodes // 2, n_nodes // 2, True)
                    u = np.empty((len(rows), half), dtype=complex)
                    u.real = folded[:, :half]
                    np.negative(folded[:, half:], out=u.imag)
                    u *= twiddles
                    added = 2.0 * np.add.reduce(np.abs(np.fft.fft(u, axis=1)), axis=1)
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


class TestNestedLevels:
    """Each level after a row's first adds only the midpoints of the
    previous grid to its node sum; an independent route takes every level's
    full real FFT."""

    @pytest.mark.parametrize("key, deepest", [("std0", 12), ("exp11", 8)])
    @pytest.mark.parametrize("tol", [1e-7, 1e-10])
    def test_rows_settle_at_the_oracle_level(self, tables, key, deepest, tol):
        """From r = 0.5 to the deepest radius the table certifies (1 - 2^-12
        for std0, 1 - 2^-8 for exp11 at d_max = 2^19): capped at each level
        where a row settles, the same rows settle, within 1e-13."""
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        radii = 1.0 - 2.0 ** -np.linspace(1.0, deepest, 25)
        terms = [_terms(k, float(x), tol, 1) for x in radii]
        gammas = [gamma for _, _, gamma, _ in terms]
        first = [kernel._first_level(D, 256, 1 << 20) for D, _, _, _ in terms]
        expected = _oracle_fft_levels(gammas, first, tol, 1 << 20)
        assert all(m is not None for m in expected[0])
        levels = {n for n in (min(first) << j for j in range(13)) if n <= 1 << 20}
        for cap in sorted(levels):
            _assert_same_levels(kernel._fft_levels(gammas, first, tol, cap),
                                _oracle_fft_levels(gammas, first, tol, cap), 1e-13)

    @pytest.mark.parametrize("key, deepest", [("std0", 12), ("exp11", 8)])
    def test_working_set_bitwise_equal_to_fresh_arrays(self, tables, key, deepest):
        """One working set for every block and level gives, bit for bit, the
        means and last values of fresh arrays per block, on term tables from
        r = 1 - 2^-1 to the deepest radius the table certifies, at tol 1e-7
        and capped at 2^14 nodes, where some rows do not settle."""
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        radii = 1.0 - 2.0 ** -np.linspace(1.0, deepest, 25)
        terms = [_terms(k, float(x), 1e-7, 1) for x in radii]
        gammas = [gamma for _, _, gamma, _ in terms]
        first = [kernel._first_level(D, 256, 1 << 20) for D, _, _, _ in terms]
        for cap in (1 << 20, 1 << 14):
            got = kernel._fft_levels(gammas, first, 1e-7, cap)
            assert got == _fresh_fft_levels(gammas, first, 1e-7, cap)
        assert None in got[0]

    def test_unsettled_row_keeps_its_last_level(self, tables):
        """std0 at 1 - 2^-10 on 256, 512 and 1024 nodes (max_nodes = 1024):
        grids that fold the terms many times do not settle, and the last
        level's value agrees with the oracle's."""
        k = build_coeffs(tables["std0"], 2, d_max=1 << 19)
        D, _, gamma, _ = _terms(k, 1.0 - 2.0 ** -10, 1e-7, 1)
        assert D > 8 * 1024
        got = kernel._fft_levels([gamma], [256], 1e-7, 1024)
        expected = _oracle_fft_levels([gamma], [256], 1e-7, 1024)
        assert got[0] == expected[0] == [None]
        _assert_same_levels(got, expected, 1e-13)

    @pytest.mark.parametrize("prev_nodes", [2, 8, 64])
    def test_midpoint_sum_against_polyval(self, rng, prev_nodes):
        """The midpoint sum of N nodes is sum_j |p((2j+1) pi / N)| for a table
        that folds an odd number of times onto N degrees, and the node sum
        the same over the nodes 2 pi j / N."""
        gamma = rng.standard_normal(3 * prev_nodes + 5)
        j = np.arange(prev_nodes)
        for sums, angles in [
                (kernel._midpoint_sums([gamma], [0], prev_nodes,
                                       kernel._midpoint_twiddles(prev_nodes), {}),
                 (2 * j + 1) * np.pi / prev_nodes),
                (kernel._node_sums([gamma], [0], prev_nodes, {}),
                 2 * j * np.pi / prev_nodes)]:
            direct = np.sum(np.abs(np.polynomial.polynomial.polyval(np.exp(1j * angles),
                                                                    gamma)))
            assert sums.shape == (1,)
            assert abs(sums[0] - direct) <= 1e-13 * direct

    @pytest.mark.parametrize("start", [0, 1, 3, 384, -256])
    def test_start_nodes_power_of_two(self, tables, start):
        """The midpoint step halves the previous level, so every level must
        be even: start_nodes is a power of two >= 2, checked before the
        table grows."""
        k = build_coeffs(tables["std0"], 2, d_max=4096)
        built = k.built
        with pytest.raises(ValueError, match="start_nodes"):
            rk_circle_mean(k, 0.99, start_nodes=start)
        assert k.built == built


class TestCircleMeanSingularWeight:
    @pytest.mark.parametrize("xi", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_n1_against_closed_form(self, xi):
        """standard(-0.9), n = 1: R K = (a+1)(a+2) t (1-t)^-(a+3) on the disc,
        so its circle mean is the mean of that closed form over a fine angle
        grid.  The moments must carry the weight's mass past u = 2^-80,
        about 0.4% of each."""
        alpha = -0.9
        k = build_coeffs(MomentTable(RadialWeight.standard(alpha)), 1, d_max=1 << 14)
        t = xi * np.exp(2j * np.pi * np.arange(4096) / 4096)
        exact = np.mean(np.abs((alpha + 1) * (alpha + 2) * t * (1 - t) ** -(alpha + 3)))
        assert abs(rk_circle_mean(k, xi, 1e-10) - exact) <= 1e-6 * exact


class TestValuesManyRange:
    @pytest.mark.parametrize("m", [0, 1])
    def test_array_path_matches_scalar_past_double_range_coefficients(self, tables, m):
        """exp11, n = 2: at |t| = 0.995 the coefficients exceed e^699, yet the
        rescaled array path agrees with the scalar path.  The table is built
        deep enough that neither call grows it, so both truncate at the same
        certified degree at |t| = 0.995; tol = 1e-13 keeps the scalar path's
        own truncation at the half-modulus point below the comparison."""
        tol = 1e-13
        k = build_coeffs(tables["exp11"], 2, d_max=1 << 19, initial=1 << 17)
        ts = np.array([0.995, 0.995j, 0.4975])
        vals = _values_many(k, ts, tol, m)
        refs = [_series_at(k, complex(t), tol, m)[0] for t in ts]
        assert math.log(abs(refs[0])) > 400.0
        for i in (0, 2):
            assert abs(vals[i] - refs[i]) <= 1e-12 * abs(refs[i]), ts[i]
        # K(0.995i) is ~1e-12 of the sum of its term magnitudes, K(0.995):
        # its digits past that cancel, so compare on that scale
        assert abs(refs[1]) < 1e-11 * abs(refs[0])
        assert abs(vals[1] - refs[1]) <= 1e-12 * abs(refs[0])

    @pytest.mark.parametrize("shape", [(1,), (2, 3)])
    def test_all_zero_arguments(self, tables, shape):
        """std0, n = 2, K = (1 - t)^-3: at t = 0 everywhere K is c_0 = 1 and
        g is 2 Gamma(3) c_1 = 12, as the one-point evaluators give."""
        k = build_coeffs(tables["std0"], 2)
        zeros = np.zeros(shape, dtype=complex)
        head = complex(eval_kernel(k, BallPoint.radial(0.4, 2),
                                   BallPoint(np.zeros(2, dtype=complex))))
        for values, one_point, closed in ((kernel_values_many(k, zeros), head, 1.0),
                                          (g_values_many(k, zeros), eval_g(k, 0.0), 12.0)):
            assert values.shape == shape and values.dtype == complex
            assert np.all(values == one_point)
            assert one_point == pytest.approx(closed, rel=1e-11)

    def test_values_past_double_range_raise(self):
        """exponential(c=1000, beta=1), n = 2: log c_0 is about 1024, so at
        |t| = 0.3 the circle mean and the series values exceed double
        range, though their terms, rescaled, do not."""
        k = build_coeffs(MomentTable(RadialWeight.exponential(1000.0, 1.0)), 2, d_max=4096)
        assert k.log_coeffs[0] > 709.0
        calls = [(lambda: rk_circle_mean(k, 0.3), "circle mean"),
                 (lambda: kernel_values_many(k, np.array([0.3, 0.1j])), "series value"),
                 (lambda: eval_rk(k, *_pair(0.3)), "series value")]
        for call, what in calls:
            with pytest.raises(NumericRangeError, match=f"^{what} exceeds double range$"):
                call()


def _oracle_power_sums(k, flat, tol, m):
    """The many-point series one degree at a time: one power, one term and
    one running sum per degree."""
    amax = float(np.max(np.abs(flat)))
    D, scale, gamma, _ = _terms(k, amax, tol, m)
    x = flat.real / amax + 1j * (flat.imag / amax)
    vals = np.full(x.shape, gamma[0], dtype=complex)
    p = np.ones(x.shape, dtype=complex)
    for g in gamma[1:]:
        p = p * x
        vals += g * p
    return vals * math.exp(scale), D


class TestPowerSumsBlocked:
    """Many points take a block of degrees per array call, bit for bit the
    per-degree loop."""

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("key, amax", [("std0", 0.9), ("exp11", 0.97)])
    @pytest.mark.parametrize("size", [2, 7, 1000])
    def test_bitwise_equal_per_degree(self, tables, rng, key, amax, m, size):
        """Sizes whose blocks hold many degrees, with a shorter last block
        (1000 points: 131 degrees a block)."""
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        flat = amax * rng.uniform(0.0, 1.0, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
        flat[0] = amax * 1j
        flat[-1] = 0.0
        want, D = _oracle_power_sums(k, flat, 1e-12, m)
        vals, got_D, _ = kernel._power_sums(k, flat, 1e-12, m)
        assert got_D == D and D > _BLOCK_ELEMENTS // 1000
        assert vals.tobytes() == want.tobytes()

    def test_one_degree_per_block_past_the_block_size(self, tables, rng):
        """More points than _BLOCK_ELEMENTS: each block is one degree."""
        k = build_coeffs(tables["std0"], 2, d_max=1 << 19)
        size = _BLOCK_ELEMENTS + 3
        flat = 0.3 * rng.uniform(-1.0, 1.0, size) + 0.3j * rng.uniform(-1.0, 1.0, size)
        want, D = _oracle_power_sums(k, flat, 1e-10, 1)
        assert D > 2
        assert kernel._power_sums(k, flat, 1e-10, 1)[0].tobytes() == want.tobytes()


class TestSeriesAtCancellation:
    @pytest.mark.parametrize("m", [0, 1])
    def test_one_point_against_exact_phase_sum(self, tables, m):
        """exp11, n = 2, t = 0.995i: the series cancels to about 1e-12 of
        the sum of its term magnitudes.  The one-point sum (power recursion)
        must match the exactly rounded sum of the same certified terms times
        i^d to 1e-6; summing gamma_d cos(d theta) and gamma_d sin(d theta)
        was 2.5e-3 off."""
        tol = 1e-13
        k = build_coeffs(tables["exp11"], 2, d_max=1 << 19, initial=1 << 17)
        D, scale, gamma, _ = _terms(k, 0.995, tol, m)
        signs = np.where(np.arange(D + 1) % 4 < 2, 1.0, -1.0)  # i^d is signs_d or i signs_d
        exact = complex(math.fsum(gamma[0::2] * signs[0::2]),
                        math.fsum(gamma[1::2] * signs[1::2]))
        value, info = _series_at(k, 0.995j, tol, m)
        assert info.degree_used == D
        assert abs(value * math.exp(-scale) - exact) <= 1e-6 * abs(exact)


class TestCertifyPrefix:
    @pytest.mark.parametrize("key", ["std0", "exp11"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_history_independent(self, tables, key, m):
        """A fresh table and one an earlier call grew past 2^17 degrees give
        the same certified term table, bit for bit: certification scans
        doubling prefixes, so the table's size never enters the result.  The
        grown table doubles as certification grows it, so both hold the same
        coefficients."""
        grown = build_coeffs(tables[key], 2, d_max=1 << 19)
        while grown.built < 1 << 17:
            grown.ensure(2 * grown.built)
        for t in (0.05, 0.3, 0.6, 0.9, 0.97, 0.99):
            fresh = build_coeffs(tables[key], 2, d_max=1 << 19)
            D, scale, gamma, tail = _terms(fresh, t, 1e-10, m)
            D2, scale2, gamma2, tail2 = _terms(grown, t, 1e-10, m)
            assert (D, scale, tail) == (D2, scale2, tail2), t
            assert gamma.tobytes() == gamma2.tobytes(), t

    @pytest.mark.parametrize("d_max", [17, 4096, 1 << 19])
    @pytest.mark.parametrize("key", ["std0", "exp11", "std-0.5"])
    def test_pre_grown_tables_certify_as_a_fresh_one(self, key, d_max):
        """Tables grown by ensure(3000), by log_c(5000) (log_c(d_max) where
        that is smaller) and by initial = 2^17 hold the coefficients of a
        fresh table, byte for byte, and give the term table a fresh one
        certifies: D, scale, tail bound and term bytes, or the same
        TruncationError.  d_max = 17 certifies |t| = 0.05 alone, at m = 0
        and 1, below degree 17."""
        moments = _MemoMoments(MomentTable(ORACLE_WEIGHTS[key]()))
        grown = [build_coeffs(moments, 2, d_max=d_max) for _ in range(2)]
        grown[0].ensure(3000)
        grown[1].log_c(min(5000, d_max))
        grown.append(build_coeffs(moments, 2, d_max=d_max, initial=1 << 17))

        def terms(k, t, m):
            D, scale, gamma, tail = _terms(k, t, 1e-10, m)
            return D, scale, gamma.tobytes(), tail

        short_rows = 0
        for m in (0, 1):
            for t in (0.05, 0.3, 0.6, 0.9, 0.9664, 0.9686, 0.9774, 0.99, 0.999):
                fresh = build_coeffs(moments, 2, d_max=d_max)
                expected = _outcome(lambda: terms(fresh, t, m))
                if isinstance(expected[0], int) and expected[0] < 17:
                    short_rows += 1
                for k in grown:
                    assert _outcome(lambda: terms(k, t, m)) == expected, (t, m, k.built)
                    size = min(k.built, fresh.built)
                    assert k.log_coeffs[:size].tobytes() == fresh.log_coeffs[:size].tobytes()
        if d_max == 17:
            assert short_rows == 2

    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_cached_log_d_matches_per_row_logs(self, tables, key):
        """The term tables read log d from the table's cache; their bytes
        equal terms formed with log d taken for the row, on a fresh table and
        on one grown in steps past 2^17 degrees."""
        grown = build_coeffs(tables[key], 2, d_max=1 << 19)
        while grown.built < 1 << 17:
            grown.ensure(2 * grown.built)
        for k in (build_coeffs(tables[key], 2, d_max=1 << 19), grown):
            for t in (0.3, 0.9, 0.99):
                D, scale, gamma, _ = _terms(k, t, 1e-10, 1)
                d = np.arange(D + 1, dtype=float)
                with np.errstate(divide="ignore"):
                    lt = k.log_coeffs[:D + 1] + d * math.log(t) + np.log(d)
                assert scale == lt.max()
                assert gamma.tobytes() == np.exp(lt - scale).tobytes(), t


def _outcome(call):
    """What a call returns, or the type and text of what it raises with the
    partial value or sum, degree and tail bound it carries."""
    try:
        return call()
    except Exception as exc:  # the comparison covers the failure too
        return (type(exc).__name__, str(exc), getattr(exc, "partial_value", None),
                getattr(exc, "partial_sum", None), getattr(exc, "degree_used", None),
                getattr(exc, "tail_bound", None))


class TestCircleMeanArray:
    """An array of radii gives what one float call per radius gives, in the
    same order on the same table: values, table growth and first failure."""

    @staticmethod
    def _radii(key):
        deepest = 12 if key == "std0" else 7
        rng = np.random.default_rng(7)
        deep = 1.0 - 2.0 ** -rng.uniform(1.0, deepest, 20)
        # a shallow radius first: the deep ones grow the table mid-array
        return np.concatenate([[0.0, 0.3, 1.0 - 2.0 ** -deepest, 0.0],
                               deep, rng.uniform(0.0, 0.9, 10), [0.0, 0.05]])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_bitwise_equal_to_float_calls(self, tables, key, n):
        radii = self._radii(key)
        loop_k = build_coeffs(tables[key], n, d_max=1 << 19)
        expected = np.array([rk_circle_mean(loop_k, float(x), 1e-7) for x in radii])
        for shape in (radii.shape, (4, 9)):
            k = build_coeffs(tables[key], n, d_max=1 << 19)
            got = rk_circle_mean(k, radii.reshape(shape), 1e-7)
            assert got.shape == shape
            assert got.tobytes() == expected.tobytes()
            assert k.built == loop_k.built
        # the radii's term tables do not fit in one block
        degrees = sum(_terms(loop_k, float(x), 1e-7, 1)[0] + 1 for x in radii if x > 0)
        assert degrees > _BLOCK_ELEMENTS

    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_rows_are_the_term_tables(self, tables, key, monkeypatch):
        """Each radius of an array, certified in the shared term buffer with
        its searches started from the previous radius, hands the FFT levels
        the term bytes (so the degree and scale) _terms gives it alone."""
        radii = self._radii(key)
        k = build_coeffs(tables[key], 2, d_max=1 << 19)
        seen = []
        real = kernel._fft_levels

        def spy(gammas, *args):
            seen.extend(gamma.tobytes() for gamma in gammas)
            return real(gammas, *args)

        monkeypatch.setattr(kernel, "_fft_levels", spy)
        rk_circle_mean(k, radii, 1e-7)
        assert seen == [_terms(k, float(x), 1e-7, 1)[2].tobytes() for x in radii[radii > 0]]

    @pytest.mark.parametrize("key", ["std0", "exp11"])
    def test_grown_table_gives_same_bytes(self, tables, key):
        radii = self._radii(key)
        grown = build_coeffs(tables[key], 2, d_max=1 << 19)
        while grown.built < 1 << 17:
            grown.ensure(2 * grown.built)
        fresh = build_coeffs(tables[key], 2, d_max=1 << 19)
        assert (rk_circle_mean(grown, radii, 1e-7).tobytes()
                == rk_circle_mean(fresh, radii, 1e-7).tobytes())

    @pytest.mark.parametrize("nodes, max_nodes, error", [
        ([0.5, 0.97, 0.99], 1 << 20, "TruncationError"),
        ([0.5, 0.9, 0.97], 512, "QuadratureError"),
    ], ids=["truncation-first", "quadrature-first"])
    def test_first_failure_in_node_order(self, tables, nodes, max_nodes, error):
        """exp11, n = 2, d_max = 4096: 0.97 cannot be certified, and 0.9
        needs more than 512 angles.  The array raises what the loop raises
        first, and leaves the table as the loop does."""
        def loop(k):
            return [rk_circle_mean(k, x, 1e-7, max_nodes=max_nodes) for x in nodes]

        def array(k):
            return rk_circle_mean(k, np.array(nodes), 1e-7, max_nodes=max_nodes)

        outcomes = []
        for call in (loop, array):
            k = build_coeffs(tables["exp11"], 2, d_max=4096)
            outcomes.append((_outcome(lambda: call(k)), k.built))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][0] == error
        if error == "TruncationError":
            # the ratio at D = 4095 is below 1, so the error carries its tail bound
            assert "|t|=0.97" in outcomes[0][0][1]
            assert outcomes[0][0][4] == 4096 and 0.0 < outcomes[0][0][5] < math.inf

    @pytest.mark.parametrize("d_max, cap", [
        (4096, 1 << 20), (1 << 19, 1 << 20), ((1 << 19) + 1, (1 << 20) + 2),
        (1 << 21, 1 << 22)])
    def test_node_cap_follows_d_max(self, tables, monkeypatch, d_max, cap):
        """The default node cap is max(2^20, 2 d_max): every d_max up to
        2^19 keeps 2^20, and a deeper table gets a grid that resolves its
        terms.  An explicit cap is passed through."""
        seen = []
        real = kernel._fft_levels
        monkeypatch.setattr(kernel, "_fft_levels",
                            lambda *a: seen.append(a[3]) or real(*a))
        k = build_coeffs(tables["std0"], 2, d_max=d_max)
        rk_circle_mean(k, 0.5, 1e-7)
        rk_circle_mean(k, 0.5, 1e-7, max_nodes=512)
        assert seen == [cap, 512]

    @pytest.mark.parametrize("bad", [math.nan, 1.0, -0.25], ids=["nan", "one", "negative"])
    def test_radius_outside_domain(self, coeffs_std0_n2, bad):
        radii = np.array([[0.5, 0.2], [bad, 0.1]])
        with pytest.raises(ValueError, match="xi must be"):
            rk_circle_mean(coeffs_std0_n2, radii)


@pytest.mark.parametrize("tol", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_tolerance_rejected_before_growth(tables, tol):
    k = build_coeffs(tables["std0"], 2, d_max=4096)
    built = k.built
    z, w = _pair(0.25)
    for call in (lambda: eval_kernel(k, z, w, tol=tol),
                 lambda: rk_circle_mean(k, 0.5, tol=tol),
                 lambda: kernel_values_many(k, np.array([0.5, 0.25j]), tol=tol)):
        with pytest.raises(ValueError, match="finite positive"):
            call()
        assert k.built == built


# ----------------------------------------------------------------------
# The row rule against its log-space form
# ----------------------------------------------------------------------

def _oracle_log_terms(log_c, log_t, degree_weight):
    d = np.arange(log_c.size, dtype=float)
    out = d * log_t + log_c
    if degree_weight:
        with np.errstate(divide="ignore"):
            out = out + np.log(d)
    return out


def _oracle_row(log_c, log_t, log_tol, degree_weight):
    """The row rule in log space on prefixes of the table that double from
    512 degrees, partial sums by np.logaddexp.accumulate: the first D <=
    size - 2 where rho_D = sigma_D (+ log((D+1)/D)) + log|t| < _DECAY and
    term_D q / (1 - q) <= tol S_D, q = e^rho_D.  The rule at D reads
    degrees <= D + 1, so a prefix that holds D gives it.  Returns (D,
    tail_log, sum_log), or None."""
    hi = min(512, log_c.size)
    while True:
        c = log_c[:hi]
        d = np.arange(hi, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_d = np.log(d)
            rho = np.diff(c)
            if degree_weight:
                rho = rho + (log_d[1:] - log_d[:-1])
            rho = rho + log_t
            lt = _oracle_log_terms(c, log_t, degree_weight)
            cum = np.logaddexp.accumulate(lt)
            tail = lt[:-1] + rho - np.log(-np.expm1(rho))
            ok = (rho < _DECAY) & (tail <= log_tol + cum[:-1])
        if ok.any():
            D = int(ok.argmax())
            return D, float(tail[D]), float(cum[D])
        if hi == log_c.size:
            return None
        hi = min(2 * hi, log_c.size)


def _oracle_certify(k, abs_ts, tol_rel, degree_weight):
    """The row rule one row at a time, in order: a row the table cannot
    certify grows it to its next size, as the package grows it, and at
    d_max raises the package's TruncationError (partial sum through d_max,
    tail bound at D = d_max - 1 where its ratio is below 1).  Returns lists
    (D, tail_rel, sum_log)."""
    log_tol = math.log(tol_rel)
    D, tail_rel, sum_log = [], [], []
    for t in abs_ts:
        while True:
            log_c = k.log_coeffs
            row = _oracle_row(log_c, math.log(t), log_tol, degree_weight)
            if row is not None:
                break
            if log_c.size < k.d_max + 1:
                k.ensure(log_c.size + 1)
                continue
            lt = _oracle_log_terms(log_c, math.log(t), degree_weight)
            D = log_c.size - 2
            rho = log_c[D + 1] - log_c[D]
            if degree_weight:
                rho += math.log(D + 1) - math.log(D) if D else math.inf
            rho += math.log(t)
            with np.errstate(under="ignore", over="ignore"):
                scale = float(lt.max())
                partial = float(np.exp(scale) * np.sum(np.exp(lt - scale)))
                bound = (float(np.exp(lt[D] + rho - np.log(-np.expm1(rho))))
                         if rho < 0.0 else None)
            raise TruncationError(
                f"tail not certified below {tol_rel:.1e} within d_max={k.d_max} "
                f"at |t|={t:.6g}", partial_sum=partial, degree_used=log_c.size - 1,
                tail_bound=bound)
        D.append(row[0])
        tail_rel.append(math.exp(row[1] - row[2]))
        sum_log.append(row[2])
    return D, tail_rel, sum_log


def _package_certify(k, abs_ts, tol_rel, degree_weight):
    """_terms one row at a time, in order: lists (D, tail_rel, sum_log)."""
    D, tail_rel, sum_log = [], [], []
    for t in abs_ts:
        d, scale, gamma, tail = _terms(k, t, tol_rel, degree_weight)
        D.append(d)
        tail_rel.append(tail)
        sum_log.append(scale + math.log(np.add.reduce(gamma)))
    return D, tail_rel, sum_log


def _certified(call):
    """What a certification returns, or what it raises, to compare."""
    try:
        return call()
    except TruncationError as exc:
        return (str(exc), exc.partial_sum, exc.degree_used, exc.tail_bound)


def _assert_same_certification(got, expected):
    if isinstance(expected[0], str):
        assert got[0] == expected[0] and got[2] == expected[2]
        for a, b in zip(got[1::2], expected[1::2]):
            assert (a is None) == (b is None)
            if b is not None:
                assert a == b or abs(a - b) <= 1e-12 * abs(b)
        return
    assert got[0] == expected[0]
    for a, b in zip(got[1], expected[1]):
        assert abs(a - b) <= 1e-11 * b
    for a, b in zip(got[2], expected[2]):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


ORACLE_WEIGHTS = {
    "std0": lambda: RadialWeight.standard(0.0),
    "std2": lambda: RadialWeight.standard(2.0),
    "log0": lambda: RadialWeight.logarithmic(0.0),
    "exp11": lambda: RadialWeight.exponential(1.0, 1.0),
    "std-0.5": lambda: RadialWeight.standard(-0.5),
    "tabulated": lambda: RadialWeight.tabulated(
        [[r, 1 - r * r] for r in [*np.linspace(0.0, 0.98, 12), 0.99, 0.995, 0.999]]),
}
ORACLE_TS = [1e-3, 0.05, 0.3, 0.6, 0.9, 0.97, 0.99, 0.999, 1.0 - 2.0 ** -12]


class _MemoMoments:
    """A moment table whose log_moments_arith replays an earlier call with
    the same arguments, so that two tables grown alike cost one."""

    def __init__(self, table):
        self.table, self.memo = table, {}

    def log_moments_arith(self, x0, step, count):
        key = (x0, step, count)
        if key not in self.memo:
            self.memo[key] = self.table.log_moments_arith(x0, step, count)
        return self.memo[key].copy()


class TestRatioScanOracle:
    """The row rule, found by galloping searches over single degrees and
    one pass of terms, certifies at the degree the log-space scan of every
    degree picks, with the same tail bound and partial sum to 1e-11 and
    1e-12, grows the table alike, and fails as it fails."""

    @pytest.mark.parametrize("key", list(ORACLE_WEIGHTS))
    def test_fresh_and_grown_tables(self, key):
        """d_max = 2^17; exp11 fails within it at |t| = 0.99."""
        moments = _MemoMoments(MomentTable(ORACLE_WEIGHTS[key]()))
        for grow_to in (0, 1 << 16):
            for m in (0, 1):
                pair = []
                for _ in range(2):
                    k = build_coeffs(moments, 2, d_max=1 << 17)
                    k.ensure(grow_to)
                    pair.append(k)
                # all rows in order, then each row alone: past a failing row
                for ts in [ORACLE_TS] + [[t] for t in ORACLE_TS]:
                    got = _certified(lambda: _package_certify(pair[0], ts, 1e-10, m))
                    expected = _certified(lambda: _oracle_certify(pair[1], ts, 1e-10, m))
                    _assert_same_certification(got, expected)
                    assert pair[0].built == pair[1].built

    @pytest.mark.parametrize("d_max", [17, 4096])
    @pytest.mark.parametrize("key", ["std0", "exp11", "std-0.5"])
    def test_rows_past_the_table(self, key, d_max):
        """d_max = 4096: the deep rows fail; d_max = 17 certifies only rows
        whose D is at most 16."""
        table = MomentTable(ORACLE_WEIGHTS[key]())
        for ts in ([1e-3, 0.05, 0.3, 0.6, 0.9, 0.99], [0.999], [1e-3, 0.05, 0.2]):
            for m in (0, 1):
                got = _certified(lambda: _package_certify(
                    build_coeffs(table, 2, d_max=d_max), ts, 1e-10, m))
                expected = _certified(lambda: _oracle_certify(
                    build_coeffs(table, 2, d_max=d_max), ts, 1e-10, m))
                _assert_same_certification(got, expected)


def _old_window_max(x, width=16):
    """max(x[j:j + width]) at each j, by doubling shifts."""
    w = 1
    while w < width:
        x = np.maximum(x[:-w], x[w:])
        w *= 2
    return x


def _old_epsilon_tail_log(log_c, n, abs_t, D, m):
    """The moment-envelope tail bound past D that the previous rule also
    took: log rho_x lies above its chord through x_{D-1} and x_D, so where
    that chord falls by no more than 2 log(1-eps) per degree, eps = (1 -
    |t|)/2, the terms past D are bounded by a geometric series of ratio q =
    |t| / (1-eps)^2 times the factorial part; +inf where it gives none."""
    if D < 1:
        return math.inf
    chord = math.log((D + n - 1) / D) - float(log_c[D] - log_c[D - 1])
    log_one_minus_eps = math.log1p(-0.5 * (1.0 - abs_t))
    if chord < 2.0 * log_one_minus_eps:
        return math.inf
    log_mom = (sum(math.log(D + j) for j in range(1, n)) - math.log(math.factorial(n))
               - math.log(2.0) - float(log_c[D]))
    q = abs_t * math.exp(-2.0 * log_one_minus_eps)
    log_c_eps = log_mom - (2 * n - 1 + 2 * D) * log_one_minus_eps
    log_a = -math.log(2 * n) - (2 * n - 1) * log_one_minus_eps - log_c_eps
    kappa = q * ((D + 1 + n) / (D + 2) * ((D + 2) / (D + 1)) ** m)
    if q >= 1.0 or kappa >= 1.0:
        return math.inf
    log_binom = (sum(math.log(D + j) for j in range(2, n + 1))
                 - math.log(math.factorial(n - 1)))
    return (log_a + m * math.log(D + 1) + log_binom + (D + 1) * math.log(q)
            - math.log1p(-kappa))


def _old_rule_degree(log_c, n, abs_t, log_tol, m):
    """The degree the previous rule certified on a full table, or None: the
    first D whose largest log term ratio over the 16 degrees before it is
    below _DECAY with term_D rhat / (1 - rhat) <= tol S_D, unless the
    moment envelope held first at the last degree s - 1 of a table size s
    = 257 2^k (capped) below it.  Scanned on doubling prefixes."""
    sizes = [257]
    while sizes[-1] < log_c.size:
        sizes.append(2 * sizes[-1])
    sizes = [min(s, log_c.size) for s in sizes]
    log_t = math.log(abs_t)
    for hi in sizes:
        lt = _oracle_log_terms(log_c[:hi], log_t, m)
        cum = np.logaddexp.accumulate(lt)
        D = None
        with np.errstate(invalid="ignore", divide="ignore"):
            if hi - m > 18:
                rhat = _old_window_max(lt[m + 1:] - lt[m:-1])
                tl = lt[m + 16:] + rhat - np.log1p(-np.exp(rhat))
                ok = (rhat < _DECAY) & (tl <= log_tol + cum[m + 16:])
                D = m + 16 + int(ok.argmax()) if ok.any() else None
        for s in sizes:
            if D is not None and D < s:
                return D
            if s > hi:
                break
            if _old_epsilon_tail_log(log_c, n, abs_t, s - 1, m) <= log_tol + cum[s - 1]:
                return s - 1
    return None


def _watch_passes(monkeypatch):
    """Wrap kernel._pass; the list returned gets, per row of every pass,
    (hi < last, certified, scale equal to the largest log term through D
    or not certified)."""
    seen, real = [], kernel._pass

    def spy(table, log_t, m, log_tol, d0, hi, terms):
        rows = real(table, log_t, m, log_tol, d0, hi, terms)
        for lt, h, row in zip(log_t.tolist(), hi.tolist(), rows):
            scaled = row is None or (
                row[1] == kernel._log_term(table, lt, m, np.arange(row[0] + 1)).max())
            seen.append((h < table.log_c.size - 2, row is not None, scaled))
        return rows

    monkeypatch.setattr(kernel, "_pass", spy)
    return seen


def _assert_pass_invariants(seen):
    """_pass certifies every row that _bracket gives with hi below the last
    degree, and scales each by its largest log term through D."""
    assert any(below for below, _, _ in seen)
    for below, certified, scaled in seen:
        assert certified or not below
        assert scaled


class TestRowRuleSweep:
    """std0, exp11 and std-0.5 at n = 2, d_max = 2^19, tol 1e-10, 301 |t|
    from 0.05 to 0.999, m = 0 and 1."""

    TS = np.linspace(0.05, 0.999, 301).tolist()

    @pytest.mark.parametrize("key", ["std0", "exp11", "std-0.5"])
    def test_against_oracles(self, key, monkeypatch):
        """Each row gets the log-space oracle's D, tail bound and partial
        sum, or fails where it fails.  The full 2^19-degree sum confirms
        every certified tail: sum_{d>D} term_d <= tol S_D.  No certified D
        is larger than the previous rule's, which took the largest ratio
        over the 16 degrees before D, or the moment envelope.  Every row
        with hi below the last degree certifies, scaled by its largest log
        term through D."""
        seen = _watch_passes(monkeypatch)
        k = build_coeffs(MomentTable(ORACLE_WEIGHTS[key]()), 2, d_max=1 << 19,
                         initial=1 << 19)
        log_c, log_tol = k.log_coeffs, math.log(1e-10)
        certified = 0
        for m in (0, 1):
            for t in self.TS:
                got = _outcome(lambda: _terms(k, t, 1e-10, m))
                oracle = _oracle_row(log_c, math.log(t), log_tol, m)
                old = _old_rule_degree(log_c, 2, t, log_tol, m)
                if oracle is None:
                    assert got[0] == "TruncationError", (t, m)
                    continue
                certified += 1
                D, scale, gamma, tail = got
                assert D == oracle[0], (t, m)
                assert (abs(math.log(tail) - (oracle[1] - oracle[2]))
                        <= 1e-12 * max(1.0, abs(oracle[1]), abs(oracle[2])))
                assert old is None or D <= old, (t, m, D, old)
                lt = _oracle_log_terms(log_c, math.log(t), m)
                lt -= lt[D]
                with np.errstate(under="ignore"):
                    terms = np.exp(lt)
                assert np.sum(terms[D + 1:]) <= 1e-10 * np.sum(terms[:D + 1])
        assert certified > 500
        _assert_pass_invariants(seen)


class _FakeMoments:
    """Moments that give the n = 1 table log c_d = log_c[d] exactly:
    c_d = 1 / (2 rho_{2d+1})."""

    def __init__(self, log_c):
        self.log_c = np.asarray(log_c, dtype=float)

    def log_moments_arith(self, x0, step, count):
        lo = int(round((x0 - 1.0) / 2.0))
        return -math.log(2.0) - self.log_c[lo:lo + count]


def test_rising_step_is_refused():
    """log c_d = -1e-6 d^2 with c_400 raised by e^0.01: the step at degree
    399 rises.  The 257-degree table is published; growing past it raises
    NumericRangeError and publishes nothing, so no row certifies from the
    rising table: |t| = 0.9999 needs degrees past 1000."""
    d = np.arange(8192, dtype=float)
    log_c = -1e-6 * d * d
    log_c[400] += 0.01
    k = build_coeffs(_FakeMoments(log_c), 1, d_max=8191)
    assert k.built == 257
    for call in (lambda: k.ensure(600), lambda: _terms(k, 0.9999, 1e-10, 0),
                 lambda: rk_circle_mean(k, 0.9999)):
        with pytest.raises(NumericRangeError, match="steps rise at degree 399 "):
            call()
        assert k.built == 257
    log_c[400] -= 0.01
    k = build_coeffs(_FakeMoments(log_c), 1, d_max=8191)
    assert 1000 < _terms(k, 0.9999, 1e-10, 0)[0] < k.built


def test_thin_falls_accepted():
    """standard(-0.99) at n = 1 has the thinnest falls of the steps among
    the weights measured here, 3.2e-14; its 2^19-degree table is accepted,
    and its steps never rise."""
    k = build_coeffs(MomentTable(RadialWeight.standard(-0.99)), 1, d_max=1 << 19,
                     initial=1 << 19)
    steps = np.diff(k.log_coeffs)
    assert k.built == (1 << 19) + 1
    assert np.all(np.diff(steps) <= 0.0)
    assert k._table.steps.tobytes() == steps.tobytes()


@pytest.mark.parametrize("ulps", [-64, -4, -1, 0, 1, 4])
def test_ratio_at_the_decay_limit(ulps):
    """Coefficients flat at 1: the ratio of consecutive terms is |t| itself
    (m = 0), and under a tolerance of 1e13 the tail bound at degree 0 passes
    wherever log|t| < _DECAY.  At |t| a few ulps either side of e^-1e-12,
    the row certifies at 0 exactly where log|t| < _DECAY, as the oracle
    does; elsewhere both raise TruncationError with the tail bound at the
    last degree, finite since |t| < 1.  At m = 1 the ratio (D+1)/D |t| never
    falls below e^_DECAY within 1023 degrees, and the error carries no tail
    bound."""
    d = np.arange(1024, dtype=float)
    fake = _FakeMoments(np.zeros(d.size))
    t = float(np.nextafter(math.exp(_DECAY), math.copysign(np.inf, ulps)))
    for _ in range(abs(ulps) - 1):
        t = float(np.nextafter(t, math.copysign(np.inf, ulps)))
    if ulps == 0:
        t = math.exp(_DECAY)
    for m in (0, 1):
        got = _certified(lambda: _package_certify(
            build_coeffs(fake, 1, d_max=1023, initial=1023), [0.5, t], 1e13, m))
        expected = _certified(lambda: _oracle_certify(
            build_coeffs(fake, 1, d_max=1023, initial=1023), [0.5, t], 1e13, m))
        _assert_same_certification(got, expected)
        if m == 0 and math.log(t) < _DECAY:
            assert got[0] == [0, 0]
        else:
            assert isinstance(got[0], str) and (got[3] is None) == (m == 1)


def test_exact_partial_sums_decide_past_the_crossing():
    """Coefficients flat at 1, |t| = 1/2, tol 0.3: term_D = 2^-D and its tail
    bound is 2^-D as well.  A pass through the whole table (S_hi near 2)
    sees the bound cross 0.3 S_hi at D' = 1, but S_1 = 1.5 and 0.5 > 0.45:
    the exact partial sums move D to 2, where 0.25 <= 0.525, as on the
    bracketed pass and in the oracle."""
    fake = _FakeMoments(np.zeros(1024))
    k = build_coeffs(fake, 1, d_max=1023, initial=1023)
    table, log_t, log_tol = k._table, np.array([math.log(0.5)]), math.log(0.3)
    last = table.log_c.size - 2
    d0, hi = kernel._bracket(table, log_t, 0, log_tol)
    assert hi[0] < last

    def one_pass(end):
        return kernel._pass(table, log_t, 0, log_tol, d0, np.array([end]),
                            np.empty(end + 1))[0]

    got = one_pass(last)
    assert got[0] == one_pass(int(hi[0]))[0] == 2
    sum_log = got[1] + math.log(np.add.reduce(got[2]))
    assert kernel._tail(table, math.log(0.5), 0, 2) <= log_tol + sum_log
    assert _oracle_row(k.log_coeffs, math.log(0.5), log_tol, 0)[0] == 2


def _array_certify(k, abs_ts, tol_rel, degree_weight):
    """All rows through kernel._certified on the table as it stands, which
    grows at the first row it cannot certify, as rk_circle_mean grows it:
    lists (D, tail_rel, sum_log), and each row's (scale, term bytes)."""
    log_t, log_tol = np.array([math.log(t) for t in abs_ts]), math.log(tol_rel)
    got = []
    while len(got) < len(abs_ts):
        table = k._table
        for rows in kernel._certified(table, log_t[len(got):], degree_weight, log_tol, {}):
            for D, scale, gamma in rows:
                sum_log = scale + math.log(np.add.reduce(gamma))
                tail = kernel._tail(table, float(log_t[len(got)]), degree_weight, D)
                got.append((D, math.exp(tail - sum_log), sum_log, (scale, gamma.tobytes())))
        if len(got) < len(abs_ts):
            kernel._grow_or_raise(k, table, abs_ts[len(got)], tol_rel, degree_weight)
    return [[row[j] for row in got] for j in range(4)]


class TestArrayCertification:
    """Rows certified together, shallow and deep mixed so that deep rows
    grow the table mid-array, certify as the log-space oracle certifies one
    row at a time (D, tail bound, partial sum), give the scale and term
    bytes of one _terms call per row, grow the table alike, and raise at
    the first row, in order, that d_max cannot certify what a one-row call
    raises there.  Every row with hi below the last degree certifies,
    scaled by its largest log term through D."""

    TS = [0.3, 0.97, 0.05, 0.99, 1e-3, 0.9, 0.999, 0.6, 1.0 - 2.0 ** -12]

    @pytest.mark.parametrize("d_max", [4096, 1 << 17])
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("key", ["std0", "exp11", "std-0.5"])
    def test_against_oracle_and_single_rows(self, key, m, d_max, monkeypatch):
        seen = _watch_passes(monkeypatch)
        moments = _MemoMoments(MomentTable(ORACLE_WEIGHTS[key]()))
        tables = [build_coeffs(moments, 2, d_max=d_max) for _ in range(2)]
        got = _certified(lambda: _array_certify(tables[0], self.TS, 1e-10, m))
        expected = _certified(lambda: _oracle_certify(tables[1], self.TS, 1e-10, m))
        _assert_same_certification(got[:3], expected)
        assert tables[0].built == tables[1].built
        _assert_pass_invariants(seen)
        if isinstance(got[0], str):
            # the error names the first row in order that d_max cannot certify
            failing = next(t for t in self.TS if got[0].endswith(f"|t|={t:.6g}"))
            single = build_coeffs(moments, 2, d_max=d_max)
            assert _certified(lambda: _terms(single, failing, 1e-10, m)) == got
            assert d_max == 4096 or key == "exp11"
            return
        for t, scale_bytes in zip(self.TS, got[3]):
            D, scale, gamma, _ = _terms(build_coeffs(moments, 2, d_max=d_max), t, 1e-10, m)
            assert (scale, gamma.tobytes()) == scale_bytes, t


def test_refusal_inside_a_block(tables, monkeypatch):
    """std0, n = 2, d_max = 4096, 99 radii from 0.01 to 0.99: on the
    514-degree table, _pass refuses |t| = 0.95 at hi = last after four
    certified rows of its block.  The array hands those four on (each
    radius is certified once), grows the table and goes on from 0.95,
    giving bit for bit the values and table growth of one call per
    radius."""
    radii = np.linspace(0.01, 0.99, 99)
    loop_k = build_coeffs(tables["std0"], 2, d_max=4096)
    expected = np.array([rk_circle_mean(loop_k, float(x)) for x in radii])
    refused, certified, real = [], [], kernel._pass

    def spy(table, log_t, *args):
        rows = real(table, log_t, *args)
        certified.extend(row is not None for row in rows)
        if None in rows:
            r = rows.index(None)
            refused.append((table.log_c.size, r, round(math.exp(log_t[r]), 12)))
        return rows

    monkeypatch.setattr(kernel, "_pass", spy)
    k = build_coeffs(tables["std0"], 2, d_max=4096)
    got = rk_circle_mean(k, radii)
    assert refused == [(514, 4, 0.95)] and sum(certified) == radii.size
    assert got.tobytes() == expected.tobytes() and k.built == loop_k.built


def test_threads_certify_on_a_growing_table(tables):
    """Two threads certify on one table while their rows grow it; each gets
    the degrees of a fresh table, and every published table pairs its
    coefficients with log d and steps of its own size."""
    ts = [0.3, 0.9, 0.99, 0.995, 0.999]
    expected = _package_certify(build_coeffs(tables["std0"], 2, d_max=1 << 16), ts,
                                1e-10, 1)[0]
    shared = build_coeffs(tables["std0"], 2, d_max=1 << 16)
    sizes, mismatched, stop = set(), [], threading.Event()

    def watch():
        while not stop.is_set():
            t = shared._table
            size = t.log_c.size
            if t.log_d.size != size or t.steps.size != size - 1:
                mismatched.append(size)
            sizes.add(t.log_c.size)

    def work(order):
        return [_terms(shared, x, 1e-10, 1)[0] for x in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            watcher = pool.submit(watch)
            forward, backward = pool.submit(work, ts), pool.submit(work, ts[::-1])
            try:
                results = forward.result(timeout=300), backward.result(timeout=300)
            finally:
                stop.set()
                watcher.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == expected and results[1][::-1] == expected
    assert len(sizes) > 1 and not mismatched  # the watcher saw the table grow
