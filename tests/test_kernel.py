"""Kernel series construction, evaluation, truncation control, derivatives."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bergman_lab import (BallPoint, MomentTable, RadialWeight, TruncationError,
                         build_coeffs, eval_disk_kernel_deriv, eval_g,
                         eval_kernel, eval_rk, inner, integrate_ball_radial,
                         kernel_norm_sq, rk_circle_mean, sphere_slice_average)
from bergman_lab.kernel import (_BLOCK_ELEMENTS, _RATIO_WINDOW, _series_at, _terms,
                                 _values_many, _window_max, kernel_values_many)


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
        k = build_coeffs(tables["std0"], 2, d_max=48)
        z, w = _pair(0.995)
        with pytest.raises(TruncationError) as excinfo:
            eval_kernel(k, z, w, tol=1e-10)
        assert excinfo.value.partial_sum is not None
        assert excinfo.value.degree_used == 48


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

    def test_window_max_matches_sliding_window(self, rng):
        x = rng.normal(size=300)
        x[rng.choice(300, 20, replace=False)] = -np.inf
        x[rng.choice(300, 5, replace=False)] = np.nan
        x[150:170] = -np.inf
        expected = np.lib.stride_tricks.sliding_window_view(
            x, _RATIO_WINDOW).max(axis=1)
        got = _window_max(x)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # the comparison covers the failure too
        return (type(exc).__name__, str(exc), getattr(exc, "partial_value", None),
                getattr(exc, "partial_sum", None))


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
            assert "|t|=0.97" in outcomes[0][0][1]

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
