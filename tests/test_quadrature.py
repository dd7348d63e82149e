"""Adaptive quadrature, disk/sphere/ball reductions, and their monomial oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from bergman_lab import (BallPoint, QuadSpec, QuadratureError, RadialWeight,
                         integrate_ball_radial, integrate_disk,
                         integrate_radial, sphere_slice_average)
from bergman_lab.quadrature import integrate_to_end


class TestTypes:
    def test_ball_point_inside(self):
        BallPoint(np.array([0.6 + 0.3j, 0.2j]))
        with pytest.raises(ValueError):
            BallPoint(np.array([1.0 + 0j, 0j]))
        with pytest.raises(ValueError):
            BallPoint(np.array([0.8 + 0j, 0.7 + 0j]))

    def test_ball_point_radial(self):
        z = BallPoint.radial(0.5, 3)
        assert z.n == 3
        assert z.norm == 0.5

    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(tolerance=0.0)
        with pytest.raises(ValueError):
            QuadSpec(max_subdivisions=4)
        with pytest.raises(ValueError):
            QuadSpec(grading=0.5)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_quadspec_rejects_nonfinite_tolerance(tolerance):
    with pytest.raises(ValueError, match="finite positive"):
        QuadSpec(tolerance=tolerance)


@pytest.mark.parametrize("kwargs", [
    {"initial_levels": 1100},
    {"initial_levels": 511},
    {"grading": 1.0, "max_subdivisions": 8},
], ids=["levels-1100", "levels-511", "uniform-8"])
def test_quadspec_rejects_mesh_without_room_to_bisect(kwargs):
    """An initial mesh of max_subdivisions segments or more could not be
    bisected once."""
    with pytest.raises(ValueError, match="no room to bisect"):
        QuadSpec(**kwargs)


def test_quadspec_mesh_just_below_subdivision_budget():
    QuadSpec(initial_levels=510)
    QuadSpec(grading=1.0, max_subdivisions=9)


class TestIntegrateToEnd:
    def test_matches_integrate_radial_per_length(self):
        """Each length gives integrate_radial's (value, error) bit for bit,
        in the shape of the lengths, whether or not bisection runs."""
        spec = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)
        # the two short lengths meet the budget on the initial mesh, the
        # other four are bisected
        f_dist = lambda s: 1.0 + np.cos(40.0 * s)
        lengths = np.array([[1.0, 0.5, 2.0 ** -30], [3.0, 1e-3, 0.9]])
        value, err = integrate_to_end(f_dist, lengths, spec)
        assert value.shape == err.shape == lengths.shape
        for i in np.ndindex(lengths.shape):
            v, e = integrate_radial(f_dist=f_dist, spec=spec, b=float(lengths[i]))
            assert (value[i], err[i]) == (v, e)
        v, e = integrate_radial(f_dist=f_dist, spec=spec, b=0.5)
        assert integrate_to_end(f_dist, 0.5, spec) == (v, e)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            integrate_to_end(lambda s: s, np.array([1.0, 0.0]))


class TestIntegrateRadial:
    def test_constant(self):
        value, err = integrate_radial(lambda t: np.ones_like(t))
        assert_allclose(value, 1.0, atol=1e-12)

    def test_quadratic(self):
        value, _ = integrate_radial(lambda t: t * t)
        assert_allclose(value, 1.0 / 3.0, atol=1e-12)

    def test_inverse_sqrt_singularity_distance_form(self):
        """(1-t)^{-1/2} integrates to 2; the distance form keeps full resolution."""
        value, err = integrate_radial(f_dist=lambda s: s ** -0.5)
        assert_allclose(value, 2.0, atol=1e-9)
        assert err < 1e-8

    def test_inverse_sqrt_singularity_plain_form(self):
        # in the original coordinate the endpoint offset saturates near eps,
        # which still supports ~1e-6 absolute accuracy
        spec = QuadSpec(tolerance=1e-6)
        value, _ = integrate_radial(lambda t: (1.0 - t) ** -0.5, spec)
        assert_allclose(value, 2.0, atol=1e-5)

    def test_subinterval(self):
        value, _ = integrate_radial(lambda t: t, a=0.25, b=0.75)
        assert_allclose(value, 0.25, atol=1e-12)

    def test_budget_exhaustion_carries_partial(self):
        spec = QuadSpec(tolerance=1e-14, rel_tolerance=0.0, max_subdivisions=8,
                        initial_levels=2)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_radial(f_dist=lambda s: s ** -0.9, spec=spec)
        assert excinfo.value.partial_value is not None
        assert excinfo.value.error_estimate > 0

    def test_error_estimate_honesty(self):
        """Reported error_estimate covers the actual error in >= 95% of cases."""
        cases = []
        for j in range(10):
            cases.append((dict(f=lambda t, j=j: t ** j), 1.0 / (j + 1)))
        for g in (0.1, 0.3, 0.5, 0.7, 0.9):
            cases.append((dict(f_dist=lambda s, g=g: s ** -g), 1.0 / (1.0 - g)))
        cases.append((dict(f=lambda t: np.exp(t)), math.e - 1.0))
        cases.append((dict(f=lambda t: 1.0 / (1.0 + t)), math.log(2.0)))
        cases.append((dict(f=lambda t: np.sin(2 * np.pi * t)), 0.0))
        cases.append((dict(f_dist=lambda s: -np.log(s)), 1.0))
        cases.append((dict(f=lambda t: np.cos(10 * t)), math.sin(10.0) / 10.0))
        honest = 0
        for kwargs, exact in cases:
            value, err = integrate_radial(spec=QuadSpec(tolerance=1e-9), **kwargs)
            if err >= abs(value - exact):
                honest += 1
        assert honest / len(cases) >= 0.95


class TestIntegrateDisk:
    def test_normalized_area(self):
        assert_allclose(integrate_disk(lambda lam: np.ones(lam.shape)), 1.0,
                        atol=1e-10)

    def test_modulus_squared(self):
        assert_allclose(integrate_disk(lambda lam: np.abs(lam) ** 2), 0.5,
                        atol=1e-10)

    def test_weight_factor(self):
        assert_allclose(integrate_disk(lambda lam: np.ones(lam.shape), m=1), 0.5,
                        atol=1e-10)

    def test_complex_integrand(self):
        # int lam dA = 0 by symmetry
        val = integrate_disk(lambda lam: lam)
        assert abs(val) < 1e-10


def _sphere_monomial_oracle(a: int, n: int) -> float:
    """int_{S_n} |xi_1|^{2a} dsigma = Gamma(a+1) Gamma(n) / Gamma(a+n)."""
    return math.exp(gammaln(a + 1) + gammaln(n) - gammaln(a + n))


class TestSphereSliceAverage:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalization(self, n):
        z = BallPoint.radial(0.7, n)
        assert_allclose(sphere_slice_average(lambda lam: np.ones(lam.shape), z),
                        1.0, atol=1e-10)

    @pytest.mark.parametrize("n,expected", [(2, 0.5), (3, 1.0 / 3.0)])
    def test_first_coordinate_second_moment(self, n, expected):
        # int |<z,xi>|^2 dsigma = |z|^2 / n; the stated values are the |z|=1 limit
        r = 0.999
        z = BallPoint.radial(r, n)
        val = sphere_slice_average(lambda lam: np.abs(lam) ** 2, z)
        assert_allclose(val / r ** 2, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_polynomial_exactness(self, n):
        """lam^a conj(lam)^b of degree <= 6 against the monomial oracle."""
        z = BallPoint.radial(0.85, n)
        for a in range(4):
            for b in range(4):
                if a + b > 6:
                    continue
                val = sphere_slice_average(lambda lam: lam ** a * np.conj(lam) ** b, z)
                if a != b:
                    assert abs(val) < 1e-10
                else:
                    oracle = 0.85 ** (2 * a) * _sphere_monomial_oracle(a, n)
                    assert_allclose(complex(val).real, oracle, atol=1e-10)

    def test_circle_average_n1(self):
        z = BallPoint.radial(0.6, 1)
        val = sphere_slice_average(lambda lam: np.abs(lam) ** 2, z)
        assert_allclose(val, 0.36, atol=1e-12)


class TestIntegrateBallRadial:
    def test_total_mass_constant_weight(self):
        w = RadialWeight.standard(0.0)
        assert_allclose(integrate_ball_radial(lambda r: 1.0, w, 2), 1.0, atol=1e-10)

    def test_alpha_one_mass(self):
        w = RadialWeight.standard(1.0)
        # 4 * rho_3 with rho_3 = 1/4 - 1/6
        assert_allclose(integrate_ball_radial(lambda r: 1.0, w, 2), 1.0 / 3.0,
                        atol=1e-10)

    def test_radial_square_slice(self):
        w = RadialWeight.standard(0.0)
        assert_allclose(integrate_ball_radial(lambda r: r * r, w, 2), 2.0 / 3.0,
                        atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_polar_consistency_first_coordinate_moments(self, n, k):
        """int_{B_n} |z_1|^{2k} dv = n! k! / (n+k)! via the full polar pipeline."""
        w = RadialWeight.standard(0.0)
        spec = QuadSpec(initial_levels=4)

        def slice_fn(r):
            z = BallPoint.radial(r, n)
            return sphere_slice_average(lambda lam: np.abs(lam) ** (2 * k), z, spec)

        value = integrate_ball_radial(slice_fn, w, n, spec)
        oracle = math.exp(gammaln(n + 1) + gammaln(k + 1) - gammaln(n + k + 1))
        assert_allclose(value, oracle, atol=1e-8)
