"""Adaptive quadrature, disk/sphere/ball reductions, and their monomial oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from bergman_lab import (BallPoint, QuadSpec, QuadratureError, RadialWeight,
                         integrate_ball_radial, integrate_disk,
                         integrate_radial, sphere_slice_average)
from bergman_lab.quadrature import (DEFAULT_SPEC, _GAUSS_W, _KRONROD_W, _KRONROD_X, _bisect,
                                    _initial_mesh, _segment_estimates, integrate_to_end)


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


class TestKronrodRule:
    """QUADPACK's K15 and its embedded G7, behind every adaptive integral."""

    def test_k15_exact_through_degree_22(self):
        import mpmath
        with mpmath.workdps(30):
            nodes = [mpmath.mpf(float(x)) for x in _KRONROD_X]
            weights = [mpmath.mpf(float(w)) for w in _KRONROD_W]
            for k in range(23):
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                rule = mpmath.fsum(w * x ** k for x, w in zip(nodes, weights))
                assert abs(rule - exact) < 5e-16, k

    def test_embedded_rule_is_gauss_legendre_7(self):
        x, w = np.polynomial.legendre.leggauss(7)
        assert_allclose(_KRONROD_X[1::2], x, rtol=0, atol=1e-15)
        assert_allclose(_GAUSS_W, w, rtol=0, atol=1e-15)

    def test_symmetric(self):
        assert np.all(np.diff(_KRONROD_X) > 0) and _KRONROD_X[7] == 0.0
        assert np.array_equal(_KRONROD_X, -_KRONROD_X[::-1])
        assert np.array_equal(_KRONROD_W, _KRONROD_W[::-1])
        assert np.array_equal(_GAUSS_W, _GAUSS_W[::-1])


def _recording(f_dist):
    """f_dist, and the list of node arrays it is called with."""
    calls = []

    def recorded(s):
        calls.append(np.array(s))
        return f_dist(s)

    return recorded, calls


def _call_segments(nodes):
    """(mid, half) of each segment whose K15 nodes fill the last axis."""
    nodes = nodes.reshape(-1, _KRONROD_X.size)
    mid, half = nodes[:, 7], (nodes[:, -1] - nodes[:, 7]) / _KRONROD_X[-1]
    assert_allclose(nodes, mid[:, None] + half[:, None] * _KRONROD_X, rtol=1e-13)
    return list(zip(mid, half))


class TestOneCallPerSegment:
    """The initial mesh costs one integrand call, then each bisected half
    one call on its 15 K15 nodes."""

    SPEC = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)
    LENGTHS = np.array([1.0, 2.0 ** -30, 0.9])

    @staticmethod
    def f_dist(s):
        return 1.0 + np.cos(40.0 * s)

    def _radial_calls(self, length):
        fs, calls = _recording(self.f_dist)
        integrate_radial(f_dist=fs, spec=self.SPEC, b=length)
        return calls

    def test_integrate_radial(self):
        """One flat call that sees every initial segment once, then two
        calls per bisection, which some length needs."""
        segments = self.SPEC.initial_levels + 1
        bisected = []
        for length in self.LENGTHS:
            calls = self._radial_calls(float(length))
            assert calls[0].shape == (segments * 15,)
            assert len(set(_call_segments(calls[0]))) == segments
            assert all(c.shape == (15,) for c in calls[1:])
            segs = [seg for c in calls for seg in _call_segments(c)]
            assert len(set(segs)) == len(segs)
            assert (len(calls) - 1) % 2 == 0
            bisected.append(len(calls) - 1)
        assert max(bisected) > 0

    def test_integrate_to_end(self):
        """One flat call on every initial segment of every length, length by
        length, then one (15,) call per bisected half, as many as the
        per-segment loop makes past its mesh."""
        segments = self.SPEC.initial_levels + 1
        fs, calls = _recording(self.f_dist)
        integrate_to_end(fs, self.LENGTHS, self.SPEC)
        assert calls[0].shape == (self.LENGTHS.size * segments * 15,)
        assert all(c.shape == (15,) for c in calls[1:])
        first = _call_segments(calls[0])
        assert len(set(first)) == self.LENGTHS.size * segments
        for i, length in enumerate(self.LENGTHS):  # length by length
            block = first[i * segments:(i + 1) * segments]
            assert math.isclose(sum(2.0 * half for _, half in block), length, rel_tol=1e-12)
        bisected = 0
        for length in self.LENGTHS:
            loop, loop_calls = _recording(self.f_dist)
            _per_segment_radial(f_dist=loop, spec=self.SPEC, b=float(length))
            bisected += len(loop_calls) - segments
        assert len(calls) - 1 == bisected > 0

    def test_integrate_to_end_params(self):
        """With params the first call carries each node's parameter beside
        it, and each bisected half its length's float."""
        lengths, params = self.LENGTHS, np.array([3.0, 5.0, 7.0])
        calls = []

        def f(s, p):
            calls.append((np.array(s), p if isinstance(p, float) else np.array(p)))
            return p * (1.0 + np.cos(40.0 * s))

        integrate_to_end(f, lengths, self.SPEC, params)
        s0, p0 = calls[0]
        assert p0.shape == s0.shape == (lengths.size * (self.SPEC.initial_levels + 1) * 15,)
        assert np.array_equal(p0, np.repeat(params, p0.size // lengths.size))
        assert len(calls) > 1
        assert all(s.shape == (15,) and type(p) is float and p in params for s, p in calls[1:])


def _per_segment_radial(f=None, spec=None, a=0.0, b=1.0, f_dist=None):
    """integrate_radial with one integrand call per initial segment, on its
    15 nodes: the loop the one-call initial pass replaced."""
    spec = spec or DEFAULT_SPEC
    fs = f_dist if f_dist is not None else (lambda s: f(b - s))
    pts = sorted(set(_initial_mesh(b - a, spec).tolist()))
    s_floor = 0.0 if f_dist is not None else 8.0 * np.finfo(float).eps * max(abs(b), 1.0)
    segs = list(zip(pts[:-1], pts[1:]))
    vals, raws = map(np.array, zip(*(_segment_estimates(fs, lo, hi) for lo, hi in segs)))
    return _bisect(fs, segs, vals, raws, spec, s_floor)


def _outcome(call):
    try:
        return call()
    except QuadratureError as exc:
        return str(exc), exc.partial_value, exc.error_estimate


class TestOneCallInitialPass:
    """The initial mesh in one integrand call gives the (value, error) of
    one call per segment, bit for bit, or the same QuadratureError."""

    TIGHT = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)
    CASES = {
        "f": dict(f=lambda t: 1.0 + np.cos(40.0 * t), spec=TIGHT),
        "f-subinterval": dict(f=lambda t: np.exp(t) * np.sin(9.0 * t), a=0.25, b=0.75),
        "f_dist": dict(f_dist=lambda s: 1.0 + np.cos(40.0 * s), spec=TIGHT, b=0.9),
        "f_dist-singular": dict(f_dist=lambda s: s ** -0.5),
        "f-frozen": dict(f=lambda t: (1.0 - t) ** -0.5, spec=QuadSpec(tolerance=1e-8)),
        "budget": dict(f_dist=lambda s: s ** -0.9, spec=QuadSpec(
            tolerance=1e-14, rel_tolerance=0.0, max_subdivisions=8, initial_levels=2)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bitwise_equal_to_per_segment_loop(self, case):
        kwargs = self.CASES[case]
        got = _outcome(lambda: integrate_radial(**kwargs))
        assert got == _outcome(lambda: _per_segment_radial(**kwargs))
        if case == "budget":
            assert isinstance(got[0], str)

    def test_cases_bisect_and_freeze(self):
        """Every case but the subinterval bisects, and f-frozen refines to
        segments below the floor where b - s stops resolving s."""
        for case, kwargs in self.CASES.items():
            name = "f_dist" if "f_dist" in kwargs else "f"
            nodes = []

            def recording(x, g=kwargs[name]):
                nodes.append(np.array(x))
                return g(x)

            _outcome(lambda: integrate_radial(**{**kwargs, name: recording}))
            assert (len(nodes) > 1) == (case != "f-subinterval"), case
            if case == "f-frozen":
                assert min(float(np.min(1.0 - t)) for t in nodes) < 8.0 * np.finfo(float).eps


class TestIntegrateToEnd:
    def test_matches_integrate_radial_per_length(self):
        """Each length gives the (value, error) of the per-segment loop
        (the integrate_radial of one integrand call per initial segment) bit
        for bit, in the shape of the lengths, whether or not bisection runs;
        so does integrate_radial, the one-length case."""
        spec = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)
        # the two short lengths meet the budget on the initial mesh, the
        # other four are bisected
        f_dist = lambda s: 1.0 + np.cos(40.0 * s)
        lengths = np.array([[1.0, 0.5, 2.0 ** -30], [3.0, 1e-3, 0.9]])
        value, err = integrate_to_end(f_dist, lengths, spec)
        assert value.shape == err.shape == lengths.shape
        for i in np.ndindex(lengths.shape):
            v, e = _per_segment_radial(f_dist=f_dist, spec=spec, b=float(lengths[i]))
            assert (value[i], err[i]) == (v, e)
            assert integrate_radial(f_dist=f_dist, spec=spec, b=float(lengths[i])) == (v, e)
        v, e = _per_segment_radial(f_dist=f_dist, spec=spec, b=0.5)
        assert integrate_to_end(f_dist, 0.5, spec) == (v, e)

    def test_params_match_per_length(self):
        """A parameter per length gives what that length gives alone with
        the parameter bound in."""
        spec = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)
        f = lambda s, p: (1.0 - (p / (1.0 - s)) ** 2) ** 2 * np.cos(9.0 * s)
        params = np.array([0.1, 0.5, 0.9, 0.99])
        value, err = integrate_to_end(f, 1.0 - params, spec, params)
        for i, p in enumerate(params.tolist()):
            got = _per_segment_radial(f_dist=lambda s: f(s, p), spec=spec, b=1.0 - p)
            assert (value[i], err[i]) == got

    def test_coinciding_breakpoints_merge_per_length(self):
        """A grading of 2^100 sends the finest breakpoints below the double
        range, more of them the shorter the length; each length merges its
        own and matches the per-segment loop, which merges them too."""
        spec = QuadSpec(grading=2.0 ** 100, initial_levels=11)
        f_dist = lambda s: s ** -0.5
        lengths = np.array([1.0, 2.0 ** -100, 2.0 ** -300, 1e-3])
        value, err = integrate_to_end(f_dist, lengths, spec)
        for i, length in enumerate(lengths.tolist()):
            assert (value[i], err[i]) == _per_segment_radial(f_dist=f_dist, spec=spec, b=length)
        assert np.all(np.isfinite(value))

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

    def test_integrand_called_on_circles_only(self):
        """h is evaluated only by the circle means, never probed for its
        dtype; a real h gives a real value, a complex one a complex value."""
        sizes = []

        def h(lam):
            sizes.append(lam.size)
            return np.abs(lam) ** 2

        assert isinstance(integrate_disk(h), float)
        assert min(sizes) >= 256
        assert isinstance(integrate_disk(lambda lam: lam * lam), complex)


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
