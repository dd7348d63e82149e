"""Projection of bounded symbols and the reproducing-identity verifier."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bergman_lab import (BallPoint, BoundedSymbol, QuadSpec, SymbolFormError,
                         boundedness_functional, build_coeffs, project,
                         project_bloch_image, verify_star)
from bergman_lab.errors import QuadratureError
from bergman_lab.kernel import _terms, _unscale
from bergman_lab.projection import _fft_sphere_mean
from bergman_lab.quadrature import DEFAULT_SPEC, _slice_rule

TIGHT = QuadSpec(tolerance=1e-12, rel_tolerance=1e-12)


def _oracle_sphere_mean(slice_fn, s, mods, terms, scale, spec):
    """(sphere mean, N) of a callable symbol by fresh arrays at every level:
    the FFT divided by N, and the modes -d and N/2 - d gathered by index."""
    D = terms.shape[1] - 1
    degrees = np.arange(D + 1)

    def pair(modes):
        return _unscale(np.sum(terms * modes), scale, "series value")

    n_theta = 2 << max(7, (2 * D + 1).bit_length())
    while n_theta <= spec.max_angular_nodes:
        circle = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
        dft = np.fft.fft(slice_fn(s, mods[:, None] * circle), axis=-1) / n_theta
        cur = pair(dft[:, -degrees % n_theta])
        coarse = pair(dft[:, -degrees % n_theta]
                      + dft[:, (n_theta // 2 - degrees) % n_theta])
        if abs(cur - coarse) <= max(spec.tolerance, 10 * spec.rel_tolerance * abs(cur)):
            return cur, n_theta
        n_theta *= 2
    raise QuadratureError("oracle sphere mean did not stabilize in angle")


def _unit(lam):
    return np.conj(lam) / np.abs(lam)


def _conj_in_place(r, lam):
    """Overwrites lam with its conjugate and returns lam itself."""
    return np.conjugate(lam, out=lam)


SLICE_SYMBOLS = {
    "phase": lambda r, lam: _unit(lam),
    "poly": lambda r, lam: 2.0 * np.conj(lam) - 3.5 * np.conj(lam) ** 3,
    # mode -133 folds onto a kept degree at 256 angles, so this one needs 512
    "phase133": lambda r, lam: _unit(lam) + 0.3 * _unit(lam) ** 133,
    # mode -128 folds onto degree 0, the first column of the N/2 - d slice
    "phase128": lambda r, lam: _unit(lam) + 0.3 * _unit(lam) ** 128,
    "returns-lam": lambda r, lam: lam,
    "conj-in-place": _conj_in_place,
    "real": lambda r, lam: np.abs(lam) ** 2 + lam.real,
}
#: radii of the sphere means, out of order as a radial quadrature meets
#: them, all on one working set
SPHERE_RADII = (0.3, 0.05, 0.6, 0.999, 0.8, 0.45, 0.95)


class TestSymbolConstruction:
    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            BoundedSymbol.monomial((-1, 0))

    def test_indicator_validation(self):
        with pytest.raises(ValueError):
            BoundedSymbol.radial_indicator(0.5, 0.5)

    def test_custom_requires_slice_form(self):
        with pytest.raises(SymbolFormError):
            BoundedSymbol.custom("not callable", 1.0)

    def test_custom_grid_shape_rejected(self):
        with pytest.raises(SymbolFormError):
            BoundedSymbol.custom_from_polar_grid(
                [0.1, 0.5], [0.2, 0.8], [0.0, 3.1],
                np.zeros((2, 2, 3)), 1.0)

    def test_polar_grid_periodic_before_first_node(self):
        """Angles below arg_nodes[0] lie on the segment that wraps from the
        last node back to the first, so the interpolant is 2 pi-periodic."""
        a_nodes = 0.3 + 2 * np.pi * np.arange(8) / 8
        vals = np.broadcast_to(np.cos(a_nodes), (2, 2, 8))
        phi = BoundedSymbol.custom_from_polar_grid([0.0, 1.0], [0.0, 1.0],
                                                   a_nodes, vals, 1.0)
        frac = (2 * np.pi - a_nodes[-1]) / (2 * np.pi / 8)
        wrap = np.cos(a_nodes[-1]) + frac * (np.cos(0.3) - np.cos(a_nodes[-1]))
        lam = 0.5 * np.exp(1j * np.array([0.0, 2 * np.pi - 1e-12]))
        assert_allclose(phi.slice_fn(0.5, lam).real, [wrap, wrap], atol=1e-10)

    @pytest.mark.parametrize("a_nodes", [np.linspace(0.0, 2 * np.pi, 9), []],
                             ids=["full-turn", "no-angles"])
    def test_polar_grid_angle_span_rejected(self, a_nodes):
        with pytest.raises(SymbolFormError):
            BoundedSymbol.custom_from_polar_grid(
                [0.0, 1.0], [0.0, 1.0], a_nodes, np.ones((2, 2, len(a_nodes))), 1.0)

    def test_polar_grid_modes_match_interpolant(self, rng):
        """The exact angular modes of a grid symbol with uneven angles, not
        starting at 0, equal a fine DFT of its own slice function."""
        a_nodes = np.sort(rng.uniform(-1.0, 2 * np.pi - 1.5, 11))
        vals = (rng.standard_normal((3, 4, 11))
                + 1j * rng.standard_normal((3, 4, 11)))
        fn = BoundedSymbol.custom_from_polar_grid(
            [0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 4), a_nodes, vals, 5.0).slice_fn
        mods, n_theta, D = np.array([0.1, 0.45, 0.8]), 1 << 16, 40
        circle = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
        dft = np.fft.fft(fn(0.6, mods[:, None] * circle), axis=-1) / n_theta
        assert_allclose(fn.modes(0.6, mods, D), dft[:, -np.arange(D + 1) % n_theta],
                        atol=1e-8)

    def test_polar_grid_interpolant_matches_scipy(self, rng):
        """The trilinear slice function equals scipy's RegularGridInterpolator
        (linear, extrapolating) on the grid closed at 2 pi, at points inside
        and outside the (r, |lam|) grid, with descending radii accepted."""
        from scipy.interpolate import RegularGridInterpolator

        r_nodes, m_nodes = np.array([0.0, 0.3, 0.7, 1.0]), np.array([0.0, 0.4, 1.0])
        a_nodes = np.sort(rng.uniform(-1.0, 4.0, 6))
        vals = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
        offsets = np.append(a_nodes - a_nodes[0], 2 * np.pi)
        ref = RegularGridInterpolator((r_nodes, m_nodes, offsets),
                                      np.concatenate([vals, vals[:, :, :1]], axis=2),
                                      bounds_error=False, fill_value=None)
        r = rng.uniform(-0.3, 1.3, 300)
        lam = rng.uniform(0.0, 1.4, 300) * np.exp(1j * rng.uniform(-7.0, 7.0, 300))
        expected = ref(np.stack([r, np.abs(lam),
                                 np.mod(np.angle(lam) - a_nodes[0], 2 * np.pi)], axis=-1))
        assert np.any((r < 0.0) | (r > 1.0)) and np.any(np.abs(lam) > 1.0)
        for grid in ((r_nodes, vals), (r_nodes[::-1], vals[::-1])):
            fn = BoundedSymbol.custom_from_polar_grid(grid[0], m_nodes, a_nodes, grid[1],
                                                      5.0).slice_fn
            assert_allclose(fn(r, lam), expected, rtol=1e-13, atol=1e-13)

    def test_polar_grid_one_radius_node(self, rng):
        """An axis of one node is constant: a grid with one radius node gives
        the values and exact modes of the same plane on two radius nodes, at
        radii inside and outside the two-node grid."""
        m_nodes, a_nodes = np.array([0.0, 0.4, 1.0]), np.sort(rng.uniform(-1.0, 4.0, 6))
        plane = rng.standard_normal((1, 3, 6)) + 1j * rng.standard_normal((1, 3, 6))
        one, two = (BoundedSymbol.custom_from_polar_grid(r_nodes, m_nodes, a_nodes, vals,
                                                         5.0).slice_fn
                    for r_nodes, vals in (([0.5], plane),
                                          ([0.2, 0.7], np.concatenate([plane, plane]))))
        r = rng.uniform(-0.3, 1.3, 300)
        lam = rng.uniform(0.0, 1.4, 300) * np.exp(1j * rng.uniform(-7.0, 7.0, 300))
        assert_allclose(one(r, lam), two(r, lam), rtol=1e-13, atol=1e-13)
        mods = np.array([0.1, 0.45, 0.8])
        for x in (0.0, 0.5, 1.2):
            assert_allclose(one.modes(x, mods, 40), two.modes(x, mods, 40),
                            rtol=1e-13, atol=1e-13)

    def test_polar_grid_unordered_nodes_rejected(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            BoundedSymbol.custom_from_polar_grid([0.0, 0.7, 0.3], [0.0, 1.0], [0.0, 1.0],
                                                 np.ones((3, 2, 2)), 1.0)


class TestProjectStructured:
    def test_constant_symbol(self, coeffs_std0_n2, weights):
        """phi == 1 projects to 2n rho_{2n-1} c_0, constant in z."""
        phi = BoundedSymbol.monomial((0, 0))
        for r in (0.0, 0.4, 0.8):
            val = project(coeffs_std0_n2, weights["std0"], phi,
                          BallPoint.radial(r, 2), TIGHT)
            assert_allclose(complex(val), 1.0, atol=1e-10)

    def test_monomial_reproduced(self, coeffs_std0_n2, weights):
        phi = BoundedSymbol.monomial((1, 0))
        val = project(coeffs_std0_n2, weights["std0"], phi,
                      BallPoint.radial(0.3, 2), TIGHT)
        assert_allclose(complex(val), 0.3, atol=1e-6)

    def test_conjugate_monomial_annihilated(self, coeffs_std0_n2, weights):
        phi = BoundedSymbol.conj_monomial((1, 0))
        z = BallPoint(np.array([0.3 + 0.2j, -0.1 + 0.4j]))
        assert project(coeffs_std0_n2, weights["std0"], phi, z, TIGHT) == 0.0

    def test_radial_indicator(self, coeffs_std0_n2, weights):
        phi = BoundedSymbol.radial_indicator(0.25, 0.75)
        val = project(coeffs_std0_n2, weights["std0"], phi,
                      BallPoint.radial(0.6, 2), TIGHT)
        assert_allclose(complex(val), 0.75 ** 4 - 0.25 ** 4, atol=1e-10)

    def test_unimodular_phase_closed_form(self, coeffs_std0_n2, weights):
        # phi = w1/|w1|: surviving degree gamma = (1,0), value 1.6 z1
        phi = BoundedSymbol.unimodular_phase((2, 0), (1, 0))
        val = project(coeffs_std0_n2, weights["std0"], phi,
                      BallPoint.radial(0.5, 2), TIGHT)
        assert_allclose(complex(val), 0.8, rtol=1e-9)

    def test_linearity_on_monomials(self, coeffs_std0_n2, weights):
        """project(a phi1 + b phi2) = a project(phi1) + b project(phi2).

        The combined symbol a w1 + b w1^3 goes through the full custom slice
        quadrature (w1 = conj(lam) along the first axis), the parts through
        the closed-angular monomial route."""
        a, b = 2.0, -3.5
        z = BallPoint.radial(0.45, 2)
        spec = QuadSpec(tolerance=1e-9, rel_tolerance=1e-9)
        phi_comb = BoundedSymbol.custom(
            lambda r, lam: a * np.conj(lam) + b * np.conj(lam) ** 3, abs(a) + abs(b))
        combined = project(coeffs_std0_n2, weights["std0"], phi_comb, z, spec)
        p1 = project(coeffs_std0_n2, weights["std0"],
                     BoundedSymbol.monomial((1, 0)), z, TIGHT)
        p2 = project(coeffs_std0_n2, weights["std0"],
                     BoundedSymbol.monomial((3, 0)), z, TIGHT)
        assert_allclose(complex(combined), complex(a * p1 + b * p2), atol=1e-7)

    @pytest.mark.parametrize("key", ["std0", "std1", "std2", "log0"])
    def test_idempotence_on_monomials(self, tables, weights, key, rng):
        """P(w^alpha)(z) = z^alpha for |alpha| <= 3 and class weights."""
        k = build_coeffs(tables[key], 2, d_max=256)
        pts = [BallPoint(rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2))
               for _ in range(3)]
        for a1 in range(4):
            for a2 in range(4 - a1):
                phi = BoundedSymbol.monomial((a1, a2))
                for z in pts:
                    expected = z.coords[0] ** a1 * z.coords[1] ** a2
                    val = project(k, weights[key], phi, z, TIGHT)
                    assert abs(val - expected) < 1e-6

    def test_contraction_at_origin(self, coeffs_std0_n2, tables, weights):
        """|P phi(0)| <= sup|phi| * 2n rho_{2n-1} c_0 across symbol kinds."""
        z0 = BallPoint(np.zeros(2, dtype=complex))
        bound = 2 * 2 * tables["std0"].moment(3) \
            * math.exp(coeffs_std0_n2.log_c(0))
        for phi in (BoundedSymbol.monomial((0, 0)),
                    BoundedSymbol.monomial((2, 1)),
                    BoundedSymbol.radial_indicator(0.1, 0.9),
                    BoundedSymbol.unimodular_phase((1, 0), (0, 1))):
            val = abs(project(coeffs_std0_n2, weights["std0"], phi, z0, TIGHT))
            assert val <= phi.sup_norm_bound * bound * (1 + 1e-9)


class TestProjectCustom:
    def test_unimodular_phase_dual_route(self, coeffs_std0_n2, weights):
        """The closed-angular route equals full slice quadrature for
        phi(w) = w1/|w1| = conj(lam)/|lam| at z = r e_1."""
        phi_fast = BoundedSymbol.unimodular_phase((2, 0), (1, 0))
        phi_slice = BoundedSymbol.custom(
            lambda r, lam: np.conj(lam) / np.abs(lam), 1.0)
        spec = QuadSpec(tolerance=1e-9, rel_tolerance=1e-9)
        for r in (0.3, 0.5):
            z = BallPoint.radial(r, 2)
            fast = project(coeffs_std0_n2, weights["std0"], phi_fast, z, spec)
            slow = project(coeffs_std0_n2, weights["std0"], phi_slice, z, spec)
            assert_allclose(complex(slow), complex(fast), atol=1e-7)

    @pytest.mark.parametrize("n, expected", [(1, 0.3 * 4 / 3), (3, 0.3 * 64 / 35)])
    def test_unimodular_phase_other_dimensions(self, tables, weights, n, expected):
        """conj(lam)/|lam| against w1/|w1| on the circle (n = 1) and in
        C^3, at z = 0.3 e_1."""
        k = build_coeffs(tables["std0"], n, d_max=1 << 19)
        z = BallPoint.radial(0.3, n)
        e1 = (1,) + (0,) * (n - 1)
        fast = project(k, weights["std0"], BoundedSymbol.unimodular_phase(
            tuple(2 * e for e in e1), e1), z, TIGHT)
        slow = project(k, weights["std0"], BoundedSymbol.custom(
            lambda r, lam: np.conj(lam) / np.abs(lam), 1.0), z, TIGHT)
        assert_allclose(complex(fast), expected, rtol=1e-12)
        assert_allclose(complex(slow), complex(fast), atol=1e-12)

    def test_origin(self, coeffs_std0_n2, weights):
        """At z = 0 only the mean of the symbol survives, and the radial
        derivative vanishes."""
        z0 = BallPoint(np.zeros(2, dtype=complex))
        phase = BoundedSymbol.custom(lambda r, lam: np.conj(lam) / np.abs(lam), 1.0)
        one = BoundedSymbol.custom(lambda r, lam: np.ones_like(lam), 1.0)
        assert abs(project(coeffs_std0_n2, weights["std0"], phase, z0, TIGHT)) < 1e-12
        assert_allclose(complex(project(coeffs_std0_n2, weights["std0"], one, z0,
                                        TIGHT)), 1.0, atol=1e-12)
        assert project_bloch_image(coeffs_std0_n2, weights["std0"], phase,
                                   [0.0], TIGHT) == [(0.0, 0.0)]

    def test_polar_grid_interpolation(self, coeffs_std0_n2, weights):
        """Grid-sampled custom symbol reproduces its callable original."""
        fn = lambda r, lam: (1.0 + 0.5 * np.real(lam)) * np.ones_like(lam)
        r_nodes = np.linspace(0.0, 1.0, 41)
        m_nodes = np.linspace(0.0, 1.0, 41)
        a_nodes = np.linspace(0.0, 2 * np.pi, 65)[:-1]
        vals = np.empty((41, 41, 64), dtype=complex)
        for i, r in enumerate(r_nodes):
            lam = m_nodes[:, None] * np.exp(1j * a_nodes[None, :])
            vals[i] = fn(r, lam)
        phi_grid = BoundedSymbol.custom_from_polar_grid(r_nodes, m_nodes,
                                                        a_nodes, vals, 1.5)
        phi_fn = BoundedSymbol.custom(fn, 1.5)
        z = BallPoint.radial(0.4, 2)
        spec = QuadSpec(tolerance=1e-8, rel_tolerance=1e-8)
        a = project(coeffs_std0_n2, weights["std0"], phi_grid, z, spec)
        b = project(coeffs_std0_n2, weights["std0"], phi_fn, z, spec)
        assert_allclose(complex(a), complex(b), atol=1e-4)


class TestVerifyStar:
    def test_degree_zero_constants_cancel(self, coeffs_std0_n2, weights):
        lhs, rhs, gap = verify_star(coeffs_std0_n2, weights["std0"], (0, 0),
                                    BallPoint.radial(0.5, 2), TIGHT)
        assert lhs == 1.0
        assert gap < 1e-8

    def test_mixed_index(self, coeffs_std0_n2, weights):
        z = BallPoint(np.array([0.5 + 0j, 0.5 + 0j]))
        lhs, rhs, gap = verify_star(coeffs_std0_n2, weights["std0"], (2, 1), z,
                                    TIGHT)
        assert_allclose(complex(lhs), 0.125)
        assert gap < 1e-6

    def test_alpha_weight(self, tables, weights):
        k = build_coeffs(tables["std1"], 2, d_max=64)
        lhs, rhs, gap = verify_star(k, weights["std1"], (1, 0),
                                    BallPoint.radial(0.7, 2), TIGHT)
        assert_allclose(complex(lhs), 0.7)
        assert gap < 1e-6


class TestBlochImage:
    def test_constant_symbol_flat(self, coeffs_std0_n2, weights):
        prof = project_bloch_image(coeffs_std0_n2, weights["std0"],
                                   BoundedSymbol.monomial((0, 0)),
                                   np.linspace(0.1, 0.9, 9), TIGHT)
        assert all(d == 0.0 for _, d in prof)

    def test_coordinate_symbol_density(self, coeffs_std0_n2, weights):
        """f = z1 gives density (1-r^2) r with max 2/(3 sqrt 3)."""
        grid = np.linspace(0.01, 0.99, 197)
        prof = project_bloch_image(coeffs_std0_n2, weights["std0"],
                                   BoundedSymbol.monomial((1, 0)), grid, TIGHT)
        dens = np.array([d for _, d in prof])
        assert_allclose(dens, (1 - grid ** 2) * grid, atol=1e-6)
        assert_allclose(dens.max(), 2 / (3 * math.sqrt(3)), atol=1e-4)

    def test_unimodular_density_below_functional(self, coeffs_std0_n2, weights):
        """Any unit-sup symbol's Bloch density sits under M(r)."""
        phi = BoundedSymbol.unimodular_phase((2, 0), (1, 0))
        radii = (0.3, 0.5, 0.7)
        prof = project_bloch_image(coeffs_std0_n2, weights["std0"], phi, radii,
                                   TIGHT)
        for (r, density) in prof:
            m = boundedness_functional(coeffs_std0_n2, weights["std0"], r)
            assert density <= m * (1 + 1e-6)


class TestSphereMeanWorkingSet:
    """The sphere means of a callable symbol, taken on one working set per
    angle level and read from the unnormalised FFT by slices, against the
    loop with fresh arrays, division by N and index gathers."""

    @pytest.mark.parametrize("a", [0.45, 0.7])
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("name", list(SLICE_SYMBOLS))
    def test_against_fresh_arrays(self, coeffs_std0_n2, name, m, a):
        fn = SLICE_SYMBOLS[name]
        spec = DEFAULT_SPEC
        D, scale, gamma, _ = _terms(coeffs_std0_n2, a,
                                    max(spec.rel_tolerance * 10, 1.0e-11), m)
        u, u_weights = _slice_rule(2)
        levels, settled = {}, set()
        for s in SPHERE_RADII:
            mods = s * u
            terms = u_weights[:, None] * mods[:, None] ** np.arange(D + 1) * gamma
            want, n_want = _oracle_sphere_mean(fn, s, mods, terms, scale, spec)
            got, n_got = _fft_sphere_mean(fn, s, mods, terms, scale, spec, levels)
            assert n_got == n_want
            if name == "returns-lam":
                # lam has no mode -d with d >= 0: both sides are round-off
                assert abs(got - want) <= 1e-14 * _unscale(np.sum(terms), scale, "")
            else:
                assert abs(got - want) <= 1e-14 * abs(want)
            settled.add(n_got)
        if name == "phase133" or (name == "phase128" and m == 0):
            assert 512 in settled  # R K has no degree-0 term, so m = 1 misses -128

    def test_one_buffer_per_angle_count(self, coeffs_std0_n2, weights):
        """Every radial node of a call is handed the same lam array at a
        given angle count."""
        seen = []

        def fn(r, lam):
            seen.append(lam)
            return _unit(lam) + 0.3 * _unit(lam) ** 133

        project(coeffs_std0_n2, weights["std0"], BoundedSymbol.custom(fn, 1.3),
                BallPoint.radial(0.45, 2))
        shapes = {lam.shape for lam in seen}
        assert len(seen) > 100 and len(shapes) == 2
        assert len({id(lam) for lam in seen}) == len(shapes)

    def test_projection_of_in_place_symbol(self, coeffs_std0_n2, weights):
        """A symbol that overwrites lam with conj(lam) and returns it
        projects as w1 does, to z1."""
        z = BallPoint.radial(0.45, 2)
        val = project(coeffs_std0_n2, weights["std0"],
                      BoundedSymbol.custom(_conj_in_place, 1.0), z)
        assert_allclose(complex(val), 0.45, atol=1e-9)

    @pytest.mark.parametrize("bad", [lambda r, lam: 1.0,
                                     lambda r, lam: np.ones((lam.shape[0], 1)),
                                     lambda r, lam: [1.0] * lam.shape[0]],
                             ids=["scalar", "column", "list"])
    def test_bad_slice_result(self, coeffs_std0_n2, weights, bad):
        """A slice function whose result does not have lam's shape is a
        symbol error that names the expected shape."""
        phi = BoundedSymbol.custom(bad, 1.0)
        expected = rf"shape \({_slice_rule(2)[0].size}, 256\)"
        with pytest.raises(SymbolFormError, match=expected):
            project(coeffs_std0_n2, weights["std0"], phi, BallPoint.radial(0.45, 2))
        with pytest.raises(SymbolFormError, match=expected):
            project_bloch_image(coeffs_std0_n2, weights["std0"], phi, [0.45])
