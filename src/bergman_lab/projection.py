"""Numerical Bergman-type projection of bounded symbols, and the monomial
reproducing-identity verifier.

The projection of a bounded symbol phi is

    P phi(z) = int_{B_n} K(z, w) phi(w) rho(w) dv(w).

For the structured symbol kinds (monomials, conjugate monomials, radial
indicators, unimodular phase patterns) the angular integrations collapse by
orthogonality: only one kernel degree survives, the sphere factor is a Gamma
ratio, and what remains is a single fresh radial quadrature.  Custom
slice-form symbols meet kernel degree d only in their angular Fourier mode
-d, so they cost one radial quadrature of sums over modes.  Symbols that
cannot be written in slice form are rejected up front, since an honest
full-dimensional quadrature is out of reach at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SymbolFormError
from .kernel import KernelCoeffs, _terms, _unscale
from .quadrature import (BallPoint, QuadSpec, DEFAULT_SPEC, _slice_rule,
                         integrate_radial)
from .weights import RadialWeight

__all__ = [
    "BoundedSymbol",
    "project",
    "verify_star",
    "project_bloch_image",
]


@dataclass(frozen=True)
class BoundedSymbol:
    """A bounded measurable input to the projection.

    kinds: monomial w^a, conj_monomial conj(w)^a, radial_indicator of
    r_lo <= |w| < r_hi, unimodular_phase w^a conj(w)^b / |w^a conj(w)^b|,
    and custom with a slice function phi(r, lam) of the radius and the slice
    variable lam = <z/|z|, w>.
    """

    kind: str
    sup_norm_bound: float
    multi_index: tuple[int, ...] | None = None
    multi_index_2: tuple[int, ...] | None = None
    r_lo: float = 0.0
    r_hi: float = 1.0
    slice_fn: object = field(default=None, compare=False)

    @classmethod
    def monomial(cls, alpha):
        alpha = tuple(int(a) for a in alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("multi-index entries must be >= 0")
        return cls("monomial", 1.0, multi_index=alpha)

    @classmethod
    def conj_monomial(cls, alpha):
        alpha = tuple(int(a) for a in alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("multi-index entries must be >= 0")
        return cls("conj_monomial", 1.0, multi_index=alpha)

    @classmethod
    def radial_indicator(cls, r_lo, r_hi):
        if not (0.0 <= r_lo < r_hi <= 1.0):
            raise ValueError("need 0 <= r_lo < r_hi <= 1")
        return cls("radial_indicator", 1.0, r_lo=float(r_lo), r_hi=float(r_hi))

    @classmethod
    def unimodular_phase(cls, alpha, beta):
        alpha = tuple(int(a) for a in alpha)
        beta = tuple(int(b) for b in beta)
        if len(alpha) != len(beta):
            raise ValueError("index pair must share a dimension")
        return cls("unimodular_phase", 1.0, multi_index=alpha, multi_index_2=beta)

    @classmethod
    def custom(cls, slice_fn, sup_norm_bound):
        """Custom symbol phi(w) = slice_fn(|w|, <z/|z|, w>).

        slice_fn(r, lam) must broadcast over numpy arrays of lam and return
        an array of lam's shape; the projection raises SymbolFormError
        otherwise.  lam is valid only during the call: the projection
        reuses its buffer for the next radius, so keep no reference to it
        (a copy is fine).  Symbols given any other way (for example raw
        coordinate samples) are not in slice form and are rejected.
        """
        if not callable(slice_fn):
            raise SymbolFormError(
                "custom symbols must provide a callable slice_fn(r, lam); "
                "general samplings of B_n are not expressible in slice form "
                "and cannot be integrated accurately at desk scale")
        return cls("custom", float(sup_norm_bound), slice_fn=slice_fn)

    @classmethod
    def custom_from_polar_grid(cls, r_nodes, mod_nodes, arg_nodes, values,
                               sup_norm_bound):
        """Custom symbol interpolated from samples on a polar product grid.

        values[i, j, k] = phi at radius r_nodes[i], slice modulus
        mod_nodes[j], slice angle arg_nodes[k] (radians, increasing, spanning
        less than 2 pi).  Interpolation is trilinear, periodic in the angle.
        """
        values = np.asarray(values, dtype=complex)
        r_nodes = np.asarray(r_nodes, dtype=float)
        mod_nodes = np.asarray(mod_nodes, dtype=float)
        arg_nodes = np.asarray(arg_nodes, dtype=float)
        if values.shape != (r_nodes.size, mod_nodes.size, arg_nodes.size):
            raise SymbolFormError(
                "custom grid values must have shape (radii, moduli, angles); "
                "got a sampling that is not a polar product grid")
        if arg_nodes.size == 0 or arg_nodes[-1] - arg_nodes[0] >= 2.0 * np.pi:
            raise SymbolFormError(
                "custom grid needs angles spanning less than 2 pi; the angle "
                "is periodic, so the first node closes the grid")
        return cls("custom", float(sup_norm_bound),
                   slice_fn=_PolarGridSlice(r_nodes, mod_nodes, arg_nodes, values))


class _PolarGridSlice:
    """Trilinear interpolant of a polar-grid symbol in (r, |lam|, angle), the
    angle taken as (arg lam - arg_nodes[0]) mod 2 pi.  Outside the grid each
    axis continues its first or last cell linearly; an axis of one node is
    constant."""

    def __init__(self, r_nodes, mod_nodes, arg_nodes, values):
        self.arg_nodes = arg_nodes
        self.offsets = np.append(arg_nodes - arg_nodes[0], 2.0 * np.pi)
        values = np.concatenate([values, values[:, :, :1]], axis=2)
        axes = []
        for i, nodes in enumerate((r_nodes, mod_nodes, self.offsets)):
            if nodes.size == 0:
                raise ValueError(f"the grid has no points in dimension {i}")
            if not np.all(nodes[1:] > nodes[:-1]):
                if i == 2 or not np.all(nodes[1:] < nodes[:-1]):
                    raise ValueError(f"The points in dimension {i} must be strictly "
                                     "ascending or descending")
                nodes, values = nodes[::-1], np.flip(values, axis=i)
            axes.append(nodes)
        self.axes, self.values = axes, values

    def __call__(self, r, lam):
        lam = np.asarray(lam, dtype=complex)
        coords = np.broadcast_arrays(
            r, np.abs(lam), np.mod(np.angle(lam) - self.arg_nodes[0], 2.0 * np.pi))
        lower, upper, weights = [], [], []
        for nodes, x in zip(self.axes, coords):
            x = np.asarray(x, dtype=float).ravel()
            if nodes.size == 1:
                i = np.zeros(x.size, dtype=int)
                lower.append(i), upper.append(i), weights.append(np.zeros(x.size))
                continue
            # the cell [nodes[i], nodes[i + 1]] holding x, the end cells past the ends
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
            lower.append(i), upper.append(i + 1)
            weights.append((x - nodes[i]) / (nodes[i + 1] - nodes[i]))
        out = np.zeros(lower[0].size, dtype=complex)
        for corner in range(8):
            idx, weight = [], 1.0
            for axis in range(3):
                if corner >> (2 - axis) & 1:
                    idx.append(upper[axis])
                    weight = weight * weights[axis]
                else:
                    idx.append(lower[axis])
                    weight = weight * (1.0 - weights[axis])
            out += self.values[tuple(idx)] * weight
        return out.reshape(lam.shape)

    def modes(self, r, mods, D: int):
        """Exact angular modes f_{-d}, d = 0..D, shape (mods.size, D + 1).

        f is piecewise linear in the angle with slope jumps k_j at theta_j,
        so f_{-d} = -sum_j k_j e^{i d theta_j} / (2 pi d^2) for d != 0 (on a
        uniform grid: the DFT times sinc^2(pi d / angles))."""
        g = self(r, mods[:, None] * np.exp(1j * self.arg_nodes))
        h = np.diff(self.offsets)
        slope = (np.roll(g, -1, axis=-1) - g) / h
        kinks = np.roll(slope, 1, axis=-1) - slope
        d = np.arange(1, D + 1)
        return np.column_stack([g @ (h + np.roll(h, 1)) / (4.0 * np.pi),
                                kinks @ np.exp(1j * np.outer(self.arg_nodes, d))
                                / (2.0 * np.pi * d ** 2)])


def _fresh_radial_moment(w: RadialWeight, power: int, spec: QuadSpec) -> float:
    """int_0^1 t^power rho(t) dt by the adaptive integrator (not the memo table).

    Keeps the verifiers two-route: the kernel coefficients come from the
    moment table, the projection integrals from an independent quadrature.
    """
    value, _ = integrate_radial(
        spec=spec,
        f_dist=lambda u: (1.0 - u) ** power * w.eval_at_one_minus(u))
    return value


def _sphere_modulus_moment(gamma, n: int) -> float:
    """int_{S_n} prod |xi_j|^{gamma_j} dsigma = Gamma(n) prod Gamma(g_j/2+1) / Gamma(n+|g|/2)."""
    g = [float(x) for x in gamma]
    return math.exp(math.lgamma(n) + sum(math.lgamma(0.5 * x + 1.0) for x in g)
                    - math.lgamma(n + 0.5 * sum(g)))


def _zpow(z: BallPoint, alpha) -> complex:
    return complex(np.prod(z.coords ** np.asarray(alpha)))


def _surviving_factor(k: KernelCoeffs, w: RadialWeight, d: int, radial_power: int,
                      sphere_factor: float, mult: float, spec: QuadSpec,
                      degree_weight: int = 0) -> complex:
    """Common closed-angular form: (d^m) c_d * mult * 2n * radial * sphere."""
    n = k.n
    c_d = math.exp(k.log_c(d))
    radial = _fresh_radial_moment(w, radial_power, spec)
    value = c_d * mult * 2.0 * n * radial * sphere_factor
    if degree_weight:
        value *= d ** degree_weight
    return value


def _project_structured(k: KernelCoeffs, w: RadialWeight, phi: BoundedSymbol,
                        spec: QuadSpec, degree_weight: int = 0):
    """(surviving degree d, z-exponent gamma, scalar factor) or 0 contribution.

    degree_weight = 1 swaps the kernel for its radial derivative.
    """
    n = k.n
    if phi.kind == "monomial":
        alpha = phi.multi_index
        d = sum(alpha)
        if len(alpha) != n:
            raise ValueError("multi-index dimension mismatch")
        sphere = math.exp(math.lgamma(d + 1) + math.lgamma(n) - math.lgamma(d + n))
        return d, alpha, _surviving_factor(k, w, d, 2 * n - 1 + 2 * d, sphere,
                                           1.0, spec, degree_weight)
    if phi.kind == "conj_monomial":
        alpha = phi.multi_index
        if len(alpha) != n:
            raise ValueError("multi-index dimension mismatch")
        if sum(alpha) == 0:
            return _project_structured(
                k, w, BoundedSymbol.monomial(alpha), spec, degree_weight)
        return 0, tuple([0] * n), 0.0
    if phi.kind == "radial_indicator":
        if degree_weight:
            return 0, tuple([0] * n), 0.0
        c0 = math.exp(k.log_c(0))
        val, _ = integrate_radial(
            lambda t: t ** (2 * n - 1) * w.eval_at_one_minus(1.0 - t),
            spec, a=phi.r_lo, b=phi.r_hi)
        return 0, tuple([0] * n), c0 * 2.0 * n * val
    if phi.kind == "unimodular_phase":
        gamma = tuple(a - b for a, b in zip(phi.multi_index, phi.multi_index_2))
        if len(gamma) != n:
            raise ValueError("multi-index dimension mismatch")
        if any(g < 0 for g in gamma):
            return 0, tuple([0] * n), 0.0
        d = sum(gamma)
        if d == 0 and degree_weight:
            return 0, gamma, 0.0
        mult = math.exp(math.lgamma(d + 1) - sum(math.lgamma(g + 1.0) for g in gamma))
        sphere = _sphere_modulus_moment(gamma, n)
        return d, gamma, _surviving_factor(k, w, d, 2 * n - 1 + d, sphere,
                                           mult, spec, degree_weight)
    raise ValueError(f"unhandled symbol kind {phi.kind!r}")


def surviving_degree(phi: BoundedSymbol) -> int:
    """The kernel degree whose coefficient _project_structured reads: |a|
    for the monomial w^a, |a - b| for a unimodular phase with a - b >= 0,
    and 0 otherwise (degree 0 or none survives, or the symbol is a radial
    indicator or custom)."""
    if phi.kind == "monomial":
        return sum(phi.multi_index)
    if phi.kind == "unimodular_phase":
        gamma = [a - b for a, b in zip(phi.multi_index, phi.multi_index_2)]
        return sum(gamma) if min(gamma) >= 0 else 0
    return 0


def _mode_sum(terms: np.ndarray, modes: np.ndarray, n_theta: int) -> complex:
    """sum(terms * modes) / n_theta for real terms: the real and imaginary
    parts of the modes are paired apart, so the terms are never promoted to
    complex, and n_theta, a power of two, divides exactly."""
    return complex(np.sum(terms * modes.real) / n_theta,
                   np.sum(terms * modes.imag) / n_theta)


def _slice_values(slice_fn, s: float, lam: np.ndarray) -> np.ndarray:
    """slice_fn(s, lam) as an array, checked to have lam's shape."""
    values = np.asarray(slice_fn(s, lam))
    if values.shape != lam.shape:
        raise SymbolFormError(
            f"custom slice_fn(r, lam) must return an array of lam's shape "
            f"{lam.shape}; got shape {values.shape}")
    return values


def _fft_sphere_mean(slice_fn, s: float, mods: np.ndarray, terms: np.ndarray,
                     scale: float, spec: QuadSpec, levels: dict):
    """(sphere mean, N) of a callable symbol at radius s: the terms
    terms[i, d] paired with the modes f_{-d}(s, mods[i]) from an FFT of
    samples on N angles, N doubled from the least power of two >=
    max(256, 4(D+1)) until the N- and N/2-angle means agree.

    levels is the calling projection's working set, N -> (circle nodes,
    sample points lam, spectrum), filled at the first radius that reaches
    N and overwritten in place at every later one.  lam and the spectrum
    are the two halves of one block: held as two arrays, the symbol's own
    temporaries still faulted (171,000 minor faults in the measurement of
    _project_custom, against 3,907).  The unnormalised FFT is read by
    slices, without a gather: mode -d is column 0, then columns N-1 down
    to N-D; mode N/2-d, which the N/2-angle DFT folds onto mode -d, is
    columns N/2 down to N/2-D.  N >= 4(D+1), so neither slice wraps.
    """
    D = terms.shape[1] - 1
    n_theta = 2 << max(7, (2 * D + 1).bit_length())
    cur = None
    while n_theta <= spec.max_angular_nodes:
        if n_theta not in levels:
            levels[n_theta] = (np.exp(2j * np.pi * np.arange(n_theta) / n_theta),
                               *np.empty((2, mods.size, n_theta), dtype=complex))
        circle, lam, spectrum = levels[n_theta]
        np.multiply(mods[:, None], circle, out=lam)
        np.fft.fft(_slice_values(slice_fn, s, lam), axis=-1, out=spectrum)
        half = n_theta // 2
        low = (_mode_sum(terms[:, :1], spectrum[:, :1], n_theta)
               + _mode_sum(terms[:, 1:], spectrum[:, n_theta - 1:n_theta - 1 - D:-1],
                           n_theta))
        high = _mode_sum(terms, spectrum[:, half:half - D - 1:-1], n_theta)
        cur = _unscale(low, scale, "series value")
        # the DFT of the even angles (one level down) folds mode N/2 - d onto -d
        coarse = _unscale(low + high, scale, "series value")
        if abs(cur - coarse) <= max(spec.tolerance, 10 * spec.rel_tolerance * abs(cur)):
            return cur, n_theta
        n_theta *= 2
    raise QuadratureError("custom-symbol projection did not stabilize in angle",
                          partial_value=cur)


def _project_custom(k: KernelCoeffs, w: RadialWeight, phi: BoundedSymbol,
                    z: BallPoint, spec: QuadSpec, degree_weight: int = 0) -> complex:
    """Radial quadrature of the sphere means, at radius s,

        sum_i w_i sum_{d <= D} d^m c_d (|z| s u_i)^d f_{-d}(s, s u_i),

    with one certified term table at |z|, which bounds every modulus met.
    Polar-grid symbols give exact modes f_{-d}; a callable's come from
    _fft_sphere_mean.  degree_weight m = 1 swaps K for its radial
    derivative.

    The call holds one working set per angle count for all of its ~200
    radial nodes (_fft_sphere_mean).  With fresh arrays of 150 x N complex
    values at every node, the allocator mapped and unmapped pages node by
    node: three in-process rounds of the project-slice benchmark
    operations (seed 57, 2-vCPU host) took 1.24 million minor page faults
    and 2.25 s of system time, 29% of their wall time, against 3,907
    faults and under 0.02 s with the working set.
    """
    n = k.n
    a = z.norm
    tol = max(spec.rel_tolerance * 10, 1.0e-11)
    if a == 0.0 and degree_weight:
        return 0.0j  # at z = 0 only degree 0 survives, and R K has none
    D, scale, gamma, _ = (_terms(k, a, tol, degree_weight) if a > 0.0
                          else (0, k.log_c(0), np.ones(1), 0.0))
    u, u_weights = _slice_rule(n)
    degrees = np.arange(D + 1)
    slice_fn = phi.slice_fn
    levels = {}

    def sphere_mean(s: float) -> complex:
        mods = s * u
        terms = u_weights[:, None] * mods[:, None] ** degrees * gamma
        if isinstance(slice_fn, _PolarGridSlice):
            return _unscale(np.sum(terms * slice_fn.modes(s, mods, D)), scale,
                            "series value")
        return _fft_sphere_mean(slice_fn, s, mods, terms, scale, spec, levels)[0]

    def f(r):
        return 2.0 * n * r ** (2 * n - 1) * w(r) * np.array([sphere_mean(s) for s in r])

    return complex(integrate_radial(f, spec)[0])


def project(k: KernelCoeffs, w_weight: RadialWeight, phi: BoundedSymbol,
            z: BallPoint, q: QuadSpec | None = None) -> complex:
    """P phi(z), the projection integral evaluated at z."""
    q = q or DEFAULT_SPEC
    if z.n != k.n:
        raise ValueError("point dimension does not match the kernel")
    if phi.kind == "custom":
        return _project_custom(k, w_weight, phi, z, q)
    d, gamma, factor = _project_structured(k, w_weight, phi, q)
    if factor == 0.0:
        return 0.0j
    return factor * _zpow(z, gamma)


def verify_star(k: KernelCoeffs, w_weight: RadialWeight, alpha, z: BallPoint,
                q: QuadSpec | None = None):
    """Check the monomial reproducing identity

        z^alpha = (d+n-1)!/(2 d! n! rho_{2n-1+2d}) *
                  int_{B_n} w^alpha <z,w>^d rho(w) dv(w),   d = |alpha|.

    Returns (lhs, rhs, abs_gap).  The right side pairs the moment-table
    prefactor with an independently quadratured radial integral (the angular
    factor is the sphere monomial constant, validated separately), so a gap
    exposes any inconsistency between the two integration routes.
    """
    q = q or DEFAULT_SPEC
    alpha = tuple(int(a) for a in alpha)
    n = k.n
    if len(alpha) != n:
        raise ValueError("multi-index dimension mismatch")
    d = sum(alpha)
    lhs = _zpow(z, alpha)
    log_pref = (math.lgamma(d + n) - math.log(2.0) - math.lgamma(d + 1) - math.lgamma(n + 1)
                - k.table.log_moment(2 * n - 1 + 2 * d))
    sphere = math.exp(math.lgamma(d + 1) + math.lgamma(n) - math.lgamma(d + n))
    integral = 2.0 * n * _fresh_radial_moment(w_weight, 2 * n - 1 + 2 * d, q) \
        * sphere * lhs
    rhs = math.exp(log_pref) * integral
    return lhs, rhs, abs(lhs - rhs)


def project_bloch_image(k: KernelCoeffs, w_weight: RadialWeight,
                        phi: BoundedSymbol, radii_grid,
                        q: QuadSpec | None = None):
    """Bloch density profile of f = P phi along the first axis:

        (r, (1 - r^2) |R f(r e_1)|)  for r in the grid,

    with R f obtained by projecting against the radial derivative of the
    kernel instead of the kernel.
    """
    q = q or DEFAULT_SPEC
    if phi.kind != "custom":
        d, gamma, factor = _project_structured(k, w_weight, phi, q, degree_weight=1)
    out = []
    for r in radii_grid:
        z = BallPoint.radial(float(r), k.n)
        if phi.kind == "custom":
            rf = _project_custom(k, w_weight, phi, z, q, degree_weight=1)
        else:
            rf = factor * _zpow(z, gamma) if factor != 0.0 else 0.0
        out.append((float(r), (1.0 - r * r) * abs(rf)))
    return out
