"""Adaptive 1-d quadrature with boundary grading, and the polar reductions
used to integrate over the disk, the sphere, and the ball.

All measures are normalized to total mass 1: dA on the unit disk, dsigma on
the unit sphere, dv on the unit ball.  The constant factors of the polar and
slice identities below are validated against monomial closed forms in the
test suite and then trusted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, WeightDomainError

__all__ = [
    "QuadSpec",
    "BallPoint",
    "integrate_radial",
    "integrate_to_end",
    "integrate_disk",
    "sphere_slice_average",
    "integrate_ball_radial",
    "angular_mean",
]


@dataclass(frozen=True)
class QuadSpec:
    """Error budget and refinement policy for the adaptive integrators.

    tolerance is absolute; rel_tolerance additionally stops refinement once
    the estimated error is below rel_tolerance * |value|, which keeps tails
    of very small magnitude accurate in a relative sense.  grading >= 1 is
    the geometric factor of the initial mesh toward the singular endpoint.
    """

    tolerance: float = 1.0e-10
    max_subdivisions: int = 512
    grading: float = 2.0
    rel_tolerance: float = 1.0e-12
    initial_levels: int = 12
    max_angular_nodes: int = 1 << 20

    def __post_init__(self):
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be a finite positive number")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")
        if self.grading < 1.0:
            raise ValueError("grading must be >= 1")
        segments = 8 if self.grading == 1.0 else self.initial_levels + 1
        if segments >= self.max_subdivisions:
            raise ValueError(f"initial mesh of {segments} segments leaves no room to "
                             f"bisect within max_subdivisions={self.max_subdivisions}")


DEFAULT_SPEC = QuadSpec()


@dataclass(frozen=True)
class BallPoint:
    """A point of the unit ball of C^n, stored as its n complex coordinates."""

    coords: np.ndarray
    label: str = field(default="", compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        object.__setattr__(self, "coords", c)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coords must be a nonempty 1-d complex vector")
        if self.norm >= 1.0:
            raise ValueError(f"|z| = {self.norm} is not < 1")

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    @staticmethod
    def radial(r: float, n: int) -> "BallPoint":
        """The point r*e_1 on the first coordinate axis."""
        c = np.zeros(n, dtype=complex)
        c[0] = r
        return BallPoint(c)


def inner(z: BallPoint, w: BallPoint) -> complex:
    """Hermitian inner product <z,w> = sum z_j conj(w_j).

    Computed from four real dot products so that swapping the arguments
    yields the exact floating-point conjugate; kernel Hermitian symmetry
    then holds exactly, not just to rounding.
    """
    if z.n != w.n:
        raise ValueError("dimension mismatch")
    a, b = z.coords.real, z.coords.imag
    c, d = w.coords.real, w.coords.imag
    return complex(np.dot(a, c) + np.dot(b, d), np.dot(b, c) - np.dot(a, d))


# Embedded Gauss pair: the low rule's deviation from the high rule is the
# per-segment error estimate (conservative for the high rule).
_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_GAUSS_HI = np.polynomial.legendre.leggauss(15)


def _initial_mesh(length, spec: QuadSpec):
    """Breakpoints of the initial mesh on (0, length) in the distance
    coordinate s: geometric toward s = 0, or 8 equal segments when grading
    is 1.  An array of lengths adds a leading axis, one mesh per length."""
    if spec.grading == 1.0:
        unit = np.linspace(0.0, 1.0, 9)
    else:
        unit = np.array([0.0]
                        + [spec.grading ** (-j) for j in range(spec.initial_levels, 0, -1)]
                        + [1.0])
    return np.multiply.outer(length, unit)


def _segment_estimates(fs, s_lo, s_hi):
    """High-rule value and raw error estimate of the segments (s_lo, s_hi).

    The bounds may be arrays; fs then receives the nodes of every segment at
    once, along a new trailing axis.
    """
    half = 0.5 * (np.asarray(s_hi) - s_lo)
    mid = 0.5 * (np.asarray(s_lo) + s_hi)
    x_hi, w_hi = _GAUSS_HI
    x_lo, w_lo = _GAUSS_LO
    f_hi = np.asarray(fs(mid[..., None] + half[..., None] * x_hi))
    f_lo = np.asarray(fs(mid[..., None] + half[..., None] * x_lo))
    i_hi = half * np.sum(w_hi * f_hi, axis=-1)
    i_lo = half * np.sum(w_lo * f_lo, axis=-1)
    # roundoff floor keeps the estimate honest when both rules are exact
    return i_hi, abs(i_hi - i_lo) + 1e-15 * abs(i_hi)


def _end_segment_error(raw, reference):
    """Honest error for the segment touching the singular end.

    Refining toward an endpoint power singularity shrinks the raw estimate
    geometrically per dyadic layer; summing the remaining layers inflates
    the current one by 1/(1 - ratio).  The ratio is estimated against the
    parent (or neighbor) segment's raw estimate and clamped away from 1.
    Elementwise on arrays.
    """
    raw, reference = np.asarray(raw), np.asarray(reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(raw / reference, 0.95)
        inflated = raw / (1.0 - ratio)
    return np.where((reference <= 0.0) | (raw <= 0.0), raw, inflated)[()]


def _initial_sums(vals, raws):
    """Errors and in-order sums over the initial mesh's segments (last
    axis); segment 0 touches the singular end.  Returns (errs, total,
    err_total)."""
    errs = np.array(raws, dtype=float)
    if errs.shape[-1] > 1:
        errs[..., 0] = _end_segment_error(raws[..., 0], raws[..., 1])
    total = err_total = 0.0
    for j in range(errs.shape[-1]):
        total = total + vals[..., j]
        err_total = err_total + errs[..., j]
    return errs, total, err_total


def _bisect(fs, segs, vals, raws, spec: QuadSpec, s_floor: float):
    """From the initial mesh segs, with its segment values and raw error
    estimates, bisect segments worst first until the summed error estimate
    drops below max(tolerance, rel_tolerance * |value|); returns
    (value, error)."""
    errs, total, err_total = _initial_sums(vals, raws)
    heap = []
    for (lo, hi), val, raw, err in zip(segs, vals, raws, errs):
        heapq.heappush(heap, (-err, lo, hi, val, raw))
    frozen_err = 0.0
    n_seg = len(heap)
    while err_total > max(spec.tolerance, spec.rel_tolerance * abs(total)):
        if not heap or frozen_err > max(spec.tolerance, spec.rel_tolerance * abs(total)):
            raise QuadratureError(
                "cannot refine further near the singular endpoint "
                f"(error estimate {err_total:.3e})",
                partial_value=total, error_estimate=err_total)
        if n_seg >= spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence within {spec.max_subdivisions} subdivisions "
                f"(error estimate {err_total:.3e})",
                partial_value=total, error_estimate=err_total)
        neg_err, lo, hi, val, raw_parent = heapq.heappop(heap)
        if 0.5 * (lo + hi) < s_floor:
            frozen_err += -neg_err  # representability floor: keep error, stop splitting
            continue
        total -= val
        err_total += neg_err  # neg_err = -err
        mid = 0.5 * (lo + hi)
        for seg_lo, seg_hi in ((lo, mid), (mid, hi)):
            v, raw = _segment_estimates(fs, seg_lo, seg_hi)
            err = _end_segment_error(raw, raw_parent) if seg_lo == 0.0 else raw
            total += v
            err_total += err
            heapq.heappush(heap, (-err, seg_lo, seg_hi, v, raw))
        n_seg += 1
    return total, err_total


def integrate_radial(f=None, spec: QuadSpec | None = None, a: float = 0.0,
                     b: float = 1.0, graded_end: float | None = None,
                     f_dist=None):
    """Adaptive integral over (a, b) with nodes kept strictly interior.

    Returns (value, error_estimate).  Internally the variable is the
    distance s from graded_end (default b), so the mesh can refine
    geometrically toward an integrable endpoint singularity without losing
    the endpoint offset to rounding.  Segments are bisected worst first
    until the summed error estimate drops below
    max(tolerance, rel_tolerance * |value|).

    Integrands are supplied either as f(t) in the original coordinate or as
    f_dist(s) in the distance coordinate; the latter keeps full floating
    resolution arbitrarily close to the singular end (s spans the subnormal
    range, while b - s rounds to b once s < eps).  Segments whose original
    coordinate can no longer be distinguished from the endpoint are frozen
    rather than split; if the frozen error alone exceeds the budget, or the
    subdivision budget runs out, QuadratureError carries the partial value.

    f and f_dist must accept numpy arrays.
    """
    spec = spec or DEFAULT_SPEC
    if graded_end is None:
        graded_end = b
    if not (b > a):
        raise ValueError("empty integration range")
    if graded_end not in (a, b):
        raise ValueError("graded_end must be one of the interval endpoints")
    if f is None and f_dist is None:
        raise ValueError("need f or f_dist")
    sign = -1.0 if graded_end == b else 1.0

    if f_dist is not None:
        fs = f_dist
    else:
        def fs(s):
            return f(graded_end + sign * s)

    pts = sorted(set(_initial_mesh(b - a, spec).tolist()))
    # below this scale, b - s is no longer distinguishable from b
    s_floor = 0.0 if f_dist is not None else 8.0 * np.finfo(float).eps * max(abs(graded_end), 1.0)
    segs = list(zip(pts[:-1], pts[1:]))
    vals, raws = map(np.array, zip(*(_segment_estimates(fs, lo, hi) for lo, hi in segs)))
    return _bisect(fs, segs, vals, raws, spec, s_floor)


def integrate_to_end(f_dist, lengths, spec: QuadSpec | None = None):
    """int_0^L f_dist(s) ds for every L in an array of lengths, graded toward
    s = 0.  Each L gives, bit for bit, what integrate_radial(f_dist=f_dist,
    spec=spec, a=a, b=b) gives for b - a == L, but the initial meshes of
    all lengths are evaluated in one pass.

    f_dist must be elementwise: it receives every initial-mesh node at once,
    in an array of shape (lengths, segments, nodes).  Only lengths whose
    initial estimate misses max(tolerance, rel_tolerance * |value|) go on
    to integrate_radial's bisection, one at a time.  Returns arrays
    (value, error_estimate) shaped like lengths.
    """
    spec = spec or DEFAULT_SPEC
    lengths = np.asarray(lengths, dtype=float)
    if not np.all(lengths > 0.0):
        raise ValueError("empty integration range")
    value, error = np.empty(lengths.shape), np.empty(lengths.shape)
    pts = _initial_mesh(lengths, spec)
    # a mesh whose breakpoints coincide would lose segments to
    # integrate_radial's deduplication: those lengths go there whole
    distinct = np.all(np.diff(pts, axis=-1) > 0.0, axis=-1)
    for i in map(tuple, np.argwhere(~distinct)):
        value[i], error[i] = integrate_radial(spec=spec, b=lengths[i], f_dist=f_dist)
    pts = pts[distinct]
    vals, raws = _segment_estimates(f_dist, pts[:, :-1], pts[:, 1:])
    _, total, err_total = _initial_sums(vals, raws)
    # a superset of the misses (NaN counts as one): _bisect applies the
    # exact stop rule
    budget = np.maximum(spec.tolerance, spec.rel_tolerance * np.abs(total))
    for j in np.flatnonzero(~(err_total <= budget)):
        segs = list(zip(pts[j, :-1], pts[j, 1:]))
        total[j], err_total[j] = _bisect(f_dist, segs, vals[j], raws[j], spec, 0.0)
    value[distinct], error[distinct] = total, err_total
    return value, error


def as_vectorized(f):
    """Wrap a scalar-only callable so the integrators can pass node arrays."""

    def fv(x):
        x = np.atleast_1d(x)
        return np.array([f(float(t)) for t in x])

    return fv


def angular_mean(g, radius: float, spec: QuadSpec | None = None, start_nodes: int = 256):
    """Mean of g over the circle of the given radius.

    Trapezoid rule on uniform angles (spectrally accurate for smooth g),
    with the node count doubled until two successive levels agree to
    tolerance.  g receives an array of complex points.
    """
    spec = spec or DEFAULT_SPEC
    n = start_nodes
    prev = None
    while n <= spec.max_angular_nodes:
        theta = 2.0 * np.pi * np.arange(n) / n
        vals = np.asarray(g(radius * np.exp(1j * theta)))
        cur = np.mean(vals)
        if prev is not None and abs(cur - prev) <= max(spec.tolerance,
                                                       spec.rel_tolerance * abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureError(
        f"angular mean did not stabilize within {spec.max_angular_nodes} nodes",
        partial_value=prev)


def integrate_disk(h, m: int = 0, spec: QuadSpec | None = None):
    """Integral of h(lambda) (1-|lambda|^2)^m over the unit disk, dA normalized.

    In polar form: 2 * int_0^1 r (1-r^2)^m * mean_theta h(r e^{i theta}) dr.
    h may be real or complex valued.
    """
    spec = spec or DEFAULT_SPEC
    if m < 0:
        raise ValueError("m must be >= 0")

    def radial_part(r):
        r = np.atleast_1d(r)
        out = np.empty(r.shape, dtype=complex)
        for i, ri in enumerate(r):
            out[i] = angular_mean(h, float(ri), spec)
        out = out * 2.0 * r * (1.0 - r * r) ** m
        return out if np.iscomplexobj(np.asarray(h(np.array([0.1 + 0j])))) else out.real

    value, _ = integrate_radial(radial_part, spec)
    return value


def sphere_slice_average(h, z: BallPoint, spec: QuadSpec | None = None):
    """Average of h(<z, xi>) over the unit sphere in C^n.

    For n >= 2 the slice identity reduces the sphere average to a weighted
    disk integral: (n-1) * int_D h(|z| lambda)(1-|lambda|^2)^{n-2} dA(lambda).
    For n = 1 it is the plain circle mean at radius |z|.  With h == 1 both
    return 1 (sigma is normalized).
    """
    spec = spec or DEFAULT_SPEC
    a = z.norm
    if z.n == 1:
        return angular_mean(h, a, spec)
    return (z.n - 1) * integrate_disk(lambda lam: h(a * lam), z.n - 2, spec)


def _slice_rule(n: int):
    """Fixed rule for the slice identity of sphere_slice_average: nodes u in
    the slice-disk radius and their weights.  u = 1 for n = 1; for n >= 2
    composite Gauss against (n-1) 2u (1-u^2)^{n-2} du, graded dyadically
    toward the rim (where kernel factors peak)."""
    if n == 1:
        return np.ones(1), np.ones(1)
    x, wq = _GAUSS_HI
    breaks = np.array([0.0] + [1.0 - 2.0 ** (-j) for j in range(1, 10)] + [1.0])
    half = 0.5 * np.diff(breaks)[:, None]
    u = (0.5 * (breaks[:-1] + breaks[1:])[:, None] + half * x).ravel()
    return u, (n - 1) * 2.0 * u * (1.0 - u * u) ** (n - 2) * (half * wq).ravel()


def integrate_ball_radial(slice_fn, weight, n: int, spec: QuadSpec | None = None):
    """Polar integral over the unit ball against the radial weight.

    slice_fn(r) must return the sphere average of the integrand over the
    sphere of radius r (typically via sphere_slice_average).  The value is

        2n * int_0^1 r^{2n-1} rho(r) slice_fn(r) dr,

    so with slice_fn == 1 this is 2n * rho_{2n-1} = int_{B_n} rho dv.
    """
    spec = spec or DEFAULT_SPEC
    if n < 1:
        raise WeightDomainError("n must be >= 1")
    slice_vec = as_vectorized(slice_fn)

    def f(r):
        r = np.atleast_1d(r)
        return 2.0 * n * r ** (2 * n - 1) * weight(r) * slice_vec(r)

    value, _ = integrate_radial(f, spec)
    return value
