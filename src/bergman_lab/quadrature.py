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


# QUADPACK's qk15 (Piessens et al., 1983): the 15-node Kronrod rule K15 and
# the 7-node Gauss rule G7 whose nodes are K15's odd-indexed ones (in
# ascending order).  |K15 - G7| is the per-segment error estimate
# (conservative for K15).  numpy has no Kronrod routine, so the half rules
# are written out on [0, 1] and mirrored.
_XK_HALF = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245, 0.0])
_WK_HALF = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                     0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG_HALF = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_KRONROD_X = np.concatenate([-_XK_HALF, _XK_HALF[-2::-1]])
_KRONROD_W = np.concatenate([_WK_HALF, _WK_HALF[-2::-1]])
_GAUSS_W = np.concatenate([_WG_HALF, _WG_HALF[-2::-1]])


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
    """K15 value and raw error estimate |K15 - G7| of the segments
    (s_lo, s_hi), from one call of fs on the 15 Kronrod nodes of each,
    along a new trailing axis."""
    half = 0.5 * (np.asarray(s_hi) - s_lo)
    mid = 0.5 * (np.asarray(s_lo) + s_hi)
    f = np.asarray(fs(mid[..., None] + half[..., None] * _KRONROD_X))
    i_k = half * np.sum(_KRONROD_W * f, axis=-1)
    i_g = half * np.sum(_GAUSS_W * f[..., 1::2], axis=-1)
    # roundoff floor keeps the estimate honest when both rules are exact
    return i_k, abs(i_k - i_g) + 1e-15 * abs(i_k)


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


def _integrate(fs, lengths: np.ndarray, spec: QuadSpec, s_floor: float, params=None):
    """int_0^L fs(s) ds for every L in the 1-d array lengths; returns arrays
    (value, error_estimate).  One call of fs takes the initial meshes of all
    lengths, length by length (a length's breakpoints that coincide, the
    finest ones of a short enough length, are merged); then each length
    that missed max(tolerance, rel_tolerance * |value|) is bisected alone.
    With params (a float per length), fs(s, p) gets each node's parameter
    in the first call and the length's float in its bisection."""
    pts = _initial_mesh(lengths, spec)
    lo, hi = pts[:, :-1], pts[:, 1:]
    kept = hi > lo
    counts = kept.sum(axis=1)
    args = () if params is None else (np.repeat(params, _KRONROD_X.size * counts),)
    flat_vals, flat_raws = _segment_estimates(
        lambda s: np.asarray(fs(s.ravel(), *args)).reshape(s.shape), lo[kept], hi[kept])
    # a length's segments lead its row: zero padding adds nothing to the sums,
    # and a lone segment keeps its raw error (_end_segment_error against 0)
    slots = np.arange(kept.shape[1]) < counts[:, None]
    vals, raws = np.zeros(slots.shape, flat_vals.dtype), np.zeros(slots.shape)
    vals[slots], raws[slots] = flat_vals, flat_raws
    _, total, err_total = _initial_sums(vals, raws)
    # a superset of the misses (NaN counts as one): _bisect applies the
    # exact stop rule
    budget = np.maximum(spec.tolerance, spec.rel_tolerance * np.abs(total))
    for j in np.flatnonzero(~(err_total <= budget)).tolist():
        segs = list(zip(lo[j, kept[j]].tolist(), hi[j, kept[j]].tolist()))
        fs_j = fs if params is None else (lambda s, p=float(np.ravel(params)[j]): fs(s, p))
        total[j], err_total[j] = _bisect(fs_j, segs, vals[j, :counts[j]],
                                         raws[j, :counts[j]], spec, s_floor)
    return total, err_total


def integrate_radial(f=None, spec: QuadSpec | None = None, a: float = 0.0,
                     b: float = 1.0, *, f_dist=None):
    """Adaptive integral over (a, b) with nodes kept strictly interior.

    Returns (value, error_estimate).  Internally the variable is the
    distance s = b - t from the end b, so the mesh can refine
    geometrically toward an integrable endpoint singularity without losing
    the endpoint offset to rounding.  One integrand call takes the initial
    mesh, the 15 Gauss-Kronrod K15 nodes of every segment in one flat array;
    K15 gives a segment's value, and its difference from the 7-node Gauss
    rule on the embedded nodes the raw error estimate.  Segments are then
    bisected worst first, one call per half, until the summed error
    estimate drops below max(tolerance, rel_tolerance * |value|).  This is
    the one-length case of integrate_to_end.

    Integrands are supplied either as f(t) in the original coordinate or as
    f_dist(s) in the distance coordinate; the latter keeps full floating
    resolution arbitrarily close to the singular end (s spans the subnormal
    range, while b - s rounds to b once s < eps).  Segments whose original
    coordinate can no longer be distinguished from the endpoint are frozen
    rather than split; if the frozen error alone exceeds the budget, or the
    subdivision budget runs out, QuadratureError carries the partial value.
    f and f_dist must be elementwise on 1-d numpy arrays.
    """
    spec = spec or DEFAULT_SPEC
    if not (b > a):
        raise ValueError("empty integration range")
    if f is None and f_dist is None:
        raise ValueError("need f or f_dist")
    fs = f_dist if f_dist is not None else (lambda s: f(b - s))
    # below this scale, b - s is no longer distinguishable from b
    s_floor = 0.0 if f_dist is not None else 8.0 * np.finfo(float).eps * max(abs(b), 1.0)
    value, error = _integrate(fs, np.array([b - a], dtype=float), spec, s_floor)
    return value[0], error[0]


def integrate_to_end(f_dist, lengths, spec: QuadSpec | None = None, params=None):
    """int_0^L f_dist(s) ds for every L in an array of lengths, graded toward
    s = 0; returns arrays (value, error_estimate) shaped like lengths.  Each
    L gives, bit for bit, what integrate_radial(f_dist=f_dist, spec=spec,
    a=a, b=b) gives for b - a == L, but one integrand call, on a flat 1-d
    array, takes the initial meshes of all lengths.  params, if given,
    holds a float per length (shaped like lengths), and the integrand is
    f_dist(s, p) with p each node's parameter (see _integrate).
    """
    spec = spec or DEFAULT_SPEC
    lengths = np.asarray(lengths, dtype=float)
    if not np.all(lengths > 0.0):
        raise ValueError("empty integration range")
    value, error = _integrate(f_dist, lengths.ravel(), spec, 0.0, params)
    return value.reshape(lengths.shape), error.reshape(lengths.shape)


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
        # the means are complex exactly when h's values are
        means = np.array([angular_mean(h, float(ri), spec) for ri in r])
        return means * 2.0 * r * (1.0 - r * r) ** m

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


_SLICE_GAUSS = np.polynomial.legendre.leggauss(15)


def _slice_rule(n: int):
    """Fixed rule for the slice identity of sphere_slice_average: nodes u in
    the slice-disk radius and their weights.  u = 1 for n = 1; for n >= 2
    composite Gauss against (n-1) 2u (1-u^2)^{n-2} du, graded dyadically
    toward the rim (where kernel factors peak)."""
    if n == 1:
        return np.ones(1), np.ones(1)
    x, wq = _SLICE_GAUSS
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
