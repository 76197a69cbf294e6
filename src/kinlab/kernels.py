"""Kernel representations and ellipticity-class diagnostics.

Kernels are nonnegative even densities K(w) on R^d minus the origin,
comparable to the stable density |w|^{-d-2s}.  This module certifies (on
tested data) the defining bounds of the ellipticity class: the second-moment
upper bound, the cone nondegeneracy used when s < 1/2, a sampled coercivity
ratio, Fourier symbols, the Hölder modulus of kernel families, and the
dyadic-ring bookkeeping behind weak-* convergence arguments.  For a homogeneous
a(theta) |w|^{-d-2s}, the symbol and both constants are a closed-form radial
power times one angular moment: in closed form when a is constant, and from
`quadrature.half_sphere_rule` otherwise; so are both constants of a truncated
stable kernel, and the symbol of a log-periodic one is a sum of complex-order
powers.  Where a compactly supported kernel is radial, its symbol integrates
the sphere in closed form and leaves one radial integral.  Every other integral
is the value of one `quadrature.kronrod_rings` call, with its core cut from
`quadrature.ball_rings`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import gamma, j0

from .group import Point, _as_exponent, dist
from .quadrature import (
    _SPHERE_AREA,
    _norm,
    _ring_nodes,
    ball_rings,
    dyadic_rings,
    half_sphere_rule,
    kronrod_rings,
)

__all__ = [
    "Kernel",
    "StableLike",
    "TruncatedStable",
    "RingMeasure",
    "CustomDensity",
    "LogPeriodic",
    "KernelFamily",
    "TestFunction",
    "upper_bound_constant",
    "nondegeneracy_constant",
    "coercivity_ratio",
    "symbol",
    "holder_modulus",
    "ring_moments",
    "weak_star_gap",
    "ellipticity_report",
]

class _Built(type):
    """Marks each instance built once its constructor returns."""

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        object.__setattr__(obj, "_built", True)
        return obj


class Kernel(metaclass=_Built):
    """Base class: an even nonnegative density with a known order s.

    A kernel is immutable once built: an attribute assignment raises, since it would
    leave the fields its constructor validated and derived (`support_radius`) inconsistent.
    """

    def __init__(self, s, d: int):
        self.s = _as_exponent(s)
        self.d = int(d)
        if self.d not in (1, 2, 3):
            raise ValueError(f"supported dimensions: 1, 2, 3, got {d!r}")

    #: set on the instance by `_Built` once its constructor returns
    _built = False

    def __setattr__(self, name, value):
        if self._built:
            raise AttributeError(f"cannot set {name!r}: a kernel is immutable once built; build a new one")
        super().__setattr__(name, value)

    def density(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    #: radius beyond which the density vanishes identically (inf if none)
    support_radius: float = math.inf

    #: exact positive homogeneity of degree -(d+2s), when it holds
    homogeneous: bool = False

    #: the density depends on |w| alone, so `symbol` averages the sphere in closed form
    radial: bool = False


def _even_angular(a: Callable[[np.ndarray], np.ndarray]):
    def sym(dirs: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(a(dirs), dtype=float) + np.asarray(a(-dirs), dtype=float))

    return sym


class StableLike(Kernel):
    """amplitude * a(w/|w|) * |w|^{-d-2s} with an even angular density a.

    The angular density is symmetrized at evaluation time, so any
    nonnegative callable is accepted; `angular` keeps the callable as given.
    """

    homogeneous = True

    def __init__(self, s, d: int, angular: Callable | None = None, amplitude: float = 1.0):
        super().__init__(s, d)
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude}")
        self.amplitude = float(amplitude)
        self.angular = angular
        self._angular = _even_angular(angular) if angular is not None else None

    def density(self, w: np.ndarray) -> np.ndarray:
        r = _norm(w)
        out = self.amplitude * r ** (-self.d - self.s.two_s)
        if self._angular is not None:
            out = out * self._angular(w / r[..., None])
        return out


class TruncatedStable(Kernel):
    """|w|^{-d-2s} restricted to the ball of a given cutoff radius."""

    radial = True

    def __init__(self, s, d: int, cutoff: float = 1.0, amplitude: float = 1.0):
        super().__init__(s, d)
        if not 0.0 < cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and positive, got {cutoff}")
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude}")
        self.cutoff = float(cutoff)
        self.amplitude = float(amplitude)
        self.support_radius = self.cutoff

    def density(self, w: np.ndarray) -> np.ndarray:
        r = _norm(w)
        return np.where(r <= self.cutoff, self.amplitude * r ** (-self.d - self.s.two_s), 0.0)


def _ring_profile_norm(s, d: int, k: int) -> float:
    """Integral of |w|^{-d-2s} over the ring B_{2^k} minus B_{2^{k-1}}."""
    two_s = _as_exponent(s).two_s
    lo, hi = 2.0 ** (k - 1), 2.0**k
    return _SPHERE_AREA[d] * (lo**-two_s - hi**-two_s) / two_s


class RingMeasure(Kernel):
    """Prescribed mass per dyadic ring, with a stable-shaped in-ring profile.

    The density on ring k is m_k |w|^{-d-2s} normalized so the ring integral
    equals m_k; weak-* comparisons only see the ring masses at leading order.
    """

    radial = True

    def __init__(self, s, d: int, masses: dict[int, float]):
        super().__init__(s, d)
        self.masses = {int(k): float(m) for k, m in masses.items() if m != 0.0}
        if not all(0.0 < m < math.inf for m in self.masses.values()):
            raise ValueError(f"ring masses must be finite and nonnegative, got {masses}")
        self.support_radius = 2.0 ** max(self.masses) if self.masses else 0.0

    def density(self, w: np.ndarray) -> np.ndarray:
        r = _norm(w)
        out = np.zeros_like(r)
        with np.errstate(divide="ignore"):
            k_of = np.ceil(np.log2(np.where(r > 0, r, 1.0))).astype(int)
        base = r ** (-self.d - self.s.two_s)
        for k, m in self.masses.items():
            sel = (k_of == k) & (r > 0)
            out[sel] = m * base[sel] / _ring_profile_norm(self.s, self.d, k)
        return out


class CustomDensity(Kernel):
    """Arbitrary even density given as a callable on (N, d) arrays.

    Evenness is checked once, at construction, on a fixed probe set: a
    callable whose values at w and -w differ there by more than 1e-12
    relative is rejected.  The density is then fn itself.
    """

    def __init__(self, s, d: int, fn: Callable[[np.ndarray], np.ndarray],
                 support_radius: float = math.inf):
        super().__init__(s, d)
        if not support_radius >= 0.0:
            raise ValueError(f"support_radius must be nonnegative, got {support_radius}")
        probe = np.outer([0.125, 0.75, 2.0, 5.5], [1.0, -0.5, 0.25][: self.d])
        plus, minus = np.asarray(fn(probe), dtype=float), np.asarray(fn(-probe), dtype=float)
        for w, a, b in zip(probe, plus.tolist(), minus.tolist()):
            if not (a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))):
                raise ValueError(f"density must be even: fn({w.tolist()}) = {a!r}, "
                                 f"fn({(-w).tolist()}) = {b!r}")
        self._fn = fn
        self.support_radius = float(support_radius)

    def density(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(w), dtype=float)


class LogPeriodic(Kernel):
    """amplitude (1 + sum_j a_j cos(beta_j ln|w| + phi_j)) |w|^{-d-2s}, with terms (a_j, beta_j, phi_j).

    Pinched between amplitude (1 -+ sum_j |a_j|) |w|^{-d-2s}, with sum_j |a_j| < 1.  It is a sum
    of powers Re c |w|^{-d-z}, (c, z) = (amplitude, 2s) and (amplitude a_j e^{i phi_j}, 2s - i beta_j):
    `symbol` is closed form.
    """

    def __init__(self, s, d: int, terms: Iterable[tuple[float, float, float]], amplitude: float = 1.0):
        super().__init__(s, d)
        self.terms = tuple((float(a), float(beta), float(phi)) for a, beta, phi in terms)
        finite = all(math.isfinite(x) for term in self.terms for x in term)
        if not (finite and sum(abs(a) for a, _, _ in self.terms) < 1.0):
            raise ValueError(f"need finite terms (a_j, beta_j, phi_j) with sum |a_j| < 1, got {self.terms}")
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude}")
        self.amplitude = float(amplitude)

    def powers(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (c, z) of K = sum Re c |w|^{-d-z}, as two arrays."""
        c = self.amplitude * np.array([1.0] + [a * np.exp(1j * phi) for a, _, phi in self.terms])
        z = self.s.two_s - 1j * np.array([0.0] + [beta for _, beta, _ in self.terms])
        return c, z

    def density(self, w: np.ndarray) -> np.ndarray:
        r = np.maximum(_norm(w), 1e-300)
        log_r = np.log(r)
        profile = 1.0 + sum(a * np.cos(beta * log_r + phi) for a, beta, phi in self.terms)
        return self.amplitude * profile * r ** (-self.d - self.s.two_s)


# ---------------------------------------------------------------------------
# Class-membership diagnostics.
# ---------------------------------------------------------------------------


def _ball_integral(K: Kernel, h, r: float, p: float) -> float:
    """int_{B_r} h, h even and of order p at 0, on `ball_rings` ending at K's support edge
    if it lies inside B_r."""
    return kronrod_rings(h, K.d, *ball_rings(min(r, K.support_radius), p, K.d, K.s.two_s), 2, 64)[0]


def _r2(density):
    """w -> |w|^2 density(w)."""
    return lambda w: np.sum(w * w, axis=1) * density(w)


def _half_sphere_moment(K: StableLike, e, p: float) -> float:
    """M(e, p) = int_{theta.e > 0} K(theta) (theta.e / |e|)^p dtheta over the unit sphere.

    Isotropic K: amplitude pi^{(d-1)/2} Gamma((p+1)/2) / Gamma((p+d)/2), the amplitude itself
    in d = 1, where the half sphere is the point e.  Otherwise from `half_sphere_rule`.
    """
    if K.angular is None:
        d = K.d
        return K.amplitude * (math.pi ** ((d - 1) / 2) * math.gamma((p + 1) / 2)
                              / math.gamma((p + d) / 2))
    dirs, wts = half_sphere_rule(e, p)
    return float(np.sum(K.density(dirs) * wts))


def _checked_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    bad = [r for r in radii if not 0.0 < r < math.inf]
    if bad or not radii:
        raise ValueError(f"need positive finite radii, got {bad or radii}")
    return radii


def _homogeneous_part(K: Kernel) -> StableLike | None:
    """The homogeneous kernel that K equals inside its support radius, or None."""
    if K.homogeneous:
        return K
    if isinstance(K, TruncatedStable):
        return StableLike(K.s, K.d, amplitude=K.amplitude)
    return None


def upper_bound_constant(K: Kernel, radii: Sequence[float]) -> float:
    """Sup over tested radii of r^{2s-2} * second moment of K on B_r.

    The certified upper-bound constant on the tested radii.  For K equal to
    a(theta) |w|^{-d-2s} within its support radius R (inf when homogeneous)
    it is min(1, R/r)^{2-2s} int_S a / (2 - 2s) at radius r.
    """
    radii = _checked_radii(radii)
    two_s = K.s.two_s
    core = _homogeneous_part(K)
    if core is not None:
        shrink = min(1.0, K.support_radius / min(radii)) ** (2.0 - two_s)
        return shrink * 2.0 * _half_sphere_moment(core, np.eye(K.d)[0], 0.0) / (2.0 - two_s)

    return max(r ** (two_s - 2.0) * _ball_integral(K, _r2(K.density), r, 2.0 - two_s)
               for r in radii)


def nondegeneracy_constant(K: Kernel, radii: Sequence[float], directions) -> float:
    """Inf over radii and directions e of r^{2s-2} int_{B_r} (w.e)_+^2 K.

    The cone nondegeneracy certificate, of interest for s < 1/2; e is taken as
    given, not normalized.  For K equal to a(theta) |w|^{-d-2s} within its
    support radius R (inf when homogeneous) it is, at radius r,
    min(1, R/r)^{2-2s} |e|^2 int_{theta.e > 0} a(theta) (theta.e / |e|)^2 dtheta / (2 - 2s).
    """
    radii = _checked_radii(radii)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.ndim != 2 or dirs.shape[1] != K.d or len(dirs) == 0:
        raise ValueError(f"need directions as rows of length {K.d}, got {dirs.tolist()}")
    zero = [e.tolist() for e in dirs if not np.any(e)]
    if zero:
        raise ValueError(f"directions must be nonzero, got {zero[0]}")
    two_s = K.s.two_s
    core = _homogeneous_part(K)
    if core is not None:
        shrink = min(1.0, K.support_radius / max(radii)) ** (2.0 - two_s)
        return shrink * min(float(e @ e) * _half_sphere_moment(core, e, 2.0)
                            for e in dirs) / (2.0 - two_s)
    # (w.e)_+^2 symmetrized is (w.e)^2 / 2
    return min(r ** (two_s - 2.0) * _ball_integral(K, lambda w: 0.5 * (w @ e) ** 2 * K.density(w),
                                                   r, 2.0 - two_s)
               for r in radii for e in dirs)


def coercivity_ratio(K: Kernel, phi: Callable[[np.ndarray], np.ndarray], R: float) -> float:
    """Energy of phi under K on B_R over the stable energy of K's order s on B_{R/2}.

    Both energies are double integrals of |phi(v') - phi(v)|^2 against the
    kernel of the difference; the diagonal singularity is tamed by the
    squared increment, so the w-integral is of order 2 - 2s at 0 and takes its
    core cut from `ball_rings`.  The v-integrand is bounded and needs no cut:
    its rings end at R 2^-k, k = 0..6, and the innermost starts at 0.  Both
    integrands are symmetrized for the half sphere of `kronrod_rings`.  A
    certificate for the given phi only.

    Accurate only to about 5e-4 relative: the v-integrand sums a fixed w-grid
    under the indicator |v + w| <= R, so it jumps as nodes cross that sphere
    and no v rule converges on it.
    """
    def energy(kernel_density, two_s: float, R_dom: float) -> float:
        rings = ball_rings(2.0 * R_dom, 2.0 - two_s, K.d, two_s)
        half, wts = map(np.concatenate, zip(*_ring_nodes(K.d, *rings, 64, 32)))
        # both signs of w, each with half the doubled half-sphere weight: the
        # integrand is not even in w
        w_pts = np.concatenate([half, -half])
        dens = 0.5 * np.tile(kernel_density(half) * wts, 2)

        def inner(v):
            # int |phi(v + w) - phi(v)|^2 K(w) over w with |v + w| <= R_dom
            tgt = v + w_pts
            inside = _norm(tgt) <= R_dom
            diff = np.zeros(len(w_pts))
            diff[inside] = phi(tgt[inside]) - phi(v[None, :])[0]
            return float(np.sum(diff**2 * dens))

        hi = R_dom * np.ldexp(1.0, np.arange(-6, 1))
        return kronrod_rings(lambda vs: np.array([0.5 * (inner(v) + inner(-v)) for v in vs]),
                             K.d, np.r_[0.0, hi[:-1]], hi, 2, 64)[0]

    two_s = K.s.two_s
    num = energy(K.density, two_s, R)
    ref = energy(lambda w: _norm(w) ** (-K.d - two_s), two_s, R / 2.0)
    if ref == 0.0:
        raise ValueError(f"reference energy vanished (phi constant?): got {ref} on the ball of radius {R / 2.0}")
    return num / ref


# ---------------------------------------------------------------------------
# Fourier symbol.
# ---------------------------------------------------------------------------

def _power_symbol_constant(z: np.ndarray, d: int) -> np.ndarray:
    """C_d(z) = int (1 - cos w_1) |w|^{-d-z} dw = pi^{d/2} Gamma(1 - z/2) / ((z/2) 2^z Gamma((d+z)/2)).

    The stable constant of Di Nezza, Palatucci and Valdinoci, Hitchhiker's guide to the
    fractional Sobolev spaces (arXiv:1104.4345), section 3, continued analytically to
    complex z with 0 < Re z < 2.
    """
    return math.pi ** (d / 2) * gamma(1.0 - z / 2) / (z / 2 * 2.0**z * gamma((d + z) / 2))


# Taylor coefficients of (x - sin x) / x^3 and of (1 - J0(x)) / x^2 in x^2, highest first:
# seven terms leave a relative error below 1e-18 for |x| < 0.5
_PHI_SERIES = [(-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(7, 0, -1)]
_J0_SERIES = [(-1) ** (k + 1) / (4**k * math.factorial(k) ** 2) for k in range(7, 0, -1)]


def _phi(x: np.ndarray) -> np.ndarray:
    """x - sin x, by its Taylor series for |x| < 0.5, where the difference loses digits."""
    x2 = x * x
    return np.where(np.abs(x) < 0.5, x * x2 * np.polyval(_PHI_SERIES, x2), x - np.sin(x))


def _sphere_defect(d: int, rho: np.ndarray) -> np.ndarray:
    """(|S^{d-1}| - sigma_d(rho)) / 2 for rho > 0, sigma_d(rho) = int_{S^{d-1}} cos(rho theta_1) dtheta.

    sigma_d is 2 cos rho, 2 pi J0(rho) and 4 pi sin(rho) / rho in d = 1, 2, 3 (Stein and Weiss,
    Introduction to Fourier Analysis on Euclidean Spaces, ch. IV), so the defect is 2 sin^2(rho/2),
    pi (1 - J0(rho)) and 2 pi (rho - sin rho) / rho: by their series below rho = 0.5.
    """
    if d == 1:
        return 2.0 * np.sin(0.5 * rho) ** 2
    if d == 2:
        x = rho * rho
        return math.pi * np.where(rho < 0.5, x * np.polyval(_J0_SERIES, x), 1.0 - j0(rho))
    return 2.0 * math.pi * _phi(rho) / rho


def _finite_support_integral(K: Kernel, h, q: float, q2: float, e) -> float:
    """int_{|w| <= R} h(w) K(w) dw, R = K.support_radius, on `ball_rings` from a cut eps, for an
    even h of frequency about q with h(w) = q2 (e.w)^2 / (2 |e|^2) + O(|w|^4) at 0.

    The integrand is of order 2 - 2s at 0 below 1/q.  Radial panels are about a wavelength
    wide, with 15 Gauss-Kronrod nodes.  For a radial K, h is given on (N, 1) radii r by
    int_{S^{d-1}} h(r theta) dtheta / 2, which in d = 1 is h(r) itself: one radial integral,
    O(q R) nodes in every d.  Otherwise a ring of outer radius hi has
    64 + 8 q hi angles (d = 2) or 8 + q hi polar times twice as many azimuthal nodes (d = 3).
    If K equals a(theta) |w|^{-d-2s} near 0, B_eps adds its leading term,
    q2 eps^{2-2s} / (2 - 2s) times the angular moment of order 2 about e: near s = 1 the cut
    stops at the overflow floor.
    """
    R, d, two_s = K.support_radius, K.d, K.s.two_s
    if d > 1 and not K.radial and R * q > 4096.0:
        raise ValueError(f"frequency too high for the finite-support quadrature: support radius {R} times "
                         f"|xi| = {q} is {R * q}, above 4096")
    lo, hi = ball_rings(R, 2.0 - two_s, d, two_s, q)
    n_pan = np.ceil((hi - lo) * q / (2.0 * math.pi)).astype(np.int64)
    if K.radial:
        e1 = np.eye(1, d)
        val = kronrod_rings(lambda r: h(r) * K.density(r * e1) * r[:, 0] ** (d - 1), 1, lo, hi,
                            n_pan, 64)[0]
    else:
        n_ang = 64 + 8 * (d > 1) * np.ceil(q * hi).astype(np.int64)
        val = kronrod_rings(lambda w: h(w) * K.density(w), d, lo, hi, n_pan, n_ang)[0]
    core = _homogeneous_part(K)
    if core is None or not len(lo):
        return val
    return val + q2 * lo[0] ** (2.0 - two_s) / (2.0 - two_s) * _half_sphere_moment(core, e, 2.0)


def _no_symbol(K: Kernel) -> NotImplementedError:
    """The error for a kernel that `symbol` has no rule for."""
    return NotImplementedError(
        f"symbol needs a homogeneous, log-periodic or compactly supported kernel, got "
        f"{type(K).__name__} in d = {K.d} with support radius {K.support_radius}")


def symbol(K: Kernel, xi) -> float:
    """Fourier multiplier psi(xi) = int (1 - cos(xi.w)) K(w) dw.

    Even, vanishes at 0, exact to rounding where a closed form exists.  A homogeneous kernel
    is C_1(2s) |xi|^{2s} times one xi-aligned angular moment, in closed form when isotropic
    and from `half_sphere_rule` otherwise; a `LogPeriodic` one, a sum of powers
    Re c |w|^{-d-z}, is sum Re c C_d(z) |xi|^z.  A compactly supported kernel goes through
    `quadrature.kronrod_rings`, on wavelength-wide panels of dyadic rings out to the support
    edge: a radial one as the single radial integral
    int_0^R (|S^{d-1}| - sigma_d(|xi| r)) k(r) r^{d-1} dr of `_sphere_defect`, any other on
    rings of directions, which in d >= 2 take R |xi| <= 4096.  Any other kernel raises
    NotImplementedError.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (K.d,):
        raise ValueError(f"frequency dimension mismatch: got shape {xi.shape} for a kernel of dimension {K.d}")
    qn = float(np.linalg.norm(xi))
    if qn == 0.0:
        return 0.0
    if not qn < math.inf:
        raise ValueError(f"need a frequency of finite norm, got {xi.tolist()}")
    two_s = K.s.two_s
    if K.homogeneous:
        # C_1(2s) / 2 = int_0^inf (1 - cos u) u^{-1-2s} du = pi / (2 Gamma(1+2s) sin(pi s))
        half_c1 = math.pi / (2.0 * math.gamma(1.0 + two_s) * math.sin(math.pi * K.s.s))
        return 2.0 * half_c1 * qn**two_s * _half_sphere_moment(K, xi, two_s)
    if isinstance(K, LogPeriodic):
        c, z = K.powers()
        return float(np.sum(c * _power_symbol_constant(z, K.d) * qn**z).real)
    if math.isfinite(K.support_radius):
        # 1 - cos(xi.w) = 2 sin^2(xi.w / 2), without the cancellation near xi.w = 0; a radial
        # kernel takes its average over each sphere |w| = r
        h = ((lambda r: _sphere_defect(K.d, qn * r[:, 0])) if K.radial
             else (lambda w: 2.0 * np.sin(0.5 * (w @ xi)) ** 2))
        return _finite_support_integral(K, h, qn, qn**2, xi)
    raise _no_symbol(K)


# ---------------------------------------------------------------------------
# Kernel families and the Hölder modulus.
# ---------------------------------------------------------------------------


class KernelFamily:
    """z-dependent kernel K_z = a(z) * K0 with a positive modulation a."""

    def __init__(self, base: Kernel, modulation: Callable[[Point], float]):
        self.base = base
        self.modulation = modulation

    def kernel_at(self, z: Point) -> Kernel:
        """a(z) K0: a stable, truncated or log-periodic base keeps its class, with amplitude a(z)
        times its own, and a ring base with its masses times a(z), so each keeps its closed forms;
        any other base becomes a `CustomDensity`."""
        amp = float(self.modulation(z))
        if not (math.isfinite(amp) and amp >= 0.0):
            raise ValueError(f"modulation must be finite and nonnegative, got {amp}")
        base = self.base
        if isinstance(base, StableLike):
            return StableLike(base.s, base.d, base.angular, amp * base.amplitude)
        if isinstance(base, TruncatedStable):
            return TruncatedStable(base.s, base.d, base.cutoff, amp * base.amplitude)
        if isinstance(base, LogPeriodic):
            return LogPeriodic(base.s, base.d, base.terms, amp * base.amplitude)
        if isinstance(base, RingMeasure):
            return RingMeasure(base.s, base.d, {k: amp * m for k, m in base.masses.items()})
        return CustomDensity(base.s, base.d, lambda w, a=amp: a * base.density(np.atleast_2d(w)),
                             support_radius=base.support_radius)


def holder_modulus(
    F: KernelFamily,
    z_pairs: Sequence[tuple[Point, Point]],
    radii: Sequence[float],
    alpha: float,
    s=None,
) -> dict:
    """Certified Hölder modulus of the family on the tested pairs and radii.

    Returns the sup of r^{2s-2} d_l(z1,z2)^{-alpha} int_{B_r} |K_z1 - K_z2| |w|^2,
    together with the derived low-order and tail moments of the difference,
    each reported as a constant multiple of A0 * d_l^alpha.  The core cuts take the
    orders of the integrands at 0: 2 - 2s_F for the second moment and
    2s + alpha - 2s_F for the low moment, with s_F the family's own order.  The
    low moment diverges, and raises, when 2s + alpha <= 2s_F.
    """
    base = F.base
    s = base.s if s is None else _as_exponent(s)
    two_s = s.two_s
    low_order = alpha + (two_s - base.s.two_s)
    if low_order <= 0:
        raise ValueError(f"the low moment diverges: 2s + alpha <= 2s_F at s={s.s}, alpha={alpha}, "
                         f"s_F={base.s.s}")
    A0 = 0.0
    c_low = 0.0
    c_tail = 0.0
    for z1, z2 in z_pairs:
        dl = dist("left", z1, z2, s)
        if dl == 0.0:
            raise ValueError(f"pairs must be distinct, got {z1} twice")
        K1, K2 = F.kernel_at(z1), F.kernel_at(z2)
        diff = lambda w: np.abs(K1.density(w) - K2.density(w))
        for r in radii:
            mom = _ball_integral(base, _r2(diff), float(r), 2.0 - base.s.two_s)
            A0 = max(A0, float(r) ** (two_s - 2.0) * mom / dl**alpha)
        # Low-order moment on the unit ball and the mass of the 30 rings outside it.
        low = _ball_integral(base, lambda w: _norm(w) ** (two_s + alpha) * diff(w),
                             1.0, low_order)
        c_low = max(c_low, low / dl**alpha)
        rings = np.reshape(list(dyadic_rings(1.0, range(30), base.support_radius)), (-1, 2)).T
        tail = kronrod_rings(diff, base.d, *rings, 2, 64)[0]
        c_tail = max(c_tail, tail / dl**alpha)
    scale = A0 if A0 > 0 else 1.0
    return {
        "A0": A0,
        "low_moment_constant": c_low / scale,
        "tail_mass_constant": c_tail / scale,
        "alpha": float(alpha),
    }


def ring_moments(K: Kernel, k_range: Iterable[int]) -> dict[int, tuple[float, float]]:
    """Per dyadic ring C_k = B_{2^k} minus B_{2^{k-1}}: (mass, second moment)."""
    out = {}
    for k in k_range:
        lo, hi = 2.0 ** (k - 1), min(2.0**k, K.support_radius)
        out[int(k)] = ((kronrod_rings(K.density, K.d, lo, hi, 2, 64)[0],
                        kronrod_rings(_r2(K.density), K.d, lo, hi, 2, 64)[0])
                       if lo < hi else (0.0, 0.0))
    return out


@dataclass(frozen=True)
class TestFunction:
    """Continuous test function supported in the annulus [lo, hi], lo > 0."""

    __test__ = False  # not a pytest collection target despite the name

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError(f"support must stay away from the origin, got lo={self.lo}, hi={self.hi}")


def weak_star_gap(K1: Kernel, K2: Kernel, test_functions: Sequence[TestFunction],
                  n_r: int = 64, n_ang: int = 64) -> float:
    """Max over test functions of |int phi K1 - int phi K2|.

    A pseudometric witnessing weak-* convergence on the tested family.  Both
    densities are even, so each phi is symmetrized for `kronrod_rings`, which in
    d >= 2 takes n_ang a positive multiple of 8.  Each support annulus is cut into
    ceil(n_r / 15) panels of 15 Gauss-Kronrod radii, so at least n_r radial nodes.

    No error estimate is returned, and a panel wider than a wavelength of the
    integrand can put the gap off by orders of magnitude: at the default
    n_r = 64, the density (1 + sin(64|w|)/2)|w|^-2 against the stable one at
    s = 1/2, on Gaussian ring bumps in [0.25, 4], gives 0.0084 where n_r = 256
    gives 3.57e-5.
    """
    gap = 0.0
    for tf in test_functions:
        def h(w, fn=tf.fn):
            even = 0.5 * (np.asarray(fn(w), dtype=float) + np.asarray(fn(-w), dtype=float))
            return even * (K1.density(w) - K2.density(w))

        gap = max(gap, abs(kronrod_rings(h, K1.d, tf.lo, tf.hi, math.ceil(n_r / 15), n_ang)[0]))
    return gap


def ellipticity_report(K: Kernel) -> dict:
    """Side-by-side diagnostics: Lambda, lambda, coercivity table, ring moments.

    Lambda and lambda are taken at the radii 0.25, 1 and 4, lambda over the directions +-e_i;
    the coercivity ratios on R = 1 for phi = v_1 and phi = exp(-|v|^2); the ring moments on
    the rings k = -3..3.
    """
    radii = (0.25, 1.0, 4.0)
    eye = np.eye(K.d)
    phis = [lambda v: v[:, 0], lambda v: np.exp(-np.sum(v * v, axis=1))]
    return {
        "Lambda": upper_bound_constant(K, radii),
        "lambda_nondeg": nondegeneracy_constant(K, radii, np.vstack([eye, -eye])),
        "coercivity": [coercivity_ratio(K, phi, 1.0) for phi in phis],
        "ring_moments": ring_moments(K, range(-3, 4)),
    }
