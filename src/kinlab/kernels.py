"""Kernel representations and ellipticity-class diagnostics.

Kernels are nonnegative even densities K(w) on R^d minus the origin,
comparable to the stable density |w|^{-d-2s}.  This module certifies (on
tested data) the defining bounds of the ellipticity class: the second-moment
upper bound, the cone nondegeneracy used when s < 1/2, a sampled coercivity
ratio, Fourier symbols, the Hölder modulus of kernel families, and the
dyadic-ring bookkeeping behind weak-* convergence arguments.  For a homogeneous
a(theta) |w|^{-d-2s}, the symbol and both constants are a closed-form radial
power times one angular moment from `quadrature.half_sphere_rule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate

from .group import Point, ScalingExponent, _as_exponent, dist
from .quadrature import (
    _SPHERE_AREA,
    annulus_nodes,
    ball_nodes,
    dyadic_rings,
    half_sphere_rule,
    integrate as qintegrate,
    panel_rings,
    ring_sum,
)

__all__ = [
    "Kernel",
    "StableLike",
    "TruncatedStable",
    "RingMeasure",
    "CustomDensity",
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

class Kernel:
    """Base class: an even nonnegative density with a known order s."""

    def __init__(self, s, d: int):
        self.s = _as_exponent(s)
        self.d = int(d)
        if self.d not in (1, 2, 3):
            raise ValueError("supported dimensions: 1, 2, 3")

    def density(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    #: radius beyond which the density vanishes identically (inf if none)
    support_radius: float = math.inf

    #: exact positive homogeneity of degree -(d+2s), when it holds
    homogeneous: bool = False


def _even_angular(a: Callable[[np.ndarray], np.ndarray]):
    def sym(dirs: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(a(dirs), dtype=float) + np.asarray(a(-dirs), dtype=float))

    return sym


class StableLike(Kernel):
    """amplitude * a(w/|w|) * |w|^{-d-2s} with an even angular density a.

    The angular density is symmetrized at evaluation time, so any
    nonnegative callable is accepted.
    """

    homogeneous = True

    def __init__(self, s, d: int, angular: Callable | None = None, amplitude: float = 1.0):
        super().__init__(s, d)
        if amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        self.amplitude = float(amplitude)
        self._angular = _even_angular(angular) if angular is not None else None

    def density(self, w: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(w, axis=-1)
        out = self.amplitude * r ** (-self.d - self.s.two_s)
        if self._angular is not None:
            out = out * self._angular(w / r[..., None])
        return out


class TruncatedStable(Kernel):
    """|w|^{-d-2s} restricted to the ball of a given cutoff radius."""

    def __init__(self, s, d: int, cutoff: float = 1.0, amplitude: float = 1.0):
        super().__init__(s, d)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = float(cutoff)
        self.amplitude = float(amplitude)
        self.support_radius = self.cutoff

    def density(self, w: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(w, axis=-1)
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

    def __init__(self, s, d: int, masses: dict[int, float]):
        super().__init__(s, d)
        self.masses = {int(k): float(m) for k, m in masses.items() if m != 0.0}
        if any(m < 0 for m in self.masses.values()):
            raise ValueError("ring masses must be nonnegative")
        self.support_radius = 2.0 ** max(self.masses) if self.masses else 0.0

    def density(self, w: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(w, axis=-1)
        out = np.zeros_like(r)
        with np.errstate(divide="ignore"):
            k_of = np.ceil(np.log2(np.where(r > 0, r, 1.0))).astype(int)
        base = r ** (-self.d - self.s.two_s)
        for k, m in self.masses.items():
            sel = (k_of == k) & (r > 0)
            out[sel] = m * base[sel] / _ring_profile_norm(self.s, self.d, k)
        return out


class CustomDensity(Kernel):
    """Arbitrary even density given as a callable on (N, d) arrays."""

    def __init__(self, s, d: int, fn: Callable[[np.ndarray], np.ndarray],
                 support_radius: float = math.inf, label: str = "custom"):
        super().__init__(s, d)
        self._fn = fn
        self.support_radius = float(support_radius)
        self.label = label

    def density(self, w: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(self._fn(w), dtype=float) + np.asarray(self._fn(-w), dtype=float))


# ---------------------------------------------------------------------------
# Class-membership diagnostics.
# ---------------------------------------------------------------------------


def _ball_nodes(K: Kernel, r: float):
    """Nodes for B_r, whose rings end at the support edge if it lies inside B_r."""
    return ball_nodes(K.d, min(r, K.support_radius) if K.support_radius > 0 else r)


def _half_sphere_moment(K: Kernel, e, p: float) -> float:
    """M(e, p) = int_{theta.e > 0} K(theta) (theta.e / |e|)^p dtheta over the unit sphere."""
    dirs, wts = half_sphere_rule(e, p)
    return qintegrate(K.density(dirs), dirs, wts)


def _checked_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    bad = [r for r in radii if not 0.0 < r < math.inf]
    if bad or not radii:
        raise ValueError(f"need positive finite radii, got {bad or radii}")
    return radii


def upper_bound_constant(K: Kernel, radii: Sequence[float]) -> float:
    """Sup over tested radii of r^{2s-2} * second moment of K on B_r.

    The certified upper-bound constant on the tested radii.  For a homogeneous
    K = a(theta) |w|^{-d-2s} it is int_S a / (2 - 2s) at every radius.
    """
    radii = _checked_radii(radii)
    two_s = K.s.two_s
    if K.homogeneous:
        return 2.0 * _half_sphere_moment(K, np.eye(K.d)[0], 0.0) / (2.0 - two_s)

    def moment(r):
        pts, wts = _ball_nodes(K, r)
        return r ** (two_s - 2.0) * qintegrate(np.sum(pts * pts, axis=1) * K.density(pts), pts, wts)

    return max(moment(r) for r in radii)


def nondegeneracy_constant(K: Kernel, radii: Sequence[float], directions) -> float:
    """Inf over radii and directions e of r^{2s-2} int_{B_r} (w.e)_+^2 K.

    The cone nondegeneracy certificate, of interest for s < 1/2; e is taken as
    given, not normalized.  For a homogeneous K it is, at every radius,
    |e|^2 int_{theta.e > 0} a(theta) (theta.e / |e|)^2 dtheta / (2 - 2s).
    """
    radii = _checked_radii(radii)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.ndim != 2 or dirs.shape[1] != K.d or len(dirs) == 0:
        raise ValueError(f"need directions as rows of length {K.d}, got {dirs.tolist()}")
    zero = [e.tolist() for e in dirs if not np.any(e)]
    if zero:
        raise ValueError(f"directions must be nonzero, got {zero[0]}")
    two_s = K.s.two_s
    if K.homogeneous:
        return min(float(e @ e) * _half_sphere_moment(K, e, 2.0) for e in dirs) / (2.0 - two_s)
    best = math.inf
    for r in radii:
        pts, wts = _ball_nodes(K, r)
        dens = K.density(pts)
        for e in dirs:
            proj = np.clip(pts @ e, 0.0, None)
            best = min(best, r ** (two_s - 2.0) * qintegrate(proj**2 * dens, pts, wts))
    return best


def coercivity_ratio(K: Kernel, phi: Callable[[np.ndarray], np.ndarray], R: float, s=None) -> float:
    """Energy of phi under K on B_R over the stable energy on B_{R/2}.

    Both energies are double integrals of |phi(v') - phi(v)|^2 against the
    kernel of the difference; the diagonal singularity is tamed by the
    squared increment.  A certificate for the given phi only.
    """
    s = K.s if s is None else _as_exponent(s)

    def energy(kernel_density, R_dom: float) -> float:
        v_pts, v_wts = ball_nodes(K.d, R_dom, k_lo=-6)
        w_pts, w_wts = ball_nodes(K.d, 2.0 * R_dom, k_lo=-30)
        dens = kernel_density(w_pts)
        phiv = phi(v_pts)
        total = 0.0
        for v, wv, pv in zip(v_pts, v_wts, phiv):
            tgt = v[None, :] + w_pts
            inside = np.linalg.norm(tgt, axis=1) <= R_dom
            diff = np.zeros(len(w_pts))
            diff[inside] = phi(tgt[inside]) - pv
            total += wv * float(np.sum(diff**2 * dens * w_wts))
        return total

    num = energy(K.density, R)
    ref = energy(lambda w: np.linalg.norm(w, axis=1) ** (-K.d - s.two_s), R / 2.0)
    if ref == 0.0:
        raise ValueError("reference energy vanished (phi constant?)")
    return num / ref


# ---------------------------------------------------------------------------
# Fourier symbol.
# ---------------------------------------------------------------------------

def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.sin(0.5 * x) ** 2


def _symbol_1d(K: Kernel, xi: np.ndarray, tol: float) -> float:
    """psi(q) = 2 int_0^inf (1 - cos(q r)) g(r) dr for the even radial slice g of an
    infinite-support kernel, q = |xi| > 0; tol is the absolute accuracy asked of QAWF.

    The near field is the finite-support quadrature on |w| <= 1.  Past 1 the
    oscillation is split off for QAWF, and the flat part runs over dyadic rings out
    to 2^k_hi, where 2^{-2s k_hi} <= 1e-16 min(q, 1)^{2s}, a share of psi of about
    1e-16 for a density comparable to |w|^{-1-2s}.  The cut is capped at 2^511, so
    that |w|^2 stays finite; for s < 0.052 the cap leaves a share of about 2^{-1022 s}.
    """
    q = abs(float(xi[0]))
    k_hi = min(math.ceil(53.15 / K.s.two_s - math.log2(min(q, 1.0))), 511)
    lo = np.ldexp(1.0, np.arange(k_hi))
    flat = panel_rings(K.density, 1, lo, 2.0 * lo, 1, 64, 32)
    osc, _ = integrate.quad(lambda r: float(K.density(np.array([[r]]))[0]), 1.0, np.inf,
                            weight="cos", wvar=q, epsabs=tol * 1e-2, limlst=500)
    return _symbol_finite_support(K, xi, 1.0) + flat - 2.0 * osc


def _radial_symbol_constant(s: ScalingExponent) -> float:
    """C(2s) = int_0^inf (1 - cos u) u^{-1-2s} du = pi / (2 Gamma(1+2s) sin(pi s)).

    Closed form from Di Nezza, Palatucci and Valdinoci, Hitchhiker's guide to
    the fractional Sobolev spaces (arXiv:1104.4345), section 3.
    """
    return math.pi / (2.0 * math.gamma(1.0 + s.two_s) * math.sin(math.pi * s.s))


def _symbol_finite_support(K: Kernel, xi: np.ndarray, R: float) -> float:
    """int_{|w| <= R} (1 - cos(xi.w)) K(w) dw on dyadic rings from the core cut to R.

    The cut leaves a core share (max(|xi|, 1/R) eps)^{2-2s} <= 1e-16 of the integral,
    but stops where 256 |w|^{-d-2s} would overflow, so that a factor of up to 256
    on the density stays finite.  Radial panels are about a wavelength
    wide, with 16 Gauss nodes; a ring of outer radius hi has 64 + 8 |xi| hi angles
    (d = 2) or 8 + |xi| hi polar times twice as many azimuthal nodes (d = 3).
    """
    qn = float(np.linalg.norm(xi))
    d, two_s = K.d, K.s.two_s
    if d > 1 and R * qn > 4096.0:
        raise ValueError("frequency too high for the finite-support quadrature")
    k_lo = max(math.floor(math.log2(1e-16) / (2.0 - two_s) - math.log2(max(qn, 1.0 / R))),
               math.ceil((8.0 - math.log2(np.finfo(float).max)) / (d + two_s)))
    lo = np.ldexp(1.0, np.arange(k_lo, math.frexp(R)[1]))
    lo = lo[lo < R]
    hi = np.minimum(2.0 * lo, R)
    n_pan = np.ceil((hi - lo) * qn / (2.0 * math.pi)).astype(np.int64)
    n_ang = 64 + 8 * (d > 1) * np.ceil(qn * hi).astype(np.int64)
    return panel_rings(lambda w: _one_minus_cos(w @ xi) * K.density(w), d, lo, hi, n_pan, n_ang, 16)


def symbol(K: Kernel, xi, tol: float = 1e-8) -> float:
    """Fourier multiplier psi(xi) = int (1 - cos(xi.w)) K(w) dw.

    Even, vanishes at 0.  A homogeneous kernel factors exactly into the closed-form
    C(2s) |xi|^{2s} times one xi-aligned angular moment (`half_sphere_rule`).  Every other
    kernel goes through `quadrature.panel_rings`, on wavelength-wide panels of
    dyadic rings whose cuts come from s and |xi|: compactly supported ones out
    to the support edge, the remaining d = 1 kernels out to |w| = 1 and, past
    1, over flat rings plus QAWF for the oscillation; tol is the accuracy asked
    of QAWF, and matters for no other kernel.  In d >= 2 a kernel must be
    homogeneous or compactly supported: a general infinite tail would need
    oscillatory machinery.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (K.d,):
        raise ValueError("frequency dimension mismatch")
    qn = float(np.linalg.norm(xi))
    if qn == 0.0:
        return 0.0
    if K.homogeneous:
        two_s = K.s.two_s
        return 2.0 * _radial_symbol_constant(K.s) * qn**two_s * _half_sphere_moment(K, xi, two_s)
    if math.isfinite(K.support_radius):
        return _symbol_finite_support(K, xi, K.support_radius)
    if K.d == 1:
        return _symbol_1d(K, xi, tol)
    raise NotImplementedError(
        "symbol in d >= 2 requires a homogeneous or compactly supported kernel"
    )


# ---------------------------------------------------------------------------
# Kernel families and the Hölder modulus.
# ---------------------------------------------------------------------------


class KernelFamily:
    """z-dependent kernel K_z = a(z) * K0 with a positive modulation a."""

    def __init__(self, base: Kernel, modulation: Callable[[Point], float]):
        self.base = base
        self.modulation = modulation

    def kernel_at(self, z: Point) -> Kernel:
        amp = float(self.modulation(z))
        if amp < 0:
            raise ValueError("modulation must be nonnegative")
        base = self.base
        return CustomDensity(
            base.s, base.d, lambda w, a=amp: a * base.density(np.atleast_2d(w)),
            support_radius=base.support_radius, label="modulated",
        )


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
    each reported as a constant multiple of A0 * d_l^alpha.
    """
    s = F.base.s if s is None else _as_exponent(s)
    two_s = s.two_s
    A0 = 0.0
    c_low = 0.0
    c_tail = 0.0
    for z1, z2 in z_pairs:
        dl = dist("left", z1, z2, s)
        if dl == 0.0:
            raise ValueError("pairs must be distinct")
        K1, K2 = F.kernel_at(z1), F.kernel_at(z2)
        for r in radii:
            pts, wts = ball_nodes(F.base.d, float(r))
            diff = np.abs(K1.density(pts) - K2.density(pts))
            mom = qintegrate(np.sum(pts * pts, axis=1) * diff, pts, wts)
            A0 = max(A0, float(r) ** (two_s - 2.0) * mom / dl**alpha)
        # Low-order moment on the unit ball and total mass outside it.
        pts, wts = ball_nodes(F.base.d, 1.0)
        diff = np.abs(K1.density(pts) - K2.density(pts))
        rr = np.linalg.norm(pts, axis=1)
        low = qintegrate(rr ** (two_s + alpha) * diff, pts, wts)
        c_low = max(c_low, low / dl**alpha)

        def tail_ring(lo, hi):
            pts, wts = annulus_nodes(F.base.d, lo, hi)
            return qintegrate(np.abs(K1.density(pts) - K2.density(pts)), pts, wts)

        tail = ring_sum(tail_ring, dyadic_rings(1.0, range(30), F.base.support_radius))
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
        if lo >= hi:
            out[int(k)] = (0.0, 0.0)
            continue
        pts, wts = annulus_nodes(K.d, lo, hi)
        dens = K.density(pts)
        mass = qintegrate(dens, pts, wts)
        mom = qintegrate(np.sum(pts * pts, axis=1) * dens, pts, wts)
        out[int(k)] = (mass, mom)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Continuous test function supported in the annulus [lo, hi], lo > 0."""

    __test__ = False  # not a pytest collection target despite the name

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError("support must stay away from the origin")


def weak_star_gap(K1: Kernel, K2: Kernel, test_functions: Sequence[TestFunction],
                  n_r: int = 64, n_ang: int = 64) -> float:
    """Max over test functions of |int phi K1 - int phi K2|.

    A pseudometric witnessing weak-* convergence on the tested family.
    """
    gap = 0.0
    for tf in test_functions:
        pts, wts = annulus_nodes(K1.d, tf.lo, tf.hi, n_r=n_r, n_ang=n_ang)
        vals = np.asarray(tf.fn(pts), dtype=float)
        gap = max(gap, abs(qintegrate(vals * (K1.density(pts) - K2.density(pts)), pts, wts)))
    return gap


def ellipticity_report(
    K: Kernel,
    radii: Sequence[float] = (0.25, 1.0, 4.0),
    directions=None,
    phis: Sequence[Callable] | None = None,
    R: float = 1.0,
) -> dict:
    """Side-by-side diagnostics: Lambda, lambda, coercivity table, ring moments."""
    if directions is None:
        eye = np.eye(K.d)
        directions = np.vstack([eye, -eye])
    if phis is None:
        phis = [lambda v: v[:, 0], lambda v: np.exp(-np.sum(v * v, axis=1))]
    report = {
        "Lambda": upper_bound_constant(K, radii),
        "lambda_nondeg": nondegeneracy_constant(K, radii, directions),
        "coercivity": [coercivity_ratio(K, phi, R) for phi in phis],
        "ring_moments": ring_moments(K, range(-3, 4)),
    }
    return report
