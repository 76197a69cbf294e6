"""Quadrature rules for singular radial kernels in dimensions 1 to 3.

Integrals against densities comparable to |w|^{-d-2s} are split over dyadic
rings a 2^k <= |w| <= a 2^{k+1} so every panel sees a smooth integrand:
`dyadic_rings` yields the ring edges, clipped at the support edge, and
`ring_sum` adds one caller-supplied term per ring with a relative or
absolute stop.  Each ring carries a Gauss-Legendre rule in the radius and,
for d > 1, a product rule on the sphere.  Oscillatory integrands over wide
rings use fixed-width radial panels instead of one dyadic panel, on half
the sphere for even integrands.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gauss_legendre_panel",
    "annulus_nodes",
    "ball_nodes",
    "dyadic_rings",
    "panel_annulus_nodes",
    "ring_sum",
    "integrate",
    "sphere_rule",
]

# Solid angle of the unit sphere, indexed by dimension.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_DEFAULT_NR = 32
_DEFAULT_RING_LO = -40  # inner dyadic cutoff exponent relative to the outer radius
_BLOCK_NODES = 2**18  # nodes built at once by the streaming integrators


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def dyadic_rings(a: float, ks, edge: float = math.inf):
    """Edges (a 2^k, min(a 2^{k+1}, edge)) for k in ks, up to the first ring at or past edge.

    Doubling is exact in floating point, so every edge is an exact multiple of a.
    """
    for k in ks:
        lo = a * 2.0**k
        if lo >= edge:
            return
        yield lo, min(a * 2.0 ** (k + 1), edge)


def ring_sum(term, rings, rtol: float = 0.0, atol: float = 0.0) -> float:
    """Sum of term(lo, hi) over rings, stopping after a term with |term| < atol + rtol |total|.

    The test is strict, so with both tolerances 0 every ring counts.
    """
    total = 0.0
    for lo, hi in rings:
        inc = term(lo, hi)
        total += inc
        if abs(inc) < atol + rtol * abs(total):
            break
    return total


def gauss_legendre_panel(a: float, b: float, n: int = _DEFAULT_NR):
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def sphere_rule(d: int, n_ang: int = 64):
    """Unit-sphere directions and weights summing to the sphere area.

    d=1: the two signs.  d=2: trapezoid rule in the angle, which is
    spectrally accurate for smooth periodic densities.  d=3: Gauss in the
    polar cosine times trapezoid in the azimuth.  For n_ang a multiple of
    8, the second half of the directions are the antipodes of the first half.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        th = 2.0 * math.pi * np.arange(n_ang) / n_ang
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        return dirs, np.full(n_ang, 2.0 * math.pi / n_ang)
    if d == 3:
        n_mu = max(4, n_ang // 8)
        n_phi = max(8, n_ang // 4)
        mu, wmu = _leggauss(n_mu)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        wphi = 2.0 * math.pi / n_phi
        sin_th = np.sqrt(1.0 - mu**2)
        dirs = np.column_stack([np.outer(sin_th, np.cos(phi)).ravel(),
                                np.outer(sin_th, np.sin(phi)).ravel(), np.repeat(mu, n_phi)])
        return dirs, np.repeat(wmu * wphi, n_phi)
    raise ValueError(f"unsupported dimension {d}")


def _radial_to_nodes(rr, wr, dirs, wd):
    d = dirs.shape[1]
    pts = rr[:, None, None] * dirs[None, :, :]
    wts = (wr * rr ** (d - 1))[:, None] * wd[None, :]
    return pts.reshape(-1, d), wts.ravel()


def annulus_nodes(d: int, a: float, b: float, n_r: int = _DEFAULT_NR, n_ang: int = 64):
    """Product quadrature for the annulus {a <= |w| <= b}.

    Returns (points, weights) with points of shape (N, d); weights include
    the surface Jacobian r^{d-1}.
    """
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    rr, wr = gauss_legendre_panel(a, b, n_r)
    return _radial_to_nodes(rr, wr, *sphere_rule(d, n_ang))


def ball_nodes(
    d: int,
    r: float,
    n_r: int = _DEFAULT_NR,
    n_ang: int = 64,
    k_lo: int = _DEFAULT_RING_LO,
):
    """Quadrature for the punctured ball {0 < |w| <= r} via dyadic annuli.

    The annuli [2^k, 2^{k+1}] break at every power of two, the last one ends at
    r, and the first starts at or below r * 2^k_lo.  The untouched core is
    negligible for any density integrable against |w|^2 near the origin.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    top = math.floor(math.log2(r))
    rads, wts = zip(*(gauss_legendre_panel(lo, hi, n_r)
                      for lo, hi in dyadic_rings(1.0, range(top + k_lo, top + 1), r)))
    return _radial_to_nodes(np.concatenate(rads), np.concatenate(wts), *sphere_rule(d, n_ang))


def panel_annulus_nodes(
    d: int,
    a: float,
    b: float,
    panel_width: float,
    n_r: int = 8,
    n_ang: int = 64,
):
    """Annulus quadrature with fixed-width radial panels, for even integrands.

    Meant for oscillatory integrands (e.g. cos(xi . w) factors) where the
    panel width must resolve the wavelength rather than the dyadic scale.
    Only one direction of each antipodal pair of `sphere_rule` is kept, with
    doubled weight, so the integrand must be even: for a general h,
    integrate (h(w) + h(-w)) / 2.
    """
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    edges = np.linspace(a, b, max(1, math.ceil((b - a) / panel_width)) + 1)
    rr, wr = gauss_legendre_panel(edges[:-1, None], edges[1:, None], n_r)
    dirs, wd = sphere_rule(d, n_ang)
    half = len(wd) // 2
    return _radial_to_nodes(rr.ravel(), wr.ravel(), dirs[:half], 2.0 * wd[:half])


def integrate(f, pts: np.ndarray, wts: np.ndarray) -> float:
    """Dot product of f(points) with the weights, summed carefully.

    f may be a callable on an (N, d) array or a precomputed value array.
    Small node sets use exact compensated summation; large ones rely on
    numpy's pairwise summation, whose error grows only logarithmically.
    """
    vals = f(pts) if callable(f) else np.asarray(f, dtype=float)
    prod = vals * wts
    if len(prod) <= 4096:
        return math.fsum(prod)
    return float(np.sum(prod))
