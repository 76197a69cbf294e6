"""Quadrature rules for singular radial kernels in dimensions 1 to 3.

Integrals against densities comparable to |w|^{-d-2s} are split over dyadic
annuli so every panel sees a smooth integrand; each annulus carries a
Gauss-Legendre rule in the radius and, for d > 1, a product rule on the
sphere.  Oscillatory integrands over wide annuli use fixed-width radial
panels instead of one dyadic panel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gauss_legendre_panel",
    "annulus_nodes",
    "ball_nodes",
    "panel_annulus_nodes",
    "integrate",
    "sphere_rule",
]

# Solid angle of the unit sphere, indexed by dimension.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_DEFAULT_NR = 32
_DEFAULT_RING_LO = -40  # inner dyadic cutoff exponent relative to the outer radius


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panel(a: float, b: float, n: int = _DEFAULT_NR):
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def sphere_rule(d: int, n_ang: int = 64):
    """Unit-sphere directions and weights summing to the sphere area.

    d=1: the two signs.  d=2: trapezoid rule in the angle, which is
    spectrally accurate for smooth periodic densities.  d=3: Gauss in the
    polar cosine times trapezoid in the azimuth.
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
        dirs = np.concatenate(
            [
                np.column_stack(
                    [
                        np.outer(sin_th, np.cos(phi)).ravel(),
                        np.outer(sin_th, np.sin(phi)).ravel(),
                        np.repeat(mu, n_phi),
                    ]
                )
            ]
        )
        return dirs, np.repeat(wmu * wphi, n_phi)
    raise ValueError(f"unsupported dimension {d}")


def _radial_to_nodes(d: int, rr, wr, n_ang: int):
    dirs, wd = sphere_rule(d, n_ang)
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
    return _radial_to_nodes(d, rr, wr, n_ang)


def ball_nodes(
    d: int,
    r: float,
    n_r: int = _DEFAULT_NR,
    n_ang: int = 64,
    k_lo: int = _DEFAULT_RING_LO,
):
    """Quadrature for the punctured ball {0 < |w| <= r} via dyadic annuli.

    The inner cutoff r * 2^k_lo leaves an untouched core whose contribution
    is negligible for any density integrable against |w|^2 near the origin.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    rads, wts = [], []
    for k in range(k_lo, 0):
        rr, wr = gauss_legendre_panel(r * 2.0**k, r * 2.0 ** (k + 1), n_r)
        rads.append(rr)
        wts.append(wr)
    return _radial_to_nodes(d, np.concatenate(rads), np.concatenate(wts), n_ang)


def panel_annulus_nodes(
    d: int,
    a: float,
    b: float,
    panel_width: float,
    n_r: int = 8,
    n_ang: int = 64,
):
    """Annulus quadrature with fixed-width radial panels.

    Meant for oscillatory integrands (e.g. cos(xi . w) factors) where the
    panel width must resolve the wavelength rather than the dyadic scale.
    """
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    n_panels = max(1, int(math.ceil((b - a) / panel_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x, wbase = _leggauss(n_r)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    rr = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    wr = (halfs[:, None] * wbase[None, :]).ravel()
    return _radial_to_nodes(d, rr, wr, n_ang)


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
