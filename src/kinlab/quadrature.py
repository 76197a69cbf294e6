"""Quadrature rules for singular radial kernels in dimensions 1 to 3.

Integrals against densities comparable to |w|^{-d-2s} are split over dyadic
rings a 2^k <= |w| <= a 2^{k+1} so every panel sees a smooth integrand:
`dyadic_rings` yields the ring edges, clipped at the support edge, and
`ring_sum` adds one caller-supplied term per ring with a relative or
absolute stop.  Each ring carries a Gauss-Legendre rule in the radius and,
for d > 1, a product rule on the sphere.  Oscillatory integrands over wide
rings go through `panel_rings`: equal radial panels about a wavelength wide,
half the sphere for even integrands, and nodes streamed in bounded blocks;
its callers choose the ring cuts from s and |xi|.  `half_sphere_rule` carries
an angular weight (theta.e)^p, such as a symbol's |xi.theta|^{2s} cusp, exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "gauss_legendre_panel",
    "annulus_nodes",
    "ball_nodes",
    "dyadic_rings",
    "half_sphere_rule",
    "panel_rings",
    "ring_sum",
    "integrate",
    "sphere_rule",
]

# Solid angle of the unit sphere, indexed by dimension.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_DEFAULT_NR = 32
_DEFAULT_RING_LO = -40  # inner dyadic cutoff exponent relative to the outer radius
_BLOCK_NODES = 2**18  # nodes built at once by the streaming integrators
_JACOBI_N = 32  # polar nodes of half_sphere_rule


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=256)
def _polar_jacobi(d: int, p: float):
    """Nodes mu in [0, 1] and weights for mu^p (1 - mu^2)^{(d-3)/2} dmu, cached and read-only."""
    a = 0.5 * (d - 3)
    x, w = roots_jacobi(_JACOBI_N, a, p)  # weight (1 - x)^a (1 + x)^p, x = 2 mu - 1
    mu = 0.5 * (1.0 + x)
    w = w * 2.0 ** (-a - p - 1.0) * (1.0 + mu) ** a
    mu.flags.writeable = w.flags.writeable = False
    return mu, w


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


def half_sphere_rule(axis, p: float):
    """Directions and weights for int_{theta.e > 0} g(theta) (theta.e)^p dtheta, e = axis/|axis|.

    With mu = theta.e, dtheta = (1 - mu^2)^{(d-3)/2} dmu dsigma: Gauss-Jacobi nodes in mu
    carry (theta.e)^p and that factor, times sphere_rule(d - 1, 64) on the great sphere
    orthogonal to e.  In d = 1 the half sphere is the point e, with weight 1.
    """
    e = np.asarray(axis, dtype=float)
    e = e / np.linalg.norm(e)
    d = len(e)
    if d == 1:
        return e[None, :], np.ones(1)
    mu, wmu = _polar_jacobi(d, float(p))
    ring, wring = sphere_rule(d - 1, 2 * _JACOBI_N)
    ring = ring @ np.linalg.svd(e[None, :])[2][1:]  # turned into the plane orthogonal to e
    dirs = mu[:, None, None] * e + np.sqrt(1.0 - mu**2)[:, None, None] * ring
    return dirs.reshape(-1, d), np.outer(wmu, wring).ravel()


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


def panel_rings(h, d: int, lo, hi, n_pan, n_ang, n_r: int) -> float:
    """Integral of an even h over the rings lo_i <= |w| <= hi_i on equal radial panels.

    Ring i is cut into n_pan_i panels with edges lo_i + (hi_i - lo_i) j / n_pan_i,
    so neighbours share an edge, each with n_r Gauss nodes, times the first half of
    sphere_rule(d, n_ang_i) with doubled weights (d = 1: the point +1).  h must
    therefore be even: for a general h, integrate (h(w) + h(-w)) / 2.  Consecutive
    rings that share a direction rule are integrated together, in blocks of about
    _BLOCK_NODES nodes, so memory stays flat in the number of panels.
    """
    lo, hi, n_pan, n_ang = np.broadcast_arrays(*map(np.atleast_1d, (lo, hi, n_pan, n_ang)))
    end = np.cumsum(n_pan)
    start, span = end - n_pan, hi - lo

    def nodes(p, dirs, wd):
        # a function of its own, so that only the nodes are alive while h runs: a lower
        # peak per block spares the allocator from refaulting pages every block
        i = np.searchsorted(end, p, side="right")
        j, l, w, n = p - start[i], lo[i], span[i], n_pan[i]
        rr, wr = gauss_legendre_panel((l + w * j / n)[:, None], (l + w * (j + 1) / n)[:, None], n_r)
        return _radial_to_nodes(rr.ravel(), wr.ravel(), dirs, 2.0 * wd)

    parts = []
    for run in np.split(np.arange(len(lo)), np.flatnonzero(np.diff(n_ang)) + 1):
        dirs, wd = (x[: len(x) // 2] for x in sphere_rule(d, int(n_ang[run[0]])))
        step = max(1, _BLOCK_NODES // (n_r * len(wd)))
        for p0 in range(start[run[0]], end[run[-1]], step):
            pts, wts = nodes(np.arange(p0, min(p0 + step, end[run[-1]])), dirs, wd)
            parts.append(integrate(h, pts, wts))
    return math.fsum(parts)
