"""Quadrature rules for singular radial kernels in dimensions 1 to 3.

Integrals against densities comparable to |w|^{-d-2s} are split over dyadic
rings a 2^k <= |w| <= a 2^{k+1} so every panel sees a smooth integrand.  One
routine integrates over rings: `kronrod_rings` puts equal radial panels of
15-node Gauss-Kronrod radii on each ring, times half the sphere for an even
integrand, returns two embedded estimates with the value, and given a budget
refines a ring panel by panel, as QUADPACK's QAG does.  Its nodes carry no
weights: each block's integrand values are contracted against one matrix of
the rules' weights; the operators' tail masses take the Kronrod row of its
panels.  `_ring_blocks` streams the rings' nodes; the operators' near field and
`_ring_nodes` put Gauss panels on it.
`ball_rings` gives the rings of a punctured ball, from the one core cut, set by
the order of the integrand at 0, and `dyadic_rings` the rings of a loop that
stops on a per-ring test.  `half_sphere_rule` carries an angular weight
(theta.e)^p, such as a symbol's |xi.theta|^{2s} cusp, exactly; `kernels` needs it
for an anisotropic kernel only, since an isotropic moment and a radial kernel's
angular average of cos(xi.w) are closed forms there.  `_norm`, the
norm in every kernel density and left distance, is np.linalg.norm over the last
axis bit for bit, without its loop per point.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "ball_rings",
    "gauss_legendre_panel",
    "dyadic_rings",
    "half_sphere_rule",
    "kronrod_rings",
    "sphere_rule",
]

# Solid angle of the unit sphere, indexed by dimension.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_BLOCK_NODES = 2**18  # nodes built at once by _ring_nodes and the operators' near field
# nodes built at once by kronrod_rings: in d = 1 a block's arrays stay under glibc's
# 128 KB mmap threshold, so the allocator does not map and fault them in every block
_KRONROD_BLOCK_NODES = 2**14
_JACOBI_N = 32  # polar nodes of half_sphere_rule
_FAR_TOP_LEVEL = 4  # refined rings start on panels at most 2^4 floor panels wide
# the next ring starts one level coarser only if every start panel passed by this
# factor: doubling a panel multiplies the radial term of a resolved integrand by about
# 2^15 and its share by 2, so a panel that passes by much less than 2^-14 fails when
# doubled, and each failed try costs half a ring
_FAR_COARSEN_MARGIN = 2.0**-10


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _kronrod15():
    """The 15-node Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15; Piessens et al., 1983):
    nodes, Kronrod weights, and the weights of the 7-node Gauss rule embedded in it, on
    the odd-indexed nodes and 0 on the others; read-only."""
    # the nodes from -1 to 0 and their weights; the rule is symmetric about 0
    x = [-0.991455371120812639, -0.949107912342758525, -0.864864423359769073, -0.741531185599394440,
         -0.586087235467691130, -0.405845151377397167, -0.207784955007898468, 0.0]
    wk = [0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
          0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828]
    wg = [0.0, 0.129484966168869693, 0.0, 0.279705391489276668, 0.0, 0.381830050505118945, 0.0,
          0.417959183673469388]
    out = (np.array(x + [-v for v in x[-2::-1]]), np.array(wk + wk[-2::-1]),
           np.array(wg + wg[-2::-1]))
    for a in out:
        a.flags.writeable = False
    return out


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


def gauss_legendre_panel(a: float, b: float, n: int = 32):
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


def ball_rings(r: float, p: float, d: int, two_s: float, q: float = 0.0):
    """Edges (lo, hi) of the rings 2^k to 2^{k+1} that cover 0 < |w| <= r, the last ending at r.

    The first ring starts at the core cut 2^k0 of an integrand of order p at 0, that is
    of size |w|^{p - d} against dw: the core |w| < 2^k0 holds a share (2^k0 max(q, 1/r))^p
    <= 1e-16 of the integral, where 1/q (q = |xi| for a symbol's 1 - cos(xi.w)) is the
    radius below which that order holds, if it is below r.  The cut stops where
    256 |w|^{-d-2s} would overflow, so that a factor of up to 256 on a density comparable
    to |w|^{-d-2s} stays finite.  r = 0 gives no rings.
    """
    if not (0.0 <= r < math.inf and p > 0.0):
        raise ValueError(f"need a finite radius r >= 0 and an order p > 0, got r = {r}, p = {p}")
    if r == 0.0:
        return np.empty(0), np.empty(0)
    k0 = max(math.floor(math.log2(1e-16) / p - math.log2(max(q, 1.0 / r))),
             math.floor((8.0 - math.log2(np.finfo(float).max)) / (d + two_s)) + 1)
    lo = np.ldexp(1.0, np.arange(k0, math.frexp(r)[1]))
    lo = lo[lo < r]
    return lo, np.minimum(2.0 * lo, r)


def _norm(w) -> np.ndarray:
    """|w| over the last axis, bit for bit np.linalg.norm(w, axis=-1): the squares are added
    column by column in the order its sum adds them, without the loop per row that a sum
    over a last axis of length d <= 3 costs."""
    w = np.asarray(w, dtype=float)
    sq = w[..., 0] * w[..., 0]
    for k in range(1, w.shape[-1]):
        sq += w[..., k] * w[..., k]
    return np.sqrt(sq)


def _ring_blocks(d: int, lo, hi, n_pan, n_ang, x, block: int = _BLOCK_NODES):
    """Nodes of the rings lo_i <= |w| <= hi_i, cut into n_pan_i equal radial panels with
    the radial rule's nodes x on [-1, 1] on each panel, times the first half of
    sphere_rule(d, n_ang_i), in blocks of about `block` nodes: (pts, half, rr, wd) per block.

    Blocks hold whole panels in ring order: half (panels,) are the panels' half-widths,
    rr (panels, len(x)) the radii of their nodes and wd the doubled weights of the
    half-sphere directions.  The nodes pts of a panel are its radii (outer) times the
    directions (inner), so a radial weight wx on [-1, 1] gives the node weight
    half wx r^(d-1) wd, as `_weights` forms it.
    """
    lo, hi, n_pan, n_ang = np.broadcast_arrays(*map(np.atleast_1d, (lo, hi, n_pan, n_ang)))
    # the first half of sphere_rule(d, n_ang) in d >= 2 is a half sphere, the second half
    # its antipodes, only for n_ang a positive multiple of 8
    bad = ~((n_ang > 0) & (n_ang % 8 == 0))
    if d > 1 and np.any(bad):
        raise ValueError(f"need n_ang a positive multiple of 8 in d = {d}, got {n_ang[bad][0]}")
    bad = ~((0.0 <= lo) & (lo < hi))
    if np.any(bad):
        raise ValueError(f"need 0 <= lo < hi, got the ring {float(lo[bad][0])} to "
                         f"{float(hi[bad][0])}")
    if np.any(n_pan < 1):
        raise ValueError(f"need a positive panel count per ring, got {n_pan[n_pan < 1][0]}")
    end = np.cumsum(n_pan)
    start, span = end - n_pan, hi - lo

    def nodes(p, dirs):
        # a function of its own, so that only what it returns is alive while the caller's
        # integrand runs: a lower peak per block spares the allocator from refaulting
        # pages every block
        i = np.searchsorted(end, p, side="right")
        j, l, w, n = p - start[i], lo[i], span[i], n_pan[i]
        a, b = (l + w * j / n)[:, None], (l + w * (j + 1) / n)[:, None]
        half = 0.5 * (b - a)
        rr = 0.5 * (a + b) + half * x
        pts = rr.ravel()[:, None, None] * dirs[None, :, :]
        return pts.reshape(-1, d), half[:, 0], rr

    if len(lo) == 0:
        return
    for run in np.split(np.arange(len(lo)), np.flatnonzero(np.diff(n_ang)) + 1):
        dirs, wd = (v[: len(v) // 2] for v in sphere_rule(d, int(n_ang[run[0]])))
        wd = 2.0 * wd
        step = max(1, block // (len(x) * len(wd)))
        for p0 in range(start[run[0]], end[run[-1]], step):
            yield *nodes(np.arange(p0, min(p0 + step, end[run[-1]])), dirs), wd


def _weights(d: int, half, rr, wx, wd) -> np.ndarray:
    """Node weights of a block of `_ring_blocks` for the radial weights wx on [-1, 1]."""
    return (((half[:, None] * wx) * rr ** (d - 1)).ravel()[:, None] * wd[None, :]).ravel()


def _ring_nodes(d: int, lo, hi, n_ang: int, n_r: int):
    """Nodes and weights of each ring lo_i <= |w| <= hi_i in turn, one panel of n_r Gauss
    radii each; cut from the blocks of `_ring_blocks`, which cost less than a call per ring."""
    x, wx = _leggauss(n_r)
    for pts, half, rr, wd in _ring_blocks(d, lo, hi, 1, n_ang, x):
        wts, n = _weights(d, half, rr, wx, wd), n_r * len(wd)
        for i in range(0, len(wts), n):
            yield pts[i:i + n], wts[i:i + n]


def _kronrod_panels(h, d: int, lo, hi, n_pan, n_ang):
    """Per panel of the rings of `kronrod_rings`, in ring order, one block at a time: a
    (3, panels) array of the Kronrod, embedded and radial embedded values.

    |Kronrod - radial embedded| is the radial part of the error estimate alone, what
    splitting the panel can shrink; in d = 1 the two embedded values agree.  A block's
    values of h, shaped (panels, 15, directions) and times r^(d-1), are contracted
    against one (3, 15 * directions) matrix of the three radial rules' weights times the
    block's doubled direction weights, then scaled by the panels' half-widths.
    """
    x, wk, wg = _kronrod15()
    for pts, half, rr, wd in _ring_blocks(d, lo, hi, n_pan, n_ang, x, _KRONROD_BLOCK_NODES):
        we = wd * np.resize([2.0, 0.0], len(wd)) if d > 1 else wd
        weights = np.array([np.outer(wk, wd).ravel(), np.outer(wg, we).ravel(),
                            np.outer(wg, wd).ravel()])
        vals = np.asarray(h(pts), dtype=float).reshape(len(half), len(x), -1)
        if d > 1:
            vals = vals * (rr ** (d - 1))[:, :, None]
        rows = weights @ vals.reshape(len(half), -1).T
        rows *= half
        yield rows


def kronrod_rings(h, d: int, lo, hi, n, n_ang, budget: float | None = None,
                  level: int = 0) -> tuple[float, float, float, int]:
    """Integral of an even h over the rings lo_i <= |w| <= hi_i: (value, embedded value,
    radial embedded value, next start level), the sums of the rows of `_kronrod_panels`.

    The floor cuts ring i into n_i equal panels of 15 Gauss-Kronrod radii, times the first
    half of sphere_rule(d, n_ang_i) with doubled weights (d >= 2: n_ang_i a positive
    multiple of 8), so h must be even: for a general h, integrate (h(w) + h(-w)) / 2.
    The embedded value takes the 7 Gauss radii among the 15 times, in d >= 2, every
    other direction with doubled weight; |value - embedded| estimates its error, which
    exceeds the value's while the panels and directions resolve h.  The radial embedded
    value takes the 7 Gauss radii on every direction.

    Without a budget every ring is integrated on its floor, in one pass, and the next
    start level is 0.  With one, the single ring lo < |w| < hi starts on level-`level`
    panels, each 2^level floor panels wide.  A panel is accepted when its radial term
    |Kronrod - radial embedded| is at most its width / span times the budget, or when it
    is a floor panel; the others are bisected, and all the children of a pass are
    evaluated in one call, as QUADPACK's QAG refines (Piessens et al., 1983).  The next
    start level is one coarser, up to _FAR_TOP_LEVEL, if every start panel passed by the
    factor _FAR_COARSEN_MARGIN, and otherwise the finest level this ring used.
    """
    if budget is None:
        parts = [rows.sum(axis=1) for rows in _kronrod_panels(h, d, lo, hi, n, n_ang)]
        return (*map(math.fsum, np.reshape(parts, (-1, 3)).T), 0)
    span, sums, passed = hi - lo, [], None
    # each panel's first floor panel; a level past the one that covers all n is no coarser
    lev = min(level, int(n - 1).bit_length())
    a = np.arange(0, n, 2**lev)
    while True:
        m = np.minimum(2**lev, n - a)  # its floor panels: 2^lev but at the ring's end
        # a pass over a whole level is the ring cut into n / 2^lev panels, on the same edges
        whole = len(a) * 2**lev == n
        rings = (lo, hi, len(a)) if whole else (lo + span * a / n, lo + span * (a + m) / n, 1)
        rows = np.concatenate(list(_kronrod_panels(h, d, *rings, n_ang)), axis=1)
        radial, share = np.abs(rows[0] - rows[2]), m * (budget / n)
        ok = radial <= share
        done = ok | (m == 1)
        # one dot product per row: equal rows (radial and embedded, in d = 1) sum equal,
        # which a matrix product does not ensure
        sums.append([row @ done for row in rows])
        if passed is None:
            passed = bool(np.all(radial <= _FAR_COARSEN_MARGIN * share))
        if done.all():
            break
        # bisect the others, in order, and drop the halves past the ring's end
        a = np.repeat(a[~done], 2)
        a[1::2] += 2 ** (lev - 1)
        a, lev = a[a < n], lev - 1
    nxt = min(level + 1, _FAR_TOP_LEVEL) if passed else lev
    return (*map(math.fsum, np.transpose(sums)), nxt)
