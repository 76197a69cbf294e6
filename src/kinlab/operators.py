"""Pointwise evaluation of the nonlocal operator and the frozen-kernel split.

L f(v0) = pv int (f(v0 + w) - f(v0)) K(w) dw is computed as a symmetrized
near-field integral over B_1 (the second difference tames the singularity)
plus far-field dyadic rings on the Gauss-Kronrod panels of
`quadrature.kronrod_rings`, refined where their embedded term is over budget,
which stop once the majorant tail is within the error committed so far.  This
module shapes the integrands and sets the floors and budgets; the rings'
quadrature, refinement loop included, is `quadrature`'s.  The returned bound
is the sum of four parts, each computed rather than asymptotic:

- near-field rounding: the floating-point noise of each second difference
  the near field integrates;
- the near Hölder cap: the core below the noise floor, dropped and bounded
  through the regularity input reg;
- the embedded far-quadrature term: per far ring, |Kronrod value - radial
  embedded value| + |radial embedded value - embedded value| from one set of
  integrand values (`quadrature.kronrod_rings`), its radial and angular parts;
- the majorant tail: what lies beyond the last far ring, bounded by a
  majorant of |f|.

The near rings run in blocks, one call of f per sign per block.  Each near
ring's value is an exactly rounded sum of its products; its mass and Hölder
moment, which only enter the bound, are contracted against the weights, and so
are the far panels' sums.  The near field charges no quadrature term: its
32-node Gauss rings carry no embedded rule, so their quadrature error is not
in the bound.

Rounding, the Hölder cap and the majorant tail are bounds.  The far term is an
a-posteriori estimate, as in QUADPACK (Piessens et al., 1983): an f aliased on
the panels, so that both rules miss it alike, can fool it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import Point, _as_exponent
from .kernels import Kernel, KernelFamily
from .quadrature import (
    _FAR_TOP_LEVEL,
    _kronrod_panels,
    _leggauss,
    _ring_blocks,
    _weights,
    ball_rings,
    dyadic_rings,
    gauss_legendre_panel,
    kronrod_rings,
    sphere_rule,
)

__all__ = [
    "Majorant",
    "CutoffSpec",
    "apply_pointwise",
    "freeze_split",
    "freeze_identity_residual",
]

_NEAR_BLOCK_RINGS = 16  # near rings evaluated per call of f
_FAR_PANEL_WIDTH = 0.8  # the far rings' floor panel width
# share of the near-field and majorant-tail terms that the far panels' radial terms may
# add to the bound, spread evenly over the far rings that may run
_FAR_BUDGET_SHARE = 2.0**-10
_FAR_MAX_RING = 18  # cap on the far rings integrated before the tail bound
_FD_STEP = 1e-3  # t and x step of freeze_identity_residual's difference stencil


class Majorant:
    """Radial envelope omega(r) >= sup_{|w| <= r} |f(v0 + w)|.

    Construction verifies integrability of omega(r) r^{-1-2s} at infinity by
    doubling increments; a divergent majorant is rejected immediately.
    """

    def __init__(self, evaluator: Callable[[float], float], s, description: str = ""):
        self.s = _as_exponent(s)
        self.evaluator = evaluator
        self.description = description
        self._check_integrable()

    def __call__(self, r: float) -> float:
        val = float(self.evaluator(r))
        if not 0.0 <= val < math.inf:
            raise ValueError(f"majorant must be finite and nonnegative, got {val} at r = {r}")
        return val

    def _ring(self, lo: float, hi: float) -> float:
        """Quadrature of omega(r) r^{-1-2s} over [lo, hi]."""
        rr, wr = gauss_legendre_panel(lo, hi, 16)
        return float(np.sum([self(r) * r ** (-1.0 - self.s.two_s) * w for r, w in zip(rr, wr)]))

    def _check_integrable(self):
        named = f" ({self.description})" if self.description else ""
        total = 0.0
        prev = math.inf
        ratio = 1.0
        for k, (lo, hi) in enumerate(dyadic_rings(1.0, range(60))):
            inc = self._ring(lo, hi)
            total += inc
            if k >= 8 and inc >= prev:
                raise ValueError(
                    f"majorant integral not decaying by ring {k}: likely divergent{named}"
                )
            if inc < 1e-14 * max(total, 1.0):
                return
            ratio = inc / prev if prev > 0 else 0.0
            prev = inc
        # Doubling increments settle into a geometric decay for admissible
        # majorants; a ratio this close to 1 means a logarithmic divergence.
        if ratio > 0.98:
            raise ValueError(f"majorant integral converges too slowly to certify: rings shrink by a factor "
                             f"{ratio:.6g} > 0.98{named}")


@dataclass(frozen=True)
class CutoffSpec:
    """Radial bump in v: 1 on the inner ball, 0 outside the outer ball.

    The transition is a smoothstep polynomial of the given odd order
    (3, 5 or 7), giving C^1, C^2 or C^3 smoothness.
    """

    inner: float = 1.0
    outer: float = 2.0
    order: int = 5

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise ValueError(f"need 0 < inner < outer, got inner={self.inner}, outer={self.outer}")
        if self.order not in (3, 5, 7):
            raise ValueError(f"supported smoothstep orders: 3, 5, 7, got {self.order!r}")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(np.asarray(v, dtype=float))
        r = np.linalg.norm(v, axis=-1)
        u = np.clip((r - self.inner) / (self.outer - self.inner), 0.0, 1.0)
        if self.order == 3:
            step = u * u * (3.0 - 2.0 * u)
        elif self.order == 5:
            step = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        else:
            step = u**4 * (35.0 - 84.0 * u + 70.0 * u * u - 20.0 * u**3)
        return 1.0 - step


def _near_field(density: Callable, d: int, two_s: float, f: Callable, v0: np.ndarray,
                reg: tuple[float, float]):
    """Symmetrized near integral over the unit ball, ring by ring, honest bound.

    density may be signed (kernel differences).  Each dyadic ring
    contributes its quadrature value only while that value is certifiably
    above the floating-point noise floor of the cancellation in the second
    difference; below it, the ring is dropped and the Hölder bound
    reg = (C, eps): |second difference| <= C |w|^{2s + eps} is charged to
    the error instead.  This keeps affine inputs at exactly zero and avoids
    noise amplification by the kernel singularity.

    Each ring is one panel of 32 Gauss radii times half of sphere_rule(d, 64), and the
    rings run in blocks of _NEAR_BLOCK_RINGS: one call of f at v0 + w, one at v0 - w and
    one of the density per block.  A ring's value is the exactly rounded sum (math.fsum)
    of its products (f(v0 + w) + f(v0 - w) - 2 f(v0)) density(w) weight(w).  Its mass
    and Hölder moment, which only enter the bound, are contracted: |density| against the
    direction weights, then against the radial weights times r^(d-1) and r^(d-1+2s+eps).
    The rings of a block past the one where the scan stops are evaluated and unused.
    """
    C_loc, eps = reg
    f0 = float(f(v0[None, :])[0])
    total = err = 0.0
    lo = np.ldexp(1.0, np.arange(-1, -201, -1))
    x, wx = _leggauss(32)
    block = _NEAR_BLOCK_RINGS * len(x) * (len(sphere_rule(d, 64)[1]) // 2)
    # half the sphere: fp and fm together see every direction
    for pts, half, rr, wd in _ring_blocks(d, lo, 2.0 * lo, 1, 64, x, block):
        fp, fm, dens = f(v0[None, :] + pts), f(v0[None, :] - pts), density(pts)
        n = len(half)
        prod = ((fp + fm - 2.0 * f0) * dens * _weights(d, half, rr, wx, wd)).reshape(n, -1)
        # |density| on each radius of each ring, times its radial weight and r^(d-1)
        radial = (np.abs(dens).reshape(n, len(x), -1) @ wd) * (half[:, None] * wx * rr ** (d - 1))
        scale = 2.0 * np.maximum(np.abs(fp), np.abs(fm)).reshape(n, -1).max(axis=1) + 2.0 * abs(f0)
        noise = 4.0 * np.finfo(float).eps * scale * radial.sum(axis=1)
        holder_cap = 0.5 * C_loc * (radial * rr ** (two_s + eps)).sum(axis=1)
        for row, nz, cap in zip(prod, noise, holder_cap):
            if cap <= nz:
                # below the noise floor: drop the ring, charge the certified cap
                # and close the remaining geometric tail (exponent > 2s).
                return total, err + (cap + cap / (2.0**eps - 1.0))
            total += 0.5 * math.fsum(row)
            err += nz
            if cap < 1e-18 * max(abs(total), 1e-300):
                return total, err
    return total, err


def _far_ring(density: Callable, d: int, g: Callable, v0: np.ndarray, g0: float,
              lo, hi, budget: float | None = None,
              level: int = 0) -> tuple[float, float, float, int]:
    """int (g(v0 + w) - g0) density(w) dw over the rings lo_i < |w| < hi_i by
    `quadrature.kronrod_rings` on a floor of ceil(span / _FAR_PANEL_WIDTH) panels times 64
    directions, with g symmetrized in w for its half sphere (density is even)."""
    def even(w):
        return (0.5 * (g(v0[None, :] + w) + g(v0[None, :] - w)) - g0) * density(w)

    n = np.ceil((hi - lo) / _FAR_PANEL_WIDTH).astype(np.int64)
    return kronrod_rings(even, d, lo, hi, n, 64, budget, level)


def apply_pointwise(
    K: Kernel,
    f: Callable[[np.ndarray], np.ndarray],
    v0,
    reg: tuple[float, float],
    omega: Majorant,
    far_max_ring: int = _FAR_MAX_RING,
) -> tuple[float, float]:
    """L f(v0) with an a-posteriori error bound.

    reg = (C, epsilon): |f(v0+w) + f(v0-w) - 2 f(v0)| <= C |w|^{2s+epsilon}
    near v0, which bounds the skipped quadrature core.  omega bounds |f| at
    distance r from v0 and controls the far tail.  Returns (value, bound).

    The bound adds near-field rounding, the near Hölder cap (the core below
    the noise floor, through reg), the embedded far-quadrature term and the
    majorant tail; the first, second and last are bounds, the far term an
    estimate that an aliased f can fool.  Each far ring 2^k < |w| < 2^(k+1) goes
    to `quadrature.kronrod_rings` on a floor of ceil(span / 0.8) panels times 64
    directions, and charges |Kronrod - radial| + |radial - embedded|, its radial
    and angular parts apart so that neither offsets the other (in d = 1 the
    second is 0).  Its budget, for the radial terms of coarse panels, is
    _FAR_BUDGET_SHARE = 2^-10 of the near-field terms plus the majorant tail past
    the ring cap, spread evenly over the rings that may run, so the coarse panels
    add at most about that share to the bound over a far field on the floor.  The
    first ring starts on panels of 2^_FAR_TOP_LEVEL = 16 floor panels, and each
    next one at the level the last returned.  The rings run until the majorant
    tail beyond ring k is at most the error committed so far (so stopping at most
    doubles the bound), or k reaches far_max_ring.  K's density must be even, as
    every kernel in `kinlab.kernels` is.
    """
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if v0.shape != (K.d,) or not np.all(np.isfinite(v0)):
        raise ValueError(f"v0 must be {K.d} finite coordinates, got {v0.tolist()}")
    C_loc, eps = reg
    if not (0.0 <= C_loc < math.inf and 0.0 < eps < math.inf):
        raise ValueError(f"need reg = (C, eps) with finite C >= 0 and eps > 0, got {reg}")
    near, near_err = _near_field(K.density, K.d, K.s.two_s, f, v0, reg)
    f0 = float(f(v0[None, :])[0])

    # Majorant terms omega(hi) m of every ring; their suffix sums are the
    # majorant tails beyond each ring's inner edge.
    lo, hi, mass = _ring_masses(K.density, K.d, K.s.two_s, 1.0, K.support_radius)
    beyond = np.append(np.cumsum((np.array([omega(h) for h in hi]) * mass)[::-1])[::-1], 0.0)
    n_run = max(0, min(far_max_ring, len(lo)))
    budget = _FAR_BUDGET_SHARE * (near_err + beyond[n_run]) / max(n_run, 1)
    far = far_err = 0.0
    k, level = 0, _FAR_TOP_LEVEL
    while k < n_run and beyond[k] > near_err + far_err:
        chunk, embedded, radial, level = _far_ring(K.density, K.d, f, v0, f0, lo[k], hi[k],
                                                   budget, level)
        far += chunk
        # the radial and the angular part, charged apart so that neither offsets the other
        far_err += abs(chunk - radial) + abs(radial - embedded)
        k += 1

    # Beyond ring k: the subtracted -f0 part integrates exactly against the
    # tail mass; the remaining f(v0 + w) part is bounded by the majorant.
    tail = 0.0
    if k < len(lo):
        far -= f0 * math.fsum(mass[k:])
        tail = float(beyond[k])
    return near + far, near_err + far_err + tail


def _ring_masses(density: Callable, d: int, two_s: float, R: float, edge: float):
    """Edges lo, hi and signed masses of the density on the rings R 2^k <= |w| <= R 2^{k+1}.

    The rings are clipped at edge and run out to the ring k where 2^{-2sk} <= 1e-16, the
    share of the mass past R that lies beyond it for a density comparable to |w|^{-d-2s},
    capped at |w| = 2^511 so that every node and r^(d-1) stays finite.  A ring's mass is
    the Kronrod value of one 15-node panel times half of sphere_rule(d, 32), from
    `quadrature._kronrod_panels`, which contracts the density times r^(d-1) before it
    scales by the half-width: the node weight half r^(d-1) overflows in d = 3.  Rings
    where the density underflows to 0 add nothing: in d = 3 at s = 0.05, the 164 rings
    past |w| = 2^347 leave out a share 3.6e-11 of the mass past R.
    """
    lo, hi = np.reshape(list(dyadic_rings(R, range(math.ceil(53.15 / two_s)), min(edge, 2.0**511))),
                        (-1, 2)).T
    mass = [rows[0] for rows in _kronrod_panels(density, d, lo, hi, 1, 32)]
    return lo, hi, np.concatenate([np.empty(0), *mass])


def freeze_split(F: KernelFamily, f: Callable, eta: CutoffSpec, z: Point,
                 r_max_ring: int = 14) -> tuple[float, float, float]:
    """Frozen-kernel decomposition at z: (L0(eta f)(z), A(z), B(z)).

    K0 is the family kernel at the origin.  A collects the kernel variation
    acting on f; B collects the commutator of the cutoff with L0.  z must
    lie in the cutoff plateau (eta = 1 there), where for a solution of the
    variable-kernel equation with source c the identity
    (eta f)_t + v . grad_x (eta f) - L0(eta f) = c + A - B holds.

    f is a global evaluator (ts, xs, vs) -> values.  The near fields take
    reg = (1, 2 - 2s): the second v-difference of f near z.v is at most
    |w|^2, which holds for |D_v^2 f| <= 1.
    """
    if float(np.linalg.norm(z.v)) >= eta.inner:
        raise ValueError(f"z must lie in the cutoff plateau, got |v| = {float(np.linalg.norm(z.v))} >= "
                         f"inner = {eta.inner}")
    base = F.base
    reg = (1.0, 2.0 - base.s.two_s)
    K0 = F.kernel_at(Point.zero(z.d))
    Kz = F.kernel_at(z)

    def f_v(varr: np.ndarray) -> np.ndarray:
        n = len(varr)
        return f(np.full(n, z.t), np.tile(z.x, (n, 1)), varr)

    def eta_f(varr: np.ndarray) -> np.ndarray:
        return eta(varr) * f_v(varr)

    eta_v = float(eta(z.v[None, :])[0])
    f0 = float(f_v(z.v[None, :])[0])
    g0 = eta_v * f0
    diff = lambda w: Kz.density(w) - K0.density(w)

    # Near fields: L0 on eta f and A on f, both noise-aware; the eta
    # difference in B vanishes identically near w = 0 (plateau), so the
    # rings of `ball_rings` are exact for it.
    two_s = base.s.two_s
    L0_val, _ = _near_field(K0.density, base.d, two_s, eta_f, z.v, reg)
    A, _ = _near_field(diff, base.d, two_s, f_v, z.v, reg)
    b = lambda varr: (eta(varr) - eta_v) * f_v(varr)
    B = kronrod_rings(lambda w: 0.5 * (b(z.v[None, :] + w) + b(z.v[None, :] - w)) * K0.density(w),
                      base.d, *ball_rings(1.0, 2.0 - two_s, base.d, two_s), 2, 64)[0]

    # Far fields: the panel integral of apply_pointwise for each integrand, over
    # the rings out to 2^r_max_ring; B's is (eta - eta(z.v)) f against K0, whose
    # base value is 0.
    lo, hi = np.reshape(list(dyadic_rings(1.0, range(r_max_ring), K0.support_radius)), (-1, 2)).T
    L0_val += _far_ring(K0.density, base.d, eta_f, z.v, g0, lo, hi)[0]
    A += _far_ring(diff, base.d, f_v, z.v, f0, lo, hi)[0]
    B += _far_ring(K0.density, base.d, b, z.v, 0.0, lo, hi)[0]

    # Exact non-oscillatory tail corrections: beyond R_out the subtracted
    # base values integrate against the computable tail masses, leaving
    # only oscillatory remainders (small for decaying or oscillating f).
    R_out = 2.0**r_max_ring
    if R_out < K0.support_radius:
        tail_mass = lambda density: math.fsum(
            _ring_masses(density, base.d, two_s, R_out, K0.support_radius)[2])
        L0_val -= g0 * tail_mass(K0.density)
        A -= f0 * tail_mass(diff)
    return L0_val, A, B


def freeze_identity_residual(F: KernelFamily, f: Callable, c: Callable, eta: CutoffSpec,
                             z: Point) -> float:
    """Residual of (eta f)_t + v . grad_x (eta f) - L0(eta f) - (c + A - B) at z.

    L0(eta f), A and B are `freeze_split`'s, with its far rings out to 2^14.
    The transport derivative of eta f is computed by 4th-order central
    differences of step _FD_STEP = 1e-3 in t and in x; eta depends on v only,
    so it factors out of the stencil.
    """
    L0_val, A, B = freeze_split(F, f, eta, z)
    eta_z = float(eta(z.v[None, :])[0])

    def fval(t, x):
        return float(f(np.array([t]), np.asarray(x, dtype=float)[None, :], z.v[None, :])[0])

    c4 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    off = np.array([-2.0, -1.0, 1.0, 2.0])
    ft = sum(ci * fval(z.t + oi * _FD_STEP, z.x) for ci, oi in zip(c4, off)) / _FD_STEP
    transport = ft
    for i in range(z.d):
        e = np.zeros(z.d)
        e[i] = 1.0
        fx = sum(ci * fval(z.t, z.x + oi * _FD_STEP * e) for ci, oi in zip(c4, off)) / _FD_STEP
        transport += z.v[i] * fx
    transport *= eta_z
    c_val = float(np.asarray(c(np.array([z.t]), z.x[None, :], z.v[None, :])).ravel()[0])
    return abs(transport - L0_val - (c_val + A - B))
