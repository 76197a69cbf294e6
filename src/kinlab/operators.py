"""Pointwise evaluation of the nonlocal operator and the frozen-kernel split.

L f(v0) = pv int (f(v0 + w) - f(v0)) K(w) dw is computed as a symmetrized
near-field integral over B_1 (the second difference tames the singularity)
plus far-field dyadic rings with oscillation-resolved panels, which stop once
the majorant tail is within the error committed so far; what is not
integrated is bounded by a majorant of f and reported, so the returned error
bound is honest rather than asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import _as_coords
from .group import Point, _as_exponent
from .kernels import Kernel, KernelFamily
from .quadrature import (
    annulus_nodes,
    ball_nodes,
    dyadic_rings,
    gauss_legendre_panel,
    integrate as qintegrate,
    panel_rings,
    ring_sum,
)

__all__ = [
    "Majorant",
    "CutoffSpec",
    "apply_pointwise",
    "tail_bound",
    "kinetic_convolve",
    "freeze_split",
    "freeze_identity_residual",
]

_FAR_PANEL_WIDTH = 0.4
_FAR_MAX_RING = 18  # cap on the far rings integrated before the tail bound


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
        if val < 0:
            raise ValueError("majorant must be nonnegative")
        return val

    def _ring(self, lo: float, hi: float) -> float:
        """Quadrature of omega(r) r^{-1-2s} over [lo, hi]."""
        rr, wr = gauss_legendre_panel(lo, hi, 16)
        return float(np.sum([self(r) * r ** (-1.0 - self.s.two_s) * w for r, w in zip(rr, wr)]))

    def _check_integrable(self):
        total = 0.0
        prev = math.inf
        ratio = 1.0
        for k, (lo, hi) in enumerate(dyadic_rings(1.0, range(60))):
            inc = self._ring(lo, hi)
            total += inc
            if k >= 8 and inc >= prev:
                raise ValueError(
                    f"majorant integral not decaying by ring {k}: likely divergent ({self.description})"
                )
            if inc < 1e-14 * max(total, 1.0):
                return
            ratio = inc / prev if prev > 0 else 0.0
            prev = inc
        # Doubling increments settle into a geometric decay for admissible
        # majorants; a ratio this close to 1 means a logarithmic divergence.
        if ratio > 0.98:
            raise ValueError("majorant integral converges too slowly to certify")

    def tail_integral(self, R: float) -> float:
        """Quadrature of int_{R/2}^inf omega(r) r^{-1-2s} dr."""
        return ring_sum(self._ring, dyadic_rings(R / 2.0, range(80)), rtol=1e-14)


def tail_bound(omega: Majorant, R: float, Lambda: float, s=None) -> float:
    """Upper bound for |int_{|w| >= R} f(v0 + w) K(w) dw|.

    Ring k has mass at most 4 Lambda 2^{-2sk} by the second-moment bound, so
    the tail is at most sum omega(2^k) m_k; comparing ring sums with the
    integral of omega r^{-1-2s} gives the recorded universal factor
    F(s) = 8 s 2^{2s} / (1 - 2^{-2s}).
    """
    s = omega.s if s is None else _as_exponent(s)
    if R <= 0:
        raise ValueError("R must be positive")
    two_s = s.two_s
    factor = 8.0 * s.s * 2.0**two_s / (1.0 - 2.0**-two_s)
    return factor * Lambda * omega.tail_integral(R)


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
            raise ValueError("need 0 < inner < outer")
        if self.order not in (3, 5, 7):
            raise ValueError("supported smoothstep orders: 3, 5, 7")

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
                reg: tuple[float, float], radius: float = 1.0):
    """Symmetrized near integral over B_radius, ring by ring, honest bound.

    density may be signed (kernel differences).  Each dyadic ring
    contributes its quadrature value only while that value is certifiably
    above the floating-point noise floor of the cancellation in the second
    difference; below it, the ring is dropped and the Hölder bound
    reg = (C, eps): |second difference| <= C |w|^{2s + eps} is charged to
    the error instead.  This keeps affine inputs at exactly zero and avoids
    noise amplification by the kernel singularity.
    """
    C_loc, eps = reg
    exponent = two_s + eps
    f0 = float(f(v0[None, :])[0])
    total = 0.0
    err = 0.0
    for lo_r, hi_r in dyadic_rings(radius, range(-1, -201, -1)):
        pts, wts = annulus_nodes(d, lo_r, hi_r, n_r=32)
        fp = f(v0[None, :] + pts)
        fm = f(v0[None, :] - pts)
        dens = density(pts)
        adens = np.abs(dens)
        chunk = 0.5 * qintegrate((fp + fm - 2.0 * f0) * dens, pts, wts)
        mass = qintegrate(adens, pts, wts)
        scale = float(np.max(np.abs(fp)) + np.max(np.abs(fm)) + 2.0 * abs(f0))
        noise = 4.0 * np.finfo(float).eps * scale * mass
        rr = np.linalg.norm(pts, axis=1)
        holder_cap = 0.5 * C_loc * qintegrate(rr**exponent * adens, pts, wts)
        if holder_cap <= noise:
            # below the noise floor: drop the ring, charge the certified cap
            # and close the remaining geometric tail (exponent > 2s).
            err += holder_cap + holder_cap / (2.0**eps - 1.0)
            break
        total += chunk
        err += noise
        if holder_cap < 1e-18 * max(abs(total), 1e-300):
            break
    return total, err


def _far_ring(density: Callable, d: int, g: Callable, v0: np.ndarray, g0: float,
              lo: float, hi: float, width: float = _FAR_PANEL_WIDTH, n_ang: int = 64) -> float:
    """int_{lo < |w| < hi} (g(v0 + w) - g0) density(w) dw on fixed-width radial panels.

    density is even, so g is symmetrized in w for `panel_rings`, which keeps half
    the sphere and streams its nodes, so memory stays flat in hi.
    """
    def even(w):
        return (0.5 * (g(v0[None, :] + w) + g(v0[None, :] - w)) - g0) * density(w)

    return panel_rings(even, d, lo, hi, math.ceil((hi - lo) / width), n_ang, 8)


def apply_pointwise(
    K: Kernel,
    f: Callable[[np.ndarray], np.ndarray],
    v0,
    reg: tuple[float, float],
    omega: Majorant,
    split_radius: float = 1.0,
    far_max_ring: int = _FAR_MAX_RING,
) -> tuple[float, float]:
    """L f(v0) with an a-posteriori error bound.

    reg = (C, epsilon): |f(v0+w) + f(v0-w) - 2 f(v0)| <= C |w|^{2s+epsilon}
    near v0, which bounds the skipped quadrature core.  omega bounds |f| at
    distance r from v0 and controls the far tail.  Returns (value, bound).

    The far rings split_radius 2^k run until the majorant tail beyond ring k
    is at most the error committed so far (so stopping at most doubles the
    bound), or k reaches far_max_ring.  K's density must be even, as every
    kernel in `kinlab.kernels` is.
    """
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    C_loc, eps = reg
    if C_loc < 0 or eps <= 0:
        raise ValueError("need nonnegative Hölder constant and positive epsilon")
    near, near_err = _near_field(K.density, K.d, K.s.two_s, f, v0, reg, split_radius)
    f0 = float(f(v0[None, :])[0])

    def tail_ring(lo, hi):
        pts, wts = annulus_nodes(K.d, lo, hi, n_r=8, n_ang=16)
        return omega(hi) * qintegrate(K.density(pts), pts, wts)

    # Majorant terms of the far rings and of 119 tail rings past the cap;
    # their suffix sums are the majorant tails beyond each ring's inner edge.
    rings = list(dyadic_rings(split_radius, range(far_max_ring + 119), K.support_radius))
    terms = {ring: tail_ring(*ring) for ring in rings}
    beyond = np.cumsum(list(terms.values())[::-1])[::-1]
    far = far_err = 0.0
    k = 0
    while k < min(far_max_ring, len(rings)) and beyond[k] > near_err + far_err:
        lo, hi = rings[k]
        chunk = _far_ring(K.density, K.d, f, v0, f0, lo, hi)
        coarse = _far_ring(K.density, K.d, f, v0, f0, lo, hi,
                           2.0 * _FAR_PANEL_WIDTH, 32 if K.d > 1 else 64)
        far += chunk
        far_err += abs(chunk - coarse)
        k += 1

    # Beyond ring k: the subtracted -f0 part integrates exactly against the
    # tail mass; the remaining f(v0 + w) part is bounded by the majorant.
    tail = 0.0
    if k < len(rings):
        far -= f0 * _tail_mass(K.density, K.d, K.support_radius, rings[k][0])
        tail = float(beyond[k])
    return near + far, near_err + far_err + tail


def kinetic_convolve(
    phi: Callable,
    phi_box: tuple,
    f: Callable,
    out_points: tuple,
    n_nodes: int = 12,
):
    """Group convolution (phi *_k f)(z) = int phi(xi) f(xi o z) dxi.

    phi is a callable (ts, xs, vs) -> values supported in the box
    phi_box = ((t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi)) (per-dimension
    bounds reused across coordinates); f is a global evaluator with the same
    signature.  Returns values at out_points = (ts, xs, vs): ts (n,), xs and
    vs (n, d), or (n,) for d = 1.
    """
    (t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi) = phi_box
    ts_out = np.asarray(out_points[0], dtype=float)
    xs_out = _as_coords("out_points xs", out_points[1], len(ts_out))
    vs_out = _as_coords("out_points vs", out_points[2], len(ts_out))
    d = xs_out.shape[1]

    tq, twq = gauss_legendre_panel(t_lo, t_hi, n_nodes)
    xq, xwq = gauss_legendre_panel(x_lo, x_hi, n_nodes)
    vq, vwq = gauss_legendre_panel(v_lo, v_hi, n_nodes)
    axes = [tq] + [xq] * d + [vq] * d
    wts = [twq] + [xwq] * d + [vwq] * d
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*wts, indexing="ij")
    tt = grids[0].ravel()
    xx = np.column_stack([g.ravel() for g in grids[1 : 1 + d]])
    vv = np.column_stack([g.ravel() for g in grids[1 + d :]])
    ww = np.prod([g.ravel() for g in wgrids], axis=0)
    phi_vals = phi(tt, xx, vv) * ww

    out = np.empty(len(ts_out))
    for i in range(len(ts_out)):
        # xi o z for all quadrature nodes xi, z = (t_i, x_i, v_i)
        t_c = tt + ts_out[i]
        x_c = xx + xs_out[i][None, :] + ts_out[i] * vv
        v_c = vv + vs_out[i][None, :]
        out[i] = float(np.sum(phi_vals * f(t_c, x_c, v_c)))
    return out


def _tail_mass(density: Callable, d: int, support_radius: float, R: float) -> float:
    """Signed integral of the density over |w| > R (absolutely convergent)."""
    def ring(lo, hi):
        pts, wts = annulus_nodes(d, lo, hi, n_r=16, n_ang=32)
        return qintegrate(density(pts), pts, wts)

    return ring_sum(ring, dyadic_rings(R, range(160), support_radius), rtol=1e-16)


def freeze_split(
    F: KernelFamily,
    f: Callable,
    eta: CutoffSpec,
    z: Point,
    reg: tuple[float, float] | None = None,
    r_max_ring: int = 14,
) -> tuple[float, float, float]:
    """Frozen-kernel decomposition at z: (L0(eta f)(z), A(z), B(z)).

    K0 is the family kernel at the origin.  A collects the kernel variation
    acting on f; B collects the commutator of the cutoff with L0.  z must
    lie in the cutoff plateau (eta = 1 there), where for a solution of the
    variable-kernel equation with source c the identity
    (eta f)_t + v . grad_x (eta f) - L0(eta f) = c + A - B holds.

    f is a global evaluator (ts, xs, vs) -> values; reg = (C, eps) bounds
    its second v-difference near z.v by C |w|^{2s+eps} (default C = 1,
    eps = 2 - 2s, valid for |D_v^2 f| <= 1).
    """
    if float(np.linalg.norm(z.v)) >= eta.inner:
        raise ValueError("z must lie in the cutoff plateau")
    base = F.base
    if reg is None:
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
    # difference in B vanishes identically near w = 0 (plateau), so plain
    # dyadic rings are exact for it.
    L0_val, _ = _near_field(K0.density, base.d, base.s.two_s, eta_f, z.v, reg)
    A, _ = _near_field(diff, base.d, base.s.two_s, f_v, z.v, reg)
    pts, wts = ball_nodes(base.d, 1.0)
    b_plus = (eta(z.v[None, :] + pts) - eta_v) * f_v(z.v[None, :] + pts)
    b_minus = (eta(z.v[None, :] - pts) - eta_v) * f_v(z.v[None, :] - pts)
    B = 0.5 * qintegrate((b_plus + b_minus) * K0.density(pts), pts, wts)

    # Far fields: the panel integral of apply_pointwise for each integrand;
    # B's is (eta - eta(z.v)) f against K0, whose base value is 0.
    def far(density, g, g_base):
        return ring_sum(lambda lo, hi: _far_ring(density, base.d, g, z.v, g_base, lo, hi),
                        dyadic_rings(1.0, range(r_max_ring), K0.support_radius))

    L0_val += far(K0.density, eta_f, g0)
    A += far(diff, f_v, f0)
    B += far(K0.density, lambda varr: (eta(varr) - eta_v) * f_v(varr), 0.0)

    # Exact non-oscillatory tail corrections: beyond R_out the subtracted
    # base values integrate against the computable tail masses, leaving
    # only oscillatory remainders (small for decaying or oscillating f).
    R_out = 2.0**r_max_ring
    if R_out < K0.support_radius:
        L0_val -= g0 * _tail_mass(K0.density, base.d, K0.support_radius, R_out)
        A -= f0 * _tail_mass(diff, base.d, K0.support_radius, R_out)
    return L0_val, A, B


def freeze_identity_residual(
    F: KernelFamily,
    f: Callable,
    c: Callable,
    eta: CutoffSpec,
    z: Point,
    h_t: float = 1e-3,
    h_x: float = 1e-3,
    reg: tuple[float, float] | None = None,
    r_max_ring: int = 14,
) -> float:
    """Residual of (eta f)_t + v . grad_x (eta f) - L0(eta f) - (c + A - B) at z.

    The transport derivative of eta f is computed by 4th-order central
    differences; eta depends on v only, so it factors out of the stencil.
    """
    L0_val, A, B = freeze_split(F, f, eta, z, reg=reg, r_max_ring=r_max_ring)
    eta_z = float(eta(z.v[None, :])[0])

    def fval(t, x):
        return float(f(np.array([t]), np.asarray(x, dtype=float)[None, :], z.v[None, :])[0])

    c4 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    off = np.array([-2.0, -1.0, 1.0, 2.0])
    ft = sum(ci * fval(z.t + oi * h_t, z.x) for ci, oi in zip(c4, off)) / h_t
    transport = ft
    for i in range(z.d):
        e = np.zeros(z.d)
        e[i] = 1.0
        fx = sum(ci * fval(z.t, z.x + oi * h_x * e) for ci, oi in zip(c4, off)) / h_x
        transport += z.v[i] * fx
    transport *= eta_z
    c_val = float(np.asarray(c(np.array([z.t]), z.x[None, :], z.v[None, :])).ravel()[0])
    return abs(transport - L0_val - (c_val + A - B))
