"""Kinetic Hölder seminorm estimation by minimax polynomial fitting.

The seminorm of exponent alpha at a base point z0 is the smallest C with
|f(z) - p(z)| <= C d_l(z, z0)^alpha for some polynomial p of kinetic degree
below alpha.  On a sample set this is a small linear program per base point;
the domain seminorm takes the sup over a coarsened set of base points.
Discrete estimates are certified lower bounds of the continuum seminorm and
heuristic upper bounds; the gap is the sampling resolution, reported nowhere
as zero.

A fit is the discrete linear Chebyshev problem min_a max_i |A_i a - b_i| with
rows A_i = M_i / w_i, b_i = v_i / w_i (M the monomials at the sample, v its
value, w = d_l^alpha), a handful of unknowns and up to tens of thousands of
rows.  Samples at the base point are interpolation constraints, removed by a
null-space parametrization; inconsistent ones raise.  A column that then
vanishes on every row (samples on one t slab, a field constant in x) has a
free coefficient, set to 0.  The rest is `polynomials._exchange`, Stiefel's
exchange: the dual simplex of the fit LP (Cheney, Introduction to
Approximation Theory, ch. 2).  Its level bounds the optimum from below; the
returned residual is the largest deviation the polynomial attains, which
exceeds the level by at most 1e-12 relative plus 8 eps max |b|.  A fit the
exchange cannot set up or finish (no more rows than unknowns, a singular or
repeated reference) is solved as one HiGHS LP; no fit of the test suite or of
the benchmark sweep needs it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .fields import GridField, SampledField
from .group import Cylinder, Point, _as_exponent, left_distance_batch
from .polynomials import _DEGENERATE, KineticPolynomial, _exchange, monomial_basis

__all__ = [
    "HolderReport",
    "fit_expansion",
    "seminorm",
    "adimensional_seminorm",
    "derivative_field",
    "interpolation_check",
]

_COINCIDE = 1e-12


@dataclass
class HolderReport:
    alpha: float
    seminorm: float
    witness: tuple[Point, Point] | None
    expansions: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        wit = None
        if self.witness is not None:
            wit = [list(self.witness[0].to_array()), list(self.witness[1].to_array())]
        return json.dumps(
            {
                "alpha": self.alpha,
                "seminorm": self.seminorm,
                "witness": wit,
                "expansions": {k: p.to_records() for k, p in self.expansions.items()},
            }
        )


def _distances(f: SampledField, z0: Point, s, cache: dict | None) -> np.ndarray:
    if cache is not None:
        key = (z0.t, tuple(z0.x), tuple(z0.v))
        if key in cache:
            return cache[key]
    d = left_distance_batch(z0, f.ts, f.xs, f.vs, s)
    if cache is not None:
        cache[key] = d
    return d


def _chebyshev_fit(M, v, w, M_eq, v_eq) -> np.ndarray:
    """a minimizing max |M a - v| / w subject to M_eq a = v_eq.

    A column that vanishes on every row after the elimination has a free
    coefficient, set to 0.  The exchange solves the rest, and one LP what it
    cannot set up or finish.
    """
    n = M.shape[1]
    a0, null = np.zeros(n), np.eye(n)
    if len(v_eq):
        U, S, Vt = np.linalg.svd(M_eq)
        rank = int(np.sum(S > _DEGENERATE * S[0]))
        a0 = Vt[:rank].T @ ((U[:, :rank].T @ v_eq) / S[:rank])
        miss = np.abs(M_eq @ a0 - v_eq)
        k = int(np.argmax(miss))
        if miss[k] > _DEGENERATE * max(1.0, np.max(np.abs(v_eq))):
            raise ValueError(f"samples at the base point are inconsistent: value {v_eq[k]} "
                             f"is {miss[k]:.3g} off their least-squares fit")
        null = Vt[rank:].T
        if null.shape[1] == 0:
            return a0
    A = (M @ null) / w[:, None]
    scale = np.max(np.abs(A), axis=0, initial=0.0)
    keep = scale > 0
    if not np.all(keep):
        A, scale = A[:, keep], scale[keep]
    A = A / scale
    b = (v - M @ a0) / w
    fit = _exchange(A, b) if len(b) > A.shape[1] else None
    z = np.zeros(null.shape[1])
    z[keep] = (fit[0] if fit is not None else _one_lp(A, b)) / scale
    return a0 + null @ z


def _one_lp(A, b) -> np.ndarray:
    """min_z max_i |A_i z - b_i| as one HiGHS LP: minimize h subject to |A z - b| <= h."""
    n, h = A.shape[1], np.ones((len(b), 1))
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.block([[A, -h], [-A, -h]]),
                  b_ub=np.r_[b, -b], bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax fit LP failed: {res.message}")
    return res.x[:n]


def fit_expansion(
    f: SampledField,
    z0: Point,
    alpha: float,
    s,
    dist_cache: dict | None = None,
    sample_mask: np.ndarray | None = None,
):
    """Best expansion at z0: minimize max |f - p| / d_l(., z0)^alpha.

    The polynomial is returned in relative coordinates xi (z = z0 o xi) over
    the monomial basis of kinetic degree < alpha.  Samples with d_l or
    d_l^alpha at most 1e-12 become interpolation constraints.  Returns
    (polynomial, residual, witness sample index): the largest weighted
    deviation the polynomial attains, and the sample attaining it.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = _as_exponent(s)
    basis = monomial_basis(alpha, s, f.d)
    dists = _distances(f, z0, s, dist_cache)
    if sample_mask is not None:
        idx = np.flatnonzero(sample_mask)
    else:
        idx = np.arange(f.n)
    if len(idx) < len(basis):
        raise ValueError(f"underdetermined: {len(idx)} samples for basis size {len(basis)}")

    # Relative coordinates xi_i = z0^{-1} o z_i.
    ts = f.ts[idx] - z0.t
    vs = f.vs[idx] - z0.v[None, :]
    xs = f.xs[idx] - z0.x[None, :] - (f.ts[idx] - z0.t)[:, None] * z0.v[None, :]
    vals = f.values[idx]
    bad = idx[~np.isfinite(vals)]
    if len(bad):
        raise ValueError(f"sample values must be finite, got {f.values[bad[0]]} at sample {bad[0]}")
    dd = dists[idx]

    M = np.column_stack([KineticPolynomial.monomial(j, s).eval_arrays(ts, xs, vs) for j in basis])
    # Samples of distance or weight d_l^alpha at most _COINCIDE interpolate: at
    # a weight that small, a weighted deviation is rounding of the values.
    w = dd**alpha
    far = (dd > _COINCIDE) & (w > _COINCIDE)
    M_far, v_far, w = M[far], vals[far], w[far]
    coeffs = _chebyshev_fit(M_far, v_far, w, M[~far], vals[~far])
    poly = KineticPolynomial({j: c for j, c in zip(basis, coeffs)}, s, f.d)
    if not len(w):
        return poly, 0.0, None
    # residual and witness: the largest weighted deviation, and where it is attained
    dev = np.abs(M_far @ coeffs - v_far) / w
    wit = int(np.argmax(dev))
    residual, wit_idx = float(dev[wit]), idx[far][wit]
    return poly, residual, wit_idx


def seminorm(
    f: SampledField,
    base_points: Sequence[Point],
    alpha: float,
    s,
    dist_cache: dict | None = None,
) -> HolderReport:
    """Sup over base points of the minimax fit residual, with witness."""
    s = _as_exponent(s)
    if dist_cache is None:
        dist_cache = {}
    best = -1.0
    witness = None
    expansions = {}
    for z0 in base_points:
        poly, resid, wit = fit_expansion(f, z0, alpha, s, dist_cache=dist_cache)
        expansions[f"{z0.t:.6g},{z0.x.tolist()},{z0.v.tolist()}"] = poly
        if resid > best:
            best = resid
            witness = (z0, f.point(wit)) if wit is not None else (z0, z0)
    return HolderReport(alpha=float(alpha), seminorm=max(best, 0.0), witness=witness,
                        expansions=expansions)


def _coarsen(indices: np.ndarray, cap: int = 200) -> np.ndarray:
    if len(indices) <= cap:
        return indices
    step = int(math.ceil(len(indices) / cap))
    return indices[::step]


def adimensional_seminorm(
    f: SampledField,
    Q: Cylinder,
    alpha: float,
    s,
    max_base_points: int = 200,
) -> HolderReport:
    """sup_z d_z^alpha [f]_{alpha} over the sub-cylinder Q_{d_z}(z).

    d_z is the surrogate distance r - d_l(z0, z) to the lateral boundary.
    Base points are a coarsened subset of the interior samples (documented
    lower-bound estimator).
    """
    s = _as_exponent(s)
    cache: dict = {}
    d_from_center = left_distance_batch(Q.center, f.ts, f.xs, f.vs, s)
    inside = (f.ts <= Q.center.t + _COINCIDE) & (d_from_center < Q.radius)
    interior = np.flatnonzero(inside)
    if len(interior) == 0:
        raise ValueError("no samples inside the cylinder")
    base_idx = _coarsen(interior, max_base_points)
    best = -1.0
    witness = None
    expansions = {}
    for i in base_idx:
        z = f.point(int(i))
        dz = Q.radius - d_from_center[i]
        if dz <= 0:
            continue
        dists_z = _distances(f, z, s, cache)
        mask = (f.ts <= z.t + _COINCIDE) & (dists_z < dz)
        basis_size = len(monomial_basis(alpha, s, f.d))
        if int(np.sum(mask)) < max(basis_size, 2):
            continue
        poly, resid, wit = fit_expansion(f, z, alpha, s, dist_cache=cache, sample_mask=mask)
        val = dz**alpha * resid
        if val > best:
            best = val
            witness = (z, f.point(int(wit)) if wit is not None else z)
            expansions = {"witness_base": poly}
    if best < 0:
        raise ValueError("no base point admitted a determined fit")
    return HolderReport(alpha=float(alpha), seminorm=best, witness=witness, expansions=expansions)


def derivative_field(f: GridField, which: str, i: int = 0) -> GridField:
    """Central finite differences on the tensor grid.

    which: 't', 'x', 'v' (with index i), or 'transport' for d/dt + v.grad_x.
    Second-order stencils via numpy.gradient; one-sided at the edges.
    """
    d = f.d
    if which == "t":
        vals = np.gradient(f.values, f.t_axis, axis=0)
    elif which == "x":
        vals = np.gradient(f.values, f.x_axes[i], axis=1 + i)
    elif which == "v":
        vals = np.gradient(f.values, f.v_axes[i], axis=1 + d + i)
    elif which == "transport":
        vals = np.gradient(f.values, f.t_axis, axis=0)
        for k in range(d):
            gx = np.gradient(f.values, f.x_axes[k], axis=1 + k)
            shape = [1] * f.values.ndim
            shape[1 + d + k] = len(f.v_axes[k])
            vals = vals + f.v_axes[k].reshape(shape) * gx
    else:
        raise ValueError(f"unknown derivative {which!r}")
    return GridField(f.t_axis, f.x_axes, f.v_axes, vals, metadata=f"{f.metadata}|D[{which}]")


def interpolation_check(
    f: SampledField,
    base_points: Sequence[Point],
    alphas: tuple[float, float, float],
    s,
    tolerance_factor: float = 2.0,
) -> dict:
    """Estimate the three seminorms and test the interpolation inequality.

    With theta = (a3 - a2)/(a3 - a1), checks
    [f]_{a2} <= [f]_{a1}^theta [f]_{a3}^{1-theta} + [f]_{a1}
    up to the estimator tolerance factor.
    """
    a1, a2, a3 = alphas
    if not a1 < a2 < a3:
        raise ValueError("need a1 < a2 < a3")
    theta = (a3 - a2) / (a3 - a1)
    cache: dict = {}
    sn = [seminorm(f, base_points, a, s, dist_cache=cache).seminorm for a in (a1, a2, a3)]
    rhs = sn[0] ** theta * sn[2] ** (1.0 - theta) + sn[0]
    slack = tolerance_factor * rhs - sn[1]
    return {
        "alphas": (a1, a2, a3),
        "theta": theta,
        "seminorms": tuple(sn),
        "rhs": rhs,
        "slack": slack,
        "holds": bool(sn[1] <= tolerance_factor * rhs + 1e-12),
    }
