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
null-space parametrization.  The rest is Stiefel's exchange, the dual simplex
of the fit LP (Cheney, Introduction to Approximation Theory, ch. 2): a
reference R of n + 1 rows carries the null vector lambda of A_R^T, whose level
h = |lambda.b_R| / ||lambda||_1 bounds the optimum from below, and the primal
solving [A_R, sign lambda][a; h] = b_R.  The worst row enters; the row whose
drop maximizes the level leaves.  At the stop no row outside R deviates by
more than h (1 + 1e-12), the rows of R deviate by h up to rounding, and the
returned residual is the maximum deviation attained.  Parallel rows of
symmetric grids make references degenerate: a zero multiplier leaves the sign
of its row free, and the exchange takes the sign whose primal deviates least.
The level stays a lower bound, so the stop still certifies.  When a reference
repeats or its rows are rank deficient, the fit is solved as one HiGHS LP over
all of its rows instead.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linprog

from .fields import GridField, SampledField
from .group import Cylinder, Point, _as_exponent, left_distance_batch
from .polynomials import KineticPolynomial, monomial_basis

__all__ = [
    "HolderReport",
    "fit_expansion",
    "seminorm",
    "adimensional_seminorm",
    "derivative_field",
    "interpolation_check",
]

_COINCIDE = 1e-12
# Rows are rank deficient when a singular value is below _DEGENERATE times the
# largest; the exchange stops once no row outside the reference deviates by
# more than the level times 1 + _LEVEL_RTOL, and gives up after
# _MAX_EXCHANGES references.
_DEGENERATE = 1e-12
_LEVEL_RTOL = 1e-12
_MAX_EXCHANGES = 100
# A reference with up to _FREE_SIGNS zero multipliers tries every sign of their
# rows; 4 leaves no stall on the benchmark sweep grids or in criterion 7.
_FREE_SIGNS = 4


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


def _exchange(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """argmin_z max_i |A_i z - b_i| by Stiefel's exchange; None when it stalls.

    A has full column rank n and more than n rows.  The first reference is the
    first n + 1 pivots of QR with column pivoting on [A b]^T.
    """
    n = A.shape[1]
    ref = qr(np.column_stack([A, b]).T, mode="r", pivoting=True)[1][: n + 1]
    seen = set()
    for _ in range(_MAX_EXCHANGES):
        key = frozenset(ref.tolist())
        if key in seen:
            return None
        seen.add(key)
        A_ref = A[ref]
        U, S, _ = np.linalg.svd(A_ref)
        if S[-1] <= _DEGENERATE * S[0]:
            return None
        lam = U[:, n]
        if lam @ b[ref] < 0:
            lam = -lam
        level = lam @ b[ref] / np.sum(np.abs(lam))
        # A zero multiplier (parallel rows) leaves the sign of its row free:
        # of the primals for every choice, keep the one whose worst row
        # outside R deviates least.  The rows of R deviate by the level, up
        # to rounding.
        sign = np.sign(lam)
        free = np.flatnonzero(np.abs(lam) <= _DEGENERATE * np.max(np.abs(lam)))
        choices = (itertools.product((1.0, -1.0), repeat=len(free))
                   if len(free) <= _FREE_SIGNS else [sign[free]])
        worst = None
        for signs in choices:
            sign[free] = signs
            z_try = np.linalg.solve(np.column_stack([A_ref, sign]), b[ref])[:n]
            dev = np.abs(A @ z_try - b)
            dev[ref] = 0.0
            j_try = int(np.argmax(dev))
            if worst is None or dev[j_try] < worst:
                z, j, worst = z_try, j_try, dev[j_try]
        if worst <= level * (1.0 + _LEVEL_RTOL):
            return z
        # The null space of the n + 2 rows is 2-D; column k of ys is the
        # direction in it that vanishes on row k, the multipliers of the
        # reference without row k.  Keep a reference of largest level, and
        # among ties drop the row that entered first.
        ext = np.append(ref, j)
        Y = np.linalg.svd(A[ext])[0][:, n:]
        ys = Y @ np.column_stack([Y[:, 1], -Y[:, 0]]).T
        norm1 = np.sum(np.abs(ys), axis=0)
        ok = norm1 > _DEGENERATE * np.max(norm1)
        levels = np.where(ok, np.abs(b[ext] @ ys) / np.where(ok, norm1, 1.0), -1.0)
        ref = np.delete(ext, np.flatnonzero(levels >= np.max(levels) * (1.0 - _LEVEL_RTOL))[0])
    return None


def _chebyshev_fit(M, v, w, M_eq, v_eq) -> np.ndarray | None:
    """a minimizing max |M a - v| / w subject to M_eq a = v_eq, by the exchange.

    None when the constraints are inconsistent, the rows rank deficient or the
    exchange stalls.
    """
    n = M.shape[1]
    a0, null = np.zeros(n), np.eye(n)
    if len(v_eq):
        U, S, Vt = np.linalg.svd(M_eq)
        rank = int(np.sum(S > _DEGENERATE * S[0]))
        a0 = Vt[:rank].T @ ((U[:, :rank].T @ v_eq) / S[:rank])
        if np.max(np.abs(M_eq @ a0 - v_eq)) > _DEGENERATE * max(1.0, np.max(np.abs(v_eq))):
            return None
        null = Vt[rank:].T
        if null.shape[1] == 0:
            return a0
    if len(w) <= null.shape[1]:
        return None
    A = (M @ null) / w[:, None]
    scale = np.max(np.abs(A), axis=0)
    if not np.all(scale > 0):
        return None
    z = _exchange(A / scale, (v - M @ a0) / w)
    return None if z is None else a0 + null @ (z / scale)


def _one_lp(M, v, w, M_eq, v_eq) -> np.ndarray:
    """The same fit as one HiGHS LP over all rows: minimize c, |M a - v| <= c w."""
    n = M.shape[1]
    A_eq = b_eq = None
    if len(v_eq):
        A_eq = np.column_stack([M_eq, np.zeros(len(v_eq))])
        b_eq = v_eq
    res = linprog(
        np.r_[np.zeros(n), 1.0],
        A_ub=np.vstack([np.column_stack([M, -w]), np.column_stack([-M, -w])]),
        b_ub=np.concatenate([v, -v]),
        A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * n + [(0, None)], method="highs",
    )
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
    fit = (M_far, v_far, w, M[~far], vals[~far])
    coeffs = _chebyshev_fit(*fit)
    if coeffs is None:
        coeffs = _one_lp(*fit)
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
