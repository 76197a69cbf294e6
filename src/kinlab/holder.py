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

A seminorm fits all its base points as one batch (`fit_expansions`; a single
`fit_expansion` is a batch of one), in blocks of max(1, _FIT_BLOCK_PAIRS // N)
base points for N samples: per block one distance batch of the rows missing
from the cache, at most _FIT_BLOCK_PAIRS base-point x sample pairs (one row of
N if N is larger), the monomials, weights and eliminations as stacked arrays,
and the exchanges in lockstep.  Stacked `svd`, `solve` and `@` round as the
calls on one problem do, every fit of a batch keeps the same samples, and a
distance depends on its own pair only, so a fit reads the same, to the bit,
alone or in a batch, with or without a distance cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .fields import SampledField
from .group import Point, _as_exponent, pair_distance_batch
from .polynomials import _DEGENERATE, KineticPolynomial, _exchange, monomial_basis

__all__ = [
    "HolderReport",
    "fit_expansion",
    "fit_expansions",
    "seminorm",
    "interpolation_check",
]

_COINCIDE = 1e-12
# Fits, and their distance rows, run in blocks of max(1, _FIT_BLOCK_PAIRS // N)
# base points, N the number of samples.
_FIT_BLOCK_PAIRS = 2**15


@dataclass
class HolderReport:
    alpha: float
    seminorm: float
    witness: tuple[Point, Point] | None


def _take(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] for sorted distinct indices, without the copy when they are all of x's."""
    return x if len(idx) == len(x) else x[idx]


def _eliminations(M, vals, eq):
    """Groups (fits, a0, null) of the fits' interpolation constraints M a = vals on the rows eq.

    Every solution is a0 + null z.  A group shares the number of constraint
    rows and their rank, so its arrays stack: a0 (P, m), null (P, m, m - rank).
    Inconsistent constraints raise.
    """
    m = M.shape[2]
    counts = np.count_nonzero(eq, axis=1)
    for k in np.unique(counts):
        P = np.flatnonzero(counts == k)
        if k == 0:
            yield P, np.zeros((len(P), m)), np.broadcast_to(np.eye(m), (len(P), m, m))
            continue
        r_eq = (np.flatnonzero(_take(eq, P)) % eq.shape[1]).reshape(len(P), k)
        M_eq, v_eq = M[P[:, None], r_eq], vals[r_eq]
        U, S, Vt = np.linalg.svd(M_eq)
        rank = np.sum(S > _DEGENERATE * S[:, :1], axis=1)
        for r in np.unique(rank):
            Q = np.flatnonzero(rank == r)
            a0 = Vt[Q, :r].swapaxes(1, 2) @ ((U[Q, :, :r].swapaxes(1, 2) @ v_eq[Q, :, None]) / S[Q, :r, None])
            a0 = a0[:, :, 0]
            miss = np.abs((M_eq[Q] @ a0[:, :, None])[:, :, 0] - v_eq[Q])
            off = np.argmax(miss, axis=1)
            worst = miss[np.arange(len(Q)), off]
            bad = np.flatnonzero(worst > _DEGENERATE * np.maximum(1.0, np.max(np.abs(v_eq[Q]), axis=1)))
            if len(bad):
                q = bad[0]
                raise ValueError(f"samples at the base point are inconsistent: value {v_eq[Q[q], off[q]]} "
                                 f"is {worst[q]:.3g} off their least-squares fit")
            yield P[Q], a0, Vt[Q, r:].swapaxes(1, 2)


def _chebyshev_fits(M, vals, w, far, eq) -> np.ndarray:
    """Coefficients (B, m) minimizing max over far rows of |M a - vals| / w subject to M a = vals on eq rows.

    M (B, R, m) holds each fit's monomials on shared samples, vals (R,)
    their values, w (B, R) the weights (1 off the far rows).  A column that
    vanishes on every far row after the elimination has a free coefficient,
    set to 0.  The exchange solves the rest, and one LP what it cannot set
    up or finish.
    """
    coeffs = np.empty((M.shape[0], M.shape[2]))
    for P, a0, null in _eliminations(M, vals, eq):
        if null.shape[2] == 0:
            coeffs[P] = a0
            continue
        M_p, w_p, far_p = _take(M, P), _take(w, P), _take(far, P)
        A = (M_p @ null) / w_p[:, :, None]
        b = (vals - (M_p @ a0[:, :, None])[:, :, 0]) / w_p
        A[~far_p] = 0.0
        b[~far_p] = 0.0
        scale = np.max(np.abs(A), axis=1)
        keep = scale > 0
        z = np.zeros(scale.shape)
        n_keep = np.count_nonzero(keep, axis=1)
        for n in np.unique(n_keep):
            Q = np.flatnonzero(n_keep == n)
            cols = np.argsort(~keep[Q], axis=1, kind="stable")[:, :n]
            sc = np.take_along_axis(_take(scale, Q), cols, axis=1)
            A_q = _take(A, Q)
            if n < keep.shape[1]:
                A_q = np.take_along_axis(A_q, cols[:, None, :], axis=2)
            A_q = A_q / sc[:, None, :]
            b_q, far_q = _take(b, Q), _take(far_p, Q)
            solvable = np.flatnonzero(np.count_nonzero(far_q, axis=1) > n)
            fits = [None] * len(Q)
            if len(solvable):
                stack = (_take(x, solvable) for x in (A_q, b_q, far_q))
                for q, fit in zip(solvable, _exchange(*stack)):
                    fits[q] = fit
            for q, fit in enumerate(fits):
                sol = fit[0] if fit is not None else _one_lp(A_q[q][far_q[q]], b_q[q][far_q[q]])
                z[Q[q], cols[q]] = sol / sc[q]
        coeffs[P] = a0 + (null @ z[:, :, None])[:, :, 0]
    return coeffs


def _one_lp(A, b) -> np.ndarray:
    """min_z max_i |A_i z - b_i| as one HiGHS LP: minimize h subject to |A z - b| <= h."""
    n, h = A.shape[1], np.ones((len(b), 1))
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.block([[A, -h], [-A, -h]]),
                  b_ub=np.r_[b, -b], bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax fit LP failed: {res.message}")
    return res.x[:n]


def fit_expansions(
    f: SampledField,
    base_points: Sequence[Point],
    alpha: float,
    s,
    dist_cache: dict | None = None,
    sample_mask: np.ndarray | None = None,
):
    """The fits of `fit_expansion` at every base point at once.

    sample_mask (N,), shared by every base point, selects the fits' samples;
    any other shape raises.  Returns (coefficients (B, m) over `monomial_basis`,
    residuals (B,), witness sample indices (B,)), a witness -1 where every
    sample interpolates.

    Base points are fitted in blocks of max(1, _FIT_BLOCK_PAIRS // N), N counting
    every sample, masked or not.  A block makes one `pair_distance_batch` call for
    the rows d_l(z0, .) to all N samples that dist_cache lacks, and adds them to it:
    at most _FIT_BLOCK_PAIRS pairs, or one row of N pairs when N > _FIT_BLOCK_PAIRS.
    The fits read the rows' masked columns.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = _as_exponent(s)
    basis = monomial_basis(alpha, s, f.d)
    base = list(base_points)
    B, m = len(base), len(basis)
    mask = np.ones(f.n, bool) if sample_mask is None else np.asarray(sample_mask, bool)
    if mask.shape != (f.n,):
        raise ValueError(f"sample_mask must have shape ({f.n},), got {mask.shape}")
    rows = np.flatnonzero(mask)
    if len(rows) < m:
        raise ValueError(f"underdetermined: {len(rows)} samples for basis size {m}")
    vals = f.values[rows]
    bad = rows[~np.isfinite(vals)]
    if len(bad):
        raise ValueError(f"sample values must be finite, got {f.values[bad[0]]} at sample {bad[0]}")
    cache = {} if dist_cache is None else dist_cache
    coeffs, resid, wit = np.empty((B, m)), np.zeros(B), np.full(B, -1)
    per = max(1, _FIT_BLOCK_PAIRS // f.n)
    for lo in range(0, B, per):
        blk = slice(lo, lo + per)
        pts = base[blk]
        t0, x0, v0 = np.array([z.t for z in pts]), np.array([z.x for z in pts]), np.array([z.v for z in pts])
        keys = [(z.t, tuple(z.x), tuple(z.v)) for z in pts]
        todo = {k: i for i, k in enumerate(keys) if k not in cache}
        if todo:
            # pair (i, j) of the batch is (base point i of todo, sample j)
            i = list(todo.values())
            pairs = [np.repeat(a[i], f.n, axis=0) for a in (t0, x0, v0)]
            pairs += [np.concatenate([a] * len(i)) for a in (f.ts, f.xs, f.vs)]
            cache.update(zip(todo, pair_distance_batch(*pairs, s).reshape(len(i), f.n)))
        # Relative coordinates xi_i = z0^{-1} o z_i.
        ts = f.ts[rows] - t0[:, None]
        vs = f.vs[rows] - v0[:, None, :]
        xs = f.xs[rows] - x0[:, None, :] - ts[:, :, None] * v0[:, None, :]
        flat = (ts.ravel(), xs.reshape(-1, f.d), vs.reshape(-1, f.d))
        M = np.stack([KineticPolynomial.monomial(j, s).eval_arrays(*flat).reshape(ts.shape)
                      for j in basis], axis=2)
        # Samples of distance or weight d_l^alpha at most _COINCIDE interpolate: at
        # a weight that small, a weighted deviation is rounding of the values.
        dd = np.array([cache[k][rows] for k in keys])
        w = dd**alpha
        far = (dd > _COINCIDE) & (w > _COINCIDE)
        eq = ~far
        w[eq] = 1.0
        c = _chebyshev_fits(M, vals, w, far, eq)
        # residual and witness: the largest weighted deviation, and where it is attained
        dev = np.abs((M @ c[:, :, None])[:, :, 0] - vals) / w
        dev[eq] = -1.0
        k = np.argmax(dev, axis=1)
        hit = np.any(far, axis=1)
        coeffs[blk] = c
        resid[blk] = np.where(hit, dev[np.arange(len(k)), k], 0.0)
        wit[blk] = np.where(hit, rows[k], -1)
    return coeffs, resid, wit


def fit_expansion(
    f: SampledField,
    z0: Point,
    alpha: float,
    s,
    sample_mask: np.ndarray | None = None,
):
    """Best expansion at z0: minimize max |f - p| / d_l(., z0)^alpha.

    The polynomial is returned in relative coordinates xi (z = z0 o xi) over
    the monomial basis of kinetic degree < alpha.  Samples with d_l or
    d_l^alpha at most 1e-12 become interpolation constraints.  Returns
    (polynomial, residual, witness sample index): the largest weighted
    deviation the polynomial attains, and the sample attaining it (None
    when every sample interpolates).
    """
    coeffs, resid, wit = fit_expansions(f, [z0], alpha, s, sample_mask=sample_mask)
    poly = KineticPolynomial(dict(zip(monomial_basis(alpha, s, f.d), coeffs[0])), s, f.d)
    return poly, float(resid[0]), (int(wit[0]) if wit[0] >= 0 else None)


def seminorm(
    f: SampledField,
    base_points: Sequence[Point],
    alpha: float,
    s,
    dist_cache: dict | None = None,
) -> HolderReport:
    """Sup over base points of the minimax fit residual, with witness."""
    base_points = list(base_points)
    _, resid, wit = fit_expansions(f, base_points, alpha, s, dist_cache)
    if not base_points:
        return HolderReport(alpha=float(alpha), seminorm=0.0, witness=None)
    i = int(np.argmax(resid))
    z0 = base_points[i]
    witness = (z0, f.point(int(wit[i])) if wit[i] >= 0 else z0)
    return HolderReport(alpha=float(alpha), seminorm=float(resid[i]), witness=witness)


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
