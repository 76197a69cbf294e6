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
null-space parametrization; inconsistent ones raise.  A sample is at the base
point when its t, x and v each agree with the base point's to within 4 ulp of
the larger magnitude, or when its weight d_l^alpha is at most _COINCIDE: at a
weight that small, a weighted deviation is rounding of the values.  (At
s = 0.05, a sample 1/24 away in t lies at d_l = 1.6e-14, and is far.)  A
column that then vanishes on every row (samples on one t slab, a field
constant in x) has a free coefficient, set to 0.  The rest is
`polynomials._exchange`, Stiefel's
exchange: the dual simplex of the fit LP (Cheney, Introduction to
Approximation Theory, ch. 2).  Its level bounds the optimum from below; the
returned residual is the largest deviation the polynomial attains, which
exceeds the optimum by at most 1e-12 relative plus 8 eps max |b|.  A fit the
exchange cannot set up or finish (no more rows than unknowns, a singular
reference, a cycle of references its core fit cannot resolve) is solved as
one HiGHS LP, with scipy.optimize imported on its first call; no fit of the
test suite or of the benchmark sweep needs it.

Most rows cannot bind a fit, and every fit with a free coefficient takes one
routine, `_fit_working_sets`: exact distances only for a working set of its
rows, in the manner of Remez's exchange or a cutting plane.
The floor d_l >= max(|tbar|^{1/2s}, |v0 - v|/2), the distance itself where
tbar = 0 (`group._floor_terms`: never above the computed distance, to the
bit), costs one fractional power per row where d_l costs a root.  It is read
off the fits' relative coordinates, |t - t0| = |tbar|, |v - v0| = |v0 - v|
and, where tbar = 0, |x - x0| = |xbar|, each to the bit, unless the base
points and samples are large enough for `pair_distance_batch` to dilate a
pair (`group._dilates`); then `group._distance_floor` forms it as the
distance does.  A row with tbar = 0 takes the floor as its distance.  The
set starts on every row whose floor cannot prove its weight above _COINCIDE,
the rows of smallest floor and a spread of the samples, or, where that would
be _WS_FRACTION of the rows or more, on every far row.  The exchange solves the
sets; once every fit of the stack is optimal on its set, a certificate round
takes the deviations dev_i = |M_i a - v_i| on every row and divides each
once, by the row's weight in w: d_l^alpha on the set, floor_i^alpha off it.
The residual is the largest quotient on the set.  A row off the set whose
quotient is below it is below it at its own weight too, so it neither
attains nor ties the residual.  The worst uncertified rows get exact
distances and join the set, and the exchange goes on from its reference;
where more than half of the rows off the set stay uncertified after a first
round, or the residual is 0 (exactly fittable data), they all join at once.
The residual keeps its meaning: the largest weighted deviation the
polynomial attains over every masked row, the witness being the first
sample that attains it.

A fit with no free coefficient is a plain Hölder quotient: its order is at
most min(1, 2s), so the basis is {1}, and a sample at the base point fixes
the constant c, so the residual is max_i |v_i - c| / d_l(z_i, z0)^alpha.
Such fits are told by the samples' coordinates before any distance, and take
`_fit_constants` at any size: each row's quotient is at most its bound
|v_i - c| / floor_i^alpha; the _WS_START rows of largest bound take exact
distances and give a level L, and one more batch takes exact distances for
every other row whose bound reaches L.  A row left out has a quotient below
L, which is at most the residual, so it neither attains nor ties it: two
rounds suffice, and no such fit computes a full distance row.  Both fit
routines share the certificate's helpers.  A working-set fit whose interpolation
constraints leave no free coefficient otherwise (by weight alone, or m of
them of full rank) takes every far row, and so does one none of whose
columns reaches its start set.

A seminorm fits all its base points as one batch (`fit_expansions`; a single
`fit_expansion` is a batch of one).  Fits of a fixed constant, and fits
whose working set starts on the floor-chosen set, go in blocks of
max(1, _WS_BLOCK_PAIRS // R) base points; those that start on every far row
go in blocks of max(1, _FIT_BLOCK_PAIRS // R) base points, with the distances
of their masked pairs only.  No distance batch holds more than _FIT_BLOCK_PAIRS
base-point x sample pairs.  A block stacks the monomials, weights and
eliminations, and runs the exchanges in lockstep.  Stacked `svd`, `inv` and
`@` round as the calls on one problem do, a working set keeps the order of
its rows and pads with zero rows, and a distance depends on its own pair
only, so a fit reads the same, to the bit, alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import SampledField
from .group import Point, _as_exponent, _dilates, _distance_floor, _floor, pair_distance_batch
from .polynomials import _DEGENERATE, KineticPolynomial, _exchange, monomial_basis

__all__ = [
    "HolderReport",
    "fit_expansion",
    "fit_expansions",
    "seminorm",
    "interpolation_check",
]

_COINCIDE = 1e-12
# A distance batch of a fit holds at most _FIT_BLOCK_PAIRS (base point, sample) pairs, and
# fits that start on all their R rows run in blocks of max(1, _FIT_BLOCK_PAIRS // R) base points.
_FIT_BLOCK_PAIRS = 2**15
# Working sets (see fit_expansions): a fit's exact distances start on the rows its floor
# cannot prove far, the _WS_START of smallest floor and _WS_SPREAD spread over the samples,
# and each round of the certificate adds at most _WS_ADD rows.  Fits start there where that
# start is below _WS_FRACTION of their R rows, in blocks of max(1, _WS_BLOCK_PAIRS // R)
# base points, and on every far row elsewhere.
_WS_START = 32
_WS_SPREAD = 64
_WS_ADD = 256
_WS_FRACTION = 0.25
_WS_BLOCK_PAIRS = 2**17


@dataclass
class HolderReport:
    alpha: float
    seminorm: float
    witness: tuple[Point, Point] | None


def _take(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] for sorted distinct indices, without the copy when they are all of x's."""
    return x if len(idx) == len(x) else x[idx]


def _nonzero(mask: np.ndarray):
    """np.nonzero of a 2-D mask, from its flat indices: several times faster on wide masks."""
    return np.divmod(mask.ravel().nonzero()[0], mask.shape[1])


def _positions(sel: np.ndarray):
    """(idx, valid) for a boolean (L, R): idx (L, W) lists each row's True columns in order,
    padded with 0 up to W, the largest count, and valid marks the listed entries."""
    bi, ri = _nonzero(sel)
    cnt = np.bincount(bi, minlength=len(sel))
    idx = np.zeros((len(sel), cnt.max(initial=0)), np.intp)
    idx[bi, np.arange(len(bi)) - np.repeat(np.cumsum(cnt) - cnt, cnt)] = ri
    return idx, np.arange(idx.shape[1]) < cnt[:, None]


def _coincident(z0, z):
    """Pairs (i, j) of base points and samples whose coordinates each agree to within 4 ulp of the
    larger magnitude.  z0 and z list the coordinate columns t, x_1.., v_1.. of the base points
    and of the samples.  The samples whose t lies in a window about t0 are compared, by columns
    from the last."""
    ulps = 4.0 * np.finfo(float).eps
    order = np.argsort(z[0], kind="stable")
    t = z[0][order]
    with np.errstate(over="ignore"):
        # twice the widest tolerance, which the rounding of t0 -+ tol cannot undercut
        tol = 2.0 * ulps * max(np.max(np.abs(z0[0]), initial=0.0), np.max(np.abs(t), initial=0.0))
        lo, hi = np.searchsorted(t, z0[0] - tol, "left"), np.searchsorted(t, z0[0] + tol, "right")
        cnt = hi - lo
        i = np.repeat(np.arange(len(lo)), cnt)
        j = order[np.arange(len(i)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
        for a, b in zip(z0[::-1], z[::-1]):
            a, b = a[i], b[j]
            k = np.abs(a - b) <= ulps * np.maximum(np.abs(a), np.abs(b))
            i, j = i[k], j[k]
    return i, j


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
        if m == 1 and k == 1 and (M_eq == 1.0).all():
            # one constraint a = v on the basis {1}: its SVD is exact (S = 1, U = Vt = +-1), and a0 = v
            yield P, v_eq, M_eq[:, :, :0]
            continue
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


def _values(M, c):
    """M @ c by fits, M (B, R, m) and c (B, m): a product where m = 1."""
    return M[:, :, 0] * c[:, :1] if M.shape[2] == 1 else (M @ c[:, :, None])[:, :, 0]


def _coefficients(a0, null, z):
    """a0 + null z by fits: the coefficients of the parametrization of `_eliminations`."""
    return a0 + (null @ z[:, :, None])[:, :, 0]


def _monomials(basis, axes) -> np.ndarray:
    """The basis monomials at the relative coordinates axes = [t, x_1..x_d, v_1..v_d], arrays
    (B, R): M (B, R, m).  A monomial is the product of its factors' powers in that order, as
    `KineticPolynomial.eval_arrays` forms it (to the bit), with each power taken once."""
    M = np.empty(axes[0].shape + (len(basis),))
    powers = {(k, 1): a for k, a in enumerate(axes)}
    for i, j in enumerate(basis):
        col = None
        for k, e in enumerate((j.j_t, *j.j_x, *j.j_v)):
            if e:
                if (k, e) not in powers:
                    powers[k, e] = axes[k] ** e
                col = powers[k, e] if col is None else col * powers[k, e]
        M[:, :, i] = 1.0 if col is None else col
    return M


def _chebyshev_fits(M, vals, w, far, eq, rows, grow) -> np.ndarray:
    """Coefficients (B, m) minimizing max over far rows of |M a - vals| / w subject to M a = vals on eq rows.

    M (B, R, m) holds each fit's monomials on shared samples, vals (R,)
    their values, w (B, R) the weights (1 off the far rows).  A column that
    vanishes on every far row of the set after the elimination has a free
    coefficient, set to 0.  The exchange solves the rest, and one LP what it
    cannot set up or finish.

    rows (B, R), far rows only, is the working set the fits start from; w
    must be exact there and on the eq rows.  grow(fits, coeffs) is the
    certificate: it is called whenever fits' coefficients are optimal on
    their rows, and returns (counts, rows): per fit the number of far rows
    to add, 0 where its coefficients are final, and their indices, grouped
    by fit, whose weights it has made exact in w; with coeffs None it adds
    every far row off the set.  A fit whose new rows need a column it
    dropped, or none of whose columns reaches a set that lacks far rows, is
    solved again with every far row on its set; one with no free coefficient
    takes every far row and one certificate.
    """
    B, R, m = M.shape
    coeffs = np.empty((B, m))
    for P, a0, null in _eliminations(M, vals, eq):
        if null.shape[2] == 0:
            coeffs[P] = a0
            grow(P, None)
            grow(P, a0)
            continue
        # the working set, compacted
        idx, valid = _positions(_take(rows, P))
        M_s, w_s, v_s = M[P[:, None], idx], w[P[:, None], idx], vals[idx]
        A = (M_s @ null) / w_s[:, :, None]
        b = (v_s - (M_s @ a0[:, :, None])[:, :, 0]) / w_s
        A[~valid] = 0.0
        b[~valid] = 0.0
        scale = np.max(np.abs(A), axis=1)
        keep = scale > 0
        z = np.zeros(scale.shape)
        redo = []
        n_keep = np.count_nonzero(keep, axis=1)
        for n in np.unique(n_keep):
            Q = np.flatnonzero(n_keep == n)
            if n == 0:
                # a0 is final where every far row is on the set, and the fit is solved again otherwise
                every = np.count_nonzero(valid[Q], axis=1) == np.count_nonzero(far[P[Q]], axis=1)
                redo.extend(Q[~every])
                if every.any():
                    grow(P[Q[every]], a0[Q[every]])
                continue
            cols = np.argsort(~keep[Q], axis=1, kind="stable")[:, :n]
            sc = np.take_along_axis(_take(scale, Q), cols, axis=1)
            A_q = _take(A, Q)
            if n < keep.shape[1]:
                A_q = np.take_along_axis(A_q, cols[:, None, :], axis=2)
            A_q = A_q / sc[:, None, :]
            b_q, far_q = _take(b, Q), _take(valid, Q)
            extra = []  # (fits, A rows, b rows) of every settle call, for the LP below

            def settle(qs, zs, Q=Q, cols=cols, sc=sc, extra=extra, n=n):
                """grow at the fits P[Q[qs]] from their scaled unknowns zs: (counts, A rows,
                b rows) of the new rows, scaled as A_q and b_q and grouped by fit."""
                zf = np.zeros((len(qs), null.shape[2]))
                zf[np.arange(len(qs))[:, None], cols[qs]] = zs / sc[qs]
                n_r, r = grow(P[Q[qs]], _coefficients(a0[Q[qs]], null[Q[qs]], zf))
                qq = np.repeat(qs, n_r)
                M_r, w_r, p = M[P[Q[qq]], r], w[P[Q[qq]], r], Q[qq]
                An = (M_r[:, None, :] @ null[p])[:, 0, :]
                a = An / w_r[:, None]
                if n < keep.shape[1]:
                    redo.extend(p[np.any((An != 0.0) & ~keep[p], axis=1)])
                    a = np.take_along_axis(a, cols[qq], axis=1)
                a /= sc[qq]
                b_r = (vals[r] - (M_r[:, None, :] @ a0[p][:, :, None])[:, 0, 0]) / w_r
                extra.append((qq, a, b_r))
                return n_r, a, b_r

            solvable = np.flatnonzero(np.count_nonzero(far_q, axis=1) > n)
            fits = [None] * len(Q)
            if len(solvable):
                stack = [_take(x, solvable) for x in (A_q, b_q, far_q)]
                more = lambda k, zs, settle=settle, sv=solvable: settle(sv[k], zs)
                for q, fit in zip(solvable, _exchange(*stack, grow=more)):
                    fits[q] = fit
            for q, fit in enumerate(fits):
                while fit is None:
                    rows_q = [(A_q[q][far_q[q]], b_q[q][far_q[q]])] + [(a[qq == q], b_r[qq == q])
                                                                        for qq, a, b_r in extra]
                    sol = _one_lp(np.concatenate([x[0] for x in rows_q]), np.concatenate([x[1] for x in rows_q]))
                    if settle(np.array([q]), sol[None])[0][0] == 0:
                        fit = (sol,)
                z[Q[q], cols[q]] = fit[0] / sc[q]
        coeffs[P] = _coefficients(a0, null, z)
        for p in sorted(set(redo)):
            # every far row joins, and the fit is solved again on them
            grow(P[[p]], None)
            coeffs[P[p]] = _chebyshev_fits(M[P[[p]]], vals, w[P[[p]]], far[P[[p]]], eq[P[[p]]], far[P[[p]]],
                                           lambda fits, c, p=P[p]: grow(np.array([p]), c))[0]
    return coeffs


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: only the HiGHS fallback needs it."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _one_lp(A, b) -> np.ndarray:
    """min_z max_i |A_i z - b_i| as one HiGHS LP: minimize h subject to |A z - b| <= h."""
    n, h = A.shape[1], np.ones((len(b), 1))
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.block([[A, -h], [-A, -h]]),
                  b_ub=np.r_[b, -b], bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax fit LP failed: {res.message}")
    return res.x[:n]


def _exact(dd, fi, distances) -> np.ndarray:
    """The distances of the pairs fi, flat indices fit * R + row of dd (B, R), C-contiguous;
    those dd lacks (NaN) are computed by distances(fits, rows) and stored in dd."""
    dd_f = dd.reshape(-1)
    d = dd_f[fi]
    k = np.isnan(d)
    if k.any():
        d[k] = dd_f[fi[k]] = distances(*np.divmod(fi[k], dd.shape[1]))
    return d


def _interpolating(w, dd, near, unsure, alpha, distances) -> np.ndarray:
    """The interpolating rows (B, R) of the fits, which take weight 1 in w: the samples at the base
    point (flat indices near), and the rows unsure, whose weights w takes exactly, of weight
    d_l^alpha at most _COINCIDE.  At a weight that small, a weighted deviation is rounding of the values."""
    eq = np.zeros(w.shape, bool)
    eq.reshape(-1)[near] = True
    fi = np.flatnonzero(unsure & ~eq)
    w.reshape(-1)[fi] = _exact(dd, fi, distances) ** alpha
    eq |= unsure & (w <= _COINCIDE)
    w[eq] = 1.0
    return eq


def _level(quot):
    """(level, witness) of quot (B, R), the quotients of the rows weighed and -1 elsewhere: by
    fits, the largest quotient and the first row attaining it, or (0, -1) where none is weighed."""
    at = quot.argmax(axis=1)
    level = quot[np.arange(len(quot)), at]
    hit = level >= 0.0
    return np.where(hit, level, 0.0), np.where(hit, at, -1)


def _every_row(R, m):
    """Whether fits of R rows and m unknowns start their working sets on every far row."""
    return _WS_FRACTION * R <= max(_WS_START, m + 1) + _WS_SPREAD


def _fit_constants(M, vals, dd, floor, near, alpha, distances):
    """Coefficients, residuals and witness rows (-1 for none) of fits of the basis {1} with a
    sample at the base point, in two rounds of exact distances (see the module docstring).

    M (B, R, 1), and dd, floor, near and distances as `_fit_working_sets` takes them; each
    fit has a sample at the base point.
    """
    B, R, _ = M.shape
    with np.errstate(over="ignore"):
        w = floor**alpha
    # Weights the floor cannot prove above _COINCIDE are taken exactly.  (A floor of weight
    # inf bounds the quotient by 0, its own at d_l = inf.)
    eq = _interpolating(w, dd, near, w <= _COINCIDE, alpha, distances)
    c = np.empty((B, 1))
    for P, a0, _ in _eliminations(M, vals, eq):
        c[P] = a0
    dev = np.abs(c - vals)
    # Each row's quotient is at most its bound, the deviation over its weight in w.  The
    # _WS_START rows of largest bound give a level L; a row whose bound is below L can neither
    # attain nor tie the residual, and the others get their exact weights.
    bound = dev / w
    bound[eq] = -1.0
    k = min(_WS_START, R)
    fi = (np.argpartition(bound, R - k, axis=1)[:, R - k:] + R * np.arange(B)[:, None]).ravel()
    fi = fi[bound.reshape(-1)[fi] >= 0.0]
    top = np.full((B, R), -1.0)
    top.reshape(-1)[fi] = dev.reshape(-1)[fi] / _exact(dd, fi, distances)**alpha
    fi = np.flatnonzero(bound >= _level(top)[0][:, None])
    # residual and witness: the largest weighted deviation, and the first sample attaining it
    quot = np.full((B, R), -1.0)
    quot.reshape(-1)[fi] = dev.reshape(-1)[fi] / _exact(dd, fi, distances)**alpha
    return (c, *_level(quot))


def _fit_working_sets(M, vals, dd, floor, near, alpha, distances):
    """Coefficients, residuals and witness rows (-1 for none) of the fits over every row, with
    exact distances only on their working sets (see fit_expansions).

    dd (B, R), C-contiguous, holds the distances known and NaN elsewhere, and receives those
    computed; floor (B, R) bounds them from below; near holds the flat indices fit * R + row
    of the samples at the base point; distances(i, j) returns those of the pairs (fit i, row j).
    """
    B, R, m = M.shape
    whole = _every_row(R, m)
    with np.errstate(over="ignore"):
        w = floor**alpha
    # exact weights where the floor cannot prove d_l^alpha above _COINCIDE, or on every row
    unsure = ~((w > _COINCIDE) & (w < np.inf)) | whole
    eq = _interpolating(w, dd, near, unsure, alpha, distances)
    # by (fit, row): 0 off the working set, weighed by the floor in w; 1 on it, exact and
    # far; 2 interpolating, of weight 1.  Pairs go by flat index fit * R + row.
    state = np.where(eq, 2, unsure).astype(np.int8)
    coeffs, resid, wit = np.empty((B, m)), np.zeros(B), np.full(B, -1)
    rounds = np.zeros(B, int)

    def fetch(fi):
        """Exact weights of the pairs fi, which join the working set."""
        w.reshape(-1)[fi] = _exact(dd, fi, distances) ** alpha
        state.reshape(-1)[fi] = 1

    if not whole:
        sure = state == 0
        k0 = max(_WS_START, m + 1)
        start = np.zeros_like(sure)
        start[np.arange(B)[:, None], np.argpartition(np.where(sure, floor, np.inf), k0 - 1, axis=1)[:, :k0]] = True
        start[:, np.linspace(0, R - 1, _WS_SPREAD).astype(int)] = True
        fetch(np.flatnonzero(start & sure))

    def grow(fits, c):
        """Certify the fits' coefficients c over every row, or pick rows to add (see _chebyshev_fits).

        One pass over the (fit, row) pairs divides each deviation by the row's
        weight in w: exact on the working set, the floor's off it.  The
        residual is the largest on the set, and the witness the first sample
        attaining it.  A row off the set whose deviation over its floor weight
        is below the residual is below it at its own weight too: it neither
        attains nor ties the residual.  The others are open: the _WS_ADD with
        the largest bound join the set, and all of them do where, after a first
        round, they are still more than half of the rows off the set, or where
        the residual is 0.
        """
        st = _take(state, fits)
        if c is None:
            q, k = _nonzero(st == 0)
            fetch(fits[q] * R + k)
            return np.bincount(q, minlength=len(fits)), k
        bound = abs(_values(_take(M, fits), c) - vals) / _take(w, fits)
        off = st == 0
        level, at = _level(np.where(st == 1, bound, -1.0))
        open_ = off & (bound >= level[:, None])
        n_open = open_.sum(axis=1)
        every = ((rounds[fits] > 0) & (2 * n_open > off.sum(axis=1)) | (at >= 0) & (level <= 0.0)) & (n_open > 0)
        rounds[fits] += 1
        big = ((n_open > _WS_ADD) & ~every).nonzero()[0]
        if len(big):
            open_[big] = False
            top = np.argpartition(np.where(off[big], -bound[big], np.inf), _WS_ADD - 1, axis=1)
            open_[big[:, None], top[:, :_WS_ADD]] = True
        done = n_open == 0
        coeffs[fits[done]], resid[fits[done]], wit[fits[done]] = c[done], level[done], at[done]
        q, k = _nonzero(open_)
        fetch(fits[q] * R + k)
        return np.bincount(q, minlength=len(fits)), k

    _chebyshev_fits(M, vals, w, ~eq, eq, state == 1, grow)
    return coeffs, resid, wit


def fit_expansions(
    f: SampledField,
    base_points: Sequence[Point],
    alpha: float,
    s,
    sample_mask: np.ndarray | None = None,
):
    """The fits of `fit_expansion` at every base point at once.

    sample_mask, a boolean (N,) shared by every base point, selects the
    fits' samples; any other dtype or shape raises, as does a base point of
    another dimension than the field's.  Returns (coefficients (B, m) over
    `monomial_basis`, residuals (B,), witness sample indices (B,)), a witness
    -1 where every sample interpolates.

    A sample is at the base point when its t, x and v each agree with the
    base point's to within 4 ulp of the larger magnitude, or when its weight
    d_l^alpha is at most 1e-12; such samples are interpolation constraints.
    A fit of the basis {1} with a sample at the base point has no free
    coefficient and takes two rounds of exact distances (see the module
    docstring).  Every other fit weighs a working set certified by the
    distance floor, which starts on every far row of its R masked rows where
    the floor-chosen start would hold _WS_FRACTION of them or more, in blocks
    of max(1, _FIT_BLOCK_PAIRS // R) base points, and on the floor-chosen set
    elsewhere, in blocks of max(1, _WS_BLOCK_PAIRS // R), as are the fits of a
    fixed constant.  Both fit routines share one certificate.  A fit computes the
    distances of the (base point, masked sample) pairs it weighs only, in
    `pair_distance_batch` calls of at most _FIT_BLOCK_PAIRS pairs.
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    s = _as_exponent(s)
    basis = monomial_basis(alpha, s, f.d)
    base = list(base_points)
    B, m = len(base), len(basis)
    for i, z in enumerate(base):
        if z.d != f.d:
            raise ValueError(f"base point {i} has dimension {z.d}, but the field has dimension {f.d}")
    mask = np.ones(f.n, bool) if sample_mask is None else np.asarray(sample_mask)
    if mask.dtype != bool:
        raise ValueError(f"sample_mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != (f.n,):
        raise ValueError(f"sample_mask must have shape ({f.n},), got {mask.shape}")
    rows = np.flatnonzero(mask)
    R = len(rows)
    if R < m:
        raise ValueError(f"underdetermined: {R} samples for basis size {m}")
    vals = f.values[rows]
    bad = rows[~np.isfinite(vals)]
    if len(bad):
        raise ValueError(f"sample values must be finite, got {f.values[bad[0]]} at sample {bad[0]}")
    coeffs, resid, wit = np.empty((B, m)), np.zeros(B), np.full(B, -1)
    ts_r, xs_r, vs_r = f.ts[rows], f.xs[rows], f.vs[rows]
    t0 = np.array([z.t for z in base], float)
    x0, v0 = (np.array([getattr(z, c) for z in base]).reshape(B, f.d) for c in "xv")
    # Samples at the base point: t, x and v each within 4 ulp of the base point's.  One of them
    # fixes the constant of the basis {1}, and such a fit takes _fit_constants.
    near_b, near_r = _coincident([t0, *x0.T, *v0.T], [ts_r, *xs_r.T, *vs_r.T])
    const = np.zeros(B, bool)
    const[near_b] = m == 1
    # the floor below takes the fits' relative coordinates where no pair of pair_distance_batch
    # is dilated: |tbar| <= |t0| + |t|, and so on
    size = lambda a: float(np.max(np.abs(a), initial=0.0))
    dilates = _dilates(size(t0) + size(ts_r), size(x0) + size(xs_r), max(size(v0), size(vs_r)), s)
    x_read = any(any(j.j_x) for j in basis)
    at = np.full(B, -1)
    for fits, fit in ((np.flatnonzero(const), _fit_constants),
                      (np.flatnonzero(~const), _fit_working_sets)):
        per = max(1, (_FIT_BLOCK_PAIRS if fit is _fit_working_sets and _every_row(R, m) else _WS_BLOCK_PAIRS) // R)
        for lo in range(0, len(fits), per):
            blk = fits[lo:lo + per]
            t0_b, x0_b, v0_b = t0[blk], x0[blk], v0[blk]

            def distances(i, j):
                """d_l(z0_i, z_j) for base points i of the block and masked samples j, in batches of
                at most _FIT_BLOCK_PAIRS pairs."""
                out = np.empty(len(i))
                for c0 in range(0, len(i), _FIT_BLOCK_PAIRS):
                    i_, j_ = i[c0:c0 + _FIT_BLOCK_PAIRS], rows[j[c0:c0 + _FIT_BLOCK_PAIRS]]
                    out[c0:c0 + _FIT_BLOCK_PAIRS] = pair_distance_batch(t0_b[i_], x0_b[i_], v0_b[i_], f.ts[j_],
                                                                        f.xs[j_], f.vs[j_], s)
                return out

            # the samples at the block's base points, by flat index fit * R + row
            at[blk] = np.arange(len(blk))
            k = at[near_b] >= 0
            near = at[near_b[k]] * R + near_r[k]
            at[blk] = -1
            # Relative coordinates xi_i = z0^{-1} o z_i, where a monomial reads them; the basis
            # {1} reads none.
            ts = ts_r - t0_b[:, None]
            if fit is _fit_constants:
                M = np.broadcast_to(1.0, ts.shape + (1,))
            else:
                vs = vs_r - v0_b[:, None, :]
                xs = (xs_r - x0_b[:, None, :] - ts[:, :, None] * v0_b[:, None, :] if x_read
                      else np.zeros(vs.shape))
                M = _monomials(basis, [ts, *np.moveaxis(xs, 2, 0), *np.moveaxis(vs, 2, 0)])
            # The floor of d_l(z0, z_i): |tbar| = |ts|, |v1 - v2| = |v - v0| and, where ts = 0,
            # |xbar| = |x - x0|, each to the bit (the floor reads xbar there only).  A block
            # whose pairs may be dilated takes it from tbar, xbar, v1 and v2 as
            # pair_distance_batch forms them.
            i, j = _nonzero(ts == 0.0)
            if dilates:
                floor = _distance_floor(t0_b[:, None] - ts_r, x0_b[:, None, :] - xs_r, v0_b[:, None, :],
                                        vs_r[None], s)
            else:
                xbar = np.zeros(ts.shape + (f.d,))
                xbar[i, j] = xs_r[j] - x0_b[i]
                floor = _floor(ts, xbar, vs_r[None], v0_b[:, None, :], s)
            # where tbar = 0 the floor is the distance, to the bit: no root to take
            dd = np.full(ts.shape, np.nan)
            dd[i, j] = floor[i, j]
            c, r, k = fit(M, vals, dd, floor, near, alpha, distances)
            coeffs[blk], resid[blk], wit[blk] = c, r, np.where(k >= 0, rows[k], -1)
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
    the monomial basis of kinetic degree < alpha.  Samples whose t, x and v
    each agree with z0's to within 4 ulp of the larger magnitude, or whose
    weight d_l^alpha is at most 1e-12, become interpolation constraints.  Returns
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
) -> HolderReport:
    """Sup over base points of the minimax fit residual, with witness."""
    base_points = list(base_points)
    _, resid, wit = fit_expansions(f, base_points, alpha, s)
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
        raise ValueError(f"need a1 < a2 < a3, got {(a1, a2, a3)}")
    if not (np.isfinite(tolerance_factor) and tolerance_factor > 0):
        raise ValueError(f"tolerance_factor must be finite and positive, got {tolerance_factor}")
    theta = (a3 - a2) / (a3 - a1)
    sn = [seminorm(f, base_points, a, s).seminorm for a in (a1, a2, a3)]
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
