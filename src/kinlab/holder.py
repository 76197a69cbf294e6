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
`polynomials._exchange`, Stiefel's exchange: the dual simplex of the fit LP
(Cheney, Introduction to Approximation Theory, ch. 2).  Its level bounds the
optimum from below; the returned residual is the largest deviation the
polynomial attains, which exceeds the optimum by at most 1e-12 relative plus
8 eps max |b|.  A fit the exchange cannot set up or finish (no more rows than
unknowns, a singular reference, a cycle of references its core fit cannot
resolve) is solved as one HiGHS LP, with scipy.optimize imported on its first
call; no fit of the test suite or of the benchmark sweep needs it.

Most rows cannot bind a fit, and fits read them by class: samples that agree
in t and v, and in x too where the basis reads x or a pair may dilate (a cloud
is classes of one sample).  The floor d_l >= max(|tbar|^{1/2s}, |v0 - v|/2)
(`group._floor_terms`, never above the computed distance, to the bit; h =
|v0 - v|/2 where tbar = 0), its weight floor^alpha and the monomials are taken
once per (base point, class), or by `group._distance_floor` where pairs may
dilate.  A class's bound max(|M_c a - min f|, |M_c a - max f|) / floor_c^alpha
is at least each of its rows' bounds |M_c a - f_i| / floor_c^alpha to the bit
(subtraction and division round monotonically), and a row's bound is at least
its quotient.  So a row off a working set is judged the same way everywhere:
only classes whose bound reaches a level descend, only to the runs at each end
of the class (its rows are by value) whose values lie far enough from M_c a,
and only rows whose own bound reaches the level take an exact weight.

A fit with a free coefficient weighs a working set (`_fit_working_sets`), in
the manner of Remez's exchange or a cutting plane: the rows of the classes
whose floor cannot prove their weight above _COINCIDE, the classes of smallest
floor and a spread of the samples, or, where that would be _WS_FRACTION of
the rows or more, every far row, with no floor taken.  Once every fit of the
stack is optimal on its set, a certificate round takes the residual, the
largest quotient on the set; a row off it whose bound is below the residual
neither attains nor ties it.  The _WS_ADD open rows of largest bound join the
set, or all of them where the residual is 0, and the exchange goes on.  A fit
of the basis {1} with a sample at the base point is a plain Hölder quotient,
max_i |v_i - c| / d_l^alpha (`_fit_constants`): the rows of the classes of
largest bound give a level L, and one more batch takes every row whose bound
reaches L, so its residual and witness do not depend on the rows that certify
them.  Either way the residual is the largest weighted deviation the
polynomial attains over every masked row, the witness the first sample
attaining it.  A working-set fit whose interpolation constraints leave no
free coefficient, or none of whose columns reaches its start set, takes every
far row.

A seminorm fits all its base points as one batch (`fit_expansions`; a single
`fit_expansion` is a batch of one), in blocks of max(1, _WS_BLOCK_PAIRS // R)
base points, or of max(1, _FIT_BLOCK_PAIRS // R) for fits that start on every
far row; no distance batch holds more than _FIT_BLOCK_PAIRS pairs.  A block
stacks the monomials, weights and eliminations, and runs the exchanges in
lockstep.  Stacked `svd`, `inv` and `@` round as the calls on one problem do,
a working set keeps the order of its rows and pads with zero rows, and a
distance depends on its own pair only, so a fit reads the same, to the bit,
alone or in a batch.
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
# Working sets: a fit's exact distances start on the rows its floor cannot prove far, the
# classes of smallest floor holding about _WS_START rows and _WS_SPREAD rows spread over the
# samples, and each certificate round adds at most _WS_ADD rows.  Fits start there where that
# start is below _WS_FRACTION of their R rows, in blocks of max(1, _WS_BLOCK_PAIRS // R) base
# points, and on every far row elsewhere.  A constant fit's level comes from the rows of the
# classes of largest bound holding about _WS_START rows.
_WS_START = 32
_WS_SPREAD = 64
_WS_ADD = 256
_WS_FRACTION = 0.25
_WS_BLOCK_PAIRS = 2**18


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


def _ranks(i, n):
    """The place of each pair within its group, for pairs grouped by fit i (non-decreasing, in range(n))."""
    cnt = np.bincount(i, minlength=n)
    return np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def _runs(i, first, n):
    """The pairs (i, row) of the runs of rows first to first + n - 1, run by run."""
    return np.repeat(i, n), np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)


@dataclass(frozen=True)
class _Classes:
    """The rows in class order: class k holds rows start[k] to start[k] + size[k] - 1, by value.
    label[r] is row r's class and sample[r] its sample; values lists every value in order, and
    key[r] = label[r] (R + 1) + row r's rank in values rises with r."""

    label: np.ndarray
    start: np.ndarray
    size: np.ndarray
    sample: np.ndarray
    values: np.ndarray
    key: np.ndarray

    @classmethod
    def of(cls, keys, vals, samples):
        """(order, classes) of rows of coordinate columns keys, values vals and samples samples:
        order puts the rows in class order, by one argsort of a code that numbers each row's
        keys and then its rank by value (numbered again where a product could overflow)."""
        R = len(vals)
        by_value = np.argsort(vals)
        rank = np.empty(R, np.int64)
        rank[by_value] = np.arange(R)
        code = np.zeros(R, np.int64)
        for u, c in [(np.unique(k), k) for k in keys] + [(by_value, None)]:
            if (code.max() + 1.0) * len(u) >= 2.0**62:
                code = np.unique(code, return_inverse=True)[1]
            code = code * len(u) + (rank if c is None else np.searchsorted(u, c))
        order = np.argsort(code)
        first = np.diff(code[order] // R, prepend=-1) != 0
        start, label = np.flatnonzero(first), np.cumsum(first) - 1
        return order, cls(label, start, np.diff(start, append=R), samples[order], vals[by_value],
                          label * (R + 1) + rank[order])

    def members(self, i, k):
        """The pairs (i, row) of the rows of the classes k, pair (i, k) by pair."""
        return _runs(i, self.start[k], self.size[k])

    def beyond(self, i, k, center, limit):
        """The pairs (i, row) of the rows of the classes k whose |center - f| may reach limit, pair by
        pair: the runs at each end of a class whose values lie that far from center, with 16 eps
        (|center| + limit) to spare for the rounding of the deviation, of its quotient by a
        weight and of limit, a level times that weight."""
        spare = 16.0 * np.finfo(float).eps * (np.abs(center) + limit)
        at = k * (len(self.key) + 1)
        end = self.start[k] + self.size[k]
        n_lo = np.searchsorted(self.key, at + np.searchsorted(self.values, center - limit + spare, "right")) - self.start[k]
        n_hi = np.minimum(end - np.searchsorted(self.key, at + np.searchsorted(self.values, center + limit - spare)),
                          self.size[k] - n_lo)
        return _runs(np.repeat(i, 2), np.stack([self.start[k], end - n_hi], axis=1).ravel(),
                     np.stack([n_lo, n_hi], axis=1).ravel())


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
        i, j = _runs(np.arange(len(lo)), lo, hi - lo)
        j = order[j]
        for a, b in zip(z0[::-1], z[::-1]):
            a, b = a[i], b[j]
            k = np.abs(a - b) <= ulps * np.maximum(np.abs(a), np.abs(b))
            i, j = i[k], j[k]
    return i, j


def _eliminations(M, label, vals, eq):
    """Groups (fits, a0, null) of the fits' interpolation constraints M a = vals on their rows eq.

    M (B, C, m) holds the monomials by class and label (R,) the class of each
    row; eq (B, E) lists each fit's constraint rows in order, padded with -1.
    Every solution is a0 + null z.  A group shares the number of constraint
    rows and their rank, so its arrays stack: a0 (P, m), null (P, m, m - rank).
    Inconsistent constraints raise.
    """
    m = M.shape[2]
    counts = np.count_nonzero(eq >= 0, axis=1)
    for k in np.unique(counts):
        P = np.flatnonzero(counts == k)
        if k == 0:
            yield P, np.zeros((len(P), m)), np.broadcast_to(np.eye(m), (len(P), m, m))
            continue
        r_eq = eq[P, :k]
        M_eq, v_eq = M[P[:, None], label[r_eq]], vals[r_eq]
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
    """M @ c by fits, M (B, C, m) and c (B, m): a product where m = 1."""
    return M[:, :, 0] * c[:, :1] if M.shape[2] == 1 else (M @ c[:, :, None])[:, :, 0]


def _coefficients(a0, null, z):
    """a0 + null z by fits: the coefficients of the parametrization of `_eliminations`."""
    return a0 + (null @ z[:, :, None])[:, :, 0]


def _monomials(basis, axes) -> np.ndarray:
    """The basis monomials at the relative coordinates axes = [t, x_1..x_d, v_1..v_d], arrays
    (B, C): M (B, C, m).  A monomial is the product of its factors' powers in that order, as
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


def _chebyshev_fits(M, label, vals, eq, ws, w, grow) -> np.ndarray:
    """Coefficients (B, m) minimizing max over far rows of |M a - vals| / w subject to M a = vals on eq rows.

    Row r of fit b reads the monomials M[b, label[r]], M (B, C, m) by class,
    and the value vals[r].  eq (B, E) lists each fit's interpolating rows,
    padded with -1; every other row is far.  A column that vanishes on every
    far row of the set after the elimination has a free coefficient, set to 0.
    The exchange solves the rest, and one LP what it cannot set up or finish.

    ws (B, W), far rows padded with -1, is the working set the fits start
    from, with exact weights w (B, W), 1 on the padding.  grow(fits, coeffs),
    the certificate, is called whenever fits' coefficients are optimal on their
    rows, and returns (counts, rows, weights) of the far rows to add, grouped
    by fit (none where a fit is final); with coeffs None every far row joins,
    and it returns each fit's whole set.  A fit whose new rows need a column it
    dropped, or none of whose columns reaches a set that lacks far rows, is
    solved again on every far row; one with no free coefficient takes every
    far row and one certificate.
    """
    B, _, m = M.shape
    coeffs = np.empty((B, m))
    n_far = len(vals) - np.count_nonzero(eq >= 0, axis=1)
    for P, a0, null in _eliminations(M, label, vals, eq):
        if null.shape[2] == 0:
            coeffs[P] = a0
            grow(P, None)
            grow(P, a0)
            continue
        idx = _take(ws, P)
        valid = idx >= 0
        M_s, w_s, v_s = M[P[:, None], label[idx]], _take(w, P), vals[idx]
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
                every = np.count_nonzero(valid[Q], axis=1) == n_far[P[Q]]
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
                n_r, r, w_r = grow(P[Q[qs]], _coefficients(a0[Q[qs]], null[Q[qs]], zf))
                qq = np.repeat(qs, n_r)
                M_r, p = M[P[Q[qq]], label[r]], Q[qq]
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
            _, r, w_r = grow(P[[p]], None)
            coeffs[P[p]] = _chebyshev_fits(M[P[[p]]], label, vals, eq[P[[p]]], r[None], w_r[None],
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


def _interpolating(i, j, near, classes, B, alpha, distances):
    """(state, eq, (i, j, w)) of B fits from the exact weights w of the pairs (fit i, row j), those
    the floor cannot prove far.  state (B R,), int8 by flat index fit * R + row, is 2 on the
    interpolating rows, the samples at the base point (pairs near) and the pairs of weight
    d_l^alpha at most _COINCIDE (a weighted deviation there is rounding of the values), 1 on
    the other pairs i, j and 0 elsewhere; eq (B, E) lists each fit's interpolating rows by
    sample, padded with -1, and (i, j, w) are the other pairs."""
    R = len(classes.label)
    state = np.zeros(B * R, np.int8)
    state[near[0] * R + near[1]] = 2
    k = state[i * R + j] == 0
    i, j = i[k], j[k]
    w = distances(i, j) ** alpha
    at = w <= _COINCIDE
    state[i * R + j] = np.where(at, 2, 1)
    ei, ej = np.concatenate([near[0], i[at]]), np.concatenate([near[1], j[at]])
    o = np.lexsort((classes.sample[ej], ei))
    eq = np.full((B, np.bincount(ei, minlength=B).max(initial=0)), -1)
    eq[ei[o], _ranks(ei[o], B)] = ej[o]
    return state, eq, (i[~at], j[~at], w[~at])


def _level(i, key, q, n):
    """(level, witness) by fits from the exact quotients q of pairs of fit i and sample index key:
    the largest quotient of each of the n fits and the least sample attaining it, or (0, -1)
    where a fit has none."""
    level = np.full(n, -1.0)
    np.maximum.at(level, i, q)
    top = q == level[i]
    at = np.full(n, np.iinfo(np.intp).max)
    np.minimum.at(at, i[top], key[top])
    hit = level >= 0.0
    return np.where(hit, level, 0.0), np.where(hit, at, -1)


def _every_row(R, m):
    """Whether fits of R rows and m unknowns start their working sets on every far row."""
    return _WS_FRACTION * R <= max(_WS_START, m + 1) + _WS_SPREAD


def _fit_constants(M, classes, vals, w, near, alpha, distances):
    """Coefficients, residuals and witness rows (-1 for none) of fits of the basis {1} with a
    sample at the base point, in two rounds of exact distances (see the module docstring).

    Arguments as `_fit_working_sets` takes them; each fit has a sample at the base point.
    """
    B, C, _ = M.shape
    R = len(vals)
    unsure = ~((w > _COINCIDE) & (w < np.inf))
    state, eq, (i, j, w_ij) = _interpolating(*classes.members(*_nonzero(unsure)), near, classes, B, alpha,
                                             distances)
    c = np.empty((B, 1))
    for P, a0, _ in _eliminations(M, classes.label, vals, eq):
        c[P] = a0
    quot = [(i, j, np.abs(c[i, 0] - vals[j]) / w_ij)]
    # The classes of largest bound holding about _WS_START rows give a level L; the rows whose
    # class's bound and whose deviation over the class's floor weight reach L are then taken exactly.
    exact = lambda i, j: distances(i, j) ** alpha
    d_lo, d_hi = np.abs(c - vals[classes.start]), np.abs(c - vals[classes.start + classes.size - 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(unsure, -1.0, np.maximum(d_lo, d_hi) / w)
    k = min(C, -(-_WS_START * C // R))
    i, j = classes.members(np.repeat(np.arange(B), k), np.argpartition(-bound, k - 1, axis=1)[:, :k].ravel())
    keep = state[i * R + j] == 0
    i, j = i[keep], j[keep]
    state[i * R + j] = 1
    quot.append((i, j, np.abs(c[i, 0] - vals[j]) / exact(i, j)))
    i, j, q = (np.concatenate(x) for x in zip(*quot))
    level = _level(i, j, q, B)[0]
    q, k = _nonzero(bound >= level[:, None])
    i, j = classes.beyond(q, k, c[q, 0], level[q] * w[q, k])
    keep = state[i * R + j] == 0
    i, j = i[keep], j[keep]
    dev = np.abs(c[i, 0] - vals[j])
    keep = dev / w.ravel()[i * C + classes.label[j]] >= level[i]
    i, j, dev = i[keep], j[keep], dev[keep]
    quot.append((i, j, dev / exact(i, j)))
    # residual and witness: the largest weighted deviation, and the first sample attaining it
    i, j, q = (np.concatenate(x) for x in zip(*quot))
    return (c, *_level(i, classes.sample[j], q, B))


def _fit_working_sets(M, classes, vals, w, near, alpha, distances):
    """Coefficients, residuals and witness rows (-1 for none) of the fits over every row, with
    exact distances only on their working sets (see the module docstring).

    M (B, C, m) holds the monomials by class, and w (B, C) the classes' floor
    weights, or None where every far row starts on the set.  near holds the
    pairs (fits, rows) of the samples at the base point.  distances(i, j)
    returns the exact distances of the pairs (fit i, row j).
    """
    B, C, m = M.shape
    R, label = len(vals), classes.label
    if w is None:
        pairs = np.divmod(np.arange(B * R), R)
    else:
        pairs = classes.members(*_nonzero(~((w > _COINCIDE) & (w < np.inf))))
    # by (fit, row): 0 off the working set, 1 on it, exact and far, 2 interpolating
    state, eq, far = _interpolating(*pairs, near, classes, B, alpha, distances)
    # the far rows off the set, by (fit, class)
    q, k = _nonzero(eq >= 0)
    off = classes.size - np.bincount(q * C + label[eq[q, k]], minlength=B * C).reshape(B, C)
    # each fit's working set, in ws_r[b, :n_ws[b]] (-1 beyond) with exact weights ws_w
    ws_r, ws_w, n_ws = np.full((B, 0), -1), np.ones((B, 0)), np.zeros(B, int)
    coeffs, resid, wit = np.empty((B, m)), np.zeros(B), np.full(B, -1)

    def join(i, j, w_ij):
        """The pairs (fit i, row j), grouped by fit, join the working sets with their exact weights w_ij."""
        nonlocal ws_r, ws_w, off
        at = n_ws[i] + _ranks(i, B)
        n_ws[:] += np.bincount(i, minlength=B)
        if n_ws.max() > ws_r.shape[1]:
            more = max(n_ws.max(), 2 * ws_r.shape[1]) - ws_r.shape[1]
            ws_r, ws_w = np.hstack([ws_r, np.full((B, more), -1)]), np.hstack([ws_w, np.ones((B, more))])
        at += i * ws_r.shape[1]
        ws_r.ravel()[at], ws_w.ravel()[at] = j, w_ij
        state[i * R + j] = 1
        off = off - np.bincount(i * C + label[j], minlength=B * C).reshape(B, C)

    join(*far)
    if w is not None:
        # the start: the rows of the classes of smallest floor, about max(_WS_START, m + 1) of them,
        # and _WS_SPREAD rows spread over the samples
        k = min(C, -(-max(_WS_START, m + 1) * C // R))
        top = np.argpartition(np.where(off > 0, w, np.inf), k - 1, axis=1)[:, :k]
        i, j = classes.members(np.repeat(np.arange(B), k), top.ravel())
        spread = np.argsort(classes.sample)[np.linspace(0, R - 1, _WS_SPREAD).astype(int)]
        key = np.sort(np.concatenate([i * R + j, (np.arange(B)[:, None] * R + spread).ravel()]))
        key = key[np.diff(key, prepend=-1) != 0]
        key = key[state[key] == 0]
        i, j = np.divmod(key, R)
        join(i, j, distances(i, j) ** alpha)
    lo, hi = vals[classes.start], vals[classes.start + classes.size - 1]
    exact = lambda i, j: distances(i, j) ** alpha

    def grow(fits, c):
        """Certify the fits' coefficients c over every row, or pick rows to add (see _chebyshev_fits).

        The residual is the largest quotient on the set, the witness the least
        sample attaining it.  Classes with rows off the set whose bound reaches
        the residual descend to those rows, and the rows whose floor bound
        reaches it are open: the _WS_ADD of largest bound join the set, or all
        of them where the residual is 0.
        """
        if c is None:
            q, j = classes.members(*_nonzero(off[fits] > 0))
            keep = state[fits[q] * R + j] == 0
            i, j = fits[q[keep]], j[keep]
            join(i, j, distances(i, j) ** alpha)
            r = ws_r[fits]
            return np.count_nonzero(r >= 0, axis=1), r[r >= 0], ws_w[fits][r >= 0]
        Ma = _values(_take(M, fits), c)
        r = _take(ws_r, fits)
        flat = np.flatnonzero(r >= 0)
        q, j = flat // r.shape[1], r.ravel()[flat]
        level, at = _level(q, classes.sample[j], abs(Ma.ravel()[q * C + label[j]] - vals[j])
                           / _take(ws_w, fits).ravel()[flat], len(fits))
        off_f = _take(off, fits)
        i = j = np.zeros(0, int)
        if off_f.any():
            w_f = _take(w, fits)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = np.maximum(abs(Ma - lo), abs(Ma - hi)) / w_f
            q, k = _nonzero((off_f > 0) & (bound >= level[:, None]))
            i, j = classes.beyond(q, k, Ma[q, k], level[q] * w_f[q, k])
            keep = state[fits[i] * R + j] == 0
            i, j = i[keep], j[keep]
            fc = i * C + label[j]
            bound = abs(Ma.ravel()[fc] - vals[j]) / w_f.ravel()[fc]
            keep = bound >= level[i]
            i, j, bound = i[keep], j[keep], bound[keep]
        n_open = np.bincount(i, minlength=len(fits))
        # at a residual of 0 every row off the set is open, and they join at once, not _WS_ADD a round
        cap = (n_open > _WS_ADD) & ~((at >= 0) & (level <= 0.0))
        if cap.any():
            # worst first: in class order, a near-polynomial n = 24 fit of order 2.2 took 1.2-1.4x as long
            o = np.lexsort((-bound, i))
            o = o[~cap[i[o]] | (_ranks(i[o], len(fits)) < _WS_ADD)]
            i, j = i[o], j[o]
        done = n_open == 0
        coeffs[fits[done]], resid[fits[done]], wit[fits[done]] = c[done], level[done], at[done]
        w_ij = exact(fits[i], j)
        join(fits[i], j, w_ij)
        return np.bincount(i, minlength=len(fits)), j, w_ij

    width = n_ws.max(initial=0)
    _chebyshev_fits(M, label, vals, eq, ws_r[:, :width].copy(), ws_w[:, :width].copy(), grow)
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
    Both fit routines certify by class (see the module docstring), and compute
    the distances of the (base point, masked sample) pairs they weigh only, in
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
    # the floor below takes the fits' relative coordinates where no pair of pair_distance_batch
    # is dilated: |tbar| <= |t0| + |t|, and so on
    size = lambda a: float(np.max(np.abs(a), initial=0.0))
    dilates = _dilates(size(t0) + size(ts_r), size(x0) + size(xs_r), max(size(v0), size(vs_r)), s)
    x_read = any(any(j.j_x) for j in basis)
    # The classes: rows that agree in t and v, and in x where the basis reads it or a pair may
    # dilate.  From here on the rows are in class order.
    order, classes = _Classes.of([ts_r, *(xs_r.T if x_read or dilates else ()), *vs_r.T], vals, rows)
    rows, vals, ts_r, xs_r, vs_r = rows[order], vals[order], ts_r[order], xs_r[order], vs_r[order]
    tc, xc, vc = ts_r[classes.start], xs_r[classes.start], vs_r[classes.start]
    # Samples at the base point: t, x and v each within 4 ulp of the base point's.  One of them
    # fixes the constant of the basis {1}, and such a fit takes _fit_constants.
    near_b, near_r = _coincident([t0, *x0.T, *v0.T], [ts_r, *xs_r.T, *vs_r.T])
    const = np.zeros(B, bool)
    const[near_b] = m == 1
    at = np.full(B, -1)
    for fits, fit in ((np.flatnonzero(const), _fit_constants),
                      (np.flatnonzero(~const), _fit_working_sets)):
        whole = fit is _fit_working_sets and _every_row(R, m)
        per = max(1, (_FIT_BLOCK_PAIRS if whole else _WS_BLOCK_PAIRS) // R)
        for lo in range(0, len(fits), per):
            blk = fits[lo:lo + per]
            t0_b, x0_b, v0_b = t0[blk], x0[blk], v0[blk]

            def distances(i, j):
                """d_l(z0_i, z_j) for base points i of the block and masked samples j.  Where t = t0
                and no pair dilates it is the floor, with no root, from |xbar| = |x - x0| and
                |v - v0| to the bit (without it the n = 12 slab at s = 1/2 takes 2,424 exact
                pairs, not 2,004); elsewhere pair_distance_batch, in batches of at most
                _FIT_BLOCK_PAIRS pairs."""
                out = np.empty(len(i))
                z = (ts_r[j] == t0_b[i]) & (not dilates)
                if z.any():
                    iz, jz = i[z], j[z]
                    out[z] = _floor(np.zeros(len(iz)), xs_r[jz] - x0_b[iz], vs_r[jz], v0_b[iz], s)
                g = np.flatnonzero(~z)
                for c0 in range(0, len(g), _FIT_BLOCK_PAIRS):
                    k = g[c0:c0 + _FIT_BLOCK_PAIRS]
                    i_, j_ = i[k], rows[j[k]]
                    out[k] = pair_distance_batch(t0_b[i_], x0_b[i_], v0_b[i_], f.ts[j_], f.xs[j_], f.vs[j_], s)
                return out

            # the samples at the block's base points, as pairs (fit, row)
            at[blk] = np.arange(len(blk))
            k = at[near_b] >= 0
            near = (at[near_b[k]], near_r[k])
            at[blk] = -1
            # The classes' relative coordinates xi = z0^{-1} o z, where a monomial reads them; the
            # basis {1} reads none.
            ts = tc - t0_b[:, None]
            if fit is _fit_constants:
                M = np.broadcast_to(1.0, ts.shape + (1,))
            else:
                vs = vc - v0_b[:, None, :]
                xs = (xc - x0_b[:, None, :] - ts[:, :, None] * v0_b[:, None, :] if x_read
                      else np.zeros(vs.shape))
                M = _monomials(basis, [ts, *np.moveaxis(xs, 2, 0), *np.moveaxis(vs, 2, 0)])
            # The classes' floors, which fits that start on every far row skip: |tbar| = |ts| and
            # |v1 - v2| = |v - v0| to the bit, and h = |v - v0|/2 where tbar = 0, below the floor
            # of each row there.  A block whose pairs may be dilated takes it from tbar, xbar,
            # v1 and v2 as pair_distance_batch forms them (its classes read x).
            w = None
            if not whole:
                if dilates:
                    floor = _distance_floor(t0_b[:, None] - tc, x0_b[:, None, :] - xc, v0_b[:, None, :], vc[None], s)
                else:
                    floor = _floor(ts, np.zeros(ts.shape + (f.d,)), vc[None], v0_b[:, None, :], s)
                with np.errstate(over="ignore"):
                    w = floor**alpha
            coeffs[blk], resid[blk], wit[blk] = fit(M, classes, vals, w, near, alpha, distances)
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
