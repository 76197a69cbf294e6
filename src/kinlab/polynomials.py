"""Kinetic monomial algebra: degrees, evaluation, translation, scaling.

A monomial t^{j_t} x^{j_x} v^{j_v} has kinetic degree
2s*j_t + (1+2s)*|j_x| + |j_v|, so that m(S_R z) = R^{deg} m(z).
Degrees live on the lattice N + 2sN; when s is rational they are compared
with exact fractions.

Stiefel's exchange (`_exchange`) solves the discrete Chebyshev fits of
`holder`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .group import Point, ScalingExponent, _as_exponent

__all__ = [
    "MultiIndex",
    "KineticPolynomial",
    "kinetic_degree",
    "monomial_basis",
    "left_translate",
    "differentiate",
]

_DEG_TOL = 1e-12


@dataclass(frozen=True)
class MultiIndex:
    """Exponents (j_t, j_x, j_v) of a kinetic monomial."""

    j_t: int
    j_x: tuple[int, ...]
    j_v: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "j_x", tuple(int(k) for k in self.j_x))
        object.__setattr__(self, "j_v", tuple(int(k) for k in self.j_v))
        if self.j_t < 0 or any(k < 0 for k in self.j_x) or any(k < 0 for k in self.j_v):
            raise ValueError("multi-index entries must be nonnegative")
        if len(self.j_x) != len(self.j_v):
            raise ValueError("j_x and j_v must have equal length")

    @property
    def d(self) -> int:
        return len(self.j_x)

    @classmethod
    def constant(cls, d: int) -> "MultiIndex":
        return cls(0, (0,) * d, (0,) * d)


def kinetic_degree(j, s):
    """Kinetic degree of a multi-index or polynomial.

    Returns a Fraction when s is rational, else a float.
    """
    s = _as_exponent(s)
    if isinstance(j, KineticPolynomial):
        if not j.terms:
            return Fraction(0) if s.as_fraction is not None else 0.0
        return max(kinetic_degree(m, s) for m in j.terms)
    frac = s.as_fraction
    if frac is not None:
        return 2 * frac * j.j_t + (1 + 2 * frac) * sum(j.j_x) + sum(j.j_v)
    return 2.0 * s.s * j.j_t + (1.0 + 2.0 * s.s) * sum(j.j_x) + sum(j.j_v)


def _deg_lt(j: MultiIndex, threshold: float, s: ScalingExponent) -> bool:
    deg = kinetic_degree(j, s)
    if isinstance(deg, Fraction):
        thr = Fraction(threshold).limit_denominator(10**6)
        if abs(float(thr) - threshold) < 1e-15:
            return deg < thr
    return float(deg) < threshold - _DEG_TOL


class KineticPolynomial:
    """Sparse polynomial over kinetic monomials.

    Zero-coefficient terms are never stored.  Value semantics: all operations
    return new polynomials.
    """

    def __init__(self, terms: Mapping[MultiIndex, float], s, d: int):
        self.s = _as_exponent(s)
        self.d = int(d)
        clean = {}
        for j, c in terms.items():
            if j.d != self.d:
                raise ValueError("multi-index dimension mismatch")
            if c != 0.0:
                clean[j] = float(c)
        self.terms: dict[MultiIndex, float] = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, s, d: int) -> "KineticPolynomial":
        return cls({}, s, d)

    @classmethod
    def constant(cls, c: float, s, d: int) -> "KineticPolynomial":
        return cls({MultiIndex.constant(d): c}, s, d)

    @classmethod
    def monomial(cls, j: MultiIndex, s) -> "KineticPolynomial":
        return cls({j: 1.0}, s, j.d)

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: "KineticPolynomial") -> "KineticPolynomial":
        out = dict(self.terms)
        for j, c in other.terms.items():
            out[j] = out.get(j, 0.0) + c
        return KineticPolynomial(out, self.s, self.d)

    def __sub__(self, other: "KineticPolynomial") -> "KineticPolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return KineticPolynomial({j: c * other for j, c in self.terms.items()}, self.s, self.d)
        out: dict[MultiIndex, float] = {}
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                j = MultiIndex(
                    j1.j_t + j2.j_t,
                    tuple(a + b for a, b in zip(j1.j_x, j2.j_x)),
                    tuple(a + b for a, b in zip(j1.j_v, j2.j_v)),
                )
                out[j] = out.get(j, 0.0) + c1 * c2
        return KineticPolynomial(out, self.s, self.d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "KineticPolynomial":
        out = KineticPolynomial.constant(1.0, self.s, self.d)
        for _ in range(int(n)):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, KineticPolynomial) and self.terms == other.terms

    def __repr__(self):
        items = ", ".join(f"{j.j_t},{j.j_x},{j.j_v}: {c:g}" for j, c in sorted(
            self.terms.items(), key=lambda kv: (kv[0].j_t, kv[0].j_x, kv[0].j_v)))
        return f"KineticPolynomial({{{items}}}, s={self.s.s}, d={self.d})"

    # -- evaluation ---------------------------------------------------------
    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Evaluate at a Point, or vectorized at arrays (ts, xs, vs)."""
        if isinstance(z, Point):
            if z.d != self.d:
                raise ValueError("point dimension mismatch")
            return float(self.eval_arrays(np.array([z.t]), z.x[None, :], z.v[None, :])[0])
        ts, xs, vs = z
        return self.eval_arrays(ts, xs, vs)

    def eval_arrays(self, ts, xs, vs) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        vs = np.atleast_2d(np.asarray(vs, dtype=float))
        out = np.zeros_like(ts)
        for j, c in self.terms.items():
            term = np.full_like(ts, c)
            if j.j_t:
                term = term * ts**j.j_t
            for i, k in enumerate(j.j_x):
                if k:
                    term = term * xs[:, i] ** k
            for i, k in enumerate(j.j_v):
                if k:
                    term = term * vs[:, i] ** k
            out += term
        return out


def monomial_basis(threshold: float, s, d: int) -> list[MultiIndex]:
    """All multi-indices of kinetic degree strictly below the threshold.

    Sorted by (degree, lexicographic exponents); finite because the degree
    increments on N + 2sN are positive.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return list(_monomial_basis(float(threshold), _as_exponent(s), int(d)))


@lru_cache(maxsize=256)
def _monomial_basis(threshold: float, s: ScalingExponent, d: int) -> tuple[MultiIndex, ...]:
    two_s = s.two_s
    out = []
    max_jt = int(np.floor(threshold / two_s)) + 1
    max_jx = int(np.floor(threshold / (1.0 + two_s))) + 1
    max_jv = int(np.floor(threshold)) + 1

    def rec_tuple(limit, slots):
        if slots == 0:
            yield ()
            return
        for k in range(limit + 1):
            for rest in rec_tuple(limit - k, slots - 1):
                yield (k,) + rest

    for jt in range(max_jt + 1):
        for jx in rec_tuple(max_jx, d):
            for jv in rec_tuple(max_jv, d):
                j = MultiIndex(jt, jx, jv)
                if _deg_lt(j, threshold, s):
                    out.append(j)
    out.sort(key=lambda j: (float(kinetic_degree(j, s)), j.j_t, j.j_x, j.j_v))
    return tuple(out)


def left_translate(p: KineticPolynomial, z0: Point) -> KineticPolynomial:
    """Re-expansion q with q(z) = p(z0 o z) identically.

    Substitutes t -> t0 + t, x_i -> x0_i + x_i + t*v0_i, v_i -> v0_i + v_i.
    The x -> t coupling preserves the kinetic degree (t weighs less than x).
    """
    if z0.d != p.d:
        raise ValueError("dimension mismatch")
    s, d = p.s, p.d

    def var(j: MultiIndex, c: float) -> KineticPolynomial:
        return KineticPolynomial({j: c}, s, d)

    zt = (0,) * d
    t_sub = KineticPolynomial.constant(z0.t, s, d) + var(MultiIndex(1, zt, zt), 1.0)
    x_subs = []
    v_subs = []
    for i in range(d):
        ex = tuple(1 if k == i else 0 for k in range(d))
        x_subs.append(
            KineticPolynomial.constant(z0.x[i], s, d)
            + var(MultiIndex(0, ex, zt), 1.0)
            + var(MultiIndex(1, zt, zt), float(z0.v[i]))
        )
        v_subs.append(KineticPolynomial.constant(z0.v[i], s, d) + var(MultiIndex(0, zt, ex), 1.0))

    out = KineticPolynomial.zero(s, d)
    for j, c in p.terms.items():
        term = KineticPolynomial.constant(c, s, d)
        term = term * (t_sub**j.j_t)
        for i, k in enumerate(j.j_x):
            term = term * (x_subs[i] ** k)
        for i, k in enumerate(j.j_v):
            term = term * (v_subs[i] ** k)
        out = out + term
    return out


def differentiate(p: KineticPolynomial, which: str, i: int = 0) -> KineticPolynomial:
    """Partial derivative d/dt, d/dx_i or d/dv_i, or the transport derivative.

    which: 't', 'x', 'v', or 'transport' (= d/dt + v . grad_x).
    """
    s, d = p.s, p.d
    if which == "transport":
        out = differentiate(p, "t")
        zt = (0,) * d
        for k in range(d):
            ev = tuple(1 if m == k else 0 for m in range(d))
            out = out + KineticPolynomial({MultiIndex(0, zt, ev): 1.0}, s, d) * differentiate(p, "x", k)
        return out
    out: dict[MultiIndex, float] = {}
    for j, c in p.terms.items():
        if which == "t":
            if j.j_t == 0:
                continue
            jj = MultiIndex(j.j_t - 1, j.j_x, j.j_v)
            out[jj] = out.get(jj, 0.0) + c * j.j_t
        elif which == "x":
            if j.j_x[i] == 0:
                continue
            jx = tuple(k - 1 if m == i else k for m, k in enumerate(j.j_x))
            jj = MultiIndex(j.j_t, jx, j.j_v)
            out[jj] = out.get(jj, 0.0) + c * j.j_x[i]
        elif which == "v":
            if j.j_v[i] == 0:
                continue
            jv = tuple(k - 1 if m == i else k for m, k in enumerate(j.j_v))
            jj = MultiIndex(j.j_t, j.j_x, jv)
            out[jj] = out.get(jj, 0.0) + c * j.j_v[i]
        else:
            raise ValueError(f"unknown derivative {which!r}")
    return KineticPolynomial(out, s, d)


# ---------------------------------------------------------------------------
# Discrete linear Chebyshev approximation: min_z max_i |A_i z - b_i|.
# ---------------------------------------------------------------------------

# Rows are rank deficient when a singular value is below _DEGENERATE times the
# largest.  The exchange stops once no row outside the reference deviates by
# more than level * (1 + _LEVEL_RTOL) + _LEVEL_ULPS * eps * max|b|; the floor
# ends exactly fittable data, whose level is 0 and whose references all tie.
_DEGENERATE = 1e-12
_LEVEL_RTOL = 1e-12
_LEVEL_ULPS = 8
# A reference with up to _FREE_SIGNS zero multipliers tries every sign of their
# rows; 4 leaves no stall on the benchmark sweep grids or in criterion 7.
_FREE_SIGNS = 4


def _first_references(A: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The first n + 1 pivots (B, n + 1) of Gram-Schmidt with column pivoting on each [A_i b_i]^T.

    The n + 1 columns of [A b] are held as (B, N) planes, copied (A[:, :, 0]
    is A's own memory when n = 1).  Each pass takes, among the marked rows not
    yet taken, the first of largest norm (LAPACK's idamax rule), and removes
    its direction from every row.  All arithmetic is row by row, a sum over
    the planes in their order, so a problem's pivots are the same alone or in
    a stack.
    """
    B, N, n = A.shape
    planes = np.empty((n + 1, B, N))
    planes[:n] = np.moveaxis(A, 2, 0)
    planes[n] = b
    open_ = rows.copy()
    ar = np.arange(B)
    ref = np.empty((B, n + 1), int)
    for k in range(n + 1):
        norm2 = sum(c * c for c in planes)
        ref[:, k] = j = np.argmax(np.where(open_, norm2, -1.0), axis=1)
        open_[ar, j] = False
        if k < n:
            nrm = np.sqrt(norm2[ar, j])
            e = planes[:, ar, j] / np.where(nrm > 0.0, nrm, 1.0)
            planes -= sum(c * ec[:, None] for c, ec in zip(planes, e)) * e[:, :, None]
    return ref


def _exchange(A: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None, grow=None) -> list:
    """Per problem of a stack: (argmin_z max_i |A_i z - b_i|, level, final reference) by Stiefel's
    exchange, or None.

    A (B, N, n) and b (B, N) hold B problems; rows (B, N), all by default,
    marks the rows of each (the others must be zero in A and b).  Each has
    full column rank n on more than n rows.  A reference R of n + 1 rows
    (first: `_first_references`, the first n + 1 pivots of Gram-Schmidt with
    column pivoting on [A b]^T, one stacked pass for all problems) has
    the null vector lambda of A_R^T, whose level h = |lambda.b_R| / ||lambda||_1
    bounds the optimum from below, and the primal solving
    [A_R, sign lambda][z; h] = b_R.  The worst row enters, the row whose drop
    maximizes the level leaves.  None when a reference is singular, or repeats
    and `_core_fit` cannot go on (see below).  The problems run in
    lockstep, with stacked `svd`, `solve` and `@`, each numerically the same
    as alone, with or without zero rows after its own; a problem leaves the
    stack when it ends.

    grow, when given, is asked for more rows where problems would end: a
    problem optimal on its rows waits, its reference kept, until every
    problem of the stack is, and grow(problems, z) then returns, per
    problem, None or the (A rows, b rows) to append after its last row.  A
    problem ends where grow has none, and goes on from its reference where
    an appended row deviates beyond the tolerance.

    The pivot rule takes the row of largest residual norm, the first one on
    a tie, as LAPACK's geqp3 does; geqp3 breaks ties in its own swapped
    order and downdates its norms, so on rows whose norms tie to rounding the
    two may start from different references.  Any regular reference serves:
    the exchange only starts there.

    A reference met again is a cycle among references of one level whose
    multipliers vanish on some rows (parallel rows bind; every problem
    ends or cycles, as the level never falls).  `_core_fit` then fits over
    the primals of that level: it ends the problem there if the level is
    the optimum, or gives n + 2 rows from which the exchange goes on at a
    higher level.
    """
    B, N, n = A.shape
    out: list = [None] * B
    rows = np.ones((B, N), bool) if rows is None else rows
    if grow is not None:
        A, b, rows = A.copy(), b.copy(), rows.copy()
    ref = _first_references(A, b, rows)
    floor = _LEVEL_ULPS * np.finfo(float).eps * np.max(np.abs(b), axis=1)
    seen = [set() for _ in range(B)]
    live, wait, stall = np.arange(B), np.zeros(B, bool), np.zeros(B, bool)
    while True:
        for k, i in enumerate(live):
            if wait[k]:
                continue
            key = frozenset(ref[k].tolist())
            stall[k] = key in seen[i]
            seen[i].add(key)
        A_ref = A[np.arange(len(live))[:, None], ref]
        U, S, _ = np.linalg.svd(A_ref)
        go = S[:, -1] > _DEGENERATE * S[:, 0]
        if not np.all(go):
            live, A, b, rows, ref, floor, wait, stall, A_ref, U = (
                x[go] for x in (live, A, b, rows, ref, floor, wait, stall, A_ref, U))
        if not len(live):
            return out
        ar = np.arange(len(live))[:, None]
        b_ref = b[ar, ref]
        lam = U[:, :, n]
        dot = (lam[:, None, :] @ b_ref[:, :, None])[:, 0, 0]
        flip = dot < 0
        if np.any(flip):
            # BLAS sums a strided and a contiguous vector in different orders,
            # so the level takes the dot of the negated (contiguous) copy.
            lam = np.where(flip[:, None], -lam, lam)
            dot[flip] = (lam[flip][:, None, :] @ b_ref[flip][:, :, None])[:, 0, 0]
        level = dot / np.sum(np.abs(lam), axis=1)
        sign = np.sign(lam)
        free = np.abs(lam) <= _DEGENERATE * np.max(np.abs(lam), axis=1, keepdims=True)
        z = np.linalg.solve(np.concatenate([A_ref, sign[:, :, None]], axis=2), b_ref[:, :, None])
        z = z[:, :n, 0]
        dev = np.abs((A @ z[:, :, None])[:, :, 0] - b)
        dev[ar, ref] = 0.0
        j = np.argmax(dev, axis=1)
        worst = dev[ar[:, 0], j]
        # A zero multiplier (parallel rows) leaves the sign of its row free:
        # of the primals for every choice, keep the one whose worst row
        # outside R deviates least.  The rows of R deviate by the level, up
        # to rounding.
        for k in np.flatnonzero(np.any(free, axis=1)):
            fk = np.flatnonzero(free[k])
            if len(fk) > _FREE_SIGNS:
                continue
            for c, signs in enumerate(itertools.product((1.0, -1.0), repeat=len(fk))):
                sign[k, fk] = signs
                z_try = np.linalg.solve(np.column_stack([A_ref[k], sign[k]]), b_ref[k])[:n]
                dev_k = np.abs(A[k] @ z_try - b[k])
                dev_k[ref[k]] = 0.0
                j_try = int(np.argmax(dev_k))
                if c == 0 or dev_k[j_try] < worst[k]:
                    z[k], j[k], worst[k] = z_try, j_try, dev_k[j_try]
        lost = np.zeros(len(live), bool)
        turn = np.full((len(live), n + 2), -1)
        for k in np.flatnonzero(stall):
            core = ref[k, ~free[k]]
            fit = _core_fit(A[k], b[k], rows[k], core, sign[k, ~free[k]] * level[k])
            if fit is None:
                lost[k] = True
                continue
            z[k], turn[k] = fit
            dev_k = np.abs(A[k] @ z[k] - b[k])
            dev_k[core] = 0.0
            j[k] = np.argmax(dev_k)
            worst[k] = dev_k[j[k]]
        done = worst <= level * (1.0 + _LEVEL_RTOL) + floor
        lost &= ~done
        turn[done] = -1
        if grow is not None:
            wait, done = done, np.zeros_like(done)
            if np.all(wait | lost):
                A, b, rows = _grow(grow, np.flatnonzero(wait), live, z, A, b, rows, level, floor, j, worst, done)
                wait[:] = False
        for k in np.flatnonzero(done):
            out[live[k]] = (z[k], float(level[k]), ref[k])
        if np.any(done | lost):
            go = ~(done | lost)
            live, A, b, rows, ref, floor, wait, stall, j, turn = (
                x[go] for x in (live, A, b, rows, ref, floor, wait, stall, j, turn))
            if not len(live):
                return out
        # The null space of the n + 2 rows is 2-D; column k of ys is the
        # direction in it that vanishes on row k, the multipliers of the
        # reference without row k.  Keep a reference of largest level, and
        # among ties drop the row that entered first.
        ar = np.arange(len(live))[:, None]
        ext = np.where(turn[:, :1] >= 0, turn, np.column_stack([ref, j]))
        Y = np.linalg.svd(A[ar, ext])[0][:, :, n:]
        ys = Y @ np.stack([Y[:, :, 1], -Y[:, :, 0]], axis=2).swapaxes(1, 2)
        norm1 = np.sum(np.abs(ys), axis=1)
        ok = norm1 > _DEGENERATE * np.max(norm1, axis=1, keepdims=True)
        levels = np.where(ok, np.abs((b[ar, ext][:, None, :] @ ys)[:, 0]) / np.where(ok, norm1, 1.0), -1.0)
        drop = np.argmax(levels >= np.max(levels, axis=1, keepdims=True) * (1.0 - _LEVEL_RTOL), axis=1)
        ref = np.where(wait[:, None], ref, ext[np.arange(n + 2) != drop[:, None]].reshape(len(live), n + 1))


def _core_fit(A, b, rows, core, shift):
    """(z, ext) for one problem at a reference whose multipliers vanish off its rows core, or None.

    Every primal of the level h satisfies A_i z = b_i - sign_i h on the core
    (complementary slackness), shift being sign h: an affine space z0 + N y,
    on which the fit over the other rows is a smaller exchange.  z is its
    solution, which ends the problem if its deviations stay within the
    level.  Otherwise the core and the final reference of that fit are n + 2
    rows whose best reference has a level above h: no primal of level h fits
    them both.  None where the smaller fit cannot be set up or finished.
    """
    n = A.shape[1]
    U, S, Vt = np.linalg.svd(A[core])
    r = int(np.sum(S > _DEGENERATE * S[0]))
    if r == n or len(core) != r + 1:
        return None
    z0 = Vt[:r].T @ ((U[:, :r].T @ (b[core] - shift)) / S[:r])
    null = Vt[r:].T
    on = rows.copy()
    on[core] = False
    fit = _exchange(np.where(on[:, None], A @ null, 0.0)[None], np.where(on, b - A @ z0, 0.0)[None], on[None])[0]
    if fit is None:
        return None
    return z0 + null @ fit[0], np.r_[core, fit[2]]


def _grow(grow, ask, live, z, A, b, rows, level, floor, j, worst, done):
    """Ask grow for rows at the problems ask of an exchange, append them after each problem's
    last row, and mark done the problems with none.  A problem whose new rows all deviate
    within the tolerance is asked again.  Returns A, b and rows, widened where new rows
    need it; updates floor, j, worst and done in place."""
    while len(ask):
        new = grow(live[ask], z[ask])
        more = np.array([r is not None for r in new], bool)
        done[ask[~more]] = True
        ask, new = ask[more], [r for r in new if r is not None]
        if not len(ask):
            break
        n_new = np.array([len(r[1]) for r in new])
        used = rows.shape[1] - np.argmax(rows[ask, ::-1], axis=1)
        width = max(rows.shape[1], int(np.max(used + n_new)))
        if width > rows.shape[1]:
            pad = width - rows.shape[1]
            A = np.concatenate([A, np.zeros((len(A), pad, A.shape[2]))], axis=1)
            b = np.concatenate([b, np.zeros((len(b), pad))], axis=1)
            rows = np.concatenate([rows, np.zeros((len(rows), pad), bool)], axis=1)
        k = np.repeat(np.arange(len(ask)), n_new)
        at = np.repeat(used - np.cumsum(n_new) + n_new, n_new) + np.arange(len(k))
        A[ask[k], at] = np.concatenate([r[0] for r in new])
        b[ask[k], at] = np.concatenate([r[1] for r in new])
        rows[ask[k], at] = True
        fresh = np.zeros((len(ask), width), bool)
        fresh[k, at] = True
        dev = np.where(fresh, np.abs((A[ask] @ z[ask][:, :, None])[:, :, 0] - b[ask]), -1.0)
        i = np.argmax(dev, axis=1)
        up = dev[np.arange(len(ask)), i] > worst[ask]
        j[ask[up]], worst[ask[up]] = i[up], dev[np.flatnonzero(up), i[up]]
        floor[ask] = np.maximum(floor[ask], _LEVEL_ULPS * np.finfo(float).eps
                                * np.max(np.where(fresh, np.abs(b[ask]), 0.0), axis=1))
        ask = ask[worst[ask] <= level[ask] * (1.0 + _LEVEL_RTOL) + floor[ask]]
    return A, b, rows
