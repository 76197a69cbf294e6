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
            raise ValueError(f"multi-index entries must be nonnegative, got j_t={self.j_t}, j_x={self.j_x}, "
                             f"j_v={self.j_v}")
        if len(self.j_x) != len(self.j_v):
            raise ValueError(f"j_x and j_v must have equal length, got j_x={self.j_x}, j_v={self.j_v}")

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
                raise ValueError(f"multi-index dimension mismatch: {j} has dimension {j.d}, the polynomial "
                                 f"{self.d}")
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
                raise ValueError(f"point dimension mismatch: a point of dimension {z.d} for a polynomial of "
                                 f"dimension {self.d}")
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
        raise ValueError(f"threshold must be positive, got {threshold}")
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
        raise ValueError(f"dimension mismatch: a point of dimension {z0.d} for a polynomial of dimension {p.d}")
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
    its direction from every row.  As geqp3 does, the squared norms are
    downdated by each row's component along that direction, and computed again
    where they fall below sqrt(eps) times their last computed value.  All
    arithmetic is row by row, a sum over the planes in their order, so a
    problem's pivots are the same alone or in a stack.
    """
    B, N, n = A.shape
    planes = np.empty((n + 1, B, N))
    planes[:n] = np.moveaxis(A, 2, 0)
    planes[n] = b
    ar = np.arange(B)
    ref = np.empty((B, n + 1), int)
    tol = np.sqrt(np.finfo(float).eps)
    # squared norms of the marked rows not yet taken, -inf elsewhere, and where each is computed again
    norm2 = np.where(rows, sum(c * c for c in planes), -np.inf)
    cut = tol * norm2
    for k in range(n + 1):
        ref[:, k] = j = np.argmax(norm2, axis=1)
        if k == n:
            break
        norm2[ar, j] = cut[ar, j] = -np.inf
        piv = planes[:, ar, j]
        nrm = np.sqrt(sum(c * c for c in piv))
        e = piv / np.where(nrm > 0.0, nrm, 1.0)
        proj = planes[0] * e[0][:, None]
        for c, ec in zip(planes[1:], e[1:]):
            proj += c * ec[:, None]
        norm2 -= proj * proj
        i, r = np.divmod(np.flatnonzero(norm2 < cut), N)
        # the planes after the last removal are read only where a norm is computed again
        if k < n - 1 or len(i):
            for c, ec in zip(planes, e):
                c -= proj * ec[:, None]
        if len(i):
            norm2[i, r] = sum(c[i, r] * c[i, r] for c in planes)
            cut[i, r] = tol * norm2[i, r]
    return ref


def _exchange(A: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None, grow=None) -> list:
    """Per problem of a stack: (argmin_z max_i |A_i z - b_i|, level, final reference) by Stiefel's
    exchange, or None.

    A (B, N, n) and b (B, N) hold B problems; rows (B, N), all by default,
    marks the rows of each (the others must be zero in A and b).  Each has
    full column rank n on more than n rows.  A reference R of n + 1 rows
    has the null vector lambda of A_R^T, whose level h = |lambda.b_R| /
    ||lambda||_1 bounds the optimum from below, and the primal z solving
    K [z; h] = b_R, K = [A_R, sign lambda].  The first references are the
    first n + 1 pivots of Gram-Schmidt with column pivoting on [A b]^T
    (`_first_references`); one stacked SVD gives their rank and lambda, and
    a singular one returns None.

    A pass costs one stacked inverse of the (n + 1)^2 matrices K: K^-1 b_R,
    refined once by K^-1 times its residual, is (z, h), the worst row j
    enters, and `_leave` takes the next reference and its lambda from K^-1
    (the classical exchange update).
    The problems run in lockstep, with stacked `inv` and `@`, each
    numerically the same as alone, with or without zero rows after its
    own.  A problem that has ended, or waits, stays in the stack frozen:
    its pass is computed and dropped, and its state no longer changes.

    grow, when given, is asked for more rows where problems would end: a
    problem optimal on its rows waits until every problem of the stack
    does, and grow(problems, z) then returns (counts, A rows, b rows): per
    problem the number of rows to append after its last row, and those
    rows, grouped by problem.  A problem ends where grow has none, and goes
    on from its reference where an appended row deviates beyond the
    tolerance.

    The pivot rule takes the row of largest residual norm, the first one on
    a tie, as LAPACK's geqp3 does; geqp3 breaks ties in its own swapped
    order and downdates its norms, so on rows whose norms tie to rounding the
    two may start from different references.  Any regular reference serves:
    the exchange only starts there.

    A zero multiplier (parallel rows bind) leaves the sign of its row free
    (`_sign_choices`).  A reference met again is a cycle among references
    of one level.  The level never falls, so only the passes whose level
    did not rise (to the tolerance) record their references and look for
    them among the problem's earlier ones, all problems at once; a cycle
    repeats such a pass within a few rounds.  `_core_fit` then fits over
    the primals of that level: it ends the problem there if the level is
    the optimum, or gives n + 2 rows from which the exchange goes on at a
    higher level; None where it cannot.  A second core fit at one level
    ends the problem with its primal: the rows the first gave did not lift
    the level, so the primal exceeds it by rounding only.
    """
    B, N, n = A.shape
    out: list = [None] * B
    rows = np.ones((B, N), bool) if rows is None else rows
    ref = _first_references(A, b, rows)
    U, S, _ = np.linalg.svd(A[np.arange(B)[:, None], ref])
    go = S[:, -1] > _DEGENERATE * S[:, 0]
    if not go.any():
        return out
    # [A b] by rows, a copy: rows appended later never reach the caller's arrays
    Ab, rows, ref, lam = np.concatenate([A, b[:, :, None]], axis=2)[go], rows[go], ref[go], U[go, :, n]
    live, L = go.nonzero()[0], len(Ab)
    ar = np.arange(L)[:, None]
    lam = np.where(((lam * Ab[ar, ref, n]).sum(axis=1) < 0.0)[:, None], -lam, lam)
    s = {"Ab": Ab, "rows": rows, "used": N - rows[:, ::-1].argmax(axis=1), "ref": ref, "lam": lam,
         "free": _vanish(lam), "level": np.full(L, -np.inf), "cored": np.full(L, -np.inf),
         "floor": _LEVEL_ULPS * np.finfo(float).eps * abs(Ab[:, :, n]).max(axis=1)}
    act, wait, lost = np.ones(L, bool), np.zeros(L, bool), np.zeros(L, bool)
    # sorted references of the passes whose level stayed, by problem
    hist, seen = np.empty((L, 4, n + 1), int), np.zeros(L, int)
    while True:
        Ab, ref, lam, free, floor = (s[k] for k in ("Ab", "ref", "lam", "free", "floor"))
        Ab_w = Ab[:, :int(s["used"].max())]
        K = Ab_w[ar, ref]
        b_ref = K[:, :, n].copy()
        K[:, :, n] = np.sign(lam)
        K[lost] = np.eye(n + 1)
        try:
            inv = np.linalg.inv(K)
        except np.linalg.LinAlgError:
            S = np.linalg.svd(K, compute_uv=False)
            lost |= ~(S[:, -1] > _DEGENERATE * S[:, 0])
            K[lost] = np.eye(n + 1)
            inv = np.linalg.inv(K)
        # (z, h) = K^-1 b_R, refined once: K^-1 times the residual recovers the accuracy of a
        # solve, which exactly fittable data need to end within the floor
        zh = (inv @ b_ref[:, :, None])[:, :, 0]
        zh += (inv @ (b_ref - (K @ zh[:, :, None])[:, :, 0])[:, :, None])[:, :, 0]
        h = zh[:, n].copy()
        zh[:, n] = -1.0
        dev = abs((Ab_w @ zh[:, :, None])[:, :, 0])
        dev[ar, ref] = 0.0
        j = dev.argmax(axis=1)
        worst = dev[ar[:, 0], j]
        free = free & act[:, None]
        if free.any():
            _sign_choices(Ab_w, ref, free, inv, K[:, :, n], h, zh, j, worst)
        turn = np.full((L, n + 2), -1)
        stay = (act & ~lost & (h <= s["level"] * (1.0 + _LEVEL_RTOL) + floor)).nonzero()[0]
        if len(stay):
            key = np.sort(ref[stay], axis=1)
            met = (hist[stay] == key[:, None, :]).all(axis=2) & (np.arange(hist.shape[1]) < seen[stay, None])
            if seen[stay].max() == hist.shape[1]:
                hist = np.concatenate([hist, np.empty_like(hist)], axis=1)
            hist[stay, seen[stay]] = key
            seen[stay] += 1
            stay = stay[met.any(axis=1)]
        again = np.zeros(L, bool)
        for k in stay:
            core = ref[k, ~free[k]]
            A_k, b_k = Ab_w[k, :, :n], Ab_w[k, :, n]
            fit = _core_fit(A_k, b_k, s["rows"][k, :Ab_w.shape[1]], core, K[k, ~free[k], n] * h[k])
            if fit is None:
                lost[k] = True
                continue
            zh[k, :n], turn[k] = fit
            dev_k = abs(A_k @ zh[k, :n] - b_k)
            dev_k[core] = 0.0
            j[k] = dev_k.argmax()
            worst[k] = dev_k[j[k]]
            # A second core fit at one level: its rows' best reference did not rise, so the
            # primal exceeds the level by rounding only, and the problem ends with it.
            again[k] = h[k] <= s["cored"][k] * (1.0 + _LEVEL_RTOL) + floor[k]
            s["cored"][k] = h[k]
        act &= ~lost
        done = act & ((worst <= h * (1.0 + _LEVEL_RTOL) + floor) | again)
        turn[done] = -1
        new = {"inv": inv, "z": zh[:, :n], "level": h, "j": j, "worst": worst, "turn": turn}
        if act.all() or "z" not in s:
            s.update(new)
        else:
            for k, x in new.items():
                s[k][act] = x[act]
        act &= ~done
        if grow is None:
            _finish(out, live, s, done.nonzero()[0])
        else:
            wait |= done
        if not act.any():
            if not wait.any():
                return out
            ask = wait.nonzero()[0]
            more = _grow(grow, live, s, ask)
            _finish(out, live, s, ask[~more])
            act[ask[more]], wait[:] = True, False
            if not act.any():
                return out
        _leave(s, act)


def _vanish(lam):
    """The multipliers that vanish, to _DEGENERATE of the largest, by rows."""
    size = abs(lam)
    return size <= _DEGENERATE * size.max(axis=1, keepdims=True)


def _finish(out: list, live, s: dict, k):
    """Set the results of the problems k of an exchange's state s, live giving their places."""
    for i in k:
        out[live[i]] = (s["z"][i], float(s["level"][i]), s["ref"][i])


def _sign_choices(Ab, ref, free, inv, sign, h, zh, j, worst):
    """Resolve the free signs of a pass in place: with up to _FREE_SIGNS zero multipliers, every
    choice of their rows' signs moves the primal to z + h K^-1 (sign - choice); the first
    choice whose worst row outside R deviates least gives zh, j and worst.  The rows of R
    deviate by the level, up to rounding."""
    n = Ab.shape[2] - 1
    n_free = np.count_nonzero(free, axis=1)
    for f in np.unique(n_free[(n_free > 0) & (n_free <= _FREE_SIGNS)]):
        g = np.flatnonzero(n_free == f)
        ag = np.arange(len(g))
        fk = np.nonzero(free[g])[1].reshape(len(g), f)
        choice = np.array(list(itertools.product((1.0, -1.0), repeat=f))).T
        cols = np.take_along_axis(inv[g, :n], fk[:, None, :], axis=2)
        z_try = np.repeat(zh[g, :, None], choice.shape[1], axis=2)
        z_try[:, :n] += h[g, None, None] * (cols @ (sign[g[:, None], fk][:, :, None] - choice))
        dev = np.abs(Ab[g] @ z_try)
        dev[ag[:, None], ref[g]] = 0.0
        j_g = np.argmax(dev, axis=1)
        worst_g = np.take_along_axis(dev, j_g[:, None, :], axis=1)[:, 0]
        c = np.argmin(worst_g, axis=1)
        zh[g], j[g], worst[g] = z_try[ag, :, c], j_g[ag, c], worst_g[ag, c]


def _leave(s: dict, act):
    """The exchange step at the problems act of the state s: row j enters each reference, and
    the row whose drop gives the largest level leaves, the first that entered among ties.
    Sets their next ref, lam and free.

    The null space of A^T on the n + 2 rows R + j is spanned by u = (lambda, 0) and
    v = (mu, -1), with mu = K^-T (A_j, 0), or, on the n + 2 rows `_core_fit` gave
    (turn), by two left singular vectors.  u v_k - v u_k vanishes on row k: it is the
    multipliers of the reference without row k, and its level is |b.(u v_k - v u_k)|
    over its 1-norm.
    """
    Ab, j, turn = s["Ab"], s["j"], s["turn"]
    L, n = len(Ab), Ab.shape[2] - 1
    ar = np.arange(L)
    ext = np.column_stack([s["ref"], j])
    u, v = np.zeros((L, n + 2)), np.full((L, n + 2), -1.0)
    u[:, :n + 1] = s["lam"]
    v[:, :n + 1] = (s["inv"][:, :n].swapaxes(1, 2) @ Ab[ar, j, :n, None])[:, :, 0]
    t = ((turn[:, 0] >= 0) & act).nonzero()[0]
    if len(t):
        ext[t] = turn[t]
        Y = np.linalg.svd(Ab[t[:, None], turn[t], :n])[0]
        u[t], v[t] = Y[:, :, n], Y[:, :, n + 1]
    ys = u[:, :, None] * v[:, None, :] - v[:, :, None] * u[:, None, :]
    norm1 = abs(ys).sum(axis=1)
    dot = (Ab[ar[:, None, None], ext[:, None, :], n] @ ys)[:, 0]
    ok = norm1 > _DEGENERATE * norm1.max(axis=1, keepdims=True)
    levels = np.where(ok, abs(dot) / np.where(ok, norm1, 1.0), -1.0)
    drop = (levels >= levels.max(axis=1, keepdims=True) * (1.0 - _LEVEL_RTOL)).argmax(axis=1)
    keep = np.arange(n + 2) != drop[:, None]
    # the next multipliers, of 1-norm 1 and signed so that lambda.b_R >= 0
    size = norm1[ar, drop]
    scale = np.where(dot[ar, drop] < 0.0, -1.0, 1.0) / np.where(size > 0.0, size, 1.0)
    ref, lam = ext[keep].reshape(L, n + 1), (ys[ar, :, drop] * scale[:, None])[keep].reshape(L, n + 1)
    if act.all():
        s["ref"], s["lam"], s["free"] = ref, lam, _vanish(lam)
    else:
        on = act[:, None]
        s["ref"], s["lam"], s["free"] = (np.where(on, ref, s["ref"]), np.where(on, lam, s["lam"]),
                                         np.where(on, _vanish(lam), s["free"]))


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


def _grow(grow, live, s: dict, ask) -> np.ndarray:
    """Ask grow for rows at the problems ask of the exchange state s (live[ask] for grow),
    append them after each problem's last row, and return, by problem of ask, whether it goes
    on: False where grow has no rows.  A problem whose new rows all deviate within the
    tolerance is asked again.  Rows go into spare capacity, doubled when full; updates Ab,
    rows, used, floor, j and worst of s."""
    n = s["Ab"].shape[2] - 1
    more = np.ones(len(s["Ab"]), bool)
    first = ask
    while len(ask):
        n_new, A_new, b_new = grow(live[ask], s["z"][ask])
        more[ask[n_new == 0]] = False
        ask, n_new = ask[n_new > 0], n_new[n_new > 0]
        if not len(ask):
            break
        used = s["used"]
        need = int((used[ask] + n_new).max())
        if need > s["Ab"].shape[1]:
            pad = max(need, 2 * s["Ab"].shape[1]) - s["Ab"].shape[1]
            s["Ab"] = np.concatenate([s["Ab"], np.zeros((len(more), pad, n + 1))], axis=1)
            s["rows"] = np.concatenate([s["rows"], np.zeros((len(more), pad), bool)], axis=1)
        k = np.repeat(np.arange(len(ask)), n_new)
        pos = np.arange(len(k)) - np.repeat(np.cumsum(n_new) - n_new, n_new)
        at = ask[k] * s["Ab"].shape[1] + used[ask[k]] + pos
        s["Ab"].reshape(-1, n + 1)[at] = np.column_stack([A_new, b_new])
        s["rows"].reshape(-1)[at] = True
        # the new rows' deviations; the worst enters where it beats the worst so far
        dev, size = np.full((2, len(ask), int(n_new.max())), -1.0)
        dev[k, pos] = abs((A_new * s["z"][ask[k]]).sum(axis=1) - b_new)
        size[k, pos] = abs(b_new)
        i = dev.argmax(axis=1)
        best = dev[np.arange(len(ask)), i]
        up = best > s["worst"][ask]
        s["j"][ask[up]], s["worst"][ask[up]] = used[ask[up]] + i[up], best[up]
        used[ask] += n_new
        floor = s["floor"]
        floor[ask] = np.maximum(floor[ask], _LEVEL_ULPS * np.finfo(float).eps * size.max(axis=1))
        ask = ask[s["worst"][ask] <= s["level"][ask] * (1.0 + _LEVEL_RTOL) + floor[ask]]
    return more[first]
