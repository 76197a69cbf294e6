"""Galilean group arithmetic, kinetic scaling, homogeneous norm and distances.

The phase-space point z = (t, x, v) carries the noncommutative product

    (t1, x1, v1) o (t2, x2, v2) = (t1 + t2, x1 + x2 + t2*v1, v1 + v2)

and the anisotropic scaling S_R(t, x, v) = (R^{2s} t, R^{1+2s} x, R v).
Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .quadrature import _norm

__all__ = [
    "ScalingExponent",
    "Point",
    "compose",
    "inverse",
    "scale",
    "knorm",
    "dist",
    "left_distance_batch",
    "pair_distance_batch",
    "DistanceConvergenceError",
]

_ITER_CAP = 200
# Newton on the distance roots converges quadratically, so a step below this
# share of the radius leaves an error far below one ulp of the distance.
_NEWTON_RTOL = 1e-12
# rows of homogeneous size S with S^p past 2^_SAFE_LOG2 are dilated to size 1 first: an
# intermediate of size S^p or its square would overflow, to inf, NaN or a wrong root
_SAFE_LOG2 = 500
# _root_table's grid: its linear pieces put a start within about 1e-6 of the
# root, so one free Newton step and one checked step end most rows.
_TABLE_POINTS = 1 << 14
_TABLE_SPAN = 25.0
_TINY = np.finfo(float).tiny
# _hypot trusts q = a a + b b in [2^-960, 2^960], where no square in it overflows or loses bits
_HYPOT_LO, _HYPOT_HI = 2.0**-960, 2.0**960
# rounding allowance of the segment certificate, in ulps of the row's size
_CERT_ULPS = 64.0
# a row whose ends' distances to c differ by at most this many allowances is
# a tie, and scores both segments (the proof needs more than 18)
_TIE_ETAS = 32.0


class DistanceConvergenceError(RuntimeError):
    """An iteration cap was reached by a Newton root of the left distance."""


@dataclass(frozen=True)
class ScalingExponent:
    """Fractional order parameter s with 2s in (0, 2).

    When s is (numerically) a small rational, degree arithmetic elsewhere can
    use the exact fraction; ``as_fraction`` is None otherwise.
    """

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0,1), got {self.s}")

    @property
    def two_s(self) -> float:
        return 2.0 * self.s

    @property
    def as_fraction(self) -> Fraction | None:
        f = Fraction(self.s).limit_denominator(64)
        return f if float(f) == self.s else None


def _as_exponent(s) -> ScalingExponent:
    return s if isinstance(s, ScalingExponent) else ScalingExponent(float(s))


@dataclass(frozen=True)
class Point:
    """A phase-space event z = (t, x, v) in dimension d."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        # A sweep builds a Point per base point: the checks run on Python floats, which for
        # a few coordinates is several times faster than numpy's ufuncs.
        t, x, v = float(self.t), np.asarray(self.x, dtype=float), np.asarray(self.v, dtype=float)
        if x.ndim == 0 or v.ndim == 0:
            x, v = np.atleast_1d(x), np.atleast_1d(v)
        if x.shape != v.shape or x.ndim != 1:
            raise ValueError(f"x and v must be 1-d arrays of equal length, got shapes {x.shape} and {v.shape}")
        if not all(map(math.isfinite, [t, *x.tolist(), *v.tolist()])):
            raise ValueError(f"coordinates must be finite, got t={t}, x={x.tolist()}, v={v.tolist()}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @classmethod
    def zero(cls, d: int = 1) -> "Point":
        return cls(0.0, np.zeros(d), np.zeros(d))

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.t == other.t
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self):
        return hash((self.t, self.x.tobytes(), self.v.tobytes()))


def _check_dims(z1: Point, z2: Point):
    if z1.d != z2.d:
        raise ValueError(f"dimension mismatch: {z1.d} vs {z2.d}")


def compose(z1: Point, z2: Point) -> Point:
    """Group product z1 o z2 = (t1+t2, x1+x2+t2*v1, v1+v2)."""
    _check_dims(z1, z2)
    return Point(z1.t + z2.t, z1.x + z2.x + z2.t * z1.v, z1.v + z2.v)


def inverse(z: Point) -> Point:
    """Group inverse (-t, -x + t*v, -v)."""
    return Point(-z.t, -z.x + z.t * z.v, -z.v)


def scale(R: float, z: Point, s) -> Point:
    """Anisotropic dilation S_R z = (R^{2s} t, R^{1+2s} x, R v)."""
    if R <= 0:
        raise ValueError(f"scaling factor must be positive, got {R}")
    s = _as_exponent(s)
    return Point(R ** s.two_s * z.t, R ** (1.0 + s.two_s) * z.x, R * z.v)


def knorm(z: Point, s) -> float:
    """Homogeneous 'norm' max(|t|^{1/2s}, |x|^{1/(1+2s)}, |v|)."""
    s = _as_exponent(s)
    return max(
        abs(z.t) ** (1.0 / s.two_s),
        float(np.linalg.norm(z.x)) ** (1.0 / (1.0 + s.two_s)),
        float(np.linalg.norm(z.v)),
    )


# ---------------------------------------------------------------------------
# Left-invariant distance.
#
# d_l(z1,z2) = min over w of
#   max(|t1-t2|^{1/2s}, |x1-x2-(t1-t2)w|^{1/(1+2s)}, |v1-w|, |v2-w|).
#
# With tbar = t1-t2, xbar = x1-x2, p = 1+2s, A = |tbar| and h = |v1-v2|/2,
# a witness w at radius r lies in the balls |w-v1| <= r, |w-v2| <= r and
# A|w-c| <= r^p, c = xbar/tbar.  The distance is max(|tbar|^{1/2s}, r_w),
# r_w the smallest radius at which the three balls meet (for tbar = 0 it is
# max(|xbar|^{1/p}, h)).  At that radius the balls that bind are {v1, v2},
# {v_i, c} or all three; one ball alone binds only at r = 0.  Each case
# fixes one candidate witness:
#
# - midpoint: w = m = (v1+v2)/2, r = h;
# - segment i = 1, 2: the balls about v_i and c touch on [v_i, c], at
#   distance u from v_i with u^p = A(|c-v_i| - u);
# - bisector: w is equidistant from v1 and v2 and, since reflection in the
#   plane of v1, v2 and c maps every ball to itself, lies in that plane:
#   w = m + u e, e the unit part of c-m orthogonal to v2-v1, a and b the
#   parts of c-m along e and v2-v1, u on [0, a] the root of
#   (h^2+u^2)^{p/2} = A sqrt((a-u)^2+b^2).
#
# Each candidate is scored by the defining max at its witness.  No score is
# below r_w and the optimal candidate's equals it, so the smallest score is
# r_w up to the rounding of the roots: no feasibility slack is involved.
# In d = 1 the balls are intervals and the segment from the farther v_i
# wins; _distance_1d solves that one equation directly.
#
# The d = 1 root and the segment roots solve one equation in _radius_root,
# (u+h)^p = A(L-u) with L = |c-m| in d = 1 and L = |c-v_i|, h = 0, for a
# segment.  In units of the time term r_t = |tbar|^{1/2s} its radius
# r = h + u is r_t rho, with rho^p + rho = kappa = (L + h)/r_t.  In d = 1 a
# row with kappa <= 2 has rho <= 1, so the time floor binds and no root is
# solved.  Every other row starts from a per-p table of log rho against
# log kappa, within about 1e-6 of its root, and one free Newton step and one
# checked step end most rows.
#
# For tbar != 0, _distance_nd returns max(floor, smallest score) with the
# floor max(|tbar|^{1/2s}, h).  It scores the candidates in stages, the
# cheap ones first: the midpoint on every row, then the segment of the
# farther end (one Newton root; both segments, two Newton roots, on a tie
# row), then the bisector: safeguarded Newton on a sign bracket, started from
# the same table, as its root has R^p = A S for R = |w-v_i| and S = |w-c|,
# so R = r_t rho with rho^p + rho = (R + S)/r_t; R + S changes slowly along
# the bisector and is taken at the bracket's midpoint.  Each |(a, b)| there
# is sqrt(a a + b b), or np.hypot on a row where that leaves [2^-480, 2^480].
# A row leaves a stage, with max(floor, best score so far), once no later
# candidate can change that value:
#
# - its best score b is at or below the floor, which is then the answer
#   whatever the later candidates score;
# - or, after the segments, one segment proves that the bisector scores
#   above b.  Let u be segment i's radius, w_i its witness, L = |c-v_i|,
#   q = |w_i-v_j| for the other end v_j, and take the rounding allowance
#   eta = 64 eps (u + L + |v1| + |v2|), a margin over the few ulps by which
#   a computed score or root misses its exact value.  A point whose
#   computed score is at most b lies within u+e of v_i, e = max(b-u, 0) +
#   eta, and within (L-u) + D of c, D = ((u+e)^p - u^p)/A + 2 eta (u^p =
#   A(L-u) at the root).  That lens about w_i reaches from it at most
#   max(e, D) along [v_i, c] and sqrt(2u(e+D) + e^2) across, so it lies
#   within ext = sqrt(max(e, D)^2 + 2u(e+D) + e^2) of w_i.  For q < u, w_i
#   is on v_j's side of the bisector plane, at gap = (u^2-q^2)/(4h) from it.
#   The bisector witness lies on that plane, and the computed gap and plane
#   are off by less than eta (1 + u/h): the plane's normal v2-v1 is known to
#   a relative eps (|v1| + |v2|)/h.  So gap > 2 ext + eta (1 + u/h) puts the
#   bisector witness outside the lens: its computed score is above b.
#
# Only the farther end's segment can set the distance.  Write L_i = |c-v_i|
# and u_i for segment i's radius, and say L_1 < L_2.  The balls about v_i
# and c meet at radius r only if r + r^p/A >= L_i, so r_w >= u_2 > u_1.  The
# witness w_1 has |w_1-v_1| = u_1 = (A|c-w_1|)^{1/p}, so it scores max(u_1,
# q) >= r_w > u_1 with q = |w_1-v_2|: it scores q.  And q is above r_w by
# g >= (L_2-L_1)/2 min(1, (r_w/r_t)^{p-1}), with r_t = |tbar|^{1/2s}:
#
# - |c-w_1| = L_1-u_1, so q >= L_2-L_1 + u_1;
# - a step t from w_1 towards v_2 keeps the other two terms below r_w while
#   t < min(r_w-u_1, (r_w^p-u_1^p)/A), and (r_w^p-u_1^p)/A >= (r_w-u_1)
#   (r_w/r_t)^{p-1}; no point scores below r_w, so q-t >= r_w;
# - where r_w-u_1 <= (L_2-L_1)/2 the first bound gives g, else the second.
#
# Segment 1's certificate needs q < u_1, which would put the three balls
# together at radius u_1 < r_w; leaving it out can only send a row on to the
# bisector.  Under rounding, take eta = 64 eps (L_1 + L_2 + |v1| + |v2|) as
# the allowance of a computed L_i, root or score.  One of the other three
# candidates binds at r_w (segment 1 cannot, as u_1 < r_w), so their best is
# at most r_w + eta.  Dropping
# segment 1 changes max(floor, best) only if segment 1 scores below that best
# and that best is above the computed floor, at least r_t - eta; so r_w >
# r_t - 2 eta.  Then r_w >= r_t/2: either L_2 >= r_t, and u_2 >=
# r_t/2 (rho^p + rho = kappa >= 1 gives rho >= 1/2), or r_t >= 4 eta, or
# else L_2 < 4 eta and the row is a tie below.  With r_w >= r_t/2 and p-1 <
# 2, g >= (L_2-L_1)/8, so a computed |L_1-L_2| above 18 eta puts segment 1's
# computed score above r_w + eta: it changes nothing.  A row whose computed
# |L_1-L_2| is at most _TIE_ETAS eta is a tie and scores both segments; c on
# the bisector plane and v1 = v2 make L_1 = L_2.
#
# The rest keep the running minimum.  Stopping and the dropped nearer
# segments are therefore exact: every score that is computed is computed as
# it would be among all four, and min and max round nothing.  On random
# pairs (coordinates uniform on [-2, 2], s = 1/2) the midpoint alone settles
# about half the rows (the time term binds, or c is near m), and the
# bisector runs on 16 % of them in d = 2 and 30 % in d = 3 (42 % and 46 %
# without the segment certificate).
#
# pair_distance_batch returns this value as is: exact up to a few ulp down
# to a homogeneous size S with S^p near 2^-500 (below it squares underflow:
# only large rows are dilated), and a function of its own pair alone: every
# operation acts row by row, so a row scores the same in any batch and stage.
# A point on the sphere d_l = R may therefore compare on either side of R; a
# caller that needs boundary points decided states its rule
# (harness.run_schauder_sweep uses closed cylinders).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _root_table(p: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(y0, dy, x, slope): x[j] = log rho at log kappa = y0 + j dy, rho^p + rho = kappa.

    The grid spans where the two terms trade places, |(p-1) log rho| <=
    _TABLE_SPAN, clipped to the logs of finite floats; past its ends log rho
    is linear in log kappa up to exp(-_TABLE_SPAN), so the end pieces extend
    it.  x is interpolated from log kappa = x + log(1 + e^{(p-1) x}) on twice
    as many values of x.
    """
    y = np.linspace(max(-_TABLE_SPAN / (p - 1.0), -760.0), min(_TABLE_SPAN * p / (p - 1.0), 720.0),
                    _TABLE_POINTS)
    xs = np.linspace(y[0], y[-1] / p, 2 * _TABLE_POINTS)
    x = np.interp(y, xs + np.logaddexp(0.0, (p - 1.0) * xs), xs)
    return y[0], y[1] - y[0], x, np.diff(x)


def _table_rho(kappa, p):
    """rho within about 1e-6 of the root of rho^p + rho = kappa >= 0, read off _root_table."""
    y0, dy, x, slope = _root_table(p)
    t = (np.log(kappa) - y0) / dy
    j = np.minimum(np.maximum(t, 0.0), len(slope) - 1).astype(np.intp)
    return np.exp(x[j] + (t - j) * slope[j])


def _radius_root(rt, h, at, c, p):
    """r = h + u with u >= 0 the root of phi(u) = (u + h)^p + at u - c, p = 1 + 2s; arrays (n,), at > 0.

    In units of rt = at^{1/2s} the root is r = rt rho with rho^p + rho =
    kappa = (c/at + h)/rt, so a row starts at u = rt rho0 - h, rho0 read off
    _root_table.  Rows where rt is subnormal or kappa overflows start from
    min(c/at, c^{1/p}), or 0 when h^p >= c; c is taken as given because
    c/at overflows when at is tiny.  phi is convex and increasing, so one free
    Newton step lands at or above the root (at or below 0 only when the root
    is), and Newton then decreases monotonically to it, at one fractional
    power per step.  Newton runs on phi itself, not on the scaled equation:
    rt rounds its exponent 1/2s, an error the scaled root would scale by
    |log rt|.
    """
    # kappa = 0 starts at exp(-inf) = 0; a NaN free step is inf/inf, where (u + h)^p
    # overflows: u is above the root and stays
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kappa = (c / at + h) / rt
        scaled = (rt >= _TINY) & (kappa < np.inf)
        u = rt * _table_rho(np.where(scaled, kappa, 1.0), p) - h
        if not scaled.all():
            un = np.flatnonzero(~scaled)
            hu, au, cu = h[un], at[un], c[un]
            u[un] = np.where(hu**p >= cu, 0.0, np.minimum(cu / au, cu ** (1.0 / p)))
        u = np.maximum(u, 0.0)
        step = _newton_step(u, h, c, at, p)[1]
    u = np.maximum(np.where(np.isnan(step), u, u - step), 0.0)
    # the open rows' arrays, compacted as rows close
    act = np.flatnonzero(u > 0.0)
    ua, ha, ca, aa = u[act], h[act], c[act], at[act]
    for _ in range(_ITER_CAP):
        if act.size == 0:
            break
        r, step = _newton_step(ua, ha, ca, aa, p)
        ua = np.where(step > 0.0, ua - step, ua)
        go = step > _NEWTON_RTOL * r
        if not go.all():
            u[act] = ua
            act, ua, ha, ca, aa = _take(np.flatnonzero(go), act, ua, ha, ca, aa)
    if act.size:
        raise DistanceConvergenceError("Newton iteration cap reached in the left distance")
    return h + u


def _newton_step(u, h, c, at, p):
    """(r, phi(u)/phi'(u)) for _radius_root's phi, with r = u + h."""
    r = u + h
    q = r ** (p - 1.0)
    return r, (r * q - (c - at * u)) / (p * q + at)


def _hypot(a, b, p=1.0):
    """(r, r^p) by rows, r = |(a, b)|, as sqrt(q) and q^{p/2} with q = a a + b b; rows where r
    leaves [2^-480, 2^480], where a square may have under- or overflowed, take np.hypot."""
    q = a * a + b * b
    r = np.sqrt(q)
    rp = r if p == 1.0 else q ** (0.5 * p)
    if not (q.min(initial=_HYPOT_LO) >= _HYPOT_LO and q.max(initial=0.0) <= _HYPOT_HI):  # NaN fails too
        off = ~((q >= _HYPOT_LO) & (q <= _HYPOT_HI))
        r[off] = np.hypot(a[off], b[off])
        rp[off] = r[off] ** p
    return r, rp


def _bisector_root(h, aA, bA, A, p):
    """Root on [0, aA/A] of psi(u) = (h^2+u^2)^{p/2} - |(aA - A u, bA)|; arrays (n,), A > 0.

    psi increases there, so the root is unique, or an end of the interval.
    psi >= 0 once |(h, u)| >= |(aA, bA)|^{1/p}, which caps the bracket when
    aA/A is large.  A row starts where _table_rho puts R = |(h, u)| for kappa
    = (R + S)/r_t at the bracket's midpoint, S = |(aA - A u, bA)|/A (see the
    comment above), or at the midpoint where that start is not finite or
    leaves the bracket.  Safeguarded Newton: a step leaving the sign bracket,
    or landing on its far end, becomes its midpoint.
    """
    # a Newton denominator that is 0/0 where S = 0 makes a NaN step, which bisects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r0 = _hypot(aA, bA)[0] ** (1.0 / p)  # psi(u) >= 0 once |(h, u)| >= r0
        hi = np.minimum(aA / A, np.sqrt(np.maximum(r0 - h, 0.0)) * np.sqrt(r0 + h))
        at_hi = _hypot(h, hi, p)[1] - _hypot(aA - A * hi, bA)[0] <= 0.0
        u = np.where(at_hi, hi, 0.0)
        act = np.flatnonzero((h < r0) & ~at_hi)
        # the open rows' arrays, compacted as rows close
        h, aA, bA, A, hi = _take(act, h, aA, bA, A, hi)
        mid, rt = 0.5 * hi, A ** (1.0 / (p - 1.0))
        kappa = (_hypot(h, mid)[0] + _hypot(aA - A * mid, bA)[0] / A) / rt
        R0 = rt * _table_rho(np.where(kappa < np.inf, kappa, 1.0), p)
        ua = np.sqrt((R0 - h) * (R0 + h))
        lo, ua = np.zeros_like(hi), np.where((ua > 0.0) & (ua < hi), ua, mid)
        for _ in range(_ITER_CAP):
            if act.size == 0:
                break
            gap = aA - A * ua
            (R, Rp), S = _hypot(h, ua, p), _hypot(gap, bA)[0]
            val = Rp - S
            above = val > 0.0
            hi, lo = np.where(above, ua, hi), np.where(above, lo, ua)
            step = val / (p * (ua / R) * (Rp / R) + A * (gap / S))
            # ua is now an end of the bracket; a step onto the other end would
            # only swap the two ends, so it bisects like a step out of the bracket
            nxt = ua - step
            newton = (nxt == ua) | ((nxt > lo) & (nxt < hi))
            ua = np.where(newton, nxt, 0.5 * (lo + hi))
            done = (newton & (np.abs(step) <= _NEWTON_RTOL * R)) | ~(hi - lo > 4.0 * np.finfo(float).eps * R)
            if done.any():
                u[act[done]] = ua[done]
                act, h, aA, bA, A, hi, lo, ua = _take(np.flatnonzero(~done), act, h, aA, bA, A, hi, lo, ua)
    if act.size:
        raise DistanceConvergenceError("safeguarded Newton cap reached in the left distance")
    return u


def _floor_terms(tbar, xbar, v1, v2, s):
    """(|tbar|, r_t, h, floor) by rows: r_t = |tbar|^{1/2s}, h = |v1 - v2|/2 and floor = max(r_t, h),
    or max(|xbar|^{1/p}, h) where tbar = 0, which is the distance there.

    The floor is a lower bound of d_l, and _distance_1d and _distance_nd start
    from these very values and only raise them, so the distance they return is
    at least the floor to the bit.  Arrays (n,) as _distance_1d takes them in
    d = 1, (n, d) as _distance_nd does.
    """
    size = np.abs if v1.ndim == np.ndim(tbar) else _norm
    at = np.abs(tbar)
    h = 0.5 * size(v1 - v2)
    rt = at ** (1.0 / s.two_s)
    r = np.maximum(rt, h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], size(xbar[zero_t]) ** (1.0 / (1.0 + s.two_s)))
    return at, rt, h, r


def _distance_1d(tbar, xbar, v1, v2, s):
    """Exact d_l for d = 1; arrays (n,).

    A witness w at distance u from (v1+v2)/2 towards c needs r >= h + u
    and r^p >= A (D - u), D = |c - (v1+v2)/2|, so r_w = h + u* with u* the
    root of (u+h)^p = A (D-u) on [0, D] (0 when h^p >= A D).  A D is
    computed as |sign(tbar) xbar - A (v1+v2)/2|, without dividing by tbar.
    In units of the time term r_t = A^{1/2s}, r_w = r_t rho with
    rho^p + rho = kappa = (D + h)/r_t, so rows with kappa <= 2 have r_w <= r_t
    and need no root; the rest go to _radius_root.
    """
    p = 1.0 + s.two_s
    at, rt, h, r = _floor_terms(tbar, xbar, v1, v2, s)
    zero_t = at == 0.0
    AD = np.abs(np.sign(tbar) * xbar - at * 0.5 * (v1 + v2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gen = np.flatnonzero(~zero_t & ~(AD / at + h <= 2.0 * rt))
    r[gen] = np.maximum(r[gen], _radius_root(rt[gen], h[gen], at[gen], AD[gen], p))
    return r


def _towards_c(tb, xb, v):
    """A (c - v) = sign(tbar) (xbar - tbar v), with no division by tbar."""
    return np.sign(tb)[:, None] * (xb - tb[:, None] * v)


def _unit(y, ny):
    """y / |y| by rows, given ny = |y|; rows with ny = 0 stay 0."""
    return y / np.where(ny > 0.0, ny, 1.0)[:, None]


def _scores(tb, xb, v1, v2, w, p):
    """The defining max at witnesses w, then its terms |w - v1| and |w - v2|; tb (k,),
    xb/v1/v2/w (k, d) and p = 1+2s."""
    a, b = _norm(w - v1), _norm(w - v2)
    return np.maximum(np.maximum(a, b), _norm(xb - tb[:, None] * w) ** (1.0 / p)), a, b


def _bisector_witness(tb, xb, v1, v2, h, p):
    m = 0.5 * (v1 + v2)
    axis = _unit(v2 - v1, 2.0 * h)
    y = _towards_c(tb, xb, m)
    bA = np.einsum("nd,nd->n", y, axis)
    y -= bA[:, None] * axis
    aA = _norm(y)
    return m + _bisector_root(h, aA, bA, np.abs(tb), p)[:, None] * _unit(y, aA)


def _segment_optimal(u, q, AL, h, best, A, size, p):
    """Rows whose segment witness w_i proves that the bisector scores above best.

    u is the segment radius, q = |w_i - v_j| with v_j the other end, AL = A|c - v_i|
    and size = |v1| + |v2|; arrays (k,).  See the comment above for the proof.
    Rows where an intermediate overflows stay open.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eta = _CERT_ULPS * np.finfo(float).eps * (u + AL / A + size)
        e = np.maximum(best - u, 0.0) + eta
        D = ((u + e) ** p - u**p) / A + 2.0 * eta
        ext = np.sqrt(np.maximum(e, D) ** 2 + 2.0 * u * (e + D) + e**2)
        gap = (u - q) * (u + q) / (4.0 * h)
        return (h > 0.0) & (q < u) & (gap > 2.0 * ext + eta * (1.0 + u / h))


def _distance_nd(tbar, xbar, v1, v2, s):
    """Exact d_l for d >= 2 by the candidate witnesses above, in stages; tbar (n,), xbar/v1/v2 (n, d).

    A row closes once its best score b has reached the floor max(|tbar|^{1/2s}, h),
    where the distance is the floor whatever the later candidates score.  The
    segment stage solves one root a row, for the end farther from c = xbar/tbar,
    and both only on a tie row, where the two distances to c are within
    _TIE_ETAS rounding allowances: away from a tie the nearer end's score stays
    above the distance (proof in the comment above).  After the segments a row
    also closes, at max(floor, b), when _segment_optimal finds a segment witness
    w_i with q = |w_i - v_j| below its radius u whose gap (u^2 - q^2)/(4h) to the
    bisector plane exceeds twice the reach of the lens of points that could score
    b, plus rounding: the bisector witness lies on that plane, so it scores above
    b.  Only the remaining rows reach the bisector root.
    """
    p = 1.0 + s.two_s
    at, rt, h, r = _floor_terms(tbar, xbar, v1, v2, s)
    rows = (np.arange(len(at)), tbar, xbar, v1, v2, rt, h, r)
    if not at.all():
        rows = _take(np.flatnonzero(at), *rows)

    k, tb, xb, w1, w2, rt, h, floor = rows
    best = _scores(tb, xb, w1, w2, 0.5 * (w1 + w2), p)[0]
    # a NaN score keeps its row open, as the minimum keeps the NaN
    still = np.flatnonzero(~(best <= floor))
    rows, best = _take(still, *rows), best[still]

    k, tb, xb, w1, w2, rt, h, floor = rows
    n, A = len(tb), np.abs(tb)
    ends = np.concatenate((w1, w2))  # end i of row m is row (i - 1) n + m
    y = np.concatenate((_towards_c(tb, xb, w1), _towards_c(tb, xb, w2)))
    AL = _norm(y)  # A L_i
    size = _norm(w1) + _norm(w2)
    # the tie rows, with eta times A as AL is; a NaN keeps a row a tie
    eta = _CERT_ULPS * np.finfo(float).eps * (AL[:n] + AL[n:] + A * size)
    tied = np.flatnonzero(~(np.abs(AL[:n] - AL[n:]) > _TIE_ETAS * eta))
    # segment rows j: every row's farther end, then the nearer end of the tie rows;
    # e is the segment's end and o the other one, as rows of ends
    far = np.where(AL[n:] > AL[:n], n, 0)
    j = np.concatenate((np.arange(n), tied))
    e = np.concatenate((far, n - far[tied])) + j
    o = np.concatenate((n - far, far[tied])) + j
    v, yj, ALj = _take(e, ends, y, AL)
    other = np.take(ends, o, axis=0)
    tj, xj, Aj = _take(j, tb, xb, A)
    u = _radius_root(rt[j], np.zeros(len(j)), Aj, ALj, p)
    score, _, q = _scores(tj, xj, v, other, v + u[:, None] * _unit(yj, ALj), p)
    best = np.minimum(best, score[:n])
    best[tied] = np.minimum(best[tied], score[n:])
    open_ = ~(best <= floor)
    open_[j[_segment_optimal(u, q, ALj, h[j], best[j], Aj, size[j], p)]] = False
    done = np.flatnonzero(~open_)
    r[k[done]] = np.maximum(floor[done], best[done])
    still = np.flatnonzero(open_)
    k, tb, xb, w1, w2, rt, h, floor = _take(still, *rows)
    best = best[still]

    w = _bisector_witness(tb, xb, w1, w2, h, p)
    r[k] = np.maximum(floor, np.minimum(best, _scores(tb, xb, w1, w2, w, p)[0]))
    return r


def _take(idx, *arrays):
    """The rows idx of each array, by np.take, which is several times faster than
    numpy's boolean or fancy indexing of an (n, d) array."""
    return tuple(np.take(a, idx, axis=0) for a in arrays)


def _as_coords(name: str, arr, n: int) -> np.ndarray:
    """Coordinates of n points as an (n, d) array; a 1-d (n,) array means d = 1."""
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] != n:
        raise ValueError(f"{name} must have shape ({n}, d) or ({n},), got {np.shape(arr)}")
    return a


def _check_finite(formed, *named):
    """Raise ValueError naming the argument behind a non-finite entry of ``formed``.

    ``named`` holds (name, array) for the arguments ``formed`` was made from;
    they are searched only once ``formed`` fails.
    """
    if np.isfinite(formed).all():
        return
    for name, a in named:
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {a[tuple(bad[0])]} at index {tuple(bad[0])}")
    raise ValueError(f"{' - '.join(name for name, _ in named)} overflows")


def pair_distance_batch(ts1, xs1, vs1, ts2, xs2, vs2, s, tol: float = 1e-9) -> np.ndarray:
    """Vectorized d_l(z1_i, z2_i) over paired coordinate arrays.

    ts*: (n,), xs*/vs*: (n, d), or (n,) for d = 1.

    Returns the exact distance (see the comment above): a scalar root for
    d = 1, the best of the candidate witnesses for d >= 2.  Each value is
    accurate to a few ulp whatever the other pairs in the batch, so it meets
    any accuracy tol > 0; tol is only checked.  Non-finite coordinates and
    mismatched shapes raise ValueError.
    """
    s = _as_exponent(s)
    if not tol > 0:  # a NaN tol fails this too
        raise ValueError(f"tol must be positive, got {tol}")
    ts1, ts2 = np.asarray(ts1, dtype=float), np.asarray(ts2, dtype=float)
    if ts1.ndim != 1 or ts1.shape != ts2.shape:
        raise ValueError(f"ts1 and ts2 must have one shape (n,), got {ts1.shape} and {ts2.shape}")
    n = ts1.shape[0]
    xs1, vs1, xs2, vs2 = (_as_coords(name, a, n) for name, a in
                          (("xs1", xs1), ("vs1", vs1), ("xs2", xs2), ("vs2", vs2)))
    for name, a in (("vs1", vs1), ("xs2", xs2), ("vs2", vs2)):
        if a.shape != xs1.shape:
            raise ValueError(f"xs1 and {name} must have one shape, got {xs1.shape} and {a.shape}")
    with np.errstate(over="ignore"):  # an overflow is reported just below
        tbar, xbar = ts1 - ts2, xs1 - xs2
    if _within_bounds(tbar, xbar, vs1, vs2, s):  # so every entry is finite
        return _distance(tbar, xbar, vs1, vs2, s)
    _check_finite(tbar, ("ts1", ts1), ("ts2", ts2))
    _check_finite(xbar, ("xs1", xs1), ("xs2", xs2))
    _check_finite(vs1, ("vs1", vs1))
    _check_finite(vs2, ("vs2", vs2))
    return _by_size(_distance, tbar, xbar, vs1, vs2, s)


def _distance(tbar, xbar, v1, v2, s):
    if xbar.shape[-1] == 1:
        return _distance_1d(tbar, xbar[..., 0], v1[..., 0], v2[..., 0], s)
    return _distance_nd(tbar, xbar, v1, v2, s)


def _floor(tbar, xbar, v1, v2, s):
    if xbar.shape[-1] == 1:
        return _floor_terms(tbar, xbar[..., 0], v1[..., 0], v2[..., 0], s)[3]
    return _floor_terms(tbar, xbar, v1, v2, s)[3]


def _distance_floor(tbar, xbar, v1, v2, s) -> np.ndarray:
    """The floor of `_floor_terms` for the pairs of pair_distance_batch with tbar = ts1 - ts2,
    xbar = xs1 - xs2, vs1 and vs2 as it forms them: a lower bound of the distance it returns,
    to the bit, at the cost of one fractional power per pair.  tbar has any shape S, xbar
    the shape S + (d,), and v1 and v2 broadcast to it.  A dilated pair takes the floor of
    the same dilated pair, so the bound holds to the bit there as well."""
    return _by_size(_floor, tbar, xbar, v1, v2, s)


def _size_bounds(s) -> tuple[float, float, float]:
    """The bounds on |tbar|, every |xbar_i| and every |v_i| past which S^p passes 2^_SAFE_LOG2,
    S = max(|tbar|^{1/2s}, |xbar|^{1/p}, |v1|, |v2|)."""
    p = 1.0 + s.two_s
    return 2.0 ** (_SAFE_LOG2 * s.two_s / p), 2.0**_SAFE_LOG2, 2.0 ** (_SAFE_LOG2 / p)


def _dilates(t: float, x: float, v: float, s) -> bool:
    """Whether _by_size may dilate a pair with |tbar| <= t, every |xbar_i| <= x, |v1| <= v and
    |v2| <= v: its bounds, past which S^p passes 2^_SAFE_LOG2."""
    bt, bx, bv = _size_bounds(s)
    return t > bt or x > bx or v > bv


def _within_bounds(tbar, xbar, v1, v2, s) -> bool:
    """Whether no entry passes the bounds of _size_bounds; a non-finite entry passes them."""
    bt, bx, bv = _size_bounds(s)
    return all(max(a.max(initial=0.0), -a.min(initial=0.0)) <= b
               for a, b in ((tbar, bt), (xbar, bx), (v1, bv), (v2, bv)))


def _by_size(fn, tbar, xbar, v1, v2, s):
    """fn(tbar, xbar, v1, v2, s) by pairs, where pairs past the bounds of _size_bounds go
    through _dilated first; tbar of any shape S, xbar of shape S + (d,), and v1 and v2
    broadcasting to it."""
    if _within_bounds(tbar, xbar, v1, v2, s):
        return fn(tbar, xbar, v1, v2, s)
    bt, bx, bv = _size_bounds(s)
    shape, d = np.shape(tbar), xbar.shape[-1]
    tbar, xbar = np.reshape(tbar, -1), xbar.reshape(-1, d)
    v1, v2 = (np.broadcast_to(a, shape + (d,)).reshape(-1, d) for a in (v1, v2))
    big = np.any([(np.abs(a) > b).reshape(len(tbar), -1).any(axis=1)
                  for a, b in ((tbar, bt), (xbar, bx), (v1, bv), (v2, bv))], axis=0)
    r = np.empty(len(tbar))
    r[~big] = fn(tbar[~big], xbar[~big], v1[~big], v2[~big], s)
    r[big] = _dilated(fn, tbar[big], xbar[big], v1[big], v2[big], s)
    return r.reshape(shape)


def _dilated(fn, tbar, xbar, v1, v2, s):
    """lam^-1 fn(delta_lam z1, delta_lam z2), which is d_l(z1, z2) for fn = _distance, at lam = 2^-k,
    2^k the rows' homogeneous size rounded up from the binary exponents: lam v is exact,
    lam^{2s} tbar and lam^p xbar round once, and a distance past the largest float is inf."""
    p, e = 1.0 + s.two_s, lambda a: np.frexp(a)[1]
    k = np.ceil(np.maximum.reduce([e(tbar) / s.two_s, e(xbar).max(axis=1) / p,
                                   e(v1).max(axis=1), e(v2).max(axis=1)]))
    # a 2^-f with no factor that overflows or is subnormal
    shrink = lambda a, f: np.ldexp(a * np.exp2(np.floor(f) - f), -np.floor(f).astype(np.int64))
    k1 = k[:, None]
    r = fn(shrink(tbar, k * s.two_s), shrink(xbar, k1 * p), shrink(v1, k1), shrink(v2, k1), s)
    with np.errstate(over="ignore"):
        return np.ldexp(r, k.astype(np.int64))


def left_distance_batch(z0: Point, ts, xs, vs, s) -> np.ndarray:
    """Vectorized d_l(z0, z_i) for points given as arrays ts (n,), xs/vs (n,d) or (n,) for d = 1.

    This is pair_distance_batch with z0 as every first point, so its errors
    name ts, xs and vs as ts2, xs2 and vs2.
    """
    n = np.size(ts)
    return pair_distance_batch(np.full(n, z0.t), np.broadcast_to(z0.x, (n, z0.d)),
                               np.broadcast_to(z0.v, (n, z0.d)), ts, xs, vs, s)


def dist(variant: str, z1: Point, z2: Point, s) -> float:
    """Distance between phase-space events.

    variant: 'left' (group left-invariant, exact; see pair_distance_batch),
    'scaling' (homogeneous norm of the difference), or 'euclid'.
    """
    _check_dims(z1, z2)
    s = _as_exponent(s)
    if variant == "left":
        return float(left_distance_batch(z1, np.array([z2.t]), z2.x[None, :], z2.v[None, :], s)[0])
    if variant == "scaling":
        return knorm(Point(z1.t - z2.t, z1.x - z2.x, z1.v - z2.v), s)
    if variant == "euclid":
        return float(
            np.sqrt((z1.t - z2.t) ** 2 + np.sum((z1.x - z2.x) ** 2) + np.sum((z1.v - z2.v) ** 2))
        )
    raise ValueError(f"unknown distance variant {variant!r}")
