"""Galilean group arithmetic, kinetic scaling, homogeneous norm and distances.

The phase-space point z = (t, x, v) carries the noncommutative product

    (t1, x1, v1) o (t2, x2, v2) = (t1 + t2, x1 + x2 + t2*v1, v1 + v2)

and the anisotropic scaling S_R(t, x, v) = (R^{2s} t, R^{1+2s} x, R v).
Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

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


class DistanceConvergenceError(RuntimeError):
    """An iteration cap was reached: a Newton root of the left distance, or the
    golden-section search of the right distance."""


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
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        object.__setattr__(self, "t", float(self.t))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise ValueError("x and v must be 1-d arrays of equal length")
        if not (np.isfinite(self.t) and np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("coordinates must be finite")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @classmethod
    def zero(cls, d: int = 1) -> "Point":
        return cls(0.0, np.zeros(d), np.zeros(d))

    def to_array(self) -> np.ndarray:
        """Flat record (t, x[0..d), v[0..d))."""
        return np.concatenate(([self.t], self.x, self.v))

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
# cheap ones first: the midpoint on every row, then both segments (two
# Newton roots), then the bisector (a safeguarded root).  A score at or below
# the floor fixes the row's answer to the floor, whatever the later
# candidates score, so the row leaves there; the rest keep the running
# minimum.  Stopping is therefore exact: every score is computed as it would
# be among all four, and min and max round nothing.  On random pairs the
# midpoint alone settles about half the rows (the time term binds, or c is
# near m), and the bisector runs on about 40 % of them.
#
# pair_distance_batch returns this value as is: exact up to a few ulp, for
# any magnitude, and a function of its own pair alone: every operation acts
# row by row, so a row scores the same in any batch and any stage subset.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kappa = (c / at + h) / rt
    scaled = (rt >= np.finfo(float).tiny) & (kappa < np.inf)
    y0, dy, x, slope = _root_table(p)
    with np.errstate(divide="ignore", invalid="ignore"):  # kappa = 0 starts at exp(-inf) = 0
        t = (np.log(kappa[scaled]) - y0) / dy
        j = np.clip(t, 0, len(slope) - 1).astype(np.intp)
        log_rho = x[j] + (t - j) * slope[j]
    u = np.empty_like(kappa)
    u[scaled] = rt[scaled] * np.exp(log_rho) - h[scaled]
    un = ~scaled
    hu, au, cu = h[un], at[un], c[un]
    with np.errstate(over="ignore"):
        u[un] = np.where(hu**p >= cu, 0.0, np.minimum(cu / au, cu ** (1.0 / p)))

    def newton(k):
        r = u[k] + h[k]
        q = r ** (p - 1.0)
        return r, (r * q - (c[k] - at[k] * u[k])) / (p * q + at[k])

    u = np.maximum(u, 0.0)
    # a NaN free step is inf/inf, where (u + h)^p overflows: u is above the root and stays
    with np.errstate(invalid="ignore"):
        step = newton(slice(None))[1]
    u = np.maximum(np.where(np.isnan(step), u, u - step), 0.0)
    act = np.flatnonzero(u > 0.0)
    for _ in range(_ITER_CAP):
        if act.size == 0:
            break
        r, step = newton(act)
        u[act] = np.where(step > 0.0, u[act] - step, u[act])
        act = act[step > _NEWTON_RTOL * r]
    if act.size:
        raise DistanceConvergenceError("Newton iteration cap reached in the left distance")
    return h + u


def _bisector_root(h, aA, bA, A, p):
    """Root on [0, aA/A] of psi(u) = (h^2+u^2)^{p/2} - |(aA - A u, bA)|; arrays (n,), A > 0.

    psi increases there, so the root is unique, or an end of the interval.
    psi >= 0 from u_max on, which caps the bracket when aA/A is large.
    Safeguarded Newton: a step leaving the sign bracket, or landing on its far
    end, becomes its midpoint.
    """
    psi = lambda u: np.hypot(h, u) ** p - np.hypot(aA - A * u, bA)
    u_max = np.sqrt(np.maximum(np.hypot(aA, bA) ** (2.0 / p) - h**2, 0.0))
    with np.errstate(over="ignore"):
        hi = np.minimum(aA / A, u_max)
    lo = np.zeros_like(hi)
    at_hi = psi(hi) <= 0.0
    u = np.where(at_hi, hi, 0.0)
    act = np.flatnonzero((psi(lo) < 0.0) & ~at_hi)
    u[act] = 0.5 * hi[act]
    for _ in range(_ITER_CAP):
        if act.size == 0:
            break
        ua, Aa, aa = u[act], A[act], aA[act]
        R, S = np.hypot(h[act], ua), np.hypot(aa - Aa * ua, bA[act])
        val = R**p - S
        hi[act] = np.where(val > 0.0, ua, hi[act])
        lo[act] = np.where(val > 0.0, lo[act], ua)
        # the Newton denominator is 0/0 where S = 0: a NaN step bisects there
        dS = np.divide(Aa * (aa - Aa * ua), S, out=np.full_like(S, np.nan), where=S > 0.0)
        step = val / (p * ua * R ** (p - 2.0) + dS)
        # ua is now an end of the bracket; a step onto the other end would
        # only swap the two ends, so it bisects like a step out of the bracket
        newton = (ua - step == ua) | ((ua - step > lo[act]) & (ua - step < hi[act]))
        u[act] = np.where(newton, ua - step, 0.5 * (lo[act] + hi[act]))
        done = newton & (np.abs(step) <= _NEWTON_RTOL * R)
        act = act[~done & (hi[act] - lo[act] > 4.0 * np.finfo(float).eps * R)]
    if act.size:
        raise DistanceConvergenceError("safeguarded Newton cap reached in the left distance")
    return u


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
    at = np.abs(tbar)
    h = 0.5 * np.abs(v1 - v2)
    rt = at ** (1.0 / s.two_s)
    r = np.maximum(rt, h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], np.abs(xbar[zero_t]) ** (1.0 / p))
    AD = np.abs(np.sign(tbar) * xbar - at * 0.5 * (v1 + v2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gen = np.flatnonzero(~zero_t & ~(AD / at + h <= 2.0 * rt))
    r[gen] = np.maximum(r[gen], _radius_root(rt[gen], h[gen], at[gen], AD[gen], p))
    return r


def _norm(y):
    """Euclidean norm over the last axis: np.linalg.norm's own sum, without its wrapper."""
    return np.sqrt(np.add.reduce(y * y, axis=-1))


def _towards_c(tb, xb, v):
    """A (c - v) = sign(tbar) (xbar - tbar v), with no division by tbar."""
    return np.sign(tb)[:, None] * (xb - tb[:, None] * v)


def _unit(y, ny):
    """y / |y| by rows, given ny = |y|; rows with ny = 0 stay 0."""
    return y / np.where(ny > 0.0, ny, 1.0)[:, None]


# The witnesses of one stage, for the rows still open: tb (k,), xb/v1/v2 (k, d),
# h (k,), rt = |tb|^{1/2s} (k,) and p = 1+2s.
def _midpoint(tb, xb, v1, v2, h, rt, p):
    return [0.5 * (v1 + v2)]


def _segment_witnesses(tb, xb, v1, v2, h, rt, p):
    A = np.abs(tb)
    witnesses = []
    for v in (v1, v2):
        y = _towards_c(tb, xb, v)
        AL = _norm(y)
        u = _radius_root(rt, np.zeros_like(A), A, AL, p)
        witnesses.append(v + u[:, None] * _unit(y, AL))
    return witnesses


def _bisector_witness(tb, xb, v1, v2, h, rt, p):
    m = 0.5 * (v1 + v2)
    axis = _unit(v2 - v1, 2.0 * h)
    y = _towards_c(tb, xb, m)
    bA = np.einsum("nd,nd->n", y, axis)
    y -= bA[:, None] * axis
    aA = _norm(y)
    return [m + _bisector_root(h, aA, bA, np.abs(tb), p)[:, None] * _unit(y, aA)]


def _distance_nd(tbar, xbar, v1, v2, s):
    """Exact d_l for d >= 2 by the candidate witnesses above, in stages; tbar (n,), xbar/v1/v2 (n, d).

    Each stage scores its witnesses on the rows still open and closes those
    whose best score has reached the floor max(|tbar|^{1/2s}, h), where the
    distance is the floor whatever the later candidates score.
    """
    p = 1.0 + s.two_s
    at = np.abs(tbar)
    h = 0.5 * _norm(v1 - v2)
    rt = at ** (1.0 / s.two_s)
    r = np.maximum(rt, h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], _norm(xbar[zero_t]) ** (1.0 / p))
    k = np.flatnonzero(~zero_t)
    best = np.full(k.size, np.inf)
    for witnesses in (_midpoint, _segment_witnesses, _bisector_witness):
        tb, xb, w1, w2 = tbar[k], xbar[k], v1[k], v2[k]
        for w in witnesses(tb, xb, w1, w2, h[k], rt[k], p):
            score = np.maximum(np.maximum(_norm(w - w1), _norm(w - w2)),
                               _norm(xb - tb[:, None] * w) ** (1.0 / p))
            best = np.minimum(best, score)
        # a NaN score keeps its row open, as the minimum keeps the NaN
        still = ~(best <= r[k])
        k, best = k[still], best[still]
    r[k] = np.maximum(r[k], best)
    return r


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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    _check_finite(tbar, ("ts1", ts1), ("ts2", ts2))
    _check_finite(xbar, ("xs1", xs1), ("xs2", xs2))
    _check_finite(vs1, ("vs1", vs1))
    _check_finite(vs2, ("vs2", vs2))
    p = 1.0 + s.two_s
    # past these bounds S^p passes 2^_SAFE_LOG2, S = max(|tbar|^{1/2s}, |xbar|^{1/p}, |v1|, |v2|)
    bounds = [(tbar, 2.0 ** (_SAFE_LOG2 * s.two_s / p)), (xbar, 2.0**_SAFE_LOG2),
              (vs1, 2.0 ** (_SAFE_LOG2 / p)), (vs2, 2.0 ** (_SAFE_LOG2 / p))]
    if all(max(a.max(initial=0.0), -a.min(initial=0.0)) <= b for a, b in bounds):
        return _distance(tbar, xbar, vs1, vs2, s)
    big = np.any([(np.abs(a) > b).reshape(n, -1).any(axis=1) for a, b in bounds], axis=0)
    r = np.empty(n)
    r[~big] = _distance(tbar[~big], xbar[~big], vs1[~big], vs2[~big], s)
    r[big] = _dilated_distance(tbar[big], xbar[big], vs1[big], vs2[big], s)
    return r


def _distance(tbar, xbar, v1, v2, s):
    if xbar.shape[1] == 1:
        return _distance_1d(tbar, xbar[:, 0], v1[:, 0], v2[:, 0], s)
    return _distance_nd(tbar, xbar, v1, v2, s)


def _dilated_distance(tbar, xbar, v1, v2, s):
    """lam^-1 d_l(delta_lam z1, delta_lam z2) = d_l(z1, z2) at lam = 2^-k, 2^k the rows'
    homogeneous size rounded up from the binary exponents: lam v is exact, lam^{2s} tbar
    and lam^p xbar round once, and a distance past the largest float is inf."""
    p, e = 1.0 + s.two_s, lambda a: np.frexp(a)[1]
    k = np.ceil(np.maximum.reduce([e(tbar) / s.two_s, e(xbar).max(axis=1) / p,
                                   e(v1).max(axis=1), e(v2).max(axis=1)]))
    # a 2^-f with no factor that overflows or is subnormal
    shrink = lambda a, f: np.ldexp(a * np.exp2(np.floor(f) - f), -np.floor(f).astype(np.int64))
    k1 = k[:, None]
    r = _distance(shrink(tbar, k * s.two_s), shrink(xbar, k1 * p), shrink(v1, k1),
                  shrink(v2, k1), s)
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


def _dist_right(z1: Point, z2: Point, s, tol: float) -> float:
    """Right-invariant distance: scalar infimum over h by golden-section search."""
    s = _as_exponent(s)
    two_s = s.two_s
    dv = z1.v - z2.v
    dx = z1.x - z2.x

    def val(h):
        term_t = abs(z2.t - h) + abs(h - z1.t)
        term_x = float(np.linalg.norm(dx + h * dv)) ** (two_s / (1.0 + two_s))
        term_v = float(np.linalg.norm(dv)) ** two_s
        return max(term_t, term_x, term_v) ** (1.0 / two_s)

    # Bracket: hull of the minimizers of the t-term and the x-term.
    hs = [z1.t, z2.t]
    nv2 = float(dv @ dv)
    if nv2 > 0:
        hs.append(float(-(dx @ dv)) / nv2)
    a, b = min(hs), max(hs)
    pad = 0.5 * (b - a) + 1.0
    a, b = a - pad, b + pad
    # Golden-section: the objective is quasi-convex in h.
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d_ = a + phi * (b - a)
    fc, fd = val(c), val(d_)
    for _ in range(_ITER_CAP):
        if b - a < tol:
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - phi * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + phi * (b - a)
            fd = val(d_)
    else:
        raise DistanceConvergenceError("golden-section iteration cap reached")
    return min(fc, fd)


def dist(variant: str, z1: Point, z2: Point, s, tol: float = 1e-9) -> float:
    """Distance between phase-space events.

    variant: 'left' (group left-invariant, exact; see pair_distance_batch),
    'right' (golden section over the time shift, to a bracket of width tol),
    'scaling' (homogeneous norm of the difference), or 'euclid'.
    """
    _check_dims(z1, z2)
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = _as_exponent(s)
    if variant == "left":
        return float(left_distance_batch(z1, np.array([z2.t]), z2.x[None, :], z2.v[None, :], s)[0])
    if variant == "right":
        return _dist_right(z1, z2, s, tol)
    if variant == "scaling":
        return knorm(Point(z1.t - z2.t, z1.x - z2.x, z1.v - z2.v), s)
    if variant == "euclid":
        return float(
            np.sqrt((z1.t - z2.t) ** 2 + np.sum((z1.x - z2.x) ** 2) + np.sum((z1.v - z2.v) ** 2))
        )
    raise ValueError(f"unknown distance variant {variant!r}")
