"""Galilean group arithmetic, kinetic scaling, homogeneous norm and distances.

The phase-space point z = (t, x, v) carries the noncommutative product

    (t1, x1, v1) o (t2, x2, v2) = (t1 + t2, x1 + x2 + t2*v1, v1 + v2)

and the anisotropic scaling S_R(t, x, v) = (R^{2s} t, R^{1+2s} x, R v).
Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "ScalingExponent",
    "Point",
    "Cylinder",
    "compose",
    "inverse",
    "scale",
    "knorm",
    "dist",
    "left_distance_batch",
    "pair_distance_batch",
    "cylinder_contains",
    "boundary_distance",
    "DistanceConvergenceError",
]

_ITER_CAP = 200
# Newton on the distance roots converges quadratically, so a step below this
# share of the radius leaves an error far below one ulp of the distance.
_NEWTON_RTOL = 1e-12


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
# pair_distance_batch returns this value as is: exact up to a few ulp, for
# any magnitude, and a function of its own pair alone.  A point on the sphere
# d_l = R may therefore compare on either side of R; a caller that needs
# boundary points decided states its rule (harness.run_schauder_sweep uses
# closed cylinders).
# ---------------------------------------------------------------------------


def _newton_root(u, h, at, atD, p):
    """Root of phi(u) = (u+h)^p - (atD - at u) below a start u with phi(u) >= 0; arrays (n,).

    phi is convex and increasing, so Newton decreases monotonically to the
    root.  Rows that start at u = 0 are left there.  The product atD is
    taken as given because D alone overflows when at is tiny.
    """
    act = np.flatnonzero(u > 0.0)
    for _ in range(_ITER_CAP):
        if act.size == 0:
            break
        ua, ha, aa = u[act], h[act], at[act]
        step = ((ua + ha) ** p - (atD[act] - aa * ua)) / (p * (ua + ha) ** (p - 1.0) + aa)
        u[act] = np.where(step > 0.0, ua - step, ua)
        act = act[step > _NEWTON_RTOL * (ua + ha)]
    if act.size:
        raise DistanceConvergenceError("Newton iteration cap reached in the left distance")
    return u


def _bisector_root(h, aA, bA, A, p):
    """Root on [0, aA/A] of psi(u) = (h^2+u^2)^{p/2} - |(aA - A u, bA)|; arrays (n,), A > 0.

    psi increases there, so the root is unique, or an end of the interval.
    psi >= 0 from u_max on, which caps the bracket when aA/A is large.
    Safeguarded Newton: a step leaving the sign bracket becomes its midpoint.
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
        newton = (ua - step >= lo[act]) & (ua - step <= hi[act])
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
    """
    p = 1.0 + s.two_s
    at = np.abs(tbar)
    h = 0.5 * np.abs(v1 - v2)
    r = np.maximum(at ** (1.0 / s.two_s), h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], np.abs(xbar[zero_t]) ** (1.0 / p))
    gen = np.flatnonzero(~zero_t)
    at, h = at[gen], h[gen]
    AD = np.abs(np.sign(tbar[gen]) * xbar[gen] - at * 0.5 * (v1[gen] + v2[gen]))
    with np.errstate(over="ignore"):
        D = AD / at
    # phi >= 0 at u = D and at u = (A D)^{1/p}; start at the nearer.
    u = _newton_root(np.where(h**p >= AD, 0.0, np.minimum(D, AD ** (1.0 / p))), h, at, AD, p)
    r[gen] = np.maximum(r[gen], h + u)
    return r


def _distance_nd(tbar, xbar, v1, v2, s):
    """Exact d_l for d >= 2 by the four candidate witnesses above; tbar (n,), xbar/v1/v2 (n, d).

    The geometry is built from A(c-v) = sign(tbar)(xbar - tbar v), never
    from xbar/tbar, so a small tbar loses no precision.
    """
    p = 1.0 + s.two_s
    at = np.abs(tbar)
    h = 0.5 * np.linalg.norm(v1 - v2, axis=1)
    r = np.maximum(at ** (1.0 / s.two_s), h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], np.linalg.norm(xbar[zero_t], axis=1) ** (1.0 / p))
    gen = np.flatnonzero(~zero_t)
    A, tb, xb, h, v1, v2 = at[gen], tbar[gen], xbar[gen], h[gen], v1[gen], v2[gen]
    m = 0.5 * (v1 + v2)
    towards_c = lambda v: np.sign(tb)[:, None] * (xb - tb[:, None] * v)  # A (c - v)
    unit = lambda y, ny: y / np.where(ny > 0.0, ny, 1.0)[:, None]

    w = [m]
    for v in (v1, v2):
        y = towards_c(v)
        AL = np.linalg.norm(y, axis=1)
        with np.errstate(over="ignore"):
            L = AL / A
        # u^p - A(L-u) >= 0 at u = L and at u = AL^{1/p}; start at the nearer.
        u = _newton_root(np.minimum(L, AL ** (1.0 / p)), np.zeros_like(A), A, AL, p)
        w.append(v + u[:, None] * unit(y, AL))
    axis = unit(v2 - v1, 2.0 * h)
    y = towards_c(m)
    bA = np.einsum("nd,nd->n", y, axis)
    y -= bA[:, None] * axis
    aA = np.linalg.norm(y, axis=1)
    w.append(m + _bisector_root(h, aA, bA, A, p)[:, None] * unit(y, aA))

    w = np.stack(w, axis=1)  # (n, 4, d)
    score = np.maximum.reduce(
        [
            np.linalg.norm(w - v1[:, None], axis=2),
            np.linalg.norm(w - v2[:, None], axis=2),
            np.linalg.norm(xb[:, None] - tb[:, None, None] * w, axis=2) ** (1.0 / p),
        ]
    )
    r[gen] = np.maximum(r[gen], score.min(axis=1))
    return r


def pair_distance_batch(ts1, xs1, vs1, ts2, xs2, vs2, s, tol: float = 1e-9) -> np.ndarray:
    """Vectorized d_l(z1_i, z2_i) over paired coordinate arrays.

    ts*: (n,), xs*/vs*: (n, d).

    Returns the exact distance (see the comment above): a scalar root for
    d = 1, the best of four candidate witnesses for d >= 2.  Each value is
    accurate to a few ulp whatever the other pairs in the batch, so it meets
    any accuracy tol > 0; tol is only checked.
    """
    s = _as_exponent(s)
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows = lambda a: np.atleast_2d(np.asarray(a, dtype=float))
    tbar = np.asarray(ts1, dtype=float) - np.asarray(ts2, dtype=float)
    xbar, v1, v2 = rows(xs1) - rows(xs2), rows(vs1), rows(vs2)
    if v1.shape[1] == 1:
        return _distance_1d(tbar, xbar[:, 0], v1[:, 0], v2[:, 0], s)
    return _distance_nd(tbar, xbar, v1, v2, s)


def left_distance_batch(z0: Point, ts, xs, vs, s) -> np.ndarray:
    """Vectorized d_l(z0, z_i) for points given as arrays ts (n,), xs/vs (n,d)."""
    ts = np.asarray(ts, dtype=float)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    return pair_distance_batch(np.full(ts.shape[0], z0.t), np.broadcast_to(z0.x, xs.shape),
                               np.broadcast_to(z0.v, vs.shape), ts, xs, vs, s)


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


@dataclass(frozen=True)
class Cylinder:
    """Kinetic cylinder Q_r(z0) = {z : t <= t0 and d_l(z0, z) < r}.

    Membership uses the exact d_l, so a point on the sphere d_l = r falls on
    either side of it by rounding; a caller that needs the closed cylinder
    compares d_l itself (as harness.run_schauder_sweep does).
    """

    center: Point
    radius: float
    s: ScalingExponent = field(default_factory=lambda: ScalingExponent(0.5))

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")
        object.__setattr__(self, "s", _as_exponent(self.s))


def cylinder_contains(Q: Cylinder, z: Point) -> bool:
    """Membership test t <= t0 and d_l(z0, z) < r."""
    if z.t > Q.center.t:
        return False
    return dist("left", Q.center, z, Q.s) < Q.radius


def boundary_distance(Q: Cylinder, z: Point) -> float:
    """Surrogate distance r - d_l(z0, z) to the parabolic boundary.

    A lower bound for the true boundary distance when s >= 1/2 (triangle
    inequality); exact surface minimization is deliberately not attempted.
    """
    d_ = dist("left", Q.center, z, Q.s)
    if z.t > Q.center.t or d_ >= Q.radius:
        raise ValueError("point lies outside the cylinder")
    return Q.radius - d_
