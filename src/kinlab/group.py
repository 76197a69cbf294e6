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

_BISECT_CAP = 200
# Slack for the closed-form ball-intersection tests, relative to coordinate scale.
_GEOM_EPS = 1e-13
# Newton on the 1-d distance converges quadratically near its root, so a step
# below this share of h + u leaves an error far below one ulp of the distance.
_NEWTON_RTOL = 1e-12


class DistanceConvergenceError(RuntimeError):
    """Bisection failed to bracket the metric value to the requested tolerance."""


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

    @classmethod
    def from_array(cls, arr) -> "Point":
        arr = np.asarray(arr, dtype=float)
        d = (arr.size - 1) // 2
        return cls(arr[0], arr[1 : 1 + d], arr[1 + d :])

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
# Evaluated by bisection on r over the predicate "a w exists with
# |tbar|^{1/2s} <= r, |xbar - tbar*w| <= r^{1+2s}, |v1-w| <= r, |v2-w| <= r".
# For tbar != 0 the predicate is the nonemptiness of an intersection of three
# Euclidean balls (centers v1, v2, xbar/tbar); the feasible set is convex and
# grows with r, so bisection is exact up to the bracket width.  For d = 1 the
# balls are intervals and the smallest feasible r has a closed form
# (_distance_1d); the bisection then only compares against it.
# ---------------------------------------------------------------------------


def _pairwise_candidates(c1, c2, r1, r2):
    """Candidate witness points for a pair of balls, in hull coordinates.

    Returns the minimizer of max(|u-c1|-r1, |u-c2|-r2) along the center
    segment plus the two circle-circle intersection points (where defined).
    Shapes: c* (n, m), r* (n,).  Output (n, n_cand, m).
    """
    diff = c2 - c1
    D = np.linalg.norm(diff, axis=-1)
    safe = np.where(D > 0, D, 1.0)
    unit = diff / safe[..., None]
    # Equal-offset point on the segment (clipped so it stays between centers).
    lam = np.clip((D + r2 - r1) / 2.0, 0.0, D)
    mid = c1 + lam[..., None] * unit
    cands = [mid]
    if c1.shape[-1] >= 2:
        # Circle-circle intersection points in the plane spanned by the hull.
        a = (D**2 + r1**2 - r2**2) / (2.0 * safe)
        h2 = r1**2 - a**2
        h = np.sqrt(np.maximum(h2, 0.0))
        base = c1 + a[..., None] * unit
        # A vector orthogonal to `unit` inside the (<=2-d) hull coordinates.
        perp = np.stack([-unit[..., 1], unit[..., 0]], axis=-1)
        if c1.shape[-1] > 2:
            pad = np.zeros(c1.shape[:-1] + (c1.shape[-1] - 2,))
            perp = np.concatenate([perp, pad], axis=-1)
        cands.append(base + h[..., None] * perp)
        cands.append(base - h[..., None] * perp)
    return np.stack(cands, axis=-2)


def _three_ball_feasible(centers, radii, eps):
    """Nonemptiness of the intersection of three balls (vectorized).

    centers: (n, 3, m) with m <= 3 hull coordinates, radii: (n, 3).
    The intersection of closed convex balls is symmetric under reflection
    about the affine hull of the centers, so a witness can be sought among
    centers, pairwise equal-offset points and circle intersection points.
    """
    n = centers.shape[0]
    cand_list = [centers]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cand_list.append(
            _pairwise_candidates(centers[:, i], centers[:, j], radii[:, i], radii[:, j])
        )
    cands = np.concatenate(cand_list, axis=1)  # (n, n_cand, m)
    dists = np.linalg.norm(cands[:, :, None, :] - centers[:, None, :, :], axis=-1)
    ok = np.all(dists <= radii[:, None, :] + eps[:, None, None], axis=-1)
    return ok.any(axis=1).reshape(n)


def _feasible(r, tbar, xbar, v1, v2, s, eps):
    """Predicate of the d >= 2 bisection: does a witness velocity w exist at radius r?

    All arguments vectorized over the leading axis; r: (n,).
    """
    two_s = s.two_s
    ok_t = np.abs(tbar) <= r ** two_s + eps
    r3_cap = r ** (1.0 + two_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        c3 = np.where(tbar[:, None] != 0.0, xbar / np.where(tbar[:, None] != 0, tbar[:, None], 1.0), 0.0)
        r3 = np.where(np.abs(tbar) > 0, r3_cap / np.where(np.abs(tbar) > 0, np.abs(tbar), 1.0), np.inf)

    d = v1.shape[1]
    n = r.shape[0]
    out = np.zeros(n, dtype=bool)

    zero_t = tbar == 0.0
    if zero_t.any():
        sep = np.linalg.norm(v1[zero_t] - v2[zero_t], axis=1)
        ok = (np.linalg.norm(xbar[zero_t], axis=1) <= r3_cap[zero_t] + eps[zero_t]) & (
            sep <= 2.0 * r[zero_t] + eps[zero_t]
        )
        out[zero_t] = ok

    gen = ~zero_t
    if gen.any():
        # Small tbar pushes the third center xbar/tbar far out; slack
        # computations then carry roundoff at that coordinate scale, so the
        # tolerance must grow with it or near-critical radii get rejected.
        eps_g = eps[gen] + _GEOM_EPS * (np.linalg.norm(c3[gen], axis=1) + r3[gen])
        centers = np.stack([v1[gen], v2[gen], c3[gen]], axis=1)
        radii = np.stack([r[gen], r[gen], r3[gen]], axis=1)
        # Project onto the affine hull of the three centers (<= 2-d).
        base = centers[:, 0:1, :]
        rel = centers - base
        if d > 2:
            q, _ = np.linalg.qr(np.transpose(rel[:, 1:, :], (0, 2, 1)))
            coords = np.einsum("nkd,ndm->nkm", rel, q)
        else:
            coords = rel
        out[gen] = _three_ball_feasible(coords, radii, eps_g)
    return out & ok_t


def _distance_1d(tbar, xbar, v1, v2, s):
    """Exact d_l for d = 1 (closed form in pair_distance_batch); arrays (n,).

    A witness w at distance u from (v1+v2)/2 towards xbar/tbar needs
    r >= h + u and r^{1+2s} >= |tbar| (D - u).  u* is the root of
    phi(u) = (u+h)^{1+2s} - |tbar| (D-u); phi is convex and increasing, so
    Newton from u = D decreases monotonically to it.
    """
    p = 1.0 + s.two_s
    at = np.abs(tbar)
    h = 0.5 * np.abs(v1 - v2)
    r = np.maximum(at ** (1.0 / s.two_s), h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], np.abs(xbar[zero_t]) ** (1.0 / p))
    gen = np.flatnonzero(~zero_t)
    at, h = at[gen], h[gen]
    D = np.abs(xbar[gen] / tbar[gen] - 0.5 * (v1[gen] + v2[gen]))
    u = np.where(h**p >= at * D, 0.0, D)
    act = np.flatnonzero(u > 0.0)
    for _ in range(_BISECT_CAP):
        if act.size == 0:
            break
        ua, ha, aa = u[act], h[act], at[act]
        step = ((ua + ha) ** p - aa * (D[act] - ua)) / (p * (ua + ha) ** (p - 1.0) + aa)
        u[act] = np.where(step > 0.0, ua - step, ua)
        act = act[step > _NEWTON_RTOL * (ua + ha)]
    if act.size:
        raise DistanceConvergenceError("Newton iteration cap reached in the 1-d distance")
    r[gen] = np.maximum(r[gen], h + u)
    return r


def pair_distance_batch(ts1, xs1, vs1, ts2, xs2, vs2, s, tol: float = 1e-9) -> np.ndarray:
    """Vectorized d_l(z1_i, z2_i) over paired coordinate arrays.

    ts*: (n,), xs*/vs*: (n, d).

    For d = 1 the distance has the closed form
    r* = max(|tbar|^{1/2s}, h + u*) with h = |v1-v2|/2,
    D = |xbar/tbar - (v1+v2)/2| and u* the root on [0, D] of
    (u+h)^{1+2s} = |tbar| (D-u) (u* = 0 when the left side already wins at
    u = 0); for tbar = 0 it is max(|xbar|^{1/(1+2s)}, h).  For d >= 2 the
    predicate is the three-ball intersection test.  In every dimension the
    returned value is the midpoint of the final bisection bracket, of width
    at most tol, around the distance: for d = 1 the bisection runs on the
    predicate r >= r* (1 - 1e-13).  The result can thus lie on either side
    of the exact distance, by up to tol/2; a sample exactly on a sphere
    d_l = R may compare as inside the open ball of radius R.
    """
    s = _as_exponent(s)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ts1 = np.asarray(ts1, dtype=float)
    ts2 = np.asarray(ts2, dtype=float)
    xs1 = np.atleast_2d(np.asarray(xs1, dtype=float))
    xs2 = np.atleast_2d(np.asarray(xs2, dtype=float))
    vs1 = np.atleast_2d(np.asarray(vs1, dtype=float))
    vs2 = np.atleast_2d(np.asarray(vs2, dtype=float))
    n = ts1.shape[0]
    tbar = ts1 - ts2
    xbar = xs1 - xs2
    v1 = vs1
    v2 = vs2

    # Upper bracket: w = v2 in the min gives exactly knorm(z2^{-1} o z1).
    two_s = s.two_s
    up = np.maximum.reduce(
        [
            np.abs(tbar) ** (1.0 / two_s),
            np.linalg.norm(xbar - tbar[:, None] * v2, axis=1) ** (1.0 / (1.0 + two_s)),
            np.linalg.norm(v1 - v2, axis=1),
        ]
    )
    hi = 4.0 * up
    lo = np.zeros(n)

    if v1.shape[1] == 1:
        r_star = _distance_1d(tbar, xbar[:, 0], v1[:, 0], v2[:, 0], s)
        feasible = lambda mid, act: mid >= r_star[act] * (1.0 - _GEOM_EPS)
    else:
        scale_mag = 1.0 + np.abs(tbar) + np.linalg.norm(xbar, axis=1) + np.linalg.norm(v1, axis=1) + np.linalg.norm(v2, axis=1)
        eps = _GEOM_EPS * scale_mag
        feasible = lambda mid, act: _feasible(mid, tbar[act], xbar[act], v1[act], v2[act], s, eps[act])

    done = up == 0.0
    result = np.zeros(n)
    active = ~done
    if active.any():
        it = 0
        while np.max(hi[active] - lo[active]) > tol:
            it += 1
            if it > _BISECT_CAP:
                raise DistanceConvergenceError(
                    "bisection iteration cap reached; tol too small for coordinate magnitudes"
                )
            mid = 0.5 * (lo + hi)
            feas = feasible(mid[active], active)
            upd_hi = np.zeros(n, dtype=bool)
            upd_hi[active] = feas
            hi = np.where(upd_hi, mid, hi)
            lo = np.where(active & ~upd_hi, mid, lo)
        result[active] = 0.5 * (lo[active] + hi[active])
    return result


def left_distance_batch(z0: Point, ts, xs, vs, s, tol: float = 1e-9) -> np.ndarray:
    """Vectorized d_l(z0, z_i) for points given as arrays ts (n,), xs/vs (n,d)."""
    ts = np.asarray(ts, dtype=float)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    n = ts.shape[0]
    return pair_distance_batch(
        np.full(n, z0.t),
        np.broadcast_to(z0.x, xs.shape),
        np.broadcast_to(z0.v, vs.shape),
        ts,
        xs,
        vs,
        s,
        tol,
    )


def _dist_left(z1: Point, z2: Point, s, tol: float) -> float:
    return float(left_distance_batch(z1, np.array([z2.t]), z2.x[None, :], z2.v[None, :], s, tol)[0])


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
    for _ in range(_BISECT_CAP):
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

    variant: 'left' (group left-invariant, by bisection), 'right' (golden
    section over the time shift), 'scaling' (homogeneous norm of the
    difference), or 'euclid'.
    """
    _check_dims(z1, z2)
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = _as_exponent(s)
    if variant == "left":
        return _dist_left(z1, z2, s, tol)
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
    """Kinetic cylinder Q_r(z0) = {z : t <= t0 and d_l(z0, z) < r}."""

    center: Point
    radius: float
    s: ScalingExponent = field(default_factory=lambda: ScalingExponent(0.5))

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")
        object.__setattr__(self, "s", _as_exponent(self.s))


def cylinder_contains(Q: Cylinder, z: Point, tol: float = 1e-9) -> bool:
    """Membership test t <= t0 and d_l(z0, z) < r (within tol)."""
    if z.t > Q.center.t:
        return False
    return dist("left", Q.center, z, Q.s, tol) < Q.radius


def boundary_distance(Q: Cylinder, z: Point, tol: float = 1e-9) -> float:
    """Surrogate distance r - d_l(z0, z) to the parabolic boundary.

    A lower bound for the true boundary distance when s >= 1/2 (triangle
    inequality); exact surface minimization is deliberately not attempted.
    """
    d_ = dist("left", Q.center, z, Q.s, tol)
    if z.t > Q.center.t or d_ >= Q.radius:
        raise ValueError("point lies outside the cylinder")
    return Q.radius - d_
