import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq, minimize

from kinlab import group
from kinlab.group import (
    Point,
    compose,
    dist,
    inverse,
    knorm,
    left_distance_batch,
    pair_distance_batch,
    scale,
    _bisector_root,
    _radius_root,
)

coord = st.floats(-5.0, 5.0, allow_nan=False)


def rand_point(rng, d):
    return Point(rng.uniform(-2, 2), rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))


@given(t1=coord, x1=coord, v1=coord, t2=coord, x2=coord, v2=coord)
@settings(max_examples=60, deadline=None)
def test_group_inverse_cancels(t1, x1, v1, t2, x2, v2):
    z1 = Point(t1, [x1], [v1])
    z2 = Point(t2, [x2], [v2])
    lhs = compose(inverse(z1), compose(z1, z2))
    assert math.isclose(lhs.t, z2.t, abs_tol=1e-9)
    np.testing.assert_allclose(lhs.x, z2.x, atol=1e-9)
    np.testing.assert_allclose(lhs.v, z2.v, atol=1e-9)


@given(t1=coord, x1=coord, v1=coord, t2=coord, x2=coord, v2=coord,
       t3=coord, x3=coord, v3=coord)
@settings(max_examples=60, deadline=None)
def test_group_associativity(t1, x1, v1, t2, x2, v2, t3, x3, v3):
    a, b, c = Point(t1, [x1], [v1]), Point(t2, [x2], [v2]), Point(t3, [x3], [v3])
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    np.testing.assert_allclose(
        [lhs.t, *lhs.x, *lhs.v], [rhs.t, *rhs.x, *rhs.v], atol=1e-9)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_knorm_scaling_exact(s, rng):
    for _ in range(20):
        z = rand_point(rng, 2)
        R = rng.uniform(0.1, 4.0)
        assert knorm(scale(R, z, s), s) == pytest.approx(R * knorm(z, s), rel=1e-12)


@pytest.mark.parametrize("s,d", [(0.25, 1), (0.5, 1), (0.75, 1), (0.5, 2), (0.25, 2), (0.75, 2),
                                 (0.5, 3)])
def test_left_invariance(s, d, rng):
    tol = 1e-9
    for _ in range(25):
        g = rand_point(rng, d)
        z1, z2 = rand_point(rng, d), rand_point(rng, d)
        d0 = dist("left", z1, z2, s)
        d1 = dist("left", compose(g, z1), compose(g, z2), s)
        assert abs(d0 - d1) <= 3 * tol * max(1.0, d0)


@pytest.mark.parametrize(
    "s,d",
    [pytest.param(s, 1, id=str(s)) for s in (0.25, 0.5, 0.75)]
    + [(s, d) for d in (2, 3) for s in (0.25, 0.5, 0.75)],
)
def test_scaling_homogeneity(s, d, rng):
    tol = 1e-9
    for _ in range(25):
        z1, z2 = rand_point(rng, d), rand_point(rng, d)
        R = rng.uniform(0.25, 3.0)
        d0 = dist("left", z1, z2, s)
        dR = dist("left", scale(R, z1, s), scale(R, z2, s), s)
        assert abs(dR - R * d0) <= 3 * tol * max(1.0, R) * max(1.0, d0)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_triangle_inequality(s, rng):
    for _ in range(100):
        a, b, c = (rand_point(rng, 1) for _ in range(3))
        dab = dist("left", a, b, s)
        dbc = dist("left", b, c, s)
        dac = dist("left", a, c, s)
        assert dac <= dab + dbc + 1e-8


def test_power_triangle_below_half(rng):
    s = 0.25
    for _ in range(100):
        a, b, c = (rand_point(rng, 1) for _ in range(3))
        lhs = dist("left", a, c, s) ** (2 * s)
        rhs = dist("left", a, b, s) ** (2 * s) + dist("left", b, c, s) ** (2 * s)
        assert lhs <= rhs + 1e-8


def test_distance_variants_agree_on_axis():
    # along the pure velocity axis the scaling surrogate equals the knorm
    z = Point(0.0, [0.0], [0.7])
    o = Point.zero(1)
    assert dist("scaling", o, z, 0.5) == pytest.approx(0.7)
    assert dist("euclid", o, z, 0.5) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        dist("taxicab", o, z, 0.5)
    with pytest.raises(ValueError, match="'right'"):
        dist("right", o, z, 0.5)


def test_batch_matches_scalar(rng):
    # a pair's distance depends on that pair alone: batch, paired and scalar
    # calls agree to the bit
    s = 0.5
    for d in (1, 2, 3):
        z0 = rand_point(rng, d)
        pts = [rand_point(rng, d) for _ in range(12)]
        ts = np.array([p.t for p in pts])
        xs = np.vstack([p.x for p in pts])
        vs = np.vstack([p.v for p in pts])
        batch = left_distance_batch(z0, ts, xs, vs, s)
        np.testing.assert_array_equal(batch, [dist("left", z0, p, s) for p in pts])
        paired = pair_distance_batch(np.full(12, z0.t), np.tile(z0.x, (12, 1)),
                                     np.tile(z0.v, (12, 1)), ts, xs, vs, s)
        np.testing.assert_array_equal(paired, batch)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_large_distance_with_default_tol(d):
    # |tbar|^{1/2s} = 1e10 at s = 0.05: tol bounds the error, not the float spacing
    z1, z2 = Point(10.0, np.zeros(d), np.zeros(d)), Point.zero(d)
    assert dist("left", z1, z2, 0.05) == pytest.approx(1e10, rel=1e-15)


def test_identity_distance_zero():
    z = Point(0.3, [0.1], [-0.2])
    assert dist("left", z, z, 0.5) <= 1e-9


def _reference_1d(ts1, xs1, vs1, ts2, xs2, vs2, s, tol=1e-9):
    """d = 1 distance by bisection on the interval-intersection predicate.

    The predicate intersects [v1-r, v1+r], [v2-r, v2+r] and the x-interval
    of radius r^{1+2s}/|tbar| about xbar/tbar, with the same bracket as
    pair_distance_batch; it returns the bracket midpoint.  For tbar = 0 the
    x-condition is compared on the scale of r, |xbar|^{1/(1+2s)} <= r + eps:
    a slack added to r^{1+2s} instead would admit r ~ eps^{1/(1+2s)} for a
    tiny xbar (r = 5e-10 at xbar = 1e-15, where the distance is 3.2e-8).
    """
    two_s = 2.0 * s
    tbar, xbar, v1, v2 = ts1 - ts2, xs1 - xs2, vs1, vs2
    at = np.abs(tbar)
    up = np.maximum.reduce([at ** (1.0 / two_s),
                            np.abs(xbar - tbar * v2) ** (1.0 / (1.0 + two_s)),
                            np.abs(v1 - v2)])
    eps = 1e-13 * (1.0 + at + np.abs(xbar) + np.abs(v1) + np.abs(v2))
    safe_t = np.where(at > 0, tbar, 1.0)

    def feasible(r):
        r3_cap = r ** (1.0 + two_s)
        c3 = xbar / safe_t
        r3 = r3_cap / np.abs(safe_t)
        eps_g = eps + 1e-13 * (np.abs(c3) + r3)
        lo = np.maximum.reduce([v1 - r, v2 - r, c3 - r3])
        hi = np.minimum.reduce([v1 + r, v2 + r, c3 + r3])
        gen_ok = lo <= hi + eps_g
        zero_ok = (np.abs(xbar) ** (1.0 / (1.0 + two_s)) <= r + eps) & (np.abs(v1 - v2) <= 2.0 * r + eps)
        return np.where(at > 0, gen_ok, zero_ok) & (at <= r**two_s + eps)

    lo, hi = np.zeros_like(up), 4.0 * up
    active = up > 0
    if active.any():
        while np.max(hi[active] - lo[active]) > tol:
            mid = 0.5 * (lo + hi)
            feas = feasible(mid)
            hi = np.where(active & feas, mid, hi)
            lo = np.where(active & ~feas, mid, lo)
    return np.where(active, 0.5 * (lo + hi), 0.0)


# The reference's slack grows like 1/|tbar| (the x-interval centre moves out to
# xbar/tbar), so it is only tol-accurate for |tbar| bounded away from 0.
tbar_st = st.one_of(st.just(0.0), st.floats(0.05, 5.0), st.floats(-5.0, -0.05))


@given(s=st.sampled_from([0.25, 0.5, 0.75]), t2=coord, x1=coord, x2=coord, v1=coord,
       v2=coord, tbar=tbar_st, same_v=st.booleans(), same_z=st.booleans())
@settings(max_examples=300, deadline=None)
def test_closed_form_1d_matches_interval_bisection(s, t2, x1, x2, v1, v2, tbar, same_v, same_z):
    tol = 1e-9
    if same_v:
        v2 = v1
    if same_z:
        tbar, x2, v2 = 0.0, x1, v1
    args = (np.array([t2 + tbar]), np.array([x1]), np.array([v1]),
            np.array([t2]), np.array([x2]), np.array([v2]))
    got = pair_distance_batch(*args, s, tol=tol)
    ref = _reference_1d(*args, s, tol=tol)
    assert abs(got[0] - ref[0]) <= tol
    if same_z:
        assert got[0] == 0.0


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [6, 12])
def test_closed_form_1d_keeps_sweep_masks(s, n):
    # a third of the sweep grid lies exactly on d_l = 1 about (1, 0, 0); the
    # sweep's closed cylinders d_l <= r (1 + 1e-12) take in just those samples
    tg = np.arange(n + 1) / n
    T, X, V = np.meshgrid(tg, np.linspace(-1, 1, n + 1), np.linspace(-2, 2, n + 1), indexing="ij")
    ts, xs, vs = T.ravel(), X.ravel(), V.ravel()
    got = left_distance_batch(Point(1.0, [0.0], [0.0]), ts, xs[:, None], vs[:, None], s)
    ones = np.ones_like(ts)
    ref = _reference_1d(ones, 0.0 * ones, 0.0 * ones, ts, xs, vs, s)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)
    for r in (1.0, 0.5):
        np.testing.assert_array_equal(got <= r * (1.0 + 1e-12), ref <= r + 1e-9)


def _reference_nd(tbar, xbar, v1, v2, s):
    """min over w of f(w) = max(|tbar|^{1/2s}, |xbar - tbar w|^{1/(1+2s)}, |v1-w|, |v2-w|).

    For r >= |tbar|^{1/2s} the sublevel set {f <= r} is the intersection of
    the balls |w - v_i| <= r and |xbar - tbar w| <= r^{1+2s}, so the minimum
    is the root of r -> min_w g_r(w), g_r the largest signed distance of w to
    those balls (the last divided by |tbar|, which gives it slope 1 in w).
    Brent's method finds the root; SLSQP finds the inner minimum, a convex
    problem whose constraints all have slope 1 in w.  Minimizing f itself by
    Nelder-Mead and SLSQP stalls on the kink |w - v_i| = r, along which f is
    nearly flat for a small |tbar| (1.2e-9 above the minimum at tbar = 6e-8).
    The value returned is f at a witness with g_r <= 0, never below the minimum.
    """
    p = 1.0 + 2.0 * s
    at = abs(tbar)
    sc = max(at, 1e-12)  # keeps the quotient finite; below 1e-12 the x-term hardly moves with w
    f = lambda w: max(at ** (1.0 / (2.0 * s)), np.linalg.norm(xbar - tbar * w) ** (1.0 / p),
                      np.linalg.norm(v1 - w), np.linalg.norm(v2 - w))
    g = lambda w, r: max(np.linalg.norm(w - v1) - r, np.linalg.norm(w - v2) - r,
                         (np.linalg.norm(xbar - tbar * w) - r**p) / sc)

    def unit(u):
        n = np.linalg.norm(u)
        return u / n if n > 0 else 0.0 * u

    def g_min(r):
        # y = (w, t): minimize t subject to t >= each signed distance
        cons = [{"type": "ineq", "fun": lambda y, v=v: y[-1] - np.linalg.norm(y[:-1] - v) + r,
                 "jac": lambda y, v=v: np.append(-unit(y[:-1] - v), 1.0)} for v in (v1, v2)]
        cons.append({"type": "ineq",
                     "fun": lambda y: y[-1] - (np.linalg.norm(xbar - tbar * y[:-1]) - r**p) / sc,
                     "jac": lambda y: np.append(tbar * unit(xbar - tbar * y[:-1]) / sc, 1.0)})
        starts = [m] if witnesses[-1] is m else [witnesses[-1], m]
        w = min(starts + [minimize(lambda y: y[-1], np.append(w0, g(w0, r)), jac=lambda y: np.eye(len(y))[-1],
                                   method="SLSQP", constraints=cons,
                                   options=dict(ftol=1e-16, maxiter=200)).x[:-1] for w0 in starts],
                key=lambda w: g(w, r))
        if g(w, r) <= 0:
            witnesses.append(w)
        return g(w, r)

    m = 0.5 * (v1 + v2)
    witnesses = [m]
    lo = max(at ** (1.0 / (2.0 * s)), 0.5 * np.linalg.norm(v1 - v2))
    hi = f(m) * (1.0 + 1e-12)  # g_hi(m) <= 0
    if hi > lo and g_min(lo) > 0:
        brentq(g_min, lo, hi, xtol=1e-15 * hi, rtol=4 * np.finfo(float).eps)
    return min(f(w) for w in witnesses)


@given(d=st.sampled_from([2, 3]), s=st.floats(0.05, 0.95), data=st.data(),
       case=st.one_of(st.just("general"), st.sampled_from(["same_v", "zero_t", "collinear", "same_z"])))
@settings(max_examples=120, deadline=None)
def test_exact_distance_nd_matches_direct_minimization(d, s, data, case):
    if data.draw(st.integers(0, 3)) == 0:  # hypothesis' own floats favour 0, 1 and extremes
        vec = arrays(float, d, elements=coord)
        t1, t2 = data.draw(coord), data.draw(coord)
        x1, x2, v1, v2 = (data.draw(vec) for _ in range(4))
    else:  # generic draws: all three balls bind in 7-17 % of them
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t1, t2 = rng.uniform(-5.0, 5.0, 2)
        x1, x2, v1, v2 = rng.uniform(-5.0, 5.0, (4, d))
    if case == "same_v":
        v2 = v1.copy()
    elif case == "zero_t":
        t2 = t1
    elif case == "collinear":  # c = xbar/tbar on the line through v1 and v2
        x1 = x2 + (t1 - t2) * (v1 + data.draw(st.floats(-3.0, 3.0)) * (v2 - v1))
    elif case == "same_z":
        t2, x2, v2 = t1, x1.copy(), v1.copy()
    ref = _reference_nd(t1 - t2, x1 - x2, v1, v2, s)
    # |tbar|^{1/2s} reaches 1e10 at s = 0.05, so the reference itself is only
    # good to a tolerance relative to the distance.
    tol = 1e-9 * max(1.0, ref)
    got = pair_distance_batch(np.array([t1]), x1[None], v1[None], np.array([t2]), x2[None], v2[None],
                              s, tol=tol)[0]
    scale = 1.0 + abs(t1 - t2) + np.linalg.norm(x1 - x2) + np.linalg.norm(v1) + np.linalg.norm(v2) + ref
    assert abs(got - ref) <= tol / 2 + 1e-12 * scale


def test_exact_distance_nd_pinned_small_tbar_pair():
    # |tbar| = 1.8e-4 puts c = xbar/tbar at |c| ~ 2e4, where a feasibility
    # slack proportional to |c| costs 5.8e-9 of the distance.
    z1 = Point(1.8272585330376696, [1.895229115208907, 0.4836468547573882, -0.5907039235909628],
               [0.4817772106262992, -1.4351525059886052, -0.9520319422606254])
    z2 = Point(1.8274360224104105, [-1.289829855311095, -0.6277241721417757, -0.02361502345190702],
               [-0.790349580235759, 0.7785219745651535, 1.8938967561908489])
    assert abs(dist("left", z1, z2, 0.9) - 1.911672790683179) <= 5e-10


def test_bisector_root_where_newton_denominator_is_zero_over_zero():
    # A u reaches aA while bA = 0, so S = |(aA - A u, bA)| = 0 in Newton's denominator
    h, aA, bA, A, p = (np.array([0.0]), np.array([5.574181663812367e-09]), np.array([0.0]),
                       np.array([227346627.6873774]), 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _bisector_root(h, aA, bA, A, p)[0]
    psi = lambda u: math.hypot(h[0], u) ** p - math.hypot(aA[0] - A[0] * u, bA[0])
    lo, hi = 0.0, aA[0] / A[0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psi(mid) < 0.0 else (lo, mid)
    assert u == pytest.approx(hi, rel=1e-12)


def test_bisector_root_where_newton_jumps_between_the_bracket_ends():
    # h underflows to 0 and the root sits a few ulp below aA/A: each Newton
    # step landed exactly on the other end of the bracket, which never shrank
    h, aA, bA, A, p = (np.array([0.0]), np.array([3.16115513e-55]), np.array([4.48865851e-279]),
                       np.array([1.0]), 2.0)
    u = _bisector_root(h, aA, bA, A, p)[0]
    psi = lambda u: math.hypot(h[0], u) ** p - math.hypot(aA[0] - A[0] * u, bA[0])
    lo, hi = 0.0, aA[0] / A[0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psi(mid) < 0.0 else (lo, mid)
    assert u == pytest.approx(hi, rel=1e-12)


def _bisected_root(h, aA, bA, A, p):
    """psi's root on [0, aA/A] by 200 bisection steps, in Python floats; 0 where psi(0) >= 0."""
    psi = lambda u: math.hypot(h, u) ** p - math.hypot(aA - A * u, bA)
    if psi(0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, aA / A
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psi(mid) < 0.0 else (lo, mid)
    return hi


magnitude = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


@given(s=st.floats(0.05, 0.95), h=magnitude, aA=magnitude, bA=magnitude, A=magnitude,
       sign=st.sampled_from([-1.0, 1.0]), bend=st.floats(0.0, 1.0),
       case=st.sampled_from(["general", "h_zero", "bA_zero", "root_at_zero", "root_at_far_end"]))
# the root is aA/A, where aA - A u rounds to a negative number
@example(s=0.875, h=1.0, aA=1e-05, bA=0.0001, A=10.0**3.375, sign=-1.0, bend=0.0, case="h_zero")
@settings(max_examples=300, deadline=None)
def test_bisector_root_matches_bisection(s, h, aA, bA, A, sign, bend, case):
    # psi(0) >= 0 puts the root at 0, psi(aA/A) <= 0 at the far end of the bracket.  Newton
    # stops at a step below 1e-12 of the radius R = hypot(h, u); and a computed psi is off
    # by a few eps (R^p + S), which moves its sign change by that much over psi's slope.
    p = 1.0 + 2.0 * s
    if case == "h_zero":
        h = 0.0
    elif case == "bA_zero":
        bA = 0.0
    elif case == "root_at_zero":
        h = math.hypot(aA, bA) ** (1.0 / p) * (1.0 + bend)
    elif case == "root_at_far_end":
        bA = math.hypot(h, aA / A) ** p * (1.0 + bend)
    u = _bisector_root(*(np.array([a]) for a in (h, aA, sign * bA, A)), p)[0]
    ref = _bisected_root(h, aA, sign * bA, A, p)
    # ref <= aA/A, so the gap is >= 0; a computed one may round below 0 at the far end
    gap = max(aA - A * ref, 0.0)
    R, S = math.hypot(h, ref), math.hypot(gap, bA)
    slope = (p * ref * R ** (p - 2.0) if ref > 0.0 else 0.0) + (A * gap / S if S > 0.0 else math.inf)
    assert abs(u - ref) <= 1e-12 * R + 8.0 * np.finfo(float).eps * (R**p + S) / slope


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_distance_1d_tiny_tbar_matches_embedding(s, rng):
    # xbar/tbar overflows or loses the root for these tbar; d = 1 must agree
    # with the same pairs embedded in d = 2, whose path never divides by tbar.
    tbar = np.array([1e-300, -1e-300, 5e-324, 1e-150, -1e-200, 1e-12])
    n = len(tbar)
    xbar, v1, v2 = (rng.uniform(-1.0, 1.0, n) for _ in range(3))
    pad = lambda a: np.column_stack([a, np.zeros(n)])
    one = pair_distance_batch(tbar, xbar[:, None], v1[:, None], np.zeros(n), np.zeros((n, 1)), v2[:, None], s)
    two = pair_distance_batch(tbar, pad(xbar), pad(v1), np.zeros(n), np.zeros((n, 2)), pad(v2), s)
    np.testing.assert_allclose(one, two, rtol=0, atol=1e-9)


def _generic_newton_1d(tbar, xbar, v1, v2, s):
    """The d = 1 distance by the generic monotone Newton root, s a float.

    Every row with h^p < A D starts at min(D, (A D)^{1/p}) and steps at two
    fractional powers until a step is below 1e-12 of the radius: the
    reference that the table-started _radius_root stays within 4 ulp of.
    """
    two_s = 2.0 * s
    p = 1.0 + two_s
    at = np.abs(tbar)
    h = 0.5 * np.abs(v1 - v2)
    r = np.maximum(at ** (1.0 / two_s), h)
    zero_t = at == 0.0
    r[zero_t] = np.maximum(r[zero_t], np.abs(xbar[zero_t]) ** (1.0 / p))
    gen = np.flatnonzero(~zero_t)
    at, h = at[gen], h[gen]
    AD = np.abs(np.sign(tbar[gen]) * xbar[gen] - at * 0.5 * (v1[gen] + v2[gen]))
    with np.errstate(over="ignore"):
        D = AD / at
    u = np.where(h**p >= AD, 0.0, np.minimum(D, AD ** (1.0 / p)))
    act = np.flatnonzero(u > 0.0)
    while act.size:
        ua, ha, aa = u[act], h[act], at[act]
        step = ((ua + ha) ** p - (AD[act] - aa * ua)) / (p * (ua + ha) ** (p - 1.0) + aa)
        u[act] = np.where(step > 0.0, ua - step, ua)
        act = act[step > 1e-12 * (ua + ha)]
    r[gen] = np.maximum(r[gen], h + u)
    return r


def _ulps(a, b):
    return np.where(a == b, 0.0, np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b))))


TINY_TBAR = (1e-300, -1e-300, 5e-324, 1e-150, -1e-200, 1e-12)


@pytest.mark.parametrize("s", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_distance_1d_within_4_ulp_of_the_generic_newton_root(s, rng):
    n = 20_000
    zeros = np.zeros(n)
    for R in (1e-3, 1.0, 1e3):  # pairs scaled by S_R
        tbar = rng.uniform(-2.0, 2.0, n) * R ** (2.0 * s)
        xbar = rng.uniform(-2.0, 2.0, n) * R ** (1.0 + 2.0 * s)
        v1, v2 = rng.uniform(-2.0, 2.0, (2, n)) * R
        got = pair_distance_batch(tbar, xbar, v1, zeros, zeros, v2, s)
        assert np.max(_ulps(got, _generic_newton_1d(tbar, xbar, v1, v2, s))) <= 4.0
    # rows where the time term underflows or kappa overflows take the unscaled start
    tbar = np.repeat(TINY_TBAR, 50)
    m = len(tbar)
    xbar, v1, v2 = rng.uniform(-1.0, 1.0, (3, m))
    got = pair_distance_batch(tbar, xbar, v1, np.zeros(m), np.zeros(m), v2, s)
    assert np.max(_ulps(got, _generic_newton_1d(tbar, xbar, v1, v2, s))) <= 4.0


def test_distance_1d_is_h_where_the_velocity_term_overflows():
    # h^p overflows, so the root is u = 0 and the distance is h = 1e300; a Newton step
    # there is inf/inf and must leave u at 0
    with np.errstate(over="ignore"):
        got = pair_distance_batch(np.array([1e200, -1e250]), np.zeros(2), np.full(2, 1e300),
                                  np.zeros(2), np.zeros(2), np.full(2, -1e300), 0.75)
    np.testing.assert_array_equal(got, 1e300)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_where_an_intermediate_overflows(d):
    # tbar = 1e300, xbar = 0, v1 = v2 = 1e300 e_1: |tbar| |v1 + v2| / 2 overflows, yet the
    # distance is finite at s = 0.5 and 0.75: it is r_t rho with r_t = tbar^{1/2s} and
    # rho^p + rho = kappa = 1e300 / r_t, so rho = 1 on the time floor at s = 0.5; at
    # s = 0.25, r_t = 1e600 is past the largest float.  In d >= 2 the score of the
    # segment witness rounds the power (A L)^{1/p} of a base far from 1.
    v = np.zeros((1, d))
    v[0, 0] = 1e300

    def got(s):
        return pair_distance_batch([1e300], np.zeros((1, d)), v, [0.0], np.zeros((1, d)), v, s)[0]

    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p, rt = mp.mpf(2.5), mp.mpf(10) ** 200
    kappa = mp.mpf(10) ** 300 / rt
    ref = float(rt * mp.exp(mp.findroot(lambda x: mp.log(mp.exp(p * x) + mp.exp(x)) - mp.log(kappa), 40)))
    assert got(0.25) == math.inf and got(0.5) == 1e300
    if d == 1:
        assert abs(got(0.75) - ref) <= 4 * math.ulp(ref)
    else:
        assert got(0.75) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("s", [0.125, 0.5, 0.75, 0.875])
@pytest.mark.parametrize("d", [1, 2])
def test_distance_of_dilated_rows_past_the_overflow(d, s, rng):
    # rows at x = 0 dilated by 2^j, j a multiple of 4 so that 2s j is an integer and the
    # dilation is exact: |tbar| |v| is up to 2^(j (1 + 2s)), past the largest float, and
    # d_l is 2^j times the distance of the undilated rows
    n, j = 500, 4 * int(250 / max(1.0, 2 * s))
    tbar, zeros, x = rng.uniform(-2.0, 2.0, n), np.zeros(n), np.zeros((n, d))
    v1, v2 = rng.uniform(-2.0, 2.0, (2, n, d))
    base = pair_distance_batch(tbar, x, v1, zeros, x, v2, s)
    got = pair_distance_batch(np.ldexp(tbar, round(2 * s * j)), x, np.ldexp(v1, j), zeros, x,
                              np.ldexp(v2, j), s)
    assert np.max(_ulps(got, np.ldexp(base, j))) <= 4.0
    # a dilated row is its own: alone or among moderate rows, it reads the same
    both = pair_distance_batch(np.r_[tbar[:5], np.ldexp(tbar[5:10], round(2 * s * j))], x[:10],
                               np.r_[v1[:5], np.ldexp(v1[5:10], j)], zeros[:10], x[:10],
                               np.r_[v2[:5], np.ldexp(v2[5:10], j)], s)
    np.testing.assert_array_equal(both, np.r_[base[:5], got[5:10]])


@pytest.mark.parametrize("s", [0.125, 0.25, 0.5, 0.75, 0.875])
def test_bisector_root_of_tiny_dilated_rows(s, rng):
    # delta_lam, lam = 2^-k, takes the root's arguments (h, aA, bA, A) to (lam h, lam^p aA,
    # lam^p bA, lam^2s A) and the root to lam times it; k is a multiple of 4 (so every
    # power of 2 is exact) with p k near 960, where the squares in |(aA - A u, bA)| underflow,
    # and those in |(h, u)| too for p < 2, while R^p stays a normal float.  The witness
    # radius |(h, u)| is compared: u itself may move by many ulps where psi' is small.
    p = 1.0 + 2.0 * s
    n, k = 200, 4 * int(240 / p)
    h, aA = rng.uniform(0.0, 2.0, (2, n))
    bA, A = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 2.0, n)
    h[:20] = 0.0
    tiny = lambda i: (np.ldexp(h[i], -k), np.ldexp(aA[i], -round(p * k)), np.ldexp(bA[i], -round(p * k)),
                      np.ldexp(A[i], -round(2 * s * k)))
    small = tiny(slice(None))
    base, got = _bisector_root(h, aA, bA, A, p), _bisector_root(*small, p)
    assert np.max(_ulps(np.hypot(small[0], got), np.ldexp(np.hypot(h, base), -k))) <= 4.0
    # a tiny row is its own: alone or among moderate rows, it reads the same
    mixed = _bisector_root(*(np.r_[a[:100], t] for a, t in zip((h, aA, bA, A), tiny(slice(100, None)))), p)
    np.testing.assert_array_equal(mixed, np.r_[base[:100], got[100:]])
    alone = [_bisector_root(*tiny(slice(i, i + 1)), p)[0] for i in range(100, 110)]
    np.testing.assert_array_equal(alone, got[100:110])


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_distance_1d_batch_matches_one_by_one_bit_for_bit(s, rng):
    n = 300
    tbar = rng.uniform(-2.0, 2.0, n)
    xbar, v1, v2 = rng.uniform(-2.0, 2.0, (3, n))
    v2[:30] = v1[:30]
    tbar[30:60] = 0.0
    tbar[60:120] = np.resize(TINY_TBAR, 60)
    xbar[120:150] = 0.5 * tbar[120:150] * (v1[120:150] + v2[120:150])  # kappa = h / r_t
    zeros = np.zeros(n)
    got = pair_distance_batch(tbar, xbar, v1, zeros, zeros, v2, s)
    one_by_one = [pair_distance_batch(tbar[i:i + 1], xbar[i:i + 1], v1[i:i + 1], zeros[:1], zeros[:1],
                                      v2[i:i + 1], s)[0] for i in range(n)]
    np.testing.assert_array_equal(got, one_by_one)


@given(s=st.floats(0.01, 0.99), e=arrays(float, 16, elements=st.floats(-300.0, 300.0)))
@settings(max_examples=60, deadline=None)
def test_radius_root_solves_the_scaled_equation(s, e):
    # at = rt = 1 and h = 0 make (u + h)^p + at u = c the scaled rho^p + rho = kappa.  A
    # root within an ulp of rho leaves a residual of at most (p rho^p + rho) eps <= 2p
    # ulp of kappa; the residual is evaluated exactly.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 160
    p = 1.0 + 2.0 * s
    kappa = 10.0**e
    one = np.ones_like(kappa)
    rho = _radius_root(one, np.zeros_like(kappa), one, kappa, p)
    for r, k in zip(rho, kappa):
        residual = mpmath.mpf(r) ** mpmath.mpf(p) + mpmath.mpf(r) - mpmath.mpf(k)
        assert abs(residual) <= 2.0 * p * mpmath.mpf(np.spacing(k))
    alone = [_radius_root(one[:1], np.zeros(1), one[:1], kappa[i:i + 1], p)[0] for i in range(len(kappa))]
    np.testing.assert_array_equal(rho, alone)


def _all_candidates_nd(tbar, xbar, v1, v2, s):
    """The unstaged d >= 2 distance: all four candidate witnesses scored on every row.

    Kept verbatim (np.linalg.norm, stacked witnesses) as the bit-for-bit
    reference for the staged scorer; s is a float.
    """
    two_s = 2.0 * s
    p = 1.0 + two_s
    at = np.abs(tbar)
    h = 0.5 * np.linalg.norm(v1 - v2, axis=1)
    r = np.maximum(at ** (1.0 / two_s), h)
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
        u = _radius_root(A ** (1.0 / two_s), np.zeros_like(A), A, AL, p)
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


ROW_CASES = ("general", "same_v", "zero_t", "tiny_t", "collinear", "scaled_x")


@given(d=st.sampled_from([2, 3]), s=st.floats(0.05, 0.95), data=st.data())
@settings(max_examples=60, deadline=None)
def test_staged_distance_matches_all_candidates_bit_for_bit(d, s, data):
    n = 24
    if data.draw(st.booleans()):  # hypothesis' own floats favour 0, 1 and extremes
        vecs = arrays(float, (n, d), elements=coord)
        tbar = data.draw(arrays(float, n, elements=coord))
        xbar, v1, v2 = (data.draw(vecs) for _ in range(3))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tbar = rng.uniform(-5.0, 5.0, n)
        xbar, v1, v2 = rng.uniform(-5.0, 5.0, (3, n, d))
    cases = np.array(data.draw(st.lists(st.sampled_from(ROW_CASES), min_size=n, max_size=n)))
    v2[cases == "same_v"] = v1[cases == "same_v"]
    tbar[cases == "zero_t"] = 0.0
    tiny = cases == "tiny_t"
    tbar[tiny] = np.where(np.arange(n)[tiny] % 2, 1e-12, -1e-12)
    line = cases == "collinear"  # c = xbar/tbar on the line through v1 and v2
    lam = data.draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))[line, None]
    xbar[line] = tbar[line, None] * (v1[line] + lam * (v2[line] - v1[line]))
    big = cases == "scaled_x"  # |xbar| from 1e-8 to 1e8
    xbar[big] *= 10.0 ** data.draw(arrays(float, n, elements=st.floats(-8.0, 8.0)))[big, None]

    zeros = np.zeros(n)
    got = pair_distance_batch(tbar, xbar, v1, zeros, np.zeros_like(xbar), v2, s)
    np.testing.assert_array_equal(got, _all_candidates_nd(tbar, xbar, v1, v2, s))
    one_by_one = [pair_distance_batch(tbar[i:i + 1], xbar[i:i + 1], v1[i:i + 1], zeros[:1],
                                      np.zeros((1, d)), v2[i:i + 1], s)[0] for i in range(n)]
    np.testing.assert_array_equal(got, one_by_one)


def _midpoint_started_bisector_root(h, aA, bA, A, p):
    """The bisector root started at its bracket's midpoint, every |(a, b)| by np.hypot and
    two powers a pass: the reference that the table-started _bisector_root stays near."""
    psi = lambda u: np.hypot(h, u) ** p - np.hypot(aA - A * u, bA)
    u_max = np.sqrt(np.maximum(np.hypot(aA, bA) ** (2.0 / p) - h**2, 0.0))
    with np.errstate(over="ignore"):
        hi = np.minimum(aA / A, u_max)
    at_hi = psi(hi) <= 0.0
    u = np.where(at_hi, hi, 0.0)
    act = np.flatnonzero((psi(np.zeros_like(hi)) < 0.0) & ~at_hi)
    h, aA, bA, A, hi = h[act], aA[act], bA[act], A[act], hi[act]
    lo, ua = np.zeros_like(hi), 0.5 * hi
    for _ in range(200):
        if act.size == 0:
            return u
        gap = aA - A * ua
        R, S = np.hypot(h, ua), np.hypot(gap, bA)
        val = R**p - S
        above = val > 0.0
        hi, lo = np.where(above, ua, hi), np.where(above, lo, ua)
        dS = np.divide(A * gap, S, out=np.full_like(S, np.nan), where=S > 0.0)
        step = val / (p * ua * R ** (p - 2.0) + dS)
        nxt = ua - step
        newton = (nxt == ua) | ((nxt > lo) & (nxt < hi))
        ua = np.where(newton, nxt, 0.5 * (lo + hi))
        done = (newton & (np.abs(step) <= 1e-12 * R)) | ~(hi - lo > 4.0 * np.finfo(float).eps * R)
        u[act[done]] = ua[done]
        keep = ~done
        act, h, aA, bA, A, hi, lo, ua = (a[keep] for a in (act, h, aA, bA, A, hi, lo, ua))
    raise AssertionError("the reference bisector root did not converge")


@given(d=st.sampled_from([2, 3]), s=st.floats(0.05, 0.95), data=st.data())
@settings(max_examples=60, deadline=None)
def test_distance_nd_within_4_ulp_of_the_midpoint_started_root(d, s, data):
    # ROW_CASES rows and random rows.  Every bisector root gives a witness radius |(h, u)|
    # within 4 ulp of the reference's.  The distance scores the witness from its coordinates,
    # which round to ulps of |v|, so where d_l << |v| a root one ulp away moves it by an ulp
    # or two of |v|, many ulps of d_l: its bound is 4 ulps of d_l plus 2 of max(|v1|, |v2|).
    n = 24
    if data.draw(st.booleans()):
        vecs = arrays(float, (n, d), elements=coord)
        tbar = data.draw(arrays(float, n, elements=coord))
        xbar, v1, v2 = (data.draw(vecs) for _ in range(3))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tbar = rng.uniform(-5.0, 5.0, n)
        xbar, v1, v2 = rng.uniform(-5.0, 5.0, (3, n, d))
    cases = np.array(data.draw(st.lists(st.sampled_from(ROW_CASES), min_size=n, max_size=n)))
    v2[cases == "same_v"] = v1[cases == "same_v"]
    tbar[cases == "zero_t"] = 0.0
    tiny = cases == "tiny_t"
    tbar[tiny] = np.where(np.arange(n)[tiny] % 2, 1e-12, -1e-12)
    line = cases == "collinear"
    lam = data.draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))[line, None]
    xbar[line] = tbar[line, None] * (v1[line] + lam * (v2[line] - v1[line]))
    big = cases == "scaled_x"
    xbar[big] *= 10.0 ** data.draw(arrays(float, n, elements=st.floats(-8.0, 8.0)))[big, None]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = 2000
    tbar = np.r_[tbar, rng.uniform(-2.0, 2.0, m)]
    xbar, v1, v2 = (np.r_[a, rng.uniform(-2.0, 2.0, (m, d))] for a in (xbar, v1, v2))

    zeros = np.zeros(n + m)
    with mock.patch.object(group, "_bisector_root", wraps=_bisector_root) as spy:
        got = pair_distance_batch(tbar, xbar, v1, zeros, np.zeros_like(xbar), v2, s)
    with mock.patch.object(group, "_bisector_root", _midpoint_started_bisector_root):
        ref = pair_distance_batch(tbar, xbar, v1, zeros, np.zeros_like(xbar), v2, s)
    for h, aA, bA, A, p in (call.args for call in spy.call_args_list):
        u, u_ref = _bisector_root(h, aA, bA, A, p), _midpoint_started_bisector_root(h, aA, bA, A, p)
        assert np.max(_ulps(np.hypot(h, u), np.hypot(h, u_ref)), initial=0.0) <= 4.0
    v = np.maximum(np.linalg.norm(v1, axis=1), np.linalg.norm(v2, axis=1))
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref) + 2.0 * np.spacing(v))


def _count_rows(monkeypatch):
    """Patch the root finders to count the rows each receives."""
    rows = {"_radius_root": 0, "_bisector_root": 0}

    def counting(name):
        inner = getattr(group, name)

        def wrapper(first, *args):
            rows[name] += len(first)
            return inner(first, *args)
        return wrapper

    for name in rows:
        monkeypatch.setattr(group, name, counting(name))
    return rows


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_rows_at_the_time_floor_skip_the_roots(s, rng, monkeypatch):
    # c = m, so the midpoint scores about h < 0.04, below the floor |tbar|^{1/2s} >= 2
    rows = _count_rows(monkeypatch)
    n, d = 500, 2
    tbar = np.where(rng.random(n) < 0.5, -4.0, 4.0)
    v1 = rng.uniform(-2.0, 2.0, (n, d))
    v2 = v1 + rng.uniform(-0.05, 0.05, (n, d))
    xbar = tbar[:, None] * 0.5 * (v1 + v2)
    got = pair_distance_batch(tbar, xbar, v1, np.zeros(n), np.zeros((n, d)), v2, s)
    np.testing.assert_array_equal(got, 4.0 ** (1.0 / (2.0 * s)))
    assert rows == {"_radius_root": 0, "_bisector_root": 0}


@pytest.mark.parametrize("d", [2, 3])
def test_bisector_runs_on_a_minority_of_random_pairs(d, rng, monkeypatch):
    rows = _count_rows(monkeypatch)
    n = 2000
    t1, t2 = rng.uniform(-2.0, 2.0, (2, n))
    x1, x2, v1, v2 = rng.uniform(-2.0, 2.0, (4, n, d))
    got = pair_distance_batch(t1, x1, v1, t2, x2, v2, 0.5)
    np.testing.assert_array_equal(got, _all_candidates_nd(t1 - t2, x1 - x2, v1, v2, 0.5))
    assert rows["_bisector_root"] < 0.6 * n
    assert rows["_radius_root"] < 2 * n


@pytest.mark.parametrize("d", [2, 3])
def test_certified_segments_leave_a_minority_to_the_bisector(d, rng, monkeypatch):
    # the rows of test_bisector_runs_on_a_minority_of_random_pairs, which checks their values
    rows = _count_rows(monkeypatch)
    n = 2000
    t1, t2 = rng.uniform(-2.0, 2.0, (2, n))
    x1, x2, v1, v2 = rng.uniform(-2.0, 2.0, (4, n, d))
    pair_distance_batch(t1, x1, v1, t2, x2, v2, 0.5)
    assert rows["_bisector_root"] < (0.25 if d == 2 else 0.4) * n


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("d", [2, 3])
def test_near_degenerate_rows_match_all_candidates_bit_for_bit(d, s, rng):
    # rows where the segment and bisector candidates score within rounding of each other
    n, p = 1500, 1.0 + 2.0 * s
    tbar = rng.uniform(-2.0, 2.0, n)
    A = np.abs(tbar)
    v1 = rng.uniform(-2.0, 2.0, (n, d))
    close = rng.random(n) < 0.5  # v2 = v1 + an offset of 1e-14 to 1e-1
    v2 = np.where(close[:, None], v1 + 10.0 ** rng.uniform(-14.0, -1.0, (n, 1))
                  * _unit_rows(rng.normal(size=(n, d))), rng.uniform(-2.0, 2.0, (n, d)))
    axis = _unit_rows(v2 - v1)
    across = rng.normal(size=(n, d))
    across = _unit_rows(across - np.einsum("nd,nd->n", across, axis)[:, None] * axis)
    on_plane = 0.5 * (v1 + v2) + rng.uniform(0.0, 3.0, (n, 1)) * across
    # c on the ray from v1 through a point of the bisector plane, where the balls about
    # v1 and c touch: segment 1 meets v2's ball at q/u within 1e-12 of 1
    w = on_plane * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (n, 1)))
    u = np.linalg.norm(w - v1, axis=1)
    c = v1 + ((u + u**p / A) / u)[:, None] * (w - v1)
    case = np.arange(n) % 3
    c[case == 1] = on_plane[case == 1]  # c on the bisector plane
    xbar = tbar[:, None] * c
    tbar[case == 2] = np.where(tbar[case == 2] > 0.0, 1e-12, -1e-12)  # tiny tbar, same xbar
    got = pair_distance_batch(tbar, xbar, v1, np.zeros(n), np.zeros((n, d)), v2, s)
    np.testing.assert_array_equal(got, _all_candidates_nd(tbar, xbar, v1, v2, s))


def _segment_stage_rows(tbar, xbar, v1, v2, s):
    """Which rows reach the segment stage: tbar != 0 and a midpoint score above the floor
    max(|tbar|^{1/2s}, |v1 - v2|/2), both formed as _distance_nd forms them."""
    p = 1.0 + 2.0 * s
    m = 0.5 * (v1 + v2)
    norm = lambda a: np.linalg.norm(a, axis=1)
    mid = np.maximum(np.maximum(norm(m - v1), norm(m - v2)), norm(xbar - tbar[:, None] * m) ** (1.0 / p))
    floor = np.maximum(np.abs(tbar) ** (1.0 / (2.0 * s)), 0.5 * norm(v1 - v2))
    return (tbar != 0.0) & ~(mid <= floor)


@pytest.mark.parametrize("s", [0.05, 0.25, 0.75, 0.95])
@pytest.mark.parametrize("d", [2, 3])
def test_farther_segment_alone_matches_all_candidates_bit_for_bit(d, s, rng, monkeypatch):
    # Four kinds of rows: |c - v1| = |c - v2| exactly (v2 the mirror image of v1 in a
    # coordinate plane through c, on a dyadic lattice), the same with |c - v2| stretched
    # by 1-8 ulp, c on the bisector plane, and random rows.  The first three are ties
    # and score both segments; a random row scores its farther end's segment alone.
    rows = _count_rows(monkeypatch)
    n = 1200
    kind = np.arange(n) % 4
    sign = lambda shape: rng.choice([-1.0, 1.0], shape)
    tbar = rng.integers(2, 9, n) / 8.0 * sign(n)
    c = rng.integers(-8, 9, (n, d)) / 4.0
    # v1 near the plane x_0 = c_0 and far from c along it, where the midpoint does not settle
    v1 = c + rng.integers(4, 13, (n, d)) / 4.0 * sign((n, d))
    v1[:, 0] = c[:, 0] + rng.integers(1, 5, n) / 8.0 * sign(n)
    v2 = v1.copy()
    v2[:, 0] = 2.0 * c[:, 0] - v1[:, 0]
    off = kind == 1
    step = rng.integers(1, 9, (off.sum(), 1)) * 0.5 * np.finfo(float).eps * sign((off.sum(), 1))
    v2[off] = c[off] + (v2[off] - c[off]) * (1.0 + step)
    plane = kind == 2
    v1[plane], v2[plane] = rng.uniform(-2.0, 2.0, (2, plane.sum(), d))
    axis = _unit_rows(v2[plane] - v1[plane])
    across = rng.normal(size=(plane.sum(), d))
    across = _unit_rows(across - np.einsum("nd,nd->n", across, axis)[:, None] * axis)
    c[plane] = 0.5 * (v1[plane] + v2[plane]) + rng.uniform(0.0, 3.0, (plane.sum(), 1)) * across
    xbar = tbar[:, None] * c
    random = kind == 3
    tbar[random] = rng.uniform(-2.0, 2.0, random.sum())
    xbar[random], v1[random], v2[random] = rng.uniform(-2.0, 2.0, (3, random.sum(), d))

    got = pair_distance_batch(tbar, xbar, v1, np.zeros(n), np.zeros((n, d)), v2, s)
    np.testing.assert_array_equal(got, _all_candidates_nd(tbar, xbar, v1, v2, s))
    segment = _segment_stage_rows(tbar, xbar, v1, v2, s)
    assert segment[~random].sum() > n / 2  # most ties reach the segments
    assert rows["_radius_root"] == segment.sum() + segment[~random].sum()


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
def test_pair_distance_rejects_a_bad_tol_by_value(tol):
    with pytest.raises(ValueError, match=f"^tol must be positive, got {tol}$"):
        pair_distance_batch(*_pair_args(), 0.5, tol=tol)


PAIR_ARGS = ("ts1", "xs1", "vs1", "ts2", "xs2", "vs2")


def _pair_args(n=5, d=2):
    rng = np.random.default_rng(0)
    return [rng.uniform(-1.0, 1.0, (n,) if name.startswith("ts") else (n, d)) for name in PAIR_ARGS]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("i", range(6), ids=PAIR_ARGS)
def test_pair_distance_rejects_non_finite_coordinates(i, bad):
    args = _pair_args()
    args[i][3] = bad
    with pytest.raises(ValueError, match=f"^{PAIR_ARGS[i]} must be finite, got {bad}"):
        pair_distance_batch(*args, 0.5)


def test_pair_distance_rejects_an_overflowing_difference():
    args = _pair_args()
    args[0][1], args[3][1] = 1e308, -1e308
    with pytest.raises(ValueError, match="ts1 - ts2 overflows"):
        pair_distance_batch(*args, 0.5)


@pytest.mark.parametrize("i,shape,message", [
    (0, (4,), "ts1 and ts2 must have one shape (n,), got (4,) and (5,)"),
    (3, (6,), "ts1 and ts2 must have one shape (n,), got (5,) and (6,)"),
    (3, (5, 1), "ts1 and ts2 must have one shape (n,), got (5,) and (5, 1)"),
    (1, (4, 2), "xs1 must have shape (5, d) or (5,), got (4, 2)"),
    (2, (5, 3), "xs1 and vs1 must have one shape, got (5, 2) and (5, 3)"),
    (4, (5, 3), "xs1 and xs2 must have one shape, got (5, 2) and (5, 3)"),
    (5, (5,), "xs1 and vs2 must have one shape, got (5, 2) and (5, 1)"),
])
def test_pair_distance_rejects_mismatched_shapes(i, shape, message):
    args = _pair_args()
    args[i] = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(message)):
        pair_distance_batch(*args, 0.5)


def test_pair_distance_reads_flat_coordinates_as_d1():
    args = _pair_args(d=1)
    flat = [a[:, 0] if a.ndim == 2 else a for a in args]
    np.testing.assert_array_equal(pair_distance_batch(*flat, 0.5), pair_distance_batch(*args, 0.5))
    z0 = Point(0.3, [0.1], [-0.2])
    np.testing.assert_array_equal(left_distance_batch(z0, *flat[3:], 0.5),
                                  left_distance_batch(z0, *args[3:], 0.5))


@given(data=st.data(), s=st.floats(0.05, 0.95), d=st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_distance_floor_is_below_the_distance_bit_for_bit(data, s, d):
    # the floor max(|tbar|^{1/2s}, |v1 - v2|/2), the distance itself where tbar = 0, that
    # certifies the rows of the Hölder working sets: never above pair_distance_batch, to the
    # bit, on ordinary rows, on rows with tbar = 0 or v1 = v2, and on rows past 2^_SAFE_LOG2
    # that both dilate; in any shape that broadcasts
    from kinlab.group import _SAFE_LOG2, _as_exponent, _distance_floor

    n = 30
    el = st.floats(-4.0, 4.0)
    t1, t2 = (data.draw(arrays(float, n, elements=el)) for _ in range(2))
    x1, x2, v1, v2 = (data.draw(arrays(float, (n, d), elements=el)) for _ in range(4))
    kind = data.draw(arrays(np.int8, n, elements=st.integers(0, 5)))
    t2[kind == 1] = t1[kind == 1]
    v2[kind == 2] = v1[kind == 2]
    # dilated rows: x, t or v far past the overflow guard
    grow = 2.0 ** data.draw(arrays(float, n, elements=st.integers(_SAFE_LOG2, 1015).map(float)))
    x1[kind == 3] *= grow[kind == 3, None]
    x2[kind == 3] *= grow[kind == 3, None]
    t1[kind == 4] *= grow[kind == 4]
    t2[kind == 4] *= grow[kind == 4]
    v1[kind == 5] *= grow[kind == 5, None]
    r = pair_distance_batch(t1, x1, v1, t2, x2, v2, s)
    tbar, xbar = t1 - t2, x1 - x2
    floor = _distance_floor(tbar, xbar, v1, v2, _as_exponent(s))
    assert np.all(floor <= r)
    assert np.array_equal(floor[tbar == 0.0], r[tbar == 0.0])
    # every pair (i, j), with v1 and v2 broadcast over the pairs
    grid = _distance_floor(t1[:, None] - t2, x1[:, None, :] - x2, v1[:, None, :], v2[None], _as_exponent(s))
    i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    assert np.all(grid.ravel() <= pair_distance_batch(t1[i], x1[i], v1[i], t2[j], x2[j], v2[j], s))
    assert np.array_equal(np.diagonal(grid), floor)


@given(data=st.data(), s=st.floats(0.05, 0.95), d=st.sampled_from([1, 2, 3]))
@settings(max_examples=100, deadline=None)
def test_floor_from_relative_coordinates_is_the_pair_floor(data, s, d):
    # the Hölder fits take the floor from z0^{-1} o z, whose |t|, |v| and, where t = 0, |x| are
    # |tbar|, |v1 - v2| and |xbar| to the bit: the array of _distance_floor, where no pair dilates
    from kinlab.group import _as_exponent, _dilates, _distance_floor, _floor

    se, el, B, n = _as_exponent(s), st.floats(-4.0, 4.0), 4, 25
    t0, t = data.draw(arrays(float, B, elements=el)), data.draw(arrays(float, n, elements=el))
    x0, v0 = (data.draw(arrays(float, (B, d), elements=el)) for _ in range(2))
    x, v = (data.draw(arrays(float, (n, d), elements=el)) for _ in range(2))
    t[:5] = t0[0]
    ts = t - t0[:, None]
    vs = v - v0[:, None, :]
    xs = x - x0[:, None, :] - ts[:, :, None] * v0[:, None, :]
    assert not _dilates(8.0, 8.0, 4.0, se)
    pair = _distance_floor(t0[:, None] - t, x0[:, None, :] - x, v0[:, None, :], v[None], se)
    assert np.array_equal(_floor(ts, xs, vs, np.zeros(d), se), pair)
