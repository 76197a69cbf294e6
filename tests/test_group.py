import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq, minimize

from kinlab.group import (
    Cylinder,
    Point,
    boundary_distance,
    compose,
    cylinder_contains,
    dist,
    inverse,
    knorm,
    left_distance_batch,
    pair_distance_batch,
    scale,
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
        d0 = dist("left", z1, z2, s, tol=tol)
        d1 = dist("left", compose(g, z1), compose(g, z2), s, tol=tol)
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
        d0 = dist("left", z1, z2, s, tol=tol)
        dR = dist("left", scale(R, z1, s), scale(R, z2, s), s, tol=tol)
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


def test_batch_matches_scalar(rng):
    s = 0.5
    for d in (1, 2):
        z0 = rand_point(rng, d)
        pts = [rand_point(rng, d) for _ in range(12)]
        ts = np.array([p.t for p in pts])
        xs = np.vstack([p.x for p in pts])
        vs = np.vstack([p.v for p in pts])
        batch = left_distance_batch(z0, ts, xs, vs, s)
        for i, p in enumerate(pts):
            assert batch[i] == pytest.approx(dist("left", z0, p, s), abs=5e-9)
        paired = pair_distance_batch(np.full(12, z0.t), np.tile(z0.x, (12, 1)),
                                     np.tile(z0.v, (12, 1)), ts, xs, vs, s)
        np.testing.assert_allclose(paired, batch, atol=5e-9)


def test_cylinder_membership_and_boundary():
    Q = Cylinder(Point(0.0, [0.0], [0.0]), 1.0, 0.5)
    inside = Point(-0.04, [0.001], [0.2])
    assert cylinder_contains(Q, inside)
    bd = boundary_distance(Q, inside)
    assert 0.0 < bd < 1.0
    future = Point(0.5, [0.0], [0.0])
    assert not cylinder_contains(Q, future)
    with pytest.raises(ValueError):
        boundary_distance(Q, future)


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
    # a third of the sweep grid lies exactly on d_l = 1 about (1, 0, 0)
    tg = np.arange(n + 1) / n
    T, X, V = np.meshgrid(tg, np.linspace(-1, 1, n + 1), np.linspace(-2, 2, n + 1), indexing="ij")
    ts, xs, vs = T.ravel(), X.ravel(), V.ravel()
    got = left_distance_batch(Point(1.0, [0.0], [0.0]), ts, xs[:, None], vs[:, None], s)
    ones = np.ones_like(ts)
    ref = _reference_1d(ones, 0.0 * ones, 0.0 * ones, ts, xs, vs, s)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)
    for r in (1.0, 0.5):
        np.testing.assert_array_equal(got < r, ref < r)


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
    # |tbar|^{1/2s} reaches 1e10 at s = 0.05; an absolute tol below the float
    # spacing of the distance would make the bisection raise.
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
