import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("s,d", [(0.25, 1), (0.5, 1), (0.75, 1), (0.5, 2)])
def test_left_invariance(s, d, rng):
    tol = 1e-9
    for _ in range(25):
        g = rand_point(rng, d)
        z1, z2 = rand_point(rng, d), rand_point(rng, d)
        d0 = dist("left", z1, z2, s, tol=tol)
        d1 = dist("left", compose(g, z1), compose(g, z2), s, tol=tol)
        assert abs(d0 - d1) <= 3 * tol * max(1.0, d0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_scaling_homogeneity(s, rng):
    tol = 1e-9
    for _ in range(25):
        z1, z2 = rand_point(rng, 1), rand_point(rng, 1)
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
    z0 = rand_point(rng, 1)
    pts = [rand_point(rng, 1) for _ in range(12)]
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
    of radius r^{1+2s}/|tbar| about xbar/tbar, with the same slacks and the
    same bracket as pair_distance_batch; it returns the bracket midpoint.
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
        zero_ok = (np.abs(xbar) <= r3_cap + eps) & (np.abs(v1 - v2) <= 2.0 * r + eps)
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
