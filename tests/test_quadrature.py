import math

import numpy as np
import pytest
from scipy.special import beta

from kinlab import quadrature
from kinlab.quadrature import (
    annulus_nodes,
    ball_nodes,
    dyadic_rings,
    gauss_legendre_panel,
    half_sphere_rule,
    integrate,
    panel_rings,
    ring_sum,
    sphere_rule,
)


def test_leggauss_cache_is_read_only():
    x, w = quadrature._leggauss(6)
    assert quadrature._leggauss(6)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    rx, rw = np.polynomial.legendre.leggauss(6)
    np.testing.assert_array_equal(x, rx)
    np.testing.assert_array_equal(w, rw)


def test_gauss_panel_polynomial_exactness():
    x, w = gauss_legendre_panel(-1.0, 3.0, 6)
    # degree 11 polynomial integrated exactly by a 6-point rule
    val = np.sum(w * x**11)
    exact = (3.0**12 - (-1.0) ** 12) / 12.0
    assert val == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("d,area", [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)])
def test_sphere_rule_total_weight(d, area):
    dirs, wts = sphere_rule(d)
    assert np.sum(wts) == pytest.approx(area, rel=1e-12)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_sphere_rule_second_moment_d3():
    dirs, wts = sphere_rule(3, n_ang=64)
    # int over S^2 of z^2 = 4 pi / 3
    val = np.sum(wts * dirs[:, 2] ** 2)
    assert val == pytest.approx(4 * math.pi / 3, rel=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0, 1.9])
@pytest.mark.parametrize("d", [2, 3])
def test_half_sphere_rule_total_weight(d, p):
    # int_{theta.e > 0} (theta.e)^p dtheta = |S^{d-2}| B((p + 1)/2, (d - 1)/2) / 2
    axis = np.array([0.3, -1.2, 0.5])[:d]
    dirs, wts = half_sphere_rule(axis, p)
    exact = 0.5 * {2: 2.0, 3: 2.0 * math.pi}[d] * beta((p + 1) / 2, (d - 1) / 2)
    assert np.sum(wts) == pytest.approx(exact, rel=1e-12)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    assert np.all(dirs @ axis > 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_annulus_mass(d):
    pts, wts = annulus_nodes(d, 0.5, 2.0)
    vol_ball = {1: 2.0, 2: math.pi, 3: 4 * math.pi / 3}[d]
    exact = vol_ball * (2.0**d - 0.5**d)
    assert integrate(np.ones(len(wts)), pts, wts) == pytest.approx(exact, rel=1e-12)


def test_ball_nodes_singular_moment():
    # int_{|w|<1} |w|^{-1/2} dw in d=1 equals 4 (integrable singularity)
    pts, wts = ball_nodes(1, 1.0)
    r = np.abs(pts[:, 0])
    val = integrate(r**-0.5, pts, wts)
    assert val == pytest.approx(4.0, rel=1e-5)


def test_panel_annulus_matches_dyadic_on_smooth():
    f = lambda p: np.exp(-np.linalg.norm(p, axis=1))
    pts_a, wts_a = annulus_nodes(2, 1.0, 2.0)
    assert panel_rings(f, 2, 1.0, 2.0, n_pan=10, n_ang=64, n_r=8) == pytest.approx(
        integrate(f, pts_a, wts_a), rel=1e-11)


def test_panel_annulus_resolves_oscillation():
    q = 200.0
    f = lambda p: np.cos(q * p[:, 0])
    n_pan = math.ceil(3 * q / (2 * math.pi))  # three panels per wavelength
    exact = 2 * (math.sin(2 * q) - math.sin(q)) / q
    assert panel_rings(f, 1, 1.0, 2.0, n_pan, n_ang=64, n_r=8) == pytest.approx(exact, abs=1e-12)


def test_integrate_paths_agree():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(10000)
    wts = rng.uniform(0, 1, 10000)
    small = math.fsum(vals * wts)
    assert integrate(vals, None, wts) == pytest.approx(small, rel=1e-12)


def test_bad_annulus_bounds_raise():
    with pytest.raises(ValueError):
        annulus_nodes(1, 2.0, 1.0)
    with pytest.raises(ValueError):
        ball_nodes(2, -1.0)


def test_dyadic_rings_exact_edges():
    assert list(dyadic_rings(1.0, range(-2, 2))) == [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]
    rings = list(dyadic_rings(0.3, range(-50, 50)))
    assert all(lo == 0.3 * 2.0**k for (lo, _), k in zip(rings, range(-50, 50)))
    assert all(a[1] == b[0] for a, b in zip(rings, rings[1:]))


def test_dyadic_rings_clip_and_stop_at_edge():
    assert list(dyadic_rings(1.0, range(10), edge=5.0)) == [(1.0, 2.0), (2.0, 4.0), (4.0, 5.0)]
    # a ring starting exactly on the edge is not produced
    assert list(dyadic_rings(1.0, range(10), edge=4.0)) == [(1.0, 2.0), (2.0, 4.0)]
    assert list(dyadic_rings(1.0, range(10), edge=1.0)) == []


def test_dyadic_rings_inward():
    assert list(dyadic_rings(3.0, range(-1, -4, -1))) == [(1.5, 3.0), (0.75, 1.5), (0.375, 0.75)]


def test_ring_sum_stop_rules():
    rings = list(dyadic_rings(1.0, range(20)))
    assert ring_sum(lambda lo, hi: hi - lo, rings[:5]) == 31.0
    seen = []

    def term(lo, hi):
        seen.append(lo)
        return 1.0 / lo

    # 1/8 is the first term below 0.1 of the running total 1.875
    assert ring_sum(term, rings, rtol=0.1) == 1.875
    assert seen == [1.0, 2.0, 4.0, 8.0]
    seen.clear()
    # the absolute stop is strict: a term equal to atol does not stop
    assert ring_sum(term, rings, atol=0.5) == 1.75
    assert seen == [1.0, 2.0, 4.0]


def test_ring_sum_zero_ring_does_not_stop_an_empty_total():
    vals = {1.0: 0.0, 2.0: 0.0, 4.0: 3.0, 8.0: 0.0, 16.0: 5.0}
    seen = []

    def term(lo, hi):
        seen.append(lo)
        return vals[lo]

    assert ring_sum(term, dyadic_rings(1.0, range(5)), rtol=1e-16) == 3.0
    assert seen == [1.0, 2.0, 4.0, 8.0]
