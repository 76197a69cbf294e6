import math

import numpy as np
import pytest

from kinlab import quadrature
from kinlab.quadrature import (
    annulus_nodes,
    ball_nodes,
    gauss_legendre_panel,
    integrate,
    panel_annulus_nodes,
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
    pts_b, wts_b = panel_annulus_nodes(2, 1.0, 2.0, panel_width=0.1)
    assert integrate(f, pts_b, wts_b) == pytest.approx(integrate(f, pts_a, wts_a), rel=1e-11)


def test_panel_annulus_resolves_oscillation():
    q = 200.0
    f = lambda p: np.cos(q * p[:, 0])
    pts, wts = panel_annulus_nodes(1, 1.0, 2.0, panel_width=2 * math.pi / q / 3)
    exact = 2 * (math.sin(2 * q) - math.sin(q)) / q
    assert integrate(f, pts, wts) == pytest.approx(exact, abs=1e-12)


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
