import math

import numpy as np
import pytest
from scipy.special import beta

from kinlab import quadrature
from kinlab.kernels import StableLike
from kinlab.quadrature import (
    ball_rings,
    dyadic_rings,
    gauss_legendre_panel,
    half_sphere_rule,
    kronrod_rings,
    sphere_rule,
)


def _fsum_dot(vals, wts):
    """The exactly rounded sum of vals * wts."""
    return math.fsum(vals * wts)


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
    vol_ball = {1: 2.0, 2: math.pi, 3: 4 * math.pi / 3}[d]
    exact = vol_ball * (2.0**d - 0.5**d)
    ones = lambda w: np.ones(len(w))
    assert kronrod_rings(ones, d, 0.5, 2.0, 2, 64)[0] == pytest.approx(exact, rel=1e-12)


def test_ball_rings_singular_moment():
    # int_{|w|<1} |w|^{-1/2} dw in d=1 equals 4 (integrable singularity of order 1/2)
    val = kronrod_rings(lambda w: np.abs(w[:, 0]) ** -0.5, 1, *ball_rings(1.0, 0.5, 1, 1.0), 2, 64)[0]
    assert val == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("r,p,q", [(3.0, 1.0, 0.0), (0.3, 0.25, 0.0), (1.0, 1.0, 2.0**10), (5.0, 1.5, 0.1)])
def test_ball_rings_core_cut_from_order(r, p, q):
    lo, hi = ball_rings(r, p, 2, 1.0, q)
    assert hi[-1] == r and np.array_equal(lo[1:], hi[:-1]) and np.all(lo < hi)
    assert np.all(lo[1:] == 2.0 ** np.round(np.log2(lo[1:])))
    # the first ring starts at the largest power of two leaving a core share <= 1e-16
    width = 1.0 / max(q, 1.0 / r)
    assert (lo[0] / width) ** p <= 1e-16 < (2.0 * lo[0] / width) ** p


def test_ball_rings_cut_stops_before_density_overflow():
    # order 0.02 asks for a cut near 2^-2657; the floor is where 256 |w|^{-d-2s} overflows
    for d, two_s in [(1, 1.98), (3, 1.0)]:
        lo, _ = ball_rings(1.0, 0.02, d, two_s)
        assert np.isfinite(256.0 * lo[0] ** (-d - two_s))
        with np.errstate(over="ignore"):
            assert not np.isfinite(256.0 * (0.5 * lo[0]) ** (-d - two_s))


def test_panel_annulus_matches_dyadic_on_smooth():
    # int_{1 < |w| < 2} exp(-|w|) dw in d = 2, on one panel and on ten
    f = lambda p: np.exp(-np.linalg.norm(p, axis=1))
    exact = 2 * math.pi * (2 * math.exp(-1) - 3 * math.exp(-2))
    assert kronrod_rings(f, 2, 1.0, 2.0, 10, 64)[0] == pytest.approx(exact, rel=1e-11)
    assert kronrod_rings(f, 2, 1.0, 2.0, 2, 64)[0] == pytest.approx(exact, rel=1e-11)


def test_ring_nodes_cut_blocks_into_rings():
    # 200 rings of 32 x 64 nodes in d = 3 span two node blocks of _ring_blocks
    lo = np.ldexp(1.0, np.arange(-1, -201, -1))
    h = lambda w: np.sum(w * w, axis=1) ** -1.2
    rings = list(quadrature._ring_nodes(3, lo, 2.0 * lo, 64, 32))
    assert len(rings) == 200
    for (pts, wts), a in zip(rings, lo):
        r = np.linalg.norm(pts, axis=1)
        assert len(wts) == 32 * 64 and np.all((a <= r) & (r <= 2.0 * a))
        # |w|^{-2.4} on a ring of B_2a - B_a in d = 3: 4 pi a^{0.6} (2^{0.6} - 1) / 0.6
        assert _fsum_dot(h(pts), wts) == pytest.approx(4 * math.pi * a**0.6 * (2**0.6 - 1) / 0.6, rel=1e-13)
    total = math.fsum(_fsum_dot(h(pts), wts) for pts, wts in rings)
    assert total == pytest.approx(kronrod_rings(h, 3, lo, 2.0 * lo, 2, 64)[0], rel=1e-15)


def test_kronrod_table_is_exact_to_its_degree():
    # K15 integrates x^k on [-1, 1] exactly for k <= 22, its G7 subset for k <= 13
    # (and both every odd k, by symmetry)
    x, wk, wg = quadrature._kronrod15()
    for k in range(25):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert (abs(wk @ x**k - exact) <= 1e-15) == (k <= 22 or k % 2 == 1)
        assert (abs(wg @ x**k - exact) <= 1e-15) == (k <= 13 or k % 2 == 1)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(x[1::2], x7, rtol=0, atol=1e-15)
    np.testing.assert_allclose(wg[1::2], w7, rtol=0, atol=1e-15)
    assert np.all(wg[::2] == 0.0) and not x.flags.writeable


def test_kronrod_rings_embedded_rule():
    # an even h on 1 <= |w| <= 2 in d = 2, three panels: the value matches a fine
    # Gauss rule (32 radii times the 64 directions of sphere_rule(2, 64)), and the
    # embedded value is G7 on the same panels times the 32 directions of
    # sphere_rule(2, 32), every other one of the 64
    h = lambda w: np.exp(-0.3 * w[:, 0] ** 2) * np.cos(9.0 * w[:, 1])
    value, embedded, _, _ = kronrod_rings(h, 2, 1.0, 2.0, 3, 64)

    def gauss(rr, wr, n_ang):
        dirs, wd = sphere_rule(2, n_ang)
        pts = (rr.reshape(-1, 1, 1) * dirs[None, :, :]).reshape(-1, 2)
        return _fsum_dot(h(pts), np.outer(wr.ravel() * rr.ravel(), wd).ravel())

    assert value == pytest.approx(gauss(*gauss_legendre_panel(1.0, 2.0, 32), 64), rel=1e-13)
    direct = gauss(*gauss_legendre_panel(np.array([1.0, 4 / 3, 5 / 3])[:, None],
                                         np.array([4 / 3, 5 / 3, 2.0])[:, None], 7), 32)
    assert embedded == pytest.approx(direct, rel=1e-13)
    assert abs(value - embedded) > 1e-9 * abs(value)
    # in d = 1 both rules see both signs, and a polynomial of degree <= 13
    # in r leaves nothing between them
    v1, e1, _, _ = kronrod_rings(lambda w: w[:, 0] ** 12, 1, 1.0, 2.0, 1, 64)
    assert v1 == pytest.approx(2 * (2**13 - 1) / 13, rel=1e-15) and e1 == pytest.approx(v1, rel=1e-15)
    assert kronrod_rings(h, 2, [], [], 1, 64) == (0.0, 0.0, 0.0, 0)


def _kronrod_by_node_weights(d, lo, hi, n_pan, n_ang):
    """The nodes of kronrod_rings with explicit Kronrod, embedded and radial embedded
    weights on every node, and each node's panel: half-width times the 1-d weight times
    r^(d-1) times the doubled half-sphere weight; for the embedded rule G7 times every
    other direction doubled in d >= 2, and for the radial embedded rule G7 times every
    direction."""
    x, wk, wg = quadrature._kronrod15()
    dirs, wd = sphere_rule(d, n_ang)
    dirs, wd = dirs[: len(wd) // 2], 2.0 * wd[: len(wd) // 2]
    we = wd * np.resize([2.0, 0.0], len(wd)) if d > 1 else wd
    pts, wv, we_all, wr_all = [], [], [], []
    for a, b, n in zip(lo, hi, n_pan):
        edges = a + (b - a) * np.arange(n + 1) / n
        left, right = edges[:-1, None], edges[1:, None]
        half = 0.5 * (right - left)
        rr = 0.5 * (left + right) + half * x
        pts.append((rr[:, :, None, None] * dirs).reshape(-1, d))
        wv.append(((half * wk * rr ** (d - 1))[:, :, None] * wd).ravel())
        we_all.append(((half * wg * rr ** (d - 1))[:, :, None] * we).ravel())
        wr_all.append(((half * wg * rr ** (d - 1))[:, :, None] * wd).ravel())
    panel = np.repeat(np.arange(sum(n_pan)), len(x) * len(wd))
    return (np.concatenate(pts), np.concatenate(wv), np.concatenate(we_all),
            np.concatenate(wr_all), panel)


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("d,lo,hi,n_pan", [
    # 1,092 panels a block: the second ring crosses a block boundary
    (1, [0.5, 10.0, 3000.0], [10.0, 3000.0, 3001.0], [700, 700, 3]),
    (2, [0.5, 1.0], [1.0, 3.0], [50, 7]),  # 34 panels a block
    (3, [0.5, 1.0], [1.0, 3.0], [20, 30]),  # 17 panels a block
])
def test_kronrod_rings_contraction_matches_node_weights(d, lo, hi, n_pan):
    K = StableLike(0.3, d, angular=lambda th: 1.0 + 0.8 * th[:, 0] ** 2 + 0.3 * th[:, -1])
    seen = []

    def h(w):
        seen.append(w.copy())
        return (np.cos(1.7 * w[:, 0] + 9.0 * w[:, -1]) - 1.0) * K.density(w)

    value, embedded, radial, _ = kronrod_rings(h, d, lo, hi, np.array(n_pan), 64)
    pts, wv, we, wr, panel = _kronrod_by_node_weights(d, lo, hi, n_pan, 64)
    vals = (np.cos(1.7 * pts[:, 0] + 9.0 * pts[:, -1]) - 1.0) * K.density(pts)
    assert abs(value - math.fsum(vals * wv)) <= 1e-14 * math.fsum(np.abs(vals * wv))
    assert abs(embedded - math.fsum(vals * we)) <= 1e-14 * math.fsum(np.abs(vals * we))
    assert abs(radial - math.fsum(vals * wr)) <= 1e-14 * math.fsum(np.abs(vals * wr))
    assert abs(value - embedded) > 1e-9 * abs(value)  # the two rules tell apart
    # the first block ends inside a ring, so a ring's panels span two blocks
    first = len(seen[0]) // (15 * (len(sphere_rule(d, 64)[1]) // 2))
    assert len(seen) > 1 and first not in np.cumsum(n_pan)
    np.testing.assert_array_equal(_sorted_rows(np.concatenate(seen)), _sorted_rows(pts))
    # per panel, from the same values: Kronrod, embedded and radial embedded rows
    rows = np.concatenate(list(quadrature._kronrod_panels(h, d, lo, hi, np.array(n_pan), 64)),
                          axis=1)
    assert rows.shape == (3, sum(n_pan))
    for row, w in zip(rows, (wv, we, wr)):
        exact = np.bincount(panel, vals * w)
        assert np.all(np.abs(row - exact) <= 1e-14 * np.bincount(panel, np.abs(vals * w)))
    if d == 1:  # both sign directions count in both embedded rules
        np.testing.assert_allclose(rows[1], rows[2], rtol=1e-14, atol=0.0)
    else:  # every other direction misses the fast angular term
        assert np.max(np.abs(rows[1] - rows[2])) > 1e-6 * np.max(np.abs(rows[0]))


@pytest.mark.parametrize("d,n_ang", [(2, 7), (2, 10), (3, 36)])
def test_ring_rules_reject_direction_counts_without_antipodes(d, n_ang):
    # on the constant 1 over 1 < |w| < 2 these counts put the value 14.3 % low and the
    # embedded value 14.3 % high (n_ang = 7, d = 2), or the embedded value 20 % (10, d = 2)
    # or 3.4 % (36, d = 3) off
    ones = lambda w: np.ones(len(w))
    with pytest.raises(ValueError, match=f"got {n_ang}"):
        kronrod_rings(ones, d, 1.0, 2.0, 1, n_ang)
    with pytest.raises(ValueError, match=f"got {n_ang}"):
        kronrod_rings(ones, d, 1.0, 2.0, 1, n_ang, budget=1.0)
    with pytest.raises(ValueError, match="got 0"):
        kronrod_rings(ones, d, [1.0, 2.0], [2.0, 3.0], 1, [64, 0])
    # d = 1 has no direction rule to check
    assert kronrod_rings(ones, 1, 1.0, 2.0, 1, n_ang)[0] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("d,bad", [(2, 12), (3, 36)])
def test_kronrod_rings_direction_count_per_ring(d, bad):
    # three runs of rings, on 64, 80 and again 64 directions, in one call: each run is
    # contracted against its own direction weights, so the panel rows are those of one
    # call per run, and the sums are the exactly rounded sums of their blocks
    K = StableLike(0.3, d, angular=lambda th: 1.0 + 0.8 * th[:, 0] ** 2 + 0.3 * th[:, -1])
    h = lambda w: (np.cos(1.7 * w[:, 0] + 9.0 * w[:, -1]) - 1.0) * K.density(w)
    lo = np.ldexp(1.0, np.arange(-1, 4))
    hi, n_pan, n_ang = 2.0 * lo, np.array([3, 2, 5, 1, 4]), np.array([64, 64, 80, 80, 64])
    blocks = [block for run in (slice(0, 2), slice(2, 4), slice(4, 5))
              for block in quadrature._kronrod_panels(h, d, lo[run], hi[run], n_pan[run],
                                                      int(n_ang[run][0]))]
    rows = np.concatenate(list(quadrature._kronrod_panels(h, d, lo, hi, n_pan, n_ang)), axis=1)
    np.testing.assert_array_equal(rows, np.concatenate(blocks, axis=1))
    sums = np.transpose([block.sum(axis=1) for block in blocks])
    assert kronrod_rings(h, d, lo, hi, n_pan, n_ang) == (*map(math.fsum, sums), 0)
    # a count without antipodes in any run is rejected by name
    for where in range(3):
        counts = [64, 80, 64]
        counts[where] = bad
        with pytest.raises(ValueError, match=f"got {bad}"):
            kronrod_rings(h, d, lo, hi, n_pan, np.repeat(counts, [2, 2, 1]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_is_bit_for_bit_linalg_norm(d):
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-300, 160, (20000, 1))
    w = rng.standard_normal((20000, d)) * scale
    # squares that underflow to 0 or overflow to inf, alone and mixed with finite ones
    w[:4] = [[1e-300] * d, [1e160] * d, [1e-170] * d, [0.0] * d]
    w[4, 0], w[5, -1] = 1e200, 1e-200
    with np.errstate(over="ignore", under="ignore"):
        ref = np.linalg.norm(w, axis=-1)
        np.testing.assert_array_equal(quadrature._norm(w), ref)
        assert quadrature._norm(w[7]) == ref[7]
    assert ref[0] == 0.0 and ref[1] == math.inf and ref[4] == math.inf


def test_panel_annulus_resolves_oscillation():
    q = 200.0
    f = lambda p: np.cos(q * p[:, 0])
    n_pan = math.ceil(3 * q / (2 * math.pi))  # three panels per wavelength
    exact = 2 * (math.sin(2 * q) - math.sin(q)) / q
    assert kronrod_rings(f, 1, 1.0, 2.0, n_pan, 64)[0] == pytest.approx(exact, abs=1e-12)


def test_bad_annulus_bounds_raise():
    with pytest.raises(ValueError, match="2.0 to 1.0"):
        kronrod_rings(lambda w: w[:, 0], 1, 2.0, 1.0, 1, 64)
    with pytest.raises(ValueError, match="-1.0 to 1.0"):
        kronrod_rings(lambda w: w[:, 0], 1, [0.5, -1.0], [1.0, 1.0], 1, 64)
    with pytest.raises(ValueError, match="panel count per ring, got 0"):
        kronrod_rings(lambda w: w[:, 0], 1, [0.5, 1.0], [1.0, 2.0], [1, 0], 64)
    with pytest.raises(ValueError, match="r = -1.0"):
        ball_rings(-1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError, match="p = 0.0"):
        ball_rings(1.0, 0.0, 2, 1.0)
    # an empty ball or ring set integrates to 0
    assert ball_rings(0.0, 1.0, 2, 1.0)[0].size == 0
    assert kronrod_rings(lambda w: w[:, 0], 2, [], [], 1, 64)[0] == 0.0


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
