import math
import re
import tracemalloc

import numpy as np
import pytest

from kinlab.group import Point
from kinlab.kernels import KernelFamily, StableLike, TruncatedStable, symbol
from kinlab.operators import (
    CutoffSpec,
    Majorant,
    apply_pointwise,
    freeze_identity_residual,
    freeze_split,
)
from kinlab import operators, quadrature
from kinlab.operators import _far_ring, _near_field, _ring_masses
from kinlab.quadrature import _kronrod_panels, _norm, _ring_nodes, gauss_legendre_panel, sphere_rule


def _fsum_dot(vals, wts):
    """The exactly rounded sum of vals * wts."""
    return math.fsum(vals * wts)


def const_majorant(M, s):
    return Majorant(lambda r: M, s, description=f"constant {M}")


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_quadratic_truncated_oracle(s):
    # int_{|w|<1} w^2 |w|^{-1-2s} dw = 1/(1-s)
    K = TruncatedStable(s, 1, cutoff=1.0)
    f = lambda w: w[:, 0] ** 2
    # the kernel vanishes past the cutoff, so a bounded envelope is valid
    val, bound = apply_pointwise(K, f, [0.0], reg=(2.0, 2.0 - 2 * s),
                                 omega=Majorant(lambda r: min((1 + r) ** 2, 4.0), s))
    assert val == pytest.approx(1.0 / (1.0 - s), abs=1e-6)
    assert abs(val - 1.0 / (1.0 - s)) <= bound + 1e-9


def test_affine_input_exactly_zero():
    K = TruncatedStable(0.5, 1, cutoff=1.0)
    f = lambda w: 3.0 - 2.0 * w[:, 0]
    # second differences of an affine function vanish identically, so the
    # true local Hölder constant is zero and the result must be exact
    val, _ = apply_pointwise(K, f, [0.4], reg=(0.0, 1.0),
                             omega=const_majorant(1.0, 0.5))
    assert val == 0.0


@pytest.mark.parametrize("s,v0", [(0.5, 0.0), (0.5, 0.7), (0.25, 0.3)])
def test_cosine_symbol_oracle(s, v0):
    K = StableLike(s, 1)
    psi1 = symbol(K, [1.0])
    f = lambda w: np.cos(w[:, 0])
    val, bound = apply_pointwise(K, f, [v0], reg=(1.0, 2.0 - 2 * s),
                                 omega=const_majorant(1.0, s))
    exact = -psi1 * math.cos(v0)
    assert val == pytest.approx(exact, abs=1e-4)
    assert abs(val - exact) <= bound + 1e-9


def stable_symbol(s, d):
    """psi(e_1) = 1 / C_{d,s} of the isotropic stable kernel |w|^{-d-2s}."""
    return math.pi ** (d / 2) * math.gamma(1 - s) / (s * 4**s * math.gamma(d / 2 + s))


# (value, bound, rtol) of the far field run over all 18 default rings on the
# full sphere, at v0 = 0.3.  The stop does not fire at these s.  The far field's part
# of the bound, the Kronrod-minus-embedded difference, is what the coarse far panels
# leave within their budget, 2^-10 of the near and majorant-tail terms: 7.7e-5 of
# 0.82 at s = 0.1 and 1.7e-10 of 7.8e-6 at s = 0.5.  At s = 0.1 the tail masses run
# out to ring 266, where 2^{-2sk} <= 1e-16; cut at ring 160 (the -f0 tail) and 137
# (the majorant tail) they miss 1.8e-10 of the value and 5.6e-8 of the bound.
PINNED_D1 = {0.1: (-10.577946662489476, 0.8247696313450549, 1e-12),
             0.5: (-3.0012780373223267, 7.803057173385788e-06, 1e-11)}


# d = 2 at s = 0.1: the majorant tail dominates the bound there, so the stop never
# fires and all 18 default rings run (about 1 s on 2 cores).
@pytest.mark.parametrize("d,s", [(1, 0.1), (1, 0.5), (1, 0.9), (2, 0.1), (2, 0.5), (2, 0.9)])
def test_cosine_within_bound_default_rings(d, s):
    val, bound = apply_pointwise(StableLike(s, d), lambda w: np.cos(w[:, 0]), [0.3] * d,
                                 reg=(1.0, 2.0 - 2 * s), omega=const_majorant(1.0, s))
    assert abs(val + stable_symbol(s, d) * math.cos(0.3)) <= bound
    if d == 1 and s in PINNED_D1:
        pinned_val, pinned_bound, rtol = PINNED_D1[s]
        assert val == pytest.approx(pinned_val, rel=1e-12, abs=0.0)
        assert bound == pytest.approx(pinned_bound, rel=rtol, abs=0.0)


@pytest.mark.parametrize("d,s,om", [(d, s, om) for d in (1, 2) for s in (0.3, 0.5, 0.7)
                                     for om in (1.0, 2.0, 5.0, 10.0, 20.0)])
def test_bound_holds_when_far_panels_underresolve(d, s, om):
    # the far panels start up to 12.8 wide, so cos(om w_1) has 2 (om = 1) to 41 (om = 20)
    # periods on one; at om = 10 and 20 even the 0.8-wide floor panels hold 1.3 and 2.5,
    # so the embedded rule misses it and its difference must carry the error
    v0 = [0.3] * d
    kw = {"far_max_ring": 10} if d == 2 else {}
    val, bound = apply_pointwise(StableLike(s, d), lambda w: np.cos(om * w[:, 0]), v0,
                                 reg=(om**2, 2.0 - 2 * s), omega=const_majorant(1.0, s), **kw)
    assert abs(val + stable_symbol(s, d) * om ** (2 * s) * math.cos(om * 0.3)) <= bound


def test_small_s_masses_finite_in_d3():
    # at s = 0.05 the tail masses run out to |w| = 2^511, where the node weight half r^2
    # would overflow; the masses are contracted before the half-widths scale them
    s = 0.05
    _, _, mass = _ring_masses(StableLike(s, 3).density, 3, 2 * s, 1.0, math.inf)
    assert np.all(np.isfinite(mass))
    val, bound = apply_pointwise(StableLike(s, 3), lambda w: np.cos(w[:, 0]), [0.3] * 3,
                                 reg=(1.0, 2.0 - 2 * s), omega=const_majorant(1.0, s))
    assert abs(val + stable_symbol(s, 3) * math.cos(0.3)) <= bound


@pytest.mark.parametrize("s,om", [(s, om) for s in (0.3, 0.5, 0.7) for om in (5.0, 10.0)])
def test_far_charge_at_least_the_floor_fields(s, om):
    # a far ring charges its radial and angular parts apart, so coarse panels cannot
    # offset the angular part and bring the bound below the all-floor field's
    # (a budget share of 0 refines every far panel down to the floor)
    args = (StableLike(s, 2), lambda w: np.cos(om * w[:, 0]), [0.3, 0.3], (om**2, 2.0 - 2 * s),
            const_majorant(1.0, s))
    _, bound = apply_pointwise(*args, far_max_ring=10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_FAR_BUDGET_SHARE", 0.0)
        _, floor = apply_pointwise(*args, far_max_ring=10)
    assert bound >= floor


@pytest.mark.parametrize("budget", [None, 1e-12, 1e-6])
@pytest.mark.parametrize("k", [2, 6, 9, 11])
def test_far_ring_has_no_angular_part_in_d1(k, budget):
    # in d = 1 the radial and the embedded rule are the same rule, so the angular part of
    # the far charge must be exactly 0, on floor and on refined panels, with up to 2,560
    # panels in a pass
    f = lambda w: np.cos(3.0 * w[:, 0])
    _, embedded, radial, _ = _far_ring(StableLike(0.5, 1).density, 1, f, np.array([0.3]),
                                       math.cos(0.9), 2.0**k, 2.0 ** (k + 1), budget, 4)
    assert radial == embedded


def _near_ring_by_ring(density, d, two_s, f, v0, reg, radius=1.0):
    """The near field one ring at a time, each sum exactly rounded: (value, error term, the
    ring the scan stopped at, counting from 1)."""
    C_loc, eps = reg
    f0 = float(f(v0[None, :])[0])
    total = err = 0.0
    lo = radius * np.ldexp(1.0, np.arange(-1, -201, -1))
    for k, (pts, wts) in enumerate(_ring_nodes(d, lo, 2.0 * lo, 64, 32), 1):
        fp, fm, dens = f(v0[None, :] + pts), f(v0[None, :] - pts), density(pts)
        adens = np.abs(dens)
        chunk = 0.5 * _fsum_dot((fp + fm - 2.0 * f0) * dens, wts)
        mass = _fsum_dot(adens, wts)
        scale = 2.0 * float(max(np.max(np.abs(fp)), np.max(np.abs(fm)))) + 2.0 * abs(f0)
        noise = 4.0 * np.finfo(float).eps * scale * mass
        holder_cap = 0.5 * C_loc * _fsum_dot(_norm(pts) ** (two_s + eps) * adens, wts)
        if holder_cap <= noise:
            return total, err + (holder_cap + holder_cap / (2.0**eps - 1.0)), k
        total += chunk
        err += noise
        if holder_cap < 1e-18 * max(abs(total), 1e-300):
            return total, err, k
    return total, err, len(lo)


def _near_case(s, d, name):
    """(density, f, reg) of a near-field case: cos(w_1), cos(50 w_1) or a Gaussian against
    the stable kernel, or cos(w_1) against the signed kernel difference of freeze_split."""
    K = StableLike(s, d)
    reg_eps = 2.0 - 2 * s
    if name == "diff":
        fam = KernelFamily(K, modulation=lambda z: 1.0 + 0.4 * math.sin(z.t + z.x[0]))
        Kz, K0 = fam.kernel_at(Point(0.1, [0.2] * d, [0.3] * d)), fam.kernel_at(Point.zero(d))
        diff = lambda w: Kz.density(w) - K0.density(w)
        return diff, (lambda w: np.cos(w[:, 0])), (1.0, reg_eps)
    f, C = {"cos": (lambda w: np.cos(w[:, 0]), 1.0),
            "cos50": (lambda w: np.cos(50.0 * w[:, 0]), 2500.0),
            "gauss": (lambda w: np.exp(-np.sum(w * w, axis=1)), 2.0)}[name]
    return K.density, f, (C, reg_eps)


def _counted(f):
    calls = []

    def g(w):
        calls.append(len(w))
        return f(w)

    return g, calls


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["cos", "cos50", "gauss", "diff"])
def test_near_field_blocks_match_ring_by_ring(s, d, name):
    # each ring's value is the same exactly rounded sum of the same products, so the value
    # is bit for bit the ring-by-ring one; masses and Hölder moments are contracted, so
    # the error term moves by rounding only.  In blocks of one ring, f's calls give the
    # ring the scan stopped at
    density, f, reg = _near_case(s, d, name)
    v0 = np.full(d, 0.3)
    ref, ref_err, stop = _near_ring_by_ring(density, d, 2 * s, f, v0, reg)
    for block in (operators._NEAR_BLOCK_RINGS, 1):
        g, calls = _counted(f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_NEAR_BLOCK_RINGS", block)
            val, err = _near_field(density, d, 2 * s, g, v0, reg)
        assert val == ref
        assert err == pytest.approx(ref_err, rel=1e-14)
        assert len(calls) == 1 + 2 * math.ceil(stop / block)


@pytest.mark.parametrize("s,d,name", [(0.05, 1, "gauss"), (0.5, 2, "cos50"), (0.95, 3, "diff")])
def test_near_field_calls_f_once_per_sign_per_block(s, d, name):
    # ring by ring, f runs at f(v0) and twice per ring up to the stop ring; in blocks of
    # 16 rings, twice per block, which evaluates up to 15 rings past the stop
    density, f, reg = _near_case(s, d, name)
    v0 = np.full(d, 0.3)
    ref_f, ref_calls = _counted(f)
    stop = _near_ring_by_ring(density, d, 2 * s, ref_f, v0, reg)[2]
    assert stop > 16 and len(ref_calls) == 1 + 2 * stop
    g, calls = _counted(f)
    _near_field(density, d, 2 * s, g, v0, reg)
    assert len(calls) == 1 + 2 * math.ceil(stop / 16)
    assert set(calls[1:]) == {16 * ref_calls[1]}  # whole blocks of 16 rings


@pytest.mark.parametrize("d", [1, 2])
def test_far_field_makes_one_pass(d):
    # every far panel visited, coarse or refined, is 15 Kronrod radii times half the
    # sphere's 64 directions (1 in d = 1, 32 in d = 2), and f is evaluated at v0 +- w
    # there once: its error terms come from the same values
    rows, panels = [], []

    def f(w):
        rows.append(len(w))
        return np.cos(w[:, 0])

    def counted(*args):
        for block in _kronrod_panels(*args):
            panels.append(block.shape[1])
            yield block

    args = (StableLike(0.5, d), f, [0.3] * d, (1.0, 1.0), const_majorant(1.0, 0.5))
    apply_pointwise(*args, far_max_ring=0)
    near = sum(rows)
    rows.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_kronrod_panels", counted)
        apply_pointwise(*args, far_max_ring=8)
    assert sum(panels) > 0
    assert sum(rows) - near == 2 * 15 * (len(sphere_rule(d, 64)[1]) // 2) * sum(panels)


def _far_rows(s, om):
    """(f rows of apply_pointwise's far field for cos(om w_1) in d = 1, f rows of the floor
    rule on the rings it ran): the floor cuts ring 2^k <= |w| <= 2^(k+1) into
    ceil(2^k / _FAR_PANEL_WIDTH) panels of 15 nodes, and f is evaluated at v0 +- w."""
    calls = []

    def f(w):
        calls.append((len(w), float(np.max(np.abs(w[:, 0] - 0.3)))))
        return np.cos(om * w[:, 0])

    apply_pointwise(StableLike(s, 1), f, [0.3], reg=(om**2, 2.0 - 2 * s),
                    omega=const_majorant(1.0, s))
    far = [(n, r) for n, r in calls if r > 1.0]  # the near field ends at |w| = 1
    rings = max(math.floor(math.log2(r)) for _, r in far) + 1
    floor = sum(2 * 15 * math.ceil(2.0**k / operators._FAR_PANEL_WIDTH) for k in range(rings))
    return sum(n for n, _ in far), floor


@pytest.mark.parametrize("s,om,most", [(0.1, 1.0, 0.25), (0.5, 1.0, 0.25),
                                        (0.3, 10.0, 1.25), (0.3, 20.0, 1.25),
                                        (0.5, 10.0, 1.25), (0.5, 20.0, 1.25)])
def test_far_rows_against_the_floor_rule(s, om, most):
    # cos(w_1) is resolved on the coarse start panels, so most of them are accepted; at
    # om = 10 and 20 they fail and are bisected down to the floor, and the start level
    # follows the previous ring, so few coarse panels are tried in vain
    rows, floor = _far_rows(s, om)
    assert rows <= most * floor


@pytest.mark.parametrize("d", [2, 3])
def test_far_ring_half_sphere_matches_full_sphere(d):
    # an odd integrand against an even, anisotropic density
    K = StableLike(0.4, d, angular=lambda th: 1.0 + th[:, 0] ** 2)
    g = lambda w: np.exp(0.3 * w[:, 0] + 0.2 * w[:, -1])
    v0 = np.full(d, 0.1)
    g0 = float(g(v0[None, :])[0])
    rr, wr = gauss_legendre_panel(1.0, 2.0, 32)
    dirs, wd = sphere_rule(d, 64)
    pts = (rr[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    wts = np.outer(wr * rr ** (d - 1), wd).ravel()
    full = _fsum_dot((g(v0[None, :] + pts) - g0) * K.density(pts), wts)
    assert _far_ring(K.density, d, g, v0, g0, 1.0, 2.0)[0] == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.5, 0.9])
def test_tail_masses_reach_the_exact_tail(s):
    # int_{|w| > 1} |w|^{-1-2s} dw = 1/s; at s = 0.1, 160 rings leave out 2^{-32} of it,
    # and at s = 0.05 the cap at |w| = 2^511 leaves 2^{-51.1}
    lo, hi, mass = _ring_masses(StableLike(s, 1).density, 1, 2 * s, 1.0, math.inf)
    assert lo[0] == 1.0 and np.array_equal(lo[1:], hi[:-1]) and hi[-1] <= 2.0**511
    assert math.fsum(mass) == pytest.approx(1 / s, rel=1e-13)
    # clipped at the support edge
    _, hi, mass = _ring_masses(StableLike(s, 1).density, 1, 2 * s, 1.0, 3.0)
    assert hi[-1] == 3.0 and math.fsum(mass) == pytest.approx((1 - 3.0 ** (-2 * s)) / s, rel=1e-13)


def test_far_ring_memory_flat_in_radius():
    K = StableLike(0.5, 1)
    f = lambda w: np.cos(w[:, 0])

    def peak(lo):
        tracemalloc.start()
        try:
            _far_ring(K.density, 1, f, np.array([0.3]), math.cos(0.3), lo, 2.0 * lo)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2.0**15), peak(2.0**17)
    assert large < 32 * 2**20
    assert large <= 1.5 * small


def test_divergent_majorant_rejected():
    with pytest.raises(ValueError):
        Majorant(lambda r: (1 + r) ** 2, 0.5)


def test_cutoff_plateau_and_support():
    eta = CutoffSpec(1.0, 2.0, 5)
    v = np.array([[0.0], [0.5], [2.5], [-3.0]])
    out = eta(v)
    assert out[0] == 1.0 and out[1] == 1.0
    assert out[2] == 0.0 and out[3] == 0.0
    mid = eta(np.array([[1.5]]))[0]
    assert 0.0 < mid < 1.0


def _manufactured(s):
    K = StableLike(s, 1)
    psi1 = symbol(K, [1.0])
    fam = KernelFamily(K, modulation=lambda z: 1.0 + 0.4 * math.sin(z.t + z.x[0]))
    f = lambda ts, xs, vs: np.exp(-psi1 * ts) * np.cos(vs[:, 0])

    def c(ts, xs, vs):
        a = 1.0 + 0.4 * np.sin(ts + xs[:, 0])
        return (1.0 - a) * (-psi1) * f(ts, xs, vs)

    return fam, f, c


@pytest.mark.parametrize("s,tol", [(0.25, 5e-6), (0.5, 5e-7), (0.75, 5e-4)])
def test_freeze_identity_manufactured(s, tol):
    fam, f, c = _manufactured(s)
    eta = CutoffSpec(1.0, 2.0, 5)
    z = Point(0.1, [0.2], [0.3])
    resid = freeze_identity_residual(fam, f, c, eta, z)
    assert resid <= tol


def test_freeze_A_vanishes_for_constant_family():
    s = 0.5
    K = StableLike(s, 1)
    fam = KernelFamily(K, modulation=lambda z: 1.0)
    f = lambda ts, xs, vs: np.cos(vs[:, 0])
    eta = CutoffSpec(1.0, 2.0, 5)
    _, A, _ = freeze_split(fam, f, eta, Point(0.1, [0.2], [0.3]))
    assert A == 0.0


def test_freeze_terms_stable_under_far_refinement():
    fam, f, _ = _manufactured(0.5)
    eta = CutoffSpec(1.0, 2.0, 5)
    z = Point(0.1, [0.2], [0.3])
    l12, a12, b12 = freeze_split(fam, f, eta, z, r_max_ring=12)
    l14, a14, b14 = freeze_split(fam, f, eta, z, r_max_ring=14)
    for lo, hi in ((l12, l14), (a12, a14), (b12, b14)):
        assert abs(hi - lo) <= 1e-6 * max(1.0, abs(hi))


def test_freeze_requires_plateau_point():
    fam, f, _ = _manufactured(0.5)
    eta = CutoffSpec(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        freeze_split(fam, f, eta, Point(0.0, [0.0], [1.5]))


@pytest.mark.parametrize("d, v0, reg, bad", [
    (1, [0.3, 5.0], (1.0, 0.5), "[0.3, 5.0]"),
    (2, [0.3], (1.0, 0.5), "[0.3]"),
    (1, [math.nan], (1.0, 0.5), "[nan]"),
    (2, [0.3, math.inf], (1.0, 0.5), "[0.3, inf]"),
    (1, [0.3], (math.nan, 0.5), "(nan, 0.5)"),
    (1, [0.3], (-1.0, 0.5), "(-1.0, 0.5)"),
    (1, [0.3], (1.0, math.inf), "(1.0, inf)"),
    (1, [0.3], (1.0, 0.0), "(1.0, 0.0)"),
], ids=["long-v0", "short-v0", "nan-v0", "inf-v0", "nan-C", "negative-C", "inf-eps", "zero-eps"])
def test_apply_pointwise_rejects_bad_input(d, v0, reg, bad):
    # unchecked, each gives a number: the d = 1 value at v0[0], v0 broadcast to every
    # coordinate, or a bound of 1e46
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        apply_pointwise(StableLike(0.5, d), lambda w: np.cos(w[:, 0]), v0, reg,
                        const_majorant(1.0, 0.5))


def test_majorant_rejects_non_finite_values():
    with pytest.raises(ValueError, match="got nan at r = "):
        Majorant(lambda r: math.nan, 0.5)
    # finite on every radius the integrability check reads, nan on the far rings
    omega = Majorant(lambda r: 1.0 if r < 2.0**50 else math.nan, 0.5)
    with pytest.raises(ValueError, match="got nan at r = "):
        apply_pointwise(StableLike(0.5, 1), lambda w: np.cos(w[:, 0]), [0.3], (1.0, 0.5), omega)
