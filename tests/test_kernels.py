import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

import kinlab
from conftest import gaussian_ring_bumps, oscillatory_kernel
from kinlab.group import Point, dist
from kinlab.harness import kernel_bank
from kinlab.kernels import (
    CustomDensity,
    KernelFamily,
    LogPeriodic,
    RingMeasure,
    StableLike,
    TestFunction,
    TruncatedStable,
    _half_sphere_moment,
    _power_symbol_constant,
    _ring_profile_norm,
    coercivity_ratio,
    ellipticity_report,
    holder_modulus,
    nondegeneracy_constant,
    ring_moments,
    symbol,
    upper_bound_constant,
    weak_star_gap,
)
from kinlab.quadrature import half_sphere_rule
from kinlab.spectral import SpectralField, solve

RADII = (0.25, 1.0, 4.0)


def test_second_moment_constant_stable():
    K = StableLike(0.5, 1)
    assert upper_bound_constant(K, RADII) == pytest.approx(2.0, abs=1e-8)


def test_nondegeneracy_quarter():
    K = StableLike(0.25, 1)
    lam = nondegeneracy_constant(K, RADII, [[1.0], [-1.0]])
    assert lam == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_rings_end_at_support_edge():
    # the cutoff 3 lies inside the ring [2, 4]; mass 2 (1/2 - 1/3), moment 2 (3 - 2)
    mass, mom = ring_moments(TruncatedStable(0.5, 1, cutoff=3.0), [2])[2]
    assert mass == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert mom == pytest.approx(2.0, rel=1e-12)
    # the cutoff 1 lies inside B_3: 3^{2s-2} int_{B_1} w^2 |w|^{-2} = 2/3, half of it on w > 0
    K = TruncatedStable(0.5, 1, cutoff=1.0)
    assert upper_bound_constant(K, [3.0]) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert nondegeneracy_constant(K, [3.0], [[1.0]]) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_ball_rings_break_at_ring_measure_jumps():
    # rings 0 and 1 hold second moments 1/2 and 2, so B_1.5 holds 3/2 = 1.5^{2 - 2s}
    K = RingMeasure(0.5, 1, {0: 1.0, 1: 1.0})
    assert upper_bound_constant(K, [1.5]) == pytest.approx(1.0, rel=1e-12)


def test_unit_ring_mass():
    K = StableLike(0.5, 1)
    mass, _ = ring_moments(K, [1])[1]
    assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 8.0])
def test_symbol_oracle_1d(q):
    K = StableLike(0.5, 1)
    assert symbol(K, [q]) == pytest.approx(math.pi * q, rel=1e-4)


def _stable_symbol(s, d, xi):
    """|xi|^{2s} / C_{d,s} = int (1 - cos xi.w) |w|^{-d-2s} dw (Di Nezza, Palatucci,
    Valdinoci, arXiv:1104.4345, section 3)."""
    c_ds = s * 4**s * math.gamma(d / 2 + s) / (math.pi ** (d / 2) * math.gamma(1 - s))
    return np.linalg.norm(xi) ** (2 * s) / c_ds


def _radial_constant(s):
    """C(2s) = int_0^inf (1 - cos u) u^{-1-2s} du."""
    return math.pi / (2 * math.gamma(1 + 2 * s) * math.sin(math.pi * s))


def _theta1_sq_symbol_2d(s, xi):
    """psi = C(2s) int_0^{2pi} cos^2(t) |xi . (cos t, sin t)|^{2s} dt for the angular density
    theta_1^2; with I(p) = int_0^{2pi} |cos u|^p du = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1)
    the integral is |xi|^{2s} (I(2s) + cos(2 phi0) (2 I(2s+2) - I(2s))) / 2."""
    I = lambda p: 2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
    phi0 = math.atan2(xi[1], xi[0])
    return _radial_constant(s) * np.linalg.norm(xi) ** (2 * s) * (
        I(2 * s) + math.cos(2 * phi0) * (2 * I(2 * s + 2) - I(2 * s))) / 2


def _theta1_sq_symbol_3d(s, xi):
    """psi = C(2s) int_S theta_1^2 |xi . theta|^{2s} dtheta; with the polar axis along xi
    and c = xi_1/|xi|, the azimuthal mean of theta_1^2 is c^2 mu^2 + (1 - c^2)(1 - mu^2)/2."""
    q = np.linalg.norm(xi)
    c2 = (xi[0] / q) ** 2
    return _radial_constant(s) * q ** (2 * s) * 4 * math.pi * (
        c2 / (2 * s + 3) + (1 - c2) * (1 / (2 * s + 1) - 1 / (2 * s + 3)) / 2)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.5, 0.9, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stable_symbol_closed_form(s, d):
    xi = np.array([1.3, -0.4, 0.7])[:d]
    assert symbol(StableLike(s, d), xi) == pytest.approx(_stable_symbol(s, d, xi), rel=1e-12)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_symbol_anisotropic_2d_closed_form(s):
    xi = np.array([0.6, -1.1])
    K = StableLike(s, 2, angular=lambda th: th[:, 0] ** 2)
    assert symbol(K, xi) == pytest.approx(_theta1_sq_symbol_2d(s, xi), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(0.05, 0.95), d=st.integers(1, 3), amp=st.floats(0.01, 100.0),
       xi=arrays(float, 3, elements=st.floats(-20.0, 20.0)),
       e=arrays(float, 3, elements=st.floats(-5.0, 5.0)), theta1_sq=st.booleans(),
       cutoff=st.floats(0.5, 5.0))
def test_homogeneous_closed_forms(s, d, amp, xi, e, theta1_sq, cutoff):
    # K = amp a(theta) |w|^{-d-2s} with a = 1 or theta_1^2, whose mean <a> over the
    # sphere is 1 or 1/d: Lambda = amp |S| <a> / (2 - 2s) at every radius, and
    # lambda(e) = amp |S| |e|^2 / (2d (2 - 2s)) or amp |S| (|e|^2 + 2 e_1^2) / (2d (d+2) (2 - 2s));
    # truncated at R, both carry min(1, R/r)^{2-2s} at radius r
    xi, e = xi[:d], e[:d]
    assume(np.linalg.norm(xi) > 1e-3 and np.linalg.norm(e) > 1e-3)
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    K = StableLike(s, d, angular=(lambda th: th[:, 0] ** 2) if theta1_sq else None, amplitude=amp)
    if not theta1_sq or d == 1:
        psi = _stable_symbol(s, d, xi)
        lam = area * (e @ e) / (2 * d)
    else:
        psi = (_theta1_sq_symbol_2d if d == 2 else _theta1_sq_symbol_3d)(s, xi)
        lam = area * (e @ e + 2 * e[0] ** 2) / (2 * d * (d + 2))
    mean_a = 1 / d if theta1_sq else 1.0
    assert symbol(K, xi) == pytest.approx(amp * psi, rel=1e-12)
    assert upper_bound_constant(K, [0.3, 7.0]) == pytest.approx(
        amp * area * mean_a / (2 - 2 * s), rel=1e-12)
    assert nondegeneracy_constant(K, [0.3, 7.0], [e]) == pytest.approx(
        amp * lam / (2 - 2 * s), rel=1e-12)
    if theta1_sq:
        return
    T = TruncatedStable(s, d, cutoff=cutoff, amplitude=amp)
    shrink = (cutoff / 7.0) ** (2 - 2 * s)
    assert upper_bound_constant(T, [0.3, 7.0]) == pytest.approx(amp * area / (2 - 2 * s), rel=1e-12)
    assert upper_bound_constant(T, [7.0]) == pytest.approx(
        shrink * amp * area / (2 - 2 * s), rel=1e-12)
    assert nondegeneracy_constant(T, [0.3, 7.0], [e]) == pytest.approx(
        shrink * amp * lam / (2 - 2 * s), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_custom_density_rejects_odd_callable(d):
    with pytest.raises(ValueError, match=r"density must be even: fn\(\[0\.125.*\) = 1\.125, "
                                         r"fn\(\[-0\.125.*\) = 0\.875$"):
        CustomDensity(0.5, d, lambda w: 1.0 + w[:, 0])


def test_custom_density_evaluates_its_callable_once():
    calls = []

    def fn(w):
        calls.append(len(w))
        return np.linalg.norm(w, axis=-1) ** -2.0

    K = CustomDensity(0.5, 1, fn)
    calls.clear()
    w = np.array([[0.3], [-1.7], [4.0]])
    np.testing.assert_array_equal(K.density(w), fn(w))
    assert calls == [3, 3]


@pytest.mark.parametrize("K", [StableLike(0.3, 2), TruncatedStable(0.3, 2)],
                         ids=["homogeneous", "truncated"])
@pytest.mark.parametrize("radii,dirs,bad", [
    ([], [[1.0, 0.0]], "[]"),
    ([1.0, -2.0], [[1.0, 0.0]], "[-2.0]"),
    ([0.0, 1.0], [[1.0, 0.0]], "[0.0]"),
    ([math.nan], [[1.0, 0.0]], "[nan]"),
    ([1.0], [], "[[]]"),
    ([1.0], [[1.0, 0.0], [0.0, 0.0]], "[0.0, 0.0]"),
    ([1.0], [[1.0, 0.0, 0.0]], "[[1.0, 0.0, 0.0]]"),
], ids=["no-radius", "negative-radius", "zero-radius", "nan-radius", "no-direction",
        "zero-direction", "wrong-length-direction"])
def test_constants_reject_bad_input(K, radii, dirs, bad):
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        nondegeneracy_constant(K, radii, dirs)
    if dirs == [[1.0, 0.0]]:
        with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
            upper_bound_constant(K, radii)


def test_symbol_even_and_homogeneous_2d():
    K = StableLike(0.75, 2)
    xi = np.array([0.6, -1.1])
    assert symbol(K, xi) == pytest.approx(symbol(K, -xi), rel=1e-10)
    assert symbol(K, 2 * xi) == pytest.approx(2.0**1.5 * symbol(K, xi), rel=1e-8)


@pytest.mark.parametrize("s,cutoff", [(0.5, 0.3), (0.25, 0.7)])
def test_symbol_truncated_below_unit_cutoff(s, cutoff):
    # psi(q) = 2 int_0^c (1 - cos qr) r^{-1-2s} dr, integrated term by term
    for q in (1.0, 5.0):
        exact = math.fsum(
            2 * (-1) ** (k + 1) * q ** (2 * k) * cutoff ** (2 * k - 2 * s)
            / (math.factorial(2 * k) * (2 * k - 2 * s)) for k in range(1, 40)
        )
        assert symbol(TruncatedStable(s, 1, cutoff=cutoff), [q]) == pytest.approx(exact, rel=1e-9)


def test_symbol_truncated_matches_full_at_high_frequency():
    # the tail beyond the cutoff carries little of psi at large |xi|
    s = 0.5
    full = symbol(StableLike(s, 1), [40.0])
    trunc = symbol(TruncatedStable(s, 1, cutoff=1.0), [40.0])
    assert trunc == pytest.approx(full, rel=0.05)


_UNIT = {1: [1.0], 2: [0.6, 0.8], 3: [0.48, 0.64, 0.6]}


def _radial_series(s, d, q, rings=((0.0, 1.0, 1.0),)):
    """psi(q) of the radial density c_i |w|^{-d-2s} on each ring a_i < |w| <= b_i of
    (a_i, b_i, c_i), by its power series in mpmath; the default is TruncatedStable(s, d, 1).

    |S^{d-1}| - sigma_d(rho) = sum_k c_k (-1)^{k+1} rho^{2k} with c_k = 2/(2k)! (d = 1),
    2 pi/(4^k k!^2) (d = 2) or 4 pi/(2k+1)! (d = 3), and rho^{2k} against r^{-1-2s} on [a, b]
    gives q^{2k} (b^{2k-2s} - a^{2k-2s}) / (2k - 2s).  The terms peak near e^{q b}, so
    0.44 q b extra digits absorb the cancellation.
    """
    mpmath = pytest.importorskip("mpmath")
    ratio = {1: lambda k: (2 * k - 1) * 2 * k, 2: lambda k: 4 * k * k, 3: lambda k: 2 * k * (2 * k + 1)}[d]
    top = q * max(b for _, b, _ in rings)
    with mpmath.workdps(30 + int(0.44 * top)):
        two_s, total = 2 * mpmath.mpf(s), 0
        for a, b, c in rings:
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            term, ring = -mpmath.mpf({1: 2, 2: 2 * mpmath.pi, 3: 4 * mpmath.pi}[d]), 0
            for k in range(1, int(1.5 * top) + 60):
                term *= -mpmath.mpf(q) ** 2 / ratio(k)
                ring += term * (b ** (2 * k - two_s) - a ** (2 * k - two_s)) / (2 * k - two_s)
            total += mpmath.mpf(c) * ring
        return float(total)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.75, 0.9, 0.95])
@pytest.mark.parametrize("d,q", [(1, 0.5), (1, 3.0), (1, 40.0), (1, 1000.0), (2, 0.5), (2, 3.0),
                                 (2, 40.0), (3, 0.5), (3, 3.0), (3, 40.0)]
                         + [(d, q) for d in (1, 2, 3) for q in (1e-8, 1e-6, 1e-3)])
def test_symbol_truncated_matches_power_series(s, d, q):
    # near s = 1 the core cut stops at the float64 overflow radius (about 1e-63 in d = 3),
    # and the core below it, 5.5e-7 of psi at s = 0.95 in d = 3, enters by its leading
    # term; for |xi| R < 1 the core cut must follow R, not |xi|
    xi = q * np.array(_UNIT[d])
    assert symbol(TruncatedStable(s, d, cutoff=1.0), xi) == pytest.approx(
        _radial_series(s, d, q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_symbols_match_their_power_series(s, d):
    # the truncated and ring kernels of the bank, one radial integral each in every d
    ring = kernel_bank(s, d)["ring"]
    rings = [(2.0 ** (k - 1), 2.0**k, m / _ring_profile_norm(s, d, k)) for k, m in ring.masses.items()]
    for q in (0.1, 1.0, 3.7, 10.0):
        xi = q * np.array(_UNIT[d])
        assert symbol(TruncatedStable(s, d, 1.0), xi) == pytest.approx(
            _radial_series(s, d, q), rel=1e-14, abs=0.0)
        assert symbol(ring, xi) == pytest.approx(_radial_series(s, d, q, rings), rel=1e-14, abs=0.0)


def _stable_minus_tail(s, d, q):
    """psi(q) of TruncatedStable(s, d, 1) in mpmath, as the stable symbol minus the tail
    int_1^inf (|S^{d-1}| - sigma_d(q r)) r^{-1-2s} dr.

    sigma_d(t) = |S^{d-1}| 0F1(; d/2; -t^2/4), whose integral against t^mu, mu = -1 - 2s, is
    over (0, inf) 2^mu Gamma(d/2) Gamma((1+mu)/2) / Gamma(d/2 - (1+mu)/2) and over (0, q)
    q^{mu+1} / (mu+1) 1F2((mu+1)/2; d/2, (mu+3)/2; -q^2/4), both continued analytically
    from -1 < mu < 1/2: their difference is the tail from q.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s, q, b = mpmath.mpf(s), mpmath.mpf(q), mpmath.mpf(d) / 2
        area, mu = 2 * mpmath.pi**b / mpmath.gamma(b), -1 - 2 * s
        stable = q ** (2 * s) * mpmath.pi**b * mpmath.gamma(1 - s) / (s * 4**s * mpmath.gamma(b + s))
        whole = 2**mu * mpmath.gamma(b) * mpmath.gamma((1 + mu) / 2) / mpmath.gamma(b - (1 + mu) / 2)
        head = q ** (mu + 1) / (mu + 1) * mpmath.hyp1f2((mu + 1) / 2, b, (mu + 3) / 2, -q * q / 4)
        return float(stable - area * (1 / (2 * s) - q ** (2 * s) * (whole - head)))


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_truncated_symbol_is_the_stable_one_minus_its_tail(s, d):
    # far above the old d >= 2 limit R |xi| <= 4096
    for q in (30.0, 1000.0, 1e4):
        assert symbol(TruncatedStable(s, d, 1.0), q * np.array(_UNIT[d])) == pytest.approx(
            _stable_minus_tail(s, d, q), rel=2e-14, abs=0.0)


@pytest.mark.parametrize("name, q", [("truncated", 1000.0), ("ring", 64.0)])
def test_radial_symbols_cost_one_radial_integral(monkeypatch, name, q):
    # O(q R) nodes in every d: the d = 3 symbol evaluates its density on the d = 1 nodes
    from kinlab import kernels

    nodes = {}
    rings = kernels.kronrod_rings

    def counted(h, d, *args):
        def g(w):
            nodes[key] = nodes.get(key, 0) + len(w)
            return h(w)
        return rings(g, d, *args)

    monkeypatch.setattr(kernels, "kronrod_rings", counted)
    for key in (1, 3):
        xi = np.zeros(key)
        xi[0] = q
        symbol(kernel_bank(0.5, key)[name], xi)
    assert nodes[3] == nodes[1]
    monkeypatch.undo()
    K, xi = kernel_bank(0.5, 3)[name], [q, 0.0, 0.0]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        symbol(K, xi)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


@pytest.mark.parametrize("d", [2, 3])
def test_radial_symbols_take_any_frequency(d):
    # only a non-radial CustomDensity keeps the d >= 2 limit R |xi| <= 4096
    xi = np.zeros(d)
    xi[0] = 5000.0
    for K in (TruncatedStable(0.5, d), kernel_bank(0.5, d)["ring"]):
        assert math.isfinite(symbol(K, xi))
    with pytest.raises(ValueError, match="frequency too high"):
        symbol(CustomDensity(0.5, d, lambda w: np.ones(len(w)), support_radius=1.0), xi)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_non_radial_finite_support_symbol_matches_the_radial_one(s, d):
    # a CustomDensity is not radial, so its symbol integrates rings of directions; with the
    # truncated kernel's density on the same support it must give the single radial integral
    K = TruncatedStable(s, d, cutoff=1.0)
    C = CustomDensity(s, d, K.density, support_radius=1.0)
    assert K.radial and not C.radial
    for q in (0.5, 3.0, 40.0):
        xi = q * np.eye(1, d)[0]
        assert symbol(C, xi) == pytest.approx(symbol(K, xi), rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [0.05 * k for k in range(1, 20)])
def test_isotropic_moment_closed_form_matches_the_rule(s, d):
    e = np.array([0.3, -1.2, 0.5])[:d]
    K = StableLike(s, d)
    for p in (0.0, 2.0, 2.0 * s):
        dirs, wts = half_sphere_rule(e, p)
        assert _half_sphere_moment(K, e, p) == pytest.approx(float(np.sum(K.density(dirs) * wts)),
                                                             rel=1e-14, abs=0.0)


@pytest.mark.parametrize("amp", [1.0, 0.3, 7.25])
def test_isotropic_moment_in_d1_is_the_amplitude(amp):
    for s in (0.05, 0.5, 0.95):
        for p in (0.0, 2.0, 2.0 * s):
            assert _half_sphere_moment(StableLike(s, 1, amplitude=amp), [1.0], p) == amp


@pytest.mark.parametrize("d", [1, 2, 3])
def test_isotropic_kernels_make_no_quadrature_call(monkeypatch, d):
    from kinlab import kernels

    def refuse(*args):
        raise AssertionError("half_sphere_rule called")

    monkeypatch.setattr(kernels, "half_sphere_rule", refuse)
    xi, dirs = np.array([0.6, -1.1, 0.4])[:d], np.vstack([np.eye(d), -np.eye(d)])
    for s in (0.1, 0.5, 0.9):
        assert symbol(StableLike(s, d), xi) > 0.0
        assert symbol(TruncatedStable(s, d), xi) > 0.0
        for K in (StableLike(s, d), TruncatedStable(s, d)):
            assert upper_bound_constant(K, RADII) > 0.0
            assert nondegeneracy_constant(K, RADII, dirs) > 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_anisotropic_kernels_reach_the_rule(monkeypatch, d):
    from kinlab import kernels

    calls = []
    rule = kernels.half_sphere_rule
    monkeypatch.setattr(kernels, "half_sphere_rule", lambda e, p: calls.append(p) or rule(e, p))
    K = StableLike(0.3, d, angular=lambda th: 1 + th[:, 0] ** 2)
    symbol(K, np.ones(d))
    upper_bound_constant(K, RADII)
    assert calls == [0.6, 0.0]


def _log_periodic_terms(K, q=1.0):
    """(c_j, z_j) of K's powers Re c |w|^{-d-z} after the substitution w -> w / q:
    (1, 2s) and (a_j e^{i(phi_j - beta_j ln q)}, 2s - i beta_j)."""
    c = [1.0] + [a * complex(math.cos(phi - beta * math.log(q)), math.sin(phi - beta * math.log(q)))
                 for a, beta, phi in K.terms]
    z = [complex(K.s.two_s)] + [complex(K.s.two_s, -beta) for _, beta, _ in K.terms]
    return c, z


def _qawf_symbol_1d(K, q):
    """psi(q) of a d = 1 LogPeriodic kernel by QAWF, without the Mellin formula.

    psi(q) = 2 int_0^inf (1 - cos qr) g(r) dr = 2 q^{2s} int_0^inf (1 - cos u) g_q(u) du with
    g(r) = sum_j Re c_j r^{-1-z_j} and g_q its phases shifted by -beta_j ln q.  On [0, 1]
    the Taylor series of 1 - cos u integrates term by term, u^{2k} against u^{-1-z} giving
    1 / (2k - z); on [1, inf) the flat part is 1 / z and the oscillating part is QAWF's.
    """
    c, z = _log_periodic_terms(K, q)
    near = sum((cj * sum((-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k - zj))
                         for k in range(1, 20))).real for cj, zj in zip(c, z))
    flat = sum((cj / zj).real for cj, zj in zip(c, z))
    g = lambda u: sum((cj * u ** (-1.0 - zj)).real for cj, zj in zip(c, z))
    osc, _ = integrate.quad(g, 1.0, np.inf, weight="cos", wvar=1.0, epsabs=1e-12, limlst=500)
    return 2.0 * q**K.s.two_s * (near + flat - osc)


def _marginal_factor(z, d):
    """kappa_d(z) = int_{S^{d-1}} |theta_1|^z dtheta / 2, the ratio C_d(z) / C_1(z) of the
    symbol constants of |w|^{-d-z}, by quadrature: 2 int_0^{pi/2} cos^z t dt (d = 2) and
    2 pi int_0^1 mu^z dmu (d = 3)."""
    f, hi, scale = {2: (math.cos, math.pi / 2, 2.0), 3: (lambda mu: mu, 1.0, 2.0 * math.pi)}[d]
    part = lambda take: integrate.quad(lambda t: take(f(t) ** z), 0.0, hi, epsabs=1e-14,
                                       epsrel=1e-13, limit=200)[0]
    return scale * complex(part(lambda v: v.real), part(lambda v: v.imag))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("q", [1e-3, 0.05, 0.3, 1.0, 3.0, 20.0])
def test_log_periodic_symbol_matches_closed_form(s, q):
    # the closed form against QAWF on a fixed grid, down to |xi| = 1e-3, where psi is
    # as small as 2.4e-5 (the reference scales the frequency out, so it stays relative)
    K = kernel_bank(s, 1)["profiled_a"]
    assert symbol(K, [q]) == pytest.approx(_qawf_symbol_1d(K, q), rel=1e-9, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.sampled_from([1, 2, 3]), st.sampled_from(["profiled_a", "profiled_b"]),
       st.floats(math.log(0.05), math.log(20.0)), st.integers(0, 2**32 - 1))
def test_log_periodic_symbol_matches_references(s, d, name, log_q, seed):
    # d = 1 against QAWF; d = 2, 3 by the marginal identity C_d(z) = kappa_d(z) C_1(z), term
    # by term, with kappa_d by quadrature over the sphere
    K = kernel_bank(s, d)[name]
    q = math.exp(log_q)
    u = np.random.default_rng(seed).normal(size=d)
    xi = q * u / np.linalg.norm(u)
    if d == 1:
        assert symbol(K, xi) == pytest.approx(_qawf_symbol_1d(K, q), rel=1e-9, abs=0.0)
        return
    c, z = _log_periodic_terms(K)
    ref = sum((cj * _marginal_factor(zj, d) * _power_symbol_constant(np.array(zj), 1) * q**zj).real
              for cj, zj in zip(c, z))
    assert symbol(K, xi) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["profiled_a", "profiled_b"])
@pytest.mark.parametrize("s", [0.02, 0.05, 0.95, 0.99])
def test_log_periodic_symbol_extreme_order_is_finite(s, name):
    # at both ends of the order range the closed form still matches QAWF; near s = 1
    # the QAWF symbol path this replaced was 0.9 % low at s = 0.99
    K = kernel_bank(s, 1)[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = symbol(K, [1.0])
    assert val == pytest.approx(_qawf_symbol_1d(K, 1.0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", ["profiled_a", "profiled_b"])
def test_solve_decays_each_mode_by_the_log_periodic_symbol(name):
    K = kernel_bank(0.3, 1)[name]
    f0 = SpectralField({(0, 1): 0.5, (0, 3): 0.2 - 0.1j})
    out = solve(f0, K, None, 0.7)
    for m, a in f0.modes.items():
        assert out.modes[m] == pytest.approx(a * math.exp(-0.7 * _qawf_symbol_1d(K, abs(m[1]))),
                                             rel=1e-9, abs=0.0)


def test_symbol_rejects_other_infinite_support_kernels():
    # a d = 1 kernel with an infinite tail and no closed form went through QAWF before
    with pytest.raises(NotImplementedError, match=r"CustomDensity in d = 1 with support radius inf"):
        symbol(oscillatory_kernel(4), [1.0])


def test_log_periodic_rejects_a_profile_that_can_vanish():
    with pytest.raises(ValueError, match=re.escape("((0.6, 1.0, 0.0), (-0.4, 2.0, 0.5))")):
        LogPeriodic(0.5, 1, [(0.6, 1.0, 0.0), (-0.4, 2.0, 0.5)])


@pytest.mark.parametrize("s", [0.1, 0.25, 0.75, 0.9])
@pytest.mark.parametrize("q", [0.3, 1.0, 3.0, 100.0])
def test_ring_symbol_matches_per_ring_reference(s, q):
    # psi = 2 sum_k m_k / N_k int_a^b (1 - cos qr) r^{-1-2s} dr over ring k = [a, b], with
    # N_k = 2 int_a^b r^{-1-2s} dr, and int_a^b cos(qr) r^{-1-2s} dr = Re q^{2s} e^{-i pi s} Gamma(-2s, -iqa, -iqb)
    mpmath = pytest.importorskip("mpmath")
    K = kernel_bank(s, 1)["ring"]
    with mpmath.workdps(30):
        z, qm = -2 * mpmath.mpf(s), mpmath.mpf(q)
        total = 0
        for k, m in K.masses.items():
            a, b = mpmath.ldexp(1, k - 1), mpmath.ldexp(1, k)
            flat = (b**z - a**z) / z
            osc = mpmath.re(qm**-z * mpmath.expjpi(-s) * mpmath.gammainc(z, -1j * qm * a, -1j * qm * b))
            total += m * (1 - osc / flat)
        ref = float(total)
    assert symbol(K, [q]) == pytest.approx(ref, rel=1e-13)


def test_ring_symbol_high_frequency_1d():
    # R |xi| = 16,000: linear in R |xi|, as in every d for a radial kernel
    K = kernel_bank(0.5, 1)["ring"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(symbol(K, [1000.0]))


def test_coercivity_scales_with_amplitude():
    phi = lambda v: v[:, 0]
    base = coercivity_ratio(StableLike(0.5, 1), phi, 1.0)
    doubled = coercivity_ratio(StableLike(0.5, 1, amplitude=2.0), phi, 1.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)


def test_ring_measure_prescribes_masses():
    masses = {0: 0.7, 1: 1.3, 2: 0.0}
    K = RingMeasure(0.5, 1, masses)
    rm = ring_moments(K, [0, 1, 2, 3])
    assert rm[0][0] == pytest.approx(0.7, rel=1e-9)
    assert rm[1][0] == pytest.approx(1.3, rel=1e-9)
    assert rm[2][0] == 0.0
    assert rm[3][0] == 0.0


def test_weak_star_gap_decreases_monotonically():
    base = StableLike(0.5, 1)
    tfs = gaussian_ring_bumps()
    gaps = [weak_star_gap(oscillatory_kernel(j), base, tfs, n_r=256) for j in (1, 4, 16, 64)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_oscillatory_limit_keeps_moment_bound():
    K = oscillatory_kernel(64)
    Lam = upper_bound_constant(K, RADII)
    for k, (_, mom) in ring_moments(K, range(-2, 3)).items():
        assert mom <= Lam * (2.0**k) ** (2 - 1.0) * (1 + 1e-9)


def test_holder_modulus_modulated_family():
    base = StableLike(0.5, 1)
    fam = KernelFamily(base, modulation=lambda z: 1.0 + 0.3 * math.sin(z.t + z.x[0]))
    pairs = [
        (Point(0.0, [0.0], [0.0]), Point(0.2, [0.1], [0.05])),
        (Point(0.1, [0.3], [0.0]), Point(0.15, [0.32], [0.1])),
    ]
    rep = holder_modulus(fam, pairs, radii=(0.5, 1.0, 2.0), alpha=0.5)
    assert rep["A0"] > 0
    assert math.isfinite(rep["low_moment_constant"])
    assert math.isfinite(rep["tail_mass_constant"])


def test_kernel_at_modulates_any_other_base_as_a_custom_density():
    # a base of none of the closed-form classes becomes a(z) times its density, on its support
    base = CustomDensity(0.5, 2, lambda w: np.exp(-np.sum(w**2, axis=1)), support_radius=2.5)
    K = KernelFamily(base, modulation=lambda z: 1.0 + 0.3 * z.t).kernel_at(Point(0.5, [0.0, 0.1], [0.2, 0.0]))
    w = np.array([[0.1, 0.2], [-1.0, 0.5], [2.0, -0.3]])
    assert isinstance(K, CustomDensity) and K.support_radius == 2.5
    np.testing.assert_array_equal(K.density(w), 1.15 * base.density(w))


def test_holder_modulus_tail_clipped_at_support():
    # K_z = a(z) |w|^{-2} on |w| <= 3 in d = 1, s = 1/2: the tail mass of the
    # difference over 1 < |w| < 3 is 4/3 |a1 - a2|, and A0 d_l^alpha = 2 |a1 - a2|.
    fam = KernelFamily(TruncatedStable(0.5, 1, cutoff=3.0), modulation=lambda z: 1.0 + 0.3 * z.t)
    pairs = [(Point(0.0, [0.0], [0.0]), Point(0.5, [0.1], [0.2]))]
    rep = holder_modulus(fam, pairs, radii=(0.5, 1.0, 2.0), alpha=0.5)
    assert rep["tail_mass_constant"] == pytest.approx(2.0 / 3.0, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.1, 10.0))
def test_profiled_constants_match_closed_form(s, r):
    # (1 + cos(beta ln|w|) / 2) |w|^{-1-2s}, beta = 2 pi / ln 2: the second moment on
    # B_r is 2 [r^p / p + Re(r^{p + i beta} / (p + i beta)) / 2], p = 2 - 2s; a core cut
    # fixed at r 2^-40 would drop a share 2^{-40 p} of it, 6.25 % at s = 0.95
    K = kernel_bank(s, 1)["profiled_a"]
    p, beta = 2.0 - 2.0 * s, 2.0 * math.pi / math.log(2.0)
    z = complex(p, beta)
    exact = 2.0 * (r**p / p + 0.5 * (r**z / z).real) * r ** (2.0 * s - 2.0)
    assert upper_bound_constant(K, [r]) == pytest.approx(exact, rel=1e-10)
    assert nondegeneracy_constant(K, [r], [[1.0]]) == pytest.approx(0.5 * exact, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_holder_modulus_low_moment_closed_form(alpha):
    # K_z = a(z) |w|^{-2}, s = 1/2: int_{B_1} |w|^{2s + alpha} |K_z1 - K_z2| = |da| |S| / alpha,
    # of order alpha at 0, and r^{2s-2} int_{B_r} |w|^2 |K_z1 - K_z2| = |da| |S| / (2 - 2s)
    fam = KernelFamily(StableLike(0.5, 1), modulation=lambda z: 1.0 + 0.3 * z.t)
    z1, z2 = Point(0.0, [0.0], [0.0]), Point(0.5, [0.1], [0.2])
    rep = holder_modulus(fam, [(z1, z2)], radii=(0.5, 1.0, 2.0), alpha=alpha)
    scale = rep["A0"] * dist("left", z1, z2, 0.5) ** alpha
    assert scale == pytest.approx(0.15 * 2.0 / 1.0, rel=1e-10)
    assert rep["low_moment_constant"] * scale == pytest.approx(0.15 * 2.0 / alpha, rel=1e-10)


@pytest.mark.parametrize("s,alpha", [(0.6, 0.1), (0.75, 0.25)])
def test_holder_modulus_low_moment_above_family_order(s, alpha):
    # the same family at s > s_F = 1/2: the low moment |da| |S| / (2s + alpha - 2s_F) is of
    # order 2s + alpha - 2s_F at 0, and A0 is attained at the largest radius, r = 2
    fam = KernelFamily(StableLike(0.5, 1), modulation=lambda z: 1.0 + 0.3 * z.t)
    z1, z2 = Point(0.0, [0.0], [0.0]), Point(0.5, [0.1], [0.2])
    rep = holder_modulus(fam, [(z1, z2)], radii=(0.5, 1.0, 2.0), alpha=alpha, s=s)
    scale = rep["A0"] * dist("left", z1, z2, s) ** alpha
    assert scale == pytest.approx(0.15 * 2.0 * 2.0 ** (2 * s - 1.0), rel=1e-10)
    assert rep["low_moment_constant"] * scale == pytest.approx(0.15 * 2.0 / (2 * s + alpha - 1.0), rel=1e-10)


@pytest.mark.parametrize("s,alpha", [(0.3, 0.1), (0.25, 0.5)])
def test_holder_modulus_divergent_low_moment_raises(s, alpha):
    # 2s + alpha <= 2s_F: int_{B_1} |w|^{2s + alpha} |w|^{-1 - 2s_F} diverges at 0
    fam = KernelFamily(StableLike(0.5, 1), modulation=lambda z: 1.0 + 0.3 * z.t)
    pairs = [(Point(0.0, [0.0], [0.0]), Point(0.5, [0.1], [0.2]))]
    with pytest.raises(ValueError, match=f"s={s}, alpha={alpha}, s_F=0.5"):
        holder_modulus(fam, pairs, radii=(1.0,), alpha=alpha, s=s)


def test_symbol_does_not_depend_on_call_order():
    # Each order runs in a fresh interpreter: an earlier call at another frequency
    # must not change a later result, for a new kernel (d = 2) or the same
    # kernel object (d = 1).
    code = (
        "import sys\n"
        "from kinlab.kernels import StableLike, symbol\n"
        "K1, K2 = StableLike(0.5, 1), StableLike(0.5, 2)\n"
        "if sys.argv[1] == 'after':\n"
        "    symbol(K1, [2.0])\n"
        "    symbol(K2, [0.6, 0.8])\n"
        "print(repr(symbol(K1, [0.7])), repr(symbol(StableLike(0.5, 2), [0.3, 0.4])))\n"
    )
    src = str(Path(kinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = [
        subprocess.run([sys.executable, "-c", code, order], env=env, capture_output=True,
                       text=True, check=True, timeout=120).stdout
        for order in ("fresh", "after")
    ]
    assert out[0] == out[1]


def test_weak_star_gap_rejects_direction_counts_without_antipodes():
    tf = [TestFunction(lambda w: np.ones(len(w)), 1.0, 2.0)]
    K1, K2 = StableLike(0.5, 2), StableLike(0.5, 2, amplitude=2.0)
    with pytest.raises(ValueError, match="got 7"):
        weak_star_gap(K1, K2, tf, n_ang=7)
    assert weak_star_gap(K1, K2, tf, n_ang=8) == pytest.approx(2 * math.pi * 0.5, rel=1e-12)


def _densities_by_linalg_norm(K, w):
    """Each kernel class's density written with np.linalg.norm(w, axis=-1)."""
    r = np.linalg.norm(w, axis=-1)
    p = -K.d - K.s.two_s
    if isinstance(K, StableLike):
        return K.amplitude * r**p * K._angular(w / r[..., None])
    if isinstance(K, TruncatedStable):
        return np.where(r <= K.cutoff, K.amplitude * r**p, 0.0)
    if isinstance(K, RingMeasure):
        out = np.zeros_like(r)
        with np.errstate(divide="ignore"):
            k_of = np.ceil(np.log2(np.where(r > 0, r, 1.0))).astype(int)
        for k, m in K.masses.items():
            sel = (k_of == k) & (r > 0)
            out[sel] = m * r[sel] ** p / kinlab.kernels._ring_profile_norm(K.s, K.d, k)
        return out
    r = np.maximum(r, 1e-300)
    profile = 1.0 + sum(a * np.cos(beta * np.log(r) + phi) for a, beta, phi in K.terms)
    return profile * r**p


@pytest.mark.parametrize("d", [1, 2, 3])
def test_densities_are_bit_for_bit_their_linalg_norm_form(d):
    rng = np.random.default_rng(10 + d)
    w = rng.standard_normal((5000, d)) * 10.0 ** rng.uniform(-30, 30, (5000, 1))
    w[0] = 0.0
    for K in (StableLike(0.3, d, angular=lambda th: 1.0 + th[:, 0] ** 2),
              TruncatedStable(0.6, d, cutoff=2.5, amplitude=1.5),
              RingMeasure(0.4, d, {k: 1.0 + 0.01 * k for k in range(-40, 30)}),
              LogPeriodic(0.7, d, [(0.5, 9.06, 0.0), (0.2, 3.0, 1.0)])):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(K.density(w), _densities_by_linalg_norm(K, w))


def test_test_function_support_validation():
    with pytest.raises(ValueError):
        TestFunction(lambda w: np.ones(len(np.atleast_2d(w))), 0.0, 1.0)


def test_ellipticity_report_keys():
    rep = ellipticity_report(TruncatedStable(0.5, 1))
    assert set(rep) == {"Lambda", "lambda_nondeg", "coercivity", "ring_moments"}
    assert rep["Lambda"] > 0


@pytest.mark.parametrize("make, bad", [
    (lambda: TruncatedStable(0.5, 1, amplitude=-1.0), "amplitude must be finite and nonnegative, got -1.0"),
    (lambda: TruncatedStable(0.5, 1, cutoff=math.nan), "cutoff must be finite and positive, got nan"),
    (lambda: TruncatedStable(0.5, 1, cutoff=math.inf), "cutoff must be finite and positive, got inf"),
    (lambda: StableLike(0.5, 1, amplitude=math.nan), "amplitude must be finite and nonnegative, got nan"),
    (lambda: RingMeasure(0.5, 1, {0: math.nan, 1: 1.0}), "got {0: nan, 1: 1.0}"),
    (lambda: RingMeasure(0.5, 1, {0: 1.0, 1: math.inf}), "got {0: 1.0, 1: inf}"),
    (lambda: LogPeriodic(0.5, 1, [(math.nan, 1.0, 0.0)]), "got ((nan, 1.0, 0.0),)"),
    (lambda: LogPeriodic(0.5, 1, [(0.2, math.nan, 0.0)]), "got ((0.2, nan, 0.0),)"),
    (lambda: LogPeriodic(0.5, 1, [(0.2, 1.0, 0.0), (0.2, 1.0, math.inf)]),
     "got ((0.2, 1.0, 0.0), (0.2, 1.0, inf))"),
    (lambda: CustomDensity(0.5, 1, lambda w: np.ones(len(w)), support_radius=math.nan),
     "support_radius must be nonnegative, got nan"),
    (lambda: CustomDensity(0.5, 1, lambda w: np.ones(len(w)), support_radius=-1.0),
     "support_radius must be nonnegative, got -1.0"),
], ids=["negative-truncated-amplitude", "nan-cutoff", "inf-cutoff", "nan-amplitude",
        "nan-ring-mass", "inf-ring-mass", "nan-a", "nan-beta", "inf-phi", "nan-support", "negative-support"])
def test_kernels_reject_bad_parameters(make, bad):
    with pytest.raises(ValueError, match=f"{re.escape(bad)}$"):
        make()


@pytest.mark.parametrize("K, xi, bad", [
    (StableLike(0.5, 1), [math.nan], "[nan]"),
    (TruncatedStable(0.5, 1), [math.nan], "[nan]"),
    (TruncatedStable(0.5, 1), [math.inf], "[inf]"),
    (TruncatedStable(0.5, 2), [1.0, -math.inf], "[1.0, -inf]"),
    (LogPeriodic(0.5, 1, [(0.2, 1.0, 0.0)]), [math.nan], "[nan]"),
], ids=["nan-stable", "nan-truncated", "inf-truncated", "inf-truncated-2d", "nan-log-periodic"])
def test_symbol_rejects_non_finite_frequencies(K, xi, bad):
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        symbol(K, xi)


@pytest.mark.parametrize("amp", [math.nan, math.inf, -0.5])
def test_family_rejects_a_bad_modulation_by_value(amp):
    # the value itself is named, before any density is built from it
    fam = KernelFamily(StableLike(0.5, 1), modulation=lambda z: amp)
    with pytest.raises(ValueError, match=f"modulation must be finite and nonnegative, got {amp}$"):
        fam.kernel_at(Point.zero(1))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("base", [StableLike(0.5, 1), StableLike(0.3, 1, amplitude=1.7),
                                  StableLike(0.7, 1, angular=lambda th: 1 + th[:, 0] ** 2),
                                  TruncatedStable(0.5, 1, cutoff=2.0),
                                  TruncatedStable(0.25, 1, cutoff=0.5, amplitude=0.6)],
                         ids=["stable", "stable-amplitude", "stable-angular", "truncated",
                              "truncated-amplitude"])
def test_family_members_keep_their_base_class(base, d):
    # a stable or truncated member is a(z) times its base, of the base's own class: its symbol
    # keeps the closed forms and the radial flag, within 2 ulp of a(z) times the base's
    if d > 1:
        base = (StableLike(base.s, d, base.angular, base.amplitude) if isinstance(base, StableLike)
                else TruncatedStable(base.s, d, base.cutoff, base.amplitude))
    xi = np.array([0.7, -1.3])[:d]
    for a in (2.0, 0.37, 5.5):
        fam = KernelFamily(base, lambda z, a=a: a)
        K = fam.kernel_at(Point.zero(d))
        assert type(K) is type(base) and K.radial == base.radial
        assert K.amplitude == a * base.amplitude
        assert getattr(K, "angular", None) is getattr(base, "angular", None)
        assert K.support_radius == base.support_radius
        want = a * symbol(base, xi)
        assert abs(symbol(K, xi) - want) <= 2 * np.spacing(want)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", ["stable", "profiled_a", "profiled_b", "truncated", "ring"])
def test_family_members_of_every_bank_kernel_scale_its_symbol(name, d):
    # a log-periodic member keeps its closed form and a ring member its radial path, up to
    # |xi| = 300 in d = 2, where a member without it refused the frequency
    base = kernel_bank(0.5, d)[name]
    for a in (2.0, 0.37):
        K = KernelFamily(base, lambda z, a=a: a).kernel_at(Point.zero(d))
        assert type(K) is type(base) and K.radial == base.radial
        for q in (0.7, 3.0, 300.0):
            xi = q * np.array([0.6, 0.8])[-d:]
            want = a * symbol(base, xi)
            assert symbol(K, xi) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("name", ["stable", "profiled_a", "profiled_b", "truncated", "ring"])
def test_a_built_kernel_refuses_attribute_assignment(name):
    # a kernel's derived fields (support_radius, masses, terms) are validated and set by its
    # constructor: an assignment after it would leave them inconsistent, so it raises
    K = kernel_bank(0.5)[name]
    for attr, value in [("s", 0.25), ("d", 2), ("amplitude", 2.0), ("support_radius", 3.0)]:
        before = getattr(K, attr, None)
        with pytest.raises(AttributeError, match=f"'{attr}'"):
            setattr(K, attr, value)
        assert getattr(K, attr, None) == before


def test_solve_reads_each_kernel_symbol_once_and_exactly(monkeypatch):
    # K takes amplitude 1 and stays so; each solve reads its own kernel's symbol once, a second
    # solve on K as the first, and a new kernel of amplitude 2 its own: each mode decays by
    # exp(-psi(2) t) of its kernel
    from kinlab import spectral

    calls = []
    monkeypatch.setattr(spectral, "symbol", lambda K, xi: calls.append(K) or symbol(K, xi))
    f0 = SpectralField({(0, 2): 0.3})
    K, K2 = TruncatedStable(0.5, 1), TruncatedStable(0.5, 1, amplitude=2.0)
    first = solve(f0, K, None, 1.0).modes[(0, 2)]
    with pytest.raises(AttributeError, match="'amplitude'"):
        K.amplitude = 2.0
    assert solve(f0, K, None, 1.0).modes[(0, 2)] == first
    for ker, got in [(K, first), (K2, solve(f0, K2, None, 1.0).modes[(0, 2)])]:
        assert got.real == pytest.approx(0.3 * math.exp(-symbol(ker, [2.0])), rel=1e-12)
    assert calls == [K, K, K2]
