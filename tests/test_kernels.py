import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gamma

import kinlab
from conftest import gaussian_ring_bumps, oscillatory_kernel
from kinlab.group import Point
from kinlab.harness import kernel_bank
from kinlab.kernels import (
    KernelFamily,
    RingMeasure,
    StableLike,
    TestFunction,
    TruncatedStable,
    coercivity_ratio,
    ellipticity_report,
    holder_modulus,
    nondegeneracy_constant,
    ring_moments,
    symbol,
    upper_bound_constant,
    weak_star_gap,
)

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
       e=arrays(float, 3, elements=st.floats(-5.0, 5.0)), theta1_sq=st.booleans())
def test_homogeneous_closed_forms(s, d, amp, xi, e, theta1_sq):
    # K = amp a(theta) |w|^{-d-2s} with a = 1 or theta_1^2, whose mean <a> over the
    # sphere is 1 or 1/d: Lambda = amp |S| <a> / (2 - 2s) at every radius, and
    # lambda(e) = amp |S| |e|^2 / (2d (2 - 2s)) or amp |S| (|e|^2 + 2 e_1^2) / (2d (d+2) (2 - 2s))
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


def _truncated_series(s, d, q):
    """psi(q) of TruncatedStable(s, d, cutoff=1), by its power series in mpmath.

    The k-th term is c_k (-1)^{k+1} q^{2k} / (2k - 2s) with c_k = 2/(2k)! (d = 1),
    2 pi/(4^k k!^2) (d = 2) or 4 pi/(2k+1)! (d = 3).  The terms peak near e^q, so
    0.44 q extra digits absorb the cancellation.
    """
    mpmath = pytest.importorskip("mpmath")
    ratio = {1: lambda k: (2 * k - 1) * 2 * k, 2: lambda k: 4 * k * k, 3: lambda k: 2 * k * (2 * k + 1)}[d]
    with mpmath.workdps(30 + int(0.44 * q)):
        term, total = -mpmath.mpf({1: 2, 2: 2 * mpmath.pi, 3: 4 * mpmath.pi}[d]), 0
        for k in range(1, int(1.5 * q) + 60):
            term *= -mpmath.mpf(q) ** 2 / ratio(k)
            total += term / (2 * k - 2 * mpmath.mpf(s))
        return float(total)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("d,q", [(1, 0.5), (1, 3.0), (1, 40.0), (1, 1000.0), (2, 0.5), (2, 3.0),
                                 (2, 40.0), (3, 0.5), (3, 3.0), (3, 40.0)]
                         + [(d, q) for d in (1, 2, 3) for q in (1e-8, 1e-6, 1e-3)])
def test_symbol_truncated_matches_power_series(s, d, q):
    # at s = 0.9 in d = 3 the core below the float64 overflow radius leaves 2.4e-13;
    # for |xi| R < 1 the core cut must follow R, not |xi|
    xi = q * np.array({1: [1.0], 2: [0.6, 0.8], 3: [0.48, 0.64, 0.6]}[d])
    assert symbol(TruncatedStable(s, d, cutoff=1.0), xi) == pytest.approx(
        _truncated_series(s, d, q), rel=1e-12, abs=0.0)


def _log_periodic_symbol(s, q):
    """psi(q) of the bank's profiled_a kernel r^{-1-2s} (1 + cos(beta ln r) / 2), beta = 2pi/ln 2.

    The kernel is r^{-1-2s} + Re r^{-1-z} / 2 with z = 2s - i beta, and for 0 < Re z < 2
    int_0^inf (1 - cos qr) r^{-1-z} dr = q^z M(z) with M(z) = pi / (2 Gamma(1+z) sin(pi z / 2)),
    the C(2s) identity of Di Nezza, Palatucci and Valdinoci (arXiv:1104.4345, section 3)
    continued to complex order.
    """
    M = lambda z: np.pi / (2.0 * gamma(1.0 + z) * np.sin(np.pi * z / 2.0))
    z = 2.0 * s - 2j * np.pi / np.log(2.0)
    return 2.0 * (q ** (2.0 * s) * M(2.0 * s) + 0.5 * (q**z * M(z)).real)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("q", [1e-3, 0.05, 0.3, 1.0, 3.0, 20.0])
def test_log_periodic_symbol_matches_closed_form(s, q):
    # at q = 1e-3 psi is as small as 2.4e-5 and QAWF's flat-minus-oscillation
    # difference cancels; the absolute accuracy of the solver's quad_tol keeps it
    # within 1e-9 relative there
    K = kernel_bank(s, 1)["profiled_a"]
    assert symbol(K, [q], tol=1e-10) == pytest.approx(_log_periodic_symbol(s, q),
                                                      rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", ["profiled_a", "profiled_b"])
@pytest.mark.parametrize("s", [0.02, 0.05, 0.95, 0.99])
def test_log_periodic_symbol_extreme_order_is_finite(s, name):
    # small s: the flat rings end at 2^511, below where |w|^2 overflows in the
    # density's norm; s near 1: the core cut stops where the profile's factor
    # (up to 1.5) times |w|^{-1-2s} still fits in a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = symbol(kernel_bank(s, 1)[name], [1.0])
    assert math.isfinite(val) and val > 0.0


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
    # R |xi| = 16,000: beyond the d >= 2 limit, linear in R |xi| in d = 1
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


def test_holder_modulus_tail_clipped_at_support():
    # K_z = a(z) |w|^{-2} on |w| <= 3 in d = 1, s = 1/2: the tail mass of the
    # difference over 1 < |w| < 3 is 4/3 |a1 - a2|, and A0 d_l^alpha = 2 |a1 - a2|.
    fam = KernelFamily(TruncatedStable(0.5, 1, cutoff=3.0), modulation=lambda z: 1.0 + 0.3 * z.t)
    pairs = [(Point(0.0, [0.0], [0.0]), Point(0.5, [0.1], [0.2]))]
    rep = holder_modulus(fam, pairs, radii=(0.5, 1.0, 2.0), alpha=0.5)
    assert rep["tail_mass_constant"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_symbol_does_not_depend_on_call_order():
    # Each order runs in a fresh interpreter: an earlier call at another tol
    # must not change a later result, for a new kernel (d = 2) or the same
    # kernel object (d = 1).
    code = (
        "import sys\n"
        "from kinlab.kernels import StableLike, symbol\n"
        "K1, K2 = StableLike(0.5, 1), StableLike(0.5, 2)\n"
        "if sys.argv[1] == 'after':\n"
        "    symbol(K1, [2.0], tol=1e-10)\n"
        "    symbol(K2, [0.6, 0.8], tol=1e-10)\n"
        "print(repr(symbol(K1, [0.7], tol=1e-8)), repr(symbol(StableLike(0.5, 2), [0.3, 0.4], tol=1e-8)))\n"
    )
    src = str(Path(kinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = [
        subprocess.run([sys.executable, "-c", code, order], env=env, capture_output=True,
                       text=True, check=True, timeout=120).stdout
        for order in ("fresh", "after")
    ]
    assert out[0] == out[1]


def test_test_function_support_validation():
    with pytest.raises(ValueError):
        TestFunction(lambda w: np.ones(len(np.atleast_2d(w))), 0.0, 1.0)


def test_ellipticity_report_keys():
    rep = ellipticity_report(TruncatedStable(0.5, 1))
    assert set(rep) == {"Lambda", "lambda_nondeg", "coercivity", "ring_moments"}
    assert rep["Lambda"] > 0
