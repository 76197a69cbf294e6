import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("s", [0.05, 0.1, 0.5, 0.9, 0.95])
@pytest.mark.parametrize("d", [1, 2])
def test_stable_symbol_closed_form(s, d):
    # int (1 - cos xi.w) |w|^{-d-2s} dw = |xi|^{2s} / C_{d,s} (Di Nezza, Palatucci,
    # Valdinoci, arXiv:1104.4345, section 3)
    c_ds = s * 4**s * math.gamma(d / 2 + s) / (math.pi ** (d / 2) * math.gamma(1 - s))
    xi = np.array([1.3, -0.4])[:d]
    exact = np.linalg.norm(xi) ** (2 * s) / c_ds
    assert symbol(StableLike(s, d), xi) == pytest.approx(exact, rel=1e-12)


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
                                 (2, 40.0), (3, 0.5), (3, 3.0), (3, 40.0)])
def test_symbol_truncated_matches_power_series(s, d, q):
    # at s = 0.9 in d = 3 the core below the float64 overflow radius leaves 2.4e-13
    xi = q * np.array({1: [1.0], 2: [0.6, 0.8], 3: [0.48, 0.64, 0.6]}[d])
    assert symbol(TruncatedStable(s, d, cutoff=1.0), xi) == pytest.approx(
        _truncated_series(s, d, q), rel=1e-12)


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
