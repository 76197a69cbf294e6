import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kinlab
from conftest import gaussian_ring_bumps, oscillatory_kernel
from kinlab.group import Point
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
