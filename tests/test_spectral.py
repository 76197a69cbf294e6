import math

import numpy as np
import pytest

from kinlab import spectral
from kinlab.harness import kernel_bank
from kinlab.kernels import StableLike, TruncatedStable, symbol
from kinlab.spectral import (
    OffLatticeError,
    SourceSpec,
    SpectralField,
    residual_check,
    solve,
)

K_HALF = StableLike(0.5, 1)


def test_zero_time_is_identity():
    f0 = SpectralField({(0, 1): 0.5, (1, 2): 0.1 + 0.2j})
    f1 = solve(f0, K_HALF, None, 0.0)
    assert f1.modes == f0.modes


def test_pure_velocity_mode_decay():
    f0 = SpectralField({(0, 1): 0.5})
    f1 = solve(f0, K_HALF, None, 1.0)
    assert abs(f1.modes[(0, 1)] - 0.5 * math.exp(-math.pi)) < 1e-12


def test_phase_mixing_oracle():
    # cos(x + v) at t=1 lands on cos(x) damped by exp(-pi/2)
    f0 = SpectralField({(1, 1): 0.5})
    f1 = solve(f0, K_HALF, None, 1.0)
    assert abs(f1.modes[(1, 0)] - 0.5 * math.exp(-math.pi / 2)) < 1e-12
    assert set(f1.modes) == {(1, 0), (-1, 0)}


def test_semigroup_property():
    f0 = SpectralField({(1, 1): 0.5, (0, 2): 0.3})
    ab = solve(solve(f0, K_HALF, None, 1.0), K_HALF, None, 1.0)
    once = solve(f0, K_HALF, None, 2.0)
    for key in set(ab.modes) | set(once.modes):
        assert abs(ab.modes.get(key, 0) - once.modes.get(key, 0)) < 2e-10


def test_off_lattice_raises_and_interpolation_recovers():
    f0 = SpectralField({(1, 1): 0.5})
    with pytest.raises(OffLatticeError):
        solve(f0, K_HALF, None, 0.5)
    # two interpolated half steps approximate one exact step
    half = solve(f0, K_HALF, None, 0.5, interpolate=True)
    two = solve(half, K_HALF, None, 0.5, interpolate=True)
    ref = solve(f0, K_HALF, None, 1.0)
    err = max(abs(two.modes.get(k, 0) - ref.modes.get(k, 0))
              for k in set(two.modes) | set(ref.modes))
    assert err < 0.05


def test_galilean_covariance_modewise():
    # shifting the initial data in v multiplies modes by a phase that the
    # evolution carries along unchanged
    v0 = 0.37
    periods = (2 * math.pi, 2 * math.pi)
    raw = {(0, 1): 0.5, (0, 2): 0.2}
    shifted = {(k, m): a * np.exp(1j * m * v0) for (k, m), a in raw.items()}
    f_plain = solve(SpectralField(raw, periods), K_HALF, None, 0.7)
    f_shift = solve(SpectralField(shifted, periods), K_HALF, None, 0.7)
    for (k, m), a in f_plain.modes.items():
        assert f_shift.modes[(k, m)] == pytest.approx(a * np.exp(1j * m * v0), abs=1e-12)


def test_decay_monotone_without_source():
    cur = SpectralField({(1, 1): 0.5, (0, 3): 0.2})
    for _ in range(3):
        nxt = solve(cur, K_HALF, None, 1.0)
        total_prev = sum(abs(v) for v in cur.modes.values())
        total_next = sum(abs(v) for v in nxt.modes.values())
        assert total_next <= total_prev + 1e-12
        cur = nxt


def test_min_preserved_for_nonnegative_data():
    # 1 + cos(v) stays nonnegative under pure decay
    f0 = SpectralField({(0, 0): 1.0, (0, 1): 0.5})
    f1 = solve(f0, K_HALF, None, 0.8)
    v = np.linspace(-math.pi, math.pi, 201)
    vals = f1.evaluate(np.zeros_like(v), v)
    assert vals.min() >= -1e-12


def test_duhamel_constant_source_steady_state():
    amp = 0.5
    src = SourceSpec({(0, 1): (amp, 0.0)})
    f = solve(SpectralField({}), K_HALF, src, 50.0)
    assert abs(f.modes[(0, 1)] - amp / math.pi) < 1e-12


def test_source_with_x_dependence_rejected():
    with pytest.raises(ValueError):
        SourceSpec({(1, 0): (1.0, 0.0)})


def test_residual_fourth_order_in_time():
    periods = (2 * math.pi, 200 * math.pi)
    f0 = SpectralField({(1, 100): 0.5}, periods=periods)
    xg = np.linspace(0, 6, 7)
    vg = np.linspace(-3, 3, 7)
    resids = []
    for h in (0.02, 0.01):
        fields = [solve(f0, K_HALF, None, 1.0 + j * h) for j in range(5)]
        resids.append(residual_check(fields, K_HALF, None, xg, vg))
    assert resids[1] < resids[0] / 12.0
    assert resids[1] < 1e-4


def test_residual_flags_non_solution():
    periods = (2 * math.pi, 200 * math.pi)
    f0 = SpectralField({(1, 100): 0.5}, periods=periods)
    h = 0.02
    fields = [solve(f0, K_HALF, None, 1.0 + j * h) for j in range(5)]
    good = residual_check(fields, K_HALF, None, np.linspace(0, 6, 7), np.linspace(-3, 3, 7))
    # freeze the field in time: transport and decay no longer balance
    frozen = [SpectralField(fields[2].modes, periods, time=f.time) for f in fields]
    bad = residual_check(frozen, K_HALF, None, np.linspace(0, 6, 7), np.linspace(-3, 3, 7))
    assert bad > 10 * good


def test_residual_with_truncated_kernel_quadrature():
    f0 = SpectralField({(0, 1): 0.4, (0, 2): 0.1})
    Kt = TruncatedStable(0.5, 1, cutoff=1.0)
    h = 0.01
    fields = [solve(f0, Kt, None, 0.5 + j * h) for j in range(5)]
    r = residual_check(fields, Kt, None, np.linspace(0, 6, 5), np.linspace(-3, 3, 9))
    assert r < 1e-5


def test_sample_to_grid_and_parseval(rng):
    modes = {(0, 1): complex(rng.normal(), rng.normal()),
             (1, 2): complex(rng.normal(), rng.normal())}
    f = SpectralField(modes)
    n = 64
    xg = np.arange(n) * 2 * math.pi / n
    vg = np.arange(n) * 2 * math.pi / n
    vals = f.evaluate(*np.meshgrid(xg, vg, indexing="ij"))
    assert vals.shape == (n, n)
    grid_mean_sq = float(np.mean(vals**2))
    assert grid_mean_sq == pytest.approx(f.l2_norm_sq(), rel=1e-10)


def test_csv_roundtrip():
    f = SpectralField({(1, 2): 0.25 - 0.1j})
    g = SpectralField.from_csv(f.to_csv())
    assert g.modes == f.modes


def test_hermitian_violation_rejected():
    with pytest.raises(ValueError):
        SpectralField({(1, 1): 1.0, (-1, -1): 0.5})


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_symbol_is_even_to_the_bit(s):
    for K in kernel_bank(s, 1).values():
        for q in (1 / 24, 1.0, 2.5):
            assert symbol(K, [-q]) == symbol(K, [q])


def test_psi_is_memoized_by_the_modulus(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "symbol", lambda K, xi: calls.append(xi) or 1.0)
    K = TruncatedStable(0.4, 1)
    assert spectral._psi(K, -0.75) == spectral._psi(K, 0.75) == 1.0
    assert calls == [[0.75]]
