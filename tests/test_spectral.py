import functools
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kinlab import spectral
from kinlab.harness import kernel_bank
from kinlab.kernels import CustomDensity, LogPeriodic, StableLike, TruncatedStable, _ring_profile_norm, symbol
from kinlab.spectral import (
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


def _off_lattice_cases():
    """(kernel, f0, t1, t2) for every kernel_bank(s) entry at s in {0.1, 0.5, 0.9}: random
    times in (0, 2] and random modes of x-index k = 0, 1, 2 at real v-indices."""
    rng = np.random.default_rng(1812)
    for s in (0.1, 0.5, 0.9):
        for K in kernel_bank(s).values():
            modes = {(k, round(float(rng.uniform(-2.0, 3.0)), 3)): complex(*rng.uniform(-0.5, 0.5, 2))
                     for k in (0, 1, 2)}
            t1, t2 = 2.0 - rng.uniform(0.0, 2.0, 2)
            yield K, SpectralField(modes), float(t1), float(t2)


def test_solve_is_a_semigroup_at_off_lattice_times():
    # the x-modes land at real v-indices at every t: two steps and one agree on a grid
    X, V = np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-3.0, 3.0, 13), indexing="ij")
    for K, f0, t1, t2 in _off_lattice_cases():
        once = solve(f0, K, None, t1 + t2).evaluate(X, V)
        two = solve(solve(f0, K, None, t1), K, None, t2).evaluate(X, V)
        assert np.max(np.abs(two - once)) <= 1e-13 * np.max(np.abs(once))


def test_residual_is_small_at_off_lattice_times():
    src = SourceSpec({(0, 1.5): (0.2 - 0.1j, 0.7), (0, 0.25): (0.1, 0.0)})
    for K, f0, t1, _ in _off_lattice_cases():
        fields = [solve(f0, K, src, t1 + 1e-3 * j) for j in range(5)]
        assert any(isinstance(m, float) for _, m in fields[2].modes)
        assert residual_check(fields, K, src, np.linspace(0, 6, 7), np.linspace(-3, 3, 7)) <= 1e-8


def test_integral_landings_keep_integer_indices():
    # t k P_v / P_x = 1.01 * 100 rounds to 101.00000000000001: the landing is the integer -1
    f = solve(SpectralField({(1, 100): 0.5}, periods=(2 * math.pi, 200 * math.pi)), K_HALF, None, 1.01)
    assert set(f.modes) == {(1, -1), (-1, 1)} and all(type(m) is int for _, m in f.modes)
    g = solve(SpectralField({(1, 1): 0.5}), K_HALF, None, 0.25)
    assert set(g.modes) == {(1, 0.75), (-1, -0.75)}
    line = spectral._psi_line_integral(K_HALF, 0.75, 1.0, 0.25, spectral._symbol_table(K_HALF))
    assert g.modes[(1, 0.75)] == 0.5 * math.exp(-line)


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
    f = SpectralField({(1, 2): 0.25}, periods=(2 * math.pi, 48 * math.pi), time=0.5)
    g = SpectralField.from_csv(f.to_csv())
    assert (g.modes, g.periods, g.time) == (f.modes, f.periods, f.time)


def test_csv_roundtrip_keeps_real_indices():
    f = solve(SpectralField({(1, 1): 0.25 - 0.1j, (0, 2): 0.5}), K_HALF, None, 0.3)
    g = SpectralField.from_csv(f.to_csv())
    assert (g.modes, g.time) == (f.modes, f.time)
    assert sorted(type(m).__name__ for _, m in g.modes) == ["float", "float", "int", "int"]


def test_hermitian_violation_rejected():
    with pytest.raises(ValueError):
        SpectralField({(1, 1): 1.0, (-1, -1): 0.5})


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_symbol_is_even_to_the_bit(s):
    for K in kernel_bank(s, 1).values():
        for q in (1 / 24, 1.0, 2.5):
            assert symbol(K, [-q]) == symbol(K, [q])


def test_psi_is_memoized_by_the_modulus(monkeypatch):
    # within one symbol table, the one a solve or a residual check reads
    calls = []
    monkeypatch.setattr(spectral, "symbol", lambda K, xi: calls.append(xi) or 1.0)
    psi = spectral._symbol_table(TruncatedStable(0.4, 1))
    assert psi(-0.75) == psi(0.75) == 1.0
    assert calls == [[0.75]]


@pytest.mark.parametrize("t, quad_tol, bad", [
    (math.nan, 1e-10, "t must be finite and nonnegative, got nan"),
    (math.inf, 1e-10, "t must be finite and nonnegative, got inf"),
    (1.0, -1.0, "quad_tol must be finite and positive, got -1.0"),
    (1.0, math.nan, "quad_tol must be finite and positive, got nan"),
], ids=["nan-t", "inf-t", "negative-quad-tol", "nan-quad-tol"])
def test_solve_rejects_bad_input(t, quad_tol, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
        solve(SpectralField({(0, 1): 0.5}), K_HALF, None, t, quad_tol=quad_tol)


@pytest.mark.parametrize("make, bad", [
    (lambda: SpectralField({(0, 1): 0.5}, periods=(math.nan, 1.0)), "got (nan, 1.0)"),
    (lambda: SpectralField({(0, 1): 0.5}, periods=(1.0, math.inf)), "got (1.0, inf)"),
    (lambda: SpectralField({(0, 1): 0.5}, time=math.nan), "time must be finite, got nan"),
    (lambda: SpectralField({(1, 2): complex(math.nan, 1.0)}), "mode (1, 2) must be finite, got (nan+1j)"),
    (lambda: SourceSpec({(0, 1): (math.nan, 0.0)}), "mode (0, 1) must be finite, got (nan+0j)"),
    (lambda: SourceSpec({(0, 1): (1.0, math.inf)}), "mode (0, 1) must be finite, got inf"),
    (lambda: SourceSpec({(0, 1): (1.0, 0.0), (0, -1): (5.0, 0.0)}),
     "at mode (0, 1): (0, -1) holds (5+0j), not the conjugate (1-0j)"),
    (lambda: SourceSpec({(0, 1): (1.0, 2.0), (0, -1): (1.0, 2.0)}),
     "at mode (0, 1): (0, -1) holds 2.0, not the conjugate -2.0"),
], ids=["nan-period", "inf-period", "nan-time", "nan-amplitude", "nan-source-amplitude", "inf-omega",
        "non-conjugate-source-amplitude", "non-conjugate-omega"])
def test_fields_and_sources_reject_bad_input(make, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        make()


# (xi, kappa, dt): u runs from xi to xi + dt kappa.  u0 = 0, intervals across 0, |u| < 0.5
# where phi(x) = x - sin x goes by its series, |u| up to about 10^3, and both signs of kappa.
# The large |u| are powers of 2, so the ring kernel's edges times |u| repeat across cases.
LINE_CASES = [(0.0, 1.0, 1.0), (0.0, -1.0, 1.0), (-2.0, 1.0, 3.0), (1.5, -1.0, 4.0),
              (0.1, 0.5, 0.6), (-0.3, 1.0, 0.25), (1.0, 2.0, 1.5), (0.0, 1.0, 1024.0),
              (-512.0, 1.0, 1536.0), (1024.0, -1.0, 512.0)]
LINE_S = [round(0.05 * j, 2) for j in range(1, 20)]


@functools.lru_cache(maxsize=None)
def _mp_phi_moment(two_s: float, X: float):
    """int_0^X phi(y) y^{-2-2s} dy = X^{2-2s} / (6 (2-2s)) 2F3(1, 1-s; 2, 5/2, 2-s; -X^2/4),
    phi(y) = y - sin y, in mpmath at 30 digits."""
    with mpmath.workdps(30):
        t, X = mpmath.mpf(two_s), mpmath.mpf(X)
        return X ** (2 - t) / (6 * (2 - t)) * mpmath.hyp2f3(1, 1 - t / 2, 2, 2.5, 2 - t / 2, -X**2 / 4)


def _mp_line_integral(K, u0, u1):
    """int_u0^u1 psi(u) du in mpmath at 30 digits.

    A kernel c |w|^{-1-2s} on a < |w| <= b (the truncated kernel, and each ring of the ring
    kernel) adds 2 c int_a^b [phi(u1 w) - phi(u0 w)] w^{-2-2s} dw, and
    int_a^b phi(u w) w^{-2-2s} dw = sgn(u) |u|^{1+2s} (_mp_phi_moment(|u| b) - _mp_phi_moment(|u| a)).
    LogPeriodic: psi = sum Re c C_1(z) |u|^z, integrated power by power.
    """
    two_s = K.s.two_s
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        if isinstance(K, LogPeriodic):
            t = mpmath.mpf(two_s)
            for c, z in [(1, t)] + [(a * mpmath.expj(phi), t - 1j * beta) for a, beta, phi in K.terms]:
                c1 = mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - z / 2) / (z / 2 * 2**z * mpmath.gamma((1 + z) / 2))
                anti = lambda u: mpmath.sign(u) * abs(mpmath.mpf(u)) ** (1 + z) / (1 + z)
                total += mpmath.re(c * c1 * (anti(u1) - anti(u0)))
            return total
        if isinstance(K, TruncatedStable):
            pieces = [(0.0, K.cutoff, K.amplitude)]
        else:
            pieces = [(2.0 ** (k - 1), 2.0**k, mpmath.mpf(m) / _ring_profile_norm(K.s, 1, k))
                      for k, m in K.masses.items()]
        for a, b, c in pieces:
            for u, sign in ((u1, 1), (u0, -1)):
                if u != 0.0:
                    q = abs(u)
                    total += (2 * c * sign * mpmath.sign(u) * mpmath.mpf(q) ** (1 + two_s)
                              * (_mp_phi_moment(two_s, q * b) - _mp_phi_moment(two_s, q * a)))
        return total


def _quad_line_integral(K, xi, kappa, dt, quad_tol=1e-10):
    """The solver's former line integral: scipy's adaptive quad of the symbol over u."""
    u0, u1 = xi, xi + dt * kappa
    lo, hi = min(u0, u1), max(u0, u1)
    val, _ = integrate.quad(lambda u: symbol(K, [abs(u)]), lo, hi,
                            points=[0.0] if lo < 0.0 < hi else None, epsabs=quad_tol, limit=200)
    return val / abs(kappa)


@pytest.mark.parametrize("kind", ["truncated", "ring", "profiled_a", "profiled_b"])
def test_line_integral_matches_mpmath(kind):
    worst = 0.0
    for s in LINE_S:
        K = kernel_bank(s, 1)[kind]
        for xi, kappa, dt in LINE_CASES:
            ref = _mp_line_integral(K, xi, xi + dt * kappa) / kappa
            got = spectral._psi_line_integral(K, xi, kappa, dt, spectral._symbol_table(K))
            worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-13


@pytest.mark.parametrize("kind", ["truncated", "ring", "profiled_a", "profiled_b"])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_line_integral_matches_the_former_quad(kind, s):
    K = kernel_bank(s, 1)[kind]
    for xi, kappa, dt in [(0.0, 1.0, 1.0), (-2.0, 1.0, 3.0), (1.0, -1.0, 2.5)]:
        got = spectral._psi_line_integral(K, xi, kappa, dt, spectral._symbol_table(K))
        assert got == pytest.approx(_quad_line_integral(K, xi, kappa, dt), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_line_integral_of_the_conjugate_mode_is_the_same_to_the_bit(s):
    # solve takes one line integral per Hermitian pair and gives it to both modes
    for K in kernel_bank(s, 1).values():
        psi = spectral._symbol_table(K)
        for xi, kappa, dt in LINE_CASES[:5]:
            line = lambda xi, kappa: spectral._psi_line_integral(K, xi, kappa, dt, psi)
            assert line(-xi, -kappa) == line(xi, kappa)


def test_solve_takes_one_line_integral_per_hermitian_pair(monkeypatch):
    # the benchmark's solve request on a truncated kernel: modes (1, 1) and (0, 2) and their
    # conjugates, solved to t = 1 twice and to t = 2 once, take 6 line integrals, not 12
    K = TruncatedStable(0.5, 1, cutoff=1.0)
    calls = []
    line = spectral._psi_line_integral
    monkeypatch.setattr(spectral, "_psi_line_integral", lambda *a: calls.append(a) or line(*a))
    f0 = SpectralField({(1, 1): 0.3 + 0.1j, (0, 2): -0.2j})
    for f in (solve(solve(f0, K, None, 1.0), K, None, 1.0), solve(f0, K, None, 2.0)):
        assert len(f) == 4 and all(f.modes[-k, -m] == a.conjugate() for (k, m), a in f.modes.items())
    assert len(calls) == 6


def test_solve_keeps_no_kernel_alive():
    import gc
    import weakref

    K = TruncatedStable(0.5, 1)
    ref = weakref.ref(K)
    solve(SpectralField({(1, 1): 0.3, (0, 2): 0.2}), K, SourceSpec({(0, 1): (0.1, 0.0)}), 1.0)
    del K
    gc.collect()
    assert ref() is None


def test_solve_rejects_a_kernel_in_d_2():
    with pytest.raises(ValueError, match=r"^solve needs a kernel in d = 1, got d = 2$"):
        solve(SpectralField({(0, 1): 0.5}), StableLike(0.5, 2), None, 1.0)


def test_line_integral_of_a_kernel_symbol_does_not_take_raises_its_error():
    K = CustomDensity(0.5, 1, lambda w: np.abs(w[:, 0]) ** -2.0)
    with pytest.raises(NotImplementedError, match="symbol needs a homogeneous"):
        symbol(K, [1.0])
    with pytest.raises(NotImplementedError, match="symbol needs a homogeneous"):
        solve(SpectralField({(1, 1): 0.5}), K, None, 1.0)
