import math

import numpy as np
import pytest

from kinlab.fields import SampledField
from kinlab.group import Point
from kinlab.harness import (
    HarnessConfig,
    _even_v_moments,
    kernel_bank,
    liouville_residual,
    measure_holder_decay,
    operator_regularity_ratio,
    run_schauder_sweep,
)
from kinlab.kernels import RingMeasure, StableLike, TruncatedStable
from kinlab.polynomials import KineticPolynomial, MultiIndex

S = 0.5
XI = Point(-0.3, [0.2], [0.4])


def mono(jt, jx, jv, c=1.0, s=S):
    return KineticPolynomial({MultiIndex(jt, (jx,), (jv,)): c}, s, 1)


def test_config_derives_exponents():
    cfg = HarnessConfig(s=0.5)
    assert cfg.gamma == pytest.approx(0.8)
    assert cfg.alpha == pytest.approx(0.4)
    with pytest.raises(ValueError):
        HarnessConfig(s=0.5, gamma=1.5)
    with pytest.raises(ValueError):
        HarnessConfig(s=0.5, ladder=(6, 13))


def test_kernel_bank_has_five_in_class_entries():
    bank = kernel_bank(0.5)
    assert len(bank) == 5
    for K in bank.values():
        w = np.array([[0.5], [-0.5]])
        dens = K.density(w)
        assert np.all(dens >= 0)
        assert dens[0] == pytest.approx(dens[1])


@pytest.mark.parametrize(
    "poly",
    [mono(0, 0, 0), mono(0, 0, 1), mono(1, 0, 0), mono(0, 0, 2)],
    ids=["const", "v", "t", "v_squared"],
)
def test_liouville_admissible_polynomials(poly):
    K = TruncatedStable(S, 1, cutoff=1.0)
    assert liouville_residual(poly, K, XI) <= 1e-8


def test_liouville_nonsolution_has_residual():
    # t*v is below no threshold here; its increment feels the transport term
    K = TruncatedStable(S, 1, cutoff=1.0)
    p = KineticPolynomial({MultiIndex(1, (0,), (1,)): 1.0}, S, 1)
    assert liouville_residual(p, K, XI) > 1e-3


def test_liouville_divergent_moment_guard():
    with pytest.raises(ValueError):
        liouville_residual(mono(0, 0, 3), StableLike(S, 1), XI)


@pytest.mark.parametrize("masses", [{6: 1.0}, {3: 1.0, 6: 1.0}, {-2: 0.5, 0: 2.0, 5: 1.0}])
def test_even_moments_sum_every_ring_to_the_support(masses):
    # At s = 1/2 ring k of unit mass has second moment 2^{2k-1} exactly;
    # empty rings below a loaded one must not end the sum.
    M2 = _even_v_moments(RingMeasure(S, 1, masses), 2)[2]
    assert M2 == pytest.approx(sum(m * 2.0 ** (2 * k - 1) for k, m in masses.items()), rel=1e-12)


def test_liouville_future_increment_rejected():
    K = TruncatedStable(S, 1, cutoff=1.0)
    with pytest.raises(ValueError):
        liouville_residual(mono(0, 0, 1), K, Point(0.5, [0.0], [0.0]))


def test_decay_exponent_of_rough_profile(rng):
    n = 4001
    v = np.linspace(-0.8, 0.8, n)
    f = SampledField(np.zeros(n), np.zeros((n, 1)), v[:, None], np.abs(v) ** 0.5)
    # keep every ball strictly inside the sampled window, otherwise the
    # oscillation saturates and flattens the fitted slope
    out = measure_holder_decay(f, Point(0.0, [0.0], [0.0]), [0.05, 0.1, 0.2, 0.4], S)
    assert out["exponent"] == pytest.approx(0.5, abs=0.1)


def test_decay_degenerate_constant(rng):
    ts = rng.uniform(-1, 0, 500)
    f = SampledField(ts, rng.uniform(-1, 1, (500, 1)), rng.uniform(-1, 1, (500, 1)),
                     np.full(500, 2.0))
    out = measure_holder_decay(f, Point(0.0, [0.0], [0.0]), [0.3, 0.6], S)
    assert out["degenerate"]
    assert math.isnan(out["exponent"])


def test_decay_smooth_solution_is_regular(rng):
    ts = -rng.uniform(0, 0.6, 5000)
    xs = rng.uniform(-0.6, 0.6, (5000, 1))
    vs = rng.uniform(-0.8, 0.8, (5000, 1))
    vals = np.exp(-math.pi * ts) * np.cos(vs[:, 0])
    f = SampledField(ts, xs, vs, vals)
    out = measure_holder_decay(f, Point(0.0, [0.0], [0.3]), [0.15, 0.25, 0.4, 0.6], S)
    assert out["exponent"] >= 0.9


def test_operator_ratio_matches_symbol_identity():
    K = StableLike(S, 1)
    vg = np.linspace(-1.5, 1.5, 25)
    f = SampledField(np.zeros(25), np.zeros((25, 1)), vg[:, None], np.cos(vg))
    quad = operator_regularity_ratio(K, f, alpha=0.4,
                                     f_of_v=lambda w: np.cos(w[:, 0]))
    # exact identity: L cos = -psi(1) cos
    exact_lf = SampledField(f.ts, f.xs, f.vs, -math.pi * np.cos(vg))
    from kinlab.holder import seminorm
    base = [f.point(i) for i in range(0, 25, 2)]
    exact = (seminorm(exact_lf, base, 0.4, S).seminorm
             / seminorm(f, base, 1.0 + 0.4, S).seminorm)
    assert quad == pytest.approx(exact, rel=1e-3)


def test_operator_ratio_zero_kernel():
    K = StableLike(S, 1, amplitude=0.0)
    vg = np.linspace(-1.0, 1.0, 9)
    f = SampledField(np.zeros(9), np.zeros((9, 1)), vg[:, None], np.cos(vg))
    assert operator_regularity_ratio(K, f, alpha=0.4,
                                     f_of_v=lambda w: np.cos(w[:, 0])) == 0.0


def test_sweep_polynomial_solution_zero_numerator():
    # f = a t + b solves the equation with c = a; its interior seminorm at
    # order 2s + alpha vanishes because both monomials sit below the threshold
    from kinlab.group import left_distance_batch
    from kinlab.harness import _masked_seminorm

    rng = np.random.default_rng(1)
    ts = rng.uniform(0, 1, 800)
    xs = rng.uniform(-1, 1, (800, 1))
    vs = rng.uniform(-1, 1, (800, 1))
    f = SampledField(ts, xs, vs, 0.7 * ts + 0.2)
    center = Point(1.0, [0.0], [0.0])
    d_c = left_distance_batch(center, ts, xs, vs, S)
    base = np.flatnonzero(d_c < 0.5)[:20]
    num = _masked_seminorm(f, base, 2 * S + 0.4, S, d_c < 1.0, {})
    assert num < 1e-8


def test_sweep_single_kernel_smoke():
    cfg = HarnessConfig(s=0.5, kernels=("truncated",), ladder=(6, 12))
    rep = run_schauder_sweep(cfg)
    assert len(rep.records) == 2
    assert all(np.isfinite(r["ratio"]) and r["ratio"] >= 0 for r in rep.records)
    assert "kernel,s,grid" in rep.to_csv().splitlines()[0]


def test_sweep_report_drift_matches_flags():
    cfg = HarnessConfig(s=0.5, kernels=("stable", "truncated"), ladder=(3, 6))
    rep = run_schauder_sweep(cfg)
    assert rep.drift.keys() == rep.flags.keys()
    for name in cfg.kernels:
        key = f"{name}@s=0.5"
        r_coarse, r_fine = (r["ratio"] for r in rep.records if r["kernel"] == name)
        assert rep.drift[key] == abs(r_fine - r_coarse) / r_fine
        assert rep.flags[key] == (rep.drift[key] < 0.20)


def test_sweep_records_do_not_depend_on_kernel_order():
    names = ("stable", "profiled_a", "profiled_b", "truncated", "ring")
    together = run_schauder_sweep(HarnessConfig(s=0.5, kernels=names, ladder=(3, 6), seed=4))
    for name in names:
        alone = run_schauder_sweep(HarnessConfig(s=0.5, kernels=(name,), ladder=(3, 6), seed=4))
        assert alone.records == [r for r in together.records if r["kernel"] == name]
        assert alone.drift == {k: v for k, v in together.drift.items() if k.startswith(name + "@")}


def test_sweep_ratio_translation_invariant():
    # translating the whole dataset relabels coordinates and leaves every
    # seminorm unchanged, hence the ratio
    from kinlab.holder import seminorm

    rng = np.random.default_rng(3)
    ts = rng.uniform(-1, 0, 300)
    xs = rng.uniform(-1, 1, (300, 1))
    vs = rng.uniform(-1, 1, (300, 1))
    f = SampledField(ts, xs, vs, np.cos(2 * vs[:, 0]) + 0.5 * ts)
    z0 = Point(0.2, [0.3], [-0.1])
    g = f.translated(z0, S)
    base_f = [f.point(i) for i in range(0, 300, 40)]
    base_g = [g.point(i) for i in range(0, 300, 40)]
    a = seminorm(f, base_f, 0.8, S).seminorm
    b = seminorm(g, base_g, 0.8, S).seminorm
    assert b == pytest.approx(a, rel=1e-8)


def test_seminorm_distance_rows_come_in_blocks(monkeypatch):
    # the sweep's n = 12 grid at s = 1/2: 2,197 samples and 36 base points in Q_1/2 take
    # ceil(36 * 2197 / 2**15) = 3 distance batches, not one per base point
    from kinlab import group, holder
    from kinlab.harness import (_CLOSED_RTOL, _coarse_subset, _masked_seminorm, _sample_solution,
                                _sweep_problem)

    cfg = HarnessConfig(s=S)
    K = kernel_bank(S)["stable"]
    rng = np.random.default_rng(0)
    f0, src = _sweep_problem(K, rng)
    f = _sample_solution(K, f0, src, 12)
    d_c = group.left_distance_batch(Point(1.0, [0.0], [0.0]), f.ts, f.xs, f.vs, S)
    base = _coarse_subset(np.flatnonzero(d_c <= 0.5 * (1.0 + _CLOSED_RTOL)), 36, rng)
    assert (f.n, len(base)) == (2197, 36)
    pairs = []
    batch = group.pair_distance_batch
    counted = lambda *a, **kw: pairs.append(len(a[0])) or batch(*a, **kw)
    for mod in (group, holder):
        if getattr(mod, "pair_distance_batch", None) is batch:
            monkeypatch.setattr(mod, "pair_distance_batch", counted)
    _masked_seminorm(f, base, 2 * S + cfg.alpha, S, d_c <= 1.0 + _CLOSED_RTOL, {})
    assert len(pairs) == math.ceil(36 * 2197 / 2**15) == 3
    assert sum(pairs) == 36 * 2197 and max(pairs) <= 2**15
