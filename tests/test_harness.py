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


@pytest.mark.parametrize("kw, named", [
    ({"ladder": (6,)}, r"\(6,\)"),
    ({"ladder": (0,)}, r"\(0,\)"),
    ({"ladder": (-6, -12)}, r"\(-6, -12\)"),
    ({"kernels": ("stable", "nope")}, "'nope'"),
    ({"ladder": (3.0, 6.0)}, r"3\.0"),
    ({"s": 0.0}, r"s must lie in \(0,1\), got 0\.0"),
    ({"s": -0.25}, r"s must lie in \(0,1\), got -0\.25"),
], ids=["one-grid", "zero-grid", "negative-grids", "unknown-kernel", "float-grids", "zero-s", "negative-s"])
def test_config_rejects_what_the_sweep_cannot_run(kw, named):
    # one grid gives no drift, a grid size of 0 divides by zero, and an unknown kernel
    # or a float grid size would fail only after the kernels before it ran: each
    # fails here, by name.  An s outside (0,1) is named before gamma is derived from it.
    with pytest.raises(ValueError, match=named):
        HarnessConfig(**{"s": 0.5, **kw})


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


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("name", ["truncated", "ring"])
def test_liouville_nonlocal_term_has_the_operator_sign(name, s):
    # L v^2 = +M2 (apply_pointwise reads 1/(1 - s) = M2 on the truncated kernel), so
    # p = v^3 + 3 M2 t v solves transport = L p, and v^3 - 3 M2 t v does not.  Their increments
    # have v-degree 2, where the nonlocal term of the residual does not vanish.
    K = kernel_bank(s)[name]
    M2 = _even_v_moments(K, 2)[2]
    cubic = lambda sign: KineticPolynomial({MultiIndex(0, (0,), (3,)): 1.0,
                                            MultiIndex(1, (0,), (1,)): sign * 3.0 * M2}, s, 1)
    assert liouville_residual(cubic(1.0), K, XI) <= 1e-12 * M2
    assert liouville_residual(cubic(-1.0), K, XI) > 1.0


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


def test_sweep_runs_a_ladder_whose_times_land_between_integer_indices():
    # at t = j / 5 the stable kernel's x-mode lands at real v-indices, 24 - 24 j / 5
    rep = run_schauder_sweep(HarnessConfig(s=0.5, kernels=("stable", "ring"), ladder=(5, 10)))
    assert [(r["kernel"], r["grid"]) for r in rep.records] == [
        (k, n) for k in ("stable", "ring") for n in (5, 10)]
    assert rep.flags == {"stable@s=0.5": True, "ring@s=0.5": True}
    assert rep.drift["stable@s=0.5"] == pytest.approx(0.0808, abs=1e-3)
    assert rep.drift["ring@s=0.5"] == pytest.approx(0.0224, abs=1e-3)


def test_sweep_evolves_each_kernel_once(monkeypatch):
    # one evolution to the finest grid's times i / 24 serves the grids 6, 12 and 24, reading the
    # symbol once per |xi|: 1 and 2 of the modes (1 also of the stable kernel's x-mode) and 1
    # and 3 of the source
    from kinlab import harness, spectral

    times, symbols = [], []
    evolve, symbol = harness._evolve, spectral.symbol
    monkeypatch.setattr(harness, "_evolve", lambda *a: times.append(list(a[3])) or evolve(*a))
    monkeypatch.setattr(spectral, "symbol", lambda K, xi: symbols.append(xi[0]) or symbol(K, xi))
    rep = run_schauder_sweep(HarnessConfig(s=0.5, kernels=("stable",), ladder=(6, 12, 24)))
    assert [r["grid"] for r in rep.records] == [6, 12, 24]
    assert times == [[i / 24 for i in range(25)]]
    assert sorted(symbols) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_sweep_keeps_no_kernel_alive(monkeypatch):
    import gc
    import weakref

    from kinlab import harness

    refs, bank = [], harness.kernel_bank

    def tracked(s):
        kernels = bank(s)
        refs.extend(weakref.ref(K) for K in kernels.values())
        return kernels

    monkeypatch.setattr(harness, "kernel_bank", tracked)
    run_schauder_sweep(HarnessConfig(s=0.5, kernels=("stable", "truncated"), ladder=(3, 6)))
    gc.collect()
    assert refs and [r() for r in refs] == [None] * len(refs)


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
    g = f.translated(z0)
    base_f = [f.point(i) for i in range(0, 300, 40)]
    base_g = [g.point(i) for i in range(0, 300, 40)]
    a = seminorm(f, base_f, 0.8, S).seminorm
    b = seminorm(g, base_g, 0.8, S).seminorm
    assert b == pytest.approx(a, rel=1e-8)


def test_numerator_fit_computes_few_distances(monkeypatch):
    # the sweep's n = 12 grid at s = 1/2: 2,197 samples and 36 base points in Q_1/2.  The
    # working sets take exact distances for at most 15 % of the 36 x 2,197 pairs, in
    # batches of at most 2**15 pairs
    from kinlab import group, holder
    from kinlab.harness import (_CLOSED_RTOL, _coarse_subset, _masked_seminorm, _sample_solution,
                                _sweep_problem)
    from kinlab.spectral import solve

    cfg = HarnessConfig(s=S)
    K = kernel_bank(S)["stable"]
    rng = np.random.default_rng(0)
    f0, src = _sweep_problem(K, rng)
    f = _sample_solution([solve(f0, K, src, j / 12) for j in range(13)], 12)
    d_c = group.left_distance_batch(Point(1.0, [0.0], [0.0]), f.ts, f.xs, f.vs, S)
    base = _coarse_subset(np.flatnonzero(d_c <= 0.5 * (1.0 + _CLOSED_RTOL)), 36, rng)
    assert (f.n, len(base)) == (2197, 36)
    pairs = []
    batch = holder.pair_distance_batch
    monkeypatch.setattr(holder, "pair_distance_batch", lambda *a, **kw: pairs.append(len(a[0])) or batch(*a, **kw))
    _masked_seminorm(f, base, 2 * S + cfg.alpha, S, d_c <= 1.0 + _CLOSED_RTOL, {})
    assert 0 < sum(pairs) <= 0.15 * 36 * 2197 and max(pairs) <= 2**15


# run_schauder_sweep records at ladder (6, 12), seed 0, all five kernels, as computed at commit
# 868baa5: (numerator, sup_f, sem_gamma, c_norm, ratio) by (kernel, s, grid).  A faster fit may
# move them by rounding only, and every flag was set.
PINNED_SWEEP = {
    ("stable", 0.25, 6):
        (1.1286876378321253, 0.8715889037693376, 1.620712819790327, 0.7418315004560689, 0.34899231406140563),
    ("stable", 0.25, 12):
        (1.151255819840589, 0.9059876550875208, 1.4793386635307109, 0.7268975023471034, 0.3699142112097509),
    ("profiled_a", 0.25, 6):
        (0.6774155684364177, 0.5413404387583729, 0.8664282908365594, 0.8627689880659002, 0.2983502820355299),
    ("profiled_a", 0.25, 12):
        (0.7662167093328713, 0.5757391900765562, 1.1026684415290857, 0.8863926553200163, 0.29874322505293777),
    ("profiled_b", 0.25, 6):
        (0.6774155684364177, 0.5413404387583729, 0.8504573353232509, 0.8627689880659002, 0.3004637431056442),
    ("profiled_b", 0.25, 12):
        (0.7438752494102845, 0.5757391900765562, 1.0781232450714962, 0.8863926553200163, 0.29283486221583266),
    ("truncated", 0.25, 6):
        (0.8063207244782634, 0.5413404387583729, 0.8237479089120896, 0.8627689880659002, 0.3619265522725917),
    ("truncated", 0.25, 12):
        (0.792103495655197, 0.5757391900765562, 0.8591751545947188, 0.8863926553200163, 0.3412316835550699),
    ("ring", 0.25, 6):
        (0.6774155684364177, 0.5413404387583729, 0.8278805932203687, 0.8627689880659002, 0.3035029558164731),
    ("ring", 0.25, 12):
        (0.702787941178821, 0.5757391900765562, 1.0385506584256616, 0.8863926553200163, 0.28103845254430593),
    ("stable", 0.5, 6):
        (0.9732584983111728, 0.8715889037693376, 1.6245290672296946, 0.7750909942662765, 0.2975225699872822),
    ("stable", 0.5, 12):
        (1.000013999066954, 0.9059876550875208, 1.6773915728634943, 0.7828668899675665, 0.29707096986874004),
    ("profiled_a", 0.5, 6):
        (0.6134875702111151, 0.5413404387583729, 1.0935809996749626, 0.8840782195086705, 0.24354412604896006),
    ("profiled_a", 0.5, 12):
        (0.6310411072753066, 0.5757391900765562, 1.1033225034351677, 0.8921145179037122, 0.24542896145103862),
    ("profiled_b", 0.5, 6):
        (0.6134875702111151, 0.5413404387583729, 1.0868209925451364, 0.8840782195086705, 0.24419946162890202),
    ("profiled_b", 0.5, 12):
        (0.6310411072753066, 0.5757391900765562, 1.0930168831658231, 0.8921145179037122, 0.24641663247532183),
    ("truncated", 0.5, 6):
        (0.7881984821500538, 0.5413404387583729, 1.0104578759932423, 0.8840782195086705, 0.3235789955131736),
    ("truncated", 0.5, 12):
        (0.7833711869672387, 0.5757391900765562, 1.0066549310203865, 0.8921145179037122, 0.3165764607245857),
    ("ring", 0.5, 6):
        (0.6134875702111152, 0.5413404387583729, 1.103278182893407, 0.8840782195086705, 0.24261016988085377),
    ("ring", 0.5, 12):
        (0.6413255872252367, 0.5757391900765562, 1.1207840875452264, 0.8921145179037122, 0.2477463584645867),
    ("stable", 0.75, 6):
        (0.8259447375015871, 0.8715889037693376, 1.6245290672296946, 0.7847781504375891, 0.25174364165480706),
    ("stable", 0.75, 12):
        (0.8696919768638003, 0.9059876550875208, 1.602009957009527, 0.8090213072579797, 0.26219084003081483),
    ("profiled_a", 0.75, 6):
        (0.515072265122513, 0.5413404387583729, 1.0104578759932423, 0.9012690684514206, 0.20997069572951124),
    ("profiled_a", 0.75, 12):
        (0.6023329136931139, 0.5757391900765562, 1.0066549310203865, 0.909732557388732, 0.2416943403772387),
    ("profiled_b", 0.75, 6):
        (0.5156595321767743, 0.5413404387583729, 1.0104578759932423, 0.9012690684514206, 0.21021009683943692),
    ("profiled_b", 0.75, 12):
        (0.6026115240821103, 0.5757391900765562, 1.0066549310203865, 0.909732557388732, 0.24180613661592976),
    ("truncated", 0.75, 6):
        (0.6116621142172387, 0.5413404387583729, 1.0104578759932423, 0.9012690684514206, 0.24934582653762047),
    ("truncated", 0.75, 12):
        (0.6876373376084901, 0.5757391900765562, 1.0066549310203865, 0.909732557388732, 0.27592391010649936),
    ("ring", 0.75, 6):
        (0.5140390278934014, 0.5413404387583729, 1.0104578759932423, 0.9012690684514206, 0.2095494935904316),
    ("ring", 0.75, 12):
        (0.6013614708845327, 0.5757391900765562, 1.0066549310203865, 0.909732557388732, 0.24130453563056686),
}


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_sweep_records_match_the_pinned_values(s):
    rep = run_schauder_sweep(HarnessConfig(s=s, ladder=(6, 12), seed=0))
    cols = ("numerator", "sup_f", "sem_gamma", "c_norm", "ratio")
    got = {(r["kernel"], r["s"], r["grid"]): tuple(r[c] for c in cols) for r in rep.records}
    want = {k: v for k, v in PINNED_SWEEP.items() if k[1] == s}
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=1e-12, abs=0), k
    assert rep.flags == {f"{name}@s={s}": True for name in kernel_bank(s)}


# The n = 24 records of run_schauder_sweep at ladder (6, 12, 24), s = 1/2, seed 0, as computed at
# commit 41f8f98; its n = 6 and n = 12 records are those of PINNED_SWEEP.
PINNED_SWEEP_24 = {
    ("stable", 0.5, 24):
        (0.9899787856984671, 0.9059876550875208, 1.5225876996509287, 0.7940150776724118, 0.3071996911993099),
    ("truncated", 0.5, 24):
        (0.809170744026265, 0.5757391900765562, 0.9386204650675414, 0.8772803428532105, 0.3383330035891028),
}


def test_sweep_records_on_the_finest_grid_match_the_pinned_values():
    # the largest grid, where criterion 10 spends most of its time
    kernels = ("stable", "truncated")
    rep = run_schauder_sweep(HarnessConfig(s=0.5, kernels=kernels, ladder=(6, 12, 24), seed=0))
    cols = ("numerator", "sup_f", "sem_gamma", "c_norm", "ratio")
    got = {(r["kernel"], r["s"], r["grid"]): tuple(r[c] for c in cols) for r in rep.records}
    want = {k: v for k, v in {**PINNED_SWEEP, **PINNED_SWEEP_24}.items() if k[0] in kernels and k[1] == 0.5}
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=1e-12, abs=0), k
    assert rep.flags == {f"{name}@s=0.5": True for name in kernels}


@pytest.mark.parametrize("s", [0.05, 0.95])
def test_sweep_runs_at_the_ends_of_the_range_of_s(s):
    # at s = 0.05 a sample one time step from a base point of the n = 24 grid lies at
    # d_l = (1/24)^10 ~ 1.6e-14: a far sample, not one at the base point
    rep = run_schauder_sweep(HarnessConfig(s=s, kernels=("stable", "truncated"), ladder=(6, 12, 24)))
    assert [(r["kernel"], r["grid"]) for r in rep.records] == [
        (k, n) for k in ("stable", "truncated") for n in (6, 12, 24)]
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rep.records)
    assert all(np.isfinite(d) for d in rep.drift.values())
