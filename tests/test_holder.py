import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlab.fields import SampledField
from kinlab.group import Point
from kinlab.holder import fit_expansion, interpolation_check, seminorm

ORIGIN = Point(0.0, [0.0], [0.0])


def v_axis_field(fn, n=81):
    v = np.linspace(-1, 1, n)
    return SampledField(np.zeros(n), np.zeros((n, 1)), v[:, None], fn(v))


def test_sqrt_calibration():
    # the half-order seminorm of sqrt|v| about the origin is sqrt(2)
    f = v_axis_field(lambda v: np.sqrt(np.abs(v)))
    _, resid, _ = fit_expansion(f, ORIGIN, 0.5, 0.5)
    assert resid == pytest.approx(math.sqrt(2), rel=1e-6)


def test_polynomials_below_threshold_vanish():
    fc = v_axis_field(lambda v: 5.0 * np.ones_like(v))
    assert fit_expansion(fc, ORIGIN, 0.7, 0.5)[1] < 1e-10
    fv = v_axis_field(lambda v: v)
    assert fit_expansion(fv, ORIGIN, 1.5, 0.5)[1] < 1e-10


def test_seminorm_report_witness_and_json(rng):
    ts = rng.uniform(-1, 0, 120)
    xs = rng.uniform(-1, 1, (120, 1))
    vs = rng.uniform(-1, 1, (120, 1))
    f = SampledField(ts, xs, vs, np.cos(2 * vs[:, 0]) + ts)
    rep = seminorm(f, [ORIGIN], 0.6, 0.5)
    assert rep.seminorm > 0
    assert rep.witness is not None
    parsed = json.loads(rep.to_json())
    assert parsed["alpha"] == 0.6


def test_discrete_estimate_is_lower_bound(rng):
    # knorm^alpha has continuum seminorm >= 1; the sampled estimate must not exceed
    # it by more than the LP feasibility slack, and refinement moves it upward
    from kinlab.group import knorm

    def build(n):
        ts = rng.uniform(-1, 1, n)
        xs = rng.uniform(-1, 1, (n, 1))
        vs = rng.uniform(-1, 1, (n, 1))
        vals = np.array([
            knorm(Point(ts[i], xs[i], vs[i]), 0.5) for i in range(n)
        ]) ** 0.6
        return SampledField(ts, xs, vs, vals)

    coarse = seminorm(build(100), [ORIGIN], 0.6, 0.5).seminorm
    fine = seminorm(build(800), [ORIGIN], 0.6, 0.5).seminorm
    assert coarse <= 1.0 + 1e-9
    assert fine <= 1.0 + 1e-9
    assert fine >= coarse - 1e-9


def test_interpolation_inequality(rng):
    ts = rng.uniform(-1, 1, 200)
    xs = rng.uniform(-1, 1, (200, 1))
    vs = rng.uniform(-1, 1, (200, 1))
    f = SampledField(ts, xs, vs, np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts))
    out = interpolation_check(
        f, [ORIGIN, Point(0.2, [0.1], [-0.3])], (0.3, 0.5, 0.9), 0.5)
    assert out["holds"]


def test_underdetermined_fit_raises():
    v = np.array([0.0])
    f = SampledField(np.zeros(1), np.zeros((1, 1)), v[:, None], np.zeros(1))
    with pytest.raises(ValueError):
        fit_expansion(f, ORIGIN, 1.5, 0.5)


def test_fit_rejects_non_finite_values():
    v = np.linspace(-1, 1, 41)
    vals = np.sqrt(np.abs(v))
    vals[5] = np.nan
    f = SampledField(np.zeros(41), np.zeros((41, 1)), v[:, None], vals)
    with pytest.raises(ValueError, match="got nan at sample 5$"):
        fit_expansion(f, ORIGIN, 0.5, 0.5)


def _one_shot_lp(M, vals, w, M_eq, v_eq):
    """min c subject to |M a - vals| <= c w and M_eq a = v_eq, as one LP over every row.

    The rows are scaled by 1/w: unscaled, HiGHS's feasibility tolerance exceeds
    c w on rows of tiny weight.
    """
    from scipy.optimize import linprog

    n = M.shape[1]
    A, b, ones = M / w[:, None], vals / w, np.ones((len(w), 1))
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.block([[A, -ones], [-A, -ones]]), b_ub=np.r_[b, -b],
                  A_eq=np.column_stack([M_eq, np.zeros(len(v_eq))]) if len(v_eq) else None,
                  b_eq=v_eq if len(v_eq) else None,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    assert res.success
    return float(res.x[-1])


def _one_shot_residual(f, z0, alpha, s, mask=None):
    """The minimax fit as one LP over every sample row."""
    from kinlab.group import left_distance_batch
    from kinlab.polynomials import KineticPolynomial, monomial_basis

    basis = monomial_basis(alpha, s, f.d)
    idx = np.flatnonzero(mask) if mask is not None else np.arange(f.n)
    dd = left_distance_batch(z0, f.ts, f.xs, f.vs, s)[idx]
    ts = f.ts[idx] - z0.t
    vs = f.vs[idx] - z0.v
    xs = f.xs[idx] - z0.x - ts[:, None] * z0.v
    M = np.column_stack([KineticPolynomial.monomial(j, s).eval_arrays(ts, xs, vs) for j in basis])
    vals = f.values[idx]
    far = dd > 1e-12
    return _one_shot_lp(M[far], vals[far], dd[far] ** alpha, M[~far], vals[~far])


def _check_against_one_shot(f, z0, alpha, s, mask=None):
    from kinlab.group import compose, inverse, left_distance_batch

    poly, resid, wit = fit_expansion(f, z0, alpha, s, sample_mask=mask)
    ref = _one_shot_residual(f, z0, alpha, s, mask)
    assert resid == pytest.approx(ref, rel=1e-9, abs=1e-14)
    zw = f.point(int(wit))
    # the batch over all samples, as in the fit: a bisection's final bracket
    # width depends on the batch it runs in
    d_w = left_distance_batch(z0, f.ts, f.xs, f.vs, s)[wit]
    dev = abs(poly(compose(inverse(z0), zw)) - f.values[wit]) / d_w**alpha
    assert dev == pytest.approx(resid, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.6, 1.3, 2.2])
def test_exchange_fit_matches_one_shot_lp_random(alpha, rng):
    n = 3000
    ts = rng.uniform(-1, 0, n)
    xs = rng.uniform(-1, 1, (n, 1))
    vs = rng.uniform(-1, 1, (n, 1))
    smooth = np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts)
    for vals in (smooth, smooth + 0.05 * rng.normal(size=n)):
        f = SampledField(ts, xs, vs, vals)
        for z0 in (ORIGIN, Point(-0.3, [0.2], [0.4])):
            _check_against_one_shot(f, z0, alpha, 0.5)


def test_exchange_fit_matches_one_shot_lp_masked_sweep():
    from kinlab.group import left_distance_batch
    from kinlab.harness import HarnessConfig, _sample_solution, _sweep_problem, kernel_bank

    cfg = HarnessConfig(s=0.5)
    K = kernel_bank(cfg.s)["stable"]
    f0, src = _sweep_problem(K, np.random.default_rng(0))
    f = _sample_solution(K, f0, src, 12)
    d_c = left_distance_batch(Point(1.0, [0.0], [0.0]), f.ts, f.xs, f.vs, cfg.s)
    mask = d_c < 1.0
    for i in np.flatnonzero(d_c < 0.5)[::7]:
        _check_against_one_shot(f, f.point(int(i)), 2 * cfg.s + cfg.alpha, cfg.s, mask)


@pytest.mark.parametrize("i,slab", [(1097, False), (1095, False), (1095, True)],
                         ids=["exchange", "parallel-rows", "rank-deficient"])
def test_sweep_grid_fit_paths(i, slab):
    # the n = 12 grid of the s = 1/2 sweep in Q_1.  At (1/2, 0, -1/3) every reference
    # of the exchange is regular; at (1/2, 0, -1) parallel rows give references with
    # a zero multiplier, which the exchange resolves by trying both signs of its row.
    # Restricted to the base point's t = 1/2 slab, the t column vanishes: its
    # coefficient is free, the fit drops it, and the exchange solves the rest.  No
    # case reaches the LP, which conftest refuses.
    from kinlab.group import left_distance_batch
    from kinlab.harness import (_CLOSED_RTOL, HarnessConfig, _sample_solution, _sweep_problem,
                                kernel_bank)

    cfg = HarnessConfig(s=0.5)
    K = kernel_bank(cfg.s)["stable"]
    f0, src = _sweep_problem(K, np.random.default_rng(0))
    f = _sample_solution(K, f0, src, 12)
    mask = left_distance_batch(Point(1.0, [0.0], [0.0]), f.ts, f.xs, f.vs, cfg.s) <= 1.0 + _CLOSED_RTOL
    if slab:
        mask &= f.ts == f.ts[i]
    _check_against_one_shot(f, f.point(i), 2 * cfg.s + cfg.alpha, cfg.s, mask)


def test_exchange_fit_matches_one_shot_lp_coincident_few_rows(rng):
    # 30 rows, two of them at the base point: interpolation rows that fix the constant
    z0 = Point(-0.2, [0.1], [0.3])
    ts = np.r_[rng.uniform(-1, 0, 28), z0.t, z0.t]
    xs = np.r_[rng.uniform(-1, 1, (28, 1)), [z0.x], [z0.x]]
    vs = np.r_[rng.uniform(-1, 1, (28, 1)), [z0.v], [z0.v]]
    f = SampledField(ts, xs, vs, np.cos(2 * vs[:, 0]) + ts)
    _check_against_one_shot(f, z0, 0.8, 0.5)


def test_sample_within_rounding_of_base_point_interpolates():
    # a base point one ulp off a grid sample in x sits at d_l ~ 1e-8 from it, and
    # the weight d_l^2.2 ~ 1e-18 turns that sample into an interpolation row: the
    # fit is the one at the sample itself
    T, X, V = (g.ravel() for g in np.meshgrid(
        np.linspace(-1, 0, 6), np.linspace(-1, 1, 6), np.linspace(-1, 1, 6), indexing="ij"))
    f = SampledField(T, X, V, np.sin(T + V) * np.cos(X))
    z = f.point(100)
    z_off = Point(z.t, [np.nextafter(z.x[0], 2.0)], z.v)
    exact = fit_expansion(f, z, 2.2, 0.5)[1]
    assert fit_expansion(f, z_off, 2.2, 0.5)[1] == pytest.approx(exact, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), n_zero=st.integers(0, 2),
       n_eq=st.integers(0, 2), exact=st.booleans(), n_dup=st.integers(0, 3),
       n_anti=st.integers(0, 3))
def test_degenerate_fit_matches_one_shot_lp(seed, n, n_zero, n_eq, exact, n_dup, n_anti):
    # zero columns, exactly fittable values, duplicated rows and antiparallel rows
    # (M_k = -M_i, v_k free) on small problems: the exchange alone reaches the optimum
    # of one LP over every row
    from kinlab.holder import _chebyshev_fits

    rng = np.random.default_rng(seed)
    rows = n + 1 + int(rng.integers(0, 12))
    M = rng.normal(size=(rows + n_eq, n))
    M[:, n - min(n_zero, n - 1):] = 0.0
    a = rng.normal(size=n)
    M_eq, v_eq, M = M[rows:], M[rows:] @ a, M[:rows]
    vals = M @ a + (0.0 if exact else rng.normal(size=rows))
    w = rng.uniform(0.1, 1.0, rows)
    dup = rng.integers(0, rows, n_dup)
    anti = rng.integers(0, rows, n_anti)
    M = np.vstack([M, M[dup], -M[anti]])
    vals = np.r_[vals, vals[dup], -vals[anti] + (0.0 if exact else rng.normal(size=n_anti))]
    w = np.r_[w, w[dup], w[anti]]

    eq = np.r_[np.zeros(len(w), bool), np.ones(n_eq, bool)]
    coeffs = _chebyshev_fits(np.vstack([M, M_eq])[None], np.r_[vals, v_eq], np.r_[w, np.ones(n_eq)][None],
                             ~eq[None], eq[None])[0]
    resid = np.max(np.abs(M @ coeffs - vals) / w)
    np.testing.assert_allclose(M_eq @ coeffs, v_eq, atol=1e-12)
    ref = _one_shot_lp(M, vals, w, M_eq, v_eq)
    assert resid == pytest.approx(ref, rel=1e-9, abs=1e-12 * np.max(np.abs(vals / w)))


def test_inconsistent_base_point_samples_raise():
    # the base point sampled twice, with values 1 and 0
    v = np.r_[0.0, np.linspace(-1, 1, 41)]
    f = SampledField(np.zeros(42), np.zeros((42, 1)), v[:, None], np.r_[1.0, np.abs(v[1:])])
    with pytest.raises(ValueError, match="value 1.0 is"):
        fit_expansion(f, ORIGIN, 0.5, 0.5)


@pytest.mark.highs_fallback
def test_fit_with_no_more_rows_than_unknowns_is_one_lp(rng, monkeypatch):
    # 3 far samples for the 3 monomials 1, t, v below order 1.5: the exchange needs
    # a fourth row, so the fit is one LP, which interpolates
    from kinlab import holder

    f = SampledField(rng.uniform(-1, 0, 3), rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, (3, 1)),
                     rng.normal(size=3))
    calls = []
    linprog = holder.linprog
    monkeypatch.setattr(holder, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    _check_against_one_shot(f, ORIGIN, 1.5, 0.5)
    assert len(calls) == 1


def _separate_fits(f, base, alpha, s, masks):
    from kinlab.polynomials import monomial_basis

    basis = monomial_basis(alpha, s, f.d)
    out = []
    for z0, mask in zip(base, masks):
        poly, resid, wit = fit_expansion(f, z0, alpha, s, sample_mask=mask)
        out.append(([poly.terms.get(j, 0.0) for j in basis], resid, -1 if wit is None else wit))
    return out


@pytest.mark.highs_fallback
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.6, 1.3, 2.2]), exact=st.booleans(),
       n_base=st.integers(1, 7), block=st.sampled_from([2**15, 64, 300]))
def test_batch_of_fits_equals_separate_fits(seed, alpha, exact, n_base, block):
    # per-base-point masks, base points on and off the samples, data a basis polynomial
    # fits exactly (0.7 t + 0.2), and masks on the base point's t slab, where the t column
    # vanishes after the elimination; small blocks split the distance rows and the fits.
    # A fit whose exchange meets a repeated reference goes to HiGHS alone or in the batch.
    from unittest import mock

    from kinlab import holder

    rng = np.random.default_rng(seed)
    n = 120
    ts = rng.permutation(np.repeat([-1.0, -0.75, -0.5, -0.25, 0.0], n // 5))
    xs, vs = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    vals = 0.7 * ts + 0.2 if exact else np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts)
    f = SampledField(ts, xs, vs, vals)
    base, masks = [], []
    for k in range(n_base):
        z0 = (f.point(int(rng.integers(n))) if k % 2 == 0
              else Point(float(rng.choice([-0.5, 0.0])), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)))
        mask = rng.random(n) < 0.8
        if k % 3 == 2:
            mask = ts == z0.t
        base.append(z0)
        masks.append(mask)
    masks = np.array(masks)
    with mock.patch.object(holder, "_FIT_BLOCK_PAIRS", block):
        coeffs, resid, wit = holder.fit_expansions(f, base, alpha, 0.5, {}, masks)
    for b, (c, r, w) in enumerate(_separate_fits(f, base, alpha, 0.5, masks)):
        assert list(coeffs[b]) == c and resid[b] == r and wit[b] == w


@pytest.mark.highs_fallback
def test_batch_with_an_lp_fit_equals_separate_fits(rng, monkeypatch):
    # the second base point keeps 3 samples for the 3 monomials 1, t, v: its fit is one
    # LP, and the others in the batch still take the exchange
    from kinlab import holder

    n = 200
    f = SampledField(rng.uniform(-1, 0, n), rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1)),
                     rng.normal(size=n))
    base = [ORIGIN, Point(-0.2, [0.1], [0.3]), f.point(7)]
    masks = np.ones((3, n), bool)
    masks[1, 3:] = False
    calls = []
    linprog = holder.linprog
    monkeypatch.setattr(holder, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    coeffs, resid, wit = holder.fit_expansions(f, base, 1.5, 0.5, {}, masks)
    assert len(calls) == 1
    for b, (c, r, w) in enumerate(_separate_fits(f, base, 1.5, 0.5, masks)):
        assert list(coeffs[b]) == c and resid[b] == r and wit[b] == w
