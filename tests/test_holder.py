import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinlab.fields import SampledField
from kinlab.group import Point, compose, inverse
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


def test_seminorm_report_witness_and_alpha(rng):
    ts = rng.uniform(-1, 0, 120)
    xs = rng.uniform(-1, 1, (120, 1))
    vs = rng.uniform(-1, 1, (120, 1))
    f = SampledField(ts, xs, vs, np.cos(2 * vs[:, 0]) + ts)
    rep = seminorm(f, [ORIGIN], 0.6, 0.5)
    assert rep.seminorm > 0
    assert rep.witness is not None
    assert rep.alpha == 0.6


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


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -0.5])
def test_fit_rejects_a_bad_alpha_by_value(alpha):
    # seminorm and fit_expansion reach the check through fit_expansions
    f = v_axis_field(np.cos, n=9)
    named = re.escape(f"alpha must be finite and positive, got {alpha}") + "$"
    with pytest.raises(ValueError, match=named):
        fit_expansion(f, ORIGIN, alpha, 0.5)
    with pytest.raises(ValueError, match=named):
        seminorm(f, [ORIGIN], alpha, 0.5)


@pytest.mark.parametrize("factor", [np.nan, np.inf, 0.0, -1.0])
def test_interpolation_check_rejects_a_bad_tolerance_factor(factor):
    f = v_axis_field(np.cos, n=9)
    with pytest.raises(ValueError, match=re.escape(f"tolerance_factor must be finite and positive, got {factor}")):
        interpolation_check(f, [ORIGIN], (0.3, 0.5, 0.9), 0.5, tolerance_factor=factor)


def test_sample_mask_is_one_row_of_the_samples():
    # every fit of a batch keeps the same samples: a mask per base point, or any other
    # shape, is refused by name, never flattened
    from kinlab.holder import fit_expansions

    f = v_axis_field(np.cos, n=9)
    for shape in [(2, 9), (1, 9), (8,)]:
        with pytest.raises(ValueError, match=re.escape(f"shape (9,), got {shape}")):
            fit_expansions(f, [ORIGIN, ORIGIN], 0.5, 0.5, sample_mask=np.ones(shape, bool))
    # an index array would drop sample 0 as a mask, and a float mask of 0.5s keep every sample
    for mask in [np.arange(9), np.full(9, 0.5)]:
        with pytest.raises(ValueError, match=re.escape(f"sample_mask must be boolean, got dtype {mask.dtype}")):
            fit_expansions(f, [ORIGIN], 0.5, 0.5, sample_mask=mask)


def test_base_point_of_another_dimension_is_refused_by_index():
    from kinlab.holder import fit_expansions

    f = v_axis_field(np.cos, n=9)
    with pytest.raises(ValueError, match="base point 1 has dimension 2, but the field has dimension 1"):
        fit_expansions(f, [ORIGIN, Point(0.0, [0.0, 0.0], [0.0, 0.0])], 0.5, 0.5)


def _adds_none(fits, coeffs):
    """A `_chebyshev_fits` certificate for fits whose working sets hold every far row already: it adds
    no row, and none of these fits is solved again on its whole set."""
    return np.zeros(len(fits), int), np.zeros(0, int), np.zeros(0)


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
    from kinlab.spectral import solve

    cfg = HarnessConfig(s=0.5)
    K = kernel_bank(cfg.s)["stable"]
    f0, src = _sweep_problem(K, np.random.default_rng(0))
    f = _sample_solution([solve(f0, K, src, j / 12) for j in range(13)], 12)
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
    from kinlab.spectral import solve

    cfg = HarnessConfig(s=0.5)
    K = kernel_bank(cfg.s)["stable"]
    f0, src = _sweep_problem(K, np.random.default_rng(0))
    f = _sample_solution([solve(f0, K, src, j / 12) for j in range(13)], 12)
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
# an antiparallel pair binds: references of its level cycle, at the optimum and below it
@example(seed=5, n=5, n_zero=0, n_eq=2, exact=False, n_dup=0, n_anti=2)
@example(seed=178, n=5, n_zero=0, n_eq=0, exact=False, n_dup=0, n_anti=3)
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

    # a cloud: every row its own class, the far rows first and the n_eq interpolating rows after them
    N = len(w)
    coeffs = _chebyshev_fits(np.vstack([M, M_eq])[None], np.arange(N + n_eq), np.r_[vals, v_eq],
                             np.arange(N, N + n_eq)[None], np.arange(N)[None], w[None], _adds_none)[0]
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


def _separate_fits(f, base, alpha, s, mask):
    from kinlab.polynomials import monomial_basis

    basis = monomial_basis(alpha, s, f.d)
    out = []
    for z0 in base:
        poly, resid, wit = fit_expansion(f, z0, alpha, s, sample_mask=mask)
        out.append(([poly.terms.get(j, 0.0) for j in basis], resid, -1 if wit is None else wit))
    return out


@pytest.mark.highs_fallback
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.6, 1.3, 2.2]), exact=st.booleans(),
       n_base=st.integers(1, 7), block=st.sampled_from([2**15, 64, 300]), slab=st.booleans())
def test_batch_of_fits_equals_separate_fits(seed, alpha, exact, n_base, block, slab):
    # base points on and off the samples, data a basis polynomial fits exactly
    # (0.7 t + 0.2), and a mask on the t = -1/2 slab, where the t column vanishes after
    # the elimination for base points on the slab; small blocks split the distance rows
    # and the fits.  A fit whose exchange meets a repeated reference goes to HiGHS alone
    # or in the batch.
    from unittest import mock

    from kinlab import holder

    rng = np.random.default_rng(seed)
    n = 120
    ts = rng.permutation(np.repeat([-1.0, -0.75, -0.5, -0.25, 0.0], n // 5))
    xs, vs = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    vals = 0.7 * ts + 0.2 if exact else np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts)
    f = SampledField(ts, xs, vs, vals)
    base = [f.point(int(rng.integers(n))) if k % 2 == 0
            else Point(float(rng.choice([-0.5, 0.0])), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
            for k in range(n_base)]
    mask = ts == -0.5 if slab else rng.random(n) < 0.8
    with mock.patch.object(holder, "_FIT_BLOCK_PAIRS", block):
        coeffs, resid, wit = holder.fit_expansions(f, base, alpha, 0.5, sample_mask=mask)
    for b, (c, r, w) in enumerate(_separate_fits(f, base, alpha, 0.5, mask)):
        assert list(coeffs[b]) == c and resid[b] == r and wit[b] == w


@pytest.mark.highs_fallback
def test_batch_with_an_lp_fit_equals_separate_fits(rng, monkeypatch):
    # the mask keeps 4 samples, two of them at the second base point: its fit keeps 2 rows
    # for the 2 unknowns left of 1, t, v, so it is one LP, and the others in the batch
    # still take the exchange
    from kinlab import holder

    n = 200
    ts, xs, vs, vals = (rng.uniform(-1, 0, n), rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1)),
                        rng.normal(size=n))
    ts[1], xs[1], vs[1], vals[1] = ts[0], xs[0], vs[0], vals[0]
    f = SampledField(ts, xs, vs, vals)
    base = [ORIGIN, f.point(0), Point(-0.2, [0.1], [0.3])]
    mask = np.arange(n) < 4
    calls = []
    linprog = holder.linprog
    monkeypatch.setattr(holder, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    coeffs, resid, wit = holder.fit_expansions(f, base, 1.5, 0.5, sample_mask=mask)
    assert len(calls) == 1
    for b, (c, r, w) in enumerate(_separate_fits(f, base, 1.5, 0.5, mask)):
        assert list(coeffs[b]) == c and resid[b] == r and wit[b] == w


def _sweep_seminorm_cases(s, n=12, kernel="stable"):
    """The three seminorm fits of the sweep at s on grid n (seed 0): (field, base point indices,
    alpha, mask) for the numerator, the slab and the source."""
    from kinlab.group import left_distance_batch
    from kinlab.harness import (_BASE_CAP, _CLOSED_RTOL, HarnessConfig, _coarse_subset, _sample_solution,
                                _sweep_problem, kernel_bank)
    from kinlab.spectral import solve

    cfg = HarnessConfig(s=s)
    K = kernel_bank(s)[kernel]
    rng = np.random.default_rng(0)
    f0, src = _sweep_problem(K, rng)
    f = _sample_solution([solve(f0, K, src, j / n) for j in range(n + 1)], n)
    d_c = left_distance_batch(Point(1.0, [0.0], [0.0]), f.ts, f.xs, f.vs, s)
    in_q1 = d_c <= 1.0 + _CLOSED_RTOL
    numer = _coarse_subset(np.flatnonzero(d_c <= 0.5 * (1.0 + _CLOSED_RTOL)), _BASE_CAP, rng)
    slab = _coarse_subset(np.arange(f.n), _BASE_CAP // 2, rng)
    c_field = SampledField(f.ts, f.xs, f.vs, src.evaluate(f.ts, f.vs[:, 0], f0.periods))
    c_base = _coarse_subset(np.flatnonzero(in_q1), _BASE_CAP // 2, rng)
    return [(f, numer, 2 * s + cfg.alpha, in_q1), (f, slab, cfg.gamma, np.ones(f.n, bool)),
            (c_field, c_base, cfg.alpha, in_q1)]


def _full_row_fit(f, z0, alpha, s, mask):
    """Reference: d_l to every masked sample, one exchange over all of them, and the largest
    weighted deviation of its polynomial.  Returns (coefficients, residual)."""
    from kinlab.group import left_distance_batch
    from kinlab.holder import _chebyshev_fits
    from kinlab.polynomials import KineticPolynomial, monomial_basis

    rows = np.flatnonzero(mask)
    dd = left_distance_batch(z0, f.ts, f.xs, f.vs, s)[rows]
    ts = f.ts[rows] - z0.t
    vs = f.vs[rows] - z0.v
    xs = f.xs[rows] - z0.x - ts[:, None] * z0.v
    M = np.column_stack([KineticPolynomial.monomial(j, s).eval_arrays(ts, xs, vs)
                         for j in monomial_basis(alpha, s, f.d)])
    w = dd**alpha
    far = (dd > 1e-12) & (w > 1e-12)
    w[~far] = 1.0
    c = _chebyshev_fits(M[None], np.arange(len(rows)), f.values[rows], np.flatnonzero(~far)[None],
                        np.flatnonzero(far)[None], w[far][None], _adds_none)[0]
    return c, float(np.max(np.where(far, np.abs(M @ c - f.values[rows]) / w, 0.0)))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.05, 0.95])
def test_working_set_fits_match_full_row_fits_on_the_sweep(s):
    # the sweep's n = 12 grid, on the stable kernel (values that vary in x within a class of
    # equal t and v) and the truncated one (x-independent: every class is flat): every fit of the
    # three seminorms, on its working set, reads the residual of one exchange over every row to
    # 1e-12 relative, and its witness attains it.  At s = 1/2 also a numerator of order 2.2,
    # whose basis reads x: its classes are single samples.
    from kinlab.group import left_distance_batch
    from kinlab.holder import fit_expansions
    from kinlab.polynomials import KineticPolynomial, monomial_basis

    cases = _sweep_seminorm_cases(s) + _sweep_seminorm_cases(s, kernel="truncated")
    if s == 0.5:
        f, base, _, mask = cases[0]
        assert any(any(j.j_x) for j in monomial_basis(2.2, s, 1))
        cases.append((f, base[:12], 2.2, mask))
    for f, base, alpha, mask in cases:
        pts = [f.point(int(i)) for i in base]
        coeffs, resid, wit = fit_expansions(f, pts, alpha, s, sample_mask=mask)
        basis = monomial_basis(alpha, s, f.d)
        for z0, c, r, k in zip(pts, coeffs, resid, wit):
            assert r == pytest.approx(_full_row_fit(f, z0, alpha, s, mask)[1], rel=1e-12)
            poly = KineticPolynomial(dict(zip(basis, c)), s, f.d)
            d_k = left_distance_batch(z0, f.ts[[k]], f.xs[[k]], f.vs[[k]], s)[0]
            dev = abs(poly(compose(inverse(z0), f.point(int(k)))) - f.values[k]) / d_k**alpha
            assert dev == pytest.approx(r, rel=1e-12)


def _masked_cloud_case():
    """A random cloud of 300 samples, about half masked out, with 6 of its samples as base points:
    (field, base point indices, alpha, mask)."""
    rng = np.random.default_rng(11)
    n = 300
    ts, xs, vs = rng.uniform(-1, 0, n), rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    f = SampledField(ts, xs, vs, np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts) + ts**2)
    mask = rng.random(n) < 0.5
    return f, np.flatnonzero(mask)[:6], 1.4, mask


@pytest.mark.parametrize("case", [("sweep", 0.25), ("sweep", 0.5), ("sweep", 0.75), ("cloud", 0.5)],
                         ids=["sweep-0.25", "sweep-0.5", "sweep-0.75", "cloud"])
def test_both_start_sets_agree(case, monkeypatch):
    # the n = 6 sweep's three seminorms and a masked cloud, all of whose fits start their
    # working sets on every far row: started on the floor-chosen set instead, each fit reads the
    # same residual to 1e-12 relative, and each witness attains its residual
    from kinlab import holder
    from kinlab.group import left_distance_batch
    from kinlab.polynomials import KineticPolynomial, monomial_basis

    kind, s = case
    for f, base, alpha, mask in (_sweep_seminorm_cases(s, n=6) if kind == "sweep" else [_masked_cloud_case()]):
        R, basis = np.count_nonzero(mask), monomial_basis(alpha, s, f.d)
        assert R > 100 and holder._every_row(R, len(basis))
        pts = [f.point(int(i)) for i in base]
        every = holder.fit_expansions(f, pts, alpha, s, sample_mask=mask)
        with monkeypatch.context() as m:
            m.setattr(holder, "_WS_FRACTION", 1e9)
            assert not holder._every_row(R, len(basis))
            floor = holder.fit_expansions(f, pts, alpha, s, sample_mask=mask)
        np.testing.assert_allclose(floor[1], every[1], rtol=1e-12, atol=0.0)
        for z0, *fits in zip(pts, *every, *floor):
            for c, r, k in (fits[:3], fits[3:]):
                poly = KineticPolynomial(dict(zip(basis, c)), s, f.d)
                d_k = left_distance_batch(z0, f.ts[[k]], f.xs[[k]], f.vs[[k]], s)[0]
                dev = abs(poly(compose(inverse(z0), f.point(int(k)))) - f.values[k]) / d_k**alpha
                assert dev == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("block", [2**17, 2**13], ids=["one-block", "blocks-of-4"])
def test_working_set_batch_equals_separate_fits(block, monkeypatch):
    # on working sets too, a fit reads the same to the bit alone or in a batch, in any block,
    # and each fit computes fewer than half of its N distances
    from kinlab import holder

    pairs = {}
    batch_fn = holder.pair_distance_batch

    def count(ts1, xs1, vs1, *rest):
        for key in zip(ts1.tolist(), map(tuple, xs1.tolist()), map(tuple, vs1.tolist())):
            pairs[key] = pairs.get(key, 0) + 1
        return batch_fn(ts1, xs1, vs1, *rest)

    monkeypatch.setattr(holder, "_WS_BLOCK_PAIRS", block)
    monkeypatch.setattr(holder, "pair_distance_batch", count)
    f, base, alpha, mask = _sweep_seminorm_cases(0.5)[0]
    pts = [f.point(int(i)) for i in base[:10]]
    batch = holder.fit_expansions(f, pts, alpha, 0.5, sample_mask=mask)
    assert len(pairs) == len(pts) and 0 < max(pairs.values()) < 0.5 * f.n
    for k, z0 in enumerate(pts):
        one = holder.fit_expansions(f, [z0], alpha, 0.5, sample_mask=mask)
        assert np.array_equal(one[0][0], batch[0][k]) and one[1][0] == batch[1][k] and one[2][0] == batch[2][k]


def test_all_row_fits_compute_only_their_masked_pairs(monkeypatch):
    # 300 samples, about half masked out, and base points off the samples: the fits weigh
    # every masked row, and compute exactly one distance per base point and masked sample
    from kinlab import holder

    rng = np.random.default_rng(3)
    n = 300
    ts = rng.permutation(n) / n  # distinct: t names the sample
    xs, vs = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    f = SampledField(ts, xs, vs, np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts))
    mask = rng.random(n) < 0.5
    pts = [Point(t, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for t in (0.1234, 0.4321, 0.777)]
    seen = []
    batch = holder.pair_distance_batch
    monkeypatch.setattr(holder, "pair_distance_batch", lambda *a: seen.append(a[3]) or batch(*a))
    holder.fit_expansions(f, pts, 1.4, 0.5, sample_mask=mask)
    sample_ts = np.concatenate(seen)
    assert len(sample_ts) == len(pts) * np.count_nonzero(mask)
    assert set(sample_ts.tolist()) == set(ts[mask].tolist())


def test_working_set_adds_a_column_its_start_set_lacks():
    # 600 samples on the base point's slab t = 1/2 and 8 off it, none of them among the
    # rows of smallest floor or the spread that start the working set: the t column
    # vanishes on the start set, the certificate brings in the off-slab rows, and the fit
    # is solved again with the t column, as over every row
    from kinlab import holder

    rng = np.random.default_rng(7)
    n = 608
    ts = np.full(n, 0.5)
    spread = np.linspace(0, n - 1, holder._WS_SPREAD).astype(int)
    off = spread[1:60:7] + 4
    assert not set(off) & set(spread)
    ts[off] = rng.choice([0.1, 0.9], len(off))
    xs, vs = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    f = SampledField(ts, xs, vs, np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0]) + 4.0 * ts**2)
    z0 = Point(0.5, [0.0], [0.0])
    c, r, _ = holder.fit_expansions(f, [z0], 1.4, 0.5)
    c_ref, r_ref = _full_row_fit(f, z0, 1.4, 0.5, np.ones(n, bool))
    assert r[0] == pytest.approx(r_ref, rel=1e-12)
    assert c[0][1] != 0.0  # the t coefficient


def test_working_set_fits_of_dilated_pairs_match_full_row_fits(monkeypatch):
    # the sweep's numerator on S_R of its grid, R = 1e-80: pair_distance_batch dilates every
    # pair, so the floor comes from tbar, xbar, v1 and v2 as the distance forms them (on the
    # grid itself, from the relative coordinates), and each fit still reads the residual of
    # one exchange over every row
    from kinlab import holder

    calls = []
    floor = holder._distance_floor
    monkeypatch.setattr(holder, "_distance_floor", lambda *a: calls.append(1) or floor(*a))
    f, base, alpha, mask = _sweep_seminorm_cases(0.5)[0]
    holder.fit_expansions(f, [f.point(int(i)) for i in base[:8]], alpha, 0.5, sample_mask=mask)
    assert calls == []
    big = f.scaled(1e-80, 0.5)
    pts = [big.point(int(i)) for i in base[:8]]
    resid = holder.fit_expansions(big, pts, alpha, 0.5, sample_mask=mask)[1]
    assert calls == [1]
    for z0, r in zip(pts, resid):
        assert r == pytest.approx(_full_row_fit(big, z0, alpha, 0.5, mask)[1], rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_monomials_match_eval_arrays_to_the_bit(d):
    # the fits' monomials, each power taken once, are KineticPolynomial.eval_arrays's to the bit
    from kinlab.holder import _monomials
    from kinlab.polynomials import KineticPolynomial, monomial_basis

    rng = np.random.default_rng(d)
    ts, xs, vs = rng.normal(size=(3, 40)), rng.normal(size=(3, 40, d)), rng.normal(size=(3, 40, d))
    basis = monomial_basis(3.3, 0.5, d)
    flat = (ts.ravel(), xs.reshape(-1, d), vs.reshape(-1, d))
    want = np.stack([KineticPolynomial.monomial(j, 0.5).eval_arrays(*flat).reshape(ts.shape) for j in basis], axis=2)
    assert np.array_equal(_monomials(basis, [ts, *np.moveaxis(xs, 2, 0), *np.moveaxis(vs, 2, 0)]), want)


def _brute_constant_fit(f, z0, alpha, s, mask, c, interpolating=False):
    """Residual and witness of the constant c at z0, from d_l to every masked sample: the largest
    |c - f_j| / d_l(z0, z_j)^alpha over the samples not at z0 (t, x and v each within 4 ulp of
    z0's) and of weight above 1e-12, and the first sample attaining it (-1 for none); with
    interpolating, the other samples instead."""
    from kinlab.group import pair_distance_batch

    rows = np.flatnonzero(mask)
    n = len(rows)
    d = pair_distance_batch(np.full(n, z0.t), np.tile(z0.x, (n, 1)), np.tile(z0.v, (n, 1)),
                            f.ts[rows], f.xs[rows], f.vs[rows], s)
    z, zb = np.c_[f.ts[rows], f.xs[rows], f.vs[rows]], np.r_[z0.t, z0.x, z0.v]
    near = np.all(np.abs(z - zb) <= 4 * np.finfo(float).eps * np.maximum(np.abs(z), np.abs(zb)), axis=1)
    w = d**alpha
    far = ~near & (w > 1e-12)
    if interpolating:
        return rows[~far]
    q = np.where(far, np.abs(c - f.values[rows]) / np.where(far, w, 1.0), -1.0)
    k = int(np.argmax(q))
    return (float(q[k]), int(rows[k])) if far.any() else (0.0, -1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.05, 0.95), d=st.sampled_from([1, 2]),
       frac=st.floats(0.05, 0.95), n=st.sampled_from([40, 300, 900]), tensor=st.booleans())
def test_constant_fits_match_a_brute_force_max(seed, s, d, frac, n, tensor):
    # order below min(1, 2s): the basis is {1}, and a sample at the base point fixes the
    # constant.  Samples on a lattice (ties of distance and deviation), or the whole tensor grid
    # of that lattice, whose classes of equal t and v hold values that vary in x, and whose base
    # samples sit on a slab tbar = 0 of many samples; a random mask, copies of base samples
    # within a few ulp (values within rounding)
    from kinlab.holder import fit_expansions
    from kinlab.polynomials import monomial_basis

    alpha = frac * min(1.0, 2 * s)
    assert len(monomial_basis(alpha, s, d)) == 1
    rng = np.random.default_rng(seed)
    grid = lambda lo, hi, k: rng.choice(np.linspace(lo, hi, 5), k)
    ts, xs, vs = grid(0.0, 1.0, n), grid(-1.0, 1.0, (n, d)), grid(-2.0, 2.0, (n, d))
    if tensor:
        axes = [np.linspace(0.0, 1.0, 5)] + [np.linspace(-1.0, 1.0, 5 - d)] * d + [np.linspace(-2.0, 2.0, 5 - d)] * d
        z = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        ts, xs, vs = z[:, 0], z[:, 1:1 + d], z[:, 1 + d:]
        n = len(ts)
    vals = np.round(np.cos(3 * vs[:, 0]) + np.sin(2 * xs[:, 0] + ts), 2)
    picks = rng.choice(n, 6, replace=False)
    copies = picks[:3]
    nudge = lambda a: np.nextafter(a, a + rng.choice([-1.0, 1.0], a.shape)) if rng.random() < 0.7 else a
    ts = np.r_[ts, nudge(ts[copies])]
    xs, vs = np.r_[xs, nudge(xs[copies])], np.r_[vs, nudge(vs[copies])]
    vals = np.r_[vals, vals[copies] * (1.0 + 1e-15 * rng.integers(-2, 3, len(copies)))]
    f = SampledField(ts, xs, vs, vals)
    mask = rng.random(f.n) < 0.7
    mask[picks] = True
    base = [f.point(int(i)) for i in picks]
    coeffs, resid, wit = fit_expansions(f, base, alpha, s, sample_mask=mask)
    for z0, c, r, k in zip(base, coeffs[:, 0], resid, wit):
        assert (r, k) == _brute_constant_fit(f, z0, alpha, s, mask, c)
        # the constant: the value of the one interpolating sample, or their mean
        at = f.values[_brute_constant_fit(f, z0, alpha, s, mask, c, interpolating=True)]
        assert c == at[0] if len(at) == 1 else c == pytest.approx(np.mean(at), rel=1e-14)


def test_inconsistent_copy_of_the_base_point_raises():
    # a copy of a base sample one ulp off in x, with a value 1 higher
    T, X, V = (g.ravel() for g in np.meshgrid(
        np.linspace(0, 1, 7), np.linspace(-1, 1, 7), np.linspace(-2, 2, 7), indexing="ij"))
    vals = np.cos(X + V) + T
    f = SampledField(np.r_[T, T[100]], np.r_[X, np.nextafter(X[100], 2.0)], np.r_[V, V[100]],
                     np.r_[vals, vals[100] + 1.0])
    named = "|".join(re.escape(f"inconsistent: value {v} is 0.5 off") for v in (vals[100], vals[100] + 1.0))
    with pytest.raises(ValueError, match=named):
        fit_expansion(f, f.point(100), 0.5, 0.5)


def test_constant_fits_on_the_sweep_take_few_distances_and_no_exchange(monkeypatch):
    # the slab and source seminorms of the n = 12 sweep grid: each base point takes exact
    # distances to fewer than N of the N = 2,197 samples, and no fit reaches the exchange
    from kinlab import holder

    pairs = {}
    batch = holder.pair_distance_batch

    def count(ts1, xs1, vs1, *rest):
        for key in zip(ts1.tolist(), map(tuple, xs1.tolist()), map(tuple, vs1.tolist())):
            pairs[key] = pairs.get(key, 0) + 1
        return batch(ts1, xs1, vs1, *rest)

    monkeypatch.setattr(holder, "pair_distance_batch", count)
    monkeypatch.setattr(holder, "_exchange", lambda *a, **kw: pytest.fail("a constant fit reached the exchange"))
    for f, base, alpha, mask in _sweep_seminorm_cases(0.5)[1:]:
        pairs.clear()
        pts = [f.point(int(i)) for i in base]
        coeffs, resid, wit = holder.fit_expansions(f, pts, alpha, 0.5, sample_mask=mask)
        assert f.n == 2197 and 0 < max(pairs.values()) < f.n
        for z0, c, r, k in zip(pts, coeffs[:, 0], resid, wit):
            assert (r, k) == _brute_constant_fit(f, z0, alpha, 0.5, mask, c)


def test_fits_on_the_sweep_read_rows_by_class(monkeypatch):
    # the numerator and the slab seminorm of the n = 12 sweep grid: the certificate bounds classes
    # of samples of equal t and v, and reads rows only in the classes whose bound reaches the
    # level, or where a fit starts.  The rows read are a quarter of B x R or fewer (a certificate
    # over every row reads B x R each round), and the exact distances stay within 10 % of the
    # 7,400 and 1,861 that the row-by-row certificate took
    from kinlab import holder

    read, pairs = [], []

    def counted(fn):
        def rows(*args):
            out = fn(*args)
            read.append(len(out[1]))
            return out
        return rows

    for name in ("members", "beyond"):
        monkeypatch.setattr(holder._Classes, name, counted(getattr(holder._Classes, name)))
    batch = holder.pair_distance_batch
    monkeypatch.setattr(holder, "pair_distance_batch", lambda *a: pairs.append(len(a[0])) or batch(*a))
    cases = _sweep_seminorm_cases(0.5)
    for (f, base, alpha, mask), row_wise in zip(cases[:2], (7400, 1861)):
        read.clear()
        pairs.clear()
        holder.fit_expansions(f, [f.point(int(i)) for i in base], alpha, 0.5, sample_mask=mask)
        assert sum(read) <= 0.25 * len(base) * np.count_nonzero(mask)
        assert sum(pairs) <= 1.1 * row_wise


def test_constant_fits_of_dilated_pairs_match_a_brute_force_max(monkeypatch):
    # the slab and source seminorms on S_R of the n = 12 sweep grid, R = 1e-80: every pair is
    # dilated, and the floor comes from tbar, xbar, v1 and v2 as pair_distance_batch forms them
    from kinlab import holder

    calls = []
    floor = holder._distance_floor
    monkeypatch.setattr(holder, "_distance_floor", lambda *a: calls.append(1) or floor(*a))
    for f, base, alpha, mask in _sweep_seminorm_cases(0.5)[1:]:
        big = f.scaled(1e-80, 0.5)
        pts = [big.point(int(i)) for i in base]
        coeffs, resid, wit = holder.fit_expansions(big, pts, alpha, 0.5, sample_mask=mask)
        for z0, c, r, k in zip(pts, coeffs[:, 0], resid, wit):
            assert (r, k) == _brute_constant_fit(big, z0, alpha, 0.5, mask, c)
    assert calls == [1, 1]


def test_weight_rule_fixes_the_constant_of_a_working_set_fit():
    # a base point 1e-13 off a sample in v: too far for the coordinate rule, but at order 1 the
    # weight d_l ~ 5e-14 interpolates.  The fit takes working sets (600 samples) and its
    # eliminations leave no free coefficient
    from kinlab.holder import fit_expansions

    rng = np.random.default_rng(3)
    n = 600
    ts, xs, vs = rng.uniform(0, 1, n), rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    f = SampledField(ts, xs, vs, np.cos(3 * vs[:, 0]) + ts)
    z0 = Point(ts[7], xs[7], vs[7] + 1e-13)
    coeffs, resid, wit = fit_expansions(f, [z0], 1.0, 0.5)
    assert coeffs[0, 0] == f.values[7]
    assert (resid[0], wit[0]) == _brute_constant_fit(f, z0, 1.0, 0.5, np.ones(n, bool), coeffs[0, 0])


def test_working_set_fit_none_of_whose_columns_reaches_its_start_set():
    # every sample has v = v0, so the v column is free; the t column vanishes on the 600 samples
    # of the base point's slab, which hold the whole start set, and the constant is fixed by the
    # sample at the base point.  The fit is solved again on every row, where 8 samples off the
    # slab bring the t column in (without it the residual is 4.2 instead of 0.2)
    from kinlab import holder

    rng = np.random.default_rng(11)
    n = 608
    ts = np.full(n, 0.5)
    spread = np.linspace(0, n - 1, holder._WS_SPREAD).astype(int)
    off = spread[1:60:7] + 4
    ts[off] = rng.choice([0.1, 0.9], len(off))
    xs, vs = rng.uniform(-1, 1, (n, 1)), np.zeros((n, 1))
    xs[0] = 0.0
    f = SampledField(ts, xs, vs, 0.1 * np.sin(2 * xs[:, 0]) + 4.0 * ts)
    z0 = f.point(0)
    c, r, _ = holder.fit_expansions(f, [z0], 1.4, 0.5)
    c_ref, r_ref = _full_row_fit(f, z0, 1.4, 0.5, np.ones(n, bool))
    assert r[0] == pytest.approx(r_ref, rel=1e-12) and r_ref < 0.25
    assert np.array_equal(c[0], c_ref)
