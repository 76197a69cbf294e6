from fractions import Fraction

import numpy as np
import pytest

from kinlab.group import Point, compose
from kinlab.polynomials import (
    KineticPolynomial,
    MultiIndex,
    differentiate,
    kinetic_degree,
    left_translate,
    monomial_basis,
)


def mono(jt, jx, jv, s, c=1.0):
    return KineticPolynomial({MultiIndex(jt, (jx,), (jv,)): c}, s, 1)


def test_degree_is_exact_fraction():
    j = MultiIndex(1, (0,), (0,))
    assert kinetic_degree(j, 0.25) == Fraction(1, 2)
    assert kinetic_degree(MultiIndex(0, (1,), (0,)), 0.25) == Fraction(3, 2)
    assert kinetic_degree(MultiIndex(0, (0,), (3,)), 0.75) == 3
    assert kinetic_degree(MultiIndex(2, (1,), (1,)), 0.5) == Fraction(5)


@pytest.mark.parametrize(
    "s,threshold,expected",
    [
        (0.25, 0.6, [(0, 0, 0), (1, 0, 0)]),
        (0.5, 1.3, [(0, 0, 0), (0, 0, 1), (1, 0, 0)]),
        (0.75, 2.1, [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 2)]),
    ],
)
def test_basis_oracles(s, threshold, expected):
    basis = monomial_basis(threshold, s, 1)
    assert [(j.j_t, j.j_x[0], j.j_v[0]) for j in basis] == expected


def test_left_translate_matches_composition(rng):
    s = 0.5
    p = mono(1, 0, 0, s, 2.0) + mono(0, 1, 0, s, -1.5) + mono(0, 0, 2, s, 0.7)
    z0 = Point(0.4, [-0.2], [0.9])
    q = left_translate(p, z0)
    ts = rng.uniform(-1, 1, 50)
    xs = rng.uniform(-1, 1, (50, 1))
    vs = rng.uniform(-1, 1, (50, 1))
    composed = np.array([
        p.eval_arrays(np.array([w.t]), w.x[None, :], w.v[None, :])[0]
        for w in (compose(z0, Point(ts[i], xs[i], vs[i])) for i in range(50))
    ])
    np.testing.assert_allclose(q.eval_arrays(ts, xs, vs), composed, atol=1e-12)


def test_transport_derivative():
    s = 0.5
    # transport of x is v; transport of t is 1
    dx = differentiate(mono(0, 1, 0, s), "transport")
    assert dx.terms == {MultiIndex(0, (0,), (1,)): 1.0}
    dt = differentiate(mono(1, 0, 0, s), "transport")
    assert dt.terms == {MultiIndex(0, (0,), (0,)): 1.0}


def test_algebra():
    s = 0.25
    p = (mono(0, 0, 1, s) + mono(1, 0, 0, s, 3.0)) * mono(0, 0, 1, s, 2.0)
    ts = np.array([0.3])
    xs = np.array([[0.1]])
    vs = np.array([[0.5]])
    want = 2 * 0.5 * 0.5 + 6.0 * 0.3 * 0.5
    assert p.eval_arrays(ts, xs, vs)[0] == pytest.approx(want)


def test_zero_coefficients_dropped():
    s = 0.5
    p = mono(0, 0, 1, s) - mono(0, 0, 1, s)
    assert p.terms == {}


def test_exchange_stack_matches_single_problems_and_drops_a_degenerate_one():
    # the middle problem's second column is 1e-14 on one row and 0 elsewhere: its
    # first reference is singular, so it returns None; the others run on in the
    # stack exactly as alone
    from kinlab.polynomials import _exchange

    rng = np.random.default_rng(3)
    A, b = rng.normal(size=(3, 40, 2)), rng.normal(size=(3, 40))
    A[1, :, 1] = 0.0
    A[1, 5, 1] = 1e-14
    fits = _exchange(A, b)
    assert fits[1] is None
    for i in (0, 2):
        z, level, ref = _exchange(A[i : i + 1], b[i : i + 1])[0]
        assert np.array_equal(fits[i][0], z) and fits[i][1] == level
        assert np.array_equal(fits[i][2], ref)
        assert np.max(np.abs(A[i] @ z - b[i])) >= level * (1.0 - 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_first_references_match_pivoted_qr(n):
    # random rows have no ties, so Gram-Schmidt with column pivoting takes
    # LAPACK's pivots; each problem's rows are a random subset of the stack's
    from scipy.linalg import qr

    from kinlab.polynomials import _first_references

    rng = np.random.default_rng(10 + n)
    B, N = 12, 60
    A, b = rng.normal(size=(B, N, n)), rng.normal(size=(B, N))
    rows = rng.random((B, N)) < 0.7
    rows[:, : n + 2] = True
    A[~rows], b[~rows] = 0.0, 0.0
    ref = _first_references(A, b, rows)
    for i in range(B):
        act = np.flatnonzero(rows[i])
        piv = qr(np.column_stack([A[i, act], b[i, act]]).T, mode="r", pivoting=True)[1]
        assert ref[i].tolist() == act[piv[: n + 1]].tolist()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_exchange_alone_equals_in_a_masked_stack(n):
    from kinlab.polynomials import _exchange, _first_references

    rng = np.random.default_rng(20 + n)
    B, N = 6, 80
    A, b = rng.normal(size=(B, N, n)), rng.normal(size=(B, N))
    rows = rng.random((B, N)) < 0.6
    A[~rows], b[~rows] = 0.0, 0.0
    fits, refs = _exchange(A, b, rows), _first_references(A, b, rows)
    for i in range(B):
        one = slice(i, i + 1)
        z, level, ref = _exchange(A[one], b[one], rows[one])[0]
        assert np.array_equal(fits[i][0], z) and fits[i][1] == level
        assert np.array_equal(fits[i][2], ref)
        assert np.array_equal(refs[i], _first_references(A[one], b[one], rows[one])[0])


def test_exchange_leaves_a_one_column_stack_unmodified():
    # A[:, :, 0] is A's own memory when n = 1, so the pivot pass must work on a copy
    from kinlab.polynomials import _exchange

    rng = np.random.default_rng(4)
    A, b = rng.normal(size=(4, 30, 1)), rng.normal(size=(4, 30))
    A0, b0 = A.copy(), b.copy()
    assert all(fit is not None for fit in _exchange(A, b))
    assert np.array_equal(A, A0) and np.array_equal(b, b0)
