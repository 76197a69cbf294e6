import numpy as np
import pytest

from kinlab.fields import SampledField
from kinlab.group import Point, compose
from kinlab.operators import kinetic_convolve


def make_field(rng, n=40, d=1):
    ts = rng.uniform(-1, 0, n)
    xs = rng.uniform(-1, 1, (n, d))
    vs = rng.uniform(-1, 1, (n, d))
    vals = np.sin(ts) + xs[:, 0] * vs[:, 0]
    return SampledField(ts, xs, vs, vals, metadata="test")


def test_csv_roundtrip(rng):
    f = make_field(rng)
    g = SampledField.from_csv(f.to_csv())
    np.testing.assert_allclose(g.ts, f.ts)
    np.testing.assert_allclose(g.xs, f.xs)
    np.testing.assert_allclose(g.vs, f.vs)
    np.testing.assert_allclose(g.values, f.values)


def test_translation_relabels_samples(rng):
    # values are untouched; coordinates become z0^{-1} o z
    f = make_field(rng, n=10)
    z0 = Point(0.3, [0.2], [-0.4])
    g = f.translated(z0, 0.5)
    np.testing.assert_allclose(g.values, f.values)
    for i in range(f.n):
        back = compose(z0, g.point(i))
        orig = f.point(i)
        assert back.t == pytest.approx(orig.t, abs=1e-12)
        np.testing.assert_allclose(back.x, orig.x, atol=1e-12)
        np.testing.assert_allclose(back.v, orig.v, atol=1e-12)


def test_scaled_field_coordinates(rng):
    f = make_field(rng, n=5)
    s = 0.5
    g = f.scaled(2.0, s)
    np.testing.assert_allclose(g.ts, f.ts / 2.0 ** (2 * s))
    np.testing.assert_allclose(g.vs, f.vs / 2.0)
    np.testing.assert_allclose(g.values, f.values)


def test_from_function_matches_direct(rng):
    ts = rng.uniform(-1, 0, 8)
    xs = rng.uniform(-1, 1, (8, 1))
    vs = rng.uniform(-1, 1, (8, 1))
    fn = lambda t, x, v: t + x[:, 0] - v[:, 0] ** 2
    f = SampledField.from_function(fn, ts, xs, vs)
    np.testing.assert_allclose(f.values, ts + xs[:, 0] - vs[:, 0] ** 2)


def test_coordinates_must_be_n_by_d(rng):
    # a (d, n) array is ambiguous when n = d, so it is refused, never transposed
    n, d = 5, 2
    ts, xs, vs = rng.uniform(-1, 0, n), rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (n, d))
    fn = lambda t, x, v: t
    with pytest.raises(ValueError, match=r"xs .*\(2, 5\)"):
        SampledField(ts, xs.T, vs, fn(ts, xs, vs))
    with pytest.raises(ValueError, match=r"vs .*\(2, 5\)"):
        SampledField.from_function(fn, ts, xs, vs.T)
    with pytest.raises(ValueError, match=r"xs .*\(2, 5\)"):
        kinetic_convolve(fn, ((0, 1),) * 3, fn, (ts, xs.T, vs))
    one_d = SampledField(ts, xs[:, 0], vs[:, 0], fn(ts, xs, vs))
    assert one_d.xs.shape == one_d.vs.shape == (n, 1)
