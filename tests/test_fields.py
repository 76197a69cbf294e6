import numpy as np
import pytest

from kinlab.fields import SampledField
from kinlab.group import Point, compose


def make_field(rng, n=40, d=1):
    ts = rng.uniform(-1, 0, n)
    xs = rng.uniform(-1, 1, (n, d))
    vs = rng.uniform(-1, 1, (n, d))
    vals = np.sin(ts) + xs[:, 0] * vs[:, 0]
    return SampledField(ts, xs, vs, vals)


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
    g = f.translated(z0)
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


def test_coordinates_must_be_n_by_d(rng):
    # a (d, n) array is ambiguous when n = d, so it is refused, never transposed
    n, d = 5, 2
    ts, xs, vs = rng.uniform(-1, 0, n), rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (n, d))
    fn = lambda t, x, v: t
    with pytest.raises(ValueError, match=r"xs .*\(2, 5\)"):
        SampledField(ts, xs.T, vs, fn(ts, xs, vs))
    with pytest.raises(ValueError, match=r"vs .*\(2, 5\)"):
        SampledField(ts, xs, vs.T, fn(ts, xs, vs))
    one_d = SampledField(ts, xs[:, 0], vs[:, 0], fn(ts, xs, vs))
    assert one_d.xs.shape == one_d.vs.shape == (n, 1)


def test_coordinates_must_be_finite(rng):
    # named at construction, not by the first distance batch of a fit
    n, d = 6, 2
    for name in ("ts", "xs", "vs"):
        arrays = {"ts": rng.uniform(-1, 0, n), "xs": rng.uniform(-1, 1, (n, d)),
                  "vs": rng.uniform(-1, 1, (n, d))}
        arrays[name][3] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite, got .*nan.* at sample 3$"):
            SampledField(arrays["ts"], arrays["xs"], arrays["vs"], np.zeros(n))
    with pytest.raises(ValueError, match="^xs must be finite, got .*inf.* at sample 1$"):
        SampledField.from_csv("t,x0,v0,value\n0,0,0,1\n0,inf,0,1\n")
    # values are left to the fits, which check the samples they read
    assert np.isnan(SampledField(np.zeros(2), np.zeros(2), np.zeros(2), [0.0, np.nan]).values[1])
