"""Discrete stand-ins for phase-space functions.

A SampledField is a flat list of (t, x, v) points with scalar values.  CSV
layout: header t, x0..x{d-1}, v0..v{d-1}, value.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .group import Point, _as_coords, _as_exponent

__all__ = ["SampledField"]


class SampledField:
    """Point cloud with values: ts (n,), xs (n,d), vs (n,d), values (n,).

    xs and vs of shape (n,) are read as d = 1; any other shape raises, as does
    a non-finite coordinate.  values are checked by the fits that read them.
    """

    def __init__(self, ts, xs, vs, values):
        self.ts = np.asarray(ts, dtype=float).ravel()
        self.xs = _as_coords("xs", xs, len(self.ts))
        self.vs = _as_coords("vs", vs, len(self.ts))
        for name, a in (("ts", self.ts), ("xs", self.xs), ("vs", self.vs)):
            bad = np.flatnonzero(~np.isfinite(a.reshape(len(a), -1)).all(axis=1))
            if len(bad):
                raise ValueError(f"{name} must be finite, got {a[bad[0]]} at sample {bad[0]}")
        self.values = np.asarray(values, dtype=float).ravel()
        if len(self.values) != len(self.ts):
            raise ValueError(f"mismatched array lengths: {len(self.values)} values for {len(self.ts)} samples")

    @property
    def n(self) -> int:
        return len(self.ts)

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def point(self, i: int) -> Point:
        return Point(self.ts[i], self.xs[i], self.vs[i])

    def translated(self, z0: Point) -> "SampledField":
        """Field g(z) = f(z0 o z) on the same sample lattice."""
        if z0.d != self.d:
            raise ValueError(f"dimension mismatch: a point of dimension {z0.d} for a field of dimension {self.d}")
        # g at z0^{-1} o z_i takes the value f(z_i): relabel points, exact.
        new_ts = self.ts - z0.t
        new_vs = self.vs - z0.v[None, :]
        new_xs = self.xs - z0.x[None, :] - (self.ts - z0.t)[:, None] * z0.v[None, :]
        return SampledField(new_ts, new_xs, new_vs, self.values.copy())

    def scaled(self, R: float, s) -> "SampledField":
        """Field f(S_R .) sampled on the S_{1/R}-image of the lattice."""
        s = _as_exponent(s)
        two_s = s.two_s
        return SampledField(self.ts / R**two_s, self.xs / R ** (1 + two_s), self.vs / R,
                            self.values.copy())

    # -- CSV ----------------------------------------------------------------
    def to_csv(self) -> str:
        d = self.d
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t"] + [f"x{i}" for i in range(d)] + [f"v{i}" for i in range(d)] + ["value"])
        for i in range(self.n):
            w.writerow(
                [repr(float(self.ts[i]))]
                + [repr(float(x)) for x in self.xs[i]]
                + [repr(float(v)) for v in self.vs[i]]
                + [repr(float(self.values[i]))]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SampledField":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        d = sum(1 for h in header if h.startswith("x"))
        data = np.array([[float(c) for c in row] for row in rows[1:] if row])
        return cls(data[:, 0], data[:, 1 : 1 + d], data[:, 1 + d : 1 + 2 * d], data[:, -1])
