"""Exact Fourier-side solver for f_t + v f_x = L f + c with a fixed kernel.

On a periodic (x, v) cell the double Fourier transform turns transport into
a shift along v-frequency characteristics and L into multiplication by the
symbol, so the solution is exact per mode up to one scalar quadrature of
the symbol along the characteristic.  Phase space is one-dimensional here
(d = 1 in x and v).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as sintegrate

from .kernels import Kernel, symbol

__all__ = [
    "SpectralField",
    "SourceSpec",
    "OffLatticeError",
    "solve",
    "residual_check",
]


class OffLatticeError(ValueError):
    """The characteristic shift t * k * P_v / P_x left the mode lattice."""


def _hermitize(modes: dict) -> dict:
    out = dict(modes)
    for (k, m), a in modes.items():
        key = (-k, -m)
        if key not in out:
            out[key] = np.conj(a)
        elif abs(out[key] - np.conj(a)) > 1e-9 * max(1.0, abs(a)):
            raise ValueError(f"Hermitian symmetry violated at mode {(k, m)}")
    return out


class SpectralField:
    """Finite mode set {(k, m): amplitude} on a periodic (x, v) cell.

    The represented field is sum a_{k,m} exp(i (2 pi k / P_x) x + i (2 pi
    m / P_v) v); Hermitian symmetry (real fields) is enforced, missing
    conjugate modes are filled in.
    """

    def __init__(self, modes: dict, periods: tuple[float, float] = (2 * math.pi, 2 * math.pi),
                 time: float = 0.0):
        self.periods = (float(periods[0]), float(periods[1]))
        if self.periods[0] <= 0 or self.periods[1] <= 0:
            raise ValueError("periods must be positive")
        self.modes = {
            (int(k), int(m)): complex(a) for (k, m), a in _hermitize(modes).items() if a != 0
        }
        self.time = float(time)

    def kappa(self, k: int) -> float:
        return 2.0 * math.pi * k / self.periods[0]

    def xi(self, m: int) -> float:
        return 2.0 * math.pi * m / self.periods[1]

    def __len__(self) -> int:
        return len(self.modes)

    def evaluate(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = np.zeros(np.broadcast(xs, vs).shape, dtype=complex)
        for (k, m), a in self.modes.items():
            out += a * np.exp(1j * (self.kappa(k) * xs + self.xi(m) * vs))
        return out.real

    def l2_norm_sq(self) -> float:
        """Mode-side Parseval sum: sum |a|^2 (cell-average normalization)."""
        return float(sum(abs(a) ** 2 for a in self.modes.values()))

    def to_csv(self) -> str:
        lines = ["k,m,re,im"]
        for (k, m), a in sorted(self.modes.items()):
            lines.append(f"{k},{m},{a.real!r},{a.imag!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, periods=(2 * math.pi, 2 * math.pi), time: float = 0.0):
        modes = {}
        for line in text.strip().splitlines()[1:]:
            k, m, re, im = line.split(",")
            modes[(int(k), int(m))] = complex(float(re), float(im))
        return cls(modes, periods=periods, time=time)


@dataclass(frozen=True)
class SourceSpec:
    """Source c(t, x, v) = sum a_{k,m} e^{i omega_{k,m} t} e^{i(kappa x + xi v)}.

    Stored as {(k, m): (amplitude, omega)}; constant-in-time modes have
    omega = 0.  Only x-independent modes (k = 0) admit exact Duhamel
    integration on a fixed mode lattice, so k != 0 entries are rejected.
    """

    modes: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (k, m), (amp, omega) in self.modes.items():
            if k != 0:
                raise ValueError("source modes must be x-independent (k = 0)")
            clean[(int(k), int(m))] = (complex(amp), float(omega))
        # Hermitian symmetry: (0, -m) carries (conj(amp), -omega).
        for (k, m), (amp, omega) in list(clean.items()):
            key = (0, -m)
            if key not in clean:
                clean[key] = (np.conj(amp), -omega)
        object.__setattr__(self, "modes", clean)

    def evaluate(self, ts, xs, vs, periods) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = np.zeros(np.broadcast(ts, vs).shape, dtype=complex)
        for (k, m), (amp, omega) in self.modes.items():
            xi = 2.0 * math.pi * m / periods[1]
            out += amp * np.exp(1j * (omega * ts + xi * vs))
        return out.real


def _psi(K: Kernel, xi: float) -> float:
    """symbol(K, xi) in d = 1, memoized by |xi|: psi is even."""
    return _psi_even(K, abs(xi))


@functools.lru_cache(maxsize=4096)
def _psi_even(K: Kernel, q: float) -> float:
    """symbol(K, q) for q >= 0, memoized; bounded, since every entry keeps its kernel alive."""
    return symbol(K, [q])


def _psi_line_integral(K: Kernel, xi: float, kappa: float, dt: float, quad_tol: float) -> float:
    """int_0^dt psi(xi + sigma * kappa) d sigma."""
    if dt == 0.0:
        return 0.0
    if kappa == 0.0:
        return _psi(K, xi) * dt
    # substitute u = xi + sigma kappa: (1/kappa) int_xi^{xi + dt kappa} psi(u) du
    u0, u1 = xi, xi + dt * kappa
    if K.homogeneous:
        psi1 = _psi(K, 1.0)
        two_s = K.s.two_s
        anti = lambda u: math.copysign(abs(u) ** (1.0 + two_s), u) / (1.0 + two_s)
        return psi1 * (anti(u1) - anti(u0)) / kappa
    lo, hi = min(u0, u1), max(u0, u1)
    pts = [0.0] if lo < 0.0 < hi else None
    val, _ = sintegrate.quad(lambda u: _psi(K, u), lo, hi, points=pts,
                             epsabs=quad_tol, limit=200)
    # dt > 0 means sign(u1 - u0) = sign(kappa), so the oriented integral
    # divided by kappa is val / |kappa|.
    return val / abs(kappa)


def _duhamel_k0(psi: float, omega: float, amp: complex, t: float) -> complex:
    """int_0^t amp e^{i omega tau} e^{-psi (t - tau)} d tau, stably for small psi."""
    z = complex(psi, omega)
    if abs(z) * t < 1e-8:
        return amp * t * math.exp(-psi * t) * (1.0 + z * t / 2.0 + (z * t) ** 2 / 6.0)
    return amp * (np.exp(1j * omega * t) - np.exp(-psi * t)) / z


def solve(
    f0: SpectralField,
    K: Kernel,
    c: SourceSpec | None,
    t: float,
    quad_tol: float = 1e-10,
    interpolate: bool = False,
) -> SpectralField:
    """Advance the constant-kernel equation by time t, exactly per mode.

    The v-frequency characteristic shift for an x-mode k is t k P_v / P_x
    lattice units; non-integer shifts raise OffLatticeError unless
    band-limited (Dirichlet kernel) interpolation is enabled.  quad_tol is the absolute
    accuracy of the quadrature of psi along an x-mode's characteristic (K not homogeneous).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    Px, Pv = f0.periods
    out: dict = {}
    if t == 0.0:
        new = dict(f0.modes)
    else:
        new = {}
        for (k, m), a in f0.modes.items():
            shift = t * k * Pv / Px
            shift_int = round(shift)
            if abs(shift - shift_int) > 1e-9:
                if not interpolate:
                    raise OffLatticeError(
                        f"shift {shift} for mode k={k} is off-lattice at t={t}"
                    )
                _spread_interpolated(new, f0, K, k, m, a, t, shift, quad_tol)
                continue
            # amplitude lands at index m' with m' + shift = m
            m_new = m - shift_int
            xi_new = f0.xi(m_new)
            decay = _psi_line_integral(K, xi_new, f0.kappa(k), t, quad_tol)
            val = a * math.exp(-decay)
            new[(k, m_new)] = new.get((k, m_new), 0.0) + val
    if c is not None:
        for (k, m), (amp, omega) in c.modes.items():
            psi = _psi(K, f0.xi(m))
            new[(0, m)] = new.get((0, m), 0.0) + _duhamel_k0(psi, omega, amp, t)
    return SpectralField(new, periods=f0.periods, time=f0.time + t)


def _spread_interpolated(new: dict, f0: SpectralField, K: Kernel, k: int, m: int,
                         a: complex, t: float, shift: float, quad_tol: float,
                         bandwidth: int = 32):
    """Distribute an off-lattice characteristic landing over nearby modes.

    Band-limited model: the amplitude at fractional index m - shift is
    spread with the periodic Dirichlet kernel over the 2*bandwidth + 1
    nearest lattice modes.
    """
    target = m - shift
    base = int(round(target))
    n_modes = 2 * bandwidth + 1
    for mm in range(base - bandwidth, base + bandwidth + 1):
        u = target - mm
        # periodic sinc (Dirichlet) weight
        if abs(u) < 1e-14:
            w = 1.0
        else:
            w = math.sin(math.pi * u) / (n_modes * math.tan(math.pi * u / n_modes))
        decay = _psi_line_integral(K, f0.xi(mm), f0.kappa(k), t, quad_tol)
        val = a * w * math.exp(-decay)
        if val != 0:
            new[(k, mm)] = new.get((k, mm), 0.0) + val


def residual_check(
    fields: list[SpectralField],
    K: Kernel,
    c: SourceSpec | None,
    x_grid: np.ndarray,
    v_grid: np.ndarray,
) -> float:
    """Max-norm of f_t + v f_x - L f - c at the middle time sample.

    f_t uses the 5-point 4th-order stencil (uniform time samples required);
    transport and L are evaluated spectrally, so their error is round-off.
    """
    if len(fields) < 5:
        raise ValueError("need at least 5 time samples")
    times = np.array([f.time for f in fields])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10):
        raise ValueError("time samples must be uniform")
    mid = len(fields) // 2
    h = float(dts[0])
    # 4th-order first derivative using the 5 samples around mid
    stencil = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
    X, V = np.meshgrid(np.asarray(x_grid, float), np.asarray(v_grid, float), indexing="ij")
    ft = np.zeros_like(X)
    for off, w in stencil.items():
        ft += (w / h) * fields[mid + off].evaluate(X, V)
    fmid = fields[mid]
    trans = np.zeros_like(X)
    lf = np.zeros_like(X)
    for (k, m), a in fmid.modes.items():
        phase = np.exp(1j * (fmid.kappa(k) * X + fmid.xi(m) * V))
        trans += (a * 1j * fmid.kappa(k) * V * phase).real
        lf += (-_psi(K, fmid.xi(m)) * a * phase).real
    resid = ft + trans - lf
    if c is not None:
        resid -= c.evaluate(fmid.time, X, V, fmid.periods)
    return float(np.max(np.abs(resid)))
