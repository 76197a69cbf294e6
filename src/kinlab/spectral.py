"""Exact Fourier-side solver for f_t + v f_x = L f + c with a fixed kernel.

On modes e^{i(kappa x + xi v)}, periodic in x, transport moves the
v-frequency along the characteristic xi - kappa t and L multiplies by the
symbol, so the solution is exact per mode at every time given the integral
of the symbol along the characteristic: a closed form for every kernel that
`symbol` takes.  Phase space is one-dimensional here (d = 1 in x and v).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (Kernel, LogPeriodic, _finite_support_integral, _no_symbol, _phi,
                      _power_symbol_constant, symbol)

__all__ = [
    "SpectralField",
    "SourceSpec",
    "solve",
    "residual_check",
]


def _mode_key(k, m) -> tuple:
    """(k, m) as an int k and an m that is an int where integral and a float otherwise; a
    non-integer k or a non-finite index raises."""
    fk, fm = float(k), float(m)
    if not (math.isfinite(fk) and math.isfinite(fm)):
        raise ValueError(f"mode indices must be finite, got {(k, m)}")
    if not fk.is_integer():
        raise ValueError(f"x-index k must be an integer, got {k} in mode {(k, m)}")
    return int(fk), int(fm) if fm.is_integer() else fm


def _hermitize(modes: dict, conj=lambda a: a.conjugate()) -> dict:
    """modes keyed by `_mode_key`, with each missing (-k, -m) set to conj of the value at (k, m);
    a non-finite value, or a (-k, -m) present that is not that conj to 1e-9 relative, raises."""
    out = {_mode_key(*key): a for key, a in modes.items()}
    for (k, m), a in list(out.items()):
        if not cmath.isfinite(a):
            raise ValueError(f"mode {(k, m)} must be finite, got {a}")
        key, c = (-k, -m), conj(a)
        if key not in out:
            out[key] = c
        elif abs(out[key] - c) > 1e-9 * max(1.0, abs(a)):
            raise ValueError(f"Hermitian symmetry violated at mode {(k, m)}: {key} holds {out[key]}, "
                             f"not the conjugate {c}")
    return out


class SpectralField:
    """Finite mode set {(k, m): amplitude}, periodic in x.

    The represented field is sum a_{k,m} exp(i (2 pi k / P_x) x + i (2 pi m / P_v) v), with an
    integer x-index k and a real v-index m, kept as an int where integral: the field is
    periodic in v only while every m is an integer.  Hermitian symmetry (real fields) is
    enforced, missing conjugate modes are filled in.
    """

    def __init__(self, modes: dict, periods: tuple[float, float] = (2 * math.pi, 2 * math.pi),
                 time: float = 0.0):
        self.periods = (float(periods[0]), float(periods[1]))
        if not all(0.0 < p < math.inf for p in self.periods):
            raise ValueError(f"periods must be finite and positive, got {self.periods}")
        self.modes = {key: complex(a) for key, a in _hermitize(modes).items() if a != 0}
        self.time = float(time)
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time}")

    def kappa(self, k: int) -> float:
        return 2.0 * math.pi * k / self.periods[0]

    def xi(self, m: float) -> float:
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
        """Mode-side Parseval sum: sum |a|^2, the mean of f^2 over an x-period and over v (over
        one v-period where every m is an integer)."""
        return float(sum(abs(a) ** 2 for a in self.modes.values()))

    def to_csv(self) -> str:
        """Two tables: the line px,pv,time and its values, then k,m,re,im and a line per mode."""
        lines = ["px,pv,time", f"{self.periods[0]!r},{self.periods[1]!r},{self.time!r}", "k,m,re,im"]
        for (k, m), a in sorted(self.modes.items()):
            lines.append(f"{k},{m},{a.real!r},{a.imag!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str):
        lines = text.strip().splitlines()
        px, pv, time = map(float, lines[1].split(","))
        modes = {}
        for line in lines[3:]:
            k, m, re, im = line.split(",")
            modes[(float(k), float(m))] = complex(float(re), float(im))
        return cls(modes, periods=(px, pv), time=time)


@dataclass(frozen=True)
class SourceSpec:
    """Source c(t, x, v) = sum a_{k,m} e^{i omega_{k,m} t} e^{i(kappa x + xi v)}.

    Stored as {(k, m): (amplitude, omega)} with a real v-index m, as in `SpectralField`;
    constant-in-time modes have omega = 0.  Only x-independent modes (k = 0) are taken: their
    Duhamel integral is closed form, while a k != 0 mode's needs a 1-D integral over time of
    the decay along its characteristic.
    """

    modes: dict = field(default_factory=dict)

    def __post_init__(self):
        # Hermitian symmetry: (0, -m) carries (conj(amp), -omega).
        amps = _hermitize({key: complex(amp) for key, (amp, _) in self.modes.items()})
        omegas = _hermitize({key: float(omega) for key, (_, omega) in self.modes.items()},
                            lambda omega: -omega)
        for k, m in amps:
            if k != 0:
                raise ValueError(f"source modes must be x-independent (k = 0), got mode ({k}, {m})")
        object.__setattr__(self, "modes", {key: (amps[key], omegas[key]) for key in amps})

    def evaluate(self, ts, vs, periods) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = np.zeros(np.broadcast(ts, vs).shape, dtype=complex)
        for (k, m), (amp, omega) in self.modes.items():
            xi = 2.0 * math.pi * m / periods[1]
            out += amp * np.exp(1j * (omega * ts + xi * vs))
        return out.real


def _symbol_table(K: Kernel):
    """psi(xi) = symbol(K, [|xi|]) in d = 1, each |xi| computed once per table: psi is even."""
    table: dict = {}

    def psi(xi: float) -> float:
        if abs(xi) not in table:
            table[abs(xi)] = symbol(K, [abs(xi)])
        return table[abs(xi)]

    return psi


def _psi_line_integral(K: Kernel, xi: float, kappa: float, dt: float, psi) -> float:
    """int_0^dt psi(xi + sigma * kappa) d sigma, in closed form for every kernel `symbol` takes;
    psi is K's `_symbol_table`."""
    if dt == 0.0:
        return 0.0
    if kappa == 0.0:
        return psi(xi) * dt
    # substitute u = xi + sigma kappa: (1/kappa) int_u0^u1 psi(u) du
    u0, u1 = xi, xi + dt * kappa
    if K.homogeneous:
        p = 1.0 + K.s.two_s
        anti = lambda u: math.copysign(abs(u) ** p, u) / p
        return psi(1.0) * (anti(u1) - anti(u0)) / kappa
    if isinstance(K, LogPeriodic):
        # psi(u) = sum Re c C_1(z) |u|^z, integrated power by power
        c, z = K.powers()
        anti = lambda u: np.sign(u) * abs(u) ** (1.0 + z) / (1.0 + z)
        return float(np.sum(c * _power_symbol_constant(z, 1) * (anti(u1) - anti(u0))).real) / kappa
    if math.isfinite(K.support_radius):
        # int_u0^u1 (1 - cos(u w)) du = [phi(u1 w) - phi(u0 w)] / w with phi(x) = x - sin x,
        # which is (u1^3 - u0^3) w^2 / 6 + O(w^4) at 0: one ring integral over w
        h = lambda w: (_phi(u1 * w[:, 0]) - _phi(u0 * w[:, 0])) / w[:, 0]
        return _finite_support_integral(K, h, max(abs(u0), abs(u1)), (u1**3 - u0**3) / 3.0,
                                        [1.0]) / kappa
    raise _no_symbol(K)


def _duhamel_k0(psi: float, omega: float, amp: complex, t: float) -> complex:
    """int_0^t amp e^{i omega tau} e^{-psi (t - tau)} d tau, stably for small psi."""
    z = complex(psi, omega)
    if abs(z) * t < 1e-8:
        return amp * t * math.exp(-psi * t) * (1.0 + z * t / 2.0 + (z * t) ** 2 / 6.0)
    return amp * (np.exp(1j * omega * t) - np.exp(-psi * t)) / z


def _evolve(f0: SpectralField, K: Kernel, c: SourceSpec | None, ts) -> list[SpectralField]:
    """`solve`'s body at each time t of ts, f0 advanced by t, with each |xi|'s symbol computed
    once for all of them."""
    if K.d != 1:
        raise ValueError(f"solve needs a kernel in d = 1, got d = {K.d}")
    psi = _symbol_table(K)
    fields = []
    for t in ts:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and nonnegative, got {t}")
        # one line integral per Hermitian pair of landed modes: psi is even, and the closed
        # forms give the same value at (-k, -m) to the bit
        decays: dict = {}
        new: dict = {}
        for (k, m), a in f0.modes.items():
            shift = t * k * f0.periods[1] / f0.periods[0]
            landing = m - shift
            if abs(landing - round(landing)) <= 4.0 * math.ulp(shift):
                landing = round(landing)
            key = _mode_key(k, landing)
            pair = max(key, (-key[0], -key[1]))
            if pair not in decays:
                decays[pair] = _psi_line_integral(K, f0.xi(pair[1]), f0.kappa(pair[0]), t, psi)
            new[key] = new.get(key, 0.0) + a * math.exp(-decays[pair])
        if c is not None:
            for (k, m), (amp, omega) in c.modes.items():
                new[(0, m)] = new.get((0, m), 0.0) + _duhamel_k0(psi(f0.xi(m)), omega, amp, t)
        fields.append(SpectralField(new, periods=f0.periods, time=f0.time + t))
    return fields


def solve(
    f0: SpectralField,
    K: Kernel,
    c: SourceSpec | None,
    t: float,
    quad_tol: float = 1e-10,
) -> SpectralField:
    """Advance the constant-kernel equation by any finite time t >= 0, exactly per mode.

    The x-mode k at v-index m lands at the real v-index m - t k P_v / P_x (an integer if within
    four ulps of the shift, its own rounding, of one), damped by exp of minus the closed-form
    integral of psi along its characteristic; quad_tol is only checked to be finite and
    positive.  Each source mode adds its Duhamel integral to its own mode.  K must be a
    kernel in d = 1.
    """
    if not 0.0 < quad_tol < math.inf:
        raise ValueError(f"quad_tol must be finite and positive, got {quad_tol}")
    return _evolve(f0, K, c, [t])[0]


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
        raise ValueError(f"need at least 5 time samples, got {len(fields)}")
    times = np.array([f.time for f in fields])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10):
        raise ValueError(f"time samples must be uniform, got times {times.tolist()}")
    mid = len(fields) // 2
    h = float(dts[0])
    psi = _symbol_table(K)
    X, V = np.meshgrid(np.asarray(x_grid, float), np.asarray(v_grid, float), indexing="ij")
    # 4th-order first derivative using the 5 samples around mid
    stencil = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
    resid = sum((w / h) * fields[mid + off].evaluate(X, V) for off, w in stencil.items())
    fmid = fields[mid]
    for (k, m), a in fmid.modes.items():
        # transport i kappa v and -L = psi(xi), on the mode's phase
        phase = np.exp(1j * (fmid.kappa(k) * X + fmid.xi(m) * V))
        resid += (a * (1j * fmid.kappa(k) * V + psi(fmid.xi(m))) * phase).real
    if c is not None:
        resid -= c.evaluate(fmid.time, V, fmid.periods)
    return float(np.max(np.abs(resid)))
