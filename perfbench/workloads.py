"""The three workloads: their requests, inputs drawn from the seed, and oracles.

A workload is a fixed cycle of requests.  The seed changes the inputs of each
request (amplitudes, events, evaluation points, frequencies), never the list
of request types, so every run and both sides of a comparison execute the
same mix.  Each request has

- `call`: the library calls that are timed, returning their outputs as one
  float array (the traced/untraced self-check compares these bit for bit);
- `check`: an oracle returning (error, tolerance); the request passes when
  error <= tolerance.  Tolerances are those of the acceptance criteria
  (tests/test_acceptance.py) or, for `apply_pointwise`, the library's own
  certified bound.

The library is called through module attributes (`group.pair_distance_batch`)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from kinlab import group, harness, kernels, operators, spectral

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# Acceptance tolerances (tests/test_acceptance.py).
METRIC_TOL = 1e-9        # criterion 1: bisection tolerance; checks at 3x and 10x
SYMBOL_RTOL = 1e-4       # criterion 3
CONSTANT_ATOL = 1e-8     # criterion 2
QUAD_TOL = 1e-10         # criterion 5: semigroup identity holds to 2 * quad_tol
DRIFT_TOL = 0.20         # criterion 10: ratio drift between the two finest grids


@dataclass
class Request:
    kind: str
    case: str  # key into the known-defect ledger
    call: Callable[[], np.ndarray]
    check: Callable[[np.ndarray], tuple[float, float]]


@dataclass
class Workload:
    cycle: list[Request]
    warmup: list[Request]


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# ---------------------------------------------------------------------------
# sweep: criterion 10, one (s, kernel) pair per request
# ---------------------------------------------------------------------------

SWEEP_S = (0.25, 0.5, 0.75)
SWEEP_KERNELS = ("stable", "profiled_a", "profiled_b", "truncated", "ring")
_SWEEP_COLS = ("numerator", "sup_f", "sem_gamma", "c_norm", "ratio")


def _sweep_request(s: float, name: str, seed: int, ladder=(6, 12)) -> Request:
    def call():
        cfg = harness.HarnessConfig(s, kernels=(name,), ladder=ladder, seed=seed)
        rep = harness.run_schauder_sweep(cfg)
        rows = [r[c] for r in rep.records for c in _SWEEP_COLS]
        return np.array(rows + [float(v) for v in rep.flags.values()])

    def check(out):
        # the kernel's flag (out[-1]) is this drift below DRIFT_TOL
        ratios = out[:-1].reshape(-1, len(_SWEEP_COLS))[:, -1]
        if not np.all(np.isfinite(ratios)):
            return math.inf, DRIFT_TOL
        return abs(ratios[-1] - ratios[-2]) / ratios[-1], DRIFT_TOL

    return Request("sweep", f"sweep/{name}/s{s}", call, check)


def sweep(seed: int) -> Workload:
    # i -> (s, kernel) with gcd(3, 5) = 1 interleaves both.  Ten of the 15
    # pairs (i = 5..14: every kernel at two s, every s with three or four
    # kernels) keep a run near 50 s on a 2-core host; all 15 take 55-75 s,
    # too long for the benchmark's time budget.
    cycle = [
        _sweep_request(SWEEP_S[i % 3], SWEEP_KERNELS[i % 5],
                       int(_substream(seed, i).integers(2**31)))
        for i in range(5, 15)
    ]
    return Workload(cycle, [_sweep_request(0.5, "stable", seed, ladder=(3, 6))])


# ---------------------------------------------------------------------------
# metric: criterion 1 check set at one (s, d)
# ---------------------------------------------------------------------------

METRIC_CASES = tuple((s, d) for s in (0.25, 0.5, 0.75) for d in (1, 2))
METRIC_PAIRS = 10_000


def _events(rng, n, d):
    return rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (n, d))


def _metric_request(rng, s: float, d: int, n: int) -> Request:
    z1, z2, z3 = (_events(rng, n, d) for _ in range(3))
    gt, gx, gv = rng.uniform(-2, 2), rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)
    R = float(rng.uniform(0.5, 2.0))
    left = lambda z: (gt + z[0], gx + z[1] + z[0][:, None] * gv, gv + z[2])
    scaled = lambda z: (z[0] * R ** (2 * s), z[1] * R ** (1 + 2 * s), z[2] * R)
    batches = ((z1, z2), (left(z1), left(z2)), (scaled(z1), scaled(z2)), (z1, z3), (z2, z3))

    def call():
        return np.concatenate([
            group.pair_distance_batch(*a, *b, s, tol=METRIC_TOL) for a, b in batches
        ])

    def check(out):
        d12, dg, dR, d13, d23 = out.reshape(5, n)
        inv = np.max(np.abs(dg - d12) / np.maximum(1.0, d12))
        hom = np.max(np.abs(dR - R * d12) / np.maximum(1.0, R * d12))
        if s >= 0.5:
            excess = d13 - d12 - d23
        else:
            excess = d13 ** (2 * s) - d12 ** (2 * s) - d23 ** (2 * s)
        # triangle slack is 10 tol against 3 tol for the other two checks
        return max(inv, hom, 0.3 * float(np.max(excess))), 3 * METRIC_TOL

    return Request("metric", f"metric/d{d}/s{s}", call, check)


def metric(seed: int) -> Workload:
    cycle = [_metric_request(_substream(seed, i), s, d, METRIC_PAIRS)
             for i, (s, d) in enumerate(METRIC_CASES)]
    warm = [_metric_request(_substream(seed, 100 + d), 0.5, d, 500) for d in (1, 2)]
    return Workload(cycle, warm)


# ---------------------------------------------------------------------------
# operator: kernels, operators, quadrature and spectral over s in [0.1, 0.9]
# ---------------------------------------------------------------------------

OPERATOR_S = (0.1, 0.25, 0.5, 0.75, 0.9)
APPLY_KERNELS = (("stable", 1), ("truncated", 1), ("profiled_a", 1),
                 ("truncated", 2), ("stable", 2))
# Requests of 0.5-2 s (apply on infinite-support kernels, solve on the
# truncated kernel) run at both ends and the middle of the s range only, to
# keep one cycle near 20 s; the cheap ones run at every s.
HEAVY = {("apply_pointwise", "stable"), ("apply_pointwise", "profiled_a"), ("solve", "truncated")}
HEAVY_S = (0.1, 0.5, 0.9)
WARM_REPEATS = 4
# Default far_max_ring = 18 on an infinite-support kernel in d = 2 builds about
# 1.7e8 quadrature nodes (~2.7 GB); see known_defects.json, "excluded".
D2_FAR_MAX_RING = 12


def stable_symbol(s: float, d: int, q: float) -> float:
    """psi(xi) = |xi|^{2s} / C_{d,s} for the isotropic stable kernel."""
    C = s * 4**s * math.gamma(d / 2 + s) / (math.pi ** (d / 2) * math.gamma(1 - s))
    return q ** (2 * s) / C


def _one_minus_cos_mellin(z):
    """int_0^inf (1 - cos r) r^{-1-z} dr = pi / (2 Gamma(1+z) sin(pi z / 2)), 0 < Re z < 2."""
    return np.pi / (2 * special.gamma(1 + z) * np.sin(np.pi * z / 2))


def symbol_e1(kind: str, s: float, d: int) -> float:
    """psi(e_1) of harness.kernel_bank(s, d)[kind], computed without kinlab."""
    if kind == "stable":
        return stable_symbol(s, d, 1.0)
    if kind == "profiled_a":
        # density (1 + cos(b log r)/2) r^{-1-2s}, b = 2 pi / ln 2: three Mellin terms
        b = 2 * math.pi / math.log(2)
        return float(2 * (_one_minus_cos_mellin(2 * s)
                          + 0.5 * _one_minus_cos_mellin(2 * s - 1j * b)).real)
    if kind == "truncated":
        # term-wise integration over the unit ball of the Taylor series of
        # 1 - cos r (d = 1) or 2 pi (1 - J0(r)) (d = 2) against r^{-1-2s}
        if d == 1:
            terms = [2 * (-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k - 2 * s))
                     for k in range(1, 30)]
        else:
            terms = [2 * math.pi * (-1) ** (k + 1)
                     / (4**k * math.factorial(k) ** 2 * (2 * k - 2 * s)) for k in range(1, 30)]
        return math.fsum(terms)
    raise ValueError(kind)


def _cos_first(w):
    return np.cos(w[:, 0])


def _apply_request(K, kind, s, d, v0, omega) -> Request:
    kw = {"far_max_ring": D2_FAR_MAX_RING} if kind == "stable" and d == 2 else {}
    reg = (1.0, 2.0 - 2.0 * s)  # |2 cos(v0)(cos w - 1)| <= |w|^2 = |w|^{2s + eps}
    exact = -symbol_e1(kind, s, d) * math.cos(v0[0])

    def call():
        return np.array(operators.apply_pointwise(K, _cos_first, v0, reg, omega, **kw))

    def check(out):
        return abs(out[0] - exact), out[1]

    return Request("apply_pointwise", f"apply_pointwise/{kind}/d{d}/s{s}", call, check)


def _symbol_request(s, d, xi, kernel=None) -> Request:
    exact = stable_symbol(s, d, float(np.linalg.norm(xi)))

    def call():
        K = kernels.StableLike(s, d) if kernel is None else kernel
        return np.array([kernels.symbol(K, xi)])

    def check(out):
        return abs(out[0] - exact) / exact, SYMBOL_RTOL

    kind = "symbol_cold" if kernel is None else "symbol_warm"
    return Request(kind, f"symbol/stable/d{d}/s{s}", call, check)


def _solve_request(kind, s, modes) -> Request:
    def call():
        K = kernels.StableLike(s, 1) if kind == "stable" else kernels.TruncatedStable(s, 1, cutoff=1.0)
        f0 = spectral.SpectralField(modes)
        two = spectral.solve(spectral.solve(f0, K, None, 1.0, QUAD_TOL), K, None, 1.0, QUAD_TOL)
        once = spectral.solve(f0, K, None, 2.0, QUAD_TOL)
        keys = sorted(set(two.modes) | set(once.modes))
        a = np.array([two.modes.get(k, 0j) for k in keys])
        b = np.array([once.modes.get(k, 0j) for k in keys])
        return np.concatenate([a.real, a.imag, b.real, b.imag])

    def check(out):
        a_re, a_im, b_re, b_im = out.reshape(4, -1)
        return float(np.max(np.abs((a_re - b_re) + 1j * (a_im - b_im)))), 2 * QUAD_TOL

    return Request("solve", f"solve/{kind}/s{s}", call, check)


def _constant_request(s, d, radii) -> Request:
    exact = _SPHERE_AREA[d] / (2.0 - 2.0 * s)

    def call():
        return np.array([kernels.upper_bound_constant(kernels.StableLike(s, d), radii)])

    def check(out):
        return abs(out[0] - exact), CONSTANT_ATOL

    return Request("upper_bound_constant", f"upper_bound_constant/stable/d{d}/s{s}", call, check)


def _frequency(rng, d):
    u = rng.normal(size=d)
    return u / np.linalg.norm(u) * math.exp(rng.uniform(math.log(0.5), math.log(8.0)))


def _amplitude(rng):
    return complex(rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2))


def operator(seed: int) -> Workload:
    cycle, warm = [], []
    for i, s in enumerate(OPERATOR_S):
        rng = _substream(seed, i)
        omega = operators.Majorant(lambda r: 1.0, s, "sup |cos|")
        banks = {d: harness.kernel_bank(s, d) for d in (1, 2)}
        light = s not in HEAVY_S
        for kind, d in APPLY_KERNELS:
            v0 = rng.uniform(-1, 1, d)
            if not (light and ("apply_pointwise", kind) in HEAVY):
                cycle.append(_apply_request(banks[d][kind], kind, s, d, v0, omega))
        for d in (1, 2, 3):
            cycle.append(_symbol_request(s, d, _frequency(rng, d)))
        for d in (1, 2, 3):
            K = kernels.StableLike(s, d)
            warm.append(_symbol_request(s, d, _frequency(rng, d), K))
            cycle.extend(_symbol_request(s, d, _frequency(rng, d), K)
                         for _ in range(WARM_REPEATS))
        for kind in ("truncated", "stable"):
            modes = {(1, 1): _amplitude(rng), (0, 2): _amplitude(rng)}
            if not (light and ("solve", kind) in HEAVY):
                cycle.append(_solve_request(kind, s, modes))
        for d in (1, 2):
            radii = tuple(np.sort(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))))
            cycle.append(_constant_request(s, d, radii))
    rng = _substream(seed, 100)
    bank = harness.kernel_bank(0.5, 1)
    warm += [
        _apply_request(bank["truncated"], "truncated", 0.5, 1, rng.uniform(-1, 1, 1),
                       operators.Majorant(lambda r: 1.0, 0.5)),
        _symbol_request(0.5, 1, _frequency(rng, 1)),
        _solve_request("stable", 0.5, {(1, 1): _amplitude(rng), (0, 2): _amplitude(rng)}),
        _constant_request(0.5, 1, (0.25, 1.0, 4.0)),
    ]
    return Workload(cycle, warm)


WORKLOADS = {"sweep": sweep, "metric": metric, "operator": operator}
