"""End-to-end regularity experiments on exact spectral solutions.

The centerpiece sweeps kernel/exponent configurations, solves the constant
kernel equation exactly on the Fourier side, and estimates the ratio

    [f]_{C^{2s+alpha} on the half cylinder} / (||f||_{C^gamma} + ||c||_{C^alpha})

across a ladder of sampling grids.  No closed-form constant exists for this
ratio, so the acceptance notion is stability under refinement.  The module
also measures empirical Hölder decay exponents, operator regularity ratios,
residuals of translated-polynomial solutions, and the constants of
[D f]_{C^(alpha - deg D)} <= C [f]_{C^alpha} for the kinetic differentials D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import SampledField
from .group import Point, _as_exponent, left_distance_batch
from .holder import fit_expansions, seminorm
from .kernels import (
    Kernel,
    LogPeriodic,
    RingMeasure,
    StableLike,
    TruncatedStable,
    _ring_profile_norm,
)
from .operators import Majorant, apply_pointwise
from .polynomials import KineticPolynomial, differentiate, left_translate, monomial_basis
from .quadrature import ball_rings, kronrod_rings
from .spectral import SourceSpec, SpectralField, solve

__all__ = [
    "HarnessConfig",
    "SweepReport",
    "kernel_bank",
    "run_schauder_sweep",
    "measure_holder_decay",
    "operator_regularity_ratio",
    "liouville_residual",
    "derivative_shift_constants",
]

# Lattice refinement of the v-period relative to the x-period; time steps
# j / n with n dividing this stay on the mode lattice for |k| = 1.
_N_LATTICE = 24
# The sweep cylinders Q_1 and Q_1/2 about (1, 0, 0) are closed: d_l <= R (1 +
# _CLOSED_RTOL).  A third of each sweep grid lies on d_l = 1 exactly (the t = 0
# slab, the v = +-2 rows), and some of it on d_l = 1/2; their computed
# distances are within 1e-15 R of R, and at s = 1/4, 1/2, 3/4 every other grid
# distance is at least 3e-4 from it, so the slack decides the sphere only.
_CLOSED_RTOL = 1e-12


@dataclass
class HarnessConfig:
    """One sweep configuration: exponents, kernel names, grid ladder, seed.

    gamma defaults to 0.8 * min(1, 2s); alpha is tied to gamma by the
    scaling-critical relation alpha = 2s * gamma / (1 + 2s).
    """

    s: float
    gamma: float | None = None
    kernels: tuple[str, ...] = ("stable", "profiled_a", "profiled_b", "truncated", "ring")
    ladder: tuple[int, ...] = (6, 12, 24)
    seed: int = 0

    def __post_init__(self):
        self.s = float(self.s)
        two_s = 2.0 * self.s
        if self.gamma is None:
            self.gamma = 0.8 * min(1.0, two_s)
        if not 0.0 < self.gamma < min(1.0, two_s):
            raise ValueError("need 0 < gamma < min(1, 2s)")
        self.alpha = two_s * self.gamma / (1.0 + two_s)
        for a, b in zip(self.ladder, self.ladder[1:]):
            if b != 2 * a:
                raise ValueError("ladder must double at each level")
        if any(_N_LATTICE % n for n in self.ladder):
            raise ValueError(f"ladder entries must divide {_N_LATTICE}")


@dataclass
class SweepReport:
    """Sweep records, and per kernel its stability flag and ratio drift.

    `flags` and `drift` share their keys; a flag is set when its drift, the
    relative change of the ratio between the two finest grids, is below 20%.
    """

    records: list = dc_field(default_factory=list)
    flags: dict = dc_field(default_factory=dict)
    drift: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_csv(self) -> str:
        cols = ["kernel", "s", "grid", "numerator", "sup_f", "sem_gamma", "c_norm", "ratio"]
        lines = [",".join(cols)]
        for r in self.records:
            lines.append(",".join(f"{r[c]:.10g}" if isinstance(r[c], float) else str(r[c])
                                  for c in cols))
        return "\n".join(lines) + "\n"


def kernel_bank(s: float, d: int = 1) -> dict[str, Kernel]:
    """The default five-kernel family at a given order.

    In one dimension evenness leaves no angular freedom, so the two
    non-isotropic entries modulate the radial profile log-periodically
    instead (`LogPeriodic`): profiled_a by 1 + cos(2 pi log2|w|) / 2, profiled_b by
    1 + 0.4 sin(pi log2|w| + 1); both stay pinched between stable densities.
    """
    masses = {k: _ring_profile_norm(s, d, k) * (1.0 + 0.8 * (-1.0) ** k) for k in range(-12, 5)}
    return {
        "stable": StableLike(s, d),
        "profiled_a": LogPeriodic(s, d, [(0.5, 2.0 * math.pi / math.log(2.0), 0.0)]),
        "profiled_b": LogPeriodic(s, d, [(0.4, math.pi / math.log(2.0), 1.0 - 0.5 * math.pi)]),
        "truncated": TruncatedStable(s, d, cutoff=1.0),
        "ring": RingMeasure(s, d, masses),
    }


# ---------------------------------------------------------------------------
# Sweep machinery.
# ---------------------------------------------------------------------------


def _sweep_problem(K: Kernel, rng: np.random.Generator):
    """Initial mode set and source for one sweep entry.

    Non-homogeneous kernels get x-independent data so every decay factor is
    a single symbol evaluation; the homogeneous stable kernel also carries
    an x-mode whose characteristic integral has a closed form.
    """
    periods = (2.0 * math.pi, 2.0 * math.pi * _N_LATTICE)
    amp = lambda: complex(rng.uniform(0.1, 0.3), rng.uniform(-0.1, 0.1))
    modes = {(0, _N_LATTICE): amp(), (0, 2 * _N_LATTICE): 0.4 * amp()}
    if K.homogeneous:
        modes[(1, _N_LATTICE)] = 0.6 * amp()
    f0 = SpectralField(modes, periods=periods)
    src = SourceSpec({
        (0, _N_LATTICE): (0.5 * amp(), 0.0),
        (0, 3 * _N_LATTICE): (0.05, 1.5),
    })
    return f0, src


def _sample_solution(K: Kernel, f0: SpectralField, src: SourceSpec, n: int) -> SampledField:
    """Exact solution sampled on an (n+1)^3 tensor grid over [0,1] x [-1,1] x [-2,2]."""
    xg = np.linspace(-1.0, 1.0, n + 1)
    vg = np.linspace(-2.0, 2.0, n + 1)
    X, V = np.meshgrid(xg, vg, indexing="ij")
    ts, xs, vs, vals = [], [], [], []
    for j in range(n + 1):
        t = j / n
        ft = solve(f0, K, src, t)
        vals.append(ft.evaluate(X, V).ravel())
        ts.append(np.full(X.size, t))
        xs.append(X.ravel())
        vs.append(V.ravel())
    return SampledField(
        np.concatenate(ts), np.concatenate(xs)[:, None], np.concatenate(vs)[:, None],
        np.concatenate(vals), metadata=f"sweep n={n}",
    )


def _coarse_subset(idx: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if len(idx) <= cap:
        return idx
    return np.sort(rng.choice(idx, size=cap, replace=False))


def _masked_seminorm(f: SampledField, base_idx, alpha, s, mask, cache) -> float:
    if int(np.sum(mask)) < len(monomial_basis(alpha, s, f.d)):
        return 0.0
    resid = fit_expansions(f, [f.point(int(i)) for i in base_idx], alpha, s, cache, mask)[1]
    return float(np.max(resid, initial=0.0))


def run_schauder_sweep(cfg: HarnessConfig, base_cap: int = 36) -> SweepReport:
    """Estimate the regularity-gain ratio for every kernel across the ladder.

    For each kernel the exact solution is sampled on each grid of the
    ladder; the report records the seminorm of order 2s + alpha on the
    closed cylinder Q_1 about (1, 0, 0) from base points in Q_1/2, the slab
    norm of order gamma, the source norm of order alpha on Q_1, and the
    ratio.  A kernel's flag is set when the ratio moves by less than 20%
    between the two finest grids.  Every kernel draws its data and base
    points from a fresh generator seeded by cfg.seed, so its records do not
    depend on the kernels before it.
    """
    s = _as_exponent(cfg.s)
    two_s = 2.0 * cfg.s
    bank = kernel_bank(cfg.s)
    report = SweepReport()
    center = Point(1.0, [0.0], [0.0])
    for name in cfg.kernels:
        K = bank[name]
        rng = np.random.default_rng(cfg.seed)
        f0, src = _sweep_problem(K, rng)
        ratios = []
        for n in cfg.ladder:
            f = _sample_solution(K, f0, src, n)
            cache: dict = {}
            d_c = left_distance_batch(center, f.ts, f.xs, f.vs, s)
            # Closed cylinders: samples on d_c = 1 or 1/2 count as inside.
            in_q1 = d_c <= 1.0 + _CLOSED_RTOL
            in_qhalf = np.flatnonzero(d_c <= 0.5 * (1.0 + _CLOSED_RTOL))
            base_idx = _coarse_subset(in_qhalf, base_cap, rng)
            numer = _masked_seminorm(f, base_idx, two_s + cfg.alpha, s, in_q1, cache)
            sup_f = float(np.max(np.abs(f.values)))
            slab_base = _coarse_subset(np.arange(f.n), base_cap // 2, rng)
            sem_gamma = _masked_seminorm(f, slab_base, cfg.gamma, s,
                                         np.ones(f.n, bool), cache)
            c_field = SampledField(
                f.ts, f.xs, f.vs,
                src.evaluate(f.ts, f.xs[:, 0], f.vs[:, 0], f0.periods), metadata="source",
            )
            c_base = _coarse_subset(np.flatnonzero(in_q1), base_cap // 2, rng)
            # c_field has the samples of f, so it shares f's distance rows.
            c_norm = float(np.max(np.abs(c_field.values[in_q1]))) + _masked_seminorm(
                c_field, c_base, cfg.alpha, s, in_q1, cache)
            denom = sup_f + sem_gamma + c_norm
            ratio = numer / denom
            ratios.append(ratio)
            report.records.append({
                "kernel": name, "s": cfg.s, "grid": n, "numerator": numer,
                "sup_f": sup_f, "sem_gamma": sem_gamma, "c_norm": c_norm, "ratio": ratio,
            })
        drift = abs(ratios[-1] - ratios[-2]) / max(ratios[-1], 1e-300)
        report.flags[f"{name}@s={cfg.s}"] = bool(np.isfinite(ratios[-1]) and drift < 0.20)
        report.drift[f"{name}@s={cfg.s}"] = float(drift)
    return report


# ---------------------------------------------------------------------------
# Decay exponents and operator ratios.
# ---------------------------------------------------------------------------


def measure_holder_decay(f: SampledField, z0: Point, radii, s) -> dict:
    """Log-log slope of the centered oscillation of f over shrinking cylinders.

    osc(r) = half the value spread over {t <= t0, d_l < r}; the best
    constant drops out of the spread.  Degenerate (flat) data is flagged
    instead of fit.
    """
    s = _as_exponent(s)
    radii = sorted(float(r) for r in radii)
    d = left_distance_batch(z0, f.ts, f.xs, f.vs, s)
    past = f.ts <= z0.t + 1e-12
    oscs = []
    for r in radii:
        sel = f.values[past & (d < r)]
        if len(sel) < 2:
            raise ValueError(f"radius {r} captures fewer than 2 samples")
        oscs.append(0.5 * float(np.max(sel) - np.min(sel)))
    scale = max(abs(float(np.max(f.values))), abs(float(np.min(f.values))), 1.0)
    degenerate = max(oscs) < 1e-12 * scale
    out = {"radii": radii, "oscillation": oscs, "degenerate": degenerate}
    if degenerate:
        out["exponent"] = float("nan")
        return out
    keep = [(r, o) for r, o in zip(radii, oscs) if o > 1e-14 * scale]
    lr = np.log([r for r, _ in keep])
    lo_ = np.log([o for _, o in keep])
    out["exponent"] = float(np.polyfit(lr, lo_, 1)[0])
    return out


def operator_regularity_ratio(
    K: Kernel,
    f: SampledField,
    alpha: float,
    s=None,
    f_of_v=None,
    reg: tuple[float, float] = (1.0, 0.5),
    n_base: int = 12,
) -> float:
    """Empirical [L f]_{C^alpha} / [f]_{C^{2s+alpha}} on shared sample geometry.

    L f is quadrature-evaluated at the sample points through a callable
    v-section of f (the sampled values alone cannot feed the singular
    integral), so this is meaningful for t- and x-independent fields.
    """
    s = K.s if s is None else _as_exponent(s)
    if f_of_v is None:
        raise ValueError("operator evaluation needs the v-section callable f_of_v")
    sup = max(1.0, float(np.max(np.abs(f.values))))
    omega = Majorant(lambda r: sup, s)
    lf_vals = np.array([
        apply_pointwise(K, f_of_v, f.vs[i], reg, omega, far_max_ring=12)[0]
        for i in range(f.n)
    ])
    lf = SampledField(f.ts, f.xs, f.vs, lf_vals, metadata="Lf")
    step = max(1, f.n // n_base)
    base = [f.point(i) for i in range(0, f.n, step)]
    num = seminorm(lf, base, alpha, s).seminorm
    den = seminorm(f, base, 2.0 * s.s + alpha, s).seminorm
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


# ---------------------------------------------------------------------------
# Translated-polynomial residuals.
# ---------------------------------------------------------------------------


def _even_v_moments(K: Kernel, max_order: int) -> dict[int, float]:
    """M_{2j} = int w^{2j} K(w) dw for d = 1, over `ball_rings` of the support.

    Orders with divergent tails (infinite support and 2j >= 2s) are
    rejected; callers must truncate the kernel first.  Every ring up to the
    support edge is summed, since an empty ring says nothing of those beyond;
    the core cut takes the order 2j - 2s of the integrand at 0.
    """
    out = {}
    two_s = K.s.two_s
    for order in range(2, max_order + 1, 2):
        if not math.isfinite(K.support_radius) and order >= two_s:
            raise ValueError(
                f"moment of order {order} diverges for an untruncated kernel"
            )
        out[order] = kronrod_rings(lambda w: K.density(w) * w[:, 0] ** order, 1,
                                   *ball_rings(K.support_radius, order - two_s, 1, two_s), 1, 64)[0]
    return out


def liouville_residual(p: KineticPolynomial, K: Kernel, xi: Point,
                       grid: SampledField | None = None) -> float:
    """Max residual of the increment g(z) = p(xi o z) - p(z) as a solution.

    For polynomial data the symmetrized second difference in v telescopes
    to even derivatives times even moments, so L g is evaluated without any
    cancellation-prone quadrature of the singular core.  Restricted to one
    dimensional phase space.
    """
    if p.d != 1 or K.d != 1:
        raise ValueError("translated-polynomial residuals implemented for d = 1")
    if xi.t > 0:
        raise ValueError("increment must point into the past (t component <= 0)")
    g = left_translate(p, xi) - p
    transport = differentiate(g, "transport")
    v_deg = max((j.j_v[0] for j in g.terms), default=0)
    derivs = []
    q = g
    for order in range(2, v_deg + 1, 2):
        q = differentiate(differentiate(q, "v", 0), "v", 0)
        derivs.append((order, q))
    moments = _even_v_moments(K, v_deg) if derivs else {}
    if grid is None:
        rng = np.random.default_rng(7)
        ts = rng.uniform(-1.0, 0.0, 64)
        xs = rng.uniform(-1.0, 1.0, (64, 1))
        vs = rng.uniform(-1.0, 1.0, (64, 1))
    else:
        ts, xs, vs = grid.ts, grid.xs, grid.vs
    resid = transport.eval_arrays(ts, xs, vs)
    # L g = -(1/2) int D_w g K dw with D_w g = sum 2 g^{(2j)} w^{2j} / (2j)!
    for order, dq in derivs:
        resid -= -dq.eval_arrays(ts, xs, vs) * moments[order] / math.factorial(order)
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# Derivative shift constants.
# ---------------------------------------------------------------------------


def derivative_shift_constants(
    s: float = 0.5,
    alpha: float = 2.2,
    refinements: tuple[int, ...] = (10, 20),
) -> dict:
    """Empirical constants in [D f]_{C^{alpha - deg D}} <= C [f]_{C^alpha}.

    D ranges over the kinetic differentials (transport, one x derivative,
    one v derivative), each lowering the admissible order by its kinetic
    degree.  Smooth trigonometric data; derivatives taken in closed form so
    the measured variation is purely the estimator's.
    """
    se = _as_exponent(s)
    two_s = se.two_s
    fns = {
        "f": lambda t, x, v: np.sin(t + v) * np.cos(x) + 0.3 * np.cos(2 * v),
        "transport": lambda t, x, v: np.cos(t + v) * np.cos(x) - v * np.sin(t + v) * np.sin(x),
        "dx": lambda t, x, v: -np.sin(t + v) * np.sin(x),
        "dv": lambda t, x, v: np.cos(t + v) * np.cos(x) - 0.6 * np.sin(2 * v),
    }
    drops = {"transport": two_s, "dx": 1.0 + two_s, "dv": 1.0}
    out: dict = {name: [] for name in drops}
    # fixed base lattice shared by all refinement levels, so the constants
    # respond to sample refinement alone.  Its points are the grid samples
    # nearest it: a literal 0.6 is one ulp off linspace's, and a sample that
    # close to a base point fixes the fit only to rounding.
    lattice = ([-0.8, -0.4, 0.0], [-0.6, 0.0, 0.6], [-0.6, 0.0, 0.6])
    for n in refinements:
        axes = (np.linspace(-1.0, 0.0, n + 1), np.linspace(-1.0, 1.0, n + 1),
                np.linspace(-1.0, 1.0, n + 1))
        T, X, V = np.meshgrid(*axes, indexing="ij")
        pts = (T.ravel(), X.ravel()[:, None], V.ravel()[:, None])
        fields = {
            name: SampledField(pts[0], pts[1], pts[2], fn(T, X, V).ravel(), metadata=name)
            for name, fn in fns.items()
        }
        near = [np.argmin(np.abs(ax[:, None] - np.array(lat)), axis=0) for ax, lat in zip(axes, lattice)]
        flat = np.ravel_multi_index(np.meshgrid(*near, indexing="ij"), T.shape).ravel()
        base = [fields["f"].point(int(i)) for i in flat]
        cache: dict = {}
        den = seminorm(fields["f"], base, alpha, se, dist_cache=cache).seminorm
        for name, drop in drops.items():
            num = seminorm(fields[name], base, alpha - drop, se, dist_cache=cache).seminorm
            out[name].append(num / den)
    return out
