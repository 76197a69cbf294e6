"""Command line front end.

Subcommands: distance, kernel-check, apply-op, solve, sweep, liouville.
Configuration files are JSON; outputs are CSV on stdout unless --out is
given.  The exit status is 1 when a checked invariant fails and 2 when the
input is rejected, by argparse or by a ValueError of the library, which
prints one `kinlab: error: ...` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .group import Point, dist
from .harness import (
    HarnessConfig,
    kernel_bank,
    liouville_residual,
    run_schauder_sweep,
)
from .kernels import (
    Kernel,
    RingMeasure,
    StableLike,
    TruncatedStable,
    ellipticity_report,
)
from .operators import Majorant, apply_pointwise
from .polynomials import KineticPolynomial, MultiIndex
from .spectral import SourceSpec, SpectralField, _evolve


def _parse_point(text: str, d: int) -> Point:
    vals = [float(p) for p in text.split(",")]
    if len(vals) != 1 + 2 * d:
        raise ValueError(f"point needs 1 + 2*{d} components, got {len(vals)}")
    return Point(vals[0], vals[1 : 1 + d], vals[1 + d :])


def _build_kernel(spec: dict) -> Kernel:
    form = spec.get("form", "stable")
    s = spec["s"]
    d = int(spec.get("d", 1))
    if form == "stable":
        return StableLike(s, d, amplitude=spec.get("amplitude", 1.0))
    if form == "truncated":
        return TruncatedStable(s, d, cutoff=spec.get("cutoff", 1.0))
    if form == "ring":
        return RingMeasure(s, d, {int(k): v for k, v in spec["masses"].items()})
    if form == "bank":
        return kernel_bank(s, d)[spec["name"]]
    raise ValueError(f"unknown kernel form {form!r}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_distance(args) -> int:
    d = args.d
    z1 = _parse_point(args.z1, d)
    z2 = _parse_point(args.z2, d)
    lines = ["variant,value"]
    for variant in ("left", "scaling", "euclid"):
        lines.append(f"{variant},{dist(variant, z1, z2, args.s):.12g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_kernel_check(args) -> int:
    spec = json.loads(Path(args.config).read_text())
    K = _build_kernel(spec)
    rep = ellipticity_report(K)
    lines = ["quantity,key,value"]
    lines.append(f"Lambda,,{rep['Lambda']:.12g}")
    lines.append(f"lambda_nondeg,,{rep['lambda_nondeg']:.12g}")
    for i, val in enumerate(rep["coercivity"]):
        lines.append(f"coercivity,phi{i},{val:.12g}")
    for k, (mass, mom) in rep["ring_moments"].items():
        lines.append(f"ring_mass,{k},{mass:.12g}")
        lines.append(f"ring_moment,{k},{mom:.12g}")
    _emit("\n".join(lines) + "\n", args.out)
    ok = math.isfinite(rep["Lambda"]) and rep["Lambda"] > 0 and rep["lambda_nondeg"] >= 0
    return 0 if ok else 1


_FIELD_LIBRARY = {
    "cos": lambda w: np.cos(w[:, 0]),
    "gauss": lambda w: np.exp(-0.5 * np.sum(w**2, axis=1)),
    "vsq": lambda w: w[:, 0] ** 2,
}


def _cmd_apply_op(args) -> int:
    spec = json.loads(Path(args.config).read_text())
    K = _build_kernel(spec["kernel"])
    fname = spec.get("field", "cos")
    if fname not in _FIELD_LIBRARY:
        raise ValueError(f"field must be one of {sorted(_FIELD_LIBRARY)}")
    f = _FIELD_LIBRARY[fname]
    if fname == "vsq" and not math.isfinite(K.support_radius):
        raise ValueError(f"quadratic field needs a compactly supported kernel, got support_radius "
                         f"{K.support_radius}")
    v0 = np.asarray(spec["v0"], dtype=float)
    reg = tuple(spec.get("reg", (1.0, 0.5)))
    growth = {"cos": 0, "gauss": 0, "vsq": 2}[fname]
    omega = Majorant(lambda r: max(1.0, (abs(np.linalg.norm(v0)) + r) ** growth), K.s)
    value, bound = apply_pointwise(K, f, v0, reg, omega)
    _emit(f"value,bound\n{value:.12g},{bound:.12g}\n", args.out)
    return 0


def _cmd_solve(args) -> int:
    spec = json.loads(Path(args.config).read_text())
    K = _build_kernel(spec["kernel"])
    periods = tuple(spec.get("periods", (2 * math.pi, 2 * math.pi)))
    f0 = SpectralField({(k, m): complex(re, im) for k, m, re, im in spec["modes"]}, periods=periods)
    src = None
    if spec.get("source"):
        src = SourceSpec({(k, m): (complex(re, im), float(om)) for k, m, re, im, om in spec["source"]})
    lines = ["t,k,m,re,im"]
    for t, ft in zip(spec["t_grid"], _evolve(f0, K, src, [float(t) for t in spec["t_grid"]])):
        for (k, m), a in sorted(ft.modes.items()):
            lines.append(f"{t},{k},{m!r},{a.real!r},{a.imag!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    ladder = {"ladder": tuple(int(n) for n in args.ladder.split(","))} if args.ladder else {}
    report = run_schauder_sweep(HarnessConfig(s=args.s, seed=args.seed, **ladder))
    text = report.to_csv()
    text += "flag,passed,drift\n"
    for key, ok in report.flags.items():
        text += f"{key},{int(ok)},{report.drift[key]:.6g}\n"
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_liouville(args) -> int:
    spec = json.loads(Path(args.config).read_text())
    s = spec["s"]
    terms = {
        MultiIndex(int(jt), (int(jx),), (int(jv),)): float(c)
        for jt, jx, jv, c in spec["poly"]
    }
    p = KineticPolynomial(terms, s, 1)
    K = _build_kernel(spec["kernel"])
    xi = Point(spec["xi"][0], [spec["xi"][1]], [spec["xi"][2]])
    resid = liouville_residual(p, K, xi)
    _emit(f"residual\n{resid:.12g}\n", args.out)
    return 0 if resid <= spec.get("tolerance", 1e-8) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kinlab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("distance", help="the left, scaling and euclid distances between two points")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--z1", required=True, help="comma list: t,x...,v...")
    p.add_argument("--z2", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("kernel-check", help="ellipticity diagnostics for a kernel spec")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kernel_check)

    p = sub.add_parser("apply-op", help="pointwise operator value with error bound")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_apply_op)

    p = sub.add_parser("solve", help="exact mode evolution to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="regularity-gain ratio sweep")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ladder", help="comma list of grid sizes, each doubling")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("liouville", help="residual of a translated polynomial")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_liouville)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
