"""Outside-in tracing of kinlab's layers, installed from the benchmark's own files.

`Tracer.install()` replaces every public function of each layer module with a
wrapper that records a span (name, layer, start, end, parent span, request
id), at every place the function is bound: the defining module, each kinlab
module that imported it, and the package namespace.  It also counts the
points passed to `Kernel.density` on each kernel class and the rows of each
LP that `kinlab.holder` hands to scipy's `linprog`.  `uninstall()` restores
the originals.  Nothing under `src/kinlab` is edited.

Spans are recorded only while a request is open (`with tracer.request(...)`),
so oracle checks between requests stay out of the trace.  Spans are kept in
memory; `write_spans` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("group", "polynomials", "quadrature", "kernels", "operators",
          "spectral", "holder", "harness")

# Functions of kernels whose time is reported as kernels.constants_s.
_CONSTANTS = ("upper_bound_constant", "nondegeneracy_constant", "coercivity_ratio",
              "ring_moments", "holder_modulus", "ellipticity_report", "weak_star_gap")
# Quadrature functions that return (points, weights).
_NODE_RULES = ("gauss_legendre_panel", "annulus_nodes", "ball_nodes",
               "panel_annulus_nodes", "sphere_rule")

# span record layout
NAME, LAYER, START, END, PARENT, REQUEST, N, D = range(8)


def _group_size(name, args):
    """(pairs, dimension) of a distance call."""
    if name == "pair_distance_batch":
        return len(args[0]), len(args[1][0])
    if name == "left_distance_batch":
        return len(args[1]), args[0].d
    if name == "dist":
        return 1, args[1].d
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.density_points = 0
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def request(self, rid: int, name: str):
        """Open the root span of one request; layer spans are recorded inside it."""
        rec = [name, "request", perf_counter(), 0.0, None, rid, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._request = rid
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self._request = None

    def _span(self, layer: str, name: str, fn, size=None, rows=None, points=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            stack = self._stack
            rec = [name, layer, perf_counter(), 0.0, stack[-1] if stack else None,
                   self._request, 0, 0]
            if size is not None:
                rec[N], rec[D] = size(args)
            elif rows is not None:
                rec[N] = rows(kwargs)
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = perf_counter()
            if points is not None:
                rec[N] = len(out[0])
            return out

        return wrapper

    def _count_density(self, cls):
        fn = cls.__dict__["density"]

        @functools.wraps(fn)
        def density(kernel, w):
            if self._request is not None:
                self.density_points += len(w)
            return fn(kernel, w)

        return density

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        import kinlab  # noqa: F401  (loads every layer module)
        from kinlab import holder, kernels

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "kinlab" or k.startswith("kinlab."))]
        for layer in LAYERS:
            mod = sys.modules[f"kinlab.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                kw = {}
                if layer == "group":
                    kw["size"] = functools.partial(_group_size, name)
                elif layer == "quadrature" and name in _NODE_RULES:
                    kw["points"] = True
                self._replace(fn, self._span(layer, f"{layer}.{name}", fn, **kw), modules)
        lp_rows = lambda kw: sum(len(kw[k]) for k in ("A_ub", "A_eq") if kw.get(k) is not None)
        self._replace(holder.linprog,
                      self._span("holder", "holder.linprog", holder.linprog, rows=lp_rows),
                      [holder])
        for cls in kernels.Kernel.__subclasses__():
            if "density" in cls.__dict__:
                self._patches.append((cls, "density", cls.__dict__["density"]))
                cls.density = self._count_density(cls)

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        keys = ("name", "layer", "start", "end", "parent", "request", "n", "d")
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s = {layer: 0.0 for layer in LAYERS + ("request",)}
    for i, rec in enumerate(spans):
        self_s[rec[LAYER]] += rec[END] - rec[START] - child_time[i]

    def outermost(i):
        """True when no ancestor span belongs to the same layer."""
        layer, p = spans[i][LAYER], spans[i][PARENT]
        while p is not None:
            if spans[p][LAYER] == layer:
                return False
            p = spans[p][PARENT]
        return True

    def has_ancestor(i, name):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    c = {k: 0.0 for k in (
        "group.calls", "group.pairs", "d1.pairs", "d1.s", "d2.pairs", "d2.s",
        "holder.fit_calls", "holder.lp_calls", "holder.lp_rows", "holder.lp_s", "fit_batches",
        "polynomials.basis_calls", "spectral.solve_calls", "solve_symbols",
        "kernels.symbol_calls", "kernels.symbol_s", "kernels.constants_s",
        "operators.apply_calls", "quadrature.node_points")}
    wall = 0.0
    for i, rec in enumerate(spans):
        name, layer, dur = rec[NAME], rec[LAYER], rec[END] - rec[START]
        short = name.split(".", 1)[-1]
        if layer == "request":
            wall += dur
        elif layer == "group" and outermost(i):
            c["group.calls"] += 1
            c["group.pairs"] += rec[N]
            if rec[D] in (1, 2):
                c[f"d{rec[D]}.pairs"] += rec[N]
                c[f"d{rec[D]}.s"] += dur
            parent = rec[PARENT]
            if parent is not None and spans[parent][NAME] == "holder.fit_expansion":
                c["fit_batches"] += 1
        elif name == "holder.fit_expansion":
            c["holder.fit_calls"] += 1
        elif name == "holder.linprog":
            c["holder.lp_calls"] += 1
            c["holder.lp_rows"] += rec[N]
            c["holder.lp_s"] += dur
        elif name == "polynomials.monomial_basis":
            c["polynomials.basis_calls"] += 1
        elif name == "spectral.solve":
            c["spectral.solve_calls"] += 1
        elif name == "kernels.symbol":
            c["kernels.symbol_calls"] += 1
            c["kernels.symbol_s"] += dur
            if has_ancestor(i, "spectral.solve"):
                c["solve_symbols"] += 1
        elif layer == "kernels" and short in _CONSTANTS and outermost(i):
            c["kernels.constants_s"] += dur
        elif name == "operators.apply_pointwise":
            c["operators.apply_calls"] += 1
        elif layer == "quadrature" and short in _NODE_RULES and outermost(i):
            c["quadrature.node_points"] += rec[N]

    ratio = lambda a, b: a / b if b else 0.0
    covered = sum(v for k, v in self_s.items() if k != "request")
    return {
        "group.calls": c["group.calls"],
        "group.pairs": c["group.pairs"],
        "group.self_s": self_s["group"],
        "group.d1.pairs_per_s": ratio(c["d1.pairs"], c["d1.s"]),
        "group.d2.pairs_per_s": ratio(c["d2.pairs"], c["d2.s"]),
        "holder.fit_calls": c["holder.fit_calls"],
        "holder.self_s": self_s["holder"],
        "holder.lp_calls": c["holder.lp_calls"],
        "holder.lp_rows": c["holder.lp_rows"],
        "holder.lp_s": c["holder.lp_s"],
        "holder.rows_per_lp": ratio(c["holder.lp_rows"], c["holder.lp_calls"]),
        "holder.dist_batches_per_fit": ratio(c["fit_batches"], c["holder.fit_calls"]),
        "polynomials.basis_calls": c["polynomials.basis_calls"],
        "polynomials.self_s": self_s["polynomials"],
        "spectral.solve_calls": c["spectral.solve_calls"],
        "spectral.self_s": self_s["spectral"],
        "spectral.symbols_per_solve": ratio(c["solve_symbols"], c["spectral.solve_calls"]),
        "kernels.symbol_calls": c["kernels.symbol_calls"],
        "kernels.symbol_s": c["kernels.symbol_s"],
        "kernels.density_points": tracer.density_points,
        "kernels.constants_s": c["kernels.constants_s"],
        "operators.apply_calls": c["operators.apply_calls"],
        "operators.self_s": self_s["operators"],
        "quadrature.node_points": c["quadrature.node_points"],
        "quadrature.self_s": self_s["quadrature"],
        "harness.self_s": self_s["harness"],
        "trace.coverage": ratio(covered, wall),
    }
