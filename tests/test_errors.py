import json
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from kinlab.cli import _cmd_apply_op
from kinlab.fields import SampledField
from kinlab.group import Point
from kinlab.harness import HarnessConfig, liouville_residual
from kinlab.holder import interpolation_check
from kinlab.kernels import (CustomDensity, KernelFamily, StableLike, TestFunction, coercivity_ratio,
                            holder_modulus, symbol)
from kinlab.operators import CutoffSpec, Majorant, freeze_split
from kinlab.polynomials import KineticPolynomial, MultiIndex, left_translate, monomial_basis
from kinlab.spectral import SourceSpec, SpectralField, residual_check

ORIGIN = Point(0.0, [0.0], [0.0])
ORIGIN_2 = Point(0.0, [0.0, 0.0], [0.0, 0.0])
ONE = KineticPolynomial({MultiIndex(0, (0,), (0,)): 1.0}, 0.5, 1)
ONE_2 = KineticPolynomial({MultiIndex(0, (0, 0), (0, 0)): 1.0}, 0.5, 2)
FIELD = SampledField(np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3))
FAMILY = KernelFamily(StableLike(0.5, 1), lambda z: 1.0)
MODE = SpectralField({(0, 1): 1.0})


def _apply_op(spec):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "a.json"
        cfg.write_text(json.dumps(spec))
        return _cmd_apply_op(types.SimpleNamespace(config=str(cfg), out=None))


@pytest.mark.parametrize("make, text, value", [
    (lambda: _apply_op({"kernel": {"form": "stable", "s": 0.5}, "field": "vsq", "v0": [0.0]}),
     "quadratic field needs a compactly supported kernel", "support_radius inf"),
    (lambda: SampledField(np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(2)),
     "mismatched array lengths", "2 values for 3 samples"),
    (lambda: FIELD.translated(ORIGIN_2), "dimension mismatch", "dimension 2"),
    (lambda: Point(0.0, [0.0, 1.0], [0.0]), "x and v must be 1-d arrays of equal length", "(2,) and (1,)"),
    (lambda: Point(math.nan, [0.0], [0.0]), "coordinates must be finite", "t=nan"),
    (lambda: HarnessConfig(s=0.5, gamma=1.2), "need 0 < gamma < min(1, 2s)", "gamma=1.2"),
    (lambda: HarnessConfig(s=0.5, ladder=(6, 18)), "ladder must double at each level", "18 after 6"),
    (lambda: liouville_residual(ONE_2, StableLike(0.5, 1), ORIGIN),
     "translated-polynomial residuals implemented for d = 1", "d = 2 for the polynomial"),
    (lambda: liouville_residual(ONE, StableLike(0.5, 1), Point(0.25, [0.0], [0.0])),
     "increment must point into the past (t component <= 0)", "t = 0.25"),
    (lambda: interpolation_check(FIELD, [ORIGIN], (1.0, 0.5, 2.0), 0.5), "need a1 < a2 < a3", "(1.0, 0.5, 2.0)"),
    (lambda: StableLike(0.5, 4), "supported dimensions: 1, 2, 3", "got 4"),
    (lambda: coercivity_ratio(StableLike(0.5, 1), lambda v: np.ones(len(v)), 1.0),
     "reference energy vanished (phi constant?)", "got 0.0"),
    (lambda: symbol(CustomDensity(0.5, 2, lambda w: np.ones(len(w)), support_radius=1.0), [5000.0, 0.0]),
     "frequency too high for the finite-support quadrature", "5000.0"),
    (lambda: symbol(StableLike(0.5, 1), [1.0, 2.0]), "frequency dimension mismatch", "shape (2,)"),
    (lambda: holder_modulus(FAMILY, [(ORIGIN, ORIGIN)], [1.0], 0.5), "pairs must be distinct", "Point(t=0.0"),
    (lambda: TestFunction(lambda w: w, 0.0, 1.0), "support must stay away from the origin", "lo=0.0"),
    (lambda: Majorant(lambda r: r**0.9855, 0.5), "majorant integral converges too slowly to certify", "0.99"),
    (lambda: Majorant(lambda r: r**0.9855, 0.5, "r^0.9855"), "majorant integral converges too slowly to certify",
     "0.98 (r^0.9855)"),
    (lambda: Majorant(lambda r: (1 + r) ** 2, 0.5), "majorant integral not decaying by ring 8", "divergent"),
    (lambda: CutoffSpec(inner=2.0, outer=1.0), "need 0 < inner < outer", "inner=2.0, outer=1.0"),
    (lambda: CutoffSpec(order=4), "supported smoothstep orders: 3, 5, 7", "got 4"),
    (lambda: freeze_split(FAMILY, lambda *z: 0.0, CutoffSpec(), Point(0.0, [0.0], [1.5])),
     "z must lie in the cutoff plateau", "|v| = 1.5"),
    (lambda: MultiIndex(-1, (0,), (0,)), "multi-index entries must be nonnegative", "j_t=-1"),
    (lambda: MultiIndex(0, (0,), (0, 0)), "j_x and j_v must have equal length", "j_v=(0, 0)"),
    (lambda: KineticPolynomial({MultiIndex(0, (0, 0), (0, 0)): 1.0}, 0.5, 1),
     "multi-index dimension mismatch", "has dimension 2"),
    (lambda: ONE(ORIGIN_2), "point dimension mismatch", "dimension 2"),
    (lambda: monomial_basis(-0.5, 0.5, 1), "threshold must be positive", "-0.5"),
    (lambda: left_translate(ONE, ORIGIN_2), "dimension mismatch", "dimension 2"),
    (lambda: SourceSpec({(1, 2): (1.0, 0.0)}), "source modes must be x-independent (k = 0)", "(1, 2)"),
    (lambda: SpectralField({(1.5, 2.7): 1.0}), "x-index k must be an integer", "1.5"),
    (lambda: SpectralField.from_csv("px,pv,time\n1.0,1.0,0.0\nk,m,re,im\n0,nan,1.0,0.0\n"),
     "mode indices must be finite", "nan"),
    (lambda: SourceSpec({(0, math.inf): (1.0, 0.0)}), "mode indices must be finite", "inf"),
    (lambda: residual_check([MODE] * 3, StableLike(0.5, 1), None, np.zeros(1), np.zeros(1)),
     "need at least 5 time samples", "got 3"),
    (lambda: residual_check([SpectralField({(0, 1): 1.0}, time=t) for t in (0, 1, 2, 3, 5)], StableLike(0.5, 1),
                            None, np.zeros(1), np.zeros(1)),
     "time samples must be uniform", "5.0]"),
], ids=["cli-vsq", "field-lengths", "field-translate", "point-shapes", "point-finite", "gamma", "ladder",
        "liouville-d", "liouville-past", "interpolation-order", "kernel-d", "coercivity-energy",
        "symbol-frequency", "symbol-d", "modulus-pairs", "test-function-support", "majorant-slow",
        "majorant-slow-described", "majorant-divergent",
        "cutoff-radii", "cutoff-order", "freeze-plateau", "multi-index-sign", "multi-index-lengths",
        "polynomial-d", "polynomial-point", "basis-threshold", "translate-d", "source-k", "field-k",
        "csv-index", "source-index", "residual-samples",
        "residual-uniform"])
def test_value_errors_name_the_bad_value(make, text, value):
    # each message keeps its text and names the value, shape or quantity at fault
    with pytest.raises(ValueError) as err:
        make()
    msg = str(err.value)
    assert msg.startswith(text) and value in msg[len(text):]
    # a parenthetical is only there when it names something: a majorant built without a
    # description ends its message with the value, not with "()"
    assert not msg.endswith("()")
