"""kinlab: a numerical laboratory for kinetic Hölder calculus.

Galilean group geometry, kinetic polynomials, singular-kernel quadrature,
ellipticity diagnostics, nonlocal operators with certified error bounds, an
exact Fourier-side solver, Hölder seminorm estimation, and end-to-end
regularity experiments.
"""

from .fields import SampledField
from .group import (
    Point,
    ScalingExponent,
    compose,
    dist,
    inverse,
    knorm,
    left_distance_batch,
    pair_distance_batch,
    scale,
)
from .harness import (
    HarnessConfig,
    SweepReport,
    derivative_shift_constants,
    kernel_bank,
    liouville_residual,
    measure_holder_decay,
    operator_regularity_ratio,
    run_schauder_sweep,
)
from .holder import (
    HolderReport,
    fit_expansion,
    fit_expansions,
    interpolation_check,
    seminorm,
)
from .kernels import (
    CustomDensity,
    Kernel,
    KernelFamily,
    LogPeriodic,
    RingMeasure,
    StableLike,
    TestFunction,
    TruncatedStable,
    coercivity_ratio,
    ellipticity_report,
    holder_modulus,
    nondegeneracy_constant,
    ring_moments,
    symbol,
    upper_bound_constant,
    weak_star_gap,
)
from .operators import (
    CutoffSpec,
    Majorant,
    apply_pointwise,
    freeze_identity_residual,
    freeze_split,
    kinetic_convolve,
)
from .polynomials import (
    KineticPolynomial,
    MultiIndex,
    coeff_bound_from_sup,
    differentiate,
    kinetic_degree,
    left_translate,
    monomial_basis,
    scale_poly,
)
from .spectral import (
    OffLatticeError,
    SourceSpec,
    SpectralField,
    residual_check,
    solve,
)

__version__ = "0.1.0"
