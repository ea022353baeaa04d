"""Sparse kernel learning with the l1 norm.

The library is organized around five layers:

- :mod:`l1kernels.kernels` — the kernel zoo with exact evaluation, per-family
  admissibility metadata, and closed-form cardinal functions for the two
  kernels where all four admissibility conditions are proven.
- :mod:`l1kernels.gram` — validated point sets, Gram matrices with pivoted LU
  factorization, and the cardinal-coefficient solves everything else uses.
- :mod:`l1kernels.admissibility` — numerical audits of the admissibility
  conditions (nonsingular Grams, boundedness, unit Lebesgue bound), the
  relaxed Lebesgue-constant estimator, and the one-point-extension norm.
- :mod:`l1kernels.interpolation` — finite kernel expansions, their l1 and
  sup norms, minimal-norm interpolation on both sides, and the reproducing
  bilinear form.
- :mod:`l1kernels.solvers` / :mod:`l1kernels.experiment` — KKT-certified
  l1-regularized least squares (exact lasso homotopy path) and closed-form
  ridge on the Gram matrix, plus the reproducible sparse-vs-dense regression
  benchmark.

The `l1kernels` console script exposes audits, fits, and the benchmark.
The library logs to the "l1kernels" logger and prints nothing unless the
application configures logging.
"""

import logging

from .errors import (
    DegenerateSchur,
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    FormulaUnavailable,
    KernelMismatch,
    L1KernelsError,
    NegativeMu,
    SingularGram,
    SingularShifted,
    UnsupportedKernel,
)
from .kernels import (
    AdmissibilityFlags,
    Family,
    Interval,
    KernelSpec,
    Status,
    brownian_bridge,
    closed_form_cardinal,
    exponential,
    gaussian,
    kernel_from_json,
    kernel_to_json,
    sinc,
    wendland_d3_k1,
)
from .gram import (
    CoefficientVector,
    GramSystem,
    PointSet,
    Side,
    build_system,
)
from .admissibility import (
    AuditReport,
    AuditStats,
    Condition,
    LebesgueProfile,
    RandomPointSets,
    Verdict,
    Witness,
    audit_a1,
    audit_a2,
    audit_a4,
    audit_relaxed_a4,
    extension_norm,
    lebesgue_constant,
    lebesgue_function,
    pair_grid,
    profile_grid,
)
from .interpolation import (
    ExpansionFunction,
    bilinear_form,
    expansion,
    min_norm_interpolant_b,
    min_norm_interpolant_bsharp,
    section,
)
from .solvers import (
    FitResult,
    LassoConfig,
    LassoSolver,
    RidgeSolver,
    kkt_residual,
    lasso_gram,
    ridge_gram,
    zero_mu_threshold,
)
from .experiment import (
    ExperimentConfig,
    LassoPathStats,
    MethodAggregate,
    MethodOutcome,
    NoiseKind,
    NoiseModel,
    TrialRecord,
    TrialSummary,
    generate_noise,
    l2_error,
    run_experiment,
    run_trial,
    summary_to_json,
    target_function,
    write_csv,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
