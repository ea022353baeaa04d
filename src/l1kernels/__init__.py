"""Sparse kernel learning with the l1 norm.

The library is organized around five layers:

- :mod:`l1kernels.kernels` — the kernel zoo with exact evaluation, per-family
  admissibility metadata, validated point sets, and closed-form cardinal
  functions for the two kernels where all four admissibility conditions are
  proven.
- :mod:`l1kernels.gram` — Gram matrices with pivoted LU factorization, and
  the cardinal-coefficient solves everything else uses.
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

# each module's __all__ is its public surface, and errors' is its classes
from .errors import *
from .kernels import *
from .gram import *
from .admissibility import *
from .interpolation import *
from .solvers import *
from .experiment import *

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
