"""What perfbench/ reads of the library: the traced names and the FitResult
fields its solve counter and span descriptions use.  perfbench/run.py fails
the whole run when one of them is missing, so a rename shows here first."""

import importlib.util
from pathlib import Path

import numpy as np

import l1kernels
from l1kernels import FitResult, LassoConfig, LassoSolver, build_system, exponential

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_library():
    spans = load_spans()
    assert spans.TRACED
    for _, owner_path, attr in spans.TRACED:
        owner = spans._resolve(l1kernels, owner_path)
        assert callable(getattr(owner, attr)), f"{owner_path}.{attr}"


def test_lasso_solve_reports_an_int_step_count_and_a_bool_certificate():
    x = np.linspace(-1.0, 1.0, 12)
    solver = LassoSolver(build_system(exponential(), x))
    y = np.sin(3.0 * x)
    for mu in (0.1, 0.01):  # a cold solve, then one that resumes its stop
        fit = solver.solve(y, LassoConfig(mu=mu))
        assert isinstance(fit, FitResult)
        assert type(fit.iterations) is int and fit.iterations > 0
        assert type(fit.converged) is bool and fit.converged
