"""What perfbench/ reads of the library: the traced names, the FitResult
fields its solve counter and span descriptions use, and every call its
workloads make.  perfbench/run.py fails the whole run when one of them is
missing, so a rename shows here first."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import l1kernels
from l1kernels import (
    FitResult,
    Interval,
    LassoConfig,
    LassoSolver,
    RandomPointSets,
    audit_a1,
    audit_relaxed_a4,
    build_system,
    exponential,
    gaussian,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("perfbench_spans", PERFBENCH / "spans.py")


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


@pytest.mark.parametrize("name", ["sweep-gaussian", "audit", "fit"])
def test_every_workload_runs_and_checks_one_operation(name, monkeypatch):
    # the calls perfbench/run.py makes of a workload before and during its
    # timed loop; workloads.py imports its sibling spans.py by that name
    monkeypatch.setitem(sys.modules, "spans", load_spans())
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
    workload = workloads.WORKLOADS[name](l1kernels, 11)
    workload.warm_up()
    inputs = workload.inputs(0)
    record = workload.check(inputs, workload.run(inputs))
    assert workload.counts([record]) is not None


@pytest.mark.parametrize("sizes, wholly", [((2, 6), False), ((20, 25), True)], ids=["partly", "wholly"])
@pytest.mark.parametrize(
    "audit",
    [functools.partial(audit_relaxed_a4, grid_size=101), audit_a1],
    ids=["audit_relaxed_a4", "audit_a1"],
)
def test_skipped_trials_of_an_audit_match_its_stats(audit, sizes, wholly):
    # perfbench/spans.py reads the skip count out of the report's message, so
    # every sampled audit must word its skips alike; clustered Gaussian sets
    # are singular at some draws of 2-6 points and at every draw of 20-25
    window = Interval(0.0, 0.05, lo_open=False, hi_open=False)
    report = audit(gaussian(1.0), RandomPointSets(window, n_range=sizes), trials=6, master_seed=1)
    skipped, n_trials = report.stats.skipped, report.stats.n_trials
    assert skipped == n_trials if wholly else 0 < skipped < n_trials
    assert load_spans().skipped_trials(report) == skipped
