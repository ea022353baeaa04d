
import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from l1kernels import (
    ExperimentConfig,
    LassoConfig,
    LassoSolver,
    NoiseKind,
    NoiseModel,
    RidgeSolver,
    Side,
    build_system,
    expansion,
    exponential,
    generate_noise,
    l2_error,
    lasso_gram,
    run_experiment,
    run_trial,
    summary_to_json,
    target_function,
)
from l1kernels.experiment import csv_rows, CSV_HEADER
from l1kernels.streams import stream
from _oracles import trapezoid_l2

TARGET_CENTERS = (-1.0, -0.8, 0.0, 0.8, 1.0)


# ---------------------------------------------------------------------------
# target function


def test_target_spot_values():
    # frozen from direct evaluation of the five-term sum
    assert target_function(0.0) == pytest.approx(2.634416810577328, rel=1e-15)
    assert target_function(1.0) == pytest.approx(2.4872443657076237, rel=1e-15)


def test_target_symmetry():
    ts = np.random.default_rng(0).uniform(-1.5, 1.5, 100)
    assert np.allclose(target_function(ts), target_function(-ts), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# noise


def test_noise_gaussian_scales_with_variance():
    rng = stream(0, 0, "test")
    tiny = generate_noise(NoiseModel.gaussian(variance=1e-30), 100, rng)
    assert np.abs(tiny).max() < 1e-13


def test_noise_pepper_two_point():
    rng = stream(0, 1, "test")
    noise = generate_noise(NoiseModel.pepper_sauce(), 500, rng)
    assert set(np.unique(noise)) == {-0.1, 0.1}


def test_noise_pepper_sparse_variant():
    rng = stream(0, 2, "test")
    noise = generate_noise(NoiseModel.pepper_sauce(corrupt_fraction=0.2), 2000, rng)
    hit = np.count_nonzero(noise)
    assert set(np.unique(noise)) <= {-0.1, 0.0, 0.1}
    assert 200 < hit < 600  # ~20% of 2000


def test_noise_deterministic_streams():
    a = generate_noise(NoiseModel.uniform(), 50, stream(7, 3, "noise"))
    b = generate_noise(NoiseModel.uniform(), 50, stream(7, 3, "noise"))
    c = generate_noise(NoiseModel.uniform(), 50, stream(7, 4, "noise"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.gaussian(variance=0.0)
    with pytest.raises(ValueError):
        NoiseModel.pepper_sauce(corrupt_fraction=0.0)
    with pytest.raises(ValueError):
        NoiseModel.pepper_sauce(corrupt_fraction=1.5)


# ---------------------------------------------------------------------------
# L2 error


def test_l2_error_exact_target_expansion():
    # the target IS a five-term exponential expansion with unit coefficients
    f = expansion(exponential(), TARGET_CENTERS, np.ones(5), Side.LEFT)
    assert l2_error(f, (-1.0, 1.0), 101) <= 1e-12
    assert l2_error(f, (-1.0, 1.0), 20001) <= 1e-12


def test_l2_error_zero_function_vs_high_resolution_oracle():
    f = expansion(exponential(), [0.0], [0.0], Side.LEFT)
    got = l2_error(f, (-1.0, 1.0), 2001)
    nodes = np.linspace(-1.0, 1.0, 1_000_001)
    oracle = trapezoid_l2(target_function(nodes), dx=2.0 / 1_000_000)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_l2_error_node_doubling_converges():
    rng = np.random.default_rng(1)
    f = expansion(exponential(), np.sort(rng.uniform(-1, 1, 4)), rng.standard_normal(4), Side.LEFT)
    e1 = l2_error(f, (-1.0, 1.0), 2001)
    e2 = l2_error(f, (-1.0, 1.0), 4001)
    assert abs(e2 - e1) <= 1e-6 * max(e1, 1e-30)


def test_l2_error_validation():
    f = expansion(exponential(), [0.0], [1.0], Side.LEFT)
    with pytest.raises(ValueError):
        l2_error(f, (-1.0, 1.0), 1)


# ---------------------------------------------------------------------------
# trials and experiment


def small_config(**kw):
    defaults = dict(n_points=40, trials=2, mu_grid=(1e-4, 1e-2, 1.0), master_seed=99)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, 1)
    b = run_trial(cfg, 1)
    assert a == b
    assert a.rkbs.chosen_mu in cfg.mu_grid
    assert a.rkbs.sparsity <= cfg.n_points
    assert a.rkhs.sparsity == cfg.n_points


def test_ridge_dense_at_every_mu_on_noisy_data():
    # noise-free data can hit genuinely sparse ridge solutions (the target is
    # exactly representable); with noise the solutions are dense at every mu
    from l1kernels import RidgeSolver

    cfg = ExperimentConfig(n_points=40, trials=1, master_seed=99)
    x = np.linspace(*cfg.interval, cfg.n_points)
    solver = RidgeSolver(build_system(cfg.kernel, x))
    y = target_function(x) + generate_noise(cfg.noise, cfg.n_points, stream(99, 0, "noise"))
    for mu in cfg.mu_grid:
        assert solver.solve(y, mu).sparsity == cfg.n_points


def test_run_trial_near_interpolation_with_clean_data():
    # noise-free hook: with negligible noise the smallest mu nearly interpolates
    # the exactly-representable target (default 200-point grid)
    cfg = ExperimentConfig(
        trials=1,
        noise=NoiseModel.gaussian(variance=1e-32),
        mu_grid=(1e-7,),
        master_seed=5,
    )
    x = np.linspace(-1, 1, cfg.n_points)
    system = build_system(cfg.kernel, x)
    fit = lasso_gram(system, target_function(x), LassoConfig(mu=1e-7))
    f = expansion(cfg.kernel, x, fit.coefficients.values, Side.LEFT)
    assert l2_error(f, (-1.0, 1.0), 2001) <= 1e-3
    record = run_trial(cfg, 0)
    assert record.rkbs.l2_error <= 1e-6  # squared scale


def test_run_trial_warns_on_uncertified_selected_fit(monkeypatch, caplog):
    cfg = small_config()
    with caplog.at_level(logging.WARNING, logger="l1kernels.experiment"):
        record = run_trial(cfg, 0)
    assert not caplog.records

    solve = LassoSolver.solve

    def uncertified(self, y, config):
        return dataclasses.replace(solve(self, y, config), converged=False)

    monkeypatch.setattr(LassoSolver, "solve", uncertified)
    every_fit_uncertified = dataclasses.replace(record.lasso_path, unconverged=len(cfg.mu_grid))
    with caplog.at_level(logging.WARNING, logger="l1kernels.experiment"):
        assert run_trial(cfg, 0) == dataclasses.replace(record, lasso_path=every_fit_uncertified)
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING
    assert warning.trial == 0
    assert warning.mu == record.rkbs.chosen_mu
    assert math.isfinite(warning.kkt_residual)


def test_run_trial_warns_on_sparse_ridge_fit(monkeypatch, caplog):
    cfg = small_config()
    solve = RidgeSolver.solve

    def sparse(self, y, mu):
        return dataclasses.replace(solve(self, y, mu), sparsity=3)

    monkeypatch.setattr(RidgeSolver, "solve", sparse)
    with caplog.at_level(logging.WARNING, logger="l1kernels.experiment"):
        record = run_trial(cfg, 1)
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING
    assert "ridge solution unexpectedly sparse" in warning.getMessage()
    assert warning.trial == 1
    assert warning.mu == record.rkhs.chosen_mu
    assert warning.sparsity == record.rkhs.sparsity == 3


def record_lasso_fits(monkeypatch) -> list:
    """Every FitResult that LassoSolver.solve returns from now on, in order."""
    solve, fits = LassoSolver.solve, []

    def recorded(self, y, config):
        fit = solve(self, y, config)
        fits.append(fit)
        return fit

    monkeypatch.setattr(LassoSolver, "solve", recorded)
    return fits


def test_run_trial_path_steps_are_pinned(monkeypatch):
    # the lasso path is exact, so its event sequence, and with it the number
    # of path steps, is fixed by the data; a change to the path's arithmetic
    # that moves an event shows here first
    fits = record_lasso_fits(monkeypatch)
    cfg = ExperimentConfig(n_points=200, master_seed=12345)
    for k in range(3):
        run_trial(cfg, k)
    assert len(fits) == 27
    assert sum(fit.iterations for fit in fits) == 1677


def test_run_experiment_single_trial_equals_record():
    cfg = small_config(trials=1)
    summary = run_experiment(cfg)
    record = run_trial(cfg, 0)
    assert summary.records == (record,)
    assert summary.rkbs.mean_error == record.rkbs.l2_error
    assert summary.rkbs.max_sparsity == record.rkbs.sparsity
    assert summary.rkhs.mean_sparsity == float(record.rkhs.sparsity)


def test_run_experiment_deterministic_and_aggregates():
    cfg = small_config()
    s1 = run_experiment(cfg)
    s2 = run_experiment(cfg)
    assert s1 == s2
    assert s1.rkbs.max_sparsity >= s1.rkbs.mean_sparsity
    assert s1.rkhs.mean_sparsity == cfg.n_points
    assert csv_rows([("gaussian", s1)]) == csv_rows([("gaussian", s2)])


def test_csv_schema():
    cfg = small_config(trials=1)
    rows = csv_rows([("gaussian", run_experiment(cfg))])
    assert rows[0] == CSV_HEADER
    assert rows[0] == "noise,method,mean_error,mean_sparsity,max_sparsity,trials,seed"
    assert len(rows) == 3  # header + rkhs + rkbs
    assert rows[1].startswith("gaussian,rkhs,")
    assert rows[2].startswith("gaussian,rkbs,")
    assert rows[1].endswith(",1,99")


def test_summary_json_shape():
    cfg = small_config(trials=1)
    obj = summary_to_json(run_experiment(cfg))
    assert obj["noise"] == "gaussian"
    assert set(obj["methods"]) == {"rkhs", "rkbs"}
    assert len(obj["trials"]) == 1
    assert obj["config"]["metadata"]["error_scale"] == "squared L2([a,b]) distance"
    assert obj["trials"][0]["rkbs"].keys() == {"l2_error", "sparsity", "chosen_mu"}


def test_summary_json_reports_lasso_path_certificates(monkeypatch):
    fits = record_lasso_fits(monkeypatch)
    cfg = small_config()
    obj = json.loads(json.dumps(summary_to_json(run_experiment(cfg))))

    def stats(fits):
        return {
            "steps": sum(f.iterations for f in fits),
            "max_kkt_residual": max(f.kkt_residual for f in fits),
            "unconverged": sum(not f.converged for f in fits),
        }

    per_mu = len(cfg.mu_grid)
    assert len(fits) == cfg.trials * per_mu
    for k, trial in enumerate(obj["trials"]):
        assert trial["lasso_path"] == stats(fits[k * per_mu:(k + 1) * per_mu])
    assert obj["lasso_path"] == stats(fits)
    assert obj["lasso_path"]["steps"] > 0
    assert obj["lasso_path"]["unconverged"] == 0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_points=1)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=(-0.1, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=(math.nan,))
    with pytest.raises(ValueError):
        ExperimentConfig(quadrature_nodes=1)
    with pytest.raises(ValueError):
        ExperimentConfig(interval=(1.0, -1.0))


def test_noise_kinds_have_expected_labels():
    assert NoiseModel.gaussian().label == "gaussian"
    assert NoiseModel.uniform().label == "uniform"
    assert NoiseModel.pepper_sauce().label == "pepper"
    assert NoiseModel.pepper_sauce().kind is NoiseKind.PEPPER_SAUCE
