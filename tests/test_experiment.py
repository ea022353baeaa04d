
import dataclasses
import json
import logging
import math
import sys
import threading

import numpy as np
import pytest

from l1kernels import (
    ExperimentConfig,
    Interval,
    LassoConfig,
    LassoSolver,
    NoiseKind,
    NoiseModel,
    RandomPointSets,
    RidgeSolver,
    Side,
    audit_a1,
    build_system,
    expansion,
    exponential,
    generate_noise,
    kernel_to_json,
    l2_error,
    lasso_gram,
    run_experiment,
    run_trial,
    summary_to_json,
    target_function,
)
from l1kernels import experiment, solvers
from l1kernels.experiment import INTERVAL, KERNEL, config_to_json, csv_rows, CSV_HEADER
from l1kernels.streams import stream
from _oracles import bottom_by_crossings, trapezoid_l2

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
    # an infinite scale would only fail later, as non-finite data in the lasso
    for make, name in (
        (NoiseModel.gaussian, "variance"),
        (NoiseModel.uniform, "halfwidth"),
        (NoiseModel.pepper_sauce, "magnitude"),
    ):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                make(**{name: bad})
    with pytest.raises(ValueError):
        NoiseModel.pepper_sauce(corrupt_fraction=0.0)
    with pytest.raises(ValueError):
        NoiseModel.pepper_sauce(corrupt_fraction=1.5)
    # only pepper noise spares samples: a fraction would be reported, not drawn
    for kind in (NoiseKind.GAUSSIAN, NoiseKind.UNIFORM):
        with pytest.raises(ValueError, match="pepper noise only"):
            NoiseModel(kind, 0.1, 0.5)
    # noise parameters are real numbers; bools are not
    for bad in ("1", None, True):
        with pytest.raises(ValueError, match="variance must be a real number"):
            NoiseModel.gaussian(bad)
        with pytest.raises(ValueError, match="corrupt_fraction must be a real number"):
            NoiseModel.pepper_sauce(0.1, bad)
    # the kind is a NoiseKind, not its name
    for bad in ("gaussian", None, 0):
        with pytest.raises(ValueError, match="needs a NoiseKind"):
            NoiseModel(bad, 0.1)


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
    x = np.linspace(*INTERVAL, cfg.n_points)
    solver = RidgeSolver(build_system(KERNEL, x))
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
    system = build_system(KERNEL, x)
    fit = lasso_gram(system, target_function(x), LassoConfig(mu=1e-7))
    f = expansion(KERNEL, x, fit.coefficients.values, Side.LEFT)
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

    assert record.rkbs.certified and record.rkhs.certified
    clean = run_experiment(cfg)
    assert (clean.rkbs.uncertified, clean.rkhs.uncertified) == (0, 0)
    monkeypatch.setattr(LassoSolver, "solve", uncertified)
    every_fit_uncertified = dataclasses.replace(record.lasso_path, unconverged=len(cfg.mu_grid))
    with caplog.at_level(logging.WARNING, logger="l1kernels.experiment"):
        assert run_trial(cfg, 0) == dataclasses.replace(
            record,
            rkbs=dataclasses.replace(record.rkbs, certified=False),
            lasso_path=every_fit_uncertified,
        )
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING
    assert warning.trial == 0
    assert warning.method == "rkbs"
    assert warning.mu == record.rkbs.chosen_mu
    assert math.isfinite(warning.kkt_residual)
    # the summary counts the uncertified selected fits per method
    summary = run_experiment(cfg)
    assert (summary.rkbs.uncertified, summary.rkhs.uncertified) == (cfg.trials, 0)
    methods = summary_to_json(summary)["methods"]
    assert (methods["rkbs"]["uncertified"], methods["rkhs"]["uncertified"]) == (cfg.trials, 0)
    # and the CSV does not show them
    assert csv_rows([summary]) == csv_rows([clean])


def test_run_trial_warns_on_uncertified_selected_ridge_fit(monkeypatch, caplog):
    cfg = small_config()
    record = run_trial(cfg, 2)
    solve = RidgeSolver.solve

    def uncertified(self, y, mu):
        return dataclasses.replace(solve(self, y, mu), converged=False)

    monkeypatch.setattr(RidgeSolver, "solve", uncertified)
    with caplog.at_level(logging.WARNING, logger="l1kernels.experiment"):
        assert run_trial(cfg, 2) == dataclasses.replace(record, rkhs=dataclasses.replace(record.rkhs, certified=False))
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING
    assert "selected rkhs fit is not certified" in warning.getMessage()
    assert warning.trial == 2
    assert warning.method == "rkhs"
    assert warning.mu == record.rkhs.chosen_mu
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


def test_run_trial_path_steps_are_pinned():
    # the lasso path is exact, so its event sequence, and with it the number
    # of path steps, is fixed by the data; a change to the path's arithmetic
    # that moves an event shows here first.  These are the cold paths of the
    # first three trials, each on a fresh solver
    cfg = ExperimentConfig(n_points=200, master_seed=12345)
    x = np.linspace(*INTERVAL, cfg.n_points)
    system = build_system(KERNEL, x)
    fits = []
    for k in range(3):
        y = target_function(x) + generate_noise(cfg.noise, cfg.n_points, stream(cfg.master_seed, k, "noise"))
        solver = LassoSolver(system)
        fits += [solver.solve(y, LassoConfig(mu=mu)) for mu in sorted(cfg.mu_grid, reverse=True)]
    assert len(fits) == 27
    assert sum(fit.iterations for fit in fits) == 1677


@pytest.fixture
def fresh_workbench(monkeypatch):
    """Give the test thread an empty workbench slot, so that nothing a test
    run before this one built is reused."""
    monkeypatch.setattr(experiment, "_local", threading.local())


def test_trials_of_one_geometry_build_the_gram_once(monkeypatch, fresh_workbench):
    builds = []
    build = experiment.build_system

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(experiment, "build_system", counted)
    cfg = small_config()
    run_trial(cfg, 0)
    run_trial(cfg, 1)
    run_experiment(cfg)
    # the noise model and the seed are the trial's, not the workbench's
    run_trial(small_config(noise=NoiseModel.pepper_sauce(), master_seed=3), 0)
    run_trial(small_config(mu_grid=list(cfg.mu_grid)), 0)
    assert len(builds) == 1
    run_trial(small_config(n_points=30), 0)
    run_trial(small_config(mu_grid=(1e-3, 1.0)), 0)
    assert len(builds) == 3


def test_run_trial_is_unchanged_by_the_calls_before_it(monkeypatch, fresh_workbench):
    cfg = small_config()
    record = run_trial(cfg, 1)

    def assert_unchanged():
        assert run_trial(cfg, 1) == record

    assert_unchanged()
    run_trial(small_config(noise=NoiseModel.uniform()), 1)
    assert_unchanged()
    run_trial(small_config(n_points=30), 0)
    assert_unchanged()
    run_trial(small_config(mu_grid=(1e-3, 1.0)), 0)
    assert_unchanged()
    run_experiment(small_config(trials=3))
    assert_unchanged()
    # a solve that raises part-way through a trial
    solve, calls = LassoSolver.solve, []

    def failing(self, y, config):
        calls.append(config.mu)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected")
        return solve(self, y, config)

    with monkeypatch.context() as patch:
        patch.setattr(LassoSolver, "solve", failing)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            run_trial(small_config(noise=NoiseModel.pepper_sauce()), 0)
    assert_unchanged()
    # a one-weight grid: the trial's only solve is at the weight where the
    # trial before it stopped
    one = small_config(mu_grid=(0.01,))
    first = run_trial(one, 0)
    assert run_trial(one, 0) == first


def test_threads_running_trials_at_once_give_the_serial_records(fresh_workbench):
    cfg = small_config(trials=4)
    serial = run_experiment(cfg).records
    results, errors = {}, []

    def worker(w):
        try:
            results[w] = [run_trial(cfg, k) for k in range(cfg.trials)]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(tuple(results[w]) == serial for w in range(4))


def test_anchored_trial_path_steps_are_pinned(monkeypatch, fresh_workbench):
    # the workbench solves the noiseless target once down to the largest
    # weight and keeps the QR of the whole Gram.  Each trial climbs from the
    # interpolant through the weights the rule sends to the bottom (1e-7 to
    # 1e-4 here), each climb resuming the last; then it moves the data from
    # the anchor to its own at the largest weight and follows the path down
    # through the rest, in far fewer steps than the cold paths above.  Steps
    # per weight in grid order; from 1e-3 up they are the path down's as
    # before, and the bottom four, 10, 16 and 16 steps on the climb, took
    # 100, 101 and 111 on the way down
    fits = record_lasso_fits(monkeypatch)
    cfg = ExperimentConfig(n_points=200, master_seed=12345)
    records = [run_trial(cfg, k) for k in range(3)]
    anchor, fits = fits[0], fits[1:]
    assert anchor.converged and anchor.iterations == 327
    assert len(fits) == 27 and all(fit.converged for fit in fits)
    assert [r.path_steps for r in records] == [
        (1, 1, 1, 7, 163, 53, 10, 32, 23),
        (1, 1, 2, 12, 145, 45, 10, 24, 36),
        (1, 1, 1, 13, 155, 45, 18, 19, 17),
    ]
    assert sum(fit.iterations for fit in fits) == sum(r.lasso_path.steps for r in records) == 837


@pytest.mark.parametrize("n, steps", [(20, 23), (200, 327)])
def test_workbench_anchor_is_a_path_point_the_pin_keeps(n, steps):
    # a pin keeps only a path point that the solver's buffers hold, so an
    # anchor read off the full-support line would be lost: the benchmark's
    # anchor at the largest weight comes off the path from the top
    bench = experiment._Workbench(n, ExperimentConfig.mu_grid)
    assert bench.lasso._pinned is not None
    assert bench.anchor_stats.steps == steps and bench.anchor_stats.unconverged == 0


@pytest.mark.parametrize("noise", [NoiseModel.gaussian(), NoiseModel.uniform(), NoiseModel.pepper_sauce()])
def test_two_ended_sweep_selects_what_the_path_down_selects(noise, monkeypatch):
    # the weights the oracle selects lie above the rule's split, where the
    # sweep runs the path down from the anchor bit for bit; below it the
    # climb reaches the same exact path points
    cfg = ExperimentConfig(noise=noise)
    bench = experiment._workbench(cfg)
    for k in range(3):
        y = bench.target_x + generate_noise(noise, cfg.n_points, stream(cfg.master_seed, k, "noise"))
        record, fits = run_trial(cfg, k), bench.lasso.sweep(y, cfg.mu_grid)
        climbed = [bottom_by_crossings(bench.system, y, mu) for mu in cfg.mu_grid]
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_bottom_split", lambda crossings: 0.0)
            down_record, down = run_trial(cfg, k), bench.lasso.sweep(y, cfg.mu_grid)
        assert (record.rkbs, record.rkhs) == (down_record.rkbs, down_record.rkhs)
        assert 3 <= sum(climbed) < len(cfg.mu_grid) - 2
        assert record.lasso_path.steps < down_record.lasso_path.steps
        for mu, bottom in zip(cfg.mu_grid, climbed):
            fit, ref = fits[mu], down[mu]
            c, cr = fit.coefficients.values, ref.coefficients.values
            assert fit.converged and ref.converged
            if bottom:
                assert np.array_equal(np.flatnonzero(c), np.flatnonzero(cr))
                assert np.abs(c - cr).max() <= 1e-8 * np.abs(cr).max()
            else:
                assert np.array_equal(c, cr) and fit.iterations == ref.iterations


def test_sweep_after_a_climb_gives_up_matches_cold_fits(monkeypatch):
    # on smooth data the rule sends every weight of the grid to the bottom,
    # but from mu = 0.1 the climb to 1 falls to half support and gives up:
    # that solve starts again from the anchor, and the weight above it, no
    # longer sent to the bottom, goes down from the anchor too
    x = np.linspace(*INTERVAL, 200)
    system, y = build_system(KERNEL, x), 1.0 + np.cos(3.0 * x)
    mus = tuple(10.0 ** j for j in range(-7, 2))
    solver = LassoSolver(system)
    solver.pin(target_function(x), LassoConfig(mu=10.0))
    assert all(bottom_by_crossings(system, y, mu) for mu in mus)
    follow, lines = LassoSolver._follow, []

    def traced(self, *args, h=1.0, **kwargs):
        lines.append("B" if h < 0.0 else "T" if h > 0.0 else "M")
        return follow(self, *args, h=h, **kwargs)

    monkeypatch.setattr(LassoSolver, "_follow", traced)
    fits = solver.sweep(y, mus)
    assert "".join(lines) == "B" * 8 + "MM"
    # the split of this data has dropped to 1: from the stop at 0.1, a solve
    # at 5 starts from the anchor, not with a climb
    lines.clear()
    solver.solve(y, LassoConfig(mu=0.1))
    solver.solve(y, LassoConfig(mu=5.0))
    assert "".join(lines) == "TM"
    # a sweep makes its data's record afresh, so it repeats the first
    lines.clear()
    again = solver.sweep(y, mus)
    assert "".join(lines) == "B" * 8 + "MM"
    assert all(np.array_equal(again[mu].coefficients.values, fits[mu].coefficients.values) for mu in mus)
    for mu, fit in fits.items():
        cold = LassoSolver(system).solve(y, LassoConfig(mu=mu))
        c, cc = fit.coefficients.values, cold.coefficients.values
        assert fit.converged
        assert np.array_equal(np.flatnonzero(c), np.flatnonzero(cc))
        assert np.abs(c - cc).max() <= 1e-8 * np.abs(cc).max()


def test_ridge_sparsity_counts_nonzeros_on_seed_7007_trial_253(caplog):
    # one ridge coefficient of this trial is 1.65e-8, below 1e-8 times the
    # largest (2.99); a thresholded count read 199 and warned of a sparse fit
    cfg = ExperimentConfig(master_seed=7007)
    x = np.linspace(*INTERVAL, cfg.n_points)
    y = target_function(x) + generate_noise(cfg.noise, cfg.n_points, stream(7007, 253, "noise"))
    fit = RidgeSolver(build_system(KERNEL, x)).solve(y, 0.1)
    h = np.abs(fit.coefficients.values)
    assert h.min() < 1e-8 * h.max()
    assert fit.sparsity == cfg.n_points
    with caplog.at_level(logging.DEBUG, logger="l1kernels"):
        record = run_trial(cfg, 253)
    assert record.rkhs.chosen_mu == 0.1 and record.rkhs.sparsity == cfg.n_points
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


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
    assert csv_rows([s1]) == csv_rows([s2])


def test_csv_schema():
    cfg = small_config(trials=1)
    rows = csv_rows([run_experiment(cfg)])
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
    assert obj["trials"][0]["rkbs"].keys() == {"l2_error", "sparsity", "chosen_mu", "certified"}
    assert len(obj["trials"][0]["path_steps"]) == len(cfg.mu_grid)
    assert obj["methods"]["rkbs"].keys() == {"mean_error", "mean_sparsity", "max_sparsity", "uncertified"}


def test_summary_json_reports_lasso_path_certificates(monkeypatch, fresh_workbench):
    recorded = record_lasso_fits(monkeypatch)
    cfg = small_config()
    obj = json.loads(json.dumps(summary_to_json(run_experiment(cfg))))
    # the anchor's fit comes first, once; between them the two reports
    # account for every path step
    anchor, fits = recorded[0], recorded[1:]

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
        # the same steps per weight, in grid order
        assert sorted(trial["path_steps"]) == sorted(f.iterations for f in fits[k * per_mu:(k + 1) * per_mu])
    assert obj["lasso_path"] == stats(fits)
    assert obj["anchor"] == stats([anchor])
    assert obj["lasso_path"]["steps"] > 0
    assert obj["lasso_path"]["unconverged"] == 0
    # the anchor is reported by every run of its workbench, built or reused
    assert summary_to_json(run_experiment(cfg))["anchor"] == obj["anchor"]
    assert len(recorded) == 1 + 2 * cfg.trials * per_mu


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_points=1)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=(-0.1, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(mu_grid=(math.nan,))
    # a sweep keys its fits by weight, so a repeated one would count its steps twice
    with pytest.raises(ValueError, match="must not repeat a weight"):
        ExperimentConfig(mu_grid=(0.1, 0.1, 1e-3))
    # a weight grid is a sequence of real numbers
    for bad in (0.1, "0.1", None, ((0.1, 1.0),)):
        with pytest.raises(ValueError, match="mu_grid must be a sequence of weights"):
            ExperimentConfig(mu_grid=bad)
    for bad in (("0.1", 1.0), (True, 0.5)):
        with pytest.raises(ValueError, match="must be a real number"):
            ExperimentConfig(mu_grid=bad)
    assert ExperimentConfig(mu_grid=np.array([0.1, 1.0])).mu_grid == (0.1, 1.0)
    # counts are integers, checked before any work; bools are not counts
    for bad in (dict(trials=2.5), dict(trials=2.0), dict(trials=True), dict(n_points=20.5),
                dict(n_points=np.float64(20.0)), dict(master_seed=1.5), dict(master_seed=False)):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentConfig(**bad)
    cfg = ExperimentConfig(n_points=np.int32(20), trials=np.int64(2), master_seed=np.uint8(7))
    assert (cfg.n_points, cfg.trials, cfg.master_seed) == (20, 2, 7)


def test_numpy_integer_counts_reach_the_json_as_ints():
    window = Interval(-1, 1, lo_open=False, hi_open=False)
    summary = run_experiment(ExperimentConfig(n_points=np.int64(10), trials=np.int64(1), mu_grid=(0.1,)))
    assert json.loads(json.dumps(summary_to_json(summary)))["config"]["n_points"] == 10
    report = audit_a1(exponential(), RandomPointSets(window), trials=np.int64(2))
    assert json.loads(json.dumps(report.to_json()))["stats"]["n_trials"] == 2
    # every count is kept as a Python int, whatever integer type it came as
    cfg = ExperimentConfig(n_points=np.int32(10), trials=np.int64(1), master_seed=np.uint16(3))
    assert type(cfg.n_points) is type(cfg.trials) is type(cfg.master_seed) is int
    points = RandomPointSets(window, n_range=(np.int32(2), np.int64(4)))
    assert type(points.n_range[0]) is type(points.n_range[1]) is int
    # and every weight and noise parameter as a Python float
    for noise in (NoiseModel.gaussian(np.float32(0.01)), NoiseModel.pepper_sauce(0.1, np.float32(0.5))):
        cfg = ExperimentConfig(n_points=10, trials=1, mu_grid=(np.float32(0.1), np.int64(1)), noise=noise)
        obj = json.loads(json.dumps(summary_to_json(run_experiment(cfg))))["config"]
        assert obj["mu_grid"] == [float(np.float32(0.1)), 1.0]
        assert obj["noise"] == {"kind": noise.label, **noise.params()}
        assert all(type(v) is float for v in (*cfg.mu_grid, noise.scale, noise.corrupt_fraction))


def test_config_to_json_pins_the_benchmark_design():
    obj = config_to_json(ExperimentConfig())
    assert obj["interval"] == [-1.0, 1.0]
    assert obj["kernel"] == kernel_to_json(exponential())
    assert obj["quadrature_nodes"] == 2001


def test_noise_kinds_have_expected_labels():
    assert NoiseModel.gaussian().label == "gaussian"
    assert NoiseModel.uniform().label == "uniform"
    assert NoiseModel.pepper_sauce().label == "pepper"
    assert NoiseModel.pepper_sauce().kind is NoiseKind.PEPPER_SAUCE


def test_noise_model_keeps_one_scale_under_its_kinds_name():
    assert NoiseModel.gaussian(0.01).params() == {"variance": 0.01}
    assert NoiseModel.uniform(0.2).params() == {"halfwidth": 0.2}
    assert NoiseModel.pepper_sauce(0.3, 0.4).params() == {"magnitude": 0.3, "corrupt_fraction": 0.4}
    assert NoiseModel.uniform(0.2) == NoiseModel(NoiseKind.UNIFORM, 0.2)
    assert [f.name for f in dataclasses.fields(NoiseModel)] == ["kind", "scale", "corrupt_fraction"]


def test_csv_rows_label_each_summary_by_its_noise():
    noises = (NoiseModel.uniform(), NoiseModel.pepper_sauce())
    rows = csv_rows([run_experiment(small_config(trials=1, noise=noise)) for noise in noises])
    assert [row.split(",", 2)[:2] for row in rows[1:]] == [
        ["uniform", "rkhs"], ["uniform", "rkbs"], ["pepper", "rkhs"], ["pepper", "rkbs"],
    ]
