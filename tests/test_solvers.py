
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from l1kernels import (
    DimensionMismatch,
    GramSystem,
    LassoConfig,
    LassoSolver,
    NegativeMu,
    PointSet,
    RidgeSolver,
    Side,
    SingularGram,
    UnsupportedKernel,
    brownian_bridge,
    build_system,
    exponential,
    gaussian,
    kkt_residual,
    lasso_gram,
    ridge_gram,
    sinc,
    target_function,
    wendland_d3_k1,
    zero_mu_threshold,
)
from l1kernels import solvers
from l1kernels.gram import RCOND_FLOOR
from l1kernels.solvers import _append_column, _solve_r
from _oracles import bottom_by_crossings, cd_lasso, cd_lasso_batch, lasso_objective

DEFAULT_MU_GRID = tuple(10.0 ** j for j in range(1, -8, -1))  # largest first


def random_system(rng, n_max=8, lo=-2.0, hi=2.0, min_spacing=0.05):
    n = int(rng.integers(2, n_max + 1))
    x = np.sort(rng.uniform(lo, hi, n))
    while np.diff(x).min() < min_spacing:
        x = np.sort(rng.uniform(lo, hi, n))
    return build_system(exponential(), x)


# ---------------------------------------------------------------------------
# lasso


def test_lasso_zero_solution_at_threshold():
    rng = np.random.default_rng(2)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    mu0 = zero_mu_threshold(system, y)
    fit = lasso_gram(system, y, LassoConfig(mu=mu0 * 1.000001))
    assert np.all(fit.coefficients.values == 0.0)
    assert fit.kkt_residual == 0.0
    assert fit.converged
    assert fit.sparsity == 0


def test_lasso_mu_zero_interpolates():
    rng = np.random.default_rng(3)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = lasso_gram(system, y, LassoConfig(mu=0.0))
    assert np.array_equal(fit.coefficients.values, system.solve(y))
    assert fit.iterations == 0
    assert fit.converged


def test_lasso_agrees_with_coordinate_descent_oracle():
    rng = np.random.default_rng(4)
    worst_comp = 0.0
    problems, fits = [], []
    for _ in range(40):
        system = random_system(rng)
        y = rng.uniform(-2, 2, system.n)
        mu = 10.0 ** rng.uniform(-3, 0.3)
        fit = lasso_gram(system, y, LassoConfig(mu=mu))
        assert fit.kkt_residual <= 1e-10
        problems.append((system.gram, y, mu))
        fits.append(fit)
    for (gram, y, mu), fit, oracle in zip(problems, fits, cd_lasso_batch(problems, tol=1e-10)):
        worst_comp = max(worst_comp, np.abs(fit.coefficients.values - oracle).max())
        gap = abs(fit.objective - lasso_objective(gram, y, mu, oracle))
        assert gap <= 1e-6
    assert worst_comp <= 1e-6


def test_batched_coordinate_descent_matches_the_scalar_oracle():
    # the same updates and stopping test on problems of 2-8 columns, padded
    # to 8; only the summation order of the dot products differs, and the
    # largest gap over criterion 5's 200 problems was 9.4e-14
    rng = np.random.default_rng(24)
    problems = []
    for _ in range(8):
        system = random_system(rng)
        problems.append((system.gram, rng.uniform(-2, 2, system.n), 10.0 ** rng.uniform(-3, 0.3)))
    for (a, y, mu), batched in zip(problems, cd_lasso_batch(problems, tol=1e-10)):
        scalar = cd_lasso(a, y, mu, tol=1e-10)
        assert batched.shape == scalar.shape
        assert np.abs(batched - scalar).max() <= 1e-10
        objective = lasso_objective(a, y, mu, scalar)
        assert lasso_objective(a, y, mu, batched) == pytest.approx(objective, rel=1e-12)


def test_lasso_objective_is_recomputed_value():
    rng = np.random.default_rng(5)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = lasso_gram(system, y, LassoConfig(mu=0.05))
    c = fit.coefficients.values
    direct = lasso_objective(system.gram, y, 0.05, c)
    assert fit.objective == pytest.approx(direct, rel=1e-12)
    assert fit.coefficients.side is Side.LEFT
    assert fit.sparsity <= system.n


def test_lasso_validation_errors():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(NegativeMu):
        LassoConfig(mu=-1.0)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LassoConfig(mu=mu)
    # a weight is a real number; bools are not weights
    for mu in ("1", None, True, [0.1]):
        with pytest.raises(ValueError, match="regularization weight must be a real number"):
            LassoConfig(mu=mu)
        with pytest.raises(ValueError, match="regularization weight must be a real number"):
            kkt_residual(system, [1.0, 0.0], mu, [0.0, 0.0])
    for mu in (np.float32(0.5), np.int64(2), 3):
        assert type(LassoConfig(mu=mu).mu) is float
    with pytest.raises(DimensionMismatch):
        lasso_gram(system, [1.0, 2.0, 3.0], LassoConfig(mu=0.1))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            lasso_gram(system, [1.0, bad], LassoConfig(mu=0.1))
        with pytest.raises(ValueError, match="must be finite"):
            zero_mu_threshold(system, [1.0, bad])
        with pytest.raises(ValueError, match="must be finite"):
            kkt_residual(system, [1.0, bad], 0.1, [0.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            kkt_residual(system, [1.0, 0.0], 0.1, [0.0, bad])
        with pytest.raises(ValueError, match="must be finite"):
            kkt_residual(system, [1.0, 0.0], bad, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        zero_mu_threshold(system, [1.0, 2.0, 3.0])
    with pytest.raises(UnsupportedKernel):
        lasso_gram(build_system(sinc(), [0.2, 3.7]), [1.0, 2.0], LassoConfig(mu=0.1))


@pytest.mark.parametrize("y", [(1e308, 1e308), (1e308, -1e308), (1.4e154, 0.0)])
def test_data_whose_sum_of_squares_overflows_is_rejected(y):
    # every optimal objective is at most its value y . y at c = 0, so data
    # beyond it is refused before any solve, and without a warning
    system = build_system(exponential(), [0.2, 0.7])
    fits = (
        lambda: lasso_gram(system, y, LassoConfig(mu=0.1)),
        lambda: LassoSolver(system).sweep(y, (0.1, 1.0)),
        lambda: ridge_gram(system, y, 0.1),
    )
    for fit in fits:
        with pytest.raises(ValueError, match="sum of squares overflows"):
            fit()


@pytest.mark.parametrize("mu", [0.0, 1e-10, 0.1, 1e150, 1e300])
def test_data_just_inside_the_double_range_fits_certified(mu):
    # y . y = 8.1e307: both fits stay finite, certified and below y . y,
    # the ridge's objective included, whose h . K h alone overflows at small mu
    system = build_system(exponential(), np.linspace(-1.0, 1.0, 50))
    y = 1.8e153 * np.cos(np.arange(50))
    for fit in (lasso_gram(system, y, LassoConfig(mu=mu)), ridge_gram(system, y, mu)):
        assert fit.converged
        assert fit.objective <= float(y @ y) * (1.0 + 1e-12)


def solve_path(solver, y, mus):
    """Fits of one solver along mus, in the order given: each one resumes
    the fit before it where mu decreases."""
    return [solver.solve(y, LassoConfig(mu=mu)) for mu in mus]


def start_at(patch, end):
    """Make every cold solve start from one end of the path, "top" (c = 0)
    or "bottom" (the interpolant), whatever the rule would pick: the split
    is then the top's weight or 0."""
    patch.setattr(solvers, "_bottom_split", lambda crossings: math.inf if end == "bottom" else 0.0)


def trace_lines(patch):
    """Record the kind of each line the path follows, in a list returned:
    "B" up in mu from below, "M" a data move at a fixed mu, "T" down in mu."""
    follow, lines = LassoSolver._follow, []

    def traced(self, *args, h=1.0, **kwargs):
        lines.append("B" if h < 0.0 else "M" if h == 0.0 else "T")
        return follow(self, *args, h=h, **kwargs)

    patch.setattr(LassoSolver, "_follow", traced)
    return lines


def test_lasso_warm_start_path():
    rng = np.random.default_rng(8)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    for fit in solve_path(LassoSolver(system), y, (1.0, 0.1, 0.01)):
        assert fit.converged


def test_lasso_path_matches_coordinate_descent_on_default_grid():
    rng = np.random.default_rng(20)
    for _ in range(8):
        system = random_system(rng, n_max=6, min_spacing=0.2)
        y = rng.uniform(-2, 2, system.n)
        fits = solve_path(LassoSolver(system), y, DEFAULT_MU_GRID)
        for mu, fit in zip(DEFAULT_MU_GRID, fits):
            assert fit.kkt_residual <= 1e-10
            oracle = cd_lasso(system.gram, y, mu, tol=1e-10)
            gap = fit.objective - lasso_objective(system.gram, y, mu, oracle)
            assert abs(gap) <= 1e-9 * max(1.0, fit.objective)
            assert np.abs(fit.coefficients.values - oracle).max() <= 1e-6


@pytest.mark.parametrize("n", [9, 40, 200])
@pytest.mark.parametrize("bridge", [False, True])
def test_lasso_path_certified_under_symmetric_ties(n, bridge):
    # mirror-image points carry equal correlations, so coordinates reach the
    # boundary in tied pairs at every event; on the Brownian bridge, constant
    # data also ties coordinates whose exact path value stays zero
    if bridge:
        system = build_system(brownian_bridge(), np.linspace(0.01, 0.99, n))
        y = np.ones(n)
    else:
        x = np.linspace(-1.0, 1.0, n)
        system = build_system(exponential(), x)
        y = 1.0 + np.cos(3.0 * x)
    # cold fits too, from whichever end the rule picks; on the bridge at
    # n = 200 it keeps the top, where cold paths take 120-1,219 steps each
    # (1 s in all), so the warm path alone covers that case
    mus = () if bridge and n == 200 else DEFAULT_MU_GRID
    cold = [LassoSolver(system).solve(y, LassoConfig(mu=mu)) for mu in mus]
    for fit in solve_path(LassoSolver(system), y, DEFAULT_MU_GRID) + cold:
        assert fit.converged, fit.kkt_residual
        c = fit.coefficients.values
        assert np.abs(c - c[::-1]).max() <= 1e-6 * max(1.0, np.abs(c).max())


@pytest.mark.parametrize("bridge", [False, True])
def test_lasso_warm_path_agrees_with_cold_fits_at_n_200(bridge):
    # on noisy data the path drops a coordinate 200-250 times, some from an
    # active set of 100-180 columns; a cold fit at small mu makes all these
    # updates on one factor from c = 0, while the warm path resumes at each
    # mu from the factor the solve before it left
    n = 200
    x = np.linspace(0.01, 0.99, n) if bridge else np.linspace(-1.0, 1.0, n)
    system = build_system(brownian_bridge() if bridge else exponential(), x)
    y = target_function(x) + 0.1 * np.random.default_rng(3).standard_normal(n)
    for mu, warm in zip(DEFAULT_MU_GRID, solve_path(LassoSolver(system), y, DEFAULT_MU_GRID)):
        cold = LassoSolver(system).solve(y, LassoConfig(mu=mu))
        assert warm.converged and cold.converged
        cw, cc = warm.coefficients.values, cold.coefficients.values
        assert np.array_equal(np.flatnonzero(cw), np.flatnonzero(cc))
        assert np.abs(cw - cc).max() <= 1e-8 * np.abs(cc).max()


def test_lasso_resumes_only_its_last_stop_on_the_same_data(monkeypatch):
    # every solve other than one on the last solve's data, at a mu no larger
    # than its own, must give a fresh solver's cold fit bit for bit
    rng = np.random.default_rng(23)
    system = build_system(*well_spaced(rng, False, 30))
    y1, y2 = rng.uniform(-2, 2, (2, system.n))
    high, low = LassoConfig(mu=0.5), LassoConfig(mu=1e-3)

    def assert_cold(fit, y, config):
        cold = LassoSolver(system).solve(y, config)
        assert np.array_equal(fit.coefficients.values, cold.coefficients.values)
        assert fit.iterations == cold.iterations

    def capped(y, config=low):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "MAX_PATH_STEPS", 3)
            return solver.solve(y, config)

    solver = LassoSolver(system)
    # data that is no longer the last solve's
    solver.solve(y1, high)
    solver.solve(y2, high)
    assert_cold(solver.solve(y1, low), y1, low)
    # other data than the last solve's
    solver.solve(y1, high)
    assert_cold(solver.solve(y2, low), y2, low)
    # a larger mu
    solver.solve(y1, low)
    assert_cold(solver.solve(y1, high), y1, high)
    # a solve cut short by MAX_PATH_STEPS leaves no stop: not the one it
    # resumed from, whose factor it has moved on, and not one of its own
    solver.solve(y1, high)
    cut = capped(y1)
    assert cut.iterations == 3 and not cut.converged
    assert_cold(solver.solve(y1, low), y1, low)
    # cut short from either end: at 1e-3 the bottom path takes 2 steps, at
    # 0.1 it takes 19 (the top: 60 and 43).  The solver computes the rule once
    # per data vector, so the end stays forced for the solves after the cut
    for end, config in (("top", low), ("bottom", LassoConfig(mu=0.1))):
        with monkeypatch.context() as patch:
            start_at(patch, end)
            solver.solve(y2, high)
            assert not capped(y1, config).converged
            assert_cold(solver.solve(y1, low), y1, low)

    # the same data at a smaller mu does resume, in fewer steps than a cold
    # path from the top (a cold path from the bottom takes 2 steps here)
    solver.solve(y1, high)
    resumed = solver.solve(y1, low)
    assert resumed.converged
    with monkeypatch.context() as patch:
        start_at(patch, "top")
        assert resumed.iterations < LassoSolver(system).solve(y1, low).iterations


def test_lasso_solve_that_raises_leaves_no_stop():
    # a failed solve clears the stop like any other, so the next solve on
    # the last good data starts cold rather than from the stop before it
    rng = np.random.default_rng(29)
    system = build_system(*well_spaced(rng, False, 20))
    y = rng.uniform(-2, 2, system.n)
    low = LassoConfig(mu=1e-3)
    solver = LassoSolver(system)
    solver.solve(y, LassoConfig(mu=0.5))
    with pytest.raises(DimensionMismatch):
        solver.solve(y[:-1], low)
    fit, cold = solver.solve(y, low), LassoSolver(system).solve(y, low)
    assert np.array_equal(fit.coefficients.values, cold.coefficients.values)
    assert fit.iterations == cold.iterations


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    calls=st.lists(st.tuples(st.integers(0, 1), st.floats(-7.0, 1.0)), min_size=1, max_size=8),
)
def test_lasso_solve_sequences_on_one_solver_match_cold_fits(seed, bridge, n, calls):
    # each call: which of two data vectors, and log10 mu
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    ys = rng.uniform(-2, 2, (2, n))
    solver = LassoSolver(system)
    for data, log_mu in calls:
        config = LassoConfig(mu=10.0 ** log_mu)
        fit = solver.solve(ys[data], config)
        cold = LassoSolver(system).solve(ys[data], config)
        c, cc = fit.coefficients.values, cold.coefficients.values
        assert fit.converged
        assert np.array_equal(np.flatnonzero(c), np.flatnonzero(cc))
        assert np.abs(c - cc).max() <= 1e-8 * np.abs(cc).max()


def assert_same_fit(fit, cold):
    c, cc = fit.coefficients.values, cold.coefficients.values
    assert fit.converged
    assert np.array_equal(np.flatnonzero(c), np.flatnonzero(cc))
    assert np.abs(c - cc).max() <= 1e-8 * np.abs(cc).max()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_mus=st.lists(st.floats(-7.0, 1.0), min_size=1, max_size=4),
)
def test_lasso_anchor_moves_to_any_data_then_matches_cold_fits(seed, bridge, n, log_mus):
    # a solve that cannot resume starts from the pinned anchor whatever its
    # data, at a weight no larger than the anchor's: the path moves the data
    # at the anchor's weight, then goes on down in mu
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    y0, *ys = rng.uniform(-2, 2, (3, n))
    mus = sorted((10.0 ** m for m in log_mus), reverse=True)
    solver = LassoSolver(system)
    solver.pin(y0, LassoConfig(mu=mus[0]))
    for y in ys + [y0]:
        for mu in mus:
            assert_same_fit(solver.solve(y, LassoConfig(mu=mu)), LassoSolver(system).solve(y, LassoConfig(mu=mu)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_anchor=st.floats(-7.0, 1.0),
    log_mus=st.lists(st.one_of(st.none(), st.floats(-7.0, 1.0)), min_size=1, max_size=6),
)
def test_lasso_sweep_of_any_grid_matches_cold_fits(seed, bridge, n, log_anchor, log_mus):
    # a grid in any order, with repeats and mu = 0 (None), on a solver whose
    # anchor and bottom frame are kept: every fit is the cold fit's path
    # point, keyed in the grid's order
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    y0, *ys = rng.uniform(-2, 2, (3, n))
    mus = [0.0 if m is None else 10.0 ** m for m in log_mus]
    solver = LassoSolver(system)
    assert solver.pin(y0, LassoConfig(mu=10.0 ** log_anchor)).converged
    for y in ys + [y0]:
        fits = solver.sweep(y, mus)
        assert list(fits) == list(dict.fromkeys(mus))
        for mu, fit in fits.items():
            assert_same_fit(fit, LassoSolver(system).solve(y, LassoConfig(mu=mu)))


@pytest.mark.parametrize("n", [9, 40, 200])
@pytest.mark.parametrize("bridge", [False, True])
def test_lasso_anchor_on_tied_data_moves_to_noisy_data(n, bridge):
    # the anchor's data is mirror-symmetric, so its coordinates joined in tied
    # pairs; the noise breaks every tie on the way to the trial's data
    if bridge:
        x = np.linspace(0.01, 0.99, n)
        system, y0 = build_system(brownian_bridge(), x), np.ones(n)
    else:
        x = np.linspace(-1.0, 1.0, n)
        system, y0 = build_system(exponential(), x), target_function(x)
    mus = DEFAULT_MU_GRID[2:]
    solver = LassoSolver(system)
    assert solver.pin(y0, LassoConfig(mu=mus[0])).sparsity > 1
    for seed in range(3):
        y = y0 + 0.1 * np.random.default_rng(seed).standard_normal(n)
        for mu in mus:
            assert_same_fit(solver.solve(y, LassoConfig(mu=mu)), LassoSolver(system).solve(y, LassoConfig(mu=mu)))


def test_lasso_anchor_serves_only_weights_below_its_own(monkeypatch):
    rng = np.random.default_rng(31)
    system = build_system(*well_spaced(rng, False, 30))
    y0, y1 = rng.uniform(-2, 2, (2, system.n))
    # the anchor's weight lies above the first zero crossing of the
    # full-support line (3.7e-3), so the anchor comes off a path: one read off
    # that line differs from the path's point in the last bits
    high, low = LassoConfig(mu=0.5), LassoConfig(mu=5e-3)

    def assert_cold(fit, y, config):
        cold = LassoSolver(system).solve(y, config)
        assert np.array_equal(fit.coefficients.values, cold.coefficients.values)
        assert fit.iterations == cold.iterations

    solver = LassoSolver(system)
    anchor = solver.pin(y0, low)
    # above the anchor's weight the path cannot start from it
    assert_cold(solver.solve(y1, high), y1, high)
    # below it, with the top forced, no start other than the anchor lies
    # below the top (the interpolant would take 2 steps here), and each solve
    # switches data, so none resumes a stop.  On the anchor's own data the
    # move has length zero: one step to the anchor's own fit.  On other data
    # the data moves on one line, in fewer steps than a cold path from the
    # top takes to the same fit
    with monkeypatch.context() as patch:
        start_at(patch, "top")
        lines = trace_lines(patch)
        own = solver.solve(y0, low)
        moved = solver.solve(y1, LassoConfig(mu=1e-4))
        assert lines == ["M", "M"]
        top = LassoSolver(system).solve(y1, LassoConfig(mu=1e-4))
    assert own.iterations == 1
    assert np.array_equal(own.coefficients.values, anchor.coefficients.values)
    assert_same_fit(moved, top)
    assert moved.iterations < top.iterations


@pytest.mark.parametrize("short", ["capped", "unregularized"])
def test_lasso_pin_that_stops_short_keeps_nothing(short, monkeypatch):
    # a pin whose solve is cut short by MAX_PATH_STEPS, or runs at mu = 0,
    # reaches no path point: it keeps none, and drops the anchor before it
    rng = np.random.default_rng(43)
    system = build_system(*well_spaced(rng, False, 30))
    y0, y1, y2 = rng.uniform(-2, 2, (3, system.n))
    solver = LassoSolver(system)
    assert solver.pin(y0, LassoConfig(mu=1e-3)).converged
    with monkeypatch.context() as patch:
        start_at(patch, "top")
        if short == "capped":
            patch.setattr(solvers, "MAX_PATH_STEPS", 3)
            assert not solver.pin(y1, LassoConfig(mu=1e-3)).converged
        else:
            assert solver.pin(y1, LassoConfig(mu=0.0)).converged
        # below the dropped anchor's weight, a solve forced to the top starts
        # from c = 0, as a fresh solver's does
        lines = trace_lines(patch)
        fit = solver.solve(y2, LassoConfig(mu=1e-4))
        assert lines == ["T"]
        cold = LassoSolver(system).solve(y2, LassoConfig(mu=1e-4))
    assert np.array_equal(fit.coefficients.values, cold.coefficients.values)
    assert fit.iterations == cold.iterations
    for y in (y0, y2):
        for mu, swept in solver.sweep(y, DEFAULT_MU_GRID).items():
            assert_same_fit(swept, LassoSolver(system).solve(y, LassoConfig(mu=mu)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_mus=st.lists(st.floats(-9.0, 3.0), max_size=8),
)
def test_split_agrees_with_the_crossing_count_at_every_weight(seed, bridge, n, log_mus):
    # the rule is defined by the count of coordinates that cross zero by each
    # weight; the split reduces it to one number.  The two must agree wherever
    # round-off cannot tell a weight from a crossing weight
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    y = rng.uniform(-2, 2, n)
    c0 = system.solve(y)
    d = system.solve(system.solve(np.sign(c0)))
    split = min(solvers._bottom_split(solvers._crossings(c0, d)), zero_mu_threshold(system, y))
    rate = np.sign(c0) * d
    crossings = 2.0 * np.abs(c0[rate > 0.0]) / rate[rate > 0.0]
    probes = [0.0, split, *(10.0 ** m for m in log_mus)]
    probes += [w * f for w in crossings for f in (1.0 - 1e-9, 1.0 + 1e-9)]
    for mu in probes:
        if np.any(np.abs(mu - crossings) <= 1e-12 * crossings):
            continue
        assert (mu < split) == bottom_by_crossings(system, y, mu), mu


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_mu=st.floats(-7.0, 1.0),
)
def test_cold_fits_from_either_end_match_the_warm_top_path(seed, bridge, n, log_mu):
    # the path is unique, so a cold fit from the top, from the bottom or from
    # the end the rule picks is the point the warm path from the top reaches
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    y = rng.uniform(-2, 2, n)
    mu = 10.0 ** log_mu
    config = LassoConfig(mu=mu)
    with pytest.MonkeyPatch.context() as patch:
        start_at(patch, "top")
        warm = solve_path(LassoSolver(system), y, [m for m in DEFAULT_MU_GRID if m > mu] + [mu])[-1]
    assert warm.converged
    for end in (None, "top", "bottom"):
        with pytest.MonkeyPatch.context() as patch:
            if end is not None:
                start_at(patch, end)
            assert_same_fit(LassoSolver(system).solve(y, config), warm)


def test_cold_fits_from_either_end_match_coordinate_descent():
    rng = np.random.default_rng(37)
    problems = []
    for _ in range(8):
        system = random_system(rng, n_max=6, min_spacing=0.2)
        problems.append((system, rng.uniform(-2, 2, system.n), 10.0 ** rng.uniform(-4, 0.3)))
    oracles = cd_lasso_batch([(system.gram, y, mu) for system, y, mu in problems], tol=1e-10)
    for (system, y, mu), oracle in zip(problems, oracles):
        for end in ("top", "bottom"):
            with pytest.MonkeyPatch.context() as patch:
                start_at(patch, end)
                fit = LassoSolver(system).solve(y, LassoConfig(mu=mu))
            assert fit.kkt_residual <= 1e-10
            assert np.abs(fit.coefficients.values - oracle).max() <= 1e-6
            gap = fit.objective - lasso_objective(system.gram, y, mu, oracle)
            assert abs(gap) <= 1e-9 * max(1.0, fit.objective)


def count_qr(patch):
    """Count the factorizations of the QR of all of K, in a list returned."""
    factor, calls = solvers._factor_qr, []

    def counted(*args):
        calls.append(1)
        return factor(*args)

    patch.setattr(solvers, "_factor_qr", counted)
    return calls


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("n", [9, 40, 200])
def test_bottom_fit_below_the_first_crossing_is_read_off_the_line(n, bridge, monkeypatch):
    # below the first zero crossing of c0 - (lam / 2) d the path is that
    # line: a cold solve reads its fit off the record in one step, with no QR
    # of K, and it is the 1-step climb's fit up to round-off
    rng = np.random.default_rng(n)
    # n points jittered about a uniform grid of the kernel's domain
    lo, hi = (0.01, 0.99) if bridge else (-2.0, 2.0)
    x = np.linspace(lo, hi, n) + rng.uniform(-0.3, 0.3, n) * (hi - lo) / n
    system = build_system(brownian_bridge() if bridge else exponential(), x)
    y = rng.uniform(-2, 2, n)
    record = LassoSolver(system)._record(y)
    first = min(record.cross, record.split)
    record_climb = LassoSolver._record

    def no_line(self, y):
        data = record_climb(self, y)
        data.cross = 0.0
        return data

    for f in (1e-9, 1e-3, 0.5, 0.99):
        config = LassoConfig(mu=f * first)
        with monkeypatch.context() as patch:
            calls = count_qr(patch)
            fit = LassoSolver(system).solve(y, config)
            assert calls == []
            patch.setattr(LassoSolver, "_record", no_line)
            climb = LassoSolver(system).solve(y, config)
            assert calls == [1]
        assert fit.converged and fit.iterations == climb.iterations == 1
        assert np.array_equal(np.sign(fit.coefficients.values), np.sign(climb.coefficients.values))
        assert np.array_equal(np.sign(fit.coefficients.values), np.sign(record.c0))
        assert_same_fit(fit, climb)


def test_lasso_pin_on_the_full_support_line_keeps_nothing(monkeypatch):
    # a pin below the first zero crossing reads its fit off the line, which
    # leaves no stop, so it keeps no anchor, not even the one an earlier pin
    # kept, and factors no QR of K for a bottom frame; solves below its
    # weight then start as cold solves do
    rng = np.random.default_rng(31)
    system = build_system(*well_spaced(rng, False, 30))
    y0, y1, y2 = rng.uniform(-2, 2, (3, system.n))
    solver = LassoSolver(system)
    mu = 0.5 * solver._record(y0).cross
    solver.pin(y1, LassoConfig(mu=0.5 * zero_mu_threshold(system, y1)))
    assert solver._pinned is not None
    calls = count_qr(monkeypatch)
    read_off = solver.pin(y0, LassoConfig(mu=mu))
    assert read_off.converged and read_off.sparsity == system.n and read_off.iterations == 1
    assert solver._pinned is None and solver._data.stop is None and calls == []
    # each solve switches data, so with the top forced each starts from c = 0
    requests = [(y1, mu), (y2, 0.5 * mu), (y1, 0.1 * mu)]
    with monkeypatch.context() as patch:
        start_at(patch, "top")
        lines = trace_lines(patch)
        fits = [solver.solve(y, LassoConfig(mu=weight)) for y, weight in requests]
    assert lines == ["T", "T", "T"] and calls == []
    for fit, (y, weight) in zip(fits, requests):
        assert_same_fit(fit, LassoSolver(system).solve(y, LassoConfig(mu=weight)))


def test_lasso_resumes_below_a_stop_reached_from_the_bottom(monkeypatch):
    # the path from the interpolant climbs in lam, so a coordinate it drops
    # at a weight below its stop is one the path from the top rejoins there;
    # a stop that kept it barred stalled the resume uncertified (KKT 3.5e-3)
    rng = np.random.default_rng(0)
    system = build_system(*well_spaced(rng, False, 9))
    _, y = rng.uniform(-2, 2, (2, 9))
    start_at(monkeypatch, "bottom")
    solver = LassoSolver(system)
    assert solver.solve(y, LassoConfig(mu=1e-2)).converged
    # the stop holds the weight it reached, not the line's parameter, so the
    # same weight resumes in place
    assert solver.solve(y, LassoConfig(mu=1e-2)).iterations == 0
    resumed = solver.solve(y, LassoConfig(mu=1e-3))
    start_at(monkeypatch, "top")
    assert_same_fit(resumed, LassoSolver(system).solve(y, LassoConfig(mu=1e-3)))


def test_lasso_interpolant_with_an_exact_zero_starts_at_the_top(monkeypatch):
    # the bottom's signs are those of K^-1 y, and a zero has none: its split
    # is 0, so the rule keeps the top.  Forced to the bottom, the climb keeps
    # the zero coordinate at 0 with sign 0 and reaches mu in one step.  On a
    # diagonal Gram the fit is closed-form
    base = build_system(exponential(), [0.0, 1.0, 2.0])
    gram = np.diag([1.0, 2.0, 4.0])
    system = GramSystem(base.kernel, base.points, gram, scipy.linalg.lu_factor(gram), 1.0)
    y, mu = np.array([1.0, 0.0, -3.0]), 1e-3
    assert system.solve(y)[1] == 0.0
    k = np.diag(gram)
    expected = np.sign(y) * np.maximum(k * np.abs(y) - mu / 2.0, 0.0) / k**2
    for end, line, steps in ((None, "T", 3), ("bottom", "B", 1)):
        with monkeypatch.context() as patch:
            if end is not None:
                start_at(patch, end)
            lines = trace_lines(patch)
            fit = LassoSolver(system).solve(y, LassoConfig(mu=mu))
        assert lines == [line]
        assert fit.converged and fit.iterations == steps
        assert fit.coefficients.values == pytest.approx(expected, rel=1e-12)


def test_lasso_zero_solution_in_no_steps_from_either_end(monkeypatch):
    rng = np.random.default_rng(2)
    system = build_system(*well_spaced(rng, False, 12))
    y = rng.uniform(-2, 2, system.n)
    mu0 = zero_mu_threshold(system, y)
    for end in ("top", "bottom"):
        start_at(monkeypatch, end)
        for mu in (mu0, mu0 * 1.000001, 10.0 * mu0):
            fit = LassoSolver(system).solve(y, LassoConfig(mu=mu))
            assert np.all(fit.coefficients.values == 0.0)
            assert fit.iterations == 0 and fit.kkt_residual == 0.0 and fit.converged


def test_lasso_bottom_path_restarts_from_the_top_within_one_solve(monkeypatch):
    # all three restarts give the top path's fit bit for bit, and the
    # iterations count the steps of both attempts
    def top_fit(system, y, mu):
        with monkeypatch.context() as patch:
            start_at(patch, "top")
            return LassoSolver(system).solve(y, LassoConfig(mu=mu))

    # a Gaussian Gram with rcond 1.4e-8: at mu = 1e-7 both bottom fits, the
    # one read off the full-support line and the 1-step climb, miss their
    # certificate (KKT 2.8e-8 and 2.9e-8 against KKT_TOL * ||y||_inf =
    # 1.5e-8); the top's meets it (5.7e-9).  (At seed 3678 the line's fit
    # meets it, at KKT 1.7e-10, where the climb read 4.2e-8)
    rng = np.random.default_rng(7776)
    system = build_system(gaussian(), np.sort(rng.uniform(-1, 1, 6)))
    y = rng.uniform(-2, 2, 6)
    assert bottom_by_crossings(system, y, 1e-7)
    fit, top = lasso_gram(system, y, LassoConfig(mu=1e-7)), top_fit(system, y, 1e-7)
    assert fit.converged and fit.iterations == top.iterations + 1
    assert np.array_equal(fit.coefficients.values, top.coefficients.values)
    # smooth data at mu = 10: the rule predicts 6 zeros where 196 hold, so
    # the bottom path falls to half support after 100 steps and gives up
    x = np.linspace(-1.0, 1.0, 200)
    system, y = build_system(exponential(), x), 1.0 + np.cos(3.0 * x)
    assert bottom_by_crossings(system, y, 10.0)
    fit, top = lasso_gram(system, y, LassoConfig(mu=10.0)), top_fit(system, y, 10.0)
    assert fit.converged and (fit.iterations, top.iterations) == (105, 5)
    assert np.array_equal(fit.coefficients.values, top.coefficients.values)
    # the bridge's constant data, whose interpolant is zero inside up to
    # round-off: forced to the bottom at mu = 1, the path churns through
    # ties with more than half support, and gives up after n = 200 steps
    x = np.linspace(0.01, 0.99, 200)
    system, y = build_system(brownian_bridge(), x), np.ones(200)
    start_at(monkeypatch, "bottom")
    fit, top = lasso_gram(system, y, LassoConfig(mu=1.0)), top_fit(system, y, 1.0)
    assert fit.converged and (fit.iterations, top.iterations) == (680, 480)
    assert np.array_equal(fit.coefficients.values, top.coefficients.values)


# per problem of the test below: the end of each cold solve, largest mu first,
# and the summed steps (all from the top: 318, 1,998, 2,590 and 1,337)
PINNED_COLD_PATHS = [
    ("T T T T B B   ", 112),
    ("T T T T B    ", 604),
    ("T T T T T B B B B", 932),
    ("BT BT B B B B B B B", 477),
]


def test_cold_path_steps_and_ends_are_pinned(monkeypatch):
    # the path is exact, so the end each cold solve starts from and its step
    # count are fixed by the data.  Requests like the fit benchmark's: the
    # five-bump target plus gaussian or pepper noise on random points of
    # [-1, 1], over the default grid; then the smooth tie data, the rule's
    # worst case.  "T" is a solve from the top, "B" one from the bottom,
    # "BT" one that gave the bottom up and started again at the top, and ""
    # one that read its fit off the full-support line, on no line at all
    lines = trace_lines(monkeypatch)

    def cold_path(system, y):
        ends, steps = [], 0
        for mu in DEFAULT_MU_GRID:
            lines.clear()
            fit = LassoSolver(system).solve(y, LassoConfig(mu=mu))
            assert fit.converged
            ends.append("".join(lines))
            steps += fit.iterations
        return " ".join(ends), steps

    rng = np.random.default_rng(41)
    paths = []
    for n, pepper in ((20, False), (110, True), (200, False)):
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        while np.diff(x).min() < 2e-4:
            x = np.sort(rng.uniform(-1.0, 1.0, n))
        noise = 0.1 * (2.0 * rng.integers(0, 2, n) - 1.0) if pepper else rng.normal(0.0, 0.1, n)
        paths.append(cold_path(build_system(exponential(), x), target_function(x) + noise))
    x = np.linspace(-1.0, 1.0, 200)
    paths.append(cold_path(build_system(exponential(), x), 1.0 + np.cos(3.0 * x)))
    assert paths == PINNED_COLD_PATHS


def well_spaced(rng, bridge, n):
    """A kernel and n sorted points on its domain, spaced at least 0.2 / n."""
    lo, hi = (0.01, 0.99) if bridge else (-2.0, 2.0)
    x = np.sort(rng.uniform(lo, hi, n))
    while n > 1 and np.diff(x).min() < 0.2 / n:
        x = np.sort(rng.uniform(lo, hi, n))
    return brownian_bridge() if bridge else exponential(), x


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_mu=st.floats(-7.0, 1.0),
)
def test_lasso_fit_satisfies_its_certificate(seed, bridge, n, log_mu):
    rng = np.random.default_rng(seed)
    system = build_system(*well_spaced(rng, bridge, n))
    y = rng.uniform(-2, 2, n)
    mu = 10.0 ** log_mu
    fit = lasso_gram(system, y, LassoConfig(mu=mu))
    c = fit.coefficients.values
    assert fit.converged
    assert fit.kkt_residual == kkt_residual(system, y, mu, c)
    assert fit.kkt_residual <= solvers.KKT_TOL * np.abs(y).max()
    assert fit.objective == pytest.approx(lasso_objective(system.gram, y, mu, c), rel=1e-12)


def scale_test_data():
    """The exponential Gram on 200 equispaced points of [-1, 1] and noisy
    samples of the benchmark's target there."""
    x = np.linspace(-1.0, 1.0, 200)
    return build_system(exponential(), x), target_function(x) + np.random.default_rng(0).normal(0.0, 0.1, x.size)


def test_lasso_certificate_scales_with_the_data():
    # (s y, s mu) has the fit s c and the same path, so its certificate must
    # hold at every s; a bound that does not scale with y would leave the fits
    # at large s uncertified and send their climbs back to the top
    system, y = scale_test_data()

    def fits(s):
        cold = [lasso_gram(system, s * y, LassoConfig(mu=s * mu)) for mu in DEFAULT_MU_GRID]
        swept = LassoSolver(system).sweep(s * y, [s * mu for mu in DEFAULT_MU_GRID])
        return cold + list(swept.values())

    by_scale = {s: fits(s) for s in (1e-11, 1e-8, 1e-4, 1.0, 1e4, 1e8)}
    for s, scaled in by_scale.items():
        for fit, base in zip(scaled, by_scale[1.0]):
            c, c1 = fit.coefficients.values, base.coefficients.values
            assert fit.converged, s
            assert fit.iterations == base.iterations, s
            assert np.abs(c - s * c1).max() <= 1e-9 * s * np.abs(c1).max(), s


def test_certificate_has_no_floor_below_unit_data(monkeypatch):
    # c = 0 on the scale test's data times 1e-11 is far from the fit at
    # mu = 1e-18, nearly the interpolant: its KKT residual 6.3e-9 passed the
    # bound 1e-8 that max(1, ||y||_inf) once set, not KKT_TOL * ||y||_inf
    system, y = scale_test_data()
    start_at(monkeypatch, "top")
    monkeypatch.setattr(solvers, "MAX_PATH_STEPS", 0)
    fit = LassoSolver(system).solve(1e-11 * y, LassoConfig(mu=1e-18))
    assert fit.iterations == 0 and not fit.coefficients.values.any()
    assert 6e-9 < fit.kkt_residual < solvers.KKT_TOL
    assert not fit.converged


def test_zero_data_has_the_exact_zero_fit_certified():
    # the bound KKT_TOL * ||y||_inf is 0 at y = 0, which only an exact c = 0
    # with residual 0 meets: cold, swept, from a pinned solver and as the
    # anchor itself, and for the ridge
    x = np.linspace(-1.0, 1.0, 20)
    system, zero = build_system(exponential(), x), np.zeros(20)
    mus = (0.0, *DEFAULT_MU_GRID)
    pinned = LassoSolver(system)
    pinned.pin(target_function(x), LassoConfig(mu=10.0))
    fits = [lasso_gram(system, zero, LassoConfig(mu=mu)) for mu in mus]
    fits += LassoSolver(system).sweep(zero, mus).values()
    fits += pinned.sweep(zero, mus).values()
    fits += [pinned.solve(zero, LassoConfig(mu=mu)) for mu in mus]
    fits.append(LassoSolver(system).pin(zero, LassoConfig(mu=1.0)))
    fits += [ridge_gram(system, zero, mu) for mu in mus]
    for fit in fits:
        assert fit.converged and fit.kkt_residual == 0.0 and fit.iterations == 0
        assert not fit.coefficients.values.any()


def test_pinned_solver_starts_at_the_top_above_the_datas_top_weight():
    # the anchor serves only weights below the data's top weight: above it
    # c = 0, reached in no steps from the top, where a move from the anchor
    # (the benchmark's, at mu = 10) took 327
    x = np.linspace(-1.0, 1.0, 200)
    system, target = build_system(exponential(), x), target_function(x)
    solver = LassoSolver(system)
    solver.pin(target, LassoConfig(mu=10.0))
    for y in (np.zeros(x.size), 1e-3 * target):
        assert zero_mu_threshold(system, y) < 10.0
        fit = solver.solve(y, LassoConfig(mu=10.0))
        assert fit.converged and fit.iterations == 0
        assert not fit.coefficients.values.any()


def test_fit_above_the_certificate_bound_is_unconverged():
    # two nodes 1e-10 apart leave rcond near 3e-11, and the path's round-off
    # a KKT residual (3.1e-6 measured) far above KKT_TOL yet well below 1e-4:
    # a looser certificate bound would count this fit as certified
    system = build_system(exponential(), [0.0, 1e-10, 0.5, 1.0])
    fit = lasso_gram(system, [1.0, -1.0, 0.3, 0.2], LassoConfig(mu=0.0))
    assert solvers.KKT_TOL < fit.kkt_residual <= 1e-4
    assert fit.converged is False


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    log_mu=st.floats(-7.0, 1.0),
)
def test_permuting_the_points_permutes_the_fits(seed, bridge, n, log_mu):
    # K[x] is nonsingular, so both solutions are unique and a permuted point
    # set must give the permuted coefficients up to round-off; 1e-9 relative
    # to max(1, ||c||_inf) is four orders of magnitude above the largest gap
    # (7e-14) over 300 such draws
    rng = np.random.default_rng(seed)
    kernel, x = well_spaced(rng, bridge, n)
    perm = rng.permutation(n)
    system, permuted = build_system(kernel, x), build_system(kernel, PointSet(x[perm]))
    y = rng.uniform(-2, 2, n)
    mu = 10.0 ** log_mu
    for fit, fit_permuted in (
        (lasso_gram(system, y, LassoConfig(mu=mu)), lasso_gram(permuted, y[perm], LassoConfig(mu=mu))),
        (ridge_gram(system, y, mu), ridge_gram(permuted, y[perm], mu)),
    ):
        c = fit.coefficients.values
        gap = np.abs(c[perm] - fit_permuted.coefficients.values).max()
        assert gap <= 1e-9 * max(1.0, np.abs(c).max())


def test_lasso_optimal_objective_nondecreasing_in_mu():
    # sparsity along the path is not monotone in general; the optimal
    # objective value is
    rng = np.random.default_rng(19)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    solver = LassoSolver(system)
    objectives = []
    for mu in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
        fit = solver.solve(y, LassoConfig(mu=mu))
        assert fit.converged
        objectives.append(fit.objective)
    diffs = np.diff(objectives)
    assert np.all(diffs >= -1e-10)


@pytest.mark.parametrize("y", [2.0, -2.0])
def test_lasso_single_point_closed_form(y):
    # K = [[k]]: c = sign(y) max(k |y| - mu / 2, 0) / k^2, zero from the
    # threshold 2 k |y| up
    system = build_system(brownian_bridge(), [0.5])
    k = system.gram[0, 0]
    mus = [f * zero_mu_threshold(system, [y]) for f in (2.0, 0.5, 0.1)]
    solver = LassoSolver(system)
    cold = [LassoSolver(system).solve([y], LassoConfig(mu=mu)) for mu in mus]
    for fits in (cold, solve_path(solver, [y], mus), solve_path(solver, [y], mus[::-1])[::-1]):
        for mu, fit in zip(mus, fits):
            assert fit.converged
            expected = math.copysign(max(k * abs(y) - mu / 2.0, 0.0), y) / k**2
            assert fit.coefficients.values[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_lasso_path_fills_the_active_set_then_loses_a_coordinate():
    # the middle coefficient joins first, the outer two fill the active set,
    # the middle one crosses zero and leaves a square factor, then rejoins
    # with the opposite sign as mu approaches the interpolant [1, -0.01, 1]
    system = build_system(exponential(), [-1.0, 0.0, 1.0])
    y = system.gram @ np.array([1.0, -0.01, 1.0])
    mus = (2.0, 0.5, 1e-4)
    solver = LassoSolver(system)
    warm = solve_path(solver, y, mus)
    assert [np.sign(fit.coefficients.values).tolist() for fit in warm] == [
        [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0],
    ]
    cold = [LassoSolver(system).solve(y, LassoConfig(mu=mu)) for mu in mus]
    for mu, fits in zip(mus, zip(warm, cold)):
        oracle = cd_lasso(system.gram, y, mu, tol=1e-10)
        for fit in fits:
            assert fit.kkt_residual <= 1e-10
            assert np.abs(fit.coefficients.values - oracle).max() <= 1e-6


def test_lasso_rejects_non_finite_gram():
    # build_system rejects such a matrix through its rcond gate; a hand-built
    # GramSystem must not reach the path, whose factor updates scan nothing
    base = build_system(exponential(), [0.0, 1.0])
    for bad in (math.nan, math.inf):
        gram = base.gram.copy()
        gram[0, 1] = bad
        doctored = GramSystem(base.kernel, PointSet([0.0, 1.0]), gram, base.factorization, 1.0)
        with pytest.raises(ValueError, match="Gram matrix must be finite"):
            LassoSolver(doctored)
        with pytest.raises(ValueError, match="Gram matrix must be finite"):
            lasso_gram(doctored, [1.0, 1.0], LassoConfig(mu=0.1))


def test_lasso_factor_updates_raise_on_degenerate_input():
    qb, rb = np.zeros((3, 3), order="F"), np.zeros((3, 3), order="F")
    with pytest.raises(np.linalg.LinAlgError):
        _append_column(qb, rb, 0, np.zeros(3))
    _append_column(qb, rb, 0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError):
        _append_column(qb, rb, 1, np.array([2.0, 0.0, 0.0]))
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        _append_column(qb, rb, 1, np.array([1.0, math.inf, 0.0]))
    singular = np.asfortranarray([[1.0, 1.0], [0.0, 0.0]])
    for trans in (0, 1):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _solve_r(singular, np.ones(2), trans=trans)


def test_lasso_unconverged_returns_best_iterate(monkeypatch):
    # at mu = 0.1 both ends of this path are more than 3 steps away (43 steps
    # from the top, 19 from the bottom); end None leaves the choice to the rule
    rng = np.random.default_rng(23)
    system = build_system(*well_spaced(rng, False, 30))
    y = rng.uniform(-2, 2, system.n)
    monkeypatch.setattr(solvers, "MAX_PATH_STEPS", 3)
    for end in (None, "top", "bottom"):
        with monkeypatch.context() as patch:
            if end is not None:
                start_at(patch, end)
            fit = lasso_gram(system, y, LassoConfig(mu=0.1))
        assert not fit.converged
        assert fit.iterations == 3
        assert np.isfinite(fit.objective)


# ---------------------------------------------------------------------------
# KKT residual


def test_kkt_residual_zero_vector_above_threshold():
    rng = np.random.default_rng(10)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    mu = zero_mu_threshold(system, y) * 1.1
    assert kkt_residual(system, y, mu, np.zeros(system.n)) == 0.0


def test_kkt_residual_converged_fit():
    rng = np.random.default_rng(11)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = lasso_gram(system, y, LassoConfig(mu=0.03))
    assert kkt_residual(system, y, 0.03, fit.coefficients.values) <= 1e-8


def test_kkt_residual_positive_off_optimum():
    rng = np.random.default_rng(12)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = lasso_gram(system, y, LassoConfig(mu=0.03))
    perturbed = fit.coefficients.values + 0.01
    assert kkt_residual(system, y, 0.03, perturbed) > 1e-4


def test_kkt_residual_validation():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(NegativeMu):
        kkt_residual(system, [1.0, 0.0], -0.5, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        kkt_residual(system, [1.0], 0.5, [0.0, 0.0])


# ---------------------------------------------------------------------------
# ridge


def test_ridge_mu_zero_matches_solve():
    rng = np.random.default_rng(13)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = ridge_gram(system, y, 0.0)
    assert fit.coefficients.values == pytest.approx(system.solve(y), rel=1e-10)


def test_ridge_shrinks_with_mu():
    rng = np.random.default_rng(14)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    norms = [
        np.abs(ridge_gram(system, y, mu).coefficients.values).max()
        for mu in (1e2, 1e4, 1e6)
    ]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-4


def test_ridge_single_point_closed_form():
    system = build_system(exponential(), [0.4])
    fit = ridge_gram(system, [2.0], 3.0)  # K(a,a) = 1, so h = y / (1 + mu)
    assert fit.coefficients.values == pytest.approx([0.5])


def test_ridge_residual_certificate():
    rng = np.random.default_rng(15)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    for mu in (0.0, 1e-3, 1.0):
        fit = ridge_gram(system, y, mu)
        assert fit.kkt_residual <= 1e-10 * max(1.0, np.abs(y).max())
        assert fit.converged and fit.iterations == 0


def test_ridge_fit_failing_its_residual_is_not_certified():
    # two nodes 1e-10 apart: the unshifted solve misses y by about 1.7e-6
    system = build_system(exponential(), [0.0, 1e-10, 0.5, 1.0])
    fit = ridge_gram(system, [1.0, -1.0, 0.3, 0.2], 0.0)
    assert fit.kkt_residual > solvers.KKT_TOL
    assert not fit.converged


def test_ridge_dense_sparsity():
    rng = np.random.default_rng(16)
    system = random_system(rng)
    y = rng.uniform(1.0, 2.0, system.n)
    fit = ridge_gram(system, y, 1e-3)
    assert fit.sparsity == system.n


def test_ridge_validation():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(NegativeMu):
        ridge_gram(system, [1.0, 0.0], -0.1)
    with pytest.raises(DimensionMismatch):
        ridge_gram(system, [1.0], 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            ridge_gram(system, [1.0, bad], 0.1)
        with pytest.raises(ValueError, match="must be finite"):
            ridge_gram(system, [1.0, 0.0], bad)
    for bad in ("1", None, False):
        with pytest.raises(ValueError, match="regularization weight must be a real number"):
            ridge_gram(system, [1.0, 0.0], bad)


def test_ridge_singular_shifted():
    # a doctored rank-one "Gram" makes K + 0*I singular
    base = build_system(exponential(), [0.0, 1.0])
    rank_one = np.ones((2, 2))
    doctored = GramSystem(
        base.kernel, PointSet([0.0, 1.0]), rank_one, base.factorization, 1.0
    )
    with pytest.raises(SingularGram, match=r"^K\[x\] \+ mu I at mu=0 numerically singular: rcond ") as caught:
        ridge_gram(doctored, [1.0, 1.0], 0.0)
    assert caught.value.rcond < RCOND_FLOOR


@pytest.mark.parametrize("kernel", [exponential(), wendland_d3_k1()])
def test_ridge_shifts_the_gram_as_the_sum_does(kernel, monkeypatch):
    # K + mu I, formed on a copy of K, has the bits of gram + mu * eye(n);
    # Wendland's Gram on points 1 apart holds exact zeros off its diagonal
    system = build_system(kernel, np.linspace(-3.0, 3.0, 7))
    factored = []
    gated = solvers._lu_factor_gated

    def kept(a, what):
        factored.append(a.copy())
        return gated(a, what)

    monkeypatch.setattr(solvers, "_lu_factor_gated", kept)
    for mu in (0.0, 1e-7, 0.3, 1e3):
        RidgeSolver(system).solve(np.ones(system.n), mu)
        expected = system.gram + mu * np.eye(system.n)
        assert factored[-1].tobytes() == expected.tobytes()
    assert (system.gram == 0.0).any() == (kernel.family.value == "wendland_d3_k1")


def test_ridge_solver_cache_consistent():
    rng = np.random.default_rng(17)
    system = random_system(rng)
    solver = RidgeSolver(system)
    y1, y2 = rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n)
    a = solver.solve(y1, 0.01)
    b = solver.solve(y2, 0.01)  # cached factorization
    assert np.array_equal(a.coefficients.values, ridge_gram(system, y1, 0.01).coefficients.values)
    assert np.array_equal(b.coefficients.values, ridge_gram(system, y2, 0.01).coefficients.values)
