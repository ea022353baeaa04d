
import math

import numpy as np
import pytest
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
    SingularShifted,
    UnsupportedKernel,
    brownian_bridge,
    build_system,
    exponential,
    kkt_residual,
    lasso_gram,
    ridge_gram,
    sinc,
    target_function,
    zero_mu_threshold,
)
from l1kernels.solvers import _append_column, _solve_r
from _oracles import cd_lasso, cd_lasso_batch, lasso_objective

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
        fit = lasso_gram(system, y, LassoConfig(mu=mu, tol=1e-10))
        assert fit.converged
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


def test_lasso_mean_loss_scaling():
    rng = np.random.default_rng(7)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    cfg = LassoConfig(mu=0.01, mean_loss=True)
    fit = lasso_gram(system, y, cfg)
    r = system.gram @ fit.coefficients.values - y
    expected = float(r @ r) / system.n + 0.01 * np.abs(fit.coefficients.values).sum()
    assert fit.objective == pytest.approx(expected, rel=1e-12)
    assert fit.converged
    assert kkt_residual(system, y, 0.01, fit.coefficients.values, mean_loss=True) <= 1e-8


def test_lasso_validation_errors():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(NegativeMu):
        LassoConfig(mu=-1.0)
    with pytest.raises(ValueError):
        LassoConfig(mu=0.1, max_iter=0)
    with pytest.raises(ValueError):
        LassoConfig(mu=0.1, max_iter=2.5)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LassoConfig(mu=mu)
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


def solve_path(solver, y, mus, **config):
    """Fits of one solver along mus, in the order given: each one resumes
    the fit before it where mu decreases."""
    return [solver.solve(y, LassoConfig(mu=mu, **config)) for mu in mus]


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
        fits = solve_path(LassoSolver(system), y, DEFAULT_MU_GRID, tol=1e-10)
        for mu, fit in zip(DEFAULT_MU_GRID, fits):
            assert fit.converged
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
    for fit in solve_path(LassoSolver(system), y, DEFAULT_MU_GRID):
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


def test_lasso_resumes_only_its_last_stop_on_the_same_data():
    # every solve other than one on the last solve's data and loss scale,
    # at a mu no larger than its own, must give a fresh solver's cold fit
    # bit for bit
    rng = np.random.default_rng(23)
    system = build_system(*well_spaced(rng, False, 30))
    y1, y2 = rng.uniform(-2, 2, (2, system.n))
    high, low = LassoConfig(mu=0.5), LassoConfig(mu=1e-3)

    def assert_cold(fit, y, config):
        cold = LassoSolver(system).solve(y, config)
        assert np.array_equal(fit.coefficients.values, cold.coefficients.values)
        assert fit.iterations == cold.iterations

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
    # another loss scale: the same mu weighs another path
    solver.solve(y1, high)
    mean_low = LassoConfig(mu=1e-3, mean_loss=True)
    assert_cold(solver.solve(y1, mean_low), y1, mean_low)
    solver.solve(y1, LassoConfig(mu=0.5, mean_loss=True))
    assert_cold(solver.solve(y1, low), y1, low)
    # a solve cut short by max_iter leaves no stop: not the one it resumed
    # from, whose factor it has moved on, and not one of its own
    capped_config = LassoConfig(mu=1e-3, max_iter=3)
    solver.solve(y1, high)
    capped = solver.solve(y1, capped_config)
    assert capped.iterations == 3 and not capped.converged
    assert_cold(solver.solve(y1, low), y1, low)
    solver.solve(y2, high)
    assert not solver.solve(y1, capped_config).converged
    assert_cold(solver.solve(y1, low), y1, low)

    # the same data at a smaller mu does resume
    solver.solve(y1, high)
    resumed = solver.solve(y1, low)
    assert resumed.converged
    assert resumed.iterations < LassoSolver(system).solve(y1, low).iterations


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


def test_lasso_mean_loss_path_certified():
    rng = np.random.default_rng(22)
    system = random_system(rng, n_max=20)
    y = rng.uniform(-2, 2, system.n)
    fits = solve_path(LassoSolver(system), y, DEFAULT_MU_GRID, mean_loss=True)
    for mu, fit in zip(DEFAULT_MU_GRID, fits):
        c = fit.coefficients.values
        assert fit.converged
        assert kkt_residual(system, y, mu, c, mean_loss=True) <= 1e-8


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
    config = LassoConfig(mu=mu)
    fit = lasso_gram(system, y, config)
    c = fit.coefficients.values
    assert fit.converged
    assert fit.kkt_residual == kkt_residual(system, y, mu, c)
    assert fit.kkt_residual <= config.tol
    assert fit.objective == pytest.approx(lasso_objective(system.gram, y, mu, c), rel=1e-12)


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
    warm = solve_path(solver, y, mus, tol=1e-10)
    assert [np.sign(fit.coefficients.values).tolist() for fit in warm] == [
        [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0],
    ]
    cold = [LassoSolver(system).solve(y, LassoConfig(mu=mu, tol=1e-10)) for mu in mus]
    for mu, fits in zip(mus, zip(warm, cold)):
        oracle = cd_lasso(system.gram, y, mu, tol=1e-10)
        for fit in fits:
            assert fit.converged
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


def test_lasso_unconverged_returns_best_iterate():
    rng = np.random.default_rng(9)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    fit = lasso_gram(system, y, LassoConfig(mu=1e-4, max_iter=3, tol=1e-14))
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


def test_ridge_singular_shifted():
    # a doctored rank-one "Gram" makes K + 0*I singular
    base = build_system(exponential(), [0.0, 1.0])
    rank_one = np.ones((2, 2))
    doctored = GramSystem(
        base.kernel, PointSet([0.0, 1.0]), rank_one, base.factorization, 1.0
    )
    with pytest.raises(SingularShifted):
        ridge_gram(doctored, [1.0, 1.0], 0.0)


def test_ridge_solver_cache_consistent():
    rng = np.random.default_rng(17)
    system = random_system(rng)
    solver = RidgeSolver(system)
    y1, y2 = rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n)
    a = solver.solve(y1, 0.01)
    b = solver.solve(y2, 0.01)  # cached factorization
    assert np.array_equal(a.coefficients.values, ridge_gram(system, y1, 0.01).coefficients.values)
    assert np.array_equal(b.coefficients.values, ridge_gram(system, y2, 0.01).coefficients.values)
