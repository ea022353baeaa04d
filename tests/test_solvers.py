
import math

import numpy as np
import pytest

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
    build_system,
    exponential,
    kkt_residual,
    largest_eigenvalue,
    lasso_gram,
    ridge_gram,
    sinc,
    soft_threshold,
    zero_mu_threshold,
)
from _oracles import cd_lasso, lasso_objective


def random_system(rng, n_max=8, lo=-2.0, hi=2.0, min_spacing=0.05):
    n = int(rng.integers(2, n_max + 1))
    x = np.sort(rng.uniform(lo, hi, n))
    while np.diff(x).min() < min_spacing:
        x = np.sort(rng.uniform(lo, hi, n))
    return build_system(exponential(), x)


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_values():
    assert np.array_equal(soft_threshold([3.0, -1.0, 0.5], 1.0), [2.0, 0.0, 0.0])
    v = np.array([0.3, -0.7, 2.0])
    assert np.array_equal(soft_threshold(v, 0.0), v)
    assert np.array_equal(soft_threshold(v, 2.0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


# ---------------------------------------------------------------------------
# power iteration


def test_largest_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((15, 15))
    g = m.T @ m
    assert largest_eigenvalue(g) == pytest.approx(np.linalg.eigvalsh(g)[-1], rel=1e-8)


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
    for _ in range(40):
        system = random_system(rng)
        y = rng.uniform(-2, 2, system.n)
        mu = 10.0 ** rng.uniform(-3, 0.3)
        fit = lasso_gram(system, y, LassoConfig(mu=mu, tol=1e-10))
        assert fit.converged
        oracle = cd_lasso(system.gram, y, mu, tol=1e-10)
        worst_comp = max(worst_comp, np.abs(fit.coefficients.values - oracle).max())
        gap = abs(fit.objective - lasso_objective(system.gram, y, mu, oracle))
        assert gap <= 1e-6
    assert worst_comp <= 1e-6


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


def test_lasso_objective_monotone_along_iterations():
    rng = np.random.default_rng(6)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    history = []
    solver = LassoSolver(system)
    solver.solve(y, LassoConfig(mu=1e-4, tol=1e-12, max_iter=3000), history=history)
    values = np.array(history)
    # non-increasing up to round-off in the objective evaluation
    assert np.all(np.diff(values) <= 1e-12 * np.maximum(1.0, np.abs(values[:-1])))


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
    with pytest.raises(UnsupportedKernel):
        lasso_gram(build_system(sinc(), [0.2, 3.7]), [1.0, 2.0], LassoConfig(mu=0.1))


def test_lasso_warm_start_path():
    rng = np.random.default_rng(8)
    system = random_system(rng)
    y = rng.uniform(-2, 2, system.n)
    solver = LassoSolver(system)
    warm = None
    for mu in (1.0, 0.1, 0.01):
        fit = solver.solve(y, LassoConfig(mu=mu), warm_start=warm)
        warm = fit.coefficients.values
        assert fit.converged


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
