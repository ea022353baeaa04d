import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from l1kernels import (
    CoefficientVector,
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    Interval,
    PointSet,
    RandomPointSets,
    Side,
    SingularGram,
    brownian_bridge,
    build_system,
    closed_form_cardinal,
    exponential,
    gaussian,
    profile_grid,
    sinc,
    wendland_d3_k1,
)

from l1kernels.gram import _lu_factor_gated

EPS = float(np.finfo(float).eps)


def test_point_set_validation():
    ps = PointSet([0.3, 0.1, 0.2])
    assert ps.n == 3
    assert np.array_equal(ps.points, [0.3, 0.1, 0.2])  # user order kept
    assert ps.min_spacing == pytest.approx(0.1)
    with pytest.raises(DuplicatePoints):
        PointSet([0.1, 0.2, 0.1])
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([0.1, np.nan])


def test_points_whose_span_overflows_are_rejected():
    # s - t would be infinite for the two outer points
    for points in ([-1e308, 1e308], [1e308, 0.0, -1e308], [np.inf]):
        with pytest.raises(ValueError, match="span a finite length"):
            PointSet(points)
    with pytest.raises(ValueError, match="span a finite length"):
        build_system(sinc(), [-1e308, 1e308])
    assert PointSet([-1e308, 1e307]).n == 2


def test_point_set_immutable():
    ps = PointSet([0.0, 1.0])
    with pytest.raises(ValueError):
        ps.points[0] = 5.0


def test_coefficient_vector():
    c = CoefficientVector([1.0, -2.0], Side.LEFT)
    assert c.n == 2 and c.side is Side.LEFT
    with pytest.raises(ValueError):
        c.values[0] = 0.0


def test_gram_entries_exponential():
    system = build_system(exponential(), [0.0, 1.0])
    e = math.exp(-1.0)
    assert np.allclose(system.gram, [[1.0, e], [e, 1.0]], rtol=0, atol=0)


def test_gram_entry_convention():
    # entry (j, k) = K(x_k, x_j), checked against a double loop
    kernel = brownian_bridge()
    x = [0.2, 0.7, 0.4]
    system = build_system(kernel, x)
    expected = [[kernel.eval(x[k], x[j]) for k in range(3)] for j in range(3)]
    assert np.array_equal(system.gram, expected)


def test_gram_single_point():
    system = build_system(brownian_bridge(), [0.25])
    assert system.gram.shape == (1, 1)
    assert system.gram[0, 0] == pytest.approx(0.25 - 0.0625)


def test_sinc_gram_on_integers_is_identity():
    system = build_system(sinc(), [0.0, 1.0, 2.0])
    assert np.allclose(system.gram, np.eye(3), atol=1e-15)


def test_gram_symmetric_for_zoo():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-2, 2, 8))
    system = build_system(exponential(), x)
    assert np.array_equal(system.gram, system.gram.T)


def test_build_errors():
    with pytest.raises(DuplicatePoints):
        build_system(exponential(), [0.0, 0.0])
    with pytest.raises(DomainError):
        build_system(brownian_bridge(), [0.5, 1.5])
    # clustered Gaussian points drive rcond below the floor
    with pytest.raises(SingularGram) as err:
        build_system(gaussian(1.0), np.linspace(0.0, 0.2, 25))
    assert "min spacing" in str(err.value)
    assert err.value.rcond < 1e-14


def test_factorization_reconstructs_gram():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-2, 2, 12))
    system = build_system(exponential(), x)
    lu, piv = system.factorization
    n = len(x)
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    permuted = system.gram[perm]
    err = np.abs(permuted - lower @ upper).max()
    assert err <= 1e-12 * np.abs(system.gram).max()


def test_kx_column_and_row():
    system = build_system(exponential(), [0.0, 1.0])
    col = system.kx_column(0.0)
    assert col == pytest.approx([1.0, math.exp(-1.0)], rel=1e-15)
    bb = build_system(brownian_bridge(), [0.5])
    assert bb.kx_column(0.25) == pytest.approx([0.125])
    with pytest.raises(DomainError):
        bb.kx_column(1.25)


def test_solve_closed_form_2x2():
    system = build_system(exponential(), [0.0, 1.0])
    c = system.solve([1.0, 0.0])
    denom = 1.0 - math.exp(-2.0)
    assert c == pytest.approx([1.0 / denom, -math.exp(-1.0) / denom], rel=1e-14)


def test_solve_gram_columns_give_basis_vectors():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(0.05, 0.95, 6))
    system = build_system(brownian_bridge(), x)
    for j in range(6):
        c = system.solve(system.gram[:, j])
        assert c == pytest.approx(np.eye(6)[j], abs=1e-10)


def test_solve_single_point():
    system = build_system(exponential(), [0.7])
    assert system.solve([3.0]) == pytest.approx([3.0])  # K(a,a) = 1


def test_solve_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        x = np.sort(rng.uniform(-3, 3, n))
        if n > 1 and np.diff(x).min() < 6e-3:
            continue
        system = build_system(exponential(), x)
        y = rng.standard_normal(n)
        c = system.solve(y)
        resid = np.abs(system.gram @ c - y).max()
        bound = 1e-10 * (
            np.abs(system.gram).sum(axis=1).max() * np.abs(c).max() + np.abs(y).max()
        )
        assert resid <= bound


def test_solve_dimension_mismatch():
    system = build_system(exponential(), [0.0, 1.0])
    for bad in (1.0, [1.0, 2.0, 3.0], np.ones((3, 2)), np.ones((2, 2, 1))):
        with pytest.raises(DimensionMismatch):
            system.solve(bad)


def test_solve_vector_or_matrix_right_hand_side():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, 6))
    system = build_system(exponential(), x)
    ys = rng.standard_normal((6, 4))
    cs = system.solve(ys)
    assert cs.shape == (6, 4)
    assert np.abs(system.gram @ cs - ys).max() < 1e-10
    for j in range(4):
        c = system.solve(ys[:, j])
        assert c.shape == (6,)
        # blocked vs single-vector getrs round differently in the last ulp
        assert c == pytest.approx(cs[:, j], abs=1e-12)


def test_cardinal_coefficients_at_nodes():
    rng = np.random.default_rng(13)
    x = np.sort(rng.uniform(-2, 2, 9))
    system = build_system(exponential(), x)
    for j, xj in enumerate(x):
        c = system.cardinal_coefficients(xj)
        assert np.abs(c - np.eye(9)[j]).max() <= 1e-10


def test_cardinal_coefficients_spot_values():
    system = build_system(exponential(), [0.0, 1.0])
    c = system.cardinal_coefficients(2.0)
    assert c == pytest.approx([0.0, math.exp(-1.0)], abs=1e-14)
    bb = build_system(brownian_bridge(), [0.2, 0.6])
    c = bb.cardinal_coefficients(0.1)
    assert c == pytest.approx([0.5, 0.0], abs=1e-14)


def test_cardinal_matrix_matches_scalar_calls():
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(0.05, 0.95, 5))
    system = build_system(brownian_bridge(), x)
    ts = rng.uniform(0.05, 0.95, 11)
    batch = system.cardinal_matrix(ts)
    for i, t in enumerate(ts):
        # the inverse times K_x(t) and the getrs solve round differently
        assert batch[:, i] == pytest.approx(system.cardinal_coefficients(t), abs=1e-12)


def closed(lo, hi):
    return Interval(lo, hi, lo_open=False, hi_open=False)


@pytest.mark.parametrize("kernel, window", [
    pytest.param(exponential(), closed(-3.0, 3.0), id="exponential"),
    pytest.param(brownian_bridge(), brownian_bridge().domain, id="brownian_bridge"),
])
def test_cardinal_matrix_matches_the_closed_form_cardinal_functions(kernel, window):
    # point sets as the audits draw them, up to n = 200 at spacing 1e-4 of
    # the window; the largest gap measured on such sets was 2.1e-12
    for seed, sizes in enumerate([(200, 200), (31, 200), (2, 30)]):
        ps = RandomPointSets(window, sizes, 1e-4)(np.random.default_rng(seed))
        grid = profile_grid(window, 2001, ps)[::7]
        closed_form = np.column_stack([closed_form_cardinal(kernel, ps.points, t) for t in grid])
        assert np.abs(build_system(kernel, ps).cardinal_matrix(grid) - closed_form).max() <= 1e-10


@pytest.mark.parametrize("kernel, window, sizes, spacing", [
    pytest.param(gaussian(1.0), closed(-3.0, 3.0), (2, 12), 1e-3, id="gaussian"),
    pytest.param(wendland_d3_k1(), closed(-1.0, 1.0), (2, 200), 1e-4, id="wendland_d3_k1"),
])
def test_cardinal_matrix_matches_columnwise_solves(kernel, window, sizes, spacing):
    # no closed form here: both are within a few eps/rcond of the true
    # coefficients; the largest gap measured was 1.0 eps/rcond (Gaussian,
    # 63 sets) and 0.46 eps/rcond (Wendland, 120 sets), relative to max |c|
    checked = 0
    for seed in range(8):
        ps = RandomPointSets(window, sizes, spacing)(np.random.default_rng(seed))
        try:
            system = build_system(kernel, ps)
        except SingularGram:
            continue
        grid = profile_grid(window, 2001, ps)[::7]
        kx = kernel.eval(grid[None, :], ps.points[:, None])
        columns = np.column_stack([system.solve(kx[:, i]) for i in range(grid.size)])
        gap = np.abs(system.cardinal_matrix(grid) - columns).max()
        assert gap <= 16 * EPS / system.rcond_estimate * max(1.0, np.abs(columns).max())
        checked += 1
    assert checked >= 4


def test_cardinal_matrix_into_a_callers_array_keeps_the_bits():
    ps = RandomPointSets(closed(-3.0, 3.0), (115, 115), 1e-4)(np.random.default_rng(5))
    system = build_system(exponential(), ps)
    grid = profile_grid(closed(-3.0, 3.0), 2001, ps)
    fresh = system.cardinal_matrix(grid)
    buffer = np.full(fresh.shape, np.nan)
    assert system.cardinal_matrix(grid, out=buffer) is buffer
    assert np.array_equal(buffer.view(np.int64), fresh.view(np.int64))
    # the kernel section went to the workspace, not to either result
    assert np.array_equal(system.cardinal_matrix(grid[:5]), fresh[:, :5])
    assert np.array_equal(buffer, fresh)
    for bad in (np.empty((115, 7)), np.empty(fresh.shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be a float64 array"):
            system.cardinal_matrix(grid, out=bad)


def test_solves_keep_rejecting_a_right_hand_side_that_is_not_finite():
    system = build_system(exponential(), [0.0, 1.0])
    for y in ([1.0, np.nan], [[1.0, 0.0], [np.inf, 1.0]]):
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            system.solve(y)


def test_an_exactly_singular_matrix_is_rejected_by_the_rcond_gate():
    # the zero pivot's LinAlgWarning stays inside; gecon reads rcond 0, and the gate rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularGram) as caught:
            _lu_factor_gated(np.ones((3, 3)), lambda rcond: SingularGram("singular", rcond=rcond))
    assert caught.value.rcond == 0.0


def test_getrs_solves_match_scipys_lu_solve():
    rng = np.random.default_rng(9)
    for n in (1, 5, 30, 115, 200):
        system = build_system(exponential(), np.sort(rng.uniform(-3.0, 3.0, n)))
        for y in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            assert np.array_equal(system.solve(y), scipy.linalg.lu_solve(system.factorization, y))
