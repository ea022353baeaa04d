import math

import numpy as np
import pytest

from l1kernels import (
    CoefficientVector,
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    PointSet,
    Side,
    SingularGram,
    brownian_bridge,
    build_system,
    exponential,
    gaussian,
    sinc,
)


def test_point_set_validation():
    ps = PointSet([0.3, 0.1, 0.2])
    assert ps.n == 3
    assert np.array_equal(ps.points, [0.3, 0.1, 0.2])  # user order kept
    assert np.array_equal(ps.points[ps.sorted_indices], [0.1, 0.2, 0.3])
    assert ps.min_spacing == pytest.approx(0.1)
    with pytest.raises(DuplicatePoints):
        PointSet([0.1, 0.2, 0.1])
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([0.1, np.nan])


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
    # symmetric kernels: row equals column
    assert np.array_equal(system.kx_row(0.37), system.kx_column(0.37))
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
    for solve in (system.solve, system.solve_transpose):
        for bad in (1.0, [1.0, 2.0, 3.0], np.ones((3, 2)), np.ones((2, 2, 1))):
            with pytest.raises(DimensionMismatch):
                solve(bad)


def test_solve_vector_or_matrix_right_hand_side():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, 6))
    system = build_system(exponential(), x)
    ys = rng.standard_normal((6, 4))
    for solve, gram in ((system.solve, system.gram), (system.solve_transpose, system.gram.T)):
        cs = solve(ys)
        assert cs.shape == (6, 4)
        assert np.abs(gram @ cs - ys).max() < 1e-10
        for j in range(4):
            c = solve(ys[:, j])
            assert c.shape == (6,)
            # blocked vs single-vector getrs round differently in the last ulp
            assert c == pytest.approx(cs[:, j], abs=1e-12)


def test_solve_transpose():
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(-1, 1, 7))
    system = build_system(exponential(), x)
    y = rng.standard_normal(7)
    c = system.solve_transpose(y)
    assert np.abs(system.gram.T @ c - y).max() < 1e-10


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
        # blocked vs single-vector getrs round differently in the last ulp
        assert batch[:, i] == pytest.approx(system.cardinal_coefficients(t), abs=1e-12)
