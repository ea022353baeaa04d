import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1kernels import (
    CoefficientVector,
    ExpansionFunction,
    KernelMismatch,
    Side,
    UnsupportedKernel,
    bilinear_form,
    brownian_bridge,
    build_system,
    exponential,
    expansion,
    gaussian,
    min_norm_interpolant_b,
    min_norm_interpolant_bsharp,
    section,
    sinc,
)


def test_evaluate_left_single_section():
    f = section(exponential(), 0.3, Side.LEFT)
    assert f.evaluate(0.8) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_evaluate_left_sum():
    f = expansion(exponential(), [0.0, 1.0], [1.0, 1.0], Side.LEFT)
    assert f.evaluate(0.0) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)


def test_left_right_coincide_for_symmetric_kernels():
    rng = np.random.default_rng(0)
    pts = np.sort(rng.uniform(-1, 1, 4))
    c = rng.standard_normal(4)
    left = expansion(exponential(), pts, c, Side.LEFT)
    right = expansion(exponential(), pts, c, Side.RIGHT)
    ts = rng.uniform(-2, 2, 20)
    assert np.array_equal(left.evaluate(ts), right.evaluate(ts))


def test_bnorm():
    f = expansion(exponential(), [0.0, 1.0, 2.0], [0.0, 0.0, 0.0], Side.LEFT)
    assert f.bnorm() == 0.0
    g = expansion(exponential(), [0.0, 1.0, 2.0], [1.0, -2.0, 0.5], Side.LEFT)
    assert g.bnorm() == 3.5
    right = expansion(exponential(), [0.0], [1.0], Side.RIGHT)
    with pytest.raises(ValueError):
        right.bnorm()


def test_bsharp_norm_basis_vector():
    # single section: row maximum lands on the diagonal for the exponential
    pts = [0.0, 0.7, 1.5]
    for j in range(3):
        c = np.eye(3)[j]
        f = expansion(exponential(), pts, c, Side.RIGHT)
        assert f.bsharp_norm() == pytest.approx(1.0, rel=1e-15)


def test_bsharp_norm_values():
    f = expansion(exponential(), [0.4], [-2.5], Side.RIGHT)
    assert f.bsharp_norm() == pytest.approx(2.5)
    g = expansion(exponential(), [0.0, 1.0], [1.0, 1.0], Side.RIGHT)
    assert g.bsharp_norm() == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)


def test_bsharp_norm_guards():
    g = expansion(gaussian(1.0), [0.0, 1.0], [1.0, 1.0], Side.RIGHT)
    with pytest.raises(UnsupportedKernel, match="which is disproven for the gaussian kernel"):
        g.bsharp_norm()
    left = expansion(exponential(), [0.0], [1.0], Side.LEFT)
    with pytest.raises(ValueError):
        left.bsharp_norm()


def test_grid_sup_norm_bounded_by_formula():
    rng = np.random.default_rng(3)
    pts = np.sort(rng.uniform(-1.5, 1.5, 6))
    for _ in range(25):
        c = rng.standard_normal(6)
        f = expansion(exponential(), pts, c, Side.RIGHT)
        grid = np.unique(np.concatenate([np.linspace(-3, 3, 2001), pts]))
        sup = f.grid_sup_norm(grid)
        formula = f.bsharp_norm()
        assert sup <= formula + 1e-9
        assert sup == pytest.approx(formula, rel=1e-12)  # nodes are in the grid


def test_min_norm_interpolant_b():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(-1, 1, 5))
    system = build_system(exponential(), x)

    f = min_norm_interpolant_b(system, np.zeros(5))
    assert f.bnorm() == 0.0

    y = system.gram @ np.eye(5)[2]
    f = min_norm_interpolant_b(system, y)
    assert f.coefficients.values == pytest.approx(np.eye(5)[2], abs=1e-11)
    assert f.bnorm() == pytest.approx(1.0, abs=1e-11)

    y = rng.standard_normal(5)
    f = min_norm_interpolant_b(system, y)
    for xj, yj in zip(x, y):
        assert f.evaluate(xj) == pytest.approx(yj, rel=1e-9, abs=1e-12)


def test_min_norm_interpolant_b_first_gram_column():
    system = build_system(exponential(), [0.0, 1.0])
    f = min_norm_interpolant_b(system, [1.0, math.exp(-1.0)])
    assert f.coefficients.values == pytest.approx([1.0, 0.0], abs=1e-14)
    assert f.bnorm() == pytest.approx(1.0, abs=1e-14)
    assert f.side is Side.LEFT


def test_min_norm_interpolant_b_rejects_sinc():
    system = build_system(sinc(), [0.0, 2.5, 5.0])
    with pytest.raises(UnsupportedKernel):
        min_norm_interpolant_b(system, [1.0, 2.0, 3.0])


def test_min_norm_interpolant_bsharp():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(-1, 1, 6))
    system = build_system(exponential(), x)

    y = 3.0 * np.eye(6)[1]
    f = min_norm_interpolant_bsharp(system, y)
    assert f.side is Side.RIGHT
    for xj, yj in zip(x, y):
        assert f.evaluate(xj) == pytest.approx(yj, abs=1e-10)
    assert f.bsharp_norm() == pytest.approx(3.0, abs=1e-9)

    y = rng.standard_normal(6)
    f = min_norm_interpolant_bsharp(system, y)
    assert f.bsharp_norm() == pytest.approx(np.abs(y).max(), abs=1e-9)


def test_min_norm_interpolant_bsharp_two_points():
    system = build_system(exponential(), [0.0, 1.0])
    f = min_norm_interpolant_bsharp(system, [1.0, 1.0])
    assert f.bsharp_norm() == pytest.approx(1.0, abs=1e-12)


def test_min_norm_interpolant_bsharp_requires_a4():
    system = build_system(gaussian(1.0), [0.0, 1.0])
    with pytest.raises(UnsupportedKernel, match="which is disproven for the gaussian kernel"):
        min_norm_interpolant_bsharp(system, [1.0, 0.0])


@pytest.mark.parametrize("bridge", [False, True])
def test_b_and_bsharp_interpolants_share_coefficients(bridge):
    # K[x] is symmetric, so both interpolants solve the same system
    rng = np.random.default_rng(31)
    kernel = brownian_bridge() if bridge else exponential()
    lo, hi = (0.01, 0.99) if bridge else (-1.0, 1.0)
    for n in (2, 7, 20):
        system = build_system(kernel, np.sort(rng.uniform(lo, hi, n)))
        y = rng.standard_normal(n)
        assert np.array_equal(
            min_norm_interpolant_bsharp(system, y).coefficients.values,
            min_norm_interpolant_b(system, y).coefficients.values,
        )


def test_bilinear_form_single_sections():
    f = section(exponential(), 0.2, Side.LEFT)
    g = section(exponential(), 0.9, Side.RIGHT)
    assert bilinear_form(f, g) == pytest.approx(math.exp(-0.7), rel=1e-15)


# draws for draw_expansions
EXPANSION_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1), bridge=st.booleans(), n=st.integers(1, 5), m=st.integers(1, 5)
)


def draw_expansions(seed, bridge, n, m):
    """LEFT and RIGHT expansions of n and m terms with standard normal
    coefficients, on one of the two kernels with a proven unit Lebesgue
    bound: the exponential over [-1, 1] or the Brownian bridge over
    [0.01, 0.99]."""
    rng = np.random.default_rng(seed)
    kernel = brownian_bridge() if bridge else exponential()
    lo, hi = (0.01, 0.99) if bridge else (-1.0, 1.0)
    f = expansion(kernel, np.sort(rng.uniform(lo, hi, n)), rng.standard_normal(n), Side.LEFT)
    g = expansion(kernel, np.sort(rng.uniform(lo, hi, m)), rng.standard_normal(m), Side.RIGHT)
    return kernel, f, g


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(0.0, 1.0), **EXPANSION_DRAWS)
def test_bilinear_form_reproduces_point_evaluations(seed, bridge, n, m, fraction):
    # <f, K(., t)> = f(t) and <K(t, .), g> = g(t), with t ranging past the
    # points' hull
    kernel, f, g = draw_expansions(seed, bridge, n, m)
    t_lo, t_hi = (0.001, 0.999) if bridge else (-1.5, 1.5)
    t = t_lo + (t_hi - t_lo) * fraction
    assert bilinear_form(f, section(kernel, t, Side.RIGHT)) == pytest.approx(
        f.evaluate(t), rel=1e-10, abs=1e-12
    )
    assert bilinear_form(section(kernel, t, Side.LEFT), g) == pytest.approx(
        g.evaluate(t), rel=1e-10, abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(**EXPANSION_DRAWS)
def test_bilinear_form_hoelder_bound(seed, bridge, n, m):
    _, f, g = draw_expansions(seed, bridge, n, m)
    assert abs(bilinear_form(f, g)) <= f.bnorm() * g.bsharp_norm() * (1 + 1e-12)


def test_bilinear_form_errors():
    f = section(exponential(), 0.0, Side.LEFT)
    g = section(gaussian(1.0), 0.0, Side.RIGHT)
    with pytest.raises(KernelMismatch):
        bilinear_form(f, g)
    with pytest.raises(ValueError):
        bilinear_form(f, f)


def test_expansion_length_mismatch():
    with pytest.raises(ValueError):
        expansion(exponential(), [0.0, 1.0], [1.0], Side.LEFT)


def test_expansion_function_takes_raw_points_as_expansion_does():
    points, values = np.array([0.7, -0.2, 1.5]), np.array([1.0, -2.0, 0.5])
    f = ExpansionFunction(exponential(), points, CoefficientVector(values, Side.RIGHT))
    g = expansion(exponential(), points, values, Side.RIGHT)
    assert f.kernel == g.kernel and f.side is g.side
    assert f.points.min_spacing == g.points.min_spacing
    for a, b in ((f.points.points, g.points.points), (f.points.order, g.points.order),
                 (f.coefficients.values, g.coefficients.values)):
        assert np.array_equal(a, b)
    assert not np.shares_memory(f.points.points, points)
    # raw coefficients have no side: expansion() is the builder that takes them
    for raw in (values, values.tolist()):
        with pytest.raises(ValueError, match=r"CoefficientVector; expansion\(\) takes raw values"):
            ExpansionFunction(exponential(), points, raw)


def test_to_json():
    f = expansion(exponential(), [0.0, 1.0], [1.0, -1.0], Side.LEFT)
    obj = f.to_json()
    assert obj["side"] == "left"
    assert obj["points"] == [0.0, 1.0]
    assert obj["coefficients"] == [1.0, -1.0]
    assert obj["kernel"]["family"] == "exponential"
