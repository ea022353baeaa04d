import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1kernels import (
    AdmissibilityFlags,
    DomainError,
    Family,
    Interval,
    SingularGram,
    Status,
    UnsupportedKernel,
    brownian_bridge,
    build_system,
    closed_form_cardinal,
    exponential,
    gaussian,
    kernel_from_json,
    kernel_to_json,
    lebesgue_function,
    sinc,
    wendland_d3_k1,
)
from l1kernels.admissibility import A4_TOL
from l1kernels.kernels import _CONSTRUCTORS, _EVALUATORS, _MARKOV, _markov_cardinal

ZOO = [
    exponential(),
    brownian_bridge(),
    gaussian(1.0),
    gaussian(0.2),
    wendland_d3_k1(),
    sinc(),
]


def sample_domain(kernel, rng, size):
    dom = kernel.domain
    lo = dom.lo if dom.bounded else -3.0
    hi = dom.hi if dom.bounded else 3.0
    span = hi - lo
    return rng.uniform(lo + 1e-9 * span, hi - 1e-9 * span, size=size)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_spot_values():
    assert exponential().eval(0.0, 0.0) == 1.0
    assert brownian_bridge().eval(0.25, 0.5) == pytest.approx(0.125, abs=0)
    assert gaussian(1.0).eval(0.0, 0.5) == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert wendland_d3_k1().eval(0.5, 0.0) == pytest.approx(0.5 ** 4 * 3.0, rel=1e-15)
    assert wendland_d3_k1().eval(2.0, 0.0) == 0.0
    assert sinc().eval(0.3, 0.3) == 1.0
    assert sinc().eval(2.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_broadcasts():
    k = exponential()
    s = np.array([0.0, 1.0, -1.0])
    out = k.eval(s, 0.5)
    assert out.shape == (3,)
    assert np.allclose(out, np.exp(-np.abs(s - 0.5)))


# every family, with its parameters drawn where it has any
KERNELS = st.one_of(
    st.sampled_from([exponential(), brownian_bridge(), wendland_d3_k1(), sinc()]),
    st.floats(0.05, 5.0).map(gaussian),
)


@st.composite
def kernel_and_points(draw):
    """A kernel, two equally long point lists inside its domain (or inside
    (-5, 5) when it is the real line) and that interval's ends."""
    kernel = draw(KERNELS)
    dom = kernel.domain
    lo, hi = (dom.lo, dom.hi) if dom.bounded else (-5.0, 5.0)
    coords = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    n = draw(st.integers(1, 12))
    s = draw(st.lists(coords, min_size=n, max_size=n))
    t = draw(st.lists(coords, min_size=n, max_size=n))
    return kernel, np.array(s), np.array(t), (lo, hi)


@settings(max_examples=300, deadline=None)
@given(kernel_and_points())
def test_symmetry_exact_all_families(drawn):
    # The library keeps one orientation (K[x] symmetric, LEFT evaluation for
    # both sides) on the strength of this property; a family that breaks it
    # needs the transposed formulas back.
    kernel, s, t, (lo, hi) = drawn
    assert np.array_equal(kernel.eval(s, t), kernel.eval(t, s)), kernel
    # the Gram on those of s that keep 1/50 of the interval from its ends
    # and from their predecessor
    gap = (hi - lo) / 50
    x = np.unique(s)
    x = x[(np.diff(x, prepend=lo) >= gap) & (x <= hi - gap)]
    if x.size == 0:
        return
    try:
        gram = build_system(kernel, x).gram
    except SingularGram:
        return  # too ill-conditioned to factor; the pairs above cover these points
    assert np.array_equal(gram, gram.T), kernel


def test_boundedness_sampling():
    rng = np.random.default_rng(7)
    for kernel in ZOO:
        s = sample_domain(kernel, rng, 500)
        t = sample_domain(kernel, rng, 500)
        assert np.all(np.abs(kernel.eval(s, t)) <= kernel.bound + 1e-12), kernel.name


def test_brownian_bridge_bound_attained_at_center():
    assert brownian_bridge().eval(0.5, 0.5) == 0.25


def test_domain_errors():
    bb = brownian_bridge()
    with pytest.raises(DomainError):
        bb.eval(0.0, 0.5)
    with pytest.raises(DomainError):
        bb.eval(0.5, 1.0)
    k = exponential(Interval(-1.0, 1.0, lo_open=False, hi_open=False))
    with pytest.raises(DomainError):
        k.eval(0.0, 1.5)
    assert k.eval(-1.0, 1.0) == pytest.approx(math.exp(-2))


def test_far_pairs_evaluate_to_zero_not_nan():
    # differences past 2**52, near the double range and past it: every
    # translation kernel reads its limit 0 there, never nan (Wendland's
    # 0 * inf, sinc's sin(inf)), and no family warns of an overflow; the
    # Brownian bridge's farthest pair is its domain's two ends.  An interval
    # whose length overflows is not bounded
    s = np.array([0.0, -1e308, -1e308, 1e300])
    t = np.array([2.0**52, 1e307, 1e308, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in ZOO:
            if kernel.domain.bounded:
                lo, hi = np.nextafter(kernel.domain.lo, 1.0), np.nextafter(kernel.domain.hi, 0.0)
                assert kernel.eval(lo, hi) == lo - lo * hi, kernel.name
                continue
            assert np.array_equal(kernel.eval(s, t), np.zeros(4)), kernel.name
            assert kernel.eval(1e308, -1e308) == 0.0, kernel.name
    assert Interval(-1e308, 1e307).bounded
    assert not Interval(-1e308, 1e308).bounded


def one_expression(kernel, s, t):
    """K(s, t) as one numpy expression per family: the reference whose bits
    the in-place evaluators keep."""
    with np.errstate(over="ignore"):
        if kernel.family is Family.EXPONENTIAL:
            return np.exp(-np.abs(s - t))
        if kernel.family is Family.BROWNIAN_BRIDGE:
            return np.minimum(s, t) - s * t
        if kernel.family is Family.GAUSSIAN:
            return np.exp(-((s - t) ** 2) / kernel.sigma)
        if kernel.family is Family.WENDLAND_D3_K1:
            r = np.minimum(np.abs(s - t), 1.0)
            return (1.0 - r) ** 4 * (1.0 + 4.0 * r)
        far = np.abs(s - t) >= 2.0**52
        return np.where(far, 0.0, np.sinc(np.where(far, 0.0, s - t)))


def evaluation_pairs(kernel):
    """(s, t) argument pairs: a grid row against a point column, each with
    the other's values among its own, a 1-D array against a scalar, and for
    the translation kernels far pairs (Wendland's zero tail and the edge of
    its support, squares that overflow, sinc differences past 2**52)."""
    rng = np.random.default_rng(23)
    lo, hi = (0.0, 1.0) if kernel.domain.bounded else (-3.0, 3.0)
    points = np.sort(rng.uniform(lo, hi, 40))
    grid = np.concatenate([np.linspace(lo, hi, 303)[1:-1], points])
    pairs = [(grid[None, :], points[:, None]), (grid, points[7])]
    if not kernel.domain.bounded:
        far = np.array([1.0, -1.0, 1e200, -1e200, 1e308, -1e308, 2.0**52, 2.0**52 - 0.5, -(2.0**53) - 2.0, 4.5e15])
        pairs.append((far[None, :], np.array([0.0, 0.25, -1.5])[:, None]))
    return pairs


@pytest.mark.parametrize("kernel", ZOO, ids=lambda k: f"{k.name}-{k.sigma}")
def test_evaluators_keep_the_bits_of_the_one_expression_form(kernel):
    for s, t in evaluation_pairs(kernel):
        expected = one_expression(kernel, s, t)
        got = kernel.eval(s, t)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), kernel
        buffer = np.full(expected.shape, np.nan)
        assert kernel.eval(s, t, out=buffer) is buffer
        assert np.array_equal(buffer.view(np.int64), expected.view(np.int64)), kernel
    if kernel.family is Family.WENDLAND_D3_K1:
        # the zero tail and the support's edge are in the pairs above
        s, t = evaluation_pairs(kernel)[0]
        assert (kernel.eval(s, t) == 0.0).mean() > 0.2 and kernel.eval(1.0, 0.0) == 0.0


@pytest.mark.parametrize("kernel", ZOO, ids=lambda k: f"{k.name}-{k.sigma}")
def test_scalar_inputs_evaluate_to_a_float(kernel):
    s, t = (0.3, 0.7) if kernel.domain.bounded else (0.3, -1.9)
    for a, b in ((s, t), (s, s)):
        expected = np.float64(one_expression(kernel, np.float64(a), np.float64(b)))
        for value in (kernel.eval(a, b), kernel.eval(a, b, out=np.empty(()))):
            assert type(value) is float
            assert np.float64(value).view(np.int64) == expected.view(np.int64)


@pytest.mark.parametrize(
    "out",
    [np.empty(4), np.empty((5, 1)), np.empty(5, dtype=np.float32), np.empty(5, dtype=int), [0.0] * 5],
    ids=["short", "two-dimensional", "float32", "int", "list"],
)
def test_an_out_of_another_shape_or_dtype_is_rejected(out):
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        exponential().eval(np.linspace(-1.0, 1.0, 5), 0.0, out=out)


def test_an_out_that_overlaps_the_arguments_is_rejected():
    s = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="share memory"):
        exponential().eval(s, 0.0, out=s)
    assert np.array_equal(s, np.linspace(-1.0, 1.0, 5))


def test_parameter_validation():
    for sigma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gaussian sigma must be positive and finite"):
            gaussian(sigma)
    with pytest.raises(ValueError):
        brownian_bridge(Interval(-0.1, 0.5))
    with pytest.raises(ValueError):
        brownian_bridge(Interval(0.0, 1.0, lo_open=False, hi_open=True))


def test_admissibility_metadata():
    for k in (exponential(), brownian_bridge()):
        assert all(
            getattr(k.flags, a) is Status.PROVEN for a in ("a1", "a2", "a3", "a4")
        )
    # strictly positive definite with |K| <= 1: A1 and A2 by reference
    for k in (gaussian(1.0), wendland_d3_k1(), sinc()):
        assert k.flags.a1 is Status.PROVEN and k.flags.a2 is Status.PROVEN
        assert k.flags.a4 is Status.DISPROVEN
    assert sinc().flags.a3 is Status.DISPROVEN
    # A3 on every domain: the Gaussian by a transform with no zero (its sums
    # are entire), the Wendland kernel by its fourth derivative's atom at 0
    domains = (
        None, Interval(-1.0, 1.0), Interval(0.0, math.inf), Interval(-math.inf, 2.0),
        Interval(-math.inf, math.inf, lo_open=False, hi_open=False),
    )
    for domain in domains:
        assert gaussian(0.5, domain).flags.a3 is Status.PROVEN
        kernel = wendland_d3_k1(domain)
        assert kernel.flags == AdmissibilityFlags(Status.PROVEN, Status.PROVEN, Status.PROVEN, Status.DISPROVEN)
        assert kernel_from_json(kernel_to_json(kernel)) == kernel
    # the two Markov kernels: A3 by their second derivatives, on any domain
    closed = Interval(0.2, 0.6, lo_open=False, hi_open=False)
    for k in (exponential(Interval(-1.0, 1.0)), exponential(closed), brownian_bridge(closed)):
        assert k.flags == AdmissibilityFlags(*[Status.PROVEN] * 4)
    assert list(Status) == [Status.PROVEN, Status.DISPROVEN]


def test_wendland_d3_k1_a4_witness():
    # the docstring's two-point witness: L(t) from the LU path and from the
    # closed-form inverse [[1, -a], [-a, 1]] / (1 - a^2) of the 2x2 Gram
    kernel, x, t = wendland_d3_k1(), [0.0, 0.2], -0.159
    system = build_system(kernel, x)
    a = 0.8 ** 4 * 1.8
    assert kernel.eval(0.0, 0.2) == pytest.approx(a, rel=1e-15)
    kt = kernel.eval(t, np.array(x))
    w = np.array([[1.0, -a], [-a, 1.0]]) @ kt / (1.0 - a * a)
    assert w == pytest.approx([1.1288, -0.4210], abs=1e-4)
    closed, numeric = np.abs(w).sum(), lebesgue_function(system, t)
    assert closed == pytest.approx(1.54975, abs=1e-5)
    assert system.rcond_estimate == pytest.approx(0.151, abs=1e-3)
    assert abs(numeric - closed) <= 1e-12
    bound = 1.0 + A4_TOL + np.finfo(float).eps / system.rcond_estimate
    assert min(numeric, closed) > bound


def test_sinc_a4_witness():
    # the docstring's two-point witness: on x = (0, 1) the Gram is the
    # identity, so at t = 0.5 the cardinal coefficients are the kernel
    # values sinc(0.5) = 2/pi and L(t) = 4/pi
    system = build_system(sinc(), [0.0, 1.0])
    assert np.abs(system.gram - np.eye(2)).max() <= 1e-16
    assert system.rcond_estimate == pytest.approx(1.0, rel=1e-15)
    numeric = lebesgue_function(system, 0.5)
    assert numeric == pytest.approx(4.0 / math.pi, rel=1e-15)
    assert numeric == pytest.approx(1.2732395, abs=1e-7)
    assert numeric > 1.0 + A4_TOL + np.finfo(float).eps / system.rcond_estimate


def test_every_family_is_registered_and_verdicted():
    # a family with no constructor, no evaluator or no JSON round trip cannot
    # join (or stay in) the zoo unnoticed; AdmissibilityFlags has no default
    # and Status only PROVEN and DISPROVEN, so every condition is verdicted
    for family in Family:
        assert family in _EVALUATORS and family in _CONSTRUCTORS, family
        kernel = _CONSTRUCTORS[family]()
        assert kernel.family is family
        assert kernel_from_json(kernel_to_json(kernel)) == kernel


# ---------------------------------------------------------------------------
# closed-form cardinal functions


def test_cardinal_brownian_interior_gap():
    w = closed_form_cardinal(brownian_bridge(), [0.2, 0.6], 0.4)
    assert np.allclose(w, [0.5, 0.5], atol=0)


def test_cardinal_exponential_right_tail():
    w = closed_form_cardinal(exponential(), [0.0, 1.0], 2.0)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_cardinal_node_coincidence():
    w = closed_form_cardinal(exponential(), [0.0, 1.0], 0.0)
    assert np.array_equal(w, [1.0, 0.0])
    w = closed_form_cardinal(brownian_bridge(), [0.2, 0.6, 0.9], 0.6)
    assert np.array_equal(w, [0.0, 1.0, 0.0])


def test_cardinal_exponential_interior_sinh_form():
    w = closed_form_cardinal(exponential(), [0.0, 1.0], 0.5)
    expected = math.sinh(0.5) / math.sinh(1.0)
    assert w == pytest.approx([expected, expected], rel=1e-15)


def test_cardinal_brownian_left_tail():
    w = closed_form_cardinal(brownian_bridge(), [0.2, 0.6], 0.1)
    assert w == pytest.approx([0.5, 0.0], abs=0)


def test_cardinal_unsupported_family():
    for kernel in (gaussian(1.0), wendland_d3_k1(), sinc()):
        with pytest.raises(UnsupportedKernel, match=f"for the {kernel.name} kernel"):
            closed_form_cardinal(kernel, [0.0, 1.0], 0.5)
    # the module docstring's A4 proof covers exactly the families with a row
    proven = {f for f in Family if _CONSTRUCTORS[f]().flags.a4 is Status.PROVEN}
    assert set(_MARKOV) == proven == {Family.EXPONENTIAL, Family.BROWNIAN_BRIDGE}


def test_cardinal_exponential_wide_gaps_stay_finite():
    # sinh overflows past a gap of about 710.5; the numeric solve is exact
    # there (rcond 1), and a wide bracket's weights still come out finite
    for x, t in [([0.0, 800.0], 300.0), ([0.0, 800.0], 799.5), ([-1000.0, 0.0, 1500.0], 1200.0)]:
        closed = closed_form_cardinal(exponential(), x, t)
        numeric = build_system(exponential(), x).cardinal_coefficients(t)
        support = closed != 0.0
        assert support.any() and np.all(np.isfinite(closed))
        assert closed[support] == pytest.approx(numeric[support], rel=1e-12, abs=0)
        assert np.abs(numeric[~support]).max(initial=0.0) < 1e-200


def test_cardinal_respects_user_order():
    # unsorted input: result aligned with the given order
    sorted_w = closed_form_cardinal(exponential(), [0.0, 1.0, 2.0], 0.7)
    shuffled = closed_form_cardinal(exponential(), [2.0, 0.0, 1.0], 0.7)
    assert shuffled == pytest.approx([sorted_w[2], sorted_w[0], sorted_w[1]], rel=0)


def test_cardinal_matches_numeric_solve():
    rng = np.random.default_rng(11)
    for kernel, lo, hi in [(exponential(), -3.0, 3.0), (brownian_bridge(), 0.01, 0.99)]:
        for _ in range(200):
            n = int(rng.integers(2, 31))
            x = np.sort(rng.uniform(lo, hi, size=n))
            while np.diff(x).min() < 1e-3 * (hi - lo):
                x = np.sort(rng.uniform(lo, hi, size=n))
            t = rng.uniform(lo, hi)
            system = build_system(kernel, x)
            closed = closed_form_cardinal(kernel, x, t)
            numeric = system.cardinal_coefficients(t)
            assert np.max(np.abs(closed - numeric)) <= 1e-9, kernel.name


def test_cardinal_l1_bound():
    rng = np.random.default_rng(5)
    for kernel, lo, hi in [(exponential(), -3.0, 3.0), (brownian_bridge(), 0.02, 0.98)]:
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = np.sort(rng.uniform(lo, hi, size=n))
            while np.diff(x).min() <= 0:
                x = np.sort(rng.uniform(lo, hi, size=n))
            t = rng.uniform(lo, hi)
            w = closed_form_cardinal(kernel, x, t)
            assert np.abs(w).sum() <= 1.0 + 1e-12


def _row(p, q):
    """A _markov_cardinal row from the literal generators p and q."""
    return (
        lambda u, v: p(u) / p(v),
        lambda u, v: q(v) / q(u),
        lambda u, v: (p(v) * q(u) - p(u) * q(v), 0.0),
    )


def _dense_cardinal(p, q, x, t):
    """K[x]^(-1) K_x(t) for K(s, u) = p(min(s, u)) q(max(s, u)), by a dense solve."""
    def kernel(s, u):
        return p(np.minimum(s, u)) * q(np.maximum(s, u))

    return np.linalg.solve(kernel(x[:, None], x[None, :]), kernel(x, t))


@st.composite
def markov_generators(draw):
    """Generators p, q inside the A4 criterion, with a domain [lo, hi]: affine
    p nondecreasing and q nonincreasing (the Brownian bridge's class), or the
    Ornstein-Uhlenbeck process from s0 (p = sinh(theta (s - s0)), q = e^(-theta s))."""
    if draw(st.booleans()):
        a, c = draw(st.floats(0.1, 2.0)), draw(st.floats(0.5, 2.0))
        b, d = draw(st.floats(0.1, 2.0)), c * draw(st.floats(0.0, 0.9))
        return (lambda s: a + b * s), (lambda s: c - d * s), (0.0, 1.0)
    theta, s0 = draw(st.floats(0.2, 3.0)), draw(st.floats(-1.0, 0.0))
    return (lambda s: np.sinh(theta * (s - s0))), (lambda s: np.exp(-theta * s)), (s0 + 0.05, s0 + 1.5)


@settings(max_examples=150, deadline=None)
@given(markov_generators(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.data())
def test_markov_formula_matches_a_dense_solve_inside_the_criterion(generators, fractions, data):
    p, q, (lo, hi) = generators
    x = np.unique(lo + (hi - lo) * np.round(np.array(fractions), 2))  # spacing >= 1% of the domain
    t = data.draw(st.one_of(st.floats(lo, hi), st.sampled_from(x.tolist())))
    w = _markov_cardinal(_row(p, q), x, t)
    assert np.abs(w - _dense_cardinal(p, q, x, t)).max() <= 1e-9
    assert np.abs(w).sum() <= 1.0 + 1e-9


def test_markov_formula_exceeds_one_where_q_increases():
    # p = s, q = 1 + s: r = s / (1 + s) increases, but so does q, so right of
    # the nodes L = q(t) / q(x_n) > 1; the formula still is the cardinal vector
    def p(s):
        return s

    def q(s):
        return 1.0 + s

    x = np.array([0.2, 0.5])
    lebesgue = []
    for t in np.linspace(0.1, 0.9, 17):
        w = _markov_cardinal(_row(p, q), x, t)
        assert np.abs(w - _dense_cardinal(p, q, x, t)).max() <= 1e-12
        lebesgue.append(np.abs(w).sum())
    assert max(lebesgue) == pytest.approx(1.9 / 1.5, rel=1e-15)


# ---------------------------------------------------------------------------
# JSON interchange


def test_json_round_trip_all_families():
    for kernel in ZOO:
        obj = kernel_to_json(kernel)
        back = kernel_from_json(obj)
        assert back == kernel


def test_json_minimal_forms():
    k = kernel_from_json({"family": "gaussian", "params": {"sigma": 2.0}})
    assert k.sigma == 2.0
    k = kernel_from_json({"family": "exponential", "params": {}, "domain": [-3, 3]})
    assert k.domain.lo == -3.0 and k.domain.bounded


def test_json_unknown_family():
    # the last three are families the zoo no longer has
    for name in ("laplacian_of_doom", "bspline", "inverse_multiquadric", "wendland_d3_k0"):
        with pytest.raises(ValueError, match="unknown kernel family"):
            kernel_from_json({"family": name, "params": {}})
