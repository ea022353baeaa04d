import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1kernels import (
    Condition,
    DomainError,
    DuplicatePoints,
    Interval,
    PointSet,
    RandomPointSets,
    Side,
    SingularGram,
    Verdict,
    audit_a1,
    audit_a2,
    audit_a4,
    audit_relaxed_a4,
    brownian_bridge,
    build_system,
    closed_form_cardinal,
    exponential,
    extension_norm,
    gaussian,
    l2_error,
    lebesgue_constant,
    lebesgue_function,
    pair_grid,
    profile_grid,
    section,
    sinc,
    wendland_d3_k1,
)
from l1kernels import Family, gram, kernels
from l1kernels.admissibility import A4_TOL
from _oracles import draw_points

EXP_WINDOW = Interval(-3.0, 3.0, lo_open=False, hi_open=False)

# Frozen regression fixture for the unit-Lebesgue-bound failure of the

# Gaussian kernel, located by grid search: three symmetric points, profile
# maximized at the window edge.
GAUSSIAN_WITNESS_POINTS = (-0.5, 0.0, 0.5)
GAUSSIAN_WITNESS_T = 1.0
GAUSSIAN_WITNESS_VALUE = 3.2076  # grid max over [-1, 1]


# ---------------------------------------------------------------------------
# Lebesgue function / constant


def test_lebesgue_is_one_at_nodes():
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-2, 2, 7))
    system = build_system(exponential(), x)
    for xj in x:
        assert lebesgue_function(system, xj) == pytest.approx(1.0, abs=1e-9)


def test_lebesgue_brownian_interior():
    system = build_system(brownian_bridge(), [0.2, 0.6])
    assert lebesgue_function(system, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_exponential_interior_value():
    system = build_system(exponential(), [0.0, 1.0])
    expected = 2.0 * math.sinh(0.5) / math.sinh(1.0)
    assert lebesgue_function(system, 0.5) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.886819, abs=1e-6)


def test_lebesgue_constant_profile_invariants():
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(0.05, 0.95, 6))
    system = build_system(brownian_bridge(), x)
    grid = profile_grid(system.kernel.domain, 501, x)
    prof = lebesgue_constant(system, grid)
    assert np.all(prof.values >= 0.0)
    assert prof.max_value == prof.values.max()
    assert prof.max_value <= 1.0 + 1e-9  # admissible kernel
    assert prof.argmax in grid
    assert not any(np.shares_memory(grid, value) for value in vars(prof).values())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bridge=st.booleans(), n=st.integers(1, 40))
def test_permuting_the_points_permutes_the_cardinal_functions(seed, bridge, n):
    # both kernels have L <= 1, so cardinal coefficients are O(1); 1e-9 is
    # four orders of magnitude above the largest gap (1.2e-13) over 300 draws
    # of points spaced at least 0.2 / n
    rng = np.random.default_rng(seed)
    lo, hi = (0.01, 0.99) if bridge else (-2.0, 2.0)
    kernel = brownian_bridge() if bridge else exponential()
    x = draw_points(rng, n, lo, hi, 0.2 / n)
    perm = rng.permutation(n)
    system, permuted = build_system(kernel, x), build_system(kernel, PointSet(x[perm]))
    grid = np.concatenate([np.linspace(lo, hi, 101), x])
    gap = np.abs(system.cardinal_matrix(grid)[perm] - permuted.cardinal_matrix(grid)).max()
    assert gap <= 1e-9
    profile, permuted_profile = lebesgue_constant(system, grid), lebesgue_constant(permuted, grid)
    assert np.abs(profile.values - permuted_profile.values).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bridge=st.booleans(),
    n=st.integers(1, 40),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_closed_form_and_numeric_cardinal_functions_agree(seed, bridge, n, fractions):
    # t ranges past the points' hull on both sides, into the tails where one
    # node carries the closed form; at the nodes L(x_j) = 1
    rng = np.random.default_rng(seed)
    lo, hi = (0.01, 0.99) if bridge else (-2.0, 2.0)
    t_lo, t_hi = (0.001, 0.999) if bridge else (-3.0, 3.0)
    kernel = brownian_bridge() if bridge else exponential()
    x = draw_points(rng, n, lo, hi, 0.2 / n)
    system = build_system(kernel, x)
    for t in t_lo + (t_hi - t_lo) * np.array(fractions):
        gap = np.abs(closed_form_cardinal(kernel, x, t) - system.cardinal_coefficients(t)).max()
        assert gap <= 1e-9
    for xj in x:
        assert lebesgue_function(system, xj) == pytest.approx(1.0, abs=1e-9)


def test_lebesgue_constant_empty_grid():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(ValueError):
        lebesgue_constant(system, [])


def profiled_system(kernel, window, n, seed):
    ps = RandomPointSets(window, (n, n), 1e-4)(np.random.default_rng(seed))
    return build_system(kernel, ps), profile_grid(window, 2001, ps)


def test_a_warm_lebesgue_profile_allocates_less_than_one_cardinal_matrix():
    system, grid = profiled_system(exponential(), EXP_WINDOW, 200, 4)
    first = lebesgue_constant(system, grid)  # fills this thread's workspace
    kept = first.values.copy()
    tracemalloc.start()
    try:
        second = lebesgue_constant(system, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, m) array is 3.4 MB; the one-expression profile peaked at two
    assert peak < system.n * grid.size * 8
    assert np.array_equal(second.values, kept) and np.array_equal(first.values, kept)
    assert not np.shares_memory(first.values, second.values)


def test_threads_profiling_at_once_get_the_serial_values():
    bb = brownian_bridge()
    cases = [
        profiled_system(exponential(), EXP_WINDOW, 150, 1),
        profiled_system(bb, bb.domain, 120, 2),
        profiled_system(wendland_d3_k1(), Interval(-1.0, 1.0, lo_open=False, hi_open=False), 80, 3),
        profiled_system(exponential(), EXP_WINDOW, 40, 4),
    ]
    serial = [lebesgue_constant(system, grid).values for system, grid in cases]
    results = {i: [] for i in range(len(cases))}
    errors = []

    def profile(i):
        try:
            for _ in range(6):
                results[i].append(lebesgue_constant(*cases[i]).values)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=profile, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    for i, expected in enumerate(serial):
        assert len(results[i]) == 6
        assert all(np.array_equal(values, expected) for values in results[i]), i


def test_a_profile_above_the_workspace_cap_is_right_and_not_kept(monkeypatch):
    system, grid = profiled_system(exponential(), EXP_WINDOW, 30, 5)
    small, small_grid = profiled_system(exponential(), EXP_WINDOW, 2, 6)
    expected = lebesgue_constant(system, grid).values
    small_grid = small_grid[:100]
    monkeypatch.setattr(gram, "WORKSPACE_ENTRIES", 1000)
    seen = {}

    def profile():
        # a fresh thread starts with an empty workspace
        seen["values"] = lebesgue_constant(system, grid).values
        seen["after_large"] = {name: buf.size for name, buf in vars(gram._workspace).items()}
        lebesgue_constant(small, small_grid)
        seen["after_small"] = {name: buf.size for name, buf in vars(gram._workspace).items()}

    thread = threading.Thread(target=profile)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert np.array_equal(seen["values"], expected)
    assert system.n * grid.size > 1000 and seen["after_large"] == {}
    assert seen["after_small"] == {"section": 2 * 100, "cardinal": 2 * 100}


def test_gaussian_witness_regression():
    """Frozen witness: the Gaussian kernel's Lebesgue function blows past 1."""
    system = build_system(gaussian(1.0), GAUSSIAN_WITNESS_POINTS)
    grid = np.linspace(-1.0, 1.0, 2001)
    prof = lebesgue_constant(system, grid)
    assert prof.max_value > 1.0 + 1e-3
    assert prof.max_value == pytest.approx(GAUSSIAN_WITNESS_VALUE, rel=1e-3)
    assert abs(prof.argmax) == pytest.approx(GAUSSIAN_WITNESS_T, abs=1e-3)
    # the violation is visible pointwise too
    assert lebesgue_function(system, GAUSSIAN_WITNESS_T) > 3.0


def test_profile_grid_open_endpoints_and_midpoints():
    dom = Interval(0.0, 1.0, lo_open=True, hi_open=True)
    grid = profile_grid(dom, 101, [0.2, 0.6])
    assert grid.min() > 0.0 and grid.max() < 1.0
    assert 0.4 in grid  # midpoint of the two nodes
    closed = profile_grid(Interval(-3, 3, lo_open=False, hi_open=False), 101)
    assert closed[0] == -3.0 and closed[-1] == 3.0 and closed.size == 101
    with pytest.raises(ValueError):
        profile_grid(Interval(), 101)


def test_a_point_set_and_its_points_give_the_same_bits():
    # profile_grid and closed_form_cardinal read a PointSet's order, and
    # build a PointSet from an array: the same checks and the same sample
    rng = np.random.default_rng(3)
    window = Interval(0.0, 1.0, lo_open=False, hi_open=True)
    for n in (1, 2, 7, 40):
        x = rng.uniform(0.01, 0.99, n)
        ps = PointSet(x)
        assert profile_grid(window, 101, ps).tobytes() == profile_grid(window, 101, x).tobytes()
        for kernel in (exponential(), brownian_bridge()):
            for t in (0.005, 0.5, 0.995, float(x[-1])):
                expected = closed_form_cardinal(kernel, x, t)
                assert closed_form_cardinal(kernel, ps, t).tobytes() == expected.tobytes()
    with pytest.raises(DuplicatePoints, match="coincident"):
        profile_grid(window, 101, [0.1, 0.1])


# ---------------------------------------------------------------------------
# audits


def test_audit_a1_passes_for_exponential():
    gen = RandomPointSets(EXP_WINDOW)
    report = audit_a1(exponential(), gen, trials=50, master_seed=0)
    assert report.condition is Condition.A1
    assert report.verdict is Verdict.PASS
    assert report.stats.n_trials == 50
    assert report.stats.worst_value >= 1e-14


def test_audit_a1_passes_for_sinc_off_integers():
    # window spanning several periods: oversampling sinc on a short window
    # would drive the Gram toward numerical singularity
    gen = RandomPointSets(Interval(0.05, 9.95, lo_open=False, hi_open=False), n_range=(2, 12))
    report = audit_a1(sinc(), gen, trials=50, master_seed=3)
    assert report.verdict is Verdict.PASS


def test_audit_a1_inconclusive_on_degenerate_generator():
    def broken(rng):
        return PointSet([0.1, 0.1])

    report = audit_a1(exponential(), broken, trials=5)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert "trial 0" in report.message


def test_audit_a1_skips_singular_grams():
    # clustered Gaussian sets: some Grams are numerically singular at n 2-6,
    # all at n 20-25.  Round-off cannot refute the Gaussian's proven A1, so
    # the audit skips them as the Lebesgue audits do and never FAILs
    window = Interval(0.0, 0.05, lo_open=False, hi_open=False)
    some = audit_a1(gaussian(1.0), RandomPointSets(window, n_range=(2, 6)), trials=6, master_seed=1)
    assert some.verdict is Verdict.PASS and some.witness is None
    assert (some.stats.n_trials, some.stats.skipped) == (6, 3)
    assert some.message == "3 of 6 trials skipped (singular Gram)"
    assert 1e-14 <= some.stats.worst_value < 1e-12
    loc = some.stats.argmax_location
    assert loc["t"] is None and build_system(gaussian(1.0), loc["points"]).rcond_estimate == some.stats.worst_value
    every = audit_a1(gaussian(1.0), RandomPointSets(window, n_range=(20, 25)), trials=5, master_seed=1)
    assert every.verdict is Verdict.INCONCLUSIVE and every.witness is None
    assert every.stats.skipped == every.stats.n_trials == 5
    assert every.message == "every sampled Gram matrix was numerically singular"


BAD_SETTINGS = [
    dict(trials=0),
    dict(trials=3, master_seed=-1),
    dict(trials=3, grid_size=-3),
    dict(trials=3, grid_size=0),
    dict(trials=3, grid_size=1),
    dict(trials=2.5),
    dict(trials=3.0),
    dict(trials=True),
    dict(trials=3, master_seed=1.5),
    dict(trials=3, grid_size=2.5),
    dict(trials=3, grid_size=3.0),
]


@pytest.mark.parametrize(
    "audit, bad",
    [
        pytest.param(audit, bad, id=f"bad{i}-{audit.__name__}")
        for i, bad in enumerate(BAD_SETTINGS)
        for audit in (audit_a1, audit_a4, audit_relaxed_a4)
        if audit is not audit_a1 or "grid_size" not in bad  # A1 has no grid
    ],
)
def test_sampled_audits_reject_bad_settings_up_front(audit, bad):
    def never_called(rng):
        raise AssertionError("a point set was drawn before the settings were checked")

    with pytest.raises(ValueError):
        audit(exponential(), never_called, **bad)


def test_audit_a2_within_declared_bounds():
    mesh = np.linspace(-3, 3, 101)
    for kernel in (exponential(), gaussian(1.0)):
        report = audit_a2(kernel, pair_grid(mesh))
        assert report.verdict is Verdict.PASS
        assert report.stats.worst_value <= 1.0

    bb_mesh = np.linspace(0.01, 0.99, 99)  # includes s = t = 0.5
    report = audit_a2(brownian_bridge(), pair_grid(bb_mesh))
    assert report.verdict is Verdict.PASS
    assert report.stats.worst_value == pytest.approx(0.25)


def test_audit_a2_detects_bound_violation():
    shrunk = dataclasses.replace(exponential(), bound=0.5)
    report = audit_a2(shrunk, pair_grid(np.linspace(-1, 1, 21)))
    assert report.verdict is Verdict.FAIL
    assert report.witness.value == pytest.approx(1.0)


def test_audit_a2_is_inconclusive_on_a_value_that_is_not_finite(monkeypatch):
    # no zoo kernel evaluates to nan or inf on its domain; a kernel that did
    # is named at its first such pair, never passed
    def evaluate(spec, s, t, out):
        np.copyto(out, np.where(s > t, np.nan, 1.0))

    monkeypatch.setitem(kernels._EVALUATORS, Family.EXPONENTIAL, evaluate)
    report = audit_a2(exponential(), [[0.0, 0.0], [0.5, 0.25], [1.0, 0.0]])
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.message == "|K| is nan at (s, t) = (0.5, 0.25)"
    assert report.stats.n_trials == 3 and report.witness is None


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: audit_a2(exponential(), np.zeros((3, 3))), ValueError, r"nonempty \(m, 2\) array"),
        (lambda: section(exponential(), 0.0, Side.LEFT).grid_sup_norm([]), ValueError, "grid must be nonempty"),
        (lambda: closed_form_cardinal(exponential(), [], 0.0), ValueError, "needs at least one point"),
        # K[x] is singular on coincident points, as PointSet and build_system say
        (lambda: closed_form_cardinal(exponential(), [0.3, 0.3, 0.5], 0.4), DuplicatePoints, "coincident"),
        (lambda: closed_form_cardinal(exponential(), [0.0, 0.0], 0.5), DuplicatePoints, "coincident"),
        (lambda: closed_form_cardinal(exponential(), [-1e308, 1e308], 0.0), ValueError, "finite length"),
        # counts are checked by their owner, which names them, before any work
        (lambda: profile_grid(EXP_WINDOW, 0), ValueError, "grid_size must be >= 2, got 0"),
        (lambda: profile_grid(EXP_WINDOW, 1), ValueError, "grid_size must be >= 2, got 1"),
        (lambda: profile_grid(EXP_WINDOW, 2.5), ValueError, "grid_size must be an integer, got 2.5"),
        (lambda: l2_error(section(exponential(), 0.0, Side.LEFT), (-1.0, 1.0), 2.5), ValueError,
         "nodes must be an integer, got 2.5"),
    ],
    ids=[
        "audit_a2-grid-shape", "grid_sup_norm-empty", "closed_form_cardinal-no-points",
        "closed_form_cardinal-coincident-points", "closed_form_cardinal-coincident-pair",
        "closed_form_cardinal-infinite-span", "profile_grid-no-nodes", "profile_grid-one-node",
        "profile_grid-fractional-size", "l2_error-fractional-nodes",
    ],
)
def test_empty_or_misshapen_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_sampling_needs_a_window_of_finite_length():
    window = Interval(-1e308, 1e308, lo_open=False, hi_open=False)
    with pytest.raises(ValueError, match="bounded"):
        RandomPointSets(window)
    with pytest.raises(ValueError, match="bounded"):
        profile_grid(window)
    # a generator with no domain leaves the grid to the kernel's, here all of
    # R: the audit fails on the grid's rule before it draws a point set
    draws = []

    def generator(rng):
        draws.append(rng)
        return PointSet([0.0, 1.0])

    for audit in (audit_a4, audit_relaxed_a4):
        with pytest.raises(ValueError, match="bounded"):
            audit(exponential(), generator, grid_size=11, trials=1)
    assert draws == []


def test_audit_a4_passes_for_admissible_kernels():
    for kernel, window in [
        (exponential(), EXP_WINDOW),
        (brownian_bridge(), None),
    ]:
        gen = RandomPointSets(window or kernel.domain)
        report = audit_a4(kernel, gen, grid_size=501, trials=20, master_seed=0)
        assert report.verdict is Verdict.PASS, kernel.name
        assert report.stats.worst_value <= 1.0 + 1e-9


def test_audit_a4_brownian_roundoff_is_not_a_violation():
    # Two Brownian-bridge draws whose grid supremum exceeds 1 + A4_TOL by
    # solve round-off only (rcond 2.9e-9 and 1.7e-8); the closed-form
    # cardinal functions give L - 1 = 0 at both.
    bb = brownian_bridge()
    for seed, n_range, spacing in [(108000440, (31, 200), 1e-4), (309001025, (2, 30), 1e-3)]:
        gen = RandomPointSets(bb.domain, n_range, spacing)
        report = audit_a4(bb, gen, grid_size=2001, trials=3, master_seed=seed)
        assert report.verdict is Verdict.PASS, seed
        assert 1.0 + A4_TOL < report.stats.worst_value < 1.0 + 1e-8
        loc = report.stats.argmax_location
        closed = np.abs(closed_form_cardinal(bb, loc["points"], loc["t"])).sum()
        assert closed == pytest.approx(1.0, abs=1e-15)


def test_sampled_audits_inconclusive_on_out_of_domain_points():
    bb = brownian_bridge()
    gen = RandomPointSets(Interval(-1.0, 1.0, lo_open=False, hi_open=False), n_range=(2, 6))
    for report in (
        audit_a1(bb, gen, trials=5),
        audit_a4(bb, gen, grid_size=101, trials=5, domain=bb.domain),
        audit_relaxed_a4(bb, gen, grid_size=101, trials=5, domain=bb.domain),
    ):
        assert report.verdict is Verdict.INCONCLUSIVE, report.condition
        assert report.message.startswith("system construction failed on trial 0:")
        assert report.stats.n_trials == 0


def test_audit_a4_fails_for_gaussian():
    window = Interval(-1.0, 1.0, lo_open=False, hi_open=False)
    gen = RandomPointSets(window, n_range=(2, 8))
    report = audit_a4(gaussian(1.0), gen, grid_size=501, trials=50, master_seed=0)
    assert report.verdict is Verdict.FAIL
    assert report.witness is not None
    assert report.witness.value > 1.0 + 1e-3
    assert report.message


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kernel=st.sampled_from(["exponential", "bridge", "gaussian"]))
def test_permuting_a_generators_points_leaves_the_audits_unchanged(seed, kernel):
    # the audits sort nothing but the profile grid, so a permuted point set
    # changes only the order of the solves' sums; the Gaussian sets are spaced
    # 0.3 apart, where cond(K) keeps its witnesses equal to 1e-12 (at the
    # sampler's default spacing they differ by up to 2e-5 relative)
    kernel, window, spacing = {
        "exponential": (exponential(), EXP_WINDOW, 1e-3),
        "bridge": (brownian_bridge(), brownian_bridge().domain, 1e-3),
        "gaussian": (gaussian(1.0), Interval(-1.0, 1.0, lo_open=False, hi_open=False), 0.15),
    }[kernel]
    gen = RandomPointSets(window, n_range=(2, 5 if kernel.name == "gaussian" else 12), min_spacing_factor=spacing)
    shuffle = np.random.default_rng(seed)

    def permuted(rng):
        points = gen(rng).points
        return PointSet(points[shuffle.permutation(points.size)])

    for audit in (audit_a1, audit_a4, audit_relaxed_a4):
        options = {} if audit is audit_a1 else {"grid_size": 201, "domain": window}
        report, other = (audit(kernel, g, trials=4, master_seed=seed, **options) for g in (gen, permuted))
        assert other.verdict is report.verdict
        assert other.stats.n_trials == report.stats.n_trials
        if report.witness is not None:
            assert other.witness.value == pytest.approx(report.witness.value, rel=1e-12, abs=0)
        if audit is not audit_a1:
            assert other.stats.worst_value == pytest.approx(report.stats.worst_value, rel=1e-12, abs=0)


def test_audit_report_json_shape():
    gen = RandomPointSets(EXP_WINDOW, n_range=(2, 6))
    report = audit_a4(exponential(), gen, grid_size=101, trials=3)
    obj = report.to_json()
    assert set(obj) >= {"condition", "verdict", "witness", "stats"}
    assert obj["stats"].keys() == {"n_trials", "worst_value", "argmax_location", "skipped"}
    # one location shape for every audit; only A1's worst value has no t
    for audit in (
        audit_a1(exponential(), gen, trials=3),
        audit_a2(exponential(), pair_grid(np.linspace(-1.0, 1.0, 5))),
        report,
        audit_relaxed_a4(exponential(), gen, grid_size=101, trials=3),
    ):
        loc = audit.to_json()["stats"]["argmax_location"]
        assert loc.keys() == {"points", "t"}, audit.condition
        assert (loc["t"] is None) is (audit.condition is Condition.A1)


def test_sampled_audits_count_singular_gram_skips():
    # clustered Gaussian sets: some Grams are singular at n 2-6, all at n 20-25
    window = Interval(0.0, 0.05, lo_open=False, hi_open=False)
    some = RandomPointSets(window, n_range=(2, 6))
    report = audit_relaxed_a4(gaussian(1.0), some, grid_size=101, trials=6, master_seed=1)
    assert report.verdict is Verdict.PASS
    assert report.stats.skipped == 4
    assert report.message == "4 of 6 trials skipped (singular Gram)"
    failed = audit_a4(gaussian(1.0), some, grid_size=101, trials=6, master_seed=1)
    assert failed.verdict is Verdict.FAIL
    assert (failed.stats.n_trials, failed.stats.skipped) == (3, 2)
    every = RandomPointSets(window, n_range=(20, 25))
    for audit in (audit_a4, audit_relaxed_a4):
        report = audit(gaussian(1.0), every, grid_size=101, trials=6, master_seed=1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.stats.skipped == report.stats.n_trials == 6
    assert audit_a1(exponential(), RandomPointSets(EXP_WINDOW), trials=3).stats.skipped == 0


def test_audit_relaxed_a4_estimates_beta():
    window = Interval(-1.0, 1.0, lo_open=False, hi_open=False)
    gen = RandomPointSets(window, n_range=(2, 6))
    report = audit_relaxed_a4(gaussian(1.0), gen, grid_size=301, trials=20, master_seed=2)
    assert report.condition is Condition.RELAXED_A4
    assert report.verdict is Verdict.PASS  # an estimator never FAILs
    assert report.stats.worst_value > 1.0

    exp_report = audit_relaxed_a4(exponential(), RandomPointSets(EXP_WINDOW), grid_size=301, trials=10)
    assert exp_report.verdict is Verdict.PASS
    assert exp_report.stats.worst_value <= 1.0 + A4_TOL


# ---------------------------------------------------------------------------
# one-point extension norm


def test_extension_norm_q_zero_case():
    rng = np.random.default_rng(6)
    x = np.sort(rng.uniform(-1, 1, 5))
    system = build_system(exponential(), x)
    y = rng.standard_normal(5)
    t_new = 1.7
    # choose b so the extension coefficient vanishes
    b = float(system.kx_column(t_new) @ system.solve(y))
    base = float(np.abs(system.solve(y)).sum())
    assert extension_norm(system, y, t_new, b) == pytest.approx(base, rel=1e-12)


def test_extension_norm_unit_case():
    system = build_system(exponential(), [0.0, 0.5, 1.3])
    t_new = 0.8
    kx = system.kx_column(t_new)
    d = system.solve(kx)
    p = system.kernel.eval(t_new, t_new) - float(kx @ d)
    b = float(kx @ d) + p
    assert extension_norm(system, kx, t_new, b) == pytest.approx(1.0, rel=1e-12)


def test_extension_norm_matches_direct_solve():
    rng = np.random.default_rng(8)
    for kernel, lo, hi in [(exponential(), -2.0, 2.0), (brownian_bridge(), 0.05, 0.95)]:
        for _ in range(50):
            n = int(rng.integers(2, 12))
            x = np.sort(rng.uniform(lo, hi, n))
            if np.diff(x).min() < 1e-3:
                continue
            system = build_system(kernel, x)
            y = rng.uniform(-1, 1, n)
            t_new = rng.uniform(lo, hi)
            if np.abs(x - t_new).min() < 1e-4:
                continue
            b = rng.uniform(-1, 1)
            blocked = extension_norm(system, y, t_new, b)
            direct = np.abs(
                build_system(kernel, np.append(x, t_new)).solve(np.append(y, b))
            ).sum()
            assert blocked == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_extension_norm_representer_inequality():
    rng = np.random.default_rng(10)
    for kernel, lo, hi in [(exponential(), -2.0, 2.0), (brownian_bridge(), 0.05, 0.95)]:
        for _ in range(100):
            n = int(rng.integers(2, 10))
            x = np.sort(rng.uniform(lo, hi, n))
            if np.diff(x).min() < 5e-3:
                continue
            system = build_system(kernel, x)
            y = rng.uniform(-1, 1, n)
            t_new = rng.uniform(lo, hi)
            if np.abs(x - t_new).min() < 1e-4:
                continue
            b = rng.uniform(-1, 1)
            base = float(np.abs(system.solve(y)).sum())
            assert extension_norm(system, y, t_new, b) >= base - 1e-9


def test_extension_norm_errors():
    system = build_system(exponential(), [0.0, 1.0])
    with pytest.raises(DuplicatePoints):
        extension_norm(system, [1.0, 2.0], 1.0, 0.5)
    bb = build_system(brownian_bridge(), [0.3, 0.7])
    with pytest.raises(DomainError):
        extension_norm(bb, [1.0, 2.0], 1.5, 0.5)
    # an extension point this close to a node kills the Schur complement
    with pytest.raises(SingularGram, match=r"^Schur complement \S+ below 1e-14; ") as caught:
        extension_norm(system, [1.0, 2.0], 1e-16, 0.5)
    assert caught.value.rcond == 0.0  # no rcond is computed
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            extension_norm(system, [1.0, 2.0], 0.5, bad)


def test_random_point_sets_respect_spacing():
    gen = RandomPointSets(Interval(0.0, 1.0, lo_open=False, hi_open=False), n_range=(25, 30))
    rng = np.random.default_rng(0)
    for _ in range(10):
        ps = gen(rng)
        assert 25 <= ps.n <= 30
        assert ps.min_spacing >= 1e-3


def test_random_point_sets_take_only_integer_sizes():
    for n_range in [(2.5, 4), (2, 4.5), (2, 3.0), (True, 3), (2, np.float64(5.0))]:
        with pytest.raises(ValueError, match="must be an integer"):
            RandomPointSets(EXP_WINDOW, n_range=n_range)
    gen = RandomPointSets(EXP_WINDOW, n_range=(np.int64(3), np.int32(5)))
    assert 3 <= gen(np.random.default_rng(0)).n <= 5


@pytest.mark.parametrize("factor", [math.nan, -1e-3, math.inf])
def test_random_point_sets_reject_bad_spacing(factor):
    # nan would reject every draw, a negative factor would switch the rule off
    with pytest.raises(ValueError, match="min_spacing_factor"):
        RandomPointSets(EXP_WINDOW, min_spacing_factor=factor)
