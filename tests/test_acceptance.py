"""Shipping gate: one test per acceptance criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py -v` to see one PASS line per
criterion.  The benchmark criterion (7) runs the full three-noise suite at
default settings and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

import l1kernels as lk
from l1kernels.cli import main as cli_main
from _oracles import cd_lasso_batch, lasso_objective

EXP_WINDOW = lk.Interval(-3.0, 3.0, lo_open=False, hi_open=False)
UNIT_WINDOW = lk.Interval(-1.0, 1.0, lo_open=False, hi_open=False)

# Reference aggregates for the benchmark comparison (mean squared L2 error
# and sparsity of the oracle-selected fits, 50 trials, n = 200).
TABLE = {
    "gaussian": {"rkhs_error": 2.1e-3, "rkbs_error": 1.0e-3},
    "uniform": {"rkhs_error": 7.9e-4, "rkbs_error": 3.6e-4},
    "pepper": {"rkhs_error": 9.4e-4, "rkbs_error": 4.5e-4},
}


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}", flush=True)


def test_criterion_1_admissible_kernels_keep_unit_lebesgue_bound():
    start = time.perf_counter()
    worst = {}
    for name, kernel, window in [
        ("brownian_bridge", lk.brownian_bridge(), lk.brownian_bridge().domain),
        ("exponential", lk.exponential(), EXP_WINDOW),
    ]:
        generator = lk.RandomPointSets(window, n_range=(2, 30), min_spacing_factor=1e-3)
        audit = lk.audit_a4(
            kernel, generator, grid_size=2001, trials=50, master_seed=101, domain=window
        )
        assert audit.verdict is lk.Verdict.PASS, name
        assert audit.stats.n_trials == 50
        assert audit.stats.worst_value <= 1.0 + 1e-9, name
        worst[name] = audit.stats.worst_value
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"A4 holds over 50 sets/kernel (worst L = {max(worst.values()):.12f}, {elapsed:.1f}s)")


def test_criterion_2_closed_form_cardinal_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for kernel, lo, hi in [(lk.exponential(), -3.0, 3.0), (lk.brownian_bridge(), 0.001, 0.999)]:
        for _ in range(500):
            n = int(rng.integers(2, 31))
            x = np.sort(rng.uniform(lo, hi, n))
            while np.diff(x).min() < 1e-3 * (hi - lo):
                x = np.sort(rng.uniform(lo, hi, n))
            t = rng.uniform(lo, hi)
            system = lk.build_system(kernel, x)
            gap = np.abs(
                lk.closed_form_cardinal(kernel, x, t) - system.cardinal_coefficients(t)
            ).max()
            worst = max(worst, gap)
            assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"closed-form vs numeric cardinals agree (worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_gaussian_unit_bound_failure_witness():
    # frozen regression fixture from the original grid search
    system = lk.build_system(lk.gaussian(1.0), [-0.5, 0.0, 0.5])
    prof = lk.lebesgue_constant(system, np.linspace(-1.0, 1.0, 2001))
    assert prof.max_value > 1.0 + 1e-3
    assert prof.max_value == pytest.approx(3.2076, rel=1e-3)

    generator = lk.RandomPointSets(UNIT_WINDOW, n_range=(2, 30))
    audit = lk.audit_a4(
        lk.gaussian(1.0), generator, grid_size=2001, trials=200, master_seed=303,
        domain=UNIT_WINDOW,
    )
    assert audit.verdict is lk.Verdict.FAIL
    assert audit.stats.n_trials <= 200
    assert audit.witness is not None and audit.witness.value > 1.0 + 1e-3
    report(
        3,
        f"Gaussian violation found in {audit.stats.n_trials} trial(s) "
        f"(L = {audit.witness.value:.4f} at t = {audit.witness.t:.4f}); "
        f"frozen witness L = {prof.max_value:.4f}",
    )


def test_criterion_4_representer_inequality_exact_and_relaxed():
    rng = np.random.default_rng(404)

    for kernel, window in [(lk.exponential(), EXP_WINDOW), (lk.brownian_bridge(), lk.brownian_bridge().domain)]:
        generator = lk.RandomPointSets(window, n_range=(2, 20))
        count = 0
        while count < 1000:
            ps = generator(rng)
            system = lk.build_system(kernel, ps)
            y = rng.uniform(-1, 1, ps.n)
            t_new = rng.uniform(window.lo + 1e-6, window.hi - 1e-6)
            if np.abs(ps.points - t_new).min() < 1e-9:
                continue
            b = rng.uniform(-1, 1)
            base = float(np.abs(system.solve(y)).sum())
            assert lk.extension_norm(system, y, t_new, b) >= base - 1e-9
            count += 1

    # relaxed bound for the Gaussian, with the grid constant measured per system
    generator = lk.RandomPointSets(UNIT_WINDOW, n_range=(2, 6), min_spacing_factor=5e-2)
    count = 0
    worst_margin = np.inf
    while count < 1000:
        ps = generator(rng)
        try:
            system = lk.build_system(lk.gaussian(1.0), ps)
        except lk.SingularGram:
            continue
        y = rng.uniform(-1, 1, ps.n)
        t_new = rng.uniform(-1.0, 1.0)
        if np.abs(ps.points - t_new).min() < 1e-9:
            continue
        b = rng.uniform(-1, 1)
        grid = np.unique(np.append(lk.profile_grid(UNIT_WINDOW, 501, ps), t_new))
        beta = max(lk.lebesgue_constant(system, grid).max_value, 1.0)
        base = float(np.abs(system.solve(y)).sum())
        ext = lk.extension_norm(system, y, t_new, b)
        worst_margin = min(worst_margin, ext - base / beta)
        assert ext >= base / beta - 1e-9
        count += 1
    report(4, f"representer inequality on 3x1000 tuples (relaxed margin >= {worst_margin:.2e})")


def test_criterion_5_lasso_certified_against_coordinate_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    kernel = lk.exponential()
    worst_gap = 0.0
    problems, fits = [], []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(-2, 2, n))
        while n > 1 and np.diff(x).min() < 0.05:
            x = np.sort(rng.uniform(-2, 2, n))
        system = lk.build_system(kernel, x)
        y = rng.uniform(-2, 2, n)
        mu = 10.0 ** rng.uniform(-3, 0.3)
        fit = lk.lasso_gram(system, y, lk.LassoConfig(mu=mu))
        assert fit.converged
        assert fit.kkt_residual <= 1e-8
        problems.append((system.gram, y, mu))
        fits.append(fit)
    # the oracle draws nothing, so solving all 200 problems at once keeps the draws
    for (gram, y, mu), fit, oracle in zip(problems, fits, cd_lasso_batch(problems, tol=1e-10)):
        gap = abs(fit.objective - lasso_objective(gram, y, mu, oracle))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6

    # zero-solution threshold is exact
    x = np.sort(rng.uniform(-2, 2, 8))
    system = lk.build_system(kernel, x)
    y = rng.uniform(-2, 2, 8)
    mu0 = lk.zero_mu_threshold(system, y)
    fit = lk.lasso_gram(system, y, lk.LassoConfig(mu=mu0 * (1 + 1e-12)))
    assert np.all(fit.coefficients.values == 0.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"200 KKT-certified solves match the CD oracle (worst gap {worst_gap:.2e}, {elapsed:.1f}s)")


def test_criterion_6_sup_norm_formula_matches_grid():
    rng = np.random.default_rng(606)
    kernel = lk.exponential()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = np.sort(rng.uniform(-2, 2, n))
        while np.diff(x).min() < 1e-3:
            x = np.sort(rng.uniform(-2, 2, n))
        c = rng.standard_normal(n)
        f = lk.expansion(kernel, x, c, lk.Side.RIGHT)
        grid = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 10001 - n), x]))
        sup = f.grid_sup_norm(grid)
        formula = f.bsharp_norm()
        assert sup <= formula + 1e-9
        assert abs(sup - formula) <= 1e-3
        worst = max(worst, abs(sup - formula))
    report(6, f"sup-norm formula equals 10001-node grid sup (worst gap {worst:.2e})")


@pytest.mark.slow
def test_criterion_7_benchmark_brackets_reference_table():
    start = time.perf_counter()
    noises = {
        "gaussian": lk.NoiseModel.gaussian(),
        "uniform": lk.NoiseModel.uniform(),
        "pepper": lk.NoiseModel.pepper_sauce(),
    }
    lines = []
    for label, noise in noises.items():
        summary = lk.run_experiment(lk.ExperimentConfig(noise=noise))
        ref = TABLE[label]
        # (a) dense baseline stays dense
        assert summary.rkhs.mean_sparsity == 200.0
        assert summary.rkhs.max_sparsity == 200
        # (b) sparse model is sparse
        assert summary.rkbs.mean_sparsity <= 40.0
        assert summary.rkbs.max_sparsity <= 60
        # (c) sparse model at least as accurate on average
        assert summary.rkbs.mean_error <= summary.rkhs.mean_error
        # (d) both errors within [0.1x, 10x] of the reference values
        assert 0.1 * ref["rkhs_error"] <= summary.rkhs.mean_error <= 10.0 * ref["rkhs_error"]
        assert 0.1 * ref["rkbs_error"] <= summary.rkbs.mean_error <= 10.0 * ref["rkbs_error"]
        lines.append(
            f"{label}: rkhs {summary.rkhs.mean_error:.2e}/200, "
            f"rkbs {summary.rkbs.mean_error:.2e}/{summary.rkbs.mean_sparsity:.1f}"
            f"({summary.rkbs.max_sparsity})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(7, f"benchmark inside reference brackets [{'; '.join(lines)}] ({elapsed:.0f}s)")


def test_criterion_8_reproducing_identities_and_hoelder():
    rng = np.random.default_rng(808)
    kernel = lk.exponential()
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        f = lk.expansion(kernel, np.sort(rng.uniform(-2, 2, n)), rng.standard_normal(n), lk.Side.LEFT)
        g = lk.expansion(kernel, np.sort(rng.uniform(-2, 2, m)), rng.standard_normal(m), lk.Side.RIGHT)
        t = rng.uniform(-2.5, 2.5)

        left = lk.bilinear_form(f, lk.section(kernel, t, lk.Side.RIGHT))
        assert abs(left - f.evaluate(t)) <= 1e-10 * max(1.0, abs(f.evaluate(t)))

        right = lk.bilinear_form(lk.section(kernel, t, lk.Side.LEFT), g)
        assert abs(right - g.evaluate(t)) <= 1e-10 * max(1.0, abs(g.evaluate(t)))

        bound = f.bnorm() * g.bsharp_norm()
        assert abs(lk.bilinear_form(f, g)) <= bound * (1.0 + 1e-10) + 1e-12
    report(8, "1000 expansions satisfy both reproducing identities and the pairing bound")


def test_criterion_9_experiment_csv_byte_identical(tmp_path):
    args = [
        "experiment", "--noise", "pepper", "--trials", "3", "--n", "50",
        "--seed", "2024", "--mu-grid", "1e-4..1e0",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(9, "two identical experiment invocations emit byte-identical CSV")
