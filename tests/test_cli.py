import contextlib
import inspect
import io
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1kernels import (
    ExperimentConfig,
    Family,
    Interval,
    NoiseModel,
    audit_a1,
    audit_a4,
    audit_relaxed_a4,
    profile_grid,
)
from l1kernels import cli, errors
from l1kernels.cli import main, _build_parser, _parse_mu_grid


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        return exc.code


# ---------------------------------------------------------------------------
# audit


def test_audit_exponential_all(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "audit", "--kernel", "exponential", "--trials", "5", "--grid", "201",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("a1: pass") for line in lines)
    assert any(line.startswith("a2: pass") for line in lines)
    assert any(line.startswith("a4: pass") for line in lines)
    assert any(line.startswith("a3: proven") for line in lines)
    payload = json.loads(out.read_text())
    assert payload["a3_metadata"] == "proven"
    assert len(payload["reports"]) == 3
    assert all(r["verdict"] == "pass" for r in payload["reports"])


def test_audit_gaussian_a4_fails(tmp_path):
    out = tmp_path / "gauss.json"
    code = run_cli(
        "audit", "--kernel", '{"family": "gaussian", "params": {"sigma": 1.0}}',
        "--condition", "a4", "--trials", "30", "--grid", "301",
        "--window=-1,1", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    (report,) = payload["reports"]
    assert report["verdict"] == "fail"
    assert report["witness"]["value"] > 1.001


def test_audit_line_of_a_report_with_no_worst_value(capsys):
    # on a window this narrow every sampled Gaussian Gram is singular, so the
    # A4 report has a message but no worst value
    code = run_cli("audit", "--kernel", "gaussian", "--window=-0.001,0.001", "--trials", "3", "--condition", "a4")
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "a4: inconclusive (3 trials; every sampled Gram matrix was numerically singular)"
    ]
    assert run_cli("audit", "--kernel", "exponential", "--trials", "3", "--condition", "a4") == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("a4: pass (3 trials, worst 1") and line.endswith(")")


def test_audit_a1_skips_the_singular_grams_it_cannot_refute(capsys):
    # the Gaussian's A1 is proven, so a numerically singular draw is skipped,
    # not read as a violation: a window where every draw is singular leaves
    # the audit inconclusive, and the default window passes with its skips
    code = run_cli("audit", "--kernel", "gaussian", "--window=-0.001,0.001", "--trials", "3", "--condition", "a1")
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "a1: inconclusive (3 trials; every sampled Gram matrix was numerically singular)"
    ]
    assert run_cli("audit", "--kernel", "gaussian", "--condition", "a1") == 0
    assert capsys.readouterr().out.splitlines() == [
        "a1: pass (100 trials, worst 2.52311e-14; 46 of 100 trials skipped (singular Gram))"
    ]


def test_audit_bad_kernel_is_usage_error(capsys):
    # bspline is a family the zoo no longer has
    for name in ("nonexistent", "bspline"):
        assert run_cli("audit", "--kernel", name) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert f"bad --kernel value: unknown kernel family '{name}'" in err
        assert all(family.value in err for family in Family)
    for argv in (
        ("--kernel", "exponential", "--trials", "0"),
        ("--kernel", "brownian_bridge", "--window=-1,1"),
        ("--kernel", '{"family": "exponential", "params": {"sigma": 2}}'),
        ("--kernel", '{"family": "gaussian", "params": {"sigma": 1, "width": 2}}'),
        ("--kernel", '{"family": "gaussian", "params": [1]}'),
        ("--kernel", '{"family": "exponential", "domain": 5}'),
    ):
        assert run_cli("audit", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_audit_brownian_uses_native_domain(tmp_path):
    out = tmp_path / "bb.json"
    code = run_cli(
        "audit", "--kernel", "brownian_bridge", "--condition", "a4",
        "--trials", "10", "--grid", "201", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["reports"][0]["verdict"] == "pass"
    # every condition, A2's pair mesh included, stays inside the open domain
    assert run_cli("audit", "--kernel", "brownian_bridge", "--trials", "3", "--grid", "201") == 0


# ---------------------------------------------------------------------------
# fit


def test_fit_rkbs(tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", "0,0.5,1",
        "--values", "1.0,2.0,0.5", "--mu", "0.01", "--method", "rkbs",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= {"objective", "kkt_residual", "sparsity", "coefficients", "converged"}
    assert payload["method"] == "rkbs"
    assert payload["function"]["side"] == "left"
    assert len(payload["coefficients"]) == 3
    assert payload["kkt_residual"] <= 1e-8


def test_fit_rkhs_stdout(capsys):
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", "0,1",
        "--values", "1,0", "--mu", "0.0", "--method", "rkhs",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    denom = 1.0 - np.exp(-2.0)
    assert payload["coefficients"] == pytest.approx([1 / denom, -np.exp(-1) / denom])


def test_fit_points_from_file(tmp_path):
    pts = tmp_path / "x.txt"
    pts.write_text("0.0\n0.5\n1.0\n")
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", str(pts),
        "--values", "1,2,3", "--mu", "0.1", "--method", "rkhs",
        "--out", str(tmp_path / "f.json"),
    )
    assert code == 0


def test_fit_gram_diagnostic_dump(tmp_path):
    dump = tmp_path / "gram.json"
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,0",
        "--mu", "0.1", "--method", "rkhs", "--out", str(tmp_path / "f.json"),
        "--dump-gram", str(dump),
    )
    assert code == 0
    gram = json.loads(dump.read_text())
    assert gram[0][0] == 1.0
    assert gram[0][1] == pytest.approx(np.exp(-1.0))


def test_fit_sinc_rejected_numerically(capsys):
    code = run_cli(
        "fit", "--kernel", "sinc", "--points", "0.2,1.7", "--values", "1,2",
        "--mu", "0.1", "--method", "rkbs",
    )
    assert code == 2
    assert "refused" in capsys.readouterr().err


def test_fit_length_mismatch_usage_error(capsys):
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,2,3",
        "--mu", "0.1", "--method", "rkbs",
    )
    assert code == 1
    assert "expected data of length 2, got 3" in capsys.readouterr().err
    for values, mu, method in (("1,nan,0.5", "0.1", "rkbs"), ("1,2,0.5", "nan", "rkhs")):
        code = run_cli(
            "fit", "--kernel", "exponential", "--points", "0,0.5,1", "--values", values,
            "--mu", mu, "--method", method,
        )
        assert code == 1
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_fit_duplicate_points_numerical_error(capsys):
    code = run_cli(
        "fit", "--kernel", "exponential", "--points", "0,0", "--values", "1,2",
        "--mu", "0.1", "--method", "rkbs",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# experiment


def test_experiment_small_run(tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    json_path = tmp_path / "results.json"
    code = run_cli(
        "experiment", "--noise", "gaussian", "--trials", "2", "--n", "40",
        "--seed", "7", "--mu-grid", "1e-3..1e0",
        "--out", str(csv_path), "--json", str(json_path),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "noise,method,mean_error,mean_sparsity,max_sparsity,trials,seed"
    text = csv_path.read_text()
    assert text.count("\n") == 3  # header + 2 rows
    assert "gaussian,rkhs," in text and "gaussian,rkbs," in text
    payload = json.loads(json_path.read_text())
    assert len(payload) == 1 and len(payload[0]["trials"]) == 2


def test_experiment_all_noises(tmp_path):
    csv_path = tmp_path / "all.csv"
    code = run_cli(
        "experiment", "--trials", "1", "--n", "30", "--mu-grid", "1e-2,1e-1",
        "--out", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 7  # header + 3 noises x 2 methods
    assert [l.split(",")[0] for l in lines[1:]] == [
        "gaussian", "gaussian", "uniform", "uniform", "pepper", "pepper",
    ]


def test_experiment_byte_identical_reruns(tmp_path):
    args = (
        "experiment", "--noise", "uniform", "--trials", "2", "--n", "35",
        "--seed", "11", "--mu-grid", "1e-3..1e-1",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mu_grid_parsing():
    assert _parse_mu_grid("1e-7..1e1") == tuple(10.0 ** j for j in range(-7, 2))
    assert _parse_mu_grid("1e-3..1e-3") == (1e-3,)
    assert _parse_mu_grid("0.5,1,2") == (0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="powers of ten"):
        _parse_mu_grid("3e-4..1e0")
    with pytest.raises(ValueError, match="empty --mu-grid"):
        _parse_mu_grid("")


def test_bad_mu_grid_is_usage_error(capsys):
    code = run_cli("experiment", "--noise", "gaussian", "--trials", "1", "--n", "30",
                   "--mu-grid", "junk")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "--trials", "0"),
        ("experiment", "--n", "1"),
        ("experiment", "--mu-grid", "nan"),
        ("experiment", "--mu-grid=-1"),
        ("experiment", "--mu-grid", "1e-2,1e-2"),
        ("experiment", "--pepper-fraction", "2"),
        ("experiment", "--seed", "-1"),
        ("audit", "--kernel", "exponential", "--grid", "-3"),
        ("audit", "--kernel", "exponential", "--seed", "-1"),
        ("fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,2", "--mu", "-1",
         "--method", "rkbs"),
        ("fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,2", "--mu", "-1",
         "--method", "rkhs"),
        ("experiment", "--trials", "1", "--n", "20", "--mu-grid", "1e400..1e401"),
        ("experiment", "--trials", "1", "--n", "20", "--mu-grid", "1..1e400"),
        # spans that overflow: s - t would be infinite
        ("fit", "--kernel", "wendland_d3_k1", "--points=-1e308,1e308", "--values", "1,1", "--mu", "1",
         "--method", "rkhs"),
        ("fit", "--kernel", "sinc", "--points=-1e308,1e308", "--values", "1,1", "--mu", "1", "--method", "rkhs"),
        ("audit", "--kernel", "exponential", "--window=-1e308,1e308", "--trials", "2"),
        # data whose sum of squares overflows, for both solvers
        ("fit", "--kernel", "exponential", "--points", "0.2,0.7", "--values=1e308,1e308", "--mu", "0.1",
         "--method", "rkbs"),
        ("fit", "--kernel", "exponential", "--points", "0.2,0.7", "--values=1e308,-1e308", "--mu", "0.1",
         "--method", "rkbs"),
        ("fit", "--kernel", "exponential", "--points", "0.2,0.7", "--values=1e308,-1e308", "--mu", "0.1",
         "--method", "rkhs"),
        # a point outside the kernel's domain
        ("fit", "--kernel", "brownian_bridge", "--points", "0.5,1.5", "--values", "1,2", "--mu", "0.1",
         "--method", "rkbs"),
        ("fit", "--kernel", "exponential", "--points", "0,x", "--values", "1,2", "--mu", "0.1", "--method", "rkbs"),
        ("fit", "--kernel", "exponential", "--points=,", "--values", "1,2", "--mu", "0.1", "--method", "rkbs"),
        ("experiment", "--mu-grid", "a..1e1"),
        # rejected by the library: data of the wrong length, a point that is not finite
        ("fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,2,3", "--mu", "0.1", "--method", "rkhs"),
        ("fit", "--kernel", "exponential", "--points=0,inf", "--values", "1,2", "--mu", "0.1", "--method", "rkbs"),
        # json reads 1e999 as inf, a sigma that would make K the constant 1
        ("audit", "--kernel", '{"family": "gaussian", "params": {"sigma": 1e999}}', "--trials", "1"),
    ],
)
def test_invalid_settings_are_usage_errors(argv, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # Lebesgue grid midpoints of points 1e307 apart, whose sum overflows
        ("audit", "--kernel", "exponential", "--window=0.5,1e308", "--trials", "1", "--grid", "20",
         "--condition", "a4"),
        # a Gaussian pair whose squared distance overflows: K is exactly 0 there
        ("fit", "--kernel", "gaussian", "--points=1e308,-0", "--values", "1,2", "--mu", "0.1", "--method", "rkbs"),
    ],
)
def test_numbers_near_the_double_range_run_without_a_warning(argv, capsys):
    assert run_cli(*argv) == 0
    assert capsys.readouterr().err == ""


def test_audit_a2_of_a_far_window_reads_no_nan(capsys):
    # pairs a finite 1.1e308 apart: Wendland's K is exactly 0 there, not 0 * inf
    argv = ("audit", "--kernel", "wendland_d3_k1", "--window=-1e308,1e307", "--trials", "2", "--condition", "a2")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["a2: pass (1936 trials, worst 1)"]
    assert captured.err == ""


def test_audit_a4_of_a_far_window_reads_the_lebesgue_function_at_the_points(capsys):
    # on points more than 1e306 apart every cardinal function underflows to 0
    # at each uniform node and midpoint, but L(x_j) = 1 at each sample point,
    # which the Lebesgue grid includes
    argv = ("audit", "--kernel", "exponential", "--window=0.5,1e308", "--trials", "1", "--grid", "20", "--condition", "a4")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["a4: pass (1 trials, worst 1)"]
    assert captured.err == ""


# extreme numeric strings: at the edge of the double range, past it, not a
# number, and a signed zero
EXTREMES = ("1e308", "-1e308", "1e400", "inf", "nan", "-0")


@settings(max_examples=60, deadline=None)
@given(
    option=st.sampled_from(["--mu", "--points", "--values", "--window", "--mu-grid", "--pepper-fraction"]),
    value=st.sampled_from(EXTREMES),
    other=st.sampled_from(EXTREMES + ("0.5", "1")),
    kernel=st.sampled_from([family.value for family in Family]),
    variant=st.integers(0, 2),
)
def test_extreme_numbers_end_in_a_documented_exit_code(option, value, other, kernel, variant):
    # every call is small (n <= 20, one trial), and whatever its outcome, the
    # CLI ends with 0, 1 or 2, prints no traceback and writes no NaN or
    # Infinity, which are not JSON
    fit = ["fit", "--kernel", kernel, "--method", ("rkbs", "rkhs")[variant % 2]]
    argv = {
        "--mu": fit + ["--points", "0.2,0.7", "--values", "1,2", f"--mu={value}"],
        "--points": fit + [f"--points={value},{other}", "--values", "1,2", "--mu", "0.1"],
        "--values": fit + ["--points", "0.2,0.7", f"--values={value},{other}", "--mu", "0.1"],
        "--window": ["audit", "--kernel", kernel, f"--window={value},{other}", "--trials", "1", "--grid", "20",
                     "--condition", ("a1", "a2", "a4")[variant]],
        "--mu-grid": ["experiment", "--noise", "gaussian", "--trials", "1", "--n", "20",
                      f"--mu-grid={value}{('..', ',', '..')[variant]}{other}"],
        "--pepper-fraction": ["experiment", "--noise", "pepper", "--trials", "1", "--n", "20", "--mu-grid", "1e-2",
                              f"--pepper-fraction={value}"],
    }[option]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(*argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), argv


def test_defaults_are_the_librarys_except_the_audit_trials():
    experiment = _build_parser().parse_args(["experiment"])
    config = ExperimentConfig()
    assert (experiment.trials, experiment.n, experiment.seed) == (config.trials, config.n_points, config.master_seed)
    assert experiment.pepper_fraction == NoiseModel.pepper_sauce().corrupt_fraction
    audit = _build_parser().parse_args(["audit", "--kernel", "exponential"])
    window = Interval(0.0, 1.0, lo_open=False, hi_open=False)
    assert audit.grid == profile_grid(window).size
    for audit_fn in (audit_a4, audit_relaxed_a4):
        assert audit.grid == inspect.signature(audit_fn).parameters["grid_size"].default
    for audit_fn in (audit_a1, audit_a4, audit_relaxed_a4):
        assert audit.seed == inspect.signature(audit_fn).parameters["master_seed"].default
    # the CLI's own choice, not the library's
    assert audit.trials == 100


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 1


# the exit code main() gives each library error class: 1 for the input
# errors, which are ValueErrors, and 2 for the rest; the CLI's own rejections
# are plain ValueErrors, and a file it cannot read or write an OSError, both 1
ERROR_EXITS = {
    "L1KernelsError": 2,
    "DomainError": 1,
    "UnsupportedKernel": 2,
    "DuplicatePoints": 2,
    "SingularGram": 2,
    "KernelMismatch": 2,
    "DimensionMismatch": 1,
    "NegativeMu": 1,
}


def test_every_library_error_has_its_exit_code(monkeypatch, capsys):
    classes = {name: cls for name, cls in vars(errors).items() if inspect.isclass(cls)}
    assert classes.keys() == ERROR_EXITS.keys()
    cases = [(classes[name], code) for name, code in ERROR_EXITS.items()] + [(ValueError, 1), (OSError, 1)]
    for cls, code in cases:
        def raising(args, cls=cls):
            raise cls("one line")

        monkeypatch.setattr(cli, "_cmd_experiment", raising)
        assert issubclass(cls, (ValueError, OSError)) is (code == 1), cls
        assert run_cli("experiment") == code, cls
        label = "error" if code == 1 else "numerical failure"
        assert capsys.readouterr() == ("", f"l1kernels experiment: {label}: one line\n")


def test_the_module_entry_point_exits_with_the_documented_codes(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fit = ["fit", "--kernel", "exponential", "--mu", "0.1", "--method", "rkbs"]
    out = ["--out", str(tmp_path / "f.json")]
    for code, argv in (
        (0, fit + out + ["--points", "0,1", "--values", "1,2"]),
        (1, fit + out + ["--points", "0,1", "--values", "1,2,3"]),
        # a file the CLI cannot write: an OSError, not a traceback
        (1, fit + ["--points", "0,1", "--values", "1,2", "--out", str(tmp_path / "missing" / "f.json")]),
        (2, fit + out + ["--points", "0,0", "--values", "1,2"]),
        # checked before the first trial: no CSV rows, and no time spent on them
        (1, ["experiment", "--trials", "50", "--n", "200", "--out", str(tmp_path / "missing" / "x.csv")]),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "l1kernels.cli", *argv], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == code, run.stderr
        assert run.stdout == ""
        assert "Traceback" not in run.stderr and len(run.stderr.splitlines()) == min(code, 1)


def test_files_the_cli_cannot_read_or_write_are_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "f.json")
    fit = ("fit", "--kernel", "exponential", "--mu", "0.1", "--method", "rkbs")
    experiment = ("experiment", "--noise", "gaussian", "--trials", "1", "--n", "20", "--mu-grid", "1e-1")
    for argv in (
        fit + ("--points", str(tmp_path), "--values", "1,2"),
        fit + ("--points", "0,1", "--values", str(tmp_path)),
        fit + ("--points", "0,1", "--values", "1,2", "--dump-gram", missing),
        experiment + ("--out", missing),
        experiment + ("--json", missing),
        ("audit", "--kernel", "exponential", "--trials", "1", "--condition", "a1", "--out", missing),
    ):
        assert run_cli(*argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # no verdict line, CSV row or fit before the error
        assert err.startswith(f"l1kernels {argv[0]}: error: [Errno ") and len(err.splitlines()) == 1, err


def test_every_named_output_is_opened_before_any_work(tmp_path, capsys, monkeypatch):
    # main opens (truncates) each output a subcommand names before its handler
    # runs, as shell redirection would: one it cannot open stops the command
    # before any work, and a command that fails leaves its outputs empty
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the outputs were opened")

    for owner, name in ((cli, "build_system"), (cli, "run_experiment"), (cli.adm, "audit_a1"),
                        (cli.adm, "audit_a2"), (cli.adm, "audit_a4")):
        monkeypatch.setattr(owner, name, no_work)
    missing = str(tmp_path / "missing" / "f.json")
    gram, csv = tmp_path / "g.json", tmp_path / "x.csv"
    fit = ("fit", "--kernel", "exponential", "--points", "0,1", "--values", "1,2", "--mu", "0.1", "--method", "rkbs")
    csv.write_text("stale\n")
    for argv in (
        fit + ("--dump-gram", str(gram), "--out", missing),
        ("experiment", "--out", str(csv), "--json", missing),
        ("audit", "--kernel", "exponential", "--out", missing),
    ):
        assert run_cli(*argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"l1kernels {argv[0]}: error: [Errno "), err
    assert not gram.exists() or gram.read_text() == ""
    assert csv.read_text() == ""  # opened, so truncated, before --json failed
    # two options naming one file would interleave their writes
    assert run_cli("experiment", "--out", str(csv), "--json", str(tmp_path / "." / "x.csv")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "two outputs name the same file" in err
    # a command that fails after opening its outputs leaves them empty
    monkeypatch.undo()
    gram.write_text("stale\n")
    assert run_cli(*fit[:4], "0,0", *fit[5:], "--dump-gram", str(gram)) == 2
    assert gram.read_text() == ""


# ---------------------------------------------------------------------------
# logging


def test_log_level_shows_the_library_records_on_stderr(capsys):
    args = ("experiment", "--noise", "gaussian", "--trials", "1", "--n", "20", "--mu-grid", "1e-2,1e-1")
    assert run_cli("-v", "debug", *args) == 0
    err = capsys.readouterr().err
    assert "DEBUG l1kernels.experiment: trial 0: lasso path steps (" in err
    assert "INFO l1kernels.experiment: gaussian noise: 1 trials, " in err
    # warnings only by default, and no handler outlives the run
    assert run_cli(*args) == 0
    assert capsys.readouterr().err == ""
    log = logging.getLogger("l1kernels")
    assert [type(h) for h in log.handlers] == [logging.NullHandler]
    assert log.level == logging.NOTSET


def test_invalid_log_level_is_usage_error(capsys):
    assert run_cli("--log-level", "loud", "experiment") == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'LOUD'" in err and "Traceback" not in err


def test_library_is_silent_by_default():
    # with no logging configured, Python prints warnings through its last
    # resort handler; the library's own null handler keeps it quiet
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("l1kernels").__file__)))
    code = "import logging, l1kernels; logging.getLogger('l1kernels.experiment').warning('heard')"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert out.stderr == ""
