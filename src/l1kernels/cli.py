"""Command-line front end: `l1kernels audit|fit|experiment`.

Exit codes: 0 on success (a FAIL audit verdict is still a successful
audit), 1 on usage errors, 2 on numerical failure (diagnostic on stderr).
Log records of the library go to stderr at the level of -v/--log-level
(warnings by default).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import admissibility as adm
from .errors import DomainError, L1KernelsError
from .gram import build_system
from .interpolation import ExpansionFunction
from .kernels import Interval, KernelSpec, Status, kernel_from_json, kernel_to_json
from .solvers import LassoConfig, lasso_gram, ridge_gram
from .experiment import (
    PEPPER_FRACTION,
    ExperimentConfig,
    NoiseModel,
    csv_rows,
    run_experiment,
    summary_to_json,
    write_csv,
)

_USAGE_EXIT = 1
_NUMERICAL_EXIT = 2

# Fallback audit window for kernels living on the whole real line.
_DEFAULT_WINDOW = (-3.0, 3.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(_USAGE_EXIT)


class _UsageError(Exception):
    pass


def _parse_kernel(text: str) -> KernelSpec:
    text = text.strip()
    try:
        if text.startswith("{"):
            return kernel_from_json(json.loads(text))
        return kernel_from_json({"family": text, "params": {}})
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise _UsageError(f"bad --kernel value: {exc}")


def _parse_floats(text: str) -> np.ndarray:
    """Comma-separated floats, or a path to a file of floats."""
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read().replace("\n", ",")
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list: {exc}")
    if not values:
        raise _UsageError("empty numeric list")
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"non-finite value in numeric list: {text.strip()}")
    return np.asarray(values)


def _parse_mu_grid(text: str) -> tuple[float, ...]:
    """Either 'A..B' (decades of 10 from A to B) or a comma-separated list."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise _UsageError(f"bad --mu-grid range: {exc}")
        if not 0 < lo <= hi < math.inf:
            raise _UsageError("--mu-grid range needs 0 < A <= B < inf")
        e_lo, e_hi = math.log10(lo), math.log10(hi)
        if abs(e_lo - round(e_lo)) > 1e-9 or abs(e_hi - round(e_hi)) > 1e-9:
            raise _UsageError("--mu-grid range endpoints must be powers of ten, e.g. 1e-7..1e1")
        return tuple(10.0 ** j for j in range(round(e_lo), round(e_hi) + 1))
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _UsageError(f"bad --mu-grid list: {exc}")
    if not grid:
        raise _UsageError("empty --mu-grid")
    return grid


def _audit_window(kernel: KernelSpec, window: str | None) -> Interval:
    if window is not None:
        try:
            lo_s, hi_s = window.split(",")
            interval = Interval(float(lo_s), float(hi_s), lo_open=False, hi_open=False)
        except ValueError as exc:
            raise _UsageError(f"bad --window, expected 'A,B': {exc}")
        if not (interval.bounded and kernel.domain.contains([interval.lo, interval.hi])):
            raise _UsageError(
                f"--window {interval} must have a finite length and lie inside the "
                f"{kernel.name} kernel domain {kernel.domain}"
            )
        return interval
    if kernel.domain.bounded:
        return kernel.domain
    return Interval(*_DEFAULT_WINDOW, lo_open=False, hi_open=False)


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_audit(args) -> int:
    kernel = _parse_kernel(args.kernel)
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.grid < 2:
        raise _UsageError(f"--grid must be >= 2, got {args.grid}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    window = _audit_window(kernel, args.window)
    generator = adm.RandomPointSets(domain=window)
    wanted = ["a1", "a2", "a4"] if args.condition == "all" else [args.condition]
    reports = []

    for cond in wanted:
        if cond == "a1":
            rep = adm.audit_a1(kernel, generator, trials=args.trials, master_seed=args.seed)
        elif cond == "a2":
            side = max(2, int(math.isqrt(max(args.grid, 4))))
            mesh = adm.profile_grid(window, side)  # open endpoints trimmed
            rep = adm.audit_a2(kernel, adm.pair_grid(mesh))
        else:
            rep = adm.audit_a4(
                kernel, generator, grid_size=args.grid, trials=args.trials,
                master_seed=args.seed, domain=window,
            )
        reports.append(rep)
        worst = f", worst {rep.stats.worst_value:.6g}" if rep.stats.worst_value is not None else ""
        extra = f"; {rep.message}" if rep.message else ""
        print(f"{cond}: {rep.verdict.value} ({rep.stats.n_trials} trials{worst}{extra})")

    if args.condition == "all":
        a3 = kernel.flags.a3
        note = {
            Status.PROVEN: "holds analytically",
            Status.DISPROVEN: "fails analytically",
            Status.UNKNOWN: "status unknown",
        }[a3]
        print(f"a3: {a3.value} ({note}; quantifies over infinite sequences, not numerically testable)")

    payload = {
        "kernel": kernel_to_json(kernel),
        "window": [window.lo, window.hi],
        "seed": args.seed,
        "a3_metadata": kernel.flags.a3.value,
        "reports": [r.to_json() for r in reports],
    }
    if args.out:
        _write_json(payload, args.out)
    return 0


def _cmd_fit(args) -> int:
    kernel = _parse_kernel(args.kernel)
    points = _parse_floats(args.points)
    values = _parse_floats(args.values)
    if points.size != values.size:
        raise _UsageError(f"{points.size} points but {values.size} values")
    if not (0 <= args.mu < math.inf):
        raise _UsageError(f"--mu must be finite and >= 0, got {args.mu}")
    try:
        system = build_system(kernel, points)
    except (ValueError, DomainError) as exc:  # a span that overflows, a point off the domain
        raise _UsageError(f"bad --points: {exc}")
    try:
        if args.method == "rkbs":
            result = lasso_gram(system, values, LassoConfig(mu=args.mu))
        else:
            result = ridge_gram(system, values, args.mu)
    except ValueError as exc:  # data whose sum of squares overflows
        raise _UsageError(f"bad --values: {exc}")
    payload = result.to_json()
    payload["method"] = args.method
    payload["mu"] = args.mu
    payload["function"] = ExpansionFunction(kernel, system.points, result.coefficients).to_json()
    if args.dump_gram:
        _write_json(system.gram.tolist(), args.dump_gram)
    _write_json(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    mu_grid = _parse_mu_grid(args.mu_grid) if args.mu_grid else ExperimentConfig.mu_grid
    try:
        kinds = {
            "gaussian": NoiseModel.gaussian(),
            "uniform": NoiseModel.uniform(),
            "pepper": NoiseModel.pepper_sauce(corrupt_fraction=args.pepper_fraction),
        }
        settings = dict(n_points=args.n, trials=args.trials, mu_grid=mu_grid, master_seed=args.seed)
        noises = kinds.values() if args.noise == "all" else [kinds[args.noise]]
        configs = [ExperimentConfig(noise=noise, **settings) for noise in noises]
    except ValueError as exc:
        raise _UsageError(str(exc))

    summaries = [run_experiment(config) for config in configs]

    for line in csv_rows(summaries):
        print(line)
    if args.out:
        write_csv(summaries, args.out)
    if args.json:
        _write_json([summary_to_json(s) for s in summaries], args.json)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="l1kernels",
        description="Kernel admissibility audits, interpolation, and the sparse regression benchmark.",
    )
    parser.add_argument(
        "-v", "--log-level", type=str.upper, choices=("DEBUG", "INFO", "WARNING", "ERROR"), default="WARNING",
        help="show the library's log records from this level up on stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="numerically audit admissibility conditions")
    p_audit.add_argument("--kernel", required=True, help="family name or JSON spec")
    p_audit.add_argument("--condition", choices=["a1", "a2", "a4", "all"], default="all")
    p_audit.add_argument("--trials", type=int, default=100)
    p_audit.add_argument("--grid", type=int, default=adm.GRID_SIZE, help="Lebesgue grid size")
    p_audit.add_argument("--seed", type=int, default=adm.MASTER_SEED)
    p_audit.add_argument(
        "--window", default=None,
        help="audit window for unbounded domains; write --window=-3,3 (the '=' form "
        "keeps a leading minus out of option parsing)",
    )
    p_audit.add_argument("--out", default=None, help="write JSON report here")

    p_fit = sub.add_parser("fit", help="fit scattered data with the l1 or ridge model")
    p_fit.add_argument("--kernel", required=True)
    p_fit.add_argument("--points", required=True, help="comma-separated values or a file")
    p_fit.add_argument("--values", required=True, help="comma-separated values or a file")
    p_fit.add_argument("--mu", type=float, required=True)
    p_fit.add_argument("--method", choices=["rkbs", "rkhs"], required=True)
    p_fit.add_argument("--out", default=None, help="write JSON result here")
    p_fit.add_argument(
        "--dump-gram", default=None,
        help="diagnostic: write the Gram matrix as a JSON array of arrays",
    )

    p_exp = sub.add_parser("experiment", help="run the sparse regression benchmark")
    p_exp.add_argument("--noise", choices=["gaussian", "uniform", "pepper", "all"], default="all")
    p_exp.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p_exp.add_argument("--n", type=int, default=ExperimentConfig.n_points)
    p_exp.add_argument("--seed", type=int, default=ExperimentConfig.master_seed)
    p_exp.add_argument("--mu-grid", default=None, help="'1e-7..1e1' (decades) or comma list")
    p_exp.add_argument("--pepper-fraction", type=float, default=PEPPER_FRACTION)
    p_exp.add_argument("--out", default=None, help="write CSV summary here")
    p_exp.add_argument("--json", default=None, help="write full JSON results here")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"audit": _cmd_audit, "fit": _cmd_fit, "experiment": _cmd_experiment}
    log, stream = logging.getLogger("l1kernels"), logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(stream)
    log.setLevel(args.log_level)
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"l1kernels {args.command}: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except L1KernelsError as exc:
        print(f"l1kernels {args.command}: numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    finally:
        log.removeHandler(stream)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
