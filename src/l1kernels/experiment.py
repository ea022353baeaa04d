"""Sparse-vs-dense regression benchmark on noisy samples of a spiky target.

The benchmark samples the five-bump target

    f(x) = e^{-|x+1|} + e^{-|x+0.8|} + e^{-|x|} + e^{-|x-0.8|} + e^{-|x-1|}

on equally spaced points, perturbs it with one of three noise models, and
fits both regression models of :mod:`l1kernels.solvers` over a grid of
regularization weights.  The weight is chosen per method by an oracle: the
one minimizing the L2([a,b]) distance to the *true* target (no
cross-validation).  Reported per noise model and method: mean L2 error,
mean sparsity, and max sparsity over the trials.  The JSON summary also
carries the certificates of each trial's lasso path (path steps, largest
KKT residual, unconverged fits) and their totals; the CSV does not.

Everything is a pure function of the configuration, including the master
seed: per-trial noise comes from counter-based streams keyed by
(master_seed, trial_index, "noise"), so trials are order-independent and
the CSV output is byte-identical across runs.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .gram import build_system
from .interpolation import ExpansionFunction
from .kernels import KernelSpec, exponential, kernel_to_json
from .solvers import FitResult, LassoConfig, LassoSolver, RidgeSolver
from .streams import stream

__all__ = [
    "NoiseKind",
    "NoiseModel",
    "ExperimentConfig",
    "MethodOutcome",
    "LassoPathStats",
    "TrialRecord",
    "MethodAggregate",
    "TrialSummary",
    "target_function",
    "generate_noise",
    "l2_error",
    "run_trial",
    "run_experiment",
    "summary_to_json",
    "write_csv",
]

logger = logging.getLogger(__name__)

TARGET_CENTERS = (-1.0, -0.8, 0.0, 0.8, 1.0)

# Column order of the CSV emitted by write_csv.
CSV_HEADER = "noise,method,mean_error,mean_sparsity,max_sparsity,trials,seed"


def target_function(t):
    """Five-bump test target; symmetric about 0 and exactly representable
    as an exponential-kernel expansion with unit coefficients."""
    t = np.asarray(t, dtype=float)
    out = sum(np.exp(-np.abs(t - c)) for c in TARGET_CENTERS)
    return float(out) if out.ndim == 0 else out


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    PEPPER_SAUCE = "pepper"


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise: centered normal, centered uniform, or two-point.

    Pepper-sauce noise flips every sample by +/- magnitude; corrupt_fraction
    below 1 switches to the sparse-corruption reading where each sample is
    hit independently with that probability and left clean otherwise.
    """

    kind: NoiseKind
    variance: float = 0.01
    halfwidth: float = 0.1
    magnitude: float = 0.1
    corrupt_fraction: float = 1.0

    def __post_init__(self):
        for name in ("variance", "halfwidth", "magnitude"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in (0, 1]")

    @classmethod
    def gaussian(cls, variance: float = 0.01) -> "NoiseModel":
        return cls(NoiseKind.GAUSSIAN, variance=variance)

    @classmethod
    def uniform(cls, halfwidth: float = 0.1) -> "NoiseModel":
        return cls(NoiseKind.UNIFORM, halfwidth=halfwidth)

    @classmethod
    def pepper_sauce(cls, magnitude: float = 0.1, corrupt_fraction: float = 1.0) -> "NoiseModel":
        return cls(NoiseKind.PEPPER_SAUCE, magnitude=magnitude, corrupt_fraction=corrupt_fraction)

    @property
    def label(self) -> str:
        return self.kind.value

    def params(self) -> dict:
        if self.kind is NoiseKind.GAUSSIAN:
            return {"variance": self.variance}
        if self.kind is NoiseKind.UNIFORM:
            return {"halfwidth": self.halfwidth}
        return {"magnitude": self.magnitude, "corrupt_fraction": self.corrupt_fraction}


def generate_noise(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n-vector of i.i.d. noise from the model's distribution."""
    if model.kind is NoiseKind.GAUSSIAN:
        return rng.normal(0.0, np.sqrt(model.variance), size=n)
    if model.kind is NoiseKind.UNIFORM:
        return rng.uniform(-model.halfwidth, model.halfwidth, size=n)
    signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
    hits = signs * model.magnitude
    if model.corrupt_fraction < 1.0:
        hits = np.where(rng.random(n) < model.corrupt_fraction, hits, 0.0)
    return hits


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run (one noise model)."""

    n_points: int = 200
    interval: tuple[float, float] = (-1.0, 1.0)
    kernel: KernelSpec = field(default_factory=exponential)
    noise: NoiseModel = field(default_factory=NoiseModel.gaussian)
    trials: int = 50
    mu_grid: tuple[float, ...] = tuple(10.0 ** j for j in range(-7, 2))
    master_seed: int = 12345
    quadrature_nodes: int = 2001

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.mu_grid) == 0 or not all(0 <= m < math.inf for m in self.mu_grid):
            raise ValueError("mu_grid must be nonempty with finite nonnegative entries")
        if self.quadrature_nodes < 2:
            raise ValueError("quadrature_nodes must be >= 2")
        a, b = self.interval
        if not a < b:
            raise ValueError(f"empty interval {self.interval}")


@dataclass(frozen=True)
class MethodOutcome:
    """Oracle-selected result of one method in one trial.

    l2_error is the *squared* L2([a,b]) distance to the target — the scale
    used by the benchmark's reference table.  Selection by squared or plain
    distance is equivalent (monotone), and :func:`l2_error` returns the
    plain distance when that is wanted.
    """

    l2_error: float
    sparsity: int
    chosen_mu: float

    def as_dict(self) -> dict:
        return {"l2_error": self.l2_error, "sparsity": self.sparsity, "chosen_mu": self.chosen_mu}


@dataclass(frozen=True)
class LassoPathStats:
    """Certificates of a set of lasso fits: one trial's path over the mu
    grid, or every trial of a run.

    steps sums the path steps, max_kkt_residual is the largest KKT residual
    and unconverged counts the fits that fail their certificate.
    """

    steps: int
    max_kkt_residual: float
    unconverged: int

    @classmethod
    def total(cls, stats) -> "LassoPathStats":
        stats = list(stats)
        return cls(
            steps=sum(s.steps for s in stats),
            max_kkt_residual=max(s.max_kkt_residual for s in stats),
            unconverged=sum(s.unconverged for s in stats),
        )

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "max_kkt_residual": self.max_kkt_residual,
            "unconverged": self.unconverged,
        }


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    rkbs: MethodOutcome
    rkhs: MethodOutcome
    lasso_path: LassoPathStats

    def as_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "rkbs": self.rkbs.as_dict(),
            "rkhs": self.rkhs.as_dict(),
            "lasso_path": self.lasso_path.as_dict(),
        }


@dataclass(frozen=True)
class MethodAggregate:
    mean_error: float
    mean_sparsity: float
    max_sparsity: int

    def as_dict(self) -> dict:
        return {
            "mean_error": self.mean_error,
            "mean_sparsity": self.mean_sparsity,
            "max_sparsity": self.max_sparsity,
        }


@dataclass(frozen=True)
class TrialSummary:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    rkbs: MethodAggregate
    rkhs: MethodAggregate


# ---------------------------------------------------------------------------
# L2 error


def _trapezoid_rms(values: np.ndarray, reference: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.trapezoid((values - reference) ** 2, dx=dx)))


def l2_error(f: ExpansionFunction, interval: tuple[float, float], nodes: int, reference=target_function) -> float:
    """L2([a,b]) distance between an expansion and the target, by the
    composite trapezoid rule on `nodes` uniform quadrature nodes."""
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    a, b = interval
    ts = np.linspace(a, b, nodes)
    return _trapezoid_rms(np.asarray(f.evaluate(ts)), reference(ts), dx=(b - a) / (nodes - 1))


# ---------------------------------------------------------------------------
# the benchmark itself


class _Workbench:
    """Shared per-experiment state: Gram system, quadrature, factorizations."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        a, b = config.interval
        self.x = np.linspace(a, b, config.n_points)
        self.system = build_system(config.kernel, self.x)
        self.quad = np.linspace(a, b, config.quadrature_nodes)
        self.dx = (b - a) / (config.quadrature_nodes - 1)
        self.target_x = target_function(self.x)
        self.target_quad = target_function(self.quad)
        # rows j: K(x_j, t_i) — the LEFT-expansion evaluation matrix
        self.eval_matrix = config.kernel.eval(self.x[:, None], self.quad[None, :])
        self.lasso = LassoSolver(self.system)
        self.ridge = RidgeSolver(self.system)
        self.mus = tuple(float(m) for m in config.mu_grid)

    def error_of(self, coefficients: np.ndarray) -> float:
        """Squared L2 distance to the target for a LEFT coefficient vector."""
        values = coefficients @ self.eval_matrix
        return _trapezoid_rms(values, self.target_quad, self.dx) ** 2

    def run_trial(self, trial_index: int) -> TrialRecord:
        cfg = self.config
        rng = stream(cfg.master_seed, trial_index, "noise")
        y = self.target_x + generate_noise(cfg.noise, cfg.n_points, rng)

        # l1 path, largest mu first: each solve on y resumes where the last stopped
        lasso_fits = {mu: self.lasso.solve(y, LassoConfig(mu=mu)) for mu in sorted(self.mus, reverse=True)}
        rkbs = self._select(lasso_fits)
        selected = lasso_fits[rkbs.chosen_mu]
        if not selected.converged:
            logger.warning(
                "selected lasso fit is not certified: kkt residual %.3e (trial %d, mu=%g)",
                selected.kkt_residual, trial_index, rkbs.chosen_mu,
                extra={"trial": trial_index, "mu": rkbs.chosen_mu, "kkt_residual": selected.kkt_residual},
            )

        ridge_fits = {mu: self.ridge.solve(y, mu) for mu in self.mus}
        rkhs = self._select(ridge_fits)
        if rkhs.sparsity != cfg.n_points:
            logger.warning(
                "ridge solution unexpectedly sparse: %d of %d coefficients above "
                "threshold (trial %d, mu=%g)",
                rkhs.sparsity, cfg.n_points, trial_index, rkhs.chosen_mu,
                extra={"trial": trial_index, "mu": rkhs.chosen_mu, "sparsity": rkhs.sparsity},
            )
        return TrialRecord(
            trial_index=trial_index,
            rkbs=rkbs,
            rkhs=rkhs,
            lasso_path=LassoPathStats.total(
                LassoPathStats(fit.iterations, fit.kkt_residual, int(not fit.converged))
                for fit in lasso_fits.values()
            ),
        )

    def _select(self, fits: dict[float, FitResult]) -> MethodOutcome:
        errors = [self.error_of(fits[mu].coefficients.values) for mu in self.mus]
        best = int(np.argmin(errors))
        mu = self.mus[best]
        return MethodOutcome(l2_error=errors[best], sparsity=fits[mu].sparsity, chosen_mu=mu)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run a single trial; a pure function of (config, trial_index)."""
    return _Workbench(config).run_trial(trial_index)


def _aggregate(outcomes: list[MethodOutcome]) -> MethodAggregate:
    return MethodAggregate(
        mean_error=float(np.mean([o.l2_error for o in outcomes])),
        mean_sparsity=float(np.mean([o.sparsity for o in outcomes])),
        max_sparsity=int(max(o.sparsity for o in outcomes)),
    )


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run all trials for one noise model and aggregate per method."""
    bench = _Workbench(config)
    records = tuple(bench.run_trial(i) for i in range(config.trials))
    return TrialSummary(
        config=config,
        records=records,
        rkbs=_aggregate([r.rkbs for r in records]),
        rkhs=_aggregate([r.rkhs for r in records]),
    )


# ---------------------------------------------------------------------------
# serialization


def config_to_json(config: ExperimentConfig) -> dict:
    return {
        "n_points": config.n_points,
        "interval": list(config.interval),
        "kernel": kernel_to_json(config.kernel),
        "noise": {"kind": config.noise.label, **config.noise.params()},
        "trials": config.trials,
        "mu_grid": list(config.mu_grid),
        "master_seed": config.master_seed,
        "quadrature_nodes": config.quadrature_nodes,
        "metadata": {
            "points": "equally spaced, both endpoints included",
            "pepper_reading": (
                "independent +/-magnitude on every sample"
                if config.noise.corrupt_fraction == 1.0
                else f"each sample corrupted with probability {config.noise.corrupt_fraction}"
            ),
            "mu_selection": "oracle: minimizes L2 distance to the true target",
            "error_scale": "squared L2([a,b]) distance",
        },
    }


def summary_to_json(summary: TrialSummary) -> dict:
    return {
        "config": config_to_json(summary.config),
        "noise": summary.config.noise.label,
        "methods": {
            "rkhs": summary.rkhs.as_dict(),
            "rkbs": summary.rkbs.as_dict(),
        },
        "lasso_path": LassoPathStats.total(r.lasso_path for r in summary.records).as_dict(),
        "trials": [r.as_dict() for r in summary.records],
    }


def csv_rows(labeled_summaries: list[tuple[str, TrialSummary]]) -> list[str]:
    """CSV lines (header first) for a list of (noise label, summary) pairs."""
    rows = [CSV_HEADER]
    for label, summary in labeled_summaries:
        for method, agg in (("rkhs", summary.rkhs), ("rkbs", summary.rkbs)):
            rows.append(
                f"{label},{method},{agg.mean_error!r},{agg.mean_sparsity!r},"
                f"{agg.max_sparsity},{summary.config.trials},{summary.config.master_seed}"
            )
    return rows


def write_csv(labeled_summaries: list[tuple[str, TrialSummary]], path) -> None:
    """Write the aggregate table; output is byte-identical for equal configs."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(csv_rows(labeled_summaries)) + "\n")
