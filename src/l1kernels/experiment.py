"""Sparse-vs-dense regression benchmark on noisy samples of a spiky target.

The benchmark samples the five-bump target

    f(x) = e^{-|x+1|} + e^{-|x+0.8|} + e^{-|x|} + e^{-|x-0.8|} + e^{-|x-1|}

on equally spaced points, perturbs it with one of three noise models, and
fits both regression models of :mod:`l1kernels.solvers` over a grid of
regularization weights.  The weight is chosen per method by an oracle: the
one minimizing the L2([a,b]) distance to the *true* target (no
cross-validation).  Reported per noise model and method: mean L2 error,
mean sparsity, and max sparsity over the trials.  The JSON summary also
carries the certificates of the lasso paths (path steps, largest KKT
residual, unconverged fits) per trial, in total and for the anchor, each
trial's path steps per weight in grid order, and whether each selected fit
is certified, with the count per method.

A thread keeps what its trials share until n_points or the mu grid change
(about 8 MB at n = 200): Gram system, quadrature matrix, ridge factors and
a lasso solver pinned (LassoSolver.pin) at the anchor, the noiseless
target's path point at the largest weight.  Each trial fits its lasso grid
by one LassoSolver.sweep, whose start rule the solvers module states, and
starts nowhere else, so run_trial(config, k) is a pure function of
(config, k), its noise drawn from the stream (master_seed, k, "noise"), and
the CSV is byte-identical across runs at a fixed BLAS thread count (another
count sums in another order).  A selected fit that fails its certificate
is logged as a warning with structured fields.
"""

from __future__ import annotations

import enum
import logging
import math
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .gram import build_system
from .interpolation import ExpansionFunction
from .kernels import exponential, kernel_to_json
from .solvers import FitResult, LassoConfig, LassoSolver, RidgeSolver, _check_weight
from .streams import _check_count, _check_real, stream

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
]

logger = logging.getLogger(__name__)

TARGET_CENTERS = (-1.0, -0.8, 0.0, 0.8, 1.0)

# The benchmark's design: only the exponential kernel makes the target an
# exact expansion, on the interval its centres span, and the L2 error is
# taken by the trapezoid rule on this many uniform nodes.
KERNEL = exponential()
INTERVAL = (-1.0, 1.0)
QUADRATURE_NODES = 2001

# Column order of the CSV lines of csv_rows.
CSV_HEADER = "noise,method,mean_error,mean_sparsity,max_sparsity,trials,seed"


def target_function(t):
    """Five-bump test target; symmetric about 0 and exactly representable
    as an exponential-kernel expansion with unit coefficients."""
    t = np.asarray(t, dtype=float)
    out = sum(np.exp(-np.abs(t - c)) for c in TARGET_CENTERS)
    return float(out) if out.ndim == 0 else out


# the share of samples pepper noise hits unless a caller asks otherwise
PEPPER_FRACTION = 1.0


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    PEPPER_SAUCE = "pepper"


# what a noise model's scale is for each kind, and its name in params()
_SCALES = {NoiseKind.GAUSSIAN: "variance", NoiseKind.UNIFORM: "halfwidth", NoiseKind.PEPPER_SAUCE: "magnitude"}


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise of one kind and one scale: a centered normal with
    variance scale, a centered uniform on [-scale, scale], or two-point
    noise, +/- scale on every sample; corrupt_fraction below 1, which only
    pepper noise takes, switches it to the sparse-corruption reading, where
    each sample is hit independently with that probability and left clean
    otherwise.  The classmethods and params() name the scale for its kind.
    """

    kind: NoiseKind
    scale: float
    corrupt_fraction: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise ValueError(f"a noise model needs a NoiseKind, got {self.kind!r}")
        scale = _check_real(_SCALES[self.kind], self.scale)
        fraction = _check_real("corrupt_fraction", self.corrupt_fraction)
        if not 0 < scale < math.inf:
            raise ValueError(f"{_SCALES[self.kind]} must be finite and positive")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in (0, 1]")
        if fraction != 1.0 and self.kind is not NoiseKind.PEPPER_SAUCE:
            raise ValueError(f"corrupt_fraction applies to pepper noise only, not {self.kind.value}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "corrupt_fraction", fraction)

    @classmethod
    def gaussian(cls, variance: float = 0.01) -> "NoiseModel":
        return cls(NoiseKind.GAUSSIAN, variance)

    @classmethod
    def uniform(cls, halfwidth: float = 0.1) -> "NoiseModel":
        return cls(NoiseKind.UNIFORM, halfwidth)

    @classmethod
    def pepper_sauce(cls, magnitude: float = 0.1, corrupt_fraction: float = PEPPER_FRACTION) -> "NoiseModel":
        return cls(NoiseKind.PEPPER_SAUCE, magnitude, corrupt_fraction)

    @property
    def label(self) -> str:
        return self.kind.value

    def params(self) -> dict:
        params = {_SCALES[self.kind]: self.scale}
        if self.kind is NoiseKind.PEPPER_SAUCE:
            params["corrupt_fraction"] = self.corrupt_fraction
        return params


def generate_noise(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n-vector of i.i.d. noise from the model's distribution."""
    if model.kind is NoiseKind.GAUSSIAN:
        return rng.normal(0.0, np.sqrt(model.scale), size=n)
    if model.kind is NoiseKind.UNIFORM:
        return rng.uniform(-model.scale, model.scale, size=n)
    signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
    hits = signs * model.scale
    if model.corrupt_fraction < 1.0:
        hits = np.where(rng.random(n) < model.corrupt_fraction, hits, 0.0)
    return hits


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run (one noise model) on the
    fixed KERNEL, INTERVAL and QUADRATURE_NODES."""

    n_points: int = 200
    noise: NoiseModel = field(default_factory=NoiseModel.gaussian)
    trials: int = 50
    mu_grid: tuple[float, ...] = tuple(10.0 ** j for j in range(-7, 2))
    master_seed: int = 12345

    def __post_init__(self):
        for name, minimum in (("n_points", 2), ("trials", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), minimum))
        if np.ndim(self.mu_grid) != 1:
            raise ValueError(f"mu_grid must be a sequence of weights, got {self.mu_grid!r}")
        object.__setattr__(self, "mu_grid", tuple(_check_weight(m) for m in self.mu_grid))
        if not 0 < len(set(self.mu_grid)) == len(self.mu_grid):
            raise ValueError(f"mu_grid must be nonempty and must not repeat a weight, got {self.mu_grid}")


@dataclass(frozen=True)
class MethodOutcome:
    """Oracle-selected result of one method in one trial.

    l2_error is the *squared* L2([a,b]) distance to the target — the scale
    used by the benchmark's reference table.  Selection by squared or plain
    distance is equivalent (monotone), and :func:`l2_error` returns the
    plain distance when that is wanted.  certified is the selected fit's
    certificate (FitResult.converged).
    """

    l2_error: float
    sparsity: int
    chosen_mu: float
    certified: bool


@dataclass(frozen=True)
class LassoPathStats:
    """Certificates of a set of lasso fits (a trial's path over the mu grid,
    a run's trials, or the anchor): the summed path steps, the largest KKT
    residual and the number of fits that fail their certificate."""

    steps: int
    max_kkt_residual: float
    unconverged: int

    @classmethod
    def of(cls, fits) -> "LassoPathStats":
        return cls.total(cls(f.iterations, f.kkt_residual, int(not f.converged)) for f in fits)

    @classmethod
    def total(cls, stats) -> "LassoPathStats":
        stats = list(stats)
        return cls(
            steps=sum(s.steps for s in stats),
            max_kkt_residual=max(s.max_kkt_residual for s in stats),
            unconverged=sum(s.unconverged for s in stats),
        )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    rkbs: MethodOutcome
    rkhs: MethodOutcome
    lasso_path: LassoPathStats
    path_steps: tuple[int, ...]  # lasso path steps per weight, in mu grid order


@dataclass(frozen=True)
class MethodAggregate:
    mean_error: float
    mean_sparsity: float
    max_sparsity: int
    uncertified: int  # selected fits that fail their certificate


@dataclass(frozen=True)
class TrialSummary:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    rkbs: MethodAggregate
    rkhs: MethodAggregate
    anchor: LassoPathStats  # the fit every trial's lasso path starts from


# ---------------------------------------------------------------------------
# L2 error


def _trapezoid_rms(values: np.ndarray, reference: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.trapezoid((values - reference) ** 2, dx=dx)))


def l2_error(f: ExpansionFunction, interval: tuple[float, float], nodes: int) -> float:
    """L2([a,b]) distance between an expansion and the target, by the
    composite trapezoid rule on `nodes` uniform quadrature nodes."""
    nodes = _check_count("nodes", nodes, 2)
    a, b = interval
    ts = np.linspace(a, b, nodes)
    return _trapezoid_rms(np.asarray(f.evaluate(ts)), target_function(ts), dx=(b - a) / (nodes - 1))


# ---------------------------------------------------------------------------
# the benchmark itself


class _Workbench:
    """What the trials of one geometry share: Gram system, quadrature, solvers."""

    def __init__(self, n_points: int, mus: tuple[float, ...]):
        self.key = (n_points, mus)
        a, b = INTERVAL
        self.x = np.linspace(a, b, n_points)
        self.system = build_system(KERNEL, self.x)
        self.quad = np.linspace(a, b, QUADRATURE_NODES)
        self.dx = (b - a) / (QUADRATURE_NODES - 1)
        self.target_x = target_function(self.x)
        self.target_quad = target_function(self.quad)
        # rows j: K(x_j, t_i) — the LEFT-expansion evaluation matrix
        self.eval_matrix = KERNEL.eval(self.x[:, None], self.quad[None, :])
        self.lasso = LassoSolver(self.system)
        self.ridge = RidgeSolver(self.system)
        self.mus = mus
        # the anchor: the noiseless target's path point at the largest weight
        self.anchor_stats = LassoPathStats.of([self.lasso.pin(self.target_x, LassoConfig(mu=max(mus)))])

    def error_of(self, coefficients: np.ndarray) -> float:
        """Squared L2 distance to the target for a LEFT coefficient vector."""
        values = coefficients @ self.eval_matrix
        return _trapezoid_rms(values, self.target_quad, self.dx) ** 2

    def run_trial(self, cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
        rng = stream(cfg.master_seed, trial_index, "noise")
        y = self.target_x + generate_noise(cfg.noise, cfg.n_points, rng)

        lasso_fits = self.lasso.sweep(y, self.mus)
        path_steps = tuple(lasso_fits[mu].iterations for mu in self.mus)
        logger.debug(
            "trial %d: lasso path steps %s", trial_index, path_steps,
            extra={"trial": trial_index, "path_steps": path_steps},
        )
        rkbs = self._select(lasso_fits, "rkbs", trial_index)
        rkhs = self._select({mu: self.ridge.solve(y, mu) for mu in self.mus}, "rkhs", trial_index)
        if rkhs.sparsity != cfg.n_points:
            logger.warning(
                "ridge solution unexpectedly sparse: %d of %d coefficients nonzero (trial %d, mu=%g)",
                rkhs.sparsity, cfg.n_points, trial_index, rkhs.chosen_mu,
                extra={"trial": trial_index, "mu": rkhs.chosen_mu, "sparsity": rkhs.sparsity},
            )
        return TrialRecord(
            trial_index=trial_index,
            rkbs=rkbs,
            rkhs=rkhs,
            lasso_path=LassoPathStats.of(lasso_fits.values()),
            path_steps=path_steps,
        )

    def _select(self, fits: dict[float, FitResult], method: str, trial_index: int) -> MethodOutcome:
        """The oracle's choice among one method's fits; warns when the chosen
        fit fails its certificate (a KKT or a linear-system residual)."""
        errors = [self.error_of(fits[mu].coefficients.values) for mu in self.mus]
        best = int(np.argmin(errors))
        mu = self.mus[best]
        fit = fits[mu]
        if not fit.converged:
            logger.warning(
                "selected %s fit is not certified: residual %.3e (trial %d, mu=%g)",
                method, fit.kkt_residual, trial_index, mu,
                extra={"trial": trial_index, "method": method, "mu": mu, "kkt_residual": fit.kkt_residual},
            )
        return MethodOutcome(l2_error=errors[best], sparsity=fit.sparsity, chosen_mu=mu, certified=fit.converged)


_local = threading.local()  # each thread's last workbench: solvers hold state


def _workbench(config: ExperimentConfig) -> _Workbench:
    """This thread's workbench for config's n_points and mu grid."""
    key = (config.n_points, config.mu_grid)
    if getattr(_local, "bench", None) is None or _local.bench.key != key:
        _local.bench = _Workbench(*key)
    return _local.bench


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run a single trial; a pure function of (config, trial_index)."""
    return _workbench(config).run_trial(config, trial_index)


def _aggregate(outcomes: list[MethodOutcome]) -> MethodAggregate:
    return MethodAggregate(
        mean_error=float(np.mean([o.l2_error for o in outcomes])),
        mean_sparsity=float(np.mean([o.sparsity for o in outcomes])),
        max_sparsity=int(max(o.sparsity for o in outcomes)),
        uncertified=sum(not o.certified for o in outcomes),
    )


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run all trials for one noise model and aggregate per method."""
    bench = _workbench(config)
    records = tuple(bench.run_trial(config, i) for i in range(config.trials))
    rkbs, rkhs = (_aggregate([getattr(r, method) for r in records]) for method in ("rkbs", "rkhs"))
    paths = LassoPathStats.total(r.lasso_path for r in records)
    logger.info(
        "%s noise: %d trials, %d lasso path steps, %d uncertified lasso fits",
        config.noise.label, config.trials, paths.steps, paths.unconverged,
        extra={"noise": config.noise.label, "trials": config.trials, "path_steps": paths.steps,
               "unconverged": paths.unconverged},
    )
    return TrialSummary(config, records, rkbs, rkhs, bench.anchor_stats)


# ---------------------------------------------------------------------------
# serialization


def config_to_json(config: ExperimentConfig) -> dict:
    return {
        "n_points": config.n_points,
        "interval": list(INTERVAL),
        "kernel": kernel_to_json(KERNEL),
        "noise": {"kind": config.noise.label, **config.noise.params()},
        "trials": config.trials,
        "mu_grid": list(config.mu_grid),
        "master_seed": config.master_seed,
        "quadrature_nodes": QUADRATURE_NODES,
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
        "methods": {"rkhs": asdict(summary.rkhs), "rkbs": asdict(summary.rkbs)},
        "lasso_path": asdict(LassoPathStats.total(r.lasso_path for r in summary.records)),
        "anchor": asdict(summary.anchor),
        "trials": [asdict(r) for r in summary.records],
    }


def csv_rows(summaries: list[TrialSummary]) -> list[str]:
    """CSV lines (header first) for a list of summaries, each labeled by its noise."""
    rows = [CSV_HEADER]
    for summary in summaries:
        for method, agg in (("rkhs", summary.rkhs), ("rkbs", summary.rkbs)):
            rows.append(
                f"{summary.config.noise.label},{method},{agg.mean_error!r},{agg.mean_sparsity!r},"
                f"{agg.max_sparsity},{summary.config.trials},{summary.config.master_seed}"
            )
    return rows
