"""Numerical audits of the admissibility conditions and the relaxed bound.

A numerical audit can refute a condition (a concrete witness in hand) but
never prove one: a PASS verdict means "no violation found over the sampled
trials", and every report records how many trials were run.  Condition
(A3) is not audited at all — it quantifies over infinite absolutely
summable sequences — and is carried only as static kernel metadata.

The central quantity is the Lebesgue function

    L(t) = || K[x]^(-1) K_x(t) ||_1,

whose supremum over the domain is the Lebesgue constant of kernel
interpolation on x.  Condition (A4) asks for L(t) <= 1 everywhere; the
relaxed condition only asks for a finite bound beta_n, estimated here as a
grid supremum (always a lower bound of the true constant) and never FAILed.

The sampled audits (A1, A4, relaxed A4) share one trial loop: per-trial
Philox streams, Gram construction, skipped singular Grams and worst-value
tracking are the same for all three, which differ only in what they measure
per trial and whether they FAIL.  A numerically singular Gram is skipped by
all three, since round-off refutes nothing: A1, like relaxed A4, never FAILs.
A failed point draw or Gram construction makes any of them INCONCLUSIVE.  A4
FAILs only above 1 + A4_TOL + eps/rcond, for the same reason.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, DuplicatePoints, SingularGram
from .gram import GramSystem, _scratch, build_system
from .kernels import Interval, KernelSpec, PointSet
from .streams import _check_count, stream

__all__ = [
    "Condition",
    "Verdict",
    "Witness",
    "AuditStats",
    "AuditReport",
    "LebesgueProfile",
    "RandomPointSets",
    "lebesgue_function",
    "lebesgue_constant",
    "profile_grid",
    "pair_grid",
    "audit_a1",
    "audit_a2",
    "audit_a4",
    "audit_relaxed_a4",
    "extension_norm",
]

# Tolerance on the unit Lebesgue bound: absorbs solve round-off while staying
# orders of magnitude below any genuine violation seen in practice.  audit_a4
# adds eps/rcond, the forward-error bound of an ill-conditioned Gram solve.
A4_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

# |Schur complement| below this means the extended Gram is numerically singular.
SCHUR_FLOOR = 1e-14

# draws RandomPointSets makes for one point set before it gives up
MAX_POINT_DRAWS = 10_000

# uniform nodes of a Lebesgue grid (profile_grid) unless a caller asks otherwise
GRID_SIZE = 2001

# trials of audit_a4 and audit_relaxed_a4, and master seed of every sampled
# audit's trial streams, unless a caller asks otherwise
AUDIT_TRIALS = 50
MASTER_SEED = 0


class Condition(enum.Enum):
    A1 = "a1"
    A2 = "a2"
    A4 = "a4"
    RELAXED_A4 = "relaxed_a4"


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Concrete configuration substantiating a FAIL verdict."""

    points: tuple
    t: float
    value: float


@dataclass(frozen=True)
class AuditStats:
    """Trials run, the worst value and its location {"points": [...], "t": t}
    (t None for A1's rcond), and the singular-Gram skips."""

    n_trials: int
    worst_value: float | None
    argmax_location: object = None
    skipped: int = 0


@dataclass(frozen=True)
class AuditReport:
    condition: Condition
    verdict: Verdict
    witness: Witness | None
    stats: AuditStats
    message: str | None = None

    def to_json(self) -> dict:
        obj = {
            "condition": self.condition.value,
            "verdict": self.verdict.value,
            "witness": asdict(self.witness) if self.witness else None,
            "stats": asdict(self.stats),
        }
        if self.message:
            obj["message"] = self.message
        return obj


@dataclass(frozen=True)
class LebesgueProfile:
    """L(t) sampled over a grid, with the grid supremum and its location."""

    values: np.ndarray
    max_value: float
    argmax: float


# ---------------------------------------------------------------------------
# Lebesgue function and constant


def lebesgue_function(system: GramSystem, t: float) -> float:
    """l1 norm of the cardinal coefficient vector at t (equals 1 at nodes)."""
    return float(np.abs(system.cardinal_coefficients(t)).sum())


def lebesgue_constant(system: GramSystem, grid) -> LebesgueProfile:
    """Profile of L(t) over a grid; the max is a lower bound of beta_n.

    The (n, m) cardinal matrix, and the kernel section under it, live in
    the calling thread's workspace (gram._scratch: kept per thread up to
    gram.WORKSPACE_ENTRIES entries each, allocated per call above), so a
    profile allocates about its m values, which it returns as its own.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    coeffs = system.cardinal_matrix(grid, out=_scratch("cardinal", (system.n, grid.size)))
    values = np.abs(coeffs, out=coeffs).sum(axis=0)
    i = int(np.argmax(values))
    return LebesgueProfile(values=values, max_value=float(values[i]), argmax=float(grid[i]))


def profile_grid(domain: Interval, grid_size: int = GRID_SIZE, points=None) -> np.ndarray:
    """Uniform grid of grid_size >= 2 nodes over a bounded domain plus
    midpoints of adjacent points.

    Midpoints are included because the closed-form cardinal functions show
    the Lebesgue extrema landing between nodes; open endpoints are trimmed.
    points is a PointSet, or an array checked as one.
    """
    grid_size = _check_count("grid_size", grid_size, 2)
    if not domain.bounded:
        raise ValueError(f"need a bounded interval to build a grid, got {domain}")
    if domain.lo_open or domain.hi_open:
        ts = np.linspace(domain.lo, domain.hi, grid_size + 2)[1:-1]
    else:
        ts = np.linspace(domain.lo, domain.hi, grid_size)
    if points is not None:
        if not isinstance(points, PointSet):
            points = PointSet(points)
        x = points.points[points.order]
        if x.size > 1:
            # halved before the sum, which then cannot overflow: the same bits
            # as 0.5 * (a + b) wherever that is finite, off the subnormal range
            ts = np.unique(np.concatenate([ts, 0.5 * x[1:] + 0.5 * x[:-1]]))
    return ts


def pair_grid(values) -> np.ndarray:
    """All (s, t) pairs of a 1-D grid, as an (m, 2) array."""
    values = np.asarray(values, dtype=float).reshape(-1)
    ss, tt = np.meshgrid(values, values, indexing="ij")
    return np.column_stack([ss.ravel(), tt.ravel()])


# ---------------------------------------------------------------------------
# point-set sampling


@dataclass(frozen=True)
class RandomPointSets:
    """Default audit sampler: n ~ U{n_range}, sorted uniform interior points.

    Draws are rejected and resampled until the minimum spacing reaches
    min_spacing_factor * (domain length), which keeps the Gram matrices
    well-conditioned so audits probe the mathematics rather than the
    floating point; it gives up after MAX_POINT_DRAWS draws.
    """

    domain: Interval
    n_range: tuple[int, int] = (2, 30)
    min_spacing_factor: float = 1e-3

    def __post_init__(self):
        if not self.domain.bounded:
            raise ValueError("point sampling needs a bounded domain")
        lo, hi = self.n_range
        lo = _check_count("n_range[0]", lo, 1)
        object.__setattr__(self, "n_range", (lo, _check_count("n_range[1]", hi, lo)))
        if not 0.0 <= self.min_spacing_factor < np.inf:
            raise ValueError(f"min_spacing_factor must be finite and >= 0, got {self.min_spacing_factor}")

    def __call__(self, rng: np.random.Generator) -> PointSet:
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        threshold = self.min_spacing_factor * self.domain.length
        for _ in range(MAX_POINT_DRAWS):
            pts = rng.uniform(self.domain.lo, self.domain.hi, size=n)
            pts.sort()
            if not self.domain.contains(pts):
                continue
            if n == 1 or np.diff(pts).min() >= threshold:
                return PointSet(pts)
        raise RuntimeError(
            f"could not draw {n} points with spacing >= {threshold:.3e} "
            f"after {MAX_POINT_DRAWS} attempts"
        )


# ---------------------------------------------------------------------------
# audits


def _inconclusive(condition: Condition, n_trials: int, message: str, skipped: int) -> AuditReport:
    stats = AuditStats(n_trials, None, skipped=skipped)
    return AuditReport(condition, Verdict.INCONCLUSIVE, None, stats, message)


def _sampled_audit(condition, kernel, generator, trials, master_seed, measure, fails=None):
    """The sampled-trial loop of audit_a1, audit_a4 and audit_relaxed_a4.

    Trial i draws a point set from the stream (master_seed, i, label), label
    "audit-" and the condition's value with "-" for "_", and builds its Gram
    system; a failed draw or construction ends the audit INCONCLUSIVE.  A
    numerically singular Gram is skipped and counted in stats.skipped; the
    audit is INCONCLUSIVE when every trial was skipped.
    measure(ps, system) gives the trial's (value, t): the rcond estimate and
    None for A1, where lower is worse, or the grid supremum of L and its
    location, where higher is worse.
    fails(ps, system, value, t) returns a FAIL message that stops the audit
    at that trial, or None.
    """
    trials = _check_count("trials", trials, 1)
    master_seed = _check_count("master_seed", master_seed, 0)
    label = "audit-" + condition.value.replace("_", "-")
    lower_is_worse = condition is Condition.A1
    worst = worst_loc = None
    skipped = 0
    for i in range(trials):
        rng = stream(master_seed, i, label)
        try:
            ps = generator(rng)
        except (DuplicatePoints, ValueError, RuntimeError) as exc:
            return _inconclusive(condition, i, f"point sampling failed on trial {i}: {exc}", skipped)
        try:
            system = build_system(kernel, ps)
        except SingularGram:
            skipped += 1
            continue
        except (DomainError, DuplicatePoints) as exc:
            return _inconclusive(condition, i, f"system construction failed on trial {i}: {exc}", skipped)
        value, t = measure(ps, system)
        loc = {"points": ps.points.tolist(), "t": t}
        if worst is None or (value < worst if lower_is_worse else value > worst):
            worst, worst_loc = value, loc
        message = fails(ps, system, value, t) if fails is not None else None
        if message is not None:
            witness = Witness(tuple(loc["points"]), t, value)
            return AuditReport(condition, Verdict.FAIL, witness, AuditStats(i + 1, value, loc, skipped), message)
    if skipped == trials:
        return _inconclusive(condition, trials, "every sampled Gram matrix was numerically singular", skipped)
    message = f"{skipped} of {trials} trials skipped (singular Gram)" if skipped else None
    return AuditReport(condition, Verdict.PASS, None, AuditStats(trials, worst, worst_loc, skipped), message)


def _lebesgue_measure(kernel: KernelSpec, generator, domain: Interval | None, grid_size: int):
    """Trial measure of the Lebesgue audits: grid supremum of L and its
    location.  The grid's rules are profile_grid's, checked before any trial."""
    domain = domain or getattr(generator, "domain", None) or kernel.domain
    profile_grid(domain, grid_size)

    def measure(ps: PointSet, system: GramSystem):
        prof = lebesgue_constant(system, profile_grid(domain, grid_size, ps))
        return prof.max_value, prof.argmax

    return measure


def audit_a1(
    kernel: KernelSpec,
    generator: Callable[[np.random.Generator], PointSet],
    trials: int,
    master_seed: int = MASTER_SEED,
) -> AuditReport:
    """The worst rcond of the sampled Gram matrices; never a FAIL, since the
    rcond gate cannot tell a numerically singular Gram from a singular one."""
    return _sampled_audit(
        Condition.A1, kernel, generator, trials, master_seed,
        lambda ps, system: (system.rcond_estimate, None),
    )


def audit_a2(kernel: KernelSpec, grid) -> AuditReport:
    """Compare sup |K| over sampled (s, t) pairs against the declared bound;
    INCONCLUSIVE at the first pair whose |K| is not finite."""
    pairs = np.asarray(grid, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("grid must be a nonempty (m, 2) array of (s, t) pairs")
    values = np.abs(kernel.eval(pairs[:, 0], pairs[:, 1]))
    i = int(np.argmax(values))  # the first nan, if any
    worst = float(values[i])
    s, t = float(pairs[i, 0]), float(pairs[i, 1])
    if not np.isfinite(worst):
        return _inconclusive(Condition.A2, int(pairs.shape[0]), f"|K| is {worst} at (s, t) = ({s:g}, {t:g})", 0)
    stats = AuditStats(int(pairs.shape[0]), worst, {"points": [s], "t": t})
    if worst > kernel.bound + 1e-12:
        witness = Witness((s,), t, worst)
        return AuditReport(
            Condition.A2,
            Verdict.FAIL,
            witness,
            stats,
            message=f"|K| reached {worst:.6g}, above the declared bound {kernel.bound}",
        )
    return AuditReport(Condition.A2, Verdict.PASS, None, stats)


def audit_a4(
    kernel: KernelSpec,
    generator: Callable[[np.random.Generator], PointSet],
    grid_size: int = GRID_SIZE,
    trials: int = AUDIT_TRIALS,
    master_seed: int = MASTER_SEED,
    domain: Interval | None = None,
) -> AuditReport:
    """Grid-search the Lebesgue function for a value above 1 on sampled point sets.

    A trial FAILs when its grid supremum exceeds 1 + A4_TOL + eps/rcond,
    where eps/rcond bounds the cardinal solves' forward error (kappa * u).
    Numerically singular Gram draws are skipped (and counted); a report is
    INCONCLUSIVE only if every trial was skipped.
    """

    def fails(ps, system, value, t):
        if value > 1.0 + A4_TOL + _EPS / system.rcond_estimate:
            return f"Lebesgue value {value:.6g} > 1 at t={t:.6g} on an n={ps.n} point set"
        return None

    measure = _lebesgue_measure(kernel, generator, domain, grid_size)
    return _sampled_audit(Condition.A4, kernel, generator, trials, master_seed, measure, fails)


def audit_relaxed_a4(
    kernel: KernelSpec,
    generator: Callable[[np.random.Generator], PointSet],
    grid_size: int = GRID_SIZE,
    trials: int = AUDIT_TRIALS,
    master_seed: int = MASTER_SEED,
    domain: Interval | None = None,
) -> AuditReport:
    """Estimate the relaxed constant beta_n as the worst grid supremum of L.

    The audit is an estimator, never a test: it PASSes with the worst value
    seen and its location, or is INCONCLUSIVE.
    """
    measure = _lebesgue_measure(kernel, generator, domain, grid_size)
    return _sampled_audit(Condition.RELAXED_A4, kernel, generator, trials, master_seed, measure)


# ---------------------------------------------------------------------------
# one-point extension


def extension_norm(system: GramSystem, y, t_new: float, b: float) -> float:
    """l1 norm of the coefficients interpolating (y, b) on x extended by t_new.

    Computed by the block elimination of the bordered Gram matrix: with

        p = K(t_new, t_new) - K_x(t_new)^T K[x]^(-1) K_x(t_new)
        q = K_x(t_new)^T K[x]^(-1) y - b

    the extended coefficient vector is

        ( K[x]^(-1) y + (q/p) K[x]^(-1) K_x(t_new),  -q/p ).

    Raises SingularGram when |p| < 1e-14 (extended Gram numerically
    singular; no rcond is computed, so its rcond stays 0), DuplicatePoints
    when t_new is a sample point and ValueError when b is not finite.
    """
    t_new, b = float(t_new), float(b)
    if not np.isfinite(b):
        raise ValueError(f"extension value b must be finite, got {b}")
    if np.any(system.points.points == t_new):
        raise DuplicatePoints(f"extension point {t_new} coincides with a sample point")
    y = np.asarray(y, dtype=float).reshape(-1)

    col = system.kx_column(t_new)
    d = system.solve(col)
    p = float(system.kernel.eval(t_new, t_new)) - float(col @ d)
    if abs(p) < SCHUR_FLOOR:
        raise SingularGram(
            f"Schur complement {p:.3e} below {SCHUR_FLOOR:.0e}; "
            "the extended Gram matrix is numerically singular"
        )
    base = system.solve(y)
    q = float(col @ base) - b
    tail = -q / p
    return float(np.abs(base + (q / p) * d).sum() + abs(tail))
