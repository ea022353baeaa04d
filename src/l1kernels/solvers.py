"""Gram-matrix solvers for the two regularized regression models.

Both models act on the square Gram matrix K[x] of a sample set:

    l1 (sparse):   argmin_c ||K[x] c - y||_2^2 + mu * ||c||_1
    ridge:         h = (K[x] + mu I)^(-1) y

The l1 problem has no closed form; it is solved by monotone FISTA with a
constant step 1/L, where L bounds the Lipschitz constant of the smooth
part (largest eigenvalue of 2 K[x]^T K[x], by power iteration).  The
accelerated candidate is accepted only if it does not increase the
objective, otherwise the iteration falls back to a plain proximal-gradient
step, so the objective is non-increasing along the iterates.  Two standard
accelerations are layered on top, neither of which can break monotonicity:

- adaptive restart: the momentum is dropped whenever it points against
  progress, restoring linear convergence on strongly convex stretches;
- support polishing: periodically, the reduced normal equations are solved
  on the current (optionally trimmed) support with sign iteration, and the
  resulting candidate is accepted only if it does not increase the
  objective.  On kernel Grams with strongly correlated columns this is
  what identifies the sparse support in practice.

Solutions are certified by the KKT residual rather than by trusting the
iteration:

    c_j != 0:  | 2 (K^T (K c - y))_j + mu sign(c_j) | <= tol
    c_j  = 0:  | 2 (K^T (K c - y))_j |               <= mu + tol
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NegativeMu, SingularShifted
from .gram import CoefficientVector, GramSystem, Side, _lu_factor_gated
from .interpolation import _reject_broken_l1

__all__ = [
    "LassoConfig",
    "FitResult",
    "LassoSolver",
    "RidgeSolver",
    "soft_threshold",
    "lasso_gram",
    "ridge_gram",
    "kkt_residual",
    "largest_eigenvalue",
    "zero_mu_threshold",
]

# Safety margin on the power-iteration estimate of L: Rayleigh quotients
# approach the top eigenvalue from below, and the step 1/L must not overshoot.
_L_MARGIN = 1.01

# Support polishing cadence and trim levels (fractions of ||c||_inf); the
# polish is attempted early once, then every _POLISH_EVERY iterations.
_POLISH_EVERY = 250
_POLISH_FIRST = 20
_POLISH_TRIMS = (0.0, 1e-6, 1e-3, 1e-2)
_SIGN_ROUNDS = 8


@dataclass(frozen=True)
class LassoConfig:
    """Settings for the l1-regularized Gram solve.

    mean_loss switches the data term to (1/n)||K[x]c - y||^2, the averaged
    form of the learning model; the default is the unaveraged form used by
    the sparsity benchmark.
    """

    mu: float
    max_iter: int = 50_000
    tol: float = 1e-8
    sparsity_threshold: float = 1e-8
    mean_loss: bool = False

    def __post_init__(self):
        if self.mu < 0:
            raise NegativeMu(f"regularization weight must be nonnegative, got {self.mu}")
        if not math.isfinite(self.mu):
            raise ValueError(f"regularization weight must be finite, got {self.mu}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.sparsity_threshold > 0:
            raise ValueError("sparsity_threshold must be positive")


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus the certificates that qualify them.

    objective is recomputed from the final coefficients (not carried from
    solver internals); sparsity counts |c_j| above the configured threshold
    after scaling by max(1, ||c||_inf).
    """

    coefficients: CoefficientVector
    objective: float
    kkt_residual: float
    iterations: int
    sparsity: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "objective": self.objective,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "sparsity": self.sparsity,
            "converged": self.converged,
            "coefficients": self.coefficients.values.tolist(),
        }


def soft_threshold(v, tau: float) -> np.ndarray:
    """Proximity operator of tau*||.||_1: shrink each component toward 0 by tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def largest_eigenvalue(matrix: np.ndarray, steps: int = 100, tol: float = 1e-10, seed: int = 0) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(steps):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (matrix @ v_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def _count_sparsity(c: np.ndarray, threshold: float) -> int:
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    return int(np.count_nonzero(np.abs(c) > threshold * scale))


def _kkt_from_gradient(grad: np.ndarray, mu: float, c: np.ndarray) -> float:
    nonzero = c != 0.0
    viol = np.where(
        nonzero,
        np.abs(grad + mu * np.sign(c)),
        np.maximum(np.abs(grad) - mu, 0.0),
    )
    return float(viol.max())


def kkt_residual(system: GramSystem, y, mu: float, c, mean_loss: bool = False) -> float:
    """Maximum violation of the subgradient optimality conditions at c."""
    y = np.asarray(y, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if y.size != system.n or c.size != system.n:
        raise DimensionMismatch(f"expected vectors of length {system.n}")
    if mu < 0:
        raise NegativeMu(f"regularization weight must be nonnegative, got {mu}")
    a = system.gram
    scale = 1.0 / system.n if mean_loss else 1.0
    grad = 2.0 * scale * (a.T @ (a @ c - y))
    return _kkt_from_gradient(grad, mu, c)


def zero_mu_threshold(system: GramSystem, y, mean_loss: bool = False) -> float:
    """Smallest mu for which c = 0 is optimal: 2 ||K^T y||_inf (scaled)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    scale = 1.0 / system.n if mean_loss else 1.0
    return float(2.0 * scale * np.abs(system.gram.T @ y).max())


class LassoSolver:
    """Reusable FISTA state for repeated l1 solves on one Gram system.

    Precomputes K^T K and the step size once; solve() may then be called
    for many right-hand sides and regularization weights, optionally warm
    started (useful along a mu path).
    """

    def __init__(self, system: GramSystem, mean_loss: bool = False):
        _reject_broken_l1(system.kernel, "l1-regularized fitting")
        self.system = system
        self.scale = 1.0 / system.n if mean_loss else 1.0
        self.mean_loss = mean_loss
        self.gtg = system.gram.T @ system.gram
        self.lipschitz = _L_MARGIN * 2.0 * self.scale * largest_eigenvalue(self.gtg)

    def solve(self, y, config: LassoConfig, warm_start=None, history: list | None = None) -> FitResult:
        """Solve for one right-hand side; `history` collects the objective
        value after every iteration (for monotonicity checks)."""
        if config.mean_loss != self.mean_loss:
            raise ValueError("config.mean_loss disagrees with the solver's loss scaling")
        system = self.system
        n = system.n
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != n:
            raise DimensionMismatch(f"expected data of length {n}, got {y.size}")
        mu, s = config.mu, self.scale

        if mu == 0.0:
            # square nonsingular system: the unregularized minimizer interpolates
            c = system.solve(y)
            return self._finish(c, y, config, iterations=0)

        g = self.gtg
        b = system.gram.T @ y
        yty = float(y @ y)
        step = 1.0 / self.lipschitz

        def objective(c, gc):
            return s * (float(c @ gc) - 2.0 * float(b @ c) + yty) + mu * float(np.abs(c).sum())

        c = np.zeros(n) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
        if c.shape != (n,):
            raise DimensionMismatch(f"warm start must have length {n}")
        gc = g @ c
        fc = objective(c, gc)
        z, gz = c, gc
        t = 1.0
        iterations = 0

        for iterations in range(1, config.max_iter + 1):
            u = soft_threshold(z - step * 2.0 * s * (gz - b), step * mu)
            gu = g @ u
            fu = objective(u, gu)
            if fu <= fc:
                c_new, gc_new, fc_new = u, gu, fu
            else:
                # plain proximal step from the current iterate; with step <= 1/L
                # this cannot increase the objective
                p = soft_threshold(c - step * 2.0 * s * (gc - b), step * mu)
                gp = g @ p
                c_new, gc_new, fc_new = p, gp, objective(p, gp)
            # adaptive restart: drop the momentum when it points against progress,
            # which restores linear convergence on strongly convex stretches
            if float((z - u) @ (u - c)) > 0.0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            m1 = t / t_next
            m2 = (t - 1.0) / t_next
            z = c_new + m1 * (u - c_new) + m2 * (c_new - c)
            gz = gc_new + m1 * (gu - gc_new) + m2 * (gc_new - gc)  # G z by linearity
            c, gc, fc, t = c_new, gc_new, fc_new, t_next

            if iterations == _POLISH_FIRST or iterations % _POLISH_EVERY == 0:
                c2, gc2, fc2 = self._polish(mu, b, yty, c, gc, fc, objective)
                if fc2 < fc:
                    c, gc, fc = c2, gc2, fc2
                    z, gz, t = c, gc, 1.0

            if history is not None:
                history.append(fc)
            kkt = _kkt_from_gradient(2.0 * s * (gc - b), mu, c)
            if kkt <= config.tol:
                break

        return self._finish(c, y, config, iterations=iterations)

    def _polish(self, mu, b, yty, c, gc, fc, objective):
        """Best objective-non-increasing candidate from reduced-support solves.

        For a few trim levels, solve the normal equations restricted to the
        trimmed support with the current signs, iteratively removing
        coordinates whose sign flips.  Candidates never replace the iterate
        unless they lower the objective, so monotonicity is preserved.
        """
        top = float(np.abs(c).max(initial=0.0))
        if top == 0.0:
            return c, gc, fc
        g = self.gtg
        best = (c, gc, fc)
        mu_eff = mu / self.scale  # reduced solve of s*||Kc-y||^2 + mu*|c|_1
        for trim in _POLISH_TRIMS:
            support = np.nonzero(np.abs(c) > trim * top)[0]
            reduced = self._sign_iterate(mu_eff, b, support, np.sign(c[support]))
            if reduced is None:
                continue
            cand = np.zeros_like(c)
            cand[reduced[0]] = reduced[1]
            gcand = g @ cand
            fcand = objective(cand, gcand)
            if fcand < best[2]:
                best = (cand, gcand, fcand)
        return best

    def _sign_iterate(self, mu_eff, b, support, signs):
        """Solve G_SS c_S = b_S - mu_eff/2 * s, dropping sign-flipped coords."""
        g = self.gtg
        for _ in range(_SIGN_ROUNDS):
            if support.size == 0:
                return None
            try:
                c_s = np.linalg.solve(
                    g[np.ix_(support, support)], b[support] - 0.5 * mu_eff * signs
                )
            except np.linalg.LinAlgError:
                return None
            flipped = np.sign(c_s) != signs
            if not flipped.any():
                return support, c_s
            support, signs = support[~flipped], signs[~flipped]
        return None

    def _finish(self, c: np.ndarray, y: np.ndarray, config: LassoConfig, iterations: int) -> FitResult:
        system, s = self.system, self.scale
        r = system.gram @ c - y
        objective = s * float(r @ r) + config.mu * float(np.abs(c).sum())
        grad = 2.0 * s * (system.gram.T @ r)
        kkt = _kkt_from_gradient(grad, config.mu, c)
        return FitResult(
            coefficients=CoefficientVector(c, Side.LEFT),
            objective=objective,
            kkt_residual=kkt,
            iterations=iterations,
            sparsity=_count_sparsity(c, config.sparsity_threshold),
            converged=kkt <= config.tol,
        )


def lasso_gram(system: GramSystem, y, config: LassoConfig, warm_start=None) -> FitResult:
    """Solve the l1-regularized Gram least-squares problem (see module docs)."""
    return LassoSolver(system, mean_loss=config.mean_loss).solve(y, config, warm_start)


class RidgeSolver:
    """Ridge solves on one Gram system, caching one LU per shift mu."""

    def __init__(self, system: GramSystem):
        self.system = system
        self._factorizations: dict[float, tuple] = {}

    def _factorization(self, mu: float):
        cached = self._factorizations.get(mu)
        if cached is not None:
            return cached
        shifted = self.system.gram + mu * np.eye(self.system.n)
        factorization, _ = _lu_factor_gated(
            shifted,
            lambda rcond: SingularShifted(
                f"K[x] + mu I numerically singular at mu={mu:g} (rcond {rcond:.3e})"
            ),
        )
        self._factorizations[mu] = (shifted, factorization)
        return self._factorizations[mu]

    def solve(self, y, mu: float, sparsity_threshold: float = 1e-8) -> FitResult:
        system = self.system
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != system.n:
            raise DimensionMismatch(f"expected data of length {system.n}, got {y.size}")
        if mu < 0:
            raise NegativeMu(f"regularization weight must be nonnegative, got {mu}")
        shifted, factorization = self._factorization(mu)
        h = scipy.linalg.lu_solve(factorization, y)
        kh = system.gram @ h
        objective = float((kh - y) @ (kh - y)) + mu * float(h @ kh)
        residual = float(np.abs(shifted @ h - y).max())
        return FitResult(
            coefficients=CoefficientVector(h, Side.LEFT),
            objective=objective,
            kkt_residual=residual,
            iterations=0,
            sparsity=_count_sparsity(h, sparsity_threshold),
            converged=True,
        )


def ridge_gram(
    system: GramSystem,
    y,
    mu: float,
    sparsity_threshold: float = 1e-8,
) -> FitResult:
    """Closed-form ridge solve h = (K[x] + mu I)^(-1) y via a fresh LU.

    The reported objective is the kernel ridge value
    ||K h - y||^2 + mu h^T K h, and kkt_residual holds the linear-system
    residual ||(K + mu I) h - y||_inf certifying the closed form.
    """
    return RidgeSolver(system).solve(y, mu, sparsity_threshold)
