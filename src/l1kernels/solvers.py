"""Gram-matrix solvers for the two regularized regression models.

Both models act on the square Gram matrix K[x] of a sample set:

    l1 (sparse):   argmin_c s ||K[x] c - y||_2^2 + mu * ||c||_1
    ridge:         h = (K[x] + mu I)^(-1) y

with s = 1, or s = 1/n for the averaged loss.  The l1 solution is piecewise
linear in mu; the solver follows this path exactly (the lasso homotopy of
Osborne, Presnell & Turlach 2000 and Efron et al. 2004).  With correlations
rho = 2 s K^T (y - K c), a path point at weight lam has an active set A with
signs sigma, rho_A = lam sigma and |rho_j| <= lam elsewhere.  Then
K_A^T K_A c_A = K_A^T y - lam sigma / (2 s), so c_A and rho are affine in
lam until the next event: an inactive coordinate reaches |rho_j| = lam and
joins A, an active one reaches zero and leaves A, or lam reaches mu.  The
solves use a thin QR factorization of K[:, A] (Q is n x |A|, R square),
held in the leading columns of two n x n buffers and updated in place one
column per event: a join appends its column by Gram-Schmidt with one
reorthogonalization, a leave rotates it out with scipy's qr_delete on the
buffers themselves, and the two triangular solves per step call LAPACK's
dtrtrs on R.  The least-squares residual of y is reorthogonalized against Q
once; K^T K, whose condition number is cond(K)^2, is never formed.

A solver remembers where its last solve stopped on the path.  A solve on
the same data and loss scale, at a weight mu no larger than the last one,
resumes the path from there with the same factor; any other solve starts
cold from c = 0.

Every solution is certified by its KKT residual, not by trusting the path:

    c_j != 0:  | 2 s (K^T (K c - y))_j + mu sign(c_j) | <= tol
    c_j  = 0:  | 2 s (K^T (K c - y))_j |               <= mu + tol
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, NegativeMu, SingularShifted
from .gram import CoefficientVector, GramSystem, Side, _lu_factor_gated
from .interpolation import _reject_broken_l1

# a coefficient counts towards a fit's sparsity when |c_j| exceeds this
# times max(1, ||c||_inf)
SPARSITY_THRESHOLD = 1e-8

__all__ = [
    "LassoConfig",
    "FitResult",
    "LassoSolver",
    "RidgeSolver",
    "lasso_gram",
    "ridge_gram",
    "kkt_residual",
    "zero_mu_threshold",
]


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
    mean_loss: bool = False

    def __post_init__(self):
        _check_weight(self.mu)
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus the certificates that qualify them.

    objective is recomputed from the final coefficients (not carried from
    solver internals); sparsity counts |c_j| above SPARSITY_THRESHOLD after
    scaling by max(1, ||c||_inf).
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


def _count_sparsity(c: np.ndarray) -> int:
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    return int(np.count_nonzero(np.abs(c) > SPARSITY_THRESHOLD * scale))


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
    y = _data_vector(y, system.n)
    c = _data_vector(c, system.n, "coefficients")
    _check_weight(mu)
    a = system.gram
    grad = 2.0 * _loss_scale(system, mean_loss) * (a.T @ (a @ c - y))
    return _kkt_from_gradient(grad, mu, c)


def zero_mu_threshold(system: GramSystem, y, mean_loss: bool = False) -> float:
    """Smallest mu for which c = 0 is optimal: 2 ||K^T y||_inf (scaled)."""
    y = _data_vector(y, system.n)
    return float(2.0 * _loss_scale(system, mean_loss) * np.abs(system.gram.T @ y).max())


def _loss_scale(system: GramSystem, mean_loss: bool) -> float:
    """s in the data term s ||K c - y||^2."""
    return 1.0 / system.n if mean_loss else 1.0


def _data_vector(y, n: int, name: str = "data") -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != n:
        raise DimensionMismatch(f"expected {name} of length {n}, got {y.size}")
    if not np.isfinite(y).all():
        raise ValueError(f"{name} must be finite")
    return y


def _check_weight(mu: float) -> None:
    if mu < 0:
        raise NegativeMu(f"regularization weight must be nonnegative, got {mu}")
    if not math.isfinite(mu):
        raise ValueError(f"regularization weight must be finite, got {mu}")


def _append_column(qb: np.ndarray, rb: np.ndarray, m: int, v: np.ndarray) -> None:
    """Extend the thin QR in qb[:, :m], rb[:m, :m] by the column v in place,
    by classical Gram-Schmidt with one reorthogonalization (CGS2, Daniel,
    Gragg, Kaufman & Stewart 1976).  One projection leaves the new column
    orthogonal to span(Q) only to about eps ||v|| / ||u||, which grows with
    cond(K_A) and derails exactly tied paths; the second restores working
    precision."""
    q = qb[:, :m]
    h = q.T @ v
    u = v - q @ h
    h2 = q.T @ u
    u -= q @ h2
    h += h2
    norm = math.sqrt(u @ u)
    if not (norm > 0.0 and math.isfinite(norm)):
        raise np.linalg.LinAlgError(f"Gram column {m} of the active set has norm {norm} off span(Q)")
    rb[:m, m] = h
    rb[m, m] = norm
    np.divide(u, norm, out=qb[:, m])


def _solve_r(r: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve R x = b (trans=1: R^T x = b), R the upper triangle of the
    leading m x m block of r, with m >= 1.  r is a Fortran-contiguous
    (lda, m) view such as rb[:, :m], which LAPACK reads in place; the
    non-contiguous rb[:m, :m] would be copied on every call."""
    x, info = dtrtrs(r, b, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


# the boundaries +lam and -lam, one row of join events each
_BOUNDS = np.array([[1.0], [-1.0]])

# recent scipy wraps qr_delete in a decorator that maps it over stacked
# matrices; on one small factor its argument checks cost as much as the
# rotations, so call the routine underneath when there is one
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


@dataclass
class _PathStop:
    """Where a solve reached its mu: its own copy of the data, the loss
    scale, the state of the path there, and the buffers that hold it."""

    y: np.ndarray
    scale: float
    lam: float
    m: int
    active: np.ndarray
    signs: np.ndarray
    qb: np.ndarray
    rb: np.ndarray
    blocked: int | None


class LassoSolver:
    """Exact lasso homotopy path on one Gram system (see module docs).

    The thin QR of K[:, A] changes by one column per event and no update
    copies its buffers, so a step costs O(n |A|) plus one K^T product over
    two vectors.  The least-squares residual y - Q Q^T y is projected off
    span(Q) a second time (Daniel, Gragg, Kaufman & Stewart 1976): an
    updated thin Q is orthogonal only up to round-off, and what one
    projection leaves of span(Q) in the residual is enough to derail
    exactly tied paths.  The Gram matrix must be finite, since the updates
    scan nothing.

    The solver keeps the path point where its last solve reached mu (not
    one cut short by max_iter).  solve() resumes from it, with its factor
    and no further check, when y equals that solve's data by value, the
    loss scale is the same and config.mu is no larger than its mu, so
    solves of one y at decreasing mu follow one path; each stop is resumed
    at most once.  Any other solve starts cold from c = 0, and either way
    the result is the exact path point at mu, certified by _finish.
    FitResult.iterations counts the steps of this solve, and max_iter caps
    them.  The stop makes a solver stateful: one LassoSolver must not be
    shared between threads that solve at the same time.
    """

    def __init__(self, system: GramSystem):
        _reject_broken_l1(system.kernel, "l1-regularized fitting")
        if not np.isfinite(system.gram).all():
            raise ValueError("Gram matrix must be finite")
        self.system = system
        self._stop: _PathStop | None = None

    def solve(self, y, config: LassoConfig) -> FitResult:
        """Solve for one right-hand side, following the path down to config.mu."""
        system, mu = self.system, config.mu
        scale = _loss_scale(system, config.mean_loss)
        n, k, two_s = system.n, system.gram, 2.0 * scale
        y = _data_vector(y, n)
        stop, self._stop = self._stop, None
        if mu == 0.0:
            # square nonsingular system: the unregularized minimizer interpolates
            return self._finish(system.solve(y), y, config, iterations=0)

        # the active set A in order and its signs fill the first m slots; the
        # thin QR K[:, A] = Q R fills the first m columns of qb and rb, so Q
        # and the LAPACK view of R are Fortran-contiguous slices, never copies
        if stop is not None and mu <= stop.lam and scale == stop.scale and np.array_equal(y, stop.y):
            lam, m, active, signs, qb, rb = stop.lam, stop.m, stop.active, stop.signs, stop.qb, stop.rb
            blocked = stop.blocked
        else:
            lam, m = zero_mu_threshold(system, y, config.mean_loss), 0
            active, signs = np.empty(n, dtype=np.intp), np.empty(n)
            qb, rb = np.empty((n, n), order="F"), np.empty((n, n), order="F")
            blocked = None  # the join event of the last coordinate to leave, barred
        # per-step buffers: triangular right-hand sides, the two vectors K^T
        # multiplies, and per event (joins at +lam, joins at -lam, leaves) its
        # arrival weight and the rate at which it closes
        rhs, w = np.empty((n, 2)), np.empty((2, n))
        event_buf, rate_buf = np.empty(3 * n), np.empty(3 * n)
        steps = 0
        while True:
            q, r, sigma = qb[:, :m], rb[:, :m], signs[:m]
            qty = q.T @ y
            if m:
                z = _solve_r(r, sigma, trans=1)
                # below lam, c_A(l) = c_a + (lam - l) x1; c_a is solved at lam
                # directly, since the least-squares part alone can be far larger
                rhs[:m, 0] = qty - lam / two_s * z
                rhs[:m, 1] = z / two_s
                c_a, x1 = _solve_r(r, rhs[:m]).T
            else:
                z = c_a = x1 = qty
            done = False
            if lam <= mu:
                # a value with the wrong sign has reached zero up to round-off;
                # at mu such a coordinate leaves, as at any zero crossing
                wrong = sigma * c_a < 0.0
                done = not wrong.any()
            if done or steps == config.max_iter:
                break
            steps += 1
            events, rates = event_buf[:2 * n + m], rate_buf[:2 * n + m]
            joins, leaves = events[:2 * n].reshape(2, n), events[2 * n:]
            if lam <= mu:
                events.fill(-np.inf)
                leaves[wrong] = lam
            else:
                # rho(l) = p + l slope; p comes from the least-squares residual of y on K_A
                res = w[0]
                np.subtract(y, q @ qty, out=res)
                res -= q @ (q.T @ res)
                res *= two_s
                np.dot(q, z, out=w[1])
                p, slope = w @ k
                # rho_j(l) = b l, b = +1 or -1, at l = b p_j / (1 - b slope_j)
                join_rates = rates[:2 * n].reshape(2, n)
                np.multiply(_BOUNDS, p, out=joins)
                np.subtract(1.0, _BOUNDS * slope, out=join_rates)
                join_rates[:, active[:m]] = 0.0
                # c_i(l) = 0 at l = lam + c_a_i / x1_i, kept as a quotient of
                # -sigma c_a and -sigma x1 until lam is added
                np.multiply(-sigma, c_a, out=leaves)
                np.multiply(-sigma, x1, out=rates[2 * n:])
                # a coordinate that just left may rejoin only at the opposite
                # boundary, so round-off cannot cycle it in and out
                if blocked is not None:
                    rates[blocked] = 0.0
                # an event moving away from its boundary never arrives; one
                # past it by round-off arrives at once
                closed = rates <= 0.0
                rates[closed] = 1.0
                events /= rates
                leaves += lam
                np.minimum(events, lam, out=events)
                events[closed] = -np.inf
            e = int(events.argmax())
            lam = max(float(events[e]), mu)
            if events[e] < mu:
                continue
            if e < 2 * n:
                j = e % n
                _append_column(qb, rb, m, k[:, j])
                active[m], signs[m] = j, 1.0 if e < n else -1.0
                m += 1
                blocked = None
            else:
                i = e - 2 * n
                # rotates the column out of Q and R within the buffers
                _qr_delete(q, rb[:m, :m], i, which="col", overwrite_qr=True, check_finite=False)
                blocked = active[i] + (0 if signs[i] > 0 else n)
                active[i:m - 1], signs[i:m - 1] = active[i + 1:m], signs[i + 1:m]
                m -= 1
        c = np.zeros(n)
        c[active[:m]] = c_a
        if done:
            self._stop = _PathStop(y.copy(), scale, lam, m, active, signs, qb, rb, blocked)
        return self._finish(c, y, config, iterations=steps)

    def _finish(self, c: np.ndarray, y: np.ndarray, config: LassoConfig, iterations: int) -> FitResult:
        system = self.system
        s = _loss_scale(system, config.mean_loss)
        r = system.gram @ c - y
        objective = s * float(r @ r) + config.mu * float(np.abs(c).sum())
        grad = 2.0 * s * (system.gram.T @ r)
        kkt = _kkt_from_gradient(grad, config.mu, c)
        return FitResult(
            coefficients=CoefficientVector(c, Side.LEFT),
            objective=objective,
            kkt_residual=kkt,
            iterations=iterations,
            sparsity=_count_sparsity(c),
            converged=kkt <= config.tol,
        )


def lasso_gram(system: GramSystem, y, config: LassoConfig) -> FitResult:
    """Solve the l1-regularized Gram least-squares problem (see module docs)."""
    return LassoSolver(system).solve(y, config)


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

    def solve(self, y, mu: float) -> FitResult:
        system = self.system
        y = _data_vector(y, system.n)
        _check_weight(mu)
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
            sparsity=_count_sparsity(h),
            converged=True,
        )


def ridge_gram(system: GramSystem, y, mu: float) -> FitResult:
    """Closed-form ridge solve h = (K[x] + mu I)^(-1) y via a fresh LU.

    The reported objective is the kernel ridge value
    ||K h - y||^2 + mu h^T K h, and kkt_residual holds the linear-system
    residual ||(K + mu I) h - y||_inf certifying the closed form.
    """
    return RidgeSolver(system).solve(y, mu)
