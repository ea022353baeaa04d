"""Gram-matrix solvers for the two regularized regression models.

Both models act on the square Gram matrix K[x] of a sample set:

    l1 (sparse):   argmin_c ||K[x] c - y||_2^2 + mu * ||c||_1
    ridge:         h = (K[x] + mu I)^(-1) y

The averaged loss (1/n)||K[x] c - y||^2 at weight mu is the l1 problem at
weight n mu, so mu is the model's one setting.  The l1 solution is
piecewise linear in mu; the solver follows this path exactly (the lasso
homotopy of Osborne, Presnell & Turlach 2000 and Efron et al. 2004).  With
correlations rho = 2 K^T (y - K c), a path point at weight lam has an
active set A with signs sigma, rho_A = lam sigma and |rho_j| <= lam
elsewhere.  Then K_A^T K_A c_A = K_A^T y - lam sigma / 2, so c_A and rho
are affine in lam until the next event: an inactive coordinate reaches
|rho_j| = lam and joins A, an active one reaches zero and leaves A, or lam
reaches mu.  The solves use a thin QR factorization of K[:, A] (Q is
n x |A|, R square), held in the leading columns of two n x n buffers and
updated in place one column per event: a join appends its column by
Gram-Schmidt with one reorthogonalization, a leave rotates it out with
scipy's qr_delete on the buffers themselves, and the two triangular solves
per step call LAPACK's dtrtrs on R.  The least-squares residual of y is
reorthogonalized against Q once; K^T K, whose condition number is
cond(K)^2, is never formed.

A solver holds its path in buffers it allocates once.  A solve on the
same data, at a weight mu no larger than the last one, resumes the path
where the last solve stopped, in place; any other solve starts cold from
c = 0.  At fixed lam the solution is piecewise linear in y too (Garrigues &
El Ghaoui 2008), so one step engine follows any line in (y, lam).

Every solution is certified by its KKT residual, not by trusting the path:

    c_j != 0:  | 2 (K^T (K c - y))_j + mu sign(c_j) | <= KKT_TOL
    c_j  = 0:  | 2 (K^T (K c - y))_j |               <= mu + KKT_TOL
"""

from __future__ import annotations

import math
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

# a lasso fit is certified (FitResult.converged) when its KKT residual is at
# most this, a ridge fit when its linear-system residual is at most this
# times max(1, ||y||_inf)
KKT_TOL = 1e-8

# path steps one lasso solve may take before it stops uncertified, a guard
# against a path that cycles
MAX_PATH_STEPS = 50_000

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
    """The weight mu of the l1 norm in the l1-regularized Gram solve."""

    mu: float

    def __post_init__(self):
        _check_weight(self.mu)


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


def _certified(c: np.ndarray, objective: float, residual: float, bound: float, iterations: int) -> FitResult:
    """The FitResult of coefficients c, certified when residual <= bound."""
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    return FitResult(
        coefficients=CoefficientVector(c, Side.LEFT),
        objective=objective,
        kkt_residual=residual,
        iterations=iterations,
        sparsity=int(np.count_nonzero(np.abs(c) > SPARSITY_THRESHOLD * scale)),
        converged=residual <= bound,
    )


def _kkt_from_gradient(grad: np.ndarray, mu: float, c: np.ndarray) -> float:
    nonzero = c != 0.0
    viol = np.where(
        nonzero,
        np.abs(grad + mu * np.sign(c)),
        np.maximum(np.abs(grad) - mu, 0.0),
    )
    return float(viol.max())


def kkt_residual(system: GramSystem, y, mu: float, c) -> float:
    """Maximum violation of the subgradient optimality conditions at c."""
    y = _data_vector(y, system.n)
    c = _data_vector(c, system.n, "coefficients")
    _check_weight(mu)
    a = system.gram
    grad = 2.0 * (a.T @ (a @ c - y))
    return _kkt_from_gradient(grad, mu, c)


def zero_mu_threshold(system: GramSystem, y) -> float:
    """Smallest mu for which c = 0 is optimal: 2 ||K^T y||_inf."""
    y = _data_vector(y, system.n)
    return float(2.0 * np.abs(system.gram.T @ y).max())


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


def _twice_residual(q: np.ndarray, v: np.ndarray, qtv: np.ndarray, out: np.ndarray) -> None:
    """out = 2 (v - Q Q^T v) with qtv = Q^T v, projected off span(Q) twice."""
    np.subtract(v, q @ qtv, out=out)
    out -= q @ (q.T @ out)
    out *= 2.0


# the boundaries +lam and -lam, one row of join events each
_BOUNDS = np.array([[1.0], [-1.0]])

# recent scipy wraps qr_delete in a decorator that maps it over stacked
# matrices; on one small factor its argument checks cost as much as the
# rotations, so call the routine underneath when there is one
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


class LassoSolver:
    """Exact lasso homotopy path on one Gram system (see module docs).

    The solver allocates its path buffers once, and the thin QR of K[:, A]
    changes in them by one column per event, so a step costs O(n |A|) plus
    one K^T product over two vectors.  The least-squares residual
    y - Q Q^T y is projected off span(Q) a second time (Daniel, Gragg,
    Kaufman & Stewart 1976): an updated thin Q is orthogonal only up to
    round-off, and what one projection leaves of span(Q) in the residual is
    enough to derail exactly tied paths.  The Gram matrix must be finite,
    since the updates scan nothing.

    The buffers keep the path point where the last solve reached its mu,
    and the stop keeps that solve's own copy of y with the path's lam, m and
    barred rejoin.  solve() clears the stop before it writes anything and
    sets it only when the path reaches mu, so a solve cut short by
    MAX_PATH_STEPS, one at mu = 0 or one that raises leaves none.  A solve
    resumes in place, with no further check, when y equals the stop's data
    by value and config.mu is no larger than its weight, so solves of one y
    at decreasing mu follow one path; any other solve starts from the
    anchor _pin kept if its mu is no larger, else cold from c = 0.  Either
    way the result is the exact path point at mu, certified by _finish, and
    its iterations count this solve's steps, data moves included.  The
    buffers make a solver stateful: one must not be shared between threads.
    """

    def __init__(self, system: GramSystem):
        _reject_broken_l1(system.kernel, "l1-regularized fitting")
        if not np.isfinite(system.gram).all():
            raise ValueError("Gram matrix must be finite")
        self.system = system
        n = system.n
        # the active set A in order and its signs fill the first m slots; the
        # thin QR K[:, A] = Q R fills the first m columns of qb and rb, so Q
        # and the LAPACK view of R are Fortran-contiguous slices, never copies
        self._active, self._signs = np.empty(n, dtype=np.intp), np.empty(n)
        self._qb, self._rb = np.empty((n, n), order="F"), np.empty((n, n), order="F")
        # per-step buffers: triangular right-hand sides, the two vectors K^T
        # multiplies, and per event (joins at +lam, joins at -lam, leaves) its
        # arrival weight and the rate at which it closes
        self._rhs, self._w = np.empty((n, 2)), np.empty((2, n))
        self._event_buf, self._rate_buf = np.empty(3 * n), np.empty(3 * n)
        # (y, lam, m, blocked) where the last solve reached its mu, or None
        self._stop: tuple | None = None
        # copies of a stop and its active set, signs, Q and R, or None
        self._anchor: tuple | None = None

    def solve(self, y, config: LassoConfig) -> FitResult:
        """Solve for one right-hand side, following the path down to config.mu."""
        stop, self._stop = self._stop, None
        system, mu = self.system, config.mu
        n, k = system.n, system.gram
        y = _data_vector(y, n)
        if mu == 0.0:
            # square nonsingular system: the unregularized minimizer interpolates
            return self._finish(system.solve(y), y, config, iterations=0)

        active, signs, qb, rb = self._active, self._signs, self._qb, self._rb
        rhs, w, event_buf, rate_buf = self._rhs, self._w, self._event_buf, self._rate_buf
        # the path runs along the line (y + s e, lam0 + s h) as s falls to end:
        # down in lam (e = 0, h = 1, s = lam), or at an anchor's weight from its
        # data to y (h = 0, s from 1 to 0); a new line lifts the barred rejoin
        lam0, h, e, end, anchor = 0.0, 1.0, None, mu, self._anchor
        if stop is not None and mu <= stop[1] and np.array_equal(y, stop[0]):
            _, s, m, blocked = stop
        elif anchor is not None and mu <= anchor[0][1]:
            (y_anchor, s, m, blocked), *copies = anchor
            active[:m], signs[:m], qb[:, :m], rb[:m, :m] = copies
            if not np.array_equal(y, y_anchor):
                lam0, h, e, s, end, blocked = s, 0.0, y_anchor - y, 1.0, 0.0, None
        else:
            s, m = zero_mu_threshold(system, y), 0
            blocked = None  # the join event of the last coordinate to leave, barred
        steps = 0
        while True:
            q, r, sigma = qb[:, :m], rb[:, :m], signs[:m]
            qty = q.T @ y
            qte = None if e is None else q.T @ e
            if m:
                z = _solve_r(r, sigma, trans=1)
                # below s, c_A(t) = c_a + (s - t) x1; c_a is solved at s
                # directly, since the least-squares part alone can be far larger
                rhs[:m, 0] = qty - (lam0 + s * h) / 2.0 * z
                rhs[:m, 1] = h / 2.0 * z
                if e is not None:
                    rhs[:m, 0] += s * qte
                    rhs[:m, 1] -= qte
                c_a, x1 = _solve_r(r, rhs[:m]).T
            else:
                z = c_a = x1 = qty
            done = False
            if s <= end:
                # a value with the wrong sign has reached zero up to round-off;
                # at the end of a line such a coordinate leaves, as at any zero crossing
                wrong = sigma * c_a < 0.0
                done = not wrong.any()
            if done and e is not None:
                # the data has arrived at the anchor's weight; go on down in lam
                s, lam0, h, e, end, blocked = lam0, 0.0, 1.0, None, mu, None
                continue
            if done or steps == MAX_PATH_STEPS:
                break
            steps += 1
            events, rates = event_buf[:2 * n + m], rate_buf[:2 * n + m]
            joins, leaves = events[:2 * n].reshape(2, n), events[2 * n:]
            if s <= end:
                events.fill(-np.inf)
                leaves[wrong] = s
            else:
                # rho(t) = p + t slope, from Q z and the residuals of y and e off span(Q)
                _twice_residual(q, y, qty, out=w[0])
                np.dot(q, z, out=w[1])
                if e is not None:
                    w[0] += lam0 * w[1]
                    _twice_residual(q, e, qte, out=w[1])
                p, slope = w @ k
                # rho_j(t) = b (lam0 + t h), b = +1 or -1, at (b p_j - lam0) / (h - b slope_j)
                join_rates = rates[:2 * n].reshape(2, n)
                np.multiply(_BOUNDS, p, out=joins)
                if e is not None:
                    joins -= lam0
                np.subtract(h, _BOUNDS * slope, out=join_rates)
                join_rates[:, active[:m]] = 0.0
                # c_i(t) = 0 at t = s + c_a_i / x1_i, kept as a quotient of
                # -sigma c_a and -sigma x1 until s is added
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
                leaves += s
                np.minimum(events, s, out=events)
                events[closed] = -np.inf
            i = int(events.argmax())
            s = max(float(events[i]), end)
            if events[i] < end:
                continue
            if i < 2 * n:
                j = i % n
                _append_column(qb, rb, m, k[:, j])
                active[m], signs[m] = j, 1.0 if i < n else -1.0
                m += 1
                blocked = None
            else:
                i -= 2 * n
                # rotates the column out of Q and R within the buffers
                _qr_delete(q, rb[:m, :m], i, which="col", overwrite_qr=True, check_finite=False)
                blocked = active[i] + (0 if signs[i] > 0 else n)
                active[i:m - 1], signs[i:m - 1] = active[i + 1:m], signs[i + 1:m]
                m -= 1
        c = np.zeros(n)
        c[active[:m]] = c_a
        if done:
            self._stop = (y.copy(), s, m, blocked)
        return self._finish(c, y, config, iterations=steps)

    def _pin(self) -> None:
        """Keep copies of the last stop and its path point, if any, as the anchor."""
        if self._stop is not None:
            m = self._stop[2]
            buffers = self._active[:m], self._signs[:m], self._qb[:, :m], self._rb[:m, :m]
            self._anchor = self._stop, *(b.copy() for b in buffers)

    def _finish(self, c: np.ndarray, y: np.ndarray, config: LassoConfig, iterations: int) -> FitResult:
        system = self.system
        r = system.gram @ c - y
        objective = float(r @ r) + config.mu * float(np.abs(c).sum())
        grad = 2.0 * (system.gram.T @ r)
        kkt = _kkt_from_gradient(grad, config.mu, c)
        return _certified(c, objective, kkt, KKT_TOL, iterations)


def lasso_gram(system: GramSystem, y, config: LassoConfig) -> FitResult:
    """Solve the l1-regularized Gram least-squares problem (see module docs)."""
    return LassoSolver(system).solve(y, config)


class RidgeSolver:
    """Ridge solves on one Gram system, caching the LU of K[x] + mu I per mu."""

    def __init__(self, system: GramSystem):
        self.system = system
        self._factorizations: dict[float, tuple] = {}

    def solve(self, y, mu: float) -> FitResult:
        system = self.system
        y = _data_vector(y, system.n)
        _check_weight(mu)
        factorization = self._factorizations.get(mu)
        if factorization is None:
            factorization, _ = _lu_factor_gated(
                system.gram + mu * np.eye(system.n),
                lambda rcond: SingularShifted(
                    f"K[x] + mu I numerically singular at mu={mu:g} (rcond {rcond:.3e})"
                ),
            )
            self._factorizations[mu] = factorization
        h = scipy.linalg.lu_solve(factorization, y)
        kh = system.gram @ h
        objective = float((kh - y) @ (kh - y)) + mu * float(h @ kh)
        residual = float(np.abs(kh + mu * h - y).max())
        return _certified(h, objective, residual, KKT_TOL * max(1.0, float(np.abs(y).max())), iterations=0)


def ridge_gram(system: GramSystem, y, mu: float) -> FitResult:
    """Closed-form ridge solve h = (K[x] + mu I)^(-1) y via a fresh LU.

    The reported objective is the kernel ridge value
    ||K h - y||^2 + mu h^T K h, and kkt_residual holds the linear-system
    residual ||(K + mu I) h - y||_inf; the fit is certified (converged)
    when that is at most KKT_TOL * max(1, ||y||_inf).
    """
    return RidgeSolver(system).solve(y, mu)
