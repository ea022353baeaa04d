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

A solver holds its path in buffers it allocates once.  At fixed lam the
solution is piecewise linear in y too (Garrigues & El Ghaoui 2008), so one
step engine follows any line in (y, lam).

The start rule.  A solve on the same data as the last, at a weight mu no
larger than where the last solve stopped, resumes the path there, in place.
Otherwise it starts at one of two known ends: K[x] is nonsingular, so the
path is unique, with c = 0 from lam = 2 ||K^T y||_inf up (the top), and the
interpolant K^-1 y, every coordinate active with its sign, as lam -> 0 (the
bottom).  It picks its end by one split weight per data vector.  On the
full-support line c0 - (lam / 2) d, with c0 = K^-1 y and
d = K^-1 K^-1 sign(c0) from the Gram's LU, coordinate j crosses zero at
lam = 2 |c0_j| / (sign(c0_j) d_j), and the crossings by lam = mu predict
the zeros at mu.  The bottom pays about one leave per zero and the top one
join per nonzero, so the path starts at the bottom exactly when mu is below
the split: the ceil(n/2)-th smallest crossing weight, capped at the top's
weight, and 0 when c0 has an exact zero.  Below the smallest crossing
weight the path is the full-support line itself, so a solve from the bottom
with no stop to climb from reads its fit c0 - (mu / 2) d off the record, in
one step, certified like any fit; it leaves no stop.  Any other path from
the bottom climbs in lam: from the stop of an earlier solve on the same data
at a smaller weight, else from the signs of c0 and the QR of all of K
(LAPACK geqrf and orgqr, kept by a pinned solver).  So that QR is factored
only by a climb that reaches a leave, by one whose read-off fit failed its
certificate, and by a pin() that keeps an anchor.  A climb gives up, and the
same solve starts again from above, when its active set falls to half of n
or fewer, when it has taken n steps, or when its fit fails its certificate;
the split of that data then drops to that weight.  From above, a solver
pinned at an anchor (LassoSolver.pin: the path point of some data at its
weight, kept with the QR of all of K as the bottom frame) first moves the
data from the anchor's to y at the anchor's weight, when mu is no larger
than that weight and below y's top weight, and then goes on down; any other
path from above starts from c = 0 at the top's weight.  LassoSolver.sweep
orders a grid so that each solve finds its start: the weights below the
split in increasing order, each climb resuming the last, then the rest in
decreasing order, each path down resuming the last.

The certificate.  Every lasso fit is certified by its KKT residual, not by
trusting the path, and every ridge fit by its linear-system residual
||(K + mu I) h - y||_inf, against one bound tol = KKT_TOL * ||y||_inf.  It
scales with the data as the fit does, and at y = 0 both solvers return an
exact c = 0, whose residual is 0.  Every optimal objective, lasso or
ridge, is at most its value y . y at c = 0, so data whose y . y overflows
is rejected with a ValueError, as data that is not finite is.  The lasso's
conditions:

    c_j != 0:  | 2 (K^T (K c - y))_j + mu sign(c_j) | <= tol
    c_j  = 0:  | 2 (K^T (K c - y))_j |               <= mu + tol
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf as _geqrf
from scipy.linalg.lapack import dgeqrf_lwork as _geqrf_lwork
from scipy.linalg.lapack import dorgqr as _orgqr
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, NegativeMu
from .gram import CoefficientVector, GramSystem, Side, _lu_factor_gated, _lu_solve
from .interpolation import _reject_broken_l1
from .streams import _check_real

# the certificate's relative tolerance (see the module docs)
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
        object.__setattr__(self, "mu", _check_weight(self.mu))


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus the certificates that qualify them.

    objective is recomputed from the final coefficients; sparsity counts the
    nonzero coefficients, exact zeros off the lasso's active set and covered
    by its KKT certificate.  converged: kkt_residual (a linear-system
    residual for the ridge) passes the certificate of the module docs.
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


def _certified(c: np.ndarray, objective: float, residual: float, y: np.ndarray, iterations: int) -> FitResult:
    """The FitResult of c fitted to y, with the module docs' certificate."""
    return FitResult(
        coefficients=CoefficientVector(c, Side.LEFT),
        objective=objective,
        kkt_residual=residual,
        iterations=iterations,
        sparsity=int(np.count_nonzero(c)),
        converged=residual <= KKT_TOL * float(np.abs(y).max()),
    )


def _certificate(gram: np.ndarray, y: np.ndarray, mu: float, c: np.ndarray) -> tuple[float, float]:
    """The lasso objective ||K c - y||^2 + mu ||c||_1 at c and its KKT
    residual, the largest violation of the module docs' conditions."""
    r = gram @ c - y
    grad = 2.0 * (gram.T @ r)
    viol = np.where(c != 0.0, np.abs(grad + mu * np.sign(c)), np.maximum(np.abs(grad) - mu, 0.0))
    return float(r @ r) + mu * float(np.abs(c).sum()), float(viol.max())


def kkt_residual(system: GramSystem, y, mu: float, c) -> float:
    """Maximum violation of the subgradient optimality conditions at c."""
    y = _data_vector(y, system.n)
    c = _data_vector(c, system.n, "coefficients")
    return _certificate(system.gram, y, _check_weight(mu), c)[1]


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
    with np.errstate(over="ignore"):
        if not math.isfinite(y @ y):
            raise ValueError(f"{name} too large: its sum of squares overflows")
    return y


def _check_weight(mu: float) -> float:
    """Reject a weight that is not a real number, negative or not finite,
    before any work.  Returns the weight as a Python float, which JSON can
    write."""
    weight = _check_real("regularization weight", mu)
    if weight < 0:
        raise NegativeMu(f"regularization weight must be nonnegative, got {mu}")
    if not math.isfinite(weight):
        raise ValueError(f"regularization weight must be finite, got {mu}")
    return weight


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


def _crossings(c0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The weight at which each coordinate of the full-support line
    c0 - (lam / 2) d, for c0 = K^-1 y and d = K^-1 K^-1 sign(c0), crosses
    zero; inf for one that never does, and all 0 when c0 has an exact zero."""
    if not c0.all():
        return np.zeros(c0.size)
    rate = np.sign(c0) * d
    return np.divide(2.0 * np.abs(c0), rate, out=np.full(c0.size, np.inf), where=rate > 0.0)


def _bottom_split(crossings: np.ndarray) -> float:
    """The split (see module docs) for the crossing weights of the
    full-support line, before its cap at the top's weight."""
    k = (crossings.size - 1) // 2
    return float(np.partition(crossings, k)[k])


def _factor_qr(gram: np.ndarray, q: np.ndarray, r: np.ndarray) -> None:
    """Q R = gram for the square Gram, in place in the n x n Fortran-ordered
    q and r (LAPACK geqrf and orgqr): Q in q, R in the upper triangle of r,
    whose lower part is never read."""
    n = gram.shape[0]
    lwork = max(int(_geqrf_lwork(n, n)[0]), n)
    q[:] = gram
    _, tau, _, info = _geqrf(q, lwork=lwork, overwrite_a=True)
    if info == 0:
        r[:] = q
        _, _, info = _orgqr(q, tau, lwork=lwork, overwrite_a=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of geqrf or orgqr")


# recent scipy wraps qr_delete in a decorator that maps it over stacked
# matrices; on one small factor its argument checks cost as much as the
# rotations, so call the routine underneath when there is one
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


@dataclass(eq=False)
class _Data:
    """A solver's own copy of its last data y, y's top weight 2 ||K^T y||_inf,
    split, the full-support line c0 - (lam / 2) d with its first crossing
    weight, and the stop (lam, m, blocked) of the last solve on y: the path
    point that the buffers hold, or None."""

    y: np.ndarray
    top: float
    split: float
    c0: np.ndarray
    d: np.ndarray
    cross: float
    stop: tuple | None = None


class LassoSolver:
    """Exact lasso homotopy path on one Gram system, started by the start
    rule of the module docs.

    A step costs O(n |A|) plus one K^T product over two vectors.  The Gram
    matrix must be finite, since the updates scan nothing.

    Between calls the solver keeps two records: _data, of the last data
    vector with the stop whose path point the buffers hold, and _pinned, the
    anchor that pin() keeps with the bottom frame.  solve() clears the stop
    before it reads anything and sets it only when a path it follows reaches
    mu, so a solve cut short by MAX_PATH_STEPS, one at mu = 0, one read off
    the full-support line or one that raises leaves none.  Every solve
    returns the exact path point at mu, certified by _finish, and its
    iterations count this solve's steps, data moves and a climb given up
    included.  The buffers make a solver stateful: one must not be shared
    between threads.
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
        # the last data's record (at first one that matches no data), and the
        # anchor pin() keeps: its data and weight, copies of its active set,
        # signs, Q and R, and the QR of all of K (the bottom frame)
        self._data = _Data(np.empty(0), 0.0, 0.0, np.empty(0), np.empty(0), 0.0)
        self._pinned: tuple | None = None

    def solve(self, y, config: LassoConfig) -> FitResult:
        """Solve for one right-hand side: the exact path point at config.mu."""
        data, system, mu = self._data, self.system, config.mu
        stop, data.stop = data.stop, None
        y = _data_vector(y, system.n)
        if mu == 0.0:
            # square nonsingular system: the unregularized minimizer interpolates
            return self._finish(system.solve(y), y, config, iterations=0)

        steps = 0
        if not np.array_equal(y, data.y):
            data, stop = self._record(y), None
        if stop is not None and mu <= stop[0]:
            lam, m, blocked = stop
            c, steps = self._follow(y, mu, m, blocked, lam)
            return self._finish(c, y, config, iterations=steps)
        if mu < data.split:
            # up in lam = mu - s as s falls to 0, from the point below mu or
            # from the interpolant
            if stop is None and mu < data.cross:
                # below the first zero crossing the path is the full-support line
                fit = self._finish(data.c0 - mu / 2.0 * data.d, y, config, iterations=1)
                if fit.converged:
                    return fit
            if stop is not None:
                s, m = mu - stop[0], stop[1]
            else:
                s, m = mu, system.n
                self._load_bottom()
            c, steps = self._follow(y, mu, m, None, s, lam0=mu, h=-1.0, end=0.0)
            fit = self._finish(c, y, config, iterations=steps)
            if fit.converged or steps == MAX_PATH_STEPS:
                return fit
            # the climb fell to half support or ran n steps short of mu, or
            # its fit failed the certificate: start again from above
            data.stop, data.split = None, mu
        if self._pinned is not None and mu <= self._pinned[1] and mu < data.top:
            # move the data from the anchor's to y at the anchor's weight
            y_anchor, lam, point, _ = self._pinned
            m = point[0].size
            self._active[:m], self._signs[:m], self._qb[:, :m], self._rb[:m, :m] = point
            c, steps = self._follow(y, mu, m, None, 1.0, lam0=lam, h=0.0, e=y_anchor - y, end=0.0, steps=steps)
        else:
            # down from c = 0 at the top's weight
            c, steps = self._follow(y, mu, 0, None, data.top, steps=steps)
        return self._finish(c, y, config, iterations=steps)

    def pin(self, y, config: LassoConfig) -> FitResult:
        """solve(y, config), then keep the path point it reached as the anchor
        and the QR of all of K as the bottom frame, from which later solves
        on any data start (module docs).  A solve that leaves no stop keeps
        nothing, not even an earlier anchor: one that stops short of
        config.mu, runs at mu = 0 or reads its fit off the full-support
        line."""
        fit = self.solve(y, config)
        data, self._pinned = self._data, None
        if data.stop is not None:
            lam, m, _ = data.stop
            frame = np.empty_like(self._qb), np.empty_like(self._rb)
            _factor_qr(self.system.gram, *frame)
            point = self._active[:m], self._signs[:m], self._qb[:, :m], self._rb[:m, :m]
            self._pinned = data.y, lam, tuple(b.copy() for b in point), frame
        return fit

    def sweep(self, y, mus) -> dict[float, FitResult]:
        """Fits of y at every weight of mus, keyed in the order of mus and
        solved in the module docs' order.  A climb that gives up starts its
        own weight again from above, and the weights above it go down with
        the rest.  Of earlier calls only the anchor carries over: the record
        of y is made afresh."""
        configs = {mu: LassoConfig(mu=mu) for mu in mus}
        y = _data_vector(y, self.system.n)
        data, fits = self._record(y), {}
        for mu in sorted(configs):
            if not mu < data.split:
                break
            fits[mu] = self.solve(y, configs[mu])
        for mu in sorted(configs.keys() - fits.keys(), reverse=True):
            fits[mu] = self.solve(y, configs[mu])
        return {mu: fits[mu] for mu in configs}

    def _record(self, y: np.ndarray) -> _Data:
        """Keep a new record of data y, with no stop."""
        system = self.system
        c0 = system.solve(y)
        d = system.solve(system.solve(np.sign(c0)))
        top = zero_mu_threshold(system, y)
        crossings = _crossings(c0, d)
        split = min(_bottom_split(crossings), top)
        self._data = _Data(y.copy(), top, split, c0, d, float(crossings.min()))
        return self._data

    def _load_bottom(self) -> None:
        """Make every coordinate active, with the signs of the interpolant c0
        that the record keeps (whose split is 0 at an exact zero, so no climb
        starts from one) and the QR of the whole Gram in the buffers, copied
        from the pinned frame or else factored in place."""
        qb, rb = self._qb, self._rb
        if self._pinned is None:
            _factor_qr(self.system.gram, qb, rb)
        else:
            qb[:], rb[:] = self._pinned[3]
        self._active[:] = np.arange(self.system.n)
        self._signs[:] = np.sign(self._data.c0)

    def _follow(self, y, mu, m, blocked, s, lam0=0.0, h=1.0, e=None, end=None, steps=0):
        """Follow the path from the point in the buffers (m active columns;
        blocked, the barred join event of the last coordinate to leave) along
        the line (y + s e, lam0 + s h) as s falls to end, by default down in
        lam to mu; a line in the data goes on down in lam from its end.  The
        path stops at MAX_PATH_STEPS in all, counting from steps, and a line up
        in lam (h < 0) gives up once its active set falls to half of n or
        fewer or it has taken n steps.  Returns the coefficients where
        the path stopped and the step count; sets the stop if it reached mu."""
        n, k = self.system.n, self.system.gram
        active, signs, qb, rb = self._active, self._signs, self._qb, self._rb
        rhs, w, event_buf, rate_buf = self._rhs, self._w, self._event_buf, self._rate_buf
        if end is None:
            end = mu
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
            if done or steps == MAX_PATH_STEPS or (h < 0.0 and (2 * m <= n or steps >= n)):
                break
            steps += 1
            events, rates = event_buf[:2 * n + m], rate_buf[:2 * n + m]
            joins, leaves = events[:2 * n].reshape(2, n), events[2 * n:]
            if s <= end:
                events.fill(-np.inf)
                leaves[wrong] = s
            else:
                # rho(t) = p + t slope: p from the residual of y off span(Q) plus
                # lam0 Q z, the slope from h Q z or, on a line in the data (h = 0),
                # from the residual of e
                _twice_residual(q, y, qty, out=w[0])
                np.dot(q, z, out=w[1])
                if lam0:
                    w[0] += lam0 * w[1]
                if e is not None:
                    _twice_residual(q, e, qte, out=w[1])
                elif h != 1.0:
                    w[1] *= h
                # rho_j(t) = b (lam0 + t h), b = +1 or -1, at (b p_j - lam0) / (h - b slope_j):
                # p and slope land in the two rows of joins, then become b p and
                # h - b slope, as 1-D passes (h + slope is h - (-1 slope) bit for bit)
                join_rates = rates[:2 * n].reshape(2, n)
                p, slope = np.dot(w, k, out=joins)
                np.subtract(h, slope, out=join_rates[0])
                np.add(h, slope, out=join_rates[1])
                np.negative(p, out=slope)
                if lam0:
                    joins -= lam0
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
                np.putmask(rates, closed, 1.0)
                events /= rates
                leaves += s
                np.minimum(events, s, out=events)
                np.putmask(events, closed, -np.inf)
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
            # a line up in lam stops with no barred rejoin: below its stop the
            # path from the top may well rejoin that coordinate at its old boundary
            self._data.stop = (lam0 + s * h, m, blocked if h > 0 else None)
        return c, steps

    def _finish(self, c: np.ndarray, y: np.ndarray, config: LassoConfig, iterations: int) -> FitResult:
        objective, kkt = _certificate(self.system.gram, y, config.mu, c)
        return _certified(c, objective, kkt, y, iterations)


def lasso_gram(system: GramSystem, y, config: LassoConfig) -> FitResult:
    """Solve the l1-regularized Gram least-squares problem (see module docs):
    one cold solve on a fresh LassoSolver."""
    return LassoSolver(system).solve(y, config)


class RidgeSolver:
    """Ridge solves on one Gram system, caching the LU of K[x] + mu I per mu."""

    def __init__(self, system: GramSystem):
        self.system = system
        self._factorizations: dict[float, tuple] = {}

    def solve(self, y, mu: float) -> FitResult:
        system = self.system
        y = _data_vector(y, system.n)
        mu = _check_weight(mu)
        factorization = self._factorizations.get(mu)
        if factorization is None:
            # K[x] + mu I, with mu added on the diagonal of a copy of K[x]
            shifted = system.gram.copy()
            shifted.flat[:: system.n + 1] += mu
            factorization, _ = _lu_factor_gated(shifted, f"K[x] + mu I at mu={mu:g}")
            self._factorizations[mu] = factorization
        h = _lu_solve(factorization, y)
        kh = system.gram @ h
        # mu h = y - K h is as small as the data, where h alone may be far larger
        objective = float((kh - y) @ (kh - y)) + float((mu * h) @ kh)
        residual = float(np.abs(kh + mu * h - y).max())
        return _certified(h, objective, residual, y, iterations=0)


def ridge_gram(system: GramSystem, y, mu: float) -> FitResult:
    """Closed-form ridge solve h = (K[x] + mu I)^(-1) y via a fresh LU.

    The reported objective is the kernel ridge value
    ||K h - y||^2 + mu h^T K h, and kkt_residual holds the linear-system
    residual of the module docs' certificate.
    """
    return RidgeSolver(system).solve(y, mu)
