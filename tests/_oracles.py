"""Independent oracles used by the test suite.

These deliberately avoid the library's solver code paths: the lasso oracle
is cyclic coordinate descent on the raw matrix, and quadrature oracles are
plain dense trapezoid sums.  They exist so the production implementations
are checked against something that shares no code with them.
"""

import numpy as np


def cd_lasso(
    a: np.ndarray, y: np.ndarray, mu: float, tol: float = 1e-10, max_sweeps: int = 200_000, start=None
):
    """Cyclic coordinate descent for  min_c ||a c - y||^2 + mu ||c||_1.

    Closed-form coordinate update: c_j = S(a_j . r_j, mu/2) / ||a_j||^2
    with r_j the residual excluding coordinate j.  Starts from zero, or from
    the iterate start, and stops when the KKT residual drops below tol.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    n = a.shape[1]
    col_sq = (a * a).sum(axis=0)
    if start is None:
        c = np.zeros(n)
        r = y.copy()  # residual y - a c
    else:
        c = np.array(start, dtype=float)
        r = y - a @ c
    for _ in range(max_sweeps):
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            old = c[j]
            rho = a[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - mu / 2.0, 0.0) / col_sq[j]
            if new != old:
                r -= a[:, j] * (new - old)
                c[j] = new
        grad = -2.0 * (a.T @ r)
        viol = np.where(c != 0.0, np.abs(grad + mu * np.sign(c)), np.maximum(np.abs(grad) - mu, 0.0))
        if viol.max() <= tol:
            break
    return c


def cd_lasso_batch(problems, tol: float = 1e-10, max_sweeps: int = 200_000) -> list:
    """cd_lasso on a list of (a, y, mu) problems at once.

    The matrices are padded with zero rows and columns to a common shape
    and the data with zeros; a zero column is skipped as in cd_lasso, and a
    zero row leaves the residual unchanged.  Every sweep applies the same
    cyclic coordinate update to all problems still running, and a problem
    stops, keeping its iterate, as soon as its own KKT residual drops below
    tol.  The last problem still running finishes in cd_lasso from its
    iterate, so it no longer pays for the padding.  Only the summation order
    of the dot products differs from cd_lasso.  Returns one solution per
    problem, of its own length.
    """
    problems = [(np.asarray(a, dtype=float), np.asarray(y, dtype=float), float(mu)) for a, y, mu in problems]
    rows = max(a.shape[0] for a, _, _ in problems)
    width = max(a.shape[1] for a, _, _ in problems)
    cols = np.zeros((width, len(problems), rows))  # cols[j, p] is column j of problem p
    r = np.zeros((len(problems), rows))  # residuals y - a c
    for p, (a, y, _) in enumerate(problems):
        cols[:a.shape[1], p, :a.shape[0]] = a.T
        r[p, :y.size] = y
    mu = np.array([problem[2] for problem in problems])
    half_mu = mu / 2.0
    col_sq = (cols * cols).sum(axis=2)
    # a zero column keeps c_j = 0: its rho is 0, so the update below leaves
    # it there, which skips it as cd_lasso does
    safe_sq = np.where(col_sq == 0.0, 1.0, col_sq)
    c = np.zeros((width, len(problems)))
    solutions = np.zeros((len(problems), width))
    running = np.arange(len(problems))  # problem index of each batch row
    sweeps = 0
    while running.size > 1 and sweeps < max_sweeps:
        sweeps += 1
        for j in range(width):
            old = c[j]
            rho = np.einsum("pi,pi->p", cols[j], r) + col_sq[j] * old
            new = np.sign(rho) * np.maximum(np.abs(rho) - half_mu, 0.0) / safe_sq[j]
            r -= cols[j] * (new - old)[:, None]
            c[j] = new
        grad = -2.0 * np.einsum("jpi,pi->jp", cols, r)
        viol = np.where(c != 0.0, np.abs(grad + mu * np.sign(c)), np.maximum(np.abs(grad) - mu, 0.0))
        done = viol.max(axis=0) <= tol
        if done.any():
            solutions[running[done]] = c[:, done].T
            keep = ~done
            running, r, mu, half_mu = running[keep], r[keep], mu[keep], half_mu[keep]
            cols, c, col_sq, safe_sq = cols[:, keep], c[:, keep], col_sq[:, keep], safe_sq[:, keep]
    if running.size == 1:
        a, y, last_mu = problems[running[0]]
        start = c[:a.shape[1], 0]
        solutions[running[0], :a.shape[1]] = cd_lasso(a, y, last_mu, tol, max_sweeps - sweeps, start)
    else:
        solutions[running] = c.T
    return [solutions[p, :a.shape[1]] for p, (a, _, _) in enumerate(problems)]


def bottom_by_crossings(system, y: np.ndarray, mu: float) -> bool:
    """The lasso's cold-start rule counted at one weight: the path to mu
    starts at the interpolant when mu is below the top's weight
    2 ||K^T y||_inf, c0 = K^-1 y has no exact zero, and fewer than half of
    the coordinates of the full-support line c0 - (mu / 2) K^-1 K^-1
    sign(c0) have crossed zero by mu.  c0 and the line are solved on the
    system's LU, as the solver solves them."""
    c0 = system.solve(y)
    sigma = np.sign(c0)
    d = system.solve(system.solve(sigma))
    crossed = np.count_nonzero(sigma * (c0 - mu / 2.0 * d) <= 0.0)
    top = 2.0 * np.abs(system.gram.T @ y).max()
    return bool(mu < top and sigma.all() and 2 * crossed < y.size)


def lasso_objective(a: np.ndarray, y: np.ndarray, mu: float, c: np.ndarray) -> float:
    r = a @ c - y
    return float(r @ r) + mu * float(np.abs(c).sum())


def trapezoid_l2(values: np.ndarray, dx: float) -> float:
    """sqrt of the trapezoid integral of values^2."""
    sq = values ** 2
    return float(np.sqrt(dx * (sq.sum() - 0.5 * sq[0] - 0.5 * sq[-1])))


def draw_points(rng: np.random.Generator, n: int, lo: float, hi: float, min_spacing: float) -> np.ndarray:
    """Sorted points with a spacing floor, by rejection."""
    while True:
        pts = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or np.diff(pts).min() >= min_spacing:
            return pts
