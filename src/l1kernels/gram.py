"""Gram systems: the dense linear algebra under every higher-level operation.

A :class:`GramSystem` bundles a kernel, a point set (kernels.PointSet), the
Gram matrix K[x], its pivoted LU factorization, and a reciprocal condition
estimate.  Every zoo kernel satisfies K(s, t) == K(t, s) exactly in floating
point, so K[x] is symmetric and one orientation serves both sides.

LU with partial pivoting is used instead of Cholesky on purpose: the theory
asks of a Gram matrix only that it be nonsingular (A1), not positive
definite, and one rcond gate then serves both K[x] and the ridge solver's
shifted K[x] + mu I.  (Every zoo kernel is in fact positive definite: the
Brownian bridge as a covariance, the others by a nonnegative Fourier
transform, for sinc a box.)  Every factorization in the library goes
through one helper that factors the matrix and rejects it when LAPACK's
1-norm rcond estimate falls below RCOND_FLOOR.  Kernel sections, solves
and cardinal coefficients are methods of :class:`GramSystem`.  Solves go
through the LU (getrs); a cardinal matrix, thousands of columns at once,
is the inverse from the LU (getri) times K_x(ts) in one GEMM, which is as
forward-accurate (Du Croz & Higham 1992).  With one BLAS thread (numpy
2.4.6, scipy 1.17.1, 2 cores), getrs on the 2,005 and 2,200 columns of a
Lebesgue grid takes 0.08 ms at n = 5 and 8.6 ms at n = 200; getri and the
GEMM take 0.005 and 2.3 ms.  The GEMM is one call: in blocks of 256
columns it changed the bits of 18 of 20 Lebesgue profiles (n = 31-200).

The kernel section K_x(ts) under a cardinal matrix is written into a
per-thread workspace (_scratch), not a fresh array, as is the cardinal
matrix of a Lebesgue profile (admissibility.lebesgue_constant).  Each
thread keeps one buffer per use, grown to the largest request up to
WORKSPACE_ENTRIES (2**22 entries, 32 MiB); larger requests are allocated
per call.  Buffers are never shared between threads and live as long as
their thread.  At n = 200 on a 2,001-node grid (m = 2,200) the two buffers
hold 7 MB; a profile then allocates 0.3 MB instead of 7 MB and takes
3.4 ms instead of 5.0 ms, 0.9 ms instead of 2.2 ms of it the kernel section.
"""

from __future__ import annotations

import enum
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgecon, dgetri, dgetrs

from .errors import DimensionMismatch, SingularGram
from .kernels import KernelSpec, PointSet, _check_out

__all__ = [
    "Side",
    "CoefficientVector",
    "GramSystem",
    "build_system",
]

# Reciprocal condition estimates below this are treated as singular: at the
# double-precision noise floor, (A1) nonsingularity is no longer observable.
RCOND_FLOOR = 1e-14

# Most entries one buffer of a thread's workspace keeps (32 MiB): a kernel
# section or cardinal matrix above it is allocated per call and not kept.
WORKSPACE_ENTRIES = 2**22
_workspace = threading.local()  # each thread's scratch buffers, by name


class Side(enum.Enum):
    """Which slot of K(.,.) the expansion points occupy.

    LEFT:  sum_j c_j K(x_j, .)   — the l1-norm space.
    RIGHT: sum_j c_j K(., x_j)   — the sup-norm companion space.

    The zoo is symmetric, so the side chooses the norm, never the values.
    """

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class CoefficientVector:
    """Expansion coefficients tagged with their side."""

    values: np.ndarray
    side: Side

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


class GramSystem:
    """Kernel + points + factorized Gram matrix.  Immutable once built."""

    __slots__ = ("kernel", "points", "gram", "factorization", "rcond_estimate")

    def __init__(self, kernel: KernelSpec, points: PointSet, gram, factorization, rcond):
        self.kernel = kernel
        self.points = points
        self.gram = gram
        self.factorization = factorization
        self.rcond_estimate = rcond

    @property
    def n(self) -> int:
        return self.points.n

    def kx_column(self, t: float) -> np.ndarray:
        """K_x(t) = (K(t, x_j))_j."""
        return self.kernel.eval(t, self.points.points)

    def solve(self, y) -> np.ndarray:
        """Solve K[x] c = y through the stored factorization; y is (n,) or
        (n, m), solved column by column."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != self.n:
            raise DimensionMismatch(
                f"expected an ({self.n},) or ({self.n}, m) right-hand side, got shape {y.shape}"
            )
        if not np.isfinite(y).all():
            raise ValueError("right-hand side must be finite")
        return _lu_solve(self.factorization, y)

    def cardinal_coefficients(self, t: float) -> np.ndarray:
        """K[x]^(-1) K_x(t): interpolation weights of the kernel basis at t."""
        return self.solve(self.kx_column(t))

    def cardinal_matrix(self, ts, out=None) -> np.ndarray:
        """Cardinal coefficient vectors for many evaluation points at once.

        Returns an (n, m) array whose i-th column is cardinal_coefficients(ts[i]),
        as K[x]^(-1) @ K_x(ts) with the inverse from the stored LU (getri);
        written into out, a float64 (n, m) array, when given.  K_x(ts) goes
        to this thread's workspace buffer (see _scratch), not a fresh array.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        shape = (self.n, ts.size)
        if out is not None:
            _check_out(out, shape)
        kx = self.kernel.eval(ts[None, :], self.points.points[:, None], out=_scratch("section", shape))
        inverse, info = dgetri(*self.factorization)
        if info != 0:
            raise SingularGram(f"LAPACK getri failed (info {info})", rcond=self.rcond_estimate)
        return np.matmul(inverse, kx, out=out)

    def __repr__(self) -> str:
        return (
            f"GramSystem({self.kernel.name}, n={self.n}, "
            f"rcond={self.rcond_estimate:.2e})"
        )


def build_system(kernel: KernelSpec, points) -> GramSystem:
    """Build and factorize the Gram system for a kernel and point set.

    Raises
    ------
    DuplicatePoints
        If the points are not pairwise distinct.
    DomainError
        If a point falls outside the kernel domain.
    SingularGram
        If the reciprocal condition estimate drops below 1e-14.  Condition
        (A1) rules this out exactly, so hitting it signals conditioning
        trouble; the message reports the minimum point spacing.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    x = points.points
    gram = kernel.eval(x[None, :], x[:, None])
    gram.flags.writeable = False

    factorization, rcond = _lu_factor_gated(
        gram, f"Gram matrix (n={points.n}, min spacing {points.min_spacing:.3e})"
    )
    return GramSystem(kernel, points, gram, factorization, rcond)


def _scratch(name: str, shape) -> np.ndarray:
    """A float64 array of the given shape, C-contiguous, from the calling
    thread's workspace buffer `name`: overwritten by the thread's next
    request for that name, so it holds values only until then.

    Each thread keeps one buffer per name, grown to the largest request
    seen up to WORKSPACE_ENTRIES entries; a larger request gets a fresh
    array that is not kept.  Threads never share a buffer.
    """
    size = math.prod(shape)
    if size > WORKSPACE_ENTRIES:
        return np.empty(shape)
    buffer = getattr(_workspace, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size)
        setattr(_workspace, name, buffer)
    return buffer[:size].reshape(shape)


def _lu_factor_gated(matrix: np.ndarray, what: str):
    """Pivoted LU of a square matrix, gated on its 1-norm rcond estimate.

    Returns ((lu, piv), rcond).  Raises SingularGram, its message naming the
    matrix by what and its rcond the estimate, when LAPACK gecon fails or
    rcond < RCOND_FLOOR.
    """
    # getrf warns (LinAlgWarning) on an exactly zero pivot rather than raising;
    # the rcond floor below is the single singularity gate either way.  The
    # factorization goes through scipy's lu_factor, not dgetrf, because
    # perfbench counts solvers.ridge_factorizations by its calls.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix)
    rcond, info = dgecon(lu, np.linalg.norm(matrix, 1), norm="1")
    rcond = float(rcond)
    if info != 0 or not rcond >= RCOND_FLOOR:
        raise SingularGram(
            f"{what} numerically singular: rcond {rcond:.3e} < {RCOND_FLOOR:.0e}", rcond=rcond
        )
    return (lu, piv), rcond


def _lu_solve(factorization, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, b (n,) or (n, m), from A's factorization (lu, piv)."""
    x, info = dgetrs(*factorization, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x
