"""Gram systems: the dense linear algebra under every higher-level operation.

A :class:`GramSystem` bundles a kernel, a validated point set, the Gram
matrix K[x] with entry (j, k) = K(x_k, x_j), its pivoted LU factorization,
and a reciprocal condition estimate.  The entry convention follows the
defining formula rather than assuming symmetry, so a non-symmetric kernel
added later cannot silently transpose the interpolation formulas; for the
symmetric zoo the matrix is symmetric anyway.

LU with partial pivoting is used instead of Cholesky on purpose: Gram
matrices here are nonsingular by the admissibility condition (A1) but need
not be positive definite (the Brownian bridge Gram is, the sinc Gram on
non-integer points need not be).  Every factorization in the library, the
Gram's own and the ridge solver's shifted K[x] + mu I, goes through one
helper that factors the matrix and rejects it when LAPACK's 1-norm rcond
estimate falls below RCOND_FLOOR.  Kernel sections, solves and cardinal
coefficients are methods of :class:`GramSystem`.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, DomainError, DuplicatePoints, SingularGram
from .kernels import KernelSpec

__all__ = [
    "PointSet",
    "Side",
    "CoefficientVector",
    "GramSystem",
    "build_system",
]

# Reciprocal condition estimates below this are treated as singular: at the
# double-precision noise floor, (A1) nonsingularity is no longer observable.
RCOND_FLOOR = 1e-14


class Side(enum.Enum):
    """Which slot of K(.,.) the expansion points occupy.

    LEFT:  sum_j c_j K(x_j, .)   — the l1-norm space.
    RIGHT: sum_j c_j K(., x_j)   — the sup-norm companion space.
    """

    LEFT = "left"
    RIGHT = "right"


class PointSet:
    """Ordered, pairwise-distinct real sample points.

    Points are kept in user order; a sorted permutation is retained for the
    closed-form cardinal formulas that need ascending nodes.
    """

    __slots__ = ("points", "sorted_indices", "min_spacing")

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True).reshape(-1)
        if pts.size == 0:
            raise ValueError("a point set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        order = np.argsort(pts, kind="stable")
        spacing = np.diff(pts[order])
        if pts.size > 1 and not np.all(spacing > 0.0):
            raise DuplicatePoints("point set contains coincident points")
        pts.flags.writeable = False
        order.flags.writeable = False
        self.points = pts
        self.sorted_indices = order
        self.min_spacing = float(spacing.min()) if pts.size > 1 else np.inf

    @property
    def n(self) -> int:
        return self.points.size

    def __len__(self) -> int:
        return self.points.size

    def __repr__(self) -> str:
        return f"PointSet({self.points.tolist()!r})"


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
        return np.atleast_1d(self.kernel.eval(t, self.points.points))

    def kx_row(self, t: float) -> np.ndarray:
        """K^x(t) = (K(x_j, t))_j."""
        return np.atleast_1d(self.kernel.eval(self.points.points, t))

    def solve(self, y) -> np.ndarray:
        """Solve K[x] c = y through the stored factorization; y is (n,) or
        (n, m), solved column by column."""
        return scipy.linalg.lu_solve(self.factorization, self._rhs(y))

    def solve_transpose(self, y) -> np.ndarray:
        """Solve K[x]^T c = y through the stored factorization."""
        return scipy.linalg.lu_solve(self.factorization, self._rhs(y), trans=1)

    def _rhs(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != self.n:
            raise DimensionMismatch(
                f"expected an ({self.n},) or ({self.n}, m) right-hand side, got shape {y.shape}"
            )
        return y

    def cardinal_coefficients(self, t: float) -> np.ndarray:
        """K[x]^(-1) K_x(t): interpolation weights of the kernel basis at t."""
        return self.solve(self.kx_column(t))

    def cardinal_matrix(self, ts) -> np.ndarray:
        """Cardinal coefficient vectors for many evaluation points at once.

        Returns an (n, m) array whose i-th column is cardinal_coefficients(ts[i]).
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if not self.kernel.domain.contains(ts):
            raise DomainError(f"grid leaves the kernel domain {self.kernel.domain}")
        kx = self.kernel.eval(ts[None, :], self.points.points[:, None])
        return self.solve(kx)

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
    if not kernel.domain.contains(x):
        raise DomainError(f"points leave the {kernel.name} kernel domain {kernel.domain}")
    # entry (j, k) = K(x_k, x_j): rows follow the second argument
    gram = np.asarray(kernel.eval(x[None, :], x[:, None]), dtype=float)
    if gram.shape == ():
        gram = gram.reshape(1, 1)
    gram.flags.writeable = False

    factorization, rcond = _lu_factor_gated(
        gram,
        lambda rcond: SingularGram(
            f"Gram matrix numerically singular: rcond {rcond:.3e} < {RCOND_FLOOR:.0e} "
            f"(n={points.n}, min spacing {points.min_spacing:.3e})",
            rcond=rcond,
        ),
    )
    return GramSystem(kernel, points, gram, factorization, rcond)


def _lu_factor_gated(matrix: np.ndarray, singular: Callable[[float], Exception]):
    """Pivoted LU of a square matrix, gated on its 1-norm rcond estimate.

    Returns ((lu, piv), rcond).  Raises singular(rcond), an exception built
    by the caller, when LAPACK gecon fails or rcond < RCOND_FLOOR.
    """
    # getrf warns (LinAlgWarning) on an exactly zero pivot rather than raising;
    # the rcond floor below is the single singularity gate either way.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, np.linalg.norm(matrix, 1), norm="1")
    if info != 0 or not rcond >= RCOND_FLOOR:
        raise singular(float(rcond))
    return (lu, piv), float(rcond)
