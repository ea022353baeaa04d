"""Exception types shared across the library.

Input errors, a caller's argument the library rejects, are ValueErrors as
well as L1KernelsErrors: DomainError, DimensionMismatch and NegativeMu.
The other classes report a numerical failure (a singular or degenerate
system, coincident points) or a refused operation (a kernel without the
property it needs, expansions on different kernels).
"""


class L1KernelsError(Exception):
    """Base class for all library errors."""


class DomainError(L1KernelsError, ValueError):
    """Input error: an evaluation point lies outside the kernel's domain."""


class UnsupportedKernel(L1KernelsError):
    """The requested operation is not available for this kernel family."""


class DuplicatePoints(L1KernelsError):
    """A point set contains coincident points."""


class SingularGram(L1KernelsError):
    """The Gram matrix is numerically singular (reciprocal condition below threshold)."""

    def __init__(self, message: str, rcond: float = 0.0):
        super().__init__(message)
        self.rcond = rcond


class DegenerateSchur(L1KernelsError):
    """The one-point-extension Schur complement is numerically zero."""


class FormulaUnavailable(L1KernelsError):
    """A norm formula requires a kernel property this kernel is not known to have."""


class KernelMismatch(L1KernelsError):
    """Two expansions built on different kernels were combined."""


class DimensionMismatch(L1KernelsError, ValueError):
    """Input error: a vector's length does not match the associated point set."""


class NegativeMu(L1KernelsError, ValueError):
    """Input error: a regularization weight was negative."""


class SingularShifted(L1KernelsError):
    """The shifted matrix K + mu*I is numerically singular."""
