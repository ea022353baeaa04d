"""Exception types shared across the library.

Every error is an L1KernelsError of one of three kinds, one for each thing a
caller does about it:

- input errors, a caller's argument the library rejects, which are also
  ValueErrors: DomainError, DimensionMismatch and NegativeMu;
- numerical failures: SingularGram (a Gram, shifted or bordered matrix that
  is numerically singular) and DuplicatePoints (coincident points);
- refusals: UnsupportedKernel (the kernel lacks a property or closed form
  the operation needs) and KernelMismatch (expansions on different kernels).
"""


class L1KernelsError(Exception):
    """Base class for all library errors."""


class DomainError(L1KernelsError, ValueError):
    """Input error: an evaluation point lies outside the kernel's domain."""


class DimensionMismatch(L1KernelsError, ValueError):
    """Input error: a vector's length does not match the associated point set."""


class NegativeMu(L1KernelsError, ValueError):
    """Input error: a regularization weight was negative."""


class SingularGram(L1KernelsError):
    """Numerical failure: the matrix its message names is numerically singular;
    rcond is its reciprocal condition estimate, 0 where none was computed."""

    def __init__(self, message: str, rcond: float = 0.0):
        super().__init__(message)
        self.rcond = rcond


class DuplicatePoints(L1KernelsError):
    """Numerical failure: a point set contains coincident points."""


class UnsupportedKernel(L1KernelsError):
    """Refusal: the kernel lacks a property (or closed form) the operation needs."""


class KernelMismatch(L1KernelsError):
    """Refusal: two expansions built on different kernels were combined."""
