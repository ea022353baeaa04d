"""Reproducible random streams keyed by (master_seed, trial_index, purpose).

Every randomized routine in the library draws from a Philox counter-based
generator whose key is derived from a master seed, a trial index, and a
short purpose label (hashed with crc32, which is stable across platforms
and interpreter runs).  Trials therefore own independent streams and any
execution order — sequential or parallel — yields identical results.
"""

from __future__ import annotations

import numbers
import zlib

import numpy as np

__all__ = ["stream"]


def _purpose_code(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def _check_count(name: str, value, minimum: int) -> int:
    """Reject a count or seed that is not an integer >= minimum, before any
    work: Python and numpy integers pass, bools and floats such as 3.0 fail.
    Returns the value as a Python int, which JSON can write."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value) -> float:
    """Reject a value that is not a real number, before any work: Python and
    numpy reals pass, bools and strings fail.  Returns it as a Python float,
    which JSON can write."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def stream(master_seed: int, trial_index: int, purpose: str) -> np.random.Generator:
    """Independent generator for one (seed, trial, purpose) triple."""
    key = np.random.SeedSequence((int(master_seed), int(trial_index), _purpose_code(purpose)))
    return np.random.Generator(np.random.Philox(key))
