"""Kernel zoo: evaluation, domains, and admissibility metadata.

Every kernel is described by an immutable :class:`KernelSpec` (family +
parameters + domain).  Evaluation is exact up to floating point and
vectorizes over numpy arrays.  Each family carries static flags recording
which of the four admissibility conditions

    (A1) every Gram matrix on pairwise-distinct points is nonsingular,
    (A2) |K(s,t)| <= M for a known bound M,
    (A3) no nontrivial absolutely-summable expansion sums to zero,
    (A4) cardinal coefficient vectors have l1 norm at most 1,

are settled analytically for it.  The two kernels with all four flags
proven (exponential and Brownian bridge) also expose closed-form cardinal
functions, used as oracles against the numeric linear-algebra path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedKernel

__all__ = [
    "Family",
    "Status",
    "AdmissibilityFlags",
    "Interval",
    "KernelSpec",
    "exponential",
    "brownian_bridge",
    "gaussian",
    "wendland_d3_k1",
    "sinc",
    "closed_form_cardinal",
    "kernel_from_json",
    "kernel_to_json",
]


class Family(enum.Enum):
    EXPONENTIAL = "exponential"
    BROWNIAN_BRIDGE = "brownian_bridge"
    GAUSSIAN = "gaussian"
    WENDLAND_D3_K1 = "wendland_d3_k1"
    SINC = "sinc"


class Status(enum.Enum):
    """Analytic status of one admissibility condition for a kernel family."""

    PROVEN = "proven"
    DISPROVEN = "disproven"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AdmissibilityFlags:
    a1: Status = Status.UNKNOWN
    a2: Status = Status.UNKNOWN
    a3: Status = Status.UNKNOWN
    a4: Status = Status.UNKNOWN


_ALL_PROVEN = AdmissibilityFlags(Status.PROVEN, Status.PROVEN, Status.PROVEN, Status.PROVEN)


@dataclass(frozen=True)
class Interval:
    """Real interval with individually open or closed endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.length)

    def contains(self, t) -> bool:
        t = np.asarray(t, dtype=float)
        above = (t > self.lo) if self.lo_open else (t >= self.lo)
        below = (t < self.hi) if self.hi_open else (t <= self.hi)
        return bool(np.all(above & below))

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


_REAL_LINE = Interval()
_UNIT_OPEN = Interval(0.0, 1.0, lo_open=True, hi_open=True)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of one kernel: family, parameters, domain, flags.

    Use the module-level constructors (:func:`exponential`, :func:`gaussian`,
    ...) rather than building instances directly; they validate parameters
    and fill in the per-family admissibility flags and sup bound.
    """

    family: Family
    domain: Interval
    flags: AdmissibilityFlags
    bound: float
    sigma: float | None = None

    @property
    def name(self) -> str:
        return self.family.value

    def _check_domain(self, *values) -> None:
        for v in values:
            if not self.domain.contains(v):
                raise DomainError(
                    f"point outside the {self.name} kernel domain {self.domain}"
                )

    def eval(self, s, t, out=None):
        """Evaluate K(s, t); broadcasts over array arguments.

        out, when given, is a float64 array of the broadcast shape, sharing
        no memory with s or t; the values are written into it and it is
        returned.  Raises DomainError when any argument falls outside the
        domain, ValueError for any other out.
        """
        self._check_domain(s, t)
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast(s, t).shape
        if out is None:
            out = np.empty(shape)
        else:
            _check_out(out, shape)
            if np.may_share_memory(out, s) or np.may_share_memory(out, t):
                raise ValueError("out must not share memory with the kernel's arguments")
        _EVALUATORS[self.family](self, s, t, out)
        if out.ndim == 0:
            return float(out)
        return out


def _check_out(out, shape) -> None:
    """Reject an output buffer that is not a float64 array of this shape."""
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != tuple(shape):
        got = (getattr(out, "shape", None), getattr(out, "dtype", type(out).__name__))
        raise ValueError(f"out must be a float64 array of shape {tuple(shape)}, got {got}")


# Each evaluator writes K(s, t) into out, a float64 array of the broadcast
# shape, with the ufuncs running in place: elementwise, so the bits are those
# of the one-expression form, without its full-size temporaries.


def _eval_exponential(spec, s, t, out):
    # exp(-|s - t|)
    np.subtract(s, t, out=out)
    np.abs(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)


def _eval_brownian_bridge(spec, s, t, out):
    # min(s, t) - s t, as s - s t where s <= t and t - s t elsewhere
    np.multiply(s, t, out=out)
    left = s <= t
    np.subtract(s, out, out=out, where=left)
    np.subtract(t, out, out=out, where=~left)


def _eval_gaussian(spec, s, t, out):
    # exp(-(s - t)^2 / sigma); a far pair's square overflows to inf, and
    # exp(-inf) = 0 is its value
    with np.errstate(over="ignore"):
        np.subtract(s, t, out=out)
        np.square(out, out=out)
        np.negative(out, out=out)
        np.divide(out, spec.sigma, out=out)
        np.exp(out, out=out)


def _eval_wendland_d3_k1(spec, s, t, out):
    # (1 - r)^4 (1 + 4 r), r clipped at the support's edge, so a far pair is
    # 0, never 0 * inf; pow skips the tail's exact zeros, where it is slow
    np.subtract(s, t, out=out)
    np.abs(out, out=out)
    np.minimum(out, 1.0, out=out)
    u = np.subtract(1.0, out, out=np.empty_like(out))
    np.multiply(out, 4.0, out=out)
    np.add(out, 1.0, out=out)
    np.power(u, 4, out=u, where=u > 0.0)
    np.multiply(u, out, out=out)


def _eval_sinc(spec, s, t, out):
    # np.sinc(s - t): sin(y) / y for y = pi (s - t), with y = 0 read as eps.
    # |s - t| >= 2**52 is an integer, a zero, where pi (s - t) may overflow
    np.subtract(s, t, out=out)
    far = np.abs(out) >= 2.0**52
    np.copyto(out, 0.0, where=far)
    np.multiply(out, np.pi, out=out)
    np.copyto(out, np.finfo(float).eps, where=out == 0.0)
    np.divide(np.sin(out), out, out=out)
    np.copyto(out, 0.0, where=far)


_EVALUATORS = {
    Family.EXPONENTIAL: _eval_exponential,
    Family.BROWNIAN_BRIDGE: _eval_brownian_bridge,
    Family.GAUSSIAN: _eval_gaussian,
    Family.WENDLAND_D3_K1: _eval_wendland_d3_k1,
    Family.SINC: _eval_sinc,
}


# ---------------------------------------------------------------------------
# constructors


def exponential(domain: Interval | None = None) -> KernelSpec:
    """K(s,t) = exp(-|s-t|), all four admissibility conditions proven."""
    return KernelSpec(
        family=Family.EXPONENTIAL,
        domain=domain or _REAL_LINE,
        flags=_ALL_PROVEN,
        bound=1.0,
    )


def brownian_bridge(domain: Interval | None = None) -> KernelSpec:
    """K(s,t) = min(s,t) - s*t on (0,1), all four conditions proven."""
    dom = domain or _UNIT_OPEN
    inside = (
        dom.lo >= 0.0
        and dom.hi <= 1.0
        and (dom.lo > 0.0 or dom.lo_open)
        and (dom.hi < 1.0 or dom.hi_open)
    )
    if not inside:
        raise ValueError(f"Brownian bridge domain must lie strictly inside (0,1); got {dom}")
    return KernelSpec(
        family=Family.BROWNIAN_BRIDGE,
        domain=dom,
        flags=_ALL_PROVEN,
        bound=0.25,
    )


def gaussian(sigma: float = 1.0, domain: Interval | None = None) -> KernelSpec:
    """K(s,t) = exp(-(s-t)^2 / sigma).  A1, A2 by reference (Wendland 2005, ch. 6); fails A4."""
    if not sigma > 0:
        raise ValueError(f"gaussian sigma must be positive, got {sigma}")
    return KernelSpec(
        family=Family.GAUSSIAN,
        domain=domain or _REAL_LINE,
        flags=AdmissibilityFlags(Status.PROVEN, Status.PROVEN, a4=Status.DISPROVEN),
        bound=1.0,
        sigma=float(sigma),
    )


def wendland_d3_k1(domain: Interval | None = None) -> KernelSpec:
    """Compactly supported kernel (1-r)_+^4 (1+4r) with r = |s-t|.

    A1 and A2 by reference (strictly positive definite on R^3, Wendland 2005,
    ch. 9).  Fails the unit Lebesgue bound (A4).  Witness: on x = (0, 0.2) at
    t = -0.159 the cardinal coefficients are (1.1288, -0.4210), so
    L(t) = 1.54975, with rcond 0.151; 50-digit arithmetic agrees.
    """
    return KernelSpec(
        family=Family.WENDLAND_D3_K1,
        domain=domain or _REAL_LINE,
        flags=AdmissibilityFlags(Status.PROVEN, Status.PROVEN, a4=Status.DISPROVEN),
        bound=1.0,
    )


def sinc(domain: Interval | None = None) -> KernelSpec:
    """K(s,t) = sin(pi(s-t)) / (pi(s-t)).

    Included as the documented counterexample: distinct absolutely-summable
    expansions of sinc translates can sum to the same function (condition
    (A3) fails), so this kernel cannot back an l1-norm function space and
    the fitting operations reject it.  A1 holds since c^T K c integrates
    |sum_j c_j exp(i w x_j)|^2 over the box |w| <= pi, A2 since |K| <= 1.
    A4 fails: on x = (0, 1) the Gram is the identity, so at t = 0.5 the
    cardinal coefficients are (2/pi, 2/pi) and L(t) = 4/pi, rcond 1.
    """
    return KernelSpec(
        family=Family.SINC,
        domain=domain or _REAL_LINE,
        flags=AdmissibilityFlags(Status.PROVEN, Status.PROVEN, Status.DISPROVEN, Status.DISPROVEN),
        bound=1.0,
    )


_CONSTRUCTORS = {
    Family.EXPONENTIAL: exponential,
    Family.BROWNIAN_BRIDGE: brownian_bridge,
    Family.GAUSSIAN: gaussian,
    Family.WENDLAND_D3_K1: wendland_d3_k1,
    Family.SINC: sinc,
}


# ---------------------------------------------------------------------------
# closed-form cardinal functions


def closed_form_cardinal(kernel: KernelSpec, points, t: float) -> np.ndarray:
    """Cardinal coefficient vector K[x]^(-1) K_x(t) in closed form.

    Available for the exponential and Brownian bridge kernels, whose
    cardinal functions are piecewise explicit: one active node when t lies
    outside the hull of the points, the two bracketing nodes otherwise, and
    a standard basis vector when t coincides with a node.

    Parameters
    ----------
    kernel : KernelSpec
        Exponential or Brownian bridge spec.
    points : PointSet or array_like
        Pairwise-distinct sample points (any order; the result is returned
        in the same order).
    t : float
        Evaluation point inside the kernel domain.

    Returns
    -------
    numpy.ndarray, shape (n,)
        Coefficients aligned with the input point order.
    """
    if kernel.family not in (Family.EXPONENTIAL, Family.BROWNIAN_BRIDGE):
        raise UnsupportedKernel(
            f"no closed-form cardinal functions for the {kernel.name} kernel"
        )
    x_user = np.asarray(getattr(points, "points", points), dtype=float)
    if x_user.ndim != 1 or x_user.size == 0:
        raise ValueError("points must be a nonempty 1-D sequence")
    kernel._check_domain(x_user, t)
    order = np.argsort(x_user, kind="stable")
    x = x_user[order]
    t = float(t)

    w = np.zeros_like(x)
    exact = np.nonzero(x == t)[0]
    if exact.size:
        w[exact[0]] = 1.0
    elif kernel.family is Family.EXPONENTIAL:
        if t < x[0]:
            w[0] = math.exp(t - x[0])
        elif t > x[-1]:
            w[-1] = math.exp(x[-1] - t)
        else:
            j = int(np.searchsorted(x, t)) - 1
            gap = math.sinh(x[j + 1] - x[j])
            w[j] = math.sinh(x[j + 1] - t) / gap
            w[j + 1] = math.sinh(t - x[j]) / gap
    else:  # Brownian bridge
        if t < x[0]:
            w[0] = t / x[0]
        elif t > x[-1]:
            w[-1] = (1.0 - t) / (1.0 - x[-1])
        else:
            j = int(np.searchsorted(x, t)) - 1
            gap = x[j + 1] - x[j]
            w[j] = (x[j + 1] - t) / gap
            w[j + 1] = (t - x[j]) / gap

    out = np.zeros_like(w)
    out[order] = w
    return out


# ---------------------------------------------------------------------------
# JSON interchange


def kernel_to_json(kernel: KernelSpec) -> dict:
    """Serialize a spec to {"family": ..., "params": {...}, "domain": ...}."""
    params: dict = {}
    if kernel.sigma is not None:
        params["sigma"] = kernel.sigma
    dom = kernel.domain
    obj = {
        "family": kernel.family.value,
        "params": params,
        "domain": [
            None if not math.isfinite(dom.lo) else dom.lo,
            None if not math.isfinite(dom.hi) else dom.hi,
        ],
        "domain_open": [dom.lo_open, dom.hi_open],
    }
    return obj


def kernel_from_json(obj: dict) -> KernelSpec:
    """Build a spec from {"family": ..., "params": {...}} (domain optional)."""
    try:
        family = Family(obj["family"])
    except (KeyError, ValueError):
        known = ", ".join(f.value for f in Family)
        raise ValueError(f"unknown kernel family {obj.get('family')!r}; expected one of: {known}")
    params = dict(obj.get("params") or {})
    domain = None
    if obj.get("domain") is not None:
        lo, hi = obj["domain"]
        lo = -math.inf if lo is None else float(lo)
        hi = math.inf if hi is None else float(hi)
        lo_open, hi_open = obj.get("domain_open", [not math.isfinite(lo), not math.isfinite(hi)])
        domain = Interval(lo, hi, bool(lo_open), bool(hi_open))
    return _CONSTRUCTORS[family](**params, domain=domain)
