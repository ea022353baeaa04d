"""Kernel zoo: evaluation, domains, sample points and admissibility metadata.

Every kernel is described by an immutable :class:`KernelSpec` (family +
parameters + domain).  Evaluation is exact up to floating point and
vectorizes over numpy arrays.  Each family carries static flags recording,
for each of the four admissibility conditions

    (A1) every Gram matrix on pairwise-distinct points is nonsingular,
    (A2) |K(s,t)| <= M for a known bound M,
    (A3) no nontrivial absolutely-summable expansion sums to zero,
    (A4) cardinal coefficient vectors have l1 norm at most 1,

whether it is proven or disproven for that family on its domain.  The two
kernels with all four flags proven (exponential and Brownian bridge) also
expose closed-form cardinal functions, used as oracles against the numeric
linear-algebra path.  A sample is a :class:`PointSet`, the one place that
checks sample points and orders them.

A4 holds for both because they are Gauss-Markov covariances (Mehr & McFadden
1965), K(s, t) = p(min(s, t)) q(max(s, t)) with p, q > 0 and r = p/q
increasing: p = e^s, q = e^-s for the exponential kernel, p = s, q = 1 - s
for the Brownian bridge.  Let W(u, v) = p(v) q(u) - p(u) q(v)
= q(u) q(v) (r(v) - r(u)), positive for u < v.  On sorted nodes x, a node
x_i <= x_j has K(x_i, .) = p(x_i) q(.) on [x_j, inf) and a node x_i >= x_{j+1}
has K(x_i, .) = p(.) q(x_i) on (-inf, x_{j+1}] (the Markov property), so for
x_j <= t < x_{j+1} the vector on those two nodes with
w_j q(x_j) + w_{j+1} q(x_{j+1}) = q(t) and w_j p(x_j) + w_{j+1} p(x_{j+1}) = p(t)
solves K[x] w = K_x(t):

    w_j = W(t, x_{j+1}) / W(x_j, x_{j+1}),  w_{j+1} = W(x_j, t) / W(x_j, x_{j+1}),

both >= 0.  Likewise w = (p(t)/p(x_1)) e_1 for t <= x_1 and
w = (q(t)/q(x_n)) e_n for t >= x_n.  Between nodes, with
a = (r(t) - r(x_j)) / (r(x_{j+1}) - r(x_j)),
w_j + w_{j+1} = q(t) ((1 - a) / q(x_j) + a / q(x_{j+1})): q(t) times the
chord, in r, of 1/q.  So L <= 1 on every point set exactly when p is
nondecreasing, q is nonincreasing and 1/q is concave in r.  For the
exponential kernel 1/q = sqrt(r); for the Brownian bridge 1/q = 1 + r, and
L = 1 between nodes.  closed_form_cardinal evaluates these weights from the
table _MARKOV.

A3 holds on R for K(s, t) = phi(s - t), phi in L1(R), whose transform has no
zero: if f = sum_j c_j phi(. - x_j) = 0 on R (c in l1, x_j distinct), then
f-hat = phi-hat h with h(w) = sum_j c_j exp(-i w x_j) = 0, and the Bohr mean
lim_T (1/2T) int_{-T}^{T} h(w) exp(i w x_k) dw = c_k gives c = 0.  Sinc's
transform is a box, zero for |w| > pi, and its A3 fails.

A3 holds on every domain X, an interval with a nonempty interior, for the
exponential, Brownian bridge and wendland_d3_k1 kernels, by their
derivatives as distributions.  Let f = sum_j c_j K(x_j, .), c in l1 and the
x_j distinct in X, vanish on X, and let mu = sum_j c_j delta_{x_j}, a finite
atomic measure with mass c_j at x_j.  The sum converges uniformly, so it may
be differentiated term by term:

    exponential:      f'' = f - 2 mu,
    Brownian bridge:  f'' = -mu, on (0, 1), which holds X,
    wendland_d3_k1:   f^(4) = 240 mu + G.

For the last, phi(u) = 1 - 10u^2 + 20|u|^3 - 15u^4 + 4|u|^5 on |u| <= 1 is
C^3 at |u| = 1, and phi^(4) = 240 delta_0 + g with g = 480|u| - 360 inside
and 0 outside, so G = sum_j c_j g(. - x_j) is bounded by 360 ||c||_1.  On
the interior of X, f = 0 leaves mu = 0 in the first two cases, and in the
third 240 mu = -G, an atomic measure equal to a bounded function, so mu = 0
there as well.  Every c_j with x_j interior is then 0.  At most the two
endpoints a < b of X remain, and evaluating f there gives
K[(a, b)] (c_a, c_b) = 0 with K[(a, b)] nonsingular (A1; for
wendland_d3_k1, phi(b - a) < 1), so c = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DuplicatePoints, UnsupportedKernel

__all__ = [
    "Family",
    "Status",
    "AdmissibilityFlags",
    "Interval",
    "PointSet",
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


@dataclass(frozen=True)
class AdmissibilityFlags:
    a1: Status
    a2: Status
    a3: Status
    a4: Status


_ALL_PROVEN = AdmissibilityFlags(Status.PROVEN, Status.PROVEN, Status.PROVEN, Status.PROVEN)
_A4_DISPROVEN = AdmissibilityFlags(Status.PROVEN, Status.PROVEN, Status.PROVEN, Status.DISPROVEN)


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


class PointSet:
    """Pairwise-distinct real sample points spanning a finite length, kept in
    user order; order is the stable argsort that sorts them, so
    points[order] is the sorted sample.  Both arrays are read-only."""

    __slots__ = ("points", "order", "min_spacing")

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True).reshape(-1)
        if pts.size == 0:
            raise ValueError("a point set needs at least one point")
        order = np.argsort(pts, kind="stable")
        ordered = pts[order]
        if not np.isfinite(float(ordered[-1]) - float(ordered[0])):
            raise ValueError("points must be finite and span a finite length")
        spacing = np.diff(ordered)
        if pts.size > 1 and not np.all(spacing > 0.0):
            raise DuplicatePoints("point set contains coincident points")
        pts.flags.writeable = False
        order.flags.writeable = False
        self.points = pts
        self.order = order
        self.min_spacing = float(spacing.min()) if pts.size > 1 else np.inf

    @property
    def n(self) -> int:
        return self.points.size

    def __repr__(self) -> str:
        return f"PointSet({self.points.tolist()!r})"


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
        # a far pair's difference or square overflows to inf, where K is 0
        with np.errstate(over="ignore"):
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
    # exp(-(s - t)^2 / sigma)
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
    """K(s,t) = exp(-|s-t|), all four admissibility conditions proven; A3 and
    A4 by the module docstring's distributional and Markov arguments, with
    p = e^s and q = e^-s."""
    return KernelSpec(
        family=Family.EXPONENTIAL,
        domain=domain or _REAL_LINE,
        flags=_ALL_PROVEN,
        bound=1.0,
    )


def brownian_bridge(domain: Interval | None = None) -> KernelSpec:
    """K(s,t) = min(s,t) - s*t on (0,1), all four conditions proven; A3 and A4
    by the module docstring's distributional and Markov arguments, with p = s
    and q = 1 - s."""
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
    """K(s,t) = exp(-(s-t)^2 / sigma), 0 < sigma < inf.  A1, A2 by reference
    (Wendland 2005, ch. 6); fails A4.  A3 on every domain by the module
    docstring's transform argument: phi-hat is a Gaussian, and an l1 expansion
    is entire, so vanishing on an interval forces vanishing on R."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"gaussian sigma must be positive and finite, got {sigma}")
    return KernelSpec(
        family=Family.GAUSSIAN,
        domain=domain or _REAL_LINE,
        flags=_A4_DISPROVEN,
        bound=1.0,
        sigma=float(sigma),
    )


def wendland_d3_k1(domain: Interval | None = None) -> KernelSpec:
    """Compactly supported kernel (1-r)_+^4 (1+4r) with r = |s-t|.

    A1 and A2 by reference (strictly positive definite on R^3, Wendland 2005,
    ch. 9).  A3 on every domain by the module docstring's distributional
    argument: phi^(4) is 240 delta_0 plus a bounded function.  Fails the unit
    Lebesgue bound (A4).  Witness: on x = (0, 0.2) at t = -0.159 the cardinal
    coefficients are (1.1288, -0.4210), so L(t) = 1.54975, with rcond 0.151;
    50-digit arithmetic agrees.
    """
    return KernelSpec(
        family=Family.WENDLAND_D3_K1,
        domain=domain or _REAL_LINE,
        flags=_A4_DISPROVEN,
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


_SINH_TOP = math.asinh(np.finfo(float).max)  # the largest d with a finite sinh(d)


def _sinh(d: float) -> tuple[float, float]:
    """sinh(d) as (m, s), m e^s; past _SINH_TOP, e^-2d is below round-off and
    sinh(d) = sinh(_SINH_TOP) e^(d - _SINH_TOP)."""
    if d <= _SINH_TOP:
        return math.sinh(d), 0.0
    return math.sinh(_SINH_TOP), d - _SINH_TOP


# For each Markov kernel of the module docstring, in forms exact for it and
# with u <= v: p(u)/p(v), q(v)/q(u), and W(u, v) up to a positive factor as a
# pair (m, s) meaning m e^s, so that no gap overflows.  A family has a row
# exactly when its A4 flag is PROVEN.
_MARKOV = {
    Family.EXPONENTIAL: (
        lambda u, v: math.exp(u - v),
        lambda u, v: math.exp(u - v),
        lambda u, v: _sinh(v - u),
    ),
    Family.BROWNIAN_BRIDGE: (
        lambda u, v: u / v,
        lambda u, v: (1.0 - v) / (1.0 - u),
        lambda u, v: (v - u, 0.0),
    ),
}


def _markov_cardinal(row, x: np.ndarray, t: float) -> np.ndarray:
    """The module docstring's cardinal vector at t on sorted, distinct x, from
    a row (p(u)/p(v), q(v)/q(u), W(u, v) as (m, s)) like those of _MARKOV."""
    p_ratio, q_ratio, casoratian = row
    w = np.zeros_like(x)
    if t <= x[0]:
        w[0] = p_ratio(t, x[0])
    elif t >= x[-1]:
        w[-1] = q_ratio(x[-1], t)
    else:
        j = int(np.searchsorted(x, t, side="right")) - 1
        m, s = casoratian(x[j], x[j + 1])
        for i, (u, v) in ((j, (t, x[j + 1])), (j + 1, (x[j], t))):
            m_i, s_i = casoratian(u, v)
            w[i] = m_i / m * math.exp(s_i - s)
    return w


def closed_form_cardinal(kernel: KernelSpec, points, t: float) -> np.ndarray:
    """Cardinal coefficient vector K[x]^(-1) K_x(t) in closed form.

    Available for the exponential and Brownian bridge kernels, from the one
    Markov formula that the module docstring derives: one active node when t
    lies outside the hull of the points, the two bracketing nodes otherwise,
    and a standard basis vector when t coincides with a node.

    Parameters
    ----------
    kernel : KernelSpec
        Exponential or Brownian bridge spec; any other family raises
        UnsupportedKernel.
    points : PointSet or array_like
        Sample points in any order; an array is checked as PointSet checks
        it, so coincident points raise DuplicatePoints and other bad points
        ValueError.
    t : float
        Evaluation point inside the kernel domain.

    Returns
    -------
    numpy.ndarray, shape (n,)
        Coefficients aligned with the input point order.
    """
    row = _MARKOV.get(kernel.family)
    if row is None:
        raise UnsupportedKernel(
            f"no closed-form cardinal functions for the {kernel.name} kernel"
        )
    if not isinstance(points, PointSet):
        points = PointSet(points)
    kernel._check_domain(points.points, t)
    out = np.zeros(points.n)
    out[points.order] = _markov_cardinal(row, points.points[points.order], float(t))
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
