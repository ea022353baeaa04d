"""Finite kernel expansions, their norms, and minimal-norm interpolation.

Functions are always finite expansions — every algorithm here produces one
through a representer argument, so no infinite-series machinery is needed.
An expansion carries a side tag:

    LEFT   f = sum_j c_j K(x_j, .)   with norm ||c||_1
    RIGHT  g = sum_j c_j K(., x_j)   with sup norm

Every zoo kernel is exactly symmetric, so both sides evaluate alike and
the tag chooses only the norm.

For kernels whose unit Lebesgue bound (A4) is proven, the sup norm of a
RIGHT expansion collapses to the finite formula || c^T K[x] ||_inf, i.e.
the largest |g| over the expansion's own nodes; for other kernels only a
grid estimate (a lower bound) is offered.

The two spaces are paired by the bilinear form

    < sum_j a_j K(s_j, .), sum_k b_k K(., t_k) > = sum_jk a_j b_k K(s_j, t_k),

which reproduces point evaluations on both sides and satisfies the
Hoelder-type bound |<f, g>| <= ||f|| * ||g||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelMismatch, UnsupportedKernel
from .gram import CoefficientVector, GramSystem, Side
from .kernels import KernelSpec, PointSet, Status, kernel_to_json

__all__ = [
    "ExpansionFunction",
    "expansion",
    "section",
    "min_norm_interpolant_b",
    "min_norm_interpolant_bsharp",
    "bilinear_form",
]


def _reject_broken_l1(kernel: KernelSpec, what: str) -> None:
    if kernel.flags.a3 is Status.DISPROVEN:
        raise UnsupportedKernel(
            f"the {kernel.name} kernel admits distinct summable expansions of the same "
            f"function, so the l1 coefficient norm is not a function norm; {what} is refused"
        )


def _require_unit_lebesgue(kernel: KernelSpec, what: str) -> None:
    if kernel.flags.a4 is not Status.PROVEN:
        raise UnsupportedKernel(
            f"{what} needs the unit Lebesgue bound, which is {kernel.flags.a4.value} for the "
            f"{kernel.name} kernel; grid_sup_norm gives a lower bound of the sup norm"
        )


@dataclass(frozen=True)
class ExpansionFunction:
    """A finite kernel expansion with side-tagged coefficients; points is a
    PointSet, or an array checked as one."""

    kernel: KernelSpec
    points: PointSet
    coefficients: CoefficientVector

    def __post_init__(self):
        if not isinstance(self.points, PointSet):
            object.__setattr__(self, "points", PointSet(self.points))
        if self.coefficients.n != self.points.n:
            raise ValueError(
                f"{self.coefficients.n} coefficients for {self.points.n} points"
            )

    @property
    def side(self) -> Side:
        return self.coefficients.side

    def evaluate(self, t):
        """Pointwise value; vectorizes over an array of evaluation points."""
        c = self.coefficients.values
        x = self.points.points
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return float(c @ self.kernel.eval(x, t_arr))
        return c @ self.kernel.eval(x[:, None], t_arr[None, :])

    def bnorm(self) -> float:
        """||c||_1, the norm of the l1 expansion space (LEFT side only)."""
        if self.side is not Side.LEFT:
            raise ValueError("bnorm applies to LEFT expansions; use bsharp_norm or grid_sup_norm")
        return float(np.abs(self.coefficients.values).sum())

    def bsharp_norm(self) -> float:
        """Sup norm via || c^T K[x] ||_inf (RIGHT side, needs (A4) proven)."""
        if self.side is not Side.RIGHT:
            raise ValueError("bsharp_norm applies to RIGHT expansions; use bnorm")
        _require_unit_lebesgue(self.kernel, "the finite sup-norm formula")
        return self.grid_sup_norm(self.points.points)

    def grid_sup_norm(self, grid) -> float:
        """max |f| over a grid: a lower bound of the true sup norm."""
        grid = np.asarray(grid, dtype=float).reshape(-1)
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        return float(np.abs(self.evaluate(grid)).max())

    def to_json(self) -> dict:
        return {
            "kernel": kernel_to_json(self.kernel),
            "points": self.points.points.tolist(),
            "coefficients": self.coefficients.values.tolist(),
            "side": self.side.value,
        }


def expansion(kernel: KernelSpec, points, values, side: Side) -> ExpansionFunction:
    """Build an expansion from raw points and coefficients."""
    return ExpansionFunction(kernel, points, CoefficientVector(np.asarray(values, float), side))


def section(kernel: KernelSpec, x: float, side: Side) -> ExpansionFunction:
    """The single kernel section K(x, .) (LEFT) or K(., x) (RIGHT)."""
    return expansion(kernel, [float(x)], [1.0], side)


def min_norm_interpolant_b(system: GramSystem, y) -> ExpansionFunction:
    """Interpolant of (x, y) in the span of LEFT sections, by Gram solve.

    When the kernel satisfies the unit Lebesgue bound this is a global
    minimal-norm interpolant over the whole l1 expansion space; otherwise
    it is the unique interpolant in the span and its norm is within a
    factor beta_n of optimal.
    """
    _reject_broken_l1(system.kernel, "minimal-norm interpolation")
    c = system.solve(y)
    return ExpansionFunction(system.kernel, system.points, CoefficientVector(c, Side.LEFT))


def min_norm_interpolant_bsharp(system: GramSystem, y) -> ExpansionFunction:
    """Minimal sup-norm interpolant y^T K[x]^(-1) K_x(.), of norm ||y||_inf.

    Requires (A4) proven: the optimality argument and the finite norm
    formula both rest on it.
    """
    _require_unit_lebesgue(system.kernel, "sup-norm minimal interpolation")
    c = system.solve(y)
    return ExpansionFunction(system.kernel, system.points, CoefficientVector(c, Side.RIGHT))


def bilinear_form(f: ExpansionFunction, g: ExpansionFunction) -> float:
    """Pairing sum_jk a_j b_k K(s_j, t_k) of a LEFT and a RIGHT expansion."""
    if f.side is not Side.LEFT or g.side is not Side.RIGHT:
        raise ValueError("bilinear_form pairs a LEFT expansion with a RIGHT expansion")
    if f.kernel != g.kernel:
        raise KernelMismatch(
            f"cannot pair expansions over different kernels "
            f"({f.kernel.name} vs {g.kernel.name})"
        )
    return float(f.evaluate(g.points.points) @ g.coefficients.values)
