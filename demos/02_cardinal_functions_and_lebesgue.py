"""Cardinal coefficients two ways, and the Lebesgue function they define.

The cardinal coefficient vector K[x]^(-1) K_x(t) holds the interpolation
weights of the kernel basis at an evaluation point t.  For the exponential
and Brownian bridge kernels these weights have closed forms — at most two
nonzero entries, supported on the nodes bracketing t — and the numeric
Gram solve must reproduce them to near machine precision.  Both kernels are
Gauss-Markov, K(s, t) = p(min(s, t)) q(max(s, t)), and one Markov formula
(derived in the `l1kernels.kernels` docstring) gives both closed forms.

The l1 norm of that vector is the Lebesgue function L(t).  For these two
kernels L never exceeds 1, which is exactly what makes l1-regularized
learning on them behave: adding sample points can only increase the
minimal coefficient norm of an interpolant.
"""

import numpy as np

from l1kernels import (
    Interval,
    brownian_bridge,
    build_system,
    closed_form_cardinal,
    exponential,
    lebesgue_constant,
    lebesgue_function,
    profile_grid,
)

x = np.array([-1.5, -0.2, 0.4, 1.1, 2.0])
system = build_system(exponential(), x)

print("Exponential kernel, nodes:", x.tolist())
for t in (-2.3, 0.1, 0.4, 3.7):
    closed = closed_form_cardinal(exponential(), x, t)
    numeric = system.cardinal_coefficients(t)
    print(f"  t={t:+.2f}  closed={np.round(closed, 6).tolist()}")
    print(f"          numeric gap={np.abs(closed - numeric).max():.2e}"
          f"  L(t)={lebesgue_function(system, t):.6f}")

print("\nAt a node the weights collapse to a standard basis vector:")
print("  t=x_2:", closed_form_cardinal(exponential(), x, x[2]).tolist())

print("\nGrid supremum of L over [-3, 3] (2001 points + node midpoints):")
window = Interval(-3.0, 3.0, lo_open=False, hi_open=False)
profile = lebesgue_constant(system, profile_grid(window, 2001, x))
print(f"  max L = {profile.max_value:.12f} at t = {profile.argmax:+.4f}  (unit bound holds)")

bb = build_system(brownian_bridge(), [0.2, 0.45, 0.8])
bb_profile = lebesgue_constant(bb, profile_grid(bb.kernel.domain, 2001, bb.points))
print(f"\nBrownian bridge on (0,1): max L = {bb_profile.max_value:.12f} (unit bound holds)")
