"""Tour of the kernel zoo: evaluation, bounds, and admissibility metadata.

Each kernel family carries static flags recording, for each of the four
admissibility conditions (nonsingular Grams, boundedness, l1-injectivity,
unit Lebesgue bound), whether it is proven or disproven.  Only the
exponential and Brownian bridge kernels carry all four; the Gaussian, the
Wendland kernel and sinc have nonsingular Grams and bounded values but
break the Lebesgue bound.  l1-injectivity holds on every domain for all but
sinc: for the Gaussian from a Fourier transform with no zero (its sums are
entire), for the other three because a derivative of the kernel is an atom
at 0 plus a bounded function.  Sinc, whose transform is a box, is the
canonical counterexample.  The table says where each flag comes from.
"""

import json

import numpy as np

from l1kernels import (
    Interval,
    brownian_bridge,
    build_system,
    exponential,
    gaussian,
    kernel_from_json,
    kernel_to_json,
    lebesgue_function,
    sinc,
    wendland_d3_k1,
)

PAPER = "[1] Song, Zhang & Hickernell, arXiv 1101.4388"
BOOK = "[2] Wendland, Scattered Data Approximation (2005), ch. 6 and 9"
zoo = [
    (exponential(), "proof [1]; A3: K'' = K - 2 delta; closed-form cardinal functions"),
    (brownian_bridge(), "proof [1]; A3: K'' = -delta; closed-form cardinal functions"),
    (gaussian(sigma=1.0), "A1, A2: reference [2]; A3: transform > 0, sums entire; A4: reference [1]"),
    (wendland_d3_k1(), "A1, A2: reference [2]; A3: phi^(4) = 240 delta + bounded; A4: witness x = (0, 0.2), t = -0.159"),
    (wendland_d3_k1(Interval(-1.0, 1.0)), "A3: the same argument holds on any domain"),
    (sinc(), "A1, A2: box transform; A3: box transform, reference [1]; A4: witness x = (0, 1), t = 0.5"),
]

print(f"{'family':16s} {'domain':14s} {'|K|<=':6s} {'a1/a2/a3/a4':12s} source")
for k, source in zoo:
    flags = "/".join(getattr(k.flags, a).value[0] for a in ("a1", "a2", "a3", "a4"))
    print(f"{k.name:16s} {str(k.domain):14s} {k.bound:<6g} {flags:12s} {source}")
print(f"(p=proven, d=disproven)  {PAPER}; {BOOK}")

witness = build_system(wendland_d3_k1(), [0.0, 0.2])
print(f"\nWendland witness: L(-0.159) = {lebesgue_function(witness, -0.159):.5f} > 1 "
      f"(rcond {witness.rcond_estimate:.3f})")
witness = build_system(sinc(), [0.0, 1.0])
print(f"sinc witness:     L(0.5) = {lebesgue_function(witness, 0.5):.7f} = 4/pi > 1 "
      f"(rcond {witness.rcond_estimate:.3f})")

print("\nPointwise values:")
print("  exponential(0.3, 1.1)     =", exponential().eval(0.3, 1.1))
print("  brownian_bridge(0.25,0.5) =", brownian_bridge().eval(0.25, 0.5))
print("  gaussian(0, 0.5)          =", gaussian(1.0).eval(0.0, 0.5))
print("  wendland_d3_k1(0, 0.5)    =", wendland_d3_k1().eval(0.0, 0.5))

print("\nEvaluation broadcasts over arrays:")
s = np.linspace(-1, 1, 5)
print("  exponential(s, 0) =", exponential().eval(s, 0.0))

print("\nSymmetry is exact in floating point:")
rng = np.random.default_rng(0)
a, b = rng.uniform(-2, 2, 1000), rng.uniform(-2, 2, 1000)
print("  max |K(s,t) - K(t,s)| over 1000 pairs:", np.abs(
    exponential().eval(a, b) - exponential().eval(b, a)).max())

print("\nJSON interchange (used by the CLI):")
blob = json.dumps(kernel_to_json(gaussian(sigma=0.5)))
print("  serialized:", blob)
print("  round trip ok:", kernel_from_json(json.loads(blob)) == gaussian(sigma=0.5))
