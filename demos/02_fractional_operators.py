"""The fractional kernel engine: Riemann-Liouville integrals and Weyl derivatives.

Power laws have closed-form fractional derivatives, which makes them the
canonical accuracy probe; the inversion check D^a(I^a f) = f exercises the
two operators against each other.
"""

import math
from math import gamma

import numpy as np

from nlyoung import frac_integral_left, weyl_left
from nlyoung.quadrature import QuadratureConfig

cfg = QuadratureConfig()

print("fractional integral of 1 on [0,1], order 1/2:",
      frac_integral_left(lambda s: np.ones_like(s), 0.5, 0.0, 1.0, cfg).value,
      " (exact 2/sqrt(pi) =", 2.0 / math.sqrt(math.pi), ")")

print("\nWeyl derivative of t^mu at t=1: value vs Gamma(mu+1)/Gamma(mu+1-alpha)")
print(f"{'mu':>5s} {'alpha':>6s} {'computed':>14s} {'exact':>14s} {'rel err':>10s}")
for mu in (0.3, 0.5, 0.9, 1.0):
    for alpha in (0.2, 0.4, 0.6):
        if mu <= alpha:
            continue
        f = (lambda m: (lambda s: np.asarray(s, dtype=float) ** m))(mu)
        val = weyl_left(f, alpha, 0.0, 1.0, mu, cfg).value
        exact = gamma(mu + 1.0) / gamma(mu + 1.0 - alpha)
        print(f"{mu:5.1f} {alpha:6.1f} {val:14.9f} {exact:14.9f} {abs(val/exact-1):10.1e}")

# derivative after integral returns the original function
inner = QuadratureConfig(n_nodes=512)
outer = QuadratureConfig(n_nodes=1024)


def int_half_cos(s):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return np.array(
        [frac_integral_left(np.cos, 0.5, 0.0, float(v), inner).value if v > 0 else 0.0
         for v in s]
    )


recovered = weyl_left(int_half_cos, 0.5, 0.0, 1.0, holder_mu=1.0, cfg=outer).value
print(f"\nD^0.5 I^0.5 cos at t=1: {recovered:.8f} vs cos(1) = {math.cos(1.0):.8f}")
