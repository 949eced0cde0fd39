"""The random environment: integer exponential moments and path sampling.

The environment is an additive Levy process xi (drift a, Gaussian
coefficient sigma1, finite-activity jump measure nu); the population is
multiplied by e^{xi}.  Its integer moments are governed by the exponent
beta(n): E e^{n xi(t)} = e^{beta(n) t}.
"""

import math

import numpy as np

from cbre2 import (
    Atom1D,
    JumpMeasure1D,
    LevyEnvSpec,
    Tail1D,
    levy_exponent,
    sample_env_path,
    sample_xi_terminal,
)
from cbre2.errors import DivergentExponent

spec = LevyEnvSpec(
    a=0.1,
    sigma1=0.5,
    nu=JumpMeasure1D(atoms=[Atom1D(0.5, 0.4), Atom1D(0.2, -0.8)]),
)

print("exponent beta(n) for n = 0..4:")
for n in range(5):
    print(f"  beta({n}) = {levy_exponent(spec, n):+.6f}")

# Monte Carlo check of the defining identity at t = 1
rng = np.random.default_rng(42)
xi = sample_xi_terminal(spec, 1.0, 200_000, rng)
for n in (1, 2):
    est = np.exp(n * xi).mean()
    se = np.exp(n * xi).std(ddof=1) / math.sqrt(len(xi))
    target = math.exp(levy_exponent(spec, n))
    print(f"mean e^({n} xi(1)) = {est:.5f} vs e^beta({n}) = {target:.5f}  (z = {(est-target)/se:+.2f})")

# One path on the base grid: the jumps of an interval are summed into its
# increment, so partial sums of the increments give xi exactly at grid points.
path = sample_env_path(spec, 2.0, 0.25, np.random.default_rng(7))
print(f"\npath grid has {len(path.grid)} points")
print("xi(2.0) =", path.xi_values()[-1])

# Truncation: positive jumps above the clip level are removed entirely.
# The spec stays untruncated; the clip is an argument (in a scenario, the
# truncation block's env_rule).
print("beta(2) truncated at 1.2:", levy_exponent(spec, 2, clip=1.2))

# A heavy environment tail makes exponential moments diverge; the
# exponent reports that as an error rather than a number.
heavy = LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("exponential", 0.4, 1.5, 1.0)]))
try:
    levy_exponent(heavy, 2)
except DivergentExponent as e:
    print("heavy tail at n=2:", e)
print("same tail, truncated at 3.0:", levy_exponent(heavy, 2, clip=3.0))
