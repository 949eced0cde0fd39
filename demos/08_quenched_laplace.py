"""The quenched Laplace functional and its annealed Monte Carlo identity.

Conditionally on an environment path, the Laplace transform of X(t) is
exp(-<x0, v_{0,t}>), where v solves a backward integral equation along
the path.  Averaging over environments must agree with a direct Monte
Carlo average of exp(-<lam, X(t)>) over simulated paths.
"""

import math
import os

import numpy as np

from cbre2 import (
    BranchingSpec,
    LevyEnvSpec,
    annealed_laplace_mc,
    load_scenario,
    quenched_laplace,
    sample_env_path,
    scenario_states,
)
from cbre2._util import fsum_mean_se

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")

# deterministic environment, single-type square-root branching: the
# transform has the classical closed form lam / (1 + c1 lam t)
c1, lam1, t = 1.0, 1.0, 1.0
flat = sample_env_path(LevyEnvSpec(), t, 1e-4, np.random.default_rng(0))
ql = quenched_laplace(flat, BranchingSpec(c1=c1), (lam1, 0.0), t)
closed = lam1 / (1.0 + c1 * lam1 * t)
print(f"square-root diffusion: v0 = {ql.v0[0]:.10f}, closed form {closed:.10f}, gap {abs(ql.v0[0]-closed):.2e}")

# one random environment: the whole backward trajectory is available
sc = load_scenario(os.path.join(SCENARIOS, "laplace.json"))
path = sample_env_path(sc.environment, sc.laplace_t, sc.step, np.random.default_rng(1))
ql = quenched_laplace(path, sc.branching, sc.laplace_lambda, sc.laplace_t)
print(f"random environment: v_(0,{sc.laplace_t}) = ({ql.v0[0]:.6f}, {ql.v0[1]:.6f}) from lam = {sc.laplace_lambda}")

# annealed identity at 10^4 paths on each side
ann, ann_se, _ = annealed_laplace_mc(
    sc.environment, sc.branching, sc.x0, sc.laplace_lambda, sc.laplace_t,
    10_000, sc.step, seed=2,
)
_, states = scenario_states(sc, 10_000, 3, record_times=[sc.laplace_t])
lam = sc.laplace_lambda
direct, dir_se = fsum_mean_se(np.exp(-(states[0, :, 0, 0] * lam[0] + states[0, :, 0, 1] * lam[1])))
z = (ann - direct) / math.hypot(ann_se, dir_se)
print(f"annealed transform: {ann:.5f} (se {ann_se:.5f})")
print(f"direct MC:          {direct:.5f} (se {dir_se:.5f})   z = {z:+.2f}")
