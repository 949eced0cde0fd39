"""Simulating paths of the two-type state equation.

The splitting scheme treats the linear drift exactly (2x2 exponential),
adds a clamped square-root diffusion increment, simulates branching
jumps at exact event times inside each interval, and multiplies both
coordinates by e^{dxi} exactly.  One vectorized engine runs all paths at
once: `simulate_paths` keeps a few full paths on the base grid, and
`scenario_states` records many paths at selected times only.
"""

import math
import os
from dataclasses import replace

import numpy as np

from cbre2 import (
    BranchingSpec,
    first_moment_closed_form,
    load_scenario,
    scenario_states,
    simulate_paths,
)
from cbre2.scenario import ScenarioConfig

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
sc = replace(load_scenario(os.path.join(SCENARIOS, "mixed.json")), n_paths=100_000, step=1e-3)

# a handful of full paths (one batch run; path i is row i of that run)
paths = simulate_paths(sc, 3, rng_seed=2024)
for i, p in enumerate(paths):
    print(
        f"path {i}: X(0) = ({p.states[0, 0]:g}, {p.states[0, 1]:g}) -> X(1) = "
        f"({p.states[-1, 0]:.4f}, {p.states[-1, 1]:.4f}); "
        f"xi(1) = {p.xi[-1]:+.4f}, {len(p.grid)} grid points"
    )

# sanity: with branching off the state is exactly x0 e^{xi(t)}
env_only = ScenarioConfig(
    environment=sc.environment,
    branching=BranchingSpec(),
    x0=(2.0, 1.0),
    horizon=1.0,
    step=0.05,
)
p = simulate_paths(env_only, 1, 5)[0]
err = np.max(np.abs(p.states[:, 0] - 2.0 * np.exp(p.xi)))
print(f"\nenvironment factorization error (branching off): {err:.2e}")

# many paths, states recorded at t = 1 only
times, states = scenario_states(sc, 50_000, sc.seed, record_times=[1.0])
mean = states[0, :, 0, :].mean(axis=0)
se = states[0, :, 0, :].std(axis=0, ddof=1) / math.sqrt(states.shape[1])
target = first_moment_closed_form(sc.environment, sc.branching, sc.x0, 1.0)
print(f"batch mean X(1)  = ({mean[0]:.4f}, {mean[1]:.4f})")
print(f"closed form      = ({target[0]:.4f}, {target[1]:.4f})")
print(f"z-scores         = ({(mean[0]-target[0])/se[0]:+.2f}, {(mean[1]-target[1])/se[1]:+.2f})")
