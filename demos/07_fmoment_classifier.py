"""f-moment finiteness: structural checks and the exact tail classifier.

Whether E f(|X(t)|) is finite reduces to three criteria: the initial
value, the branching tail integral of f(|z|), and the environment tail
integral of f(e^z).  For the curated parametric families the comparison
is symbolic, so answers are exact; the empirical probe below only
illustrates the dichotomy, it proves nothing.
"""

import math
import os
from dataclasses import replace

import numpy as np

from cbre2 import (
    AxisTail,
    BranchingSpec,
    JumpMeasure,
    JumpMeasure1D,
    LevyEnvSpec,
    Tail1D,
    condition_b_check,
    exp_power,
    f_moment_verdict,
    load_scenario,
    power,
    power_log,
    scenario_states,
)

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")

print("structural (Condition-B style) checks:")
for f in (power(2.0), power_log(1.5), exp_power(0.5)):
    res = condition_b_check(f)
    status = "pass" if res.passed else f"fail {res.failures[0][0]}"
    print(f"  {f.describe():24s} -> {status} (K = {res.K:g})")
print("  (no exponential is submultiplicative, so exp-power fails honestly)")
res = condition_b_check(lambda x: math.sqrt(1.0 + x))
print(f"  sqrt(1+x)                -> fail {res.failures[0][0]} (concave)")

pareto25 = BranchingSpec(m2=JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)]))
env_exp = LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("exponential", 0.4, 2.0, 1.0)]))

print("\nverdicts (x0 = (1,1)):")
cases = [
    ("(1+x)^2 vs Pareto(2.5) branching tail", LevyEnvSpec(), pareto25, power(2.0)),
    ("(1+x)^3 vs Pareto(2.5) branching tail", LevyEnvSpec(), pareto25, power(3.0)),
    ("(1+x)^2.5 vs Pareto(2.5)  [boundary]", LevyEnvSpec(), pareto25, power(2.5)),
    ("(1+x)^1.5 vs exp(2) environment tail", env_exp, BranchingSpec(), power(1.5)),
    ("(1+x)^3 vs exp(2) environment tail", env_exp, BranchingSpec(), power(3.0)),
    ("exp(0.5 x) vs atoms only", LevyEnvSpec(), BranchingSpec(), exp_power(0.5)),
]
for label, env, spec, f in cases:
    v = f_moment_verdict(env, spec, (1.0, 1.0), f)
    print(f"  {label:42s} -> {v.verdict:8s} {v.criteria}")

print("\nempirical corroboration (reported, never asserted):")
sc = replace(load_scenario(os.path.join(SCENARIOS, "pareto.json")), n_paths=0)
_, states = scenario_states(sc, 32000, 11, record_times=[sc.horizon])
norms = np.hypot(states[0, :, 0, 0], states[0, :, 0, 1])
for p, tag in ((2.0, "Finite"), (3.0, "Infinite")):
    fx = power(p)(norms)
    means = ", ".join(f"{n}: {float(np.mean(fx[:n])):.1f}" for n in (500, 2000, 8000, 32000))
    print(f"  running mean of (1+|X(1)|)^{p:g} [{tag} verdict]: {means}")
