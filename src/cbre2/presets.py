"""Bundled reference scenarios used by the demos, tests and CLI configs.

Each scenario is defined once, by its JSON file in `SCENARIO_DIR`; the
functions here load it and override the path count and step.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .env import LevyEnvSpec
from .measures import Atom1D, JumpMeasure1D
from .scenario import ScenarioConfig, load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def env_drift_spec() -> LevyEnvSpec:
    return LevyEnvSpec(a=0.4)


def env_brownian_spec() -> LevyEnvSpec:
    return LevyEnvSpec(a=-0.3, sigma1=1.0)


def env_brownian_atom_spec() -> LevyEnvSpec:
    return LevyEnvSpec(a=0.1, sigma1=0.5, nu=JumpMeasure1D(atoms=[Atom1D(0.5, 0.4)]))


def _bundled(name: str, n_paths: int, step: float) -> ScenarioConfig:
    """The scenario in `<name>.json`, with its path count and step replaced."""
    sc = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))
    return replace(sc, n_paths=n_paths, step=step)


def mixed_scenario(n_paths: int = 100_000, step: float = 1e-3) -> ScenarioConfig:
    """Environment and branching both active; all moments finite (atoms only)."""
    return _bundled("mixed", n_paths, step)


def env_only_scenario(n_paths: int = 50_000, step: float = 1e-3) -> ScenarioConfig:
    return _bundled("env_only", n_paths, step)


def branching_only_scenario(n_paths: int = 50_000, step: float = 1e-3) -> ScenarioConfig:
    return _bundled("branching_only", n_paths, step)


def feller_scenario(n_paths: int = 20_000, step: float = 1e-3) -> ScenarioConfig:
    """Single-type square-root diffusion: the classical analytic test case."""
    return _bundled("feller", n_paths, step)


def coupling_scenario(n_paths: int = 10_000, step: float = 0.01) -> ScenarioConfig:
    """Pure-jump two-type scenario for exact monotone-coupling checks.

    The jumps with norm in the (2, 5] band carry zero mass on their
    compensated coordinate, so truncation at 2 vs 5 leaves the drift
    correction untouched and the coupled ordering is exact pathwise.
    """
    return _bundled("coupling", n_paths, step)


def pareto_scenario(n_paths: int = 10_000, step: float = 2e-3) -> ScenarioConfig:
    """Heavy-tailed cross jumps (Pareto index 2.5) for truncation convergence."""
    return _bundled("pareto", n_paths, step)


def verify_scenario(n_paths: int = 20_000, step: float = 2e-3) -> ScenarioConfig:
    """Default target of the `verify` subcommand: every report is nontrivial."""
    return _bundled("verify", n_paths, step)


def laplace_scenario(n_paths: int = 10_000, step: float = 2e-3) -> ScenarioConfig:
    """Moderate mixed scenario for the quenched/annealed transform identity."""
    return _bundled("laplace", n_paths, step)
