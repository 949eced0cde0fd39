import math
from dataclasses import replace

import numpy as np
import pytest

from cbre2 import simulate
from cbre2.branching import BranchingSpec
from cbre2.cli import main
from cbre2.env import LevyEnvSpec, sample_env_path
from cbre2.errors import ConfigError, MassOverflow
from cbre2.measures import Atom1D, JumpMeasure1D
from cbre2.moments import first_moment_closed_form
from cbre2.scenario import ScenarioConfig, dump_scenario
from cbre2.simulate import (
    scenario_states,
    scenario_stream,
    simulate_states,
    simulate_paths,
)
from cbre2.truncation import IDENTITY, BranchingRule, TruncationPredicate, norm_cap, unit_square
from tests.conftest import bundled_scenario


def _plain_scenario(env, branching, x0, horizon, step, **kw):
    return ScenarioConfig(
        environment=env, branching=branching, x0=x0, horizon=horizon, step=step, **kw
    )


def test_linear_ode_limit():
    """All noise off: the exact drift flow reproduces the linear ODE."""
    sc = _plain_scenario(LevyEnvSpec(), BranchingSpec(b11=1.0, b22=1.0), (2.0, 3.0), 1.0, 1e-3)
    _, states = scenario_states(sc, 1, 0, record_times=[1.0])
    expected = np.array([2.0, 3.0]) * math.exp(-1.0)
    assert np.max(np.abs(states[0, 0, 0] - expected) / expected) < 1e-3


def test_drift_flow_of_every_distinct_step():
    """All noise off: each recorded state is exp(-b^T t) x0, also after the steps a record time adds."""
    from scipy.linalg import expm

    bspec = BranchingSpec(b11=0.7, b12=-0.3, b21=-0.2, b22=1.1)
    x0 = np.array([2.0, 3.0])
    # step 0.3 does not divide the horizon: the base grid ends with a step of 0.1
    for step, record in ((0.01, [0.3337, 1.0]), (0.3, [1.0])):
        sc = _plain_scenario(LevyEnvSpec(), bspec, tuple(x0), 1.0, step)
        times, states = scenario_states(sc, 2, 0, record_times=record)
        assert times.tolist() == record
        for r, t in enumerate(times):
            expected = expm(-bspec.b.T * t) @ x0
            assert np.max(np.abs(states[0, :, r] - expected)) < 1e-12
    path = sample_env_path(LevyEnvSpec(a=0.2), 1.0, 0.3, np.random.default_rng(0))
    assert path.grid[-1] == 1.0
    assert path.xi_increments[-1] == pytest.approx(0.2 * 0.1, rel=1e-12)


def test_environment_factorization_exact():
    """Branching off: X(t) = x0 e^{xi(t)} exactly at grid points."""
    env = LevyEnvSpec(
        a=0.2, sigma1=0.7, nu=JumpMeasure1D(atoms=[Atom1D(1.5, 0.5), Atom1D(0.5, -1.3)])
    )
    sc = _plain_scenario(env, BranchingSpec(), (1.5, 0.5), 1.0, 0.05)
    for path in simulate_paths(sc, 4, 7):
        xi = path.xi
        assert np.allclose(path.states[:, 0], 1.5 * np.exp(xi), rtol=1e-12, atol=0)
        assert np.allclose(path.states[:, 1], 0.5 * np.exp(xi), rtol=1e-12, atol=0)
        assert np.allclose(np.log(path.states[:, 0] / 1.5), xi, rtol=0, atol=1e-12)


def test_nonnegativity_and_zero_absorbing():
    sc = bundled_scenario("mixed", 0, 1e-3)
    paths = simulate_paths(sc, 30, 12)
    for p in paths:
        assert (p.states >= 0).all()
    # zero start is absorbing: no drift, no diffusion, no jumps fire
    sz = _plain_scenario(sc.environment, sc.branching, (0.0, 0.0), 1.0, 0.05)
    for p in simulate_paths(sz, 3, 5):
        assert (p.states == 0.0).all()


def test_batch_engine_nonnegativity():
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    _, states = scenario_states(sc, 2000, 3, record_times=[0.25, 0.5, 1.0])
    assert states.min() >= 0.0


def test_mean_against_closed_form_batch():
    sc = bundled_scenario("mixed", 0, 1e-3)
    target = first_moment_closed_form(sc.environment, sc.branching, sc.x0, 1.0)
    _, states = scenario_states(sc, 40_000, 91, record_times=[1.0])
    x = states[0, :, 0, :]
    for i in (0, 1):
        se = x[:, i].std(ddof=1) / math.sqrt(len(x))
        assert abs(x[:, i].mean() - target[i]) <= 3 * se + 2 * sc.step * target[i]


def test_exact_engine_consistent_with_closed_form():
    sc = bundled_scenario("mixed", 0, 5e-3)
    target = first_moment_closed_form(sc.environment, sc.branching, sc.x0, 0.5)
    paths = simulate_paths(
        _plain_scenario(sc.environment, sc.branching, sc.x0, 0.5, 5e-3), 1500, 77
    )
    finals = np.array([p.states[-1] for p in paths])
    for i in (0, 1):
        se = finals[:, i].std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals[:, i].mean() - target[i]) <= 4 * se + 2 * 5e-3 * target[i]


def test_identical_predicates_bitwise_equal():
    sc = bundled_scenario("coupling", 10_000, 0.01)
    preds = (norm_cap(2.0), norm_cap(2.0))
    _, (a, b) = scenario_states(sc, 6, 3, predicates=preds, record_times=None)
    assert (a == b).all()
    for _, _, (xi_a, xi_b) in scenario_stream(sc, 6, 3, predicates=preds):
        assert (xi_a == xi_b).all()


def test_pure_jump_coupling_ordered_pathwise():
    sc = bundled_scenario("coupling", 10_000, 0.01)
    preds = (norm_cap(2.0), norm_cap(5.0))
    _, (a, b) = scenario_states(sc, 40, 11, predicates=preds, record_times=None)
    assert (a <= b + 1e-12).all()
    strict = int((b > a).any(axis=(1, 2)).sum())
    assert strict > 0  # the band jumps actually fire


def test_coupled_batch_ordering_full_grid():
    sc = bundled_scenario("coupling", 10_000, 0.01)
    _, states = scenario_states(
        sc, 2000, sc.seed, predicates=(norm_cap(2.0), norm_cap(5.0))
    )
    assert (states[0] <= states[1] + 1e-12).all()


def test_env_clip_coupling_ordered():
    sc = bundled_scenario("coupling", 10_000, 0.01)
    pa = TruncationPredicate(env_clip=1.2)
    pb = TruncationPredicate(env_clip=2.0)
    _, states = scenario_states(sc, 1500, 4, predicates=(pa, pb))
    assert (states[0] <= states[1] + 1e-12).all()


def test_mass_overflow_fail_fast(monkeypatch):
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    monkeypatch.setattr(simulate, "DEFAULT_EVENTS_CAP", 1.0)  # ~2 events/path expected
    with pytest.raises(MassOverflow):
        simulate_paths(sc, 20, 0)
    with pytest.raises(MassOverflow):
        scenario_states(sc, 50, 0, record_times=[1.0])


def test_env_jump_cap_fails_fast(tmp_path):
    """An environment atom of mass 2e6 over horizon 1 exceeds the jump cap in the engine too."""
    env = LevyEnvSpec(nu=JumpMeasure1D(atoms=[Atom1D(2e6, 0.1)]))
    sc = _plain_scenario(env, BranchingSpec(), (1.0, 1.0), 1.0, 1.0, n_paths=2)
    with pytest.raises(MassOverflow):
        scenario_states(sc, 2, 0)
    config = tmp_path / "jumpy.json"
    config.write_text(dump_scenario(sc))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_batch_engine_deterministic():
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    _, s1 = scenario_states(sc, 500, 42, record_times=[0.5, 1.0])
    _, s2 = scenario_states(sc, 500, 42, record_times=[0.5, 1.0])
    assert (s1 == s2).all()


RESTRICTED = TruncationPredicate(branching=BranchingRule("unit_square"), env_clip=1.0)


def test_truncated_system_mean_matches_truncated_table():
    """Kept-jump rates and truncated compensator drift stay consistent.

    Inputs: the norm cap at 2, and the restricted system (unit-square
    branching rule and environment clip at 1), where only small jumps act.
    """
    from cbre2.moments import moment_table

    sc = bundled_scenario("coupling", 10_000, 0.01)
    for pred in (norm_cap(2.0), RESTRICTED):
        table = moment_table(sc.environment, sc.branching, sc.x0, [1.0], 1, pred)
        _, states = scenario_states(sc, 20_000, 55, predicates=(pred,))
        x = states[0, :, -1, :]
        for i, pq in enumerate([(1, 0), (0, 1)]):
            target = table.entry(*pq, 1.0)
            se = x[:, i].std(ddof=1) / math.sqrt(len(x))
            assert abs(x[:, i].mean() - target) <= 3 * se + 2 * sc.step * target, (pred, pq)


def test_restricted_system_configuration_runs():
    """Unit-square branching rule + env clip at 1: only small jumps act."""
    sc = bundled_scenario("coupling", 10_000, 0.01)
    for p in simulate_paths(replace(sc, truncation=RESTRICTED), 20, 9):
        assert (p.states >= 0).all()
    # positive environment jumps above 1 contribute nothing under the clip
    from cbre2.moments import moment_table

    table = moment_table(sc.environment, sc.branching, sc.x0, [1.0], 2, RESTRICTED)
    full = moment_table(sc.environment, sc.branching, sc.x0, [1.0], 2)
    assert table.entry(2, 0, 1.0) <= full.entry(2, 0, 1.0)


def test_dump_paths_are_rows_of_the_batch_run():
    """Path i of a dump is row i of the batch run with the same seed and count."""
    sc = bundled_scenario("coupling", 10_000, 0.01)
    paths = simulate_paths(sc, 5, 123)
    times, states = scenario_states(sc, 5, 123, record_times=None)
    for i, p in enumerate(paths):
        assert (p.grid == times).all()
        assert (p.states == states[0, i]).all()
        assert p.xi[0] == 0.0


@pytest.mark.parametrize("step", [0.5, 0.1])
def test_pure_jump_mean_is_step_independent(step):
    """With an identity drift flow the scheme is exact at any step.

    b_ii = -mu_i cancels the compensator drift, so states only move at
    jump times; several events per interval are then the rule at step
    0.5, and the mean must match the closed form with no bias allowance.
    """
    from cbre2.measures import Atom2D, JumpMeasure

    m1 = JumpMeasure(atoms=[Atom2D(1.5, 0.4, 0.2)])
    m2 = JumpMeasure(atoms=[Atom2D(1.2, 0.1, 0.5)])
    spec = BranchingSpec(b11=-0.6, b22=-0.6, m1=m1, m2=m2)
    sc = _plain_scenario(LevyEnvSpec(), spec, (1.0, 1.0), 1.0, step)
    target = first_moment_closed_form(sc.environment, spec, sc.x0, 1.0)
    _, states = scenario_states(sc, 40_000, 2024, record_times=[1.0])
    x = states[0, :, 0, :]
    for i in (0, 1):
        se = x[:, i].std(ddof=1) / math.sqrt(len(x))
        assert abs(x[:, i].mean() - target[i]) <= 4 * se


def test_environment_only_moments_at_off_grid_times():
    """Branching off: E X^n(t) = x0^n e^{beta(n) t}, recorded between grid points.

    The jump rate spans several pre-sampling windows of the horizon, and
    0.3337 splits a grid interval, so both the windows and the bucketing
    on the refined grid are exercised.
    """
    from cbre2.env import levy_exponent

    env = LevyEnvSpec(
        a=0.1,
        sigma1=0.2,
        nu=JumpMeasure1D(atoms=[Atom1D(2.0, 0.3), Atom1D(1.5, -0.4), Atom1D(0.2, 1.2)]),
    )
    x0 = np.array([1.5, 0.5])
    sc = _plain_scenario(env, BranchingSpec(), tuple(x0), 1.0, 0.01)
    times, states = scenario_states(sc, 40_000, 17, record_times=[0.3337, 1.0])
    assert list(times) == [0.3337, 1.0]
    for n in (1, 2):
        beta = levy_exponent(env, n)
        for k, t in enumerate(times):
            x = states[0, :, k, :] ** n
            target = x0**n * math.exp(beta * t)
            se = x.std(axis=0, ddof=1) / math.sqrt(len(x))
            assert (np.abs(x.mean(axis=0) - target) <= 4 * se).all(), (n, t)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_batch_engine_rejects_empty_path_count(n_paths):
    sc = bundled_scenario("mixed", 0, 1e-3)
    with pytest.raises(ConfigError, match="n_paths"):
        scenario_states(sc, n_paths, 0)
    with pytest.raises(ConfigError, match="n_paths"):
        next(scenario_stream(sc, n_paths, 0))
    with pytest.raises(ConfigError, match="n_paths"):
        simulate_states(
            sc.environment, sc.branching, sc.x0, sc.horizon, sc.step, n_paths,
            np.random.default_rng(0),
        )


def _stream_bytes(stream):
    """Every (t, states, xi) the stream yields, as bytes (its arrays are live views)."""
    return [
        (t, [x.tobytes() for x in states], [x.tobytes() for x in xi]) for t, states, xi in stream
    ]


def test_one_engine_entry():
    """`scenario_stream` is the one engine: the env-first `simulate_states` and a
    Generator seed reach it unchanged, and `predicates=None` runs the scenario's
    own truncation."""
    restricted = TruncationPredicate(unit_square().branching, env_clip=1.0)
    sc = replace(bundled_scenario("mixed", 0, 0.01), truncation=restricted)
    n, s, kw = 200, 5, dict(record_times=[0.25, 1.0], predicates=(norm_cap(1.0), IDENTITY))

    t_env, x_env = simulate_states(
        sc.environment, sc.branching, sc.x0, sc.horizon, sc.step, n,
        np.random.default_rng(s), **kw,
    )
    t_sc, x_sc = scenario_states(sc, n, s, **kw)
    assert t_env.tobytes() == t_sc.tobytes() and x_env.tobytes() == x_sc.tobytes()

    by_int = _stream_bytes(scenario_stream(sc, n, s))
    assert _stream_bytes(scenario_stream(sc, n, np.random.default_rng(s))) == by_int

    assert by_int == _stream_bytes(scenario_stream(sc, n, s, predicates=(restricted,)))
    assert by_int != _stream_bytes(scenario_stream(sc, n, s, predicates=(IDENTITY,)))
