import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2 import simulate
from cbre2.branching import BranchingSpec
from cbre2.cli import main
from cbre2.env import LevyEnvSpec, sample_env_path
from cbre2.errors import ConfigError, MassOverflow
from cbre2.measures import Atom1D, JumpMeasure, JumpMeasure1D
from cbre2.moments import first_moment_closed_form
from cbre2.scenario import ScenarioConfig, dump_scenario, load_scenario
from cbre2.simulate import (
    scenario_states,
    scenario_stream,
    simulate_states,
    simulate_paths,
)
from cbre2.truncation import (
    IDENTITY,
    NORM_CAP,
    BranchingRule,
    TruncationPredicate,
    norm_cap,
    unit_square,
)
from tests.conftest import SCENARIO_DIR, bundled_scenario
from tests.test_branching import ATOMS, TAILS
from tests.test_measures import ENV_ATOMS, ENV_TAILS


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


def test_a_record_time_next_to_a_base_point_replaces_it():
    """At step 0.1 the base point 0.6000000000000001 gives way to the record time 0.6, so
    no grid step is shorter than 1e-9; the stream yields every grid time, ends included."""
    sc = _plain_scenario(LevyEnvSpec(a=0.2), BranchingSpec(b11=1.0), (1.0, 1.0), 1.0, 0.1)
    times, _ = scenario_states(sc, 2, 0, record_times=[0.6])
    assert times.tolist() == [0.6]
    grid = [t for t, _, _ in scenario_stream(sc, 2, 0, record_times=[0.6])]
    assert len(grid) == 11 and 0.6 in grid and (grid[0], grid[-1]) == (0.0, 1.0)
    assert np.diff(grid).min() > 1e-9


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


@settings(max_examples=40, deadline=None)
@given(
    diag=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    off=st.tuples(st.floats(-2.0, 0.0), st.floats(-2.0, 0.0)),
    c=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    atoms=st.tuples(ATOMS, ATOMS),
    tails=st.tuples(TAILS, TAILS),
    env=st.builds(LevyEnvSpec, st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
                  st.builds(JumpMeasure1D, ENV_ATOMS, ENV_TAILS)),
    x0=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    cap=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_state_goes_negative(diag, off, c, atoms, tails, env, x0, cap, seed):
    """The drift flow of a Metzler matrix is entrywise >= 0, the diffusion clamps at 0,
    jumps are >= 0 and e^{dxi} > 0, so no state of any variant is negative (or NaN).
    The clip keeps e^{dxi} in the float range: an inf state can turn into NaN."""
    m1, m2 = (JumpMeasure(a, t) for a, t in zip(atoms, tails))
    bspec = BranchingSpec(diag[0], off[0], off[1], diag[1], *c, m1, m2)
    sc = _plain_scenario(env, bspec, x0, 0.2, 0.02)
    preds = (TruncationPredicate(BranchingRule(NORM_CAP, cap), 5.0), TruncationPredicate(env_clip=5.0))
    _, states = scenario_states(sc, 20, seed, predicates=preds)
    assert (states >= 0.0).all()


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
    for _, (a_t, b_t), xi in scenario_stream(sc, 6, 3, predicates=preds):
        assert (a_t == b_t).all() and xi.shape == (6,)  # one xi for both variants


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


def test_one_pass_runs_one_environment_clip():
    """Every variant of a pass runs in one environment path, so their clips must agree."""
    sc = bundled_scenario("coupling", 10_000, 0.01)
    preds = (TruncationPredicate(env_clip=1.2), TruncationPredicate(env_clip=2.0))
    with pytest.raises(ValueError, match="env_clip"):
        next(scenario_stream(sc, 10, 4, predicates=preds))


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
    return [(t, [x.tobytes() for x in states], xi.tobytes()) for t, states, xi in stream]


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



# SHA-256 of the grid times and the (variants, paths, grid times, 2) states of 300-path
# passes at the configs' own step and seed, recorded at every grid time; a change to any
# draw or to the arithmetic of any variant moves them.
STATE_DIGESTS = {
    "verify": "acde7ac819d54f77362839c11cc2f4962636b50a69e45cae6f2af94ecb90e9cd",
    "coupling": "1a2fff3dab950d63fb468022fb50341a26b71a6235f4643f50c9060ec7c4bcd8",
    "mixed": "62062757271f374e06d958c1be09489138283ac742d82c018bd814381703f3a5",
    "mixed-three-rules": "3a1423f0adedd172c0472c96d21351a672c03b1e9859e44d02c05ce5039cc232",
    "laplace-scalar-dxi": "3493a660ad6d80e058764c55a893d9b797b30c02891fe72d6712dbdc29876a59",
}


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_engine_states_pinned(name):
    """verify.json runs the six variants `verify_reports` runs (its truncation, then the
    norm caps of coupling_k and trunc_k_list in order of first use), coupling.json its
    two norm caps, and mixed.json its own truncation.  Two more passes reach what those
    miss: mixed.json's diffusion under three variants, one of them a unit-square rule,
    and laplace.json without sigma1 and nu, so that every environment increment is a
    float, under the identity and a cap of 0.45 that drops m2's atom."""
    sc = load_scenario(os.path.join(SCENARIO_DIR, f"{name.split('-')[0]}.json"))
    if name == "verify":
        preds = (sc.truncation,) + tuple(norm_cap(k) for k in (2.0, 5.0, 4.0, 8.0, 16.0))
    elif name == "coupling":
        preds = tuple(norm_cap(k) for k in sc.coupling_k)
    elif name == "mixed-three-rules":
        preds = (IDENTITY, norm_cap(2.0), unit_square())
    elif name == "laplace-scalar-dxi":
        sc = replace(sc, environment=LevyEnvSpec(a=sc.environment.a))
        preds = (IDENTITY, norm_cap(0.45))
    else:
        preds = (sc.truncation,)
    times, states = scenario_states(sc, 300, sc.seed, record_times=None, predicates=preds)
    digest = hashlib.sha256(times.tobytes() + states.tobytes()).hexdigest()
    assert digest == STATE_DIGESTS[name]
