import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.env import (
    LevyEnvSpec,
    env_increments,
    levy_exponent,
    realize_env_path,
    sample_env_path,
    sample_env_skeleton,
    sample_xi_terminal,
)
from cbre2.errors import DivergentExponent, InvalidStep, MassOverflow
from cbre2.measures import Atom1D, JumpMeasure1D, Tail1D


def test_levy_exponent_pure_drift():
    assert levy_exponent(LevyEnvSpec(a=1.0), 3) == 3.0


def test_levy_exponent_gaussian():
    assert levy_exponent(LevyEnvSpec(sigma1=2.0), 2) == 8.0


def test_levy_exponent_single_atom():
    nu = JumpMeasure1D(atoms=[Atom1D(0.5, 2.0)])
    expected = 0.5 * (math.e**2 - 1.0)  # direct scalar arithmetic
    assert levy_exponent(LevyEnvSpec(nu=nu), 1) == pytest.approx(expected, rel=1e-12)


def test_levy_exponent_zero_order():
    spec = LevyEnvSpec(a=2.0, sigma1=1.0, nu=JumpMeasure1D(atoms=[Atom1D(1.0, 0.3)]))
    assert levy_exponent(spec, 0) == 0.0


def test_divergent_exponent_raises():
    nu = JumpMeasure1D(tails=[Tail1D("exponential", 1.0, 2.0, 1.0)])
    spec = LevyEnvSpec(nu=nu)
    assert levy_exponent(spec, 1) < math.inf
    with pytest.raises(DivergentExponent):
        levy_exponent(spec, 2)  # n >= rate diverges
    with pytest.raises(DivergentExponent):
        levy_exponent(LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("pareto", 1.0, 3.0, 1.0)])), 1)


def test_truncation_restores_finiteness():
    nu = JumpMeasure1D(tails=[Tail1D("pareto", 1.0, 3.0, 1.0)])
    spec = LevyEnvSpec(nu=nu)
    assert levy_exponent(spec, 2, clip=4.0) < math.inf


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-1.5, 1.5),
    sigma=st.floats(0.0, 1.5),
    mass=st.floats(0.05, 1.5),
    z=st.floats(-1.8, 1.2).filter(lambda v: abs(v) > 1e-3),
)
def test_levy_exponent_convex_in_order(a, sigma, mass, z):
    spec = LevyEnvSpec(a=a, sigma1=sigma, nu=JumpMeasure1D(atoms=[Atom1D(mass, z)]))
    beta = [levy_exponent(spec, n) for n in range(5)]
    diffs = np.diff(beta)
    scale = 1.0 + np.max(np.abs(beta))
    assert (np.diff(diffs) >= -1e-9 * scale).all()


def test_pure_drift_path_increments():
    path = sample_env_path(LevyEnvSpec(a=0.7), 2.0, 0.5, np.random.default_rng(0))
    assert np.allclose(path.xi_increments, 0.35, rtol=0, atol=1e-15)
    assert len(path.xi_increments) == 4


def test_step_validation():
    with pytest.raises(InvalidStep):
        sample_env_path(LevyEnvSpec(), 1.0, 0.0, np.random.default_rng(0))
    with pytest.raises(InvalidStep):
        sample_env_path(LevyEnvSpec(), 1.0, 2.0, np.random.default_rng(0))


def test_mass_overflow_guard():
    nu = JumpMeasure1D(atoms=[Atom1D(1e9, 0.5)])
    with pytest.raises(MassOverflow):
        sample_env_path(LevyEnvSpec(nu=nu), 1.0, 0.5, np.random.default_rng(0))


def test_skeleton_path_is_one_path_of_env_increments():
    nu = JumpMeasure1D(atoms=[Atom1D(3.0, 0.9)])
    spec = LevyEnvSpec(a=0.1, sigma1=0.3, nu=nu)
    rng = np.random.default_rng(5)
    skel = sample_env_skeleton(spec, 1.0, 0.125, rng)
    base = 0.125 * np.arange(9)
    np.testing.assert_array_equal(skel.grid, base)
    path = realize_env_path(spec, skel)
    incs = env_increments(spec, base, 0.125, 1, np.random.default_rng(skel.seed), [math.inf])
    replayed = np.hstack([dxi for (dxi,) in incs])
    np.testing.assert_array_equal(path.xi_increments, replayed)
    # partial sums reconstruct xi at grid points for the sampled jump set
    assert np.allclose(path.xi_values(), np.concatenate(([0.0], np.cumsum(replayed))), atol=1e-12)


def test_gaussian_terminal_statistics():
    rng = np.random.default_rng(31)
    xi = sample_xi_terminal(LevyEnvSpec(sigma1=1.0), 1.0, 100_000, rng)
    assert abs(xi.mean()) <= 3.0 / math.sqrt(100_000)
    assert abs(xi.std(ddof=1) - 1.0) < 0.01


def test_clipping_kills_large_atom():
    nu = JumpMeasure1D(atoms=[Atom1D(2.0, 1.5)])
    spec = LevyEnvSpec(nu=nu)
    skel = sample_env_skeleton(spec, 1.0, 0.25, np.random.default_rng(1))
    assert realize_env_path(spec, skel, 1.2).xi_values()[-1] == 0.0
    k = realize_env_path(spec, skel).xi_values()[-1] / 1.5  # the same jumps, unclipped
    assert k >= 1 and k == round(k)


def test_negative_jumps_never_clipped():
    nu = JumpMeasure1D(atoms=[Atom1D(2.0, -1.5)])
    spec = LevyEnvSpec(nu=nu)
    rng = np.random.default_rng(2)
    skel = sample_env_skeleton(spec, 1.0, 0.25, rng)
    clipped = realize_env_path(spec, skel, 1.2)
    assert (clipped.xi_increments == -1.5).any()  # a jump below -1 that no clip may touch
    np.testing.assert_array_equal(clipped.xi_increments, realize_env_path(spec, skel).xi_increments)


def test_truncation_monotone_under_shared_randomness():
    nu = JumpMeasure1D(atoms=[Atom1D(1.5, 1.8), Atom1D(1.0, 0.4), Atom1D(0.5, -1.1)])
    spec = LevyEnvSpec(a=0.05, sigma1=0.2, nu=nu)
    rng = np.random.default_rng(17)
    skel = sample_env_skeleton(spec, 2.0, 0.1, rng)
    lo = realize_env_path(spec, skel, clip=1.5).xi_values()
    hi = realize_env_path(spec, skel, clip=2.5).xi_values()
    assert (lo <= hi + 1e-12).all()


def test_exponential_moment_monte_carlo():
    spec = LevyEnvSpec(a=0.1, sigma1=0.5, nu=JumpMeasure1D(atoms=[Atom1D(0.5, 0.4)]))
    rng = np.random.default_rng(99)
    xi = sample_xi_terminal(spec, 1.0, 100_000, rng)
    for n in (1, 2):
        vals = np.exp(n * xi)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(levy_exponent(spec, n))) <= 3 * se


def test_levy_exponent_overflow_is_a_package_error():
    from cbre2.errors import Cbre2Error, ExponentOverflow

    spec = LevyEnvSpec(nu=JumpMeasure1D(atoms=[Atom1D(0.5, 1.3)]))
    with pytest.raises(ExponentOverflow, match="float range") as info:
        levy_exponent(spec, 600)
    assert isinstance(info.value, Cbre2Error)
    # a finite tail integral past the float range: raised before any panel is built
    tail = LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("pareto", 0.5, 2.5, 0.3)]))
    with pytest.raises(ExponentOverflow, match="float range"):
        levy_exponent(tail, 2, clip=1e6)


def test_env_increments_law_and_clips_on_an_uneven_grid():
    """E e^{dxi} = e^{beta(1) h} per interval at each clip; clips remove whole big jumps."""
    nu = JumpMeasure1D(atoms=[Atom1D(0.6, 0.4), Atom1D(0.4, -0.5), Atom1D(0.5, 1.3)])
    spec = LevyEnvSpec(a=0.1, sigma1=0.3, nu=nu)
    grid = np.array([0.0, 0.3, 0.35, 0.9, 1.0])
    n = 40_000
    # jump windows of one interval (step 0.5) and of the whole grid (step 0.1)
    for step in (0.5, 0.1):
        incs = list(env_increments(spec, grid, step, n, np.random.default_rng(5), [math.inf, 1.0]))
        assert len(incs) == len(grid) - 1
        for h, pair in zip(np.diff(grid), incs):
            for clip, d in zip((math.inf, 1.0), pair):
                vals = np.exp(d)
                se = vals.std(ddof=1) / math.sqrt(n)
                assert abs(vals.mean() - math.exp(levy_exponent(spec, 1, clip) * h)) <= 4 * se
            removed = (pair[0] - pair[1]) / 1.3
            assert np.allclose(removed, np.round(removed), atol=1e-9) and removed.min() > -1e-9


def test_env_increments_deterministic_environment_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    grid = np.array([0.0, 0.25, 1.0])
    incs = list(env_increments(LevyEnvSpec(a=0.2), grid, 0.25, 7, rng, [math.inf, 1.0]))
    assert incs == [[0.2 * 0.25] * 2, [0.2 * 0.75] * 2]
    assert rng.bit_generator.state == state
