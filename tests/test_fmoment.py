import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.branching import BranchingSpec
from cbre2.env import LevyEnvSpec, levy_exponent
from cbre2.errors import DivergentExponent, ZeroInitialState
from cbre2.fmoment import (
    FINITE,
    INFINITE,
    MomentTestFunction,
    classify_branching_tail,
    classify_env_tail,
    condition_b_check,
    exp_power,
    f_moment_verdict,
    power,
    power_log,
)
from cbre2.measures import Atom1D, Atom2D, AxisTail, JumpMeasure, JumpMeasure1D, Tail1D
from cbre2.moments import hypotheses_hold
from cbre2.truncation import TruncationPredicate, norm_cap


def _pareto_m(alpha):
    return JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, alpha, 1.0)])


def _env_exp(rate):
    return JumpMeasure1D(tails=[Tail1D("exponential", 0.4, rate, 1.0)])


def test_condition_b_certified_families_pass():
    for f in (power(2.0), power(1.0), power_log(1.5)):
        res = condition_b_check(f)
        assert res.passed, (f.describe(), res.failures)


def test_condition_b_exponential_fails_submultiplicativity():
    # e^{theta x y} outgrows K e^{theta x} e^{theta y} for every fixed K
    res = condition_b_check(exp_power(0.5))
    assert not res.passed
    assert any(label == "submultiplicative" for label, _ in res.failures)
    assert not exp_power(0.5).b_certified


def test_condition_b_power2_with_documented_constant():
    res = condition_b_check(power(2.0))
    assert res.passed and res.K == 2.0


def test_condition_b_concave_fails_with_witness():
    res = condition_b_check(lambda x: math.sqrt(1.0 + x))
    assert not res.passed
    assert any(label == "convex" for label, _ in res.failures)


def test_condition_b_small_constant_fails_b3_at_zero():
    res = condition_b_check(lambda x: 0.5)
    assert not res.passed
    label, witness = res.failures[0]
    assert label == "f>1" and witness[0] == 0.0


def test_condition_b_exp_power_sublinear_gamma_not_convex_at_zero():
    res = condition_b_check(exp_power(0.5, 0.5))
    assert not res.passed  # honest: concave near 0, certified only for gamma=1
    assert not exp_power(0.5, 0.5).b_certified


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        power(0.5)
    with pytest.raises(ValueError):
        exp_power(0.5, 1.5)
    with pytest.raises(ValueError):
        exp_power(-1.0)


def test_classify_power_vs_pareto():
    assert classify_branching_tail(power(3.0), _pareto_m(4.0)) == FINITE
    assert classify_branching_tail(power(3.0), _pareto_m(2.5)) == INFINITE
    # boundary: equal index diverges (the integral picks up a log)
    assert classify_branching_tail(power(2.5), _pareto_m(2.5)) == INFINITE
    assert classify_branching_tail(power_log(2.5), _pareto_m(2.5)) == INFINITE


def test_classify_power_vs_env_exponential():
    assert classify_env_tail(power(2.0), _env_exp(3.0)) == FINITE
    assert classify_env_tail(power(2.0), _env_exp(1.5)) == INFINITE
    assert classify_env_tail(power(2.0), _env_exp(2.0)) == INFINITE  # boundary


def test_classify_exp_power():
    assert classify_branching_tail(exp_power(1.0), _pareto_m(10.0)) == INFINITE
    exp_m = JumpMeasure(tails=[AxisTail(2, "exponential", 0.5, 2.0, 0.0)])
    assert classify_branching_tail(exp_power(1.0, 0.5), exp_m) == FINITE
    assert classify_branching_tail(exp_power(1.0), exp_m) == FINITE  # theta < rate
    assert classify_branching_tail(exp_power(2.5), exp_m) == INFINITE
    assert classify_env_tail(exp_power(0.5), _env_exp(3.0)) == INFINITE


def test_classify_negative_env_tail_is_finite():
    nu = JumpMeasure1D(tails=[Tail1D("exponential", 0.5, 1.0, 1.0, side=-1)])
    assert classify_env_tail(power(5.0), nu) == FINITE


def test_classify_power_vs_branching_exponential():
    exp_m = JumpMeasure(tails=[AxisTail(1, "exponential", 0.5, 0.1, 0.0)])
    assert classify_branching_tail(power(9.0), exp_m) == FINITE
    assert classify_branching_tail(power_log(9.0), exp_m) == FINITE


def test_classify_env_pareto_tail():
    """A Pareto environment tail integrates no f(e^z) growth unless clipped or on the negative side."""
    for side, clip, expected in ((1, math.inf, INFINITE), (1, 2.0, FINITE), (-1, math.inf, FINITE)):
        nu = JumpMeasure1D(tails=[Tail1D("pareto", 0.4, 8.0, 1.0, side)])
        for f in (power(1.0), exp_power(0.1, 0.5)):
            assert classify_env_tail(f, nu, clip) == expected, (side, clip, f.describe())


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown test-function family"):
        MomentTestFunction("log", (1.0,), 1.0, 0.0, False)


def test_truncation_makes_everything_finite():
    assert classify_branching_tail(power(9.0), _pareto_m(2.5), rule=norm_cap(10.0).branching) == FINITE
    assert classify_env_tail(power(9.0), _env_exp(1.0), 3.0) == FINITE


def test_verdict_atoms_only_always_finite():
    env = LevyEnvSpec(nu=JumpMeasure1D(atoms=[Atom1D(1.0, 2.0)]))
    spec = BranchingSpec(m1=JumpMeasure(atoms=[Atom2D(1.0, 3.0, 0.0)]))
    for f in (power(4.0), power_log(2.0), exp_power(0.7)):
        v = f_moment_verdict(env, spec, (1.0, 0.0), f)
        assert v.verdict == FINITE
        assert set(v.criteria.values()) == {FINITE}


def test_verdict_branching_criterion():
    v = f_moment_verdict(LevyEnvSpec(), BranchingSpec(m2=_pareto_m(2.5)), (1.0, 1.0), power(3.0))
    assert v.verdict == INFINITE
    assert v.criteria["branching_tail"] == INFINITE
    assert v.criteria["environment_tail"] == FINITE


def test_verdict_environment_criterion():
    v = f_moment_verdict(LevyEnvSpec(nu=_env_exp(1.5)), BranchingSpec(), (0.5, 0.5), power(2.0))
    assert v.verdict == INFINITE
    assert v.criteria["environment_tail"] == INFINITE


def test_verdict_zero_initial_state():
    with pytest.raises(ZeroInitialState):
        f_moment_verdict(LevyEnvSpec(), BranchingSpec(), (0.0, 0.0), power(2.0))


def test_verdict_honors_truncation_predicate():
    spec = BranchingSpec(m2=_pareto_m(2.5))
    v = f_moment_verdict(LevyEnvSpec(), spec, (1.0, 1.0), power(6.0), norm_cap(4.0))
    assert v.verdict == FINITE
    env = LevyEnvSpec(nu=_env_exp(1.0))
    v = f_moment_verdict(env, BranchingSpec(), (1.0, 1.0), power(6.0), TruncationPredicate(env_clip=2.0))
    assert v.verdict == FINITE


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.0, 6.0), alpha=st.floats(1.1, 8.0), bump=st.floats(0.0, 3.0))
def test_verdict_monotone_in_growth_and_tail(p, alpha, bump):
    m = _pareto_m(alpha)
    env = LevyEnvSpec()
    big = f_moment_verdict(env, BranchingSpec(m1=m), (1.0, 1.0), power(p + bump))
    small = f_moment_verdict(env, BranchingSpec(m1=m), (1.0, 1.0), power(p))
    if big.verdict == FINITE:
        assert small.verdict == FINITE  # f <= g and g integrable
    lighter = f_moment_verdict(env, BranchingSpec(m1=_pareto_m(alpha + bump + 0.01)), (1.0, 1.0), power(p))
    if small.verdict == FINITE:
        assert lighter.verdict == FINITE  # lighter tail never flips to Infinite


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), alpha=st.floats(1.2, 6.0), rate=st.floats(0.5, 6.0))
def test_consistency_with_moment_hypotheses(n, alpha, rate):
    """f = (1+x)^n is integrable iff the order-n moment hypotheses hold: the jump moment of
    order n and beta(n) are finite."""
    env = LevyEnvSpec(nu=_env_exp(rate))
    spec = BranchingSpec(m1=_pareto_m(alpha))
    verdict = f_moment_verdict(env, spec, (1.0, 1.0), power(float(n)))
    try:
        levy_exponent(env, n)
        beta_finite = True
    except DivergentExponent:
        beta_finite = False
    reference = math.isfinite(spec.m1.moment(n, 0)) and beta_finite
    assert (verdict.verdict == FINITE) == hypotheses_hold(env, spec, n) == reference


def test_truth_table_twelve_cases():
    """3 functions x 4 tail configurations with analytically known answers."""
    f_power = power(3.0)
    f_plog = power_log(2.0)
    f_exp = exp_power(0.5)
    atoms_env = LevyEnvSpec(nu=JumpMeasure1D(atoms=[Atom1D(0.5, 1.5)]))
    atoms_m = JumpMeasure(atoms=[Atom2D(0.5, 2.0, 1.0)])
    configs = {
        "atoms": (atoms_env, BranchingSpec(m1=atoms_m)),
        "pareto4": (atoms_env, BranchingSpec(m1=_pareto_m(4.0))),
        "pareto2.5": (atoms_env, BranchingSpec(m2=_pareto_m(2.5))),
        "env_exp2": (LevyEnvSpec(nu=_env_exp(2.0)), BranchingSpec(m1=atoms_m)),
    }
    expected = {
        ("atoms", "p3"): FINITE,
        ("atoms", "plog2"): FINITE,
        ("atoms", "exp"): FINITE,
        ("pareto4", "p3"): FINITE,       # 3 < 4
        ("pareto4", "plog2"): FINITE,    # 2 < 4
        ("pareto4", "exp"): INFINITE,    # exponential growth vs polynomial tail
        ("pareto2.5", "p3"): INFINITE,   # 3 > 2.5
        ("pareto2.5", "plog2"): FINITE,  # 2 < 2.5
        ("pareto2.5", "exp"): INFINITE,
        ("env_exp2", "p3"): INFINITE,    # e^{3z} vs e^{-2z}
        ("env_exp2", "plog2"): INFINITE, # boundary with log factor diverges
        ("env_exp2", "exp"): INFINITE,   # superexponential in the environment
    }
    fns = {"p3": f_power, "plog2": f_plog, "exp": f_exp}
    hits = 0
    for cfg_name, (env, spec) in configs.items():
        for fn_name, f in fns.items():
            got = f_moment_verdict(env, spec, (1.0, 1.0), f).verdict
            assert got == expected[(cfg_name, fn_name)], (cfg_name, fn_name, got)
            hits += 1
    assert hits == 12
