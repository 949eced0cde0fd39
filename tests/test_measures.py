import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.branching import BranchingSpec
from cbre2.env import LevyEnvSpec
from cbre2.errors import DivergentCrossMoment, ExponentOverflow
from cbre2.measures import (
    Atom1D,
    Atom2D,
    AxisTail,
    JumpMeasure,
    JumpMeasure1D,
    Tail1D,
)
from cbre2.moments import build_moment_generator, hypotheses_hold
from cbre2.truncation import BranchingRule, TruncationPredicate


def test_moments_beyond_the_float_range():
    """A capped tail has every norm moment without computing one; an exponential moment past
    the float range is an error, not a divergence."""
    pareto = JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)])
    capped = TruncationPredicate(BranchingRule("norm_cap", 1e300))
    assert hypotheses_hold(LevyEnvSpec(), BranchingSpec(m1=pareto), 6, capped)
    assert math.isfinite(pareto.tails[0].moment_mag(3, 1e300))
    with pytest.raises(ExponentOverflow):  # expm1 of 1.5 log(1e300) overflows
        pareto.tails[0].moment_mag(4, 1e300)
    with pytest.raises(ExponentOverflow):  # x0^2 = 1e400
        AxisTail(1, "pareto", 0.5, 2.5, 1e200).moment_mag(2)
    flat = AxisTail(1, "exponential", 0.5, 1e-200, 0.0)
    assert flat.moment_mag(1) == pytest.approx(0.5e200)
    with pytest.raises(ExponentOverflow):
        flat.moment_mag(2)
    with pytest.raises(ExponentOverflow):
        build_moment_generator(LevyEnvSpec(), BranchingSpec(m1=JumpMeasure(tails=[flat])), 2)


def test_atom_moments():
    m = JumpMeasure(atoms=[Atom2D(2.0, 1.0, 3.0)])
    assert m.moment(2, 1) == 6.0
    assert m.moment(1, 0) == 2.0
    assert m.moment(0, 2) == 18.0


def test_empty_measure_moment_is_zero():
    assert JumpMeasure().moment(1, 1) == 0.0


def test_moment_order_zero_rejected():
    with pytest.raises(ValueError):
        JumpMeasure(atoms=[Atom2D(1.0, 1.0, 0.0)]).moment(0, 0)


def test_pareto_axis_moments():
    # density 4 z^-5 on z >= 1
    m = JumpMeasure(tails=[AxisTail(1, "pareto", 1.0, 4.0, 1.0)])
    assert m.moment(2, 0) == pytest.approx(2.0, rel=1e-12)
    assert math.isinf(m.moment(4, 0))
    assert m.moment(0, 1) == 0.0  # off-axis coordinate is zero
    assert m.moment(1, 1) == 0.0


def test_pareto_boundary_order_diverges():
    m = JumpMeasure(tails=[AxisTail(1, "pareto", 1.0, 3.0, 1.0)])
    assert math.isinf(m.moment(3, 0))
    assert m.moment(2, 0) < math.inf


def test_exponential_axis_moments_closed_form():
    th, x0, mass = 2.5, 0.5, 0.7
    m = JumpMeasure(tails=[AxisTail(2, "exponential", mass, th, x0)])
    # moments of x0 + Exp(th)
    assert m.moment(0, 1) == pytest.approx(mass * (x0 + 1 / th), rel=1e-12)
    assert m.moment(0, 2) == pytest.approx(
        mass * (x0**2 + 2 * x0 / th + 2 / th**2), rel=1e-12
    )


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("width", [0.01, 3.0], ids=["near", "far"])
@pytest.mark.parametrize(
    "tail",
    [
        AxisTail(1, "pareto", 0.8, 2.5, 1.0),
        AxisTail(1, "exponential", 0.7, 1.7, 0.5),
        AxisTail(2, "exponential", 0.4, 0.8, 0.0),
    ],
    ids=["pareto", "exp", "exp-x0=0"],
)
def test_truncated_moments_match_quadrature(tail_reference, tail, width, r):
    """Moments of a tail cut at a bound close to x0 and far from it, against quad."""
    cap = tail.x0 + width
    ref = tail_reference(tail, lambda y: y**r, tail.x0, cap)
    assert tail.moment_mag(r, cap) == pytest.approx(ref, rel=1e-10, abs=0.0)
    if r >= 1:
        rs = (r, 0) if tail.axis == 1 else (0, r)
        rule = BranchingRule("norm_cap", cap)
        assert JumpMeasure(tails=[tail]).moment(*rs, rule) == pytest.approx(ref, rel=1e-10, abs=0.0)
    assert tail.moment_mag(r, 0.5 * tail.x0) == 0.0  # a cap below the support


@pytest.mark.parametrize("r", range(8))
def test_pareto_moment_with_a_bound_next_to_x0_keeps_its_digits(r):
    """bound = 1.000001 x0: a difference of powers would cancel about 6 digits."""
    mp = pytest.importorskip("mpmath")
    tail, bound = AxisTail(1, "pareto", 0.5, 2.5, 1.0), 1.000001
    with mp.workdps(40):
        a, m = mp.mpf(tail.shape), r - mp.mpf(tail.shape)
        ref = tail.mass * a * (mp.mpf(bound) ** m - 1) / m  # x0 = 1
        got = tail.moment_mag(r, bound)
        assert abs((got - ref) / ref) <= 1e-14


def test_measures_compare_by_value():
    atoms, tails = [Atom2D(0.4, 0.3, 0.2)], [AxisTail(1, "pareto", 0.5, 2.5, 1.0)]
    m = JumpMeasure(atoms=atoms, tails=tails)
    assert m == JumpMeasure(atoms=list(atoms), tails=list(tails))
    assert hash(m) == hash(JumpMeasure(atoms=atoms, tails=tails))
    assert m != JumpMeasure(atoms=[Atom2D(0.41, 0.3, 0.2)], tails=tails)
    assert JumpMeasure1D(atoms=[Atom1D(0.3, 0.5)]) != JumpMeasure1D(atoms=[Atom1D(0.31, 0.5)])
    assert JumpMeasure() != JumpMeasure1D()  # equal parts, different kinds


def test_unit_square_restriction():
    m = JumpMeasure(atoms=[Atom2D(1.0, 0.5, 0.5), Atom2D(1.0, 0.5, 1.5)])
    assert m.moment(1, 0, BranchingRule("unit_square")) == pytest.approx(0.5)
    assert m.moment(1, 0) == pytest.approx(1.0)


def test_validity_enforced_at_construction():
    with pytest.raises(DivergentCrossMoment):
        JumpMeasure(tails=[AxisTail(1, "pareto", 1.0, 0.8, 1.0)])


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(0.1, 10.0),
    r=st.integers(0, 3),
    s=st.integers(0, 3),
)
def test_moment_scales_linearly_in_mass(gamma, r, s):
    if r + s == 0:
        r = 1
    base = [Atom2D(0.5, 0.3, 0.8), Atom2D(1.2, 1.1, 0.0)]
    scaled = [Atom2D(a.mass * gamma, a.z1, a.z2) for a in base]
    m0 = JumpMeasure(atoms=base).moment(r, s)
    m1 = JumpMeasure(atoms=scaled).moment(r, s)
    assert m1 == pytest.approx(gamma * m0, rel=1e-12)
    assert m0 >= 0.0


def test_sampler_matches_analytic_moments():
    m = JumpMeasure(
        atoms=[Atom2D(0.5, 0.4, 0.25)],
        tails=[AxisTail(1, "exponential", 0.7, 2.0, 0.3)],
    )
    rng = np.random.default_rng(1234)
    z = m.sample(rng, 200_000)
    total = m.total_mass()
    for r, s in [(1, 0), (0, 1), (2, 0)]:
        est = np.mean(z[:, 0] ** r * z[:, 1] ** s)
        se = np.std(z[:, 0] ** r * z[:, 1] ** s, ddof=1) / math.sqrt(len(z))
        assert abs(est - m.moment(r, s) / total) <= 4 * se


def _rem(u, order):
    """e^u less its Taylor terms of degree < order, by its series where they cancel."""
    if order == 1:
        return math.expm1(u)
    if abs(u) < 0.1:
        return u * u * math.fsum(u**k / math.factorial(k + 2) for k in range(12))
    return math.expm1(u) - u


EXP_INTEGRAL_CASES = {
    "exp-both-sides": (
        [Atom1D(0.4, 0.5)],
        [Tail1D("exponential", 0.6, 1.5, 0.2), Tail1D("exponential", 0.3, 2.0, 0.4, side=-1)],
        2.0,
    ),
    "exp-rate=n": ([], [Tail1D("exponential", 0.5, 2.0, 0.3), Tail1D("exponential", 0.2, 3.0, 0.0)], 2.0),
    "exp-neg-rate=n": ([], [Tail1D("exponential", 0.5, 2.0, 0.3, side=-1)], 2.0),
    "pareto1-x0=1e-3": ([], [Tail1D("pareto", 0.5, 1.0, 1e-3)], 2.0),
    "pareto1-x0=0.3": ([], [Tail1D("pareto", 0.5, 1.0, 0.3)], 3.0),
    "pareto1-neg-x0=1e-3": ([], [Tail1D("pareto", 0.5, 1.0, 1e-3, side=-1)], 1.0),
    "pareto1-neg-x0=0.3": ([], [Tail1D("pareto", 0.5, 1.0, 0.3, side=-1)], 2.0),
    "pareto2.5-both-sides": (
        [Atom1D(0.2, -0.7)],
        [Tail1D("pareto", 0.4, 2.5, 0.3), Tail1D("pareto", 0.3, 2.5, 1e-3, side=-1)],
        2.0,
    ),
}


@pytest.mark.parametrize("clip", [3.0, 60.0, math.inf], ids=["clip=3", "clip=60", "clip=inf"])
@pytest.mark.parametrize("case", list(EXP_INTEGRAL_CASES))
def test_measure_1d_small_exp_integral_against_quad(tail_reference, case, clip):
    """mean_small, exp_integral and levy_exponent against quad."""
    from cbre2.env import LevyEnvSpec, levy_exponent
    from cbre2.errors import DivergentExponent

    atoms, tails, n = EXP_INTEGRAL_CASES[case]
    nu = JumpMeasure1D(atoms=atoms, tails=tails)
    mean = math.fsum(a.mass * a.z for a in atoms if abs(a.z) <= 1.0)
    small = math.fsum(a.mass * _rem(n * a.z, 2) for a in atoms if abs(a.z) <= 1.0)
    large = math.fsum(a.mass * _rem(n * a.z, 1) for a in atoms if a.z < -1.0 or 1.0 < a.z <= clip)
    for t in tails:
        c = t.side * n
        mean += t.side * tail_reference(t, lambda y: y, t.x0, 1.0)
        small += tail_reference(t, lambda y: _rem(c * y, 2), t.x0, 1.0)
        if t.side > 0 and math.isinf(clip) and (t.family == "pareto" or n >= t.shape):
            large = math.inf  # the positive tail of e^{nz} diverges
        else:
            large += tail_reference(t, lambda y: _rem(c * y, 1), 1.0, clip if t.side > 0 else math.inf)
    assert nu.mean_small() == pytest.approx(mean, rel=1e-10, abs=0.0)
    env = LevyEnvSpec(a=0.1, sigma1=0.2, nu=nu)
    if math.isinf(large):
        assert math.isinf(nu.exp_integral(n, clip))
        with pytest.raises(DivergentExponent):
            levy_exponent(env, n, clip)
        return
    assert nu.exp_integral(n, clip) == pytest.approx(small + large, rel=1e-10, abs=0.0)
    beta = 0.1 * n + 0.5 * 0.2**2 * n**2 + small + large
    assert levy_exponent(env, n, clip) == pytest.approx(beta, rel=1e-10, abs=0.0)


def test_measure_1d_sampling_mixture():
    nu = JumpMeasure1D(
        atoms=[Atom1D(1.0, -0.5)], tails=[Tail1D("pareto", 1.0, 3.0, 1.0)]
    )
    rng = np.random.default_rng(7)
    z = nu.sample(rng, 100_000)
    frac_neg = np.mean(z < 0)
    assert abs(frac_neg - 0.5) < 0.01
    pos = z[z > 0]
    # mean of Pareto(3, x0=1) is 1.5
    assert abs(pos.mean() - 1.5) < 0.03


def test_invalid_components_rejected():
    with pytest.raises(ValueError):
        Atom1D(0.0, 1.0)
    with pytest.raises(ValueError):
        Atom1D(1.0, 0.0)
    with pytest.raises(ValueError):
        Atom2D(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Atom2D(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        AxisTail(3, "pareto", 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        AxisTail(1, "pareto", 1.0, 2.0, 0.0)  # pareto needs x0 > 0
    with pytest.raises(ValueError):
        Tail1D("cauchy", 1.0, 1.0, 1.0)


PHI_Z = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.5, 1.0, 5.0, 50.0]


@pytest.mark.parametrize("shape", [1.5, 2.0, 2.5, 3.0, 4.5])
@pytest.mark.parametrize("family,x0", [("pareto", 1.0), ("pareto", 0.4), ("exponential", 1.0)])
def test_phi_integral_closed_form_against_quad(phi_reference, family, x0, shape):
    """Own-axis (compensated) and cross-axis tail terms of phi, lam * x0 from 0 to 50."""
    tail = AxisTail(1, family, 0.6, shape, x0)
    measure = JumpMeasure(tails=[tail])
    lam = np.array(PHI_Z) / x0
    other = np.full(len(lam), 0.9)  # the off-axis rate never enters an axis tail
    for own_axis, compensated in ((1, True), (2, False)):
        vec = measure.phi_integral(lam, other, own_axis)
        for k, l1 in enumerate(lam):
            ref = phi_reference(tail, float(l1), compensated)
            got = measure.phi_integral(float(l1), 0.9, own_axis)
            assert isinstance(got, float)
            # relative even where the term is tiny: that is where the series branch works
            for val in (got, vec[k]):
                assert abs(val - ref) <= 1e-11 * abs(ref), (own_axis, l1, val, ref)
        assert vec[0] == 0.0  # lam = 0 exactly
