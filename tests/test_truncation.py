import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.branching import BranchingSpec
from cbre2.env import LevyEnvSpec
from cbre2.measures import Atom2D, AxisTail, JumpMeasure
from cbre2.moments import hypotheses_hold
from cbre2.truncation import (
    NONE,
    NORM_CAP,
    UNIT_SQUARE,
    BranchingRule,
    KeepMask,
    TruncationPredicate,
)
from tests.test_branching import ATOMS, TAILS


def test_norm_cap_infinite_equals_none_semantically():
    z = np.array([[0.5, 0.5], [3.0, 0.0], [0.0, 100.0]])
    cap_inf = BranchingRule("norm_cap", math.inf)
    assert cap_inf.keep(z).all()
    assert cap_inf.axis_bound == math.inf
    assert BranchingRule("none").keep(z).all()


def test_norm_cap_uses_euclidean_norm():
    rule = BranchingRule("norm_cap", 2.0)
    z = np.array([[1.5, 1.5], [2.0, 0.0], [1.2, 1.2]])
    # |(1.5,1.5)| ~ 2.12 > 2; |(2,0)| = 2 <= 2; |(1.2,1.2)| ~ 1.70 <= 2
    assert rule.keep(z).tolist() == [False, True, True]


def test_unit_square_rule():
    rule = BranchingRule("unit_square")
    z = np.array([[1.0, 1.0], [1.1, 0.0], [0.0, 2.0]])
    assert rule.keep(z).tolist() == [True, False, False]


def test_invalid_rules_rejected():
    with pytest.raises(ValueError):
        BranchingRule("ball", 1.0)
    with pytest.raises(ValueError):
        BranchingRule("norm_cap", 0.0)
    with pytest.raises(ValueError):
        TruncationPredicate(env_clip=0.5)


@pytest.mark.parametrize(
    "rule",
    [BranchingRule("none"), BranchingRule("norm_cap", 1.3), BranchingRule("unit_square")],
    ids=["none", "norm_cap", "unit_square"],
)
def test_measure_moments_follow_the_rule(rule):
    """Atoms count iff `keep` keeps them; an axis tail is cut at the rule's axis bound."""
    z = np.random.default_rng(4).uniform(0.0, 1.8, (40, 2))
    tail = AxisTail(2, "pareto", 0.5, 2.5, 0.5)
    m = JumpMeasure([Atom2D(0.1, z1, z2) for z1, z2 in z], [tail])
    kept = z[rule.keep(z)]
    assert m.moment(1, 2, rule) == pytest.approx(0.1 * np.sum(kept[:, 0] * kept[:, 1] ** 2))
    own = m.moment(0, 3, rule)
    assert own == pytest.approx(0.1 * np.sum(kept[:, 1] ** 3) + tail.moment_mag(3, rule.axis_bound))
    held = hypotheses_hold(LevyEnvSpec(), BranchingSpec(m2=m), 3, TruncationPredicate(rule))
    assert held == math.isfinite(own) == (rule.kind != "none")


def _kept(rule, z1, z2) -> bool:
    """The rules as the module docstring states them, one jump at a time."""
    if rule.kind == NORM_CAP:
        return bool(np.hypot(z1, z2) <= rule.k)
    if rule.kind == UNIT_SQUARE:
        return z1 <= 1.0 and z2 <= 1.0
    return True


# a rule: none, unit_square, a norm cap at a level, or a norm cap at the norm of jump i
RULE_SPECS = st.one_of(
    st.sampled_from([NONE, UNIT_SQUARE]),
    st.tuples(st.just("cap"), st.floats(0.05, 6.0)),
    st.tuples(st.just("at"), st.integers(0, 200)),
)


@settings(max_examples=150, deadline=None)
@given(
    atoms=ATOMS,
    tails=TAILS,
    specs=st.lists(RULE_SPECS, min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_keep_mask_is_each_rules_keep_row_by_row(atoms, tails, specs, seed):
    """Row v of the all-variant mask is rules[v].keep(z), over atoms' and axis tails' jumps,
    jumps exactly at each cap, and the unit square's corner and edges."""
    m = JumpMeasure(atoms, tails)
    z = m.sample(np.random.default_rng(seed), 30) if m.total_mass() else np.zeros((0, 2))
    z = np.vstack([z, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1e-9]]])
    rules = []
    for spec in specs:
        if spec in (NONE, UNIT_SQUARE):
            rules.append(BranchingRule(spec))
        else:
            k = spec[1] if spec[0] == "cap" else float(np.hypot(*z[spec[1] % len(z)]))
            rules.append(BranchingRule(NORM_CAP, k))
    caps = [r.k for r in rules if r.kind == NORM_CAP]
    z = np.vstack([z] + [[[k, 0.0], [0.0, k]] for k in caps])
    mask = KeepMask(rules)(z)
    assert mask.shape == (len(rules), len(z)) and mask.dtype == bool
    for v, rule in enumerate(rules):
        assert mask[v].tolist() == rule.keep(z).tolist()
        assert mask[v].tolist() == [_kept(rule, z1, z2) for z1, z2 in z.tolist()]
    assert KeepMask(rules).drops == any(r.kind != NONE for r in rules)
