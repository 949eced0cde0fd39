import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.branching import (
    BranchingSpec,
    effective_drift_matrix,
    kept_jump_means,
    phi_eval,
    phi_eval_cols,
)
from cbre2.measures import Atom2D, AxisTail, JumpMeasure
from cbre2.truncation import norm_cap, unit_square


def test_phi_vanishes_at_zero():
    spec = BranchingSpec(
        b11=0.5,
        b12=-0.2,
        b21=-0.3,
        b22=0.7,
        c1=0.4,
        c2=0.1,
        m1=JumpMeasure(atoms=[Atom2D(1.0, 0.5, 0.5)]),
        m2=JumpMeasure(tails=[AxisTail(2, "exponential", 0.5, 2.0, 0.0)]),
    )
    assert phi_eval(spec, (0.0, 0.0)) == (0.0, 0.0)


def test_phi_linear_part():
    spec = BranchingSpec(b11=2.0, b12=-1.0, b21=-1.0, b22=3.0)
    assert phi_eval(spec, (1.0, 1.0)) == (1.0, 2.0)


def test_phi_single_atom():
    spec = BranchingSpec(m1=JumpMeasure(atoms=[Atom2D(1.0, 1.0, 0.0)]))
    p1, p2 = phi_eval(spec, (1.0, 0.0))
    assert p1 == pytest.approx(math.exp(-1.0), rel=1e-12)  # e^-1 - 1 + 1
    assert p2 == 0.0


def test_phi_tail_against_quadrature():
    tail = AxisTail(1, "exponential", 0.8, 3.0, 0.0)
    spec = BranchingSpec(m1=JumpMeasure(tails=[tail]))
    lam = (1.3, 0.4)
    from scipy.integrate import quad

    ref, _ = quad(
        lambda z: (math.exp(-lam[0] * z) - 1 + lam[0] * z) * 0.8 * 3.0 * math.exp(-3.0 * z),
        0.0,
        np.inf,
    )
    assert phi_eval(spec, lam)[0] == pytest.approx(ref, abs=1e-10)


COORD = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
ATOMS = st.lists(
    st.tuples(st.floats(0.01, 2.0), COORD, COORD).filter(lambda a: a[1] or a[2]).map(lambda a: Atom2D(*a)),
    max_size=4,
)
AXES = st.sampled_from([1, 2])
TAILS = st.lists(
    st.one_of(
        st.builds(AxisTail, AXES, st.just("exponential"), st.floats(0.01, 2.0),
                  st.floats(0.3, 5.0), st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
        st.builds(AxisTail, AXES, st.just("pareto"), st.floats(0.01, 2.0),
                  st.floats(1.2, 4.0), st.floats(0.05, 2.0)),
    ),
    max_size=3,
)
RATE = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


@settings(max_examples=80, deadline=None)
@given(
    diag=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    off=st.tuples(st.floats(-1.0, 0.0), st.floats(-1.0, 0.0)),
    c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    atoms=st.tuples(ATOMS, ATOMS),
    tails=st.tuples(TAILS, TAILS),
    rows=st.lists(st.tuples(RATE, RATE), min_size=1, max_size=8),
)
def test_phi_kernel_matches_per_measure_reference(diag, off, c, atoms, tails, rows):
    """phi_eval_cols's kernel equals lam b^T + c lam^2 + m_i.phi_integral, and one rate
    pair evaluated alone has the bits of the same pair evaluated in a batch."""
    m1, m2 = (JumpMeasure(a, t) for a, t in zip(atoms, tails))
    spec = BranchingSpec(diag[0], off[0], off[1], diag[1], *c, m1, m2)
    lam = np.array(rows)
    cols = phi_eval_cols(spec, lam.T.copy())
    got = cols.T
    l1, l2 = lam.T
    jumps, sizes = np.zeros_like(lam), np.zeros_like(lam)
    for i, m in enumerate((m1, m2)):
        jumps[:, i] = m.phi_integral(l1, l2, i + 1)
        for a in m.atoms:  # the sizes of an atom's terms, 1 and lam_own z_own, times its mass
            sizes[:, i] += a.mass * (1.0 + lam[:, i] * (a.z1, a.z2)[i])
    ref = lam @ spec.b.T + c * lam**2 + jumps
    # a floor of a few ulps of the largest term, where terms of both signs cancel
    terms = lam @ abs(spec.b.T) + c * lam**2 + abs(jumps) + sizes
    assert (abs(got - ref) <= 1e-12 * abs(ref) + 1e-15 * terms).all()
    for k in range(len(lam)):
        assert phi_eval_cols(spec, lam[k : k + 1].T.copy()).tobytes() == cols[:, k].tobytes()


def test_phi_rejects_negative_rates():
    with pytest.raises(ValueError):
        phi_eval(BranchingSpec(), (-0.1, 0.0))


def test_measure_moment_examples():
    assert JumpMeasure(atoms=[Atom2D(2.0, 1.0, 3.0)]).moment(2, 1) == 6.0
    assert JumpMeasure().moment(1, 0) == 0.0
    par = JumpMeasure(tails=[AxisTail(1, "pareto", 1.0, 4.0, 1.0)])
    assert par.moment(2, 0) == pytest.approx(2.0)
    assert math.isinf(par.moment(4, 0))


def test_tail_vs_atom_discretization_consistency():
    """A fine atom discretization of a density reproduces its moments."""
    tail = AxisTail(1, "exponential", 0.9, 2.0, 0.1)
    m_tail = JumpMeasure(tails=[tail])
    edges = np.linspace(0.1, 30.0, 60_001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    masses = tail.mass * tail.shape * np.exp(-tail.shape * (mids - tail.x0)) * np.diff(edges)
    atoms = [Atom2D(float(w), float(z), 0.0) for w, z in zip(masses, mids) if w > 0]
    m_atoms = JumpMeasure(atoms=atoms)
    for r in (1, 2, 3):
        assert m_atoms.moment(r, 0) == pytest.approx(m_tail.moment(r, 0), rel=1e-6)


def test_effective_drift_examples():
    assert np.array_equal(
        effective_drift_matrix(BranchingSpec(b11=1.0, b12=-1.0, b21=-2.0, b22=3.0)),
        np.array([[1.0, -1.0], [-2.0, 3.0]]),
    )
    spec = BranchingSpec(m2=JumpMeasure(atoms=[Atom2D(1.0, 0.5, 0.0)]))
    btil = effective_drift_matrix(spec)
    assert btil[1, 0] == -0.5
    assert btil[0, 0] == btil[0, 1] == btil[1, 1] == 0.0
    spec = BranchingSpec(
        b11=1.0, b12=-1.0, b21=-2.0, b22=3.0, m1=JumpMeasure(atoms=[Atom2D(2.0, 0.0, 1.0)])
    )
    assert effective_drift_matrix(spec)[0, 1] == -3.0


def test_off_diagonal_sign_constraint():
    with pytest.raises(ValueError):
        BranchingSpec(b12=0.1)
    with pytest.raises(ValueError):
        BranchingSpec(b21=0.2)
    with pytest.raises(ValueError):
        BranchingSpec(c1=-0.1)


def test_compensator_moments_respect_truncation():
    m1 = JumpMeasure(atoms=[Atom2D(0.6, 0.5, 0.4), Atom2D(0.25, 3.0, 0.0)])
    spec = BranchingSpec(m1=m1)
    full = np.diag(kept_jump_means(spec))
    capped = np.diag(kept_jump_means(spec, norm_cap(2.0)))
    assert full[0] == pytest.approx(0.6 * 0.5 + 0.25 * 3.0)
    assert capped[0] == pytest.approx(0.6 * 0.5)
    sq = np.diag(kept_jump_means(spec, unit_square()))
    assert sq[0] == pytest.approx(0.6 * 0.5)
    assert kept_jump_means(spec, norm_cap(2.0))[0, 1] == pytest.approx(0.6 * 0.4)
