import math

import numpy as np
import pytest

from cbre2.branching import (
    BranchingSpec,
    compensator_moments,
    effective_drift_matrix,
    phi_eval,
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
    full = compensator_moments(spec)
    capped = compensator_moments(spec, norm_cap(2.0))
    assert full[0] == pytest.approx(0.6 * 0.5 + 0.25 * 3.0)
    assert capped[0] == pytest.approx(0.6 * 0.5)
    sq = compensator_moments(spec, unit_square())
    assert sq[0] == pytest.approx(0.6 * 0.5)
