"""The two-type branching mechanism: phi, jump moments, effective drift.

The mechanism is a pair phi = (phi_1, phi_2) built from a drift matrix b
(off-diagonals <= 0), diffusion coefficients c1, c2 and two jump
measures m1, m2 on the quadrant.  Mixed jump moments have closed forms
per component, so finiteness questions get exact answers.
"""

import numpy as np

from cbre2 import (
    Atom2D,
    AxisTail,
    BranchingSpec,
    JumpMeasure,
    effective_drift_matrix,
    phi_eval,
)

spec = BranchingSpec(
    b11=0.3,
    b12=-0.2,
    b21=-0.1,
    b22=0.4,
    c1=0.15,
    c2=0.1,
    m1=JumpMeasure(atoms=[Atom2D(0.4, 0.3, 0.2), Atom2D(0.1, 1.2, 0.5)]),
    m2=JumpMeasure(
        atoms=[Atom2D(0.5, 0.25, 0.5)],
        tails=[AxisTail(1, "pareto", 0.4, 3.5, 1.0)],
    ),
)

print("phi at a few rate pairs:")
for lam in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (2.0, 1.0)]:
    p1, p2 = phi_eval(spec, lam)
    print(f"  phi{lam} = ({p1:+.6f}, {p2:+.6f})")

print("\nmixed moments of m2 (Pareto index 3.5 on the first coordinate):")
for r, s in [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1)]:
    print(f"  mu2({r},{s}) = {spec.m2.moment(r, s)}")
# orders >= 3.5 on the Pareto axis diverge: reported as inf, not an error

print("\neffective drift matrix (off-diagonals corrected by cross-moments):")
print(np.array2string(effective_drift_matrix(spec), precision=6))
print("raw drift matrix:")
print(np.array2string(spec.b, precision=6))
