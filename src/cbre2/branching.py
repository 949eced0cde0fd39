"""Two-type branching mechanism: drift matrix, diffusion, jump measures.

Evaluates the mechanism pair phi = (phi_1, phi_2), mixed jump moments,
and the effective drift matrix that corrects the off-diagonal entries by
the first cross-moments of the jump measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import ZERO_MEASURE_2D, JumpMeasure
from .truncation import IDENTITY, TruncationPredicate


@dataclass(frozen=True)
class BranchingSpec:
    """Parameters (b, c1, c2, m1, m2) of the two-type mechanism.

    Off-diagonal drift entries must be <= 0; the sign convention is the
    one in which the drift term of the state equation is -(b^T x).
    """

    b11: float = 0.0
    b12: float = 0.0
    b21: float = 0.0
    b22: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    m1: JumpMeasure = field(default_factory=lambda: ZERO_MEASURE_2D)
    m2: JumpMeasure = field(default_factory=lambda: ZERO_MEASURE_2D)

    def __post_init__(self):
        if self.b12 > 0 or self.b21 > 0:
            raise ValueError("off-diagonal drift entries must be <= 0")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("diffusion coefficients must be >= 0")

    @property
    def b(self) -> np.ndarray:
        return np.array([[self.b11, self.b12], [self.b21, self.b22]])


def phi_eval(spec: BranchingSpec, lam) -> tuple[float, float]:
    """Evaluate (phi_1, phi_2) at a pair of nonnegative rates."""
    lam1, lam2 = float(lam[0]), float(lam[1])
    if lam1 < 0 or lam2 < 0:
        raise ValueError("phi is defined for nonnegative arguments")
    phi1, phi2 = phi_eval_vec(spec, np.array([[lam1, lam2]]))[0]
    return float(phi1), float(phi2)


def phi_eval_vec(spec: BranchingSpec, lam: np.ndarray) -> np.ndarray:
    """Vectorized mechanism evaluation for (n, 2) arrays of nonnegative rates."""
    out = lam @ spec.b.T + lam**2 * (spec.c1, spec.c2)
    l1, l2 = lam[:, 0], lam[:, 1]
    if not spec.m1.is_zero:
        out[:, 0] += spec.m1.phi_integral(l1, l2, own_axis=1)
    if not spec.m2.is_zero:
        out[:, 1] += spec.m2.phi_integral(l1, l2, own_axis=2)
    return out


def effective_drift_matrix(
    spec: BranchingSpec, truncation: TruncationPredicate = IDENTITY
) -> np.ndarray:
    """Drift matrix with off-diagonals corrected by first cross-moments.

    b~_12 = b_12 - integral of z2 over m1, b~_21 = b_21 - integral of z1
    over m2, both over the jumps the truncation keeps; diagonal entries
    are unchanged.
    """
    rule = truncation.branching
    mu1_z2 = spec.m1.moment(0, 1, rule)
    mu2_z1 = spec.m2.moment(1, 0, rule)
    return np.array(
        [[spec.b11, spec.b12 - mu1_z2], [spec.b21 - mu2_z1, spec.b22]]
    )


def compensator_moments(
    spec: BranchingSpec, predicate: TruncationPredicate = IDENTITY
) -> tuple[float, float]:
    """First own-coordinate moments of the kept jump regions.

    These are the drift corrections of the compensated jump integrals:
    the z1 moment of m1 and the z2 moment of m2, both restricted to the
    jumps the predicate keeps.
    """
    mu1 = spec.m1.moment(1, 0, predicate.branching)
    mu2 = spec.m2.moment(0, 1, predicate.branching)
    return mu1, mu2
