"""Two-type branching mechanism: drift matrix, diffusion, jump measures.

Evaluates the mechanism pair phi = (phi_1, phi_2), mixed jump moments,
and the effective drift matrix that corrects the off-diagonal entries by
the first cross-moments of the jump measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .measures import ZERO_MEASURE_2D, JumpMeasure
from .truncation import IDENTITY, TruncationPredicate


class _PhiKernel(NamedTuple):
    """phi's coefficients, laid out for evaluation on a (2, n) transposed batch of rates.

    lin[j] multiplies lam_j. Its first two rows are row j of b^T + diag(the sum of
    mass * z_own over the atoms of m1, of m2), so the atoms' compensation folds into
    the drift; row 2 + k is -z_j of atom k, atoms of m1 first.  mass[k] puts atom k's
    mass in the column of its own measure (None without atoms); tails pairs each tail
    of m1, then of m2, with that column.
    """

    lin: np.ndarray  # (2, 2 + K, 1)
    c: np.ndarray  # (2, 1)
    mass: np.ndarray | None  # (K, 2, 1)
    tails: tuple


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

    @functools.cached_property
    def phi_kernel(self) -> _PhiKernel:
        """phi's coefficient arrays, built on first use (see `phi_eval_vec`)."""
        measures = (self.m1, self.m2)
        atoms = [(i, a) for i, m in enumerate(measures) for a in m.atoms]
        lin = np.zeros((2, 2 + len(atoms), 1))
        own = [math.fsum(a.mass * (a.z1, a.z2)[i] for a in m.atoms) for i, m in enumerate(measures)]
        lin[:, :2, 0] = self.b.T + np.diag(own)
        mass = np.zeros((len(atoms), 2, 1))
        for k, (i, a) in enumerate(atoms):
            lin[:, 2 + k, 0] = -a.z1, -a.z2
            mass[k, i, 0] = a.mass
        tails = tuple((i, t) for i, m in enumerate(measures) for t in m.tails)
        return _PhiKernel(lin, np.array([[self.c1], [self.c2]]), mass if atoms else None, tails)


def phi_eval(spec: BranchingSpec, lam) -> tuple[float, float]:
    """Evaluate (phi_1, phi_2) at a pair of nonnegative rates."""
    lam1, lam2 = float(lam[0]), float(lam[1])
    if lam1 < 0 or lam2 < 0:
        raise ValueError("phi is defined for nonnegative arguments")
    phi1, phi2 = phi_eval_vec(spec, np.array([[lam1, lam2]]))[0]
    return float(phi1), float(phi2)


def phi_eval_vec(spec: BranchingSpec, lam: np.ndarray) -> np.ndarray:
    """Vectorized mechanism evaluation for (n, 2) arrays of nonnegative rates.

    lam @ L + c lam^2 + expm1(-lam @ Z^T) @ W plus each tail's Laplace part,
    from `BranchingSpec.phi_kernel`: a fixed handful of numpy calls however
    many atoms there are.  Every product is elementwise, summed in a fixed
    order (no BLAS call), so a row's bits do not depend on the rows beside it.
    """
    k = spec.phi_kernel
    lt = np.ascontiguousarray(lam.T)
    s = lt[0] * k.lin[0] + lt[1] * k.lin[1]  # (2 + K, n): the linear part, then -<lam, z>
    out = s[:2] + lt * lt * k.c
    if k.mass is not None:
        out += (np.expm1(s[2:, None]) * k.mass).sum(axis=0)
    for i, t in k.tails:
        out[i] += t.mass * t.laplace_part(lt[t.axis - 1], t.axis == i + 1)
    return out.T


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
