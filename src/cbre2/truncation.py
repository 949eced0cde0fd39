"""Truncation predicates: rules that zero out disallowed jumps.

This module alone says which jumps a truncated system keeps.  The
branching rule keeps a jump z iff |z| <= k (norm_cap), iff z lies in the
unit square (unit_square), or always (none).  The environment rule clips
positive environment jumps above `env_clip`; `inf` means no clipping.
`env_clip` is the only stored environment clip level: `LevyEnvSpec` is
the untruncated environment, and the functions that clip take the level
as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NONE = "none"
NORM_CAP = "norm_cap"
UNIT_SQUARE = "unit_square"


@dataclass(frozen=True)
class BranchingRule:
    kind: str = NONE
    k: float = math.inf

    def __post_init__(self):
        if self.kind not in (NONE, NORM_CAP, UNIT_SQUARE):
            raise ValueError(f"unknown branching rule {self.kind!r}")
        if self.kind == NORM_CAP and not (self.k > 0):
            raise ValueError("norm_cap level must be > 0")

    @property
    def axis_bound(self) -> float:
        """Largest kept magnitude of a jump on a coordinate axis."""
        if self.kind == UNIT_SQUARE:
            return 1.0
        return self.k if self.kind == NORM_CAP else math.inf

    def keeps(self, z1, z2):
        """Whether the jump (z1, z2) is kept; elementwise when given arrays."""
        if self.kind == NORM_CAP:
            return np.hypot(z1, z2) <= self.k
        if self.kind == UNIT_SQUARE:
            return (z1 <= 1.0) & (z2 <= 1.0)
        return True

    def keep(self, z: np.ndarray) -> np.ndarray:
        """Boolean mask of kept jumps for an (n, 2) array."""
        z = np.atleast_2d(z)
        if self.kind == NONE:
            return np.ones(len(z), dtype=bool)
        return self.keeps(z[:, 0], z[:, 1])


KEEP_ALL = BranchingRule(NONE)


@dataclass(frozen=True)
class TruncationPredicate:
    """Pair of rules applied to branching jumps and environment jumps."""

    branching: BranchingRule = KEEP_ALL
    env_clip: float = math.inf

    def __post_init__(self):
        if not (self.env_clip >= 1.0):
            raise ValueError("env clip level must be >= 1 (or inf)")


IDENTITY = TruncationPredicate()


def norm_cap(k: float) -> TruncationPredicate:
    return TruncationPredicate(branching=BranchingRule(NORM_CAP, k))


def unit_square() -> TruncationPredicate:
    return TruncationPredicate(branching=BranchingRule(UNIT_SQUARE))
