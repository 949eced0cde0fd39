"""Truncation predicates: rules that zero out disallowed jumps.

This module alone says which jumps a truncated system keeps.  The
branching rule keeps a jump z iff |z| <= k (norm_cap), iff z lies in the
unit square (unit_square), or always (none); `KeepMask` states it, for
several rules at once.  The environment rule clips
positive environment jumps above `env_clip`; `inf` means no clipping.
`env_clip` is the only stored environment clip level: `LevyEnvSpec` is
the untruncated environment, and the functions that clip take the level
as an argument.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def _mask(self) -> KeepMask:
        return KeepMask((self,))

    def keep(self, z: np.ndarray) -> np.ndarray:
        """Boolean mask of kept jumps for an (n, 2) array: the one row of its `KeepMask`."""
        return self._mask(np.atleast_2d(z))[0]


class KeepMask:
    """Which jumps each of several branching rules keeps, for all the rules at once.

    Called on a (k, 2) array of jumps, it returns a (len(rules), k) mask
    whose row v is what rules[v] keeps: one norm serves every norm cap
    (the rule `none` is the cap inf) and one unit-square test every
    unit_square rule.  `drops` is whether some rule can drop a jump.
    """

    def __init__(self, rules):
        self.caps = np.array([[r.k if r.kind == NORM_CAP else math.inf] for r in rules])
        square = [[r.kind == UNIT_SQUARE] for r in rules]
        self.square = np.array(square) if any(sq for sq, in square) else None
        self.drops = any(r.kind != NONE for r in rules)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z1, z2 = z[:, 0], z[:, 1]
        keep = np.hypot(z1, z2) <= self.caps
        if self.square is not None:
            keep &= ~self.square | ((z1 <= 1.0) & (z2 <= 1.0))
        return keep


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
