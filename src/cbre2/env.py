"""The Levy random environment: spec, integer exponential moments, path sampling.

The canonical parameter is the drift `a` of the additive environment xi;
the drift of the multiplicative driver L is derived from it so that
e^{xi} is exactly the stochastic exponential of L.  Only finite-activity
jump measures are sampled.  The spec is the untruncated environment; a
function that clips takes the level as `clip` (a truncated system's
`TruncationPredicate.env_clip`), and positive jumps above it become 0,
i.e. the multiplier becomes 1.  `env_increments` makes every draw of the
environment; a skeleton holds only the seed that a path replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentExponent, ExponentOverflow, InvalidStep, MassOverflow
from .measures import ZERO_MEASURE_1D, JumpMeasure1D

DEFAULT_JUMP_CAP = 1e6


@dataclass(frozen=True)
class LevyEnvSpec:
    """The untruncated environment triplet (a, sigma1, nu)."""

    a: float = 0.0
    sigma1: float = 0.0
    nu: JumpMeasure1D = field(default_factory=lambda: ZERO_MEASURE_1D)

    def __post_init__(self):
        if self.sigma1 < 0:
            raise ValueError("sigma1 must be >= 0")


def levy_exponent(spec: LevyEnvSpec, n: int, clip: float = math.inf) -> float:
    """Integer Laplace exponent: E e^{n xi(t)} = e^{beta(n) t}.

    beta(n) = a n + sigma1^2 n^2 / 2 + integral terms, with positive
    large jumps above `clip` removed.  Raises DivergentExponent when an
    unclipped tail makes the large-jump integral infinite, and
    ExponentOverflow when the integral is finite but overflows a float.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    try:
        jump = spec.nu.exp_integral(float(n), clip=clip)
    except OverflowError as e:
        raise ExponentOverflow(f"beta({n}) leaves the float range") from e
    if math.isinf(jump):
        raise DivergentExponent(
            f"integral of e^({n}z) over the positive environment tail diverges"
        )
    beta = spec.a * n + 0.5 * spec.sigma1**2 * n**2 + jump
    if not math.isfinite(beta):
        raise ExponentOverflow(f"beta({n}) leaves the float range")
    return beta


@dataclass
class EnvPath:
    """A sampled environment path on the base grid, at one clip level.

    Partial sums of `xi_increments` reconstruct xi exactly at grid points
    for the sampled jump set; the per-interval environment multiplier is
    exp(increment).
    """

    grid: np.ndarray
    xi_increments: np.ndarray

    def xi_values(self) -> np.ndarray:
        """xi at every grid point (xi(0) = 0)."""
        return np.concatenate(([0.0], np.cumsum(self.xi_increments)))


@dataclass
class EnvSkeleton:
    """One environment path before truncation: its base grid and the seed of its draws.

    Every clip level realized from one skeleton replays the same draws, so
    coupled variants differ only through the clipping rule.
    """

    grid: np.ndarray
    step: float
    seed: int


def effective_jump(z, clip):
    """Clipped contribution of an environment jump: z, unless z > clip."""
    z = np.asarray(z, dtype=float)
    keep = (np.abs(z) <= 1.0) | (z < 0) | (z <= clip)
    return np.where(keep, z, 0.0)


def _base_grid(horizon: float, step: float) -> np.ndarray:
    if step <= 0:
        raise InvalidStep("step must be > 0")
    if step > horizon:
        raise InvalidStep("step must be <= horizon")
    m = int(math.floor(horizon / step + 1e-9))
    grid = step * np.arange(m + 1)
    if horizon - grid[-1] > 1e-12 * max(1.0, horizon):
        grid = np.append(grid, horizon)
    else:
        grid[-1] = horizon
    return grid


def sample_env_skeleton(
    spec: LevyEnvSpec,
    horizon: float,
    step: float,
    rng: np.random.Generator,
) -> EnvSkeleton:
    """The base grid of [0, horizon] and one seed drawn from `rng`."""
    return EnvSkeleton(_base_grid(horizon, step), step, int(rng.integers(2**63)))


def realize_env_path(spec: LevyEnvSpec, skel: EnvSkeleton, clip: float = math.inf) -> EnvPath:
    """One path of `env_increments` at the skeleton's seed, positive jumps above `clip` removed."""
    incs = env_increments(spec, skel.grid, skel.step, 1, np.random.default_rng(skel.seed), clip)
    return EnvPath(skel.grid, np.hstack(list(incs)))


def sample_env_path(
    spec: LevyEnvSpec,
    horizon: float,
    step: float,
    rng: np.random.Generator,
) -> EnvPath:
    """Sample one untruncated environment path on the base grid."""
    return realize_env_path(spec, sample_env_skeleton(spec, horizon, step, rng))


def env_increments(
    spec: LevyEnvSpec,
    grid: np.ndarray,
    step: float,
    n_paths: int,
    rng: np.random.Generator,
    clip: float = math.inf,
):
    """Yield the increment of xi over each interval of `grid`, positive jumps above `clip` removed.

    An increment is an (n_paths,) array, or a float when it is equal on every
    path.  The Gaussian part is drawn per interval.  Jumps are drawn per path
    once per window of floor(1 / (lambda * step)) intervals, after the window's
    first Gaussian, with uniform times, which makes the per-interval counts
    exactly Poisson; they are bucketed by interval with one sort, so memory
    stays O(n_paths).  Jumps are clipped as in `effective_jump`, so one seed
    at two clips gives the same draws.  Raises MassOverflow when first
    advanced if the expected jump count per path over the grid exceeds
    DEFAULT_JUMP_CAP.
    """
    n_int = len(grid) - 1
    lam = spec.nu.total_mass()
    expected = lam * (grid[-1] - grid[0])
    if expected > DEFAULT_JUMP_CAP:
        raise MassOverflow(
            f"expected environment jump count {expected:.3g} exceeds cap {DEFAULT_JUMP_CAP:.3g}"
        )
    drift = spec.a - spec.nu.mean_small()
    width = max(1, min(n_int, math.floor(1.0 / (lam * step)))) if lam > 0 else n_int
    for m in range(n_int):
        h = grid[m + 1] - grid[m]
        dxi = drift * h
        if spec.sigma1 > 0:
            dxi = dxi + spec.sigma1 * math.sqrt(h) * rng.standard_normal(n_paths)
        if lam > 0 and m % width == 0:
            m0, m1 = m, min(m + width, n_int)
            t0, t1 = grid[m0], grid[m1]
            counts = rng.poisson(lam * (t1 - t0), n_paths)
            n = int(counts.sum())
            times = t0 + (t1 - t0) * rng.random(n)
            sizes = spec.nu.sample(rng, n)
            interval = np.clip(np.searchsorted(grid, times, side="right") - 1, m0, m1 - 1)
            order = np.argsort(interval, kind="stable")
            paths = np.repeat(np.arange(n_paths), counts)[order]
            sizes = sizes[order]
            bounds = np.searchsorted(interval[order], np.arange(m0, m1 + 1))
        lo, hi = (bounds[m - m0], bounds[m - m0 + 1]) if lam > 0 else (0, 0)
        if lo < hi:
            dxi = dxi + np.zeros(n_paths)
            np.add.at(dxi, paths[lo:hi], effective_jump(sizes[lo:hi], clip))
        yield dxi


def sample_xi_terminal(
    spec: LevyEnvSpec,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized exact-in-law sample of the untruncated xi(horizon) for many paths."""
    xi = next(env_increments(spec, np.array([0.0, horizon]), horizon, n_paths, rng))
    return xi + np.zeros(n_paths)
