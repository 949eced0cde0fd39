"""Finite-activity jump measures with exact samplers and analytic moment oracles.

Two kinds are provided: measures on the real line (driving the random
environment) and measures on the nonnegative quadrant (driving branching
jumps).  Both are sums of atoms and parametric tail components; the tail
families (Pareto, exponential) have closed-form moment and finiteness
rules, so divergence decisions are exact rather than numeric guesses.
Quadrature is only used for finite values, never to decide finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad

from .errors import DivergentCrossMoment

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)

EXPONENTIAL = "exponential"
PARETO = "pareto"


def _quad(f, lo, hi):
    val, _ = quad(f, lo, hi, **_QUAD_OPTS)
    return val


def _exp_rem2(z):
    """e^{-z} - 1 + z for z >= 0; a Taylor series below 0.5, where the terms cancel."""
    zs = np.minimum(z, 0.5)
    acc = np.ones_like(zs)
    for k in range(18, 2, -1):  # z^2/2 (1 - z/3 (1 - z/4 (...)))
        acc = 1.0 - zs * acc / k
    return np.where(z < 0.5, 0.5 * zs * zs * acc, np.expm1(-z) + z)


def _expint(p: float, z):
    """E_p(z) = z^{p-1} Gamma(1-p, z), z > 0: from exp1 (integer p) or gammaincc at
    1 - q in [1.5, 2.5), where it is fast, raised by E_{q+1} = (e^{-z} - z E_q) / q,
    i.e. Gamma(s, z) = (Gamma(s+1, z) - z^s e^{-z}) / s stepped down and scaled."""
    if p == int(p):
        q, e = 1.0, special.exp1(z)
    else:
        q = p - math.ceil(p + 0.5)
        e = z ** (q - 1.0) * special.gammaincc(1.0 - q, z) * special.gamma(1.0 - q)
    ez = np.exp(-z)
    while q < p:
        e = (ez - z * e) / q
        q += 1.0
    return e


# ---------------------------------------------------------------------------
# Measures on the real line (environment)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom1D:
    """Point mass at z != 0."""

    mass: float
    z: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("atom mass must be > 0")
        if self.z == 0:
            raise ValueError("atom at 0 is not a jump")


@dataclass(frozen=True)
class Tail1D:
    """Parametric density on one half line.

    side=+1 supports (x0, inf) with density mass * (normalized family
    density in the magnitude coordinate); side=-1 mirrors it to
    (-inf, -x0).  family 'exponential' has rate `shape`, 'pareto' has
    index `shape` (and requires x0 > 0).
    """

    family: str
    mass: float
    shape: float
    x0: float = 0.0
    side: int = 1

    def __post_init__(self):
        if self.family not in (EXPONENTIAL, PARETO):
            raise ValueError(f"unknown tail family {self.family!r}")
        if self.mass <= 0 or self.shape <= 0:
            raise ValueError("tail mass and shape must be > 0")
        if self.side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        if self.x0 < 0 or (self.family == PARETO and self.x0 <= 0):
            raise ValueError("invalid tail cutoff x0")

    def density_mag(self, y):
        """Density in the magnitude coordinate y > x0 (integrates to mass)."""
        y = np.asarray(y, dtype=float)
        if self.family == EXPONENTIAL:
            return self.mass * self.shape * np.exp(-self.shape * (y - self.x0))
        a = self.shape
        return self.mass * a * self.x0**a * y ** (-a - 1.0)

    def integrate_mag(self, g, lo, hi=math.inf):
        """Integral of g against the density over magnitudes (lo, hi)."""
        lo = max(lo, self.x0)
        if hi <= lo:
            return 0.0
        return _quad(lambda y: g(y) * float(self.density_mag(y)), lo, hi)

    def sample_mag(self, rng, size):
        if self.family == EXPONENTIAL:
            return self.x0 + rng.exponential(1.0 / self.shape, size)
        return self.x0 * (1.0 + rng.pareto(self.shape, size))


class JumpMeasure1D:
    """Levy measure on the real line: atoms plus one-sided tail densities."""

    def __init__(self, atoms=(), tails=()):
        self.atoms = tuple(atoms)
        self.tails = tuple(tails)
        self._mass = math.fsum(a.mass for a in self.atoms) + math.fsum(
            t.mass for t in self.tails
        )

    def __repr__(self):
        return f"JumpMeasure1D(atoms={self.atoms!r}, tails={self.tails!r})"

    @property
    def is_zero(self) -> bool:
        return self._mass == 0.0

    def total_mass(self) -> float:
        return self._mass

    def mean_small(self) -> float:
        """Integral of z over |z| <= 1 (compensator drift of the small jumps)."""
        out = math.fsum(a.mass * a.z for a in self.atoms if abs(a.z) <= 1.0)
        for t in self.tails:
            if t.x0 < 1.0:
                out += t.side * t.integrate_mag(lambda y: y, t.x0, 1.0)
        return out

    def small_exp_integral(self, n: float) -> float:
        """Integral of (e^{nz} - 1 - nz) over the compensated region |z| <= 1."""
        total = math.fsum(
            a.mass * (math.exp(n * a.z) - 1.0 - n * a.z)
            for a in self.atoms
            if abs(a.z) <= 1.0
        )
        for t in self.tails:
            if t.x0 < 1.0:
                sgn = t.side
                total += t.integrate_mag(
                    lambda y: math.exp(n * sgn * y) - 1.0 - n * sgn * y, t.x0, 1.0
                )
        return total

    def exp_integral(self, n: float, clip: float = math.inf) -> float:
        """Jump part of the integer Laplace exponent at order n.

        Returns integral of (e^{nz} - 1 - nz) over |z| <= 1 plus
        (e^{n z 1{z<=clip}} - 1) over |z| > 1; math.inf when the positive
        tail makes the second part diverge.  Positive jumps above `clip`
        contribute zero (their effective jump is removed).
        """
        total = 0.0
        for a in self.atoms:
            if abs(a.z) <= 1.0:
                total += a.mass * (math.exp(n * a.z) - 1.0 - n * a.z)
            elif a.z < 0 or a.z <= clip:
                total += a.mass * (math.exp(n * a.z) - 1.0)
            # positive atom above clip: effective jump 0 contributes nothing
        for t in self.tails:
            total += self._tail_exp_integral(t, n, clip)
        return total

    @staticmethod
    def _tail_exp_integral(t: Tail1D, n: float, clip: float) -> float:
        sgn = t.side
        out = 0.0
        if t.x0 < 1.0:
            out += t.integrate_mag(
                lambda y: math.exp(n * sgn * y) - 1.0 - n * sgn * y, t.x0, 1.0
            )
        lo = max(t.x0, 1.0)
        if sgn < 0:
            # negative large jumps: integrand in (-1, 0), always finite
            return out + t.integrate_mag(lambda y: math.exp(-n * y) - 1.0, lo)
        hi = clip
        if hi <= lo:
            return out
        if not math.isfinite(hi):
            if n == 0:
                return out
            if t.family == PARETO or (t.family == EXPONENTIAL and n >= t.shape):
                return math.inf
            # exponential tail, n < rate: closed form
            th = t.shape
            val = t.mass * th * math.exp(th * t.x0) * (
                math.exp(-(th - n) * lo) / (th - n) - math.exp(-th * lo) / th
            )
            return out + val
        return out + t.integrate_mag(lambda y: math.exp(n * y) - 1.0, lo, hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` raw jump sizes from the normalized measure."""
        if size == 0 or self._mass == 0.0:
            return np.zeros(size)
        comps = list(self.atoms) + list(self.tails)
        weights = np.array([c.mass for c in comps])
        cum = np.cumsum(weights)
        idx = np.searchsorted(cum, rng.random(size) * self._mass, side="right")
        idx = np.minimum(idx, len(comps) - 1)
        out = np.empty(size)
        for k, c in enumerate(comps):
            sel = idx == k
            m = int(sel.sum())
            if m == 0:
                continue
            if isinstance(c, Atom1D):
                out[sel] = c.z
            else:
                out[sel] = c.side * c.sample_mag(rng, m)
        return out


ZERO_MEASURE_1D = JumpMeasure1D()


# ---------------------------------------------------------------------------
# Measures on the nonnegative quadrant (branching)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom2D:
    """Point mass at (z1, z2) >= 0, not both zero."""

    mass: float
    z1: float
    z2: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("atom mass must be > 0")
        if self.z1 < 0 or self.z2 < 0 or (self.z1 == 0 and self.z2 == 0):
            raise ValueError("atom must lie in the quadrant minus the origin")

    @property
    def norm(self) -> float:
        return math.hypot(self.z1, self.z2)


@dataclass(frozen=True)
class AxisTail:
    """Tail density supported on one coordinate axis of the quadrant.

    axis=1 puts magnitude z on the first coordinate (second is 0), axis=2
    the reverse.  On an axis the Euclidean norm equals the magnitude, so
    norm truncations reduce to an upper bound on z.
    """

    axis: int
    family: str
    mass: float
    shape: float
    x0: float

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if self.family not in (EXPONENTIAL, PARETO):
            raise ValueError(f"unknown tail family {self.family!r}")
        if self.mass <= 0 or self.shape <= 0:
            raise ValueError("tail mass and shape must be > 0")
        if self.x0 < 0 or (self.family == PARETO and self.x0 <= 0):
            raise ValueError("invalid tail cutoff x0")

    def density_mag(self, y):
        y = np.asarray(y, dtype=float)
        if self.family == EXPONENTIAL:
            return self.mass * self.shape * np.exp(-self.shape * (y - self.x0))
        a = self.shape
        return self.mass * a * self.x0**a * y ** (-a - 1.0)

    def moment_mag(self, r: int, bound: float = math.inf) -> float:
        """Integral of y^r over magnitudes (x0, bound); inf when divergent."""
        if bound <= self.x0:
            return 0.0
        if self.family == PARETO:
            a = self.shape
            if math.isinf(bound):
                if r >= a:
                    return math.inf
                return self.mass * a * self.x0**r / (a - r)
            if r == a:
                return self.mass * a * self.x0**a * math.log(bound / self.x0)
            c = self.mass * a * self.x0**a / (r - a)
            return c * (bound ** (r - a) - self.x0 ** (r - a))
        th = self.shape
        if math.isinf(bound):
            # moments of x0 + Exp(th)
            return self.mass * math.fsum(
                math.comb(r, i) * self.x0 ** (r - i) * math.factorial(i) / th**i
                for i in range(r + 1)
            )
        return self.mass * _quad(
            lambda y: y**r * th * math.exp(-th * (y - self.x0)), self.x0, bound
        )

    def sample_mag(self, rng, size):
        if self.family == EXPONENTIAL:
            return self.x0 + rng.exponential(1.0 / self.shape, size)
        return self.x0 * (1.0 + rng.pareto(self.shape, size))

    def laplace_part(self, lam, compensated: bool):
        """E[e^{-lam Y} - 1 (+ lam Y when compensated)] for the normalized magnitude Y.

        Pareto, z = lam x0: alpha E_{alpha+1}(z) - 1 = expm1(-z) - z E_alpha(z),
        plus lam E[Y] = g(z) + z (-expm1(-z) + z E_{alpha-1}(z)) / (alpha-1) with
        g(z) = e^{-z} - 1 + z: like-signed terms, so the O(lam) parts never cancel.
        """
        z = lam * self.x0
        if self.family == EXPONENTIAL:
            th = self.shape
            if compensated:
                return (th * _exp_rem2(z) + lam**2 * (self.x0 + 1.0 / th)) / (th + lam)
            return (th * np.expm1(-z) - lam) / (th + lam)
        a = self.shape
        zp = np.maximum(z, 1e-100)  # below that, the absolute error is under 1e-100
        if compensated:
            val = _exp_rem2(zp) + zp * (-np.expm1(-zp) + zp * _expint(a - 1.0, zp)) / (a - 1.0)
        else:
            val = np.expm1(-zp) - zp * _expint(a, zp)
        return np.where(z > 0, val, 0.0)


class JumpMeasure:
    """Branching jump measure: atoms plus axis-supported tail densities.

    Validity (finite first moments in both coordinates, which for
    finite-activity measures is the standard integrability requirement on
    branching jump measures) is enforced at construction; pass
    ``validate=False`` to build a deliberately divergent measure for
    error-path testing.
    """

    def __init__(self, atoms=(), tails=(), validate=True):
        self.atoms = tuple(atoms)
        self.tails = tuple(tails)
        self._mass = math.fsum(a.mass for a in self.atoms) + math.fsum(
            t.mass for t in self.tails
        )
        if validate:
            if math.isinf(self.moment(1, 0)) or math.isinf(self.moment(0, 1)):
                raise DivergentCrossMoment(
                    "jump measure must have finite first moments in both coordinates"
                )

    def __repr__(self):
        return f"JumpMeasure(atoms={self.atoms!r}, tails={self.tails!r})"

    @property
    def is_zero(self) -> bool:
        return self._mass == 0.0

    def total_mass(self) -> float:
        return self._mass

    def moment(self, r: int, s: int, cap: float = math.inf, square: bool = False) -> float:
        """Mixed moment: integral of z1^r z2^s over the kept region.

        The kept region is {|z| <= cap} intersected with [0,1]^2 when
        `square` is set (|.| Euclidean).  Returns math.inf when a tail
        component diverges at that order; divergence is a value here, not
        an error.
        """
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("moment orders must be nonnegative with r+s >= 1")
        total = 0.0
        for a in self.atoms:
            if a.norm <= cap and (not square or (a.z1 <= 1.0 and a.z2 <= 1.0)):
                total += a.mass * a.z1**r * a.z2**s
        for t in self.tails:
            other = s if t.axis == 1 else r
            if other >= 1:
                continue  # off-axis coordinate is 0
            own = r if t.axis == 1 else s
            bound = min(cap, 1.0) if square else cap
            val = t.moment_mag(own, bound)
            if math.isinf(val):
                return math.inf
            total += val
        return total

    def moment_is_finite(self, r: int, s: int, cap: float = math.inf) -> bool:
        if math.isfinite(cap):
            return True
        for t in self.tails:
            other = s if t.axis == 1 else r
            own = r if t.axis == 1 else s
            if other == 0 and t.family == PARETO and own >= t.shape:
                return False
        return True

    def norm_moment_finite(self, n: int, cap: float = math.inf) -> bool:
        """Whether the integral of |z|^n is finite under a norm cap."""
        if math.isfinite(cap):
            return True
        # on an axis |z| is the magnitude itself
        return all(
            not (t.family == PARETO and n >= t.shape) for t in self.tails
        )

    def phi_integral(self, lam1, lam2, own_axis: int):
        """Integral of (e^{-<lam, z>} - 1 + lam_own * z_own) over the measure.

        own_axis selects which coordinate carries the linear compensation
        term (1 for the first mechanism component, 2 for the second).
        Closed form for atoms and both tail families; rates may be arrays,
        which broadcast, and scalar rates give a float.
        """
        lown = lam1 if own_axis == 1 else lam2
        total = 0.0
        for a in self.atoms:
            zown = a.z1 if own_axis == 1 else a.z2
            total = total + a.mass * (np.exp(-(lam1 * a.z1 + lam2 * a.z2)) - 1.0 + lown * zown)
        for t in self.tails:
            total = total + t.mass * t.laplace_part(lam1 if t.axis == 1 else lam2, t.axis == own_axis)
        return total if np.ndim(total) else float(total)
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` jumps as an (size, 2) array from the normalized measure."""
        out = np.zeros((size, 2))
        if size == 0 or self._mass == 0.0:
            return out
        comps = list(self.atoms) + list(self.tails)
        weights = np.array([c.mass for c in comps])
        cum = np.cumsum(weights)
        idx = np.searchsorted(cum, rng.random(size) * self._mass, side="right")
        idx = np.minimum(idx, len(comps) - 1)
        for k, c in enumerate(comps):
            sel = idx == k
            m = int(sel.sum())
            if m == 0:
                continue
            if isinstance(c, Atom2D):
                out[sel, 0] = c.z1
                out[sel, 1] = c.z2
            else:
                out[sel, c.axis - 1] = c.sample_mag(rng, m)
        return out


ZERO_MEASURE_2D = JumpMeasure()
