"""Finite-activity jump measures with exact samplers and analytic moment oracles.

Two kinds are provided: measures on the real line (driving the random
environment) and measures on the nonnegative quadrant (driving branching
jumps).  Both are sums of atoms and parametric tail components; the tail
families (Pareto, exponential) have closed-form moment and finiteness
rules, so divergence decisions are exact rather than numeric guesses.
Finite values are closed forms too, except Pareto integrals of e^{cz}
over a bounded range, which use fixed Gauss-Legendre panels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentCrossMoment, ExponentOverflow
from .truncation import KEEP_ALL, BranchingRule

EXPONENTIAL = "exponential"
PARETO = "pareto"


def _exp_rem2(z):
    """e^{-z} - 1 + z; a Taylor series for |z| below 0.5, where the terms cancel."""
    zs = np.minimum(z, 0.5)  # the series at z <= -0.5 is computed but not used
    acc = np.ones_like(zs)
    for k in range(18, 2, -1):  # z^2/2 (1 - z/3 (1 - z/4 (...)))
        acc = 1.0 - zs * acc / k
    return np.where(np.abs(z) < 0.5, 0.5 * zs * zs * acc, np.expm1(-z) + z)


def _expint(p: float, z):
    """E_p(z) = z^{p-1} Gamma(1-p, z), z > 0: from exp1 (integer p) or gammaincc at
    1 - q in [1.5, 2.5), where it is fast, raised by E_{q+1} = (e^{-z} - z E_q) / q,
    i.e. Gamma(s, z) = (Gamma(s+1, z) - z^s e^{-z}) / s stepped down and scaled."""
    from scipy import special

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


def _gamma_cdf(k: int, u: float) -> float:
    """P(Gamma(k, 1) <= u), integer k >= 1: up to u = k the Poisson tail e^{-u} sum_{j>=k}
    u^j/j!, whose positive terms fall fast; above it one less the head e^{-u} sum_{j<k}
    u^j/j!, then about one half or less, so the subtraction keeps its digits."""
    if u <= k:
        term = math.exp(-u) * u**k / math.factorial(k)
        terms = [term]
        while term > 1e-17 * terms[0]:
            term *= u / (k + len(terms))
            terms.append(term)
        return math.fsum(terms)
    if math.isinf(u):
        return 1.0
    return 1.0 - math.fsum(math.exp(j * math.log(u) - u - math.lgamma(j + 1)) for j in range(k))


@functools.cache
def _legendre20():
    from numpy.polynomial.legendre import leggauss

    return leggauss(20)


def _gauss_legendre(lo: float, hi: float, c: float):
    """Nodes and weights of 20-point Gauss-Legendre panels over (lo, hi), 0 < lo < hi.

    Each panel spans a ratio of at most e, so y^{-a-1} is analytic well beyond
    it, and a width of at most 1 / |c|, so e^{cy} varies by at most a factor e.
    """
    edges = np.union1d(
        np.geomspace(lo, hi, math.ceil(math.log(hi / lo)) + 1),
        np.linspace(lo, hi, math.ceil(abs(c) * (hi - lo)) + 1),
    )
    x, w = _legendre20()
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


class _Tail:
    """Density, sampler and truncated moments shared by the tail components.

    The density is mass times the family's normalized density in the
    magnitude y > x0: exponential with rate `shape`, or Pareto with index
    `shape` (which requires x0 > 0).
    """

    def _check_family(self):
        if self.family not in (EXPONENTIAL, PARETO):
            raise ValueError(f"unknown tail family {self.family!r}")
        if self.mass <= 0 or self.shape <= 0:
            raise ValueError("tail mass and shape must be > 0")
        if self.x0 < 0 or (self.family == PARETO and self.x0 <= 0):
            raise ValueError("invalid tail cutoff x0")

    def sample_mag(self, rng, size):
        if self.family == EXPONENTIAL:
            return self.x0 + rng.exponential(1.0 / self.shape, size)
        return self.x0 * (1.0 + rng.pareto(self.shape, size))

    def moment_mag(self, r: int, bound: float = math.inf, lo: float = 0.0) -> float:
        """Integral of y^r over magnitudes (max(lo, x0), bound); inf when divergent.

        Exponential: mass e^{-th (lo - x0)} sum_i C(r, i) lo^{r-i} i! / th^i
        P(Gamma(i+1, th) <= bound - lo), the moments of lo + Exp(th) cut at bound.
        Pareto, bounded: mass a x0^a lo^m expm1(m w) / m with m = r - a and
        w = log1p((bound - lo) / lo), or mass a x0^a w when m = 0.
        """
        lo = max(lo, self.x0)
        if bound <= lo:
            return 0.0
        if self.family == PARETO and math.isinf(bound) and r >= self.shape:
            return math.inf
        try:
            if self.family == PARETO:
                a, m = self.shape, r - self.shape
                if math.isinf(bound):
                    val = self.mass * a * self.x0**r / (a - r) * (self.x0 / lo) ** (a - r)
                else:
                    # log1p and expm1 of the relative width keep their digits when bound ~ lo
                    w = math.log1p((bound - lo) / lo)
                    val = (self.mass * a * self.x0**a * w if r == a
                           else self.mass * a * self.x0**a * lo**m * math.expm1(m * w) / m)
            else:
                th = self.shape
                u = th * (bound - lo)
                val = self.mass * math.exp(-th * (lo - self.x0)) * math.fsum(
                    math.comb(r, i) * lo ** (r - i) * math.factorial(i) / th**i * _gamma_cdf(i + 1, u)
                    for i in range(r + 1)
                )
        except (OverflowError, ZeroDivisionError):  # a power or expm1 overflows, or th**i underflows to 0
            val = math.inf
        if not math.isfinite(val):
            shape = "rate" if self.family == EXPONENTIAL else "index"
            raise ExponentOverflow(f"{self.family} tail of {shape} {self.shape:g}: order-{r} moment overflows")
        return val


class _Measure:
    """Atoms plus tail components, with their total mass and a mixture sampler.

    Two measures are equal when they have the same type, atoms and tails.
    """

    def __init__(self, atoms=(), tails=()):
        self.atoms = tuple(atoms)
        self.tails = tuple(tails)
        self._mass = math.fsum(a.mass for a in self.atoms) + math.fsum(
            t.mass for t in self.tails
        )
        self._cum = np.cumsum([c.mass for c in self.atoms + self.tails])
        # each component's jump: a tail's is 0, and its magnitudes are drawn per call
        self._table = np.array([self._jump(a) for a in self.atoms + (None,) * len(self.tails)], float)

    def __repr__(self):
        return f"{type(self).__name__}(atoms={self.atoms!r}, tails={self.tails!r})"

    def __eq__(self, other):
        return type(other) is type(self) and (self.atoms, self.tails) == (other.atoms, other.tails)

    def __hash__(self):
        return hash((type(self), self.atoms, self.tails))

    @property
    def is_zero(self) -> bool:
        return self._mass == 0.0

    def total_mass(self) -> float:
        return self._mass

    def _draws(self, rng: np.random.Generator, size: int):
        """Pick components by mass: the table's jumps, and (tail, mask, count) per tail picked."""
        if size == 0 or self._mass == 0.0:
            return np.zeros((size,) + np.shape(self._jump(None))), []
        idx = self._cum.searchsorted(rng.random(size) * self._mass, side="right")
        np.minimum(idx, len(self._cum) - 1, out=idx)
        picked = []
        for k, t in enumerate(self.tails, len(self.atoms)):
            sel = idx == k
            m = int(np.count_nonzero(sel))
            if m:
                picked.append((t, sel, m))
        return self._table[idx], picked


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
class Tail1D(_Tail):
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
        self._check_family()
        if self.side not in (1, -1):
            raise ValueError("side must be +1 or -1")

    def integrate_exp(self, c: float, order: int, lo: float, hi: float = math.inf) -> float:
        """Integral of e^{cy} less its Taylor terms of degree < order (1 or 2) against
        the density over magnitudes (max(lo, x0), hi); inf when it diverges.

        Exponential tails are elementary (c = rate is the linear case); Pareto
        tails over (lo, inf) with c < 0 use mass (x0/lo)^a (a E_{a+1}(u) - 1),
        u = -c lo, and over a bounded range Gauss-Legendre panels, with
        e^{cy} - 1 - cy evaluated without cancellation.
        """
        lo = max(lo, self.x0)
        if hi <= lo or c == 0:
            return 0.0
        lin = c * self.moment_mag(1, hi, lo) if order == 2 else 0.0
        if self.family == EXPONENTIAL:
            th, k, d = self.shape, c - self.shape, hi - lo
            # integral of e^{k e} over (0, d): c equal to the rate is the linear case,
            # and d = inf gives -1/k for k < 0 and inf (divergence) otherwise
            head = d if k == 0 else math.expm1(k * d) / k
            val = self.mass * th * math.exp(c * lo - th * (lo - self.x0)) * head
            return val - self.moment_mag(0, hi, lo) - lin
        a = self.shape
        if math.isinf(hi):
            if c > 0:
                return math.inf
            u = -c * lo
            e = float(np.expm1(-u) - u * _expint(a, u))  # a E_{a+1}(u) - 1
            return self.mass * (self.x0 / lo) ** a * e - lin
        if c > 0 and c * (hi - lo) >= 1.0:  # the last 1/c of the range alone overflows
            log_last = c * hi - 1.0 + math.log(self.mass * a / c) + a * math.log(self.x0)
            if log_last - (a + 1.0) * math.log(hi) > 710.0:
                raise OverflowError("tail integral leaves the float range")
        y, w = _gauss_legendre(lo, hi, c)
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.expm1(c * y) if order == 1 else _exp_rem2(-c * y)
            val = self.mass * a * self.x0**a * float(np.sum(w * y ** (-a - 1.0) * g))
        if not math.isfinite(val):
            raise OverflowError("tail integral leaves the float range")
        return val


class JumpMeasure1D(_Measure):
    """Levy measure on the real line: atoms plus one-sided tail densities."""

    def mean_small(self) -> float:
        """Integral of z over |z| <= 1 (compensator drift of the small jumps)."""
        out = math.fsum(a.mass * a.z for a in self.atoms if abs(a.z) <= 1.0)
        for t in self.tails:
            out += t.side * t.moment_mag(1, 1.0)
        return out

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
            c, hi = t.side * n, clip if t.side > 0 else math.inf
            total += t.integrate_exp(c, 2, t.x0, 1.0) + t.integrate_exp(c, 1, 1.0, hi)
        return total

    @staticmethod
    def _jump(atom: Atom1D | None) -> float:
        return atom.z if atom else 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` raw jump sizes from the normalized measure (see `JumpMeasure.sample`)."""
        out, picked = self._draws(rng, size)
        for t, sel, m in picked:
            out[sel] = t.side * t.sample_mag(rng, m)
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


@dataclass(frozen=True)
class AxisTail(_Tail):
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
        self._check_family()

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


class JumpMeasure(_Measure):
    """Branching jump measure: atoms plus axis-supported tail densities.

    Validity (finite first moments in both coordinates, which for
    finite-activity measures is the standard integrability requirement on
    branching jump measures) is enforced at construction.
    """

    @staticmethod
    def _jump(atom: Atom2D | None) -> tuple[float, float]:
        return (atom.z1, atom.z2) if atom else (0.0, 0.0)

    def __init__(self, atoms=(), tails=()):
        super().__init__(atoms, tails)
        self._kept = {}  # (rule kind, k) -> whether the rule keeps each atom (see `moment`)
        if math.isinf(self.moment(1, 0)) or math.isinf(self.moment(0, 1)):
            raise DivergentCrossMoment(
                "jump measure must have finite first moments in both coordinates"
            )

    def moment(self, r: int, s: int, rule: BranchingRule = KEEP_ALL) -> float:
        """Mixed moment: integral of z1^r z2^s over the region `rule` keeps.

        Returns math.inf when a tail component diverges at that order;
        divergence is a value here, not an error.
        """
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("moment orders must be nonnegative with r+s >= 1")
        key = (rule.kind, rule.k)  # a tuple hashes and compares faster than the rule
        kept = self._kept.get(key)
        if kept is None:
            atoms = self._table.reshape(-1, 2)[: len(self.atoms)]  # (0, 2) with no component
            kept = self._kept[key] = rule.keep(atoms).tolist()
        total = 0.0
        for a, k in zip(self.atoms, kept):
            if k:
                total += a.mass * a.z1**r * a.z2**s
        for t in self.tails:
            other = s if t.axis == 1 else r
            if other >= 1:
                continue  # off-axis coordinate is 0
            val = t.moment_mag(r if t.axis == 1 else s, rule.axis_bound)
            if math.isinf(val):
                return math.inf
            total += val
        return total

    def phi_integral(self, lam1, lam2, own_axis: int):
        """Integral of (e^{-<lam, z>} - 1 + lam_own * z_own) over the measure.

        own_axis selects which coordinate carries the linear compensation
        term (1 for the first mechanism component, 2 for the second).
        Closed form for atoms and both tail families; rates may be arrays,
        which broadcast, and scalar rates give a float.  `phi_eval_vec`
        evaluates both measures at once from `BranchingSpec.phi_kernel`;
        this per-measure sum is the reference it is tested against.
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
        """Draw `size` jumps, (size, 2): a gather from the component table, then tail magnitudes."""
        out, picked = self._draws(rng, size)
        for t, sel, m in picked:
            out[sel, t.axis - 1] = t.sample_mag(rng, m)
        return out


ZERO_MEASURE_2D = JumpMeasure()
