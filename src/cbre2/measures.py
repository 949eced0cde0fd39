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

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentCrossMoment, ExponentOverflow, MassOverflow
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


_EULER_GAMMA = 0.57721566490153286
_SERIES_TERMS = 32
# E_p(z): the series below z = 2, then Gauss-Laguerre rules of fewer nodes from each edge up
_EXPINT_EDGES, _LAGUERRE_NODES = (2.0, 4.0, 8.0, 16.0, 32.0), (30, 20, 15, 10, 8)
_EXPINT_BLOCK = 8192  # values per Laguerre temporary (64 KB); unblocked, an annealed run took 1.25x


def _zeta(k: int) -> float:
    """Riemann zeta at an integer k >= 2: Euler-Maclaurin from N = 20 with B_2..B_12."""
    big_n, tail = 20, []
    rise, power = k, float(big_n) ** (-k - 1)  # k (k+1) ... (k+2j-2) and N^{-k-2j+1}
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1):
        tail.append(b / math.factorial(2 * j) * rise * power)
        rise *= (k + 2 * j - 1) * (k + 2 * j)
        power /= big_n * big_n
    head = [m**-k for m in range(1, big_n)] + [big_n ** (1 - k) / (k - 1), 0.5 * big_n**-k]
    return math.fsum(head + tail)


@functools.cache
def _expint_constants(p: float):
    """Per-p constants of E_p(z) = Gamma(1-p) z^{p-1} - sum_k (-z)^k / (k! (k+1-p)).

    Returns the series coefficients of (-z)^k, k < 32, negated, as floats,
    n = round(p), e = p - n, d, and a lead: Gamma(1-p) when n = 0, else the
    pair's coefficient. For n >= 1 the pole of Gamma(1-p) cancels the term
    k = n-1; the pair is -(-z)^{n-1} / (n-1)! * g(z), with
    g = expm1(e (d + ln z)) / e, or d + ln z when e = 0, and
    d = (ln Gamma(1-e) - sum_{j<n} log1p(e/j)) / e from the Taylor series of
    ln Gamma(1-e) (gamma e + sum zeta(k) e^k / k). So p next to an integer loses
    no digits. The coefficient of k = n-1 is 0, and the lead is the pair's
    -1 / (n-1)! / e (without the 1/e when e = 0), for g to multiply; above
    n = 32 the pair is below 2^32 / 32! ~ 1e-26 of E_p, and there is none.
    """
    n, e = round(p), p - round(p)
    coef = tuple(0.0 if k == n - 1 else -1.0 / (math.factorial(k) * (k + 1.0 - p))
                 for k in range(_SERIES_TERMS))
    if n == 0:
        return coef, n, e, 0.0, math.gamma(1.0 - p)
    if n > _SERIES_TERMS:
        return coef, n, e, 0.0, None
    log_gamma = math.fsum([_EULER_GAMMA] + [_zeta(j) * e ** (j - 1) / j for j in range(2, 64)])
    d = log_gamma - math.fsum((math.log1p(e / j) / (e / j) if e else 1.0) / j for j in range(1, n))
    return coef, n, e, d, -1.0 / math.factorial(n - 1) / (e or 1.0)


@functools.cache
def _laguerre_nodes(nodes: int):
    from numpy.polynomial.laguerre import laggauss

    return laggauss(nodes)


def _expint_series(p: float, z):
    """The series at a 1-D z, or at one float, by Horner's scheme in x = -z: one
    multiplication and one addition per term, elementwise, with the pair as the
    coefficient of k = n-1. A float runs the same operations, and numpy's log,
    expm1 and power, so it has the bits it has in an array."""
    coef, n, e, d, lead = _expint_constants(p)
    terms = list(coef)
    if n == 0:
        singular = lead * np.power(z, p - 1.0)
    elif lead is not None:
        g = np.log(z) + d
        terms[n - 1] = lead * (np.expm1(g * e) if e else g)
    x = -z
    acc = terms[-1] * x + terms[-2]
    for c in terms[-3::-1]:
        acc *= x
        acc += c
    return acc + singular if n == 0 else acc


def _expint_laguerre(p: float, z, nodes: int):
    """E_p(z) = e^{-z} / w int_0^inf e^{-v} exp(p (x - log1p x)) dv, w = z + p, x = v / w:
    the integrand is smooth with its singularity at v = -w, for Gauss-Laguerre nodes."""
    v, weight = _laguerre_nodes(nodes)
    inv_w = 1.0 / (z + p)
    x = np.multiply.outer(inv_w, v)
    f = np.log1p(x)
    np.subtract(x, f, out=f)  # in place: plain code ran 1.12x on one 8192-value block
    f *= p
    np.exp(f, out=f)
    f *= weight
    return np.exp(-z) * inv_w * np.add.reduce(f, axis=-1)


def _expint(p: float, z):
    """E_p(z) = int_1^inf e^{-zt} t^{-p} dt for p > 0, z > 0 (DLMF 8.19), elementwise.

    Below z = 2 the power series (`_expint_series`); from there Gauss-Laguerre
    nodes (`_expint_laguerre`), 30 up to z = 4, then 20, 15, 10 and 8 from z = 4,
    8, 16 and 32: against mpmath within 1.5e-14 at z = 2 and 3.7e-15 from z = 4
    up. Each element runs the rule of its band. An array runs each Laguerre band
    in blocks whose temporaries hold at most `_EXPINT_BLOCK` values, so they come
    from the allocator's free lists rather than fresh pages. One element, as in a
    quenched solve, runs its rule on a Python float: the same operations without
    numpy's cost per call, which is most of the time of a 32-term series on one
    element. The series works elementwise and the nodes are summed over a
    trailing axis, so an element has the same bits alone and in a batch.
    """
    z = np.asarray(z, dtype=float)
    if z.size == 1:  # a Python float (through numpy: tail_quenched 2.7x)
        x = z.item()
        if x < _EXPINT_EDGES[0]:
            return np.full_like(z, _expint_series(p, x))
        nodes = _LAGUERRE_NODES[bisect.bisect_right(_EXPINT_EDGES, x) - 1]
        return np.full_like(z, _expint_laguerre(p, x, nodes))
    flat = z.ravel()
    out = np.empty_like(flat)
    small = flat < _EXPINT_EDGES[0]
    count = np.count_nonzero(small)
    if count:
        out[small] = _expint_series(p, flat[small])
    if count < flat.size:
        large = np.flatnonzero(~small)
        band = np.searchsorted(_EXPINT_EDGES, flat[large], side="right") - 1
        for b in np.flatnonzero(np.bincount(band)):
            where, rows = large[band == b], _EXPINT_BLOCK // _LAGUERRE_NODES[b]
            for lo in range(0, len(where), rows):
                part = where[lo : lo + rows]
                out[part] = _expint_laguerre(p, flat[part], _LAGUERRE_NODES[b])
    return out.reshape(z.shape)


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
            # (x0/y)^a / y, not x0^a y^(-a-1): the latter underflows times overflows
            # for a tiny x0
            val = self.mass * a * float(np.sum(w * (self.x0 / y) ** a / y * g))
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
        divergence is a value here, not an error.  Atoms whose finite
        moment leaves the float range raise MassOverflow.
        """
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("moment orders must be nonnegative with r+s >= 1")
        key = (rule.kind, rule.k)  # a tuple hashes and compares faster than the rule
        kept = self._kept.get(key)
        if kept is None:
            atoms = self._table.reshape(-1, 2)[: len(self.atoms)]  # (0, 2) with no component
            kept = self._kept[key] = rule.keep(atoms).tolist()
        total = 0.0
        try:
            for a, k in zip(self.atoms, kept):
                if k:
                    total += a.mass * a.z1**r * a.z2**s
        except OverflowError:  # a power out of range raises; a product out of range is inf
            total = math.inf
        if not math.isfinite(total):
            raise MassOverflow(f"the atoms' jump moment z1^{r} z2^{s} leaves the float range")
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
        which broadcast, and scalar rates give a float.  `phi_eval_cols`
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
