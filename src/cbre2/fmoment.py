"""f-moment finiteness: test-function families and the tail classifier.

Classification is symbolic: the growth exponent of the test function is
compared against the decay of each parametric tail component, so the
verdict, Finite or Infinite, is exact for every curated family against
every tail family.  Numeric quadrature is never used to decide
divergence.

Curated families: power (1+x)^p, power-log (1+x)^p log(e+x) with p >= 1,
and exp-power exp(theta x^gamma) with gamma in (0, 1].  Power and
power-log carry a full structural certificate (convex nondecreasing,
f >= 1 with f > 1 off zero, submultiplicative with the stored K).  The
exp-power family is convex for gamma = 1 but no exponential satisfies
f(xy) <= K f(x) f(y) for a fixed K, so `condition_b_check` reports that
failure, while the tail classification (a pure integral comparison)
remains exact.  Boundary rules: a pure power against a Pareto tail of
equal index diverges (the integral picks up a log), and power-log at
equality diverges as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branching import BranchingSpec
from .env import LevyEnvSpec
from .errors import ZeroInitialState
from .measures import EXPONENTIAL, PARETO, JumpMeasure, JumpMeasure1D
from .truncation import IDENTITY, KEEP_ALL, BranchingRule, TruncationPredicate

FINITE = "Finite"
INFINITE = "Infinite"

POWER = "power"
POWER_LOG = "power_log"
EXP_POWER = "exp_power"


@dataclass(frozen=True)
class MomentTestFunction:
    """A curated test function with growth metadata.

    `rho` is the infimum exponent with f(x) = O(x^rho) (inf for
    exp-power).  Against a Pareto tail of index exactly rho, both power
    and power-log are Infinite (`classify_branching_tail`).
    """

    family: str
    params: tuple
    K: float
    rho: float

    def __post_init__(self):
        if self.family not in (POWER, POWER_LOG, EXP_POWER):
            raise ValueError(f"unknown test-function family {self.family!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            if self.family == POWER:
                (p,) = self.params
                return (1.0 + x) ** p
            if self.family == POWER_LOG:
                (p,) = self.params
                return (1.0 + x) ** p * np.log(math.e + x)
            theta, gamma = self.params
            return np.exp(theta * x**gamma)

    def describe(self) -> str:
        if self.family == POWER:
            return f"(1+x)^{self.params[0]:g}"
        if self.family == POWER_LOG:
            return f"(1+x)^{self.params[0]:g} log(e+x)"
        return f"exp({self.params[0]:g} x^{self.params[1]:g})"


def power(p: float) -> MomentTestFunction:
    if p < 1:
        raise ValueError("power family requires p >= 1 (convexity)")
    return MomentTestFunction(POWER, (float(p),), 2.0, float(p))


def power_log(p: float) -> MomentTestFunction:
    if p < 1:
        raise ValueError("power-log family requires p >= 1 (convexity)")
    return MomentTestFunction(POWER_LOG, (float(p),), 4.0, float(p))


def exp_power(theta: float, gamma: float = 1.0) -> MomentTestFunction:
    if theta <= 0 or not (0 < gamma <= 1):
        raise ValueError("exp-power family requires theta > 0 and gamma in (0, 1]")
    return MomentTestFunction(EXP_POWER, (float(theta), float(gamma)), 1.0, math.inf)


# ---------------------------------------------------------------------------
# Condition B structural check (grid-based, for arbitrary callables)
# ---------------------------------------------------------------------------

@dataclass
class ConditionBResult:
    passed: bool
    failures: list = field(default_factory=list)  # (label, witness)
    K: float | None = None


def condition_b_check(f) -> ConditionBResult:
    """Grid-based check of convexity, monotonicity, f > 1, submultiplicativity.

    Accepts any callable, checked on [0, 1e6]; a MomentTestFunction is held
    to its stored K, any other callable to its worst ratio (at most 1e6).
    Failure is a value (not an error) and carries a witness point.
    """
    x_max = 1e6
    K = f.K if isinstance(f, MomentTestFunction) else None
    xs = np.concatenate(([0.0], np.geomspace(1e-3, x_max, 120)))
    fx = np.asarray([float(f(x)) for x in xs])
    failures = []
    rel = 1e-9
    # (B3) f > 1: at 0 we accept f(0) >= 1 (the curated families touch 1 there)
    if fx[0] < 1.0 - 1e-12:
        failures.append(("f>1", (float(xs[0]), float(fx[0]))))
    else:
        bad = np.where(fx[1:] <= 1.0)[0]
        if bad.size:
            failures.append(("f>1", (float(xs[1 + bad[0]]), float(fx[1 + bad[0]]))))
    # (B1) nondecreasing
    with np.errstate(invalid="ignore"):
        bad = np.where(np.diff(fx) < -rel * np.abs(fx[:-1]))[0]
    if bad.size:
        failures.append(("monotone", (float(xs[bad[0]]), float(xs[bad[0] + 1]))))
    # (B1) midpoint convexity on consecutive triples
    for i in range(len(xs) - 2):
        x, y = xs[i], xs[i + 2]
        mid = float(f(0.5 * (x + y)))
        bound = 0.5 * (fx[i] + fx[i + 2])
        if mid > bound * (1.0 + rel) + 1e-12:
            failures.append(("convex", (float(x), float(y), mid - bound)))
            break
    # (B2) submultiplicativity over a pair grid
    pair = np.geomspace(1e-2, math.sqrt(x_max), 25)
    worst = 0.0
    witness = None
    for x in pair:
        fxv = float(f(x))
        for y in pair:
            ratio = float(f(x * y)) / (fxv * float(f(y)))
            if ratio > worst:
                worst, witness = ratio, (float(x), float(y), ratio)
    k_used = K if K is not None else worst
    if worst > max(k_used, 1.0) * (1.0 + rel) or k_used > 1e6:
        failures.append(("submultiplicative", witness))
    return ConditionBResult(not failures, failures, k_used)


# ---------------------------------------------------------------------------
# Tail classification
# ---------------------------------------------------------------------------

def classify_branching_tail(
    f: MomentTestFunction, *measures: JumpMeasure, rule: BranchingRule = KEEP_ALL
) -> str:
    """Whether f(|z|) integrates over |z| >= 1 against branching measures: Finite or Infinite.

    Atoms and tails the rule bounds integrate everything.  A Pareto tail
    integrates growth of exponent rho only below its index (at equality a
    pure power picks up a log, and power-log carries one); an exponential
    tail integrates everything except exp(theta z) with theta >= its rate.
    """
    finite = math.isfinite(rule.axis_bound) or all(
        f.rho < t.shape
        if t.family == PARETO
        else not (f.family == EXP_POWER and f.params[1] == 1.0 and f.params[0] >= t.shape)
        for m in measures for t in m.tails
    )
    return FINITE if finite else INFINITE


def classify_env_tail(f: MomentTestFunction, nu: JumpMeasure1D, clip: float = math.inf) -> str:
    """Whether f(e^z) integrates over z > 1 against the environment measure: Finite or Infinite.

    It does iff the positive jumps are clipped or every positive tail is
    exponential with a rate above rho: polynomial decay in z integrates no
    e^{rho z} growth, and exp-power outgrows every exponential in z.
    """
    finite = math.isfinite(clip) or all(
        t.family == EXPONENTIAL and f.rho < t.shape for t in nu.tails if t.side > 0
    )
    return FINITE if finite else INFINITE


@dataclass
class FMomentVerdict:
    verdict: str
    criteria: dict

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "criteria": dict(self.criteria)}


def f_moment_verdict(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    x0,
    f: MomentTestFunction,
    truncation: TruncationPredicate = IDENTITY,
) -> FMomentVerdict:
    """Finite or Infinite verdict for E f(|X(t)|), t > 0, with breakdown.

    Finite iff the initial criterion (automatic for a deterministic
    nonzero start), the branching-tail criterion, and the
    environment-tail criterion all hold; the truncation's branching rule
    and environment clip are honored (truncated tails integrate
    everything).
    """
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 == 0.0 and x2 == 0.0:
        raise ZeroInitialState("the f-moment criterion requires a nonzero initial state")
    branching = classify_branching_tail(f, spec.m1, spec.m2, rule=truncation.branching)
    environment = classify_env_tail(f, env.nu, truncation.env_clip)
    criteria = {
        "initial": FINITE,
        "branching_tail": branching,
        "environment_tail": environment,
    }
    return FMomentVerdict(INFINITE if INFINITE in criteria.values() else FINITE, criteria)
