"""Monte Carlo verification harness: simulation vs exact theory.

Every report reduces to rows (t, statistic, estimate, se, target, z,
pass); aggregation uses compensated summation so identical inputs give
byte-identical reports.  A row passes within `SE_MULTIPLE` standard
errors of its target plus a discretization-bias allowance: moment rows
allow `BIAS_COEFF * step * |target|`, martingale rows allow none.

Reports come from engine passes.  `verify_reports` runs the engine once
for every report of `cbre2 verify`: the union of the truncation variants
they read, on one random stream at one seed, each report reducing only
its own variants at its own times.  `estimate_moments`, `martingale_test`,
`coupling_monotonicity_report` and `truncation_convergence_report` are the
one-report case of the same pass.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .moments import (
    first_moment_closed_form,
    hypotheses_hold,
    martingale_factors,
    moment_table,
    monomial_basis,
)
from .simulate import scenario_stream
from .truncation import NORM_CAP, BranchingRule, TruncationPredicate
from ._util import csv_lines, fsum_mean_se, z_score

_DUST = 1e-9  # absorbs floating-point dust in exact (se = 0) comparisons
SE_MULTIPLE = 3.0  # half-width of a row's pass band, in standard errors
BIAS_COEFF = 2.0  # moment rows allow a bias of BIAS_COEFF * step * |target|


@dataclass
class EstimateRow:
    t: float
    statistic: str
    estimate: float
    se: float
    target: float
    z: float
    ok: bool


@dataclass
class EstimateReport:
    name: str
    rows: list = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def add(self, t, statistic, estimate, se, target=math.nan, bias_allowance=0.0):
        if math.isnan(target):
            z, ok = math.nan, True
        else:
            z = z_score(estimate - target, se)
            ok = abs(estimate - target) <= SE_MULTIPLE * se + bias_allowance + _DUST * max(1.0, abs(target))
        self.rows.append(EstimateRow(float(t), statistic, float(estimate), float(se), float(target), float(z), bool(ok)))

    def csv_lines(self) -> list[str]:
        return csv_lines("t,statistic,estimate,se,target,z,pass", map(astuple, self.rows))


def report_times(scenario) -> np.ndarray:
    """The times the moment and martingale reports check: horizon * k / 5, k = 1..5."""
    return scenario.horizon * np.arange(1, 6) / 5


class _Moments:
    """Sample means of X1^p X2^q against the moment-closure targets at `report_times`."""

    def __init__(self, scenario, n: int):
        self.scenario, self.n = scenario, n
        self.predicates = (scenario.truncation,)
        self.times = report_times(scenario)
        self.table = moment_table(
            scenario.environment, scenario.branching, scenario.x0, self.times, n,
            scenario.truncation,
        )
        self.states = []  # (t, (paths, 2) copy) at each report time

    def feed(self, t, states) -> None:
        self.states.append((t, states[0].copy()))

    def report(self) -> EstimateReport:
        sc, n = self.scenario, self.n
        report = EstimateReport(f"moments_n{n}")
        if not hypotheses_hold(sc.environment, sc.branching, 2 * n, sc.truncation):
            report.notes = "variance-unreliable: order-2n hypotheses fail"
        for p, q in monomial_basis(n):
            if not self.table.finite.get((p, q), False):
                continue
            for t, x in self.states:
                est, se = fsum_mean_se(x[:, 0] ** p * x[:, 1] ** q)
                target = self.table.entry(p, q, t)
                report.add(
                    t,
                    f"m_{p}{q}",
                    est,
                    se,
                    target,
                    bias_allowance=BIAS_COEFF * sc.step * abs(target),
                )
        return report


class _Martingale:
    """E M(t) = x0 at each time of `t_grid`, M built for the scenario's truncated system."""

    def __init__(self, scenario, t_grid):
        self.predicates = (scenario.truncation,)
        self.times = np.unique(np.asarray(t_grid, dtype=float))
        factors = martingale_factors(
            scenario.environment, scenario.branching, self.times, scenario.truncation
        )
        self.factors = dict(zip(self.times.tolist(), factors))
        self.x0 = np.asarray(scenario.x0, dtype=float)
        self.out = EstimateReport("martingale")

    def feed(self, t, states) -> None:
        m = states[0] @ self.factors[t].T
        for i in (0, 1):
            est, se = fsum_mean_se(m[:, i])
            self.out.add(t, f"M{i + 1}", est, se, self.x0[i])

    def report(self) -> EstimateReport:
        return self.out


class _Coupling:
    """Ordering X^(k1) <= X^(k2) of two norm-cap variants at every grid time."""

    times = None  # every grid time

    def __init__(self, scenario, k1: float, k2: float):
        if k1 > k2:
            raise ValueError("k1 must be <= k2")
        self.predicates = tuple(
            replace(scenario.truncation, branching=BranchingRule(NORM_CAP, k)) for k in (k1, k2)
        )
        self.pure_jump = scenario.branching.c1 == 0 and scenario.branching.c2 == 0
        self.out = EstimateReport(f"coupling_k{k1:g}_k{k2:g}")
        self.max_gap = -math.inf

    def feed(self, t, states) -> None:
        lo, hi = states
        self.t, self.gap = t, lo - hi  # (paths, 2); ordering wants <= 0
        if self.pure_jump:
            self.out.add(t, "ordering_violations", int((self.gap > 1e-12).sum()), 0.0, 0.0)
            self.max_gap = max(self.max_gap, float(self.gap.max()))

    def report(self) -> EstimateReport:
        t, report = self.t, self.out
        if self.pure_jump:
            report.add(t, "max_signed_gap", self.max_gap, 0.0, math.nan)
            return report
        for i in (0, 1):
            est, se = fsum_mean_se(self.gap[:, i])
            ok = est <= SE_MULTIPLE * se + _DUST
            z = z_score(est, se)
            report.rows.append(EstimateRow(float(t), f"mean_gap_{i + 1}", est, se, 0.0, z, ok))
        return report


class _Convergence:
    """E|X - X^(k)| at the horizon over increasing caps k, X untruncated but clipped."""

    def __init__(self, scenario, k_list):
        self.k_list = sorted(float(k) for k in k_list)
        self.t = scenario.horizon
        self.times = np.array([self.t])
        base = TruncationPredicate(env_clip=scenario.truncation.env_clip)
        self.predicates = tuple(
            replace(base, branching=BranchingRule(NORM_CAP, k)) for k in self.k_list
        ) + (base,)
        self.epsilon = 0.05 * float(np.linalg.norm(first_moment_closed_form(
            scenario.environment, scenario.branching, scenario.x0, self.t, base)))

    def feed(self, t, states) -> None:
        self.states = [x.copy() for x in states]

    def report(self) -> EstimateReport:
        t, full = self.t, self.states[-1]
        report = EstimateReport("trunc_convergence")
        ests, ses = [], []
        for x, k in zip(self.states, self.k_list):
            gap = np.hypot(full[:, 0] - x[:, 0], full[:, 1] - x[:, 1])
            est, se = fsum_mean_se(gap)
            ests.append(est)
            ses.append(se)
            report.add(t, f"l1_gap_k{k:g}", est, se, math.nan)
        ok = True
        for i in range(1, len(ests)):
            band = 2.0 * math.hypot(ses[i], ses[i - 1])
            if ests[i] > ests[i - 1] + band:
                ok = False
        final_ok = ests[-1] < self.epsilon
        report.rows.append(
            EstimateRow(t, "nonincreasing", float(ok), 0.0, 1.0, 0.0, ok)
        )
        report.rows.append(
            EstimateRow(t, "final_gap_below_eps", ests[-1], ses[-1], self.epsilon, 0.0, final_ok)
        )
        return report


def _one_pass(scenario, parts, paths: int, seed: int) -> list[EstimateReport]:
    """Run the engine once for `parts` and return their reports, in order.

    Each part names the truncation variants it reads (`predicates`), the
    times it reads (`times`, None for every grid time), and reduces what
    it is fed (`feed(t, states)`, its own variants in its own order) into
    `report()`.  The pass runs the union of the variants, deduplicated by
    equality, on one random stream and one environment path; the parts'
    times join the grid, and each part is fed the grid times it reads.
    """
    preds = list(dict.fromkeys(p for part in parts for p in part.predicates))
    times = [t for part in parts if part.times is not None for t in part.times]
    slots = [[preds.index(p) for p in part.predicates] for part in parts]
    reads = [None if part.times is None else set(part.times.tolist()) for part in parts]
    for t, states, _ in scenario_stream(scenario, paths, seed, record_times=times, predicates=preds):
        for part, slot, at in zip(parts, slots, reads):
            if at is None or t in at:
                part.feed(t, [states[i] for i in slot])
    return [part.report() for part in parts]


def verify_reports(scenario, n: int, paths: int, seed: int) -> dict[str, EstimateReport]:
    """Every report of `cbre2 verify`, from one engine pass at `seed`.

    Keys: "moments" (degree `n`) and "martingale" always, "coupling" when
    `scenario.coupling_k` is set and "convergence" when
    `scenario.trunc_k_list` is.  Each report reduces only its own variants
    of the shared stream.
    """
    parts = {
        "moments": _Moments(scenario, n),
        "martingale": _Martingale(scenario, report_times(scenario)),
    }
    if scenario.coupling_k is not None:
        parts["coupling"] = _Coupling(scenario, *scenario.coupling_k)
    if scenario.trunc_k_list is not None:
        parts["convergence"] = _Convergence(scenario, scenario.trunc_k_list)
    return dict(zip(parts, _one_pass(scenario, list(parts.values()), paths, seed)))


def estimate_moments(
    scenario,
    n: int,
    paths: int,
    seed: int,
) -> EstimateReport:
    """Sample means of X1^p X2^q against the moment-closure targets at `report_times`.

    When the order-2n hypotheses fail the estimator variance is not
    guaranteed finite; the report is produced anyway and marked
    variance-unreliable.
    """
    return _one_pass(scenario, [_Moments(scenario, n)], paths, seed)[0]


def martingale_test(
    scenario,
    t_grid,
    paths: int,
    seed: int,
) -> EstimateReport:
    """Constancy of the drift-corrected mean: E M(t) = x0 at every grid time.

    M is built for the scenario's truncated system (see `martingale_factors`).
    """
    return _one_pass(scenario, [_Martingale(scenario, t_grid)], paths, seed)[0]


def coupling_monotonicity_report(
    scenario,
    k1: float,
    k2: float,
    paths: int,
    seed: int,
) -> EstimateReport:
    """Ordering of coupled truncated variants X^(k1) <= X^(k2), k1 <= k2.

    Each variant is the scenario's truncation with its branching rule
    replaced by the norm cap, so the environment clip is kept.  Pure-jump
    mechanisms assert zero pathwise violations (a gap above 1e-12) at
    every grid point; with diffusion on, only the mean signed gap is
    tested (<= 0 within `SE_MULTIPLE` SEs).
    """
    return _one_pass(scenario, [_Coupling(scenario, k1, k2)], paths, seed)[0]


def truncation_convergence_report(
    scenario,
    k_list,
    paths: int,
    seed: int,
) -> EstimateReport:
    """Coupled estimate of E|X - X^(k)| at the horizon over increasing caps k.

    X is the scenario's system with its environment clip and no branching
    truncation.  All variants share the randomness of the path of X, so
    the gap estimates are monotone up to thinning noise; the report
    asserts the sequence is nonincreasing within 2 combined SEs and that
    the final gap is below epsilon = 5% of |E X(horizon)|.
    """
    return _one_pass(scenario, [_Convergence(scenario, k_list)], paths, seed)[0]
