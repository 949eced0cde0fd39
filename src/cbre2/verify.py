"""Monte Carlo verification harness: simulation vs exact theory.

Every report reduces to rows (t, statistic, estimate, se, target, z,
pass); aggregation uses compensated summation so identical inputs give
byte-identical reports.  A row passes within `SE_MULTIPLE` standard
errors of its target plus a discretization-bias allowance: moment rows
allow `BIAS_COEFF * step * |target|` (`richardson_bias` estimates the
coefficient on a reference scenario), martingale rows allow none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .moments import (
    first_moment_closed_form,
    hypotheses_hold,
    martingale_factors,
    moment_table,
    monomial_basis,
)
from .simulate import scenario_states, scenario_stream
from .truncation import NORM_CAP, BranchingRule, TruncationPredicate
from ._util import format_float, fsum_mean_se

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
            gap = abs(estimate - target)
            z = 0.0 if gap == 0.0 else (estimate - target) / se if se > 0 else math.inf
            ok = gap <= SE_MULTIPLE * se + bias_allowance + _DUST * max(1.0, abs(target))
        self.rows.append(EstimateRow(float(t), statistic, float(estimate), float(se), float(target), float(z), bool(ok)))

    def csv_lines(self) -> list[str]:
        out = ["t,statistic,estimate,se,target,z,pass"]
        for r in self.rows:
            out.append(
                ",".join(
                    [
                        format_float(r.t),
                        r.statistic,
                        format_float(r.estimate),
                        format_float(r.se),
                        format_float(r.target),
                        format_float(r.z),
                        str(r.ok),
                    ]
                )
            )
        return out


def write_report_csv(path, report: EstimateReport) -> None:
    with open(path, "w") as f:
        f.write("\n".join(report.csv_lines()) + "\n")


def report_times(scenario) -> np.ndarray:
    """The times the moment and martingale reports check: horizon * k / 5, k = 1..5."""
    return scenario.horizon * np.arange(1, 6) / 5


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
    pred = scenario.truncation
    record_times = report_times(scenario)
    table = moment_table(
        scenario.environment, scenario.branching, scenario.x0, record_times, n, pred
    )
    times, states = scenario_states(scenario, paths, seed, record_times=record_times)
    x1, x2 = states[0, :, :, 0], states[0, :, :, 1]
    report = EstimateReport(f"moments_n{n}")
    if not hypotheses_hold(scenario.environment, scenario.branching, 2 * n, pred):
        report.notes = "variance-unreliable: order-2n hypotheses fail"
    for p, q in monomial_basis(n):
        if not table.finite.get((p, q), False):
            continue
        for k, t in enumerate(times):
            est, se = fsum_mean_se(x1[:, k] ** p * x2[:, k] ** q)
            target = table.entry(p, q, t)
            report.add(
                t,
                f"m_{p}{q}",
                est,
                se,
                target,
                bias_allowance=BIAS_COEFF * scenario.step * abs(target),
            )
    return report


def martingale_test(
    scenario,
    t_grid,
    paths: int,
    seed: int,
) -> EstimateReport:
    """Constancy of the drift-corrected mean: E M(t) = x0 at every grid time.

    M is built for the scenario's truncated system (see `martingale_factors`).
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    factors = martingale_factors(
        scenario.environment, scenario.branching, t_grid, scenario.truncation
    )
    times, states = scenario_states(scenario, paths, seed, record_times=t_grid)
    report = EstimateReport("martingale")
    x0 = np.asarray(scenario.x0, dtype=float)
    for k, t in enumerate(times):
        m = states[0, :, k, :] @ factors[k].T
        for i in (0, 1):
            est, se = fsum_mean_se(m[:, i])
            report.add(
                t,
                f"M{i + 1}",
                est,
                se,
                x0[i],
            )
    return report


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
    if k1 > k2:
        raise ValueError("k1 must be <= k2")
    preds = [replace(scenario.truncation, branching=BranchingRule(NORM_CAP, k)) for k in (k1, k2)]
    pure_jump = scenario.branching.c1 == 0 and scenario.branching.c2 == 0
    report = EstimateReport(f"coupling_k{k1:g}_k{k2:g}")
    max_gap = -math.inf
    for t, (lo, hi), _ in scenario_stream(scenario, paths, seed, predicates=preds):
        gap = lo - hi  # (paths, 2); ordering wants <= 0
        if pure_jump:
            report.add(t, "ordering_violations", int((gap > 1e-12).sum()), 0.0, 0.0)
            max_gap = max(max_gap, float(gap.max()))
    if pure_jump:
        report.add(t, "max_signed_gap", max_gap, 0.0, math.nan)
    else:
        for i in (0, 1):
            est, se = fsum_mean_se(gap[:, i])
            ok = est <= SE_MULTIPLE * se + _DUST
            z = est / se if se > 0 else 0.0
            report.rows.append(EstimateRow(float(t), f"mean_gap_{i + 1}", est, se, 0.0, z, ok))
    return report


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
    k_list = sorted(float(k) for k in k_list)
    t = scenario.horizon
    base = TruncationPredicate(env_clip=scenario.truncation.env_clip)
    preds = [replace(base, branching=BranchingRule(NORM_CAP, k)) for k in k_list] + [base]
    times, states = scenario_states(scenario, paths, seed, record_times=[t], predicates=preds)
    full = states[-1][:, 0, :]
    epsilon = 0.05 * float(np.linalg.norm(first_moment_closed_form(
        scenario.environment, scenario.branching, scenario.x0, t, base)))
    report = EstimateReport("trunc_convergence")
    ests, ses = [], []
    for i, k in enumerate(k_list):
        gap = np.hypot(
            full[:, 0] - states[i][:, 0, 0], full[:, 1] - states[i][:, 0, 1]
        )
        est, se = fsum_mean_se(gap)
        ests.append(est)
        ses.append(se)
        report.add(t, f"l1_gap_k{k:g}", est, se, math.nan)
    ok = True
    for i in range(1, len(ests)):
        band = 2.0 * math.hypot(ses[i], ses[i - 1])
        if ests[i] > ests[i - 1] + band:
            ok = False
    final_ok = ests[-1] < epsilon
    report.rows.append(
        EstimateRow(t, "nonincreasing", float(ok), 0.0, 1.0, 0.0, ok)
    )
    report.rows.append(
        EstimateRow(t, "final_gap_below_eps", ests[-1], ses[-1], epsilon, 0.0, final_ok)
    )
    return report


def richardson_bias(scenario, statistic: str, paths: int, seed: int) -> float:
    """Estimate the Euler-bias coefficient C in |bias| ~ C * step * |target|.

    Runs the scenario at step and step/2 with common seeds and applies
    first-order Richardson extrapolation to the first-moment estimate.
    """
    t = scenario.horizon
    target = first_moment_closed_form(
        scenario.environment, scenario.branching, scenario.x0, t, scenario.truncation
    )
    idx = 0 if statistic.endswith("1") else 1
    vals = []
    for step in (scenario.step, scenario.step / 2):
        sc = replace(scenario, step=step)
        _, states = scenario_states(sc, paths, seed, record_times=[t])
        est, _ = fsum_mean_se(states[0, :, 0, idx])
        vals.append(est)
    bias_h = 2.0 * (vals[0] - vals[1])  # first-order: bias(h) ~ 2(est(h)-est(h/2))
    return abs(bias_h) / (scenario.step * abs(target[idx]))


def se_scaling_check(scenario, paths: int, seed: int) -> tuple[float, float]:
    """SEs of the first-moment estimate at `paths` and `4 * paths` paths."""
    t = scenario.horizon
    _, s1 = scenario_states(scenario, paths, seed, record_times=[t])
    _, s2 = scenario_states(scenario, 4 * paths, seed + 1, record_times=[t])
    _, se1 = fsum_mean_se(s1[0, :, 0, 0])
    _, se2 = fsum_mean_se(s2[0, :, 0, 0])
    return se1, se2
