"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Statistical checks use fixed seeds and the stated SE multiples; exact
checks use the stated absolute/relative tolerances.
"""

import math
import os
import time

import numpy as np
import pytest

from cbre2.branching import BranchingSpec
from cbre2.cli import main
from cbre2.env import LevyEnvSpec, levy_exponent, sample_env_path, sample_xi_terminal
from cbre2.fmoment import FINITE, INFINITE, exp_power, f_moment_verdict, power, power_log
from cbre2.measures import Atom1D, Atom2D, AxisTail, JumpMeasure, JumpMeasure1D, Tail1D
from cbre2.moments import (
    annealed_laplace_mc,
    first_moment_closed_form,
    martingale_factors,
    moment_polynomial,
    moment_table,
    quenched_laplace,
    recursion_check,
)
from cbre2.simulate import scenario_states
from cbre2.verify import (
    coupling_monotonicity_report,
    truncation_convergence_report,
)
from cbre2._util import fsum_mean_se
from tests.conftest import bundled_scenario

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_levy_exponent_identity():
    """MC mean of e^{n xi(1)} vs e^{beta(n)} for three environments, n in {1,2}."""
    t0 = time.perf_counter()
    specs = {
        "drift": LevyEnvSpec(a=0.4),
        "brownian": LevyEnvSpec(a=-0.3, sigma1=1.0),
        "brownian+atom": LevyEnvSpec(a=0.1, sigma1=0.5, nu=JumpMeasure1D(atoms=[Atom1D(0.5, 0.4)])),
    }
    worst = 0.0
    for name, spec in specs.items():
        xi = sample_xi_terminal(spec, 1.0, 100_000, np.random.default_rng(101))
        for n in (1, 2):
            vals = np.exp(n * xi)
            est, se = fsum_mean_se(vals)
            target = math.exp(levy_exponent(spec, n))
            gap = abs(est - target)
            assert gap <= 3 * se + 1e-9 * target, (name, n, est, target, se)
            if se > 1e-9 * target:  # skip the deterministic (se ~ 0) case
                worst = max(worst, gap / se)
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 30.0, f"max |z| = {worst:.2f} over 3 specs x n in {{1,2}}, {elapsed:.1f}s < 30s")


def test_criterion_02_first_moment_closed_form(mixed_big_run):
    """Mean X(1) vs e^{beta~} exp(-b~^T) x0; degree-1 ODE vs closed form to 1e-9."""
    sc, times, states = mixed_big_run
    target = first_moment_closed_form(sc.environment, sc.branching, sc.x0, 1.0)
    k = int(np.argmin(np.abs(times - 1.0)))
    oks, zs = [], []
    for i in (0, 1):
        est, se = fsum_mean_se(states[:, k, i])
        allowance = 3 * se + 2.0 * sc.step * abs(target[i])
        oks.append(abs(est - target[i]) <= allowance)
        zs.append((est - target[i]) / se)
    table = moment_table(sc.environment, sc.branching, sc.x0, times, 1)
    ode_gap = 0.0
    for t in times:
        cf = first_moment_closed_form(sc.environment, sc.branching, sc.x0, t)
        got = np.array([table.entry(1, 0, t), table.entry(0, 1, t)])
        ode_gap = max(ode_gap, float(np.max(np.abs(got - cf))))
    ok = all(oks) and ode_gap <= 1e-9
    _report(2, ok, f"MC z = ({zs[0]:+.2f}, {zs[1]:+.2f}) within 3SE + 2*step; ODE gap {ode_gap:.1e} <= 1e-9")


def test_criterion_03_recursion_consistency():
    """Recursion residual < 1e-6 for n in {2,3,4}, both types, t in {0.5, 1}."""
    t0 = time.perf_counter()
    worst = 0.0
    for sc in (
        bundled_scenario("env_only", 50_000, 1e-3),
        bundled_scenario("branching_only", 50_000, 1e-3),
        bundled_scenario("mixed", 100_000, 1e-3),
    ):
        table = moment_table(sc.environment, sc.branching, sc.x0, [0.5, 1.0], 4)
        for n in (2, 3, 4):
            for type_index in (1, 2):
                for t in (0.5, 1.0):
                    res = recursion_check(sc.branching, table, n, type_index, t)[2]
                    worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(3, ok, f"max residual {worst:.2e} < 1e-6 over 3 specs, {elapsed:.1f}s < 10s")


def test_criterion_04_feller_second_moment():
    """m_20(t) = x^2 + 2 c1 x t from the closure and from the recursion RHS."""
    c1, x1, t = 0.6, 1.4, 0.8
    env, spec = LevyEnvSpec(), BranchingSpec(c1=c1)
    table = moment_table(env, spec, (x1, 0.0), [t], 2)
    analytic = x1**2 + 2 * c1 * x1 * t
    closure_gap = abs(table.entry(2, 0, t) - analytic)
    _, rhs, _ = recursion_check(spec, table, 2, 1, t)
    rhs_gap = abs(rhs - analytic)
    ok = closure_gap <= 1e-8 and rhs_gap <= 1e-8
    _report(4, ok, f"closure gap {closure_gap:.1e}, recursion-RHS gap {rhs_gap:.1e}, both <= 1e-8")


def test_criterion_05_martingale_constancy(mixed_big_run):
    """Mean of M(t) equals x0 at five grid times within 3 SE (1e5 paths)."""
    sc, times, states = mixed_big_run
    factors = martingale_factors(sc.environment, sc.branching, times)
    worst = 0.0
    for k in range(len(times)):
        m = states[:, k, :] @ factors[k].T
        for i in (0, 1):
            est, se = fsum_mean_se(m[:, i])
            z = (est - sc.x0[i]) / se
            worst = max(worst, abs(z))
    _report(5, worst <= 3.0, f"max |z| = {worst:.2f} <= 3 across {len(times)} times x 2 coords")


def test_criterion_06_coupling_ordering():
    """Pure-jump coupled variants: zero ordering violations at 1e-12 tolerance."""
    sc = bundled_scenario("coupling", 10_000, 0.01)
    rep = coupling_monotonicity_report(sc, 2.0, 5.0, 10_000, sc.seed)
    viol = sum(r.estimate for r in rep.rows if r.statistic == "ordering_violations")
    n_grid = sum(1 for r in rep.rows if r.statistic == "ordering_violations")
    ok = rep.passed and viol == 0.0
    _report(6, ok, f"{viol:.0f} violations over 10^4 paths x {n_grid} grid times (k1=2 <= k2=5)")


def test_criterion_07_truncation_convergence():
    """E|X(1) - X^(k)(1)| nonincreasing over k = 2,4,8,16; final < 5% of |E X(1)|."""
    sc = bundled_scenario("pareto", 10_000, 2e-3)
    rep = truncation_convergence_report(sc, (2.0, 4.0, 8.0, 16.0), 10_000, sc.seed)
    gaps = [r.estimate for r in rep.rows if r.statistic.startswith("l1_gap")]
    eps_row = [r for r in rep.rows if r.statistic == "final_gap_below_eps"][0]
    ok = rep.passed
    _report(
        7,
        ok,
        f"gaps {['%.4f' % g for g in gaps]} nonincreasing within 2SE; final {eps_row.estimate:.4f} < {eps_row.target:.4f}",
    )


def test_criterion_08_polynomial_degree():
    """E[X_i(t)^k] is a polynomial of the initial value with degree <= k <= 3."""
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    env, spec = sc.environment, sc.branching
    rng = np.random.default_rng(88)
    grid = [(0.2 + 2.5 * rng.random(), 0.15 + 2.2 * rng.random()) for _ in range(10)]
    worst_rel, worst_deg = 0.0, 0
    for k in (1, 2, 3):
        for ti in (1, 2):
            poly = moment_polynomial(env, spec, k, ti, 0.7)
            worst_deg = max(worst_deg, max(p + q for p, q in poly) - k)
            target = (k, 0) if ti == 1 else (0, k)
            for x1, x2 in grid:
                got = sum(c * x1**p * x2**q for (p, q), c in poly.items())
                want = moment_table(env, spec, (x1, x2), [0.7], k).entry(*target, 0.7)
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
    # k = 1 independently: column j of e^{beta~ t} expm2(-t b~^T) is E X(t) from the unit state e_j
    closed = np.column_stack([first_moment_closed_form(env, spec, e, 0.7) for e in np.eye(2)])
    worst_cf = max(
        abs(moment_polynomial(env, spec, 1, ti, 0.7)[pq] - closed[ti - 1, j])
        for ti in (1, 2) for j, pq in enumerate(((1, 0), (0, 1)))
    )
    ok = worst_deg <= 0 and worst_rel < 1e-9 and worst_cf < 1e-12
    _report(
        8,
        ok,
        f"degree <= k for k<=3; reproduces the moment table to {worst_rel:.1e} < 1e-9 "
        f"(10 initial states); k=1 matches the closed form to {worst_cf:.1e} < 1e-12",
    )


def test_criterion_09_fmoment_truth_table():
    """12-case truth table + the power-vs-Pareto boundary rule."""
    atoms_env = LevyEnvSpec(nu=JumpMeasure1D(atoms=[Atom1D(0.5, 1.5)]))
    atoms_m = JumpMeasure(atoms=[Atom2D(0.5, 2.0, 1.0)])
    pareto = lambda a: JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, a, 1.0)])
    env_exp = LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("exponential", 0.4, 2.0, 1.0)]))
    cases = [
        (atoms_env, BranchingSpec(m1=atoms_m), power(3.0), FINITE),
        (atoms_env, BranchingSpec(m1=atoms_m), power_log(2.0), FINITE),
        (atoms_env, BranchingSpec(m1=atoms_m), exp_power(0.5), FINITE),
        (atoms_env, BranchingSpec(m1=pareto(4.0)), power(3.0), FINITE),
        (atoms_env, BranchingSpec(m1=pareto(4.0)), power_log(2.0), FINITE),
        (atoms_env, BranchingSpec(m1=pareto(4.0)), exp_power(0.5), INFINITE),
        (atoms_env, BranchingSpec(m2=pareto(2.5)), power(3.0), INFINITE),
        (atoms_env, BranchingSpec(m2=pareto(2.5)), power_log(2.0), FINITE),
        (atoms_env, BranchingSpec(m2=pareto(2.5)), exp_power(0.5), INFINITE),
        (env_exp, BranchingSpec(m1=atoms_m), power(3.0), INFINITE),
        (env_exp, BranchingSpec(m1=atoms_m), power(1.5), FINITE),
        (env_exp, BranchingSpec(m1=atoms_m), exp_power(0.5), INFINITE),
    ]
    hits = 0
    for env, spec, f, expected in cases:
        got = f_moment_verdict(env, spec, (1.0, 1.0), f).verdict
        assert got == expected, (f.describe(), expected, got)
        hits += 1
    boundary = f_moment_verdict(
        atoms_env, BranchingSpec(m1=pareto(2.5)), (1.0, 1.0), power(2.5)
    ).verdict
    ok = hits == 12 and boundary == INFINITE
    _report(9, ok, f"{hits}/12 classifications agree; boundary p = alpha -> {boundary}")


def test_criterion_10_quenched_laplace():
    """Feller transform to 1e-8 under a deterministic environment; annealed MC identity."""
    c1, lam1, t = 1.0, 1.0, 1.0
    path = sample_env_path(LevyEnvSpec(), t, 1e-4, np.random.default_rng(0))
    ql = quenched_laplace(path, BranchingSpec(c1=c1), (lam1, 0.0), t)
    feller_gap = abs(ql.v0[0] - lam1 / (1.0 + c1 * lam1 * t))
    sc = bundled_scenario("laplace", 10_000, 2e-3)
    lam, tl = sc.laplace_lambda, sc.laplace_t
    ann, ann_se = annealed_laplace_mc(
        sc.environment, sc.branching, sc.x0, lam, tl, 10_000, sc.step, sc.seed + 1
    )
    _, states = scenario_states(sc, 10_000, sc.seed + 2, record_times=[tl])
    direct, dir_se = fsum_mean_se(
        np.exp(-(states[0, :, 0, 0] * lam[0] + states[0, :, 0, 1] * lam[1]))
    )
    z = (ann - direct) / math.hypot(ann_se, dir_se)
    ok = feller_gap <= 1e-8 and abs(z) <= 3.0
    _report(10, ok, f"Feller gap {feller_gap:.1e} <= 1e-8; annealed vs direct MC z = {z:+.2f}")


def test_criterion_11_reproducibility(tmp_path):
    """Two verify runs with one seed are byte-identical; runtime stays in budget."""
    t0 = time.perf_counter()
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        rc = main(
            [
                "verify",
                "--config",
                os.path.join(SCEN_DIR, "verify.json"),
                "--out",
                str(out),
                "--seed",
                "424242",
            ]
        )
        assert rc == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and len(names) == 4
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 300.0
    _report(11, ok, f"4 report CSVs byte-identical across reruns; two full runs in {elapsed:.1f}s")
