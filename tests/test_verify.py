import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbre2.verify as verify_mod
from cbre2.verify import (
    EstimateReport,
    coupling_monotonicity_report,
    estimate_moments,
    martingale_test,
    truncation_convergence_report,
)
from cbre2.truncation import NORM_CAP, BranchingRule, TruncationPredicate
from cbre2._util import fsum_mean_se
from tests.conftest import bundled_scenario


def test_estimate_moments_env_only_passes():
    sc = bundled_scenario("env_only", 50_000, 1e-3)
    rep = estimate_moments(sc, 1, 20_000, sc.seed)
    assert rep.passed
    assert rep.notes == ""
    assert {r.statistic for r in rep.rows} == {"m_10", "m_01"}


def test_estimate_moments_mixed_degree2():
    sc = bundled_scenario("mixed", 100_000, 2e-3)
    rep = estimate_moments(sc, 2, 20_000, sc.seed)
    assert rep.passed
    assert len(rep.rows) == 5 * 5  # five monomials, five times


def test_estimate_moments_variance_unreliable_note():
    """pareto.json's tail has index 2.5: order-2n hypotheses fail at n = 2 and 3."""
    sc = bundled_scenario("pareto", 10_000, 2e-3)
    rep = estimate_moments(sc, 2, 4_000, sc.seed)
    assert "variance-unreliable" in rep.notes
    stats = {r.statistic for r in rep.rows}
    assert "m_20" in stats or "m_11" in stats
    # infinite-moment monomials (here every one of degree 3) are not reported as rows
    rep = estimate_moments(sc, 3, 4_000, sc.seed)
    assert "variance-unreliable" in rep.notes
    assert len(rep.rows) == 5 * 5  # the five monomials of degree <= 2, five times
    assert all(int(r.statistic[2]) + int(r.statistic[3]) <= 2 for r in rep.rows)


def test_martingale_report_passes():
    sc = bundled_scenario("mixed", 100_000, 2e-3)
    rep = martingale_test(sc, [0.25, 0.5, 0.75, 1.0], 20_000, sc.seed + 1)
    assert rep.passed
    assert len(rep.rows) == 8


def test_martingale_frozen_process_exact():
    from cbre2.branching import BranchingSpec
    from cbre2.env import LevyEnvSpec
    from cbre2.scenario import ScenarioConfig

    sc = ScenarioConfig(
        environment=LevyEnvSpec(),
        branching=BranchingSpec(),
        x0=(1.5, 2.5),
        horizon=1.0,
        step=0.1,
    )
    rep = martingale_test(sc, [0.5, 1.0], 200, 0)
    for r in rep.rows:
        assert r.se == 0.0 and r.ok


def test_coupling_report_zero_violations():
    sc = bundled_scenario("coupling", 10_000, 0.01)
    rep = coupling_monotonicity_report(sc, 2.0, 5.0, 2_000, sc.seed)
    assert rep.passed
    viol = [r for r in rep.rows if r.statistic == "ordering_violations"]
    assert sum(r.estimate for r in viol) == 0.0


def test_coupling_report_with_diffusion_uses_mean_gap():
    sc = bundled_scenario("mixed", 100_000, 5e-3)
    rep = coupling_monotonicity_report(sc, 2.0, 5.0, 4_000, sc.seed)
    stats = {r.statistic for r in rep.rows}
    assert stats == {"mean_gap_1", "mean_gap_2"}
    assert rep.passed


def test_coupling_k_order_validated():
    with pytest.raises(ValueError):
        coupling_monotonicity_report(bundled_scenario("coupling", 10_000, 0.01), 5.0, 2.0, 10, 0)


def test_truncation_convergence_decreasing():
    sc = bundled_scenario("pareto", 10_000, 2e-3)
    rep = truncation_convergence_report(sc, (2, 4, 8, 16), 4_000, sc.seed)
    assert rep.passed
    gaps = [r.estimate for r in rep.rows if r.statistic.startswith("l1_gap")]
    assert gaps == sorted(gaps, reverse=True)


def test_truncation_gap_zero_when_inactive():
    sc = bundled_scenario("coupling", 10_000, 0.01)  # atoms only, largest norm 3
    rep = truncation_convergence_report(sc, (4.0, 8.0), 500, sc.seed)
    gaps = [r.estimate for r in rep.rows if r.statistic.startswith("l1_gap")]
    assert gaps == [0.0, 0.0]


def test_truncation_convergence_keeps_the_scenario_env_clip():
    """The default eps is 5% of |E X(1)| of the clipped system (0.17948 unclipped)."""
    clipped = TruncationPredicate(env_clip=1.0)
    sc = replace(bundled_scenario("mixed", 100_000, 1e-3), truncation=clipped)
    rep = truncation_convergence_report(sc, [2, 4], 200, sc.seed)
    (eps,) = [r.target for r in rep.rows if r.statistic == "final_gap_below_eps"]
    assert eps == pytest.approx(0.15706, abs=5e-6)


def test_coupling_variants_keep_the_scenario_env_clip(monkeypatch):
    seen = []
    stream = verify_mod.scenario_stream

    def spy(scenario, paths, seed, record_times, predicates):
        seen.extend(predicates)
        return stream(scenario, paths, seed, record_times, predicates)

    monkeypatch.setattr(verify_mod, "scenario_stream", spy)
    clipped = TruncationPredicate(env_clip=1.0)
    sc = replace(bundled_scenario("coupling", 10_000, 0.01), truncation=clipped)
    coupling_monotonicity_report(sc, 2.0, 5.0, 50, 0)
    assert seen == [TruncationPredicate(BranchingRule(NORM_CAP, k), 1.0) for k in (2.0, 5.0)]


def test_reports_reproducible_and_csv_stable():
    sc = bundled_scenario("pareto", 10_000, 2e-3)
    rep1 = truncation_convergence_report(sc, (2, 4), 1_000, sc.seed)
    rep2 = truncation_convergence_report(sc, (2, 4), 1_000, sc.seed)
    assert rep1.rows == rep2.rows
    assert rep1.csv_lines() == rep2.csv_lines()


def _m10_at_horizon(sc, paths, seed):
    """The m_10 row of the `estimate_moments` report at the horizon."""
    return [r for r in estimate_moments(sc, 1, paths, seed).rows if r.statistic == "m_10"][-1]


def test_se_scaling_with_path_budget():
    sc = bundled_scenario("env_only", 50_000, 0.01)
    se1 = _m10_at_horizon(sc, 4_000, 5).se
    se4 = _m10_at_horizon(sc, 16_000, 6).se
    assert abs(se4 / se1 - 0.5) < 0.2 * 0.5


def test_richardson_bias_coefficient_is_small():
    """The splitting scheme's first-moment bias coefficient is well under 2.

    First-order Richardson extrapolation on common seeds: bias(h) ~
    2 (est(h) - est(h/2)), against C * h * |target|.
    """
    sc = bundled_scenario("mixed", 100_000, 0.02)
    coarse, fine = (_m10_at_horizon(replace(sc, step=h), 30_000, 17) for h in (sc.step, sc.step / 2))
    c = abs(2.0 * (coarse.estimate - fine.estimate)) / (sc.step * abs(coarse.target))
    assert c < 2.0


def test_report_pass_flag_consistency():
    rep = EstimateReport("demo")
    rep.add(1.0, "s", 1.0, 0.05, 1.2)  # gap 0.2 > 3 * 0.05
    assert not rep.rows[-1].ok and not rep.passed
    rep2 = EstimateReport("demo2")
    rep2.add(1.0, "s", 1.05, 0.1, 1.2)
    assert rep2.rows[-1].ok
    assert rep2.rows[-1].z == pytest.approx(-1.5)


@pytest.mark.parametrize("estimate, z", [(1.0, -math.inf), (3.0, math.inf), (2.0, 0.0)])
def test_report_z_with_zero_se_keeps_the_sign(estimate, z):
    """With se = 0, an estimate below its target gives z = -inf, above it +inf."""
    rep = EstimateReport("demo")
    rep.add(1.0, "s", estimate, 0.0, 2.0)
    assert rep.rows[-1].z == z
    assert rep.rows[-1].ok == (estimate == 2.0)


def _full_record_coupling_report(sc, k1, k2, paths, seed, tol=1e-12, se_multiple=3.0):
    """The coupling report's reductions over a record of every grid time."""
    from cbre2.simulate import scenario_states
    from cbre2.truncation import norm_cap
    from cbre2.verify import EstimateRow
    from cbre2._util import fsum_mean_se, z_score

    times, states = scenario_states(sc, paths, seed, predicates=(norm_cap(k1), norm_cap(k2)))
    gaps = states[0] - states[1]
    report = EstimateReport(f"coupling_k{k1:g}_k{k2:g}")
    if sc.branching.c1 == 0 and sc.branching.c2 == 0:
        for k, t in enumerate(times):
            report.add(t, "ordering_violations", int((gaps[:, k, :] > tol).sum()), 0.0, 0.0)
        report.add(times[-1], "max_signed_gap", float(gaps.max()), 0.0, math.nan)
    else:
        for i in (0, 1):
            est, se = fsum_mean_se(gaps[:, -1, i])
            z = z_score(est, se)
            ok = est <= se_multiple * se + 1e-9
            report.rows.append(EstimateRow(float(times[-1]), f"mean_gap_{i + 1}", est, se, 0.0, z, ok))
    return report


@pytest.mark.parametrize("name", ["verify", "mixed"])
def test_streamed_coupling_report_equals_full_record(name):
    import os

    from cbre2.scenario import load_scenario

    sc = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json"))
    streamed = coupling_monotonicity_report(sc, 2.0, 5.0, 1_500, 31)
    full = _full_record_coupling_report(sc, 2.0, 5.0, 1_500, 31)
    assert streamed.csv_lines() == full.csv_lines()
    stats = {r.statistic for r in streamed.rows}
    if name == "mixed":
        assert stats == {"mean_gap_1", "mean_gap_2"}
    else:
        assert stats == {"ordering_violations", "max_signed_gap"}


def test_verify_rows_when_the_step_misses_a_report_time(tmp_path):
    """verify.json at step 0.1: the report time 0.6 replaces the base point one ulp away, so
    the coupling report has one row per grid time (11, not 12 with a ~1e-16 step)."""
    import csv
    import json
    import os

    from cbre2.cli import main
    from tests.conftest import SCENARIO_DIR

    with open(os.path.join(SCENARIO_DIR, "verify.json")) as f:
        data = json.load(f)
    data["step"] = 0.1
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--paths", "200", "--out", str(out)]) in (0, 2)

    def rows(name):
        with open(out / f"verify_{name}.csv") as f:
            return list(csv.DictReader(f))

    violations = [r for r in rows("coupling") if r["statistic"] == "ordering_violations"]
    assert len(violations) == 11
    for name in ("moments", "martingale"):
        assert sorted({float(r["t"]) for r in rows(name)}) == [0.2, 0.4, 0.6, 0.8, 1.0]


def _verify_cli(tmp_path, name, paths, seed):
    """Run `cbre2 verify` on a bundled scenario; return the scenario it ran and its output dir."""
    import os

    from cbre2.cli import main
    from cbre2.scenario import load_scenario
    from tests.conftest import SCENARIO_DIR

    config = os.path.join(SCENARIO_DIR, f"{name}.json")
    out = tmp_path / name
    args = ["--config", config, "--paths", str(paths), "--seed", str(seed), "--out", str(out)]
    assert main(["verify", *args]) in (0, 2)
    return replace(load_scenario(config), n_paths=paths, seed=seed), out


@pytest.mark.parametrize("name", ["verify", "mixed"])
def test_verify_runs_the_engine_once(tmp_path, monkeypatch, name):
    import cbre2.simulate as simulate_mod

    calls = []
    real = simulate_mod.env_increments

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate_mod, "env_increments", counted)
    _verify_cli(tmp_path, name, 200, 5)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["verify", "pareto"])
def test_one_pass_reports_equal_the_standalone_reports(tmp_path, name):
    """The untruncated variant dominates every norm-cap variant here, so adding
    variants to the pass leaves the shared thinning stream as it was."""
    sc, out = _verify_cli(tmp_path, name, 1_500, 31)
    alone = {
        "moments": estimate_moments(sc, sc.moment_degree, sc.n_paths, sc.seed),
        "martingale": martingale_test(sc, verify_mod.report_times(sc), sc.n_paths, sc.seed),
        "convergence": truncation_convergence_report(sc, sc.trunc_k_list, sc.n_paths, sc.seed),
    }
    for key, rep in alone.items():
        assert (out / f"verify_{key}.csv").read_text().splitlines() == rep.csv_lines(), key


def test_one_pass_coupling_report_covers_every_grid_time(tmp_path):
    from cbre2.env import _base_grid

    sc, out = _verify_cli(tmp_path, "verify", 1_500, 31)
    rows = [line.split(",") for line in (out / "verify_coupling.csv").read_text().splitlines()[1:]]
    violations = [row for row in rows if row[1] == "ordering_violations"]
    times = [float(row[0]) for row in violations]
    assert times == _base_grid(sc.horizon, sc.step).tolist()
    assert all(row[2] == "0" for row in violations)


def _fsum_mean_se_over_array(x):
    """fsum_mean_se as it summed before: math.fsum iterating the array's elements."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n == 0:
        return math.nan, math.nan
    mean = math.fsum(x) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((x - mean) ** 2) / (n - 1) / n)


def _outcome(f, x):
    """f(x) as bits, or the type of what it raised (fsum raises on inf + -inf)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # squares of huge or inf entries
            return struct.pack("<dd", *f(x))
    except (ValueError, OverflowError) as e:
        return type(e)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=40))
def test_fsum_mean_se_sums_a_list_to_the_same_bits(values):
    x = np.array(values, dtype=float)
    assert _outcome(fsum_mean_se, x) == _outcome(_fsum_mean_se_over_array, x)


@pytest.mark.parametrize("x", [
    np.array([]),
    np.array([0.1]),
    np.array([0.1, math.nan, 2.0]),
    np.array([0.1, math.inf, 2.0]),
    np.random.default_rng(3).lognormal(0.0, 2.0, 10_000),
    np.broadcast_to(np.array([0.7]), (1000,)),  # annealed_laplace_mc's deterministic-xi row
    np.broadcast_to(np.array([[0.1, 0.2, 0.3]]), (7, 3)).T,
], ids=["n=0", "n=1", "nan", "inf", "lognormal", "broadcast", "broadcast-2d"])
def test_fsum_mean_se_edge_inputs(x):
    assert _outcome(fsum_mean_se, x) == _outcome(_fsum_mean_se_over_array, x)
