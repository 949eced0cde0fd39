"""Each benchmark check accepts a correct value and rejects a perturbed one.

Run from the repository root: python3 -m pytest -q bench
"""

import csv
import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import reference as ref
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scenario(name):
    with open(os.path.join(ROOT, "scenarios", f"{name}.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# The reference itself
# ---------------------------------------------------------------------------

def test_expm_taylor_matches_scipy():
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 7.0):
        a = scale * rng.standard_normal((2, 2))
        np.testing.assert_allclose(ref.expm_taylor(a), expm(a), rtol=1e-13, atol=0)


def test_first_moment_of_a_pure_environment_is_x0_times_e_beta_t():
    cfg = scenario("env_only")
    env = cfg["environment"]
    beta1 = env["a"] + env["sigma1"] ** 2 / 2 + sum(
        c["mass"] * (math.exp(c["z"]) - 1 - (c["z"] if abs(c["z"]) <= 1 else 0))
        for c in env["nu"]
    )
    np.testing.assert_allclose(ref.first_moment(cfg, 0.7),
                               np.array(cfg["x0"]) * math.exp(beta1 * 0.7), rtol=1e-14)


def test_first_moment_solves_the_linear_ode():
    cfg = scenario("verify")  # Pareto tail on axis 1 of m2
    bt = ref.effective_drift(cfg["branching"])
    beta1 = ref.env_beta1(cfg["environment"])
    sol = solve_ivp(lambda t, m: (beta1 * np.eye(2) - bt.T) @ m, (0, 1), cfg["x0"],
                    rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(ref.first_moment(cfg, 1.0), sol.y[:, -1], rtol=1e-9)


def test_pareto_first_moment():
    tail = {"kind": "pareto", "axis": 1, "mass": 0.5, "alpha": 2.5, "x0": 1.0}
    assert ref.measure_first_moment([tail], 1) == pytest.approx(0.5 * 2.5 / 1.5)
    assert ref.measure_first_moment([tail], 2) == 0.0


def test_feller_v0_solves_the_riccati_equation():
    c, lam, t = 0.6, 1.3, 0.9
    sol = solve_ivp(lambda s, v: -c * v**2, (0, t), [lam], rtol=1e-12, atol=1e-14)
    assert ref.feller_v0(c, lam, t) == pytest.approx(sol.y[0, -1], rel=1e-9)


def test_power_vs_pareto_rule_is_strict_at_the_boundary():
    assert ref.power_vs_pareto_finite(2.0, 2.5)
    assert not ref.power_vs_pareto_finite(2.5, 2.5)


# ---------------------------------------------------------------------------
# Checks reject perturbed values
# ---------------------------------------------------------------------------

def test_check_mean():
    assert wl.check_mean("m", 1.0 + 3.9 * 0.01, 0.01, 1.0, 0.0) == []
    assert wl.check_mean("m", 1.0 + 4.1 * 0.01, 0.01, 1.0, 0.0)
    assert wl.check_mean("m", 1.0 + 4.1 * 0.01, 0.01, 1.0, 0.002) == []  # bias allowance
    assert wl.check_mean("m", math.nan, 0.01, 1.0, 0.0)


def moment_rows(cfg, perturb=None):
    rows = []
    for t in (0.2, 0.4, 0.6, 0.8, 1.0):
        m = ref.first_moment(cfg, t)
        for stat, v in (("m_10", m[0]), ("m_01", m[1])):
            rows.append({"t": str(t), "statistic": stat, "estimate": str(v),
                         "se": "0.01", "target": str(v)})
    if perturb:
        key, factor = perturb
        rows[3][key] = str(float(rows[3][key]) * factor)
    return rows


def test_check_first_moment_rows():
    cfg = scenario("mixed")
    assert wl.check_first_moment_rows(moment_rows(cfg), cfg, "v") == []
    assert wl.check_first_moment_rows(moment_rows(cfg, ("estimate", 1.1)), cfg, "v")
    assert wl.check_first_moment_rows(moment_rows(cfg, ("target", 1 + 1e-8)), cfg, "v")
    assert wl.check_first_moment_rows(moment_rows(cfg)[:-1], cfg, "v")


def test_check_martingale_rows():
    cfg = scenario("mixed")
    rows = [{"t": str(t), "statistic": f"M{i}", "estimate": str(cfg["x0"][i - 1]), "se": "0.01"}
            for t in (0.2, 0.4, 0.6, 0.8, 1.0) for i in (1, 2)]
    assert wl.check_martingale_rows(rows, cfg, "m") == []
    rows[5]["estimate"] = str(float(rows[5]["estimate"]) + 0.06)
    assert wl.check_martingale_rows(rows, cfg, "m")


def test_check_no_violations():
    rows = [{"t": str(k), "statistic": "ordering_violations", "estimate": "0"} for k in range(3)]
    assert wl.check_no_violations(rows, 3, "c") == []
    assert wl.check_no_violations(rows, 4, "c")
    rows[1]["estimate"] = "1"
    assert wl.check_no_violations(rows, 3, "c")


def test_check_gaps_nonincreasing():
    assert wl.check_gaps_nonincreasing([0.3, 0.1, 0.1, 0.0], "g") == []
    assert wl.check_gaps_nonincreasing([0.3, 0.1, 0.1000001, 0.0], "g")


def test_check_degree1_block():
    cfg = scenario("mixed")
    t = np.linspace(0, 1, 5)
    m = np.array([ref.first_moment(cfg, s) for s in t])
    assert wl.check_degree1_block(t, m[:, 0], m[:, 1], cfg, "d") == []
    m[2, 1] *= 1 + 1e-8
    assert wl.check_degree1_block(t, m[:, 0], m[:, 1], cfg, "d")


def test_check_laplace_z():
    assert wl.check_laplace_z("annealed 0.38 vs direct MC 0.38, z = +3.99", "l") == []
    assert wl.check_laplace_z("annealed 0.38 vs direct MC 0.30, z = -4.10", "l")
    assert wl.check_laplace_z("annealed average skipped", "l")


def test_check_quenched():
    r = np.linspace(0, 0.5, 6)
    v = np.tile([0.7, 0.4], (6, 1)) * np.linspace(0.8, 1.0, 6)[:, None]
    assert wl.check_quenched(r, v, (0.7, 0.4), 0.5, "q") == []
    bad = v.copy()
    bad[2, 0] = -1e-9
    assert wl.check_quenched(r, bad, (0.7, 0.4), 0.5, "q")
    bad = v.copy()
    bad[-1, 1] = 0.4 * (1 + 1e-15)
    assert wl.check_quenched(r, bad, (0.7, 0.4), 0.5, "q")


def test_check_verdicts():
    good = [(2.0, 2.5, "Finite", "Finite"), (2.5, 2.5, "Infinite", "Infinite")]
    assert wl.check_verdicts(good) == []
    assert wl.check_verdicts([(2.5, 2.5, "Finite", "Finite")])
    assert wl.check_verdicts([(2.0, 2.5, "Finite", "Infinite")])


# ---------------------------------------------------------------------------
# Operation checks read the files cbre2 writes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_ops(tmp_path_factory):
    cf = wl.Configs(ROOT, str(tmp_path_factory.mktemp("exact")), seed=5)
    return cf, {op.name: op for op in wl.exact(cf)}


def rewrite_csv(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def test_moments_op_rejects_a_perturbed_first_moment(exact_ops):
    cf, ops = exact_ops
    op = ops["moments_n6"]
    res = op.run()
    assert op.check(res) == []

    def bump(rows):
        r = next(r for r in rows if (r["p"], r["q"]) == ("0", "1") and r["t"] == "1")
        r["value"] = repr(float(r["value"]) * (1 + 1e-8))

    rewrite_csv(cf.out("mixed", "moments.csv"), bump)
    assert op.check(res)


def test_recursion_op_rejects_a_residual_at_the_tolerance(exact_ops):
    cf, ops = exact_ops
    op = ops["recursion_check"]
    res = op.run()
    assert op.check(res) == []

    def bump(rows):
        rows[7]["residual"] = repr(cf.dicts["mixed"]["recursion_tol"])

    rewrite_csv(cf.out("mixed", "recursion_check.csv"), bump)
    assert op.check(res)


def test_op_with_a_failing_exit_code_is_rejected(exact_ops):
    _, ops = exact_ops
    assert ops["moments_n6"].check((1, ""))
