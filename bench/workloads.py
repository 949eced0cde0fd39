"""The benchmark's workloads: generated configs, timed operations, checks.

Each workload turns `scenarios/*.json` into configs with the benchmark's
own seed, path count and dump count, then builds a list of operations.
An operation is one call into cbre2 (`cbre2.cli.main` or a public layer
function), timed alone, followed by checks of its output against
`reference` or against a property the method must have.  A check
returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

SE_MULTIPLE = 4.0  # sampling band of a Monte Carlo mean
BIAS_COEFF = 2.0  # O(step) discretisation allowance: BIAS_COEFF * step * |reference|
MOMENT_RTOL = 1e-9  # degree-1 block of a moment table against the closed form
FELLER_RTOL = 1e-6  # trapezoidal backward solve at step 1e-3 is accurate to ~5e-8
Z_LIMIT = 4.0  # annealed against direct Monte Carlo Laplace estimate

MIXED_PATHS = 4000
MIXED_DUMPS = 5
COUPLED_PATHS = 10000
LAPLACE_PATHS = 1000
DENSE_TIMES = 1001
DENSE_DEGREE = 6
TAIL_LAMBDA = (0.7, 0.4)
TAIL_T = 0.5
FMOMENT_P = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
FMOMENT_ALPHA = (1.5, 2.0, 2.5, 3.0, 4.0, 4.5)


@dataclass
class Op:
    """One timed call into cbre2 and the checks of what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def scenario_seed(seed: int, name: str) -> int:
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % 2**31


class Configs:
    """Generated scenario configs of one run, written under `tmp`."""

    def __init__(self, root: str, tmp: str, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.paths, self.dicts = {}, {}

    def add(self, name: str, n_paths: int, dump_paths: int = 0) -> str:
        with open(os.path.join(self.root, "scenarios", f"{name}.json")) as f:
            cfg = json.load(f)
        out_dir = os.path.join(self.tmp, "out", name)
        cfg["seed"] = scenario_seed(self.seed, name)
        cfg["n_paths"] = n_paths
        cfg["output"] = dict(cfg.get("output", {}), directory=out_dir, dump_paths=dump_paths)
        os.makedirs(os.path.join(self.tmp, "configs"), exist_ok=True)
        path = os.path.join(self.tmp, "configs", f"{name}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1, sort_keys=True)
        self.paths[name], self.dicts[name] = path, cfg
        return path

    def out(self, name: str, filename: str) -> str:
        return os.path.join(self.dicts[name]["output"]["directory"], filename)


# ---------------------------------------------------------------------------
# Checks (pure functions of outputs and reference values)
# ---------------------------------------------------------------------------

def read_csv(path: str) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_mean(label, est, se, target, step) -> list:
    """A Monte Carlo mean within SE_MULTIPLE SE plus the O(step) allowance."""
    allowance = SE_MULTIPLE * se + BIAS_COEFF * step * abs(target)
    if not abs(est - target) <= allowance:
        return [f"{label}: estimate {est:.6g} vs reference {target:.6g} (allowed {allowance:.3g})"]
    return []


def check_rel(label, value, target, rtol) -> list:
    if not abs(value - target) <= rtol * abs(target):
        return [f"{label}: {value!r} vs reference {target!r} (rtol {rtol:g})"]
    return []


def check_first_moment_rows(rows, cfg, label) -> list:
    """m_10 / m_01 rows of a verify report against the closed-form mean.

    The estimate must lie in the sampling band, and the report's target
    (the degree-1 block of cbre2's moment table) must match to MOMENT_RTOL.
    """
    fails, seen = [], 0
    for r in rows:
        if r["statistic"] not in ("m_10", "m_01"):
            continue
        seen += 1
        t = float(r["t"])
        i = 0 if r["statistic"] == "m_10" else 1
        target = ref.first_moment(cfg, t)[i]
        fails += check_mean(f"{label} {r['statistic']}@{t:g}", float(r["estimate"]),
                            float(r["se"]), target, cfg["step"])
        fails += check_rel(f"{label} target {r['statistic']}@{t:g}", float(r["target"]),
                           target, MOMENT_RTOL)
    return fails + ([] if seen == 10 else [f"{label}: {seen} first-moment rows, expected 10"])


def check_martingale_rows(rows, cfg, label) -> list:
    """E M(t) = x0 at every recorded time (the martingale property)."""
    fails = []
    for r in rows:
        i = int(r["statistic"][1]) - 1
        fails += check_mean(f"{label} {r['statistic']}@{r['t']}", float(r["estimate"]),
                            float(r["se"]), float(cfg["x0"][i]), cfg["step"])
    return fails + ([] if len(rows) == 10 else [f"{label}: {len(rows)} rows, expected 10"])


def check_no_violations(rows, n_times, label) -> list:
    viol = [r for r in rows if r["statistic"] == "ordering_violations"]
    fails = [f"{label}: {r['estimate']} ordering violations at t={r['t']}"
             for r in viol if float(r["estimate"]) != 0.0]
    if len(viol) != n_times:
        fails.append(f"{label}: {len(viol)} grid times reported, expected {n_times}")
    return fails


def check_gaps_nonincreasing(gaps, label) -> list:
    """Coupled truncation gaps E|X - X^(k)| over increasing k do not increase."""
    return [f"{label}: gap rises from {a!r} to {b!r}"
            for a, b in zip(gaps, gaps[1:]) if b > a * (1.0 + 1e-12)]


def check_degree1_block(times, v10, v01, cfg, label) -> list:
    fails = []
    for t, a, b in zip(times, v10, v01):
        m = ref.first_moment(cfg, float(t))
        fails += check_rel(f"{label} m_10@{t:g}", float(a), m[0], MOMENT_RTOL)
        fails += check_rel(f"{label} m_01@{t:g}", float(b), m[1], MOMENT_RTOL)
    return fails


def check_laplace_z(stdout, label) -> list:
    m = re.search(r"z = ([-+]?[0-9.]+)", stdout)
    if m is None:
        return [f"{label}: no annealed-vs-direct z in the output"]
    z = float(m.group(1))
    return [] if abs(z) < Z_LIMIT else [f"{label}: annealed vs direct z = {z:+.2f}"]


def check_quenched(r_grid, v, lam, t, label) -> list:
    """v_{r,t} >= 0 on the whole grid, with v_{t,t} = lam exactly."""
    fails = []
    if not np.all(np.isfinite(v)) or (np.asarray(v) < 0).any():
        fails.append(f"{label}: negative or non-finite v")
    if float(r_grid[-1]) != t or tuple(float(x) for x in v[-1]) != tuple(lam):
        fails.append(f"{label}: v({r_grid[-1]}) = {tuple(v[-1])}, expected {tuple(lam)}")
    return fails


def check_verdicts(results) -> list:
    """results: (p, alpha, verdict, branching_tail) tuples."""
    fails = []
    for p, alpha, verdict, tail in results:
        want = "Finite" if ref.power_vs_pareto_finite(p, alpha) else "Infinite"
        if verdict != want or tail != want:
            fails.append(f"power {p:g} vs Pareto {alpha:g}: {verdict}/{tail}, expected {want}")
    return fails


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------

def cli_call(args) -> Callable[[], tuple]:
    """A call of `cbre2.cli.main` returning (exit code, captured stdout)."""
    from cbre2 import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(args))
        return rc, buf.getvalue()

    return run


def _rc(result, allowed, label) -> list:
    rc = result[0]
    return [] if rc in allowed else [f"{label}: exit code {rc}"]


def mc_mixed(cf: Configs) -> list:
    mixed = cf.add("mixed", MIXED_PATHS, MIXED_DUMPS)
    cfg = cf.dicts["mixed"]
    horizon = cfg["horizon"]

    def check_simulate(res):
        fails = _rc(res, (0,), "simulate")
        if fails:
            return fails
        target = ref.first_moment(cfg, horizon)
        rows = read_csv(cf.out("mixed", "simulate_summary.csv"))
        for i, r in enumerate(rows):
            fails += check_mean(f"simulate {r['statistic']}", float(r["estimate"]),
                                float(r["se"]), target[i], cfg["step"])
        for k in range(MIXED_DUMPS):
            data = np.loadtxt(cf.out("mixed", f"path_{k:03d}.csv"), delimiter=",", skiprows=1)
            t, x, xi = data[:, 0], data[:, 1:3], data[:, 3]
            if not (t[0] == 0.0 and t[-1] == horizon and (np.diff(t) > 0).all()):
                fails.append(f"path {k}: grid is not increasing from 0 to {horizon}")
            if (x < 0).any() or tuple(x[0]) != tuple(cfg["x0"]) or xi[0] != 0.0:
                fails.append(f"path {k}: negative state or wrong start")
        return fails

    def check_verify(res):
        # exit code 2 is verify's own 3-SE verdict, which a correct engine
        # fails on a few seeds; the checks below are the benchmark's own
        fails = _rc(res, (0, 2), "verify")
        if fails:
            return fails
        fails += check_first_moment_rows(read_csv(cf.out("mixed", "verify_moments.csv")),
                                         cfg, "verify")
        return fails + check_martingale_rows(
            read_csv(cf.out("mixed", "verify_martingale.csv")), cfg, "verify")

    return [
        Op("simulate", cli_call(["simulate", "--config", mixed]), check_simulate),
        Op("verify_n2", cli_call(["verify", "--config", mixed, "--n", "2"]), check_verify),
    ]


def mc_coupled(cf: Configs) -> list:
    verify = cf.add("verify", COUPLED_PATHS)
    coupling = cf.add("coupling", COUPLED_PATHS)
    vcfg, ccfg = cf.dicts["verify"], cf.dicts["coupling"]

    def n_times(cfg):
        return round(cfg["horizon"] / cfg["step"]) + 1

    def check_verify(res):
        fails = _rc(res, (0, 2), "verify")  # see mc_mixed: 2 is verify's own verdict
        if fails:
            return fails
        fails += check_first_moment_rows(read_csv(cf.out("verify", "verify_moments.csv")),
                                         vcfg, "verify")
        fails += check_martingale_rows(read_csv(cf.out("verify", "verify_martingale.csv")),
                                       vcfg, "verify")
        fails += check_no_violations(read_csv(cf.out("verify", "verify_coupling.csv")),
                                     n_times(vcfg), "verify coupling")
        gaps = [float(r["estimate"]) for r in read_csv(cf.out("verify", "verify_convergence.csv"))
                if r["statistic"].startswith("l1_gap")]
        if len(gaps) != len(vcfg["verify"]["trunc_k_list"]):
            fails.append(f"verify convergence: {len(gaps)} gaps reported")
        return fails + check_gaps_nonincreasing(gaps, "verify convergence")

    def check_couple(res):
        fails = _rc(res, (0,), "couple")
        if fails:
            return fails
        return check_no_violations(read_csv(cf.out("coupling", "coupling.csv")),
                                   n_times(ccfg), "couple")

    return [
        Op("verify", cli_call(["verify", "--config", verify]), check_verify),
        Op("couple", cli_call(["couple", "--config", coupling]), check_couple),
    ]


def exact(cf: Configs) -> list:
    # traced functions are looked up on the package at call time, so that
    # the tracer's wrappers see these direct calls too
    import cbre2
    from cbre2 import AxisTail, BranchingSpec, JumpMeasure, power
    from cbre2.scenario import load_scenario

    mixed = cf.add("mixed", LAPLACE_PATHS)  # the path count is unused: no simulation
    laplace = cf.add("laplace", LAPLACE_PATHS)
    feller = cf.add("feller", LAPLACE_PATHS)
    pareto = cf.add("pareto", LAPLACE_PATHS)
    mcfg = cf.dicts["mixed"]
    sc_mixed, sc_pareto = load_scenario(mixed), load_scenario(pareto)

    def moments_op(degree):
        def check(res):
            fails = _rc(res, (0,), f"moments --n {degree}")
            if fails:
                return fails
            rows = read_csv(cf.out("mixed", "moments.csv"))
            n_mono = (degree + 1) * (degree + 2) // 2 - 1
            if len(rows) != 11 * n_mono:
                fails.append(f"moments --n {degree}: {len(rows)} rows, expected {11 * n_mono}")
            if any(r["finite_flag"] != "True" or not float(r["value"]) >= 0 for r in rows):
                fails.append(f"moments --n {degree}: a flagged, negative or nan moment")
            t = [float(r["t"]) for r in rows if (r["p"], r["q"]) == ("1", "0")]
            v10 = [float(r["value"]) for r in rows if (r["p"], r["q"]) == ("1", "0")]
            v01 = [float(r["value"]) for r in rows if (r["p"], r["q"]) == ("0", "1")]
            if len(v10) != 11 or len(v01) != 11:
                return fails + [f"moments --n {degree}: degree-1 rows missing"]
            return fails + check_degree1_block(t, v10, v01, mcfg, f"moments --n {degree}")

        return Op(f"moments_n{degree}",
                  cli_call(["moments", "--config", mixed, "--n", str(degree)]), check)

    dense_t = np.linspace(0.0, sc_mixed.horizon, DENSE_TIMES)

    def dense_table():
        return cbre2.moment_table(sc_mixed.environment, sc_mixed.branching, sc_mixed.x0,
                            dense_t, DENSE_DEGREE)

    def check_dense(table):
        fails = [] if all(table.finite.values()) else ["dense table: a monomial flagged infinite"]
        return fails + check_degree1_block(dense_t, table.values[(1, 0)], table.values[(0, 1)],
                                           mcfg, "dense table")

    def check_recursion(res):
        fails = _rc(res, (0,), "recursion-check")
        if fails:
            return fails
        rows = read_csv(cf.out("mixed", "recursion_check.csv"))
        tol = mcfg["recursion_tol"]
        fails += [f"recursion n={r['n']} type {r['type']} t={r['t']}: residual {r['residual']}"
                  for r in rows if not float(r["residual"]) < tol]
        return fails + ([] if len(rows) == 20 else [f"recursion-check: {len(rows)} rows"])

    m2_atoms = sc_pareto.branching.m2.atoms
    specs = [
        (alpha, BranchingSpec(b11=sc_pareto.branching.b11, b12=sc_pareto.branching.b12,
                              b21=sc_pareto.branching.b21, b22=sc_pareto.branching.b22,
                              m1=sc_pareto.branching.m1,
                              m2=JumpMeasure(atoms=m2_atoms,
                                             tails=[AxisTail(1, "pareto", 0.5, alpha, 1.0)])))
        for alpha in FMOMENT_ALPHA
    ]
    fns = [(p, power(p)) for p in FMOMENT_P]

    def verdicts():
        out = []
        for alpha, spec in specs:
            for p, f in fns:
                v = cbre2.f_moment_verdict(sc_pareto.environment, spec, sc_pareto.x0, f)
                out.append((p, alpha, v.verdict, v.criteria["branching_tail"]))
        return out

    def laplace_check(name, extra):
        lcfg = cf.dicts[name]

        def check(res):
            fails = _rc(res, (0,), f"laplace {name}")
            if fails:
                return fails
            fails += check_laplace_z(res[1], f"laplace {name}")
            data = np.loadtxt(cf.out(name, "laplace.csv"), delimiter=",", skiprows=1)
            lam = tuple(lcfg["laplace"]["lambda"])
            fails += check_quenched(data[:, 0], data[:, 1:3], lam, lcfg["laplace"]["t"],
                                    f"laplace {name}")
            return fails + extra(data)

        return check

    def feller_closed_form(data):
        fcfg = cf.dicts["feller"]
        lam = fcfg["laplace"]["lambda"]
        v0 = ref.feller_v0(fcfg["branching"]["c1"], lam[0], fcfg["laplace"]["t"])
        fails = check_rel("feller v0", float(data[0, 1]), v0, FELLER_RTOL)
        return fails + ([] if float(data[0, 2]) == 0.0 else ["feller v0 second coordinate != 0"])

    tail_rng_seed = scenario_seed(cf.seed, "pareto-quenched")

    def tail_quenched():
        env_path = cbre2.sample_env_path(sc_pareto.environment, TAIL_T, sc_pareto.step,
                                   np.random.default_rng(tail_rng_seed))
        return cbre2.quenched_laplace(env_path, sc_pareto.branching, TAIL_LAMBDA, TAIL_T)

    return [
        moments_op(6),
        moments_op(7),
        Op("dense_table", dense_table, check_dense),
        Op("recursion_check", cli_call(["recursion-check", "--config", mixed, "--n", "6"]),
           check_recursion),
        Op("fmoment_table", verdicts, check_verdicts),
        Op("laplace", cli_call(["laplace", "--config", laplace]),
           laplace_check("laplace", lambda data: [])),
        Op("laplace_feller", cli_call(["laplace", "--config", feller]),
           laplace_check("feller", feller_closed_form)),
        Op("tail_quenched", tail_quenched,
           lambda ql: check_quenched(ql.r_grid, ql.v, TAIL_LAMBDA, TAIL_T, "tail quenched")),
    ]


WORKLOADS = {"mc_mixed": mc_mixed, "mc_coupled": mc_coupled, "exact": exact}
