"""Command-line entry point: scenario ingestion, orchestration, report files.

Subcommands: simulate, moments, recursion-check, laplace, verify,
fmoment, couple.  Exit codes: 0 on success/pass, 1 on a validation or
configuration error, 2 on a failed verification assertion.  Only `main`
writes files, after the command has returned, so a command that fails
leaves no output directory and no file.  All CSV numbers use the
shortest round-trip decimal form, so identical invocations produce
byte-identical file bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .errors import Cbre2Error, ConfigError
from .fmoment import f_moment_verdict
from .moments import (
    annealed_laplace_mc,
    moment_table,
    monomial_basis,
    quenched_laplace,
    recursion_check,
)
from .env import realize_env_path, sample_env_skeleton
from .scenario import ScenarioConfig, dump_scenario, load_scenario
from .simulate import scenario_states, simulate_paths
from ._util import csv_lines, fsum_mean_se, z_score


def _write(directory: str, files: dict[str, list[str]]) -> None:
    """Create `directory` and write each file of `files`, one line per item."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output.directory: cannot create {directory}: {e.strerror}") from e
    for name, lines in files.items():
        path = os.path.join(directory, name)
        try:
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
        except OSError as e:
            raise ConfigError(f"output.directory: cannot write {path}: {e.strerror}") from e


# A command maps a scenario to (exit code, {file name: lines}, summary text)
# and touches no file; `main` writes the files and prints the summary.
Outputs = tuple[int, dict[str, list[str]], str]


def _cmd_simulate(sc: ScenarioConfig) -> Outputs:
    _, states = scenario_states(sc, sc.n_paths, sc.seed, record_times=[sc.horizon])
    summary = verify_mod.EstimateReport("simulate")
    for i in (0, 1):
        summary.add(sc.horizon, f"mean_X{i + 1}", *fsum_mean_se(states[0, :, 0, i]))
    files = {"simulate_summary.csv": summary.csv_lines()}
    m1, m2 = (r.estimate for r in summary.rows)
    n_dump = min(sc.output.dump_paths, sc.n_paths)
    if n_dump > 0:
        for i, path in enumerate(simulate_paths(sc, n_dump, sc.seed)):
            rows = zip(path.grid, path.states[:, 0], path.states[:, 1], path.xi)
            files[f"path_{i:03d}.csv"] = csv_lines("t,X1,X2,xi", rows)
    return 0, files, (
        f"{sc.n_paths} paths to t={sc.horizon:g}; mean X({sc.horizon:g}) = ({m1:.6g}, {m2:.6g}); "
        f"dumped {n_dump} paths to {sc.output.directory}"
    )


def _cmd_moments(sc: ScenarioConfig) -> Outputs:
    degree = sc.moment_degree
    t_grid = np.linspace(0.0, sc.horizon, 11)
    table = moment_table(sc.environment, sc.branching, sc.x0, t_grid, degree, sc.truncation)
    rows = [
        (t, p, q, table.values[(p, q)][k], table.finite[(p, q)])
        for p, q in monomial_basis(degree)
        for k, t in enumerate(t_grid)
    ]
    n_inf = sum(1 for pq in table.finite if not table.finite[pq])
    return 0, {"moments.csv": csv_lines("t,p,q,value,finite_flag", rows)}, (
        f"degree {degree} on {len(t_grid)} times; {n_inf} monomials flagged infinite; "
        f"wrote {sc.output.directory}/moments.csv"
    )


def _cmd_recursion_check(sc: ScenarioConfig) -> Outputs:
    degree = max(2, sc.moment_degree)
    t_grid = [sc.horizon / 2.0, sc.horizon]
    table = moment_table(sc.environment, sc.branching, sc.x0, t_grid, degree, sc.truncation)
    rows = [
        (t, n, type_index, *recursion_check(sc.branching, table, n, type_index, t))
        for n in range(2, degree + 1)
        for type_index in (1, 2)
        for t in t_grid
    ]
    worst = 0.0  # max(worst, nan) is worst: a NaN residual leaves the verdict as it is
    for *_, res in rows:
        worst = max(worst, res)
    ok = worst < sc.recursion_tol
    return 0 if ok else 2, {"recursion_check.csv": csv_lines("t,n,type,lhs,rhs,residual", rows)}, (
        f"orders 2..{degree}, both types; "
        f"max residual {worst:.3g} ({'PASS' if ok else 'FAIL'} at {sc.recursion_tol:g})"
    )


def _cmd_laplace(sc: ScenarioConfig) -> Outputs:
    if sc.laplace_lambda is None:
        raise ConfigError("laplace: missing 'laplace' block ({lambda, t}) in the config")
    if math.isfinite(sc.truncation.branching.axis_bound):  # the rule drops some jumps
        raise ConfigError("truncation.branching_rule: laplace supports environment truncation "
                          "only; phi of a truncated mechanism is not implemented")
    lam, t = sc.laplace_lambda, sc.laplace_t
    env, clip = sc.environment, sc.truncation.env_clip
    skel = sample_env_skeleton(env, t, sc.step, np.random.default_rng(sc.seed))
    env_path = realize_env_path(env, skel, clip)
    ql = quenched_laplace(env_path, sc.branching, lam, t)
    files = {"laplace.csv": csv_lines("r,v1,v2", zip(ql.r_grid, ql.v[:, 0], ql.v[:, 1]))}
    ann, ann_se = annealed_laplace_mc(
        env, sc.branching, sc.x0, lam, t, sc.n_paths, sc.step, sc.seed + 1, clip=clip
    )
    _, states = scenario_states(sc, sc.n_paths, sc.seed + 2, record_times=[t])
    direct, direct_se = fsum_mean_se(
        np.exp(-(states[0, :, 0, 0] * lam[0] + states[0, :, 0, 1] * lam[1]))
    )
    z = z_score(ann - direct, math.hypot(ann_se, direct_se))
    return 0 if abs(z) <= 4.0 else 2, files, (  # also 2 for an infinite or NaN z
        f"v0 = ({ql.v0[0]:.8g}, {ql.v0[1]:.8g}); "
        f"annealed {ann:.6g} (se {ann_se:.2g}) vs direct MC {direct:.6g} "
        f"(se {direct_se:.2g}), z = {z:+.2f}"
    )


def _cmd_verify(sc: ScenarioConfig) -> Outputs:
    """verify_<report>.csv for each report of `verify_reports`.

    All reports come from one engine pass at the scenario seed, which runs
    the union of the truncation variants they need.
    """
    by_name = verify_mod.verify_reports(sc, sc.moment_degree, sc.n_paths, sc.seed)
    files = {f"verify_{name}.csv": rep.csv_lines() for name, rep in by_name.items()}
    reports = list(by_name.values())
    n_pass = sum(r.passed for r in reports)
    names = ", ".join(f"{r.name}={'PASS' if r.passed else 'FAIL'}" for r in reports)
    notes = "".join(f"; {r.name}: {r.notes}" for r in reports if r.notes)
    return 0 if n_pass == len(reports) else 2, files, (
        f"{n_pass}/{len(reports)} reports pass ({names}){notes}"
    )


def _cmd_fmoment(sc: ScenarioConfig) -> Outputs:
    if sc.fmoment_function is None:
        raise ConfigError("fmoment: missing 'fmoment' block (test-function descriptor)")
    verdict = f_moment_verdict(
        sc.environment, sc.branching, sc.x0, sc.fmoment_function, sc.truncation
    )
    payload = json.dumps(verdict.to_dict(), indent=2, sort_keys=True)
    return 0, {"fmoment.json": [payload]}, (
        f"f = {sc.fmoment_function.describe()} -> {verdict.verdict} "
        f"(branching {verdict.criteria['branching_tail']}, "
        f"environment {verdict.criteria['environment_tail']})"
    )


def _cmd_couple(sc: ScenarioConfig) -> Outputs:
    if sc.coupling_k is None:
        raise ConfigError("couple: missing 'verify.coupling_k' [k1, k2] in the config")
    k1, k2 = sc.coupling_k
    rep = verify_mod.coupling_monotonicity_report(sc, k1, k2, sc.n_paths, sc.seed)
    return 0 if rep.passed else 2, {"coupling.csv": rep.csv_lines()}, (
        f"k1={k1:g} <= k2={k2:g} over {sc.n_paths} paths: {'PASS' if rep.passed else 'FAIL'}"
    )


COMMANDS = {
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "recursion-check": _cmd_recursion_check,
    "laplace": _cmd_laplace,
    "verify": _cmd_verify,
    "fmoment": _cmd_fmoment,
    "couple": _cmd_couple,
}
SUBCOMMANDS = tuple(COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbre2",
        description="Two-type branching processes in a Levy random environment: "
        "simulation, exact moments, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--n", type=int, default=None, help="moment degree override")
        p.add_argument(
            "--dump-config",
            action="store_true",
            help="echo the validated, normalized config and exit",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
        sc = sc.with_overrides(
            seed=args.seed, n_paths=args.paths, out_dir=args.out, moment_degree=args.n
        )
        if args.dump_config:
            sys.stdout.write(dump_scenario(sc))
            return 0
        rc, files, text = COMMANDS[args.command](sc)
        _write(sc.output.directory, files)
        print(f"{args.command} [{sc.name or 'scenario'}]: {text}")
        return rc
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Cbre2Error as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
