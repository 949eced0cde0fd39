"""Benchmark runner for cbre2.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload mc_mixed --seed 1 --seconds 25 --trace 0

Run from the repository root.  With `--trace 0` it prints the end-to-end
metrics (`setup_s`, `job_s`, `peak_rss_mb`); with `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.
`--self-check RUNS` instead runs every workload RUNS times through the
command in BENCHMARK.json and prints each metric's median and quartiles.
See bench/README.md for the workloads and the reasons behind the timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ROUNDS = 3  # timed rounds, even when rounds outlast --seconds
SETUP_REPEATS = 10  # fresh-interpreter set-ups per run, at least
ONLY_REPEATS = 3  # repetitions of each single-component engine run

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import cbre2
from cbre2.scenario import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
print(time.perf_counter() - t0)
"""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_once(config_paths) -> float:
    """One fresh interpreter importing cbre2 and loading the configs; its time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, *config_paths],
        env=env, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Rounds:
    """Runs whole rounds of a workload's operations and counts failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.samples = {op.name: [] for op in ops}  # timed calls of each operation
        self.setups = []  # fresh-interpreter set-up times

    def run(self, timed: bool = True) -> float:
        """One round; returns the summed wall time of the operations' calls."""
        total = 0.0
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:  # a crash in cbre2 is a failed operation
                total += time.perf_counter() - t0
                self.failed += 1
                print(f"{op.name}: raised {type(e).__name__}: {e}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            total += dt
            if timed:
                self.samples[op.name].append(dt)
            problems = op.check(result)
            if problems:
                self.failed += 1
                self.check_failures += 1
                for p in problems[:5]:
                    print(f"{op.name}: check failed: {p}", file=sys.stderr)
        return total

    def job_s(self) -> float:
        """Sum over the operations of each one's median timed call."""
        return sum(statistics.median(v) for v in self.samples.values() if v)


def until(deadline: float, rounds: int) -> bool:
    return rounds < MIN_ROUNDS or time.perf_counter() < deadline


def only_component_times(seed: int) -> dict:
    """simulate_states on the mixed inputs with all but one component switched off."""
    import numpy as np

    from cbre2 import BranchingSpec, LevyEnvSpec, simulate_states
    from cbre2.scenario import load_scenario
    import workloads

    sc = load_scenario(os.path.join(ROOT, "scenarios", "mixed.json"))
    b, env = sc.branching, sc.environment
    quiet_env = LevyEnvSpec()
    variants = {
        "drift": (quiet_env, BranchingSpec(b11=b.b11, b12=b.b12, b21=b.b21, b22=b.b22)),
        "diffusion": (quiet_env, BranchingSpec(c1=b.c1, c2=b.c2)),
        "branching": (quiet_env, BranchingSpec(m1=b.m1, m2=b.m2)),
        "env": (env, BranchingSpec()),
    }
    out = {}
    for name, (e, spec) in variants.items():
        times = []
        for _ in range(ONLY_REPEATS):
            rng = np.random.default_rng(workloads.scenario_seed(seed, "only-" + name))
            t0 = time.perf_counter()
            simulate_states(e, spec, sc.x0, sc.horizon, sc.step, workloads.MIXED_PATHS, rng,
                            record_times=[sc.horizon])
            times.append(time.perf_counter() - t0)
        out[f"simulate.only_{name}_s"] = statistics.median(times)
    return out


def end_to_end(rounds: Rounds, configs, seconds: float) -> dict:
    # Set-ups alternate with rounds so that both sample the whole run, and
    # every time is a median: on a shared host a core can switch between a
    # fast and a slow speed every few seconds, and then the fastest sample
    # is the less repeatable statistic (README.md, "Timing").
    paths = list(configs.paths.values())
    rounds.setups.append(setup_once(paths))
    rounds.run(timed=False)  # warm-up: caches, lazy imports, first-call costs
    deadline = time.perf_counter() + seconds
    n = 0
    while until(deadline, n):
        rounds.setups.append(setup_once(paths))
        rounds.run()
        n += 1
    while len(rounds.setups) < SETUP_REPEATS:
        rounds.setups.append(setup_once(paths))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(rounds.setups), "unit": "s"},
        "job_s": {"value": rounds.job_s(), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(rounds: Rounds, seconds: float, seed: int, trace_path: str) -> dict:
    from spans import Tracer

    rounds.run(timed=False)  # warm-up, untraced
    traced = []  # one Tracer per traced round
    plain_jobs, traced_jobs = [], []
    deadline = time.perf_counter() + seconds
    while until(deadline, len(traced)):
        plain_jobs.append(rounds.run(timed=False))
        tracer = Tracer()
        with tracer.installed():
            traced_jobs.append(rounds.run(timed=False))
        traced.append(tracer)
    traced[-1].dump(trace_path)

    def s(layer):
        return statistics.median(t.self_s.get(layer, 0.0) for t in traced)

    def count(key):
        return statistics.median(t.counts.get(key, 0) for t in traced)

    def rate(work, seconds_):
        return work / seconds_ if seconds_ > 0 else 0.0

    m = {
        "simulate.batch_s": (s("simulate.batch"), "s"),
        "simulate.path_steps_per_s": (
            rate(count("simulate.path_steps"), s("simulate.batch")), "1/s"),
        "simulate.per_path_s": (s("simulate.per_path"), "s"),
        "simulate.recorded_mb": (count("simulate.recorded_bytes_max") / 2**20, "MB"),
        "moments.table_s": (s("moments.table"), "s"),
        "moments.recursion_s": (s("moments.recursion"), "s"),
        "moments.quenched_s": (s("moments.quenched"), "s"),
        "moments.annealed_s": (s("moments.annealed"), "s"),
        "moments.annealed_path_steps_per_s": (
            rate(count("moments.annealed_path_steps"), s("moments.annealed")), "1/s"),
        "branching.phi_eval_calls": (
            statistics.median(t.calls.get("branching.phi_eval", 0) for t in traced), "count"),
        "branching.phi_eval_s": (s("branching.phi_eval"), "s"),
        "measures.phi_integral_s": (s("measures.phi_integral"), "s"),
        "measures.sample_s": (s("measures.sample"), "s"),
        "env.sample_path_s": (s("env.sample_path"), "s"),
        "fmoment.verdict_s": (s("fmoment.verdict"), "s"),
        "verify.self_s": (s("verify"), "s"),
        "scenario.load_s": (s("scenario.load"), "s"),
        "cli.self_s": (s("cli"), "s"),
        "trace.overhead_s": (
            statistics.median(traced_jobs) - statistics.median(plain_jobs), "s"),
    }
    m.update({k: (v, "s") for k, v in only_component_times(seed).items()})
    print(f"untraced rounds: {' '.join(f'{t:.4f}' for t in plain_jobs)}", file=sys.stderr)
    print(f"traced rounds:   {' '.join(f'{t:.4f}' for t in traced_jobs)}", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def run_workload(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "cbre2", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "scenarios")
    ):
        fail(f"{ROOT} has no src/cbre2 and scenarios/; run from the repository root")
    unpinned = [v for v in PINNED if os.environ.get(v) != "1"]
    if unpinned:
        fail(f"set {', '.join(f'{v}=1' for v in unpinned)} (see BENCHMARK.json's command)")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    try:
        configs = workloads.Configs(ROOT, tmp, args.seed)
        rounds = Rounds(workloads.WORKLOADS[args.workload](configs))
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            metrics = per_layer(rounds, args.seconds, args.seed,
                                os.path.join(OUT, f"trace-{tag}.json"))
        else:
            metrics = end_to_end(rounds, configs, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": rounds.check_failures == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, op_seconds=rounds.samples, setup_seconds=rounds.setups), f,
                  indent=1)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", type=int, metavar="RUNS",
                   help="run every workload RUNS times and print medians and quartiles")
    p.add_argument("--first-seed", type=int, default=1, help="first seed of --self-check")
    args = p.parse_args(argv)
    if args.self_check:
        sys.path.insert(0, HERE)
        import selfcheck

        return selfcheck.main(ROOT, args.self_check, args.first_seed,
                              [args.workload] if args.workload else None)
    if not args.workload:
        fail("--workload is required")
    result = run_workload(args)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {result['attempted']} operations attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
