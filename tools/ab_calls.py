"""Call-interleaved A/B timing of cbre2 calls on two source trees.

From the repository root, with two exports of the code (e.g. `git archive`):

    python tools/ab_calls.py PARENT CHANGE --config scenarios/verify.json --cmd verify
    python tools/ab_calls.py PARENT CHANGE --config scenarios/mixed.json --cmd "verify --n 2"
    python tools/ab_calls.py PARENT CHANGE --workload mc_coupled --seed 101

PARENT and CHANGE are directories that each hold a `src/cbre2`.  One
long-lived worker process per tree imports cbre2 from that tree's `src`
with BLAS and OpenMP pinned to one thread.  With `--config/--cmd` it
times `cbre2.cli.main` on the call, writing its files to a temporary
directory.  With `--workload W` it builds the benchmark's own operations
of W (`bench/workloads.py` of this repository, on its `scenarios/`, at
`--seed`) and times each operation's call, then runs the operation's
checks on what the call returned and counts the calls that fail them.

After one untimed call of each operation, the workers take turns in ABBA
rounds (parent, change, change, parent; the next round starts with the
change), one call at a time, so the two trees never run at once and both
sample the same drift of the host's speed.  Each round gives one ratio per
operation, the change's two calls over the parent's two, and in workload
mode one `job_s` ratio, the change's calls of every operation over the
parent's.  The script prints each median ratio with its distribution-free
95% confidence interval (sign-test order statistics; none below 6 rounds).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKER = r"""
import contextlib, io, json, sys, time
src, root, workload, seed, tmp = sys.argv[1:6]
sys.path.insert(0, src)
from cbre2.cli import main
ops = []
if workload:
    sys.path.insert(0, root + "/bench")
    import workloads
    ops = workloads.WORKLOADS[workload](workloads.Configs(root, tmp, int(seed)))
reply = sys.stdout
for line in sys.stdin:
    kind, arg = json.loads(line)
    if kind == "names":
        reply.write(json.dumps([op.name for op in ops]) + "\n")
        reply.flush()
        continue
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            result = main(arg) if kind == "cli" else ops[arg].run()
            failed = None
        except Exception as e:  # a crash in cbre2 is a failed call
            result, failed = None, f"raised {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if kind == "op" and failed is None:
            failed = "; ".join(ops[arg].check(result)[:3]) or None
    reply.write(json.dumps([dt, result if kind == "cli" else failed]) + "\n")
    reply.flush()
"""


class Worker:
    """One interpreter that imports cbre2 from `tree`/src and times calls on request."""

    def __init__(self, tree: str, out: str, workload: str = "", seed: int = 1):
        src = os.path.join(os.path.abspath(tree), "src")
        if not os.path.isdir(os.path.join(src, "cbre2")):
            raise SystemExit(f"{tree}: no src/cbre2")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        self.out = out
        os.makedirs(out, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, src, ROOT, workload, str(seed), out],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def _ask(self, kind: str, arg) -> list:
        self.proc.stdin.write(json.dumps([kind, arg]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("a worker exited")
        return json.loads(line)

    def op_names(self) -> list[str]:
        return self._ask("names", None)

    def call(self, argv: list[str]) -> tuple[float, int]:
        """Time one CLI call; (seconds, exit code)."""
        dt, rc = self._ask("cli", argv + ["--out", self.out])
        return dt, rc

    def op(self, i: int) -> tuple[float, str | None]:
        """Time the workload's operation i and check it; (seconds, failure or None)."""
        dt, failed = self._ask("op", i)
        return dt, failed

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def sign_test_ci(values: list[float], level: float = 0.95):
    """The widest-rank interval (x_(k), x_(n+1-k)) whose coverage of the median is at least
    `level`: 1 - 2 P(Binomial(n, 1/2) <= k - 1).  None when even (min, max) falls short."""
    xs, n = sorted(values), len(values)
    best, tail = None, 0.0
    for k in range(1, n // 2 + 1):
        tail += math.comb(n, k - 1) / 2**n
        if 1.0 - 2.0 * tail < level:
            break
        best = (xs[k - 1], xs[n - k])
    return best


def ratio_line(label: str, ratios: list[float]) -> str:
    """One line: the median change/parent ratio, its 95% CI and the rounds the change won."""
    ci = sign_test_ci(ratios)
    ci_text = f"95% CI {ci[0]:.3f}-{ci[1]:.3f}" if ci else "too few rounds for a 95% CI"
    lower = sum(x < 1.0 for x in ratios)
    return (f"  {label}: median {statistics.median(ratios):.3f} ({ci_text}); "
            f"change faster in {lower} of {len(ratios)} rounds")


def abba(rounds: int, calls: int, timed_call) -> tuple[list, list]:
    """`rounds` ABBA rounds of each of `calls` calls; timed_call(side, i) -> seconds.

    Returns each side's times of each call, and each round's per-call ratios
    (the change's two calls over the parent's two).
    """
    times = [[[] for _ in range(calls)] for _ in range(2)]
    ratios = []
    for r in range(rounds):
        order = (0, 1, 1, 0) if r % 2 == 0 else (1, 0, 0, 1)
        row = []
        for i in range(calls):
            spent = [0.0, 0.0]
            for side in order:
                dt = timed_call(side, i)
                spent[side] += dt
                times[side][i].append(dt)
            row.append(spent[1] / spent[0])
        ratios.append(row)
    return times, ratios


def run_cli(args, workers) -> None:
    words = shlex.split(args.cmd)
    call = words[:1] + ["--config", os.path.abspath(args.config)] + words[1:]
    codes = [w.call(call)[1] for w in workers]  # warm-up, untimed
    if codes[0] != codes[1]:
        print(f"warning: exit codes differ: parent {codes[0]}, change {codes[1]}")
    times, ratios = abba(args.rounds, 1, lambda side, i: workers[side].call(call)[0])
    print(f"{args.cmd} on {args.config}: {args.rounds} ABBA rounds, exit code {codes[1]}")
    for side, name in ((0, "parent"), (1, "change")):
        print(f"  {name}: median call {statistics.median(times[side][0]):.4f} s")
    ratios = [row[0] for row in ratios]
    print(ratio_line("change/parent", ratios))
    print("  ratios: " + " ".join(f"{x:.3f}" for x in ratios))


def run_workload(args, workers) -> None:
    names = workers[0].op_names()  # both workers build them from this repository's bench
    failures = [[0] * len(names), [0] * len(names)]

    def timed(side, i):
        dt, failed = workers[side].op(i)
        if failed:
            failures[side][i] += 1
            print(f"  {('parent', 'change')[side]} {names[i]}: {failed}")
        return dt

    for i in range(len(names)):  # warm-up, untimed
        for side in (0, 1):
            timed(side, i)
    times, ratios = abba(args.rounds, len(names), timed)
    print(f"workload {args.workload} at seed {args.seed}: {args.rounds} ABBA rounds")
    for i, name in enumerate(names):
        print(f"  {name}: median call parent {statistics.median(times[0][i]):.4f} s, "
              f"change {statistics.median(times[1][i]):.4f} s; failed calls parent "
              f"{failures[0][i]}, change {failures[1][i]} of {args.rounds * 2 + 1}")
        print(ratio_line(f"{name} change/parent", [row[i] for row in ratios]))
    # job_s ratio of a round: the change's calls of every operation over the parent's
    jobs = [sum(times[1][i][2 * r] + times[1][i][2 * r + 1] for i in range(len(names)))
            / sum(times[0][i][2 * r] + times[0][i][2 * r + 1] for i in range(len(names)))
            for r in range(args.rounds)]
    print(ratio_line("job_s change/parent", jobs))
    print("  job_s ratios: " + " ".join(f"{x:.3f}" for x in jobs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree A (holds src/cbre2)")
    parser.add_argument("change", help="source tree B (holds src/cbre2)")
    parser.add_argument("--config", help="scenario JSON file (with --cmd)")
    parser.add_argument("--cmd", help='subcommand and its flags, e.g. "verify --n 2"')
    parser.add_argument("--workload", help="a workload of bench/workloads.py, e.g. mc_coupled")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("--rounds", type=int, default=8, help="ABBA rounds (default 8)")
    args = parser.parse_args(argv)
    given = (args.workload is not None, args.config is not None, args.cmd is not None)
    if given not in ((True, False, False), (False, True, True)):
        parser.error("give either --config and --cmd, or --workload")

    with tempfile.TemporaryDirectory() as tmp:
        workers = [Worker(tree, os.path.join(tmp, side), args.workload or "", args.seed)
                   for tree, side in ((args.parent, "parent"), (args.change, "change"))]
        try:
            (run_workload if args.workload else run_cli)(args, workers)
        finally:
            for w in workers:
                w.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
