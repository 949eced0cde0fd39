"""Call-interleaved A/B timing of one cbre2 CLI call on two source trees.

From the repository root, with two exports of the code (e.g. `git archive`):

    python tools/ab_calls.py PARENT CHANGE --config scenarios/verify.json --cmd verify
    python tools/ab_calls.py PARENT CHANGE --config scenarios/mixed.json --cmd "verify --n 2"

PARENT and CHANGE are directories that each hold a `src/cbre2`.  One
long-lived worker process per tree imports cbre2 from that tree's `src`
with BLAS and OpenMP pinned to one thread, and times `cbre2.cli.main` on
the call, writing its files to a temporary directory.  After one untimed
call each, the workers take turns in ABBA rounds (parent, change, change,
parent; the next round starts with the change), one call at a time, so
the two trees never run at once and both sample the same drift of the
host's speed.  Each round gives one ratio: the change's two calls over the
parent's two.  The script prints the median ratio with its distribution-free
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

WORKER = r"""
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from cbre2.cli import main
reply = sys.stdout
for line in sys.stdin:
    argv = json.loads(line)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = main(argv)
        dt = time.perf_counter() - t0
    reply.write(json.dumps([dt, rc]) + "\n")
    reply.flush()
"""


class Worker:
    """One interpreter that imports cbre2 from `tree`/src and times calls on request."""

    def __init__(self, tree: str, out: str):
        src = os.path.join(os.path.abspath(tree), "src")
        if not os.path.isdir(os.path.join(src, "cbre2")):
            raise SystemExit(f"{tree}: no src/cbre2")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, src], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )

    def call(self, argv: list[str]) -> tuple[float, int]:
        self.proc.stdin.write(json.dumps(argv + ["--out", self.out]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("a worker exited")
        dt, rc = json.loads(line)
        return dt, rc

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree A (holds src/cbre2)")
    parser.add_argument("change", help="source tree B (holds src/cbre2)")
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--cmd", required=True, help='subcommand and its flags, e.g. "verify --n 2"')
    parser.add_argument("--rounds", type=int, default=8, help="ABBA rounds (default 8)")
    args = parser.parse_args(argv)
    words = shlex.split(args.cmd)
    call = words[:1] + ["--config", os.path.abspath(args.config)] + words[1:]

    with tempfile.TemporaryDirectory() as tmp:
        workers = [Worker(tree, os.path.join(tmp, side)) for tree, side in
                   ((args.parent, "parent"), (args.change, "change"))]
        try:
            codes = [w.call(call)[1] for w in workers]  # warm-up, untimed
            if codes[0] != codes[1]:
                print(f"warning: exit codes differ: parent {codes[0]}, change {codes[1]}")
            times, ratios = ([], []), []
            for r in range(args.rounds):
                order = (0, 1, 1, 0) if r % 2 == 0 else (1, 0, 0, 1)
                spent = [0.0, 0.0]
                for side in order:
                    dt, _ = workers[side].call(call)
                    spent[side] += dt
                    times[side].append(dt)
                ratios.append(spent[1] / spent[0])
        finally:
            for w in workers:
                w.close()

    print(f"{args.cmd} on {args.config}: {args.rounds} ABBA rounds, exit code {codes[1]}")
    for side, name in ((0, "parent"), (1, "change")):
        print(f"  {name}: median call {statistics.median(times[side]):.4f} s")
    ci = sign_test_ci(ratios)
    ci_text = f"95% CI {ci[0]:.3f}-{ci[1]:.3f}" if ci else "too few rounds for a 95% CI"
    lower = sum(x < 1.0 for x in ratios)
    print(f"  change/parent: median {statistics.median(ratios):.3f} ({ci_text}); "
          f"change faster in {lower} of {len(ratios)} rounds")
    print("  ratios: " + " ".join(f"{x:.3f}" for x in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
