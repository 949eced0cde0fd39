"""Steadiness check: run each workload several times and summarise the spread.

Runs the command of BENCHMARK.json once per seed (first_seed,
first_seed+1, ...) for each workload, then prints every end-to-end
metric's median and quartiles (`statistics.quantiles(values, n=4)`) and
the quartile distance as a share of the median next to the metric's
bound.  The per-run results and the summary go to .bench_out/.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time


def run_once(root, spec, workload, seed) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results, bounds) -> dict:
    out = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "bound": bound, "values": vals}
    return out


def main(root: str, runs: int, first_seed: int, workloads=None) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads or [w["name"] for w in spec["workloads"]]
    report = {}
    for w in names:
        results = []
        for seed in range(first_seed, first_seed + runs):
            r = run_once(root, spec, w, seed)
            results.append(r)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                + f", failed {r['failed']}/{r['attempted']}, wall {r['wall_s']:.1f}s",
                flush=True)
        summary = summarise(results, bounds)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        report[w] = {"metrics": summary, "failed_shares": shares,
                     "correct": all(r["correct"] for r in results)}
        for name, s in summary.items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"{w:10s} {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {100 * s['spread']:.2f}% "
                  f"(bound {100 * s['bound']:.0f}%) {flag}")
        print(f"{w:10s} failed shares {shares}, all correct: {report[w]['correct']}", flush=True)
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    path = os.path.join(root, ".bench_out",
                        f"selfcheck-seed{first_seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"summary written to {path}")
    return 0
