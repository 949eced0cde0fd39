"""Truncated variants under shared randomness: ordering and convergence.

X^(k) removes branching jumps with norm above k and clips positive
environment jumps; driving every variant with the same draws couples
them monotonically.  For pure-jump mechanisms whose kept-region
compensator moments agree across levels, the ordering holds pathwise
exactly in the discrete scheme; the truncation gap E|X - X^(k)| then
decays as k grows.
"""

import os

from cbre2 import load_scenario, norm_cap, scenario_states
from cbre2.verify import coupling_monotonicity_report, truncation_convergence_report

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
sc = load_scenario(os.path.join(SCENARIOS, "coupling.json"))
# 200 coupled paths, both variants recorded at every grid time
_, (a, b) = scenario_states(sc, 200, sc.seed, predicates=(norm_cap(2.0), norm_cap(5.0)))
violations = int((a > b + 1e-12).any(axis=(1, 2)).sum())
strict = int((b > a).any(axis=(1, 2)).sum())
print(f"coupled pairs: {violations} ordering violations; {strict}/200 paths strictly separated")

rep = coupling_monotonicity_report(sc, 2.0, 5.0, 5_000, sc.seed)
total = sum(r.estimate for r in rep.rows if r.statistic == "ordering_violations")
print(f"vectorized report over 5000 paths x full grid: {total:.0f} violations ({'PASS' if rep.passed else 'FAIL'})")

sp = load_scenario(os.path.join(SCENARIOS, "pareto.json"))
rep = truncation_convergence_report(sp, (2.0, 4.0, 8.0, 16.0), 5_000, sp.seed)
print("\ntruncation gap E|X(1) - X^(k)(1)| on the heavy-tailed scenario:")
for r in rep.rows:
    if r.statistic.startswith("l1_gap"):
        print(f"  {r.statistic}: {r.estimate:.4f} (se {r.se:.4f})")
final = [r for r in rep.rows if r.statistic == "final_gap_below_eps"][0]
print(f"final gap {final.estimate:.4f} < eps = {final.target:.4f}: {final.ok}")
