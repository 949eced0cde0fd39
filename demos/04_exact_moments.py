"""Exact mixed moments from the generator-derived linear ODE closure.

All monomial moments m_{p,q}(t) = E[X1^p X2^q] with p+q <= n satisfy a
closed linear system dm/dt = G m (each row couples only to equal or
lower total degree).  The degree-1 block is exactly beta(1) I - b~^T,
which gives the first-moment closed form; the n-th own-moment is a
polynomial of the initial state with degree <= n.
"""

import os
from dataclasses import replace

import numpy as np

from cbre2 import (
    build_moment_generator,
    first_moment_closed_form,
    load_scenario,
    moment_polynomial,
    moment_table,
)
SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
sc = replace(load_scenario(os.path.join(SCENARIOS, "mixed.json")), n_paths=100_000, step=1e-3)
env, spec, x0 = sc.environment, sc.branching, sc.x0

gen = build_moment_generator(env, spec, 2)
print("monomial basis:", gen.basis)
print("closure matrix G:")
print(np.array2string(gen.matrix, precision=4, suppress_small=True))

table = moment_table(env, spec, x0, [0.25, 0.5, 1.0], 4)
print("\nselected moments:")
for pq in [(1, 0), (0, 1), (2, 0), (1, 1), (4, 0)]:
    vals = ", ".join(f"{table.entry(*pq, t):.5g}" for t in (0.25, 0.5, 1.0))
    print(f"  m_{pq} at t = 0.25, 0.5, 1.0: {vals}")

print("\ndegree-1 marginals vs the closed form e^{beta~ t} exp(-t b~^T) x0:")
for t in (0.25, 0.5, 1.0):
    cf = first_moment_closed_form(env, spec, x0, t)
    got = (table.entry(1, 0, t), table.entry(0, 1, t))
    print(f"  t={t}: ODE ({got[0]:.10f}, {got[1]:.10f})  closed ({cf[0]:.10f}, {cf[1]:.10f})")

# the polynomial-in-initial-value structure: the coefficients are a row of expm(G t)
for k in (1, 2, 3):
    poly = moment_polynomial(env, spec, k, 1, 0.7)
    degree = max(p + q for (p, q), c in poly.items() if c != 0.0)
    print(f"E[X1(0.7)^{k}] as a polynomial of x0: degree {degree}, {len(poly)} coefficients")
