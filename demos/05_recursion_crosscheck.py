"""Cross-checking the closure against the integral-form moment recursion.

The n-th own-moment satisfies an integral identity: the initial term
decays/grows like e^{(beta(n) - n b_ii) t} and lower moments enter
through a convolution with coefficients built from binomials, jump
moments, the diffusion coefficient and the cross drift.  Evaluating that
right-hand side from the recursion coefficients, with the convolution
taken exactly by one block matrix exponential, against the closure's
own row is a two-route consistency check; residuals sit at rounding level.
"""

import os
from dataclasses import replace

from cbre2 import load_scenario, moment_table, recursion_check, recursion_coefficients

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
env_only, branching_only, mixed = (
    replace(load_scenario(os.path.join(SCENARIOS, f"{name}.json")), n_paths=n_paths, step=1e-3)
    for name, n_paths in (("env_only", 50_000), ("branching_only", 50_000), ("mixed", 100_000))
)

for sc in (env_only, branching_only, mixed):
    table = moment_table(sc.environment, sc.branching, sc.x0, [0.5, 1.0], 4)
    print(f"scenario: {sc.name}")
    for n in (2, 3, 4):
        for type_index in (1, 2):
            res = [
                recursion_check(sc.branching, table, n, type_index, t)[2]
                for t in (0.5, 1.0)
            ]
            print(f"  n={n} type={type_index}: residuals {res[0]:.2e} (t=0.5), {res[1]:.2e} (t=1)")

# the coefficients themselves, for one case
a, b = recursion_coefficients(mixed.branching, 3, 1)
print("\norder-3 type-1 coefficients:")
print("  A_j (own measure + diffusion add-on):", [f"{v:.4f}" for v in a])
print("  B_j (cross measure + drift add-on):  ", [f"{v:.4f}" for v in b])
