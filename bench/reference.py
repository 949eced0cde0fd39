"""Reference values computed apart from cbre2.

Everything here reads the scenario JSON dictionaries directly and uses
numpy only, so a fault in cbre2's moment closure, its 2x2 exponential or
its scenario loader cannot hide itself by also corrupting the reference.

- `first_moment(cfg, t)`: E X(t) = e^{beta~ t} exp(-t b~^T) x0, where
  beta~ is the first Levy exponent of the environment and b~ is the
  drift matrix with off-diagonals corrected by the first cross-moments of
  the branching jump measures (atoms and Pareto axis tails).
- `feller_v0(c, lam, t)`: the Feller Laplace exponent lam / (1 + c lam t).
- `power_vs_pareto_finite(p, alpha)`: a power p against a Pareto index
  alpha has a finite f-moment iff p < alpha.
"""

from __future__ import annotations

import math

import numpy as np


def _as_float(v) -> float:
    return math.inf if v == "inf" else float(v)


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a 30-term Taylor sum."""
    a = np.asarray(a, dtype=float)
    nrm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(nrm))) + 1 if nrm > 0.5 else 0
    b = a / 2.0**s
    out = np.eye(len(a))
    term = np.eye(len(a))
    for k in range(1, 30):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def env_beta1(env: dict) -> float:
    """beta(1) = a + sigma^2/2 + the atom part of the Levy integral.

    Small atoms (|z| <= 1) contribute e^z - 1 - z, large ones e^z - 1;
    positive large atoms above the truncation level contribute nothing.
    """
    clip = _as_float(env.get("trunc_level", "inf"))
    total = float(env.get("a", 0.0)) + 0.5 * float(env.get("sigma1", 0.0)) ** 2
    for c in env.get("nu", []):
        if c["kind"] != "atom":
            raise ValueError(f"reference handles environment atoms only, not {c['kind']}")
        m, z = float(c["mass"]), float(c["z"])
        if abs(z) <= 1.0:
            total += m * (math.exp(z) - 1.0 - z)
        elif z < 0 or z <= clip:
            total += m * (math.exp(z) - 1.0)
    return total


def measure_first_moment(components: list, coord: int) -> float:
    """Integral of z_coord over a branching jump measure (coord 1 or 2).

    Atoms contribute mass * z; a Pareto tail on axis `coord` with index
    alpha and cutoff x0 contributes mass * alpha * x0 / (alpha - 1).
    """
    total = 0.0
    for c in components:
        if c["kind"] == "atom":
            total += float(c["mass"]) * float(c["z"][coord - 1])
        elif c["kind"] == "pareto":
            if int(c["axis"]) == coord:
                alpha, x0 = float(c["alpha"]), float(c["x0"])
                if alpha <= 1.0:
                    raise ValueError("Pareto tail with alpha <= 1 has no first moment")
                total += float(c["mass"]) * alpha * x0 / (alpha - 1.0)
        else:
            raise ValueError(f"reference handles atoms and Pareto tails only, not {c['kind']}")
    return total


def effective_drift(br: dict) -> np.ndarray:
    b = np.array(br.get("b", [[0.0, 0.0], [0.0, 0.0]]), dtype=float)
    b[0, 1] -= measure_first_moment(br.get("m1", []), 2)
    b[1, 0] -= measure_first_moment(br.get("m2", []), 1)
    return b


def first_moment(cfg: dict, t: float) -> np.ndarray:
    """E X(t) for the scenario dictionary `cfg`."""
    beta1 = env_beta1(cfg["environment"])
    bt = effective_drift(cfg["branching"])
    x0 = np.array(cfg["x0"], dtype=float)
    return math.exp(beta1 * t) * (expm_taylor(-t * bt.T) @ x0)


def feller_v0(c: float, lam: float, t: float) -> float:
    """Laplace exponent v_{0,t}(lam) of Feller's diffusion dX = sqrt(2cX) dB."""
    return lam / (1.0 + c * lam * t)


def power_vs_pareto_finite(p: float, alpha: float) -> bool:
    """E (1+|X|)^p is finite against a Pareto(alpha) jump tail iff p < alpha."""
    return p < alpha
