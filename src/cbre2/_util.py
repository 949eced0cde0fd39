"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np


def expm2(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real 2x2 matrix, in closed form.

    Splits A = tau*I + B with tr(B) = 0, so B^2 = mu^2 * I and
    exp(A) = e^tau * (cosh(mu) I + sinh(mu)/mu B).  The mu -> 0 limit
    (defective / equal-eigenvalue case) is taken by series, and complex
    conjugate eigenvalues go through the same formula with imaginary mu.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("expm2 expects a 2x2 matrix")
    tau = 0.5 * (a[0, 0] + a[1, 1])
    b = a - tau * np.eye(2)
    mu2 = b[0, 0] * b[0, 0] + b[0, 1] * b[1, 0]  # = -det(B)
    if abs(mu2) < 1e-14:
        # sinh(mu)/mu ~ 1 + mu^2/6, cosh(mu) ~ 1 + mu^2/2
        c, s = 1.0 + mu2 / 2.0, 1.0 + mu2 / 6.0
    elif mu2 > 0:
        mu = math.sqrt(mu2)
        c, s = math.cosh(mu), math.sinh(mu) / mu
    else:
        om = math.sqrt(-mu2)
        c, s = math.cos(om), math.sin(om) / om
    return math.exp(tau) * (c * np.eye(2) + s * b)


def fsum_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a 1-d sample via compensated summation.

    Deterministic regardless of how the sample was assembled, which keeps reports
    byte-identical across reruns; fsum is correctly rounded, so a list sums to the
    bits of the array, faster.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n == 0:
        return math.nan, math.nan
    mean = math.fsum(x.tolist()) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum(((x - mean) ** 2).tolist()) / (n - 1)
    return mean, math.sqrt(var / n)


def z_score(gap: float, se: float) -> float:
    """gap / se, signed: 0 when the gap is 0, and +-inf when only the standard error is 0."""
    if gap == 0.0:
        return 0.0
    return gap / se if se > 0 else math.copysign(math.inf, gap)


def format_float(x) -> str:
    """Shortest round-trip decimal representation; used by all CSV writers."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    if xf == int(xf) and abs(xf) < 1e16:
        return str(int(xf))
    return repr(xf)


def csv_lines(header: str, rows) -> list[str]:
    """`header`, then one line per row: strings pass through, the rest goes through `format_float`."""
    return [header] + [
        ",".join(v if isinstance(v, str) else format_float(v) for v in row) for row in rows
    ]
