"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np


# Pade numerators b_0..b_m of degrees 3, 5, 7, 9 and 13, and the 1-norm bound
# theta_m up to which degree m meets double precision without scaling
# (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179, table 2.3).  For m <= 9
# the two rows are the odd and the even coefficients on I, A^2, ..., A^(m-1).
_PADE = tuple((theta, np.array([b[1::2], b[0::2]])) for theta, b in (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
      110880.0, 3960.0, 90.0, 1.0)),
))
_THETA13 = 5.371920351148152
# degree 13 on I, A^2, A^4, A^6: U = A (A^6 U1 + U2), V = A^6 V1 + V2, one row each
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_C13 = np.array([[0.0, *_B13[9::2]], _B13[1:8:2], [0.0, *_B13[8::2]], _B13[0:7:2]])


def _balance(a: np.ndarray) -> np.ndarray:
    """Integer exponents k such that D^-1 A D, with D = diag(2^k), has balanced rows and columns.

    Each sweep takes half of the Parlett-Reinsch step of every row at once:
    k_i moves by a quarter of log2(r_i / c_i), rounded, with r_i and c_i the
    off-diagonal 1-norms of row and column i, until a sweep lowers their sum
    by less than 5%.  Powers of 2 keep the similarity exact; a row or column
    without off-diagonal entries stays.
    """
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    k = np.zeros(len(a), dtype=int)
    total = off.sum()
    for _ in range(100):
        r, c = off.sum(axis=1), off.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where((r > 0) & (c > 0), np.rint(0.25 * np.log2(r / c)), 0.0).astype(int)
        k += step
        off = np.ldexp(off, step[None, :] - step[:, None])
        total, last = off.sum(), total
        if not total < 0.95 * last:
            break
    return k


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix, by scaling and squaring.

    The lowest Pade degree (3, 5, 7 or 9) whose theta bound covers the
    1-norm, else degree 13 on A / 2^s, squared s times (Higham 2005).  Above
    theta_13, A is first balanced by a diagonal similarity of powers of 2
    when that lowers the norm, so a huge entry that couples one block of A
    to another does not set s.  With U and V the odd and even parts of the
    numerator, the approximant is formed as I + 2 (V - U)^-1 U, so expm(0)
    is exactly I, and a diagonal A gives the exponentials of its entries.  A
    non-finite norm gives an all-NaN matrix, and a result that leaves the
    float range comes out non-finite, without a warning.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    ident = np.eye(n)
    s, k = 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        if not math.isfinite(norm):
            return np.full_like(a, math.nan)
        diag = np.diag(a)
        if not (a - np.diag(diag)).any():
            return np.diag(np.exp(diag))
        # the similarity leaves the diagonal, so it can save a squaring only when
        # the norm is at least twice the largest diagonal entry
        if norm > _THETA13 and norm >= 2.0 * np.abs(diag).max():
            k = _balance(a)
            b = np.ldexp(a, k[None, :] - k[:, None])
            b_norm = float(np.abs(b).sum(axis=0).max())
            if b_norm < norm:
                a, norm = b, b_norm
            else:
                k = None
        if norm <= _PADE[-1][0]:
            coef = next(coef for theta, coef in _PADE if norm <= theta)
            powers = [ident, a @ a]
            while len(powers) < coef.shape[1]:
                powers.append(powers[-1] @ powers[1])
            odd, v = (coef @ np.reshape(powers, (len(powers), -1))).reshape(2, n, n)
            u = a @ odd
        else:
            # a finite norm is below 2^1024, so s <= 1022 and 2^-s is a normal float
            s = max(0, math.ceil(math.log2(norm / _THETA13)))
            a = a * math.ldexp(1.0, -s)
            a2 = a @ a
            a4 = a2 @ a2
            powers = np.stack((ident, a2, a4, a2 @ a4))
            u1, u2, v1, v2 = (_C13 @ powers.reshape(4, -1)).reshape(4, n, n)
            u = a @ (powers[3] @ u1 + u2)
            v = powers[3] @ v1 + v2
        r = ident + 2.0 * np.linalg.solve(v - u, u)
        for _ in range(s):
            r = r @ r
        if k is not None:  # exp(A) = D exp(D^-1 A D) D^-1
            r = np.ldexp(r, k[:, None] - k[None, :])
    return r


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
    """Shortest round-trip decimal representation; used by all CSV writers.

    Integral values below 1e16 lose repr's ".0" (and -0.0 is "0"); bools are
    written as True/False.
    """
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    s = repr(float(x))
    if s.endswith(".0"):
        return "0" if s == "-0.0" else s[:-2]
    return s


def csv_lines(header: str, rows) -> list[str]:
    """`header`, then one line per row: strings pass through, the rest goes through `format_float`."""
    return [header] + [
        ",".join(v if isinstance(v, str) else format_float(v) for v in row) for row in rows
    ]
