"""Exact mixed moments of the two-type process and related transforms.

The central object is a linear ODE over all monomial moments
m_{p,q}(t) = E[X1(t)^p X2(t)^q] with 1 <= p+q <= n, derived from the
process generator.  The system is closed (each row couples only to total
degree <= p+q), its degree-1 block reproduces the first-moment closed
form, and the n-th own-moment row integrates to the integral-form recursion,
which is kept as an independent cross-check (`recursion_check`)
rather than as the computation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import BranchingSpec, effective_drift_matrix, phi_eval_vec
from .env import EnvPath, LevyEnvSpec, _base_grid, env_increments, levy_exponent
from .errors import DivergentCoefficient, ExponentOverflow, FixedPointDivergence, HypothesisViolated
from .fmoment import FINITE, classify_branching_tail, classify_env_tail, power
from .truncation import IDENTITY, TruncationPredicate
from ._util import expm2, fsum_mean_se


def monomial_basis(degree: int) -> tuple[tuple[int, int], ...]:
    """Monomials (p, q) with 1 <= p+q <= degree, degree-major order."""
    return tuple(
        (d - q, q) for d in range(1, degree + 1) for q in range(d + 1)
    )


def hypotheses_hold(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    n: int,
    truncation: TruncationPredicate = IDENTITY,
) -> bool:
    """Whether the order-n moment hypotheses hold for the (truncated) system.

    They are the f-moment criterion at f = (1+x)^n: both tail criteria Finite.
    """
    f = power(n)
    verdicts = (classify_branching_tail(f, spec.m1, spec.m2, rule=truncation.branching),
                classify_env_tail(f, env.nu, truncation.env_clip))
    return verdicts == (FINITE, FINITE)


def max_feasible_degree(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    degree: int,
    truncation: TruncationPredicate = IDENTITY,
) -> int:
    n = 0
    while n < degree and hypotheses_hold(env, spec, n + 1, truncation):
        n += 1
    return n


@dataclass
class MomentGenerator:
    """Coefficient matrix of the closed linear moment system dm/dt = G m."""

    degree: int
    basis: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    beta: tuple[float, ...]  # beta(0), ..., beta(degree) of the (clipped) environment
    truncation: TruncationPredicate  # the truncated system the matrix describes

    def index(self, p: int, q: int) -> int:
        return self.basis.index((p, q))


def build_moment_generator(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    n: int,
    truncation: TruncationPredicate = IDENTITY,
) -> MomentGenerator:
    """Assemble the moment-closure matrix for all monomials of degree <= n.

    Row (p, q) with d = p+q receives: beta(d) - p b11 - q b22 on itself;
    -p b21 on (p-1, q+1); -q b12 on (p+1, q-1); c1 p(p-1) on (p-1, q);
    c2 q(q-1) on (p, q-1); and binomial-weighted kept-region jump moments
    of m1 on (i+1, j), of m2 on (i, j+1), excluding the compensated
    index pairs.  Raises HypothesisViolated when a required jump moment
    or exponential moment diverges.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if not hypotheses_hold(env, spec, n, truncation):
        raise HypothesisViolated(
            f"order-{n} moment hypotheses fail for this environment/branching pair"
        )
    rule = truncation.branching
    basis = monomial_basis(n)
    idx = {pq: k for k, pq in enumerate(basis)}
    size = len(basis)
    g = np.zeros((size, size))
    beta = [0.0] + [levy_exponent(env, d, truncation.env_clip) for d in range(1, n + 1)]

    for row, (p, q) in enumerate(basis):
        d = p + q
        g[row, row] += beta[d] - p * spec.b11 - q * spec.b22
        if p >= 1:
            g[row, idx[(p - 1, q + 1)]] += -p * spec.b21
        if q >= 1:
            g[row, idx[(p + 1, q - 1)]] += -q * spec.b12
        if p >= 2:
            g[row, idx[(p - 1, q)]] += spec.c1 * p * (p - 1)
        if q >= 2:
            g[row, idx[(p, q - 1)]] += spec.c2 * q * (q - 1)
        for m, (e1, e2) in ((spec.m1, (1, 0)), (spec.m2, (0, 1))):
            if m.is_zero:
                continue
            for i in range(p + 1):
                for j in range(q + 1):
                    if (i, j) in ((p, q), (p - e1, q - e2)):
                        continue
                    g[row, idx[(i + e1, j + e2)]] += (
                        math.comb(p, i) * math.comb(q, j) * m.moment(p - i, q - j, rule)
                    )
    return MomentGenerator(n, basis, g, tuple(beta), truncation)


@dataclass
class MomentTable:
    """Mixed moments on a time grid, with finiteness flags per monomial."""

    degree: int
    grid: np.ndarray
    values: dict
    finite: dict
    generator: MomentGenerator | None = None
    m0: np.ndarray | None = None

    def entry(self, p: int, q: int, t: float) -> float:
        k = int(np.argmin(np.abs(self.grid - t)))
        if abs(self.grid[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid time")
        return float(self.values[(p, q)][k])


def initial_moment_vector(gen: MomentGenerator, x0) -> np.ndarray:
    x1, x2 = float(x0[0]), float(x0[1])
    return np.array([x1**p * x2**q for p, q in gen.basis])


def solve_moment_ode(gen: MomentGenerator, x0, t_grid) -> MomentTable:
    """Propagate the closed moment system from a deterministic initial state.

    Steps the sorted times by expm(G dt), one exponential per distinct dt;
    raises ExponentOverflow when a moment leaves the float range.
    """
    from scipy.linalg import expm

    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    m0 = initial_moment_vector(gen, x0)
    order = np.argsort(t_grid, kind="stable")
    dts, step_of = np.unique(np.diff(t_grid[order], prepend=0.0), return_inverse=True)
    vals = np.empty((len(t_grid), len(gen.basis)))
    m = m0
    with np.errstate(over="ignore", invalid="ignore"):
        steps = [expm(gen.matrix * dt) for dt in dts]
        for k, j in zip(order, step_of):
            m = vals[k] = steps[j] @ m
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise ExponentOverflow(f"degree-{gen.degree} moments leave the float range by t = "
                               f"{t_grid[bad].min():g}: beta({gen.degree}) = {gen.beta[-1]:.6g}")
    vals = np.maximum(vals, 0.0)  # expm dust; true moments are nonnegative
    values = {pq: vals[:, j].copy() for j, pq in enumerate(gen.basis)}
    finite = {pq: True for pq in gen.basis}
    return MomentTable(gen.degree, t_grid, values, finite, gen, m0)


def moment_table(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    x0,
    t_grid,
    degree: int,
    truncation: TruncationPredicate = IDENTITY,
) -> MomentTable:
    """Moment table up to `degree`; infeasible degrees are flagged infinite.

    Degrees above the largest order whose hypotheses hold get value inf
    and finite=False; the rest are computed from the closure restricted
    to the feasible degrees (the system never couples upward).
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    feasible = max_feasible_degree(env, spec, degree, truncation)
    if feasible:
        table = solve_moment_ode(build_moment_generator(env, spec, feasible, truncation), x0, t_grid)
    else:
        table = MomentTable(degree, t_grid, {}, {})
    table.degree = degree
    # the basis is degree-major, so the feasible monomials are its first entries
    for pq in monomial_basis(degree)[len(table.values):]:
        table.values[pq] = np.full(len(t_grid), math.inf)
        table.finite[pq] = False
    return table


def first_moment_closed_form(
    env: LevyEnvSpec, spec: BranchingSpec, x0, t: float, truncation: TruncationPredicate = IDENTITY
) -> np.ndarray:
    """E X(t) = e^{beta~ t} exp(-t b~^T) x0 (2x2 closed-form exponential)."""
    bt = levy_exponent(env, 1, truncation.env_clip)
    btil = effective_drift_matrix(spec, truncation)
    return math.exp(bt * t) * (expm2(-t * btil.T) @ np.asarray(x0, dtype=float))


def martingale_factors(
    env: LevyEnvSpec, spec: BranchingSpec, times, truncation: TruncationPredicate = IDENTITY
) -> list[np.ndarray]:
    """The 2x2 matrices e^{-beta~ t} exp(t b~^T), one per requested time.

    beta~ is the first exponent of the clipped environment and b~ the
    drift matrix corrected by the kept-region cross moments, so M is a
    martingale of the truncated system.
    """
    bt = levy_exponent(env, 1, truncation.env_clip)
    btil_t = effective_drift_matrix(spec, truncation).T
    return [math.exp(-bt * t) * expm2(t * btil_t) for t in np.atleast_1d(times)]


# ---------------------------------------------------------------------------
# Integral-form own-moment recursion as an independent cross-check
# ---------------------------------------------------------------------------

def recursion_coefficients(
    spec: BranchingSpec, n: int, type_index: int, truncation: TruncationPredicate = IDENTITY
):
    """Coefficient lists (A_j for j<=n-2, B_j for j<=n-1) of the recursion.

    A_j = C(n,j) * int z_i^{n-j} d(own measure), with the diffusion
    add-on c_i n(n-1) at j = n-2; B_j = C(n,j) * int z_i^{n-j} d(cross
    measure), with the drift add-on -b_cross n at j = n-1.  The integrals
    run over the jumps the truncation keeps.
    """
    if n < 2:
        raise ValueError("recursion coefficients need n >= 2")
    if type_index not in (1, 2):
        raise ValueError("type_index must be 1 or 2")
    own, cross = (spec.m1, spec.m2) if type_index == 1 else (spec.m2, spec.m1)
    c_own = spec.c1 if type_index == 1 else spec.c2
    b_cross = spec.b21 if type_index == 1 else spec.b12
    rule = truncation.branching

    def own_coord_moment(measure, r):
        val = measure.moment(r, 0, rule) if type_index == 1 else measure.moment(0, r, rule)
        if math.isinf(val):
            raise DivergentCoefficient(f"jump moment of order {r} diverges")
        return val

    a = [math.comb(n, j) * own_coord_moment(own, n - j) for j in range(n - 1)]
    a[n - 2] += c_own * n * (n - 1)
    b = [math.comb(n, j) * own_coord_moment(cross, n - j) for j in range(n)]
    b[n - 1] += -b_cross * n
    return a, b


def recursion_check(
    spec: BranchingSpec,
    table: MomentTable,
    n: int,
    type_index: int,
    t: float,
) -> tuple[float, float, float]:
    """(lhs, rhs, residual) of the n-th own-moment recursion identity.

    Exact convolution (Van Loan 1978): with c the recursion coefficients on
    their monomials and theta = beta(n) - n b_ii, expm([[G, 0], [c, theta]] t)
    gives m(t) and rhs = w(t), where w' = theta w + c.m, w(0) = x0^n.  The
    residual is |rhs - lhs| / max(1, |lhs|).  beta(n) and the truncation
    of the coefficients are the ones the table's generator was built with.
    """
    if table.degree < n:
        raise ValueError("table degree is below the requested moment order")
    target = (n, 0) if type_index == 1 else (0, n)
    if not table.finite.get(target, False):
        raise HypothesisViolated(f"moment {target} is flagged infinite in the table")
    gen = table.generator
    a_coef, b_coef = recursion_coefficients(spec, n, type_index, gen.truncation)
    b_ii = spec.b11 if type_index == 1 else spec.b22
    mono = gen.index if type_index == 1 else (lambda own, cross: gen.index(cross, own))
    size = len(gen.basis)
    aug = np.zeros((size + 1, size + 1))
    aug[:size, :size] = gen.matrix
    for j in range(n - 1):
        aug[size, mono(j + 1, 0)] += a_coef[j]
    for j in range(n):
        aug[size, mono(j, 1)] += b_coef[j]
    aug[size, size] = gen.beta[n] - n * b_ii
    target_idx = mono(n, 0)
    from scipy.linalg import expm

    out = expm(aug * t) @ np.append(table.m0, table.m0[target_idx])
    lhs, rhs = float(out[target_idx]), float(out[size])
    return lhs, rhs, abs(rhs - lhs) / max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# Polynomial dependence on the initial state
# ---------------------------------------------------------------------------

def moment_polynomial(
    env: LevyEnvSpec, spec: BranchingSpec, n: int, type_index: int, t: float
) -> dict:
    """E[X_i(t)^n] as a polynomial of the initial state: {(p, q): coefficient of x1^p x2^q}.

    The coefficients are row (n, 0) (type 1) or (0, n) (type 2) of expm(G t),
    keyed by the generator's basis, so the degree is at most n.
    """
    from scipy.linalg import expm

    gen = build_moment_generator(env, spec, n)
    row = expm(gen.matrix * t)[gen.index(n, 0) if type_index == 1 else gen.index(0, n)]
    return {pq: float(c) for pq, c in zip(gen.basis, row)}


# ---------------------------------------------------------------------------
# Quenched Laplace functional
# ---------------------------------------------------------------------------

@dataclass
class QuenchedLaplace:
    """Backward trajectory v_{r,t} on the environment grid (v_{t,t} = lam)."""

    lam: tuple
    t: float
    r_grid: np.ndarray
    v: np.ndarray  # (len(r_grid), 2)

    @property
    def v0(self) -> np.ndarray:
        return self.v[0]


def quenched_laplace(
    env_path: EnvPath,
    spec: BranchingSpec,
    lam,
    t: float,
) -> QuenchedLaplace:
    """Solve the backward equation for v_{r,t} given one environment path.

    Implicit trapezoidal stepping on the path's grid, the solver of
    `annealed_laplace_mc` on one row, with a fixed-point solve per step;
    t must be a grid point of the path.
    """
    lam = np.asarray(lam, dtype=float)
    grid = env_path.grid
    it = int(np.argmin(np.abs(grid - t)))
    if abs(grid[it] - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"t={t} is not a grid point of the environment path")
    dt, dxi = np.diff(grid[: it + 1]), env_path.xi_increments[:it]
    steps = list(_backward_steps(spec, lam, zip(dt[::-1], dxi[::-1]), 1e-13))
    v = np.concatenate(steps[::-1] + [lam[None, :]])
    return QuenchedLaplace(tuple(lam), float(grid[it]), grid[: it + 1], v)


_FP_MAX_ITER = 100  # fixed-point iterations per backward step


def _backward_steps(spec, lam, steps, fp_tol):
    """Yield v (n_paths, 2) after each backward implicit-trapezoid step.

    steps: (h, dxi) per interval, last interval first, where dxi holds the
    environment increments of the n_paths paths (or one float for all).
    lam must be finite and >= 0 (ValueError otherwise).  Each step solves
    v = e^{dxi} (v_next - h/2 phi(v_next)) - h/2 phi(v) by fixed point,
    starting from v = lam.  phi(v_next) is the phi of the last iterate of
    the step before, which differs from v_next by at most the tolerance,
    so the explicit half costs no evaluation after the first.  The first
    iterate extrapolates phi linearly from the two steps before.
    """
    v = np.asarray(lam, dtype=float)[None, :]
    if not ((v >= 0) & (v < math.inf)).all():
        raise ValueError(f"lam must be finite and >= 0, got {v[0].tolist()}")
    phi = prev = phi_eval_vec(spec, v)
    for h, dxi in steps:
        mult = np.exp(dxi).reshape(-1, 1)
        half_phi = 0.5 * h * phi
        const = mult * (v - half_phi)
        cur = const - mult * (0.5 * h * (2.0 * phi - prev))  # explicit predictor
        prev = phi
        for _ in range(_FP_MAX_ITER):
            phi = phi_eval_vec(spec, np.maximum(cur, 0.0))
            nxt = const - 0.5 * h * phi
            scale = 1.0 + abs(nxt).max()
            done = abs(nxt - cur).max() <= fp_tol * scale
            cur = nxt
            if done:
                break
        else:
            raise FixedPointDivergence("per-step fixed point did not converge; reduce the step")
        # only the nonnegative root is meaningful; a clearly negative
        # iterate means the step is too coarse for this mechanism
        if cur.min() < -1e-8 * scale:
            raise FixedPointDivergence("backward step produced a negative rate; reduce the step")
        v = np.maximum(cur, 0.0)
        yield v


def annealed_laplace_mc(
    env: LevyEnvSpec,
    spec: BranchingSpec,
    x0,
    lam,
    t: float,
    n_env_paths: int,
    step: float,
    seed: int,
    clip: float = math.inf,
) -> tuple[float, float]:
    """Monte Carlo estimate of E exp(-<x0, v_{0,t}>) over environment paths.

    The environment increments come from `env_increments` on the base
    grid reflected in t, so the backward solve meets the intervals last
    first; the increments are stationary, so this is exact in law, and
    all paths are solved at once in O(n_env_paths) memory.  Positive
    environment jumps above `clip` are removed.  Returns (estimate,
    standard error).
    """
    rng = np.random.default_rng(seed)
    grid = t - _base_grid(t, step)[::-1]
    steps = zip(np.diff(grid), env_increments(env, grid, step, n_env_paths, rng, clip))
    for v in _backward_steps(spec, lam, steps, 1e-12):
        pass  # only the last step, v_{0,t}, is needed
    vals = np.exp(-(v @ np.asarray(x0, dtype=float)))
    return fsum_mean_se(np.broadcast_to(vals, (n_env_paths,)))  # one row if xi is deterministic
