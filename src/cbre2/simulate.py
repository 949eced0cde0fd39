"""Pathwise simulation of the two-type state equation under a random environment.

Operator-splitting scheme per grid interval, in order:

1. linear drift (including the compensator drift of the compensated jump
   terms), applied exactly via a 2x2 matrix exponential;
2. Euler diffusion increment sqrt(2 c_i X_i) dB_i with nonnegativity
   clamping;
3. branching jumps at exact event times inside the interval (the
   candidate stream is common across coupled variants and fires at the
   max over variants, with per-variant acceptance against the left limit
   of the relevant coordinate);
4. exact multiplication of both coordinates by exp(increment of xi).

Only the branching terms carry discretization error; the drift flow and
the environment action are exact.  Truncation predicates zero disallowed
jumps, and the compensator drift in step 1 is the kept-region moment, so
each truncated variant solves its own truncated equation.

The engine is vectorized over paths and event-driven:

- branching uses integrated-intensity clocks (Gibson & Bruck 2000;
  Anderson 2007): each path carries a unit-exponential budget that each
  interval decreases by rate * h, and only paths whose budget runs out
  enter the event loop;
- environment increments come from `env.env_increments`, which draws
  jumps per path once per window of floor(1 / (lambda_env * step))
  intervals and pre-buckets them by grid interval, so each step only
  adds its own slice;
- records are streamed: `scenario_stream`, the one engine generator,
  yields the live states and the one xi of the pass at every grid time
  (record times only add grid points), `scenario_states` stacks the
  states at its record times, `simulate_paths` collects a few full
  paths, and reductions such as the coupling report consume the stream
  without a full-grid record.

In law this is the splitting scheme with per-step thinning and per-step
Poisson counts; only the order of the random stream differs.
Pathwise ordering of coupled truncated variants is exact for pure-jump
mechanisms whose kept-region compensator moments agree across variants;
with diffusion on, ordering holds in expectation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import BranchingSpec, kept_jump_means
from .env import LevyEnvSpec, _base_grid, env_increments
from .errors import ConfigError, ExponentOverflow, MassOverflow, NegativeState
from .scenario import ScenarioConfig
from .truncation import IDENTITY, TruncationPredicate
from ._util import expm2

DEFAULT_EVENTS_CAP = 1_000_000  # branching events per path per unit time


@dataclass
class StatePath:
    """One simulated path: states and xi on the base grid of the scenario."""

    grid: np.ndarray
    states: np.ndarray  # (len(grid), 2)
    xi: np.ndarray  # xi(t) at each grid time, at the scenario's environment clip


def _drift_flows(bspec: BranchingSpec, predicate: TruncationPredicate, steps) -> list:
    """exp(-(b^T + diag(mu)) h) for each step h, mu the own-coordinate kept jump means."""
    mu = np.diag(kept_jump_means(bspec, predicate))
    a = -(bspec.b.T + np.diag(mu))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            flows = [expm2(a * h) for h in steps]
    except OverflowError:
        flows = [np.full((2, 2), math.inf)]
    if not all(np.isfinite(d).all() for d in flows):
        raise ExponentOverflow(f"the drift flow leaves the float range (kept jump means {mu})")
    return flows


def _batch_grid(horizon: float, step: float, record_times) -> tuple[np.ndarray, np.ndarray]:
    """A run's grid and the indices of its sorted, distinct record times in it.

    The grid is the base grid with the record times added (None records
    every grid time).  An interior base point within 1e-9 * max(1, horizon)
    of a record time gives way to that time, so no record time splits a
    grid step; 0 and the horizon never give way.
    """
    base = _base_grid(horizon, step)
    if record_times is None:
        return base, np.arange(len(base))
    rec = np.unique(np.asarray(record_times, dtype=float))
    if rec.size and (rec[0] < 0 or rec[-1] > horizon + 1e-12):
        raise ValueError("record times must lie in [0, horizon]")
    inner = base[1:-1]
    bracket = np.concatenate(([-math.inf], rec, [math.inf]))
    up = np.searchsorted(bracket, inner)  # bracket[up - 1] < inner <= bracket[up]
    near = np.minimum(inner - bracket[up - 1], bracket[up] - inner) <= 1e-9 * max(1.0, horizon)
    grid = np.union1d(np.delete(base, 1 + np.flatnonzero(near)), rec)
    return grid, np.searchsorted(grid, rec)


def _check_n_paths(n_paths) -> None:
    if n_paths < 1:
        raise ConfigError(f"n_paths: expected an integer >= 1, got {n_paths!r}")


def _max_over(xs: list, cols=slice(None)) -> np.ndarray:
    """Componentwise max over the variants' (2, n) states, at columns `cols`."""
    out = xs[0][:, cols]
    for x in xs[1:]:
        out = np.maximum(out, x[:, cols])
    return out


def scenario_stream(
    scenario,
    n_paths: int,
    seed: int | np.random.Generator,
    record_times=None,
    predicates=None,
):
    """Run the batch engine on `scenario`, yielding (t, states, xi) at every grid time.

    The engine reads the scenario's environment, branching, x0, horizon
    and step; the grid is the base grid plus `record_times` (see
    `_batch_grid`).  `seed` is an int or a `np.random.Generator` (passed
    through `np.random.default_rng`, which returns a generator unchanged),
    and `predicates` defaults to the scenario's own truncation.  Every
    variant runs in one environment path, so the predicates must share
    one `env_clip` (ValueError otherwise).  `states` lists one
    (n_paths, 2) array per variant and `xi` is the (n_paths,) array of
    xi(t) at that clip.  They are live views of the engine's state, valid
    until the generator is resumed.

    Branching uses integrated-intensity clocks: each path carries a unit
    exponential budget that every interval decreases by rate * h, with
    the rate taken at the max over variants; only paths whose budget runs
    out enter the event loop, which carries their time left in the
    interval so that several events per interval stay exact.  A candidate
    event picks its type and jump from the shared stream, and each variant
    accepts it with u * ownmax <= own plus its own keep rule.
    """
    rng = np.random.default_rng(seed)
    predicates = (scenario.truncation,) if predicates is None else tuple(predicates)
    env, bspec, x0 = scenario.environment, scenario.branching, scenario.x0
    horizon, step = scenario.horizon, scenario.step
    _check_n_paths(n_paths)
    clip = predicates[0].env_clip
    if any(pred.env_clip != clip for pred in predicates):
        raise ValueError("the predicates of one pass must share one env_clip")
    grid, _ = _batch_grid(horizon, step, record_times)
    # each variant's exact drift flow for each distinct step
    steps, step_of = np.unique(np.diff(grid), return_inverse=True)
    flows = [_drift_flows(bspec, pred, steps) for pred in predicates]
    lam = np.array([bspec.m1.total_mass(), bspec.m2.total_mass()])
    branching = lam.any()
    env_incs = env_increments(env, grid, step, n_paths, rng, clip)
    max_events = DEFAULT_EVENTS_CAP * horizon

    # states are kept as (2, n_paths): each coordinate is contiguous
    xs = [np.repeat(np.asarray(x0, dtype=float)[:, None], n_paths, axis=1) for _ in predicates]
    clock = rng.exponential(1.0, n_paths) if branching else None
    events = np.zeros(n_paths)
    scratch = np.empty(n_paths)
    xi = np.zeros(n_paths)
    yield grid[0], [x.T for x in xs], xi

    for m in range(len(grid) - 1):
        h = grid[m + 1] - grid[m]
        # 1. exact linear drift flow
        for v, flow in enumerate(flows):
            xs[v] = flow[step_of[m]] @ xs[v]
        # 2. diffusion with clamping (noise shared across variants), fused into
        # one scratch buffer: max(x + sqrt(2c x) sh g, 0)
        sh = math.sqrt(h)
        for i, c in enumerate((bspec.c1, bspec.c2)):
            if c > 0:
                g = rng.standard_normal(n_paths)
                for x in xs:
                    np.multiply(2.0 * c, x[i], out=scratch)
                    np.sqrt(scratch, out=scratch)
                    np.multiply(scratch, sh, out=scratch)
                    np.multiply(scratch, g, out=scratch)
                    np.add(x[i], scratch, out=scratch)
                    np.maximum(scratch, 0.0, out=x[i])
        # 3. branching jumps where the integrated intensity exhausts a clock
        if branching:
            clock -= h * (lam @ _max_over(xs))
            active = np.flatnonzero(clock < 0.0)
            while active.size:
                k = active.size
                events[active] += 1.0
                # jumps only raise the rate, so at least Poisson(-clock) more events are due
                if (events[active] - clock[active]).max() > max_events:
                    raise MassOverflow("branching event count exceeds the safety cap")
                xm = _max_over(xs, active)
                r1 = lam[0] * xm[0]
                rate = r1 + lam[1] * xm[1]
                left = -clock[active] / rate  # time from the event to the interval end
                is1 = rng.random(k) * rate < r1
                n1 = int(is1.sum())
                z = np.zeros((k, 2))
                if n1:
                    z[is1] = bspec.m1.sample(rng, n1)
                if k - n1:
                    z[~is1] = bspec.m2.sample(rng, k - n1)
                u_acc = rng.random(k)
                own_row = np.where(is1, 0, 1)
                ownmax = np.where(is1, xm[0], xm[1])
                for x, pred in zip(xs, predicates):
                    acc = u_acc * ownmax <= x[own_row, active]
                    acc &= pred.branching.keep(z)
                    if acc.any():
                        x[:, active[acc]] += z[acc].T
                # a fresh budget, less what the rest of the interval consumes
                clock[active] = rng.exponential(1.0, k) - left * (lam @ _max_over(xs, active))
                active = active[clock[active] < 0.0]
        # 4. exact environment multiplier, one for every variant
        dxi = next(env_incs)
        xi += dxi
        mult = np.exp(dxi)
        for x in xs:
            x *= mult
            if x.min() < 0:
                raise NegativeState("state went negative")  # pragma: no cover
        yield grid[m + 1], [x.T for x in xs], xi


def scenario_states(
    scenario,
    n_paths: int,
    seed: int | np.random.Generator,
    record_times=None,
    predicates=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack what `scenario_stream` yields at the record times: (record_times, states).

    `states` is shaped (n_variants, n_paths, n_records, 2), with the
    record times sorted and distinct (default: every grid time).
    Environment jumps are aggregated per grid interval (their law at grid
    points is exact); shared draws across variants implement the monotone
    coupling.
    """
    _check_n_paths(n_paths)
    predicates = (scenario.truncation,) if predicates is None else predicates
    grid, rec_idx = _batch_grid(scenario.horizon, scenario.step, record_times)
    out = np.empty((len(predicates), n_paths, len(rec_idx), 2))
    slot = {m: r for r, m in enumerate(rec_idx.tolist())}
    stream = scenario_stream(scenario, n_paths, seed, record_times, predicates)
    for m, (_, states, _) in enumerate(stream):
        if m in slot:
            out[:, :, slot[m]] = states
    return grid[rec_idx], out


def simulate_states(
    env: LevyEnvSpec,
    bspec: BranchingSpec,
    x0,
    horizon: float,
    step: float,
    n_paths: int,
    rng: np.random.Generator,
    record_times=None,
    predicates=(IDENTITY,),
) -> tuple[np.ndarray, np.ndarray]:
    """`scenario_states` on the scenario made of these inputs."""
    return scenario_states(
        ScenarioConfig(env, bspec, x0, horizon, step), n_paths, rng, record_times, predicates
    )


def simulate_paths(
    scenario,
    n_paths: int,
    rng_seed: int,
) -> list[StatePath]:
    """Full paths on the base grid: one batch run of `n_paths` paths.

    Path i is row i of `scenario_states(scenario, n_paths, rng_seed,
    record_times=None)`, so it depends on the seed and on `n_paths`; the
    scenario's truncation applies.  Memory is O(n_paths * grid points);
    use `scenario_stream` for many paths.
    """
    _check_n_paths(n_paths)
    grid = _base_grid(scenario.horizon, scenario.step)
    states = np.empty((n_paths, len(grid), 2))
    xi = np.empty((n_paths, len(grid)))
    stream = scenario_stream(scenario, n_paths, rng_seed)
    for r, (_, (x,), xi_t) in enumerate(stream):
        states[:, r] = x
        xi[:, r] = xi_t
    return [StatePath(grid, states[i], xi[i]) for i in range(n_paths)]
