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

The engine is vectorized over paths and over the variants of a pass,
and event-driven:

- a pass's V variants share one (V, 2, n_paths) state array, so each
  phase is one numpy call for all of them (see `scenario_stream`);
- branching uses integrated-intensity clocks (Gibson & Bruck 2000;
  Anderson 2007): each path carries a unit-exponential budget that each
  interval decreases by rate * h (at the max over variants, taken once),
  and only paths whose budget runs out enter the event loop, whose
  candidate jumps are a gather from each measure's component table;
- environment increments come from `env.env_increments`, which draws
  jumps per path once per window of floor(1 / (lambda_env * step))
  intervals and pre-buckets them by grid interval, so each step only
  adds its own slice;
- records are streamed: `scenario_stream`, the one engine generator,
  yields the live states and the one xi of the pass at every grid time
  (record times only add grid points); `run_pass`, its one consumer,
  writes the (variant, record time) states its caller reads into the
  pass's one record and feeds every grid time to reducers (the coupling
  report, `PathDump`), so no caller holds a record it does not read.

Two computations that share no generator can run on two cores as a
pair: `run_pair(first, second)` returns `(first(), second())` and runs
`second` in a child made by `os.fork` when at least two CPUs are usable
(`os.sched_getaffinity`) and no other Python thread is alive, with the
two processes pinned to two distinct CPUs while it runs (a cpuset that
does not balance load leaves a forked child on its parent's CPU);
otherwise `second` runs after `first`, here, and the bytes are the same.
Its users are the chunks of a large pass and `cbre2 laplace`, whose
annealed solve and direct Monte Carlo check run as a pair below
`CHUNK_MIN` paths.

Large passes run as two chunks (`run_chunks`, called by `run_pass` alone):
a pass of V variants and n paths with V * n >= `CHUNK_MIN` (20 000
path-variants, `is_chunked`) runs chunk 0, paths 0..ceil(n/2) on the pass's
generator, and chunk 1, the rest on its first `spawn`ed child (independent
substreams, L'Ecuyer et al. 2017), as one `run_pair`; each chunk writes its
own columns of the pass's one record, and a forked chunk 1 sends its columns
back as one copy.  A pass below `CHUNK_MIN` is one chunk on its generator.

In law this is the splitting scheme with per-step thinning and per-step
Poisson counts; only the order of the random stream differs.
Pathwise ordering of coupled truncated variants is exact for pure-jump
mechanisms whose kept-region compensator moments agree across variants;
with diffusion on, ordering holds in expectation only.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .branching import BranchingSpec, kept_jump_means
from .env import LevyEnvSpec, _base_grid, env_increments
from .errors import Cbre2Error, ConfigError, ExponentOverflow, MassOverflow
from .scenario import ScenarioConfig
from .truncation import IDENTITY, KeepMask, TruncationPredicate
from ._util import expm

DEFAULT_EVENTS_CAP = 1_000_000  # branching events per path per unit time
CHUNK_MIN = 20_000  # path-variants (V * n_paths) from which a pass runs as two chunks


@dataclass
class StatePath:
    """One simulated path: states and xi on the base grid of the scenario."""

    grid: np.ndarray
    states: np.ndarray  # (len(grid), 2)
    xi: np.ndarray  # xi(t) at each grid time, at the scenario's environment clip


def _drift_flows(bspec: BranchingSpec, predicate: TruncationPredicate, steps) -> list:
    """exp(-(b^T + diag(mu)) h) for each step h, mu the own-coordinate kept jump means.

    Past mu h = log(float max), e^(-mu h) wipes out the state that the compensated
    jumps put back: ExponentOverflow then, as when a flow leaves the float range.
    """
    mu, h = np.diag(kept_jump_means(bspec, predicate)), steps.max(initial=0.0)
    if mu.max() * h > math.log(sys.float_info.max):
        raise ExponentOverflow(f"the kept jump mean times the step, {mu.max():.6g} * {h:g}, "
                               "leaves the compensator's float range")
    flows = [expm(-(bspec.b.T + np.diag(mu)) * step) for step in steps]
    for step, d in zip(steps, flows):
        if not np.isfinite(d).all():
            raise ExponentOverflow(f"the drift matrix flow leaves the float range at step h = {step:g}")
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


def _runaway(t: float, xi: np.ndarray, path=None) -> Cbre2Error:
    """The error of a pass that ran away by time `t`.

    With `path` None a state left the float range, and the environment is
    named when its multiplier accounts for that, reaching at least the square
    root of the largest float (half of the range's exponent); otherwise the
    drift flow or the branching jumps lifted the state.  Else path `path`
    outran the branching event cap, and the environment is named when its
    multiplier e^xi on that path alone exceeds the cap (else MassOverflow).
    """
    if path is not None:
        if xi[path] <= math.log(DEFAULT_EVENTS_CAP):
            return MassOverflow("branching event count exceeds the safety cap")
        what = "the branching event count with it exceeds the safety cap"
    elif xi.max() >= 0.5 * math.log(sys.float_info.max):
        what = "a state leaves the float range"
    else:
        return ExponentOverflow(
            f"a state leaves the float range by t = {t:.6g}, lifted by the drift flow or the "
            f"branching jumps (the environment multiplier e^xi reaches only e^{xi.max():.6g})"
        )
    return ExponentOverflow(
        f"the environment multiplier e^xi reaches e^{xi.max():.6g} by t = {t:.6g}, and {what}"
    )


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
    one `env_clip` (ValueError otherwise).

    The V variants live in one (V, 2, n_paths) array: the drift flows are
    one batched matmul into a second array of that shape, after which the
    two swap.  `states` lists V (n_paths, 2) views, one per variant, of
    the array that holds the state (each array's views are made once), and
    `xi` is the (n_paths,) array of xi(t) at the pass's clip.  Both are
    live: valid until the generator is resumed.

    Branching uses integrated-intensity clocks: each path carries a unit
    exponential budget that every interval decreases by rate * h, with
    the rate at the max over variants (one max over axis 0 per step);
    only paths whose budget runs out enter the event loop, which carries
    their time left in the interval so that several events per interval
    stay exact.  A candidate event picks its type and its jump from the
    shared stream (a table gather, `JumpMeasure.sample`).  Each round
    gathers the active paths of all variants once, accepts with one (V, k)
    test u * ownmax <= own and the variants' `KeepMask`, adds the accepted
    jumps with one masked add, scatters once and re-clocks from the max
    over variants.  An environment that never moves (a = 0, no sigma1, no
    jumps) multiplies by 1, so its phase is skipped.  A state that leaves
    the float range raises ExponentOverflow (see `_runaway`).
    """
    rng = np.random.default_rng(seed)
    predicates = (scenario.truncation,) if predicates is None else tuple(predicates)
    env, bspec, x0 = scenario.environment, scenario.branching, scenario.x0
    horizon, step = scenario.horizon, scenario.step
    if n_paths < 1:
        raise ConfigError(f"n_paths: expected an integer >= 1, got {n_paths!r}")
    clip = predicates[0].env_clip
    if any(pred.env_clip != clip for pred in predicates):
        raise ValueError("the predicates of one pass must share one env_clip")
    grid, _ = _batch_grid(horizon, step, record_times)
    # the variants' exact drift flows, (steps, V, 2, 2), for each distinct step
    steps, step_of = np.unique(np.diff(grid), return_inverse=True)
    flows = np.stack([_drift_flows(bspec, pred, steps) for pred in predicates], axis=1)
    lam = np.array([bspec.m1.total_mass(), bspec.m2.total_mass()])
    lam1, lam2 = lam.tolist()
    branching = lam.any()
    keep = KeepMask([pred.branching for pred in predicates])
    env_incs = env_increments(env, grid, step, n_paths, rng, clip)
    still = env.a == 0.0 and env.sigma1 == 0.0 and env.nu.total_mass() == 0.0
    max_events = DEFAULT_EVENTS_CAP * horizon

    x = np.empty((len(predicates), 2, n_paths))
    x[...] = np.asarray(x0, dtype=float)[:, None]
    y = np.empty_like(x)  # the flow's output, swapped each step (fresh: mc_coupled verify 1.037x)
    xv, yv = list(x.transpose(0, 2, 1)), list(y.transpose(0, 2, 1))
    clock = rng.exponential(1.0, n_paths) if branching else None
    events = np.zeros(n_paths)
    scratch = np.empty((len(predicates), n_paths))  # diffusion (plain: laplace_feller 1.02x)
    xi = np.zeros(n_paths)
    yield grid[0], xv, xi

    for m in range(len(grid) - 1):
        h = grid[m + 1] - grid[m]
        # a state that the drift or the environment lifts past the float range is caught
        # below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            # 1. exact linear drift flow
            np.matmul(flows[step_of[m]], x, out=y)
            x, y, xv, yv = y, x, yv, xv
            # 2. diffusion with clamping (noise shared across variants), fused into
            # one scratch buffer: max(x + sqrt(2c x) sh g, 0)
            sh = math.sqrt(h)
            for i, c in enumerate((bspec.c1, bspec.c2)):
                if c > 0:
                    g = rng.standard_normal(n_paths)
                    xc = x[:, i]  # coordinate i of every variant, (V, n_paths)
                    np.multiply(2.0 * c, xc, out=scratch)
                    np.sqrt(scratch, out=scratch)
                    np.multiply(scratch, sh, out=scratch)
                    np.multiply(scratch, g, out=scratch)
                    np.add(xc, scratch, out=scratch)
                    np.maximum(scratch, 0.0, out=xc)
            # 3. branching jumps where the integrated intensity exhausts a clock
            if branching:
                top = x.max(axis=0)  # the max over variants
                rate = lam @ top
                if not math.isfinite(rate.max()):
                    raise _runaway(grid[m], xi)
                rate *= h
                clock -= rate
                active = (clock < 0.0).nonzero()[0]
                # the max over variants and the clocks at the active paths
                xm, ca = top[:, active], clock[active]
                while active.size:
                    k = active.size
                    ev = events[active] + 1.0
                    events[active] = ev
                    # jumps only raise the rate, so at least Poisson(-clock) more events are due
                    due_events = ev - ca
                    if due_events.max() > max_events:
                        raise _runaway(grid[m], xi, active[due_events.argmax()])
                    r1 = lam1 * xm[0]
                    ra = r1 + lam2 * xm[1]
                    ahead = ca / ra  # minus the time from the event to the interval end
                    is1 = rng.random(k) * ra < r1
                    n1 = int(is1.sum())
                    z = np.zeros((k, 2))
                    if n1:
                        z[is1] = bspec.m1.sample(rng, n1)
                    if k - n1:
                        z[~is1] = bspec.m2.sample(rng, k - n1)
                    # accept with u * ownmax <= own, and keep the jumps each rule keeps
                    bar = rng.random(k) * np.where(is1, xm[0], xm[1])
                    xa = x[:, :, active]
                    acc = bar <= np.where(is1, xa[:, 0], xa[:, 1])
                    if keep.drops:
                        acc &= keep(z)
                    np.add(xa, z.T, out=xa, where=acc[:, None, :])
                    x[:, :, active] = xa
                    # a fresh budget, less what the rest of the interval consumes
                    xm = xa.max(axis=0)
                    ca = rng.exponential(1.0, k) + ahead * (lam @ xm)
                    clock[active] = ca
                    due = ca < 0.0
                    if not due.any():
                        break
                    active, xm, ca = active[due], xm[:, due], ca[due]
            # 4. exact environment multiplier, one for every variant; an environment
            # that never moves multiplies by 1 and is skipped
            if not still:
                dxi = next(env_incs)
                xi += dxi
                x *= np.exp(dxi)
            # the rate above checks branching passes at each step; the state is
            # checked here on the others, and on the last step of every pass
            if (not branching or m == len(grid) - 2) and not math.isfinite(x.max()):
                raise _runaway(grid[m + 1], xi)
        yield grid[m + 1], xv, xi


def _usable_cpus() -> list:
    """The CPUs this process may run on; one where a process cannot fork or be pinned."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"):
        return [0]
    return sorted(os.sched_getaffinity(0))


def run_pair(first, second) -> tuple:
    """`(first(), second())`, with `second` in a forked child when that can help.

    `second` runs in a child made by `os.fork` when two CPUs are usable and
    no other Python thread is alive, else after `first` in this process.
    While the child runs, it and this process are pinned to two distinct
    CPUs, and its result or its exception comes back pickled over a pipe,
    so the results do not depend on where `second` ran.  An exception of
    `first` wins over one of `second`: the child is killed if `first`
    raises, and it is always reaped.
    """
    cpus = _usable_cpus()
    if len(cpus) < 2 or threading.active_count() > 1:
        return first(), second()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: `second`, its reply, and an exit that runs no cleanup
        try:
            os.sched_setaffinity(0, cpus[1:2])
            os.close(r)
            try:
                reply = True, second()
            except BaseException as e:
                reply = False, e
            with os.fdopen(w, "wb") as f:
                pickle.dump(reply, f, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as f:
            os.sched_setaffinity(0, cpus[:1])
            one = first()
            try:
                ok, two = pickle.load(f)
            except EOFError:  # killed before it replied
                raise Cbre2Error("a forked computation ended without a result") from None
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
        os.sched_setaffinity(0, cpus)
    if not ok:
        raise two
    return one, two


def is_chunked(n_paths: int, n_variants: int) -> bool:
    """Whether a pass of `n_variants` variants and `n_paths` paths runs as two chunks."""
    return n_variants * n_paths >= CHUNK_MIN and n_paths >= 2


def run_chunks(task, n_paths: int, seed, n_variants: int) -> list:
    """`task(lo, hi, rng)` on the path ranges of a pass's chunks, and its results in chunk order.

    A pass that is not `is_chunked` is one chunk, `task(0, n_paths, default_rng(seed))`.  A
    chunked pass is two, run as a `run_pair`: paths 0..ceil(n/2) on the pass's own generator,
    and the rest on its first spawned child, in a forked process when two CPUs are usable.
    """
    rng = np.random.default_rng(seed)
    if not is_chunked(n_paths, n_variants):
        return [task(0, n_paths, rng)]
    rest, mid = rng.spawn(1)[0], (n_paths + 1) // 2
    return list(run_pair(lambda: task(0, mid, rng), lambda: task(mid, n_paths, rest)))


class PathDump:
    """A `run_pass` reducer: the (t, X1, X2, xi) rows of the first `n` paths of one variant."""

    def __init__(self, n: int, predicate: TruncationPredicate):
        self.n, self.predicates, self.rows = n, (predicate,), []  # a (paths, 4) per grid time

    def feed(self, t, states, xi) -> None:
        k = min(self.n, len(xi))
        self.rows.append(np.column_stack((np.full(k, t), states[0][:k], xi[:k])))

    def merge(self, other) -> None:
        self.rows = [np.concatenate((a, b))[: self.n] for a, b in zip(self.rows, other.rows)]

    def paths(self) -> np.ndarray:
        """The dumped paths, (paths, grid times, 4)."""
        return np.stack(self.rows, axis=1)


def run_pass(scenario, n_paths: int, seed, keep, reducers=()) -> tuple[np.ndarray, list]:
    """One engine pass on `scenario` into one record: (kept states, fed reducers).

    `keep` lists (variant, record time) pairs; each chunk writes pair j's state at its paths
    lo:hi into row j of the pass's (len(keep), 2, n_paths) record, returned as its (len(keep),
    n_paths, 2) transpose, whose rows keep the live view's memory order (a matmul on one gives
    the view's bits).  A reducer names its variants (`predicates`), takes `feed(t, states,
    xi)` at every grid time with those variants in that order, and `merge(other)` of a copy
    fed by the next chunk; fed copies are returned.  The pass runs the union of the variants
    (else the scenario's own), kept ones first and deduplicated by equality, on one random
    stream and one environment path per chunk (`run_chunks`).
    """
    preds = list(dict.fromkeys([p for p, _ in keep] + [p for r in reducers for p in r.predicates]))
    preds = preds or [scenario.truncation]  # nothing is read, but the inputs are checked
    rows = {}  # record time: (row of `keep`, index of its variant in the pass)
    for j, (p, t) in enumerate(keep):
        rows.setdefault(t, []).append((j, preds.index(p)))
    slots = [[preds.index(p) for p in r.predicates] for r in reducers]
    kept = np.empty((len(keep), 2, max(n_paths, 0)))  # n_paths < 1: the stream raises

    def chunk(lo, hi, rng):
        part, fed = kept[:, :, lo:hi], copy.deepcopy(reducers)
        for t, states, xi in scenario_stream(scenario, hi - lo, rng, record_times=list(rows), predicates=preds):
            for j, i in rows.get(t, ()):
                part[j] = states[i].T
            for r, slot in zip(fed, slots):
                r.feed(t, [states[i] for i in slot], xi)
        return part, fed

    (_, fed), *rest = run_chunks(chunk, n_paths, seed, len(preds))
    for part, more_fed in rest:  # chunk 1, the last: a copy where a forked child ran it
        kept[:, :, n_paths - part.shape[2]:] = part  # else its own columns: no copy
        for r, other in zip(fed, more_fed):
            r.merge(other)
    return kept.transpose(0, 2, 1), fed


def scenario_states(
    scenario,
    n_paths: int,
    seed: int | np.random.Generator,
    record_times=None,
    predicates=None,
) -> tuple[np.ndarray, np.ndarray]:
    """What `run_pass` keeps at the record times, as a view: (record_times, states).

    `states` is shaped (n_variants, n_paths, n_records, 2), with the
    record times sorted and distinct (default: every grid time): a view
    of the pass's one record, whose path axis is contiguous.  Environment
    jumps are aggregated per grid interval (their law at grid points is
    exact); shared draws across variants implement the monotone coupling.
    """
    predicates = (scenario.truncation,) if predicates is None else tuple(predicates)
    grid, rec_idx = _batch_grid(scenario.horizon, scenario.step, record_times)
    times = grid[rec_idx]
    kept, _ = run_pass(scenario, n_paths, seed, [(p, t) for p in predicates for t in times.tolist()])
    return times, kept.reshape(len(predicates), len(times), n_paths, 2).transpose(0, 2, 1, 3)


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


def simulate_paths(scenario, n_paths: int, rng_seed: int) -> list[StatePath]:
    """Full paths on the base grid: every path of one pass, through a `PathDump`.

    Path i is row i of `scenario_states(scenario, n_paths, rng_seed,
    record_times=None)`, so it depends on the seed and on `n_paths`; the
    scenario's truncation applies.  Memory is O(n_paths * grid points).
    """
    _, (dump,) = run_pass(scenario, n_paths, rng_seed, [], [PathDump(n_paths, scenario.truncation)])
    return [StatePath(rows[:, 0], rows[:, 1:3], rows[:, 3]) for rows in dump.paths()]
