"""Declarative scenario configuration: JSON loading, validation, echo.

A scenario bundles the environment spec, branching spec, initial state,
discretization, path budget, seed, truncation rules and output options.
Validation errors carry the offending key path (plus a best-effort line
number when loaded from a file).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import fmoment
from .branching import BranchingSpec
from .env import LevyEnvSpec
from .errors import ConfigError
from .measures import (
    Atom1D,
    Atom2D,
    AxisTail,
    JumpMeasure,
    JumpMeasure1D,
    Tail1D,
)
from .truncation import (
    IDENTITY,
    NONE,
    NORM_CAP,
    UNIT_SQUARE,
    BranchingRule,
    TruncationPredicate,
)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    formats: tuple = ("csv",)
    dump_paths: int = 5


@dataclass(frozen=True)
class ScenarioConfig:
    environment: LevyEnvSpec
    branching: BranchingSpec
    x0: tuple
    horizon: float
    step: float
    n_paths: int = 1000
    seed: int = 0
    truncation: TruncationPredicate = IDENTITY
    output: OutputSpec = OutputSpec()
    moment_degree: int = 2
    recursion_tol: float = 1e-6
    laplace_lambda: tuple | None = None
    laplace_t: float | None = None
    fmoment_function: fmoment.MomentTestFunction | None = None
    coupling_k: tuple | None = None
    trunc_k_list: tuple | None = None
    name: str = ""

    def with_overrides(self, seed=None, n_paths=None, out_dir=None, moment_degree=None):
        sc = self
        if seed is not None:
            sc = replace(sc, seed=int(seed))
        if n_paths is not None:
            if not _is_path_count(n_paths):
                raise ConfigError(f"n_paths (--paths): expected an integer >= 1, got {n_paths!r}")
            sc = replace(sc, n_paths=n_paths)
        if moment_degree is not None:
            sc = replace(sc, moment_degree=int(moment_degree))
        if out_dir is not None:
            sc = replace(sc, output=replace(sc.output, directory=str(out_dir)))
        return sc


class _Ctx:
    """Key-path context for validation error messages."""

    def __init__(self, source_text=None):
        self.path = []
        self.text = source_text

    def push(self, key):
        self.path.append(str(key))

    def pop(self):
        self.path.pop()

    def err(self, msg) -> ConfigError:
        path = ".".join(self.path) or "<root>"
        line = self._line_of(self.path[-1] if self.path else None)
        where = f" (near line {line})" if line else ""
        return ConfigError(f"{path}: {msg}{where}")

    def _line_of(self, leaf):
        if not self.text or leaf is None:
            return None
        leaf = leaf.split("[")[0]
        needle = f'"{leaf}"'
        pos = self.text.find(needle)
        if pos < 0:
            return None
        return self.text.count("\n", 0, pos) + 1


def _need(ctx, d, key, kind=None):
    if key not in d:
        ctx.push(key)
        raise ctx.err("missing required key")
    val = d[key]
    if kind is not None and not isinstance(val, kind):
        ctx.push(key)
        raise ctx.err(f"expected {kind.__name__ if hasattr(kind, '__name__') else kind}")
    return val


def _num(ctx, d, key, default=None):
    if key not in d:
        if default is None:
            ctx.push(key)
            raise ctx.err("missing required key")
        return default
    val = d[key]
    if isinstance(val, str) and val in ("inf", "Infinity"):
        return math.inf
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        ctx.push(key)
        raise ctx.err("expected a number")
    return float(val)


def _is_path_count(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def _caps(ctx, ver, key, count=None):
    """Positive finite truncation caps under verify.<key> (None when absent)."""
    if key not in ver:
        return None
    ctx.push(key)
    caps = ver[key]
    if not isinstance(caps, list) or not caps or (count is not None and len(caps) != count):
        raise ctx.err(f"expected a list of {count or 'one or more'} positive finite numbers")
    for k in caps:
        if isinstance(k, bool) or not isinstance(k, (int, float)) or not (0 < k < math.inf):
            raise ctx.err(f"expected positive finite numbers, got {k!r}")
    ctx.pop()
    return tuple(float(k) for k in caps)


def _component_1d(ctx, d):
    kind = _need(ctx, d, "kind", str)
    try:
        if kind == "atom":
            return Atom1D(_num(ctx, d, "mass"), _num(ctx, d, "z"))
        if kind in ("exponential", "pareto"):
            shape = _num(ctx, d, "rate" if kind == "exponential" else "alpha")
            side = {"+": 1, "-": -1, 1: 1, -1: -1}.get(d.get("side", "+"))
            if side is None:
                ctx.push("side")
                raise ctx.err("side must be '+' or '-'")
            return Tail1D(kind, _num(ctx, d, "mass"), shape, _num(ctx, d, "x0", 0.0 if kind == "exponential" else None), side)
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.push("kind")
    raise ctx.err(f"unknown component kind {kind!r}")


def _component_2d(ctx, d):
    kind = _need(ctx, d, "kind", str)
    try:
        if kind == "atom":
            z = _need(ctx, d, "z", list)
            if len(z) != 2:
                ctx.push("z")
                raise ctx.err("expected [z1, z2]")
            return Atom2D(_num(ctx, d, "mass"), float(z[0]), float(z[1]))
        if kind in ("exponential", "pareto"):
            axis = d.get("axis")
            if axis not in (1, 2):
                ctx.push("axis")
                raise ctx.err("axis must be 1 or 2")
            shape = _num(ctx, d, "rate" if kind == "exponential" else "alpha")
            return AxisTail(axis, kind, _num(ctx, d, "mass"), shape, _num(ctx, d, "x0", 0.0 if kind == "exponential" else None))
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.push("kind")
    raise ctx.err(f"unknown component kind {kind!r}")


def _measure_1d(ctx, lst):
    atoms, tails = [], []
    for i, item in enumerate(lst):
        ctx.push(f"[{i}]")
        comp = _component_1d(ctx, item)
        (atoms if isinstance(comp, Atom1D) else tails).append(comp)
        ctx.pop()
    return JumpMeasure1D(atoms, tails)


def _measure_2d(ctx, lst):
    atoms, tails = [], []
    for i, item in enumerate(lst):
        ctx.push(f"[{i}]")
        comp = _component_2d(ctx, item)
        (atoms if isinstance(comp, Atom2D) else tails).append(comp)
        ctx.pop()
    try:
        return JumpMeasure(atoms, tails)
    except Exception as e:
        raise ctx.err(str(e)) from e


def _rule(ctx, val) -> BranchingRule:
    if val in (None, "none"):
        return BranchingRule(NONE)
    if val == "unit_square":
        return BranchingRule(UNIT_SQUARE)
    if isinstance(val, dict):
        kind = val.get("kind")
        if kind == "none":
            return BranchingRule(NONE)
        if kind == "unit_square":
            return BranchingRule(UNIT_SQUARE)
        if kind == "norm_cap":
            return BranchingRule(NORM_CAP, _num(ctx, val, "k"))
    raise ctx.err(f"unknown branching rule {val!r}")


def _env_rule(ctx, val) -> float:
    if val in (None, "none"):
        return math.inf
    if isinstance(val, dict) and val.get("kind") == "clip_positive":
        return _num(ctx, val, "k")
    raise ctx.err(f"unknown env rule {val!r}")


def _fmoment_fn(ctx, d):
    family = _need(ctx, d, "family", str)
    try:
        if family == "power":
            return fmoment.power(_num(ctx, d, "p"))
        if family == "power_log":
            return fmoment.power_log(_num(ctx, d, "p"))
        if family == "exp_power":
            return fmoment.exp_power(_num(ctx, d, "theta"), _num(ctx, d, "gamma", 1.0))
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.push("family")
    raise ctx.err(f"unknown test-function family {family!r}")


def scenario_from_dict(data: dict, source_text: str | None = None) -> ScenarioConfig:
    ctx = _Ctx(source_text)
    if not isinstance(data, dict):
        raise ctx.err("config root must be an object")

    envd = data.get("environment")
    if not isinstance(envd, dict):
        ctx.push("environment")
        raise ctx.err("missing required object")
    ctx.push("environment")
    ctx.push("nu")
    nu = _measure_1d(ctx, envd.get("nu", []))
    ctx.pop()
    try:
        env = LevyEnvSpec(
            a=_num(ctx, envd, "a", 0.0),
            sigma1=_num(ctx, envd, "sigma1", 0.0),
            nu=nu,
            trunc_level=_num(ctx, envd, "trunc_level", math.inf),
        )
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.pop()

    ctx.push("truncation")
    trd = data.get("truncation", {}) or {}
    pred = TruncationPredicate(
        branching=_rule(ctx, trd.get("branching_rule", "none")),
        env_clip=_env_rule(ctx, trd.get("env_rule", "none")),
    )
    ctx.pop()

    brd = data.get("branching")
    if not isinstance(brd, dict):
        ctx.push("branching")
        raise ctx.err("missing required object")
    ctx.push("branching")
    b = brd.get("b", [[0.0, 0.0], [0.0, 0.0]])
    if not (isinstance(b, list) and len(b) == 2 and all(len(r) == 2 for r in b)):
        ctx.push("b")
        raise ctx.err("expected a 2x2 matrix [[b11,b12],[b21,b22]]")
    ctx.push("m1")
    m1 = _measure_2d(ctx, brd.get("m1", []))
    ctx.pop()
    ctx.push("m2")
    m2 = _measure_2d(ctx, brd.get("m2", []))
    ctx.pop()
    try:
        branching = BranchingSpec(
            b11=float(b[0][0]),
            b12=float(b[0][1]),
            b21=float(b[1][0]),
            b22=float(b[1][1]),
            c1=_num(ctx, brd, "c1", 0.0),
            c2=_num(ctx, brd, "c2", 0.0),
            m1=m1,
            m2=m2,
            trunc_predicate=pred,
        )
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.pop()

    x0 = data.get("x0")
    if not (isinstance(x0, list) and len(x0) == 2):
        ctx.push("x0")
        raise ctx.err("expected [x1, x2]")
    if x0[0] < 0 or x0[1] < 0:
        ctx.push("x0")
        raise ctx.err("initial state must be nonnegative")

    horizon = _num(ctx, data, "horizon")
    step = _num(ctx, data, "step")
    if horizon <= 0:
        ctx.push("horizon")
        raise ctx.err("must be > 0")
    if not (0 < step <= horizon):
        ctx.push("step")
        raise ctx.err("must satisfy 0 < step <= horizon")

    out = data.get("output", {}) or {}
    output = OutputSpec(
        directory=str(out.get("directory", "out")),
        formats=tuple(out.get("formats", ["csv"])),
        dump_paths=int(out.get("dump_paths", 5)),
    )

    lap = data.get("laplace")
    lam = t_lap = None
    if lap is not None:
        ctx.push("laplace")
        lamv = _need(ctx, lap, "lambda", list)
        if len(lamv) != 2 or lamv[0] < 0 or lamv[1] < 0:
            ctx.push("lambda")
            raise ctx.err("expected nonnegative [l1, l2]")
        lam = (float(lamv[0]), float(lamv[1]))
        t_lap = _num(ctx, lap, "t", horizon)
        ctx.pop()

    fm = data.get("fmoment")
    fm_fn = None
    if fm is not None:
        ctx.push("fmoment")
        fm_fn = _fmoment_fn(ctx, fm)
        ctx.pop()

    ver = data.get("verify", {}) or {}
    ctx.push("verify")
    if not isinstance(ver, dict):
        raise ctx.err("expected an object")
    coupling_k = _caps(ctx, ver, "coupling_k", count=2)
    if coupling_k is not None and coupling_k[0] > coupling_k[1]:
        ctx.push("coupling_k")
        raise ctx.err("expected [k1, k2] with k1 <= k2")
    trunc_k_list = _caps(ctx, ver, "trunc_k_list")
    ctx.pop()

    n_paths = data.get("n_paths", 1000)
    if not _is_path_count(n_paths):
        ctx.push("n_paths")
        raise ctx.err(f"expected an integer >= 1, got {n_paths!r}")

    return ScenarioConfig(
        environment=env,
        branching=branching,
        x0=(float(x0[0]), float(x0[1])),
        horizon=horizon,
        step=step,
        n_paths=n_paths,
        seed=int(data.get("seed", 0)),
        truncation=pred,
        output=output,
        moment_degree=int(data.get("moment_degree", 2)),
        recursion_tol=float(data.get("recursion_tol", 1e-6)),
        laplace_lambda=lam,
        laplace_t=t_lap,
        fmoment_function=fm_fn,
        coupling_k=coupling_k,
        trunc_k_list=trunc_k_list,
        name=str(data.get("name", "")),
    )


def load_scenario(path: str) -> ScenarioConfig:
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return scenario_from_dict(data, source_text=text)


def _component_1d_dict(c):
    if isinstance(c, Atom1D):
        return {"kind": "atom", "mass": c.mass, "z": c.z}
    d = {"kind": c.family, "mass": c.mass, "x0": c.x0, "side": "+" if c.side > 0 else "-"}
    d["rate" if c.family == "exponential" else "alpha"] = c.shape
    return d


def _component_2d_dict(c):
    if isinstance(c, Atom2D):
        return {"kind": "atom", "mass": c.mass, "z": [c.z1, c.z2]}
    d = {"kind": c.family, "axis": c.axis, "mass": c.mass, "x0": c.x0}
    d["rate" if c.family == "exponential" else "alpha"] = c.shape
    return d


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    env = sc.environment
    br = sc.branching
    d = {
        "name": sc.name,
        "environment": {
            "a": env.a,
            "sigma1": env.sigma1,
            "nu": [_component_1d_dict(c) for c in env.nu.atoms + env.nu.tails],
            "trunc_level": env.trunc_level if math.isfinite(env.trunc_level) else "inf",
        },
        "branching": {
            "b": [[br.b11, br.b12], [br.b21, br.b22]],
            "c1": br.c1,
            "c2": br.c2,
            "m1": [_component_2d_dict(c) for c in br.m1.atoms + br.m1.tails],
            "m2": [_component_2d_dict(c) for c in br.m2.atoms + br.m2.tails],
        },
        "x0": list(sc.x0),
        "horizon": sc.horizon,
        "step": sc.step,
        "n_paths": sc.n_paths,
        "seed": sc.seed,
        "moment_degree": sc.moment_degree,
        "recursion_tol": sc.recursion_tol,
        "truncation": {
            "branching_rule": (
                "none"
                if sc.truncation.branching.kind == NONE
                else "unit_square"
                if sc.truncation.branching.kind == UNIT_SQUARE
                else {"kind": "norm_cap", "k": sc.truncation.branching.k}
            ),
            "env_rule": (
                "none"
                if math.isinf(sc.truncation.env_clip)
                else {"kind": "clip_positive", "k": sc.truncation.env_clip}
            ),
        },
        "output": {
            "directory": sc.output.directory,
            "formats": list(sc.output.formats),
            "dump_paths": sc.output.dump_paths,
        },
    }
    if sc.laplace_lambda is not None:
        d["laplace"] = {"lambda": list(sc.laplace_lambda), "t": sc.laplace_t}
    if sc.fmoment_function is not None:
        fn = sc.fmoment_function
        if fn.family == "exp_power":
            d["fmoment"] = {"family": fn.family, "theta": fn.params[0], "gamma": fn.params[1]}
        else:
            d["fmoment"] = {"family": fn.family, "p": fn.params[0]}
    ver = {}
    if sc.coupling_k is not None:
        ver["coupling_k"] = list(sc.coupling_k)
    if sc.trunc_k_list is not None:
        ver["trunc_k_list"] = list(sc.trunc_k_list)
    if ver:
        d["verify"] = ver
    return d


def dump_scenario(sc: ScenarioConfig) -> str:
    """Normalized JSON echo; reloading it yields an identical scenario."""
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"
