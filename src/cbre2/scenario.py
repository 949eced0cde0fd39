"""Declarative scenario configuration: JSON loading, validation, echo.

A scenario bundles the environment spec, branching spec, initial state,
discretization, path budget, seed, truncation rules and output options.
Validation errors carry the offending key path (plus a best-effort line
number when loaded from a file).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

from . import fmoment
from .branching import BranchingSpec
from .env import LevyEnvSpec
from .errors import Cbre2Error, ConfigError
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
        for key, flag, val, low in (("seed", "--seed", seed, 0), ("n_paths", "--paths", n_paths, 1),
                                    ("moment_degree", "--n", moment_degree, 1)):
            if val is not None:
                if not _is_int_at_least(val, low):
                    raise ConfigError(f"{key} ({flag}): expected an integer >= {low}, got {val!r}")
                sc = replace(sc, **{key: val})
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
        """The line of the leaf key, only when the key occurs once in the file."""
        key = leaf.split("[")[0] if leaf else ""
        if not self.text or not key:
            return None
        needle = f'"{key}"'
        if self.text.count(needle) != 1:
            return None
        return self.text.count("\n", 0, self.text.find(needle)) + 1


def _need(ctx, d, key, kind=None):
    if key not in d:
        ctx.push(key)
        raise ctx.err("missing required key")
    val = d[key]
    if kind is not None and not isinstance(val, kind):
        ctx.push(key)
        raise ctx.err(f"expected {kind.__name__ if hasattr(kind, '__name__') else kind}")
    return val


def _known(ctx, d, *keys):
    """Reject a key of `d` outside `keys`: a misspelled key would drop what it sets."""
    for key in d:
        if key not in keys:
            ctx.push(key)
            raise ctx.err(f"unknown key; expected one of {', '.join(keys)}")


def _real(ctx, key, val, finite=True):
    """A JSON number as a float; never NaN, and infinite ("inf") only if not `finite`."""
    if not finite and val in ("inf", "Infinity", math.inf):
        return math.inf
    # NaN, infinities and integers beyond the float range all fail the bound
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
        ctx.push(key)
        raise ctx.err(f"expected a {'finite ' if finite else ''}number, got {val!r}")
    return float(val)


def _num(ctx, d, key, default=None, finite=True):
    if key not in d and default is not None:
        return default
    return _real(ctx, key, _need(ctx, d, key), finite)


def _is_int_at_least(val, low: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= low


def _int(ctx, d, key, default, low):
    val = d.get(key, default)
    if not _is_int_at_least(val, low):
        ctx.push(key)
        raise ctx.err(f"expected an integer >= {low}, got {val!r}")
    return val


def _obj(ctx, d, key, required=False):
    """The object under `key`; unless required, absent or null reads as {}."""
    val = d.get(key)
    if val is None and not required:
        return {}
    if not isinstance(val, dict):
        ctx.push(key)
        raise ctx.err("missing required object" if val is None else "expected an object")
    return val


def _pair(ctx, key, val, what, nonneg=False):
    """Two finite numbers (nonnegative if asked) at `key`, as a tuple."""
    ctx.push(key)
    if not (isinstance(val, list) and len(val) == 2):
        raise ctx.err(f"expected {what}")
    pair = tuple(_real(ctx, f"[{i}]", v) for i, v in enumerate(val))
    if nonneg and min(pair) < 0:
        raise ctx.err(f"expected nonnegative {what}")
    ctx.pop()
    return pair


def _caps(ctx, ver, key, count=None):
    """Positive finite truncation caps under verify.<key> (None when absent)."""
    if key not in ver:
        return None
    ctx.push(key)
    caps = ver[key]
    if not isinstance(caps, list) or not caps or (count is not None and len(caps) != count):
        raise ctx.err(f"expected a list of {count or 'one or more'} positive finite numbers")
    out = tuple(_real(ctx, f"[{i}]", k) for i, k in enumerate(caps))
    if min(out) <= 0:
        raise ctx.err(f"expected positive finite numbers, got {caps!r}")
    ctx.pop()
    return out


def _component(ctx, d, planar):
    """One jump component: an atom or a tail (on an axis when `planar`, else on a side)."""
    kind = _need(ctx, d, "kind", str)
    if kind == "atom":
        _known(ctx, d, "kind", "mass", "z")
        if planar:
            return Atom2D(_num(ctx, d, "mass"), *_pair(ctx, "z", _need(ctx, d, "z"), "[z1, z2]"))
        return Atom1D(_num(ctx, d, "mass"), _num(ctx, d, "z"))
    if kind not in ("exponential", "pareto"):
        ctx.push("kind")
        raise ctx.err(f"unknown component kind {kind!r}")
    _known(ctx, d, "kind", "mass", "rate" if kind == "exponential" else "alpha", "x0",
           "axis" if planar else "side")
    shape = _num(ctx, d, "rate" if kind == "exponential" else "alpha")
    mass = _num(ctx, d, "mass")
    x0 = _num(ctx, d, "x0", 0.0 if kind == "exponential" else None)
    if planar:
        axis = d.get("axis")
        if isinstance(axis, bool) or axis not in (1, 2):
            ctx.push("axis")
            raise ctx.err("axis must be 1 or 2")
        return AxisTail(axis, kind, mass, shape, x0)
    try:
        side = {"+": 1, "-": -1, 1: 1, -1: -1}[d.get("side", "+")]
    except (KeyError, TypeError):
        ctx.push("side")
        raise ctx.err("side must be '+' or '-'") from None
    return Tail1D(kind, mass, shape, x0, side)


def _measure(ctx, d, key, planar):
    """The jump measure listed under `key` (absent reads as empty)."""
    ctx.push(key)
    items = d.get(key, [])
    if not isinstance(items, list):
        raise ctx.err("expected a list of jump components")
    atoms, tails = [], []
    for i, item in enumerate(items):
        ctx.push(f"[{i}]")
        if not isinstance(item, dict):
            raise ctx.err("expected an object")
        try:
            comp = _component(ctx, item, planar)
        except ValueError as e:
            raise ctx.err(str(e)) from e
        (tails if isinstance(comp, (Tail1D, AxisTail)) else atoms).append(comp)
        ctx.pop()
    try:
        measure = (JumpMeasure if planar else JumpMeasure1D)(atoms, tails)
    except (ArithmeticError, Cbre2Error) as e:  # mass overflow, divergent first moments
        raise ctx.err(str(e)) from e
    ctx.pop()
    return measure


def _rule(ctx, val) -> BranchingRule:
    if val in (None, "none"):
        return BranchingRule(NONE)
    if val == "unit_square":
        return BranchingRule(UNIT_SQUARE)
    if isinstance(val, dict):
        _known(ctx, val, "kind", "k")
        kind = val.get("kind")
        if kind == "none":
            return BranchingRule(NONE)
        if kind == "unit_square":
            return BranchingRule(UNIT_SQUARE)
        if kind == "norm_cap":
            return BranchingRule(NORM_CAP, _num(ctx, val, "k", finite=False))
    raise ctx.err(f"unknown branching rule {val!r}")


def _env_rule(ctx, val) -> float:
    if val in (None, "none"):
        return math.inf
    if isinstance(val, dict) and val.get("kind") == "clip_positive":
        _known(ctx, val, "kind", "k")
        return _num(ctx, val, "k", finite=False)
    raise ctx.err(f"unknown env rule {val!r}")


def _fmoment_fn(ctx, d):
    family = _need(ctx, d, "family", str)
    if family not in ("power", "power_log", "exp_power"):
        ctx.push("family")
        raise ctx.err(f"unknown test-function family {family!r}")
    _known(ctx, d, "family", *(("theta", "gamma") if family == "exp_power" else ("p",)))
    try:
        if family == "power":
            return fmoment.power(_num(ctx, d, "p"))
        if family == "power_log":
            return fmoment.power_log(_num(ctx, d, "p"))
        return fmoment.exp_power(_num(ctx, d, "theta"), _num(ctx, d, "gamma", 1.0))
    except ValueError as e:
        raise ctx.err(str(e)) from e


def scenario_from_dict(data: dict, source_text: str | None = None) -> ScenarioConfig:
    ctx = _Ctx(source_text)
    if not isinstance(data, dict):
        raise ctx.err("config root must be an object")
    _known(ctx, data, "name", "environment", "branching", "x0", "horizon", "step", "n_paths", "seed",
           "truncation", "output", "moment_degree", "recursion_tol", "laplace", "fmoment", "verify")

    envd = _obj(ctx, data, "environment", required=True)
    ctx.push("environment")
    if "trunc_level" in envd:  # a removed key: ignoring it would drop the clip
        ctx.push("trunc_level")
        raise ctx.err("removed key; clip the environment with "
                      'truncation.env_rule = {"kind": "clip_positive", "k": ...}')
    _known(ctx, envd, "a", "sigma1", "nu")
    nu = _measure(ctx, envd, "nu", planar=False)
    try:
        env = LevyEnvSpec(
            a=_num(ctx, envd, "a", 0.0), sigma1=_num(ctx, envd, "sigma1", 0.0), nu=nu
        )
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.pop()

    trd = _obj(ctx, data, "truncation")
    ctx.push("truncation")
    _known(ctx, trd, "branching_rule", "env_rule")
    try:
        ctx.push("branching_rule")
        rule = _rule(ctx, trd.get("branching_rule", "none"))
        ctx.pop()
        ctx.push("env_rule")
        clip = _env_rule(ctx, trd.get("env_rule", "none"))
        pred = TruncationPredicate(branching=rule, env_clip=clip)
        ctx.pop()
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.pop()

    brd = _obj(ctx, data, "branching", required=True)
    ctx.push("branching")
    _known(ctx, brd, "b", "c1", "c2", "m1", "m2")
    b = brd.get("b", [[0.0, 0.0], [0.0, 0.0]])
    ctx.push("b")
    if not (isinstance(b, list) and len(b) == 2):
        raise ctx.err("expected a 2x2 matrix [[b11,b12],[b21,b22]]")
    (b11, b12), (b21, b22) = (_pair(ctx, f"[{i}]", row, "a row [bi1, bi2]") for i, row in enumerate(b))
    ctx.pop()
    m1 = _measure(ctx, brd, "m1", planar=True)
    m2 = _measure(ctx, brd, "m2", planar=True)
    try:
        branching = BranchingSpec(
            b11=b11,
            b12=b12,
            b21=b21,
            b22=b22,
            c1=_num(ctx, brd, "c1", 0.0),
            c2=_num(ctx, brd, "c2", 0.0),
            m1=m1,
            m2=m2,
        )
    except ValueError as e:
        raise ctx.err(str(e)) from e
    ctx.pop()

    x0 = _pair(ctx, "x0", data.get("x0"), "[x1, x2]", nonneg=True)

    horizon = _num(ctx, data, "horizon")
    step = _num(ctx, data, "step")
    if horizon <= 0:
        ctx.push("horizon")
        raise ctx.err("must be > 0")
    if not (0 < step <= horizon):
        ctx.push("step")
        raise ctx.err("must satisfy 0 < step <= horizon")

    out = _obj(ctx, data, "output")
    ctx.push("output")
    _known(ctx, out, "directory", "dump_paths")
    output = OutputSpec(
        directory=_need(ctx, out, "directory", str) if "directory" in out else "out",
        dump_paths=_int(ctx, out, "dump_paths", 5, 0),
    )
    ctx.pop()

    lam = t_lap = fm_fn = None
    if data.get("laplace") is not None:
        lap = _obj(ctx, data, "laplace")
        ctx.push("laplace")
        _known(ctx, lap, "lambda", "t")
        lam = _pair(ctx, "lambda", _need(ctx, lap, "lambda"), "[l1, l2]", nonneg=True)
        t_lap = _num(ctx, lap, "t", horizon)
        if not (0 < t_lap <= horizon):
            ctx.push("t")
            raise ctx.err("must satisfy 0 < t <= horizon")
        ctx.pop()

    if data.get("fmoment") is not None:
        fm = _obj(ctx, data, "fmoment")
        ctx.push("fmoment")
        fm_fn = _fmoment_fn(ctx, fm)
        ctx.pop()

    ver = _obj(ctx, data, "verify")
    ctx.push("verify")
    _known(ctx, ver, "coupling_k", "trunc_k_list")
    coupling_k = _caps(ctx, ver, "coupling_k", count=2)
    if coupling_k is not None and coupling_k[0] > coupling_k[1]:
        ctx.push("coupling_k")
        raise ctx.err("expected [k1, k2] with k1 <= k2")
    trunc_k_list = _caps(ctx, ver, "trunc_k_list")
    ctx.pop()

    recursion_tol = _num(ctx, data, "recursion_tol", 1e-6)
    if recursion_tol <= 0:
        ctx.push("recursion_tol")
        raise ctx.err("must be > 0")

    return ScenarioConfig(
        environment=env,
        branching=branching,
        x0=x0,
        horizon=horizon,
        step=step,
        n_paths=_int(ctx, data, "n_paths", 1000, 1),
        seed=_int(ctx, data, "seed", 0, 0),
        truncation=pred,
        output=output,
        moment_degree=_int(ctx, data, "moment_degree", 2, 1),
        recursion_tol=recursion_tol,
        laplace_lambda=lam,
        laplace_t=t_lap,
        fmoment_function=fm_fn,
        coupling_k=coupling_k,
        trunc_k_list=trunc_k_list,
        name=str(data.get("name", "")),
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the config: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: the config is not UTF-8 text") from e
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
