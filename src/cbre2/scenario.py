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


def _is_int_at_least(val, low: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= low


class _Reader:
    """One JSON object of the config, read at its key path.

    Every read names its key, and `close` rejects the keys no read asked
    for, so a block lists its keys once: in its reads.
    """

    def __init__(self, d, path=(), text=None):
        self.d, self.path, self.text, self.asked = d, path, text, {}

    def err(self, msg, *keys) -> ConfigError:
        """A ConfigError at this path plus `keys`, near the leaf key's line if it occurs once."""
        path = self.path + keys
        leaf = f'"{path[-1].split("[")[0]}"' if path else ""
        if self.text and leaf != '""' and self.text.count(leaf) == 1:
            msg += f" (near line {self.text.count(chr(10), 0, self.text.find(leaf)) + 1})"
        return ConfigError(f"{'.'.join(path) or '<root>'}: {msg}")

    def get(self, key, default=None, kind=object):
        """The value under `key`, `default` when absent (`...`: a required key)."""
        self.asked[key] = None
        val = self.d.get(key, default)
        if val is ...:
            raise self.err("missing required key", key)
        if not isinstance(val, kind):
            raise self.err(f"expected {kind.__name__}", key)
        return val

    def need(self, key, kind=object):
        return self.get(key, ..., kind)

    def num(self, key, default=..., finite=True) -> float:
        """A JSON number as a float; never NaN, and infinite ("inf") only if not `finite`."""
        val = self.get(key, default)
        if not finite and val in ("inf", "Infinity", math.inf):
            return math.inf
        # NaN, infinities and integers beyond the float range all fail the bound
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
            raise self.err(f"expected a {'finite ' if finite else ''}number, got {val!r}", key)
        return float(val)

    def int(self, key, default, low):
        val = self.get(key, default)
        if not _is_int_at_least(val, low):
            raise self.err(f"expected an integer >= {low}, got {val!r}", key)
        return val

    def obj(self, key, required=False) -> _Reader:
        """The object under `key`; unless required, absent or null reads as {}."""
        val = self.get(key)
        if val is None and not required:
            val = {}
        elif not isinstance(val, dict):
            raise self.err("missing required object" if val is None else "expected an object", key)
        return _Reader(val, self.path + (key,), self.text)

    def list(self, key, what, size=None, default=...) -> _Reader:
        """The list under `key` (of `size` entries if given), read by the keys [0], [1], ..."""
        val = self.get(key, default)
        if not (isinstance(val, list) and (size is None or len(val) == size)):
            raise self.err(f"expected {what}", key)
        return _Reader({f"[{i}]": v for i, v in enumerate(val)}, self.path + (key,), self.text)

    def pair(self, key, what, nonneg=False) -> tuple:
        """Two finite numbers (nonnegative if asked) under `key`."""
        items = self.list(key, what, 2)
        pair = tuple(items.num(i) for i in items.d)
        if nonneg and min(pair) < 0:
            raise self.err(f"expected nonnegative {what}", key)
        return pair

    def caps(self, key, count=None):
        """Positive finite truncation caps under `key` (None when absent)."""
        if key not in self.d:
            return self.get(key)  # None, and the key is asked for
        what = f"a list of {count or 'one or more'} positive finite numbers"
        items = self.list(key, what, count)
        caps = tuple(items.num(i) for i in items.d)
        if not caps:
            raise self.err(f"expected {what}", key)
        if min(caps) <= 0:
            raise self.err(f"expected positive finite numbers, got {self.d[key]!r}", key)
        return caps

    def make(self, constructor, *args, **kwargs):
        """Call `constructor`; its ValueError, ArithmeticError or Cbre2Error is a ConfigError here."""
        try:
            return constructor(*args, **kwargs)
        except (ValueError, ArithmeticError, Cbre2Error) as e:
            raise self.err(str(e)) from e

    def close(self):
        """Reject a key no read asked for: a misspelled key would drop what it sets."""
        for key in self.d:
            if key not in self.asked:
                raise self.err(f"unknown key; expected one of {', '.join(self.asked)}", str(key))


def _component(c: _Reader, planar):
    """One jump component: an atom or a tail (on an axis when `planar`, else on a side)."""
    kind = c.need("kind", str)
    if kind == "atom":
        if planar:
            comp = c.make(Atom2D, c.num("mass"), *c.pair("z", "[z1, z2]"))
        else:
            comp = c.make(Atom1D, c.num("mass"), c.num("z"))
    elif kind in ("exponential", "pareto"):
        shape = c.num("rate" if kind == "exponential" else "alpha")
        mass = c.num("mass")
        x0 = c.num("x0", 0.0 if kind == "exponential" else ...)
        if planar:
            axis = c.get("axis")
            if type(axis) is not int or axis not in (1, 2):  # not true, not 1.0
                raise c.err("axis must be 1 or 2", "axis")
            comp = c.make(AxisTail, axis, kind, mass, shape, x0)
        else:
            side = c.get("side", "+")
            if isinstance(side, str):
                side = {"+": 1, "-": -1}.get(side)
            if type(side) is not int or side not in (1, -1):
                raise c.err("side must be '+' or '-'", "side")
            comp = c.make(Tail1D, kind, mass, shape, x0, side)
    else:
        raise c.err(f"unknown component kind {kind!r}", "kind")
    c.close()
    return comp


def _measure(r: _Reader, key, planar):
    """The jump measure listed under `key` (absent reads as empty)."""
    items = r.list(key, "a list of jump components", default=[])
    atoms, tails = [], []
    for i, item in items.d.items():
        if not isinstance(item, dict):
            raise items.err("expected an object", i)
        comp = _component(items.obj(i), planar)
        (tails if isinstance(comp, (Tail1D, AxisTail)) else atoms).append(comp)
    return items.make(JumpMeasure if planar else JumpMeasure1D, atoms, tails)


def _truncation(tr: _Reader) -> TruncationPredicate:
    """The branching rule ("none", "unit_square" or a kind with level k) and the env clip."""
    val = tr.get("branching_rule")
    kind = NONE if val is None else val
    if isinstance(val, dict):
        br = tr.obj("branching_rule")
        kind, _ = br.get("kind"), br.get("k")  # the kinds without a level ignore k
        br.close()
    if isinstance(val, dict) and kind == NORM_CAP:
        rule = br.make(BranchingRule, NORM_CAP, br.num("k", finite=False))
    elif kind in (NONE, UNIT_SQUARE):
        rule = BranchingRule(kind)
    else:
        raise tr.err(f"unknown branching rule {val!r}", "branching_rule")
    val = tr.get("env_rule")
    if val in (None, NONE):
        return TruncationPredicate(rule)
    clip = tr.obj("env_rule") if isinstance(val, dict) else None
    if clip is None or clip.get("kind") != "clip_positive":
        raise tr.err(f"unknown env rule {val!r}", "env_rule")
    pred = clip.make(TruncationPredicate, rule, clip.num("k", finite=False))
    clip.close()
    return pred


def _fmoment_fn(fm: _Reader):
    family = fm.need("family", str)
    if family == "exp_power":
        fn = fm.make(fmoment.exp_power, fm.num("theta"), fm.num("gamma", 1.0))
    elif family in ("power", "power_log"):
        fn = fm.make(fmoment.power if family == "power" else fmoment.power_log, fm.num("p"))
    else:
        raise fm.err(f"unknown test-function family {family!r}", "family")
    fm.close()
    return fn


def scenario_from_dict(data: dict, source_text: str | None = None) -> ScenarioConfig:
    root = _Reader(data, (), source_text)
    if not isinstance(data, dict):
        raise root.err("config root must be an object")

    env = root.obj("environment", required=True)
    if "trunc_level" in env.d:  # a removed key: ignoring it would drop the clip
        raise env.err("removed key; clip the environment with "
                      'truncation.env_rule = {"kind": "clip_positive", "k": ...}', "trunc_level")
    nu = _measure(env, "nu", planar=False)
    environment = env.make(LevyEnvSpec, a=env.num("a", 0.0), sigma1=env.num("sigma1", 0.0), nu=nu)
    env.close()

    tr = root.obj("truncation")
    pred = _truncation(tr)
    tr.close()

    br = root.obj("branching", required=True)
    b = br.list("b", "a 2x2 matrix [[b11,b12],[b21,b22]]", 2, default=[[0.0, 0.0], [0.0, 0.0]])
    (b11, b12), (b21, b22) = (b.pair(i, "a row [bi1, bi2]") for i in b.d)
    m1, m2 = _measure(br, "m1", planar=True), _measure(br, "m2", planar=True)
    branching = br.make(BranchingSpec, b11=b11, b12=b12, b21=b21, b22=b22,
                        c1=br.num("c1", 0.0), c2=br.num("c2", 0.0), m1=m1, m2=m2)
    br.close()

    x0 = root.pair("x0", "[x1, x2]", nonneg=True)
    horizon, step = root.num("horizon"), root.num("step")
    if horizon <= 0:
        raise root.err("must be > 0", "horizon")
    if not (0 < step <= horizon):
        raise root.err("must satisfy 0 < step <= horizon", "step")

    out = root.obj("output")
    output = OutputSpec(out.get("directory", "out", str), out.int("dump_paths", 5, 0))
    out.close()

    lam = t_lap = fm_fn = None
    if root.get("laplace") is not None:
        lap = root.obj("laplace")
        lam = lap.pair("lambda", "[l1, l2]", nonneg=True)
        t_lap = lap.num("t", horizon)
        if not (0 < t_lap <= horizon):
            raise lap.err("must satisfy 0 < t <= horizon", "t")
        lap.close()
    if root.get("fmoment") is not None:
        fm_fn = _fmoment_fn(root.obj("fmoment"))

    ver = root.obj("verify")
    coupling_k = ver.caps("coupling_k", count=2)
    if coupling_k is not None and coupling_k[0] > coupling_k[1]:
        raise ver.err("expected [k1, k2] with k1 <= k2", "coupling_k")
    trunc_k_list = ver.caps("trunc_k_list")
    ver.close()

    recursion_tol = root.num("recursion_tol", 1e-6)
    if recursion_tol <= 0:
        raise root.err("must be > 0", "recursion_tol")

    sc = ScenarioConfig(
        environment=environment,
        branching=branching,
        x0=x0,
        horizon=horizon,
        step=step,
        n_paths=root.int("n_paths", 1000, 1),
        seed=root.int("seed", 0, 0),
        truncation=pred,
        output=output,
        moment_degree=root.int("moment_degree", 2, 1),
        recursion_tol=recursion_tol,
        laplace_lambda=lam,
        laplace_t=t_lap,
        fmoment_function=fm_fn,
        coupling_k=coupling_k,
        trunc_k_list=trunc_k_list,
        name=str(root.get("name", "")),
    )
    root.close()
    return sc


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


def _component_dict(c) -> dict:
    """One jump component as `_component` reads it."""
    if isinstance(c, (Atom1D, Atom2D)):
        z = c.z if isinstance(c, Atom1D) else [c.z1, c.z2]
        return {"kind": "atom", "mass": c.mass, "z": z}
    where = {"axis": c.axis} if isinstance(c, AxisTail) else {"side": "+" if c.side > 0 else "-"}
    shape = "rate" if c.family == "exponential" else "alpha"
    return {"kind": c.family, "mass": c.mass, "x0": c.x0, shape: c.shape, **where}


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    env, br, rule = sc.environment, sc.branching, sc.truncation.branching
    d = {
        "name": sc.name,
        "environment": {
            "a": env.a,
            "sigma1": env.sigma1,
            "nu": [_component_dict(c) for c in env.nu.atoms + env.nu.tails],
        },
        "branching": {
            "b": [[br.b11, br.b12], [br.b21, br.b22]],
            "c1": br.c1,
            "c2": br.c2,
            "m1": [_component_dict(c) for c in br.m1.atoms + br.m1.tails],
            "m2": [_component_dict(c) for c in br.m2.atoms + br.m2.tails],
        },
        "x0": list(sc.x0),
        "horizon": sc.horizon,
        "step": sc.step,
        "n_paths": sc.n_paths,
        "seed": sc.seed,
        "moment_degree": sc.moment_degree,
        "recursion_tol": sc.recursion_tol,
        "truncation": {
            "branching_rule": {"kind": NORM_CAP, "k": rule.k} if rule.kind == NORM_CAP else rule.kind,
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
