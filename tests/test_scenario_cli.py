import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.cli import SUBCOMMANDS, main
from cbre2.errors import ConfigError
from cbre2.scenario import (
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from tests.conftest import SCENARIO_DIR

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _scen(name):
    return os.path.join(SCEN_DIR, name)


MINIMAL = {
    "environment": {"a": 0.1, "sigma1": 0.2, "nu": [{"kind": "atom", "mass": 0.5, "z": 0.4}]},
    "branching": {
        "b": [[0.3, -0.2], [-0.1, 0.4]],
        "c1": 0.15,
        "m1": [{"kind": "atom", "mass": 0.4, "z": [0.3, 0.2]}],
        "m2": [{"kind": "pareto", "axis": 1, "mass": 0.5, "alpha": 2.5, "x0": 1.0}],
    },
    "x0": [1.5, 2.5],
    "horizon": 1.0,
    "step": 0.001,
}


def test_minimal_config_parses():
    sc = scenario_from_dict(MINIMAL)
    assert sc.environment.a == 0.1
    assert sc.branching.b12 == -0.2
    assert sc.branching.m2.tails[0].shape == 2.5
    assert sc.x0 == (1.5, 2.5)


def test_truncation_block_mirrored_into_branching_spec():
    data = json.loads(json.dumps(MINIMAL))
    data["truncation"] = {
        "branching_rule": {"kind": "norm_cap", "k": 2.0},
        "env_rule": {"kind": "clip_positive", "k": 1.5},
    }
    sc = scenario_from_dict(data)
    assert sc.truncation.branching.k == 2.0
    assert sc.truncation.env_clip == 1.5
    back = scenario_from_dict(json.loads(dump_scenario(sc)))
    assert scenario_to_dict(back) == scenario_to_dict(sc)


# the documented spellings no bundled config uses: a negative-side environment tail,
# an exp_power test function with gamma, and an unbounded norm cap given as "inf"
EXTENDED = {
    **MINIMAL,
    "environment": {"a": 0.1, "sigma1": 0.2, "nu": [
        {"kind": "atom", "mass": 0.5, "z": 0.4},
        {"kind": "exponential", "side": "-", "mass": 0.3, "rate": 2.0, "x0": 0.1},
    ]},
    "fmoment": {"family": "exp_power", "theta": 0.5, "gamma": 0.7},
    "truncation": {"branching_rule": {"kind": "norm_cap", "k": "inf"}},
}


def test_roundtrip_through_dump():
    for data in (MINIMAL, EXTENDED):
        sc = scenario_from_dict(data)
        text = dump_scenario(sc)
        back = scenario_from_dict(json.loads(text))
        assert scenario_to_dict(back) == scenario_to_dict(sc)
    assert sc.environment.nu.tails[0].side == -1
    assert sc.fmoment_function.params == (0.5, 0.7)
    assert sc.truncation.branching.k == math.inf


def test_all_bundled_scenarios_roundtrip():
    for name in sorted(os.listdir(SCEN_DIR)):
        sc = load_scenario(_scen(name))
        back = scenario_from_dict(json.loads(dump_scenario(sc)))
        assert scenario_to_dict(back) == scenario_to_dict(sc), name


@pytest.mark.parametrize("name", sorted(os.listdir(SCEN_DIR)))
def test_two_loads_of_a_bundled_scenario_are_equal(name):
    """Scenarios, and the jump measures inside them, compare by value."""
    a, b = load_scenario(_scen(name)), load_scenario(_scen(name))
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.pop("environment"), "environment"),
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d["branching"].__setitem__("b", [[0.0, 0.5], [0.0, 0.0]]), "branching"),
        (lambda d: d["environment"]["nu"][0].__setitem__("mass", -1.0), "nu[0]"),
        (lambda d: d["branching"]["m2"][0].__setitem__("alpha", 0.5), "m2[0]"),
        (lambda d: d.__setitem__("step", 5.0), "step"),
        (lambda d: d.__setitem__("x0", [1.0]), "x0"),
        (lambda d: d["environment"].__setitem__("trunc_level", 0.5), "environment"),
    ],
)
def test_validation_errors_carry_key_path(mutate, key):
    data = json.loads(json.dumps(MINIMAL))
    mutate(data)
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(data)
    assert key.split("[")[0] in str(exc.value)


def test_config_error_reports_line(tmp_path):
    bad = json.loads(json.dumps(MINIMAL))
    bad["step"] = -1.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad, indent=2))
    with pytest.raises(ConfigError) as exc:
        load_scenario(str(p))
    assert "step" in str(exc.value) and "line" in str(exc.value)


def test_config_error_in_list_entry_cites_no_wrong_line(tmp_path):
    """A leaf key that occurs more than once in the file gets no line hint."""
    with open(_scen("mixed.json")) as f:
        data = json.load(f)
    data["branching"]["m2"][0]["mass"] = "x"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data, indent=2, sort_keys=True))
    with pytest.raises(ConfigError) as exc:
        load_scenario(str(p))
    assert "branching.m2.[0].mass" in str(exc.value)
    assert "line 18" not in str(exc.value)


def test_cli_dump_config_roundtrip(tmp_path, capsys):
    rc = main(["moments", "--config", _scen("mixed.json"), "--dump-config"])
    assert rc == 0
    echoed = capsys.readouterr().out
    p = tmp_path / "echo.json"
    p.write_text(echoed)
    sc1 = load_scenario(_scen("mixed.json"))
    sc2 = load_scenario(str(p))
    assert scenario_to_dict(sc1) == scenario_to_dict(sc2)


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["moments", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, kind):
    """A config that cannot be read is a config error naming its path, not a traceback."""
    p = tmp_path / "config.json"
    if kind == "directory":
        p.mkdir()
    elif kind == "not-utf8":
        p.write_bytes(b"\xff\xfe{}")
    assert main(["simulate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(p) in err


@pytest.mark.parametrize("kind", ["under-a-file", "a-file", "unwritable-csv"])
def test_cli_unusable_out_exit_code(tmp_path, capsys, kind):
    """An output directory that cannot be made or written is a config error naming output.directory."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = {"under-a-file": blocker / "sub", "a-file": blocker, "unwritable-csv": tmp_path / "o"}[kind]
    if kind == "unwritable-csv":
        (out / "moments.csv").mkdir(parents=True)  # a directory where the CSV goes
    assert main(["moments", "--config", _scen("mixed.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output.directory") and str(out) in err


def test_cli_moments_csv_contract(tmp_path, capsys):
    out = tmp_path / "m"
    rc = main(["moments", "--config", _scen("mixed.json"), "--out", str(out), "--n", "2"])
    assert rc == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "t,p,q,value,finite_flag"
    assert len(lines) == 1 + 5 * 11  # five monomials, eleven times
    row0 = lines[1].split(",")
    assert row0[:3] == ["0", "1", "0"] and float(row0[3]) == 1.5


def test_cli_moments_overflow_names_degree_and_beta(tmp_path, capsys):
    """beta(8) ~ 1652 sends degree-8 moments of mixed.json past the float range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail here
        rc = main(["moments", "--config", _scen("mixed.json"), "--out", str(tmp_path), "--n", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ExponentOverflow" in err and "degree-8" in err and "beta(8) = 1651.7" in err


def test_cli_laplace_on_tail_config(tmp_path, capsys):
    """The annealed average runs on a Pareto-tail mechanism and agrees with direct MC."""
    with open(_scen("pareto.json")) as f:
        cfg = json.load(f)
    cfg["laplace"] = {"lambda": [0.7, 0.4], "t": 0.5}
    path = tmp_path / "pareto_laplace.json"
    path.write_text(json.dumps(cfg))
    rc = main(["laplace", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    z = float(re.search(r"z = ([-+]?[0-9.]+)", capsys.readouterr().out).group(1))
    assert abs(z) < 4
    last = (tmp_path / "out" / "laplace.csv").read_text().splitlines()[-1]
    assert last == "0.5,0.7,0.4"


def test_cli_recursion_check_pass(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["recursion-check", "--config", _scen("mixed.json"), "--out", str(out), "--n", "3"])
    assert rc == 0
    lines = (out / "recursion_check.csv").read_text().splitlines()
    assert lines[0] == "t,n,type,lhs,rhs,residual"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-6


def test_cli_fmoment_verdict(tmp_path, capsys):
    out = tmp_path / "f"
    rc = main(["fmoment", "--config", _scen("fmoment_power3_pareto.json"), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "fmoment.json").read_text())
    assert payload["verdict"] == "Infinite"
    assert payload["criteria"]["branching_tail"] == "Infinite"
    assert set(payload["criteria"]) == {"initial", "branching_tail", "environment_tail"}
    assert "f = (1+x)^3 -> " in capsys.readouterr().out
    for fmoment, described in (
        ({"family": "exp_power", "theta": 0.5, "gamma": 0.7}, "f = exp(0.5 x^0.7) -> "),
        ({"family": "power_log", "p": 2.0}, "f = (1+x)^2 log(e+x) -> "),
    ):
        config = _edited_config(tmp_path, "fmoment_power3_pareto.json", lambda d: d.__setitem__("fmoment", fmoment))
        assert main(["fmoment", "--config", config, "--out", str(out)]) == 0
        assert described in capsys.readouterr().out


def test_cli_fmoment_missing_block(tmp_path):
    assert main(["fmoment", "--config", _scen("mixed.json"), "--out", str(tmp_path)]) == 1


def test_cli_couple_pass(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["couple", "--config", _scen("coupling.json"), "--out", str(out), "--paths", "500"])
    assert rc == 0
    lines = (out / "coupling.csv").read_text().splitlines()
    assert lines[0] == "t,statistic,estimate,se,target,z,pass"


def test_cli_simulate_path_dump(tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(["simulate", "--config", _scen("coupling.json"), "--out", str(out), "--paths", "50"])
    assert rc == 0
    lines = (out / "path_000.csv").read_text().splitlines()
    assert lines[0] == "t,X1,X2,xi"
    first = lines[1].split(",")
    assert [float(first[0]), float(first[1]), float(first[2]), float(first[3])] == [0.0, 1.0, 1.2, 0.0]


def test_cli_seed_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    for out in (out1, out2):
        rc = main(
            ["verify", "--config", _scen("verify.json"), "--out", str(out), "--paths", "2000", "--seed", "99"]
        )
        assert rc == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert len(os.listdir(out1)) == 4


def test_cli_failed_assertion_exit_code_2(tmp_path, capsys):
    data = json.loads((open(_scen("mixed.json"))).read())
    data["recursion_tol"] = 1e-20  # unattainably tight: residuals ~1e-14
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(data))
    rc = main(["recursion-check", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", _scen("coupling.json"), "--out", str(out1), "--paths", "200", "--seed", "1"])
    main(["simulate", "--config", _scen("coupling.json"), "--out", str(out2), "--paths", "200", "--seed", "2"])
    a = (out1 / "simulate_summary.csv").read_text()
    b = (out2 / "simulate_summary.csv").read_text()
    assert a != b


def _edited_config(tmp_path, name, edit):
    data = json.loads(open(_scen(name)).read())
    edit(data)
    p = tmp_path / f"edited_{name}"
    p.write_text(json.dumps(data, indent=2))
    return str(p)


@pytest.mark.parametrize(
    "command, edit, key",
    [
        pytest.param("couple", lambda d: d["verify"].__setitem__("coupling_k", [2.0, 5.0, 8.0]),
                     "coupling_k", id="coupling_k-three"),
        pytest.param("couple", lambda d: d["verify"].__setitem__("coupling_k", [5.0, 2.0]),
                     "coupling_k", id="coupling_k-decreasing"),
        pytest.param("couple", lambda d: d["verify"].__setitem__("coupling_k", [0.0, 2.0]),
                     "coupling_k", id="coupling_k-zero"),
        pytest.param("couple", lambda d: d.__setitem__("n_paths", -5), "n_paths", id="couple-n_paths"),
        pytest.param("verify", lambda d: d.__setitem__("n_paths", -5), "n_paths", id="verify-n_paths"),
        pytest.param("verify", lambda d: d.__setitem__("n_paths", "many"), "n_paths", id="n_paths-text"),
        pytest.param("verify", lambda d: d["verify"].__setitem__("trunc_k_list", []),
                     "trunc_k_list", id="trunc_k_list-empty"),
        pytest.param("verify", lambda d: d["verify"].__setitem__("trunc_k_list", [2.0, -4.0]),
                     "trunc_k_list", id="trunc_k_list-negative"),
    ],
)
def test_cli_rejects_bad_verify_inputs(tmp_path, capsys, command, edit, key):
    config = _edited_config(tmp_path, "verify.json", edit)
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("paths", ["-5", "0"])
def test_cli_rejects_bad_path_override(tmp_path, capsys, paths):
    rc = main(["couple", "--config", _scen("coupling.json"), "--out", str(tmp_path), "--paths", paths])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n_paths" in err


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.mark.parametrize(
    "command, name, path, value, key",
    [
        pytest.param("simulate", "mixed.json", ("x0",), ["a", 1], "x0", id="x0-text"),
        pytest.param("simulate", "mixed.json", ("x0",), [math.nan, 1], "x0", id="x0-nan"),
        pytest.param("simulate", "mixed.json", ("environment", "nu"), 5, "environment.nu",
                     id="nu-number"),
        pytest.param("simulate", "mixed.json", ("environment", "nu"),
                     [{"kind": "atom", "mass": 1e308, "z": z} for z in (0.4, 0.5)], "environment.nu",
                     id="nu-mass-overflow"),
        pytest.param("simulate", "mixed.json", ("branching", "b"), [1, 2], "branching.b",
                     id="b-flat"),
        pytest.param("laplace", "laplace.json", ("laplace", "lambda"), ["a", 1], "laplace.lambda",
                     id="lambda-text"),
        # a Laplace time below the step has no grid interval
        pytest.param("laplace", "laplace.json", ("laplace", "t"), 0.001, "laplace.t",
                     id="laplace_t-below-step"),
        pytest.param("moments", "mixed.json", ("moment_degree",), "x", "moment_degree",
                     id="moment_degree-text"),
        pytest.param("moments", "mixed.json", ("moment_degree",), 0, "moment_degree",
                     id="moment_degree-zero"),
        pytest.param("simulate", "mixed.json", ("seed",), "abc", "seed", id="seed-text"),
        pytest.param("recursion-check", "mixed.json", ("recursion_tol",), "x", "recursion_tol",
                     id="recursion_tol-text"),
        pytest.param("simulate", "mixed.json", ("output", "dump_paths"), "x", "output.dump_paths",
                     id="dump_paths-text"),
        pytest.param("simulate", "mixed.json", ("output", "dump_paths"), -1, "output.dump_paths",
                     id="dump_paths-negative"),
        pytest.param("simulate", "mixed.json", ("output",), [1], "output", id="output-list"),
        pytest.param("simulate", "mixed.json", ("truncation",), [1], "truncation",
                     id="truncation-list"),
        pytest.param("simulate", "mixed.json", ("horizon",), "inf", "horizon", id="horizon-inf"),
        # a removed key: ignoring it would silently drop the clip it names
        pytest.param("simulate", "mixed.json", ("environment", "trunc_level"), 2.5,
                     "environment.trunc_level", id="trunc_level-removed"),
        pytest.param("couple", "coupling.json", ("environment", "trunc_level"), "inf",
                     "truncation.env_rule", id="trunc_level-points-to-env_rule"),
        # a misspelled key: ignoring it would silently drop what it sets
        pytest.param("simulate", "coupling.json", ("truncation", "env_rul"),
                     {"kind": "clip_positive", "k": 1.0}, "truncation.env_rul", id="env_rul-unknown"),
        pytest.param("simulate", "coupling.json", ("environment", "sigma"), 0.9,
                     "environment.sigma", id="sigma-unknown"),
        # an error inside a truncation rule names the rule's own key path
        pytest.param("simulate", "coupling.json", ("truncation", "branching_rule"),
                     {"kind": "norm_cap", "k": "x"}, "truncation.branching_rule.k", id="rule-k-text"),
        pytest.param("simulate", "coupling.json", ("truncation", "branching_rule"),
                     {"kind": "norm_cap", "k": 2.0, "kk": 1.0}, "truncation.branching_rule.kk",
                     id="rule-kk-unknown"),
        pytest.param("simulate", "coupling.json", ("truncation", "env_rule"),
                     {"kind": "clip_positive", "k": 2.0, "kk": 1.0}, "truncation.env_rule.kk",
                     id="env_rule-kk-unknown"),
        pytest.param("simulate", "coupling.json", ("truncation", "branching_rule"), "bogus",
                     "truncation.branching_rule: unknown branching rule 'bogus'", id="rule-bogus"),
        # a side or axis is "+"/"-" or an integer, never a bool or a float equal to one
        *(pytest.param("simulate", "mixed.json", ("environment", "nu"),
                       [{"kind": "exponential", "mass": 1.0, "rate": 2.0, "side": side}],
                       "environment.nu.[0].side", id=f"side-{side}") for side in (True, 1.0, -1.0)),
        *(pytest.param("simulate", "mixed.json", ("branching", "m1"),
                       [{"kind": "exponential", "mass": 0.5, "rate": 2.0, "axis": axis}],
                       "branching.m1.[0].axis", id=f"axis-{axis}") for axis in (1.0, 2.0, True)),
    ],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, command, name, path, value, key):
    """Each input once crashed with a traceback or loaded silently; now exit 1 naming the key."""
    with open(_scen(name)) as f:
        data = json.load(f)
    _set(data, path, value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    args = [command, "--config", str(config), "--out", str(tmp_path / "o"), "--paths", "50"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def _key_paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _bundled_json(name):
    with open(os.path.join(SCENARIO_DIR, name)) as f:
        return json.load(f)


BUNDLED = {name: _bundled_json(name) for name in sorted(os.listdir(SCENARIO_DIR))}
KEY_PATHS = [(name, path) for name, data in BUNDLED.items() for path in _key_paths(data)]
NEAR_MISSES = st.sampled_from(
    ["inf", "Infinity", "-inf", "+", "-", "atom", "pareto", "exponential", "none", "norm_cap",
     "unit_square", "clip_positive", "power", "", 0, 1, 2, -1, 0.5, 1e308, 10**400]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | NEAR_MISSES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | NEAR_MISSES.map(str), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(target=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
def test_scenario_from_dict_loads_or_raises_config_error(target, value):
    """Any JSON value at any key path of a bundled scenario loads or raises ConfigError."""
    name, path = target
    data = json.loads(json.dumps(BUNDLED[name]))
    _set(data, path, value)
    try:
        sc = scenario_from_dict(data)
    except ConfigError:
        return
    back = scenario_from_dict(json.loads(dump_scenario(sc)))
    assert dump_scenario(back) == dump_scenario(sc)


DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_digests.json")


def _contract_run(kind, name, command, tmp_path):
    """Run one contract case; return its exit code and the SHA-256 of everything it produced.

    The digest covers the exit code, stdout and stderr with `tmp_path` and
    `SCENARIO_DIR` replaced by fixed tokens, and each output file's name
    and bytes in sorted order.  `kind` is "bundled" (the config as shipped)
    or "truncated" (the config restricted to its truncated system).
    """
    if kind == "bundled":
        config, out = os.path.join(SCENARIO_DIR, name), tmp_path
    else:
        config, out = _truncated_config(tmp_path, name), tmp_path / "o"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main([command, "--config", config, "--paths", "200", "--out", str(out)])

    def norm(text):
        return text.replace(str(tmp_path), "<tmp>").replace(SCENARIO_DIR, "<scenarios>")

    h = hashlib.sha256(json.dumps([rc, norm(stdout.getvalue()), norm(stderr.getvalue())]).encode())
    for f in sorted(out.iterdir()) if out.is_dir() else ():
        data = f.read_bytes()
        h.update(f"\n{f.name}\n{len(data)}\n".encode())
        h.update(data)
    return rc, h.hexdigest()


def _golden_digest(kind, name, command):
    with open(DIGESTS_PATH) as f:
        return json.load(f)[kind][f"{name} {command}"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_cli_contract_on_bundled_scenarios(tmp_path, command, name):
    """Every subcommand on every bundled scenario exits 0, 1 or 2, raises nothing,
    and produces the bytes recorded in tests/data/cli_digests.json."""
    rc, digest = _contract_run("bundled", name, command, tmp_path)
    assert rc in (0, 1, 2)
    assert digest == _golden_digest("bundled", name, command)


RESTRICTED = {"branching_rule": "unit_square", "env_rule": {"kind": "clip_positive", "k": 1.0}}


def _truncated_config(tmp_path, name, truncation=RESTRICTED, edit=lambda d: None):
    """A bundled config with a `truncation` block (default: the restricted system)."""
    def apply(data):
        data["truncation"] = truncation
        edit(data)

    return _edited_config(tmp_path, name, apply)


def test_cli_verify_martingale_on_the_truncated_system(tmp_path, capsys):
    """beta~ of the clipped environment and b~ of the kept jumps make E M(t) = x0 hold."""
    out = tmp_path / "v"
    rc = main(["verify", "--config", _truncated_config(tmp_path, "mixed.json"), "--n", "1",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "verify_martingale.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and all(row.endswith(",True") for row in rows)


def test_cli_verify_prints_report_notes(tmp_path, capsys):
    """pareto.json at n = 2 fails the order-2n hypotheses; the summary line says so."""
    args = ["verify", "--config", _scen("pareto.json"), "--n", "2", "--paths", "200",
            "--out", str(tmp_path)]
    assert main(args) in (0, 2)
    assert "moments_n2: variance-unreliable" in capsys.readouterr().out


def test_cli_laplace_on_the_clipped_environment(tmp_path, capsys):
    """An environment atom at 1.5 above the clip at 1: annealed and direct MC agree."""
    config = _truncated_config(
        tmp_path, "laplace.json", {"env_rule": {"kind": "clip_positive", "k": 1.0}},
        lambda d: d["environment"]["nu"].append({"kind": "atom", "mass": 0.5, "z": 1.5}),
    )
    assert main(["laplace", "--config", config, "--out", str(tmp_path / "o")]) == 0
    z = float(re.search(r"z = ([-+]?[0-9.]+)", capsys.readouterr().out).group(1))
    assert abs(z) < 4


def test_cli_laplace_z_with_zero_standard_errors(tmp_path, capsys):
    """One path on each side: both se are 0, and estimates that differ give an infinite z (exit 2)."""
    args = ["laplace", "--config", _scen("laplace.json"), "--paths", "1", "--out", str(tmp_path)]
    assert main(args) == 2
    out = capsys.readouterr().out
    ann, direct = (float(x) for x in re.search(r"annealed (\S+) .* direct MC (\S+) ", out).groups())
    assert "(se 0)" in out and ann != direct
    assert f"z = {'+' if ann > direct else '-'}inf" in out


@pytest.mark.parametrize("rate, command", [
    (1e-200, "moments"), (1e-200, "verify"), (1e-200, "recursion-check"), (1e-200, "simulate"),
    (1e-120, "simulate"), (1e-120, "verify"),
])
def test_cli_extreme_exponential_tail_is_an_error(tmp_path, capsys, rate, command):
    """A jump moment or drift flow beyond the float range exits 1 with one error line, no warning."""
    tail = {"kind": "exponential", "axis": 1, "mass": 0.5, "rate": rate}
    config = _edited_config(tmp_path, "mixed.json", lambda d: d["branching"].__setitem__("m1", [tail]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", config, "--paths", "20", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ExponentOverflow: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, n, code", [
    ("moments", "4", 1), ("recursion-check", "4", 1), ("verify", "4", 1), ("verify", "3", 2),
    ("simulate", "4", 0),
])
def test_cli_bounded_pareto_moment_beyond_the_float_range(tmp_path, capsys, command, n, code):
    """pareto.json capped at 1e300: its order-4 moment overflows (exit 1, one error line); order 3 runs."""
    config = _truncated_config(tmp_path, "pareto.json", {"branching_rule": {"kind": "norm_cap", "k": 1e300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", config, "--n", n, "--paths", "200", "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == code
    if code == 1:
        assert err.startswith("error: ExponentOverflow: pareto tail") and err.count("\n") == 1
    else:
        assert err == ""
    if command == "verify" and code == 2:
        assert "/4 reports pass" in out


@pytest.mark.parametrize("command, name, edit, error", [
    pytest.param("recursion-check", "mixed.json", lambda d: d["environment"]["nu"].append(
        {"kind": "pareto", "mass": 0.1, "alpha": 3.0, "x0": 1.5}), "HypothesisViolated", id="env-pareto"),
    pytest.param("simulate", "pareto.json", lambda d: d["branching"]["m2"][1].__setitem__("x0", 1e200),
                 "MassOverflow", id="tail-cutoff-1e200"),
])
def test_cli_edge_config_is_one_error_line(tmp_path, command, name, edit, error):
    """No feasible moment degree, or tail jumps of at least 1e200: exit 1 with one error line.

    The run is a subprocess with a timeout, so a run that does not finish fails the test.
    """
    config = _edited_config(tmp_path, name, edit)
    args = [command, "--config", config, "--paths", "5", "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-m", "cbre2", *args], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {error}: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name, z, cause", [
    pytest.param("env_only.json", 400.0, "a state leaves the float range", id="env_only"),
    pytest.param("mixed.json", 400.0, "the branching event count with it exceeds the safety cap",
                 id="mixed"),
    pytest.param("mixed.json", 800.0, "a state leaves the float range", id="mixed-rate"),
])
def test_cli_environment_overflow_is_one_error_line(tmp_path, capsys, name, z, cause):
    """An environment atom at z (mass 2) lifts states by e^z per jump: at z = 400, env_only.json
    overflows at a path's second jump, and on mixed.json the first jump drives the event count
    past its cap; at z = 800 mixed.json's branching rate leaves the float range at the first
    jump.  Each exits 1 with one ExponentOverflow line, no warning and no output directory."""
    config = _edited_config(tmp_path, name, lambda d: d["environment"].__setitem__(
        "nu", [{"kind": "atom", "mass": 2.0, "z": z}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", config, "--paths", "50", "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ExponentOverflow: the environment multiplier e^xi reaches e^")
    assert err.rstrip().endswith(cause)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mass, z", [
    pytest.param(3.0, 50.0, id="after-the-quenched-file"),
    pytest.param(2.0, 400.0, id="overflowing-phi"),
])
def test_cli_laplace_divergence_is_one_error_line(tmp_path, capsys, mass, z):
    """An environment atom that the annealed Laplace solve cannot step over: laplace.json's
    quenched path at its seed has no jump, so the quenched solve succeeds and the annealed one
    fails.  At z = 400, phi overflows on the way.  Exit 1 with one FixedPointDivergence line, no
    warning, and no output directory, so no laplace.csv of the quenched solve is left behind."""
    config = _edited_config(tmp_path, "laplace.json", lambda d: d["environment"].__setitem__(
        "nu", [{"kind": "atom", "mass": mass, "z": z}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["laplace", "--config", config, "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: FixedPointDivergence: ")
    assert not (tmp_path / "o").exists()


def test_cli_laplace_rejects_a_branching_rule(tmp_path, capsys):
    config = _truncated_config(tmp_path, "laplace.json", {"branching_rule": "unit_square"})
    assert main(["laplace", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "truncation.branching_rule" in err


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_cli_recursion_check_checks_the_table_moments_prints(tmp_path, capsys):
    config = _truncated_config(tmp_path, "mixed.json")
    args = ["--config", config, "--n", "3", "--out", str(tmp_path / "o")]
    assert main(["moments", *args]) == 0
    assert main(["recursion-check", *args]) == 0
    printed = {(t, p, q): float(v) for t, p, q, v, _ in _csv_rows(tmp_path / "o" / "moments.csv")}
    rows = _csv_rows(tmp_path / "o" / "recursion_check.csv")
    assert len(rows) == 8
    for t, n, type_index, lhs, _, residual in rows:
        key = (t, n, "0") if type_index == "1" else (t, "0", n)
        assert float(lhs) == pytest.approx(printed[key], rel=1e-10)
        assert float(residual) < 1e-10


def test_cli_moments_unit_square_is_norm_cap_one_on_axis_tails(tmp_path, capsys):
    """On pareto.json both rules keep the atoms and no tail mass: the same finite table."""
    bodies = []
    for rule in ("unit_square", {"kind": "norm_cap", "k": 1.0}):
        out = tmp_path / str(len(bodies))
        config = _truncated_config(tmp_path, "pareto.json", {"branching_rule": rule})
        assert main(["moments", "--config", config, "--n", "3", "--out", str(out)]) == 0
        bodies.append((out / "moments.csv").read_bytes())
    assert bodies[0] == bodies[1]
    assert all(row[-1] == "True" for row in _csv_rows(out / "moments.csv"))


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_cli_contract_on_truncated_bundled_scenarios(tmp_path, command, name):
    """The same contract on each bundled scenario restricted to its truncated system."""
    rc, digest = _contract_run("truncated", name, command, tmp_path)
    assert rc in (0, 1, 2)
    assert digest == _golden_digest("truncated", name, command)


if __name__ == "__main__":
    # Rewrites tests/data/cli_digests.json from the current code: run
    # `PYTHONPATH=src python -m tests.test_scenario_cli` from the repository
    # root, only for a deliberate change of the outputs, declared in CHANGES.md.
    digests = {}
    for kind in ("bundled", "truncated"):
        digests[kind] = {}
        for name in sorted(os.listdir(SCENARIO_DIR)):
            for command in SUBCOMMANDS:
                with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True):
                    _, digests[kind][f"{name} {command}"] = _contract_run(
                        kind, name, command, pathlib.Path(tmp)
                    )
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
