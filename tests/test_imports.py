"""scipy stays off the import path: only the phi of Pareto tails loads it (scipy.special).

Each check runs a fresh interpreter, so modules loaded by this test session
do not count.
"""

import glob
import os
import subprocess
import sys

import cbre2

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cbre2.__file__)))
CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(cbre2.__file__), "scenarios", "*.json")))

ENGINE_RUNS = """
import json, sys
from cbre2.cli import main
from cbre2.scenario import load_scenario

out = sys.argv[1]
for path in sys.argv[2:]:
    sc = load_scenario(path)
    assert main(["simulate", "--config", path, "--paths", "200", "--out", out]) == 0
    for command, block in (("couple", sc.coupling_k), ("laplace", sc.laplace_lambda),
                           ("fmoment", sc.fmoment_function)):
        if block is not None:
            assert main([command, "--config", path, "--paths", "200", "--out", out]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

MOMENT_RUNS = """
import json, sys
from cbre2.cli import main

out = sys.argv[1]
for path in sys.argv[2:]:
    for command in ("moments", "recursion-check", "verify"):
        assert main([command, "--config", path, "--paths", "200", "--out", out]) in (0, 2)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""
ATOM_ONLY = [p for p in CONFIGS if not any(
    tail in open(p).read() for tail in ('"pareto"', '"exponential"'))]


def _run(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_load_simulate_and_couple_load_no_scipy(tmp_path):
    assert len(CONFIGS) == 9
    proc = _run(["-c", ENGINE_RUNS, str(tmp_path / "out"), *CONFIGS], tmp_path)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_moments_cli_loads_no_quadrature(tmp_path):
    config = next(p for p in CONFIGS if p.endswith("mixed.json"))
    proc = _run(
        ["-X", "importtime", "-m", "cbre2", "moments", "--config", config, "--n", "3",
         "--out", str(tmp_path / "out")],
        tmp_path,
    )
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "scipy.linalg" not in modules  # expm is cbre2._util.expm
    assert not any(m.startswith("scipy.integrate") for m in modules)
    assert (tmp_path / "out" / "moments.csv").exists()


def test_moment_layer_on_atom_only_configs_loads_no_scipy(tmp_path):
    """moments, recursion-check and verify on every bundled config without a tail measure."""
    assert len(ATOM_ONLY) == 6 and any(p.endswith("mixed.json") for p in ATOM_ONLY)
    proc = _run(["-c", MOMENT_RUNS, str(tmp_path / "out"), *ATOM_ONLY], tmp_path)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
