"""cbre2 loads no scipy module at run time; scipy is a reference in the tests only.

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

PARETO_RUNS = """
import json, sys
import numpy as np
import cbre2
from cbre2.branching import BranchingSpec, phi_eval
from cbre2.measures import AxisTail, JumpMeasure, JumpMeasure1D, Tail1D
from cbre2.scenario import load_scenario

sc = load_scenario(sys.argv[1])
path = cbre2.sample_env_path(sc.environment, 0.5, sc.step, np.random.default_rng(5))
assert np.isfinite(cbre2.quenched_laplace(path, sc.branching, (0.7, 0.4), 0.5).v).all()
tails = [AxisTail(1, "pareto", 0.5, 2.5, 1.0), AxisTail(2, "pareto", 0.3, 1.5, 0.4)]
spec = BranchingSpec(m1=JumpMeasure(tails=tails), m2=JumpMeasure(tails=tails))
for lam in ((0.7, 0.4), (30.0, 8.0), (1e-9, 0.0)):  # the series, Gauss-Laguerre, a tiny rate
    assert np.isfinite(phi_eval(spec, lam)).all()
env_tail = JumpMeasure1D(tails=[Tail1D("pareto", 0.5, 0.2, 1.0, side=-1)])
assert np.isfinite(env_tail.exp_integral(2.0))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


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


def test_moment_layer_on_every_config_loads_no_scipy(tmp_path):
    """moments, recursion-check and verify on all nine bundled configs, tails included."""
    assert len(CONFIGS) == 9
    proc = _run(["-c", MOMENT_RUNS, str(tmp_path / "out"), *CONFIGS], tmp_path)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_pareto_phi_loads_no_scipy(tmp_path):
    """The quenched Laplace solve on pareto.json, phi on Pareto axis tails (both E-function
    branches) and a Pareto environment tail's exponent: E_p is numpy's."""
    config = next(p for p in CONFIGS if p.endswith("/pareto.json"))
    proc = _run(["-c", PARETO_RUNS, config], tmp_path)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
