"""Every demo runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize(
    "demo",
    [
        "01_environment.py",
        "02_branching_mechanism.py",
        "03_simulation.py",
        "04_exact_moments.py",
        "05_recursion_crosscheck.py",
        "06_truncation_coupling.py",
        "07_fmoment_classifier.py",
        "08_quenched_laplace.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
