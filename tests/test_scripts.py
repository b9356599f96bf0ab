"""The scripts run from a plain checkout, with no PYTHONPATH set."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_acceptance.py", "--only", "separable-blowup"],
    ["tube_refinement.py", "--help"],
])
def test_script_imports_divlab_from_the_checkout(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
