"""The scripts run from a plain checkout, with no PYTHONPATH set."""

import json
import os
import pathlib
import shutil
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


# the refactor oracle itself: the writer runs every recipe and workload
# call, each call exits 0, every report's timestamp is blanked, a snapshot
# compares equal to itself, and its JSON reports compare with the golden
# ones under tests/golden without a problem: a changed verdict, tolerance
# or scenario parameter fails, and digit drift is only printed.  A change
# that moves a verdict or a tolerance on purpose writes a fresh snapshot
# and copies its JSON reports over tests/golden
def test_snapshot_writer_runs_and_compares_equal_to_itself(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(ROOT / "scripts" / "snapshot_outputs.py")

    def compare(old, new):
        return subprocess.run([sys.executable, script, "--compare", str(old),
                               str(new)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)

    snap = tmp_path / "snap"
    done = subprocess.run([sys.executable, script, str(snap)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    # first against the golden, so that a flipped verdict names its check
    reports = tmp_path / "reports"
    for path in snap.rglob("*.json"):
        copy = reports / path.relative_to(snap)
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, copy)
    done = compare(ROOT / "tests" / "golden", reports)
    print(done.stdout)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("59 files: ")
    stdouts = sorted(snap.rglob("*.stdout"))
    assert len(stdouts) == 53
    for path in stdouts:
        assert path.read_text(encoding="utf-8").startswith("exit 0\n"), path
    for path in snap.rglob("*.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        if "checks" in report:
            assert report["timestamp"] == "", path
    done = compare(snap, snap)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 differ, 0 problems" in done.stdout
