"""`scripts/snapshot_outputs.py --compare`: a digit change is judged by each
check's own tolerance, and any change of checks, verdicts or text fails."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def snapshots():
    spec = importlib.util.spec_from_file_location(
        "snapshot_outputs", ROOT / "scripts" / "snapshot_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(name, value, verdict, margin=0.0, tolerance=0.0, detail=""):
    return {"name": name, "value": value, "verdict": verdict,
            "margin": margin, "tolerance": tolerance, "detail": detail}


def _write(root: pathlib.Path, checks, column, exit_line="exit 0",
           scenario="s"):
    d = root / "recipes"
    d.mkdir(parents=True)
    report = {"checks": checks, "environment": {"seed": 1},
              "scenario": scenario, "timestamp": "", "verdict": "PASS"}
    (d / "r.json").write_text(json.dumps(report), encoding="utf-8")
    rows = "".join(f"{k},{v!r},label\n" for k, v in enumerate(column))
    (d / "r-t.csv").write_text("k,value,name\n" + rows, encoding="utf-8")
    (d / "r.stdout").write_text(f"{exit_line}\nverdict: PASS\n",
                                encoding="utf-8")
    (d / "c-certificate.json").write_text(
        json.dumps({"label": "c", "constants": [2.0, column[-1]]}),
        encoding="utf-8")
    return root


OLD_CHECKS = [_check("defect", 4e-4, "PASS", margin=9.6e-3, tolerance=1e-2),
              _check("mass", 0.02, "INFO", detail="decay exponent 1.000")]


def test_a_snapshot_compared_with_itself_reports_no_drift(snapshots,
                                                          tmp_path):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0])
    lines, problems = snapshots.compare(old, old)
    assert problems == 0
    assert lines == ["4 files: 4 identical, 0 differ, 0 problems"]


def test_digit_drift_is_measured_against_each_margin(snapshots, tmp_path):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0])
    new = _write(tmp_path / "new", [
        _check("defect", 4.96e-4, "PASS", margin=9.504e-3, tolerance=1e-2),
        _check("mass", 0.021, "INFO", detail="decay exponent 1.100")],
        [1.0, 2.5])
    lines, problems = snapshots.compare(old, new)
    assert problems == 0
    text = "\n".join(lines)
    assert "|delta| 9.6e-05 = 0.01 of margin 0.0096" in text
    assert "info mass: 0.02 -> 0.021, relative drift 0.05" in text
    assert "'decay exponent 1.000' -> 'decay exponent 1.100'" in text
    assert "column value: largest relative drift 0.25" in text
    assert "largest relative drift 0.25 at /constants/1" in text
    assert "column k" not in text and "column name" not in text
    assert text.endswith("4 files: 1 identical, 3 differ, 0 problems")


# a report written before checks had an error term reads as error 0: a
# check that gains the key is no problem, and a changed error is printed
# against the check's margin, as a value drift is
def test_a_gained_or_changed_error_is_printed_against_the_margin(
        snapshots, tmp_path):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0])
    gained = [dict(c, error=0.0) for c in OLD_CHECKS]
    same = _write(tmp_path / "same", gained, [1.0, 2.0])
    lines, problems = snapshots.compare(old, same)
    assert problems == 0
    assert not any("error of" in line for line in lines)
    gained[0]["error"] = 4.8e-4
    new = _write(tmp_path / "new", gained, [1.0, 2.0])
    lines, problems = snapshots.compare(same, new)
    assert problems == 0
    assert "  error of defect: 0.0 -> 0.00048 = 0.05 of margin 0.0096" \
        in lines
    assert lines[-1] == "4 files: 3 identical, 1 differ, 0 problems"


@pytest.mark.parametrize("checks,exit_line,problem", [
    (OLD_CHECKS + [_check("estimate", 1e-5, "PASS", margin=9e-5)],
     "exit 0", "new check 'estimate' (PASS)"),
    (OLD_CHECKS[1:], "exit 0", "check 'defect' (PASS) is gone"),
    ([_check("defect", 4e-4, "FAIL", margin=9.6e-3), OLD_CHECKS[1]],
     "exit 1", "verdict PASS -> FAIL"),
    (OLD_CHECKS[::-1], "exit 0", "the checks changed order"),
], ids=["added-check", "removed-check", "changed-verdict", "reordered"])
def test_a_changed_check_list_or_verdict_is_a_problem(
        snapshots, tmp_path, checks, exit_line, problem):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0])
    new = _write(tmp_path / "new", checks, [1.0, 2.0], exit_line)
    lines, problems = snapshots.compare(old, new)
    assert problems >= 1
    assert any(problem in line for line in lines)


# a moved margin is printed as drift, as a moved value is; a changed
# tolerance moves the contract and is a problem
def test_a_moved_margin_is_printed_and_a_changed_tolerance_is_a_problem(
        snapshots, tmp_path):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0])
    moved = _write(tmp_path / "moved",
                   [dict(OLD_CHECKS[0], margin=9.5e-3), OLD_CHECKS[1]],
                   [1.0, 2.0])
    lines, problems = snapshots.compare(old, moved)
    assert problems == 0
    assert "  margin of defect: 0.0096 -> 0.0095, relative drift 0.0104" \
        in lines
    assert lines[-1] == "4 files: 3 identical, 1 differ, 0 problems"
    retol = _write(tmp_path / "retol",
                   [dict(OLD_CHECKS[0], tolerance=2e-2), OLD_CHECKS[1]],
                   [1.0, 2.0])
    lines, problems = snapshots.compare(old, retol)
    assert problems == 1
    assert "  PROBLEM check 'defect': tolerance 0.01 -> 0.02" in lines


# the scenario a report echoes is its input, parsed from its JSON text: a
# parameter on one side only, or a changed one, is a problem that names
# the parameter
SCENARIO = {"field": "stream:bump", "operation": "strip-identity",
            "params": {"at": ["5,3", "2,1"], "rtol": 1e-10},
            "tolerances": {}}


@pytest.mark.parametrize("params,problem", [
    ({"at": ["5,3", "2,1"]}, "/scenario/params/rtol only in OLD"),
    ({"at": ["5,3", "2,1"], "rtol": 1e-10, "seed": 3},
     "/scenario/params/seed only in NEW"),
    ({"at": ["5,3", "2,1"], "rtol": 1e-9},
     "/scenario/params/rtol: 1e-10 -> 1e-09"),
    ({"at": ["5,3"], "rtol": 1e-10}, "/scenario/params/at/1 only in OLD"),
], ids=["dropped", "gained", "changed", "shorter-list"])
def test_each_scenario_parameter_is_compared(snapshots, tmp_path, params,
                                             problem):
    old = _write(tmp_path / "old", OLD_CHECKS, [1.0, 2.0],
                 scenario=json.dumps(SCENARIO))
    new = _write(tmp_path / "new", OLD_CHECKS, [1.0, 2.0],
                 scenario=json.dumps(dict(SCENARIO, params=params)))
    lines, problems = snapshots.compare(old, new)
    assert problems == 1
    assert lines == ["recipes/r.json:", f"  PROBLEM {problem}",
                     "4 files: 3 identical, 1 differ, 1 problems"]
