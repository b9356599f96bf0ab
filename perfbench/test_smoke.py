"""Smoke test of the benchmark itself, at tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced with `--tiny`, and checks that
each metric BENCHMARK.json names appears with its unit, that every
operation passes its output check, that the traced reports equal the
untraced ones, and that span self times plus unattributed time add up to
the traced wall time.  Takes about a minute.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record "):])
    return json.loads(lines[-1]), record


def _assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        if "unit" in m:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracer.PER_LAYER_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, record = _parse(_bench("--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", "0",
                                   "--tiny"))
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == len(
        workloads.inputs(workload, 3, tiny=True).ops) * len(record["runs"])
    assert len(record["setup_s"]) >= 3
    assert record["environment"]["inputs"]["seed"] == 3
    _assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    result, record = _parse(_bench("--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", "1",
                                   "--tiny"))
    # correct also means every traced report equals the untraced one
    assert result["correct"], record["problems"]
    _assert_metrics(result, SPEC["per_layer"])
    assert record["layers_per_run"]
    for m in record["layers_per_run"]:
        assert m["cli.runs"] == len(workloads.inputs(workload, 3, True).ops)
        total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
        total += m["tracer.unattributed_s"]
        assert total == pytest.approx(m["tracer.wall_s"], rel=1e-9,
                                      abs=1e-9)
        assert m["tracer.unattributed_s"] >= 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


_ATTRIBUTES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import divlab.cli as cli
import divlab.fields as fields
tracer.install(tracer.Tracer())
out = {}
for name in ("twisting:levels=3", "capillary:R=1", "stream:bump",
             "counterexample:n=4:gamma=auto"):
    out[name] = [sorted(k for k in sys.argv[2:] if hasattr(f, k))
                 for f in (fields.get_field(name), cli.get_field(name))]
print(json.dumps(out))
"""


def test_traced_fields_keep_dispatch_attributes():
    # trace, blowup and cli pick specialised paths by these attributes
    names = ["balls", "max_level", "calibration", "profile", "disk_radius",
             "psi", "potential", "gamma"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _ATTRIBUTES, HERE, *names],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    for name, (plain, traced) in found.items():
        assert plain == traced, name
    assert any(plain for plain, _ in found.values())
