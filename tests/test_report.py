"""Check and report plumbing: verdict logic, serialization, environment."""

import json

import pytest
from hypothesis import given, strategies as st

from divlab.report import (CheckResult, VerificationReport, FAIL, INCONCLUSIVE,
                           INFO, PASS, SKIPPED)


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


@given(margin=finite, tol=st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False))
def test_from_margin_verdict(margin, tol):
    c = CheckResult.from_margin("m", 0.0, tol, margin)
    assert c.verdict == (PASS if margin >= -tol else FAIL)


@given(residual=finite, tol=st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False))
def test_from_residual_verdict(residual, tol):
    c = CheckResult.from_residual("r", residual, tol)
    assert c.verdict == (PASS if abs(residual) <= tol else FAIL)
    assert c.margin == tol - abs(residual)


def test_margin_boundary_is_a_pass():
    assert CheckResult.from_margin("edge", 0.0, 1e-12, -1e-12).verdict == PASS


NAN = float("nan")


# a NaN value, margin (or tolerance) or error decides nothing: it reads
# INCONCLUSIVE from both constructors, never PASS (a NaN read FAIL before
# the gates had an error term)
@pytest.mark.parametrize("value, bound, error", [
    (NAN, 1.0, 0.0), (0.0, NAN, 0.0), (0.0, 1.0, NAN), (NAN, NAN, NAN)])
def test_nan_is_never_a_pass(value, bound, error):
    assert CheckResult.from_margin("m", value, 0.0, bound,
                                   error=error).verdict == INCONCLUSIVE
    assert CheckResult.from_residual("r", value, bound,
                                     error=error).verdict == INCONCLUSIVE


# the error widens the undecided band on both sides of the gate: PASS
# needs slack >= error, FAIL slack < -error
@pytest.mark.parametrize("slack, error, verdict", [
    (0.5, 0.0, PASS), (-0.5, 0.0, FAIL), (0.0, 0.0, PASS),
    (0.5, 0.5, PASS), (0.5, 0.6, INCONCLUSIVE), (-0.5, 0.6, INCONCLUSIVE),
    (-0.5, 0.5, INCONCLUSIVE), (-0.5, 0.4, FAIL), (0.0, 1e-300, INCONCLUSIVE)])
def test_an_error_wider_than_the_slack_is_undecided(slack, error, verdict):
    margin = CheckResult.from_margin("m", 1.0, 0.25, slack - 0.25,
                                     error=error)
    residual = CheckResult.from_residual("r", 1.0 - slack, 1.0, error=error)
    assert margin.verdict == residual.verdict == verdict
    assert margin.error == residual.error == error
    assert residual.margin == slack


def test_every_check_serializes_its_error():
    rep = VerificationReport(scenario="e")
    rep.add(CheckResult.from_margin("m", 1.0, 0.0, 1.0, error=0.25))
    rep.add(CheckResult.from_residual("r", 0.1, 1.0, error=2.0))
    rep.add(CheckResult.from_residual("plain", 0.1, 1.0))
    rep.add(CheckResult.info("i", 3.0))
    rep.add(CheckResult.skipped("s"))
    checks = json.loads(rep.to_json())["checks"]
    assert [c["error"] for c in checks] == [0.25, 2.0, 0.0, 0.0, 0.0]
    assert [c["verdict"] for c in checks] == [PASS, INCONCLUSIVE, PASS, INFO,
                                              SKIPPED]


def test_report_verdict_aggregation():
    rep = VerificationReport(scenario="agg")
    rep.add(CheckResult.from_margin("ok", 0.0, 0.0, 1.0))
    rep.add(CheckResult.info("note", 3.0))
    rep.add(CheckResult.skipped("later", "missing input"))
    assert rep.verdict == PASS
    rep.add(CheckResult.from_margin("bad", 0.0, 0.0, -1.0))
    assert rep.verdict == FAIL


def test_info_and_skipped_do_not_decide():
    rep = VerificationReport(scenario="quiet")
    rep.add(CheckResult.info("just a number", 1.0))
    rep.add(CheckResult.skipped("not run", ""))
    assert rep.verdict == INCONCLUSIVE
    assert VerificationReport(scenario="empty").verdict == INCONCLUSIVE


def test_an_undecided_check_keeps_the_report_from_passing():
    rep = VerificationReport(scenario="undecided")
    rep.add(CheckResult.from_margin("ok", 0.0, 0.0, 1.0))
    rep.add(CheckResult("within the sampling error", 0.5, 0.5, 0.0,
                        INCONCLUSIVE))
    assert rep.verdict == INCONCLUSIVE
    rep.add(CheckResult.from_margin("bad", 0.0, 0.0, -1.0))
    assert rep.verdict == FAIL


def test_to_json_is_sorted_and_stable():
    rep = VerificationReport(scenario="s", environment={"seed": 7})
    rep.add(CheckResult.from_margin("a", 1.0, 0.5, 0.25, detail="d"))
    d = json.loads(rep.to_json())
    assert set(d) == {"scenario", "checks", "environment", "timestamp",
                      "verdict"}
    assert d["environment"]["seed"] == 7
    assert d["environment"]["precision"] == "float64"
    assert rep.to_json() == rep.to_json()


def test_write_appends_newline(tmp_path):
    rep = VerificationReport(scenario="w")
    out = tmp_path / "rep.json"
    rep.write(out)
    assert out.read_text().endswith("\n")


def test_timestamp_is_utc_iso():
    rep = VerificationReport(scenario="t")
    assert rep.timestamp.endswith("+00:00") or rep.timestamp.endswith("Z")


# the serialized form of every kind of check, pinned as text: a report
# written from the record's own fields must spell it the same way
_PINNED_JSON = """{
  "checks": [
    {
      "detail": "lhs=rhs",
      "error": 0.125,
      "margin": 0.75,
      "name": "residual",
      "tolerance": 1.0,
      "value": 0.25,
      "verdict": "PASS"
    },
    {
      "detail": "",
      "error": 0.0,
      "margin": -1.0,
      "name": "margin",
      "tolerance": 0.5,
      "value": 2.0,
      "verdict": "FAIL"
    },
    {
      "detail": "",
      "error": 0.0,
      "margin": NaN,
      "name": "undecided",
      "tolerance": 1.0,
      "value": NaN,
      "verdict": "INCONCLUSIVE"
    },
    {
      "detail": "informational",
      "error": 0.0,
      "margin": 0.0,
      "name": "note",
      "tolerance": 0.0,
      "value": 1.5,
      "verdict": "INFO"
    },
    {
      "detail": "no input",
      "error": 0.0,
      "margin": 0.0,
      "name": "skipped",
      "tolerance": 0.0,
      "value": 0.0,
      "verdict": "SKIPPED"
    }
  ],
  "environment": {
    "precision": "float64",
    "seed": 3
  },
  "scenario": "demo",
  "timestamp": "2026-01-02T03:04:05+00:00",
  "verdict": "FAIL"
}"""


def test_to_json_text_of_every_kind_of_check():
    rep = VerificationReport(scenario="demo", environment={"seed": 3},
                             timestamp="2026-01-02T03:04:05+00:00")
    rep.add(CheckResult.from_residual("residual", 0.25, 1.0,
                                      detail="lhs=rhs", error=0.125))
    rep.add(CheckResult.from_margin("margin", 2.0, 0.5, -1.0))
    rep.add(CheckResult.from_residual("undecided", float("nan"), 1.0))
    rep.add(CheckResult.info("note", 1.5, detail="informational"))
    rep.add(CheckResult.skipped("skipped", "no input"))
    assert rep.to_json() == _PINNED_JSON
