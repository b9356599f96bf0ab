"""Structured verification records shared by every module.

A report is a bundle of checks.  Each check carries the measured value,
the tolerance it was held to, the signed margin (nonnegative means
satisfied), the error of the gated quantity (an achieved quadrature or
ODE bound, or a sampling error), and a verdict that one rule (`_gate`)
decides.  The library leaves a report's scenario empty; `cli.run` writes
it, as the echo of the resolved command.  Reports serialize to JSON from
their declared fields, deterministically: byte-identical between two runs
of one scenario and seed apart from the timestamp.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import asdict, dataclass, field

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INFO = "INFO"
INCONCLUSIVE = "INCONCLUSIVE"


def _gate(value: float, slack: float, error: float) -> str:
    """PASS when the gate holds with error to spare (slack >= error), FAIL
    when it fails by more (slack < -error), else INCONCLUSIVE, also when
    the value, the slack or the error is NaN."""
    if math.isnan(value):
        return INCONCLUSIVE
    if slack >= error:
        return PASS
    return FAIL if slack < -error else INCONCLUSIVE


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    margin: float
    verdict: str
    detail: str = ""
    error: float = 0.0

    @staticmethod
    def from_margin(name: str, value: float, tolerance: float, margin: float,
                    detail: str = "", error: float = 0.0) -> "CheckResult":
        """Margin check margin >= -tolerance: slack margin + tolerance."""
        return CheckResult(name, float(value), float(tolerance), float(margin),
                           _gate(value, margin + tolerance, error), detail,
                           float(error))

    @staticmethod
    def from_residual(name: str, residual: float, tolerance: float,
                      detail: str = "", error: float = 0.0) -> "CheckResult":
        """Residual check |residual| <= tolerance: slack tolerance - |r|."""
        slack = tolerance - abs(float(residual))
        return CheckResult(name, float(residual), float(tolerance), slack,
                           _gate(residual, slack, error), detail, float(error))

    @staticmethod
    def info(name: str, value: float, detail: str = "") -> "CheckResult":
        """Informational record; never gates the report verdict."""
        return CheckResult(name, float(value), 0.0, 0.0, INFO, detail)

    @staticmethod
    def skipped(name: str, detail: str = "") -> "CheckResult":
        return CheckResult(name, 0.0, 0.0, 0.0, SKIPPED, detail)


@dataclass
class VerificationReport:
    scenario: str = ""
    checks: list[CheckResult] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.datetime.now(
                datetime.timezone.utc).isoformat()
        self.environment.setdefault("precision", "float64")

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def verdict(self) -> str:
        """FAIL if a check failed, else INCONCLUSIVE if a check could not
        decide, else PASS if one passed: INFO and SKIPPED records alone
        check nothing and give INCONCLUSIVE."""
        verdicts = {c.verdict for c in self.checks}
        if FAIL in verdicts:
            return FAIL
        if INCONCLUSIVE in verdicts:
            return INCONCLUSIVE
        return PASS if PASS in verdicts else INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "timestamp": self.timestamp,
            "verdict": self.verdict,
            "checks": [asdict(c) for c in self.checks],
            "environment": self.environment,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
