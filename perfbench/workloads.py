"""The four benchmark workloads: CLI argument lists and output checks.

Inputs are fixed here, not read from the program, so that a change to the
program's recipe catalog cannot change what the benchmark measures.  The
benchmark seed feeds `--seed` of every Monte Carlo operation and picks the
rim angle of the capillary blow-up and sampling probes; `tube` has no
random input and ignores it.

Only the standard library is imported: the worker loads this module before
its set-up clock stops.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("tube", "blowup", "sampling", "catalog")

# Run sizes: each workload run takes a few seconds, so that one 30 s
# measurement holds several runs and its median is steady on a shared host.
SAMPLES = 250_000
BLOWUP_RADII = "0.25,0.125,0.0625"
BLOWUP_RTOL = "1e-6"
TUBE_SEEDS = 32
# the program gates every tube level at --residual-tol; 32^2 sits near 1e-5,
# so the gate is opened there and the 64^2 level is checked here instead
TUBE_PROGRAM_TOL = "1e-4"
TUBE_RESIDUAL_MAX = 1e-6
TUBE_REFINE_MIN = 4.0
BLOWUP_DEFECT_MAX = 1e-2
NALPHA_RATIO_MAX = 1e-2
AP_LIM_CONFIRMED = "AP_LIM_CONFIRMED"
AP_LIM_REJECTED = "AP_LIM_REJECTED"

# operations whose subcommand accepts --seed
_SEEDED = ("certify", "trace", "density", "aplim", "nalpha",
           "demo jensen", "demo quadratic")

# the catalog recipes at the commit that introduced the benchmark, minus
# flow-tube-stream-bump, which is the `tube` workload
CATALOG = (
    ("certify-counterexample",
     ["certify", "--field", "counterexample:n=4:gamma=auto", "--c", "1"]),
    ("gamma-violation",
     ["certify", "--field", "counterexample:n=4:gamma=1", "--c", "1",
      "--expect", "violated"]),
    ("strip-identity-stream-bump",
     ["strip-identity", "--field", "stream:bump", "--at", "5,3",
      "--at", "2,1"]),
    ("twisting-pairing",
     ["trace", "--field", "twisting:levels=8", "--method", "pairing",
      "--omega", "unit-square", "--bumps", "10"]),
    ("twisting-oscillation",
     ["trace", "--field", "twisting:levels=12", "--method", "ball",
      "--x0", "0.3333333333333333,0", "--radii", "auto",
      "--expect", "oscillating"]),
    ("twisting-aplim",
     ["aplim", "--field", "twisting:levels=8",
      "--x0", "0.3333333333333333,0", "--w", "0,0", "--alphas", "0.5",
      "--expect", "rejected"]),
    ("capillary-verticality",
     ["trace", "--field", "capillary:R=1", "--method", "all", "--x0", "1,0",
      "--rho", "0.1", "--expect", "value", "--value", "1"]),
    ("capillary-aplim",
     ["aplim", "--field", "capillary:R=1", "--x0", "1,0", "--w", "nu",
      "--alphas", "0.2,0.1,0.05", "--expect", "confirmed"]),
    ("capillary-nalpha",
     ["nalpha", "--field", "capillary:R=1", "--x0", "1,0",
      "--alpha", "0.2"]),
    ("twisting-blowup",
     ["blowup", "--field", "twisting:levels=8", "--x0", "0.5,0"]),
    ("jensen-mollification", ["demo", "jensen"]),
    ("separable-blowup",
     ["demo", "separable", "--gamma", "1", "--rho0", "1", "--psi0", "1"]),
    ("quadratic-inequality", ["demo", "quadratic", "--samples", "10000"]),
    ("potential-roundtrip",
     ["demo", "roundtrip", "--n", "4", "--gamma", "auto"]),
)

# registry fields the catalog builds; counterexample:n=4:gamma=1 is left
# out because only its potential exists (its amplitude breaks the bounds)
CATALOG_FIELDS = ("counterexample:n=4:gamma=auto", "stream:bump",
                  "twisting:levels=8", "twisting:levels=12", "capillary:R=1")
TINY_CATALOG_FIELDS = ("counterexample:n=4:gamma=auto", "twisting:levels=8")

# cheap catalog entries for the smoke test: every layer but the ODE-heavy
# flow tube, in well under a second each
_TINY_CATALOG = ("certify-counterexample", "twisting-aplim",
                 "jensen-mollification", "separable-blowup",
                 "quadratic-inequality")

# a check reads the written report (and the out directory) and returns a
# problem description, or None when the output is right
Check = Callable[[dict, str, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checks on its outputs."""
    name: str
    argv: tuple
    checks: tuple = ()


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    program_seed: Optional[int]
    rim_angle: Optional[float]
    fields: tuple
    ops: tuple

    def record(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "program_seed": self.program_seed,
                "rim_angle": self.rim_angle,
                "fields": list(self.fields),
                "ops": [[op.name, *op.argv] for op in self.ops]}


def _derive(seed: int) -> tuple[int, float]:
    rng = random.Random(seed)
    return rng.randrange(2 ** 31), rng.uniform(0.0, 2.0 * math.pi)


def _seeded(argv, seed: int) -> list:
    head = " ".join(argv[:2]) if argv[0] == "demo" else argv[0]
    return list(argv) + (["--seed", str(seed)] if head in _SEEDED else [])


def inputs(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """Operations of one workload run; `tiny` shrinks them for the smoke test."""
    if workload == "tube":
        argv = ("flow-tube", "--field", "stream:bump", "--h0", "1.95",
                "--seeds", str(TUBE_SEEDS), "--refine",
                "--residual-tol", TUBE_PROGRAM_TOL)
        checks = (_tube_check,)
        if tiny:
            # an 8^2 tube is far from converged: loosen the program's own
            # tolerances so that the smoke test sees passing output
            argv = argv[:5] + ("--seeds", "8", "--refine", "--residual-tol",
                               "1e-3", "--refine-factor", "0.1")
            checks = ()
        return Inputs(workload, seed, None, None, ("stream:bump",),
                      (Op("flow-tube-stream-bump", argv, checks),))

    program_seed, angle = _derive(seed)
    if workload == "catalog":
        ops = tuple(Op(name, tuple(_seeded(argv, program_seed)))
                    for name, argv in CATALOG
                    if not tiny or name in _TINY_CATALOG)
        return Inputs(workload, seed, program_seed, None,
                      TINY_CATALOG_FIELDS if tiny else CATALOG_FIELDS, ops)

    # one token: a value starting with "-" would read as an option
    x0 = f"--x0={math.cos(angle)!r},{math.sin(angle)!r}"
    if workload == "blowup":
        argv = ("blowup", "--field", "capillary:R=1", x0,
                "--radii", BLOWUP_RADII, "--rtol", BLOWUP_RTOL)
        if tiny:
            argv = argv[:4] + ("--radii", "0.25,0.125", "--rtol", "1e-4")
        op = Op("capillary-blowup", argv, (_blowup_check,))
        return Inputs(workload, seed, program_seed, angle,
                      ("capillary:R=1",), (op,))

    if workload == "sampling":
        samples = ("--samples", str(10_000 if tiny else SAMPLES),
                   "--seed", str(program_seed))
        ops = (
            Op("capillary-aplim",
               ("aplim", "--field", "capillary:R=1", x0, "--w", "nu",
                "--alphas", "0.2,0.1,0.05", "--expect", "confirmed")
               + samples,
               (_classification_check(AP_LIM_CONFIRMED),)),
            Op("twisting-aplim",
               ("aplim", "--field", "twisting:levels=8",
                "--x0", "0.3333333333333333,0", "--w", "0,0",
                "--alphas", "0.5", "--expect", "rejected") + samples,
               (_classification_check(AP_LIM_REJECTED),)),
            Op("capillary-nalpha",
               ("nalpha", "--field", "capillary:R=1", x0,
                "--alpha", "0.2") + samples,
               (_nalpha_check,)),
        )
        return Inputs(workload, seed, program_seed, angle,
                      ("capillary:R=1", "twisting:levels=8"), ops)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks

def _check_value(report: dict, name: str) -> Optional[dict]:
    for c in report["checks"]:
        if c["name"] == name:
            return c
    return None


def _tube_check(report: dict, out_dir: str, op_name: str) -> Optional[str]:
    path = os.path.join(out_dir, f"{op_name}-residuals.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    residuals = {int(r[0]): float(r[1]) for r in rows}
    if sorted(residuals) != [TUBE_SEEDS, 2 * TUBE_SEEDS]:
        return f"expected coarse and refined residuals, got {residuals}"
    coarse, fine = residuals[TUBE_SEEDS], residuals[2 * TUBE_SEEDS]
    if not fine <= TUBE_RESIDUAL_MAX:
        return (f"{2 * TUBE_SEEDS}^2 residual {fine!r} > "
                f"{TUBE_RESIDUAL_MAX:g}")
    if not coarse >= TUBE_REFINE_MIN * fine:
        return f"refinement ratio {coarse / fine!r} < {TUBE_REFINE_MIN:g}"
    return None


def _blowup_check(report: dict, out_dir: str, op_name: str) -> Optional[str]:
    c = _check_value(report, "half-space pairing defect, final")
    if c is None:
        return "no final half-space defect in the report"
    if not abs(c["value"]) <= BLOWUP_DEFECT_MAX:
        return f"final half-space defect {c['value']!r} > {BLOWUP_DEFECT_MAX:g}"
    return None


def _classification_check(want: str) -> Check:
    def check(report: dict, out_dir: str, op_name: str) -> Optional[str]:
        c = _check_value(report, "ap-lim classification")
        got = None if c is None else c["detail"]
        return None if got == want else f"classification {got}, want {want}"
    return check


def _nalpha_check(report: dict, out_dir: str, op_name: str) -> Optional[str]:
    c = _check_value(report, "deviation ratio at the finest radius")
    if c is None:
        return "no finest deviation ratio in the report"
    if not abs(c["value"]) <= NALPHA_RATIO_MAX:
        return f"finest deviation ratio {c['value']!r} > {NALPHA_RATIO_MAX:g}"
    return None


def check_op(op: Op, rc: int, out_dir: str) -> Optional[str]:
    """Problem with one operation's outputs, or None when all is right.

    Every operation must exit 0 and write a report whose gated checks all
    pass; the workload's own checks then look at specific numbers.
    """
    if rc != 0:
        return f"exit code {rc}"
    path = os.path.join(out_dir, f"{op.name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    failed = [c["name"] for c in report["checks"] if c["verdict"] == "FAIL"]
    if report.get("verdict") != "PASS" or failed:
        return f"verdict {report.get('verdict')}, failed checks {failed}"
    for check in op.checks:
        try:
            problem = check(report, out_dir, op.name)
        except (OSError, ValueError, KeyError, IndexError,
                ZeroDivisionError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            return problem
    return None
