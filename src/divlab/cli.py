"""Command-line verification runner.

Subcommands map scenarios onto the library: potential certification,
flow-tube and strip transport identities, trace probes at interface
points, density and one-sided limit tests, blow-up consistency, and
closed-form demos.  Every run prints its checks and a final verdict;
`--out DIR` additionally writes a JSON report plus CSV plot data.

Exit status: 0 when no check fails or is undecided and at least one
passes (PASS), 1 when a check fails (FAIL) or none decides (INCONCLUSIVE:
a gate within its error, a sampling error or an achieved quadrature or
ODE bound, or only INFO and SKIPPED records), 2 on usage errors.
Parameter precedence: command-line flags, then a `--config` JSON file,
then built-in defaults.  Monte Carlo operations run with a fixed default
seed, recorded in the report.

Each operation's parameter table (`_OPERATIONS`) is the single place a
parameter is declared: its flag, converter, default, help text and
whether it is a tolerance.  The subcommands, `--help` defaults, config
key checks and the params/tolerances split are all generated from it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np
from numpy.random import default_rng

from .blowup import (PAIRING_SHARE, blowup_trace_consistency,
                     finest_ratio_check, hash_unit_ball_field,
                     nalpha_density, quadratic_inequality_check)
from .calculus import (GridSpec, bump_test, jensen_check,
                       make_mollifier, mollify, numeric_divergence)
from .fields import (AUTO, MAX_DIMENSION, REGISTRY_EXAMPLES,
                     counterexample_potential, constant_field,
                     field_to_potential, finite_float, gamma_bounds,
                     get_field, int_range, make_counterexample_field,
                     nonnegative_float, parse_gamma, parse_spec,
                     phi_quadratic, positive_float, potential_to_field,
                     stream_bump_field)
from .report import INFO, PASS, CheckResult, VerificationReport
from .rigidity import (CERTIFIED, VIOLATED, FlowInputError, certify_potential,
                       check_strip, default_certification_grid, flow_tubes,
                       separable_demo, strip_identity_2d)
from .trace import (AP_LIM_CONFIRMED, AP_LIM_INCONCLUSIVE, AP_LIM_REJECTED,
                    check_curvilinear, check_radii, circle_interface, density,
                    line_interface, one_sided_ap_lim, sampling_error,
                    weak_trace_ball_average, weak_trace_curvilinear,
                    weak_trace_pairing, weak_trace_sphere_flux)

__all__ = ["Scenario", "UsageError", "run", "main", "RECIPES"]

DEFAULT_SEED = 20260819
DEFAULT_RADII = tuple(2.0 ** -k for k in range(3, 9))
# `demo jensen` grid points x kernel nodes; admits the 3D default, 3.7e7
MAX_JENSEN_EVALUATIONS = 40_000_000
# entries of a list parameter (radii, alphas, strip locations), each a
# full probe, bounded like a count; recipes and benchmarks list at most 6
MAX_LIST_LENGTH = 32
PROG = "divlab"


class UsageError(ValueError):
    """Bad invocation: unknown field, malformed parameter, missing input."""


# ---------------------------------------------------------------------------
# scenario plumbing

@dataclass(frozen=True)
class Scenario:
    """One resolved verification run: an operation plus its parameters."""
    name: str
    field: str
    operation: str
    params: dict
    tolerances: dict = dc_field(default_factory=dict)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.operation not in _OPERATIONS:
            raise UsageError(f"unknown operation {self.operation!r}")

    def echo(self) -> str:
        payload = {
            "name": self.name,
            "operation": self.operation,
            "field": self.field,
            "params": _jsonable(self.params),
            "tolerances": _jsonable(self.tolerances),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def seed(self) -> int:
        """Monte Carlo seed: the `seed` parameter, else DEFAULT_SEED."""
        seed = self.params.get("seed")
        return DEFAULT_SEED if seed is None else seed


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def run(scenario: Scenario) -> VerificationReport:
    """Dispatch a scenario, stamp the report, and write requested outputs.

    Library exceptions become a FAILED `execution` check rather than a
    traceback, so a crashed computation still yields a report (exit 1);
    usage errors propagate (exit 2).
    """
    handler = _OPERATIONS[scenario.operation].handler
    try:
        rep, tables, extras = handler(scenario)
    except UsageError:
        raise
    except Exception as exc:  # noqa: BLE001 -- any compute failure is a FAIL
        rep = VerificationReport()
        rep.add(CheckResult.from_margin("execution", 0.0, 0.0, -1.0,
                                        detail=f"{type(exc).__name__}: "
                                               f"{exc}"))
        tables, extras = [], []
    rep.scenario = scenario.echo()
    rep.environment.setdefault("seed", scenario.seed)
    if scenario.out_dir:
        os.makedirs(scenario.out_dir, exist_ok=True)
        rep.write(os.path.join(scenario.out_dir, f"{scenario.name}.json"))
        for suffix, header, rows in tables:
            _write_csv(os.path.join(scenario.out_dir,
                                    f"{scenario.name}-{suffix}.csv"),
                       header, rows)
        for suffix, payload in extras:
            path = os.path.join(scenario.out_dir,
                                f"{scenario.name}-{suffix}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return rep


def _write_csv(path: str, header, rows) -> None:
    """Write a header and rows: a list of rows, or a 2D float array whose
    cells are spelled as csv spells the Python floats of `tolist()`."""
    if isinstance(rows, np.ndarray):
        rows = zip(*map(_spelled_column, rows.T))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes a cell that is not a string as str(v): a float's
        # shortest repr, and 0.1 rather than numpy 2's repr np.float64(0.1)
        # for a numpy scalar; an array's cells arrive spelled already
        writer.writerows(rows)


def _spelled_column(col: np.ndarray) -> list:
    """repr of each float in col, computed once per distinct value.

    Values are keyed on their bits, so -0.0 and 0.0 keep their own
    spellings; a float's str is its repr."""
    bits = np.asarray(col, dtype=np.float64).view(np.uint64)
    distinct, where = np.unique(bits, return_inverse=True)
    spelled = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                       dtype=object)
    return spelled[where].tolist()


# ---------------------------------------------------------------------------
# parameter parsing helpers

def _refused(call: Callable):
    """call(), with its ValueError a usage error: for the library's input
    checks, which refuse before any field call."""
    try:
        return call()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _floats(text: str, what: str, count: Optional[int] = None):
    try:
        vals = [finite_float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed {what}: {text!r}") from exc
    if count is not None and len(vals) != count:
        raise UsageError(f"{what} needs {count} comma-separated values, "
                         f"got {text!r}")
    if len(vals) > MAX_LIST_LENGTH:
        raise UsageError(f"{len(vals)} {what} given; at most "
                         f"{MAX_LIST_LENGTH}")
    return vals


def _parse_radii(spec: str) -> tuple:
    if spec == "auto":
        return DEFAULT_RADII
    vals = _floats(spec, "radii")
    if len(vals) < 2:
        raise UsageError("need at least two probe radii")
    try:
        return tuple(check_radii(vals))
    except ValueError as exc:
        raise UsageError(f"bad radii {spec!r}: {exc}") from exc


def _parse_box(spec: str) -> list:
    # "lo,hi;lo,hi" -> [(lo, hi), (lo, hi)]
    out = []
    for part in spec.split(";"):
        lo, hi = _floats(part, "box side", 2)
        if hi <= lo:
            raise UsageError(f"empty box side {part!r}")
        out.append((lo, hi))
    return out


def _resolve_field(field_id: str):
    if not field_id:
        raise UsageError("this operation needs --field")
    return _refused(lambda: get_field(field_id))


def _point(text: str) -> list:
    return _floats(text, "point", 2)


# interface kind -> (builder, {key: (default, converter)}, bare words), in
# the grammar of the field registry (`fields.parse_spec`)
_INTERFACES = {
    "line": (lambda p: line_interface(p["origin"], p["dir"]),
             {"origin": ((0.0, 0.0), _point), "dir": ((1.0, 0.0), _point)},
             ()),
    "circle": (lambda p: circle_interface(p["center"], p["R"],
                                          outward=not p["inward"]),
               {"center": ((0.0, 0.0), _point), "R": (1.0, finite_float)},
               ("inward",)),
}


def _resolve_interface(spec, f):
    """Interface spec: 'auto', 'line[:origin=a,b][:dir=a,b]' or
    'circle[:center=a,b][:R=r][:inward]'; anything else is a usage
    error."""
    if spec in ("", "auto"):
        if f.disk is not None:
            return circle_interface(f.disk.center, f.disk.radius, outward=True)
        # planar fields here carry their structure in the upper half plane;
        # point the normal down so the sampled side (-nu) is the upper one
        return line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
    kind, params = _refused(
        lambda: parse_spec(str(spec), _INTERFACES, "interface"))
    try:
        return _INTERFACES[kind][0](params)
    except ValueError as exc:
        raise UsageError(f"bad interface {spec!r}: {exc}") from exc


def _interface_point(p, f):
    """x0, the interface of `p` and its normal at x0; a non-planar field
    and x0 off the interface are usage errors (`OrientedInterface.frame`)."""
    S = _resolve_interface(p["interface"], f)
    x0, nu0 = _refused(lambda: S.frame(f, _floats(p["x0"], "x0", 2)))
    return x0, S, nu0


def _pass_fail(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult.from_margin(name, float(ok), 0.0, float(ok) - 1.0,
                                   detail)


# ---------------------------------------------------------------------------
# certify

def _certify_target(field_id: str):
    """Potential to certify, plus the field when it is constructible.

    Out-of-bound amplitudes are legal at the potential level (that is how
    a VIOLATED certificate is produced) while the field constructor
    rejects them, so the field half is optional.
    """
    kind, kw = _refused(lambda: parse_spec(field_id))
    if kind != "counterexample":
        raise UsageError(
            f"field {field_id!r} carries no cylindrical potential to certify")
    pot = counterexample_potential(kw["n"], kw["gamma"])
    try:
        fld = make_counterexample_field(kw["n"], kw["gamma"])
    except ValueError:
        fld = None
    return pot, fld


def _divergence_sample_points(f, count: int, seed: int, clearance: float):
    """Points keeping `clearance` away from every declared non-smooth set."""
    rng = default_rng(seed)
    n = f.dim
    out = []
    have = 0
    while have < count:
        pts = rng.uniform(-1.5, 1.5, size=(4 * count, n))
        pts[:, -1] = rng.uniform(-1.0, 3.0, size=4 * count)
        keep = f.exclusion_distance(pts) > clearance
        pts = pts[keep]
        out.append(pts)
        have += pts.shape[0]
    return np.concatenate(out, axis=0)[:count]


def _h_certify(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    pot, fld = _certify_target(sc.field)
    grid = default_certification_grid(p["resolution"])
    cert = certify_potential(pot, grid, c=p["c"],
                             margin_tol=tol["margin_tol"])
    expect = p["expect"]
    rep = VerificationReport()

    cond_rows = []
    for cond in cert.conditions:
        detail = f"argmin at {cond['argmin_point']}"
        if expect == "violated":
            rep.add(CheckResult.info("condition " + cond["name"],
                                     cond["min_margin"], detail=detail))
        else:
            rep.add(CheckResult.from_margin(cond["name"], cond["min_margin"],
                                            tol["margin_tol"],
                                            cond["min_margin"], detail=detail))
        pt = cond["argmin_point"] or (math.nan, math.nan)
        cond_rows.append([cond["name"], cond["min_margin"], pt[0], pt[1]])

    if expect != "none":
        want = CERTIFIED if expect == "certified" else VIOLATED
        ok = cert.verdict == want
        if expect == "violated":
            ok = ok and cert.witness is not None
        detail = f"verdict={cert.verdict}"
        if cert.witness is not None:
            detail += f", witness={cert.witness}"
        rep.add(_pass_fail("certificate verdict matches expectation", ok,
                           detail))

    lo, hi = gamma_bounds(pot.dim)
    rep.add(CheckResult.info("gamma", pot.gamma))
    rep.add(CheckResult.info("gamma bound (radial slope)", lo,
                             detail=f"{lo:.12f}"))
    rep.add(CheckResult.info("gamma bound (vertical growth)", hi,
                             detail=f"{hi:.12f}"))

    if fld is None:
        rep.add(CheckResult.skipped(
            "field-side checks",
            "field constructor rejects this amplitude; certificate only"))
    elif p["field_checks"]:
        g = pot.gamma
        axis_point = np.zeros(fld.dim)
        axis_point[-1] = 1.0
        speed = float(np.linalg.norm(fld(axis_point)))
        rep.add(CheckResult.from_residual(
            "axis speed at unit height matches closed form",
            speed - g * math.pi / 4.0, tol["speed_tol"],
            detail=f"|field|={speed!r}, expected {g * math.pi / 4.0!r}"))
        pts = _divergence_sample_points(fld, p["fd_points"], sc.seed,
                                        clearance=10.0 * p["fd_step"])
        div = numeric_divergence(fld, pts, h=p["fd_step"])
        worst = float(np.max(np.abs(div)))
        rep.add(CheckResult.from_residual(
            "centered-difference divergence", worst, tol["fd_tol"],
            detail=f"{pts.shape[0]} points, h={p['fd_step']:g}"))

    tables = [("conditions",
               ["condition", "min_margin", "argmin_rho", "argmin_z"],
               cond_rows)]
    extras = [("certificate", cert.to_dict())]
    return rep, tables, extras


# ---------------------------------------------------------------------------
# flow tube

def _h_flow_tube(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    A = _parse_box(p["box"])
    if p["epsilon"] is None:
        sup = f.sup_bound if f.sup_bound and math.isfinite(f.sup_bound) else 0.0
        eps = 2.0 * sup if sup > 0.0 else 1.0
    else:
        eps = p["epsilon"]
    h0, seeds = p["h0"], p["seeds"]
    levels = [seeds, 2 * seeds] if p["refine"] else [seeds]
    # the seed box and the field audit are refused before any allocation
    try:
        tubes, paths = flow_tubes(f, eps, A, h0, levels,
                                  plot_seeds=p["plot_seeds"],
                                  gauge_constant=p["gauge_constant"],
                                  residual_tol=tol["residual_tol"])
    except FlowInputError as exc:
        raise UsageError(str(exc)) from exc
    tube = tubes[0]
    rep = tube.to_report()
    rep.add(CheckResult.info("epsilon", eps))
    rep.add(CheckResult.info("seeds per axis", seeds))

    residual_rows = [[s, t.residual] for s, t in zip(levels, tubes)]
    if p["refine"]:
        fine = tubes[1]
        factor = p["refine_factor"]
        rep.add(fine.gate_check("refined "))
        rep.add(CheckResult.from_margin(
            f"refinement shrinks the residual by {factor:g}x",
            fine.residual, 0.0, tube.residual - factor * fine.residual,
            error=tube.ode_error + factor * fine.ode_error,
            detail=f"coarse={tube.residual!r}, fine={fine.residual!r}, "
                   f"ODE error bounds {tube.ode_error!r}, "
                   f"{fine.ode_error!r}"))

    ndim = len(A)
    header = ([f"seed_q{i + 1}" for i in range(ndim)] + ["h"]
              + [f"x{i + 1}" for i in range(ndim + 1)] + ["delta"])
    tables = [("residuals", ["seeds_per_axis", "residual"], residual_rows),
              ("trajectories", header, paths)]
    return rep, tables, []


# ---------------------------------------------------------------------------
# strip identity

def _h_strip(sc: Scenario):
    p = sc.params
    if len(p["at"]) > MAX_LIST_LENGTH:
        raise UsageError(f"{len(p['at'])} strip locations given; at most "
                         f"{MAX_LIST_LENGTH}")
    locations = [_floats(item, "strip location", 2) for item in p["at"]]
    f = _resolve_field(sc.field)
    for r, t in locations:
        _refused(lambda: check_strip(f, r, t))
    rep = VerificationReport()
    rows = []
    for r, t in locations:
        sub = strip_identity_2d(f, r, t)
        for c in sub.checks:
            rep.add(replace(c, name=f"[r={r:g},t={t:g}] {c.name}"))
            rows.append([r, t, c.name, c.value, c.margin, c.verdict])
    tables = [("checks", ["r", "t", "check", "value", "margin", "verdict"],
               rows)]
    return rep, tables, []


# ---------------------------------------------------------------------------
# trace probes

def _probe_checks(rep, probe, label: str, p, tol):
    for r, e in zip(probe.radii, probe.estimates):
        rep.add(CheckResult.info(f"{label} estimate at r={r:g}", e))
    rep.add(CheckResult.info(f"{label} extrapolated", probe.extrapolated,
                             detail=probe.notes))
    rep.add(CheckResult.info(
        f"{label} oscillation spread", probe.oscillation,
        detail=f"oscillating={probe.oscillating}"))
    expect = p["expect"]
    if expect == "value":
        target = p["value"]
        rep.add(CheckResult.from_residual(
            f"{label} trace matches expected value",
            probe.extrapolated - target, tol["value_tol"],
            detail=f"extrapolated={probe.extrapolated!r}, target={target:g}"))
    elif expect == "oscillating":
        est = np.asarray(probe.estimates)
        gap = abs(float(np.mean(est[0::2]) - np.mean(est[1::2])))
        rep.add(_pass_fail(f"{label} oscillation detected", probe.oscillating,
                           detail=f"spread={probe.oscillation!r}"))
        rep.add(CheckResult.from_margin(
            f"{label} subsequence gap", gap, 0.0, gap - tol["gap"],
            detail=f"alternating means differ by {gap!r}"))


def _h_trace(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    method = p["method"]
    rep = VerificationReport()
    tables = []

    if method == "pairing":
        if f.dim != 2:
            raise UsageError(f"the pairing probe is planar; {f.name!r} has "
                             f"dimension {f.dim}")
        region = p["omega"]
        sides = np.array([(0.0, 1.0), (0.0, 1.0)] if region == "unit-square"
                         else _parse_box(region))
        if len(sides) != 2:
            raise UsageError(f"pairing region {region!r} needs two sides")
        rng = default_rng(sc.seed)
        radius = p["bump_radius"]
        lo, hi = sides[:, 0] + radius, sides[:, 1] - radius
        if np.any(hi <= lo):
            raise UsageError("bump radius too large for the region")
        family = [bump_test(lo + (hi - lo) * rng.uniform(size=2), radius)
                  for _ in range(p["bumps"])]
        vals, estimates = weak_trace_pairing(
            f, family, [PAIRING_SHARE * tol["pairing_tol"] * psi.c1_norm
                        for psi in family])
        rows = []
        for psi, v, e in zip(family, vals, estimates):
            bound = tol["pairing_tol"] * psi.c1_norm
            rep.add(CheckResult.from_residual(
                f"pairing against {psi.label}", v, bound,
                detail=f"|value| vs {tol['pairing_tol']:g}*C1-norm; "
                       f"quadrature estimate {e!r}", error=e))
            rows.append([psi.label, v, psi.c1_norm, bound])
        tables.append(("pairings", ["psi", "value", "c1_norm", "bound"], rows))
        return rep, tables, []

    x0, S, nu0 = _interface_point(p, f)
    radii = _parse_radii(p["radii"])
    sigmas = np.linspace(-0.5, 0.5, 33)
    nd, td = S.frame_defects(sigmas)
    rep.add(CheckResult.info("interface frame defect", max(nd, td)))

    methods = ["ball", "curvilinear", "flux"] if method == "all" else [method]
    if "curvilinear" in methods:
        _refused(lambda: check_curvilinear(S, p["rho"], radii))
    # the lens average reads a rim point; the sphere flux also needs the
    # outward normal there
    if f.disk is not None and "flux" in methods:
        _refused(lambda: f.disk.check_outward_rim(x0, nu0))
    elif f.disk is not None and "ball" in methods:
        _refused(lambda: f.disk.check_rim(x0, nu0))
    est_rows = []
    for m in methods:
        if m == "ball":
            probe = weak_trace_ball_average(f, S, x0, radii)
        elif m == "curvilinear":
            probe = weak_trace_curvilinear(f, S, x0, rho=p["rho"],
                                           r_seq=radii)
        elif m == "flux":
            probe = weak_trace_sphere_flux(f, S, x0, radii)
        else:
            raise UsageError(f"unknown trace method {m!r}")
        _probe_checks(rep, probe, m, p, tol)
        # deterministic quadratures carry no sampling error
        est_rows += [[m, r, e, math.nan]
                     for r, e in zip(probe.radii, probe.estimates)]
    tables.append(("estimates", ["method", "radius", "estimate", "stderr"],
                   est_rows))
    return rep, tables, []


# ---------------------------------------------------------------------------
# density / ap-lim / nalpha

def _h_density(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    if f.disk is None:
        raise UsageError(
            "density probes need a domain-restricted field; "
            f"{f.name!r} is defined everywhere")
    x0 = _floats(p["x0"], "x0", f.dim)
    radii = _parse_radii(p["radii"])
    probe = density(f.disk.contains, x0, radii,
                    samples=p["samples"], seed=sc.seed)
    rep = VerificationReport(environment={"samples": p["samples"]})
    rows = list(zip(probe.radii, probe.ratios, probe.stderrs))
    for r, ratio, stderr in rows:
        rep.add(CheckResult.info(f"volume ratio at r={r:g}", ratio,
                                 detail=f"stderr={stderr:.2e}"))
    rep.add(CheckResult.info("extrapolated density", probe.theta))
    if p["expect"] == "value":
        rep.add(CheckResult.from_residual(
            "density matches expected value", probe.theta - p["value"],
            tol["value_tol"], detail=f"theta stderr {probe.theta_stderr:.2g}",
            error=sampling_error(probe.theta_stderr)))
    return rep, [("ratios", ["radius", "ratio", "stderr"], rows)], []


def _h_aplim(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    x0, S, nu0 = _interface_point(p, f)
    if str(p["w"]).strip().lower() == "nu":
        w = nu0
    else:
        w = _floats(p["w"], "w", 2)
    alphas = _floats(p["alphas"], "alphas")
    if not alphas or min(alphas) <= 0.0:
        raise UsageError(f"deviation levels must be positive: {p['alphas']!r}")
    radii = _parse_radii(p["radii"])
    rep = one_sided_ap_lim(f, S, x0, w, alphas, radii,
                           eps_density=tol["eps_density"],
                           samples=p["samples"], seed=sc.seed)
    expect = p["expect"]
    if expect != "none":
        want = {"confirmed": AP_LIM_CONFIRMED,
                "rejected": AP_LIM_REJECTED,
                "inconclusive": AP_LIM_INCONCLUSIVE}[expect]
        if expect != "confirmed":
            # per-alpha confirmation checks are informational here: the
            # scenario asserts the overall classification instead
            rep.checks = [
                replace(c, verdict=INFO)
                if c.name.startswith("deviation density") else c
                for c in rep.checks
            ]
        rep.add(_pass_fail("classification matches expectation",
                           rep.classification == want,
                           detail=f"got {rep.classification}, want {want}"))
    rows = [[alpha, *row] for alpha, probe in rep.probes
            for row in zip(probe.radii, probe.ratios, probe.stderrs)]
    tables = [("deviation", ["alpha", "radius", "ratio", "stderr"], rows)]
    return rep, tables, []


def _h_nalpha(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    x0, S, _ = _interface_point(p, f)
    alpha = p["alpha"]
    radii = _parse_radii(p["radii"])
    probe = nalpha_density(f, S, x0, alpha, radii, samples=p["samples"],
                           seed=sc.seed, ratio_tol=tol["ratio_tol"])
    rep = VerificationReport(environment={"samples": p["samples"]})
    rows = list(zip(probe.radii, probe.ratios, probe.stderrs))
    for r, ratio, stderr in rows:
        rep.add(CheckResult.info(f"deviation ratio at r={r:g}", ratio,
                                 detail=f"stderr={stderr:.2e}"))
    rep.add(CheckResult.info("extrapolated deviation density", probe.theta))
    rep.add(finest_ratio_check(probe, alpha, tol["ratio_tol"]))
    return rep, [("ratios", ["alpha", "radius", "ratio", "stderr"],
                  [[alpha, *row] for row in rows])], []


# ---------------------------------------------------------------------------
# blow-up

def _h_blowup(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    f = _resolve_field(sc.field)
    x0, S, nu0 = _interface_point(p, f)
    if f.disk is not None:
        _refused(lambda: f.disk.check_outward_rim(x0, nu0))
    radii = (tuple(2.0 ** -k for k in range(2, 7)) if p["radii"] == "auto"
             else _parse_radii(p["radii"]))
    rep = blowup_trace_consistency(f, S, x0, radii,
                                   trace_value=p["trace_value"],
                                   rtol=p["rtol"], final_tol=tol["final_tol"])
    rows = [[r["k"], r["radius"], r["off_interface_div_mass"],
             r["half_space_defect"], r["punctured_ball_residual"]]
            for r in rep.rows]
    tables = [("defects",
               ["k", "radius", "off_interface_div_mass", "half_space_defect",
                "punctured_ball_residual"],
               rows)]
    return rep, tables, []


# ---------------------------------------------------------------------------
# demos

def _h_demo_separable(sc: Scenario):
    p = sc.params
    rep = _refused(lambda: separable_demo(p["gamma"], p["rho0"], p["psi0"]))
    return rep, [], []


def _h_demo_jensen(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    dim, eps = p["dim"], p["epsilon"]
    kernel = make_mollifier(eps, dim)
    evaluations = p["grid_n"] ** dim * kernel.nodes.shape[0]
    if evaluations > MAX_JENSEN_EVALUATIONS:
        raise UsageError(f"--grid-n {p['grid_n']} in dimension {dim} needs "
                         f"{evaluations} field evaluations, above "
                         f"{MAX_JENSEN_EVALUATIONS}")
    vec = np.zeros(dim)
    vec[-1] = 1.0
    vertical = constant_field(vec, name="constant-vertical")
    grid = GridSpec(box=((-1.0, 1.0),) * dim,
                    resolution=(p["grid_n"],) * dim)
    rep = jensen_check(vertical, phi_quadratic, kernel, grid,
                       tol=tol["jensen_tol"])

    sb = stream_bump_field()
    smooth = mollify(sb, make_mollifier(eps, 2))
    rng = default_rng(sc.seed)
    pts = np.stack([rng.uniform(-2.5, 2.5, 64), rng.uniform(0.4, 2.4, 64)],
                   axis=1)
    div = numeric_divergence(smooth, pts, h=p["fd_step"])
    rep.add(CheckResult.from_residual(
        "mollified stream field stays divergence-free",
        float(np.max(np.abs(div))), tol["div_tol"],
        detail=f"{pts.shape[0]} points, h={p['fd_step']:g}"))
    return rep, [], []


def _h_demo_quadratic(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    dim, m = p["dim"], p["samples"]
    xi = hash_unit_ball_field(dim)
    rng = default_rng(sc.seed)
    dirs = rng.normal(size=(m, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * (rng.uniform(size=m) ** (1.0 / dim))[:, None]
    rep = quadratic_inequality_check(xi, pts, tol=tol["margin_tol"])
    rep.environment["samples"] = m
    return rep, [], []


def _h_demo_roundtrip(sc: Scenario):
    p, tol = sc.params, sc.tolerances
    n, gamma = p["n"], p["gamma"]
    closed = _refused(lambda: make_counterexample_field(n, gamma))
    pot = counterexample_potential(n, gamma)
    rebuilt = potential_to_field(pot)

    grid = default_certification_grid(p["resolution"])
    rho_ax, z_ax = grid.axes()
    RHO, Z = np.meshgrid(rho_ax, z_ax, indexing="ij")
    pts = np.zeros((RHO.size, n))
    pts[:, 0] = RHO.ravel()
    pts[:, -1] = Z.ravel()

    diff = np.linalg.norm(rebuilt.eval(pts) - closed.eval(pts), axis=1)
    rep = VerificationReport()
    rep.add(CheckResult.from_residual(
        "potential-derived field matches the closed form",
        float(np.max(diff)), tol["field_tol"],
        detail=f"{pts.shape[0]} grid nodes"))

    recovered = field_to_potential(closed)
    vdiff = np.abs(recovered.V(RHO, Z) - pot.V(RHO, Z))
    rep.add(CheckResult.from_residual(
        "recovered potential matches the closed form",
        float(np.max(vdiff)), tol["potential_tol"],
        detail=f"{RHO.size} grid nodes"))

    dr1, dz1 = recovered.dV(RHO.ravel(), Z.ravel())
    dr0, dz0 = pot.dV(RHO.ravel(), Z.ravel())
    gdiff = float(max(np.max(np.abs(dr1 - dr0)), np.max(np.abs(dz1 - dz0))))
    rep.add(CheckResult.info("recovered gradient worst deviation", gdiff))
    return rep, [], []


# ---------------------------------------------------------------------------
# parameter tables: the one declaration of every operation parameter

@dataclass(frozen=True)
class Param:
    """One operation parameter.

    `name` is both the `--config` key and the flag stem (`fd_step` is
    `--fd-step`).  `conv` turns flag text or a config value into the
    parameter value, which must be one of `choices` when those are given;
    `default` is used when neither gives one.  `action` is "store",
    "store_true", "negated" (flag `--no-<name>` stores False) or "append"
    (repeatable flag, a list in config).  Tolerances land in
    Scenario.tolerances, everything else in Scenario.params; `flag=False`
    leaves a parameter config-only.
    """
    name: str
    default: object = None
    conv: Callable = str
    help: str = ""
    action: str = "store"
    choices: tuple = ()
    tol: bool = False
    flag: bool = True

    def add_to(self, parser) -> None:
        stem = self.name.replace("_", "-")
        kw = {"dest": self.name, "default": None, "help": self.help}
        if self.action == "store_true":
            kw["action"] = "store_true"
        elif self.action == "negated":
            kw["action"] = "store_false"
            stem = "no-" + stem
        else:
            kw.update(type=self.conv, choices=self.choices or None)
            if self.action == "append":
                kw["action"] = "append"
            if self.default is not None:
                kw["help"] += f" (default: {self.default})"
        parser.add_argument("--" + stem, **kw)

    def from_config(self, value):
        """Convert a config value exactly as the flag's text would be."""
        if value is None and self.default is None:
            return None
        try:
            if self.action in ("store_true", "negated"):
                if not isinstance(value, bool):
                    raise ValueError("expected true or false")
                return value
            if self.action == "append":
                if not isinstance(value, list):
                    raise ValueError("expected a list")
                return [self.conv(str(v)) for v in value]
            out = self.conv(str(value))
            if self.choices and out not in self.choices:
                raise ValueError(f"expected one of {list(self.choices)}")
            return out
        except ValueError as exc:
            raise UsageError(
                f"config value {self.name}={value!r}: {exc}") from exc


def _tol(name, default):
    return Param(name, default, nonnegative_float, "tolerance", tol=True)


def _field(default):
    return Param("field", default, help="field registry id")


def _expect(*choices):
    return Param("expect", choices[0], help="expected outcome",
                 choices=choices)


_SEED = Param("seed", None, int, f"Monte Carlo seed (default {DEFAULT_SEED})")
_RADII = Param("radii", "auto",
               help="'auto' or comma-separated decreasing radii")
_INTERFACE = Param("interface", "auto",
                   help="'auto', 'line[:origin=a,b][:dir=a,b]' or "
                        "'circle[:center=a,b][:R=r][:inward]'")
_SAMPLES = Param("samples", 100_000, int_range(1, 1_000_000),
                 "lattice points per radius over the full ball, rounded "
                 "up to the lattice size: the exact count for density, "
                 "a ceiling for aplim and nalpha, which stop at the first "
                 "lattice round that resolves their gates")
_VALUE = Param("value", 0.0, finite_float, "expected value")
_VALUE_TOL = _tol("value_tol", 1e-2)


def _x0(default):
    return Param("x0", default, help="interface point 'a,b'")


@dataclass(frozen=True)
class Operation:
    handler: Callable
    help: str
    params: tuple


_OPERATIONS = {
    "certify": Operation(_h_certify, "certify a cylindrical potential", (
        _field("counterexample:n=4:gamma=auto"), _SEED,
        Param("c", 1.0, finite_float,
              "balance constant in the third condition"),
        Param("resolution", 200, int_range(1, 2000),
              "certification grid nodes per axis"),
        _expect("certified", "violated", "none"),
        _tol("margin_tol", 1e-12),
        Param("speed_tol", 1e-12, nonnegative_float, tol=True, flag=False),
        Param("fd_tol", 1e-6, nonnegative_float, tol=True, flag=False),
        Param("fd_points", 1000, int_range(1, 100_000),
              "divergence sample points"),
        Param("fd_step", 1e-4, positive_float, "centered-difference step"),
        Param("field_checks", True, help="skip the field-side spot checks",
              action="negated"))),
    "flow-tube": Operation(
        _h_flow_tube, "transport identity along the lifted flow", (
            _field("stream:bump"),
            Param("epsilon", None, positive_float,
                  "vertical lift (default: 2x the field sup bound)"),
            Param("h0", 1.95, positive_float, "seed height"),
            Param("seeds", 64, int_range(1, 256), "seeds per axis"),
            Param("box", "-2.7,3.3;0,1", help="seed box 'lo,hi;lo,hi'"),
            Param("refine", False, action="store_true",
                  help="rerun with doubled seeds and compare residuals"),
            Param("refine_factor", 4.0, positive_float,
                  "required residual shrink"),
            Param("gauge_constant", None, positive_float,
                  "check the displacement bound for this gauge constant"),
            Param("plot_seeds", 6, int_range(1, 64),
                  "seeds per axis of the plotted paths"),
            Param("residual_tol", 1e-6, positive_float,
                  "transport residual tolerance; also sets the ODE budget",
                  tol=True))),
    "strip-identity": Operation(
        _h_strip, "horizontal strip balance for a planar field", (
            _field("stream:bump"),
            Param("at", ("5,3", "2,1"), action="append",
                  help="strip half-width and height 'R,T' (repeatable)"))),
    "trace": Operation(_h_trace, "weak normal trace probes", (
        _field("twisting:levels=8"), _SEED,
        Param("method", "ball", help="trace probe",
              choices=("ball", "curvilinear", "flux", "pairing", "all")),
        _x0("0,0"), _RADII, _INTERFACE,
        Param("rho", 0.2, positive_float, "curvilinear rectangle half-width"),
        Param("omega", "unit-square",
              help="pairing region, the bumps drawn inside it: "
                   "'unit-square' or 'a,b;c,d'"),
        Param("bumps", 10, int_range(1, 1000),
              "random test bumps for the pairing"),
        Param("bump_radius", 0.125, positive_float, "test bump radius"),
        _expect("none", "value", "oscillating"), _VALUE, _VALUE_TOL,
        Param("gap", 0.01, positive_float,
              "required oscillation subsequence gap (> 0)", tol=True),
        Param("pairing_tol", 1e-6, positive_float, "pairing tolerance per "
              "unit C1 norm; also sets its quadrature budget", tol=True))),
    "density": Operation(_h_density, "volume density of a field's domain", (
        _field("capillary:R=1"), _SEED, _x0("0,0"), _RADII, _SAMPLES,
        _expect("none", "value"), _VALUE, _VALUE_TOL)),
    "aplim": Operation(
        _h_aplim, "one-sided approximate limit classification", (
            _field("twisting:levels=8"), _SEED, _x0("0,0"),
            Param("w", "0,0",
                  help="candidate limit 'a,b', or 'nu' for the normal"),
            Param("alphas", "0.5", help="comma-separated deviation levels"),
            _RADII, _INTERFACE, _SAMPLES, _tol("eps_density", 1e-2),
            _expect("none", "confirmed", "rejected", "inconclusive"))),
    "nalpha": Operation(
        _h_nalpha, "deviation-set density at an interface point", (
            _field("capillary:R=1"), _SEED, _x0("1,0"),
            Param("alpha", 0.2, positive_float, "deviation level"),
            _RADII, _INTERFACE, _SAMPLES, _tol("ratio_tol", 1e-2))),
    "blowup": Operation(_h_blowup, "per-scale trace consistency", (
        _field("twisting:levels=8"), _x0("0.5,0"), _RADII, _INTERFACE,
        Param("trace_value", None, finite_float,
              "known trace (default: probe for it)"),
        Param("rtol", 1e-8, positive_float,
              "relative tolerance of the INFO off-interface divergence "
              "mass, no tighter than 1e-8; the gated pairing takes its "
              "budget from --final-tol"),
        Param("final_tol", 1e-2, positive_float,
              "final half-space pairing defect tolerance; also sets the "
              "pairing's quadrature budget", tol=True))),
    "demo-separable": Operation(
        _h_demo_separable, "separable profile blow-up", (
            Param("gamma", 1.0, finite_float, "amplitude"),
            Param("rho0", 1.0, finite_float, "initial radius"),
            Param("psi0", 1.0, finite_float, "initial profile value"))),
    "demo-jensen": Operation(
        _h_demo_jensen, "smoothing preserves gauge domination", (
            _SEED, Param("epsilon", 0.05, positive_float, "mollifier radius"),
            Param("dim", 2, int_range(2, 4), "dimension"),
            Param("grid_n", 21, int_range(1, 41), "grid nodes per axis"),
            Param("fd_step", 1e-4, positive_float, "centered-difference step"),
            _tol("jensen_tol", 1e-6), _tol("div_tol", 1e-6))),
    "demo-quadratic": Operation(
        _h_demo_quadratic, "pointwise quadratic margin identity", (
            _SEED, Param("samples", 10_000, int_range(1, 1_000_000),
                         "unit-ball sample points"),
            Param("dim", 2, int_range(1, 16), "dimension"),
            _tol("margin_tol", 1e-12))),
    "demo-roundtrip": Operation(
        _h_demo_roundtrip, "potential/field reconstruction round trip", (
            Param("n", 4, int_range(4, MAX_DIMENSION), "dimension"),
            Param("gamma", AUTO, parse_gamma, "amplitude or 'auto'"),
            Param("resolution", 50, int_range(1, 500), "grid nodes per axis"),
            _tol("field_tol", 1e-12), _tol("potential_tol", 1e-8))),
}


# ---------------------------------------------------------------------------
# recipe catalog: canned argument lists, one or more per acceptance scenario

RECIPES = {
    "certify-counterexample": {
        "description": "sampled certification of the explicit half-space "
                       "counterexample potential (n=4, auto amplitude)",
        "argv": ["certify", "--field", "counterexample:n=4:gamma=auto",
                 "--c", "1"],
    },
    "gamma-violation": {
        "description": "amplitude 1 breaks the slope bound: expect a "
                       "VIOLATED certificate with a concrete witness",
        "argv": ["certify", "--field", "counterexample:n=4:gamma=1",
                 "--c", "1", "--expect", "violated"],
    },
    "flow-tube-stream-bump": {
        "description": "transport identity for the lifted stream bump on a "
                       "64^2 seed tube, with a 2x-per-axis refinement",
        "argv": ["flow-tube", "--field", "stream:bump", "--h0", "1.95",
                 "--seeds", "64", "--refine"],
    },
    "strip-identity-stream-bump": {
        "description": "horizontal strip balance and L1 bound for the "
                       "stream bump at (r,t) = (5,3) and (2,1)",
        "argv": ["strip-identity", "--field", "stream:bump",
                 "--at", "5,3", "--at", "2,1"],
    },
    "twisting-pairing": {
        "description": "divergence pairings of the twisting eddy stack "
                       "against 10 random interior bumps vanish",
        "argv": ["trace", "--field", "twisting:levels=8",
                 "--method", "pairing", "--omega", "unit-square",
                 "--bumps", "10"],
    },
    "twisting-oscillation": {
        "description": "ball averages of the twisting field oscillate: "
                       "alternating subsequences stay apart",
        "argv": ["trace", "--field", "twisting:levels=12",
                 "--method", "ball", "--x0", "0.3333333333333333,0",
                 "--radii", "auto", "--expect", "oscillating"],
    },
    "twisting-aplim": {
        "description": "one-sided approximate limit 0 is rejected for the "
                       "twisting field at alpha = 0.5",
        "argv": ["aplim", "--field", "twisting:levels=8",
                 "--x0", "0.3333333333333333,0", "--w", "0,0",
                 "--alphas", "0.5", "--expect", "rejected"],
    },
    "capillary-verticality": {
        "description": "all three trace probes of the unit-disk capillary "
                       "field extrapolate to 1 at the boundary point (1,0)",
        "argv": ["trace", "--field", "capillary:R=1", "--method", "all",
                 "--x0", "1,0", "--rho", "0.1", "--expect", "value",
                 "--value", "1"],
    },
    "capillary-aplim": {
        "description": "the capillary field attains the outward normal as "
                       "its one-sided approximate limit at (1,0)",
        "argv": ["aplim", "--field", "capillary:R=1", "--x0", "1,0",
                 "--w", "nu", "--alphas", "0.2,0.1,0.05",
                 "--expect", "confirmed"],
    },
    "capillary-nalpha": {
        "description": "deviation sets of the capillary field thin out at "
                       "the boundary point (1,0)",
        "argv": ["nalpha", "--field", "capillary:R=1", "--x0", "1,0",
                 "--alpha", "0.2"],
    },
    "twisting-blowup": {
        "description": "per-scale consistency of zoomed twisting fields "
                       "with their interface trace",
        "argv": ["blowup", "--field", "twisting:levels=8", "--x0", "0.5,0"],
    },
    "jensen-mollification": {
        "description": "smoothing preserves gauge domination and "
                       "divergence-freeness",
        "argv": ["demo", "jensen"],
    },
    "separable-blowup": {
        "description": "the separable profile explodes at the predicted "
                       "radius after breaking its slope cap",
        "argv": ["demo", "separable", "--gamma", "1", "--rho0", "1",
                 "--psi0", "1"],
    },
    "quadratic-inequality": {
        "description": "pointwise quadratic margin of lifted unit-ball "
                       "values matches its closed form",
        "argv": ["demo", "quadratic", "--samples", "10000"],
    },
    "potential-roundtrip": {
        "description": "field from potential and potential from field "
                       "reproduce the closed forms",
        "argv": ["demo", "roundtrip", "--n", "4", "--gamma", "auto"],
    },
}


# ---------------------------------------------------------------------------
# argument parsing, generated from the parameter tables

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# built once per operation per process: parsing leaves the parser as it
# was, and the parameter tables it is built from do not change.  Given an
# operation (or "list") only its subparser is built; None builds them all.
@functools.cache
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    demo = None
    for op, spec in _OPERATIONS.items():
        if command not in (None, op):
            continue
        if op.startswith("demo-"):
            if demo is None:
                demo = sub.add_parser(
                    "demo", help="closed-form demonstrations"
                ).add_subparsers(dest="topic", required=True)
            sp = demo.add_parser(op[len("demo-"):], help=spec.help)
        else:
            sp = sub.add_parser(op, help=spec.help)
        sp.add_argument("--config",
                        help="JSON file supplying parameter values")
        sp.add_argument("--out",
                        help="directory for the JSON report and CSV plot data")
        sp.add_argument("--name",
                        help="scenario name; prefixes all output file names")
        for p in spec.params:
            if p.flag:
                p.add_to(sp)
    if command in (None, "list"):
        sp = sub.add_parser("list", help="print the built-in recipe catalog")
        sp.add_argument("--json", action="store_true")
    return parser


def _read_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _scenario_from_args(args) -> Scenario:
    """Each parameter from its flag, else the --config file, else its
    table default; tolerances are split off into their own dict."""
    op = f"demo-{args.topic}" if args.command == "demo" else args.command
    table = _OPERATIONS[op].params
    config = _read_config(args.config)
    unknown = set(config) - {p.name for p in table}
    if unknown:
        raise UsageError(
            f"config keys {sorted(unknown)} not understood by {op!r}")
    params, tols = {}, {}
    for p in table:
        value = getattr(args, p.name, None)
        if value is None:
            value = (p.from_config(config[p.name]) if p.name in config
                     else p.default)
        (tols if p.tol else params)[p.name] = value
    return Scenario(name=args.name or op, field=params.pop("field", "") or "",
                    operation=op, params=params, tolerances=tols,
                    out_dir=args.out)


def _print_report(rep: VerificationReport, stream) -> None:
    for c in rep.checks:
        line = f"{c.verdict:8s} {c.name}"
        if c.verdict != "SKIPPED":
            line += f"  value={c.value:.9g}"
            if c.verdict != INFO:
                line += f" tol={c.tolerance:g} margin={c.margin:.3g}"
        if c.detail:
            line += f"  [{c.detail}]"
        print(line, file=stream)
    print(f"verdict: {rep.verdict}", file=stream)


def _print_catalog(as_json: bool, stream) -> None:
    if as_json:
        payload = [{"name": name, "description": r["description"],
                    "argv": r["argv"]} for name, r in RECIPES.items()]
        print(json.dumps(payload, indent=2), file=stream)
        return
    print("built-in recipes (run with the shown arguments):", file=stream)
    for name, r in RECIPES.items():
        print(f"\n{name}\n  {r['description']}", file=stream)
        print(f"  {PROG} {' '.join(r['argv'])}", file=stream)
    print(f"\nregistered example fields: {', '.join(REGISTRY_EXAMPLES)}",
          file=stream)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    op = "-".join(argv[:2] if argv[:1] == ["demo"] else argv[:1])
    # help, a missing or an unknown operation get the full parser, whose
    # messages name every operation
    parser = build_parser(op if op in _OPERATIONS or op == "list" else None)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and argparse-internal exits
        return int(exc.code or 0)

    if args.command == "list":
        _print_catalog(args.json, sys.stdout)
        return 0

    try:
        scenario = _scenario_from_args(args)
        rep = run(scenario)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    _print_report(rep, sys.stdout)
    if scenario.out_dir:
        print(f"report written to "
              f"{os.path.join(scenario.out_dir, scenario.name + '.json')}",
              file=sys.stdout)
    return 0 if rep.verdict == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
