"""Acceptance gate: ten end-to-end criteria with stated tolerances and
runtime budgets.

Each test prints one PASS/FAIL line into the terminal summary (see
conftest).  Tolerances here are contractual; loosening them is not a fix.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from divlab import _quad
from divlab.blowup import (PAIRING_SHARE, hash_unit_ball_field,
                           nalpha_density, quadratic_inequality_check)
from divlab.calculus import (GridSpec, bump_test, jensen_check,
                             make_mollifier, mollify, numeric_divergence)
from divlab.cli import DEFAULT_SEED, _divergence_sample_points
from divlab.fields import (AUTO, constant_field, counterexample_potential,
                           field_to_potential, gamma_bounds,
                           make_counterexample_field, phi_quadratic,
                           potential_to_field, zero_field)
from divlab.rigidity import (CERTIFIED, VIOLATED, certify_potential,
                             default_certification_grid, flow_tubes,
                             separable_demo, strip_identity_2d)
from divlab.trace import (AP_LIM_CONFIRMED, AP_LIM_REJECTED,
                          circle_interface, line_interface, one_sided_ap_lim,
                          weak_trace_ball_average, weak_trace_curvilinear,
                          weak_trace_pairing, weak_trace_sphere_flux)

RADII = tuple(2.0 ** -k for k in range(3, 9))
TUBE_BOX = ((-2.7, 3.3), (0.0, 1.0))


def _finish(num: int, failures: list, detail: str, t0: float) -> None:
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else "FAIL"
    record_criterion(f"CRITERION {num}: {status} - {detail} "
                     f"({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_01_certified_counterexample():
    t0 = time.monotonic()
    failures = []
    gamma = 2.0 ** (-8.0 / 3.0)
    cert = certify_potential(counterexample_potential(4, gamma),
                             default_certification_grid(200), c=1.0)
    worst = min(c["min_margin"] for c in cert.conditions)
    if cert.verdict != CERTIFIED:
        failures.append(f"verdict {cert.verdict}")
    if worst < -1e-12:
        failures.append(f"margin {worst!r} < -1e-12")

    field = make_counterexample_field(4, gamma)
    speed = float(np.linalg.norm(
        field.eval(np.array([[0.0, 0.0, 0.0, 1.0]]))[0]))
    speed_err = abs(speed - gamma * math.pi / 4.0)
    if speed_err > 1e-12:
        failures.append(f"axis speed off by {speed_err:.3e}")

    pts = _divergence_sample_points(field, 1000, DEFAULT_SEED,
                                    clearance=1e-3)
    fd = float(np.max(np.abs(numeric_divergence(field, pts, h=1e-4))))
    if fd > 1e-6:
        failures.append(f"FD divergence {fd:.3e} > 1e-6")
    if time.monotonic() - t0 > 30.0:
        failures.append("over 30s budget")
    _finish(1, failures,
            f"worst margin {worst:.1e}, axis speed err {speed_err:.1e}, "
            f"FD div {fd:.1e} at 1000 points", t0)


def test_criterion_02_amplitude_bounds_and_violation():
    t0 = time.monotonic()
    failures = []
    lo, hi = gamma_bounds(4)
    want_lo = 2.0 / (math.pi + 3.0 ** 0.75)
    want_hi = 2.0 ** (-8.0 / 3.0)
    if abs(lo - want_lo) > 1e-12 * want_lo:
        failures.append(f"slope bound {lo!r} != {want_lo!r}")
    if abs(hi - want_hi) > 1e-12 * want_hi:
        failures.append(f"growth bound {hi!r} != {want_hi!r}")

    cert = certify_potential(counterexample_potential(4, 1.0),
                             default_certification_grid(200), c=1.0)
    if cert.verdict != VIOLATED:
        failures.append(f"verdict {cert.verdict}")
    w = cert.witness or {}
    if not {"condition", "point", "margin", "V"} <= set(w):
        failures.append(f"witness incomplete: {sorted(w)}")
    elif not w["margin"] < 0.0:
        failures.append("witness margin not negative")
    if time.monotonic() - t0 > 5.0:
        failures.append("over 5s budget")
    _finish(2, failures,
            f"bounds match to 12 digits, gamma=1 witness at "
            f"{w.get('point')} margin {w.get('margin', 0.0):.3f}", t0)


def test_criterion_03_flow_tube_transport(stream_bump):
    t0 = time.monotonic()
    failures = []
    (tube0,), _ = flow_tubes(zero_field(2), 1.0, TUBE_BOX, 1.95, [64])
    if tube0.residual != 0.0:
        failures.append(f"zero-field residual {tube0.residual!r} != 0.0")

    eps = 2.0 * stream_bump.sup_bound
    (coarse, fine), _ = flow_tubes(stream_bump, eps, TUBE_BOX, 1.95,
                                   [64, 128])
    if coarse.residual > 1e-6:
        failures.append(f"64^2 residual {coarse.residual:.3e} > 1e-6")
    if fine.residual > coarse.residual / 4.0:
        failures.append(
            f"refinement ratio {coarse.residual / fine.residual:.2f} < 4")
    if time.monotonic() - t0 > 60.0:
        failures.append("over 60s budget")
    _finish(3, failures,
            f"zero field exact, 64^2 residual {coarse.residual:.2e}, "
            f"refinement ratio {coarse.residual / fine.residual:.0f}x", t0)


def test_criterion_04_strip_balance(stream_bump):
    t0 = time.monotonic()
    failures = []
    worst_res, worst_margin = 0.0, math.inf
    for r, t in [(5.0, 3.0), (2.0, 1.0)]:
        rep = strip_identity_2d(stream_bump, r, t)
        by = {c.name: c for c in rep.checks}
        res = abs(by["strip flux identity"].value)
        margin = by["L1 bound on the top flux"].margin
        worst_res = max(worst_res, res)
        worst_margin = min(worst_margin, margin)
        if res > 1e-8:
            failures.append(f"residual {res:.3e} at (r,t)=({r},{t})")
        if margin <= 0.0:
            failures.append(f"L1 margin {margin:.3e} at (r,t)=({r},{t})")
    if time.monotonic() - t0 > 10.0:
        failures.append("over 10s budget")
    _finish(4, failures,
            f"worst residual {worst_res:.1e}, "
            f"worst L1 margin {worst_margin:.2f}", t0)


def test_criterion_05_twisting_traces(twisting8, twisting12):
    t0 = time.monotonic()
    failures = []
    # distributional pairings against 10 random interior bumps
    rng = np.random.default_rng(DEFAULT_SEED)
    radius = 0.125
    lo = np.array([radius, radius])
    hi = np.array([1.0 - radius, 1.0 - radius])
    fam = [bump_test(lo + (hi - lo) * rng.uniform(size=2), radius)
           for _ in range(10)]
    # the budget the CLI hands the pairing: its share of the gate
    vals, _ = weak_trace_pairing(
        twisting8, fam, [PAIRING_SHARE * 1e-6 * psi.c1_norm for psi in fam])
    rel = max(abs(v) / psi.c1_norm for v, psi in zip(vals, fam))
    if rel > 1e-6:
        failures.append(f"pairing {rel:.3e} of the C1 norm > 1e-6")

    # ball averages oscillate with a persistent subsequence gap
    S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
    probe = weak_trace_ball_average(twisting12, S, (1.0 / 3.0, 0.0), RADII)
    gap = abs(float(np.mean(probe.estimates[0::2]))
              - float(np.mean(probe.estimates[1::2])))
    if not probe.oscillating:
        failures.append("oscillation not detected")
    if gap < 0.01:
        failures.append(f"subsequence gap {gap:.4f} < 0.01")

    # the candidate limit 0 is rejected at alpha = 0.5
    rep = one_sided_ap_lim(twisting8, S, (1.0 / 3.0, 0.0), (0.0, 0.0),
                           (0.5,), RADII, samples=100_000,
                           seed=DEFAULT_SEED)
    if rep.classification != AP_LIM_REJECTED:
        failures.append(f"aplim {rep.classification}")
    if time.monotonic() - t0 > 60.0:
        failures.append("over 60s budget")
    _finish(5, failures,
            f"pairings <= {rel:.1e} of C1 norm, gap {gap:.4f}, "
            f"w=0 rejected at alpha=0.5", t0)


def test_criterion_06_capillary_boundary_behaviour(capillary):
    t0 = time.monotonic()
    failures = []
    S = circle_interface((0.0, 0.0), 1.0, outward=True)
    x0 = (1.0, 0.0)

    probes = {
        "ball": weak_trace_ball_average(capillary, S, x0, RADII),
        "curvilinear": weak_trace_curvilinear(capillary, S, x0, 0.1, RADII),
        "flux": weak_trace_sphere_flux(capillary, S, x0, RADII),
    }
    extr = {name: p.extrapolated for name, p in probes.items()}
    for name, value in extr.items():
        if abs(value - 1.0) > 1e-2:
            failures.append(f"{name} extrapolates to {value:.4f}")

    rep = one_sided_ap_lim(capillary, S, x0, S.normal_at(x0),
                           (0.2, 0.1, 0.05), RADII, samples=100_000,
                           seed=DEFAULT_SEED)
    if rep.classification != AP_LIM_CONFIRMED:
        failures.append(f"aplim {rep.classification}")

    na = nalpha_density(capillary, S, x0, 0.2, RADII, samples=100_000,
                        seed=DEFAULT_SEED)
    if na.ratios[-1] > 1e-2:
        failures.append(f"deviation ratio {na.ratios[-1]:.3e} > 1e-2")

    # extremality: total curvature mass equals the perimeter
    total_div = float(_quad.adaptive_ball_rows(
        lambda rows, pts: capillary.analytic_div(pts[0])[None],
        [(0.0, 0.0)], 1.0, 2, rtol=1e-10, atol=1e-12)[0][0])
    perimeter = 2.0 * math.pi
    if abs(total_div - perimeter) > 1e-6:
        failures.append(f"curvature mass {total_div!r} != perimeter")
    if time.monotonic() - t0 > 60.0:
        failures.append("over 60s budget")
    _finish(6, failures,
            f"estimators {extr['ball']:.4f}/{extr['curvilinear']:.4f}/"
            f"{extr['flux']:.4f}, w=nu confirmed, N_alpha ratio "
            f"{na.ratios[-1]:.1e}, curvature mass off by "
            f"{abs(total_div - perimeter):.1e}", t0)


def test_criterion_07_convexity_and_mollification(stream_bump):
    t0 = time.monotonic()
    failures = []
    kernel = make_mollifier(0.05, 2)
    vertical = constant_field((0.0, 1.0), name="constant-vertical")
    grid = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), resolution=(21, 21))
    rep = jensen_check(vertical, phi_quadratic, kernel, grid, tol=1e-6)
    margins = [c.margin for c in rep.checks if c.verdict in ("PASS", "FAIL")]
    worst = min(margins)
    if rep.verdict != "PASS" or worst < -1e-6:
        failures.append(f"gauge domination margin {worst:.3e}")

    smooth = mollify(stream_bump, kernel)
    rng = np.random.default_rng(DEFAULT_SEED)
    pts = np.stack([rng.uniform(-2.5, 2.5, 64), rng.uniform(0.4, 2.4, 64)],
                   axis=1)
    fd = float(np.max(np.abs(numeric_divergence(smooth, pts, h=1e-4))))
    if fd > 1e-6:
        failures.append(f"mollified FD divergence {fd:.3e} > 1e-6")
    if time.monotonic() - t0 > 30.0:
        failures.append("over 30s budget")
    _finish(7, failures,
            f"domination margin {worst:.2f}, mollified FD div {fd:.1e}",
            t0)


def test_criterion_08_separable_blowup_radius():
    t0 = time.monotonic()
    failures = []
    rels = []
    for gamma, rho0, psi0 in [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0),
                              (0.5, 2.0, 1.0)]:
        rep = separable_demo(gamma, rho0, psi0)
        rel = next(c for c in rep.checks
                   if c.name == "numeric blow-up radius vs closed form")
        rels.append(rel.value)
        if rel.value > 1e-2:
            failures.append(
                f"({gamma},{rho0},{psi0}) off by {rel.value:.3e}")
    if time.monotonic() - t0 > 5.0:
        failures.append("over 5s budget")
    _finish(8, failures,
            f"blow-up radii within {max(rels):.1e} of rho0*exp(1/(gamma"
            f"*psi0)) for all three parameter triples", t0)


def test_criterion_09_pointwise_quadratic_inequality():
    t0 = time.monotonic()
    failures = []
    xi = hash_unit_ball_field(2)
    rng = np.random.default_rng(DEFAULT_SEED)
    dirs = rng.normal(size=(10_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * (rng.uniform(size=10_000) ** 0.5)[:, None]
    rep = quadratic_inequality_check(xi, pts, tol=1e-12)
    by = {c.name: c for c in rep.checks}
    margin = by["lifted quadratic margin"].value
    ident = by["margin equals (1 - |xi|^2)/2"].value
    if margin < -1e-12:
        failures.append(f"margin {margin!r} < -1e-12")
    if ident > 1e-12:
        failures.append(f"closed-form deviation {ident:.3e} > 1e-12")
    _finish(9, failures,
            f"min margin {margin:.2e} over 10^4 unit-ball samples, "
            f"closed-form match {ident:.1e}", t0)


def test_criterion_10_potential_field_round_trip():
    t0 = time.monotonic()
    failures = []
    pot = counterexample_potential(4, AUTO)
    closed = make_counterexample_field(4, AUTO)

    grid = default_certification_grid(50)
    rho_ax, z_ax = grid.axes()
    RHO, Z = np.meshgrid(rho_ax, z_ax, indexing="ij")
    pts = np.zeros((RHO.size, 4))
    pts[:, 0] = RHO.ravel()
    pts[:, -1] = Z.ravel()

    rebuilt = potential_to_field(pot)
    field_err = float(np.max(np.linalg.norm(
        rebuilt.eval(pts) - closed.eval(pts), axis=1)))
    if field_err > 1e-12:
        failures.append(f"field mismatch {field_err:.3e} > 1e-12")

    recovered = field_to_potential(closed)
    pot_err = float(np.max(np.abs(recovered.V(RHO, Z) - pot.V(RHO, Z))))
    if pot_err > 1e-8:
        failures.append(f"potential mismatch {pot_err:.3e} > 1e-8")
    _finish(10, failures,
            f"field from potential matches to {field_err:.1e}, recovered "
            f"potential matches to {pot_err:.1e} on the 50x50 grid", t0)
