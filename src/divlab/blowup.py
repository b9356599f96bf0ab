"""Rescaling analysis around interface points: zooms of a field about a
point, deviation-set densities, the quadratic pointwise inequality, and
per-scale trace consistency.

Everything here is per-scale evidence: finite sequences cannot certify a
limit, so probes report defects together with fitted decay exponents and
leave the limit statement to the reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from numpy.random import default_rng

from . import _quad
from .calculus import annulus_flux_residual, bump_family, bump_test
from .fields import Disk, EddyStack, Exclusion, VectorField
from .report import INCONCLUSIVE, CheckResult, VerificationReport
from .trace import OrientedInterface, DensityProbe, _eddy_pairings, \
    check_radii, deviation_densities, sampling_error, \
    weak_trace_ball_average

__all__ = [
    "rescale", "nalpha_density", "finest_ratio_check",
    "quadratic_inequality_check",
    "blowup_trace_consistency", "ConsistencyReport", "hash_unit_ball_field",
]

# The blow-up gates one number, the final half-space pairing defect
# |lhs - T*b| against final_tol, and its quadratures share the absolute
# budget PAIRING_SHARE * final_tol.  The budget is absolute because the gate
# is: a relative rule would divide by |T*b|, which is 0 where the trace is.
# The flat boundary term b takes BOUNDARY_SLICE of the budget over
# max(1, |T|), since its error enters the defect times |T|; the pairing lhs
# takes the rest, half for the outer t-quadrature and half for the inner
# s-rows per unit length of the t-interval.  The INFO diagnostics, the decay
# exponents included, take no share.
PAIRING_SHARE = 1e-2
BOUNDARY_SLICE = 1e-2


def hash_unit_ball_field(dim: int = 2) -> VectorField:
    """Deterministic rough field with values in the closed unit ball.

    A coordinate hash (fractional parts of large sine multiples) picks a
    direction and a radius at every point.  The result is measurable,
    reproducible without any RNG state, and discontinuous everywhere at
    macroscopic scales: a stress input for pointwise inequalities.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    coefs = 12.9898 + 78.233 * np.arange(dim)[None, :] \
        + 37.719 * np.arange(dim + 1)[:, None]

    def ev(pts):
        phases = np.sin(pts @ coefs.T + 0.1 * np.arange(dim + 1))
        u = (phases * 43758.5453123) % 1.0
        raw = 2.0 * u[:, :dim] - 1.0
        norms = np.linalg.norm(raw, axis=1)
        safe = np.where(norms > 1e-12, norms, 1.0)
        dirs = raw / safe[:, None]
        dirs[norms <= 1e-12] = 0.0
        radius = u[:, dim] ** (1.0 / dim) * (1.0 - 1e-12)
        return radius[:, None] * dirs

    return VectorField(dim=dim, eval=ev, sup_bound=1.0,
                       name=f"hash-ball:{dim}d")


def rescale(z: VectorField, x0, r: float) -> VectorField:
    """Zoom the field in on x0 at scale r: the rescaled field reads the
    original at x0 + r*y, so values (and the sup bound) are preserved.
    A declared disk or eddy stack is mapped once, by y = (x - x0) / r; the
    eddies' calibration is invariant under the zoom."""
    if r <= 0:
        raise ValueError("scale must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != z.dim:
        raise ValueError("center dimension mismatch")

    def ev(pts):
        return z.eval(x0 + r * pts)

    adiv = None
    if z.analytic_div is not None:
        adiv = lambda pts: r * z.analytic_div(x0 + r * pts)
    evj = None
    if z.eval_jacobian is not None:
        def evj(pts):
            vals, J = z.eval_jacobian(x0 + r * pts)
            return vals, r * J
    excl = tuple(
        Exclusion(e.label + " rescaled",
                  lambda pts, e=e: e.distance(x0 + r * pts) / r)
        for e in z.smooth_exclusion)
    disk = None
    if z.disk is not None:
        disk = Disk(tuple(((np.asarray(z.disk.center) - x0) / r).tolist()),
                    z.disk.radius / r)
    eddies = None
    if z.eddies is not None:
        eddies = EddyStack((z.eddies.centers - x0) / r, z.eddies.radii / r,
                           z.eddies.calibration)
    return VectorField(dim=z.dim, eval=ev, sup_bound=z.sup_bound,
                       name=f"{z.name}:zoom(r={r:g})",
                       analytic_div=adiv, eval_jacobian=evj,
                       smooth_exclusion=excl, disk=disk, eddies=eddies)


# ---------------------------------------------------------------------------
# deviation-set densities

def nalpha_density(xi: VectorField, S: OrientedInterface, x0, alpha: float,
                   radii, samples: int = 100_000, seed: int = 0,
                   ratio_tol: Optional[float] = None) -> DensityProbe:
    """Density ratios of the deviation set: one-sided points where the
    field differs from the interface normal at x0 by at least alpha.

    The set is the one `one_sided_ap_lim` samples with the candidate
    limit set to the normal, in the original coordinates.  Points where
    the field is undefined count as deviating.  Without ratio_tol the
    lattice is drawn at the ceiling `samples`; with it, in the rounds of
    `trace._lattice_sizes` until `finest_ratio_check` decides.
    """
    x0, nu = S.frame(xi, x0)

    # normalization audit on a fixed sample cloud near x0, to 1e-6
    rng = default_rng(424242)
    cloud = x0 + rng.uniform(-1.0, 1.0, size=(4096, 2))
    if xi.disk is not None:
        cloud = cloud[xi.disk.contains(cloud)]
    if cloud.shape[0]:
        sup = float(np.max(np.linalg.norm(xi.eval(cloud), axis=1)))
        if sup > 1.0 + 1e-6:
            raise ValueError(f"field is not normalized: sampled sup "
                             f"{sup:.6f} exceeds 1")

    resolved = None if ratio_tol is None else (
        lambda probes: finest_ratio_check(
            probes[0], alpha, ratio_tol).verdict != INCONCLUSIVE)
    return deviation_densities(xi, x0, nu, nu, (alpha,), radii, samples,
                               seed, resolved)[0]


def finest_ratio_check(probe: DensityProbe, alpha: float,
                       ratio_tol: float) -> CheckResult:
    """The nalpha gate: the deviation ratio at the finest radius must lie
    below ratio_tol, with `sampling_error` as its error."""
    return CheckResult.from_residual(
        "deviation ratio at the finest radius", probe.ratios[-1], ratio_tol,
        detail=f"alpha={alpha:g}, r={probe.radii[-1]:g}, stderr "
               f"{probe.stderrs[-1]:.2g}; {probe.draws()}",
        error=sampling_error(probe.stderrs[-1]))


# ---------------------------------------------------------------------------
# pointwise quadratic inequality

def quadratic_inequality_check(xi: VectorField, points,
                               tol: float = 1e-12) -> VerificationReport:
    """At every sample, the lifted field z = xi + e_n obeys
    z_n >= |z|^2 / 2; the margin has the closed form (1 - |xi|^2)/2, which
    doubles as an independent oracle for the computed margin.
    """
    pts = np.asarray(points, dtype=float)
    vals = xi.eval(pts)
    norms = np.linalg.norm(vals, axis=1)
    sup = float(np.max(norms))
    rep = VerificationReport()
    if sup > 1.0 + tol:
        rep.add(CheckResult.from_margin(
            "normalization |xi| <= 1", sup, tol, 1.0 + tol - sup))
        return rep

    z = vals.copy()
    z[:, -1] += 1.0
    margin = z[:, -1] - 0.5 * np.sum(z * z, axis=1)
    worst = int(np.argmin(margin))
    rep.add(CheckResult.from_margin(
        "lifted quadratic margin", float(margin[worst]), tol,
        float(margin[worst]),
        detail=f"argmin at {pts[worst].tolist()}"))
    oracle = 0.5 * (1.0 - norms ** 2)
    ident = float(np.max(np.abs(margin - oracle)))
    rep.add(CheckResult.from_residual(
        "margin equals (1 - |xi|^2)/2", ident, tol))
    rep.add(CheckResult.info("sampled sup of |xi|", sup))
    return rep


# ---------------------------------------------------------------------------
# per-scale trace consistency

def _halfspace_lhs(zk: VectorField, psi_family, nu: np.ndarray,
                   atol: float) -> tuple[list[float], float]:
    """integral over (rescaled domain) ∩ (inward half plane) ∩ supp psi of
    psi * div z_k + grad psi . z_k, in the coordinates of the zoom z_k,
    for each psi of a family that `bump_family` accepts (one radius and
    height).  A disk field's zoom must be centered on the rim.

    The bumps are the rows of one `_quad.adaptive_gauss_nested` batch,
    outer in t and inner in s, each stopping on its own test; the inner
    s-rows of every open bump go to the integrand together, one call per
    level for the whole family at this scale.  Each pairing is held to
    the absolute budget atol.  Returns the pairings and the achieved
    error estimate, the largest of theirs.  An eddy stack's pairings go
    to `_eddy_pairings`, each held to atol, and the estimate is again the
    largest of theirs."""
    if zk.eddies is not None:
        # divergence-free eddies: the div term vanishes identically
        values, estimates = _eddy_pairings(zk.eddies, zk, psi_family,
                                           [atol] * len(psi_family))
        return values, max(estimates)

    # the rescaled domain begins at inward depth s_star(t) from the flat
    # line: 0 for a global field, the sagitta of the rescaled disk of
    # radius R_k for a rim point, which is the zoom's origin
    R_k = None if zk.disk is None else zk.disk.radius
    if zk.analytic_div is None:
        raise ValueError("divergence information required")
    centers, origin = bump_family(psi_family)
    radius = origin.radius
    tdir = np.array([-nu[1], nu[0]])
    # per-bump scalar projections: a matrix product rounds differently
    t_c = np.array([float(c @ tdir) for c in centers])
    s_c = np.array([float(c @ (-nu)) for c in centers])

    def lo(bumps, t):
        # the depths stay scalar arithmetic: numpy's array `** 2` rounds
        # differently from the scalar power for about 1 input in 1,000,
        # which would move the s-nodes and the reported digits
        s_star = np.zeros(t.shape)
        if R_k is not None:
            s_star = np.array([
                R_k * (1.0 - math.sqrt(max(1.0 - (u / R_k) ** 2, 0.0)))
                for u in t.ravel()]).reshape(t.shape)
        # an empty row (hi <= lo) has a == b and integrates to 0
        return np.minimum(np.maximum(s_star, s_c[bumps, None] - radius),
                          s_c[bumps, None] + radius)

    def g(bumps, t, s):
        y = t[:, None, None] * tdir + s[:, :, None] * -nu
        value, grad = origin.value_and_gradient(
            (y - centers[bumps, None, :]).reshape(-1, 2))
        y = y.reshape(-1, 2)
        return (value * zk.analytic_div(y) + np.einsum(
            "ij,ij->i", zk.eval(y), grad)).reshape(s.shape)

    vals, estimates = _quad.adaptive_gauss_nested(
        g, t_c - radius, t_c + radius, lo,
        lambda bumps, t: s_c[bumps, None] + radius, 0.0, atol)
    return [float(v) for v in vals], float(max(estimates))


def _off_interface_div_mass(zk: VectorField, psi_family,
                            rtol: float) -> list[float]:
    """integral of psi |div z_k| over the off-interface support of psi, for
    each psi of a family that shares one radius and height; the bumps are
    the rows of one ball quadrature, one divergence call per level for the
    whole family at this scale."""
    if zk.analytic_div is None:
        raise ValueError("divergence information required")
    centers, origin = bump_family(psi_family)

    def g(rows, pts):
        out = np.zeros(pts.shape[:2])
        inside = np.ones(out.shape, dtype=bool) if zk.disk is None else \
            zk.disk.contains(pts.reshape(-1, zk.dim)).reshape(out.shape)
        if np.any(inside):
            psi = origin.value((pts - centers[rows, None, :])[inside])
            out[inside] = psi * np.abs(zk.analytic_div(pts[inside]))
        return out

    masses, _ = _quad.adaptive_ball_rows(g, centers, origin.radius, zk.dim,
                                         rtol=max(rtol, 1e-8), atol=1e-13)
    return [float(m) for m in masses]


def _diagnostic(rep: VerificationReport, radii, name: str, fit_note: str,
                defect) -> list[float]:
    """defect(k) at every scale k of an INFO-only diagnostic, reported as
    its final value and decay exponent.  It gates nothing: a scale whose
    quadrature fails leaves NaN in its row, and the diagnostic is SKIPPED
    with the first failure and no exponent fitted."""
    defects = [math.nan] * len(radii)
    failed = ""
    for k in range(len(radii)):
        try:
            defects[k] = defect(k)
        except _quad.QuadratureError as exc:
            failed = failed or f"scale {k}: {exc}"
    if failed:
        rep.add(CheckResult.skipped(name, failed))
    else:
        exponent = _decay_exponent(radii, defects)
        rep.add(CheckResult.info(
            f"{name}, final", defects[-1],
            detail=f"decay exponent {exponent:.3f}{fit_note}"))
    return defects


def _decay_exponent(radii, defects) -> float:
    r = np.asarray(radii, dtype=float)[-3:]
    d = np.abs(np.asarray(defects, dtype=float))[-3:]
    if np.any(d <= 0.0):
        return math.inf  # identically zero tail: faster than any power
    coef = np.polyfit(np.log(r), np.log(d), 1)
    return float(coef[0])


@dataclass
class ConsistencyReport(VerificationReport):
    """Blow-up consistency report with one row of defects per scale."""
    rows: list = dc_field(default_factory=list)


def blowup_trace_consistency(field: VectorField, S: OrientedInterface, x0,
                             radii, trace_value: Optional[float] = None,
                             rtol: float = 1e-8,
                             final_tol: float = 1e-2) -> ConsistencyReport:
    """Per-scale evidence for the blow-up trace identities at the point x0
    of S, from the zooms z_k(y) = field(x0 + r_k y) at the strictly
    decreasing radii r_k, against five bumps of radius 0.5 centered along
    the interface tangent:

    (a) off-interface divergence mass against each test bump,
    (b) half-space pairing against the trace value times the flat boundary
        term, with the rescaled-domain geometry handled exactly,
    (c) punctured-ball flux balance as a decay diagnostic (global fields
        only).
    Defect trends are summarized by fitted decay exponents; only the final
    defect of (b) gates the verdict.  A scale where the quadrature of (a)
    or (c) fails leaves NaN in its row, and that diagnostic is SKIPPED.
    On a disk field x0 and nu must pass `Disk.check_outward_rim`.

    The quadratures of (b) share the absolute budget PAIRING_SHARE *
    final_tol: BOUNDARY_SLICE of it over max(1, |T|) for the flat boundary
    term, and the rest split in half between the outer t-quadrature and
    the inner s-rows of each pairing, or held whole by each eddy pairing.
    The gate carries the worst achieved estimate over the scales as its
    error, and its detail states it next to the budget.  rtol sets
    only the relative tolerance of (a), no tighter than 1e-8; (c) runs at
    1e-9.  The INFO diagnostics and every decay exponent, the one of (b)
    included, get no share of their own: they report what the gated
    budget resolves.
    """
    radii = check_radii(radii)
    if not 0.0 < final_tol < math.inf:
        raise ValueError(f"final_tol must be finite and positive; got "
                         f"{final_tol}: it sets the pairing's budget")
    x0, nu = S.frame(field, x0)
    if field.disk is not None:
        field.disk.check_outward_rim(x0, nu)
    zooms = [rescale(field, x0, r) for r in radii]
    tdir = np.array([-nu[1], nu[0]])
    rep = ConsistencyReport()

    offsets = np.linspace(-0.6, 0.6, 5)
    psi_family = [bump_test(o * tdir, 0.5) for o in offsets]

    if trace_value is None:
        probe = weak_trace_ball_average(
            field, S, x0, [2.0 ** -m for m in range(3, 9)])
        trace_value = probe.extrapolated
    rep.add(CheckResult.info("trace value used", trace_value))

    # (a) off-interface divergence mass: bumps translated inward
    shifted = [bump_test(psi.center + 2.0 * psi.radius * (-nu), psi.radius,
                         psi.height) for psi in psi_family]
    defects_a = _diagnostic(
        rep, radii, "off-interface divergence mass", " over last 3 scales",
        lambda k: max(abs(mass) for mass in
                      _off_interface_div_mass(zooms[k], shifted, rtol)))

    # (b) half-space pairing vs trace * flat boundary term; the boundary
    # term, psi integrated along the tangent line, is the same at every scale
    budget = PAIRING_SHARE * final_tol
    bdry = []
    for psi in psi_family:
        t_c = float(np.asarray(psi.center) @ tdir)
        bdry.append(_quad.adaptive_gauss_1d(
            lambda t: psi.value(np.outer(t, tdir)),
            t_c - psi.radius, t_c + psi.radius, rtol=0.0,
            atol=BOUNDARY_SLICE * budget / max(1.0, abs(trace_value))))
    defects_b, estimates = [], []
    for zk in zooms:
        worst = 0.0
        lhs_family, estimate = _halfspace_lhs(
            zk, psi_family, nu, (1.0 - BOUNDARY_SLICE) * budget)
        for lhs, b in zip(lhs_family, bdry):
            worst = max(worst, abs(lhs - trace_value * b))
        defects_b.append(worst)
        estimates.append(estimate)
    exp_b = _decay_exponent(radii, defects_b)
    worst_estimate = max(estimates)
    detail = (f"decay exponent {exp_b:.3f} over last 3 scales; quadrature "
              f"estimate {worst_estimate!r} against the share "
              f"{PAIRING_SHARE:g} of the final gate: {budget!r}")
    rep.add(CheckResult.from_residual(
        "half-space pairing defect, final", defects_b[-1], final_tol,
        detail=detail, error=worst_estimate))

    # (c) punctured-ball flux balance in original coordinates
    if field.disk is None:
        defects_c = _diagnostic(
            rep, radii, "punctured-ball flux residual", "; diagnostic only",
            lambda k: abs(annulus_flux_residual(
                field, x0, 0.5 * radii[k], radii[k], rtol=1e-9)))
    else:
        defects_c = [math.nan] * len(radii)
        rep.add(CheckResult.skipped(
            "punctured-ball flux residual",
            "domain-restricted field: annuli leave the domain"))

    for k, r in enumerate(radii):
        rep.rows.append({
            "k": k, "radius": r,
            "off_interface_div_mass": defects_a[k],
            "half_space_defect": defects_b[k],
            "punctured_ball_residual": defects_c[k],
        })
    return rep
