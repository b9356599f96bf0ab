"""Flow-tube machinery, strip identities, potential certification, and the
separable-ansatz blow-up demonstration.

The vertical lift X = eta + epsilon e_n has strictly positive last
component, so trajectories cross every height exactly once.  Transport of
the seed-plane Jacobian delta along the flow turns the divergence theorem
into the identity  integral_A (eta_n + epsilon) dq = epsilon * |L(A)|,
whose defect is measured against an independent quadrature of the left
side.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import default_rng

from . import _ode, _quad
from .calculus import GridSpec
from .fields import (CylindricalPotential, InputError, VectorField,
                     gamma_bounds)
from .report import INCONCLUSIVE, CheckResult, VerificationReport

__all__ = [
    "MonotonicityViolation", "FlowTube",
    "RigidityCertificate", "flow_tubes", "check_strip", "strip_identity_2d",
    "certify_potential", "default_certification_grid", "gamma_bounds",
    "separable_demo", "CERTIFIED", "VIOLATED", "INCONCLUSIVE",
]


# The flow's share of a transport residual's gate tau: the flow's error
# bound must stay within ODE_SHARE * tau.  The Dormand-Prince rtol is that
# share over ODE_ERROR_GROWTH * |top flux|, clamped to [ODE_RTOL_MIN,
# ODE_RTOL_MAX]: the floor bounds the work of a gate no flow can meet, the
# cap keeps a loose gate's trajectories resolved.  The growth factor is a
# first guess, not a bound: the summed local errors of a fifth-order pair
# over its ~rtol^(-1/5) steps grow like rtol^(4/5), so the bound over
# rtol * |top| rises as rtol falls (1.1 at rtol 1e-6, 7 at 1e-10 on the
# stream bump tube's 32^2 and 64^2 levels; 2.8 and 27 on a 4^2 level).
# Where a level that can still pass its gate breaks its share, the seeds
# flow once more at rtol * (ODE_REFLOW_AIM * share / bound)^(5/4), which
# aims the bound at that fraction of the share.
ODE_SHARE = 1e-2
ODE_ERROR_GROWTH = 10.0
ODE_REFLOW_AIM = 0.5
ODE_RTOL_MIN = 1e-12
ODE_RTOL_MAX = 1e-6

# relative tolerance of the strip identity's two flux quadratures
STRIP_RTOL = 1e-10


class MonotonicityViolation(RuntimeError):
    """The lifted field's vertical component was not positive."""


def _trace_shear(vals: np.ndarray, J: np.ndarray) -> np.ndarray:
    """tr B for the height-parametrized flow Jacobian, from the lifted
    field's values and Jacobian at the same points.

    B collects how horizontal velocity shear and vertical speed gradients
    tilt the transported volume element.
    """
    xn = vals[:, -1]
    div_h = np.add.reduce(J.diagonal(axis1=1, axis2=2)[:, :-1], axis=1)
    shear = np.add.reduce(vals[:, :-1] * J[:, -1, :-1], axis=1)
    np.divide(div_h, xn, out=div_h)
    np.divide(shear, xn * xn, out=shear)
    return np.subtract(div_h, shear, out=div_h)


@dataclass
class FlowTube:
    """One seed level's transport identity.  The flow ran at the
    Dormand-Prince tolerance `rtol`, budgeted from the gate `residual_tol`;
    `ode_error` bounds how far the flow's error moves `residual`: epsilon
    times the cell measure times the summed local error estimates of every
    seed's transported Jacobian."""
    A: Sequence[tuple[float, float]]
    h0: float
    seeds_per_axis: int
    top_integral: float
    bottom_measure: float
    residual: float
    R_bound: float
    delta_min: float
    residual_tol: float
    rtol: float
    ode_error: float
    displacement_margin: Optional[float] = None
    displacement_bound: Optional[float] = None

    def gate_check(self, prefix: str = "") -> CheckResult:
        """The residual against its gate residual_tol, with the flow's
        error bound as its error; the detail states the bound next to its
        share ODE_SHARE * residual_tol."""
        return CheckResult.from_residual(
            f"{prefix}transport identity residual", self.residual,
            self.residual_tol, error=self.ode_error,
            detail=f"ODE error bound {self.ode_error!r} against the share "
                   f"{ODE_SHARE:g} of the gate: "
                   f"{ODE_SHARE * self.residual_tol!r}")

    def to_report(self) -> VerificationReport:
        rep = VerificationReport()
        rep.add(self.gate_check())
        rep.add(CheckResult.from_margin(
            "transported Jacobian positivity", self.delta_min, 0.0,
            self.delta_min))
        cap = (2.0 * self.R_bound) ** len(self.A)
        rep.add(CheckResult.from_margin(
            "bottom measure bounded by enclosing box",
            self.bottom_measure, 1e-9, cap - self.bottom_measure))
        if self.displacement_margin is not None:
            rep.add(CheckResult.from_margin(
                "displacement bound", self.displacement_bound or 0.0,
                1e-9, self.displacement_margin))
        rep.add(CheckResult.info("top integral", self.top_integral))
        rep.add(CheckResult.info("bottom measure", self.bottom_measure))
        rep.add(CheckResult.info("ODE relative tolerance", self.rtol))
        return rep


def _check_inputs(eta: VectorField, epsilon: float, A, h0: float,
                  residual_tol: float) -> None:
    """Refuse, before anything is allocated, a lift epsilon or a residual
    gate that is not finite and positive (the flow's budget divides by the
    gate), a seed box that is not 1D or 2D (the top flux is integrated
    over those only) or does not match the field, where a planar field
    over a 2D box stands for its extrusion, and a field without an
    analytic Jacobian, which the transport needs; then audit the field at
    128 points of the box: a declared divergence that is zero, nothing
    alive below height zero, and a lift epsilon above the sampled
    downdraft."""
    for what, value in (("lift epsilon", epsilon),
                        ("residual tolerance", residual_tol)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{what} {value!r} is not finite and "
                                 "positive")
    if not 1 <= len(A) <= 2:
        raise InputError(f"seed box of dimension {len(A)}: the flow "
                             "tube takes boxes of dimension 1 or 2")
    if eta.dim != len(A) + 1 and not (eta.dim == 2 and len(A) == 2):
        raise InputError(f"seed box of dimension {len(A)} does not "
                             f"match a field of dimension {eta.dim}")
    if eta.analytic_div is None:
        raise InputError(
            "flow tube needs a certified divergence-free field")
    if eta.eval_jacobian is None:
        raise InputError(f"{eta.name} has no analytic Jacobian; "
                             "flow transport needs one")
    rng = default_rng(20260819)
    los = np.array([lo for lo, _ in A] + [0.0])
    his = np.array([hi for _, hi in A] + [h0])
    pts = los + (his - los) * rng.uniform(0.0, 1.0, size=(128, len(A) + 1))
    if eta.dim < pts.shape[1]:
        pts = pts[:, [0, -1]]   # the planar section of the extruded box
    div = eta.analytic_div(pts)
    if np.max(np.abs(div)) > 1e-10:
        raise InputError("field's declared divergence is not zero")
    below = pts.copy()
    below[:, -1] = -np.abs(below[:, -1]) - 1e-6
    if np.max(np.abs(eta.eval(below))) > 0.0:
        raise InputError("field does not vanish below height zero")
    neg_part = np.maximum(-eta.eval(pts)[:, -1], 0.0)
    if epsilon <= float(np.max(neg_part)):
        raise InputError(
            f"epsilon {epsilon} does not dominate the sampled downdraft "
            f"{float(np.max(neg_part)):.3e}")


def _seed_transport(eta: VectorField, epsilon: float, A, h0: float,
                    grids: Sequence[int], rtol: float, record: bool):
    """Flow midpoint seed grids on A x {h0}, grids[i] seeds per axis each,
    along the lift X = eta + epsilon e_n down to height zero as one batch.

    The flow is parametrized by height, so every seed advances in
    lockstep; the last state column is the transported seed-plane
    Jacobian delta.  The right-hand side makes one `eval_jacobian` call
    of eta per stage, adds epsilon to the last value column (X's Jacobian
    is eta's) and reduces each grid's rows to the smallest delta and
    widest horizontal excursion it sees.  Each seed sums the |y5 - y4|
    estimates of its delta over the accepted steps.  Returns per grid
    (seeds, cell measure, final states, smallest delta, widest excursion,
    bound on the flow's error in the bottom measure: cell times the sum
    over the grid's seeds), and with `record` the last grid's (height,
    states) at the seed height and after every accepted step.

    A planar eta over a 2D box stands for its extrusion, which neither
    moves nor depends on x2: only the seeds of one q1 column per grid are
    flowed, and the states are copied along q2 into the grid's order.
    The copies would have taken the same adaptive steps, since the x2
    column's error estimate is exactly zero; each flowed seed's error
    counts once per copy.  The widest excursion is then that of x1 alone;
    the held q2 lies in the box, whose corner `flow_tubes` puts in R_bound.
    """
    section = eta.dim < len(A) + 1
    grid_seeds = [_quad.midpoint_grid(A, [s] * len(A)) for s in grids]
    parts = [seeds[::s, :1] if section else seeds
             for s, (seeds, _) in zip(grids, grid_seeds)]
    bounds = np.cumsum([0] + [part.shape[0] for part in parts])
    starts = bounds[:-1]
    n = eta.dim
    nseeds = int(bounds[-1])
    min_delta = np.full(len(grids), math.inf)
    max_span = np.zeros(len(grids))

    # one buffer for every stage's points: eval_jacobian keeps no reference
    pos = np.empty((nseeds, n))
    # a fresh sum: += on the last column would keep -0.0 where + 0.0 gives 0.0
    shift = np.zeros(n)
    shift[-1] = epsilon

    def rhs(h, Y):
        pos[:, :-1] = Y[:, :-1]
        pos[:, -1] = h
        vals, J = eta.eval_jacobian(pos)
        vals = vals + shift
        xn = vals[:, -1]
        mn = float(xn.min())
        if mn <= 0.0:
            bad = pos[np.argmin(xn)]
            raise MonotonicityViolation(
                f"vertical speed {mn:.3e} <= 0 at {bad.tolist()}")
        np.maximum(max_span, np.maximum.reduceat(
            np.abs(Y[:, :-1]).max(axis=1), starts), out=max_span)
        tr = _trace_shear(vals, J)
        dY = np.empty_like(Y)
        np.divide(vals[:, :-1], xn[:, None], out=dY[:, :-1])
        np.multiply(tr, Y[:, -1], out=dY[:, -1])
        np.minimum(min_delta, np.minimum.reduceat(Y[:, -1], starts),
                   out=min_delta)
        return dY

    def extrude(Y, i):
        if not section:
            return Y
        s = grids[i]
        q2 = grid_seeds[i][0][:s, 1]
        out = np.empty((Y.shape[0] * s, 3))
        out[:, 0] = np.repeat(Y[:, 0], s)
        out[:, 1] = np.tile(q2, Y.shape[0])
        out[:, 2] = np.repeat(Y[:, 1], s)
        return out

    Y0 = np.concatenate([np.concatenate(parts), np.ones((nseeds, 1))],
                        axis=1)
    last = slice(starts[-1], nseeds)
    path = [(h0, Y0[last].copy())] if record else []
    Y = Y0
    delta_error = np.zeros(nseeds)
    for t, _, step, Y, local, _ in _ode._dp_steps(rhs, h0, Y0, 0.0, rtol,
                                                  1e-13, _ode.MAX_STEPS):
        delta_error += np.abs(local[:, -1])
        if record:
            path.append((t + step, Y[last].copy()))

    level_error = np.add.reduceat(delta_error, starts)
    out = []
    for i, (seeds, cell) in enumerate(grid_seeds):
        copies = grids[i] if section else 1
        out.append((seeds, cell, extrude(Y[bounds[i]:bounds[i + 1]], i),
                    float(min_delta[i]), float(max_span[i]),
                    cell * copies * float(level_error[i])))
    return out, [(h, extrude(P, -1)) for h, P in path]


def flow_tubes(eta: VectorField, epsilon: float, A, h0: float,
               seed_levels: Sequence[int], plot_seeds: Optional[int] = None,
               gauge_constant: Optional[float] = None,
               residual_tol: float = 1e-6
               ) -> tuple[list[FlowTube], Optional[np.ndarray]]:
    """Flow tubes of the lift X = eta + epsilon e_n at several seed
    levels, from one flow; epsilon must be finite, positive and above the
    downdraft of eta sampled over the box.

    Each level seeds a midpoint grid with that many seeds per axis on
    A x {h0}, and epsilon times its transported bottom measure is
    compared with one independent adaptive quadrature of the top flux.
    Every level's grid, and the `plot_seeds` grid when one is given, flow
    down to height zero as one batch.  Returns one FlowTube per level and
    the plot grid's paths: one row (seed, height, position, delta) per
    seed at the seed height and after every accepted step, or None
    without a plot grid.

    The flow's tolerance comes from the residual gate `residual_tol`
    (tau), which must be finite and positive: the top flux is computed
    first, and the flow runs at rtol = ODE_SHARE * tau / (ODE_ERROR_GROWTH
    * |top|), clamped to [ODE_RTOL_MIN, ODE_RTOL_MAX].  Each tube carries
    that rtol and its flow's error bound `ode_error`, its residual gate's
    error, budgeted at ODE_SHARE * tau.  When a level's bound breaks that
    share while its residual is within the bound of the gate, every grid
    flows once more at a tolerance scaled to meet the share (see
    ODE_REFLOW_AIM), no lower than ODE_RTOL_MIN; at most two flows run.

    A planar field with a 2D box A = A1 x A2 is the tube of its extrusion
    (f1(x1, x3), 0, f2(x1, x3)).  That tube is a product: each trajectory
    is the planar one from (q1, h0) with x2 = q2 held fixed, and the top
    flux is |A2| times the planar top flux over A1.  Both are computed in
    the plane, with the same numbers as the extruded 3D field gives.
    """
    A = [tuple(map(float, ab)) for ab in A]
    _check_inputs(eta, epsilon, A, h0, residual_tol)
    n = eta.dim

    # integrate only the field part; the constant epsilon contributes
    # epsilon * |A| exactly, so a vanishing field gives residual 0.0.  The
    # nodes are q1 (1D rule), or q1 and q2 of one size (nested rule)
    def top_flux(*q):
        pts = np.full((q[0].size, n), h0)
        pts[:, :-1] = np.stack([qi.ravel() for qi in q], axis=1)
        return eta.eval(pts)[:, -1]

    if n == 2:
        depth = math.prod(hi - lo for lo, hi in A[1:])   # |A2|, or 1
        top_field = depth * _quad.adaptive_gauss_1d(
            top_flux, A[0][0], A[0][1], rtol=1e-11, atol=1e-13)
    else:
        (a1, b1), (a2, b2) = A
        vals, _ = _quad.adaptive_gauss_nested(
            lambda rows, x, y: top_flux(
                np.repeat(x, y.shape[1]), y).reshape(y.shape),
            [a1], [b1], lambda rows, x: a2, lambda rows, x: b2, 1e-11, 1e-13)
        top_field = float(vals[0])

    top = top_field + epsilon * math.prod(hi - lo for lo, hi in A)
    corner = max(max(abs(lo), abs(hi)) for lo, hi in A)
    budget = (ODE_SHARE * residual_tol / (ODE_ERROR_GROWTH * abs(top))
              if top else math.inf)
    rtol = min(ODE_RTOL_MAX, max(ODE_RTOL_MIN, budget))

    plot = [] if plot_seeds is None else [plot_seeds]
    grids = [*seed_levels, *plot]

    def level_tubes(flown, rtol):
        tubes = []
        for s, (seeds, cell, final, delta_min, span, bottom_error) in zip(
                seed_levels, flown):
            deltas = final[:, -1]
            bottom = float(cell * np.sum(deltas))
            disp_margin = disp_bound = None
            if gauge_constant is not None:
                disp_bound = max(h0, h0 / gauge_constant)
                disp = np.sqrt(np.sum((final[:, :-1] - seeds) ** 2, axis=1)
                               + h0 * h0)
                disp_margin = float(disp_bound - np.max(disp))
            tubes.append(FlowTube(
                A=A, h0=h0, seeds_per_axis=s,
                top_integral=top, bottom_measure=bottom,
                residual=abs(top - epsilon * bottom),
                R_bound=max(span, corner, h0),
                delta_min=min(delta_min, float(np.min(deltas))),
                residual_tol=residual_tol, rtol=rtol,
                ode_error=epsilon * bottom_error,
                displacement_margin=disp_margin,
                displacement_bound=disp_bound))
        return tubes

    flown, path = _seed_transport(eta, epsilon, A, h0, grids, rtol,
                                  record=bool(plot))
    tubes = level_tubes(flown, rtol)
    # a level whose residual the flow's error could still bring inside the
    # gate, and whose bound broke its share, is worth one tighter flow
    share = ODE_SHARE * residual_tol
    worst = max((t.ode_error for t in tubes if t.ode_error > share
                 and t.residual - t.ode_error <= residual_tol), default=0.0)
    if worst and rtol > ODE_RTOL_MIN:
        rtol = max(ODE_RTOL_MIN,
                   rtol * (ODE_REFLOW_AIM * share / worst) ** 1.25)
        flown, path = _seed_transport(eta, epsilon, A, h0, grids, rtol,
                                      record=bool(plot))
        tubes = level_tubes(flown, rtol)

    table = None
    if plot:
        seeds = flown[-1][0]
        ones = np.ones((seeds.shape[0], 1))
        table = np.concatenate([np.hstack([seeds, h * ones, Y[:, :-1],
                                           h * ones, Y[:, -1:]])
                                for h, Y in path])
    return tubes, table


# ---------------------------------------------------------------------------
# planar strip identity

def check_strip(eta: VectorField, r: float, t: float) -> None:
    """Refuse, before any field call, a strip the identity cannot take: a
    field that is not planar, not certified divergence-free or lives on a
    disk (the strip would leave it), or a half-width r or height t that is
    not finite and positive (a strip of no width or height reads 0 = 0),
    or an r whose width 2r is not a finite float."""
    if eta.dim != 2:
        raise InputError("strip identity is planar")
    if eta.analytic_div is None:
        raise InputError("strip identity needs a certified divergence-free field")
    if not (0.0 < r < math.inf and 0.0 < t < math.inf):
        raise InputError(f"strip location {r:g},{t:g} must be positive "
                         f"and finite")
    if not 2.0 * r < math.inf:
        raise InputError(f"strip half-width {r:g} is too wide: its width "
                         f"2r is not a finite float")
    if eta.disk is not None:
        raise InputError(f"strip identity needs a field on the whole plane; "
                         f"{eta.name!r} lives on the open disk of radius "
                         f"{eta.disk.radius:g}")


def strip_identity_2d(eta: VectorField, r: float, t: float,
                      gauge: Optional[Callable] = None) -> VerificationReport:
    """Box flux balance on the strip [-r, r] x [0, t] (`check_strip`).

    The top flux of the vertical component equals the net side influx of
    the horizontal component; nothing crosses the bottom where the field
    vanishes.  Both fluxes are integrated to STRIP_RTOL.  With a `gauge`,
    a convex function called on an array of |eta_1| values, eta_2 must
    dominate gauge(|eta_1|) at both top corners.
    """
    check_strip(eta, r, t)
    rep = VerificationReport()

    def top(x1):
        pts = np.stack([x1, np.full_like(x1, t)], axis=1)
        return eta.eval(pts)[:, 1]

    def side(x2, sign):
        pts = np.stack([np.full_like(x2, sign * r), x2], axis=1)
        return eta.eval(pts)[:, 0]

    lhs = _quad.adaptive_gauss_1d(top, -r, r, rtol=STRIP_RTOL, atol=1e-14)
    rhs = _quad.adaptive_gauss_1d(lambda s: side(s, -1.0) - side(s, +1.0),
                                  0.0, t, rtol=STRIP_RTOL, atol=1e-14)
    residual = lhs - rhs
    rep.add(CheckResult.from_residual("strip flux identity", residual, 1e-8,
                                      detail=f"lhs={lhs:.12e} rhs={rhs:.12e}"))

    l1 = _quad.adaptive_gauss_1d(lambda x1: np.abs(top(x1)), -r, r,
                                 rtol=1e-6, atol=1e-14)
    cap = 2.0 * t * eta.sup_bound
    rep.add(CheckResult.from_margin("L1 bound on the top flux", l1, 1e-12,
                                    cap - l1))
    if gauge is not None:
        edges = np.array([[-r, t], [r, t]])
        vals = eta.eval(edges)
        margins = vals[:, 1] - gauge(np.abs(vals[:, 0]))
        rep.add(CheckResult.from_margin(
            "gauge decay at strip edges", float(np.min(margins)), 1e-12,
            float(np.min(margins))))
    else:
        rep.add(CheckResult.skipped("gauge decay at strip edges",
                                    "no gauge supplied"))
    rep.add(CheckResult.info("lhs top flux", lhs))
    rep.add(CheckResult.info("rhs side flux", rhs))
    return rep


# ---------------------------------------------------------------------------
# potential certification

@dataclass
class RigidityCertificate:
    label: str
    grid: dict
    conditions: list
    constants: dict
    verdict: str
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        """The declared fields; a witness only when there is one."""
        out = asdict(self)
        if self.witness is None:
            del out["witness"]
        return out


CERTIFIED = "CERTIFIED_SAMPLED"
VIOLATED = "VIOLATED"


def default_certification_grid(resolution: int = 200) -> GridSpec:
    """Log axis in radius spanning six decades, uniform axis in height
    dipping below the interface."""
    return GridSpec(box=((1e-3, 1e3), (-1.0, 10.0)),
                    resolution=(resolution, resolution),
                    spacing=("log", "uniform"))


def certify_potential(P: CylindricalPotential, grid: GridSpec,
                      c: float = 1.0,
                      margin_tol: float = 1e-12) -> RigidityCertificate:
    """Sampled certification of the three potential-side conditions:

    (zero)     V = 0 below the interface,
    (slope)    |grad V| <= rho^(n-2),
    (balance)  rho dV/drho >= c rho^(3-n) (dV/dz)^2.

    The verdict is INCONCLUSIVE, never CERTIFIED, when a margin is NaN.
    """
    if not math.isfinite(margin_tol):
        raise ValueError(f"margin_tol must be finite, got {margin_tol}")
    n = P.dim
    rho_ax, z_ax = grid.axes()
    RHO, Z = np.meshgrid(rho_ax, z_ax, indexing="ij")
    rho = RHO.ravel()
    z = Z.ravel()

    V = P.V(rho, z)
    dr, dz = P.dV(rho, z)

    neg = z <= 0.0
    zero_margin = -float(np.max(np.abs(V[neg]))) if np.any(neg) else 0.0
    zero_arg = None
    if np.any(neg):
        idx = np.flatnonzero(neg)[np.argmax(np.abs(V[neg]))]
        zero_arg = (float(rho[idx]), float(z[idx]))

    slope = np.hypot(dr, dz)
    slope_margin_all = rho ** (n - 2.0) - slope
    i1 = int(np.argmin(slope_margin_all))
    slope_margin = float(slope_margin_all[i1])

    balance_all = rho * dr - c * rho ** (3.0 - n) * dz**2
    i2 = int(np.argmin(balance_all))
    balance_margin = float(balance_all[i2])

    conditions = [
        {"name": "zero below interface", "min_margin": zero_margin,
         "argmin_point": zero_arg},
        {"name": "slope bounded by rho^(n-2)", "min_margin": slope_margin,
         "argmin_point": (float(rho[i1]), float(z[i1]))},
        {"name": "radial-vertical balance", "min_margin": balance_margin,
         "argmin_point": (float(rho[i2]), float(z[i2]))},
    ]
    margins = (zero_margin, slope_margin, balance_margin)
    if any(math.isnan(m) for m in margins):
        # a NaN margin shows neither that a condition holds nor a witness
        verdict = INCONCLUSIVE
    elif min(margins) >= -margin_tol:
        verdict = CERTIFIED
    else:
        verdict = VIOLATED
    witness = None
    if verdict == VIOLATED:
        # first violated condition in listing order, so a broken slope
        # bound is reported as such even when the balance is worse
        bad = next(cc for cc in conditions
                   if cc["min_margin"] < -margin_tol)
        pt = bad["argmin_point"]
        witness = {
            "condition": bad["name"],
            "point": pt,
            "margin": bad["min_margin"],
            "V": float(P.V(np.array([pt[0]]), np.array([pt[1]]))[0]),
        }
    return RigidityCertificate(
        label=P.label,
        grid={"box": [list(b) for b in grid.box],
              "resolution": list(grid.resolution),
              "spacing": list(grid.spacing)},
        conditions=conditions,
        constants={"gamma": P.gamma, "c": c, "n": n},
        verdict=verdict,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# separable-ansatz obstruction

def separable_demo(gamma: float, rho0: float,
                   psi0: float) -> VerificationReport:
    """Integrate the saturated radial profile ODE rho psi' = gamma psi^2.

    The profile explodes at finite radius rho* = rho0 exp(1/(gamma psi0));
    before that it must violate the slope cap |psi'| <= rho, which is the
    numerical content of the obstruction in three dimensions.  Parameters
    whose blow-up radius is not a finite float raise InputError up front.
    """
    if min(gamma, rho0, psi0) <= 0:
        raise InputError("gamma, rho0, psi0 must be positive")
    try:
        rho_star = rho0 * math.exp(1.0 / (gamma * psi0))
    except (OverflowError, ZeroDivisionError):
        rho_star = math.inf
    # the integration runs out to twice the closed-form radius
    if not math.isfinite(2.0 * rho_star):
        raise InputError(
            f"blow-up radius rho0*exp(1/(gamma*psi0)) is not a finite float "
            f"for gamma={gamma:g}, rho0={rho0:g}, psi0={psi0:g}")
    rep = VerificationReport()

    def rhs(rho, y):
        return gamma * y * y / rho

    try:
        res = _ode.rk45_event(
            rhs, rho0, np.array(psi0),
            lambda rho, y: float(y) - 1e12,   # blown up at 1e12
            t_max=2.0 * rho_star, rtol=1e-10, atol=1e-8)
        blow_rho = res.t if res.status == "event" else math.nan
    except _ode.StiffFailure as exc:
        # step underflow is itself a blow-up indicator
        blow_rho = exc.t

    rel = abs(blow_rho - rho_star) / rho_star
    rep.add(CheckResult.from_residual(
        "numeric blow-up radius vs closed form", rel, 1e-2,
        detail=f"numeric={blow_rho:.8g} analytic={rho_star:.8g}"))

    cap_radius = None
    if gamma * psi0 * psi0 / rho0 - rho0 >= 0.0:
        cap_radius = rho0
    else:
        try:
            slope = _ode.rk45_event(
                rhs, rho0, np.array(psi0),
                lambda rho, y: gamma * float(y) ** 2 / rho - rho,
                t_max=2.0 * rho_star, rtol=1e-10, atol=1e-12)
            if slope.status == "event":
                cap_radius = slope.t
        except _ode.StiffFailure:
            pass
    if cap_radius is not None:
        rep.add(CheckResult.info("slope cap first violated at radius",
                                 cap_radius))
        rep.add(CheckResult.from_margin(
            "slope cap breaks before blow-up", cap_radius, 1e-9,
            blow_rho - cap_radius))
    else:
        rep.add(CheckResult.info("slope cap never violated before blow-up",
                                 math.nan))
    rep.add(CheckResult.info("analytic blow-up radius", rho_star))
    return rep
