"""Weak normal traces probed four ways: solid ball averages, curvilinear
rectangles hugging the interface, distributional pairings against test
functions, and (optionally) one-sided sphere flux.

Every probe at a point x0 of an interface S enters through
`OrientedInterface.frame`, which refuses a non-planar field or point and
a point off S, and returns the normal there.  Every integral of a
deterministic probe is a row of one `_quad` row batch held to PROBE_RTOL:
the radii of a probe, the clipped eddy patches of each radius, or the
bumps of a pairing go to one call, never one call each.

Averages are reported per radius with no convergence claim; a probe flags
oscillation whenever the radius sequence refuses to settle, which is the
numerically observable face of a trace that exists only weakly.  Density
ratios and one-sided approximate limits quantify how much of a small disk
violates a candidate limit.  They sample planar disks with a randomly
shifted Fibonacci lattice mapped area-preservingly onto the disk, and
report the spread over the independent shifts as their sampling error.
A gated probe draws the lattice in rounds of growing size and stops at
the first round whose gated quantities the report's gate rule decides,
with `sampling_error` of each as its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import default_rng

from . import _quad
from .calculus import BumpTest, bump_family
from .fields import Disk, EddyStack, InputError, VectorField, bump
from .report import (FAIL, INCONCLUSIVE, PASS, CheckResult,
                     VerificationReport)

__all__ = [
    "OrientedInterface", "TraceProbe", "DensityProbe",
    "line_interface", "circle_interface",
    "weak_trace_ball_average", "check_curvilinear", "weak_trace_curvilinear",
    "weak_trace_pairing", "weak_trace_sphere_flux", "check_radii",
    "density", "deviation_densities", "one_sided_ap_lim", "ApLimReport",
    "AP_LIM_CONFIRMED", "AP_LIM_REJECTED", "AP_LIM_INCONCLUSIVE",
    "EPS_DENSITY", "PROBE_RTOL", "SAMPLING_Z", "sampling_error",
]

EPS_DENSITY = 1e-2
AP_LIM_CONFIRMED = "AP_LIM_CONFIRMED"
AP_LIM_REJECTED = "AP_LIM_REJECTED"
AP_LIM_INCONCLUSIVE = "INCONCLUSIVE"

ON_INTERFACE_TOL = 1e-10
# relative tolerance of every deterministic probe's quadratures; it also
# sets the quadrature noise a probe's oscillation flag must clear
PROBE_RTOL = 1e-9


@dataclass(frozen=True)
class OrientedInterface:
    """Arc-length parametrized curve with a chosen unit normal; `arclength`
    maps a point of the curve to its `parametrization` argument."""
    parametrization: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    distance: Callable[[np.ndarray], float]
    arclength: Callable[[np.ndarray], float]
    curvature_bound: float = 0.0

    def normal_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.normal(x[None, :] if x.ndim == 1 else x)
        return out[0] if x.ndim == 1 else out

    def frame_defects(self, sigmas) -> tuple[float, float]:
        """(max deviation of |nu| from 1, max |nu . tangent|) over samples."""
        sig = np.asarray(sigmas, dtype=float)
        pts = self.parametrization(sig)
        nu = self.normal(pts)
        tau = self.tangent(sig)
        norm_defect = float(np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)))
        ortho = float(np.max(np.abs(np.einsum("ij,ij->i", nu, tau))))
        return norm_defect, ortho

    def frame(self, field: VectorField, x0) -> tuple[np.ndarray, np.ndarray]:
        """x0 as an array and the unit normal there: the entry check of
        every probe of `field` at x0, which refuses a non-planar field or
        point and a point farther than ON_INTERFACE_TOL from the curve."""
        x0 = np.asarray(x0, dtype=float)
        if field.dim != 2 or x0.shape != (2,):
            raise InputError(f"interface probes are planar; got a field of "
                             f"dimension {field.dim} at {x0.tolist()}")
        d = float(self.distance(x0))
        if not d <= ON_INTERFACE_TOL:
            raise InputError(f"point {x0.tolist()} is {d:.3e} "
                             f"from the interface")
        return x0, self.normal_at(x0)


def _unit(v, what: str) -> np.ndarray:
    """v scaled to length 1; a vector of length 0, NaN or inf is refused."""
    v = np.asarray(v, dtype=float)
    length = float(np.linalg.norm(v))
    if not 0.0 < length < math.inf:
        raise InputError(f"{what} must be finite and nonzero; "
                         f"got {v.tolist()}")
    return v / length


def line_interface(origin=(0.0, 0.0), direction=(1.0, 0.0),
                   normal: Optional[Sequence[float]] = None) -> OrientedInterface:
    o = np.asarray(origin, dtype=float)
    d = _unit(direction, "direction")
    if normal is None:
        nu = np.array([-d[1], d[0]])
    else:
        nu = _unit(normal, "normal")
        if abs(nu @ d) > 1e-14:
            raise InputError("normal must be orthogonal to the direction")

    def param(sig):
        sig = np.atleast_1d(np.asarray(sig, dtype=float))
        return o + sig[:, None] * d

    def tang(sig):
        sig = np.atleast_1d(np.asarray(sig, dtype=float))
        return np.broadcast_to(d, (sig.size, 2)).copy()

    def nrm(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(nu, (pts.shape[0], 2)).copy()

    def dist(x):
        return abs(float((np.asarray(x, dtype=float) - o) @ nu))

    def arclength(x):
        return float((np.asarray(x, dtype=float) - o) @ d)

    return OrientedInterface(parametrization=param, tangent=tang, normal=nrm,
                             distance=dist, arclength=arclength,
                             curvature_bound=0.0)


def circle_interface(center=(0.0, 0.0), radius: float = 1.0,
                     outward: bool = True) -> OrientedInterface:
    c = np.asarray(center, dtype=float)
    R = float(radius)
    if not 0.0 < R < math.inf:
        raise InputError(f"radius must be finite and positive; got {R}")
    sign = 1.0 if outward else -1.0

    def param(sig):
        sig = np.atleast_1d(np.asarray(sig, dtype=float))
        ang = sig / R
        return c + R * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def tang(sig):
        sig = np.atleast_1d(np.asarray(sig, dtype=float))
        ang = sig / R
        return np.stack([-np.sin(ang), np.cos(ang)], axis=1)

    def nrm(pts):
        pts = np.atleast_2d(pts)
        rel = pts - c
        return sign * rel / np.linalg.norm(rel, axis=1, keepdims=True)

    def dist(x):
        return abs(float(np.linalg.norm(np.asarray(x, dtype=float) - c)) - R)

    def arclength(x):
        return R * math.atan2(x[1] - c[1], x[0] - c[0])

    return OrientedInterface(parametrization=param, tangent=tang, normal=nrm,
                             distance=dist, arclength=arclength,
                             curvature_bound=1.0 / R)


# ---------------------------------------------------------------------------
# probes

def check_radii(radii) -> list[float]:
    """The radii as floats, if positive and strictly decreasing."""
    radii = [float(r) for r in radii]
    if not radii or not all(a > b for a, b in zip(radii, radii[1:] + [0.0])):
        raise InputError(f"radii must be positive and strictly decreasing; "
                         f"got {radii}")
    return radii


@dataclass(frozen=True)
class TraceProbe:
    radii: tuple
    estimates: tuple
    extrapolated: float
    oscillation: float
    oscillating: bool
    notes: str = ""

    def __post_init__(self):
        check_radii(self.radii)


def _tail_fit(radii, estimates) -> tuple[float, float, float]:
    """Extrapolated intercept of the a + b*r model on the last four radii,
    the residual spread left after removing a quadratic trend, and the raw
    spread.  A smooth sequence detrends to nearly nothing; a genuinely
    oscillating one cannot be detrended away."""
    r = np.asarray(radii, dtype=float)[-4:]
    e = np.asarray(estimates, dtype=float)[-4:]
    if r.size == 1:
        return float(e[0]), 0.0, 0.0
    raw = float(np.max(e) - np.min(e))
    A = np.stack([np.ones_like(r), r], axis=1)
    coef, *_ = np.linalg.lstsq(A, e, rcond=None)
    intercept = float(coef[0])
    if r.size < 4:
        return intercept, 0.0, raw
    Aq = np.stack([np.ones_like(r), r, r * r], axis=1)
    cq, *_ = np.linalg.lstsq(Aq, e, rcond=None)
    resid = e - Aq @ cq
    return intercept, float(np.max(resid) - np.min(resid)), raw


def _intercept_weights(radii) -> np.ndarray:
    """Weights c of the `_tail_fit` intercept: c @ estimates[-c.size:]."""
    r = np.asarray(radii, dtype=float)[-4:]
    if r.size == 1:
        return np.ones(1)
    return np.linalg.pinv(np.stack([np.ones_like(r), r], axis=1))[0]


def _make_probe(radii, estimates, notes="") -> TraceProbe:
    extrapolated, osc, raw = _tail_fit(radii, estimates)
    # both gates: above the noise of quadratures held to PROBE_RTOL, and
    # not explained by a smooth trend in the radius
    oscillating = bool(osc > 5.0 * PROBE_RTOL and osc > 0.25 * raw)
    return TraceProbe(
        radii=tuple(float(r) for r in radii),
        estimates=tuple(float(v) for v in estimates),
        extrapolated=extrapolated,
        oscillation=osc,
        oscillating=oscillating,
        notes=notes,
    )


@dataclass(frozen=True)
class DensityProbe:
    """Area ratios of a set in shrinking disks about one point, from
    LATTICE_SHIFTS randomly shifted copies of one Fibonacci lattice.  Each
    ratio pools every shift; its `stderr` is the spread of the per-shift
    estimates (their sample standard deviation over sqrt(LATTICE_SHIFTS)),
    floored at the weight of one pooled point.  `theta` extrapolates the
    ratios to radius 0, clipped to [0, 1]; `theta_stderr` is the sum of
    the stderrs times the absolute intercept weights of that fit, an upper
    bound however the ratios of one cloud correlate.

    Point counts are per radius, on the inward half-disk only for a
    deviation probe: `samples_per_radius` in the final round,
    `drawn_per_radius` over all rounds, and `ceiling_per_radius` in the
    largest round the probe could draw."""
    radii: tuple
    ratios: tuple
    stderrs: tuple
    theta: float
    theta_stderr: float
    samples_per_radius: int
    drawn_per_radius: int
    ceiling_per_radius: int

    def draws(self) -> str:
        """The point counts, as the gated checks state them."""
        return (f"{self.drawn_per_radius} points drawn per radius, "
                f"{self.samples_per_radius} in the final round, ceiling "
                f"{self.ceiling_per_radius}")


# ---------------------------------------------------------------------------
# ball averages

def _twisting_ball_averages(eddies: EddyStack, x0: np.ndarray, radii,
                            nu0: np.ndarray) -> list[float]:
    """Solid average of the normal component over the ball about x0 of
    each radius, by exact per-patch decomposition.

    Rotational patches wholly inside or outside a ball integrate to zero
    against any fixed direction, so only the clipped (radius, patch)
    pairs, |dist - r| < rho with dist > 0, are integrated; their angular
    integral has the closed form 2 sin(beta) (nu x d-hat), leaving a
    radial integral over s in [|r - dist|, min(r + dist, rho)].  Each pair
    is a row of one Gauss row batch on [0, 1] at PROBE_RTOL, in v with
    s = s_lo + (s_hi - s_lo) sin^2(pi v / 2), which flattens the sqrt
    kinks at both ends; a radius sums its rows in patch order.
    """
    r = np.asarray(radii, dtype=float)
    gaps = eddies.centers - x0
    dist = np.hypot(gaps[:, 0], gaps[:, 1])
    k, ball = np.nonzero((np.abs(dist - r[:, None]) < eddies.radii)
                         & (dist > 0.0))
    d, rho, rk = dist[ball], eddies.radii[ball], r[k]
    s_lo = np.abs(rk - d)
    width = np.minimum(rk + d, rho) - s_lo
    # angular factor: integral over the in-window arc of xi . nu0
    angfac = (nu0[0] * gaps[ball, 1] - nu0[1] * gaps[ball, 0]) / d

    def radial(rows, v):
        sin, cos = np.sin(0.5 * math.pi * v), np.cos(0.5 * math.pi * v)
        s = s_lo[rows, None] + width[rows, None] * sin ** 2
        ds = width[rows, None] * math.pi * sin * cos
        dr = d[rows, None]
        cval = (rk[rows, None] ** 2 - s * s - dr * dr) / (2.0 * s * dr)
        sinb = np.sqrt(np.clip(1.0 - cval * cval, 0.0, None))
        return bump(s / rho[rows, None]) * s * 2.0 * sinb * ds

    vals, _ = _quad.adaptive_gauss_rows(radial, np.zeros(k.size),
                                        np.ones(k.size), rtol=PROBE_RTOL,
                                        atol=0.0)
    totals = np.bincount(k, weights=eddies.calibration * angfac * vals,
                         minlength=r.size)
    return (totals / (math.pi * r * r)).tolist()


def _disk_lens_averages(disk: Disk, x0: np.ndarray, radii,
                        nu0: np.ndarray) -> list[float]:
    """Average of the radial field on the disk over the boundary ball of
    each radius, restricted to the lens inside the disk.  Each average is
    a ratio of two 1D integrals, split at the kink where the cap binds;
    every piece at every radius is a row of one row batch."""
    disk.check_rim(x0, nu0)
    R = disk.radius
    a = x0 - disk.center
    sgn = float(np.sign(a @ nu0))
    # rows (k, lo, hi, numerator?) in the order the pieces are summed
    pieces = []
    for k, r in enumerate(radii):
        dstar = math.acos(min(1.0, r / (2.0 * R)))
        for lo, hi in [(0.5 * math.pi, math.pi - dstar),
                       (math.pi - dstar, math.pi)]:
            if hi > lo:
                pieces += [(k, lo, hi, True), (k, lo, hi, False)]
    k_row, lo, hi, is_num = (np.array(col) for col in zip(*pieces))
    r_row = np.asarray(radii, dtype=float)[k_row]

    def f(rows, delta):
        m = np.minimum(r_row[rows, None], -2.0 * R * np.cos(delta))
        den = 0.5 * m * m
        num = den + np.cos(delta) * m ** 3 / (3.0 * R)
        return np.where(is_num[rows, None], num, den)

    vals, _ = _quad.adaptive_gauss_rows(f, lo, hi, rtol=PROBE_RTOL,
                                        atol=1e-15)
    num = np.bincount(k_row[is_num], vals[is_num], len(radii))
    den = np.bincount(k_row[~is_num], vals[~is_num], len(radii))
    # the lens is symmetric about the normal direction
    return (sgn * num / den).tolist()


def weak_trace_ball_average(field: VectorField, S: OrientedInterface,
                            x0, radii) -> TraceProbe:
    """Solid averages of the normal component over shrinking balls, each
    quadrature to PROBE_RTOL.

    An eddy stack is averaged patch by patch (`_twisting_ball_averages`),
    every clipped patch at every radius a row of one Gauss row batch.  A
    field on a disk is averaged, at a rim point (`Disk.check_rim`), over
    the lens of each ball inside the disk, so it averages to its one-sided
    trace rather than half of it.  Any other field integrates all its
    balls as the rows of one ball row batch.
    """
    x0, nu0 = S.frame(field, x0)
    radii = [float(r) for r in radii]
    if field.eddies is not None:
        estimates = _twisting_ball_averages(field.eddies, x0, radii, nu0)
    elif field.disk is not None:
        estimates = _disk_lens_averages(field.disk, x0, radii, nu0)
    else:
        totals, _ = _quad.adaptive_ball_rows(
            lambda rows, pts: (field.eval(pts.reshape(-1, 2))
                               @ nu0).reshape(pts.shape[:2]),
            np.broadcast_to(x0, (len(radii), 2)), radii, 2,
            rtol=PROBE_RTOL, atol=1e-14)
        estimates = [t / (_quad.ball_volume(2) * r ** 2)
                     for t, r in zip(totals, radii)]
    return _make_probe(radii, estimates)


# ---------------------------------------------------------------------------
# curvilinear rectangles

def check_curvilinear(S: OrientedInterface, rho: float, r_seq) -> None:
    """Refuse curvilinear rectangles of half-width rho and depths r_seq
    that do not embed: the depth or the width reaches the curvature scale
    of S."""
    kappa = S.curvature_bound
    if kappa * float(max(r_seq)) >= 0.9 or kappa * rho >= 0.5 * math.pi * 0.9:
        raise InputError("curvilinear rectangle does not embed: "
                         "radius or width exceeds the curvature scale")


def weak_trace_curvilinear(field: VectorField, S: OrientedInterface,
                           x0, rho: float, r_seq) -> TraceProbe:
    """One-sided averages over curvilinear rectangles: interface patches of
    half-width rho pushed inward along the frozen normal at x0 by up to r
    (`check_curvilinear`), each integrated to PROBE_RTOL.  The radii are
    the rows of one nested row batch, depth t in [0, r] outside and arc
    length sigma in [-rho, rho] inside.
    """
    x0, nu0 = S.frame(field, x0)
    check_curvilinear(S, rho, r_seq)

    sig0 = S.arclength(x0)

    def integrand(rows, t, sigma):
        sig = sig0 + sigma.ravel()
        y = S.parametrization(sig)
        nu_y = S.normal(y)
        tau = S.tangent(sig)
        z = y - np.repeat(t, sigma.shape[1])[:, None] * nu0
        jac = np.abs(tau[:, 0] * (-nu0[1]) - tau[:, 1] * (-nu0[0]))
        return (np.einsum("ij,ij->i", field.eval(z), nu_y)
                * jac).reshape(sigma.shape)

    omega = _quad.ball_volume(field.dim - 1)
    radii = sorted((float(r) for r in r_seq), reverse=True)
    vals, _ = _quad.adaptive_gauss_nested(
        integrand, np.zeros(len(radii)), radii, lambda rows, t: -rho,
        lambda rows, t: rho, PROBE_RTOL, 1e-13)
    estimates = [float(v) / (omega * rho ** (field.dim - 1) * r)
                 for v, r in zip(vals, radii)]
    return _make_probe(radii, estimates)


# ---------------------------------------------------------------------------
# distributional pairing

def _eddy_pairings(eddies: EddyStack, field: VectorField,
                   psi_family: Sequence[BumpTest], atol: Sequence[float]
                   ) -> tuple[list[float], list[float]]:
    """Sum over the eddy balls of the integral of field . grad psi for each
    psi of a `bump_family`, held to the absolute tolerance atol[psi];
    returns the sums and their achieved error estimates, each a list over
    psi.  Divergence-free rotational patches leave only this gradient term.

    The balls are in the coordinates of `field` and of the bumps (a
    rescaled field carries its eddies mapped).  Each ball that meets a
    psi's support is one row of `_quad._refine`: 16 radial Gauss nodes
    times n equal angles.  Inside a ball the field is f(s) (p - c)-perp,
    so field . grad psi = f(s) d psi / d theta and each circle about c
    integrates to 0: the angular rule sets the accuracy, and the fixed
    radial rule is what would see a field that is not purely rotational.
    Each of the 16 circles is one part of its row, so errors of opposite
    sign on two circles cannot cancel in its delta.

    With one bump radius R, the rows of a ball share one start, the least
    n = 4 * 2^k whose rim spacing 2 pi rho / n is at most R / 4 (rho the
    ball's radius), so the first level samples the bump and the open rows
    of a ball sit at one order.  A row doubles n until its delta fits its
    share rho^2 / (sum of rho^2 over the balls near psi) of atol[psi].
    The trapezoid nodes are nested: a level evaluates only the new
    odd-indexed angles, T_2n = T_n / 2 + (2 pi / 2n) * (their sum), so a
    ball costs the nodes of its final order.  The rows are ordered by ball,
    so the rows of a ball share a call of the level and its new nodes go
    to the field once; every row of a node block reads its psi's gradient
    at q - centers[psi] from the origin bump in one call.  `_refine` sizes
    a row by the nodes its level evaluates, 16 n on the first level and
    the 8 n new ones after it; a ball near k bumps is still counted k
    times, though its nodes go to the field once.  Each psi's value adds
    its rows' values in ball order and its estimate their last deltas; a
    ball that misses its support is skipped.
    """
    bumps, origin = bump_family(psi_family)
    centers, radii = eddies.centers, eddies.radii
    near = np.empty((len(bumps), radii.size), dtype=bool)
    for p, c in enumerate(bumps):
        gap = centers - c
        near[p] = np.hypot(gap[:, 0], gap[:, 1]) <= origin.radius + radii
    # one row per near (psi, ball) pair, ordered by ball and then by psi
    ball, owner = np.nonzero(near.T)
    if owner.size == 0:
        return [0.0] * len(bumps), [0.0] * len(bumps)
    rho = radii[ball]
    # the exponent is clipped at 40, a first level of 2^46 nodes, far above
    # any node cap: the count stays exact in int64 and the row is refused
    # before any field call, naming the clipped count
    start = 4 * 2 ** np.clip(np.ceil(np.log2(
        2.0 * math.pi * radii / origin.radius)), 0, 40).astype(int)
    share = np.bincount(owner, weights=rho ** 2)
    row_atol = np.asarray(atol, dtype=float)[owner] * rho ** 2 / share[owner]
    xr, wr = _quad.leggauss(16)
    unit_r = 0.5 * (xr + 1.0)
    unit_w = 0.5 * wr * unit_r      # radial weights of the unit disk
    last = np.zeros((owner.size, 16))   # each row's circles at its last level

    def level(rows, m):
        keys, key_of = np.unique(ball[rows], return_inverse=True)
        order = start[keys] * m
        # new angles per ball: all of them on the first level
        fresh = order if m == 1 else order // 2
        # one node block (balls, 16, angles, 2) per number of new angles;
        # distinct values come from a set, as np.unique imports numpy.ma
        groups = [np.flatnonzero(fresh == k)
                  for k in sorted(set(fresh.tolist()))]
        blocks = []
        for g in groups:
            j = np.arange(fresh[g[0]])
            if m > 1:
                j = 2 * j + 1   # the odd angles of the doubled rule
            th = 2.0 * math.pi * j / order[g][:, None]
            ring = np.stack([np.cos(th), np.sin(th)], axis=2)
            b = keys[g]
            blocks.append(centers[b, None, None, :] + ring[:, None]
                          * (radii[b, None] * unit_r)[:, :, None, None])
        vals = field.eval(np.concatenate([q.reshape(-1, 2) for q in blocks]))
        sums = np.empty((rows.size, 16))
        at = 0
        for g, q in zip(groups, blocks):
            v = vals[at:at + q.size // 2].reshape(q.shape)
            at += q.size // 2
            slot = np.full(keys.size, -1)
            slot[g] = np.arange(g.size)
            mine = np.flatnonzero(slot[key_of] >= 0)
            k = slot[key_of[mine]]
            qk = q[k]
            grads = origin.value_and_gradient((
                qk - bumps[owner[rows[mine]], None, None]).reshape(-1, 2))[1]
            terms = np.einsum("ij,ij->i", v[k].reshape(-1, 2), grads)
            sums[mine] = terms.reshape(qk.shape[:3]).sum(axis=2)
        circles = (rho[rows] ** 2 * (2.0 * math.pi / order[key_of]))[:, None] \
            * unit_w * sums
        if m > 1:
            circles += 0.5 * last[rows]
        last[rows] = circles
        return circles

    vals, deltas = _quad._refine(
        level, 1, lambda m: 16 * start[ball] * max(1, m // 2), 0.0, row_atol,
        10, "eddy",
        lambda i: (f"the eddy ball of radius {float(rho[i])} about "
                   f"{centers[ball[i]].tolist()} against "
                   f"{psi_family[owner[i]].label}"), owner.size)
    return (np.bincount(owner, vals, len(bumps)).tolist(),
            [float(np.sum(deltas[owner == p])) for p in range(len(bumps))])


def weak_trace_pairing(field: VectorField, psi_family: Sequence[BumpTest],
                       atol: Sequence[float]
                       ) -> tuple[list[float], list[float]]:
    """Pairing of the normal trace with each psi of a `bump_family`: the
    integral of psi div xi + xi . grad psi over psi's support, held to the
    absolute tolerance atol[psi]; returns the pairings and their achieved
    error estimates, each a list over psi.  An eddy stack, divergence-free
    and zero outside its balls, goes to `_eddy_pairings`; any other field
    runs each bump as a row of `_quad.adaptive_ball_rows` on the bump's
    own ball, so its first level samples the bump.  A field that is not
    planar or declares no divergence is refused.
    """
    if field.dim != 2:
        raise InputError(f"the pairing probe is planar; {field.name!r} has "
                         f"dimension {field.dim}")
    if field.analytic_div is None:
        raise InputError("pairing needs divergence information")
    if field.eddies is not None:
        return _eddy_pairings(field.eddies, field, psi_family, atol)
    centers, origin = bump_family(psi_family)

    def g(rows, pts):
        flat = pts.reshape(-1, 2)
        value, grads = origin.value_and_gradient(
            (pts - centers[rows, None, :]).reshape(-1, 2))
        return (value * field.analytic_div(flat) + np.einsum(
            "ij,ij->i", field.eval(flat), grads)).reshape(pts.shape[:2])

    vals, estimates = _quad.adaptive_ball_rows(g, centers, origin.radius, 2,
                                               rtol=0.0, atol=atol)
    return vals.tolist(), estimates.tolist()


# ---------------------------------------------------------------------------
# optional sphere flux (fourth method)

def weak_trace_sphere_flux(field: VectorField, S: OrientedInterface,
                           x0, radii) -> TraceProbe:
    """One-sided flux through half spheres on the inward side, every
    radius a row of one Gauss row batch at PROBE_RTOL.

    Pairs the field against the inward chord ``x0 - y`` (length r, so the
    resulting integral scales like r^n) and divides by ``omega_{n-1} r^n``.
    A constant field below a straight interface reproduces its normal
    component exactly: the half-circle integral balances the flux through
    the flat diameter, whose measure is ``omega_{n-1} r^{n-1}``.
    """
    x0, nu0 = S.frame(field, x0)
    phi0 = math.atan2(-nu0[1], -nu0[0])
    radii = [float(r) for r in radii]
    r = np.asarray(radii)
    # for a field living on a disk with x0 on its rim, the arc inside the
    # domain is known in closed form; integrating only there keeps the
    # integrand smooth
    disk = field.disk
    if disk is not None:
        disk.check_outward_rim(x0, nu0)
    half_width = np.array([
        0.5 * math.pi if disk is None else
        math.acos(min(1.0, s / (2.0 * disk.radius))) for s in radii])

    def integrand(rows, th):
        e = np.stack([np.cos(th), np.sin(th)], axis=2).reshape(-1, 2)
        pts = x0 + np.repeat(r[rows], th.shape[1])[:, None] * e
        # dH^1 = r dtheta
        return np.einsum("ij,ij->i", field.eval(pts), x0 - pts).reshape(
            th.shape) * r[rows, None]

    vals, _ = _quad.adaptive_gauss_rows(
        integrand, phi0 - half_width, phi0 + half_width, rtol=PROBE_RTOL,
        atol=1e-13)
    omega = _quad.ball_volume(field.dim - 1)
    estimates = [float(v) / (omega * s ** field.dim)
                 for v, s in zip(vals, radii)]
    return _make_probe(radii, estimates,
                       notes="pairs the field with the inward chord; "
                             "normalized by omega_{n-1} r^n")


# ---------------------------------------------------------------------------
# densities and approximate limits

# independent random shifts of the lattice per probe; the spread of their
# estimates is the reported sampling error
LATTICE_SHIFTS = 4
# a gated quantity is resolved once it lies this many standard errors from
# its threshold.  A stderr over LATTICE_SHIFTS shifts has 3 degrees of
# freedom, and Student's t_3 quantile at 0.995 is 5.84
SAMPLING_Z = 6.0
# points per shift of a gated probe's first lattice round (F_16)
FIRST_ROUND = 987


def sampling_error(stderr: float) -> float:
    """The error term of a sampled gate: SAMPLING_Z standard errors."""
    return SAMPLING_Z * stderr


def _lattice_sizes(samples: int, half: bool) -> list[int]:
    """Points per shift of each lattice round of a gated probe.  The last,
    the ceiling, is the smallest Fibonacci number for which all shifts
    together cover `samples` points over the full disk (half of them on a
    half-disk).  The rounds before it are the first Fibonacci number from
    FIRST_ROUND on and every third one after it, about phi^3 = 4.24 times
    apart, that stay at least three Fibonacci numbers below the ceiling.
    So all rounds together hold at most 1 / (1 - phi^-3) = 1.31 times the
    ceiling's points, and a ceiling closer to FIRST_ROUND is the only
    round."""
    need = -(-samples // 2) if half else samples
    per_shift = -(-need // LATTICE_SHIFTS)
    fib = [1, 1]
    while fib[-1] < per_shift:
        fib.append(fib[-2] + fib[-1])
    last = len(fib) - 1
    first = next(k for k, n in enumerate(fib)
                 if n >= FIRST_ROUND or k == last)
    return fib[first:last - 2:3] + [fib[last]]


def _lattice_disk(seed: int, n: int, theta0: Optional[float]) -> np.ndarray:
    """Unit-disk points, shape (LATTICE_SHIFTS, n, 2): the rank-1 lattice
    (i/n, i g/n), i < n, with n = F_k and g = F_(k-1) consecutive Fibonacci
    numbers, under LATTICE_SHIFTS Cranley-Patterson shifts drawn from
    `seed`, mapped area-preservingly by r = sqrt(u) and theta = 2 pi v.
    With theta0, only the half-disk theta0 < theta < theta0 + pi is drawn
    (theta = theta0 + pi v), at the same density.  Every round of a probe
    draws the same shifts."""
    g, m = 1, 1
    while m < n:
        g, m = m, g + m
    i = np.arange(n)
    shift_u, shift_v = default_rng(seed).random((2, LATTICE_SHIFTS, 1))
    r = np.sqrt((i / n + shift_u) % 1.0)
    v = ((i * g % n) / n + shift_v) % 1.0
    theta = 2.0 * math.pi * v if theta0 is None else theta0 + math.pi * v
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2)


def _density_probe(radii: list, hits: np.ndarray, n: int, fraction: float,
                   drawn: int, ceiling: int) -> DensityProbe:
    """The probe of per-radius, per-shift hit counts `hits` out of n
    lattice points each, on a cloud covering `fraction` of every disk;
    `drawn` and `ceiling` are points per shift over all rounds and in the
    largest round."""
    shifts = hits.shape[1]
    ratios = fraction * (hits.sum(axis=1) / (shifts * n))
    # shifts that all agree resolve the ratio only to one pooled point
    errs = fraction * np.maximum(
        np.std(hits / n, axis=1, ddof=1) / math.sqrt(shifts),
        1.0 / (shifts * n))
    theta, _, _ = _tail_fit(radii, ratios)
    weights = np.abs(_intercept_weights(radii))
    return DensityProbe(radii=tuple(radii),
                        ratios=tuple(ratios.tolist()),
                        stderrs=tuple(errs.tolist()),
                        theta=min(1.0, max(0.0, theta)),
                        theta_stderr=float(weights @ errs[-weights.size:]),
                        samples_per_radius=shifts * n,
                        drawn_per_radius=shifts * drawn,
                        ceiling_per_radius=shifts * ceiling)


def _lattice_rounds(x, radii, sizes: list[int], seed: int,
                    theta0: Optional[float], fraction: float, mark,
                    resolved) -> list[DensityProbe]:
    """One probe per set from lattice rounds of `sizes` points per shift
    about the planar point x: each round's cloud is scaled to every
    radius, and mark(points) gives one boolean row per set.  The rounds
    stop at the last size or at the first whose probes `resolved`
    accepts; the probes of the last round drawn are returned."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"density probes are planar; got center "
                         f"{x.tolist()}")
    radii = check_radii(radii)
    drawn = 0
    for n in sizes:
        cloud = _lattice_disk(seed, n, theta0).reshape(-1, 2)
        drawn += n
        # hits[set, radius, shift]
        hits = np.stack([np.count_nonzero(np.reshape(
            mark(x + r * cloud), (-1, LATTICE_SHIFTS, n)), axis=2)
            for r in radii], axis=1)
        probes = [_density_probe(radii, h, n, fraction, drawn, sizes[-1])
                  for h in hits]
        if n == sizes[-1] or resolved(probes):
            return probes


def density(indicator, x, radii, samples: int = 100_000,
            seed: int = 0) -> DensityProbe:
    """Area fraction of a set in shrinking disks about the planar point x.
    One unit cloud of LATTICE_SHIFTS shifted Fibonacci lattices, at least
    `samples` points in all (the ceiling of `_lattice_sizes`), is scaled
    to every radius; each ratio's stderr is the spread over the shifts.
    No gate reads the ratios here, so that cloud is drawn in one round."""
    return _lattice_rounds(x, radii, _lattice_sizes(samples, False)[-1:],
                           seed, None, 1.0, indicator, None)[0]


def deviation_densities(field: VectorField, x0, nu, w, alphas, radii,
                        samples: int, seed: int,
                        resolved: Optional[Callable[[list], bool]] = None
                        ) -> list[DensityProbe]:
    """Density ratios of the one-sided deviation sets at x0, one probe per
    alpha: points on the inward side (where (p - x0) . nu < 0) at which the
    field differs from w by at least alpha.  Points where the field is
    undefined count as deviating.

    Only the inward half-disk is drawn, and each ratio is half the
    deviating fraction of it: the outward half never deviates.  |xi - w|
    is evaluated once per radius and round and thresholded at every alpha.
    Without `resolved` the one round is the ceiling of `samples`; with it,
    the rounds of `_lattice_sizes` are drawn until `resolved` accepts the
    probes of one, or the ceiling is drawn.
    """
    theta0 = math.atan2(-nu[1], -nu[0]) - 0.5 * math.pi
    sizes = _lattice_sizes(samples, half=True)
    if resolved is None:
        sizes = sizes[-1:]
    contains = None if field.disk is None else field.disk.contains
    levels = np.asarray(alphas, dtype=float)[:, None]

    def deviating(pts):
        inside = (np.ones(pts.shape[0], dtype=bool) if contains is None
                  else contains(pts))
        dist = np.full(pts.shape[0], np.inf)
        if np.any(inside):
            gap = field.eval(pts[inside]) - w
            dist[inside] = np.hypot(gap[:, 0], gap[:, 1])
        return dist >= levels

    return _lattice_rounds(x0, radii, sizes, seed, theta0, 0.5, deviating,
                           resolved)


@dataclass
class ApLimReport(VerificationReport):
    """Approximate-limit report: the overall classification and the
    (alpha, DensityProbe) pair behind each per-alpha check."""
    classification: str = AP_LIM_INCONCLUSIVE
    probes: list = dc_field(default_factory=list)


def _ap_lim_status(probe: DensityProbe, eps_density: float) -> str:
    """The candidate's status at one alpha: confirmed when theta lies below
    eps_density, rejected when theta and every ratio lie above it,
    inconclusive when theta lies above and some ratio below.  Each side is
    a margin gate with `sampling_error` as its error; a gated quantity it
    cannot decide gives unresolved."""
    def side(margin, stderr):
        return CheckResult.from_margin("", 0.0, 0.0, margin,
                                       error=sampling_error(stderr)).verdict

    theta = side(eps_density - probe.theta, probe.theta_stderr)
    if theta != FAIL:
        return "confirmed" if theta == PASS else "unresolved"
    above = [side(p - eps_density, e)
             for p, e in zip(probe.ratios, probe.stderrs)]
    if FAIL in above:
        return "inconclusive"
    return "rejected" if INCONCLUSIVE not in above else "unresolved"


def one_sided_ap_lim(field: VectorField, S: OrientedInterface, x0, w,
                     alphas, radii, eps_density: float = EPS_DENSITY,
                     samples: int = 100_000, seed: int = 0) -> ApLimReport:
    """Approximate one-sided limit test: for each alpha, the set where the
    field strays from the candidate by at least alpha must thin out.

    Points where the field is undefined count against the candidate; on
    the inward side they can only occur in a vanishing sliver.

    Each alpha gates theta against eps_density and, when theta lies above
    it, the ratios too (see `_ap_lim_status`).  All alphas share one
    lattice cloud per round.  `samples` is a ceiling: the rounds of
    `_lattice_sizes` are drawn until every gated quantity lies its
    `sampling_error` from eps_density.  A gate still within that at the
    ceiling gives its check INCONCLUSIVE and the classification
    INCONCLUSIVE, never a confident one.  Each alpha must be positive.
    """
    x0, nu0 = S.frame(field, x0)
    alphas = [float(a) for a in alphas]
    if not alphas or not all(a > 0.0 for a in alphas):
        raise InputError(f"deviation levels must be positive; got {alphas}")
    w = np.asarray(w, dtype=float)
    rep = ApLimReport(environment={"seed": seed, "samples": samples})

    probes = deviation_densities(
        field, x0, nu0, w, alphas, radii, samples, seed,
        resolved=lambda round_probes: all(
            _ap_lim_status(p, eps_density) != "unresolved"
            for p in round_probes))
    statuses = []
    for alpha, probe in zip(alphas, probes):
        rep.probes.append((alpha, probe))
        status = _ap_lim_status(probe, eps_density)
        statuses.append(status)
        rep.add(CheckResult(
            name=f"deviation density at alpha={alpha:g}",
            value=probe.theta, tolerance=eps_density,
            margin=eps_density - probe.theta,
            verdict={"confirmed": PASS,
                     "unresolved": INCONCLUSIVE}.get(status, FAIL),
            detail=f"ratios={['%.4f' % p for p in probe.ratios]} ({status}); "
                   f"theta stderr {probe.theta_stderr:.2g}; {probe.draws()}",
            error=sampling_error(probe.theta_stderr)))

    if "unresolved" not in statuses:
        if all(s == "confirmed" for s in statuses):
            rep.classification = AP_LIM_CONFIRMED
        elif "rejected" in statuses:
            rep.classification = AP_LIM_REJECTED
    rep.add(CheckResult.info("ap-lim classification", 0.0,
                             detail=rep.classification))
    return rep
