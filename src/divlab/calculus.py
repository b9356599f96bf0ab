"""Differential and integral kernels: the bump test function and its
one-radius families, mollification, divergence estimates, the flux
residual of an annulus, and the convexity-transport audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _quad
from .fields import (BUMP_PEAK, BUMP_SLOPE_PEAK, VectorField, as_points,
                     bump, bump_with_d1)
from .report import CheckResult, VerificationReport

DEFAULT_FD_STEP = 1e-4


# ---------------------------------------------------------------------------
# the test function

@dataclass(frozen=True)
class BumpTest:
    """Radial smooth bump height * w(|p - center| / radius) with an exact
    gradient; the test function of the pairings and blow-up identities."""
    center: np.ndarray
    radius: float
    height: float = 1.0

    def value(self, pts) -> np.ndarray:
        s = np.linalg.norm(pts - self.center, axis=1) / self.radius
        return self.height * bump(s)

    def value_and_gradient(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Values and gradients from one distance and one profile pass;
        the distance is `np.linalg.norm(d, axis=1)`'s own reduction."""
        d = pts - self.center
        s = np.sqrt(np.add.reduce(d * d, axis=1)) / self.radius
        w, w1 = bump_with_d1(s)
        fac = np.zeros_like(s)
        m = s > 0.0
        sm = s[m]
        fac[m] = self.height * w1[m] / (self.radius * sm * self.radius)
        return self.height * w, fac[:, None] * d

    @property
    def label(self) -> str:
        return f"bump:c={self.center.tolist()}:r={self.radius}"

    @property
    def c1_norm(self) -> float:
        """sup |psi| + sup |grad psi|."""
        return abs(self.height) * (BUMP_PEAK + BUMP_SLOPE_PEAK / self.radius)


def bump_test(center, radius: float, height: float = 1.0) -> BumpTest:
    return BumpTest(np.asarray(center, dtype=float), radius, height)


def bump_family(psi_family) -> tuple[np.ndarray, BumpTest]:
    """The centers of a bump family that shares one radius and height, and
    the family's bump about the origin: psi_i(y) is that bump read at
    y - centers[i], bit for bit, so one profile pass serves every bump."""
    radius, height = psi_family[0].radius, psi_family[0].height
    if any((psi.radius, psi.height) != (radius, height)
           for psi in psi_family):
        raise ValueError("the bump family must share one radius and height")
    centers = np.array([psi.center for psi in psi_family], dtype=float)
    return centers, bump_test(np.zeros(centers.shape[1]), radius, height)


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid; axes may be uniform or logarithmic."""
    box: Sequence[tuple[float, float]]
    resolution: Sequence[int]
    spacing: Sequence[str] = ()

    def __post_init__(self):
        if not self.spacing:
            object.__setattr__(self, "spacing", tuple("uniform" for _ in self.box))
        if len(self.resolution) != len(self.box) or len(self.spacing) != len(self.box):
            raise ValueError("box, resolution, spacing must align")
        for (lo, hi), n, mode in zip(self.box, self.resolution, self.spacing):
            if n < 1:
                raise ValueError("resolution must be >= 1 per axis")
            if mode == "log" and (lo <= 0 or hi <= 0):
                raise ValueError("log axes need positive bounds")
            if mode not in ("uniform", "log"):
                raise ValueError(f"unknown spacing mode {mode!r}")

    def axes(self) -> list[np.ndarray]:
        out = []
        for (lo, hi), n, mode in zip(self.box, self.resolution, self.spacing):
            if mode == "log":
                out.append(np.geomspace(lo, hi, n))
            else:
                out.append(np.linspace(lo, hi, n))
        return out

    def points(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# finite-difference divergence

def numeric_divergence(field: VectorField, x, h: float = DEFAULT_FD_STEP):
    """Centered-difference divergence; O(h^2) on C^3 fields.

    Rejects points within 2h of any declared non-smooth set, where the
    difference quotient has no business being trusted.
    """
    pts = as_points(x, field.dim)
    dist = field.exclusion_distance(pts)
    if np.any(dist <= 2.0 * h):
        bad = pts[dist <= 2.0 * h][0]
        labels = [e.label for e in field.smooth_exclusion
                  if e.distance(bad[None, :])[0] <= 2.0 * h]
        raise ValueError(
            f"point {bad.tolist()} within 2h of non-smooth set(s) {labels}")
    acc = np.zeros(pts.shape[0])
    for i in range(field.dim):
        step = np.zeros(field.dim)
        step[i] = h
        acc += (field.eval(pts + step)[:, i] - field.eval(pts - step)[:, i]) / (2.0 * h)
    if np.asarray(x).ndim == 1:
        return float(acc[0])
    return acc


# ---------------------------------------------------------------------------
# flux residual

def annulus_flux_residual(field: VectorField, center, r_inner: float,
                          r_outer: float, rtol: float) -> float:
    """Divergence theorem residual on the annulus r_inner < |p - center| <
    r_outer: the integral of div(field) minus the outward flux of field
    through its two circles, each term to rtol and an absolute 1e-12.
    The field must declare `analytic_div`.

    The divergence is integrated in the radius, each circle's mean read
    at 128 equal angles.  The outer circle (normal out, sign +1) and the
    inner one (normal in, sign -1) are the two rows of one Gauss row
    batch in the angle.
    """
    if field.analytic_div is None:
        raise ValueError("flux residual needs divergence information")
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    c = np.asarray(center, dtype=float)
    n = 128
    th = 2.0 * math.pi * np.arange(n) / n
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)

    def radial(r):
        # mean of div over each circle of radius r, times the circumference
        pts = c + r[:, None, None] * ring
        vals = field.analytic_div(pts.reshape(-1, 2)).reshape(r.size, n)
        return vals.mean(axis=1) * 2.0 * math.pi * r

    radius = np.array([r_outer, r_inner])
    sign = np.array([1.0, -1.0])

    def flux(rows, th):
        e = np.stack([np.cos(th), np.sin(th)], axis=2)
        pts = c + radius[rows, None, None] * e
        vals = np.einsum("ijk,ijk->ij", field.eval(pts.reshape(-1, 2))
                         .reshape(e.shape), e)
        return (sign * radius)[rows, None] * vals

    div_mass = _quad.adaptive_gauss_1d(radial, r_inner, r_outer, rtol=rtol,
                                       atol=1e-12)
    circles, _ = _quad.adaptive_gauss_rows(flux, [0.0, 0.0],
                                           [2.0 * math.pi] * 2, rtol, 1e-12)
    return div_mass - float(circles.sum())


# ---------------------------------------------------------------------------
# mollification

@dataclass(frozen=True)
class MollifierKernel:
    """Radial unit-mass bump kernel supported in the epsilon-ball, as the
    fixed convolution rule `mollify` applies.  `mass_defect` is the
    rule's kernel mass minus 1 before its weights were snapped to unit
    sum: how far the rule is from integrating the kernel exactly."""
    epsilon: float
    dim: int
    nodes: np.ndarray       # fixed convolution nodes in the epsilon-ball
    weights: np.ndarray     # quadrature weights times kernel values
    mass_defect: float


def make_mollifier(epsilon: float, dim: int) -> MollifierKernel:
    """The bump kernel of radius epsilon on a product rule with 14 radial
    nodes and 12 angular ones (12 by 24 angles in 3D, 12 by 12 by 24 in
    4D)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    radial_mass = _quad.adaptive_gauss_1d(
        lambda t: bump(t) * t ** (dim - 1), 0.0, 1.0, rtol=1e-13, atol=1e-16)
    mass = _quad.sphere_area(dim) * radial_mass * epsilon**dim
    norm = 1.0 / mass
    nodes, wts = _quad.ball_rules(dim, np.zeros((1, dim)), epsilon, 14, 12)
    nodes, wts = nodes[0], wts[0]
    s = np.linalg.norm(nodes, axis=1) / epsilon
    weights = wts * norm * bump(s)
    rule_mass = float(np.sum(weights))
    # snap the discrete rule to exact unit mass: the smoothing is then a
    # true convex average, so convexity transport needs no quadrature caveat
    return MollifierKernel(epsilon, dim, nodes, weights / rule_mass,
                           rule_mass - 1.0)


def mollify(field: VectorField, kernel: MollifierKernel) -> VectorField:
    """Convolve a field with a smoothing kernel.

    The convolution rule's nodes are fixed once, so finite differences of
    the mollified field difference the smooth integrand rather than the
    quadrature; divergence-freeness survives to FD accuracy.
    """
    if field.dim != kernel.dim:
        raise ValueError("kernel dimension does not match the field")
    if field.disk is not None:
        raise ValueError("mollification of domain-restricted fields "
                         "is not supported")
    nodes = kernel.nodes
    weights = kernel.weights
    # blocks of at most `_quad.MAX_CALL_NODES` shifted nodes, the cap of
    # every quadrature's field call: 3,120 points for the 2D kernel's 168
    # nodes, 130 for the 3D kernel's 4,032 and 10 for the 4D kernel's 48,384
    chunk = max(1, _quad.MAX_CALL_NODES // nodes.shape[0])

    def ev(pts):
        out = np.empty((pts.shape[0], field.dim))
        for start in range(0, pts.shape[0], chunk):
            block = pts[start:start + chunk]
            shifted = block[:, None, :] - nodes[None, :, :]
            vals = field.eval(shifted.reshape(-1, field.dim))
            vals = vals.reshape(block.shape[0], nodes.shape[0], field.dim)
            out[start:start + chunk] = np.einsum("k,mkd->md", weights, vals)
        return out

    return VectorField(
        dim=field.dim, eval=ev, sup_bound=field.sup_bound,
        name=f"mollified:eps={kernel.epsilon:g}:{field.name}")


# ---------------------------------------------------------------------------
# convexity transport audit

def jensen_check(field: VectorField, phi: Callable, kernel: MollifierKernel,
                 grid: GridSpec, tol: float = 1e-6) -> VerificationReport:
    """Verify that smoothing preserves gauge domination.

    If the vertical component dominates phi(speed) pointwise, convexity of
    the gauge phi, called on an array of speeds, pushes the same bound
    through any unit-mass averaging.  The audit first confirms the
    pointwise hypothesis on the grid, to 1e-12, then checks the mollified
    field there.
    """
    precondition_tol = 1e-12
    rep = VerificationReport()
    pts = grid.points()
    raw = field.eval(pts)
    raw_margin = raw[:, -1] - phi(np.linalg.norm(raw, axis=1))
    worst_raw = float(np.min(raw_margin))
    if worst_raw < -precondition_tol:
        idx = int(np.argmin(raw_margin))
        rep.add(CheckResult.from_margin(
            "PRECONDITION_FAILED:pointwise gauge domination",
            worst_raw, precondition_tol, worst_raw,
            detail=f"violated at {pts[idx].tolist()}"))
        return rep
    rep.add(CheckResult.from_margin(
        "pointwise gauge domination", worst_raw, precondition_tol, worst_raw))

    smoothed = mollify(field, kernel)
    vals = smoothed.eval(pts)
    margin = vals[:, -1] - phi(np.linalg.norm(vals, axis=1))
    worst = float(np.min(margin))
    idx = int(np.argmin(margin))
    rep.add(CheckResult.from_margin(
        "mollified gauge domination", worst, tol, worst,
        detail=f"worst at {pts[idx].tolist()}"))
    rep.add(CheckResult.info("kernel mass defect", kernel.mass_defect))
    return rep
