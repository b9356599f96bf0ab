"""Concrete vector fields and scalar gauges, with closed-form evaluators.

Every field evaluates in batch: points are float64 arrays of shape
(m, dim) and evaluation returns (m, dim).  Fields are immutable after
construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import default_rng

AUTO = "auto"


class OutOfDomainError(ValueError):
    """Evaluation requested outside the field's domain of definition."""


def as_points(x, dim: int) -> np.ndarray:
    """Coerce a single point or a batch to shape (m, dim)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {a.shape}")
    return a


def check_finite(name: str, pts: np.ndarray) -> None:
    """Refuse a batch that holds a non-finite point, naming the field and
    the first such point: a kernel's masks would read NaN as outside every
    support and return zeros."""
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)][0]
        raise ValueError(f"{name}: non-finite point {bad.tolist()}")


# ---------------------------------------------------------------------------
# smooth bump profile on (0, 1)

# for u <= 2**-55, 2u - 1 rounds to -1 and 1 - (2u-1)^2 = 0 would turn the
# derivatives into 0 * inf; the profile vanishes to all orders there anyway
_U_MIN = 2.0 ** -55


def _profile_terms(u):
    """u as floats, the mask of the profile's support, and on it v = 2u - 1,
    g = 1 - v^2 and exp(-1/g), which the profile and its slope share."""
    u = np.asarray(u, dtype=float)
    m = (u > _U_MIN) & (u < 1.0)
    v = 2.0 * u[m] - 1.0
    g = 1.0 - v * v
    return u, m, v, g, np.exp(-1.0 / g)


def bump(u) -> np.ndarray:
    """w(u) = exp(-1/(1-(2u-1)^2)) on (0,1), zero outside."""
    u, m, _, _, e = _profile_terms(u)
    out = np.zeros_like(u)
    out[m] = e
    return out


def bump_with_d1(u) -> tuple[np.ndarray, np.ndarray]:
    """w(u) and w'(u) from one exp(-1/g); zero outside (0, 1)."""
    u, m, v, g, e = _profile_terms(u)
    w = np.zeros_like(u)
    w1 = np.zeros_like(u)
    w[m] = e
    w1[m] = e * (-4.0 * v / g**2)
    return w, w1


def bump_derivatives(u) -> tuple[np.ndarray, np.ndarray]:
    """w'(u) and w''(u) from one exp(-1/g), for u inside (2**-55, 1) only:
    the caller keeps the points of the profile's support."""
    v = 2.0 * u - 1.0
    g = 1.0 - v * v
    e = np.exp(-1.0 / g)
    g2 = g**2
    w1 = e * (-4.0 * v / g2)
    w2 = e * (16.0 * v * v / g**4 - 8.0 / g2 - 32.0 * v * v / g**3)
    return w1, w2


# peak value and peak slope of the bump profile, in closed form: w peaks
# at u = 1/2, and |w'| where 1 - 3 s^2 = 0 for s = v^2, v = 2u - 1
BUMP_PEAK = math.exp(-1.0)
_s = 1.0 / math.sqrt(3.0)
_v = math.sqrt(_s)
BUMP_SLOPE_PEAK = 4.0 * _v * math.exp(-1.0 / (1.0 - _s)) / (1.0 - _s) ** 2
del _s, _v


# ---------------------------------------------------------------------------
# gauges

def phi_quadratic(t) -> np.ndarray:
    """The convex gauge phi(t) = t^2/2: phi(0) = 0, phi > 0 off 0."""
    t = np.asarray(t, dtype=float)
    return 0.5 * t * t


# ---------------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class Exclusion:
    """Lower-dimensional set where finite differencing is invalid."""
    label: str
    distance: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Disk:
    """The open disk |p - center| < radius."""
    center: tuple[float, float]
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self.center
        return np.einsum("ij,ij->i", d, d) < self.radius * self.radius

    def check_rim(self, x0: np.ndarray, nu: np.ndarray) -> None:
        """Refuse x0 off the rim or a normal nu not radial there, each to
        1e-9: the closed forms on the disk assume both."""
        a = x0 - self.center
        off = abs(float(np.linalg.norm(a)) - self.radius)
        tilt = abs(float(a[0] * nu[1] - a[1] * nu[0])) / self.radius
        if not (off <= 1e-9 and tilt <= 1e-9):
            raise ValueError(
                f"x0 {x0.tolist()} must be a rim point: on the disk boundary"
                f" with a radial normal, each to 1e-9; it lies {off:.3e} off "
                f"the boundary and its normal {tilt:.3e} off radial")

    def check_outward_rim(self, x0: np.ndarray, nu: np.ndarray) -> None:
        """`check_rim`, and refuse a normal that points into the disk: a
        probe that integrates on the -nu side of x0 needs that side to be
        the disk."""
        self.check_rim(x0, nu)
        if float((x0 - self.center) @ nu) < 0.0:
            raise ValueError(
                f"the normal {nu.tolist()} at the rim point {x0.tolist()} is "
                f"the inward normal of the disk; this probe integrates on "
                f"the -nu side and needs the outward normal")


@dataclass(frozen=True)
class VectorField:
    """Bounded vector field on R^dim, evaluated in batches.

    `eval_jacobian`, when declared, returns (values, J) for a batch in one
    call, J[m, i, j] = d_j eta_i at point m; its values are `eval`'s, bit
    for bit (the stream bump's `eval` reads them from it), so a caller may
    use either.  Flow transport needs it.

    Three optional fields declare closed-form structure that probes use
    in place of generic quadrature.  `blowup.rescale` maps `disk` and
    `eddies` into the zoom; the other derived fields (extruded, mollified)
    leave all three at None:

    - `disk`: the open disk the field lives on, tested by the capillary's
      evaluator and the deviation densities, and read by the lens average
      and sphere flux in `trace`, the rim blow-up and the default
      interface in `cli`;
    - `eddies`: the twisting field's eddy centers and radii as arrays, read
      by the ball averages and pairings in `trace` and the half-space
      pairing in `blowup`;
    - `potential`: the counterexample's cylindrical potential.
    """
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    name: str = "field"
    analytic_div: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_jacobian: Optional[
        Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    smooth_exclusion: Sequence[Exclusion] = ()
    disk: Optional[Disk] = None
    eddies: Optional[EddyStack] = None
    potential: Optional[CylindricalPotential] = None

    def __call__(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        out = self.eval(pts)
        if np.asarray(x).ndim == 1:
            return out[0]
        return out

    def exclusion_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the nearest excluded set (inf when there is none)."""
        if not self.smooth_exclusion:
            return np.full(pts.shape[0], np.inf)
        return np.min([e.distance(pts) for e in self.smooth_exclusion], axis=0)


def constant_field(vec, name: str = "") -> VectorField:
    v = np.asarray(vec, dtype=float)
    dim = v.shape[0]

    def ev(pts):
        return np.broadcast_to(v, (pts.shape[0], dim)).copy()

    def evj(pts):
        return ev(pts), np.zeros((pts.shape[0], dim, dim))

    return VectorField(dim=dim, eval=ev, sup_bound=float(np.linalg.norm(v)),
                       name=name or f"constant:{v.tolist()}",
                       analytic_div=lambda pts: np.zeros(pts.shape[0]),
                       eval_jacobian=evj)


def zero_field(dim: int) -> VectorField:
    return constant_field(np.zeros(dim), name=f"zero:{dim}d")


# ---------------------------------------------------------------------------
# stream bump (2D, exactly divergence-free)

# eta = (-d2 psi, d1 psi) and its Jacobian rows (-H01, -H11), (H00, H01)
# from psi's gradient and Hessian H, one row of six per point; the field's
# `eval` reads the first two columns, so its values and the Jacobian's come
# from one pass.  Off the support every entry is the zero that negating
# psi's zero derivatives gives.
_STREAM_ZERO_ROW = np.array([-0.0, 0.0, -0.0, -0.0, 0.0, 0.0])


# canonical stream bump: support strictly inside {1 < z < 2}, sup |eta| = 0.05
STREAM_BUMP_CENTER = (0.0, 1.5)
STREAM_BUMP_RX = 2.0
STREAM_BUMP_RZ = 0.5
STREAM_BUMP_SUP = 0.05


def stream_bump_field() -> VectorField:
    """Stream bump with elliptic level sets: eta = (-d2 psi, d1 psi) for
    psi = a * bump(s), s^2 = (y1/rx)^2 + (y2/rz)^2 about the center.

    The supremum of |grad psi| over the support ellipse is (a/min(rx,rz))
    times the peak slope of the profile, attained on the short axis; a is
    calibrated so that sup |eta| = STREAM_BUMP_SUP.
    """
    a = STREAM_BUMP_SUP * min(STREAM_BUMP_RX, STREAM_BUMP_RZ) / BUMP_SLOPE_PEAK
    cx, cz = STREAM_BUMP_CENTER
    d1, d2 = 1.0 / STREAM_BUMP_RX**2, 1.0 / STREAM_BUMP_RZ**2

    def evj(pts):
        check_finite("stream:bump", pts)
        y1 = pts[:, 0] - cx
        y2 = pts[:, 1] - cz
        s = np.sqrt(d1 * y1 * y1 + d2 * y2 * y2)
        # the profile's support: at s <= 2**-55 its derivatives vanish
        m = (s > _U_MIN) & (s < 1.0)
        sm, y1m, y2m = s[m], y1[m], y2[m]
        w1, w2 = bump_derivatives(sm)
        aw1 = a * w1
        u1 = d1 * y1m
        u2 = d2 * y2m
        c2 = a * (w2 - w1 / sm) / sm**2
        c1 = aw1 / sm
        g0, g1 = aw1 * d1 * y1m / sm, aw1 * d2 * y2m / sm
        h00, h01 = c2 * u1 * u1 + c1 * d1, c2 * u1 * u2
        h11 = c2 * u2 * u2 + c1 * d2
        # values and Jacobian rows go in in one masked assignment
        out = np.empty((pts.shape[0], 6))
        out[:] = _STREAM_ZERO_ROW
        out[m] = np.array([-g1, g0, -h01, -h11, h00, h01]).T
        return out[:, :2], out[:, 2:].reshape(-1, 2, 2)

    return VectorField(dim=2, eval=lambda pts: evj(pts)[0],
                       sup_bound=STREAM_BUMP_SUP, name="stream:bump",
                       analytic_div=lambda pts: np.zeros(pts.shape[0]),
                       eval_jacobian=evj)


def extrude_field_3d(f2: VectorField) -> VectorField:
    """Trivially extend a planar field along a new middle axis.

    (x1, x2, x3) -> (f1(x1, x3), 0, f2(x1, x3)); exactly divergence-free
    whenever the planar field is.
    """
    if f2.dim != 2:
        raise ValueError("extrusion expects a planar field")

    def proj(pts):
        return np.stack([pts[:, 0], pts[:, 2]], axis=1)

    def lift(v):
        out = np.zeros((v.shape[0], 3))
        out[:, 0] = v[:, 0]
        out[:, 2] = v[:, 1]
        return out

    def ev(pts):
        return lift(f2.eval(proj(pts)))

    adiv = None
    if f2.analytic_div is not None:
        adiv = lambda pts: f2.analytic_div(proj(pts))

    evj = None
    if f2.eval_jacobian is not None:
        def evj(pts):
            v2, J2 = f2.eval_jacobian(proj(pts))
            J = np.zeros((pts.shape[0], 3, 3))
            J[:, 0, 0] = J2[:, 0, 0]
            J[:, 0, 2] = J2[:, 0, 1]
            J[:, 2, 0] = J2[:, 1, 0]
            J[:, 2, 2] = J2[:, 1, 1]
            return lift(v2), J

    return VectorField(dim=3, eval=ev, sup_bound=f2.sup_bound,
                       name=f2.name + ":3d", analytic_div=adiv,
                       eval_jacobian=evj)


# ---------------------------------------------------------------------------
# twisting field: dyadic stack of rotational eddies over the line {y = 0}

@dataclass(frozen=True)
class EddyStack:
    """Disjoint eddy balls, ordered by level and, within a level, by
    center: ball n has center centers[n] (an (N, 2) array) and radius
    radii[n] (an (N,) array).  Inside ball n the field is
    calibration * bump(s / radii[n]) / s times (p - centers[n])-perp, with
    s = |p - centers[n]|.

    A level-i ball lies in the band 0.75 * 2^-i < y < 1.25 * 2^-i.  The
    bands are disjoint and the centers of one level are 2^-i apart, more
    than two radii, so a point can only sit in the ball of level
    rint(-log2 y) whose center is nearest to it."""
    centers: np.ndarray
    radii: np.ndarray
    calibration: float


# each level doubles the eddy count: 13 levels hold 16,369 balls, and the
# eddy pairings of the trace and blow-up probes integrate every ball that
# meets a test function
MAX_TWISTING_LEVELS = 13
# registry fields' dimension: `certify` allocates 4 * fd_points * n floats
# for its divergence sample before it checks anything
MAX_DIMENSION = 64


def _level_geometry(max_level: int) -> tuple[np.ndarray, np.ndarray]:
    """Height 2^-i and radius 2^-(i+2) of the level-i eddies, i = 1..max_level."""
    heights = np.array([2.0**-i for i in range(1, max_level + 1)])
    radii = np.array([2.0**-(i + 2) for i in range(1, max_level + 1)])
    return heights, radii


def _assert_disjoint(heights: np.ndarray, radii: np.ndarray) -> None:
    """Check the band and spacing argument of `EddyStack`, level by level.

    Two balls of level i are disjoint when 2 r_i < 2^-i, their center
    spacing; balls of different levels are disjoint when the band of level
    i + 1 ends below the band of level i.  Sums of powers of two are exact
    in float64, so the comparisons are exact.  The lookup rint(-log2 y)
    must also name level i at both band edges.
    """
    for i in range(1, heights.size + 1):
        h, r = heights[i - 1], radii[i - 1]
        if not 2.0 * r < 2.0**-i:
            raise AssertionError(f"eddy supports overlap within level {i}")
        if i < heights.size and not heights[i] + radii[i] < h - r:
            raise AssertionError(
                f"eddy supports overlap between levels {i} and {i + 1}")
        if not np.rint(-np.log2(h - r)) == i == np.rint(-np.log2(h + r)):
            raise AssertionError(f"level {i} band straddles a lookup cell")


def make_twisting_field(max_level: int = 8) -> VectorField:
    """Stack of disjoint rotational eddies accumulating on {y = 0}.

    Level i places balls of radius 2^-(i+2) at height 2^-i over the dyadic
    points j/2^i.  Inside each ball the field is f(s) (p - c)-perp with
    f(s) = cal * bump(s / r) / s, calibrated so the per-ball sup of the
    speed is exactly 1.  Eddies never overlap, so the field is smooth and
    divergence-free on the whole plane.

    Level i's balls fill the band 0.75 * 2^-i < y < 1.25 * 2^-i and sit
    2^-i apart, twice their diameter; the bands of different levels are
    disjoint.  So each point is tested against one ball only: the one of
    level rint(-log2 y) with the nearest dyadic center.
    """
    if not 1 <= max_level <= MAX_TWISTING_LEVELS:
        raise ValueError(
            f"max_level must be between 1 and {MAX_TWISTING_LEVELS}")
    heights, radii = _level_geometry(max_level)
    _assert_disjoint(heights, radii)
    # level i: 2^i - 1 balls centered at (j 2^-i, 2^-i), j = 1..2^i - 1
    counts = 2 ** np.arange(1, max_level + 1) - 1
    j = np.concatenate([np.arange(1.0, c + 1.0) for c in counts])
    y = np.repeat(heights, counts)
    # speed is cal * bump(s/r), whose sup over s is cal * BUMP_PEAK
    cal = 1.0 / BUMP_PEAK
    eddies = EddyStack(np.stack([j * y, y], axis=1),
                       np.repeat(radii, counts), cal)

    scales = np.array([2.0**i for i in range(1, max_level + 1)])
    name = f"twisting:levels={max_level}"

    def ev(pts):
        check_finite(name, pts)
        out = np.zeros((pts.shape[0], 2))
        # only the level rint(-log2 y) can hold a point (see EddyStack)
        k = np.flatnonzero(pts[:, 1] > 0.0)
        lev = np.rint(-np.log2(pts[k, 1]))
        ok = (lev >= 1) & (lev <= max_level)
        k = k[ok]
        i = lev[ok].astype(np.intp) - 1
        x, y, r, scale = pts[k, 0], pts[k, 1], radii[i], scales[i]
        # only the nearest dyadic center at this level can contain a point
        j = np.rint(x * scale)
        inside_j = (j >= 1) & (j <= scale - 1)
        dx = x - j / scale
        dy = y - heights[i]
        s = np.hypot(dx, dy)
        m = inside_j & (s > 0.0) & (s < r)
        speed = cal * bump(s[m] / r[m]) / s[m]
        # += into zeros turns a -0.0 component into 0.0
        km = k[m]
        out[km, 0] += speed * (-dy[m])
        out[km, 1] += speed * dx[m]
        return out

    return VectorField(dim=2, eval=ev, sup_bound=1.0, name=name,
                       analytic_div=lambda pts: np.zeros(pts.shape[0]),
                       eddies=eddies)


# ---------------------------------------------------------------------------
# capillary field on an open disk

def make_capillary_field(R: float) -> VectorField:
    """Normalized gradient-graph field of a lower hemisphere: x / R on |x| < R."""
    if R <= 0:
        raise ValueError("R must be positive")

    disk = Disk((0.0, 0.0), R)
    name = f"capillary:R={_fmt_num(R)}"

    def ev(pts):
        ok = disk.contains(pts)
        if not np.all(ok):
            raise OutOfDomainError(
                f"{name}: point {pts[~ok][0].tolist()} outside open disk "
                f"of radius {R}")
        return pts / R

    def evj(pts):
        J = np.zeros((pts.shape[0], 2, 2))
        J[:, 0, 0] = 1.0 / R
        J[:, 1, 1] = 1.0 / R
        return ev(pts), J

    return VectorField(dim=2, eval=ev, sup_bound=1.0, name=name,
                       analytic_div=lambda pts: np.full(pts.shape[0], 2.0 / R),
                       eval_jacobian=evj, disk=disk)


# ---------------------------------------------------------------------------
# cylindrical potentials and the rigidity counterexample

RADIAL_BOUND_CONSTANT = (math.pi + 3.0 ** 0.75) / 2.0
AXIS_CUTOFF = 1e-8
# a cylindrical field is smooth off its interface and its axis
_CYLINDRICAL_EXCLUSIONS = (
    Exclusion("hyperplane z=0", lambda pts: np.abs(pts[:, -1])),
    Exclusion("axis r=0", lambda pts: np.linalg.norm(pts[:, :-1], axis=1)),
)


def gamma_bounds(n: int) -> tuple[float, float]:
    """The two admissibility bounds on the amplitude gamma for dimension n."""
    if n < 4:
        raise ValueError("construction requires n >= 4")
    return (1.0 / RADIAL_BOUND_CONSTANT, 2.0 ** ((4.0 - 3.0 * n) / (n - 1.0)))


@dataclass(frozen=True)
class CylindricalPotential:
    """Scalar potential V(rho, z) generating a cylindrically symmetric field.

    The field components are recovered as
        radial coefficient  f = -rho^(1-n) dV/dz
        vertical component  h = rho^(2-n) dV/drho.
    """
    dim: int
    gamma: float
    V: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dV: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    label: str = "potential"


def _stable_root_term(u: np.ndarray, n: int) -> np.ndarray:
    """(1 + u)^(1/(n-1)) - 1 without cancellation at small u."""
    return np.expm1(np.log1p(u) / (n - 1.0))


def counterexample_potential(n: int, gamma) -> CylindricalPotential:
    # the potential is well defined for any positive gamma; only the field
    # constructor insists on the admissibility bounds, so that a too-large
    # gamma can still be certified (and found VIOLATED) downstream
    g = _resolve_gamma(n, gamma, strict=False)

    def V(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        rho, z = np.broadcast_arrays(rho, z)
        out = np.zeros(rho.shape)
        m = z > 0.0
        u = rho[m] ** (n - 1.0)
        out[m] = g * _stable_root_term(u, n) * np.arctan(z[m] ** 2)
        return out

    def dV(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        rho, z = np.broadcast_arrays(rho, z)
        dr = np.zeros(rho.shape)
        dz = np.zeros(rho.shape)
        m = z > 0.0
        u = rho[m] ** (n - 1.0)
        root = (1.0 + u) ** ((2.0 - n) / (n - 1.0))
        dr[m] = g * rho[m] ** (n - 2.0) * root * np.arctan(z[m] ** 2)
        dz[m] = g * _stable_root_term(u, n) * 2.0 * z[m] / (1.0 + z[m] ** 4)
        return dr, dz

    return CylindricalPotential(dim=n, gamma=g, V=V, dV=dV,
                                label=f"counterexample:n={n}:gamma={_fmt_num(g)}")


def _resolve_gamma(n: int, gamma, strict: bool = True) -> float:
    b_radial, b_vertical = gamma_bounds(n)
    if isinstance(gamma, str):
        if gamma != AUTO:
            raise ValueError(f"gamma must be a number or '{AUTO}'")
        return min(b_radial, b_vertical)
    g = float(gamma)
    if not 0 < g < math.inf:
        raise ValueError("gamma must be positive and finite")
    if strict and g > b_radial:
        raise ValueError(
            f"gamma={g} exceeds the radial-slope bound 1/C={b_radial:.12g}")
    if strict and g > b_vertical:
        raise ValueError(
            f"gamma={g} exceeds the vertical-growth bound "
            f"2^((4-3n)/(n-1))={b_vertical:.12g}")
    return g


def make_counterexample_field(n: int, gamma=AUTO) -> VectorField:
    """Bounded divergence-free field: zero below {z = 0}, nonzero above.

    Cylindrically symmetric with an explicit potential; the vertical
    component dominates the square of the speed, so the field defeats any
    linear lower bound of the vertical component by the speed while still
    vanishing on a half-space.
    """
    g = _resolve_gamma(n, gamma, strict=True)
    P = counterexample_potential(n, g)
    name = f"counterexample:n={n}:gamma={_fmt_num(g)}"

    def ev(pts):
        check_finite(name, pts)
        r = pts[:, :-1]
        z = pts[:, -1]
        out = np.zeros((pts.shape[0], n))
        m = z > 0.0
        if not np.any(m):
            return out
        rho = np.linalg.norm(r[m], axis=1)
        zm = z[m]
        vert = np.empty(rho.shape)
        radial_coef = np.zeros(rho.shape)
        ax = rho < AXIS_CUTOFF
        vert[ax] = g * np.arctan(zm[ax] ** 2)
        off = ~ax
        u = rho[off] ** (n - 1.0)
        vert[off] = g * np.arctan(zm[off] ** 2) * (1.0 + u) ** ((2.0 - n) / (n - 1.0))
        # radial part: -2 gamma ((1+u)^(1/(n-1)) - 1)/u * z/(1+z^4) per unit r
        radial_coef[off] = (-2.0 * g * _stable_root_term(u, n) / u
                            * zm[off] / (1.0 + zm[off] ** 4))
        block = np.zeros((rho.shape[0], n))
        block[:, :-1] = radial_coef[:, None] * r[m]
        block[:, -1] = vert
        out[m] = block
        return out

    return VectorField(dim=n, eval=ev, sup_bound=1.0, name=name,
                       analytic_div=lambda pts: np.zeros(pts.shape[0]),
                       smooth_exclusion=_CYLINDRICAL_EXCLUSIONS, potential=P)


def potential_to_field(P: CylindricalPotential) -> VectorField:
    """Assemble the cylindrically symmetric field from a potential gradient."""
    n = P.dim

    def ev(pts):
        r = pts[:, :-1]
        z = pts[:, -1]
        rho = np.linalg.norm(r, axis=1)
        # evaluate the radial limit just off the axis to avoid 0/0
        rho_safe = np.maximum(rho, AXIS_CUTOFF)
        dr, dz = P.dV(rho_safe, z)
        radial_coef = -(rho_safe ** (1.0 - n)) * dz
        vert = rho_safe ** (2.0 - n) * dr
        out = np.zeros((pts.shape[0], n))
        out[:, :-1] = radial_coef[:, None] * r
        out[:, -1] = vert
        return out

    return VectorField(dim=n, eval=ev, sup_bound=np.inf,
                       name=f"from-potential:{P.label}",
                       analytic_div=lambda pts: np.zeros(pts.shape[0]),
                       smooth_exclusion=_CYLINDRICAL_EXCLUSIONS)


def field_to_potential(eta: VectorField) -> CylindricalPotential:
    """Recover the potential by integrating the radial coefficient in z.

    V(rho, z) = -rho^(n-1) * integral of f(rho, s) ds over [0, z], where f
    is read off the field's radial part.  The gradient components come
    straight from field evaluations, so the round trip back to the field
    is exact up to quadrature in V itself.

    V integrates each gap between consecutive heights of one radius once,
    each to rtol = 1e-12 and atol = 1e-20, and sums the gaps below a node;
    the error of a sum is bounded by the sum of its pieces' estimates, so
    the k-th height of a radius carries an estimated error of at most
    rho^(n-1) * (rtol * sum |gap| + k * atol).  Where the radial
    coefficient keeps its sign on (0, z), as the counterexample's does (a
    positive multiple of z / (1 + z^4)), sum |gap| is |V| / rho^(n-1) and
    the bound is rtol * |V| + k * rho^(n-1) * atol.
    """
    from . import _quad
    n = eta.dim
    _audit_cylindrical(eta)

    def components(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        rho, z = np.broadcast_arrays(rho, z)
        pts = np.zeros((rho.size, n))
        flat_rho = np.maximum(rho.ravel(), AXIS_CUTOFF)
        pts[:, 0] = flat_rho
        pts[:, -1] = z.ravel()
        vals = eta.eval(pts)
        fcoef = vals[:, 0] / flat_rho
        h = vals[:, -1]
        return fcoef.reshape(rho.shape), h.reshape(rho.shape)

    def V(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        rho, z = np.broadcast_arrays(rho, z)
        rr, zz = rho.ravel(), z.ravel()
        # V = 0 for z <= 0.  The nodes above are sorted by (rho, z), and each
        # integrates only the gap up from the height below it at its radius
        # (from 0 for the lowest), all gaps in one batched quadrature.  The
        # z-integral is of size |V| / rho^(n-1) and gets scaled back up by
        # rho^(n-1), up to 1e9 on wide grids; keep its error relative
        live = np.flatnonzero(~(zz <= 0.0))  # a NaN z fails in _quad
        live = live[np.lexsort((zz[live], rr[live]))]
        r, top = rr[live], zz[live]
        starts = np.flatnonzero(r[1:] != r[:-1]) + 1  # a NaN rho runs alone
        bottom = np.zeros(top.size)
        bottom[1:] = top[:-1]
        bottom[starts] = 0.0
        gaps, _ = _quad.adaptive_gauss_rows(
            lambda rows, s: components(r[rows, None], s)[0],
            bottom, top, rtol=1e-12, atol=1e-20)
        # sum each radius's run on its own: one global cumsum less a run's
        # offset cancels the digits the rho^(n-1) scale then magnifies
        val = np.concatenate([np.cumsum(run) for run in np.split(gaps, starts)])
        out = np.zeros(rr.size)
        # the scale stays a scalar power: numpy's array power rounds some
        # inputs differently in the last bit, which would change the digits
        out[live] = [-(max(x, AXIS_CUTOFF) ** (n - 1.0)) * v
                     for x, v in zip(r.tolist(), val.tolist())]
        return out.reshape(rho.shape)

    def dV(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        rho, z = np.broadcast_arrays(rho, z)
        fcoef, h = components(rho, z)
        rr = np.maximum(rho, AXIS_CUTOFF)
        return rr ** (n - 2.0) * h, -(rr ** (n - 1.0)) * fcoef

    return CylindricalPotential(dim=n, gamma=math.nan, V=V, dV=dV,
                                label=f"recovered:{eta.name}")


def _audit_cylindrical(eta: VectorField) -> None:
    """Reject fields whose horizontal part is not radial or not symmetric,
    by 1e-8 or more at 32 random points and rotations."""
    rng = default_rng(873214)
    samples = 32
    n = eta.dim
    rho = rng.uniform(0.2, 2.0, samples)
    z = rng.uniform(0.1, 2.0, samples)
    theta = rng.uniform(0.0, 2.0 * math.pi, samples)
    base = np.zeros((samples, n))
    base[:, 0] = rho
    base[:, -1] = z
    rot = np.zeros((samples, n))
    rot[:, 0] = rho * np.cos(theta)
    rot[:, 1] = rho * np.sin(theta)
    rot[:, -1] = z
    vb = eta.eval(base)
    vr = eta.eval(rot)
    # radial coefficient and vertical component must match across rotation
    fb = vb[:, 0] / rho
    fr = np.einsum("ij,ij->i", vr[:, :-1], rot[:, :-1]) / rho**2
    tangential = vr[:, :-1] - fr[:, None] * rot[:, :-1]
    defect = max(np.max(np.abs(fb - fr)), np.max(np.abs(vb[:, -1] - vr[:, -1])),
                 np.max(np.linalg.norm(tangential, axis=1)))
    if defect > 1e-8:
        raise ValueError(f"field is not cylindrically symmetric: defect {defect:.3e}")


# ---------------------------------------------------------------------------
# registry

def _fmt_num(x: float) -> str:
    return f"{x:g}"


# converters of user input, shared by the registry, the interface specs
# and the CLI's flags and config keys: each raises ValueError on text it
# refuses, and argparse names the converter in its message

def finite_float(text) -> float:
    """Converter of every float parameter: nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def nonnegative_float(text) -> float:
    """Converter of a tolerance: a negative one makes its gate meaningless
    (a margin gate passes whatever the estimate), so it is a usage error."""
    value = finite_float(text)
    if not value >= 0.0:
        raise ValueError(f"{text!r} is negative")
    return value


def positive_float(text) -> float:
    """Converter of a parameter that must be finite and > 0 (a length, a
    step, a lift, a relative tolerance): zero or less is a usage error."""
    value = finite_float(text)
    if not value > 0.0:
        raise ValueError(f"{text!r} is not positive")
    return value


def int_range(lo: int, hi: int) -> Callable:
    """Converter of a count parameter: integers outside [lo, hi] are usage
    errors, so no count can ask for unbounded work or memory."""
    def conv(text) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise ValueError(f"{value} is outside [{lo}, {hi}]")
        return value

    conv.__name__ = f"integer in [{lo}, {hi}]"   # argparse's error names it
    return conv


def parse_gamma(text):
    """Amplitude text: 'auto' or a positive finite number."""
    return AUTO if text == AUTO else positive_float(text)


# kind -> (builder, {key: (default, converter)}, bare words allowed in order)
_REGISTRY = {
    "counterexample": (
        lambda p: make_counterexample_field(p["n"], p["gamma"]),
        {"n": (4, int_range(4, MAX_DIMENSION)),
         "gamma": (AUTO, parse_gamma)}, ()),
    "twisting": (
        lambda p: make_twisting_field(p["levels"]),
        {"levels": (8, int_range(1, MAX_TWISTING_LEVELS))}, ()),
    "capillary": (lambda p: make_capillary_field(p["R"]),
                  {"R": (1.0, positive_float)}, ()),
    "stream": (
        lambda p: (extrude_field_3d(stream_bump_field()) if p["3d"]
                   else stream_bump_field()),
        {}, ("bump", "3d")),
    "zero": (lambda p: zero_field(p["dim"]),
             {"dim": (2, int_range(1, MAX_DIMENSION))}, ()),
    "constant": (lambda p: constant_field(p["c"]),
                 {"c": ((0.0, -1.0), lambda text: tuple(
                     map(finite_float, text.split(","))))}, ()),
}


def parse_spec(name: str, table: dict = _REGISTRY,
               what: str = "field") -> tuple[str, dict]:
    """Split a spec like the registry id 'twisting:levels=8' into its kind
    and its converted parameters, defaults filled in.

    table maps each kind to (builder, {key: (default, converter)}, bare
    words): keys come in any order, words (switches) in their listed one.
    Unknown kinds, unknown or repeated keys, stray parts, and values that
    the kind's converter rejects raise ValueError.
    """
    kind, *parts = name.split(":")
    if kind not in table:
        raise ValueError(f"unknown {what} {name!r}")
    _, keys, words = table[kind]
    params = {key: default for key, (default, _) in keys.items()}
    params.update((word, False) for word in words)
    given = set()
    nwords = 0      # words seen so far; only words[nwords] may come next
    for part in parts:
        key, eq, text = part.partition("=")
        if not eq and words[nwords:nwords + 1] == (part,):
            params[part] = True
            nwords += 1
        elif not eq or key not in keys or key in given:
            grammar = ":".join([kind, *words, *(f"{k}=..." for k in keys)])
            raise ValueError(f"bad part {part!r} in {what} {name!r}; "
                             f"expected {grammar}, each part at most once")
        else:
            given.add(key)
            try:
                params[key] = keys[key][1](text)
            except ValueError as exc:
                raise ValueError(f"bad value in {part!r} of {what} "
                                 f"{name!r}: {exc}") from exc
    return kind, params


def get_field(name: str) -> VectorField:
    """Resolve a registry name like 'twisting:levels=8' to a field."""
    kind, params = parse_spec(name)
    return _REGISTRY[kind][0](params)


REGISTRY_EXAMPLES = (
    "counterexample:n=4:gamma=auto",
    "twisting:levels=8",
    "capillary:R=1",
    "stream:bump",
)
