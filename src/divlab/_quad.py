"""Quadrature kernels: composite Gauss panels with Richardson doubling.

All routines take vectorized integrands (arrays in, arrays out).  The
adaptive rules are three row batches, each a level function run by
`_refine`, the one refinement loop and the one place that raises
`QuadratureError`: the 1D Gauss rows `adaptive_gauss_rows` (with its
one-row case `adaptive_gauss_1d` and its nested 2D form
`adaptive_gauss_nested`, one inner row batch per outer level), the ball
rows `adaptive_ball_rows`, and the eddy ball rows of
`trace._eddy_pairings`.  Each row batch returns every row's value and its
achieved error estimate.  `_refine` alone sizes the integrand's calls: a
level's open rows reach their level function in calls of at most
MAX_CALL_NODES nodes, a larger row alone, and no row holds more than
MAX_LEVEL_NODES.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

# nodes per row of the finest level `_refine` builds: the 3D ball rule at
# order 128 sits at it
MAX_LEVEL_NODES = 2 ** 22
# nodes per call of a level function (a larger row goes alone); each
# level function computes its rows independently, so a row's value and
# estimate are the same bit for bit however `_refine` cuts its level
MAX_CALL_NODES = 2 ** 19


class QuadratureError(RuntimeError):
    pass


@functools.lru_cache(maxsize=64)
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = legendre.leggauss(order)
    return x, w


def _parts(values) -> np.ndarray:
    """A level's values as (rows, parts); a float or a value per row is
    one part."""
    v = np.atleast_1d(values)
    return v[:, None] if v.ndim == 1 else v


def _refine(level: Callable, n0: int, size: Callable, rtol: float,
            atol, max_doublings: int, rule: str, domain: Callable,
            nrows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The one refinement loop: level(rows, n) integrates rows `rows` of
    range(nrows) on size(n) nodes each (a float for one row), or returns
    each row as parts, one column per part.  A level's open rows go to
    level in consecutive calls of at most MAX_CALL_NODES nodes, counted
    by size(n); a row above that goes alone.  A row's value is the sum of
    its parts and its delta the sum of their |cur - prev|, so parts whose
    errors cancel cannot hide them.  From n0, each row doubles n until
    delta <= rtol*|value| + atol and leaves the batch; atol and size(n)
    are one number or one per row.  Returns each row's value and its last
    delta, the achieved error estimate.  A row still open after
    max_doublings, or before a level that would give an open row more
    than MAX_LEVEL_NODES nodes, raises QuadratureError naming the rule,
    domain(row) and the last delta; a row above it at n0 is refused
    before the first level.  Negative or non-finite tolerances raise
    ValueError before the first level."""
    tol = np.broadcast_to(np.asarray(atol, dtype=float), (nrows,))
    if not (0.0 <= rtol < math.inf
            and np.all((0.0 <= tol) & (tol < math.inf))):
        raise ValueError(f"tolerances must be finite and non-negative; got "
                         f"rtol={rtol}, atol={atol}")

    def nodes(n):
        return np.broadcast_to(size(n), (nrows,))

    def run(rows, n):
        # greedy cuts on the running node count, each at least one row
        ends = np.cumsum(nodes(n)[rows])
        parts, lo = [], 0
        while lo < rows.size:
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(
                ends, base + MAX_CALL_NODES, side="right")))
            parts.append(_parts(level(rows[lo:hi], n)))
            lo = hi
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    over = np.flatnonzero(nodes(n0) > MAX_LEVEL_NODES)
    if over.size:
        i = int(over[0])
        raise QuadratureError(
            f"{rule} quadrature refused {domain(i)}: its first level needs "
            f"{int(nodes(n0)[i])} nodes, above the cap of {MAX_LEVEL_NODES}")
    out, err = np.zeros(nrows), np.zeros(nrows)
    rows, n = np.arange(nrows), n0
    prev = run(rows, n)
    delta = np.full(nrows, math.inf)
    i = 0   # the open row the error names: the first, or the first at the cap
    for _ in range(max_doublings):
        over = np.flatnonzero(nodes(2 * n)[rows] > MAX_LEVEL_NODES)
        if over.size:
            i = int(over[0])
            break
        n *= 2
        cur = run(rows, n)
        value = cur.sum(axis=1, initial=-0.0)   # one part: itself, -0.0 too
        delta = np.abs(cur - prev).sum(axis=1)
        done = delta <= rtol * np.abs(value) + tol[rows]
        out[rows[done]] = value[done]
        err[rows[done]] = delta[done]
        rows, prev, delta = rows[~done], cur[~done], delta[~done]
        if rows.size == 0:
            return out, err
    raise QuadratureError(
        f"{rule} quadrature failed to converge on {domain(int(rows[i]))} "
        f"(last delta {float(delta[i]):.3e} at {int(nodes(n)[rows[i]])} "
        f"nodes)")


def _gauss_rows(f: Callable, rows: np.ndarray, a: np.ndarray,
                b: np.ndarray, panels: int, order: int) -> np.ndarray:
    """Composite Gauss rule with `panels` equal segments on each row's
    [a, b]; f(rows, s) gets the nodes s of shape (len(rows), nodes)."""
    x, w = leggauss(order)
    edges = np.linspace(a, b, panels + 1, axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1] - edges[:, 0])
    s = (mid[:, :, None] + half[:, None, None] * x).reshape(rows.size, -1)
    vals = np.asarray(f(rows, s), dtype=float)
    return half * (vals.reshape(rows.size, panels, order) @ w).sum(axis=1)


def adaptive_gauss_rows(f: Callable, a, b, rtol: float = 1e-8,
                        atol=1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Integrate row i of f over [a[i], b[i]] for every i at once, to the
    absolute tolerance atol (one number, or one per row); returns each
    row's value and its achieved error estimate, the last accepted delta.

    f(rows, s) returns the integrand of rows `rows` (indices into a and b)
    at the nodes s, shape (len(rows), nodes).  Each row doubles its panel
    count from 2, at most 12 times, and stops on its own test, exactly as
    if integrated alone; the rows still open at a level go to f in calls
    of at most MAX_CALL_NODES nodes, so a nested integral costs about one
    call per level.  A row with a == b gives 0.0 with estimate 0.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out, err = np.zeros(a.shape), np.zeros(a.shape)
    rows = np.flatnonzero(a != b)
    if rows.size:
        tol = np.broadcast_to(np.asarray(atol, dtype=float), a.shape)[rows]
        out[rows], err[rows] = _refine(
            lambda i, n: _gauss_rows(f, rows[i], a[rows[i]], b[rows[i]],
                                     n, 8),
            2, lambda n: 8 * n, rtol, tol, 12, "1d",
            lambda i: f"[{float(a[rows[i]])}, {float(b[rows[i]])}]",
            rows.size)
    return out, err


def adaptive_gauss_nested(f: Callable, a, b, lo: Callable, hi: Callable,
                          rtol: float, atol: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate row i of f(x, y) over a[i] < x < b[i], lo < y < hi for
    every i at once, as nested 1D rows: the outer x-rows are one
    `adaptive_gauss_rows` batch, and each of its levels integrates every
    outer node's y-row in one inner batch.  Returns each row's value and
    its achieved error estimate.

    lo(rows, x) and hi(rows, x) give the inner bounds of rows `rows` at
    their outer nodes x, shape (len(rows), nodes), as arrays that
    broadcast to it; f(rows, x, y) gets one entry of rows and x per inner
    row and that row's nodes y, shape (inner rows, nodes).  A row is held
    to the absolute budget atol: atol/2 for its outer rule and
    atol/(2|b - a|) for each of its inner rows, both with rtol.  Its
    estimate is its outer delta plus |b - a| times its largest inner
    delta at its last outer level.  A row with a == b gives 0.0 with
    estimate 0.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    width = np.abs(b - a)
    inner_delta = np.zeros(a.shape)   # per row, of its last outer level

    def inner(rows, x):
        owner = np.repeat(rows, x.shape[1])
        xs = x.ravel()
        vals, deltas = adaptive_gauss_rows(
            lambda i, y: f(owner[i], xs[i], y),
            np.broadcast_to(lo(rows, x), x.shape).ravel(),
            np.broadcast_to(hi(rows, x), x.shape).ravel(),
            rtol, 0.5 * atol / width[owner])
        inner_delta[rows] = deltas.reshape(x.shape).max(axis=1)
        return vals.reshape(x.shape)

    vals, deltas = adaptive_gauss_rows(inner, a, b, rtol, 0.5 * atol)
    return vals, deltas + width * inner_delta


def adaptive_gauss_1d(f: Callable, a: float, b: float,
                      rtol: float = 1e-8, atol: float = 1e-12) -> float:
    """Integrate f over [a, b], doubling the panel count from 2, at most
    12 times, until stable."""
    return float(adaptive_gauss_rows(lambda rows, s: f(s[0]), [a], [b],
                                     rtol, atol)[0][0])


def midpoint_grid(bounds, ns) -> tuple[np.ndarray, float]:
    """Uniform midpoint nodes on a box; returns (points, cell weight).

    The midpoint rule is the seed rule of choice for compactly supported
    smooth integrands: every Euler-Maclaurin boundary term vanishes, so the
    observed order exceeds 2 once the support is resolved.
    """
    axes = []
    cell = 1.0
    for (lo, hi), n in zip(bounds, ns):
        h = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * h)
        cell *= h
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts, cell


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere bounding the unit ball in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim."""
    return sphere_area(dim) / dim


def sphere_rule(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on the unit sphere S^(dim-1); returns (points, weights).

    Weights sum to the sphere area.  Trapezoid in the periodic angle,
    Gauss in the polar angles.
    """
    if dim == 2:
        th = 2.0 * math.pi * np.arange(order) / order
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
        wts = np.full(order, 2.0 * math.pi / order)
        return pts, wts
    if dim == 3:
        xc, wc = leggauss(order)          # cos(theta) on [-1, 1]
        nphi = 2 * order
        ph = 2.0 * math.pi * np.arange(nphi) / nphi
        ct = xc[:, None]
        st = np.sqrt(1.0 - ct**2)
        pts = np.stack([
            (st * np.cos(ph)[None, :]).ravel(),
            (st * np.sin(ph)[None, :]).ravel(),
            np.broadcast_to(ct, (order, nphi)).ravel(),
        ], axis=1)
        wts = np.broadcast_to(wc[:, None] * (2.0 * math.pi / nphi),
                              (order, nphi)).ravel().copy()
        return pts, wts
    if dim == 4:
        # chi, theta polar (Gauss), phi periodic (trapezoid);
        # measure sin^2(chi) sin(theta) dchi dtheta dphi
        xg, wg = leggauss(order)
        chi = 0.5 * math.pi * (xg + 1.0)
        wchi = 0.5 * math.pi * wg * np.sin(chi) ** 2
        cth = xg
        wth = wg
        nphi = 2 * order
        ph = 2.0 * math.pi * np.arange(nphi) / nphi
        wph = 2.0 * math.pi / nphi
        CHI, CTH, PH = np.meshgrid(chi, cth, ph, indexing="ij")
        WC, WT, _ = np.meshgrid(wchi, wth, ph, indexing="ij")
        sth = np.sqrt(1.0 - CTH**2)
        pts = np.stack([
            np.cos(CHI).ravel(),
            (np.sin(CHI) * CTH).ravel(),
            (np.sin(CHI) * sth * np.cos(PH)).ravel(),
            (np.sin(CHI) * sth * np.sin(PH)).ravel(),
        ], axis=1)
        wts = (WC * WT * wph).ravel()
        return pts, wts
    raise ValueError(f"sphere rule not implemented for dim {dim}")


def ball_rules(dim: int, centers, radii, radial_order: int,
               angular_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed product rules over many balls at once, one per row of centers
    (shape (balls, dim)) with one radius each (or one for all): Gauss in
    the radius, `sphere_rule` in the angles.  Returns points
    (balls, nodes, dim) and weights (balls, nodes), the weights with the
    volume element; each ball's rule is the same bit for bit whatever
    balls share the call."""
    c = np.asarray(centers, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), c.shape[:1])
    xr, wr = leggauss(radial_order)
    half = (0.5 * radii)[:, None]
    r = half * (xr + 1.0)
    wrr = half * wr * r ** (dim - 1)
    spts, swts = sphere_rule(dim, angular_order)
    pts = r[:, :, None, None] * spts[None, None, :, :]
    pts += c[:, None, None, :]      # in place: the sum is the same either way
    wts = wrr[:, :, None] * swts[None, None, :]
    return pts.reshape(c.shape[0], -1, dim), wts.reshape(c.shape[0], -1)


def adaptive_ball_rows(f: Callable, centers, radii, dim: int,
                       rtol: float = 1e-8, atol: float = 1e-12
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate row i of f over the ball about centers[i] of radius
    radii[i] (or one radius for all) for every i at once; returns each
    row's value and its achieved error estimate, the last accepted delta.

    f(rows, pts) returns the integrand of rows `rows` at the nodes pts,
    shape (len(rows), nodes, dim), as an array (len(rows), nodes).  Each
    row doubles its radial order from 4 (with max(order, 6) angles), at
    most 6 times, and stops on its own test, exactly as if integrated
    alone; the rows still open at a level go to f in calls of at most
    MAX_CALL_NODES nodes.
    """
    c = np.asarray(centers, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), c.shape[:1])

    def level(rows, order):
        pts, wts = ball_rules(dim, c[rows], radii[rows], order,
                              max(order, 6))
        vals = np.asarray(f(rows, pts), dtype=float)
        return np.array([np.dot(w, v) for w, v in zip(wts, vals)])

    def size(order):    # radial x sphere nodes: a, 2a^2 or 2a^3 angles
        return order * max(order, 6) ** (dim - 1) * (1 if dim == 2 else 2)

    return _refine(
        level, 4, size, rtol, atol, 6, "ball",
        lambda i: (f"the ball of radius {float(radii[i])} about "
                   f"{c[i].tolist()}"), c.shape[0])

