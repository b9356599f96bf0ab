"""Quadrature building blocks: composite Gauss, product rules, measures."""

import math
import re
import warnings

import numpy as np
import pytest

from divlab import _quad


def test_gauss_1d_exact_on_polynomials():
    # order-8 Gauss integrates degree <= 15 exactly on each panel, so the
    # first two levels (2 and 4 panels) agree and the rule stops there
    val = _quad.adaptive_gauss_1d(lambda x: 3.0 * x**7 - x**2 + 1.0,
                                  -1.0, 2.0, rtol=0.0, atol=1e-12)
    exact = 3.0 * (2.0**8 - 1.0) / 8.0 - (2.0**3 + 1.0) / 3.0 + 3.0
    assert abs(val - exact) < 1e-12


def test_adaptive_gauss_1d_smooth():
    val = _quad.adaptive_gauss_1d(np.sin, 0.0, math.pi, rtol=1e-12)
    assert abs(val - 2.0) < 1e-12


def test_adaptive_gauss_1d_reports_last_delta():
    # an oscillation far beyond the finest panel count keeps doubling from
    # settling; the error must carry the size of the last refinement step,
    # not a placeholder zero
    def wild(x):
        return np.sin(1e7 * x * x)

    with pytest.raises(_quad.QuadratureError) as exc:
        _quad.adaptive_gauss_1d(wild, 0.0, 1.0, rtol=1e-14, atol=1e-16)
    assert "0.000e+00" not in str(exc.value)


def _reference_adaptive_1d(f, a, b, rtol, atol, max_doublings=12):
    # one interval at a time, as the rule was written before rows were
    # batched; the batch must reproduce it bit for bit
    x, w = _quad.leggauss(8)

    def panels_sum(panels):
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        vals = f((mid[:, None] + half * x[None, :]).ravel())
        return float(half * np.dot(vals.reshape(panels, 8), w).sum())

    if a == b:
        return 0.0
    panels = 2
    prev = panels_sum(panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = panels_sum(panels)
        if abs(cur - prev) <= rtol * abs(cur) + atol:
            return cur
        prev = cur
    raise _quad.QuadratureError("reference failed to converge")


def test_row_batch_matches_one_row_loop_bitwise():
    rng = np.random.default_rng(11)
    a = rng.uniform(-3.0, 3.0, 40)
    b = rng.uniform(-3.0, 3.0, 40)
    b[:5] = a[:5]                       # empty rows
    a[5:10], b[5:10] = 2.0, -1.0        # reversed rows
    k = rng.uniform(0.1, 40.0, 40)
    c = rng.uniform(-2.0, 2.0, 40)

    def f(rows, s):
        return np.sin(k[rows, None] * s) + c[rows, None] * s ** 3

    batch, estimates = _quad.adaptive_gauss_rows(f, a, b, rtol=1e-10,
                                                 atol=1e-13)
    rows = [lambda s, i=i: np.sin(k[i] * s) + c[i] * s ** 3
            for i in range(40)]
    loop = [_quad.adaptive_gauss_1d(rows[i], a[i], b[i], rtol=1e-10,
                                    atol=1e-13) for i in range(40)]
    reference = [_reference_adaptive_1d(rows[i], a[i], b[i], 1e-10, 1e-13)
                 for i in range(40)]
    assert np.array_equal(batch, loop)
    assert np.array_equal(batch, reference)
    assert np.all(batch[:5] == 0.0)


# each row's estimate is its last accepted delta: inside its own stopping
# test, and the same as the row integrated alone; an empty row (a == b)
# has nothing to estimate and reads 0.0
def test_row_batch_returns_each_rows_estimate():
    k = np.array([1.0, 3.0, 7.0, 2.0])
    a = np.array([0.0, -1.0, 0.5, 2.0])
    b = np.array([1.0, 2.0, 3.0, 2.0])

    def f(rows, s):
        return np.exp(np.sin(k[rows, None] * s))

    vals, estimates = _quad.adaptive_gauss_rows(f, a, b, rtol=1e-10,
                                                 atol=1e-13)
    assert estimates[3] == 0.0 and vals[3] == 0.0
    assert np.all(estimates[:3] > 0.0)
    assert np.all(estimates <= 1e-10 * np.abs(vals) + 1e-13)
    for i in range(3):
        alone = _quad.adaptive_gauss_rows(
            lambda rows, s, i=i: np.exp(np.sin(k[i] * s)), a[i:i + 1],
            b[i:i + 1], rtol=1e-10, atol=1e-13)
        assert alone[0][0] == vals[i] and alone[1][0] == estimates[i]


# rule 3: a level's open rows reach the integrand in calls of at most
# MAX_CALL_NODES nodes.  At a cap of 1,000 every level of these 40 rows
# (at most 512 nodes each) is cut, and each row's value and estimate are
# those of the uncut batch bit for bit
def test_row_batch_is_cut_at_the_call_cap(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 3.0, 40)
    b = a + rng.uniform(0.5, 3.0, 40)
    k = rng.uniform(0.1, 10.0, 40)
    calls = []

    def f(rows, s):
        calls.append(s.size)
        return np.sin(k[rows, None] * s)

    whole = _quad.adaptive_gauss_rows(f, a, b, rtol=1e-10, atol=1e-13)
    uncut = len(calls)
    assert max(calls) > 1000
    monkeypatch.setattr(_quad, "MAX_CALL_NODES", 1000)
    calls.clear()
    cut = _quad.adaptive_gauss_rows(f, a, b, rtol=1e-10, atol=1e-13)
    assert len(calls) > uncut and max(calls) <= 1000
    assert np.array_equal(cut[0], whole[0])
    assert np.array_equal(cut[1], whole[1])


def test_row_batch_failure_names_the_failing_row():
    # row 1 oscillates beyond the finest panel count and never settles
    k = np.array([1.0, 1e7, 2.0])
    a, b = np.zeros(3), np.array([1.0, 0.5, 1.0])

    def f(rows, s):
        return np.sin(k[rows, None] * s * s)

    with pytest.raises(_quad.QuadratureError) as batch:
        _quad.adaptive_gauss_rows(f, a, b, rtol=1e-14, atol=1e-16)
    with pytest.raises(_quad.QuadratureError) as alone:
        _quad.adaptive_gauss_1d(lambda s: np.sin(1e7 * s * s), 0.0, 0.5,
                                rtol=1e-14, atol=1e-16)
    assert "[0.0, 0.5]" in str(batch.value)
    assert str(batch.value) == str(alone.value)


# row 0 is the separable e^x cos y on [0, 1] x [0, pi/2]; row 1 is x y on
# the triangle 0 < y < x < 1, whose inner bound moves with x
def test_adaptive_gauss_nested_separable_and_triangle():
    def f(rows, x, y):
        return np.where((rows == 0)[:, None],
                        np.exp(x)[:, None] * np.cos(y), x[:, None] * y)

    vals, _ = _quad.adaptive_gauss_nested(
        f, [0.0, 0.0], [1.0, 1.0], lambda rows, x: 0.0,
        lambda rows, x: np.where((rows == 0)[:, None], math.pi / 2, x),
        1e-12, 1e-12)
    assert abs(vals[0] - (math.e - 1.0)) < 1e-11
    assert abs(vals[1] - 0.125) < 1e-11


def test_nested_zero_width_row_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, estimates = _quad.adaptive_gauss_nested(
            lambda rows, x, y: np.ones(y.shape), [0.3, 0.0], [0.3, 2.0],
            lambda rows, x: 0.0, lambda rows, x: 1.0, 1e-10, 1e-12)
    assert vals[0] == 0.0 and estimates[0] == 0.0
    assert vals[1] == pytest.approx(2.0, rel=1e-12)


def test_per_row_atol_matches_separate_runs_bitwise():
    k = np.array([3.0, 7.0, 11.0])
    atol = np.array([1e-4, 1e-9, 1e-13])

    def f(rows, s):
        return np.sin(k[rows, None] * s) * np.exp(s)

    vals, estimates = _quad.adaptive_gauss_rows(f, np.zeros(3), np.ones(3),
                                                0.0, atol)
    for i in range(3):
        alone = _quad.adaptive_gauss_rows(
            lambda rows, s: np.sin(k[i] * s) * np.exp(s), [0.0], [1.0],
            0.0, float(atol[i]))
        assert vals[i] == alone[0][0] and estimates[i] == alone[1][0]


def test_midpoint_grid_sums_box_measure():
    pts, w = _quad.midpoint_grid([(-2.7, 3.3), (0.0, 1.0)], (64, 64))
    assert pts.shape == (64 * 64, 2)
    assert float(np.sum(np.full(pts.shape[0], w))) == pytest.approx(6.0, abs=1e-12)


def test_ball_and_sphere_measures():
    assert _quad.ball_volume(1) == pytest.approx(2.0)
    assert _quad.ball_volume(2) == pytest.approx(math.pi)
    assert _quad.ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert _quad.sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert _quad.sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_ball_rule_integrates_radius_squared():
    pts, w = _quad.ball_rules(2, [(0.5, -1.0)], 2.0, radial_order=8,
                              angular_order=16)
    val = float(np.sum(w[0] * np.sum((pts[0] - np.array([0.5, -1.0])) ** 2,
                                     axis=1)))
    # integral of s^2 over a disk of radius R is pi R^4 / 2
    assert val == pytest.approx(math.pi * 8.0, rel=1e-13)


def _one_ball(f, center, radius, dim, rtol=1e-8, atol=1e-12):
    """f(points) integrated over one ball, as the one row of a batch."""
    vals, _ = _quad.adaptive_ball_rows(
        lambda rows, pts: np.asarray(f(pts[0]), dtype=float)[None],
        np.asarray(center, dtype=float)[None], radius, dim, rtol, atol)
    return float(vals[0])


def test_ball_row_batch_integrates_a_constant():
    val = _one_ball(lambda p: np.ones(p.shape[0]), np.zeros(2), 1.5, 2,
                    rtol=1e-12)
    assert val == pytest.approx(math.pi * 2.25, rel=1e-12)


def _reference_ball_rule(dim, center, radius, radial_order, angular_order):
    # one ball at a time, as the rule was written before balls were
    # batched; every batched ball must reproduce it bit for bit
    c = np.asarray(center, dtype=float)
    xr, wr = _quad.leggauss(radial_order)
    r = 0.5 * radius * (xr + 1.0)
    wrr = 0.5 * radius * wr * r ** (dim - 1)
    spts, swts = _quad.sphere_rule(dim, angular_order)
    pts = c[None, None, :] + r[:, None, None] * spts[None, :, :]
    wts = wrr[:, None] * swts[None, :]
    return pts.reshape(-1, dim), wts.ravel()


def _reference_adaptive_ball(f, center, radius, dim, rtol, atol):
    order = 4
    pts, w = _reference_ball_rule(dim, center, radius, order, 6)
    prev = float(np.dot(w, f(pts)))
    for _ in range(6):
        order *= 2
        pts, w = _reference_ball_rule(dim, center, radius, order,
                                      max(order, 6))
        cur = float(np.dot(w, f(pts)))
        if abs(cur - prev) <= rtol * abs(cur) + atol:
            return cur
        prev = cur
    raise _quad.QuadratureError("reference failed to converge")


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_rules_match_one_ball_rule_bitwise(dim):
    rng = np.random.default_rng(5)
    centers = rng.uniform(-2.0, 2.0, (7, dim))
    radii = rng.uniform(0.01, 3.0, 7)
    for radial, angular in [(16, 32), (8, 6), (5, 128)]:
        pts, wts = _quad.ball_rules(dim, centers, radii, radial, angular)
        for c, r, p, w in zip(centers, radii, pts, wts):
            ref_p, ref_w = _reference_ball_rule(dim, c, r, radial, angular)
            assert np.array_equal(p, ref_p) and np.array_equal(w, ref_w)


def test_ball_row_batch_matches_one_row_loop_bitwise():
    rng = np.random.default_rng(17)
    centers = rng.uniform(-1.0, 1.0, (12, 2))
    k = rng.uniform(0.5, 12.0, 12)
    radii = rng.uniform(0.1, 1.0, 12)

    def row(i):
        return lambda p: np.cos(k[i] * p[:, 0]) * np.exp(-p[:, 1] ** 2)

    def f(rows, pts):
        return np.cos(k[rows, None] * pts[..., 0]) * np.exp(-pts[..., 1] ** 2)

    for radius in (radii, 0.5):
        batch, estimates = _quad.adaptive_ball_rows(f, centers, radius, 2,
                                                    rtol=1e-9, atol=1e-13)
        assert np.all(estimates <= 1e-9 * np.abs(batch) + 1e-13)
        rr = np.broadcast_to(radius, 12)
        loop = [_one_ball(row(i), centers[i], rr[i], 2, rtol=1e-9,
                          atol=1e-13) for i in range(12)]
        reference = [_reference_adaptive_ball(row(i), centers[i], rr[i], 2,
                                              1e-9, 1e-13)
                     for i in range(12)]
        assert np.array_equal(batch, loop)
        assert np.array_equal(batch, reference)


def test_ball_row_batch_failure_names_the_failing_row():
    # row 1 oscillates beyond the finest order and never settles
    k = np.array([1.0, 1e7, 2.0])
    centers = np.array([[0.0, 0.0], [0.25, -1.0], [1.0, 1.0]])

    def f(rows, pts):
        return np.sin(k[rows, None] * pts[..., 0])

    with pytest.raises(_quad.QuadratureError) as batch:
        _quad.adaptive_ball_rows(f, centers, 0.5, 2, rtol=1e-14, atol=1e-16)
    with pytest.raises(_quad.QuadratureError) as alone:
        _one_ball(lambda p: np.sin(1e7 * p[:, 0]), (0.25, -1.0), 0.5, 2,
                  rtol=1e-14, atol=1e-16)
    assert "the ball of radius 0.5 about [0.25, -1.0]" in str(batch.value)
    assert str(batch.value) == str(alone.value)


# every adaptive rule fails through the one refinement loop, whose error
# names the rule, its domain and the last delta between two levels
@pytest.mark.parametrize("integrate,names", [
    (lambda: _quad.adaptive_gauss_nested(
        lambda rows, x, y: np.sin(1e7 * x[:, None] * y), [0.0], [1.0],
        lambda rows, x: 0.0, lambda rows, x: 0.5, 1e-14, 1e-16),
     "1d quadrature failed to converge on [0.0, 0.5]"),
    (lambda: _one_ball(
        lambda p: np.sin(1e7 * p[:, 0]), (0.25, -1.0), 0.5, 2,
        rtol=1e-14, atol=1e-16),
     "ball quadrature failed to converge on the ball of radius 0.5 "
     "about [0.25, -1.0]"),
], ids=["nested", "ball"])
def test_failure_names_rule_domain_and_last_delta(integrate, names):
    with pytest.raises(_quad.QuadratureError) as exc:
        integrate()
    message = str(exc.value)
    assert message.startswith(names)
    delta = re.search(r"\(last delta (\S+) at \d+ nodes\)$", message)
    assert math.isfinite(float(delta[1])) and float(delta[1]) > 0.0


def test_level_above_the_node_cap_is_never_built(monkeypatch):
    # 2D ball levels hold 24, 64, 256, 1024, ... nodes; with a cap of
    # 1000 the fourth level is refused before the integrand sees it
    monkeypatch.setattr(_quad, "MAX_LEVEL_NODES", 1000)
    sizes = []

    def wild(p):
        sizes.append(p.shape[0])
        return np.sin(1e7 * p[:, 0])

    with pytest.raises(_quad.QuadratureError, match=r"at 256 nodes\)$"):
        _one_ball(wild, (0.0, 0.0), 1.0, 2, rtol=1e-14, atol=1e-16)
    assert sizes == [24, 64, 256]


def test_a_row_above_the_node_cap_at_its_first_level_is_refused(
        monkeypatch):
    monkeypatch.setattr(_quad, "MAX_LEVEL_NODES", 1000)
    built = []
    with pytest.raises(_quad.QuadratureError,
                       match=r"^x quadrature refused row 1: its first level "
                             r"needs 2000 nodes, above the cap of 1000$"):
        _quad._refine(lambda rows, n: built.append(n) or np.zeros(rows.size),
                      1, lambda n: np.array([10, 2000]) * n, 0.0, 1e-3, 10,
                      "x", lambda i: f"row {i}", 2)
    assert built == []


# row 0 holds 400 nodes per n and settles at n = 2; row 1 holds 10 per n
# and settles at n = 64.  The cap follows the open rows, so row 1 doubles
# past the n at which row 0 would have passed it; a row that reaches the
# cap is the one the error names, with its own node count
def test_the_node_cap_follows_each_open_row(monkeypatch):
    monkeypatch.setattr(_quad, "MAX_LEVEL_NODES", 1000)

    def level(rows, n):
        return np.where(rows == 0, 1.0, 1.0 / n)

    out, err = _quad._refine(level, 1, lambda n: np.array([400, 10]) * n,
                             0.0, 0.02, 10, "x", lambda i: f"row {i}", 2)
    assert out.tolist() == [1.0, 1 / 64] and err.tolist() == [0.0, 1 / 64]
    with pytest.raises(_quad.QuadratureError,
                       match=r"^x quadrature failed to converge on row 1 "
                             r"\(last delta 1\.250e-01 at 800 nodes\)$"):
        _quad._refine(level, 1, lambda n: np.array([10, 100]) * n, 0.0, 0.02,
                      10, "x", lambda i: f"row {i}", 2)


# the refinement loop checks its tolerances before the first level; a
# negative rtol used to run all 12 doublings and then report a misleading
# failure to converge
@pytest.mark.parametrize("rtol,atol", [
    (-1.0, 1e-12), (math.nan, 1e-12), (1e-8, math.inf), (1e-8, -1e-12),
], ids=["negative-rtol", "nan-rtol", "inf-atol", "negative-atol"])
@pytest.mark.parametrize("rule", ["1d", "2d", "ball"])
def test_bad_tolerance_is_rejected_before_any_integrand_call(rule, rtol,
                                                             atol):
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.ones(x.shape[0])

    with pytest.raises(ValueError, match="tolerances"):
        if rule == "1d":
            _quad.adaptive_gauss_1d(lambda s: f(s[:, None]), 0.0, 1.0,
                                    rtol=rtol, atol=atol)
        elif rule == "2d":
            _quad.adaptive_gauss_nested(
                lambda rows, x, y: f(y.reshape(-1, 1)).reshape(y.shape),
                [0.0], [1.0], lambda rows, x: 0.0, lambda rows, x: 1.0,
                rtol, atol)
        else:
            _one_ball(f, (0.0, 0.0), 1.0, 2, rtol=rtol, atol=atol)
    assert calls == []
