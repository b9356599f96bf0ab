"""Field constructors: registry, bounds, symmetry, exact values."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divlab import _quad
from divlab.blowup import rescale
from divlab.fields import (
    AUTO,
    BUMP_PEAK,
    BUMP_SLOPE_PEAK,
    RADIAL_BOUND_CONSTANT,
    REGISTRY_EXAMPLES,
    OutOfDomainError,
    bump,
    bump_with_d1,
    constant_field,
    counterexample_potential,
    extrude_field_3d,
    field_to_potential,
    gamma_bounds,
    get_field,
    make_capillary_field,
    make_counterexample_field,
    make_twisting_field,
    potential_to_field,
    stream_bump_field,
    zero_field,
    _assert_disjoint,
    _level_geometry,
)
from divlab.rigidity import default_certification_grid


# ---------------------------------------------------------------------------
# bump profile

def test_bump_peaks_are_the_closed_forms():
    # the stream bump's amplitude and every test bump's C1 norm divide or
    # multiply by these, so their bits are pinned: the value peak is w(1/2)
    # and the slope peak is |w'| where 1 - 3 s^2 = 0, s = (2u - 1)^2
    assert BUMP_PEAK == 0.36787944117144233 == bump(0.5)
    assert BUMP_SLOPE_PEAK == 1.5968595036671986
    slopes = np.abs(bump_with_d1(np.linspace(0.0, 1.0, 2_000_001))[1])
    assert np.max(slopes) <= BUMP_SLOPE_PEAK
    assert np.max(slopes) == pytest.approx(BUMP_SLOPE_PEAK, rel=1e-11)


# ---------------------------------------------------------------------------
# amplitude bounds

def test_gamma_bounds_n4_closed_forms():
    lo, hi = gamma_bounds(4)
    assert abs(lo - 2.0 / (math.pi + 3.0**0.75)) < 1e-13
    assert abs(hi - 2.0 ** (-8.0 / 3.0)) < 1e-13
    assert RADIAL_BOUND_CONSTANT == pytest.approx((math.pi + 3.0**0.75) / 2.0,
                                                  rel=1e-15)


def test_gamma_bounds_need_n_at_least_4():
    with pytest.raises(ValueError):
        gamma_bounds(3)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_gamma_bounds_positive_and_shrinking(n):
    lo, hi = gamma_bounds(n)
    assert lo > 0 and hi > 0
    if n > 4:
        assert hi < gamma_bounds(n - 1)[1]


def test_auto_gamma_is_the_smaller_bound():
    P = counterexample_potential(4, AUTO)
    assert P.gamma == min(gamma_bounds(4))


def test_field_constructor_names_the_violated_bound():
    with pytest.raises(ValueError, match="radial-slope"):
        make_counterexample_field(4, 1.0)
    with pytest.raises(ValueError, match="vertical-growth"):
        make_counterexample_field(4, 0.2)
    with pytest.raises(ValueError, match="positive"):
        make_counterexample_field(4, -0.5)


def test_potential_tolerates_inadmissible_gamma():
    # the potential itself stays well defined, so an out-of-bound amplitude
    # can still be certified downstream (and found wanting)
    P = counterexample_potential(4, 1.0)
    assert P.gamma == 1.0
    v = P.V(np.array([1.0]), np.array([2.0]))
    assert np.isfinite(v).all()


# ---------------------------------------------------------------------------
# half-space counterexample

def test_axis_speed_matches_arctan_limit(counterexample_auto):
    v = counterexample_auto.eval(np.array([[0.0, 0.0, 0.0, 1.0]]))[0]
    gamma = min(gamma_bounds(4))
    assert float(np.linalg.norm(v)) == pytest.approx(gamma * math.pi / 4.0,
                                                     abs=1e-15)


def test_counterexample_vanishes_below_interface(counterexample_auto, rng):
    pts = rng.uniform(-3.0, 3.0, size=(64, 4))
    pts[:, -1] = -np.abs(pts[:, -1]) - 1e-12
    assert np.all(counterexample_auto.eval(pts) == 0.0)


def test_counterexample_respects_sup_bound(counterexample_auto, rng):
    pts = rng.uniform(-5.0, 5.0, size=(512, 4))
    speeds = np.linalg.norm(counterexample_auto.eval(pts), axis=1)
    assert np.all(speeds <= counterexample_auto.sup_bound + 1e-12)


def test_potential_field_round_trip():
    P = counterexample_potential(4, AUTO)
    f = potential_to_field(P)
    Q = field_to_potential(f)
    rho = np.linspace(0.05, 8.0, 12)
    z = np.linspace(-1.0, 6.0, 12)
    RR, ZZ = np.meshgrid(rho, z)
    assert np.max(np.abs(Q.V(RR, ZZ) - P.V(RR, ZZ))) < 1e-10
    fr, fz = Q.dV(RR, ZZ)
    pr, pz = P.dV(RR, ZZ)
    assert np.max(np.abs(fr - pr)) < 1e-12
    assert np.max(np.abs(fz - pz)) < 1e-12


def test_field_to_potential_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        field_to_potential(constant_field([1.0, 0.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def recovered_counterexample(counterexample_auto):
    return field_to_potential(counterexample_auto)


def _alone(Q, rho, z):
    # a point on its own integrates one row from z = 0 up to its height
    return np.array([float(Q.V(r, h)) for r, h in
                     zip(np.ravel(rho).tolist(), np.ravel(z).tolist())])


def test_recovered_potential_sums_gaps_like_rows_from_zero(
        recovered_counterexample):
    Q = recovered_counterexample
    # unsorted, repeated radii and heights, mixed with z <= 0; the small
    # radii's large z-integrals come first in (rho, z) order, where one
    # cumsum across radii would cancel the wide radii's digits
    rng = np.random.default_rng(1708)
    rho = rng.choice([0.05, 0.7, 3.0, 40.0, 1e3], size=40)
    z = rng.choice([-1.0, 0.0, 0.4, 1.3, 2.5, 6.0], size=40)
    rho[:3], z[:3] = 0.7, 1.3
    got = Q.V(rho, z)
    assert got.shape == (40,)
    np.testing.assert_allclose(got, _alone(Q, rho, z), rtol=1e-11, atol=0)
    assert np.all(got[z <= 0.0] == 0.0)
    # an 'xy' meshgrid: heights vary along the first axis
    RR, ZZ = np.meshgrid([2.0, 0.1, 9.0], [3.0, -0.5, 0.2, 1.0])
    got = Q.V(RR, ZZ)
    assert got.shape == RR.shape
    np.testing.assert_allclose(got.ravel(), _alone(Q, RR, ZZ),
                               rtol=1e-11, atol=0)
    scalar = Q.V(0.7, 1.3)
    assert scalar.shape == ()
    assert float(scalar) == float(Q.V(np.array([0.7]), np.array([1.3]))[0])
    assert Q.V(np.zeros(0), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad", ["z", "rho"])
def test_recovered_potential_nan_input_raises(recovered_counterexample, bad):
    # a NaN never reaches a neighbour's prefix sum as a value: the field
    # refuses the first quadrature node it lands on
    rho = np.array([0.7, 0.7, 0.7, 2.0])
    z = np.array([0.5, 1.0, 2.0, 1.0])
    (rho if bad == "rho" else z)[1] = np.nan
    with pytest.raises(ValueError, match="counterexample.*non-finite point"):
        recovered_counterexample.V(rho, z)


def test_recovered_potential_integrates_each_gap_once(counterexample_auto):
    nodes = [0]

    def counted(pts, ev=counterexample_auto.eval):
        nodes[0] += pts.shape[0]
        return ev(pts)

    Q = field_to_potential(dataclasses.replace(counterexample_auto,
                                               eval=counted))
    rho_ax, z_ax = default_certification_grid(50).axes()
    RHO, Z = np.meshgrid(rho_ax, z_ax, indexing="ij")
    nodes[0] = 0
    Q.V(RHO, Z)
    # 2,250 gaps that settle at 2 and 4 panels of 8 nodes: 108,000 nodes;
    # one row per node from z = 0 takes 942,176
    assert nodes[0] <= 120_000


# rule 3: the gaps of a grid reach the field in calls of at most
# MAX_CALL_NODES nodes; at the 50x50 grid's first level (2,250 gaps of 16
# nodes) one call held 36,000.  Under a cap of 4,096 none passes it, and V
# is the same bit for bit
def test_recovered_potential_keeps_each_field_call_under_the_cap(
        counterexample_auto, monkeypatch):
    calls = []

    def counted(pts, ev=counterexample_auto.eval):
        calls.append(pts.shape[0])
        return ev(pts)

    Q = field_to_potential(dataclasses.replace(counterexample_auto,
                                               eval=counted))
    rho_ax, z_ax = default_certification_grid(50).axes()
    RHO, Z = np.meshgrid(rho_ax, z_ax, indexing="ij")
    calls.clear()
    whole = Q.V(RHO, Z)
    assert max(calls) > 4096
    monkeypatch.setattr(_quad, "MAX_CALL_NODES", 4096)
    calls.clear()
    assert np.array_equal(Q.V(RHO, Z), whole)
    assert max(calls) <= 4096


# ---------------------------------------------------------------------------
# twisting eddy stack

def test_twisting_ball_count():
    eddies = make_twisting_field(8).eddies
    assert eddies.centers.shape == (2**9 - 2 - 8, 2)
    assert eddies.radii.shape == (2**9 - 2 - 8,)


def test_twisting_balls_come_level_by_level_in_center_order():
    # level i holds the balls at (j 2^-i, 2^-i), j = 1..2^i - 1, of radius
    # 2^-(i+2); the probes add up per-ball terms in this order
    eddies = make_twisting_field(5).eddies
    want = [(j * 2.0**-i, 2.0**-i, 2.0**-(i + 2))
            for i in range(1, 6) for j in range(1, 2**i)]
    got = np.column_stack([eddies.centers, eddies.radii])
    assert np.array_equal(got, np.array(want))


def test_twisting_balls_stay_in_open_square():
    eddies = make_twisting_field(6).eddies
    c, r = eddies.centers, eddies.radii[:, None]
    assert np.all(c - r > 0.0)
    assert np.all(c + r < 1.0)


def test_twisting_vanishes_off_eddies(twisting8):
    # 0.33 lies in the vertical gap between the level-2 eddies (top 0.3125)
    # and the level-1 eddy (bottom 0.375)
    pts = np.array([[0.5, -0.25], [0.5, 2.0], [-1.0, 0.5], [0.5, 0.33]])
    assert np.all(twisting8.eval(pts) == 0.0)


def test_twisting_speed_calibration(twisting8):
    # per-ball speed profile is calibrated to peak exactly at 1
    center, radius = twisting8.eddies.centers[0], twisting8.eddies.radii[0]
    s = np.linspace(1e-6, radius * (1 - 1e-9), 4001)
    pts = np.stack([center[0] + s, np.full_like(s, center[1])], axis=1)
    speeds = np.linalg.norm(twisting8.eval(pts), axis=1)
    assert speeds.max() == pytest.approx(1.0, abs=1e-6)
    assert np.all(speeds <= 1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.5, 1.5), y=st.floats(-0.5, 1.5))
def test_twisting_sup_bound_everywhere(x, y):
    f = make_twisting_field(4)
    speed = float(np.linalg.norm(f.eval(np.array([[x, y]]))[0]))
    assert speed <= 1.0 + 1e-12


def test_twisting_analytic_div_is_zero(twisting8, rng):
    pts = rng.uniform(0.0, 1.0, size=(32, 2))
    assert np.all(twisting8.analytic_div(pts) == 0.0)


def test_twisting_rejects_degenerate_level():
    with pytest.raises(ValueError):
        make_twisting_field(0)


def _per_level_eval(field, max_level, pts):
    # the evaluation the level lookup replaced: one masked pass over every
    # point per level
    eddies = field.eddies
    out = np.zeros((pts.shape[0], 2))
    x, y = pts[:, 0], pts[:, 1]
    for lev in range(1, max_level + 1):
        r = 2.0**-(lev + 2)
        j = np.rint(x * 2.0**lev)
        dx = x - j * 2.0**-lev
        dy = y - 2.0**-lev
        s = np.hypot(dx, dy)
        m = (j >= 1) & (j <= 2**lev - 1) & (s > 0.0) & (s < r)
        speed = eddies.calibration * bump(s[m] / r) / s[m]
        out[m, 0] += speed * (-dy[m])
        out[m, 1] += speed * dx[m]
    return out


@pytest.mark.parametrize("max_level", [1, 8, 13])
def test_twisting_level_lookup_matches_the_per_level_loop(max_level):
    f = make_twisting_field(max_level)
    rng = np.random.default_rng(max_level)
    centers, radii = f.eddies.centers, f.eddies.radii
    pick = rng.integers(0, radii.size, 20_000)
    ang = rng.uniform(0.0, 2.0 * np.pi, pick.size)
    unit = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # band edges 0.75 * 2^-i and 1.25 * 2^-i, one level past the stack too
    edges = np.concatenate([[0.75 * 2.0**-i, 1.25 * 2.0**-i]
                            for i in range(1, max_level + 2)])
    sets = {
        "random": rng.uniform(-0.2, 1.2, size=(50_000, 2)),
        "inside": centers[pick] + (rng.uniform(size=pick.size)
                                   * radii[pick])[:, None] * unit,
        "rims": centers[pick] + radii[pick][:, None] * unit,
        "centers": centers,
        "band-edges": np.stack([rng.uniform(0.0, 1.0, 4_000),
                                rng.choice(edges, 4_000)], axis=1),
        "y<=0": np.stack([rng.uniform(-0.5, 1.5, 3_000),
                          rng.choice([0.0, -0.0, -1e-300, -0.25], 3_000)],
                         axis=1),
    }
    for name, pts in sets.items():
        got = f.eval(pts)
        want = _per_level_eval(f, max_level, pts)
        # bitwise, signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert np.any(f.eval(sets["inside"]) != 0.0)


def _overlapping_pairs(centers, radii):
    # brute force over all pairs, in integers: every length divided by the
    # smallest radius, 2^-(deepest level + 2), is an integer far below 2**26
    scale = 1.0 / radii.min()
    c = centers * scale
    r = radii * scale
    dx = c[:, None, 0] - c[None, :, 0]
    dy = c[:, None, 1] - c[None, :, 1]
    bad = dx * dx + dy * dy < (r[:, None] + r[None, :]) ** 2
    np.fill_diagonal(bad, False)
    return int(np.count_nonzero(bad))


@pytest.mark.parametrize("max_level", range(1, 11))
def test_twisting_eddies_are_pairwise_disjoint(max_level):
    eddies = make_twisting_field(max_level).eddies
    assert _overlapping_pairs(eddies.centers, eddies.radii) == 0
    _assert_disjoint(*_level_geometry(max_level))


def test_disjointness_check_catches_overlaps():
    heights, radii = _level_geometry(4)
    with pytest.raises(AssertionError, match="within level 1"):
        _assert_disjoint(heights, 2.0 * radii)
    lifted = heights.copy()
    lifted[2] = heights[1] - radii[1]   # level 3 rises into level 2's band
    with pytest.raises(AssertionError, match="between levels 2 and 3"):
        _assert_disjoint(lifted, radii)
    levels = [(i, j) for i in range(1, 5) for j in range(1, 2**i)]
    centers = np.array([[j * 2.0**-i, lifted[i - 1]] for i, j in levels])
    assert _overlapping_pairs(
        centers, np.array([radii[i - 1] for i, _ in levels])) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_twisting_rejects_non_finite_points(bad):
    f = make_twisting_field(3)
    pts = np.array([[0.5, 0.5], [bad, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match="non-finite"):
        f.eval(pts)
    with pytest.raises(ValueError, match="non-finite"):
        f.eval(pts[:, ::-1].copy())


# a NaN coordinate is refused by name, never read as a point outside every
# support: the stream bump returned (-0, 0) and the counterexample zeros
@pytest.mark.parametrize("spec", REGISTRY_EXAMPLES)
def test_registry_fields_refuse_a_nan_point(spec):
    f = get_field(spec)
    for axis in range(f.dim):
        pts = np.full((3, f.dim), 0.25)
        pts[1, axis] = np.nan
        evaluators = [f.eval] + ([lambda p: f.eval_jacobian(p)[0]]
                                 if f.eval_jacobian is not None else [])
        for evaluate in evaluators:
            with pytest.raises(ValueError, match=re.escape(
                    f"{f.name}: ") + r".*\bnan\b"):
                evaluate(pts)


# ---------------------------------------------------------------------------
# capillary disk field

def test_capillary_is_identity_over_radius(capillary, rng):
    ang = rng.uniform(0.0, 2.0 * math.pi, 16)
    rad = rng.uniform(0.0, 0.99, 16)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    assert np.max(np.abs(capillary.eval(pts) - pts)) < 1e-15


def test_capillary_domain_is_the_open_disk(capillary):
    with pytest.raises(OutOfDomainError,
                       match=r"outside open disk of radius 1\.0"):
        capillary.eval(np.array([[1.5, 0.0]]))
    inside = capillary.disk.contains(
        np.array([[0.3, 0.4], [0.8, 0.61], [1.0, 0.0]]))
    assert inside.tolist() == [True, False, False]


def test_capillary_constant_divergence(capillary, rng):
    pts = rng.uniform(-0.5, 0.5, size=(8, 2))
    assert np.allclose(capillary.analytic_div(pts), 2.0, atol=1e-15)


# ---------------------------------------------------------------------------
# stream bump, extrusion and translation

def test_stream_bump_support_and_bound(stream_bump, rng):
    pts = rng.uniform(-5.0, 5.0, size=(256, 2))
    vals = stream_bump.eval(pts)
    speeds = np.linalg.norm(vals, axis=1)
    assert np.all(speeds <= stream_bump.sup_bound + 1e-15)
    outside = (pts[:, 1] <= 1.0) | (pts[:, 1] >= 2.0)
    assert np.all(vals[outside] == 0.0)


def test_stream_bump_is_finite_next_to_its_center(stream_bump):
    # this close to the center 2u - 1 rounds to -1, where the profile
    # derivative formula evaluates 0 * inf
    pts = np.array([[3.8094611052537206e-97, 1.5], [-1e-20, 1.5]])
    assert np.array_equal(stream_bump.eval(pts), np.zeros((2, 2)))
    vals, J = stream_bump.eval_jacobian(pts)
    assert np.array_equal(vals, np.zeros((2, 2)))
    assert np.all(np.isfinite(J))


# eval and eval_jacobian agree to the bit, the sign of every zero included,
# at the center (s = 0), where 0 < s <= 2**-55 leaves the profile's
# derivatives zero, and on both sides of the support ellipse's boundary
# (s = 1 at x = +-2 on the long axis and z = 1.5 +- 0.5 on the short one)
def test_stream_bump_values_agree_bitwise_at_the_support_edges(stream_bump):
    below_2 = math.nextafter(2.0, 0.0)
    pts = np.array([
        [0.0, 1.5], [-0.0, 1.5],
        [2.0 ** -55, 1.5], [-(2.0 ** -55), 1.5], [2.0 ** -54, 1.5],
        [3.8094611052537206e-97, 1.5], [-1e-20, 1.5],
        [below_2, 1.5], [-below_2, 1.5], [2.0, 1.5], [-2.0, 1.5],
        [math.nextafter(2.0, 3.0), 1.5],
        [0.0, math.nextafter(2.0, 0.0)], [0.0, 2.0],
        [0.0, math.nextafter(1.0, 2.0)], [0.0, 1.0],
        [0.3, 1.7], [-0.3, 1.2],
    ])
    vals, J = stream_bump.eval_jacobian(pts)
    assert vals.tobytes() == stream_bump.eval(pts).tobytes()
    assert np.all(np.isfinite(J))
    assert np.all(vals[:16] == 0.0) and np.all(J[:16] == 0.0)
    assert np.all(vals[16:] != 0.0)


def test_extrusion_matches_planar_slice(stream_bump, rng):
    f3 = extrude_field_3d(stream_bump)
    assert f3.dim == 3
    pts3 = rng.uniform(-3.0, 3.0, size=(32, 3))
    pts2 = pts3[:, [0, 2]]
    v2 = stream_bump.eval(pts2)
    v3 = f3.eval(pts3)
    assert np.all(v3[:, 0] == v2[:, 0])
    assert np.all(v3[:, 1] == 0.0)
    assert np.all(v3[:, 2] == v2[:, 1])
    assert np.all(f3.analytic_div(pts3) == 0.0)


@settings(max_examples=25, deadline=None)
@given(sx=st.floats(-2.0, 2.0), sz=st.floats(-2.0, 2.0),
       px=st.floats(-3.0, 3.0), pz=st.floats(-3.0, 3.0))
def test_translate_field_shifts_evaluation(sx, sz, px, pz):
    # the translate x -> f(x - shift) is the rescale about -shift at scale 1
    f = stream_bump_field()
    g = rescale(f, (-sx, -sz), 1.0)
    p = np.array([[px, pz]])
    assert np.array_equal(g.eval(p), f.eval(p - np.array([sx, sz])))


# ---------------------------------------------------------------------------
# registry

def test_registry_examples_all_construct():
    for name in REGISTRY_EXAMPLES:
        f = get_field(name)
        assert f.dim in (2, 3, 4)


def test_get_field_grammar():
    assert get_field("zero:dim=3").dim == 3
    c = get_field("constant:c=0.5,-2")
    assert np.array_equal(c.eval(np.zeros((1, 2))), [[0.5, -2.0]])
    assert get_field("stream:bump:3d").dim == 3
    assert get_field("twisting:levels=3").eddies.radii[-1] == 2.0**-5


def test_get_field_rejects_unknown():
    with pytest.raises(ValueError):
        get_field("vortex:sheet")


def test_zero_and_constant_fields(rng):
    z = zero_field(3)
    pts = rng.normal(size=(8, 3))
    assert np.all(z.eval(pts) == 0.0)
    c = constant_field([1.0, -2.0])
    assert np.all(c.analytic_div(pts[:, :2]) == 0.0)
    assert np.all(c.eval_jacobian(pts[:, :2])[1] == 0.0)


# ---------------------------------------------------------------------------
# fused value + Jacobian

def _declared_jacobian_fields():
    bump = stream_bump_field()
    return {
        "stream:bump": (bump, 2.0),
        "stream:bump:3d": (get_field("stream:bump:3d"), 2.0),
        "capillary": (make_capillary_field(1.0), 0.6),
        "constant": (constant_field((0.25, -1.5)), 2.0),
        "translated": (rescale(bump, (-0.3, 0.2), 1.0), 2.0),
        "rescaled": (rescale(bump, (0.4, 1.3), 0.25), 2.0),
    }


def _jacobian_sample(f, half_width, rng):
    # about half the points inside the stream bump's support ellipse
    pts = rng.uniform(-half_width, half_width, size=(256, f.dim))
    if f.dim == 2 and f.disk is None:
        pts[:, 1] = 1.5 + pts[:, 1] / 3.0
    elif f.dim == 3:
        pts[:, 2] = 1.5 + pts[:, 2] / 3.0
    return pts


@pytest.mark.parametrize("name", sorted(_declared_jacobian_fields()))
def test_eval_jacobian_values_equal_eval_bitwise(name):
    f, half_width = _declared_jacobian_fields()[name]
    pts = _jacobian_sample(f, half_width, np.random.default_rng(7))
    vals, J = f.eval_jacobian(pts)
    # tobytes also tells -0.0 from 0.0
    assert vals.tobytes() == f.eval(pts).tobytes()
    assert J.shape == (pts.shape[0], f.dim, f.dim)


@pytest.mark.parametrize("name", sorted(_declared_jacobian_fields()))
def test_eval_jacobian_matches_centered_differences(name):
    f, half_width = _declared_jacobian_fields()[name]
    pts = _jacobian_sample(f, half_width, np.random.default_rng(11))
    _, J = f.eval_jacobian(pts)
    h = 1e-6
    for j in range(f.dim):
        step = np.zeros(f.dim)
        step[j] = h
        fd = (f.eval(pts + step) - f.eval(pts - step)) / (2.0 * h)
        assert np.max(np.abs(fd - J[:, :, j])) < 1e-6, j
    assert np.any(J != 0.0) or name == "constant"
