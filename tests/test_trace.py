"""Interface geometry and the four weak-trace probes.

Frozen numerical values come from deterministic quadrature (no RNG), so
they are reproducible bit-for-bit up to libm differences; tolerances of
1e-12 leave room for that.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from divlab import _quad
from divlab._quad import ball_rules, leggauss
from divlab.blowup import BOUNDARY_SLICE, PAIRING_SHARE, rescale
from divlab import trace
from divlab.calculus import bump_test
from divlab.fields import Disk, InputError, bump, constant_field, \
    make_capillary_field, make_twisting_field, zero_field
from divlab.report import CheckResult
from divlab.trace import (
    AP_LIM_CONFIRMED, AP_LIM_INCONCLUSIVE, AP_LIM_REJECTED,
    circle_interface, density, line_interface, one_sided_ap_lim,
    weak_trace_ball_average, weak_trace_curvilinear, weak_trace_pairing,
    weak_trace_sphere_flux, _eddy_pairings, _intercept_weights,
    _tail_fit, _twisting_ball_averages,
)

RADII = [2.0 ** -k for k in range(3, 9)]


def _circle_sums(field, center, radius, n, psi):
    """The integral of field . grad psi over one ball by a fresh product
    rule of 16 radial nodes and n angles, one sum per circle."""
    pts, w = ball_rules(2, [center], radius, 16, n)
    terms = w[0] * np.einsum("ij,ij->i", field.eval(pts[0]),
                             psi.value_and_gradient(pts[0])[1])
    return terms.reshape(16, n).sum(axis=1)


def _loop_pairing(field, psi, atol):
    """The eddy pairing as a loop over balls: each ball near psi starts at
    the least 4 * 2^k angles whose rim spacing is at most psi's radius / 4
    and doubles on a fresh rule until its circles' summed delta fits its
    rho^2 share of atol.  Returns the value added in ball order, the
    estimate, and each ball's final angle count."""
    c, r = field.eddies.centers, field.eddies.radii
    near = np.flatnonzero(np.hypot(*(c - psi.center).T) <= psi.radius + r)
    total, estimate, orders = 0.0, 0.0, []
    for b in near:
        n = 4
        while 2.0 * math.pi * r[b] / n > psi.radius / 4.0:
            n *= 2
        prev = _circle_sums(field, c[b], r[b], n, psi)
        while True:
            n *= 2
            cur = _circle_sums(field, c[b], r[b], n, psi)
            delta = float(np.sum(np.abs(cur - prev)))
            prev = cur
            if delta <= atol * r[b] ** 2 / np.sum(r[near] ** 2):
                break
        total += float(np.sum(cur))
        estimate += delta
        orders.append(n)
    return total, estimate, orders


# ---------------------------------------------------------------------------
# interfaces

class TestInterfaces:
    def test_line_default_normal_is_left_of_direction(self):
        S = line_interface((0.0, 0.0), (1.0, 0.0))
        assert np.allclose(S.normal_at((3.0, 0.0)), (0.0, 1.0))

    def test_line_frame_defects_vanish(self):
        S = line_interface((1.0, 2.0), (3.0, 4.0))
        nd, od = S.frame_defects(np.linspace(-5.0, 5.0, 41))
        assert nd <= 1e-15
        assert od <= 1e-15

    def test_line_rejects_non_orthogonal_normal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.1, 1.0))

    def test_line_distance(self):
        S = line_interface((0.0, 1.0), (1.0, 0.0))
        assert S.distance((7.0, 3.5)) == pytest.approx(2.5, abs=1e-15)

    def test_circle_outward_and_inward_normals(self):
        out = circle_interface((0.0, 0.0), 2.0, outward=True)
        inn = circle_interface((0.0, 0.0), 2.0, outward=False)
        assert np.allclose(out.normal_at((2.0, 0.0)), (1.0, 0.0))
        assert np.allclose(inn.normal_at((2.0, 0.0)), (-1.0, 0.0))

    def test_circle_frame_defects_vanish(self):
        S = circle_interface((0.5, -0.5), 1.5)
        nd, od = S.frame_defects(np.linspace(0.0, 2.0 * math.pi * 1.5, 64))
        assert nd <= 1e-14
        assert od <= 1e-14

    def test_circle_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="positive"):
            circle_interface((0.0, 0.0), 0.0)

    # a zero normal built an interface whose normal was [nan, nan], with
    # only a RuntimeWarning, and a NaN radius a circle of curvature bound
    # NaN; both were refused only by the first probe's `frame`, as a point
    # NaN from the interface
    @pytest.mark.parametrize("build,message", [
        (lambda: line_interface(normal=(0.0, 0.0)),
         "normal must be finite and nonzero"),
        (lambda: line_interface(normal=(0.0, math.nan)),
         "normal must be finite and nonzero"),
        (lambda: line_interface(direction=(0.0, 0.0)),
         "direction must be finite and nonzero"),
        (lambda: line_interface(direction=(math.inf, 1.0)),
         "direction must be finite and nonzero"),
        (lambda: circle_interface(radius=math.nan),
         "radius must be finite and positive"),
        (lambda: circle_interface(radius=math.inf),
         "radius must be finite and positive"),
        (lambda: circle_interface(radius=-1.0),
         "radius must be finite and positive"),
    ], ids=["zero-normal", "nan-normal", "zero-direction", "inf-direction",
            "nan-radius", "inf-radius", "negative-radius"])
    def test_builders_refuse_bad_geometry_when_called(self, build, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build()

    def test_frame_accepts_and_rejects(self):
        S = circle_interface((0.0, 0.0), 1.0)
        f = constant_field((0.0, 1.0))
        x0, nu0 = S.frame(f, (1.0, 0.0))
        assert x0.tolist() == [1.0, 0.0] and nu0.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="from the interface"):
            S.frame(f, (1.01, 0.0))

    def test_probes_reject_off_interface_points(self):
        S = line_interface()
        f = constant_field((0.0, 1.0))
        with pytest.raises(ValueError, match="from the interface"):
            weak_trace_ball_average(f, S, (0.0, 0.5), RADII)

    # a radius sequence must be non-empty, positive and strictly
    # decreasing, and the refusal names it; a NaN radius passed every
    # comparison, and an empty one failed inside min()
    @pytest.mark.parametrize("radii", [[], [0.2, math.nan], [0.1, 0.1],
                                       [0.1, 0.0]],
                             ids=["empty", "nan", "repeated", "zero"])
    def test_radii_are_refused_by_name(self, radii):
        with pytest.raises(InputError, match=r"strictly decreasing; got \["):
            trace.check_radii(radii)


# ---------------------------------------------------------------------------
# constant fields: every probe must reproduce the normal component exactly

class TestConstantFieldExactness:
    C = (0.3, -0.8)

    def setup_method(self):
        self.f = constant_field(self.C)
        self.S = line_interface()  # y = 0, normal (0, 1)

    def test_ball_average(self):
        p = weak_trace_ball_average(self.f, self.S, (0.2, 0.0), RADII)
        assert max(abs(e - self.C[1]) for e in p.estimates) <= 1e-14
        assert p.extrapolated == pytest.approx(self.C[1], abs=1e-14)
        assert not p.oscillating

    def test_curvilinear(self):
        p = weak_trace_curvilinear(self.f, self.S, (0.2, 0.0), 0.25, RADII)
        assert max(abs(e - self.C[1]) for e in p.estimates) <= 1e-14
        assert p.extrapolated == pytest.approx(self.C[1], abs=1e-14)

    def test_sphere_flux(self):
        # the half-circle chord pairing balances the flux through the flat
        # diameter, so constants come out exact, not just in the limit
        p = weak_trace_sphere_flux(self.f, self.S, (0.2, 0.0), RADII)
        assert max(abs(e - self.C[1]) for e in p.estimates) <= 1e-14
        assert p.extrapolated == pytest.approx(self.C[1], abs=1e-14)

    # a field with neither eddies nor a disk integrates every ball as one
    # row of one ball row batch: each radius's estimate is, bit for bit,
    # the row integrated alone, and each level is one field call for all
    # the balls still open at it
    def test_generic_ball_average_is_one_row_batch(self):
        def wavy(pts):
            return np.stack([np.sin(3.0 * pts[:, 1]),
                             np.cos(2.0 * pts[:, 0]) + pts[:, 1] ** 2], axis=1)

        S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
        x0, nu0 = np.array([0.3, 0.0]), np.array([0.0, -1.0])
        radii = [0.5, 0.25, 0.125, 0.0625]
        calls = []

        def ev(pts):
            calls.append(pts.shape[0])
            return wavy(pts)

        p = weak_trace_ball_average(dataclasses.replace(self.f, eval=ev), S,
                                    x0, radii)
        levels = []
        for r, estimate in zip(radii, p.estimates):
            alone = []

            def row(rows, pts):
                alone.append(pts.shape[1])
                return (wavy(pts[0]) @ nu0)[None]

            total = _quad.adaptive_ball_rows(
                row, x0[None], r, 2, rtol=trace.PROBE_RTOL, atol=1e-14)[0][0]
            assert estimate == total / (_quad.ball_volume(2) * r ** 2)
            levels.append(alone)
        assert any(e != 0.0 for e in p.estimates)
        # the batch's level k holds the nodes of every row still open at k
        assert calls == [sum(a[k] for a in levels if k < len(a))
                         for k in range(max(map(len, levels)))]
        assert calls[0] == len(radii) * 24

    def test_tilted_line(self):
        S = line_interface((0.0, 0.0), (1.0, 1.0))
        nu = S.normal_at((0.0, 0.0))
        want = float(np.asarray(self.C) @ nu)
        p = weak_trace_ball_average(self.f, S, (0.0, 0.0), RADII)
        assert p.extrapolated == pytest.approx(want, abs=1e-13)


# ---------------------------------------------------------------------------
# radial disk field on its rim: closed forms for all three probes

class TestCapillaryProbes:
    X0 = (1.0, 0.0)

    def setup_method(self):
        self.f = make_capillary_field(1.0)
        self.S = circle_interface((0.0, 0.0), 1.0, outward=True)

    def test_ball_average_normalizes_by_the_lens(self):
        # one-sided window: the average must head to 1, not to 1/2
        p = weak_trace_ball_average(self.f, self.S, self.X0, RADII)
        frozen = (0.9455660967716958, 0.9731254795275047, 0.9866495242692067,
                  0.9933466044804015, 0.9966787810594704, 0.9983407625111684)
        assert np.allclose(p.estimates, frozen, rtol=0.0, atol=1e-12)
        assert p.extrapolated == pytest.approx(1.0000184182316565, abs=1e-10)
        assert not p.oscillating

    @pytest.mark.parametrize("x0", [(1.0, 0.0), (0.6, 0.8)])
    def test_lens_averages_are_one_row_batch_equal_to_the_pieces(
            self, x0, monkeypatch):
        # every radius, split and numerator/denominator piece is a row of
        # one batch; 24 one-row quadratures here gave the same bits
        def pieces_alone(r, nu0):
            R, sgn = 1.0, float(np.sign(np.asarray(x0) @ nu0))
            dstar = math.acos(min(1.0, r / (2.0 * R)))
            num = den = 0.0
            for lo, hi in [(0.5 * math.pi, math.pi - dstar),
                           (math.pi - dstar, math.pi)]:
                m = lambda t: np.minimum(r, -2.0 * R * np.cos(t))
                num += _quad.adaptive_gauss_1d(
                    lambda t: 0.5 * m(t) * m(t)
                    + np.cos(t) * m(t) ** 3 / (3.0 * R),
                    lo, hi, rtol=1e-9, atol=1e-15)
                den += _quad.adaptive_gauss_1d(
                    lambda t: 0.5 * m(t) * m(t), lo, hi, rtol=1e-9,
                    atol=1e-15)
            return sgn * num / den

        nu0 = self.S.normal_at(np.asarray(x0))
        want = [pieces_alone(r, nu0) for r in RADII]
        batches = []
        rows = _quad.adaptive_gauss_rows

        def counting_rows(*args, **kwargs):
            batches.append(1)
            return rows(*args, **kwargs)

        monkeypatch.setattr(_quad, "adaptive_gauss_rows", counting_rows)
        p = weak_trace_ball_average(self.f, self.S, x0, RADII)
        assert list(p.estimates) == want
        assert len(batches) == 1

    def test_curvilinear_limit_is_the_arc_average(self):
        # fixed patch half-width rho on the unit circle: the r -> 0 limit
        # averages cos(theta) over [-rho, rho], which is sin(rho)/rho
        rho = 0.1
        p = weak_trace_curvilinear(self.f, self.S, self.X0, rho, RADII)
        assert p.extrapolated == pytest.approx(math.sin(rho) / rho,
                                               abs=1e-10)

    def test_sphere_flux_matches_the_chord_closed_form(self):
        p = weak_trace_sphere_flux(self.f, self.S, self.X0, RADII)
        for r, est in zip(RADII, p.estimates):
            want = math.sqrt(1.0 - r * r / 4.0) - r * math.acos(r / 2.0)
            assert est == pytest.approx(want, abs=1e-12)
        assert p.extrapolated == pytest.approx(0.9999228731867713, abs=1e-10)

    # the lens closed form holds only at a rim point with a radial normal:
    # off the rim it read -1.00002 where the true average is -0.5
    @pytest.mark.parametrize("S,x0", [
        (line_interface((0.5, 0.0), (0.0, 1.0)), (0.5, 0.0)),
        (line_interface((1.0, 0.0), (1.0, 1.0)), (1.0, 0.0)),
    ], ids=["off-rim", "tilted-normal"])
    def test_lens_average_requires_a_rim_point(self, S, x0):
        with pytest.raises(ValueError, match="rim"):
            weak_trace_ball_average(self.f, S, x0, RADII)

    def test_flux_requires_rim_point(self):
        # (0, 0) sits on this probe circle but not on the field's rim
        with pytest.raises(ValueError, match="rim"):
            weak_trace_sphere_flux(self.f, circle_interface((0.5, 0.0), 0.5),
                                   (0.0, 0.0), RADII)

    # a translated disk field carries its translated disk, so the probes
    # use the closed-form lens and arc about the disk's own center
    @pytest.mark.parametrize("probe", [weak_trace_ball_average,
                                       weak_trace_sphere_flux])
    def test_translated_disk_matches_the_centered_disk(self, probe):
        moved = rescale(self.f, (-0.1, 0.0), 1.0)
        S = circle_interface((0.1, 0.0), 1.0)
        got = probe(moved, S, (1.1, 0.0), RADII)
        want = probe(self.f, self.S, self.X0, RADII)
        assert np.allclose(got.estimates, want.estimates, rtol=0.0,
                           atol=1e-12)

    # the curvilinear probe reads the arc length about the circle's own
    # center, here off the origin and at a rim point off the axis
    def test_curvilinear_on_a_translated_circle(self):
        moved = rescale(self.f, (-0.1, 0.0), 1.0)
        S = circle_interface((0.1, 0.0), 1.0)
        rim = np.array([math.cos(0.3), math.sin(0.3)])
        got = weak_trace_curvilinear(moved, S, rim + (0.1, 0.0), 0.1, RADII)
        want = weak_trace_curvilinear(self.f, self.S, rim, 0.1, RADII)
        assert np.allclose(got.estimates, want.estimates, rtol=0.0,
                           atol=1e-12)


# ---------------------------------------------------------------------------
# twisting field: genuine oscillation at an off-center boundary point

class TestTwistingOscillation:
    def setup_method(self):
        self.S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))

    def test_ball_averages_alternate(self, twisting12):
        p = weak_trace_ball_average(twisting12, self.S, (1.0 / 3.0, 0.0),
                                    RADII)
        mag = 0.005223776617826563
        signs = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        for est, s in zip(p.estimates, signs):
            assert est == pytest.approx(s * mag, abs=1e-12)
        assert p.oscillating
        assert p.oscillation == pytest.approx(0.011121588928275757, abs=1e-10)

    @pytest.mark.parametrize("x0,r", [
        ((1.0 / 3.0, 0.0), 2.0 ** -3), ((1.0 / 3.0, 0.0), 2.0 ** -8),
        ((0.3, 0.0), 0.1), ((0.71, 0.05), 0.3), ((0.5, 0.0), 0.25),
        ((0.2, 0.0), 1e3), ((0.40625, 0.0), 0.09375)])
    def test_array_prefilter_keeps_every_clipped_ball(self, twisting12, x0,
                                                      r):
        # the fixed 64-node rule the row batch replaced: every ball of the
        # stack through the exact tests, in ball order; the adaptive rows
        # agree with it to 1e-12
        eddies, x0 = twisting12.eddies, np.asarray(x0)
        nu0 = np.array([0.0, -1.0])
        gx, gw = leggauss(64)
        total = 0.0
        for c, rb in zip(eddies.centers, eddies.radii.tolist()):
            d = c - x0
            dist = math.hypot(d[0], d[1])
            if dist >= r + rb or dist + rb <= r or dist == 0.0:
                continue
            s_lo, s_hi = max(abs(r - dist), 0.0), min(r + dist, rb)
            angfac = (nu0[0] * d[1] - nu0[1] * d[0]) / dist
            if s_hi <= s_lo or angfac == 0.0:
                continue
            v = 0.5 * (gx + 1.0)
            s = s_lo + (s_hi - s_lo) * np.sin(0.5 * math.pi * v) ** 2
            ds = (s_hi - s_lo) * 0.5 * math.pi \
                * np.sin(0.5 * math.pi * v) * np.cos(0.5 * math.pi * v)
            cval = (r * r - s * s - dist * dist) / (2.0 * s * dist)
            sinb = np.sqrt(np.clip(1.0 - cval * cval, 0.0, None))
            vals = bump(s / rb) * s * 2.0 * sinb
            total += eddies.calibration * angfac * float(
                np.sum(gw * vals * ds))
        want = total / (math.pi * r * r)
        [got] = _twisting_ball_averages(eddies, x0, [r], nu0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_mirror_point_cancels_exactly(self, twisting12):
        # x = 1/2 is a mirror axis of the eddy lattice: clipped patches come
        # in pairs whose closed-form contributions cancel bitwise
        p = weak_trace_ball_average(twisting12, self.S, (0.5, 0.0), RADII)
        assert all(e == 0.0 for e in p.estimates)
        assert not p.oscillating


# ---------------------------------------------------------------------------
# distributional pairing

class TestPairing:
    def test_twisting_pairings_vanish(self, refine_levels, twisting8):
        # one field call per doubling level serves all ten bumps; a call per
        # ball and bump made 5,020
        calls, levels = [], refine_levels

        def counting_eval(pts):
            calls.append(len(pts))
            return twisting8.eval(pts)

        counted = dataclasses.replace(twisting8, eval=counting_eval)
        rng = np.random.default_rng(20260819)
        radius = 0.15
        lo = np.array([radius, radius])
        hi = np.array([1.0 - radius, 1.0 - radius])
        fam = [bump_test(lo + (hi - lo) * rng.uniform(size=2), radius)
               for _ in range(10)]
        vals, _ = weak_trace_pairing(counted, fam,
                                     [1e-9 * psi.c1_norm for psi in fam])
        assert len(vals) == 10
        assert max(abs(v) for v in vals) <= 1e-9
        assert 0 < len(calls) <= len(levels)

    # the exact value of every eddy pairing is 0, so a pairing's estimate
    # must cover the pairing itself: at each scale of the blow-up at
    # (0.5, 0) against its budget, and for random bumps at 1e-9 of their
    # C1 norms
    def test_the_estimate_bounds_the_error_at_each_blowup_scale(
            self, twisting8):
        budget = (1.0 - BOUNDARY_SLICE) * PAIRING_SHARE * 1e-2
        fam = [bump_test((o, 0.0), 0.5) for o in np.linspace(-0.6, 0.6, 5)]
        for k in range(2, 7):
            zk = rescale(twisting8, (0.5, 0.0), 2.0 ** -k)
            vals, estimates = _eddy_pairings(zk.eddies, zk, fam,
                                             [budget] * len(fam))
            for v, e in zip(vals, estimates):
                assert abs(v) <= e <= budget, (k, v, e)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_estimate_bounds_the_error_of_random_bumps(self, twisting8,
                                                           seed):
        rng = np.random.default_rng(seed)
        fam = [bump_test(0.125 + 0.75 * rng.uniform(size=2), 0.125)
               for _ in range(10)]
        floors = [trace.PROBE_RTOL * psi.c1_norm for psi in fam]
        vals, estimates = _eddy_pairings(twisting8.eddies, twisting8, fam,
                                         floors)
        for v, e, floor in zip(vals, estimates, floors):
            assert abs(v) <= e <= floor

    # on this bump two circles of the top ball err with opposite signs: a
    # delta of the ball's sum read 3.7e-9 and stopped at a pairing of
    # -6.2e-8, above the floor of 1.3e-8.  The circles' own deltas see it
    def test_circles_whose_errors_cancel_do_not_hide_them(self, twisting8):
        psi = bump_test((0.2918386585039213, 0.5139349781622153), 0.125)
        floor = trace.PROBE_RTOL * psi.c1_norm
        [value], [estimate] = _eddy_pairings(twisting8.eddies, twisting8,
                                             [psi], [floor])
        assert abs(value) <= estimate <= floor

    # rule 4: a ball of radius 1 against a bump of radius 0.2 that the 4-
    # and 8-angle nodes miss.  Started there, both levels read 0.0 and the
    # row would stop with estimate 0.0; its rim spacing starts it at 128
    # angles, and it matches a 4,096-angle rule within its estimate
    def test_a_row_starts_where_its_nodes_sample_the_bump(self):
        f = rescale(make_twisting_field(1), (0.5, 0.5), 0.125)
        assert f.eddies.radii.tolist() == [1.0]
        psi = bump_test(0.6 * np.array([math.cos(0.41), math.sin(0.41)]),
                        0.2)
        for n in (4, 8):
            assert not np.any(_circle_sums(f, (0.0, 0.0), 1.0, n, psi))
        calls = []
        counted = dataclasses.replace(
            f, eval=lambda pts: calls.append(len(pts)) or f.eval(pts))
        [value], [estimate] = _eddy_pairings(f.eddies, counted, [psi],
                                             [1e-6])
        assert calls[0] == 16 * 128
        assert sum(calls) >= 2 * 16 * 128
        reference = float(np.sum(_circle_sums(f, (0.0, 0.0), 1.0, 4096,
                                              psi)))
        assert 0.0 < abs(value - reference) <= estimate <= 1e-6

    # rule 3: against a bump of radius 1e-5 the top ball of radius 0.125
    # would start at 2^19 angles, 8.4M nodes; it is refused before the
    # field sees a point
    def test_a_bump_below_the_node_cap_is_refused_before_any_field_call(
            self, twisting8):
        calls = []
        counted = dataclasses.replace(
            twisting8,
            eval=lambda pts: calls.append(len(pts)) or twisting8.eval(pts))
        psi = bump_test((0.55, 0.52), 1e-5)
        with pytest.raises(_quad.QuadratureError,
                           match=r"refused the eddy ball of radius 0\.125 "
                                 r"about \[0\.5, 0\.5\] against bump:.*: its "
                                 r"first level needs 8388608 nodes"):
            _eddy_pairings(twisting8.eddies, counted, [psi], [1e-9])
        assert calls == []

    # a row above the call cap goes alone: the one ball's row holds 2,048
    # nodes at its first level, so under a cap of 1,000 each level is still
    # one call of the same size, and the values are the same bit for bit
    def test_a_row_above_the_call_cap_goes_alone(self, monkeypatch):
        f = rescale(make_twisting_field(1), (0.5, 0.5), 0.125)
        psi = bump_test(0.6 * np.array([math.cos(0.41), math.sin(0.41)]),
                        0.2)
        calls = []
        counted = dataclasses.replace(
            f, eval=lambda pts: calls.append(len(pts)) or f.eval(pts))
        whole = _eddy_pairings(f.eddies, counted, [psi], [1e-6])
        uncapped = list(calls)
        assert min(uncapped) > 1000
        monkeypatch.setattr(_quad, "MAX_CALL_NODES", 1000)
        calls.clear()
        assert _eddy_pairings(f.eddies, counted, [psi], [1e-6]) == whole
        assert calls == uncapped

    # rule 3: against a bump of radius 1e-300 the start's exponent would
    # overflow int64 to an order of 0 angles, divide by zero and fail to
    # converge at 0 nodes; clipped, the ball is refused before any field
    # call, with a node count above the cap
    def test_a_vanishing_bump_is_refused_before_any_field_call(
            self, twisting8):
        calls = []
        counted = dataclasses.replace(
            twisting8,
            eval=lambda pts: calls.append(len(pts)) or twisting8.eval(pts))
        psi = bump_test((0.55, 0.52), 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(_quad.QuadratureError,
                               match=r"refused the eddy ball of radius "
                                     r"0\.125 about \[0\.5, 0\.5\] .*: its "
                                     r"first level needs \d+ nodes, above "
                                     r"the cap"):
                _eddy_pairings(twisting8.eddies, counted, [psi], [1e-9])
        assert calls == []

    # the pairing a shared field call replaced: one rule and one field call
    # per ball, each ball doubling on its own.  The last bump is far from
    # every ball at both zooms
    @pytest.mark.parametrize("x0,scale", [((0.0, 0.0), 1.0),
                                          ((0.5, 0.0), 0.125)])
    def test_eddy_pairing_matches_a_loop_over_balls(self, x0, scale):
        zoomed = rescale(make_twisting_field(5), x0, scale)
        fam = [bump_test(c, 0.3)
               for c in ((0.5, 0.5), (0.1, 0.2), (-2.0, 1.0), (5.0, 5.0))]
        atol = [1e-9 * psi.c1_norm for psi in fam]
        got, estimates = _eddy_pairings(zoomed.eddies, zoomed, fam, atol)
        for psi, tol, value, estimate in zip(fam, atol, got, estimates):
            total, loop_estimate, _ = _loop_pairing(zoomed, psi, tol)
            assert value == pytest.approx(total, rel=1e-9, abs=1e-16)
            assert estimate == pytest.approx(loop_estimate, rel=1e-6,
                                             abs=1e-16)
        assert got[3] == 0.0 and estimates[3] == 0.0

    # zoomed out by 2 about (0.5, 0), the balls near the family have
    # different radii and so start at different angle counts, and a level
    # holds several node blocks.  The pairing gathers each block's balls
    # near psi by index; the reference is a loop over balls.  The second
    # bump touches only the top ball; the third touches no ball and pairs
    # to 0.0
    @pytest.mark.parametrize("batch", [None, 5_000],
                             ids=["one-batch", "groups-split"])
    def test_eddy_pairing_gathers_each_group_like_a_loop_over_balls(
            self, monkeypatch, batch):
        if batch is not None:
            monkeypatch.setattr(_quad, "MAX_CALL_NODES", batch)
        zoomed = rescale(make_twisting_field(6), (0.5, 0.0), 2.0)
        fam = [bump_test(c, 0.05)
               for c in ((0.1, 0.1), (0.0, 0.25), (3.0, -1.0), (-0.2, 0.05))]
        atol = [1e-9 * psi.c1_norm for psi in fam]
        got, _ = _eddy_pairings(zoomed.eddies, zoomed, fam, atol)
        orders = []
        for psi, tol, value in zip(fam, atol, got):
            total, _, final = _loop_pairing(zoomed, psi, tol)
            assert value == pytest.approx(total, rel=1e-9, abs=1e-16)
            orders.append(final)
        assert len(set(orders[0])) > 1 and len(orders[1]) == 1
        assert orders[2] == [] and got[2] == 0.0
        assert got[3] != 0.0

    def test_eddy_pairing_batches_leave_the_values_unchanged(
            self, monkeypatch, refine_levels):
        calls, levels = [], refine_levels
        f = make_twisting_field(6)
        counted = dataclasses.replace(
            f, eval=lambda pts: calls.append(len(pts)) or f.eval(pts))
        fam = [bump_test((0.5, 0.1), 0.6), bump_test((0.2, 0.3), 0.6)]
        atol = [1e-9, 1e-9]
        whole = _eddy_pairings(f.eddies, counted, fam, atol)
        assert len(calls) == len(levels)
        uncapped = len(levels)
        monkeypatch.setattr(_quad, "MAX_CALL_NODES", 10_000)
        calls.clear()
        levels.clear()
        assert _eddy_pairings(f.eddies, counted, fam, atol) == whole
        assert len(calls) == len(levels) > uncapped
        assert max(calls) <= 10_000

    # rule 3 counts the nodes a level evaluates: after its first level a
    # ball's row evaluates only the new odd half of its angles.  Under a
    # cap of 10,000 the second and third levels are one call each, where a
    # count of the full order cut each in two (7 calls, now 5)
    def test_eddy_rows_are_sized_by_the_nodes_a_level_evaluates(
            self, monkeypatch):
        f = make_twisting_field(6)
        calls = []
        counted = dataclasses.replace(
            f, eval=lambda pts: calls.append(len(pts)) or f.eval(pts))
        psi = bump_test((0.5, 0.1), 0.6)
        whole = _eddy_pairings(f.eddies, counted, [psi], [1e-10])
        monkeypatch.setattr(_quad, "MAX_CALL_NODES", 10_000)
        calls.clear()
        assert _eddy_pairings(f.eddies, counted, [psi], [1e-10]) == whole
        assert len(calls) == 5 and max(calls) <= 10_000

    def test_zero_field_pairs_to_zero(self):
        fam = [bump_test((0.0, 0.0), 0.5)]
        assert weak_trace_pairing(zero_field(2), fam, [1e-12]) == ([0.0],
                                                                   [0.0])

    def test_generic_pairing_settles_next_to_zero(self, stream_bump):
        # the stream bump is divergence-free, so each pairing is 0, where a
        # relative test cannot stop; the gate's absolute budget stops it.
        # The bumps are the first three that the stream-bump pairing call
        # of tests/test_cli.py draws
        fam = [bump_test(c, 0.125) for c in (
            (-1.1162743325182354, 1.8836621881883069),
            (-1.750895732674675, 1.4223317544971663),
            (0.13232965977011135, 2.004894253966575))]
        atol = [PAIRING_SHARE * 1e-6 * psi.c1_norm for psi in fam]
        vals, estimates = weak_trace_pairing(stream_bump, fam, atol)
        for psi, v, e, tol in zip(fam, vals, estimates, atol):
            assert abs(v) <= 1e-6 * psi.c1_norm and e <= tol

    # rule 4: a bump of radius 0.002 that a 2D rule over a region never
    # samples.  With the divergence term zeroed the capillary field pairs
    # to -div * (integral of psi) = -2 * 2 pi R^2 * (integral of w(s) s);
    # a rule over the region read exactly 0.0
    def test_a_small_bump_is_sampled(self):
        f = dataclasses.replace(make_capillary_field(1.0),
                                analytic_div=lambda pts: np.zeros(len(pts)))
        psi = bump_test((0.3137, 0.2211), 0.002)
        exact = -4.0 * math.pi * psi.radius ** 2 * _quad.adaptive_gauss_1d(
            lambda s: bump(s) * s, 0.0, 1.0, rtol=1e-13, atol=0.0)
        [value], [estimate] = weak_trace_pairing(f, [psi], [1e-9])
        assert exact == pytest.approx(-5.579e-6, rel=1e-3)
        assert abs(value - exact) <= 1e-9 and estimate <= 1e-9

    # rule 3: a row's last level holds 256^2 nodes.  At a call cap of
    # 2^18 (4 such rows) and a zero tolerance, every row of 10 runs to its
    # last level: no field call passes the cap, and the refusal comes
    # after it
    def test_support_rows_keep_each_field_call_under_the_node_cap(
            self, monkeypatch, stream_bump):
        calls = []
        counted = dataclasses.replace(
            stream_bump,
            eval=lambda pts: calls.append(len(pts)) or stream_bump.eval(pts))
        fam = [bump_test((0.2 * k - 1.0, 1.5), 0.5) for k in range(10)]
        monkeypatch.setattr(_quad, "MAX_CALL_NODES", 2 ** 18)
        with pytest.raises(_quad.QuadratureError, match="ball quadrature "
                           "failed to converge"):
            weak_trace_pairing(counted, fam, [0.0] * 10)
        assert max(calls) == 2 ** 18

    # the cuts leave the values as one uncut batch gives them: the 70
    # bumps take one call per level at the default cap (147,456 nodes at
    # most) and more calls at a cap of 20,000, above their largest row
    def test_support_row_chunks_leave_the_values_unchanged(
            self, monkeypatch, stream_bump):
        calls = []
        counted = dataclasses.replace(
            stream_bump,
            eval=lambda pts: calls.append(len(pts)) or stream_bump.eval(pts))
        rng = np.random.default_rng(7)
        fam = [bump_test(rng.uniform((-2.5, 0.5), (2.5, 2.5)), 0.125)
               for _ in range(70)]
        atol = [PAIRING_SHARE * 1e-6 * psi.c1_norm for psi in fam]
        whole = weak_trace_pairing(counted, fam, atol)
        uncut = len(calls)
        monkeypatch.setattr(_quad, "MAX_CALL_NODES", 20_000)
        calls.clear()
        assert weak_trace_pairing(counted, fam, atol) == whole
        assert len(calls) > uncut and max(calls) <= 20_000

    @pytest.mark.parametrize("field", ["twisting8", "stream_bump"])
    def test_pairing_refuses_a_family_of_mixed_radii(self, request, field):
        f = request.getfixturevalue(field)
        fam = [bump_test((0.5, 0.5), 0.125), bump_test((0.3, 0.4), 0.25)]
        with pytest.raises(ValueError, match="one radius and height"):
            weak_trace_pairing(f, fam, [1e-9, 1e-9])

    def test_pairing_needs_divergence_information(self):
        f = constant_field((1.0, 0.0))
        f = type(f)(dim=2, eval=f.eval, sup_bound=f.sup_bound, name="nodiv")
        with pytest.raises(ValueError, match="divergence"):
            weak_trace_pairing(f, [bump_test((0.0, 0.0), 0.5)], [1e-9])

    # the pairing is planar: a 3D field is refused as an input, for every
    # caller of the library, before its field is called
    def test_pairing_refuses_a_non_planar_field(self):
        f = zero_field(3)
        f = dataclasses.replace(f, eval=lambda pts: pytest.fail("evaluated"))
        with pytest.raises(InputError, match="the pairing probe is planar"):
            weak_trace_pairing(f, [bump_test((0.5, 0.5), 0.25)], [1e-9])


# ---------------------------------------------------------------------------
# densities

class TestDensity:
    def test_halfplane_has_density_one_half(self):
        def upper(pts):
            return pts[:, 1] > 0.0

        p = density(upper, (0.0, 0.0), RADII, samples=20000, seed=7)
        for ratio, err in zip(p.ratios, p.stderrs):
            assert abs(ratio - 0.5) <= 5.0 * err
        assert abs(p.theta - 0.5) <= 0.01

    def test_complement_ratios_sum_to_one_exactly(self):
        def upper(pts):
            return pts[:, 1] > 0.0

        a = density(upper, (0.0, 0.0), RADII, samples=20000, seed=7)
        b = density(lambda q: ~upper(q), (0.0, 0.0), RADII,
                    samples=20000, seed=7)
        # same lattice cloud per radius, so the two counts split it exactly
        for ra, rb in zip(a.ratios, b.ratios):
            assert ra + rb == 1.0

    def test_full_and_empty_sets(self):
        ones = density(lambda q: np.ones(q.shape[0], dtype=bool),
                       (0.0, 0.0), RADII[:3], samples=4000, seed=1)
        zeros = density(lambda q: np.zeros(q.shape[0], dtype=bool),
                        (0.0, 0.0), RADII[:3], samples=4000, seed=1)
        assert ones.ratios == (1.0, 1.0, 1.0) and ones.theta == 1.0
        assert zeros.ratios == (0.0, 0.0, 0.0) and zeros.theta == 0.0

    def test_radii_must_strictly_decrease(self):
        ind = lambda q: np.ones(q.shape[0], dtype=bool)
        with pytest.raises(ValueError, match="decreasing"):
            density(ind, (0.0, 0.0), [0.1, 0.2], samples=1000)
        with pytest.raises(ValueError, match="decreasing"):
            density(ind, (0.0, 0.0), [0.1, 0.0], samples=1000)

    def test_halfplane_through_the_center_is_one_half_within_a_point(self):
        # the angles of one shifted lattice of n points are n equispaced
        # values, so a half-plane through the center holds n/2 of them up
        # to rounding, in every shift
        for samples, seed in ((20000, 7), (1000, 3), (4001, 11)):
            p = density(lambda q: q[:, 1] > 0.0, (0.0, 0.0), RADII,
                        samples=samples, seed=seed)
            n = p.samples_per_radius // trace.LATTICE_SHIFTS
            for ratio in p.ratios:
                assert abs(ratio - 0.5) <= 1.0 / n

    def test_a_single_sample_gives_finite_ratios(self, capillary):
        p = density(lambda q: q[:, 0] > 0.0, (0.0, 0.0), RADII,
                    samples=1, seed=2)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = one_sided_ap_lim(capillary, S, (1.0, 0.0), (1.0, 0.0),
                               (0.2,), RADII, samples=1, seed=2)
        for probe in (p, rep.probes[0][1]):
            ratios = np.array(probe.ratios + (probe.theta,))
            assert np.all(np.isfinite(ratios))
            assert np.all((ratios >= 0.0) & (ratios <= 1.0))
            assert np.all(np.isfinite(probe.stderrs))

    def test_planar_only(self):
        with pytest.raises(ValueError, match="planar"):
            density(lambda q: q[:, 0] > 0.0, (0.0, 0.0, 0.0), RADII[:2],
                    samples=1000)

    def test_rows_shape(self):
        # the CLI's table rows zip these three tuples: one entry per radius
        p = density(lambda q: q[:, 0] > 0, (0.0, 0.0), RADII[:2],
                    samples=2000, seed=3)
        assert p.radii == tuple(RADII[:2])
        assert len(p.ratios) == len(p.stderrs) == 2


# ---------------------------------------------------------------------------
# approximate one-sided limits

class TestApLim:
    def test_capillary_normal_candidate_confirmed(self, capillary):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = one_sided_ap_lim(capillary, S, (1.0, 0.0), (1.0, 0.0),
                               (0.2, 0.1, 0.05), RADII,
                               samples=20000, seed=20260819)
        assert rep.classification == AP_LIM_CONFIRMED
        assert rep.verdict == "PASS"
        per_alpha = [c for c in rep.checks
                     if c.name.startswith("deviation density")]
        assert len(per_alpha) == 3
        assert all(c.verdict == "PASS" for c in per_alpha)

    def test_twisting_zero_candidate_rejected(self, twisting12):
        S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
        rep = one_sided_ap_lim(twisting12, S, (1.0 / 3.0, 0.0), (0.0, 0.0),
                               (0.5,), RADII, samples=20000, seed=20260819)
        assert rep.classification == AP_LIM_REJECTED
        assert rep.verdict == "FAIL"
        (_, probe), = rep.probes
        assert min(probe.ratios) >= 0.05  # deviation set keeps mass

    def test_wrong_candidate_on_capillary_rejected(self, capillary):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = one_sided_ap_lim(capillary, S, (1.0, 0.0), (-1.0, 0.0),
                               (0.5,), RADII[:4], samples=8000, seed=5)
        assert rep.classification == AP_LIM_REJECTED

    # no deviation level, or one that is not positive, is refused before
    # any field call; a level of 0 counted every point as deviating
    @pytest.mark.parametrize("alphas", [(), (0.2, 0.0), (-0.1,), (math.nan,)],
                             ids=["none", "zero", "negative", "nan"])
    def test_deviation_levels_are_refused_before_any_field_call(
            self, capillary, alphas):
        spied, evals, seen = self._spied(capillary)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        with pytest.raises(InputError,
                           match="deviation levels must be positive"):
            one_sided_ap_lim(spied, S, (1.0, 0.0), (1.0, 0.0), alphas,
                             RADII, samples=100, seed=1)
        assert evals == [] and seen == []

    def _spied(self, field):
        """The field, recording every point handed to its eval and to its
        disk's membership test."""
        evals, seen = [], []

        def ev(pts):
            evals.append(pts.copy())
            return field.eval(pts)

        class SpiedDisk(Disk):
            def contains(self, pts):
                seen.append(pts.copy())
                return super().contains(pts)

        disk = SpiedDisk(field.disk.center, field.disk.radius)
        return dataclasses.replace(field, eval=ev, disk=disk), evals, seen

    def test_one_field_pass_per_radius_for_all_alphas(self, capillary):
        spied, evals, _ = self._spied(capillary)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = one_sided_ap_lim(spied, S, (1.0, 0.0), (1.0, 0.0),
                               (0.2, 0.1, 0.05), RADII,
                               samples=20000, seed=20260819)
        assert len(rep.probes) == 3
        assert len(evals) == len(RADII)

    def test_every_drawn_point_is_inward(self, capillary):
        # the probe draws the inward half-disk only: the field sees each
        # drawn point once per radius, none of them outward or outside it
        spied, evals, seen = self._spied(capillary)
        x0 = np.array([math.cos(2.0), math.sin(2.0)])
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        nu = S.normal_at(x0)
        rep = one_sided_ap_lim(spied, S, x0, nu, (0.2,), RADII,
                               samples=4000, seed=9)
        (_, probe), = rep.probes
        assert len(seen) == len(RADII)
        for pts, r in zip(seen, RADII):
            assert pts.shape[0] == probe.samples_per_radius
            assert np.all((pts - x0) @ nu <= 1e-15)
            assert np.all(np.hypot(*(pts - x0).T) <= r + 1e-15)
        assert all(np.all((pts - x0) @ nu <= 1e-15) for pts in evals)

    def test_ratios_do_not_increase_with_alpha(self, capillary, twisting8):
        cases = (
            (capillary, circle_interface((0.0, 0.0), 1.0, outward=True),
             (1.0, 0.0), (1.0, 0.0), (0.05, 0.1, 0.2)),
            (twisting8, line_interface((0.0, 0.0), (1.0, 0.0),
                                       normal=(0.0, -1.0)),
             (1.0 / 3.0, 0.0), (0.0, 0.0), (0.25, 0.5, 0.75)),
        )
        for field, S, x0, w, alphas in cases:
            rep = one_sided_ap_lim(field, S, x0, w, alphas, RADII,
                                   samples=8000, seed=20260819)
            ratios = np.array([probe.ratios for _, probe in rep.probes])
            assert np.all(np.diff(ratios, axis=0) <= 0.0)


# ---------------------------------------------------------------------------
# the sampled gate

NAN = float("nan")


class TestSampledVerdict:
    # a sampled gate lo <= value <= hi is the report's gate rule with
    # SAMPLING_Z = 6 standard errors of 1e-3 as its error: 6e-3 inside
    # every bound is a PASS, more than that outside one a FAIL, anything
    # between or NaN undecided
    @pytest.mark.parametrize("value,stderr,lo,hi,verdict", [
        (0.0, 1e-3, None, 0.01, "PASS"),
        (0.005, 1e-3, None, 0.01, "INCONCLUSIVE"),
        (0.015, 1e-3, None, 0.01, "INCONCLUSIVE"),
        (0.02, 1e-3, None, 0.01, "FAIL"),
        (0.02, 1e-3, 0.01, None, "PASS"),
        (0.0, 1e-3, 0.01, None, "FAIL"),
        (0.5, 1e-3, 0.49, 0.51, "PASS"),
        (0.495, 1e-3, 0.49, 0.51, "INCONCLUSIVE"),
        (0.47, 1e-3, 0.49, 0.51, "FAIL"),
        (0.53, 1e-3, 0.49, 0.51, "FAIL"),
        (NAN, 1e-3, None, 0.01, "INCONCLUSIVE"),
        (NAN, 1e-3, 0.49, 0.51, "INCONCLUSIVE"),
        (0.0, NAN, None, 0.01, "INCONCLUSIVE"),
        (0.02, NAN, None, 0.01, "INCONCLUSIVE"),
        (0.5, NAN, 0.49, 0.51, "INCONCLUSIVE"),
    ])
    def test_table(self, value, stderr, lo, hi, verdict):
        error = trace.sampling_error(stderr)
        if lo is not None and hi is not None:
            check = CheckResult.from_residual(
                "", value - 0.5 * (lo + hi), 0.5 * (hi - lo), error=error)
        else:
            margin = hi - value if lo is None else value - lo
            check = CheckResult.from_margin("", value, 0.0, margin,
                                            error=error)
        assert check.verdict == verdict

    # a NaN theta or stderr read as "below eps_density" and confirmed
    @pytest.mark.parametrize("theta,stderr", [(NAN, 1e-4), (1e-3, NAN)])
    def test_ap_lim_status_is_unresolved_on_nan(self, capillary, theta,
                                                stderr):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = one_sided_ap_lim(capillary, S, (1.0, 0.0), (1.0, 0.0), (0.2,),
                               RADII, samples=2000, seed=20260819)
        (_, probe), = rep.probes
        assert trace._ap_lim_status(probe, 1e-2) == "confirmed"
        nan_probe = dataclasses.replace(probe, theta=theta,
                                        theta_stderr=stderr)
        assert trace._ap_lim_status(nan_probe, 1e-2) == "unresolved"


# ---------------------------------------------------------------------------
# lattice rounds of the gated probes

def _lattice_disk_at_ceiling(samples, seed, theta0=None):
    """The one cloud every deviation probe drew before the probes drew in
    rounds: the smallest Fibonacci lattice covering the request."""
    need = samples if theta0 is None else -(-samples // 2)
    per_shift = -(-need // 4)
    g, n = 1, 1
    while n < per_shift:
        g, n = n, g + n
    i = np.arange(n)
    shift_u, shift_v = np.random.default_rng(seed).random((2, 4, 1))
    r = np.sqrt((i / n + shift_u) % 1.0)
    v = ((i * g % n) / n + shift_v) % 1.0
    theta = 2.0 * math.pi * v if theta0 is None else theta0 + math.pi * v
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2)


class TestLatticeRounds:
    X0 = (1.0 / 3.0, 0.0)
    SEED = 20260819

    @staticmethod
    def _twisting_case(twisting8):
        S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
        return twisting8, S, (0.0, 0.0), (0.5,)

    @staticmethod
    def _spied_eval(field):
        evals = []

        def ev(pts):
            evals.append(pts.copy())
            return field.eval(pts)

        return dataclasses.replace(field, eval=ev), evals

    def test_schedule_grows_by_phi_cubed_to_the_ceiling(self):
        fib = [1, 2]
        while fib[-1] < 10 ** 6:
            fib.append(fib[-2] + fib[-1])
        for samples in (1, 7, 1000, 7896, 7897, 20000, 33000, 100_000,
                        250_000, 999_999, 1_000_000):
            for half in (False, True):
                sizes = trace._lattice_sizes(samples, half)
                ceiling = _lattice_disk_at_ceiling(
                    samples, 0, 0.0 if half else None).shape[1]
                assert sizes[-1] == ceiling
                assert all(n in fib for n in sizes)
                steps = [fib.index(b) - fib.index(a)
                         for a, b in zip(sizes, sizes[1:])]
                assert all(k == 3 for k in steps[:-1])
                assert all(3 <= k <= 5 for k in steps[-1:])
                if fib.index(ceiling) >= fib.index(trace.FIRST_ROUND) + 3:
                    assert sizes[0] == trace.FIRST_ROUND
                else:
                    assert sizes == [ceiling]
                assert sum(sizes) <= 1.35 * ceiling

    def test_gate_free_call_draws_the_ceiling_cloud_once(self, twisting8):
        field, S, w, alphas = self._twisting_case(twisting8)
        spied, evals = self._spied_eval(field)
        nu = S.normal_at(np.asarray(self.X0))
        theta0 = math.atan2(-nu[1], -nu[0]) - 0.5 * math.pi
        probe, = trace.deviation_densities(spied, self.X0, nu, w, alphas,
                                           RADII, 100_000, self.SEED)
        cloud = _lattice_disk_at_ceiling(100_000, self.SEED, theta0)
        assert np.array_equal(
            trace._lattice_disk(self.SEED, cloud.shape[1], theta0), cloud)
        assert len(evals) == len(RADII)
        for pts, r in zip(evals, RADII):
            assert np.array_equal(pts, np.asarray(self.X0)
                                  + r * cloud.reshape(-1, 2))
        assert (probe.samples_per_radius == probe.drawn_per_radius
                == probe.ceiling_per_radius == cloud.shape[0] * cloud.shape[1])

    def _ceiling_probe(self, field, S, w, alphas, samples):
        nu = S.normal_at(np.asarray(self.X0))
        return trace.deviation_densities(field, self.X0, nu, w, alphas,
                                         RADII, samples, self.SEED)[0]

    def test_twisting_rejection_within_the_sampling_error_is_inconclusive(
            self, twisting8):
        # the finest ratio, about 0.0133, is the smallest; a threshold two
        # standard errors below it would reject the candidate 0 from the
        # point estimate alone
        field, S, w, alphas = self._twisting_case(twisting8)
        ceiling = self._ceiling_probe(field, S, w, alphas, 100_000)
        k = int(np.argmin(ceiling.ratios))
        assert k == len(RADII) - 1
        eps = ceiling.ratios[k] - 2.0 * ceiling.stderrs[k]
        assert ceiling.theta - eps >= trace.SAMPLING_Z * ceiling.theta_stderr
        spied, evals = self._spied_eval(field)
        rep = one_sided_ap_lim(spied, S, self.X0, w, alphas, RADII,
                               eps_density=eps, samples=100_000,
                               seed=self.SEED)
        (_, probe), = rep.probes
        check, = [c for c in rep.checks
                  if c.name.startswith("deviation density")]
        assert rep.classification == AP_LIM_INCONCLUSIVE
        assert check.verdict == "INCONCLUSIVE" and "(unresolved)" in \
            check.detail
        assert rep.verdict == "INCONCLUSIVE"
        # it drew every round, at most 1.35x the points of the gate-free
        # call, and ended on the gate-free cloud
        assert (probe.ratios, probe.stderrs) == (ceiling.ratios,
                                                 ceiling.stderrs)
        assert probe.samples_per_radius == probe.ceiling_per_radius
        points = sum(pts.shape[0] for pts in evals)
        assert points == len(RADII) * probe.drawn_per_radius
        assert points <= 1.35 * len(RADII) * ceiling.samples_per_radius
        cloud = _lattice_disk_at_ceiling(100_000, self.SEED, 0.0)
        for pts, r in zip(evals[-len(RADII):], RADII):
            assert np.array_equal(pts, np.asarray(self.X0)
                                  + r * cloud.reshape(-1, 2))

    def test_twisting_confirmation_within_the_sampling_error_is_inconclusive(
            self, twisting8):
        # a threshold two standard errors above theta would confirm the
        # candidate 0 from the point estimate alone
        field, S, w, alphas = self._twisting_case(twisting8)
        ceiling = self._ceiling_probe(field, S, w, alphas, 100_000)
        eps = ceiling.theta + 2.0 * ceiling.theta_stderr
        rep = one_sided_ap_lim(field, S, self.X0, w, alphas, RADII,
                               eps_density=eps, samples=100_000,
                               seed=self.SEED)
        (_, probe), = rep.probes
        assert rep.classification == AP_LIM_INCONCLUSIVE
        assert [c.verdict for c in rep.checks] == ["INCONCLUSIVE", "INFO"]
        assert rep.verdict == "INCONCLUSIVE"
        assert probe.ratios == ceiling.ratios


# ---------------------------------------------------------------------------
# extrapolation internals

class TestTailFit:
    def test_linear_sequence_is_exact(self):
        r = np.array([0.4, 0.2, 0.1, 0.05])
        est = 2.0 - 3.0 * r
        intercept, osc, raw = _tail_fit(r, est)
        assert intercept == pytest.approx(2.0, abs=1e-12)
        assert osc <= 1e-12
        assert raw == pytest.approx(float(est.max() - est.min()), abs=1e-12)

    def test_alternation_survives_detrending(self):
        r = [0.4, 0.2, 0.1, 0.05]
        est = [0.01, -0.01, 0.01, -0.01]
        _, osc, raw = _tail_fit(r, est)
        assert osc > 0.25 * raw

    def test_single_radius_passthrough(self):
        intercept, osc, raw = _tail_fit([0.1], [3.5])
        assert (intercept, osc, raw) == (3.5, 0.0, 0.0)

    @pytest.mark.parametrize("radii", [[0.1], [0.4, 0.2], RADII])
    def test_intercept_weights_reproduce_the_fit(self, radii):
        est = np.cos(np.arange(len(radii)) + 1.0)
        c = _intercept_weights(radii)
        assert c @ est[-c.size:] == pytest.approx(_tail_fit(radii, est)[0],
                                                  abs=1e-12)
