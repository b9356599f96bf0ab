"""Rescaling, deviation densities, the pointwise quadratic inequality, and
per-scale trace consistency."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import _quad, fields
from divlab import blowup as blowup_module
from divlab import trace
from divlab.blowup import (
    BOUNDARY_SLICE, PAIRING_SHARE, blowup_trace_consistency,
    finest_ratio_check, hash_unit_ball_field, nalpha_density,
    quadratic_inequality_check, rescale, _halfspace_lhs,
)
from divlab.calculus import bump_test
from divlab.fields import Disk, constant_field, make_capillary_field
from divlab.trace import (circle_interface, line_interface,
                          one_sided_ap_lim, _tail_fit)

from conftest import rim_lens_ratio

RADII = [2.0 ** -k for k in range(3, 9)]


# ---------------------------------------------------------------------------
# rescaling

class TestRescale:
    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(-2.0, 4.0), y=st.floats(-1.0, 3.0),
           r=st.floats(1e-3, 2.0))
    def test_reads_the_base_field_at_the_zoomed_point(self, stream_bump,
                                                      x, y, r):
        z = rescale(stream_bump, (x, y), r)
        pts = np.array([[0.0, 0.0], [0.5, -0.25], [1.0, 1.0]])
        want = stream_bump.eval(np.array([x, y]) + r * pts)
        assert np.array_equal(z.eval(pts), want)

    def test_composition_of_zooms(self, stream_bump):
        x0 = np.array([0.3, 1.0])
        once = rescale(rescale(stream_bump, x0, 0.5), (0.0, 0.0), 0.25)
        direct = rescale(stream_bump, x0, 0.125)
        pts = np.linspace(-1.0, 1.0, 7)[:, None] * np.ones((1, 2))
        assert np.allclose(once.eval(pts), direct.eval(pts), atol=1e-12)

    def test_preserves_sup_and_zooms_on_the_center(self, stream_bump):
        z = rescale(stream_bump, (0.1, 0.9), 0.25)
        assert z.sup_bound == stream_bump.sup_bound
        y = np.array([[0.0, 0.0], [0.4, -0.2], [-1.0, 1.0]])
        assert np.array_equal(
            z.eval(y), stream_bump.eval(np.array([0.1, 0.9]) + 0.25 * y))
        assert "zoom" in z.name

    def test_scales_divergence_and_domain(self, capillary):
        z = rescale(capillary, (1.0, 0.0), 0.5)
        # div(z_r)(y) = r * div(z)(x0 + r y): doubled radius halves the zoom
        pts = np.array([[-0.5, 0.0], [-0.2, 0.1]])
        assert np.allclose(z.analytic_div(pts),
                           0.5 * capillary.analytic_div(
                               np.array([1.0, 0.0]) + 0.5 * pts))
        assert z.disk == Disk((-2.0, 0.0), 2.0)
        assert z.disk.contains(np.array([[-0.5, 0.0]]))[0]
        assert not z.disk.contains(np.array([[0.5, 0.0]]))[0]
        # the eddy stack is mapped by y = (x - x0) / r; the calibration is
        # invariant under the zoom
        f = fields.make_twisting_field(5)
        x0 = np.array([0.3, 0.1])
        zoomed = rescale(f, x0, 0.25).eddies
        assert np.array_equal(zoomed.centers, (f.eddies.centers - x0) / 0.25)
        assert np.array_equal(zoomed.radii, f.eddies.radii / 0.25)
        assert zoomed.calibration == f.eddies.calibration

    def test_rejects_bad_scale_and_center(self, stream_bump):
        with pytest.raises(ValueError, match="positive"):
            rescale(stream_bump, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="dimension"):
            rescale(stream_bump, (0.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# deviation densities

class TestNalphaDensity:
    def test_capillary_rim_ratios_thin_out(self, capillary):
        # below r = alpha the field x deviates from the normal only off the
        # disk, so the ratio is the inward half-disk minus the lens:
        # exactly 1/2 - A(r)/(pi r^2).  At 20,000 samples the lattice
        # estimate stays within 5e-4 of it and the extrapolation within
        # 2e-4 of the exact ratios' (at most 2.6e-4 and 1e-4 over 20 seeds)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        probe = nalpha_density(capillary, S, (1.0, 0.0), 0.2, RADII,
                               samples=20000, seed=20260819)
        exact = [0.5 - rim_lens_ratio(r) for r in RADII]
        assert probe.ratios == pytest.approx(exact, abs=5e-4)
        assert abs(probe.theta - max(0.0, _tail_fit(RADII, exact)[0])) \
            <= 2e-4
        frozen = (0.01310952012383901, 0.006627321981424149,
                  0.0034345975232198144, 0.001644736842105263,
                  0.0008707430340557275, 0.00048374613003095975)
        assert probe.ratios == pytest.approx(frozen, rel=1e-12)
        assert probe.ratios[-1] <= 1e-2

    def test_matches_the_ap_lim_deviation_probe_bitwise(self, capillary):
        # same candidate, same sampler seed, both gates met in the first
        # of three rounds: the two routes must agree exactly, not just
        # statistically
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        x0 = (1.0, 0.0)
        na = nalpha_density(capillary, S, x0, 0.2, RADII,
                            samples=100_000, seed=20260819, ratio_tol=1e-2)
        ap = one_sided_ap_lim(capillary, S, x0, S.normal_at(x0), (0.2,),
                              RADII, samples=100_000, seed=20260819)
        (_, probe), = ap.probes
        assert na.samples_per_radius == probe.samples_per_radius \
            == 4 * trace.FIRST_ROUND < na.ceiling_per_radius
        assert na.ratios == probe.ratios

    def test_without_a_gate_draws_the_ceiling_once(self, capillary):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        probe = nalpha_density(capillary, S, (1.0, 0.0), 0.2, RADII,
                               samples=100_000, seed=20260819)
        assert probe.samples_per_radius == probe.drawn_per_radius \
            == probe.ceiling_per_radius == 4 * 17711

    def test_finest_ratio_within_the_sampling_error_is_inconclusive(
            self, capillary):
        # a tolerance two standard errors above the finest ratio passes it
        # from the point estimate alone; the gate cannot tell, so the probe
        # draws every round, ends on the gate-free cloud and decides nothing
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        args = (capillary, S, (1.0, 0.0), 0.2, RADII)
        free = nalpha_density(*args, samples=100_000, seed=20260819)
        tol = free.ratios[-1] + 2.0 * free.stderrs[-1]
        gated = nalpha_density(*args, samples=100_000, seed=20260819,
                               ratio_tol=tol)
        assert gated.ratios == free.ratios
        assert gated.drawn_per_radius == 4 * (987 + 4181 + 17711)
        check = finest_ratio_check(gated, 0.2, tol)
        assert check.verdict == "INCONCLUSIVE"
        assert check.margin > 0.0
        assert "91516 points drawn per radius, 70844 in the final round, " \
            "ceiling 70844" in check.detail

    @pytest.mark.parametrize("tol, verdict", [(1e-2, "PASS"),
                                              (1e-5, "FAIL")])
    def test_finest_ratio_check_decides_clear_margins(self, capillary, tol,
                                                       verdict):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        probe = nalpha_density(capillary, S, (1.0, 0.0), 0.2, RADII,
                               samples=100_000, seed=20260819,
                               ratio_tol=tol)
        assert finest_ratio_check(probe, 0.2, tol).verdict == verdict
        assert probe.samples_per_radius < probe.ceiling_per_radius

    # a NaN finest ratio or stderr has no sampled side: the gate read NaN
    # as below ratio_tol and passed it
    @pytest.mark.parametrize("ratio,stderr", [(float("nan"), 1e-4),
                                              (1e-3, float("nan"))])
    def test_finest_ratio_check_decides_nothing_on_nan(self, capillary,
                                                        ratio, stderr):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        probe = nalpha_density(capillary, S, (1.0, 0.0), 0.2, RADII,
                               samples=2000, seed=20260819)
        probe = dataclasses.replace(
            probe, ratios=probe.ratios[:-1] + (ratio,),
            stderrs=probe.stderrs[:-1] + (stderr,))
        assert finest_ratio_check(probe, 0.2, 1e-2).verdict == "INCONCLUSIVE"

    def test_rejects_unnormalized_field(self):
        S = line_interface()
        with pytest.raises(ValueError, match="not normalized"):
            nalpha_density(constant_field((1.2, 0.0)), S, (0.0, 0.0), 0.2,
                           RADII[:2], samples=2000)

    def test_planar_only(self):
        S = line_interface()
        with pytest.raises(ValueError, match="planar"):
            nalpha_density(constant_field((0.0, 0.0, 1.0)), S,
                           (0.0, 0.0), 0.2, RADII[:2])


# ---------------------------------------------------------------------------
# pointwise quadratic inequality

class TestQuadraticInequality:
    def _unit_ball_points(self, n=10000, seed=20260819):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts * rng.uniform(0.0, 1.0, size=(n, 1)) ** 0.5

    def test_hash_field_margin_and_identity(self):
        rep = quadratic_inequality_check(hash_unit_ball_field(2),
                                         self._unit_ball_points())
        assert rep.verdict == "PASS"
        by = {c.name: c for c in rep.checks}
        margin = by["lifted quadratic margin"]
        assert margin.value >= -1e-12
        assert margin.value == pytest.approx(4.9968758499274735e-06,
                                             rel=1e-9)
        assert by["margin equals (1 - |xi|^2)/2"].value <= 1e-12

    def test_margin_is_exactly_the_closed_form_on_a_constant(self):
        c = constant_field((0.6, 0.0))
        rep = quadratic_inequality_check(c, np.zeros((4, 2)))
        by = {c2.name: c2 for c2 in rep.checks}
        assert by["lifted quadratic margin"].value == pytest.approx(
            0.5 * (1.0 - 0.36), abs=1e-15)

    def test_rejects_oversized_field(self):
        rep = quadratic_inequality_check(constant_field((1.2, 0.0)),
                                         np.zeros((4, 2)))
        assert rep.verdict == "FAIL"
        assert rep.checks[0].name == "normalization |xi| <= 1"


class TestHashField:
    def test_values_stay_in_the_closed_unit_ball(self):
        h = hash_unit_ball_field(2)
        rng = np.random.default_rng(3)
        vals = h.eval(rng.uniform(-5.0, 5.0, size=(20000, 2)))
        assert float(np.max(np.linalg.norm(vals, axis=1))) <= 1.0

    def test_deterministic_across_instances(self):
        pts = np.random.default_rng(4).uniform(-3.0, 3.0, size=(512, 2))
        assert np.array_equal(hash_unit_ball_field(2).eval(pts),
                              hash_unit_ball_field(2).eval(pts))

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            hash_unit_ball_field(0)


# ---------------------------------------------------------------------------
# per-scale trace consistency

class TestTraceConsistency:
    def test_rejects_non_decreasing_radii_before_any_field_call(
            self, stream_bump):
        calls = []

        def counting_eval(pts):
            calls.append(len(pts))
            return stream_bump.eval(pts)

        counted = dataclasses.replace(stream_bump, eval=counting_eval)
        S = line_interface()
        for radii in [(0.25, 0.5), (0.25, 0.25), (0.25, 0.0)]:
            with pytest.raises(ValueError, match="decreasing"):
                blowup_trace_consistency(counted, S, (0.0, 0.0), radii)
        assert calls == []

    def test_off_rim_center_is_refused_before_any_quadrature(
            self, capillary, monkeypatch):
        # x0 lies on the line but inside the disk; the refusal came only
        # once the first half-space pairing ran, after the trace probe and
        # the off-interface mass had run their quadratures
        ran = []
        for name in ("adaptive_ball_rows", "adaptive_gauss_rows"):
            def spy(*args, _rule=getattr(_quad, name), **kwargs):
                ran.append(_rule.__name__)
                return _rule(*args, **kwargs)
            monkeypatch.setattr(_quad, name, spy)
        with pytest.raises(ValueError, match="on the disk boundary"):
            blowup_trace_consistency(capillary, line_interface(), (0.5, 0.0),
                                     (0.25, 0.125))
        assert ran == []

    def test_twisting_mirror_point(self, twisting8):
        S = line_interface((0.0, 0.0), (1.0, 0.0), normal=(0.0, -1.0))
        rep = blowup_trace_consistency(twisting8, S, (0.5, 0.0),
                                       [2.0 ** -k for k in range(2, 7)])
        assert rep.verdict == "PASS"
        by = {c.name: c for c in rep.checks}
        assert by["trace value used"].value == 0.0
        assert by["off-interface divergence mass, final"].value == 0.0
        # the eddy pairings hold the defect to their share of the budget,
        # and the gate carries their estimate as its error
        budget = PAIRING_SHARE * 1e-2
        final = by["half-space pairing defect, final"]
        assert final.value <= budget
        assert 0.0 < final.error <= budget
        assert f"quadrature estimate {final.error!r}" in final.detail
        assert by["punctured-ball flux residual, final"].value <= 1e-12
        assert len(rep.rows) == 5
        assert set(rep.rows[0]) == {
            "k", "radius", "off_interface_div_mass", "half_space_defect",
            "punctured_ball_residual"}

    def test_eddy_pairing_evaluates_the_field_once_per_level(
            self, refine_levels, twisting8):
        # one field call per doubling level serves the whole bump family; a
        # call per ball and bump made 567 here
        calls, levels = [], refine_levels

        def counting_eval(pts):
            calls.append(len(pts))
            return twisting8.eval(pts)

        counted = dataclasses.replace(twisting8, eval=counting_eval)
        nu = np.array([0.0, -1.0])
        fam = [bump_test((o, 0.0), 0.5) for o in np.linspace(-0.6, 0.6, 5)]
        paired = []
        for k in range(3, 9):
            zk = rescale(counted, (0.5, 0.0), 2.0 ** -k)
            calls.clear()
            levels.clear()
            lhs, estimate = _halfspace_lhs(zk, fam, nu, 1e-4)
            assert len(lhs) == len(fam)
            assert len(calls) <= len(levels)
            assert (0.0 < estimate <= 1e-4) if calls else estimate == 0.0
            if calls:
                paired.append(k)
        # at k = 8 no eddy ball of the 8-level stack reaches the bumps
        assert paired == [3, 4, 5, 6, 7]

    def test_halfspace_pairing_needs_declared_divergence(self):
        # a missing divergence is refused, not replaced by zero
        f = constant_field((0.0, 1.0))
        f = type(f)(dim=2, eval=f.eval, sup_bound=f.sup_bound, name="nodiv")
        with pytest.raises(ValueError, match="divergence information"):
            _halfspace_lhs(rescale(f, (0.0, 0.0), 0.5),
                           [bump_test((0.0, 0.0), 0.5)],
                           np.array([0.0, 1.0]), 1e-4)

    def test_domain_restricted_field_skips_annuli(self, capillary):
        # the half-space pairing's inner quadratures share one field call
        # per doubling level; one quadrature per outer node made ~57k calls
        calls = []

        def counting_eval(pts):
            calls.append(len(pts))
            return capillary.eval(pts)

        counted = dataclasses.replace(capillary, eval=counting_eval)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = blowup_trace_consistency(counted, S, (1.0, 0.0), (0.25, 0.125),
                                       trace_value=1.0)
        by = {c.name: c for c in rep.checks}
        assert by["punctured-ball flux residual"].verdict == "SKIPPED"
        assert by["half-space pairing defect, final"].verdict == "PASS"
        assert 0 < len(calls) < 1000

    def test_halfspace_pairing_makes_one_profile_pass_per_integrand_call(
            self, capillary, monkeypatch):
        # the bump's value and gradient share one distance and one profile
        # evaluation; separate value and gradient calls made two passes
        passes, integrand_calls = [], []
        profile_terms = fields._profile_terms

        def counting_terms(u):
            passes.append(np.size(u))
            return profile_terms(u)

        def counting_div(pts):
            # the integrand reads the divergence once per call
            integrand_calls.append(len(pts))
            return capillary.analytic_div(pts)

        monkeypatch.setattr(fields, "_profile_terms", counting_terms)
        counted = dataclasses.replace(capillary, analytic_div=counting_div)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        x0 = (1.0, 0.0)
        fam = [bump_test((0.0, o), 0.5) for o in np.linspace(-0.6, 0.6, 5)]
        lhs, _ = _halfspace_lhs(rescale(counted, x0, 0.125), fam,
                                S.normal_at(np.asarray(x0)), 1e-4)
        assert len(lhs) == len(fam)
        assert len(integrand_calls) > 0
        assert passes == integrand_calls

    def test_flat_boundary_term_is_integrated_once_per_bump(
            self, capillary, monkeypatch):
        # the tangent-line integral of each bump does not depend on the
        # scale; it was integrated again at every scale (15 times here)
        # the boundary term is the one 1D integral held to BOUNDARY_SLICE
        # of the pairing's budget (trace value 1, default final_tol)
        flat = []
        gauss_1d = _quad.adaptive_gauss_1d
        slice_atol = BOUNDARY_SLICE * PAIRING_SHARE * 1e-2

        def counting_1d(f, a, b, **kwargs):
            if kwargs.get("atol") == slice_atol:
                flat.append((a, b))
            return gauss_1d(f, a, b, **kwargs)

        monkeypatch.setattr(_quad, "adaptive_gauss_1d", counting_1d)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                       (0.25, 0.125, 0.0625),
                                       trace_value=1.0, rtol=1e-6)
        assert len(rep.rows) == 3
        assert len(flat) == 5 and len(set(flat)) == 5

    def test_rejects_a_final_tolerance_that_leaves_no_budget(
            self, capillary):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        for final_tol in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError, match="final_tol"):
                blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                         (0.25, 0.125), trace_value=1.0,
                                         final_tol=final_tol)

    def test_failed_off_interface_mass_is_skipped_not_fatal(self, capillary):
        # at scale 1 the masked ball quadrature of (a) does not settle; the
        # gated pairing (b) still runs and (a) leaves NaN in that row
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                       (1.0, 0.5, 0.25), rtol=1e-6)
        by = {c.name: c for c in rep.checks}
        skipped = by["off-interface divergence mass"]
        assert skipped.verdict == "SKIPPED"
        assert skipped.detail.startswith("scale 0: ball quadrature failed")
        assert "off-interface divergence mass, final" not in by
        assert by["half-space pairing defect, final"].verdict == "PASS"
        mass = [row["off_interface_div_mass"] for row in rep.rows]
        assert np.isnan(mass[0]) and np.all(np.isfinite(mass[1:]))
        assert rep.verdict == "PASS"


# ---------------------------------------------------------------------------
# the half-space pairing's quadrature budget

CAPILLARY_RADII = (0.25, 0.125, 0.0625)


def _pairing_nodes(field, monkeypatch, x0=(1.0, 0.0), trace_value=1.0,
                   **kwargs):
    """Integrand nodes of the 1D row rules (the half-space pairing, the
    flat boundary term and, with no trace value given, the lens averages
    of the trace probe) of one capillary rim blow-up, and its report."""
    nodes = []
    gauss_rows = _quad._gauss_rows

    def counting(f, rows, a, b, panels, order):
        nodes.append(rows.size * panels * order)
        return gauss_rows(f, rows, a, b, panels, order)

    monkeypatch.setattr(_quad, "_gauss_rows", counting)
    S = circle_interface((0.0, 0.0), 1.0, outward=True)
    rep = blowup_trace_consistency(field, S, x0, CAPILLARY_RADII,
                                   trace_value=trace_value, **kwargs)
    monkeypatch.setattr(_quad, "_gauss_rows", gauss_rows)
    return sum(nodes), rep


class TestPairingBudget:
    def test_rtol_no_longer_reaches_the_pairing(self, capillary,
                                                monkeypatch):
        # the pairing ran at --rtol: 2.47M nodes at 1e-6, 41M at 1e-10
        coarse, rep = _pairing_nodes(capillary, monkeypatch, rtol=1e-6)
        fine, _ = _pairing_nodes(capillary, monkeypatch, rtol=1e-10)
        assert coarse == fine
        assert 0 < coarse <= 300_000
        by = {c.name: c for c in rep.checks}
        defect = by["half-space pairing defect, final"]
        assert defect.verdict == "PASS"
        assert 0.0 < defect.error <= PAIRING_SHARE * 1e-2
        assert f"quadrature estimate {defect.error!r} against the share " \
            f"{PAIRING_SHARE:g} of the final gate: " \
            f"{PAIRING_SHARE * 1e-2!r}" in defect.detail

    def test_final_defect_agrees_with_a_tight_reference(self, capillary):
        # the reference holds the pairing to a budget of 1e-8 (its gate of
        # 1e-6 fails; only its defect row and its estimate are read)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                       CAPILLARY_RADII, trace_value=1.0)
        ref = blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                       CAPILLARY_RADII[-2:], trace_value=1.0,
                                       final_tol=1e-6)
        by = {c.name: c for c in ref.checks}
        assert by["half-space pairing defect, final"].error <= 1e-8
        final = rep.rows[-1]["half_space_defect"]
        reference = ref.rows[-1]["half_space_defect"]
        assert abs(final - reference) <= PAIRING_SHARE * 1e-2

    # the worst estimate over the scales is the final defect's error: above
    # its share but inside the gate's slack the defect still passes, and
    # wider than the slack it leaves the defect undecided
    @pytest.mark.parametrize("estimate, verdict", [
        (2.0 * PAIRING_SHARE * 1e-2, "PASS"), (2e-2, "INCONCLUSIVE")])
    def test_estimate_wider_than_the_slack_leaves_the_defect_undecided(
            self, capillary, monkeypatch, estimate, verdict):
        halfspace_lhs = blowup_module._halfspace_lhs
        scales = []

        def over_budget(*args):
            values, _ = halfspace_lhs(*args)
            scales.append(estimate if not scales else 0.0)
            return values, scales[-1]

        monkeypatch.setattr(blowup_module, "_halfspace_lhs", over_budget)
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        rep = blowup_trace_consistency(capillary, S, (1.0, 0.0),
                                       CAPILLARY_RADII, trace_value=1.0)
        defect = {c.name: c for c in rep.checks}[
            "half-space pairing defect, final"]
        assert defect.error == estimate
        assert defect.verdict == verdict == rep.verdict


# ---------------------------------------------------------------------------
# one row batch per scale

class TestScaleBatches:
    def test_family_pairing_equals_the_one_bump_pairings(self, capillary):
        # the five bumps run as rows of one outer quadrature; each row
        # stops on its own test, so every pairing is the one-bump value
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        x0 = np.array([0.6, 0.8])
        nu = S.normal_at(x0)
        tdir = np.array([-nu[1], nu[0]])
        fam = [bump_test(o * tdir, 0.5) for o in np.linspace(-0.6, 0.6, 5)]
        zk = rescale(capillary, x0, 0.125)
        lhs, estimate = _halfspace_lhs(zk, fam, nu, 1e-4)
        alone = [_halfspace_lhs(zk, [psi], nu, 1e-4) for psi in fam]
        assert lhs == [value for [value], _ in alone]
        assert estimate == max(e for _, e in alone)

    def test_family_off_interface_mass_equals_the_one_bump_masses(
            self, capillary):
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        x0 = np.array([0.6, 0.8])
        nu = S.normal_at(x0)
        tdir = np.array([-nu[1], nu[0]])
        shifted = [bump_test(o * tdir - nu, 0.5)
                   for o in np.linspace(-0.6, 0.6, 5)]
        zk = rescale(capillary, x0, 0.25)
        masses = blowup_module._off_interface_div_mass(zk, shifted, 1e-6)
        assert masses == [
            blowup_module._off_interface_div_mass(zk, [psi], 1e-6)[0]
            for psi in shifted]

    def test_family_must_share_one_radius_and_height(self, capillary):
        zk = rescale(capillary, (1.0, 0.0), 0.25)
        nu = np.array([1.0, 0.0])
        for odd in (bump_test((0.0, 0.5), 0.25),
                    bump_test((0.0, 0.5), 0.5, height=2.0)):
            with pytest.raises(ValueError, match="one radius and height"):
                _halfspace_lhs(zk, [bump_test((0.0, 0.0), 0.5), odd], nu,
                               1e-4)

    def test_rim_blowup_makes_one_divergence_call_per_level_and_scale(
            self, capillary, monkeypatch):
        # the benchmark's blow-up shape with its trace value probed: a
        # nested quadrature per bump and scale made 215 divergence calls
        # for the same 256,168 points
        calls = []

        def counting_div(pts):
            calls.append(len(pts))
            return capillary.analytic_div(pts)

        counted = dataclasses.replace(capillary, analytic_div=counting_div)
        nodes, rep = _pairing_nodes(counted, monkeypatch, x0=(0.6, 0.8),
                                    trace_value=None, rtol=1e-6)
        assert rep.verdict == "PASS"
        assert len(calls) <= 50
        assert sum(calls) == 256_168
        assert nodes == 177_472
