"""Flow-tube transport, strip balance, potential certification, and the
separable-profile obstruction.

Flow and quadrature here are deterministic, so measured values are frozen
at tight tolerances; run-to-run drift would indicate a real change.
"""

import dataclasses
import math

import numpy as np
import pytest

from divlab import rigidity
from divlab.calculus import GridSpec
from divlab.fields import (
    AUTO, InputError, constant_field, counterexample_potential,
    get_field, phi_quadratic, stream_bump_field, zero_field,
)
from divlab.rigidity import (
    CERTIFIED, INCONCLUSIVE, VIOLATED, RigidityCertificate,
    certify_potential, default_certification_grid, flow_tubes, separable_demo,
    strip_identity_2d,
)

from conftest import GATE_AT_RTOL_1E10

TUBE_BOX = ((-2.7, 3.3), (0.0, 1.0))


def one_tube(eta, epsilon, A, h0, seeds_per_axis=64, **kwargs):
    # one seed level and no plot grid: exactly the batch of a lone tube
    (tube,), paths = flow_tubes(eta, epsilon, A, h0, [seeds_per_axis],
                                **kwargs)
    assert paths is None
    return tube


# ---------------------------------------------------------------------------
# certification

class TestCertification:
    def test_default_grid_shape(self):
        g = default_certification_grid(50)
        assert g.box == ((1e-3, 1e3), (-1.0, 10.0))
        assert g.resolution == (50, 50)
        assert g.spacing == ("log", "uniform")
        rho, z = g.axes()
        assert rho[0] == pytest.approx(1e-3) and rho[-1] == pytest.approx(1e3)
        assert np.all(np.diff(np.log(rho)) > 0)
        assert z[0] == -1.0 and z[-1] == 10.0

    def test_auto_amplitude_certifies(self):
        cert = certify_potential(counterexample_potential(4, AUTO),
                                 default_certification_grid(200), c=1.0)
        assert cert.verdict == CERTIFIED
        assert cert.witness is None
        by_name = {c["name"]: c for c in cert.conditions}
        assert by_name["zero below interface"]["min_margin"] == 0.0
        assert by_name["radial-vertical balance"]["min_margin"] >= 0.0
        # tightest point: largest radius column of the log grid, top height
        slope = by_name["slope bounded by rho^(n-2)"]
        assert slope["min_margin"] == pytest.approx(7.541899293293542e-07,
                                                    rel=1e-9)
        assert slope["argmin_point"] == pytest.approx((1e-3, 10.0))
        assert cert.constants["n"] == 4 and cert.constants["c"] == 1.0

    def test_amplitude_one_is_violated_with_witness(self):
        cert = certify_potential(counterexample_potential(4, 1.0),
                                 default_certification_grid(200), c=1.0)
        assert cert.verdict == VIOLATED
        w = cert.witness
        assert w["condition"] == "slope bounded by rho^(n-2)"
        assert w["point"] == pytest.approx(
            (0.6826071834272386, 10.0), rel=1e-12)
        assert w["margin"] == pytest.approx(-0.1390130695675213, rel=1e-9)
        assert w["V"] == pytest.approx(0.1504988177557318, rel=1e-9)

    def test_to_dict_round_trips_witness(self):
        cert = certify_potential(counterexample_potential(4, 1.0),
                                 default_certification_grid(40), c=1.0)
        d = cert.to_dict()
        assert d["verdict"] == VIOLATED
        assert set(d) == {"label", "grid", "conditions", "constants",
                          "verdict", "witness"}

    def test_nan_margin_is_never_certified(self):
        P = counterexample_potential(4, AUTO)
        nan_gradient = dataclasses.replace(
            P, dV=lambda rho, z: tuple(d * math.nan for d in P.dV(rho, z)))
        cert = certify_potential(nan_gradient, default_certification_grid(20))
        assert cert.verdict == INCONCLUSIVE
        assert cert.witness is None

    @pytest.mark.parametrize("margin_tol", [math.nan, math.inf])
    def test_non_finite_margin_tol_is_rejected(self, margin_tol):
        grid = GridSpec([(0.05, 2.0), (0.05, 2.0)], [20, 20])
        with pytest.raises(ValueError, match="margin_tol"):
            certify_potential(counterexample_potential(4, 1.0), grid,
                              margin_tol=margin_tol)

    # the certificate's serialized form, pinned: a witness is written only
    # when there is one
    @pytest.mark.parametrize("witness", [
        None, {"condition": "slope bounded by rho^(n-2)", "point": (2.0, 0.5),
               "margin": -0.25, "V": 1.5}])
    def test_to_dict_is_its_fields(self, witness):
        cert = RigidityCertificate(
            label="demo", grid={"box": [[1e-3, 1e3], [-1.0, 10.0]],
                                "resolution": [4, 4],
                                "spacing": ["log", "uniform"]},
            conditions=[{"name": "zero below interface", "min_margin": -0.0,
                         "argmin_point": None},
                        {"name": "slope bounded by rho^(n-2)",
                         "min_margin": -0.25, "argmin_point": (2.0, 0.5)}],
            constants={"gamma": 0.5, "c": 1.0, "n": 4},
            verdict=VIOLATED if witness else CERTIFIED, witness=witness)
        want = {
            "label": "demo",
            "grid": {"box": [[1e-3, 1e3], [-1.0, 10.0]], "resolution": [4, 4],
                     "spacing": ["log", "uniform"]},
            "conditions": [
                {"name": "zero below interface", "min_margin": -0.0,
                 "argmin_point": None},
                {"name": "slope bounded by rho^(n-2)", "min_margin": -0.25,
                 "argmin_point": (2.0, 0.5)}],
            "constants": {"gamma": 0.5, "c": 1.0, "n": 4},
            "verdict": "VIOLATED" if witness else "CERTIFIED_SAMPLED",
        }
        if witness:
            want["witness"] = {"condition": "slope bounded by rho^(n-2)",
                               "point": (2.0, 0.5), "margin": -0.25,
                               "V": 1.5}
        assert cert.to_dict() == want


# ---------------------------------------------------------------------------
# flow tubes

class TestFlowTube:
    # a lift outside (0, inf) is refused with the other inputs, before the
    # top flux is integrated or a seed flows
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_lift_must_be_finite_and_positive(self, epsilon, monkeypatch):
        for module, name in ((rigidity._quad, "adaptive_gauss_1d"),
                             (rigidity._ode, "_dp_steps")):
            def spy(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran")
            monkeypatch.setattr(module, name, spy)
        with pytest.raises(InputError,
                           match="lift epsilon .* finite and positive"):
            flow_tubes(zero_field(2), epsilon, ((-1.0, 1.0), (-1.0, 1.0)),
                       1.95, [4])

    def test_zero_field_residual_is_exactly_zero(self):
        tube = one_tube(zero_field(2), 1.0, ((-1.0, 1.0), (-1.0, 1.0)),
                        1.95, seeds_per_axis=8)
        assert tube.residual == 0.0
        assert tube.bottom_measure == pytest.approx(4.0, abs=1e-12)
        assert tube.delta_min == 1.0

    def test_stream_bump_transport_identity(self, stream_bump):
        eps = 2.0 * stream_bump.sup_bound
        tube = one_tube(stream_bump, eps, TUBE_BOX, 1.95, seeds_per_axis=16,
                        residual_tol=GATE_AT_RTOL_1E10)
        # top height clears the support, so the top flux is eps * |A|
        assert tube.top_integral == pytest.approx(eps * 6.0, abs=1e-12)
        assert tube.residual == pytest.approx(8.99660230563315e-05, rel=1e-6)
        assert tube.delta_min == pytest.approx(0.8893836078044807, rel=1e-6)
        assert tube.displacement_margin is None

    def test_refinement_shrinks_the_residual(self, stream_bump):
        eps = 2.0 * stream_bump.sup_bound
        (coarse, fine), _ = flow_tubes(stream_bump, eps, TUBE_BOX, 1.95,
                                       [16, 32])
        assert fine.residual <= coarse.residual / 4.0

    # the flow's error bound is a bound: each level's residual lies within
    # it of the residual flowed at the rtol floor, and it keeps to the
    # flow's share of the gate that budgeted the flow
    @pytest.mark.parametrize("tau", [1e-4, 1e-6])
    def test_ode_error_bounds_the_flow_shift(self, stream_bump, tau):
        eps = 2.0 * stream_bump.sup_bound
        reference, _ = flow_tubes(stream_bump, eps, TUBE_BOX, 1.95, [32, 64],
                                  residual_tol=1e-300)
        assert reference[0].rtol == rigidity.ODE_RTOL_MIN == 1e-12
        tubes, _ = flow_tubes(stream_bump, eps, TUBE_BOX, 1.95, [32, 64],
                              residual_tol=tau)
        for tube, ref in zip(tubes, reference):
            assert rigidity.ODE_RTOL_MIN < tube.rtol < rigidity.ODE_RTOL_MAX
            assert 0.0 < abs(tube.residual - ref.residual) <= tube.ode_error
            assert tube.ode_error <= rigidity.ODE_SHARE * tau

    # a gate finer than the rtol floor can resolve flows at the floor, a
    # bounded amount of work, and its residual check cannot pass
    def test_gate_below_the_floor_flows_at_the_floor(self, stream_bump,
                                                     monkeypatch):
        seen = []
        dp_steps = rigidity._ode._dp_steps

        def spy(f, t0, y0, t1, rtol, *args):
            seen.append(rtol)
            return dp_steps(f, t0, y0, t1, rtol, *args)

        monkeypatch.setattr(rigidity._ode, "_dp_steps", spy)
        tube = one_tube(stream_bump, 2.0 * stream_bump.sup_bound, TUBE_BOX,
                        1.95, seeds_per_axis=8, residual_tol=1e-300)
        assert seen == [rigidity.ODE_RTOL_MIN] and tube.rtol == 1e-12
        assert tube.gate_check().verdict == "FAIL"
        assert tube.to_report().verdict == "FAIL"

    # the first guess at the rtol can break the share on a converged
    # level: at tau = 3e-9 the 128^2 level's first bound is 1.3 times its
    # share, and one tighter flow meets it; at tau = 1e-8 the first does
    @pytest.mark.parametrize("tau, flows", [(1e-8, 1), (3e-9, 2)])
    def test_converged_level_meets_its_share(self, stream_bump, monkeypatch,
                                             tau, flows):
        eps = 2.0 * stream_bump.sup_bound
        reference = one_tube(stream_bump, eps, TUBE_BOX, 1.95,
                             seeds_per_axis=128, residual_tol=1e-300)
        seen = []
        dp_steps = rigidity._ode._dp_steps

        def spy(f, t0, y0, t1, rtol, *args):
            seen.append(rtol)
            return dp_steps(f, t0, y0, t1, rtol, *args)

        monkeypatch.setattr(rigidity._ode, "_dp_steps", spy)
        tube = one_tube(stream_bump, eps, TUBE_BOX, 1.95,
                        seeds_per_axis=128, residual_tol=tau)
        assert len(seen) == flows and seen == sorted(seen, reverse=True)
        assert tube.rtol == seen[-1] > rigidity.ODE_RTOL_MIN
        assert abs(tube.residual - reference.residual) <= tube.ode_error
        assert tube.ode_error <= rigidity.ODE_SHARE * tau
        assert tube.residual <= tau
        assert tube.to_report().verdict == "PASS"

    # the flow's error bound is the residual gate's error: a bound above
    # its share but inside the gate's slack still passes, one wider than
    # the slack leaves the gate undecided, and a NaN bound never passes
    @pytest.mark.parametrize("ode_error, verdict", [
        (2e-8, "PASS"), (2e-6, "INCONCLUSIVE"), (math.nan, "INCONCLUSIVE")])
    def test_residual_gate_reads_the_ode_error(self, ode_error, verdict):
        tube = one_tube(zero_field(2), 1.0, ((-1.0, 1.0), (-1.0, 1.0)),
                        1.95, seeds_per_axis=4)
        assert tube.residual == 0.0 and tube.ode_error == 0.0
        assert tube.gate_check().verdict == "PASS"
        broken = dataclasses.replace(tube, ode_error=ode_error)
        check = broken.gate_check()
        assert check.verdict == verdict
        assert check.error == ode_error or math.isnan(check.error)
        assert f"ODE error bound {ode_error!r} against the share " \
            f"{rigidity.ODE_SHARE:g} of the gate" in check.detail
        assert broken.to_report().verdict == verdict

    def test_flow_tube_refuses_a_non_positive_gate(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow started")

        monkeypatch.setattr(rigidity._ode, "_dp_steps", no_flow)
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="residual tolerance"):
                one_tube(zero_field(2), 1.0, ((-1.0, 1.0), (-1.0, 1.0)),
                         1.95, seeds_per_axis=4, residual_tol=tau)

    def test_displacement_bound(self, stream_bump):
        eps = 2.0 * stream_bump.sup_bound
        tube = one_tube(stream_bump, eps, TUBE_BOX, 1.95, seeds_per_axis=8,
                        gauge_constant=0.5)
        assert tube.displacement_bound == pytest.approx(3.9)
        assert tube.displacement_margin is not None
        assert tube.displacement_margin > 0.0

    def test_trajectories_reach_the_bottom(self, stream_bump):
        eps = 2.0 * stream_bump.sup_bound
        _, rows = flow_tubes(stream_bump, eps, TUBE_BOX, 1.95, [],
                             plot_seeds=3)
        assert rows.shape[0] and rows.shape[0] % 9 == 0
        # columns: seed q1 q2, height, position x1 x2 x3, delta
        heights = sorted(set(rows[:, 2]))
        assert heights[0] == 0.0 and heights[-1] == 1.95
        assert np.array_equal(rows[:, 5], rows[:, 2])
        assert np.all(rows[:, -1] > 0.0)

    def test_planar_tube_flows_one_seed_column_of_its_extrusion(
            self, stream_bump):
        # the planar field stands for its extrusion along x2: the same
        # numbers, from one flowed seed column instead of all 8^2 seeds
        eps = 2.0 * stream_bump.sup_bound
        extruded = get_field("stream:bump:3d")
        sizes = {"eval": [], "jac": []}
        order = []

        def counting(kind, fn):
            def wrapped(pts):
                sizes[kind].append(pts.shape[0])
                order.append(kind)
                return fn(pts)
            return wrapped

        planar = dataclasses.replace(
            stream_bump, eval=counting("eval", stream_bump.eval),
            eval_jacobian=counting("jac", stream_bump.eval_jacobian))
        tubes = [one_tube(f, eps, TUBE_BOX, 1.95, seeds_per_axis=8,
                          gauge_constant=0.5)
                 for f in (planar, extruded)]
        for name in ("residual", "bottom_measure", "top_integral",
                     "delta_min", "R_bound", "displacement_margin", "rtol"):
            assert getattr(tubes[0], name) == getattr(tubes[1], name), name
        # each flowed seed's error counts once per copy along x2
        assert tubes[0].ode_error == pytest.approx(tubes[1].ode_error,
                                                   rel=1e-12)
        assert sizes["jac"] and max(sizes["jac"]) <= 8

        # the trajectories flow with the fused call alone: the audit and
        # the top flux make their value calls before the flow starts
        sizes["jac"].clear()
        order.clear()
        _, rows = flow_tubes(planar, eps, TUBE_BOX, 1.95, [], plot_seeds=8)
        assert np.array_equal(rows, flow_tubes(extruded, eps, TUBE_BOX, 1.95,
                                               [], plot_seeds=8)[1])
        assert len(rows) % 64 == 0
        assert sizes["jac"] and max(sizes["jac"]) <= 8
        assert "eval" not in order[order.index("jac"):]

    def test_audit_rejects_missing_divergence(self):
        f = constant_field((0.0, 0.0))
        bare = type(f)(dim=2, eval=f.eval, sup_bound=0.0, name="bare")
        with pytest.raises(ValueError, match="divergence-free"):
            one_tube(bare, 1.0, ((-1.0, 1.0), (-1.0, 1.0)), 1.0)

    def test_audit_rejects_wrong_declared_divergence(self):
        f = constant_field((0.0, 0.0))
        lying = type(f)(dim=2, eval=f.eval, sup_bound=0.0, name="lying",
                        analytic_div=lambda pts: np.ones(pts.shape[0]),
                        eval_jacobian=f.eval_jacobian)
        with pytest.raises(ValueError, match="not zero"):
            one_tube(lying, 1.0, ((-1.0, 1.0), (-1.0, 1.0)), 1.0)

    def test_tube_values_are_unchanged_by_the_fused_field_call(
            self, stream_bump):
        # reprs of the tube before value and Jacobian shared one call
        tube = one_tube(stream_bump, 2.0 * stream_bump.sup_bound,
                        TUBE_BOX, 1.95, seeds_per_axis=16,
                        residual_tol=GATE_AT_RTOL_1E10)
        assert tube.rtol == 1e-10
        assert repr(tube.residual) == "8.99660230563315e-05"
        assert repr(tube.bottom_measure) == "5.999100339769438"
        assert repr(tube.delta_min) == "0.8893836078044807"

    def test_tube_rhs_makes_one_fused_call_and_no_value_call(
            self, stream_bump, monkeypatch):
        calls = {"eval": 0, "jac": 0}
        per_rhs = []

        def counting(kind, fn):
            def wrapped(pts):
                calls[kind] += 1
                return fn(pts)
            return wrapped

        dp_steps = rigidity._ode._dp_steps

        def counting_dp_steps(f, *args, **kwargs):
            def rhs(t, y):
                before = dict(calls)
                out = f(t, y)
                per_rhs.append((calls["jac"] - before["jac"],
                                calls["eval"] - before["eval"]))
                return out
            return dp_steps(rhs, *args, **kwargs)

        monkeypatch.setattr(rigidity._ode, "_dp_steps", counting_dp_steps)
        f = dataclasses.replace(
            stream_bump, eval=counting("eval", stream_bump.eval),
            eval_jacobian=counting("jac", stream_bump.eval_jacobian))
        flow_tubes(f, 2.0 * f.sup_bound, TUBE_BOX, 1.95, [16])
        assert per_rhs and set(per_rhs) == {(1, 0)}
        assert calls["jac"] == len(per_rhs)

    # the height-flow trace tr B = div_h / X_n - (X_h . grad_h X_n) / X_n^2,
    # bit for bit as the einsum expression spelled it; the stream bump's
    # tube only runs the planar case
    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_shear_matches_the_einsum_expression(self, n):
        rng = np.random.default_rng(20 + n)
        m = 4096
        vals = rng.uniform(0.5, 2.0, (m, n)) * rng.choice([-1.0, 1.0], (m, n))
        J = rng.uniform(0.5, 2.0, (m, n, n)) * rng.choice([-1.0, 1.0],
                                                          (m, n, n))
        vals *= 10.0 ** rng.integers(-8, 9, (m, n))
        J *= 10.0 ** rng.integers(-8, 9, (m, n, n))
        xn = vals[:, -1]
        old = (np.einsum("mii->m", J[:, :-1, :-1]) / xn
               - np.einsum("mi,mi->m", vals[:, :-1], J[:, -1, :-1]) / xn**2)
        assert rigidity._trace_shear(vals, J).tobytes() == old.tobytes()

    def test_field_without_jacobian_fails_before_the_flow(self, stream_bump,
                                                          monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow started")

        monkeypatch.setattr(rigidity._ode, "_dp_steps", no_flow)
        bare = dataclasses.replace(stream_bump, eval_jacobian=None)
        with pytest.raises(ValueError, match="no analytic Jacobian"):
            flow_tubes(bare, 0.1, TUBE_BOX, 1.95, [4])

    def test_audit_rejects_field_alive_below_zero(self):
        with pytest.raises(ValueError, match="vanish below"):
            one_tube(constant_field((0.0, 1.0)), 1.0,
                     ((-1.0, 1.0), (-1.0, 1.0)), 1.0)

    def test_audit_rejects_dominated_epsilon(self, stream_bump):
        with pytest.raises(ValueError, match="downdraft"):
            one_tube(stream_bump, 1e-6, TUBE_BOX, 1.95, seeds_per_axis=8)


# ---------------------------------------------------------------------------
# strip balance

class TestStripIdentity:
    def test_above_the_support_everything_vanishes(self, stream_bump):
        # (5, 3) and (2, 1) clear the support: both sides are exactly zero
        # and the L1 cap 2 t sup is pure margin
        for r, t, want_margin in [(5.0, 3.0, 0.3), (2.0, 1.0, 0.1)]:
            rep = strip_identity_2d(stream_bump, r, t)
            by = {c.name: c for c in rep.checks}
            assert by["strip flux identity"].value == 0.0
            assert by["L1 bound on the top flux"].value == 0.0
            assert by["L1 bound on the top flux"].margin == pytest.approx(
                want_margin, rel=1e-12)
            assert rep.verdict == "PASS"

    def test_strip_through_the_support(self, stream_bump):
        rep = strip_identity_2d(stream_bump, 3.0, 1.75)
        by = {c.name: c for c in rep.checks}
        assert abs(by["strip flux identity"].value) <= 1e-12
        assert by["L1 bound on the top flux"].value == pytest.approx(
            0.011518841759435327, rel=1e-6)
        assert by["L1 bound on the top flux"].margin == pytest.approx(
            0.1634811582405647, rel=1e-6)
        assert rep.verdict == "PASS"

    def test_gauge_edge_check_recorded(self, stream_bump):
        rep = strip_identity_2d(stream_bump, 3.0, 1.75, gauge=phi_quadratic)
        by = {c.name: c for c in rep.checks}
        assert by["gauge decay at strip edges"].verdict == "PASS"

    def test_requires_planar_divergence_free(self):
        f = constant_field((0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="planar"):
            strip_identity_2d(f, 1.0, 1.0)

    # a strip of no width or height read PASS with every flux 0.0, and a
    # field on a disk ended in an OutOfDomainError from the quadrature: both
    # are refused before the field is called
    @pytest.mark.parametrize("spec, r, t, message", [
        ("stream:bump", 0.0, 1.0, "must be positive"),
        ("stream:bump", 1.0, 0.0, "must be positive"),
        ("stream:bump", -2.0, 1.0, "must be positive"),
        ("stream:bump", math.nan, 1.0, "must be positive"),
        ("stream:bump", 1.0, math.inf, "must be positive"),
        ("capillary:R=1", 5.0, 3.0, "open disk of radius 1"),
    ], ids=["no-width", "no-height", "negative-width", "nan-width",
            "infinite-height", "disk-field"])
    def test_refused_before_any_field_call(self, spec, r, t, message):
        calls = []
        field = get_field(spec)

        def spy(pts):
            calls.append(len(pts))
            return field.eval(pts)

        with pytest.raises(ValueError, match=message):
            strip_identity_2d(dataclasses.replace(field, eval=spy), r, t)
        assert calls == []

    # a half-width whose width 2r overflows a float sent a NaN node to the
    # field ("non-finite point [nan, 1.0]"); it is refused as an input
    @pytest.mark.parametrize("r", [1e308, 9e307])
    def test_a_strip_too_wide_for_a_float_is_refused(self, r):
        field = stream_bump_field()
        spied = dataclasses.replace(
            field, eval=lambda pts: pytest.fail("evaluated"))
        with pytest.raises(InputError, match="is too wide"):
            strip_identity_2d(spied, r, 1.0)


# ---------------------------------------------------------------------------
# separable profiles

class TestSeparableDemo:
    @pytest.mark.parametrize("gamma,rho0,psi0", [
        (1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (0.5, 2.0, 1.0),
    ])
    def test_blowup_radius_matches_closed_form(self, gamma, rho0, psi0):
        rep = separable_demo(gamma, rho0, psi0)
        assert rep.verdict == "PASS"
        rel = next(c for c in rep.checks
                   if c.name == "numeric blow-up radius vs closed form")
        assert rel.value <= 1e-6
        analytic = next(c for c in rep.checks
                        if c.name == "analytic blow-up radius")
        assert analytic.value == pytest.approx(
            rho0 * math.exp(1.0 / (gamma * psi0)), rel=1e-12)

    def test_slope_cap_breaks_before_blowup(self):
        rep = separable_demo(1.0, 1.0, 1.0)
        cap = next(c for c in rep.checks
                   if c.name == "slope cap breaks before blow-up")
        assert cap.verdict == "PASS"
        assert cap.margin == pytest.approx(1.71828182631539, rel=1e-6)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            separable_demo(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("gamma,rho0,psi0", [
        (1e-3, 1.0, 1e-3), (1e-200, 1.0, 1e-200), (1.0, 1e308, 1e6),
    ], ids=["exp-overflow", "rate-underflow", "horizon-overflow"])
    def test_rejects_a_blowup_radius_beyond_floats(self, gamma, rho0, psi0):
        with pytest.raises(ValueError, match="not a finite float"):
            separable_demo(gamma, rho0, psi0)
