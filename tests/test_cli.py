"""Command-line contract: exit codes, catalog, outputs, config precedence."""

import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib

import numpy as np
import pytest

from divlab import _ode, _quad, cli, rigidity, trace
from divlab.blowup import PAIRING_SHARE, nalpha_density
from divlab.cli import (
    RECIPES, Scenario, UsageError, build_parser, main, _scenario_from_args,
)
from divlab.fields import make_capillary_field, stream_bump_field
from divlab.report import FAIL, INCONCLUSIVE, PASS
from divlab.rigidity import flow_tubes
from divlab.trace import _tail_fit, circle_interface

from conftest import GATE_AT_RTOL_1E10, rim_lens_ratio

ROOT = pathlib.Path(__file__).resolve().parents[1]


# every recipe's resolved scenario: defaults, types and the tolerance split
GOLDEN_ECHOES = {
    'certify-counterexample':
        '{"field":"counterexample:n=4:gamma=auto","name":"certify",'
        '"operation":"certify","params":{"c":1.0,"expect":"certified",'
        '"fd_points":1000,"fd_step":0.0001,"field_checks":true,'
        '"resolution":200,"seed":null},"tolerances":{"fd_tol":1e-06,'
        '"margin_tol":1e-12,"speed_tol":1e-12}}',
    'gamma-violation':
        '{"field":"counterexample:n=4:gamma=1","name":"certify",'
        '"operation":"certify","params":{"c":1.0,"expect":"violated",'
        '"fd_points":1000,"fd_step":0.0001,"field_checks":true,'
        '"resolution":200,"seed":null},"tolerances":{"fd_tol":1e-06,'
        '"margin_tol":1e-12,"speed_tol":1e-12}}',
    'flow-tube-stream-bump':
        '{"field":"stream:bump","name":"flow-tube","operation":"flow-tube",'
        '"params":{"box":"-2.7,3.3;0,1","epsilon":null,"gauge_constant":null,'
        '"h0":1.95,"plot_seeds":6,"refine":true,"refine_factor":4.0,'
        '"seeds":64},"tolerances":{"residual_tol":1e-06}}',
    'strip-identity-stream-bump':
        '{"field":"stream:bump","name":"strip-identity",'
        '"operation":"strip-identity","params":{"at":["5,3","2,1"]},'
        '"tolerances":{}}',
    'twisting-pairing':
        '{"field":"twisting:levels=8","name":"trace","operation":"trace",'
        '"params":{"bump_radius":0.125,"bumps":10,"expect":"none",'
        '"interface":"auto","method":"pairing","omega":"unit-square",'
        '"radii":"auto","rho":0.2,"seed":null,"value":0.0,'
        '"x0":"0,0"},"tolerances":{"gap":0.01,"pairing_tol":1e-06,'
        '"value_tol":0.01}}',
    'twisting-oscillation':
        '{"field":"twisting:levels=12","name":"trace","operation":"trace",'
        '"params":{"bump_radius":0.125,"bumps":10,"expect":"oscillating",'
        '"interface":"auto","method":"ball","omega":"unit-square",'
        '"radii":"auto","rho":0.2,"seed":null,"value":0.0,'
        '"x0":"0.3333333333333333,0"},"tolerances":{"gap":0.01,'
        '"pairing_tol":1e-06,"value_tol":0.01}}',
    'twisting-aplim':
        '{"field":"twisting:levels=8","name":"aplim","operation":"aplim",'
        '"params":{"alphas":"0.5","expect":"rejected","interface":"auto",'
        '"radii":"auto","samples":100000,"seed":null,"w":"0,0",'
        '"x0":"0.3333333333333333,0"},"tolerances":{"eps_density":0.01}}',
    'capillary-verticality':
        '{"field":"capillary:R=1","name":"trace","operation":"trace",'
        '"params":{"bump_radius":0.125,"bumps":10,"expect":"value",'
        '"interface":"auto","method":"all","omega":"unit-square",'
        '"radii":"auto","rho":0.1,"seed":null,"value":1.0,'
        '"x0":"1,0"},"tolerances":{"gap":0.01,"pairing_tol":1e-06,'
        '"value_tol":0.01}}',
    'capillary-aplim':
        '{"field":"capillary:R=1","name":"aplim","operation":"aplim",'
        '"params":{"alphas":"0.2,0.1,0.05","expect":"confirmed",'
        '"interface":"auto","radii":"auto","samples":100000,"seed":null,'
        '"w":"nu","x0":"1,0"},"tolerances":{"eps_density":0.01}}',
    'capillary-nalpha':
        '{"field":"capillary:R=1","name":"nalpha","operation":"nalpha",'
        '"params":{"alpha":0.2,"interface":"auto","radii":"auto",'
        '"samples":100000,"seed":null,"x0":"1,0"},'
        '"tolerances":{"ratio_tol":0.01}}',
    'twisting-blowup':
        '{"field":"twisting:levels=8","name":"blowup","operation":"blowup",'
        '"params":{"interface":"auto","radii":"auto","rtol":1e-08,'
        '"trace_value":null,"x0":"0.5,0"},"tolerances":{"final_tol":0.01}}',
    'jensen-mollification':
        '{"field":"","name":"demo-jensen","operation":"demo-jensen",'
        '"params":{"dim":2,"epsilon":0.05,"fd_step":0.0001,"grid_n":21,'
        '"seed":null},"tolerances":{"div_tol":1e-06,"jensen_tol":1e-06}}',
    'separable-blowup':
        '{"field":"","name":"demo-separable","operation":"demo-separable",'
        '"params":{"gamma":1.0,"psi0":1.0,"rho0":1.0},"tolerances":{}}',
    'quadratic-inequality':
        '{"field":"","name":"demo-quadratic","operation":"demo-quadratic",'
        '"params":{"dim":2,"samples":10000,"seed":null},'
        '"tolerances":{"margin_tol":1e-12}}',
    'potential-roundtrip':
        '{"field":"","name":"demo-roundtrip","operation":"demo-roundtrip",'
        '"params":{"gamma":"auto","n":4,"resolution":50},'
        '"tolerances":{"field_tol":1e-12,"potential_tol":1e-08}}',
}


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes

class TestExitCodes:
    # the parser is built once per operation per process: a usage error on
    # a later call still exits 2, and one parse's repeated flags do not
    # reach the next
    def test_parser_is_built_once_per_process(self, capsys):
        build_parser.cache_clear()
        code, _, _ = run_main(["flow-tube", "--seeds", "4", "--help"],
                              capsys)
        assert code == 0
        code, _, err = run_main(["flow-tube", "--seeds", "0"], capsys)
        assert code == 2 and "--seeds" in err
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        parser = build_parser()
        argv = ["strip-identity", "--at", "1,1"]
        assert parser.parse_args(argv + ["--at", "2,2"]).at == ["1,1", "2,2"]
        assert parser.parse_args(argv).at == ["1,1"]
        assert parser.parse_args(["strip-identity"]).at is None

    # a call builds only its operation's parser, but help and an unknown
    # operation get the full one, which names every operation
    def test_help_and_unknown_operation_name_every_operation(self, capsys):
        commands = {"demo" if op.startswith("demo-") else op
                    for op in cli._OPERATIONS} | {"list"}
        topics = {op[len("demo-"):] for op in cli._OPERATIONS
                  if op.startswith("demo-")}
        code, out, _ = run_main(["--help"], capsys)
        assert code == 0
        listed = out[out.index("{") + 1:out.index("}")].split(",")
        assert sorted(listed) == sorted(commands)
        code, _, err = run_main(["bogus"], capsys)
        assert code == 2 and "invalid choice: 'bogus'" in err
        assert all(f"'{c}'" in err for c in commands)
        code, _, err = run_main(["demo", "bogus"], capsys)
        assert code == 2 and all(f"'{t}'" in err for t in topics)

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_main([], capsys)
        assert code == 2

    @pytest.mark.parametrize("field,message", [
        ("bogus:thing", "unknown field"),
        ("twisting:levels=8:level=3", "bad part 'level=3'"),
        ("stream:bump:xyz", "bad part 'xyz'"),
        ("constant:c=1,2:foo=3", "bad part 'foo=3'"),
        ("capillary:R=nan", "'nan' is not a finite number"),
        ("zero:dim=0", "0 is outside [1, 64]"),
        ("twisting:levels=14", "14 is outside [1, 13]"),
        ("counterexample:n=65", "65 is outside [4, 64]"),
        ("zero:dim=65", "65 is outside [1, 64]"),
    ], ids=["unknown-kind", "unknown-key", "stray-word", "stray-key",
            "nan-value", "out-of-range", "too-many-levels",
            "too-many-dimensions", "too-many-zero-dimensions"])
    def test_unknown_field_is_usage_error(self, capsys, field, message):
        code, _, err = run_main(["trace", "--field", field], capsys)
        assert code == 2
        assert "divlab: error:" in err and message in err

    def test_non_finite_gamma_is_usage_error(self, capsys):
        code, out, err = run_main(
            ["certify", "--field", "counterexample:n=4:gamma=nan"], capsys)
        assert code == 2
        assert "'nan' is not a finite number" in err and "PASS" not in out

    # out-of-range counts are turned away by the same converter step,
    # before anything is allocated
    @pytest.mark.parametrize("argv,message", [
        (["certify", "--margin-tol", "nan", "--no-field-checks"],
         "invalid nonnegative_float value"),
        (["demo", "separable", "--gamma", "inf"], "invalid finite_float value"),
        (["flow-tube", "--h0", "nan", "--seeds", "4"],
         "invalid positive_float value"),
        (["certify", "--fd-points", "2000000000"],
         r"--fd-points: invalid integer in \[1, 100000\]"),
        (["flow-tube", "--seeds", "0"],
         r"--seeds: invalid integer in \[1, 256\]"),
        (["flow-tube", "--plot-seeds", "-1"],
         r"--plot-seeds: invalid integer in \[1, 64\]"),
    ], ids=["nan-tolerance", "inf-parameter", "nan-height", "huge-fd-points",
            "zero-seeds", "negative-plot-seeds"])
    def test_non_finite_number_is_usage_error(self, argv, message):
        with pytest.raises(UsageError, match=message):
            build_parser().parse_args(argv)

    # a count outside its range is turned away before the run starts; at
    # these values a run ended as an execution FAIL, or (no bumps) as a
    # PASS that checked nothing
    @pytest.mark.parametrize("argv,flag", [
        (["trace", "--method", "pairing", "--bumps", "0"], "--bumps"),
        (["certify", "--resolution", "0", "--no-field-checks"],
         "--resolution"),
        (["demo", "jensen", "--grid-n", "0"], "--grid-n"),
        (["demo", "jensen", "--dim", "1"], "--dim"),
        (["demo", "quadratic", "--samples", "0"], "--samples"),
        (["demo", "quadratic", "--dim", "0"], "--dim"),
        (["demo", "roundtrip", "--n", "3"], "--n"),
    ], ids=["zero-bumps", "zero-resolution", "zero-grid-n", "jensen-dim-1",
            "zero-samples", "quadratic-dim-0", "roundtrip-n-3"])
    def test_out_of_range_count_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert f"argument {flag}: invalid integer in" in err
        assert "verdict" not in out

    # at these values a run PASSed having checked nothing (the tube of
    # height <= 0 has residual 0) or
    # failed for the wrong reason (negative pairing tolerances, a NaN
    # divergence, a negative deviation level that every sample exceeds)
    @pytest.mark.parametrize("argv,flag", [
        (["flow-tube", "--h0", "-1"], "--h0"),
        (["flow-tube", "--h0", "0"], "--h0"),
        (["trace", "--method", "pairing", "--bump-radius", "-0.1"],
         "--bump-radius"),
        (["certify", "--fd-step", "0"], "--fd-step"),
        (["nalpha", "--alpha", "-1", "--samples", "100"], "--alpha"),
    ], ids=["negative-height", "zero-height", "negative-bump-radius",
            "zero-fd-step", "negative-alpha"])
    def test_non_positive_parameter_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert f"argument {flag}: invalid positive_float value" in err
        assert "verdict" not in out

    # a negative tolerance made its gate vacuous (`--gap -5` PASSed the
    # ball subsequence gap with margin 5.01 whatever the estimates; the gap
    # is a lower bound, so 0 is vacuous too), and a final or pairing
    # tolerance of 0 or less leaves its pairing no budget
    @pytest.mark.parametrize("argv,message", [
        (["trace", "--field", "capillary:R=1", "--method", "ball",
          "--x0", "1,0", "--expect", "oscillating", "--gap", "-5"],
         "argument --gap: invalid positive_float value"),
        (["trace", "--field", "capillary:R=1", "--method", "ball",
          "--x0", "1,0", "--expect", "oscillating", "--gap", "0"],
         "argument --gap: invalid positive_float value"),
        (["certify", "--margin-tol", "-1", "--no-field-checks"],
         "argument --margin-tol: invalid nonnegative_float value"),
        (["blowup", "--field", "capillary:R=1", "--x0", "1,0",
          "--final-tol", "0"],
         "argument --final-tol: invalid positive_float value"),
        (["blowup", "--field", "capillary:R=1", "--x0", "1,0",
          "--final-tol", "-1"],
         "argument --final-tol: invalid positive_float value"),
        (["trace", "--method", "pairing", "--pairing-tol", "0"],
         "argument --pairing-tol: invalid positive_float value"),
    ], ids=["negative-gap", "zero-gap", "negative-margin-tol",
            "zero-final-tol", "negative-final-tol", "zero-pairing-tol"])
    def test_tolerance_that_voids_its_gate_is_usage_error(self, capsys, argv,
                                                          message):
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert message in err
        assert "execution" not in out and "verdict" not in out

    @pytest.mark.parametrize("argv", [
        ["flow-tube", "--epsilon", "0"],
        ["flow-tube", "--refine-factor", "-4"],
        ["flow-tube", "--residual-tol", "0"],
        ["flow-tube", "--gauge-constant", "0"],
        ["trace", "--rho", "0"],
        ["blowup", "--rtol", "0"],
        ["demo", "jensen", "--epsilon", "-0.05"],
        ["demo", "jensen", "--fd-step", "0"],
        ["nalpha", "--alpha", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_every_positive_parameter_rejects_zero_or_less(self, argv):
        with pytest.raises(UsageError, match="invalid positive_float value"):
            build_parser().parse_args(argv)

    # a seed box the tube cannot take is refused before any seed grid is
    # allocated; both ended as an execution FAIL (exit 1), and the 3D box
    # asked for 256^3 + 512^3 seeds, about 100 GB
    @pytest.mark.parametrize("argv", [
        ["flow-tube", "--field", "zero:dim=3", "--box=0,1"],
        ["flow-tube", "--field", "zero:dim=4", "--box=0,1;0,1;0,1",
         "--seeds", "256", "--refine"],
    ], ids=["box-below-the-field", "three-dimensional-box"])
    def test_unusable_seed_box_is_usage_error(self, capsys, monkeypatch,
                                              argv):
        def no_grid(*args, **kwargs):
            raise AssertionError("a seed grid was allocated")

        monkeypatch.setattr(_quad, "midpoint_grid", no_grid)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert "seed box of dimension" in err
        assert "verdict" not in out

    # the flow's budget divides by the residual gate: a gate of zero or
    # less is refused before any flow (both ran the whole flow and ended
    # as a FAIL, exit 1); the flow's own rtol is gone with its flag, and so
    # are the rtols of the trace probes and the strip identity, which
    # integrate at `trace.PROBE_RTOL` and `rigidity.STRIP_RTOL`
    @pytest.mark.parametrize("argv, message", [
        (["flow-tube", "--seeds", "4", "--residual-tol", "0"],
         "argument --residual-tol: invalid positive_float value"),
        (["flow-tube", "--seeds", "4", "--residual-tol", "-1"],
         "argument --residual-tol: invalid positive_float value"),
        (["flow-tube", "--seeds", "4", "--rtol", "1e-8"],
         "unrecognized arguments: --rtol 1e-8"),
        (["trace", "--rtol", "1e-9"], "unrecognized arguments: --rtol 1e-9"),
        (["strip-identity", "--rtol", "1e-10"],
         "unrecognized arguments: --rtol 1e-10"),
    ], ids=["zero-gate", "negative-gate", "removed-rtol",
            "removed-trace-rtol", "removed-strip-rtol"])
    def test_tube_gate_is_checked_before_the_flow(self, capsys, monkeypatch,
                                                  argv, message):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow started")

        monkeypatch.setattr(_ode, "_dp_steps", no_flow)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert message in err
        assert "verdict" not in out

    # inputs that ended as an execution FAIL (exit 1), or as a PASS or FAIL
    # on a strip of no width or height, are refused before any field call:
    # a pairing region with one or three sides ("not enough" or "too many
    # values to unpack"), an amplitude past the radial-slope bound, a strip
    # location that is not positive, a strip for a field that lives on a
    # disk (the strip leaves it), and a curvilinear rectangle wider than
    # the curvature scale
    @pytest.mark.parametrize("argv,message", [
        (["trace", "--field", "twisting:levels=3", "--method", "pairing",
          "--omega", "0,1", "--bumps", "1"],
         "needs two sides"),
        (["trace", "--field", "twisting:levels=3", "--method", "pairing",
          "--omega", "0,1;0,1;0,1", "--bumps", "1"],
         "needs two sides"),
        (["demo", "roundtrip", "--gamma", "5"],
         "exceeds the radial-slope bound"),
        (["strip-identity", "--at", "0,1"], "must be positive"),
        (["strip-identity", "--at", "5,0"], "must be positive"),
        (["strip-identity", "--at", "2,1", "--at", "5,-3"],
         "must be positive"),
        (["strip-identity", "--field", "capillary:R=1"],
         "lives on the open disk of radius 1"),
        (["trace", "--field", "capillary:R=1", "--method", "curvilinear",
          "--x0", "1,0", "--rho", "5"],
         "curvilinear rectangle does not embed"),
    ], ids=["one-sided-region", "three-sided-region", "roundtrip-gamma",
            "zero-width-strip", "zero-height-strip", "negative-height-strip",
            "disk-field-strip", "wide-curvilinear"])
    def test_unusable_input_is_refused_before_any_field_call(
            self, capsys, monkeypatch, argv, message):
        calls = []
        resolve_field = cli._resolve_field

        def spied_field(spec):
            field = resolve_field(spec)

            def ev(pts):
                calls.append(len(pts))
                return field.eval(pts)
            return dataclasses.replace(field, eval=ev)

        monkeypatch.setattr(cli, "_resolve_field", spied_field)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert message in err
        assert "verdict" not in out and calls == []

    # a field or lift the flow tube's audit refuses is a usage error too,
    # also refused before any seed grid is allocated; each ended as an
    # execution FAIL (exit 1)
    @pytest.mark.parametrize("argv, message", [
        (["flow-tube", "--epsilon", "1e-6", "--seeds", "4"],
         "epsilon 1e-06 does not dominate the sampled downdraft 8.482e-03"),
        (["flow-tube", "--field", "capillary:R=1", "--seeds", "4"],
         "field's declared divergence is not zero"),
        (["flow-tube", "--field", "constant:c=0,1", "--epsilon", "1",
          "--seeds", "4"],
         "field does not vanish below height zero"),
    ], ids=["dominated-epsilon", "divergent-field", "alive-below-zero"])
    def test_refused_tube_field_is_usage_error(self, capsys, monkeypatch,
                                               argv, message):
        def no_grid(*args, **kwargs):
            raise AssertionError("a seed grid was allocated")

        monkeypatch.setattr(_quad, "midpoint_grid", no_grid)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert message in err
        assert "verdict" not in out

    def test_tube_field_without_divergence_is_usage_error(self, capsys,
                                                          monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a seed grid was allocated")

        bare = dataclasses.replace(stream_bump_field(), analytic_div=None)
        monkeypatch.setattr(cli, "_resolve_field", lambda spec: bare)
        monkeypatch.setattr(_quad, "midpoint_grid", no_grid)
        code, out, err = run_main(["flow-tube", "--seeds", "4"], capsys)
        assert code == 2
        assert "needs a certified divergence-free field" in err
        assert "verdict" not in out

    # the transport needs an analytic Jacobian; a field without one ended as
    # an execution FAIL (exit 1) after the top-flux quadrature had run
    def test_tube_field_without_jacobian_is_usage_error(self, capsys,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the tube started its numerics")

        monkeypatch.setattr(_quad, "adaptive_gauss_1d", no_work)
        monkeypatch.setattr(_quad, "midpoint_grid", no_work)
        code, out, err = run_main(["flow-tube", "--field", "twisting:levels=2",
                                   "--seeds", "4"], capsys)
        assert code == 2
        assert "twisting:levels=2 has no analytic Jacobian" in err
        assert "verdict" not in out

    # a probe radius sequence must be positive and strictly decreasing;
    # a negative radius ended as an execution FAIL (exit 1)
    @pytest.mark.parametrize("radii", ["0.1,-0.1", "0.1,0.2"])
    def test_bad_radii_are_usage_errors(self, capsys, radii):
        code, out, err = run_main(["trace", "--field", "capillary:R=1",
                                   "--x0", "1,0", "--radii", radii], capsys)
        assert code == 2
        assert "radii must be positive and strictly decreasing" in err
        assert "verdict" not in out

    # the same for each entry of a deviation-level list
    @pytest.mark.parametrize("alphas", ["0.5,-0.1", "0"])
    def test_non_positive_deviation_levels_are_usage_errors(self, capsys,
                                                            alphas):
        code, out, err = run_main(["aplim", "--alphas", alphas,
                                   "--samples", "100"], capsys)
        assert code == 2
        assert "deviation levels must be positive" in err
        assert "verdict" not in out

    # a list parameter is bounded like a count: 3,000 radii or 500 alphas
    # ran, each a full lattice cloud; one entry past MAX_LIST_LENGTH is a
    # usage error before any field call, and MAX_LIST_LENGTH itself runs
    @pytest.mark.parametrize("argv", [
        lambda n: ["aplim", "--field", "capillary:R=1", "--x0", "1,0",
                   "--w", "nu", "--alphas", ",".join(["0.1"] * n),
                   "--samples", "1"],
        lambda n: ["nalpha", "--field", "capillary:R=1", "--samples", "1",
                   "--radii", ",".join(repr(2.0 ** -k) for k in range(n))],
        lambda n: ["strip-identity", "--field", "stream:bump",
                   *["--at", "2,1"] * n],
    ], ids=["alphas", "radii", "strip-locations"])
    def test_a_list_past_its_cap_is_refused_before_any_field_call(
            self, capsys, monkeypatch, argv):
        calls = []
        resolve_field = cli._resolve_field

        def spied_field(spec):
            field = resolve_field(spec)

            def ev(pts):
                calls.append(len(pts))
                return field.eval(pts)
            return dataclasses.replace(field, eval=ev)

        monkeypatch.setattr(cli, "_resolve_field", spied_field)
        code, out, err = run_main(argv(cli.MAX_LIST_LENGTH + 1), capsys)
        assert code == 2
        assert f"{cli.MAX_LIST_LENGTH + 1} " in err
        assert f"at most {cli.MAX_LIST_LENGTH}" in err
        assert "verdict" not in out and calls == []
        code, out, _ = run_main(argv(cli.MAX_LIST_LENGTH), capsys)
        assert code in (0, 1) and "verdict" in out and calls

    def test_density_radii_past_the_cap_draw_no_lattice(self, capsys,
                                                         monkeypatch):
        def no_lattice(*args, **kwargs):
            raise AssertionError("the lattice was drawn")

        monkeypatch.setattr(cli, "density", no_lattice)
        radii = ",".join(repr(2.0 ** -k)
                         for k in range(cli.MAX_LIST_LENGTH + 1))
        code, out, err = run_main(["density", "--x0", "1,0", "--samples",
                                   "1", "--radii", radii], capsys)
        assert code == 2 and "at most" in err and "verdict" not in out

    # an aplim check demoted to INFO (the scenario asserts the overall
    # classification) keeps its sampling error
    def test_demoted_aplim_check_keeps_its_error(self, tmp_path, capsys,
                                                 monkeypatch):
        reports = []
        ap_lim = cli.one_sided_ap_lim

        def kept(*args, **kwargs):
            rep = ap_lim(*args, **kwargs)
            reports.append((rep, list(rep.checks)))
            return rep

        monkeypatch.setattr(cli, "one_sided_ap_lim", kept)
        run_main(["aplim", "--field", "twisting:levels=8", "--x0",
                  "0.3333333333333333,0", "--alphas", "0.5", "--samples",
                  "2000", "--expect", "rejected", "--out", str(tmp_path),
                  "--name", "a"], capsys)
        check = json.loads((tmp_path / "a.json").read_text())["checks"][0]
        (rep, checks), = reports
        gated = {c.name: c for c in checks}[check["name"]]
        assert check["verdict"] == "INFO" != gated.verdict
        assert check["error"] == gated.error > 0.0
        assert gated.error == trace.SAMPLING_Z * rep.probes[0][1].theta_stderr

    def test_blowup_radius_beyond_floats_is_usage_error(self, capsys):
        code, out, err = run_main(["demo", "separable", "--gamma", "1e-3",
                                   "--rho0", "1", "--psi0", "1e-3"], capsys)
        assert code == 2
        assert "not a finite float" in err and "FAIL" not in out

    # interfaces share the field registry's grammar: an unknown word or
    # key, or a repeated key, is turned away instead of ignored
    @pytest.mark.parametrize("spec,message", [
        ("circle:R=1:inwards", "bad part 'inwards'"),
        ("line:orign=5,5:bogus", "bad part 'orign=5,5'"),
        ("circle:R=1:R=7", "bad part 'R=7'"),
    ], ids=["unknown-word", "unknown-key", "repeated-key"])
    def test_malformed_interface_is_usage_error(self, capsys, spec, message):
        code, out, err = run_main(["trace", "--field", "capillary:R=1",
                                   "--x0", "1,0", "--interface", spec],
                                  capsys)
        assert code == 2
        assert "divlab: error:" in err and message in err
        assert "verdict" not in out

    # every probe at a point of the interface refuses a point off it as a
    # usage error, before any computation, not as a failed execution
    @pytest.mark.parametrize("argv", [
        ["trace", "--method", "all"],
        ["aplim", "--w", "nu"],
        ["nalpha"],
        ["blowup"],
    ], ids=["trace", "aplim", "nalpha", "blowup"])
    def test_point_off_the_interface_is_usage_error(self, capsys, argv):
        code, out, err = run_main(argv + ["--field", "capillary:R=1",
                                          "--x0", "0.5,0"], capsys)
        assert code == 2
        assert "from the interface" in err
        assert "execution" not in out and "verdict" not in out

    # the interface probes are planar: a 3D or 4D field is refused at the
    # entry check, not left to a numpy broadcast error in the probe
    @pytest.mark.parametrize("argv", [
        ["trace", "--field", "counterexample:n=4", "--method", "ball"],
        ["trace", "--field", "stream:bump:3d", "--method", "all"],
        ["aplim", "--field", "counterexample:n=4"],
        ["nalpha", "--field", "stream:bump:3d"],
        ["blowup", "--field", "counterexample:n=4"],
    ], ids=["trace-ball", "trace-all", "aplim", "nalpha", "blowup"])
    def test_non_planar_field_is_usage_error(self, capsys, argv):
        code, out, err = run_main(argv + ["--x0", "0,0"], capsys)
        assert code == 2
        assert "planar" in err and "verdict" not in out

    def test_non_planar_pairing_is_usage_error(self, capsys):
        code, out, err = run_main(["trace", "--field", "zero:dim=3",
                                   "--method", "pairing"], capsys)
        assert code == 2
        assert "planar" in err and "verdict" not in out

    # the lens average's closed form holds only at a rim point with a
    # radial normal; here it read -1.00002 (true average -0.5 off the rim).
    # Like every input check that refuses before any field call, the rim
    # check is a usage error
    @pytest.mark.parametrize("x0,interface", [
        ("0.5,0", "line:origin=0.5,0:dir=0,1"),
        ("1,0", "line:origin=1,0:dir=1,1"),
    ], ids=["off-rim", "tilted-normal"])
    def test_lens_average_refuses_a_point_it_cannot_read(self, capsys, x0,
                                                         interface):
        code, out, err = run_main(
            ["trace", "--field", "capillary:R=1", "--method", "ball",
             "--x0", x0, "--interface", interface, "--expect", "value",
             "--value", "-1"], capsys)
        assert code == 2
        assert "PASS" not in out and "rim point" in err

    # the sphere flux and the rim blow-up integrate on the -nu side, so an
    # inward rim normal would send them outside the disk: both refuse it,
    # as a usage error, before the field is evaluated (it ended on the
    # field's OutOfDomainError); the lens average reads either sign
    @pytest.mark.parametrize("argv", [
        ["trace", "--method", "flux"],
        ["blowup", "--radii", "0.25,0.125"],
    ], ids=["flux", "blowup"])
    def test_inward_rim_normal_is_refused_before_any_field_call(
            self, capsys, monkeypatch, argv):
        calls = []
        resolve_field = cli._resolve_field

        def spied_field(spec):
            field = resolve_field(spec)

            def ev(pts):
                calls.append(len(pts))
                return field.eval(pts)
            return dataclasses.replace(field, eval=ev, eval_jacobian=None)

        monkeypatch.setattr(cli, "_resolve_field", spied_field)
        code, out, err = run_main(
            argv + ["--field", "capillary:R=1", "--x0", "1,0", "--interface",
                    "circle:center=0,0:R=1:inward"], capsys)
        assert code == 2
        assert "is the inward normal of the disk" in err
        assert "PASS" not in out and "OutOfDomainError" not in out
        assert calls == []

    # the deviation densities need no rim: an interior point stays a probe
    def test_interior_aplim_still_passes(self, capsys):
        code, out, _ = run_main(
            ["aplim", "--field", "capillary:R=1", "--x0", "0.5,0",
             "--interface", "line:origin=0.5,0:dir=0,1", "--w", "0.5,0",
             "--alphas", "0.1"], capsys)
        assert code == 0
        assert out.strip().endswith("verdict: PASS")

    # only the counterexample declares a cylindrical potential; any other
    # field is refused by its kind, before it is built
    def test_certify_refuses_a_field_without_a_potential(self, capsys,
                                                         monkeypatch):
        def no_build(field_id):
            raise AssertionError(f"built {field_id}")

        monkeypatch.setattr(cli, "_resolve_field", no_build)
        code, out, err = run_main(["certify", "--field", "capillary:R=1"],
                                  capsys)
        assert code == 2
        assert "carries no cylindrical potential to certify" in err
        assert "verdict" not in out

    # the 4D default grid would need 9.4e9 field evaluations
    def test_unbounded_jensen_grid_is_usage_error(self, capsys):
        code, out, err = run_main(["demo", "jensen", "--dim", "4"], capsys)
        assert code == 2
        assert "field evaluations" in err and "verdict" not in out

    def test_non_finite_point_is_usage_error(self, capsys):
        code, _, err = run_main(["nalpha", "--x0", "inf,0"], capsys)
        assert code == 2
        assert "malformed x0" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_main(["certify", "--bogus"], capsys)
        assert code == 2

    def test_density_needs_a_domain_restricted_field(self, capsys):
        code, _, err = run_main(["density", "--field", "stream:bump"],
                                capsys)
        assert code == 2
        assert "domain-restricted" in err

    def test_density_probes_are_planar(self, capsys):
        code, _, err = run_main(["density", "--x0", "1,0,0"], capsys)
        assert code == 2
        assert "x0 needs 2 comma-separated values" in err

    def test_failed_check_exits_one(self, capsys):
        code, out, _ = run_main(
            ["trace", "--field", "stream:bump", "--expect", "value",
             "--value", "0.5", "--value-tol", "1e-6"], capsys)
        assert code == 1
        assert out.strip().endswith("verdict: FAIL")

    def test_passing_run_exits_zero(self, capsys):
        code, out, _ = run_main(["demo", "separable"], capsys)
        assert code == 0
        assert out.strip().endswith("verdict: PASS")

    def test_run_with_only_info_checks_is_inconclusive(self, capsys):
        code, out, _ = run_main(["trace", "--field", "capillary:R=1",
                                 "--x0", "1,0", "--radii", "0.25,0.125"],
                                capsys)
        assert code == 1
        assert "PASS" not in out
        assert out.strip().endswith("verdict: INCONCLUSIVE")

    # an INFO-only diagnostic whose quadrature fails is SKIPPED; it does
    # not turn the whole run into an execution FAIL
    @pytest.mark.parametrize("argv,gated", [
        (["blowup", "--field", "twisting:levels=8", "--x0", "0.25,0"],
         "PASS     half-space pairing defect, final"),
        (["blowup", "--field", "capillary:R=1", "--x0", "1,0",
          "--radii", "1,0.5,0.25", "--rtol", "1e-6"],
         "PASS     half-space pairing defect, final"),
    ], ids=["blowup-flux-diagnostic", "blowup-off-interface-mass"])
    def test_failed_diagnostic_is_skipped(self, capsys, argv, gated):
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert gated in out
        assert "execution" not in out
        assert "SKIPPED" in out and "failed to converge" in out


    def test_library_failure_is_an_execution_fail(self, tmp_path, capsys,
                                                  monkeypatch):
        def broken(sc):
            raise RuntimeError("boom")

        op = cli._OPERATIONS["demo-separable"]
        monkeypatch.setitem(cli._OPERATIONS, "demo-separable",
                            dataclasses.replace(op, handler=broken))
        out = tmp_path / "run"
        code, printed, _ = run_main(["demo", "separable", "--out", str(out),
                                     "--name", "x"], capsys)
        assert code == 1
        assert "FAIL     execution" in printed
        assert "RuntimeError: boom" in printed
        rep = json.loads((out / "x.json").read_text())
        assert rep["verdict"] == "FAIL"
        assert [c["name"] for c in rep["checks"]] == ["execution"]


# ---------------------------------------------------------------------------
# operations and parameters past the usage checks

class TestOperations:
    # the pairing takes its quadrature budget from its gate: each check
    # carries its achieved estimate as its error, within the gate's share,
    # and its detail states it
    def test_pairing_checks_carry_their_estimates(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_main(RECIPES["twisting-pairing"]["argv"]
                              + ["--out", str(out), "--name", "p"], capsys)
        assert code == 0
        checks = json.loads((out / "p.json").read_text())["checks"]
        assert any(c["error"] > 0.0 for c in checks)
        for c in checks:
            assert c["error"] <= PAIRING_SHARE * c["tolerance"]
            assert c["detail"].endswith(
                f"quadrature estimate {c['error']!r}")

    # rule 4: one 2D rule over this region failed to converge (an
    # execution FAIL, exit 1); each bump's own ball samples the bump
    def test_pairing_over_a_wide_region_passes(self, capsys):
        code, out, _ = run_main(["trace", "--field", "stream:bump",
                                 "--method", "pairing",
                                 "--omega=-2.5,2.5;0.5,2.5"], capsys)
        assert code == 0
        assert out.strip().endswith("verdict: PASS")

    # the trace probes have no rtol of their own: the sphere flux integrates
    # every radius at the one probe tolerance
    def test_flux_quadrature_runs_at_the_probe_rtol(self, capsys,
                                                    monkeypatch):
        seen = []
        library = _quad.adaptive_gauss_1d

        def spy(*args, **kwargs):
            seen.append(kwargs["rtol"])
            return library(*args, **kwargs)

        monkeypatch.setattr(_quad, "adaptive_gauss_1d", spy)
        code, out, _ = run_main(["trace", "--field", "capillary:R=1",
                                 "--method", "flux", "--x0", "1,0"], capsys)
        assert "flux estimate at" in out
        assert code == 1 and len(seen) == len(cli.DEFAULT_RADII)
        assert set(seen) == {trace.PROBE_RTOL} == {1e-9}

    # the flow tube has no rtol of its own: the flow runs at the share of
    # the residual gate, ODE_SHARE * tau / (ODE_ERROR_GROWTH * |top|)
    @pytest.mark.parametrize("tau", [1e-4, 1e-6])
    def test_budgeted_rtol_reaches_the_step_controller(self, tmp_path, capsys,
                                                       monkeypatch, tau):
        seen = []
        dp_steps = _ode._dp_steps

        def spy(rhs, t0, y0, t1, rtol, *args):
            seen.append(rtol)
            return dp_steps(rhs, t0, y0, t1, rtol, *args)

        monkeypatch.setattr(_ode, "_dp_steps", spy)
        code, _, _ = run_main(["flow-tube", "--seeds", "4", "--plot-seeds",
                               "2", "--residual-tol", repr(tau), "--out",
                               str(tmp_path), "--name", "t"], capsys)
        rep = json.loads((tmp_path / "t.json").read_text())
        checks = {c["name"]: c for c in rep["checks"]}
        top = checks["top integral"]["value"]
        want = rigidity.ODE_SHARE * tau / (rigidity.ODE_ERROR_GROWTH * top)
        assert code == 1   # a 4^2 tube is far outside either gate
        assert seen == [want]
        assert checks["ODE relative tolerance"]["value"] == want
        gate = checks["transport identity residual"]
        assert gate["error"] > 0.0
        assert f"ODE error bound {gate['error']!r} against the share " \
            f"{rigidity.ODE_SHARE:g} of the gate: " \
            f"{rigidity.ODE_SHARE * tau!r}" in gate["detail"]

    # the coarse, refined and plotted seed grids flow as one batch: one
    # integration, where three flows one after another took 9,303 rhs
    # calls; at one rtol the batch moves no level's residual by more than
    # 1e-11 from the same level flowed alone
    def test_refined_tube_flows_once(self, tmp_path, capsys, monkeypatch):
        flows, rhs_calls = [], []
        dp_steps = _ode._dp_steps

        def counting_dp_steps(rhs, *args):
            def counted(t, y):
                rhs_calls.append(t)
                return rhs(t, y)
            flows.append(args)
            return dp_steps(counted, *args)

        monkeypatch.setattr(_ode, "_dp_steps", counting_dp_steps)
        code, _, _ = run_main(
            ["flow-tube", "--field", "stream:bump", "--h0", "1.95",
             "--seeds", "32", "--refine", "--residual-tol", "1e-4",
             "--out", str(tmp_path), "--name", "tube"], capsys)
        assert code == 0
        assert len(flows) == 1 and len(rhs_calls) < 4000
        lines = (tmp_path / "tube-residuals.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [32, 64]

        monkeypatch.setattr(_ode, "_dp_steps", dp_steps)
        f = stream_bump_field()
        args = (f, 2.0 * f.sup_bound, [(-2.7, 3.3), (0.0, 1.0)], 1.95)
        fused, _ = flow_tubes(*args, [32, 64], plot_seeds=6,
                              residual_tol=GATE_AT_RTOL_1E10)
        for tube in fused:
            alone = flow_tubes(*args, [tube.seeds_per_axis],
                               residual_tol=GATE_AT_RTOL_1E10)[0][0]
            assert tube.rtol == alone.rtol == 1e-10
            assert abs(tube.residual - alone.residual) <= 1e-11, \
                tube.seeds_per_axis

    def test_density_of_the_disk_at_its_rim(self, capsys):
        code, out, _ = run_main(["density", "--field", "capillary:R=1",
                                 "--x0", "1,0", "--expect", "value",
                                 "--value", "0.5", "--samples", "20000"],
                                capsys)
        assert code == 0
        # the exact ratios A(r)/(pi r^2) of the rim lens extrapolate to
        # 0.50000002; at 20,000 samples the lattice estimate stays within
        # 2e-4 of that (at most 1e-4 over 20 seeds)
        radii = list(cli.DEFAULT_RADII)
        exact = _tail_fit(radii, [rim_lens_ratio(r) for r in radii])[0]
        line = "INFO     extrapolated density  value=0.499914843"
        assert line in out
        assert abs(float(line.rsplit("=", 1)[1]) - exact) <= 2e-4
        assert out.strip().endswith("verdict: PASS")

    @pytest.mark.parametrize("value_tol,verdict,want", [
        # theta lies 5.12e-05, half its stderr of 1.0e-4, inside the bound:
        # a confident PASS before the gate read the sampling error
        ("0.00013638844740950678", "INCONCLUSIVE", 1),
        ("0.01", "PASS", 0),
    ])
    def test_density_value_gate_reads_the_sampling_error(
            self, value_tol, verdict, want, capsys):
        code, out, _ = run_main(["density", "--field", "capillary:R=1",
                                 "--x0", "1,0", "--samples", "20000",
                                 "--expect", "value", "--value", "0.5",
                                 "--value-tol", value_tol], capsys)
        assert code == want
        assert f"{verdict:8s} density matches expected value" in out
        assert "theta stderr 0.0001" in out
        assert out.strip().endswith(f"verdict: {verdict}")

    def test_density_value_far_outside_its_bounds_fails(
            self, tmp_path, capsys, monkeypatch):
        # SAMPLING_Z = 6 stderrs of 1e-5 outside either bound 0.5 -/+ 1e-3
        # is a FAIL, that far inside both a PASS; within them, undecided
        density = cli.density

        def pinned(*args, **kwargs):
            return dataclasses.replace(density(*args, **kwargs),
                                       theta=theta, theta_stderr=1e-5)

        monkeypatch.setattr(cli, "density", pinned)
        for theta, verdict in [(0.45, FAIL), (0.4989, FAIL),
                               (0.49895, INCONCLUSIVE),
                               (0.49905, INCONCLUSIVE), (0.5, PASS),
                               (0.50095, INCONCLUSIVE), (0.5012, FAIL)]:
            run_main(["density", "--x0", "1,0", "--samples", "1000",
                      "--expect", "value", "--value", "0.5", "--value-tol",
                      "1e-3", "--out", str(tmp_path), "--name", "d"], capsys)
            check = json.loads((tmp_path / "d.json").read_text())["checks"][-1]
            assert check["name"] == "density matches expected value"
            assert check["verdict"] == verdict, theta
            assert check["margin"] == 1e-3 - abs(theta - 0.5)
            assert check["error"] == trace.SAMPLING_Z * 1e-5

    def test_nalpha_gate_within_the_sampling_error_is_inconclusive(
            self, capsys):
        # a tolerance two standard errors above the finest ratio passes it
        # from the point estimate alone: the report must not PASS
        S = circle_interface((0.0, 0.0), 1.0, outward=True)
        probe = nalpha_density(make_capillary_field(1.0), S, (1.0, 0.0), 0.2,
                               cli.DEFAULT_RADII, samples=20000,
                               seed=cli.DEFAULT_SEED)
        tol = probe.ratios[-1] + 2.0 * probe.stderrs[-1]
        code, out, _ = run_main(["nalpha", "--samples", "20000",
                                 "--ratio-tol", repr(tol)], capsys)
        assert code == 1
        assert "INCONCLUSIVE deviation ratio at the finest radius" in out
        assert out.strip().endswith("verdict: INCONCLUSIVE")

    # --samples is a ceiling for the gated probes: every call of the
    # sampling workload resolves its gates in the first lattice round, with
    # one field pass per radius (and one normalization audit for nalpha)
    def test_sampling_workload_stops_in_the_first_round(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        rounds, evals = [], []
        lattice_disk, resolve_field = trace._lattice_disk, cli._resolve_field

        def spied_lattice_disk(*args):
            rounds.append(args[1])
            return lattice_disk(*args)

        def spied_field(field_id):
            field = resolve_field(field_id)

            def ev(pts):
                evals.append(pts.shape[0])
                return field.eval(pts)

            return dataclasses.replace(field, eval=ev)

        monkeypatch.setattr(trace, "_lattice_disk", spied_lattice_disk)
        monkeypatch.setattr(cli, "_resolve_field", spied_field)
        for seed in (1, 2, 3):
            for op in workloads.inputs("sampling", seed).ops:
                rounds.clear()
                evals.clear()
                code, _, _ = run_main([*op.argv, "--out", str(tmp_path),
                                       "--name", op.name], capsys)
                assert code == 0, op.name
                assert rounds == [trace.FIRST_ROUND], op.name
                audit = 1 if op.argv[0] == "nalpha" else 0
                assert len(evals) == len(cli.DEFAULT_RADII) + audit, op.name
                rep = json.loads((tmp_path / f"{op.name}.json").read_text())
                gated = [c for c in rep["checks"]
                         if c["verdict"] in ("PASS", "FAIL")
                         and c["name"].startswith("deviation")]
                for c in gated:
                    assert ("3948 points drawn per radius, 3948 in the "
                            "final round, ceiling 185472") in c["detail"]

    def test_samples_help_states_ceiling_and_exact_count(self, capsys):
        for op in ("aplim", "nalpha", "density"):
            code, out, _ = run_main([op, "--help"], capsys)
            assert code == 0
            text = " ".join(out.split())
            assert ("the exact count for density, a ceiling for aplim and "
                    "nalpha") in text

    def test_interface_grammar_builds_the_circle(self, capsys):
        base = ["trace", "--field", "capillary:R=1", "--x0", "1,0",
                "--expect", "value", "--value", "1"]
        auto = run_main(base, capsys)
        circle = run_main(base + ["--interface", "circle:center=0,0:R=1"],
                          capsys)
        assert circle == auto and auto[0] == 0
        code, out, _ = run_main(
            base + ["--interface", "circle:center=0,0:R=1:inward"], capsys)
        assert code == 1

        def estimates(text):
            return [line.split("value=")[1] for line in text.splitlines()
                    if line.startswith("INFO     ball estimate")]

        flipped = estimates(out)
        assert flipped and flipped == ["-" + e for e in estimates(auto[1])]


# ---------------------------------------------------------------------------
# recipe catalog

class TestCatalog:
    def test_list_names_every_recipe(self, capsys):
        code, out, _ = run_main(["list"], capsys)
        assert code == 0
        for name in RECIPES:
            assert name in out

    def test_list_json_shape(self, capsys):
        code, out, _ = run_main(["list", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 15
        names = [entry["name"] for entry in payload]
        assert len(set(names)) == 15
        for entry in payload:
            assert set(entry) == {"name", "description", "argv"}
            assert entry["argv"] and isinstance(entry["argv"], list)

    def test_every_recipe_argv_parses_into_a_scenario(self):
        parser = build_parser()
        assert set(RECIPES) == set(GOLDEN_ECHOES)
        for name, recipe in RECIPES.items():
            args = parser.parse_args(recipe["argv"])
            sc = _scenario_from_args(args)
            assert sc.echo() == GOLDEN_ECHOES[name], name

    def test_unknown_operation_rejected(self):
        with pytest.raises(UsageError, match="unknown operation"):
            Scenario(name="x", field="", operation="nope", params={})


# ---------------------------------------------------------------------------
# report and table outputs

class TestOutputs:
    def test_out_dir_gets_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_main(["strip-identity", "--out", str(out),
                               "--name", "s1"], capsys)
        assert code == 0
        rep = json.loads((out / "s1.json").read_text())
        assert set(rep) == {"checks", "environment", "scenario",
                            "timestamp", "verdict"}
        assert rep["verdict"] == "PASS"
        assert rep["environment"]["seed"] == 20260819
        assert rep["environment"]["precision"] == "float64"

        csv_path = out / "s1-checks.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,t,check,value,margin,verdict"
        # floats are written with repr so they reparse exactly
        first = lines[1].split(",")
        assert float(first[0]) == 5.0

    def test_csv_writes_numpy_scalars_like_floats(self, tmp_path):
        # numpy 2 spells repr(np.float64(0.1)) as 'np.float64(0.1)'
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["a", "b", "c"],
                       [[np.float64(0.1), 0.1, np.float64(1e-300)]])
        assert path.read_text().splitlines() == ["a,b,c", "0.1,0.1,1e-300"]

    # a float table is spelled once per distinct value and column, keyed on
    # the bits; the bytes are those csv writes for the table's Python floats
    def test_csv_writes_a_float_array_like_its_list(self, tmp_path):
        col = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16,
               1e-5, 0.1, 0.0, -0.0, 0.1, 1e16, math.nan, -5e-324]
        table = np.array([col, col[::-1], [1.0 / 3.0] * len(col)]).T
        table[3, 2] = -table[3, 2]
        header = ["a", "b", "c"]
        got, want = tmp_path / "array.csv", tmp_path / "list.csv"
        cli._write_csv(str(got), header, table)
        with open(want, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table.tolist())
        assert got.read_bytes() == want.read_bytes()
        assert got.read_text().splitlines()[1] == (
            "-0.0,-5e-324,0.3333333333333333")

    def test_reports_identical_up_to_timestamp(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_main(["strip-identity", "--out", str(a), "--name", "r"], capsys)
        run_main(["strip-identity", "--out", str(b), "--name", "r"], capsys)
        ra = json.loads((a / "r.json").read_text())
        rb = json.loads((b / "r.json").read_text())
        ra.pop("timestamp"), rb.pop("timestamp")
        assert ra == rb

    def test_scenario_echo_is_replayable_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_main(["demo", "separable", "--gamma", "2", "--out", str(out),
                  "--name", "sep"], capsys)
        rep = json.loads((out / "sep.json").read_text())
        echo = json.loads(rep["scenario"])
        assert echo["operation"] == "demo-separable"
        assert echo["name"] == "sep"
        assert echo["params"]["gamma"] == 2.0

    def test_seed_override_recorded(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_main(["demo", "quadratic", "--samples", "500",
                               "--seed", "7", "--out", str(out),
                               "--name", "q"], capsys)
        assert code == 0
        rep = json.loads((out / "q.json").read_text())
        assert rep["environment"]["seed"] == 7


# ---------------------------------------------------------------------------
# config files

class TestConfig:
    def test_cli_flags_beat_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 2.0}))
        out = tmp_path / "run"
        run_main(["demo", "separable", "--config", str(cfg),
                  "--gamma", "0.5", "--out", str(out), "--name", "s"],
                 capsys)
        rep = json.loads((out / "s.json").read_text())
        assert json.loads(rep["scenario"])["params"]["gamma"] == 0.5

    def test_config_beats_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 2.0}))
        out = tmp_path / "run"
        run_main(["demo", "separable", "--config", str(cfg),
                  "--out", str(out), "--name", "s"], capsys)
        rep = json.loads((out / "s.json").read_text())
        assert json.loads(rep["scenario"])["params"]["gamma"] == 2.0

    # the removed rtols are refused as config keys too
    @pytest.mark.parametrize("operation", ["trace", "strip-identity"])
    def test_removed_rtol_config_key_is_usage_error(self, tmp_path, capsys,
                                                    operation):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rtol": 1e-9}))
        code, out, err = run_main([operation, "--config", str(cfg)], capsys)
        assert code == 2
        assert "rtol" in err and "verdict" not in out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_main(["demo", "separable", "--config", str(cfg)],
                                capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("argv,config", [
        (["demo", "separable"], {"gamma": "abc"}),
        (["flow-tube"], {"seeds": 2.5}),
        (["flow-tube"], {"seeds": 0}),
        (["trace", "--method", "pairing"], {"bumps": 0}),
        (["certify", "--no-field-checks"], {"resolution": 0}),
        (["demo", "jensen"], {"grid_n": 0}),
        (["demo", "quadratic"], {"samples": 0}),
        (["flow-tube"], {"h0": 0}),
        (["strip-identity"], {"at": "5,3"}),
        (["trace", "--method", "pairing"], {"bump_radius": -0.1}),
        (["certify", "--no-field-checks"], {"fd_step": 0}),
    ])
    def test_config_value_converted_like_a_flag(self, tmp_path, capsys,
                                                argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_main(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert f"config value {next(iter(config))}=" in err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_main(
            ["demo", "separable", "--config", str(tmp_path / "missing.json")],
            capsys)
        assert code == 2
        assert "cannot read config" in err

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_main(["demo", "separable", "--config", str(cfg)],
                                capsys)
        assert code == 2
        assert "JSON object" in err


# ---------------------------------------------------------------------------
# printed report format

class TestPrinting:
    def test_checks_print_value_tolerance_margin(self, capsys):
        code, out, _ = run_main(["demo", "separable"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("PASS") and "tol=" in line
                   for line in lines)
        assert any(line.startswith("INFO") for line in lines)
        assert lines[-1] == "verdict: PASS"
