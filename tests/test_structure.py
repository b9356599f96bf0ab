"""Structure guard over the package source: fields, probes and reports
declare their structure, so no module bolts attributes onto frozen
instances, dispatches with hasattr, or keeps an import it never uses; and
every adaptive quadrature and ODE integration stops by one policy, and a
field's Jacobian has one entry point, each written once; one rule decides
every gate; the bump is the one test function, and no probe dispatches on
its type; a report's name, a probe's rows, the stream bump's values and
the input converters each have one home; the eddy pairing takes its
angles from its gate and always reports an estimate; a pairing reads one
bump family and sets no accuracy floor of its own; one cap, kept by the
refinement loop, sizes every quadrature's field call; the 1D Gauss rows
build every 2D integral, and the refinement loop runs three level
functions; no defaulted parameter is a knob that only its default ever
sets; the package imports exactly the third-party distributions it
declares; and no flagless `np.unique` loads `numpy.ma` on the eddy
path."""

import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divlab"


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(tree, path) -> list:
    if path.name == "__init__.py":
        return []  # the package imports names to re-export them
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: unused import {name}"
            for name, line in sorted(imported.items())
            if name not in used | _exported(tree)]


def _nodes(node, kind, where=""):
    """(node, enclosing 'Class.function' path) for every node of type kind
    below node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        if isinstance(child, kind):
            yield child, where
        yield from _nodes(child, kind, inner)


def _bolted_structure(tree, path) -> list:
    out = []
    for call, where in _nodes(tree, ast.Call):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "hasattr":
            out.append(f"{path.name}:{call.lineno}: hasattr dispatch")
        # GridSpec fills in its default spacing while it is constructed
        if (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and where != "GridSpec.__post_init__"):
            out.append(f"{path.name}:{call.lineno}: object.__setattr__ "
                       f"in {where or 'module scope'}")
    return out


def test_structure_is_declared_and_imports_are_used():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        problems += _unused_imports(tree, path) + _bolted_structure(tree, path)
    assert not problems, "\n".join(problems)


# each stopping policy gives up in one place: the one refinement loop of
# `_quad` and the one Dormand-Prince step controller of `_ode`, which alone
# forms the embedded error estimate from the fourth-order weights _B4
_ONE_PLACE = {("QuadratureError", "_quad.py:_refine"),
              ("StiffFailure", "_ode.py:_dp_steps"),
              ("_B4", "_ode.py:_dp_steps")}


def _name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_one_refinement_loop_and_one_step_controller():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, ast.Raise):
            name = _name(node.exc)
            if name in ("QuadratureError", "StiffFailure"):
                found.add((name, f"{path.name}:{where}"))
        for node, where in _nodes(tree, ast.Name):
            if node.id == "_B4" and isinstance(node.ctx, ast.Load):
                found.add(("_B4", f"{path.name}:{where}"))
    assert found == _ONE_PLACE


# every seed level of a flow tube and its plotted paths flow as one batch
# through one entry point, `flow_tubes`; the step controller is driven by
# that batch and by the event integrator alone
def test_one_tube_entry_point_and_two_step_controller_callers():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call, where in _nodes(tree, ast.Call):
            if _name(call) in ("_dp_steps", "_seed_transport"):
                found.add((_name(call), f"{path.name}:{where}"))
        if path.name == "rigidity.py":
            tube_names = {name for name in _exported(tree)
                          if "tube" in name.lower()}
    assert found == {("_dp_steps", "rigidity.py:_seed_transport"),
                     ("_dp_steps", "_ode.py:rk45_event"),
                     ("_seed_transport", "rigidity.py:flow_tubes")}
    assert tube_names == {"FlowTube", "flow_tubes"}


# a field declares its Jacobian only through `eval_jacobian`, which returns
# the values too; the bump profile's second derivative has one home,
# `bump_derivatives`, which shares exp(-1/g) with the first derivative and
# is read only by the stream bump's fused gradient-and-Hessian pass
def test_one_jacobian_entry_point():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "analytic_jacobian" in text:
            found.add(("analytic_jacobian", path.name))
        tree = ast.parse(text, filename=str(path))
        for node, where in _nodes(tree, ast.Name):
            if node.id in ("bump_derivatives", "bump_d2") or (
                    node.id == "bump_d1" and where.endswith("evj")):
                found.add((node.id, f"{path.name}:{where}"))
        for node, where in _nodes(tree, ast.FunctionDef):
            if node.name == "bump_d2":
                found.add(("def bump_d2", f"{path.name}:{where}"))
    assert found == {
        ("bump_derivatives", "fields.py:stream_bump_field.evj")}


# a test function gives its gradient only together with its values, through
# `value_and_gradient`, since every pairing integrand reads both at the same
# nodes; the profile's value-and-slope pass has one home, `bump_with_d1`,
# read by the bump test alone (the stream bump's values come from its
# Jacobian pass), and there is no lone slope `bump_d1` (the profile's peaks
# are closed forms)
def test_one_value_and_gradient_pass():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, (ast.FunctionDef, ast.AnnAssign,
                                         ast.Attribute, ast.keyword,
                                         ast.Name)):
            where = f"{path.name}:{where or '<module>'}"
            if isinstance(node, ast.FunctionDef):
                name = f"def {node.name}"
            elif isinstance(node, ast.AnnAssign):
                name = f"field {_name(node.target)}"
            elif isinstance(node, ast.keyword):
                name = f"keyword {node.arg}"
            else:
                name = _name(node)
            if name.split(" ")[-1] == "gradient" or name in (
                    "def bump_with_d1", "bump_with_d1", "bump_d1"):
                found.add((name, where))
    assert found == {
        ("def bump_with_d1", "fields.py:<module>"),
        ("bump_with_d1", "calculus.py:BumpTest.value_and_gradient")}


# the bump is the one test function: one class provides `value_and_gradient`,
# no probe dispatches on the type of a test function or a region, and the
# general Gauss-Green residual, its constant test function and the disk
# region that only tests reached are neither defined nor read
def test_one_test_function_and_no_type_dispatch():
    providers, dispatch, gone = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, _ in _nodes(tree, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "value_and_gradient") or (
                        isinstance(item, ast.AnnAssign)
                        and _name(item.target) == "value_and_gradient"):
                    providers.add(f"{path.name}:{node.name}")
        for call, where in _nodes(tree, ast.Call):
            if _name(call) == "isinstance" and {
                    _name(arg) for arg in ast.walk(call)} & {
                    "BumpTest", "ScalarTest", "RectRegion"}:
                dispatch.append(f"{path.name}:{call.lineno} in {where}")
        for node in ast.walk(tree):
            # a read, an import (alias) or a definition of a deleted name
            if {_name(node), getattr(node, "name", None)} & {
                    "gauss_green_residual", "constant_test", "DiskRegion"}:
                gone.append(f"{path.name}:{node.lineno}")
    assert providers == {"calculus.py:BumpTest"}
    assert not dispatch, "\n".join(dispatch)
    assert not gone, "\n".join(gone)


# a field's disk is declared once, as `VectorField.disk`, and `rescale`
# maps it and the eddy stack into the zoom: no module reads a second
# declaration, no probe redoes the zoom from the blow-up's base field, and
# no trace probe masks the disk inside a quadrature (only the deviation
# densities test membership, to count points outside as deviating)
def test_the_disk_is_declared_once():
    stale, base, contains = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, ast.Attribute):
            if node.attr in ("domain", "domain_label", "disk_radius"):
                stale.append(f"{path.name}:{node.lineno} .{node.attr}")
            if (path.name == "blowup.py" and node.attr == "base"
                    and where.split(".")[0] in ("_halfspace_lhs",
                                                "_off_interface_div_mass")):
                base.append(f"{path.name}:{node.lineno} in {where}")
            if path.name == "trace.py" and node.attr == "contains":
                contains.add(where)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "_disk_radius", path.name
                if node.name == "_eddy_pairings":
                    params = {a.arg for a in node.args.args
                              + node.args.kwonlyargs}
                    assert not params & {"x0", "scale"}, params
    assert not stale, "\n".join(stale)
    assert not base, "\n".join(base)
    assert contains == {"deviation_densities"}


# a sampled gate's error is computed in one place: SAMPLING_Z is read only
# by `trace.sampling_error`; every probe at an interface point enters through
# `OrientedInterface.frame`, so the per-module gate, planar-point and
# on-interface checks are neither defined nor read; and every caller of the
# lattice passes its round size, so no default cloud is left to drift
_ENTRY_COPIES = {"_sampled_side", "_planar_center", "require_on"}


def test_one_sampled_gate_one_entry_check_one_round_size():
    reads, copies, lattice = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, (ast.Name, ast.Attribute)):
            if _name(node) == "SAMPLING_Z" and isinstance(node.ctx,
                                                          ast.Load):
                reads.add(f"{path.name}:{where}")
        for node in ast.walk(tree):
            names = {_name(node), getattr(node, "name", None)}
            copies += [f"{path.name}:{node.lineno} {name}"
                       for name in names & _ENTRY_COPIES]
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "_lattice_disk":
                lattice.append(([a.arg for a in node.args.args],
                                len(node.args.defaults)))
    assert reads == {"trace.py:sampling_error"}
    assert not copies, "\n".join(copies)
    assert lattice == [(["seed", "n", "theta0"], 0)]


# every gate is decided by one rule, `report._gate`, with its error term:
# outside report.py a verdict constant reaches `CheckResult(...)` only where
# the aplim status maps onto its check, and the gate readers it replaced
# (the sampled verdict, the density value check) are neither defined nor
# read
_VERDICTS = {"PASS", "FAIL", "INCONCLUSIVE", "INFO", "SKIPPED"}
_FOLDED_GATES = {"sampled_verdict", "_density_value_check"}


def test_one_gate_rule():
    handmade, folded = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id == "CheckResult"):
                continue
            args = node.args + [k.value for k in node.keywords]
            if any((_name(n) or getattr(n, "value", None)) in _VERDICTS
                   for arg in args for n in ast.walk(arg)):
                handmade.add(f"{path.name}:{where}")
        for node in ast.walk(tree):
            names = {_name(node), getattr(node, "name", None)}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            folded += [f"{path.name}:{node.lineno} {name}"
                       for name in names & _FOLDED_GATES]
    assert {w for w in handmade if not w.startswith("report.py:")} \
        == {"trace.py:one_sided_ap_lim"}
    assert not folded, "\n".join(folded)


# each field has one constructor that builds it, and its consumers call
# the field directly: the flow adds the lift epsilon e_n in its own
# right-hand side, the capillary's evaluator tests its disk itself, and an
# interface hands the curvilinear probe its arc length, so no pass-through
# builder, domain-check method or interface kind is defined or read
_FOLDED = {"lifted_field", "make_stream_field", "elliptic_bump_stream",
           "check_domain", "field kind", "field orientation_sign"}


def test_one_constructor_per_field():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            # a definition, import, read or __all__ entry of a callable
            names = {_name(node), getattr(node, "name", None)}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            # a declaration, keyword or attribute read of an interface
            # field; a local variable may still be called kind
            if isinstance(node, ast.AnnAssign):
                names.add(f"field {_name(node.target)}")
            elif isinstance(node, ast.keyword):
                names.add(f"field {node.arg}")
            elif isinstance(node, ast.Attribute):
                names.add(f"field {node.attr}")
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names & _FOLDED]
    assert not found, "\n".join(found)


# each thing is written once: `cli.run` alone names a report (the echo of
# its scenario), so no report built outside cli.py is handed `scenario=`;
# the registry and the CLI share one set of input converters, so the
# registry's own `_checked` and `_positive` are gone; a probe's table rows
# are zipped from its tuples, so no probe record has a `rows` method; and
# the stream bump's values come from its Jacobian pass, so neither its
# value-only `ev` nor `_ROTATE_SIGNS` is defined or read
_SECOND_COPIES = {"_checked", "_positive", "_ROTATE_SIGNS"}


def test_each_thing_written_once():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, ast.AST):
            names = {_name(node), getattr(node, "name", None)}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names & _SECOND_COPIES]
            if (isinstance(node, ast.keyword) and node.arg == "scenario"
                    and path.name != "cli.py"):
                found.append(f"{path.name}:{node.value.lineno} scenario= "
                             f"in {where}")
            if isinstance(node, ast.FunctionDef) and (
                    (node.name == "rows" and where in ("TraceProbe",
                                                       "DensityProbe"))
                    or (node.name == "ev" and where == "stream_bump_field")):
                found.append(f"{path.name}:{node.lineno} {where}.{node.name}")
            if isinstance(node, ast.Call) and _name(node) == "rows":
                found.append(f"{path.name}:{node.lineno} rows() in {where}")
    assert not found, "\n".join(found)


# the eddy pairing doubles its angles until its gate is met: no fixed
# angular-order table is left, `_eddy_pairings` takes a tolerance per test
# function and no order callable, and `_halfspace_lhs` always returns an
# estimate, so no caller tests it for None
def test_eddy_pairing_takes_its_angles_from_its_gate():
    names, params, returns, none_reads = set(), {}, "", []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names |= {_name(node), getattr(node, "name", None)}
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "_eddy_pairings":
                params = {a.arg: ast.unparse(a.annotation)
                          for a in node.args.args + node.args.kwonlyargs}
            if node.name == "_halfspace_lhs":
                returns = ast.unparse(node.returns)
            if any(_name(call) == "_halfspace_lhs"
                   for call in ast.walk(node) if isinstance(call, ast.Call)):
                none_reads += [
                    f"{path.name}:{cmp.lineno} {ast.unparse(cmp)}"
                    for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
                    and "estimate" in ast.unparse(cmp)
                    and "None" in ast.unparse(cmp.comparators)]
    assert "_patch_angular_order" not in names
    assert list(params) == ["eddies", "field", "psi_family", "atol"]
    assert not any("Callable" in note for note in params.values()), params
    assert returns == "tuple[list[float], float]"
    assert not none_reads, "\n".join(none_reads)


# a pairing integrates over its bumps' supports and takes its accuracy
# from its caller: no rectangle region, ball containment test or second
# family check is left, `calculus.bump_family` is the one place that
# refuses a family of mixed radii or heights, and `weak_trace_pairing`
# sets no floor of its own
_PAIRING_LEFTOVERS = {"RectRegion", "_balls_inside", "_common_bump"}


def test_pairings_share_one_bump_family_and_no_floor():
    gone, refusals, floor = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, ast.AST):
            if {_name(node), getattr(node, "name", None)} & _PAIRING_LEFTOVERS:
                gone.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Raise) \
                    and "one radius and height" in ast.unparse(node):
                refusals.append(f"{path.name}:{where}")
            if where.split(".")[0] == "weak_trace_pairing" \
                    and _name(node) in ("PROBE_RTOL", "sup_bound"):
                floor.append(f"{path.name}:{node.lineno} {_name(node)}")
    assert not gone, "\n".join(gone)
    assert refusals == ["calculus.py:bump_family"]
    assert not floor, "\n".join(floor)


# one rule sizes a field call: `_quad._refine` hands each level's open rows
# over in calls of at most MAX_CALL_NODES nodes and caps a row at
# MAX_LEVEL_NODES; only `mollify`, whose convolution is no quadrature
# level, reads the call cap too.  The eddy pairing's own batch is neither
# defined nor read, and no module sizes its blocks with a literal of its own
_HAND_SIZES = {"2 ** 23", "1 << 19", "256 ** 2"}


def test_one_field_call_cap():
    defined, reads, literals = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, where in _nodes(tree, (ast.Name, ast.Attribute,
                                         ast.BinOp)):
            if isinstance(node, ast.BinOp):
                if path.name != "_quad.py" and ast.unparse(node) \
                        in _HAND_SIZES:
                    literals.append(f"{path.name}:{node.lineno} "
                                    f"{ast.unparse(node)}")
                continue
            name = _name(node)
            if name not in ("_EDDY_EVAL_BATCH", "MAX_LEVEL_NODES",
                            "MAX_CALL_NODES"):
                continue
            if isinstance(node.ctx, ast.Store):
                defined.add((name, f"{path.name}:{where or '<module>'}"))
            else:
                reads.add((name, path.name if path.name == "_quad.py"
                           else f"{path.name}:{where}"))
    assert defined == {("MAX_LEVEL_NODES", "_quad.py:<module>"),
                       ("MAX_CALL_NODES", "_quad.py:<module>")}
    assert reads == {("MAX_LEVEL_NODES", "_quad.py"),
                     ("MAX_CALL_NODES", "_quad.py"),
                     ("MAX_CALL_NODES", "calculus.py:mollify")}
    assert not literals, "\n".join(literals)


# the 1D Gauss rows are the one building block of every 1D and 2D
# integral: `_quad._refine` runs three level functions (the Gauss rows,
# the ball rows and the eddy rows), the tensor 2D rule, the circle
# trapezoid and the annulus region with its residual are neither defined
# nor read, and no module outside `_quad` nests the rows by hand by
# handing a quadrature a function that itself calls `adaptive_gauss_rows`
_ONE_OFF_RULES = {"adaptive_gauss_2d", "adaptive_circle", "AnnulusRegion",
                  "flux_residual"}
_QUADRATURES = {"adaptive_gauss_rows", "adaptive_gauss_1d",
                "adaptive_gauss_nested", "adaptive_ball_rows", "_refine"}


def _calls(node, name) -> bool:
    return any(isinstance(call, ast.Call) and _name(call) == name
               for call in ast.walk(node))


def test_three_level_functions_and_no_hand_nested_rows():
    refine, gone, nested = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nesting = {fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and _calls(fn, "adaptive_gauss_rows")}
        for node, where in _nodes(tree, ast.AST):
            if {_name(node), getattr(node, "name", None)} & _ONE_OFF_RULES:
                gone.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.Call):
                continue
            if _name(node) == "_refine":
                refine.add(f"{path.name}:{where}")
            if path.name == "_quad.py" or _name(node) not in _QUADRATURES:
                continue
            for arg in node.args + [k.value for k in node.keywords]:
                if (isinstance(arg, ast.Lambda)
                        and _calls(arg, "adaptive_gauss_rows")) or (
                        isinstance(arg, ast.Name) and arg.id in nesting):
                    nested.append(f"{path.name}:{arg.lineno} in {where}")
    assert refine == {"_quad.py:adaptive_gauss_rows",
                      "_quad.py:adaptive_ball_rows",
                      "trace.py:_eddy_pairings"}
    assert not gone, "\n".join(gone)
    assert not nested, "\n".join(nested)


# a probe takes the plain values it reads: the blow-up takes the field,
# the point and the radii, and builds each zoom itself; a gauge is a plain
# callable; and a probe record declares no field that nothing reads
_PASS_THROUGH = {"BlowupSequence", "blowup_sequence", "PhiFunction"}
_UNREAD_RECORD_FIELDS = {"TraceProbe": {"x0", "method", "quad_tol"},
                         "DensityProbe": {"center"}}


def test_probes_take_plain_inputs_and_keep_only_what_they_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            # a definition, import, read or __all__ entry
            names = {_name(node), getattr(node, "name", None)}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names & _PASS_THROUGH]
            if isinstance(node, ast.ClassDef) and node.name in \
                    _UNREAD_RECORD_FIELDS:
                declared = {_name(item.target) for item in node.body
                            if isinstance(item, ast.AnnAssign)}
                found += [f"{path.name}:{node.lineno} {node.name}.{field}"
                          for field in sorted(
                              declared & _UNREAD_RECORD_FIELDS[node.name])]
    assert not found, "\n".join(found)


# a defaulted parameter that no call in the package sets is a knob with one
# value: it becomes a constant.  These few are set only by tests, which cap
# the refinement and step budgets, pass a gauge or drive the CLI in-process
_TEST_ONLY_KNOBS = {
    ("_ode.py", "rk45_event", "max_steps"),
    ("rigidity.py", "strip_identity_2d", "gauge"),
    ("cli.py", "main", "argv"),
}


def _defaulted_parameters(tree, path):
    """(file, function, parameter, position in a call or None) for every
    defaulted parameter of a module-level function or method; a method's
    positions skip `self` or `cls`, and `__init__` is called by its class
    name.  Nested closures are not visited."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node, node.name, 0)]
        elif isinstance(node, ast.ClassDef):
            defs = [(fn, node.name if fn.name == "__init__" else fn.name,
                     0 if any(_name(d) == "staticmethod"
                              for d in fn.decorator_list) else 1)
                    for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for fn, called_as, bound in defs:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(path.name, called_as, a.arg, i - bound)
                    for i, a in enumerate(positional) if i >= first]
            out += [(path.name, called_as, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
    return out


def test_every_defaulted_parameter_has_a_src_caller():
    params, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        params += _defaulted_parameters(tree, path)
        for call, _ in _nodes(tree, ast.Call):
            starred = any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords)
            calls.setdefault(_name(call), []).append(
                (math.inf if starred else len(call.args),
                 {k.arg for k in call.keywords}))
    unset = {(path, fn, arg) for path, fn, arg, pos in params
             if not any(arg in keywords or (pos is not None and pos < npos)
                        for npos, keywords in calls.get(fn, ()))}
    assert unset == _TEST_ONLY_KNOBS


# the declared dependencies are exactly the third-party packages `src/`
# imports, and importing the CLI loads no scipy: a stray import would cost
# every process start about a second
def test_declared_dependencies_are_exactly_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def test_importing_the_cli_loads_no_scipy():
    # numpy.random and numpy.polynomial load lazily; the package imports
    # them itself, so their cost lands in the import, not in a first call
    code = ("import json, sys, divlab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m in "
            "('numpy.random', 'numpy.polynomial.legendre'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert json.loads(out.stdout) == ["numpy.polynomial.legendre",
                                      "numpy.random"]


# on numpy 2.4, np.unique called without return_index, return_inverse or
# return_counts asks np.ma.is_masked, and np.ma loads lazily: the first such
# call imports numpy.ma, 11-19 ms.  The package takes distinct values
# through a sorted set instead
_UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}


def test_no_flagless_unique():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call, _ in _nodes(tree, ast.Call):
            if _name(call) == "unique" and not _UNIQUE_FLAGS & {
                    k.arg for k in call.keywords}:
                found.append(f"{path.name}:{call.lineno}")
    assert not found, "flagless np.unique at " + ", ".join(found)


def test_eddy_pairing_recipe_loads_no_numpy_ma():
    # a fresh process: another test may have imported numpy.ma already
    code = ("import sys; from divlab import cli; "
            "code = cli.main(cli.RECIPES['twisting-pairing']['argv']); "
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stderr.split() == ["0", "False"]
