"""Spans around calls into divlab's modules, recorded from outside.

`install` replaces module attributes with wrappers that record one span
(name, start, end, parent, work) per call.  Each name is patched where it
is looked up: `cli` imports most library functions by name, and `blowup`
imports `density` and `weak_trace_ball_average` from `trace`, so those
bindings are replaced as well as the defining module's.  Functions or
modules the program no longer has are skipped, and their metrics read 0.

Fields built through the registry are rebuilt with counting `eval` and
`analytic_jacobian` callables.  Attributes set on the original instance
after construction (`balls`, `disk_radius`, `potential`, ...) are copied
over, because `trace`, `blowup` and `cli` dispatch on them.

Integrands handed to the adaptive quadratures and right-hand sides handed
to the ODE integrators get spans named after the module that defined
them, so that time spent in, say, the blow-up integrand counts for
`blowup`, and `_quad` and `_ode` keep only their own bookkeeping.  Their
layers are named `quad` and `ode`, because a metric name may not start
with "_".

`layer_metrics` derives the per-layer numbers from the recorded spans: a
span's self time is its duration minus its children's durations, so the
self times of all spans plus the gaps between top-level spans add up to
the traced wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

import numpy as np

MODULES = ("fields", "_quad", "_ode", "rigidity", "trace", "blowup",
           "calculus", "cli")
# metric names may not start with "_": module _quad is layer quad
LAYERS = tuple(m.lstrip("_") for m in MODULES)

_ADAPTIVE = {"adaptive_gauss_1d": "quad.adaptive_1d",
             "adaptive_gauss_2d": "quad.adaptive_2d",
             "adaptive_ball_quad": "quad.ball"}
_INTEGRATORS = {"rk45": "ode.rk45", "rk45_event": "ode.rk45_event"}
_FIELD_CONSTRUCTORS = ("get_field", "make_counterexample_field",
                   "stream_bump_field", "constant_field",
                   "potential_to_field")
# (span name, defining module, function, other modules that import it)
_CALLS = (
    ("rigidity.build_flow_tube", "rigidity", "build_flow_tube", ("cli",)),
    ("rigidity.trajectories", "rigidity", "flow_tube_trajectories",
     ("cli",)),
    ("rigidity.certify_potential", "rigidity", "certify_potential",
     ("cli",)),
    ("rigidity.strip_identity", "rigidity", "strip_identity_2d", ("cli",)),
    ("rigidity.separable_demo", "rigidity", "separable_demo", ("cli",)),
    ("trace.density", "trace", "density", ("cli", "blowup")),
    ("trace.sobol", "trace", "_sobol_ball", ()),
    ("trace.probe", "trace", "one_sided_ap_lim", ("cli",)),
    ("trace.probe", "trace", "weak_trace_ball_average", ("cli", "blowup")),
    ("trace.probe", "trace", "weak_trace_curvilinear", ("cli",)),
    ("trace.probe", "trace", "weak_trace_pairing", ("cli",)),
    ("trace.probe", "trace", "weak_trace_sphere_flux", ("cli",)),
    ("blowup.consistency", "blowup", "blowup_trace_consistency", ("cli",)),
    ("blowup.sequence", "blowup", "blowup_sequence", ("cli",)),
    ("blowup.nalpha", "blowup", "nalpha_density", ("cli",)),
    ("blowup.quadratic", "blowup", "quadratic_inequality_check", ("cli",)),
    ("calculus.make_mollifier", "calculus", "make_mollifier", ("cli",)),
    ("calculus.mollify", "calculus", "mollify", ("cli",)),
    ("calculus.jensen_check", "calculus", "jensen_check", ("cli",)),
    ("calculus.numeric_divergence", "calculus", "numeric_divergence",
     ("cli",)),
)


def _module(name: str):
    try:
        return importlib.import_module(f"divlab.{name}")
    except ImportError:
        return None


def _layer_of(fn) -> str:
    # a callable from outside divlab counts as quadrature or ODE machinery
    mod = getattr(fn, "__module__", None) or ""
    short = mod.rsplit(".", 1)[-1]
    return short.lstrip("_") if short in MODULES else "quad"


def _rows(args, kwargs, out) -> int:
    return len(args[0]) if args else 0


class Tracer:
    """In-memory span recorder; spans nest by call order, one thread only."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, start, end, parent, work]
        self.counts: dict[str, float] = {}
        self.notes: list[tuple[str, float]] = []
        self._stack = [-1]

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call.

        on_result(args, kwargs, result) runs after the span closes and may
        return the span's work count.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                rec[4] = on_result(args, kwargs, out) or 0
            return out
        return traced

    def traced_field(self, f):
        """Copy of field `f` whose evaluations are spans."""
        if not dataclasses.is_dataclass(f) or not callable(
                getattr(f, "eval", None)):
            return f
        changes = {"eval": self.wrap("fields.eval", f.eval, _rows)}
        jac = getattr(f, "analytic_jacobian", None)
        if jac is not None:
            changes["analytic_jacobian"] = self.wrap("fields.jac", jac, _rows)
        g = dataclasses.replace(f, **changes)
        declared = {x.name for x in dataclasses.fields(f)}
        for key, val in vars(f).items():
            if key not in declared:
                object.__setattr__(g, key, val)
        return g

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "notes": self.notes}, fh,
                      separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Patch divlab's modules so that calls into them record spans."""
    mods = {name: _module(name) for name in MODULES}
    cli = mods["cli"]

    def patch(mod, attr, make):
        if mod is not None and hasattr(mod, attr):
            setattr(mod, attr, make(getattr(mod, attr)))

    def constructor(fn):
        return tracer.wrap("fields.build",
                           lambda *a, **k: tracer.traced_field(fn(*a, **k)))

    for attr in _FIELD_CONSTRUCTORS:
        patch(cli, attr, constructor)

    def callee(fn, suffix, on_result=None):
        # the integrand or right-hand side is the first argument; its span
        # is named after the layer that defined it
        def call(f, *args, **kwargs):
            span = tracer.wrap(f"{_layer_of(f)}.{suffix}", f, on_result)
            return fn(span, *args, **kwargs)
        return call

    def adaptive(name):
        return lambda fn: tracer.wrap(name, callee(fn, "integrand", _rows))

    for attr, name in _ADAPTIVE.items():
        patch(mods["_quad"], attr, adaptive(name))

    def steps(args, kwargs, res):
        tracer.count("ode.steps_accepted", getattr(res, "naccepted", 0))
        tracer.count("ode.steps_rejected", getattr(res, "nrejected", 0))

    def integrator(name):
        return lambda fn: tracer.wrap(name, callee(fn, "rhs"), steps)

    for attr, name in _INTEGRATORS.items():
        patch(mods["_ode"], attr, integrator(name))

    notes = {
        "rigidity.build_flow_tube":
            lambda a, k, tube: tracer.notes.append(
                ("rigidity.residual", float(tube.residual))),
        "blowup.consistency": _note_defect(tracer),
        "trace.sobol": lambda a, k, kept: len(kept),
    }
    for name, home, attr, importers in _CALLS:
        if mods[home] is None or not hasattr(mods[home], attr):
            continue
        wrapped = tracer.wrap(name, getattr(mods[home], attr),
                              notes.get(name))
        for mod in (home, *importers):
            if mods[mod] is not None and hasattr(mods[mod], attr):
                setattr(mods[mod], attr, wrapped)

    trace = mods["trace"]
    if trace is not None and hasattr(trace, "qmc"):
        trace.qmc = _CountingQmc(trace.qmc, tracer)


def _note_defect(tracer: Tracer):
    def note(args, kwargs, rep):
        for c in getattr(rep, "checks", ()):
            if c.name == "half-space pairing defect, final":
                tracer.notes.append(("blowup.defect_final", float(c.value)))
    return note


class _CountingQmc:
    """Stand-in for `scipy.stats.qmc` whose Sobol engines count draws."""

    def __init__(self, qmc, tracer: Tracer):
        self._qmc = qmc

        class Sobol(qmc.Sobol):
            def random(self, n=1, **kwargs):
                out = super().random(n, **kwargs)
                tracer.count("trace.sobol.drawn", len(out))
                return out

        self.Sobol = Sobol

    def __getattr__(self, name):
        return getattr(self._qmc, name)


# ---------------------------------------------------------------------------
# derivation

PER_LAYER_UNITS = {
    "fields.eval.calls": "count", "fields.eval.points": "count",
    "fields.eval.self_s": "s", "fields.eval.points_per_call": "points/call",
    "fields.jac.calls": "count", "fields.jac.points": "count",
    "fields.jac.self_s": "s", "fields.build_s": "s", "fields.self_s": "s",
    "quad.adaptive_1d.calls": "count", "quad.adaptive_2d.calls": "count",
    "quad.ball.calls": "count", "quad.levels": "count",
    "quad.levels_per_call": "levels/call", "quad.points": "count",
    "quad.max_grid_points": "count", "quad.self_s": "s",
    "ode.integrations": "count", "ode.steps_accepted": "count",
    "ode.steps_rejected": "count", "ode.reject_ratio": "ratio",
    "ode.rhs_calls": "count", "ode.self_s": "s",
    "rigidity.build_flow_tube.s": "s", "rigidity.trajectories.s": "s",
    "rigidity.residual": "1", "rigidity.refine_ratio": "ratio",
    "rigidity.self_s": "s",
    "trace.density.calls": "count", "trace.density.s": "s",
    "trace.sobol.s": "s", "trace.sobol.drawn": "count",
    "trace.sobol.accept_ratio": "ratio", "trace.probe.s": "s",
    "trace.self_s": "s",
    "blowup.consistency.s": "s", "blowup.defect_final": "1",
    "blowup.self_s": "s",
    "calculus.s": "s", "calculus.self_s": "s",
    "cli.runs": "count", "cli.self_s": "s", "cli.import_s": "s",
    "tracer.wall_s": "s", "tracer.untraced_wall_s": "s",
    "tracer.overhead_s": "s", "tracer.unattributed_s": "s",
    "tracer.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(trace: dict, import_s: float) -> dict:
    """Per-layer metrics of one traced workload run.

    `tracer.untraced_wall_s` and `tracer.overhead_s` need an untraced run
    and are filled in by the caller.
    """
    names = trace["names"]
    rec = np.asarray(trace["spans"], dtype=float).reshape(-1, 5)
    nid = rec[:, 0].astype(int)
    start, end, work = rec[:, 1], rec[:, 2], rec[:, 4]
    parent = rec[:, 3].astype(int)
    dur = end - start
    nested = parent >= 0
    up = np.where(nested, parent, 0)
    child = np.zeros(len(rec))
    np.add.at(child, parent[nested], dur[nested])
    self_s = dur - child

    def where(pred):
        table = np.array([bool(pred(n)) for n in names], dtype=bool)
        return table[nid]

    def named(name):
        return where(lambda n: n == name)

    def outermost(mask):
        # inclusive time of the spans in `mask` not nested in another one
        inner = np.zeros(len(rec), dtype=bool)
        anc = np.where(nested, parent, -1)
        while np.any(anc >= 0):
            live = anc >= 0
            inner[live] |= mask[anc[live]]
            anc[live] = parent[anc[live]]
        return float(dur[mask & ~inner].sum())

    m = {f"{lay}.self_s": float(self_s[where(
        lambda n, lay=lay: n.split(".", 1)[0] == lay)].sum())
        for lay in LAYERS}

    for key in ("eval", "jac"):
        sel = named(f"fields.{key}")
        m[f"fields.{key}.calls"] = int(sel.sum())
        m[f"fields.{key}.points"] = int(work[sel].sum())
        m[f"fields.{key}.self_s"] = float(self_s[sel].sum())
    m["fields.eval.points_per_call"] = _ratio(m["fields.eval.points"],
                                              m["fields.eval.calls"])
    m["fields.build_s"] = outermost(named("fields.build"))

    adaptive = where(lambda n: n in _ADAPTIVE.values())
    for name in _ADAPTIVE.values():
        m[f"{name}.calls"] = int(named(name).sum())
    levels = where(lambda n: n.endswith(".integrand")) & nested & adaptive[up]
    m["quad.levels"] = int(levels.sum())
    m["quad.levels_per_call"] = _ratio(levels.sum(), adaptive.sum())
    m["quad.points"] = int(work[levels].sum())
    m["quad.max_grid_points"] = int(work[levels].max()) if levels.any() \
        else 0

    counts = trace["counts"]
    acc = counts.get("ode.steps_accepted", 0)
    rej = counts.get("ode.steps_rejected", 0)
    m["ode.integrations"] = int(
        where(lambda n: n in _INTEGRATORS.values()).sum())
    m["ode.steps_accepted"] = int(acc)
    m["ode.steps_rejected"] = int(rej)
    m["ode.reject_ratio"] = _ratio(rej, acc + rej)
    m["ode.rhs_calls"] = int(where(lambda n: n.endswith(".rhs")).sum())

    notes: dict[str, list] = {}
    for key, val in trace["notes"]:
        notes.setdefault(key, []).append(val)
    residuals = notes.get("rigidity.residual", [])
    m["rigidity.build_flow_tube.s"] = outermost(
        named("rigidity.build_flow_tube"))
    m["rigidity.trajectories.s"] = outermost(named("rigidity.trajectories"))
    m["rigidity.residual"] = residuals[-1] if residuals else 0.0
    m["rigidity.refine_ratio"] = (_ratio(residuals[0], residuals[1])
                                  if len(residuals) > 1 else 0.0)

    sobol = named("trace.sobol")
    drawn = counts.get("trace.sobol.drawn", 0)
    m["trace.density.calls"] = int(named("trace.density").sum())
    m["trace.density.s"] = outermost(named("trace.density"))
    m["trace.sobol.s"] = outermost(sobol)
    m["trace.sobol.drawn"] = int(drawn)
    m["trace.sobol.accept_ratio"] = _ratio(work[sobol].sum(), drawn)
    m["trace.probe.s"] = outermost(named("trace.probe"))

    defects = notes.get("blowup.defect_final", [])
    m["blowup.consistency.s"] = outermost(named("blowup.consistency"))
    m["blowup.defect_final"] = defects[-1] if defects else 0.0
    m["calculus.s"] = outermost(where(lambda n: n.startswith("calculus.")))

    roots = ~nested
    wall = float(end[roots].max() - start[roots].min()) if roots.any() \
        else 0.0
    m["cli.runs"] = int(named("cli.main").sum())
    m["cli.import_s"] = float(import_s)
    m["tracer.wall_s"] = wall
    m["tracer.unattributed_s"] = wall - float(dur[roots].sum())
    m["tracer.spans"] = len(rec)
    return m
