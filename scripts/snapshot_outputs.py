#!/usr/bin/env python3
"""Record the outputs of every catalog recipe and benchmark workload call,
and compare two such snapshots by each check's own tolerance.

    python3 scripts/snapshot_outputs.py DIR
    python3 scripts/snapshot_outputs.py --compare OLD NEW

The first form runs the recipes of `divlab list` and the CLI calls of the
four benchmark workloads (`perfbench/workloads.inputs`) at seeds 1 and 2,
in one process, and writes each call's JSON report, CSV tables,
certificate and stdout under DIR, one directory per recipe set or
workload and seed.  The report's timestamp and the output directory in
stdout are blanked, so two checkouts that compute the same numbers write
the same files.

The second form judges a digit change instead of rejecting it.  For every
file that differs between the snapshots OLD and NEW it prints:
  - for a report, each gated (PASS/FAIL) check's |delta value| as a
    fraction of its old margin, each INFO check's relative drift, each
    check's margin drift, any change of a check's detail text, and any
    change of a check's error (absent in older reports, read as 0) with
    the new error as a fraction of the old margin;
  - for a CSV table, the largest relative drift of each column, read as
    numbers;
  - for a certificate, the largest relative drift of its numbers.
It exits 1 when a report's checks are not the same checks in the same
order with the same verdicts and tolerances, when a leaf of a report's
echoed scenario (its JSON parsed, so a problem names the parameter, as
/scenario/params/rtol) changed or exists on one side only, when any
other report field exists on one side only, when any other text (a
header, a label, an exit code, a verdict) changed, or when a file exists
in one snapshot only; it exits 0 otherwise, also when digits drifted.
"""

import argparse
import contextlib
import csv
import difflib
import io
import json
import math
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from divlab.cli import RECIPES, main as cli_main  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
_TIMESTAMP = re.compile(r'^  "timestamp": ".*",$', re.MULTILINE)


def calls():
    """(directory, name, argv) of every recorded CLI call."""
    for name, recipe in RECIPES.items():
        yield "recipes", name, list(recipe["argv"])
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.inputs(w, seed).ops:
                yield f"{w}-seed{seed}", op.name, list(op.argv)


def snapshot(out: pathlib.Path) -> int:
    """Write every call's outputs under `out`; returns the file count."""
    for group, name, argv in calls():
        d = out / group
        d.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main([*argv, "--out", str(d), "--name", name])
        text = buf.getvalue().replace(str(d), "<out>")
        (d / f"{name}.stdout").write_text(f"exit {code}\n{text}",
                                          encoding="utf-8")
        report = d / f"{name}.json"
        if report.exists():
            report.write_text(_TIMESTAMP.sub('  "timestamp": "",',
                                             report.read_text("utf-8")),
                              encoding="utf-8")
    return sum(1 for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# comparing two snapshots

def _drift(old: float, new: float) -> float:
    """Relative drift |new - old| / |old|: 0 for equal values (two NaNs
    included), inf when old is 0 or exactly one side is NaN."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or math.isnan(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / abs(old)


def _number(cell):
    """The cell as a float, or None when it is not a number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _compare_checks(old: list, new: list, out: list, problems: list):
    """Pair the checks by name in order; a check in one list only, a
    change of order, or a pair with different verdicts or tolerances is a
    problem."""
    names_old = [c["name"] for c in old]
    names_new = [c["name"] for c in new]
    problems += [f"new check {c['name']!r} ({c['verdict']})"
                 for c in new if c["name"] not in names_old]
    problems += [f"check {c['name']!r} ({c['verdict']}) is gone"
                 for c in old if c["name"] not in names_new]
    if ([n for n in names_old if n in names_new]
            != [n for n in names_new if n in names_old]):
        problems.append("the checks changed order")
    pending = list(new)
    for c in old:
        match = next((d for d in pending if d["name"] == c["name"]), None)
        if match is None:
            continue
        pending.remove(match)
        name = c["name"]
        if c["verdict"] != match["verdict"]:
            problems.append(f"check {name!r}: verdict {c['verdict']} -> "
                            f"{match['verdict']}")
        if _drift(c["tolerance"], match["tolerance"]):
            problems.append(f"check {name!r}: tolerance {c['tolerance']!r} "
                            f"-> {match['tolerance']!r}")
        a, b = c["value"], match["value"]
        if _drift(a, b):
            if c["verdict"] in ("PASS", "FAIL"):
                delta = abs(b - a)
                share = delta / abs(c["margin"]) if c["margin"] else math.inf
                out.append(f"  gated {name}: {a!r} -> {b!r}, |delta| "
                           f"{delta:.3g} = {share:.3g} of margin "
                           f"{c['margin']:.3g}")
            else:
                out.append(f"  {c['verdict'].lower()} {name}: {a!r} -> "
                           f"{b!r}, relative drift {_drift(a, b):.3g}")
        m, n = c["margin"], match["margin"]
        if _drift(m, n):
            out.append(f"  margin of {name}: {m!r} -> {n!r}, relative "
                       f"drift {_drift(m, n):.3g}")
        e, f = c.get("error", 0.0), match.get("error", 0.0)
        if _drift(e, f):
            share = f / abs(c["margin"]) if c["margin"] else math.inf
            out.append(f"  error of {name}: {e!r} -> {f!r} = {share:.3g} "
                       f"of margin {c['margin']:.3g}")
        if c["detail"] != match["detail"]:
            out.append(f"  detail of {name}: {c['detail']!r} -> "
                       f"{match['detail']!r}")


def _leaves(node, path=""):
    """(path, leaf) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, node


def _compare_leaves(old, new, out: list, problems: list):
    """Numbers may drift (the largest drift is printed); any other leaf,
    and the set of paths, must be equal."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    problems += [f"{path} only in {'OLD' if path in a else 'NEW'}"
                 for path in sorted(a.keys() ^ b.keys())]
    worst, where = 0.0, ""
    for path in sorted(a.keys() & b.keys()):
        x, y = _number(a[path]), _number(b[path])
        if x is None or y is None:
            if a[path] != b[path]:
                problems.append(f"{path}: {a[path]!r} -> {b[path]!r}")
        elif _drift(x, y) > worst:
            worst, where = _drift(x, y), path
    if worst:
        out.append(f"  largest relative drift {worst:.3g} at {where}")


def _scenario(doc: dict):
    """Pop the scenario a report echoes as JSON text, parsed (None when
    absent, the text itself when it is not JSON)."""
    text = doc.pop("scenario", None)
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return text


def _compare_scenario(old, new, problems: list):
    """The scenario is the run's input: a leaf on one side only, or any
    changed leaf, is a problem that names its path."""
    a, b = dict(_leaves(old, "/scenario")), dict(_leaves(new, "/scenario"))
    problems += [f"{path} only in {'OLD' if path in a else 'NEW'}"
                 for path in sorted(a.keys() ^ b.keys())]
    problems += [f"{path}: {a[path]!r} -> {b[path]!r}"
                 for path in sorted(a.keys() & b.keys()) if a[path] != b[path]]


def _compare_json(old_text: str, new_text: str, out: list, problems: list):
    old, new = json.loads(old_text), json.loads(new_text)
    if "checks" in old and "checks" in new:
        _compare_checks(old.pop("checks"), new.pop("checks"), out, problems)
    _compare_scenario(_scenario(old), _scenario(new), problems)
    _compare_leaves(old, new, out, problems)


def _compare_csv(old_text: str, new_text: str, out: list, problems: list):
    old = list(csv.reader(io.StringIO(old_text)))
    new = list(csv.reader(io.StringIO(new_text)))
    if old[:1] != new[:1] or len(old) != len(new):
        problems.append(f"header or row count differs: {old[:1]} with "
                        f"{len(old)} rows -> {new[:1]} with {len(new)} rows")
        return
    for j, column in enumerate(old[0]):
        worst = delta = 0.0
        for row_old, row_new in zip(old[1:], new[1:]):
            x, y = _number(row_old[j]), _number(row_new[j])
            if x is None or y is None:
                if row_old[j] != row_new[j]:
                    problems.append(f"column {column}: {row_old[j]!r} -> "
                                    f"{row_new[j]!r}")
            elif _drift(x, y):
                worst = max(worst, _drift(x, y))
                delta = max(delta, abs(y - x))
        if worst:
            out.append(f"  column {column}: largest relative drift "
                       f"{worst:.3g}, largest |delta| {delta:.3g}")


def _compare_stdout(old_text: str, new_text: str, out: list,
                    problems: list):
    """The printed lines mirror the report; only the exit code is
    judged here."""
    old, new = old_text.splitlines(), new_text.splitlines()
    if old[:1] != new[:1]:
        problems.append(f"{old[:1]} -> {new[:1]}")
    marks = [line[0] for line in difflib.ndiff(old, new)]
    out.append(f"  printed lines: {marks.count('-')} of {len(old)} "
               f"removed, {marks.count('+')} added")


_COMPARE = {".json": _compare_json, ".csv": _compare_csv,
            ".stdout": _compare_stdout}


def compare(old: pathlib.Path, new: pathlib.Path) -> tuple[list, int]:
    """The comparison's printed lines and its problem count."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    names_old, names_new = files(old), files(new)
    lines, problems_total, same = [], 0, 0
    for name in sorted(names_old | names_new):
        if name not in names_new or name not in names_old:
            where = "OLD" if name in names_old else "NEW"
            lines.append(f"{name}: only in {where}")
            problems_total += 1
            continue
        a = (old / name).read_text("utf-8")
        b = (new / name).read_text("utf-8")
        if a == b:
            same += 1
            continue
        out, problems = [], []
        how = _COMPARE.get(name.suffix)
        if how is None:
            problems.append("differs")
        else:
            how(a, b, out, problems)
        lines += [f"{name}:", *out,
                  *(f"  PROBLEM {p}" for p in problems)]
        problems_total += len(problems)
    total = len(names_old | names_new)
    lines.append(f"{total} files: {same} identical, {total - same} "
                 f"differ, {problems_total} problems")
    return lines, problems_total


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dir", type=pathlib.Path, nargs="?",
                    help="directory to write the snapshot to")
    ap.add_argument("--compare", nargs=2, type=pathlib.Path,
                    metavar=("OLD", "NEW"),
                    help="compare two snapshot directories instead")
    args = ap.parse_args()
    if (args.dir is None) == (args.compare is None):
        ap.error("give either DIR or --compare OLD NEW")
    if args.compare:
        lines, problems = compare(*args.compare)
        print("\n".join(lines))
        return 1 if problems else 0
    print(f"{snapshot(args.dir)} files written to {args.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
