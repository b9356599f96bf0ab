#!/usr/bin/env python3
"""Record the outputs of every catalog recipe and benchmark workload call.

    python3 scripts/snapshot_outputs.py DIR

Runs the recipes of `divlab list` and the CLI calls of the four benchmark
workloads (`perfbench/workloads.inputs`) at seeds 1 and 2, in one process,
and writes each call's JSON report, CSV tables, certificate and stdout
under DIR, one directory per recipe set or workload and seed.  The
report's timestamp and the output directory in stdout are blanked, so two
checkouts that compute the same numbers write the same files: `diff -r`
of their snapshots checks that a refactor changed no output.
"""

import argparse
import contextlib
import io
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


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dir", type=pathlib.Path,
                    help="directory to write the snapshot to")
    args = ap.parse_args()
    print(f"{snapshot(args.dir)} files written to {args.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
