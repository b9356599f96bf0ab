#!/usr/bin/env python3
"""Run every catalog recipe end to end and print a verdict table.

Exit status is the number of failing recipes, capped at 99 so it stays
distinguishable from the CLI's own usage-error code.
"""

import argparse
import contextlib
import io
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from divlab.cli import RECIPES, main as cli_main  # noqa: E402


def run_recipe(name: str, argv: list[str], verbose: bool) -> tuple[int, float]:
    t0 = time.monotonic()
    if verbose:
        print(f"$ divlab {' '.join(argv)}")
        code = cli_main(argv)
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        if code != 0:
            sys.stdout.write(buf.getvalue())
    return code, time.monotonic() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", action="append", default=None, metavar="NAME",
                    help="run only these recipes (repeatable)")
    ap.add_argument("--verbose", action="store_true",
                    help="stream each recipe's full output")
    args = ap.parse_args()

    names = args.only or list(RECIPES)
    unknown = [n for n in names if n not in RECIPES]
    if unknown:
        ap.error(f"unknown recipe(s): {', '.join(unknown)}")

    width = max(len(n) for n in names)
    failures = 0
    for name in names:
        code, elapsed = run_recipe(name, RECIPES[name]["argv"], args.verbose)
        verdict = "PASS" if code == 0 else "FAIL"
        failures += code != 0
        print(f"{name:<{width}}  {verdict}  {elapsed:7.2f}s")
    print(f"\n{len(names) - failures}/{len(names)} recipes passed")
    return min(failures, 99)


if __name__ == "__main__":
    sys.exit(main())
