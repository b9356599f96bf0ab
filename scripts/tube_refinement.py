#!/usr/bin/env python3
"""Seed-refinement sweep for the flow-tube transport identity.

Builds the lifted stream-bump tube at successively doubled seed counts,
every level flowed in one batch, and prints the quadrature residual with
its per-level contraction, the flow's error bound on it, and the time of
the whole sweep.  A second-order seed rule should contract by about 4x
per doubling.  The residual gate also sets the flow's tolerance; its
default keeps the flow's error far below the finest level's residual.
"""

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from divlab.fields import stream_bump_field  # noqa: E402
from divlab.rigidity import flow_tubes  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4,
                    help="number of doublings starting at --seeds")
    ap.add_argument("--seeds", type=int, default=16,
                    help="seeds per axis at the coarsest level")
    ap.add_argument("--h0", type=float, default=1.95,
                    help="tube top; must clear the eddy support")
    ap.add_argument("--box", default="-2.7,3.3;0,1",
                    help="bottom face as 'x0,x1;y0,y1'")
    ap.add_argument("--residual-tol", type=float, default=1e-9,
                    help="residual gate; also sets the ODE budget")
    args = ap.parse_args()

    box = tuple(tuple(float(v) for v in axis.split(","))
                for axis in args.box.split(";"))
    field = stream_bump_field()
    epsilon = 2.0 * field.sup_bound

    print(f"field {field.name}, epsilon {epsilon}, h0 {args.h0}, box {box}")
    levels = [args.seeds * 2 ** level for level in range(args.levels)]
    t0 = time.monotonic()
    tubes, _ = flow_tubes(field, epsilon, box, args.h0, levels,
                          residual_tol=args.residual_tol)
    elapsed = time.monotonic() - t0
    print(f"residual tol {args.residual_tol:g}, ODE rtol {tubes[0].rtol:.3e}")
    print(f"{'seeds':>7}  {'residual':>12}  {'ratio':>7}  {'delta_min':>10}"
          f"  {'ode_error':>10}")
    previous = None
    for seeds, tube in zip(levels, tubes):
        ratio = "" if previous is None else f"{previous / tube.residual:7.1f}"
        print(f"{seeds:>7}  {tube.residual:12.3e}  {ratio:>7}"
              f"  {tube.delta_min:10.6f}  {tube.ode_error:10.3e}")
        previous = tube.residual
    print(f"{len(levels)} levels in one flow: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
