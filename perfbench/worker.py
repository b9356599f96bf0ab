"""One workload run in a fresh interpreter.

The worker imports divlab and builds every registry field the workload
names; the moment that finishes is its set-up mark.  It then runs the
workload's CLI operations one after another in this process, optionally
with tracing, checks their outputs and writes a JSON result.  `run.py`
starts it with `PYTHONPATH=src` from the root of a checkout.

    python3 perfbench/worker.py --workload W --seed N --out DIR \
        --result FILE [--trace] [--tiny] [--setup-only]
"""

import argparse
import json
import os
import time

import workloads

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--result", required=True)
parser.add_argument("--trace", action="store_true")
parser.add_argument("--tiny", action="store_true")
parser.add_argument("--setup-only", action="store_true")
args = parser.parse_args()
spec = workloads.inputs(args.workload, args.seed, args.tiny)

t_import = time.perf_counter()
import divlab.cli as cli  # noqa: E402
import_s = time.perf_counter() - t_import
for name in spec.fields:
    cli.get_field(name)
# CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
setup_mark = time.monotonic()

result = {"setup_mark": setup_mark, "import_s": import_s, "ops": []}
if not args.setup_only:
    main = cli.main
    if args.trace:
        import tracer
        rec = tracer.Tracer()
        tracer.install(rec)
        main = rec.wrap("cli.main", cli.main)
    os.makedirs(args.out, exist_ok=True)
    timings = []
    for op in spec.ops:
        argv = [*op.argv, "--out", args.out, "--name", op.name]
        t0 = time.perf_counter()
        rc = main(argv)
        timings.append((rc, t0, time.perf_counter()))
    result["wall_s"] = timings[-1][2] - timings[0][1]
    for op, (rc, t0, t1) in zip(spec.ops, timings):
        result["ops"].append({"name": op.name, "rc": rc, "s": t1 - t0,
                              "problem": workloads.check_op(op, rc,
                                                            args.out)})
    if args.trace:
        result["spans"] = os.path.join(os.path.dirname(args.result),
                                       "spans.json")
        rec.dump(result["spans"])

with open(args.result, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
