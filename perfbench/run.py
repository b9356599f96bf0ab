"""divlab benchmark: time to verdict, set-up time and memory per workload.

    python3 perfbench/run.py --workload {tube,blowup,sampling,catalog} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it runs the program from `src/`.
Each workload run is a fresh subprocess (`worker.py`) that imports divlab,
builds the workload's fields and then makes the workload's CLI calls one
after another.  One caller drives the runs in a closed loop, never two at
once, until the next run would end after `--seconds`; at least one run is
always made.

With `--trace 0` the last line reports the end-to-end metrics:

- `wall_s`: median over runs of the time from the first CLI call to the
  end of the last, the user's time to a verdict;
- `setup_s`: median over at least three fresh interpreters of the time
  from spawn to divlab imported and every named field built;
- `peak_rss_mb`: median over runs of the subprocess's peak resident set.

The failure share (failed over attempted CLI calls) is printed with them
and carried by `attempted` and `failed`; it is 0 when all is well, so it
cannot carry a relative bound.

With `--trace 1` the runs alternate untraced and traced, and the last line
reports the per-layer metrics of `tracer.layer_metrics`, medians over the
traced runs, with the tracing overhead as traced minus untraced wall time.
Every report a traced run writes must equal the untraced one apart from
its timestamp.

The line before the last starts with `record ` and holds the environment,
the inputs and every run's numbers as JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 3
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class RunFailed(RuntimeError):
    pass


def _spawn(root, work, opts, deadline):
    """One worker subprocess; returns its result, or None when it failed."""
    run_dir = tempfile.mkdtemp(prefix="run-", dir=work)
    result_path = os.path.join(run_dir, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *opts,
           "--out", os.path.join(run_dir, "out"), "--result", result_path]
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(run_dir, "stderr.txt"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=err)
        # wait4, not wait: it returns this child's own resource usage
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise RunFailed(f"worker exceeded the run time limit: {cmd}")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(run_dir, "stderr.txt"), "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        print(f"worker failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_mark"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    result["dir"] = run_dir
    return result


def _report_files(out_dir):
    """Contents of every output file, with report timestamps removed."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            payload = json.loads(data)
            if isinstance(payload, dict):
                payload.pop("timestamp", None)
            data = json.dumps(payload, sort_keys=True)
        files[name] = data
    return files


def _environment(root, spec):
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "inputs": spec.record(),
        "tube_inputs_fixed": spec.workload == "tube",
    }


def _measure(root, work, base, args, start):
    """Closed loop of workload runs; returns the list of runs made."""
    modes = [False, True] if args.trace else [False]
    runs, durations = [], []
    while True:
        t0 = time.monotonic()
        for traced in modes:
            result = _spawn(root, work, base + ["--trace"] * traced,
                            start + RUN_LIMIT_S)
            runs.append({"traced": traced, "result": result})
            if result is None:
                return runs
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > args.seconds:
            return runs


def _check(spec, runs):
    """(attempted, failed, problems) over every operation of every run."""
    attempted = failed = 0
    problems = []
    for i, run in enumerate(runs):
        result = run["result"]
        attempted += len(spec.ops)
        if result is None:
            failed += len(spec.ops)
            problems.append(f"run {i}: worker failed")
            continue
        for op in result["ops"]:
            if op["problem"]:
                failed += 1
                problems.append(f"run {i} {op['name']}: {op['problem']}")
    return attempted, failed, problems


def _transparency(runs):
    """Problems where a traced run's outputs differ from the untraced."""
    problems = []
    plain = [r["result"] for r in runs if not r["traced"] and r["result"]]
    traced = [r["result"] for r in runs if r["traced"] and r["result"]]
    for a, b in zip(plain, traced):
        fa = _report_files(os.path.join(a["dir"], "out"))
        fb = _report_files(os.path.join(b["dir"], "out"))
        for name in sorted(set(fa) | set(fb)):
            if fa.get(name) != fb.get(name):
                problems.append(f"traced output {name} differs")
    return problems


def _layer_metrics(runs):
    plain = [r["result"]["wall_s"] for r in runs
             if not r["traced"] and r["result"]]
    per_run = []
    for run in runs:
        result = run["result"]
        if not run["traced"] or result is None:
            continue
        with open(result["spans"], encoding="utf-8") as fh:
            spans = json.load(fh)
        per_run.append(tracer.layer_metrics(spans, result["import_s"]))
    untraced = statistics.median(plain) if plain else 0.0
    metrics = {}
    for key in tracer.PER_LAYER_UNITS:
        if key == "tracer.untraced_wall_s":
            value = untraced
        elif key == "tracer.overhead_s":
            value = statistics.median(
                m["tracer.wall_s"] for m in per_run) - untraced
        else:
            value = statistics.median(m[key] for m in per_run)
        metrics[key] = value
    return metrics, per_run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the benchmark's smoke test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "divlab", "__init__.py")):
        print("perfbench: run from the root of a divlab checkout "
              "(src/divlab not found)", file=sys.stderr)
        return 2

    start = time.monotonic()
    spec = workloads.inputs(args.workload, args.seed, args.tiny)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--tiny"] * args.tiny
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        env = _environment(root, spec)
        runs = _measure(root, work, base, args, start)
        done = [r["result"] for r in runs
                if r["result"] and r["traced"] == bool(args.trace)]
        if not done:
            raise RunFailed("no workload run finished")
        attempted, failed, problems = _check(spec, runs)
        setups = [r["result"]["setup_s"] for r in runs if r["result"]]
        if args.trace:
            problems += _transparency(runs)
            metrics, per_run = _layer_metrics(runs)
            units = tracer.PER_LAYER_UNITS
        else:
            while runs[-1]["result"] and len(setups) < MIN_SETUPS:
                result = _spawn(root, work, base + ["--setup-only"],
                                start + RUN_LIMIT_S)
                if result is None:
                    break
                setups.append(result["setup_s"])
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in done),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in done),
            }
            per_run = []
            units = END_TO_END_UNITS
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} runs, {attempted} CLI calls, {failed} failed")
    for key, value in metrics.items():
        print(f"  {key:30s} {value:.6g} {units[key]}")
    print(f"  {'fail_share':30s} {failed / attempted:.6g} share")
    record = {"environment": env, "seconds": args.seconds,
              "runs": [{"traced": r["traced"],
                        **({k: r["result"][k] for k in
                            ("wall_s", "setup_s", "peak_rss_mb", "import_s",
                             "ops")} if r["result"] else {})}
                       for r in runs],
              "setup_s": setups, "layers_per_run": per_run,
              "problems": problems}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
