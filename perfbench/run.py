"""polygal benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload iso_seq --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; polygal is imported from its `src/`.
Set-up (import, input generation, the planar_query cone) is timed apart from
the operations.  Operations then repeat until the next one would end past
`--seconds` (at least the workload's minimum).  Each operation's output is
checked; a failed check or an exception counts as a failed operation.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
twice on the same input, plain and traced, and prints the per-layer metrics
of the traced runs (median seconds, exact counts) plus the tracing overhead.
The last line of stdout is the JSON result; the line before it holds the run
environment, the workload's own metric names and its counts.
"""

import argparse
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from spans import Tracer, is_time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import polygal; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root):
    """Commit of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
    }


def import_seconds(root):
    """Time to import polygal in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def timed(fn, arg):
    start = time.perf_counter()
    out = fn(arg)
    return out, time.perf_counter() - start


def collapse(values):
    """One value when every operation agrees, else the per-operation list."""
    return values[0] if len(set(values)) == 1 else values


def attempt(workload, make_input, tracer):
    """One operation: plain, then (when tracing) traced on a fresh copy of
    the same input, so caches the plain run filled do not help the traced
    one.  Returns (problems, counts, plain seconds, traced row, traced
    seconds); outputs are dropped on return, so two operations never hold
    memory at once."""
    inst = make_input()
    out, dt = timed(workload.op, inst)
    problems = workload.check(inst, out)
    counts = workload.counts(out)
    del inst, out
    if tracer is None:
        return problems, counts, dt, None, None
    inst = make_input()
    with tracer.active():
        out, traced_dt = timed(workload.op, inst)
    problems += workload.check(inst, out)
    return problems, counts, dt, tracer.take(), traced_dt


def run_ops(workload, seconds, tracer):
    """Repeat operations until the next would end past `seconds`.

    Returns (attempted, failed, plain durations, traced per-layer rows,
    tracing overheads, per-operation counts)."""
    durations, rows, overheads, counts = [], [], [], []
    attempted = failed = 0
    cycles = []
    min_ops = 1 if tracer else workload.min_ops
    start = time.perf_counter()
    while (attempted < min_ops or time.perf_counter() - start
           + statistics.median(cycles) <= seconds):
        cycle_start = time.perf_counter()
        k = attempted
        attempted += 1
        try:
            problems, op_counts, dt, row, traced_dt = attempt(
                workload, workload.traced_instance if tracer
                else lambda: workload.instance(k), tracer)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            failed += 1
            if tracer:
                tracer.take()  # drop the failed operation's spans
            continue
        finally:
            cycles.append(time.perf_counter() - cycle_start)
        if tracer:
            if rows and _exact(row) != _exact(rows[0]):
                problems.append("traced counts did not repeat")
            rows.append(row)
            overheads.append(traced_dt - dt)
        if problems:
            failed += 1
            print(f"operation {attempted - 1} failed: {problems}",
                  file=sys.stderr)
        durations.append(dt)
        counts.append(op_counts)
    return attempted, failed, durations, rows, overheads, counts


def _exact(row):
    return {k: v for k, v in row.items() if not is_time(k)}


def layer_unit(name):
    if is_time(name):
        return "s"
    if name.endswith(("_ratio", "_yield", "_per_iter")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "polygal" / "__init__.py").is_file():
        print(f"perfbench: no polygal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import_times = [import_seconds(root) for _ in range(IMPORT_REPEATS)]
    import polygal
    if Path(polygal.__file__).resolve().parent != src / "polygal":
        print(f"perfbench: imported polygal from {polygal.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    attempted, failed, durations, rows, overheads, counts = run_ops(
        workload, args.seconds, tracer)
    if not durations:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    if tracer:
        metrics = {}
        for name in rows[0]:
            values = [row[name] for row in rows]
            value = statistics.median(values) if is_time(name) else values[0]
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads),
                                       "unit": "s"}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(durations),
                          "unit": "ms"},
            "ops_per_s": {"value": len(durations) / sum(durations),
                          "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(durations),
        "environment": environment(root),
        "setup": {"import_s": statistics.median(import_times),
                  "inputs_s": statistics.median(setup_times)},
        "counts": {name: collapse([c[name] for c in counts])
                   for name in counts[0]},
    }
    if not tracer:
        detail["workload_metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workload.workload_metrics(durations).items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
