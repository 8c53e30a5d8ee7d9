"""Self-test of the benchmark: deterministic counts repeat exactly.

    python3 perfbench/selftest.py [workload ...]

Runs each workload (all four by default) twice in traced mode with the same
seed and the shortest run, one run at a time, and fails unless both runs are
correct, print exactly the per-layer metrics and units of BENCHMARK.json,
and agree on every per-layer count (every metric that is not a time).
Run it from the root of the checkout; it takes about two minutes.
"""

import json
from pathlib import Path
import subprocess
import sys

from spans import is_time

SEED = 7


def traced_run(bench, workload):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv):
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in bench["workloads"]]
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for workload in workloads:
        first, second = (traced_run(bench, workload) for _ in range(2))
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                failures.append(f"{workload}: {run['failed']} of "
                                f"{run['attempted']} operations failed")
            printed = {k: v["unit"] for k, v in run["metrics"].items()}
            if printed != declared:
                failures.append(f"{workload}: metrics or units differ from "
                                "the per_layer list of BENCHMARK.json")
        counts = [{k: v["value"] for k, v in run["metrics"].items()
                   if not is_time(k)} for run in (first, second)]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        if differ:
            failures.append(f"{workload}: counts differ between runs: {differ}")
        print(f"{workload}: {len(counts[0])} counts, "
              f"{'repeat' if not differ else 'DIFFER'}", flush=True)
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
