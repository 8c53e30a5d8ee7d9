"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload iso_seq --seeds 1-10

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, and prints per metric the median and the distance between the first
and third quartiles as a share of the median, next to the metric's bound.
Run it from the root of the checkout.  A spread above a third of the bound
is flagged; above the bound, the benchmark cannot resolve that metric.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    ok = True
    for workload in args.workload:
        values = {spec["name"]: [] for spec in specs}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()), flush=True)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for spec in specs:
            vals = values[spec["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = ("" if share <= spec["bound"] / 3 else
                    "  above a third of the bound" if share <= spec["bound"]
                    else "  ABOVE THE BOUND")
            print(f"{workload} {spec['name']}: median {med:.6g} "
                  f"{spec['unit']}, spread {share:.4f} "
                  f"(bound {spec['bound']}){flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
