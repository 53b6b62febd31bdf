"""Run every workload of BENCHMARK.json and summarise the runs.

    python3 perfbench/report.py [--seeds 0 1 2 ...] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), one run at a time, from
the root of the source tree.  Prints each run's metrics with their units
and its fail_ratio, then per workload and metric the median over the seeds
and the quartile spread (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    for w in bench["workloads"]:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{w['name']} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            ratio = result["failed"] / result["attempted"]
            shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
            print(f"{w['name']} seed {seed}: {shown}  fail_ratio={ratio:g} correct={result['correct']}", flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for k, vals in values.items():
            med = statistics.median(vals)
            line = f"  {w['name']} {k}: median {med:.6g} over {len(vals)} seeds"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f", spread {(q3 - q1) / med:.4f}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
