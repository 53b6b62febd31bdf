"""calderon benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (it imports calderon from ./src).  The
workloads, their seed-0 scenarios and the perturbation ranges of other
seeds are in perfbench/spec.json; metric names, units and bounds are in
BENCHMARK.json.

Every job runs in a fresh child process (perfbench/child.py) with
BLAS_THREADS BLAS threads, one job at a time.  A run starts pipeline jobs
until ``--seconds`` is used up (at least one), with SETUP_JOBS set-up-only
jobs before each and after the last, so that set-up is sampled many times
across the whole run, and reports medians over the jobs:

* ``--trace 0`` prints every end-to-end metric of BENCHMARK.json
  (wall_s, setup_s, peak_rss_mb) measured with tracing off;
* ``--trace 1`` alternates untraced and traced jobs and prints every
  per-layer metric, taken from the traced jobs; ``trace.overhead_s`` is
  the traced minus the untraced wall time.

Each job's outputs are checked: every summary check must PASS, the
operation counts must agree with the outputs, the summary constants must
repeat across the jobs of a run and, at seed 0, match the constants
recorded in spec.json.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when a check fails and 2 when there is nothing to run.
A job still running after JOB_TIMEOUT_S + 2 x ``--seconds`` is killed and
counted as failed.  Job files go to .perfbench_runs/ under the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import check_outputs, compare_constants, expected_operations, load_spec, scenario  # noqa: E402

BLAS_THREADS = 1
SETUP_JOBS = 4
JOB_TIMEOUT_S = 60.0


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts jobs one at a time and keeps their results."""

    def __init__(self, workload: str, pipelines: list, config: dict, env: dict, timeout: float):
        self.workload = workload
        self.pipelines = pipelines
        self.config = config
        self.env = env
        self.timeout = timeout
        self.dir = os.path.join(ROOT, ".perfbench_runs", workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.count = 0

    def job(self, setup_only: bool = False, trace: bool = False) -> dict:
        """Run one job to completion; its result gains 'dir' and 'duration_s'."""
        job_dir = os.path.join(self.dir, f"job{self.count:03d}")
        os.makedirs(job_dir)
        job = {
            "run_id": f"{self.workload}-{self.count}",
            "dir": job_dir,
            "config": self.config,
            "pipelines": self.pipelines,
            "setup_only": setup_only,
            "trace": trace,
        }
        self.count += 1
        with open(os.path.join(job_dir, "job.json"), "w") as fh:
            json.dump(job, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), os.path.join(job_dir, "job.json")]
        result = {"dir": job_dir, "trace": trace}
        with open(os.path.join(job_dir, "log.txt"), "w") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd + [repr(t_launch)], cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                result["error"] = f"job still running after {self.timeout:g} s"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result["duration_s"] = time.monotonic() - t_launch
        path = os.path.join(job_dir, "result.json")
        if "error" not in result:
            if proc.returncode != 0 or not os.path.exists(path):
                result["error"] = f"job exited with code {proc.returncode}; see {job_dir}/log.txt"
            else:
                with open(path) as fh:
                    result.update(json.load(fh))
        return result


def _median(values):
    """Median; of counts, the lower middle count, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return float(statistics.median(values))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "calderon", "__init__.py")):
        print(f"perfbench: no calderon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metric_specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    t_start = time.monotonic()
    w = spec["workloads"][args.workload]
    config = scenario(spec, args.workload, args.seed)
    runner = Runner(
        args.workload, w["pipelines"], config, _child_env(BLAS_THREADS), JOB_TIMEOUT_S + 2 * args.seconds
    )

    setups = []
    jobs = []

    def sample_setups() -> bool:
        for _ in range(0 if args.trace else SETUP_JOBS):
            r = runner.job(setup_only=True)
            if "error" in r:
                print(f"set-up job failed:\n{r['error']}", file=sys.stderr)
                return False
            setups.append(r["setup_s"])
        return True

    # Set-up-only jobs sit before, between and after the pipeline jobs, so
    # that set-up is sampled across the whole run and not in one burst.
    t_measure = time.monotonic()
    while True:
        t_cycle = time.monotonic()
        if not sample_setups():
            return 1
        trace = bool(args.trace) and len(jobs) % 2 == 1
        jobs.append(runner.job(trace=trace))
        if "error" in jobs[-1]:
            break
        now = time.monotonic()
        enough = len(jobs) >= (2 if args.trace else 1)
        # start another cycle of jobs only if about half of it fits in the budget
        if enough and (now - t_measure) + 0.5 * (now - t_cycle) > args.seconds:
            break
    if not sample_setups():
        return 1

    attempted = failed = 0
    problems = []
    reference_constants = None
    src = os.path.join(ROOT, "src", "calderon")
    for r in jobs:
        if "error" in r:
            n = expected_operations(w["pipelines"], r["config"]) if "config" in r else 1
            attempted += n
            failed += n
            problems.append(f"{os.path.basename(r['dir'])}: {r['error'].strip()}")
            continue
        if r["source"] != src:
            problems.append(f"calderon was imported from {r['source']}, not {src}")
        n = expected_operations(w["pipelines"], r["config"])
        attempted += n
        try:
            n_failed, found, constants = check_outputs(w["pipelines"], r["config"], os.path.join(r["dir"], "out"))
        except (OSError, KeyError, ValueError) as exc:
            failed += n
            problems.append(f"{os.path.basename(r['dir'])}: unreadable outputs: {exc!r}")
            continue
        failed += n_failed
        problems += found
        if reference_constants is None:
            reference_constants = constants
        elif constants != reference_constants:
            problems.append("summary constants differ between jobs of one run")
    if args.seed == 0 and reference_constants is not None:
        tol = spec["constants_tolerance"]
        recorded = spec["reference_constants"].get(args.workload)
        if recorded is None:
            problems.append(f"no reference constants recorded for {args.workload}")
        else:
            problems += compare_constants(reference_constants, recorded, tol["rtol"], tol["atol"])

    ok_jobs = [r for r in jobs if "error" not in r]
    untraced = [r for r in ok_jobs if not r["trace"]]
    traced = [r for r in ok_jobs if r["trace"]]
    values = {}
    if untraced and not args.trace:
        values["wall_s"] = _median([r["wall_s"] for r in untraced])
        values["setup_s"] = _median(setups + [r["setup_s"] for r in untraced])
        values["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in untraced])
    if untraced and traced:
        for key in traced[0]["layers"]:
            values[key] = _median([r["layers"][key] for r in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - _median([r["wall_s"] for r in untraced])

    env = (ok_jobs[0] if ok_jobs else {}).get("env", {})
    print(
        f"environment: nproc={os.cpu_count()} python={env.get('python')} numpy={env.get('numpy')} "
        f"scipy={env.get('scipy')} blas={env.get('blas')!r} blas_threads={env.get('blas_threads')}"
    )
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs "
        f"({len(traced)} traced) + {len(setups)} set-up only, {time.monotonic() - t_start:.1f} s"
    )
    for m in metric_specs:
        if m["name"] in values:
            print(f"  {m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<36} {failed / max(attempted, 1):>16.6g} ({failed}/{attempted} operations)")
    if untraced:
        print(f"  {'cpu_s (diagnostic)':<36} {_median([r['cpu_s'] for r in untraced]):>16.6g} s")
        print("  untraced job wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    for p in problems:
        print(f"  problem: {p}")

    correct = not problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
