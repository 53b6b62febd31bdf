"""Exact-count self-test of the outside-in tracer.

    python3 perfbench/selftest.py

Runs traced seed-0 jobs and asserts call counts that repeat exactly at
this version of calderon.  A count that is too low means the tracer
missed an import site.  On cgo_ref it also asserts that the dense Cauchy
transform, h1_norm and the conjugated LU factorizations account for at
least 80% of the traced wall time.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_THREADS, ROOT, Runner, _child_env
from tracer import self_times
from workloads import load_spec, scenario

CASES = [
    (
        "reconstruct_ref",
        ["reconstruct"],
        {"holo.build_morse_phase": 30, "forward.SchrodingerOperator.__init__": 30, "holo.cauchy_transform": 5},
    ),
    ("cgo_ref", ["cgo"], {"holo.cauchy_transform": 10, "splu": 24, "holo.build_morse_phase": 2}),
    ("cgo_ref", ["forward"], {"forward.SchrodingerOperator.__init__": 4}),
]
HOT_SHARE = 0.8


def main() -> int:
    spec = load_spec()
    env = _child_env(BLAS_THREADS)
    failures = []
    for workload, pipelines, expected in CASES:
        name = f"selftest-{'-'.join(pipelines)}"
        runner = Runner(name, pipelines, scenario(spec, workload, 0), env, 600.0)
        r = runner.job(trace=True)
        if "error" in r:
            failures.append(f"{name}: {r['error']}")
            continue
        for span, want in expected.items():
            got = r["span_counts"].get(span, 0)
            status = "ok" if got == want else "MISMATCH"
            print(f"{name}: {span} = {got} (expected {want}) {status}")
            if got != want:
                failures.append(f"{name}: {span} = {got}, expected {want}")
        if pipelines == ["cgo"]:
            with open(os.path.join(r["dir"], "spans.json")) as fh:
                spans = json.load(fh)["spans"]
            hot = sum(
                t
                for s, t in zip(spans, self_times(spans))
                if s[0] in ("holo.cauchy_transform", "cgo.h1_norm") or (s[0] == "splu" and s[1] == "cgo")
            )
            share = hot / r["wall_s"]
            print(f"{name}: transform + h1_norm + conjugated LU self time {hot:.2f} s of {r['wall_s']:.2f} s ({share:.1%})")
            if share < HOT_SHARE:
                failures.append(f"{name}: hot share {share:.1%} < {HOT_SHARE:.0%}")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("FAILED" if failures else "passed") + f" (job files under {ROOT}/.perfbench_runs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
