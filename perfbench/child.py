"""One benchmark job in a fresh process.

    python3 perfbench/child.py <job.json> <launch time on time.monotonic()>

The driver starts this script once per job with a fixed BLAS thread
count and ``src`` on PYTHONPATH.  Set-up is timed from the launch time the
driver passes in to a built mesh, so it covers interpreter start, importing
calderon, ``load_scenario`` and ``build_mesh``.  Unless the job is set-up
only, the script then runs the job's pipelines the way ``calderon <cmd>``
does (``run_<cmd>`` then ``emit_report``) and times them.  With tracing on,
the outside-in tracer wraps the package before the scenario is loaded.
The result goes to ``result.json`` in the job directory, also when the
pipeline raises.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _bytes_written(out_dir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


def run(job: dict, t_launch: float, result: dict) -> None:
    import calderon
    from calderon import cli

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=job["run_id"])
        tracer.install()
    result["source"] = os.path.dirname(os.path.abspath(calderon.__file__))
    sc = calderon.load_scenario(job["config"])
    mesh = sc.build_mesh()
    result["setup_s"] = time.monotonic() - t_launch
    result["config"] = sc.config
    result["env"] = _environment()
    if job["setup_only"]:
        return
    out_dir = os.path.join(job["dir"], "out")
    os.makedirs(out_dir, exist_ok=True)
    cpu0 = os.times()
    t0 = time.perf_counter()
    for name in job["pipelines"]:
        results = getattr(cli, f"run_{name}")(sc, out_dir)
        results["name"] = sc.name
        results["seed"] = sc.seed
        cli.emit_report(results, out_dir, name)
    result["wall_s"] = time.perf_counter() - t0
    cpu1 = os.times()
    result["cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.write(os.path.join(job["dir"], "spans.json"))
        reports = []
        if "carleman" in job["pipelines"]:
            with open(os.path.join(out_dir, "carleman_report.json")) as fh:
                reports.append(json.load(fh))
        result["layers"] = layer_metrics(
            tracer, result["wall_s"], mesh.n_vertices, _bytes_written(out_dir), reports
        )
        counts = {}
        for span in tracer.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        result["span_counts"] = counts


def main() -> int:
    job_path, t_launch = sys.argv[1], float(sys.argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    result = {}
    try:
        run(job, t_launch, result)
    except Exception:
        result["error"] = traceback.format_exc()
    tmp = os.path.join(job["dir"], "result.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, os.path.join(job["dir"], "result.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
