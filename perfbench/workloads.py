"""Workload scenarios, operation counts and output checks.

Standard library only: the driver process never imports calderon, so its
own start-up does not touch the measured children.  Everything a workload
is made of (its scenario at seed 0, the perturbation ranges of other
seeds, the reference constants and their tolerance) lives in spec.json.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import random

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def scenario(spec: dict, workload: str, seed: int) -> dict:
    """The scenario config a workload runs at a seed.

    Seed 0 is the workload's fixed scenario.  Other seeds draw the V1 bump
    (and, where the workload names one, the accessible-arc point theta_p the
    bump sits on) uniformly from the ranges in spec.json, so the mesh and
    the amount of work stay those of seed 0.
    """
    w = spec["workloads"][workload]
    cfg = copy.deepcopy(w["scenario"])
    if seed == 0:
        return cfg
    rng = random.Random(f"{workload}/{seed}")
    pr = w["perturb"]
    v1 = copy.deepcopy(pr["v1"])
    v1["amplitude"] = rng.uniform(*pr["amplitude"])
    if "width" in pr:
        v1["width"] = rng.uniform(*pr["width"])
    if "center_offset" in pr:
        d = pr["center_offset"]
        v1["center"] = [c + rng.uniform(-d, d) for c in v1["center"]]
    if "theta_p" in pr:
        theta = rng.uniform(*pr["theta_p"])
        cfg["theta_p"] = theta
        v1["center"] = [math.cos(theta), math.sin(theta)]
    cfg["v1"] = v1
    cfg["seed"] = seed
    return cfg


def _grid_size(n: int, radius: float) -> int:
    """Number of points reconstruct.make_grid(n, radius) returns."""
    xs = [-radius + 2.0 * radius * i / (n - 1) for i in range(n)] if n > 1 else [-radius]
    return sum(1 for x in xs for y in xs if math.hypot(x, y) <= radius + 1e-12)


def expected_operations(pipelines: list, config: dict) -> int:
    """Operations a run attempts, from the resolved scenario config."""
    n = 0
    for name in pipelines:
        if name == "cgo":
            n += len(config["cgo_regimes"]) * len(set(config["h_list"]))
        elif name == "reconstruct":
            n += 1 + _grid_size(config["grid_n"], config["grid_radius"])
        elif name == "forward":
            n += 1
        elif name == "boundary":
            n += 3  # theta_p and theta_p -+ 0.5, as cli.run_boundary scans
        elif name == "carleman":
            n += len(set(config["h_list"]))
    return n


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def check_outputs(pipelines: list, config: dict, out_dir: str) -> tuple:
    """Count failed operations and collect problems from a run's outputs.

    Returns (failed, problems, constants): failed operations, a list of
    messages (a FAILed check, or outputs that disagree with the operation
    count), and the summary constants per pipeline.
    """
    failed = 0
    problems = []
    constants = {}
    for name in pipelines:
        summary = _load(out_dir, f"{name}_summary.json")
        constants[name] = summary["constants"]
        problems += [f"{name}: check {c['name']} FAIL" for c in summary["checks"] if not c["passed"]]
        if name == "cgo":
            h_all = set(config["h_list"])
            for k in range(len(config["cgo_regimes"])):
                used = set(_load(out_dir, f"cgo_scaling_{k}.json")["h_list"])
                failed += len(h_all - used)
        elif name == "reconstruct":
            misses = summary["constants"]["map_failures"]
            with open(os.path.join(out_dir, "difference_map.csv")) as fh:
                rows = sum(1 for _ in csv.DictReader(fh))
            n_grid = _grid_size(config["grid_n"], config["grid_radius"])
            if rows + misses != n_grid:
                problems.append(f"reconstruct: {rows} map rows + {misses} failures != {n_grid} grid points")
            failed += misses
        elif name == "forward":
            failed += sum(1 for c in summary["checks"] if not c["passed"])
        elif name == "boundary":
            failed += summary["constants"]["scan_failures"]
        elif name == "carleman":
            failed += len(_load(out_dir, "carleman_report.json")["skipped"])
    return failed, problems, constants


def compare_constants(got: dict, want: dict, rtol: float, atol: float) -> list:
    """Problems where summary constants differ from recorded ones."""
    problems = []
    for pipeline, ref in want.items():
        for key, w in ref.items():
            g = got.get(pipeline, {}).get(key)
            if w is None or g is None:
                ok = g is None and w is None
            else:
                ok = abs(g - w) <= atol + rtol * abs(w)
            if not ok:
                problems.append(f"{pipeline}: constant {key} = {g!r}, recorded {w!r}")
    return problems
