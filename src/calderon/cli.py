"""Scenario-driven command-line front end.

`calderon <command> --config <path> --out <dir> [--seed S]`
with commands forward | cgo | carleman | reconstruct | boundary | all.
Every pipeline writes CSV data plus a JSON summary with PASS/FAIL checks;
outputs are deterministic given (config, seed).  This module is the one
writer of output files: the computing modules return rows and reports,
which _write_csv and _write_json write; _check_line renders each check,
detail included, for stdout and the summary table alike.  Under `all`, a
pipeline that raises is reported (on stderr, and as a FAIL check
`<pipeline>_completed` in all_summary.json) and the later pipelines still
run; a single command stops at its error.  The pipelines of one run share
the scenario mesh, which holds its stiffness matrix and factorized
operators (forward.operator), so each (mesh, potential) pair is
factorized once per run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import carleman as _carleman
from . import cgo as _cgo
from . import reconstruct as _rc
from .forward import boundary_pairing, operator
from .geometry import GAMMA, ConfigurationError, as_values
from .scenarios import Scenario, _require_schema, load_scenario

COMMANDS = ("forward", "cgo", "carleman", "reconstruct", "boundary", "all")

SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "calderon run summary",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "command", "seed", "checks", "constants"],
    "properties": {
        "name": {"type": "string"},
        "command": {"type": "string"},
        "seed": {"type": "integer"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "value": {"type": ["number", "null"]},
                    "detail": {"type": "string"},
                    "trivial": {"type": "boolean"},
                },
            },
        },
        "constants": {"type": "object"},
        "files": {"type": "array", "items": {"type": "string"}},
    },
}


def _check(name, passed, value=None, detail="", trivial=False):
    """One summary check; trivial marks a check whose input could not make
    it fail (its detail says why)."""
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = float(value)
    if detail:
        entry["detail"] = detail
    if trivial:
        entry["trivial"] = True
    return entry


def _check_line(c) -> str:
    """One check as text: status, name, value, trivial flag and detail."""
    return (
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}"
        + (f" = {c['value']!r}" if "value" in c else "")
        + (" (trivial)" if c.get("trivial") else "")
        + (f" -- {c['detail']}" if c.get("detail") else "")
    )


def _write_csv(path, header, rows) -> None:
    """Header line, then one line per row; str.format prints a Python
    float as its shortest repr, so every float reads back bit for bit."""
    line = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def emit_report(results: dict, out_dir: str, name: str) -> list:
    """Persist one pipeline's results: JSON summary (schema-validated,
    sorted keys, stable float repr) and a human-readable table.  name is
    the pipeline (or "all"), and the summary's command."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "name": results.get("name", name),
        "command": name,
        "seed": int(results.get("seed", 0)),
        "checks": results.get("checks", []),
        "constants": results.get("constants", {}),
        "files": sorted(os.path.basename(f) for f in results.get("files", [])),
    }
    _require_schema(summary, SUMMARY_SCHEMA, ValueError, "invalid run summary")
    json_path = os.path.join(out_dir, f"{name}_summary.json")
    _write_json(json_path, summary)
    txt_path = os.path.join(out_dir, f"{name}_summary.txt")
    with open(txt_path, "w") as fh:
        fh.write(f"scenario: {summary['name']}   command: {summary['command']}   seed: {summary['seed']}\n")
        fh.writelines(_check_line(c) + "\n" for c in summary["checks"])
        for key in sorted(summary["constants"]):
            fh.write(f"constant {key} = {summary['constants'][key]!r}\n")
    return [json_path, txt_path]


def _mesh_export(sc: Scenario, out_dir: str) -> list:
    mesh = sc.build_mesh()
    vpath = os.path.join(out_dir, "mesh_vertices.csv")
    g0 = np.zeros(mesh.n_vertices, dtype=bool)
    g0[mesh.boundary] = mesh.boundary_is_gamma0
    # plain Python scalars from tolist(), as _write_csv formats them
    rows = zip(
        range(mesh.n_vertices),
        mesh.vertices.real.tolist(),
        mesh.vertices.imag.tolist(),
        mesh.is_boundary.astype(int).tolist(),
        g0.astype(int).tolist(),
    )
    _write_csv(vpath, ("index", "x", "y", "is_boundary", "is_gamma0"), rows)
    cpath = os.path.join(out_dir, "mesh_cells.csv")
    _write_csv(cpath, ("v0", "v1", "v2"), mesh.cells.tolist())
    return [vpath, cpath]


def run_forward(sc: Scenario, out_dir: str) -> dict:
    mesh = sc.build_mesh()
    files = _mesh_export(sc, out_dir)
    on_gamma = ~mesh.boundary_is_gamma0
    f = np.real(mesh.vertices[mesh.gamma_indices()])
    g = np.zeros(len(mesh.boundary))
    g[on_gamma] = f
    # Cauchy data rows on gamma: angle, the real Dirichlet datum f (zero on
    # gamma0), then each potential's Neumann trace and the arc label
    header = ("theta", "dirichlet_re", "dirichlet_im", "neumann_re", "neumann_im", "arc_label")
    dirichlet = (mesh.boundary_theta()[on_gamma].tolist(), f.tolist(), [0.0] * len(f))
    # one solve per potential gives both its partial Cauchy data and its
    # full-boundary traces for the Green-identity cross-check
    traces = []
    for tag, V in (("v1", sc.V1), ("v2", sc.V2)):
        op = operator(mesh, V, name=tag.upper())
        u = op.solve_dirichlet(g)
        dn = op.weak_neumann_trace(u)
        path = os.path.join(out_dir, f"cauchy_{tag}.csv")
        nn = dn[on_gamma].astype(complex)
        _write_csv(path, header, zip(*dirichlet, nn.real.tolist(), nn.imag.tolist(), [GAMMA] * len(f)))
        files.append(path)
        traces.append((u, dn))
    (u1, dn1), (u2, dn2) = traces
    pair = boundary_pairing(mesh, (u1[mesh.boundary], dn1), (u2[mesh.boundary], dn2))
    dV = as_values(sc.V1, mesh) - as_values(sc.V2, mesh)
    inner = complex(np.sum(mesh.mass * u1 * dV * u2))
    scale = max(abs(inner), np.max(np.abs(u1)) * np.max(np.abs(u2)))
    err = float(abs(pair - inner) / scale)
    return {
        "checks": [_check("green_identity_relative_error", err <= 1e-2, err)],
        "constants": {
            "n_vertices": mesh.n_vertices,
            "resolution": mesh.resolution,
            "green_identity_error": err,
        },
        "files": files,
    }


_CGO_WINDOWS = {
    # criterion windows: which exponent, from which regime (index), and bounds
    "r1_l2": (0, 0.8, 1.2),
    "ansatz_residual_l2": (0, 0.8, np.inf),
    "r2_l2": (0, 1.3, 1.7),
    "r1_minus_hr12t_l2": (1, 1.1, np.inf),
}


def run_cgo(sc: Scenario, out_dir: str) -> dict:
    mesh = sc.build_mesh()
    cfg = sc.config
    reports = []
    files = []
    for k, regime in enumerate(cfg["cgo_regimes"]):
        phase = sc.phase(sc.point, regime["psi_target"])
        rep = _cgo.residual_scaling_report(
            mesh, sc.V1, phase, sc.amplitude(phase), sc.h_list, cutoff_scale=regime["cutoff_scale"],
        )
        csv_path = os.path.join(out_dir, f"cgo_scaling_{k}.csv")
        json_path = os.path.join(out_dir, f"cgo_scaling_{k}.json")
        rows = ((r["h"], key, val) for r in rep["norms"] for key, val in r.items() if key != "h")
        _write_csv(csv_path, ("h", "norm_name", "value"), rows)
        _write_json(json_path, rep)
        reports.append(rep)
        files += [csv_path, json_path]
    checks = []
    constants = {}
    for key, (idx, lo, hi) in _CGO_WINDOWS.items():
        detail = f"window [{lo}, {hi}]"
        if idx >= len(reports):
            checks.append(_check(f"exponent_{key}", False, detail=f"{detail}; cgo_regimes[{idx}] is not configured"))
            continue
        fit = reports[idx]["exponents"][key]
        e = fit["exponent"]
        constants[f"exponent_{key}_regime{idx}"] = e
        ok = e is not None and lo <= e <= hi
        if fit["exact_zero"]:
            detail += "; no exponent fitted: b = 0 and the remainders vanish identically"
        checks.append(_check(f"exponent_{key}", ok, e, detail=detail))
    return {"checks": checks, "constants": constants, "files": files}


def run_carleman(sc: Scenario, out_dir: str) -> dict:
    mesh = sc.build_mesh()
    cfg = sc.config
    phase = sc.phase(sc.point, cfg["carleman_psi_target"])
    weight = _carleman.build_carleman_weight(mesh, phase, cfg["epsilon"], degree=cfg["degree"])
    rep = _carleman.carleman_sweep(
        mesh, weight, sc.V1, sc.h_list, sample_count=cfg["carleman_samples"], seed=sc.seed,
    )
    csv_path = os.path.join(out_dir, "carleman_sweep.csv")
    json_path = os.path.join(out_dir, "carleman_report.json")
    _write_csv(csv_path, ("h", "sample_id", "lhs", "rhs", "ratio"), rep.pop("rows"))
    _write_json(json_path, rep)
    conv = _carleman.convexity_check(weight, mesh, min(sc.h_list))
    bound = 0.05
    checks = [
        _check("carleman_min_ratio_positive", rep["pass"], rep["c_star"]),
        _check("convexified_weight_identity", conv <= bound, conv, detail=f"bound {bound}"),
    ]
    constants = {
        "c_star": rep["c_star"],
        "epsilon": rep["epsilon"],
        "gradient_sq_min": weight.meta["gradient_sq_min"],
        "convexity_check": conv,
    }
    return {"checks": checks, "constants": constants, "files": [csv_path, json_path]}


def run_reconstruct(sc: Scenario, out_dir: str) -> dict:
    mesh = sc.build_mesh()
    cfg = sc.config

    def basis(p, scale=1.0):
        phase = sc.phase(p, scale * cfg["psi_target"])
        return phase, sc.amplitude(phase)

    est = _rc.pointwise_difference(mesh, sc.V1, sc.V2, *basis(sc.point), sc.h_list)
    true_p = float(np.real(_eval_potential(sc.V1, sc.point) - _eval_potential(sc.V2, sc.point)))
    grid = _rc.make_grid(cfg["grid_n"], cfg["grid_radius"])
    dmap = _rc.difference_map(mesh, sc.V1, sc.V2, grid, sc.h_list, basis)
    header = ("x", "y", "D", "fit_residual", "abs_a_p", "C_p", "psi_p")
    csv_path = os.path.join(out_dir, "difference_map.csv")
    _write_csv(csv_path, header, ([r[k] for k in header] for r in dmap["rows"]))
    checks = [
        _check(
            "pointwise_difference_accuracy",
            abs(est["D"] - true_p) <= 0.2 * max(1.0, abs(true_p)),
            est["D"],
            detail=f"true value {true_p!r}",
        )
    ]
    if dmap["rows"]:
        true_vals = np.array([
            abs(_eval_potential(sc.V1, complex(r["x"], r["y"])) - _eval_potential(sc.V2, complex(r["x"], r["y"])))
            for r in dmap["rows"]
        ])
        got_vals = np.array([abs(r["D"]) for r in dmap["rows"]])
        if np.max(true_vals) > 1e-12:
            p_true = dmap["rows"][int(np.argmax(true_vals))]
            p_got = dmap["rows"][int(np.argmax(got_vals))]
            step = 2.0 * cfg["grid_radius"] / max(cfg["grid_n"] - 1, 1)
            dist = np.hypot(p_true["x"] - p_got["x"], p_true["y"] - p_got["y"])
            checks.append(_check("difference_map_argmax", dist <= 2.0 * step + 1e-12, dist))
    return {
        "checks": checks,
        "constants": {
            "D_point": est["D"],
            "true_point_value": true_p,
            "C_p": est["model"].C_p,
            "psi_p": est["model"].psi_p,
            "map_failures": len(dmap["failures"]),
        },
        "files": [csv_path],
    }


def _eval_potential(V, p) -> float:
    if callable(V):
        return float(np.real(V(np.array([complex(p)]))[0]))
    return float(V)


def run_boundary(sc: Scenario, out_dir: str) -> dict:
    mesh = sc.build_mesh()
    cfg = sc.config
    theta_p = float(cfg["theta_p"])
    h_list = cfg["boundary_h_list"]
    cal = _rc.calibrate_boundary_constant(mesh, theta_p, h_list)
    thetas = [theta_p - 0.5, theta_p, theta_p + 0.5]
    scan = _rc.boundary_scan(mesh, sc.V1, sc.V2, thetas, h_list, calibration=cal)
    header = ("theta", "D", "fitted_exponent")
    csv_path = os.path.join(out_dir, "boundary_scan.csv")
    _write_csv(csv_path, header, ([r[k] for k in header] for r in scan["rows"]))
    row = next((r for r in scan["rows"] if abs(r["theta"] - theta_p) < 1e-12), None)
    checks = []
    constants = {"calibration": cal, "scan_failures": len(scan["failures"])}
    if row is not None:
        true_p = _eval_potential(sc.V1, np.exp(1j * theta_p)) - _eval_potential(sc.V2, np.exp(1j * theta_p))
        detail = f"true value {true_p!r}"
        if row["below_noise_floor"]:
            detail += (
                "; trivial: the pairing is below the noise floor, so D = 0 is "
                "reported without fitting the h^(3/2) law"
            )
        checks.append(
            _check(
                "boundary_value_estimate",
                abs(row["D"] - true_p) <= max(0.25 * abs(true_p), 0.05),
                row["D"],
                detail=detail,
                trivial=row["below_noise_floor"],
            )
        )
        constants["D_boundary"] = row["D"]
    else:
        error = next(f["error"] for f in scan["failures"] if abs(f["theta"] - theta_p) < 1e-12)
        checks.append(_check("boundary_value_estimate", False, detail=f"recovery failed at theta_p: {error}"))
    return {"checks": checks, "constants": constants, "files": [csv_path]}


_PIPELINES = {
    "forward": run_forward,
    "cgo": run_cgo,
    "carleman": run_carleman,
    "reconstruct": run_reconstruct,
    "boundary": run_boundary,
}


def run_scenario(config_path, command: str, out_dir: str = None, seed: int = None) -> int:
    """Run one pipeline (or all) for a scenario config; returns exit status."""
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    out_dir = os.environ.get("CALDERON_OUT") or out_dir or "."
    sc = load_scenario(config_path)
    if seed is not None:
        sc.config["seed"] = int(seed)
    os.makedirs(out_dir, exist_ok=True)
    names = list(_PIPELINES) if command == "all" else [command]
    all_checks = []
    written = []
    for name in names:
        try:
            results = _PIPELINES[name](sc, out_dir)
            results["name"] = sc.name
            results["seed"] = sc.seed
            written += emit_report(results, out_dir, name)
        except Exception as exc:
            if command != "all":
                exc.stage = name  # main() prints it; an untagged error is the config's
                raise
            print(f"error: {name}: {exc}", file=sys.stderr)
            all_checks.append(_check(f"{name}_completed", False, detail=f"{type(exc).__name__}: {exc}"))
            continue
        all_checks += results["checks"]
    if command == "all":
        combined = {
            "name": sc.name,
            "seed": sc.seed,
            "checks": all_checks,
            "constants": {},
            "files": written,
        }
        written += emit_report(combined, out_dir, "all")
    for c in all_checks:
        print(_check_line(c))
    return 0 if all(c["passed"] for c in all_checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calderon",
        description="partial-data Calderon problem laboratory on the unit disk",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario config JSON path")
    parser.add_argument("--out", default=".", help="output directory (env CALDERON_OUT overrides)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    args = parser.parse_args(argv)
    try:
        return run_scenario(args.config, args.command, out_dir=args.out, seed=args.seed)
    except Exception as exc:  # infeasible stage: nonzero exit, stage and error verbatim
        print(f"error: {getattr(exc, 'stage', 'config')}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
