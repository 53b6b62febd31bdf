"""Acceptance gate: one test per criterion, each ending in a single
pass/fail line (the assert) with the measured values printed alongside.

All criteria run on the reference scenario — unit disk, rho = 0, quarter
circle gamma0, V2 = 0, V1 = Gaussian bump (amplitude 1, width 0.25) at
p* = 0.2 + 0.1i, ~1e4-vertex mesh, h in {0.2, 0.14, 0.1, 0.07, 0.05} —
or on the cheaper probes noted per test.  Total runtime is a few minutes.
"""

import json

import numpy as np
import pytest

from calderon import carleman as _carleman
from calderon import cgo as _cgo
from calderon import cli as _cli
from calderon import reconstruct as _rc
from calderon.forward import SchrodingerOperator, boundary_pairing
from calderon.geometry import DiskDomain, as_values, build_disk_mesh
from calderon.holo import HoloFunction, build_amplitude, build_morse_phase, cauchy_transform, find_critical_points

from conftest import P_STAR, gaussian_bump, green_apply, interior_basis, interior_integral, solve_schrodinger_dirichlet
from test_holo import dz_inversion_error


def _line(n, ok, msg):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {msg}")
    return ok


def _l2(mesh, values):
    return np.sqrt(float(np.real(interior_integral(np.abs(values) ** 2, mesh))))


# ---------------------------------------------------------------------------
# 1. forward convergence: L2 slope 2.0 +- 0.3 over three refinements


def test_criterion_01_forward_convergence(mesh_coarse, mesh_mid, mesh_fine):
    res = np.array([0.08, 0.04, 0.02])
    slopes = []
    for case in ("harmonic", "radial"):
        errs = []
        for mesh in (mesh_coarse, mesh_mid, mesh_fine):
            if case == "harmonic":
                z = mesh.vertices
                exact = np.real(z**2)  # x^2 - y^2, harmonic
                u = solve_schrodinger_dirichlet(mesh, 0.0, np.real(z[mesh.boundary] ** 2))
                errs.append(_l2(mesh, u - exact))
            else:
                exact = (1.0 - np.abs(mesh.vertices) ** 2) / 4.0
                u = green_apply(mesh, 0.0, 1.0)
                errs.append(_l2(mesh, u - exact))
        slopes.append(float(np.polyfit(np.log(res), np.log(errs), 1)[0]))
    ok = all(1.7 <= s <= 2.3 for s in slopes)
    assert _line(1, ok, f"L2 convergence slopes harmonic/radial = {slopes[0]:.3f}/{slopes[1]:.3f}, window [1.7, 2.3]")


# ---------------------------------------------------------------------------
# 2. Green-identity oracle against an independent interior quadrature


def _edge_midpoint_triple(mesh, u1, dV, u2):
    """Quadrature of u1 dV u2 by the 3-edge-midpoint rule (exact for P2),
    independent of the lumped rule the solver uses internally."""
    tri = mesh.cells
    total = 0.0
    vals = np.stack([u1, dV, u2], axis=0)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        mid = 0.5 * (vals[:, tri[:, a]] + vals[:, tri[:, b]])
        total += np.sum(mesh.cell_areas / 3.0 * mid[0] * mid[1] * mid[2])
    return float(total)


def test_criterion_02_green_identity_oracle():
    dom = DiskDomain()
    errs = []
    for res in (0.05, 0.025):
        mesh = build_disk_mesh(res, dom)
        op1 = SchrodingerOperator(mesh, gaussian_bump, name="V1")
        op2 = SchrodingerOperator(mesh, 0.0, name="V2")
        g = np.real(mesh.vertices[mesh.boundary])
        u1 = op1.solve_dirichlet(g)
        u2 = op2.solve_dirichlet(g)
        pair = boundary_pairing(
            mesh,
            (u1[mesh.boundary], op1.weak_neumann_trace(u1)),
            (u2[mesh.boundary], op2.weak_neumann_trace(u2)),
        )
        inner = _edge_midpoint_triple(mesh, u1, as_values(gaussian_bump, mesh), u2)
        errs.append(abs(complex(pair).real - inner) / abs(inner))
    factor = errs[0] / errs[1]
    ok = errs[0] <= 1e-2 and 2.5 <= factor <= 6.0
    assert _line(2, ok, f"pairing vs independent quadrature rel err {errs[0]:.2e} -> {errs[1]:.2e}, factor {factor:.2f} (want <= 1e-2, tighten ~4x)")


# ---------------------------------------------------------------------------
# 3. solid Cauchy transform: closed form + d/dz inversion


def test_criterion_03_cauchy_transform(mesh_mid, mesh_fine):
    r0 = 0.5
    f = (np.abs(mesh_mid.vertices) < r0).astype(complex)
    pts = np.array([0.2 + 0.1j, -0.3j, 0.1, 0.7 + 0.1j, -0.8])
    got = cauchy_transform(f, mesh_mid, pts)
    exact = np.where(np.abs(pts) < r0, pts, r0**2 / np.conj(pts))
    e_ind = float(np.max(np.abs(got - exact)))
    e_inv = dz_inversion_error(mesh_fine, n_points=20)
    ok = e_ind <= 1e-2 and e_inv <= 1e-2
    assert _line(3, ok, f"disk-indicator err {e_ind:.2e}, dz-inversion err {e_inv:.2e} (both <= 1e-2)")


# ---------------------------------------------------------------------------
# 4. phase/amplitude builders


def test_criterion_04_phase_builders(quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    e_arc = phi.meta["arc_residual"]
    e_crit = abs(phi.derivative()(P_STAR))
    counts_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        rep = find_critical_points(HoloFunction(coeffs))
        counts_ok &= sum(q.multiplicity for q in rep.points) == rep.count_check
    ok = e_arc <= 1e-6 and e_crit <= 1e-10 and counts_ok
    assert _line(4, ok, f"arc residual {e_arc:.1e} (<= 1e-6), |Phi'(p*)| {e_crit:.1e}, argument-principle counts exact: {counts_ok}")


# ---------------------------------------------------------------------------
# 5. CGO remainder scalings (two phase regimes on the reference mesh)


def test_criterion_05_cgo_scalings(ref_mesh, ref_scenario):
    dom = ref_scenario.domain
    exps = {}
    for psi_target, cutoff_scale in ((0.12, 1.0), (0.45, 1.9)):
        phase = build_morse_phase(dom, P_STAR, degree=36, psi_target=psi_target)
        amp = build_amplitude(phase, dom, degree=16)
        rep = _cgo.residual_scaling_report(
            ref_mesh, ref_scenario.V1, phase, amp, ref_scenario.h_list,
            cutoff_scale=cutoff_scale,
        )
        exps[psi_target] = {k: v["exponent"] for k, v in rep["exponents"].items()}
    r1 = exps[0.12]["r1_l2"]
    ansatz = exps[0.12]["ansatz_residual_l2"]
    r2 = exps[0.12]["r2_l2"]
    r1t = exps[0.45]["r1_minus_hr12t_l2"]
    ok = (0.8 <= r1 <= 1.2) and ansatz >= 0.8 and (1.3 <= r2 <= 1.7) and r1t >= 1.1
    assert _line(5, ok, f"exponents r1={r1:.3f} [0.8,1.2], ansatz={ansatz:.3f} >=0.8, r2={r2:.3f} [1.3,1.7], r1-h*r12~={r1t:.3f} >=1.1")


# ---------------------------------------------------------------------------
# 6. Carleman sweep vs frozen golden constant

C_STAR_GOLDEN = 22.417988079011536  # first certified run of this exact setup


def test_criterion_06_carleman_golden(ref_mesh, ref_scenario):
    dom = ref_scenario.domain
    phase = build_morse_phase(dom, P_STAR, degree=36, psi_target=0.12)
    weight = _carleman.build_carleman_weight(ref_mesh, phase, 1.0, degree=16)
    rep = _carleman.carleman_sweep(
        ref_mesh, weight, ref_scenario.V1, ref_scenario.h_list, sample_count=50, seed=0,
    )
    c = rep["c_star"]
    ok = c > 0 and abs(c - C_STAR_GOLDEN) <= 0.2 * C_STAR_GOLDEN
    assert _line(6, ok, f"c* = {c:.6f} vs golden {C_STAR_GOLDEN:.6f} (within 20%, positive)")


# ---------------------------------------------------------------------------
# 7. stationary-phase constant against oscillatory quadrature


def test_criterion_07_stationary_phase_constant():
    # Phi = z^2 + i, psi = 2xy + 1, g a unit Gaussian; the physical pairing
    # integrand is 2 Re e^{2 i psi/h} g, whose coefficient at the known
    # oscillation factor cos(2 psi(0)/h) is pi h g(0).
    h = 0.02
    n = 3000
    x = np.linspace(-1.0, 1.0, n)
    dx = x[1] - x[0]
    X, Y = np.meshgrid(x, x)
    g = np.exp(-(X**2 + Y**2) / 0.25**2)
    integral = np.sum(np.exp(2j * (2.0 * X * Y + 1.0) / h) * g) * dx * dx
    measured = 2.0 * integral.real / np.cos(2.0 / h)
    want = np.pi * h * 1.0
    err = abs(measured - want) / want
    ok = err <= 0.05
    assert _line(7, ok, f"coefficient {measured:.5f} vs pi*h*g(0) = {want:.5f} (rel err {err:.3f} <= 0.05)")


# ---------------------------------------------------------------------------
# 8. interior identification on the reference scenario


def test_criterion_08_interior_identification(ref_mesh, ref_scenario):
    basis = interior_basis(ref_mesh.domain)
    est = _rc.pointwise_difference(
        ref_mesh, ref_scenario.V1, ref_scenario.V2, *basis(P_STAR), ref_scenario.h_list
    )
    grid = _rc.make_grid(5, radius=0.6)
    control = _rc.difference_map(
        ref_mesh, ref_scenario.V1, ref_scenario.V1, grid, ref_scenario.h_list, basis
    )
    ctrl_max = max((abs(r["D"]) for r in control["rows"]), default=np.inf)
    dmap = _rc.difference_map(
        ref_mesh, ref_scenario.V1, ref_scenario.V2, grid, ref_scenario.h_list, basis
    )
    rows = dmap["rows"]
    got = max(rows, key=lambda r: abs(r["D"]))
    dist = abs(complex(got["x"], got["y"]) - P_STAR)
    step = 2 * 0.6 / 4
    ok = (0.8 <= est["D"] <= 1.2) and ctrl_max <= 0.05 and dist <= 2 * step and not dmap["failures"]
    assert _line(8, ok, f"D(p*) = {est['D']:.3f} in [0.8,1.2], control max |D| = {ctrl_max:.1e} <= 0.05, argmax dist {dist:.3f} <= {2*step:.2f}")


# ---------------------------------------------------------------------------
# 9. boundary determination: h^{3/2} law + calibration transfer


def test_criterion_09_boundary_determination(ref_mesh, ref_scenario):
    h_list = ref_scenario.config["boundary_h_list"]
    width = _rc.CALIBRATION_WIDTH
    cal = _rc.calibrate_boundary_constant(ref_mesh, np.pi, h_list)
    p1 = np.exp(1j * np.pi)
    V = lambda z: np.exp(-np.abs(np.asarray(z) - p1) ** 2 / width**2)
    _, e = _rc.fit_boundary_law(_rc.boundary_pairing_sweep(ref_mesh, V, 0.0, np.pi, h_list))
    theta2 = 1.3 * np.pi
    p2 = np.exp(1j * theta2)
    V2 = lambda z: 0.5 * np.exp(-np.abs(np.asarray(z) - p2) ** 2 / width**2)
    est = _rc.boundary_scan(ref_mesh, V2, 0.0, [theta2], h_list, calibration=cal)["rows"][0]
    ok = (1.35 <= e <= 1.65) and abs(est["D"] - 0.5) <= 0.25 * 0.5
    assert _line(9, ok, f"fitted exponent {e:.3f} in [1.35,1.65]; transfer estimate {est['D']:.3f} vs 0.5 within 25%")


# ---------------------------------------------------------------------------
# 10. determinism: byte-identical JSON summaries on re-run


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "determinism", "seed": 11, "resolution": 0.08}))
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        status = _cli.run_scenario(str(cfg_path), "forward", out_dir=str(out))
        assert status == 0
        blobs.append((out / "forward_summary.json").read_bytes())
    ok = blobs[0] == blobs[1]
    assert _line(10, ok, "repeated forward runs produce byte-identical JSON summaries")
