import csv

import numpy as np
import pytest

from calderon import cgo as _cgo
from calderon import cli as _cli
from calderon import reconstruct as _rc
from calderon.forward import boundary_pairing, operator
from calderon.geometry import as_values, build_disk_mesh
from calderon.holo import HoloFunction, build_amplitude, build_morse_phase, find_critical_points

from conftest import P_STAR, CountingLU, gaussian_bump, interior_basis, oscillatory_integral, per_h_slow_amplitude


# ---------------------------------------------------------------------------
# stationary-phase constant


def _phase_at(coeffs, p):
    """Phase with the given coefficients, p and its critical-point report in meta."""
    phase = HoloFunction(coeffs, meta={"p": p})
    phase.meta["critical_points"] = find_critical_points(phase)
    return phase


def test_constant_for_parabola_phase():
    phase = _phase_at([1j, 0.0, 1.0], 0.0j)  # z^2 + i, critical point 0, Phi'' = 2
    m = _rc.stationary_phase_constant(phase, HoloFunction([1.0]))
    assert m.C_p == pytest.approx(np.pi)
    assert m.psi_p == pytest.approx(1.0)
    assert m.hess_abs == pytest.approx(2.0)


def test_constant_scales_with_hessian():
    phase = _phase_at([1j, 0.0, 2.0], 0.0j)  # Phi'' = 4
    m = _rc.stationary_phase_constant(phase, HoloFunction([1.0]))
    assert m.C_p == pytest.approx(np.pi / 2.0)


def test_constant_rejects_noncritical_point():
    phase = _phase_at([1j, 0.0, 1.0], 0.3 + 0.0j)
    with pytest.raises(_rc.ReconstructionError):
        _rc.stationary_phase_constant(phase, HoloFunction([1.0]))


def test_constant_rejects_degenerate_point():
    phase = _phase_at([1j, 0.0, 0.0, 1.0], 0.0j)  # z^3 + i, degenerate at 0
    with pytest.raises(_rc.ReconstructionError):
        _rc.stationary_phase_constant(phase, HoloFunction([1.0]))


@pytest.mark.parametrize(
    "coeffs",
    [
        # |Phi''(0)| = 5e-9: degenerate by the absolute test, not relative to max|c| = 1e-3
        [1e-3j, 0.0, 2.5e-9],
        # |Phi''(0)| = 2e-7: nondegenerate by the absolute test, degenerate relative to max|c| = 100
        [1j, 0.0, 1e-7] + [0.0] * 9 + [100.0],
    ],
)
def test_constant_agrees_with_the_report_on_degeneracy(coeffs):
    """stationary_phase_constant raises exactly when the phase's report has
    no point at p or calls it degenerate; otherwise C_p = 2 pi / |Phi''(p)|."""
    phase = _phase_at(coeffs, 0.0j)
    q = phase.meta["critical_points"].primary(0.0j)
    if q is None or q.degenerate:
        with pytest.raises(_rc.ReconstructionError):
            _rc.stationary_phase_constant(phase, HoloFunction([1.0]))
    else:
        m = _rc.stationary_phase_constant(phase, HoloFunction([1.0]))
        assert m.C_p == 2.0 * np.pi / abs(phase.derivative(2)(0.0j))


def test_oscillatory_oracle_matches_leading_term():
    """Tensor-grid quadrature of e^{2 i psi/h} g against pi h g(0) / |Phi''|
    for Phi = z^2 + i (psi = 2xy + 1) at h = 0.02."""
    h = 0.02
    n = 3000
    x = np.linspace(-1.0, 1.0, n)
    dx = x[1] - x[0]
    X, Y = np.meshgrid(x, x)
    g = np.exp(-(X**2 + Y**2) / 0.25**2)
    val = np.sum(np.exp(2j * (2.0 * X * Y + 1.0) / h) * g) * dx * dx
    want = np.pi * h * 1.0 / 2.0
    assert abs(abs(val) - want) <= 0.05 * want


def test_oscillatory_integral_decays_in_h(mesh_mid):
    phase = HoloFunction([1j, 0.0, 1.0])
    g = lambda z: np.exp(-np.abs(z) ** 2 / 0.25**2)
    big = abs(oscillatory_integral(g, phase, 0.2, mesh_mid))
    small = abs(oscillatory_integral(g, phase, 0.05, mesh_mid))
    assert small <= 0.5 * big


# ---------------------------------------------------------------------------
# model fit


def test_fit_recovers_synthetic_coefficients():
    psi_p = 0.8
    h = np.array([0.2, 0.17, 0.14, 0.12, 0.1, 0.08, 0.07, 0.06, 0.05])
    S = 0.3 + 1.2 * h + 0.7 * h * np.cos(2 * psi_p / h)
    fit = _rc.fit_pairing_model(h, S, psi_p)
    assert fit["A"] == pytest.approx(0.3, abs=1e-8)
    assert fit["B"] == pytest.approx(1.2, abs=1e-8)
    assert fit["C"] == pytest.approx(0.7, abs=1e-8)
    assert fit["residual"] <= 1e-10


def test_fit_needs_four_points():
    with pytest.raises(_rc.ReconstructionError):
        _rc.fit_pairing_model([0.2, 0.1, 0.05], [0.0, 0.0, 0.0], 0.8)


def test_fit_rejects_short_oscillation_span():
    # psi so small that the h list covers well under two periods
    with pytest.raises(_rc.ReconstructionError):
        _rc.fit_pairing_model([0.2, 0.14, 0.1, 0.07, 0.05], np.zeros(5), 0.05)


# ---------------------------------------------------------------------------
# interior pointwise recovery (reference scenario)


@pytest.fixture(scope="module")
def ref_estimate(ref_mesh, ref_scenario):
    return _rc.pointwise_difference(
        ref_mesh, ref_scenario.V1, ref_scenario.V2, *interior_basis(ref_mesh.domain)(P_STAR), ref_scenario.h_list,
    )


def _per_h_pairings(mesh, V1, V2, phase, amplitude, h_list):
    """Reference S(h): a, a0 and r11 re-evaluated on the mesh for every h
    and side (conftest.per_h_slow_amplitude)."""
    mirror = HoloFunction(-np.asarray(phase.coeffs), meta=dict(phase.meta))
    cgo1 = _cgo.prepare_cgo(mesh, V1, phase, amplitude)
    cgo2 = _cgo.prepare_cgo(mesh, V2, mirror, amplitude)
    z = mesh.vertices
    w_area = mesh.vertex_areas * np.exp(2.0 * mesh.rho_v)
    dV = as_values(V1, mesh) - as_values(V2, mesh)
    psi = np.imag(phase(z))
    out = []
    for h in h_list:
        A1 = per_h_slow_amplitude(cgo1, h)
        A2 = per_h_slow_amplitude(cgo2, h)
        osc = np.exp(1j * psi / h)
        u1w = osc * A1
        u2w = np.conj(osc) * A2
        u1w = u1w + np.conj(u1w)
        u2w = u2w + np.conj(u2w)
        out.append(complex(np.sum(w_area * dV * u1w * u2w)))
    return out


def test_cgo_pairings_evaluate_amplitudes_once(quarter_mesh_mid, quarter_domain, monkeypatch):
    """Over a whole cgo_pairings call, a and each side's a0 are sampled on
    the mesh once per CGO, and never per h; S(h) is bitwise that of
    re-sampling them for every h."""
    mesh, dom = quarter_mesh_mid, quarter_domain
    phase = build_morse_phase(dom, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, dom)
    h_list = [0.3, 0.25, 0.2]
    want = _per_h_pairings(mesh, gaussian_bump, 0.0, phase, amplitude, h_list)

    sampled, cgos = [], []
    call, prepare = HoloFunction.__call__, _cgo.prepare_cgo

    def logging_call(self, z):
        if np.shape(z) == (mesh.n_vertices,):
            sampled.append(self)
        return call(self, z)

    def logging_prepare(*args, **kwargs):
        cgos.append(prepare(*args, **kwargs))
        return cgos[-1]

    monkeypatch.setattr(HoloFunction, "__call__", logging_call)
    monkeypatch.setattr(_cgo, "prepare_cgo", logging_prepare)
    got = _rc.cgo_pairings(mesh, gaussian_bump, 0.0, phase, amplitude, h_list)
    assert len(cgos) == 2
    assert sum(fn is amplitude for fn in sampled) == len(cgos)
    for cgo in cgos:
        assert sum(fn is cgo.a0 for fn in sampled) == 1
    assert got == want


@pytest.mark.parametrize(
    "include_r1, v2_scale, n_sweeps", [(False, 0.5, 0), (True, 0.0, 1), (True, 0.5, 2)]
)
def test_cgo_pairings_sweep_r11_once_per_cgo_with_potential(
    quarter_mesh_mid, quarter_domain, monkeypatch, include_r1, v2_scale, n_sweeps
):
    """cgo_pairings makes no Cauchy transform with include_r1=False, and
    one, of every h at once, per CGO with b != 0 when it is set: V2 = 0
    gives its CGO b = 0."""
    mesh, dom = quarter_mesh_mid, quarter_domain
    phase = build_morse_phase(dom, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, dom)
    sweeps = []
    transform = _cgo._cauchy_transform_columns

    def counting_transform(F, *args, **kwargs):
        sweeps.append(len(F))
        return transform(F, *args, **kwargs)

    monkeypatch.setattr(_cgo, "_cauchy_transform_columns", counting_transform)
    h_list = [0.3, 0.25, 0.2]
    V2 = lambda z: v2_scale * gaussian_bump(z)
    _rc.cgo_pairings(mesh, gaussian_bump, V2, phase, amplitude, h_list, include_r1=include_r1)
    assert sweeps == [len(h_list)] * n_sweeps


def test_interior_recovery_at_primary_point(ref_estimate):
    # (V1 - V2)(p*) = 1 for the reference bump
    assert 0.8 <= ref_estimate["D"] <= 1.2


def test_interior_control_identical_potentials(ref_mesh, ref_scenario):
    est = _rc.pointwise_difference(
        ref_mesh, ref_scenario.V1, ref_scenario.V1, *interior_basis(ref_mesh.domain)(P_STAR), ref_scenario.h_list,
    )
    # the interior pairing weight (V1 - V2) vanishes identically
    assert est["D"] == 0.0


def test_interior_estimate_scales_with_amplitude(ref_mesh, ref_scenario, ref_estimate):
    V_half = lambda z: 0.5 * gaussian_bump(z)
    est = _rc.pointwise_difference(ref_mesh, V_half, 0.0, *interior_basis(ref_mesh.domain)(P_STAR), ref_scenario.h_list)
    assert est["D"] == pytest.approx(0.5 * ref_estimate["D"], rel=0.2)


def test_subsequence_mode_cross_checks_fit(ref_mesh, ref_scenario, ref_estimate, monkeypatch):
    """Both subsequences are paired on one CGO per side: 2 prepare_cgo calls."""
    calls = []
    prepare = _cgo.prepare_cgo
    monkeypatch.setattr(_cgo, "prepare_cgo", lambda *args, **kwargs: calls.append(1) or prepare(*args, **kwargs))
    est = _rc.pointwise_difference(
        ref_mesh, ref_scenario.V1, ref_scenario.V2,
        *interior_basis(ref_mesh.domain)(P_STAR), ref_scenario.h_list, mode="subsequence",
    )
    assert est["D"] == pytest.approx(ref_estimate["D"], abs=0.2)
    assert len(calls) == 2


def test_difference_map_localizes_bump(ref_mesh, ref_scenario):
    pts = _rc.make_grid(3, radius=0.3)
    out = _rc.difference_map(
        ref_mesh, ref_scenario.V1, ref_scenario.V2,
        pts, ref_scenario.h_list, interior_basis(ref_mesh.domain),
    )
    assert not out["failures"]
    rows = out["rows"]
    assert len(rows) == len(pts)
    got = max(rows, key=lambda r: r["D"])
    true_vals = [gaussian_bump(complex(r["x"], r["y"])) for r in rows]
    want = rows[int(np.argmax(true_vals))]
    assert (got["x"], got["y"]) == (want["x"], want["y"])


def test_difference_map_records_a_point_the_basis_refuses(quarter_domain):
    """A basis that refuses a point with ConfigurationError (no Morse phase
    at |p| >= 0.98) costs that point alone: it is a failure naming the
    reason, and the map goes on.  So is a point the mesh cannot resolve:
    on the 0.08 mesh, (0.2, 0) needs a psi so low that the h list spans
    too few periods; the 0.04 mesh recovers it."""
    h_list = [0.2, 0.14, 0.1, 0.07, 0.05]
    coarse = _rc.difference_map(
        build_disk_mesh(0.08, quarter_domain), gaussian_bump, 0.0, [0.2, 0.99], h_list, interior_basis(quarter_domain)
    )
    assert coarse["rows"] == []
    unresolved, refused = coarse["failures"]
    assert (unresolved["x"], unresolved["y"]) == (0.2, 0.0)
    assert "spans only 1.18 periods" in unresolved["error"]
    assert (refused["x"], refused["y"]) == (0.99, 0.0)
    assert "interior to the disk" in refused["error"]
    out = _rc.difference_map(
        build_disk_mesh(0.04, quarter_domain), gaussian_bump, 0.0, [0.2, 0.99], h_list, interior_basis(quarter_domain)
    )
    assert [(r["x"], r["y"]) for r in out["rows"]] == [(0.2, 0.0)]
    (failure,) = out["failures"]
    assert (failure["x"], failure["y"]) == (0.99, 0.0)
    assert "interior to the disk" in failure["error"]


def test_difference_map_points_r11_sweep_would_refuse(ref_mesh, ref_scenario):
    """The r11 floor at the reference psi 0.8: on the reference map exactly
    five of the 29 grid points have a floor above the smallest h = 0.05,
    and the point estimate's is 0.0406.  difference_map rebuilds those
    five at a lower psi.  Floors only, no pairing."""
    cfg = ref_scenario.config
    h_min = min(ref_scenario.h_list)
    assert h_min == 0.05

    def bound(p):
        """The least resolvable h at p: resolution times phase_slope, 2
        max|Phi'| over supp chi1 with the cutoffs at scale 1."""
        phase = ref_scenario.phase(p, cfg["psi_target"])
        return ref_mesh.resolution * _cgo.phase_slope(ref_mesh, phase, 1.0)

    grid = _rc.make_grid(cfg["grid_n"], cfg["grid_radius"])
    assert len(grid) == 29
    refused = {}
    for p in grid:
        b = bound(p)
        if b > h_min:
            refused[(round(p.real, 12), round(p.imag, 12))] = (p, b)
    assert sorted(refused) == [(0.0, 0.6), (0.2, 0.4), (0.4, 0.2), (0.4, 0.4), (0.6, 0.0)]
    refused_bounds = [b for _, b in refused.values()]
    assert min(refused_bounds) == pytest.approx(0.0606, abs=5e-5)
    assert max(refused_bounds) == pytest.approx(0.0795, abs=5e-5)
    assert bound(ref_scenario.point) == pytest.approx(0.0406, abs=5e-5)
    # the restated bound is the pairing's own: it refuses h = 0.05 at (0.4, 0.4) naming it
    p, b = refused[(0.4, 0.4)]
    phase = ref_scenario.phase(p, cfg["psi_target"])
    with pytest.raises(_cgo.ResolvabilityError, match=f"need h >= {b:.3g}"):
        _rc.pointwise_difference(ref_mesh, ref_scenario.V1, ref_scenario.V2, phase, ref_scenario.amplitude(phase), [h_min])


def test_pairing_without_r1_refuses_an_unresolvable_h(quarter_mesh_mid, quarter_domain):
    """pointwise_difference applies the rule without r1 as well: an h below
    the floor raises, naming it, before any CGO is built."""
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, quarter_domain)
    *_, floor = _cgo.resolvable_h(
        quarter_mesh_mid, [], _cgo.phase_slope(quarter_mesh_mid, phase), _cgo.PHASE_PER_CELL
    )
    assert 1e-3 < floor < 0.1
    with pytest.raises(_cgo.ResolvabilityError, match=f"^mesh cannot resolve h = 0.001: need h >= {floor:.3g}$"):
        _rc.pointwise_difference(
            quarter_mesh_mid, gaussian_bump, 0.0, phase, amplitude, [0.3, 0.2, 0.14, 0.1, 1e-3], include_r1=False
        )


def test_reference_map_recovers_every_point(ref_scenario, tmp_path):
    """The reference map, as `calderon reconstruct` writes it, recovers all
    29 points within max |D - truth| <= 0.1 and rms <= 0.05 (measured 0.089
    and 0.046).  The five points whose floor at psi 0.8 lies above
    h = 0.05 carry a lower psi in the psi_p column; the others keep 0.8."""
    results = _cli.run_reconstruct(ref_scenario, str(tmp_path))
    assert results["constants"]["map_failures"] == 0
    with open(tmp_path / "difference_map.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 29
    z = np.array([complex(float(r["x"]), float(r["y"])) for r in rows])
    V2 = ref_scenario.V2
    truth = np.real(ref_scenario.V1(z) - (V2(z) if callable(V2) else V2))
    err = np.abs(np.array([float(r["D"]) for r in rows]) - truth)
    assert np.max(err) <= 0.1
    assert np.sqrt(np.mean(err**2)) <= 0.05
    lowered = sorted((round(w.real, 12), round(w.imag, 12)) for w, r in zip(z, rows) if float(r["psi_p"]) < 0.79)
    assert lowered == [(0.0, 0.6), (0.2, 0.4), (0.4, 0.2), (0.4, 0.4), (0.6, 0.0)]
    assert all(float(r["psi_p"]) == pytest.approx(0.8) for r in rows if float(r["psi_p"]) >= 0.79)


def test_make_grid_stays_inside_radius():
    pts = _rc.make_grid(9, radius=0.5)
    assert np.all(np.abs(pts) <= 0.5 + 1e-12)
    assert len(pts) < 81  # corners trimmed


# ---------------------------------------------------------------------------
# boundary recovery on the accessible arc


WIDE = 0.8


def wide_bump(theta_p, amplitude=1.0):
    p = np.exp(1j * theta_p)
    return lambda z: amplitude * np.exp(-np.abs(np.asarray(z) - p) ** 2 / WIDE**2)


@pytest.fixture(scope="module")
def boundary_cal(ref_mesh, ref_scenario):
    h_list = ref_scenario.config["boundary_h_list"]
    cal = _rc.calibrate_boundary_constant(ref_mesh, np.pi, h_list)
    return cal, h_list


def test_boundary_sweep_exponent_window(ref_mesh, ref_scenario, boundary_cal):
    _, h_list = boundary_cal
    pairs = _rc.boundary_pairing_sweep(
        ref_mesh, wide_bump(np.pi), 0.0, np.pi, h_list
    )
    _, e = _rc.fit_boundary_law(pairs)
    assert 1.35 <= e <= 1.65


def test_boundary_recovery_known_value(ref_mesh, ref_scenario, boundary_cal):
    cal, h_list = boundary_cal
    est = _rc.boundary_scan(
        ref_mesh, wide_bump(np.pi, 0.7), 0.0, [np.pi], h_list,
        calibration=cal,
    )["rows"][0]
    assert not est["below_noise_floor"]
    assert est["D"] == pytest.approx(0.7, abs=0.1)


def test_boundary_recovery_sign(ref_mesh, ref_scenario, boundary_cal):
    cal, h_list = boundary_cal
    est = _rc.boundary_scan(
        ref_mesh, 0.0, wide_bump(np.pi, 0.7), [np.pi], h_list,
        calibration=cal,
    )["rows"][0]
    assert est["D"] < -0.4


def test_boundary_calibration_transfers(ref_mesh, ref_scenario, boundary_cal):
    cal, h_list = boundary_cal
    theta = 1.3 * np.pi
    est = _rc.boundary_scan(
        ref_mesh, wide_bump(theta, 0.5), 0.0, [theta], h_list,
        calibration=cal,
    )["rows"][0]
    assert est["D"] == pytest.approx(0.5, rel=0.25)


def test_boundary_noise_floor(ref_mesh, ref_scenario, boundary_cal):
    cal, h_list = boundary_cal
    est = _rc.boundary_scan(
        ref_mesh, 0.0, 0.0, [np.pi], h_list, calibration=cal
    )["rows"][0]
    assert est["below_noise_floor"]
    assert est["D"] == 0.0


def test_boundary_point_on_gamma0_is_a_failure(ref_mesh, boundary_cal):
    """A point of gamma0 = [0, pi/2] carries no Dirichlet data to
    concentrate: the sweep refuses it, naming theta and gamma0, and the scan
    records a failure instead of a zero pairing below the noise floor (the
    true value of V1 - V2 there is 1)."""
    cal, h_list = boundary_cal
    theta = np.pi / 4
    with pytest.raises(_rc.ReconstructionError, match=r"theta = 0\.785 lies on gamma0 = \[0\.000, 1\.571\]"):
        _rc.boundary_pairing_sweep(ref_mesh, wide_bump(theta), 0.0, theta, h_list)
    out = _rc.boundary_scan(ref_mesh, wide_bump(theta), 0.0, [theta], h_list, calibration=cal)
    assert out["rows"] == []
    assert [f["theta"] for f in out["failures"]] == [theta]
    assert "lies on gamma0" in out["failures"][0]["error"]


@pytest.mark.parametrize("h_list", [[0.2], [0.2, 0.14, 0.1], [0.3, 0.2, 0.16, 0.14, 0.12, 0.1, 0.09]])
def test_boundary_sweep_solves_one_block_per_operator(quarter_mesh_mid, h_list, monkeypatch):
    """A sweep makes 2 LU passes (one block per operator) for any number of
    h, and each pairing matches the one-datum solves of its own h."""
    mesh, V1 = quarter_mesh_mid, wide_bump(np.pi)
    ops = [operator(mesh, V1), operator(mesh, 0.0)]
    lus = [CountingLU(op.lu) for op in ops]
    for op, lu in zip(ops, lus):
        monkeypatch.setattr(op, "lu", lu)
    pairs = _rc.boundary_pairing_sweep(mesh, V1, 0.0, np.pi, h_list)
    assert [len(lu.columns) for lu in lus] == [1, 1]
    assert [h for h, _ in pairs] == sorted(h_list, reverse=True)
    on_gamma = ~mesh.boundary_is_gamma0
    for h, S in pairs:
        traces = []
        for op, sign in zip(ops, (+1.0, -1.0)):
            g = np.zeros(len(mesh.boundary), dtype=complex)
            g[on_gamma] = _rc._concentrating_trace(mesh, np.pi, h, sign)
            traces.append((g, op.weak_neumann_trace(op.solve_dirichlet(g))))
        want = boundary_pairing(mesh, *traces)
        assert abs(S - want) <= 1e-12 * abs(want)


def test_boundary_sweep_rejects_unresolved_h(ref_mesh, ref_scenario):
    with pytest.raises(_rc.ReconstructionError):
        _rc.boundary_pairing_sweep(
            ref_mesh, 0.0, 0.0, np.pi, [0.1, 0.01]
        )


def test_boundary_scan_records_failures(ref_mesh, ref_scenario, boundary_cal):
    cal, h_list = boundary_cal
    # pi is fine; the second angle sits essentially on the end of gamma
    out = _rc.boundary_scan(
        ref_mesh, wide_bump(np.pi, 0.7), 0.0,
        [np.pi, 0.52 * np.pi], h_list, calibration=cal,
    )
    assert [r["theta"] for r in out["rows"]] == [np.pi]
    assert len(out["failures"]) == 1
