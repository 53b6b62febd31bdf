import dataclasses
import types

import numpy as np
import pytest
import scipy.sparse as sp

from calderon import cgo as _cgo
from calderon import geometry, holo
from calderon import reconstruct as _rc
from calderon.forward import schrodinger_matrix
from calderon.geometry import DiskDomain, as_values, build_disk_mesh
from calderon.holo import HoloFunction, build_amplitude, build_morse_phase, find_critical_points

from conftest import (
    P_STAR,
    _mesh_cache_fills,
    decay_slope,
    dense_cauchy_transform,
    gaussian_bump,
    per_h_r11,
    splu_normal_solve,
    two_point_phase,
)


@pytest.fixture(scope="module")
def quarter_prep(quarter_mesh_mid, quarter_domain):
    """Shared h-independent CGO ingredients on the moderate quarter mesh."""
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, quarter_domain)
    cgo = _cgo.prepare_cgo(quarter_mesh_mid, gaussian_bump, phase, amplitude)
    return {"phase": phase, "amplitude": amplitude, "cgo": cgo}


def test_b_zero_for_zero_potential(quarter_mesh_mid, quarter_domain):
    """V = 0 gives b = 0, and then the r11 sweep is zero r11 and eta and no
    transform at every h, an h the mesh could not resolve included."""
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16)
    amplitude = build_amplitude(phase, quarter_domain)
    cgo = _cgo.prepare_cgo(quarter_mesh_mid, 0.0, phase, amplitude)
    assert np.max(np.abs(cgo.b)) == 0.0
    sweep = cgo.r11_sweep([0.2, 1e-5])
    assert list(sweep) == [0.2, 1e-5]
    for r11, eta, T in sweep.values():
        assert np.max(np.abs(r11)) == 0.0 and np.max(np.abs(eta)) == 0.0
        assert T is None


def test_cutoffs_centre_at_the_phase_point_not_the_highest_psi(full_domain):
    """The cutoffs sit at the phase's own primary point meta["p"], even
    when another critical point q has the larger Im Phi."""
    p, q = 0.2 + 0.1j, -0.3 - 0.4j
    phase = two_point_phase(p, q)
    report = phase.meta["critical_points"]
    assert report.is_morse and len(report.points) == 2
    for w in (p, q):
        assert min(abs(c.location - w) for c in report.points) < 1e-12
    assert phase(q).imag == pytest.approx(0.8417, abs=1e-4)
    cgo = _cgo.prepare_cgo(build_disk_mesh(0.05, full_domain), 0.0, phase, HoloFunction([1.0]))
    assert cgo.chi.center == p
    assert cgo.chi1.center == p


@pytest.fixture(scope="module")
def ref_prep(ref_mesh, ref_scenario, quarter_domain):
    """Reference-resolution ingredients for the weak completion phase."""
    phase = build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.12)
    amplitude = build_amplitude(phase, quarter_domain)
    cgo = _cgo.prepare_cgo(ref_mesh, ref_scenario.V1, phase, amplitude)
    return {"phase": phase, "amplitude": amplitude, "cgo": cgo}


def _dzbar_recovered(values, mesh):
    """Second-order d/dzbar by quadratic least squares on two-ring patches.

    More accurate than the averaged P1 gradient (which is only first order on
    unstructured patches), so it can be compared against an analytic identity.
    """
    vals = np.asarray(values)
    z = mesh.vertices
    c = mesh.cells
    rows = np.concatenate([c[:, 0], c[:, 1], c[:, 2], c[:, 0], c[:, 1], c[:, 2]])
    cols = np.concatenate([c[:, 1], c[:, 2], c[:, 0], c[:, 2], c[:, 0], c[:, 1]])
    adj = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    ).tocsr()
    two_ring = (adj @ adj + adj).tocsr()
    out = np.zeros(mesh.n_vertices, dtype=complex)
    indptr, indices = two_ring.indptr, two_ring.indices
    for i in range(mesh.n_vertices):
        nb = indices[indptr[i] : indptr[i + 1]]
        d = z[nb] - z[i]
        M = np.stack(
            [np.ones(len(nb)), d.real, d.imag, d.real**2, d.real * d.imag, d.imag**2], axis=1
        )
        coef, *_ = np.linalg.lstsq(M, vals[nb], rcond=None)
        out[i] = 0.5 * (coef[1] + 1j * coef[2])
    return out


def _derivative_check(b, mesh, V, a):
    """Relative residual of the defining relation 4 e^{-2 rho} dzbar b = a V,
    measured in L2 over the bulk (two cells away from the boundary)."""
    z = mesh.vertices
    aV = a(z) * as_values(V, mesh)
    lhs = 4.0 * np.exp(-2.0 * mesh.rho_v) * _dzbar_recovered(b, mesh)
    bulk = np.abs(z) < 1.0 - 2.0 * mesh.resolution
    num = _cgo.l2_norm(np.where(bulk, lhs - aV, 0.0), mesh)
    den = _cgo.l2_norm(np.where(bulk, aV, 0.0), mesh)
    return num / max(den, 1e-300)


def test_b_derivative_identity(ref_prep, ref_mesh, ref_scenario):
    """4 e^{-2 rho} dzbar b = a V, checked by the recovered-derivative oracle."""
    err = _derivative_check(
        ref_prep["cgo"].b, ref_mesh, ref_scenario.V1, ref_prep["amplitude"]
    )
    assert err <= 2e-2


def test_b_decay_at_primary_point(ref_prep, ref_mesh):
    slope = decay_slope(ref_prep["cgo"].b, ref_mesh, P_STAR)
    assert slope >= 0.8


def test_cutoff_nesting(quarter_prep, quarter_mesh_mid):
    z = quarter_mesh_mid.vertices
    chi = quarter_prep["cgo"].chi(z)
    chi1 = quarter_prep["cgo"].chi1(z)
    # chi == 1 wherever chi1 is supported
    assert np.all(chi[chi1 > 0] >= 1.0 - 1e-12)
    near = np.abs(z - P_STAR) < 0.02
    assert np.all(chi1[near] >= 1.0 - 1e-12)


def test_r11_zero_for_zero_b(quarter_prep, quarter_mesh_mid):
    cgo = _cgo.prepare_cgo(quarter_mesh_mid, 0.0, quarter_prep["phase"], quarter_prep["amplitude"])
    assert np.max(np.abs(cgo.b)) == 0.0
    r11, eta, _ = cgo.r11_sweep([0.2])[0.2]
    assert np.max(np.abs(r11)) == 0.0
    assert np.max(np.abs(eta)) == 0.0


def test_r11_supp_chi_matches_full_evaluation(quarter_prep, quarter_mesh_mid):
    """Evaluating the transform on supp chi and supp dz(chi) only leaves r11
    and eta as the full-mesh evaluation gives them."""
    cgo = quarter_prep["cgo"]
    mesh = quarter_mesh_mid
    z = mesh.vertices
    h = 0.2
    osc = np.exp(2j * quarter_prep["phase"](z).imag / h)
    T_full = dense_cauchy_transform(osc * cgo.chi1(z) * cgo.b, mesh)
    r11, eta, T = cgo.r11_sweep([h])[h]
    r11_want = cgo.chi(z) * np.conj(osc) * T_full
    eta_want = np.conj(osc) * T_full * cgo.chi.dz(z)
    assert np.max(np.abs(r11 - r11_want)) <= 1e-12 * np.max(np.abs(r11_want))
    assert np.max(np.abs(eta - eta_want)) <= 1e-12 * np.max(np.abs(eta_want))
    assert np.all(T[cgo.chi(z) == 0] == 0)


def test_r11_sweep_matches_per_h(quarter_prep, quarter_mesh_mid):
    """One r11_sweep gives every h the bits of its own transform.  The
    rule at r11's slope keeps the resolvable h and skips an unresolvable
    one with the message the pairing with r1 raises for it alone."""
    cgo, phase = quarter_prep["cgo"], quarter_prep["phase"]
    args = (quarter_mesh_mid, phase, cgo.b, cgo.chi, cgo.chi1)
    slope = _cgo.phase_slope(quarter_mesh_mid, phase)
    kept, skipped, _ = _cgo.resolvable_h(quarter_mesh_mid, [0.3, 0.2, 1e-5, 0.14], slope, _cgo.PHASE_PER_CELL)
    got = cgo.r11_sweep(kept)
    assert list(got) == [0.3, 0.2, 0.14]
    for h, fields in got.items():
        for g, want in zip(fields, per_h_r11(*args, h)):
            assert np.array_equal(g, want)
    with pytest.raises(_cgo.ResolvabilityError) as err:
        _rc.pointwise_difference(quarter_mesh_mid, gaussian_bump, 0.0, phase, quarter_prep["amplitude"], [1e-5])
    assert skipped == [{"h": 1e-5, "reason": str(err.value)}]


def test_scaling_report_builds_far_field_kernel_once(quarter_prep, quarter_mesh_mid, monkeypatch):
    """The Cauchy transforms of a whole residual_scaling_report sweep share
    their far-field kernel: the sweep builds as many row blocks as one h."""
    builds = []
    kernel = holo._far_field_kernel

    def counting_kernel(z, xs):
        builds.append(len(z))
        return kernel(z, xs)

    monkeypatch.setattr(holo, "_far_field_kernel", counting_kernel)
    monkeypatch.setattr(holo, "TRANSFORM_BLOCK_ENTRIES", 20_000)
    cgo = quarter_prep["cgo"]
    cgo.r11_sweep([0.2])
    one_h = list(builds)
    builds.clear()
    rep = _cgo.residual_scaling_report(
        quarter_mesh_mid, gaussian_bump,
        quarter_prep["phase"], quarter_prep["amplitude"], [0.2, 0.14, 0.1, 0.07],
    )
    assert len(rep["h_list"]) == 4
    assert len(one_h) > 1
    assert builds == one_h


def test_scaling_report_far_field_blocks_fit_the_cache(ref_prep, ref_mesh, ref_scenario, monkeypatch):
    """Every far-field kernel block of a residual_scaling_report sweep on the
    reference mesh holds at most 2^16 complex entries (1 MiB)."""
    entries = []
    kernel = holo._far_field_kernel

    def sized_kernel(z, xs):
        entries.append(len(z) * len(xs))
        return kernel(z, xs)

    monkeypatch.setattr(holo, "_far_field_kernel", sized_kernel)
    rep = _cgo.residual_scaling_report(
        ref_mesh, ref_scenario.V1,
        ref_prep["phase"], ref_prep["amplitude"], [0.2, 0.14, 0.1, 0.07],
    )
    assert len(rep["h_list"]) == 4
    assert sum(entries) > 2**16
    assert max(entries) <= 2**16


def test_h1_norm_of_paraboloid():
    """u = 1 - |z|^2 on the unit disk: ||u||^2 = pi/3, ||grad u||^2 = 2 pi."""
    mesh = build_disk_mesh(0.05, DiskDomain())
    got = _cgo.h1_norm(1.0 - np.abs(mesh.vertices) ** 2, mesh)
    want = np.sqrt(np.pi / 3.0 + 2.0 * np.pi)
    assert abs(got - want) <= 0.05 * want


def test_r11_unresolvable_h_raises(quarter_prep, quarter_mesh_mid):
    """The pairing with r1 refuses an h too small for the r11 transform
    before it transforms anything."""
    with pytest.raises(_cgo.ResolvabilityError):
        _rc.pointwise_difference(
            quarter_mesh_mid, gaussian_bump, 0.0, quarter_prep["phase"], quarter_prep["amplitude"], [1e-5]
        )


def test_resolvable_h_reproduces_each_former_floor(quarter_prep, quarter_mesh_mid):
    """The one rule gives, bit for bit, the three floors the sweeps used to
    compute each in its own way: r11's 4 resolution (max|Phi'|/2) over
    supp chi1, the Carleman sweep's 0.5 resolution max|Phi'| over the mesh
    and the boundary sweep's 2 resolution."""
    mesh, phase = quarter_mesh_mid, quarter_prep["phase"]
    z = mesh.vertices
    dphi = phase.derivative()(z)
    for scale in (1.0, 1.5, 1.9):
        _, chi1 = _cgo.build_cutoffs(phase, scale=scale)
        old = 4.0 * mesh.resolution * (0.5 * np.max(np.abs(dphi[chi1(z) > 0])))
        *_, floor = _cgo.resolvable_h(mesh, [0.1], _cgo.phase_slope(mesh, phase, scale), _cgo.PHASE_PER_CELL)
        assert floor == old
    *_, floor = _cgo.resolvable_h(mesh, [0.1], float(np.max(np.abs(dphi))), _cgo.WEIGHT_PER_CELL)
    assert floor == 0.5 * mesh.resolution * float(np.max(np.abs(dphi)))
    *_, floor = _cgo.resolvable_h(mesh, [0.1], 2.0, _cgo.PHASE_PER_CELL)
    assert floor == 2.0 * mesh.resolution
    # the same identities on seeded (resolution, max|Phi'|) pairs
    rng = np.random.default_rng(0)
    for res, m in zip(rng.uniform(0.005, 0.1, 1000), rng.uniform(0.0, 20.0, 1000)):
        mesh_r = types.SimpleNamespace(resolution=float(res))
        assert _cgo.resolvable_h(mesh_r, [], 2.0 * m, _cgo.PHASE_PER_CELL)[2] == 4.0 * res * (0.5 * m)
        assert _cgo.resolvable_h(mesh_r, [], m, _cgo.WEIGHT_PER_CELL)[2] == 0.5 * res * m


def test_resolvable_h_normalises_and_records_each_refusal(quarter_mesh_mid):
    """Kept h are unique and descending; each refused h has one record, in
    the same order, naming it and the floor."""
    kept, refused, floor = _cgo.resolvable_h(quarter_mesh_mid, [0.1, 0.3, 0.1, 0.01, 0.02, 0.01], 1.0, 1)
    assert floor == quarter_mesh_mid.resolution == 0.04
    assert kept == [0.3, 0.1]
    assert refused == [
        {"h": 0.02, "reason": f"mesh cannot resolve h = 0.02: need h >= {floor:.3g}"},
        {"h": 0.01, "reason": f"mesh cannot resolve h = 0.01: need h >= {floor:.3g}"},
    ]


def test_r12_defining_identity(quarter_prep, quarter_mesh_mid):
    """2i r12 dz(psi) = (1-chi1) b to rounding where chi1 = 0 (and dphi
    above the regularization scale)."""
    cgo = quarter_prep["cgo"]
    phase = quarter_prep["phase"]
    z = quarter_mesh_mid.vertices
    chi1 = cgo.chi1(z)
    dphi = phase.derivative()(z)
    hess = abs(phase.derivative(2)(P_STAR))
    tau = 0.5 * hess * quarter_mesh_mid.resolution
    mask = (chi1 == 0.0) & (np.abs(dphi) > tau)
    # dz(psi) = dPhi / (2i), so 2i r12 dz(psi) = r12 dPhi
    lhs = cgo.r12[mask] * dphi[mask]
    rhs = cgo.b[mask]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_r_tilde12_bounded_under_refinement(quarter_domain):
    sups = []
    for res in (0.05, 0.025):
        mesh = build_disk_mesh(res, quarter_domain)
        phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
        amplitude = build_amplitude(phase, quarter_domain)
        cgo = _cgo.prepare_cgo(mesh, gaussian_bump, phase, amplitude)
        near = np.abs(mesh.vertices - P_STAR) < 0.15
        sups.append(np.max(np.abs(cgo.r_tilde12[near])))
    assert sups[1] <= 1.5 * sups[0]


def test_a0_zero_for_full_data(mesh_mid, full_domain):
    phase = build_morse_phase(full_domain, 0.1 + 0.0j, degree=8)
    amplitude = build_amplitude(phase, full_domain)
    cgo = _cgo.prepare_cgo(mesh_mid, gaussian_bump, phase, amplitude)
    z = 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 16))
    assert np.max(np.abs(cgo.a0(z))) <= 1e-10


def test_a0_arc_residual(quarter_prep):
    assert quarter_prep["cgo"].a0.meta["arc_residual"] <= 1e-4


def _completed(mesh, V, phase, amplitude, h, cgo=None):
    """prepare_cgo + r11_sweep + residual_field + duality_completion at one
    h; returns (cgo, r11, r2)."""
    if cgo is None:
        cgo = _cgo.prepare_cgo(mesh, V, phase, amplitude)
    ((r11, _, T),) = cgo.r11_sweep([h]).values()
    res = _cgo.residual_field(cgo, h, r11, T)
    r2, _ = _cgo.duality_completion(cgo, h, r11, res)
    return cgo, r11, r2


def _restated_constraints(cgo, h, r11, res):
    """The constraints of duality_completion restated from the assembled
    Delta_g + V, not read from it: G = (e^{-phi/h} (Delta_g + V)
    e^{phi/h})[interior, off gamma0], the right-hand side rhs of the
    interior rows, the vertex mask on_gamma0, and the weighted ansatz
    w = 2 Re(e^{i psi/h}(a + h a0 + r1)) that r2 cancels on gamma0."""
    mesh = cgo.mesh
    on_gamma0 = np.zeros(mesh.n_vertices, dtype=bool)
    on_gamma0[mesh.boundary[mesh.boundary_is_gamma0]] = True
    Phi = cgo.phase(mesh.vertices)
    phi, psi = Phi.real, Phi.imag
    A = schrodinger_matrix(mesh, cgo.V)
    B = (sp.diags(np.exp(-phi / h)) @ A @ sp.diags(np.exp(phi / h))).tocsr()[mesh.interior]
    w = 2.0 * np.real(np.exp(1j * psi / h) * (cgo.a_z + h * cgo.a0_z + r11 + h * cgo.r12))
    rhs = -(mesh.mass * 2.0 * np.real(np.exp(1j * psi / h) * res))[mesh.interior]
    rhs = rhs + B[:, on_gamma0] @ w[on_gamma0]
    return B[:, ~on_gamma0], rhs, on_gamma0, w


def test_cgo_samples_phase_and_cutoff_once_per_cgo(quarter_prep, monkeypatch):
    """A sweep of residual_field and duality_completion over one CGO
    evaluates Phi and Phi' at the vertices once each (two HoloFunction
    calls) and dz(chi) once, cached on the CGO, whatever the number of h; a
    second sweep over the same CGO evaluates neither."""
    calls = {"holo": 0, "dchi": 0}
    call, dz = HoloFunction.__call__, _cgo.Cutoff.dz

    def counting_call(self, z):
        calls["holo"] += 1
        return call(self, z)

    def counting_dz(self, z):
        calls["dchi"] += 1
        return dz(self, z)

    monkeypatch.setattr(HoloFunction, "__call__", counting_call)
    monkeypatch.setattr(_cgo.Cutoff, "dz", counting_dz)
    h_list = [0.2, 0.14, 0.1]
    # a copy of the shared CGO, so nothing is sampled yet
    cgo = dataclasses.replace(quarter_prep["cgo"])
    for expected in ({"holo": 2, "dchi": 1}, {"holo": 0, "dchi": 0}):
        calls.update(holo=0, dchi=0)
        for h, (r11, _, T) in cgo.r11_sweep(h_list).items():
            _cgo.duality_completion(cgo, h, r11, _cgo.residual_field(cgo, h, r11, T))
        assert calls == expected


def test_residual_field_takes_slow_derivatives_once_per_sweep(quarter_prep, quarter_mesh_mid, monkeypatch):
    """A residual_field sweep over one CGO takes 4 + 2 n_h vertex
    gradients: the h-independent d/dzbar of r12 and chi1 b once (two complex
    fields, cached on the CGO), and d/dzbar(dz(chi) T) at each h.  A second
    sweep over the same CGO takes only the 2 n_h."""
    calls = []
    gradient = geometry.vertex_gradient

    def counting_gradient(values, mesh):
        calls.append(mesh)
        return gradient(values, mesh)

    monkeypatch.setattr(geometry, "vertex_gradient", counting_gradient)
    h_list = [0.2, 0.14, 0.1]
    # a copy of the shared CGO, so no derivative is cached yet
    cgo = dataclasses.replace(quarter_prep["cgo"])
    for expected in (4 + 2 * len(h_list), 2 * len(h_list)):
        calls.clear()
        for h, (r11, _, T) in cgo.r11_sweep(h_list).items():
            _cgo.residual_field(cgo, h, r11, T)
        assert len(calls) == expected


def test_complete_solution_trivial_phase(mesh_mid):
    """V = 0, a = 1, Phi = z^2 + i: the oscillatory ansatz is an exact
    solution; the analytic-residual completion returns r2 = 0 to rounding."""
    phase = HoloFunction([1j, 0.0, 1.0])
    phase.meta.update(critical_points=find_critical_points(phase), p=0.0j)
    _, _, r2 = _completed(mesh_mid, 0.0, phase, HoloFunction([1.0]), 0.2)
    assert _cgo.l2_norm(r2, mesh_mid) <= 1e-12


def test_complete_solution_vanishes_on_gamma0(ref_mesh, ref_scenario, quarter_domain):
    phase = build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.12)
    amplitude = build_amplitude(phase, quarter_domain)
    h = 0.1
    cgo, r11, r2 = _completed(ref_mesh, ref_scenario.V1, phase, amplitude, h)
    g0 = ref_mesh.boundary[ref_mesh.boundary_is_gamma0]
    # in weighted variables: e^{-phi/h} u = ansatz + r2
    ansatz = 2.0 * np.real(np.exp(1j * phase(ref_mesh.vertices).imag / h) * cgo.slow_amplitude(h, r11))
    assert np.max(np.abs((ansatz + r2)[g0])) == 0.0


def test_scaling_report_zero_potential_flags(quarter_mesh_mid, quarter_domain):
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, quarter_domain)
    rep = _cgo.residual_scaling_report(
        quarter_mesh_mid, 0.0, phase, amplitude, [0.2, 0.14, 0.1, 0.07]
    )
    for key in ("r1_l2", "r11_l2", "eta_l2"):
        assert rep["exponents"][key]["exact_zero"]


def test_scaling_report_deterministic(quarter_mesh_mid, quarter_domain):
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, quarter_domain)
    reps = [
        _cgo.residual_scaling_report(
            quarter_mesh_mid, gaussian_bump, phase, amplitude,
            [0.2, 0.14, 0.1, 0.07],
        )
        for _ in range(2)
    ]
    assert reps[0] == reps[1]


def test_too_few_h_values_raises(quarter_prep, quarter_mesh_mid):
    from calderon.geometry import ConfigurationError

    with pytest.raises(ConfigurationError):
        _cgo.residual_scaling_report(
            quarter_mesh_mid, gaussian_bump,
            quarter_prep["phase"], quarter_prep["amplitude"], [0.2, 0.14],
        )


def test_too_few_h_values_names_the_skipped(quarter_prep, quarter_mesh_mid):
    """When refused h leave fewer than 4 for the fits, the error carries
    the reason recorded for each refused h."""
    from calderon.geometry import ConfigurationError

    with pytest.raises(ConfigurationError) as err:
        _cgo.residual_scaling_report(
            quarter_mesh_mid, gaussian_bump,
            quarter_prep["phase"], quarter_prep["amplitude"], [0.2, 2e-5, 1e-5],
        )
    msg = str(err.value)
    assert msg.startswith("need at least 4 usable h values for exponent fits, got 1; ")
    assert "; mesh cannot resolve h = 2e-05: need h >= " in msg
    assert "; mesh cannot resolve h = 1e-05: need h >= " in msg


def test_mirror_phase_pairing_runs(quarter_mesh_mid, quarter_domain):
    """A mirror CGO (phase -Phi) is built and completes to finite values."""
    phase = build_morse_phase(quarter_domain, P_STAR, degree=16, psi_target=0.3)
    amplitude = build_amplitude(phase, quarter_domain)
    mirror = HoloFunction(-phase.coeffs, meta=dict(phase.meta))
    c1 = _completed(quarter_mesh_mid, gaussian_bump, phase, amplitude, 0.2)
    cgo2 = _cgo.prepare_cgo(quarter_mesh_mid, 0.0, mirror, amplitude)
    c2 = _completed(quarter_mesh_mid, 0.0, mirror, amplitude, 0.2, cgo=cgo2)
    for cgo, r11, r2 in (c1, c2):
        assert np.all(np.isfinite(cgo.slow_amplitude(0.2, r11)))
        assert np.all(np.isfinite(r2))


def _banded_vs_default_lu(cgo, h):
    """max |r2 - r2_ref| / max |r2_ref| for the r2 of duality_completion
    and r2_ref = M^{-1} G^T lam, where lam solves the normal equations
    S = G M^{-1} G^T of _restated_constraints by default-ordering splu."""
    ((r11, _, T),) = cgo.r11_sweep([h]).values()
    res = _cgo.residual_field(cgo, h, r11, T)
    got, _ = _cgo.duality_completion(cgo, h, r11, res)
    G, rhs, on_gamma0, w = _restated_constraints(cgo, h, r11, res)
    m = cgo.mesh.mass[~on_gamma0]
    lam = splu_normal_solve(G @ sp.diags(1.0 / m) @ G.T, rhs)
    want = np.empty_like(got)
    want[on_gamma0] = -w[on_gamma0]
    want[~on_gamma0] = (G.T @ lam) / m
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_symmetric_ordering_matches_default_lu(quarter_prep):
    """The banded Cholesky solve (reverse Cuthill-McKee order, band filled
    from the mesh's duality pattern) agrees with a default-ordering splu
    solve of the normal equations restated from Delta_g + V."""
    assert _banded_vs_default_lu(quarter_prep["cgo"], 0.3) <= 1e-10


def test_banded_cholesky_matches_default_lu_on_reference_mesh(ref_prep):
    """The same agreement on the reference mesh at h = 0.05, the smallest h
    of the reference cgo sweep."""
    assert _banded_vs_default_lu(ref_prep["cgo"], 0.05) <= 1e-10


def test_duality_completion_meets_its_constraints(ref_mesh, ref_scenario):
    """For both reference cgo_regimes at every h, r2 solves the interior
    rows of the conjugated equation to 1e-10 relative (5.0e-12 measured)
    and equals -w = -2 Re(e^{i psi/h}(a + h a0 + r1)) on gamma0 exactly.
    G = (e^{-phi/h} (Delta_g + V) e^{phi/h})[interior, off gamma0] and the
    right-hand side are restated here, not read from duality_completion."""
    mesh, sc = ref_mesh, ref_scenario
    for regime in sc.config["cgo_regimes"]:
        phase = sc.phase(sc.point, regime["psi_target"])
        cgo = _cgo.prepare_cgo(mesh, sc.V1, phase, sc.amplitude(phase), cutoff_scale=regime["cutoff_scale"])
        for h, (r11, _, T) in cgo.r11_sweep(sc.h_list).items():
            res = _cgo.residual_field(cgo, h, r11, T)
            r2, _ = _cgo.duality_completion(cgo, h, r11, res)
            G, rhs, on_gamma0, w = _restated_constraints(cgo, h, r11, res)
            assert np.linalg.norm(G @ r2[~on_gamma0] - rhs) <= 1e-10 * np.linalg.norm(rhs)
            assert np.array_equal(r2[on_gamma0], -w[on_gamma0])


def test_indefinite_normal_equations_fail_loudly():
    """A symmetric indefinite S raises, naming h and the failing leading
    minor, where a pivoting LU would have returned a solution."""
    S = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.all(np.isfinite(splu_normal_solve(sp.csr_matrix(S), np.ones(3))))
    # the lower band of S, column-major: band[d, j] = S[j + d, j]
    band = np.asfortranarray([np.diag(S), np.append(np.diag(S, -1), 0.0)])
    with pytest.raises(RuntimeError, match=r"at h = 0\.05 .*leading minor"):
        _cgo._banded_cholesky(band, np.ones(3), 0.05)


@pytest.mark.parametrize("gamma0", [None, (5.5, 0.8)], ids=["full_data", "wrapping_gamma0"])
def test_duality_pattern_lays_out_the_blocks_and_the_band(gamma0):
    """Mesh.duality_pattern holds Delta_g + V's interior x free and
    interior x gamma0 blocks entry for entry, with every interior row's
    diagonal, and its product pairs fill exactly the lower band of
    G M^{-1} G^T in its row order, for full data (gamma0 empty) and for a
    gamma0 that wraps through angle 0.  The completion it serves meets its
    constraints on both."""
    mesh = build_disk_mesh(0.1, DiskDomain(gamma0=gamma0))
    p = mesh.duality_pattern
    K = mesh.stiffness
    assert np.array_equal(p.gamma0, mesh.gamma0_indices())
    # a wrapping gamma0 holds both the first and the last boundary vertex
    wraps = set(mesh.boundary[[0, -1]]) <= set(p.gamma0)
    assert (len(p.gamma0), wraps) == ((0, False) if gamma0 is None else (16, True))
    assert np.array_equal(np.sort(p.order), np.flatnonzero(mesh.interior))
    assert np.array_equal(np.sort(np.concatenate([p.free, p.gamma0])), np.arange(mesh.n_vertices))
    n, n_free = len(p.order), len(p.free)
    G = sp.csr_matrix((K.data[p.pos], (p.row, p.col)), shape=(n, n_free))
    C = sp.csr_matrix((K.data[p.c_pos], (p.c_row, p.c_col)), shape=(n, len(p.gamma0)))
    assert G.nnz + C.nnz == K[p.order].nnz
    assert np.array_equal(G.toarray(), K[np.ix_(p.order, p.free)].toarray())
    assert np.array_equal(C.toarray(), K[np.ix_(p.order, p.gamma0)].toarray())
    assert np.array_equal(p.row[p.diag], np.arange(n)) and np.array_equal(p.free[p.col[p.diag]], p.order)
    g = np.random.default_rng(0).standard_normal(len(p.pos))
    m = mesh.mass[p.free]
    G = sp.csr_matrix((g, (p.row, p.col)), shape=(n, n_free))
    S = (G @ sp.diags(1.0 / m) @ G.T).toarray()
    band = p.lower_band(g, m)
    assert band.shape == (p.bandwidth + 1, n) and band.flags.f_contiguous
    assert np.max(np.abs(np.tril(S, -p.bandwidth - 1))) == 0.0
    for d in range(p.bandwidth + 1):
        assert np.allclose(band[d, : n - d], np.diag(S, -d), rtol=1e-13, atol=1e-13 * np.max(np.abs(S)))
    phase = HoloFunction([1j, 0.0, 1.0])
    phase.meta.update(critical_points=find_critical_points(phase), p=0.0j)
    cgo = _cgo.prepare_cgo(mesh, 0.0, phase, HoloFunction([1.0]))
    h = 0.3
    ((r11, _, T),) = cgo.r11_sweep([h]).values()
    res = _cgo.residual_field(cgo, h, r11, T)
    r2, residual = _cgo.duality_completion(cgo, h, r11, res)
    G, rhs, on_gamma0, w = _restated_constraints(cgo, h, r11, res)
    assert np.linalg.norm(G @ r2[~on_gamma0] - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-300)
    assert residual <= 1e-10
    assert np.array_equal(r2[on_gamma0], -w[on_gamma0])


@pytest.fixture(scope="module")
def ref_reports(ref_scenario):
    """The residual_scaling_report of both reference cgo_regimes on one
    fresh reference mesh, with the meshes whose duality_pattern was built
    meanwhile: (mesh, built, reports)."""
    sc = ref_scenario
    with pytest.MonkeyPatch.context() as mp:
        built = _mesh_cache_fills(mp, "duality_pattern")
        mesh = build_disk_mesh(sc.config["resolution"], sc.domain)
        reports = []
        for regime in sc.config["cgo_regimes"]:
            phase = sc.phase(sc.point, regime["psi_target"])
            reports.append(
                _cgo.residual_scaling_report(
                    mesh, sc.V1, phase, sc.amplitude(phase), sc.h_list, cutoff_scale=regime["cutoff_scale"]
                )
            )
    return mesh, built, reports


def test_duality_pattern_built_once_per_mesh(ref_reports, ref_scenario):
    """Both reference regimes, at each of their 5 h, share one duality
    pattern: the mesh builds it once, on first use."""
    mesh, built, reports = ref_reports
    assert [r["h_list"] for r in reports] == [ref_scenario.h_list] * 2 and len(ref_scenario.h_list) == 5
    assert len(built) == 1 and built[0] is mesh


def test_duality_residual_recorded_per_h(ref_reports):
    """The report records duality_completion's relative residual
    |G r2 - rhs| / |rhs| at every h, beside the norms (so no exponent is
    fitted to it), and it is at most 1e-10 for both reference regimes
    (5e-12 measured)."""
    _, _, reports = ref_reports
    for rep in reports:
        assert len(rep["duality_residual"]) == len(rep["h_list"])
        assert max(rep["duality_residual"]) <= 1e-10
        assert all("duality_residual" not in row for row in rep["norms"])
        assert "duality_residual" not in rep["exponents"]
