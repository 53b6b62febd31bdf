from dataclasses import replace

import numpy as np
import pytest

from calderon import holo
from calderon.geometry import ConfigurationError, DiskDomain, build_disk_mesh
from calderon.holo import (
    CriticalPointReport,
    HoloFunction,
    InfeasibleDegreeError,
    MorseVerificationError,
    build_amplitude,
    build_jet_form,
    build_morse_phase,
    cauchy_transform,
    find_critical_points,
    fit_holomorphic_on_arc,
)
from calderon.reconstruct import make_grid

from conftest import (
    P_STAR,
    dense_cauchy_transform,
    kdtree_dilation,
    kdtree_pairs,
    reference_phase_candidate,
    scalar_derivative_row,
    single_field_cauchy_transform,
    subdivision_critical_points,
)


# ---------------------------------------------------------------------------
# HoloFunction


def test_holofunction_evaluation_and_derivatives():
    f = HoloFunction([1.0, 2.0, 3.0])  # 1 + 2z + 3z^2
    assert f(0.5) == pytest.approx(1 + 1.0 + 0.75)
    assert f.derivative()(0.5) == pytest.approx(2 + 3.0)
    assert f.derivative(2)(0.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# solid Cauchy transform


def test_cauchy_transform_disk_indicator(mesh_mid):
    r0 = 0.5
    f = (np.abs(mesh_mid.vertices) < r0).astype(complex)
    pts = np.array([0.2 + 0.1j, -0.3j, 0.1, 0.7 + 0.1j, -0.8])
    got = cauchy_transform(f, mesh_mid, pts)
    exact = np.where(np.abs(pts) < r0, pts, r0**2 / np.conj(pts))
    assert np.max(np.abs(got - exact)) <= 1e-2


def test_cauchy_transform_matches_dense_reference(mesh_mid):
    """Far/near split against the all-pairs quadrature: at every vertex, at
    a vertex subset (f read there directly) and at off-mesh points."""
    z = mesh_mid.vertices
    t = np.abs(z - (0.1 + 0.1j)) / 0.4
    bump = np.where(t < 1.0, np.exp(1.0 - 1.0 / (1.0 - np.minimum(t, 0.999) ** 2)), 0.0)
    f = bump * np.exp(10j * z.real)
    want = dense_cauchy_transform(f, mesh_mid)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(cauchy_transform(f, mesh_mid) - want)) <= 1e-12 * scale
    idx = np.arange(0, mesh_mid.n_vertices, 7)
    got = cauchy_transform(f, mesh_mid, eval_index=idx)
    assert np.max(np.abs(got - want[idx])) <= 1e-12 * scale
    indicator = (np.abs(z) < 0.5).astype(complex)
    pts = np.array([0.2 + 0.1j, -0.3j, 0.1, 0.7 + 0.1j, -0.8])
    want = dense_cauchy_transform(indicator, mesh_mid, pts)
    got = cauchy_transform(indicator, mesh_mid, pts)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cauchy_transform_zero(mesh_mid):
    got = cauchy_transform(np.zeros(mesh_mid.n_vertices, dtype=complex), mesh_mid)
    assert np.max(np.abs(got)) == 0.0


@pytest.mark.parametrize("where", ["vertices", "vertex_subset", "off_mesh"])
def test_near_pairs_match_kdtree(mesh_mid, where):
    """The cell-grid near field finds the k-d tree's pairs within 4
    resolutions, sorted by (i, j), and its support dilation; pairs exactly
    4 resolutions apart (the ring mesh has them) are kept."""
    z = mesh_mid.vertices
    r = 4.0 * mesh_mid.resolution
    support = z[np.abs(z - (0.1 + 0.1j)) < 0.4]
    rng = np.random.default_rng(5)
    a = {
        "vertices": z,
        "vertex_subset": z[::7],
        "off_mesh": np.sqrt(rng.uniform(0, 0.9, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400)),
    }[where]
    for b in (support, z):
        i, j = holo._pairs_within(a, b, r)
        ki, kj = kdtree_pairs(a, b, r)
        order = np.lexsort((kj, ki))
        assert np.array_equal(i, ki[order]) and np.array_equal(j, kj[order])
        assert np.all(np.diff(i * len(b) + j) > 0)
    if where == "vertices":
        d = z[i] - z[j]
        assert np.any(d.real**2 + d.imag**2 == r * r)
    local = np.zeros(len(a), dtype=bool)
    local[holo._pairs_within(a, support, r + 1e-12)[0]] = True
    assert np.array_equal(local, kdtree_dilation(a, support, r + 1e-12))


def test_transform_fields_match_single_field_reference(mesh_mid, monkeypatch):
    """Fields with one support transformed together give, field by field,
    the bits of transforming each alone (at every vertex, at a vertex subset
    and at off-mesh points, over several far-field row blocks); so does the
    public one-field call.  The k-d tree's pair order sums the near field in
    another order, so that reference agrees to rounding."""
    monkeypatch.setattr(holo, "TRANSFORM_BLOCK_ENTRIES", 20_000)
    z = mesh_mid.vertices
    t = np.abs(z - (0.1 + 0.1j)) / 0.4
    bump = np.where(t < 1.0, np.exp(1.0 - 1.0 / (1.0 - np.minimum(t, 0.999) ** 2)), 0.0)
    F = np.array([bump * np.exp(1j * k * z.real) for k in (3.0, 10.0, 25.0)])
    idx = np.arange(0, mesh_mid.n_vertices, 7)
    pts = np.array([0.2 + 0.1j, -0.3j, 0.1, 0.7 + 0.1j, -0.8])
    for kw in ({}, {"eval_index": idx}, {"eval_points": pts}):
        got, _ = holo._cauchy_transform_columns(F, mesh_mid, **kw)
        for f, g in zip(F, got):
            want = single_field_cauchy_transform(f, mesh_mid, **kw)
            assert np.array_equal(g, want)
            assert np.array_equal(cauchy_transform(f, mesh_mid, **kw), want)
            kd = single_field_cauchy_transform(f, mesh_mid, kdtree=True, **kw)
            assert np.max(np.abs(g - kd)) <= 1e-14 * np.max(np.abs(kd))


def smooth_compact_field(z):
    """Smoothly truncated complex test field supported in |z| < 0.8."""
    z = np.asarray(z, dtype=complex)
    t = np.abs(z) / 0.8
    cut = np.zeros(z.shape)
    inside = t < 1.0
    cut[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return np.exp(-np.abs(z - 0.1) ** 2 / 0.5**2) * (1.0 + 0.3j * np.real(z)) * cut


def dz_inversion_error(mesh, n_points=20, eps=0.02, seed=1):
    """Max relative error of finite-difference d/dz of R f against f."""
    f = smooth_compact_field(mesh.vertices)
    rng = np.random.default_rng(seed)
    pts = 0.4 * np.sqrt(rng.uniform(0.01, 1.0, n_points)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_points)
    )
    stencil = np.concatenate([pts + eps, pts - eps, pts + 1j * eps, pts - 1j * eps])
    vals = cauchy_transform(f, mesh, stencil).reshape(4, -1)
    dz = 0.5 * ((vals[0] - vals[1]) / (2 * eps) - 1j * (vals[2] - vals[3]) / (2 * eps))
    want = smooth_compact_field(pts)
    return float(np.max(np.abs(dz - want) / np.maximum(np.abs(want), 1e-3)))


def test_cauchy_transform_inverts_dz(mesh_fine):
    assert dz_inversion_error(mesh_fine) <= 1e-2


# ---------------------------------------------------------------------------
# arc-constrained fits


def test_fit_constant_i_on_full_circle():
    dom = DiskDomain(gamma0=(0.0, 2 * np.pi - 1e-9))
    f = fit_holomorphic_on_arc([(0.0, 0, 1j)], dom, degree=8, part="re")
    z = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 40))
    assert np.max(np.abs(f(z) - 1j)) <= 1e-6


def test_fit_full_data_phase_baseline():
    dom = DiskDomain()
    p = 0.1 - 0.2j
    f = fit_holomorphic_on_arc([(p, 1, 0.0), (p, 0, 1j)], dom, degree=8)
    assert abs(f.derivative()(p)) <= 1e-10
    assert abs(f(p) - 1j) <= 1e-10


def test_fit_upper_half_circle_residual():
    dom = DiskDomain(gamma0=(0.0, np.pi))
    p = -0.3j
    f = fit_holomorphic_on_arc([(p, 1, 0.0)], dom, degree=12, part="im")
    assert f.meta["arc_residual"] <= 1e-6


# ---------------------------------------------------------------------------
# Morse phases and critical points


def test_morse_phase_full_data_explicit():
    dom = DiskDomain()
    p = 0.2 + 0.1j
    phi = build_morse_phase(dom, p, degree=8)
    assert abs(phi.derivative()(p)) <= 1e-12
    assert abs(phi.derivative(2)(p)) > 1e-8
    assert phi(p).imag != 0.0


def test_morse_phase_quarter_circle(quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    assert phi.meta["arc_residual"] <= 1e-6
    assert abs(phi.derivative()(P_STAR)) <= 1e-10
    report = phi.meta["critical_points"]
    assert report.is_morse
    assert any(abs(q.location - P_STAR) < 1e-10 for q in report.points)


@pytest.mark.parametrize("degree", [16, 36], ids=["16-plain", "36-plain"])
def test_phase_fit_matches_per_mu_rebuild(quarter_domain, degree):
    """Building the mu-independent rows and null space once gives bitwise
    the fit that rebuilding everything for each mu gives."""
    fit = holo._phase_fitter(quarter_domain, P_STAR, degree)
    for mu in (1e-9, 3.2e-6, 1e-2):
        fn, res = fit(mu)
        want, want_res = reference_phase_candidate(quarter_domain, P_STAR, degree, mu)
        assert np.array_equal(fn.coeffs, want)
        assert res == want_res


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_derivative_rows_match_scalar_loop(order):
    rng = np.random.default_rng(order)
    z = rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)
    z[0] = 0.0
    for degree in (2, 16, 36):
        want = np.array([scalar_derivative_row(z0, order, degree) for z0 in z])
        assert np.array_equal(holo._derivative_rows(z, order, degree), want)
    # one order per point, as for mixed interpolation constraints
    orders = rng.integers(0, 4, len(z))
    want = np.array([scalar_derivative_row(z0, k, 36) for z0, k in zip(z, orders)])
    assert np.array_equal(holo._derivative_rows(z, orders, 36), want)


def test_morse_phase_factors_hard_constraints_once_per_attempt(quarter_domain, monkeypatch):
    """One null space per build, not one per bisection fit (15)."""
    calls = {"null_space": 0, "attempts": 0}
    null_space, find = holo.null_space, holo.find_critical_points

    def counting_null_space(*args, **kwargs):
        calls["null_space"] += 1
        return null_space(*args, **kwargs)

    def counting_find(*args, **kwargs):
        calls["attempts"] += 1
        return find(*args, **kwargs)

    monkeypatch.setattr(holo, "null_space", counting_null_space)
    monkeypatch.setattr(holo, "find_critical_points", counting_find)
    build_morse_phase(quarter_domain, P_STAR, degree=16)
    assert calls["attempts"] == 1
    assert calls["null_space"] == calls["attempts"]


@pytest.mark.parametrize("degree", [16, 36], ids=["16-plain", "36-plain"])
def test_phase_screen_matches_fit_residual(quarter_domain, degree):
    """The residual screened from the R factors agrees with the full fit's
    to 1e-4 relative over the whole bisection bracket."""
    fit = holo._phase_fitter(quarter_domain, P_STAR, degree)
    for mu in np.logspace(-9, -2, 15):
        _, res = fit(mu)
        assert abs(fit.screen(mu) - res) <= 1e-4 * res


def _reference_bisection(domain, p, degree, psi_target):
    """Chosen penalty weight and coefficients of the bisection with one
    reference_phase_candidate fit per mu, as build_morse_phase ran it before
    it screened mu."""
    target = 0.8 * holo.ARC_RESIDUAL_TOL / psi_target
    lo, hi = 1e-9, 1e-2
    coeffs, _ = reference_phase_candidate(domain, p, degree, lo)
    for _ in range(14):
        mid = np.sqrt(lo * hi)
        c, res = reference_phase_candidate(domain, p, degree, mid)
        if res <= target:
            lo, coeffs = mid, c
        else:
            hi = mid
    return lo, psi_target * coeffs


def test_morse_phase_decisions_match_reference_bisection(ref_scenario):
    """Every phase the benchmark builds at seed 0 (the 30 reconstruct
    phases, both cgo_regimes phases and the carleman phase, which the
    solve_fine scenario builds at the same point, degree and psi_target):
    the screened bisection picks the reference's penalty weight and returns
    its coefficients bit for bit."""
    cfg, dom, p = ref_scenario.config, ref_scenario.domain, ref_scenario.point
    grid = [p] + list(make_grid(cfg["grid_n"], cfg["grid_radius"]))
    cases = [(q, cfg["psi_target"]) for q in grid]
    cases += [(p, regime["psi_target"]) for regime in cfg["cgo_regimes"]]
    cases.append((p, cfg["carleman_psi_target"]))
    assert len(cases) == 33
    for q, psi_target in cases:
        phi = build_morse_phase(dom, q, degree=cfg["phase_degree"], psi_target=psi_target)
        mu, coeffs = _reference_bisection(dom, complex(q), cfg["phase_degree"], psi_target)
        assert phi.meta["penalty_weight"] == mu
        assert np.array_equal(phi.coeffs, coeffs)


def test_morse_phase_solves_full_least_squares_once_per_attempt(quarter_domain, monkeypatch):
    """The bisection screens mu on the R factors: one full least-squares
    solve per build, at the chosen mu (15 before the screen)."""
    calls = {"solve": 0, "attempts": 0}
    solve, find = holo._solve_soft, holo.find_critical_points

    def counting_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def counting_find(*args, **kwargs):
        calls["attempts"] += 1
        return find(*args, **kwargs)

    monkeypatch.setattr(holo, "_solve_soft", counting_solve)
    monkeypatch.setattr(holo, "find_critical_points", counting_find)
    build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.8)
    assert calls["attempts"] == 1
    assert calls["solve"] == calls["attempts"]


def test_morse_phase_checks_the_full_fit_not_the_screen(quarter_domain, monkeypatch):
    """A screen that accepts every mu drives the bisection to the top of
    the bracket, where the full fit misses the residual target: the builder
    raises instead of returning that phase."""
    fitter = holo._phase_fitter

    def accepting_fitter(*args):
        fit = fitter(*args)
        fit.screen = lambda mu: 0.0
        return fit

    monkeypatch.setattr(holo, "_phase_fitter", accepting_fitter)
    with pytest.raises(InfeasibleDegreeError, match="at penalty weight"):
        build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.8)


def _non_morse(report):
    """report with every critical point marked degenerate."""
    points = [replace(q, degenerate=True) for q in report.points]
    return CriticalPointReport(points=points, count_check=report.count_check)


def _without_p(report):
    """report with every critical point moved 2 PRIMARY_TOL, so none is p."""
    points = [replace(q, location=q.location + 2.0 * holo.PRIMARY_TOL) for q in report.points]
    return CriticalPointReport(points=points, count_check=report.count_check)


def test_morse_phase_names_the_last_report_after_every_attempt_fails(quarter_domain, monkeypatch):
    """The builder certifies its one fit once, with no refit: a report that
    is not Morse, or a Morse report that lacks p, raises
    MorseVerificationError naming that report."""
    find = holo.find_critical_points
    for spoil in (_non_morse, _without_p):
        reports = []

        def spoiled(phi):
            reports.append(spoil(find(phi)))
            return reports[-1]

        monkeypatch.setattr(holo, "find_critical_points", spoiled)
        with pytest.raises(MorseVerificationError) as err:
            build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.8)
        assert len(reports) == 1
        assert reports[0].is_morse is (spoil is _without_p)
        assert str(err.value).endswith(f"report: {reports[0]}")


def test_morse_phase_rejects_boundary_point(quarter_domain):
    with pytest.raises(ConfigurationError):
        build_morse_phase(quarter_domain, np.exp(0.3j), degree=16)


def test_find_critical_points_parabola():
    rep = find_critical_points(HoloFunction([1j, 0.0, 1.0]))
    assert len(rep.points) == 1
    q = rep.points[0]
    assert abs(q.location) <= 1e-12
    assert q.second_abs == pytest.approx(2.0)
    assert not q.degenerate
    assert rep.count_check == 1


def test_find_critical_points_degenerate_cube():
    rep = find_critical_points(HoloFunction([0.0, 0.0, 0.0, 1.0]))
    assert any(q.degenerate for q in rep.points)
    # z^3: the double zero of 3 z^2 stays one point of multiplicity 2
    assert rep.count_check == 2
    assert len(rep.points) == 1
    assert rep.points[0].multiplicity == 2 and rep.points[0].degenerate
    assert abs(rep.points[0].location) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_argument_principle_count_random_degree8(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    rep = find_critical_points(HoloFunction(coeffs))
    assert sum(q.multiplicity for q in rep.points) == rep.count_check


def _primitive(dcoeffs) -> HoloFunction:
    """Phi with Phi(0) = 0 and dPhi the polynomial of dcoeffs (ascending)."""
    d = np.asarray(dcoeffs, dtype=complex)
    return HoloFunction(np.concatenate([[0.0], d / np.arange(1, len(d) + 1)]))


def _from_zeros(zeros) -> HoloFunction:
    """Phi whose derivative is prod (z - zero)."""
    return _primitive(np.poly(zeros)[::-1])


def _assert_same_report(got, want):
    """The contour count agrees, and per point the multiplicity, the flags
    and the location (within 1e-12)."""
    assert got.count_check == want.count_check
    assert len(got.points) == len(want.points)
    for q, r in zip(got.points, want.points):
        assert (q.multiplicity, q.degenerate, q.on_boundary) == (r.multiplicity, r.degenerate, r.on_boundary)
        assert abs(q.location - r.location) <= 1e-12


def _assert_matches_reference(phi):
    """find_critical_points agrees with the subdivision reference."""
    got = find_critical_points(phi)
    _assert_same_report(got, subdivision_critical_points(phi))
    return got


def test_critical_points_match_subdivision_on_scenario_phases(ref_scenario):
    """The reference scenario's 30 reconstruct phases (its point and the
    7 x 7 grid of radius 0.6, degree 36, psi_target 0.8), both cgo_regimes
    phases and the carleman phase."""
    cfg, dom, p = ref_scenario.config, ref_scenario.domain, ref_scenario.point
    grid = [p] + list(make_grid(cfg["grid_n"], cfg["grid_radius"]))
    assert len(grid) == 30
    cases = [(q, cfg["psi_target"]) for q in grid]
    cases += [(p, regime["psi_target"]) for regime in cfg["cgo_regimes"]]
    cases.append((p, cfg["carleman_psi_target"]))
    for q, psi_target in cases:
        phi = build_morse_phase(dom, q, degree=cfg["phase_degree"], psi_target=psi_target)
        _assert_matches_reference(phi)


@pytest.mark.parametrize("degree", [8, 16, 36])
def test_critical_points_match_subdivision_on_random_polynomials(degree):
    """50 seeded random polynomials per degree.  Where the subdivision
    reference itself misses a zero (its Newton polish accepts a neighbouring
    zero up to 5% outside the square, and the zero inside is lost), the new
    finder must still certify every zero the disk contour counts."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        phi = HoloFunction(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        got = find_critical_points(phi)
        try:
            want = subdivision_critical_points(phi)
        except RuntimeError as exc:
            assert "missed a zero" in str(exc)
            dphi = phi.derivative()
            scale = np.sum(np.abs(dphi.coeffs))
            assert all(abs(dphi(q.location)) <= 1e-12 * scale for q in got.points)
            continue
        _assert_same_report(got, want)


def test_critical_points_close_pair_stays_two_simple_points():
    phi = _from_zeros([0.3 + 0.2j, 0.3 + 0.2j + 1e-4, -0.5j])
    rep = _assert_matches_reference(phi)
    assert len(rep.points) == 3
    assert all(q.multiplicity == 1 and not q.degenerate for q in rep.points)


def test_critical_points_triple_zero_fails_loudly():
    """A triple zero's eigenvalues split by about eps^(1/3), wider than
    MERGE_TOL, so no cluster holds it; the finder fails loudly instead of
    returning a short list."""
    with pytest.raises(RuntimeError, match="missed a zero|could not certify"):
        find_critical_points(_from_zeros([0.3 + 0.1j] * 3 + [-0.4]))


@pytest.mark.parametrize("radius", [1.0 - 5e-4, 1.0 + 5e-4, 1.0 - 5e-7, 1.0 + 5e-7])
def test_critical_points_near_unit_circle_classified_as_reference(radius):
    """A zero near the unit circle: inside the verification circle
    |z| = 1 + 1e-6 it is located (on_boundary within 1e-6 of |z| = 1),
    outside it is neither counted nor located."""
    edge = radius * np.exp(0.9j)
    rep = _assert_matches_reference(_from_zeros([edge, 0.1 - 0.2j, -2.0]))
    located = [q for q in rep.points if abs(q.location - edge) <= 1e-9]
    assert len(located) == (radius <= 1.0 + 1e-6)
    assert all(q.on_boundary == (abs(radius - 1.0) < 1e-6) for q in located)


@pytest.mark.parametrize("angle", [0.0, 0.9], ids=["on_sample", "between_samples"])
def test_critical_points_double_zero_near_contour_fails_loudly(angle):
    """A double zero at radius 1 + 5e-7 (inside the verification circle
    |z| = 1 + 1e-6): next to a contour sample or between two samples, the
    winding over the disk contour is not certified, so the finder raises."""
    edge = (1.0 + 5e-7) * np.exp(1j * angle)
    with pytest.raises(RuntimeError, match="could not certify winding number on the disk contour"):
        find_critical_points(_from_zeros([edge, edge, 0.1 - 0.2j]))


def test_disk_contour_winding_never_drops_a_turn():
    """dPhi = (z - w)^2 (z - 0.1 + 0.2i) with w at radius 1 + 5e-7 has 3
    zeros inside |z| = 1 + 1e-6.  Between two contour samples the double
    zero turns the argument of dPhi by nearly 2 pi within one step; the
    contour winding is 3 or not certified, never one turn short."""
    for angle in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False).tolist() + [0.9]:
        w = (1.0 + 5e-7) * np.exp(1j * angle)
        dphi = _from_zeros([w, w, 0.1 - 0.2j]).derivative()
        try:
            count = holo._circle_winding(dphi, 1.0 + 1e-6)
        except RuntimeError as exc:
            assert "could not certify winding number on the disk contour" in str(exc)
            continue
        assert count == 3


def test_critical_points_missing_eigenvalue_fails_loudly(monkeypatch):
    """An eigenvalue withheld from the finder leaves its zero unlocated: the
    contour count exposes it instead of a short list being returned."""
    zeros = [0.5, -0.5, 0.5j]
    phi = _from_zeros(zeros)
    roots = np.roots

    def withholding_roots(coeffs):
        r = roots(coeffs)
        return r[np.abs(r - zeros[0]) > 1e-6]

    monkeypatch.setattr(holo.np, "roots", withholding_roots)
    with pytest.raises(RuntimeError, match="critical-point finder missed a zero"):
        find_critical_points(phi)


def test_critical_points_evaluate_few_polynomials(quarter_domain, monkeypatch):
    """Roots from the companion matrix and one batched winding: at most
    20 HoloFunction evaluations on a degree-36 phase."""
    phi = build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.8)
    calls = []
    call = HoloFunction.__call__

    def counting_call(self, z):
        calls.append(self)
        return call(self, z)

    monkeypatch.setattr(HoloFunction, "__call__", counting_call)
    find_critical_points(phi)
    assert 1 <= len(calls) <= 20


# ---------------------------------------------------------------------------
# amplitudes and jet forms


def test_amplitude_single_point_full_data():
    dom = DiskDomain()
    phi = build_morse_phase(dom, 0.0, degree=8)
    a = build_amplitude(phi, dom)
    z = 0.8 * np.exp(1j * np.linspace(0, 2 * np.pi, 32))
    assert np.max(np.abs(a(z) - 1.0)) <= 1e-8


def test_one_constant_decides_the_primary_point(quarter_domain):
    """A critical point within PRIMARY_TOL of p is the phase's own p to the
    report (not secondary) and to build_amplitude; one at twice that
    distance is secondary, and build_amplitude refuses the phase."""
    p = P_STAR
    for offset, is_primary in ((0.5 * holo.PRIMARY_TOL, True), (2.0 * holo.PRIMARY_TOL, False)):
        q = holo.CriticalPoint(p + offset, 2.0, 1, on_boundary=False, degenerate=False)
        report = CriticalPointReport(points=[q], count_check=1)
        assert report.secondary(p) == ([] if is_primary else [q])
        phase = HoloFunction([1j + p * p, -2.0 * p, 1.0], meta={"p": p, "critical_points": report})
        if is_primary:
            assert abs(build_amplitude(phase, quarter_domain)(p) - 1.0) <= 1e-10
        else:
            with pytest.raises(ValueError, match="not among"):
                build_amplitude(phase, quarter_domain)


def test_amplitude_vanishing_orders(quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    report = phi.meta["critical_points"]
    a = build_amplitude(phi, quarter_domain, vanish_order=4, degree=16)
    assert abs(a(P_STAR) - 1.0) <= 1e-10
    for q in report.secondary(P_STAR):
        for order in range(4):
            assert abs(a.derivative(order)(q.location)) <= 1e-8
    assert a.meta["arc_residual"] <= 1e-6


def test_jet_form_zero_field(quarter_mesh_mid, quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    theta = np.zeros(quarter_mesh_mid.n_vertices, dtype=complex)
    f = build_jet_form(theta, quarter_mesh_mid, phi)
    omega = f.derivative()
    z = 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 16))
    assert np.max(np.abs(omega(z))) <= 1e-8


def test_jet_form_matches_prescribed_jets(quarter_mesh_mid, quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    report = phi.meta["critical_points"]
    z = quarter_mesh_mid.vertices
    theta = (1.0 + 0.5j) + (0.3 - 0.2j) * z + (0.1 + 0.1j) * z**2
    f = build_jet_form(theta, quarter_mesh_mid, phi, degree=16)
    omega = f.derivative()
    # the 0th jet is matched at the primary point
    theta_fn = lambda w: (1.0 + 0.5j) + (0.3 - 0.2j) * w + (0.1 + 0.1j) * w**2
    assert abs(omega(P_STAR) - theta_fn(P_STAR)) <= 1e-4
    # jets to order 2 matched at secondary critical points
    for q in report.secondary(P_STAR):
        if abs(q.location) > 0.995:
            continue
        assert abs(omega(q.location) - theta_fn(q.location)) <= 1e-3


def test_infeasible_degree_raises(quarter_domain):
    phi = build_morse_phase(quarter_domain, P_STAR, degree=16)
    report = phi.meta["critical_points"]
    n_sec = len(report.secondary(P_STAR))
    if n_sec == 0:
        pytest.skip("phase has a single critical point")
    with pytest.raises(InfeasibleDegreeError):
        build_amplitude(phi, quarter_domain, vanish_order=50, degree=16)
