import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon import carleman as _ca
from calderon.cgo import conjugated_matrix
from calderon.forward import schrodinger_matrix
from calderon.geometry import ConfigurationError, DiskDomain
from calderon.holo import HoloFunction, build_morse_phase

from conftest import CARLEMAN_CHEAP, P_STAR, per_sample_ratio_terms


@pytest.fixture(scope="module")
def quarter_weight(quarter_domain, ref_mesh):
    phase = build_morse_phase(quarter_domain, P_STAR, degree=36, psi_target=0.12)
    return _ca.build_carleman_weight(ref_mesh, phase, 1.0)


def test_epsilon_h_constraint(quarter_weight, quarter_mesh_mid):
    with pytest.raises(ConfigurationError):
        _ca.convexify_weight(quarter_weight, quarter_mesh_mid, 0.5)  # h > epsilon/5
    with pytest.raises(ConfigurationError, match="h = 0.0 must be positive"):
        _ca.convexify_weight(quarter_weight, quarter_mesh_mid, 0.0)


def test_auxiliary_neumann_residual(quarter_weight, quarter_domain):
    """Each auxiliary has normal derivative 0 on gamma0 within 1e-4."""
    theta = np.linspace(0.0, np.pi / 2, 200)
    nodes = np.exp(1j * theta)
    for g in quarter_weight.auxiliaries:
        # radial derivative of Im g on the unit circle
        dn = np.imag(g.derivative()(nodes) * nodes)
        assert np.max(np.abs(dn)) <= 1e-4


def test_gradient_sum_positive(quarter_weight):
    assert quarter_weight.meta["gradient_sq_min"] > 0


def test_convexify_formula_instance(quarter_weight, quarter_mesh_mid):
    w = quarter_weight
    z = quarter_mesh_mid.vertices
    sq = sum(p**2 for p in w.phi_values(z))
    h = 0.1
    expected = np.real(w.phase(z)) - (h / (2.0 * w.epsilon)) * sq
    got = _ca.convexify_weight(w, quarter_mesh_mid, h)
    assert np.max(np.abs(got - expected)) <= 1e-14
    # uniform bound ||phi_eps - phi||_inf <= (h / 2 eps) max sum |phi_j|^2
    assert np.max(np.abs(got - np.real(w.phase(z)))) <= (h / (2 * w.epsilon)) * np.max(sq) + 1e-14


def test_convexity_laplacian_identity(quarter_weight, ref_mesh):
    check = _ca.convexity_check(quarter_weight, ref_mesh, 0.1)
    assert check <= 5e-2


def test_ratio_rejects_zero_function(quarter_weight, quarter_mesh_mid):
    with pytest.raises(ConfigurationError):
        _ca.carleman_ratio(
            quarter_mesh_mid, quarter_weight, 0.0, np.zeros(quarter_mesh_mid.n_vertices), 0.1
        )


def test_ratio_rejects_nonvanishing_boundary(quarter_weight, quarter_mesh_mid):
    with pytest.raises(ConfigurationError):
        _ca.carleman_ratio(
            quarter_mesh_mid, quarter_weight, 0.0, np.ones(quarter_mesh_mid.n_vertices), 0.1
        )


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=0.1, max_value=50.0))
def test_ratio_homogeneity(lam):
    mesh, weight, u, base = _homogeneity_case()
    _, _, ratio = _ca.carleman_ratio(mesh, weight, 0.0, lam * u, 0.1)
    assert ratio == pytest.approx(base, rel=1e-9)


_H_CACHE = {}


def _homogeneity_case():
    if not _H_CACHE:
        from calderon.geometry import build_disk_mesh

        dom = DiskDomain(gamma0=(0.0, np.pi / 2))
        mesh = build_disk_mesh(0.08, dom)
        phase = build_morse_phase(dom, P_STAR, degree=16, psi_target=0.3)
        weight = _ca.build_carleman_weight(mesh, phase, 1.0)
        u = _ca.sample_test_functions(mesh, 1, seed=3)[0]
        _, _, base = _ca.carleman_ratio(mesh, weight, 0.0, u, 0.1)
        _H_CACHE.update(mesh=mesh, weight=weight, u=u, base=base)
    c = _H_CACHE
    return c["mesh"], c["weight"], c["u"], c["base"]


def test_lhs_increases_as_h_decreases(quarter_weight, quarter_mesh_mid):
    u = _ca.sample_test_functions(quarter_mesh_mid, 1, seed=0)[0]
    lhs = []
    for h in (0.2, 0.1, 0.05):
        l, _, _ = _ca.carleman_ratio(quarter_mesh_mid, quarter_weight, 0.0, u, h)
        lhs.append(l)
    assert lhs[0] < lhs[1] < lhs[2]


def test_sweep_zero_samples_rejected(quarter_weight, quarter_mesh_mid):
    with pytest.raises(ConfigurationError):
        _ca.carleman_sweep(quarter_mesh_mid, quarter_weight, 0.0, [0.1], sample_count=0)


def test_sweep_skips_unusable_h(quarter_weight, ref_mesh):
    """A refused h has exactly one record, its entry in the report's
    skipped list: no warning is raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = _ca.carleman_sweep(
            ref_mesh, quarter_weight, 0.0, [0.5, 0.1], sample_count=5
        )
    assert caught == []
    assert rep["skipped"] == [
        {"h": 0.5, "reason": "h = 0.5 too large for epsilon = 1.0: the convexified estimate needs h <= epsilon/5"}
    ]


def test_sweep_with_no_usable_h_names_each_reason(quarter_weight, quarter_mesh_mid):
    """A sweep that refuses every h says why, one recorded reason per h."""
    with pytest.raises(ConfigurationError) as err:
        _ca.carleman_sweep(quarter_mesh_mid, quarter_weight, 0.0, [0.5, 0.3], sample_count=2)
    assert str(err.value) == (
        "no h in the list was usable for the Carleman sweep"
        "; h = 0.5 too large for epsilon = 1.0: the convexified estimate needs h <= epsilon/5"
        "; h = 0.3 too large for epsilon = 1.0: the convexified estimate needs h <= epsilon/5"
    )


def test_sweep_baseline_and_negative_potential_degrades(quarter_weight, ref_mesh):
    """A negative potential eats into the operator-residual side: the minimum
    ratio drops relative to V = 0.  (Large positive or hugely negative V can
    inflate the rhs instead; the report records ||V||_inf for the reader.)"""
    h_list = [0.2, 0.14, 0.1]
    rep0 = _ca.carleman_sweep(ref_mesh, quarter_weight, 0.0, h_list, sample_count=20)
    repn = _ca.carleman_sweep(ref_mesh, quarter_weight, -20.0, h_list, sample_count=20)
    assert rep0["pass"]
    assert rep0["c_star"] > 0
    assert repn["c_star"] < rep0["c_star"]
    assert repn["v_inf"] == 20.0


def test_sweep_csv_and_json(tmp_path, monkeypatch):
    """run_carleman writes the sweep rows to carleman_sweep.csv, which
    parses back to them exactly, and keeps them out of
    carleman_report.json."""
    from calderon import cli
    from calderon.scenarios import load_scenario

    sweeps = []
    sweep = _ca.carleman_sweep

    def recording_sweep(*args, **kwargs):
        rep = sweep(*args, **kwargs)
        sweeps.append(rep["rows"])
        return rep

    monkeypatch.setattr(_ca, "carleman_sweep", recording_sweep)
    cli.run_carleman(load_scenario({"name": "cheap", "seed": 3, **CARLEMAN_CHEAP}), str(tmp_path))
    (rows,) = sweeps
    assert rows
    lines = (tmp_path / "carleman_sweep.csv").read_text().splitlines()
    assert lines[0] == "h,sample_id,lhs,rhs,ratio"
    back = [line.split(",") for line in lines[1:]]
    assert [(float(h), int(sid), float(lhs), float(rhs), float(r)) for h, sid, lhs, rhs, r in back] == rows
    report = json.loads((tmp_path / "carleman_report.json").read_text())
    assert "rows" not in report
    assert report["c_star"] == min(r[4] for r in rows)


def test_sweep_matches_per_sample_reference(quarter_weight, ref_mesh):
    """Every sweep row, and carleman_ratio, equal the per-(h, u) reference
    that recomputes all terms, to the bit."""
    V, h_list, count = -20.0, [0.2, 0.1], 4
    rep = _ca.carleman_sweep(ref_mesh, quarter_weight, V, h_list, sample_count=count)
    A = schrodinger_matrix(ref_mesh, V)
    samples = _ca.sample_test_functions(ref_mesh, count, seed=0)
    want = []
    for h in h_list:
        B = conjugated_matrix(A, _ca.convexify_weight(quarter_weight, ref_mesh, h), h)
        for sid, u in enumerate(samples):
            lhs, rhs, ratio = per_sample_ratio_terms(ref_mesh, quarter_weight, B, u, h)
            want.append((h, sid, lhs, rhs, ratio))
            if sid == 1:
                assert _ca.carleman_ratio(ref_mesh, quarter_weight, V, u, h) == (lhs, rhs, ratio)
    assert rep["rows"] == want


def test_sweep_samples_phase_derivative_once(quarter_weight, quarter_mesh_mid, monkeypatch):
    derived = []
    derivative = HoloFunction.derivative

    def logging_derivative(self, order=1):
        derived.append(self)
        return derivative(self, order)

    monkeypatch.setattr(HoloFunction, "derivative", logging_derivative)
    _ca.carleman_sweep(quarter_mesh_mid, quarter_weight, 0.0, [0.2, 0.1], sample_count=5)
    assert sum(f is quarter_weight.phase for f in derived) == 1


def test_carleman_factorizes_nothing(quarter_weight, quarter_mesh_mid, operator_builds):
    u = _ca.sample_test_functions(quarter_mesh_mid, 1, seed=0)[0]
    _ca.carleman_ratio(quarter_mesh_mid, quarter_weight, -20.0, u, 0.1)
    _ca.carleman_sweep(quarter_mesh_mid, quarter_weight, -20.0, [0.1], sample_count=2)
    assert operator_builds == []


def test_run_carleman_assembles_once(tmp_path, monkeypatch, operator_builds, stiffness_assemblies):
    """run_carleman assembles the stiffness matrix once (the sweep and the
    convexity check share the mesh's), factorizes nothing, and each
    convexify_weight evaluates the phase once."""
    from calderon import cli
    from calderon.scenarios import load_scenario

    sc = load_scenario(
        {"name": "cheap", "seed": 0, "resolution": 0.08, "epsilon": 1.0,
         "carleman_samples": 4, "h_list": [0.2, 0.17]}
    )
    evaluated = []
    call = HoloFunction.__call__

    def logging_call(self, z):
        evaluated.append(self)
        return call(self, z)

    convexified = []
    convexify = _ca.convexify_weight

    def logging_convexify(weight, mesh, h):
        start = len(evaluated)
        out = convexify(weight, mesh, h)
        convexified.append(sum(f is weight.phase for f in evaluated[start:]))
        return out

    monkeypatch.setattr(HoloFunction, "__call__", logging_call)
    monkeypatch.setattr(_ca, "convexify_weight", logging_convexify)
    cli.run_carleman(sc, str(tmp_path))
    assert [m is sc.mesh for m in stiffness_assemblies] == [True]
    assert operator_builds == []
    assert convexified and convexified == [1] * len(convexified)
