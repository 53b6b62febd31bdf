import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon.geometry import (
    ConfigurationError,
    DiskDomain,
    build_disk_mesh,
    boundary_integral,
    bump,
    dz_field,
    dzbar_field,
)
from calderon.cgo import Cutoff

from conftest import interior_integral, loop_disk_mesh, normal_derivative_trace


def test_domain_rejects_empty_gamma():
    with pytest.raises(ConfigurationError):
        DiskDomain(gamma0=(0.0, 2.0 * np.pi))


def test_domain_owns_a_wrapping_gamma0_arc():
    """On gamma0 = [-pi/3, pi/6], which wraps through theta = 0, the arc's
    points run from one end to the other and stay on gamma0, and the margin
    is the angular distance to the nearer end."""
    a, b = -np.pi / 3, np.pi / 6
    domain = DiskDomain(gamma0=(a, b))
    assert domain.gamma0_span == pytest.approx(np.pi / 2)
    pts = domain.gamma0_points(33)
    assert len(pts) == 33
    assert pts[0] == pytest.approx(np.exp(1j * a)) and pts[-1] == pytest.approx(np.exp(1j * b))
    assert np.all(domain.on_gamma0(np.angle(pts)))
    assert domain.gamma0_margin(a) == pytest.approx(0.0, abs=1e-15)
    assert domain.gamma0_margin(b) == pytest.approx(0.0, abs=1e-15)
    assert domain.gamma0_margin(-np.pi / 12) == pytest.approx(np.pi / 4)
    assert domain.gamma0_margin(11 * np.pi / 12) == pytest.approx(3 * np.pi / 4)
    full = DiskDomain()
    assert full.gamma0_margin(0.3) == np.inf
    assert full.gamma0_points(8).shape == (0,)


def test_bump_values():
    """bump(0) = 1, bump vanishes for |t| >= 1 and is positive inside, and
    a Cutoff built on it is exactly 1 on its inner half and 0 outside."""
    assert bump(0.0) == 1.0
    t = np.array([-2.0, -1.0, 1.0, 1.5, np.inf])
    assert np.array_equal(bump(t), np.zeros(len(t)))
    inside = np.linspace(-0.999, 0.999, 41)
    assert np.all(bump(inside) > 0) and np.all(bump(inside) <= 1.0)
    chi = Cutoff(0.1 + 0.2j, 0.4)
    z = chi.center + np.linspace(0.0, 0.6, 121) * np.exp(0.7j)
    r = np.abs(z - chi.center)
    values = chi(z)
    assert np.all(values[r <= 0.2] == 1.0)
    falloff = values[(r > 0.21) & (r < 0.39)]
    assert np.all((falloff > 0) & (falloff < 1))
    assert np.all(values[r >= 0.4] == 0.0)


def _dz_dzbar_error(mesh, f, dz, dzbar, where):
    return max(
        np.max(np.abs(dz_field(f, mesh) - dz)[where]),
        np.max(np.abs(dzbar_field(f, mesh) - dzbar)[where]),
    )


@pytest.mark.parametrize("mesh_name", ["mesh_coarse", "mesh_mid"])
def test_dz_dzbar_recovery(mesh_name, request):
    """d/dz and d/dzbar of z, zbar, x and y are exact at every vertex; for
    z^2 and |z|^2 the error on the bulk |z| < 1 - 4 resolution is at most
    one resolution (0.81 resolution measured at 0.08 and 0.04)."""
    mesh = request.getfixturevalue(mesh_name)
    z = mesh.vertices
    every = np.ones(len(z), dtype=bool)
    for f, dz, dzbar in ((z, 1.0, 0.0), (np.conj(z), 0.0, 1.0), (z.real, 0.5, 0.5), (z.imag, -0.5j, 0.5j)):
        assert _dz_dzbar_error(mesh, f, dz, dzbar, every) <= 1e-12
    bulk = np.abs(z) < 1.0 - 4.0 * mesh.resolution
    for f, dz, dzbar in ((z**2, 2.0 * z, 0.0), (np.abs(z) ** 2, np.conj(z), z)):
        assert _dz_dzbar_error(mesh, f, dz, dzbar, bulk) <= mesh.resolution


def test_mesh_cells_positively_oriented(mesh_mid):
    v = mesh_mid.vertices[mesh_mid.cells]
    cross = np.imag(np.conj(v[:, 1] - v[:, 0]) * (v[:, 2] - v[:, 0]))
    assert np.all(cross > 0)


def test_boundary_ordered_by_angle(mesh_mid):
    theta = np.angle(mesh_mid.vertices[mesh_mid.boundary]) % (2.0 * np.pi)
    assert np.all(np.diff(theta) > 0)


def test_gamma0_snapped_to_vertices(quarter_mesh_mid, quarter_domain):
    theta = quarter_mesh_mid.boundary_theta()
    labelled = quarter_mesh_mid.boundary_is_gamma0
    assert np.array_equal(labelled, quarter_domain.on_gamma0(theta))
    assert labelled.any() and (~labelled).any()


@pytest.mark.parametrize("resolution", [1.0, 0.5, 0.3, 0.1, 0.05, 0.0175, 0.01])
@pytest.mark.parametrize("gamma0", [None, (0.0, np.pi / 2), (5.5, 0.7), (1.0, 1.05)])
def test_mesh_matches_loop_walk(resolution, gamma0):
    """The searchsorted ring merge builds the per-triangle walk's mesh bit
    for bit: vertices, cells in their order, boundary and arc labels (gamma0
    off, a quarter arc, an arc across angle 0 and a short arc)."""
    domain = DiskDomain(gamma0=gamma0)
    mesh = build_disk_mesh(resolution, domain)
    got = (mesh.vertices, mesh.cells, mesh.boundary, mesh.boundary_is_gamma0)
    for g, want in zip(got, loop_disk_mesh(resolution, domain)):
        assert g.dtype == want.dtype and g.shape == want.shape
        assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("resolution", [0.08, 0.035])
@pytest.mark.parametrize(
    "gamma0, wrapped_start",
    [((-0.01, 1.0), True), ((2 * np.pi - 0.004, 1.0), True), ((-np.pi / 3, np.pi / 6), False)],
)
def test_mesh_cells_are_counter_clockwise_as_built(resolution, gamma0, wrapped_start):
    """build_disk_mesh reorients no cell: every cell has positive signed
    area in the order built, also when a gamma0 end just below theta = 0
    moves the boundary vertex nearest the inner rings' start angle 0 behind
    it (the outermost strip then takes _merge_rings' wrapped start), and
    when gamma0 wraps through theta = 0."""
    mesh = build_disk_mesh(resolution, DiskDomain(gamma0=gamma0))
    v, c = mesh.vertices, mesh.cells
    signed = np.imag(np.conj(v[c[:, 1]] - v[c[:, 0]]) * (v[c[:, 2]] - v[c[:, 0]]))
    assert np.all(signed > 0)
    theta = mesh.boundary_theta()
    nearest = theta[np.argmin(np.abs(np.angle(np.exp(1j * theta))))]
    assert (nearest > np.pi) == wrapped_start


@pytest.mark.parametrize("resolution, gamma0", [(0.0, None), (-0.1, (0.0, np.pi / 2)), (1.0, (0.1, 6.2)), (0.3, (0.1, 6.2))])
def test_mesh_errors_match_loop_walk(resolution, gamma0):
    """A non-positive resolution and an arc gamma0 that takes every boundary
    vertex fail as they did with the per-triangle walk."""
    domain = DiskDomain(gamma0=gamma0)
    with pytest.raises(ConfigurationError) as want:
        loop_disk_mesh(resolution, domain)
    with pytest.raises(ConfigurationError) as got:
        build_disk_mesh(resolution, domain)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("resolution", [1.0, 0.3, 0.04])
def test_interior_order_is_a_permutation_of_the_interior(resolution, quarter_domain):
    """interior_order lists every interior vertex once, from a mesh with one
    interior vertex to one with many parts to split, and two builds of one
    mesh give the same array."""
    mesh, again = (build_disk_mesh(resolution, quarter_domain) for _ in range(2))
    assert np.array_equal(np.sort(mesh.interior_order), np.flatnonzero(mesh.interior))
    assert np.array_equal(again.interior_order, mesh.interior_order)


def test_interior_order_is_computed_once_on_first_use(interior_orderings, quarter_domain):
    """Building a mesh computes no order; the first use computes it and
    every later use reads the same array."""
    mesh = build_disk_mesh(0.04, quarter_domain)
    assert interior_orderings == []
    order = mesh.interior_order
    assert mesh.interior_order is order
    assert interior_orderings == [mesh]


def test_interior_integral_disk_area(mesh_mid):
    assert abs(interior_integral(1.0, mesh_mid) - np.pi) <= 1e-3


def test_interior_integral_zero_exact(mesh_mid):
    assert interior_integral(0.0, mesh_mid) == 0.0


def test_interior_integral_odd_function(mesh_mid):
    assert abs(interior_integral(lambda z: np.real(z), mesh_mid)) <= 1e-3


def test_interior_integral_conformal_weight():
    dom = DiskDomain(conformal_log_factor=lambda z: np.full(np.shape(z), 0.5))
    mesh = build_disk_mesh(0.04, dom)
    # measure e^{2 rho} dA = e * pi
    assert abs(interior_integral(1.0, mesh) - np.e * np.pi) <= 5e-3


def test_boundary_integral_circumference(mesh_mid):
    val = boundary_integral(np.ones(len(mesh_mid.boundary)), mesh_mid, "full")
    assert abs(val - 2.0 * np.pi) <= 1e-3


def test_boundary_integral_empty_arc_is_zero(mesh_mid):
    # full-data domain: gamma0 is empty
    val = boundary_integral(np.ones(len(mesh_mid.boundary)), mesh_mid, "gamma0")
    assert val == 0.0


def test_boundary_integral_cos_theta(mesh_mid):
    theta = mesh_mid.boundary_theta()
    val = boundary_integral(np.cos(theta), mesh_mid, "full")
    assert abs(val) <= 1e-3


def test_normal_derivative_radial(mesh_mid):
    u = (1.0 - np.abs(mesh_mid.vertices) ** 2) / 4.0
    tr = normal_derivative_trace(u, mesh_mid)
    assert np.max(np.abs(tr - (-0.5))) <= 2e-2


def test_normal_derivative_constant(mesh_mid):
    tr = normal_derivative_trace(np.ones(mesh_mid.n_vertices), mesh_mid)
    assert np.max(np.abs(tr)) <= 1e-10


def test_normal_derivative_linear(mesh_mid):
    tr = normal_derivative_trace(np.real(mesh_mid.vertices), mesh_mid)
    assert np.max(np.abs(tr - np.cos(mesh_mid.boundary_theta()))) <= 2e-2


@pytest.mark.parametrize("field", [lambda z: np.real(z), lambda z: np.real(z**2)])
def test_divergence_theorem_consistency(mesh_mid, field):
    """Harmonic u: boundary integral of the normal derivative vanishes."""
    u = field(mesh_mid.vertices)
    tr = normal_derivative_trace(u, mesh_mid)
    val = boundary_integral(tr, mesh_mid, "full")
    assert abs(val) <= 5e-2 * max(np.max(np.abs(u)), 1.0)


def test_refinement_reduces_quadrature_error(full_domain):
    errs = []
    for res in (0.08, 0.04):
        mesh = build_disk_mesh(res, full_domain)
        errs.append(abs(interior_integral(lambda z: np.real(z) ** 2, mesh) - np.pi / 4))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-10, 10), b=st.floats(-10, 10))
def test_interior_integral_linear_in_integrand(a, b):
    mesh = _linearity_mesh()
    f = np.real(mesh.vertices)
    g = np.abs(mesh.vertices) ** 2
    lhs = interior_integral(a * f + b * g, mesh)
    rhs = a * interior_integral(f, mesh) + b * interior_integral(g, mesh)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(a) + abs(b))


_MESH_CACHE = {}


def _linearity_mesh():
    if "m" not in _MESH_CACHE:
        _MESH_CACHE["m"] = build_disk_mesh(0.1, DiskDomain())
    return _MESH_CACHE["m"]
