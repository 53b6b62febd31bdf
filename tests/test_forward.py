import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from calderon.forward import (
    CONDITION_SEED,
    DirichletEigenvalueError,
    SchrodingerOperator,
    boundary_pairing,
    operator,
)
from calderon.geometry import DiskDomain, as_values, build_disk_mesh

from conftest import CountingLU, gaussian_bump, green_apply, interior_integral, solve_schrodinger_dirichlet


def _l2(mesh, values):
    return np.sqrt(float(np.real(interior_integral(np.abs(values) ** 2, mesh))))


def test_harmonic_extension_of_cos_theta(mesh_mid):
    f = np.real(mesh_mid.vertices[mesh_mid.boundary])
    u = solve_schrodinger_dirichlet(mesh_mid, 0.0, f)
    # u = x is in the P1 space, so the only error is the solver's
    assert _l2(mesh_mid, u - np.real(mesh_mid.vertices)) <= 1e-10


def test_constant_data_constant_solution(mesh_mid):
    u = solve_schrodinger_dirichlet(mesh_mid, 0.0, np.ones(len(mesh_mid.boundary)))
    assert np.max(np.abs(u - 1.0)) <= 1e-10


def test_radial_potential_matches_ode_oracle(mesh_mid):
    """(Delta + 4) u = 0, u|_r=1 = 1 against a radial two-point BVP solve."""
    op = SchrodingerOperator(mesh_mid, 4.0)
    u = op.solve_dirichlet(np.ones(len(mesh_mid.boundary)))

    def rhs(r, y):
        return np.vstack([y[1], np.where(r > 1e-12, -y[1] / r, 0.0) + 4.0 * y[0]])

    def bc(ya, yb):
        return np.array([ya[1], yb[0] - 1.0])

    rr = np.linspace(1e-8, 1.0, 200)
    sol = solve_bvp(rhs, bc, rr, np.vstack([np.ones_like(rr), np.zeros_like(rr)]), tol=1e-10)
    exact = sol.sol(np.abs(mesh_mid.vertices))[0]
    assert np.max(np.abs(u - exact)) <= 1e-3


def test_green_apply_radial(mesh_mid):
    u = green_apply(mesh_mid, 0.0, 1.0)
    exact = (1.0 - np.abs(mesh_mid.vertices) ** 2) / 4.0
    assert _l2(mesh_mid, u - exact) <= 1e-4


def test_green_apply_zero(mesh_mid):
    u = green_apply(mesh_mid, 0.0, 0.0)
    assert np.max(np.abs(u)) == 0.0


def test_green_operator_self_adjoint(mesh_mid):
    rng = np.random.default_rng(0)
    z = mesh_mid.vertices
    f = np.exp(-np.abs(z - 0.2) ** 2 / 0.3**2) * (1 + 0.5 * np.real(z))
    g = np.exp(-np.abs(z + 0.3j) ** 2 / 0.4**2)
    Gf = green_apply(mesh_mid, 0.0, f)
    Gg = green_apply(mesh_mid, 0.0, g)
    w = mesh_mid.vertex_areas
    lhs = float(np.sum(w * Gf * g))
    rhs = float(np.sum(w * f * Gg))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-8)


def _gamma_cauchy_data(mesh, V, f_on_gamma):
    """(Dirichlet, Neumann) traces on gamma of the solution with Dirichlet
    data f on gamma and 0 on gamma0."""
    on_gamma = ~mesh.boundary_is_gamma0
    g = np.zeros(len(mesh.boundary))
    g[on_gamma] = f_on_gamma
    op = operator(mesh, V)
    u = op.solve_dirichlet(g)
    return u[mesh.boundary][on_gamma], op.weak_neumann_trace(u)[on_gamma]


def test_partial_cauchy_data_full_circle(mesh_mid):
    f = np.cos(mesh_mid.boundary_theta())
    _, neumann = _gamma_cauchy_data(mesh_mid, 0.0, f)
    # exterior normal derivative of the harmonic extension x is cos(theta)
    assert np.max(np.abs(neumann - f)) <= 2e-2


def test_partial_cauchy_data_zero(mesh_mid):
    dirichlet, neumann = _gamma_cauchy_data(mesh_mid, 0.0, np.zeros(len(mesh_mid.boundary)))
    assert np.max(np.abs(dirichlet)) == 0.0
    assert np.max(np.abs(neumann)) <= 1e-10


def test_dtn_reciprocity(quarter_mesh_mid):
    theta = quarter_mesh_mid.boundary_theta()[~quarter_mesh_mid.boundary_is_gamma0]
    f = np.cos(theta)
    g = np.sin(2.0 * theta)
    _, dn_f = _gamma_cauchy_data(quarter_mesh_mid, gaussian_bump, f)
    _, dn_g = _gamma_cauchy_data(quarter_mesh_mid, gaussian_bump, g)
    w = quarter_mesh_mid.boundary_weights[~quarter_mesh_mid.boundary_is_gamma0]
    lhs = float(np.sum(w * dn_f * g))
    rhs = float(np.sum(w * f * dn_g))
    assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1.0)


def test_boundary_pairing_analytic_example(mesh_mid):
    bnd = mesh_mid.boundary
    u1 = np.ones(mesh_mid.n_vertices)
    u2 = np.real(mesh_mid.vertices)
    op = SchrodingerOperator(mesh_mid, 0.0)
    pair = boundary_pairing(
        mesh_mid,
        (u1[bnd], op.weak_neumann_trace(u1)),
        (u2[bnd], op.weak_neumann_trace(u2)),
    )
    assert abs(pair) <= 1e-3


def test_boundary_pairing_antisymmetry(mesh_mid):
    bnd = mesh_mid.boundary
    op = SchrodingerOperator(mesh_mid, 0.0)
    u = op.solve_dirichlet(np.cos(2 * mesh_mid.boundary_theta()))
    traces = (u[bnd], op.weak_neumann_trace(u))
    assert boundary_pairing(mesh_mid, traces, traces) == 0.0


def test_green_identity_oracle_exact(mesh_mid):
    """Discrete master identity: pairing equals the lumped interior integral
    of u1 (V1-V2) u2 to rounding (flux-recovered Neumann traces)."""
    op1 = SchrodingerOperator(mesh_mid, gaussian_bump, name="V1")
    op2 = SchrodingerOperator(mesh_mid, 0.0, name="V2")
    g = np.real(mesh_mid.vertices[mesh_mid.boundary])
    u1 = op1.solve_dirichlet(g)
    u2 = op2.solve_dirichlet(g)
    pair = boundary_pairing(
        mesh_mid,
        (u1[mesh_mid.boundary], op1.weak_neumann_trace(u1)),
        (u2[mesh_mid.boundary], op2.weak_neumann_trace(u2)),
    )
    dV = as_values(gaussian_bump, mesh_mid)
    inner = float(np.sum(mesh_mid.vertex_areas * dV * u1 * u2))
    assert abs(pair - inner) <= 1e-10 * max(abs(inner), 1.0)


def test_interior_residual_at_solver_tolerance(mesh_mid):
    op = SchrodingerOperator(mesh_mid, gaussian_bump)
    u = op.solve_dirichlet(np.cos(mesh_mid.boundary_theta()))
    res = (op.A @ u)[op.int_idx]
    assert np.max(np.abs(res)) <= 1e-10


def test_dirichlet_eigenvalue_detected(mesh_mid):
    K = mesh_mid.stiffness
    M = mesh_mid.mass
    ii = np.where(mesh_mid.interior)[0]
    lam = spla.eigsh(
        K[np.ix_(ii, ii)].tocsc(), k=1, M=sp.diags(M[ii]).tocsc(),
        sigma=0, which="LM", return_eigenvectors=False,
    )[0]
    with pytest.raises(DirichletEigenvalueError) as err:
        SchrodingerOperator(mesh_mid, -lam, name="V_res")
    assert "V_res" in str(err.value)


@pytest.mark.parametrize(
    "resolution, gamma0, bound", [(0.01, None, 1.0), (0.0175, (0.0, np.pi / 2), 1.1)]
)
def test_dissection_order_fills_no_more_than_minimum_degree(resolution, gamma0, bound):
    """The LU of A_ii in the mesh's nested-dissection order has at most
    bound times the fill of SuperLU's minimum degree on A^T + A, applied to
    the same A_ii: no more on the fine full-data mesh, at most 10% more on
    the reference mesh."""
    mesh = build_disk_mesh(resolution, DiskDomain(gamma0=gamma0))
    op = SchrodingerOperator(mesh, gaussian_bump)
    ii = op.int_idx
    mmd = spla.splu(
        op.A[np.ix_(ii, ii)].tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )
    assert op.lu.L.nnz + op.lu.U.nnz <= bound * (mmd.L.nnz + mmd.U.nnz)


def test_operators_of_one_mesh_share_one_order(monkeypatch, interior_orderings):
    """Two potentials on one mesh compute one interior order, and each
    factorization keeps it (NATURAL column order)."""
    specs = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    mesh = build_disk_mesh(0.05, DiskDomain())
    ops = [operator(mesh, 0.0), operator(mesh, gaussian_bump)]
    assert interior_orderings == [mesh]
    assert all(op.int_idx is mesh.interior_order for op in ops)
    assert specs == ["NATURAL", "NATURAL"]


def test_operator_cache_keys_on_vertex_values(operator_builds):
    mesh = build_disk_mesh(0.1, DiskDomain())
    bump = operator(mesh, gaussian_bump, name="V1")
    assert operator(mesh, as_values(gaussian_bump, mesh)) is bump
    zero = operator(mesh, 0.0)
    assert operator(mesh, np.zeros(mesh.n_vertices)) is zero
    assert zero is not bump
    assert operator(mesh, lambda z: 2.0 * gaussian_bump(z)) not in (zero, bump)
    assert len(operator_builds) == 3


@pytest.fixture(scope="module")
def mesh_rho():
    """Coarse quarter-arc disk with a non-constant conformal factor."""
    dom = DiskDomain(conformal_log_factor=lambda z: 0.3 * np.real(z) + 0.1, gamma0=(0.0, np.pi / 2))
    return build_disk_mesh(0.05, dom)


def _dirichlet_eigenvalues(mesh, k):
    K = mesh.stiffness
    M = mesh.mass
    ii = np.where(mesh.interior)[0]
    return np.sort(spla.eigsh(
        K[np.ix_(ii, ii)].tocsc(), k=k, M=sp.diags(M[ii]).tocsc(),
        sigma=0, which="LM", return_eigenvectors=False,
    ))


@pytest.mark.parametrize("case", ["nonnegative", "indefinite"])
def test_symmetric_ordering_matches_default_lu(mesh_rho, case):
    """The symmetric-pattern ordering solves like a default-ordering splu,
    also when A_ii is indefinite: the constant V = -(lam1 + lam2)/2 puts 0
    between the first two Dirichlet eigenvalues of Delta_g + V, so partial
    pivoting is needed."""
    if case == "nonnegative":
        V = lambda z: 3.0 * gaussian_bump(z)
    else:
        lam = _dirichlet_eigenvalues(mesh_rho, 2)
        V = -0.5 * (lam[0] + lam[1])
    op = SchrodingerOperator(mesh_rho, V)
    g = np.cos(3.0 * mesh_rho.boundary_theta()) + 0.5
    f = np.sin(np.real(mesh_rho.vertices))
    u = op.solve_dirichlet(g, source=f)
    ii = op.int_idx
    rhs = -op.A_ib @ g + (mesh_rho.mass * f)[ii]
    want = np.zeros(mesh_rho.n_vertices)
    want[ii] = spla.splu(op.A[np.ix_(ii, ii)].tocsc()).solve(rhs)
    want[op.bnd_idx] = g
    assert np.max(np.abs(u - want)) <= 1e-10 * np.max(np.abs(want))


def test_condition_estimate_recorded(mesh_mid):
    op = SchrodingerOperator(mesh_mid, gaussian_bump)
    assert np.isfinite(op.condition_estimate)
    assert op.condition_estimate >= 1.0


def test_condition_estimate_in_two_column_passes(mesh_mid, monkeypatch):
    """onenormest's t = 2 blocks each take one LU pass, and the estimate
    matches the one-column-per-solve estimate on the same random draws."""
    splu = spla.splu
    factorizations = []

    def counting_splu(*args, **kwargs):
        factorizations.append(CountingLU(splu(*args, **kwargs)))
        return factorizations[-1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    np.random.seed(3)
    op = SchrodingerOperator(mesh_mid, gaussian_bump)
    (lu,) = factorizations
    assert lu.columns and set(lu.columns) == {2}
    ii = op.int_idx
    A_ii = op.A[np.ix_(ii, ii)]
    one_column = spla.LinearOperator(A_ii.shape, matvec=lu.lu.solve, rmatvec=lu.lu.solve)
    np.random.seed(CONDITION_SEED)
    want = spla.onenormest(one_column) * spla.norm(A_ii, 1)
    assert abs(op.condition_estimate - want) <= 1e-12 * want


def test_operator_build_leaves_the_global_stream_alone(mesh_mid):
    """The condition estimate draws from its own seed: a build between two
    draws of the caller's np.random stream does not advance it."""
    np.random.seed(0)
    want = np.random.rand(3)
    np.random.seed(0)
    SchrodingerOperator(mesh_mid, gaussian_bump)
    assert np.array_equal(np.random.rand(3), want)


def test_condition_estimate_ignores_the_global_seed(mesh_mid):
    """The estimate is a function of the operator: an indefinite one, whose
    estimate depends on onenormest's random start columns, gives the same
    value under two global seeds."""
    estimates = set()
    for seed in (1, 2):
        np.random.seed(seed)
        estimates.add(SchrodingerOperator(mesh_mid, -20.0).condition_estimate)
    assert len(estimates) == 1


def test_block_solve_matches_column_solves(quarter_mesh_mid):
    """A block of complex data, with and without a source, solves to the
    column-by-column solutions (one real LU solve per real and imaginary
    part) within 1e-14 of their size; so does each column on its own."""
    mesh = quarter_mesh_mid
    op = SchrodingerOperator(mesh, gaussian_bump)
    ii = op.int_idx
    theta = mesh.boundary_theta()
    G = np.stack([np.exp(1j * k * theta) * (1.0 + 0.1 * k) for k in range(1, 6)], axis=1)
    F = np.stack([np.cos(k * mesh.vertices.real) + 1j * k for k in range(1, 6)], axis=1)
    for source in (None, F):
        U = op.solve_dirichlet(G, source=source)
        assert U.shape == (mesh.n_vertices, G.shape[1])
        for k in range(G.shape[1]):
            f = None if source is None else F[:, k]
            rhs = -op.A_ib @ G[:, k] + (0.0 if f is None else (mesh.mass * f)[ii])
            want = np.zeros(mesh.n_vertices, dtype=complex)
            want[ii] = op.lu.solve(rhs.real) + 1j * op.lu.solve(rhs.imag)
            want[mesh.boundary] = G[:, k]
            for u in (U[:, k], op.solve_dirichlet(G[:, k], source=f)):
                assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))
    real = op.solve_dirichlet(G.real)
    assert real.dtype == float
    want = op.solve_dirichlet(G[:, 2].real)
    assert np.max(np.abs(real[:, 2] - want)) <= 1e-14 * np.max(np.abs(want))


def test_block_flux_has_the_bits_of_the_full_product(quarter_mesh_mid):
    """The block flux applies only the boundary rows of A, with the bits of
    (A @ u)[boundary] / w column by column, with and without a source."""
    mesh = quarter_mesh_mid
    op = SchrodingerOperator(mesh, gaussian_bump)
    theta = mesh.boundary_theta()
    G = np.stack([np.exp(1j * k * theta) for k in range(1, 5)], axis=1)
    F = np.stack([np.sin(k * mesh.vertices.imag) - 0.5j for k in range(1, 5)], axis=1)
    U = op.solve_dirichlet(G, source=F)
    bnd, w = mesh.boundary, mesh.boundary_weights
    for source in (None, F):
        dn = op.weak_neumann_trace(U, source=source)
        assert dn.shape == (len(bnd), G.shape[1])
        for k in range(G.shape[1]):
            r = op.A @ U[:, k]
            if source is not None:
                r = r - mesh.mass * F[:, k]
            assert np.array_equal(dn[:, k], r[bnd] / w)
            one = op.weak_neumann_trace(U[:, k], source=None if source is None else F[:, k])
            assert np.array_equal(one, r[bnd] / w)


def test_source_must_match_the_data_block(quarter_mesh_mid):
    mesh = quarter_mesh_mid
    op = operator(mesh, 0.0)
    n, nb = mesh.n_vertices, len(mesh.boundary)
    G = np.ones((nb, 3))
    for source in (1.0, np.ones(n), np.ones((n, 2)), np.ones((n, 3, 1)), lambda z: z.real):
        with pytest.raises(ValueError):
            op.solve_dirichlet(G, source=source)
        with pytest.raises(ValueError):
            op.weak_neumann_trace(np.ones((n, 3)), source=source)
    with pytest.raises(ValueError):
        op.solve_dirichlet(np.ones(nb), source=np.ones((n, 3)))
    with pytest.raises(ValueError):
        op.solve_dirichlet(np.ones((nb, 3, 1)))


def test_dropped_mesh_frees_its_operators_without_the_cycle_collector():
    """The operator keeps only a weak reference to its mesh, so a mesh with
    a factorized operator is freed as soon as its last reference goes."""
    gc.disable()
    try:
        mesh = build_disk_mesh(0.1, DiskDomain())
        op = operator(mesh, 0.0)
        assert op.mesh is mesh
        op.solve_dirichlet(np.ones(len(mesh.boundary)), source=1.0)
        ref = weakref.ref(mesh)
        del mesh
        assert ref() is None
        with pytest.raises(ReferenceError):
            op.mesh
    finally:
        gc.enable()


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_solver_linearity(a, b):
    mesh = _op_cache()["mesh"]
    op = _op_cache()["op"]
    theta = mesh.boundary_theta()
    f1, f2 = np.cos(theta), np.sin(2 * theta)
    lhs = op.solve_dirichlet(a * f1 + b * f2)
    rhs = a * op.solve_dirichlet(f1) + b * op.solve_dirichlet(f2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + abs(a) + abs(b))


_CACHE = {}


def _op_cache():
    if not _CACHE:
        mesh = build_disk_mesh(0.1, DiskDomain())
        _CACHE["mesh"] = mesh
        _CACHE["op"] = SchrodingerOperator(mesh, 0.0)
    return _CACHE
