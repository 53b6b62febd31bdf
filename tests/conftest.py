import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import null_space

from functools import cached_property

from calderon import holo
from calderon.forward import SchrodingerOperator, operator
from calderon.geometry import TWO_PI, DiskDomain, Mesh, ScalarField, boundary_integral, build_disk_mesh
from calderon.scenarios import load_scenario

P_STAR = 0.2 + 0.1j
BUMP_WIDTH = 0.25


def dense_cauchy_transform(f_values, mesh, eval_points=None):
    """Reference solid Cauchy transform: the all-pairs dense quadrature
    (point masses, disk-averaged kernel inside each source's equal-area
    disk, smooth-window singularity subtraction) that
    calderon.holo.cauchy_transform splits into a far and a near field."""
    from scipy.interpolate import LinearNDInterpolator
    from scipy.spatial import cKDTree

    f = np.asarray(f_values, dtype=complex)
    support = np.abs(f) > 0
    sub_radius = 4.0 * mesh.resolution
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    dist, _ = cKDTree(pts[support]).query(pts)
    support = dist <= sub_radius + 1e-12
    if eval_points is None:
        z, f_at_eval = mesh.vertices, f
    else:
        z = np.asarray(eval_points, dtype=complex).ravel()
        zp = np.column_stack([z.real, z.imag])
        f_at_eval = LinearNDInterpolator(pts, f.real, fill_value=0.0)(zp) + 1j * LinearNDInterpolator(
            pts, f.imag, fill_value=0.0
        )(zp)
    src = mesh.vertices[support]
    areas = mesh.vertex_areas[support]
    radii = np.sqrt(areas / np.pi)
    d = z[:, None] - src[None, :]
    absd = np.abs(d)
    near = absd < radii[None, :]
    kern = np.empty_like(d)
    np.divide(1.0, np.conj(d), out=kern, where=~near)
    kern[near] = (d / radii[None, :] ** 2)[near]
    kern *= areas[None, :]
    window = 0.5 * (1.0 + np.cos(np.pi * np.clip(absd / sub_radius, 0.0, 1.0)))
    out = kern @ f[support] - f_at_eval * np.sum(kern * window, axis=1)
    return out / np.pi


def solve_schrodinger_dirichlet(mesh, V, f_boundary):
    """Solution of (Delta_g + V) u = 0 with full Dirichlet data f_boundary."""
    op = operator(mesh, V)
    u = op.solve_dirichlet(np.asarray(f_boundary))
    return ScalarField(mesh, u)


def green_apply(mesh, V, f):
    """Green operator with Dirichlet condition: (Delta_g + V) u = f, u|_boundary = 0."""
    op = operator(mesh, V)
    u = op.solve_dirichlet(np.zeros(len(mesh.boundary)), source=f)
    return ScalarField(mesh, u)


class CountingLU:
    """A sparse LU factorization that records the number of right-hand-side
    columns of each solve (one entry per pass over the factors)."""

    def __init__(self, lu):
        self.lu = lu
        self.columns = []

    def solve(self, rhs):
        self.columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return self.lu.solve(rhs)


def splu_normal_solve(S, rhs, h):
    """Reference for calderon.cgo._solve_spd_banded: a default-ordering
    SuperLU solve of the duality normal equations S x = rhs (h unused), as
    calderon.cgo.duality_completion solved them before banded Cholesky."""
    return spla.splu(sp.csc_matrix(S)).solve(rhs)


def single_field_cauchy_transform(f_values, mesh, eval_points=None, eval_index=None):
    """Reference solid Cauchy transform of one field: the far-field row
    blocks, near-field pair list and disk-averaged kernel built for this
    field alone, as calderon.holo.cauchy_transform did before a sweep's
    fields shared them (same quadrature and operation order)."""
    from scipy.spatial import cKDTree

    f = np.asarray(f_values, dtype=complex)
    if eval_points is None:
        idx = np.arange(mesh.n_vertices) if eval_index is None else np.asarray(eval_index, dtype=int)
        z = mesh.vertices[idx].ravel()
        f_at_eval = f[idx].ravel()
        shape = np.shape(idx)
    else:
        z = np.asarray(eval_points, dtype=complex).ravel()
        shape = np.shape(eval_points)
    out = np.zeros(len(z), dtype=complex)
    support = np.abs(f) > 0
    if not np.any(support) or len(z) == 0:
        return out.reshape(shape)
    sub_radius = 4.0 * mesh.resolution
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    if eval_points is not None:
        from scipy.interpolate import LinearNDInterpolator

        zp = np.column_stack([z.real, z.imag])
        interp_re = LinearNDInterpolator(pts, f.real, fill_value=0.0)
        interp_im = LinearNDInterpolator(pts, f.imag, fill_value=0.0)
        f_at_eval = interp_re(zp) + 1j * interp_im(zp)
    xs = mesh.vertices[support]
    weights = (mesh.vertex_areas * f)[support]
    block = max(1, int(holo.TRANSFORM_BLOCK_ENTRIES / len(xs)))
    for s in range(0, len(z), block):
        d = z[s : s + block, None] - xs[None, :]
        d_sq = d.real**2 + d.imag**2
        np.divide(1.0, d_sq, out=d_sq, where=d_sq != 0)
        d *= d_sq
        out[s : s + block] = d @ weights
    dist, _ = cKDTree(pts[support]).query(pts)
    local = dist <= sub_radius + 1e-12
    src = mesh.vertices[local]
    fs = f[local]
    areas = mesh.vertex_areas[local]
    radii = np.sqrt(areas / np.pi)
    pairs = cKDTree(np.column_stack([z.real, z.imag])).sparse_distance_matrix(
        cKDTree(pts[local]), sub_radius, output_type="ndarray"
    )
    i, j = pairs["i"], pairs["j"]
    d = z[i] - src[j]
    absd = np.abs(d)
    near = absd < radii[j]
    point = np.zeros_like(d)
    np.divide(areas[j], np.conj(d), out=point, where=d != 0)
    kern = np.where(near, areas[j] * d / radii[j] ** 2, point)
    t = np.clip(absd / sub_radius, 0.0, 1.0)
    window = 0.5 * (1.0 + np.cos(np.pi * t))
    pair_terms = (kern - point) * fs[j] - f_at_eval[i] * kern * window
    out += np.bincount(i, pair_terms.real, len(z)) + 1j * np.bincount(i, pair_terms.imag, len(z))
    out /= np.pi
    return out.reshape(shape)


def per_h_r11(mesh, phase, b, chi, chi1, h):
    """Reference (r11, eta, T) at one h: its own transform of
    e^{2i psi/h} chi1 b on supp chi and supp dz(chi), as calderon.cgo.build_r11
    did per h before a sweep shared the kernels (resolvability check left
    out)."""
    z = mesh.vertices
    osc = np.exp(2j * phase(z).imag / h)
    c = chi(z)
    dchi = chi.dz(z)
    idx = np.flatnonzero((c > 0) | (dchi != 0))
    T = np.zeros(mesh.n_vertices, dtype=complex)
    T[idx] = single_field_cauchy_transform(osc * chi1(z) * b, mesh, eval_index=idx)
    r11_hat = np.conj(osc) * T
    return c * r11_hat, r11_hat * dchi, T


def per_sample_ratio_terms(mesh, weight, B, u):
    """Reference Carleman (lhs, rhs, ratio) of one test function at
    weight.h: every term recomputed for this (h, u) pair, as
    calderon.carleman did before its sweep shared the h-independent terms.
    The mesh supplies K and mass; B is the conjugated matrix at weight.h."""
    u = np.asarray(u, dtype=float)
    h = weight.h
    z = mesh.vertices
    mass = mesh.mass
    dphi_sq = np.exp(-2.0 * mesh.rho_v) * np.abs(weight.phase.derivative()(z)) ** 2
    norm_u = float(np.sum(mass * u**2))
    norm_udphi = float(np.sum(mass * dphi_sq * u**2))
    dirichlet = float(u @ (mesh.stiffness @ u))
    flux = (mesh.stiffness @ u)[mesh.boundary] / mesh.boundary_weights
    flux_g0, _ = boundary_integral(flux**2, mesh, "gamma0")
    flux_g, _ = boundary_integral(flux**2, mesh, "gamma")
    lhs = norm_u / h + norm_udphi / h**2 + dirichlet + flux_g0
    conj_residual = np.asarray(B @ u)[mesh.interior] / mass[mesh.interior]
    rhs = float(np.sum(mass[mesh.interior] * conj_residual**2)) + flux_g / h
    return lhs, rhs, rhs / lhs


def scalar_derivative_row(z0, order, degree):
    """Reference complex row of c -> (d/dz)^order P(z0): the one-point loop
    that calderon.holo._derivative_rows vectorizes."""
    k = np.arange(degree + 1)
    row = np.zeros(degree + 1, dtype=complex)
    valid = k >= order
    kk = k[valid]
    fac = np.ones(len(kk))
    for j in range(order):
        fac *= kk - j
    row[valid] = fac * z0 ** (kk - order)
    return row


def reference_phase_candidate(domain, p, degree, mu, bias=None):
    """Reference single phase fit: the whole constrained least-squares setup
    rebuilt for one penalty weight mu (calderon.holo._phase_fitter builds the
    mu-independent part once per attempt).  Returns (coefficients, arc
    residual)."""
    cons = [(p, 0, 1j), (p, 1, 0.0)]
    if bias is not None:
        cons = cons + [bias]
    rows = [scalar_derivative_row(z0, order, degree) for z0, order, _ in cons]
    hard_A, hard_b = holo._complex_rows(rows, [t for _, _, t in cons])
    nodes = holo._gamma0_nodes(domain, 8 * max(degree, 1))
    arc_rows = holo._part_rows(holo._power_matrix(nodes, degree), "im")
    samp = np.exp(1j * TWO_PI * np.arange(4 * degree) / (4 * degree))
    drows = np.array([scalar_derivative_row(z, 1, degree) for z in samp])
    dA, _ = holo._complex_rows(drows, np.zeros(len(samp)))
    soft_A = np.vstack([arc_rows, mu * dA])
    soft_b = np.zeros(len(soft_A))
    x0, *_ = np.linalg.lstsq(hard_A, hard_b, rcond=None)
    N = null_space(hard_A)
    lam = np.sqrt(1e-18)
    A = np.vstack([soft_A @ N, lam * N])
    b = np.concatenate([soft_b - soft_A @ x0, -lam * x0])
    y, *_ = np.linalg.lstsq(A, b, rcond=None)
    x = x0 + N @ y
    coeffs = x[: degree + 1] + 1j * x[degree + 1 :]
    fine = holo._gamma0_nodes(domain, 32 * max(degree, 1))
    return coeffs, float(np.max(np.abs(holo.HoloFunction(coeffs)(fine).imag)))


def _scalar_winding(fn, path):
    """Winding number of fn along one closed sampled path, as the
    subdivision finder computed it."""
    vals = fn(path)
    scale = np.max(np.abs(vals))
    if scale == 0 or np.min(np.abs(vals)) < 1e-12 * scale:
        raise ArithmeticError("zero on contour")
    dphi = np.angle(np.roll(vals, -1) / vals)
    if np.max(np.abs(dphi)) > 0.5 * np.pi:
        raise ArithmeticError("contour sampling too coarse")
    total = np.sum(dphi) / TWO_PI
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise ArithmeticError("non-integer winding")
    return w


def _square_winding(fn, cx, cy, half, rng):
    per_edge = 64
    for _ in range(8):
        t = np.linspace(-1.0, 1.0, per_edge, endpoint=False)
        path = np.concatenate(
            [
                (cx + half * t) + 1j * (cy - half),
                (cx + half) + 1j * (cy + half * t),
                (cx - half * t) + 1j * (cy + half),
                (cx - half) + 1j * (cy - half * t),
            ]
        )
        try:
            return _scalar_winding(fn, path), (cx, cy, half)
        except ArithmeticError:
            per_edge *= 2
            if per_edge > 1024:
                # a zero sits (numerically) on the contour: jiggle the square
                cx += float(rng.uniform(-0.05, 0.05)) * half
                cy += float(rng.uniform(-0.05, 0.05)) * half
                half *= 1.0 + float(rng.uniform(0.01, 0.05))
                per_edge = 128
    raise RuntimeError("subdivision contour kept hitting zeros")


def _scalar_newton(dphi, d2phi, z0, tol=1e-13):
    z = complex(z0)
    for _ in range(60):
        d2 = d2phi(z)
        if abs(d2) < 1e-14:
            return None
        step = dphi(z) / d2
        z -= step
        if abs(step) < tol:
            return z
    return None


def subdivision_critical_points(phi, seed=0):
    """Reference critical-point finder: subdivision of a bounding square
    with per-square winding numbers and scalar Newton polishing of isolated
    zeros, as calderon.holo.find_critical_points did before it started from
    companion-matrix eigenvalues (same disk-contour count, merge rule and
    classification)."""
    dphi = phi.derivative()
    d2phi = phi.derivative(2)
    rng = np.random.default_rng(seed)
    contour_r = 1.0 + 1e-6
    samples = 2048
    for attempt in range(6):
        path = (contour_r + attempt * 1e-5) * np.exp(1j * TWO_PI * np.arange(samples) / samples)
        try:
            total = _scalar_winding(dphi, path)
            break
        except ArithmeticError:
            samples *= 2
    else:
        raise RuntimeError("could not certify winding number on the disk contour")

    roots = []  # (location, multiplicity)
    stack = [(0.0, 0.0, 1.02)]
    while stack:
        cx, cy, half = stack.pop()
        if np.hypot(max(abs(cx) - half, 0.0), max(abs(cy) - half, 0.0)) > contour_r:
            continue
        try:
            w, (cx, cy, half) = _square_winding(dphi, cx, cy, half, rng)
        except RuntimeError:
            if half < 5e-9:
                raise RuntimeError("could not certify a tiny square around a zero")
            w = None
        if w == 0:
            continue
        if w == 1:
            z = _scalar_newton(dphi, d2phi, cx + 1j * cy)
            if z is not None and max(abs(z.real - cx), abs(z.imag - cy)) <= half * 1.05:
                roots.append((z, 1))
                continue
        if w is not None and half < 5e-9:
            roots.append((cx + 1j * cy, w))
            continue
        sx = cx + float(rng.uniform(-0.1, 0.1)) * half
        sy = cy + float(rng.uniform(-0.1, 0.1)) * half
        x_lo, x_hi = cx - half, cx + half
        y_lo, y_hi = cy - half, cy + half
        for (ax, bx) in ((x_lo, sx), (sx, x_hi)):
            for (ay, by) in ((y_lo, sy), (sy, y_hi)):
                stack.append(((ax + bx) / 2, (ay + by) / 2, max(bx - ax, by - ay) / 2))

    merged = []
    for z, m in roots:
        if abs(z) > contour_r:
            continue
        for k, (z2, m2) in enumerate(merged):
            if abs(z - z2) < 1e-7:
                merged[k] = (z2, max(m2, m))
                break
        else:
            merged.append((z, m))

    points = []
    for z, m in merged:
        d2 = abs(d2phi(z))
        points.append(
            holo.CriticalPoint(
                location=z,
                second_abs=d2,
                multiplicity=m,
                on_boundary=abs(abs(z) - 1.0) < 1e-6,
                degenerate=(d2 <= holo.DEGENERACY_THRESHOLD) or (m > 1),
            )
        )
    points.sort(key=lambda q: (q.location.real, q.location.imag))
    return holo.CriticalPointReport(points=points, count_check=total)


def gaussian_bump(z, center=P_STAR, width=BUMP_WIDTH, amplitude=1.0):
    return amplitude * np.exp(-np.abs(np.asarray(z) - center) ** 2 / width**2)


@pytest.fixture(scope="session")
def full_domain():
    return DiskDomain()


@pytest.fixture(scope="session")
def quarter_domain():
    return DiskDomain(gamma0=(0.0, np.pi / 2))


@pytest.fixture(scope="session")
def mesh_mid(full_domain):
    """Full-data disk at moderate resolution for cheap unit tests."""
    return build_disk_mesh(0.04, full_domain)


@pytest.fixture(scope="session")
def mesh_coarse(full_domain):
    return build_disk_mesh(0.08, full_domain)


@pytest.fixture(scope="session")
def mesh_fine(full_domain):
    return build_disk_mesh(0.02, full_domain)


@pytest.fixture(scope="session")
def ref_scenario():
    """The acceptance reference scenario (quarter-circle gamma0, bump at p*);
    epsilon = 1.0 (the default) so the Carleman constraint h <= epsilon/5
    admits the reference h list."""
    return load_scenario({"name": "reference", "seed": 0, "epsilon": 1.0})


@pytest.fixture(scope="session")
def ref_mesh(ref_scenario):
    return ref_scenario.build_mesh()


@pytest.fixture(scope="session")
def quarter_mesh_mid(quarter_domain):
    return build_disk_mesh(0.04, quarter_domain)


@pytest.fixture
def operator_builds(monkeypatch):
    """Every SchrodingerOperator constructed while the test runs, in order."""
    built = []
    init = SchrodingerOperator.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SchrodingerOperator, "__init__", counting_init)
    return built


@pytest.fixture
def stiffness_assemblies(monkeypatch):
    """Every mesh whose stiffness matrix is assembled while the test runs,
    in order."""
    assembled = []
    assemble = Mesh.__dict__["stiffness"].func

    def counting_assemble(mesh):
        assembled.append(mesh)
        return assemble(mesh)

    counting = cached_property(counting_assemble)
    counting.__set_name__(Mesh, "stiffness")
    monkeypatch.setattr(Mesh, "stiffness", counting)
    return assembled
