import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import null_space

from functools import cached_property

from calderon import holo
from calderon.forward import SchrodingerOperator, operator
from calderon.geometry import (
    TWO_PI,
    ConfigurationError,
    DiskDomain,
    Mesh,
    as_values,
    boundary_integral,
    build_disk_mesh,
)
from calderon.holo import HoloFunction
from calderon.scenarios import load_scenario, validate_config

P_STAR = 0.2 + 0.1j
BUMP_WIDTH = 0.25
# A cheap config on which the carleman pipeline runs to the end: epsilon = 1
# admits h <= 0.2 under the Carleman constraint h <= epsilon/5, and the h
# list stays above the 0.08 mesh's weight-resolvability bound.
CARLEMAN_CHEAP = {"resolution": 0.08, "epsilon": 1.0, "carleman_samples": 10, "h_list": [0.2, 0.17, 0.14]}


def dense_cauchy_transform(f_values, mesh, eval_points=None):
    """Reference solid Cauchy transform: the all-pairs dense quadrature
    (point masses, disk-averaged kernel inside each source's equal-area
    disk, smooth-window singularity subtraction) that
    calderon.holo.cauchy_transform splits into a far and a near field."""
    from scipy.interpolate import LinearNDInterpolator

    f = np.asarray(f_values, dtype=complex)
    support = np.abs(f) > 0
    sub_radius = 4.0 * mesh.resolution
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    support = kdtree_dilation(mesh.vertices, mesh.vertices[support], sub_radius + 1e-12)
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
    return operator(mesh, V).solve_dirichlet(np.asarray(f_boundary))


def green_apply(mesh, V, f):
    """Green operator with Dirichlet condition: (Delta_g + V) u = f, u|_boundary = 0."""
    return operator(mesh, V).solve_dirichlet(np.zeros(len(mesh.boundary)), source=f)


def interior_integral(f, mesh: Mesh) -> complex:
    """Integral over the disk with the metric area measure e^{2*rho} dx dy.

    Midpoint (vertex-average) rule per triangle; O(resolution^2) for smooth
    integrands.
    """
    vals = as_values(f, mesh) * np.exp(2.0 * mesh.rho_v)
    cell_avg = vals[mesh.cells].mean(axis=1)
    total = np.sum(mesh.cell_areas * cell_avg)
    return complex(total) if np.iscomplexobj(vals) else float(total.real)


def normal_derivative_trace(u, mesh: Mesh) -> np.ndarray:
    """Exterior metric normal derivative on the boundary by one-sided differencing.

    Samples u along the inward radial ray with linear interpolation on the
    mesh and applies a second-order one-sided stencil; the metric normal is
    e^{-rho} times the radial derivative.
    """
    from scipy.interpolate import LinearNDInterpolator

    vals = as_values(u, mesh)
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    zb = mesh.vertices[mesh.boundary]
    delta = 1.5 * mesh.resolution
    out_dtype = complex if np.iscomplexobj(vals) else float
    parts = [np.real(vals)] if out_dtype is float else [np.real(vals), np.imag(vals)]
    acc = []
    for comp in parts:
        interp = LinearNDInterpolator(pts, comp)
        u0 = comp[mesh.boundary]
        z1 = zb * (1.0 - delta)
        z2 = zb * (1.0 - 2.0 * delta)
        u1 = interp(np.column_stack([z1.real, z1.imag]))
        u2 = interp(np.column_stack([z2.real, z2.imag]))
        acc.append((3.0 * u0 - 4.0 * u1 + u2) / (2.0 * delta))
    result = acc[0] if out_dtype is float else acc[0] + 1j * acc[1]
    return result * np.exp(-mesh.rho_v[mesh.boundary])


def decay_slope(b: np.ndarray, mesh: Mesh, p: complex) -> float:
    """Fitted log-log slope of max |b| on rings around p, radii in
    [2, 8] * resolution; linear vanishing gives slope ~1."""
    r = np.abs(mesh.vertices - complex(p))
    radii = np.linspace(2.0, 8.0, 7) * mesh.resolution
    vals = []
    for rad in radii:
        ring = (r >= rad - 0.6 * mesh.resolution) & (r <= rad + 0.6 * mesh.resolution)
        vals.append(np.max(np.abs(b[ring])))
    vals = np.asarray(vals)
    if np.max(vals) == 0:
        return np.nan
    return float(np.polyfit(np.log(radii), np.log(np.maximum(vals, 1e-300)), 1)[0])


def oscillatory_integral(g, phase: HoloFunction, h: float, mesh: Mesh) -> complex:
    """Quadrature of the oscillatory integral of e^{2 i psi/h} g dv_g."""
    z = mesh.vertices
    vals = as_values(g, mesh) * np.exp(2j * np.imag(phase(z)) / h)
    return complex(np.sum(mesh.mass * vals))


def interior_basis(domain):
    """basis(p, scale) -> (phase, amplitude) by the reference recipe: phase
    degree 36 with psi_target 0.8 times scale, amplitude degree 16 vanishing
    to order 4 at the phase's other critical points."""

    def basis(p, scale=1.0):
        phase = holo.build_morse_phase(domain, p, degree=36, psi_target=scale * 0.8)
        return phase, holo.build_amplitude(phase, domain, vanish_order=4, degree=16)

    return basis


def two_point_phase(p, q):
    """Hand-built Morse phase with Phi' = (z - p)(z - q) and Phi(p) = 0.8i,
    carrying its critical-point report and primary point p."""
    coeffs = np.array([0.0, p * q, -(p + q) / 2.0, 1.0 / 3.0], dtype=complex)
    coeffs[0] = 0.8j - HoloFunction(coeffs)(p)
    phase = HoloFunction(coeffs)
    phase.meta = {"critical_points": holo.find_critical_points(phase), "p": p}
    return phase


def reference_config(**overrides) -> dict:
    """The reference scenario (all schema defaults) with optional overrides."""
    cfg = {"name": "reference", "seed": 0}
    cfg.update(overrides)
    return validate_config(cfg)


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


def kdtree_pairs(a, b, r):
    """Reference near-field pair list: index pairs (i, j) with
    |a_i - b_j| <= r from scipy's k-d tree, in the tree's order."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(np.column_stack([a.real, a.imag])).sparse_distance_matrix(
        cKDTree(np.column_stack([b.real, b.imag])), r, output_type="ndarray"
    )
    return pairs["i"], pairs["j"]


def kdtree_dilation(points, support, r):
    """Reference support dilation: which points lie within r of a point of
    support, by k-d tree nearest-neighbour distance."""
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(np.column_stack([support.real, support.imag])).query(
        np.column_stack([points.real, points.imag])
    )
    return dist <= r


def single_field_cauchy_transform(f_values, mesh, eval_points=None, eval_index=None, kdtree=False):
    """Reference solid Cauchy transform of one field: the far-field row
    blocks, near-field pair list and disk-averaged kernel built for this
    field alone, as calderon.holo.cauchy_transform did before a sweep's
    fields shared them (same quadrature and operation order).  With kdtree
    the near-field sources and pairs come from scipy's k-d tree, in its pair
    order, as they did before calderon.holo found them on a cell grid."""
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
    if eval_points is not None:
        from scipy.interpolate import LinearNDInterpolator

        pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
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
    if kdtree:
        local = kdtree_dilation(mesh.vertices, xs, sub_radius + 1e-12)
    else:
        local = np.zeros(mesh.n_vertices, dtype=bool)
        local[holo._pairs_within(mesh.vertices, xs, sub_radius + 1e-12)[0]] = True
    src = mesh.vertices[local]
    fs = f[local]
    areas = mesh.vertex_areas[local]
    radii = np.sqrt(areas / np.pi)
    i, j = (kdtree_pairs if kdtree else holo._pairs_within)(z, src, sub_radius)
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
    e^{2i psi/h} chi1 b on supp chi and supp dz(chi), as calderon.cgo's r11
    sweep did per h before a sweep shared the kernels (resolvability check left
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


def per_h_slow_amplitude(cgo, h):
    """Reference a + h a0 + (r11 + h r12) of a CGO at one h: a and a0
    re-evaluated on the mesh and r11 from per_h_r11 (zero when b = 0), as calderon.reconstruct computed each side of a pairing before
    the CGO object held a, a0 and its r11 sweep."""
    z = cgo.mesh.vertices
    A = cgo.amplitude(z) + h * cgo.a0(z)
    r1 = h * cgo.r12
    if np.any(np.abs(cgo.b) > 0):
        r1 = per_h_r11(cgo.mesh, cgo.phase, cgo.b, cgo.chi, cgo.chi1, h)[0] + h * cgo.r12
    return A + r1


def per_sample_ratio_terms(mesh, weight, B, u, h):
    """Reference Carleman (lhs, rhs, ratio) of one test function at h:
    every term recomputed for this (h, u) pair, as calderon.carleman did
    before its sweep shared the h-independent terms.  The mesh supplies K
    and mass; B is the conjugated matrix at h."""
    u = np.asarray(u, dtype=float)
    z = mesh.vertices
    mass = mesh.mass
    dphi_sq = np.exp(-2.0 * mesh.rho_v) * np.abs(weight.phase.derivative()(z)) ** 2
    norm_u = float(np.sum(mass * u**2))
    norm_udphi = float(np.sum(mass * dphi_sq * u**2))
    dirichlet = float(u @ (mesh.stiffness @ u))
    flux = (mesh.stiffness @ u)[mesh.boundary] / mesh.boundary_weights
    flux_g0 = boundary_integral(flux**2, mesh, "gamma0")
    flux_g = boundary_integral(flux**2, mesh, "gamma")
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


def reference_phase_candidate(domain, p, degree, mu):
    """Reference single phase fit: the whole constrained least-squares setup
    rebuilt for one penalty weight mu (calderon.holo._phase_fitter builds the
    mu-independent part once).  Returns (coefficients, arc residual)."""
    cons = [(p, 0, 1j), (p, 1, 0.0)]
    rows = [scalar_derivative_row(z0, order, degree) for z0, order, _ in cons]
    hard_A, hard_b = holo._complex_rows(rows, [t for _, _, t in cons])
    nodes = domain.gamma0_points(8 * max(degree, 1))
    arc_rows = holo._part_rows(holo._derivative_rows(nodes, 0, degree), "im")
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
    fine = domain.gamma0_points(32 * max(degree, 1))
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


def _loop_merge_rings(inner_idx, inner_theta, outer_idx, outer_theta):
    m, M = len(inner_idx), len(outer_idx)
    j0 = int(np.argmin(np.abs(np.mod(outer_theta - inner_theta[0] + np.pi, TWO_PI) - np.pi)))
    tris = []
    i = 0
    j = 0
    ti = inner_theta - inner_theta[0]
    tj = np.mod(outer_theta[(j0 + np.arange(M)) % M] - inner_theta[0], TWO_PI)
    if tj[0] > np.pi:
        tj[0] -= TWO_PI
    ii = lambda k: inner_idx[k % m]
    jj = lambda k: outer_idx[(j0 + k) % M]
    next_i = lambda k: ti[k + 1] if k + 1 < m else TWO_PI + ti[0]
    next_j = lambda k: tj[k + 1] if k + 1 < M else TWO_PI + tj[0]
    while i < m or j < M:
        if j < M and (i >= m or next_j(j) <= next_i(i)):
            tris.append((ii(i), jj(j), jj(j + 1)))
            j += 1
        else:
            tris.append((ii(i), jj(j), ii(i + 1)))
            i += 1
    return tris


def loop_disk_mesh(resolution, domain):
    """Reference ring mesh: (vertices, cells, boundary, boundary_is_gamma0)
    built by the per-triangle walk over each ring pair, as
    calderon.geometry.build_disk_mesh did before it merged the rings by
    searchsorted (same snapping, orientation fix and errors)."""
    if resolution <= 0:
        raise ConfigurationError("resolution must be positive")
    n = max(1, int(round(1.0 / resolution)))
    ring_angles = [np.mod(TWO_PI * np.arange(6 * k) / (6 * k), TWO_PI) for k in range(1, n + 1)]
    btheta = ring_angles[-1]
    if domain.gamma0 is not None:
        a, b = (np.mod(domain.gamma0[0], TWO_PI), np.mod(domain.gamma0[1], TWO_PI))
        for end in (a, b):
            k = int(np.argmin(np.abs(np.mod(btheta - end + np.pi, TWO_PI) - np.pi)))
            btheta[k] = end
        if len(np.unique(btheta)) != len(btheta):
            raise ConfigurationError("resolution too coarse to separate gamma from gamma0")
        ring_angles[-1] = btheta[np.argsort(btheta)]
    verts = [0.0 + 0.0j]
    ring_index = []
    for k, angles in enumerate(ring_angles, start=1):
        ring_index.append(np.arange(len(verts), len(verts) + len(angles)))
        verts.extend((k / n) * np.exp(1j * angles))
    verts = np.asarray(verts, dtype=complex)
    verts[ring_index[-1]] = np.exp(1j * ring_angles[-1])
    first = ring_index[0]
    cells = [(0, first[s], first[(s + 1) % len(first)]) for s in range(len(first))]
    for k in range(len(ring_index) - 1):
        cells.extend(_loop_merge_rings(ring_index[k], ring_angles[k], ring_index[k + 1], ring_angles[k + 1]))
    cells = np.asarray(cells, dtype=int)
    e1 = verts[cells[:, 1]] - verts[cells[:, 0]]
    e2 = verts[cells[:, 2]] - verts[cells[:, 0]]
    flip = e1.real * e2.imag - e1.imag * e2.real < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    is_g0 = domain.on_gamma0(ring_angles[-1])
    if domain.gamma0 is not None and not np.any(~is_g0):
        raise ConfigurationError("gamma is empty at this resolution")
    return verts, cells, ring_index[-1], is_g0


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


def _mesh_cache_fills(monkeypatch, name):
    """Every mesh whose cached property name is computed while the test
    runs, in order."""
    filled = []
    compute = Mesh.__dict__[name].func

    def counting_compute(mesh):
        filled.append(mesh)
        return compute(mesh)

    counting = cached_property(counting_compute)
    counting.__set_name__(Mesh, name)
    monkeypatch.setattr(Mesh, name, counting)
    return filled


@pytest.fixture
def stiffness_assemblies(monkeypatch):
    """Every mesh whose stiffness matrix is assembled while the test runs,
    in order."""
    return _mesh_cache_fills(monkeypatch, "stiffness")


@pytest.fixture
def interior_orderings(monkeypatch):
    """Every mesh whose interior_order is computed while the test runs, in
    order."""
    return _mesh_cache_fills(monkeypatch, "interior_order")
