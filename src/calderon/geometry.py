"""Unit-disk domain with a conformal metric, ring meshes and quadrature.

The domain is the closed unit disk carrying the metric g = e^{2*rho} |dz|^2.
The boundary circle is split into an accessible arc (gamma) and an
inaccessible closed arc (gamma0) given by an angle interval.  All
quadrature weights carry the metric factors: e^{2*rho} dx dy in the
interior and e^{rho} ds on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * np.pi

GAMMA = "gamma"
GAMMA0 = "gamma0"


class ConfigurationError(ValueError):
    """Raised when a domain/mesh request cannot be honored."""


def _wrap_angle(theta):
    return np.mod(theta, TWO_PI)


@dataclass(frozen=True)
class DiskDomain:
    """Closed unit disk with conformal factor rho and arc partition.

    gamma0 is a closed angle interval [theta_a, theta_b] (radians, taken
    mod 2*pi, theta_a <= theta_b may wrap); None means the full-data case
    where every boundary point belongs to gamma.
    """

    conformal_log_factor: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gamma0: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.gamma0 is not None:
            a, b = self.gamma0
            span = _wrap_angle(b - a)
            if span <= 0.0 or span >= TWO_PI - 1e-12:
                raise ConfigurationError(
                    "gamma0 must be a proper closed sub-arc; gamma must be nonempty"
                )

    def rho(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.conformal_log_factor is None:
            return np.zeros(z.shape)
        vals = np.asarray(self.conformal_log_factor(z), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("conformal factor must be finite on the closed disk")
        return vals

    def on_gamma0(self, theta: np.ndarray) -> np.ndarray:
        """Boolean mask: which boundary angles fall on the closed arc gamma0."""
        theta = _wrap_angle(np.asarray(theta, dtype=float))
        if self.gamma0 is None:
            return np.zeros(theta.shape, dtype=bool)
        a, b = self.gamma0
        rel = _wrap_angle(theta - a)
        span = _wrap_angle(b - a)
        tol = 1e-10
        return (rel <= span + tol) | (rel >= TWO_PI - tol)


@dataclass
class Mesh:
    """Triangulation of the unit disk by concentric rings, and the home of
    its discrete operators.

    vertices are complex coordinates; cells are positively oriented vertex
    index triples; boundary vertices are listed in increasing angle with an
    arc label each.

    The weak form of the positive Laplacian is conformally invariant in 2D,
    so every Delta_g + V on the mesh shares one Euclidean stiffness matrix
    and one lumped mass carrying the metric weight e^{2*rho}.  operators
    holds the factorized Delta_g + V of each potential met so far, keyed on
    its vertex values (see forward.operator); they live as long as the mesh.
    """

    domain: DiskDomain
    vertices: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray          # vertex indices, ordered by angle
    boundary_is_gamma0: np.ndarray
    resolution: float

    # caches filled in __post_init__
    cell_areas: np.ndarray = field(init=False)
    vertex_areas: np.ndarray = field(init=False)
    rho_v: np.ndarray = field(init=False)
    boundary_weights: np.ndarray = field(init=False)  # metric lumped arc length
    is_boundary: np.ndarray = field(init=False)
    mass: np.ndarray = field(init=False)  # lumped mass diagonal, metric weight e^{2*rho}
    operators: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        v, c = self.vertices, self.cells
        e1 = v[c[:, 1]] - v[c[:, 0]]
        e2 = v[c[:, 2]] - v[c[:, 0]]
        areas = 0.5 * (e1.real * e2.imag - e1.imag * e2.real)
        if np.any(areas <= 0):
            raise ConfigurationError("mesh contains a non-positively-oriented triangle")
        self.cell_areas = areas
        va = np.zeros(len(v))
        np.add.at(va, c.ravel(), np.repeat(areas / 3.0, 3))
        self.vertex_areas = va
        self.rho_v = self.domain.rho(v)
        self.mass = va * np.exp(2.0 * self.rho_v)
        r = np.abs(v[self.boundary])
        if np.max(np.abs(r - 1.0)) > 1e-12:
            raise ConfigurationError("boundary vertices must lie on the unit circle")
        self.is_boundary = np.zeros(len(v), dtype=bool)
        self.is_boundary[self.boundary] = True
        # lumped boundary measure: half of each adjacent polygon edge, with
        # the metric factor e^{rho} at the vertex
        zb = v[self.boundary]
        seg = np.abs(np.roll(zb, -1) - zb)
        lump = 0.5 * (seg + np.roll(seg, 1))
        self.boundary_weights = lump * np.exp(self.rho_v[self.boundary])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """P1 stiffness matrix of the positive Laplacian, assembled on first
        use (building a mesh assembles nothing)."""
        v, c = self.vertices, self.cells
        x = v.real[c]
        y = v.imag[c]
        n = self.n_vertices
        rows, cols, data = [], [], []
        # gradients of barycentric coordinates
        bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        inv4a = 1.0 / (4.0 * self.cell_areas)
        for i in range(3):
            for j in range(3):
                rows.append(c[:, i])
                cols.append(c[:, j])
                data.append((bx[:, i] * bx[:, j] + by[:, i] * by[:, j]) * inv4a)
        K = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        return K.tocsr()

    @property
    def interior(self) -> np.ndarray:
        return ~self.is_boundary

    def boundary_theta(self) -> np.ndarray:
        return _wrap_angle(np.angle(self.vertices[self.boundary]))

    def gamma_indices(self) -> np.ndarray:
        return self.boundary[~self.boundary_is_gamma0]

    def gamma0_indices(self) -> np.ndarray:
        return self.boundary[self.boundary_is_gamma0]


@dataclass
class ScalarField:
    """Function sampled at mesh vertices (real or complex values)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError("value count must equal vertex count")


def as_values(f, mesh: Mesh) -> np.ndarray:
    if isinstance(f, ScalarField):
        if f.mesh is not mesh:
            raise ValueError("field lives on a different mesh")
        return f.values
    if callable(f):
        return np.asarray(f(mesh.vertices))
    arr = np.asarray(f)
    if arr.ndim == 0:
        return np.full(mesh.n_vertices, complex(arr) if np.iscomplexobj(arr) else float(arr))
    if arr.shape != (mesh.n_vertices,):
        raise ValueError("value count must equal vertex count")
    return arr


def _merge_rings(inner_idx, inner_theta, outer_idx, outer_theta):
    """Triangulate the annulus strip between two vertex rings.

    Walks both angle sequences simultaneously, always advancing the ring
    whose next vertex comes first.
    """
    m, M = len(inner_idx), len(outer_idx)
    # start the outer pointer at the angle closest to inner_theta[0]
    j0 = int(np.argmin(np.abs(_wrap_angle(outer_theta - inner_theta[0] + np.pi) - np.pi)))
    tris = []
    i = 0
    j = 0
    ti = inner_theta - inner_theta[0]
    tj = _wrap_angle(outer_theta[(j0 + np.arange(M)) % M] - inner_theta[0])
    if tj[0] > np.pi:  # nearest outer vertex sits just behind the start angle
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


def build_disk_mesh(resolution: float, domain: DiskDomain) -> Mesh:
    """Concentric-ring triangulation with target edge length `resolution`.

    Ring k (of n) sits at radius k/n and carries 6k vertices, giving
    near-uniform edge lengths ~1/n.  Arc endpoints of gamma0 are snapped
    onto boundary vertices so arc membership is exact.
    """
    if resolution <= 0:
        raise ConfigurationError("resolution must be positive")
    n = max(1, int(round(1.0 / resolution)))
    ring_angles = []
    for k in range(1, n + 1):
        mk = 6 * k
        ring_angles.append(_wrap_angle(TWO_PI * np.arange(mk) / mk))
    # snap gamma0 endpoints into the boundary ring
    btheta = ring_angles[-1]
    if domain.gamma0 is not None:
        a, b = (_wrap_angle(domain.gamma0[0]), _wrap_angle(domain.gamma0[1]))
        for end in (a, b):
            k = int(np.argmin(np.abs(_wrap_angle(btheta - end + np.pi) - np.pi)))
            btheta[k] = end
        if len(np.unique(btheta)) != len(btheta):
            raise ConfigurationError(
                "resolution too coarse to separate gamma from gamma0"
            )
        order = np.argsort(btheta)
        ring_angles[-1] = btheta[order]

    verts = [0.0 + 0.0j]
    ring_index = []
    for k, angles in enumerate(ring_angles, start=1):
        idx = np.arange(len(verts), len(verts) + len(angles))
        ring_index.append(idx)
        verts.extend((k / n) * np.exp(1j * angles))
    verts = np.asarray(verts, dtype=complex)
    # force boundary exactly onto the unit circle
    verts[ring_index[-1]] = np.exp(1j * ring_angles[-1])

    cells = []
    first = ring_index[0]
    for s in range(len(first)):
        cells.append((0, first[s], first[(s + 1) % len(first)]))
    for k in range(len(ring_index) - 1):
        cells.extend(
            _merge_rings(ring_index[k], ring_angles[k], ring_index[k + 1], ring_angles[k + 1])
        )
    cells = np.asarray(cells, dtype=int)
    # enforce positive orientation
    e1 = verts[cells[:, 1]] - verts[cells[:, 0]]
    e2 = verts[cells[:, 2]] - verts[cells[:, 0]]
    signed = e1.real * e2.imag - e1.imag * e2.real
    flip = signed < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]

    boundary = ring_index[-1]
    theta = ring_angles[-1]
    is_g0 = domain.on_gamma0(theta)
    if domain.gamma0 is not None and not np.any(~is_g0):
        raise ConfigurationError("gamma is empty at this resolution")
    return Mesh(
        domain=domain,
        vertices=verts,
        cells=cells,
        boundary=boundary,
        boundary_is_gamma0=is_g0,
        resolution=1.0 / n,
    )


def interior_integral(f, mesh: Optional[Mesh] = None) -> complex:
    """Integral over the disk with the metric area measure e^{2*rho} dx dy.

    Midpoint (vertex-average) rule per triangle; O(resolution^2) for smooth
    integrands.
    """
    if mesh is None:
        mesh = f.mesh
    vals = as_values(f, mesh) * np.exp(2.0 * mesh.rho_v)
    cell_avg = vals[mesh.cells].mean(axis=1)
    total = np.sum(mesh.cell_areas * cell_avg)
    return complex(total) if np.iscomplexobj(vals) else float(total.real)


def boundary_integral(trace, mesh: Mesh, arc: str = "full"):
    """Arc-length integral of a boundary trace with measure e^{rho} ds.

    `trace` holds one value per boundary vertex (ordered as mesh.boundary)
    or, for arc="gamma"/"gamma0", one value per vertex of that arc.
    Returns (value, warned) where warned flags an empty requested arc.
    """
    trace = np.asarray(trace)
    nb = len(mesh.boundary)
    if arc == "full":
        mask = np.ones(nb, dtype=bool)
    elif arc == GAMMA:
        mask = ~mesh.boundary_is_gamma0
    elif arc == GAMMA0:
        mask = mesh.boundary_is_gamma0
    else:
        raise ValueError(f"unknown arc {arc!r}")
    if not np.any(mask):
        return 0.0, True
    full = np.zeros(nb, dtype=trace.dtype)
    if trace.shape == (nb,):
        full[:] = trace
    elif trace.shape == (int(mask.sum()),):
        full[mask] = trace
    else:
        raise ValueError("trace length matches neither the full boundary nor the arc")
    total = np.sum(mesh.boundary_weights[mask] * full[mask])
    return (complex(total) if np.iscomplexobj(trace) else float(total.real)), False


def vertex_gradient(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Area-weighted recovery of the Euclidean gradient, as dx + i*dy."""
    v, c = mesh.vertices, mesh.cells
    vals = np.asarray(values)
    x0, x1, x2 = (v[c[:, k]] for k in range(3))
    u0, u1, u2 = (vals[c[:, k]] for k in range(3))
    # P1 gradient per cell: rot90 of edge vectors over 2*area
    a2 = 2.0 * mesh.cell_areas
    gx = (u0 * (x1.imag - x2.imag) + u1 * (x2.imag - x0.imag) + u2 * (x0.imag - x1.imag)) / a2
    gy = (u0 * (x2.real - x1.real) + u1 * (x0.real - x2.real) + u2 * (x1.real - x0.real)) / a2
    g = gx + 1j * gy
    num = np.zeros(mesh.n_vertices, dtype=complex)
    np.add.at(num, c.ravel(), np.repeat(g * mesh.cell_areas, 3))
    return num / (3.0 * mesh.vertex_areas)


def dz_field(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Recovered d/dz of a vertex field (accurate at interior vertices)."""
    g = vertex_gradient(np.real(values), mesh)
    out = 0.5 * (g.real - 1j * g.imag)
    if np.iscomplexobj(values):
        gi = vertex_gradient(np.imag(values), mesh)
        out = out + 0.5j * (gi.real - 1j * gi.imag)
    return out


def dzbar_field(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Recovered d/dzbar of a vertex field."""
    g = vertex_gradient(np.real(values), mesh)
    out = 0.5 * (g.real + 1j * g.imag)
    if np.iscomplexobj(values):
        gi = vertex_gradient(np.imag(values), mesh)
        out = out + 0.5j * (gi.real + 1j * gi.imag)
    return out


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
