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


def bump(t) -> np.ndarray:
    """The C-infinity bump exp(1 - 1/(1 - t^2)) on |t| < 1, 0 elsewhere; bump(0) = 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


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
        if self.gamma0 is not None and not 0.0 < self.gamma0_span < TWO_PI - 1e-12:
            raise ConfigurationError(
                "gamma0 must be a proper closed sub-arc; gamma must be nonempty"
            )

    @property
    def gamma0_span(self) -> float:
        """Angle gamma0 sweeps from its first end to its second (0 for full data)."""
        a, b = self.gamma0 or (0.0, 0.0)
        return _wrap_angle(b - a)

    def gamma0_points(self, count: int) -> np.ndarray:
        """count points equally spaced in angle from gamma0's first end to its
        second; none for full data."""
        if self.gamma0 is None:
            return np.zeros(0, dtype=complex)
        return np.exp(1j * (self.gamma0[0] + self.gamma0_span * np.linspace(0.0, 1.0, count)))

    def gamma0_margin(self, theta: float) -> float:
        """Angular distance from theta to the nearer end of gamma0 (inf for
        full data)."""
        if self.gamma0 is None:
            return np.inf
        return float(min(np.abs(np.angle(np.exp(1j * (theta - end)))) for end in self.gamma0))

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
        rel = _wrap_angle(theta - self.gamma0[0])
        tol = 1e-10
        return (rel <= self.gamma0_span + tol) | (rel >= TWO_PI - tol)


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

    @cached_property
    def interior_order(self) -> np.ndarray:
        """Interior vertex indices in nested-dissection order, computed on
        first use (building a mesh orders nothing).

        The interior block of Delta_g + V factorizes faster in this order
        than in minimum-degree order, with about the same fill (George 1973);
        see _nested_dissection.
        """
        ii = np.flatnonzero(self.interior)
        local = np.full(self.n_vertices, -1)
        local[ii] = np.arange(len(ii))
        c = local[self.cells]
        a, b = c.ravel(), np.roll(c, -1, axis=1).ravel()
        # cells are positively oriented, so an edge between two interior
        # vertices is met once each way: keep it once
        edge = (a >= 0) & (a < b)
        return ii[_nested_dissection(self.vertices[ii], a[edge], b[edge])]

    def boundary_theta(self) -> np.ndarray:
        return _wrap_angle(np.angle(self.vertices[self.boundary]))

    def gamma_indices(self) -> np.ndarray:
        return self.boundary[~self.boundary_is_gamma0]

    def gamma0_indices(self) -> np.ndarray:
        return self.boundary[self.boundary_is_gamma0]


def as_values(f, mesh: Mesh) -> np.ndarray:
    if callable(f):
        return np.asarray(f(mesh.vertices))
    arr = np.asarray(f)
    if arr.ndim == 0:
        return np.full(mesh.n_vertices, complex(arr) if np.iscomplexobj(arr) else float(arr))
    if arr.shape != (mesh.n_vertices,):
        raise ValueError("value count must equal vertex count")
    return arr


# largest part _nested_dissection leaves unsplit
DISSECTION_LEAF = 16


def _nested_dissection(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nested-dissection order of a planar graph: a permutation of
    range(len(points)), for vertices at the complex coordinates points and
    the edges (a[k], b[k]).

    Each part of more than DISSECTION_LEAF vertices is split at the median
    of its vertices' coordinate along its longer extent, and the vertices of
    the low half with an edge to the high half form its separator, so the
    two halves left share no edge.  All parts of one level split at once.
    The order is the dissection tree's post-order: a part's low half, its
    high half, then its separator.
    """
    n = len(points)
    coords = np.stack([points.real, points.imag])
    # each vertex's rank in x and in y, so one integer key sorts every part
    # along its own axis
    rank = np.argsort(np.argsort(coords, axis=1, kind="stable"), axis=1)
    # each vertex ends in one tree node, a leaf or a separator, named by its
    # depth and its path from the root in bits (low half 0, high half 1)
    path = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    # 0 or 1 in the low or high half of a part being split, 2 once placed
    side = np.full(n, 2, dtype=np.int8)
    active = np.arange(n)  # vertices of the parts still to split, grouped by part
    level = 0
    while True:
        part = path[active]
        size = np.bincount(part)[part]
        split = size > DISSECTION_LEAF
        depth[active[~split]], side[active[~split]] = level, 2
        active, part, size = active[split], part[split], size[split]
        if not len(active):
            break
        # where each part starts in active, and which part each vertex is in
        head = np.r_[True, part[1:] != part[:-1]]
        starts = np.flatnonzero(head)
        run = np.cumsum(head) - 1
        c = coords[:, active]
        extent = np.maximum.reduceat(c, starts, axis=1) - np.minimum.reduceat(c, starts, axis=1)
        axis = np.argmax(extent, axis=0)[run]
        active = active[np.argsort(part * n + rank[axis, active])]
        side[active] = np.arange(len(active)) - starts[run] >= size // 2
        # an edge between two parts meets a separator, so the edges with
        # ends of sides 0 and 1 are those between the halves of one part
        sa, sb = side[a], side[b]
        cut = (sa ^ sb) == 1
        separator = np.where(sa[cut] == 1, b[cut], a[cut])
        depth[separator], side[separator] = level, 2
        active = active[side[active] < 2]
        path[active] = 2 * path[active] + side[active]
        level += 1
    # post-order key: pad a node's path with ones to the deepest level, so
    # it sorts after its low subtree and with its high one, then put deeper
    # nodes first
    deepest = depth.max(initial=0)
    pad = deepest - depth
    key = ((path << pad) | ((1 << pad) - 1)) * (deepest + 1) + pad
    return np.argsort(key, kind="stable")


def _merge_rings(inner_idx, inner_theta, outer_idx, outer_theta) -> np.ndarray:
    """Triangulate the annulus strip between two vertex rings.

    Each step advances the ring whose next vertex comes first, the outer
    one on a tie.  Both next-angle sequences are sorted, so the steps are a
    merge of the two: an outer step follows the inner steps whose next angle
    lies strictly below its own (searchsorted left), an inner step follows
    the outer steps whose next angle is at or below its own (searchsorted
    right).  Returns the (len(inner) + len(outer), 3) triangles in step
    order.
    """
    m, M = len(inner_idx), len(outer_idx)
    # start the outer ring at the angle closest to inner_theta[0]
    j0 = int(np.argmin(np.abs(_wrap_angle(outer_theta - inner_theta[0] + np.pi) - np.pi)))
    ti = inner_theta - inner_theta[0]
    tj = _wrap_angle(outer_theta[(j0 + np.arange(M)) % M] - inner_theta[0])
    if tj[0] > np.pi:  # nearest outer vertex sits just behind the start angle
        tj[0] -= TWO_PI
    next_i = np.append(ti[1:], TWO_PI + ti[0])
    next_j = np.append(tj[1:], TWO_PI + tj[0])
    inner = inner_idx[np.arange(m + 1) % m]
    outer = outer_idx[(j0 + np.arange(M + 1)) % M]
    i, j = np.arange(m), np.arange(M)
    i_at_j = np.searchsorted(next_i, next_j, side="left")
    j_at_i = np.searchsorted(next_j, next_i, side="right")
    tris = np.empty((m + M, 3), dtype=int)
    tris[j + i_at_j] = np.column_stack([inner[i_at_j], outer[j], outer[j + 1]])
    tris[i + j_at_i] = np.column_stack([inner[i], outer[j_at_i], inner[i + 1]])
    return tris


def build_disk_mesh(resolution: float, domain: DiskDomain) -> Mesh:
    """Concentric-ring triangulation with target edge length `resolution`.

    Ring k (of n) sits at radius k/n and carries 6k vertices, giving
    near-uniform edge lengths ~1/n; the centre is vertex 0 and ring k holds
    the vertices 1 + 3k(k-1) .. 3k(k+1) in increasing angle.  Ring 1 is a
    fan around the centre and each pair of neighbouring rings is one
    _merge_rings strip; every triangle is counter-clockwise as built.  Arc
    endpoints of gamma0 are snapped onto boundary vertices so arc membership
    is exact.
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

    rings = np.arange(1, n + 1)
    ring_index = [np.arange(1 + 3 * k * (k - 1), 1 + 3 * k * (k + 1)) for k in rings]
    radii = np.repeat(rings / n, 6 * rings)
    verts = np.concatenate([[0.0 + 0.0j], radii * np.exp(1j * np.concatenate(ring_angles))])

    first = ring_index[0]
    fan = np.column_stack([np.zeros(6, dtype=int), first, np.roll(first, -1)])
    strips = [
        _merge_rings(ring_index[q], ring_angles[q], ring_index[q + 1], ring_angles[q + 1])
        for q in range(n - 1)
    ]
    cells = np.concatenate([fan] + strips)

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


def boundary_integral(trace, mesh: Mesh, arc: str = "full"):
    """Arc-length integral of a boundary trace with measure e^{rho} ds.

    `trace` holds one value per boundary vertex (ordered as mesh.boundary);
    an empty requested arc integrates to zero.
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
    if trace.shape != (nb,):
        raise ValueError("trace needs one value per boundary vertex")
    total = np.sum(mesh.boundary_weights[mask] * trace[mask])
    return complex(total) if np.iscomplexobj(trace) else float(total.real)


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
    """Recovered d/dzbar of a vertex field: dzbar v = conj(dz conj(v))."""
    return np.conj(dz_field(np.conj(values), mesh))
