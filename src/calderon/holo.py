"""Holomorphic toolkit on the unit disk.

Polynomial representations of holomorphic functions, a solid Cauchy
transform inverting d/dz on compactly supported data, arc-constrained
least-squares builders (phases real on the inaccessible arc, amplitudes
with prescribed zeros, jet-matching primitives, the CGO corrector a0 and
the Carleman auxiliaries; all but the phase are fitted by _fit_on_arc),
and a critical-point finder: the companion-matrix eigenvalues of dPhi,
each certified by an argument-principle winding on a small circle and
checked in total against the winding over the disk contour.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import null_space, solve_triangular

from .geometry import ConfigurationError, DiskDomain, Mesh, TWO_PI

ARC_RESIDUAL_TOL = 1e-6
# arc residual targets of the corrector a0 and of the Carleman auxiliaries'
# gamma0 Neumann condition
A0_RESIDUAL_TOL = 1e-4
AUX_NEUMANN_TOL = 1e-4
HARD_CONSTRAINT_TOL = 1e-10
DEGENERACY_THRESHOLD = 1e-8
# Tikhonov weights of the arc fits and of the Morse-phase fits (ridge lam = sqrt of it)
ARC_TIKHONOV = 1e-12
PHASE_TIKHONOV = 1e-18
# gamma0 collocation nodes per degree of an arc fit
ARC_NODES_PER_DEGREE = 8
# critical-point finder: the disk contour's winding starts at WINDING_SAMPLES
# samples; candidates closer than MERGE_TOL are one zero, and the one within
# PRIMARY_TOL of a phase's p is its primary point p
WINDING_SAMPLES = 2048
MERGE_TOL = 1e-7
PRIMARY_TOL = 1e-9
# a winding contour step is refused when min(|f'/f| at its two ends) times
# its length exceeds this (see _poly_winding)
STEP_TURN_LIMIT = 1.7
# complex kernel entries per dense far-field row block of cauchy_transform:
# 2^16 entries are 1 MiB, which stays in a 2 MiB per-core L2 cache while
# every field's matrix-vector product streams it.  Rows are independent, so
# the block size leaves every result bit unchanged.
TRANSFORM_BLOCK_ENTRIES = 2**16


class InfeasibleDegreeError(RuntimeError):
    """An arc-constrained fit missed its residual target at the given degree."""


class MorseVerificationError(RuntimeError):
    """A fitted phase failed Morse verification: its critical-point report
    is not Morse, or p is not among its points."""


class HoloFunction:
    """Polynomial in z with complex coefficients (automatically holomorphic)."""

    def __init__(self, coeffs, meta: Optional[dict] = None):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        self.meta = dict(meta or {})

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out if out.shape else complex(out)

    def derivative(self, order: int = 1) -> "HoloFunction":
        c = self.coeffs
        for _ in range(order):
            if len(c) == 1:
                c = np.zeros(1, dtype=complex)
                break
            c = c[1:] * np.arange(1, len(c))
        return HoloFunction(c)


# ---------------------------------------------------------------------------
# solid Cauchy transform


def cauchy_transform(f_values, mesh: Mesh, eval_points=None, eval_index=None) -> np.ndarray:
    """Solid Cauchy transform R f(z) = (1/pi) * integral of f(xi)/(conj(z-xi)) dA.

    Inverts d/dz: dz(R f) = f at interior points.  Quadrature is one point
    mass per vertex; sources within a vertex's equal-area disk use the exact
    disk-averaged kernel, and the local quadrature defect is removed by
    singularity subtraction: the transform of the indicator of a disk
    centered at the evaluation point vanishes exactly there, so subtracting
    f(z) times its quadrature cancels the near-field error (evaluation never
    fails near a sample singularity).

    The sum is split in two.  The far field is dense: the point-mass kernel
    1/conj(z - xi) against areas * f over the support of f, with exact
    self-pairs zeroed.  The near field runs only over the (evaluation,
    source) pairs within the subtraction radius of 4 mesh resolutions, found
    on a grid of cells of that size (_pairs_within): it swaps in the
    disk-averaged kernel inside each source's equal-area disk and applies
    the subtraction window, whose sources are the support of f dilated by
    that radius.

    R f is evaluated at the mesh vertices eval_index (all vertices when both
    eval_index and eval_points are None), where f is read directly, or at
    the off-mesh eval_points, where f is interpolated linearly.

    f must vanish within two cells of the boundary (compact support).
    Several fields with one support are transformed together, sharing the
    kernels, by _cauchy_transform_columns.
    """
    f = np.asarray(f_values, dtype=complex)
    if f.shape != (mesh.n_vertices,):
        raise ValueError("f must be sampled at mesh vertices")
    out, shape = _cauchy_transform_columns(f[None, :], mesh, eval_points, eval_index)
    return out[0].reshape(shape)


def _far_field_kernel(z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Point-mass kernel 1/conj(z - xi) = d/|d|^2 for one row block of
    evaluation points z against the sources xs; exact self-pairs are 0."""
    d = z[:, None] - xs[None, :]
    d_sq = d.real**2 + d.imag**2
    np.divide(1.0, d_sq, out=d_sq, where=d_sq != 0)
    d *= d_sq
    return d


def _pairs_within(a: np.ndarray, b: np.ndarray, r: float) -> tuple:
    """Index pairs (i, j) with |a_i - b_j| <= r of two complex point sets,
    sorted by (i, j).

    The points are binned on a grid of square cells a hair wider than r, so
    a point within r of a_i lies in a_i's cell or one of the 8 around it,
    whatever the rounding of the cell indices.  Each of the 9 cell offsets
    keeps only its candidates within r before they are joined.  The test is
    the inclusive dx^2 + dy^2 <= r^2: points exactly r apart pair up.
    """
    side = r * (1.0 + 1e-9)
    x0, y0 = min(a.real.min(), b.real.min()), min(a.imag.min(), b.imag.min())
    ax, ay = ((a.real - x0) // side).astype(np.int64), ((a.imag - y0) // side).astype(np.int64)
    bx, by = ((b.real - x0) // side).astype(np.int64), ((b.imag - y0) // side).astype(np.int64)
    # cell (x, y) -> (x + 1) * rows + y + 1, so every neighbour of a cell has a key
    rows = int(max(ay.max(), by.max())) + 3
    key_a = (ax + 1) * rows + ay + 1
    key_b = (bx + 1) * rows + by + 1
    order = np.argsort(key_b, kind="stable")
    sorted_keys = key_b[order]
    r_sq = r * r
    found_i, found_j = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            cell = key_a + dx * rows + dy
            lo = np.searchsorted(sorted_keys, cell, side="left")
            counts = np.searchsorted(sorted_keys, cell, side="right") - lo
            i = np.repeat(np.arange(len(a)), counts)
            # position k of each candidate within its cell's run of sorted_keys
            k = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
            j = order[np.repeat(lo, counts) + k]
            d = a[i] - b[j]
            keep = d.real**2 + d.imag**2 <= r_sq
            found_i.append(i[keep])
            found_j.append(j[keep])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    pair_order = np.argsort(i * len(b) + j)
    return i[pair_order], j[pair_order]


def _cauchy_transform_columns(F: np.ndarray, mesh: Mesh, eval_points=None, eval_index=None) -> tuple:
    """cauchy_transform of every row of F (shape (k, n_vertices), complex).

    The rows must share one support (the far-field sources and the
    near-field pair list are those of the union).  Each far-field row block,
    the near-field pair list and the disk-averaged kernel with its window
    are built once and applied to every row with that row's own
    matrix-vector product and sums, in cauchy_transform's operation order,
    so each row of the result equals cauchy_transform of that row bit for
    bit.  Returns (out of shape (k, n_eval), shape of the evaluation set).
    """
    if eval_points is not None and eval_index is not None:
        raise ValueError("give eval_points or eval_index, not both")
    if eval_points is None:
        idx = np.arange(mesh.n_vertices) if eval_index is None else np.asarray(eval_index, dtype=int)
        z = mesh.vertices[idx].ravel()
        F_at_eval = F[:, idx.ravel()]
        shape = np.shape(idx)
    else:
        z = np.asarray(eval_points, dtype=complex).ravel()
        shape = np.shape(eval_points)
    out = np.zeros((len(F), len(z)), dtype=complex)
    support = np.any(np.abs(F) > 0, axis=0)
    if np.any(support) and np.max(np.abs(mesh.vertices[support])) > 1.0 - 2.0 * mesh.resolution:
        raise ValueError("support of f must stay two cells away from the boundary")
    if not np.any(support) or len(z) == 0:
        return out, shape
    sub_radius = 4.0 * mesh.resolution
    if eval_points is not None:
        from scipy.interpolate import LinearNDInterpolator

        pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
        zp = np.column_stack([z.real, z.imag])
        F_at_eval = np.empty((len(F), len(z)), dtype=complex)
        for k, f in enumerate(F):
            interp_re = LinearNDInterpolator(pts, f.real, fill_value=0.0)
            interp_im = LinearNDInterpolator(pts, f.imag, fill_value=0.0)
            F_at_eval[k] = interp_re(zp) + 1j * interp_im(zp)
    # far field: zero-valued sources add nothing to the point-mass sum
    xs = mesh.vertices[support]
    weights = [(mesh.vertex_areas * f)[support] for f in F]
    block = max(1, int(TRANSFORM_BLOCK_ENTRIES / len(xs)))
    for s in range(0, len(z), block):
        kernel = _far_field_kernel(z[s : s + block], xs)
        # one product per row: a single matrix product sums in another order
        for out_k, w in zip(out, weights):
            out_k[s : s + block] = kernel @ w
    # near field: zero-valued sources still carry quadrature weight in the
    # local defect sum, so its sources are the support dilated by sub_radius
    local = np.zeros(mesh.n_vertices, dtype=bool)
    local[_pairs_within(mesh.vertices, mesh.vertices[support], sub_radius + 1e-12)[0]] = True
    src = mesh.vertices[local]
    areas = mesh.vertex_areas[local]
    radii = np.sqrt(areas / np.pi)
    # the equal-area disks (radius about resolution / 2) lie well inside it
    i, j = _pairs_within(z, src, sub_radius)
    d = z[i] - src[j]
    absd = np.abs(d)
    near = absd < radii[j]
    point = np.zeros_like(d)
    np.divide(areas[j], np.conj(d), out=point, where=d != 0)
    # average of the kernel over the equal-area disk centered at the source
    kern = np.where(near, areas[j] * d / radii[j] ** 2, point)
    # singularity subtraction: any radial window centered at z has exact
    # transform 0 there, so its quadrature is pure local defect; a smooth
    # window keeps the rim quadrature clean
    t = np.clip(absd / sub_radius, 0.0, 1.0)
    window = 0.5 * (1.0 + np.cos(np.pi * t))
    swap = kern - point
    for f, f_at_eval, out_k in zip(F, F_at_eval, out):
        pair_terms = swap * f[local][j] - f_at_eval[i] * kern * window
        out_k += np.bincount(i, pair_terms.real, len(z)) + 1j * np.bincount(i, pair_terms.imag, len(z))
    out /= np.pi
    return out, shape


# ---------------------------------------------------------------------------
# constrained least-squares fitting engine
#
# Unknowns are x = [Re c_0..Re c_K, Im c_0..Im c_K].  A complex functional
# row r (meaning sum_k r_k c_k = t) expands to two real rows; an arc row
# asking Im(sum c_k w^k) = t or Re(...) = t expands to one real row.  The
# exact rows of every fit come from _hard_space, and every fit but the
# Morse phase's (_phase_fitter) is solved and checked by _fit_on_arc.


def _complex_rows(rows, targets):
    """Real rows of the complex functional rows = targets: Re rows over Im rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    return np.vstack([_part_rows(rows, "re"), _part_rows(rows, "im")]), np.concatenate([t.real, t.imag])


def _part_rows(rows, part):
    """Real rows of Re or Im of the complex functional rows."""
    if part == "re":
        return np.hstack([rows.real, -rows.imag])
    if part == "im":
        return np.hstack([rows.imag, rows.real])
    raise ValueError(f"unknown part {part!r}")


def _derivative_rows(z, order, degree):
    """Complex rows of the functionals c -> (d/dz)^order P(z), one per point:
    the one builder of fit rows (order 0 gives the value rows z^k).

    order is one integer for all points or one per point."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    order = np.broadcast_to(np.asarray(order, dtype=int), z.shape)
    k = np.arange(degree + 1)
    shift = k[None, :] - order[:, None]
    # falling factorial k (k-1) ... (k-order+1) of each exponent k
    fac = np.ones(shift.shape)
    for j in range(int(order.max(initial=0))):
        fac *= np.where(j < order[:, None], k - j, 1)
    return np.where(shift >= 0, fac * z[:, None] ** np.maximum(shift, 0), 0)


def _hard_space(degree, constraints):
    """Particular solution x0 and null-space basis N of the exact constraints,
    a list of (point, derivative order, complex target)."""
    n = 2 * (degree + 1)
    if not constraints:
        return np.zeros(n), np.eye(n)
    points, orders, targets = zip(*constraints)
    hard_A, hard_b = _complex_rows(_derivative_rows(points, orders, degree), targets)
    x0, *_ = np.linalg.lstsq(hard_A, hard_b, rcond=None)
    if np.linalg.norm(hard_A @ x0 - hard_b) > HARD_CONSTRAINT_TOL * max(1.0, np.linalg.norm(hard_b)):
        raise InfeasibleDegreeError(f"hard constraints inconsistent or underrepresented at degree {degree}")
    return x0, null_space(hard_A)


def _solve_soft(degree, x0, N, soft_A, soft_b, tikhonov):
    """Least squares over soft rows in the affine space x0 + span N."""
    if len(soft_A) == 0:
        x = x0
    else:
        lam = np.sqrt(tikhonov)
        A = np.vstack([soft_A @ N, lam * N])
        b = np.concatenate([soft_b - soft_A @ x0, -lam * x0])
        y, *_ = np.linalg.lstsq(A, b, rcond=None)
        x = x0 + N @ y
    return x[: degree + 1] + 1j * x[degree + 1 :]


def _arc_grids(domain: DiskDomain, degree: int) -> tuple:
    """Fit nodes on gamma0 (ARC_NODES_PER_DEGREE per degree) and the 4x finer
    check nodes (DiskDomain.gamma0_points); both empty for full data."""
    count = ARC_NODES_PER_DEGREE * max(degree, 1)
    return domain.gamma0_points(count), domain.gamma0_points(4 * count)


def _fit_on_arc(degree, constraints, nodes, check, part, label, tol, target=0.0, radial=False):
    """The one arc fit behind fit_holomorphic_on_arc, build_a0 and
    build_auxiliaries.

    The polynomial P of the given degree meets the exact constraints (list
    of (point, derivative order, complex target)) and fits part(F) = target
    at the arc nodes in least squares, where F is P itself or, when radial,
    its radial derivative t P'(t) on the unit circle; no nodes, no arc rows.
    Every constraint is checked to HARD_CONSTRAINT_TOL.  The arc residual
    max |part(F) - target| over the check nodes (target is a scalar or given
    at the check nodes) is stored in meta["arc_residual"], and one above tol
    raises InfeasibleDegreeError worded with label.
    """
    x0, N = _hard_space(degree, constraints)
    rows = _derivative_rows(nodes, 0, degree)
    if radial:
        rows = np.arange(degree + 1) * rows
    fn = HoloFunction(_solve_soft(degree, x0, N, _part_rows(rows, part), target, ARC_TIKHONOV))
    vals = fn.derivative()(check) * check if radial else fn(check)
    got = vals.imag if part == "im" else vals.real
    residual = float(np.max(np.abs(got - target), initial=0.0))
    fn.meta["arc_residual"] = residual
    for z0, order, t in constraints:
        value = fn.derivative(order)(z0)
        if abs(value - t) > HARD_CONSTRAINT_TOL * max(1.0, abs(t)):
            raise InfeasibleDegreeError(f"hard constraint at {z0} (order {order}) violated: {value} vs {t}")
    if residual > tol:
        raise InfeasibleDegreeError(f"{label} {residual:.2e} exceeds {tol:.0e} at degree {degree}; increase the degree")
    return fn


def fit_holomorphic_on_arc(
    constraints: Sequence[tuple],
    domain: DiskDomain,
    degree: int,
    part: str = "im",
) -> HoloFunction:
    """Polynomial with `part` (re/im) zero on gamma0, hard constraints exact.

    constraints: list of (point, derivative order, complex target) interpolation
    conditions enforced exactly.  The achieved sup-residual on a 4x finer
    verification grid is stored in meta["arc_residual"]; exceeding
    ARC_RESIDUAL_TOL raises InfeasibleDegreeError suggesting a larger degree.
    """
    nodes, check = _arc_grids(domain, degree)
    return _fit_on_arc(degree, constraints, nodes, check, part, "arc residual", ARC_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# critical points: companion-matrix roots certified by the argument principle


@dataclass
class CriticalPoint:
    location: complex
    second_abs: float          # |d^2 Phi| there
    multiplicity: int
    on_boundary: bool
    degenerate: bool


@dataclass
class CriticalPointReport:
    points: list
    count_check: int           # argument-principle winding over the disk contour

    def __post_init__(self):
        located = sum(p.multiplicity for p in self.points)
        if located != self.count_check:
            raise RuntimeError(
                f"critical-point finder missed a zero: winding {self.count_check}, "
                f"located {located}"
            )

    @property
    def is_morse(self) -> bool:
        return all(not p.degenerate for p in self.points)

    def primary(self, p: complex) -> Optional[CriticalPoint]:
        """The point within PRIMARY_TOL of p, or None: the one judge of
        whether p is a (by its degenerate flag, nondegenerate) critical point."""
        return next((q for q in self.points if abs(q.location - p) <= PRIMARY_TOL), None)

    def secondary(self, p: complex) -> list:
        return [q for q in self.points if abs(q.location - p) > PRIMARY_TOL]


def _poly_winding(fn: HoloFunction, path: np.ndarray):
    """Winding number of fn along a closed sampled path (argument increments).

    A 2-D path holds one closed path per row, evaluated in one call; the
    result is then an integer array with one winding per row.

    A zero of multiplicity m at distances r1, r2 from the ends of a step of
    length ds turns arg fn by m times the angle the step subtends there, and
    |fn'/fn| is about m / r1 and m / r2 at the ends.  Sampled increments are
    only known mod 2 pi, so a multiple zero that turns arg fn by more than
    pi within one step would lose a whole turn; the subtended angle then
    exceeds pi / m, so max(r1, r2) < ds / sin(pi / m) and
    min(|fn'/fn| at the two ends) * ds > m sin(pi / m) >= 2.  A lone simple
    zero cannot lose a turn, and it takes that product above sqrt(2) only
    when its increment exceeds pi/2, which is refused anyway.  Steps whose
    product exceeds STEP_TURN_LIMIT are refused (one evaluation of fn' per
    contour)."""
    vals = fn(path)
    scale = np.max(np.abs(vals), axis=-1)
    if np.any(scale == 0) or np.any(np.min(np.abs(vals), axis=-1) < 1e-12 * scale):
        raise ArithmeticError("zero on contour")
    rate = np.abs(fn.derivative()(path) / vals)
    step = np.abs(np.roll(path, -1, axis=-1) - path)
    if np.max(np.minimum(rate, np.roll(rate, -1, axis=-1)) * step, initial=0.0) > STEP_TURN_LIMIT:
        raise ArithmeticError("contour sampling too coarse near a zero")
    dphi = np.angle(np.roll(vals, -1, axis=-1) / vals)
    if np.max(np.abs(dphi), initial=0.0) > 0.5 * np.pi:
        raise ArithmeticError("contour sampling too coarse")
    total = np.sum(dphi, axis=-1) / TWO_PI
    w = np.round(total)
    if np.max(np.abs(total - w), initial=0.0) > 1e-6:
        raise ArithmeticError("non-integer winding")
    return w.astype(int) if w.ndim else int(w)


def _circle_winding(fn: HoloFunction, radius: float) -> int:
    samples = WINDING_SAMPLES
    for attempt in range(6):
        path = (radius + attempt * 1e-5) * np.exp(
            1j * TWO_PI * np.arange(samples) / samples
        )
        try:
            return _poly_winding(fn, path)
        except ArithmeticError:
            samples *= 2
    raise RuntimeError("could not certify winding number on the disk contour")


def _circles_winding(fn: HoloFunction, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Winding of fn on the circle of each center and radius, all sampled
    in one evaluation (finer sampling on failure)."""
    for samples in (128, 256, 512, 1024):
        circle = np.exp(1j * TWO_PI * np.arange(samples) / samples)
        try:
            return _poly_winding(fn, centers[:, None] + radii[:, None] * circle)
        except ArithmeticError:
            continue
    raise RuntimeError("could not certify the winding around a critical point")


def find_critical_points(phi: HoloFunction) -> CriticalPointReport:
    """All zeros of dPhi in the closed unit disk, certified by the argument principle.

    The candidates are the eigenvalues of the companion matrix of dPhi
    (numpy.roots), taken as they are; candidates closer than MERGE_TOL (the
    split eigenvalues of a multiple zero) merge into one cluster.  Each
    cluster inside the verification circle |z| = 1 + 1e-6 is certified by
    the winding of dPhi on a small circle around it, which is its
    multiplicity; the circles are disjoint and stay off the verification
    circle, and all of them are evaluated in one call; a circle of winding 0
    is dropped.  The report
    fails loudly if the multiplicities do not add up to the winding of dPhi
    over the verification circle, as for a zero of multiplicity 3 or more,
    whose eigenvalues split wider than MERGE_TOL.  A double zero within
    about 1e-4 of the verification circle fails loudly as well: at every
    retried radius and sampling, either the argument of dPhi jumps by more
    than pi/2 between samples or a step passes so close to the zero that it
    could skip a whole turn (see _poly_winding), so the contour winding is
    not certified.
    """
    dphi = phi.derivative()
    if np.all(np.abs(dphi.coeffs) == 0):
        raise ValueError("phase is constant")
    contour_r = 1.0 + 1e-6
    total = _circle_winding(dphi, contour_r)

    roots = np.roots(dphi.coeffs[::-1]).astype(complex)
    group = np.arange(len(roots))
    close = np.abs(roots[:, None] - roots[None, :]) < MERGE_TOL
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        group[group == group[j]] = group[i]
    centers = np.array([roots[group == g].mean() for g in np.unique(group)], dtype=complex)
    inside = np.flatnonzero(np.abs(centers) <= contour_r)
    z = centers[inside]
    gap = np.abs(z[:, None] - centers[None, :])
    gap[np.arange(len(z)), inside] = np.inf
    radii = np.minimum(0.4 * np.min(gap, axis=1, initial=np.inf), 0.5 * np.abs(contour_r - np.abs(z)))
    mult = _circles_winding(dphi, z, radii)
    z, mult = z[mult > 0], mult[mult > 0]
    second = np.abs(phi.derivative(2)(z))
    points = [
        CriticalPoint(
            location=complex(q),
            second_abs=float(d2),
            multiplicity=int(m),
            on_boundary=bool(abs(abs(q) - 1.0) < 1e-6),
            degenerate=bool(d2 <= DEGENERACY_THRESHOLD or m > 1),
        )
        for q, d2, m in zip(z, second, mult)
    ]
    points.sort(key=lambda q: (q.location.real, q.location.imag))
    return CriticalPointReport(points=points, count_check=total)


# ---------------------------------------------------------------------------
# builders


def _phase_fitter(domain, p, degree):
    """Phase fits at p: Phi(p)=i and dPhi(p)=0 hard; Im Phi=0 on gamma0
    and a gradient-energy penalty of weight mu soft.  Everything but mu is
    fixed, so it is built once here; the returned fit(mu) gives (fn, arc
    residual).

    fit.screen(mu) gives the arc residual alone, from the R factors of the
    two soft blocks with their right-hand sides appended as a last column:
    the mu-independent block [arc_rows N, -arc_rows x0; lam N, -lam x0] and
    the penalty block [dA N, -dA x0].  The 2-norm is invariant under
    orthogonal maps, so the least-squares problem of [R_F; mu R_D] has the
    minimizer of fit's, up to rounding, at the cost of one small QR."""
    x0, N = _hard_space(degree, [(p, 0, 1j), (p, 1, 0.0)])
    nodes, fine = _arc_grids(domain, degree)
    arc_rows = _part_rows(_derivative_rows(nodes, 0, degree), "im")
    samp = np.exp(1j * TWO_PI * np.arange(4 * degree) / (4 * degree))
    dA, _ = _complex_rows(_derivative_rows(samp, 1, degree), np.zeros(len(samp)))
    lam = np.sqrt(PHASE_TIKHONOV)

    def fit(mu):
        soft_A = np.vstack([arc_rows, mu * dA])
        soft_b = np.zeros(len(soft_A))
        fn = HoloFunction(_solve_soft(degree, x0, N, soft_A, soft_b, tikhonov=PHASE_TIKHONOV))
        return fn, float(np.max(np.abs(fn(fine).imag)))

    def augmented(rows):
        return np.hstack([rows @ N, -(rows @ x0)[:, None]])

    k = N.shape[1]
    R_F = np.linalg.qr(np.vstack([augmented(arc_rows), lam * np.hstack([N, -x0[:, None]])]), mode="r")
    R_D = np.linalg.qr(augmented(dA), mode="r")

    def screen(mu):
        R = np.linalg.qr(np.vstack([R_F, mu * R_D]), mode="r")
        x = x0 + N @ solve_triangular(R[:k, :k], R[:k, k])
        fn = HoloFunction(x[: degree + 1] + 1j * x[degree + 1 :])
        return float(np.max(np.abs(fn(fine).imag)))

    fit.screen = screen
    return fit


def build_morse_phase(
    domain: DiskDomain,
    p: complex,
    degree: int = 16,
    psi_target: float = 1.0,
) -> HoloFunction:
    """Holomorphic Morse phase: dPhi(p)=0 exactly, Phi(p)=i*psi_target,
    Im Phi = 0 on gamma0 within ARC_RESIDUAL_TOL.

    Among fits meeting the residual target the builder takes the one with
    the smallest gradient energy (largest feasible penalty weight, found by
    bisection), since downstream semiclassical solves must resolve
    oscillations at wavelength ~ h/|dPhi|.  psi_target rescales the whole
    phase; Im Phi(p) = psi_target stays nonzero.  A generic fit is Morse,
    so the builder fits once and certifies once: a critical-point report
    that is not Morse, or that lacks p among its points, raises
    MorseVerificationError naming the report.

    Only the penalty weight mu changes between the bisection's fits, so the
    hard constraints, their null space, the arc and penalty rows, their R
    factors and the verification nodes are built once.  The 14 bisection
    decisions read the screened residual (fit.screen: one small QR of the
    stacked R factors per mu).  The phase and its stored arc_residual come
    from one full least-squares fit at the chosen mu, and that fit alone is
    checked against the residual target.  At the floor mu = 1e-9 (no
    screened mu met the target) a miss means the degree is too low; above
    it, that the screen and the full fit disagree.  meta records the chosen
    "penalty_weight", the "critical_points" report and "p", the exact point
    the phase was built at (the report holds its companion-matrix root),
    which every consumer reads as the primary critical point.
    """
    p = complex(p)
    margin = 0.02
    if abs(p) >= 1.0 - margin:
        raise ConfigurationError("phase critical point must be interior to the disk")
    if psi_target <= 0:
        raise ConfigurationError("psi_target must be positive")
    if domain.gamma0 is None:
        base = np.zeros(max(degree + 1, 3), dtype=complex)
        # (z-p)^2 + i expanded in powers of z
        base[0] = 1j + p * p
        base[1] = -2.0 * p
        base[2] = 1.0
        phi = HoloFunction(base)
        phi.meta["arc_residual"] = 0.0
    else:
        target = 0.8 * ARC_RESIDUAL_TOL / psi_target
        lo, hi = 1e-9, 1e-2  # residual grows with the penalty weight mu
        fit = _phase_fitter(domain, p, degree)
        screen_res = None
        for _ in range(14):
            mid = np.sqrt(lo * hi)
            res_mid = fit.screen(mid)
            if res_mid <= target:
                lo, screen_res = mid, res_mid
            else:
                hi = mid
        phi, best_res = fit(lo)
        if best_res > target:
            if screen_res is None:
                raise InfeasibleDegreeError(
                    f"arc residual {best_res:.2e} exceeds {target:.1e} even without "
                    f"gradient penalty at degree {degree}; increase the degree"
                )
            raise InfeasibleDegreeError(
                f"arc residual {best_res:.2e} exceeds {target:.1e} at penalty weight "
                f"{lo:.3e} (screened residual {screen_res:.2e}) at degree {degree}"
            )
        phi.meta["arc_residual"] = best_res * psi_target
        phi.meta["penalty_weight"] = float(lo)
    phi = HoloFunction(psi_target * phi.coeffs, meta=phi.meta)
    report = find_critical_points(phi)
    if not (report.is_morse and report.primary(p) is not None):
        raise MorseVerificationError(f"no Morse phase at p = {p}; report: {report}")
    phi.meta["critical_points"] = report
    phi.meta["p"] = p
    return phi


def build_amplitude(
    phase: HoloFunction,
    domain: DiskDomain,
    vanish_order: int = 4,
    degree: int = 16,
) -> HoloFunction:
    """Holomorphic amplitude: a(p)=1 at the phase's primary critical point
    p = meta["p"], zeros of order vanish_order at its other critical points
    (meta["critical_points"]), Re a = 0 on gamma0."""
    report, p = phase.meta["critical_points"], phase.meta["p"]
    if report.primary(p) is None:
        raise ValueError("p is not among the report's critical points")
    constraints = [(p, 0, 1.0 + 0.0j)]
    for q in report.secondary(p):
        for order in range(vanish_order):
            constraints.append((q.location, order, 0.0j))
    if 2 * len(constraints) >= 2 * (degree + 1):
        raise InfeasibleDegreeError(
            f"{len(constraints)} hard constraints need degree > {len(constraints) - 1}"
        )
    return fit_holomorphic_on_arc(constraints, domain, degree, part="re")


def build_auxiliaries(domain: DiskDomain, phase: HoloFunction, degree: int = 16) -> list:
    """One holomorphic g_j per critical point p_j of the phase, with
    g_j'(p_j) = 1 (hard) and normal derivative of Im g_j vanishing on gamma0
    (least squares, verified to AUX_NEUMANN_TOL)."""
    report = phase.meta.get("critical_points")
    if report is None:
        raise ConfigurationError("phase must carry its critical-point report")
    nodes, check = _arc_grids(domain, degree)
    out = []
    for q in report.points:
        p = complex(q.location)
        if domain.gamma0 is None:
            g = HoloFunction(np.eye(degree + 1, dtype=complex)[1])  # g = z
        else:
            # radial derivative of Im g on the unit circle: Im(g'(t) t)
            label = f"gamma0 Neumann residual (auxiliary at {p:.4f})"
            g = _fit_on_arc(degree, [(p, 1, 1.0)], nodes, check, "im", label, AUX_NEUMANN_TOL, radial=True)
        g.meta["critical_point"] = p
        out.append(g)
    return out


def field_jets(values, mesh: Mesh, z0: complex, order: int = 2) -> np.ndarray:
    """d/dz jets (orders 0..order, order <= 2) of a discrete complex field at z0.

    Local least-squares bivariate polynomial of degree order+2 over the
    vertices within radius 4*resolution (the wide centered stencil), then
    Wirtinger combinations of the Taylor coefficients.
    """
    z0 = complex(z0)
    radius = 4.0 * mesh.resolution
    deg = order + 2
    sel = np.abs(mesh.vertices - z0) <= radius
    n_terms = (deg + 1) * (deg + 2) // 2
    if np.count_nonzero(sel) < 2 * n_terms:
        raise ConfigurationError(
            "jet stencil too coarse at this resolution; refine the mesh"
        )
    dx = (mesh.vertices[sel] - z0).real / radius
    dy = (mesh.vertices[sel] - z0).imag / radius
    cols, idx = [], {}
    for total in range(deg + 1):
        for i in range(total + 1):
            j = total - i
            idx[(i, j)] = len(cols)
            cols.append(dx**i * dy**j)
    A = np.column_stack(cols)
    f = np.asarray(values, dtype=complex)[sel]
    coef, _, rank, _ = np.linalg.lstsq(A, f, rcond=None)
    if rank < n_terms:
        raise ConfigurationError("jet stencil rank-deficient; refine the mesh")

    def c(i, j):  # Taylor derivative d_x^i d_y^j f(z0)
        fact = float(factorial(i) * factorial(j))
        return coef[idx[(i, j)]] * fact / radius ** (i + j)

    jets = [c(0, 0)]
    if order >= 1:
        jets.append(0.5 * (c(1, 0) - 1j * c(0, 1)))
    if order >= 2:
        jets.append(0.25 * (c(2, 0) - c(0, 2) - 2j * c(1, 1)))
    return np.asarray(jets[: order + 1])


def build_jet_form(
    theta_values,
    mesh: Mesh,
    phase: HoloFunction,
    degree: int = 16,
) -> HoloFunction:
    """Holomorphic f, real on the gamma0 of mesh.domain, whose derivative
    omega = df matches the 0th-2nd d/dz jets of theta at every secondary
    critical point of the phase and the 0th jet at its primary point
    p = meta["p"] (each to HARD_CONSTRAINT_TOL, checked by
    fit_holomorphic_on_arc)."""
    report, p = phase.meta["critical_points"], phase.meta["p"]
    constraints = []
    jp = field_jets(theta_values, mesh, p, order=0)
    constraints.append((p, 1, complex(jp[0])))
    for q in report.secondary(p):
        jq = field_jets(theta_values, mesh, q.location, order=2)
        for ell in range(3):
            constraints.append((q.location, ell + 1, complex(jq[ell])))
    if 2 * len(constraints) >= 2 * degree:
        raise InfeasibleDegreeError(
            f"{len(constraints)} jet constraints need degree > {len(constraints)}"
        )
    return fit_holomorphic_on_arc(constraints, mesh.domain, degree, part="im")


def build_a0(r_tilde12, mesh: Mesh, degree: int = 16) -> HoloFunction:
    """Holomorphic corrector with Re a0 = -Re r_tilde12 on gamma0, fitted and
    checked at the gamma0 vertices of the mesh (residual <= A0_RESIDUAL_TOL);
    identically zero when gamma0 is empty (no nodes, no arc rows)."""
    idx = mesh.gamma0_indices()
    nodes = mesh.vertices[idx] / np.abs(mesh.vertices[idx])
    target = -np.asarray(r_tilde12)[idx].real
    return _fit_on_arc(degree, [], nodes, nodes, "re", "corrector arc residual", A0_RESIDUAL_TOL, target)
