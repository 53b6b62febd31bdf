"""Complex-geometric-optics solutions with a verified remainder hierarchy.

A CGO solution on the disk is u = 2 Re(e^{Phi/h} A) + e^{phi/h} r2 with
holomorphic Morse phase Phi = phi + i psi and slowly modulated amplitude
A = a + h a0 + r1.  The corrections are engineered so that the conjugated
residual e^{-Phi/h}(Delta_g + V) e^{Phi/h} A decays like h (up to logs):

  * r12 = (1 - chi1) b / Phi' removes the potential term away from the
    critical point by algebraic division (2i r12 dpsi = (1-chi1) b),
  * r11 = chi * e^{-2i psi/h} R(e^{2i psi/h} chi1 b) removes it near the
    critical point through the solid Cauchy transform R; the transport
    identity dz r11_hat + (Phi'/h) r11_hat = chi1 b makes the order-one
    terms cancel exactly, leaving the cutoff commutator eta,
  * r2 restores u = 0 on gamma0 and the equation in the interior: it is
    the minimal-norm remainder of the Carleman/duality argument
    (duality_completion), solved in exponentially weighted variables so no
    overflow or catastrophic cancellation occurs.  Its normal equations are
    symmetric positive definite with a 2-ring stencil, whose reverse
    Cuthill-McKee order has half-bandwidth 231 on the reference mesh, so
    they are solved by banded Cholesky rather than a sparse LU.  Their
    pattern, that order and the place of every product in the lower band
    are the mesh's (Mesh.duality_pattern), built once per mesh; each h
    only fills the band and factors it.

One CGO per (phase, potential): prepare_cgo builds the h-independent
ingredients once and returns them as a CGO, which holds its potential V
and caches the phase, its derivative and dz(chi) at the mesh vertices.
Its r11_sweep gives the r11 fields of a whole h list from one
Cauchy-transform sweep and its slow_amplitude gives a + h a0 + r1 at one
h.  The remainder report runs residual_field and duality_completion on it
at each h; the interior pairing of reconstruct reads the same object.  All
advertised norm scalings are measured, not assumed; see
residual_scaling_report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, solveh_banded

from .geometry import (
    ConfigurationError,
    Mesh,
    as_values,
    bump,
    dz_field,
    dzbar_field,
    vertex_gradient,
)
from .forward import operator
from .holo import (
    HoloFunction,
    InfeasibleDegreeError,
    _cauchy_transform_columns,
    build_a0,
    build_jet_form,
)


class ResolvabilityError(RuntimeError):
    """The mesh cannot resolve the requested semiclassical oscillation."""


# change of theta/h allowed per cell where the P1 fields must follow an
# oscillation e^{i theta/h}: one radian, about six cells per period
PHASE_PER_CELL = 1
# change of phi/h allowed per cell in the real weight e^{phi/h} that
# conjugates the Carleman operator: the conjugated matrix's entries stay
# within about e^{+-2} of those of Delta_g + V, with no oscillation to follow
WEIGHT_PER_CELL = 2


def resolvable_h(mesh: Mesh, h_list, slope: float, per_cell: float) -> tuple:
    """The one rule for which h a mesh resolves: an exponential e^{theta/h}
    whose phase theta has slope `slope` varies by at most per_cell per cell
    when h >= floor = resolution * slope / per_cell.

    Returns (kept, refused, floor): the kept h, unique and descending;
    one {"h", "reason"} record per refused h, in the same order; and the
    floor.  Every semiclassical sweep takes its h from here."""
    floor = mesh.resolution * slope / per_cell
    h_list = sorted(set(float(h) for h in h_list), reverse=True)
    kept = [h for h in h_list if h >= floor]
    refused = [{"h": h, "reason": f"mesh cannot resolve h = {h}: need h >= {floor:.3g}"} for h in h_list[len(kept):]]
    return kept, refused, floor


def l2_norm(values, mesh: Mesh) -> float:
    v = np.asarray(values)
    return float(np.sqrt(np.sum(mesh.mass * np.abs(v) ** 2)))


def h1_norm(values, mesh: Mesh) -> float:
    """sqrt(||u||^2 + sum over vertices of w |grad u|^2), w the L2 weights;
    |grad u|^2 = |grad Re u|^2 + |grad Im u|^2."""
    v = np.asarray(values)
    grad_sq = np.abs(vertex_gradient(v.real, mesh)) ** 2 + np.abs(vertex_gradient(v.imag, mesh)) ** 2
    return float(np.sqrt(l2_norm(v, mesh) ** 2 + np.sum(mesh.mass * grad_sq, where=np.isfinite(grad_sq))))


@dataclass
class Cutoff:
    """Radial plateau bump: 1 inside radius/2, smooth C-infinity falloff to 0
    at radius; the z-derivative is analytic (no numerical differentiation)."""

    center: complex
    radius: float

    def __call__(self, z) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=complex) - self.center)
        half = 0.5 * self.radius
        return bump(np.maximum(r - half, 0.0) / half)

    def dz(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        d = z - self.center
        r = np.abs(d)
        half = 0.5 * self.radius
        t = np.clip((r - half) / (self.radius - half), 0.0, 1.0 - 1e-12)
        dq = np.where(
            (r > half) & (r < self.radius),
            bump(t) * (-2.0 * t / (1.0 - t**2) ** 2) / (self.radius - half),
            0.0,
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            out = dq * np.conj(d) / (2.0 * r)
        out[r == 0] = 0.0
        return out


def build_cutoffs(phase: HoloFunction, scale: float = 1.0) -> tuple[Cutoff, Cutoff]:
    """chi (outer) and chi1 (inner) centered at the phase's primary critical
    point p = meta["p"]; chi is identically 1 on the support of chi1, and
    both avoid every other critical point and the boundary circle.

    scale > 1 widens both cutoffs (still respecting the nesting and the
    boundary margin); a wider chi1 collects more oscillation cycles of
    e^{2i psi/h} and brings the transform remainders r11 and eta into their
    asymptotic regime on coarser meshes.
    """
    p = phase.meta["p"]
    d = 1.0 - abs(p)
    for q in phase.meta["critical_points"].secondary(p):
        d = min(d, abs(q.location - p))
    outer = min(0.5 * d * scale, 0.95 * (1.0 - abs(p)))
    inner = min(0.25 * d * scale, 0.5 * outer)
    return Cutoff(p, outer), Cutoff(p, inner)


def phase_slope(mesh: Mesh, phase: HoloFunction, cutoff_scale: float = 1.0) -> float:
    """Slope 2 max|Phi'| of the phase 2 psi of e^{2i psi/h} over supp chi1
    (build_cutoffs at cutoff_scale), where the r11 transform and the
    stationary-phase pairing at p follow it; 0 when no vertex lies in
    supp chi1.  Needs no CGO."""
    z = mesh.vertices
    _, chi1 = build_cutoffs(phase, scale=cutoff_scale)
    inside = z[chi1(z) > 0]
    return 2.0 * float(np.max(np.abs(phase.derivative()(inside)), initial=0.0))


def green_dz(mesh: Mesh, source: np.ndarray) -> np.ndarray:
    """dz of the Dirichlet Green potential of `source`.

    Interior vertices use the averaged P1 gradient; boundary vertices use the
    weak Neumann flux (the potential vanishes on the circle, so its gradient
    is purely normal there), which is far less noisy than one-sided gradients.
    """
    op0 = operator(mesh, 0.0, name="0")
    G = op0.solve_dirichlet(np.zeros(len(mesh.boundary)), source=source)
    theta = dz_field(G, mesh)
    flux = op0.weak_neumann_trace(G, source=source)
    zb = mesh.vertices[mesh.boundary]
    theta[mesh.boundary] = 0.5 * np.conj(zb) * np.exp(mesh.rho_v[mesh.boundary]) * flux
    return theta


def build_r12(mesh: Mesh, phase: HoloFunction, b: np.ndarray, chi1: Cutoff):
    """Algebraic remainders: r12 with 2i r12 dz(psi) = (1 - chi1) b exactly
    where chi1 = 0, and the global quotient r_tilde12 = b / Phi' extended
    through the critical points by Tikhonov regularization at the mesh
    scale |Phi''(p)| resolution / 2.  Returns (r12, r_tilde12)."""
    z = mesh.vertices
    dphi = phase.derivative()(z)
    c1 = chi1(z)
    tau = 0.5 * abs(phase.derivative(2)(phase.meta["p"])) * mesh.resolution
    reg = np.conj(dphi) / (np.abs(dphi) ** 2 + tau**2)
    r_tilde12 = b * reg
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(c1 < 1.0, b / dphi, 0.0)
    exact = (c1 == 0.0) & (np.abs(dphi) > tau)
    r12 = np.where(exact, quotient, (1.0 - c1) * b * reg)
    scale = np.max(np.abs(b))
    if scale > 0 and np.max(np.abs(r_tilde12)) > scale / mesh.resolution:
        raise InfeasibleDegreeError(
            "quotient b / Phi' exceeds the resolution bound near a critical "
            "point: decay of b is insufficient, increase the vanish order"
        )
    return r12, r_tilde12


def conjugated_matrix(A: sp.spmatrix, phi_vals: np.ndarray, h: float) -> sp.csr_matrix:
    """Similarity transform B = D^{-1} A D with D = diag(e^{phi/h}) of the
    assembled Delta_g + V (forward.schrodinger_matrix).

    Entries only see neighbor differences of phi, so B stays O(1) even when
    e^{phi/h} itself would overflow; solving B v = 0 with weight-free data
    reproduces the weighted solution u = D v exactly in exact arithmetic.
    """
    A = A.tocoo()
    scale = np.exp((phi_vals[A.col] - phi_vals[A.row]) / h)
    return sp.coo_matrix((A.data * scale, (A.row, A.col)), shape=A.shape).tocsr()


@dataclass(eq=False)
class CGO:
    """The h-independent ingredients of one CGO solution
    u = e^{Phi/h}(a + h a0 + r1) + r2 for one (phase, amplitude, V), with
    r1 = r11 + h r12: the potential V sampled at the mesh vertices, the
    cutoffs chi and chi1 at the phase's primary point, the potential term
    b, the algebraic remainders r12 and r_tilde12, the corrector a0, and a
    and a0 sampled at the mesh vertices (a_z, a0_z); Phi, Phi' and dz(chi)
    at the mesh vertices are sampled on first use.  Built by prepare_cgo;
    r11 comes per h list from r11_sweep, and r2 per h from
    duality_completion."""

    mesh: Mesh
    V: np.ndarray
    phase: HoloFunction
    amplitude: HoloFunction
    chi: Cutoff
    chi1: Cutoff
    b: np.ndarray
    r12: np.ndarray
    r_tilde12: np.ndarray
    a0: HoloFunction
    a_z: np.ndarray
    a0_z: np.ndarray

    @cached_property
    def phase_z(self) -> np.ndarray:
        """Phi at the mesh vertices."""
        return self.phase(self.mesh.vertices)

    @cached_property
    def dphase_z(self) -> np.ndarray:
        """Phi' at the mesh vertices."""
        return self.phase.derivative()(self.mesh.vertices)

    @cached_property
    def dchi_z(self) -> np.ndarray:
        """dz(chi) at the mesh vertices."""
        return self.chi.dz(self.mesh.vertices)

    @cached_property
    def dzbar_r12(self) -> np.ndarray:
        """dzbar(r12), an h-independent term of residual_field."""
        return dzbar_field(self.r12, self.mesh)

    @cached_property
    def dzbar_chi1b(self) -> np.ndarray:
        """dzbar(chi1 b), an h-independent term of residual_field (b != 0)."""
        return dzbar_field(self.chi1(self.mesh.vertices) * self.b, self.mesh)

    def r11_sweep(self, h_list) -> dict:
        """r11 = chi e^{-2i psi/h} R(e^{2i psi/h} chi1 b) and the cutoff error
        eta = e^{-2i psi/h} R(...) dz(chi) at each h of h_list; returns
        {h: (r11, eta, T)} with the raw transform T = R(e^{2i psi/h} chi1 b)
        (used by the termwise residual evaluator, which must never
        differentiate oscillations numerically).  When b = 0, r11 and eta
        are zero and T is None at every h.

        Every consumer multiplies R(...) by chi or dz(chi), so the transform is
        evaluated only at the vertices of supp chi and supp dz(chi); the
        returned raw transform is zero at every other vertex.

        Only the weights e^{2i psi/h} chi1 b depend on h, so the whole sweep is
        one Cauchy transform of several fields: its kernels are built once and
        each h's result equals a transform of that h alone bit for bit.  Every
        h given is transformed: the callers take h_list from resolvable_h at
        the slope phase_slope, with PHASE_PER_CELL."""
        mesh, b, chi = self.mesh, self.b, self.chi
        if len(h_list) == 0 or not np.any(np.abs(b) > 0):
            zero = np.zeros(mesh.n_vertices, dtype=complex)
            return {h: (zero, zero, None) for h in h_list}
        z = mesh.vertices
        c1 = self.chi1(z)
        psi = self.phase_z.imag
        osc = [np.exp(2j * psi / h) for h in h_list]
        c = chi(z)
        dchi = self.dchi_z
        idx = np.flatnonzero((c > 0) | (dchi != 0))
        F = np.array([osc_h * c1 * b for osc_h in osc])
        T_idx, _ = _cauchy_transform_columns(F, mesh, eval_index=idx)
        out = {}
        for h, osc_h, T_h in zip(h_list, osc, T_idx):
            T = np.zeros(mesh.n_vertices, dtype=complex)
            T[idx] = T_h
            r11_hat = np.conj(osc_h) * T
            out[h] = (c * r11_hat, r11_hat * dchi, T)
        return out

    def slow_amplitude(self, h: float, r11: Optional[np.ndarray] = None) -> np.ndarray:
        """a + h a0 at the mesh vertices, plus r1 = r11 + h r12 when the
        r11 field of r11_sweep is given."""
        A = self.a_z + h * self.a0_z
        if r11 is not None:
            A = A + (r11 + h * self.r12)
        return A


def prepare_cgo(
    mesh,
    V,
    phase,
    amplitude,
    cutoff_scale: float = 1.0,
) -> CGO:
    """The CGO of one (phase, amplitude, V): every ingredient shared across
    h, with a and a0 sampled at the mesh vertices once.  The jet form and
    a0 are fitted at the amplitude's own degree.

    The primary critical point is the phase's own meta["p"], which a mirror
    phase -Phi keeps with the rest of its meta.  The only operator
    factorized here is the V = 0 one of the Green potential, kept on the
    mesh (forward.operator).
    """
    chi, chi1 = build_cutoffs(phase, scale=cutoff_scale)
    degree = len(amplitude.coeffs) - 1
    V = as_values(V, mesh)
    a_z = amplitude(mesh.vertices)
    aV = a_z * V
    if not np.any(np.abs(aV) > 0):
        b = np.zeros(mesh.n_vertices, dtype=complex)
    else:
        theta = green_dz(mesh, aV)
        f = build_jet_form(theta, mesh, phase, degree=degree)
        b = f.derivative()(mesh.vertices) - theta
    if np.any(np.abs(b) > 0):
        r12, r_tilde12 = build_r12(mesh, phase, b, chi1)
        a0 = build_a0(r_tilde12, mesh, degree=degree)
    else:
        r12 = np.zeros(mesh.n_vertices, dtype=complex)
        r_tilde12 = np.zeros(mesh.n_vertices, dtype=complex)
        a0 = HoloFunction([0.0])
    return CGO(
        mesh=mesh,
        V=V,
        phase=phase,
        amplitude=amplitude,
        chi=chi,
        chi1=chi1,
        b=b,
        r12=r12,
        r_tilde12=r_tilde12,
        a0=a0,
        a_z=a_z,
        a0_z=a0(mesh.vertices),
    )


def residual_field(cgo: CGO, h: float, r11: np.ndarray, T: Optional[np.ndarray]) -> np.ndarray:
    """Conjugated residual e^{-Phi/h}(Delta_g + V) e^{Phi/h}(a + h a0 + r1)
    as a complex vertex field, from cgo and the (r11, T) of its r11_sweep
    at h.

    Evaluated term by term: the identity dz R f = f and the analytic phase
    derivatives absorb every e^{+-2i psi/h} factor, so only slowly varying
    fields are differentiated numerically and the evaluation is not
    contaminated by unresolved oscillation.  The two 1/h transport terms
    that cancel in exact arithmetic are dropped analytically.

    V is the cgo's own, the stiffness matrix and lumped mass are the
    mesh's, and the h-independent samples Phi, Phi' and dz(chi) and
    derivatives dzbar(r12) and dzbar(chi1 b) are the cgo's cached ones,
    taken once per CGO; nothing is factorized.
    """
    mesh = cgo.mesh
    dphi = cgo.dphase_z
    inv_metric = np.exp(-2.0 * mesh.rho_v)
    A_slow = cgo.a_z + h * cgo.a0_z + h * cgo.r12
    res = (
        cgo.V * A_slow
        + h * (mesh.stiffness @ cgo.r12) / mesh.mass
        - 4.0 * inv_metric * dphi * cgo.dzbar_r12
    )
    if T is not None:
        osc_conj = np.exp(-2j * cgo.phase_z.imag / h)
        dchi = cgo.dchi_z
        res = res - 4.0 * inv_metric * cgo.dzbar_chi1b
        res = res - 4.0 * inv_metric * osc_conj * (
            dzbar_field(dchi * T, mesh) + (np.conj(dphi) / h) * dchi * T
        )
        res = res + cgo.V * r11
    return res


def ansatz_residual(mesh: Mesh, res: np.ndarray) -> float:
    """Bulk L2 norm of a conjugated ansatz residual res (residual_field).

    A thin rim is masked because the one-sided boundary gradients of the
    slow fields are O(resolution)-noisy there.
    """
    bulk = np.abs(mesh.vertices) < 1.0 - 4.0 * mesh.resolution
    return l2_norm(np.where(bulk, res, 0.0), mesh)


def duality_completion(cgo: CGO, h: float, r11: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, float]:
    """Weighted remainder r2 realized by the minimal-norm (duality) solve.

    Finds the smallest r2 (in the lumped-mass L2 norm) with

        (Delta_g + V)(e^{phi/h} r2) = -(Delta_g + V)(ansatz)   in the interior,
        e^{phi/h} r2 = -ansatz                                  on gamma0,

    leaving the trace on gamma free; u := ansatz + e^{phi/h} r2 then vanishes
    on gamma0 and solves the equation, while its gamma trace is part of the
    produced Cauchy data rather than prescribed.  The right-hand side is
    evaluated term by term via residual_field, so it stays at the true
    remainder scale on any mesh that resolves the slow fields; the ansatz
    is cgo's at h with the r11 of its r11_sweep, and res is
    residual_field(cgo, h, r11, T), which the caller evaluates once.

    Why not a direct Dirichlet solve with the ansatz trace prescribed on
    gamma: its weighted solution operator contains
    e^{(max phi - min phi)/h}-growing modes, and the finite-element
    consistency error of the unresolved oscillation e^{Phi/h} excites them,
    burying the O(h^{3/2}|log h|) remainder once h is small.  The
    minimal-norm solution is exactly the object produced by the
    Hahn-Banach/duality argument from the Carleman estimate, which
    suppresses those modes.

    The minimal-norm r2 is M^{-1} G^T lam with S lam = rhs, S = G M^{-1} G^T
    and G the conjugated operator's interior rows and free columns.  S is
    symmetric positive definite when G has full row rank, and its pattern,
    reverse Cuthill-McKee order and lower band layout are the mesh's
    (Mesh.duality_pattern, built once per mesh).  Each h forms G's entries
    as conjugated_matrix does, (K + V M)_ij e^{(phi_j - phi_i)/h}, sums
    their products into the lower band of S and solves by banded Cholesky
    (_banded_cholesky).  Delta_g + V is never assembled whole nor inverted,
    so no Dirichlet-eigenvalue guard applies; an S that is not positive
    definite raises instead.

    Returns r2 and the relative residual |G r2 - rhs| / |rhs| of the
    constraints it solves (0 when rhs = 0).
    """
    mesh, p = cgo.mesh, cgo.mesh.duality_pattern
    mass = mesh.mass
    phi_v, psi_v = cgo.phase_z.real, cgo.phase_z.imag
    rhs_field = 2.0 * np.real(np.exp(1j * psi_v / h) * res)
    w = 2.0 * np.real(np.exp(1j * psi_v / h) * cgo.slow_amplitude(h, r11))
    # the entries of G and C, with the bits conjugated_matrix gives them
    phi_row = phi_v[p.order]
    K = mesh.stiffness.data
    G = K[p.pos]
    G[p.diag] += (cgo.V * mass)[p.order]
    G *= np.exp((phi_v[p.free][p.col] - phi_row[p.row]) / h)
    C = K[p.c_pos] * np.exp((phi_v[p.gamma0][p.c_col] - phi_row[p.c_row]) / h)
    n = len(p.order)
    r2 = np.zeros(mesh.n_vertices)
    r2[p.gamma0] = -w[p.gamma0]
    rhs = -(mass * rhs_field)[p.order] - np.bincount(p.c_row, C * r2[p.gamma0][p.c_col], minlength=n)
    m = mass[p.free]
    lam = _banded_cholesky(p.lower_band(G, m), rhs, h)
    # r2 = M^{-1} G^T lam on the free vertices
    r2[p.free] = np.bincount(p.col, G * lam[p.row], minlength=len(p.free)) / m
    Gr2 = np.bincount(p.row, G * r2[p.free][p.col], minlength=n)
    residual = np.linalg.norm(Gr2 - rhs) / max(np.linalg.norm(rhs), np.finfo(float).tiny)
    return r2, float(residual)


def _banded_cholesky(band: np.ndarray, rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve the duality normal equations S x = rhs at h from the lower
    band of S (DualityPattern.lower_band), which is overwritten.

    The reverse Cuthill-McKee order (Cuthill & McKee 1969) packs S's 2-ring
    stencil into a narrow band, which LAPACK's dpbsv (dpbtrf, then dpbtrs)
    factors and solves in about half the time of a sparse LU and in less
    memory; the lower form runs faster than the upper one.  A
    non-positive-definite S raises RuntimeError naming h and the failing
    leading minor (counted in that order).
    """
    try:
        return solveh_banded(band, rhs, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise RuntimeError(
            f"duality normal equations at h = {h} are not positive definite: "
            f"{exc} (reverse Cuthill-McKee order)"
        ) from exc


def _fit_exponent(h_list, norms, log_corrected=False):
    h = np.asarray(h_list, dtype=float)
    n = np.maximum(np.asarray(norms, dtype=float), 1e-300)
    y = np.log(n)
    if log_corrected:
        y = y - np.log(np.abs(np.log(h)))
    slope, intercept = np.polyfit(np.log(h), y, 1)
    resid = y - (slope * np.log(h) + intercept)
    dof = max(len(h) - 2, 1)
    band = 2.0 * float(np.sqrt(np.sum(resid**2) / dof / np.sum((np.log(h) - np.mean(np.log(h))) ** 2)))
    return float(slope), band


def residual_scaling_report(
    mesh: Mesh,
    V,
    phase: HoloFunction,
    amplitude: HoloFunction,
    h_list,
    cutoff_scale: float = 1.0,
) -> dict:
    """Measure every remainder norm across an h sweep and fit the scaling
    exponents; at least 4 usable h values are required for a fit.

    The h the mesh resolves come from resolvable_h at the slope
    phase_slope with PHASE_PER_CELL, and an h it refuses is skipped with
    its reason.  The CGO comes from prepare_cgo and the r11 of every kept h
    from its one r11_sweep, so the sweep's Cauchy transforms share their
    kernels.  Each h evaluates residual_field once, for both its duality
    completion and its ansatz residual.  r2 is the minimal-norm remainder
    of duality_completion, whose relative residual at each h is recorded
    under duality_residual, beside the norms: no exponent is fitted to it.

    Delta_g + V is never factorized, so the sweep runs no
    Dirichlet-eigenvalue guard for V: the duality solve does not invert
    Delta_g + V, and fails loudly instead when its normal equations are not
    positive definite."""
    used_h, skipped, _ = resolvable_h(mesh, h_list, phase_slope(mesh, phase, cutoff_scale), PHASE_PER_CELL)
    if len(used_h) < 4:
        msg = f"need at least 4 usable h values for exponent fits, got {len(used_h)}"
        raise ConfigurationError("; ".join([msg] + [s["reason"] for s in skipped]))
    cgo = prepare_cgo(mesh, V, phase, amplitude, cutoff_scale=cutoff_scale)
    rows = []
    duality_residual = []
    for h, (r11, eta, T) in cgo.r11_sweep(used_h).items():
        res = residual_field(cgo, h, r11, T)
        r2, residual = duality_completion(cgo, h, r11, res)
        duality_residual.append(residual)
        r1 = r11 + h * cgo.r12
        rows.append(
            {
                "h": h,
                "r1_l2": l2_norm(r1, mesh),
                "r11_l2": l2_norm(r11, mesh),
                "r1_minus_hr12t_l2": l2_norm(r1 - h * cgo.r_tilde12, mesh),
                "eta_l2": l2_norm(eta, mesh),
                "eta_h1": h1_norm(eta, mesh),
                "r2_l2": l2_norm(r2, mesh),
                "ansatz_residual_l2": ansatz_residual(mesh, res),
            }
        )
    norms = {k: [r[k] for r in rows] for k in rows[0] if k != "h"}
    algebraic = ("r1_l2", "r11_l2", "r1_minus_hr12t_l2", "eta_l2", "eta_h1")
    trivial = all(max(norms[k]) < 1e-10 for k in algebraic)
    exponents = {}
    if trivial:
        exponents = {k: {"exponent": None, "band": None, "exact_zero": True} for k in norms}
    else:
        log_corrected = ("eta_h1", "r2_l2", "ansatz_residual_l2")
        for k in norms:
            slope, band = _fit_exponent(used_h, norms[k], log_corrected=k in log_corrected)
            exponents[k] = {"exponent": slope, "band": band, "exact_zero": False}
    return {
        "h_list": used_h,
        "cutoff_scale": cutoff_scale,
        "skipped": skipped,
        "norms": rows,
        "duality_residual": duality_residual,
        "exponents": exponents,
    }
