"""Numerical probing of the semiclassical Carleman inequality.

The weight is the real part of a holomorphic Morse phase, convexified by
harmonic auxiliaries: phi_eps = phi - (h/2 eps) sum_j |phi_j|^2.  Because
each phi_j is harmonic, the metric Laplacian of phi_eps is exactly
(h/eps) sum_j |d phi_j|^2, which is kept uniformly positive by choosing one
auxiliary per critical point of phi.  The inequality itself is tested as a
lower bound on the ratio rhs/lhs over seeded families of test functions
vanishing on the boundary; the measured minimum is frozen as a regression
constant, never derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import schrodinger_matrix
from .geometry import ConfigurationError, Mesh, as_values, boundary_integral
from .holo import HoloFunction, InfeasibleDegreeError, build_auxiliaries
from .cgo import WEIGHT_PER_CELL, conjugated_matrix, resolvable_h

EPSILON_H_FACTOR = 5.0


@dataclass
class CarlemanWeight:
    """Convexified Carleman weight phi_eps = phi - (h/2 eps) sum |phi_j|^2.

    phi = Re(phase) is the harmonic Morse weight; the auxiliaries g_j are
    holomorphic with phi_j = Im(g_j), normal derivative vanishing on gamma0,
    and d phi_j nonzero at the j-th critical point of phi, so that
    sum_j |d phi_j|^2 stays uniformly positive on the closed disk.
    phi_0 = phi itself is always part of the sum.
    """

    phase: HoloFunction
    auxiliaries: list
    epsilon: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")

    def phi_values(self, z) -> list:
        """[phi_0, phi_1, ...] sampled at z."""
        return [np.real(self.phase(z))] + [np.imag(g(z)) for g in self.auxiliaries]

    def gradient_sq(self, z) -> np.ndarray:
        """Euclidean sum_j |grad phi_j|^2 (harmonic conjugates make this
        exactly sum |derivative|^2)."""
        out = np.abs(self.phase.derivative()(z)) ** 2
        for g in self.auxiliaries:
            out = out + np.abs(g.derivative()(z)) ** 2
        return out


def build_carleman_weight(
    mesh: Mesh,
    phase: HoloFunction,
    epsilon: float,
    degree: int = 16,
) -> CarlemanWeight:
    """Assemble the convexified weight, with auxiliaries for the gamma0 of
    mesh.domain (holo.build_auxiliaries), and record the positivity margin
    of sum_j |d phi_j|^2, measured at the mesh vertices."""
    aux = build_auxiliaries(mesh.domain, phase, degree)
    w = CarlemanWeight(phase, aux, epsilon)
    w.meta["gradient_sq_min"] = float(np.min(w.gradient_sq(mesh.vertices)))
    if w.meta["gradient_sq_min"] <= 0:
        raise InfeasibleDegreeError("sum |d phi_j|^2 not uniformly positive")
    return w


def convexify_weight(weight: CarlemanWeight, mesh: Mesh, h: float) -> np.ndarray:
    """phi_eps = phi - (h/2 eps) sum_j |phi_j|^2 sampled on the mesh; the one
    judge of the estimate's window 0 < h <= epsilon/EPSILON_H_FACTOR."""
    if h <= 0:
        raise ConfigurationError(f"h = {h} must be positive")
    if h > weight.epsilon / EPSILON_H_FACTOR:
        raise ConfigurationError(
            f"h = {h} too large for epsilon = {weight.epsilon}: "
            f"the convexified estimate needs h <= epsilon/{EPSILON_H_FACTOR:g}"
        )
    values = weight.phi_values(mesh.vertices)
    sq = sum(p**2 for p in values)
    return values[0] - (h / (2.0 * weight.epsilon)) * sq


def convexity_check(weight: CarlemanWeight, mesh: Mesh, h: float) -> float:
    """Relative bulk error of the discrete metric Laplacian of phi_eps at h
    against the exact identity (h/eps) e^{-2 rho} sum_j |grad phi_j|^2."""
    lap = (mesh.stiffness @ convexify_weight(weight, mesh, h)) / mesh.mass
    z = mesh.vertices
    exact = (h / weight.epsilon) * np.exp(-2.0 * mesh.rho_v) * weight.gradient_sq(z)
    bulk = np.abs(z) < 1.0 - 2.0 * mesh.resolution
    num = np.sqrt(np.sum(mesh.vertex_areas[bulk] * (lap - exact)[bulk] ** 2))
    den = np.sqrt(np.sum(mesh.vertex_areas[bulk] * exact[bulk] ** 2))
    return float(num / max(den, 1e-300))


def _metric_dphi_sq(mesh: Mesh, dphi: np.ndarray) -> np.ndarray:
    """Metric |d phi|^2 of the unconvexified weight from phase' at the vertices."""
    return np.exp(-2.0 * mesh.rho_v) * np.abs(dphi) ** 2


def _fixed_terms(mesh: Mesh, dphi_sq, u) -> tuple:
    """Check one test function and collect the h-independent parts of both
    sides: (u, ||u||^2, ||u |d phi|||^2, ||du||^2, ||d_nu u||^2_{gamma0},
    ||d_nu u||^2_{gamma})."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ConfigurationError("test function must be a vertex field")
    if np.any(u[mesh.boundary] != 0.0):
        raise ConfigurationError("test function must vanish on the boundary")
    if not np.any(u != 0.0):
        raise ConfigurationError("test function is identically zero; ratio undefined")
    norm_u = float(np.sum(mesh.mass * u**2))
    norm_udphi = float(np.sum(mesh.mass * dphi_sq * u**2))
    Ku = mesh.stiffness @ u
    dirichlet = float(u @ Ku)
    flux = Ku[mesh.boundary] / mesh.boundary_weights
    flux_g0 = boundary_integral(flux**2, mesh, "gamma0")
    flux_g = boundary_integral(flux**2, mesh, "gamma")
    return u, norm_u, norm_udphi, dirichlet, flux_g0, flux_g


def _ratio_terms(mesh: Mesh, B, h: float, fixed: tuple) -> tuple:
    """(lhs, rhs, rhs/lhs) at h from _fixed_terms and the conjugated matrix
    B at h; only B u is computed here."""
    u, norm_u, norm_udphi, dirichlet, flux_g0, flux_g = fixed
    mass = mesh.mass
    lhs = norm_u / h + norm_udphi / h**2 + dirichlet + flux_g0
    conj_residual = np.asarray(B @ u)[mesh.interior] / mass[mesh.interior]
    rhs = float(np.sum(mass[mesh.interior] * conj_residual**2)) + flux_g / h
    return lhs, rhs, rhs / lhs


def carleman_ratio(mesh: Mesh, weight: CarlemanWeight, V, u, h: float) -> tuple:
    """Both sides of the Carleman inequality for one test function at h.

    lhs = (1/h)||u||^2 + (1/h^2)||u |d phi|||^2 + ||du||^2 + ||d_nu u||^2_{gamma0}
    rhs = ||e^{-phi_eps/h}(Delta_g+V) e^{phi_eps/h} u||^2 + (1/h)||d_nu u||^2_{gamma}

    u must vanish on every boundary vertex; returns (lhs, rhs, rhs/lhs).
    Only the assembled operator is needed: nothing is factorized.
    """
    dphi_sq = _metric_dphi_sq(mesh, weight.phase.derivative()(mesh.vertices))
    fixed = _fixed_terms(mesh, dphi_sq, u)
    B = conjugated_matrix(schrodinger_matrix(mesh, V), convexify_weight(weight, mesh, h), h)
    return _ratio_terms(mesh, B, h, fixed)


def sample_test_functions(mesh: Mesh, count: int, seed: int = 0) -> list:
    """Seeded smooth test functions vanishing on the boundary: products of a
    radial factor (1-r^2), an off-center Gaussian bump, and a low-order
    Fourier mode."""
    if count <= 0:
        raise ConfigurationError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    z = mesh.vertices
    r = np.abs(z)
    theta = np.angle(z)
    out = []
    for _ in range(count):
        c = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        width = rng.uniform(0.15, 0.6)
        m = rng.integers(0, 5)
        beta = 2.0 * np.pi * rng.uniform()
        u = (1.0 - r**2) * np.exp(-np.abs(z - c) ** 2 / width**2) * np.cos(m * theta + beta)
        u[mesh.boundary] = 0.0
        out.append(u)
    return out


def carleman_sweep(
    mesh: Mesh,
    weight: CarlemanWeight,
    V,
    h_list,
    sample_count: int = 50,
    seed: int = 0,
) -> dict:
    """Minimum Carleman ratio over seeded test functions and an h sweep.

    An h beyond the epsilon constraint (judged first, by convexify_weight)
    and an h the mesh cannot resolve are skipped, each recorded once in the
    report's "skipped" list with its reason.  The h are walked in
    cgo.resolvable_h's order (kept, then refused), and resolvable means
    cgo.resolvable_h at the slope max|Phi'| over the mesh with
    WEIGHT_PER_CELL: the weight phi/h may change by 2 per cell, since the
    conjugation by the real e^{phi/h} has no oscillation to follow.  PASS
    means every surviving minimum is positive and the min-ratio trend does
    not head to zero as h decreases.  The report's "rows" are (h,
    sample_id, lhs, rhs, ratio) tuples in sweep order.

    The stiffness matrix and lumped mass are the mesh's, shared with
    convexity_check.  The h-independent work is done once: the operator is
    assembled (not factorized) once, phase' is sampled once, and each test
    function's norms, Dirichlet energy and boundary fluxes are computed
    once; each (h, test function) pair then costs one product with the
    conjugated matrix of that h.
    """
    samples = sample_test_functions(mesh, sample_count, seed)
    dphi = weight.phase.derivative()(mesh.vertices)
    kept, refused, _ = resolvable_h(mesh, h_list, float(np.max(np.abs(dphi))), WEIGHT_PER_CELL)
    V_values = as_values(V, mesh)
    A = schrodinger_matrix(mesh, V_values)
    dphi_sq = _metric_dphi_sq(mesh, dphi)
    fixed = [_fixed_terms(mesh, dphi_sq, u) for u in samples]
    rows = []
    minima = {}
    skipped = []
    for h, refusal in [(h, None) for h in kept] + [(r["h"], r) for r in refused]:
        try:
            phi_eps = convexify_weight(weight, mesh, h)
        except ConfigurationError as exc:
            skipped.append({"h": h, "reason": str(exc)})
            continue
        if refusal is not None:
            skipped.append(refusal)
            continue
        B = conjugated_matrix(A, phi_eps, h)
        best = np.inf
        for sid, terms in enumerate(fixed):
            lhs, rhs, ratio = _ratio_terms(mesh, B, h, terms)
            rows.append((h, sid, lhs, rhs, ratio))
            best = min(best, ratio)
        minima[h] = best
    if not minima:
        msg = "no h in the list was usable for the Carleman sweep"
        raise ConfigurationError("; ".join([msg] + [s["reason"] for s in skipped]))
    hs = np.array(sorted(minima, reverse=True))
    mins = np.array([minima[h] for h in hs])
    c_star = float(np.min(mins))
    if len(hs) >= 2:
        slope, intercept = np.polyfit(hs, mins, 1)
        # ratio shrinking as h decreases = positive slope; flag only when the
        # extrapolated small-h value would cross zero
        trending_to_zero = bool(slope > 0 and intercept <= 0)
    else:
        slope, trending_to_zero = 0.0, False
    v_inf = float(np.max(np.abs(V_values)))
    return {
        "c_star": c_star,
        "min_ratio_per_h": {repr(float(h)): float(minima[h]) for h in hs},
        "slope_min_ratio_vs_h": float(slope),
        "trending_to_zero": trending_to_zero,
        "pass": bool(c_star > 0 and not trending_to_zero),
        "sample_count": sample_count,
        "seed": seed,
        "epsilon": weight.epsilon,
        "v_inf": v_inf,
        "skipped": skipped,
        "rows": rows,
    }
