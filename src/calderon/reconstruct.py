"""Recovery of a potential difference at interior and boundary points.

Interior points: pair a CGO solution for (V1, phase Phi) against one for
(V2, phase -Phi) through the interior identity
S(h) = integral of u1 (V1 - V2) u2 dv_g, evaluated on the CGO
approximations with the true V1 - V2.  For exact solutions the Green
identity equates S(h) with the boundary pairing of their Cauchy data; this
route reads no boundary data.  Stationary phase at the Morse critical point p makes its
oscillatory part h * C_p * cos(2 psi(p)/h) * (V1-V2)(p) |a(p)|^2
e^{2 rho(p)}.  A three-parameter least-squares fit in h extracts that
coefficient.

Accessible arc: concentrating solutions eta(x/sqrt(h)) e^{(+-ix - y)/h} in
boundary coordinates (x along the arc, y inward) with conjugate null
exponents, so the product's modulus is e^{-2y/h}; the pairing then obeys the
h^{3/2} law with a constant calibrated once on a known scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import boundary_pairing, operator
from .geometry import ConfigurationError, Mesh, bump
from .holo import HoloFunction
from . import cgo as _cgo

MIN_PERIODS = 2.0

# difference_map scales psi to put a point's floor at this fraction of the
# smallest h: the floor grows with psi, but a rebuilt phase is a new fit,
# not an exact rescaling, so the margin keeps its floor below that h
PSI_MARGIN = 0.98

# fitted boundary exponents in this window show the h^{3/2} regime is reached
BOUNDARY_EXPONENT_WINDOW = (1.35, 1.65)

# width of the unit-value bump that calibrate_boundary_constant sweeps
CALIBRATION_WIDTH = 0.8


class ReconstructionError(RuntimeError):
    """The extraction could not be performed reliably."""


@dataclass
class StationaryPhaseModel:
    """Leading stationary-phase data of a holomorphic Morse phase at its
    primary critical point p."""

    C_p: float
    psi_p: float
    a_p: complex
    hess_abs: float
    rho_p: float = 0.0

    def __post_init__(self):
        if self.C_p <= 0:
            raise ReconstructionError("stationary-phase constant must be positive")
        if self.psi_p == 0:
            raise ReconstructionError("Im Phi(p) must be nonzero for the sequence trick")
        if self.a_p == 0:
            raise ReconstructionError("amplitude must not vanish at p")


def stationary_phase_constant(phase: HoloFunction, amplitude: HoloFunction, rho_p: float = 0.0) -> StationaryPhaseModel:
    """C_p = 2 pi / |Phi''(p)| at the phase's primary critical point
    p = meta["p"].

    det Hess psi(p) = -|Phi''(p)|^2 with signature 0 for a holomorphic Morse
    phase, so the stationary-phase factor is 2 pi h / (2 |Phi''(p)|) with no
    extra phase; verified against an oscillatory-quadrature oracle in tests.
    Whether p is a nondegenerate critical point is judged by the phase's
    critical-point report alone (meta["critical_points"].primary(p)).
    """
    p = phase.meta["p"]
    q = phase.meta["critical_points"].primary(p)
    if q is None:
        raise ReconstructionError(f"p = {p:.4f} is not among the phase's critical points")
    if q.degenerate:
        raise ReconstructionError(f"critical point at {p:.4f} is degenerate")
    d2 = phase.derivative(2)(p)
    return StationaryPhaseModel(
        C_p=2.0 * np.pi / abs(d2),
        psi_p=float(np.imag(phase(p))),
        a_p=complex(amplitude(p)),
        hess_abs=float(abs(d2)),
        rho_p=float(rho_p),
    )


def fit_pairing_model(h_list, S_values, psi_p: float) -> dict:
    """Least squares of S(h) ~ A + B h + C h cos(2 psi_p / h).

    Raises unless the h range spans at least MIN_PERIODS periods of the
    oscillation factor and the design matrix is well conditioned.
    """
    h = np.asarray(h_list, dtype=float)
    S = np.asarray(S_values, dtype=float)
    if len(h) < 4:
        raise ReconstructionError("need at least 4 h values for the three-parameter fit")
    span = 2.0 * abs(psi_p) * (1.0 / h.min() - 1.0 / h.max()) / (2.0 * np.pi)
    if span < MIN_PERIODS:
        raise ReconstructionError(
            f"h list spans only {span:.2f} periods of 2 psi(p)/h; "
            f"need >= {MIN_PERIODS:g} (extend the h range or increase psi(p))"
        )
    M = np.stack([np.ones_like(h), h, h * np.cos(2.0 * psi_p / h)], axis=1)
    sv = np.linalg.svd(M, compute_uv=False)
    cond = sv[0] / max(sv[-1], 1e-300)
    if cond > 1e8:
        raise ReconstructionError(
            f"fit design matrix ill conditioned (cond = {cond:.1e}); "
            "the oscillation factor is nearly constant over the h list"
        )
    coef, *_ = np.linalg.lstsq(M, S, rcond=None)
    resid = float(np.linalg.norm(M @ coef - S))
    return {"A": float(coef[0]), "B": float(coef[1]), "C": float(coef[2]), "residual": resid, "cond": float(cond)}


def cgo_pairings(
    mesh: Mesh,
    V1,
    V2,
    phase: HoloFunction,
    amplitude: HoloFunction,
    h_list,
    include_r1: bool = True,
) -> list:
    """S(h) for opposite-phase CGO pairs, each built with its scenario's own
    potential.

    S(h) is the interior identity integral of u1 (V1 - V2) u2 dv_g,
    evaluated directly on the CGO approximations with the true V1 - V2 (the
    two e^{+-phi/h} weights cancel pointwise); no boundary data is read.
    Each side is one CGO of cgo.prepare_cgo, whose slow_amplitude gives
    a + h a0, plus r1 when include_r1 is set; then each CGO's r11 fields
    for the whole h list come from one r11_sweep.  The mirror phase -Phi
    copies the phase's meta, so both sides share its primary point.
    """
    mirror = HoloFunction(-np.asarray(phase.coeffs), meta=dict(phase.meta))
    cgo1 = _cgo.prepare_cgo(mesh, V1, phase, amplitude)
    cgo2 = _cgo.prepare_cgo(mesh, V2, mirror, amplitude)
    dV = cgo1.V - cgo2.V
    psi = np.imag(phase(mesh.vertices))
    r11_1, r11_2 = (
        {h: fields[0] for h, fields in cgo.r11_sweep(h_list).items()} if include_r1 else {}
        for cgo in (cgo1, cgo2)
    )
    out = []
    for h in h_list:
        A1 = cgo1.slow_amplitude(h, r11_1.get(h))
        A2 = cgo2.slow_amplitude(h, r11_2.get(h))
        osc = np.exp(1j * psi / h)
        u1w = osc * A1
        u2w = np.conj(osc) * A2
        u1w = u1w + np.conj(u1w)
        u2w = u2w + np.conj(u2w)
        out.append(complex(np.sum(mesh.mass * dV * u1w * u2w)))
    return out


def pointwise_difference(
    mesh: Mesh,
    V1,
    V2,
    phase: HoloFunction,
    amplitude: HoloFunction,
    h_list,
    mode: str = "fit",
    include_r1: bool = True,
) -> dict:
    """Estimate (V1 - V2)(p) from the interior identity S(h) of
    opposite-phase CGO pairs (see cgo_pairings).

    p is the phase's primary critical point meta["p"]; mesh.domain gives
    rho(p).  mode="fit" does the three-parameter least squares over h_list;
    mode="subsequence" reproduces the two-sequence trick, generating its own
    h values with cos(2 psi(p)/h) = +1 and -1 inside [min(h_list), max(h_list)]
    and differencing the fitted h-slopes.
    With or without r1, an h the mesh cannot resolve for e^{2i psi/h}
    (cgo.resolvable_h at cgo.phase_slope) raises ResolvabilityError.
    """
    p = phase.meta["p"]
    model = stationary_phase_constant(phase, amplitude, rho_p=float(mesh.domain.rho(np.array([p]))[0]))
    scale = model.C_p * abs(model.a_p) ** 2 * np.exp(2.0 * model.rho_p)
    h_list, refused, _ = _cgo.resolvable_h(mesh, h_list, _cgo.phase_slope(mesh, phase), _cgo.PHASE_PER_CELL)
    if refused:
        raise _cgo.ResolvabilityError("; ".join(r["reason"] for r in refused))
    if mode == "fit":
        S = cgo_pairings(mesh, V1, V2, phase, amplitude, h_list, include_r1)
        fit = fit_pairing_model(h_list, np.real(S), model.psi_p)
        D = fit["C"] / scale
    elif mode == "subsequence":
        h_lo, h_hi = min(h_list), max(h_list)
        plus = [model.psi_p / (np.pi * j) for j in range(1, 200)]
        minus = [2.0 * model.psi_p / (np.pi * (2 * j + 1)) for j in range(0, 200)]
        plus = [h for h in plus if h_lo <= h <= h_hi]
        minus = [h for h in minus if h_lo <= h <= h_hi]
        if len(plus) < 2 or len(minus) < 2:
            raise ReconstructionError(
                "h range admits fewer than two members of a cos = +-1 subsequence; "
                "extend the h range or increase psi(p)"
            )
        S = np.real(cgo_pairings(mesh, V1, V2, phase, amplitude, plus + minus, include_r1))
        Sp, Sm = S[: len(plus)], S[len(plus) :]
        bp = np.polyfit(plus, Sp, 1)[0]
        bm = np.polyfit(minus, Sm, 1)[0]
        D = (bp - bm) / (2.0 * scale)
        fit = {"slope_plus": float(bp), "slope_minus": float(bm)}
    else:
        raise ConfigurationError(f"unknown extraction mode {mode!r}")
    return {"D": float(D), "model": model, "fit": fit}


def make_grid(n: int, radius: float) -> np.ndarray:
    """Square lattice of interior points within the given radius."""
    xs = np.linspace(-radius, radius, n)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    return pts[np.abs(pts) <= radius + 1e-12]


def difference_map(
    mesh: Mesh,
    V1,
    V2,
    points,
    h_list,
    basis,
) -> dict:
    """pointwise_difference over a grid, pairing at each point p the
    (phase, amplitude) of basis(p); individual failures, those of basis
    included, are recorded, not fatal.  Returns {"rows": one dict (x, y,
    D, fit_residual, abs_a_p, C_p, psi_p) per recovered point, "failures":
    one dict (x, y, error) per failed point}.  The pairings leave out r1:
    its transform costs one singular quadrature per (point, h) and moves D
    by O(h).

    psi is chosen per point: basis(p, scale) scales the psi target (default
    1), and where the floor of basis(p) (cgo.resolvable_h) lies above the
    smallest h, the phase is rebuilt at scale PSI_MARGIN * min(h) / floor.
    It still passes pointwise_difference's guard; a point that stays
    unresolvable, or spans fewer than MIN_PERIODS periods, is a failure."""
    rows = []
    failures = []
    for p in points:
        p = complex(p)
        try:
            phase, amplitude = basis(p)
            _, refused, floor = _cgo.resolvable_h(mesh, h_list, _cgo.phase_slope(mesh, phase), _cgo.PHASE_PER_CELL)
            if refused:
                phase, amplitude = basis(p, scale=PSI_MARGIN * min(h_list) / floor)
            est = pointwise_difference(mesh, V1, V2, phase, amplitude, h_list, include_r1=False)
            m = est["model"]
            rows.append(
                {
                    "x": p.real, "y": p.imag, "D": est["D"],
                    "fit_residual": est["fit"].get("residual", float("nan")),
                    "abs_a_p": abs(m.a_p), "C_p": m.C_p, "psi_p": m.psi_p,
                }
            )
        except (RuntimeError, ConfigurationError) as exc:
            failures.append({"x": p.real, "y": p.imag, "error": f"{type(exc).__name__}: {exc}"})
    return {"rows": rows, "failures": failures}


def _concentrating_trace(mesh: Mesh, theta_p: float, h: float, sign: float) -> np.ndarray:
    """Trace eta(x / sqrt(h)) e^{sign * i x / h} at the gamma vertices, with
    x the (wrapped) boundary arclength from the concentration point."""
    theta = mesh.boundary_theta()[~mesh.boundary_is_gamma0]
    x = np.angle(np.exp(1j * (theta - theta_p)))
    return bump(x / np.sqrt(h)) * np.exp(sign * 1j * x / h)


def boundary_pairing_sweep(
    mesh: Mesh,
    V1,
    V2,
    theta_p: float,
    h_list,
) -> list:
    """|S(h)| for concentrating-solution pairs at a boundary point of gamma.

    u1 uses the null exponent alpha = (i, -1) (trace eta e^{ix/h}); u2 the
    conjugate exponent (-i, -1), so u1 u2 has modulus e^{-2y/h} and the
    pairing scales like h^{3/2}.  The h come from cgo.resolvable_h at slope
    2, that of the exponent -2y/h, with PHASE_PER_CELL; a refused h raises
    ReconstructionError naming it.  Both are exact discrete solves with
    Dirichlet data supported in gamma; each operator solves the traces of
    every h as one block, so a sweep makes two passes over LU factors
    whatever the length of h_list.
    """
    h_arr, refused, _ = _cgo.resolvable_h(mesh, h_list, 2.0, _cgo.PHASE_PER_CELL)
    if refused:
        raise ReconstructionError("; ".join(r["reason"] for r in refused))
    if mesh.domain.on_gamma0(theta_p):
        a, b = mesh.domain.gamma0
        raise ReconstructionError(f"theta = {theta_p:.3f} lies on gamma0 = [{a:.3f}, {b:.3f}], not on gamma")
    margin = mesh.domain.gamma0_margin(theta_p)
    if np.sqrt(max(h_arr)) > margin:
        raise ReconstructionError(
            f"concentration width sqrt(h) = {np.sqrt(max(h_arr)):.3f} exceeds the "
            f"distance {margin:.3f} from theta = {theta_p:.3f} to the end of gamma"
        )
    op1 = operator(mesh, V1, name="V1")
    op2 = operator(mesh, V2, name="V2")
    on_gamma = ~mesh.boundary_is_gamma0
    traces = []
    for op, sign in ((op1, +1.0), (op2, -1.0)):
        g = np.zeros((len(mesh.boundary), len(h_arr)), dtype=complex)
        for k, h in enumerate(h_arr):
            g[on_gamma, k] = _concentrating_trace(mesh, theta_p, h, sign)
        traces.append((g, op.weak_neumann_trace(op.solve_dirichlet(g))))
    (f1, dn1), (f2, dn2) = traces
    return [
        (h, complex(boundary_pairing(mesh, (f1[:, k], dn1[:, k]), (f2[:, k], dn2[:, k]))))
        for k, h in enumerate(h_arr)
    ]


def fit_boundary_law(pairings) -> tuple:
    """Fit |S(h)| = C h^e; returns (C, e)."""
    h = np.array([x[0] for x in pairings], dtype=float)
    s = np.array([abs(x[1]) for x in pairings], dtype=float)
    if np.any(s <= 0):
        return 0.0, float("nan")
    e, logc = np.polyfit(np.log(h), np.log(s), 1)
    return float(np.exp(logc)), float(e)


def _check_boundary_exponent(e: float, fit: str) -> None:
    """Raise unless the exponent e of a fit ("calibration" or "fitted") lies
    in BOUNDARY_EXPONENT_WINDOW, i.e. the h^{3/2} regime is reached."""
    lo, hi = BOUNDARY_EXPONENT_WINDOW
    if not (lo <= e <= hi):
        raise ReconstructionError(
            f"{fit} exponent {e:.3f} outside [{lo}, {hi}]: concentration regime "
            "not reached; use smaller h or a finer mesh"
        )


def calibrate_boundary_constant(
    mesh: Mesh,
    theta_p: float,
    h_list,
) -> float:
    """Prefactor of the h^{3/2} law on the known scenario V1 - V2 = bump of
    value 1 at the boundary point; used to convert fitted prefactors into
    potential values.  The h^{3/2} regime needs sqrt(h) well below the
    potential's variation scale, hence the wide bump (CALIBRATION_WIDTH)."""
    p = np.exp(1j * theta_p)
    V1 = lambda z: np.exp(-np.abs(z - p) ** 2 / CALIBRATION_WIDTH**2)
    pairs = boundary_pairing_sweep(mesh, V1, 0.0, theta_p, h_list)
    C, e = fit_boundary_law(pairs)
    _check_boundary_exponent(e, "calibration")
    return C


def boundary_scan(
    mesh: Mesh,
    V1,
    V2,
    theta_list,
    h_list,
    calibration: float,
) -> dict:
    """Estimate (V1 - V2) at the boundary points e^{i theta} of gamma, one
    per theta of theta_list.  Returns {"rows": one dict (theta, D,
    fitted_exponent, below_noise_floor) per recovered point, "failures":
    one dict (theta, error) per failed point}.

    Each point fits the h^{3/2} law to its boundary_pairing_sweep: D takes
    its sign from the real part of the pairings, and the fitted exponent
    must lie in BOUNDARY_EXPONENT_WINDOW.  A pairing at the noise floor
    gives D = 0 unfitted.  `calibration` is the prefactor measured once on
    a unit-value scenario via calibrate_boundary_constant.
    """
    rows = []
    failures = []
    for theta in map(float, theta_list):
        try:
            pairs = boundary_pairing_sweep(mesh, V1, V2, theta, h_list)
            C, e = fit_boundary_law(pairs)
            h_min, s_min = min(pairs, key=lambda x: x[0])
            # pairing at the noise floor: the potentials agree near the point
            below = abs(s_min) <= 0.05 * calibration * h_min**1.5
            if below:
                D = 0.0
            else:
                _check_boundary_exponent(e, "fitted")
                sign = np.sign(np.mean([x[1].real for x in pairs]))
                D = float(sign * C / calibration)
            rows.append({"theta": theta, "D": D, "fitted_exponent": e, "below_noise_floor": below})
        except ReconstructionError as exc:
            failures.append({"theta": theta, "error": str(exc)})
    return {"rows": rows, "failures": failures}
