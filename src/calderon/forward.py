"""P1 finite-element Schrodinger solves and boundary traces on the disk.

The weak form of the positive Laplacian is conformally invariant in 2D, so
the stiffness matrix is the plain Euclidean one; the metric enters only
through the (lumped) mass weights e^{2*rho}.  Both belong to the mesh
(Mesh.stiffness, Mesh.mass), and operator() factorizes Delta_g + V once per
(mesh, potential), its interior block in the nested-dissection order the
mesh computes once (Mesh.interior_order).  Neumann traces are recovered
from the weak residual (boundary flux recovery), which keeps the Green
identity between boundary pairings and interior integrals tight.

Solves and traces take one datum of shape (n_b,) or a block of shape (n_b, k);
a block's real and imaginary columns go into one SuperLU call, so it streams
the LU factors once instead of twice per complex datum.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Mesh, as_values, boundary_integral


class DirichletEigenvalueError(RuntimeError):
    """The discrete operator Delta_g + V is (near-)singular."""


def schrodinger_matrix(mesh: Mesh, V) -> sp.csc_matrix:
    """A = K + diag(V * mass) (CSC) of Delta_g + V from the mesh's stiffness
    matrix and lumped mass; nothing is factorized."""
    return (mesh.stiffness + sp.diags(as_values(V, mesh) * mesh.mass)).tocsc()


# The interior block A_ii, the one matrix this package factorizes by sparse
# LU, is assembled with its rows and columns already in the mesh's
# nested-dissection order, so SuperLU keeps that column order and prefers
# diagonal pivots on its symmetric pattern.  The pivot threshold keeps its
# default: partial pivoting stays on, so an indefinite Delta_g + V is still
# safe.
SYMMETRIC_LU = {"permc_spec": "NATURAL", "options": {"SymmetricMode": True}}
# seed of the random start columns of the condition estimate, and the
# estimate above which Delta_g + V counts as near-singular
CONDITION_SEED = 0
CONDITION_LIMIT = 1e12


class SchrodingerOperator:
    """Assembled (Delta_g + V) with a factorized interior block.

    int_idx lists the interior vertices in the mesh's nested-dissection
    order (Mesh.interior_order), and A_ii and A_ib take their rows in that
    order, so the interior block is factorized once, as SYMMETRIC_LU says,
    with no ordering of its own; condition_estimate keeps the 1-norm
    condition estimate that guards against a near-Dirichlet eigenvalue.  The
    factorization is immutable; solves with many right-hand sides can share
    one instance, and operator() keeps one instance per potential on the mesh.

    The mesh keeps its operators (Mesh.operators), so an operator holds only
    the mesh arrays it reads plus a weak reference to the mesh itself: a
    strong one would make a cycle that keeps a dropped mesh's LU factors
    alive until the cyclic garbage collector runs.
    """

    def __init__(self, mesh: Mesh, V=0.0, name: str = "V"):
        self._mesh = weakref.ref(mesh)
        self.name = name
        self.V = as_values(V, mesh)
        self.mass = mesh.mass
        self.boundary_weights = mesh.boundary_weights
        self.A = schrodinger_matrix(mesh, self.V)
        ii = self.int_idx = mesh.interior_order
        self.bnd_idx = mesh.boundary
        A_ii = self.A[np.ix_(ii, ii)]
        try:
            self.lu = spla.splu(A_ii.tocsc(), **SYMMETRIC_LU)
        except RuntimeError as exc:
            raise DirichletEigenvalueError(
                f"discrete Delta_g + {self.name} is singular (Dirichlet eigenvalue)"
            ) from exc
        self._check_conditioning(A_ii)
        self.A_ib = self.A[np.ix_(ii, mesh.boundary)]
        # boundary rows of A in CSR: each row sums in ascending column order,
        # as the full CSC product does, so flux recovery keeps its bits
        self.A_b = self.A.tocsr()[mesh.boundary]

    @property
    def mesh(self) -> Mesh:
        """The operator's mesh while it lives; field and callable sources
        are sampled on it."""
        mesh = self._mesh()
        if mesh is None:
            raise ReferenceError(f"the mesh of operator {self.name} has been freed")
        return mesh

    def _check_conditioning(self, A_ii):
        n = A_ii.shape[0]
        # A_ii is symmetric, so the adjoint solve is the same solve;
        # onenormest applies it to blocks of t = 2 columns, one LU pass each
        # (a given dtype spares the probe solve LinearOperator makes without)
        solve = self.lu.solve
        op = spla.LinearOperator(
            (n, n), matvec=solve, rmatvec=solve, matmat=solve, rmatmat=solve, dtype=float
        )
        # onenormest draws its random start columns from numpy's global RNG:
        # seed it privately, so the estimate depends on the operator alone,
        # and hand the caller's stream back untouched
        caller_state = np.random.get_state()
        np.random.seed(CONDITION_SEED)
        try:
            inv_norm = spla.onenormest(op)
        finally:
            np.random.set_state(caller_state)
        cond = inv_norm * spla.norm(A_ii, 1)
        self.condition_estimate = float(cond)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise DirichletEigenvalueError(
                f"discrete Delta_g + {self.name} is near-singular "
                f"(condition estimate {cond:.2e}); 0 is close to a Dirichlet eigenvalue"
            )

    def _weighted_source(self, source, block_shape: tuple) -> np.ndarray:
        """M f at every vertex: any field for one datum (block_shape ()), an
        (n_vertices, k) array for a block of k, so it never broadcasts."""
        if not block_shape:
            return self.mass * as_values(source, self.mesh)
        f = np.asarray(source)
        if f.shape != (len(self.mass),) + block_shape:
            raise ValueError(f"source of shape {f.shape} does not match a block of {block_shape[0]} data")
        return self.mass[:, None] * f

    def _solve_interior(self, rhs_int: np.ndarray) -> np.ndarray:
        if not np.iscomplexobj(rhs_int):
            return self.lu.solve(rhs_int)
        # real and imaginary columns side by side: one pass over the factors
        n = len(rhs_int)
        x = self.lu.solve(np.hstack([rhs_int.real.reshape(n, -1), rhs_int.imag.reshape(n, -1)]))
        k = x.shape[1] // 2
        return (x[:, :k] + 1j * x[:, k:]).reshape(rhs_int.shape)

    def solve_dirichlet(self, boundary_values: np.ndarray, source=None) -> np.ndarray:
        """(Delta_g + V) u = source in the interior, u = boundary_values on the circle.

        boundary_values has shape (n_b,), or (n_b, k) for k data solved in
        one LU pass, and u (n_vertices,) or (n_vertices, k); a source must
        match (see _weighted_source).
        """
        g = np.asarray(boundary_values)
        if g.ndim not in (1, 2) or len(g) != len(self.bnd_idx):
            raise ValueError("boundary data must have one value (row) per boundary vertex")
        rhs = -self.A_ib @ g
        if source is not None:
            rhs = rhs + self._weighted_source(source, g.shape[1:])[self.int_idx]
        dtype = complex if (np.iscomplexobj(rhs)) else float
        u = np.zeros((len(self.mass),) + g.shape[1:], dtype=dtype)
        u[self.int_idx] = self._solve_interior(rhs)
        u[self.bnd_idx] = g
        return u

    def weak_neumann_trace(self, u: np.ndarray, source=None) -> np.ndarray:
        """Exterior metric normal derivative at boundary vertices by flux recovery.

        Solves sum_j B_ij t_j = (A u - M f)_i restricted to boundary rows,
        with the lumped boundary mass B.  u of shape (n_vertices,) or
        (n_vertices, k) gives (n_b,) or (n_b, k); only the boundary rows of A
        are applied, with the bits of (A @ u)[boundary].
        """
        r = self.A_b @ u
        if source is not None:
            r = r - self._weighted_source(source, np.shape(u)[1:])[self.bnd_idx]
        w = self.boundary_weights
        return r / (w if r.ndim == 1 else w[:, None])


def operator(mesh: Mesh, V=0.0, name: str = "V") -> SchrodingerOperator:
    """The factorized Delta_g + V on mesh, built on the first request for V
    and kept on the mesh; name labels the errors of that first build.

    Potentials are keyed by their vertex values (dtype and bytes), so a
    callable and its sampled values share one operator.
    """
    values = as_values(V, mesh)
    key = (values.dtype.str, values.tobytes())
    op = mesh.operators.get(key)
    if op is None:
        op = mesh.operators[key] = SchrodingerOperator(mesh, values, name=name)
    return op


def boundary_pairing(mesh: Mesh, u1_traces, u2_traces) -> complex:
    """Signed pairing over the whole boundary of two solutions' traces.

    Arguments are (dirichlet, neumann) pairs on all boundary vertices, with
    the exterior normal convention.  For solutions of (Delta_g + V_i) u_i = 0
    this equals the interior integral of u1 (V1 - V2) u2 by Green's theorem.
    """
    f1, dn1 = (np.asarray(a) for a in u1_traces)
    f2, dn2 = (np.asarray(a) for a in u2_traces)
    integrand = dn1 * f2 - f1 * dn2
    return boundary_integral(integrand, mesh, "full")
