"""Stationary five-species convection-reaction-diffusion solver.

Species ordering (0-based indices in code, 1-based in formulas): free calcium,
free albumin binding sites, calcium-albumin, citrate, calcium-citrate.
Species 1 and 2 (albumin-related) do not cross the membrane and live on the
blood channel only; the other three are posed on the whole section with a
piecewise membrane diffusivity alpha_i * D_blood_i and a sieving factor on
membrane convection.

Discretization: P1 Galerkin on the structured triangulation, all integrals
r-weighted.  Diffusion uses exact centroid integration, convection a midedge
rule, and the reaction term a vertex-lumped r-weighted mass so the mass-action
conservation identities hold nodewise and the Newton Jacobian is exact.  The
nonlinear system is solved by Newton in variational form: each step solves

    grad_F(c_n) c_{n+1} = grad_F(c_n) c_n - F(c_n)

for the free dofs only: the Dirichlet dofs take the inlet data directly and
their columns move to the right-hand side.  The structure of that system is
fixed per mesh (``NewtonPattern``): each step scatters values into it and
solves the free block in a fill-reducing order computed once from the
pattern, so every solve on a mesh takes the same path.  A solve factorizes
its first Jacobian once; each later step solves by iterative refinement on
those factors, to the accuracy of a direct solve, and factorizes again only
when refinement stalls short of it.  The Newton iterates are those of one LU
per step, up to roundoff.

Asked for tangents, a solve also returns dc/dbeta at its converged field,
the sensitivity of the solution to beta = (d_Ca, d_Ci): the two columns of
J(c) dc/dbeta = -(dL/dbeta) c, refined on the factors the solve still holds
before it releases them, so they cost no factorization of their own unless
that refinement stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigurationError, NewtonError, SolverError
from .flow import VelocityField
from .linalg import SparseMatrix, fill_reducing_order, solve_linear
from .mesh import AxiGeometry, Boundary, Mesh, boundary_vertices

N_SPECIES = 5
CROSSES_MEMBRANE = (True, False, False, True, True)


# -- configuration types --------------------------------------------------------

@dataclass(frozen=True)
class ReactionParams:
    """Mass-action constants of the reversible Ca-albumin / Ca-citrate bindings.

    Physical runs use strictly positive deltas; zero is accepted so the
    linear (reaction-free coupling) regime remains expressible.
    """

    delta1: float
    delta2: float
    delta3: float
    Fd: float

    def __post_init__(self):
        for name in ("delta1", "delta2", "delta3"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"reaction constant {name} must be >= 0")
        if not self.Fd > 0:
            raise ConfigurationError("reaction scaling Fd must be > 0")


@dataclass(frozen=True)
class SpeciesConfig:
    """Per-species diffusion, membrane fraction and sieving data.

    ``alpha`` holds the membrane diffusivity as a fraction of the blood-phase
    one; alpha_2 = alpha_3 = 0 (albumin species stay in blood) and
    alpha_4 = alpha_5 (citrate and calcium-citrate diffuse alike).
    """

    D_blood: tuple
    D_dialysate: tuple
    alpha: tuple
    sieving: tuple

    def __post_init__(self):
        for name in ("D_blood", "D_dialysate", "alpha", "sieving"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (N_SPECIES,):
                raise ConfigurationError(f"{name} must have {N_SPECIES} entries")
            object.__setattr__(self, name, tuple(v))
        if self.alpha[1] != 0.0 or self.alpha[2] != 0.0:
            raise ConfigurationError("albumin species must have alpha_2 = alpha_3 = 0")
        if self.alpha[3] != self.alpha[4]:
            raise ConfigurationError("citrate species must share alpha_4 = alpha_5")
        if any(a < 0 for a in self.alpha):
            raise ConfigurationError("membrane fractions must be nonnegative")
        if any(not (0.0 <= s <= 1.0) for s in self.sieving):
            raise ConfigurationError("sieving factors must lie in [0, 1]")

    def with_beta(self, beta1: float, beta2: float) -> "SpeciesConfig":
        """Embed the identifiable pair as alpha = (beta1, 0, 0, beta2, beta2)."""
        return replace(self, alpha=(float(beta1), 0.0, 0.0, float(beta2), float(beta2)))


@dataclass(frozen=True)
class TransportConfig:
    Pe: float
    eps2: float
    species: SpeciesConfig
    reactions: ReactionParams
    newton_tol: float = 1e-4
    newton_max_iter: int = 25

    def __post_init__(self):
        if not self.Pe > 0:
            raise ConfigurationError("Peclet number must be positive")
        if self.eps2 < 0:
            raise ConfigurationError("eps2 must be nonnegative")
        if not self.newton_tol > 0:
            raise ConfigurationError("newton_tol must be positive")


@dataclass(frozen=True)
class BoundaryData:
    """Inlet concentrations: blood side on the left, dialysate on the right.

    Dialysate entries for the albumin species are ignored (those species do
    not exist outside the blood channel).
    """

    inlet_blood: tuple
    inlet_dialysate: tuple

    def __post_init__(self):
        for name in ("inlet_blood", "inlet_dialysate"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (N_SPECIES,):
                raise ConfigurationError(f"{name} must have {N_SPECIES} entries")
            if np.any(v < 0):
                raise ConfigurationError(f"{name} must be nonnegative")
            object.__setattr__(self, name, tuple(v))


class ConcentrationField:
    """Five nodal scalar fields; albumin species are hard zeros outside blood."""

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (N_SPECIES, mesh.n_vertices):
            raise ConfigurationError(
                f"expected shape {(N_SPECIES, mesh.n_vertices)}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("concentration field contains non-finite entries")
        self.mesh = mesh
        self.values = values

    def flat(self) -> np.ndarray:
        """Interleaved dof vector: entry 5*node + species."""
        return self.values.T.reshape(-1).copy()

    @classmethod
    def from_flat(cls, mesh: Mesh, flat: np.ndarray) -> "ConcentrationField":
        return cls(mesh, np.asarray(flat, float).reshape(mesh.n_vertices, N_SPECIES).T)


@dataclass
class NewtonResult:
    converged: bool
    n_solves: int
    trace: list
    tangents: np.ndarray | None = None   # (n_dof, 2) dc/dbeta, when asked for


# -- reaction kinetics -----------------------------------------------------------

def reaction_source(c, rp: ReactionParams) -> np.ndarray:
    """Net production rates of the five species (columns allowed: c is (5,)
    or (5, N)).

    Built from the two net binding rates so the conservation identities
    F1 + (F3 + F5) = 0, F2 + F3 = 0 and F4 + F5 = 0 hold exactly in floating
    point (total calcium, albumin sites and citrate are conserved).
    """
    c = np.asarray(c, dtype=float)
    c1, c2, c3, c4, c5 = c
    f3 = (-c3 + rp.delta1 * c1 * c2) / rp.Fd          # net Ca-Alb formation
    f5 = (-rp.delta2 * c5 + rp.delta3 * c1 * c4) / rp.Fd  # net Ca-Cit formation
    return np.stack([-(f3 + f5), -f3, f3, -f5, f5])


def reaction_jacobian(c, rp: ReactionParams) -> np.ndarray:
    """Exact Jacobian of reaction_source: shape (5, 5) or (5, 5, N).

    Rows mirror the reaction_source construction, so the conservation
    identities differentiate exactly: row1 + (row3 + row5) = 0 etc.
    """
    c = np.asarray(c, dtype=float)
    c1, c2, c3, c4, c5 = c
    z = np.zeros_like(c1)
    one = np.ones_like(c1)
    d1, d2, d3 = rp.delta1, rp.delta2, rp.delta3
    row3 = np.stack([d1 * c2, d1 * c1, -one, z, z]) / rp.Fd
    row5 = np.stack([d3 * c4, z, z, d3 * c1, -d2 * one]) / rp.Fd
    return np.stack([-(row3 + row5), -row3, row3, -row5, row5])


# -- per-mesh system structure -------------------------------------------------------

def _operator_dofs(mesh: Mesh):
    """Row and column dofs of the linear operator's triplets, in the order
    ``TransportSolver._build_linear_operator`` emits their values: per
    species the 3x3 blocks of its triangles, then the blood-membrane edge
    blocks of the species that stay in blood."""
    tri = mesh.triangles
    rows, cols = [], []
    for s in range(N_SPECIES):
        a_tri = tri if CROSSES_MEMBRANE[s] else tri[mesh.fem.is_blood]
        rows.append(N_SPECIES * np.repeat(a_tri, 3, axis=1).ravel() + s)
        cols.append(N_SPECIES * np.tile(a_tri, (1, 3)).ravel() + s)
    ends = mesh.edges_with_tag(Boundary.BLOOD_MEMBRANE).T
    for s in range(N_SPECIES):
        if CROSSES_MEMBRANE[s]:
            continue
        for va in ends:
            for vb in ends:
                rows.append(N_SPECIES * va + s)
                cols.append(N_SPECIES * vb + s)
    return np.concatenate(rows), np.concatenate(cols)


class NewtonPattern:
    """Structure of the Newton system on one mesh, shared by every solver on
    it and built once (``Mesh.newton_pattern``); solvers supply only values.

    - Dirichlet dofs, and the inlet entry each one takes;
    - the CSR pattern of the full Jacobian (identity Dirichlet rows), with
      the positions the operator and reaction triplets scatter to;
    - the free dofs in a fill-reducing order taken from this pattern alone,
      and the CSC pattern of the free-free block in that order, with the
      positions it gathers from the full pattern.  Only that block is
      factorized.

    Index maps are int32 and every array is read-only.
    """

    def __init__(self, mesh: Mesh):
        fem = mesh.fem
        n = self.n_dof = N_SPECIES * mesh.n_vertices
        self.mass_species = np.stack([fem.lump_all if CROSSES_MEMBRANE[s] else fem.lump_blood
                                      for s in range(N_SPECIES)])
        self.norm_mass = np.repeat(fem.lump_all, N_SPECIES)
        self._build_dirichlet(mesh)

        op_rows, op_cols = _operator_dofs(mesh)
        # 5x5 reaction block of every node, pair-major like reaction_jacobian
        nodes = N_SPECIES * np.arange(mesh.n_vertices)
        rx_rows = (nodes + np.repeat(np.arange(N_SPECIES), N_SPECIES)[:, None]).ravel()
        rx_cols = (nodes + np.tile(np.arange(N_SPECIES), N_SPECIES)[:, None]).ravel()
        self.op_keep = ~self.is_dirichlet[op_rows]
        self.rx_keep = ~self.is_dirichlet[rx_rows]
        keys = np.concatenate([op_rows[self.op_keep], self.dirichlet_dofs,
                               rx_rows[self.rx_keep]]) * n
        keys += np.concatenate([op_cols[self.op_keep], self.dirichlet_dofs,
                                rx_cols[self.rx_keep]])
        # build arrays go before the ordering's factorization sets the memory peak
        del op_rows, op_cols, rx_rows, rx_cols
        keys, pos = np.unique(keys, return_inverse=True)
        pos = pos.astype(np.int32)
        n_op, n_dir = int(self.op_keep.sum()), self.dirichlet_dofs.size
        self.op_pos = pos[:n_op]
        self.dirichlet_pos = pos[n_op:n_op + n_dir]
        self.rx_pos = pos[n_op + n_dir:]
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.nnz = keys.size
        del keys, pos

        # slot k + 1 marks entry k of the full pattern, so the reordered
        # free-free block lists the positions it gathers from
        free = np.flatnonzero(~self.is_dirichlet)
        slots = sp.csr_matrix((np.arange(1, self.nnz + 1), self.indices, self.indptr),
                              shape=(n, n))[free][:, free]
        order = fill_reducing_order(slots)
        block = slots[order][:, order].tocsc()
        del slots
        self.free = free[order].astype(np.int32)
        self.block_src = (block.data - 1).astype(np.int32)
        self.block_indices = block.indices.astype(np.int32)
        self.block_indptr = block.indptr.astype(np.int32)

        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def _build_dirichlet(self, mesh: Mesh):
        r = mesh.vertices[:, 1]
        inlet_b = boundary_vertices(mesh, Boundary.INLET_BLOOD)
        inlet_d = boundary_vertices(mesh, Boundary.INLET_DIALYSATE)
        non_blood = np.flatnonzero(r > mesh.geom.R1 + 1e-14)

        # a dof takes entry `source` of inlet_blood + inlet_dialysate + (0.0,)
        dofs, source = [], []
        for s in range(N_SPECIES):
            dofs.append(N_SPECIES * inlet_b + s)
            source.append(np.full(inlet_b.size, s))
            if CROSSES_MEMBRANE[s]:
                dofs.append(N_SPECIES * inlet_d + s)
                source.append(np.full(inlet_d.size, N_SPECIES + s))
            else:
                dofs.append(N_SPECIES * non_blood + s)
                source.append(np.full(non_blood.size, 2 * N_SPECIES))
        # a dof listed twice keeps its first assignment
        self.dirichlet_dofs, first = np.unique(np.concatenate(dofs), return_index=True)
        self.dirichlet_source = np.concatenate(source)[first]
        self.is_dirichlet = np.zeros(self.n_dof, dtype=bool)
        self.is_dirichlet[self.dirichlet_dofs] = True

    def matrix(self, data) -> sp.csr_matrix:
        """The full-system matrix with ``data`` in this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n_dof, self.n_dof))

    def free_block(self, full: sp.csr_matrix) -> SparseMatrix:
        """The free-free block of a full-system matrix in this pattern, as CSC
        in the fill-reducing order of ``free``."""
        n_free = self.free.size
        return SparseMatrix(sp.csc_matrix((full.data[self.block_src], self.block_indices,
                                           self.block_indptr), shape=(n_free, n_free)))


# -- solver ------------------------------------------------------------------------

class TransportSolver:
    """Assembles and solves the coupled stationary system for fixed velocity,
    coefficients and boundary data."""

    def __init__(self, mesh: Mesh, velocity: VelocityField, cfg: TransportConfig,
                 bd: BoundaryData, dirichlet_override=None):
        if velocity.mesh is not mesh:
            raise ConfigurationError("velocity field was built on a different mesh")
        self.mesh = mesh
        self.velocity = velocity
        self.cfg = cfg
        self.bd = bd
        self.fem = mesh.fem
        self.pattern = mesh.newton_pattern
        self.n_dof = self.pattern.n_dof
        self._build_dirichlet(dirichlet_override)
        self._build_linear_operator()
        self._lu = None  # factors of an earlier step of the current solve

    # .. boundary values ..

    def _build_dirichlet(self, override):
        p = self.pattern
        if override is None:
            inlet = np.concatenate([self.bd.inlet_blood, self.bd.inlet_dialysate, [0.0]])
            vals = inlet[p.dirichlet_source]
        else:
            override = np.asarray(override, dtype=float)
            if override.shape != (N_SPECIES, self.mesh.n_vertices):
                raise ConfigurationError("dirichlet override must be (5, n_vertices)")
            vals = override.T.reshape(-1)[p.dirichlet_dofs]
        self.dirichlet_dofs = p.dirichlet_dofs
        self.dirichlet_vals = vals
        self.g_vec = np.zeros(self.n_dof)
        self.g_vec[p.dirichlet_dofs] = vals

    # .. linear operator (convection + diffusion + interface term) ..

    def _species_coefficients(self):
        cfg = self.cfg
        sc = cfg.species
        fem = self.fem
        T = self.mesh.n_triangles
        D_loc = np.empty((N_SPECIES, T))
        S_loc = np.ones((N_SPECIES, T))
        for s in range(N_SPECIES):
            D = np.full(T, sc.D_dialysate[s])
            D[fem.is_membrane] = sc.alpha[s] * sc.D_blood[s]
            D[fem.is_blood] = sc.D_blood[s]
            D_loc[s] = D
            S_loc[s, fem.is_membrane] = sc.sieving[s]
        return D_loc, S_loc

    def _stiffness(self, active):
        """Unscaled r-weighted diffusion element matrices (T, 3, 3) of the
        triangles ``active``, axial part weighted by eps2."""
        cfg, fem = self.cfg, self.fem
        a_bx = fem.bx[active]
        a_br = fem.br[active]
        return ((cfg.eps2 / cfg.Pe) * a_bx[:, :, None] * a_bx[:, None, :]
                + (1.0 / cfg.Pe) * a_br[:, :, None] * a_br[:, None, :])

    def _build_linear_operator(self):
        mesh, fem, cfg = self.mesh, self.fem, self.cfg
        tri = mesh.triangles
        p = self.pattern
        ux = self.velocity.u_x[tri]  # (T, 3)
        ur = self.velocity.u_r[tri]
        D_loc, S_loc = self._species_coefficients()

        w_diff = fem.area * fem.rbar
        vals_all = []

        # convection at midedge points: Ue (T, q, 2)
        ux_q = ux @ fem.phi_q.T
        ur_q = ur @ fem.phi_q.T
        wq = (fem.area / 3.0)[:, None] * fem.r_q  # (T, q)

        shared = {}  # unscaled element matrices, one pair per set of triangles
        for s in range(N_SPECIES):
            crosses = CROSSES_MEMBRANE[s]
            active = slice(None) if crosses else fem.is_blood
            if crosses not in shared:
                a_bx = fem.bx[active]
                a_br = fem.br[active]
                stiff = self._stiffness(active)
                # convection: sum_q w_q phi_a(q) * S * (Ux(q) bx_b + Ur(q) br_b)
                conv_b = (ux_q[active][:, :, None] * a_bx[:, None, :]
                          + ur_q[active][:, :, None] * a_br[:, None, :])  # (T, q, b)
                conv = np.einsum("tq,qa,tqb->tab", wq[active], fem.phi_q, conv_b)
                shared[crosses] = stiff, conv
            stiff, conv = shared[crosses]
            ke = (D_loc[s] * w_diff)[active][:, None, None] * stiff
            ce = conv * S_loc[s][active][:, None, None]
            vals_all.append((ke + ce).ravel())
        vals_all.extend(self._interface_term())

        # triplet values in the order of _operator_dofs; Dirichlet rows are identity
        vals = np.concatenate(vals_all)[p.op_keep]
        self._op_data = np.bincount(p.op_pos, weights=vals, minlength=p.nnz)
        self._op_data[p.dirichlet_pos] = 1.0
        self.L_bc = p.matrix(self._op_data)

    def _interface_term(self):
        """-int_{Gamma_bm} r U_r c phi dx for the non-crossing species: the
        flux-consistent wall condition (D/Pe) d_r c = c U_r, which makes the
        total albumin flux through the membrane wall vanish."""
        mesh = self.mesh
        edges = mesh.edges_with_tag(Boundary.BLOOD_MEMBRANE)
        v0, v1 = edges[:, 0], edges[:, 1]
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        h = np.abs(p1[:, 0] - p0[:, 0])
        R1 = mesh.geom.R1
        gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
        gw = np.array([0.5, 0.5])
        ur0 = self.velocity.u_r[v0]
        ur1 = self.velocity.u_r[v1]
        vals = []
        phis = np.stack([1.0 - gp, gp])  # (a, g)
        for s in range(N_SPECIES):
            if CROSSES_MEMBRANE[s]:
                continue
            for a in range(2):
                for b in range(2):
                    contrib = np.zeros(edges.shape[0])
                    for g in range(2):
                        ur_g = ur0 * (1 - gp[g]) + ur1 * gp[g]
                        contrib += gw[g] * ur_g * phis[a, g] * phis[b, g]
                    vals.append(-R1 * h * contrib)
        return vals

    # .. residual / jacobian / newton ..

    def residual(self, c_flat, source_nodal=None):
        c_nodal = c_flat.reshape(-1, N_SPECIES).T
        f = reaction_source(c_nodal, self.cfg.reactions)
        if source_nodal is not None:
            f = f + source_nodal
        rhs_nl = (self.pattern.mass_species * f).T.reshape(-1)
        rhs_nl[self.pattern.is_dirichlet] = 0.0
        return self.L_bc @ c_flat - rhs_nl - self.g_vec

    def jacobian(self, c_flat) -> sp.csr_matrix:
        """Newton Jacobian of the full system (identity Dirichlet rows), its
        values scattered into the mesh's fixed pattern."""
        p = self.pattern
        c_nodal = c_flat.reshape(-1, N_SPECIES).T
        jf = reaction_jacobian(c_nodal, self.cfg.reactions)  # (5, 5, n_v)
        data = self._op_data.copy()
        data[p.rx_pos] -= (p.mass_species[:, None, :] * jf).ravel()[p.rx_keep]
        return p.matrix(data)

    def _beta_tangents(self, c_flat) -> np.ndarray:
        """dc/dbeta at the converged field ``c_flat``: the (n_dof, 2) solution
        of J(c) dc/dbeta_k = -(dL/dbeta_k) c on the free dofs, zero on the
        Dirichlet dofs (their values do not depend on beta).  Both columns
        refine on the factors of the solve that converged to ``c_flat``.

        beta = (d_Ca, d_Ci) enters the operator only through the membrane
        diffusion alpha_s D_blood_s of species 1 (k = 1) and of species 4 and
        5 (k = 2), so dL/dbeta_k is that diffusion with alpha_s = 1, applied
        here element by element.
        """
        fem, p = self.fem, self.pattern
        membrane = fem.is_membrane
        tri = self.mesh.triangles[membrane]
        ke = (fem.area * fem.rbar)[membrane][:, None, None] * self._stiffness(membrane)
        rhs = np.zeros((self.n_dof, 2))
        for k, species in enumerate(((0,), (3, 4))):
            for s in species:
                dofs = N_SPECIES * tri + s
                local = self.cfg.species.D_blood[s] * np.einsum("tab,tb->ta", ke, c_flat[dofs])
                rhs[:, k] -= np.bincount(dofs.ravel(), weights=local.ravel(),
                                         minlength=self.n_dof)
        A = p.free_block(self.jacobian(c_flat))
        A.lu, self._lu = self._lu, None
        dc = np.zeros((self.n_dof, 2))
        dc[p.free] = solve_linear(A, rhs[p.free])
        return dc

    def initial_field(self) -> ConcentrationField:
        """Constant extension of inlet blood values (dialysate inlet values on
        the dialysate channel for the crossing species)."""
        mesh = self.mesh
        r = mesh.vertices[:, 1]
        vals = np.zeros((N_SPECIES, mesh.n_vertices))
        in_dialysate = r > mesh.geom.R2 + 1e-14
        in_blood = r <= mesh.geom.R1 + 1e-14
        for s in range(N_SPECIES):
            if CROSSES_MEMBRANE[s]:
                vals[s] = self.bd.inlet_blood[s]
                vals[s, in_dialysate] = self.bd.inlet_dialysate[s]
            else:
                vals[s, in_blood] = self.bd.inlet_blood[s]
        return ConcentrationField(mesh, vals)

    def project_dirichlet(self, c_flat):
        out = c_flat.copy()
        out[self.dirichlet_dofs] = self.dirichlet_vals
        return out

    def newton_norm(self, delta_flat):
        return float(np.sqrt(np.sum(self.pattern.norm_mass * delta_flat**2)))

    def step(self, c_flat, source_nodal=None):
        """One Newton update: the solution x of J x = J c - F(c) with
        x = g on the Dirichlet dofs.

        Only the free dofs are solved for: J_ff x_f = (J (c - g) - F(c))_f,
        whose right-hand side carries the Dirichlet columns J_fD g.  The
        first step factorizes J_ff; later ones refine on the factors kept
        from the step before (see ``solve_linear``), starting from c_f, which
        leaves only the Newton update to refine.
        """
        p = self.pattern
        J = self.jacobian(c_flat)
        rhs = J @ (c_flat - self.g_vec) - self.residual(c_flat, source_nodal)
        A = p.free_block(J)
        # only A holds the old factors, so a refactorization frees them first
        A.lu, self._lu = self._lu, None
        x = self.g_vec.copy()
        x[p.free] = solve_linear(A, rhs[p.free], x0=c_flat[p.free])
        self._lu = A.lu
        return x

    def solve(self, c0: ConcentrationField | None = None, source_nodal=None,
              tangents: bool = False) -> tuple:
        """Newton solve from ``c0`` (default ``initial_field``) in at most
        ``newton_max_iter + 2`` steps.  Returns (field, NewtonResult) with the
        trace of r-weighted L2 update norms, and with ``tangents`` also
        dc/dbeta at the converged field in ``NewtonResult.tangents``.  Raises
        NewtonError (carrying the partial trace) on linear-solver failure or
        non-convergence, and SolverError when the tangent solve fails."""
        cfg = self.cfg
        c_next = self.project_dirichlet((self.initial_field() if c0 is None else c0).flat())
        trace = []
        self._lu = None
        try:
            while not trace or (len(trace) <= cfg.newton_max_iter + 1
                                and trace[-1] > cfg.newton_tol):
                n, c_prev = len(trace), c_next
                try:
                    c_next = self.step(c_prev, source_nodal)
                except SolverError as exc:
                    where = f"iteration {n}" if n else "start"
                    raise NewtonError(f"linear solve failed at Newton {where}: {exc}",
                                      trace=trace) from exc
                if not np.all(np.isfinite(c_next)):
                    raise NewtonError(f"Newton iterate diverged at iteration {n}",
                                      trace=trace)
                trace.append(self.newton_norm(c_next - c_prev))
            if trace[-1] > cfg.newton_tol:
                raise NewtonError(
                    f"Newton did not reach tol {cfg.newton_tol:g} in "
                    f"{cfg.newton_max_iter} iterations (last update {trace[-1]:.3e})",
                    trace=trace)
            dc = self._beta_tangents(c_next) if tangents else None
        finally:
            self._lu = None  # the factors are the largest thing a solve holds
        return ConcentrationField.from_flat(self.mesh, c_next), \
            NewtonResult(converged=True, n_solves=len(trace), trace=trace, tangents=dc)


# -- observable ---------------------------------------------------------------------

def outlet_concentration(c: ConcentrationField, mesh: Mesh, geom: AxiGeometry) -> np.ndarray:
    """Flow-section average at the blood outlet: (2 R^2 / R1^2) int r c_i dr
    over x = L, 0 <= r <= R1, integrated exactly for P1 traces."""
    idx = boundary_vertices(mesh, Boundary.OUTLET_BLOOD)
    r = mesh.vertices[idx, 1]
    ra, rb = r[:-1], r[1:]
    h = rb - ra
    out = np.empty(N_SPECIES)
    for s in range(N_SPECIES):
        ca = c.values[s, idx[:-1]]
        cb = c.values[s, idx[1:]]
        # exact integral of r * (linear c) over each edge
        out[s] = np.sum(h * ((2 * ra + rb) * ca + (ra + 2 * rb) * cb) / 6.0)
    return out * 2.0 * geom.R**2 / geom.R1**2


def export_field_csv(c: ConcentrationField, mesh: Mesh, path):
    """Node table (x, r, c1..c5) in vertex order."""
    with open(path, "w") as fh:
        fh.write("x,r,c1,c2,c3,c4,c5\n")
        for k in range(mesh.n_vertices):
            x, r = mesh.vertices[k]
            row = ",".join(repr(float(v)) for v in c.values[:, k])
            fh.write(f"{x!r},{r!r},{row}\n")
