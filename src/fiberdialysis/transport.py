"""Stationary five-species convection-reaction-diffusion solver.

Species ordering (0-based indices in code, 1-based in formulas): free calcium,
free albumin binding sites, calcium-albumin, citrate, calcium-citrate.
``MEMBRANE_BETA`` is the one table of the species' membrane roles: the two
albumin species (entry None) do not cross the membrane and live on the blood
channel only; the other three are posed on the whole section with membrane
diffusivity beta_k * D_blood_s, k their entry in the table, and a sieving
factor on membrane convection.

A concentration field is one flat vector of P1 dofs, entry 5*node + species:
the Newton unknown, the start a solve takes, the field it returns and each
column of its tangents.  Only this module reads species from that layout
(``initial_field``, ``outlet_concentration``, ``export_field_csv``); callers
keep and pass the vector as is.

Discretization: P1 Galerkin on the structured triangulation, all integrals
r-weighted.  Diffusion uses exact centroid integration, convection a midedge
rule, and the reaction term a vertex-lumped r-weighted mass so the mass-action
conservation identities hold nodewise and the Newton Jacobian is exact.  The
nonlinear system F(c) = L c - M (f(c) + s) = 0, Dirichlet dofs fixed at g, is
solved by Newton in variational form: each step solves

    grad_F(c_n) c_{n+1} = grad_F(c_n) c_n - F(c_n)

for the free dofs only, so the system exists only as its free-free block
J_ff = L_ff - M f'_ff, in the axial-column band order, with the band layout
that picks its LU engine; both are fixed per mesh (``NewtonPattern``), so
every solve on a mesh takes the same path.  L is linear and cancels from the
right-hand side but for its Dirichlet columns, the lift L_fD g_D:
M (f(c) + s - f'(c) (c - g)) - L_fD g_D on the free rows.  Each step
evaluates the reaction Jacobian f'(c) once and writes both its right-hand
side and the block values from it.  A solver holds one block matrix, whose
values each Jacobian overwrites and whose ``lu`` keeps the factors through a
solve: it factorizes its first Jacobian; each later step solves by iterative
refinement on those factors and factorizes again only when refinement stalls
short of the accuracy of a direct solve.  This is inexact Newton: a refined
step is solved only to ``_NEWTON_FORCING`` = 1e-6 of its own update, which
moves the converged field by at most about 1e-6 times the last update (below
``newton_tol``).  The tangents are solved to roundoff.

beta = (d_Ca, d_Ci) is an argument of the solve (``TransportSolver(...,
beta)``) and enters L at one place: beta_k scales only the membrane
diffusion of the species ``MEMBRANE_BETA`` maps to k (free calcium to d_Ca,
citrate and calcium-citrate to d_Ci).  So L is affine in beta,

    L(beta) = L0 + beta_1 L1 + beta_2 L2,

and each part lives where what it depends on lives:

- L0 (convection, the albumin interface term, blood and dialysate
  diffusion) depends on the velocity field and, through its lift, on the
  inlet values.  It is kept as its free-free block in the block layout and
  its lift, in one pass over all triangles, as a ``BetaFreeOperator``:
  about 215 KB on (40,6,4,5) and 830 KB on (80,12,8,10).
- L_k is the membrane block w K (r-weight times unit-diffusivity stiffness
  of each membrane triangle; 23 KB on (40,6,4,5), 92 KB on (80,12,8,10))
  times D_blood_s, for each species s that ``MEMBRANE_BETA`` maps to k.
  It depends only on the mesh and config, and each solver builds it over
  the membrane triangles.  The block entries it adds to are fixed per mesh
  (``NewtonPattern.beta_pos``).

A solver assembles a ``BetaFreeOperator`` unless it is handed one;
``inverse.ForwardSolver`` keeps a patient's from its second warm solve on.
A solve then only writes L0 + beta_1 L1 + beta_2 L2 into the block values,
and the same sum into the lift: 0.08 ms on (40,6,4,5) and 0.3 ms on
(80,12,8,10) for a solver handed its operator, against 1.1 ms and 4-5 ms for
one that assembles it.  Asked for tangents, it also returns dc/dbeta at its
converged field: the two columns of J(c) dc/dbeta = -(dL/dbeta) c = -L_k c,
taken from the same membrane entries, refined on the factors the solve still
holds before it releases them, so they cost no factorization of their own
unless that refinement stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigurationError, NewtonError, SolverError
from .flow import VelocityField
from .linalg import BandLayout, SparseMatrix, solve_linear
from .mesh import Boundary, Mesh, boundary_vertices

N_SPECIES = 5
MEMBRANE_BETA = (0, None, None, 1, 1)  # per species: the beta entry, None: stays in blood
# error a refined Newton step may keep, relative to its own update: it adds at
# most about 1e-6 * newton_tol to the converged field, far below the spread of
# warm and cold solves; 1e-3 would move a landscape by up to 8e-8
_NEWTON_FORCING = 1e-6


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
    """Per-species diffusion and sieving data.  The membrane diffusivity is
    not here: it is beta's (see ``MEMBRANE_BETA``)."""

    D_blood: tuple
    D_dialysate: tuple
    sieving: tuple

    def __post_init__(self):
        for name in ("D_blood", "D_dialysate", "sieving"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (N_SPECIES,):
                raise ConfigurationError(f"{name} must have {N_SPECIES} entries")
            object.__setattr__(self, name, tuple(v))
        if any(not (0.0 <= s <= 1.0) for s in self.sieving):
            raise ConfigurationError("sieving factors must lie in [0, 1]")


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
        if self.newton_max_iter < 0:
            raise ConfigurationError("newton_max_iter must be >= 0")


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
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite, got {v.tolist()}")
            if np.any(v < 0):
                raise ConfigurationError(f"{name} must be nonnegative")
            object.__setattr__(self, name, tuple(v))


@dataclass
class NewtonResult:
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

def _triangle_dofs(tri, s):
    """Row and column dofs of species s's 3x3 blocks on the triangles
    ``tri``, each block row-major."""
    return (N_SPECIES * np.repeat(tri, 3, axis=1).ravel() + s,
            N_SPECIES * np.tile(tri, (1, 3)).ravel() + s)


def _operator_dofs(mesh: Mesh):
    """Row and column dofs of L0's triplets, in the order
    ``TransportSolver._assemble_beta_free`` emits their values: per species
    the 3x3 blocks of its triangles, then the 2x2 blood-membrane edge blocks
    of the species that stay in blood."""
    tri = mesh.triangles
    ends = mesh.edges_with_tag(Boundary.BLOOD_MEMBRANE).T  # (2, E)
    rows, cols = [], []
    for s, k in enumerate(MEMBRANE_BETA):
        r, c = _triangle_dofs(tri[mesh.fem.is_blood] if k is None else tri, s)
        rows.append(r)
        cols.append(c)
    for s, k in enumerate(MEMBRANE_BETA):
        if k is None:
            rows.append(N_SPECIES * np.repeat(ends, 2, axis=0).ravel() + s)
            cols.append(N_SPECIES * np.tile(ends, (2, 1)).ravel() + s)
    return np.concatenate(rows), np.concatenate(cols)


def _membrane_dofs(mesh: Mesh):
    """Row and column dofs of the membrane diffusion triplets, the entries
    of L1 and L2, in the order ``TransportSolver._add_beta_terms`` emits
    their values: per species that crosses the membrane, the 3x3 blocks of
    the membrane triangles."""
    tri = mesh.triangles[mesh.fem.is_membrane]
    dofs = [_triangle_dofs(tri, s) for s, k in enumerate(MEMBRANE_BETA) if k is not None]
    return np.concatenate([r for r, _ in dofs]), np.concatenate([c for _, c in dofs])


def _split_triplets(number, n, dof_rows, dof_cols):
    """The triplets with row dofs ``dof_rows`` and column dofs ``dof_cols``,
    split by ``number`` (a free dof's position in the block order of the
    ``n`` free dofs, -1 for a Dirichlet dof): the mask of those with a free
    row and a free column, and their keys col * n + row in those positions,
    which sort in CSC order; and of those with a free row and a Dirichlet
    column, the lift: their indices, column dofs and row positions."""
    rows, cols = number[dof_rows], number[dof_cols]
    keep = (rows >= 0) & (cols >= 0)
    lift = (rows >= 0) & (cols < 0)
    keys = cols[keep] * n + rows[keep]
    return (keep, keys, np.flatnonzero(lift).astype(np.int32),
            dof_cols[lift].astype(np.int32), rows[lift].astype(np.int32))


class NewtonPattern:
    """Structure of the Newton system on one mesh, shared by every solver on
    it and built once (``Mesh.newton_pattern``); solvers supply only values.

    - Dirichlet dofs, and the inlet entry each one takes;
    - the free dofs (``free``) in the axial-column order (by x index, then
      radial level, then species), which makes the block a band matrix of
      bandwidth 67 on (40,6,4,5) and 124 on (80,12,8,10); the CSC pattern
      of the free-free block in that order (``block_indices``,
      ``block_indptr``, ``nnz`` entries), the only form the system takes,
      built in that order from the start; and its ``linalg.BandLayout``
      (``layout``), which picks the LU engine and places the values for
      it: float32 band factors refined in float64 on (40,6,4,5) (1.9 MiB)
      and (80,12,8,10) (13.6 MiB), and SuperLU, ordering the block itself,
      on finer meshes such as (160,24,16,20), whose band array exceeds the
      cap;
    - the block entry each L0 triplet (``_operator_dofs``; ``op_keep``,
      ``op_pos``) and each reaction triplet (``rx_keep``, ``rx_pos``) with a
      free row and a free column adds to;
    - the membrane triplets (``_membrane_dofs``), the entries of L1 and L2,
      with a free row and a free column (``beta_keep``), merged
      (``beta_merge``) into the distinct block entries they add to
      (``beta_pos``);
    - the lift: the L0 triplets ``lift_src`` with a free row and a Dirichlet
      column, by their row's position in ``free`` (``lift_rows``) and their
      column dof (``lift_cols``), and the same of the membrane triplets
      (``beta_lift_src``, ``beta_lift_rows``, ``beta_lift_cols``).

    Index maps are int32 and every array is read-only.
    """

    def __init__(self, mesh: Mesh):
        fem = mesh.fem
        self.n_dof = N_SPECIES * mesh.n_vertices
        self.mass_species = np.stack([fem.lump_blood if k is None else fem.lump_all
                                      for k in MEMBRANE_BETA])
        self.norm_mass = np.repeat(fem.lump_all, N_SPECIES)
        self._build_dirichlet(mesh)
        free = np.flatnonzero(~self.is_dirichlet)
        # axial-column order: by x index i, then radial level j, then species
        j, i = np.divmod(free // N_SPECIES, mesh.nx + 1)
        free = free[np.lexsort((free % N_SPECIES, j, i))]
        n = free.size
        number = np.full(self.n_dof, -1)  # a free dof's position in `free`
        number[free] = np.arange(n)

        self.op_keep, op_keys, self.lift_src, self.lift_cols, self.lift_rows = _split_triplets(
            number, n, *_operator_dofs(mesh))
        (self.beta_keep, beta_keys, self.beta_lift_src, self.beta_lift_cols,
         self.beta_lift_rows) = _split_triplets(number, n, *_membrane_dofs(mesh))
        # 5x5 reaction block of every node, pair-major like reaction_jacobian
        nodes = N_SPECIES * np.arange(mesh.n_vertices)
        rx_rows = number[(nodes + np.repeat(np.arange(N_SPECIES), N_SPECIES)[:, None]).ravel()]
        rx_cols = number[(nodes + np.tile(np.arange(N_SPECIES), N_SPECIES)[:, None]).ravel()]
        self.rx_keep = (rx_rows >= 0) & (rx_cols >= 0)
        rx_keys = rx_cols[self.rx_keep] * n + rx_rows[self.rx_keep]
        n_op, n_rx = op_keys.size, rx_keys.size
        keys = np.concatenate([op_keys, rx_keys, beta_keys])
        del op_keys, rx_keys, beta_keys, rx_rows, rx_cols, number
        keys, pos = np.unique(keys, return_inverse=True)
        pos = pos.astype(np.int32)
        self.nnz = keys.size
        self.op_pos, self.rx_pos = pos[:n_op], pos[n_op:n_op + n_rx]
        self.beta_pos, merge = np.unique(pos[n_op + n_rx:], return_inverse=True)
        self.beta_merge = merge.astype(np.int32)
        self.free = free.astype(np.int32)
        self.block_indices = (keys % n).astype(np.int32)
        self.block_indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        del keys
        self.layout = BandLayout(sp.csc_matrix(
            (np.zeros(self.nnz), self.block_indices, self.block_indptr), shape=(n, n)))

        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def _build_dirichlet(self, mesh: Mesh):
        inlet_b = boundary_vertices(mesh, Boundary.INLET_BLOOD)
        inlet_d = boundary_vertices(mesh, Boundary.INLET_DIALYSATE)
        non_blood = np.flatnonzero(mesh.r_index > mesh.nr_b)

        # a dof takes entry `source` of inlet_blood + inlet_dialysate + (0.0,)
        dofs, source = [], []
        for s, k in enumerate(MEMBRANE_BETA):
            dofs.append(N_SPECIES * inlet_b + s)
            source.append(np.full(inlet_b.size, s))
            if k is None:
                dofs.append(N_SPECIES * non_blood + s)
                source.append(np.full(non_blood.size, 2 * N_SPECIES))
            else:
                dofs.append(N_SPECIES * inlet_d + s)
                source.append(np.full(inlet_d.size, N_SPECIES + s))
        # a dof listed twice keeps its first assignment
        self.dirichlet_dofs, first = np.unique(np.concatenate(dofs), return_index=True)
        self.dirichlet_source = np.concatenate(source)[first]
        self.is_dirichlet = np.zeros(self.n_dof, dtype=bool)
        self.is_dirichlet[self.dirichlet_dofs] = True


# -- solver ------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaFreeOperator:
    """What the linear operator L(beta) = L0 + beta_1 L1 + beta_2 L2 holds
    that depends on the patient and not on beta: L0 as its free-free block
    in the pattern's block layout (``values``) and its lift L0_fD g_D on the
    free rows in the order of ``free`` (``lift``).  It depends on the mesh,
    velocity field, config and Dirichlet values it was assembled for, and
    on nothing else; its arrays are read-only.  L1 and L2 depend only on
    the mesh and config, and each solver builds them."""

    values: np.ndarray
    lift: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.lift):
            arr.flags.writeable = False


class TransportSolver:
    """Assembles and solves the coupled stationary system for fixed velocity,
    coefficients, boundary data and beta = (d_Ca, d_Ci), whose entries are
    finite and >= 0.

    ``beta_free``, if given, is the ``BetaFreeOperator`` (``self.beta_free``)
    of an earlier solver with the same mesh, velocity field, config and
    Dirichlet values, which this one then takes as it is instead of
    assembling it again."""

    def __init__(self, mesh: Mesh, velocity: VelocityField, cfg: TransportConfig,
                 bd: BoundaryData, beta, dirichlet_override=None, beta_free=None):
        if velocity.mesh is not mesh:
            raise ConfigurationError("velocity field was built on a different mesh")
        self.beta = tuple(float(b) for b in beta)
        if not all(0.0 <= b < np.inf for b in self.beta):  # False for NaN too
            raise ConfigurationError(f"beta must be nonnegative and finite, got {self.beta}")
        self.mesh = mesh
        self.velocity = velocity
        self.cfg = cfg
        self.bd = bd
        self.fem = mesh.fem
        self.pattern = mesh.newton_pattern
        self.n_dof = self.pattern.n_dof
        self._build_dirichlet(dirichlet_override)
        self.beta_free = self._assemble_beta_free() if beta_free is None else beta_free
        stiff, w = self._stiffness(self.fem.is_membrane)
        self._membrane = w[:, None, None] * stiff  # the block w K that L1 and L2 apply
        self._add_beta_terms()
        p, n_free = self.pattern, self.pattern.free.size
        # each jacobian() overwrites the values; lu keeps a solve's factors
        self._matrix = SparseMatrix(sp.csc_matrix(
            (np.zeros(p.nnz), p.block_indices, p.block_indptr), shape=(n_free, n_free)),
            p.layout)

    # .. boundary values ..

    def _build_dirichlet(self, override):
        p = self.pattern
        if override is None:
            inlet = np.concatenate([self.bd.inlet_blood, self.bd.inlet_dialysate, [0.0]])
            vals = inlet[p.dirichlet_source]
        else:
            override = np.asarray(override, dtype=float)
            if override.shape != (self.n_dof,):
                raise ConfigurationError(f"dirichlet override must have {self.n_dof} dofs")
            vals = override[p.dirichlet_dofs]
        self.dirichlet_dofs = p.dirichlet_dofs
        self.dirichlet_vals = vals
        self.g_vec = np.zeros(self.n_dof)
        self.g_vec[p.dirichlet_dofs] = vals

    # .. linear operator L(beta) = L0 + beta_1 L1 + beta_2 L2 ..

    def _stiffness(self, on=slice(None)):
        """The unit-diffusivity stiffness K of the triangles ``on``, its
        axial part weighted by eps2, and their r-weight w."""
        fem, cfg = self.fem, self.cfg
        bx, br = fem.bx[on], fem.br[on]
        stiff = ((cfg.eps2 / cfg.Pe) * bx[:, :, None] * bx[:, None, :]
                 + (1.0 / cfg.Pe) * br[:, :, None] * br[:, None, :])
        return stiff, (fem.area * fem.rbar)[on]

    def _assemble_beta_free(self) -> BetaFreeOperator:
        """L0 from its triplet values in the order of ``_operator_dofs``.
        Species s diffuses with D_blood_s in blood and D_dialysate_s in
        dialysate, and its membrane convection carries sieving_s; its
        membrane diffusion is beta's (``_add_beta_terms``)."""
        fem, sc, p = self.fem, self.cfg.species, self.pattern
        tri, sub = self.mesh.triangles, self.mesh.subdomain_of_triangle
        # per triangle: midedge convection sum_q w_q phi_a(q) (Ux(q) bx_b + Ur(q) br_b)
        conv_b = ((self.velocity.u_x[tri] @ fem.phi_q.T)[:, :, None] * fem.bx[:, None, :]
                  + (self.velocity.u_r[tri] @ fem.phi_q.T)[:, :, None] * fem.br[:, None, :])
        wq = (fem.area / 3.0)[:, None] * fem.r_q
        conv = np.einsum("tq,qa,tqb->tab", wq, fem.phi_q, conv_b)
        stiff, w = self._stiffness()

        vals = []
        for s, k in enumerate(MEMBRANE_BETA):
            # coefficients indexed by Subdomain: blood, membrane, dialysate
            D = np.array([sc.D_blood[s], 0.0, sc.D_dialysate[s]])[sub]
            S = np.array([1.0, sc.sieving[s], 1.0])[sub]
            on = fem.is_blood if k is None else slice(None)
            ke = (D * w)[on][:, None, None] * stiff[on]
            vals.append((ke + conv[on] * S[on][:, None, None]).ravel())
        interface = self._interface_term().ravel()
        vals.extend(interface for k in MEMBRANE_BETA if k is None)

        vals = np.concatenate(vals)
        return BetaFreeOperator(
            values=np.bincount(p.op_pos, weights=vals[p.op_keep], minlength=p.nnz),
            lift=np.bincount(p.lift_rows, weights=vals[p.lift_src] * self.g_vec[p.lift_cols],
                             minlength=p.free.size))

    def _add_beta_terms(self):
        """beta_1 L1 + beta_2 L2 from their triplet values in the order of
        ``_membrane_dofs``: L_k applies the membrane block times D_blood_s to
        each species s that ``MEMBRANE_BETA`` maps to k.  Keeps the values
        they add to L0's block entries ``pattern.beta_pos``
        (``_beta_values``), and the lift of L(beta), L0's plus theirs
        (``_lift``)."""
        sc, p = self.cfg.species, self.pattern
        scale = np.array([self.beta[k] * sc.D_blood[s]
                          for s, k in enumerate(MEMBRANE_BETA) if k is not None])
        vals = (scale[:, None] * self._membrane.ravel()).ravel()
        self._beta_values = np.bincount(p.beta_merge, weights=vals[p.beta_keep],
                                        minlength=p.beta_pos.size)
        self._lift = self.beta_free.lift + np.bincount(
            p.beta_lift_rows, weights=vals[p.beta_lift_src] * self.g_vec[p.beta_lift_cols],
            minlength=p.free.size)

    def _beta_derivative(self, c_flat) -> np.ndarray:
        """(dL/dbeta_k) c_flat = L_k c_flat on the free rows, k = 0, 1:
        (n_free, 2).  L_k applies the membrane block times D_blood_s to each
        species s that ``MEMBRANE_BETA`` maps to k."""
        sc = self.cfg.species
        tri = self.mesh.triangles[self.fem.is_membrane]
        out = np.zeros((self.n_dof, 2))
        for s, k in enumerate(MEMBRANE_BETA):
            if k is not None:
                dofs = N_SPECIES * tri + s
                local = sc.D_blood[s] * np.einsum("tab,tb->ta", self._membrane,
                                                  c_flat[dofs])
                out[:, k] += np.bincount(dofs.ravel(), weights=local.ravel(),
                                         minlength=self.n_dof)
        return out[self.pattern.free]

    def _interface_term(self):
        """-int_{Gamma_bm} r U_r c phi dx for a non-crossing species, as the
        (a, b, edge) entries of the blood-membrane edges: the flux-consistent
        wall condition (D/Pe) d_r c = c U_r, which makes the total albumin
        flux through the membrane wall vanish."""
        mesh, u_r = self.mesh, self.velocity.u_r
        v0, v1 = mesh.edges_with_tag(Boundary.BLOOD_MEMBRANE).T
        h = np.abs(mesh.vertices[v1, 0] - mesh.vertices[v0, 0])
        gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
        phi = np.stack([1.0 - gp, gp])  # (a, g)
        ur = np.outer(1 - gp, u_r[v0]) + np.outer(gp, u_r[v1])  # (g, E)
        # two-point Gauss, weights 1/2
        terms = 0.5 * ur * phi[:, None, :, None] * phi[None, :, :, None]  # (a, b, g, E)
        return -mesh.geom.R1 * h * (terms[:, :, 0] + terms[:, :, 1])

    # .. jacobian / newton ..

    def jacobian(self, c_flat, jf=None) -> SparseMatrix:
        """The free-free block of the Newton Jacobian at ``c_flat``, L(beta)
        minus the lumped reaction Jacobian ``jf`` (``reaction_jacobian`` at
        ``c_flat``, evaluated here if not given), in the pattern's block
        layout: written into the solver's one matrix, which is returned with
        whatever factors its ``lu`` holds."""
        p = self.pattern
        if jf is None:
            jf = reaction_jacobian(c_flat.reshape(-1, N_SPECIES).T, self.cfg.reactions)
        data = self._matrix.data
        data[:] = self.beta_free.values
        data[p.beta_pos] += self._beta_values
        data[p.rx_pos] -= (p.mass_species[:, None, :] * jf).ravel()[p.rx_keep]
        return self._matrix

    def _beta_tangents(self, c_flat) -> np.ndarray:
        """dc/dbeta at the converged field ``c_flat``: the (n_dof, 2) solution
        of J(c) dc/dbeta_k = -L_k c on the free dofs, zero on the Dirichlet
        dofs (their values do not depend on beta).  Both columns refine on
        the factors of the solve that converged to ``c_flat``."""
        dc = np.zeros((self.n_dof, 2))
        dc[self.pattern.free] = solve_linear(self.jacobian(c_flat),
                                             -self._beta_derivative(c_flat))
        return dc

    def initial_field(self) -> np.ndarray:
        """Constant extension of inlet blood values (dialysate inlet values on
        the dialysate channel for the crossing species)."""
        mesh = self.mesh
        in_dialysate = mesh.r_index > mesh.nr_b + mesh.nr_m
        in_blood = mesh.r_index <= mesh.nr_b
        c = np.zeros(self.n_dof)
        for s, k in enumerate(MEMBRANE_BETA):
            species = c[s::N_SPECIES]   # entries N_SPECIES * node + s
            if k is None:
                species[in_blood] = self.bd.inlet_blood[s]
            else:
                species[:] = self.bd.inlet_blood[s]
                species[in_dialysate] = self.bd.inlet_dialysate[s]
        return c

    def project_dirichlet(self, c_flat):
        return np.where(self.pattern.is_dirichlet, self.g_vec, c_flat)

    def newton_norm(self, delta_flat):
        return float(np.sqrt(np.sum(self.pattern.norm_mass * delta_flat**2)))

    def step(self, c_flat, source_nodal=None):
        """One Newton update: the solution x of J x = J c - F(c) with
        x = g on the Dirichlet dofs.

        Only the free dofs are solved for: J_ff x_f = (J (c - g) - F(c))_f
        = M (f(c) + s - f'(c) (c - g)) - L_fD g_D, nodewise; f'(c) is
        evaluated once, for this and for J_ff.  The first step factorizes
        J_ff; later ones refine on the factors the matrix kept
        from the step before (see ``solve_linear``), starting from c_f, which
        leaves only the Newton update to refine, and only to
        ``_NEWTON_FORCING`` of that update.
        """
        p, rp = self.pattern, self.cfg.reactions
        c_nodal = c_flat.reshape(-1, N_SPECIES).T
        shift = (c_flat - self.g_vec).reshape(-1, N_SPECIES).T
        jf = reaction_jacobian(c_nodal, rp)
        f = reaction_source(c_nodal, rp) - np.einsum("ijn,jn->in", jf, shift)
        if source_nodal is not None:
            f = f + source_nodal
        rhs = (p.mass_species * f).T.reshape(-1)[p.free] - self._lift
        x = self.g_vec.copy()
        x[p.free] = solve_linear(self.jacobian(c_flat, jf), rhs, x0=c_flat[p.free],
                                 rtol=_NEWTON_FORCING)
        return x

    def solve(self, c0: np.ndarray | None = None, source_nodal=None,
              tangents: bool = False) -> tuple:
        """Newton solve from the field ``c0`` (default ``initial_field``), its
        Dirichlet dofs replaced by the boundary values, in at most
        ``newton_max_iter + 2`` steps.  Returns (field, NewtonResult) with the
        trace of r-weighted L2 update norms, and with ``tangents`` also
        dc/dbeta at the converged field in ``NewtonResult.tangents``.  Raises
        NewtonError (carrying the partial trace) on linear-solver failure or
        non-convergence, and SolverError when the tangent solve fails."""
        cfg = self.cfg
        c_next = self.project_dirichlet(self.initial_field() if c0 is None else c0)
        trace = []
        self._matrix.lu = None
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
            self._matrix.lu = None  # the factors are the largest thing a solve holds
        return c_next, NewtonResult(n_solves=len(trace), trace=trace, tangents=dc)


# -- observable ---------------------------------------------------------------------

def outlet_concentration(c: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Flow-section average of the field ``c`` at the blood outlet:
    (2 R^2 / R1^2) int r c_i dr over x = L, 0 <= r <= R1, with the radii of
    ``mesh.geom``, integrated exactly for P1 traces."""
    idx = boundary_vertices(mesh, Boundary.OUTLET_BLOOD)
    r = mesh.vertices[idx, 1]
    ra, rb = r[:-1], r[1:]
    h = rb - ra
    out = np.empty(N_SPECIES)
    for s in range(N_SPECIES):
        ca = c[N_SPECIES * idx[:-1] + s]
        cb = c[N_SPECIES * idx[1:] + s]
        # exact integral of r * (linear c) over each edge
        out[s] = np.sum(h * ((2 * ra + rb) * ca + (ra + 2 * rb) * cb) / 6.0)
    return out * 2.0 * mesh.geom.R**2 / mesh.geom.R1**2


def export_field_csv(c: np.ndarray, mesh: Mesh, path):
    """Node table (x, r, c1..c5) of the field ``c`` in vertex order."""
    with open(path, "w") as fh:
        fh.write("x,r,c1,c2,c3,c4,c5\n")
        for k in range(mesh.n_vertices):
            row = np.concatenate([mesh.vertices[k], c[N_SPECIES * k:N_SPECIES * (k + 1)]])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
