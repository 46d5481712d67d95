import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fiberdialysis import linalg, transport
from fiberdialysis.config import load_profile
from fiberdialysis.exceptions import ConfigurationError, NewtonError, SolverError
from fiberdialysis.flow import HydraulicState, VelocityField, compute_velocity_field
from fiberdialysis.mesh import AxiGeometry, Boundary, build_structured_mesh
from fiberdialysis.transport import (BoundaryData, ReactionParams, SpeciesConfig,
                                     TransportConfig, TransportSolver, export_field_csv,
                                     outlet_concentration, reaction_jacobian, reaction_source)

GEOM = AxiGeometry(L=1.0, R1=0.4, R2=0.6, R=1.0)
BETA = (0.8, 0.4)


def species_cfg(D=1.0):
    return SpeciesConfig(D_blood=(D,) * 5, D_dialysate=(D,) * 5, sieving=(1.0,) * 5)


def transport_cfg(deltas=(0.3, 0.3, 0.6), Fd=2.0, Pe=10.0, eps2=0.01, **kw):
    return TransportConfig(Pe=Pe, eps2=eps2, species=kw.pop("species", species_cfg()),
                           reactions=ReactionParams(*deltas, Fd), **kw)


def species_rows(field):
    """The dof vector ``field`` (entry 5*node + species) as (5, n_vertices)."""
    return field.reshape(-1, 5).T


def still_field(mesh):
    return VelocityField(mesh, lambda x, r, region: (0.0 * x, 0.0 * x))


def flow_field(mesh, Q_b=0.25, Q_d=0.5, K=1e-3):
    hyd = HydraulicState(p_in_b=2.0, p_out_b=1.6, p_in_d=0.6, p_out_d=0.4,
                         K_over_mu=K, Q_b=Q_b, Q_d=Q_d)
    return compute_velocity_field(mesh, hyd)


# -- reaction kinetics ----------------------------------------------------------

def test_reaction_equilibrium_state_is_stationary():
    rp = ReactionParams(1.0, 1.0, 1.0, 1.0)
    f = reaction_source(np.ones(5), rp)
    assert np.allclose(f, 0.0, atol=1e-15)


def test_reaction_hand_computed_oracle():
    # mass-action terms evaluated by hand for c=(2,1,0,1,0), deltas=1, Fd=1
    rp = ReactionParams(1.0, 1.0, 1.0, 1.0)
    f = reaction_source(np.array([2.0, 1.0, 0.0, 1.0, 0.0]), rp)
    assert np.allclose(f, [-4.0, -2.0, 2.0, -2.0, 2.0])


def test_reaction_conservation_identities_exactly():
    rng = np.random.default_rng(5)
    rp = ReactionParams(0.7, 1.3, 2.1, 0.4)
    c = rng.uniform(0.0, 5.0, size=(5, 10_000))
    f = reaction_source(c, rp)
    assert np.all(f[0] + (f[2] + f[4]) == 0.0)   # total calcium
    assert np.all(f[1] + f[2] == 0.0)            # albumin binding sites
    assert np.all(f[3] + f[4] == 0.0)            # total citrate


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(6)
    rp = ReactionParams(0.9, 1.1, 1.7, 0.8)
    for _ in range(10):
        c = rng.uniform(0.1, 3.0, 5)
        jac = reaction_jacobian(c, rp)
        h = 1e-6
        fd = np.empty((5, 5))
        for j in range(5):
            cp, cm = c.copy(), c.copy()
            cp[j] += h
            cm[j] -= h
            fd[:, j] = (reaction_source(cp, rp) - reaction_source(cm, rp)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_jacobian_linear_limit():
    rp = ReactionParams(0.0, 0.0, 0.0, 0.5)
    jac = reaction_jacobian(np.array([2.0, 3.0, 1.0, 4.0, 5.0]), rp)
    expected = np.zeros((5, 5))
    expected[0, 2] = 2.0   # 1/Fd
    expected[1, 2] = 2.0
    expected[2, 2] = -2.0
    assert np.allclose(jac, expected)


def test_jacobian_conservation_columns():
    rng = np.random.default_rng(7)
    rp = ReactionParams(0.6, 0.9, 1.4, 1.2)
    for _ in range(5):
        jac = reaction_jacobian(rng.uniform(0, 4, 5), rp)
        assert np.all(jac[0] + (jac[2] + jac[4]) == 0.0)
        assert np.all(jac[1] + jac[2] == 0.0)
        assert np.all(jac[3] + jac[4] == 0.0)


# -- assembled system -------------------------------------------------------------

def test_step_returns_the_imposed_dirichlet_values():
    mesh = build_structured_mesh(GEOM, 4, 2, 1, 2)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(0.5, 1.0, 0.1, 2.0, 0.7),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    solver = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA)
    c1 = solver.step(solver.initial_field())
    assert np.array_equal(c1[solver.dirichlet_dofs], solver.dirichlet_vals)


def _jacobian_dense(solver, c):
    """``solver.jacobian(c)`` mapped back through ``pattern.free`` to a
    dense n_dof matrix, zero in the Dirichlet rows and columns."""
    free = solver.pattern.free
    out = np.zeros((solver.n_dof, solver.n_dof))
    out[np.ix_(free, free)] = solver.jacobian(c).to_csc().toarray()
    return out


def _oracle_cases():
    """(solver, field, source) on a small mesh: plain, with a Dirichlet
    override, and with a nodal source (criterion 5(c) uses both)."""
    mesh = build_structured_mesh(GEOM, 5, 3, 2, 3)
    bd = BoundaryData(inlet_blood=(0.2, 3.0, 0.1, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    rng = np.random.default_rng(12)
    velocity = flow_field(mesh)
    override = rng.uniform(0.5, 1.5, 5 * mesh.n_vertices)
    source = rng.standard_normal((5, mesh.n_vertices))
    c = rng.uniform(0.1, 2.0, 5 * mesh.n_vertices)
    return [(TransportSolver(mesh, velocity, transport_cfg(), bd, BETA), c, None),
            (TransportSolver(mesh, velocity, transport_cfg(), bd, BETA,
                             dirichlet_override=override), c, None),
            (TransportSolver(mesh, velocity, transport_cfg(), bd, BETA), c, source)]


@pytest.mark.parametrize("case", range(3))
def test_step_matches_full_system_oracle(case):
    solver, c, source = _oracle_cases()[case]
    F, J = _full_system_oracle(solver)
    expected = np.linalg.solve(J(c), J(c) @ c - F(c, source))
    got = solver.step(c, source)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_cold_solve_independent_of_earlier_solves_on_the_mesh():
    # the factorization order belongs to the mesh, not to its first solve
    bd = BoundaryData(inlet_blood=(0.11, 3.7, 0.06, 5.0, 1.4),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    other = BoundaryData(inlet_blood=(0.3, 2.0, 0.2, 4.0, 0.5),
                         inlet_dialysate=(1.0, 0, 0, 0, 0))

    def outlet(mesh, velocity, beta, data):
        field, _ = TransportSolver(mesh, velocity, transport_cfg(), data, beta).solve()
        return outlet_concentration(field, mesh)

    first_mesh = build_structured_mesh(GEOM, 10, 4, 2, 4)
    first = outlet(first_mesh, flow_field(first_mesh), (0.8, 0.4), bd)
    mesh = build_structured_mesh(GEOM, 10, 4, 2, 4)
    velocity = flow_field(mesh)
    outlet(mesh, velocity, (0.2, 0.9), other)
    outlet(mesh, velocity, (1.0, 0.05), bd)
    assert np.array_equal(outlet(mesh, velocity, (0.8, 0.4), bd), first)


def test_linear_regime_block_structure():
    # deltas = 0, U = 0: coupling only through the linear c3 column
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    cfg = transport_cfg(deltas=(0.0, 0.0, 0.0))
    bd = BoundaryData(inlet_blood=(1, 1, 0, 1, 1), inlet_dialysate=(1, 0, 0, 1, 1))
    solver = TransportSolver(mesh, still_field(mesh), cfg, bd, BETA)
    rows, cols = np.nonzero(_jacobian_dense(solver, solver.initial_field()))
    off_species = rows % 5 != cols % 5
    assert np.all(cols[off_species] % 5 == 2)


def test_operator_matches_directional_difference_quotient():
    # F is quadratic in c: F(c+hv) - F(c) = h grad_F(c) v + h^2 Q(v, v)
    mesh = build_structured_mesh(GEOM, 4, 2, 2, 2)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(0.2, 3.0, 0.1, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    solver = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA)
    F, _ = _full_system_oracle(solver)
    free = solver.pattern.free
    rng = np.random.default_rng(8)
    c = solver.project_dirichlet(rng.uniform(0.1, 2.0, solver.n_dof))
    v = np.zeros(solver.n_dof)
    v[free] = rng.standard_normal(free.size)
    A = _jacobian_dense(solver, c)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        quot = (F(c + h * v) - F(c)) / h
        errs.append(np.linalg.norm((quot - A @ v)[free]))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)


def test_jacobian_consistency_second_order():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(0.2, 3.0, 0.1, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    solver = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA)
    F, _ = _full_system_oracle(solver)
    free = solver.pattern.free
    rng = np.random.default_rng(9)
    c = solver.project_dirichlet(rng.uniform(0.1, 2.0, solver.n_dof))
    v = np.zeros(solver.n_dof)
    v[free] = rng.standard_normal(free.size)
    A = _jacobian_dense(solver, c)
    errs = [np.linalg.norm((F(c + h * v) - F(c) - h * (A @ v))[free]) for h in (1e-2, 5e-3)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def _operator_oracle(solver, beta=None):
    """L of ``solver`` at ``beta`` (default the solver's) as a dense matrix
    built triangle by triangle and edge by edge from the weak form, with
    identity Dirichlet rows."""
    mesh, sc, cfg = solver.mesh, solver.cfg.species, solver.cfg
    beta = solver.beta if beta is None else beta
    ux, ur = solver.velocity.u_x, solver.velocity.u_r
    L = np.zeros((solver.n_dof, solver.n_dof))
    for t, (tri, sub) in enumerate(zip(mesh.triangles, mesh.subdomain_of_triangle)):
        (x1, r1), (x2, r2), (x3, r3) = mesh.vertices[tri]
        det = (x2 - x1) * (r3 - r1) - (x3 - x1) * (r2 - r1)
        gx = np.array([r2 - r3, r3 - r1, r1 - r2]) / det  # d phi_a / dx
        gr = np.array([x3 - x2, x1 - x3, x2 - x1]) / det  # d phi_a / dr
        area, rbar = 0.5 * det, (r1 + r2 + r3) / 3.0
        for s in range(5):
            if sub == 0:
                D, S = sc.D_blood[s], 1.0
            elif s in (1, 2):
                continue  # albumin species live in blood only
            elif sub == 1:  # d_Ca scales free calcium, d_Ci both citrate species
                D, S = beta[0 if s == 0 else 1] * sc.D_blood[s], sc.sieving[s]
            else:
                D, S = sc.D_dialysate[s], 1.0
            for a in range(3):
                for b in range(3):
                    # centroid-rule diffusion, exact for constant gradients
                    val = D * area * rbar * (cfg.eps2 * gx[a] * gx[b] + gr[a] * gr[b]) / cfg.Pe
                    for m, n in ((0, 1), (1, 2), (0, 2)):  # midedge convection
                        phi_a = 0.5 if a in (m, n) else 0.0
                        u_x = 0.5 * (ux[tri[m]] + ux[tri[n]])
                        u_r = 0.5 * (ur[tri[m]] + ur[tri[n]])
                        r_mid = 0.5 * (mesh.vertices[tri[m], 1] + mesh.vertices[tri[n], 1])
                        val += area / 3.0 * r_mid * S * (u_x * gx[b] + u_r * gr[b]) * phi_a
                    L[5 * tri[a] + s, 5 * tri[b] + s] += val
    # albumin wall term -R1 int U_r phi_a phi_b dx, exact: U_r is linear along
    # the edge and int_e l0^i l1^j = h i! j! / (i + j + 1)!
    for v in mesh.edges_with_tag(Boundary.BLOOD_MEMBRANE):
        h = abs(mesh.vertices[v[1], 0] - mesh.vertices[v[0], 0])
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    i = (a == 0) + (b == 0) + (c == 0)
                    weight = h * math.factorial(i) * math.factorial(3 - i) / 24.0
                    for s in (1, 2):
                        L[5 * v[a] + s, 5 * v[b] + s] -= GEOM.R1 * ur[v[c]] * weight
    L[solver.dirichlet_dofs] = 0.0
    L[solver.dirichlet_dofs, solver.dirichlet_dofs] = 1.0
    return L


def _full_system_oracle(solver):
    """(F, J) of ``solver`` as dense oracles on the full dof vector:
    F(c, s) = L c - M (f(c) + s) - g, with identity Dirichlet rows (no mass
    there), and its Jacobian J(c) = L - M f'(c), L from ``_operator_oracle``
    and M the vertex-lumped r-weighted mass, on blood only for the albumin
    species."""
    fem, rp = solver.fem, solver.cfg.reactions
    L = _operator_oracle(solver)
    mass = np.stack([fem.lump_blood if s in (1, 2) else fem.lump_all for s in range(5)])
    mass = mass.T.ravel()
    mass[solver.dirichlet_dofs] = 0.0
    g = np.zeros(solver.n_dof)
    g[solver.dirichlet_dofs] = solver.dirichlet_vals

    def F(c, source=None):
        f = reaction_source(species_rows(c), rp)
        if source is not None:
            f = f + source
        return L @ c - mass * f.T.ravel() - g

    def J(c):
        jf = reaction_jacobian(species_rows(c), rp)  # (5, 5, n_vertices)
        out = L.copy()
        for v in range(solver.mesh.n_vertices):
            node = slice(5 * v, 5 * v + 5)
            out[node, node] -= mass[node, None] * jf[:, :, v]
        return out

    return F, J


def test_operator_matches_an_element_by_element_oracle():
    # D, beta and sieving differ by species and subdomain, the flow crosses
    # the membrane, and eps2 != 1 weights the axial diffusion.  L(beta) =
    # L0 + beta_1 L1 + beta_2 L2 and its lift at several beta, (0, 0) among
    # them, with L0 assembled for each and with one kept L0 reused; then the
    # tangent right-hand side -L_k c against the oracle's -(dL/dbeta_k) c
    mesh = build_structured_mesh(GEOM, 5, 3, 2, 3)
    species = SpeciesConfig(D_blood=(1.0, 0.7, 0.6, 0.9, 0.8),
                            D_dialysate=(1.3, 1.1, 1.2, 1.4, 1.5),
                            sieving=(0.9, 0.5, 0.6, 0.7, 0.3))
    bd = BoundaryData(inlet_blood=(0.2, 3.0, 0.1, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    velocity, cfg = flow_field(mesh, K=0.05), transport_cfg(species=species)
    kept = TransportSolver(mesh, velocity, cfg, bd, BETA)
    p, no_reaction = kept.pattern, np.zeros((5, 5, mesh.n_vertices))
    for beta in ((0.0, 0.0), BETA, (2.5, 0.03), (0.0, 1.7)):
        expected = _operator_oracle(kept, beta)
        free_free = expected[np.ix_(p.free, p.free)]
        lift = expected[np.ix_(p.free, kept.dirichlet_dofs)] @ kept.dirichlet_vals
        for solver in (TransportSolver(mesh, velocity, cfg, bd, beta),
                       TransportSolver(mesh, velocity, cfg, bd, beta, beta_free=kept.beta_free)):
            # the Jacobian with no reaction term is L(beta)'s block
            block = solver.jacobian(solver.initial_field(), no_reaction).to_csc().toarray()
            assert np.max(np.abs(block - free_free)) <= 1e-13 * np.max(np.abs(free_free))
            assert np.max(np.abs(solver._lift - lift)) <= 1e-13 * np.max(np.abs(lift))
    # L is affine in beta, so the oracle's dL/dbeta_k is L(e_k) - L(0)
    c = kept.project_dirichlet(np.random.default_rng(26).uniform(0.1, 2.0, kept.n_dof))
    at_zero = _operator_oracle(kept, (0.0, 0.0))
    for k, unit in enumerate(((1.0, 0.0), (0.0, 1.0))):
        expected = -((_operator_oracle(kept, unit) - at_zero) @ c)[p.free]
        rhs = -kept._beta_derivative(c)[:, k]
        assert np.max(np.abs(rhs - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_velocity_mesh_mismatch_rejected():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    other = build_structured_mesh(GEOM, 4, 2, 1, 2)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(1, 1, 1, 1, 1), inlet_dialysate=(1, 0, 0, 1, 1))
    with pytest.raises(ConfigurationError):
        TransportSolver(mesh, still_field(other), cfg, bd, BETA)


def test_negative_newton_max_iter_rejected():
    with pytest.raises(ConfigurationError, match="newton_max_iter must be >= 0"):
        transport_cfg(newton_max_iter=-1)
    assert transport_cfg(newton_max_iter=0).newton_max_iter == 0


def test_negative_beta_rejected():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    bd = BoundaryData(inlet_blood=(1, 1, 1, 1, 1), inlet_dialysate=(1, 0, 0, 1, 1))
    with pytest.raises(ConfigurationError, match="beta must be nonnegative"):
        TransportSolver(mesh, still_field(mesh), transport_cfg(), bd, (-0.1, 0.4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_beta_rejected(bad):
    # NaN passes a plain "below 0" check
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    bd = BoundaryData(inlet_blood=(1, 1, 1, 1, 1), inlet_dialysate=(1, 0, 0, 1, 1))
    with pytest.raises(ConfigurationError, match="beta must be nonnegative and finite"):
        TransportSolver(mesh, still_field(mesh), transport_cfg(), bd, (0.8, bad))


# -- Newton solver ------------------------------------------------------------------

def test_linear_problem_converges_in_one_productive_iteration():
    mesh = build_structured_mesh(GEOM, 6, 3, 2, 3)
    cfg = transport_cfg(deltas=(0.0, 0.0, 0.0))
    bd = BoundaryData(inlet_blood=(0.3, 2.0, 0.0, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    _, res = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA).solve()
    assert len(res.trace) == 2
    assert res.trace[1] <= 1e-10 * max(1.0, res.trace[0])


def test_constant_solution_for_pure_diffusion():
    # U = 0, deltas = 0 and c3 = 0 at the inlet: every crossing species with the
    # same value on both inlets stays constant, and so do the blood species
    mesh = build_structured_mesh(GEOM, 4, 2, 2, 2)
    cfg = transport_cfg(deltas=(0.0, 0.0, 0.0))
    bd = BoundaryData(inlet_blood=(2.0, 1.5, 0.0, 2.0, 2.0),
                      inlet_dialysate=(2.0, 0, 0, 2.0, 2.0))
    field, _ = TransportSolver(mesh, still_field(mesh), cfg, bd, BETA).solve()
    blood = mesh.vertices[:, 1] <= GEOM.R1 + 1e-12
    rows = species_rows(field)
    for s, expected in ((0, 2.0), (3, 2.0), (4, 2.0)):
        assert np.max(np.abs(rows[s] - expected)) < 1e-10
    assert np.max(np.abs(rows[1, blood] - 1.5)) < 1e-10
    assert np.max(np.abs(rows[2])) < 1e-10


def test_newton_converges_monotonically_on_physical_data():
    mesh = build_structured_mesh(GEOM, 20, 6, 3, 6)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(0.11, 3.71602, 0.0577928, 5.03048, 1.37152),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    field, res = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA).solve()
    assert len(res.trace) <= 10
    assert all(res.trace[i + 1] < res.trace[i] for i in range(len(res.trace) - 1))


def test_newton_error_carries_trace():
    mesh = build_structured_mesh(GEOM, 6, 3, 2, 3)
    cfg = transport_cfg(newton_max_iter=0, newton_tol=1e-14)
    bd = BoundaryData(inlet_blood=(0.11, 3.7, 0.06, 5.0, 1.4),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    with pytest.raises(NewtonError) as exc:
        TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA).solve()
    assert len(exc.value.trace) >= 1


def _tight_tol_solver(newton_max_iter):
    # reaches 1e-14 only at the sixth step, so newton_max_iter <= 3 fails
    mesh = build_structured_mesh(GEOM, 6, 3, 2, 3)
    cfg = transport_cfg(newton_max_iter=newton_max_iter, newton_tol=1e-14)
    bd = BoundaryData(inlet_blood=(0.11, 3.7, 0.06, 5.0, 1.4),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    return TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA)


@pytest.mark.parametrize("max_iter", [0, 1])
def test_newton_takes_max_iter_plus_two_steps(max_iter):
    with pytest.raises(NewtonError, match=f"did not reach tol 1e-14 in {max_iter} iterations"
                       ) as exc:
        _tight_tol_solver(max_iter).solve()
    assert len(exc.value.trace) == max_iter + 2


@pytest.mark.parametrize("failing_call, where", [(1, "start"), (2, "iteration 1"),
                                                 (4, "iteration 3")])
def test_linear_failure_names_the_newton_step(monkeypatch, failing_call, where):
    with pytest.raises(NewtonError) as full:
        _tight_tol_solver(3).solve()
    calls = [0]
    step = TransportSolver.step

    def failing_step(self, c_flat, source_nodal=None):
        calls[0] += 1
        if calls[0] == failing_call:
            raise SolverError("injected LU breakdown")
        return step(self, c_flat, source_nodal)

    monkeypatch.setattr(TransportSolver, "step", failing_step)
    with pytest.raises(NewtonError, match=f"linear solve failed at Newton {where}: "
                                          "injected LU breakdown") as exc:
        _tight_tol_solver(3).solve()
    assert exc.value.trace == full.value.trace[:failing_call - 1]


def test_solver_is_deterministic():
    mesh = build_structured_mesh(GEOM, 8, 3, 2, 3)
    cfg = transport_cfg()
    bd = BoundaryData(inlet_blood=(0.11, 3.7, 0.06, 5.0, 1.4),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    f1, _ = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA).solve()
    f2, _ = TransportSolver(mesh, flow_field(mesh), cfg, bd, BETA).solve()
    assert np.array_equal(f1, f2)


# -- one factorization per solve ------------------------------------------------------

def _profile_solver(res, beta):
    """Solver of the packaged profile's physics on mesh ``res`` at beta."""
    prof = load_profile()
    mesh = build_structured_mesh(prof.geometry, *res)
    cfg = prof.transport_config()
    bd = BoundaryData(inlet_blood=(0.11, 3.71602, 0.0577928, 5.03048, 1.37152),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    velocity = compute_velocity_field(mesh, prof.base_hydraulics())
    return TransportSolver(mesh, velocity, cfg, bd, beta)


def _one_lu_per_step_newton(solver, c0, monkeypatch):
    """``solve``'s Newton loop with each step solved on a fresh LU of the
    solver's own block: (final flat field, trace)."""
    monkeypatch.setattr(transport, "_NEWTON_FORCING", None)
    cfg = solver.cfg
    c, trace = solver.project_dirichlet(c0), []
    while not trace or (len(trace) <= cfg.newton_max_iter + 1 and trace[-1] > cfg.newton_tol):
        solver.jacobian(c).lu = None
        c_next = solver.step(c)
        trace.append(solver.newton_norm(c_next - c))
        c = c_next
    return c, trace


@pytest.fixture
def lu_count(monkeypatch):
    """Number of LU factorizations since the test started, of either engine."""
    calls = [0]
    init = linalg.Factorization.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(linalg.Factorization, "__init__", counted)
    return lambda: calls[0]


@pytest.mark.parametrize("res, warm", [((40, 6, 4, 5), False), ((40, 6, 4, 5), True),
                                       ((80, 12, 8, 10), False)])
def test_solve_matches_one_lu_per_step_newton(res, warm, lu_count, monkeypatch):
    solver = _profile_solver(res, (0.8, 0.4))
    c0 = _profile_solver(res, (0.6, 0.3)).solve()[0] if warm else solver.initial_field()
    before = lu_count()
    field, result = solver.solve(c0)
    lus = lu_count() - before
    expected, trace = _one_lu_per_step_newton(solver, c0, monkeypatch)
    assert len(result.trace) == len(trace) >= 3
    assert lus < len(trace)
    assert np.linalg.norm(field - expected) <= 1e-12 * np.linalg.norm(expected)


def test_two_step_warm_solve_factorizes_once(lu_count):
    solver = _profile_solver((40, 6, 4, 5), (0.8, 0.4))
    c0, _ = _profile_solver((40, 6, 4, 5), (0.7, 0.4)).solve()
    before = lu_count()
    _, result = solver.solve(c0)
    assert len(result.trace) == 2
    assert lu_count() - before == 1


def test_inexact_newton_steps_keep_the_iteration_and_save_back_solves(monkeypatch):
    # refined steps stop at _NEWTON_FORCING of their update: the same Newton
    # steps as steps refined to roundoff, fewer back-solves, the same outlets
    solves = [0]
    band_solve = linalg._BandLU.solve

    def counted(self, b):
        solves[0] += 1
        return band_solve(self, b)

    monkeypatch.setattr(linalg._BandLU, "solve", counted)
    runs = []
    for forcing in (None, transport._NEWTON_FORCING):
        monkeypatch.setattr(transport, "_NEWTON_FORCING", forcing)
        solver = _profile_solver((40, 6, 4, 5), (0.8, 0.4))
        solves[0] = 0
        field, result = solver.solve()
        runs.append((solves[0], result, outlet_concentration(field, solver.mesh)))
    (full_back_solves, full, full_outlet), (back_solves, inexact, outlet) = runs
    assert inexact.n_solves == full.n_solves >= 3
    assert len(inexact.trace) == len(full.trace)
    assert back_solves < full_back_solves
    assert np.max(np.abs(outlet - full_outlet) / np.abs(full_outlet)) <= 1e-9


@pytest.mark.parametrize("max_iter", [25, 0])
def test_solve_releases_its_factorization(monkeypatch, max_iter):
    # the factors are the largest thing a solve holds; none may outlive it,
    # whether it converges or raises
    made = []
    init = linalg.Factorization.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(linalg.Factorization, "__init__", tracked)
    solver = _tight_tol_solver(max_iter)
    try:
        solver.solve()
    except NewtonError:
        assert max_iter == 0
    gc.collect()
    assert made and all(ref() is None for ref in made)


def _block_csc(solver, c):
    """A copy of the solver's free block of J at ``c``, in the pattern's order."""
    return solver.jacobian(c).to_csc().copy()


@pytest.mark.parametrize("res", [(40, 6, 4, 5), (80, 12, 8, 10)])
def test_newton_block_order_and_engine_follow_the_band_cap(res, monkeypatch):
    # both blocks take the axial-column order (x index, radial level,
    # species) and float32 band factors; with a cap below their band
    # array, SuperLU factorizes
    solver = _profile_solver(res, (0.8, 0.4))
    p, mesh = solver.pattern, solver.mesh
    A = _block_csc(solver, solver.initial_field())
    node, species = np.divmod(p.free, 5)
    j, i = np.divmod(node, mesh.nx + 1)
    assert np.all(np.diff((i * (mesh.nr + 1) + j) * 5 + species) > 0)
    factors = linalg.Factorization(A, p.layout)
    assert isinstance(factors._lu, linalg._BandLU)
    assert factors._lu._ab.dtype == np.float32
    monkeypatch.setattr(linalg, "_BAND_BYTES", p.layout.rows * p.free.size * 4 - 1)
    assert isinstance(linalg.Factorization(A)._lu, spla.SuperLU)


def _band_and_superlu_agree(monkeypatch, res, seed):
    # the same block of J at a converged field: float32 band factors refined
    # in float64, and SuperLU, a direct solve each
    solver = _profile_solver(res, (0.8, 0.4))
    field, _ = solver.solve()
    A = _block_csc(solver, field)
    b = np.random.default_rng(seed).standard_normal((A.shape[0], 2))
    band = linalg.Factorization(A)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_BAND_BYTES", 0)
        superlu = linalg.Factorization(A)
    x_band, x_superlu = band.solve(A, b), superlu.solve(A, b)
    assert isinstance(band._lu, linalg._BandLU)
    assert isinstance(superlu._lu, spla.SuperLU)
    assert np.max(np.abs(x_band - x_superlu)) <= 1e-12 * np.max(np.abs(x_superlu))


def test_float32_band_and_superlu_agree_on_a_default_newton_block(monkeypatch):
    _band_and_superlu_agree(monkeypatch, (80, 12, 8, 10), 25)


def test_band_and_superlu_engines_agree_on_a_coarse_newton_block(monkeypatch):
    _band_and_superlu_agree(monkeypatch, (40, 6, 4, 5), 22)


def test_band_layout_is_computed_once_per_pattern(monkeypatch):
    # every solver on a mesh hands the pattern's layout to its LUs
    made = [0]
    init = linalg.BandLayout.__init__

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(linalg.BandLayout, "__init__", counted)
    first = _profile_solver((40, 6, 4, 5), (0.8, 0.4))
    layout, built = first.pattern.layout, made[0]
    first.solve()
    solver = TransportSolver(first.mesh, first.velocity, first.cfg, first.bd, (0.3, 0.6))
    solver.solve(tangents=True)
    assert made[0] == built == 1
    assert solver.pattern.layout is layout


# -- tangents inside the solve ---------------------------------------------------------

@pytest.mark.parametrize("res, warm", [((40, 6, 4, 5), False), ((40, 6, 4, 5), True),
                                       ((80, 12, 8, 10), False), ((80, 12, 8, 10), True)])
def test_in_solve_tangents_match_a_direct_solve(res, warm, lu_count):
    # dc/dbeta refined on the solve's own factors against spsolve of the
    # free block of J at the converged field, with the right-hand side
    # -(L(beta + e_k) - L(beta)) c (L is affine in beta) taken from two
    # solvers' blocks and lifts at that field, where the reaction terms
    # cancel; measured 1.4e-14 relative.  The tangents take no
    # factorization of their own
    beta = (0.8, 0.4)
    solver = _profile_solver(res, beta)
    c0 = _profile_solver(res, (0.7, 0.45)).solve()[0] if warm else None
    before = lu_count()
    plain, _ = solver.solve(c0)
    lus = lu_count() - before
    field, result = solver.solve(c0, tangents=True)
    assert lu_count() - before == 2 * lus
    assert np.array_equal(field, plain)
    c, p = field, solver.pattern
    A = solver.jacobian(c).to_csc().copy()
    for k in range(2):
        shifted = list(beta)
        shifted[k] += 1.0
        other = _profile_solver(res, shifted)
        rhs = -((other.jacobian(c).to_csc() - A) @ c[p.free] + (other._lift - solver._lift))
        expected = np.zeros(solver.n_dof)
        expected[p.free] = spla.spsolve(A, rhs)
        error = np.max(np.abs(result.tangents[:, k] - expected))
        assert error <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("fail", [False, True])
def test_tangent_solve_releases_its_factorization(monkeypatch, fail):
    # a failed tangent solve raises its own SolverError, not a NewtonError:
    # Newton converged.  No factors outlive the solve either way
    made = []
    init = linalg.Factorization.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    def failing_tangents(A, b, x0=None, rtol=None):
        if np.ndim(b) == 2:
            raise SolverError("forced tangent failure")
        return linalg.solve_linear(A, b, x0, rtol)

    monkeypatch.setattr(linalg.Factorization, "__init__", tracked)
    if fail:
        monkeypatch.setattr(transport, "solve_linear", failing_tangents)
    solver = _profile_solver((40, 6, 4, 5), (0.8, 0.4))
    if fail:
        with pytest.raises(SolverError, match="forced tangent failure"):
            solver.solve(tangents=True)
    else:
        assert solver.solve(tangents=True)[1].tangents.shape == (solver.n_dof, 2)
    gc.collect()
    assert made and all(ref() is None for ref in made)


def test_solve_with_tangents_builds_its_matrix_once(monkeypatch):
    # every step and the tangents write their values into the solver's one
    # block matrix; no step makes a matrix of its own
    prof = load_profile()
    mesh = build_structured_mesh(prof.geometry, 40, 6, 4, 5)
    velocity = compute_velocity_field(mesh, prof.base_hydraulics())
    bd = BoundaryData(inlet_blood=(0.11, 3.71602, 0.0577928, 5.03048, 1.37152),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    made = [0]
    init = linalg.SparseMatrix.__init__

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(linalg.SparseMatrix, "__init__", counted)
    solver = TransportSolver(mesh, velocity, prof.transport_config(), bd, (0.8, 0.4))
    _, result = solver.solve(tangents=True)
    assert result.n_solves == 4 and result.tangents is not None
    assert made[0] == 1


def test_solve_without_tangents_returns_none():
    _, result = _profile_solver((40, 6, 4, 5), (0.8, 0.4)).solve()
    assert result.tangents is None


# -- outlet observable -----------------------------------------------------------------

def test_outlet_of_constant_field():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    field = np.tile([1.0, 2.0, 3.0, 4.0, 5.0], mesh.n_vertices)
    out = outlet_concentration(field, mesh)
    assert np.allclose(out, [1, 2, 3, 4, 5], rtol=1e-13)


def test_outlet_of_linear_trace_closed_form():
    geom = AxiGeometry(L=1.0, R1=0.5, R2=0.7, R=1.0)
    mesh = build_structured_mesh(geom, 3, 4, 1, 2)
    field = np.repeat(mesh.vertices[:, 1], 5)  # c_i(r) = r
    out = outlet_concentration(field, mesh)
    # (2 / 0.25) * int_0^0.5 r^2 dr = 8 * (0.125 / 3) = 1/3, exact for P1 traces
    assert np.allclose(out, 1.0 / 3.0, rtol=1e-13)


def test_outlet_linearity():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    rng = np.random.default_rng(10)
    a, b = 1.7, -0.4
    c1 = rng.uniform(0, 1, 5 * mesh.n_vertices)
    c2 = rng.uniform(0, 1, 5 * mesh.n_vertices)
    lhs = outlet_concentration(a * c1 + b * c2, mesh)
    rhs = a * outlet_concentration(c1, mesh) + b * outlet_concentration(c2, mesh)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_field_export(tmp_path):
    # entry (vertex k, species s) of the dof vector is 5 k + s, and row k of
    # the table lists vertex k's five species in order
    mesh = build_structured_mesh(GEOM, 2, 1, 1, 1)
    field = np.arange(5.0 * mesh.n_vertices)
    path = tmp_path / "field.csv"
    export_field_csv(field, mesh, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,r,c1,c2,c3,c4,c5"
    assert len(lines) == 1 + mesh.n_vertices
    for k, line in enumerate(lines[1:]):
        cells = [float(v) for v in line.split(",")]
        assert cells[:2] == mesh.vertices[k].tolist()
        assert cells[2:] == [5.0 * k + s for s in range(5)]


def _total_calcium_boundary_flux(mesh, U, field, tag, sign):
    """Convective flux of c1+c3+c5 through a vertical boundary segment:
    2*pi int r U_x c dr, Simpson (exact for the P1 x P1 x r integrand)."""
    from fiberdialysis.mesh import boundary_vertices

    idx = boundary_vertices(mesh, tag)
    rows = species_rows(field)
    total = rows[0] + rows[2] + rows[4]
    r = mesh.vertices[idx, 1]
    ux = U.u_x[idx]
    ct = total[idx]
    flux = 0.0
    for a in range(len(idx) - 1):
        b = a + 1
        fa = r[a] * ux[a] * ct[a]
        fb = r[b] * ux[b] * ct[b]
        fm = (0.5 * (r[a] + r[b])) * (0.5 * (ux[a] + ux[b])) * (0.5 * (ct[a] + ct[b]))
        flux += (r[b] - r[a]) / 6.0 * (fa + 4 * fm + fb)
    return sign * 2 * np.pi * flux


@pytest.mark.slow
def test_total_calcium_flux_balances_at_discretization_tolerance():
    # with S = 1 and beta = 1 the total c1+c3+c5 is a conserved scalar;
    # the convective in/out balance closes at the discretization level and
    # tightens under refinement
    from fiberdialysis.mesh import Boundary

    sc = species_cfg()
    bd = BoundaryData(inlet_blood=(0.11, 3.71602, 0.0577928, 5.03048, 1.37152),
                      inlet_dialysate=(1.25, 0, 0, 0, 0))
    imbalance = []
    for nx, nb, nm, nd in [(20, 6, 3, 6), (40, 12, 6, 12)]:
        mesh = build_structured_mesh(GEOM, nx, nb, nm, nd)
        U = flow_field(mesh)
        cfg = TransportConfig(Pe=10.0, eps2=0.01, species=sc,
                              reactions=ReactionParams(0.14, 0.3, 0.6, 0.5),
                              newton_tol=1e-8, newton_max_iter=30)
        field, _ = TransportSolver(mesh, U, cfg, bd, (1.0, 1.0)).solve()
        influx = (_total_calcium_boundary_flux(mesh, U, field, Boundary.INLET_BLOOD, +1)
                  + _total_calcium_boundary_flux(mesh, U, field, Boundary.INLET_DIALYSATE, -1))
        outflux = (_total_calcium_boundary_flux(mesh, U, field, Boundary.OUTLET_BLOOD, +1)
                   + _total_calcium_boundary_flux(mesh, U, field, Boundary.OUTLET_DIALYSATE, -1))
        imbalance.append(abs(influx - outflux) / abs(influx))
    assert imbalance[0] < 0.02
    assert imbalance[1] < 0.6 * imbalance[0]


# -- manufactured-solution convergence ---------------------------------------------------

class Manufactured:
    """Exact cosine-mode solution with Neumann-compatible traces and the
    matching volumetric forcing, on the K=0 velocity field."""

    A = np.array([1.0, 0.9, 0.7, 0.8, 0.6])
    B = np.array([0.4, 0.35, 0.3, 0.3, 0.25])
    M = np.array([1, 0, 0, 2, 1])  # radial mode (crossing species, over R)

    def __init__(self, geom, cfg):
        self.geom = geom
        self.cfg = cfg
        self.kx = np.pi / geom.L
        self.kb = np.pi / geom.R1  # doubled cos^2 wavenumber for blood species

    def exact(self, s, x, r):
        if s in (1, 2):
            rad = np.where(r <= self.geom.R1 + 1e-14,
                           0.5 * (1.0 + np.cos(self.kb * r)), 0.0)
        else:
            km = self.M[s] * np.pi / self.geom.R
            rad = np.cos(km * r)
        return self.A[s] + self.B[s] * np.cos(self.kx * x) * rad

    def exact_all(self, x, r):
        return np.stack([self.exact(s, x, r) for s in range(5)])

    def _radial(self, s, r):
        """q(r) and its axisymmetric Laplacian (1/r) d_r (r d_r q)."""
        if s in (1, 2):
            km = self.kb
            q = 0.5 * (1.0 + np.cos(km * r))
            lap_q = -0.5 * km ** 2 * (np.cos(km * r) + np.sinc(km * r / np.pi))
        else:
            km = self.M[s] * np.pi / self.geom.R
            q = np.cos(km * r)
            lap_q = -km ** 2 * (np.cos(km * r) + np.sinc(km * r / np.pi))
        return q, lap_q

    def forcing(self, mesh, velocity):
        x = mesh.vertices[:, 0]
        r = mesh.vertices[:, 1]
        cfg = self.cfg
        f_react = reaction_source(self.exact_all(x, r), cfg.reactions)
        cosx = np.cos(self.kx * x)
        sinx = np.sin(self.kx * x)
        g = np.empty((5, mesh.n_vertices))
        for s in range(5):
            D = 1.0  # uniform diffusivity in this setup
            q, lap_q = self._radial(s, r)
            conv = velocity.u_x * (-self.kx * self.B[s] * sinx * q)
            diff_r = (D / cfg.Pe) * self.B[s] * cosx * lap_q
            diff_x = (cfg.eps2 * D / cfg.Pe) * (-self.kx ** 2) * self.B[s] * cosx * q
            g[s] = conv - diff_r - diff_x - f_react[s]
            if s in (1, 2):
                g[s] = np.where(r <= self.geom.R1 + 1e-14, g[s], 0.0)
        return g


@pytest.mark.slow
def test_manufactured_solution_second_order_convergence():
    geom = GEOM
    sc = species_cfg()
    cfg = TransportConfig(Pe=5.0, eps2=0.05, species=sc,
                          reactions=ReactionParams(0.8, 0.9, 1.1, 0.7),
                          newton_tol=1e-11, newton_max_iter=40)
    man = Manufactured(geom, cfg)
    bd = BoundaryData(inlet_blood=tuple(man.A), inlet_dialysate=tuple(man.A))
    errs = []
    for nx, nb, nm, nd in [(8, 3, 2, 3), (16, 6, 4, 6), (32, 12, 8, 12)]:
        mesh = build_structured_mesh(geom, nx, nb, nm, nd)
        hyd = HydraulicState(p_in_b=1.0, p_out_b=1.0, p_in_d=1.0, p_out_d=1.0,
                             K_over_mu=0.0, Q_b=0.3, Q_d=0.4)
        velocity = compute_velocity_field(mesh, hyd)
        x, r = mesh.vertices[:, 0], mesh.vertices[:, 1]
        override = man.exact_all(x, r).T.ravel()
        solver = TransportSolver(mesh, velocity, cfg, bd, (1.0, 1.0),
                                 dirichlet_override=override)
        field, _ = solver.solve(source_nodal=man.forcing(mesh, velocity))
        errs.append(solver.newton_norm(field - override))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    assert orders[-1] >= 1.8, f"errors {errs}, orders {orders}"
