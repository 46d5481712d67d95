"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 5 and 7 run at the profile's default mesh; the cohort studies
(2, 3, 4) run at a documented coarser mesh (40, 6, 4, 5) to keep the suite
desk-scale.  All tolerances are pinned here.  A summary is written to
``acceptance_report.txt`` in the repository root; it holds no wall-clock
times, which go to stdout, so re-runs rewrite it byte for byte.
"""

import json
import os
import time

import numpy as np
import pytest

from fiberdialysis.cohort import (CohortTable, NoiseSpec, add_measurement_noise,
                                  derive_seed, generate_cohort, make_reference_targets)
from fiberdialysis.config import load_patient_csv, load_profile, packaged_data_path
from fiberdialysis.flow import compute_velocity_field
from fiberdialysis.inverse import (MultiCostConfig, context_from_profile,
                                   default_weights, identify_multi, identify_single,
                                   landscape_scan, sensitivity_study)
from fiberdialysis.mesh import build_structured_mesh
from fiberdialysis.optim import grid_search, powell_minimize, projected_gradient
from fiberdialysis.transport import (BoundaryData, ReactionParams, TransportConfig,
                                     TransportSolver, reaction_jacobian, reaction_source)

pytestmark = pytest.mark.slow

SEED = 7
BETA_STAR = np.array([0.8, 0.4])
INIT = np.array([0.3, 0.8])
COARSE_MESH = (40, 6, 4, 5)
JOBS = 4

_report_lines = []


def report(criterion, ok, detail, timing=""):
    """Record the criterion's line for the report; ``timing`` goes to stdout only."""
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    _report_lines.append(line)
    print("\n" + line + timing)
    assert ok, line + timing


@pytest.fixture(scope="module")
def profile():
    return load_profile()


@pytest.fixture(scope="module")
def ctx_default(profile):
    ctx = context_from_profile(profile, jobs=JOBS)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def ctx_coarse(profile):
    ctx = context_from_profile(profile, jobs=JOBS, mesh_res=COARSE_MESH)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def cohort_table():
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    return generate_cohort(real, ns=20, seed=SEED)


@pytest.fixture(scope="module")
def targets_coarse(ctx_coarse, cohort_table):
    return make_reference_targets(cohort_table, ctx_coarse, BETA_STAR)


def test_criterion_1_exact_data_identifiability(ctx_default, cohort_table):
    t0 = time.time()
    records = make_reference_targets(cohort_table, ctx_default, BETA_STAR)
    subset = records[:4]
    cfg = MultiCostConfig(weights=default_weights(subset))
    result = identify_multi(subset, INIT, cfg, ctx_default, tol=1e-10, max_iter=60)
    elapsed = time.time() - t0
    err = float(np.max(np.abs(result.best_point - BETA_STAR)))
    fast = elapsed <= 600.0
    ok = err <= 1e-3 and result.best_value <= 1e-8 and fast
    report(1, ok,
           f"recovered {np.round(result.best_point, 6).tolist()}, "
           f"max|err| {err:.2e} (<= 1e-3), J {result.best_value:.2e} (<= 1e-8), "
           f"at default mesh with {JOBS} jobs within 600s: {fast}",
           timing=f" [{elapsed:.0f}s]")


def test_criterion_2_landscape_geometry(ctx_coarse, targets_coarse):
    subset = targets_coarse[:4]
    cfg = MultiCostConfig(weights=default_weights(subset))
    grid = landscape_scan(subset, ((0.02, 1.0), (0.02, 1.0)), 31, 31, cfg, ctx_coarse)
    assert len(grid.rows()) == 961  # full value table, endpoints included
    nearest = (int(np.argmin(np.abs(grid.beta1_axis - BETA_STAR[0]))),
               int(np.argmin(np.abs(grid.beta2_axis - BETA_STAR[1]))))
    i1, i2 = grid.argmin_index
    dci_range = float(grid.values[i1, :].max() - grid.values[i1, :].min())
    dca_range = float(grid.values[:, i2].max() - grid.values[:, i2].min())
    ratio = dci_range / dca_range
    ok = grid.argmin_index == nearest and ratio > 1.0
    report(2, ok,
           f"argmin cell {grid.argmin_index} == nearest-to-truth {nearest}, "
           f"d_Ci/d_Ca range ratio {ratio:.1f} (> 1: flatter in d_Ca)")


def test_criterion_3_noise_robustness(ctx_coarse, targets_coarse):
    estimates = {}
    for k_sig, sigma in enumerate((0.01, 0.03, 0.05)):
        spec = NoiseSpec(sigma=sigma, clip_factor=3.0,
                         seed=derive_seed(SEED, "noise", k_sig))
        noisy = add_measurement_noise(targets_coarse, spec)
        for k_sub in range(4):
            sub = noisy[5 * k_sub:5 * (k_sub + 1)]
            cfg = MultiCostConfig(weights=default_weights(sub))
            res = identify_multi(sub, INIT, cfg, ctx_coarse,
                                 tol=1e-6, max_iter=60)
            estimates[(sigma, k_sub)] = res.best_point
        if sigma == 0.05:
            full = noisy[:20]
            cfg = MultiCostConfig(weights=default_weights(full))
            res = identify_multi(full, INIT, cfg, ctx_coarse,
                                 tol=1e-6, max_iter=60)
            estimates[(sigma, "full")] = res.best_point

    rel_errors_5 = [np.abs(estimates[(0.05, k)] - BETA_STAR) / BETA_STAR
                    for k in range(4)]
    worst = float(np.max(rel_errors_5))
    d_ca = [estimates[(0.05, k)][0] for k in range(4)]
    d_ci = [estimates[(0.05, k)][1] for k in range(4)]
    std_ca = float(np.std(d_ca, ddof=1))
    std_ci = float(np.std(d_ci, ddof=1))
    full_err_ca = float(abs(estimates[(0.05, "full")][0] - BETA_STAR[0]) / BETA_STAR[0])
    mean_sub_err_ca = float(np.mean([abs(d - BETA_STAR[0]) / BETA_STAR[0] for d in d_ca]))
    ok = worst <= 0.15 and std_ca > std_ci and full_err_ca <= mean_sub_err_ca
    report(3, ok,
           f"worst 5%-noise sub-cohort error {worst:.1%} (<= 15%), "
           f"std d_Ca {std_ca:.4f} > std d_Ci {std_ci:.4f}, "
           f"full-20 d_Ca error {full_err_ca:.2%} <= sub-cohort mean {mean_sub_err_ca:.2%}")


def test_criterion_4_sensitivity_no_amplification(ctx_coarse, cohort_table):
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    cohort40 = generate_cohort(real, ns=40, seed=SEED)
    patients = make_reference_targets(cohort40, ctx_coarse, BETA_STAR)
    assert len(patients) == 40
    study = sensitivity_study(patients, ctx_coarse, BETA_STAR,
                              sigmas=[0.01, 0.03, 0.05], seed=SEED)
    ok = True
    details = []
    for level in study.levels:
        sp = level.per_species_mean
        citrate_dominates = min(sp[3], sp[4]) > max(sp[0], sp[1], sp[2])
        ok &= level.cohort_mean <= 1.5 * level.sigma
        ok &= level.cohort_max <= 2.0 * level.sigma
        ok &= citrate_dominates
        details.append(f"sigma {level.sigma:.0%}: mean {level.cohort_mean:.2%} "
                       f"(<= {1.5 * level.sigma:.2%}), max {level.cohort_max:.2%} "
                       f"(<= {2 * level.sigma:.2%}), citrate dominates: {citrate_dominates}")
    # profile-relative observed levels, logged for comparison with the
    # literature values (0.38% / 1.12% / 1.87%), not asserted
    observed = ", ".join(f"{lvl.cohort_mean:.2%}" for lvl in study.levels)
    report(4, bool(ok), "; ".join(details) + f"; observed means [{observed}]")


def test_criterion_5_newton_solver(profile):
    import test_transport as tt

    # (a) linear regime: exactly one productive Newton iteration
    mesh = build_structured_mesh(tt.GEOM, 8, 3, 2, 3)
    cfg_lin = tt.transport_cfg(deltas=(0.0, 0.0, 0.0))
    bd = BoundaryData(inlet_blood=(0.3, 2.0, 0.0, 4.0, 1.0),
                      inlet_dialysate=(1.2, 0, 0, 0, 0))
    _, res_lin = TransportSolver(mesh, tt.flow_field(mesh), cfg_lin, bd, tt.BETA).solve()
    a_ok = len(res_lin.trace) == 2 and \
        res_lin.trace[1] <= 1e-10 * max(1.0, res_lin.trace[0])

    # (b) Table-1 fixture at the default mesh: monotone, <= 20 iterations,
    # <= 5 s per solve
    geom = profile.geometry
    mesh_d = build_structured_mesh(geom, *profile.mesh_resolution)
    velocity = compute_velocity_field(mesh_d, profile.base_hydraulics())
    cfg_b = profile.transport_config()
    bd_t = BoundaryData(inlet_blood=(0.11, 3.71602, 0.0577928, 5.03048, 1.37152),
                        inlet_dialysate=(1.25, 0, 0, 0, 0))
    t0 = time.time()
    _, res_t = TransportSolver(mesh_d, velocity, cfg_b, bd_t, (0.2, 0.2)).solve()
    solve_time = time.time() - t0
    monotone = all(res_t.trace[i + 1] < res_t.trace[i]
                   for i in range(len(res_t.trace) - 1))
    fast = solve_time <= 5.0
    b_ok = len(res_t.trace) <= 20 and monotone and fast

    # (c) manufactured-solution L2 convergence order >= 1.8
    man_cfg = TransportConfig(Pe=5.0, eps2=0.05,
                              species=tt.species_cfg(),
                              reactions=ReactionParams(0.8, 0.9, 1.1, 0.7),
                              newton_tol=1e-11, newton_max_iter=40)
    man = tt.Manufactured(tt.GEOM, man_cfg)
    bd_m = BoundaryData(inlet_blood=tuple(man.A), inlet_dialysate=tuple(man.A))
    errs = []
    for nx, nb, nm, nd in [(8, 3, 2, 3), (16, 6, 4, 6), (32, 12, 8, 12)]:
        m = build_structured_mesh(tt.GEOM, nx, nb, nm, nd)
        from fiberdialysis.flow import HydraulicState
        hyd = HydraulicState(p_in_b=1.0, p_out_b=1.0, p_in_d=1.0, p_out_d=1.0,
                             K_over_mu=0.0, Q_b=0.3, Q_d=0.4)
        vel = compute_velocity_field(m, hyd)
        override = man.exact_all(m.vertices[:, 0], m.vertices[:, 1]).T.ravel()
        solver = TransportSolver(m, vel, man_cfg, bd_m, (1.0, 1.0), dirichlet_override=override)
        fld, _ = solver.solve(source_nodal=man.forcing(m, vel))
        errs.append(solver.newton_norm(fld - override))
    order = float(np.log2(errs[-2] / errs[-1]))
    c_ok = order >= 1.8

    report(5, a_ok and b_ok and c_ok,
           f"(a) linear in 1 productive iteration: {a_ok}; "
           f"(b) Table-1 converged in {len(res_t.trace)} solves, monotone={monotone}, "
           f"within 5s={fast}: {b_ok}; "
           f"(c) manufactured L2 order {order:.2f} (>= 1.8): {c_ok}",
           timing=f" [(b) {solve_time:.2f}s]")


def test_criterion_6_reaction_conservation():
    rng = np.random.default_rng(SEED)
    rp = ReactionParams(0.1415, 0.004, 0.009912, 0.1)
    c = rng.uniform(0.0, 6.0, size=(5, 10_000))
    f = reaction_source(c, rp)
    exact = (np.all(f[0] + (f[2] + f[4]) == 0.0)
             and np.all(f[1] + f[2] == 0.0)
             and np.all(f[3] + f[4] == 0.0))

    max_dev = 0.0
    for _ in range(20):
        point = rng.uniform(0.05, 4.0, 5)
        jac = reaction_jacobian(point, rp)
        h = 1e-6
        fd = np.empty((5, 5))
        for j in range(5):
            cp, cm = point.copy(), point.copy()
            cp[j] += h
            cm[j] -= h
            fd[:, j] = (reaction_source(cp, rp) - reaction_source(cm, rp)) / (2 * h)
        max_dev = max(max_dev, float(np.max(np.abs(jac - fd))))
    ok = exact and max_dev < 1e-6
    report(6, ok,
           f"conservation identities exact on 10^4 random states: {exact}; "
           f"max |jacobian - finite differences| {max_dev:.2e} (< 1e-6)")


def test_criterion_7_single_patient_baseline(ctx_default, profile):
    patient = load_patient_csv(packaged_data_path("patient1.csv"),
                               profile.base_hydraulics())
    patient.calibrated = True  # shipped pressures are the frozen calibration
    result = identify_single(patient, np.array([0.2, 0.2]), ctx_default,
                             initial_step=0.25, tol=1e-4, n_max=60)
    j0 = result.trace[0][1]
    values = [v for _, v in result.trace]
    monotone = all(values[k + 1] <= values[k] for k in range(len(values) - 1))
    ratio = j0 / result.best_value
    ok = ratio >= 100.0 and monotone
    report(7, ok,
           f"cost reduced {j0:.2f} -> {result.best_value:.4f} "
           f"({ratio:.0f}x, >= 100x = two orders), monotone trace: {monotone}")


def test_criterion_8_optimizer_unit_oracles():
    def rosen(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    pw = powell_minimize(rosen, np.array([-1.2, 1.0]), tol=1e-12, max_iter=300)
    powell_ok = float(np.max(np.abs(pw.best_point - 1.0))) <= 1e-4

    pg_in = projected_gradient(lambda b: float(np.sum((b - [0.3, 0.7]) ** 2)),
                               np.array([0.9, 0.1]), initial_step=1.0,
                               tol=1e-6, n_max=500, fd_step=1e-9)
    pg_out = projected_gradient(lambda b: float(np.sum((b - [1.5, 0.5]) ** 2)),
                                np.array([0.2, 0.2]), initial_step=1.0,
                                tol=1e-6, n_max=500, fd_step=1e-9)
    pg_ok = (np.allclose(pg_in.best_point, [0.3, 0.7], atol=1e-5)
             and np.allclose(pg_out.best_point, [1.0, 0.5], atol=1e-5))

    grid = grid_search(lambda b: float(np.sum((b - 0.5) ** 2)),
                       ((0.0, 1.0), (0.0, 1.0)), 31, 31)
    ties = grid_search(lambda b: 1.0, ((0.0, 1.0), (0.0, 1.0)), 4, 4)
    grid_ok = (np.array_equal(grid.argmin_point, [0.5, 0.5])
               and grid.values.shape == (31, 31) and grid.n_evals == 961
               and ties.argmin_index == (0, 0))
    ok = powell_ok and pg_ok and grid_ok
    report(8, ok,
           f"Powell Rosenbrock within 1e-4: {powell_ok}; projected-gradient "
           f"box minima within tol: {pg_ok}; grid counting and tie-break exact: {grid_ok}")


def _run_cli(workdir, *argv):
    from fiberdialysis.cli import main
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def _bundle_bytes(base, rel_dir):
    out = {}
    root = os.path.join(base, rel_dir)
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_9_reproducibility(tmp_path):
    cfg = {"mesh": list(COARSE_MESH), "jobs": 2, "seed": SEED, "ns": 4,
           "powell_tol": 1e-8, "powell_max_iter": 30}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    # grid and invert-multi re-read the same targets bundle both times, as a
    # re-run from the manifest would
    commands = {
        "synth": ["synth", "--config", "cfg.json", "--ns", "4", "--seed", str(SEED)],
        "grid": ["grid", "--config", "cfg.json", "--targets", "synth_a",
                 "--patients", "s1,s2", "--box", "0.3,0.9,0.2,0.6", "--n", "3"],
        "invert": ["invert-multi", "--config", "cfg.json", "--targets", "synth_a",
                   "--patients", "s1,s2", "--init", "0.5,0.5"],
        "forward": ["forward", "--config", "cfg.json",
                    "--patient", str(packaged_data_path("patient1.csv")),
                    "--beta", "0.3,0.5"],
    }
    outdirs = {name: (f"synth_{{}}" if name == "synth" else f"{name}_{{}}")
               for name in commands}
    for tag in ("a", "b"):
        for name, argv in commands.items():
            rc = _run_cli(tmp_path, *argv, "--out", outdirs[name].format(tag))
            assert rc == 0, f"{name} run {tag} failed with exit code {rc}"
    identical = {name: (_bundle_bytes(tmp_path, rel.format("a"))
                        == _bundle_bytes(tmp_path, rel.format("b")))
                 for name, rel in outdirs.items()}
    ok = all(identical.values())
    report(9, ok, "byte-identical re-runs: " +
           ", ".join(f"{k}={v}" for k, v in sorted(identical.items())))


def test_clinical_mode_workflow_proxy(tmp_path):
    # the paper's clinical numbers are not reproducible (private dataset);
    # the acceptance proxy is the clinical-mode pipeline running end-to-end
    # on a synthetic stand-in: wide coarse grid -> localized grid -> Powell
    cfg = {"mesh": [24, 4, 3, 4], "jobs": 2, "seed": SEED,
           "powell_tol": 1e-6, "powell_max_iter": 25}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = _run_cli(tmp_path, "synth", "--config", "cfg.json", "--ns", "2",
                  "--seed", str(SEED), "--out", "standin")
    assert rc == 0
    rc = _run_cli(tmp_path, "grid", "--config", "cfg.json", "--targets", "standin",
                  "--clinical", "--n", "8",
                  "--refine-box", "0.25,2.5,0.3,0.5",
                  "--bounds", "0.02,3,0.02,3", "--out", "clinical_grid")
    assert rc == 0
    with open(tmp_path / "clinical_grid" / "grid_result.json") as fh:
        grid_payload = json.load(fh)
    assert grid_payload["box"] == [[0.02, 3.0], [0.02, 3.0]]
    assert "refined_argmin" in grid_payload
    init = grid_payload["refined_argmin"]
    rc = _run_cli(tmp_path, "invert-multi", "--config", "cfg.json",
                  "--targets", "standin", "--init", f"{init[0]},{init[1]}",
                  "--bounds", "0.02,3,0.02,3", "--out", "clinical_fit")
    assert rc == 0
    rc = _run_cli(tmp_path, "report", "clinical_fit")
    assert rc == 0
    with open(tmp_path / "clinical_fit" / "result.json") as fh:
        fit = json.load(fh)
    print(f"\nclinical-mode proxy: grid argmin {np.round(grid_payload['argmin'], 3)}, "
          f"refined {np.round(init, 3)}, Powell -> {np.round(fit['best_point'], 4)}")


def test_zz_write_acceptance_report():
    path = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")
    with open(os.path.abspath(path), "w") as fh:
        fh.write("\n".join(_report_lines) + "\n")
    print("\n" + "\n".join(_report_lines))
