from dataclasses import replace

import numpy as np
import pytest

from fiberdialysis.cohort import (CohortTable, generate_cohort, make_reference_targets)
from fiberdialysis.config import load_profile, packaged_data_path
from fiberdialysis.exceptions import (ConfigurationError, NewtonError, SolverError,
                                     UsageError)
from fiberdialysis.flow import compute_velocity_field
from fiberdialysis.inverse import (ForwardContext, ForwardSolver, MultiCostConfig,
                                   context_from_profile, default_weights, identify_multi,
                                   identify_single, landscape_scan, multi_patient_cost,
                                   sensitivity_study, single_patient_cost)
from fiberdialysis.transport import BoundaryData, TransportSolver, outlet_concentration

MESH = (24, 4, 3, 4)  # coarse but interface-aligned; tests are resolution-agnostic


@pytest.fixture(scope="module")
def ctx():
    profile = load_profile()
    context = context_from_profile(profile, jobs=1, mesh_res=MESH)
    yield context
    context.close()


@pytest.fixture(scope="module")
def exact_patients(ctx):
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    cohort = generate_cohort(real, ns=3, seed=11)
    return make_reference_targets(cohort, ctx, (0.8, 0.4))


def test_reference_targets_match_direct_forward(ctx, exact_patients):
    rec = exact_patients[0]
    outlet, _, _ = ctx.forward_detailed(rec, np.array([0.8, 0.4]))
    assert np.allclose(outlet, rec.observed_outlet, rtol=0, atol=1e-12)


def test_multi_cost_zero_at_truth(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    ctx._warm.clear()
    val = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg, ctx)
    assert val <= 1e-12


def test_single_cost_zero_on_self_consistent_targets(ctx, exact_patients):
    ctx._warm.clear()
    val = single_patient_cost(np.array([0.8, 0.4]), exact_patients[0], ctx)
    assert val <= 1e-12


def test_single_cost_rejects_zero_targets(ctx, exact_patients):
    bad = replace(exact_patients[0],
                  observed_outlet=np.array([0.5, 0.0, 0.2, 1.0, 0.3]),
                  extras={})
    with pytest.raises(UsageError):
        single_patient_cost(np.array([0.5, 0.5]), bad, ctx)


def test_duplicated_patient_scales_cost_linearly(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients[:1]))
    beta = np.array([0.6, 0.5])
    ctx._warm.clear()
    single = multi_patient_cost(beta, exact_patients[:1], cfg, ctx)
    ctx._warm.clear()
    tripled = multi_patient_cost(beta, exact_patients[:1] * 3, cfg, ctx)
    assert tripled == pytest.approx(3.0 * single, rel=1e-12)


def test_cost_invariant_under_patient_permutation(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    beta = np.array([0.55, 0.45])
    ctx._warm.clear()
    a = multi_patient_cost(beta, exact_patients, cfg, ctx)
    ctx._warm.clear()
    b = multi_patient_cost(beta, exact_patients[::-1], cfg, ctx)
    assert a == b


def test_weight_scaling_scales_cost_quadratically(ctx, exact_patients):
    w = default_weights(exact_patients)
    beta = np.array([0.5, 0.5])
    ctx._warm.clear()
    base = multi_patient_cost(beta, exact_patients, MultiCostConfig(weights=w), ctx)
    ctx._warm.clear()
    scaled = multi_patient_cost(beta, exact_patients, MultiCostConfig(weights=3.0 * w), ctx)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_default_weights_inverse_scales(exact_patients):
    w = default_weights(exact_patients)
    targets = np.array([p.observed_outlet for p in exact_patients])
    assert np.allclose(w, 1.0 / np.abs(targets).mean(axis=0))


def test_failures_fold_into_failure_value(ctx, exact_patients):
    nan_patient = replace(exact_patients[0], id="broken",
                          inlet_blood=np.full(5, np.nan), extras={})
    cfg = MultiCostConfig(weights=np.ones(5), failure_value=1e10)
    val = multi_patient_cost(np.array([0.5, 0.5]), [nan_patient], cfg, ctx)
    assert val == pytest.approx(1e10)


def test_single_cost_raises_the_forward_failure(ctx, exact_patients):
    nan_patient = replace(exact_patients[0], id="broken",
                          inlet_blood=np.full(5, np.nan), extras={})
    with pytest.raises(ConfigurationError):
        single_patient_cost(np.array([0.5, 0.5]), nan_patient, ctx)


def test_forward_failures_are_typed_and_keep_the_newton_trace(exact_patients):
    # no Newton iteration allowed, so every solve fails with a NewtonError;
    # pool workers hand back the same exception, trace included
    profile = load_profile()
    cfg = replace(profile.transport_config(), newton_max_iter=0)
    errors = []
    for jobs in (1, 2):
        with ForwardContext(profile.geometry, MESH, cfg, profile.base_hydraulics(),
                            jobs=jobs) as context:
            out = context.forward_pairs([(rec, np.array([0.8, 0.4])) for rec in exact_patients],
                                        use_warm=False)
        assert all(outlet is None and isinstance(err, NewtonError) for outlet, err in out)
        errors.append([err for _, err in out])
    for serial, pooled in zip(*errors):
        assert str(serial) == str(pooled)
        assert serial.trace and serial.trace == pooled.trace


def test_landscape_on_constant_failure_objective(ctx, exact_patients):
    nan_patient = replace(exact_patients[0], id="broken",
                          inlet_blood=np.full(5, np.nan), extras={})
    cfg = MultiCostConfig(weights=np.ones(5))
    grid = landscape_scan([nan_patient], ((0.1, 0.9), (0.1, 0.9)), 2, 2, cfg, ctx)
    assert np.all(grid.values == cfg.failure_value)


def test_bound_penalty_active_outside_box(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients),
                          bounds=((0.02, 1.0), (0.02, 1.0)), penalty_scale=1e4)
    inside = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg, ctx)
    outside = multi_patient_cost(np.array([1.3, 0.4]), exact_patients, cfg, ctx)
    assert outside > inside + 1e4 * 0.3 ** 2 * 0.5


def test_regularization_term(ctx, exact_patients):
    # R(beta) = |beta - box center|^2; both boxes contain the truth, so no penalty
    cfg = MultiCostConfig(weights=default_weights(exact_patients), lam=2.0,
                          bounds=((0.6, 1.0), (0.2, 0.6)))
    at_center = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg, ctx)
    assert at_center <= 1e-12  # R vanishes at the box center
    cfg2 = MultiCostConfig(weights=default_weights(exact_patients), lam=2.0,
                           bounds=((0.5, 0.9), (0.2, 0.6)))
    shifted = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg2, ctx)
    assert shifted == pytest.approx(at_center + 2.0 * 0.1 ** 2, abs=1e-10)


# Frozen 61x61 grid oracle for the projected-gradient recovery test below,
# computed once over [1/60, 1]^2 on this module's mesh and profile for the
# ns=1/seed=11 synthetic patient with exact targets at beta_true = (0.5, 0.5):
# the minimum is 0.0, attained exactly at the on-grid truth (0.5, 0.5), and
# no other cell comes within 1e-6 of it.  The frozen targets below pin the
# setup; if the profile changes, regenerate the oracle before updating them.
ORACLE_TARGETS = np.array([0.504526318899431, 3.622417699933527,
                           0.24751755791274704, 0.42632248072460777,
                           0.4987517402132651])
ORACLE_ARGMIN = np.array([0.5, 0.5])
ORACLE_MIN_VALUE = 0.0


@pytest.mark.slow
def test_identify_single_reaches_grid_oracle_floor(ctx):
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    cohort = generate_cohort(real, ns=1, seed=11)
    patient = make_reference_targets(cohort, ctx, (0.5, 0.5))[0]
    assert np.allclose(patient.observed_outlet, ORACLE_TARGETS, atol=1e-12), \
        "pinned setup changed; regenerate the 61x61 grid oracle"
    ctx._warm.clear()
    res = identify_single(patient, np.array([0.2, 0.2]), ctx,
                          initial_step=0.25, tol=1e-5, n_max=80)
    assert np.linalg.norm(res.best_point - ORACLE_ARGMIN) <= 0.05
    assert res.best_value <= ORACLE_MIN_VALUE + 1e-4


def test_identify_single_rejects_start_outside_box(ctx, exact_patients):
    with pytest.raises(UsageError):
        identify_single(exact_patients[0], np.array([1.2, 0.5]), ctx)


def test_identify_single_trace_monotone(ctx, exact_patients):
    res = identify_single(exact_patients[0], np.array([0.6, 0.6]), ctx,
                          initial_step=0.25, tol=1e-3, n_max=8)
    values = [v for _, v in res.trace]
    assert all(values[k + 1] <= values[k] for k in range(len(values) - 1))


def test_identify_multi_recovers_truth_and_stays_positive(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    ctx._warm.clear()
    res = identify_multi(exact_patients, np.array([0.3, 0.8]), cfg, ctx,
                         tol=1e-10, max_iter=40)
    assert np.max(np.abs(res.best_point - [0.8, 0.4])) < 1e-3
    assert res.best_value < 1e-8
    for p, _ in res.trace:
        assert np.all(p > 0)


def test_identify_multi_validates_init(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    with pytest.raises(UsageError):
        identify_multi(exact_patients, np.array([-0.1, 0.4]), cfg, ctx)
    with pytest.raises(UsageError):
        identify_multi(exact_patients, np.array([1.5, 0.4]), cfg, ctx)
    with pytest.raises(UsageError):
        identify_multi([], np.array([0.3, 0.8]), cfg, ctx)


def test_identify_multi_flags_all_failing_cohort(ctx, exact_patients):
    broken = [replace(p, id=f"broken{k}", inlet_blood=np.full(5, np.nan), extras={})
              for k, p in enumerate(exact_patients)]
    cfg = MultiCostConfig(weights=np.ones(5))
    res = identify_multi(broken, np.array([0.3, 0.8]), cfg, ctx, max_iter=3)
    assert res.stop_reason == "stalled"
    assert not res.converged


def test_sensitivity_zero_sigma_gives_zero_errors(ctx, exact_patients):
    study = sensitivity_study(exact_patients, ctx, np.array([0.8, 0.4]), [0.0], seed=3)
    lvl = study.levels[0]
    assert lvl.cohort_mean == 0.0
    assert lvl.cohort_max == 0.0
    assert np.all(lvl.per_species_mean == 0.0)


def test_sensitivity_reproducible(ctx, exact_patients):
    s1 = sensitivity_study(exact_patients, ctx, np.array([0.8, 0.4]), [0.02], seed=5)
    s2 = sensitivity_study(exact_patients, ctx, np.array([0.8, 0.4]), [0.02], seed=5)
    assert np.array_equal(s1.levels[0].per_species_mean, s2.levels[0].per_species_mean)
    assert s1.levels[0].cohort_mean == s2.levels[0].cohort_mean


@pytest.mark.slow
def test_identify_multi_invariant_to_initial_point(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    results = []
    for init in ([0.3, 0.8], [1.0, 1.0], [0.5, 0.2]):
        ctx._warm.clear()
        res = identify_multi(exact_patients, np.array(init), cfg, ctx,
                             tol=1e-10, max_iter=40)
        results.append(res.best_point)
    for point in results[1:]:
        assert np.max(np.abs(point - results[0])) < 1e-3


@pytest.mark.slow
def test_noise_degradation_trend_over_seeds(ctx, exact_patients):
    # recovered-parameter error grows with the noise level as a trend over
    # several seed families, not necessarily per seed
    from fiberdialysis.cohort import NoiseSpec, add_measurement_noise

    truth = np.array([0.8, 0.4])
    errors = {0.01: [], 0.05: []}
    for seed in (1, 2, 3):
        for sigma in (0.01, 0.05):
            noisy = add_measurement_noise(
                exact_patients, NoiseSpec(sigma=sigma, seed=seed))
            cfg = MultiCostConfig(weights=default_weights(noisy))
            ctx._warm.clear()
            res = identify_multi(noisy, np.array([0.3, 0.8]), cfg, ctx,
                                 tol=1e-6, max_iter=40, line_tol=1e-3)
            errors[sigma].append(np.linalg.norm(res.best_point - truth))
    assert np.mean(errors[0.05]) >= np.mean(errors[0.01])


def test_forward_many_parallel_matches_serial(exact_patients):
    # three betas in a row, so warm runs start from the previous solve's
    # fields; use_warm=None warm-starts
    profile = load_profile()
    betas = [np.array([0.7, 0.5]), np.array([0.3, 0.8]), np.array([0.75, 0.45])]
    for use_warm in (None, False):
        with context_from_profile(profile, jobs=1, mesh_res=MESH) as serial, \
                context_from_profile(profile, jobs=2, mesh_res=MESH) as parallel:
            for beta in betas:
                pairs = [(rec, beta) for rec in exact_patients]
                ref = serial.forward_pairs(pairs, use_warm=use_warm)
                par = parallel.forward_pairs(pairs, use_warm=use_warm)
                for (a, ea), (b, eb) in zip(ref, par):
                    assert ea is None and eb is None
                    assert np.array_equal(a, b)
            assert serial._warm.keys() == parallel._warm.keys()
            assert len(serial._warm) == (0 if use_warm is False else len(exact_patients))
            for pid, flat in serial._warm.items():
                assert np.array_equal(flat, parallel._warm[pid])


def test_warm_start_matches_cold_solve(ctx, exact_patients):
    # the forward map depends on (patient, beta) only, whatever field the
    # Newton iteration starts from: measured <= 2.0e-9 relative on this mesh
    # and on (40, 6, 4, 5), for starts converged at distant betas
    for rec in exact_patients:
        starts = [ctx.forward_detailed(rec, b)[1].flat()
                  for b in ((0.05, 0.05), (1.0, 1.0), (0.2, 0.9))]
        for beta in ((0.8, 0.4), (0.3, 0.6), (0.6, 0.15)):
            cold, _, _ = ctx.forward_detailed(rec, beta)
            for c0 in starts:
                warm, _, _ = ctx.forward_detailed(rec, beta, c0_flat=c0)
                assert np.max(np.abs(warm - cold) / np.abs(cold)) <= 1e-7


# -- nested cold starts ---------------------------------------------------------------

BETAS = ((0.8, 0.4), (0.3, 0.6), (0.6, 0.15))


def _cold_oracle(solver, rec, beta):
    """(outlet, NewtonResult) of the plain cold solve on ``solver``'s mesh:
    Newton from ``initial_field``, with no coarse level."""
    tmpl = solver.cfg_template
    cfg = replace(tmpl, species=tmpl.species.with_beta(*beta))
    bd = BoundaryData(inlet_blood=tuple(rec.inlet_blood),
                      inlet_dialysate=tuple(rec.inlet_dialysate))
    velocity = compute_velocity_field(solver.mesh, solver.geom, rec.hydraulics)
    fld, result = TransportSolver(solver.mesh, velocity, cfg, bd).solve()
    return outlet_concentration(fld, solver.mesh, solver.geom), result


def test_nested_cold_start_keeps_outlets_within_documented_precision(exact_patients):
    # (32, 4, 4, 4) nests twice, down to (8, 1, 1, 1); the bound is the one
    # of test_warm_start_matches_cold_solve.  Measured: 6.3e-11 relative, and
    # 3 Newton steps on this mesh where the cold solve takes 4
    profile = load_profile()
    solver = ForwardSolver(profile.geometry, (32, 4, 4, 4), profile.transport_config())
    steps, ref_steps = 0, 0
    for rec in exact_patients:
        for beta in BETAS:
            outlet, _, result = solver.solve(rec, beta)
            ref, ref_result = _cold_oracle(solver, rec, beta)
            assert np.max(np.abs(outlet - ref) / np.abs(ref)) <= 1e-7
            assert result.n_solves <= ref_result.n_solves
            steps, ref_steps = steps + result.n_solves, ref_steps + ref_result.n_solves
    assert steps < ref_steps


def test_odd_resolution_count_solves_cold_bit_for_bit(exact_patients):
    # nr_d = 5 does not halve, so the bench's coarse mesh takes no nested start
    profile = load_profile()
    solver = ForwardSolver(profile.geometry, (40, 6, 4, 5), profile.transport_config())
    for rec in exact_patients:
        for beta in BETAS:
            outlet, _, result = solver.solve(rec, beta)
            ref, ref_result = _cold_oracle(solver, rec, beta)
            assert np.array_equal(outlet, ref)
            assert result.trace == ref_result.trace


@pytest.mark.parametrize("error", [NewtonError("forced failure", trace=[1.0]),
                                   SolverError("forced failure")])
def test_failed_coarse_solve_falls_back_to_the_cold_start(exact_patients, monkeypatch,
                                                          caplog, error):
    profile = load_profile()
    solver = ForwardSolver(profile.geometry, (16, 4, 4, 4), profile.transport_config())
    rec, beta = exact_patients[0], (0.8, 0.4)
    ref, _ = _cold_oracle(solver, rec, beta)
    plain_solve = TransportSolver.solve

    def fail_off_the_working_mesh(self, *args, **kwargs):
        if self.mesh is not solver.mesh:
            raise error
        return plain_solve(self, *args, **kwargs)

    monkeypatch.setattr(TransportSolver, "solve", fail_off_the_working_mesh)
    with caplog.at_level("DEBUG", logger="fiberdialysis.inverse"):
        outlet, _, _ = solver.solve(rec, beta)
    assert np.array_equal(outlet, ref)
    assert "forced failure" in caplog.text
