import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fiberdialysis import inverse
from fiberdialysis.cohort import (CohortTable, generate_cohort, make_reference_targets)
from fiberdialysis.config import load_profile, packaged_data_path
from fiberdialysis.exceptions import (ConfigurationError, NewtonError, SolverError,
                                     UsageError)
from fiberdialysis.flow import compute_velocity_field
from fiberdialysis.inverse import (ForwardContext, ForwardSolver, MultiCostConfig,
                                   context_from_profile, default_weights, identify_multi,
                                   identify_single, landscape_scan, multi_patient_cost,
                                   multi_patient_residual_jacobian, multi_patient_residuals,
                                   sensitivity_study, single_patient_cost)
from fiberdialysis.mesh import AxiGeometry
from fiberdialysis.optim import powell_minimize
from fiberdialysis.transport import BoundaryData, TransportSolver, outlet_concentration

MESH = (24, 4, 3, 4)  # coarse but interface-aligned; tests are resolution-agnostic


@pytest.fixture(scope="module")
def ctx():
    profile = load_profile()
    context = context_from_profile(profile, jobs=1, mesh_res=MESH)
    yield context
    context.close()


@pytest.fixture
def fresh_ctx():
    """Factory of new jobs=1 contexts on MESH, whose solves start from no
    warm field."""
    contexts = []

    def make():
        contexts.append(context_from_profile(load_profile(), jobs=1, mesh_res=MESH))
        return contexts[-1]

    yield make
    for context in contexts:
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


def test_multi_cost_zero_at_truth(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    ctx = fresh_ctx()
    val = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg, ctx)
    assert val <= 1e-12


def test_single_cost_zero_on_self_consistent_targets(fresh_ctx, exact_patients):
    ctx = fresh_ctx()
    val = single_patient_cost(np.array([0.8, 0.4]), exact_patients[0], ctx)
    assert val <= 1e-12


def test_single_cost_rejects_zero_targets(ctx, exact_patients):
    bad = replace(exact_patients[0],
                  observed_outlet=np.array([0.5, 0.0, 0.2, 1.0, 0.3]),
                  extras={})
    with pytest.raises(UsageError):
        single_patient_cost(np.array([0.5, 0.5]), bad, ctx)


def test_duplicated_patient_scales_cost_linearly(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients[:1]))
    beta = np.array([0.6, 0.5])
    ctx = fresh_ctx()
    single = multi_patient_cost(beta, exact_patients[:1], cfg, ctx)
    ctx = fresh_ctx()
    tripled = multi_patient_cost(beta, exact_patients[:1] * 3, cfg, ctx)
    assert tripled == pytest.approx(3.0 * single, rel=1e-12)


def test_cost_invariant_under_patient_permutation(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    beta = np.array([0.55, 0.45])
    ctx = fresh_ctx()
    a = multi_patient_cost(beta, exact_patients, cfg, ctx)
    ctx = fresh_ctx()
    b = multi_patient_cost(beta, exact_patients[::-1], cfg, ctx)
    assert a == b


def test_weight_scaling_scales_cost_quadratically(fresh_ctx, exact_patients):
    w = default_weights(exact_patients)
    beta = np.array([0.5, 0.5])
    ctx = fresh_ctx()
    base = multi_patient_cost(beta, exact_patients, MultiCostConfig(weights=w), ctx)
    ctx = fresh_ctx()
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_single_cost_raises_on_an_infinite_inlet(ctx, exact_patients, bad):
    # the forward solve's own inlet check; the record is edited after it is
    # built because PatientRecord rejects a negative inlet itself
    broken = replace(exact_patients[0], id="broken", extras={})
    broken.inlet_blood = np.full(5, bad)
    with pytest.raises(ConfigurationError, match="inlet_blood must be finite"):
        single_patient_cost(np.array([0.5, 0.5]), broken, ctx)


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


def test_cold_solve_nests_down_to_one_cell_per_region(exact_patients):
    # (8, 4, 4, 4) nests to (4, 2, 2, 2) and (2, 1, 1, 1); each level builds
    # its velocity field, whose divergence check must accept the geometry
    profile = load_profile()
    with ForwardContext(AxiGeometry(3.0, 0.35, 0.5, 1.2), (8, 4, 4, 4),
                        profile.transport_config(), profile.base_hydraulics()) as context:
        [(outlet, err)] = context.forward_pairs([(exact_patients[0], np.array([0.8, 0.4]))],
                                                use_warm=False)
    assert err is None
    assert np.all(np.isfinite(outlet))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_fault_in_the_forward_map_is_not_folded_into_a_failure(exact_patients, monkeypatch,
                                                                 jobs):
    # only FiberDialysisError is a forward failure; any other exception is a
    # fault and reaches the caller with its own type, from a home slot too
    def broken_solve(self, *args, **kwargs):
        raise TypeError("a fault in the solver")

    monkeypatch.setattr(TransportSolver, "solve", broken_solve)
    pairs = [(rec, np.array([0.8, 0.4])) for rec in exact_patients]
    with context_from_profile(load_profile(), jobs=jobs, mesh_res=MESH) as context:
        with pytest.raises(TypeError, match="a fault"):
            context.forward_pairs(pairs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_fault_during_a_single_patient_search_propagates(exact_patients, monkeypatch,
                                                            jobs):
    # solves 1-4 are the start and its finite-difference gradient; from the
    # first step-halving trial on, every solve is a fault, which the
    # optimizer must not fold in as a failed trial
    calls = [0]
    solve = TransportSolver.solve

    def faulty_solve(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] >= 5:
            raise TypeError("a fault in the solver")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(TransportSolver, "solve", faulty_solve)
    with context_from_profile(load_profile(), jobs=jobs, mesh_res=MESH) as context:
        with pytest.raises(TypeError, match="a fault"):
            identify_single(exact_patients[0], np.array([0.2, 0.2]), context)


def test_a_fault_in_calibration_is_not_an_excluded_patient(ctx, monkeypatch):
    def broken_calibration(*args):
        raise TypeError("a fault in calibration")

    monkeypatch.setattr(inverse, "calibrate_hydraulics", broken_calibration)
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    with pytest.raises(TypeError, match="a fault"):
        make_reference_targets(generate_cohort(real, ns=2, seed=11), ctx, (0.8, 0.4))


def test_landscape_on_constant_failure_objective(ctx, exact_patients, caplog):
    nan_patient = replace(exact_patients[0], id="broken",
                          inlet_blood=np.full(5, np.nan), extras={})
    cfg = MultiCostConfig(weights=np.ones(5))
    with caplog.at_level("INFO", logger="fiberdialysis.inverse"):
        grid = landscape_scan([nan_patient], ((0.1, 0.9), (0.1, 0.9)), 2, 2, cfg, ctx)
    assert np.all(grid.values == cfg.failure_value)
    # each failed cell is logged once, with its beta, patient id and error type
    failures = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert len(failures) == 4
    for (b1, b2), message in zip([(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)], failures):
        assert message.startswith(f"beta {[b1, b2]}: patient broken failed (ConfigurationError:")


def test_landscape_folds_in_negative_beta_as_failures(ctx, exact_patients, caplog):
    # beta below 0 is rejected by the solve, so those points are forward
    # failures, logged with their type
    cfg = MultiCostConfig(weights=default_weights(exact_patients), penalty_scale=0.0)
    with caplog.at_level("INFO", logger="fiberdialysis.inverse"):
        grid = landscape_scan(exact_patients[:1], ((-0.2, 0.6), (0.2, 0.6)), 2, 2, cfg, ctx)
    assert np.all(grid.values[0] == cfg.failure_value)
    assert np.all(grid.values[1] < cfg.failure_value)
    failures = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert len(failures) == 2
    for b2, message in zip((0.2, 0.6), failures):
        assert message.startswith(f"beta {[-0.2, b2]}: patient {exact_patients[0].id} failed "
                                  "(ConfigurationError:")


def test_bound_penalty_active_outside_box(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients),
                          bounds=((0.02, 1.0), (0.02, 1.0)), penalty_scale=1e4)
    inside = multi_patient_cost(np.array([0.8, 0.4]), exact_patients, cfg, ctx)
    outside = multi_patient_cost(np.array([1.3, 0.4]), exact_patients, cfg, ctx)
    assert outside > inside + 1e4 * 0.3 ** 2 * 0.5


def test_cost_config_rejects_negative_weights_and_scales():
    for bad in ({"lam": -1.0}, {"penalty_scale": -1.0}):
        with pytest.raises(ConfigurationError):
            MultiCostConfig(weights=np.ones(5), **bad)
    assert MultiCostConfig(weights=np.ones(5), penalty_scale=0.0).penalty_scale == 0.0


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
def test_identify_single_reaches_grid_oracle_floor(ctx, fresh_ctx):
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    cohort = generate_cohort(real, ns=1, seed=11)
    patient = make_reference_targets(cohort, ctx, (0.5, 0.5))[0]
    assert np.allclose(patient.observed_outlet, ORACLE_TARGETS, atol=1e-12), \
        "pinned setup changed; regenerate the 61x61 grid oracle"
    ctx = fresh_ctx()
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


def test_identify_multi_recovers_truth_and_stays_positive(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    ctx = fresh_ctx()
    res = identify_multi(exact_patients, np.array([0.3, 0.8]), cfg, ctx,
                         tol=1e-10, max_iter=40)
    assert np.max(np.abs(res.best_point - [0.8, 0.4])) < 1e-3
    assert res.best_value < 1e-8
    for p, _ in res.trace:
        assert np.all(p > 0)


def test_identify_multi_matches_powell_under_noise(fresh_ctx, exact_patients):
    # the same minimizer as the paper's Powell method on the same log-space
    # cost: nonzero residual at the optimum
    from fiberdialysis.cohort import NoiseSpec, add_measurement_noise

    noisy = add_measurement_noise(exact_patients, NoiseSpec(sigma=0.03, seed=4))
    cfg = MultiCostConfig(weights=default_weights(noisy))
    ctx = fresh_ctx()
    res = identify_multi(noisy, np.array([0.3, 0.8]), cfg, ctx, tol=1e-10, max_iter=40)
    assert res.converged
    ctx = fresh_ctx()
    powell = powell_minimize(lambda z: multi_patient_cost(np.exp(z), noisy, cfg, ctx),
                             np.log([0.3, 0.8]), tol=1e-10, max_iter=40)
    assert powell.converged
    assert np.max(np.abs(res.best_point - np.exp(powell.best_point))) < 1e-5


def test_identify_multi_gauss_newton_records_its_work(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    ctx = fresh_ctx()
    res = identify_multi(exact_patients, np.array([0.3, 0.8]), cfg, ctx, tol=1e-10)
    assert res.converged and res.stop_reason == "tolerance"
    assert 1 <= res.n_jacobians <= res.n_evals <= 20
    # reported values are the cost's own, at every accepted iterate
    for beta, value in (res.trace[0], res.trace[-1]):
        ctx = fresh_ctx()
        assert value == pytest.approx(multi_patient_cost(beta, exact_patients, cfg, ctx),
                                      rel=1e-6, abs=1e-15)


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
    assert res.best_value == pytest.approx(cfg.failure_value * len(broken))


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


def test_excluded_patients_are_logged_with_beta_and_type(ctx, caplog):
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    cohort = generate_cohort(real, ns=3, seed=11)
    cohort.values[cohort.field_names.index("c1_inlet_blood"), 1] = np.nan
    cohort.values[cohort.field_names.index("Q_uf"), 2] = np.nan
    with caplog.at_level("WARNING"):
        [good] = make_reference_targets(cohort, ctx, (0.8, 0.4))
        broken = replace(good, id="broken", inlet_blood=np.full(5, np.nan), extras={})
        # seed 3 draws the level-0 coefficients (0.204..., -0.182...) for one
        # patient, and a negative beta fails the solve
        study = sensitivity_study([good, broken], ctx, np.array([0.8, 0.4]), [1.0], seed=3)
    assert study.levels[0].excluded == [good.id]
    messages = [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()]
    assert len(messages) == 4
    assert messages[0].startswith("patient s3 excluded at calibration: CalibrationError: ")
    assert messages[1].startswith("patient s2 excluded at forward solve at beta [0.8, 0.4]: "
                                  "ConfigurationError: ")
    assert messages[2].startswith("patient broken excluded from sensitivity reference at "
                                  "beta [0.8, 0.4]: ConfigurationError: ")
    assert messages[3].startswith(f"patient {good.id} excluded at sigma=1.0, beta "
                                  "[0.20400106542776425, -0.18295897215777962]: "
                                  "ConfigurationError: ")


@pytest.mark.slow
def test_identify_multi_invariant_to_initial_point(fresh_ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    results = []
    for init in ([0.3, 0.8], [1.0, 1.0], [0.5, 0.2]):
        ctx = fresh_ctx()
        res = identify_multi(exact_patients, np.array(init), cfg, ctx,
                             tol=1e-10, max_iter=40)
        results.append(res.best_point)
    for point in results[1:]:
        assert np.max(np.abs(point - results[0])) < 1e-3


@pytest.mark.slow
def test_noise_degradation_trend_over_seeds(fresh_ctx, exact_patients):
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
            ctx = fresh_ctx()
            res = identify_multi(noisy, np.array([0.3, 0.8]), cfg, ctx,
                                 tol=1e-6, max_iter=40)
            errors[sigma].append(np.linalg.norm(res.best_point - truth))
    assert np.mean(errors[0.05]) >= np.mean(errors[0.01])


def test_forward_many_parallel_matches_serial(exact_patients):
    # betas in a row, so warm runs start from the previous solve's state;
    # use_warm=None warm-starts.  Tangent pairs follow plain ones, so warm
    # runs also start from first-order predictions; every outlet and
    # outlet Jacobian is byte-equal
    profile = load_profile()
    asks = [(np.array([0.7, 0.5]),), (np.array([0.3, 0.8]), True),
            (np.array([0.75, 0.45]), True), (np.array([0.7, 0.4]),)]
    for use_warm in (None, False):
        with context_from_profile(profile, jobs=1, mesh_res=MESH) as serial, \
                context_from_profile(profile, jobs=2, mesh_res=MESH) as parallel:
            for ask in asks:
                pairs = [(rec, *ask) for rec in exact_patients]
                ref = serial.forward_pairs(pairs, use_warm=use_warm)
                par = parallel.forward_pairs(pairs, use_warm=use_warm)
                for (a, ea), (b, eb) in zip(ref, par):
                    assert ea is None and eb is None
                    assert a.shape == ((5, 3) if len(ask) > 1 else (5,))
                    assert np.array_equal(a, b)


def test_plain_and_tangent_pairs_of_one_call_are_two_tasks(fresh_ctx, exact_patients):
    # the tangent flag is part of a pair's identity: asking for the same
    # (patient, beta) with and without tangents solves twice
    rec, beta = exact_patients[0], np.array([0.7, 0.5])
    out = fresh_ctx().forward_pairs([(rec, beta), (rec, beta, True), (rec, beta)])
    assert [A.shape for A, _ in out] == [(5,), (5, 3), (5,)]


def _call_log(path):
    """A function appending its keyword arguments, with this process's id,
    as one JSON line to ``path``; pool slots inherit it when they fork."""
    def log(**entry):
        with open(path, "a") as fh:
            fh.write(json.dumps(dict(entry, pid=os.getpid())) + "\n")
    return log


def _read_log(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_each_patient_solves_in_one_home_process(exact_patients, tmp_path, monkeypatch):
    # jobs=2 over s1, s2, s3: in id order, s1 and s3 share one home slot and
    # s2 has the other, though s2 comes first; each velocity field is built
    # once, in its patient's home slot
    log = _call_log(tmp_path / "calls.jsonl")

    def logged(plain, kind):
        def call(*args):
            log(kind=kind, id=args[1].id if kind == "task" else None)
            return plain(*args)
        return call

    monkeypatch.setattr(ForwardSolver, "task", logged(ForwardSolver.task, "task"))
    monkeypatch.setattr(inverse, "compute_velocity_field",
                        logged(inverse.compute_velocity_field, "velocity"))
    beta = np.array([0.7, 0.5])
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    s1, s2, s3 = exact_patients
    with context_from_profile(load_profile(), jobs=2, mesh_res=MESH) as context:
        context.forward_pairs([(s2, beta), (s1, beta), (s3, beta)])
        context.forward_pairs([(s2, beta + 0.1)], use_warm=False)
        context.forward_pairs([(rec, beta, True) for rec in exact_patients])
        landscape_scan(exact_patients, ((0.3, 0.9), (0.2, 0.6)), 2, 2, cfg, context)
    calls = _read_log(tmp_path / "calls.jsonl")
    home = {}
    for entry in calls:
        if entry["kind"] == "task":
            assert home.setdefault(entry["id"], entry["pid"]) == entry["pid"]
    assert os.getpid() not in home.values()
    assert home[s1.id] == home[s3.id] != home[s2.id]
    velocity = [entry["pid"] for entry in calls if entry["kind"] == "velocity"]
    assert sorted(velocity) == sorted(home.values())


def test_no_pool_task_or_result_carries_a_field(ctx, exact_patients, tmp_path, monkeypatch):
    # the field places of the pool protocol stay None, and every task and
    # result, tangent ones included, pickles to less than one field: the
    # tangent fields stay in the home slot with the field
    field_bytes = len(pickle.dumps(ctx.forward_detailed(exact_patients[0], (0.7, 0.5))[1]))
    log = _call_log(tmp_path / "pool.jsonl")
    plain = inverse._worker_forward

    def spy(task):   # the slots fork after this patch, so they run it
        result = plain(task)
        log(tangents=task[4], task=len(pickle.dumps(task)), result=len(pickle.dumps(result)),
            fields=[task[2], result[1]])
        return result

    monkeypatch.setattr(inverse, "_worker_forward", spy)
    beta = np.array([0.7, 0.5])
    with context_from_profile(load_profile(), jobs=2, mesh_res=MESH) as context:
        for b in (beta, beta + 0.05, beta):
            context.forward_pairs([(rec, b) for rec in exact_patients])
        for b in (beta, beta - 0.05):
            context.forward_pairs([(rec, b, True) for rec in exact_patients])
    calls = _read_log(tmp_path / "pool.jsonl")
    assert [entry["tangents"] for entry in calls].count(False) == 9
    assert [entry["tangents"] for entry in calls].count(True) == 6
    for entry in calls:
        assert entry["fields"] == [None, None]
        assert max(entry["task"], entry["result"]) < field_bytes


def test_home_slots_fork_the_context_solver(exact_patients, tmp_path, monkeypatch):
    # (16, 4, 4, 4) nests twice; its three meshes are built once, in this
    # process, with the context's solver, and the slots run on the copies
    # their fork made of it, nested levels included
    log = _call_log(tmp_path / "mesh.jsonl")
    plain = inverse.build_structured_mesh

    def logged(*args):
        log()
        return plain(*args)

    monkeypatch.setattr(inverse, "build_structured_mesh", logged)
    beta = np.array([0.7, 0.5])
    with context_from_profile(load_profile(), jobs=2, mesh_res=(16, 4, 4, 4)) as context:
        out = context.forward_pairs([(rec, beta) for rec in exact_patients])
    assert all(err is None for _, err in out)
    assert [entry["pid"] for entry in _read_log(tmp_path / "mesh.jsonl")] == [os.getpid()] * 3


def test_home_slots_stop_on_close_and_a_dead_slot_raises(exact_patients):
    import multiprocessing
    import signal

    pairs = [(rec, np.array([0.7, 0.5])) for rec in exact_patients]
    before = set(multiprocessing.active_children())
    with context_from_profile(load_profile(), jobs=2, mesh_res=MESH) as context:
        reference = context.forward_pairs(pairs)
        slots = set(multiprocessing.active_children()) - before
        assert len(slots) == 2
        os.kill(next(iter(slots)).pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="home slot"):
            context.forward_pairs(pairs)
        assert not any(proc.is_alive() for proc in slots)
        context.forward_pairs(pairs, use_warm=False)
        restarted = set(multiprocessing.active_children()) - before
        assert len(restarted) == 2 and not restarted & slots
        # new slots start cold: a warm solve there repeats the first one
        again = context.forward_pairs([(rec, beta, True) for rec, beta in pairs])
    assert not set(multiprocessing.active_children()) - before
    for (a, _), (b, _) in zip(reference, again):
        assert np.array_equal(a, b[:, 0])


def test_landscape_is_one_batch_with_the_point_by_point_warm_history(
        fresh_ctx, exact_patients, monkeypatch):
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    batches = []
    plain = ForwardContext.forward_pairs

    def forward_pairs(self, pairs, *args):
        batches.append(len(pairs))
        return plain(self, pairs, *args)

    monkeypatch.setattr(ForwardContext, "forward_pairs", forward_pairs)
    grid = landscape_scan(exact_patients, ((0.3, 0.9), (0.2, 0.6)), 3, 4, cfg, fresh_ctx())
    assert batches == [3 * 4 * len(exact_patients)]
    scan = fresh_ctx()
    expected = [[multi_patient_cost(np.array([b1, b2]), exact_patients, cfg, scan)
                 for b2 in grid.beta2_axis] for b1 in grid.beta1_axis]
    assert np.array_equal(grid.values, expected)
    assert grid.n_evals == 12


def test_warm_start_matches_cold_solve(ctx, exact_patients):
    # the forward map depends on (patient, beta) only, whatever field the
    # Newton iteration starts from: measured <= 2.0e-9 relative on this mesh
    # and on (40, 6, 4, 5), for starts converged at distant betas
    for rec in exact_patients:
        starts = [ctx.forward_detailed(rec, b)[1]
                  for b in ((0.05, 0.05), (1.0, 1.0), (0.2, 0.9))]
        for beta in ((0.8, 0.4), (0.3, 0.6), (0.6, 0.15)):
            cold, _, _ = ctx.forward_detailed(rec, beta)
            for c0 in starts:
                warm, _, _ = ctx.forward_detailed(rec, beta, c0=c0)
                assert np.max(np.abs(warm - cold) / np.abs(cold)) <= 1e-7


def test_landscape_outlets_do_not_depend_on_the_point_order():
    # a 4x4 landscape over two patients on (40, 6, 4, 5), scanned warm in
    # row-major and in reverse point order, each in a fresh context: the
    # bound is the one of test_warm_start_matches_cold_solve; two such runs
    # differed by 1.1e-8 relative on an 11x11 grid
    profile = load_profile()
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    axis = np.linspace(0.3, 1.0, 4)
    points = [(b1, b2) for b1 in axis for b2 in axis]
    runs = []
    for order in (points, points[::-1]):
        with context_from_profile(profile, jobs=1, mesh_res=(40, 6, 4, 5)) as context:
            patients = make_reference_targets(generate_cohort(real, ns=2, seed=7), context,
                                              (0.8, 0.4))
            pairs = [(rec, beta) for beta in order for rec in patients]
            results = context.forward_pairs(pairs)
        assert all(err is None for _, err in results)
        runs.append({(rec.id, beta): outlet for (rec, beta), (outlet, _) in zip(pairs, results)})
    assert len(runs[0]) == 32 and runs[0].keys() == runs[1].keys()
    for key, outlet in runs[0].items():
        assert np.max(np.abs(runs[1][key] - outlet) / np.abs(outlet)) <= 1e-7


# -- nested cold starts ---------------------------------------------------------------

BETAS = ((0.8, 0.4), (0.3, 0.6), (0.6, 0.15))


def _cold_oracle(solver, rec, beta):
    """(outlet, NewtonResult) of the plain cold solve on ``solver``'s mesh:
    Newton from ``initial_field``, with no coarse level."""
    bd = BoundaryData(inlet_blood=tuple(rec.inlet_blood),
                      inlet_dialysate=tuple(rec.inlet_dialysate))
    velocity = compute_velocity_field(solver.mesh, rec.hydraulics)
    fld, result = TransportSolver(solver.mesh, velocity, solver.cfg, bd, beta).solve()
    return outlet_concentration(fld, solver.mesh), result


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


# -- tangent outlet Jacobians and the residual rows -------------------------------------

@pytest.mark.parametrize("beta", [(0.8, 0.4), (0.3, 0.6)])
def test_outlet_jacobian_matches_central_differences(fresh_ctx, exact_patients, beta):
    # cold solves on both sides, h = 1e-4 beta; measured 1.1e-8 relative
    ctx = fresh_ctx()
    rec = exact_patients[0]
    [(A, err)] = ctx.forward_pairs([(rec, beta, True)], use_warm=False)
    assert err is None and A.shape == (5, 3)
    assert np.array_equal(A[:, 0], ctx.forward_detailed(rec, beta)[0])
    jac = A[:, 1:]
    for k in range(2):
        h = 1e-4 * beta[k]
        up, down = list(beta), list(beta)
        up[k] += h
        down[k] -= h
        fd = (ctx.forward_detailed(rec, up)[0] - ctx.forward_detailed(rec, down)[0]) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - fd) / np.abs(fd)) <= 1e-5


def test_outlet_jacobians_pool_matches_serial(exact_patients):
    # cold, warm from a plain solve, cold between, then warm from a tangent
    # solve (first-order prediction): Jacobians byte-equal at jobs 1 and 2
    profile = load_profile()
    beta = np.array([0.7, 0.5])
    jacobians = []
    for jobs in (1, 2):
        out = []
        with context_from_profile(profile, jobs=jobs, mesh_res=MESH) as context:
            for b, use_warm in ((beta, None), (beta + 0.1, False), (beta + 0.1, None),
                                (beta - 0.05, None)):
                out += context.forward_pairs([(rec, b, True) for rec in exact_patients],
                                             use_warm=use_warm)
        assert all(err is None for _, err in out)
        jacobians.append([A[:, 1:] for A, _ in out])
    for serial, pooled in zip(*jacobians):
        assert np.array_equal(serial, pooled)


def test_failed_tangent_solve_rejects_the_trial(fresh_ctx, exact_patients, monkeypatch,
                                               caplog):
    # the first trial's tangent solve of one patient raises: LM treats the
    # trial as unevaluable, rejects it and still converges
    from fiberdialysis import linalg, transport

    calls = []

    def solve_linear(A, b, x0=None, rtol=None):
        if np.ndim(b) == 2:
            calls.append(None)
            if len(calls) == len(exact_patients) + 1:
                raise SolverError("forced tangent failure")
        return linalg.solve_linear(A, b, x0, rtol)

    monkeypatch.setattr(transport, "solve_linear", solve_linear)
    cfg = MultiCostConfig(weights=default_weights(exact_patients))
    with caplog.at_level("INFO", logger="fiberdialysis.inverse"):
        res = identify_multi(exact_patients, np.array([0.3, 0.8]), cfg, fresh_ctx(),
                             tol=1e-10, max_iter=40)
    assert "SolverError: forced tangent failure" in caplog.text
    assert res.converged and np.max(np.abs(res.best_point - [0.8, 0.4])) < 1e-3
    # the failed trial is not among the accepted iterates
    assert res.n_evals > len(res.trace)


def test_warm_tangent_task_starts_from_the_first_order_predictor(exact_patients, monkeypatch):
    # a warm task after a tangent solve starts from c + dc/dbeta (beta -
    # beta_old); after a plain warm solve, from its field; a cold task
    # neither reads nor replaces the warm state
    profile = load_profile()
    solver = ForwardSolver(profile.geometry, MESH, profile.transport_config())
    starts, ends = [], []
    plain = TransportSolver.solve

    def spy(self, c0=None, source_nodal=None, tangents=False):
        starts.append(c0)
        fld, result = plain(self, c0, source_nodal, tangents)
        ends.append((fld, result.tangents))
        return fld, result

    monkeypatch.setattr(TransportSolver, "solve", spy)
    rec = exact_patients[0]
    b = [np.array(beta) for beta in ((0.7, 0.5), (0.72, 0.47), (0.75, 0.45), (0.7, 0.4))]
    outlets = [solver.task(rec, b[0], True, True), solver.task(rec, b[1], True, True),
               solver.task(rec, b[2], True, False), solver.task(rec, b[3], True, False),
               solver.task(rec, b[0], False, True), solver.task(rec, b[1], True, False)]
    assert starts[0] is None and starts[4] is None
    assert np.array_equal(starts[1], ends[0][0] + ends[0][1] @ (b[1] - b[0]))
    assert np.array_equal(starts[2], ends[1][0] + ends[1][1] @ (b[2] - b[1]))
    assert np.array_equal(starts[3], ends[2][0]) and ends[2][1] is None
    assert np.array_equal(starts[5], ends[3][0])
    # the documented precision of the forward map holds from these starts
    for (outlet, err), beta in zip(outlets, b + b[:2]):
        assert err is None
        outlet = np.asarray(outlet)
        outlet = outlet[:, 0] if outlet.ndim == 2 else outlet
        cold = solver.solve(rec, beta)[0]
        assert np.max(np.abs(outlet - cold) / np.abs(cold)) <= 1e-7


def test_residual_rows_square_to_the_cost(fresh_ctx, exact_patients):
    # prior and bound rows active: beta lies above the first bound interval
    cfg = MultiCostConfig(weights=default_weights(exact_patients), lam=0.7,
                          bounds=((0.1, 0.5), (0.2, 0.9)))
    beta = np.array([0.6, 0.45])
    ctx = fresh_ctx()
    cost = multi_patient_cost(beta, exact_patients, cfg, ctx)
    outlets = [F for F, _ in ctx.forward_pairs([(rec, beta) for rec in exact_patients])]
    r = multi_patient_residuals(beta, exact_patients, outlets, cfg)
    assert r.shape == (5 * len(exact_patients) + 6,)
    assert float(r @ r) == pytest.approx(cost, rel=1e-12)
    assert cost > 1e4 * 0.1 ** 2


def test_residual_jacobian_matches_central_differences(ctx, exact_patients):
    cfg = MultiCostConfig(weights=default_weights(exact_patients), lam=0.7,
                          bounds=((0.1, 0.5), (0.2, 0.9)))
    beta = np.array([0.6, 0.45])
    jac = multi_patient_residual_jacobian(
        beta, [A[:, 1:] for A, _ in ctx.forward_pairs([(rec, beta, True)
                                                       for rec in exact_patients])], cfg)

    def rows(b):
        outlets = [F for F, _ in ctx.forward_pairs([(rec, b) for rec in exact_patients])]
        return multi_patient_residuals(b, exact_patients, outlets, cfg)

    for k in range(2):
        h = np.zeros(2)
        h[k] = 1e-4 * beta[k]
        fd = (rows(beta + h) - rows(beta - h)) / (2.0 * h[k])
        assert np.max(np.abs(jac[:, k] - fd)) <= 1e-5 * np.max(np.abs(fd))


@pytest.mark.slow
def test_gauss_newton_identifies_every_pinned_cohort(capsys):
    # the bench's invert job on cohort seeds 0..15: coarse mesh, s1..s4,
    # exact targets at (0.8, 0.4), start (0.3, 0.8), tol 1e-10
    profile = load_profile()
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    evals = []
    with context_from_profile(profile, jobs=1, mesh_res=(40, 6, 4, 5)) as context:
        for seed in range(16):
            patients = make_reference_targets(generate_cohort(real, ns=4, seed=seed),
                                              context, (0.8, 0.4))
            cfg = MultiCostConfig(weights=default_weights(patients))
            res = identify_multi(patients, np.array([0.3, 0.8]), cfg, context, tol=1e-10)
            assert res.converged, (seed, res.stop_reason)
            assert res.best_value <= 1e-8, seed
            assert np.max(np.abs(res.best_point - [0.8, 0.4])) <= 1e-3, seed
            evals.append(res.n_evals)
    with capsys.disabled():
        print(f"\ncohort seeds 0-15: {min(evals)}-{max(evals)} cost evaluations "
              f"({evals})")
