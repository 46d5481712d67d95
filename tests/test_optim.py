import math

import numpy as np
import pytest

from fiberdialysis import optim
from fiberdialysis.exceptions import UsageError
from fiberdialysis.optim import (fd_gradient, grid_search, levenberg_marquardt,
                                 powell_minimize, projected_gradient)


# -- finite-difference pseudo-gradient ---------------------------------------------

def test_fd_gradient_exact_on_affine():
    g = fd_gradient(lambda b: 3 * b[0] + 5 * b[1], np.array([0.2, 0.9]), h=0.37)
    assert np.allclose(g, [3.0, 5.0], atol=1e-12)


def test_fd_gradient_forward_difference_bias():
    # f = b1^2 at (1, 0): ((1+h)^2 - 1)/h = 2 + h exactly
    g = fd_gradient(lambda b: b[0] ** 2, np.array([1.0, 0.0]), h=1e-3)
    assert g[0] == pytest.approx(2.001, abs=1e-12)


def test_fd_gradient_rejects_nonpositive_step():
    with pytest.raises(UsageError):
        fd_gradient(lambda b: 0.0, np.array([0.0, 0.0]), h=0.0)


def test_fd_gradient_propagates_failure():
    def bad(_):
        raise RuntimeError("forward solve exploded")
    with pytest.raises(RuntimeError):
        fd_gradient(bad, np.array([0.5, 0.5]), h=1e-3)


# -- projected gradient descent ------------------------------------------------------

def quadratic(center):
    c = np.asarray(center)
    return lambda b: float(np.sum((b - c) ** 2))


def test_interior_minimum_recovered():
    res = projected_gradient(quadratic([0.3, 0.7]), np.array([0.9, 0.1]),
                             initial_step=1.0, tol=1e-6, n_max=500, fd_step=1e-9)
    assert np.allclose(res.best_point, [0.3, 0.7], atol=1e-5)
    assert res.converged


def test_exterior_minimum_projects_onto_box():
    res = projected_gradient(quadratic([1.5, 0.5]), np.array([0.2, 0.2]),
                             initial_step=1.0, tol=1e-6, n_max=500, fd_step=1e-9)
    assert np.allclose(res.best_point, [1.0, 0.5], atol=1e-5)


def test_trace_is_monotone_for_any_objective():
    rng = np.random.default_rng(12)

    def bumpy(b):
        return float(np.sin(7 * b[0]) * np.cos(5 * b[1]) + np.sum(b**2))

    res = projected_gradient(bumpy, rng.uniform(0, 1, 2),
                             initial_step=0.5, tol=1e-8, n_max=200)
    values = [v for _, v in res.trace]
    assert all(values[k + 1] <= values[k] for k in range(len(values) - 1))


def test_iterates_stay_in_box():
    res = projected_gradient(quadratic([2.0, -1.0]), np.array([0.5, 0.5]),
                             initial_step=5.0, tol=1e-7, n_max=300)
    for p, _ in res.trace:
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_start_outside_box_rejected():
    with pytest.raises(UsageError):
        projected_gradient(quadratic([0.5, 0.5]), np.array([1.2, 0.2]),
                           initial_step=1.0, tol=1e-6, n_max=10)


def test_failure_at_start_propagates():
    def bad(_):
        raise RuntimeError("no value here")
    with pytest.raises(RuntimeError):
        projected_gradient(bad, np.array([0.5, 0.5]),
                           initial_step=1.0, tol=1e-6, n_max=10)


def test_failures_during_search_treated_as_non_decrease():
    # objective fails off the diagonal: the search stalls instead of crashing
    def partial(b):
        if abs(b[0] - b[1]) > 0.2:
            raise RuntimeError("outside feasible band")
        return float(np.sum((b - 0.4) ** 2))

    res = projected_gradient(partial, np.array([0.5, 0.5]),
                             initial_step=0.1, tol=1e-7, n_max=100)
    assert res.best_value <= partial(np.array([0.5, 0.5]))


# -- Powell -------------------------------------------------------------------------

def test_quadratic_minimized_to_high_accuracy():
    target = np.array([0.3, -1.2, 2.0])
    res = powell_minimize(lambda x: float(np.sum((x - target) ** 2)),
                          np.array([5.0, 5.0, 5.0]), tol=1e-10)
    assert np.max(np.abs(res.best_point - target)) < 1e-8


def test_rosenbrock_minimum():
    def rosen(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    res = powell_minimize(rosen, np.array([-1.2, 1.0]), tol=1e-12, max_iter=300)
    assert np.max(np.abs(res.best_point - 1.0)) < 1e-4


def test_flat_valley_costs_more_evaluations_along_flat_axis(monkeypatch):
    calls = [0]

    def valley(x):
        calls[0] += 1
        return float((x[1] - 0.4) ** 2 + 1e-4 * (x[0] - 0.8) ** 2)

    used = [0, 0]  # line-search evaluations along e0 and e1
    line_minimize = optim._line_minimize

    def counted(obj, x, direction, f_x, rel_tol=1e-6):
        before = calls[0]
        out = line_minimize(obj, x, direction, f_x, rel_tol=rel_tol)
        assert out[2] == calls[0] - before
        used[int(np.argmax(np.abs(direction)))] += out[2]
        return out

    monkeypatch.setattr(optim, "_line_minimize", counted)
    res = powell_minimize(valley, np.array([0.0, 0.4]), tol=1e-12, max_iter=100)
    assert np.allclose(res.best_point, [0.8, 0.4], atol=1e-4)
    assert used[0] > used[1]


def test_never_worse_than_start():
    rng = np.random.default_rng(13)

    def rough(x):
        return float(np.sum(np.abs(x)) + np.sin(20 * x[0]))

    for _ in range(5):
        x0 = rng.uniform(-2, 2, 2)
        res = powell_minimize(rough, x0, tol=1e-6, max_iter=20)
        assert res.best_value <= rough(x0) + 1e-14


def test_objective_failures_treated_as_infinite():
    def guarded(x):
        if x[0] < 0:
            raise RuntimeError("negative domain")
        return float((x[0] - 2.0) ** 2 + x[1] ** 2)

    res = powell_minimize(guarded, np.array([1.0, 1.0]), tol=1e-10)
    assert np.allclose(res.best_point, [2.0, 0.0], atol=1e-6)


def test_start_failure_rejected():
    def bad(_):
        raise RuntimeError("nope")
    with pytest.raises(UsageError):
        powell_minimize(bad, np.array([0.0, 0.0]))


# -- Levenberg-Marquardt ---------------------------------------------------------------

def rosen_residuals(x):
    return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])


def rosen_jacobian(x):
    return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])


def test_lm_zero_residual_rosenbrock():
    res = levenberg_marquardt(rosen_residuals, rosen_jacobian, np.array([-1.2, 1.0]),
                              tol=1e-12, max_iter=100)
    assert res.converged and res.stop_reason == "tolerance"
    assert np.max(np.abs(res.best_point - 1.0)) < 1e-10
    assert res.best_value < 1e-20
    values = [v for _, v in res.trace]
    assert all(values[k + 1] < values[k] for k in range(len(values) - 1))
    # a Jacobian at the start and at each accepted point but the last, at most
    assert len(res.trace) - 1 <= res.n_jacobians <= len(res.trace)


def test_lm_nonzero_residual_matches_minpack():
    from scipy.optimize import least_squares

    t = np.linspace(0.0, 2.0, 9)
    y = 1.5 * np.exp(-0.7 * t) + 0.05 * np.cos(7.0 * t)   # not in the model's range

    def residuals(x):
        return x[0] * np.exp(x[1] * t) - y

    def jacobian(x):
        e = np.exp(x[1] * t)
        return np.column_stack([e, x[0] * t * e])

    res = levenberg_marquardt(residuals, jacobian, np.array([1.0, 0.0]), tol=1e-12)
    ref = least_squares(residuals, [1.0, 0.0], jac=jacobian, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert res.converged
    assert np.max(np.abs(res.best_point - ref.x)) < 1e-9
    assert res.best_value == pytest.approx(2.0 * ref.cost, rel=1e-10)
    assert res.best_value > 1e-3


def test_lm_active_prior_and_bound_rows():
    # data rows x - a, prior rows sqrt(lam) (x - c) and soft-bound rows
    # sqrt(s) max(0, lo - x), sqrt(s) max(0, x - hi) on [0, 1]^2, as in the
    # multi-patient cost: a lies outside the box, so the prior and one bound
    # row of each coordinate are active at the minimum
    a, c, lam, s = np.array([2.0, -1.0]), np.array([0.5, 0.5]), 0.5, 100.0

    def residuals(x):
        return np.concatenate([x - a, np.sqrt(lam) * (x - c),
                               np.sqrt(s) * np.maximum(0.0, -x),
                               np.sqrt(s) * np.maximum(0.0, x - 1.0)])

    def jacobian(x):
        return np.vstack([np.eye(2), np.sqrt(lam) * np.eye(2),
                          -np.sqrt(s) * np.diag((x < 0.0).astype(float)),
                          np.sqrt(s) * np.diag((x > 1.0).astype(float))])

    res = levenberg_marquardt(residuals, jacobian, np.array([0.5, 0.5]), tol=1e-12)
    expected = [(a[0] + lam * c[0] + s) / (1 + lam + s), (a[1] + lam * c[1]) / (1 + lam + s)]
    assert res.converged
    assert np.allclose(res.best_point, expected, rtol=0, atol=1e-10)


def test_lm_unevaluable_trial_is_a_rejected_step():
    calls = []

    def residuals(x):
        calls.append(x.copy())
        return None if len(calls) == 2 else rosen_residuals(x)

    res = levenberg_marquardt(residuals, rosen_jacobian, np.array([-1.2, 1.0]),
                              tol=1e-12, max_iter=100)
    assert res.converged
    assert np.max(np.abs(res.best_point - 1.0)) < 1e-10
    assert res.n_evals == len(calls)
    assert not any(np.array_equal(p, calls[1]) for p, _ in res.trace)


def test_lm_failing_start_stalls():
    res = levenberg_marquardt(lambda x: None, rosen_jacobian, np.array([0.3, 0.8]))
    assert res.stop_reason == "stalled" and not res.converged
    assert res.n_evals == 1 and res.n_jacobians == 0
    assert np.array_equal(res.best_point, [0.3, 0.8])
    assert res.best_value == math.inf


def test_lm_failing_jacobian_stalls():
    res = levenberg_marquardt(rosen_residuals, lambda x: None, np.array([-1.2, 1.0]))
    assert res.stop_reason == "stalled" and not res.converged
    assert res.n_evals == 1 and res.n_jacobians == 1


def test_lm_iteration_cap_counts_trial_steps():
    seen = []
    res = levenberg_marquardt(rosen_residuals, rosen_jacobian, np.array([-1.2, 1.0]),
                              tol=1e-12, max_iter=3,
                              callback=lambda k, x, mu: seen.append((k, mu)))
    assert res.stop_reason == "max_iter" and not res.converged
    assert res.n_evals == 4
    assert [k for k, _ in seen] == [1, 2, 3]
    assert all(mu > 0 for _, mu in seen)


# -- grid search -----------------------------------------------------------------------

def test_on_grid_minimizer_found_exactly():
    res = grid_search(quadratic([0.5, 0.5]), ((0.0, 1.0), (0.0, 1.0)), 31, 31)
    assert np.array_equal(res.argmin_point, [0.5, 0.5])
    assert res.values.shape == (31, 31)
    assert res.n_evals == 31 * 31


def test_constant_objective_tie_break_first_row_major():
    res = grid_search(lambda b: 1.0, ((0.0, 1.0), (0.0, 1.0)), 4, 3)
    assert res.argmin_index == (0, 0)
    assert np.array_equal(res.argmin_point, [0.0, 0.0])


def test_endpoints_included():
    res = grid_search(lambda b: float(b[0] + b[1]), ((0.25, 0.75), (0.1, 0.9)), 3, 3)
    assert res.beta1_axis[0] == 0.25 and res.beta1_axis[-1] == 0.75
    assert res.beta2_axis[0] == 0.1 and res.beta2_axis[-1] == 0.9


def test_failed_cells_recorded_as_infinity():
    def partial(b):
        if b[0] > 0.5:
            raise RuntimeError("unstable")
        return float(b[0] + b[1])

    res = grid_search(partial, ((0.0, 1.0), (0.0, 1.0)), 5, 5)
    assert np.all(np.isinf(res.values[3:, :]))
    assert np.isfinite(res.values[0, 0])


def test_degenerate_grid_rejected():
    with pytest.raises(UsageError):
        grid_search(lambda b: 0.0, ((0.0, 1.0), (0.0, 1.0)), 1, 5)
    with pytest.raises(UsageError):
        grid_search(lambda b: 0.0, ((1.0, 0.0), (0.0, 1.0)), 3, 3)


def test_rows_export_log_scale():
    res = grid_search(quadratic([0.0, 0.0]), ((0.5, 1.0), (0.5, 1.0)), 2, 2)
    rows = res.rows()
    assert len(rows) == 4
    b1, b2, v, logv = rows[0]
    assert logv == pytest.approx(math.log10(v))


def test_determinism():
    f = quadratic([0.123, 0.456])
    r1 = grid_search(f, ((0, 1), (0, 1)), 7, 9)
    r2 = grid_search(f, ((0, 1), (0, 1)), 7, 9)
    assert np.array_equal(r1.values, r2.values)
