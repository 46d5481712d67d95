"""Generic optimizers driving the inverse layer.

Derivative-free machinery for an expensive black-box objective: forward
finite-difference pseudo-gradient, projected gradient descent with adaptive
step halving, exhaustive grid scanning, and Powell's direction-set method
(scipy's, kept as the oracle the Levenberg-Marquardt identification is
tested against); and Levenberg-Marquardt for a sum of squares whose one
evaluation returns the residuals and their Jacobian together.  All methods
are deterministic for a deterministic objective.  An objective evaluation
that fails with a package error (``FiberDialysisError``: a forward solve that
did not converge, a rejected beta) is folded into the search (treated as
non-decrease / +inf) rather than aborting, except at the starting point; any
other exception is a fault and propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import FiberDialysisError, UsageError

_STEP_FLOOR = 1e-12
_LM_TAU = 1e-3  # initial damping relative to the largest diagonal entry of J^T J


@dataclass
class OptimResult:
    best_point: np.ndarray
    best_value: float
    trace: list            # [(point, value)] accepted iterates
    n_evals: int
    converged: bool
    stop_reason: str       # "tolerance" | "max_iter" | "stalled"
    n_jacobians: int = 0   # residual Jacobian evaluations (Levenberg-Marquardt)


class _CountedObjective:
    def __init__(self, f):
        self.f = f
        self.n_evals = 0

    def __call__(self, x):
        self.n_evals += 1
        return float(self.f(np.asarray(x, dtype=float)))

    def safe(self, x):
        """Evaluation with package failures mapped to +inf."""
        try:
            v = self(x)
        except FiberDialysisError:
            return math.inf
        return v if np.isfinite(v) else math.inf


def fd_gradient(f, beta, h: float, f0: float) -> np.ndarray:
    """Forward-difference pseudo-gradient ((f(b+h e_k) - f0) / h)_k, where
    ``f0`` is the value f(b) the caller already has."""
    if not h > 0:
        raise UsageError(f"finite-difference step must be positive, got {h}")
    beta = np.asarray(beta, dtype=float)
    grad = np.empty_like(beta)
    for k in range(beta.size):
        bk = beta.copy()
        bk[k] += h
        grad[k] = (float(f(bk)) - f0) / h
    return grad


def projected_gradient(f, beta0, initial_step: float, tol: float, n_max: int,
                       fd_step: float = 1e-3) -> OptimResult:
    """Projected gradient descent with adaptive step halving on [0, 1]^d.

    Follows the two-loop structure with step reset each outer iteration and
    an s >= 1e-12 floor; when the halving loop cannot find a decreasing
    projected step the iteration stops with reason "stalled" instead of
    accepting an uphill move, so the accepted-value trace is non-increasing.
    Each point is evaluated once: the accepted candidate keeps the value the
    halving loop found, and the gradient at it reuses that value.
    """
    beta = np.array(beta0, dtype=float)
    if np.any(beta < 0.0) or np.any(beta > 1.0):
        raise UsageError(f"starting point {beta} outside the box [0, 1]^d")
    obj = _CountedObjective(f)
    j_cur = obj(beta)  # failure at beta0 propagates
    trace = [(beta.copy(), j_cur)]

    def halve(first):
        """Halve s from ``initial_step`` until the projected step decreases
        f or a guard stops it: |step| <= tol on the first call and
        s |step| <= tol later, as printed, or the step floor.  Returns the
        candidate, its displacement, and its value if one was evaluated."""
        g = fd_gradient(obj, beta, fd_step, j_cur)
        s = float(initial_step)
        while True:
            cand = np.clip(beta - s * g, 0.0, 1.0)
            disp = np.linalg.norm(cand - beta)
            if (disp if first else s * disp) <= tol or s <= _STEP_FLOOR:
                return cand, disp, None
            j_cand = obj.safe(cand)
            if j_cand < j_cur:
                return cand, disp, j_cand
            s /= 2.0

    cand, disp, j_cand = halve(first=True)
    n = 0
    while True:
        if disp <= tol:
            stop_reason = "tolerance"
            break
        if n >= n_max:
            stop_reason = "max_iter"
            break
        if j_cand is None:
            j_cand = obj.safe(cand)
        if not j_cand < j_cur:
            stop_reason = "stalled"
            break
        beta, j_cur = cand, j_cand
        trace.append((beta.copy(), j_cur))
        n += 1
        cand, disp, j_cand = halve(first=False)

    values = [v for _, v in trace]
    k_best = int(np.argmin(values))
    return OptimResult(best_point=trace[k_best][0].copy(), best_value=values[k_best],
                       trace=trace, n_evals=obj.n_evals,
                       converged=stop_reason == "tolerance", stop_reason=stop_reason)


# -- Powell direction-set method ------------------------------------------------

def powell_minimize(f, x0, tol: float = 1e-8, max_iter: int = 100) -> OptimResult:
    """Powell's direction-set minimization (Powell, *Comput. J.* 7, 1964), as
    scipy's ``minimize(method="Powell")`` with ``xtol = ftol = tol`` and at
    most ``max_iter`` sweeps.

    Failing objective evaluations count as +inf.  ``trace`` holds the start
    and the point and value after each sweep; ``stop_reason`` is "tolerance"
    when scipy reports success, else "max_iter".
    """
    from scipy.optimize import minimize  # 0.2-0.3 s: only the oracle tests need it

    x = np.asarray(x0, dtype=float).copy()
    obj = _CountedObjective(f)
    fx = obj.safe(x)
    if not np.isfinite(fx):
        raise UsageError(f"objective not finite at the starting point {x0}")
    trace = [(x.copy(), fx)]

    def record(intermediate_result):
        trace.append((np.array(intermediate_result.x, dtype=float),
                      float(intermediate_result.fun)))

    res = minimize(obj.safe, x, method="Powell", callback=record,
                   options={"xtol": tol, "ftol": tol, "maxiter": max_iter})
    converged = res.status == 0
    return OptimResult(best_point=np.asarray(res.x, dtype=float), best_value=float(res.fun),
                       trace=trace, n_evals=obj.n_evals, converged=converged,
                       stop_reason="tolerance" if converged else "max_iter")


# -- Levenberg-Marquardt ------------------------------------------------------------

def levenberg_marquardt(evaluate, x0, tol: float = 1e-10, max_iter: int = 60,
                        callback=None) -> OptimResult:
    """Levenberg-Marquardt minimization of f(x) = |r(x)|^2 (Madsen, Nielsen &
    Tingleff, *Methods for Non-Linear Least Squares Problems*, 2004, alg. 3.16).

    ``evaluate(x)`` returns the residual vector r(x) and its Jacobian dr/dx
    as a pair, or None where x cannot be evaluated.

    Each iteration tries the step h solving (J^T J + mu I) h = -J^T r and
    accepts it if f decreases; the damping mu then shrinks by the gain ratio
    of actual to predicted decrease, and grows (by 2, 4, 8, ...) after a
    rejected or unevaluable trial.  The search converges ("tolerance") when
    the undamped Gauss-Newton step is at most ``tol`` long, or when an
    accepted step improves f by at most tol (|f_old| + |f_new|) (Powell's
    test).  It stops "stalled" when the start cannot be evaluated or when
    rejections shrink the step below ``tol``, and "max_iter" after
    ``max_iter`` trial steps.  ``n_jacobians`` counts the points whose J a
    step used: the start and each accepted point the search went on from.
    ``callback(k, x, mu)`` runs after trial k with the current point.
    """
    x = np.asarray(x0, dtype=float).copy()
    point = evaluate(x)
    n_evals, n_jac = 1, 0
    if point is None:
        return OptimResult(best_point=x, best_value=math.inf, trace=[(x.copy(), math.inf)],
                           n_evals=n_evals, converged=False, stop_reason="stalled")
    r, jac = point
    f = float(r @ r)
    trace = [(x.copy(), f)]
    mu, nu = None, 2.0
    moved = True   # x changed since the normal equations were formed
    stop_reason = "max_iter"
    for k in range(1, max_iter + 1):
        if moved:
            moved = False
            n_jac += 1
            A, g = jac.T @ jac, jac.T @ r
            gn_step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            if np.linalg.norm(gn_step) <= tol:
                stop_reason = "tolerance"
                break
            if mu is None:
                mu = _LM_TAU * float(np.max(np.diag(A)))
        h = np.linalg.solve(A + mu * np.eye(x.size), -g)
        if np.linalg.norm(h) <= tol:
            stop_reason = "stalled"
            break
        x_new = x + h
        trial = evaluate(x_new)
        n_evals += 1
        f_new = math.inf if trial is None else float(trial[0] @ trial[0])
        accepted = f_new < f
        if accepted:
            predicted = float(h @ (mu * h - g))   # |r|^2 - |r + J h|^2
            rho = (f - f_new) / predicted if predicted > 0 else 1.0
            small_gain = f - f_new <= tol * (abs(f) + abs(f_new) + 1e-30)
            x, f, moved = x_new, f_new, True
            r, jac = trial
            trace.append((x.copy(), f))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if callback is not None:
            callback(k, x, mu)
        if accepted and small_gain:
            stop_reason = "tolerance"
            break
    return OptimResult(best_point=x.copy(), best_value=f, trace=trace, n_evals=n_evals,
                       converged=stop_reason == "tolerance", stop_reason=stop_reason,
                       n_jacobians=n_jac)


@dataclass
class GridResult:
    beta1_axis: np.ndarray
    beta2_axis: np.ndarray
    values: np.ndarray       # (n1, n2), +inf where the objective failed
    argmin_point: np.ndarray
    argmin_index: tuple
    n_evals: int

    def rows(self):
        """(beta1, beta2, J, log10 J) rows in row-major grid order."""
        out = []
        for i1, b1 in enumerate(self.beta1_axis):
            for i2, b2 in enumerate(self.beta2_axis):
                v = self.values[i1, i2]
                logv = math.log10(v) if 0 < v < math.inf else math.inf
                out.append((float(b1), float(b2), float(v), logv))
        return out


def grid_axes(box, n1: int, n2: int):
    """The axes (b1, b2) of the uniform (n1 x n2) tensor grid over
    box = ((lo1, hi1), (lo2, hi2)), endpoints included."""
    (lo1, hi1), (lo2, hi2) = box
    if n1 < 2 or n2 < 2:
        raise UsageError("grid resolution must be at least 2 per axis")
    if not (hi1 > lo1 and hi2 > lo2):
        raise UsageError("grid box must be nondegenerate")
    return np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)


def grid_search(f, box, n1: int, n2: int) -> GridResult:
    """Evaluate f at every point np.array([b1[i1], b2[i2]]) of the grid
    ``grid_axes`` gives, in row-major order.

    Failed evaluations are recorded as +inf; ties resolve to the first
    row-major minimal entry.
    """
    b1, b2 = grid_axes(box, n1, n2)
    obj = _CountedObjective(f)
    values = np.empty((n1, n2))
    for i1 in range(n1):
        for i2 in range(n2):
            values[i1, i2] = obj.safe(np.array([b1[i1], b2[i2]]))
    flat = int(np.argmin(values))
    i1, i2 = np.unravel_index(flat, values.shape)
    return GridResult(beta1_axis=b1, beta2_axis=b2, values=values,
                      argmin_point=np.array([b1[i1], b2[i2]]),
                      argmin_index=(int(i1), int(i2)), n_evals=obj.n_evals)
