"""Generic optimizers driving the inverse layer.

Derivative-free machinery for an expensive black-box objective: forward
finite-difference pseudo-gradient, projected gradient descent with adaptive
step halving, Powell direction-set minimization with bracketing + Brent line
searches, and exhaustive grid scanning; and Levenberg-Marquardt for a sum
of squares whose one evaluation returns the residuals and their Jacobian
together.  All methods are deterministic for a deterministic objective, and
a failing objective evaluation is folded into the search (treated as
non-decrease / +inf) rather than aborting, except at the starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UsageError

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_STEP_FLOOR = 1e-12
_LM_TAU = 1e-3  # initial damping relative to the largest diagonal entry of J^T J
_LINE_TOL = 1e-6  # relative tolerance of Powell's Brent line searches


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
        """Evaluation with failures mapped to +inf."""
        try:
            v = self(x)
        except Exception:
            return math.inf
        return v if np.isfinite(v) else math.inf


def fd_gradient(f, beta, h: float) -> np.ndarray:
    """Forward-difference pseudo-gradient ((f(b+h e_k) - f(b)) / h)_k."""
    if not h > 0:
        raise UsageError(f"finite-difference step must be positive, got {h}")
    beta = np.asarray(beta, dtype=float)
    f0 = float(f(beta))
    grad = np.empty_like(beta)
    for k in range(beta.size):
        bk = beta.copy()
        bk[k] += h
        grad[k] = (float(f(bk)) - f0) / h
    return grad


def project_box(beta, lo=0.0, hi=1.0):
    return np.clip(np.asarray(beta, dtype=float), lo, hi)


def projected_gradient(f, beta0, initial_step: float, tol: float, n_max: int,
                       fd_step: float = 1e-3, box=(0.0, 1.0)) -> OptimResult:
    """Projected gradient descent with adaptive step halving on [lo, hi]^d.

    Follows the two-loop structure with step reset each outer iteration and
    an s >= 1e-12 floor; when the halving loop cannot find a decreasing
    projected step the iteration stops with reason "stalled" instead of
    accepting an uphill move, so the accepted-value trace is non-increasing.
    """
    lo, hi = box
    beta0 = np.asarray(beta0, dtype=float)
    if np.any(beta0 < lo) or np.any(beta0 > hi):
        raise UsageError(f"starting point {beta0} outside the box [{lo}, {hi}]^d")
    obj = _CountedObjective(f)
    beta = beta0.copy()
    j_cur = obj(beta)  # failure at beta0 propagates
    trace = [(beta.copy(), j_cur)]

    def grad_at(b):
        return fd_gradient(obj, b, fd_step)

    def trial(b, s, g):
        return project_box(b - s * g, lo, hi)

    g = grad_at(beta)
    s = float(initial_step)
    # initial halving: unscaled displacement guard, as printed
    while True:
        cand = trial(beta, s, g)
        disp = np.linalg.norm(cand - beta)
        if disp <= tol or s <= _STEP_FLOOR:
            break
        if obj.safe(cand) < j_cur:
            break
        s /= 2.0

    n = 0
    stop_reason = "tolerance"
    while True:
        cand = trial(beta, s, g)
        disp = np.linalg.norm(cand - beta)
        if disp <= tol:
            stop_reason = "tolerance"
            break
        if n >= n_max:
            stop_reason = "max_iter"
            break
        j_cand = obj.safe(cand)
        if not j_cand < j_cur:
            stop_reason = "stalled"
            break
        beta = cand
        j_cur = j_cand
        trace.append((beta.copy(), j_cur))
        n += 1
        g = grad_at(beta)
        s = float(initial_step)
        # inner halving: s-scaled displacement guard, as printed
        while True:
            cand = trial(beta, s, g)
            disp = np.linalg.norm(cand - beta)
            if s * disp <= tol or s <= _STEP_FLOOR:
                break
            if obj.safe(cand) < j_cur:
                break
            s /= 2.0

    values = [v for _, v in trace]
    k_best = int(np.argmin(values))
    return OptimResult(best_point=trace[k_best][0].copy(), best_value=values[k_best],
                       trace=trace, n_evals=obj.n_evals,
                       converged=stop_reason == "tolerance", stop_reason=stop_reason)


# -- Powell direction-set method ------------------------------------------------

def _bracket(g, a=0.0, b=1.0):
    """Expand by factor 2 from [a, b] until a minimum is bracketed.

    Returns (a, m, b, gm) with g(m) <= g(a), g(m) <= g(b).
    """
    ga, gb = g(a), g(b)
    if gb > ga:
        a, b = b, a
        ga, gb = gb, ga
    c = b + 2.0 * (b - a)
    gc = g(c)
    while gc < gb:
        a, ga = b, gb
        b, gb = c, gc
        c = b + 2.0 * (b - a)
        gc = g(c)
        if abs(c) > 1e12:
            break
    lo, hi = (a, c) if a < c else (c, a)
    return lo, b, hi, gb


def _brent(g, a, m, b, gm, rel_tol=_LINE_TOL, max_iter=80):
    """Brent line minimization on a bracket (golden-section with parabolic
    refinement)."""
    x = w = v = m
    fx = fw = fv = gm
    d = e = b - a
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        tol1 = rel_tol * abs(x) + 1e-15
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        use_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            e_tmp = e
            e = d
            if abs(p) < abs(0.5 * q * e_tmp) and p > q * (a - x) and p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                use_golden = False
        if use_golden:
            e = (b if x < xm else a) - x
            d = (1.0 - _GOLD) * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _line_minimize(obj, x, direction, f_x, rel_tol=_LINE_TOL):
    """Minimize t -> f(x + t d); returns (new x, new f, evals used)."""
    before = obj.n_evals
    scale = np.linalg.norm(direction)
    if scale == 0.0:
        return x, f_x, 0

    def g(t):
        return obj.safe(x + t * direction)

    a, m, b, gm = _bracket(g, 0.0, 1.0)
    t, ft = _brent(g, a, m, b, gm, rel_tol=rel_tol)
    if ft < f_x:
        return x + t * direction, ft, obj.n_evals - before
    return x, f_x, obj.n_evals - before


def powell_minimize(f, x0, tol: float = 1e-8, max_iter: int = 100) -> OptimResult:
    """Powell's direction-set minimization.

    Sweeps one-dimensional minimizations over the current direction set; after
    each sweep the net displacement replaces the direction that produced the
    largest single decrease (the standard replacement test), keeping the set
    non-degenerate.  Stops when both the sweep improvement and the sweep
    displacement fall below ``tol``.  Failing objective evaluations are
    treated as +inf by the line searches.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    obj = _CountedObjective(f)
    fx = obj.safe(x)
    if not np.isfinite(fx):
        raise UsageError(f"objective not finite at the starting point {x0}")
    directions = [np.eye(n)[k].copy() for k in range(n)]
    trace = [(x.copy(), fx)]
    stop_reason = "max_iter"
    converged = False

    for _ in range(max_iter):
        x_start = x.copy()
        f_start = fx
        biggest_drop = 0.0
        k_biggest = 0
        for k, d in enumerate(directions):
            f_before = fx
            x, fx, _ = _line_minimize(obj, x, d, fx)
            if f_before - fx > biggest_drop:
                biggest_drop = f_before - fx
                k_biggest = k
        improvement = f_start - fx
        displacement = float(np.linalg.norm(x - x_start))
        trace.append((x.copy(), fx))
        if improvement <= tol * (abs(f_start) + abs(fx) + 1e-30) and displacement <= tol:
            stop_reason = "tolerance"
            converged = True
            break

        # extrapolated point test, then replace the most effective direction
        # with the net displacement (it is the one best represented by it)
        net = x - x_start
        if np.linalg.norm(net) > 0:
            f_ext = obj.safe(x_start + 2.0 * net)
            if f_ext < f_start:
                t1 = f_start - fx - biggest_drop
                t2 = f_start - f_ext
                crit = 2.0 * (f_start - 2.0 * fx + f_ext) * t1**2 - biggest_drop * t2**2
                if crit < 0.0:
                    x, fx, _ = _line_minimize(obj, x, net, fx)
                    directions[k_biggest] = net / np.linalg.norm(net)
                    trace[-1] = (x.copy(), fx)

    values = [v for _, v in trace]
    k_best = int(np.argmin(values))
    return OptimResult(best_point=trace[k_best][0].copy(), best_value=values[k_best],
                       trace=trace, n_evals=obj.n_evals,
                       converged=converged, stop_reason=stop_reason)


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
