"""Cost functionals and identification drivers.

The forward map per patient embeds the two identifiable membrane fractions
as alpha = (d_Ca, 0, 0, d_Ci, d_Ci), runs the stationary transport solve with
the patient's frozen calibrated hydraulics, and observes the blood outlet
averages.  Identification minimizes the weighted multi-patient least squares
(Powell in log-parameters) or the single-patient relative misfit (projected
gradient), with forward failures folded into a large objective value.

Per-patient forward solves are independent.  Each process runs them through
one ``ForwardSolver``; ``ForwardContext`` holds the main process's and fans
solves out over a process pool.  Warm-start fields travel through the main
process with each task, so results do not depend on worker scheduling and
re-runs are byte-identical.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cohort import PatientRecord
from .exceptions import ConfigurationError, NewtonError, SolverError, UsageError
from .flow import HydraulicState, calibrate_hydraulics, compute_velocity_field
from .mesh import AxiGeometry, build_structured_mesh, prolongation
from .optim import (GridResult, OptimResult, grid_search, powell_minimize,
                    projected_gradient)
from .transport import (BoundaryData, ConcentrationField, TransportConfig,
                        TransportSolver, outlet_concentration)

log = logging.getLogger(__name__)


@dataclass
class MultiCostConfig:
    weights: np.ndarray
    lam: float = 0.0
    bounds: tuple = ((0.02, 1.0), (0.02, 1.0))
    penalty_scale: float = 1e4
    failure_value: float = 1e10

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (5,) or np.any(self.weights <= 0):
            raise ConfigurationError("weights must be 5 positive scalars")
        if self.lam < 0:
            raise ConfigurationError("regularization weight must be >= 0")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigurationError(f"bound interval [{lo}, {hi}] is degenerate")


def default_weights(patients) -> np.ndarray:
    """Inverse empirical scales: w_i = 1 / mean_p |y_pi|; absolute weighting
    (w_i = 1) wherever the cohort mean is numerically zero."""
    targets = np.array([p.observed_outlet for p in patients], dtype=float)
    scales = np.mean(np.abs(targets), axis=0)
    return np.where(scales > 1e-12, 1.0 / np.maximum(scales, 1e-300), 1.0)


# -- forward context ---------------------------------------------------------------

class ForwardSolver:
    """The per-patient forward solve of one process: geometry, mesh and
    config template, plus the velocity fields of the patients it has seen,
    keyed by (patient id, hydraulics).

    A cold solve on a mesh whose four resolution counts are all even starts
    Newton from the same solve on the mesh with half of each count (nested
    iteration), prolonged to this mesh.  That coarse level is a
    ``ForwardSolver`` of its own, built on the first cold solve, and nests
    again while its counts stay even."""

    def __init__(self, geom: AxiGeometry, mesh_res, cfg_template: TransportConfig):
        self.geom = geom
        self.mesh = build_structured_mesh(geom, *mesh_res)
        self.cfg_template = cfg_template
        self._velocity: dict = {}
        self._coarse = None       # (coarse ForwardSolver, prolongation), built lazily

    def solve(self, rec: PatientRecord, beta, c0_flat=None):
        """Forward solve at beta = (d_Ca, d_Ci), warm-started from the flat
        field ``c0_flat`` if given; returns (outlet, field, NewtonResult)."""
        fld, result = self._newton(rec, beta, c0_flat)
        return outlet_concentration(fld, self.mesh, self.geom), fld, result

    def _newton(self, rec: PatientRecord, beta, c0_flat):
        """``solve`` without the outlet: (field, NewtonResult)."""
        key = (rec.id, rec.hydraulics)
        if key not in self._velocity:
            self._velocity[key] = compute_velocity_field(self.mesh, self.geom, rec.hydraulics)
        cfg = replace(self.cfg_template,
                      species=self.cfg_template.species.with_beta(beta[0], beta[1]))
        bd = BoundaryData(inlet_blood=tuple(rec.inlet_blood),
                          inlet_dialysate=tuple(rec.inlet_dialysate))
        if c0_flat is None:
            c0 = self._nested_start(rec, beta)
        else:
            c0 = ConcentrationField.from_flat(self.mesh, c0_flat)
        return TransportSolver(self.mesh, self._velocity[key], cfg, bd).solve(c0=c0)

    def _nested_start(self, rec: PatientRecord, beta):
        """The cold solve on the half-resolution mesh, prolonged to this
        mesh; None (start from ``initial_field``) when a resolution count is
        odd or that solve fails."""
        m = self.mesh
        res = (m.nx, m.nr_b, m.nr_m, m.nr_d)
        if any(n % 2 for n in res):
            return None
        half = tuple(n // 2 for n in res)
        if self._coarse is None:
            coarse = ForwardSolver(self.geom, half, self.cfg_template)
            self._coarse = coarse, prolongation(coarse.mesh, m)
        coarse, prolong = self._coarse
        try:
            fld, _ = coarse._newton(rec, beta, None)
        except (NewtonError, SolverError) as exc:
            log.debug("patient %s at beta %s: the solve on mesh %s failed (%s: %s); "
                      "starting from the inlet values", rec.id, tuple(beta),
                      half, type(exc).__name__, exc)
            return None
        return ConcentrationField(m, (prolong @ fld.values.T).T)

    def task(self, rec: PatientRecord, beta, c0_flat):
        """``solve`` as one pool task: (outlet list, converged flat field, None),
        or (None, None, exception) when the solve raises.  Exceptions pickle
        with their attributes (``NewtonError.trace``, ``SolverError.residual``)."""
        try:
            outlet, fld, _ = self.solve(rec, beta, c0_flat)
        except Exception as exc:
            return None, None, exc
        return outlet.tolist(), fld.flat(), None


_WORKER: dict = {}


def _worker_init(geom, mesh_res, cfg_template):
    _WORKER["solver"] = ForwardSolver(geom, mesh_res, cfg_template)


def _worker_forward(task):
    """``ForwardSolver.task`` in a pool worker; ``task`` is (record, beta,
    warm flat field or None)."""
    return _WORKER["solver"].task(*task)


class ForwardContext:
    """Shared mesh/config plus per-patient forward evaluation, optionally
    fanned out over a process pool (jobs > 1).  Immutable inputs; the only
    mutable state is the main-process warm-start cache."""

    def __init__(self, geom: AxiGeometry, mesh_res, cfg_template: TransportConfig,
                 base_hydraulics: HydraulicState, jobs: int = 1):
        self.geom = geom
        self.mesh_res = tuple(int(n) for n in mesh_res)
        self.cfg_template = cfg_template
        self.base_hydraulics = base_hydraulics
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self._solver = ForwardSolver(geom, self.mesh_res, cfg_template)
        self.mesh = self._solver.mesh
        # in-process forward solve: (record, beta, c0_flat=None) -> (outlet, field, NewtonResult)
        self.forward_detailed = self._solver.solve
        self._warm: dict = {}
        self._pool = None

    # .. plumbing ..

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init,
                initargs=(self.geom, self.mesh_res, self.cfg_template))
        return self._pool

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # .. calibration ..

    def calibrate_record(self, rec: PatientRecord) -> PatientRecord:
        """Fix the patient's pressure levels so the net transmembrane flux
        matches its Q_uf, then freeze them."""
        target = rec.extras.get("Q_uf")
        if target is None:
            raise ConfigurationError(f"patient {rec.id} carries no Q_uf calibration target")
        hyd = calibrate_hydraulics(self.geom, rec.hydraulics, float(target))
        return replace(rec, hydraulics=hyd, calibrated=True, extras=dict(rec.extras))

    # .. forward evaluation ..

    def forward_pairs(self, pairs, use_warm=None):
        """Forward solves for [(record, beta), ...]; returns a list aligned
        with ``pairs`` of (outlet array, None) or (None, the exception the
        solve raised).

        Each solve starts from the patient's last converged field unless
        ``use_warm`` is False.  Results are gathered by submission index and
        the warm cache is updated in pair order, so outputs are independent
        of scheduling.
        """
        warm = use_warm is None or bool(use_warm)
        tasks = [(rec, tuple(float(b) for b in np.asarray(beta)),
                  self._warm.get(rec.id) if warm else None) for rec, beta in pairs]
        if self.jobs == 1 or len(pairs) == 1:
            raw = [self._solver.task(*task) for task in tasks]
        else:
            raw = list(self._ensure_pool().map(_worker_forward, tasks))
        out = []
        for (rec, _), (outlet, flat, err) in zip(pairs, raw):
            if err is None:
                if warm:
                    self._warm[rec.id] = np.asarray(flat)
                out.append((np.asarray(outlet), None))
            else:
                out.append((None, err))
        return out


def context_from_profile(profile, jobs: int = 1, mesh_res=None) -> ForwardContext:
    """Build a ForwardContext from a constants profile (see config module)."""
    res = tuple(mesh_res) if mesh_res is not None else profile.mesh_resolution
    return ForwardContext(profile.geometry, res, profile.transport_config(),
                          profile.base_hydraulics(), jobs=jobs)


# -- cost functionals ----------------------------------------------------------------

def single_patient_cost(beta, patient: PatientRecord, ctx: ForwardContext) -> float:
    """Relative squared misfit sum_i |B_i(beta) - y_i|^2 / |y_i|^2."""
    if patient.observed_outlet is None:
        raise UsageError(f"patient {patient.id} has no observed outlet targets")
    if not patient.calibrated:
        raise UsageError(f"patient {patient.id} is not hydraulically calibrated")
    y = patient.observed_outlet
    if np.any(np.abs(y) < 1e-300):
        raise UsageError(
            "relative normalization undefined: a target component is zero; "
            "use the weighted multi-patient cost with absolute weights instead")
    [(outlet, err)] = ctx.forward_pairs([(patient, beta)])
    if err is not None:
        raise err
    return float(np.sum(np.abs(outlet - y) ** 2 / np.abs(y) ** 2))


def bound_penalty(beta, cfg: MultiCostConfig) -> float:
    pen = 0.0
    for b, (lo, hi) in zip(beta, cfg.bounds):
        pen += max(0.0, lo - b) ** 2 + max(0.0, b - hi) ** 2
    return cfg.penalty_scale * pen


def multi_patient_cost(beta, patients, cfg: MultiCostConfig, ctx: ForwardContext) -> float:
    """sum_p ||W (F_p(beta) - y_p)||^2 + lam |beta - c|^2 + soft bound penalty,
    with c the center of the bound box.

    Per-patient forward failures contribute ``failure_value`` each; terms are
    summed in patient-id order so the cost is invariant under permutations of
    the input list.
    """
    if not patients:
        raise UsageError("multi-patient cost needs a nonempty patient list")
    beta = np.asarray(beta, dtype=float)
    results = ctx.forward_pairs([(rec, beta) for rec in patients])
    terms = []
    for rec, (outlet, err) in zip(patients, results):
        if err is not None:
            terms.append((rec.id, cfg.failure_value))
        else:
            resid = cfg.weights * (outlet - rec.observed_outlet)
            terms.append((rec.id, float(np.dot(resid, resid))))
    # id-sorted summation: permutation invariant, duplicates contribute k times
    total = math.fsum(v for _, v in sorted(terms, key=lambda t: t[0]))
    if cfg.lam > 0:
        d = beta - np.array([(lo + hi) / 2.0 for lo, hi in cfg.bounds])
        total += cfg.lam * float(np.dot(d, d))
    total += bound_penalty(beta, cfg)
    return total


# -- identification drivers ------------------------------------------------------------

def identify_single(patient: PatientRecord, beta0, ctx: ForwardContext,
                    initial_step: float = 0.25, tol: float = 1e-4,
                    n_max: int = 60, fd_step: float = 1e-3) -> OptimResult:
    """Projected gradient descent on the single-patient relative misfit over
    the box [0, 1]^2."""
    beta0 = np.asarray(beta0, dtype=float)
    if np.any(beta0 < 0.0) or np.any(beta0 > 1.0):
        raise UsageError(f"initial point {beta0} outside the admissible box [0, 1]^2")
    return projected_gradient(lambda b: single_patient_cost(b, patient, ctx),
                              beta0, initial_step=initial_step, tol=tol,
                              n_max=n_max, fd_step=fd_step, box=(0.0, 1.0))


def identify_multi(patients, init, cfg: MultiCostConfig, ctx: ForwardContext,
                   tol: float = 1e-10, max_iter: int = 60,
                   line_tol: float = 1e-6) -> OptimResult:
    """Powell minimization of the multi-patient cost in z = log(beta), which
    enforces positivity; the returned trace lives in beta space."""
    if not patients:
        raise UsageError("identify_multi needs a nonempty patient list")
    init = np.asarray(init, dtype=float)
    if np.any(init <= 0):
        raise UsageError("initial diffusion pair must be positive for the log map")
    for b, (lo, hi) in zip(init, cfg.bounds):
        if not (lo <= b <= hi):
            raise UsageError(f"initial point {init} outside the configured bounds {cfg.bounds}")

    cache: dict = {}

    def objective(z):
        key = (round(float(z[0]), 14), round(float(z[1]), 14))
        if key not in cache:
            cache[key] = multi_patient_cost(np.exp(z), patients, cfg, ctx)
        return cache[key]

    raw = powell_minimize(objective, np.log(init), tol=tol, max_iter=max_iter,
                          line_tol=line_tol)
    beta_trace = [(np.exp(z), v) for z, v in raw.trace]
    best = np.exp(raw.best_point)
    stalls = raw.best_value >= 0.999 * cfg.failure_value * len(patients)
    return OptimResult(best_point=best, best_value=raw.best_value,
                       trace=beta_trace, n_evals=raw.n_evals,
                       converged=raw.converged and not stalls,
                       stop_reason="stalled" if stalls else raw.stop_reason)


def landscape_scan(patients, box, n1: int, n2: int, cfg: MultiCostConfig,
                   ctx: ForwardContext) -> GridResult:
    """Exhaustive multi-patient cost scan on a uniform grid (endpoints
    included), with failures recorded as the configured failure value."""
    def objective(b):
        return multi_patient_cost(b, patients, cfg, ctx)

    grid = grid_search(objective, box, n1, n2)
    values = np.where(np.isfinite(grid.values), grid.values, cfg.failure_value)
    return GridResult(beta1_axis=grid.beta1_axis, beta2_axis=grid.beta2_axis,
                      values=values, argmin_point=grid.argmin_point,
                      argmin_index=grid.argmin_index, n_evals=grid.n_evals)


# -- sensitivity study ------------------------------------------------------------------

@dataclass
class SensitivityLevel:
    sigma: float
    per_patient_mean: dict          # id -> mean relative output error
    per_species_mean: np.ndarray    # (5,) mean over patients per species
    cohort_mean: float
    cohort_max: float
    excluded: list


@dataclass
class SensitivityResult:
    beta_star: np.ndarray
    seed: int
    levels: list

    def rows(self):
        out = []
        for lvl in self.levels:
            for sp in range(5):
                out.append((lvl.sigma, f"c{sp + 1}", float(lvl.per_species_mean[sp])))
        return out


def sensitivity_study(patients, ctx: ForwardContext, beta_star, sigmas,
                      seed: int) -> SensitivityResult:
    """Propagate clipped multiplicative coefficient perturbations through the
    full forward solver and summarize relative output errors per noise level,
    per patient and per species.  Patients whose perturbed solve fails are
    excluded from that level and reported."""
    from .cohort import derive_seed, perturb_coefficients

    beta_star = np.asarray(beta_star, dtype=float)
    refs = {}
    ref_out = ctx.forward_pairs([(rec, beta_star) for rec in patients], use_warm=False)
    kept = []
    for rec, (outlet, err) in zip(patients, ref_out):
        if err is not None:
            log.warning("patient %s excluded from sensitivity reference: %s: %s",
                        rec.id, type(err).__name__, err)
            continue
        refs[rec.id] = outlet
        kept.append(rec)

    levels = []
    for k, sigma in enumerate(sigmas):
        level_seed = derive_seed(seed, "sensitivity", k)
        betas = perturb_coefficients(beta_star, float(sigma), len(kept), level_seed)
        outs = ctx.forward_pairs(list(zip(kept, betas)), use_warm=False)
        per_patient = {}
        excluded = []
        species_acc = []
        for rec, (outlet, err) in zip(kept, outs):
            if err is not None:
                excluded.append(rec.id)
                log.warning("patient %s excluded at sigma=%s: %s: %s",
                            rec.id, sigma, type(err).__name__, err)
                continue
            rel = np.abs(outlet - refs[rec.id]) / np.abs(refs[rec.id])
            per_patient[rec.id] = float(np.mean(rel))
            species_acc.append(rel)
        species_mean = (np.mean(species_acc, axis=0) if species_acc
                        else np.full(5, np.nan))
        vals = list(per_patient.values())
        levels.append(SensitivityLevel(
            sigma=float(sigma), per_patient_mean=per_patient,
            per_species_mean=species_mean,
            cohort_mean=float(np.mean(vals)) if vals else math.nan,
            cohort_max=float(np.max(vals)) if vals else math.nan,
            excluded=excluded))
    return SensitivityResult(beta_star=beta_star, seed=int(seed), levels=levels)
