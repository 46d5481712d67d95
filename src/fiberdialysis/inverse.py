"""Cost functionals and identification drivers.

The forward map per patient passes the two identifiable membrane diffusion
coefficients beta = (d_Ca, d_Ci) to the stationary transport solve as they
are (``transport.MEMBRANE_BETA`` names the species each one scales), with the
patient's frozen calibrated hydraulics, and observes the blood outlet
averages.  Identification minimizes the weighted multi-patient least squares
in log-parameters, by Levenberg-Marquardt on exact tangent outlet Jacobians,
or the single-patient relative misfit (projected gradient), with forward
failures (package errors, a beta below 0 or not finite among them) folded
into a large objective value; any other exception is a fault and reaches
the caller with its own type, from a home slot too.  A forward solve asked for tangents
returns the outlet Jacobian d outlet / d beta next to the outlet, taken
inside that solve on the factors it already holds.

Per-patient forward solves are independent.  Each process runs them through
one ``ForwardSolver``, which also keeps each patient's warm-start state: the
beta, field and (after a tangent solve) dc/dbeta of its last warm solve, so
the next warm solve starts from the first-order prediction at its own beta,
and, from the patient's second warm solve on, the beta-free parts of its
transport operator (``transport.BetaFreeOperator``), so that later warm
solves at other beta only add the membrane terms.  A field is the solve's
own dof vector (entry 5*node + species, laid out by ``transport``): it is
cached, moved by its tangents and handed back to the next solve as is, and
reshaped only to prolong a nested start node by node.  ``ForwardContext``
holds the main process's and, with jobs > 1, gives each patient a home slot:
one worker process, forked with a copy of that solver, that runs all of that
patient's solves in the order asked.  Fields and tangent fields never leave
the process that solved them, each patient's warm-start history is the
serial one, and results do not depend on ``jobs``: re-runs are
byte-identical.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import traceback
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .cohort import NoiseSpec, PatientRecord, derive_seed
from .exceptions import (ConfigurationError, FiberDialysisError, NewtonError, SolverError,
                         UsageError)
from .flow import HydraulicState, calibrate_hydraulics, compute_velocity_field
from .mesh import AxiGeometry, build_structured_mesh, prolongation
from .optim import (GridResult, OptimResult, grid_axes, grid_search,
                    levenberg_marquardt, projected_gradient)
from .optim import powell_minimize  # noqa: F401  (bench/tracing.py wraps inverse.powell_minimize)
from .transport import (N_SPECIES, BoundaryData, TransportConfig, TransportSolver,
                        outlet_concentration)

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
        if self.penalty_scale < 0:
            raise ConfigurationError("bound penalty scale must be >= 0")
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
    """The per-patient forward solve of one process: mesh (with its geometry)
    and the profile's transport config, plus, for the patients it has seen,
    their velocity fields, keyed by (patient id, hydraulics), and the
    warm-start state of each one's last warm task.

    A warm-start state holds the patient's ``BetaFreeOperator`` (L0's block
    values and lift) from its second warm task on: about 215 KB on
    (40,6,4,5) and 830 KB on (80,12,8,10) per patient, which a patient
    solved once, or only cold, does not cost.  L0 depends on the velocity
    field and the inlet values, so the operator is kept with the hydraulics
    and inlets it was assembled for, and a task of a record that differs in
    either assembles its own.

    A cold solve on a mesh whose four resolution counts are all even starts
    Newton from the same solve on the mesh with half of each count (nested
    iteration), prolonged to this mesh.  That coarse level is a
    ``ForwardSolver`` of its own, built with this one, and nests again while
    its counts stay even."""

    def __init__(self, geom: AxiGeometry, mesh_res, cfg: TransportConfig):
        self.mesh = build_structured_mesh(geom, *mesh_res)
        self.cfg = cfg
        self._velocity: dict = {}
        # patient id -> (beta, field, dc/dbeta or None,
        #                (operator key, BetaFreeOperator) or None)
        self._warm: dict = {}
        self._coarse = None       # (coarse ForwardSolver, prolongation) if the mesh nests
        if not any(n % 2 for n in mesh_res):
            coarse = ForwardSolver(geom, [n // 2 for n in mesh_res], cfg)
            self._coarse = coarse, prolongation(coarse.mesh, self.mesh)

    def solve(self, rec: PatientRecord, beta, c0=None, tangents: bool = False):
        """Forward solve at beta = (d_Ca, d_Ci), warm-started from the field
        ``c0`` if given; returns (outlet, field, NewtonResult), whose
        ``tangents`` hold dc/dbeta when ``tangents`` is set."""
        fld, result, _ = self._newton(rec, beta, c0, tangents)
        return outlet_concentration(fld, self.mesh), fld, result

    def _newton(self, rec: PatientRecord, beta, c0, tangents=False, beta_free=None):
        """``solve`` without the outlet, on the patient's ``BetaFreeOperator``
        ``beta_free`` if given: (field, NewtonResult, the solve's operator)."""
        if c0 is None:
            c0 = self._nested_start(rec, beta)
        key = (rec.id, rec.hydraulics)
        if key not in self._velocity:
            self._velocity[key] = compute_velocity_field(self.mesh, rec.hydraulics)
        bd = BoundaryData(inlet_blood=tuple(rec.inlet_blood),
                          inlet_dialysate=tuple(rec.inlet_dialysate))
        solver = TransportSolver(self.mesh, self._velocity[key], self.cfg, bd, beta,
                                 beta_free=beta_free)
        return *solver.solve(c0=c0, tangents=tangents), solver.beta_free

    def _nested_start(self, rec: PatientRecord, beta):
        """The cold solve on the half-resolution mesh, prolonged to this
        mesh; None (start from ``initial_field``) when a resolution count is
        odd or that solve fails."""
        if self._coarse is None:
            return None
        coarse, prolong = self._coarse
        try:
            fld, _, _ = coarse._newton(rec, beta, None)
        except (NewtonError, SolverError) as exc:
            m = coarse.mesh
            log.debug("patient %s at beta %s: the solve on mesh %s failed (%s: %s); "
                      "starting from the inlet values", rec.id, tuple(beta),
                      (m.nx, m.nr_b, m.nr_m, m.nr_d), type(exc).__name__, exc)
            return None
        return (prolong @ fld.reshape(-1, N_SPECIES)).ravel()   # each species alike

    def task(self, rec: PatientRecord, beta, warm: bool, tangents: bool = False):
        """``solve`` as one task of ``ForwardContext.forward_pairs``: (outlet,
        None), or (None, exception) when the solve raises a
        ``FiberDialysisError``; any other exception is a fault and
        propagates.  With ``tangents`` the outlet is the (5, 3) array
        [outlet, d outlet / d beta]; the outlet functional is linear in c, so
        it maps each column of dc/dbeta to one of d outlet / d beta.
        Exceptions pickle with their attributes (``NewtonError.trace``,
        ``SolverError.residual``).

        A warm task starts from the patient's last warm-converged field
        here, if there is one, moved to this beta by its dc/dbeta if that
        solve took tangents (c + dc/dbeta (beta - beta_old)), and on the
        kept operator if it was assembled for this record's hydraulics and
        inlets; its own beta, field and tangents then replace those, and
        its operator is kept unless this was the patient's first warm task.
        A cold task neither reads nor writes them."""
        beta = np.asarray(beta, dtype=float)
        state = self._warm.get(rec.id) if warm else None
        c0 = beta_free = None
        key = (rec.hydraulics, tuple(rec.inlet_blood), tuple(rec.inlet_dialysate))
        if state is not None:
            beta_old, c0, dc, kept = state
            if dc is not None:
                # an infinite beta predicts NaN, which no solve reads: the
                # solve rejects that beta first
                with np.errstate(invalid="ignore"):
                    c0 = c0 + dc @ (beta - beta_old)
            if kept is not None and kept[0] == key:
                beta_free = kept[1]
        try:
            fld, result, beta_free = self._newton(rec, beta, c0, tangents, beta_free)
        except FiberDialysisError as exc:
            return None, exc
        outlet = outlet_concentration(fld, self.mesh)
        if warm:
            self._warm[rec.id] = (beta, fld, result.tangents,
                                  None if state is None else (key, beta_free))
        if tangents:
            outlet = np.column_stack([outlet] + [outlet_concentration(col, self.mesh)
                                                 for col in result.tangents.T])
        return outlet, None


_WORKER: dict = {}


def _worker_forward(task):
    """``ForwardSolver.task`` in a home slot.  ``task`` is (record, beta,
    None, warm, tangents) and the result (outlet, None, exception or
    None).  The None places are those of a warm field going in and a
    converged field coming out, whose bytes ``bench/tracing.py`` counts;
    fields never leave their home process, so both stay None."""
    rec, beta, _, warm, tangents = task
    outlet, err = _WORKER["solver"].task(rec, beta, warm, tangents)
    return outlet, None, err


def _slot_main(conn, inherited, solver):
    """Body of a home slot's process: for each batch of ``_worker_forward``
    tasks received, the list of their results, in order, or the exception
    that is not a package error (a fault) if a task raised one, with the
    slot's traceback as a note; until None arrives or the main process goes
    away.  ``solver`` is the fork's copy of the context's ``ForwardSolver``;
    with jobs > 1 the main process runs no task, so it holds no warm state.
    ``inherited`` are the main process's pipe ends that the fork copied;
    closing them lets the slot see its own pipe close."""
    for end in inherited:
        end.close()
    _WORKER["solver"] = solver
    try:
        while (tasks := conn.recv()) is not None:
            try:
                reply = [_worker_forward(task) for task in tasks]
            except Exception as exc:
                exc.add_note(traceback.format_exc())
                reply = exc
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        pass  # the main process has gone


def _stop_slots(slots):
    """Ask each home slot to finish and wait for its process, so that its
    CPU time is counted among this process's children."""
    for end, _ in slots:
        try:
            end.send(None)
        except OSError:
            pass  # the slot has already exited
        end.close()
    for _, proc in slots:
        proc.join()


class ForwardContext:
    """Shared mesh/config plus per-patient forward evaluation, in this
    process (jobs = 1) or in ``jobs`` home slots: forked worker processes,
    each with its copy of this process's ``ForwardSolver``.

    Each patient gets a home slot the first time it is seen (new ids in id
    order, round-robin over the slots) and keeps it for the life of the
    context, so its velocity field and warm fields stay in one process and
    its solves run in the order they were asked for, as in this process.
    The mutable state here is that assignment."""

    def __init__(self, geom: AxiGeometry, mesh_res, cfg: TransportConfig,
                 base_hydraulics: HydraulicState, jobs: int = 1):
        self.geom = geom
        self.base_hydraulics = base_hydraulics
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self._solver = ForwardSolver(geom, tuple(int(n) for n in mesh_res), cfg)
        self.mesh = self._solver.mesh
        # in-process forward solve: (record, beta, c0=None, tangents=False)
        #   -> (outlet, field, NewtonResult)
        self.forward_detailed = self._solver.solve
        self._home: dict = {}        # patient id -> home slot
        self._slots = None           # [(pipe end, process)] per slot, once started
        self._stop = None

    # .. plumbing ..

    def _ensure_slots(self):
        """The home slots, forking every slot's process before any task is
        sent."""
        if self._slots is None:
            # fork, not spawn: a spawned slot would import numpy and scipy
            # again.  This context starts no thread, and every slot forks
            # before a task is sent, so no fork copies a lock another
            # thread holds.
            fork = multiprocessing.get_context("fork")
            slots = []
            for _ in range(self.jobs):
                here, there = fork.Pipe()
                proc = fork.Process(target=_slot_main, daemon=True, args=(
                    there, [end for end, _ in slots] + [here], self._solver))
                proc.start()
                there.close()
                slots.append((here, proc))
            self._slots = slots
            self._stop = weakref.finalize(self, _stop_slots, slots)
        return self._slots

    def close(self):
        """Stop the home slots; a later call starts new ones, which hold no
        warm fields."""
        if self._slots is not None:
            self._stop()
            self._slots = None
            self._home.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _homes(self, ids):
        """The home slot of each patient id, assigning ids not seen before
        in id order, round-robin."""
        for pid in sorted(set(ids) - self._home.keys()):
            self._home[pid] = len(self._home) % self.jobs
        return [self._home[pid] for pid in ids]

    def _in_slots(self, tasks):
        """``_worker_forward(task)`` for each task in its patient's home
        slot; results in task order.  Each slot receives its tasks as one
        batch and runs them in the order given, so no slot waits on
        another.  A fault in a slot closes the slots and is raised here with
        its own type."""
        slots = self._ensure_slots()
        batches: dict = {}
        for k, home in enumerate(self._homes([task[0].id for task in tasks])):
            batches.setdefault(home, []).append(k)
        try:
            for home, index in batches.items():
                slots[home][0].send([tasks[k] for k in index])
            replies = [(index, slots[home][0].recv()) for home, index in batches.items()]
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError("a home slot of the forward pool exited") from exc
        except BaseException:
            self.close()  # the slots may hold batches or results not yet read
            raise
        out = [None] * len(tasks)
        for index, reply in replies:
            if isinstance(reply, Exception):
                self.close()  # the slot's warm state stopped partway through its batch
                raise reply
            for k, result in zip(index, reply):
                out[k] = result
        return out

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
        solve raised).  A pair (record, beta, True) asks for tangents: its
        result is then the (5, 3) array [outlet, d outlet / d beta], taken
        inside the solve, and a failed tangent solve fails the pair.

        Unless ``use_warm`` is False, each solve starts from the patient's
        last converged field, that of an earlier pair of the same call
        included, and keeps its own.  A pair that repeats an earlier one of
        the call (the same record object at the same beta, asking for the
        same tangents) is solved once and shares its result.  A patient's
        solves run in pair order in one process, so outputs do not depend on
        ``jobs``.
        """
        warm = use_warm is None or bool(use_warm)
        keys = [(id(pair[0]), tuple(float(b) for b in np.asarray(pair[1])),
                 len(pair) > 2 and bool(pair[2])) for pair in pairs]
        position: dict = {}   # key -> index of its task
        tasks = []
        for pair, key in zip(pairs, keys):
            if key not in position:
                position[key] = len(tasks)
                tasks.append((pair[0], key[1], None, warm, key[2]))
        if self.jobs == 1:
            raw = [self._solver.task(rec, beta, warm, tangents)
                   for rec, beta, _, _, tangents in tasks]
        else:
            raw = [(outlet, err) for outlet, _, err in self._in_slots(tasks)]
        return [raw[position[key]] for key in keys]


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


def multi_patient_cost(beta, patients, cfg: MultiCostConfig, ctx: ForwardContext) -> float:
    """sum_p ||W (F_p(beta) - y_p)||^2 + lam |beta - c|^2 + soft bound penalty,
    with c the center of the bound box.

    Per-patient forward failures contribute ``failure_value`` each; the
    patient terms are summed exactly rounded (``math.fsum``), so the cost is
    invariant under permutations of the input list.
    """
    if not patients:
        raise UsageError("multi-patient cost needs a nonempty patient list")
    beta = np.asarray(beta, dtype=float)
    return _folded_cost(beta, patients, ctx.forward_pairs([(rec, beta) for rec in patients]),
                        cfg)


def _folded_cost(beta, patients, results, cfg: MultiCostConfig) -> float:
    """``multi_patient_cost`` at beta from the ``forward_pairs`` results of
    ``patients``; each failed solve is logged at INFO as it is folded in."""
    terms = []
    for rec, (outlet, err) in zip(patients, results):
        if err is not None:
            log.info("beta %s: patient %s failed (%s: %s)", np.asarray(beta).tolist(),
                     rec.id, type(err).__name__, err)
            terms.append(cfg.failure_value)
        else:
            resid = cfg.weights * (outlet - rec.observed_outlet)
            terms.append(float(np.dot(resid, resid)))
    prior = _prior_rows(beta, cfg)
    return math.fsum(terms) + float(np.dot(prior, prior))


def _prior_rows(beta, cfg: MultiCostConfig) -> np.ndarray:
    """The cost's rows beyond the patients: sqrt(lam) (beta - c), with c the
    center of the bound box, then sqrt(penalty_scale) times each
    coordinate's distance below and above its bound interval."""
    beta = np.asarray(beta, dtype=float)
    lo, hi = np.array(cfg.bounds, dtype=float).T
    root_scale = math.sqrt(cfg.penalty_scale)
    return np.concatenate([math.sqrt(cfg.lam) * (beta - (lo + hi) / 2.0),
                           root_scale * np.maximum(0.0, lo - beta),
                           root_scale * np.maximum(0.0, beta - hi)])


def multi_patient_residuals(beta, patients, outlets, cfg: MultiCostConfig) -> np.ndarray:
    """The residual rows r whose squared norm is ``multi_patient_cost``, from
    the outlets F_p of ``patients``: W (F_p - y_p) per patient in the given
    order, then ``_prior_rows``."""
    return np.concatenate(
        [cfg.weights * (F - rec.observed_outlet) for rec, F in zip(patients, outlets)]
        + [_prior_rows(beta, cfg)])


def multi_patient_residual_jacobian(beta, jacobians, cfg: MultiCostConfig) -> np.ndarray:
    """d r / d beta of ``multi_patient_residuals``, from each patient's outlet
    Jacobian d F_p / d beta (5, 2) in the same order."""
    beta = np.asarray(beta, dtype=float)
    lo, hi = np.array(cfg.bounds, dtype=float).T
    root_scale = math.sqrt(cfg.penalty_scale)
    return np.vstack([cfg.weights[:, None] * jac for jac in jacobians]
                     + [math.sqrt(cfg.lam) * np.eye(2),
                        -root_scale * np.diag((beta < lo).astype(float)),
                        root_scale * np.diag((beta > hi).astype(float))])


# -- identification drivers ------------------------------------------------------------

def identify_single(patient: PatientRecord, beta0, ctx: ForwardContext,
                    initial_step: float = 0.25, tol: float = 1e-4,
                    n_max: int = 60, fd_step: float = 1e-3) -> OptimResult:
    """Projected gradient descent on the single-patient relative misfit over
    the box [0, 1]^2."""
    return projected_gradient(lambda b: single_patient_cost(b, patient, ctx),
                              beta0, initial_step=initial_step, tol=tol,
                              n_max=n_max, fd_step=fd_step)


def identify_multi(patients, init, cfg: MultiCostConfig, ctx: ForwardContext,
                   tol: float = 1e-10, max_iter: int = 60) -> OptimResult:
    """Minimize the multi-patient cost in z = log(beta), which enforces
    positivity, by Levenberg-Marquardt on ``multi_patient_residuals``
    (patients in id order) with exact outlet Jacobians; the z-Jacobian is the
    beta-Jacobian times diag(beta).  One evaluation asks its solves for
    tangents and returns the residuals and the z-Jacobian, both from the
    same ``forward_pairs`` results.  ``tol`` and ``max_iter`` are the
    stopping tolerance and trial-step cap.  A trial point where any
    patient's solve, tangents included, fails cannot be evaluated.  The
    returned trace lives in beta space and reports ``multi_patient_cost``'s
    values, failures folded in."""
    if not patients:
        raise UsageError("identify_multi needs a nonempty patient list")
    init = np.asarray(init, dtype=float)
    if np.any(init <= 0):
        raise UsageError("initial diffusion pair must be positive for the log map")
    for b, (lo, hi) in zip(init, cfg.bounds):
        if not (lo <= b <= hi):
            raise UsageError(f"initial point {init} outside the configured bounds {cfg.bounds}")
    patients = sorted(patients, key=lambda rec: rec.id)
    costs: dict = {}   # z.tobytes() -> multi_patient_cost at that point

    def evaluate(z):
        beta = np.exp(z)
        results = ctx.forward_pairs([(rec, beta, True) for rec in patients])
        outlets = [(None, err) if err is not None else (A[:, 0], None) for A, err in results]
        costs[z.tobytes()] = _folded_cost(beta, patients, outlets, cfg)
        if any(err is not None for _, err in results):
            return None
        r = multi_patient_residuals(beta, patients, [F for F, _ in outlets], cfg)
        jac = multi_patient_residual_jacobian(beta, [A[:, 1:] for A, _ in results], cfg)
        return r, jac * beta

    def report(k, z, damping):
        log.info("Levenberg-Marquardt iteration %d: beta %s, J %.6e, damping %.3e",
                 k, np.exp(z).tolist(), costs[z.tobytes()], damping)

    raw = levenberg_marquardt(evaluate, np.log(init), tol=tol, max_iter=max_iter,
                              callback=report)
    beta_trace = [(np.exp(z), costs[z.tobytes()]) for z, _ in raw.trace]
    return OptimResult(best_point=np.exp(raw.best_point), best_value=beta_trace[-1][1],
                       trace=beta_trace, n_evals=raw.n_evals, converged=raw.converged,
                       stop_reason=raw.stop_reason, n_jacobians=raw.n_jacobians)


def landscape_scan(patients, box, n1: int, n2: int, cfg: MultiCostConfig,
                   ctx: ForwardContext) -> GridResult:
    """Exhaustive multi-patient cost scan on a uniform grid (endpoints
    included), with each failed solve folded in as the configured failure
    value.

    The whole grid is one ``forward_pairs`` batch: points in
    ``grid_search``'s row-major order, patients in the order given.  Each
    patient's warm starts follow the same sequence as a point-by-point
    scan, and no home slot waits for the others between points."""
    if not patients:
        raise UsageError("landscape scan needs a nonempty patient list")
    b1, b2 = grid_axes(box, n1, n2)
    points = [np.array([x1, x2]) for x1 in b1 for x2 in b2]
    results = ctx.forward_pairs([(rec, beta) for beta in points for rec in patients])
    n = len(patients)
    at_point = {beta.tobytes(): results[k * n:(k + 1) * n] for k, beta in enumerate(points)}
    return grid_search(lambda b: _folded_cost(b, patients, at_point[b.tobytes()], cfg),
                       box, n1, n2)


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
                      seed: int, clip_factor: float = 3.0) -> SensitivityResult:
    """Propagate multiplicative coefficient perturbations, clipped to
    +-clip_factor*sigma, through the full forward solver and summarize
    relative output errors per noise level, per patient and per species.
    Every level's cold solves go to ``forward_pairs`` as one batch.
    Patients whose perturbed solve fails are excluded from that level and
    reported."""
    beta_star = np.asarray(beta_star, dtype=float)
    specs = [NoiseSpec(float(sigma), clip_factor, derive_seed(seed, "sensitivity", k))
             for k, sigma in enumerate(sigmas)]
    refs = {}
    ref_out = ctx.forward_pairs([(rec, beta_star) for rec in patients], use_warm=False)
    kept = []
    for rec, (outlet, err) in zip(patients, ref_out):
        if err is not None:
            log.warning("patient %s excluded from sensitivity reference at beta %s: %s: %s",
                        rec.id, beta_star.tolist(), type(err).__name__, err)
            continue
        refs[rec.id] = outlet
        kept.append(rec)

    betas = [spec.perturb(np.tile(beta_star, (len(kept), 1))) for spec in specs]
    outs = ctx.forward_pairs([(rec, beta) for level in betas for rec, beta in zip(kept, level)],
                             use_warm=False)
    n = len(kept)
    levels = []
    for k, (spec, level) in enumerate(zip(specs, betas)):
        per_patient = {}
        excluded = []
        species_acc = []
        for rec, beta, (outlet, err) in zip(kept, level, outs[k * n:(k + 1) * n]):
            if err is not None:
                excluded.append(rec.id)
                log.warning("patient %s excluded at sigma=%s, beta %s: %s: %s",
                            rec.id, spec.sigma, beta.tolist(), type(err).__name__, err)
                continue
            rel = np.abs(outlet - refs[rec.id]) / np.abs(refs[rec.id])
            per_patient[rec.id] = float(np.mean(rel))
            species_acc.append(rel)
        species_mean = (np.mean(species_acc, axis=0) if species_acc
                        else np.full(5, np.nan))
        vals = list(per_patient.values())
        levels.append(SensitivityLevel(
            sigma=spec.sigma, per_patient_mean=per_patient,
            per_species_mean=species_mean,
            cohort_mean=float(np.mean(vals)) if vals else math.nan,
            cohort_max=float(np.max(vals)) if vals else math.nan,
            excluded=excluded))
    return SensitivityResult(beta_star=beta_star, seed=int(seed), levels=levels)
