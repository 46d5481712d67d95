"""Synthetic cohort generation, calibration and perturbation studies.

A cohort table holds one row per physiological field and one column per
patient (missing entries are NaN on real input).  Synthetic patients are
drawn row-wise from Normal(mean, std^2) fitted on the non-missing entries,
floored at half the observed minimum; constant rows stay constant.  Each row
samples from its own PRNG stream keyed by (seed, field name), so permuting
input rows permutes output rows identically and draws are patient-ordered.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConfigurationError, FiberDialysisError, UsageError
from .flow import HydraulicState
from .transport import N_SPECIES

log = logging.getLogger(__name__)

CONCENTRATION_FIELDS = tuple(f"c{i}_inlet_blood" for i in range(1, 6)) + \
    tuple(f"c{i}_inlet_dialysate" for i in range(1, 6))
HYDRAULIC_FIELDS = ("Q_b", "Q_d", "Q_uf")
REQUIRED_FIELDS = CONCENTRATION_FIELDS + HYDRAULIC_FIELDS


@dataclass
class CohortTable:
    field_names: list
    values: np.ndarray            # (M, N), NaN = missing

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != len(self.field_names):
            raise ConfigurationError(
                f"values must be (n_fields, n_patients), got {self.values.shape} "
                f"for {len(self.field_names)} fields")

    @property
    def n_patients(self):
        return self.values.shape[1]

    def row(self, name: str) -> np.ndarray:
        try:
            k = self.field_names.index(name)
        except ValueError:
            raise UsageError(f"cohort table has no field {name!r}") from None
        return self.values[k]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["field"] + [f"s{k + 1}" for k in range(self.n_patients)]
            writer.writerow(header)
            for name, row in zip(self.field_names, self.values):
                writer.writerow([name] + ["" if np.isnan(v) else repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][:1] != ["field"]:
            raise ConfigurationError(f"{path}: first column of the header must be 'field'")
        names, data = [], []
        for line_no, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != len(rows[0]):
                raise ConfigurationError(f"{path}:{line_no}: {len(row)} cells where the "
                                         f"header has {len(rows[0])}")
            if row[0] in names:
                raise ConfigurationError(f"{path}:{line_no}: field {row[0]!r} repeats an "
                                         "earlier row")
            names.append(row[0])
            try:
                data.append([float(v) if v.strip() != "" else np.nan for v in row[1:]])
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
        return cls(field_names=names, values=np.array(data, dtype=float))


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    clip_factor: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ConfigurationError("noise sigma must be >= 0")
        if not self.clip_factor > 0:
            raise ConfigurationError("clip factor must be > 0")

    def perturb(self, values) -> np.ndarray:
        """Multiplicative noise values (1 + eps), eps ~ N(0, sigma^2) drawn
        entrywise in row order and clipped to +-clip_factor*sigma."""
        values = np.asarray(values, dtype=float)
        eps = np.random.default_rng(self.seed).normal(0.0, self.sigma, size=values.shape)
        bound = self.clip_factor * self.sigma
        return values * (1.0 + np.clip(eps, -bound, bound))


@dataclass
class PatientRecord:
    id: str
    inlet_blood: np.ndarray
    inlet_dialysate: np.ndarray
    observed_outlet: np.ndarray | None = None
    hydraulics: HydraulicState | None = None
    calibrated: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("inlet_blood", "inlet_dialysate", "observed_outlet"):
            if getattr(self, name) is not None:
                v = np.asarray(getattr(self, name), dtype=float)
                if v.shape != (N_SPECIES,):
                    raise ConfigurationError(f"patient {self.id}: {name} must have "
                                             f"{N_SPECIES} entries, got shape {v.shape}")
                setattr(self, name, v)
        if np.any(self.inlet_blood < 0) or np.any(self.inlet_dialysate < 0):
            raise ConfigurationError(f"patient {self.id}: negative inlet concentration")

    def to_dict(self):
        d = {
            "id": self.id,
            "inlet_blood": [float(v) for v in self.inlet_blood],
            "inlet_dialysate": [float(v) for v in self.inlet_dialysate],
            "observed_outlet": None if self.observed_outlet is None
            else [float(v) for v in self.observed_outlet],
            "calibrated": self.calibrated,
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
        }
        if self.hydraulics is not None:
            d["hydraulics"] = {k: float(getattr(self.hydraulics, k))
                               for k in ("p_in_b", "p_out_b", "p_in_d", "p_out_d",
                                         "K_over_mu", "Q_b", "Q_d")}
        else:
            d["hydraulics"] = None
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigurationError(f"a patient record must be a JSON object, got {d!r}")
        missing = [k for k in ("id", "inlet_blood", "inlet_dialysate") if k not in d]
        if missing:
            raise ConfigurationError(f"patient record {d.get('id', '')!r} is missing "
                                     f"{', '.join(missing)}")
        if not isinstance(d["id"], str):
            raise ConfigurationError(f"patient record id {d['id']!r} is not a string")
        hyd = None
        if d.get("hydraulics") is not None:
            hyd = HydraulicState(**d["hydraulics"])
        rec = cls(id=d["id"], inlet_blood=d["inlet_blood"],
                  inlet_dialysate=d["inlet_dialysate"],
                  observed_outlet=d.get("observed_outlet"),
                  hydraulics=hyd, calibrated=d.get("calibrated", False),
                  extras=dict(d.get("extras", {})))
        concentrations = [rec.inlet_blood, rec.inlet_dialysate]
        if rec.observed_outlet is not None:
            concentrations.append(rec.observed_outlet)
        if not all(np.all(np.isfinite(c)) for c in concentrations):
            raise ConfigurationError(f"patient record {rec.id!r} holds a non-finite "
                                     "inlet or outlet concentration")
        return rec


def save_records(records, path):
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in records], fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_records(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: patient records must be a JSON list")
    records = [PatientRecord.from_dict(d) for d in raw]
    repeated = sorted(i for i, n in Counter(r.id for r in records).items() if n > 1)
    if repeated:
        raise ConfigurationError(f"{path}: repeated patient ids: {', '.join(repeated)}")
    return records


# -- generation -------------------------------------------------------------------

def derive_seed(base: int, *tags) -> int:
    """Stable sub-seed from a base seed and string/int tags (documented
    stream-splitting: sha256 of 'base:tag:tag...')."""
    text = ":".join([str(int(base))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def _field_stream(seed: int, name: str) -> np.random.Generator:
    """Independent, portable PRNG stream for one field: Philox with its
    128-bit key split between the seed and a stable hash of the field name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(
        key=[int(seed) & (2**64 - 1), name_key]))


def generate_cohort(real: CohortTable, ns: int, seed: int) -> CohortTable:
    """Draw ``ns`` synthetic patients row-by-row from the real table's
    per-field Normal(mean, std^2), floored at half the observed minimum.

    Rows with zero or undefined spread become constant rows; rows with no
    observed value at all stay NaN.  Fixed seed -> bit-identical output.
    """
    if ns < 1:
        raise UsageError(f"number of synthetic patients must be >= 1, got {ns}")
    if real.values.size == 0:
        raise UsageError("real cohort table is empty")
    out = np.empty((len(real.field_names), ns))
    for k, name in enumerate(real.field_names):
        row = real.values[k]
        obs = row[np.isfinite(row)]
        if obs.size == 0:
            out[k] = np.nan
            continue
        mu = float(np.mean(obs))
        sigma = float(np.std(obs, ddof=1)) if obs.size > 1 else 0.0
        floor = 0.5 * float(np.min(obs))
        if sigma == 0.0 or not np.isfinite(sigma):
            samples = np.full(ns, mu)
        else:
            samples = _field_stream(seed, name).normal(mu, sigma, size=ns)
        out[k] = np.maximum(samples, floor)
    return CohortTable(field_names=list(real.field_names), values=out)


def records_from_cohort(cohort: CohortTable, base_hydraulics: HydraulicState):
    """One uncalibrated PatientRecord per column; hydraulic fields override
    the base state, Q_uf lands in extras as the calibration target."""
    for name in REQUIRED_FIELDS:
        if name not in cohort.field_names:
            raise ConfigurationError(f"cohort table is missing required field {name!r}")
    records = []
    for p in range(cohort.n_patients):
        inlet_b = np.array([cohort.row(f"c{i}_inlet_blood")[p] for i in range(1, 6)])
        inlet_d = np.array([cohort.row(f"c{i}_inlet_dialysate")[p] for i in range(1, 6)])
        hyd = replace(base_hydraulics,
                      Q_b=float(cohort.row("Q_b")[p]),
                      Q_d=float(cohort.row("Q_d")[p]))
        records.append(PatientRecord(
            id=f"s{p + 1}",
            inlet_blood=inlet_b,
            inlet_dialysate=inlet_d,
            hydraulics=hyd,
            extras={"Q_uf": float(cohort.row("Q_uf")[p])}))
    return records


def make_reference_targets(cohort: CohortTable, ctx, beta_star) -> list:
    """Calibrate every synthetic patient and store the forward outlet at the
    ground-truth diffusion pair as its exact reference target.

    ``ctx`` is a forward context (see ``inverse.ForwardContext``); patients
    whose calibration or forward solve fails with a ``FiberDialysisError``
    are excluded with a logged reason rather than aborting the cohort.
    """
    records = records_from_cohort(cohort, ctx.base_hydraulics)
    calibrated = []
    for rec in records:
        try:
            calibrated.append(ctx.calibrate_record(rec))
        except FiberDialysisError as exc:
            log.warning("patient %s excluded at calibration: %s: %s",
                        rec.id, type(exc).__name__, exc)
    beta = np.asarray(beta_star, dtype=float)
    outcome = ctx.forward_pairs([(rec, beta) for rec in calibrated])
    kept = []
    for rec, (outlet, err) in zip(calibrated, outcome):
        if err is not None:
            log.warning("patient %s excluded at forward solve at beta %s: %s: %s",
                        rec.id, beta.tolist(), type(err).__name__, err)
            continue
        rec.observed_outlet = np.asarray(outlet, dtype=float)
        kept.append(rec)
    return kept


def add_measurement_noise(records, spec: NoiseSpec) -> list:
    """Target noise ``spec.perturb`` on every record's outlet, drawn in
    record order; inputs untouched, new records returned."""
    for rec in records:
        if rec.observed_outlet is None:
            raise UsageError(f"patient {rec.id} has no targets to perturb")
    noisy = spec.perturb([rec.observed_outlet for rec in records])
    return [replace(rec, observed_outlet=y, extras=dict(rec.extras))
            for rec, y in zip(records, noisy)]
