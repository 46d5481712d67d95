"""Constants profiles and run configuration.

All physical constants live in a named, versioned profile file: geometry
ratios, Peclet number, axial-diffusion weight, mass-action constants,
species diffusivities and sieving factors, membrane mobility and default
hydraulics.  Every field must be present explicitly; there are no silent
defaults for physical constants, so each result's provenance is auditable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cohort import PatientRecord
from .exceptions import ConfigurationError
from .flow import HydraulicState
from .mesh import AxiGeometry
from .transport import ReactionParams, SpeciesConfig, TransportConfig

PROFILE_ENV_VAR = "FIBERDIALYSIS_PROFILE"
BUNDLE_VERSION = 1  # written into every manifest; the CLI reads bundles of this version only

_GEOMETRY_KEYS = ("L", "R1", "R2", "R")
_MESH_KEYS = ("nx", "nr_b", "nr_m", "nr_d")
_TRANSPORT_KEYS = ("Pe", "eps2", "newton_tol", "newton_max_iter",
                   "D_blood", "D_dialysate", "sieving",
                   "delta1", "delta2", "delta3", "Fd")
_SPECIES_KEYS = ("D_blood", "D_dialysate", "sieving")
_HYDRAULIC_KEYS = ("K_over_mu", "Q_b", "Q_d", "p_in_b", "p_out_b", "p_in_d", "p_out_d")


def _is_number(value, kind=(int, float)):
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_numbers(value, n, kind=(int, float)):
    """A list of numbers of ``kind``: n of them, or any non-zero count if n is None."""
    return (isinstance(value, list) and (len(value) == n if n else len(value) > 0)
            and all(_is_number(v, kind) for v in value))


@dataclass(frozen=True)
class ConstantsProfile:
    name: str
    raw: dict

    @property
    def geometry(self) -> AxiGeometry:
        g = self.raw["geometry"]
        return AxiGeometry(L=g["L"], R1=g["R1"], R2=g["R2"], R=g["R"])

    @property
    def mesh_resolution(self) -> tuple:
        m = self.raw["mesh"]
        return (int(m["nx"]), int(m["nr_b"]), int(m["nr_m"]), int(m["nr_d"]))

    def transport_config(self) -> TransportConfig:
        t = self.raw["transport"]
        species = SpeciesConfig(D_blood=tuple(t["D_blood"]),
                                D_dialysate=tuple(t["D_dialysate"]),
                                alpha=(1.0, 0.0, 0.0, 1.0, 1.0),
                                sieving=tuple(t["sieving"]))
        reactions = ReactionParams(delta1=t["delta1"], delta2=t["delta2"],
                                   delta3=t["delta3"], Fd=t["Fd"])
        return TransportConfig(Pe=t["Pe"], eps2=t["eps2"], species=species,
                               reactions=reactions, newton_tol=t["newton_tol"],
                               newton_max_iter=int(t["newton_max_iter"]))

    def base_hydraulics(self) -> HydraulicState:
        h = self.raw["hydraulics"]
        return HydraulicState(p_in_b=h["p_in_b"], p_out_b=h["p_out_b"],
                              p_in_d=h["p_in_d"], p_out_d=h["p_out_d"],
                              K_over_mu=h["K_over_mu"], Q_b=h["Q_b"], Q_d=h["Q_d"])

    def sha256(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _field_form(section: str, key: str):
    """(form, test) of one profile field's value."""
    if key in _SPECIES_KEYS:
        return "a list of 5 numbers", lambda v: _is_numbers(v, 5)
    if section == "mesh" or key == "newton_max_iter":
        return "an integer", lambda v: _is_number(v, int)
    return "a number", _is_number


def _validate_profile(raw: dict, origin: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{origin}: constants profile must be a JSON object")
    for section, keys in (("geometry", _GEOMETRY_KEYS), ("mesh", _MESH_KEYS),
                          ("transport", _TRANSPORT_KEYS), ("hydraulics", _HYDRAULIC_KEYS)):
        if section not in raw:
            raise ConfigurationError(f"{origin}: constants profile is missing section {section!r}")
        if not isinstance(raw[section], dict):
            raise ConfigurationError(
                f"{origin}: constants profile section {section!r} must be a JSON object, "
                f"got {raw[section]!r}")
        for key in keys:
            if key not in raw[section]:
                raise ConfigurationError(
                    f"{origin}: constants profile is missing field {section}.{key}")
            form, ok = _field_form(section, key)
            if not ok(raw[section][key]):
                raise ConfigurationError(f"{origin}: {section}.{key} must be {form}, "
                                         f"got {raw[section][key]!r}")
    return raw


def load_profile(path=None) -> ConstantsProfile:
    """Read a constants profile; with no path, use $FIBERDIALYSIS_PROFILE or
    the packaged default profile."""
    if path is None:
        path = os.environ.get(PROFILE_ENV_VAR)
    if path is None:
        ref = resources.files("fiberdialysis").joinpath("data/default_profile.json")
        raw = json.loads(ref.read_text())
        origin = "packaged default profile"
    else:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigurationError(f"constants profile not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON in constants profile: {exc}") from None
        origin = str(path)
    _validate_profile(raw, origin)
    return ConstantsProfile(name=raw.get("name", "unnamed"), raw=raw)


def packaged_data_path(name: str):
    """Filesystem path of a packaged data file (fixtures, default profile)."""
    return resources.files("fiberdialysis").joinpath(f"data/{name}")


# -- run configuration -------------------------------------------------------------

_RUN_DEFAULTS = {
    "mesh": None,                 # override profile resolution: [nx, nr_b, nr_m, nr_d]
    "jobs": 1,
    "seed": 7,
    "ns": 40,
    "beta_star": [0.8, 0.4],
    "bounds": [[0.02, 1.0], [0.02, 1.0]],
    "noise_sigmas": [0.01, 0.03, 0.05],
    "clip_factor": 3.0,
    # stopping tolerance and trial-step cap of the Levenberg-Marquardt
    # identification of invert-multi and noise-study
    "powell_tol": 1e-10,
    "powell_max_iter": 60,
    "pg_initial_step": 0.25,
    "pg_tol": 1e-4,
    "pg_max_iter": 60,
    "fd_step": 1e-3,
    "lambda": 0.0,
    "penalty_scale": 1e4,
    "failure_value": 1e10,
}


# (form, test) of each run option whose default does not show its form; any
# other option takes an integer when its default is one, else any number
_RUN_FORMS = {
    "mesh": ("null or 4 integers", lambda v: v is None or _is_numbers(v, 4, int)),
    "beta_star": ("2 numbers", lambda v: _is_numbers(v, 2)),
    "bounds": ("2 pairs of numbers", lambda v: isinstance(v, list) and len(v) == 2
               and all(_is_numbers(pair, 2) for pair in v)),
    "noise_sigmas": ("a non-empty list of numbers", lambda v: _is_numbers(v, None)),
}


@dataclass
class RunConfig:
    profile: ConstantsProfile
    options: dict
    origin: str = "<memory>"

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigurationError(f"run config not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: run config must be a JSON object")
        profile_path = raw.get("profile")
        if profile_path is not None and not isinstance(profile_path, str):
            raise ConfigurationError(
                f"{path}: run option 'profile' must be a path, got {profile_path!r}")
        if profile_path is not None and not os.path.isabs(profile_path):
            profile_path = os.path.join(os.path.dirname(os.path.abspath(path)), profile_path)
        profile = load_profile(profile_path)
        options = dict(_RUN_DEFAULTS)
        for key, value in raw.items():
            if key == "profile":
                continue
            if key not in _RUN_DEFAULTS:
                raise ConfigurationError(f"{path}: unknown run option {key!r}")
            kind = int if _is_number(_RUN_DEFAULTS[key], int) else (int, float)
            form, ok = _RUN_FORMS.get(key, ("an integer" if kind is int else "a number",
                                            lambda v: _is_number(v, kind)))
            if not ok(value):
                raise ConfigurationError(
                    f"{path}: run option {key!r} must be {form}, got {value!r}")
            options[key] = value
        return cls(profile=profile, options=options, origin=str(path))

    @classmethod
    def defaults(cls, profile=None) -> "RunConfig":
        return cls(profile=profile if profile is not None else load_profile(),
                   options=dict(_RUN_DEFAULTS))

    def mesh_resolution(self):
        if self.options["mesh"] is not None:
            return tuple(int(n) for n in self.options["mesh"])
        return self.profile.mesh_resolution

    def manifest_dict(self, command: str, args: dict) -> dict:
        """Everything needed to reproduce a command byte-for-byte."""
        return {
            "bundle_version": BUNDLE_VERSION,
            "command": command,
            "args": {k: args[k] for k in sorted(args)},
            "options": {k: self.options[k] for k in sorted(self.options)},
            "profile_name": self.profile.name,
            "profile_sha256": self.profile.sha256(),
        }


# -- single-patient CSV (species columns, boundary rows) ----------------------------

def load_patient_csv(path, base_hydraulics: HydraulicState) -> PatientRecord:
    """Patient file in the boundary-rows orientation::

        boundary,c1,c2,c3,c4,c5
        inlet_blood,...
        inlet_dialysate,...
        observed_outlet_blood,...   (optional)
        Q_uf,0.012                  (optional scalar extras, one per row)
    """
    import csv as _csv

    inlet_b = inlet_d = outlet = None
    extras = {}
    with open(path, newline="") as fh:
        rows = list(_csv.reader(fh))
    for line_no, row in enumerate(rows, start=1):
        if not row or row[0].strip() == "boundary":
            continue
        name = row[0].strip()
        vals = [v for v in row[1:] if v.strip() != ""]
        try:
            vals = [float(v) for v in vals]
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
        if name in ("inlet_blood", "inlet_dialysate", "observed_outlet_blood"):
            if len(vals) != 5:
                raise ConfigurationError(
                    f"{path}:{line_no}: row {name!r} must carry 5 species values")
            if name == "inlet_blood":
                inlet_b = vals
            elif name == "inlet_dialysate":
                inlet_d = vals
            else:
                outlet = vals
        else:
            if len(vals) != 1:
                raise ConfigurationError(
                    f"{path}:{line_no}: extra row {name!r} must carry one value")
            extras[name] = vals[0]
    if inlet_b is None or inlet_d is None:
        raise ConfigurationError(f"{path}: patient file needs inlet_blood and inlet_dialysate rows")
    from dataclasses import replace as _replace
    hyd = base_hydraulics
    if "Q_b" in extras:
        hyd = _replace(hyd, Q_b=extras["Q_b"])
    if "Q_d" in extras:
        hyd = _replace(hyd, Q_d=extras["Q_d"])
    return PatientRecord(id=os.path.splitext(os.path.basename(str(path)))[0],
                         inlet_blood=inlet_b, inlet_dialysate=inlet_d,
                         observed_outlet=outlet, hydraulics=hyd,
                         calibrated=False, extras=extras)
