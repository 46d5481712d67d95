import json

import numpy as np
import pytest

from fiberdialysis.config import (RunConfig, load_patient_csv, load_profile,
                                  packaged_data_path)
from fiberdialysis.exceptions import ConfigurationError
from fiberdialysis.flow import HydraulicState

HYD = HydraulicState(p_in_b=2.0, p_out_b=1.6, p_in_d=0.6, p_out_d=0.4,
                     K_over_mu=1e-3, Q_b=0.25, Q_d=0.5)


def test_packaged_profile_loads_and_validates():
    prof = load_profile()
    geom = prof.geometry
    assert 0 < geom.R1 < geom.R2 < geom.R
    cfg = prof.transport_config()
    assert cfg.Pe > 0
    assert cfg.newton_tol == pytest.approx(1e-4)
    assert len(prof.sha256()) == 64


def test_missing_profile_field_is_named(tmp_path):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    del raw["transport"]["Pe"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match="transport.Pe"):
        load_profile(path)


@pytest.mark.parametrize("edit, field", [
    (lambda raw: raw.update(geometry=5), "'geometry'"),
    (lambda raw: raw.update(hydraulics=[1.0, 2.0]), "'hydraulics'"),
    (lambda raw: raw["transport"].update(D_blood=5), "transport.D_blood"),
    (lambda raw: raw["transport"].update(sieving=[1.0, 1.0, "x", 1.0, 1.0]),
     "transport.sieving"),
    (lambda raw: raw["transport"].update(D_dialysate=[1.0] * 4), "transport.D_dialysate"),
    (lambda raw: raw["transport"].update(Pe="10"), "transport.Pe"),
    (lambda raw: raw["mesh"].update(nx=80.5), "mesh.nx"),
])
def test_malformed_profile_field_is_named(tmp_path, edit, field):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    edit(raw)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match=field):
        load_profile(path)


def test_profile_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_profile(path)


def test_profile_env_var(tmp_path, monkeypatch):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    raw["name"] = "env-profile"
    path = tmp_path / "env.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setenv("FIBERDIALYSIS_PROFILE", str(path))
    assert load_profile().name == "env-profile"


def test_run_config_rejects_unknown_option(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"not_an_option": 1}))
    with pytest.raises(ConfigurationError, match="not_an_option"):
        RunConfig.load(path)


@pytest.mark.parametrize("key, value", [
    ("jobs", "two"), ("jobs", 2.0), ("jobs", True), ("seed", None),
    ("powell_tol", "tiny"), ("lambda", False), ("fd_step", [1e-3]),
    ("mesh", [20, 4, "x", 4]), ("mesh", [20, 4, 3]), ("mesh", [20, 4, 3.0, 4]), ("mesh", 20),
    ("beta_star", [0.8]), ("beta_star", [0.8, "0.4"]),
    ("bounds", [[0.02, 1.0]]), ("bounds", [0.02, 1.0]), ("bounds", [[0.02, 1.0], [0.02]]),
    ("noise_sigmas", []), ("noise_sigmas", 0.01), ("noise_sigmas", [0.01, None]),
    ("profile", 5), ("profile", ["p.json"]),
])
def test_run_config_rejects_malformed_value(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigurationError, match=f"run option '{key}' must be"):
        RunConfig.load(path)


@pytest.mark.parametrize("raw", [[1, 2], 5, "cfg", None])
def test_run_config_rejects_non_object(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        RunConfig.load(path)


def test_run_config_keeps_valid_values_as_given(tmp_path):
    raw = {"mesh": None, "jobs": 2, "seed": 0, "powell_tol": 1, "lambda": 0.5,
           "beta_star": [1, 0.4], "bounds": [[0, 1], [0.02, 1.0]], "noise_sigmas": [0.02]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    options = RunConfig.load(path).options
    for key, value in raw.items():
        assert options[key] == value and type(options[key]) is type(value)


def test_run_config_mesh_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mesh": [10, 2, 2, 2]}))
    cfg = RunConfig.load(path)
    assert cfg.mesh_resolution() == (10, 2, 2, 2)


def test_manifest_is_deterministic():
    cfg = RunConfig.defaults()
    m1 = cfg.manifest_dict("synth", {"ns": 4, "seed": 7})
    m2 = cfg.manifest_dict("synth", {"seed": 7, "ns": 4})
    assert m1 == m2
    assert m1["bundle_version"] == 1


def test_patient_csv_fixture_matches_reference_values():
    rec = load_patient_csv(packaged_data_path("patient1.csv"), HYD)
    assert np.allclose(rec.inlet_blood, [0.11, 3.71602, 0.0577928, 5.03048, 1.37152])
    assert np.allclose(rec.inlet_dialysate, [1.25, 0, 0, 0, 0])
    assert np.allclose(rec.observed_outlet,
                       [0.96, 3.577187, 0.48553, 0.144108, 0.342892])
    assert not rec.calibrated


def test_patient_csv_extras_override_flows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("boundary,c1,c2,c3,c4,c5\n"
                    "inlet_blood,0.1,3.7,0.06,5.0,1.4\n"
                    "inlet_dialysate,1.25,0,0,0,0\n"
                    "Q_b,0.3\nQ_uf,0.015\n")
    rec = load_patient_csv(path, HYD)
    assert rec.hydraulics.Q_b == 0.3
    assert rec.extras["Q_uf"] == 0.015
    assert rec.observed_outlet is None


def test_patient_csv_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("boundary,c1,c2,c3,c4,c5\ninlet_blood,0.1,oops,0.06,5.0,1.4\n")
    with pytest.raises(ConfigurationError, match="bad.csv:2"):
        load_patient_csv(path, HYD)


@pytest.mark.parametrize("repeated", ["inlet_blood,9,9,9,9,9", "Q_b,0.4"])
def test_patient_csv_repeated_row_carries_line(tmp_path, repeated):
    # a second row of the same name must not replace the first
    path = tmp_path / "twice.csv"
    path.write_text("boundary,c1,c2,c3,c4,c5\n"
                    "inlet_blood,0.1,3.7,0.06,5.0,1.4\n"
                    "Q_b,0.3\n"
                    "inlet_dialysate,1.25,0,0,0,0\n"
                    f"{repeated}\n")
    name = repeated.split(",")[0]
    with pytest.raises(ConfigurationError, match=f"twice.csv:5: row '{name}' repeats"):
        load_patient_csv(path, HYD)


def test_patient_csv_requires_inlets(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("boundary,c1,c2,c3,c4,c5\n")
    with pytest.raises(ConfigurationError, match="inlet_blood"):
        load_patient_csv(path, HYD)
