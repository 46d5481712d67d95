import json
import os

import numpy as np
import pytest

from fiberdialysis import config
from fiberdialysis.cli import _check_bundle, main
from fiberdialysis.config import packaged_data_path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    cfg = {"mesh": [20, 4, 3, 4], "jobs": 1, "seed": 7, "ns": 4,
           "powell_tol": 1e-8, "powell_max_iter": 30,
           "pg_tol": 1e-3, "pg_max_iter": 10}
    (path / "cfg.json").write_text(json.dumps(cfg))
    return path


def run(workdir, *argv):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def read_bytes(workdir, rel):
    with open(os.path.join(workdir, rel), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def synth_bundle(workdir):
    rc = run(workdir, "synth", "--config", "cfg.json", "--ns", "4", "--seed", "7",
             "--out", "synth")
    assert rc == 0
    return os.path.join(workdir, "synth")


def test_synth_writes_bundle(synth_bundle):
    for name in ("cohort.csv", "targets.json", "manifest.json"):
        assert os.path.exists(os.path.join(synth_bundle, name))
    with open(os.path.join(synth_bundle, "targets.json")) as fh:
        targets = json.load(fh)
    assert len(targets) == 4
    assert all(t["calibrated"] for t in targets)
    assert all(len(t["observed_outlet"]) == 5 for t in targets)


def test_synth_reproducible_byte_for_byte(workdir, synth_bundle):
    rc = run(workdir, "synth", "--config", "cfg.json", "--ns", "4", "--seed", "7",
             "--out", "synth_again")
    assert rc == 0
    for name in ("cohort.csv", "targets.json", "manifest.json"):
        assert read_bytes(workdir, f"synth/{name}") == \
            read_bytes(workdir, f"synth_again/{name}")


def test_forward_outputs_and_determinism(workdir):
    patient = str(packaged_data_path("patient1.csv"))
    rc = run(workdir, "forward", "--config", "cfg.json", "--patient", patient,
             "--beta", "0.2,0.2", "--out", "fwd")
    assert rc == 0
    with open(os.path.join(workdir, "fwd", "outlet.json")) as fh:
        outlet = json.load(fh)["outlet"]
    assert len(outlet) == 5
    assert all(np.isfinite(v) for v in outlet)
    rc = run(workdir, "forward", "--config", "cfg.json", "--patient", patient,
             "--beta", "0.2,0.2", "--out", "fwd2")
    assert rc == 0
    for name in ("outlet.json", "field.csv", "manifest.json"):
        assert read_bytes(workdir, f"fwd/{name}") == read_bytes(workdir, f"fwd2/{name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forward_at_an_extreme_beta_checks_its_residual_without_overflow(workdir):
    # at d_Ca = 1e300 the membrane entries reach 3e298: squared, they
    # overflowed the residual norm and its limit alike, and inf <= inf let
    # the check pass unexamined.  Scaled, it passes on its merits, and the
    # outlet is the conducting-membrane limit, that of d_Ca = 1e20.  Both
    # meshes factorize in float32, which the block and right-hand side
    # reach only scaled by their largest entries: cast as they are, they
    # would overflow
    patient = str(packaged_data_path("patient1.csv"))
    for mesh in ([40, 6, 4, 5], [80, 12, 8, 10]):
        name = "cfg_extreme_{}.json".format("_".join(map(str, mesh)))
        (workdir / name).write_text(json.dumps({"mesh": mesh, "seed": 7}))
        outlets = []
        for beta in ("1e300,0.4", "1e20,0.4"):
            out = f"fwd_{mesh[0]}_{beta}"
            assert run(workdir, "forward", "--config", name, "--patient", patient,
                       "--beta", beta, "--out", out) == 0
            with open(os.path.join(workdir, out, "outlet.json")) as fh:
                outlets.append(np.array(json.load(fh)["outlet"]))
        assert np.max(np.abs(outlets[0] - outlets[1]) / np.abs(outlets[1])) <= 1e-10


def test_missing_profile_field_exits_2(workdir):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    del raw["hydraulics"]["K_over_mu"]
    (workdir / "broken_profile.json").write_text(json.dumps(raw))
    (workdir / "broken_cfg.json").write_text(json.dumps({"profile": "broken_profile.json"}))
    rc = run(workdir, "forward", "--config", "broken_cfg.json",
             "--patient", str(packaged_data_path("patient1.csv")),
             "--beta", "0.2,0.2", "--out", "fwd_broken")
    assert rc == 2
    rc = run(workdir, "forward", "--config", "cfg.json",
             "--patient", str(packaged_data_path("patient1.csv")),
             "--beta", "x,0.2", "--out", "fwd_nan")
    assert rc == 2


def test_malformed_profile_section_exits_2(workdir, capsys):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    raw["geometry"] = 5
    (workdir / "geometry5_profile.json").write_text(json.dumps(raw))
    (workdir / "geometry5_cfg.json").write_text(
        json.dumps({"profile": "geometry5_profile.json"}))
    capsys.readouterr()
    assert run(workdir, "forward", "--config", "geometry5_cfg.json",
               "--patient", str(packaged_data_path("patient1.csv")),
               "--beta", "0.2,0.2", "--out", "fwd_geometry5") == 2
    assert "'geometry' must be a JSON object" in capsys.readouterr().err


def test_jobs_below_one_exits_2(workdir):
    patient = str(packaged_data_path("patient1.csv"))
    for jobs in ("0", "-3"):
        assert run(workdir, "forward", "--config", "cfg.json", "--jobs", jobs,
                   "--patient", patient, "--beta", "0.2,0.2", "--out", "fwd_jobs") == 2
    (workdir / "cfg_jobs0.json").write_text(json.dumps({"mesh": [20, 4, 3, 4], "jobs": 0}))
    assert run(workdir, "forward", "--config", "cfg_jobs0.json",
               "--patient", patient, "--beta", "0.2,0.2", "--out", "fwd_jobs") == 2


def test_malformed_run_option_exits_2(workdir):
    patient = str(packaged_data_path("patient1.csv"))
    for bad in ({"jobs": "two"}, {"mesh": [20, 4, "x", 4]}, {"powell_tol": "tiny"},
                {"bounds": [[0.02, 1.0]]}, [1, 2], {"profile": 5}):
        (workdir / "cfg_bad.json").write_text(json.dumps(bad))
        assert run(workdir, "forward", "--config", "cfg_bad.json", "--patient", patient,
                   "--beta", "0.2,0.2", "--out", "fwd_bad_option") == 2


def test_negative_newton_max_iter_exits_2(workdir):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    raw["transport"]["newton_max_iter"] = -1
    (workdir / "max_iter_profile.json").write_text(json.dumps(raw))
    (workdir / "cfg_max_iter.json").write_text(json.dumps(
        {"profile": "max_iter_profile.json", "mesh": [20, 4, 3, 4]}))
    assert run(workdir, "forward", "--config", "cfg_max_iter.json",
               "--patient", str(packaged_data_path("patient1.csv")),
               "--beta", "0.2,0.2", "--out", "fwd_max_iter") == 2


def _nan_config(workdir):
    # json writes and reads NaN and Infinity
    (workdir / "cfg_nan.json").write_text(json.dumps({"mesh": [20, 4, 3, 4],
                                                      "beta_star": [float("nan"), 0.4]}))
    return "cfg_nan.json"


def _inf_profile_config(workdir):
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    raw["transport"]["Pe"] = float("inf")
    (workdir / "inf_profile.json").write_text(json.dumps(raw))
    (workdir / "cfg_inf_profile.json").write_text(json.dumps(
        {"profile": "inf_profile.json", "mesh": [20, 4, 3, 4]}))
    return "cfg_inf_profile.json"


def _nan_patient(workdir):
    text = packaged_data_path("patient1.csv").read_text()
    (workdir / "patient_nan.csv").write_text(
        text.replace("observed_outlet_blood,0.96,", "observed_outlet_blood,nan,"))
    return "patient_nan.csv"


@pytest.mark.parametrize("argv", [
    ("forward", "--config", "cfg.json", "--patient", "PATIENT", "--beta", "nan,0.2"),
    ("synth", "--config", "cfg.json", "--ns", "2", "--beta-star", "inf,0.4"),
    ("synth", "--config", _nan_config, "--ns", "2"),
    ("forward", "--config", _inf_profile_config, "--patient", "PATIENT", "--beta", "0.2,0.2"),
    ("invert-multi", "--config", "cfg.json", "--targets", "synth", "--noise-sigma", "nan"),
    ("noise-study", "--config", "cfg.json", "--targets", "synth", "--full-at", "-inf"),
    ("invert-single", "--config", "cfg.json", "--patient", _nan_patient),
], ids=["beta", "beta-star", "config", "profile", "noise-sigma", "full-at", "patient-csv"])
def test_non_finite_number_exits_2(workdir, synth_bundle, argv):
    # float() and json.load accept nan and inf; each must be a parse error
    argv = [a(workdir) if callable(a) else a for a in argv]
    argv = [str(packaged_data_path("patient1.csv")) if a == "PATIENT" else a for a in argv]
    try:
        rc = run(workdir, *argv, "--out", "out_non_finite")
    except SystemExit as exc:  # argparse rejects an option's type
        rc = exc.code
    assert rc == 2
    assert not (workdir / "out_non_finite").exists()


def test_counts_below_one_exit_2(workdir, synth_bundle, capsys):
    assert run(workdir, "synth", "--config", "cfg.json", "--ns", "0",
               "--out", "synth_ns0") == 2
    assert not (workdir / "synth_ns0").exists()
    for option, count in (("--n-subcohorts", "0"), ("--subcohort-size", "0"),
                          ("--n-subcohorts", "-2")):
        capsys.readouterr()
        assert run(workdir, "noise-study", "--config", "cfg.json", "--targets", "synth",
                   option, count, "--out", "noise_bad_count") == 2
        assert f"{option} must be >= 1" in capsys.readouterr().err
    assert not (workdir / "noise_bad_count").exists()


def test_bundle_version_has_one_source(workdir, monkeypatch):
    # a bumped version is written by every new bundle and accepted on reading
    monkeypatch.setattr(config, "BUNDLE_VERSION", 2)
    assert run(workdir, "synth", "--config", "cfg.json", "--ns", "1", "--seed", "7",
               "--out", "synth_v2") == 0
    manifest = _check_bundle(str(workdir / "synth_v2"), ("targets.json",))
    assert manifest["bundle_version"] == 2


def test_calibration_failure_exits_2(workdir):
    fixture = packaged_data_path("patient1.csv").read_text()
    (workdir / "patient_nan_quf.csv").write_text(fixture + "Q_uf,nan\n")
    assert run(workdir, "forward", "--config", "cfg.json", "--patient", "patient_nan_quf.csv",
               "--beta", "0.2,0.2", "--out", "fwd_nan_quf") == 2
    # a sealed membrane cannot carry any ultrafiltration
    raw = json.loads(packaged_data_path("default_profile.json").read_text())
    raw["hydraulics"]["K_over_mu"] = 0.0
    (workdir / "sealed_profile.json").write_text(json.dumps(raw))
    (workdir / "sealed_cfg.json").write_text(json.dumps(
        {"profile": "sealed_profile.json", "mesh": [20, 4, 3, 4]}))
    (workdir / "patient_quf.csv").write_text(fixture + "Q_uf,0.012\n")
    assert run(workdir, "invert-single", "--config", "sealed_cfg.json",
               "--patient", "patient_quf.csv", "--beta0", "0.6,0.6", "--out", "single_sealed") == 2


@pytest.mark.slow
def test_invert_multi_on_bundle(workdir, synth_bundle):
    rc = run(workdir, "invert-multi", "--config", "cfg.json", "--targets", "synth",
             "--patients", "s1,s2", "--init", "0.5,0.5", "--out", "inv")
    assert rc == 0
    with open(os.path.join(workdir, "inv", "result.json")) as fh:
        result = json.load(fh)
    assert result["max_abs_error"] < 1e-2
    assert 1 <= result["n_jacobians"] <= result["n_evals"]
    trace = (workdir / "inv" / "powell_trace.csv").read_text().splitlines()
    assert trace[0] == "k,d_ca,d_ci,J,err_to_truth"
    assert len(trace) > 2


def test_invert_multi_makes_one_lu_per_forward_solve(workdir, monkeypatch):
    # the benchmark's invert job (cohort 7, s1..s4, mesh (40, 6, 4, 5),
    # jobs 1): 6 evaluations of 4 solves, each factorizing once; the
    # outlet Jacobians refine on their solve's factors (48 LUs when each
    # Jacobian was taken with an LU of its own)
    from fiberdialysis import linalg

    (workdir / "cfg_lu.json").write_text(json.dumps({"mesh": [40, 6, 4, 5], "seed": 7}))
    assert run(workdir, "synth", "--config", "cfg_lu.json", "--ns", "4", "--seed", "7",
               "--beta-star", "0.8,0.4", "--out", "synth_lu") == 0
    calls = []
    init = linalg.Factorization.__init__

    def counted(self, *args):
        calls.append(None)
        init(self, *args)

    monkeypatch.setattr(linalg.Factorization, "__init__", counted)
    assert run(workdir, "invert-multi", "--config", "cfg_lu.json", "--targets", "synth_lu",
               "--patients", "s1,s2,s3,s4", "--init", "0.3,0.8", "--jobs", "1",
               "--out", "inv_lu") == 0
    result = json.loads((workdir / "inv_lu" / "result.json").read_text())
    assert result["n_evals"] == 6 and result["converged"]
    assert len(calls) == 24


def test_negative_penalty_scale_exits_2(workdir, synth_bundle, capsys):
    (workdir / "cfg_penalty.json").write_text(json.dumps(
        {"mesh": [20, 4, 3, 4], "penalty_scale": -1}))
    capsys.readouterr()
    assert run(workdir, "invert-multi", "--config", "cfg_penalty.json",
               "--targets", "synth", "--out", "inv_penalty") == 2
    assert "bound penalty scale must be >= 0" in capsys.readouterr().err
    assert not (workdir / "inv_penalty").exists()


def test_invert_multi_missing_bundle_exits_4(workdir):
    rc = run(workdir, "invert-multi", "--config", "cfg.json",
             "--targets", "no_such_dir", "--out", "inv_missing")
    assert rc == 4


def test_version_mismatch_exits_3(workdir, synth_bundle):
    bad = workdir / "bad_bundle"
    bad.mkdir(exist_ok=True)
    manifest = json.loads((workdir / "synth" / "manifest.json").read_text())
    manifest["bundle_version"] = 99
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "targets.json").write_text((workdir / "synth" / "targets.json").read_text())
    rc = run(workdir, "invert-multi", "--config", "cfg.json", "--targets", "bad_bundle",
             "--out", "inv_bad")
    assert rc == 3


def test_report_version_mismatch_exits_3(workdir, synth_bundle, capsys):
    bad = workdir / "report_bad_version"
    bad.mkdir(exist_ok=True)
    manifest = json.loads((workdir / "synth" / "manifest.json").read_text())
    manifest["bundle_version"] = 99
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "targets.json").write_text((workdir / "synth" / "targets.json").read_text())
    capsys.readouterr()
    assert run(workdir, "report", str(bad)) == 3
    assert f"has version 99, expected {config.BUNDLE_VERSION}" in capsys.readouterr().err
    assert not (bad / "summary.txt").exists()


def _corrupt_bundle(workdir, name, manifest=None, targets=None):
    """A copy of the synth bundle with manifest.json or targets.json replaced."""
    bad = workdir / name
    bad.mkdir(exist_ok=True)
    for fname, text in (("manifest.json", manifest), ("targets.json", targets)):
        (bad / fname).write_text(text if text is not None
                                 else (workdir / "synth" / fname).read_text())
    return name


def test_truncated_manifest_exits_3(workdir, synth_bundle, capsys):
    manifest = (workdir / "synth" / "manifest.json").read_text()
    bundle = _corrupt_bundle(workdir, "truncated_manifest",
                             manifest=manifest[:len(manifest) // 2])
    capsys.readouterr()
    assert run(workdir, "invert-multi", "--config", "cfg.json", "--targets", bundle,
               "--out", "inv_truncated") == 3
    assert "manifest.json is not valid JSON" in capsys.readouterr().err


def test_incomplete_patient_record_exits_3(workdir, synth_bundle, capsys):
    bundle = _corrupt_bundle(workdir, "incomplete_record",
                             targets=json.dumps([{"id": "s1"}]))
    capsys.readouterr()
    assert run(workdir, "invert-multi", "--config", "cfg.json", "--targets", bundle,
               "--out", "inv_incomplete") == 3
    err = capsys.readouterr().err
    assert "targets.json" in err and "missing inlet_blood, inlet_dialysate" in err


def test_non_finite_patient_record_exits_3(workdir, synth_bundle, capsys):
    records = json.loads((workdir / "synth" / "targets.json").read_text())
    records[1]["observed_outlet"][2] = float("nan")
    bundle = _corrupt_bundle(workdir, "non_finite_record", targets=json.dumps(records))
    capsys.readouterr()
    assert run(workdir, "invert-multi", "--config", "cfg.json", "--targets", bundle,
               "--out", "inv_non_finite") == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (workdir / "inv_non_finite").exists()


@pytest.mark.parametrize("key, value", [
    ("hydraulics.p_in_b", float("nan")),
    ("hydraulics.Q_b", float("inf")),
    ("hydraulics.K_over_mu", float("inf")),
    ("hydraulics.p_out_d", float("-inf")),
    ("inlet_blood", [0.1, 3.7, 0.06, 5.0]),
    ("observed_outlet", [0.1, 3.7, 0.06, 5.0]),
], ids=["nan-p_in_b", "inf-Q_b", "inf-K_over_mu", "-inf-p_out_d", "4-entry-inlet_blood",
        "4-entry-observed_outlet"])
def test_malformed_patient_record_exits_3(workdir, synth_bundle, capsys, key, value):
    # every command that reads targets.json rejects the bundle before any solve
    records = json.loads((workdir / "synth" / "targets.json").read_text())
    *parents, name = key.split(".")
    owner = records[0]
    for parent in parents:
        owner = owner[parent]
    owner[name] = value
    bundle = _corrupt_bundle(workdir, "malformed_record", targets=json.dumps(records))
    for command in (("invert-multi", "--patients", "s1,s2"),
                    ("grid", "--patients", "s1,s2", "--n", "2"), ("noise-study",),
                    ("sensitivity",)):
        capsys.readouterr()
        assert run(workdir, *command, "--config", "cfg.json", "--targets", bundle,
                   "--out", "out_malformed") == 3, command
        assert "targets.json does not hold patient records" in capsys.readouterr().err
        assert not (workdir / "out_malformed").exists()


@pytest.mark.parametrize("ids, selected, message", [
    ((5, "s2", "s3", "s4"), None, "patient record id 5 is not a string"),
    (("s1", "s1", "s3", "s4"), None, "repeated patient ids: s1"),
    (("s1", "s2", "s3", "s1"), "s1,s3", "repeated patient ids: s1"),
], ids=["integer-id", "repeated-id", "repeated-id-selected"])
def test_malformed_patient_id_exits_3(workdir, synth_bundle, capsys, ids, selected, message):
    # a repeated id would let one patient warm-start from another's field
    records = json.loads((workdir / "synth" / "targets.json").read_text())
    for rec, pid in zip(records, ids):
        rec["id"] = pid
    bundle = _corrupt_bundle(workdir, "malformed_id", targets=json.dumps(records))
    if selected:
        commands = [("invert-multi", "--patients", selected),
                    ("grid", "--patients", selected, "--n", "2")]
    else:
        commands = [("invert-multi",), ("grid", "--n", "2"), ("noise-study",), ("sensitivity",)]
    for command in commands:
        capsys.readouterr()
        assert run(workdir, *command, "--config", "cfg.json", "--targets", bundle,
                   "--out", "out_malformed_id") == 3, command
        err = capsys.readouterr().err
        assert "targets.json does not hold patient records" in err and message in err
        assert not (workdir / "out_malformed_id").exists()


def test_ragged_real_cohort_exits_2(workdir, capsys):
    # a short row, and a field named twice, which row() cannot tell apart
    lines = packaged_data_path("sample_cohort.csv").read_text().splitlines()
    ragged = list(lines)
    ragged[3] = ragged[3].rsplit(",", 1)[0]
    q_uf = next(line for line in lines if line.startswith("Q_uf,"))
    cases = [("ragged", ragged, "ragged.csv:4: 6 cells where the header has 7"),
             ("repeated", lines + [q_uf],
              f"repeated.csv:{len(lines) + 1}: field 'Q_uf' repeats an earlier row")]
    for name, rows, message in cases:
        (workdir / f"{name}.csv").write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run(workdir, "synth", "--config", "cfg.json", "--real", f"{name}.csv",
                   "--out", f"synth_{name}") == 2
        assert message in capsys.readouterr().err
        assert not (workdir / f"synth_{name}").exists()


def test_unknown_patient_id_exits_2(workdir, synth_bundle):
    rc = run(workdir, "invert-multi", "--config", "cfg.json", "--targets", "synth",
             "--patients", "sX", "--out", "inv_unknown")
    assert rc == 2
    rc = run(workdir, "grid", "--config", "cfg.json", "--targets", "synth",
             "--box", "a,b,c,d", "--out", "grid_bad_box")
    assert rc == 2


def test_grid_row_count_and_reproducibility(workdir, synth_bundle):
    rc = run(workdir, "grid", "--config", "cfg.json", "--targets", "synth",
             "--patients", "s1", "--box", "0.3,0.9,0.2,0.6", "--n", "3",
             "--out", "grid")
    assert rc == 0
    rows = (workdir / "grid" / "landscape.csv").read_text().splitlines()
    assert rows[0] == "d_ca,d_ci,J,log10_J"
    assert len(rows) == 1 + 9
    rc = run(workdir, "grid", "--config", "cfg.json", "--targets", "synth",
             "--patients", "s1", "--box", "0.3,0.9,0.2,0.6", "--n", "3",
             "--out", "grid2")
    assert read_bytes(workdir, "grid/landscape.csv") == \
        read_bytes(workdir, "grid2/landscape.csv")


def _bundle_files(path):
    """Every file of a bundle by name, with the manifest's ``jobs`` option
    taken out."""
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["options"]["jobs"]
    return files, manifest


def test_bundles_do_not_depend_on_jobs(workdir, synth_bundle):
    # 3 or 4 patients: at jobs 2 and 3 some home slot holds two of them
    commands = {
        "grid": ["--patients", "s1,s2,s3", "--box", "0.3,0.9,0.2,0.6", "--n", "3"],
        "invert-multi": ["--patients", "s1,s2,s3", "--init", "0.5,0.5"],
        "noise-study": ["--sigmas", "0.01", "--subcohort-size", "2",
                        "--n-subcohorts", "2"],
    }
    for command, argv in commands.items():
        bundles = []
        for jobs in ("1", "2", "3"):
            out = f"{command}_jobs{jobs}"
            assert run(workdir, command, "--config", "cfg.json", "--targets", "synth",
                       "--jobs", jobs, *argv, "--out", out) == 0
            bundles.append(_bundle_files(workdir / out))
        assert bundles[1] == bundles[0] and bundles[2] == bundles[0], command


def test_sensitivity_command(workdir, synth_bundle):
    rc = run(workdir, "sensitivity", "--config", "cfg.json", "--targets", "synth",
             "--sigmas", "0.02", "--seed", "3", "--out", "sens")
    assert rc == 0
    with open(os.path.join(workdir, "sens", "sensitivity.json")) as fh:
        payload = json.load(fh)
    assert payload["levels"][0]["sigma"] == 0.02
    assert len(payload["levels"][0]["per_species_mean"]) == 5


def test_sensitivity_honours_clip_factor(workdir, synth_bundle):
    # a clip of 1e-6 sigma leaves the perturbed coefficients within 2e-8 of
    # beta*, so the outputs move by far less than at the default clip of 3
    cfg = json.loads((workdir / "cfg.json").read_text())
    (workdir / "cfg_clip.json").write_text(json.dumps(dict(cfg, clip_factor=1e-6)))
    for name in ("cfg.json", "cfg_clip.json"):
        rc = run(workdir, "sensitivity", "--config", name, "--targets", "synth",
                 "--sigmas", "0.02", "--seed", "3", "--out", f"sens_{name}")
        assert rc == 0
    with open(os.path.join(workdir, "sens_cfg.json", "sensitivity.json")) as fh:
        default = json.load(fh)["levels"][0]["cohort_mean"]
    with open(os.path.join(workdir, "sens_cfg_clip.json", "sensitivity.json")) as fh:
        clipped = json.load(fh)["levels"][0]["cohort_mean"]
    with open(os.path.join(workdir, "sens_cfg_clip.json", "manifest.json")) as fh:
        assert json.load(fh)["options"]["clip_factor"] == 1e-6
    assert default > 1e-4
    assert clipped < 1e-6


@pytest.mark.parametrize("clip_factor", [-1, 0])
def test_clip_factor_not_above_zero_exits_2(workdir, synth_bundle, capsys, clip_factor):
    # both commands that perturb reject the clip before they solve anything
    cfg = json.loads((workdir / "cfg.json").read_text())
    name = f"cfg_clip{clip_factor}.json"
    (workdir / name).write_text(json.dumps(dict(cfg, clip_factor=clip_factor)))
    for command, artifact, argv in (
            ("sensitivity", "sensitivity.json", ["--sigmas", "0,0.02"]),
            ("noise-study", "noise_study.json", ["--sigmas", "0,0.02", "--subcohort-size",
                                                 "2", "--n-subcohorts", "2"])):
        out = f"{command}_clip{clip_factor}"
        capsys.readouterr()
        assert run(workdir, command, "--config", name, "--targets", "synth", *argv,
                   "--out", out) == 2
        assert "clip factor must be > 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(workdir, out, artifact))


def test_invert_single_command(workdir, synth_bundle):
    # build a patient CSV out of a synthetic record so the misfit is fittable
    with open(os.path.join(workdir, "synth", "targets.json")) as fh:
        rec = json.load(fh)[0]
    lines = ["boundary,c1,c2,c3,c4,c5",
             "inlet_blood," + ",".join(repr(v) for v in rec["inlet_blood"]),
             "inlet_dialysate," + ",".join(repr(v) for v in rec["inlet_dialysate"]),
             "observed_outlet_blood," + ",".join(repr(v) for v in rec["observed_outlet"]),
             f"Q_b,{rec['hydraulics']['Q_b']!r}",
             f"Q_d,{rec['hydraulics']['Q_d']!r}"]
    (workdir / "patient_syn.csv").write_text("\n".join(lines) + "\n")
    rc = run(workdir, "invert-single", "--config", "cfg.json",
             "--patient", "patient_syn.csv", "--beta0", "0.6,0.6", "--out", "single")
    assert rc == 0
    with open(os.path.join(workdir, "single", "result.json")) as fh:
        result = json.load(fh)
    assert result["best_value"] <= result["initial_value"]


def test_report_incomplete_dir_exits_4(workdir):
    empty = workdir / "empty"
    empty.mkdir(exist_ok=True)
    assert run(workdir, "report", str(empty)) == 4


def test_report_is_pure(workdir, synth_bundle):
    # a short inversion: the report reads its trace, not its accuracy
    (workdir / "cfg_short.json").write_text(json.dumps(
        {"mesh": [20, 4, 3, 4], "jobs": 1, "powell_max_iter": 1}))
    assert run(workdir, "invert-multi", "--config", "cfg_short.json", "--targets", "synth",
               "--patients", "s1", "--init", "0.5,0.5", "--out", "inv_short") == 0
    assert run(workdir, "report", "inv_short") == 0
    first = read_bytes(workdir, "inv_short/summary.txt")
    objective = read_bytes(workdir, "inv_short/report_objective.csv")
    assert run(workdir, "report", "inv_short") == 0
    assert read_bytes(workdir, "inv_short/summary.txt") == first
    assert read_bytes(workdir, "inv_short/report_objective.csv") == objective


@pytest.mark.parametrize("name", ["manifest.json", "result.json", "noise_study.json",
                                  "sensitivity.json"])
def test_report_truncated_json_exits_3(workdir, synth_bundle, capsys, name):
    bundle = workdir / f"report_truncated_{name.split('.')[0]}"
    bundle.mkdir(exist_ok=True)
    for fname in ("manifest.json", "targets.json"):
        (bundle / fname).write_text((workdir / "synth" / fname).read_text())
    (bundle / name).write_text('{"bundle_version": 1, "comm')
    capsys.readouterr()
    assert run(workdir, "report", str(bundle)) == 3
    assert f"{name} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("result.json", "{}"),
    ("result.json", "[1]"),
    ("result.json", '{"best_point": [0.8, "x"], "best_value": 1.0}'),
    ("result.json", '{"best_value": 1.0, "best_point": [Infinity, 0.4]}'),
    ("result.json", '{"best_value": NaN, "best_point": [0.8, 0.4]}'),
    ("noise_study.json", '{"estimates": [{"sigma": 0.01, "subcohort": "A"}]}'),
    ("noise_study.json", '{"estimates": [{"sigma": 0.01, "subcohort": "A", "beta": [NaN, 0.4]}]}'),
    ("sensitivity.json", '{"levels": 3}'),
    ("sensitivity.json", '{"levels": [{"sigma": 0.01, "cohort_mean": null, "cohort_max": 0}]}'),
    ("powell_trace.csv", "k,d_ca,d_ci,J,err_to_truth\n0,0.3,0.8\n"),
    ("powell_trace.csv", "k,d_ca,d_ci,J,err_to_truth\n0,0.3,0.8,1.0,0.5\n1,0.4,0.7,0.5,x\n"),
])
def test_report_wrong_shaped_artifact_exits_3(workdir, synth_bundle, capsys, name, content):
    bundle = workdir / "report_wrong_shape"
    bundle.mkdir(exist_ok=True)
    for fname in os.listdir(bundle):
        os.remove(bundle / fname)
    (bundle / "manifest.json").write_text((workdir / "synth" / "manifest.json").read_text())
    (bundle / name).write_text(content)
    capsys.readouterr()
    assert run(workdir, "report", str(bundle)) == 3
    assert name in capsys.readouterr().err


def test_report_accepts_nan_sensitivity_level(workdir, synth_bundle):
    # sensitivity_study writes NaN for a level at which every patient was excluded
    bundle = workdir / "report_nan_level"
    bundle.mkdir(exist_ok=True)
    (bundle / "manifest.json").write_text((workdir / "synth" / "manifest.json").read_text())
    (bundle / "sensitivity.json").write_text(
        '{"levels": [{"sigma": 0.01, "cohort_mean": NaN, "cohort_max": NaN}]}')
    assert run(workdir, "report", str(bundle)) == 0
    assert "sigma 0.01: mean output error nan%" in (bundle / "summary.txt").read_text()
