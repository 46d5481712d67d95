"""Batch command-line surface for the forward/inverse pipeline.

Every command writes its outputs (plus a manifest with the config hash,
seeds and arguments) under the chosen output directory and nowhere else;
re-running a command with the same inputs reproduces the bundle byte for
byte.  Exit codes: 0 ok, 1 solver non-convergence, 2 config/parse error,
3 bundle version mismatch, 4 incomplete bundle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config
from .cohort import (CohortTable, NoiseSpec, add_measurement_noise, derive_seed,
                     generate_cohort, load_records, make_reference_targets, save_records)
from .config import RunConfig, load_patient_csv, packaged_data_path
from .exceptions import (CalibrationError, ConfigurationError, FiberDialysisError, NewtonError,
                         UsageError)
from .inverse import (ForwardContext, MultiCostConfig, context_from_profile,
                      default_weights, identify_multi, identify_single,
                      landscape_scan, sensitivity_study)
from .transport import export_field_csv

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2
EXIT_BUNDLE_MISMATCH = 3
EXIT_INCOMPLETE = 4


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                     else str(v) for v in row) + "\n")


def _parse_numbers(text, name, form, counts=None, kind=float):
    """The comma-separated numbers of option ``name``; ConfigurationError
    (exit 2) unless each parses as ``kind`` and, when ``counts`` is given,
    their count is one of ``counts``.  ``form`` describes the expected value."""
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        values = []
    if not values or (counts is not None and len(values) not in counts):
        raise ConfigurationError(f"{name} must be {form}, got {text!r}")
    return values


def _parse_pair(text, name):
    return tuple(_parse_numbers(text, name, "two comma-separated numbers", (2,)))


def _parse_box(text, name):
    lo1, hi1, lo2, hi2 = _parse_numbers(text, name, "lo1,hi1,lo2,hi2", (4,))
    return (lo1, hi1), (lo2, hi2)


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.load(args.config)
    else:
        cfg = RunConfig.defaults()
    if args.jobs is not None:
        cfg.options["jobs"] = int(args.jobs)
    return cfg


def _outdir(args):
    out = args.out
    os.makedirs(out, exist_ok=True)
    return out


def _prepare_patient(ctx, cfg, path):
    rec = load_patient_csv(path, cfg.profile.base_hydraulics())
    if "Q_uf" in rec.extras:
        rec = ctx.calibrate_record(rec)
    else:
        # shipped pressures act as this patient's frozen calibration
        rec.calibrated = True
    return rec


def _read_bundle_json(path, name):
    """The JSON content of file ``name`` of bundle ``path``; _BundleMismatch
    (exit 3) naming the file when it is not valid JSON."""
    try:
        with open(os.path.join(path, name)) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _BundleMismatch(f"bundle {path}: {name} is not valid JSON: {exc}") from None


def _check_bundle(path, needed):
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise FileNotFoundError(f"bundle {path} has no manifest.json")
    manifest = _read_bundle_json(path, "manifest.json")
    if not isinstance(manifest, dict):
        raise _BundleMismatch(f"bundle {path}: manifest.json must be a JSON object")
    if manifest.get("bundle_version") != config.BUNDLE_VERSION:
        raise _BundleMismatch(
            f"bundle {path} has version {manifest.get('bundle_version')}, "
            f"expected {config.BUNDLE_VERSION}")
    missing = [n for n in needed if not os.path.exists(os.path.join(path, n))]
    if missing:
        raise FileNotFoundError(f"bundle {path} is missing {', '.join(missing)}")
    return manifest


class _BundleMismatch(FiberDialysisError):
    pass


# -- commands ---------------------------------------------------------------------

def cmd_forward(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    beta = _parse_pair(args.beta, "--beta")
    rec = _prepare_patient(ctx, cfg, args.patient)
    out = _outdir(args)
    try:
        outlet, field, result = ctx.forward_detailed(rec, np.asarray(beta))
    except NewtonError as exc:
        _write_json(os.path.join(out, "newton_failure.json"),
                    {"patient": rec.id, "beta": list(beta),
                     "error": str(exc), "trace": [float(v) for v in exc.trace]})
        print(f"forward solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    export_field_csv(field, ctx.mesh, os.path.join(out, "field.csv"))
    _write_csv(os.path.join(out, "newton_trace.csv"), ["n", "update_norm"],
               list(enumerate(result.trace)))
    _write_json(os.path.join(out, "outlet.json"),
                {"patient": rec.id, "beta": list(beta),
                 "outlet": [float(v) for v in outlet],
                 "newton_solves": result.n_solves})
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("forward", {"patient": os.path.basename(args.patient),
                                              "beta": list(beta)}))
    print(f"outlet: {[round(float(v), 6) for v in outlet]}")
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    ns = int(args.ns) if args.ns is not None else int(cfg.options["ns"])
    seed = int(args.seed) if args.seed is not None else int(cfg.options["seed"])
    beta_star = _parse_pair(args.beta_star, "--beta-star") if args.beta_star \
        else tuple(cfg.options["beta_star"])
    real_path = args.real or str(packaged_data_path("sample_cohort.csv"))
    real = CohortTable.from_csv(real_path)
    table = generate_cohort(real, ns=ns, seed=seed)
    records = make_reference_targets(table, ctx, np.asarray(beta_star))
    out = _outdir(args)
    table.to_csv(os.path.join(out, "cohort.csv"))
    save_records(records, os.path.join(out, "targets.json"))
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("synth", {"ns": ns, "seed": seed,
                                            "beta_star": list(beta_star),
                                            "real": os.path.basename(real_path),
                                            "n_valid": len(records)}))
    print(f"synthesized {ns} patients ({len(records)} valid) at beta*={list(beta_star)}")
    return EXIT_OK


def _sigmas(args, cfg):
    if args.sigmas:
        return _parse_numbers(args.sigmas, "--sigmas", "comma-separated numbers")
    return [float(s) for s in cfg.options["noise_sigmas"]]


def _load_targets(args, needed=("targets.json",)):
    import hashlib
    manifest = _check_bundle(args.targets, needed)
    targets_path = os.path.join(args.targets, "targets.json")
    try:
        records = load_records(targets_path)
    except (ConfigurationError, TypeError, ValueError) as exc:
        # ValueError covers invalid JSON and non-numeric entries
        raise _BundleMismatch(f"bundle {args.targets}: targets.json does not hold "
                              f"patient records: {exc}") from None
    with open(targets_path, "rb") as fh:
        manifest["targets_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return manifest, records


def _select_patients(records, spec_text):
    if not spec_text:
        return records
    wanted = [s.strip() for s in spec_text.split(",") if s.strip()]
    by_id = {r.id: r for r in records}
    missing = [w for w in wanted if w not in by_id]
    if missing:
        raise UsageError(f"unknown patient ids: {', '.join(missing)}")
    return [by_id[w] for w in wanted]


def _cost_config(cfg: RunConfig, records, bounds_text=None):
    bounds = tuple(tuple(b) for b in cfg.options["bounds"])
    if bounds_text:
        bounds = _parse_box(bounds_text, "--bounds")
    return MultiCostConfig(weights=default_weights(records),
                           lam=float(cfg.options["lambda"]),
                           bounds=bounds,
                           penalty_scale=float(cfg.options["penalty_scale"]),
                           failure_value=float(cfg.options["failure_value"]))


def _invert(cfg: RunConfig, ctx: ForwardContext, patients, init, bounds_text):
    """Levenberg-Marquardt identification over ``patients`` from ``init`` with
    the run's cost options and stopping rule; returns (cost config,
    OptimResult)."""
    mcfg = _cost_config(cfg, patients, bounds_text)
    return mcfg, identify_multi(patients, np.asarray(init), mcfg, ctx,
                                tol=float(cfg.options["powell_tol"]),
                                max_iter=int(cfg.options["powell_max_iter"]))


def cmd_invert_single(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    rec = _prepare_patient(ctx, cfg, args.patient)
    if rec.observed_outlet is None:
        raise ConfigurationError(f"{args.patient}: needs an observed_outlet_blood row")
    beta0 = _parse_pair(args.beta0, "--beta0") if args.beta0 else (0.2, 0.2)
    result = identify_single(rec, np.asarray(beta0), ctx,
                             initial_step=float(cfg.options["pg_initial_step"]),
                             tol=float(cfg.options["pg_tol"]),
                             n_max=int(cfg.options["pg_max_iter"]),
                             fd_step=float(cfg.options["fd_step"]))
    out = _outdir(args)
    _write_csv(os.path.join(out, "descent_trace.csv"),
               ["k", "d_ca", "d_ci", "J"],
               [(k, p[0], p[1], v) for k, (p, v) in enumerate(result.trace)])
    _write_json(os.path.join(out, "result.json"),
                {"best_point": [float(v) for v in result.best_point],
                 "best_value": float(result.best_value),
                 "initial_value": float(result.trace[0][1]),
                 "n_evals": result.n_evals,
                 "converged": result.converged,
                 "stop_reason": result.stop_reason})
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("invert-single",
                                  {"patient": os.path.basename(args.patient),
                                   "beta0": list(beta0)}))
    print(f"best beta = {[round(float(v), 6) for v in result.best_point]}, "
          f"J {result.trace[0][1]:.4g} -> {result.best_value:.4g}")
    return EXIT_OK


def cmd_invert_multi(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    manifest, records = _load_targets(args)
    patients = _select_patients(records, args.patients)
    if args.noise_sigma:
        spec = NoiseSpec(sigma=float(args.noise_sigma),
                         clip_factor=float(cfg.options["clip_factor"]),
                         seed=derive_seed(int(cfg.options["seed"]), "noise", args.noise_sigma))
        patients = add_measurement_noise(patients, spec)
    init = _parse_pair(args.init, "--init") if args.init else (0.3, 0.8)
    mcfg, result = _invert(cfg, ctx, patients, init, args.bounds)
    out = _outdir(args)
    beta_star = manifest.get("args", {}).get("beta_star")
    rows = []
    for k, (p, v) in enumerate(result.trace):
        err = float(np.linalg.norm(np.asarray(p) - np.asarray(beta_star))) \
            if beta_star else ""
        rows.append((k, p[0], p[1], v, err))
    _write_csv(os.path.join(out, "powell_trace.csv"),
               ["k", "d_ca", "d_ci", "J", "err_to_truth"], rows)
    payload = {"best_point": [float(v) for v in result.best_point],
               "best_value": float(result.best_value),
               "n_evals": result.n_evals,
               "n_jacobians": result.n_jacobians,
               "converged": result.converged,
               "stop_reason": result.stop_reason,
               "patients": [p.id for p in patients]}
    if beta_star:
        payload["beta_star"] = beta_star
        payload["max_abs_error"] = float(
            np.max(np.abs(result.best_point - np.asarray(beta_star))))
    _write_json(os.path.join(out, "result.json"), payload)
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("invert-multi",
                                  {"targets": os.path.basename(os.path.normpath(args.targets)),
                                   "targets_sha256": manifest["targets_sha256"],
                                   "patients": [p.id for p in patients],
                                   "init": list(init),
                                   "bounds": [list(b) for b in mcfg.bounds],
                                   "noise_sigma": args.noise_sigma or 0.0}))
    print(f"recovered beta = {[round(float(v), 6) for v in result.best_point]} "
          f"(J = {result.best_value:.4g}, {result.n_evals} evaluations)")
    return EXIT_OK


def cmd_grid(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    manifest, records = _load_targets(args)
    patients = _select_patients(records, args.patients)
    mcfg = _cost_config(cfg, patients, args.bounds)
    if args.box:
        box = _parse_box(args.box, "--box")
    else:
        box = ((0.02, 3.0), (0.02, 3.0)) if args.clinical else ((0.02, 1.0), (0.02, 1.0))
    if args.n:
        ns = _parse_numbers(args.n, "--n", "n or n1,n2", (1, 2), kind=int)
        n1, n2 = ns[0], ns[-1]
    else:
        n1 = n2 = 31
    grid = landscape_scan(patients, box, n1, n2, mcfg, ctx)
    out = _outdir(args)
    _write_csv(os.path.join(out, "landscape.csv"),
               ["d_ca", "d_ci", "J", "log10_J"], grid.rows())
    payload = {"argmin": [float(v) for v in grid.argmin_point],
               "argmin_index": list(grid.argmin_index),
               "box": [list(b) for b in box], "n": [n1, n2],
               "n_evals": grid.n_evals,
               "patients": [p.id for p in patients]}
    if args.refine_box:
        rbox = _parse_box(args.refine_box, "--refine-box")
        refined = landscape_scan(patients, rbox, n1, n2, mcfg, ctx)
        _write_csv(os.path.join(out, "landscape_refined.csv"),
                   ["d_ca", "d_ci", "J", "log10_J"], refined.rows())
        payload["refined_argmin"] = [float(v) for v in refined.argmin_point]
        payload["refine_box"] = [list(b) for b in rbox]
    _write_json(os.path.join(out, "grid_result.json"), payload)
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("grid", {"box": [list(b) for b in box],
                                           "n": [n1, n2],
                                           "targets_sha256": manifest["targets_sha256"],
                                           "patients": [p.id for p in patients],
                                           "refine_box": args.refine_box or ""}))
    print(f"grid argmin = {[round(float(v), 6) for v in grid.argmin_point]}")
    return EXIT_OK


def cmd_noise_study(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    manifest, records = _load_targets(args)
    sigmas = _sigmas(args, cfg)
    size = int(args.subcohort_size)
    n_sub = int(args.n_subcohorts)
    for option, count in (("--subcohort-size", size), ("--n-subcohorts", n_sub)):
        if count < 1:
            raise ConfigurationError(f"{option} must be >= 1, got {count}")
    if len(records) < size * n_sub:
        raise ConfigurationError(
            f"need at least {size * n_sub} patients for {n_sub} disjoint "
            f"sub-cohorts of {size}, bundle has {len(records)}")
    init = _parse_pair(args.init, "--init") if args.init else (0.3, 0.8)
    seed = int(cfg.options["seed"])
    beta_star = manifest.get("args", {}).get("beta_star")
    estimates = []
    for k_sig, sigma in enumerate(sigmas):
        spec = NoiseSpec(sigma=sigma, clip_factor=float(cfg.options["clip_factor"]),
                         seed=derive_seed(seed, "noise", k_sig))
        noisy = add_measurement_noise(records, spec)
        groups = [(f"P{k + 1}", noisy[k * size:(k + 1) * size]) for k in range(n_sub)]
        if abs(sigma - float(args.full_at)) < 1e-12:
            groups.append(("full", noisy[: size * n_sub]))
        for label, group in groups:
            _, res = _invert(cfg, ctx, group, init, args.bounds)
            estimates.append({"sigma": sigma, "subcohort": label,
                              "patients": [p.id for p in group],
                              "beta": [float(v) for v in res.best_point],
                              "J": float(res.best_value),
                              "n_evals": res.n_evals,
                              "n_jacobians": res.n_jacobians})
    out = _outdir(args)
    _write_csv(os.path.join(out, "subcohort_estimates.csv"),
               ["sigma", "subcohort", "d_ca", "d_ci", "J"],
               [(e["sigma"], e["subcohort"], e["beta"][0], e["beta"][1], e["J"])
                for e in estimates])
    payload = {"estimates": estimates, "sigmas": sigmas}
    if beta_star:
        payload["beta_star"] = beta_star
    _write_json(os.path.join(out, "noise_study.json"), payload)
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("noise-study",
                                  {"targets": os.path.basename(os.path.normpath(args.targets)),
                                   "targets_sha256": manifest["targets_sha256"],
                                   "sigmas": sigmas, "subcohort_size": size,
                                   "n_subcohorts": n_sub, "init": list(init),
                                   "full_at": float(args.full_at)}))
    print(f"{len(estimates)} inversions written to {out}")
    return EXIT_OK


def cmd_sensitivity(args, cfg: RunConfig, ctx: ForwardContext) -> int:
    manifest, records = _load_targets(args)
    sigmas = _sigmas(args, cfg)
    beta_star = _parse_pair(args.beta_star, "--beta-star") if args.beta_star else \
        tuple(manifest.get("args", {}).get("beta_star", cfg.options["beta_star"]))
    seed = int(args.seed) if args.seed is not None else int(cfg.options["seed"])
    study = sensitivity_study(records, ctx, np.asarray(beta_star), sigmas, seed)
    out = _outdir(args)
    _write_csv(os.path.join(out, "sensitivity_species.csv"),
               ["sigma", "species", "mean_rel_error"], study.rows())
    _write_csv(os.path.join(out, "sensitivity_patients.csv"),
               ["sigma", "patient", "mean_rel_error"],
               [(lvl.sigma, pid, err) for lvl in study.levels
                for pid, err in sorted(lvl.per_patient_mean.items())])
    _write_json(os.path.join(out, "sensitivity.json"),
                {"beta_star": [float(v) for v in study.beta_star],
                 "seed": study.seed,
                 "levels": [{"sigma": lvl.sigma,
                             "cohort_mean": lvl.cohort_mean,
                             "cohort_max": lvl.cohort_max,
                             "per_species_mean": [float(v) for v in lvl.per_species_mean],
                             "excluded": lvl.excluded}
                            for lvl in study.levels]})
    _write_json(os.path.join(out, "manifest.json"),
                cfg.manifest_dict("sensitivity",
                                  {"targets": os.path.basename(os.path.normpath(args.targets)),
                                   "targets_sha256": manifest["targets_sha256"],
                                   "sigmas": sigmas, "seed": seed,
                                   "beta_star": list(beta_star)}))
    for lvl in study.levels:
        print(f"sigma={lvl.sigma:g}: cohort mean {lvl.cohort_mean:.4%}, "
              f"max {lvl.cohort_max:.4%}")
    return EXIT_OK


def cmd_report(args) -> int:
    bundle = args.bundle
    if not os.path.isdir(bundle):
        print(f"{bundle}: not a directory", file=sys.stderr)
        return EXIT_INCOMPLETE
    known = {
        "result.json": "inversion result",
        "powell_trace.csv": "optimizer iterates (phase plane / error / objective)",
        "descent_trace.csv": "projected-gradient iterates",
        "landscape.csv": "objective landscape",
        "landscape_refined.csv": "localized objective landscape",
        "noise_study.json": "sub-cohort noise estimates",
        "sensitivity.json": "coefficient sensitivity summary",
        "outlet.json": "forward outlet vector",
        "targets.json": "reference targets",
        "cohort.csv": "synthetic cohort table",
    }
    present = {n: d for n, d in known.items() if os.path.exists(os.path.join(bundle, n))}
    if not present:
        print(f"{bundle}: no reportable artifacts found "
              f"(expected any of: {', '.join(sorted(known))})", file=sys.stderr)
        return EXIT_INCOMPLETE
    lines = [f"bundle: {os.path.basename(os.path.normpath(bundle))}"]
    if os.path.exists(os.path.join(bundle, "manifest.json")):
        manifest = _read_bundle_json(bundle, "manifest.json")
        lines.append(f"command: {manifest.get('command')}")
        lines.append(f"profile: {manifest.get('profile_name')} "
                     f"({manifest.get('profile_sha256', '')[:12]})")
    for name, desc in sorted(present.items()):
        lines.append(f"artifact: {name} ({desc})")

    if "powell_trace.csv" in present:
        rows = _read_csv_rows(os.path.join(bundle, "powell_trace.csv"))
        _write_csv(os.path.join(bundle, "report_objective.csv"), ["k", "J"],
                   [(r[0], r[3]) for r in rows])
        _write_csv(os.path.join(bundle, "report_phase_plane.csv"),
                   ["k", "d_ca", "d_ci"], [(r[0], r[1], r[2]) for r in rows])
        if rows and rows[0][4] != "":
            _write_csv(os.path.join(bundle, "report_beta_error.csv"), ["k", "err"],
                       [(r[0], r[4]) for r in rows])
            lines.append(f"final beta error: {float(rows[-1][4]):.3e}")
    if "result.json" in present:
        res = _read_bundle_json(bundle, "result.json")
        lines.append(f"best point: {res['best_point']} (J = {res['best_value']:.6g})")
    if "noise_study.json" in present:
        study = _read_bundle_json(bundle, "noise_study.json")
        for e in study["estimates"]:
            lines.append(f"sigma {e['sigma']:g} {e['subcohort']}: "
                         f"beta = {[round(v, 5) for v in e['beta']]}")
    if "sensitivity.json" in present:
        sens = _read_bundle_json(bundle, "sensitivity.json")
        for lvl in sens["levels"]:
            lines.append(f"sigma {lvl['sigma']:g}: mean output error "
                         f"{lvl['cohort_mean']:.4%} (max {lvl['cohort_max']:.4%})")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(bundle, "summary.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def _read_csv_rows(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


# -- entry point ---------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="fiberdialysis",
        description="Hollow-fiber dialysis transport simulation and "
                    "membrane-diffusion identification")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, targets=False):
        p.add_argument("--config", help="run config JSON (profile, seeds, options)")
        p.add_argument("--jobs", type=int, help="concurrent forward solves")
        p.add_argument("--out", default="out", help="output directory")
        if targets:
            p.add_argument("--targets", required=True, help="targets bundle directory")

    p = sub.add_parser("forward", help="single forward solve, field dump + outlet")
    common(p)
    p.add_argument("--patient", required=True, help="patient CSV (boundary rows)")
    p.add_argument("--beta", required=True, help="d_Ca,d_Ci")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("synth", help="synthesize a cohort and its exact targets")
    common(p)
    p.add_argument("--real", help="real cohort CSV (fields x patients); "
                                  "defaults to the packaged sample")
    p.add_argument("--ns", type=int, help="number of synthetic patients")
    p.add_argument("--seed", type=int, help="cohort sampling seed")
    p.add_argument("--beta-star", dest="beta_star", help="ground-truth d_Ca,d_Ci")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("invert-single", help="projected-gradient single-patient fit")
    common(p)
    p.add_argument("--patient", required=True)
    p.add_argument("--beta0", help="initial d_Ca,d_Ci (default 0.2,0.2)")
    p.set_defaults(func=cmd_invert_single)

    p = sub.add_parser("invert-multi", help="Levenberg-Marquardt multi-patient identification")
    common(p, targets=True)
    p.add_argument("--patients", help="comma-separated patient ids (default: all)")
    p.add_argument("--init", help="initial d_Ca,d_Ci (default 0.3,0.8)")
    p.add_argument("--bounds", help="lo1,hi1,lo2,hi2 soft bounds")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                   help="perturb targets multiplicatively before inverting")
    p.set_defaults(func=cmd_invert_multi)

    p = sub.add_parser("grid", help="exhaustive objective landscape scan")
    common(p, targets=True)
    p.add_argument("--patients")
    p.add_argument("--box", help="lo1,hi1,lo2,hi2 (default [0.02,1]^2; "
                                 "[0.02,3]^2 with --clinical)")
    p.add_argument("--n", help="grid resolution n or n1,n2 (default 31)")
    p.add_argument("--bounds", help="soft bounds for the cost")
    p.add_argument("--clinical", action="store_true",
                   help="clinical-mode defaults (wide box)")
    p.add_argument("--refine-box", dest="refine_box",
                   help="second, localized scan box lo1,hi1,lo2,hi2")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("noise-study", help="sub-cohort inversions under target noise")
    common(p, targets=True)
    p.add_argument("--sigmas", help="comma-separated noise levels (default config)")
    p.add_argument("--subcohort-size", dest="subcohort_size", type=int, default=5)
    p.add_argument("--n-subcohorts", dest="n_subcohorts", type=int, default=4)
    p.add_argument("--full-at", dest="full_at", type=float, default=0.05,
                   help="also invert the pooled cohort at this noise level")
    p.add_argument("--init")
    p.add_argument("--bounds")
    p.set_defaults(func=cmd_noise_study)

    p = sub.add_parser("sensitivity", help="coefficient-perturbation sensitivity study")
    common(p, targets=True)
    p.add_argument("--sigmas")
    p.add_argument("--seed", type=int)
    p.add_argument("--beta-star", dest="beta_star")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("report", help="summarize a bundle into plot-ready CSVs")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_report:
            return cmd_report(args)
        cfg = _load_config(args)
        # leaving the block joins the pool workers, so their CPU time is in
        # RUSAGE_CHILDREN when main returns
        with context_from_profile(cfg.profile, jobs=int(cfg.options["jobs"]),
                                  mesh_res=cfg.mesh_resolution()) as ctx:
            return args.func(args, cfg, ctx)
    except _BundleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUNDLE_MISMATCH
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except NewtonError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (CalibrationError, ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
