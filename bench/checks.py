"""Correctness checks of the workloads' output bundles.

Each check reads the files a CLI job wrote and returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_OUTLETS = os.path.join(HERE, "reference_outlets.json")
N_PINNED_COHORTS = 16   # synth outlets are pinned for cohort seeds 0..15


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def load_reference_outlets():
    return _load(REFERENCE_OUTLETS)


def reference_key(mesh, ns):
    """Key of one synth configuration in reference_outlets.json."""
    return f"mesh={','.join(str(n) for n in mesh)}/ns={ns}"


def outlet_tolerance(ref_value, newton_tol):
    """Allowed |outlet - reference| for one outlet component.

    Newton stops once the r-weighted L2 norm of its last update is below
    ``newton_tol``; two solves of the same discrete system that both meet
    that test differ by about one such update, and the outlet is a
    normalized section average of the field.  So a component may move by
    ``newton_tol`` relative to its size (absolute below size 1)."""
    return newton_tol * max(1.0, abs(ref_value))


def check_synth(out_dir, mesh, ns, cohort_seed, reference):
    """n_valid == ns, finite outlets, outlets near the pinned references."""
    errors = []
    manifest = _load(os.path.join(out_dir, "manifest.json"))
    n_valid = manifest["args"]["n_valid"]
    if n_valid != ns:
        errors.append(f"synth: n_valid {n_valid} != ns {ns}")
    pinned = reference["outlets"].get(reference_key(mesh, ns), {}).get(str(cohort_seed))
    if pinned is None:
        return errors + [f"synth: no pinned outlets for {reference_key(mesh, ns)}, "
                         f"cohort seed {cohort_seed}"]
    for rec in _load(os.path.join(out_dir, "targets.json")):
        outlet = rec["observed_outlet"]
        if outlet is None or not all(math.isfinite(v) for v in outlet):
            errors.append(f"synth: patient {rec['id']} outlet not finite: {outlet}")
            continue
        ref = pinned.get(rec["id"])
        if ref is None:
            errors.append(f"synth: no pinned outlet for patient {rec['id']}")
            continue
        for k, (v, r) in enumerate(zip(outlet, ref)):
            if abs(v - r) > outlet_tolerance(r, reference["newton_tol"]):
                errors.append(f"synth: patient {rec['id']} outlet c{k + 1} = {v!r}, "
                              f"pinned reference {r!r}")
    return errors


def check_invert(out_dir, beta_star, beta_tol=1e-3, j_tol=1e-8):
    """Criterion 1: converged, max |beta - beta*| <= 1e-3 and J <= 1e-8."""
    errors = []
    res = _load(os.path.join(out_dir, "result.json"))
    if not res["converged"]:
        errors.append(f"invert: not converged ({res['stop_reason']})")
    err = max(abs(b - s) for b, s in zip(res["best_point"], beta_star))
    if not err <= beta_tol:
        errors.append(f"invert: max |beta - beta*| = {err:.3e} > {beta_tol:g}")
    if not res["best_value"] <= j_tol:
        errors.append(f"invert: J = {res['best_value']:.3e} > {j_tol:g}")
    return errors


def check_grid(out_dir, box, n, beta_star, failure_value):
    """Criterion 2: the argmin is the grid cell nearest beta*, and no cell
    holds the failure value."""
    errors = []
    res = _load(os.path.join(out_dir, "grid_result.json"))
    nearest = [round((s - lo) / (hi - lo) * (n - 1)) for s, (lo, hi) in zip(beta_star, box)]
    if list(res["argmin_index"]) != nearest:
        errors.append(f"grid: argmin cell {res['argmin_index']} != nearest cell {nearest}")
    with open(os.path.join(out_dir, "landscape.csv"), newline="") as fh:
        values = [float(row["J"]) for row in csv.DictReader(fh)]
    if len(values) != n * n:
        errors.append(f"grid: {len(values)} cells, expected {n * n}")
    bad = [v for v in values if not (math.isfinite(v) and v < failure_value)]
    if bad:
        errors.append(f"grid: {len(bad)} cells hold the failure value or are not finite")
    return errors
