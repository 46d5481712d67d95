"""Regenerate reference_outlets.json, the synth outlets the benchmark pins.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/pin_reference_outlets.py

Runs ``synth`` for each pinned configuration: the synth-default workload
(default mesh, 8 patients) for every cohort seed the benchmark can derive,
and its self-test size (coarse mesh, 2 patients) for cohort seed 7.  Only
rerun it when the forward map is meant to change; the benchmark's synth
check compares against these numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
from run import BETA_STAR, WORK, workloads

from fiberdialysis import cli
from fiberdialysis.config import load_profile


def pinned_outlets(mesh, ns, seed, work):
    config = os.path.join(work, "config.json")
    with open(config, "w") as fh:
        json.dump({"mesh": list(mesh), "jobs": 1, "seed": seed}, fh)
    out = os.path.join(work, "out")
    rc = cli.main(["synth", "--config", config, "--ns", str(ns),
                   "--beta-star", f"{BETA_STAR[0]},{BETA_STAR[1]}", "--out", out])
    if rc != 0:
        raise SystemExit(f"synth failed for mesh {mesh}, seed {seed}")
    with open(os.path.join(out, "targets.json")) as fh:
        return {rec["id"]: rec["observed_outlet"] for rec in json.load(fh)}


def main():
    work = os.path.join(WORK, "pin")
    os.makedirs(work, exist_ok=True)
    configs = [(workloads()["synth-default"], range(checks.N_PINNED_COHORTS)),
               (workloads("tiny")["synth-default"], [7])]
    outlets = {}
    try:
        for wl, seeds in configs:
            ns = int(wl.argv[wl.argv.index("--ns") + 1])
            outlets[checks.reference_key(wl.mesh, ns)] = {
                str(seed): pinned_outlets(wl.mesh, ns, seed, work) for seed in seeds}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"beta_star": list(BETA_STAR),
               "newton_tol": load_profile().raw["transport"]["newton_tol"],
               "outlets": outlets}
    with open(checks.REFERENCE_OUTLETS, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
