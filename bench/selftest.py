"""Fast self-test of the benchmark at a tiny size.

Usage (from the repository root)::

    python3 bench/selftest.py

Runs every workload shrunk to the coarse mesh, 2 patients and a 3x3 grid,
untraced and traced, and asserts that:

- each run passes its correctness checks;
- every metric named in BENCHMARK.json is emitted with its unit;
- the per-layer counts repeat exactly in a second traced run;
- each correctness check fails on a deliberately corrupted output;
- run.py exits non-zero, printing no result, where the sources are missing.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import run


def _edit_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _set_cell(path, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = repr(value)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scale_outlet(recs):
    recs[0]["observed_outlet"][0] *= 1.01


def _nan_outlet(recs):
    recs[-1]["observed_outlet"][2] = float("nan")


def _shift_beta(res):
    res["best_point"][1] += 2e-3


def _move_argmin(res):
    res["argmin_index"][0] = (res["argmin_index"][0] + 1) % 3


# workload -> [(what is corrupted, file, edit)]
CORRUPTIONS = {
    "synth-default": [
        ("outlet off its pinned value by 1%", "targets.json", _scale_outlet),
        ("non-finite outlet", "targets.json", _nan_outlet),
        ("a patient dropped", "manifest.json",
         lambda m: m["args"].update(n_valid=m["args"]["n_valid"] - 1)),
    ],
    "invert-coarse": [
        ("not converged", "result.json", lambda r: r.update(converged=False)),
        ("beta off by 2e-3", "result.json", _shift_beta),
        ("J above 1e-8", "result.json", lambda r: r.update(best_value=1e-6)),
    ],
    "grid-pool": [
        ("argmin moved", "grid_result.json", _move_argmin),
        ("a cell holds the failure value", "landscape.csv",
         lambda path: _set_cell(path, run.FAILURE_VALUE)),
    ],
}


def _assert_metrics(res, expected, label):
    got = res["metrics"]
    assert set(got) == {m["name"] for m in expected}, f"{label}: metric names {sorted(got)}"
    for m in expected:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)), f"{label}: {m['name']} not a number"


def _assert_counts_repeat(first, second, per_layer, label):
    counts = [m["name"] for m in per_layer if m["unit"] in ("count", "B")]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, f"{label}: {name} is {a} in one traced run and {b} in the next"
    print(f"  {label}: {len(counts)} counts repeat exactly across two traced runs")


def _assert_corruptions_fail(wl, res, work):
    for k, (what, name, edit) in enumerate(CORRUPTIONS[wl.name]):
        bad = os.path.join(work, f"corrupt-{k}")
        shutil.copytree(res["outs"][0], bad)
        path = os.path.join(bad, name)
        if name.endswith(".json"):
            _edit_json(path, edit)
        else:
            edit(path)
        errors = run.check_output(wl, bad, res["cohort_seed"])
        assert errors, f"{wl.name}: check passed on corrupted output ({what})"
        print(f"  {wl.name}: corrupted output rejected ({what}): {errors[0]}")


def _assert_fails_without_sources(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.BENCH, os.path.join(bare, os.path.basename(run.BENCH)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    with open(os.path.join(bare, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run([sys.executable] + command[1:] +
                          ["--workload", "grid-pool", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), \
        f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}"
    print(f"  no sources: exit code {proc.returncode}, no result printed")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        for wl in run.workloads("tiny").values():
            runs = {}
            for trace in (False, True):
                label = f"{wl.name} trace={int(trace)}"
                res = runs[trace] = run.run_workload(wl, 7, 0.1, trace, os.path.join(work, label))
                assert res["correct"], f"{label}: checks failed: {res['errors']}"
                assert res["attempted"] >= 1 and res["failed"] == 0, label
                _assert_metrics(res, declared["per_layer" if trace else "end_to_end"], label)
                print(f"  {label}: correct, {len(res['metrics'])} metrics with units")
            again = run.run_workload(wl, 7, 0.1, True, os.path.join(work, f"{wl.name} again"))
            _assert_counts_repeat(runs[True], again, declared["per_layer"], wl.name)
            _assert_corruptions_fail(wl, runs[False], os.path.join(work, wl.name))
        _assert_fails_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass   # a benchmark run's work directory is still there
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
