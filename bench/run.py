"""Benchmark of the fiberdialysis identification pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each one is there):

  synth-default  ``synth --ns 8`` at the profile's mesh (80,12,8,10), jobs=1
  invert-coarse  ``invert-multi`` of s1..s4 on the coarse mesh (40,6,4,5),
                 Powell from (0.3, 0.8), jobs=1
  grid-pool      ``grid --n 11`` on [0.02,1]^2 over s1..s4 (coarse), jobs=2

Each workload is a closed loop with one client: the next job starts when
the previous one has finished.  Every set-up and every job is a fresh
Python process (child.py) that drives ``fiberdialysis.cli.main``
in-process, so memory and CPU time are measured per job.

With ``--trace 0`` the run sets up five times, repeats the job until
``--seconds`` are used (at least once) and prints the medians of the
end-to-end metrics.  With ``--trace 1`` it sets up once (traced), runs the
job once untraced and once traced, adds a jobs=1 pass for pooled
workloads, and prints the per-layer metrics.  Every job's output bundle is
checked; the last stdout line is the JSON result, the line before it the
environment.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import checks
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_MESH = (80, 12, 8, 10)
COARSE_MESH = (40, 6, 4, 5)
BETA_STAR = (0.8, 0.4)
FAILURE_VALUE = 1e10
N_SETUPS = 5
CHILD_TIMEOUT_S = 160

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


class BenchError(RuntimeError):
    """A benchmark process failed; the run has no result."""


@dataclass(frozen=True)
class Workload:
    name: str
    mesh: tuple
    jobs: int
    targets_ns: int | None        # patients synthesized by the set-up, if any
    argv: tuple                   # CLI job; {targets} and {out} are filled in
    options: dict = field(default_factory=dict)
    grid: tuple | None = None     # (box, n) of a grid job
    fixed_cohort_seed: int | None = None


def workloads(size="full"):
    """The benchmark's workloads; ``size="tiny"`` shrinks each one for the
    self-test (coarse mesh, 2 patients, a 3x3 grid around beta*)."""
    b = f"{BETA_STAR[0]},{BETA_STAR[1]}"
    if size == "tiny":
        box = ((0.6, 1.0), (0.2, 0.6))
        return {
            "synth-default": Workload(
                "synth-default", COARSE_MESH, 1, None,
                ("synth", "--ns", "2", "--beta-star", b, "--out", "{out}")),
            "invert-coarse": Workload(
                "invert-coarse", COARSE_MESH, 1, 2,
                ("invert-multi", "--targets", "{targets}", "--patients", "s1,s2",
                 "--init", "0.7,0.5", "--out", "{out}"),
                options={"powell_tol": 1e-8}, fixed_cohort_seed=7),
            "grid-pool": Workload(
                "grid-pool", COARSE_MESH, 2, 2,
                ("grid", "--targets", "{targets}", "--patients", "s1,s2", "--n", "3",
                 "--box", "0.6,1.0,0.2,0.6", "--out", "{out}"),
                grid=(box, 3)),
        }
    box = ((0.02, 1.0), (0.02, 1.0))
    return {
        "synth-default": Workload(
            "synth-default", DEFAULT_MESH, 1, None,
            ("synth", "--ns", "8", "--beta-star", b, "--out", "{out}")),
        "invert-coarse": Workload(
            "invert-coarse", COARSE_MESH, 1, 4,
            ("invert-multi", "--targets", "{targets}", "--patients", "s1,s2,s3,s4",
             "--init", "0.3,0.8", "--out", "{out}"),
            fixed_cohort_seed=7),
        "grid-pool": Workload(
            "grid-pool", COARSE_MESH, 2, 4,
            ("grid", "--targets", "{targets}", "--patients", "s1,s2,s3,s4", "--n", "11",
             "--out", "{out}"),
            grid=(box, 11)),
    }


def cohort_seed(wl: Workload, seed: int) -> int:
    """Cohort seed of a run.  Seeds map onto the 16 cohorts whose synth
    outlets are pinned in reference_outlets.json; invert-coarse keeps the
    criterion-1 cohort, because Powell's path length depends on the cohort
    (see NOTES.md)."""
    if wl.fixed_cohort_seed is not None:
        return wl.fixed_cohort_seed
    return seed % checks.N_PINNED_COHORTS


# -- child processes ----------------------------------------------------------------

def _child(work, tag, spec):
    """Run child.py with ``spec``; returns its JSON result."""
    spec = dict(spec, result=os.path.join(work, f"{tag}.result.json"))
    spec_path = os.path.join(work, f"{tag}.spec.json")
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=work)
    spec["t_spawn"] = perf_counter()
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), spec_path],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=work, start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:   # timeout or termination: stop the child and its workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        tail = log.decode(errors="replace")[-2000:]
        raise BenchError(f"{tag}: exit code {proc.returncode}\n{tail}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if result["rc"] != 0:
        raise BenchError(f"{tag}: fiberdialysis exited with code {result['rc']}\n"
                         f"{log.decode(errors='replace')[-2000:]}")
    return result


def _write_config(work, name, wl, jobs, cseed):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(dict(wl.options, mesh=list(wl.mesh), jobs=jobs, seed=cseed), fh)
    return path


def _setup(wl, work, k, cseed, config, trace_dir=None):
    argv = None
    if wl.targets_ns is not None:
        argv = ["synth", "--config", config, "--ns", str(wl.targets_ns),
                "--beta-star", f"{BETA_STAR[0]},{BETA_STAR[1]}",
                "--out", os.path.join(work, f"targets-{k}")]
    return _child(work, f"setup-{k}", {"phase": "setup", "config": config, "argv": argv,
                                       "trace_dir": trace_dir, "env": k == 0})


def _job(wl, work, tag, config, trace_dir=None):
    out = os.path.join(work, f"out-{tag}")
    argv = [a.format(targets=os.path.join(work, "targets-0"), out=out) for a in wl.argv]
    argv[1:1] = ["--config", config]
    result = _child(work, tag, {"phase": "job", "config": config, "argv": argv,
                                "trace_dir": trace_dir, "env": False})
    result["out"] = out
    return result


def check_output(wl, out, cseed):
    """Correctness errors of one job's output bundle (empty when correct)."""
    if wl.argv[0] == "synth":
        ns = int(wl.argv[wl.argv.index("--ns") + 1])
        return checks.check_synth(out, wl.mesh, ns, cseed, checks.load_reference_outlets())
    if wl.argv[0] == "invert-multi":
        return checks.check_invert(out, BETA_STAR)
    box, n = wl.grid
    return checks.check_grid(out, box, n, BETA_STAR, FAILURE_VALUE)


# -- one run --------------------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: str):
    """Set up and measure one workload; returns the result dict (the keys
    main prints, plus ``env``, ``samples``, ``errors``, ``cohort_seed`` and
    the jobs' output directories ``outs``)."""
    os.makedirs(work, exist_ok=True)
    cseed = cohort_seed(wl, seed)
    config = _write_config(work, "config.json", wl, wl.jobs, cseed)

    if trace:
        trace_setup = os.path.join(work, "trace-setup")
        os.makedirs(trace_setup)
        setups = [_setup(wl, work, 0, cseed, config, trace_setup)]
    else:
        setups = [_setup(wl, work, k, cseed, config) for k in range(N_SETUPS)]
    samples = {"setup_s": [s["setup_s"] for s in setups]}
    env = setups[0]["env"]

    if trace:
        untraced = _job(wl, work, "job-untraced", config)
        trace_job = os.path.join(work, "trace-job")
        os.makedirs(trace_job)
        traced = _job(wl, work, "job-traced", config, trace_job)
        jobs = [untraced, traced]
        speedup = 1.0
        if wl.jobs > 1:
            single = _job(wl, work, "job-single",
                          _write_config(work, "config-single.json", wl, 1, cseed))
            jobs.append(single)
            speedup = single["wall_s"] / untraced["wall_s"]
    else:
        # start another job while at least half of it fits in ``seconds``
        jobs = []
        t0 = perf_counter()
        while True:
            jobs.append(_job(wl, work, f"job-{len(jobs)}", config))
            elapsed = perf_counter() - t0
            if elapsed + 0.5 * elapsed / len(jobs) > seconds:
                break
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [j[key] for j in jobs]

    errors = []
    for j in jobs:
        errors += check_output(wl, j["out"], cseed)
    attempted = sum(j["attempted"] for j in jobs)
    failed = attempted if errors else sum(j["failed"] for j in jobs)
    failed_frac = failed / attempted if attempted else 1.0

    if trace:
        values = tracing.layer_metrics(
            setups[0]["spans"], traced["spans"], jobs=wl.jobs,
            traced_wall_s=traced["wall_s"], untraced_wall_s=untraced["wall_s"],
            speedup=speedup, failed_frac=failed_frac)
        units = tracing.PER_LAYER
    else:
        values = {key: statistics.median(vals) for key, vals in samples.items()}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}
    return {"correct": not errors, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics, "env": env, "samples": samples, "errors": errors,
            "cohort_seed": cseed, "outs": [j["out"] for j in jobs]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "fiberdialysis", "cli.py")):
        print(f"error: no fiberdialysis sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        res = run_workload(workloads()[args.workload], args.seed, args.seconds,
                           bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass   # another run's work directory is still there
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"env": res["env"], "cohort_seed": res["cohort_seed"],
                      "samples": res["samples"]}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
