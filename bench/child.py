"""One process of a benchmark run: the set-up or one job of a workload.

Usage: python3 bench/child.py SPEC.json

SPEC.json (written by run.py) holds::

    phase      "setup" or "job"
    t_spawn    the parent's perf_counter() just before it started this process
    config     run config JSON (mesh override, jobs, seed)
    argv       fiberdialysis CLI arguments: the job, or the set-up's target
               synthesis (null when the set-up makes no targets)
    trace_dir  directory for span files, or null for an untraced process
    env        true to record the environment the job sees
    result     path of the JSON result this process writes

The job runs in-process through ``fiberdialysis.cli.main``.  Timings use
perf_counter, which is the system-wide monotonic clock on Linux, so the
parent's spawn time and this process's clock compare directly.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
from time import perf_counter

_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                "openblas_get_config64_", "openblas_get_config")


def _is_blas(name):
    return name.startswith("lib") and "blas" in name.lower()


def _blas_libraries():
    """Each loaded BLAS library with the thread count and configuration it
    reports (OpenBLAS entry points; other libraries are listed by name)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5] for parts in (line.split() for line in fh)
                            if len(parts) >= 6 and _is_blas(os.path.basename(parts[5]))})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, names, restype in (("threads", _BLAS_THREADS, ctypes.c_int),
                                    ("config", _BLAS_CONFIG, ctypes.c_char_p)):
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
        out.append(info)
    return out


def environment():
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads the BLAS that SuperLU uses)

    def vendor(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": vendor(numpy),
            "scipy": scipy.__version__, "scipy_blas": vendor(scipy),
            "blas_loaded": _blas_libraries(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _count_forward_solves(counts):
    """Count forward solves attempted and failed at ForwardContext.forward_pairs,
    which every forward solve of the pipeline passes through."""
    from fiberdialysis.inverse import ForwardContext

    inner = ForwardContext.forward_pairs

    def forward_pairs(self, pairs, use_warm=None):
        out = inner(self, pairs, use_warm)
        counts["attempted"] += len(out)
        counts["failed"] += sum(err is not None for _, err in out)
        return out

    ForwardContext.forward_pairs = forward_pairs


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from fiberdialysis import cli
    from fiberdialysis.config import RunConfig
    from fiberdialysis.inverse import context_from_profile
    t_imported = perf_counter()

    counts = {"attempted": 0, "failed": 0}
    _count_forward_solves(counts)
    tracer = None
    run_cli = cli.main
    if spec["trace_dir"]:
        import tracing
        tracer = tracing.Tracer(spec["trace_dir"])
        tracing.install(tracer)
        run_cli = tracer.wrap("cli", cli.main)

    out = {}
    if spec["phase"] == "setup":
        t0 = perf_counter()
        out["rc"] = run_cli(spec["argv"]) if spec["argv"] else 0
        t1 = perf_counter()
        cfg = RunConfig.load(spec["config"])
        context_from_profile(cfg.profile, jobs=int(cfg.options["jobs"]),
                             mesh_res=cfg.mesh_resolution()).close()
        t2 = perf_counter()
        out.update(imports_s=t_imported - spec["t_spawn"], targets_s=t1 - t0,
                   context_s=t2 - t1, setup_s=t2 - spec["t_spawn"])
    else:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        out["rc"] = run_cli(spec["argv"])
        t1 = perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        # pool workers are joined when the CLI closes its context, so their
        # usage is in RUSAGE_CHILDREN by now; ru_maxrss is in KiB on Linux
        ruc = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.update(wall_s=t1 - t0,
                   cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
                   + ruc.ru_utime + ruc.ru_stime,
                   peak_rss_mb=(ru1.ru_maxrss + ruc.ru_maxrss) / 1024.0,
                   **counts)
    if spec["env"]:
        out["env"] = environment()
    if tracer is not None:
        out["spans"] = tracer.gather()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
