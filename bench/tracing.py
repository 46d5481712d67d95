"""Span tracing of the pipeline's layers, installed from outside the package.

``install`` replaces each timed public call by a wrapper at the place where
its caller looks it up (module globals of the importing module, or the class
attribute for methods), so ``src/`` stays untouched.  Every call becomes one
span: name, start, end, parent span and process id.  Spans are kept in
memory; forked pool workers inherit the wrappers and append their spans to
``<trace_dir>/spans-<pid>.jsonl`` whenever a worker-side span tree closes,
so the main process can gather them after the pool has shut down.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from time import perf_counter


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._pid = os.getpid()
        self._root_pid = self._pid

    def _after_fork(self):
        # a forked worker starts with a copy of the parent's spans and stack
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds
        counts taken from the call's arguments and result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._pid != os.getpid():
                self._after_fork()
            span = {"name": name, "id": self._next_id, "pid": self._pid,
                    "parent": self._stack[-1] if self._stack else None}
            self._next_id += 1
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, out))
            if not self._stack and self._pid != self._root_pid:
                self._flush_worker()
            return out
        return traced

    def _flush_worker(self):
        path = os.path.join(self.trace_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def gather(self):
        """This process's spans plus every span flushed by a worker."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def _solve_attrs(args, out):
    return {"newton_steps": out[1].n_solves}


def _lu_attrs(args, out):
    A = args[0]
    return {"nnz": int(A.nnz), "dofs": int(A.n)}


def _evals_attrs(args, out):
    return {"evals": int(out.n_evals)}


def _pairs_attrs(args, out):
    return {"tasks": len(args[1]), "failed": sum(err is not None for _, err in out)}


def _task_attrs(args, out):
    # computed from array sizes: one float64 warm field each way
    c0_flat, flat = args[0][2], out[1]
    return {"bytes_in": 8 * len(c0_flat) if c0_flat is not None else 0,
            "bytes_out": 8 * len(flat) if flat is not None else 0}


def install(tracer: Tracer):
    """Wrap the timed calls; must run before any process pool is created."""
    from fiberdialysis import cli, flow, inverse, transport

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    patch(inverse, "build_structured_mesh", "mesh.build")
    patch(inverse, "compute_velocity_field", "flow.velocity")
    patch(inverse, "calibrate_hydraulics", "flow.calibrate")
    patch(inverse, "outlet_concentration", "transport.outlet")
    patch(inverse, "powell_minimize", "optim", _evals_attrs)
    patch(inverse, "grid_search", "optim", _evals_attrs)
    patch(inverse, "multi_patient_cost", "inverse.cost")
    patch(inverse, "_worker_forward", "inverse.pool.task", _task_attrs)
    patch(inverse.ForwardContext, "forward_pairs", "inverse.forward_pairs", _pairs_attrs)
    patch(transport, "solve_linear", "linalg.solve_linear", _lu_attrs)
    patch(flow, "solve_linear", "linalg.solve_linear", _lu_attrs)
    patch(transport.TransportSolver, "__init__", "transport.assemble")
    patch(transport.TransportSolver, "jacobian", "transport.jacobian")
    patch(transport.TransportSolver, "solve", "transport.solve", _solve_attrs)
    patch(cli, "make_reference_targets", "cohort.targets")


# -- per-layer metrics -------------------------------------------------------------

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("mesh.build.busy_s", "s", "lower"),
    ("flow.velocity.calls", "count", "lower"),
    ("flow.velocity.busy_s", "s", "lower"),
    ("flow.calibrate.calls", "count", "lower"),
    ("flow.calibrate.busy_s", "s", "lower"),
    ("transport.assemble.calls", "count", "lower"),
    ("transport.assemble.busy_s", "s", "lower"),
    ("transport.jacobian.calls", "count", "lower"),
    ("transport.jacobian.busy_s", "s", "lower"),
    ("transport.solve.calls", "count", "lower"),
    ("transport.newton_steps", "count", "lower"),
    ("transport.solve.self_s", "s", "lower"),
    ("transport.outlet.calls", "count", "lower"),
    ("transport.outlet.busy_s", "s", "lower"),
    ("linalg.solve_linear.calls", "count", "lower"),
    ("linalg.solve_linear.busy_s", "s", "lower"),
    ("linalg.share", "frac", "lower"),
    ("linalg.matrix_nnz", "count", "lower"),
    ("linalg.dofs", "count", "lower"),
    ("optim.evals", "count", "lower"),
    ("optim.self_s", "s", "lower"),
    ("inverse.cost.calls", "count", "lower"),
    ("inverse.cost.busy_s", "s", "lower"),
    ("inverse.cost_cache_hit_ratio", "frac", "higher"),
    ("inverse.forward_pairs.calls", "count", "lower"),
    ("inverse.forward_pairs.tasks", "count", "lower"),
    ("inverse.forward_pairs.busy_s", "s", "lower"),
    ("inverse.pool.worker_busy_s", "s", "lower"),
    ("inverse.pool.efficiency", "frac", "higher"),
    ("inverse.pool.bytes_computed", "B", "lower"),
    ("inverse.pool.speedup", "x", "higher"),
    ("cohort.targets.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("failed_frac", "frac", "lower"),
]

# layers that the set-up phase runs; their metrics add the traced set-up's spans
SETUP_LAYERS = ("mesh.build", "flow.calibrate", "cohort.targets")


class _Layer:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.spans = []


def _layers(spans):
    """Span name -> _Layer with its calls, busy and self seconds."""
    dur, covered = {}, {}
    for s in spans:
        dur[s["pid"], s["id"]] = s["end"] - s["start"]
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            covered[key] = covered.get(key, 0.0) + dur[s["pid"], s["id"]]
    out = {}
    for s in spans:
        key = (s["pid"], s["id"])
        layer = out.setdefault(s["name"], _Layer())
        layer.calls += 1
        layer.busy += dur[key]
        layer.self_s += dur[key] - covered.get(key, 0.0)
        layer.spans.append(s)
    return out


def layer_metrics(setup_spans, job_spans, *, jobs, traced_wall_s, untraced_wall_s,
                  speedup, failed_frac):
    """Per-layer metrics of one traced run, as {name: value}.

    Counts and times come from the traced job (main process plus pool
    workers); the layers in SETUP_LAYERS also add the traced set-up.
    """
    job = _layers(job_spans)
    setup = _layers(setup_spans)
    for name in SETUP_LAYERS:
        if name in setup:
            merged = job.setdefault(name, _Layer())
            merged.calls += setup[name].calls
            merged.busy += setup[name].busy

    def get(name):
        return job.get(name, _Layer())

    def attr_sum(name, key):
        return sum(s[key] for s in get(name).spans)

    lu = get("linalg.solve_linear").spans
    evals = attr_sum("optim", "evals")
    worker_busy = get("inverse.pool.task").busy
    pairs_busy = get("inverse.forward_pairs").busy
    return {
        "mesh.build.busy_s": get("mesh.build").busy,
        "flow.velocity.calls": get("flow.velocity").calls,
        "flow.velocity.busy_s": get("flow.velocity").busy,
        "flow.calibrate.calls": get("flow.calibrate").calls,
        "flow.calibrate.busy_s": get("flow.calibrate").busy,
        "transport.assemble.calls": get("transport.assemble").calls,
        "transport.assemble.busy_s": get("transport.assemble").busy,
        "transport.jacobian.calls": get("transport.jacobian").calls,
        "transport.jacobian.busy_s": get("transport.jacobian").busy,
        "transport.solve.calls": get("transport.solve").calls,
        "transport.newton_steps": attr_sum("transport.solve", "newton_steps"),
        "transport.solve.self_s": get("transport.solve").self_s,
        "transport.outlet.calls": get("transport.outlet").calls,
        "transport.outlet.busy_s": get("transport.outlet").busy,
        "linalg.solve_linear.calls": get("linalg.solve_linear").calls,
        "linalg.solve_linear.busy_s": get("linalg.solve_linear").busy,
        "linalg.share": get("linalg.solve_linear").busy / (jobs * traced_wall_s),
        "linalg.matrix_nnz": max((s["nnz"] for s in lu), default=0),
        "linalg.dofs": max((s["dofs"] for s in lu), default=0),
        "optim.evals": evals,
        "optim.self_s": get("optim").self_s,
        "inverse.cost.calls": get("inverse.cost").calls,
        "inverse.cost.busy_s": get("inverse.cost").busy,
        "inverse.cost_cache_hit_ratio":
            1.0 - get("inverse.cost").calls / evals if evals else 0.0,
        "inverse.forward_pairs.calls": get("inverse.forward_pairs").calls,
        "inverse.forward_pairs.tasks": attr_sum("inverse.forward_pairs", "tasks"),
        "inverse.forward_pairs.busy_s": pairs_busy,
        "inverse.pool.worker_busy_s": worker_busy,
        "inverse.pool.efficiency":
            worker_busy / (jobs * pairs_busy) if worker_busy else 0.0,
        "inverse.pool.bytes_computed":
            attr_sum("inverse.pool.task", "bytes_in") + attr_sum("inverse.pool.task", "bytes_out"),
        "inverse.pool.speedup": speedup,
        "cohort.targets.busy_s": get("cohort.targets").busy,
        "cli.self_s": get("cli").self_s,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "failed_frac": failed_frac,
    }
