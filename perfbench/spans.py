"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's public functions, from
the benchmark's side: every function named in ``LAYERS`` is replaced, under
every module-level name it is bound to inside the package, by a wrapper
that records (function, parent span, start, end).  Nothing in the package
itself is edited; leaving the ``Tracer`` context restores every binding.

A span's self time is its duration minus the durations of its direct child
spans.  The program is single-threaded, so children never overlap and their
sum is the part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer (package module) -> public functions whose calls are spanned
LAYERS = {
    "engine": ["run_proxyless", "run_proxy_cells", "run_compression"],
    "supergraph": ["graph_forward", "graph_backward", "arch_scalar_hessian",
                   "topo_order", "refresh_gammas", "entropy_prune_mask",
                   "propagate_dependency_prune", "insert_zero_gates"],
    "nn": ["forward", "backward", "energy", "energy_hessian"],
    "curvature": ["network_curvature", "propagate_curvature"],
    "updates": ["group_l2_penalty", "group_update", "update_posterior_variance",
                "structural_update", "make_groups"],
    "data": ["write_idx", "read_idx", "load_mnist_idx",
             "gen_synthetic_dag_task", "gen_two_cell_task"],
}

# (name, unit) of each per-function statistic
STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"),
         ("errors", "count"))

# plain counters: no span, one increment per call (or per input sample)
IN_EDGES_CALLS = "supergraph.SuperGraph.in_edges.calls"
FORWARD_SAMPLES = "nn.forward.samples"
COUNTERS = (IN_EDGES_CALLS, FORWARD_SAMPLES)

PACKAGE = "ardnet"


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Context manager that spans the ``LAYERS`` functions while active."""

    def __init__(self):
        self.names = span_names()
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._restore = []

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self):
        modules = self._modules()
        for idx, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            orig = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            wrapper = self._span_wrapper(orig, idx, count_samples=name == "nn.forward")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapper)
        graph_cls = sys.modules[f"{PACKAGE}.supergraph"].SuperGraph
        orig_in_edges = graph_cls.in_edges
        counters = self.counters

        @functools.wraps(orig_in_edges)
        def in_edges(*args, **kwargs):
            counters[IN_EDGES_CALLS] += 1
            return orig_in_edges(*args, **kwargs)

        self._restore.append((graph_cls, "in_edges", orig_in_edges))
        graph_cls.in_edges = in_edges
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def _span_wrapper(self, fn, idx, count_samples=False):
        stack, clock = self._stack, time.perf_counter
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        errors, counters = self.errors, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_samples:
                x = args[1] if len(args) > 1 else kwargs["x"]
                counters[FORWARD_SAMPLES] += int(np.shape(x)[0])
            sid = len(name_idx)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            start[sid] = t0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: ``{metric name: value}`` for every span name
        and counter, zero where nothing was called."""
        n = len(self.names)
        idx = np.asarray(self.name_idx, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(idx, minlength=n)
        total = np.bincount(idx, weights=dur, minlength=n)
        self_time = np.bincount(idx, weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_time[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.errors"] = int(self.errors[i])
        out.update(self.counters)
        return out

    def save(self, path):
        """Write every recorded span to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_idx=np.asarray(self.name_idx, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end))
