"""The three benchmark workloads, their seeded inputs, output checks and
layer-kind probes.

Every workload goes through the package's public entry points only.  A
workload's ``prepare(seed)`` makes the benchmark-side inputs from the seed;
``setup(raw, workdir)`` is the program-side set-up (task generation, IDX
write and read, model build) that ``setup_s`` times; ``run(task)`` makes the
workload's engine calls on fresh copies of one task's inputs, checks the
outputs and returns a ``Sample``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ardnet import curvature, data, engine, exports, models, nn

# ---------------------------------------------------------------------------
# results


class CheckFailed(Exception):
    """An engine call returned, but its output breaks an invariant."""


@dataclass
class Sample:
    """One closed-loop sample: the engine calls made for one task."""

    task: int                 # task seed
    wall_s: float = math.nan  # time of the engine calls alone, at the
                              # gauge's nominal host speed when gauged
    raw_s: float = math.nan   # their measured time, not rescaled
    speed_s: float = math.nan  # gauge tick time that rated the host's speed
    cpu_s: float = math.nan   # process CPU time (user + system) of those calls
    run_delay_s: float = math.nan  # time they waited for a CPU, when known
    train_samples: int = 0    # SGD samples processed by those calls
    digest: str = ""          # same-seed digest of the outputs
    test_error: float = math.nan
    support_errors: int | None = None
    param_ratio: float | None = None
    error: str | None = None  # set when the sample failed
    traceback: str | None = None  # of the exception, when one was raised
    wrong_output: bool = False  # failed a check, rather than raising

    @property
    def ok(self):
        return self.error is None


def _sgd_samples(run, n_train):
    iterations = sum(1 for row in run.history if row["iteration"] >= 1)
    return iterations * run.config.epochs_per_iteration * n_train


def _finite(value, what):
    if not np.all(np.isfinite(value)):
        raise CheckFailed(f"non-finite {what}")


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_delay_s():
    """Time this process has waited on a run queue, from the kernel's
    schedstat (NaN where the file is not there)."""
    try:
        with open("/proc/self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return math.nan


def _timed(fn, gauge=None):
    """``fn()`` and ``{"wall_s", "raw_s", "speed_s", "cpu_s",
    "run_delay_s"}`` of the call.  Without a gauge, ``wall_s`` is the raw
    time."""
    d0, c0 = _run_delay_s(), _cpu_s()
    if gauge is None:
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        timing = {"wall_s": raw, "raw_s": raw, "speed_s": math.nan}
    else:
        out, timing = gauge.measure(fn)
    c1, d1 = _cpu_s(), _run_delay_s()
    return out, dict(timing, cpu_s=c1 - c0, run_delay_s=d1 - d0)


def median_ms(fn, reps):
    """Median wall time of ``reps`` calls of ``fn``, in milliseconds."""
    return 1e3 * statistics.median(_timed(fn)[1]["wall_s"] for _ in range(reps))


def run_sample(workload, task, gauge=None):
    """Run one sample, turning an exception or a failed check into a
    failed ``Sample`` instead of ending the benchmark."""
    try:
        return workload.run(task, gauge)
    except Exception as err:  # a failed engine call is counted, not fatal
        return Sample(task=task.seed, error=f"{type(err).__name__}: {err}",
                      traceback=traceback.format_exc(),
                      wrong_output=isinstance(err, CheckFailed))


# ---------------------------------------------------------------------------
# graph-search


@dataclass
class SearchTask:
    seed: int
    dag: tuple      # (graph, dataset, planted edge ids)
    cells: tuple    # (graph, dataset, groups, planted slot ids)


# gen_two_cell_task has three candidate slots per cell, and its groups[slot]
# ties that slot across the cells
CELL_SLOTS = 3


# task seeds of 0-49 on which the search itself fails at the seed commit:
# run_proxyless or run_proxy_cells raises "output node receives no
# information flow" (10, 33, 40) or diverges with FloatingPointError (20,
# 26, 43).  The benchmark measures speed and must not fail, so its task
# pool leaves them out; the failures are a program defect of their own.
KNOWN_FAILING_TASKS = (10, 20, 26, 33, 40, 43)
TASK_POOL = tuple(t for t in range(50) if t not in KNOWN_FAILING_TASKS)
# TASK_POOL in quarters by the work of one sample at the seed commit,
# counted as the spans a traced sample records (204k-241k, 242k-271k,
# 274k-312k, 318k-376k): a run draws one task from each quarter, so its
# work differs little from seed to seed
TASK_STRATA = (
    (0, 1, 2, 9, 15, 22, 24, 29, 36, 38, 48),
    (5, 6, 7, 16, 17, 21, 35, 41, 42, 44, 47),
    (3, 8, 13, 14, 18, 19, 28, 30, 34, 45, 49),
    (4, 11, 12, 23, 25, 27, 31, 32, 37, 39, 46),
)


class GraphSearch:
    """Planted-DAG search (``run_proxyless``) then two-cell search
    (``run_proxy_cells``), each on the package's own synthetic task."""

    name = "graph-search"
    gauge_kernel = "matmul"

    def prepare(self, seed):
        """One task seed from each of TASK_STRATA, drawn by ``seed``."""
        rng = np.random.default_rng(seed)
        return [int(rng.choice(stratum)) for stratum in TASK_STRATA]

    def setup(self, task_seeds, workdir):
        return [SearchTask(ts, data.gen_synthetic_dag_task(ts), data.gen_two_cell_task(ts))
                for ts in task_seeds]

    def input_digest(self, tasks):
        h = hashlib.sha256()
        for task in tasks:
            for d in (task.dag[1], task.cells[1]):
                h.update(d.x_train.tobytes())
                h.update(d.y_train.tobytes())
        return h.hexdigest()[:16]

    def run(self, task, gauge=None):
        graph, dataset, planted = copy.deepcopy(task.dag)
        cgraph, cdata, groups, cplanted = copy.deepcopy(task.cells)
        cfg = data.dag_task_config(task.seed)
        ccfg = data.two_cell_task_config(task.seed)

        def calls():
            return (engine.run_proxyless(graph, dataset, cfg),
                    engine.run_proxy_cells(cgraph, cdata, ccfg, groups))

        ((graph, run), (cgraph, crun)), timing = _timed(calls, gauge)
        h = hashlib.sha256()
        for g, r, c in ((graph, run, cfg), (cgraph, crun, ccfg)):
            if r.report["degenerate"]:
                raise CheckFailed(f"{r.mode} search ended on a degenerate graph")
            if not r.report["alive_edges"]:
                raise CheckFailed(f"{r.mode} search left no alive edge")
            _finite(r.report["final_test_error"], f"{r.mode} test error")
            _finite([(e.w, e.s, e.gamma) for e in g.edges], f"{r.mode} edge state")
            h.update(json.dumps(exports.arch_export(g, c), sort_keys=True).encode())
            h.update(repr(r.report["final_test_error"]).encode())
        alive = {eid for eid in run.report["alive_edges"] if not graph.edges[eid].is_gate}
        alive_slots = {slot for slot in range(CELL_SLOTS)
                       if any(cgraph.edges[eid].alive for eid in groups[slot].members)}
        return Sample(
            task=task.seed, **timing,
            train_samples=(_sgd_samples(run, len(dataset.x_train))
                           + _sgd_samples(crun, len(cdata.x_train))),
            digest=h.hexdigest()[:16],
            test_error=(run.report["final_test_error"]
                        + crun.report["final_test_error"]) / 2,
            support_errors=len(alive ^ planted) + len(alive_slots ^ cplanted),
        )

    def probe(self, task):
        """fc forward/backward at the search batch on one frozen 6x6 op."""
        graph, dataset, _ = task.dag
        layer = graph.edges[0].op.layers[0]
        x = dataset.x_train[:data.dag_task_config().batch_size]
        return _layer_probe([layer], x, reps=200)


# ---------------------------------------------------------------------------
# synthetic IDX images


def synth_images(rng, n, templates, contrast, noise):
    """Class-template uint8 images: template of the label, scaled around
    mid-grey by ``contrast``, plus Gaussian pixel noise of std ``noise``."""
    labels = rng.integers(0, len(templates), n)
    x = 127.5 + contrast * 255.0 * (templates[labels] - 0.5)
    x = x + rng.normal(0.0, noise, x.shape)
    return np.clip(np.rint(x), 0, 255).astype(np.uint8), labels.astype(np.uint8)


IDX_NAMES = {
    "x_train": "train-images-idx3-ubyte",
    "y_train": "train-labels-idx1-ubyte",
    "x_test": "t10k-images-idx3-ubyte",
    "y_test": "t10k-labels-idx1-ubyte",
}


def synth_idx_arrays(seed, side, n_train, n_test, contrast, noise):
    """The four MNIST-layout arrays of one seeded synthetic task."""
    rng = np.random.default_rng(seed)
    templates = rng.random((10, side, side))
    x_train, y_train = synth_images(rng, n_train, templates, contrast, noise)
    x_test, y_test = synth_images(rng, n_test, templates, contrast, noise)
    return {"x_train": x_train, "y_train": y_train,
            "x_test": x_test, "y_test": y_test}


# ---------------------------------------------------------------------------
# compression workloads


@dataclass
class CompressTask:
    seed: int
    net: list
    dataset: data.Dataset
    config: object
    patterns: dict


@dataclass
class Compress:
    """One ``run_compression`` iteration on synthetic IDX data, retraining
    off.  ``side``, ``contrast`` and ``noise`` shape the images; the noise
    keeps ``test_error`` away from 0 on the seed commit."""

    name: str
    model: str           # "lenet5" or "fc-196-64-32-10"
    side: int
    contrast: float
    noise: float
    n_train: int = 1024
    n_test: int = 512
    config_overrides: dict = field(default_factory=dict)
    gauge_kernel: str = "matmul"

    def build_model(self, seed):
        if self.model == "lenet5":
            return models.build_model("lenet5", seed)
        rng = np.random.default_rng(seed)
        return [nn.flatten_layer(),
                nn.fc_layer(196, 64, activation="relu", rng=rng),
                nn.fc_layer(64, 32, activation="relu", rng=rng),
                nn.fc_layer(32, 10, activation="identity", rng=rng)]

    def prepare(self, seed):
        return seed, synth_idx_arrays(seed, self.side, self.n_train, self.n_test,
                                      self.contrast, self.noise)

    def setup(self, raw, workdir):
        seed, arrays = raw
        for key, name in IDX_NAMES.items():
            data.write_idx(os.path.join(workdir, name), arrays[key])
        dataset = data.load_mnist_idx(workdir)
        base = "lenet5" if self.model == "lenet5" else "lenet300-100"
        config = dataclasses.replace(models.mnist_compression_config(base, seed),
                                     **{"retrain_epochs": 0, "t_max": 1,
                                        **self.config_overrides})
        return [CompressTask(seed, self.build_model(seed), dataset, config,
                             models.default_patterns(base))]

    def input_digest(self, tasks):
        h = hashlib.sha256()
        for task in tasks:
            h.update(task.dataset.x_train.tobytes())
            h.update(task.dataset.y_test.tobytes())
            for layer in task.net:
                if layer.weights is not None:
                    h.update(layer.weights.tobytes())
        return h.hexdigest()[:16]

    def run(self, task, gauge=None):
        net = copy.deepcopy(task.net)
        (net, run), timing = _timed(
            lambda: engine.run_compression(net, task.dataset, task.config,
                                           task.patterns), gauge)
        report = run.report
        _finite(report["final_test_error"], "test error")
        ratio = report["param_ratio"]
        if not 0.0 < ratio <= 1.0:
            raise CheckFailed(f"param_ratio {ratio} outside (0, 1]")
        weighted = [layer for layer in net if layer.weights is not None]
        widths, alive, total = [], 0, 0
        h = hashlib.sha256()
        for layer in weighted:
            _finite(layer.weights, "weights")
            mask = layer.mask != 0
            if np.any(layer.weights[~mask] != 0):
                raise CheckFailed("a masked weight is nonzero")
            # fc (out, in) and conv (out, in, m, k): inputs used, outputs used
            rest = tuple(range(2, mask.ndim))
            widths.append((int(np.any(mask, axis=(0,) + rest).sum()),
                           int(np.any(mask, axis=(1,) + rest).sum())))
            alive += int(mask.sum())
            total += mask.size
            h.update(layer.weights.tobytes())
            if layer.bias is not None:
                h.update(layer.bias.tobytes())
        if [tuple(w) for w in report["widths"]] != widths:
            raise CheckFailed(f"widths {report['widths']} disagree with masks {widths}")
        if not math.isclose(ratio, alive / total):
            raise CheckFailed(f"param_ratio {ratio} disagrees with masks {alive / total}")
        record = exports.mask_export(net, task.config, report["widths"])
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(repr(report["final_test_error"]).encode())
        return Sample(task=task.seed, **timing,
                      train_samples=_sgd_samples(run, len(task.dataset.x_train)),
                      digest=h.hexdigest()[:16],
                      test_error=report["final_test_error"], param_ratio=ratio)

    def probe(self, task):
        """Per-layer forward/backward at the training batch, diag curvature
        per layer at batch 256 and, in exact mode, exact curvature per fc
        layer at the curvature batch."""
        net, dataset, cfg = task.net, task.dataset, task.config
        out = _layer_probe(net, dataset.x_train[:cfg.batch_size], reps=7)
        out.update(_curvature_probe(net, dataset, 256, "diag", reps=5))
        if cfg.hessian_mode == "exact":
            out.update(_curvature_probe(net, dataset, cfg.curvature_batch,
                                        "exact", reps=1))
        return out


WORKLOADS = {
    w.name: w for w in (
        GraphSearch(),
        Compress("compress-lenet5", "lenet5", side=28, contrast=1.0, noise=80.0),
        # eight iterations of two curvature samples, rather than one of
        # sixteen, let the gauge tick between the exact recursion's einsum
        # calls, during which no signal handler runs
        Compress("compress-fc-exact", "fc-196-64-32-10", side=14, contrast=0.4,
                 noise=80.0, config_overrides={"hessian_mode": "exact",
                                               "curvature_batch": 2, "t_max": 8},
                 gauge_kernel="einsum"),
    )
}


# ---------------------------------------------------------------------------
# layer-kind probes (untraced, through public nn / curvature calls)

PROBE_KINDS = ("conv2d", "maxpool2d", "fc")
PROBE_METRICS = (
    [f"nn.{kind}.{d}_ms" for kind in PROBE_KINDS for d in ("fwd", "bwd")]
    + [f"curvature.diag.{kind}_ms" for kind in PROBE_KINDS]
    + ["curvature.exact.fc_ms"]
)


def _layer_probe(net, x, reps):
    """Forward and backward time of every layer on its own input.

    Returns ``{"rows": [(index, kind, fwd_ms, bwd_ms)], metric: ms}`` with the
    per-kind metrics summed over the layers of that kind."""
    rng = np.random.default_rng(0)
    rows, out = [], {}
    for idx, layer in enumerate(net):
        fwd = median_ms(lambda: nn.forward([layer], x), reps)
        y, caches = nn.forward([layer], x)
        g = rng.normal(size=y.shape)
        bwd = median_ms(lambda: nn.backward([layer], caches, g), reps)
        rows.append((idx, layer.kind, fwd, bwd))
        if layer.kind in PROBE_KINDS:
            out[f"nn.{layer.kind}.fwd_ms"] = out.get(f"nn.{layer.kind}.fwd_ms", 0.0) + fwd
            out[f"nn.{layer.kind}.bwd_ms"] = out.get(f"nn.{layer.kind}.bwd_ms", 0.0) + bwd
        x = y
    out["rows"] = rows
    return out


def _curvature_probe(net, dataset, batch, mode, reps):
    """Time ``propagate_curvature`` layer by layer, top down, each layer
    seeded with the curvature the full recursion feeds it.

    Also times the whole ``network_curvature`` call as ``<mode>_total_ms``."""
    x, y = dataset.x_train[:batch], dataset.y_train[:batch]
    out_x, caches = nn.forward(net, x)
    _, grad = nn.energy(out_x, y, "softmax_ce")
    nn.backward(net, caches, grad)
    results = []
    total = median_ms(lambda: results.append(
        curvature.network_curvature(net, caches, y, "softmax_ce", mode)), reps)
    result = results[-1]
    h = nn.energy_hessian(out_x, y, "softmax_ce", mode)
    out = {f"{mode}_total_ms": total}
    for idx in range(len(net) - 1, -1, -1):
        layer, cache = net[idx], caches[idx]
        if mode == "exact" and layer.kind == "fc" and idx + 1 < len(net):
            # the full output curvature of layer idx is the input curvature
            # of the fc layer above it: W^T H_pre W per sample
            w = net[idx + 1].masked_weights()
            h = np.matmul(np.matmul(w.T, result.preact[idx + 1]), w)
        if layer.kind in PROBE_KINDS and (mode == "diag" or layer.kind == "fc"):
            key = f"curvature.{mode}.{layer.kind}_ms"
            out[key] = out.get(key, 0.0) + median_ms(
                lambda: curvature.propagate_curvature([layer], [cache], h, mode), reps)
        if mode == "diag":
            _, h = curvature.propagate_curvature([layer], [cache], h, mode)
    return out
