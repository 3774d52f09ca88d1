"""Self-test of the benchmark's own code; runs in a few seconds.

The workloads themselves take tens of seconds and are not run here.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from gauge import NOMINAL_S, Gauge
from spans import Tracer

from ardnet import curvature, data, nn
from ardnet import supergraph as sg

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.E2E_UNITS[name] for name in run.RESULT_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-search",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_spans_every_binding_and_restores_them():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(3, 4, activation="tanh", rng=rng), nn.fc_layer(4, 2, rng=rng)]
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    out, caches = nn.forward(net, x)
    nn.backward(net, caches, nn.energy(out, y)[1])
    orig = curvature.propagate_curvature
    tracer = Tracer()
    with tracer:
        assert sg.propagate_curvature is curvature.propagate_curvature is not orig
        curvature.network_curvature(net, caches, y, "mse", "diag")
        graph = sg.SuperGraph(3, [sg.Edge(0, 1, sg.make_op("identity")),
                                  sg.Edge(1, 2, sg.make_op("identity"))])
        graph.in_edges(2)
    assert sg.propagate_curvature is curvature.propagate_curvature is orig
    m = tracer.summary()
    assert m["curvature.network_curvature.calls"] == 1
    assert m["curvature.propagate_curvature.calls"] == 1
    assert m["nn.energy_hessian.calls"] == 1
    assert m["supergraph.topo_order.calls"] == 1  # from SuperGraph.__post_init__
    assert m["supergraph.SuperGraph.in_edges.calls"] == 1
    children = m["curvature.propagate_curvature.total_s"] + m["nn.energy_hessian.total_s"]
    assert m["curvature.network_curvature.self_s"] == pytest.approx(
        m["curvature.network_curvature.total_s"] - children)


def test_synthetic_idx_is_seeded_and_round_trips(tmp_path):
    a = workloads.synth_idx_arrays(3, 14, 40, 20, contrast=0.4, noise=80.0)
    b = workloads.synth_idx_arrays(3, 14, 40, 20, contrast=0.4, noise=80.0)
    c = workloads.synth_idx_arrays(4, 14, 40, 20, contrast=0.4, noise=80.0)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["x_train"], c["x_train"])
    for key, name in workloads.IDX_NAMES.items():
        data.write_idx(tmp_path / name, a[key])
    ds = data.load_mnist_idx(tmp_path)
    assert ds.x_train.shape == (40, 1, 14, 14) and ds.y_test.shape == (20,)


def test_compress_sample_is_checked_and_deterministic(tmp_path):
    tiny = workloads.Compress("tiny", "fc-196-64-32-10", side=14, contrast=0.4,
                              noise=80.0, n_train=64, n_test=32)
    (task,) = tiny.setup(tiny.prepare(0), str(tmp_path))
    first, second = tiny.run(task), tiny.run(task)
    assert first.ok and first.digest == second.digest
    assert first.train_samples == 64 and 0 < first.param_ratio <= 1


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)


class _Instant:
    """A workload whose samples take no time; the digest depends on the
    task, or on the call count where ``drift`` is set."""

    def __init__(self, drift=False):
        self.drift, self.calls = drift, 0

    def run(self, task, gauge=None):
        self.calls += 1
        digest = f"{task.seed}-{self.calls if self.drift else 0}"
        return workloads.Sample(task=task.seed, wall_s=0.0, raw_s=0.0, digest=digest)


def test_closed_loop_runs_every_task_and_repeats_the_first():
    tasks = [SimpleNamespace(seed=i) for i in range(3)]
    between = []
    samples = run.closed_loop(_Instant(), tasks, 1e-9, lambda: between.append(1))
    assert [s.task for s in samples] == [0, 1, 2, 0]
    assert len(between) == len(samples)


def test_a_changed_digest_fails_the_run():
    tasks = [SimpleNamespace(seed=0)]
    samples = run.closed_loop(_Instant(drift=True), tasks, 1e-9, lambda: None)
    run.check_digests(samples)
    correct, attempted, failed, _ = run.outcome(samples)
    assert (correct, attempted, failed) == (False, 2, 1)


@pytest.mark.parametrize("kernel", sorted(NOMINAL_S))
def test_gauge_rescales_by_the_tick_time_and_restores_the_handler(kernel):
    before = signal.getsignal(signal.SIGALRM)
    with Gauge(kernel) as gauge:
        assert signal.getsignal(signal.SIGALRM) == gauge._tick
        out, timing = gauge.measure(lambda: sum(range(10**6)))
        n = len(gauge.ticks)
    assert signal.getsignal(signal.SIGALRM) is before
    assert out == sum(range(10**6)) and n >= 50
    assert timing["wall_s"] == pytest.approx(
        timing["raw_s"] * NOMINAL_S[kernel] / timing["speed_s"])
    assert 0 < timing["raw_s"] < 5 and math.isfinite(timing["speed_s"])


def test_graph_search_draws_one_task_per_stratum_from_the_pool():
    strata = workloads.TASK_STRATA
    assert sorted(t for stratum in strata for t in stratum) == list(workloads.TASK_POOL)
    assert not set(workloads.TASK_POOL) & set(workloads.KNOWN_FAILING_TASKS)
    picks = workloads.GraphSearch().prepare(7)
    assert picks == workloads.GraphSearch().prepare(7)
    assert [p in stratum for p, stratum in zip(picks, strata)] == [True] * len(strata)
