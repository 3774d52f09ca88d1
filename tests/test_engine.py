"""Search, compression and retrain loops on small synthetic problems."""

import dataclasses
import json

import numpy as np
import pytest

from ardnet import data, engine, exports, nn
from ardnet import supergraph as sg
from ardnet.updates import SearchConfig


def small_config(**kw):
    base = dict(t_max=3, epochs_per_iteration=2, batch_size=32,
                learning_rate=0.01, lambda_w=0.01, hessian_mode="exact",
                retrain_epochs=0, seed=0)
    base.update(kw)
    return SearchConfig(**base)


def test_t_max_zero_returns_graph_unchanged():
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=32, n_test=16)
    before = [(e.w, e.s, e.gamma, e.alive) for e in graph.edges]
    n_edges = len(graph.edges)
    graph, run = engine.run_proxyless(graph, ds, small_config(t_max=0))
    after = [(e.w, e.s, e.gamma, e.alive) for e in graph.edges[:n_edges]]
    assert before == after
    assert run.history == []


def test_lambda_zero_limit_prunes_nothing():
    # tiny lambda_w approximates the unpenalized limit (the config requires a
    # positive value).  With every edge planted nothing pushes any w toward
    # zero, so the switches stay wide open and no edge is ever pruned.
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_edges=8, planted_size=8,
                                               n_train=64, n_test=16)
    n_edges = len(graph.edges)
    graph, run = engine.run_proxyless(graph, ds, small_config(lambda_w=1e-12))
    assert all(row["entropy_pruned"] == 0 for row in run.history)
    assert len([e for e in graph.edges[:n_edges] if e.alive]) == n_edges


def test_search_recovers_planted_edges_single_seed():
    graph, ds, planted = data.gen_synthetic_dag_task(0)
    cfg = data.dag_task_config(seed=0)
    graph, run = engine.run_proxyless(graph, ds, cfg)
    alive = {eid for eid in run.report["alive_edges"]
             if not graph.edges[eid].is_gate}
    assert alive == planted


def test_search_curvature_does_not_depend_on_hessian_mode():
    # hessian_mode selects the layer curvature of compress only: a graph
    # search always takes the Gauss-Newton edge rule
    runs = []
    for mode in ("approx", "exact"):
        graph, ds, planted = data.gen_synthetic_dag_task(0)
        cfg = dataclasses.replace(data.dag_task_config(seed=0), hessian_mode=mode)
        graph, run = engine.run_proxyless(graph, ds, cfg)
        runs.append((repr(run.history), repr(exports.arch_export(graph, cfg)["edges"])))
        alive = {eid for eid in run.report["alive_edges"]
                 if not graph.edges[eid].is_gate}
        assert alive == planted
    assert runs[0] == runs[1]


def test_history_rows_have_full_schema():
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=32, n_test=16)
    _, run = engine.run_proxyless(graph, ds, small_config())
    keys = {"iteration", "epoch", "loss", "test_error", "alive_edges",
            "gamma_min", "gamma_median", "entropy_pruned", "cascade_pruned"}
    assert run.history
    for row in run.history:
        assert keys <= set(row)


def test_group_validation_rejects_mixed_ops():
    from ardnet.updates import GroupSpec
    rng = np.random.default_rng(0)
    g = sg.SuperGraph(3, [
        sg.Edge(0, 1, sg.make_op("identity")),
        sg.Edge(1, 2, sg.make_op("fc", matrix=rng.normal(size=(2, 2)))),
    ])
    ds = data.Dataset(np.zeros((4, 2)), np.zeros((4, 2)),
                      np.zeros((2, 2)), np.zeros((2, 2)), kind="regression")
    groups = [GroupSpec(0, [0, 1])]
    with pytest.raises(ValueError, match="inconsistent group topology"):
        engine.run_proxy_cells(g, ds, small_config(t_max=1), groups)


def test_proxy_cells_tied_updates_bitwise_identical():
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(seed=0)
    trace = []
    engine.run_proxy_cells(graph, ds, cfg, groups, trace=trace)
    tied = [grp for grp in groups if grp.pattern == "cell_tied"]
    assert trace
    for snap in trace:
        for grp in tied:
            rows = [snap["edges"][eid] for eid in grp.members.tolist()]
            # (w, s, omega, alive) identical across the tied cells
            for other in rows[1:]:
                assert other[0] == rows[0][0]
                assert other[1] == rows[0][1]
                assert other[2] == rows[0][2]
                assert other[4] == rows[0][4]


def test_singleton_groups_reproduce_proxyless_trace():
    from ardnet.updates import GroupSpec
    cfg1 = small_config()
    cfg2 = small_config()
    g1, ds, _ = data.gen_synthetic_dag_task(3, n_train=64, n_test=16)
    g2, _, _ = data.gen_synthetic_dag_task(3, n_train=64, n_test=16)
    t1, t2 = [], []
    engine.run_proxyless(g1, ds, cfg1, trace=t1)
    sg.insert_zero_gates(g2)
    groups = [GroupSpec(i, [i]) for i in range(len(g2.edges))]
    engine.run_proxy_cells(g2, ds, cfg2, groups, trace=t2)
    assert len(t1) == len(t2)
    for s1, s2 in zip(t1, t2):
        assert s1["edges"] == s2["edges"]


def test_degenerate_prune_restores_widest_path():
    # huge sparsity pressure kills everything; the engine must revive a path
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=64, n_test=16)
    cfg = small_config(t_max=8, lambda_w=50.0, learning_rate=0.005)
    graph, run = engine.run_proxyless(graph, ds, cfg)
    if run.report.get("degenerate"):
        assert run.report["alive_edges"]
        out, _ = sg.graph_forward(graph, ds.x_test)
        assert np.all(np.isfinite(out))


def test_degenerate_cell_search_restores_before_evaluating():
    # on this task the first prune kills every slot; the widest path must be
    # revived before the iteration's test error is measured
    graph, ds, groups, _ = data.gen_two_cell_task(10)
    graph, run = engine.run_proxy_cells(graph, ds, data.two_cell_task_config(10), groups)
    assert run.report["degenerate"]
    assert run.report["alive_edges"]
    assert np.isfinite(run.report["final_test_error"])


def test_one_penalty_call_equals_per_group_calls():
    # the search penalty is one group_l2_penalty call over the alive edges;
    # it must equal, bitwise, one call per group with alive members
    from ardnet.updates import group_l2_penalty
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        for e in graph.edges:
            e.alive = bool(rng.random() < 0.6)
            e.w, e.omega = rng.normal(), rng.random()
        slots = engine._EdgeSlots(graph, groups, cfg, "mse")
        w = np.array([e.w for e in graph.edges])
        value, grad = group_l2_penalty(w, slots.alive, slots.group_of, slots.omega,
                                       cfg.lambda_w)
        ref_value, ref_grad = 0.0, {}
        for grp in groups:
            members = [eid for eid in grp.members.tolist() if graph.edges[eid].alive]
            if not members:
                continue
            v, g = group_l2_penalty([graph.edges[eid].w for eid in members],
                                    np.arange(len(members)), np.zeros(len(members), int),
                                    [graph.edges[members[0]].omega], cfg.lambda_w)
            ref_value += v
            ref_grad.update(zip(members, g))
        assert value == ref_value
        assert grad.tolist() == [ref_grad.get(eid, 0.0) for eid in range(len(w))]


def test_search_steps_its_w_array_and_update_writes_it_back():
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(0)
    slots = engine._EdgeSlots(graph, groups, cfg, "mse")
    before = [e.w for e in graph.edges]
    for start in range(0, 4 * cfg.batch_size, cfg.batch_size):
        idx = slice(start, start + cfg.batch_size)
        slots.train_batch(ds.x_train[idx], ds.y_train[idx])
    assert [e.w for e in graph.edges] == before
    assert not np.array_equal(slots.w, before)
    slots.update(ds.x_train[:cfg.curvature_batch], ds.y_train[:cfg.curvature_batch])
    assert [e.w for e in graph.edges] == slots.w.tolist()


def make_blob_task(seed=0, n=600, dim=10, informative=3, classes=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, informative)) * 3.0
    y = rng.integers(0, classes, n)
    x = np.zeros((n, dim))
    x[:, :informative] = centers[y] + rng.normal(size=(n, informative))
    x[:, informative:] = rng.normal(size=(n, dim - informative))
    split = int(0.8 * n)
    return data.Dataset(x[:split], y[:split], x[split:], y[split:], kind="labels")


def compression_setup(seed=0):
    rng = np.random.default_rng(seed)
    net = [nn.fc_layer(10, 16, "tanh", rng=rng),
           nn.fc_layer(16, 8, "tanh", rng=rng),
           nn.fc_layer(8, 4, "identity", rng=rng)]
    patterns = {0: ["row_and_column"], 1: ["row_and_column"], 2: ["column"]}
    return net, patterns


def test_compression_prunes_and_keeps_masks_zero():
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=15, epochs_per_iteration=3, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=10)
    net, run = engine.run_compression(net, ds, cfg, patterns)
    assert run.report["param_ratio"] < 1.0
    assert run.report["final_test_error"] < 0.5  # far better than chance
    for layer in net:
        if layer.mask is not None:
            assert np.all(layer.weights[layer.mask == 0] == 0.0)


def test_compression_lambda_zero_limit_prunes_nothing():
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=3, epochs_per_iteration=1, batch_size=50,
                       lambda_w=1e-12, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=0)
    net, run = engine.run_compression(net, ds, cfg, patterns)
    assert run.report["param_ratio"] == 1.0


def test_retrain_keeps_masked_weights_zero_and_helps():
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=6, epochs_per_iteration=2, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=0)
    net, run = engine.run_compression(net, ds, cfg, patterns)
    before = engine.evaluate(net, ds)
    cfg.retrain_epochs = 8
    after = engine.retrain_pruned(net, ds, cfg)
    assert after <= before + 0.05
    for layer in net:
        if layer.mask is not None:
            assert np.all(layer.weights[layer.mask == 0] == 0.0)


def test_two_patterns_of_a_layer_equal_their_combined_pattern():
    # row then column is the group list of row_and_column, in the same order,
    # so one layer with both patterns compresses bitwise like the combined one
    from ardnet.updates import make_groups
    split = make_groups((16, 10), "row") + make_groups((16, 10), "column")
    joint = make_groups((16, 10), "row_and_column")
    assert [g.members.tolist() for g in split] == [g.members.tolist() for g in joint]
    ds = make_blob_task()
    runs = []
    for patterns in ({0: ["row", "column"]}, {0: ["row_and_column"]}):
        cfg = SearchConfig(t_max=6, epochs_per_iteration=2, batch_size=50,
                           lambda_w=0.05, weight_decay=0.001, learning_rate=0.05,
                           seed=0, hessian_mode="approx", retrain_epochs=0)
        runs.append(engine.run_compression(compression_setup()[0], ds, cfg, patterns))
    (net1, run1), (net2, run2) = runs
    assert run1.report["param_ratio"] < 1.0  # the patterns pruned something
    for a, b in zip(net1, net2):
        assert np.array_equal(a.weights, b.weights)
        assert (a.mask is None) == (b.mask is None)
        assert a.mask is None or np.array_equal(a.mask, b.mask)
    assert json.dumps(run1.history) == json.dumps(run2.history)


@pytest.mark.parametrize("retrain_epochs", [0, 2])
def test_compression_runs_one_test_pass_per_model_state(monkeypatch, retrain_epochs):
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=4, epochs_per_iteration=1, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=retrain_epochs)
    predict, test_passes = nn.predict, []

    def counted(layers, x):
        if x is ds.x_test:
            test_passes.append(len(x))
        return predict(layers, x)

    monkeypatch.setattr(nn, "predict", counted)
    net, run = engine.run_compression(net, ds, cfg, patterns)
    # one pass per outer iteration and one per retrain epoch, none after
    assert len(test_passes) == len(run.history)
    assert len([row for row in run.history if row["iteration"] >= 1]) == cfg.t_max
    assert run.report["final_test_error"] == run.history[-1]["test_error"]
    monkeypatch.undo()
    assert run.report["final_test_error"] == engine.evaluate(net, ds)


def test_retrain_on_unpruned_net_is_ordinary_training():
    ds = make_blob_task()
    rng = np.random.default_rng(1)
    net = [nn.fc_layer(10, 8, "tanh", rng=rng), nn.fc_layer(8, 4, rng=rng)]
    cfg = SearchConfig(t_max=0, retrain_epochs=6, batch_size=50,
                       learning_rate=0.05, seed=0)
    before = engine.evaluate(net, ds)
    after = engine.retrain_pruned(net, ds, cfg)
    assert after < before


def test_surviving_widths_shapes():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 3, rng=rng)]
    net[0].mask = np.ones((3, 4))
    net[0].mask[:, 0] = 0.0
    net[0].mask[2, :] = 0.0
    assert engine.surviving_widths(net) == [(3, 2)]
