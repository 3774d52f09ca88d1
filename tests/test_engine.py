"""Search, compression and retrain loops on small synthetic problems."""

import copy
import dataclasses
import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

from ardnet import data, engine, exports, nn, updates
from ardnet import supergraph as sg
from ardnet.curvature import network_curvature
from ardnet.updates import (GroupSpec, SearchConfig, group_l2_penalty, slab_l2_penalty,
                            slab_penalty_terms, structural_update)
from oracles import allocating_step_layers, momentum_step


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


def test_sgd_epoch_holds_a_batch_not_a_shuffled_training_set():
    # each batch gathers its own rows, so an epoch over a large training set
    # holds far less than a second copy of it
    rng = np.random.default_rng(0)
    ds = data.Dataset(rng.normal(size=(4096, 64)), rng.normal(size=(4096, 2)),
                      np.zeros((1, 64)), np.zeros((1, 2)), kind="regression")
    seen = []

    def step(x, y):
        seen.append(len(x))
        return 0.0

    tracemalloc.start()
    try:
        engine._sgd_epoch(step, ds, 16, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [16] * 256
    assert peak < ds.x_train.nbytes / 8
    # the generated graph epoch gathers its batches the same way; its loop
    # is built before tracing, by a first epoch
    mats = [rng.normal(size=shape) / 8 for shape in ((8, 64), (2, 8), (2, 64))]
    graph = sg.SuperGraph(3, [sg.Edge(0, 1, sg.make_op("fc", matrix=mats[0])),
                              sg.Edge(1, 2, sg.make_op("fc", matrix=mats[1])),
                              sg.Edge(0, 2, sg.make_op("fc", matrix=mats[2]))])
    slots = engine._EdgeSlots(graph, [GroupSpec(eid, [eid]) for eid in range(3)],
                              small_config(learning_rate=1e-4), "mse")
    slots.epoch(ds, 16, np.random.default_rng(0))
    tracemalloc.start()
    try:
        slots.epoch(ds, 16, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.x_train.nbytes / 8


def test_severing_prune_rolls_back_and_stops():
    # gamma 0 on every edge would prune the output off the graph: the prune
    # is undone, and the slots report it so that the run stops
    from ardnet.updates import GroupSpec
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=64, n_test=16)
    sg.insert_zero_gates(graph)
    groups = [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
    slots = engine._EdgeSlots(graph, groups, small_config(), "mse")
    graph.alive[1] = False
    slots._gather()
    before, members = graph.alive.copy(), slots.alive.copy()
    graph.gamma[:] = 0.0
    assert slots.prune() == (0, 0, True)
    assert graph.degenerate
    assert np.array_equal(graph.alive, before) and np.array_equal(slots.alive, members)
    out, _ = sg.graph_forward(graph, ds.x_test)
    assert np.all(np.isfinite(out))


def test_severing_cell_prune_rolls_back_before_evaluating():
    # a prune threshold above every gamma makes the first prune kill every
    # edge; it is rolled back before the iteration's test error is measured,
    # and the run stops there
    graph, ds, groups, _ = data.gen_two_cell_task(10)
    cfg = dataclasses.replace(data.two_cell_task_config(10), prune_threshold=1e9)
    graph, run = engine.run_proxy_cells(graph, ds, cfg, groups)
    assert run.report["degenerate"] and "restored_path" not in run.report
    assert len(run.history) == 1
    row = run.history[0]
    assert (row["entropy_pruned"], row["cascade_pruned"]) == (0, 0)
    assert run.report["alive_edges"] == list(range(len(graph.ops)))  # alive before the prune
    assert np.isfinite(run.report["final_test_error"])
    assert run.report["final_test_error"] == engine.evaluate(graph, ds, cfg.batch_size)


def penalty_terms(slots):
    """lambda_w * omega per group and per member: what group_l2_penalty reads."""
    return slots.coef, slots.coef[slots.group_of]


def generated_penalty(groups, w, coef):
    """The value and the member gradients that the search loop's scalar
    step forms, for the member edge ids `groups` (one list per group), the
    scalars w (edge id -> value) and lambda_w * omega per group."""
    scope = {"sqrt": math.sqrt, "m": 0.0, "lr": 0.0}
    members = [eid for grp in groups for eid in grp]
    scope.update({f"w{eid}": float(w[eid]) for eid in members})
    scope.update({f"v{eid}": 0.0 for eid in members})
    scope.update({f"k{gi}": float(c) for gi, c in enumerate(coef)})
    exec("\n".join(engine._scalar_source(groups, {})), scope)
    return scope["pen"], [scope[f"p{eid}"] for eid in members]


def test_one_penalty_call_equals_per_group_calls():
    # the search penalty is one group_l2_penalty call over the alive edges,
    # on the terms gathered with them; it must equal, bitwise, one call per
    # group with alive members, and so must the search loop's generated one
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(0)
    rng = np.random.default_rng(0)
    w, omega = graph.w, np.zeros(len(graph.ops))
    for _ in range(200):
        for eid in range(len(graph.ops)):
            graph.alive[eid] = rng.random() < 0.6
            w[eid], omega[eid] = rng.normal(), rng.random()
        # the members of a slots object only shrink, so each draw gets its own
        slots = engine._EdgeSlots(graph, groups, cfg, "mse")
        slots.omega[:] = omega
        slots._gather()
        value, grad = group_l2_penalty(w[slots.alive], slots.group_of, penalty_terms(slots))
        ref_value, ref_grad = 0.0, {}
        for grp in groups:
            members = [eid for eid in grp.members.tolist() if graph.alive[eid]]
            if not members:
                continue
            one, coef = np.zeros(len(members), int), cfg.lambda_w * omega[members[:1]]
            v, g = group_l2_penalty(w[members], one, (coef, coef[one]))
            ref_value += v
            ref_grad.update(zip(members, g))
        assert value == ref_value
        assert grad.tolist() == [ref_grad[eid] for eid in slots.alive.tolist()]
        members = [[] for _ in slots.coef]
        for eid, gi in zip(slots.alive.tolist(), slots.group_of.tolist()):
            members[gi].append(eid)
        assert generated_penalty(members, w, slots.coef) == (value, grad.tolist())


@pytest.mark.parametrize("members, w", [
    ([[0]], [0.7]), ([[0]], [0.0]), ([[0]], [-0.0]), ([[0, 1]], [0.3, -0.4]),
    ([[0, 1], [2], [3, 4]], [0.0, 0.0, -1.5, 2.0, 1e-170]),
    ([[0], [1, 2]], [1e200, 1e200, -1e200]),
], ids=["one", "zero", "minus-zero", "two", "mixed-zero-norm", "overflowing-norm"])
def test_generated_penalty_equals_group_l2_penalty(members, w):
    coef = np.array([0.01, 0.3, 2.5][:len(members)])
    group = np.repeat(np.arange(len(members)), [len(grp) for grp in members])
    with np.errstate(over="ignore"):
        value, grad = group_l2_penalty(np.array(w), group, (coef, coef[group]))
    got_value, got_grad = generated_penalty(members, w, coef)
    assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
    assert np.array(got_grad).tobytes() == grad.tobytes()


def test_generated_penalty_adds_many_groups_in_order():
    # 1 to 300 one-member groups, with magnitudes that make every order of
    # additions give other bits: the loop's penalty and group_l2_penalty's
    # both add the group terms to 0.0 in group order
    rng = np.random.default_rng(0)
    reordered = 0
    for n in range(1, 301):
        w = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        coef = rng.uniform(0.5, 1.5, size=n)
        value, _ = group_l2_penalty(w, np.arange(n), (coef, coef))
        in_order = functools.reduce(operator.add, (coef * np.abs(w)).tolist(), 0.0)
        got, _ = generated_penalty([[eid] for eid in range(n)], w, coef)
        assert np.float64(got).tobytes() == np.float64(value).tobytes(), n
        assert np.float64(got).tobytes() == np.float64(in_order).tobytes(), n
        reordered += np.sum(coef * np.abs(w)) != in_order
    assert reordered  # np.sum's pairwise order would tell the two apart


def test_search_trains_the_graph_w_in_place():
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(0)
    slots = engine._EdgeSlots(graph, groups, cfg, "mse")
    w = graph.w
    before = w.copy()
    for start in range(0, 4 * cfg.batch_size, cfg.batch_size):
        idx = slice(start, start + cfg.batch_size)
        slots.train_batch(ds.x_train[idx], ds.y_train[idx])
    assert graph.w is w and not np.array_equal(w, before)
    assert [e.w for e in graph.edges] == w.tolist()


def reference_search_batch(slots, velocity, x, y):
    """The search step composed over edge ids: gather w[alive], call
    `group_l2_penalty`, tie the gradient with a bincount, zero the velocity
    of every member whose velocity points uphill (grad * v > 0), take
    `momentum_step` on an edge-id velocity and scatter both back."""
    graph, config, alive, group = slots.model, slots.config, slots.alive, slots.group_of
    w = graph.w
    out, gcache = sg.graph_forward(graph, x)
    loss, e_grad = nn.energy(out, y, slots.kind)
    wm = w[alive]
    pen, pen_grad = group_l2_penalty(wm, group, penalty_terms(slots))
    w_grads, _ = sg.graph_backward(graph, gcache, e_grad)
    grad = np.bincount(group, weights=w_grads[alive] + pen_grad)[group]
    vel = velocity[alive]
    vel[grad * vel > 0] = 0.0
    w[alive], velocity[alive] = momentum_step(wm, grad, vel,
                                              config.learning_rate, config.momentum)
    return loss + pen


@pytest.mark.parametrize("task, write", [
    ("proxyless", None), ("tied cells", None), ("proxyless", "alive"), ("proxyless", "weights"),
], ids=["proxyless", "tied cells", "alive written", "weights replaced"])
def test_lean_search_step_matches_the_edge_id_composition(task, write):
    # two iterations of the epochs that _alternate runs, so the second
    # trains on the compact state that an update refreshed and a prune cut;
    # every epoch's loss, graph.w and the velocity after it are compared
    # with the reference batch by batch, and the prunes must agree.  With
    # write, both graphs get a direct write before an epoch: edge 0 killed
    # in the first iteration (the loop must rebuild, as the plan does), or
    # the first alive fc edge's weights replaced in the second (it must
    # read them)
    if task == "proxyless":
        graph, ds, _ = data.gen_synthetic_dag_task(0)
        cfg, groups = data.dag_task_config(0), None
    else:
        graph, ds, groups, _ = data.gen_two_cell_task(0)
        cfg = data.two_cell_task_config(0)
    cfg = dataclasses.replace(cfg, epochs_per_iteration=10)
    if not graph.gate_map:
        sg.insert_zero_gates(graph)
    groups = groups or [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
    lean, ref = (engine._EdgeSlots(copy.deepcopy(graph), groups, cfg, "mse") for _ in range(2))
    velocity = np.zeros(len(graph.ops))
    rng, n, kills = np.random.default_rng(0), len(ds.x_train), []
    write_at = {"alive": (0, 5), "weights": (1, 5)}.get(write)
    for it in range(2):
        for epoch in range(cfg.epochs_per_iteration):
            if (it, epoch) == write_at and write == "alive":
                for slots in (lean, ref):
                    slots.model.alive[0] = False
            elif (it, epoch) == write_at:
                eid = next(eid for eid in lean.model.alive_edge_ids()
                           if lean.model.ops[eid].tag == "fc")
                for slots in (lean, ref):
                    layer = slots.model.ops[eid].layers[0]
                    layer.weights = 0.9 * layer.weights
            perm = copy.deepcopy(rng).permutation(n)
            loss = lean.epoch(ds, cfg.batch_size, rng)
            losses = [reference_search_batch(ref, velocity, ds.x_train[idx], ds.y_train[idx])
                      for idx in np.split(perm, range(cfg.batch_size, n, cfg.batch_size))]
            assert loss == engine._epoch_loss(losses)
            assert lean.model.w.tobytes() == ref.model.w.tobytes()
            assert lean.v.tobytes() == velocity[lean.alive].tobytes()
        idx = rng.choice(n, size=cfg.curvature_batch, replace=False)
        for slots in (lean, ref):
            slots.update(ds.x_train[idx], ds.y_train[idx])
        kills.append(lean.prune())
        assert ref.prune() == kills[-1]
        for name in ("w", "s", "gamma", "alive"):
            assert getattr(lean.model, name).tobytes() == getattr(ref.model, name).tobytes()
        assert lean.omega.tobytes() == ref.omega.tobytes()
    assert sum(kills[0][:2]) > 0 and not kills[0][2]


def labelled(ds):
    """The task's inputs, labelled by the argmax of their regression targets."""
    return data.Dataset(ds.x_train, np.argmax(ds.y_train, axis=1), ds.x_test,
                        np.argmax(ds.y_test, axis=1), kind="labels")


@pytest.mark.parametrize("task", ["proxyless", "tied cells", "labels", "500 rows"])
def test_generated_epoch_matches_the_reference_batch_by_batch(task):
    # one epoch of the generated loop against reference_search_batch: every
    # batch loss, graph.w and the velocity, bit for bit.  500 rows end in a
    # partial batch, which takes a product buffer of its own
    groups = None
    if task == "tied cells":
        graph, ds, groups, _ = data.gen_two_cell_task(0)
        cfg = data.two_cell_task_config(0)
    else:
        graph, ds, _ = data.gen_synthetic_dag_task(0)
        cfg = data.dag_task_config(0)
        sg.insert_zero_gates(graph)
    if task == "labels":
        ds = labelled(ds)
    elif task == "500 rows":
        ds = dataclasses.replace(ds, x_train=ds.x_train[:500], y_train=ds.y_train[:500])
    kind = engine._energy_kind(ds)
    groups = groups or [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
    lean, ref = (engine._EdgeSlots(copy.deepcopy(graph), groups, cfg, kind) for _ in range(2))
    velocity = np.zeros(len(graph.ops))
    for seed in range(2):  # the second epoch starts from a nonzero velocity
        perm = np.random.default_rng(seed).permutation(len(ds.x_train))
        losses = lean._train(ds.x_train, ds.y_train, perm, cfg.batch_size)
        batches = np.split(perm, range(cfg.batch_size, len(perm), cfg.batch_size))
        assert len(losses) == len(batches)
        for got, idx in zip(losses, batches):
            assert got == reference_search_batch(ref, velocity, ds.x_train[idx], ds.y_train[idx])
        assert lean.model.w.tobytes() == ref.model.w.tobytes()
        assert lean.v.tobytes() == velocity[lean.alive].tobytes()
    if task == "500 rows":
        assert sorted(lean.loop.__globals__["prods"]) == [(20, 6), (32, 6)]


def test_seed_0_dag_task_trains_without_overflow_on_any_batch_order():
    # plain momentum overshot on some orders of these batches (9 of these
    # 60 runs overflowed an fc edge in their first epochs); restarting a
    # velocity that points uphill keeps every run finite
    graph, ds, _ = data.gen_synthetic_dag_task(0)
    sg.insert_zero_gates(graph)
    groups = [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
    cfg = data.dag_task_config(0)
    for rows in (500, 512):
        part = dataclasses.replace(ds, x_train=ds.x_train[:rows], y_train=ds.y_train[:rows])
        for seed in range(30):
            slots = engine._EdgeSlots(copy.deepcopy(graph), groups, cfg, "mse")
            rng = np.random.default_rng(seed)
            for _ in range(3):
                assert np.isfinite(slots.epoch(part, cfg.batch_size, rng))


def test_an_overflow_leaves_the_state_of_the_last_completed_batch():
    # batch 3 of 5 holds rows that overflow an fc edge: the loop raises the
    # walk's error and leaves graph.w and the velocity as after batch 2
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=160)
    sg.insert_zero_gates(graph)
    groups = [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
    cfg = data.dag_task_config(0)
    x = ds.x_train.copy()
    x[64:96] = 1e308
    failing, done = (engine._EdgeSlots(copy.deepcopy(graph), groups, cfg, "mse")
                     for _ in range(2))
    perm = np.arange(len(x))
    done._train(x, ds.y_train, perm[:64], cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"^non-finite output of edge \d+ \(fc\)$") as raised:
        failing._train(x, ds.y_train, perm, cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as walk:
        sg.graph_forward(failing.model, x[64:96])
    assert str(raised.value) == str(walk.value)
    assert failing.model.w.tobytes() == done.model.w.tobytes()
    assert failing.v.tobytes() == done.v.tobytes() and failing.v.any()


def test_train_batch_builds_no_edge_record(monkeypatch):
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(0)
    slots = engine._EdgeSlots(graph, groups, cfg, "mse")
    built, init = [], sg.Edge.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sg.Edge, "__init__", counting_init)
    for start in range(0, 4 * cfg.batch_size, cfg.batch_size):
        idx = slice(start, start + cfg.batch_size)
        slots.train_batch(ds.x_train[idx], ds.y_train[idx])
    assert len(built) == 0
    assert len(graph.edges) == len(built) == len(graph.ops)  # the count sees records


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


def test_search_iterations_end_on_a_plateau_and_compression_runs_every_epoch(monkeypatch):
    # a graph search ends an iteration's epochs after the first one whose
    # loss fell by less than EPOCH_TOL of the one before (a rise included),
    # and its row records the epochs run; compression runs the configured
    # epochs every iteration
    graph, ds, _ = data.gen_synthetic_dag_task(0)
    cfg = data.dag_task_config(0)
    losses = []
    epoch = engine._EdgeSlots.epoch

    def recorded(self, *args):
        losses.append(epoch(self, *args))
        return losses[-1]

    monkeypatch.setattr(engine._EdgeSlots, "epoch", recorded)
    _, run = engine.run_proxyless(graph, ds, cfg)
    epochs = [row["epoch"] for row in run.history]
    assert len(epochs) == cfg.t_max and sum(epochs) == len(losses)
    assert all(1 < n <= cfg.epochs_per_iteration for n in epochs)
    assert sum(epochs) < cfg.t_max * cfg.epochs_per_iteration / 2
    start, rises = 0, 0
    for n, row in zip(epochs, run.history):
        mine = losses[start : start + n]
        start += n
        assert row["loss"] == mine[-1]
        improved = [a - b >= updates.EPOCH_TOL * a for a, b in zip(mine, mine[1:])]
        assert all(improved[:-1])
        assert n == cfg.epochs_per_iteration or not improved[-1]
        rises += mine[-1] > mine[-2]
    assert rises  # a rise ends an iteration too
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=4, epochs_per_iteration=3, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=0)
    _, run = engine.run_compression(net, ds, cfg, patterns)
    assert [row["epoch"] for row in run.history] == [3] * 4


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
    before = engine.evaluate(net, ds, cfg.batch_size)
    cfg.retrain_epochs = 8
    after = engine.retrain_pruned(net, ds, cfg)
    assert after <= before + 0.05
    for layer in net:
        if layer.mask is not None:
            assert np.all(layer.weights[layer.mask == 0] == 0.0)


def test_compression_retrain_rows_count_the_surviving_groups():
    ds = make_blob_task()
    net, patterns = compression_setup()
    cfg = SearchConfig(t_max=2, epochs_per_iteration=2, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=2)
    _, run = engine.run_compression(net, ds, cfg, patterns)
    rows = [row["alive_edges"] for row in run.history]
    assert len(rows) == 4 and rows[1] > 0
    # retraining kills no group: its rows repeat the last iteration's count
    assert rows[2:] == [rows[1]] * 2


def test_search_retrain_rows_count_the_alive_edges():
    graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=64, n_test=16)
    graph, run = engine.run_proxyless(graph, ds, small_config(retrain_epochs=2))
    retrain = [row["alive_edges"] for row in run.history if row["iteration"] == -1]
    assert retrain == [len(run.report["alive_edges"])] * 2
    assert retrain[0] > 0


def test_compression_forms_masks_at_the_first_prune_with_the_same_bits():
    # an all-ones mask changes no bit, so a layer goes without one until a
    # prune forms it, and still leaves compression with one
    ds = make_blob_task()
    for t_max in (0, 2):
        cfg = SearchConfig(t_max=t_max, epochs_per_iteration=2, batch_size=50,
                           lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                           seed=0, hessian_mode="approx", retrain_epochs=2)
        runs = []
        for preset in (False, True):
            net, patterns = compression_setup()
            for layer in net:
                layer.mask = np.ones(layer.weights.shape) if preset else None
            slots = engine._WeightSlots(net, patterns, cfg, "softmax_ce")
            assert all((net[li].mask is None) != preset for li in patterns)
            run = engine._alternate(slots, ds, cfg,
                                    engine.SearchRun(mode="compress", config=cfg))
            runs.append((net, json.dumps(run.history), json.dumps(run.report)))
        (lean, *lean_run), (ones, *ones_run) = runs
        assert lean_run == ones_run
        for a, b in zip(lean, ones):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.mask.tobytes() == b.mask.tobytes()
            assert t_max or np.all(a.mask == 1.0)


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


@pytest.mark.parametrize("task, retrain_epochs", [
    ("compress", 0), ("compress", 2), ("proxyless", 0), ("proxyless", 2),
    ("proxy_cells", 0), ("proxy_cells", 2),
], ids=["0", "2", "proxyless-0", "proxyless-2", "proxy_cells-0", "proxy_cells-2"])
def test_compression_runs_one_test_pass_per_model_state(monkeypatch, task, retrain_epochs):
    if task == "compress":
        ds = make_blob_task()
        net, patterns = compression_setup()
        cfg = SearchConfig(t_max=4, epochs_per_iteration=1, batch_size=50,
                           lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                           seed=0, hessian_mode="approx", retrain_epochs=retrain_epochs)
        module, name = nn, "predict"
        search = functools.partial(engine.run_compression, net, ds, cfg, patterns)
    else:
        cfg = small_config(retrain_epochs=retrain_epochs)
        module, name = sg, "graph_forward"
        if task == "proxyless":
            graph, ds, _ = data.gen_synthetic_dag_task(0, n_train=64, n_test=16)
            search = functools.partial(engine.run_proxyless, graph, ds, cfg)
        else:
            graph, ds, groups, _ = data.gen_two_cell_task(0, n_train=64, n_test=16)
            search = functools.partial(engine.run_proxy_cells, graph, ds, cfg, groups)
    forward, test_rows = getattr(module, name), []

    def counted(model, x):
        if np.shares_memory(x, ds.x_test):
            test_rows.append(len(x))
        return forward(model, x)

    monkeypatch.setattr(module, name, counted)
    model, run = search()
    # one pass per outer iteration and one per retrain epoch, none after;
    # a pass may run in slices, so count the test rows it predicts
    assert sum(test_rows) == len(run.history) * len(ds.x_test)
    assert len([row for row in run.history if row["iteration"] >= 1]) == cfg.t_max
    assert run.report["final_test_error"] == run.history[-1]["test_error"]
    monkeypatch.undo()
    assert run.report["final_test_error"] == engine.evaluate(model, ds, cfg.batch_size)


@pytest.mark.parametrize("task, seed", [("proxyless", 31), ("proxy_cells", 10)])
def test_search_without_retrain_exports_the_model_it_searched(task, seed):
    # the graph keeps the scalars of its last iteration, and the report
    # scores that model
    trace = []
    if task == "proxyless":
        graph, ds, _ = data.gen_synthetic_dag_task(seed)
        cfg = data.dag_task_config(seed)
        graph, run = engine.run_proxyless(graph, ds, cfg, trace=trace)
    else:
        graph, ds, groups, _ = data.gen_two_cell_task(seed)
        cfg = data.two_cell_task_config(seed)
        graph, run = engine.run_proxy_cells(graph, ds, cfg, groups, trace=trace)
    assert cfg.retrain_epochs == 0
    edges, last = exports.arch_export(graph, cfg)["edges"], trace[-1]["edges"]
    assert run.report["alive_edges"]
    for eid in run.report["alive_edges"]:
        assert edges[eid]["w"] == last[eid][0]
    assert run.report["final_test_error"] == run.history[-1]["test_error"]
    assert run.report["final_test_error"] == engine.evaluate(graph, ds, cfg.batch_size)


def test_graph_at_t_max_zero_retrains_like_a_stack():
    graph, ds, groups, _ = data.gen_two_cell_task(0, n_train=64, n_test=16)
    before = [layer.weights.copy() for op in graph.ops if op.layers for layer in op.layers]
    graph, run = engine.run_proxy_cells(graph, ds, small_config(t_max=0, retrain_epochs=2),
                                        groups)
    assert [(row["iteration"], row["epoch"]) for row in run.history] == [(-1, 1), (-1, 2)]
    assert np.all(graph.w[graph.alive] == 1.0)
    after = [layer.weights for op in graph.ops if op.layers for layer in op.layers]
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))
    assert run.report["final_test_error"] == run.history[-1]["test_error"]


def curvature_stack(name, n=50, seed=0):
    """A layer stack, its compression patterns, energy kind and n rows."""
    rng = np.random.default_rng(seed)
    if name == "conv-maxpool-flatten-fc":
        net = [nn.conv_layer(1, 3, 3, "relu", rng=rng), nn.pool_layer("maxpool2d"),
               nn.flatten_layer(), nn.fc_layer(3 * 3 * 3, 5, "relu", rng=rng),
               nn.fc_layer(5, 4, rng=rng)]
        patterns = {0: ["filter"], 3: ["row_and_column"], 4: ["column"]}
        return net, patterns, "softmax_ce", rng.normal(size=(n, 1, 8, 8)), \
            rng.integers(0, 4, n)
    net, patterns = compression_setup(seed)  # tanh fc stack: the f'' term counts
    return net, patterns, "mse", rng.normal(size=(n, 10)), rng.normal(size=(n, 4))


def one_shot_update(net, patterns, kind, mode, x, y):
    """network_curvature on every row at once, then the structural rule."""
    config = SearchConfig()
    states = engine._WeightSlots(net, patterns, config, kind).states
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, y, kind)
    nn.backward(net, caches, e_grad, input_grad=False)
    hess = network_curvature(net, caches, y, kind, mode).weight_diag
    for li, state in states.items():
        structural_update(net[li].weights, state, hess[li],
                          config.omega_floor, config.s_cap)
    return hess, states


@pytest.mark.parametrize("stack", ["conv-maxpool-flatten-fc", "tanh-fc"])
@pytest.mark.parametrize("mode", ["diag", "exact"])
def test_sliced_curvature_equals_one_shot_curvature(stack, mode):
    net, patterns, kind, x, y = curvature_stack(stack)
    hess, states = one_shot_update(copy.deepcopy(net), patterns, kind, mode, x, y)
    hessian_mode = "exact" if mode == "exact" else "approx"
    # 50 rows in slices of 16 (16, 16, 16, 2), then in one slice
    for batch_size in (16, 50, 64):
        config = SearchConfig(batch_size=batch_size, hessian_mode=hessian_mode)
        slots = engine._WeightSlots(copy.deepcopy(net), patterns, config, kind)
        sliced = slots.weight_curvature(x, y)
        slots.update(x, y)
        assert sorted(sliced) == sorted(states)
        for li, state in slots.states.items():
            pairs = [(sliced[li], hess[li]), (state.gamma, states[li].gamma),
                     (state.omega, states[li].omega)]
            for got, want in pairs:
                if batch_size >= len(x):
                    np.testing.assert_array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("stack, backward_calls", [
    ("conv-maxpool-flatten-fc", 0), ("tanh-fc", 4)])
def test_sliced_curvature_runs_a_backward_pass_only_for_curved_stacks(
        monkeypatch, stack, backward_calls):
    # relu/identity layers have no f'' term, so their slices need no grad_out
    net, patterns, kind, x, y = curvature_stack(stack)
    slots = engine._WeightSlots(net, patterns, SearchConfig(batch_size=16), kind)
    calls, backward = [], nn.backward

    def counted(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(nn, "backward", counted)
    slots.weight_curvature(x, y)
    assert len(calls) == backward_calls


def test_curvature_update_memory_does_not_grow_with_the_curvature_batch():
    net, patterns, kind, x, y = curvature_stack("conv-maxpool-flatten-fc", n=256)
    slots = engine._WeightSlots(net, patterns, SearchConfig(batch_size=64), kind)
    slots.update(x[:64], y[:64])  # warm up before measuring
    peaks = {}
    for n in (64, 256):
        tracemalloc.start()
        try:
            slots.update(x[:n], y[:n])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[256] <= 1.25 * peaks[64]


def reference_slab_l2_penalty(w, state, lambda_w):
    """The per-batch slab penalty as it read omega on every call."""
    w4 = np.asarray(w, dtype=np.float64).reshape(state.view)
    coef = lambda_w * state.omega
    sq, grad, term, norms = w4 * w4, np.zeros_like(w4), np.empty_like(w4), []
    for axes, block, group_shape in state.slabs:
        norm = np.sqrt(np.sum(sq, axis=axes, keepdims=True))
        c = coef[block].reshape(group_shape)
        live = norm > 0
        np.multiply(np.where(live, c, 0.0), w4, out=term)
        grad += np.divide(term, np.where(live, norm, 1.0), out=term)
        norms.append(norm.ravel())
    return float(np.sum(coef * np.concatenate(norms))), grad.reshape(np.shape(w))


def factor_weight_grad(slots, li, gw, masked):
    """The decay and the penalty of layer li added to gw as one product,
    masked times the factor of `slab_l2_penalty`."""
    decay = 2.0 * slots.config.weight_decay
    if li not in slots.states:
        return 0.0, gw + decay * masked
    state = slots.states[li]
    pen, factor = slab_l2_penalty(masked, state,
                                  slab_penalty_terms(state, slots.config.lambda_w), decay)
    return pen, gw + (masked.reshape(state.view) * factor).reshape(gw.shape)


def summed_weight_grad(slots, li, gw, masked):
    """The decay and the penalty of layer li added to gw one after the
    other, the penalty gradient summed slab kind by slab kind."""
    gw = gw + 2.0 * slots.config.weight_decay * masked
    if li not in slots.states:
        return 0.0, gw
    pen, pen_grad = reference_slab_l2_penalty(masked, slots.states[li], slots.config.lambda_w)
    return pen, gw + pen_grad


def reference_train_batch(slots, x, y, weight_grad):
    """A compression step composed as it was before the weights stayed
    masked at rest: mask the weights for the decay and the penalty, add
    them into a new gradient by weight_grad, take `momentum_step`, then
    re-mask.  Before the first prune the mask was all ones."""
    net, config, velocity = slots.model, slots.config, slots.velocity
    out, caches = nn.forward(net, x)
    loss, e_grad = nn.energy(out, y, slots.kind)
    grads, _ = nn.backward(net, caches, e_grad, input_grad=False)
    for li, item in enumerate(grads):
        if item is None:
            continue
        layer, (gw, gb) = net[li], item
        mask = np.ones(layer.weights.shape) if layer.mask is None else layer.mask
        masked = layer.weights * mask
        pen, gw = weight_grad(slots, li, gw, masked)
        loss += pen
        for name, grad in (("weights", gw), ("bias", gb)):
            value, velocity[(li, name)] = momentum_step(
                getattr(layer, name), grad, velocity.get((li, name), 0.0),
                config.learning_rate, config.momentum)
            setattr(layer, name, value)
        layer.weights = layer.weights * mask
    return loss


def lean_against_reference(stack, weight_grad, same_loss, same_array):
    """Two iterations of the lean step and of `reference_train_batch`, so
    the second trains on penalty terms that an update refreshed and under
    masks that a prune cut; every batch loss and, after each iteration,
    every layer and hyperparameter array is compared, and the kills must
    be equal."""
    net, patterns, kind, x, y = curvature_stack(stack, n=64)
    config = SearchConfig(batch_size=16, prune_threshold=0.5, learning_rate=0.05)
    lean = engine._WeightSlots(copy.deepcopy(net), patterns, config, kind)
    ref = engine._WeightSlots(copy.deepcopy(net), patterns, config, kind)
    killed = []
    for _ in range(2):
        for start in range(0, len(x), config.batch_size):
            rows = slice(start, start + config.batch_size)
            assert same_loss(lean.train_batch(x[rows], y[rows]),
                             reference_train_batch(ref, x[rows], y[rows], weight_grad))
        for slots in (lean, ref):
            slots.update(x, y)
        killed.append(lean.prune()[0])
        assert ref.prune()[0] == killed[-1]
        for a, b in zip(lean.model, ref.model):
            for name in ("weights", "bias"):
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None)
                assert va is None or same_array(va, vb)
            assert (a.mask is None and b.mask is None) or a.mask.tobytes() == b.mask.tobytes()
        for li, state in lean.states.items():
            assert same_array(state.gamma, ref.states[li].gamma)
            assert same_array(state.omega, ref.states[li].omega)
    assert killed[0] > 0


@pytest.mark.parametrize("stack", ["conv-maxpool-flatten-fc", "tanh-fc"])
def test_lean_compression_step_matches_the_reference_composition(stack):
    lean_against_reference(stack, factor_weight_grad, lambda a, b: a == b,
                           lambda a, b: a.tobytes() == b.tobytes())


@pytest.mark.parametrize("stack", ["conv-maxpool-flatten-fc", "tanh-fc"])
def test_lean_compression_step_stays_near_the_summed_penalty_gradient(stack):
    # the factor form rounds the decay and each slab kind's term apart from
    # the sum of products it replaced, so agreement is to a relative 1e-12
    def close(a, b):
        return (np.max(np.abs(np.subtract(a, b)), initial=0.0)
                <= 1e-12 * np.max(np.abs(b), initial=0.0))

    lean_against_reference(stack, summed_weight_grad, close, close)


def test_retraining_never_writes_into_an_array_the_caller_passed_in():
    # a parameter's first step stores a copy, which its later steps write
    # into in place; the arrays a graph op and a stack were built from stay
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 3))
    y = np.tanh(x @ rng.normal(size=(3, 3)))
    ds = data.Dataset(x[:48], y[:48], x[48:], y[48:], kind="regression")
    cfg = SearchConfig(t_max=0, retrain_epochs=2, batch_size=16, learning_rate=0.05)
    matrices = [rng.normal(size=(3, 3)) for _ in range(2)]
    graph = sg.SuperGraph(3, [sg.Edge(i, i + 1, sg.make_op("fc", matrix=m))
                              for i, m in enumerate(matrices)])
    arrays = [rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=(3, 3))]
    net = [nn.Layer("fc", weights=arrays[0], bias=arrays[1], activation="tanh"),
           nn.Layer("fc", weights=arrays[2])]
    passed = matrices + arrays
    before = [a.copy() for a in passed]
    assert graph.ops[0].layers[0].weights is matrices[0] and net[0].weights is arrays[0]
    engine.run_proxyless(graph, ds, cfg)
    engine.retrain_pruned(net, ds, cfg)
    trained = [graph.ops[0].layers[0].weights, graph.ops[1].layers[0].weights,
               net[0].weights, net[0].bias, net[1].weights]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(passed, before))
    assert not any(np.array_equal(a, b) for a, b in zip(trained, before))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_retrain_from_a_weight_file_trains_in_float64(tmp_path, monkeypatch, dtype):
    # integer or float32 arrays from a weight file train in float64, as a
    # step that assigns value + velocity makes them; the in-place step gets
    # there through its float64 copy at the first step
    from ardnet import models
    ds = make_blob_task()
    rng = np.random.default_rng(2)
    shapes = [(8, 10), (8,), (4, 8), (4,)]
    arrays = [rng.normal(size=s).astype(np.float32) if dtype == np.float32
              else rng.integers(-2, 3, size=s) for s in shapes]
    mask = (rng.random((8, 10)) < 0.7).astype(dtype)
    np.savez(tmp_path / "w.npz", w0=arrays[0], b0=arrays[1], m0=mask, w1=arrays[2], b1=arrays[3])
    cfg = SearchConfig(t_max=0, retrain_epochs=2, batch_size=50, learning_rate=0.01, seed=0)
    runs = []
    for step in (engine._step_layers, allocating_step_layers):
        monkeypatch.setattr(engine, "_step_layers", step)
        net = [nn.fc_layer(10, 8, "tanh", rng=rng), nn.fc_layer(8, 4, rng=rng)]
        models.load_weights(net, tmp_path / "w.npz")
        assert net[0].weights.dtype == net[0].bias.dtype == dtype
        runs.append((engine.retrain_pruned(net, ds, cfg), net))
    (err, net), (ref_err, ref) = runs
    assert err == ref_err
    for layer, ref_layer in zip(net, ref):
        for name in ("weights", "bias"):
            value, ref_value = getattr(layer, name), getattr(ref_layer, name)
            assert value.dtype == ref_value.dtype == np.float64
            assert value.tobytes() == ref_value.tobytes()


def test_retrain_on_unpruned_net_is_ordinary_training():
    ds = make_blob_task()
    rng = np.random.default_rng(1)
    net = [nn.fc_layer(10, 8, "tanh", rng=rng), nn.fc_layer(8, 4, rng=rng)]
    cfg = SearchConfig(t_max=0, retrain_epochs=6, batch_size=50,
                       learning_rate=0.05, seed=0)
    before = engine.evaluate(net, ds, cfg.batch_size)
    after = engine.retrain_pruned(net, ds, cfg)
    assert after < before


def test_surviving_widths_shapes():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 3, rng=rng)]
    net[0].mask = np.ones((3, 4))
    net[0].mask[:, 0] = 0.0
    net[0].mask[2, :] = 0.0
    assert engine.surviving_widths(net) == [(3, 2)]
