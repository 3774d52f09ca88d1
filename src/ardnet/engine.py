"""End-to-end search and compression through one alternation driver.

`_alternate` trains for a few epochs under the reweighted group penalty,
measures curvature on a held-out batch, updates the variance chain in
closed form, prunes by the entropy criterion and cascades, restores a path
if the graph fell apart, and repeats until nothing is pruned and no gamma
moves; then it retrains what survives.  It runs on `_EdgeSlots` (the tied
architecture scalars of a SuperGraph) or `_WeightSlots` (the HyperState
weight groups of a layer stack).  Every SGD pass goes through `_sgd_epoch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import supergraph as sg
from .curvature import network_curvature
from .updates import (GroupSpec, HyperState, SearchConfig, flat_groups,
                      group_l2_penalty, group_update, make_groups, sgd_momentum_step,
                      slab_axes, slab_l2_penalty, structural_update,
                      update_posterior_variance)

__all__ = [
    "SearchRun",
    "evaluate",
    "run_proxyless",
    "run_proxy_cells",
    "run_compression",
    "retrain_pruned",
    "surviving_widths",
]


@dataclass
class SearchRun:
    """Outcome record of one search/compression run."""

    mode: str
    config: SearchConfig
    # dict rows: one per outer iteration, then one per retrain epoch
    history: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def history_row(self, **kw):
        row = {
            "iteration": 0, "epoch": 0, "loss": float("nan"),
            "test_error": float("nan"), "alive_edges": 0,
            "gamma_min": float("nan"), "gamma_median": float("nan"),
            "entropy_pruned": 0, "cascade_pruned": 0,
        }
        row.update(kw)
        self.history.append(row)
        return row


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, data):
    """Test-set error: misclassification rate for labelled data, mean
    squared error per sample for regression."""
    if isinstance(model, sg.SuperGraph):
        out, _ = sg.graph_forward(model, data.x_test)
    else:
        out = nn.predict(model, data.x_test)
    if data.kind == "labels":
        pred = np.argmax(out, axis=1)
        return float(np.mean(pred != data.y_test))
    diff = out - data.y_test
    return float(np.mean(np.sum(diff**2, axis=1)))


def _energy_kind(data):
    return "softmax_ce" if data.kind == "labels" else "mse"


# ---------------------------------------------------------------------------
# the shared SGD batch loop


def _batches(n, batch_size, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _sgd_epoch(step, data, batch_size, rng):
    """One epoch over shuffled minibatches; step(x, y) updates the
    parameters and returns the batch loss.  Returns the mean loss."""
    losses = [step(data.x_train[idx], data.y_train[idx])
              for idx in _batches(len(data.x_train), batch_size, rng)]
    if not np.all(np.isfinite(losses)):
        raise FloatingPointError("non-finite training loss; reduce the learning rate")
    return float(np.mean(losses))


def _step_layers(layers, grads, velocity, key, config):
    """Momentum step on every weighted layer; masked weights stay zero."""
    for li, item in enumerate(grads):
        if item is None:
            continue
        layer, (gw, gb) = layers[li], item
        mask = 1.0 if layer.mask is None else layer.mask
        for name, grad in (("weights", gw * mask), ("bias", gb)):
            if grad is not None:
                value, velocity[key + (li, name)] = sgd_momentum_step(
                    getattr(layer, name), grad, velocity.get(key + (li, name), 0.0),
                    config.learning_rate, config.momentum)
                setattr(layer, name, value)
        layer.weights = layer.weights * mask


# ---------------------------------------------------------------------------
# the alternation driver


def _alternate(slots, data, config, run, trace=None):
    """Train, curvature, closed-form update, prune; then retrain survivors.

    trace, for edge slots, receives a snapshot of every edge per iteration.
    """
    rng = np.random.default_rng(config.seed)
    n_curv = min(config.curvature_batch, len(data.x_train))
    for t in range(1, config.t_max + 1):
        before = slots.gammas()
        for _ in range(config.epochs_per_iteration):
            loss = _sgd_epoch(slots.train_batch, data, config.batch_size, rng)
        # curvature on a fresh held-out batch, once per iteration
        idx = rng.choice(len(data.x_train), size=n_curv, replace=False)
        slots.update(data.x_train[idx], data.y_train[idx])
        entropy_pruned, cascade_pruned, degenerate = slots.prune()
        gammas = slots.gammas()
        if trace is not None:
            trace.append({"iteration": t, "edges": slots.snapshot()})
        values = list(gammas.values())
        run.history_row(
            iteration=t, epoch=config.epochs_per_iteration, loss=loss,
            test_error=evaluate(slots.model, data), alive_edges=len(values),
            gamma_min=float(min(values)) if values else float("nan"),
            gamma_median=float(np.median(values)) if values else float("nan"),
            entropy_pruned=entropy_pruned, cascade_pruned=cascade_pruned,
        )
        if degenerate:
            break
        moved = max((abs(g - before[key]) for key, g in gammas.items() if key in before),
                    default=0.0)
        if not entropy_pruned and not cascade_pruned and moved < 1e-6:
            run.report["early_stop_iteration"] = t
            break
    if slots.finish(data, run) or not run.history:
        run.report["final_test_error"] = evaluate(slots.model, data)
    else:  # the model is the one the last history row evaluated
        run.report["final_test_error"] = run.history[-1]["test_error"]
    return run


def retrain_pruned(model, data, config, run=None):
    """Standard SGD on the surviving parameters.

    Graphs keep every architecture scalar frozen and train only the
    layer-backed op weights of alive edges; layer stacks train under their
    persistent masks.  Appends per-epoch rows to the run history when given.
    """
    if isinstance(model, sg.SuperGraph):
        slots = _EdgeSlots(model, _singleton_groups(model), config, _energy_kind(data))
    else:
        slots = _WeightSlots(model, {}, config, _energy_kind(data))
    rng = np.random.default_rng(config.seed + 1)
    row = None
    for ep in range(1, config.retrain_epochs + 1):
        loss = _sgd_epoch(slots.retrain_batch, data, config.batch_size, rng)
        if run is not None:
            row = run.history_row(iteration=-1, epoch=ep, loss=loss,
                                  test_error=evaluate(model, data),
                                  alive_edges=len(slots.gammas()))
    return evaluate(model, data) if row is None else row["test_error"]


# ---------------------------------------------------------------------------
# graph search (proxyless and grouped proxy-cell modes)


def _singleton_groups(graph):
    return [GroupSpec(eid, [eid]) for eid in range(len(graph.edges))]


def _validate_groups(graph, groups):
    seen = np.zeros(len(graph.edges), dtype=int)
    for grp in groups:
        tags = {graph.edges[eid].op.tag for eid in grp.members}
        if len(tags) > 1:
            raise ValueError(
                f"group {grp.gid} ties edges with different ops {sorted(tags)}: "
                "inconsistent group topology across cells"
            )
        seen[grp.members] += 1
    if not np.all(seen == 1):
        missing = np.flatnonzero(seen != 1).tolist()
        raise ValueError(f"groups must partition the edge set; bad edges {missing}")


class _EdgeSlots:
    """Architecture scalars of a SuperGraph, one shared scalar per group.

    The alive members of each group change only at a prune, so they are
    gathered once per iteration, in flat form, with their group's omega.
    Between prunes training steps `w`, one array over edge ids; `update`
    writes it back to the edges.
    """

    def __init__(self, graph, groups, config, kind):
        self.model, self.config, self.kind = graph, config, kind
        self.index, self.group = flat_groups(groups)
        self.velocity = {}
        self.w_velocity = np.zeros(len(graph.edges))
        self.restored = None
        self._gather()

    def _gather(self):
        edges = self.model.edges
        self.w = np.array([e.w for e in edges])
        live = np.array([e.alive for e in edges], dtype=bool)[self.index]
        self.alive = self.index[live]
        # every alive member of a group shares its omega; take the first's
        _, first, self.group_of = np.unique(self.group[live], return_index=True,
                                            return_inverse=True)
        self.omega = np.array([e.omega for e in edges])[self.alive[first]]

    def gammas(self):
        return {eid: self.model.edges[eid].gamma for eid in self.model.alive_edge_ids()}

    def snapshot(self):
        return {eid: (e.w, e.s, e.omega, e.gamma, e.alive)
                for eid, e in enumerate(self.model.edges)}

    def train_batch(self, x, y):
        config, w, alive = self.config, self.w, self.alive
        out, gcache = sg.graph_forward(self.model, x, w)
        loss, e_grad = nn.energy(out, y, self.kind)
        pen, pen_grad = group_l2_penalty(w, alive, self.group_of, self.omega,
                                         config.lambda_w)
        w_grads, _ = sg.graph_backward(self.model, gcache, e_grad)
        grad = w_grads[alive] + pen_grad[alive]
        # tied slots are one shared scalar: sum member gradients and move
        # every member by the same step, so repeated cells stay bitwise equal
        grad = np.bincount(self.group_of, weights=grad)[self.group_of]
        w[alive], self.w_velocity[alive] = sgd_momentum_step(
            w[alive], grad, self.w_velocity[alive], config.learning_rate, config.momentum)
        return loss + pen

    def retrain_batch(self, x, y):
        graph, edges = self.model, self.model.edges
        out, gcache = sg.graph_forward(graph, x, self.w)
        loss, e_grad = nn.energy(out, y, self.kind)
        trainable = [eid for eid in self.alive.tolist() if edges[eid].op.layers]
        if trainable:
            _, node_g = sg.graph_backward(graph, gcache, e_grad)
            for eid in trainable:
                e = edges[eid]
                g_dst = node_g[e.dst]
                cache = sg.op_cache(graph, gcache, eid)
                if g_dst is None or cache is None:
                    continue
                grads, _ = nn.backward(e.op.layers, cache, self.w[eid] * g_dst,
                                       input_grad=False)
                _step_layers(e.op.layers, grads, self.velocity, (eid,), self.config)
        return loss

    def update(self, x, y):
        """Write w back to the edges; per-edge curvature, closed-form
        (c, omega, s) per group, then gamma."""
        graph, edges, config = self.model, self.model.edges, self.config
        alive, group = self.alive.tolist(), self.group_of
        w = self.w[self.alive]
        for eid, wi in zip(alive, w):
            edges[eid].w = wi
        out, gcache = sg.graph_forward(graph, x, self.w)
        hess = sg.arch_scalar_hessian(graph, gcache,
                                      nn.energy_hessian(out, y, self.kind, "exact"))
        for eid, h in hess.items():
            edges[eid].hess = max(h, 0.0)
        gamma_prev = np.array([edges[eid].gamma for eid in alive])
        c = update_posterior_variance(gamma_prev, [edges[eid].hess for eid in alive])
        s, omega = group_update(w, gamma_prev, c, group, config.omega_floor, config.s_cap)
        for eid, ci, si, oi in zip(alive, c.tolist(), s[group].tolist(), omega[group].tolist()):
            e = edges[eid]
            e.c, e.omega = ci, oi
            e.s = max(si, 1e-300)  # s = 0 (w = 0) still needs a valid gamma
        sg.refresh_gammas(graph)
        # tied groups prune as one unit: every member adopts the group minimum
        gmin = np.full(omega.size, np.inf)
        np.minimum.at(gmin, group, [edges[eid].gamma for eid in alive])
        for eid, g in zip(alive, gmin[group].tolist()):
            edges[eid].gamma = g

    def prune(self):
        """Entropy prune, then the cascade: edges without in-flow die, and
        after an entropy kill so do edges on no path to the output (their
        curvature is zero, so the entropy rule alone never removes them).
        A disconnected result revives the widest input->output path."""
        graph = self.model
        mask = sg.entropy_prune_mask(graph, self.config.prune_threshold)
        sg.apply_prune_mask(graph, mask)
        report = sg.propagate_dependency_prune(graph, mask)
        cascade = len(report.cascade_killed)
        if mask:
            live = sg.reachable_nodes(graph, reverse=True)
            dead_end = [eid for eid in graph.alive_edge_ids()
                        if graph.edges[eid].dst not in live]
            sg.apply_prune_mask(graph, dead_end, reason="cascade")
            cascade += len(dead_end)
        if report.degenerate:
            self.restored = sg.restore_widest_path(graph)
        self._gather()
        return len(report.entropy_killed), cascade, report.degenerate

    def finish(self, data, run):
        """Freeze the alive scalars at 1 and retrain the op weights.  True:
        the frozen graph is a model that no history row evaluated."""
        graph, config = self.model, self.config
        if config.t_max > 0:
            for eid in graph.alive_edge_ids():
                graph.edges[eid].w = 1.0  # freeze before retraining
            if config.retrain_epochs > 0:
                retrain_pruned(graph, data, config, run)
        if self.restored is not None:
            run.report["restored_path"] = self.restored
        run.report["degenerate"] = graph.degenerate
        run.report["alive_edges"] = graph.alive_edge_ids()
        return True


def _search(graph, data, config, groups, mode, trace):
    config.validate()
    if not graph.gate_map:
        sg.insert_zero_gates(graph)
    if groups is None:
        groups = _singleton_groups(graph)
    _validate_groups(graph, groups)
    slots = _EdgeSlots(graph, groups, config, _energy_kind(data))
    run = SearchRun(mode=mode, config=config)
    _alternate(slots, data, config, run, trace)
    return graph, run


def run_proxyless(graph, data, config, trace=None):
    """Per-edge search: every architecture scalar is its own group."""
    return _search(graph, data, config, None, "proxyless", trace)


def run_proxy_cells(graph, data, config, groups, trace=None):
    """Tied-cell search: grouped updates and a shared prune template."""
    return _search(graph, data, config, groups, "proxy_cell", trace)


# ---------------------------------------------------------------------------
# structured compression of layer stacks


class _WeightSlots:
    """Compression groups of a layer stack, one HyperState per layer holding
    all of its patterns' groups; a weight is zero-masked as soon as any of
    its groups dies, so a dead group's norm is 0.

    With no patterns it is plain weight-decayed training of the stack."""

    def __init__(self, net, patterns, config, kind):
        self.model, self.config, self.kind = net, config, kind
        self.states = {}  # layer index -> HyperState
        self.slabs = {}  # layer index -> slab_axes of its groups, in order
        for li, names in patterns.items():
            if net[li].weights is None:
                raise ValueError(f"layer {li} has no weights to compress")
            shape = net[li].weights.shape
            self.states[li] = HyperState.init([grp for name in names
                                               for grp in make_groups(shape, name)])
            self.slabs[li] = [axes for name in names for axes in slab_axes(shape, name)]
            if net[li].mask is None:
                net[li].mask = np.ones_like(net[li].weights)
        self.velocity = {}

    def gammas(self):
        return {(li, g): state.gamma[g] for li, state in self.states.items()
                for g in np.flatnonzero(state.alive)}

    def train_batch(self, x, y):
        net, config = self.model, self.config
        out, caches = nn.forward(net, x)
        loss, e_grad = nn.energy(out, y, self.kind)
        grads, _ = nn.backward(net, caches, e_grad, input_grad=False)
        for li, layer in enumerate(net):
            if grads[li] is None:
                continue
            gw, gb = grads[li]
            gw = gw + 2.0 * config.weight_decay * layer.masked_weights()
            state = self.states.get(li)
            if state is not None:
                pen, pen_grad = slab_l2_penalty(layer.masked_weights(), self.slabs[li],
                                                state.omega, config.lambda_w)
                loss += pen
                gw = gw + pen_grad
            grads[li] = (gw, gb)
        _step_layers(net, grads, self.velocity, (), config)
        return loss

    retrain_batch = train_batch

    def update(self, x, y):
        """Layer curvature, then the structural rule on every state."""
        net, config = self.model, self.config
        out, caches = nn.forward(net, x)
        _, e_grad = nn.energy(out, y, self.kind)
        nn.backward(net, caches, e_grad, input_grad=False)
        mode = "exact" if config.hessian_mode == "exact" else "diag"
        curv = network_curvature(net, caches, y, self.kind, mode)
        for li, state in self.states.items():
            structural_update(net[li].masked_weights(), state, curv.weight_diag[li],
                              config.omega_floor, config.s_cap)

    def prune(self):
        net, killed = self.model, 0
        for li, state in self.states.items():
            dead = state.alive & (state.gamma <= self.config.prune_threshold)
            net[li].mask.ravel()[state.index[dead[state.group]]] = 0.0
            state.alive &= ~dead
            killed += int(np.count_nonzero(dead))
            net[li].weights = net[li].weights * net[li].mask
            if not np.any(net[li].mask):
                raise RuntimeError(f"network severed: layer {li} is fully pruned")
        return killed, 0, False

    def finish(self, data, run):
        """Retrain the survivors, each epoch with a history row.  False:
        the model is the one that the last history row evaluated."""
        net = self.model
        if self.config.retrain_epochs > 0:
            retrain_pruned(net, data, self.config, run)
        run.report["widths"] = surviving_widths(net)
        run.report["param_ratio"] = _surviving_param_ratio(net)
        return False


def run_compression(net, data, config, patterns):
    """Structured-sparsity compression of a layer stack.

    patterns maps layer index -> list of pattern names (see make_groups);
    every group keeps its own variance chain, and a weight is zero-masked as
    soon as any of its groups dies.
    """
    config.validate()
    slots = _WeightSlots(net, patterns, config, _energy_kind(data))
    run = SearchRun(mode="compress", config=config)
    _alternate(slots, data, config, run)
    return net, run


def _surviving_param_ratio(net):
    weighted = [layer for layer in net if layer.weights is not None]
    total = sum(layer.weights.size for layer in weighted)
    alive = sum(layer.weights.size if layer.mask is None
                else int(np.count_nonzero(layer.mask)) for layer in weighted)
    return alive / total if total else 1.0


def surviving_widths(net):
    """Alive unit counts per weighted layer: (inputs used, outputs used)."""
    widths = []
    for layer in net:
        if layer.weights is None:
            continue
        used = layer.mask != 0 if layer.mask is not None else np.ones(layer.weights.shape, bool)
        # fc (out, in) and conv (out, in, m, k) alike: inputs used, outputs used
        kernel = tuple(range(2, used.ndim))
        widths.append((int(np.sum(np.any(used, axis=(0,) + kernel))),
                       int(np.sum(np.any(used, axis=(1,) + kernel)))))
    return widths
