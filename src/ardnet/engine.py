"""End-to-end search and compression through one alternation driver.

`_alternate` trains for a few epochs under the reweighted group penalty,
measures curvature on a held-out batch, updates the variance chain in
closed form, prunes by the entropy criterion and cascades, and repeats
until nothing is pruned and no gamma moves, or until a prune would sever
the graph, which it rolls back; then it retrains what survives if
`retrain_epochs` > 0, and reports the last history row's test error.  It
runs on `_EdgeSlots` (the tied architecture scalars of a SuperGraph, in
flat groups) or `_WeightSlots` (the slab groups of a layer stack, one
HyperState per layer).  The graph's arrays hold the search state.  Every
SGD pass goes through `_sgd_epoch`, and every step through `_momentum_step`,
in place.  A layer stack's curvature update and
test pass run `batch_size` rows at a time, so a training batch, not the
curvature batch or the test set, sets the peak memory of a compression run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import supergraph as sg
from .curvature import curved_layers, network_curvature
from .updates import (GroupSpec, HyperState, SearchConfig, flat_groups,
                      group_l2_penalty, group_update, slab_l2_penalty,
                      slab_penalty_terms, structural_update)

__all__ = [
    "SearchRun",
    "evaluate",
    "run_proxyless",
    "run_proxy_cells",
    "run_compression",
    "retrain_pruned",
    "live_group_count",
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
    # every history field, in metrics.csv column order, with its default
    ROW_DEFAULTS = {
        "iteration": 0, "epoch": 0, "loss": float("nan"),
        "test_error": float("nan"), "alive_edges": 0,
        "gamma_min": float("nan"), "gamma_median": float("nan"),
        "entropy_pruned": 0, "cascade_pruned": 0,
    }

    def history_row(self, **kw):
        row = dict(self.ROW_DEFAULTS, **kw)
        self.history.append(row)
        return row


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, data, batch_size):
    """Test-set error: misclassification rate for labelled data, mean
    squared error per sample for regression.

    A layer stack predicts batch_size rows at a time, so the test pass
    holds no more samples than a training batch; a graph runs in one pass."""
    x = data.x_test
    if isinstance(model, sg.SuperGraph):
        out, _ = sg.graph_forward(model, x)
    else:
        out = np.concatenate([nn.predict(model, x[start : start + batch_size])
                              for start in range(0, len(x), batch_size)])
    if data.kind == "labels":
        pred = np.argmax(out, axis=1)
        return float(np.mean(pred != data.y_test))
    diff = out - data.y_test
    return float(np.mean(np.sum(diff**2, axis=1)))


def _energy_kind(data):
    return "softmax_ce" if data.kind == "labels" else "mse"


# ---------------------------------------------------------------------------
# the shared SGD batch loop


def _sgd_epoch(step, data, batch_size, rng):
    """One epoch over shuffled minibatches; step(x, y) updates the
    parameters and returns the batch loss.  Each batch gathers its own rows,
    so no shuffled copy of the training set is held; `take` gathers a few
    rows in a third of the time that indexing does.  Returns the mean loss."""
    perm = rng.permutation(len(data.x_train))
    batches = (perm[start : start + batch_size] for start in range(0, len(perm), batch_size))
    losses = [step(data.x_train.take(idx, axis=0), data.y_train.take(idx, axis=0))
              for idx in batches]
    if not np.all(np.isfinite(losses)):
        raise FloatingPointError("non-finite training loss; reduce the learning rate")
    return float(np.mean(losses))


def _momentum_step(value, grad, velocity, lr, momentum, mask=None):
    """The one momentum rule, in place: velocity = momentum * velocity -
    lr * grad, value += velocity, then value *= mask for a masked weight.
    grad is scaled in place, so the caller hands over a fresh array."""
    velocity *= momentum
    velocity -= np.multiply(grad, lr, out=grad)
    value += velocity
    if mask is not None:
        value *= mask


def _step_layers(layers, grads, velocity, key, config):
    """`_momentum_step` on every weighted layer.  Each gradient is a fresh
    array that the step consumes, and each velocity starts at zero.  A
    parameter's first step stores a float64 copy of its array, which later
    steps write into, so an array that the caller passed in is never
    written, and integer or float32 weights train in float64."""
    for li, item in enumerate(grads):
        if item is None:
            continue
        layer = layers[li]
        for name, grad in zip(("weights", "bias"), item):
            if grad is None:
                continue
            vel = velocity.get(key + (li, name))
            if vel is None:
                vel = velocity[key + (li, name)] = np.zeros(grad.shape)
                setattr(layer, name, np.array(getattr(layer, name), dtype=np.float64))
            _momentum_step(getattr(layer, name), grad, vel, config.learning_rate,
                           config.momentum, layer.mask if name == "weights" else None)


# ---------------------------------------------------------------------------
# the alternation driver


def _alternate(slots, data, config, run, trace=None):
    """Train, curvature, closed-form update, prune; then retrain survivors.

    trace, for edge slots, receives a snapshot of every edge per iteration.
    """
    rng = np.random.default_rng(config.seed)
    n_curv = min(config.curvature_batch, len(data.x_train))
    for t in range(1, config.t_max + 1):
        before, _ = slots.gammas()
        for _ in range(config.epochs_per_iteration):
            loss = _sgd_epoch(slots.train_batch, data, config.batch_size, rng)
        # curvature on a fresh held-out batch, once per iteration
        idx = rng.choice(len(data.x_train), size=n_curv, replace=False)
        slots.update(data.x_train[idx], data.y_train[idx])
        entropy_pruned, cascade_pruned, degenerate = slots.prune()
        gamma, alive = slots.gammas()
        if trace is not None:
            trace.append({"iteration": t, "edges": slots.snapshot()})
        values = gamma[alive]  # a prune only kills, so every one was alive before
        run.history_row(
            iteration=t, epoch=config.epochs_per_iteration, loss=loss,
            test_error=evaluate(slots.model, data, config.batch_size),
            alive_edges=values.size,
            gamma_min=float(values.min()) if values.size else float("nan"),
            gamma_median=float(np.median(values)) if values.size else float("nan"),
            entropy_pruned=entropy_pruned, cascade_pruned=cascade_pruned,
        )
        if degenerate:
            break
        moved = np.max(np.abs(values - before[alive]), initial=0.0)
        if not entropy_pruned and not cascade_pruned and moved < 1e-6:
            run.report["early_stop_iteration"] = t
            break
    slots.finish(data, run)
    # the report describes the model that the last history row evaluated
    run.report["final_test_error"] = (run.history[-1]["test_error"] if run.history
                                      else evaluate(slots.model, data, config.batch_size))
    return run


def _retrain(slots, data, run, alive_groups):
    """`retrain_epochs` epochs of slots.retrain_batch, each with a history
    row when run is given; returns the final test error."""
    config, model = slots.config, slots.model
    rng = np.random.default_rng(config.seed + 1)
    row = None
    for ep in range(1, config.retrain_epochs + 1):
        loss = _sgd_epoch(slots.retrain_batch, data, config.batch_size, rng)
        if run is not None:
            row = run.history_row(iteration=-1, epoch=ep, loss=loss,
                                  test_error=evaluate(model, data, config.batch_size),
                                  alive_edges=alive_groups)
    return evaluate(model, data, config.batch_size) if row is None else row["test_error"]


def retrain_pruned(net, data, config, run=None, alive_groups=0):
    """Standard SGD on a layer stack under its persistent masks.

    Appends per-epoch rows to the run history when given; their
    `alive_edges` is the alive_groups that its compression left (retraining
    kills none)."""
    return _retrain(_WeightSlots(net, {}, config, _energy_kind(data)), data, run, alive_groups)


# ---------------------------------------------------------------------------
# graph search (proxyless and grouped proxy-cell modes)


def _validate_groups(graph, groups):
    seen = np.zeros(len(graph.ops), dtype=int)
    for grp in groups:
        tags = {graph.ops[eid].tag for eid in grp.members}
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

    `omega` is an array over edge ids, starting at 1 as a HyperState's does.
    The alive members of each group change only at a prune, which follows
    every omega update, so they are gathered once per iteration, in flat
    form, with their group's omega and its penalty terms.  Their w and
    velocity are compact arrays over those members, cut to the survivors at
    each prune and stepped in place; each batch writes w to the graph's
    array once.
    """

    def __init__(self, graph, groups, config, kind):
        self.model, self.config, self.kind = graph, config, kind
        self.index, self.group = flat_groups(groups)
        self.velocity = {}  # of the op weights, when retraining
        self.pos, self.v = np.arange(self.index.size), np.zeros(self.index.size)
        self.omega = np.ones(len(graph.ops))
        self._gather()

    def _gather(self):
        # positions of the alive members in the flat index; a prune only
        # kills, so the survivors keep their velocity
        pos = np.flatnonzero(self.model.alive[self.index])
        self.pos, self.v, self.alive = pos, self.v[np.isin(self.pos, pos)], self.index[pos]
        self.w = self.model.w[self.alive]
        # every alive member of a group shares its omega; take the first's
        _, first, self.group_of = np.unique(self.group[pos], return_index=True,
                                            return_inverse=True)
        self.group_omega = self.omega[self.alive[first]]
        coef = self.config.lambda_w * self.group_omega
        self.terms = coef, coef[self.group_of]  # what group_l2_penalty reads

    def gammas(self):
        """Every edge's gamma and alive flag, as arrays over edge ids."""
        return self.model.gamma.copy(), self.model.alive.copy()

    def snapshot(self):
        graph = self.model
        return dict(enumerate(zip(graph.w.tolist(), graph.s.tolist(), self.omega.tolist(),
                                  graph.gamma.tolist(), graph.alive.tolist())))

    def train_batch(self, x, y):
        config, graph, w = self.config, self.model, self.w
        out, gcache = sg.graph_forward(graph, x)
        loss, e_grad = nn.energy(out, y, self.kind)
        pen, grad = group_l2_penalty(w, self.group_of, self.terms)
        w_grads, _ = sg.graph_backward(graph, gcache, e_grad)
        grad += w_grads[self.alive]
        # tied slots are one shared scalar: sum member gradients and move
        # every member by the same step, so repeated cells stay bitwise equal
        grad = np.bincount(self.group_of, weights=grad)[self.group_of]
        _momentum_step(w, grad, self.v, config.learning_rate, config.momentum)
        graph.w[self.alive] = w
        return loss + pen

    def retrain_batch(self, x, y):
        # edge-id order: tied edges share one op's layers, so the order of
        # their steps sets the bits
        graph = self.model
        out, gcache = sg.graph_forward(graph, x)
        loss, e_grad = nn.energy(out, y, self.kind)
        trainable = [eid for eid in graph.alive_edge_ids() if graph.ops[eid].layers]
        if trainable:
            _, node_g = sg.graph_backward(graph, gcache, e_grad)
            for eid in trainable:
                layers = graph.ops[eid].layers
                g_dst = node_g[graph.dst[eid]]
                cache = sg.op_cache(graph, gcache, eid)
                if g_dst is None or cache is None:
                    continue
                grads, _ = nn.backward(layers, cache, graph.w[eid] * g_dst, input_grad=False)
                _step_layers(layers, grads, self.velocity, (eid,), self.config)
        return loss

    def update(self, x, y):
        """Per-edge curvature, then every group's variance chain, whose
        gammas are the HARD map of the switches (`refresh_gammas`)."""
        graph, config, alive, group = self.model, self.config, self.alive, self.group_of
        out, gcache = sg.graph_forward(graph, x)
        hess = sg.arch_scalar_hessian(graph, gcache,
                                      nn.energy_hessian(out, y, self.kind, "exact"))[alive]

        def hard_gammas(s):
            graph.s[alive] = np.maximum(s[group], 1e-300)  # s = 0 (w = 0) still needs a valid gamma
            sg.refresh_gammas(graph)
            # tied groups prune as one unit: every member adopts the group minimum
            gmin = np.full(s.size, np.inf)
            np.minimum.at(gmin, group, graph.gamma[alive])
            graph.gamma[alive] = gmin[group]
            return graph.gamma[alive]

        _, omega = group_update(self.w, self.group_omega, hess, group, hard_gammas,
                                config.omega_floor, config.s_cap)
        self.omega[alive] = omega[group]

    def prune(self):
        """Entropy prune, then the cascade: edges without in-flow die, and
        after an entropy kill so do edges on no path to the output (their
        curvature is zero, so the entropy rule alone never removes them).
        A prune that leaves the output unreachable is rolled back and marks
        the graph degenerate, which stops the run."""
        graph = self.model
        before = graph.alive.copy()
        mask = sg.entropy_prune_mask(graph, self.config.prune_threshold)
        sg.apply_prune_mask(graph, mask)
        report = sg.propagate_dependency_prune(graph)
        if report.degenerate:
            graph.alive[:] = before
            graph.degenerate = True
            return 0, 0, True
        cascade = len(report.cascade_killed)
        if mask:
            live = sg.reachable_nodes(graph, reverse=True)
            dead_end = [eid for eid in graph.alive_edge_ids() if graph.dst[eid] not in live]
            sg.apply_prune_mask(graph, dead_end)
            cascade += len(dead_end)
        self._gather()
        return len(mask), cascade, False

    def finish(self, data, run):
        """With retrain epochs, freeze the alive scalars at 1 and retrain the
        op weights; without, the graph keeps the scalars it searched."""
        graph = self.model
        if self.config.retrain_epochs > 0:
            graph.w[graph.alive] = 1.0
            _retrain(self, data, run, int(np.count_nonzero(graph.alive)))
        run.report["degenerate"] = graph.degenerate
        run.report["alive_edges"] = graph.alive_edge_ids()


def _search(graph, data, config, groups, mode, trace):
    config.validate()
    if not graph.gate_map:
        sg.insert_zero_gates(graph)
    if groups is None:
        groups = [GroupSpec(eid, [eid]) for eid in range(len(graph.ops))]
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
    all of its patterns' slab groups; a weight is zero-masked as soon as any
    of its groups dies, so a dead group's norm is 0.  A compressed layer
    without a mask gets one at its first prune: until then every weight is
    alive, and no step multiplies by ones.

    With no patterns it is plain weight-decayed training of the stack."""

    def __init__(self, net, patterns, config, kind):
        self.model, self.config, self.kind = net, config, kind
        self.states = {}  # layer index -> HyperState
        for li, names in patterns.items():
            if net[li].weights is None:
                raise ValueError(f"layer {li} has no weights to compress")
            self.states[li] = HyperState.init(net[li].weights.shape, names)
        self.velocity = {}
        self._penalty_terms()

    def _penalty_terms(self):
        # formed whenever omega changes, read by every training batch
        self.terms = {li: slab_penalty_terms(state, self.config.lambda_w)
                      for li, state in self.states.items()}

    def gammas(self):
        """Every group's gamma and alive flag, layer by layer."""
        states = self.states.values()
        return (np.concatenate([np.zeros(0)] + [state.gamma for state in states]),
                np.concatenate([np.zeros(0, bool)] + [state.alive for state in states]))

    def train_batch(self, x, y):
        net, config = self.model, self.config
        out, caches = nn.forward(net, x)
        loss, e_grad = nn.energy(out, y, self.kind)
        grads, _ = nn.backward(net, caches, e_grad, input_grad=False)
        del out, caches  # the forward state is dead before the weight-side update
        decay = 2.0 * config.weight_decay
        for li, item in enumerate(grads):
            if item is None:
                continue
            gw, w = item[0], net[li].weights  # gw is fresh from nn.backward
            if li in self.terms:
                state = self.states[li]
                pen, factor = slab_l2_penalty(w, state, self.terms[li], decay)
                loss += pen
                gw += (w.reshape(state.view) * factor).reshape(gw.shape)
            else:
                gw += decay * w
        _step_layers(net, grads, self.velocity, (), config)
        return loss

    retrain_batch = train_batch

    def update(self, x, y):
        """Layer curvature, summed over `batch_size` slices of (x, y), then
        the structural rule on every state."""
        net, config = self.model, self.config
        hess = self.weight_curvature(x, y)
        for li, state in self.states.items():
            structural_update(net[li].weights, state, hess[li],
                              config.omega_floor, config.s_cap)
        self._penalty_terms()

    def weight_curvature(self, x, y):
        """Weight-Hessian diagonal of every compressed layer on the batch
        (x, y), run batch_size rows at a time so that no more samples are
        held at once than in a training step.

        Each slice's diagonal carries its own 1/len(slice) energy factor,
        in the seed and in every grad_out, and the recursion is linear in
        both; so the slices, weighted by len(slice)/len(x), sum to the
        one-shot diagonal up to summation order.  A batch that fits in one
        slice takes the one-shot arithmetic bit for bit."""
        size, total = self.config.batch_size, {}
        for start in range(0, len(x), size):
            rows = slice(start, start + size)
            part = self._slice_curvature(x[rows], y[rows])
            share = len(x[rows]) / len(x)
            for li, diag in part.items():
                if li in total:
                    total[li] += diag * share
                else:
                    total[li] = diag * share
        return total

    def _slice_curvature(self, x, y):
        # its own frame, so one slice's caches are gone before the next runs;
        # a relu/identity stack has no curved layer and runs no backward pass
        net = self.model
        out, caches = nn.forward(net, x)
        if curved_layers(net):
            _, e_grad = nn.energy(out, y, self.kind)
            nn.backward(net, caches, e_grad, input_grad=False)
        mode = "exact" if self.config.hessian_mode == "exact" else "diag"
        curv = network_curvature(net, caches, y, self.kind, mode)
        return {li: curv.weight_diag[li] for li in self.states}

    def prune(self):
        net, killed = self.model, 0
        for li, state in self.states.items():
            dead = state.alive & (state.gamma <= self.config.prune_threshold)
            mask = self._mask(li).reshape(state.view)
            for _, block, group_shape in state.slabs:
                mask = np.where(dead[block].reshape(group_shape), 0.0, mask)
            net[li].mask = mask.reshape(net[li].weights.shape)
            state.alive &= ~dead
            killed += int(np.count_nonzero(dead))
            if not np.any(net[li].mask):
                raise RuntimeError(f"network severed: layer {li} is fully pruned")
        return killed, 0, False

    def _mask(self, li):
        mask = self.model[li].mask
        return np.ones(self.model[li].weights.shape) if mask is None else mask

    def finish(self, data, run):
        """Retrain the survivors, each epoch with a history row."""
        net = self.model
        if self.config.retrain_epochs > 0:
            retrain_pruned(net, data, self.config, run, int(np.count_nonzero(self.gammas()[1])))
        for li in self.states:  # every compressed layer leaves with a mask
            net[li].mask = self._mask(li)
        run.report["widths"] = surviving_widths(net)
        run.report["param_ratio"] = _surviving_param_ratio(net)


def run_compression(net, data, config, patterns):
    """Structured-sparsity compression of a layer stack.

    patterns maps layer index -> list of pattern names (see slab_axes);
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


def live_group_count(net, patterns):
    """Groups of `patterns` (layer index -> pattern names) whose slab keeps
    an unmasked weight: for unit patterns (row, column, filter) the alive
    groups that a compression left, read back from the masks alone."""
    count = 0
    for li, names in patterns.items():
        layer = net[li]
        state = HyperState.init(layer.weights.shape, names)
        kept = (layer.mask != 0 if layer.mask is not None
                else np.ones(layer.weights.shape, bool)).reshape(state.view)
        count += sum(int(np.count_nonzero(kept.any(axis=axes))) for axes, _, _ in state.slabs)
    return count


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
