"""End-to-end search and compression through one alternation driver.

`_alternate` trains for a few epochs under the reweighted group penalty,
measures curvature on a held-out batch, updates the variance chain in
closed form, prunes by the entropy criterion and cascades, and repeats
until nothing is pruned and no gamma moves, or until a prune would sever
the graph, which it rolls back; then it retrains what survives if
`retrain_epochs` > 0, and reports the last history row's test error.  It
runs on `_EdgeSlots` (the tied architecture scalars of a SuperGraph, in
flat groups) or `_WeightSlots` (the slab groups of a layer stack, one
HyperState per layer).  The graph's arrays hold the search state.  A graph
search ends an iteration's epochs once the fit stops improving (EPOCH_TOL)
and trains through the loop `_build_loop` generates for its plan, which
holds the scalar state in Python floats and restarts the momentum of a
group whose velocity points uphill; every other SGD pass goes through
`_sgd_epoch`, and every layer step through `_momentum_step`, in place, with
plain momentum and every configured epoch.  Both gather each batch's rows
from one permutation per epoch and end the epoch in `_epoch_loss`.  A layer
stack's curvature update and test pass run `batch_size` rows at a time, so a
training batch, not the curvature batch or the test set, sets the peak
memory of a compression run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import supergraph as sg
from .curvature import curved_layers, network_curvature
from .updates import (EPOCH_TOL, GroupSpec, HyperState, SearchConfig, flat_groups,
                      group_update, slab_l2_penalty,
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
    return _epoch_loss([step(data.x_train.take(idx, axis=0), data.y_train.take(idx, axis=0))
                        for idx in batches])


def _epoch_loss(losses):
    """An epoch's mean batch loss; a non-finite batch loss raises."""
    if not np.all(np.isfinite(losses)):
        raise FloatingPointError("non-finite training loss; reduce the learning rate")
    return float(np.mean(losses))


def _momentum_step(value, grad, velocity, lr, momentum, mask=None):
    """The momentum rule of a layer step, in place: velocity = momentum *
    velocity - lr * grad, value += velocity, then value *= mask for a masked
    weight.  It never restarts a velocity: restarting each weight's velocity
    that points uphill keeps far more of a compressed layer alive, so only
    the search loop's scalar statements restart (`_scalar_source`).  grad is
    scaled in place, so the caller hands over a fresh array."""
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

    An iteration trains for at most epochs_per_iteration epochs.  Edge slots
    stop after the first epoch whose mean loss fell by less than EPOCH_TOL
    relative to the epoch before it (a rise counts as such a fall), since
    the fit between updates is all that the next one reads; weight slots run
    every epoch.  Each iteration's history row records the epochs it ran.
    trace, for edge slots, receives a snapshot of every edge per iteration.
    """
    rng = np.random.default_rng(config.seed)
    n_curv = min(config.curvature_batch, len(data.x_train))
    for t in range(1, config.t_max + 1):
        before, _ = slots.gammas()
        for epochs in range(1, config.epochs_per_iteration + 1):
            loss = slots.epoch(data, config.batch_size, rng)
            if slots.stops_on_plateau and epochs > 1 and prev - loss < EPOCH_TOL * prev:
                break
            prev = loss
        # curvature on a fresh held-out batch, once per iteration
        idx = rng.choice(len(data.x_train), size=n_curv, replace=False)
        slots.update(data.x_train[idx], data.y_train[idx])
        entropy_pruned, cascade_pruned, degenerate = slots.prune()
        gamma, alive = slots.gammas()
        if trace is not None:
            trace.append({"iteration": t, "edges": slots.snapshot()})
        values = gamma[alive]  # a prune only kills, so every one was alive before
        run.history_row(
            iteration=t, epoch=epochs, loss=loss,
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
    form, with their group's lambda_w * omega (`coef`); their velocity is a
    compact array over them, cut to the survivors at each prune.  Training
    runs the loop that `_build_loop` generates for the graph's plan and the
    members' grouping, built at the first epoch after an alive flag changed;
    it holds the scalars as floats and writes them back to the graph's array
    and the velocity when it returns or raises.
    """

    stops_on_plateau = True  # `_alternate` ends an iteration's epochs at EPOCH_TOL

    def __init__(self, graph, groups, config, kind):
        self.model, self.config, self.kind = graph, config, kind
        self.index, self.group = flat_groups(groups)
        self.velocity = {}  # of the op weights, when retraining
        self.pos, self.v = np.arange(self.index.size), np.zeros(self.index.size)
        self.omega = np.ones(len(graph.ops))
        self.loop_key = self.loop = None
        self._gather()

    def _gather(self):
        # positions of the alive members in the flat index; a prune only
        # kills, so the survivors keep their velocity
        pos = np.flatnonzero(self.model.alive[self.index])
        self.pos, self.v, self.alive = pos, self.v[np.isin(self.pos, pos)], self.index[pos]
        # every alive member of a group shares its omega; take the first's
        _, first, self.group_of = np.unique(self.group[pos], return_index=True,
                                            return_inverse=True)
        self.group_omega = self.omega[self.alive[first]]
        self.coef = self.config.lambda_w * self.group_omega

    def epoch(self, data, batch_size, rng):
        """One epoch over shuffled minibatches; returns the mean loss."""
        perm = rng.permutation(len(data.x_train))
        return _epoch_loss(self._train(data.x_train, data.y_train, perm, batch_size))

    def train_batch(self, x, y):
        """The same loop over the one batch (x, y); returns its loss."""
        x, y = np.asarray(x), np.asarray(y)
        return self._train(x, y, np.arange(len(x)), len(x))[0]

    def _train(self, xs, ys, perm, size):
        # the batch losses of the rows perm of (xs, ys), size rows a batch; the
        # loop is rebuilt when an alive flag changed; `_gather` regroups at a prune
        graph, config = self.model, self.config
        key = graph.alive.tobytes()
        if key != self.loop_key:
            self.loop = _build_loop(graph, self.alive.tolist(), self.group_of.tolist())
            self.loop_key = key
        return self.loop(graph.ops, xs, ys, perm, size, graph.w, self.alive, self.v,
                         self.coef.tolist(), self.kind, config.momentum, config.learning_rate)

    def gammas(self):
        """Every edge's gamma and alive flag, as arrays over edge ids."""
        return self.model.gamma.copy(), self.model.alive.copy()

    def snapshot(self):
        graph = self.model
        return dict(enumerate(zip(graph.w.tolist(), graph.s.tolist(), self.omega.tolist(),
                                  graph.gamma.tolist(), graph.alive.tolist())))

    def retrain_batch(self, x, y):
        # edge-id order: tied edges share one op's layers, so the order of
        # their steps sets the bits
        graph = self.model
        out, gcache = sg.graph_forward(graph, x)
        loss, e_grad = nn.energy(out, y, self.kind)
        trainable = [eid for eid in graph.alive_edge_ids() if graph.ops[eid].layers]
        if trainable:
            node_g = sg._node_grads(graph, gcache, e_grad)
            for eid in trainable:
                layers, cache = graph.ops[eid].layers, gcache.edge_cache[eid]
                g_dst = node_g[graph.dst[eid]]
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

        _, omega = group_update(graph.w[alive], self.group_omega, hess, group, hard_gammas,
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


def _names(prefix, ids):
    """The tuple of names prefix<id>, as source ("a1, a2, ")."""
    return "".join(f"{prefix}{i}, " for i in ids)


def _scalar_source(groups, rows):
    """One batch's scalar step as statements on floats: `groups` lists each
    group's member edge ids in member order, and `rows` maps a member that
    forms a product to its row, whose sum the statements read as `s[row]`.

    They read each member's `w<edge>` and `v<edge>` and each group's lambda_w
    * omega `k<group>`, and repeat the array step's float operations in its
    order: the norm `n<group>` sums the squares in member order (bincount
    starts at 0.0, which changes no square), a member's penalty gradient
    `p<edge>` is k * w / n and 0.0 at a zero norm, the tie sums from 0.0 the
    members' penalty gradients plus their product sums (0.0 without a row),
    a member whose velocity points uphill (tie * v > 0) restarts from v =
    0.0, then v = v * momentum - tie * lr and w = w + v; `pen` adds k * n
    to 0.0 one group at a time, in group order.  Tied members share
    the tie and the velocity, so a group restarts as one and its members
    stay bitwise equal.  The restart is a per-coordinate form of the
    gradient restart of O'Donoghue and Candes (2015): momentum that carries
    a scalar past its fit is dropped at the first batch that pulls it back.
    """
    lines = []
    for gi, members in enumerate(groups):
        lines.append(f"n{gi} = sqrt(" + " + ".join(f"w{e} * w{e}" for e in members) + ")")
        lines += [f"p{e} = k{gi} * w{e} / n{gi} if n{gi} > 0 else 0.0" for e in members]
        lines.append("t = 0.0 + " + " + ".join(
            f"(p{e} + {f's[{rows[e]}]' if e in rows else '0.0'})" for e in members))
        lines += [f"if t * v{e} > 0: v{e} = 0.0" for e in members]
        lines += [f"v{e} = v{e} * m - t * lr; w{e} = w{e} + v{e}" for e in members]
    lines.append("pen = 0.0" + "".join(f" + k{gi} * n{gi}" for gi in range(len(groups))))
    return lines


def _build_loop(graph, members, group_of):
    """Generate and compile the search's training loop for the graph's
    current plan and the alive members `members` (edge ids in flat order)
    of the groups `group_of` (their group positions).

    loop(ops, xs, ys, perm, size, w, ids, v, coef, kind, momentum, lr) runs
    the batches perm[i : i + size] of (xs, ys) in order and returns their
    losses.  A batch gathers its rows with `take`, runs the plan's forward
    statements (`sg._walk_source`), `nn.energy`, the backward and product
    statements and one reduction of the product rows, then the scalar step
    (`_scalar_source`), and adds the penalty to the loss.  The scalars of
    w, the graph's array, and the members' velocity v are floats inside the
    loop, written back to w[ids] and v when it returns or raises, so a
    failure leaves the state of the last completed batch.  A product buffer
    is kept per output shape: a batch writes every row that it does not
    replace with its own sum.
    """
    walk = sg._walk_source(graph, sg._plan(graph))
    groups = [[] for _ in range(max(group_of, default=-1) + 1)]
    for eid, gi in zip(members, group_of):
        groups[gi].append(eid)
    prods = {}

    def buffer(shape):
        # the buffer, the axes its rows sum over, then each row
        B = np.zeros((len(walk.rows),) + shape)
        prods[shape] = found = (B, tuple(range(1, len(shape) + 1)), *B)
        return found

    head = walk.setup + [f"{names} = {value}" for names, value in (
        (_names("v", members), "v.tolist()"), (_names("k", range(len(groups))), "coef"))
        if names] + ["energy = nn.energy", "losses = []"]
    views = _names("B", range(len(walk.rows)))
    batch = (["idx = perm[i : i + size]", "x = xs.take(idx, axis=0)", "y = ys.take(idx, axis=0)"]
             + walk.forward
             + [f"loss, g = energy({walk.output}, y, kind)",
                f"B, axes, {views}= prods.get(g.shape) or buffer(g.shape)", "own = []"]
             + walk.backward + walk.products
             + ["s = B.sum(axis=axes).tolist()", "for row, value in own: s[row] = float(value)"]
             + _scalar_source(groups, {eid: row for row, eid in enumerate(walk.rows)})
             + ["losses.append(loss + pen)"])
    return sg._compile(
        "loop", "ops, xs, ys, perm, size, w, ids, v, coef, kind, m, lr",
        head + ["try:", "    for i in range(0, len(perm), size):"]
        + ["        " + line for line in batch]
        + ["finally:", f"    w[ids] = ({_names('w', members)})",
           f"    v[:] = ({_names('v', members)})", "return losses"],
        dict(sg._WALK_ENV, nn=nn, sqrt=math.sqrt, prods=prods, buffer=buffer))


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

    stops_on_plateau = False  # a compression iteration runs every epoch

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

    def epoch(self, data, batch_size, rng):
        """One epoch of `train_batch` over shuffled minibatches; returns the
        mean loss."""
        return _sgd_epoch(self.train_batch, data, batch_size, rng)

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
