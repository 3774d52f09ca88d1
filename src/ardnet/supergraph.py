"""Over-parameterized search DAG.

Nodes carry tensors, edges carry one candidate operation each plus the
architecture scalar w and its variance chain (s, gamma, omega, c, hess).
A node's state is the w-weighted sum of its alive incoming edge outputs;
nodes themselves apply no nonlinearity.  Gate edges implement the
prioritized zero operation: one identity edge guarding each non-input
node's entire fan-out, whose switch variance enters every downstream
gamma harmonically.

The curvature of the energy w.r.t. each w comes from the same backward
walk that trains w: exact mode contracts per-sample Jacobians d out / d w_e,
one walk per output dimension, against the energy Hessian (Gauss-Newton),
on every op kind; approx mode pulls a diagonal back through the ops.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .curvature import propagate_curvature

__all__ = [
    "OP_TAGS",
    "Op",
    "make_op",
    "Edge",
    "SuperGraph",
    "PruneReport",
    "topo_order",
    "graph_forward",
    "graph_backward",
    "op_cache",
    "arch_scalar_hessian",
    "gamma_of_edge",
    "refresh_gammas",
    "entropy_prune_mask",
    "apply_prune_mask",
    "reachable_nodes",
    "propagate_dependency_prune",
    "restore_widest_path",
    "insert_zero_gates",
    "export_architecture",
    "import_architecture",
]

OP_TAGS = ("identity", "fc", "conv3x3", "conv5x5", "maxpool", "avgpool", "zero_gate")


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One candidate operation: a pure map with vjp and curvature backmap.

    identity / zero_gate pass tensors through; every other tag is backed by
    a frozen single-layer template from the network core.
    """

    tag: str
    layers: list | None = None

    def __post_init__(self):
        if self.tag not in OP_TAGS:
            raise ValueError(f"unknown op tag {self.tag!r}")

    def apply(self, z):
        """Returns (output, cache); cache feeds vjp / hess_backmap."""
        if self.tag in ("identity", "zero_gate"):
            return z, None
        if self.layers is None:
            raise ValueError(f"op {self.tag!r} is a topology stub and cannot run")
        out, caches = nn.forward(self.layers, z)
        return out, caches

    def vjp(self, cache, g):
        if self.tag in ("identity", "zero_gate"):
            return g
        _, gx = nn.backward(self.layers, cache, g)
        return gx

    def hess_backmap(self, cache, h_out):
        """Diagonal output-curvature -> diagonal input-curvature."""
        if self.tag in ("identity", "zero_gate"):
            return h_out
        _, h_in = propagate_curvature(self.layers, cache, h_out, mode="diag")
        return h_in


def make_op(tag, rng=None, dims=None, channels=None, matrix=None):
    """Build an op from its tag.

    fc needs matrix=(d_out, d_in) or dims=(d_in, d_out) with an rng;
    conv3x3/conv5x5 need channels=(c_in, c_out) and an rng (same-padding,
    spatial shape preserved); pools are 2x2 stride-1 windows.
    """
    if tag in ("identity", "zero_gate"):
        return Op(tag)
    if tag == "fc":
        if matrix is not None:
            layer = nn.Layer("fc", weights=np.asarray(matrix, dtype=np.float64))
        elif dims is not None and rng is not None:
            layer = nn.fc_layer(dims[0], dims[1], rng=rng, bias=False)
        else:
            raise ValueError("fc op needs matrix= or (dims=, rng=)")
        return Op(tag, [layer])
    if tag in ("conv3x3", "conv5x5"):
        k = 3 if tag == "conv3x3" else 5
        if channels is None or rng is None:
            raise ValueError(f"{tag} op needs channels=(c_in, c_out) and rng=")
        layer = nn.conv_layer(channels[0], channels[1], k, padding=k // 2,
                              rng=rng, bias=False)
        return Op(tag, [layer])
    if tag == "maxpool":
        return Op(tag, [nn.pool_layer("maxpool2d", 2, 1)])
    if tag == "avgpool":
        return Op(tag, [nn.pool_layer("avgpool2d", 2, 1)])
    raise ValueError(f"unknown op tag {tag!r}")


# ---------------------------------------------------------------------------
# graph structure


@dataclass
class Edge:
    """One (source, target, operation) slot with its variance chain."""

    src: int
    dst: int
    op: Op
    w: float = 1.0
    s: float = 1.0
    gamma: float = 1.0
    omega: float = 0.0
    c: float = 1.0
    hess: float = 0.0
    alive: bool = True
    is_gate: bool = False
    killed_by: str | None = None  # "entropy" or "cascade" once dead


@dataclass
class SuperGraph:
    """Nodes 0..n_nodes-1 joined by edges, alive or pruned.

    `order` is the topological order of all nodes.  Only `__post_init__`
    and `insert_zero_gates` write the edge list or an edge's src/dst, and
    both recompute it; a prune changes `alive` only, never the order.  The
    alive adjacency is cached in a `_Plan` keyed on the alive flags.
    """

    n_nodes: int
    edges: list
    input_node: int = 0
    output_node: int | None = None
    gate_map: dict = field(default_factory=dict)      # guarded node -> gate edge id
    gate_node_of: dict = field(default_factory=dict)  # auxiliary node -> guarded node
    degenerate: bool = False
    order: list = field(init=False, repr=False)
    _plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.output_node is None:
            self.output_node = self.n_nodes - 1
        for eid, e in enumerate(self.edges):
            if not (0 <= e.src < self.n_nodes and 0 <= e.dst < self.n_nodes):
                raise ValueError(f"edge {eid} references a node outside the graph")
            if e.src == e.dst:
                raise ValueError(f"edge {eid} is a self-loop")
        self.order = topo_order(self)  # raises on cycles

    def in_edges(self, node, alive_only=True):
        return [eid for eid, e in enumerate(self.edges)
                if e.dst == node and (e.alive or not alive_only)]

    def out_edges(self, node, alive_only=True):
        return [eid for eid, e in enumerate(self.edges)
                if e.src == node and (e.alive or not alive_only)]

    def alive_edge_ids(self):
        return [eid for eid, e in enumerate(self.edges) if e.alive]


def topo_order(graph):
    """Deterministic topological order of all node ids; raises on cycles."""
    sorter = graphlib.TopologicalSorter()
    for node in range(graph.n_nodes):
        sorter.add(node)
    for e in graph.edges:
        sorter.add(e.dst, e.src)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError as err:
        raise ValueError(f"graph contains a cycle: {err.args[1]}") from None


@dataclass
class _Plan:
    """Alive adjacency of a graph, valid while its alive flags equal `key`.

    Edge-id lists are ascending.  `steps` holds, for each non-input node in
    topological order, (node, [(edge id, edge, source node, layer), ...])
    over its alive in-edges; layer is the op's fc layer when the op is one
    plain matrix, else None.  The layer, not its weights, is kept, because
    retraining replaces `layer.weights`.
    """

    key: list
    ins: list      # node -> alive in-edge ids
    outs: list     # node -> alive out-edge ids
    fan_out: list  # node -> every out-edge id, alive or not
    steps: list


def _matrix_layer(op):
    """The op's layer when it is one fc map with no bias, mask or activation."""
    if op.tag != "fc" or not op.layers or len(op.layers) != 1:
        return None
    layer = op.layers[0]
    plain = layer.bias is None and layer.mask is None and layer.activation == "identity"
    return layer if layer.kind == "fc" and plain else None


def _plan(graph):
    """The graph's plan, rebuilt when an alive flag or the edge count changed
    (code may write `edge.alive` directly)."""
    edges = graph.edges
    key = [e.alive for e in edges]
    plan = graph._plan
    if plan is not None and plan.key == key:
        return plan
    ins, outs, fan_out = ([[] for _ in range(graph.n_nodes)] for _ in range(3))
    for eid, e in enumerate(edges):
        fan_out[e.src].append(eid)
        if e.alive:
            ins[e.dst].append(eid)
            outs[e.src].append(eid)
    steps = [(node, [(eid, edges[eid], edges[eid].src, _matrix_layer(edges[eid].op))
                     for eid in ins[node]])
             for node in graph.order if node != graph.input_node]
    graph._plan = _Plan(key, ins, outs, fan_out, steps)
    return graph._plan


# ---------------------------------------------------------------------------
# forward / backward / curvature


@dataclass
class GraphCache:
    """What one forward walk leaves for the backward walk and the curvature.

    Lists run over node ids (node_z, node_g) and edge ids (edge_out,
    edge_cache), holding None where nothing flowed.  A plain matrix edge
    keeps no op cache; `op_cache` builds it when a reader needs one.
    """

    plan: _Plan
    w: np.ndarray | list  # edge id -> architecture scalar the walk used
    node_z: list          # node id -> state tensor
    edge_out: list        # edge id -> op output tensor (before w scaling)
    edge_cache: list      # edge id -> op-internal cache
    node_g: list | None = None  # node id -> dE/dz_node, set by graph_backward


def _non_finite(eid, e):
    return FloatingPointError(f"non-finite output of edge {eid} ({e.op.tag})")


def _first_non_finite(steps, edge_out):
    """The error naming a node's first plain matrix in-edge with a non-finite
    output, or None when every such output is finite."""
    for eid, e, _, layer in steps:
        out = edge_out[eid]
        if layer is not None and out is not None and not np.isfinite(out).all():
            return _non_finite(eid, e)
    return None


def graph_forward(graph, x, w=None):
    """Topological evaluation; returns (output tensor, GraphCache).

    z_node is the sum over alive in-edges of w_e * op_e(z_src), with w an
    array over edge ids (the edges' own w when None); a node with no
    information flow holds None and its out-edges are skipped.  A plain
    matrix op runs as one matmul; a node checks its sum once, and a
    non-finite sum names the first such in-edge whose output is non-finite
    (a sum that overflowed from finite outputs is left to the next check
    downstream).  Other ops check their own outputs in `nn.forward`.
    """
    plan = _plan(graph)
    if w is None:
        w = [e.w for e in graph.edges]
    node_z = [None] * graph.n_nodes
    node_z[graph.input_node] = np.asarray(x, dtype=np.float64)
    edge_out = [None] * len(graph.edges)
    edge_cache = [None] * len(graph.edges)
    for node, steps in plan.steps:
        total, matrix = None, False
        for eid, e, src, layer in steps:
            z = node_z[src]
            if z is None:
                continue
            if layer is None:
                try:
                    out, edge_cache[eid] = e.op.apply(z)
                except FloatingPointError:
                    raise _first_non_finite(steps, edge_out) or _non_finite(eid, e) from None
            else:
                out = z @ layer.weights.T
                matrix = True
            edge_out[eid] = out
            term = w[eid] * out
            total = term if total is None else total + term
        # the sum of squares is finite only if every entry is (it also
        # overflows on entries above 1e154, which the closer look clears)
        if matrix and not math.isfinite(np.vdot(total, total)):
            err = _first_non_finite(steps, edge_out)
            if err is not None:
                raise err
        node_z[node] = total
    if node_z[graph.output_node] is None:
        raise ValueError("output node receives no information flow")
    return node_z[graph.output_node], GraphCache(plan, w, node_z, edge_out, edge_cache)


def graph_backward(graph, gcache, grad_output):
    """Reverse accumulation over the edges the forward pass ran.

    Returns (array over edge ids of dE/dw, 0.0 where the edge did not run;
    list node id -> dE/dz_node or None), and keeps the node gradients in
    the cache.  The products g * op output that are C-ordered and shaped
    like the output gradient are reduced in one sum, which equals their own
    sums bit for bit; any other product keeps its own sum.
    """
    plan, w, edge_out, edge_cache = gcache.plan, gcache.w, gcache.edge_out, gcache.edge_cache
    node_g = [None] * len(gcache.node_z)
    g_out = node_g[graph.output_node] = np.asarray(grad_output, dtype=np.float64)
    prods = np.zeros((len(edge_out),) + g_out.shape)
    own = {}  # edge id -> its own product sum
    for node, steps in reversed(plan.steps):
        g = node_g[node]
        if g is None:
            continue
        batched = g.shape == g_out.shape and g.flags.c_contiguous
        for eid, e, src, layer in steps:
            out = edge_out[eid]
            if out is None:  # its source carried no information flow
                continue
            if batched and out.flags.c_contiguous:
                np.multiply(g, out, out=prods[eid])
            else:
                own[eid] = (g * out).sum()
            if layer is None:
                gx = w[eid] * e.op.vjp(edge_cache[eid], g)
            else:
                gx = w[eid] * (g @ layer.weights)
            prev = node_g[src]
            node_g[src] = gx if prev is None else prev + gx
    w_grads = prods.sum(axis=tuple(range(1, prods.ndim)))
    for eid, value in own.items():
        w_grads[eid] = value
    gcache.node_g = node_g
    return w_grads, node_g


def op_cache(graph, gcache, eid):
    """The `nn` cache of an edge's op after a walk (None if it did not run).

    A plain matrix edge stores none; its cache is built from the walk's
    tensors, with the gradient that graph_backward left at its target.
    """
    e = graph.edges[eid]
    out = gcache.edge_out[eid]
    if out is None or _matrix_layer(e.op) is None:
        return gcache.edge_cache[eid]
    g_dst = None if gcache.node_g is None else gcache.node_g[e.dst]
    return [nn.LayerCache(x=gcache.node_z[e.src], preact=out, out=out, grad_out=g_dst)]


def arch_scalar_hessian(graph, gcache, h_seed, mode="exact"):
    """Per-edge curvature of the energy w.r.t. each architecture scalar w.

    exact mode is the Gauss-Newton rule sum_b J_b^T H_b J_b against the
    full energy Hessian seed (b, n, n).  J_e[b, k] = d out[b, k] / d w_e is
    the sum over sample b's features of node_g[dst] * (op output of e),
    with node_g from one graph_backward seeded with the one-hot e_k per
    output dimension k; those passes overwrite the cache's backward state.  It
    runs on every op kind and is the exact second derivative wherever the
    output is linear in w_e along the downstream ops (relu and maxpool
    almost everywhere).  approx mode runs the element-wise diagonal
    recursion, needs graph_backward run on gcache first, and reduces each
    edge to (mean |op output|)^2 times the summed downstream diagonal.
    h_seed carries the 1/batch factor.
    """
    edges, edge_out = graph.edges, gcache.edge_out
    if mode == "exact":
        if h_seed.ndim != 3:
            raise ValueError("exact mode needs per-sample full Hessian seeds (b, n, n)")
        out = gcache.node_z[graph.output_node]
        b, n = h_seed.shape[:2]
        grads = [graph_backward(graph, gcache, np.tile(e_k, (b, 1)).reshape(out.shape))[1]
                 for e_k in np.eye(n)]
        jac = np.zeros((b, len(edges), n))  # [b, e, k] = d out[b, k] / d w_e
        for node, ins in enumerate(gcache.plan.ins):
            if grads[0][node] is None:  # no path to the output
                continue
            g = np.stack([node_g[node] for node_g in grads]).reshape(n, b, -1)
            for eid in ins:
                if edge_out[eid] is not None:
                    jac[:, eid] = np.einsum("kbf,bf->bk", g, edge_out[eid].reshape(b, -1))
        curv = np.einsum("bei,bei->e", jac @ h_seed, jac).tolist()
        return {eid: curv[eid] for eid in graph.alive_edge_ids()}
    if mode != "approx":
        raise ValueError(f"unknown arch-hessian mode {mode!r}")
    # one backward sweep over the topological order: per node, the sum of
    # the diagonal curvature its out-edges pull back from their targets
    w, outs = gcache.w, gcache.plan.outs
    down = [None] * graph.n_nodes
    down[graph.output_node] = h_seed
    for node in reversed(graph.order):
        if node == graph.output_node or gcache.node_z[node] is None:
            continue
        acc = None
        for eid in outs[node]:
            e = edges[eid]
            if down[e.dst] is None:
                continue
            term = w[eid]**2 * e.op.hess_backmap(op_cache(graph, gcache, eid), down[e.dst])
            acc = term if acc is None else acc + term
        down[node] = acc
    hess = {}
    for eid in graph.alive_edge_ids():
        d, u = down[edges[eid].dst], edge_out[eid]
        hess[eid] = 0.0 if d is None or u is None else float(np.mean(np.abs(u)) ** 2 * np.sum(d))
    return hess


# ---------------------------------------------------------------------------
# variance algebra and pruning


def gamma_of_edge(graph, eid):
    """Harmonic dependency variance of one edge.

    1/gamma = 1/s_gate + 1/(sum of predecessor switches) + 1/s_edge, with
    the gate term present only when the edge leaves a gated fan-out and the
    predecessor term dropped at the input-node boundary.
    """
    e = graph.edges[eid]
    if e.s <= 0:
        raise ValueError(f"edge {eid} has non-positive switch variance {e.s}")
    inv = 1.0 / e.s
    src = e.src
    if src in graph.gate_node_of:
        guarded = graph.gate_node_of[src]
        gate = graph.edges[graph.gate_map[guarded]]
        if gate.s <= 0:
            raise ValueError(f"gate of node {guarded} has non-positive switch {gate.s}")
        inv += 1.0 / gate.s
        src = guarded  # predecessor mass lives on the guarded node
    if src != graph.input_node:
        pred = 0.0
        for pid in _plan(graph).ins[src]:
            p = graph.edges[pid]
            if p.is_gate:
                continue
            if p.s <= 0:
                raise ValueError(f"edge {pid} has non-positive switch variance {p.s}")
            pred += p.s
        if pred > 0:
            inv += 1.0 / pred
        else:
            return 0.0  # no alive in-flow: the edge is dead weight
    return 1.0 / inv


def refresh_gammas(graph):
    for eid in graph.alive_edge_ids():
        graph.edges[eid].gamma = gamma_of_edge(graph, eid)
    return graph


def entropy_prune_mask(graph, threshold=None):
    """Edges whose dependency variance has nonpositive Gaussian entropy."""
    from .updates import ENTROPY_PRUNE_THRESHOLD
    thr = ENTROPY_PRUNE_THRESHOLD if threshold is None else threshold
    return {eid for eid in graph.alive_edge_ids()
            if graph.edges[eid].gamma <= thr}


def apply_prune_mask(graph, mask, reason="entropy"):
    for eid in mask:
        e = graph.edges[eid]
        if e.alive:
            e.alive = False
            e.killed_by = reason
    return graph


@dataclass
class PruneReport:
    entropy_killed: list
    cascade_killed: list
    degenerate: bool = False


def reachable_nodes(graph, reverse=False):
    """Nodes joined to the input node by a path of alive edges or, with
    reverse=True, nodes with such a path to the output node.

    One sweep: alive edges taken in topological order of their tail (the
    source going forward, the target going back) reach every head whose
    tail is already reached.
    """
    pos = {node: i for i, node in enumerate(graph.order)}
    if reverse:
        hops = sorted(((e.dst, e.src) for e in graph.edges if e.alive),
                      key=lambda hop: -pos[hop[0]])
        seen = {graph.output_node}
    else:
        hops = sorted(((e.src, e.dst) for e in graph.edges if e.alive),
                      key=lambda hop: pos[hop[0]])
        seen = {graph.input_node}
    for tail, head in hops:
        if tail in seen:
            seen.add(head)
    return seen


def propagate_dependency_prune(graph, entropy_killed=()):
    """Cascade: kill every alive edge whose source has no alive in-flow.

    Reachability from the input over alive edges is the fixpoint of the
    node-isolation rule, so one forward sweep suffices, and killing the
    edges it leaves out cannot change it.  Returns a report listing entropy-
    and cascade-killed edges separately.
    """
    reach = reachable_nodes(graph)
    cascade = [eid for eid in graph.alive_edge_ids() if graph.edges[eid].src not in reach]
    apply_prune_mask(graph, cascade, reason="cascade")
    return PruneReport(sorted(entropy_killed), sorted(cascade),
                       graph.output_node not in reach)


def restore_widest_path(graph):
    """Revive the input->output path with the largest bottleneck gamma.

    Fallback for a fully disconnected prune; marks the graph degenerate.
    Returns the list of revived edge ids.
    """
    fan_out = _plan(graph).fan_out
    best = {graph.input_node: np.inf}
    back = {}
    for node in graph.order:
        if node not in best:
            continue
        for eid in fan_out[node]:
            e = graph.edges[eid]
            cand = min(best[node], e.gamma)
            if cand > best.get(e.dst, -np.inf):
                best[e.dst] = cand
                back[e.dst] = eid
    if graph.output_node not in back:
        raise ValueError("no input->output path exists in the graph at all")
    path = []
    node = graph.output_node
    while node != graph.input_node:
        eid = back[node]
        path.append(eid)
        node = graph.edges[eid].src
    path.reverse()
    for eid in path:
        e = graph.edges[eid]
        e.alive = True
        e.killed_by = None
    graph.degenerate = True
    return path


# ---------------------------------------------------------------------------
# zero gates


def insert_zero_gates(graph):
    """Guard every non-input node's fan-out with a single identity gate.

    Node j with outgoing edges gains an auxiliary node j'; a gate edge
    j -> j' (w = s = 1) is inserted and j's outgoing edges are re-pointed
    to originate at j'.
    """
    if graph.gate_map:
        raise ValueError("zero gates already inserted")
    original_nodes = list(range(graph.n_nodes))
    for node in original_nodes:
        if node == graph.input_node:
            continue
        fan_out = graph.out_edges(node, alive_only=False)
        if not fan_out:
            continue
        aux = graph.n_nodes
        graph.n_nodes += 1
        gate = Edge(node, aux, make_op("zero_gate"), w=1.0, s=1.0, is_gate=True)
        graph.edges.append(gate)
        gate_id = len(graph.edges) - 1
        for eid in fan_out:
            graph.edges[eid].src = aux
        graph.gate_map[node] = gate_id
        graph.gate_node_of[aux] = node
    graph.order = topo_order(graph)
    graph._plan = None  # edges were re-pointed
    return graph


# ---------------------------------------------------------------------------
# export


def export_architecture(graph):
    """Plain-dict record of the final topology, ops and (w, gamma, s)."""
    alive = graph.alive_edge_ids()
    return {
        "schema_version": "1",
        "n_nodes": graph.n_nodes,
        "input_node": graph.input_node,
        "output_node": graph.output_node,
        "degenerate": bool(graph.degenerate or not alive),
        "gate_map": {str(k): v for k, v in graph.gate_map.items()},
        "gate_node_of": {str(k): v for k, v in graph.gate_node_of.items()},
        "edges": [
            {
                "id": eid,
                "src": e.src,
                "dst": e.dst,
                "op": e.op.tag,
                "w": float(e.w),
                "gamma": float(e.gamma),
                "s": float(e.s),
                "alive": bool(e.alive),
                "is_gate": bool(e.is_gate),
            }
            for eid, e in enumerate(graph.edges)
        ],
    }


def import_architecture(record):
    """Rebuild a SuperGraph (topology + op tags) from export_architecture.

    Layer-backed ops come back as topology stubs: the frozen weights are
    not serialized, so the imported graph reproduces structure, not
    numerics.
    """
    edges = [Edge(rec["src"], rec["dst"], Op(rec["op"]), w=rec["w"], s=rec["s"],
                  gamma=rec["gamma"], alive=rec["alive"], is_gate=rec["is_gate"])
             for rec in record["edges"]]
    return SuperGraph(
        n_nodes=record["n_nodes"],
        edges=edges,
        input_node=record["input_node"],
        output_node=record["output_node"],
        gate_map={int(k): v for k, v in record.get("gate_map", {}).items()},
        gate_node_of={int(k): v for k, v in record.get("gate_node_of", {}).items()},
        degenerate=record.get("degenerate", False),
    )
