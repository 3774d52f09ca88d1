"""Over-parameterized search DAG.

Nodes carry tensors, edges carry one candidate operation each.  The graph
holds the search state as arrays over edge ids (architecture scalar w,
switch s, dependency variance gamma, alive), beside the topology (src,
dst, ops, is_gate); `Edge` is the frozen record it is built from and read
back as.  A node's state is the w-weighted sum of its alive in-edge outputs;
nodes themselves apply no nonlinearity.  Gate edges implement the
prioritized zero operation: one identity edge guarding each non-input
node's entire fan-out, whose switch variance enters every downstream
gamma harmonically.

The curvature of the energy w.r.t. each w comes from backward walks: one
Gauss-Newton rule contracts per-sample Jacobians d out / d w_e, one walk
per output dimension, against the full energy Hessian, on every op kind.

`graph_forward` is the plain interpreted forward walk (data generation,
evaluation, curvature, retraining): every op runs through `Op.apply`.
Every backward walk runs one set of generated statements (`_walk_source`),
one per edge and per node, from a plan that holds the alive adjacency
only: a search's training loop inlines them beside the plan's forward
statements, and `_node_grads` compiles them once per plan for the
curvature, for retraining and for `graph_backward`; both compile through
`_compile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import nn
from .curvature import propagate_curvature  # noqa: F401  perfbench's smoke test pins it

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
    "arch_scalar_hessian",
    "refresh_gammas",
    "entropy_prune_mask",
    "apply_prune_mask",
    "reachable_nodes",
    "reach_along",
    "propagate_dependency_prune",
    "insert_zero_gates",
]

OP_TAGS = ("identity", "fc", "conv3x3", "maxpool", "avgpool", "zero_gate")
_PASS_TAGS = ("identity", "zero_gate")  # ops that pass their input through


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One candidate operation: a pure map with its vjp.

    identity / zero_gate pass tensors through; every other tag is backed by
    a frozen single-layer template from the network core.
    """

    tag: str
    layers: list | None = None

    def __post_init__(self):
        if self.tag not in OP_TAGS:
            raise ValueError(f"unknown op tag {self.tag!r}")

    def apply(self, z):
        """Returns (output, cache); cache feeds vjp."""
        if self.tag in _PASS_TAGS:
            return z, None
        if self.layers is None:
            raise ValueError(f"op {self.tag!r} is a topology stub and cannot run")
        out, caches = nn.forward(self.layers, z)
        return out, caches

    def vjp(self, cache, g):
        if self.tag in _PASS_TAGS:
            return g
        _, gx = nn.backward(self.layers, cache, g)
        return gx


def make_op(tag, rng=None, channels=None, matrix=None):
    """Build an op from its tag.

    fc needs matrix=(d_out, d_in); conv3x3 needs channels=(c_in, c_out) and
    an rng (same-padding, spatial shape preserved); pools are 2x2 stride-1
    windows.
    """
    if tag in _PASS_TAGS:
        return Op(tag)
    if tag == "fc":
        if matrix is None:
            raise ValueError("fc op needs matrix=")
        return Op(tag, [nn.Layer("fc", weights=np.asarray(matrix, dtype=np.float64))])
    if tag == "conv3x3":
        if channels is None or rng is None:
            raise ValueError("conv3x3 op needs channels=(c_in, c_out) and rng=")
        layer = nn.conv_layer(channels[0], channels[1], 3, padding=1, rng=rng, bias=False)
        return Op(tag, [layer])
    if tag == "maxpool":
        return Op(tag, [nn.pool_layer("maxpool2d", 2, 1)])
    if tag == "avgpool":
        return Op(tag, [nn.pool_layer("avgpool2d", 2, 1)])
    raise ValueError(f"unknown op tag {tag!r}")


# ---------------------------------------------------------------------------
# graph structure


@dataclass(frozen=True)
class Edge:
    """One (source, target, operation) slot and its search state, as a
    record: a graph is built from records and returns fresh ones."""

    src: int
    dst: int
    op: Op
    w: float = 1.0
    s: float = 1.0
    gamma: float = 1.0
    alive: bool = True
    is_gate: bool = False


# the edge fields a SuperGraph holds as arrays over edge ids (op is the list `ops`)
_EDGE_ARRAYS = {"src": np.intp, "dst": np.intp, "w": np.float64, "s": np.float64,
                "gamma": np.float64, "alive": bool, "is_gate": bool}


class SuperGraph:
    """Nodes 0..n_nodes-1 joined by edges, alive or pruned.

    Edge state is arrays over edge ids, written in place; `edges` reads them
    back as frozen records.  `order` is the topological order of all nodes.
    Only the constructor and `insert_zero_gates` add edges or move an edge's
    src/dst, and both recompute it; a prune changes `alive` only, never the
    order.  The alive adjacency is cached in a `_Plan` keyed on `alive`.
    """

    def __init__(self, n_nodes, edges, input_node=0, output_node=None,
                 gate_map=None, gate_node_of=None, degenerate=False):
        self.n_nodes = n_nodes
        self.input_node = input_node
        self.output_node = n_nodes - 1 if output_node is None else output_node
        self.gate_map = dict(gate_map or {})          # guarded node -> gate edge id
        self.gate_node_of = dict(gate_node_of or {})  # auxiliary node -> guarded node
        self.degenerate = degenerate  # a search stopped on a prune that severed it
        self._set_edges(edges)
        for name in ("input_node", "output_node"):
            if not 0 <= getattr(self, name) < n_nodes:
                raise ValueError(f"{name} {getattr(self, name)} is not a node of the graph")
        for eid, (src, dst) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise ValueError(f"edge {eid} references a node outside the graph")
            if src == dst:
                raise ValueError(f"edge {eid} is a self-loop")
        for node, eid in self.gate_map.items():
            if not (0 <= eid < len(self.ops) and self.is_gate[eid] and self.src[eid] == node
                    and self.gate_node_of.get(int(self.dst[eid])) == node):
                raise ValueError(f"gate_map entry {node}: {eid} is not a gate edge from "
                                 f"node {node} into its auxiliary node")
        if not len(self.gate_map) == len(self.gate_node_of) == self.is_gate.sum():
            raise ValueError("gate_map and gate_node_of need one entry per is_gate edge")
        self.order = topo_order(self)  # raises on cycles

    def _set_edges(self, edges):
        """Build the edge arrays from a sequence of records."""
        self.ops = [e.op for e in edges]
        columns = list(zip(*map(attrgetter(*_EDGE_ARRAYS), edges))) or [()] * len(_EDGE_ARRAYS)
        for (name, dtype), column in zip(_EDGE_ARRAYS.items(), columns):
            setattr(self, name, np.array(column, dtype))
        self._plan = None

    @property
    def edges(self):
        """Every edge as a frozen record of its current state, built on each read."""
        return tuple(map(Edge, self.src.tolist(), self.dst.tolist(), self.ops,
                         self.w.tolist(), self.s.tolist(), self.gamma.tolist(),
                         self.alive.tolist(), self.is_gate.tolist()))

    def in_edges(self, node):
        return np.flatnonzero(self.alive & (self.dst == node)).tolist()

    def alive_edge_ids(self):
        return np.flatnonzero(self.alive).tolist()


def topo_order(graph):
    """Deterministic topological order of all node ids; raises on cycles.

    Kahn's algorithm, first in first out: the nodes with no in-edge in id
    order, then each node's successors in edge-id order as they become
    ready (the order of `graphlib.TopologicalSorter.static_order`).
    """
    n_pred, succ = [0] * graph.n_nodes, [[] for _ in range(graph.n_nodes)]
    for src, dst in zip(graph.src.tolist(), graph.dst.tolist()):
        n_pred[dst] += 1
        succ[src].append(dst)
    order = [node for node in range(graph.n_nodes) if n_pred[node] == 0]
    for node in order:  # the list grows while it is read
        for nxt in succ[node]:
            n_pred[nxt] -= 1
            if n_pred[nxt] == 0:
                order.append(nxt)
    if len(order) < graph.n_nodes:
        stuck = sorted(set(range(graph.n_nodes)) - set(order))
        raise ValueError(f"graph contains a cycle: nodes {stuck} have no order")
    return order


@dataclass
class _Plan:
    """Alive adjacency of a graph, valid while its alive array's bytes
    equal `key`.

    `steps` holds, for each non-input node in topological order, (node,
    [(edge id, source node), ...]) over its alive in-edges in edge-id order.
    `walk` is compiled by `_node_grads`.
    """

    key: bytes
    steps: list
    walk: object = None


def _matrix_layer(op):
    """The op's layer when it is one fc map with no bias, mask or activation."""
    if op.tag != "fc" or not op.layers or len(op.layers) != 1:
        return None
    layer = op.layers[0]
    plain = layer.bias is None and layer.mask is None and layer.activation == "identity"
    return layer if layer.kind == "fc" and plain else None


def _plan(graph):
    """The graph's plan, rebuilt when an alive flag changed (code may write
    `graph.alive` directly)."""
    key = graph.alive.tobytes()
    plan = graph._plan
    if plan is not None and plan.key == key:
        return plan
    src, dst = graph.src.tolist(), graph.dst.tolist()
    ins = [[] for _ in range(graph.n_nodes)]
    for eid in np.flatnonzero(graph.alive).tolist():
        ins[dst[eid]].append((eid, src[eid]))
    steps = [(node, ins[node]) for node in graph.order if node != graph.input_node]
    graph._plan = _Plan(key, steps)
    return graph._plan


# ---------------------------------------------------------------------------
# forward / backward / curvature


@dataclass
class GraphCache:
    """What one forward walk leaves for the backward walk and the curvature.

    Lists run over node ids (node_z) and edge ids (edge_out, edge_cache),
    holding None where nothing flowed; edge_cache holds each op's `nn`
    caches, as `Op.apply` returns them.
    """

    plan: _Plan
    node_z: list      # node id -> state tensor
    edge_out: list    # edge id -> op output tensor (before w scaling)
    edge_cache: list  # edge id -> op-internal cache


def _raise_non_finite(ops, outs, eid=None):
    """Raises the error naming the first edge of outs, (edge id, op output)
    pairs with None for an edge that did not run, whose output is
    non-finite; if every output is finite, the error naming edge eid, or
    nothing when eid is None."""
    for e, out in outs:
        if out is not None and not np.isfinite(out).all():
            eid = e
            break
    if eid is not None:
        raise FloatingPointError(f"non-finite output of edge {eid} ({ops[eid].tag})") from None


def _no_flow():
    return ValueError("output node receives no information flow")


def graph_forward(graph, x):
    """Topological evaluation; returns (output tensor, GraphCache).

    z_node is the sum over alive in-edges of w_e * op_e(z_src), with w the
    graph's array; a node with no information flow holds None and its
    out-edges are skipped.  Every op runs through `Op.apply`, whose
    `nn.forward` checks its output: a non-finite output names its edge, and
    a sum that overflowed from finite outputs is left to the next check
    downstream.
    """
    plan, w, ops = _plan(graph), graph.w, graph.ops
    node_z = [None] * graph.n_nodes
    node_z[graph.input_node] = np.asarray(x, dtype=np.float64)
    edge_out = [None] * len(graph.ops)
    edge_cache = [None] * len(graph.ops)
    for node, steps in plan.steps:
        total = None
        for eid, src in steps:
            z = node_z[src]
            if z is None:
                continue
            try:
                out, edge_cache[eid] = ops[eid].apply(z)
            except FloatingPointError:
                _raise_non_finite(ops, (), eid)
            edge_out[eid] = out
            term = w[eid] * out
            total = term if total is None else total + term
        node_z[node] = total
    if node_z[graph.output_node] is None:
        raise _no_flow()
    return node_z[graph.output_node], GraphCache(plan, node_z, edge_out, edge_cache)


def graph_backward(graph, gcache, grad_output):
    """Reverse accumulation over the edges the forward pass ran.

    Returns (array over edge ids of dE/dw, 0.0 where the edge did not run;
    list node id -> dE/dz_node or None, None at the input node): the node
    gradients of the plan's walk (`_node_grads`), then each edge's sum of
    g * op output.  An op out of the input node, and a plain matrix op,
    runs no vjp, so its op cache keeps no grad_out.
    """
    node_g = _node_grads(graph, gcache, np.asarray(grad_output, dtype=np.float64))
    w_grads = np.zeros(len(graph.ops))
    for node, steps in gcache.plan.steps:
        g = node_g[node]
        for eid, _ in steps:
            out = gcache.edge_out[eid]
            if g is not None and out is not None:
                w_grads[eid] = (g * out).sum()
    return w_grads, node_g


# what the generated statements name besides their arguments: no graph object
_WALK_ENV = {"asarray": np.asarray, "float64": np.float64, "multiply": np.multiply,
             "all_finite": nn.all_finite, "non_finite": _raise_non_finite, "no_flow": _no_flow}


@dataclass
class _WalkSource:
    """A plan as Python statements, one per edge and per node, for the
    search loop to inline and `_node_grads` to compile (`_walk_source`).

    `setup` binds, from the graph's ops `ops` and scalar array `w`, each
    edge's scalar as the float `w<edge>`, each plain matrix layer's weights
    and transpose as `W<edge>` and `T<edge>`, and any other op as `A<edge>`.
    `forward` reads the input batch `x`, leaves op outputs `o<edge>` and
    caches `c<edge>`, and the graph's output in `output`, or raises when no
    flow reaches it.  `backward` reads the output gradient `g` and leaves
    dE/dz_node as `g<node>` at the nodes `grads`; `reads` binds the caches
    it reads from a forward walk's list `edge_cache`.  `products` writes
    each edge's product g * op output to its row `B<row>` of a buffer (one
    per entry of `rows`) when it is C-ordered and shaped like `g`, and else
    appends (row, its sum) to the list `own`.
    """

    setup: list
    forward: list
    reads: list
    backward: list
    products: list
    output: str
    grads: set
    rows: list  # the edge id of each product row, in the order products forms them


def _walk_source(graph, plan):
    """The statements of a plan of the graph, the one place that knows how
    a plain matrix op (`_matrix_layer`) runs: one product each way, and one
    check of its node's sum.  Otherwise they repeat `graph_forward`'s float
    operations and raise its errors, naming the same edge.  Then the reverse
    accumulation in its one order: a node's gradient is complete before it
    is read, and each in-edge, in edge-id order, adds w * (vjp of its op) to
    its source's gradient.  Only integer node ids, edge ids and rows are
    interpolated.  Flow follows from the plan alone: a node without flow has
    no statement, and the input node gets no gradient.
    """
    ops, inp = graph.ops, graph.input_node

    def output(eid, op, src, layer):  # the name of the edge's op output
        return f"z{src}" if layer is None and op.tag in _PASS_TAGS else f"o{eid}"

    def pairs(matrices):
        return "(" + "".join(f"({eid}, o{eid}), " for eid in matrices) + ")"

    setup = ["".join(f"w{eid}, " for eid in range(len(ops))) + "= w.tolist()"] if ops else []
    fwd, ran, flow = [f"z{inp} = asarray(x, dtype=float64)"], [], {inp}
    for node, steps in plan.steps:
        steps = [(eid, ops[eid], src, _matrix_layer(ops[eid])) for eid, src in steps
                 if src in flow]
        if not steps:
            continue
        flow.add(node)
        ran.append((node, steps))
        matrices = []
        for eid, op, src, layer in steps:
            if layer is not None:
                setup += [f"W{eid} = ops[{eid}].layers[0].weights", f"T{eid} = W{eid}.T"]
                fwd.append(f"o{eid} = z{src}.dot(T{eid})")
                matrices.append(eid)
            elif op.tag not in _PASS_TAGS:
                setup.append(f"A{eid} = ops[{eid}]")
                fwd += ["try:", f"    o{eid}, c{eid} = A{eid}.apply(z{src})",
                        "except FloatingPointError:",
                        f"    non_finite(ops, {pairs(matrices)}, {eid})"]
            term = f"w{eid} * {output(eid, op, src, layer)}"
            fwd.append(f"z{node} = {term}" if eid == steps[0][0] else f"z{node} = z{node} + {term}")
        if matrices:
            fwd.append(f"if not all_finite(z{node}): non_finite(ops, {pairs(matrices)})")
    if graph.output_node not in flow:
        fwd.append("raise no_flow()")

    reads, bwd, back = [], [f"g{graph.output_node} = g"], {graph.output_node}
    prods, rows = ["S = g.shape"], []
    for node, steps in reversed(ran):
        if node not in back:  # no path to the output
            continue
        prods.append(f"f = g{node}.shape == S and g{node}.flags.c_contiguous")
        for eid, op, src, layer in steps:
            out, row = output(eid, op, src, layer), len(rows)
            rows.append(eid)
            # a matrix product is C-ordered
            fits = "f" if layer is not None else f"f and {out}.flags.c_contiguous"
            prods += [f"if {fits}: multiply(g{node}, {out}, out=B{row})",
                      f"else: own.append(({row}, (g{node} * {out}).sum()))"]
            if src == inp:
                continue
            if layer is not None:
                vjp = f"g{node}.dot(W{eid})"
            elif op.tag in _PASS_TAGS:
                vjp = f"g{node}"
            else:
                reads.append(f"c{eid} = edge_cache[{eid}]")
                vjp = f"A{eid}.vjp(c{eid}, g{node})"
            bwd.append(f"g{src} = g{src} + w{eid} * {vjp}" if src in back
                       else f"g{src} = w{eid} * {vjp}")
            back.add(src)
    return _WalkSource(setup, fwd, reads, bwd, prods, f"z{graph.output_node}", back, rows)


def _compile(name, params, body, env):
    """The function `def name(params):` whose body is the lines `body` (a
    nested block indented within them), compiled and run in the namespace env."""
    source = "\n    ".join([f"def {name}({params}):"] + body) + "\n"
    exec(compile(source, f"<{name}>", "exec"), env)
    return env[name]


def _node_grads(graph, gcache, g_out):
    """dE/dz_node of a forward walk's nodes for the output gradient g_out,
    a list over node ids, None where no gradient flows and at the input
    node.  The cache's plan compiles `_walk_source`'s backward statements
    at its first call, into a walk that forms no w-gradient product and
    reads the ops only through its arguments, so that a deep copy of the
    graph, which shares the walk, runs it on its own layers."""
    plan = gcache.plan
    if plan.walk is None:
        walk = _walk_source(graph, plan)
        grads = ", ".join(f"g{node}" if node in walk.grads else "None"
                          for node in range(graph.n_nodes))
        plan.walk = _compile("walk", "ops, w, edge_cache, g",
                             walk.setup + walk.reads + walk.backward + [f"return [{grads}]"],
                             dict(_WALK_ENV))
    return plan.walk(graph.ops, graph.w, gcache.edge_cache, g_out)


def arch_scalar_hessian(graph, gcache, h_seed):
    """Per-edge curvature of the energy w.r.t. each architecture scalar w,
    as an array over edge ids, 0.0 where the edge did not run.

    The Gauss-Newton rule sum_b J_b^T H_b J_b against the full energy
    Hessian seed (b, n, n), which carries the 1/batch factor.
    J_e[b, k] = d out[b, k] / d w_e is the sum over sample b's features of
    node_g[dst] * (op output of e), with node_g from the plan's compiled
    backward walk (`_node_grads`) seeded with the one-hot e_k per output
    dimension k; those walks form no w-gradient products.  It runs on every
    op kind and is the exact second derivative wherever the output is
    linear in w_e along the downstream ops (relu and maxpool almost
    everywhere).
    """
    if h_seed.ndim != 3:
        raise ValueError("edge curvature needs per-sample full Hessian seeds (b, n, n)")
    edge_out = gcache.edge_out
    out = gcache.node_z[graph.output_node]
    b, n = h_seed.shape[:2]
    grads = [_node_grads(graph, gcache, np.tile(e_k, (b, 1)).reshape(out.shape))
             for e_k in np.eye(n)]
    jac = np.zeros((b, len(graph.ops), n))  # [b, e, k] = d out[b, k] / d w_e
    for node, steps in gcache.plan.steps:
        if grads[0][node] is None:  # no path to the output
            continue
        g = np.stack([node_g[node] for node_g in grads]).reshape(n, b, -1)
        for eid, _ in steps:
            if edge_out[eid] is not None:
                jac[:, eid] = np.einsum("kbf,bf->bk", g, edge_out[eid].reshape(b, -1))
    return np.einsum("bei,bei->e", jac @ h_seed, jac)


# ---------------------------------------------------------------------------
# variance algebra and pruning


def refresh_gammas(graph):
    """Harmonic dependency variance of every alive edge, in one pass.

    1/gamma = 1/s_edge + 1/s_gate + 1/(sum of predecessor switches), with
    the gate term present only when the edge leaves a gated fan-out and the
    predecessor term dropped at the input-node boundary.  An edge out of
    auxiliary node j' takes the predecessors of its guarded node j, the
    alive non-gate in-edges of j, summed in edge-id order.  An edge whose
    source has no alive in-flow is dead weight: gamma 0.  Dead edges keep
    their gamma.
    """
    s = graph.s
    node, gate = np.arange(graph.n_nodes), np.full(graph.n_nodes, -1)
    for aux, guarded in graph.gate_node_of.items():
        node[aux], gate[aux] = guarded, graph.gate_map[guarded]
    ids = np.flatnonzero(graph.alive)
    src = graph.src[ids]
    gates = gate[src]
    gated = gates >= 0
    used = np.concatenate([ids, gates[gated]])
    if np.any(s[used] <= 0):
        eid = used[s[used] <= 0].min()
        raise ValueError(f"edge {eid} has non-positive switch variance {s[eid]}")
    inv = 1.0 / s[ids]
    inv[gated] += 1.0 / s[gates[gated]]
    preds = graph.alive & ~graph.is_gate
    pred = np.bincount(graph.dst[preds], weights=s[preds], minlength=graph.n_nodes)[node[src]]
    bounded = node[src] != graph.input_node
    flow = bounded & (pred > 0)
    inv[flow] += 1.0 / pred[flow]
    gamma = 1.0 / inv
    gamma[bounded & ~flow] = 0.0
    graph.gamma[ids] = gamma
    return graph


def entropy_prune_mask(graph, threshold):
    """Alive edges whose dependency variance is at most `threshold`: with
    updates.ENTROPY_PRUNE_THRESHOLD, those of nonpositive Gaussian entropy."""
    return set(np.flatnonzero(graph.alive & (graph.gamma <= threshold)).tolist())


def apply_prune_mask(graph, mask):
    graph.alive[list(mask)] = False
    return graph


@dataclass
class PruneReport:
    cascade_killed: list
    degenerate: bool = False


def reachable_nodes(graph, reverse=False):
    """Nodes joined to the input node by a path of alive edges or, with
    reverse=True, nodes with such a path to the output node: the alive
    edges are hops from source to target going forward, from target to
    source going back.
    """
    pos = {node: i for i, node in enumerate(graph.order)}
    ids = np.flatnonzero(graph.alive)
    src, dst = graph.src[ids].tolist(), graph.dst[ids].tolist()
    if reverse:
        return reach_along(sorted(zip(dst, src), key=lambda hop: -pos[hop[0]]),
                           graph.output_node)
    return reach_along(sorted(zip(src, dst), key=lambda hop: pos[hop[0]]),
                       graph.input_node)


def reach_along(hops, start):
    """Nodes joined to `start` by a chain of (tail, head) hops.

    One sweep: with the hops listed in topological order of their tails,
    every hop into a tail comes before the hops out of it, so a hop reaches
    its head iff its tail is already reached.
    """
    seen = {start}
    for tail, head in hops:
        if tail in seen:
            seen.add(head)
    return seen


def propagate_dependency_prune(graph):
    """Cascade: kill every alive edge whose source has no alive in-flow.

    Reachability from the input over alive edges is the fixpoint of the
    node-isolation rule, so one forward sweep suffices, and killing the
    edges it leaves out cannot change it.  Returns a report listing the
    cascade-killed edges.
    """
    reach, src = reachable_nodes(graph), graph.src.tolist()
    cascade = [eid for eid in graph.alive_edge_ids() if src[eid] not in reach]
    apply_prune_mask(graph, cascade)
    return PruneReport(cascade, graph.output_node not in reach)


# ---------------------------------------------------------------------------
# zero gates


def insert_zero_gates(graph):
    """Guard every non-input node's fan-out with a single identity gate.

    Node j with outgoing edges gains an auxiliary node j'; a gate edge
    j -> j' (w = s = 1) is appended and j's outgoing edges, alive or not,
    are re-pointed to originate at j'.
    """
    if graph.gate_map:
        raise ValueError("zero gates already inserted")
    gates = []
    for node in range(graph.n_nodes):
        fan_out = np.flatnonzero(graph.src == node)
        if node == graph.input_node or not fan_out.size:
            continue
        aux = graph.n_nodes
        graph.n_nodes += 1
        graph.src[fan_out] = aux
        graph.gate_map[node] = len(graph.ops) + len(gates)
        graph.gate_node_of[aux] = node
        gates.append(Edge(node, aux, make_op("zero_gate"), is_gate=True))
    graph._set_edges(graph.edges + tuple(gates))
    graph.order = topo_order(graph)
    return graph

