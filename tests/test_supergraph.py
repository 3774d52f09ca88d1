"""Search DAG: mixing, variance algebra, pruning, gates, export."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardnet import nn
from ardnet import supergraph as sg
from ardnet.updates import ENTROPY_PRUNE_THRESHOLD


def identity_edge(src, dst, **kw):
    return sg.Edge(src, dst, sg.make_op("identity"), **kw)


def fc_edge(src, dst, matrix, **kw):
    return sg.Edge(src, dst, sg.make_op("fc", matrix=matrix), **kw)


def chain_graph(n, **kw):
    return sg.SuperGraph(n, [identity_edge(i, i + 1, **kw) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# mixing


def test_single_identity_edge_passes_through():
    g = chain_graph(2, w=1.0)
    z = np.array([[1.0, -2.0]])
    assert np.array_equal(sg.graph_forward(g, z)[0], z)


def test_two_half_weight_edges_are_convex():
    g = sg.SuperGraph(3, [identity_edge(0, 1), identity_edge(0, 2, w=0.5),
                          identity_edge(1, 2, w=0.5)])
    z = np.array([[4.0, 6.0]])
    out, _ = sg.graph_forward(g, z)
    assert np.allclose(out, z)


def test_mix_matches_brute_force_expansion():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 4, 4))
    ops = [sg.make_op("conv3x3", rng=rng, channels=(1, 1)) for _ in range(3)]
    g = sg.SuperGraph(3, [sg.Edge(0, 1, ops[2]), sg.Edge(0, 2, ops[0], w=0.3),
                          sg.Edge(1, 2, ops[1], w=-1.2)])
    y = ops[2].apply(x)[0]
    out, _ = sg.graph_forward(g, x)
    ref = 0.3 * ops[0].apply(x)[0] + (-1.2) * ops[1].apply(y)[0]
    assert np.max(np.abs(out - ref)) < 1e-12


def test_graph_forward_is_linear_in_w():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(3, 3)) for _ in range(3)]
    g = sg.SuperGraph(3, [fc_edge(0, 1, mats[0], w=0.7), fc_edge(1, 2, mats[1], w=1.1),
                          fc_edge(0, 2, mats[2], w=-0.5)])
    x = rng.normal(size=(4, 3))
    out, _ = sg.graph_forward(g, x)
    ref = 0.7 * 1.1 * (x @ mats[0].T @ mats[1].T) - 0.5 * (x @ mats[2].T)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_w_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    mats = [rng.normal(size=(3, 3)) for _ in range(4)]
    g = sg.SuperGraph(4, [fc_edge(0, 1, mats[0], w=0.5), fc_edge(0, 2, mats[1], w=0.8),
                          fc_edge(1, 3, mats[2], w=-0.6), fc_edge(2, 3, mats[3], w=1.2)])
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 3))

    def energy_at(ws):
        saved = [e.w for e in g.edges]
        for e, w in zip(g.edges, ws):
            e.w = w
        try:
            out, _ = sg.graph_forward(g, x)
            v, _ = nn.energy(out, t, "mse")
        finally:
            for e, w in zip(g.edges, saved):
                e.w = w
        return v

    out, gcache = sg.graph_forward(g, x)
    _, e_grad = nn.energy(out, t, "mse")
    w_grads, _ = sg.graph_backward(g, gcache, e_grad)
    w0 = np.array([e.w for e in g.edges])
    step = 1e-6
    for eid in range(4):
        wp, wm = w0.copy(), w0.copy()
        wp[eid] += step
        wm[eid] -= step
        ref = (energy_at(wp) - energy_at(wm)) / (2 * step)
        assert abs(w_grads[eid] - ref) / max(abs(ref), 1e-8) < 1e-6


BIG = np.full((2, 2), 1e300)


def relu_fc_op(matrix):
    return sg.Op("fc", [nn.Layer("fc", weights=matrix, activation="relu")])


@pytest.mark.parametrize("graph, x, eid, tag", [
    (sg.SuperGraph(3, [identity_edge(0, 1), fc_edge(1, 2, BIG)]),
     np.full((1, 2), 1e10), 1, "fc"),
    (sg.SuperGraph(3, [identity_edge(0, 1), sg.Edge(1, 2, relu_fc_op(BIG))]),
     np.full((1, 2), 1e10), 1, "fc"),
    (sg.SuperGraph(3, [identity_edge(0, 1), sg.Edge(1, 2, sg.Op("conv3x3", [
        nn.Layer("conv2d", weights=np.full((2, 2, 3, 3), 1e300), padding=1)]))]),
     np.full((1, 2, 3, 3), 1e10), 1, "conv3x3"),
    # finite outputs of edges 0 and 1 whose sum overflows: node 1 raises
    # nothing, and the next plain edge downstream is named
    (sg.SuperGraph(3, [fc_edge(0, 1, np.eye(2)), fc_edge(0, 1, np.eye(2)),
                       fc_edge(1, 2, np.eye(2))]),
     np.full((1, 2), 1.5e308), 2, "fc"),
    # node 2 is a dead end: it reaches no output, but its in-edge still runs
    (sg.SuperGraph(4, [identity_edge(0, 1), fc_edge(1, 2, BIG), identity_edge(1, 3)]),
     np.full((1, 2), 1e10), 1, "fc"),
    # both in-edges of node 2 overflow: the first in edge order is named,
    # a plain matrix ahead of an op that checks itself, and the reverse
    (sg.SuperGraph(3, [identity_edge(0, 1), fc_edge(1, 2, BIG),
                       sg.Edge(1, 2, relu_fc_op(BIG))]),
     np.full((1, 2), 1e10), 1, "fc"),
    (sg.SuperGraph(3, [identity_edge(0, 1), sg.Edge(1, 2, relu_fc_op(BIG)),
                       fc_edge(1, 2, BIG)]),
     np.full((1, 2), 1e10), 1, "fc"),
], ids=["matrix", "fc-relu", "conv3x3", "sum-overflow", "dead-end",
        "matrix-then-op", "op-then-matrix"])
def test_overflow_names_the_edge(graph, x, eid, tag):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=rf"^non-finite output of edge {eid} \({tag}\)$"):
        sg.graph_forward(graph, x)


def test_backward_skips_edges_whose_source_has_no_flow():
    # node 1 has no in-edge, so its out-edge runs in neither pass
    g = sg.SuperGraph(4, [identity_edge(0, 2), identity_edge(1, 2), identity_edge(2, 3)])
    x = np.array([[1.0, 2.0]])
    out, gcache = sg.graph_forward(g, x)
    w_grads, node_g = sg.graph_backward(g, gcache, np.ones_like(out))
    assert gcache.edge_out[1] is None and w_grads[1] == 0.0
    assert w_grads[0] == w_grads[2] == 3.0
    assert node_g[1] is None


# ---------------------------------------------------------------------------
# the cached plan against the per-edge loop it replaces


def loop_forward(graph, x, w):
    """Per-edge reference: alive in-edges by linear scan, every op applied
    through the op itself, dicts keyed by node and edge id."""
    node_z = {graph.input_node: np.asarray(x, dtype=np.float64)}
    edge_out, edge_cache = {}, {}
    for node in graph.order:
        if node == graph.input_node:
            continue
        total = None
        for eid in graph.in_edges(node):
            e = graph.edges[eid]
            if node_z[e.src] is None:
                continue
            edge_out[eid], edge_cache[eid] = e.op.apply(node_z[e.src])
            term = w[eid] * edge_out[eid]
            total = term if total is None else total + term
        node_z[node] = total
    if node_z.get(graph.output_node) is None:
        raise ValueError("output node receives no information flow")
    return node_z[graph.output_node], SimpleNamespace(
        w=w, node_z=node_z, edge_out=edge_out, edge_cache=edge_cache)


def loop_backward(graph, gcache, grad_output):
    node_g = {graph.output_node: np.asarray(grad_output, dtype=np.float64)}
    w_grads = {}
    for node in reversed(graph.order):
        g = node_g.get(node)
        if g is None:
            continue
        for eid in graph.in_edges(node):
            e = graph.edges[eid]
            w_grads[eid] = float(np.sum(g * gcache.edge_out[eid]))
            gx = gcache.w[eid] * e.op.vjp(gcache.edge_cache[eid], g)
            node_g[e.src] = gx if node_g.get(e.src) is None else node_g[e.src] + gx
    return w_grads, node_g


def loop_arch_hessian(graph, gcache, h_seed):
    """arch_scalar_hessian as output Jacobians accumulated down through fixed
    linear ops, with out-edges found by linear scan."""
    w = gcache.w
    out = gcache.node_z[graph.output_node]
    down = {graph.output_node: np.eye(out.reshape(out.shape[0], -1).shape[1])}
    for node in reversed(graph.order):
        if node == graph.output_node or gcache.node_z.get(node) is None:
            continue
        acc = None
        for eid in graph.out_edges(node):
            e = graph.edges[eid]
            j_dst = down.get(e.dst)
            if j_dst is None:
                continue
            term = w[eid] * (j_dst if e.op.layers is None else j_dst @ e.op.layers[0].weights)
            acc = term if acc is None else acc + term
        down[node] = acc
    hess = {}
    for eid in graph.alive_edge_ids():
        j_dst = down.get(graph.edges[eid].dst)
        if j_dst is None or eid not in gcache.edge_out:
            hess[eid] = 0.0
            continue
        ju = gcache.edge_out[eid].reshape(h_seed.shape[0], -1) @ j_dst.T
        hess[eid] = float(np.einsum("bi,bij,bj->", ju, h_seed, ju))
    return hess


def same_bits(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def listed(by_id, n):
    """A dict keyed by node or edge id as a list over ids, None where absent."""
    return [by_id.get(i) for i in range(n)]


def grad_outs(caches):
    return [None if cache is None else [c.grad_out for c in cache] for cache in caches]


DIM, SIDE = 3, 6  # dense feature width; spatial side length at depth 0


def plan_op(kind, rng):
    if kind in ("identity", "conv3x3", "maxpool", "avgpool"):
        return sg.make_op(kind, rng=rng, channels=(1, 1))
    op = sg.make_op("fc", matrix=rng.normal(size=(DIM, DIM)))
    layer = op.layers[0]
    if kind == "fc-bias":
        layer.bias = rng.normal(size=DIM)
    elif kind == "fc-mask":
        layer.mask = (rng.random((DIM, DIM)) < 0.7).astype(float)
    elif kind == "fc-relu":
        layer.activation = "relu"
    return op


@st.composite
def plan_graphs(draw):
    """(n_nodes, [(src, dst, kind)], spatial, gates): a chain plus extra edges.
    Dense graphs mix fc variants and identities; spatial graphs give node j
    a depth (spatial side SIDE - depth), joined by conv3x3 or identity
    within a depth and by a 2x2 stride-1 max or average pool from one depth
    to the next."""
    spatial = draw(st.booleans())
    n = draw(st.integers(3, 6))
    if spatial:
        steps = [draw(st.booleans()) for _ in range(n - 1)]
        depth = np.concatenate([[0], np.cumsum(steps)]).tolist()
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if j != i + 1 and not draw(st.booleans()):
                continue
            if not spatial:
                kinds = ["matrix", "fc-bias", "fc-mask", "fc-relu", "identity"]
            elif depth[j] == depth[i]:
                kinds = ["conv3x3", "identity"]
            elif depth[j] == depth[i] + 1:
                kinds = ["maxpool", "avgpool"]
            else:
                continue
            edges.append((i, j, draw(st.sampled_from(kinds))))
    return n, edges, spatial, draw(st.booleans())


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(spec=plan_graphs(), seed=st.integers(0, 2**16))
def test_plan_walk_equals_the_per_edge_loop(spec, seed):
    n, edge_spec, spatial, gates = spec
    rng = np.random.default_rng(seed)
    g = sg.SuperGraph(n, [sg.Edge(i, j, plan_op(kind, rng)) for i, j, kind in edge_spec])
    if gates:
        sg.insert_zero_gates(g)
    linear = all(kind in ("matrix", "identity") for _, _, kind in edge_spec)
    x = rng.normal(size=(5, 1, SIDE, SIDE) if spatial else (5, DIM))
    for _ in range(4):
        # direct writes the plan must notice: alive flags, w, and the weights
        # retraining replaces; then kill edges whose source lost its in-flow
        for e in g.edges:
            e.alive, e.w = bool(rng.random() < 0.8), float(rng.normal())
            if e.op.layers and e.op.layers[0].kind == "fc":
                e.op.layers[0].weights = rng.normal(size=(DIM, DIM))
        reach = sg.reachable_nodes(g)
        for e in g.edges:
            e.alive = e.alive and e.src in reach
        if g.output_node not in reach:
            for forward in (sg.graph_forward, loop_forward):
                with pytest.raises(ValueError, match="no information flow"):
                    forward(g, x, [e.w for e in g.edges])
            continue
        # the walk runs on an explicit w, not on the edges' own
        w = rng.normal(size=len(g.edges))
        out, gcache = sg.graph_forward(g, x, w)
        ref, rcache = loop_forward(g, x, w)
        n_edges = len(g.edges)
        assert same_bits(out, ref)
        assert same_bits(gcache.node_z, listed(rcache.node_z, g.n_nodes))
        assert same_bits(gcache.edge_out, listed(rcache.edge_out, n_edges))
        t = rng.normal(size=out.shape)
        _, e_grad = nn.energy(out, t, "mse")
        got, ref_grads = sg.graph_backward(g, gcache, e_grad), loop_backward(g, rcache, e_grad)
        ref_w_grads = np.zeros(n_edges)
        ref_w_grads[list(ref_grads[0])] = list(ref_grads[0].values())
        assert same_bits(got[0], ref_w_grads)
        assert same_bits(got[1], listed(ref_grads[1], g.n_nodes))
        # plain matrix edges build their caches on demand
        assert same_bits(grad_outs(sg.op_cache(g, gcache, eid) for eid in range(n_edges)),
                         grad_outs(listed(rcache.edge_cache, n_edges)))
        if linear:
            # the Jacobian reference sums in another order than the VJPs
            h_seed = nn.energy_hessian(out, t, "mse", "exact")
            got = sg.arch_scalar_hessian(g, gcache, h_seed)
            ref = loop_arch_hessian(g, rcache, h_seed)
            assert got.keys() == ref.keys()
            assert np.allclose(list(got.values()), list(ref.values()), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# architecture-scalar curvature


def test_single_edge_scalar_hessian_is_x_squared():
    g = chain_graph(2, w=0.4)
    x = np.array([[3.0]])
    out, gcache = sg.graph_forward(g, x)
    h_seed = nn.energy_hessian(out, np.array([[0.0]]), "mse", "exact")
    hess = sg.arch_scalar_hessian(g, gcache, h_seed)
    assert hess[0] == pytest.approx(9.0)


def test_scalar_hessian_invariant_to_own_w():
    # H depends on the edge's input magnitude, not its own scalar
    x = np.array([[3.0]])
    t = np.array([[0.0]])
    vals = []
    for w in (1.0, 2.0):
        g = chain_graph(2, w=w)
        out, gcache = sg.graph_forward(g, x)
        h_seed = nn.energy_hessian(out, t, "mse", "exact")
        vals.append(sg.arch_scalar_hessian(g, gcache, h_seed)[0])
    assert vals[0] == pytest.approx(vals[1])
    # halving x quarters H regardless of w
    g = chain_graph(2, w=2.0)
    out, gcache = sg.graph_forward(g, x / 2.0)
    h_seed = nn.energy_hessian(out, t, "mse", "exact")
    assert sg.arch_scalar_hessian(g, gcache, h_seed)[0] == \
        pytest.approx(vals[0] / 4.0)


def test_scalar_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(3, 3)) for _ in range(4)]
    g = sg.SuperGraph(4, [fc_edge(0, 1, mats[0], w=0.5), fc_edge(0, 2, mats[1], w=0.8),
                          fc_edge(1, 3, mats[2], w=-0.6), fc_edge(2, 3, mats[3], w=1.2)])
    x = rng.normal(size=(6, 3))
    t = rng.normal(size=(6, 3))
    out, gcache = sg.graph_forward(g, x)
    h_seed = nn.energy_hessian(out, t, "mse", "exact")
    hess = sg.arch_scalar_hessian(g, gcache, h_seed)
    step = 1e-4
    for eid in range(4):
        e = g.edges[eid]
        orig = e.w

        def e_at(w):
            e.w = w
            try:
                o, _ = sg.graph_forward(g, x)
                v, _ = nn.energy(o, t, "mse")
            finally:
                e.w = orig
            return v

        ref = (e_at(orig + step) - 2 * e_at(orig) + e_at(orig - step)) / step**2
        assert abs(hess[eid] - ref) / max(abs(ref), 1e-6) < 1e-3


def fd_arch_hessian(graph, x, t, w, eid, kind="mse"):
    """Central second difference of the energy in w_eid, and a bound on its
    rounding error (a few ulps of the energy over the squared step).

    The mse energy is quadratic in w_e wherever the output is linear in it,
    so a wide step (1e-2) loses nothing to truncation and little to
    rounding.  A relu or maxpool kink inside the step, or an energy that is
    not quadratic, breaks that; it shows as a second difference at half the
    step that differs, and the step then shrinks tenfold.
    """
    def energy(value):
        wv = np.array(w, dtype=np.float64)
        wv[eid] = value
        out, _ = sg.graph_forward(graph, x, wv)
        return nn.energy(out, t, kind)[0]

    e0 = energy(w[eid])

    def second_difference(step):
        d2 = (energy(w[eid] + step) - 2 * e0 + energy(w[eid] - step)) / step**2
        return d2, 1e-14 * abs(e0) / step**2

    for step in (1e-2, 1e-3, 1e-4):
        (ref, err), (half, half_err) = second_difference(step), second_difference(step / 2)
        if abs(ref - half) <= 1e-7 * abs(ref) + err + half_err:
            break
    return ref, err


def assert_exact_matches_fd(graph, x, t, rtol, kind="mse"):
    w = [e.w for e in graph.edges]
    out, gcache = sg.graph_forward(graph, x)
    hess = sg.arch_scalar_hessian(graph, gcache, nn.energy_hessian(out, t, kind, "exact"))
    assert list(hess) == graph.alive_edge_ids()
    for eid, h in hess.items():
        ref, err = fd_arch_hessian(graph, x, t, w, eid, kind)
        assert abs(h - ref) <= rtol * abs(ref) + err, (eid, h, ref)


def test_exact_mode_on_a_maxpool_edge_matches_finite_differences():
    rng = np.random.default_rng(4)
    g = sg.SuperGraph(2, [sg.Edge(0, 1, sg.make_op("maxpool"))])
    x = rng.normal(size=(1, 1, 4, 4))
    assert_exact_matches_fd(g, x, rng.normal(size=(1, 1, 3, 3)), rtol=1e-7)


def test_exact_mode_on_a_relu_fc_edge_matches_finite_differences():
    # exact mode once read the relu fc op as a plain matrix and gave edge 0
    # a curvature of 27.0 on this graph, where finite differences give 6.49
    rng = np.random.default_rng(0)
    relu = sg.Op("fc", [nn.Layer("fc", weights=rng.normal(size=(4, 4)), activation="relu")])
    g = sg.SuperGraph(3, [fc_edge(0, 1, rng.normal(size=(4, 4)), w=1.1), sg.Edge(1, 2, relu)])
    x, t = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    assert_exact_matches_fd(g, x, t, rtol=1e-7)


def test_exact_mode_contracts_the_full_energy_hessian():
    # softmax cross-entropy seeds diag(p) - p p^T, which mse never fills off
    # the diagonal; exact mode is still the second derivative, as the
    # output is linear in w_e almost everywhere
    rng = np.random.default_rng(5)
    relu = sg.Op("fc", [nn.Layer("fc", weights=rng.normal(size=(4, 4)), activation="relu")])
    g = sg.SuperGraph(3, [fc_edge(0, 1, rng.normal(size=(4, 4)), w=0.7), sg.Edge(1, 2, relu),
                          fc_edge(0, 2, rng.normal(size=(4, 4)), w=-0.4)])
    x, labels = rng.normal(size=(6, 4)), rng.integers(0, 4, size=6)
    assert_exact_matches_fd(g, x, labels, rtol=1e-6, kind="softmax_ce")


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(spec=plan_graphs(), seed=st.integers(0, 2**16))
def test_exact_mode_matches_finite_differences_on_every_op(spec, seed):
    """relu, bias and mask fc, conv3x3, max and average pool, identity and
    gate edges, with random w and some edges dead."""
    n, edge_spec, spatial, gates = spec
    rng = np.random.default_rng(seed)
    g = sg.SuperGraph(n, [sg.Edge(i, j, plan_op(kind, rng), w=float(rng.normal()))
                          for i, j, kind in edge_spec])
    if gates:
        sg.insert_zero_gates(g)
    for e in g.edges:
        e.alive = e.is_gate or rng.random() < 0.8
    reach = sg.reachable_nodes(g)
    for e in g.edges:
        e.alive = e.alive and e.src in reach
    if g.output_node not in reach:
        return
    x = rng.normal(size=(4, 1, SIDE, SIDE) if spatial else (4, DIM))
    out, _ = sg.graph_forward(g, x)
    assert_exact_matches_fd(g, x, rng.normal(size=out.shape), rtol=1e-6)


# ---------------------------------------------------------------------------
# dependency-variance algebra


def test_gamma_harmonic_two_terms():
    # predecessors sum to 0.1, own switch 0.1, no gate -> 0.05
    g = sg.SuperGraph(3, [identity_edge(0, 1, s=0.1), identity_edge(1, 2, s=0.1)])
    assert sg.gamma_of_edge(g, 1) == pytest.approx(0.05)


def test_gamma_three_equal_resistors():
    g = sg.SuperGraph(3, [identity_edge(0, 1, s=1.0), identity_edge(1, 2, s=1.0)])
    sg.insert_zero_gates(g)
    gate = g.edges[g.gate_map[1]]
    gate.s = 1.0
    # the non-gate edge out of node 1 now sees gate + predecessor + own switch
    eid = next(i for i, e in enumerate(g.edges) if not e.is_gate and e.dst == 2)
    assert sg.gamma_of_edge(g, eid) == pytest.approx(1.0 / 3.0)


def test_gamma_bounded_by_every_term():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s_pred = 10.0 ** rng.uniform(-3, 2, 3)
        s_edge = float(10.0 ** rng.uniform(-3, 2))
        edges = [identity_edge(i, 3, s=float(s)) for i, s in enumerate(s_pred)]
        edges.append(identity_edge(3, 4, s=s_edge))
        g = sg.SuperGraph(5, edges, input_node=0)
        # nodes 1, 2 unreachable feeders are fine for pure algebra: give them
        # direct input edges so the graph stays sane
        gamma = sg.gamma_of_edge(g, 3)
        assert gamma <= min(float(np.sum(s_pred)), s_edge) + 1e-15


def test_input_boundary_drops_predecessor_term():
    g = chain_graph(2, s=0.25)
    assert sg.gamma_of_edge(g, 0) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# entropy pruning


def test_entropy_threshold_boundaries():
    g = sg.SuperGraph(4, [identity_edge(0, 1), identity_edge(0, 2), identity_edge(0, 3)])
    g.edges[0].gamma = 0.05          # below: pruned
    g.edges[1].gamma = 0.10          # above: kept
    g.edges[2].gamma = ENTROPY_PRUNE_THRESHOLD  # boundary: pruned (inclusive)
    mask = sg.entropy_prune_mask(g)
    assert mask == {0, 2}


# ---------------------------------------------------------------------------
# dependency cascade


def test_cascade_after_bridge_kill():
    # input 1 -> 2 -> {3, 4}: killing 1->2 cascades both fan-out edges
    g = sg.SuperGraph(5, [identity_edge(1, 2), identity_edge(2, 3),
                          identity_edge(2, 4), identity_edge(1, 3)],
                      input_node=1, output_node=3)
    sg.apply_prune_mask(g, {0})
    report = sg.propagate_dependency_prune(g, {0})
    assert sorted(report.cascade_killed) == [1, 2]
    assert g.edges[3].alive


def test_cascade_empty_when_nothing_killed():
    g = chain_graph(4)
    report = sg.propagate_dependency_prune(g, set())
    assert report.cascade_killed == []
    assert not report.degenerate


def brute_force_alive(n_nodes, pairs, killed):
    alive = [i for i in range(len(pairs)) if i not in killed]
    changed = True
    while changed:
        changed = False
        reach = {0}
        stable = False
        while not stable:
            stable = True
            for i in alive:
                if pairs[i][0] in reach and pairs[i][1] not in reach:
                    reach.add(pairs[i][1])
                    stable = False
        keep = [i for i in alive if pairs[i][0] in reach]
        if len(keep) != len(alive):
            alive, changed = keep, True
    return set(alive)


def test_cascade_matches_reachability_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.choice(len(pairs), size=min(len(pairs), int(rng.integers(4, 10))),
                          replace=False)
        pairs = [pairs[i] for i in sorted(take)]
        g = sg.SuperGraph(n, [identity_edge(i, j) for i, j in pairs])
        killed = {i for i in range(len(pairs)) if rng.random() < 0.3}
        sg.apply_prune_mask(g, killed)
        sg.propagate_dependency_prune(g, killed)
        got = set(g.alive_edge_ids())
        assert got == brute_force_alive(n, pairs, killed)


# ---------------------------------------------------------------------------
# gates


def test_gate_insertion_single_edge():
    g = chain_graph(3)
    sg.insert_zero_gates(g)
    # node 1 had fan-out: i -> i' -> j with the gate on i -> i'
    assert 1 in g.gate_map
    gate = g.edges[g.gate_map[1]]
    assert gate.is_gate and gate.src == 1
    follow = g.edges[1]
    assert follow.src == gate.dst


def test_gate_node_count_increases_by_gated_nodes():
    g = sg.SuperGraph(4, [identity_edge(0, 1), identity_edge(1, 2),
                          identity_edge(2, 3), identity_edge(0, 3)])
    before = g.n_nodes
    sg.insert_zero_gates(g)
    assert g.n_nodes == before + 2  # nodes 1 and 2 have fan-out; 3 does not


def test_double_gate_insertion_rejected():
    g = chain_graph(3)
    sg.insert_zero_gates(g)
    with pytest.raises(ValueError, match="already inserted"):
        sg.insert_zero_gates(g)


def test_tiny_gate_switch_bounds_downstream_gammas():
    g = sg.SuperGraph(4, [identity_edge(0, 1), identity_edge(1, 2), identity_edge(2, 3)])
    sg.insert_zero_gates(g)
    gate = g.edges[g.gate_map[1]]
    gate.s = 1e-6
    sg.refresh_gammas(g)
    for eid, e in enumerate(g.edges):
        if not e.is_gate and e.src == gate.dst:
            assert e.gamma <= gate.s
            assert e.gamma <= ENTROPY_PRUNE_THRESHOLD


def test_gate_preserves_forward_values():
    rng = np.random.default_rng(6)
    mats = [rng.normal(size=(3, 3)) for _ in range(2)]
    g = sg.SuperGraph(3, [fc_edge(0, 1, mats[0], w=0.9), fc_edge(1, 2, mats[1], w=-1.3)])
    x = rng.normal(size=(4, 3))
    before, _ = sg.graph_forward(g, x)
    sg.insert_zero_gates(g)
    after, _ = sg.graph_forward(g, x)
    assert np.max(np.abs(before - after)) < 1e-12


# ---------------------------------------------------------------------------
# degeneracy and export


def test_fully_pruned_graph_flagged_degenerate():
    g = chain_graph(3)
    sg.apply_prune_mask(g, {0, 1})
    report = sg.propagate_dependency_prune(g, {0, 1})
    assert report.degenerate
    record = sg.export_architecture(g)
    assert record["degenerate"]
    assert all(not e["alive"] for e in record["edges"])


def test_restore_widest_path_by_bottleneck_gamma():
    g = sg.SuperGraph(3, [identity_edge(0, 1), identity_edge(1, 2), identity_edge(0, 2)])
    g.edges[0].gamma = 0.9
    g.edges[1].gamma = 0.8
    g.edges[2].gamma = 0.5
    sg.apply_prune_mask(g, {0, 1, 2})
    path = sg.restore_widest_path(g)
    assert path == [0, 1]  # bottleneck 0.8 beats the direct edge's 0.5
    assert g.degenerate


def test_export_import_round_trip_topology():
    g = sg.SuperGraph(4, [identity_edge(0, 1, w=0.5, s=2.0), identity_edge(1, 3, w=-1.0),
                          identity_edge(0, 2), identity_edge(2, 3)])
    sg.insert_zero_gates(g)
    g.edges[1].alive = False
    record = sg.export_architecture(g)
    g2 = sg.import_architecture(record)
    assert g2.n_nodes == g.n_nodes
    assert g2.gate_map == g.gate_map
    for e1, e2 in zip(g.edges, g2.edges):
        assert (e1.src, e1.dst, e1.op.tag, e1.w, e1.s, e1.alive, e1.is_gate) == \
               (e2.src, e2.dst, e2.op.tag, e2.w, e2.s, e2.alive, e2.is_gate)
    assert sg.export_architecture(g2) == record


def test_intact_graph_export_preserves_edge_count():
    g = chain_graph(5)
    assert len(sg.export_architecture(g)["edges"]) == 4


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        sg.SuperGraph(2, [identity_edge(0, 1), identity_edge(1, 0)])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        sg.SuperGraph(2, [sg.Edge(1, 1, sg.make_op("identity"))])
