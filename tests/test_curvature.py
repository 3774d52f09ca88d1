"""Curvature recursion against finite-difference and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ardnet import curvature, nn
from oracles import fd_weight_hessian_diag, finite_diff_hessian


def rel_err(got, ref, floor=1e-6):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.max(np.abs(got - ref) / np.maximum(np.abs(ref), floor))


def run_net(net, x, t, mode="exact", kind="mse"):
    out, caches = net_forward_backward(net, x, t, kind)
    return curvature.network_curvature(net, caches, t, kind, mode)


def net_forward_backward(net, x, t, kind="mse"):
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, t, kind)
    nn.backward(net, caches, e_grad)
    return out, caches


def test_linear_scalar_net_hessian_is_x_squared():
    layer = nn.Layer("fc", weights=np.array([[1.5]]), activation="identity")
    x = np.array([[3.0]])
    res = run_net([layer], x, np.array([[0.0]]))
    assert res.weight_diag[0][0, 0] == pytest.approx(9.0)


def test_two_layer_identity_matches_gauss_newton():
    rng = np.random.default_rng(2)
    net = [nn.fc_layer(3, 4, "identity", rng=rng),
           nn.fc_layer(4, 2, "identity", rng=rng)]
    x = rng.normal(size=(6, 3))
    t = rng.normal(size=(6, 2))
    res = run_net(net, x, t)
    # layer 0: H_{ji} = mean_b (W2^T W2)_{jj} x_{bi}^2 for a linear chain
    w2 = net[1].weights
    g = np.diag(w2.T @ w2)
    ref0 = np.einsum("j,bi->ji", g, x**2) / len(x)
    assert rel_err(res.weight_diag[0], ref0) < 1e-10
    # layer 1: inputs are h = W1 x + b1
    h = x @ net[0].weights.T + net[0].bias
    ref1 = np.einsum("bj,bi->ji", np.ones((len(x), 2)), h**2) / len(x)
    assert rel_err(res.weight_diag[1], ref1) < 1e-10


def test_tanh_mlp_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng), nn.fc_layer(6, 3, "tanh", rng=rng)]
    x = rng.normal(size=(8, 4))
    t = rng.normal(size=(8, 3))
    res = run_net(net, x, t)
    for li in (0, 1):
        ref = fd_weight_hessian_diag(net, x, t, "mse", li, step=1e-4)
        assert rel_err(res.weight_diag[li], ref, floor=1e-4) < 1e-4


def test_width_one_chain_diag_equals_exact_bitwise():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = [nn.fc_layer(1, 1, "tanh", rng=rng) for _ in range(4)]
        x = rng.normal(size=(3, 1))
        t = rng.normal(size=(3, 1))
        net_forward_backward(net, x, t)
        _, caches = net_forward_backward(net, x, t)
        exact = curvature.network_curvature(net, caches, t, "mse", "exact")
        diag = curvature.network_curvature(net, caches, t, "mse", "diag")
        for a, b in zip(exact.weight_diag, diag.weight_diag):
            assert np.array_equal(a, b)


def test_relu_second_derivative_term_is_zero():
    # relu is piecewise linear: its f' is the bool mask x > 0 (0 at 0) and it
    # has no f'' term, so no curvature term reads a relu layer's grad_out
    _, d1, d2 = nn.activation_funcs("relu")
    x = np.linspace(-2, 2, 9)
    assert d1 is None and d2 is None
    assert np.array_equal(nn.PIECEWISE_LINEAR["relu"](x), x > 0)
    net = [nn.fc_layer(2, 3, "relu"), nn.fc_layer(3, 1, "relu")]
    assert curvature.curved_layers(net) == []


def test_conv_1x1_kernel_reduces_to_fc():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 2, 1, 1))
    conv = nn.Layer("conv2d", weights=w, activation="tanh", stride=1, padding=0)
    fc = nn.Layer("fc", weights=w.reshape(3, 2), activation="tanh")
    x4 = rng.normal(size=(5, 2, 1, 1))
    x2 = x4.reshape(5, 2)
    t4 = rng.normal(size=(5, 3, 1, 1))
    t2 = t4.reshape(5, 3)
    _, cc = net_forward_backward([conv], x4, t4)
    _, cf = net_forward_backward([fc], x2, t2)
    rc = curvature.network_curvature([conv], cc, t4, "mse", "exact")
    rf = curvature.network_curvature([fc], cf, t2, "mse", "exact")
    assert rel_err(rc.weight_diag[0].reshape(3, 2), rf.weight_diag[0]) < 1e-12


def test_conv_position_block_maps_back_like_fc():
    # a 1x1 kernel on a 1x1 image is an fc layer with one position, whose
    # channel block is the whole dense curvature matrix
    rng = np.random.default_rng(31)
    w = rng.normal(size=(3, 2, 1, 1))
    conv = nn.Layer("conv2d", weights=w, activation="tanh")
    fc = nn.Layer("fc", weights=w.reshape(3, 2), activation="tanh")
    x, g = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
    a = rng.normal(size=(4, 3, 3))
    seed = a @ a.transpose(0, 2, 1)
    diagonals = []
    for layer, shape in ((conv, (4, -1, 1, 1)), (fc, (4, -1))):
        _, caches = nn.forward([layer], x.reshape(shape))
        nn.backward([layer], caches, g.reshape(shape))
        res, _ = curvature.propagate_curvature([layer], caches, seed, "exact")
        diagonals.append(res.weight_diag[0].reshape(3, 2))
    assert rel_err(*diagonals) < 1e-12


@pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1)])
def test_conv_stack_curvature_is_one_rule_in_both_modes(stride, padding):
    # conv reads the diagonal of a full seed, so on a conv -> conv stack the
    # exact and diag modes agree on the weight diagonals and on the input
    # curvature; several input channels and a 3x2 kernel tell the column
    # orders apart
    rng = np.random.default_rng(37)
    net = [nn.Layer("conv2d", weights=rng.normal(size=(3, 2, 3, 2)), activation="tanh",
                    stride=stride, padding=padding),
           nn.Layer("conv2d", weights=rng.normal(size=(2, 3, 2, 2)), activation="softplus",
                    stride=stride, padding=padding)]
    x = rng.normal(size=(2, 2, 7, 6))
    y, caches = nn.forward(net, x)
    nn.backward(net, caches, rng.normal(size=y.shape))
    n = y[0].size
    a = rng.normal(size=(len(y), n, n))
    seed = a @ a.transpose(0, 2, 1)
    exact, h_exact = curvature.propagate_curvature(net, caches, seed, "exact")
    diag, h_diag = curvature.propagate_curvature(
        net, caches, np.diagonal(seed, axis1=1, axis2=2).reshape(y.shape), "diag")
    for got, ref in zip(exact.weight_diag, diag.weight_diag):
        assert rel_err(got, ref) < 1e-12
    assert rel_err(h_exact, h_diag) < 1e-12


def test_conv_exact_matches_finite_differences():
    rng = np.random.default_rng(8)
    net = [nn.conv_layer(2, 2, 2, "tanh", rng=rng)]
    x = rng.normal(size=(1, 2, 4, 4))
    t = rng.normal(size=(1, 2, 3, 3))
    _, caches = net_forward_backward(net, x, t)
    res = curvature.network_curvature(net, caches, t, "mse", "exact")
    ref = fd_weight_hessian_diag(net, x, t, "mse", 0, step=1e-4)
    assert rel_err(res.weight_diag[0], ref, floor=1e-4) < 1e-4


def test_finite_diff_quadratic_and_linear():
    assert finite_diff_hessian(lambda t: float(t[0] ** 2),
                               np.array([0.7]))[0] == pytest.approx(2.0)
    assert abs(finite_diff_hessian(lambda t: float(3.0 * t[0]),
                                   np.array([0.2]))[0]) < 1e-8


def test_finite_diff_step_bounds():
    with pytest.raises(ValueError, match="outside"):
        finite_diff_hessian(lambda t: 0.0, np.array([0.0]), step=1e-2)


def test_fd_cross_validates_recursive_path_on_mlp():
    rng = np.random.default_rng(12)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng), nn.fc_layer(6, 3, "tanh", rng=rng)]
    x = rng.normal(size=(5, 4))
    t = rng.normal(size=(5, 3))
    _, caches = net_forward_backward(net, x, t)
    res = curvature.network_curvature(net, caches, t, "mse", "exact")
    ref = fd_weight_hessian_diag(net, x, t, "mse", 1, step=1e-4)
    assert rel_err(res.weight_diag[1], ref, floor=1e-4) < 1e-4


@pytest.mark.parametrize("pool", [False, True],
                         ids=["conv-flatten-fc", "conv-maxpool-flatten-fc"])
@pytest.mark.parametrize("mode", ["exact", "diag"])
def test_curvature_runs_through_flatten_into_conv(mode, pool):
    # the fc diagonal is exact in both modes (the mse output Hessian is
    # diagonal); the conv diagonal drops cross-position terms by design, so
    # it is only required to be finite
    rng = np.random.default_rng(21)
    net = [nn.conv_layer(1, 2, 3, "tanh", rng=rng)]
    if pool:
        net.append(nn.pool_layer("maxpool2d", 2))
    net += [nn.flatten_layer(), nn.fc_layer(2 * (9 if pool else 36), 3, "tanh", rng=rng)]
    x = rng.normal(size=(2, 1, 8, 8))
    t = rng.normal(size=(2, 3))
    res = run_net(net, x, t, mode)
    for li, layer in enumerate(net):
        if layer.weights is not None:
            assert np.all(np.isfinite(res.weight_diag[li]))
    fc = len(net) - 1
    ref = fd_weight_hessian_diag(net, x, t, "mse", fc, step=1e-4)
    assert rel_err(res.weight_diag[fc], ref, floor=1e-4) < 1e-4


@pytest.mark.parametrize("kind", ["flatten", "maxpool2d", "avgpool2d"])
def test_activation_of_a_pool_or_flatten_layer_enters_the_curvature(kind):
    rng = np.random.default_rng(32)
    net = [nn.Layer(kind, activation="tanh", stride=2), nn.flatten_layer(),
           nn.fc_layer(32 if kind == "flatten" else 8, 3, "tanh", rng=rng)]
    x = rng.normal(size=(2, 2, 4, 4))
    t = 0.5 * rng.normal(size=(2, 3))
    _, caches = net_forward_backward(net, x, t)
    ref = finite_diff_hessian(
        lambda z: nn.energy(nn.forward(net, z)[0], t)[0], x.copy(), 4e-4)
    for mode in ("exact", "diag"):
        seed = nn.energy_hessian(caches[-1].out, t, "mse", mode)
        _, h_in = curvature.propagate_curvature(net, caches, seed, mode)
        # the mse output Hessian is diagonal, so both modes are exact here
        assert rel_err(h_in, ref, floor=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# property test of the recursion over random stacks

SMOOTH = ["tanh", "softplus", "identity"]  # finite differences fail across a relu kink
# half-scale inputs and targets and a 4e-4 step keep the finite differences'
# rounding (about eps * energy / step^2) well under the 1e-8 absolute error
# that the 1e-4 floor allows; at step 1e-4 it alone exceeds that bound
FD_STEP = 4e-4


@st.composite
def tail_layers(draw, max_layers=3):
    """1-3 fc layers as (width, activation)."""
    return [draw(st.tuples(st.integers(1, 4), st.sampled_from(SMOOTH)))
            for _ in range(draw(st.integers(1, max_layers)))]


def build_tail(spec, width, rng):
    layers = []
    for n_out, act in spec:
        layers.append(nn.fc_layer(width, n_out, act, rng=rng))
        width = n_out
    return layers, width


def batch_energy(net, x, t, kind):
    out, _ = nn.forward(net, x)
    return nn.energy(out, t, kind)[0]


def check_stack(net, x, energy_kind, rng, input_diag=False):
    """Weight diagonals are finite in both modes; in exact mode every fc
    diagonal, and with input_diag the input diagonal, match finite
    differences of the batch energy."""
    out, _ = nn.forward(net, x)
    n_out = out.shape[1]
    t = (rng.integers(0, n_out, len(x)) if energy_kind == "softmax_ce"
         else 0.5 * rng.normal(size=out.shape))
    for mode in ("exact", "diag"):
        res = run_net(net, x, t, mode, energy_kind)
        for li, layer in enumerate(net):
            if layer.weights is not None:
                assert np.all(np.isfinite(res.weight_diag[li]))
            if mode == "exact" and layer.kind == "fc":
                ref = fd_weight_hessian_diag(net, x, t, energy_kind, li, FD_STEP)
                assert rel_err(res.weight_diag[li], ref, floor=1e-4) < 1e-4
    if input_diag:
        _, caches = net_forward_backward(net, x, t, energy_kind)
        seed = nn.energy_hessian(caches[-1].out, t, energy_kind, "exact")
        _, h_in = curvature.propagate_curvature(net, caches, seed, "exact")
        ref = finite_diff_hessian(
            lambda z: batch_energy(net, z, t, energy_kind), x.copy(), FD_STEP)
        assert rel_err(h_in, ref, floor=1e-4) < 1e-4


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(tail=tail_layers(), d_in=st.integers(1, 4), batch=st.integers(1, 3),
       energy_kind=st.sampled_from(["mse", "softmax_ce"]), seed=st.integers(0, 2**16))
def test_recursion_matches_finite_differences_on_fc_stacks(tail, d_in, batch,
                                                           energy_kind, seed):
    rng = np.random.default_rng(seed)
    net, width = build_tail(tail, d_in, rng)
    assume(energy_kind == "mse" or width > 1)
    check_stack(net, 0.5 * rng.normal(size=(batch, d_in)), energy_kind, rng,
                input_diag=True)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(c_in=st.integers(1, 2), c_out=st.integers(1, 3), kernel=st.integers(2, 3),
       padding=st.integers(0, 1), conv_act=st.sampled_from(SMOOTH),
       pool=st.sampled_from([None, "maxpool2d", "avgpool2d"]), tail=tail_layers(),
       batch=st.integers(1, 3), energy_kind=st.sampled_from(["mse", "softmax_ce"]),
       seed=st.integers(0, 2**16))
def test_recursion_matches_finite_differences_on_conv_stacks(
        c_in, c_out, kernel, padding, conv_act, pool, tail, batch, energy_kind, seed):
    # the conv diagonal drops cross-position terms by design, so only the
    # fc diagonals above it are held to finite differences
    rng = np.random.default_rng(seed)
    side = 6
    net = [nn.conv_layer(c_in, c_out, kernel, conv_act, padding=padding, rng=rng)]
    out_side = side + 2 * padding - kernel + 1
    if pool is not None:
        net.append(nn.pool_layer(pool, 2))
        out_side //= 2
    net.append(nn.flatten_layer())
    layers, width = build_tail(tail, c_out * out_side**2, rng)
    assume(energy_kind == "mse" or width > 1)
    x = 0.5 * rng.normal(size=(batch, c_in, side, side))
    check_stack(net + layers, x, energy_kind, rng)


def bottom_weighted_stack(conv, rng):
    """(layers, input): conv -> maxpool -> flatten -> fc, or flatten -> fc,
    each with an fc classifier on top."""
    if conv:
        net = [nn.conv_layer(1, 3, 3, "relu", rng=rng), nn.pool_layer("maxpool2d", 2),
               nn.flatten_layer(), nn.fc_layer(27, 5, "tanh", rng=rng)]
        x = rng.normal(size=(4, 1, 8, 8))
    else:
        net = [nn.flatten_layer(), nn.fc_layer(16, 5, "tanh", rng=rng)]
        x = rng.normal(size=(4, 1, 4, 4))
    return net + [nn.fc_layer(5, 3, rng=rng)], x


@pytest.mark.parametrize("conv", [True, False],
                         ids=["conv-maxpool-flatten-fc", "flatten-fc"])
def test_no_input_term_leaves_weight_gradients_and_diagonals_bitwise(conv):
    rng = np.random.default_rng(40)
    net, x = bottom_weighted_stack(conv, rng)
    labels = rng.integers(0, 3, len(x))
    out, full = nn.forward(net, x)
    _, part = nn.forward(net, x)
    _, e_grad = nn.energy(out, labels, "softmax_ce")
    want, gx = nn.backward(net, full, e_grad)
    got, none = nn.backward(net, part, e_grad, input_grad=False)
    assert gx.shape == x.shape and none is None
    stop = nn._walk_stop(net, input_grad=False)
    assert all(cache.grad_out is None for cache in part[:stop])
    for w, g in zip(want, got):
        assert (w is None) == (g is None)
        if w is not None:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(w, g))
    for mode in ("diag", "exact"):
        h = nn.energy_hessian(out, labels, "softmax_ce", mode)
        ref, h_in = curvature.propagate_curvature(net, full, h, mode)
        res, none = curvature.propagate_curvature(net, part, h, mode, input_grad=False)
        assert h_in.shape == x.shape and none is None
        net_res = curvature.network_curvature(net, part, labels, "softmax_ce", mode)
        for li, layer in enumerate(net):
            if layer.weights is not None:
                assert res.weight_diag[li].tobytes() == ref.weight_diag[li].tobytes()
                assert net_res.weight_diag[li].tobytes() == ref.weight_diag[li].tobytes()


# ---------------------------------------------------------------------------
# piecewise-linear stacks need no backward pass


def conv_stack(act, rng):
    """conv -> maxpool -> flatten -> fc -> fc, every weighted layer but the
    last with activation act, and an input batch."""
    net = [nn.conv_layer(1, 3, 3, act, rng=rng), nn.pool_layer("maxpool2d", 2),
           nn.flatten_layer(), nn.fc_layer(27, 5, act, rng=rng),
           nn.fc_layer(5, 3, rng=rng)]
    return net, rng.normal(size=(6, 1, 8, 8))


@pytest.mark.parametrize("mode", ["diag", "exact"])
@pytest.mark.parametrize("act", ["relu", "identity"])
def test_piecewise_linear_curvature_needs_only_a_forward_pass(act, mode):
    rng = np.random.default_rng(41)
    net, x = conv_stack(act, rng)
    labels = rng.integers(0, 3, len(x))
    assert curvature.curved_layers(net) == []
    out, walked = nn.forward(net, x)
    _, e_grad = nn.energy(out, labels, "softmax_ce")
    nn.backward(net, walked, e_grad, input_grad=False)
    _, forward_only = nn.forward(net, x)
    ref = curvature.network_curvature(net, walked, labels, "softmax_ce", mode)
    got = curvature.network_curvature(net, forward_only, labels, "softmax_ce", mode)
    assert all(cache.grad_out is None for cache in forward_only)
    for li, layer in enumerate(net):
        if layer.weights is not None:
            assert got.weight_diag[li].tobytes() == ref.weight_diag[li].tobytes()


@pytest.mark.parametrize("act", ["tanh", "softplus"])
def test_curved_stack_without_a_backward_pass_is_rejected(act):
    rng = np.random.default_rng(42)
    net, x = conv_stack(act, rng)
    assert curvature.curved_layers(net) == [0, 3]
    _, caches = nn.forward(net, x)
    for mode in ("diag", "exact"):
        with pytest.raises(ValueError,
                           match="missing backward pass: layer 0 has no grad_out"):
            curvature.network_curvature(net, caches, np.zeros(len(x), int),
                                        "softmax_ce", mode)
