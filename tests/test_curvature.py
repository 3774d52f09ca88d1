"""Curvature recursion against finite-difference and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ardnet import curvature, nn


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
        ref = curvature.fd_weight_hessian_diag(net, x, t, "mse", li, step=1e-4)
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
    f, d1, d2 = nn.activation_funcs("relu")
    x = np.linspace(-2, 2, 9)
    assert np.all(d2(x) == 0.0)


def test_mac_counts_match_reference_magnitudes():
    # 100x100 layer: ~107.97 MMACs exact vs ~0.04 MMACs approximate
    assert curvature.mac_count_exact(100, 100) == pytest.approx(107.97e6, rel=1e-2)
    assert curvature.mac_count_approx(100, 100) == pytest.approx(0.04e6, rel=1e-2)


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
    results = []
    for layer, shape in ((conv, (4, -1, 1, 1)), (fc, (4, -1))):
        _, caches = nn.forward([layer], x.reshape(shape))
        nn.backward([layer], caches, g.reshape(shape))
        res, h_in = curvature.propagate_curvature([layer], caches, seed, "exact")
        results.append((res.weight_diag[0].reshape(3, 2), h_in.reshape(4, 2)))
    for got, ref in zip(*results):
        assert rel_err(got, ref) < 1e-12


def test_conv_exact_matches_finite_differences():
    rng = np.random.default_rng(8)
    net = [nn.conv_layer(2, 2, 2, "tanh", rng=rng)]
    x = rng.normal(size=(1, 2, 4, 4))
    t = rng.normal(size=(1, 2, 3, 3))
    _, caches = net_forward_backward(net, x, t)
    res = curvature.network_curvature(net, caches, t, "mse", "exact")
    ref = curvature.fd_weight_hessian_diag(net, x, t, "mse", 0, step=1e-4)
    assert rel_err(res.weight_diag[0], ref, floor=1e-4) < 1e-4


def test_conv_constant_batch_exact_equals_approx():
    rng = np.random.default_rng(11)
    base = np.abs(rng.normal(size=(1, 1, 3, 3))) + 0.5
    x = np.repeat(base, 4, axis=0)
    net = [nn.conv_layer(1, 1, 2, "identity", rng=rng, bias=False)]
    net[0].weights = np.abs(net[0].weights) + 0.1
    t = np.zeros((4, 1, 2, 2))
    _, caches = net_forward_backward(net, x, t)
    exact = curvature.network_curvature(net, caches, t, "mse", "exact")
    approx = curvature.conv_hessian(net, caches, t, "mse", "approx")
    # identical samples and positive entries: the mean-field form loses nothing
    # except position mixing; for a constant batch the diagonal recursion
    # makes both paths averages of the same per-position quantities
    assert rel_err(approx.weight_diag[0], exact.weight_diag[0], floor=1e-8) < 0.35


def test_finite_diff_quadratic_and_linear():
    assert curvature.finite_diff_hessian(lambda t: float(t[0] ** 2),
                                         np.array([0.7]))[0] == pytest.approx(2.0)
    assert abs(curvature.finite_diff_hessian(lambda t: float(3.0 * t[0]),
                                             np.array([0.2]))[0]) < 1e-8


def test_finite_diff_step_bounds():
    with pytest.raises(ValueError, match="outside"):
        curvature.finite_diff_hessian(lambda t: 0.0, np.array([0.0]), step=1e-2)


def test_fd_cross_validates_recursive_path_on_mlp():
    rng = np.random.default_rng(12)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng), nn.fc_layer(6, 3, "tanh", rng=rng)]
    x = rng.normal(size=(5, 4))
    t = rng.normal(size=(5, 3))
    _, caches = net_forward_backward(net, x, t)
    res = curvature.network_curvature(net, caches, t, "mse", "exact")
    ref = curvature.fd_weight_hessian_diag(net, x, t, "mse", 1, step=1e-4)
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
    ref = curvature.fd_weight_hessian_diag(net, x, t, "mse", fc, step=1e-4)
    assert rel_err(res.weight_diag[fc], ref, floor=1e-4) < 1e-4


@pytest.mark.parametrize("mode", ["exact", "diag"])
def test_activation_layer_matches_the_activation_inside_a_layer(mode):
    # for any output seed, an activation layer above a conv layer passes on
    # the same curvature as the activation built into that conv layer
    rng = np.random.default_rng(30)
    fused = nn.conv_layer(2, 3, 2, "tanh", rng=rng)
    split = [nn.Layer("conv2d", weights=fused.weights, bias=fused.bias),
             nn.activation_layer("tanh")]
    x = rng.normal(size=(2, 2, 4, 4))
    out, _ = nn.forward([fused], x)
    g = rng.normal(size=out.shape)
    if mode == "exact":
        a = rng.normal(size=(2, out[0].size, out[0].size))
        seed = a @ a.transpose(0, 2, 1)  # dense, so conv position blocks matter
    else:
        seed = rng.uniform(size=out.shape)
    results = []
    for net in ([fused], split):
        _, caches = nn.forward(net, x)
        nn.backward(net, caches, g)
        results.append(curvature.propagate_curvature(net, caches, seed, mode))
    (r1, h1), (r2, h2) = results
    np.testing.assert_allclose(r2.weight_diag[0], r1.weight_diag[0], rtol=1e-12)
    np.testing.assert_allclose(h2, h1, rtol=1e-12)


@pytest.mark.parametrize("kind", ["flatten", "maxpool2d", "avgpool2d"])
def test_activation_of_a_pool_or_flatten_layer_enters_the_curvature(kind):
    rng = np.random.default_rng(32)
    net = [nn.Layer(kind, activation="tanh", stride=2), nn.flatten_layer(),
           nn.fc_layer(32 if kind == "flatten" else 8, 3, "tanh", rng=rng)]
    x = rng.normal(size=(2, 2, 4, 4))
    t = 0.5 * rng.normal(size=(2, 3))
    _, caches = net_forward_backward(net, x, t)
    ref = curvature.finite_diff_hessian(
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
    """1-3 fc or activation layers as (kind, width or None, activation)."""
    return [draw(st.one_of(
        st.tuples(st.just("fc"), st.integers(1, 4), st.sampled_from(SMOOTH)),
        st.tuples(st.just("activation"), st.none(), st.sampled_from(SMOOTH)),
    )) for _ in range(draw(st.integers(1, max_layers)))]


def build_tail(spec, width, rng):
    layers = []
    for kind, n_out, act in spec:
        if kind == "fc":
            layers.append(nn.fc_layer(width, n_out, act, rng=rng))
            width = n_out
        else:
            layers.append(nn.activation_layer(act))
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
                ref = curvature.fd_weight_hessian_diag(net, x, t, energy_kind, li, FD_STEP)
                assert rel_err(res.weight_diag[li], ref, floor=1e-4) < 1e-4
    if input_diag:
        _, caches = net_forward_backward(net, x, t, energy_kind)
        seed = nn.energy_hessian(caches[-1].out, t, energy_kind, "exact")
        _, h_in = curvature.propagate_curvature(net, caches, seed, "exact")
        ref = curvature.finite_diff_hessian(
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
