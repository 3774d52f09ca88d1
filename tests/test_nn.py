"""Layer stack: forward/backward, energies, im2col."""

import copy
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ardnet import curvature, models, nn
from ardnet import supergraph as sg
from ardnet.curvature import network_curvature
from oracles import fd_weight_hessian_diag


def fd_grad(fn, theta, step=1e-5):
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    flat = theta.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        ep = fn(theta)
        flat[i] = orig - step
        em = fn(theta)
        flat[i] = orig
        out.ravel()[i] = (ep - em) / (2 * step)
    return out


def test_fc_identity_weights():
    layer = nn.Layer("fc", weights=np.eye(2), activation="identity")
    out, _ = nn.forward([layer], np.array([[3.0, 4.0]]))
    assert np.array_equal(out, np.array([[3.0, 4.0]]))


def test_fc_relu_scalar():
    layer = nn.Layer("fc", weights=np.array([[2.0]]), activation="relu")
    out, _ = nn.forward([layer], np.array([[1.5]]))
    assert out[0, 0] == 3.0


def test_mlp_matches_hand_rolled_chain():
    rng = np.random.default_rng(7)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng), nn.fc_layer(6, 3, "tanh", rng=rng)]
    x = rng.normal(size=(5, 4))
    out, _ = nn.forward(net, x)
    h = np.tanh(x @ net[0].weights.T + net[0].bias)
    ref = np.tanh(h @ net[1].weights.T + net[1].bias)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_scalar_net_gradient_hand_arithmetic():
    # y = w*x, L = 0.5*(y-t)^2 with w=2, x=3, t=0 -> dL/dw = 18
    layer = nn.Layer("fc", weights=np.array([[2.0]]), activation="identity")
    out, caches = nn.forward([layer], np.array([[3.0]]))
    _, e_grad = nn.energy(out, np.array([[0.0]]), "mse")
    grads, _ = nn.backward([layer], caches, e_grad)
    assert grads[0][0][0, 0] == pytest.approx(18.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng),
           nn.fc_layer(6, 3, "softplus", rng=rng)]
    x = rng.normal(size=(8, 4))
    t = rng.normal(size=(8, 3))
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, t, "mse")
    grads, _ = nn.backward(net, caches, e_grad)
    for li in (0, 1):
        def e_of(w, li=li):
            saved = net[li].weights
            net[li].weights = w
            try:
                o, _ = nn.forward(net, x)
                v, _ = nn.energy(o, t, "mse")
            finally:
                net[li].weights = saved
            return v

        ref = fd_grad(e_of, net[li].weights.copy())
        got = grads[li][0]
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-8)
        assert rel.max() < 1e-6


def test_zero_loss_gradient_gives_zero_weight_gradients():
    rng = np.random.default_rng(1)
    net = [nn.fc_layer(3, 3, "tanh", rng=rng)]
    x = rng.normal(size=(4, 3))
    _, caches = nn.forward(net, x)
    grads, _ = nn.backward(net, caches, np.zeros((4, 3)))
    assert np.all(grads[0][0] == 0.0)
    assert np.all(grads[0][1] == 0.0)


def test_im2col_shape_3x3_input_2x2_kernel():
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    cols = nn.im2col(x, (2, 2))
    assert cols.shape == (4, 4)


def test_im2col_all_ones_sums_to_four():
    x = np.ones((1, 1, 3, 3))
    cols = nn.im2col(x, (2, 2))
    kernel = np.ones(4)
    assert np.all(cols @ kernel == 4.0)


def test_conv_matches_direct_sliding_window():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    layer = nn.Layer("conv2d", weights=w, activation="identity",
                     stride=1, padding=0)
    out, _ = nn.forward([layer], x)
    b, _, hh, ww = x.shape
    ho, wo = hh - 2, ww - 2
    ref = np.zeros((b, 4, ho, wo))
    for bi in range(b):
        for co in range(4):
            for i in range(ho):
                for j in range(wo):
                    ref[bi, co, i, j] = np.sum(
                        x[bi, :, i : i + 3, j : j + 3] * w[co]
                    )
    assert np.max(np.abs(out - ref)) < 1e-12


def test_energy_zero_at_target():
    out = np.array([[1.0, -2.0]])
    v, g = nn.energy(out, out.copy(), "mse")
    assert v == 0.0
    assert np.all(g == 0.0)


def test_energy_mse_hand_value():
    v, g = nn.energy(np.array([[2.0]]), np.array([[0.0]]), "mse")
    assert v == pytest.approx(2.0)
    assert np.allclose(g, [[2.0]])


def test_energy_uniform_softmax():
    v, _ = nn.energy(np.zeros((1, 3)), np.array([1]), "softmax_ce")
    assert v == pytest.approx(np.log(3.0))


def test_softmax_energy_hessian_is_psd():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, 6)
    h = nn.energy_hessian(logits, labels, "softmax_ce", "exact")
    for hb in h:
        eig = np.linalg.eigvalsh(hb)
        assert eig.min() > -1e-12


@pytest.mark.parametrize("name", ["lenet5", "fc"])
def test_predict_equals_forward_and_raises_its_errors(name):
    rng = np.random.default_rng(0)
    if name == "lenet5":
        net, x = models.build_model("lenet5", seed=0), rng.normal(size=(4, 1, 28, 28))
    else:
        net = [nn.fc_layer(5, 7, activation="relu", rng=rng),
               nn.fc_layer(7, 6, activation="tanh", rng=rng), nn.fc_layer(6, 3, rng=rng)]
        x = rng.normal(size=(9, 5))
    out, ref = nn.predict(net, x), nn.forward(net, x)[0]
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    # a non-finite input, then non-finite weights in the last layer
    bad = x.copy()
    bad.flat[0] = np.nan
    for case, arg in (("input", bad), ("last layer", x)):
        if case == "last layer":
            net[-1].weights = np.full_like(net[-1].weights, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as ref:
                nn.forward(net, arg)
            with pytest.raises(FloatingPointError) as got:
                nn.predict(net, arg)
        assert str(got.value) == str(ref.value)
        if case == "last layer":
            assert str(got.value) == f"non-finite values in output of layer {len(net) - 1}"


@pytest.mark.parametrize("run", [nn.forward, nn.predict], ids=["forward", "predict"])
def test_finite_check_passes_huge_entries_and_names_the_layer_of_a_non_finite_one(run):
    net = [nn.Layer("fc", weights=np.eye(4), bias=np.zeros(4)) for _ in range(3)]
    x = np.full((2, 4), 1e200)  # its sum of squares overflows; every entry is finite
    out = run(net, x)
    out = out[0] if run is nn.forward else out
    assert out.tobytes() == x.tobytes()
    for idx in range(len(net)):
        for bad in (np.nan, np.inf, -np.inf):
            broken = copy.deepcopy(net)
            broken[idx].bias[1] = bad
            with pytest.raises(FloatingPointError,
                               match=f"^non-finite values in output of layer {idx}$"):
                run(broken, np.ones((2, 4)))


def test_finite_check_of_a_channel_last_conv_output_copies_nothing():
    net = models.build_model("lenet5", seed=0)[:1]
    out = nn.predict(net, np.random.default_rng(0).normal(size=(8, 1, 28, 28)))
    assert not out.flags.c_contiguous  # NCHW-shaped view of channel-last memory
    tracemalloc.start()
    try:
        assert nn.all_finite(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.size  # neither a copy nor a one-byte-per-entry mask


def test_mask_zeroes_forward_and_gradients():
    rng = np.random.default_rng(9)
    layer = nn.fc_layer(3, 3, "identity", rng=rng)
    mask = np.zeros_like(layer.weights)
    mask[0, 0] = 1.0  # before the assignment, which masks the weights
    layer.mask = mask
    assert layer.weights[0, 0] != 0.0
    x = rng.normal(size=(4, 3))
    out, caches = nn.forward([layer], x)
    assert np.allclose(out[:, 1:], layer.bias[1:])
    _, e_grad = nn.energy(out, np.zeros_like(out), "mse")
    grads, _ = nn.backward([layer], caches, e_grad)
    gw = grads[0][0]
    assert np.all(gw[layer.mask == 0] == 0.0)


def test_layer_keeps_its_weights_masked_at_rest():
    rng = np.random.default_rng(4)
    mask = (rng.random((3, 4)) < 0.5).astype(float)
    w = rng.normal(size=(3, 4))
    given_w, given_mask = w.copy(), mask.copy()

    def assert_masked(layer, raw):
        assert layer.weights.tobytes() == (raw * layer.mask).tobytes()
        assert layer.masked_weights() is layer.weights

    layer = nn.Layer("fc", weights=w, bias=np.zeros(3), mask=mask)
    assert_masked(layer, w)
    layer.weights = w + 1.0
    assert_masked(layer, w + 1.0)
    layer.mask = np.ones((3, 4))  # a wider mask brings nothing back
    assert layer.weights.tobytes() == ((w + 1.0) * mask).tobytes()
    layer.mask = mask
    copied = copy.deepcopy(layer)
    assert_masked(copied, layer.weights)
    copied.weights = w
    assert_masked(copied, w)
    # a caller's arrays are never masked or stored in place
    assert w.tobytes() == given_w.tobytes() and mask.tobytes() == given_mask.tobytes()
    assert not np.shares_memory(copied.weights, w)
    # a mask that does not fit changes neither the weights nor the mask
    before = layer.weights
    with pytest.raises(ValueError):
        layer.mask = np.ones((2, 4))
    assert layer.weights is before and layer.mask is mask
    # the finite-difference oracle assigns probe weights and restores them
    x, t = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    diag = fd_weight_hessian_diag([layer], x, t, "mse", 0)
    assert layer.weights.tobytes() == before.tobytes()
    assert np.all(diag[mask == 0] == 0.0)


def test_maxpool_and_avgpool_forward():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    mx, _ = nn.forward([nn.pool_layer("maxpool2d", 2)], x)
    av, _ = nn.forward([nn.pool_layer("avgpool2d", 2)], x)
    assert np.array_equal(mx[0, 0], [[5, 7], [13, 15]])
    assert np.array_equal(av[0, 0], [[2.5, 4.5], [10.5, 12.5]])


# ---------------------------------------------------------------------------
# pools against the sliding-window kernels they replaced


def window_pool(x, p, s, kind):
    """Pool forward by sliding windows: (pre-activation, argmax or None)."""
    b, c, h, w = x.shape
    h_out, w_out = (h - p) // s + 1, (w - p) // s + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (p, p), axis=(2, 3))
    win = win[:, :, ::s, ::s].reshape(b, c, h_out, w_out, p * p)
    if kind == "avgpool2d":
        return win.mean(axis=-1), None
    amax = np.argmax(win, axis=-1)
    return np.take_along_axis(win, amax[..., None], axis=-1)[..., 0], amax


def scatter_maxpool_adjoint(x_shape, amax, g, p, s):
    """Maxpool input gradient by one np.add.at over every window's winner."""
    gx = np.zeros(x_shape)
    u, v = np.divmod(amax, p)
    bi, ci, yi, xi = np.indices(g.shape)
    np.add.at(gx, (bi, ci, yi * s + u, xi * s + v), g)
    return gx


def bitwise(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# few distinct values, signed zeros and negatives: relu makes many ties
TIES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
VALUES = TIES | st.floats(-4.0, 4.0, allow_subnormal=False)


@st.composite
def pool_cases(draw):
    p, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h, w = draw(st.integers(p, p + 7)), draw(st.integers(p, p + 7))
    x = draw(hnp.arrays(np.float64, (b, c, h, w), elements=VALUES))
    h_out, w_out = (h - p) // s + 1, (w - p) // s + 1
    g = draw(hnp.arrays(np.float64, (b, c, h_out, w_out), elements=VALUES))
    # an input that some window reads: offset (u, v) of window (yo, xo)
    cell = (draw(st.integers(0, b - 1)), draw(st.integers(0, c - 1)),
            draw(st.integers(0, h_out - 1)) * s + draw(st.integers(0, p - 1)),
            draw(st.integers(0, w_out - 1)) * s + draw(st.integers(0, p - 1)))
    return p, s, np.maximum(x, 0.0) if draw(st.booleans()) else x, g, cell


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=pool_cases())
def test_strided_offset_pools_equal_the_sliding_window_kernels(case):
    p, s, x, g, cell = case
    for kind in ("maxpool2d", "avgpool2d"):
        layer = nn.pool_layer(kind, p, s)
        out, caches = nn.forward([layer], x)
        pre, amax = window_pool(x, p, s, kind)
        _, gx = nn.backward([layer], caches, g)
        if kind == "maxpool2d":
            assert bitwise(out, pre)
            # the winner is stored in the narrowest unsigned type that holds it
            assert caches[0].argmax.dtype == np.min_scalar_type(p * p - 1)
            assert bitwise(caches[0].argmax.astype(amax.dtype), amax)
            assert bitwise(gx, scatter_maxpool_adjoint(x.shape, amax, g, p, s))
        elif p <= 2:
            assert bitwise(out, pre)
        else:  # np.mean sums nine elements pairwise
            np.testing.assert_allclose(out, pre, rtol=0, atol=1e-15 * np.abs(x).max())
        bad = x.copy()
        bad[cell] = np.nan
        with pytest.raises(FloatingPointError):
            nn.forward([layer], bad)


@pytest.mark.parametrize("kind", ["maxpool2d", "avgpool2d"])
def test_tiling_pool_adjoint_gives_the_bits_of_the_scatter(kind):
    # windows that tile the input (stride = pool, sizes divide) reach each
    # input once: the adjoint has the bits of the scatter oracle, a -0.0
    # winner's gradient becoming 0.0 + -0.0 = 0.0
    rng = np.random.default_rng(21)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(2, 3, 6, 8))
    g = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(2, 3, 3, 4))
    assert np.any(np.signbit(g) & (g == 0.0)) and np.any(g < 0.0)
    layer = nn.pool_layer(kind, 2)
    _, caches = nn.forward([layer], x)
    if kind == "maxpool2d":
        want = scatter_maxpool_adjoint(x.shape, window_pool(x, 2, 2, kind)[1], g, 2, 2)
        want_sq = want
    else:  # every input is in one window, entering with weight 1/4
        want, want_sq = (np.zeros(x.shape) + np.kron(g / area, np.ones((2, 2)))
                         for area in (4, 16))
    assert not np.any(np.signbit(want) & (want == 0.0))
    _, gx = nn.backward([layer], caches, g)
    assert bitwise(gx, want)
    assert bitwise(nn._ADJOINTS[kind](layer, caches[0], g, squared=True)[2], want_sq)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        nn.activation_funcs("swish")


@pytest.mark.parametrize("make, shape", [
    (lambda rng: nn.fc_layer(3, 4, rng=rng), (2, 3)),
    (lambda rng: nn.conv_layer(2, 3, 3, stride=2, padding=1, rng=rng), (2, 2, 5, 5)),
    (lambda rng: nn.pool_layer("maxpool2d", 2, 1), (2, 2, 4, 4)),
    (lambda rng: nn.pool_layer("avgpool2d", 3, 2), (2, 1, 7, 7)),
    (lambda rng: nn.flatten_layer(), (2, 2, 3, 3)),
], ids=["fc", "conv2d", "maxpool2d", "avgpool2d", "flatten"])
def test_squared_adjoint_is_the_curvature_diagonal_of_the_map(make, shape):
    # the adjoint at a unit pre-activation vector e_k returns row k of the
    # layer's linear maps (weights, bias, input -> pre-activation), so
    # diag(A^T D A) = sum_k d_k (row k)^2 must be the squared adjoint at d
    rng = np.random.default_rng(3)
    layer = make(rng)
    _, (cache,) = nn.forward([layer], rng.normal(size=shape))
    adjoint = nn._ADJOINTS[layer.kind]
    d = rng.uniform(0.5, 2.0, size=cache.preact.shape)
    want = [0.0, 0.0, 0.0]
    for k in range(d.size):
        unit = np.zeros(d.size)
        unit[k] = 1.0
        rows = adjoint(layer, cache, unit.reshape(d.shape))
        want = [None if row is None else acc + d.flat[k] * row**2
                for acc, row in zip(want, rows)]
    got = adjoint(layer, cache, d, squared=True)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if g is not None:
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# the conv input adjoint


def col2im_nchw(cols, x_shape, kernel, stride=1, padding=0):
    """The NCHW scatter of a whole patch matrix, reading patches in
    im2col's (m, k, C) column order: bit for bit the channel-last col2im
    that scattered the dense product gp @ wmat before it formed one kernel
    row at a time."""
    b, c, h, w = x_shape
    m, k = kernel
    h_out, w_out = nn.conv_output_shape(h, w, kernel, stride, padding)
    patches = cols.reshape(b, h_out, w_out, m, k, c).transpose(0, 5, 1, 2, 3, 4)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    for u in range(m):
        for v in range(k):
            xp[:, :, u : u + stride * h_out : stride,
               v : v + stride * w_out : stride] += patches[:, :, :, :, u, v]
    if padding:
        xp = xp[:, :, padding:-padding, padding:-padding]
    return xp


def dense_conv_adjoint(layer, cache, g, squared):
    """The conv adjoint's (weight, input) terms as a dense composition: the
    whole cached cols (squared whole) and the whole patch matrix gp @ wmat,
    scattered by col2im_nchw."""
    c_out, c_in, m, k = layer.weights.shape
    cols, wmat = cache.cols, nn.kernel_matrix(layer.weights)
    if squared:
        cols, wmat = cols**2, wmat**2
    gp = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
    gw = (gp.T @ cols).reshape(c_out, m, k, c_in).transpose(0, 3, 1, 2)
    return gw, col2im_nchw(gp @ wmat, cache.x.shape, (m, k), layer.stride, layer.padding)


def conv_case(rng, b, c_in, c_out, k, stride, pad, size):
    """A conv layer with an input and an output gradient."""
    layer = nn.Layer("conv2d", weights=rng.normal(size=(c_out, c_in, k, k)),
                     stride=stride, padding=pad)
    ho, wo = nn.conv_output_shape(size, size, (k, k), stride, pad)
    return layer, rng.normal(size=(b, c_in, size, size)), rng.normal(size=(b, c_out, ho, wo))


def conv_geometries(n, seed):
    """n conv layers with inputs and output gradients, drawn as in
    acceptance criterion 3 but with padding up to 2."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        b, c_in, c_out = (int(v) for v in rng.integers(1, 4, size=3))
        k, stride, pad = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 3))
        size = int(rng.integers(k + stride, k + stride + 4))
        yield conv_case(rng, b, c_in, c_out, k, stride, pad, size)


def conv_grid(seed):
    """Every stride 1-2, padding 0-1 and 1-3 input channels, with a 3x3
    kernel on 7x7 inputs."""
    rng = np.random.default_rng(seed)
    for stride, pad, c_in in itertools.product((1, 2), (0, 1), (1, 2, 3)):
        yield conv_case(rng, 2, c_in, 3, 3, stride, pad, 7)


# each input sums at most 27 products of standard normals; any summation
# order keeps float64 rounding far below this, relative to the largest term
ADJOINT_RTOL = 1e-12


def test_conv_input_adjoint_matches_the_nchw_col2im_reference():
    # the per-kernel-row input term and the squared weight term, formed a
    # kernel row at a time, against the whole-matrix products
    rng = np.random.default_rng(7)
    for layer, x, g in itertools.chain(conv_grid(5), conv_geometries(60, seed=5)):
        _, (cache,) = nn.forward([layer], x)
        # a product with the identity is exact, so col2im's scatter must add
        # the same slabs in the same offset order as the NCHW reference (a
        # drawn patch matrix: im2col's repeats each input, in any order)
        _, c_in, m, k = layer.weights.shape
        cols = rng.normal(size=cache.cols.shape)
        assert bitwise(nn.col2im(cols, np.eye(m * k * c_in), x.shape, (m, k), layer.stride,
                                 layer.padding),
                       col2im_nchw(cols, x.shape, (m, k), layer.stride, layer.padding))
        for squared in (False, True):
            gw, _, gx = nn._ADJOINTS["conv2d"](layer, cache, g, squared=squared)
            assert gx.shape == x.shape
            for got, want in zip((gw, gx), dense_conv_adjoint(layer, cache, g, squared)):
                np.testing.assert_allclose(got, want, rtol=ADJOINT_RTOL,
                                           atol=ADJOINT_RTOL * np.abs(want).max())


def test_conv_input_adjoint_satisfies_the_dot_product_identity():
    # <conv(x), g> = <x, conv^T(g)> for the bias-free, identity-activation map
    for layer, x, g in conv_geometries(60, seed=6):
        y, caches = nn.forward([layer], x)
        _, gx = nn.backward([layer], caches, g)
        lhs, rhs = float(np.sum(y * g)), float(np.sum(x * gx))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.sum(np.abs(y * g)))


# ---------------------------------------------------------------------------
# channel-last memory under NCHW shapes


def channel_last(a):
    """An NCHW array's (b, H, W, C) transpose is contiguous."""
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def image_stack(padding, rng):
    """conv -> maxpool -> conv -> avgpool -> flatten -> fc on 12x12 inputs;
    the second conv is tanh, so the curvature reads a backward pass."""
    side = 3 if padding else 1  # 12 -> conv -> pool -> conv -> pool
    return [nn.conv_layer(2, 4, 3, "relu", padding=padding, rng=rng),
            nn.pool_layer("maxpool2d", 2),
            nn.conv_layer(4, 5, 3, "tanh", padding=padding, rng=rng),
            nn.pool_layer("avgpool2d", 2),
            nn.flatten_layer(),
            nn.fc_layer(5 * side * side, 3, rng=rng)]


def run_stack(net, x, y):
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, y, "softmax_ce")
    grads, gx = nn.backward(net, caches, e_grad)
    curv = {mode: network_curvature(net, caches, y, "softmax_ce", mode)
            for mode in ("diag", "exact")}
    return out, caches, grads, gx, curv


@pytest.mark.parametrize("padding", [0, 1])
def test_image_stack_gives_the_same_bits_for_either_input_layout(padding):
    rng = np.random.default_rng(11 + padding)
    net = image_stack(padding, rng)
    x, y = rng.normal(size=(3, 2, 12, 12)), rng.integers(0, 3, 3)
    x_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert channel_last(x_last) and not channel_last(x)
    out, caches, grads, gx, curv = run_stack(net, x, y)
    out2, caches2, grads2, gx2, curv2 = run_stack(net, x_last, y)
    assert bitwise(out, out2) and bitwise(gx, gx2)
    for a, b in zip(caches, caches2):
        assert (a.grad_out is None) == (b.grad_out is None)  # set on the tanh conv only
        for name in ("preact", "out") + (() if a.grad_out is None else ("grad_out",)):
            assert bitwise(getattr(a, name), getattr(b, name))
    pairs = [(a[i], b[i]) for a, b in zip(grads, grads2) if a is not None for i in (0, 1)]
    pairs += [(a, b) for mode in ("diag", "exact")
              for a, b in zip(curv[mode].weight_diag, curv2[mode].weight_diag)
              if a is not None]
    assert len(pairs) == 12
    assert all(bitwise(a, b) for a, b in pairs)


@pytest.mark.parametrize("padding", [0, 1])
def test_conv_and_pool_activations_and_input_gradients_stay_channel_last(padding):
    # only flatten copies into NCHW order; its gradient comes back NCHW.
    # Each layer's input gradient is a one-layer backward pass fed the input
    # gradient of the layer above, as the stack's walk forms it
    rng = np.random.default_rng(13 + padding)
    net = image_stack(padding, rng)
    x, y = rng.normal(size=(3, 2, 12, 12)), rng.integers(0, 3, 3)
    out, caches, _, gx, _ = run_stack(net, x, y)
    input_grads = [nn.energy(out, y, "softmax_ce")[1]]
    for layer, cache in zip(net[::-1], caches[::-1]):
        input_grads.insert(0, nn.backward([layer], [cache], input_grads[0])[1])
    assert bitwise(input_grads[0], gx)
    for layer, cache, g_in in zip(net, caches, input_grads):
        if layer.kind in ("conv2d", "maxpool2d", "avgpool2d"):
            assert channel_last(cache.out), layer.kind
            assert channel_last(g_in), layer.kind
    assert caches[4].out.flags.c_contiguous
    assert caches[4].out.tobytes() == np.ascontiguousarray(caches[4].x).tobytes()


def two_array_caches(net, x):
    """Forward caches whose relu layers hold the pre-activation and the
    output as two arrays: each layer runs with the identity activation, and
    its relu output is a new array."""
    caches = []
    for layer in net:
        _, (cache,) = nn.forward([dataclasses.replace(layer, activation="identity")], x)
        if layer.activation == "relu":
            cache.out = np.maximum(cache.preact, 0.0)
        caches.append(cache)
        x = cache.out
    return caches


def test_relu_in_place_gives_the_bits_of_a_separate_preactivation():
    rng = np.random.default_rng(23)
    net = [nn.conv_layer(2, 4, 3, "relu", padding=1, rng=rng), nn.pool_layer("maxpool2d", 2),
           nn.conv_layer(4, 5, 3, "relu", rng=rng), nn.pool_layer("maxpool2d", 2),
           nn.flatten_layer(), nn.fc_layer(5 * 2 * 2, 6, "relu", rng=rng),
           nn.fc_layer(6, 3, rng=rng)]
    x, y = rng.normal(size=(4, 2, 12, 12)), rng.integers(0, 3, 4)
    out, caches = nn.forward(net, x)
    ref = two_array_caches(net, x)
    flat = nn.forward([nn.Layer("flatten", activation="relu")], x)[0]
    assert bitwise(flat, np.maximum(x, 0.0).reshape(4, -1)) and np.any(x < 0.0)  # x kept
    for layer, cache, two in zip(net, caches, ref):
        assert (cache.preact is cache.out) == (layer.activation in ("relu", "identity"))
        assert bitwise(cache.out, two.out)
        assert layer.activation != "relu" or two.preact is not two.out
    _, e_grad = nn.energy(out, y, "softmax_ce")
    (grads, gx), (grads2, gx2) = (nn.backward(net, c, e_grad) for c in (caches, ref))
    assert bitwise(gx, gx2)
    assert all(bitwise(a[i], b[i]) for a, b in zip(grads, grads2) if a is not None for i in (0, 1))
    for mode in ("diag", "exact"):
        got, want = (network_curvature(net, c, y, "softmax_ce", mode) for c in (caches, ref))
        for name in ("weight_diag", "preact"):
            pairs = [(a, b) for a, b in zip(getattr(got, name), getattr(want, name))
                     if b is not None]
            assert pairs and all(bitwise(a, b) for a, b in pairs)
        # relu's pre-activation curvature keeps the bits of the float rule
        # f'(pre)**2 * H (times f' on either side of a full matrix)
        d1 = lambda pre: (pre > 0).astype(np.float64)  # noqa: E731  relu's f' as floats
        for idx in (0, 2, 5):
            above, h_above = net[idx + 1], got.preact[idx + 1]
            if h_above.ndim == 3:
                h_out, bf = curvature._full_backmap(net, idx + 1, h_above), d1(ref[idx].preact)
                rule = h_out * bf[:, :, None] * bf[:, None, :]
            else:
                h_out = nn._ADJOINTS[above.kind](above, caches[idx + 1], h_above, squared=True)[2]
                rule = d1(ref[idx].preact) ** 2 * h_out
            assert bitwise(got.preact[idx], rule)


def seed_guard_stack(top, rng):
    """A stack whose top layer hands the reverse walks' seed on, and its
    input: a relu fc masks the seed at once, an identity fc passes it to
    its adjoint, and a flatten passes a view of it to a relu maxpool (an fc
    over the flatten passes it a view of the curvature stored there)."""
    if top.endswith("flatten"):
        net = [nn.conv_layer(2, 3, 3, "relu", padding=1, rng=rng),
               nn.Layer("maxpool2d", activation="relu", pool=2, stride=2),
               nn.flatten_layer()]
        if top == "fc-over-flatten":
            net.append(nn.fc_layer(27, 4, rng=rng))
        return net, rng.normal(size=(5, 2, 6, 6))
    return ([nn.fc_layer(6, 5, "relu", rng=rng),
             nn.fc_layer(5, 4, "relu" if top == "relu-fc" else "identity", rng=rng)],
            rng.normal(size=(5, 6)))


@pytest.mark.parametrize("top", ["relu-fc", "identity-fc", "flatten", "fc-over-flatten"])
def test_reverse_walks_leave_their_seed_as_it_was(top):
    # both walks apply relu's mask in place only to arrays they allocated
    rng = np.random.default_rng(29)
    net, x = seed_guard_stack(top, rng)
    out, caches = nn.forward(net, x)
    b, n = out.shape
    seeds = {"backward": rng.normal(size=(b, n)), "diag": rng.normal(size=(b, n)),
             "exact": rng.normal(size=(b, n, n))}
    kept = {name: seed.copy() for name, seed in seeds.items()}
    for input_grad in (True, False):
        nn.backward(net, caches, seeds["backward"], input_grad=input_grad)
        for mode in ("diag", "exact"):
            curvature.propagate_curvature(net, caches, seeds[mode], mode, input_grad)
    for name, seed in seeds.items():
        assert bitwise(seed, kept[name]), name
    # each stored pre-activation curvature is the one a one-layer walk fed a
    # copy of its output curvature forms: no mask below reached it
    result, h = curvature.propagate_curvature(net, caches, seeds["diag"], "diag")[0], kept["diag"]
    for idx in range(len(net) - 1, -1, -1):
        one, h = curvature.propagate_curvature([net[idx]], [caches[idx]], h.copy(), "diag")
        assert bitwise(result.preact[idx], one.preact[0]), idx


def test_a_node_gradient_reaches_both_relu_fc_edges_it_feeds_unmasked():
    # the output seed feeds edges 3 and 4 and node 2's gradient edges 1 and
    # 2; each edge's `Op.vjp` hands its node gradient to nn.backward
    rng = np.random.default_rng(31)
    ops = [sg.Op("fc", [nn.fc_layer(4, 4, "relu", rng=rng)]) for _ in range(5)]
    graph = sg.SuperGraph(4, [sg.Edge(0, 1, ops[0]), sg.Edge(1, 2, ops[1], w=0.7),
                              sg.Edge(1, 2, ops[2], w=-0.4), sg.Edge(2, 3, ops[3], w=1.3),
                              sg.Edge(1, 3, ops[4], w=0.5)])
    _, gcache = sg.graph_forward(graph, rng.normal(size=(6, 4)))
    seed = rng.normal(size=(6, 4))
    kept = seed.copy()
    node_g = sg._node_grads(graph, gcache, seed)

    def vjp(eid, g):  # on its own copy of the node gradient, in the walk's order
        return graph.w[eid] * ops[eid].vjp(gcache.edge_cache[eid], g.copy())

    g2 = vjp(3, seed)
    assert bitwise(seed, kept) and bitwise(node_g[2], g2)
    assert bitwise(node_g[1], vjp(4, seed) + vjp(1, g2) + vjp(2, g2))


def walk_bytes(result):
    """Bytes of the distinct arrays a CurvatureResult keeps."""
    arrays = [a for a in result.preact + result.weight_diag if a is not None]
    bases = {id(a if a.base is None else a.base): a if a.base is None else a.base
             for a in arrays}
    return sum(base.nbytes for base in bases.values())


def test_reverse_walks_hold_no_float_relu_mask_or_second_gradient():
    # relu's bool mask is applied in place to a gradient or curvature the
    # walk allocated.  Measured peaks, in units of the first conv's output:
    # backward 2.14 (3.17 with a float mask and a second buffer per relu
    # layer), diag curvature beyond the result it returns 0.76 (1.29)
    rng = np.random.default_rng(0)
    net = [nn.conv_layer(1, 4, 3, "relu", padding=1, rng=rng), nn.pool_layer("maxpool2d"),
           nn.conv_layer(4, 8, 3, "relu", padding=1, rng=rng), nn.pool_layer("maxpool2d"),
           nn.flatten_layer(), nn.fc_layer(8 * 5 * 5, 10, rng=rng)]
    x, y = rng.normal(size=(32, 1, 20, 20)), rng.integers(0, 10, 32)
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, y, "softmax_ce")
    unit = caches[0].out.nbytes
    steps = {"backward": (lambda: nn.backward(net, caches, e_grad, input_grad=False), 2.5),
             "curvature": (lambda: network_curvature(net, caches, y, "softmax_ce", "diag"), 1.0)}
    for name, (step, bound) in steps.items():
        step()  # warm up before measuring
        tracemalloc.start()
        try:
            result = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = walk_bytes(result) if name == "curvature" else 0
        assert peak - kept < bound * unit, (name, (peak - kept) / unit)


def test_im2col_times_the_kernel_matrix_is_a_direct_convolution():
    rng = np.random.default_rng(17)
    for case in range(40):
        b, c_in, c_out = (int(v) for v in rng.integers(1, 4, size=3))
        m, k = (int(v) for v in rng.integers(1, 4, size=2))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        h, w = int(rng.integers(m + stride, m + stride + 4)), int(rng.integers(k, k + 5))
        x = rng.normal(size=(b, c_in, h, w))
        if case % 2:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        kern = rng.normal(size=(c_out, c_in, m, k))
        ho, wo = nn.conv_output_shape(h, w, (m, k), stride, pad)
        got = (nn.im2col(x, (m, k), stride, pad) @ nn.kernel_matrix(kern).T)
        got = got.reshape(b, ho, wo, c_out).transpose(0, 3, 1, 2)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ref = np.zeros((b, c_out, ho, wo))
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, :, i * stride : i * stride + m, j * stride : j * stride + k]
                ref[:, :, i, j] = np.einsum("bcuv,ocuv->bo", patch, kern)
        assert np.max(np.abs(got - ref)) <= 1e-12
