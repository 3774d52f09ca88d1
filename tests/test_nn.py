"""Layer stack: forward/backward, energies, im2col."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ardnet import models, nn


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


def test_mask_zeroes_forward_and_gradients():
    rng = np.random.default_rng(9)
    layer = nn.fc_layer(3, 3, "identity", rng=rng)
    layer.mask = np.zeros_like(layer.weights)
    layer.mask[0, 0] = 1.0
    x = rng.normal(size=(4, 3))
    out, caches = nn.forward([layer], x)
    assert np.allclose(out[:, 1:], layer.bias[1:])
    _, e_grad = nn.energy(out, np.zeros_like(out), "mse")
    grads, _ = nn.backward([layer], caches, e_grad)
    gw = grads[0][0]
    assert np.all(gw[layer.mask == 0] == 0.0)


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
            assert bitwise(caches[0].argmax, amax)
            assert bitwise(gx, scatter_maxpool_adjoint(x.shape, amax, g, p, s))
        elif p <= 2:
            assert bitwise(out, pre)
        else:  # np.mean sums nine elements pairwise
            np.testing.assert_allclose(out, pre, rtol=0, atol=1e-15 * np.abs(x).max())
        bad = x.copy()
        bad[cell] = np.nan
        with pytest.raises(FloatingPointError):
            nn.forward([layer], bad)


def test_num_params():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 6, rng=rng), nn.activation_layer("relu"),
           nn.fc_layer(6, 3, rng=rng)]
    assert nn.num_params(net) == 4 * 6 + 6 * 3


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        nn.activation_funcs("swish")


@pytest.mark.parametrize("make, shape", [
    (lambda rng: nn.fc_layer(3, 4, rng=rng), (2, 3)),
    (lambda rng: nn.conv_layer(2, 3, 3, stride=2, padding=1, rng=rng), (2, 2, 5, 5)),
    (lambda rng: nn.pool_layer("maxpool2d", 2, 1), (2, 2, 4, 4)),
    (lambda rng: nn.pool_layer("avgpool2d", 3, 2), (2, 1, 7, 7)),
    (lambda rng: nn.flatten_layer(), (2, 2, 3, 3)),
    (lambda rng: nn.activation_layer("tanh"), (2, 5)),
], ids=["fc", "conv2d", "maxpool2d", "avgpool2d", "flatten", "activation"])
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
