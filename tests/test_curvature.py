"""Curvature recursion against finite-difference and closed-form oracles."""

import numpy as np
import pytest

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
