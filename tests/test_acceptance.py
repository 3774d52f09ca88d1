"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 9 and 10 need the four standard MNIST IDX files; point
ARDNET_MNIST_DIR (or place them under ./data/mnist) to enable them,
otherwise they skip with a message.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ardnet import curvature, data, engine, exports, models, nn
from ardnet import supergraph as sg
from ardnet import updates
from ardnet.updates import SearchConfig
from oracles import cccp_quadratic_reference, fd_weight_hessian_diag


def report(num, desc, passed):
    print(f"\ncriterion {num:2d}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def rel_err(got, ref, floor):
    return np.max(np.abs(got - ref) / np.maximum(np.abs(ref), floor))


def fd_reference(net, x, t, li):
    """Richardson-extrapolated central differences: the h^2 truncation term
    cancels, leaving only roundoff on near-zero entries."""
    d1 = fd_weight_hessian_diag(net, x, t, "mse", li, 1e-3)
    d2 = fd_weight_hessian_diag(net, x, t, "mse", li, 5e-4)
    return (4.0 * d2 - d1) / 3.0


def scaled_rel_err(got, ref):
    """Relative error with the denominator floored at 1e-3 of the layer's
    largest entry, so finite-difference roundoff on essentially-zero entries
    is not mistaken for recursion error."""
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-3 * scale)))


# ---------------------------------------------------------------------------


def test_criterion_01_hessian_oracle_suite():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(0)
    for trial in range(20):  # fully connected stacks
        depth = int(rng.integers(2, 5))
        widths = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        acts = [str(rng.choice(["tanh", "softplus"])) for _ in range(depth)]
        net = [nn.fc_layer(widths[i], widths[i + 1], acts[i], rng=rng)
               for i in range(depth)]
        x = rng.normal(size=(4, widths[0]))
        t = rng.normal(size=(4, widths[-1]))
        out, caches = nn.forward(net, x)
        _, e_grad = nn.energy(out, t, "mse")
        nn.backward(net, caches, e_grad)
        res = curvature.network_curvature(net, caches, t, "mse", "exact")
        for li in range(depth):
            ref = fd_reference(net, x, t, li)
            worst = max(worst, scaled_rel_err(res.weight_diag[li], ref))
    for trial in range(10):  # tiny conv stacks
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 3))
        net = [nn.conv_layer(c_in, c_out, 2, "tanh", rng=rng)]
        x = rng.normal(size=(2, c_in, 4, 4))
        t = rng.normal(size=(2, c_out, 3, 3))
        out, caches = nn.forward(net, x)
        _, e_grad = nn.energy(out, t, "mse")
        nn.backward(net, caches, e_grad)
        res = curvature.network_curvature(net, caches, t, "mse", "exact")
        ref = fd_reference(net, x, t, 0)
        worst = max(worst, scaled_rel_err(res.weight_diag[0], ref))
    elapsed = time.time() - t0
    report(1, f"20 fc + 10 conv nets vs finite differences, worst rel err "
              f"{worst:.2e} in {elapsed:.1f}s", worst <= 1e-4 and elapsed < 120)


def test_criterion_02_width_one_bitwise():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 5))
        net = [nn.fc_layer(1, 1, str(rng.choice(["tanh", "softplus"])), rng=rng)
               for _ in range(depth)]
        x = rng.normal(size=(3, 1))
        t = rng.normal(size=(3, 1))
        out, caches = nn.forward(net, x)
        _, e_grad = nn.energy(out, t, "mse")
        nn.backward(net, caches, e_grad)
        exact = curvature.network_curvature(net, caches, t, "mse", "exact")
        diag = curvature.network_curvature(net, caches, t, "mse", "diag")
        ok &= all(np.array_equal(a, b)
                  for a, b in zip(exact.weight_diag, diag.weight_diag))
    report(2, "1-wide chains: diagonal recursion equals exact bitwise "
              "(10 seeds)", ok)


def test_criterion_03_im2col_equals_direct_convolution():
    worst = 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        size = int(rng.integers(k + stride, k + stride + 4))
        x = rng.normal(size=(b, c_in, size, size))
        w = rng.normal(size=(c_out, c_in, k, k))
        layer = nn.Layer("conv2d", weights=w, activation="identity",
                         stride=stride, padding=pad)
        out, _ = nn.forward([layer], x)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho, wo = nn.conv_output_shape(size, size, (k, k), stride, pad)
        ref = np.zeros((b, c_out, ho, wo))
        for bi in range(b):
            for co in range(c_out):
                for i in range(ho):
                    for j in range(wo):
                        patch = xp[bi, :, i * stride : i * stride + k,
                                   j * stride : j * stride + k]
                        ref[bi, co, i, j] = np.sum(patch * w[co])
        worst = max(worst, float(np.max(np.abs(out - ref))))
    report(3, f"im2col conv equals direct convolution on 50 geometries, "
              f"worst abs err {worst:.2e}", worst <= 1e-12)


def test_criterion_04_update_rule_algebra_sweep():
    rng = np.random.default_rng(2)
    n = 10_000
    gamma = 10.0 ** rng.uniform(-8, 8, n)
    hess = 10.0 ** rng.uniform(-8, 8, n)
    w = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4, n)
    c = updates.update_posterior_variance(gamma, hess)
    def one_member(a):  # the scalar chain: every triple its own group
        return a

    omega = updates.group_omega(gamma, hess, one_member, 1e-8)
    omega_raw = updates.group_omega(gamma, hess, one_member, 0.0)
    s = updates.group_switch(w, omega, one_member, 1e-8, 1e6)
    checks = [
        np.all(c > 0) and np.all(c <= gamma),
        np.all(np.isreal(omega)) and np.all(omega >= 0),
        # identity checked relative to gamma: the sweep spans 16 decades, so
        # an absolute bound would only measure float64 rounding at gamma=1e8
        np.max(np.abs(omega_raw**2 * gamma**2 + c - gamma) / gamma) < 1e-10,
        np.all(np.isfinite(s)),
        not (np.any(np.isnan(c)) or np.any(np.isnan(omega)) or np.any(np.isnan(s))),
    ]
    report(4, "10^4 random (gamma, H, w) triples satisfy the update algebra",
           all(checks))


def test_criterion_05_cccp_monotonicity():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(10, 10))
        a = q @ q.T / 10.0 + 5.0 * np.eye(10)
        b = np.sign(rng.normal(size=10)) * rng.uniform(0.5, 1.5, 10) * 50.0
        costs = cccp_quadratic_reference(a, b, n_iters=10)
        ok &= bool(np.all(np.diff(costs) <= 1e-8))
    report(5, "surrogate cost non-increasing over 10 outer iterations on a "
              "10-d convex quadratic (10 seeds)", ok)


def brute_force_alive(n_nodes, pairs, killed, input_node=0):
    alive = [i for i in range(len(pairs)) if i not in killed]
    changed = True
    while changed:
        changed = False
        reach = {input_node}
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


def test_criterion_06_dependency_prune_fixpoint():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.choice(len(pairs),
                          size=min(len(pairs), int(rng.integers(4, 12))),
                          replace=False)
        pairs = [pairs[i] for i in sorted(take)]
        g = sg.SuperGraph(n, [sg.Edge(i, j, sg.make_op("identity"))
                              for i, j in pairs])
        killed = {i for i in range(len(pairs)) if rng.random() < 0.35}
        sg.apply_prune_mask(g, killed)
        sg.propagate_dependency_prune(g)
        ok &= set(g.alive_edge_ids()) == brute_force_alive(n, pairs, killed)
    report(6, "cascaded alive set equals the reachability oracle on 100 "
              "random DAGs", ok)


def test_criterion_07_entropy_threshold():
    thr = updates.ENTROPY_PRUNE_THRESHOLD
    ok = thr == 1.0 / (2.0 * math.pi * math.e) and f"{thr:.3g}" == "0.0585"
    report(7, f"prune threshold {thr:.6f} equals 1/(2*pi*e) and rounds to "
              "0.0585", ok)


def test_criterion_08_synthetic_support_recovery():
    t0 = time.time()
    hits = 0
    for seed in range(10):
        graph, ds, planted = data.gen_synthetic_dag_task(seed)
        cfg = data.dag_task_config(seed=seed)
        graph, run = engine.run_proxyless(graph, ds, cfg)
        alive = {eid for eid in run.report["alive_edges"]
                 if not graph.edges[eid].is_gate}
        hits += alive == planted
    elapsed = time.time() - t0
    report(8, f"planted 3-of-12-edge subgraph recovered in {hits}/10 seeds "
              f"in {elapsed:.1f}s", hits >= 9 and elapsed < 300)


def _mnist_dir():
    cand = os.environ.get("ARDNET_MNIST_DIR", "data/mnist")
    path = Path(cand)
    try:
        data.load_mnist_idx(path)
    except (FileNotFoundError, ValueError):
        return None
    return path


MNIST_SKIP = ("MNIST IDX files not found: set ARDNET_MNIST_DIR (or place "
              "train-images-idx3-ubyte etc. under ./data/mnist) to run this "
              "criterion")


def test_criterion_09_lenet300_compression():
    path = _mnist_dir()
    if path is None:
        pytest.skip(MNIST_SKIP)
    ds = data.load_mnist_idx(path)
    cfg = models.mnist_compression_config("lenet300-100")
    net = models.build_model("lenet300-100", cfg.seed)
    net, run = engine.run_compression(net, ds, cfg,
                                      models.default_patterns("lenet300-100"))
    err = run.report["final_test_error"]
    ratio = run.report["param_ratio"]
    print(f"\n  widths {run.report['widths']} (reference compressed net: "
          "465-37-90)")
    report(9, f"fc classifier compression: test error {err:.4f} (<= 0.020), "
              f"param ratio {ratio:.3f} (<= 0.25)",
           err <= 0.020 and ratio <= 0.25)


def test_criterion_10_lenet5_compression():
    path = _mnist_dir()
    if path is None:
        pytest.skip(MNIST_SKIP)
    ds = data.load_mnist_idx(path)
    cfg = models.mnist_compression_config("lenet5")
    net = models.build_model("lenet5", cfg.seed)
    net, run = engine.run_compression(net, ds, cfg,
                                      models.default_patterns("lenet5"))
    err = run.report["final_test_error"]
    ratio = run.report["param_ratio"]
    print(f"\n  widths {run.report['widths']} (reference compressed net: "
          "5-10-65-25)")
    report(10, f"conv classifier compression: test error {err:.4f} (<= 0.013), "
               f"param reduction {1 - ratio:.3f} (>= 0.70)",
           err <= 0.013 and (1.0 - ratio) >= 0.70)


def test_criterion_11_group_tying_bitwise():
    graph, ds, groups, _ = data.gen_two_cell_task(0)
    cfg = data.two_cell_task_config(seed=0)
    trace = []
    engine.run_proxy_cells(graph, ds, cfg, groups, trace=trace)
    tied = [grp for grp in groups if grp.pattern == "cell_tied"]
    ok = bool(trace)
    for snap in trace:
        for grp in tied:
            rows = [snap["edges"][eid] for eid in grp.members.tolist()]
            for other in rows[1:]:
                # (w, s, omega, alive-mask) bitwise identical across cells
                ok &= other[0] == rows[0][0]
                ok &= other[1] == rows[0][1]
                ok &= other[2] == rows[0][2]
                ok &= other[4] == rows[0][4]
    report(11, "tied cells share (s, omega, prune mask) bitwise at every "
               "iteration", ok)


def test_criterion_12_determinism(tmp_path):
    payloads = []
    for name in ("r1", "r2"):
        graph, ds, _ = data.gen_synthetic_dag_task(0)
        cfg = data.dag_task_config(seed=0)
        graph, run = engine.run_proxyless(graph, ds, cfg)
        out = tmp_path / name
        out.mkdir()
        exports.write_metrics_csv(run.history, out / "metrics.csv")
        exports.save_json(exports.arch_export(graph, cfg), out / "arch.json")
        payloads.append(((out / "metrics.csv").read_bytes(),
                         (out / "arch.json").read_bytes()))
    report(12, "two identical seed/config runs emit byte-identical "
               "metrics.csv and architecture JSON",
           payloads[0] == payloads[1])
