"""Recursive curvature vs finite differences.

The exact recursion propagates full pre-activation Hessian matrices; the
diagonal recursion keeps only element-wise vectors.  Both are compared to
central finite differences of the batch energy on a 4-6-3 tanh network.

Usage: python3 demos/hessian_oracle.py
"""

import sys
from pathlib import Path

import numpy as np

from ardnet import curvature, nn

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import fd_weight_hessian_diag  # noqa: E402


def main():
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 6, "tanh", rng=rng), nn.fc_layer(6, 3, "tanh", rng=rng)]
    x = rng.normal(size=(8, 4))
    t = rng.normal(size=(8, 3))
    out, caches = nn.forward(net, x)
    _, e_grad = nn.energy(out, t, "mse")
    nn.backward(net, caches, e_grad)

    exact = curvature.network_curvature(net, caches, t, "mse", "exact")
    diag = curvature.network_curvature(net, caches, t, "mse", "diag")

    print("per-layer weight-Hessian diagonals vs finite differences:")
    for li in range(2):
        ref = fd_weight_hessian_diag(net, x, t, "mse", li, 1e-4)
        for name, res in (("exact", exact), ("diag ", diag)):
            got = res.weight_diag[li]
            rel = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-3))
            print(f"  layer {li} [{name}]: max rel err {rel:.2e}")

    print("\n1-wide chain: the diagonal recursion is the exact one (bitwise):")
    chain = [nn.fc_layer(1, 1, "tanh", rng=rng) for _ in range(3)]
    xc = rng.normal(size=(4, 1))
    tc = rng.normal(size=(4, 1))
    _, cc = nn.forward(chain, xc)
    _, g = nn.energy(cc[-1].out, tc, "mse")
    nn.backward(chain, cc, g)
    e1 = curvature.network_curvature(chain, cc, tc, "mse", "exact")
    d1 = curvature.network_curvature(chain, cc, tc, "mse", "diag")
    same = all(np.array_equal(a, b)
               for a, b in zip(e1.weight_diag, d1.weight_diag))
    print(f"  bitwise identical: {same}")


if __name__ == "__main__":
    main()
