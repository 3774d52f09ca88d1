"""Structured compression of a small classifier.

A 10-16-8-4 tanh network is trained on a 4-class blob task whose inputs
carry only 3 informative dimensions out of 10.  Row-and-column sparsity
groups let the compressor zero whole units; the uninformative input
columns are the first to go.

Usage: python3 demos/compression.py
"""

import numpy as np

from ardnet import data, engine, nn
from ardnet.updates import SearchConfig


def make_blob_task(seed=0, n=1200, dim=10, informative=3, classes=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, informative)) * 3.0
    y = rng.integers(0, classes, n)
    x = np.zeros((n, dim))
    x[:, :informative] = centers[y] + rng.normal(size=(n, informative))
    x[:, informative:] = rng.normal(size=(n, dim - informative))
    split = int(0.8 * n)
    return data.Dataset(x[:split], y[:split], x[split:], y[split:], kind="labels")


def main():
    ds = make_blob_task()
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(10, 16, "tanh", rng=rng),
           nn.fc_layer(16, 8, "tanh", rng=rng),
           nn.fc_layer(8, 4, "identity", rng=rng)]
    patterns = {0: ["row_and_column"], 1: ["row_and_column"], 2: ["column"]}
    cfg = SearchConfig(t_max=15, epochs_per_iteration=3, batch_size=50,
                       lambda_w=0.01, weight_decay=0.001, learning_rate=0.05,
                       seed=0, hessian_mode="approx", retrain_epochs=10)
    baseline = sum(layer.weights.size for layer in net)
    net, run = engine.run_compression(net, ds, cfg, patterns)

    print(f"{'iter':>4} {'loss':>10} {'test err':>10} {'alive groups':>13} "
          f"{'pruned':>7}")
    for row in run.history:
        if row["iteration"] < 0:
            continue  # retraining rows
        print(f"{row['iteration']:>4} {row['loss']:>10.4f} "
              f"{row['test_error']:>10.4f} {row['alive_edges']:>13} "
              f"{row['entropy_pruned']:>7}")

    print(f"\nsurviving widths (in, out) per layer: {run.report['widths']}")
    print(f"parameters: {baseline} -> "
          f"{int(run.report['param_ratio'] * baseline)} "
          f"(ratio {run.report['param_ratio']:.2f})")
    print(f"test error after retraining: {run.report['final_test_error']:.4f}")


if __name__ == "__main__":
    main()
