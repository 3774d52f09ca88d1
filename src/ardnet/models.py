"""Reference model builders and the image-classifier compression harness."""

from __future__ import annotations

import zipfile

import numpy as np

from . import nn
from .updates import SearchConfig

__all__ = [
    "MODELS",
    "lenet300_100",
    "lenet5",
    "default_patterns",
    "mnist_compression_config",
    "build_model",
    "save_weights",
    "load_weights",
]


def lenet300_100(rng):
    """784-300-100-10 fully connected classifier (relu hidden units)."""
    return [
        nn.flatten_layer(),
        nn.fc_layer(784, 300, activation="relu", rng=rng),
        nn.fc_layer(300, 100, activation="relu", rng=rng),
        nn.fc_layer(100, 10, activation="identity", rng=rng),
    ]


def lenet5(rng):
    """Conv 20/50 (5x5) + fc 500 classifier for 28x28 single-channel input."""
    return [
        nn.conv_layer(1, 20, 5, activation="relu", rng=rng),
        nn.pool_layer("maxpool2d", 2),
        nn.conv_layer(20, 50, 5, activation="relu", rng=rng),
        nn.pool_layer("maxpool2d", 2),
        nn.flatten_layer(),
        nn.fc_layer(800, 500, activation="relu", rng=rng),
        nn.fc_layer(500, 10, activation="identity", rng=rng),
    ]


# name -> (build function, compression patterns, lambda_w).  Pattern keys
# are layer indices within the stack; conv layers prune whole filters, fc
# layers prune input and output units (the final classifier layer only
# prunes inputs so all ten classes survive).
MODELS = {
    "lenet300-100": (lenet300_100, {1: ["row_and_column"], 2: ["row_and_column"],
                                    3: ["column"]}, 0.02),
    "lenet5": (lenet5, {0: ["filter"], 2: ["filter"], 5: ["row_and_column"],
                        6: ["column"]}, 0.01),
}


def _entry(name):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r} (expected {' or '.join(MODELS)})")
    return MODELS[name]


def default_patterns(name):
    """A fresh copy of the reference model's per-layer sparsity patterns."""
    return {li: list(names) for li, names in _entry(name)[1].items()}


def mnist_compression_config(name, seed=0):
    """Compression hyperparameters tuned for the reference classifiers."""
    return SearchConfig(lambda_w=_entry(name)[2], t_max=10, epochs_per_iteration=1,
                        retrain_epochs=5, batch_size=64, curvature_batch=256,
                        learning_rate=0.05, momentum=0.9, weight_decay=1e-4,
                        hessian_mode="approx", seed=seed)


def build_model(name, seed=0):
    return _entry(name)[0](np.random.default_rng(seed))


def save_weights(net, path):
    """Store weights, biases and masks of the weighted layers as one npz."""
    arrays = {}
    for li, layer in enumerate(net):
        if layer.weights is None:
            continue
        arrays[f"w{li}"] = layer.weights
        if layer.bias is not None:
            arrays[f"b{li}"] = layer.bias
        if layer.mask is not None:
            arrays[f"m{li}"] = layer.mask
    np.savez(path, **arrays)


def load_weights(net, path):
    """Restore weights saved by save_weights into a matching stack.

    The file must hold every weighted layer's weights and, where the layer
    has one, its bias; masks are optional.  Any other key is an error, and
    so is a file that is not a whole npz archive."""
    try:
        arrays = np.load(path)
    except zipfile.BadZipFile as exc:
        raise ValueError(f"{path}: not a readable weight file ({exc})") from None
    with arrays:
        known = set()
        for li, layer in enumerate(net):
            if layer.weights is None:
                continue
            required = {f"w{li}": "weights"}
            if layer.bias is not None:
                required[f"b{li}"] = "bias"
            for key, what in required.items():
                if key not in arrays:
                    raise ValueError(f"weight file is missing the {what} of layer {li}")
            known |= set(required) | {f"m{li}"}
        unknown = sorted(set(arrays.files) - known)
        if unknown:
            raise ValueError(f"weight file key {unknown[0]!r} matches no layer of the model")
        for li, layer in enumerate(net):
            if layer.weights is None:
                continue
            weights = arrays[f"w{li}"]
            if weights.shape != layer.weights.shape:
                raise ValueError(
                    f"layer {li} shape mismatch: file has {weights.shape}, "
                    f"model has {layer.weights.shape}"
                )
            if layer.bias is not None:
                bias = arrays[f"b{li}"]
                if bias.shape != layer.bias.shape:
                    raise ValueError(f"layer {li} bias shape mismatch: file has "
                                     f"{bias.shape}, model has {layer.bias.shape}")
                layer.bias = bias
            if f"m{li}" in arrays:
                mask = arrays[f"m{li}"]
                if mask.shape != weights.shape or not np.all((mask == 0) | (mask == 1)):
                    raise ValueError(f"layer {li} mask is not 0s and 1s of its weights' shape")
                layer.mask = mask  # before the weights, which it then masks
            layer.weights = weights
    return net
