"""Recursive curvature computation for layer stacks.

Reverse walk over a forward cache chain producing per-layer weight-Hessian
diagonals.  Each layer takes the curvature H at its output to its
pre-activation as B H B (B = f'), plus D = f'' * dE/dout for a curved
activation (tanh, softplus).  Relu and identity have f'' = 0 wherever it is
defined, so only a curved layer reads the grad_out of a backward pass, and
a relu/identity stack needs none (`curved_layers`).  The weight
diagonal and the diagonal backmap of its linear map A follow from
diag(A^T D A) = (A*A)^T diag(D): they are `nn`'s adjoint of the layer kind
with every coefficient squared.  Two modes:

  diag   -- diagonal vectors end to end.
  exact  -- full per-sample pre-activation matrices along fc layers
            (W^T H W); conv, pool and flatten read diagonals, so a conv
            layer has one rule in both modes.  An fc layer with no fc layer
            directly below it forms only diag(W^T H W).

Both carry the 1/batch factor of the energy, so results are directly
comparable to finite differences of the batch-mean energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

__all__ = [
    "CurvatureResult",
    "network_curvature",
    "propagate_curvature",
    "curved_layers",
]


@dataclass
class CurvatureResult:
    """Per-layer weight-Hessian diagonals plus pre-activation state.

    weight_diag[i] is shaped like layer i's weights (None for weightless
    layers).  preact[i] is the pre-activation Hessian: in exact mode a
    (b, n, n) stack wherever full matrices reach (fc layers), otherwise a
    diagonal array shaped like the pre-activation; None below the lowest
    layer the recursion visits.
    """

    weight_diag: list = field(default_factory=list)
    preact: list = field(default_factory=list)


def curved_layers(layers):
    """The layers `network_curvature` visits whose activation is curved
    (tanh, softplus): only they read grad_out, so with none of them a
    forward pass is all the recursion needs."""
    stop = nn._walk_stop(layers, input_grad=False)
    return [idx for idx in range(stop, len(layers))
            if layers[idx].activation not in nn.PIECEWISE_LINEAR]


def _diag(h, shape):
    """Diagonals of per-sample matrices (b, n, n), reshaped to shape."""
    return np.diagonal(h, axis1=1, axis2=2).reshape(shape)


def _activation_step(layer, cache, h_out):
    """H wrt layer output -> H wrt layer pre-activation: B H B, plus D for a
    curved activation."""
    _, d1, d2 = nn.activation_funcs(layer.activation)
    bmat = d1(cache.preact)
    dmat = (None if layer.activation in nn.PIECEWISE_LINEAR
            else d2(cache.preact) * cache.grad_out)
    if h_out.ndim == 3:
        bf = bmat.reshape(len(h_out), -1)
        h_pre = h_out * bf[:, :, None] * bf[:, None, :]
        if dmat is not None:
            idx = np.arange(bf.shape[1])
            h_pre[:, idx, idx] += dmat.reshape(bf.shape)
        return h_pre
    h_pre = bmat**2 * h_out
    return h_pre if dmat is None else h_pre + dmat


def _sandwich_diag(h, w):
    """diag(W^T H W) for each matrix of a stack h (N, n, n) and w (n, m),
    without forming the (N, m, m) products."""
    hw = h @ w
    hw *= w
    return hw.sum(axis=1)


def _full_backmap(layers, idx, h_pre):
    """Exact-mode input curvature of fc layer idx from its full
    pre-activation matrices: in full into an fc layer directly below, else
    only their diagonal."""
    w = layers[idx].weights
    if idx > 0 and layers[idx - 1].kind == "fc":
        return w.T @ h_pre @ w
    return _sandwich_diag(h_pre, w)


def network_curvature(layers, caches, target, energy_kind="mse", mode="exact"):
    """Run the curvature recursion over a forward cache chain; the caches
    of `curved_layers` also need the grad_out of a backward pass.

    The recursion is seeded with the analytic Hessian of the energy at the
    network output (identity for mse, diag(p) - p p^T for softmax-ce).  It
    stops at the lowest weighted layer, so the backward pass may too.
    """
    if mode not in ("exact", "diag"):
        raise ValueError(f"unknown curvature mode {mode!r}")
    for idx in curved_layers(layers):
        if caches[idx].grad_out is None:
            raise ValueError(f"missing backward pass: layer {idx} has no grad_out")
    output = caches[-1].out
    if mode == "exact" and _is_one_wide(layers, output):
        # every per-sample matrix is 1x1, so the diagonal recursion IS the
        # exact recursion; sharing the code path keeps the two modes bitwise
        # identical instead of merely equal up to multiplication order
        mode = "diag"
    h = nn.energy_hessian(output, target, energy_kind, mode)
    result, _ = propagate_curvature(layers, caches, h, mode, input_grad=False)
    return result


def _is_one_wide(layers, output):
    if output.ndim != 2 or output.shape[1] != 1:
        return False
    return all(layer.kind == "fc" and layer.weights.shape == (1, 1) for layer in layers)


def propagate_curvature(layers, caches, h_seed, mode="exact", input_grad=True):
    """Run the curvature recursion from an arbitrary output-curvature seed.

    h_seed is the Hessian of the objective w.r.t. the stack output: per-sample
    full matrices (b, n, n) in exact mode, or a diagonal shaped like the
    output.  Returns (CurvatureResult, curvature diagonal w.r.t. the input).
    input_grad=False stops at the lowest weighted layer, as nn.backward
    does, and returns None for the input curvature.
    """
    h = h_seed
    result = CurvatureResult(weight_diag=[None] * len(layers),
                             preact=[None] * len(layers))
    stop = nn._walk_stop(layers, input_grad)
    for idx in range(len(layers) - 1, stop - 1, -1):
        layer, cache = layers[idx], caches[idx]
        if h.ndim == 3 and layer.kind != "fc":
            h = _diag(h, cache.out.shape)  # conv, pool and flatten read diagonals only
        h_pre = result.preact[idx] = _activation_step(layer, cache, h)
        full = h_pre.ndim == 3
        d_pre = _diag(h_pre, cache.preact.shape) if full else h_pre
        input_term = input_grad or idx > stop
        result.weight_diag[idx], _, h = nn._ADJOINTS[layer.kind](
            layer, cache, d_pre, squared=True, input_term=input_term)
        if full and input_term:
            h = _full_backmap(layers, idx, h_pre)
    return result, h if input_grad else None

