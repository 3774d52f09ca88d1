"""Recursive curvature computation for layer stacks.

Backward pass over a forward/backward cache chain producing per-layer
weight-Hessian diagonals.  Each layer takes the curvature H at its output to
its pre-activation as B H B + D (B = f', D = f'' * dE/dout).  The weight
diagonal and the diagonal backmap of its linear map A follow from
diag(A^T D A) = (A*A)^T diag(D): they are `nn`'s adjoint of the layer kind
with every coefficient squared.  Two modes:

  diag   -- diagonal vectors end to end.
  exact  -- full per-sample pre-activation matrices through fc (W^T H W) and
            activation layers; a conv layer keeps each output position's
            channel block and passes a diagonal upstream (positions never
            mix), and pool and flatten read diagonals.  An fc layer with no
            fc layer below it forms only diag(W^T H W).

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
    "conv_hessian",
    "finite_diff_hessian",
    "fd_weight_hessian_diag",
    "mac_count_exact",
    "mac_count_approx",
]


@dataclass
class CurvatureResult:
    """Per-layer weight-Hessian diagonals plus pre-activation state.

    weight_diag[i] is shaped like layer i's weights (None for weightless
    layers).  preact[i] is the pre-activation Hessian: in exact mode a
    (b, n, n) stack wherever full matrices reach (fc and conv layers, and
    activation layers above the lowest of them), otherwise a diagonal array
    shaped like the pre-activation; None below the lowest layer the
    recursion visits.
    """

    weight_diag: list = field(default_factory=list)
    preact: list = field(default_factory=list)
    mode: str = "exact"


def _require_backward(caches, stop):
    for idx, cache in enumerate(caches[stop:], stop):
        if cache.grad_out is None:
            raise ValueError(f"missing backward pass: layer {idx} has no grad_out")


def _diag(h, shape):
    """Diagonals of per-sample matrices (b, n, n), reshaped to shape."""
    return np.diagonal(h, axis1=1, axis2=2).reshape(shape)


def _activation_step(layer, cache, h_out):
    """H wrt layer output -> H wrt layer pre-activation (B H B + D)."""
    _, d1, d2 = nn.activation_funcs(layer.activation)
    bmat = d1(cache.preact)
    dmat = d2(cache.preact) * cache.grad_out
    if h_out.ndim == 3:
        bf = bmat.reshape(len(h_out), -1)
        h_pre = h_out * bf[:, :, None] * bf[:, None, :]
        idx = np.arange(bf.shape[1])
        h_pre[:, idx, idx] += dmat.reshape(bf.shape)
        return h_pre
    return bmat**2 * h_out + dmat


def _sandwich_diag(h, w):
    """diag(W^T H W) for each matrix of a stack h (N, n, n) and w (n, m),
    without forming the (N, m, m) products."""
    hw = h @ w
    hw *= w
    return hw.sum(axis=1)


def _full_backmap(layers, caches, idx, h_pre):
    """Exact-mode input curvature of layer idx from its full pre-activation
    matrices.  They pass on in full only to an fc or conv layer below
    (through activation layers only); else only their diagonal is formed.
    A conv layer keeps each output position's channel block."""
    layer, cache = layers[idx], caches[idx]
    if layer.kind == "conv2d":
        c_out = layer.weights.shape[0]
        b, n, _ = h_pre.shape
        # each position's (C_out, C_out) block, in im2col row order
        blocks = np.diagonal(h_pre.reshape(b, c_out, n // c_out, c_out, n // c_out), 0, 2, 4)
        blocks = blocks.transpose(0, 3, 1, 2).reshape(-1, c_out, c_out)
        hcols = _sandwich_diag(blocks, layer.masked_weights().reshape(c_out, -1))
        return nn.col2im(hcols, cache.x.shape, layer.weights.shape[2:],
                         layer.stride, layer.padding)
    below = [lower.kind for lower in layers[:idx] if lower.kind != "activation"]
    keep_full = bool(below) and below[-1] in ("fc", "conv2d")
    if layer.kind == "activation":
        return h_pre if keep_full else _diag(h_pre, cache.x.shape)
    w = layer.masked_weights()
    return w.T @ h_pre @ w if keep_full else _sandwich_diag(h_pre, w)


def network_curvature(layers, caches, target, energy_kind="mse", mode="exact"):
    """Run the curvature recursion over a forward/backward cache chain.

    The recursion is seeded with the analytic Hessian of the energy at the
    network output (identity for mse, diag(p) - p p^T for softmax-ce).  It
    stops at the lowest weighted layer, so the backward pass may too.
    """
    if mode not in ("exact", "diag"):
        raise ValueError(f"unknown curvature mode {mode!r}")
    _require_backward(caches, nn._walk_stop(layers, input_grad=False))
    output = caches[-1].out
    full = mode == "exact"
    if full and _is_one_wide(layers, output):
        # every per-sample matrix is 1x1, so the diagonal recursion IS the
        # exact recursion; sharing the code path keeps the two modes bitwise
        # identical instead of merely equal up to multiplication order
        h = nn.energy_hessian(output, target, energy_kind, "diag")
        result, _ = propagate_curvature(layers, caches, h, "diag", input_grad=False)
        result.mode = "exact"
        return result
    h = nn.energy_hessian(output, target, energy_kind, "exact" if full else "diag")
    result, _ = propagate_curvature(layers, caches, h, mode, input_grad=False)
    return result


def _is_one_wide(layers, output):
    if output.ndim != 2 or output.shape[1] != 1:
        return False
    return all(
        layer.kind in ("fc", "activation")
        and (layer.weights is None or layer.weights.shape == (1, 1))
        for layer in layers
    )


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
                             preact=[None] * len(layers), mode=mode)
    stop = nn._walk_stop(layers, input_grad)
    for idx in range(len(layers) - 1, stop - 1, -1):
        layer, cache = layers[idx], caches[idx]
        if h.ndim == 3 and layer.kind not in ("fc", "conv2d", "activation"):
            h = _diag(h, cache.out.shape)  # pool and flatten read diagonals only
        h_pre = result.preact[idx] = _activation_step(layer, cache, h)
        full = h_pre.ndim == 3
        d_pre = _diag(h_pre, cache.preact.shape) if full else h_pre
        input_term = input_grad or idx > stop
        result.weight_diag[idx], _, h = nn._ADJOINTS[layer.kind](
            layer, cache, d_pre, squared=True, input_term=input_term)
        if full and input_term:
            h = _full_backmap(layers, caches, idx, h_pre)
    return result, h if input_grad else None


def conv_hessian(layers, caches, target, energy_kind="mse", mode="approx"):
    """Mean-field curvature for stacks containing conv layers.

    The diagonal recursion, with each conv layer's weight diagonal replaced
    by the rank-one form E(M)^2 (x) E(H): the pre-activation diagonal and
    the squared im2col patches averaged over positions.  The per-position
    forms are network_curvature's exact and diag modes.
    """
    if mode != "approx":
        raise ValueError(f"conv_hessian computes the approx form only, not {mode!r}; "
                         "use network_curvature for exact and diag")
    result = network_curvature(layers, caches, target, energy_kind, mode="diag")
    for idx, layer in enumerate(layers):
        if layer.kind != "conv2d":
            continue
        cols = caches[idx].cols  # one row per output position
        pos_diag = result.preact[idx].transpose(0, 2, 3, 1).reshape(len(cols), -1)
        # E(M)^2 (x) E(H), scaled back to a sum over positions so the
        # magnitude matches the exact path
        diag = len(cols) * np.outer(pos_diag.mean(axis=0), np.abs(cols).mean(axis=0) ** 2)
        result.weight_diag[idx] = diag.reshape(layer.weights.shape)
    result.mode = "approx"
    return result


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff_hessian(energy_fn, theta, step=1e-4):
    """Central second differences of a scalar function, one coordinate at a
    time: (E(t+h) - 2 E(t) + E(t-h)) / h^2.  Independent of any recursion."""
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step {step} outside [1e-6, 1e-3]")
    theta = np.asarray(theta, dtype=np.float64)
    e0 = energy_fn(theta)
    if not np.isfinite(e0):
        raise FloatingPointError("non-finite energy at the base point")
    out = np.empty_like(theta)
    flat = theta.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        ep = energy_fn(theta)
        flat[i] = orig - step
        em = energy_fn(theta)
        flat[i] = orig
        if not (np.isfinite(ep) and np.isfinite(em)):
            raise FloatingPointError(f"non-finite energy while probing coordinate {i}")
        out.ravel()[i] = (ep - 2.0 * e0 + em) / step**2
    return out


def fd_weight_hessian_diag(layers, x, target, energy_kind, layer_idx, step=1e-4):
    """Finite-difference diagonal of the energy w.r.t. one layer's weights."""
    layer = layers[layer_idx]
    if layer.weights is None:
        raise ValueError(f"layer {layer_idx} has no weights")

    def energy_of(w):
        saved = layer.weights
        layer.weights = w
        try:
            out, _ = nn.forward(layers, x)
            value, _ = nn.energy(out, target, energy_kind)
        finally:
            layer.weights = saved
        return value

    return finite_diff_hessian(energy_of, layer.weights.copy(), step)


# ---------------------------------------------------------------------------
# cost bookkeeping


def mac_count_exact(n, m):
    """Multiply-accumulate count of the exact fc recursion for an n x m
    weight: the full Kronecker-product weight Hessian plus the matrix
    pre-activation recursion."""
    return n * n * m * m + n * (2 * m * m + 2 * n * n + 4 * m * n + 3 * m - 1)


def mac_count_approx(n, m):
    """MAC count of the diagonal fc recursion (vector arithmetic only)."""
    return n * (2 + 4 * m)
