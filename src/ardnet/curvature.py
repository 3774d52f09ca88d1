"""Recursive curvature computation for layer stacks.

Backward pass over a forward/backward cache chain producing per-layer
weight-Hessian diagonals.  Two modes:

  exact  -- full per-sample pre-activation Hessian matrices through fc and
            activation layers; conv layers use per-output-position blocks and
            propagate a diagonal upstream (positions never mix).
  diag   -- diagonal vectors end to end; element-wise recursion only.

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
    (b, n, n) stack for fc/activation layers, otherwise a diagonal array
    shaped like the pre-activation.
    """

    weight_diag: list = field(default_factory=list)
    preact: list = field(default_factory=list)
    mode: str = "exact"


def _require_backward(caches):
    for idx, cache in enumerate(caches):
        if cache.grad_out is None:
            raise ValueError(f"missing backward pass: layer {idx} has no grad_out")


def _diag_of(h, out_shape):
    if h.ndim == 3:
        return np.einsum("bii->bi", h).reshape(out_shape)
    return h


def _activation_step(layer, cache, h_out, full):
    """H wrt layer output -> H wrt layer pre-activation (B H B + D)."""
    _, d1, d2 = nn.activation_funcs(layer.activation)
    bmat = d1(cache.preact)
    dmat = d2(cache.preact) * cache.grad_out
    if full:
        b = h_out.shape[0]
        bf = bmat.reshape(b, -1)
        h_pre = h_out * bf[:, :, None] * bf[:, None, :]
        idx = np.arange(bf.shape[1])
        h_pre[:, idx, idx] += dmat.reshape(b, -1)
        return h_pre
    return bmat**2 * h_out + dmat


def _conv_position_blocks(h_pre, c_out, full):
    """Reshape conv pre-activation curvature to per-position form.

    Returns (n_pos, c_out) diagonals and, when full, (n_pos, c_out, c_out)
    blocks, with n_pos = b*H_out*W_out ordered like im2col rows.
    """
    if h_pre.ndim == 3:
        # full matrices over flattened (C_out, H_o, W_o); cut out the
        # channel-coupling block at each spatial position
        b, n, _ = h_pre.shape
        hw = n // c_out
        blocks = h_pre.reshape(b, c_out, hw, c_out, hw)
        pos = np.einsum("bchdh->bhcd", blocks)  # (b, hw, c_out, c_out)
        pos = pos.reshape(b * hw, c_out, c_out)
        return np.einsum("ncc->nc", pos), pos
    return h_pre.transpose(0, 2, 3, 1).reshape(-1, c_out), None


def network_curvature(layers, caches, target, energy_kind="mse", mode="exact"):
    """Run the curvature recursion over a forward/backward cache chain.

    The recursion is seeded with the analytic Hessian of the energy at the
    network output (identity for mse, diag(p) - p p^T for softmax-ce).
    """
    if mode not in ("exact", "diag"):
        raise ValueError(f"unknown curvature mode {mode!r}")
    _require_backward(caches)
    output = caches[-1].out
    full = mode == "exact"
    if full and _is_one_wide(layers, output):
        # every per-sample matrix is 1x1, so the diagonal recursion IS the
        # exact recursion; sharing the code path keeps the two modes bitwise
        # identical instead of merely equal up to multiplication order
        h = nn.energy_hessian(output, target, energy_kind, "diag")
        result, _ = propagate_curvature(layers, caches, h, "diag")
        result.mode = "exact"
        return result
    h = nn.energy_hessian(output, target, energy_kind, "exact" if full else "diag")
    result, _ = propagate_curvature(layers, caches, h, mode)
    return result


def _is_one_wide(layers, output):
    if output.ndim != 2 or output.shape[1] != 1:
        return False
    return all(
        layer.kind in ("fc", "activation")
        and (layer.weights is None or layer.weights.shape == (1, 1))
        for layer in layers
    )


def propagate_curvature(layers, caches, h_seed, mode="exact"):
    """Run the curvature recursion from an arbitrary output-curvature seed.

    h_seed is the Hessian of the objective w.r.t. the stack output: per-sample
    full matrices (b, n, n) in exact mode, or a diagonal shaped like the
    output.  Returns (CurvatureResult, curvature diagonal w.r.t. the input).
    """
    h = h_seed
    result = CurvatureResult(weight_diag=[None] * len(layers),
                             preact=[None] * len(layers), mode=mode)
    for idx in range(len(layers) - 1, -1, -1):
        layer, cache = layers[idx], caches[idx]
        is_full = h.ndim == 3
        if layer.kind in ("fc", "conv2d", "activation"):
            h_pre = _activation_step(layer, cache, h, is_full)
        else:
            h_pre = _diag_of(h, cache.preact.shape)

        if layer.kind == "fc":
            result.preact[idx] = h_pre
            pre_diag = _diag_of(h_pre, cache.preact.shape)
            # diag(a a^T (x) H) = a_i^2 H_jj, summed over the batch (H
            # already carries the 1/b factor)
            result.weight_diag[idx] = np.einsum("bj,bi->ji", pre_diag, cache.x**2)
            w = layer.masked_weights()
            if is_full:
                h = np.einsum("ji,bjk,kl->bil", w, h_pre, w)
            else:
                h = pre_diag @ w**2
        elif layer.kind == "conv2d":
            result.preact[idx] = h_pre
            c_out, c_in, m, k = layer.weights.shape
            pos_diag, pos_blocks = _conv_position_blocks(h_pre, c_out, is_full)
            cols = cache.cols
            # diag((M)^n (M)^n^T (x) (H)^n) summed over positions n
            result.weight_diag[idx] = np.einsum(
                "nc,nq->cq", pos_diag, cols**2
            ).reshape(layer.weights.shape)
            wmat = layer.masked_weights().reshape(c_out, -1)
            if pos_blocks is not None:
                hcols = np.einsum("cq,ncd,dq->nq", wmat, pos_blocks, wmat)
            else:
                hcols = pos_diag @ wmat**2
            h = nn.col2im(hcols, cache.x.shape, (m, k), layer.stride, layer.padding)
        elif layer.kind == "activation":
            result.preact[idx] = h_pre
            h = h_pre
        elif layer.kind in ("maxpool2d", "avgpool2d"):
            result.preact[idx] = h_pre
            # the diagonal scatters like the gradient, except that an
            # average's 1/(p*p) weight enters squared
            if layer.kind == "avgpool2d":
                h_pre = h_pre / (layer.pool * layer.pool)
            h = nn._pool_backward(layer, cache, h_pre)
        elif layer.kind == "flatten":
            # a pure reindex: the diagonal takes the input's shape
            result.preact[idx] = h_pre
            h = h_pre.reshape(cache.x.shape)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    if h.ndim == 3:
        h = _diag_of(h, caches[0].x.shape)
    return result, h


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
        cache = caches[idx]
        c_out = layer.weights.shape[0]
        pos_diag = result.preact[idx].transpose(0, 2, 3, 1).reshape(-1, c_out)
        n_pos = pos_diag.shape[0]
        m_mean = np.abs(cache.cols).mean(axis=0)
        h_mean = pos_diag.mean(axis=0)
        # E(M)^2 (x) E(H), scaled back to a sum over positions so the
        # magnitude matches the exact path
        diag = n_pos * np.einsum("c,q->cq", h_mean, m_mean**2)
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
