"""Minimal deterministic feed-forward network core.

All arithmetic is float64 numpy. A Layer couples one linear/structural map
(fully connected, conv via im2col, pooling, flatten) with an element-wise
activation.  Each map kind has one adjoint: `backward` calls it for
gradients, and the curvature recursion calls it with every coefficient
squared for Hessian diagonals.  The batch axis is always leading.

Image arrays are NCHW-shaped; conv and pool layers hand them on as views
of channel-last memory, so each conv reads its `im2col` columns as
contiguous channel vectors.  Only `flatten` copies into NCHW order, so fc
weights index the (C, H, W) flattening.
Conv-stack kernels form no full-size temporary: the conv adjoint works in
blocks the size of one kernel row's columns, relu overwrites a fresh
pre-activation (see LayerCache), both reverse walks apply relu's bool mask
in place to a gradient they allocated (see `backward`) and a maxpool
winner takes one byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Layer",
    "LayerCache",
    "fc_layer",
    "conv_layer",
    "pool_layer",
    "flatten_layer",
    "forward",
    "predict",
    "all_finite",
    "backward",
    "im2col",
    "col2im",
    "kernel_matrix",
    "conv_output_shape",
    "energy",
    "energy_hessian",
]


# ---------------------------------------------------------------------------
# activations


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_mask(x):
    # derivative at 0 defined as 0
    return x > 0


def _tanh_d1(x):
    return 1.0 - np.tanh(x) ** 2


def _tanh_d2(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t**2)


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus_d2(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


ACTIVATIONS = {
    "identity": (lambda x: x, None, None),
    "relu": (_relu, None, None),
    "tanh": (np.tanh, _tanh_d1, _tanh_d2),
    "softplus": (_softplus, _sigmoid, _softplus_d2),
}
# f' is 0 or 1 and f'' is 0 wherever it is defined, so no curvature term
# reads their grad_out.  Each maps to its f' as a bool mask (None: 1
# everywhere), the one rule of both reverse walks
PIECEWISE_LINEAR = {"identity": None, "relu": _relu_mask}


def activation_funcs(name: str):
    """Return (f, f', f'') for a supported activation name; f' and f'' are
    None for a piecewise-linear one, whose f' is its PIECEWISE_LINEAR mask."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


# ---------------------------------------------------------------------------
# layers


@dataclass
class Layer:
    """One network layer: a structural map followed by an activation.

    kind is one of "fc", "conv2d", "maxpool2d", "avgpool2d", "flatten".
    FC weights are (out, in); conv weights are (C_out, C_in, m, k).  Bias
    is optional and never enters any sparsity prior.  The weights are kept
    masked at rest: assigning `weights` or `mask` (the constructor
    included) stores weights * mask as a new array, so every reader takes
    `weights` as it is and a caller's array is never masked in place.
    """

    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    activation: str = "identity"
    stride: int = 1
    padding: int = 0
    pool: int = 2
    mask: np.ndarray | None = None  # persistent zero-mask set by compression

    def __setattr__(self, name, value):
        if value is not None and name in ("weights", "mask"):
            other = self.__dict__.get("mask" if name == "weights" else "weights")
            if other is not None:
                # formed before any store, so a mask that does not fit changes nothing
                super().__setattr__("weights", value * other)
                if name == "weights":
                    return
        super().__setattr__(name, value)

    def masked_weights(self) -> np.ndarray | None:
        return self.weights  # masked at rest; kept for callers outside the package


@dataclass
class LayerCache:
    """Forward state of one layer, extended in-place by backward.

    Relu runs in place on every kind but flatten (whose pre is a view of x):
    preact is out, max(pre, 0), read only as preact > 0, true where pre > 0.
    grad_out, dE/dout, is set by `backward` only on a layer with a curved
    activation (tanh, softplus), the one the curvature's D term reads; a
    relu or identity layer keeps None."""

    x: np.ndarray
    preact: np.ndarray
    out: np.ndarray
    cols: np.ndarray | None = None  # im2col matrix for conv layers
    argmax: np.ndarray | None = None  # winner offset u*p + v per pool window, unsigned
    grad_out: np.ndarray | None = None


def fc_layer(n_in, n_out, activation="identity", rng=None):
    if rng is None:
        w = np.zeros((n_out, n_in))
    else:
        w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
    return Layer("fc", weights=w, bias=np.zeros(n_out), activation=activation)


def conv_layer(c_in, c_out, kernel, activation="identity", stride=1, padding=0,
               rng=None, bias=True):
    m, k = (kernel, kernel) if np.isscalar(kernel) else kernel
    if rng is None:
        w = np.zeros((c_out, c_in, m, k))
    else:
        w = rng.normal(0.0, 1.0 / np.sqrt(c_in * m * k), size=(c_out, c_in, m, k))
    b = np.zeros(c_out) if bias else None
    return Layer("conv2d", weights=w, bias=b, activation=activation,
                 stride=stride, padding=padding)


def pool_layer(kind, size=2, stride=None):
    if kind not in ("maxpool2d", "avgpool2d"):
        raise ValueError(f"unknown pool kind {kind!r}")
    return Layer(kind, pool=size, stride=size if stride is None else stride)


def flatten_layer():
    return Layer("flatten")


# ---------------------------------------------------------------------------
# im2col


def conv_output_shape(h, w, kernel, stride=1, padding=0):
    m, k = kernel
    h_out = (h + 2 * padding - m) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    return h_out, w_out


def im2col(x, kernel, stride=1, padding=0):
    """Rearrange conv input patches into a matrix.

    x is (b, C, H, W); returns (b*H_out*W_out, m*k*C).  Row n holds the
    receptive field of output position n (batch-major, then row-major over
    output positions); columns run over kernel rows, then kernel columns,
    then channels, so `kernel_matrix(w)` multiplies it directly and a
    channel-last x is copied one contiguous channel vector at a time.
    """
    b, c, h, w = x.shape
    m, k = kernel
    h_out, w_out = conv_output_shape(h, w, kernel, stride, padding)
    if h_out < 1 or w_out < 1:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, padding {padding} "
            f"does not fit input of spatial size {h}x{w}"
        )
    xl = x.transpose(0, 2, 3, 1)  # (b, H, W, C), contiguous when x is channel-last
    if padding:
        xl = np.pad(xl, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xl, (m, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (b, H_out, W_out, C, m, k)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(b * h_out * w_out, m * k * c)
    return np.ascontiguousarray(cols)


def kernel_matrix(w):
    """A conv kernel (C_out, C, m, k) as the (C_out, m*k*C) matrix whose
    columns are in `im2col`'s order; the one place a kernel is flattened."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def col2im(gp, wmat, x_shape, kernel, stride=1, padding=0):
    """Adjoint of im2col applied to the patch matrix gp @ wmat: scatter-add
    its rows, read as (..., m, k, C), back onto the input grid.

    Forms the patch matrix one kernel row at a time, never whole, and adds
    each row's k channel-last (b, H_out, W_out, C) slabs in offset order;
    returns the NCHW transpose of that buffer, cut out of its padding into
    contiguous memory."""
    b, c, h, w = x_shape
    m, k = kernel
    h_out, w_out = conv_output_shape(h, w, kernel, stride, padding)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c))
    for u in range(m):
        row = (gp @ wmat[:, u * k * c : (u + 1) * k * c]).reshape(b, h_out, w_out, k, c)
        for v in range(k):
            xp[:, u : u + stride * h_out : stride,
               v : v + stride * w_out : stride] += row[:, :, :, v]
        del row  # so the next row's product is not formed beside this one
    if padding:
        xp = np.ascontiguousarray(xp[:, padding:-padding, padding:-padding])
    return xp.transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------------
# forward / backward


def all_finite(arr):
    """Whether every entry of arr is finite: their sum of squares, read in
    memory order so that no view is copied, is finite only then (entries
    above 1e154 overflow it, so a non-finite sum gets a closer look)."""
    v = arr.ravel(order="K")
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(arr).all())


def _check_finite(arr, what, idx):
    if not all_finite(arr):
        raise FloatingPointError(f"non-finite values in {what} of layer {idx}")


def _layer_forward(layer, x, idx):
    act, _, _ = activation_funcs(layer.activation)
    if layer.kind == "flatten":  # pre is a view of x, so relu may not overwrite it
        pre = x.reshape(x.shape[0], -1)
        return LayerCache(x=x, preact=pre, out=act(pre))
    if layer.activation == "relu":  # every other map writes a new pre (see LayerCache)
        act = lambda pre: np.maximum(pre, 0.0, out=pre)  # noqa: E731
    if layer.kind == "fc":
        w = layer.weights
        if x.ndim != 2 or x.shape[1] != w.shape[1]:
            raise ValueError(
                f"layer {idx} (fc) expects input (b, {w.shape[1]}), got {x.shape}"
            )
        pre = x @ w.T
        if layer.bias is not None:
            pre += layer.bias
        return LayerCache(x=x, preact=pre, out=act(pre))
    if layer.kind == "conv2d":
        w = layer.weights
        c_out, c_in, m, k = w.shape
        if x.ndim != 4 or x.shape[1] != c_in:
            raise ValueError(
                f"layer {idx} (conv2d) expects input (b, {c_in}, H, W), got {x.shape}"
            )
        try:
            cols = im2col(x, (m, k), layer.stride, layer.padding)
        except ValueError as err:
            raise ValueError(f"layer {idx} (conv2d): {err}") from None
        h_out, w_out = conv_output_shape(x.shape[2], x.shape[3], (m, k),
                                         layer.stride, layer.padding)
        pre = cols @ kernel_matrix(w).T  # (b*H_out*W_out, C_out)
        if layer.bias is not None:
            pre += layer.bias
        pre = pre.reshape(x.shape[0], h_out, w_out, c_out).transpose(0, 3, 1, 2)
        return LayerCache(x=x, preact=pre, out=act(pre), cols=cols)
    if layer.kind in ("maxpool2d", "avgpool2d"):
        if x.ndim != 4:
            raise ValueError(f"layer {idx} ({layer.kind}) expects 4-d input, got {x.shape}")
        p, (h, w) = layer.pool, x.shape[2:]
        h_out, w_out = conv_output_shape(h, w, (p, p), layer.stride, 0)
        if h_out < 1 or w_out < 1:
            raise ValueError(f"layer {idx} ({layer.kind}): window {p} does not fit {h}x{w}")
        views = _pool_views(layer, x, h_out, w_out)
        if layer.kind == "maxpool2d":
            # a running maximum keeps a NaN for the finite check; the winner
            # moves to j (above every earlier winner) only on a strict >,
            # np.argmax's first-max rule on ties, and np.maximum returns its
            # second argument on a tie such as (-0.0, 0.0); the winner is
            # stored in the narrowest unsigned type that holds p*p - 1
            index = np.min_scalar_type(p * p - 1).type
            pre, amax = views[0].copy(order="K"), np.zeros_like(views[0], dtype=index)
            for j, view in enumerate(views[1:], 1):
                np.maximum(amax, (view > pre) * index(j), out=amax)
                np.maximum(view, pre, out=pre)
            return LayerCache(x=x, preact=pre, out=act(pre), argmax=amax)
        pre = np.zeros_like(views[0])  # from +0.0, as a numpy sum starts
        for view in views:
            pre += view
        pre /= p * p
        return LayerCache(x=x, preact=pre, out=act(pre))
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def forward(layers, x):
    """Run the stack; returns (output, per-layer caches).

    Pure function of (layers, x): repeated calls are bitwise identical.
    """
    x = np.asarray(x, dtype=np.float64)
    caches = []
    for idx, layer in enumerate(layers):
        cache = _layer_forward(layer, x, idx)
        _check_finite(cache.out, "output", idx)
        caches.append(cache)
        x = cache.out
    return x, caches


def predict(layers, x):
    """The output of `forward`, bit for bit, keeping no layer's cache alive
    once the next layer has run (same errors, same layer indices)."""
    x = np.asarray(x, dtype=np.float64)
    for idx, layer in enumerate(layers):
        x = _layer_forward(layer, x, idx).out
        _check_finite(x, "output", idx)
    return x


# ---------------------------------------------------------------------------
# one adjoint per layer kind
#
# An adjoint maps a pre-activation gradient g_pre to the (weight, bias,
# input) terms of its kind's linear map, None where the kind has no such
# term.  squared=True squares every coefficient of the map, which turns it
# into the diagonal curvature rule: diag(A^T D A) = (A*A)^T diag(D).
# input_term=False skips the input term of a weighted kind; a walk asks it
# of the lowest weighted layer when nothing reads the input gradient.


def _fc_adjoint(layer, cache, g_pre, squared=False, input_term=True):
    x, w = cache.x, layer.weights
    if squared:
        x, w = x**2, w**2
    gb = g_pre.sum(axis=0) if layer.bias is not None else None
    return g_pre.T @ x, gb, g_pre @ w if input_term else None


def _conv_adjoint(layer, cache, g_pre, squared=False, input_term=True):
    c_out, c_in, m, k = layer.weights.shape
    cols, wmat = cache.cols, kernel_matrix(layer.weights)
    gp = g_pre.transpose(0, 2, 3, 1).reshape(-1, c_out)  # rows ordered like cols
    gb = gp.sum(axis=0) if layer.bias is not None else None
    if squared:  # cols squared in m row blocks, each as large as a kernel row's columns
        wmat, span = wmat**2, -(-len(cols) // m)
        gw = sum(gp[r : r + span].T @ cols[r : r + span]**2 for r in range(0, len(cols), span))
    else:
        gw = gp.T @ cols
    gw = gw.reshape(c_out, m, k, c_in).transpose(0, 3, 1, 2)
    gx = None
    if input_term:
        gx = col2im(gp, wmat, cache.x.shape, (m, k), layer.stride, layer.padding)
    return gw, gb, gx


def _pool_views(layer, x, h_out, w_out):
    """The p*p strided views x[:, :, u::s, v::s] of a pool's input, cut to
    its output size; view u*p + v holds offset (u, v) of every window."""
    p, s = layer.pool, layer.stride
    return [x[:, :, u : u + s * h_out : s, v : v + s * w_out : s]
            for u in range(p) for v in range(p)]


def _pool_adjoint(layer, cache, g_pre, squared=False, input_term=True):
    p, gx = layer.pool, np.zeros_like(cache.x)
    views = _pool_views(layer, gx, *g_pre.shape[2:])
    avg = layer.kind == "avgpool2d"  # every window input enters with weight 1/p²
    g = g_pre / (p**4 if squared else p * p) if avg else g_pre
    # maxpool: each window's winning input enters with weight 1; offsets run
    # last to first, the order in which overlapping windows reach an input
    for j in range(p * p) if avg else range(p * p - 1, -1, -1):
        views[j] += g if avg else np.where(cache.argmax == j, g, 0.0)
    return None, None, gx


def _reshape_adjoint(layer, cache, g_pre, squared=False, input_term=True):
    # flatten: the map is a reshape, so its coefficients are all 1
    return None, None, g_pre.reshape(cache.x.shape)


_ADJOINTS = {"fc": _fc_adjoint, "conv2d": _conv_adjoint,
             "maxpool2d": _pool_adjoint, "avgpool2d": _pool_adjoint,
             "flatten": _reshape_adjoint}


def _walk_stop(layers, input_grad=True):
    """Lowest layer index a reverse walk visits: 0 when the input term is
    wanted, else the lowest weighted layer (len(layers) if none)."""
    if input_grad:
        return 0
    return next((idx for idx, layer in enumerate(layers) if layer.weights is not None),
                len(layers))


def backward(layers, caches, loss_grad, input_grad=True):
    """Reverse pass.  Returns (per-layer (grad_w, grad_b) or None, grad_x).

    input_grad=False stops at the lowest weighted layer: it forms no input
    term, the layers below it are not visited and grad_x is None.  Sets
    cache.grad_out only on visited layers with a curved activation (see
    LayerCache); the caches must come from a forward call on the same layers.
    A relu layer's bool mask is written into the gradient once the walk
    owns it (an fc, conv or pool adjoint allocated it); loss_grad and its
    views (identity passes it on, flatten reshapes it) are never written.
    """
    if len(caches) != len(layers):
        raise ValueError("cache list does not match layer list")
    g, owned = np.asarray(loss_grad, dtype=np.float64), False
    grads = [None] * len(layers)
    stop = _walk_stop(layers, input_grad)
    for idx in range(len(layers) - 1, stop - 1, -1):
        layer, cache = layers[idx], caches[idx]
        if cache.out is None:
            raise ValueError(f"stale cache at layer {idx}: run forward first")
        if g.shape != cache.out.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match layer {idx} output "
                f"{cache.out.shape}"
            )
        if layer.activation in PIECEWISE_LINEAR:
            mask = PIECEWISE_LINEAR[layer.activation]
            if mask is not None:  # g times the mask's 0.0/1.0, bit for bit
                g = np.multiply(g, mask(cache.preact), out=g if owned else None)
        else:
            _, d1, _ = activation_funcs(layer.activation)
            cache.grad_out, g = g, g * d1(cache.preact)
        gw, gb, g = _ADJOINTS[layer.kind](layer, cache, g, input_term=input_grad or idx > stop)
        owned = layer.kind != "flatten"  # flatten's input term is a view of g
        if gw is not None:  # gw is fresh from the adjoint: mask it in place
            grads[idx] = (gw if layer.mask is None else np.multiply(gw, layer.mask, out=gw), gb)
    return grads, g if input_grad else None


# ---------------------------------------------------------------------------
# energy functions


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def energy(output, target, kind="mse"):
    """Data energy and its gradient w.r.t. the network output.

    mse: batch mean of 0.5*||output - target||^2 per sample.
    softmax_ce: batch mean of -log softmax(output)[label]; target is an
    integer label vector.
    """
    output = np.asarray(output, dtype=np.float64)
    b = output.shape[0]
    if kind == "mse":
        target = np.asarray(target, dtype=np.float64)
        if target.shape != output.shape:
            raise ValueError(f"target shape {target.shape} != output shape {output.shape}")
        diff = output - target
        return 0.5 * (diff**2).sum() / b, diff / b
    if kind == "softmax_ce":
        labels = np.asarray(target)
        if labels.shape != (b,):
            raise ValueError(f"labels must be ({b},), got {labels.shape}")
        if labels.min() < 0 or labels.max() >= output.shape[1]:
            raise ValueError("label index out of range for cross-entropy")
        p = _softmax(output)
        value = -np.log(p[np.arange(b), labels] + 1e-300).mean()
        grad = p.copy()
        grad[np.arange(b), labels] -= 1.0
        return value, grad / b
    raise ValueError(f"unknown energy kind {kind!r}")


def energy_hessian(output, target, kind="mse", mode="exact"):
    """Analytic Hessian of the energy w.r.t. the network output.

    exact: per-sample full matrices, shape (b, n, n); diag: shape of output.
    Both carry the 1/batch factor of the energy.  mse seeds the identity;
    softmax_ce seeds diag(p) - p p^T (positive semidefinite).
    """
    output = np.asarray(output, dtype=np.float64)
    flat = output.reshape(output.shape[0], -1)
    b, n = flat.shape
    if kind == "mse":
        if mode == "diag":
            return np.ones_like(output) / b
        return np.broadcast_to(np.eye(n) / b, (b, n, n)).copy()
    if kind == "softmax_ce":
        p = _softmax(flat)
        if mode == "diag":
            return (p * (1.0 - p)).reshape(output.shape) / b
        h = np.einsum("bi,ij->bij", p, np.eye(n)) - np.einsum("bi,bj->bij", p, p)
        return h / b
    raise ValueError(f"unknown energy kind {kind!r}")
