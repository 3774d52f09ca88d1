"""Reference oracles for the tests and demos, independent of the curvature
recursion and the closed-form updates that they check.

- `finite_diff_hessian` and `fd_weight_hessian_diag`: central second
  differences of a scalar energy, one coordinate at a time.
- `cccp_surrogate_cost` and `cccp_quadratic_reference`: the reweighted-l1
  alternation on a fixed convex quadratic energy, with exact inner solves.
- `momentum_step`: the classic momentum formula, forming fresh arrays, and
  `allocating_step_layers`, which takes it on every layer array.

The demos put this directory on ``sys.path`` to import it.
"""

import numpy as np

from ardnet import nn


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
# convex-concave reference on a fixed quadratic energy


def cccp_surrogate_cost(w, s, a_mat, b_vec):
    """E_D(w) + sum w^2/s + log|diag(s)| + log|diag(s)^-1 + A| for
    E_D(w) = 0.5 w^T A w - b^T w.  The quantity the alternation descends."""
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0):
        raise ValueError("all switch variances must be positive")
    e_d = 0.5 * w @ a_mat @ w - b_vec @ w
    quad = float(np.sum(w**2 / s))
    logdet = float(np.sum(np.log(s)))
    sign, ld2 = np.linalg.slogdet(np.diag(1.0 / s) + a_mat)
    if sign <= 0:
        raise ValueError("diag(1/s) + A must be positive definite")
    return e_d + quad + logdet + ld2


def _lasso_quadratic(a_mat, b_vec, weight, w0, iters=4000, tol=1e-12):
    """FISTA for min 0.5 w^T A w - b^T w + sum weight_i |w_i|."""
    lip = float(np.linalg.eigvalsh(a_mat)[-1])
    w = w0.copy()
    y = w0.copy()
    t_k = 1.0
    for _ in range(iters):
        grad = a_mat @ y - b_vec
        z = y - grad / lip
        w_next = np.sign(z) * np.maximum(np.abs(z) - weight / lip, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        y = w_next + (t_k - 1.0) / t_next * (w_next - w)
        if np.max(np.abs(w_next - w)) < tol:
            w = w_next
            break
        w, t_k = w_next, t_next
    return w


def oracle_omega(s, a_mat):
    """omega = sqrt(1/s - c/s^2) with c the diagonal of (diag(1/s) + A)^-1."""
    c_diag = np.diag(np.linalg.inv(np.diag(1.0 / s) + a_mat))
    return np.sqrt(np.maximum(s - c_diag, 0.0)) / s


def oracle_switch(w, omega):
    """s = |w| / omega."""
    return np.abs(w) / omega


def cccp_quadratic_reference(a_mat, b_vec, n_iters=10, s0=None, omega_of=oracle_omega,
                             switch_of=oracle_switch):
    """Run the full alternation on a convex quadratic with exact inner solves.

    Each outer step forms omega_of(s, A), solves under that omega, then
    forms s = switch_of(w, omega); a caller may put other rules in place of
    the oracle's own.  Returns the per-iteration surrogate
    costs (evaluated after each outer step); monotone non-increase is the
    descent property under test.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    b_vec = np.asarray(b_vec, dtype=np.float64)
    n = b_vec.size
    s = np.ones(n) if s0 is None else np.asarray(s0, dtype=np.float64).copy()
    w = np.zeros(n)
    costs = []
    for _ in range(n_iters):
        omega = omega_of(s, a_mat)
        # joint exact minimisation of the convexified surrogate:
        # min_w E_D(w) + 2 sum omega_i |w_i|, then s_i = |w_i| / omega_i
        w = _lasso_quadratic(a_mat, b_vec, 2.0 * omega, w)
        s = switch_of(w, omega)
        if np.any(s <= 0):
            raise FloatingPointError("a coordinate collapsed to zero; pick a "
                                     "quadratic with stronger signal")
        costs.append(cccp_surrogate_cost(w, s, a_mat, b_vec))
    return np.asarray(costs)


# ---------------------------------------------------------------------------
# momentum oracle


def momentum_step(value, grad, velocity, lr, momentum):
    """Classic momentum update on fresh arrays; returns (new value, new velocity)."""
    velocity = momentum * velocity - lr * grad
    return value + velocity, velocity


def allocating_step_layers(layers, grads, velocity, key, config):
    """`engine._step_layers` by `momentum_step` on fresh arrays: assigning
    value + velocity, as a float64 sum, to the layer, which masks it."""
    for li, item in enumerate(grads):
        for name, grad in zip(("weights", "bias"), item or ()):
            if grad is not None:
                value, velocity[key + (li, name)] = momentum_step(
                    getattr(layers[li], name), grad, velocity.get(key + (li, name), 0.0),
                    config.learning_rate, config.momentum)
                setattr(layers[li], name, value)
