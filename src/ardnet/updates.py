"""Closed-form hyperparameter updates and sparsity penalties.

The scalar chain per parameter and outer iteration t is

    c     = (1/gamma_prev + hess)^-1              (posterior variance)
    omega = sqrt(gamma_prev - c) / gamma_prev     (reweighting coefficient)
    s     = |w / omega|                           (switch variance)

with an omega floor and an s cap absorbing the hess = 0 degeneracy.  Group
variants share one (s, omega) across all members.  The structural-compression
rules operate on arbitrary index-set groups over a weight tensor.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict, fields

import numpy as np

__all__ = [
    "ENTROPY_PRUNE_THRESHOLD",
    "SearchConfig",
    "GroupSpec",
    "HyperState",
    "update_posterior_variance",
    "update_omega",
    "update_switch",
    "reweighted_l1_penalty",
    "group_l2_penalty",
    "group_update",
    "make_groups",
    "structural_update",
    "sgd_momentum_step",
    "cccp_surrogate_cost",
    "cccp_quadratic_reference",
]

# entropy of N(0, gamma) is nonpositive iff gamma <= 1/(2*pi*e)
ENTROPY_PRUNE_THRESHOLD = 1.0 / (2.0 * math.pi * math.e)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SearchConfig:
    """Every fixed knob of a search or compression run."""

    lambda_w: float = 0.01        # sparsity intensity on architecture scalars
    weight_decay: float = 0.01    # l2 coefficient on network weights
    t_max: int = 10               # outer iterations
    epochs_per_iteration: int = 1
    retrain_epochs: int = 5
    batch_size: int = 32
    curvature_batch: int = 256
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    omega_floor: float = 1e-8
    s_cap: float = 1e6
    prune_threshold: float = ENTROPY_PRUNE_THRESHOLD
    hessian_mode: str = "approx"  # "exact" or "approx"

    def validate(self):
        positive = ["lambda_w", "weight_decay", "learning_rate",
                    "omega_floor", "s_cap", "prune_threshold"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.t_max < 0:
            raise ValueError("config field t_max must be >= 0")
        if self.epochs_per_iteration < 1:
            raise ValueError("config field epochs_per_iteration must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ValueError("config field momentum must be in [0, 1)")
        if self.hessian_mode not in ("exact", "approx"):
            raise ValueError("config field hessian_mode must be exact|approx")
        return self

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]


# ---------------------------------------------------------------------------
# scalar update rules


def update_posterior_variance(gamma, hess):
    """c = (1/gamma + hess)^-1; requires gamma > 0 and clamped hess >= 0."""
    gamma = np.asarray(gamma, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if np.any(gamma <= 0):
        raise ValueError("gamma must be positive")
    # algebraically gamma / (1 + gamma*hess); stable for tiny gamma
    return gamma / (1.0 + gamma * hess)


def update_omega(gamma_prev, c, floor=1e-8):
    """omega = sqrt(gamma_prev - c) / gamma_prev, floored at `floor`."""
    gamma_prev = np.asarray(gamma_prev, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if np.any(c > gamma_prev + 1e-12):
        raise ValueError("posterior variance exceeds prior variance: clamp hess first")
    omega = np.sqrt(np.maximum(gamma_prev - c, 0.0)) / gamma_prev
    return np.maximum(omega, floor)


def update_switch(w, omega, cap=1e6):
    """s = |w / omega|, capped at `cap` (omega is already floored)."""
    s = np.abs(np.asarray(w, dtype=np.float64) / np.asarray(omega, dtype=np.float64))
    return np.minimum(s, cap)


# ---------------------------------------------------------------------------
# penalties


def reweighted_l1_penalty(w, omega, lambda_w):
    """lambda_w * sum |omega * w| and its subgradient (0 at w = 0)."""
    w = np.asarray(w, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    value = lambda_w * np.sum(np.abs(omega * w))
    grad = lambda_w * omega * np.sign(w)
    return value, grad


def group_l2_penalty(w, groups, omega_group, lambda_w):
    """Reweighted group lasso: lambda_w * sum_g omega_g * ||w_g||_2.

    Subgradient is lambda_w * omega_g * w / ||w_g|| (0 for a zero group).
    """
    w = np.asarray(w, dtype=np.float64)
    value = 0.0
    grad = np.zeros_like(w)
    for spec, og in zip(groups, omega_group):
        wg = w[spec.members]
        norm = float(np.linalg.norm(wg))
        value += lambda_w * og * norm
        if norm > 0:
            grad[spec.members] += lambda_w * og * wg / norm
    return value, grad


# ---------------------------------------------------------------------------
# groups


@dataclass
class GroupSpec:
    """An index-set description of one parameter group."""

    gid: int
    members: np.ndarray  # flat indices (weights) or edge ids
    pattern: str = "edge_singleton"

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.intp)
        if self.members.size == 0:
            raise ValueError(f"group {self.gid} is empty")


def group_update(w_members, gamma_prev, c, floor=1e-8, cap=1e6):
    """Shared (s, omega) for one group.

    omega_g = sqrt(sum_i (gamma_i - c_i) / gamma_i^2), the root-sum of the
    members' squared scalar omegas, and s_g = ||w_g||_2 / omega_g.  With one
    member this reduces bitwise to update_omega/update_switch.
    """
    w = np.asarray(w_members, dtype=np.float64)
    gamma_prev = np.asarray(gamma_prev, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty group")
    if np.any(c > gamma_prev + 1e-12):
        raise ValueError("posterior variance exceeds prior variance: clamp hess first")
    if w.size == 1:
        omega = update_omega(gamma_prev, c, floor)
        return float(update_switch(w, omega, cap).ravel()[0]), float(omega.ravel()[0])
    omega_sq = np.maximum(gamma_prev - c, 0.0) / gamma_prev**2
    omega_g = max(float(np.sqrt(np.sum(omega_sq))), floor)
    s_g = min(float(np.linalg.norm(w)) / omega_g, cap)
    return s_g, omega_g


_PATTERNS = (
    "shape", "row", "column", "row_and_column", "channel",
    "group_shape", "group_row", "group_column", "group_row_and_column",
    "filter",
)


def make_groups(shape, pattern):
    """Build the index-set groups of one structured-sparsity pattern.

    Conv weights are (N, C, m, k).  2-d fc weights (out, in) use: row =
    per output unit, column/shape = per input unit, filter = per output
    unit; the group_* variants need a genuine kernel axis.
    """
    shape = tuple(shape)
    if len(shape) == 2:
        shape4 = (shape[0], shape[1], 1, 1)
    elif len(shape) == 4:
        shape4 = shape
    else:
        raise ValueError(f"pattern {pattern!r} needs a 2-d or 4-d weight, got {shape}")
    n, c, m, k = shape4
    idx = np.arange(int(np.prod(shape4))).reshape(shape4)

    def slabs(kind):
        if kind == "shape":
            return [idx[:, ci, ui, vi] for ci in range(c) for ui in range(m) for vi in range(k)]
        if kind == "row":
            if len(shape) == 2:
                return [idx[ni, :, 0, 0] for ni in range(n)]
            return [idx[:, ci, ui, :] for ci in range(c) for ui in range(m)]
        if kind == "column":
            if len(shape) == 2:
                return [idx[:, ci, 0, 0] for ci in range(c)]
            return [idx[:, ci, :, vi] for ci in range(c) for vi in range(k)]
        if kind == "channel":
            return [idx[:, ci] for ci in range(c)]
        if kind == "group_shape":
            return [idx[:, :, ui, vi] for ui in range(m) for vi in range(k)]
        if kind == "group_row":
            return [idx[:, :, ui, :] for ui in range(m)]
        if kind == "group_column":
            return [idx[:, :, :, vi] for vi in range(k)]
        if kind == "filter":
            return [idx[ni] for ni in range(n)]
        raise ValueError(f"unknown pattern {kind!r}")

    if pattern == "row_and_column":
        members = slabs("row") + slabs("column")
    elif pattern == "group_row_and_column":
        members = slabs("group_row") + slabs("group_column")
    elif pattern in _PATTERNS:
        members = slabs(pattern)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return [GroupSpec(gid, np.sort(mem.ravel()), pattern) for gid, mem in enumerate(members)]


@dataclass
class HyperState:
    """Per-group hyperparameters of one (layer, pattern) compression slot."""

    groups: list
    gamma: np.ndarray  # one value per group
    omega: np.ndarray
    c: np.ndarray = None
    alpha: np.ndarray = None
    alive: np.ndarray = None

    @classmethod
    def init(cls, groups):
        g = len(groups)
        return cls(groups=groups, gamma=np.ones(g), omega=np.ones(g),
                   alive=np.ones(g, dtype=bool))


def structural_update(weights, state, hess_diag, floor=1e-8, cap=1e6):
    """One compression-rule update of a HyperState.

    Per alive group g:  gamma_g = ||W_g||_2 / omega_g(t-1) then, element-wise
    with the clamped Hessian diagonal,  c = (1/gamma + h)^-1,
    alpha = -c/gamma^2 + 1/gamma = h/(1 + gamma h), and
    omega_g = sqrt(sum_g |alpha|).
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    h = np.maximum(np.asarray(hess_diag, dtype=np.float64).ravel(), 0.0)
    if h.shape != w.shape:
        raise ValueError(f"hessian diag shape {h.shape} does not match weights {w.shape}")
    gamma_new = state.gamma.copy()
    omega_new = state.omega.copy()
    c_new = np.zeros_like(gamma_new)
    alpha_new = np.zeros_like(gamma_new)
    for g, spec in enumerate(state.groups):
        if not state.alive[g]:
            continue
        gamma_g = min(float(np.linalg.norm(w[spec.members])) / max(state.omega[g], floor), cap)
        hg = h[spec.members]
        c_g = gamma_g / (1.0 + gamma_g * hg)        # element-wise posterior variance
        alpha_g = hg / (1.0 + gamma_g * hg)         # = -c/gamma^2 + 1/gamma
        gamma_new[g] = gamma_g
        c_new[g] = float(np.mean(c_g))
        alpha_new[g] = float(np.sum(np.abs(alpha_g)))
        omega_new[g] = max(float(np.sqrt(alpha_new[g])), floor)
    state.gamma, state.omega = gamma_new, omega_new
    state.c, state.alpha = c_new, alpha_new
    return state


# ---------------------------------------------------------------------------
# optimizer


def sgd_momentum_step(value, grad, velocity, lr, momentum):
    """Classic momentum update; returns (new_value, new_velocity)."""
    velocity = momentum * velocity - lr * grad
    return value + velocity, velocity


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


def cccp_quadratic_reference(a_mat, b_vec, n_iters=10, s0=None):
    """Run the full alternation on a convex quadratic with exact inner solves.

    Returns the per-iteration surrogate costs (evaluated after each outer
    step); monotone non-increase is the descent property under test.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    b_vec = np.asarray(b_vec, dtype=np.float64)
    n = b_vec.size
    s = np.ones(n) if s0 is None else np.asarray(s0, dtype=np.float64).copy()
    w = np.zeros(n)
    costs = []
    for _ in range(n_iters):
        c_diag = np.diag(np.linalg.inv(np.diag(1.0 / s) + a_mat))
        omega = np.sqrt(np.maximum(s - c_diag, 0.0)) / s
        # joint exact minimisation of the convexified surrogate:
        # min_w E_D(w) + 2 sum omega_i |w_i|, then s_i = |w_i| / omega_i
        w = _lasso_quadratic(a_mat, b_vec, 2.0 * omega, w)
        s = np.abs(w) / omega
        if np.any(s <= 0):
            raise FloatingPointError("a coordinate collapsed to zero; pick a "
                                     "quadratic with stronger signal")
        costs.append(cccp_surrogate_cost(w, s, a_mat, b_vec))
    return np.asarray(costs)
