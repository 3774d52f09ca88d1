"""Closed-form hyperparameter updates and sparsity penalties.

The scalar chain per parameter and outer iteration t is

    c     = (1/gamma_prev + hess)^-1              (posterior variance)
    omega = sqrt(gamma_prev - c) / gamma_prev     (reweighting coefficient)
    s     = |w / omega|                           (switch variance)

with an omega floor and an s cap absorbing the hess = 0 degeneracy.  A group
shares one (s, omega) across its members, and the reweighted l1 penalty is
the group lasso on one-member groups.  Groups, overlapping or not, are held
in the flat form of `flat_groups`, so every per-group sum is one bincount.
The groups of a weight pattern are also slabs of the weight (`slab_axes`),
so the per-batch compression penalty sums over axes instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, fields

import numpy as np

__all__ = [
    "ENTROPY_PRUNE_THRESHOLD",
    "SearchConfig",
    "GroupSpec",
    "HyperState",
    "update_posterior_variance",
    "update_omega",
    "update_switch",
    "group_l2_penalty",
    "flat_groups",
    "group_update",
    "make_groups",
    "slab_axes",
    "slab_l2_penalty",
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
    # compress's layer curvature: "exact" full matrices or "approx" diagonal
    # (graph searches always take the Gauss-Newton edge rule)
    hessian_mode: str = "approx"

    def __post_init__(self):
        # 1 and 1.0 are one configuration, so they must give one config_hash
        for f in fields(self):
            if f.type == "float":
                setattr(self, f.name, float(getattr(self, f.name)))

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


def group_l2_penalty(w, index, group, omega, lambda_w):
    """Reweighted group lasso: lambda_w * sum_g omega_g * ||w_g||_2 over the
    flat groups (index, group); one-member groups give the reweighted l1.

    Subgradient is lambda_w * omega_g * w / ||w_g|| (0 for a zero group).
    """
    w = np.asarray(w, dtype=np.float64)
    coef = lambda_w * np.asarray(omega, dtype=np.float64)
    wm = w[index]
    norm = np.sqrt(np.bincount(group, weights=wm * wm, minlength=coef.size))
    norm_m = norm[group]
    term = np.divide(coef[group] * wm, norm_m, out=np.zeros_like(wm), where=norm_m > 0)
    return float(np.sum(coef * norm)), np.bincount(index, weights=term, minlength=w.size)


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


def flat_groups(groups):
    """(index, group): every member index of `groups`, group by group, and
    the position of its group."""
    index = np.concatenate([np.zeros(0, dtype=np.intp)] + [grp.members for grp in groups])
    return index, np.repeat(np.arange(len(groups)), [grp.members.size for grp in groups])


def group_update(w, gamma_prev, c, group, floor=1e-8, cap=1e6):
    """Shared (s, omega) of every group, one entry per group position.

    omega_g is the root-sum of the members' `update_omega`s and s_g =
    ||w_g||_2 / omega_g; sqrt(x^2) = |x| in floating point, so a one-member
    group equals update_omega/update_switch bitwise.
    """
    w = np.asarray(w, dtype=np.float64)
    omega_sq = update_omega(gamma_prev, c, 0.0) ** 2
    omega = np.maximum(np.sqrt(np.bincount(group, weights=omega_sq)), floor)
    s = np.minimum(np.sqrt(np.bincount(group, weights=w * w)) / omega, cap)
    return s, omega


# Every pattern is a set of slabs of the (n, c, m, k) view of a weight (a
# 2-d (out, in) weight is (n, c, 1, 1)).  A slab kind keeps some axes, one
# group per index of them in C order, and spans the others; the table holds
# the spanned axes.  Row and column of a 2-d weight are its output and
# input units.
_SLABS = {
    "shape": (0,), "row": (0, 3), "column": (0, 2), "channel": (0, 2, 3),
    "group_shape": (0, 1), "group_row": (0, 1, 3), "group_column": (0, 1, 2),
    "filter": (1, 2, 3),
}
_SLABS_2D = {**_SLABS, "row": (1, 2, 3), "column": (0, 2, 3)}
_PATTERNS = {**{kind: (kind,) for kind in _SLABS},
             "row_and_column": ("row", "column"),
             "group_row_and_column": ("group_row", "group_column")}


def _view4(shape):
    shape = tuple(shape)
    return shape + (1, 1) if len(shape) == 2 else shape


def slab_axes(shape, pattern):
    """Spanned axes of each slab kind of `pattern` over the (n, c, m, k)
    view of a weight of `shape`, in the group order of `make_groups`."""
    if len(shape) not in (2, 4):
        raise ValueError(f"pattern {pattern!r} needs a 2-d or 4-d weight, got {tuple(shape)}")
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    table = _SLABS_2D if len(shape) == 2 else _SLABS
    return [table[kind] for kind in _PATTERNS[pattern]]


def make_groups(shape, pattern):
    """Build the index-set groups of one structured-sparsity pattern.

    Conv weights are (N, C, m, k).  2-d fc weights (out, in) use: row =
    per output unit, column/shape = per input unit, filter = per output
    unit; the group_* variants need a genuine kernel axis.
    """
    slabs, shape4 = slab_axes(shape, pattern), _view4(shape)
    idx = np.arange(int(np.prod(shape4))).reshape(shape4)
    members = []
    for axes in slabs:
        kept = tuple(a for a in range(4) if a not in axes)
        span = int(np.prod([shape4[a] for a in axes]))
        members.extend(idx.transpose(kept + axes).reshape(-1, span))
    return [GroupSpec(gid, mem, pattern) for gid, mem in enumerate(members)]


def slab_l2_penalty(w, slabs, omega, lambda_w):
    """`group_l2_penalty` over the groups of `slab_axes` kinds `slabs`,
    with omega in their group order: each kind's norms are one axis sum of
    w^2, and its gradient broadcasts them back, with no gather or scatter.
    """
    w = np.asarray(w, dtype=np.float64)
    w4 = w.reshape(_view4(w.shape))
    coef = lambda_w * np.asarray(omega, dtype=np.float64)
    sq, grad, term, norms = w4 * w4, np.zeros_like(w4), np.empty_like(w4), []
    for axes in slabs:
        norm = np.sqrt(np.sum(sq, axis=axes, keepdims=True))
        start = sum(n.size for n in norms)
        c = coef[start : start + norm.size].reshape(norm.shape)
        live = norm > 0  # a zero slab's term is 0 (c * w / ||w|| elsewhere)
        np.multiply(np.where(live, c, 0.0), w4, out=term)
        grad += np.divide(term, np.where(live, norm, 1.0), out=term)
        norms.append(norm.ravel())
    return float(np.sum(coef * np.concatenate(norms))), grad.reshape(w.shape)


@dataclass
class HyperState:
    """Per-group hyperparameters of one layer's groups, in flat form."""

    index: np.ndarray  # flat weight index of every member, group by group
    group: np.ndarray  # group position of every member
    gamma: np.ndarray  # one value per group
    omega: np.ndarray
    alive: np.ndarray

    @classmethod
    def init(cls, groups):
        g = len(groups)
        return cls(*flat_groups(groups), gamma=np.ones(g), omega=np.ones(g),
                   alive=np.ones(g, dtype=bool))


def structural_update(weights, state, hess_diag, floor=1e-8, cap=1e6):
    """One compression-rule update of a HyperState.

    Per alive group g:  gamma_g = ||W_g||_2 / omega_g(t-1) then, element-wise
    with the clamped Hessian diagonal,  alpha = -c/gamma^2 + 1/gamma =
    h/(1 + gamma h) for c = (1/gamma + h)^-1, and omega_g = sqrt(sum_g |alpha|).
    Dead groups keep their values.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    h = np.maximum(np.asarray(hess_diag, dtype=np.float64).ravel(), 0.0)
    if h.shape != w.shape:
        raise ValueError(f"hessian diag shape {h.shape} does not match weights {w.shape}")
    n, wm, hm = state.gamma.size, w[state.index], h[state.index]
    norm = np.sqrt(np.bincount(state.group, weights=wm * wm, minlength=n))
    gamma = np.minimum(norm / np.maximum(state.omega, floor), cap)
    alpha = hm / (1.0 + gamma[state.group] * hm)
    omega = np.maximum(np.sqrt(np.bincount(state.group, weights=np.abs(alpha), minlength=n)),
                       floor)
    state.gamma = np.where(state.alive, gamma, state.gamma)
    state.omega = np.where(state.alive, omega, state.omega)
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
