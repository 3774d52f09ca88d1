"""Closed-form hyperparameter updates and sparsity penalties.

Edge groups and weight slabs run one variance chain.  omega starts at 1,
and each outer iteration, after the fit under the previous omega, forms

    s       = ||w_g|| / omega_prev        (switch variance, `group_switch`)
    gamma   = s for slabs, the HARD map of the switches for edges
    omega^2 = 1/gamma - c/gamma^2 = h/(1 + gamma h)   (`group_omega`)

with c = (1/gamma + h)^-1 the posterior variance, h the curvature clamped at
0, omega_g^2 the sum of the members' shares, and an omega floor and an s cap
absorbing the h = 0 degeneracy: the order in which the convex-concave
procedure descends.  omega^2 is formed in one place (`_omega_sq`), as the
quotient, which has no cancellation; the difference form loses every digit
where gamma h is below the rounding unit.  The reweighted l1 penalty is the
group lasso on one-member groups.

Edge groups are held in the flat form of `flat_groups`, so every per-group
sum is one bincount.  Compression groups are slabs of a weight
(`slab_axes`), held by a `HyperState`: the structural update, the prune and
the per-batch penalty take every per-group sum as an axis sum and broadcast
every per-group value back over its slab.
"""

from __future__ import annotations

import functools
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
    "group_l2_penalty",
    "flat_groups",
    "group_switch",
    "group_omega",
    "group_update",
    "make_groups",
    "slab_axes",
    "slab_penalty_terms",
    "slab_l2_penalty",
    "structural_update",
]

# entropy of N(0, gamma) is nonpositive iff gamma <= 1/(2*pi*e)
ENTROPY_PRUNE_THRESHOLD = 1.0 / (2.0 * math.pi * math.e)
# guards of the hess = 0 degeneracy: the omega floor and the s cap
OMEGA_FLOOR = 1e-8
S_CAP = 1e6


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
    omega_floor: float = OMEGA_FLOOR
    s_cap: float = S_CAP
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
        for f in fields(self):  # json reads NaN and Infinity as floats
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"config field {f.name} must be finite")
        positive = ["lambda_w", "weight_decay", "learning_rate",
                    "omega_floor", "s_cap", "prune_threshold"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.t_max < 0:
            raise ValueError("config field t_max must be >= 0")
        for name in ("epochs_per_iteration", "batch_size", "curvature_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be >= 1")
        if self.retrain_epochs < 0:
            raise ValueError("config field retrain_epochs must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("config field momentum must be in [0, 1)")
        if self.hessian_mode not in ("exact", "approx"):
            raise ValueError("config field hessian_mode must be exact|approx")
        return self

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# scalar update rules


def update_posterior_variance(gamma, hess):
    """c = (1/gamma + hess)^-1; requires gamma > 0 and clamped hess >= 0.
    The updates never form c: omega^2 = 1/gamma - c/gamma^2 is `_omega_sq`."""
    gamma = np.asarray(gamma, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if np.any(gamma <= 0):
        raise ValueError("gamma must be positive")
    # algebraically gamma / (1 + gamma*hess); stable for tiny gamma
    return gamma / (1.0 + gamma * hess)


def _omega_sq(gamma, hess):
    """Each member's share of omega^2, h/(1 + gamma h) with h the curvature
    clamped at 0."""
    h = np.maximum(hess, 0.0)
    return h / (1.0 + gamma * h)


def group_switch(w, omega_prev, total, floor=OMEGA_FLOOR, cap=S_CAP):
    """s_g = ||w_g||_2 / omega_prev_g, capped, with omega_prev the omega
    that the fit ran under, floored; total(a) sums a member array over
    each group."""
    return np.minimum(np.sqrt(total(w * w)) / np.maximum(omega_prev, floor), cap)


def group_omega(gamma, hess, total, floor=OMEGA_FLOOR):
    """omega_g = sqrt(sum of the members' `_omega_sq` at gamma), floored,
    from the raw per-member curvature; total as in `group_switch`."""
    return np.maximum(np.sqrt(total(_omega_sq(gamma, hess))), floor)


# ---------------------------------------------------------------------------
# penalties


def group_l2_penalty(wm, group, terms):
    """Reweighted group lasso: lambda_w * sum_g omega_g * ||w_g||_2 over the
    members wm of the flat groups `group`, with terms (lambda_w * omega per
    group, the same per member); one-member groups give the reweighted l1.

    Subgradient, per member: lambda_w * omega_g * w / ||w_g|| (0 for a zero group).
    """
    coef, coef_m = terms
    norm = np.sqrt(np.bincount(group, weights=wm * wm, minlength=coef.size))
    norm_m = norm[group]
    grad = np.divide(coef_m * wm, norm_m, out=np.zeros(wm.shape), where=norm_m > 0)
    return float((coef * norm).sum()), grad


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


def group_update(w, omega_prev, hess, group, gamma_of, floor=OMEGA_FLOOR, cap=S_CAP):
    """The variance chain of flat groups: (s, omega), one entry per group.

    s from the per-group omega_prev that the fit ran under, then the
    members' gamma = gamma_of(s), then omega at that gamma.  Every sum is
    one bincount over the group positions `group`.
    """
    total = functools.partial(np.bincount, group)  # weights a member array
    s = group_switch(np.asarray(w, dtype=np.float64), omega_prev, total, floor, cap)
    return s, group_omega(gamma_of(s), hess, total, floor)


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


@dataclass
class HyperState:
    """Per-group hyperparameters of one layer's groups: slabs of the (n, c, m, k)
    `view` of its weight, in the group order of `make_groups`.  A kind's group
    shape is `view` with its spanned axes at 1, so a block broadcasts over slabs."""

    view: tuple
    slabs: list  # per slab kind: spanned axes, block of the group order, group shape
    gamma: np.ndarray  # one value per group
    omega: np.ndarray
    alive: np.ndarray

    @classmethod
    def init(cls, shape, patterns):
        view, slabs, start = _view4(shape), [], 0
        for axes in [axes for name in patterns for axes in slab_axes(shape, name)]:
            group_shape = tuple(1 if a in axes else d for a, d in enumerate(view))
            size = math.prod(group_shape)
            slabs.append((axes, slice(start, start + size), group_shape))
            start += size
        return cls(view, slabs, gamma=np.ones(start), omega=np.ones(start),
                   alive=np.ones(start, dtype=bool))


def make_groups(shape, pattern):
    """The slabs of `HyperState` as index-set groups of one pattern.

    Conv weights are (N, C, m, k).  2-d fc weights (out, in) use: row =
    per output unit, column/shape = per input unit, filter = per output
    unit; the group_* variants need a genuine kernel axis."""
    state = HyperState.init(shape, [pattern])
    idx = np.arange(math.prod(state.view)).reshape(state.view)
    members = [mem for axes, _, group_shape in state.slabs  # spanned axes moved last
               for mem in np.moveaxis(idx, axes, range(-len(axes), 0))
               .reshape(math.prod(group_shape), -1)]
    return [GroupSpec(gid, mem, pattern) for gid, mem in enumerate(members)]


def slab_penalty_terms(state, lambda_w):
    """What `slab_l2_penalty` reads of `state` besides its slabs: lambda_w *
    omega, whole and as each slab kind's group-shaped block.  They change
    only with omega, so a trainer forms them once per update."""
    coef = lambda_w * state.omega
    return coef, [coef[block].reshape(group_shape) for _, block, group_shape in state.slabs]


def slab_l2_penalty(w, state, terms, decay):
    """`group_l2_penalty` over the slab groups of `state`, with the
    `slab_penalty_terms` of its omega, and the l2 decay: the value, and the
    factor that the gradient is w times, decay + each kind's lambda_w *
    omega_g / ||w_g|| (0 for a zero slab), group-shaped on the view."""
    coef, blocks = terms
    w4 = np.asarray(w, dtype=np.float64).reshape(state.view)
    sq, factor, norms = w4 * w4, decay, []
    for (axes, _, _), c in zip(state.slabs, blocks):
        norm = np.sqrt(sq.sum(axis=axes, keepdims=True))
        factor = factor + np.divide(c, norm, out=np.zeros(norm.shape), where=norm > 0)
        norms.append(norm.ravel())
    return float(np.sum(coef * np.concatenate(norms))), factor


def structural_update(weights, state, hess_diag, floor=OMEGA_FLOOR, cap=S_CAP):
    """One update of a HyperState: per alive group g, the variance chain
    with gamma_g = s_g, every sum an axis sum over a slab kind.  Dead
    groups keep their values."""
    w4 = np.asarray(weights, dtype=np.float64).reshape(state.view)
    h4 = np.asarray(hess_diag, dtype=np.float64).reshape(state.view)
    gamma, omega = state.gamma.copy(), state.omega.copy()
    for axes, block, group_shape in state.slabs:
        total = functools.partial(np.sum, axis=axes, keepdims=True)
        g = group_switch(w4, state.omega[block].reshape(group_shape), total, floor, cap)
        gamma[block] = g.ravel()
        omega[block] = group_omega(g, h4, total, floor).ravel()
    state.gamma = np.where(state.alive, gamma, state.gamma)
    state.omega = np.where(state.alive, omega, state.omega)
    return state

