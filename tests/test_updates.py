"""Variance-chain algebra, grouping patterns, penalties, solver config."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardnet import engine, nn, updates
from ardnet.updates import (ENTROPY_PRUNE_THRESHOLD, GroupSpec, SearchConfig,
                            flat_groups, group_l2_penalty, group_omega,
                            group_switch, group_update, make_groups,
                            update_posterior_variance)
from oracles import cccp_quadratic_reference, cccp_surrogate_cost


def penalty_terms(omega, group, lambda_w):
    """lambda_w * omega per group and per member: what group_l2_penalty reads."""
    coef = lambda_w * np.asarray(omega, dtype=np.float64)
    return coef, coef[group]


def flat_group_l2_penalty(w, index, group, omega, lambda_w):
    """group_l2_penalty over the members w[index] of the flat groups
    (index, group), its member gradients summed back onto w."""
    value, grad = group_l2_penalty(w[index], group, penalty_terms(omega, group, lambda_w))
    return value, np.bincount(index, weights=grad, minlength=w.size)


def reweighted_l1_penalty(w, omega, lambda_w):
    """The reweighted l1: group_l2_penalty with one-member groups."""
    members = np.arange(len(w))
    return flat_group_l2_penalty(w, members, members, omega, lambda_w)


def test_threshold_constant():
    assert ENTROPY_PRUNE_THRESHOLD == 1.0 / (2.0 * math.pi * math.e)
    assert f"{ENTROPY_PRUNE_THRESHOLD:.3g}" == "0.0585"


def test_posterior_variance_hand_values():
    assert update_posterior_variance(1.0, 0.0) == pytest.approx(1.0)
    assert update_posterior_variance(1.0, 1.0) == pytest.approx(0.5)


def test_posterior_variance_never_exceeds_gamma():
    rng = np.random.default_rng(0)
    gamma = 10.0 ** rng.uniform(-6, 6, 2000)
    hess = 10.0 ** rng.uniform(-6, 6, 2000)
    c = update_posterior_variance(gamma, hess)
    assert np.all(c > 0)
    assert np.all(c <= gamma)


def test_posterior_variance_rejects_nonpositive_gamma():
    with pytest.raises(ValueError, match="gamma must be positive"):
        update_posterior_variance(0.0, 1.0)


def own_total(a):
    """The per-group sum over one-member groups: each member's own value."""
    return a


def one_member(w, gamma, hess, floor=updates.OMEGA_FLOOR, cap=updates.S_CAP):
    """(s, omega) of one-member groups, one per entry: omega at gamma, then
    s = |w| / omega."""
    w, gamma, hess = np.broadcast_arrays(*map(np.atleast_1d, (w, gamma, hess)))
    omega = group_omega(gamma, hess, own_total, floor)
    return group_switch(w, omega, own_total, floor, cap), omega


def test_omega_hand_value_and_floor():
    # c = 0.5 at gamma = 1 is h = 1: omega^2 = 1/gamma - c/gamma^2 = 0.5
    assert one_member(0.0, 1.0, 1.0)[1][0] == pytest.approx(math.sqrt(0.5))
    assert one_member(0.0, 1.0, 0.0, floor=1e-8)[1][0] == 1e-8
    # negative curvature is clamped to 0
    assert one_member(0.0, 1.0, -3.0, floor=1e-8)[1][0] == 1e-8


def test_omega_has_no_cancellation_at_tiny_gamma_h():
    # gamma h = 1e-17 is below the rounding unit, so gamma - c is 0 in floats
    _, omega = one_member(0.0, 1e3, 1e-20, floor=0.0)
    assert omega[0] ** 2 == pytest.approx(1e-20, rel=1e-12)


def test_omega_identity_sweep():
    rng = np.random.default_rng(1)
    gamma = 10.0 ** rng.uniform(-3, 3, 2000)
    hess = 10.0 ** rng.uniform(-3, 3, 2000)
    c = update_posterior_variance(gamma, hess)
    _, omega = one_member(0.0, gamma, hess, floor=0.0)
    assert np.max(np.abs(omega**2 * gamma**2 + c - gamma)) < 1e-10


def test_switch_hand_values_and_cap():
    omega = math.sqrt(0.5)  # gamma = 1, h = 1
    assert one_member(0.0, 1.0, 1.0)[0][0] == 0.0
    assert one_member(omega, 1.0, 1.0)[0][0] == pytest.approx(1.0)
    assert one_member(5.0, 1.0, 0.0, floor=1e-9, cap=1e6)[0][0] == 1e6


def test_switch_monotone():
    s, _ = one_member(np.linspace(0, 5, 50), 1.0, 0.3)
    assert np.all(np.diff(s) > 0)
    s, omega = one_member(1.0, 1.0, np.linspace(0.1, 5, 50))
    assert np.all(np.diff(omega) > 0) and np.all(np.diff(s) < 0)


def test_reweighted_l1_hand_value():
    v, _ = reweighted_l1_penalty(np.array([1.0, -2.0]), np.ones(2), 0.01)
    assert v == pytest.approx(0.03)


def test_reweighted_l1_zero_omega_is_unpenalized():
    v, g = reweighted_l1_penalty(np.array([1.0, -2.0]), np.zeros(2), 0.01)
    assert v == 0.0
    assert np.all(g == 0.0)


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    w = rng.normal(size=6) + np.sign(rng.normal(size=6))  # keep away from 0
    omega = np.abs(rng.normal(size=6)) + 0.1
    _, g = reweighted_l1_penalty(w, omega, 0.01)
    step = 1e-7
    for i in range(6):
        wp, wm = w.copy(), w.copy()
        wp[i] += step
        wm[i] -= step
        ref = (reweighted_l1_penalty(wp, omega, 0.01)[0]
               - reweighted_l1_penalty(wm, omega, 0.01)[0]) / (2 * step)
        assert abs(g[i] - ref) / max(abs(ref), 1e-8) < 1e-6


def test_group_update_identical_members():
    # k identical members: ||w_g|| = sqrt(k) |w| and omega_g = sqrt(k) omega_i
    w, omega_prev, hess, k = 0.8, 0.5, 1.5, 4
    group = np.zeros(k, int)
    s_g, omega_g = group_update(np.full(k, w), np.array([omega_prev]), np.full(k, hess),
                                group, lambda s: s[group])
    assert s_g[0] == pytest.approx(math.sqrt(k) * abs(w) / omega_prev, rel=1e-12)
    omega_i = one_member(0.0, s_g[0], hess)[1][0]
    assert omega_g[0] == pytest.approx(math.sqrt(k) * omega_i, rel=1e-12)


def test_group_update_rejects_empty():
    with pytest.raises(ValueError):
        GroupSpec(0, [])


def test_group_l2_penalty_and_gradient():
    w = np.array([3.0, 4.0, 1.0])
    groups = [GroupSpec(0, [0, 1]), GroupSpec(1, [2])]
    v, g = flat_group_l2_penalty(w, *flat_groups(groups), [1.0, 2.0], 0.1)
    assert v == pytest.approx(0.1 * (5.0 + 2.0))
    assert g[0] == pytest.approx(0.1 * 3.0 / 5.0)
    assert g[2] == pytest.approx(0.2)


def test_make_groups_filter_count():
    groups = make_groups((4, 3, 5, 5), "filter")
    assert len(groups) == 4
    assert all(g.members.size == 3 * 5 * 5 for g in groups)


def test_make_groups_partition_patterns():
    shape = (3, 2, 2, 2)
    for pattern in ("shape", "row", "column", "channel", "filter",
                    "group_shape", "group_row", "group_column"):
        groups = make_groups(shape, pattern)
        seen = np.concatenate([g.members for g in groups])
        assert sorted(seen.tolist()) == list(range(int(np.prod(shape))))


def test_make_groups_shape_hand_check():
    # 2x2x2x2: shape-wise groups pick one (channel, u, v) cell across filters
    groups = make_groups((2, 2, 2, 2), "shape")
    idx = np.arange(16).reshape(2, 2, 2, 2)
    expected = [np.sort(idx[:, c, u, v].ravel())
                for c in range(2) for u in range(2) for v in range(2)]
    assert len(groups) == 8
    for g, ref in zip(groups, expected):
        assert np.array_equal(g.members, ref)


def test_make_groups_2d_mapping():
    groups_r = make_groups((3, 4), "row")
    groups_c = make_groups((3, 4), "column")
    assert len(groups_r) == 3 and all(g.members.size == 4 for g in groups_r)
    assert len(groups_c) == 4 and all(g.members.size == 3 for g in groups_c)


def test_make_groups_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        make_groups((2, 2), "diagonal")


def index_set_groups(shape, pattern):
    """make_groups by explicit index sets, one slab at a time."""
    shape = tuple(shape)
    n, c, m, k = shape4 = shape + (1, 1) if len(shape) == 2 else shape
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
        return [idx[ni] for ni in range(n)]  # filter

    if pattern == "row_and_column":
        members = slabs("row") + slabs("column")
    elif pattern == "group_row_and_column":
        members = slabs("group_row") + slabs("group_column")
    else:
        members = slabs(pattern)
    return [np.sort(mem.ravel()) for mem in members]


PATTERNS = ["shape", "row", "column", "row_and_column", "channel", "group_shape",
            "group_row", "group_column", "group_row_and_column", "filter"]
SHAPES = [(5, 7), (4, 3, 2, 5)]


@pytest.mark.parametrize("shape", SHAPES, ids=["2d", "4d"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_slab_table_reproduces_the_index_set_groups(shape, pattern):
    groups = make_groups(shape, pattern)
    ref = index_set_groups(shape, pattern)
    assert [g.gid for g in groups] == list(range(len(ref)))
    assert all(g.pattern == pattern for g in groups)
    assert all(g.members.dtype == np.intp for g in groups)
    assert [g.members.tolist() for g in groups] == [mem.tolist() for mem in ref]


@pytest.mark.parametrize("shape", SHAPES, ids=["2d", "4d"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_axis_penalty_matches_the_flat_group_penalty(shape, pattern):
    rng = np.random.default_rng(len(pattern))
    groups = make_groups(shape, pattern)
    w = rng.normal(size=shape)
    for grp in groups[::3]:  # dead slabs: zeroed, as the prune masks them
        w.ravel()[grp.members] = 0.0
    state = updates.HyperState.init(shape, [pattern])
    state.omega = omega = rng.uniform(0.1, 3.0, len(groups))
    ref_value, ref_grad = flat_group_l2_penalty(w.ravel(), *flat_groups(groups), omega, 0.3)
    w4 = w.reshape(state.view)
    # where every slab through an entry is zero, the factor is the decay alone
    dead = np.ones(state.view, bool)
    for axes in updates.slab_axes(shape, pattern):
        dead &= np.sum(w4 * w4, axis=axes, keepdims=True) == 0
    assert dead.any()
    for decay in (0.0, 0.3):
        value, factor = updates.slab_l2_penalty(w, state, updates.slab_penalty_terms(state, 0.3),
                                                decay)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        assert np.broadcast_shapes(np.shape(factor), state.view) == state.view
        np.testing.assert_allclose((w4 * factor).ravel(), ref_grad + decay * w.ravel(),
                                   rtol=1e-12, atol=0.0)
        assert np.all(np.broadcast_to(factor, state.view)[dead] == decay)


def test_slab_axes_rejects_other_ranks():
    with pytest.raises(ValueError, match="2-d or 4-d"):
        updates.slab_axes((2, 3, 4), "row")


def test_sgd_step_plain_when_unpenalized():
    value, vel, grad = np.array([1.0]), np.zeros(1), np.array([0.5])
    engine._momentum_step(value, grad, vel, lr=0.1, momentum=0.9)
    assert value[0] == pytest.approx(0.95)
    assert vel[0] == pytest.approx(-0.05)


def test_sgd_step_decreases_quadratic():
    w, vel = np.array([2.0]), np.zeros(1)
    for _ in range(5):
        engine._momentum_step(w, 2 * w, vel, lr=0.05, momentum=0.0)
    assert w[0] ** 2 < 4.0


def ten_dim_quadratic(seed):
    """(A, b) of criterion 5's convex quadratic at one seed."""
    r = np.random.default_rng(seed)
    q = r.normal(size=(10, 10))
    a = q @ q.T / 10.0 + 5.0 * np.eye(10)
    return a, np.sign(r.normal(size=10)) * r.uniform(0.5, 1.5, 10) * 50.0


def test_cccp_monotone_descent_ten_dims():
    for seed in range(10):
        costs = cccp_quadratic_reference(*ten_dim_quadratic(seed), n_iters=10)
        assert np.all(np.diff(costs) <= 1e-8)


@pytest.mark.parametrize("diagonal, margin", [(True, 1e-12), (False, 1e-4)])
def test_package_chain_descends_on_the_oracle_quadratics(diagonal, margin):
    # the oracle's loop with the package's chain in place of its omega and s
    # rules: group_omega at the curvature diag(A), then group_switch.  On a
    # diagonal A that is the oracle's c; on the full A, whose c the package
    # does not form, the cost still never rises and stays within 1e-4
    # relative of the oracle's (5.9e-5 at worst here)
    for seed in range(10):
        a, b = ten_dim_quadratic(seed)
        if diagonal:
            a = np.diag(np.diag(a))
        ref = cccp_quadratic_reference(a, b, n_iters=10)
        costs = cccp_quadratic_reference(
            a, b, n_iters=10, omega_of=lambda s, a: group_omega(s, np.diag(a), own_total),
            switch_of=lambda w, omega: group_switch(w, omega, own_total))
        assert np.all(np.diff(costs) <= 1e-8)
        assert np.max(np.abs(costs - ref) / np.abs(ref)) < margin


def test_cccp_cost_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        cccp_surrogate_cost(np.ones(2), np.array([1.0, 0.0]), np.eye(2), np.ones(2))


def test_config_defaults_validate():
    SearchConfig().validate()


def test_config_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lambda_w"):
        SearchConfig(lambda_w=-1.0).validate()


def test_config_errors_name_fields():
    with pytest.raises(ValueError, match="t_max"):
        SearchConfig(t_max=-1).validate()
    with pytest.raises(ValueError, match="hessian_mode"):
        SearchConfig(hessian_mode="fancy").validate()


def test_config_hash_stable_and_sensitive():
    a = SearchConfig().config_hash()
    assert a == SearchConfig().config_hash()
    assert a != SearchConfig(seed=1).config_hash()


# ---------------------------------------------------------------------------
# the flat form against per-group reference loops


def _penalty_loop(w, groups, omega, lambda_w):
    value, grad = 0.0, np.zeros_like(w)
    for members, og in zip(groups, omega):
        wg = w[members]
        norm = float(np.linalg.norm(wg))
        value += lambda_w * og * norm
        if norm > 0:
            grad[members] += lambda_w * og * wg / norm
    return value, grad


def _group_update_loop(w, omega_prev, h, floor, cap):
    h = np.maximum(h, 0.0)
    s_g = min(float(np.linalg.norm(w)) / max(omega_prev, floor), cap)
    return s_g, max(float(np.sqrt(np.sum(h / (1.0 + s_g * h)))), floor)


def _structural_update_loop(w, groups, gamma, omega, alive, h, floor, cap):
    gamma, omega, h = gamma.copy(), omega.copy(), np.maximum(h, 0.0)
    for g, members in enumerate(groups):
        if not alive[g]:
            continue
        gamma_g = min(float(np.linalg.norm(w[members])) / max(omega[g], floor), cap)
        hg = h[members]
        gamma[g] = gamma_g
        omega[g] = max(float(np.sqrt(np.sum(np.abs(hg / (1.0 + gamma_g * hg))))), floor)
    return gamma, omega


@st.composite
def grouped_vectors(draw):
    """A vector, overlapping groups over it (some of one member), some groups
    zeroed, and a seeded generator for the rest."""
    n = draw(st.integers(1, 10))
    member_sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    groups = [np.array(m) for m in draw(st.lists(member_sets, min_size=1, max_size=8))]
    flags = st.lists(st.booleans(), min_size=len(groups), max_size=len(groups))
    zeroed = draw(flags)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=n)
    for members, zero in zip(groups, zeroed):
        if zero:
            w[members] = 0.0
    return w, groups, rng


def _close(value, ref):
    """Within 1e-12 relative to the reference's largest magnitude."""
    value, ref = np.asarray(value), np.asarray(ref)
    return np.max(np.abs(value - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(case=grouped_vectors())
def test_flat_penalty_matches_the_group_loop(case):
    w, groups, rng = case
    omega = rng.random(len(groups)) * 3.0
    value, grad = flat_group_l2_penalty(w, *flat_groups([GroupSpec(g, m) for g, m in
                                                         enumerate(groups)]), omega, 0.1)
    ref_value, ref_grad = _penalty_loop(w, groups, omega, 0.1)
    assert _close(value, ref_value)
    assert _close(grad, ref_grad)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(case=grouped_vectors())
def test_flat_group_update_matches_the_group_loop(case):
    _, groups, rng = case
    _, group = flat_groups([GroupSpec(g, m) for g, m in enumerate(groups)])
    w = rng.normal(size=group.size) * (rng.random(group.size) < 0.8)
    omega_prev = 10.0 ** rng.uniform(-2, 2, len(groups))
    hess = 10.0 ** rng.uniform(-3, 3, group.size) * (rng.random(group.size) < 0.8)
    s, omega = group_update(w, omega_prev, hess, group, lambda s: s[group], 1e-8, 1e6)
    for g, members in enumerate(groups):
        at = group == g
        ref_s, ref_omega = _group_update_loop(w[at], omega_prev[g], hess[at], 1e-8, 1e6)
        if members.size == 1:
            assert (s[g], omega[g]) == (ref_s, ref_omega)
        assert _close(s[g], ref_s) and _close(omega[g], ref_omega)


def slab_case(shape, pattern):
    """A slab state of `pattern` over a weight of `shape` with every third
    slab zeroed (as the prune masks them), every fourth group dead, a
    Hessian diagonal with negative entries, and the make_groups members of
    every group.  Group 0 is alive and zeroed."""
    rng = np.random.default_rng([len(shape), len(pattern)])
    members = [grp.members for grp in make_groups(shape, pattern)]
    state = updates.HyperState.init(shape, [pattern])
    w = rng.normal(size=shape)
    for mem in members[::3]:
        w.ravel()[mem] = 0.0
    state.gamma = rng.random(len(members)) * 0.2
    state.omega = 10.0 ** rng.uniform(-10, 1, len(members))
    state.alive = np.arange(len(members)) % 4 != 3
    return w, state, members, rng.normal(size=shape) * 2.0


@pytest.mark.parametrize("shape", SHAPES, ids=["2d", "4d"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_slab_structural_update_matches_the_group_loop(shape, pattern):
    w, state, members, h = slab_case(shape, pattern)
    alive = state.alive
    ref_gamma, ref_omega = _structural_update_loop(w.ravel(), members, state.gamma,
                                                   state.omega, alive, h.ravel(), 1e-8, 1e6)
    before = state.gamma.copy(), state.omega.copy()
    updates.structural_update(w, state, h, 1e-8, 1e6)
    assert _close(state.gamma[alive], ref_gamma[alive])
    assert _close(state.omega[alive], ref_omega[alive])
    assert np.array_equal(state.gamma[~alive], before[0][~alive])
    assert np.array_equal(state.omega[~alive], before[1][~alive])
    # an alive zeroed slab collapses to gamma 0, below the entropy threshold
    zeroed = np.array([not np.any(w.ravel()[mem]) for mem in members]) & alive
    assert np.any(zeroed) and np.all(state.gamma[zeroed] == 0.0)


@pytest.mark.parametrize("shape", SHAPES, ids=["2d", "4d"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_slab_prune_matches_the_index_scatter(shape, pattern):
    w, state, members, _ = slab_case(shape, pattern)
    state.gamma[0] = 0.0  # the zeroed group collapses, as structural_update leaves it
    config = SearchConfig(prune_threshold=0.1)
    mask = (w != 0).astype(np.float64)
    layer = nn.Layer("fc" if len(shape) == 2 else "conv2d", weights=w, mask=mask.copy())
    slots = engine._WeightSlots([layer], {0: [pattern]}, config, "mse")
    slots.states[0] = state
    dead = state.alive & (state.gamma <= config.prune_threshold)
    for g in np.flatnonzero(dead):
        mask.ravel()[members[g]] = 0.0
    if np.any(mask):
        assert slots.prune() == (int(np.count_nonzero(dead)), 0, False)
    else:
        with pytest.raises(RuntimeError, match="layer 0 is fully pruned"):
            slots.prune()
    assert dead[0] and not np.any(state.alive & dead)
    assert layer.mask.shape == shape
    assert layer.mask.tobytes() == mask.tobytes()
    assert np.array_equal(layer.weights, w * mask)
