"""Variance-chain algebra, grouping patterns, penalties, solver config."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardnet import updates
from ardnet.updates import (ENTROPY_PRUNE_THRESHOLD, GroupSpec, SearchConfig,
                            flat_groups, group_l2_penalty, group_update,
                            make_groups, sgd_momentum_step, update_omega,
                            update_posterior_variance, update_switch)


def reweighted_l1_penalty(w, omega, lambda_w):
    """The reweighted l1: group_l2_penalty with one-member groups."""
    members = np.arange(len(w))
    return group_l2_penalty(w, members, members, omega, lambda_w)


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


def test_omega_hand_value_and_floor():
    assert update_omega(1.0, 0.5) == pytest.approx(math.sqrt(0.5))
    assert update_omega(1.0, 1.0, floor=1e-8) == 1e-8


def test_omega_identity_sweep():
    rng = np.random.default_rng(1)
    gamma = 10.0 ** rng.uniform(-3, 3, 2000)
    hess = 10.0 ** rng.uniform(-3, 3, 2000)
    c = update_posterior_variance(gamma, hess)
    omega = update_omega(gamma, c, floor=0.0)
    assert np.max(np.abs(omega**2 * gamma**2 + c - gamma)) < 1e-10


def test_switch_hand_values_and_cap():
    assert update_switch(0.0, 1.0) == 0.0
    assert update_switch(0.7071, 0.7071) == pytest.approx(1.0)
    assert update_switch(5.0, 1e-9, cap=1e6) == 1e6


def test_switch_monotone():
    omega = 0.3
    s = update_switch(np.linspace(0, 5, 50), omega)
    assert np.all(np.diff(s) > 0)
    w = 1.0
    s = update_switch(w, np.linspace(0.1, 5, 50))
    assert np.all(np.diff(s) < 0)


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


def test_group_update_singleton_reduces_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal()
        gamma = float(10.0 ** rng.uniform(-3, 3))
        hess = float(10.0 ** rng.uniform(-3, 3))
        c = float(update_posterior_variance(gamma, hess))
        s_g, o_g = group_update(np.array([w]), np.array([gamma]), np.array([c]), [0])
        omega = update_omega(gamma, c)
        assert o_g[0] == float(omega)
        assert s_g[0] == float(update_switch(w, omega))


def test_group_update_identical_members():
    # k identical members: s_g = |w| sqrt(k) / (sqrt(k) omega_i) = |w| / omega_i
    w, gamma, hess = 0.8, 2.0, 1.5
    c = float(update_posterior_variance(gamma, hess))
    k = 4
    s_g, _ = group_update(np.full(k, w), np.full(k, gamma), np.full(k, c), np.zeros(k, int))
    omega_i = float(update_omega(gamma, c))
    assert s_g[0] == pytest.approx(abs(w) / omega_i, rel=1e-12)


def test_group_update_rejects_empty():
    with pytest.raises(ValueError):
        GroupSpec(0, [])


def test_group_l2_penalty_and_gradient():
    w = np.array([3.0, 4.0, 1.0])
    groups = [GroupSpec(0, [0, 1]), GroupSpec(1, [2])]
    v, g = group_l2_penalty(w, *flat_groups(groups), [1.0, 2.0], 0.1)
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
    omega = rng.uniform(0.1, 3.0, len(groups))
    value, grad = updates.slab_l2_penalty(w, updates.slab_axes(shape, pattern), omega, 0.3)
    ref_value, ref_grad = group_l2_penalty(w.ravel(), *flat_groups(groups), omega, 0.3)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    assert grad.shape == shape
    np.testing.assert_allclose(grad.ravel(), ref_grad, rtol=1e-12, atol=0.0)


def test_slab_axes_rejects_other_ranks():
    with pytest.raises(ValueError, match="2-d or 4-d"):
        updates.slab_axes((2, 3, 4), "row")


def test_structural_update_zero_group_collapses():
    w = np.zeros((2, 3))
    w[0] = [1.0, 1.0, 1.0]
    state = updates.HyperState.init(make_groups(w.shape, "row"))
    h = np.ones(6)
    updates.structural_update(w, state, h)
    assert state.gamma[1] <= ENTROPY_PRUNE_THRESHOLD  # all-zero row dies
    assert state.gamma[0] > ENTROPY_PRUNE_THRESHOLD


def test_sgd_step_plain_when_unpenalized():
    v, vel = sgd_momentum_step(1.0, 0.5, 0.0, lr=0.1, momentum=0.9)
    assert v == pytest.approx(0.95)
    assert vel == pytest.approx(-0.05)


def test_sgd_step_decreases_quadratic():
    w = 2.0
    vel = 0.0
    for _ in range(5):
        w, vel = sgd_momentum_step(w, 2 * w, vel, lr=0.05, momentum=0.0)
    assert w**2 < 4.0


def test_cccp_monotone_descent_ten_dims():
    rng = np.random.default_rng(0)
    for seed in range(10):
        r = np.random.default_rng(seed)
        q = r.normal(size=(10, 10))
        a = q @ q.T / 10.0 + 5.0 * np.eye(10)
        b = np.sign(r.normal(size=10)) * r.uniform(0.5, 1.5, 10) * 50.0
        costs = updates.cccp_quadratic_reference(a, b, n_iters=10)
        assert np.all(np.diff(costs) <= 1e-8)


def test_cccp_cost_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        updates.cccp_surrogate_cost(np.ones(2), np.array([1.0, 0.0]),
                                    np.eye(2), np.ones(2))


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


def _group_update_loop(w, gamma_prev, c, floor, cap):
    if w.size == 1:
        omega = update_omega(gamma_prev, c, floor)
        return float(update_switch(w, omega, cap)[0]), float(omega[0])
    omega_sq = np.maximum(gamma_prev - c, 0.0) / gamma_prev**2
    omega_g = max(float(np.sqrt(np.sum(omega_sq))), floor)
    return min(float(np.linalg.norm(w)) / omega_g, cap), omega_g


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
    zeroed, an alive flag per group and a seeded generator for the rest."""
    n = draw(st.integers(1, 10))
    member_sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    groups = [np.array(m) for m in draw(st.lists(member_sets, min_size=1, max_size=8))]
    flags = st.lists(st.booleans(), min_size=len(groups), max_size=len(groups))
    zeroed, alive = draw(flags), np.array(draw(flags))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=n)
    for members, zero in zip(groups, zeroed):
        if zero:
            w[members] = 0.0
    return w, groups, alive, rng


def _close(value, ref):
    """Within 1e-12 relative to the reference's largest magnitude."""
    value, ref = np.asarray(value), np.asarray(ref)
    return np.max(np.abs(value - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(case=grouped_vectors())
def test_flat_penalty_matches_the_group_loop(case):
    w, groups, _, rng = case
    omega = rng.random(len(groups)) * 3.0
    value, grad = group_l2_penalty(w, *flat_groups([GroupSpec(g, m) for g, m in
                                                    enumerate(groups)]), omega, 0.1)
    ref_value, ref_grad = _penalty_loop(w, groups, omega, 0.1)
    assert _close(value, ref_value)
    assert _close(grad, ref_grad)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(case=grouped_vectors())
def test_flat_group_update_matches_the_group_loop(case):
    _, groups, _, rng = case
    _, group = flat_groups([GroupSpec(g, m) for g, m in enumerate(groups)])
    w = rng.normal(size=group.size) * (rng.random(group.size) < 0.8)
    gamma = 10.0 ** rng.uniform(-2, 2, group.size)
    c = update_posterior_variance(gamma, 10.0 ** rng.uniform(-3, 3, group.size)
                                  * (rng.random(group.size) < 0.8))
    s, omega = group_update(w, gamma, c, group, 1e-8, 1e6)
    for g, members in enumerate(groups):
        at = group == g
        ref_s, ref_omega = _group_update_loop(w[at], gamma[at], c[at], 1e-8, 1e6)
        if members.size == 1:
            assert (s[g], omega[g]) == (ref_s, ref_omega)
        assert _close(s[g], ref_s) and _close(omega[g], ref_omega)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(case=grouped_vectors())
def test_flat_structural_update_matches_the_group_loop(case):
    w, groups, alive, rng = case
    state = updates.HyperState.init([GroupSpec(g, m) for g, m in enumerate(groups)])
    state.gamma = rng.random(len(groups)) * 2.0
    state.omega = 10.0 ** rng.uniform(-10, 1, len(groups))
    state.alive = alive
    h = rng.normal(size=w.size) * 2.0
    ref_gamma, ref_omega = _structural_update_loop(w, groups, state.gamma, state.omega,
                                                   alive, h, 1e-8, 1e6)
    before = state.gamma.copy(), state.omega.copy()
    updates.structural_update(w, state, h, 1e-8, 1e6)
    assert _close(state.gamma[alive], ref_gamma[alive])
    assert _close(state.omega[alive], ref_omega[alive])
    assert np.array_equal(state.gamma[~alive], before[0][~alive])
    assert np.array_equal(state.omega[~alive], before[1][~alive])
