import re
from dataclasses import replace

import numpy as np
import pytest

from teon.norms import build_max_gain_tensor
from teon.optim import (
    ACCUMULATE,
    ADAMW,
    EMA,
    MATRIX_SINGLE,
    MUON,
    TENSOR_GROUP,
    TEON,
    VECTOR_ADAMW,
    LayoutEntry,
    OptimizerState,
    ParamGroup,
    UpdatePolicy,
    adamw_step,
    apply_group_step,
    build_groups,
    ortho_step,
)
from teon.ortho import OrthoScheme, ortho_exact


def _transformer_layout(blocks, dim=8, mlp=16):
    entries = []
    for b in range(blocks):
        for role in ("Q", "K", "V", "O"):
            entries.append(LayoutEntry(f"b{b}.{role.lower()}", role, (dim, dim), b))
        entries.append(LayoutEntry(f"b{b}.mlp1", "MLP1", (mlp, dim), b))
        entries.append(LayoutEntry(f"b{b}.mlp2", "MLP2", (dim, mlp), b))
    entries.append(LayoutEntry("readout", "OUT", (3, dim), None))
    entries.append(LayoutEntry("readout_bias", "bias", (3,), None))
    return entries


def _lone(w, g, state, policy):
    """One update of a lone (m, n) matrix: the K=1 stack through the engine."""
    return ortho_step(w[:, :, None], g[:, :, None], state, policy, policy.eta)[:, :, 0]


# ------------------------------------------------------------------- policy


def test_policy_validation():
    with pytest.raises(ValueError):
        UpdatePolicy("sgd", 0.1)
    with pytest.raises(ValueError):
        UpdatePolicy(MUON, 0.0)
    with pytest.raises(ValueError):
        UpdatePolicy(TEON, 0.1)  # mode missing
    with pytest.raises(ValueError):
        UpdatePolicy(TEON, 0.1, mode=3)
    with pytest.raises(ValueError):
        UpdatePolicy(MUON, 0.1, mode=1)
    with pytest.raises(ValueError):
        UpdatePolicy(MUON, 0.1, mu=1.0)
    with pytest.raises(ValueError):
        UpdatePolicy(MUON, 0.1, momentum_style="nesterov")
    with pytest.raises(ValueError):
        UpdatePolicy(MUON, 0.1, weight_decay=-0.1)
    with pytest.raises(ValueError):
        UpdatePolicy(ADAMW, 0.1, scheme=OrthoScheme.exact())
    with pytest.raises(ValueError):
        UpdatePolicy(ADAMW, 0.1, adam_betas=(0.9, 1.0))
    with pytest.raises(ValueError):
        UpdatePolicy(ADAMW, 0.1, adam_eps=0.0)


def test_policy_defaults_and_as_muon():
    p = UpdatePolicy.teon(2, 0.05, mu=0.9, weight_decay=0.1)
    assert p.scheme.kind == "exact_svd"
    q = p.as_muon()
    assert q.optimizer == MUON and q.mode is None
    assert (q.eta, q.mu, q.weight_decay) == (0.05, 0.9, 0.1)
    with pytest.raises(ValueError):
        UpdatePolicy.adamw(0.01).as_muon()


def test_param_group_validation():
    teon_p = UpdatePolicy.teon(1, 0.1)
    muon_p = UpdatePolicy.muon(0.1)
    adam_p = UpdatePolicy.adamw(0.1)
    with pytest.raises(ValueError):
        ParamGroup("g", TENSOR_GROUP, ("a", "b"), ((2, 2), (2, 3)), teon_p)
    with pytest.raises(ValueError):
        ParamGroup("g", TENSOR_GROUP, ("a", "b"), ((2, 2), (2, 2)), muon_p)
    with pytest.raises(ValueError):
        ParamGroup("g", MATRIX_SINGLE, ("a", "b"), ((2, 2), (2, 2)), muon_p)
    with pytest.raises(ValueError):
        ParamGroup("g", VECTOR_ADAMW, ("a",), ((2, 2),), adam_p)
    with pytest.raises(ValueError):
        ParamGroup("g", VECTOR_ADAMW, ("a",), ((3,),), muon_p)
    with pytest.raises(ValueError):
        ParamGroup("g", TENSOR_GROUP, ("a", "a"), ((2, 2), (2, 2)), teon_p)
    g = ParamGroup("g", TENSOR_GROUP, ("a", "b"), ((2, 3), (2, 3)), teon_p)
    assert g.depth == 2 and g.slice_shape == (2, 3)


# ------------------------------------------------- ortho_step, lone matrix (K=1)


def test_muon_zero_gradient_zero_momentum_is_noop():
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    state = OptimizerState()
    out = _lone(w, np.zeros((2, 3)), state, UpdatePolicy.muon(0.3, mu=0.9))
    np.testing.assert_array_equal(out, w)
    assert state.t == 1


def test_muon_positive_diagonal_step():
    w = np.zeros((2, 2))
    policy = UpdatePolicy.muon(1.0, mu=0.0)
    out = _lone(w, np.diag([5.0, 3.0]), OptimizerState(), policy)
    np.testing.assert_allclose(out, -np.eye(2), atol=1e-12)


def test_muon_accumulate_two_constant_steps():
    g = np.random.default_rng(0).standard_normal((4, 4))
    policy = UpdatePolicy.muon(0.1, mu=0.95, momentum_style=ACCUMULATE)
    state = OptimizerState()
    w = np.zeros((4, 4))
    w = _lone(w, g, state, policy)
    w = _lone(w, g, state, policy)
    np.testing.assert_allclose(state.momentum[:, :, 0], 1.95 * g, rtol=1e-14)
    # polar factor ignores the momentum magnitude
    step_dir = _lone(np.zeros((4, 4)), g, OptimizerState(), policy)
    np.testing.assert_allclose(w - step_dir, step_dir, atol=1e-10)


@pytest.mark.parametrize("style", [ACCUMULATE, EMA])
def test_momentum_closed_form(style):
    rng = np.random.default_rng(1)
    gs = [rng.standard_normal((3, 2)) for _ in range(5)]
    mu = 0.9
    policy = UpdatePolicy.muon(0.1, mu=mu, momentum_style=style)
    state = OptimizerState()
    w = np.zeros((3, 2))
    for g in gs:
        w = _lone(w, g, state, policy)
    expected = sum(mu ** (4 - s) * gs[s] for s in range(5))
    if style == EMA:
        expected = (1 - mu) * expected
    np.testing.assert_allclose(state.momentum[:, :, 0], expected, rtol=1e-12)
    assert state.t == 5


def test_step_scale_invariance():
    g = np.random.default_rng(2).standard_normal((5, 7))
    w = np.zeros((5, 7))
    exact = UpdatePolicy.muon(0.2, mu=0.0)
    a = _lone(w, g, OptimizerState(), exact)
    b = _lone(w, 3.7 * g, OptimizerState(), exact)
    np.testing.assert_allclose(a, b, atol=1e-10)
    ns = UpdatePolicy.muon(0.2, mu=0.0, scheme=OrthoScheme.newton_schulz(5, preset="jordan"))
    a = _lone(w, g, OptimizerState(), ns)
    # power-of-two scaling survives the Frobenius pre-normalization bit-for-bit
    np.testing.assert_array_equal(a, _lone(w, 8.0 * g, OptimizerState(), ns))
    np.testing.assert_allclose(a, _lone(w, 3.7 * g, OptimizerState(), ns), atol=1e-10)


def test_muon_weight_decay_order():
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 5))
    eta, lam = 0.1, 0.5
    policy = UpdatePolicy.muon(eta, mu=0.0, weight_decay=lam)
    out = _lone(w0, g, OptimizerState(), policy)
    expected = (1 - eta * lam) * w0 - eta * np.sqrt(3 / 5) * ortho_exact(g)
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-14)


def test_muon_rejects_nan_with_step_index():
    policy = UpdatePolicy.muon(0.1)
    state = OptimizerState()
    w = np.zeros((2, 2))
    bad = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(FloatingPointError, match="step 0"):
        _lone(w, bad, state, policy)
    w = _lone(w, np.eye(2), state, policy)
    with pytest.raises(FloatingPointError, match="step 1"):
        _lone(w, bad, state, policy)


def test_muon_shape_errors_and_buffer_stability():
    policy = UpdatePolicy.muon(0.1)
    state = OptimizerState()
    with pytest.raises(ValueError):
        _lone(np.zeros((2, 2)), np.zeros((2, 3)), state, policy)
    _lone(np.zeros((2, 3)), np.ones((2, 3)), state, policy)
    with pytest.raises(ValueError, match="momentum buffer"):
        _lone(np.zeros((3, 2)), np.ones((3, 2)), state, policy)
    with pytest.raises(ValueError):
        _lone(np.zeros((2, 2)), np.zeros((2, 2)), OptimizerState(), UpdatePolicy.adamw(0.1))


# ------------------------------------------------------ ortho_step, stacks (K>=1)


@pytest.mark.parametrize("style", [ACCUMULATE, EMA])
@pytest.mark.parametrize(
    "scheme",
    [OrthoScheme.exact(), OrthoScheme.newton_schulz(5, preset="jordan")],
    ids=["exact", "ns-jordan"],
)
def test_teon_k1_matches_muon_bitwise(style, scheme):
    # the same engine under a muon and a teon mode-1 policy
    rng = np.random.default_rng(4)
    kw = dict(eta=0.07, mu=0.9, momentum_style=style, scheme=scheme, weight_decay=0.01)
    muon_p = UpdatePolicy.muon(**kw)
    teon_p = UpdatePolicy.teon(1, **kw)
    wm = rng.standard_normal((3, 2, 1))
    wt = wm.copy()
    sm, st = OptimizerState(), OptimizerState()
    for _ in range(20):
        g = rng.standard_normal((3, 2, 1))
        wm = ortho_step(wm, g, sm, muon_p, muon_p.eta)
        wt = ortho_step(wt, g, st, teon_p, teon_p.eta)
        np.testing.assert_array_equal(wt, wm)


def test_teon_aligned_rank_one_family_exact_when_full_row_rank():
    # shared right vector, K orthonormal left vectors, K == m: the mode-1
    # unfolding has full row rank, so the exact polar reproduces it and every
    # update slice is -eta sqrt(m/n) u^(k) v^T
    m, n, K = 4, 6, 4
    gs = build_max_gain_tensor(m, n, K, mode=2, seed=5)
    eta = 0.5
    policy = UpdatePolicy.teon(1, eta, mu=0.0)
    out = ortho_step(np.zeros((m, n, K)), gs, OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(out, -eta * np.sqrt(m / n) * gs, atol=1e-10)


def test_teon_aligned_rank_one_family_ns_when_rank_deficient():
    # with K < m the unfolding has a null space; Newton-Schulz converges to
    # the partial isometry (the family itself) instead of an arbitrary
    # completion, so the slice identity still holds under NS
    m, n, K = 6, 5, 3
    gs = build_max_gain_tensor(m, n, K, mode=2, seed=6)
    eta = 0.5
    scheme = OrthoScheme.newton_schulz(30, preset="cubic")
    policy = UpdatePolicy.teon(1, eta, mu=0.0, scheme=scheme)
    out = ortho_step(np.zeros((m, n, K)), gs, OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(out, -eta * np.sqrt(m / n) * gs, atol=1e-6)


def test_teon_shared_left_family_scales_by_sqrt_k():
    # shared-left stacks unfold to a rank-1 matrix with norm sqrt(K); its
    # normalized form is already a partial isometry, so each update slice is
    # the gradient slice shrunk by sqrt(K)
    m, n, K = 5, 6, 4
    gs = build_max_gain_tensor(m, n, K, mode=1, seed=7)
    eta = 0.25
    scheme = OrthoScheme.newton_schulz(5, preset="cubic")
    policy = UpdatePolicy.teon(1, eta, mu=0.0, scheme=scheme)
    out = ortho_step(np.zeros((m, n, K)), gs, OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(out, -eta * np.sqrt(m / n) * gs / np.sqrt(K), atol=1e-12)


def test_teon_identical_slices_symmetry():
    a = np.random.default_rng(8).standard_normal((3, 3))
    gs = np.stack([a, a, a], axis=2)
    policy = UpdatePolicy.teon(1, 1.0, mu=0.0)
    out = ortho_step(np.zeros((3, 3, 3)), gs, OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(out[:, :, 0], out[:, :, 1], atol=1e-12)
    np.testing.assert_allclose(out[:, :, 0], out[:, :, 2], atol=1e-12)
    # [A A A] has full row rank; its polar blocks are polar(A)/sqrt(3)
    np.testing.assert_allclose(out[:, :, 0], -ortho_exact(a) / np.sqrt(3), atol=1e-10)


def test_teon_errors():
    policy = UpdatePolicy.teon(1, 0.1)
    muon_p = UpdatePolicy.muon(0.1)
    with pytest.raises(ValueError):
        ortho_step(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), OptimizerState(), policy, policy.eta)
    with pytest.raises(ValueError):
        ortho_step(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), OptimizerState(), muon_p, 0.1)
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="step 0"):
        ortho_step(np.zeros((2, 2, 2)), bad, OptimizerState(), policy, policy.eta)


def test_ortho_step_rejects_adamw_and_muon_beyond_depth_one():
    w1, w2 = np.zeros((2, 3, 1)), np.zeros((2, 3, 2))
    with pytest.raises(ValueError, match="muon or teon policy"):
        ortho_step(w1, np.ones((2, 3, 1)), OptimizerState(), UpdatePolicy.adamw(0.1), 0.1)
    with pytest.raises(ValueError, match="K=1"):
        ortho_step(w2, np.ones((2, 3, 2)), OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    # the depth-1 stack takes either policy, and deeper stacks take teon
    ortho_step(w1, np.ones((2, 3, 1)), OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    ortho_step(w1, np.ones((2, 3, 1)), OptimizerState(), UpdatePolicy.teon(2, 0.1), 0.1)
    ortho_step(w2, np.ones((2, 3, 2)), OptimizerState(), UpdatePolicy.teon(2, 0.1), 0.1)


# --------------------------------------------------------------- adamw_step


def test_adamw_zero_gradient_is_noop():
    w = np.linspace(-1, 1, 5)
    state = OptimizerState()
    out = adamw_step(w, np.zeros(5), state, UpdatePolicy.adamw(0.1), 0.1)
    np.testing.assert_array_equal(out, w)
    assert state.t == 1


def test_adamw_first_step_magnitude():
    policy = UpdatePolicy.adamw(0.01)
    out = adamw_step(np.zeros(3), np.full(3, 3.0), OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(out, -0.01 * 3.0 / (3.0 + 1e-8), rtol=1e-12)
    assert np.all(np.abs(out) <= 0.01)


def test_adamw_matches_scalar_recursion():
    eta, (b1, b2), eps, lam = 0.05, (0.9, 0.999), 1e-8, 0.1
    policy = UpdatePolicy.adamw(eta, adam_betas=(b1, b2), adam_eps=eps, weight_decay=lam)
    gs = [0.4, -1.3, 2.2]
    w = np.array([0.7])
    state = OptimizerState()
    ref, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        w = adamw_step(w, np.array([g]), state, policy, policy.eta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = (1 - eta * lam) * ref
        ref -= eta * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert w[0] == pytest.approx(ref, abs=1e-12)
    assert state.t == 3


def test_adamw_errors():
    policy = UpdatePolicy.adamw(0.1)
    state = OptimizerState()
    with pytest.raises(ValueError):
        adamw_step(np.zeros(3), np.zeros(4), state, policy, policy.eta)
    adamw_step(np.zeros(3), np.ones(3), state, policy, policy.eta)
    with pytest.raises(ValueError, match="moment buffer"):
        adamw_step(np.zeros(4), np.ones(4), state, policy, policy.eta)
    with pytest.raises(ValueError):
        adamw_step(np.zeros(3), np.zeros(3), OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    with pytest.raises(FloatingPointError, match="step 0"):
        adamw_step(np.zeros(3), np.array([1.0, np.nan, 0.0]), OptimizerState(), policy, policy.eta)


# ------------------------------------------------------------- build_groups


def _by_kind(groups):
    out = {TENSOR_GROUP: [], MATRIX_SINGLE: [], VECTOR_ADAMW: []}
    for g in groups:
        out[g.kind].append(g)
    return out


def test_build_groups_twelve_blocks_k2_qkv():
    layout = _transformer_layout(12)
    groups = build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.02))
    kinds = _by_kind(groups)
    assert len(kinds[TENSOR_GROUP]) == 18
    assert all(g.depth == 2 for g in kinds[TENSOR_GROUP])
    # O, MLP1, MLP2 per block plus the readout stay per-matrix
    assert len(kinds[MATRIX_SINGLE]) == 12 * 3 + 1
    assert all(g.policy.optimizer == MUON for g in kinds[MATRIX_SINGLE])
    assert len(kinds[VECTOR_ADAMW]) == 1
    covered = [m for g in groups for m in g.members]
    assert sorted(covered) == sorted(e.name for e in layout)
    assert len(covered) == len(set(covered))


def test_build_groups_k12_full_depth():
    groups = build_groups(
        _transformer_layout(12), 12, {"QKV"}, policy=UpdatePolicy.teon(1, 0.02)
    )
    tg = _by_kind(groups)[TENSOR_GROUP]
    assert len(tg) == 3
    assert all(g.depth == 12 for g in tg)
    assert tg[0].id == "q.blocks0-11"
    assert tg[0].members == tuple(f"b{b}.q" for b in range(12))


def test_build_groups_remainder_depth_one():
    groups = build_groups(
        _transformer_layout(5), 2, {"QKV"}, policy=UpdatePolicy.teon(2, 0.02)
    )
    tg = _by_kind(groups)[TENSOR_GROUP]
    assert len(tg) == 9
    depths = sorted(g.depth for g in tg)
    assert depths == [1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert any(g.id == "q.blocks4-4" for g in tg)


def test_build_groups_muon_and_adamw_policies():
    layout = _transformer_layout(3)
    groups = build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.muon(0.02))
    kinds = _by_kind(groups)
    assert not kinds[TENSOR_GROUP]
    assert len(kinds[MATRIX_SINGLE]) == 3 * 6 + 1
    adamw = UpdatePolicy.adamw(0.004)
    groups = build_groups(layout, 2, {"QKV"}, policy=adamw)
    kinds = _by_kind(groups)
    assert not kinds[TENSOR_GROUP]
    assert all(g.policy.optimizer == ADAMW for g in groups)


def test_build_groups_generic_w_role():
    layout = [LayoutEntry(f"layer{i}", "W", (4, 4), i) for i in range(4)]
    groups = build_groups(layout, 2, {"W"}, policy=UpdatePolicy.teon(1, 0.1))
    assert [g.id for g in groups] == ["w.blocks0-1", "w.blocks2-3"]


def test_build_groups_errors():
    layout = _transformer_layout(2)
    teon_p = UpdatePolicy.teon(1, 0.1)
    with pytest.raises(ValueError, match="empty"):
        build_groups([], 2, {"QKV"}, policy=teon_p)
    with pytest.raises(ValueError, match="stack_set"):
        build_groups(layout, 2, {"ATTN"}, policy=teon_p)
    with pytest.raises(ValueError):
        build_groups(layout, 0, {"QKV"}, policy=teon_p)
    with pytest.raises(ValueError, match="unique"):
        build_groups(layout + [layout[0]], 2, {"QKV"}, policy=teon_p)
    ragged = [
        LayoutEntry("a", "Q", (4, 4), 0),
        LayoutEntry("b", "Q", (4, 5), 1),
    ]
    with pytest.raises(ValueError, match="share one shape"):
        build_groups(ragged, 2, {"QKV"}, policy=teon_p)
    with pytest.raises(ValueError, match="adamw_policy"):
        build_groups(layout, 2, {"QKV"}, policy=teon_p, adamw_policy=UpdatePolicy.muon(0.1))


def test_apply_group_step_matches_direct_calls():
    rng = np.random.default_rng(9)
    layout = [
        LayoutEntry("l0", "W", (3, 3), 0),
        LayoutEntry("l1", "W", (3, 3), 1),
        LayoutEntry("head", "OUT", (2, 3), None),
        LayoutEntry("bias", "bias", (2,), None),
    ]
    groups = build_groups(layout, 2, {"W"}, policy=UpdatePolicy.teon(1, 0.1, mu=0.5))
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    grads = {e.name: rng.standard_normal(e.shape) for e in layout}
    ref = {k: v.copy() for k, v in weights.items()}
    states = {g.id: OptimizerState() for g in groups}
    for g in groups:
        apply_group_step(weights, grads, g, states[g.id])

    stack = np.stack([ref["l0"], ref["l1"]], axis=2)
    gstack = np.stack([grads["l0"], grads["l1"]], axis=2)
    new = ortho_step(stack, gstack, OptimizerState(), groups[0].policy, groups[0].policy.eta)
    np.testing.assert_array_equal(weights["l0"], new[:, :, 0])
    np.testing.assert_array_equal(weights["l1"], new[:, :, 1])
    head_group = [g for g in groups if g.id == "head"][0]
    np.testing.assert_array_equal(
        weights["head"],
        _lone(ref["head"], grads["head"], OptimizerState(), head_group.policy),
    )
    bias_group = [g for g in groups if g.id == "bias"][0]
    np.testing.assert_array_equal(
        weights["bias"],
        adamw_step(
            ref["bias"], grads["bias"], OptimizerState(), bias_group.policy, bias_group.policy.eta
        ),
    )


def test_apply_group_step_lr_factor_equals_a_policy_with_the_stepped_eta():
    rng = np.random.default_rng(10)
    layout = [
        LayoutEntry("l0", "W", (3, 4), 0),
        LayoutEntry("l1", "W", (3, 4), 1),
        LayoutEntry("head", "OUT", (2, 3), None),
        LayoutEntry("bias", "bias", (2,), None),
    ]
    policy = UpdatePolicy.teon(1, 0.1, mu=0.5, weight_decay=0.05)
    groups = build_groups(layout, 2, {"W"}, policy=policy)
    assert sorted(g.kind for g in groups) == [MATRIX_SINGLE, TENSOR_GROUP, VECTOR_ADAMW]
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    ref = dict(weights)
    states = {g.id: OptimizerState() for g in groups}
    ref_states = {g.id: OptimizerState() for g in groups}
    for factor in (0.3, 0.77, 1.0, 0.1):
        grads = {e.name: rng.standard_normal(e.shape) for e in layout}
        for g in groups:
            apply_group_step(weights, grads, g, states[g.id], lr_factor=factor)
            stepped = replace(g.policy, eta=g.policy.eta * factor)
            ref_group = ParamGroup(g.id, g.kind, g.members, g.shapes, stepped)
            apply_group_step(ref, grads, ref_group, ref_states[g.id])
        for nm in weights:
            np.testing.assert_array_equal(weights[nm], ref[nm])


@pytest.mark.parametrize("planted", ["b1.k", "b0.o"])
def test_apply_group_step_names_group_and_step_of_a_nan_gradient(planted):
    # b1.k sits in a stacked teon group, b0.o is a lone muon matrix
    layout = _transformer_layout(2)
    groups = build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))
    rng = np.random.default_rng(11)
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    grads = {e.name: rng.standard_normal(e.shape) for e in layout}
    states = {g.id: OptimizerState() for g in groups}
    for g in groups:
        apply_group_step(weights, grads, g, states[g.id])
    grads[planted][0, 0] = np.nan
    group = next(g for g in groups if planted in g.members)
    healthy = next(g for g in groups if g.kind == group.kind and g is not group)
    apply_group_step(weights, grads, healthy, states[healthy.id])
    pattern = rf"group '{re.escape(group.id)}' at optimizer step 1: non-finite gradient"
    with pytest.raises(FloatingPointError, match=pattern):
        apply_group_step(weights, grads, group, states[group.id])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_apply_group_step_names_group_of_a_diverging_newton_schulz_run():
    scheme = OrthoScheme.newton_schulz(12, schedule=[(3.0, 400.0, -402.5)])
    layout = [LayoutEntry("l0", "W", (6, 6), 0), LayoutEntry("l1", "W", (6, 6), 1)]
    (group,) = build_groups(layout, 2, {"W"}, policy=UpdatePolicy.teon(1, 0.1, scheme=scheme))
    rng = np.random.default_rng(8)
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    grads = {e.name: rng.standard_normal(e.shape) for e in layout}
    pattern = r"group 'w\.blocks0-1' at optimizer step 0: Newton-Schulz"
    with pytest.raises(FloatingPointError, match=pattern):
        apply_group_step(weights, grads, group, OptimizerState())
