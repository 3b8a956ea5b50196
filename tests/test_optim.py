import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import mode2_polar_reference, update_classes
from teon.norms import build_max_gain_tensor
from teon.optim import (
    ACCUMULATE,
    ADAMW,
    EMA,
    MATRIX_SINGLE,
    MUON,
    STACK_TOKENS,
    TENSOR_GROUP,
    TEON,
    VECTOR_ADAMW,
    LayoutEntry,
    OptimizerState,
    ParamGroup,
    UpdateClass,
    UpdatePolicy,
    adamw_step,
    apply_group_step,
    build_groups,
    expand_stack_set,
    member_views,
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


def _one(group):
    """A lone group: a class of one."""
    return UpdateClass((group,))


def _random_stacks(layout, classes, seed):
    """Per-class weight and gradient arenas of standard normal entries."""
    rng = np.random.default_rng(seed)
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    grads = {e.name: rng.standard_normal(e.shape) for e in layout}
    return {c.id: c.stack(weights) for c in classes}, {c.id: c.stack(grads) for c in classes}


def _lone(w, g, policy, states=None):
    """One update of a lone (m, n) matrix: the (1, 1, m, n) arena through
    `apply_group_step`, from `states["w"]` (a fresh state when `states` is None)."""
    params = {"w": w[None, None].copy()}
    group = _one(ParamGroup("w", ("w",), (w.shape,), policy))
    states = {"w": OptimizerState()} if states is None else states
    apply_group_step(params, {"w": g[None, None]}, group, states)
    return params["w"][0, 0]


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


@pytest.mark.parametrize(
    "shapes,policy,kind",
    [
        (((2, 3),), UpdatePolicy.teon(1, 0.1), TENSOR_GROUP),
        (((2, 3), (2, 3)), UpdatePolicy.teon(2, 0.1), TENSOR_GROUP),
        (((2, 3),), UpdatePolicy.muon(0.1), MATRIX_SINGLE),
        (((2, 3),), UpdatePolicy.adamw(0.1), MATRIX_SINGLE),
        (((3,),), UpdatePolicy.adamw(0.1), VECTOR_ADAMW),
    ],
)
def test_param_group_kind_follows_policy_and_shapes(shapes, policy, kind):
    members = tuple(f"p{i}" for i in range(len(shapes)))
    assert ParamGroup("g", members, shapes, policy).kind == kind


def test_param_group_validation():
    teon_p = UpdatePolicy.teon(1, 0.1)
    muon_p = UpdatePolicy.muon(0.1)
    with pytest.raises(ValueError, match="hold one parameter"):
        ParamGroup("g", ("a", "b"), ((2, 2), (2, 2)), muon_p)
    with pytest.raises(ValueError, match="share one"):
        ParamGroup("g", ("a",), ((3,),), teon_p)
    with pytest.raises(ValueError, match="share one"):
        ParamGroup("g", ("a", "b"), ((2, 2), (2, 3)), teon_p)
    with pytest.raises(ValueError, match="vectors use adamw"):
        ParamGroup("g", ("a",), ((3,),), muon_p)
    with pytest.raises(ValueError, match="only 1-D and 2-D shapes"):
        ParamGroup("g", ("a",), ((2, 2, 2),), muon_p)
    with pytest.raises(ValueError, match="repeats a member"):
        ParamGroup("g", ("a", "a"), ((2, 2), (2, 2)), teon_p)
    g = ParamGroup("g", ("a", "b"), ((2, 3), (2, 3)), teon_p)
    assert g.depth == 2 and g.shapes[0] == (2, 3)


# ------------------------------------------------- ortho_step, lone matrix (K=1)


def test_muon_zero_gradient_zero_momentum_is_noop():
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    states = {"w": OptimizerState()}
    out = _lone(w, np.zeros((2, 3)), UpdatePolicy.muon(0.3, mu=0.9), states)
    np.testing.assert_array_equal(out, w)
    assert states["w"].t == 1


def test_muon_positive_diagonal_step():
    w = np.zeros((2, 2))
    policy = UpdatePolicy.muon(1.0, mu=0.0)
    out = _lone(w, np.diag([5.0, 3.0]), policy)
    np.testing.assert_allclose(out, -np.eye(2), atol=1e-12)


def test_muon_accumulate_two_constant_steps():
    g = np.random.default_rng(0).standard_normal((4, 4))
    policy = UpdatePolicy.muon(0.1, mu=0.95, momentum_style=ACCUMULATE)
    states = {"w": OptimizerState()}
    w = np.zeros((4, 4))
    w = _lone(w, g, policy, states)
    w = _lone(w, g, policy, states)
    np.testing.assert_allclose(states["w"].momentum[0, 0], 1.95 * g, rtol=1e-14)
    # polar factor ignores the momentum magnitude
    step_dir = _lone(np.zeros((4, 4)), g, policy)
    np.testing.assert_allclose(w - step_dir, step_dir, atol=1e-10)


@pytest.mark.parametrize("style", [ACCUMULATE, EMA])
def test_momentum_closed_form(style):
    rng = np.random.default_rng(1)
    gs = [rng.standard_normal((3, 2)) for _ in range(5)]
    mu = 0.9
    policy = UpdatePolicy.muon(0.1, mu=mu, momentum_style=style)
    states = {"w": OptimizerState()}
    w = np.zeros((3, 2))
    for g in gs:
        w = _lone(w, g, policy, states)
    expected = sum(mu ** (4 - s) * gs[s] for s in range(5))
    if style == EMA:
        expected = (1 - mu) * expected
    np.testing.assert_allclose(states["w"].momentum[0, 0], expected, rtol=1e-12)
    assert states["w"].t == 5


def test_step_scale_invariance():
    g = np.random.default_rng(2).standard_normal((5, 7))
    w = np.zeros((5, 7))
    exact = UpdatePolicy.muon(0.2, mu=0.0)
    a = _lone(w, g, exact)
    b = _lone(w, 3.7 * g, exact)
    np.testing.assert_allclose(a, b, atol=1e-10)
    ns = UpdatePolicy.muon(0.2, mu=0.0, scheme=OrthoScheme.newton_schulz(5, preset="jordan"))
    a = _lone(w, g, ns)
    # power-of-two scaling survives the Frobenius pre-normalization bit-for-bit
    np.testing.assert_array_equal(a, _lone(w, 8.0 * g, ns))
    np.testing.assert_allclose(a, _lone(w, 3.7 * g, ns), atol=1e-10)


def test_muon_weight_decay_order():
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 5))
    eta, lam = 0.1, 0.5
    policy = UpdatePolicy.muon(eta, mu=0.0, weight_decay=lam)
    out = _lone(w0, g, policy)
    expected = (1 - eta * lam) * w0 - eta * np.sqrt(3 / 5) * ortho_exact(g)
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-14)


def test_muon_rejects_nan_with_step_index():
    policy = UpdatePolicy.muon(0.1)
    states = {"w": OptimizerState()}
    w = np.zeros((2, 2))
    bad = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(FloatingPointError, match="step 0"):
        _lone(w, bad, policy, states)
    w = _lone(w, np.eye(2), policy, states)
    with pytest.raises(FloatingPointError, match="step 1"):
        _lone(w, bad, policy, states)


def test_muon_shape_errors_and_buffer_stability():
    policy = UpdatePolicy.muon(0.1)
    states = {"w": OptimizerState()}
    with pytest.raises(ValueError):
        _lone(np.zeros((2, 2)), np.zeros((2, 3)), policy, states)
    _lone(np.zeros((2, 3)), np.ones((2, 3)), policy, states)
    with pytest.raises(ValueError, match="momentum buffer"):
        _lone(np.zeros((3, 2)), np.ones((3, 2)), policy, states)
    with pytest.raises(ValueError, match="muon or teon policy"):
        ortho_step(np.zeros((1, 1, 2, 2)), OptimizerState(), UpdatePolicy.adamw(0.1), 0.1)


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
    muon_g = _one(ParamGroup("w", ("w",), ((3, 2),), UpdatePolicy.muon(**kw)))
    teon_g = _one(ParamGroup("w", ("w",), ((3, 2),), UpdatePolicy.teon(1, **kw)))
    pm = {"w": rng.standard_normal((1, 1, 3, 2))}
    pt = {"w": pm["w"].copy()}
    sm, st = {"w": OptimizerState()}, {"w": OptimizerState()}
    for _ in range(20):
        g = {"w": rng.standard_normal((1, 1, 3, 2))}
        apply_group_step(pm, g, muon_g, sm)
        apply_group_step(pt, g, teon_g, st)
        assert pt["w"].tobytes() == pm["w"].tobytes()
        assert st["w"].momentum.tobytes() == sm["w"].momentum.tobytes()


def test_teon_aligned_rank_one_family_exact_when_full_row_rank():
    # shared right vector, K orthonormal left vectors, K == m: the mode-1
    # unfolding has full row rank, so the exact polar reproduces it and every
    # update slice is -eta sqrt(m/n) u^(k) v^T
    m, n, K = 4, 6, 4
    gs = build_max_gain_tensor(m, n, K, mode=2, seed=5)
    eta = 0.5
    policy = UpdatePolicy.teon(1, eta, mu=0.0)
    step, _ = ortho_step(gs[None], OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(step[0], eta * np.sqrt(m / n) * gs, atol=1e-10)


def test_teon_aligned_rank_one_family_ns_when_rank_deficient():
    # with K < m the unfolding has a null space; Newton-Schulz converges to
    # the partial isometry (the family itself) instead of an arbitrary
    # completion, so the slice identity still holds under NS
    m, n, K = 6, 5, 3
    gs = build_max_gain_tensor(m, n, K, mode=2, seed=6)
    eta = 0.5
    scheme = OrthoScheme.newton_schulz(30, preset="cubic")
    policy = UpdatePolicy.teon(1, eta, mu=0.0, scheme=scheme)
    step, _ = ortho_step(gs[None], OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(step[0], eta * np.sqrt(m / n) * gs, atol=1e-6)


def test_teon_shared_left_family_scales_by_sqrt_k():
    # shared-left stacks unfold to a rank-1 matrix with norm sqrt(K); its
    # normalized form is already a partial isometry, so each update slice is
    # the gradient slice shrunk by sqrt(K)
    m, n, K = 5, 6, 4
    gs = build_max_gain_tensor(m, n, K, mode=1, seed=7)
    eta = 0.25
    scheme = OrthoScheme.newton_schulz(5, preset="cubic")
    policy = UpdatePolicy.teon(1, eta, mu=0.0, scheme=scheme)
    step, _ = ortho_step(gs[None], OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(step[0], eta * np.sqrt(m / n) * gs / np.sqrt(K), atol=1e-12)


def test_teon_identical_slices_symmetry():
    a = np.random.default_rng(8).standard_normal((3, 3))
    gs = np.stack([a, a, a])[None]
    policy = UpdatePolicy.teon(1, 1.0, mu=0.0)
    (step,), _ = ortho_step(gs, OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(step[0], step[1], atol=1e-12)
    np.testing.assert_allclose(step[0], step[2], atol=1e-12)
    # [A A A] has full row rank; its polar blocks are polar(A)/sqrt(3)
    np.testing.assert_allclose(step[0], ortho_exact(a) / np.sqrt(3), atol=1e-10)


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 6, 3), (4, 3, 3)])
def test_teon_mode2_step_is_the_literal_mode2_polar_update(shape):
    k, m, n = shape
    rng = np.random.default_rng(12)
    g0, g1 = rng.standard_normal((2, 1, k, m, n))
    eta, mu = 0.07, 0.9
    policy = UpdatePolicy.teon(2, eta, mu=mu)
    _, state = ortho_step(g0, OptimizerState(), policy, eta)
    step, state = ortho_step(g1, state, policy, eta)
    buf = mu * g0 + g1
    np.testing.assert_allclose(state.momentum, buf, rtol=0, atol=1e-12)
    ref = eta * np.sqrt(m / n) * mode2_polar_reference(buf[0])
    np.testing.assert_allclose(step[0], ref, rtol=0, atol=1e-12)


def test_teon_mode1_and_mode2_steps_differ_on_a_generic_stack():
    gs = np.random.default_rng(13).standard_normal((1, 2, 3, 4))
    one, two = (
        ortho_step(gs, OptimizerState(), UpdatePolicy.teon(mode, 0.1), 0.1)[0] for mode in (1, 2)
    )
    assert np.abs(one - two).max() > 1e-3


def test_teon_errors():
    policy = UpdatePolicy.teon(1, 0.1)
    muon_p = UpdatePolicy.muon(0.1)
    group = _one(ParamGroup("g", ("a", "b"), ((2, 2), (2, 2)), policy))
    params, grads = {"g": np.zeros((1, 2, 2, 2))}, {"g": np.zeros((1, 3, 2, 2))}
    with pytest.raises(ValueError):
        apply_group_step(params, grads, group, {"g": OptimizerState()})
    with pytest.raises(ValueError):
        ortho_step(np.zeros((1, 2, 2, 2)), OptimizerState(), muon_p, 0.1)
    # the arena states its groups: a (K, m, n) stack or a flat (G*K, m, n) one is refused
    for ndim in (2, 3, 5):
        with pytest.raises(ValueError, match=f"ndim={ndim}"):
            ortho_step(np.ones((2,) * ndim), OptimizerState(), policy, policy.eta)
    with pytest.raises(TypeError):
        ortho_step(np.ones((2, 2, 2, 2)), OptimizerState(), policy, policy.eta, 2)


def test_ortho_step_rejects_adamw_and_muon_beyond_depth_one():
    g1, g2 = np.ones((1, 1, 2, 3)), np.ones((1, 2, 2, 3))
    with pytest.raises(ValueError, match="muon or teon policy"):
        ortho_step(g1, OptimizerState(), UpdatePolicy.adamw(0.1), 0.1)
    with pytest.raises(ValueError, match="K=1"):
        ortho_step(g2, OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    # the depth-1 stack takes either policy, and deeper stacks take teon
    ortho_step(g1, OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    two_lone = g2.reshape(2, 1, 2, 3)
    ortho_step(two_lone, OptimizerState(), UpdatePolicy.muon(0.1), 0.1)
    ortho_step(g1, OptimizerState(), UpdatePolicy.teon(2, 0.1), 0.1)
    ortho_step(g2, OptimizerState(), UpdatePolicy.teon(2, 0.1), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rules_reject_a_non_finite_gradient_at_step_0(bad):
    # apply_group_step checks the gradient once, for either rule
    g = np.ones((1, 1, 2, 3))
    g[0, 0, 1, 0] = bad
    for policy in (UpdatePolicy.teon(1, 0.1), UpdatePolicy.adamw(0.1)):
        group = _one(ParamGroup("g", ("a",), ((2, 3),), policy))
        params, states = {"g": np.zeros((1, 1, 2, 3))}, {"g": OptimizerState()}
        pattern = "group 'g' at optimizer step 0: non-finite gradient rejected at step 0"
        with pytest.raises(FloatingPointError, match=pattern):
            apply_group_step(params, {"g": g}, group, states)
        assert states["g"] == OptimizerState() and not params["g"].any()


def test_rules_are_pure_and_the_state_is_frozen():
    g = np.random.default_rng(15).standard_normal((1, 1, 2, 3))
    rules = ((ortho_step, UpdatePolicy.teon(1, 0.1)), (adamw_step, UpdatePolicy.adamw(0.1)))
    for rule, policy in rules:
        _, state = rule(g, OptimizerState(), policy, policy.eta)
        buffers = [b.tobytes() for b in state[1:] if b is not None]
        _, new = rule(g, state, policy, policy.eta)
        assert state.t == 1 and new.t == 2
        assert [b.tobytes() for b in state[1:] if b is not None] == buffers
        with pytest.raises(AttributeError):
            state.t = 0
        with pytest.raises(AttributeError):
            state.momentum = None


# --------------------------------------------------------------- adamw_step


def test_adamw_zero_gradient_is_noop():
    step, state = adamw_step(np.zeros(5), OptimizerState(), UpdatePolicy.adamw(0.1), 0.1)
    np.testing.assert_array_equal(step, np.zeros(5))
    assert state.t == 1


def test_adamw_first_step_magnitude():
    policy = UpdatePolicy.adamw(0.01)
    step, _ = adamw_step(np.full(3, 3.0), OptimizerState(), policy, policy.eta)
    np.testing.assert_allclose(step, 0.01 * 3.0 / (3.0 + 1e-8), rtol=1e-12)
    assert np.all(np.abs(step) <= 0.01)


def test_adamw_matches_scalar_recursion():
    # through apply_group_step, where the decay lives
    eta, (b1, b2), eps, lam = 0.05, (0.9, 0.999), 1e-8, 0.1
    policy = UpdatePolicy.adamw(eta, adam_betas=(b1, b2), adam_eps=eps, weight_decay=lam)
    group = _one(ParamGroup("w", ("w",), ((1,),), policy))
    params = {"w": np.array([[0.7]])}
    states = {"w": OptimizerState()}
    ref, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate([0.4, -1.3, 2.2], start=1):
        apply_group_step(params, {"w": np.array([[g]])}, group, states)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = (1 - eta * lam) * ref
        ref -= eta * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert params["w"][0, 0] == pytest.approx(ref, abs=1e-12)
    assert states["w"].t == 3


def test_adamw_errors():
    policy = UpdatePolicy.adamw(0.1)
    group = _one(ParamGroup("w", ("w",), ((3,),), policy))
    states = {"w": OptimizerState()}
    with pytest.raises(ValueError):
        apply_group_step({"w": np.zeros((1, 3))}, {"w": np.zeros((1, 4))}, group, states)
    _, state = adamw_step(np.ones(3), OptimizerState(), policy, policy.eta)
    with pytest.raises(ValueError, match="moment buffer"):
        adamw_step(np.ones(4), state, policy, policy.eta)
    with pytest.raises(ValueError):
        adamw_step(np.zeros(3), OptimizerState(), UpdatePolicy.muon(0.1), 0.1)


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
    with pytest.raises(ValueError, match="stack_set repeats token 'QKV'"):
        build_groups(layout, 2, ["QKV", "O", "QKV"], policy=teon_p)
    with pytest.raises(ValueError):
        build_groups(layout, 0, {"QKV"}, policy=teon_p)
    with pytest.raises(ValueError, match="unique"):
        build_groups(layout + [layout[0]], 2, {"QKV"}, policy=teon_p)
    ragged = [
        LayoutEntry("a", "Q", (4, 4), 0),
        LayoutEntry("b", "Q", (4, 5), 1),
    ]
    with pytest.raises(ValueError, match=r"share one \(m, n\) shape"):
        build_groups(ragged, 2, {"QKV"}, policy=teon_p)
    with pytest.raises(ValueError, match="adamw_policy"):
        build_groups(layout, 2, {"QKV"}, policy=teon_p, adamw_policy=UpdatePolicy.muon(0.1))


def _groups_or_unmatched_token_error(layout, k, stack_set, policy):
    """`build_groups`' result, or None once it is checked that a teon policy
    with a token that covers no blocked role of `layout` raises, naming it."""
    roles = {e.role for e in layout if e.block is not None}
    unmatched = [
        t for t, covered in STACK_TOKENS.items() if t in stack_set and not roles & set(covered)
    ]
    if policy.optimizer == TEON and unmatched:
        with pytest.raises(ValueError, match=f"stack_set token '{unmatched[0]}' covers no"):
            build_groups(layout, k, stack_set, policy=policy)
        return None
    return build_groups(layout, k, stack_set, policy=policy)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(1, 6),
    k=st.integers(1, 4),
    stack_set=st.lists(st.sampled_from(sorted(STACK_TOKENS)), unique=True),
    optimizer=st.sampled_from([TEON, MUON, ADAMW]),
)
def test_build_groups_puts_every_entry_in_exactly_one_group(blocks, k, stack_set, optimizer):
    layout = _transformer_layout(blocks)
    policy = UpdatePolicy.teon(1, 0.1) if optimizer == TEON else UpdatePolicy(optimizer, 0.1)
    groups = _groups_or_unmatched_token_error(layout, k, stack_set, policy)
    if groups is None:
        return
    covered = sorted(m for g in groups for m in g.members)
    assert covered == sorted(e.name for e in layout)
    assert len({g.id for g in groups}) == len(groups)
    assert all(g.depth <= k for g in groups)


def test_expand_stack_set_orders_roles_as_stack_tokens_whatever_the_token_order():
    canonical = expand_stack_set(("QKV", "O"))
    assert canonical == ("Q", "K", "V", "O")
    assert expand_stack_set(("O", "QKV")) == canonical
    assert expand_stack_set({"O", "QKV"}) == canonical
    assert expand_stack_set(iter(["W", "MLP2", "QKV"])) == ("Q", "K", "V", "MLP2", "W")
    assert expand_stack_set(()) == ()
    with pytest.raises(ValueError, match="unknown stack_set token 'X'"):
        expand_stack_set(("O", "X"))
    with pytest.raises(ValueError, match="stack_set repeats token 'O'"):
        expand_stack_set(["O", "QKV", "O"])


def test_build_groups_order_does_not_follow_the_stack_set_order():
    layout = _transformer_layout(3)
    policy = UpdatePolicy.teon(1, 0.1)
    orders = (("QKV", "O"), ("O", "QKV"), {"O", "QKV"})
    ids = [[g.id for g in build_groups(layout, 2, order, policy=policy)] for order in orders]
    assert ids[0] == ids[1] == ids[2]
    assert ids[0][:2] == ["q.blocks0-1", "q.blocks2-2"]


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(1, 6),
    k=st.integers(1, 4),
    stack_set=st.lists(st.sampled_from(sorted(STACK_TOKENS)), unique=True),
    optimizer=st.sampled_from([TEON, MUON, ADAMW]),
)
def test_member_views_are_slices_of_the_group_stacks(blocks, k, stack_set, optimizer):
    layout = _transformer_layout(blocks)
    policy = UpdatePolicy.teon(1, 0.1) if optimizer == TEON else UpdatePolicy(optimizer, 0.1)
    groups = _groups_or_unmatched_token_error(layout, k, stack_set, policy)
    if groups is None:
        return
    classes = update_classes(groups)
    params, _ = _random_stacks(layout, classes, blocks * 10 + k)
    views = member_views(params, classes)
    assert sorted(views) == sorted(e.name for e in layout)
    assert sum(g.depth for g in groups) == len(views)
    for c in classes:
        arena = params[c.id]
        # the (G, K) + slice shape stack of the class's groups
        k = c.groups[0].depth
        assert arena.shape == (len(c.groups), k) + c.groups[0].shapes[0]
        assert c.members == tuple(nm for g in c.groups for nm in g.members)
        # slice-major arenas: a task's BLAS calls get each view without a copy
        assert all(views[nm].flags.c_contiguous for nm in c.members)
        assert c.stack(views).tobytes() == arena.tobytes()
        # group i is arena[i], its stack in member order
        for i, g in enumerate(c.groups):
            assert g.depth == k
            assert all(np.shares_memory(views[nm], arena[i]) for nm in g.members)
            assert np.stack([views[nm] for nm in g.members]).tobytes() == arena[i].tobytes()
    assert sorted(g.id for c in classes for g in c.groups) == sorted(g.id for g in groups)


def test_member_views_skip_missing_and_none_stacks():
    layout = _transformer_layout(1)
    groups = build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))
    classes = [_one(g) for g in groups]
    params, _ = _random_stacks(layout, classes, 3)
    del params["q.blocks0-0"]
    params["b0.o"] = None  # a lone matrix's group id is its name
    views = member_views(params, classes)
    assert sorted(views) == sorted(e.name for e in layout if e.name not in ("b0.q", "b0.o"))


def test_apply_group_step_matches_direct_calls():
    rng = np.random.default_rng(9)
    layout = [
        LayoutEntry("l0", "W", (3, 3), 0),
        LayoutEntry("l1", "W", (3, 3), 1),
        LayoutEntry("head", "OUT", (2, 3), None),
        LayoutEntry("bias", "bias", (2,), None),
    ]
    groups = build_groups(layout, 2, {"W"}, policy=UpdatePolicy.teon(1, 0.1, mu=0.5))
    classes = [_one(g) for g in groups]
    ref = {e.name: rng.standard_normal(e.shape) for e in layout}
    grads = {e.name: rng.standard_normal(e.shape) for e in layout}
    params = {c.id: c.stack(ref) for c in classes}
    gstacks = {c.id: c.stack(grads) for c in classes}
    weights = member_views(params, classes)
    states = {c.id: OptimizerState() for c in classes}
    for c in classes:
        apply_group_step(params, gstacks, c, states)

    # no decay here, so each new stack is the old one minus the rule's step
    stack = np.stack([ref["l0"], ref["l1"]])
    gstack = np.stack([grads["l0"], grads["l1"]])[None]
    (step,), _ = ortho_step(gstack, OptimizerState(), groups[0].policy, groups[0].policy.eta)
    new = stack - step
    np.testing.assert_array_equal(weights["l0"], new[0])
    np.testing.assert_array_equal(weights["l1"], new[1])
    head_pol = next(g for g in groups if g.id == "head").policy
    head_step, _ = ortho_step(grads["head"][None, None], OptimizerState(), head_pol, head_pol.eta)
    np.testing.assert_array_equal(weights["head"], ref["head"] - head_step[0, 0])
    bias_policy = next(g for g in groups if g.id == "bias").policy
    bias_step, _ = adamw_step(grads["bias"], OptimizerState(), bias_policy, bias_policy.eta)
    np.testing.assert_array_equal(weights["bias"], ref["bias"] - bias_step)


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
    classes = [_one(g) for g in groups]
    weights = {e.name: rng.standard_normal(e.shape) for e in layout}
    params = {c.id: c.stack(weights) for c in classes}
    ref = {c.id: c.stack(weights) for c in classes}
    states = {c.id: OptimizerState() for c in classes}
    ref_states = {c.id: OptimizerState() for c in classes}
    for factor in (0.3, 0.77, 1.0, 0.1):
        drawn = {e.name: rng.standard_normal(e.shape) for e in layout}
        grads = {c.id: c.stack(drawn) for c in classes}
        for g in groups:
            apply_group_step(params, grads, _one(g), states, lr_factor=factor)
            stepped = replace(g.policy, eta=g.policy.eta * factor)
            ref_group = _one(ParamGroup(g.id, g.members, g.shapes, stepped))
            apply_group_step(ref, grads, ref_group, ref_states)
        for gid in params:
            np.testing.assert_array_equal(params[gid], ref[gid])


@pytest.mark.parametrize("planted", ["b1.k", "b0.o"])
def test_apply_group_step_names_group_and_step_of_a_nan_gradient(planted):
    # b1.k sits in a stacked teon group, b0.o is a lone muon matrix; each
    # shares its update class with groups that hold no NaN
    layout = _transformer_layout(2)
    groups = build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))
    classes = update_classes(groups)
    params, grads = _random_stacks(layout, classes, 11)
    states = {c.id: OptimizerState() for c in classes}
    for c in classes:
        apply_group_step(params, grads, c, states)
    member_views(grads, classes)[planted][0, 0] = np.nan
    cls = next(c for c in classes if planted in c.members)
    group = next(g for g in cls.groups if planted in g.members)
    assert len(cls.groups) > 1
    for c in classes:
        if c is not cls:
            apply_group_step(params, grads, c, states)
    pattern = rf"group '{re.escape(group.id)}' at optimizer step 1: non-finite gradient"
    with pytest.raises(FloatingPointError, match=pattern) as err:
        apply_group_step(params, grads, cls, states)
    assert err.value.group == group.id


def _diverging_newton_schulz_group():
    # the schedule diverges on any nonzero momentum; a zero gradient keeps it zero
    scheme = OrthoScheme(OrthoScheme.NEWTON_SCHULZ, schedule=((3.0, 400.0, -402.5),) * 12, steps=12)
    layout = [LayoutEntry("l0", "W", (6, 6), 0), LayoutEntry("l1", "W", (6, 6), 1)]
    (group,) = build_groups(layout, 2, {"W"}, policy=UpdatePolicy.teon(1, 0.1, scheme=scheme))
    group = _one(group)
    params, grads = _random_stacks(layout, [group], 8)
    zero = {group.id: np.zeros_like(grads[group.id])}
    return group, params, (grads, 1.0), (zero, 1.0), "Newton-Schulz diverged"


def _diverging_newton_schulz_step():
    group, params, (grads, _), _, _ = _diverging_newton_schulz_group()
    before = params[group.id].copy()
    pattern = r"group 'w\.blocks0-1' at optimizer step 0: Newton-Schulz diverged at step \d+: "
    with pytest.raises(FloatingPointError, match=pattern):
        apply_group_step(params, grads, group, {group.id: OptimizerState()})
    assert params[group.id].tobytes() == before.tobytes()


def test_apply_group_step_names_group_of_a_diverging_newton_schulz_run():
    _diverging_newton_schulz_step()


def test_diverging_newton_schulz_is_named_when_warnings_are_errors():
    # NumPy raises the overflow itself, so a warning filter cannot preempt the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _diverging_newton_schulz_step()


def _planted_inf(planted):
    # b1.k sits in a stacked teon group, b0.o is a lone muon matrix, readout_bias a vector
    layout = _transformer_layout(2)
    classes = [_one(g) for g in build_groups(layout, 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))]
    params, grads = _random_stacks(layout, classes, 12)
    bad = {gid: stack.copy() for gid, stack in grads.items()}
    member_views(bad, classes)[planted][0] = np.inf
    group = next(c for c in classes if planted in c.members)
    return group, params, (bad, 1.0), (grads, 1.0), "non-finite gradient rejected"


def _adamw_square_overflow():
    # (1 - b2) * g * g overflows after the first moment is already computed
    group = _one(ParamGroup("v", ("v",), ((4,),), UpdatePolicy.adamw(0.1)))
    rng = np.random.default_rng(14)
    params, good = {"v": rng.standard_normal((1, 1, 4))}, {"v": rng.standard_normal((1, 1, 4))}
    bad = {"v": np.full((1, 1, 4), 1e200)}
    return group, params, (bad, 1.0), (good, 1.0), "overflow encountered in multiply"


def _subtraction_overflow():
    # eta = 1e308: the rule's step is finite, W - step is not
    group = _one(ParamGroup("w", ("w",), ((2, 3),), UpdatePolicy.adamw(1.0)))
    params, grads = {"w": np.full((1, 1, 2, 3), -1e308)}, {"w": np.ones((1, 1, 2, 3))}
    return group, params, (grads, 1e308), (grads, 1.0), "overflow encountered in subtract"


def _momentum_overflow():
    # exact scheme, no Newton-Schulz errstate: the second momentum add mu * M + G overflows
    group = _one(ParamGroup("w", ("w",), ((2, 2),), UpdatePolicy.muon(0.1)))
    params = {"w": np.random.default_rng(15).standard_normal((1, 1, 2, 2))}
    good, bad = ({"w": np.full((1, 1, 2, 2), v)} for v in (4e307, 1.5e308))
    return group, params, (bad, 1.0), (good, 1.0), "overflow encountered in add"


FAILING_STEPS = {
    "b1.k": lambda: _planted_inf("b1.k"),
    "b0.o": lambda: _planted_inf("b0.o"),
    "readout_bias": lambda: _planted_inf("readout_bias"),
    "newton_schulz_divergence": _diverging_newton_schulz_group,
    "adamw_square_overflow": _adamw_square_overflow,
    "subtraction_overflow": _subtraction_overflow,
    "momentum_overflow": _momentum_overflow,
}


def _fingerprint(stack, state):
    """The bytes of a stack and of every state field (None stays None)."""
    return stack.tobytes(), state.t, *(None if b is None else b.tobytes() for b in state[1:])


@pytest.mark.parametrize("case", list(FAILING_STEPS))
def test_a_raising_group_step_leaves_the_stack_unchanged(case):
    # ... and the state, so a retry counts only the retried gradient; the step
    # raises under its own errstate, with no caller errstate or warning filter
    group, params, (bad, bad_lr), (good, good_lr), message = FAILING_STEPS[case]()
    ref = {group.id: params[group.id].copy()}
    states, ref_states = {group.id: OptimizerState()}, {group.id: OptimizerState()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        apply_group_step(params, good, group, states, good_lr)  # the state now holds buffers
        before = _fingerprint(params[group.id], states[group.id])
        pattern = rf"group '{re.escape(group.id)}' at optimizer step (\d+): .*{message}"
        with pytest.raises(FloatingPointError, match=pattern) as err:
            apply_group_step(params, bad, group, states, bad_lr)
        assert _fingerprint(params[group.id], states[group.id]) == before
        assert int(re.search(pattern, str(err.value))[1]) == states[group.id].t == 1
        apply_group_step(params, good, group, states, good_lr)
        for _ in range(2):
            apply_group_step(ref, good, group, ref_states, good_lr)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    after = _fingerprint(params[group.id], states[group.id])
    assert after == _fingerprint(ref[group.id], ref_states[group.id])


@pytest.mark.parametrize(
    "w_shape,g_shape",
    [((1, 2, 2, 3), (1, 1, 2, 3)), ((1, 1, 2, 2), (1, 1, 2, 3))],
    ids=["broadcastable", "mismatched"],
)
def test_apply_group_step_rejects_a_gradient_of_another_shape(w_shape, g_shape):
    # a (1, 1, m, n) step would broadcast silently over a (1, 2, m, n) stack
    _, k, m, n = w_shape
    policy = UpdatePolicy.teon(1, 0.1, weight_decay=0.1)
    group = _one(ParamGroup("g", tuple(f"p{i}" for i in range(k)), ((m, n),) * k, policy))
    params = {"g": np.random.default_rng(13).standard_normal(w_shape)}
    before = params["g"].copy()
    states = {"g": OptimizerState()}
    with pytest.raises(ValueError, match=r"group 'g': gradient shape") as err:
        apply_group_step(params, {"g": np.ones(g_shape)}, group, states)
    assert err.value.group == "g"
    assert params["g"].tobytes() == before.tobytes()
    assert states["g"] == OptimizerState()


# ----------------------------------------------------------- update classes


def test_update_class_needs_one_policy_and_one_slice_shape():
    teon_p = UpdatePolicy.teon(1, 0.1)
    a = ParamGroup("a", ("a0", "a1"), ((2, 3),) * 2, teon_p)
    b = ParamGroup("b", ("b0", "b1"), ((2, 3),) * 2, teon_p)
    cls = UpdateClass((a, b))
    assert (cls.id, cls.policy, cls.kind) == ("a", teon_p, TENSOR_GROUP)
    assert cls.members == ("a0", "a1", "b0", "b1")
    arena = cls.stack({nm: np.full((2, 3), float(i)) for i, nm in enumerate(cls.members)})
    assert arena.shape == (2, 2, 2, 3) and arena[1, 0, 0, 0] == 2.0
    with pytest.raises(ValueError, match="at least one group"):
        UpdateClass(())
    message = "group 'c' does not share the policy, slice shape and depth of 'a'"
    with pytest.raises(ValueError, match=message):
        UpdateClass((a, ParamGroup("c", ("c0", "c1"), ((3, 2),) * 2, teon_p)))
    with pytest.raises(ValueError, match=message):
        UpdateClass((a, ParamGroup("c", ("c0", "c1"), ((2, 3),) * 2, UpdatePolicy.teon(2, 0.1))))
    # a depth-2 stack and its depth-1 remainder are two classes
    with pytest.raises(ValueError, match=message):
        UpdateClass((a, ParamGroup("c", ("c0",), ((2, 3),), teon_p)))
    with pytest.raises(ValueError, match="group 'a' does not share .* of 'c'$"):
        UpdateClass((ParamGroup("c", ("c0",), ((2, 3),), teon_p), a))


CLASS_POLICIES = {
    "teon1_ns": UpdatePolicy.teon(1, 0.1, scheme=OrthoScheme.newton_schulz(5, preset="jordan")),
    "teon2_ema_decay": UpdatePolicy.teon(2, 0.1, mu=0.9, momentum_style=EMA, weight_decay=0.05),
    "muon_ns": UpdatePolicy.muon(0.1, scheme=OrthoScheme.newton_schulz(5, preset="jordan")),
    "muon_exact_decay": UpdatePolicy.muon(0.1, weight_decay=0.05),
    "adamw_decay": UpdatePolicy.adamw(0.01, weight_decay=0.1),
}


@pytest.mark.parametrize("name", list(CLASS_POLICIES))
def test_a_class_step_writes_the_bytes_of_its_groups_stepped_alone(name):
    # five blocks at K=2 give a class of six depth-2 Q/K/V stacks and one of
    # the three depth-1 remainders; lone matrices are classes of depth 1
    policy = CLASS_POLICIES[name]
    layout = _transformer_layout(5)
    groups = [
        g for g in build_groups(layout, 2, {"QKV"}, policy=policy) if g.policy == policy
    ]
    shape = groups[0].shapes[0]
    depths = sorted({g.depth for g in groups if g.shapes[0] == shape})
    assert depths == ([1, 2] if policy.mode else [1])
    rng = np.random.default_rng(16)
    for k in depths:
        cls = UpdateClass(tuple(g for g in groups if g.shapes[0] == shape and g.depth == k))
        assert len(cls.groups) >= 3
        alone = [_one(g) for g in cls.groups]
        weights = {nm: rng.standard_normal(shape) for nm in cls.members}
        params, ref = {cls.id: cls.stack(weights)}, {c.id: c.stack(weights) for c in alone}
        states, ref_states = {cls.id: OptimizerState()}, {c.id: OptimizerState() for c in alone}
        for factor in (1.0, 0.5, 0.25):
            drawn = {nm: rng.standard_normal(shape) for nm in cls.members}
            apply_group_step(params, {cls.id: cls.stack(drawn)}, cls, states, factor)
            for c in alone:
                apply_group_step(ref, {c.id: c.stack(drawn)}, c, ref_states, factor)
        views, ref_views = member_views(params, [cls]), member_views(ref, alone)
        assert all(views[nm].tobytes() == ref_views[nm].tobytes() for nm in cls.members)
        for i, c in enumerate(alone):
            got, want = states[cls.id], ref_states[c.id]
            assert got.t == want.t == 3
            for buf, ref_buf in zip(got[1:], want[1:]):
                assert (buf is None) == (ref_buf is None)
                assert buf is None or buf[i : i + 1].tobytes() == ref_buf.tobytes()


def test_update_classes_keep_remainder_depths_and_policies_apart():
    # every role stacked, 3 blocks at K=2: the depth-2 stacks of one slice
    # shape share a class, and their depth-1 remainders form their own
    layout, stack_set = _transformer_layout(3), ("QKV", "O", "MLP1", "MLP2")
    classes = update_classes(build_groups(layout, 2, stack_set, policy=UpdatePolicy.teon(2, 0.1)))
    ids = [[g.id for g in c.groups] for c in classes]
    assert ids == [
        [f"{r}.blocks0-1" for r in ("q", "k", "v", "o")],
        [f"{r}.blocks2-2" for r in ("q", "k", "v", "o")],
        ["mlp1.blocks0-1"],
        ["mlp1.blocks2-2"],
        ["mlp2.blocks0-1"],
        ["mlp2.blocks2-2"],
        ["readout"],
        ["readout_bias"],
    ]
    arenas, _ = _random_stacks(layout, classes, 0)
    assert [arenas[c.id].shape[1] for c in classes] == [2, 1, 2, 1, 2, 1, 1, 1]
    # QKV stacked: the TEON stacks and the lone Muon O matrices of the same
    # shape never share a class
    groups = build_groups(_transformer_layout(2), 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))
    by_id = {g.id: c for c in update_classes(groups) for g in c.groups}
    assert by_id["q.blocks0-1"] is by_id["k.blocks0-1"] is by_id["v.blocks0-1"]
    assert by_id["b0.o"] is by_id["b1.o"] is not by_id["q.blocks0-1"]
    assert by_id["b0.o"].policy.optimizer == MUON and by_id["q.blocks0-1"].policy.optimizer == TEON


def test_a_big_group_stays_a_class_of_one():
    groups = build_groups(_transformer_layout(3), 2, {"QKV"}, policy=UpdatePolicy.teon(1, 0.1))
    # the depth-2 mode-1 unfoldings (8 x 16) reach the threshold, depth 1 (8 x 8) does not
    ids = [[g.id for g in c.groups] for c in update_classes(groups, 8 * 8 * 16)]
    assert ids[:4] == [
        ["q.blocks0-1"],
        ["q.blocks2-2", "k.blocks2-2", "v.blocks2-2"],
        ["k.blocks0-1"],
        ["v.blocks0-1"],
    ]
    ids = [[g.id for g in c.groups] for c in update_classes(groups, 8 * 8 * 16 + 1)]
    assert ids[:2] == [
        ["q.blocks0-1", "k.blocks0-1", "v.blocks0-1"],
        ["q.blocks2-2", "k.blocks2-2", "v.blocks2-2"],
    ]


def _two_lone_matrices(policy, shape=(6, 6)):
    groups = tuple(ParamGroup(nm, (nm,), (shape,), policy) for nm in ("a", "b"))
    return UpdateClass(groups)


def test_a_failing_class_commits_nothing_and_names_the_failing_group():
    # the schedule diverges on any nonzero momentum; a zero gradient keeps it
    # zero, while the decay would still move group a's weights
    scheme = OrthoScheme(OrthoScheme.NEWTON_SCHULZ, schedule=((3.0, 400.0, -402.5),) * 12, steps=12)
    cls = _two_lone_matrices(UpdatePolicy.muon(0.1, weight_decay=0.1, scheme=scheme))
    params = {"a": np.random.default_rng(17).standard_normal((2, 1, 6, 6))}
    states = {"a": OptimizerState()}
    apply_group_step(params, {"a": np.zeros((2, 1, 6, 6))}, cls, states)  # momentum is held now
    grads = np.zeros((2, 1, 6, 6))
    grads[1, 0] = np.random.default_rng(18).standard_normal((6, 6))
    before = _fingerprint(params["a"], states["a"])
    pattern = r"^group 'b' at optimizer step 1: Newton-Schulz diverged at step \d+: "
    with pytest.raises(FloatingPointError, match=pattern) as err:
        apply_group_step(params, {"a": grads}, cls, states)
    assert err.value.group == "b"
    assert _fingerprint(params["a"], states["a"]) == before


@pytest.mark.parametrize("first", ["overflow", "nan"])
def test_a_failing_class_raises_the_error_its_first_failing_group_raises_alone(first):
    # eta = 1e308: the overflowing group's step is finite, W - step is not; the
    # other group's gradient holds a NaN, which the class sees first
    cls = _two_lone_matrices(UpdatePolicy.adamw(1.0), shape=(2, 3))
    w = np.zeros((2, 1, 2, 3))
    g = np.ones((2, 1, 2, 3))
    over, nan = (0, 1) if first == "overflow" else (1, 0)
    w[over] = -1e308
    g[nan, 0, 0, 0] = np.nan
    params, states = {"a": w.copy()}, {"a": OptimizerState()}
    message = {
        "overflow": "group 'a' at optimizer step 0: overflow encountered in subtract",
        "nan": "group 'a' at optimizer step 0: non-finite gradient rejected at step 0",
    }[first]
    with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$") as err:
        apply_group_step(params, {"a": g}, cls, states, 1e308)
    assert err.value.group == "a"
    assert params["a"].tobytes() == w.tobytes() and states["a"] == OptimizerState()
