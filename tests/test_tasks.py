import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import teon.tasks
from oracles import full_evaluation_fd_error, per_parameter_fd_errors, traced_peak
from teon.norms import build_max_gain_tensor
from teon.tasks import (
    TASK_NAMES,
    AlignedQuadraticTask,
    DeepLinearTask,
    MicroAttentionTask,
    QuadraticTask,
    finite_difference_check,
    make_task,
)

ALL_SMALL_TASKS = [
    ("quadratic", dict(m=5, n=4, K=3)),
    ("aligned_quadratic", dict(m=6, n=5, K=4)),
    ("deep_linear", dict(depth=3, width=6, batch=8)),
    ("micro_attention", dict(dim=6, seq=4, batch=2, blocks=2)),
]


@pytest.mark.parametrize("name,params", ALL_SMALL_TASKS)
def test_all_tasks_pass_finite_differences(name, params):
    task = make_task(name, seed=11, **params)
    weights = task.init_weights(np.random.default_rng(12))
    assert finite_difference_check(task, weights, directions=20, seed=13) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(TASK_NAMES),
    seed=st.integers(0, 2**31 - 1),
    a=st.integers(1, 6),
    b=st.integers(1, 6),
    c=st.integers(1, 4),
)
def test_loss_is_the_loss_of_loss_and_grads_bitwise(name, seed, a, b, c):
    params = {
        "quadratic": dict(m=a, n=b, K=c),
        "aligned_quadratic": dict(m=max(a, c), n=b, K=c),
        "deep_linear": dict(depth=c, width=a, batch=b),
        "micro_attention": dict(dim=a, seq=b, batch=c, blocks=2),
    }[name]
    task = make_task(name, seed, **params)
    rng = np.random.default_rng(seed)
    weights = {e.name: rng.standard_normal(e.shape) for e in task.layout}
    loss = task.loss(weights)
    assert type(loss) is float
    assert loss == task.loss_and_grads(weights)[0]


def test_every_task_class_defines_its_own_loss_and_grads():
    # The benchmark's tracer wraps each class's own `loss_and_grads`.
    for name in TASK_NAMES:
        cls = teon.tasks.TASKS[name]
        assert cls.name == name and "loss_and_grads" in vars(cls), name


@pytest.mark.parametrize(
    "name,params",
    ALL_SMALL_TASKS
    + [
        ("micro_attention", dict(dim=8, seq=3, batch=2, blocks=2)),
        ("micro_attention", dict(dim=64, seq=16, batch=8, blocks=6)),
    ],
)
def test_finite_difference_check_equals_the_full_evaluation_reference(name, params):
    task = make_task(name, seed=2, **params)
    weights = task.init_weights(np.random.default_rng(3))
    err = finite_difference_check(task, weights, directions=3, seed=4)
    assert err == full_evaluation_fd_error(task, weights, directions=3, seed=4)


def test_micro_attention_construction_holds_one_perturbed_weight_copy():
    # The gate holds the weights, the gradient, one direction, one perturbed
    # copy and one forward-only pass's activations: 5.0x the parameter bytes
    # here. The bound leaves room for half a whole-model copy more, not for a
    # second perturbed copy or the per-block caches of a backward pass (6.5x).
    params = dict(dim=64, seq=16, batch=8, blocks=4)
    task = MicroAttentionTask(seed=0, **params)
    param_bytes = sum(8 * int(np.prod(e.shape)) for e in task.layout)
    peak = traced_peak(lambda: MicroAttentionTask(seed=0, **params))
    assert peak <= 5.5 * param_bytes, peak / param_bytes


def test_micro_attention_passes_hold_only_the_caches_they_read():
    # `loss` keeps no per-block caches (0.84x the parameter bytes here; 2.3x
    # with them), and the backward pass drops each block's caches once it has
    # read them (3.2x; 4.0x when all stay alive to the end)
    task = MicroAttentionTask(dim=64, seq=16, batch=8, blocks=4, seed=0)
    weights = task.init_weights(np.random.default_rng(1))
    param_bytes = sum(w.nbytes for w in weights.values())
    assert traced_peak(lambda: task.loss(weights)) <= 1.2 * param_bytes
    assert traced_peak(lambda: task.loss_and_grads(weights)) <= 3.6 * param_bytes


def test_micro_attention_fd_gate_rejects_a_nan_gradient():
    class NanGrad(MicroAttentionTask):
        def loss_and_grads(self, weights):
            loss, grads = super().loss_and_grads(weights)
            grads["b0.q"] = grads["b0.q"].copy()
            grads["b0.q"][0, 0] = np.nan
            return loss, grads

    with pytest.raises(RuntimeError, match="max relative error inf"):
        NanGrad(dim=4, seq=2, batch=2, blocks=2, seed=0)


def test_micro_attention_fd_gate_probes_three_directions():
    # one analytic gradient, then four forward-only losses per direction
    calls = []

    class Counted(MicroAttentionTask):
        def loss_and_grads(self, weights):
            calls.append("loss_and_grads")
            return super().loss_and_grads(weights)

        def loss(self, weights):
            calls.append("loss")
            return super().loss(weights)

    Counted(dim=4, seq=2, batch=2, blocks=2, seed=0)
    assert calls == ["loss_and_grads"] + ["loss"] * 12


BAD_FD_ARGUMENTS = {
    "directions=0": dict(directions=0),
    "directions=-1": dict(directions=-1),
}


@pytest.mark.parametrize("kwargs", BAD_FD_ARGUMENTS.values(), ids=BAD_FD_ARGUMENTS)
def test_finite_difference_check_rejects_bad_arguments(kwargs):
    task = QuadraticTask(3, 2, 2, seed=0)
    with pytest.raises(ValueError, match="a positive integer"):
        finite_difference_check(task, task.init_weights(None), **kwargs)


def test_micro_attention_per_parameter_fd():
    task = MicroAttentionTask(dim=8, seq=3, batch=2, blocks=2, seed=1)
    weights = task.init_weights(np.random.default_rng(2))
    errors = per_parameter_fd_errors(task, weights, directions=3, seed=3)
    assert set(errors) == {e.name for e in task.layout}
    assert max(errors.values()) <= 1e-5


def test_quadratic_gradient_formula():
    task = QuadraticTask(3, 4, 2, seed=0)
    rng = np.random.default_rng(1)
    weights = {f"layer{k}": rng.standard_normal((3, 4)) for k in range(2)}
    loss, grads = task.loss_and_grads(weights)
    for k in range(2):
        d = weights[f"layer{k}"] - task.target[:, :, k]
        np.testing.assert_allclose(grads[f"layer{k}"], task.curvature[:, :, k] * d, rtol=1e-14)
    assert loss > 0
    at_target = {f"layer{k}": task.target[:, :, k] for k in range(2)}
    loss0, grads0 = task.loss_and_grads(at_target)
    assert loss0 == 0.0
    assert all(np.all(g == 0) for g in grads0.values())


def test_aligned_quadratic_gradients_on_cone():
    task = AlignedQuadraticTask(6, 5, 4, seed=2)
    zero = task.init_weights(np.random.default_rng(0))
    _, grads = task.loss_and_grads(zero)
    g = np.stack([grads[f"layer{k}"] for k in range(4)])
    np.testing.assert_array_equal(g, -task.c * task.gstar)
    at_opt = {f"layer{k}": task.target[:, :, k] for k in range(4)}
    loss, grads = task.loss_and_grads(at_opt)
    assert loss == 0.0
    assert all(np.all(v == 0) for v in grads.values())
    # the cone is closed under the gradient map: any W = a*G* keeps the
    # shared-right-vector structure
    assert np.array_equal(task.gstar, build_max_gain_tensor(6, 5, 4, mode=2, seed=2))


def test_aligned_quadratic_many_direction_fd():
    task = AlignedQuadraticTask(8, 8, 4, seed=3)
    weights = task.init_weights(np.random.default_rng(4))
    assert finite_difference_check(task, weights, directions=100, seed=5) <= 1e-6


def test_aligned_quadratic_validation():
    with pytest.raises(ValueError, match="K <= m"):
        AlignedQuadraticTask(3, 8, 4, seed=0)
    with pytest.raises(ValueError):
        AlignedQuadraticTask(4, 4, 2, seed=0, c=0.0)


def test_deep_linear_depth_one_closed_form():
    task = DeepLinearTask(depth=1, width=5, batch=7, seed=6)
    w = {"w0": np.random.default_rng(7).standard_normal((5, 5))}
    loss, grads = task.loss_and_grads(w)
    resid = w["w0"] @ task.x - task.y
    np.testing.assert_allclose(grads["w0"], (resid @ task.x.T) / 7, rtol=1e-13)
    assert loss == pytest.approx(0.5 * np.sum(resid**2) / 7, rel=1e-13)


def test_deep_linear_zero_targets_zero_init():
    task = DeepLinearTask(depth=3, width=4, batch=5, seed=8)
    task.y = np.zeros_like(task.y)
    weights = {f"w{i}": np.zeros((4, 4)) for i in range(3)}
    loss, grads = task.loss_and_grads(weights)
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())


def test_deep_linear_loss_decreases_under_gradient_descent():
    task = DeepLinearTask(depth=2, width=4, batch=6, seed=9)
    weights = task.init_weights(np.random.default_rng(10))
    losses = []
    for _ in range(50):
        loss, grads = task.loss_and_grads(weights)
        losses.append(loss)
        weights = {k: w - 0.2 * grads[k] for k, w in weights.items()}
    assert losses[-1] < 0.1 * losses[0]


def test_micro_attention_seq1_is_linear_attention():
    task = MicroAttentionTask(dim=4, seq=1, batch=3, blocks=2, seed=0)
    w = task.init_weights(np.random.default_rng(1))
    pred, _, _ = task._forward(w)
    x = task.inputs
    for b in range(2):
        x1 = x + (x @ w[f"b{b}.v"].T) @ w[f"b{b}.o"].T  # softmax over one key is 1
        x = x1 + np.tanh(x1 @ w[f"b{b}.mlp1"].T) @ w[f"b{b}.mlp2"].T
    np.testing.assert_allclose(pred, x @ w["readout"].T + w["readout_bias"], atol=1e-12)


def test_micro_attention_layout_and_determinism():
    t1 = MicroAttentionTask(dim=4, seq=2, batch=2, blocks=3, seed=5)
    t2 = MicroAttentionTask(dim=4, seq=2, batch=2, blocks=3, seed=5)
    np.testing.assert_array_equal(t1.inputs, t2.inputs)
    np.testing.assert_array_equal(t1.targets, t2.targets)
    mats = [e for e in t1.layout if len(e.shape) == 2]
    vecs = [e for e in t1.layout if len(e.shape) == 1]
    assert len(mats) == 3 * 6 + 1 and len(vecs) == 1
    roles = {e.role for e in t1.layout}
    assert {"Q", "K", "V", "O", "MLP1", "MLP2"} <= roles
    w = t1.init_weights(np.random.default_rng(0))
    l1, g1 = t1.loss_and_grads(w)
    l2, g2 = t2.loss_and_grads(w)
    assert l1 == l2
    for k in g1:
        np.testing.assert_array_equal(g1[k], g2[k])


def test_micro_attention_fd_gate_aborts_on_bad_gradient():
    class Broken(MicroAttentionTask):
        def loss_and_grads(self, weights):
            loss, grads = super().loss_and_grads(weights)
            grads["b0.q"] = grads["b0.q"] + 1.0
            return loss, grads

    with pytest.raises(RuntimeError, match="gradient check failed"):
        Broken(dim=4, seq=2, batch=2, blocks=2, seed=0)


def _einsum_loss_and_grads(task, weights):
    """Reference backprop on (batch, seq, dim) tensors with einsum weight
    gradients, kept to check the row-matrix GEMM version in MicroAttentionTask."""
    x = task.inputs
    caches = []
    inv_sqrt_d = 1.0 / np.sqrt(task.dim)
    for b in range(task.blocks):
        wq, wk, wv = weights[f"b{b}.q"], weights[f"b{b}.k"], weights[f"b{b}.v"]
        wo, w1, w2 = weights[f"b{b}.o"], weights[f"b{b}.mlp1"], weights[f"b{b}.mlp2"]
        q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
        scores = (q @ k.transpose(0, 2, 1)) * inv_sqrt_d
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = attn @ v
        x1 = x + ctx @ wo.T
        z = np.tanh(x1 @ w1.T)
        caches.append((x, q, k, v, attn, ctx, x1, z))
        x = x1 + z @ w2.T
    pred = x @ weights["readout"].T + weights["readout_bias"]
    resid = pred - task.targets
    denom = task.batch * task.seq
    loss = 0.5 * float(np.sum(resid * resid)) / denom
    dpred = resid / denom
    grads = {
        "readout": np.einsum("bso,bsd->od", dpred, x),
        "readout_bias": dpred.sum(axis=(0, 1)),
    }
    dx = dpred @ weights["readout"]
    for b in reversed(range(task.blocks)):
        x, q, k, v, attn, ctx, x1, z = caches[b]
        wq, wk, wv = weights[f"b{b}.q"], weights[f"b{b}.k"], weights[f"b{b}.v"]
        wo, w1, w2 = weights[f"b{b}.o"], weights[f"b{b}.mlp1"], weights[f"b{b}.mlp2"]
        dz = dx @ w2
        grads[f"b{b}.mlp2"] = np.einsum("bso,bsh->oh", dx, z)
        dh = (1.0 - z * z) * dz
        grads[f"b{b}.mlp1"] = np.einsum("bsh,bsd->hd", dh, x1)
        dx1 = dx + dh @ w1
        grads[f"b{b}.o"] = np.einsum("bso,bsd->od", dx1, ctx)
        dctx = dx1 @ wo
        dattn = dctx @ v.transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * inv_sqrt_d
        dk = (dscores.transpose(0, 2, 1) @ q) * inv_sqrt_d
        grads[f"b{b}.q"] = np.einsum("bsd,bse->de", dq, x)
        grads[f"b{b}.k"] = np.einsum("bsd,bse->de", dk, x)
        grads[f"b{b}.v"] = np.einsum("bsd,bse->de", dv, x)
        dx = dx1 + dq @ wq + dk @ wk + dv @ wv
    return loss, pred, grads


# each task runs every 2-D product through `ndarray.dot` up to SMALL_WORK
# multiply-adds and `np.matmul` above it: both kernels face the reference
DOT, MATMUL = np.ndarray.dot, np.matmul


@pytest.mark.parametrize(
    "dim,seq,batch,blocks,kernel",
    [
        (8, 5, 3, 2, DOT),
        (32, 4, 2, 3, DOT),
        (8, 1, 4, 3, DOT),
        (32, 6, 1, 2, DOT),
        (8, 1, 1, 2, DOT),
        (32, 8, 4, 2, MATMUL),
        (24, 5, 7, 2, MATMUL),
    ],
)
def test_micro_attention_gemm_backprop_matches_einsum_reference(dim, seq, batch, blocks, kernel):
    task = MicroAttentionTask(dim=dim, seq=seq, batch=batch, blocks=blocks, seed=dim + seq)
    assert task._product is kernel
    weights = task.init_weights(np.random.default_rng([dim, seq, batch, blocks]))
    ref_loss, ref_pred, ref_grads = _einsum_loss_and_grads(task, weights)
    loss, grads = task.loss_and_grads(weights)
    pred = task._forward(weights)[0]
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert pred.shape == (batch, seq, dim)
    np.testing.assert_allclose(pred, ref_pred, rtol=1e-12, atol=1e-12 * np.abs(ref_pred).max())
    assert set(grads) == {e.name for e in task.layout}
    for e in task.layout:
        g, ref = grads[e.name], ref_grads[e.name]
        assert g.shape == ref.shape == e.shape and g.dtype == ref.dtype == np.float64, e.name
        # GEMM sums in another order than einsum: allow 1e-12 of the entry or,
        # for entries that nearly cancel, of the largest entry.
        np.testing.assert_allclose(
            g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=e.name
        )


def _deep_linear_einsum_loss_and_grads(task, weights):
    """Reference backprop through W^(N) ... W^(1) x with einsum products."""
    hs = [task.x]
    for i in range(task.depth):
        hs.append(np.einsum("ij,jb->ib", weights[f"w{i}"], hs[-1]))
    resid = hs[-1] - task.y
    delta = resid / task.batch
    grads = {}
    for i in reversed(range(task.depth)):
        grads[f"w{i}"] = np.einsum("ib,jb->ij", delta, hs[i])
        delta = np.einsum("ji,jb->ib", weights[f"w{i}"], delta)
    return 0.5 * float(np.sum(resid * resid)) / task.batch, grads


@pytest.mark.parametrize(
    "depth,width,batch,kernel",
    [(3, 8, 8, DOT), (2, 6, 11, DOT), (4, 16, 32, DOT), (2, 36, 36, MATMUL), (3, 32, 40, MATMUL)],
)
def test_deep_linear_backprop_matches_einsum_reference(depth, width, batch, kernel):
    task = DeepLinearTask(depth=depth, width=width, batch=batch, seed=width + batch)
    assert task._product is kernel
    rng = np.random.default_rng([depth, width, batch])
    weights = {e.name: rng.standard_normal(e.shape) / np.sqrt(width) for e in task.layout}
    ref_loss, ref_grads = _deep_linear_einsum_loss_and_grads(task, weights)
    loss, grads = task.loss_and_grads(weights)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape == (width, width), name
        np.testing.assert_allclose(
            grads[name], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name
        )


@pytest.mark.parametrize("seed", range(4))
def test_micro_attention_fd_gate_accepts_correct_gradient_at_dim64_blocks6(seed):
    # With the step fixed at h instead of h / ||d||_F, seed 2 read 5.2e-4 here,
    # above the 1e-4 bound.
    task = make_task("micro_attention", seed, dim=64, seq=16, batch=8, blocks=6)
    assert isinstance(task, MicroAttentionTask)


@pytest.mark.parametrize("seed", range(4))
def test_micro_attention_fd_gate_rejects_one_percent_error_at_dim64_blocks6(seed):
    class Scaled(MicroAttentionTask):
        def loss_and_grads(self, weights):
            loss, grads = super().loss_and_grads(weights)
            grads["b0.q"] = grads["b0.q"] * 1.01
            return loss, grads

    with pytest.raises(RuntimeError, match="gradient check failed"):
        Scaled(dim=64, seq=16, batch=8, blocks=6, seed=seed)


def test_micro_attention_validation():
    with pytest.raises(ValueError, match="blocks must be at least 2, got 1"):
        MicroAttentionTask(dim=4, seq=2, batch=2, blocks=1, seed=0)
    with pytest.raises(ValueError):
        MicroAttentionTask(dim=0, seq=2, batch=2, blocks=2, seed=0)


def test_make_task_dispatch_and_errors():
    task = make_task("deep_linear", seed=1, depth=2, width=3, batch=4)
    assert isinstance(task, DeepLinearTask)
    with pytest.raises(ValueError, match="unknown task"):
        make_task("mnist", seed=0)
    with pytest.raises(ValueError, match="bad parameters"):
        make_task("quadratic", seed=0, depth=3)
