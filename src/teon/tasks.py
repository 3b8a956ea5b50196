"""Synthetic training objectives with exact manual gradients.

Four desk-scale tasks, all full-batch and deterministic in their seed:

* quadratic          elementwise-anisotropic quadratic over a K-stack
* aligned_quadratic  the unit-curvature quadratic whose gradients live on the
                     shared-right-vector rank-1 cone: the family that attains
                     the sqrt(K) norm gap under the mode-2 unfolding only;
                     under mode 1, which the shipped config uses, its TEON and
                     Muon dual norms are equal and stacking gains nothing
* deep_linear        least squares through a product of square matrices,
                     teacher-generated targets, exact backprop
* micro_attention    a stack of minimal transformer blocks (single-head
                     softmax attention, tanh MLP, residuals, no norm layers)
                     with manual backprop for Q/K/V/O/MLP1/MLP2 per block
                     plus a shared readout matrix and bias

Every task exposes `layout` (named parameters with roles/blocks for
grouping), `init_weights(rng)`, `loss_and_grads(weights)`, and
`loss(weights)`, the forward half of `loss_and_grads` with a bitwise-equal
loss. Gradient correctness is checked by Richardson-extrapolated central
finite differences of `loss`; micro_attention runs that check at
construction time and refuses to instantiate if it fails.

deep_linear and micro_attention pick one `linalg.product` kernel at
construction, from their largest 2-D product, and run every 2-D product of
their forward and backward passes through it; micro_attention's batched
(batch, seq, .) attention products stay `np.matmul`.

`TASKS` maps each name to its class, whose constructor's parameters but
`seed` are the task's `[task]` config keys, typed by their annotations, and
whose `check_params` holds the task's rules for their values.
"""

from __future__ import annotations

import numpy as np

from .linalg import product
from .norms import build_max_gain_tensor
from .optim import LayoutEntry

__all__ = [
    "TASKS",
    "TASK_NAMES",
    "QuadraticTask",
    "AlignedQuadraticTask",
    "DeepLinearTask",
    "MicroAttentionTask",
    "make_task",
    "finite_difference_check",
]


def _positive(**dims):
    for key, val in dims.items():
        if not isinstance(val, (int, np.integer)) or val < 1:
            raise ValueError(f"{key} must be a positive integer, got {val!r}")


class _Task:
    """Each task's `_evaluate(weights)` returns `(loss, cache)`, the forward
    pass that its `loss_and_grads` continues from `cache`; so `loss` costs no
    backward pass and equals `loss_and_grads(weights)[0]` bitwise."""

    @classmethod
    def check_params(cls, **params):
        """Raise ValueError, its message starting with the key, on a parameter
        (every constructor parameter but `seed`) that the task refuses. The
        constructor and the config parser both call it."""
        _positive(**params)

    def loss(self, weights: dict) -> float:
        return self._evaluate(weights)[0]


class QuadraticTask(_Task):
    """f(W) = 1/2 sum_k <H^(k) . (W^(k) - T^(k)), W^(k) - T^(k)> with
    elementwise curvature H in [0.5, 1.5]; gradient H . (W - T)."""

    name = "quadratic"

    def __init__(self, m: int, n: int, K: int, seed: int):
        self.check_params(m=m, n=n, K=K)
        rng = np.random.default_rng([seed, 81])
        self.m, self.n, self.K = m, n, K
        self.curvature = rng.uniform(0.5, 1.5, (m, n, K))
        self.target = rng.standard_normal((m, n, K))
        self.layout = [LayoutEntry(f"layer{k}", "W", (m, n), k) for k in range(K)]

    def init_weights(self, rng) -> dict:
        return {f"layer{k}": np.zeros((self.m, self.n)) for k in range(self.K)}

    def _evaluate(self, weights: dict):
        w = np.stack([weights[f"layer{k}"] for k in range(self.K)], axis=2)
        d = w - self.target
        return 0.5 * float(np.sum(self.curvature * d * d)), d

    def loss_and_grads(self, weights: dict):
        loss, d = self._evaluate(weights)
        g = self.curvature * d
        return loss, {f"layer{k}": g[:, :, k] for k in range(self.K)}


class AlignedQuadraticTask(QuadraticTask):
    """The quadratic at unit curvature, f(W) = 1/2 ||W - c G*||_F^2, where G*
    has shared right vector v and orthonormal left vectors u^(k); the gradient
    W - c G* stays on that cone along the whole trajectory from W=0."""

    name = "aligned_quadratic"
    curvature = 1.0  # 1.0 * d is d bit for bit

    def __init__(self, m: int, n: int, K: int, seed: int, c: float = 1.5):
        self.check_params(m=m, n=n, K=K, c=c)
        self.m, self.n, self.K, self.c = m, n, K, float(c)
        self.gstar = build_max_gain_tensor(m, n, K, mode=2, seed=seed)
        # kept (m, n, K): the loss sums in memory order, and (K, m, n) moves its last bits
        self.target = self.c * self.gstar.transpose(1, 2, 0)
        self.layout = [LayoutEntry(f"layer{k}", "W", (m, n), k) for k in range(K)]

    @classmethod
    def check_params(cls, m, n, K, c):
        _positive(m=m, n=n, K=K)
        if K > m:
            raise ValueError(f"m must be at least K (the aligned cone needs K <= m), got {m} < {K}")
        if not (np.isfinite(c) and c != 0):
            raise ValueError(f"c must be finite and nonzero, got {c}")

    # bound here too: the benchmark's tracer wraps each task class's own copy
    loss_and_grads = QuadraticTask.loss_and_grads


class DeepLinearTask(_Task):
    """Least squares through W^(N) ... W^(1) x with orthogonal-teacher
    targets. Exact layer gradients via backprop; depth 1 is plain linear
    regression with gradient (Wx - y) x^T / batch."""

    name = "deep_linear"

    def __init__(self, depth: int, width: int, batch: int, seed: int):
        self.check_params(depth=depth, width=width, batch=batch)
        rng = np.random.default_rng([seed, 82])
        self.depth, self.width, self.batch = depth, width, batch
        self._product = product(width * width * batch)
        self.x = rng.standard_normal((width, batch))
        y = self.x
        for _ in range(depth):
            q = np.linalg.qr(rng.standard_normal((width, width)))[0]
            y = q @ y
        self.y = y
        self.layout = [LayoutEntry(f"w{i}", "W", (width, width), i) for i in range(depth)]

    def init_weights(self, rng) -> dict:
        eye = np.eye(self.width)
        scale = 0.05 / np.sqrt(self.width)
        return {
            f"w{i}": eye + scale * rng.standard_normal((self.width, self.width))
            for i in range(self.depth)
        }

    def _evaluate(self, weights: dict):
        ws = [weights[f"w{i}"] for i in range(self.depth)]
        hs = [self.x]
        for w in ws:
            hs.append(self._product(w, hs[-1]))
        resid = hs[-1] - self.y
        return 0.5 * float(np.sum(resid * resid)) / self.batch, (ws, hs, resid)

    def loss_and_grads(self, weights: dict):
        loss, (ws, hs, resid) = self._evaluate(weights)
        delta = resid / self.batch
        mm = self._product
        grads = {}
        for i in reversed(range(self.depth)):
            grads[f"w{i}"] = mm(delta, hs[i].T)
            delta = mm(ws[i].T, delta)
        return loss, grads


class MicroAttentionTask(_Task):
    """Residual transformer blocks on a fixed synthetic regression target.

    Per block: single-head attention (scores q k^T / sqrt(dim), softmax over
    keys), then a two-layer tanh MLP with hidden width 2*dim, both with
    residual connections and no normalization. A readout matrix and bias are
    shared across the sequence. All gradients are hand-derived; the
    constructor runs a finite-difference gate (`finite_difference_check`,
    3 directions: one `loss_and_grads` call and 12 forward-only `loss`
    calls) and raises if any directional derivative disagrees beyond 1e-4
    or the error is not finite.
    """

    name = "micro_attention"

    FD_GATE_TOL = 1e-4

    def __init__(
        self,
        dim: int,
        seq: int,
        batch: int,
        blocks: int,
        seed: int,
    ):
        self.check_params(dim=dim, seq=seq, batch=batch, blocks=blocks)
        rng = np.random.default_rng([seed, 83])
        self.dim, self.seq, self.batch, self.blocks = dim, seq, batch, blocks
        self.hidden = 2 * dim
        self._product = product(batch * seq * dim * self.hidden)
        self.inputs = rng.standard_normal((batch, seq, dim))
        self.targets = 0.5 * rng.standard_normal((batch, seq, dim))
        layout = []
        for b in range(blocks):
            for role in ("Q", "K", "V", "O"):
                layout.append(LayoutEntry(f"b{b}.{role.lower()}", role, (dim, dim), b))
            layout.append(LayoutEntry(f"b{b}.mlp1", "MLP1", (self.hidden, dim), b))
            layout.append(LayoutEntry(f"b{b}.mlp2", "MLP2", (dim, self.hidden), b))
        layout.append(LayoutEntry("readout", "OUT", (dim, dim), None))
        layout.append(LayoutEntry("readout_bias", "bias", (dim,), None))
        self.layout = layout
        self._fd_gate(seed)

    @classmethod
    def check_params(cls, **params):
        super().check_params(**params)
        if params["blocks"] < 2:
            raise ValueError(f"blocks must be at least 2, got {params['blocks']}")

    def _fd_gate(self, seed: int):
        weights = self.init_weights(np.random.default_rng([seed, 84]))
        err = finite_difference_check(self, weights, directions=3, seed=seed)
        if err > self.FD_GATE_TOL:
            raise RuntimeError(
                f"micro_attention gradient check failed: max relative error {err:.3g}"
            )

    def init_weights(self, rng) -> dict:
        out = {}
        for e in self.layout:
            if len(e.shape) == 1:
                out[e.name] = np.zeros(e.shape)
            else:
                out[e.name] = rng.standard_normal(e.shape) / np.sqrt(e.shape[1])
        return out

    def _forward(self, weights: dict, keep: bool = True):
        # The residual stream runs as (batch*seq, dim) row matrices, so each
        # projection is one 2-D GEMM; only attention needs (batch, seq, .) views.
        # Each block's activations are cached for the backward pass if `keep`.
        batch, seq, dim = self.batch, self.seq, self.dim
        mm = self._product
        x = self.inputs.reshape(batch * seq, dim)
        caches = []
        inv_sqrt_d = 1.0 / np.sqrt(dim)
        for b in range(self.blocks):
            wq, wk, wv = weights[f"b{b}.q"], weights[f"b{b}.k"], weights[f"b{b}.v"]
            wo, w1, w2 = weights[f"b{b}.o"], weights[f"b{b}.mlp1"], weights[f"b{b}.mlp2"]
            q = mm(x, wq.T).reshape(batch, seq, dim)
            k = mm(x, wk.T).reshape(batch, seq, dim)
            v = mm(x, wv.T).reshape(batch, seq, dim)
            scores = (q @ k.transpose(0, 2, 1)) * inv_sqrt_d
            scores -= scores.max(axis=-1, keepdims=True)  # stable softmax
            e = np.exp(scores)
            attn = e / e.sum(axis=-1, keepdims=True)
            ctx = (attn @ v).reshape(batch * seq, dim)
            x1 = x + mm(ctx, wo.T)
            h = mm(x1, w1.T)
            z = np.tanh(h)
            x2 = x1 + mm(z, w2.T)
            if keep:
                caches.append((x, q, k, v, attn, ctx, x1, z))
            x = x2
        pred = mm(x, weights["readout"].T) + weights["readout_bias"]
        return pred.reshape(batch, seq, dim), x, caches

    def loss(self, weights: dict) -> float:
        # the forward half with no block caches: a loss needs no backward pass
        return self._evaluate(weights, keep=False)[0]

    def _evaluate(self, weights: dict, keep: bool = True):
        pred, x_final, caches = self._forward(weights, keep)
        rows = self.batch * self.seq
        resid = (pred - self.targets).reshape(rows, self.dim)
        return 0.5 * float(np.sum(resid * resid)) / rows, (resid, x_final, caches)

    def loss_and_grads(self, weights: dict):
        loss, (resid, x_final, caches) = self._evaluate(weights)
        batch, seq, dim = self.batch, self.seq, self.dim
        rows = batch * seq
        mm = self._product
        dpred = resid / rows
        grads = {
            "readout": mm(dpred.T, x_final),
            "readout_bias": dpred.sum(axis=0),
        }
        dx = mm(dpred, weights["readout"])
        inv_sqrt_d = 1.0 / np.sqrt(dim)
        for b in reversed(range(self.blocks)):
            # pop, so each block's forward cache dies once its backward ran
            x, q, k, v, attn, ctx, x1, z = caches.pop()
            wq, wk, wv = weights[f"b{b}.q"], weights[f"b{b}.k"], weights[f"b{b}.v"]
            wo, w1, w2 = weights[f"b{b}.o"], weights[f"b{b}.mlp1"], weights[f"b{b}.mlp2"]
            # x2 = x1 + tanh(x1 W1^T) W2^T
            dz = mm(dx, w2)
            grads[f"b{b}.mlp2"] = mm(dx.T, z)
            dh = (1.0 - z * z) * dz
            grads[f"b{b}.mlp1"] = mm(dh.T, x1)
            dx1 = dx + mm(dh, w1)
            # x1 = x + (attn v) Wo^T
            grads[f"b{b}.o"] = mm(dx1.T, ctx)
            dctx = mm(dx1, wo).reshape(batch, seq, dim)
            dattn = dctx @ v.transpose(0, 2, 1)
            dv = (attn.transpose(0, 2, 1) @ dctx).reshape(rows, dim)
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dq = ((dscores @ k) * inv_sqrt_d).reshape(rows, dim)
            dk = ((dscores.transpose(0, 2, 1) @ q) * inv_sqrt_d).reshape(rows, dim)
            grads[f"b{b}.q"] = mm(dq.T, x)
            grads[f"b{b}.k"] = mm(dk.T, x)
            grads[f"b{b}.v"] = mm(dv.T, x)
            dx = dx1 + mm(dq, wq) + mm(dk, wk) + mm(dv, wv)
        return loss, grads


TASKS = {
    cls.name: cls
    for cls in (QuadraticTask, AlignedQuadraticTask, DeepLinearTask, MicroAttentionTask)
}
TASK_NAMES = tuple(TASKS)


def make_task(name: str, seed: int, **params):
    """Instantiate a task by name; parameter names are task-specific and
    unknown ones are rejected."""
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}; valid: {TASK_NAMES}")
    try:
        return TASKS[name](seed=seed, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for task {name!r}: {exc}") from None


def _richardson_difference(task, weights: dict, delta: dict) -> float:
    """Directional derivative of the loss along `delta` (keys not in `delta`
    stay fixed) from four forward-only `task.loss` evaluations: the Richardson
    extrapolation (4 D(s/2) - D(s)) / 3 of the central difference
    D(s) = (f(w + s delta) - f(w - s delta)) / 2s, at s = h / ||delta||_F with
    h = 1e-5, so that the weights move by h in Frobenius norm whatever the
    parameter count.
    The extrapolation cancels D's s^2 truncation term; the scaling keeps the
    s^4 term that remains from growing with the stack, where a fixed step
    rejected a correct micro_attention gradient (dim 64, 6 blocks, seed 2).

    Besides `weights` and `delta`, one perturbed copy of the moved keys is
    alive at a time, with the activations of the `loss` call that reads it:
    each copy is built as `weights[key] + step * d` and dies when its loss
    returns."""

    def f(step: float) -> float:
        moved = {key: weights[key] + step * d for key, d in delta.items()}
        return task.loss(dict(weights, **moved))

    def central(step: float) -> float:
        return (f(step) - f(-step)) / (2.0 * step)

    s = 1e-5 / float(np.sqrt(sum(float(np.sum(d * d)) for d in delta.values())))
    return (4.0 * central(s / 2.0) - central(s)) / 3.0


def finite_difference_check(
    task, weights: dict, *, directions: int = 20, seed: int = 0
) -> float:
    """Max relative error of <grad, delta> vs `_richardson_difference` over
    random Gaussian directions. The analytic gradient comes from one
    `loss_and_grads` call; each direction adds four forward-only `loss`
    evaluations. Returns inf as soon as a direction's error is not finite
    (a NaN or inf gradient or loss), so an `err <= tol` gate fails closed.

    At its peak the check holds the weights, the gradient, one direction, one
    perturbed copy of the weights and the activations of one `loss` call
    (micro_attention's `loss` keeps no per-block caches)."""
    _positive(directions=directions)
    rng = np.random.default_rng([seed, 85])
    _, grads = task.loss_and_grads(weights)
    worst = 0.0
    for _ in range(directions):
        delta = {key: rng.standard_normal(w.shape) for key, w in weights.items()}
        analytic = sum(float(np.sum(grads[key] * delta[key])) for key in weights)
        fd = _richardson_difference(task, weights, delta)
        err = abs(fd - analytic) / max(1.0, abs(analytic))
        if not np.isfinite(err):
            return float("inf")
        worst = max(worst, err)
    return worst
