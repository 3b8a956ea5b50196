"""Reference oracles the tests hold the library to. They restate the
paper's claims as directly as possible and validate nothing. `traced_peak`
is the memory probe the memory-budget tests share, and `update_classes` the
class split of a run that the optimizer and runner tests share."""

import tracemalloc
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from teon.diagnostics import top_singular_alignment
from teon.norms import norm, ntr_step_muon, ntr_step_teon
from teon.runner import LANE_WORK, _plan


def primal_norm_batch(ts, mode):
    """Primal norms of an (S, K, m, n) batch from top Gram eigenvalues:
    the muon norm for `mode=None`, else the teon-`mode` norm."""
    if mode is None:
        g = np.einsum("skij,sklj->skil", ts, ts)
        ev = np.linalg.eigvalsh(g)[..., -1].max(axis=1)
    else:
        spec = {1: "skij,sklj->sil", 2: "skij,skil->sjl", 3: "skij,slij->skl"}[mode]
        ev = np.linalg.eigvalsh(np.einsum(spec, ts, ts))[..., -1]
    return np.sqrt(np.maximum(ev, 0.0))


def dual_ascent_direction(g, mode):
    """The Hoelder certificate: primal norm <= 1 and <g, y> = dual norm of g."""
    if mode is None:
        return -ntr_step_muon(g, 1.0)
    return -ntr_step_teon(g, mode, 1.0)


def sample_dual_lower_bound(g, mode, samples, seed):
    """(max of <g, y> over sampled unit-primal-norm y, the dual norm of g).
    A third of the samples perturb the certificate, the rest are Gaussian."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((samples, *g.shape))
    eps = np.zeros(samples)
    eps[: samples // 3] = np.repeat([0.0, 0.05, 0.2], samples // 9 + 1)[: samples // 3]
    cert = dual_ascent_direction(g, mode)
    ys = np.where((eps > 0)[:, None, None, None], cert + eps[:, None, None, None] * noise, noise)
    ys[0] = cert
    norms = primal_norm_batch(ys, mode)
    vals = np.einsum("ijk,sijk->s", g, ys) / np.where(norms == 0, 1.0, norms)
    return float(vals.max()), norm(g, mode, dual=True)


def convergence_bound_pair(delta0, T, L_teon, L_muon):
    """(sqrt(2 L_teon delta0 / T), sqrt(2 L_muon delta0 / T))."""
    return float(np.sqrt(2.0 * L_teon * delta0 / T)), float(np.sqrt(2.0 * L_muon * delta0 / T))


class Smoothness(NamedTuple):
    max_teon: float
    max_muon: float
    sandwich_ok: bool


def estimate_smoothness_ratio(f, samples, mode, seed, pair_sampler=None):
    """Sampled maxima of ||grad f(X) - grad f(Y)||_* / ||X - Y|| under the
    teon-`mode` and muon norms, and whether R_teon <= R_muon <= K R_teon on
    every pair. `f` exposes `shape` and `gradient(t)`."""
    rng = np.random.default_rng(seed)
    max_teon = max_muon = 0.0
    sandwich_ok = True
    for _ in range(samples):
        if pair_sampler is None:
            x, y = rng.standard_normal(f.shape), rng.standard_normal(f.shape)
        else:
            x, y = pair_sampler(rng)
        dx, df = x - y, f.gradient(x) - f.gradient(y)
        r_teon = norm(df, mode, dual=True) / norm(dx, mode)
        r_muon = norm(df, dual=True) / norm(dx)
        max_teon, max_muon = max(max_teon, r_teon), max(max_muon, r_muon)
        tol = 1e-9 * max(1.0, r_muon)
        sandwich_ok &= r_teon <= r_muon + tol and r_muon <= f.shape[0] * r_teon + tol
    return Smoothness(max_teon, max_muon, sandwich_ok)


def mode2_polar_reference(stack):
    """TEON's mode-2 orthogonalization of a (K, m, n) stack written out
    literally: unfold to [X_1^T ... X_K^T], take the SVD polar factor U V^T of
    that n x Km matrix and cut it back into K transposed m x n slices."""
    k, m, _ = stack.shape
    unfolded = np.concatenate([x.T for x in stack], axis=1)
    u, _, vh = np.linalg.svd(unfolded, full_matrices=False)
    polar = u @ vh
    return np.stack([polar[:, i * m : (i + 1) * m].T for i in range(k)])


def newton_schulz_reference(m, schedule):
    """The Newton-Schulz loop written out literally on the short side: X_0 =
    M / ||M||_F (transposed when M is tall), then per (a, b, c) row
    X <- a*X + (b*G + c*(G@G)) @ X with G = X @ X.T."""
    transposed = m.shape[0] > m.shape[1]
    x = m.T if transposed else m
    x = x / np.linalg.norm(x)
    for a, b, c in schedule:
        g = x @ x.T
        x = a * x + (b * g + c * (g @ g)) @ x
    return x.T if transposed else x


def alignment_reference(a, b):
    """(left_align, right_align, sigma_gap) of one pair straight from
    `np.linalg.svd`: |<u_1(a), u_1(b)>|, |<v_1(a), v_1(b)>| and the smaller of
    the two gaps sigma_1 - sigma_2 (sigma_1 alone for a single value)."""
    (ua, sa, vha), (ub, sb, vhb) = (np.linalg.svd(x, full_matrices=False) for x in (a, b))
    gap = min(s[0] - s[1] if len(s) > 1 else s[0] for s in (sa, sb))
    return float(abs(np.dot(ua[:, 0], ub[:, 0]))), float(abs(np.dot(vha[0], vhb[0]))), float(gap)


def track_run(snapshots, pairs, every):
    """Alignment records of each (pair_id, name_a, name_b) on the snapshot
    steps divisible by `every`, one per-step call per sampled step."""
    for step, buffers in snapshots:
        if step % every == 0:
            yield from top_singular_alignment(buffers, pairs, step)


def richardson_reference(task, weights, delta, h=1e-5):
    """Richardson-extrapolated central difference (4 D(s/2) - D(s)) / 3 of the
    loss along `delta` at s = h / ||delta||_F, every loss read from a full
    `loss_and_grads` evaluation."""
    s = h / float(np.sqrt(sum(float(np.sum(d * d)) for d in delta.values())))

    def f(step):
        moved = {key: weights[key] + step * d for key, d in delta.items()}
        return task.loss_and_grads(dict(weights, **moved))[0]

    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)

    return (4.0 * central(s / 2.0) - central(s)) / 3.0


def full_evaluation_fd_error(task, weights, *, directions, h=1e-5, seed=0):
    """Max relative error of <grad, delta> vs `richardson_reference` over the
    Gaussian directions `finite_difference_check` draws for `seed`."""
    rng = np.random.default_rng([seed, 85])
    _, grads = task.loss_and_grads(weights)
    worst = 0.0
    for _ in range(directions):
        delta = {key: rng.standard_normal(w.shape) for key, w in weights.items()}
        analytic = sum(float(np.sum(grads[key] * delta[key])) for key in weights)
        fd = richardson_reference(task, weights, delta, h)
        worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    return worst


def per_parameter_fd_errors(task, weights, *, directions=3, h=1e-5, seed=0):
    """Worst relative finite-difference error per parameter, one parameter at
    a time, so a wrong gradient cannot hide behind a dominant one."""
    rng = np.random.default_rng([seed, 86])
    _, grads = task.loss_and_grads(weights)
    errors = {}
    for key, w in weights.items():
        errors[key] = 0.0
        for _ in range(directions):
            delta = rng.standard_normal(w.shape)
            analytic = float(np.sum(grads[key] * delta))
            fd = richardson_reference(task, weights, {key: delta}, h)
            errors[key] = max(errors[key], abs(fd - analytic) / max(1.0, abs(analytic)))
    return errors


def traced_peak(fn):
    """Peak bytes traced by `tracemalloc` (NumPy reports its array buffers
    there) while `fn()` runs, counting only what `fn` allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def update_classes(groups, lane_work=LANE_WORK):
    """The update classes a run of `groups` steps: the first part of its plan,
    on one lane with no alignment pairs."""
    return _plan(groups, (), SimpleNamespace(steps=1, align_every=1), 1, lane_work=lane_work)[0]
