"""Muon/TEON norm geometry.

For a stacked tensor X in R^{m x n x K}, stored (K, m, n) with X^(k) = X[k]:

* muon primal   max_k sigma_1(X^(k));   muon dual   sum_k ||X^(k)||_nuclear
* teon-i primal sigma_1(M_i(X));        teon-i dual ||M_i(X)||_nuclear

where M_i is the mode-i block matricization from :mod:`teon.linalg`.
The module provides the norms, the comparability check

    ||.||_muon <= ||.||_teon-i <= sqrt(K) ||.||_muon          (i = 1, 2)
    ||.||_teon-i,* <= ||.||_muon,* <= sqrt(K) ||.||_teon-i,*

trust-region steepest-descent steps, the evaluator of the convergence bound,
and the rank-1 construction that attains the sqrt(K) gap exactly. These are
what `teon check`, the training loop and `teon construct-maxgain` run; the
sampling oracles that test them live with the tests.

Orientation of the maximal-gain construction: with the block layout,
M_1([u v^(k)T]_k) = u [v^(1)T ... v^(K)T], so the mode-1 operator norm picks
up sqrt(K) when the LEFT vector is shared and the right vectors are
orthonormal; mode 2 is the mirror image (shared right vector, orthonormal
left vectors). A shared-right-vector family is exactly semi-orthogonal under
mode 1 and therefore gains nothing there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_tensor3, fold, matricize
from .ortho import ortho_exact

__all__ = [
    "norm",
    "ComparabilityReport",
    "check_comparability",
    "ntr_step_teon",
    "ntr_step_muon",
    "BoundInputs",
    "eval_ntr_bound",
    "build_max_gain_tensor",
]


def norm(
    t: np.ndarray, mode: int | None = None, dual: bool | tuple = False
) -> float | np.ndarray | tuple:
    """The muon norm of a (K, m, n) tensor (`mode=None`) or its teon-`mode`
    norm (`mode` in 1-3); the dual (nuclear) norm if `dual`. A (G, K, m, n)
    stack gives one value per tensor, as a (G,) array, from one SVD call;
    a lone tensor is a stack of one and gives a float. A tuple of flags,
    such as `dual=(False, True)`, gives a tuple of those norms, (primal,
    dual), from the same SVD and validation."""
    t = np.asarray(t)
    lone = t.ndim != 4
    # validated once, as the stack of all slices, then seen as (G, K, m, n)
    slices = as_tensor3(t if lone else t.reshape((-1,) + t.shape[2:]))
    t = slices.reshape((-1,) + t.shape[-3:])
    # muon: batched singular values across slices; matricize rejects a bad mode
    s = np.linalg.svd(t if mode is None else matricize(t, mode), compute_uv=False)
    s = s.reshape(len(s), -1)  # one contiguous row of values per tensor

    def pick(d):
        values = s.sum(axis=1) if d else s.max(axis=1)
        return float(values[0]) if lone else values

    return tuple(map(pick, dual)) if isinstance(dual, tuple) else pick(dual)


# ------------------------------------------------------------- comparability


@dataclass(frozen=True)
class ComparabilityReport:
    """Slack values for the four norm inequalities at one tensor.

    All slacks are >= 0 when the inequalities hold; `violation` flags any
    slack below -1e-9 * scale.
    """

    mode: int
    k: int
    muon_primal: float
    teon_primal: float
    muon_dual: float
    teon_dual: float
    primal_lower_slack: float
    primal_upper_slack: float
    dual_lower_slack: float
    dual_upper_slack: float
    violation: bool


def check_comparability(t: np.ndarray, mode: int) -> ComparabilityReport:
    """Evaluate both primal and dual sandwich inequalities for teon-`mode`."""
    if mode not in (1, 2):
        raise ValueError(f"comparability is stated for modes 1 and 2, got {mode}")
    t = as_tensor3(t)
    k = t.shape[0]
    root_k = np.sqrt(k)
    mp, md = norm(t, dual=(False, True))
    tp, td = norm(t, mode, dual=(False, True))
    slacks = (
        tp - mp,            # muon_primal <= teon_primal
        root_k * mp - tp,   # teon_primal <= sqrt(K) muon_primal
        md - td,            # teon_dual   <= muon_dual
        root_k * td - md,   # muon_dual   <= sqrt(K) teon_dual
    )
    scale = max(1.0, mp, tp, md, td)
    violation = any(s < -1e-9 * scale for s in slacks)
    return ComparabilityReport(mode, k, mp, tp, md, td, *slacks, violation)


# --------------------------------------------------- steepest-descent oracle


def ntr_step_teon(g: np.ndarray, mode: int, eta: float) -> np.ndarray:
    """Steepest-descent step under the teon-`mode` norm ball of radius eta.

    Minimizes <g, D> over ||D||_teon-mode <= eta; the achieved value is
    -eta * ||g||_teon-mode,*.
    """
    g = as_tensor3(g)
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    return -eta * fold(ortho_exact(matricize(g, mode)), mode, g.shape)


def ntr_step_muon(g: np.ndarray, eta: float) -> np.ndarray:
    """Steepest-descent step under the muon norm ball: per-slice polar
    factors, i.e. the K=1 mode-1 teon step of each slice."""
    g = as_tensor3(g)
    return np.concatenate([ntr_step_teon(s, 1, eta) for s in np.split(g, len(g))])


# ------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the trust-region convergence bound.

    delta0 = f(W_0) - f*; L = smoothness constant; eta = step size;
    mu = momentum in [0,1); sigma = gradient-noise level; rho = norm
    equivalence constant; T = iteration budget.
    """

    delta0: float
    L: float
    eta: float
    mu: float
    sigma: float
    rho: float
    T: int

    def __post_init__(self):
        vals = (self.delta0, self.L, self.eta, self.mu, self.sigma, self.rho)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("bound inputs must be finite")
        if self.delta0 < 0 or self.sigma < 0:
            raise ValueError("delta0 and sigma must be nonnegative")
        if self.L <= 0 or self.eta <= 0 or self.rho <= 0:
            raise ValueError("L, eta and rho must be positive")
        if not 0 <= self.mu < 1:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if self.T < 1:
            raise ValueError(f"T must be a positive integer, got {self.T}")


def eval_ntr_bound(b: BoundInputs) -> float:
    """Six-term upper bound on E[min_t ||grad f(W_t)||_*] for the NTR iteration."""
    mom = b.mu / (1.0 - b.mu)
    return (
        b.delta0 / (b.eta * b.T)
        + 3.0 * np.sqrt(b.L * b.delta0 / b.T) * mom
        + b.L * b.eta / 2.0
        + b.L * b.eta * mom
        + 2.0 * (1.0 - b.mu) * b.rho * b.sigma / b.T
        + b.rho * b.sigma * np.sqrt((1.0 - b.mu) / (1.0 + b.mu))
    )


# ------------------------------------------------------ maximal-gain tensors


def build_max_gain_tensor(m: int, n: int, K: int, mode: int, seed: int) -> np.ndarray:
    """Rank-1-slice (K, m, n) tensor whose teon-`mode` norm is exactly
    sqrt(K) times its muon norm.

    mode 1: one shared unit LEFT vector u, orthonormal right vectors v^(k)
            (QR of a seeded Gaussian), slices u v^(k)T; needs K <= n.
    mode 2: mirror image — shared unit right vector, orthonormal left
            vectors; needs K <= m.

    Every slice has spectral norm 1, so the muon norm is 1 and the selected
    matricization has a single nonzero singular value sqrt(K).
    """
    if mode not in (1, 2):
        raise ValueError(f"the construction exists for modes 1 and 2, got {mode}")
    if min(m, n) < 1 or K < 1:
        raise ValueError("dimensions must be positive")
    limit = n if mode == 1 else m
    if K > limit:
        raise ValueError(
            f"mode {mode} needs K orthonormal vectors in dimension {limit}, got K={K}"
        )
    rng = np.random.default_rng(seed)
    if mode == 1:
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        vs = np.linalg.qr(rng.standard_normal((n, K)))[0]  # columns orthonormal
        return u[None, :, None] * vs.T[:, None, :]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    us = np.linalg.qr(rng.standard_normal((m, K)))[0]
    return us.T[:, :, None] * v[None, None, :]
