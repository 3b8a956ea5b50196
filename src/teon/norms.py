"""Muon/TEON norm geometry.

For a stacked tensor X in R^{m x n x K} with slices X^(k):

* muon primal   max_k sigma_1(X^(k));   muon dual   sum_k ||X^(k)||_nuclear
* teon-i primal sigma_1(M_i(X));        teon-i dual ||M_i(X)||_nuclear

where M_i is the mode-i block matricization from :mod:`teon.linalg`.
The module provides the norms, the comparability checks

    ||.||_muon <= ||.||_teon-i <= sqrt(K) ||.||_muon          (i = 1, 2)
    ||.||_teon-i,* <= ||.||_muon,* <= sqrt(K) ||.||_teon-i,*

trust-region steepest-descent steps, evaluators for the convergence bounds,
an empirical smoothness-ratio estimator, and the rank-1 construction that
attains the sqrt(K) gap exactly.

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
    "NormKind",
    "norm",
    "primal_norm_batch",
    "ComparabilityReport",
    "check_comparability",
    "ntr_step_teon",
    "ntr_step_muon",
    "BoundInputs",
    "eval_ntr_bound",
    "convergence_bound_pair",
    "SmoothnessReport",
    "estimate_smoothness_ratio",
    "build_max_gain_tensor",
    "dual_ascent_direction",
    "sample_dual_lower_bound",
    "format_value",
]

MUON = "muon"
TEON = "teon"


def format_value(x) -> str:
    """Render a metric value for key=value report lines (17 significant digits)."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def kv_lines(prefix: str, items) -> list[str]:
    return [f"{prefix}{key}={format_value(val)}" for key, val in items]


@dataclass(frozen=True)
class NormKind:
    """Selects a norm: family 'muon' or 'teon', matricization mode (teon
    only), and primal vs dual."""

    family: str
    mode: int | None = None
    dual: bool = False

    def __post_init__(self):
        if self.family not in (MUON, TEON):
            raise ValueError(f"family must be 'muon' or 'teon', got {self.family!r}")
        if self.family == TEON:
            if self.mode not in (1, 2, 3):
                raise ValueError(f"teon norms need mode in {{1,2,3}}, got {self.mode!r}")
        elif self.mode is not None:
            raise ValueError("muon norms carry no mode")

    @classmethod
    def muon(cls, dual: bool = False) -> "NormKind":
        return cls(MUON, None, dual)

    @classmethod
    def teon(cls, mode: int, dual: bool = False) -> "NormKind":
        return cls(TEON, mode, dual)

    def label(self) -> str:
        base = self.family if self.family == MUON else f"{self.family}{self.mode}"
        return base + ("_dual" if self.dual else "")


def norm(t: np.ndarray, kind: NormKind) -> float:
    """Evaluate the selected norm of an (m, n, K) tensor."""
    t = as_tensor3(t)
    if kind.family == MUON:
        # batched singular values across slices
        s = np.linalg.svd(t.transpose(2, 0, 1), compute_uv=False)
        return float(s.sum()) if kind.dual else float(s.max())
    s = np.linalg.svd(matricize(t, kind.mode), compute_uv=False)
    return float(s.sum()) if kind.dual else float(s.max())


def primal_norm_batch(ts: np.ndarray, kind: NormKind) -> np.ndarray:
    """Primal norms of a batch of tensors, shape (S, m, n, K) -> (S,).

    Uses Gram eigenvalues instead of per-sample SVDs so rejection-sampling
    oracles stay cheap. Matches :func:`norm` to LAPACK accuracy.
    """
    if kind.dual:
        raise ValueError("primal_norm_batch handles primal norms only")
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 4:
        raise ValueError(f"expected (S, m, n, K), got shape {ts.shape}")
    if kind.family == MUON:
        g = np.einsum("sijk,sljk->skil", ts, ts)
        ev = np.linalg.eigvalsh(g)[..., -1]  # (S, K)
        return np.sqrt(np.maximum(ev.max(axis=1), 0.0))
    if kind.mode == 1:
        g = np.einsum("sijk,sljk->sil", ts, ts)
    elif kind.mode == 2:
        g = np.einsum("sijk,silk->sjl", ts, ts)
    else:
        g = np.einsum("sijk,sijl->skl", ts, ts)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0))


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

    def lines(self) -> list[str]:
        return kv_lines(
            "comparability.",
            [
                ("mode", self.mode),
                ("k", self.k),
                ("muon_primal", self.muon_primal),
                ("teon_primal", self.teon_primal),
                ("muon_dual", self.muon_dual),
                ("teon_dual", self.teon_dual),
                ("primal_lower_slack", self.primal_lower_slack),
                ("primal_upper_slack", self.primal_upper_slack),
                ("dual_lower_slack", self.dual_lower_slack),
                ("dual_upper_slack", self.dual_upper_slack),
                ("violation", self.violation),
            ],
        )


def check_comparability(t: np.ndarray, mode: int) -> ComparabilityReport:
    """Evaluate both primal and dual sandwich inequalities for teon-`mode`."""
    if mode not in (1, 2):
        raise ValueError(f"comparability is stated for modes 1 and 2, got {mode}")
    t = as_tensor3(t)
    k = t.shape[2]
    root_k = np.sqrt(k)
    mp = norm(t, NormKind.muon())
    tp = norm(t, NormKind.teon(mode))
    md = norm(t, NormKind.muon(dual=True))
    td = norm(t, NormKind.teon(mode, dual=True))
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
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return -eta * fold(ortho_exact(matricize(g, mode)), mode, g.shape)


def ntr_step_muon(g: np.ndarray, eta: float) -> np.ndarray:
    """Steepest-descent step under the muon norm ball: per-slice polar factors."""
    g = as_tensor3(g)
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    out = np.empty_like(g)
    for k in range(g.shape[2]):
        out[:, :, k] = -eta * ortho_exact(g[:, :, k])
    return out


def dual_ascent_direction(g: np.ndarray, kind: NormKind) -> np.ndarray:
    """Feasible direction with primal norm <= 1 achieving <g, y> = dual norm.

    These are the Hoelder certificates: the (negated) steepest-descent
    directions at eta = 1.
    """
    g = as_tensor3(g)
    if kind.family == MUON:
        return -ntr_step_muon(g, 1.0)
    return -ntr_step_teon(g, kind.mode, 1.0)


def sample_dual_lower_bound(
    g: np.ndarray, kind: NormKind, samples: int, seed: int
) -> tuple[float, float]:
    """Sampled lower bound for the dual norm: max over feasible y of <g, y>.

    Returns (sampled_max, dual_value). The sample mixture contains plain
    Gaussian directions plus perturbations of the Hoelder certificate, all
    normalized to unit primal norm, so the bound is tight enough to be a
    meaningful check rather than a vacuous one. Every sampled value must sit
    at or below the closed-form dual norm.
    """
    g = as_tensor3(g)
    rng = np.random.default_rng(seed)
    primal = NormKind(kind.family, kind.mode, dual=False)
    dual_value = norm(g, NormKind(kind.family, kind.mode, dual=True))
    cert = dual_ascent_direction(g, primal)
    noise = rng.standard_normal((samples, *g.shape))
    eps = np.zeros(samples)
    # a third of the budget probes around the certificate
    eps[: samples // 3] = np.repeat([0.0, 0.05, 0.2], samples // 9 + 1)[: samples // 3]
    ys = np.where(
        (eps > 0)[:, None, None, None],
        cert[None] + eps[:, None, None, None] * noise,
        noise,
    )
    ys[0] = cert
    norms = primal_norm_batch(ys, primal)
    norms = np.where(norms == 0, 1.0, norms)
    vals = np.einsum("ijk,sijk->s", g, ys) / norms
    return float(vals.max()), dual_value


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


def convergence_bound_pair(
    delta0: float, T: int, L_teon: float, L_muon: float
) -> tuple[float, float]:
    """(sqrt(2 L_teon delta0 / T), sqrt(2 L_muon delta0 / T)).

    The smoothness constants must satisfy 0 < L_teon <= L_muon; their ratio
    sqrt(L_muon / L_teon) is the bound-level gain and lies in [1, sqrt(K)]
    whenever L_muon <= K * L_teon.
    """
    if delta0 < 0:
        raise ValueError("delta0 must be nonnegative")
    if T < 1:
        raise ValueError("T must be a positive integer")
    if not 0 < L_teon <= L_muon:
        raise ValueError(
            f"need 0 < L_teon <= L_muon, got L_teon={L_teon}, L_muon={L_muon}"
        )
    return (
        float(np.sqrt(2.0 * L_teon * delta0 / T)),
        float(np.sqrt(2.0 * L_muon * delta0 / T)),
    )


# ------------------------------------------------------- smoothness estimate


@dataclass(frozen=True)
class SmoothnessReport:
    """Empirical max of R(X, Y) = ||grad f(X) - grad f(Y)||_* / ||X - Y||
    under two norm families. Values are sampled lower bounds of the true
    smoothness constants (suprema), never the constants themselves.
    """

    kind_a: str
    kind_b: str
    samples: int
    max_ratio_a: float
    max_ratio_b: float
    ratio_of_maxes: float
    bound_gain: float
    sandwich_checked: bool
    sandwich_ok: bool
    degenerate: bool

    def lines(self) -> list[str]:
        return kv_lines(
            "smoothness.",
            [
                ("kind_a", self.kind_a),
                ("kind_b", self.kind_b),
                ("samples", self.samples),
                ("empirical_max_ratio_a", self.max_ratio_a),
                ("empirical_max_ratio_b", self.max_ratio_b),
                ("empirical_ratio_of_maxes", self.ratio_of_maxes),
                ("empirical_bound_gain", self.bound_gain),
                ("sandwich_checked", self.sandwich_checked),
                ("sandwich_ok", self.sandwich_ok),
                ("degenerate", self.degenerate),
            ],
        )


def _ratio(df: np.ndarray, dx: np.ndarray, kind: NormKind) -> float:
    num = norm(df, NormKind(kind.family, kind.mode, dual=True))
    den = norm(dx, NormKind(kind.family, kind.mode, dual=False))
    return num / den


def estimate_smoothness_ratio(
    f,
    samples: int,
    kind_a: NormKind,
    kind_b: NormKind,
    seed: int,
    pair_sampler=None,
) -> SmoothnessReport:
    """Sample pairs (X, Y), compute the gradient-Lipschitz ratio under both
    norm kinds, and report the empirical maxima.

    `f` exposes `shape` (m, n, K) and `gradient(t)`. When the two kinds are
    a (teon-i, muon) pairing the per-sample sandwich
    R_teon <= R_muon <= K * R_teon is asserted sample by sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    shape = tuple(f.shape)
    k = shape[2]

    def default_sampler(r):
        return r.standard_normal(shape), r.standard_normal(shape)

    draw = pair_sampler or default_sampler
    families = {kind_a.family, kind_b.family}
    sandwich_checked = families == {MUON, TEON}
    ratios_a: list[float] = []
    ratios_b: list[float] = []
    sandwich_ok = True
    for _ in range(samples):
        x, y = draw(rng)
        dx = x - y
        if not np.any(dx):
            continue
        df = f.gradient(x) - f.gradient(y)
        ra = _ratio(df, dx, kind_a)
        rb = _ratio(df, dx, kind_b)
        ratios_a.append(ra)
        ratios_b.append(rb)
        if sandwich_checked:
            r_teon, r_muon = (ra, rb) if kind_a.family == TEON else (rb, ra)
            tol = 1e-9 * max(1.0, r_muon)
            if not (r_teon <= r_muon + tol and r_muon <= k * r_teon + tol):
                sandwich_ok = False
    if not ratios_a:
        raise ValueError("all sampled pairs were identical; nothing to estimate")
    max_a = max(ratios_a)
    max_b = max(ratios_b)
    degenerate = max_a == 0.0 and max_b == 0.0
    ratio = max_b / max_a if max_a > 0 else float("nan")
    return SmoothnessReport(
        kind_a=kind_a.label(),
        kind_b=kind_b.label(),
        samples=len(ratios_a),
        max_ratio_a=max_a,
        max_ratio_b=max_b,
        ratio_of_maxes=ratio,
        bound_gain=float(np.sqrt(ratio)) if ratio == ratio else float("nan"),
        sandwich_checked=sandwich_checked,
        sandwich_ok=sandwich_ok,
        degenerate=degenerate,
    )


# ------------------------------------------------------ maximal-gain tensors


def build_max_gain_tensor(m: int, n: int, K: int, mode: int, seed: int) -> np.ndarray:
    """Rank-1-slice tensor whose teon-`mode` norm is exactly sqrt(K) times
    its muon norm.

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
        return u[:, None, None] * vs[None, :, :]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    us = np.linalg.qr(rng.standard_normal((m, K)))[0]
    return us[:, None, :] * v[None, :, None]
