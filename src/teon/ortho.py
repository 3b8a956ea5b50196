"""Polar-factor engine: exact SVD path and Newton-Schulz schedules.

``Ortho(M) = U V^T`` is the closest (semi-)orthogonal matrix to ``M``. The
approximate path runs an odd quintic iteration

    X_{t+1} = a*X + b*X(X^T X) + c*X(X^T X)^2,    X_0 = M / ||M||_F

whose per-step coefficient triples come from the named schedules in
``PRESETS`` (``cubic``, ``you``, ``jordan``, ``polar-express``); an unknown
name is an error. Ortho(0) is defined as 0 so that optimizers are no-ops on
dead gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import svd

__all__ = [
    "PRESETS",
    "OrthoScheme",
    "ortho_exact",
    "ortho_ns",
    "apply_ortho",
]

# Sanity guard on each triple: p(1) = a + b + c should sit near 1. The tuned
# schedules intentionally overshoot (the aggressive opening rows reach
# p(1) ~ 0.12 and ~ 1.99), so the guard is a wide coarse filter, not a
# convergence proof.
P1_TOLERANCE = 1.1

Triple = tuple[float, float, float]

# The most NS steps a scheme may take. The presets hold at most 8 rows, and
# the longest schedule any check runs is 30 cubic steps (criterion 2 and
# `teon check`); 100 leaves room above both, while a larger count is a typo
# that would build that many rows and run that many iterations per unfolding.
_NS_STEPS_MAX = 100

# Named NS schedules, fitted to a step count by `_resolve_schedule`.
PRESETS: dict[str, tuple[Triple, ...]] = {
    # Textbook polar iteration p(x) = 1.5x - 0.5x^3: monotone convergence on (0, 1].
    "cubic": ((1.5, -0.5, 0.0),),
    # You's five-step varying quintic, aggressive rows first (kellerjordan.github.io/posts/muon).
    "you": (
        (4.0848, -6.8946, 2.9270),
        (3.9505, -6.3029, 2.6377),
        (3.7418, -5.5913, 2.3037),
        (2.8769, -3.1427, 1.2046),
        (2.8366, -3.0525, 1.2012),
    ),
    # Jordan's constant quintic for ~5 steps (kellerjordan.github.io/posts/muon).
    "jordan": ((3.4445, -4.7750, 2.0315),),
    # Polar Express optimal per-step schedule (arXiv:2505.16932); last row is its fixed point.
    "polar-express": (
        (8.28721201814563, -23.595886519098837, 17.300387312530933),
        (4.107059111542203, -2.9478499167379106, 0.5448431082926601),
        (3.9486908534822946, -2.908902115962949, 0.5518191394370137),
        (3.3184196573706015, -2.488488024314874, 0.51004894012372),
        (2.300652019954817, -1.6689039845747493, 0.4188073119525673),
        (1.891301407787398, -1.2679958271945868, 0.37680408948524835),
        (1.8750014808534479, -1.2500016453999487, 0.3750001645474248),
        (1.875, -1.25, 0.375),
    ),
}


def _resolve_schedule(rows: tuple[Triple, ...], steps: int) -> tuple[Triple, ...]:
    # One row broadcasts; longer tables are truncated to `steps` or padded by
    # repeating their final row (the tuned tables end in a fixed-point row).
    if len(rows) == 1:
        return rows * steps
    if steps <= len(rows):
        return rows[:steps]
    return rows + (rows[-1],) * (steps - len(rows))


@dataclass(frozen=True)
class OrthoScheme:
    """Which polar-factor approximation to use.

    kind: "exact_svd" or "newton_schulz". For the NS kind the stored
    schedule is already resolved to exactly `steps` triples.
    """

    kind: str
    schedule: tuple[Triple, ...] = ()
    steps: int = 0
    preset_name: str | None = None

    EXACT = "exact_svd"
    NEWTON_SCHULZ = "newton_schulz"

    def __post_init__(self):
        if self.kind == self.EXACT:
            if self.schedule or self.steps:
                raise ValueError("exact scheme carries no schedule/steps")
            return
        if self.kind != self.NEWTON_SCHULZ:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if len(self.schedule) != self.steps:
            raise ValueError(
                f"schedule length {len(self.schedule)} != steps {self.steps}"
            )
        for i, (a, b, c) in enumerate(self.schedule):
            p1 = a + b + c
            if not np.isfinite(p1) or abs(p1 - 1.0) > P1_TOLERANCE:
                raise ValueError(
                    f"schedule row {i}: p(1) = {p1:g} too far from 1 "
                    f"(|p(1)-1| <= {P1_TOLERANCE} required)"
                )

    @classmethod
    def exact(cls) -> "OrthoScheme":
        return cls(kind=cls.EXACT)

    @classmethod
    def newton_schulz(cls, steps: int, *, preset: str) -> "OrthoScheme":
        """Build an NS scheme from a name in ``PRESETS``, fitted to `steps`
        (1 to ``_NS_STEPS_MAX``)."""
        if preset not in PRESETS:
            raise ValueError(f"ns_preset must be one of {sorted(PRESETS)}, got {preset!r}")
        if not 1 <= steps <= _NS_STEPS_MAX:
            raise ValueError(f"ns_steps must lie in [1, {_NS_STEPS_MAX}], got {steps}")
        return cls(
            kind=cls.NEWTON_SCHULZ,
            schedule=_resolve_schedule(PRESETS[preset], steps),
            steps=steps,
            preset_name=preset,
        )


def ortho_exact(m: np.ndarray) -> np.ndarray:
    """Polar factor U V^T from the SVD; Ortho(0) := 0; `svd` rejects NaN/Inf."""
    if not m.any():
        return np.zeros_like(m)
    u, _, vh = svd(m)
    return u @ vh


def ortho_ns(m: np.ndarray, scheme: OrthoScheme) -> np.ndarray:
    """Newton-Schulz approximation of the polar factor of a 2-D array.

    Frobenius pre-normalization puts every singular value in (0, 1]; when
    rows > cols the iteration runs on the transpose so the Gram matrix has
    the short side. No renormalization between steps: the tuned presets
    oscillate around 1 by design. NaN/Inf input, a norm out of float range or
    an overflowing step raises FloatingPointError."""
    if scheme.kind != OrthoScheme.NEWTON_SCHULZ:
        raise ValueError("ortho_ns needs a newton_schulz scheme")
    if not m.any():
        return np.zeros_like(m)
    transposed = m.shape[0] > m.shape[1]
    x = m.T if transposed else m
    t = None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # NaN sets no FP flag, so test the norm; a norm of 0 raises below
            norm = np.linalg.norm(x)
            if not np.isfinite(norm):
                raise FloatingPointError(f"Frobenius norm is {norm}")
            x = x / norm
            # x is finite now, so the first op to make an inf or NaN raises
            for t, (a, b, c) in enumerate(scheme.schedule):
                # row Gram: X(X^T X) == (X X^T)X, and rows <= cols here.
                # x = a*x + (b*g + c*(g@g)) @ x, in place: the same roundings
                g = x @ x.T
                gg = g @ g
                gg *= c
                g *= b
                g += gg
                y = g @ x
                x *= a
                y += x
                x = y
    except FloatingPointError as exc:
        where = "cannot normalize its input" if t is None else f"diverged at step {t}"
        raise FloatingPointError(f"Newton-Schulz {where}: {exc}") from exc
    return x.T if transposed else x


def apply_ortho(m: np.ndarray, scheme: OrthoScheme) -> np.ndarray:
    """Dispatch Ortho(m) through the scheme (exact SVD or Newton-Schulz)."""
    if scheme.kind == OrthoScheme.EXACT:
        return ortho_exact(m)
    return ortho_ns(m, scheme)

