"""Parameter updates and layer grouping.

Two update rules share this module. The orthogonalized rule, with gradient
G, momentum buffer M (zero at t=0), step size eta and decay lambda:

    M_t  =  mu * M_{t-1} + G_t                  momentum_style "accumulate"
    M_t  =  mu * M_{t-1} + (1 - mu) * G_t       momentum_style "ema"
    W   <-  (1 - eta * lambda) * W              (decoupled, only if lambda > 0)
    W   <-  W - eta * sqrt(m / n) * O_t

For an (m, n, K) stack, O_t = fold(Ortho(matricize(M_t, mode)), mode) with
mode in {1, 2}. The sqrt(m/n) factor always uses the SLICE dimensions even
though the mode-1 matricization is m x nK — the scaling is per-layer, not
per-unfolding. Muon is not a separate rule: a lone (m, n) matrix is the
K=1 stack under mode 1, whose unfolding is the matrix itself, so
O_t = Ortho(M_t). `ortho_step` is the one function that performs either.

The adamw rule (any parameter shape), with betas (b1, b2) and step count t
starting at 1:

    m_t = b1 * m_{t-1} + (1 - b1) * g          v_t = b2 * v_{t-1} + (1 - b2) * g^2
    w  <- (1 - eta * lambda) * w
    w  <- w - eta * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_matrix  # noqa: F401  perfbench/test_smoke.py reads this binding
from .linalg import as_tensor3, fold, matricize
from .ortho import OrthoScheme, apply_ortho

__all__ = [
    "TEON",
    "MUON",
    "ADAMW",
    "ACCUMULATE",
    "EMA",
    "TENSOR_GROUP",
    "MATRIX_SINGLE",
    "VECTOR_ADAMW",
    "UpdatePolicy",
    "ParamGroup",
    "OptimizerState",
    "LayoutEntry",
    "ortho_step",
    "adamw_step",
    "build_groups",
    "apply_group_step",
]

TEON = "teon"
MUON = "muon"
ADAMW = "adamw"

ACCUMULATE = "accumulate"
EMA = "ema"

TENSOR_GROUP = "tensor_group"
MATRIX_SINGLE = "matrix_single"
VECTOR_ADAMW = "vector_adamw"

# stack_set tokens -> matrix roles they cover ("W" is the generic role used
# by homogeneous stacks such as deep linear layers)
STACK_TOKENS = {
    "QKV": ("Q", "K", "V"),
    "O": ("O",),
    "MLP1": ("MLP1",),
    "MLP2": ("MLP2",),
    "W": ("W",),
}


@dataclass(frozen=True)
class UpdatePolicy:
    """How one parameter group is updated. `mode` is present iff the
    optimizer is teon; `scheme` defaults to exact SVD for teon/muon and is
    forbidden for adamw."""

    optimizer: str
    eta: float
    mode: int | None = None
    mu: float = 0.95
    momentum_style: str = ACCUMULATE
    scheme: OrthoScheme | None = None
    weight_decay: float = 0.0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in (TEON, MUON, ADAMW):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.optimizer == TEON:
            if self.mode not in (1, 2):
                raise ValueError(f"teon needs mode in {{1,2}}, got {self.mode!r}")
        elif self.mode is not None:
            raise ValueError(f"mode is a teon-only field, got {self.mode!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if self.momentum_style not in (ACCUMULATE, EMA):
            raise ValueError(f"unknown momentum_style {self.momentum_style!r}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.optimizer == ADAMW:
            if self.scheme is not None:
                raise ValueError("adamw does not orthogonalize; scheme must be None")
            b1, b2 = self.adam_betas
            if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
                raise ValueError(f"adam_betas must lie in [0, 1), got {self.adam_betas}")
            if self.adam_eps <= 0:
                raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        elif self.scheme is None:
            object.__setattr__(self, "scheme", OrthoScheme.exact())

    @classmethod
    def teon(cls, mode: int, eta: float, **kw) -> "UpdatePolicy":
        return cls(TEON, eta, mode=mode, **kw)

    @classmethod
    def muon(cls, eta: float, **kw) -> "UpdatePolicy":
        return cls(MUON, eta, **kw)

    @classmethod
    def adamw(cls, eta: float, **kw) -> "UpdatePolicy":
        return cls(ADAMW, eta, **kw)

    def as_muon(self) -> "UpdatePolicy":
        """The per-matrix policy used for matrices left out of stacking."""
        if self.optimizer == ADAMW:
            raise ValueError("adamw policy has no muon counterpart")
        return replace(self, optimizer=MUON, mode=None)


@dataclass(frozen=True)
class ParamGroup:
    """One update unit: a stacked tensor, a lone matrix, or a vector.

    Every trainable parameter must land in exactly one group; build_groups
    guarantees this by construction.
    """

    id: str
    kind: str
    members: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    policy: UpdatePolicy

    def __post_init__(self):
        if self.kind not in (TENSOR_GROUP, MATRIX_SINGLE, VECTOR_ADAMW):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not self.members:
            raise ValueError(f"group {self.id!r} has no members")
        if len(self.members) != len(self.shapes):
            raise ValueError(f"group {self.id!r}: members/shapes length mismatch")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"group {self.id!r} repeats a member")
        if self.kind == TENSOR_GROUP:
            if self.policy.optimizer != TEON:
                raise ValueError(f"group {self.id!r}: tensor groups require a teon policy")
            if len(set(self.shapes)) != 1 or len(self.shapes[0]) != 2:
                raise ValueError(
                    f"group {self.id!r}: stacked members must share one (m, n) shape, "
                    f"got {self.shapes}"
                )
        elif self.kind == MATRIX_SINGLE:
            if len(self.members) != 1 or len(self.shapes[0]) != 2:
                raise ValueError(f"group {self.id!r}: matrix groups hold one (m, n) matrix")
            if self.policy.optimizer not in (MUON, ADAMW):
                raise ValueError(f"group {self.id!r}: lone matrices use muon or adamw")
        else:
            if len(self.members) != 1 or len(self.shapes[0]) != 1:
                raise ValueError(f"group {self.id!r}: vector groups hold one 1-D parameter")
            if self.policy.optimizer != ADAMW:
                raise ValueError(f"group {self.id!r}: vectors use adamw")

    @property
    def depth(self) -> int:
        return len(self.members)

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.shapes[0]


@dataclass
class OptimizerState:
    """Per-group mutable state. Buffers are created as zeros on first use
    (equivalent to zero init at t=0) and may never change shape."""

    t: int = 0
    momentum: np.ndarray | None = None
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None


def _reject_nonfinite(g: np.ndarray, t: int):
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite gradient rejected at step {t}")


def _momentum_update(state: OptimizerState, g: np.ndarray, policy: UpdatePolicy) -> np.ndarray:
    if state.momentum is None:
        state.momentum = np.zeros_like(g)
    elif state.momentum.shape != g.shape:
        raise ValueError(
            f"momentum buffer shape {state.momentum.shape} does not match "
            f"gradient shape {g.shape}"
        )
    if policy.momentum_style == ACCUMULATE:
        state.momentum = policy.mu * state.momentum + g
    else:
        state.momentum = policy.mu * state.momentum + (1.0 - policy.mu) * g
    return state.momentum


def _shrink(w: np.ndarray, weight_decay: float, eta: float) -> np.ndarray:
    if weight_decay > 0:
        return (1.0 - eta * weight_decay) * w
    return w


def ortho_step(
    ws: np.ndarray, gs: np.ndarray, state: OptimizerState, policy: UpdatePolicy, eta: float
) -> np.ndarray:
    """One orthogonalized update of an (m, n, K) stack at step size `eta`:
    orthogonalize the mode-`policy.mode` unfolding of the momentum tensor
    (mode 1 for muon, whose stack has K=1) and fold back. Returns the new
    (m, n, K) weights."""
    if policy.optimizer == ADAMW:
        raise ValueError("ortho_step needs a muon or teon policy, got 'adamw'")
    ws = as_tensor3(ws)
    gs = np.asarray(gs, dtype=np.float64)
    if gs.shape != ws.shape:
        raise ValueError(f"gradient shape {gs.shape} does not match weights {ws.shape}")
    if policy.optimizer == MUON and ws.shape[2] != 1:
        raise ValueError(f"a muon policy updates one matrix (K=1), got K={ws.shape[2]}")
    _reject_nonfinite(gs, state.t)
    mode = policy.mode or 1
    buf = _momentum_update(state, gs, policy)
    o = fold(apply_ortho(matricize(buf, mode), policy.scheme), mode, ws.shape)
    m, n = ws.shape[0], ws.shape[1]  # slice dims, not the unfolded ones
    scale = np.sqrt(m / n)
    ws = _shrink(ws, policy.weight_decay, eta)
    out = ws - (eta * scale) * o
    state.t += 1
    return out


def adamw_step(
    w: np.ndarray, g: np.ndarray, state: OptimizerState, policy: UpdatePolicy, eta: float
) -> np.ndarray:
    """Bias-corrected adaptive update with decoupled decay, step size `eta`; any shape."""
    if policy.optimizer != ADAMW:
        raise ValueError(f"adamw_step needs an adamw policy, got {policy.optimizer!r}")
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.shape:
        raise ValueError(f"gradient shape {g.shape} does not match weights {w.shape}")
    _reject_nonfinite(g, state.t)
    if state.exp_avg is None:
        state.exp_avg = np.zeros_like(w)
        state.exp_avg_sq = np.zeros_like(w)
    elif state.exp_avg.shape != w.shape:
        raise ValueError(
            f"moment buffer shape {state.exp_avg.shape} does not match weights {w.shape}"
        )
    b1, b2 = policy.adam_betas
    t = state.t + 1
    state.exp_avg = b1 * state.exp_avg + (1.0 - b1) * g
    state.exp_avg_sq = b2 * state.exp_avg_sq + (1.0 - b2) * g * g
    num = state.exp_avg / (1.0 - b1**t)
    den = np.sqrt(state.exp_avg_sq / (1.0 - b2**t)) + policy.adam_eps
    w = _shrink(w, policy.weight_decay, eta)
    out = w - eta * (num / den)
    state.t = t
    return out


# ------------------------------------------------------------------ grouping


@dataclass(frozen=True)
class LayoutEntry:
    """One named parameter of a model: 2-D entries are matrices eligible for
    stacking (by role, across block indices); 1-D entries are vectors."""

    name: str
    role: str
    shape: tuple[int, ...]
    block: int | None = None


def _expand_stack_set(stack_set) -> tuple[str, ...]:
    roles: list[str] = []
    for token in stack_set:
        if token not in STACK_TOKENS:
            raise ValueError(
                f"unknown stack_set token {token!r}; valid: {sorted(STACK_TOKENS)}"
            )
        roles.extend(STACK_TOKENS[token])
    return tuple(roles)


def build_groups(
    model_layout,
    K: int,
    stack_set,
    *,
    policy: UpdatePolicy,
    adamw_policy: UpdatePolicy | None = None,
) -> list[ParamGroup]:
    """Partition a layout into update groups.

    Under a teon `policy`, matrices whose role is covered by `stack_set` are
    stacked K consecutive blocks at a time, same role with same role; a
    remainder of r = N mod K blocks forms one final depth-r group (depth 1
    degrades to the per-matrix rule). Everything else becomes a lone-matrix
    muon group, and 1-D parameters go to adamw. Muon/adamw policies stack
    nothing.
    """
    entries = list(model_layout)
    if not entries:
        raise ValueError("empty model layout")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("layout names must be unique")
    for e in entries:
        if len(e.shape) not in (1, 2):
            raise ValueError(f"parameter {e.name!r}: only 1-D and 2-D shapes, got {e.shape}")
    if adamw_policy is None:
        adamw_policy = UpdatePolicy.adamw(policy.eta, weight_decay=policy.weight_decay)
    if adamw_policy.optimizer != ADAMW:
        raise ValueError("adamw_policy must be an adamw policy")

    matrices = [e for e in entries if len(e.shape) == 2]
    vectors = [e for e in entries if len(e.shape) == 1]
    groups: list[ParamGroup] = []
    stacked: set[str] = set()

    if policy.optimizer == TEON:
        roles = _expand_stack_set(stack_set)
        for role in roles:
            blocked = [e for e in matrices if e.role == role and e.block is not None]
            blocked.sort(key=lambda e: e.block)
            seen_blocks = [e.block for e in blocked]
            if len(set(seen_blocks)) != len(seen_blocks):
                raise ValueError(f"role {role!r} repeats a block index")
            for lo in range(0, len(blocked), K):
                chunk = blocked[lo : lo + K]
                shapes = tuple(e.shape for e in chunk)
                if len(set(shapes)) != 1:
                    raise ValueError(
                        f"role {role!r} blocks {chunk[0].block}-{chunk[-1].block}: "
                        f"stacked members must share one shape, got {shapes}"
                    )
                gid = f"{role.lower()}.blocks{chunk[0].block}-{chunk[-1].block}"
                groups.append(
                    ParamGroup(
                        gid,
                        TENSOR_GROUP,
                        tuple(e.name for e in chunk),
                        shapes,
                        policy,
                    )
                )
                stacked.update(e.name for e in chunk)
        lone_policy = policy.as_muon()
    elif policy.optimizer == MUON:
        lone_policy = policy
    else:
        lone_policy = policy  # adamw everywhere

    for e in matrices:
        if e.name in stacked:
            continue
        groups.append(ParamGroup(e.name, MATRIX_SINGLE, (e.name,), (e.shape,), lone_policy))
    for e in vectors:
        groups.append(ParamGroup(e.name, VECTOR_ADAMW, (e.name,), (e.shape,), adamw_policy))
    return groups


def apply_group_step(
    weights: dict,
    grads: dict,
    group: ParamGroup,
    state: OptimizerState,
    lr_factor: float = 1.0,
) -> None:
    """Apply one group's update in place on the `weights` dict at step size
    `group.policy.eta * lr_factor`; muon and teon groups go through
    `ortho_step` as one (m, n, K) stack. A non-finite gradient or a diverging
    Newton-Schulz run raises FloatingPointError naming the group and its
    optimizer step."""
    pol = group.policy
    eta = pol.eta * lr_factor
    try:
        if pol.optimizer == ADAMW:
            nm = group.members[0]
            weights[nm] = adamw_step(weights[nm], grads[nm], state, pol, eta)
            return
        ws = np.stack([weights[nm] for nm in group.members], axis=2)
        gs = np.stack([grads[nm] for nm in group.members], axis=2)
        new = ortho_step(ws, gs, state, pol, eta)
        for i, nm in enumerate(group.members):
            weights[nm] = new[:, :, i]
    except FloatingPointError as exc:
        msg = f"group {group.id!r} at optimizer step {state.t}: {exc}"
        raise FloatingPointError(msg) from exc
