"""Parameter updates and layer grouping.

Each update rule is pure: it returns the step and the next OptimizerState. The
orthogonalized rule, with gradient G, momentum buffer M (zero at t=0) and step size eta:

    M_t  =  mu * M_{t-1} + G_t                  momentum_style "accumulate"
    M_t  =  mu * M_{t-1} + (1 - mu) * G_t       momentum_style "ema"
    step =  eta * sqrt(m / n) * O_t

For a group's (K, m, n) stack, O_t = fold(Ortho(matricize(M_t, mode)), mode)
with mode in {1, 2}. The sqrt(m/n) factor always uses the SLICE dimensions even
though the mode-1 matricization is m x nK — the scaling is per-layer, not
per-unfolding. Muon is not a separate rule: a lone (m, n) matrix is the
K=1 stack under mode 1, whose unfolding is the matrix itself, so
O_t = Ortho(M_t). `ortho_step` is the one function that computes either, for
every group of a class at once.

The adamw rule (any parameter shape), with betas (b1, b2) and step count t
starting at 1:

    m_t = b1 * m_{t-1} + (1 - b1) * g          v_t = b2 * v_{t-1} + (1 - b2) * g^2
    step = eta * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)

`build_groups` partitions a layout into ParamGroups, whose kind follows from
policy and shapes: a teon policy gives a tensor group (of any depth), a 1-D
member a vector group, anything else a lone matrix. `expand_stack_set` alone
expands and checks the `stack_set` tokens that pick the stacked roles, always
in STACK_TOKENS order.

Groups that share a policy, a slice shape and a depth K are stepped as one
UpdateClass. A class's parameters live in one arena for a whole run, the
stack of its G groups (`UpdateClass.stack`: (G, K, m, n) for matrices,
(G, 1, d) for vectors), so group i is `arena[i]` in the weights, the
gradients and every state buffer; `member_views` maps each member name to
its C-contiguous slice. A lone group is a class of one. `apply_group_step`
alone writes arenas and states: one dtype, shape and finiteness check, one
errstate, one momentum or adamw update and one W <- (1 - eta * lambda) * W -
step (decay only if lambda > 0) per class, committed with the new state once
all of it has succeeded. The polar factor
still runs once per group unfolding, through `apply_ortho` on a 2-D array,
though all the unfoldings of a class share one shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix  # noqa: F401  perfbench/test_smoke.py reads this binding
from .linalg import fold, matricize
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
    "UpdateClass",
    "OptimizerState",
    "LayoutEntry",
    "ortho_step",
    "adamw_step",
    "expand_stack_set",
    "build_groups",
    "member_views",
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
            raise ValueError(
                f"optimizer must be one of {(TEON, MUON, ADAMW)}, got {self.optimizer!r}"
            )
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.optimizer == TEON:
            if self.mode not in (1, 2):
                raise ValueError(f"mode must be 1 or 2 under teon, got {self.mode!r}")
        elif self.mode is not None:
            raise ValueError(f"mode is a teon-only field, got {self.mode!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if self.momentum_style not in (ACCUMULATE, EMA):
            raise ValueError(
                f"momentum_style must be one of {(ACCUMULATE, EMA)}, got {self.momentum_style!r}"
            )
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.optimizer == ADAMW:
            if self.scheme is not None:
                raise ValueError("scheme must be None under adamw, which does not orthogonalize")
            b1, b2 = self.adam_betas
            if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
                raise ValueError(f"adam_betas must lie in [0, 1), got {self.adam_betas}")
            if not (np.isfinite(self.adam_eps) and self.adam_eps > 0):
                raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")
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
    members: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    policy: UpdatePolicy

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"group {self.id!r} has no members")
        if len(self.members) != len(self.shapes):
            raise ValueError(f"group {self.id!r}: members/shapes length mismatch")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"group {self.id!r} repeats a member")
        if self.policy.optimizer == TEON:
            if len(set(self.shapes)) != 1 or len(self.shapes[0]) != 2:
                raise ValueError(
                    f"group {self.id!r}: stacked members must share one (m, n) shape, "
                    f"got {self.shapes}"
                )
        elif len(self.members) != 1:
            raise ValueError(f"group {self.id!r}: muon and adamw groups hold one parameter")
        elif len(self.shapes[0]) not in (1, 2):
            raise ValueError(f"group {self.id!r}: only 1-D and 2-D shapes, got {self.shapes}")
        elif len(self.shapes[0]) == 1 and self.policy.optimizer != ADAMW:
            raise ValueError(f"group {self.id!r}: vectors use adamw")

    @property
    def kind(self) -> str:
        """TENSOR_GROUP under a teon policy, else VECTOR_ADAMW for a 1-D
        member and MATRIX_SINGLE for a matrix."""
        if self.policy.optimizer == TEON:
            return TENSOR_GROUP
        return VECTOR_ADAMW if len(self.shapes[0]) == 1 else MATRIX_SINGLE

    @property
    def depth(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class UpdateClass:
    """Groups stepped as one: they share a policy, a slice shape and a depth
    K, so their stacks form one (G, K) + slice shape arena, `groups[i]` at
    `arena[i]`. `members` lists every member name in arena order; `id`,
    `policy` and `kind` (the update path, which the benchmark's trace reads)
    are the first group's."""

    groups: tuple[ParamGroup, ...]
    id: str = field(init=False)
    members: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("an update class needs at least one group")
        head = self.groups[0]
        for g in self.groups[1:]:
            if g.policy != head.policy or g.shapes[0] != head.shapes[0] or g.depth != head.depth:
                raise ValueError(
                    f"group {g.id!r} does not share the policy, slice shape and depth "
                    f"of {head.id!r}"
                )
        object.__setattr__(self, "id", head.id)
        object.__setattr__(self, "members", tuple(nm for g in self.groups for nm in g.members))

    @property
    def policy(self) -> UpdatePolicy:
        return self.groups[0].policy

    @property
    def kind(self) -> str:
        return self.groups[0].kind

    def stack(self, arrays: dict) -> np.ndarray:
        """The class's arena: the members' arrays from `arrays` (keyed by
        name) stacked as (G, K) + their shape, group i at index i. A member
        whose shape is not the class's slice shape raises ValueError naming
        its group, which is also the error's `group` attribute."""
        try:
            slices = np.stack([arrays[nm] for nm in self.members])
        except ValueError:  # only a failed stack pays for finding the member
            shape = self.groups[0].shapes[0]
            for g in self.groups:
                for nm in g.members:
                    if np.shape(arrays[nm]) != shape:
                        error = ValueError(
                            f"group {g.id!r}: member {nm!r} has shape {np.shape(arrays[nm])}, "
                            f"not the class's slice shape {shape}"
                        )
                        error.group = g.id
                        raise error from None
            raise
        return slices.reshape(len(self.groups), -1, *slices.shape[1:])


class OptimizerState(NamedTuple):
    """A class's immutable state after `t` committed steps, its buffers shaped
    like its arena: the rules return a new one, which `apply_group_step`
    commits. Buffers are None until the first step (equivalent to zeros at
    t=0) and may never change shape."""

    t: int = 0
    momentum: np.ndarray | None = None
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None


def _shrink(w: np.ndarray, weight_decay: float, eta: float) -> np.ndarray:
    if weight_decay > 0:
        return (1.0 - eta * weight_decay) * w
    return w


def ortho_step(
    gs: np.ndarray, state: OptimizerState, policy: UpdatePolicy, eta: float
) -> tuple[np.ndarray, OptimizerState]:
    """One orthogonalized step from a (G, K, m, n) gradient arena at step size
    `eta`: update the momentum arena once, orthogonalize each group's
    mode-`policy.mode` unfolding (mode 1 for muon, whose groups have K=1),
    fold back, and return `(eta * sqrt(m / n)) * O_t` with the advanced
    state. Plain arithmetic: an overflow follows the caller's `np.errstate`,
    as NumPy's own functions do."""
    if policy.optimizer == ADAMW:
        raise ValueError("ortho_step needs a muon or teon policy, got 'adamw'")
    gs = np.asarray(gs, dtype=np.float64)
    if gs.ndim != 4:
        raise ValueError(f"ortho_step needs a (G, K, m, n) gradient arena, got ndim={gs.ndim}")
    _, k, m, n = gs.shape  # slice dims m, n, not the unfolded ones
    if len(gs) == 0:
        raise ValueError("ortho_step needs a gradient arena of at least one group")
    if policy.optimizer == MUON and k != 1:
        raise ValueError(f"a muon policy updates one matrix (K=1) per group, got K={k}")
    buf = state.momentum
    if buf is None:
        buf = np.zeros_like(gs)
    elif buf.shape != gs.shape:
        raise ValueError(
            f"momentum buffer shape {buf.shape} does not match gradient shape {gs.shape}"
        )
    # into a new arena: the state's buffer is never written, and the
    # momentum needs no second arena-sized temporary
    buf = policy.mu * buf
    buf += gs if policy.momentum_style == ACCUMULATE else (1.0 - policy.mu) * gs
    mode = policy.mode or 1
    scale, step = eta * np.sqrt(m / n), None
    for i in range(len(gs)):
        o = apply_ortho(matricize(buf[i], mode), policy.scheme)
        # allocated once the first polar factor exists, as a lone group's step
        # always was: lanes that run NS side by side hold no idle step arena
        step = np.empty_like(gs) if step is None else step
        np.multiply(scale, fold(o, mode, (k, m, n)), out=step[i])
    return step, OptimizerState(state.t + 1, buf)


def adamw_step(
    g: np.ndarray, state: OptimizerState, policy: UpdatePolicy, eta: float
) -> tuple[np.ndarray, OptimizerState]:
    """Bias-corrected adaptive step of any shape at step size `eta`, with the
    advanced state. An overflow follows the caller's `np.errstate`."""
    if policy.optimizer != ADAMW:
        raise ValueError(f"adamw_step needs an adamw policy, got {policy.optimizer!r}")
    g = np.asarray(g, dtype=np.float64)
    m, v = state.exp_avg, state.exp_avg_sq
    if m is None:
        m = v = np.zeros_like(g)
    elif m.shape != g.shape:
        raise ValueError(f"moment buffer shape {m.shape} does not match gradient shape {g.shape}")
    b1, b2 = policy.adam_betas
    t = state.t + 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    num = m / (1.0 - b1**t)
    den = np.sqrt(v / (1.0 - b2**t)) + policy.adam_eps
    return eta * (num / den), OptimizerState(t, exp_avg=m, exp_avg_sq=v)


# ------------------------------------------------------------------ grouping


@dataclass(frozen=True)
class LayoutEntry:
    """One named parameter of a model: 2-D entries are matrices eligible for
    stacking (by role, across block indices); 1-D entries are vectors."""

    name: str
    role: str
    shape: tuple[int, ...]
    block: int | None = None


def expand_stack_set(stack_set) -> tuple[str, ...]:
    """The matrix roles that the `stack_set` tokens cover, in STACK_TOKENS order
    whatever the token order. An unknown or repeated token raises ValueError."""
    tokens = list(stack_set)
    for i, token in enumerate(tokens):
        if token not in STACK_TOKENS:
            raise ValueError(
                f"stack_set token {token!r} is unknown; valid: {sorted(STACK_TOKENS)}"
            )
        if token in tokens[:i]:
            raise ValueError(f"stack_set repeats token {token!r}")
    return tuple(r for token, roles in STACK_TOKENS.items() if token in tokens for r in roles)


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
    muon group, and 1-D parameters go to adamw. A token that covers no blocked
    matrix raises ValueError. Muon/adamw policies ignore `stack_set`.
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
        tokens = tuple(stack_set)
        layout_roles = tuple(dict.fromkeys(e.role for e in matrices if e.block is not None))
        for token, covered in STACK_TOKENS.items():
            if token in tokens and not set(covered) & set(layout_roles):
                raise ValueError(
                    f"stack_set token {token!r} covers no blocked matrix of the layout, "
                    f"whose roles are {layout_roles}"
                )
        for role in expand_stack_set(tokens):
            blocked = [e for e in matrices if e.role == role and e.block is not None]
            blocked.sort(key=lambda e: e.block)
            seen_blocks = [e.block for e in blocked]
            if len(set(seen_blocks)) != len(seen_blocks):
                raise ValueError(f"role {role!r} repeats a block index")
            for lo in range(0, len(blocked), K):
                chunk = blocked[lo : lo + K]
                shapes = tuple(e.shape for e in chunk)
                gid = f"{role.lower()}.blocks{chunk[0].block}-{chunk[-1].block}"
                groups.append(ParamGroup(gid, tuple(e.name for e in chunk), shapes, policy))
                stacked.update(e.name for e in chunk)
        lone_policy = policy.as_muon()
    else:
        lone_policy = policy  # muon, or adamw everywhere

    for e in matrices:
        if e.name in stacked:
            continue
        groups.append(ParamGroup(e.name, (e.name,), (e.shape,), lone_policy))
    for e in vectors:
        groups.append(ParamGroup(e.name, (e.name,), (e.shape,), adamw_policy))
    return groups


def member_views(arenas: dict, classes) -> dict:
    """Each member name mapped to its slice of `arenas[c.id]`, a view: the
    i-th of `c.members` is `arena[divmod(i, K)]`. Classes whose arena is
    missing or None are skipped."""
    live = [(c, arenas[c.id]) for c in classes if arenas.get(c.id) is not None]
    return {nm: a[divmod(i, a.shape[1])] for c, a in live for i, nm in enumerate(c.members)}


def _class_step(cls: UpdateClass, w, g, state, eta) -> tuple[np.ndarray, OptimizerState]:
    """The class's new arena and state, uncommitted; an error names the class's
    first group, a FloatingPointError also the committed optimizer step."""
    if w.dtype != np.float64:
        raise ValueError(f"group {cls.id!r}: weights must be float64, got {w.dtype}")
    if g.shape != w.shape:
        raise ValueError(f"group {cls.id!r}: gradient shape {g.shape} does not match {w.shape}")
    pol = cls.policy
    try:
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient rejected at step {state.t}")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if pol.optimizer == ADAMW:
                step, new_state = adamw_step(g, state, pol, eta)
            else:
                step, new_state = ortho_step(g, state, pol, eta)
            # into the step's own arena, which no one else holds
            new = np.subtract(_shrink(w, pol.weight_decay, eta), step, out=step)
    except FloatingPointError as exc:
        raise FloatingPointError(f"group {cls.id!r} at optimizer step {state.t}: {exc}") from exc
    return new, new_state


def apply_group_step(
    params: dict, grads: dict, cls: UpdateClass, states: dict, lr_factor=1.0
) -> None:
    """The one place that writes an arena or a state. Checks that the float64
    arena `params[cls.id]` and `grads[cls.id]` share a shape and that the
    gradient is finite, takes the `adamw_step` or `ortho_step` from it and
    `states[cls.id]` at `eta = cls.policy.eta * lr_factor` and applies decay
    and step; only then overwrites the arena in place and stores the new
    state. Another dtype or shape raises ValueError; a non-finite gradient, a
    diverging Newton-Schulz run or an overflow (under its own errstate)
    raises FloatingPointError naming a group and its committed optimizer
    step; either leaves every arena and state untouched. When a class fails,
    its groups are stepped alone, in order and uncommitted, each on its
    `[i:i+1]` of the arenas and state buffers, and the first that fails
    raises: the error, and the group, that stepping the groups one by one
    meets first. Its `group` attribute is that group's id."""
    w, g, state = params[cls.id], grads[cls.id], states[cls.id]
    eta = cls.policy.eta * lr_factor
    try:
        new, new_state = _class_step(cls, w, g, state, eta)
    except Exception as exc:
        error = exc
    else:
        w[...] = new
        states[cls.id] = new_state
        return
    for i, group in enumerate(cls.groups):
        part = OptimizerState(state.t, *(b if b is None else b[i : i + 1] for b in state[1:]))
        try:
            _class_step(UpdateClass((group,)), w[i : i + 1], g[i : i + 1], part, eta)
        except Exception as exc:
            exc.group = group.id
            raise
    error.group = cls.id  # pragma: no cover - a failure that no group meets alone
    raise error
