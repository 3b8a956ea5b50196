"""Run configuration: INI-style text with fixed sections and fail-closed
key validation.

Each key takes its type and its default from the parameter it fills:
[run] (task/steps/seed/output), [grouping] and [schedule] from RunConfig's,
[task] from the task constructor's (every parameter but `seed`), and the
[optimizer] keys that UpdatePolicy declares from its own; the other
[optimizer] keys (the scheme's, adam_eta and the two adam betas) are listed
here. Unknown sections or keys are errors naming the offending section and
key; type errors name the key and the raw value. Low-level syntax errors
keep configparser's line numbers.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import types
from dataclasses import dataclass, field, replace
from typing import get_origin

from .optim import ADAMW, UpdatePolicy, expand_stack_set
from .ortho import OrthoScheme
from .tasks import TASK_NAMES, TASKS

__all__ = [
    "SCHEDULES",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "config_hash",
]

SCHEDULES = ("constant", "cosine", "linear_warmup")

_MISSING = inspect.Parameter.empty  # the default of a required key

# The largest [task] integer: the biggest size the harness or its tests run
# is 128 (dim of the attn128_train benchmark), and 1024 leaves 8x room above
# it; a larger value is a typo or far beyond a float64 desk-scale run, and
# it would fail only in the task's allocation, without naming its key.
_TASK_DIM_MAX = 1024


@dataclass(frozen=True)
class RunConfig:
    task: str
    steps: int
    seed: int
    out_path: str
    policy: UpdatePolicy
    adamw_policy: UpdatePolicy
    task_params: dict = field(default_factory=dict)
    group_k: int = 2
    stack_set: tuple[str, ...] = ("QKV",)
    schedule: str = "constant"
    warmup_ratio: float = 0.0
    log_every: int = 10
    align_every: int = 50
    log_timing: bool = False

    def __post_init__(self):
        if self.task not in TASK_NAMES:
            raise ValueError(f"[run] task must be one of {TASK_NAMES}, got {self.task!r}")
        if self.steps < 1:
            raise ValueError(f"[run] steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"[run] seed must be a nonnegative integer, got {self.seed}")
        if self.log_every < 1:
            raise ValueError(f"[run] log_every must be >= 1, got {self.log_every}")
        if self.align_every < 1:
            raise ValueError(f"[run] align_every must be >= 1, got {self.align_every}")
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"[schedule] kind: unknown schedule {self.schedule!r}; valid: {SCHEDULES}"
            )
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError(
                f"[schedule] warmup_ratio must lie in [0, 1], got {self.warmup_ratio}"
            )
        if self.schedule == "constant" and self.warmup_ratio != 0.0:
            raise ValueError(
                f"[schedule] warmup_ratio must be 0 under kind constant, got {self.warmup_ratio}"
            )
        if self.group_k < 1:
            raise ValueError(f"[grouping] K must be >= 1, got {self.group_k}")
        try:
            expand_stack_set(self.stack_set)
        except ValueError as exc:
            raise ValueError(f"[grouping] {exc}") from None
        for key, val in self.task_params.items():
            if isinstance(val, int) and not 1 <= val <= _TASK_DIM_MAX:
                raise ValueError(f"[task] {key} must lie in [1, {_TASK_DIM_MAX}], got {val}")
        if self.adamw_policy.optimizer != ADAMW:
            raise ValueError("adamw_policy must be an adamw policy")


def _keys(cls, keys: dict) -> dict:
    """The schema of the INI keys in `keys`, a map from each key to the
    parameter of `cls`'s constructor it fills: key -> (the parameter's
    annotation, its default), a parameter with none giving a required key."""
    params = inspect.signature(cls, eval_str=True).parameters
    return {key: (params[p].annotation, params[p].default) for key, p in keys.items()}


def _task_keys(cls) -> dict:
    """The [task] schema of a task class: its constructor's parameters but `seed`."""
    return _keys(cls, {p: p for p in inspect.signature(cls).parameters if p != "seed"})


# section -> {INI key: the RunConfig parameter it fills}
_RUN_FIELDS = {
    "run": {k: k for k in "task steps seed out_path log_every align_every log_timing".split()},
    "grouping": {"K": "group_k", "stack_set": "stack_set"},
    "schedule": {"kind": "schedule", "warmup_ratio": "warmup_ratio"},
}
_POLICY_KEYS = ("optimizer", "eta", "mode", "mu", "momentum_style", "weight_decay", "adam_eps")
_BETA1, _BETA2 = inspect.signature(UpdatePolicy).parameters["adam_betas"].default
_SECTIONS = {
    **{name: _keys(RunConfig, keys) for name, keys in _RUN_FIELDS.items()},
    "task": None,  # the [run] task's constructor: _task_keys
    "optimizer": {
        **_keys(UpdatePolicy, {k: k for k in _POLICY_KEYS}),
        # keys that no UpdatePolicy parameter declares
        "scheme": (str, "exact"),
        "ns_steps": (int, 5),
        "ns_preset": (str, "jordan"),
        "adam_eta": (float, None),
        "adam_beta1": (float, _BETA1),
        "adam_beta2": (float, _BETA2),
    },
}
_REQUIRED_SECTIONS = ("run", "task", "optimizer")


def _cast(raw: str, typ, source: str, section: str, key: str):
    raw = raw.strip()
    if isinstance(typ, types.UnionType):  # X | None: None is a default, never a value
        (typ,) = (t for t in typ.__args__ if t is not type(None))
    if get_origin(typ) is tuple:  # comma-separated tokens; blanks are dropped
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if typ is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ValueError(f"{source}: [{section}] {key}: expected true/false, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(
            f"{source}: [{section}] {key}: expected {typ.__name__}, got {raw!r}"
        ) from None


def _parse_section(cp, name: str, schema: dict, source: str):
    """Returns (values, keys-explicitly-present)."""
    values, present = {}, set()
    section = cp[name] if cp.has_section(name) else {}
    for key in section:
        if key not in schema:
            raise ValueError(
                f"{source}: [{name}] unknown key {key!r}; valid: {sorted(schema)}"
            )
    for key, (typ, default) in schema.items():
        if key in section:
            values[key] = _cast(section[key], typ, source, name, key)
            present.add(key)
        elif default is _MISSING:
            raise ValueError(f"{source}: [{name}] missing required key {key!r}")
        else:
            values[key] = default
    return values, present


def _build_policies(opt: dict, present: set, source: str):
    """(the main policy, the adamw policy of vectors) from the [optimizer]
    values; every error is prefixed `<source>: [optimizer]`."""
    try:
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= opt[key] < 1.0:  # named here: the policy knows only the pair
                raise ValueError(f"{key} must lie in [0, 1), got {opt[key]}")
        betas = (opt["adam_beta1"], opt["adam_beta2"])
        if opt["adam_eta"] is not None and not 0.0 < opt["adam_eta"] < float("inf"):
            # named here: the adamw policy calls it eta
            raise ValueError(f"adam_eta must be positive and finite, got {opt['adam_eta']}")
        adamw_policy = UpdatePolicy.adamw(
            opt["eta"] if opt["adam_eta"] is None else opt["adam_eta"],
            weight_decay=opt["weight_decay"],
            adam_betas=betas,
            adam_eps=opt["adam_eps"],
        )
        if opt["optimizer"] == ADAMW:
            banned = {"mode", "mu", "momentum_style", "scheme", "ns_steps", "ns_preset"}
            for key in sorted(banned & present):
                raise ValueError(f"{key} does not apply to adamw")
            return replace(adamw_policy, eta=opt["eta"]), adamw_policy
        if opt["scheme"] == "exact":
            for key in sorted({"ns_steps", "ns_preset"} & present):
                raise ValueError(f"{key} applies to scheme=newton_schulz only")
            scheme = OrthoScheme.exact()
        elif opt["scheme"] == "newton_schulz":
            scheme = OrthoScheme.newton_schulz(opt["ns_steps"], preset=opt["ns_preset"])
        else:
            raise ValueError(f"scheme must be exact or newton_schulz, got {opt['scheme']!r}")
        policy = UpdatePolicy(
            **{key: opt[key] for key in _POLICY_KEYS}, scheme=scheme, adam_betas=betas
        )
    except ValueError as exc:
        raise ValueError(f"{source}: [optimizer] {exc}") from None
    return policy, adamw_policy


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), strict=True, interpolation=None
    )
    cp.optionxform = str  # keep key case (K vs k)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ValueError(f"config syntax error: {exc}") from None
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(
                f"{source}: unknown section [{name}]; valid: {sorted(_SECTIONS)}"
            )
    for name in _REQUIRED_SECTIONS:
        if not cp.has_section(name):
            raise ValueError(f"{source}: missing required section [{name}]")

    run, _ = _parse_section(cp, "run", _SECTIONS["run"], source)
    if run["task"] not in TASK_NAMES:
        raise ValueError(
            f"{source}: [run] task must be one of {TASK_NAMES}, got {run['task']!r}"
        )
    task_params, _ = _parse_section(cp, "task", _task_keys(TASKS[run["task"]]), source)
    opt, opt_present = _parse_section(cp, "optimizer", _SECTIONS["optimizer"], source)
    sections = {"run": run}
    for name in ("grouping", "schedule"):
        sections[name], _ = _parse_section(cp, name, _SECTIONS[name], source)

    policy, adamw_policy = _build_policies(opt, opt_present, source)
    fields = {p: sections[name][k] for name, keys in _RUN_FIELDS.items() for k, p in keys.items()}
    try:
        cfg = RunConfig(policy=policy, adamw_policy=adamw_policy, task_params=task_params, **fields)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    try:  # after RunConfig, which bounds every [task] integer
        TASKS[cfg.task].check_params(**cfg.task_params)
    except ValueError as exc:
        raise ValueError(f"{source}: [task] {exc}") from None
    return cfg


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def config_hash(cfg: RunConfig) -> str:
    """Stable short id for sweep summaries (content hash of all fields)."""
    canon = repr(
        (
            cfg.task,
            cfg.steps,
            cfg.seed,
            sorted(cfg.task_params.items()),
            cfg.policy,
            cfg.adamw_policy,
            cfg.group_k,
            cfg.stack_set,
            cfg.schedule,
            cfg.warmup_ratio,
            cfg.log_every,
            cfg.align_every,
        )
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:10]
