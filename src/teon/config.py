"""Run configuration: INI-style text with fixed sections and fail-closed
key validation.

Sections: [run] (task/steps/seed/output), [task] (the task constructor's
parameters but `seed`, typed by their annotations, with their defaults),
[optimizer] (UpdatePolicy fields), and optional [grouping] / [schedule].
Unknown sections or keys are errors naming the offending section and key;
type errors name the key and the raw value. Low-level syntax errors keep
configparser's line numbers.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
from dataclasses import dataclass, field, replace

from .optim import ADAMW, UpdatePolicy, expand_stack_set
from .ortho import PRESETS, OrthoScheme
from .tasks import TASK_NAMES, TASKS

__all__ = [
    "SCHEDULES",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "config_hash",
]

SCHEDULES = ("constant", "cosine", "linear_warmup")

_MISSING = object()

# key -> (type, default); _MISSING marks required keys
_RUN_KEYS = {
    "task": (str, _MISSING),
    "steps": (int, _MISSING),
    "seed": (int, _MISSING),
    "out_path": (str, _MISSING),
    "log_every": (int, 10),
    "align_every": (int, 50),
    "log_timing": (bool, False),
}
_OPTIMIZER_KEYS = {
    "optimizer": (str, _MISSING),
    "eta": (float, _MISSING),
    "mode": (int, None),
    "mu": (float, 0.95),
    "momentum_style": (str, "accumulate"),
    "scheme": (str, "exact"),
    "ns_steps": (int, 5),
    "ns_preset": (str, "jordan"),
    "weight_decay": (float, 0.0),
    "adam_eta": (float, None),
    "adam_beta1": (float, 0.9),
    "adam_beta2": (float, 0.999),
    "adam_eps": (float, 1e-8),
}
# The largest [task] integer: the biggest size the harness or its tests run
# is 128 (dim of the attn128_train benchmark), and 1024 leaves 8x room above
# it; a larger value is a typo or far beyond a float64 desk-scale run, and
# it would fail only in the task's allocation, without naming its key.
_TASK_DIM_MAX = 1024
_GROUPING_KEYS = {"K": (int, 2), "stack_set": (str, "QKV")}
_SCHEDULE_KEYS = {"kind": (str, "constant"), "warmup_ratio": (float, 0.0)}

_SECTIONS = {
    "run": _RUN_KEYS,
    "task": None,  # the [run] task's constructor: _task_keys
    "optimizer": _OPTIMIZER_KEYS,
    "grouping": _GROUPING_KEYS,
    "schedule": _SCHEDULE_KEYS,
}
_REQUIRED_SECTIONS = ("run", "task", "optimizer")


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
            raise ValueError(f"unknown task {self.task!r}; valid: {TASK_NAMES}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.log_every < 1 or self.align_every < 1:
            raise ValueError("log_every and align_every must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"[schedule] kind: unknown schedule {self.schedule!r}; valid: {SCHEDULES}"
            )
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError(f"warmup_ratio must lie in [0, 1], got {self.warmup_ratio}")
        if self.schedule == "constant" and self.warmup_ratio != 0.0:
            raise ValueError("constant schedule takes no warmup_ratio")
        if self.group_k < 1:
            raise ValueError(f"grouping K must be >= 1, got {self.group_k}")
        expand_stack_set(self.stack_set)
        for key, val in self.task_params.items():
            if isinstance(val, int) and not 1 <= val <= _TASK_DIM_MAX:
                raise ValueError(f"[task] {key} must lie in [1, {_TASK_DIM_MAX}], got {val}")
        if self.adamw_policy.optimizer != ADAMW:
            raise ValueError("adamw_policy must be an adamw policy")


def _task_keys(cls) -> dict:
    """The [task] schema of a task class: its constructor's parameters but
    `seed`, each typed by its annotation; one with no default is required."""
    return {
        p.name: (p.annotation, _MISSING if p.default is p.empty else p.default)
        for p in inspect.signature(cls, eval_str=True).parameters.values()
        if p.name != "seed"
    }


def _cast(raw: str, typ, source: str, section: str, key: str):
    raw = raw.strip()
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
    name = opt["optimizer"]
    for key in ("adam_beta1", "adam_beta2"):
        if not 0.0 <= opt[key] < 1.0:  # named here: the policy knows only the pair
            raise ValueError(f"{source}: [optimizer] {key} must lie in [0, 1), got {opt[key]}")
    betas = (opt["adam_beta1"], opt["adam_beta2"])
    if opt["adam_eta"] is not None and not 0.0 < opt["adam_eta"] < float("inf"):
        # named here: the adamw policy calls it eta
        raise ValueError(
            f"{source}: [optimizer] adam_eta must be positive and finite, got {opt['adam_eta']}"
        )
    adam_eta = opt["adam_eta"] if opt["adam_eta"] is not None else opt["eta"]
    try:
        adamw_policy = UpdatePolicy.adamw(
            adam_eta,
            weight_decay=opt["weight_decay"],
            adam_betas=betas,
            adam_eps=opt["adam_eps"],
        )
        if name == ADAMW:
            banned = {"mode", "mu", "momentum_style", "scheme", "ns_steps", "ns_preset"}
            for key in sorted(banned & present):
                raise ValueError(f"{source}: [optimizer] {key} does not apply to adamw")
            return replace(adamw_policy, eta=opt["eta"]), adamw_policy
        if opt["scheme"] == "exact":
            for key in sorted({"ns_steps", "ns_preset"} & present):
                raise ValueError(
                    f"{source}: [optimizer] {key} applies to scheme=newton_schulz only"
                )
            scheme = OrthoScheme.exact()
        elif opt["scheme"] == "newton_schulz":
            if opt["ns_preset"] not in PRESETS:  # named here: the scheme names no key
                raise ValueError(
                    f"unknown Newton-Schulz preset {opt['ns_preset']!r} in [optimizer] "
                    f"ns_preset; valid: {sorted(PRESETS)}"
                )
            scheme = OrthoScheme.newton_schulz(opt["ns_steps"], preset=opt["ns_preset"])
        else:
            raise ValueError(
                f"{source}: [optimizer] scheme must be exact or newton_schulz, "
                f"got {opt['scheme']!r}"
            )
        main = UpdatePolicy(
            name,
            opt["eta"],
            mode=opt["mode"],
            mu=opt["mu"],
            momentum_style=opt["momentum_style"],
            scheme=scheme,
            weight_decay=opt["weight_decay"],
            adam_betas=betas,
            adam_eps=opt["adam_eps"],
        )
    except ValueError as exc:
        msg = str(exc)
        if msg.startswith(source):
            raise
        raise ValueError(f"{source}: [optimizer] {msg}") from None
    return main, adamw_policy


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

    run, _ = _parse_section(cp, "run", _RUN_KEYS, source)
    if run["task"] not in TASK_NAMES:
        raise ValueError(
            f"{source}: [run] task must be one of {TASK_NAMES}, got {run['task']!r}"
        )
    task_params, _ = _parse_section(cp, "task", _task_keys(TASKS[run["task"]]), source)
    opt, opt_present = _parse_section(cp, "optimizer", _OPTIMIZER_KEYS, source)
    grouping, _ = _parse_section(cp, "grouping", _GROUPING_KEYS, source)
    schedule, _ = _parse_section(cp, "schedule", _SCHEDULE_KEYS, source)

    policy, adamw_policy = _build_policies(opt, opt_present, source)
    stack_set = tuple(tok.strip() for tok in grouping["stack_set"].split(",") if tok.strip())
    try:
        cfg = RunConfig(
            task=run["task"],
            steps=run["steps"],
            seed=run["seed"],
            out_path=run["out_path"],
            policy=policy,
            adamw_policy=adamw_policy,
            task_params=task_params,
            group_k=grouping["K"],
            stack_set=stack_set,
            schedule=schedule["kind"],
            warmup_ratio=schedule["warmup_ratio"],
            log_every=run["log_every"],
            align_every=run["align_every"],
            log_timing=run["log_timing"],
        )
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
