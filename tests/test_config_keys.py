"""Config keys at the boundary: each key takes its type and default from the
parameter it fills (a task constructor's, RunConfig's or UpdatePolicy's), and
a bad value for any key of a shipped config fails closed, with an error that
names its section and key.

The fuzz test replaces one value of one shipped config at a time with each
of `BAD_VALUES`. Parsing either succeeds or raises ValueError containing
`[section] key` as written in the file; a parsed variant, run for at most 3
steps, finishes or raises ValueError, FloatingPointError or RuntimeError.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from teon.config import _MISSING, _SECTIONS, _task_keys, parse_config_text
from teon.runner import run
from teon.tasks import TASKS

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
BAD_VALUES = (
    "nan", "inf", "-inf", "-1", "0", "1e309", "", "abc", "9" * 20, "-0.5", "2.5", "1e-320", "1",
)  # fmt: skip
RUN_ERRORS = (ValueError, FloatingPointError, RuntimeError)


def test_task_keys_are_the_constructor_parameters_but_seed():
    required = (int, _MISSING)
    assert {name: _task_keys(cls) for name, cls in TASKS.items()} == {
        "quadratic": {"m": required, "n": required, "K": required},
        "aligned_quadratic": {"m": required, "n": required, "K": required, "c": (float, 1.5)},
        "deep_linear": {"depth": required, "width": required, "batch": required},
        "micro_attention": {
            "dim": required, "seq": required, "batch": required, "blocks": required,
        },  # fmt: skip
    }


def test_section_keys_are_run_config_and_policy_parameters():
    required = _MISSING
    assert _SECTIONS == {
        "run": {
            "task": (str, required),
            "steps": (int, required),
            "seed": (int, required),
            "out_path": (str, required),
            "log_every": (int, 10),
            "align_every": (int, 50),
            "log_timing": (bool, False),
        },
        "task": None,
        "optimizer": {
            "optimizer": (str, required),
            "eta": (float, required),
            "mode": (int | None, None),
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
        },
        "grouping": {"K": (int, 2), "stack_set": (tuple[str, ...], ("QKV",))},
        "schedule": {"kind": (str, "constant"), "warmup_ratio": (float, 0.0)},
    }


@pytest.mark.parametrize(
    "old,new,message",
    [
        (
            "ns_preset = jordan",
            "ns_preset = jordn",
            "[optimizer] ns_preset must be one of ['cubic', 'jordan', 'polar-express', 'you'], "
            "got 'jordn'",
        ),
        ("kind = linear_warmup", "kind = cosin", "[schedule] kind: unknown schedule 'cosin'; "),
        ("adam_eta = 0.005", "adam_eta = nan", "[optimizer] adam_eta must be positive and finite"),
    ],
    ids=["ns_preset", "kind", "adam_eta"],
)
def test_a_bad_value_names_its_section_and_key(old, new, message):
    text = (CONFIGS[0].parent / "micro_attention_teon.ini").read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(ValueError, match=re.escape(f"bad.ini: {message}")):
        parse_config_text(text.replace(old, new), source="bad.ini")


def _variants(text: str):
    """(section, key, value, text) for each key line of `text` and each bad value."""
    lines, section = text.splitlines(), None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line and not line.startswith("#"):
            key = line.split(" = ")[0]
            for value in BAD_VALUES:
                variant = [*lines[:i], f"{key} = {value}", *lines[i + 1 :]]
                yield section, key, value, "\n".join(variant)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_a_bad_value_fails_closed_naming_its_key(tmp_path, path):
    for section, key, value, text in _variants(path.read_text(encoding="utf-8")):
        case = f"{path.name} [{section}] {key} = {value!r}"
        try:
            cfg = parse_config_text(text, source="fuzz.ini")
        except ValueError as exc:
            assert f"[{section}] {key}" in str(exc), f"{case}: {exc}"
            continue
        cfg = replace(cfg, steps=min(cfg.steps, 3), out_path=str(tmp_path / "run"))
        try:
            run(cfg, write=False)
        except RUN_ERRORS:
            pass
        except Exception as exc:
            pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
