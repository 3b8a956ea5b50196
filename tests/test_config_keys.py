"""Config keys at the boundary: each task's `[task]` keys are its constructor's
parameters, and a bad value for any key of a shipped config fails closed,
with an error that names the key.

The fuzz test replaces one value of one shipped config at a time with each
of `BAD_VALUES`. Parsing either succeeds or raises ValueError naming the key
as written in the file; a parsed variant, run for at most 3 steps, finishes
or raises ValueError, FloatingPointError or RuntimeError.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from teon.config import _MISSING, _task_keys, parse_config_text
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


@pytest.mark.parametrize(
    "old,new,message",
    [
        (
            "ns_preset = jordan",
            "ns_preset = jordn",
            "[optimizer] unknown Newton-Schulz preset 'jordn' in [optimizer] ns_preset; valid: ",
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
            assert re.search(rf"(?<!\w){re.escape(key)}(?!\w)", str(exc)), f"{case}: {exc}"
            continue
        cfg = replace(cfg, steps=min(cfg.steps, 3), out_path=str(tmp_path / "run"))
        try:
            run(cfg, write=False)
        except RUN_ERRORS:
            pass
        except Exception as exc:
            pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
