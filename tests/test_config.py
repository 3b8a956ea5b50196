"""Config parsing: fail-closed sections/keys, typed casts, policy wiring."""

from dataclasses import fields, replace

import pytest

from teon.config import RunConfig, SCHEDULES, config_hash, parse_config, parse_config_text
from teon.config import _TASK_DIM_MAX
from teon.optim import ADAMW, MUON, TEON, UpdatePolicy
from teon import ortho
from teon.ortho import _NS_STEPS_MAX, OrthoScheme

MINIMAL = """
[run]
task = quadratic
steps = 5
seed = 0
out_path = /tmp/cfg_test

[task]
m = 4
n = 3
K = 4

[optimizer]
optimizer = teon
eta = 0.1
mode = 1
"""


def test_minimal_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.task == "quadratic"
    assert cfg.steps == 5 and cfg.seed == 0
    assert cfg.task_params == {"m": 4, "n": 3, "K": 4}
    assert cfg.group_k == 2
    assert cfg.stack_set == ("QKV",)
    assert cfg.schedule == "constant" and cfg.warmup_ratio == 0.0
    assert cfg.log_every == 10 and cfg.align_every == 50
    assert cfg.log_timing is False
    assert cfg.policy.optimizer == TEON and cfg.policy.mode == 1
    assert cfg.policy.mu == 0.95
    assert cfg.policy.momentum_style == "accumulate"
    assert cfg.policy.scheme.kind == OrthoScheme.EXACT
    # adamw side policy inherits eta when adam_eta is absent
    assert cfg.adamw_policy.optimizer == ADAMW
    assert cfg.adamw_policy.eta == 0.1
    assert cfg.adamw_policy.adam_betas == (0.9, 0.999)


def test_full_config_round_trip():
    text = """
[run]
task = micro_attention
steps = 40
seed = 7
out_path = /tmp/full_cfg
log_every = 4
align_every = 8
log_timing = true

[task]
dim = 8
seq = 5
batch = 3
blocks = 2

[optimizer]
optimizer = teon
eta = 0.05          # peak rate
mode = 2
mu = 0.9
momentum_style = ema
scheme = newton_schulz
ns_steps = 7
ns_preset = cubic
weight_decay = 0.01
adam_eta = 0.001

[grouping]
K = 2
stack_set = QKV, MLP1

[schedule]
kind = cosine
warmup_ratio = 0.1
"""
    cfg = parse_config_text(text)
    assert cfg.task == "micro_attention"
    assert cfg.log_timing is True
    assert cfg.policy.mode == 2 and cfg.policy.mu == 0.9
    assert cfg.policy.momentum_style == "ema"
    assert cfg.policy.scheme.kind == OrthoScheme.NEWTON_SCHULZ
    assert cfg.policy.scheme.steps == 7
    assert cfg.policy.scheme.preset_name == "cubic"
    assert cfg.policy.weight_decay == 0.01
    assert cfg.adamw_policy.eta == 0.001
    assert cfg.adamw_policy.weight_decay == 0.01
    assert cfg.stack_set == ("QKV", "MLP1")
    assert cfg.schedule == "cosine" and cfg.warmup_ratio == 0.1


def test_parse_config_reads_file_and_names_it_in_errors(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.steps == 5

    path.write_text(MINIMAL.replace("steps = 5", "steps = abc"), encoding="utf-8")
    with pytest.raises(ValueError, match=r"run\.ini.*\[run\] steps: expected int, got 'abc'"):
        parse_config(path)


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match=r"unknown section \[extras\]"):
        parse_config_text(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_missing_required_section():
    text = MINIMAL.replace("[optimizer]\noptimizer = teon\neta = 0.1\nmode = 1", "")
    with pytest.raises(ValueError, match=r"missing required section \[optimizer\]"):
        parse_config_text(text)


def test_unknown_key_names_section_and_key():
    with pytest.raises(ValueError, match=r"\[run\] unknown key 'fancy'"):
        parse_config_text(MINIMAL.replace("seed = 0", "seed = 0\nfancy = 1"))


def test_missing_required_key():
    with pytest.raises(ValueError, match=r"\[task\] missing required key 'K'"):
        parse_config_text(MINIMAL.replace("K = 4\n", ""))


def test_bool_cast_is_strict():
    bad = MINIMAL.replace("seed = 0", "seed = 0\nlog_timing = yes")
    with pytest.raises(ValueError, match="expected true/false, got 'yes'"):
        parse_config_text(bad)


def test_float_cast_error():
    with pytest.raises(ValueError, match=r"\[optimizer\] eta: expected float, got 'fast'"):
        parse_config_text(MINIMAL.replace("eta = 0.1", "eta = fast"))


def test_syntax_error_is_wrapped():
    with pytest.raises(ValueError, match="config syntax error"):
        parse_config_text("[run\ntask = quadratic\n")


def test_unknown_task():
    with pytest.raises(ValueError, match=r"\[run\] task must be one of"):
        parse_config_text(MINIMAL.replace("task = quadratic", "task = mystery"))


def test_unknown_optimizer():
    valid = r"\('teon', 'muon', 'adamw'\)"
    message = rf"\[optimizer\] optimizer must be one of {valid}, got 'sgd'$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(MINIMAL.replace("optimizer = teon", "optimizer = sgd"))


def test_teon_requires_mode():
    with pytest.raises(ValueError, match=r"\[optimizer\] mode must be 1 or 2 under teon, got None"):
        parse_config_text(MINIMAL.replace("mode = 1\n", ""))


def test_muon_rejects_mode_via_policy():
    bad = MINIMAL.replace("optimizer = teon", "optimizer = muon")
    with pytest.raises(ValueError, match=r"\[optimizer\]"):
        parse_config_text(bad)  # muon with mode=1 still present


def test_adamw_bans_matrix_only_keys():
    bad = MINIMAL.replace("optimizer = teon", "optimizer = adamw")
    with pytest.raises(ValueError, match="mode does not apply to adamw"):
        parse_config_text(bad)
    bad2 = MINIMAL.replace("optimizer = teon", "optimizer = adamw").replace(
        "mode = 1", "mu = 0.8"
    )
    with pytest.raises(ValueError, match="mu does not apply to adamw"):
        parse_config_text(bad2)


def test_exact_scheme_bans_ns_keys():
    bad = MINIMAL.replace("mode = 1", "mode = 1\nns_steps = 9")
    with pytest.raises(ValueError, match="ns_steps applies to scheme=newton_schulz only"):
        parse_config_text(bad)
    bad2 = MINIMAL.replace("mode = 1", "mode = 1\nns_preset = cubic")
    with pytest.raises(ValueError, match="ns_preset applies to scheme=newton_schulz only"):
        parse_config_text(bad2)


def test_unknown_scheme():
    bad = MINIMAL.replace("mode = 1", "mode = 1\nscheme = qr")
    with pytest.raises(ValueError, match="scheme must be exact or newton_schulz"):
        parse_config_text(bad)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["weight_decay", "adam_eps"])
def test_non_finite_weight_decay_or_adam_eps_is_a_config_error(key, value):
    # NaN fails every comparison and inf passes a sign check: a NaN decay used
    # to switch decay off silently, a NaN eps to fail only at step 1
    with pytest.raises(ValueError, match=rf"\[optimizer\] {key} must be .*finite"):
        parse_config_text(MINIMAL.replace("eta = 0.1", f"eta = 0.1\n{key} = {value}"))


@pytest.mark.parametrize("optimizer", ["teon\nmode = 1", "adamw"], ids=["teon", "adamw"])
def test_adam_betas_reach_the_main_and_the_adamw_policy(optimizer):
    text = MINIMAL.replace("teon\neta = 0.1\nmode = 1", f"{optimizer}\neta = 0.1")
    cfg = parse_config_text(text + "adam_beta1 = 0.8\nadam_beta2 = 0.99\n")
    assert cfg.policy.optimizer == optimizer.split()[0]
    assert cfg.policy.adam_betas == cfg.adamw_policy.adam_betas == (0.8, 0.99)


@pytest.mark.parametrize(
    "key,value", [("adam_beta1", "1.0"), ("adam_beta1", "-0.5"), ("adam_beta2", "nan")]
)
def test_an_adam_beta_outside_its_range_is_a_config_error_naming_the_key(key, value):
    message = rf"\[optimizer\] {key} must lie in \[0, 1\), got {value}$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(MINIMAL + f"{key} = {value}\n")


def test_unknown_ns_preset_is_a_config_error():
    bad = MINIMAL.replace("mode = 1", "mode = 1\nscheme = newton_schulz\nns_preset = bogus")
    message = r"\[optimizer\] ns_preset must be one of \[.*\], got 'bogus'$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(bad)


@pytest.mark.parametrize("steps", [0, -1, _NS_STEPS_MAX + 1, 10**20])
def test_ns_steps_outside_its_bound_is_a_config_error_before_any_schedule(monkeypatch, steps):
    def unreachable(rows, steps):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(ortho, "_resolve_schedule", unreachable)
    bad = MINIMAL.replace("mode = 1", f"mode = 1\nscheme = newton_schulz\nns_steps = {steps}")
    message = rf"\[optimizer\] ns_steps must lie in \[1, {_NS_STEPS_MAX}\], got {steps}$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(bad)


def test_ns_steps_at_its_bound_builds_the_schedule():
    longest = f"mode = 1\nscheme = newton_schulz\nns_steps = {_NS_STEPS_MAX}"
    ok = MINIMAL.replace("mode = 1", longest)
    assert len(parse_config_text(ok).policy.scheme.schedule) == _NS_STEPS_MAX


@pytest.mark.parametrize("value", [0, _TASK_DIM_MAX + 1, 10**20])
@pytest.mark.parametrize("key,line", [("m", "m = 4"), ("n", "n = 3"), ("K", "K = 4")])
def test_a_task_dimension_outside_its_bound_is_a_config_error(key, line, value):
    # parsed only: no task is built, so no test allocates a huge array
    message = rf"\[task\] {key} must lie in \[1, {_TASK_DIM_MAX}\], got {value}$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(MINIMAL.replace(line, f"{key} = {value}"))


def test_a_task_dimension_at_its_bound_parses():
    cfg = parse_config_text(MINIMAL.replace("m = 4", f"m = {_TASK_DIM_MAX}"))
    assert cfg.task_params == {"m": _TASK_DIM_MAX, "n": 3, "K": 4}


@pytest.mark.parametrize(
    "task,params,message",
    [
        ("aligned_quadratic", "m = 16\nn = 16\nK = 4\nc = nan", "c must be finite and nonzero"),
        ("aligned_quadratic", "m = 16\nn = 16\nK = 4\nc = 0", "c must be finite and nonzero"),
        ("aligned_quadratic", "m = 16\nn = 16\nK = 17", "m must be at least K"),
        ("micro_attention", "dim = 4\nseq = 3\nbatch = 2\nblocks = 1", "blocks must be at least 2"),
    ],
)
def test_a_task_rule_fails_at_parse_time_naming_its_key(task, params, message):
    text = MINIMAL.replace("quadratic", task).replace("m = 4\nn = 3\nK = 4", params)
    with pytest.raises(ValueError) as info:
        parse_config_text(text, source="bad.ini")
    assert str(info.value).startswith(f"bad.ini: [task] {message}")


def test_runconfig_validation_surface():
    with pytest.raises(ValueError, match=r"\[run\] steps must be >= 1, got 0$"):
        parse_config_text(MINIMAL.replace("steps = 5", "steps = 0"))
    with pytest.raises(ValueError, match=r"\[run\] seed must be a nonnegative integer, got -3$"):
        parse_config_text(MINIMAL.replace("seed = 0", "seed = -3"))
    grouped = MINIMAL + "\n[grouping]\nstack_set = QKV, WEIRD\n"
    with pytest.raises(ValueError, match=r"\[grouping\] stack_set token 'WEIRD' is unknown"):
        parse_config_text(grouped)
    repeated = MINIMAL + "\n[grouping]\nstack_set = QKV, O, QKV\n"
    with pytest.raises(ValueError, match=r"\[grouping\] stack_set repeats token 'QKV'$"):
        parse_config_text(repeated)
    sched = MINIMAL + "\n[schedule]\nkind = constant\nwarmup_ratio = 0.2\n"
    message = r"\[schedule\] warmup_ratio must be 0 under kind constant, got 0.2$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(sched)
    sched2 = MINIMAL + "\n[schedule]\nkind = cosine\nwarmup_ratio = 1.5\n"
    message = r"\[schedule\] warmup_ratio must lie in \[0, 1\], got 1.5$"
    with pytest.raises(ValueError, match=message):
        parse_config_text(sched2)
    with pytest.raises(ValueError, match=r"\[task\] m must lie in \[1, \d+\], got 0$"):
        parse_config_text(MINIMAL.replace("m = 4", "m = 0"))


def test_runconfig_direct_rejects_non_adamw_side_policy():
    cfg = parse_config_text(MINIMAL)
    with pytest.raises(ValueError, match="adamw_policy must be an adamw policy"):
        RunConfig(
            task=cfg.task,
            steps=cfg.steps,
            seed=cfg.seed,
            out_path=cfg.out_path,
            policy=cfg.policy,
            adamw_policy=UpdatePolicy.muon(0.1),
            task_params=dict(cfg.task_params),
        )


def test_schedule_names_exported():
    assert SCHEDULES == ("constant", "cosine", "linear_warmup")


def test_config_hash_stability_and_sensitivity():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 10
    c = parse_config_text(MINIMAL.replace("eta = 0.1", "eta = 0.2"))
    assert config_hash(c) != config_hash(a)
    # output location does not change the identity of the experiment
    d = parse_config_text(MINIMAL.replace("/tmp/cfg_test", "/tmp/elsewhere"))
    assert config_hash(d) == config_hash(a)


# One changed value per RunConfig field. Sweep ids and summary rows name an
# experiment by its hash, so every field but where a run writes and whether it
# times itself must change it.
HASH_CASES = {
    "task": "aligned_quadratic",
    "steps": 6,
    "seed": 1,
    "out_path": "/tmp/elsewhere",
    "policy": UpdatePolicy.teon(1, 0.2),
    "adamw_policy": UpdatePolicy.adamw(0.2),
    "task_params": {"m": 4, "n": 3, "K": 2},
    "group_k": 3,
    "stack_set": ("W",),
    "schedule": "linear_warmup",
    "warmup_ratio": 0.2,
    "log_every": 3,
    "align_every": 7,
    "log_timing": True,
}
UNHASHED = {"out_path", "log_timing"}


def test_config_hash_covers_every_run_field():
    base = parse_config_text(MINIMAL + "[schedule]\nkind = cosine\nwarmup_ratio = 0.1\n")
    assert set(HASH_CASES) == {f.name for f in fields(RunConfig)}, "a RunConfig field has no case"
    for name, value in HASH_CASES.items():
        assert getattr(base, name) != value, name
        same = config_hash(replace(base, **{name: value})) == config_hash(base)
        assert same == (name in UNHASHED), name


def test_inline_comments_are_stripped():
    cfg = parse_config_text(MINIMAL.replace("steps = 5", "steps = 5  # short run"))
    assert cfg.steps == 5


def test_key_case_is_preserved():
    # grouping K is uppercase; a lowercase k must be rejected, not aliased
    bad = MINIMAL + "\n[grouping]\nk = 3\n"
    with pytest.raises(ValueError, match=r"\[grouping\] unknown key 'k'"):
        parse_config_text(bad)
