"""Training loop: schedules, metric aggregation, CSV determinism, sweeps."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import mode2_polar_reference, traced_peak, update_classes
from teon.config import RunConfig, parse_config, parse_config_text
from teon.linalg import svd
from teon.norms import norm
from teon.optim import VECTOR_ADAMW, UpdatePolicy, build_groups
from teon.runner import (
    ALIGNMENT_COLUMNS,
    ALIGNMENT_HEADER,
    METRICS_HEADER,
    MetricsRecord,
    SWEEP_HEADER,
    _check_record_sandwich,
    csv_row,
    gradient_metrics,
    run,
    schedule_factor,
    sweep,
)
from teon.tasks import make_task


def _quad_cfg(out, *, steps=7, eta=0.2, extra=""):
    return parse_config_text(
        f"""
[run]
task = quadratic
steps = {steps}
seed = 3
out_path = {out}
log_every = 2
align_every = 3

[task]
m = 4
n = 3
K = 4

[optimizer]
optimizer = teon
eta = {eta}
mode = 1

[grouping]
K = 2
stack_set = W
{extra}
"""
    )


# ---------------------------------------------------------------- schedules


def test_constant_factor_is_one_everywhere():
    assert all(schedule_factor(t, 50, "constant", 0.0) == 1.0 for t in range(51))


@pytest.mark.parametrize("kind", ["cosine", "linear_warmup"])
def test_decay_endpoints_are_exact(kind):
    total, warm_ratio = 40, 0.1
    warm = int(warm_ratio * total)
    # first post-warmup step sits exactly at the peak, final step exactly at 0
    assert schedule_factor(warm, total, kind, warm_ratio) == 1.0
    assert schedule_factor(total, total, kind, warm_ratio) == 0.0


def test_warmup_ramp_values():
    # 4 warmup steps out of 40: factors (t+1)/5 for t < 4
    for t in range(4):
        assert schedule_factor(t, 40, "cosine", 0.1) == (t + 1) / 5


def test_in_run_rates_stay_positive_and_decay_monotonically():
    total = 30
    for kind in ("cosine", "linear_warmup"):
        f = [schedule_factor(t, total, kind, 0.2) for t in range(total)]
        assert all(v > 0 for v in f)
        post = f[int(0.2 * total):]
        assert all(a >= b for a, b in zip(post, post[1:]))


def test_schedule_factor_validation():
    with pytest.raises(ValueError, match="unknown schedule"):
        schedule_factor(0, 10, "step", 0.0)
    with pytest.raises(ValueError, match="total must be >= 1"):
        schedule_factor(0, 0, "cosine", 0.0)
    with pytest.raises(ValueError, match="outside"):
        schedule_factor(11, 10, "cosine", 0.0)


# ----------------------------------------------------------- metric records


def test_metrics_record_csv_row_format():
    rec = MetricsRecord(3, 1.0 / 3.0, 1.5, 2.0, 2.5, 0.05, 0.0)
    row = csv_row(rec)
    assert row.startswith("3,0.33333333333333331,1.5,2,2.5,")
    assert row.split(",") == [
        "3",
        "0.33333333333333331",
        "1.5",
        "2",
        "2.5",
        "0.050000000000000003",
        "0",
    ]


def _class_arenas(grads, groups):
    """The run's update classes of `groups` and their gradient arenas."""
    classes = update_classes(groups)
    return {c.id: c.stack(grads) for c in classes}, classes


def test_gradient_metrics_against_direct_norms():
    task = make_task("quadratic", 11, m=5, n=4, K=4)
    rng = np.random.default_rng(2)
    weights = task.init_weights(rng)
    for w in weights.values():
        w += rng.standard_normal(w.shape)
    _, grads = task.loss_and_grads(weights)
    groups = build_groups(task.layout, 2, ("W",), policy=UpdatePolicy.teon(1, 0.1))
    stacks = [np.stack([grads[nm] for nm in g.members]) for g in groups]
    mp, td, md = gradient_metrics(*_class_arenas(grads, groups), groups)
    depth = max(g.depth for g in groups)
    assert depth == 2

    assert mp == max(norm(s) for s in stacks)
    assert td == pytest.approx(
        sum(norm(s, 1, dual=True) for s in stacks), rel=1e-15
    )
    assert md == pytest.approx(
        sum(svd(grads[nm])[1].sum() for nm in grads), rel=1e-12
    )
    _check_record_sandwich(td, md, depth)


def test_record_sandwich_rejects_inconsistent_values():
    with pytest.raises(RuntimeError, match="sandwich violated"):
        _check_record_sandwich(5.0, 4.0, 2)  # teon dual above muon dual
    with pytest.raises(RuntimeError, match="sandwich violated"):
        _check_record_sandwich(1.0, 3.0, 4)  # muon dual above sqrt(K) * teon dual
    _check_record_sandwich(2.0, 3.0, 4)  # inside the sandwich: fine


def test_record_sandwich_upper_bound_is_sqrt_of_the_depth():
    # at depth 4 the muon dual may reach exactly 2x the teon dual, not sqrt(5)x
    _check_record_sandwich(1.0, 2.0, 4)
    with pytest.raises(RuntimeError, match="sandwich violated"):
        _check_record_sandwich(1.0, 2.0 + 1e-6, 4)


# ------------------------------------------------------------------- run()


def test_run_csv_shape_and_headers(tmp_path):
    res = run(_quad_cfg(tmp_path / "r"))
    lines = res.metrics_path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[1] == "step,loss,grad_muon_norm,grad_teon1_dual,grad_muon_dual,lr,wall_ms"
    # steps=7, log_every=2 -> t = 0,2,4,6 (final step already on the grid)
    rows = [ln for ln in lines[2:] if not ln.startswith("#")]
    assert [int(r.split(",")[0]) for r in rows] == [0, 2, 4, 6]
    summary_lines = [ln for ln in lines if ln.startswith("# summary.")]
    assert summary_lines[0] == f"# summary.best_loss={res.summary['best_loss']:.17g}"
    assert "# summary.max_group_depth=2" in summary_lines
    assert res.metrics_path.read_text().endswith("\n")

    align = res.alignment_path.read_text().splitlines()
    assert align[0] == ALIGNMENT_HEADER
    assert align[1] == "step,pair_id,left_align,right_align,sigma_gap"
    # align_every=3 over 7 steps -> post-update steps 3 and 6, three pairs each
    steps = [int(r.split(",")[0]) for r in align[2:]]
    assert steps == [3, 3, 3, 6, 6, 6]


def test_run_final_step_always_logged(tmp_path):
    res = run(_quad_cfg(tmp_path / "odd", steps=8))  # 8 steps: t=0,2,4,6 then final 7
    assert [r.step for r in res.metrics] == [0, 2, 4, 6, 7]


def test_run_lr_column_follows_schedule(tmp_path):
    extra = "\n[schedule]\nkind = linear_warmup\nwarmup_ratio = 0.0\n"
    res = run(_quad_cfg(tmp_path / "lr", steps=10, extra=extra))
    for rec in res.metrics:
        assert rec.lr == 0.2 * (1.0 - rec.step / 10)


def test_run_summary_fields_are_consistent(tmp_path):
    res = run(_quad_cfg(tmp_path / "s"))
    losses = [r.loss for r in res.metrics]
    assert res.summary["best_loss"] == min(losses)
    assert res.summary["final_loss"] == losses[-1]
    best_idx = losses.index(min(losses))
    assert res.summary["best_loss_step"] == res.metrics[best_idx].step
    assert res.summary["best_teon1_dual"] == min(r.grad_teon1_dual for r in res.metrics)


def test_run_without_write_leaves_no_files(tmp_path):
    out = tmp_path / "never"
    res = run(_quad_cfg(out), write=False)
    assert res.metrics_path is None and res.alignment_path is None
    assert not out.exists()
    assert len(res.metrics) == 4


def test_run_wall_ms_zero_unless_timing_enabled(tmp_path):
    res = run(_quad_cfg(tmp_path / "t0"))
    assert all(r.wall_ms == 0.0 for r in res.metrics)

    cfg = parse_config_text(
        f"""
[run]
task = quadratic
steps = 3
seed = 1
out_path = {tmp_path / 't1'}
log_every = 1
log_timing = true

[task]
m = 3
n = 3
K = 2

[optimizer]
optimizer = muon
eta = 0.1
"""
    )
    res2 = run(cfg)
    assert all(r.wall_ms > 0.0 for r in res2.metrics)


def test_run_nonfinite_loss_aborts_with_step_index(tmp_path):
    cfg = parse_config_text(
        f"""
[run]
task = deep_linear
steps = 6
seed = 0
out_path = {tmp_path / 'blow'}
log_every = 1

[task]
depth = 2
width = 6
batch = 4

[optimizer]
optimizer = muon
eta = 1e200
"""
    )
    with pytest.raises(FloatingPointError, match=r"non-finite loss at step [1-9]"):
        run(cfg)


def _wrap_task(monkeypatch, wrap):
    """Each task that a later `run` builds takes `wrap(its loss_and_grads)`
    as its loss_and_grads."""
    import teon.runner as runner

    original = runner.make_task

    def wrapping(*args, **kwargs):
        task = original(*args, **kwargs)
        task.loss_and_grads = wrap(task.loss_and_grads)
        return task

    monkeypatch.setattr(runner, "make_task", wrapping)


def _plant_nan(monkeypatch, names, at_step):
    """Set entry [0, 0] of each named gradient to NaN at step `at_step`."""

    def wrap(clean):
        calls = []

        def loss_and_grads(weights):
            loss, grads = clean(weights)
            if len(calls) == at_step:
                for name in names:
                    grads[name][0, 0] = np.nan
            calls.append(1)
            return loss, grads

        return loss_and_grads

    _wrap_task(monkeypatch, wrap)


def test_a_nan_loss_with_finite_gradients_stops_the_run(tmp_path, monkeypatch):
    # returning NaN raises no floating-point error: only the loss check sees it
    _wrap_task(monkeypatch, lambda clean: lambda weights: (float("nan"), clean(weights)[1]))
    with pytest.raises(FloatingPointError, match=r"^non-finite loss at step 0$"):
        run(_quad_cfg(tmp_path), write=False)


def test_a_step_leaves_the_tasks_gradient_dict_whole(tmp_path, monkeypatch):
    returned = []  # (the dict the task returned, a copy taken as it returned it)

    def wrap(clean):
        def loss_and_grads(weights):
            loss, grads = clean(weights)
            returned.append((grads, dict(grads)))
            return loss, grads

        return loss_and_grads

    _wrap_task(monkeypatch, wrap)
    cfg = _quad_cfg(tmp_path)
    run(cfg, write=False)
    assert len(returned) == cfg.steps
    for grads, copy in returned:
        assert grads.keys() == copy.keys() and all(grads[k] is copy[k] for k in copy)


@pytest.mark.parametrize("log_every", [10, 7])
def test_run_nan_gradient_names_group_and_step_on_logged_and_unlogged_steps(
    tmp_path, monkeypatch, log_every
):
    # step 10 is a logged step at log_every=10 and an unlogged one at 7
    ini = Path(__file__).resolve().parents[1] / "configs" / "deep_linear_muon.ini"
    cfg = parse_config_text(ini.read_text(encoding="utf-8"))
    cfg = replace(cfg, out_path=str(tmp_path), log_every=log_every)
    _plant_nan(monkeypatch, ["w3"], 10)
    pattern = r"group 'w3' at optimizer step 10: non-finite gradient"
    with pytest.raises(FloatingPointError, match=pattern):
        run(cfg, write=False)


def test_a_run_raises_the_lowest_index_failing_group_across_classes(monkeypatch):
    # b1.o shares the class of b0.o, which comes before b0.mlp1's class;
    # stepped one by one, the groups meet b0.mlp1 (group 4) before b1.o (6)
    import teon.runner as runner

    ini = Path(__file__).resolve().parents[1] / "configs" / "micro_attention_teon.ini"
    cfg = parse_config_text(ini.read_text(encoding="utf-8"))
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    groups = build_groups(task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy)
    where = {nm: i for i, c in enumerate(update_classes(groups)) for nm in c.members}
    assert where["b0.o"] == where["b1.o"] < where["b0.mlp1"]
    _plant_nan(monkeypatch, ["b1.o", "b0.mlp1"], 2)
    message = "group 'b0.mlp1' at optimizer step 2: non-finite gradient rejected at step 2"
    with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
        run(cfg, write=False)


@pytest.mark.parametrize(
    "short,message",
    [
        (
            ("w0", "w1", "w2", "w3"),
            "group 'w0': gradient shape (1, 1, 16, 15) does not match (1, 1, 16, 16)",
        ),
        (
            ("w2",),
            "group 'w2': member 'w2' has shape (16, 15), not the class's slice shape (16, 16)",
        ),
    ],
    ids=["every_member", "one_member"],
)
def test_a_gradient_of_another_shape_raises_a_value_error_naming_its_group(
    tmp_path, monkeypatch, short, message
):
    # the `short` gradients one column short: the run and the sweep name the
    # first group that meets it, as they name a non-finite gradient's; one
    # member alone fails in the class's stack, every member in the class step
    import teon.runner as runner

    original = runner.make_task

    def shortening(*args, **kwargs):
        task = original(*args, **kwargs)
        full = task.loss_and_grads

        def loss_and_grads(weights):
            loss, grads = full(weights)
            return loss, {nm: g[:, :-1] if nm in short else g for nm, g in grads.items()}

        task.loss_and_grads = loss_and_grads
        return task

    monkeypatch.setattr(runner, "make_task", shortening)
    ini = Path(__file__).resolve().parents[1] / "configs" / "deep_linear_muon.ini"
    cfg = replace(parse_config(ini), out_path=str(tmp_path / "run"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        run(cfg, write=False)
    assert err.value.group == short[0]
    _, (row,) = sweep([cfg], tmp_path / "sweep")
    assert row.split(",")[6] == "failed" and row.endswith(message.replace(",", ";"))


def test_run_alignment_interval_longer_than_run_gives_header_only(tmp_path):
    cfg = parse_config_text(
        f"""
[run]
task = quadratic
steps = 4
seed = 3
out_path = {tmp_path / 'noalign'}
align_every = 100

[task]
m = 4
n = 3
K = 4

[optimizer]
optimizer = teon
eta = 0.2
mode = 1

[grouping]
stack_set = W
"""
    )
    res = run(cfg)
    assert res.alignment == []
    assert res.alignment_path.read_text() == f"{ALIGNMENT_HEADER}\n{ALIGNMENT_COLUMNS}\n"


def test_run_adamw_has_no_momentum_buffers_to_align(tmp_path):
    cfg = parse_config_text(
        f"""
[run]
task = quadratic
steps = 4
seed = 2
out_path = {tmp_path / 'adamw'}
align_every = 1

[task]
m = 3
n = 2
K = 3

[optimizer]
optimizer = adamw
eta = 0.01
"""
    )
    res = run(cfg)
    assert res.alignment == []  # adamw state carries no polar momentum


def test_three_step_mode2_run_follows_the_literal_mode2_update(tmp_path):
    cfg = _quad_cfg(tmp_path, steps=3)
    cfg = replace(cfg, policy=replace(cfg.policy, mode=2), log_every=1)
    res = run(cfg, write=False)
    # the literal update: groups layer0-1 and layer2-3, accumulated momentum,
    # mode-2 polar factor of each stack, no decay, constant schedule
    pol = cfg.policy
    task = make_task("quadratic", cfg.seed, **cfg.task_params)
    w = task.init_weights(np.random.default_rng([cfg.seed, 1]))
    names = [["layer0", "layer1"], ["layer2", "layer3"]]
    bufs = [0.0, 0.0]
    losses = []
    for _ in range(cfg.steps):
        loss, grads = task.loss_and_grads(w)
        losses.append(loss)
        for i, members in enumerate(names):
            bufs[i] = pol.mu * bufs[i] + np.stack([grads[nm] for nm in members])
            step = pol.eta * np.sqrt(4 / 3) * mode2_polar_reference(bufs[i])
            for k, nm in enumerate(members):
                w[nm] = w[nm] - step[k]
    assert res.summary["max_group_depth"] == 2
    np.testing.assert_allclose([r.loss for r in res.metrics], losses, rtol=1e-12, atol=0)
    assert losses[1] != losses[0]


def test_teon_run_needs_every_stack_set_token_to_cover_a_layout_role(tmp_path):
    text = f"""
[run]
task = deep_linear
steps = 3
seed = 1
out_path = {tmp_path / 'deep'}

[task]
depth = 4
width = 6
batch = 8

[optimizer]
optimizer = teon
eta = 0.05
mode = 1
"""
    # no [grouping], so stack_set is the default QKV, a role deep_linear lacks
    with pytest.raises(ValueError, match=r"token 'QKV' covers no .* roles are \('W',\)"):
        run(parse_config_text(text))
    assert not (tmp_path / "deep").exists()
    with pytest.raises(ValueError, match="token 'QKV' covers no"):
        run(parse_config_text(text + "[grouping]\nstack_set = QKV, W\n"), write=False)
    stacked = run(parse_config_text(text + "[grouping]\nstack_set = W\n"), write=False)
    assert stacked.summary["max_group_depth"] == 2
    # muon and adamw stack nothing, so they ignore the token
    for optimizer in ("muon", "adamw"):
        plain = text.replace("teon\neta = 0.05\nmode = 1", f"{optimizer}\neta = 0.05")
        assert run(parse_config_text(plain), write=False).summary["max_group_depth"] == 1


def test_run_micro_attention_muon_smoke(tmp_path):
    cfg = parse_config_text(
        f"""
[run]
task = micro_attention
steps = 4
seed = 5
out_path = {tmp_path / 'attn'}
log_every = 1
align_every = 2

[task]
dim = 4
seq = 3
batch = 2
blocks = 2

[optimizer]
optimizer = teon
eta = 0.02
mode = 1

[grouping]
K = 2
stack_set = QKV
"""
    )
    res = run(cfg)
    losses = [r.loss for r in res.metrics]
    assert losses[-1] < losses[0]
    # Q/K/V momentum exists (stacked); pairs among them appear at steps 2 and 4
    assert {r.step for r in res.alignment} == {2, 4}
    assert any(r.pair_id == "Q0-K0" for r in res.alignment)


# ------------------------------------------------------------------- sweep


def test_sweep_writes_summary_and_per_run_dirs(tmp_path):
    cfg = _quad_cfg(tmp_path / "ignored")
    path, rows = sweep([cfg], tmp_path / "sw")
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(rows) == 1 and rows[0].split(",")[6] == "ok"
    rid = rows[0].split(",")[0]
    assert (tmp_path / "sw" / "runs" / rid / "metrics.csv").exists()


def test_sweep_identical_configs_share_hash_distinct_ids(tmp_path):
    cfg = _quad_cfg(tmp_path / "ignored")
    _, rows = sweep([cfg, cfg], tmp_path / "sw2")
    id0, hash0 = rows[0].split(",")[0], rows[0].split(",")[1]
    id1, hash1 = rows[1].split(",")[0], rows[1].split(",")[1]
    assert hash0 == hash1 and id0 != id1
    assert id0 == f"{hash0}-0" and id1 == f"{hash1}-1"
    # identical experiments produce identical metric payloads
    assert rows[0].split(",")[7:] == rows[1].split(",")[7:]


def test_sweep_records_failures_and_continues(tmp_path):
    bad = parse_config_text(
        f"""
[run]
task = deep_linear
steps = 5
seed = 0
out_path = {tmp_path / 'x'}

[task]
depth = 2
width = 6
batch = 4

[optimizer]
optimizer = muon
eta = 1e200
"""
    )
    good = _quad_cfg(tmp_path / "ignored")
    path, rows = sweep([bad, good], tmp_path / "sw3")
    assert rows[0].split(",")[6] == "failed"
    assert "non-finite loss" in rows[0]
    assert len(rows[0].split(",")) == 11  # error message kept comma-free
    assert rows[0].split(",")[7] == "nan"
    assert rows[1].split(",")[6] == "ok"
    assert path.read_text().count("\n") == 4  # header + columns + 2 rows


def test_sweep_requires_a_config():
    with pytest.raises(ValueError, match="at least one config"):
        sweep([], "/tmp/nowhere")


# ------------------------------------------------- diagnostics cost contracts


def _attn_cfg(out, optimizer, *, steps, align_every=1):
    policy = UpdatePolicy.teon(1, 0.05) if optimizer == "teon" else UpdatePolicy.muon(0.05)
    return RunConfig(
        task="micro_attention",
        steps=steps,
        seed=4,
        out_path=str(out),
        policy=policy,
        adamw_policy=UpdatePolicy.adamw(0.005),
        task_params={"dim": 8, "seq": 4, "batch": 2, "blocks": 4},
        stack_set=("QKV", "MLP1"),
        align_every=align_every,
        log_every=1,
    )


def test_one_sampled_step_decomposes_each_paired_buffer_once(tmp_path, monkeypatch):
    # exactly once per sampled step, in one call per shape
    import teon.diagnostics as diag

    calls = []
    original = diag.svd
    monkeypatch.setattr(diag, "svd", lambda x: calls.append(x.shape) or original(x))
    res = run(_attn_cfg(tmp_path, "muon", steps=1), write=False)
    # 6 roles x 4 blocks: 18 consecutive-block pairs + 4 x {QK, KV, QV}
    assert len(res.alignment) == 30
    # the 16 Q/K/V/O matrices, then the 4 MLP1 and the 4 MLP2 matrices
    assert calls == [(16, 8, 8), (4, 16, 8), (4, 8, 16)]


def test_the_task_reads_the_same_weight_arrays_at_every_step(tmp_path, monkeypatch):
    import teon.runner as runner

    seen = []
    original = runner.make_task

    def make_task(*args, **kwargs):
        task = original(*args, **kwargs)
        loss_and_grads = task.loss_and_grads

        def recording(weights):
            seen.append({nm: (w, w.copy()) for nm, w in weights.items()})
            return loss_and_grads(weights)

        task.loss_and_grads = recording
        return task

    monkeypatch.setattr(runner, "make_task", make_task)
    res = run(_attn_cfg(tmp_path, "teon", steps=3), write=False)
    assert len(seen) == 3 and res.summary["max_group_depth"] == 2
    first, last = seen[0], seen[-1]
    assert all(step[nm][0] is w for step in seen[1:] for nm, (w, _) in first.items())
    # the arrays are views of the updated stacks, so the values they read move
    assert all(not np.array_equal(first[nm][1], last[nm][1]) for nm in first)
    # slices of slice-major stacks, so BLAS reads them without a copy
    assert all(w.flags.c_contiguous for w, _ in first.values())


def test_stack_set_order_leaves_the_csvs_unchanged(tmp_path):
    text = (Path(__file__).parents[1] / "configs" / "micro_attention_teon.ini").read_text()
    outputs = []
    for order in ("QKV,O", "O,QKV"):
        cfg = parse_config_text(text.replace("stack_set = QKV", f"stack_set = {order}"))
        res = run(replace(cfg, out_path=str(tmp_path / order)))
        outputs.append((res.metrics_path.read_bytes(), res.alignment_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_alignment_csv_matches_track_run_over_the_same_snapshots(tmp_path, monkeypatch):
    import teon.runner as runner
    from oracles import track_run
    from teon.diagnostics import default_alignment_pairs

    every = 2
    original = runner.member_views
    calls = []

    def recording(stacks, groups):
        views = original(stacks, groups)
        calls.append({nm: v.copy() for nm, v in views.items()})
        return views

    monkeypatch.setattr(runner, "member_views", recording)
    res = run(_attn_cfg(tmp_path, "teon", steps=6, align_every=every))
    # the first call builds the weight views, each later one a sampled step's momenta
    snapshots = [(every * k, views) for k, views in enumerate(calls[1:], start=1)]
    assert [s for s, _ in snapshots] == [2, 4, 6]
    pairs = default_alignment_pairs(
        make_task("micro_attention", 4, **res.config.task_params).layout
    )
    expected = [csv_row(r) for r in track_run(snapshots, pairs, every)]
    rows = res.alignment_path.read_text().splitlines()[2:]
    assert rows == expected and len(rows) == 3 * len(pairs)
    # each sampled step reads its own buffers: a pair reads differently at each step
    by_pair = {}
    for rec in res.alignment:
        by_pair.setdefault(rec.pair_id, []).append(rec.left_align)
    assert all(len(set(v)) == 3 for v in by_pair.values())


MEMORY_OPTIMIZERS = {
    "muon": "optimizer = muon\n",
    "teon": "optimizer = teon\nmode = 1\n[grouping]\nK = 2\nstack_set = QKV,O,MLP1,MLP2\n",
}


def _memory_cfg(optimizer):
    """3 steps of micro_attention at dim 64 (1.03 MiB of parameters), with
    metrics and alignment every step."""
    return parse_config_text(
        "[run]\ntask = micro_attention\nsteps = 3\nseed = 0\nout_path = unused\n"
        "log_every = 1\nalign_every = 1\n"
        "[task]\ndim = 64\nseq = 16\nbatch = 8\nblocks = 4\n"
        "[optimizer]\neta = 0.02\nscheme = newton_schulz\nns_steps = 5\n"
        "ns_preset = jordan\nadam_eta = 0.005\n" + MEMORY_OPTIMIZERS[optimizer]
    )


def _param_bytes(cfg):
    layout = make_task(cfg.task, cfg.seed, **cfg.task_params).layout
    return sum(8 * int(np.prod(e.shape)) for e in layout)


@pytest.mark.parametrize("optimizer", MEMORY_OPTIMIZERS)
def test_run_drops_each_steps_gradient_stacks_before_the_next(optimizer, lanes):
    # One step's gradients (the task's dict, then the class arenas) are
    # alive at a time, and an alignment call's stacks and SVD factors die
    # with the call: 5.4x the parameter bytes here at one lane, with task
    # construction included, and up to 5.7x at two, where a call holding at
    # most one stack of two 64x64 buffers and its factors overlaps the next
    # step. The previous step's stacks kept through the next step (6.4x)
    # break the bound, with the class steps on one lane or two, and so do
    # the factors, or one stack per shape (6.9x at two lanes).
    cfg = _memory_cfg(optimizer)
    param_bytes = _param_bytes(cfg)
    for n in (1, 2):
        lanes(n)
        peak = traced_peak(lambda: run(cfg, write=False))
        assert peak <= 5.8 * param_bytes, (n, peak / param_bytes)


@pytest.mark.parametrize("optimizer", MEMORY_OPTIMIZERS)
def test_training_loop_frees_each_sampled_steps_svd_factors(optimizer, monkeypatch, lanes):
    # The loop alone, with the task built before tracing: 5.25x the parameter
    # bytes serial, 5.46x with each alignment call overlapped with the next
    # step (forced on: LANE_WORK = 1), the call's stack of at most two 64x64
    # buffers and its U and Vh alive meanwhile. Keeping every paired
    # buffer's U and V alive through the next step's forward and backward
    # pass adds 1.7x, serial or overlapped, and one stack per shape (all
    # sixteen 64x64 buffers at once) reaches 6.7x overlapped.
    import teon.runner as runner

    cfg = _memory_cfg(optimizer)
    param_bytes = _param_bytes(cfg)
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    monkeypatch.setattr(runner, "make_task", lambda *args, **kwargs: task)
    for n, lane_work in ((1, runner.LANE_WORK), (2, 1)):
        lanes(n, lane_work)
        peak = traced_peak(lambda: run(cfg, write=False))
        assert peak <= 5.7 * param_bytes, (n, peak / param_bytes)


def _three_norm_formula(grads, groups):
    """gradient_metrics' three values summed group by group in build order."""
    mp = td = md = 0.0
    for g in groups:
        if g.kind == VECTOR_ADAMW:
            continue
        stack = np.stack([grads[nm] for nm in g.members])
        mp = max(mp, norm(stack))
        td += norm(stack, 1, dual=True)
        md += norm(stack, dual=True)
    return mp, td, md


@pytest.mark.parametrize(
    "optimizer,k,stack_set,depths",
    [
        pytest.param("muon", 2, ("QKV", "MLP1"), {1}, id="muon-1"),
        pytest.param("teon", 2, ("QKV", "MLP1"), {1, 2}, id="teon-2"),
        # K=3 over 4 blocks: a Q/K/V/O class of depth 3 and one of its depth-1 remainders
        pytest.param("teon", 3, ("QKV", "O"), {1, 3}, id="teon-3-remainders"),
    ],
)
def test_gradient_metrics_equals_the_three_norm_formula_exactly(
    monkeypatch, optimizer, k, stack_set, depths
):
    task = make_task("micro_attention", 5, dim=8, seq=4, batch=2, blocks=4)
    _, grads = task.loss_and_grads(task.init_weights(np.random.default_rng(6)))
    policy = UpdatePolicy.teon(1, 0.1) if optimizer == "teon" else UpdatePolicy.muon(0.1)
    groups = build_groups(task.layout, k, stack_set, policy=policy)
    arenas, classes = _class_arenas(grads, groups)
    assert {g.depth for g in groups} == depths
    if k == 3:
        stacked = [arenas[c.id].shape[:2] for c in classes if c.kind == "tensor_group"]
        assert stacked == [(4, 3), (4, 1)]
    import teon.runner as runner

    seen = []
    monkeypatch.setattr(runner, "norm", lambda t, *a, **kw: seen.append(t) or norm(t, *a, **kw))
    assert gradient_metrics(arenas, classes, groups) == _three_norm_formula(grads, groups)
    # one call on each matrix class's (G, K, m, n) arena itself, one more on a deeper one's
    calls = [
        c for c in classes if c.kind != VECTOR_ADAMW for _ in range(1 + (c.groups[0].depth > 1))
    ]
    assert len(seen) == len(calls)
    for t, c in zip(seen, calls):
        assert t is arenas[c.id]
        assert t.shape == (len(c.groups), c.groups[0].depth) + c.groups[0].shapes[0]


def test_gradient_metrics_decomposes_each_gradient_slice_once(monkeypatch):
    # per-matrix Muon at dim 64, logged every step: one value-only SVD per
    # class gives every group's muon primal and dual, and a depth-1
    # group's teon-1 dual is that dual, not a second SVD of the same slices
    cfg = parse_config_text(
        """
[run]
task = micro_attention
steps = 1
seed = 0
out_path = unused
log_every = 1

[task]
dim = 64
seq = 16
batch = 8
blocks = 4

[optimizer]
optimizer = muon
eta = 0.02
"""
    )
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    _, grads = task.loss_and_grads(task.init_weights(np.random.default_rng(1)))
    groups = build_groups(task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy)
    arenas, classes = _class_arenas(grads, groups)
    calls = []
    original = np.linalg.svd
    monkeypatch.setattr(
        np.linalg,
        "svd",
        lambda a, **kw: calls.append((a.shape, kw.get("compute_uv", True))) or original(a, **kw),
    )
    metrics = gradient_metrics(arenas, classes, groups)
    # the 16 Q/K/V/O matrices and the readout, then the 4 MLP1 and the 4 MLP2
    assert calls == [
        ((17, 1, 64, 64), False),
        ((4, 1, 128, 64), False),
        ((4, 1, 64, 128), False),
    ]
    assert metrics == _three_norm_formula(grads, groups)


def test_gradient_metrics_adds_the_groups_in_build_order_not_class_order():
    # micro_attention_teon: the lone Muon O, MLP1 and MLP2 matrices of each
    # block interleave in build order, but each role is one class
    path = Path(__file__).parents[1] / "configs" / "micro_attention_teon.ini"
    cfg = parse_config(path)
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    groups = build_groups(task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy)
    classes = update_classes(groups)
    in_class_order = [g for c in classes for g in c.groups]
    assert in_class_order != groups and sorted(in_class_order, key=groups.index) == groups
    rng = np.random.default_rng(8)
    for _ in range(20):
        weights = task.init_weights(rng)
        for w in weights.values():
            w += rng.standard_normal(w.shape)
        _, grads = task.loss_and_grads(weights)
        arenas = {c.id: c.stack(grads) for c in classes}
        want = _three_norm_formula(grads, groups)
        assert gradient_metrics(arenas, classes, groups) == want
