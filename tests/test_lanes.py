"""Group steps fanned out over thread lanes: the same bytes and the same
errors as the serial loop, and no thread left behind. The lane count and the
size threshold are module constants; the tests set them so that every
orthogonalized group is big and two lanes run on any host."""

import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import teon.runner as runner
from teon.config import parse_config_text
from teon.optim import TENSOR_GROUP, build_groups
from teon.ortho import OrthoScheme
from teon.runner import run, sweep
from teon.tasks import make_task

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(CONFIGS.glob("*.ini"))

MODE2_TEON = """
[run]
task = micro_attention
steps = 12
seed = 5
out_path = {out}
log_every = 3
align_every = 4

[task]
dim = 8
seq = 6
batch = 4
blocks = 3

[optimizer]
optimizer = teon
eta = 0.05
mode = 2
scheme = newton_schulz
ns_steps = 5
ns_preset = polar-express
adam_eta = 0.005

[grouping]
K = 2
stack_set = QKV,O,MLP1,MLP2
"""


@pytest.fixture
def lanes(monkeypatch):
    """Set the lane count (every orthogonalized group is big) and record
    the threads that step each group."""
    monkeypatch.setattr(runner, "LANE_WORK", 1)
    seen = {}
    original = runner.apply_group_step

    def recording(params, grads, group, *args, **kwargs):
        seen.setdefault(group.id, set()).add(threading.get_ident())
        return original(params, grads, group, *args, **kwargs)

    monkeypatch.setattr(runner, "apply_group_step", recording)

    def set_lanes(n):
        monkeypatch.setattr(runner, "LANES", n)
        seen.clear()
        return seen

    return set_lanes


def _groups(cfg):
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    return build_groups(
        task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy, adamw_policy=cfg.adamw_policy
    )


def _threads(seen):
    return set().union(*seen.values())


def _configs():
    cfgs = [parse_config_text(p.read_text(encoding="utf-8")) for p in SHIPPED]
    cfgs.append(parse_config_text(MODE2_TEON.format(out="unused")))
    return cfgs


def test_big_groups_go_largest_first_to_the_least_loaded_lane(monkeypatch):
    cfg = parse_config_text(MODE2_TEON.format(out="unused"))
    groups = _groups(cfg)
    monkeypatch.setattr(runner, "LANES", 2)
    monkeypatch.setattr(runner, "LANE_WORK", 8 * 8 * 12)  # every 8 x 12 or wider unfolding
    work = {g.id: runner._ortho_work(g) for g in groups}
    # mode 2 unfolds a (2, m, n) stack to n x 2m; the readout is a lone 8 x 8 muon matrix
    assert work["q.blocks0-1"] == 8 * 8 * 16
    assert work["mlp1.blocks0-1"] == 8 * 8 * 32
    assert work["mlp2.blocks0-1"] == 16 * 16 * 16
    assert work["readout"] == 8**3 and work["readout_bias"] == 0
    lane0, lane1 = runner._lanes(groups)
    on = {g.id: lane for lane, members in enumerate((lane0, lane1)) for _, g in members}
    assert on["mlp2.blocks0-1"] == 0 and on["mlp1.blocks0-1"] == 1
    # small groups and vectors stay on the calling thread's lane
    assert on["readout"] == on["readout_bias"] == on["q.blocks2-2"] == 0
    assert all(i < j for lane in (lane0, lane1) for (i, _), (j, _) in zip(lane, lane[1:]))
    assert sorted(i for lane in (lane0, lane1) for i, _ in lane) == list(range(len(groups)))
    loads = [sum(work[g.id] for _, g in lane if work[g.id] >= runner.LANE_WORK) for lane in (lane0, lane1)]
    assert abs(loads[0] - loads[1]) <= max(work.values())


def test_lanes_are_capped_by_the_number_of_big_groups(monkeypatch):
    groups = _groups(parse_config_text(MODE2_TEON.format(out="unused")))
    monkeypatch.setattr(runner, "LANES", 8)
    monkeypatch.setattr(runner, "LANE_WORK", 8 * 8 * 32)  # mlp1 and mlp2 of blocks 0-1
    assert len(runner._lanes(groups)) == 2
    monkeypatch.setattr(runner, "LANE_WORK", 16**3)  # mlp2 of blocks 0-1 alone
    assert runner._lanes(groups) == [list(enumerate(groups))]


@pytest.mark.parametrize(
    "env,cores,expected",
    [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
    ],
)
def test_lane_count_is_the_cores_over_the_pinned_blas_threads(monkeypatch, env, cores, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert runner._spare_lanes() == expected


def test_two_lanes_write_the_serial_bytes(tmp_path, lanes):
    for idx, cfg in enumerate(_configs()):
        # aligned_quadratic stacks all its layers in one group, and adamw
        # orthogonalizes nothing: those runs have fewer than two big groups
        big = sum(runner._ortho_work(g) > 0 for g in _groups(cfg))
        outputs = []
        for n in (1, 2):
            seen = lanes(n)
            res = run(replace(cfg, out_path=str(tmp_path / f"{idx}-{n}")))
            outputs.append([p.read_bytes() for p in (res.metrics_path, res.alignment_path)])
            assert len(_threads(seen)) == (2 if n == 2 and big >= 2 else 1), cfg.task
        assert outputs[0] == outputs[1], SHIPPED[idx] if idx < len(SHIPPED) else "mode 2"


def test_more_lanes_than_cores_under_fast_thread_switching_write_the_serial_bytes(
    tmp_path, lanes
):
    # every state write lands in one shared dict: a lost update would leave a
    # group a step behind and move the bytes
    cfg = parse_config_text(MODE2_TEON.format(out="unused"))
    outputs = []
    for n in (1, 4):
        seen = lanes(n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = run(replace(cfg, out_path=str(tmp_path / str(n))))
        finally:
            sys.setswitchinterval(interval)
        outputs.append([p.read_bytes() for p in (res.metrics_path, res.alignment_path)])
        # a worker that finishes its lane early may take another one
        assert (len(_threads(seen)) > 1) == (n > 1)
    assert outputs[0] == outputs[1]


def _plant(monkeypatch, names, at_steps, value=np.nan):
    """Set entry [0, 0] of each named gradient to `value` at the given steps."""
    original = runner.make_task

    def planting(*args, **kwargs):
        task = original(*args, **kwargs)
        clean, calls = task.loss_and_grads, []

        def loss_and_grads(weights):
            loss, grads = clean(weights)
            if len(calls) in at_steps:
                for name in names:
                    grads[name][0, 0] = value
            calls.append(1)
            return loss, grads

        task.loss_and_grads = loss_and_grads
        return task

    monkeypatch.setattr(runner, "make_task", planting)


@pytest.mark.parametrize("names", [("w1", "w2"), ("w2", "w3"), ("w3", "w0")])
def test_failing_groups_on_two_lanes_raise_the_serial_error(monkeypatch, lanes, names):
    cfg = parse_config_text((CONFIGS / "deep_linear_muon.ini").read_text(encoding="utf-8"))
    monkeypatch.setattr(runner, "LANES", 2)
    on = {g.id: lane for lane, members in enumerate(runner._lanes(_groups(cfg))) for _, g in members}
    assert on[names[0]] != on[names[1]]
    _plant(monkeypatch, names, (10,))
    messages = []
    for n in (1, 2):
        lanes(n)
        with pytest.raises(FloatingPointError) as info:
            run(cfg, write=False)
        messages.append(str(info.value))
    first = min(names)
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"group '{first}' at optimizer step 10: non-finite gradient")


def test_an_overflow_on_a_worker_lane_raises_under_plain_warning_filters(monkeypatch, lanes):
    # exact scheme: a planted 1e308 gradient entry at steps 1 and 2 makes that
    # group's momentum add overflow at step 2, inside its own group step
    cfg = parse_config_text((CONFIGS / "micro_attention_teon.ini").read_text(encoding="utf-8"))
    exact = replace(cfg.policy, scheme=OrthoScheme.exact())
    cfg = replace(cfg, steps=3, log_every=100, policy=exact)
    monkeypatch.setattr(runner, "LANES", 2)
    group = next(g for _, g in runner._lanes(_groups(cfg))[1] if g.kind == TENSOR_GROUP)
    _plant(monkeypatch, [group.members[-1]], (1, 2), value=1e308)
    recording = runner.apply_group_step  # the lanes fixture's wrapper
    failed = []

    def fingerprinting(params, grads, g, states, *args, **kwargs):
        if g.id != group.id:
            return recording(params, grads, g, states, *args, **kwargs)
        stack, state = params[g.id].tobytes(), states[g.id]
        try:
            return recording(params, grads, g, states, *args, **kwargs)
        except FloatingPointError:
            assert params[g.id].tobytes() == stack and states[g.id] is state
            failed.append(threading.current_thread() is threading.main_thread())
            raise

    monkeypatch.setattr(runner, "apply_group_step", fingerprinting)
    messages = []
    for n in (1, 2):
        lanes(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            with pytest.raises(FloatingPointError) as info:
                run(cfg, write=False)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        messages.append(str(info.value))
    assert failed == [True, False]  # the serial run, then the worker lane
    assert messages[0] == messages[1]
    assert messages[0] == f"group '{group.id}' at optimizer step 2: overflow encountered in add"


def test_no_thread_outlives_a_run_or_a_sweep(tmp_path, monkeypatch, lanes):
    lanes(2)
    before = threading.active_count()
    cfg = parse_config_text((CONFIGS / "micro_attention_teon.ini").read_text(encoding="utf-8"))
    cfg = replace(cfg, steps=3, out_path=str(tmp_path / "ok"))
    run(cfg)
    assert threading.active_count() == before
    _plant(monkeypatch, ["b1.k"], (1,))
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        run(cfg)
    assert threading.active_count() == before
    _, rows = sweep([cfg, cfg], tmp_path / "sweep")
    assert [row.split(",")[6] for row in rows] == ["failed", "failed"]
    assert threading.active_count() == before
