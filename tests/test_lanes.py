"""Class steps fanned out over thread lanes, and each sampled step's
alignment overlapped with the next step on a spare core: the same bytes and
the same errors as the serial loop, and no thread left behind. The lane
count and the size threshold are module constants; the tests set them so that
every orthogonalized group is big (a class of one), every alignment call is
offloaded and two lanes run on any host."""

import concurrent.futures
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
    """Set the lane count (every orthogonalized group is big, a class of
    one) and record the threads that step each class."""
    monkeypatch.setattr(runner, "LANE_WORK", 1)
    seen = {}
    original = runner.apply_group_step

    def recording(params, grads, cls, *args, **kwargs):
        seen.setdefault(cls.id, set()).add(threading.get_ident())
        return original(params, grads, cls, *args, **kwargs)

    monkeypatch.setattr(runner, "apply_group_step", recording)

    def set_lanes(n):
        monkeypatch.setattr(runner, "LANES", n)
        seen.clear()
        return seen

    return set_lanes


ATTN64_MUON = """
[run]
task = micro_attention
steps = 3
seed = 0
out_path = {out}
log_every = 1
align_every = 1

[task]
dim = 64
seq = 16
batch = 8
blocks = 4

[optimizer]
optimizer = muon
eta = 0.02
scheme = newton_schulz
ns_steps = 5
ns_preset = jordan
adam_eta = 0.005
"""


@pytest.fixture
def aligned(monkeypatch):
    """Record each alignment call: its thread, its buffers and their bytes
    when the call starts."""
    calls = []
    original = runner.top_singular_alignment

    def recording(buffers, pairs, step):
        snapshot = {name: b.tobytes() for name, b in buffers.items()}
        calls.append((threading.get_ident(), buffers, snapshot))
        return original(buffers, pairs, step)

    monkeypatch.setattr(runner, "top_singular_alignment", recording)
    return calls


def _groups(cfg):
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    return build_groups(
        task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy, adamw_policy=cfg.adamw_policy
    )


def _lane_of(classes):
    """Each group id mapped to the lane that steps its class."""
    lanes = runner._lanes(classes)
    return {g.id: j for j, lane in enumerate(lanes) for c in lane for g in c.groups}


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
    classes = runner._classes(groups)
    lane0, lane1 = runner._lanes(classes)
    on = _lane_of(classes)
    assert on["mlp2.blocks0-1"] == 0 and on["mlp1.blocks0-1"] == 1
    # small groups and vectors stay on the calling thread's lane
    assert on["readout"] == on["readout_bias"] == on["q.blocks2-2"] == 0
    index = {c.id: i for i, c in enumerate(classes)}
    assert all(index[a.id] < index[b.id] for lane in (lane0, lane1) for a, b in zip(lane, lane[1:]))
    assert sorted(index[c.id] for lane in (lane0, lane1) for c in lane) == list(range(len(classes)))
    # a big group is a class of one, so a lane's load is the work of its big groups
    big = {c.id for c in classes if any(work[g.id] >= runner.LANE_WORK for g in c.groups)}
    assert all(len(c.groups) == 1 for c in classes if c.id in big) and len(big) == 8
    loads = [sum(work[c.id] for c in lane if c.id in big) for lane in (lane0, lane1)]
    assert abs(loads[0] - loads[1]) <= max(work.values())


def test_lanes_are_capped_by_the_number_of_big_groups(monkeypatch):
    groups = _groups(parse_config_text(MODE2_TEON.format(out="unused")))
    monkeypatch.setattr(runner, "LANES", 8)
    monkeypatch.setattr(runner, "LANE_WORK", 8 * 8 * 32)  # mlp1 and mlp2 of blocks 0-1
    assert len(runner._lanes(runner._classes(groups))) == 2
    monkeypatch.setattr(runner, "LANE_WORK", 16**3)  # mlp2 of blocks 0-1 alone
    classes = runner._classes(groups)
    assert runner._lanes(classes) == [classes]


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


def test_two_lanes_write_the_serial_bytes(tmp_path, lanes, aligned):
    main = threading.get_ident()
    for idx, cfg in enumerate(_configs()):
        # aligned_quadratic stacks all its layers in one group, and adamw
        # orthogonalizes nothing: those runs have fewer than two big groups
        big = sum(runner._ortho_work(g) > 0 for g in _groups(cfg))
        outputs = []
        for n in (1, 2):
            seen = lanes(n)
            aligned.clear()
            res = run(replace(cfg, out_path=str(tmp_path / f"{idx}-{n}")))
            outputs.append([p.read_bytes() for p in (res.metrics_path, res.alignment_path)])
            threads = _threads(seen)
            if n == 2 and big >= 2:
                # the calling thread and a worker; the alignment's worker may take a lane
                assert main in threads and len(threads) in (2, 3), cfg.task
            else:
                assert threads == {main}, cfg.task
            # with momentum to align, every call overlaps the next step on a worker
            overlapped = n == 2 and bool(res.alignment)
            assert all((thread != main) == overlapped for thread, _, _ in aligned), cfg.task
        assert outputs[0] == outputs[1], SHIPPED[idx] if idx < len(SHIPPED) else "mode 2"


def test_alignment_overlaps_the_next_step_at_dim_64_and_writes_the_serial_bytes(
    tmp_path, lanes, aligned, monkeypatch
):
    # at the shipped threshold: the 24 paired buffers (16 of 64 x 64, 8 of
    # 64 x 128 or 128 x 64: 32 * 64**3) reach LANE_WORK, while no group does
    monkeypatch.setattr(runner, "LANE_WORK", 128**3)
    cfg = parse_config_text(ATTN64_MUON.format(out="unused"))
    main = threading.get_ident()
    outputs = []
    for n in (1, 2):
        seen = lanes(n)
        aligned.clear()
        res = run(replace(cfg, out_path=str(tmp_path / str(n))))
        outputs.append([p.read_bytes() for p in (res.metrics_path, res.alignment_path)])
        assert _threads(seen) == {main}
        assert len(aligned) == 3 and len(res.alignment) == 3 * 30
        assert all((thread != main) == (n == 2) for thread, _, _ in aligned)
    assert outputs[0] == outputs[1]


def test_shipped_configs_align_on_the_calling_thread_at_the_shipped_threshold(
    monkeypatch, aligned
):
    # their paired buffers are 8-16 wide, far below LANE_WORK: overlapping
    # their calls hid no time on shipped_sweep and cost every run the pool
    monkeypatch.setattr(runner, "LANES", 2)
    main = threading.get_ident()
    for cfg in _configs():
        aligned.clear()
        run(replace(cfg, steps=min(cfg.steps, 4), align_every=1), write=False)
        assert aligned and {thread for thread, _, _ in aligned} == {main}, cfg.task


def test_buffers_handed_to_alignment_are_never_written_afterwards(lanes, aligned):
    # the overlapped call reads them while the next steps run: an in-place
    # momentum or Newton-Schulz update would race with it
    cfgs = [c for c in _configs() if c.policy.optimizer != "adamw"]
    cfgs.append(parse_config_text(ATTN64_MUON.format(out="unused")))
    for cfg in cfgs:
        for n in (1, 2):
            lanes(n)
            aligned.clear()
            run(replace(cfg, steps=min(cfg.steps, 6), align_every=1), write=False)
            assert aligned and all(buffers for _, buffers, _ in aligned), cfg.task
            for _, buffers, at_call in aligned:
                assert {name: b.tobytes() for name, b in buffers.items()} == at_call, cfg.task


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
    on = _lane_of(runner._classes(_groups(cfg)))
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
    lane1 = runner._lanes(runner._classes(_groups(cfg)))[1]
    group = next(c for c in lane1 if c.kind == TENSOR_GROUP)
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


def _fail_alignment(monkeypatch, at_step):
    """Make the alignment call of sampled step `at_step` raise."""
    original = runner.top_singular_alignment

    def failing(buffers, pairs, step):
        if step == at_step:
            cause = np.linalg.LinAlgError("SVD did not converge")
            raise RuntimeError(f"alignment failed at step {step}") from cause
        return original(buffers, pairs, step)

    monkeypatch.setattr(runner, "top_singular_alignment", failing)


def _record_group_steps(monkeypatch):
    """The committed step count each class step starts from, in call order."""
    starts = []
    original = runner.apply_group_step

    def recording(params, grads, cls, states, *args, **kwargs):
        starts.append(states[cls.id].t)
        return original(params, grads, cls, states, *args, **kwargs)

    monkeypatch.setattr(runner, "apply_group_step", recording)
    return starts


def _teon_cfg(**changes):
    cfg = parse_config_text((CONFIGS / "micro_attention_teon.ini").read_text(encoding="utf-8"))
    return replace(cfg, **changes)


def test_an_alignment_error_comes_before_the_next_steps_failing_group(monkeypatch, lanes):
    # alignment of step 4 (after optimizer step 3) fails, and so does a group
    # in step 4; the next sample (step 8) would collect the overlapped call
    cfg = _teon_cfg(steps=10, align_every=4)
    _fail_alignment(monkeypatch, 4)
    _plant(monkeypatch, ["b1.k"], (4,))
    starts = _record_group_steps(monkeypatch)
    reached = []
    for n in (1, 2):
        lanes(n)
        starts.clear()
        with pytest.raises(RuntimeError, match="^alignment failed at step 4$") as info:
            run(cfg, write=False)
        # the serial error itself, cause chain intact
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        reached.append(max(starts))
    # the serial run stops at the alignment; the overlapped one ran step 4 first
    assert reached == [3, 4]


def test_a_failing_group_after_a_clean_alignment_raises_the_groups_error(monkeypatch, lanes):
    cfg = _teon_cfg(steps=10, align_every=4)
    _plant(monkeypatch, ["b1.k"], (4,))
    messages = []
    for n in (1, 2):
        lanes(n)
        with pytest.raises(FloatingPointError) as info:
            run(cfg, write=False)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("group 'k.blocks0-1' at optimizer step 4: non-finite gradient")


def test_the_pool_gets_an_alignment_worker_only_when_the_run_samples_alignment(
    monkeypatch, lanes
):
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            sizes.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    lanes(2)
    for every in (4, 5):  # sampled once in 4 steps, then never
        run(_teon_cfg(steps=4, align_every=every), write=False)
    assert sizes == [2, 1]  # the second lane's worker, plus the alignment's


def test_no_thread_outlives_a_run_or_a_sweep(tmp_path, monkeypatch, lanes, aligned):
    lanes(2)
    before = threading.active_count()
    # lane workers alone (3 steps never reach the shipped align_every = 8),
    # then lane workers plus the alignment's
    lone, cfg = (_teon_cfg(steps=3, align_every=e, out_path=str(tmp_path / f"ok{e}")) for e in (8, 1))
    for c in (lone, cfg):
        run(c)
        assert threading.active_count() == before
    # every sampled step's alignment call overlapped its next step on a worker
    assert len(aligned) == 3 and threading.get_ident() not in {t for t, _, _ in aligned}
    _plant(monkeypatch, ["b1.k"], (1,))
    for c in (lone, cfg):  # the second while step 1's alignment is pending
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            run(c)
        assert threading.active_count() == before
    _fail_alignment(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="alignment failed at step 1"):
        run(cfg)
    assert threading.active_count() == before
    _, rows = sweep([lone, cfg], tmp_path / "sweep")
    assert [row.split(",")[6] for row in rows] == ["failed", "failed"]
    assert threading.active_count() == before
