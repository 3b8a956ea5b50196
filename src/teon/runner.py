"""Experiment loop: schedules, metrics, CSV persistence, sweeps.

Output layout: `out_path` is a directory receiving `metrics.csv` and
`alignment.csv`. Both files start with a version comment line, then a header
row naming the record's fields in order; each row is one record through
`csv_row`, every value through `format_value` (floats with 17 significant
digits), and lines end with \\n, so a fixed seed reproduces the files byte for
byte. The metrics file ends with the run summary as `# summary.key=value`
comment lines.

`wall_ms` is 0.0 unless the config sets log_timing=true — wall-clock values
would break the byte-identical determinism contract.

A run steps update classes (`optim.UpdateClass`): the groups that share a
policy and a slice shape, in order of first appearance, except that a big
group stays a class of one. It keeps each class's weights in one slice-major
arena and hands the task its slices (`optim.member_views`); each step stacks
the gradients once per class, and those arenas live for that step only: they
are dropped before the next step's `loss_and_grads` runs. One class step
makes one finiteness check, one momentum or AdamW update and one decay and
commit for all its groups, where the 8-16-wide shipped configs spent most of
a group step in per-call overhead. The polar factor still runs once per group
unfolding: batching Newton-Schulz across a class's unfoldings waits on phase
spans owned by the library, because the benchmark's trace hooks read
`apply_ortho`'s 2-D argument.

Class steps are independent, so a step may fan them out over thread lanes.
A group is big when the work r*r*c of its unfolding (r <= c its sides, NS on
the short side) reaches LANE_WORK = 128**3. A run uses L = min(LANES, big
groups) lanes, where LANES is the usable cores over the BLAS thread count
pinned by OPENBLAS_NUM_THREADS (else OMP_NUM_THREADS); with neither set BLAS
already uses every core, LANES is 1 and every run stays serial. Once per run
each big group, largest first, goes to the least-loaded lane; the calling
thread runs lane 0 with every other class, a thread pool the others. Each
class step reads and writes only its own arena and state and sets its own
errstate, so it needs nothing from the calling thread and the bytes equal
the serial run's either way. Every class is stepped even after one fails,
and the run raises the error of the lowest-index failing group, the one the
serial per-group loop raises; other classes may already have committed that
step.

A sampled step's alignment call overlaps the next step when the run samples
alignment at all, a spare core exists (LANES >= 2) and the call's SVD work,
r*r*c summed over the distinct paired matrices that keep a momentum buffer,
reaches LANE_WORK; below it, as on the 8-16-wide shipped configs, the overlap
hides no time and the pool only adds memory. The call then goes to one extra
worker of the pool and the loop goes on; its records are collected at the
next sampled step or when the loop ends, so they keep step order. The call
reads momentum buffers that the pure rules never write again, and the next
step only reads the weights, so the bytes equal the serial run's. When
anything raises while a call is pending, the run waits for it and raises its
error if it failed, else the step's: the serial order. The pool has L - 1
workers, plus one when alignment overlaps; it is built only when it has any
and is shut down when the run ends.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import SCHEDULES, RunConfig, config_hash
from .diagnostics import AlignmentRecord, default_alignment_pairs, top_singular_alignment
from .norms import norm
from .optim import ADAMW, VECTOR_ADAMW, OptimizerState, apply_group_step, build_groups
from .optim import ParamGroup, UpdateClass, member_views
from .tasks import make_task

__all__ = [
    "METRICS_HEADER",
    "METRICS_COLUMNS",
    "ALIGNMENT_HEADER",
    "ALIGNMENT_COLUMNS",
    "SWEEP_HEADER",
    "SWEEP_COLUMNS",
    "MetricsRecord",
    "RunResult",
    "format_value",
    "csv_row",
    "schedule_factor",
    "gradient_metrics",
    "run",
    "sweep",
]

SWEEP_HEADER = "# teon-sweep v1"
SWEEP_COLUMNS = (
    "id,config_hash,task,optimizer,eta,steps,status,"
    "final_loss,best_loss,best_loss_step,error"
)

# A group whose orthogonalization work r*r*c reaches this is stepped on a lane.
LANE_WORK = 128**3


def _spare_lanes() -> int:
    """Usable cores over the thread count BLAS is pinned to, 1 if it is not."""
    pinned = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        threads = int(pinned)
    except (TypeError, ValueError):
        threads = 0
    if threads < 1:
        return 1  # not pinned: BLAS already runs on every core
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cores or 1) // threads)


LANES = _spare_lanes()


def schedule_factor(step: int, total: int, kind: str, warmup_ratio: float) -> float:
    """Learning-rate multiplier in (0, 1] at `step` of a `total`-step run.

    Warmup ramps over the first floor(warmup_ratio * total) steps; at the
    first post-warmup step the factor is exactly 1, and at step == total the
    cosine and linear decays are exactly 0 (the loop only evaluates steps
    < total, so in-run rates stay positive).
    """
    if kind not in SCHEDULES:
        raise ValueError(f"unknown schedule {kind!r}; valid: {SCHEDULES}")
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if kind == "constant":
        return 1.0
    warm = int(warmup_ratio * total)
    if step < warm:
        return (step + 1) / (warm + 1)
    x = (step - warm) / max(total - warm, 1)
    if kind == "cosine":
        return 0.5 * (1.0 + float(np.cos(np.pi * x)))
    return 1.0 - x


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    loss: float
    grad_muon_norm: float
    grad_teon1_dual: float
    grad_muon_dual: float
    lr: float
    wall_ms: float


METRICS_HEADER = "# teon-metrics v1"
METRICS_COLUMNS = ",".join(f.name for f in fields(MetricsRecord))
ALIGNMENT_HEADER = "# teon-alignment v1"
ALIGNMENT_COLUMNS = ",".join(f.name for f in fields(AlignmentRecord))


def format_value(x) -> str:
    """A value as every output of a run writes it: a float with 17 significant
    digits, so it reads back to the same double, anything else with str()."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def csv_row(record) -> str:
    """A record dataclass's fields, in field order, as one CSV row."""
    return ",".join(format_value(getattr(record, f.name)) for f in fields(record))


@dataclass
class RunResult:
    config: RunConfig
    metrics: list
    alignment: list
    summary: dict
    metrics_path: Path | None = None
    alignment_path: Path | None = None


def gradient_metrics(grads: dict, groups) -> tuple[float, float, float]:
    """(max slice spectral norm, sum of stacked nuclear duals, sum of
    per-slice nuclear duals) over all matrix groups, from `grads` keyed by
    group id to each group's gradient stack."""
    muon_primal = teon1_dual = muon_dual = 0.0
    for g in groups:
        if g.kind == VECTOR_ADAMW:
            continue
        stack = grads[g.id]
        # one value-only SVD of the slices gives both muon norms
        s = np.linalg.svd(stack, compute_uv=False)
        muon_primal = max(muon_primal, float(s.max()))
        teon1_dual += norm(stack, 1, dual=True)
        muon_dual += float(s.sum())
    return muon_primal, teon1_dual, muon_dual


def _check_record_sandwich(teon_dual: float, muon_dual: float, max_depth: int):
    tol = 1e-9 * max(1.0, muon_dual)
    if teon_dual > muon_dual + tol or muon_dual > np.sqrt(max_depth) * teon_dual + tol:
        raise RuntimeError(
            f"dual-norm sandwich violated: teon={teon_dual!r} muon={muon_dual!r} "
            f"depth={max_depth}"
        )


def _ortho_work(group: ParamGroup) -> int:
    """r*r*c of the group's mode-`policy.mode` unfolding (r <= c); 0 under adamw."""
    if group.policy.optimizer == ADAMW:
        return 0
    (m, n), k = group.shapes[0], group.depth
    r, c = sorted((n, m * k) if group.policy.mode == 2 else (m, n * k))
    return r * r * c


def _classes(groups) -> list[UpdateClass]:
    """The groups that share a policy and a slice shape, as classes in order of
    first appearance; a big group stays a class of one."""
    members: dict = {}
    for i, g in enumerate(groups):
        key = (g.policy, g.shapes[0]) if _ortho_work(g) < LANE_WORK else i
        members.setdefault(key, []).append(g)
    return [UpdateClass(tuple(gs)) for gs in members.values()]


def _lanes(classes) -> list[list[UpdateClass]]:
    """Classes per lane, each lane in class order: each big group's class,
    largest first, joins the least-loaded of min(LANES, big groups) lanes,
    and lane 0 also takes every other class."""
    work = [max(_ortho_work(g) for g in c.groups) for c in classes]
    big = sorted((i for i, w in enumerate(work) if w >= LANE_WORK), key=lambda i: -work[i])
    load = [0] * max(1, min(LANES, len(big)))
    lane_of = [0] * len(classes)
    for i in big:
        lane_of[i] = j = load.index(min(load))
        load[j] += work[i]
    return [[c for i, c in enumerate(classes) if lane_of[i] == j] for j in range(len(load))]


def _align_work(groups, pairs) -> int:
    """r*r*c (r <= c) summed over the distinct paired matrices that keep a
    momentum buffer: the work of one sampled step's alignment SVDs."""
    paired = {name for _, a, b in pairs for name in (a, b)}
    return sum(
        min(shape) ** 2 * max(shape)
        for g in groups
        if g.policy.optimizer != ADAMW
        for name, shape in zip(g.members, g.shapes)
        if name in paired
    )


def _group_stacks(arenas, classes) -> dict:
    """Each group id mapped to its stack: its slice of its class's arena."""
    return {g.id: arenas[c.id][lo:hi] for c in classes for g, (lo, hi) in zip(c.groups, c.bounds)}


def _step_lane(lane, params, grads, states, factor) -> list[Exception]:
    """Step every class of the lane in order; the errors of those that fail."""
    failed = []
    for c in lane:
        try:
            apply_group_step(params, grads, c, states, lr_factor=factor)
        except Exception as exc:
            failed.append(exc)
    return failed


def run(cfg: RunConfig, *, write: bool = True) -> RunResult:
    """Execute one configured run; optionally persist the two CSV files."""
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    weights = task.init_weights(np.random.default_rng([cfg.seed, 1]))
    groups = build_groups(
        task.layout, cfg.group_k, cfg.stack_set, policy=cfg.policy, adamw_policy=cfg.adamw_policy
    )
    classes = _classes(groups)
    params = {c.id: c.stack(weights) for c in classes}
    weights = member_views(params, classes)  # the task reads these views every step
    states = {c.id: OptimizerState() for c in classes}
    order = {g.id: i for i, g in enumerate(groups)}
    max_depth = max(g.depth for g in groups)
    pairs = default_alignment_pairs(task.layout)
    metrics: list[MetricsRecord] = []
    alignment: list[AlignmentRecord] = []

    lanes, pool, aligning = _lanes(classes), None, None
    # a sampled step's alignment runs on a spare core while the next step trains
    overlap = (
        LANES >= 2 and cfg.align_every <= cfg.steps and _align_work(groups, pairs) >= LANE_WORK
    )
    if len(lanes) > 1 or overlap:
        # imported only here: the import alone costs a serial run 6 ms and 0.6 MB
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(len(lanes) - 1 + overlap)
    try:
        for t in range(cfg.steps):
            tic = time.perf_counter() if cfg.log_timing else None
            # an overflow in the task raises where it happens, whatever the warning
            # filters; a NaN already in the weights still reaches the loss check
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    loss, grads = task.loss_and_grads(weights)
            except FloatingPointError as exc:
                raise FloatingPointError(f"non-finite loss at step {t}: {exc}") from exc
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at step {t}")
            grads = {c.id: c.stack(grads) for c in classes}
            factor = schedule_factor(t, cfg.steps, cfg.schedule, cfg.warmup_ratio)
            pending = [
                pool.submit(_step_lane, lane, params, grads, states, factor) for lane in lanes[1:]
            ]
            failed = _step_lane(lanes[0], params, grads, states, factor)
            failed += [exc for p in pending for exc in p.result()]
            if failed:  # the serial loop's error: the lowest-index failing group's
                raise min(failed, key=lambda exc: order[exc.group])
            if (t % cfg.log_every == 0) or (t == cfg.steps - 1):
                # after the updates, so a non-finite gradient is first rejected
                # by the group that holds it, naming the group and step
                mp, td, md = gradient_metrics(_group_stacks(grads, classes), groups)
                _check_record_sandwich(td, md, max_depth)
                wall = (time.perf_counter() - tic) * 1000.0 if cfg.log_timing else 0.0
                metrics.append(MetricsRecord(t, loss, mp, td, md, cfg.policy.eta * factor, wall))
            del grads  # no gradient arena outlives its step
            if (t + 1) % cfg.align_every == 0 and pairs:
                # the rules never write a momentum buffer again, so the views
                # stay valid while the next steps commit new ones
                buffers = member_views({c.id: states[c.id].momentum for c in classes}, classes)
                if overlap:
                    if aligning is not None:
                        alignment += aligning.result()
                    aligning = pool.submit(top_singular_alignment, buffers, pairs, step=t + 1)
                else:
                    alignment += top_singular_alignment(buffers, pairs, step=t + 1)
        if aligning is not None:
            alignment += aligning.result()
    except BaseException:
        # the serial loop raises a sampled step's alignment error before any
        # later step's: wait for the pending call, whose result() re-raises
        # its error, cause chain intact; else the step's error propagates
        if aligning is not None:
            aligning.result()
        raise
    finally:
        if pool is not None:
            pool.shutdown()

    best = min(metrics, key=lambda r: r.loss)
    summary = {
        "best_loss": best.loss,
        "best_loss_step": best.step,
        "final_loss": metrics[-1].loss,
        "best_teon1_dual": min(r.grad_teon1_dual for r in metrics),
        "best_muon_dual": min(r.grad_muon_dual for r in metrics),
        "max_group_depth": max_depth,
    }
    result = RunResult(cfg, metrics, alignment, summary)
    if write:
        out = Path(cfg.out_path)
        out.mkdir(parents=True, exist_ok=True)
        result.metrics_path = out / "metrics.csv"
        result.alignment_path = out / "alignment.csv"
        _write_lines(
            result.metrics_path,
            [METRICS_HEADER, METRICS_COLUMNS]
            + [csv_row(r) for r in metrics]
            + [f"# summary.{k}={format_value(v)}" for k, v in summary.items()],
        )
        _write_lines(
            result.alignment_path,
            [ALIGNMENT_HEADER, ALIGNMENT_COLUMNS] + [csv_row(r) for r in alignment],
        )
    return result


def _write_lines(path: Path, lines: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sweep(configs, out_dir) -> tuple[Path, list[str]]:
    """Run each config under `out_dir/runs/<id>` and write one summary row
    per config to `out_dir/summary.csv`. A failing run is recorded with
    status=failed and its error message; the sweep continues."""
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, cfg in enumerate(configs):
        chash = config_hash(cfg)
        rid = f"{chash}-{idx}"
        run_cfg = replace(cfg, out_path=str(out / "runs" / rid))
        head = (rid, chash, cfg.task, cfg.policy.optimizer, cfg.policy.eta, cfg.steps)
        try:
            s = run(run_cfg).summary
            tail = ("ok", s["final_loss"], s["best_loss"], s["best_loss_step"], "")
        except Exception as exc:  # record and continue: sweeps are fault-tolerant
            msg = str(exc).replace(",", ";").replace("\n", " ")
            tail = ("failed", float("nan"), float("nan"), -1, msg)
        rows.append(",".join(format_value(v) for v in head + tail))
    path = out / "summary.csv"
    _write_lines(path, [SWEEP_HEADER, SWEEP_COLUMNS] + rows)
    return path, rows
