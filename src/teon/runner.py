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
policy, a slice shape and a depth K, in order of first appearance, except
that a big group stays a class of one; a depth-K stack and its depth-r
remainder are two classes. It keeps each class's weights in one arena, the
(G, K, m, n) stack of its groups ((G, 1, d) for vectors), and hands the task
its slices (`optim.member_views`); each step stacks the gradients into the
same shape once per class, and those arenas live for that step only: they
are dropped before the next step's `loss_and_grads` runs. One class step
makes one finiteness check, one momentum or AdamW update and one decay and
commit for all its groups. The polar factor still runs once per group
unfolding: batching Newton-Schulz across a class's unfoldings waits on phase
spans owned by the library, because the benchmark's trace hooks read
`apply_ortho`'s 2-D argument.

A logged step's `gradient_metrics` reads the same gradient arenas: one
`norm` call on each matrix class's arena gives both muon norms of its
groups from one SVD. A depth-1 group's teon-1 dual is its muon dual,
since its mode-1 unfolding is the slice itself; only a deeper class takes a
second `norm` call, for its unfoldings. The per-group values are summed in
group (build) order, so the bytes equal those of summing group by group
whatever the class order.

Before the first step, `_plan` decides how the run executes, from the
groups, the alignment pairs, the config and the spare lanes: the usable cores
over the BLAS thread count pinned by OPENBLAS_NUM_THREADS (else
OMP_NUM_THREADS), read when `run()` starts; with neither set BLAS already uses
every core and the run stays serial. A group is big when the work r*r*c of
its unfolding (r <= c its sides, NS on the short side) reaches LANE_WORK =
128**3, and a big group is a class of one. Class steps are independent, so
the run spreads them over L = min(spare lanes, big groups) lanes: each big
group, largest first, goes to the least-loaded lane, and lane 0, on the
calling thread, also takes every other class. A sampled step's alignment
call overlaps the next step when the run samples alignment at all, a spare
core exists and the call's SVD work, r*r*c summed over the distinct paired
matrices that keep a momentum buffer, reaches LANE_WORK; below it, as on the
8-16-wide shipped configs, the overlap hides no time and the pool only adds
memory. The pool has L - 1 workers, plus one when alignment overlaps; it is
built only when it has any and is shut down when the run ends. Each class
step reads and writes only its own arena and state and sets its own
errstate, and the alignment call reads momentum buffers that the pure rules
never write again while the next step only reads the weights, so the bytes
equal the serial run's. Every class is stepped even after one fails, and the
run raises the error of the lowest-index failing group, the one the serial
per-group loop raises; other classes may already have committed that step.
An overlapped call's records are collected at the next sampled step or when
the loop ends, so they keep step order; when anything raises while a call is
pending, the run waits for it and raises its error if it failed, else the
step's: the serial order.
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
from .optim import UpdateClass, member_views
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


def gradient_metrics(arenas: dict, classes, groups) -> tuple[float, float, float]:
    """(max slice spectral norm, sum of stacked nuclear duals, sum of
    per-slice nuclear duals) over all matrix groups, from `arenas` keyed by
    class id to each class's (G, K, m, n) gradient arena: one `norm` call
    per class, and one more for a deeper class's teon-1 duals
    (a depth-1 group's is its muon dual). The per-group values are added in
    the order of `groups`, as summing group by group would add them."""
    values = {}  # group id -> (slice sigma_1 max, teon-1 dual, slice nuclear sum)
    for c in classes:
        if c.kind == VECTOR_ADAMW:
            continue
        stack = arenas[c.id]
        primal, dual = norm(stack, None, dual=(False, True))
        teon1 = dual if stack.shape[1] == 1 else norm(stack, 1, dual=True)
        ids = [g.id for g in c.groups]
        values.update(zip(ids, zip(primal.tolist(), teon1.tolist(), dual.tolist())))
    muon_primal = teon1_dual = muon_dual = 0.0
    for g in groups:
        if g.id in values:
            primal, teon1, dual = values[g.id]
            muon_primal = max(muon_primal, primal)
            teon1_dual += teon1
            muon_dual += dual
    return muon_primal, teon1_dual, muon_dual


def _check_record_sandwich(teon_dual: float, muon_dual: float, max_depth: int):
    tol = 1e-9 * max(1.0, muon_dual)
    if teon_dual > muon_dual + tol or muon_dual > np.sqrt(max_depth) * teon_dual + tol:
        raise RuntimeError(
            f"dual-norm sandwich violated: teon={teon_dual!r} muon={muon_dual!r} "
            f"depth={max_depth}"
        )


def _work(m: int, n: int) -> int:
    """r*r*c of an m x n matrix (r <= c its sides): the work of its
    Newton-Schulz run on the short side, or of its SVD."""
    r, c = sorted((m, n))
    return r * r * c


def _plan(groups, pairs, cfg: RunConfig, spare: int, *, lane_work: int = LANE_WORK):
    """How a run of `groups` executes on `spare` usable lanes, as the module
    docstring describes: (the update classes, in order of first appearance;
    the classes of each lane, in that order; whether alignment overlaps).
    `lane_work` exists for the tests alone: a run plans at LANE_WORK."""
    members: dict = {}
    work = {}  # group id -> r*r*c of its mode-`policy.mode` unfolding, 0 under adamw
    for i, g in enumerate(groups):
        work[g.id] = 0
        if g.policy.optimizer != ADAMW:
            (m, n), k = g.shapes[0], g.depth
            work[g.id] = _work(*((n, m * k) if g.policy.mode == 2 else (m, n * k)))
        key = (g.policy, g.shapes[0], g.depth) if work[g.id] < lane_work else i
        members.setdefault(key, []).append(g)
    classes = [UpdateClass(tuple(gs)) for gs in members.values()]
    # a big group is a class of one: largest first, to the least-loaded lane
    big = sorted((c for c in classes if work[c.id] >= lane_work), key=lambda c: -work[c.id])
    load = [0] * max(1, min(spare, len(big)))
    lane_of = {}
    for c in big:
        lane_of[c.id] = j = load.index(min(load))
        load[j] += work[c.id]
    lanes = [[c for c in classes if lane_of.get(c.id, 0) == j] for j in range(len(load))]
    paired = {name for _, a, b in pairs for name in (a, b)}
    align = sum(
        _work(*shape)
        for g in groups
        if g.policy.optimizer != ADAMW
        for name, shape in zip(g.members, g.shapes)
        if name in paired
    )
    return classes, lanes, spare >= 2 and cfg.align_every <= cfg.steps and align >= lane_work


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
    pairs = default_alignment_pairs(task.layout)
    classes, lanes, overlap = _plan(groups, pairs, cfg, _spare_lanes())
    params = {c.id: c.stack(weights) for c in classes}
    weights = member_views(params, classes)  # the task reads these views every step
    states = {c.id: OptimizerState() for c in classes}
    order = {g.id: i for i, g in enumerate(groups)}
    max_depth = max(g.depth for g in groups)
    metrics: list[MetricsRecord] = []
    alignment: list[AlignmentRecord] = []

    pool = aligning = None
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
                mp, td, md = gradient_metrics(grads, classes, groups)
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
