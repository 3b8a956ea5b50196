"""Experiment loop: schedules, metrics, CSV persistence, sweeps.

Output layout: `out_path` is a directory receiving `metrics.csv` and
`alignment.csv`. Both files start with a version comment line, then a header
row; floats are written with 17 significant digits and lines end with \\n, so
a fixed seed reproduces the files byte for byte. The metrics file ends with
the run summary as `# summary.key=value` comment lines.

`wall_ms` is 0.0 unless the config sets log_timing=true — wall-clock values
would break the byte-identical determinism contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import SCHEDULES, RunConfig, config_hash
from .diagnostics import AlignmentRecord, default_alignment_pairs, top_singular_alignment
from .norms import NormKind, format_value, norm
from .optim import VECTOR_ADAMW, OptimizerState, apply_group_step, build_groups
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
    "schedule_factor",
    "schedule_lr",
    "gradient_metrics",
    "run",
    "sweep",
]

METRICS_HEADER = "# teon-metrics v1"
METRICS_COLUMNS = "step,loss,grad_muon_norm,grad_teon1_dual,grad_muon_dual,lr,wall_ms"
ALIGNMENT_HEADER = "# teon-alignment v1"
ALIGNMENT_COLUMNS = "step,pair_id,left_align,right_align,sigma_gap"
SWEEP_HEADER = "# teon-sweep v1"
SWEEP_COLUMNS = (
    "id,config_hash,task,optimizer,eta,steps,status,"
    "final_loss,best_loss,best_loss_step,error"
)


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


def schedule_lr(step: int, total: int, peak: float, kind: str, warmup_ratio: float) -> float:
    return peak * schedule_factor(step, total, kind, warmup_ratio)


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    loss: float
    grad_muon_norm: float
    grad_teon1_dual: float
    grad_muon_dual: float
    lr: float
    wall_ms: float

    def csv_row(self) -> str:
        return ",".join(
            [str(self.step)]
            + [
                f"{v:.17g}"
                for v in (
                    self.loss,
                    self.grad_muon_norm,
                    self.grad_teon1_dual,
                    self.grad_muon_dual,
                    self.lr,
                    self.wall_ms,
                )
            ]
        )


@dataclass
class RunResult:
    config: RunConfig
    metrics: list
    alignment: list
    summary: dict
    final_weights: dict
    metrics_path: Path | None = None
    alignment_path: Path | None = None


def gradient_metrics(grads: dict, groups) -> tuple[float, float, float, int]:
    """(max slice spectral norm, sum of stacked nuclear duals, sum of
    per-slice nuclear duals, max group depth) over all matrix groups."""
    muon_primal = 0.0
    teon1_dual = 0.0
    muon_dual = 0.0
    max_depth = 1
    for g in groups:
        if g.kind == VECTOR_ADAMW:
            continue
        stack = np.stack([grads[nm] for nm in g.members], axis=2)
        # one value-only SVD of the slices gives both muon norms
        s = np.linalg.svd(stack.transpose(2, 0, 1), compute_uv=False)
        muon_primal = max(muon_primal, float(s.max()))
        teon1_dual += norm(stack, NormKind.teon(1, dual=True))
        muon_dual += float(s.sum())
        max_depth = max(max_depth, g.depth)
    return muon_primal, teon1_dual, muon_dual, max_depth


def _check_record_sandwich(teon_dual: float, muon_dual: float, max_depth: int):
    tol = 1e-9 * max(1.0, muon_dual)
    if teon_dual > muon_dual + tol or muon_dual > np.sqrt(max_depth) * teon_dual + tol:
        raise RuntimeError(
            f"dual-norm sandwich violated: teon={teon_dual!r} muon={muon_dual!r} "
            f"depth={max_depth}"
        )


def _momentum_views(groups, states) -> dict:
    out = {}
    for g in groups:
        st = states[g.id]
        if st.momentum is None:
            continue
        for i, nm in enumerate(g.members):
            out[nm] = st.momentum[:, :, i]
    return out


def run(cfg: RunConfig, *, write: bool = True) -> RunResult:
    """Execute one configured run; optionally persist the two CSV files."""
    task = make_task(cfg.task, cfg.seed, **cfg.task_params)
    weights = task.init_weights(np.random.default_rng([cfg.seed, 1]))
    groups = build_groups(
        task.layout,
        cfg.group_k,
        cfg.stack_set,
        policy=cfg.policy,
        adamw_policy=cfg.adamw_policy,
    )
    states = {g.id: OptimizerState() for g in groups}
    pairs = default_alignment_pairs(task.layout)
    metrics: list[MetricsRecord] = []
    alignment: list[AlignmentRecord] = []

    for t in range(cfg.steps):
        tic = time.perf_counter() if cfg.log_timing else None
        loss, grads = task.loss_and_grads(weights)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at step {t}")
        factor = schedule_factor(t, cfg.steps, cfg.schedule, cfg.warmup_ratio)
        for g in groups:
            apply_group_step(weights, grads, g, states[g.id], lr_factor=factor)
        if (t % cfg.log_every == 0) or (t == cfg.steps - 1):
            # after the updates, so a non-finite gradient is first rejected
            # by the group that holds it, naming the group and step
            mp, td, md, kmax = gradient_metrics(grads, groups)
            _check_record_sandwich(td, md, kmax)
            wall = (time.perf_counter() - tic) * 1000.0 if cfg.log_timing else 0.0
            metrics.append(MetricsRecord(t, loss, mp, td, md, cfg.policy.eta * factor, wall))
        if (t + 1) % cfg.align_every == 0 and pairs:
            buffers = _momentum_views(groups, states)
            memo: dict = {}  # one SVD per buffer for this sampled step
            for pair_id, a, b in pairs:
                if a in buffers and b in buffers:
                    alignment.append(
                        top_singular_alignment(
                            buffers[a], buffers[b], step=t + 1, pair_id=pair_id, memo=memo
                        )
                    )

    best = min(metrics, key=lambda r: r.loss)
    summary = {
        "best_loss": best.loss,
        "best_loss_step": best.step,
        "final_loss": metrics[-1].loss,
        "best_teon1_dual": min(r.grad_teon1_dual for r in metrics),
        "best_muon_dual": min(r.grad_muon_dual for r in metrics),
        "max_group_depth": max(g.depth for g in groups),
    }
    result = RunResult(cfg, metrics, alignment, summary, weights)
    if write:
        out = Path(cfg.out_path)
        out.mkdir(parents=True, exist_ok=True)
        result.metrics_path = out / "metrics.csv"
        result.alignment_path = out / "alignment.csv"
        _write_lines(
            result.metrics_path,
            [METRICS_HEADER, METRICS_COLUMNS]
            + [r.csv_row() for r in metrics]
            + [f"# summary.{k}={format_value(v)}" for k, v in summary.items()],
        )
        _write_lines(
            result.alignment_path,
            [ALIGNMENT_HEADER, ALIGNMENT_COLUMNS] + [r.csv_row() for r in alignment],
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
        prefix = (
            f"{rid},{chash},{cfg.task},{cfg.policy.optimizer},"
            f"{cfg.policy.eta:.17g},{cfg.steps}"
        )
        try:
            res = run(run_cfg)
            rows.append(
                f"{prefix},ok,{res.summary['final_loss']:.17g},"
                f"{res.summary['best_loss']:.17g},{res.summary['best_loss_step']},"
            )
        except Exception as exc:  # record and continue: sweeps are fault-tolerant
            msg = str(exc).replace(",", ";").replace("\n", " ")
            rows.append(f"{prefix},failed,nan,nan,-1,{msg}")
    path = out / "summary.csv"
    _write_lines(path, [SWEEP_HEADER, SWEEP_COLUMNS] + rows)
    return path, rows
