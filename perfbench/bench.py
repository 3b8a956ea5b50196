"""Measurement of one workload: untraced end-to-end figures or a traced run.

Untraced (`trace=False`), with the end-to-end metrics:
  steps_per_s   training steps per second: the number of step stretches of a
                pass over the sum of their best durations (see below)
  pass_s_best   seconds of one pass: the sum of the best durations of every
                stretch of a pass, steps and the set-up and write-out between
  setup_s       median over fresh processes, run between the timed passes,
                of importing teon, parsing the workload's configs and
                constructing its tasks
  peak_rss_mb   peak resident memory of the workload's process
The median pass time (`pass_s_p50`, with the sample count and a tail
percentile) and steps per wall second over the whole timed passes are
printed as well, but are not gated.

Best durations. On a shared host the same code runs in a fast state and in
one up to 40% slower, switching within a second and in phases of 15 s to
minutes, so a median over whole passes follows the share of slow time more
than the program. A `StepClock` therefore stamps the start of every
training step (one timestamp per step, the only instrumentation of untraced
passes), which cuts each pass into the same sequence of stretches: from the
pass start or a run's last step to the next run's first step, each step of
a run, and from the last step to the pass end. A stretch's best duration is
the shortest of its durations over the run's passes. Between 30 s windows on
a noisy 2-vCPU host, the sum of the best durations spread least, ahead of the
sums of the stretches' 10th and 25th percentiles and far ahead of the median
pass time.

Traced (`trace=True`): untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes, and `trace.overhead_share` is
the traced median pass time over the untraced one, minus 1.

Both modes start with one untimed warm-up pass, check every pass's output
(see `workloads.OutputCheck`) and count failed runs against attempted ones.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import teon.runner
import teon.tasks

import checkout
import spans
import workloads

SETUP_REPEATS = 7
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

E2E_UNITS = {"steps_per_s": "1/s", "pass_s_best": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layers a workload leaves idle by design. Any other per-layer figure that
# reads 0 means a trace hook no longer sees the calls it was written for.
IDLE_LAYERS = {
    "shipped_sweep": set(),
    "attn64_diag": {"optim.tensor_group", "ortho.exact_svd"},
    "attn128_train": {"ortho.exact_svd", "diagnostics.alignment", "linalg.svd"},
}
COUNT_SUFFIXES = (".calls", ".svd_calls", ".loss_evals")


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES) or name == "tasks.fd_gate_rejects":
        return "count"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "trace.overhead_share":
        return "ratio"
    return "ms"


def _setup_seconds(wl: workloads.Workload) -> float:
    proc = subprocess.run(
        [sys.executable, str(PROBE), *map(str, wl.config_paths)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=checkout.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class StepClock:
    """Stamps the start of every training step, from outside teon.

    While installed, `teon.runner.make_task` hands `runner.run` its task with
    `loss_and_grads`, which `runner.run` calls once per step, wrapped to first
    record (run number, time.perf_counter()). A missing hook or a pass with
    no step stamped raises `spans.HookError`.
    """

    HOOK = "teon.runner.make_task"

    def __init__(self):
        self.marks: list[tuple[int, float]] = []
        self._runs = 0
        self._original = None

    def __enter__(self):
        original = getattr(teon.runner, "make_task", None)
        if not callable(original):
            raise spans.HookError(f"step clock hook {self.HOOK} no longer exists")

        def make_task(*args, **kwargs):
            task = original(*args, **kwargs)
            run, loss_and_grads = self._runs, task.loss_and_grads
            self._runs += 1

            def stamped(*a, **k):
                self.marks.append((run, time.perf_counter()))
                return loss_and_grads(*a, **k)

            task.loss_and_grads = stamped
            return task

        self._original = original
        teon.runner.make_task = make_task
        return self

    def __exit__(self, *exc) -> None:
        teon.runner.make_task = self._original

    def stretches(self, outcome: workloads.PassOutcome) -> dict:
        """Durations of the pass that just ran, keyed by stretch; resets the marks.

        Keys: ("before", r) ends at run r's first step, ("step", r, k) is
        step k >= 1 of run r up to the next step, ("after",) runs from the
        last stamped step to the pass end. Run numbers count from the pass."""
        marks, self.marks = self.marks, []
        if not marks:
            raise spans.HookError(f"step clock hook {self.HOOK} stamped no training step")
        first_run = marks[0][0]
        out, prev_t, prev_run, k = {}, outcome.start, None, 0
        for run, t in marks:
            if run == prev_run:
                k += 1
                out[("step", run - first_run, k)] = t - prev_t
            else:
                prev_run, k = run, 0
                out[("before", run - first_run)] = t - prev_t
            prev_t = t
        out[("after",)] = outcome.start + outcome.wall_s - prev_t
        return out


def _timed_pass(wl, check) -> workloads.PassOutcome:
    gc.collect()
    outcome = workloads.run_pass(wl)
    check.check(outcome)
    return outcome


def _steps_done(wl, outcome) -> int:
    return sum(n for run, n in zip(outcome.runs, wl.run_steps) if run.error is None)


def _untraced(wl, check, seconds, setup_repeats, log) -> dict:
    by_stretch = defaultdict(list)
    walls, steps, setup = [], 0, []
    with StepClock() as clock:
        clock.stretches(_timed_pass(wl, check))  # warm-up: caches fill, lazy set-up finishes
        while True:
            outcome = _timed_pass(wl, check)
            for key, dur in clock.stretches(outcome).items():
                by_stretch[key].append(dur)
            walls.append(outcome.wall_s)
            steps += _steps_done(wl, outcome)
            # Set-up probes spread over the run, between passes, so that their
            # median spans the same host phases as the passes.
            if len(setup) < setup_repeats and sum(walls) >= len(setup) * seconds / setup_repeats:
                setup.append(_setup_seconds(wl))
            if sum(walls) >= seconds:
                break
    while len(setup) < setup_repeats:
        setup.append(_setup_seconds(wl))
    best = {key: min(durs) for key, durs in by_stretch.items()}
    step_keys = [key for key in best if key[0] == "step"]
    if not step_keys:
        raise spans.HookError(f"step clock hook {StepClock.HOOK} saw no run with two steps")
    metrics = {
        "steps_per_s": len(step_keys) / sum(best[key] for key in step_keys),
        "pass_s_best": sum(best.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    log(
        f"steps_per_s      {metrics['steps_per_s']:.6g} 1/s ({len(step_keys)} step stretches"
        f" per pass at their best durations over {len(walls)} passes)"
    )
    log(f"pass_s_best      {metrics['pass_s_best']:.6g} s (sum of the best durations of {len(best)} stretches)")
    log(f"setup_s          {metrics['setup_s']:.6g} s (median of {len(setup)} fresh processes)")
    log(f"peak_rss_mb      {metrics['peak_rss_mb']:.6g} MB")
    log(f"pass_s_p50       {statistics.median(walls):.6g} s, not gated ({_tail(walls)})")
    log(f"wall steps/s     {steps / sum(walls):.6g} 1/s, not gated ({steps} steps in {sum(walls):.4g} s of timed passes)")
    return metrics


def _tail(walls: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(walls)
    pct = math.floor(100 * (n - 10) / n)
    if pct <= 50:
        return f"n={n} passes; a tail percentile with ten passes beyond it needs n >= 21"
    return f"n={n} passes; p{pct}={sorted(walls)[n - 11]:.6g} s with ten passes beyond it"


def fd_gate_rejects() -> int:
    """1 while the known FD-gate false positive (micro_attention, dim 64,
    6 blocks) rejects a correct gradient, else 0. The gate is not bypassed."""
    try:
        teon.tasks.make_task("micro_attention", 0, dim=64, seq=16, batch=8, blocks=6)
    except RuntimeError as exc:
        if "gradient check failed" in str(exc):
            return 1
        raise
    return 0


def _traced(wl, check, seconds, log) -> dict:
    _timed_pass(wl, check)  # warm-up
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(_timed_pass(wl, check).wall_s)
        tracer = spans.Tracer()
        with tracer:
            root = tracer.open("pass")
            try:
                traced.append(_timed_pass(wl, check).wall_s)
            finally:
                tracer.close(root)
        tracers.append(tracer)
        if time.perf_counter() >= deadline:
            break
    per_pass = [spans.layer_metrics(t) for t in tracers]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for name, value in metrics.items():
        if value == 0 and name.rsplit(".", 1)[0] not in IDLE_LAYERS[wl.name]:
            raise spans.HookError(
                f"{name} is 0 on {wl.name}: its trace hook no longer sees any call"
            )
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["tasks.fd_gate_rejects"] = fd_gate_rejects()
    out = checkout.WORK / f"{wl.name}.spans.jsonl"
    spans.write_spans(out, tracers)
    log(f"traced passes    {len(tracers)} (spans in {out.relative_to(checkout.ROOT)})")
    for name, value in metrics.items():
        log(f"{name:<34} {value:.6g} {layer_unit(name)}")
    return metrics


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    steps: int | None = None,
    setup_repeats: int = SETUP_REPEATS,
    log=print,
) -> dict:
    """Run one workload; return the result object the benchmark prints last.

    `steps` shortens every run (smoke test only); the recorded reference
    losses then do not apply and are not checked."""
    variant = seed % workloads.VARIANTS
    wl = workloads.prepare(name, variant, checkout.WORK / name, steps)
    reference = workloads.load_reference(name, variant) if steps is None else None
    check = workloads.OutputCheck(reference, sweep=name == "shipped_sweep")
    log(f"context          {json.dumps(checkout.machine_context(), sort_keys=True)}")
    log(f"workload         {name} (seed {seed} -> input variant {variant}; closed loop, one process)")
    if trace:
        metrics = _traced(wl, check, seconds, log)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = _untraced(wl, check, seconds, setup_repeats, log)
        units = E2E_UNITS
    share = check.failed / check.attempted
    log(f"ops_failed_share {share:.6g} ratio ({check.failed} failed of {check.attempted} runs)")
    for failure in check.failures[:10]:
        log(f"failed run       {failure}")
    checked = ["finite final losses", "CSV bytes identical across passes"]
    if name == "shipped_sweep":
        checked.append("sweep failed=0")
    if reference is not None:
        checked.append(f"final losses within rtol {workloads.FINAL_LOSS_RTOL:g} of reference.json")
    log(f"output check     {'pass' if check.failed == 0 else 'FAIL'}: {', '.join(checked)}")
    if check.reference_digests_match is not None:
        same = "equal" if check.reference_digests_match else "differ from"
        log(f"reference bytes  CSV bytes {same} the digests in reference.json (not gated)")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
