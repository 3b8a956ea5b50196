"""Traced passes: spans around calls into each teon module, from outside it.

A `Tracer` replaces module-level names that `teon.runner.run` calls through
with wrappers that open and close spans, and restores them on exit. Nothing
in `src/teon` is edited. Each span records its name, start, end, parent span
and the id of the run it belongs to (the enclosing `runner.run` span, or the
pass for work outside a run). A span's self time is its duration minus its
child spans. Spans stay in memory until `write_spans` at the end.

A hook whose name no longer exists stops the traced run with a `HookError`
naming it, and so does a call count that stays 0 on a workload that is
expected to exercise it: the trace never reports a silent 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

import teon.cli  # noqa: F401  imports every module the hooks patch
import teon.linalg
import teon.tasks


class HookError(RuntimeError):
    """A trace hook cannot be installed or never fired."""


def _group_kind(weights, grads, group, *args, **kwargs):
    return f"optim.{group.kind}", 0.0


def _ortho_kind(m, scheme, *args, **kwargs):
    if scheme.kind != "newton_schulz":
        return f"ortho.{scheme.kind}", 0.0
    # Matmul work of one NS run on the short side r <= c:
    # per step X X^T (2 r^2 c), G G (2 r^3) and (bG + cG^2) X (2 r^2 c).
    r, c = sorted(m.shape)
    return "ortho.newton_schulz", scheme.steps * (4.0 * r * r * c + 2.0 * r**3)


def _csv_bytes(path, lines, *args, **kwargs):
    return "runner.write_csv", float(len(("\n".join(lines) + "\n").encode("utf-8")))


def _named(name):
    return lambda *args, **kwargs: (name, 0.0)


# (module, attribute, describe(args) -> (span name, amount)). Every name is one
# that runner.run, runner.sweep or cli.main looks up at call time; `teon run`
# reaches runner.run through cli's own reference, `teon sweep` through runner's.
SPAN_HOOKS = (
    ("teon.cli", "parse_config", _named("config.parse")),
    ("teon.cli", "run", _named("runner.run")),
    ("teon.runner", "run", _named("runner.run")),
    ("teon.runner", "make_task", _named("tasks.construct")),
    ("teon.runner", "gradient_metrics", _named("runner.gradient_metrics")),
    ("teon.runner", "norm", _named("norms.norm")),
    ("teon.runner", "apply_group_step", _group_kind),
    ("teon.runner", "top_singular_alignment", _named("diagnostics.alignment")),
    ("teon.runner", "_write_lines", _csv_bytes),
    ("teon.optim", "apply_ortho", _ortho_kind),
    ("teon.ortho", "svd", _named("linalg.svd")),
    ("teon.diagnostics", "svd", _named("linalg.svd")),
)
VALIDATORS = ("as_matrix", "as_tensor3")


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    run: int
    amount: float  # NS flop for ortho.newton_schulz, bytes for runner.write_csv


class Tracer:
    """Collects spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {"linalg.validate": 0, "tasks.construct.loss_evals": 0}
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans
    def open(self, name: str, amount: float = 0.0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        run = idx if parent is None or name == "runner.run" else self.spans[parent].run
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, run, amount))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    # -- hooks
    def _patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, amount = describe(*args, **kwargs)
            idx = self.open(name, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _loss_wrapper(self, fn):
        # FD-gate evaluations inside task construction are counted, not spanned,
        # so tasks.construct's self time includes them.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._innermost() == "tasks.construct":
                self.counts["tasks.construct.loss_evals"] += 1
                return fn(*args, **kwargs)
            idx = self.open("tasks.loss_and_grads")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _count_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        try:
            for modname, attr, describe in SPAN_HOOKS:
                mod = importlib.import_module(modname)
                if not callable(getattr(mod, attr, None)):
                    raise HookError(f"trace hook {modname}.{attr} no longer exists")
                self._patch(mod, attr, self._span_wrapper(getattr(mod, attr), describe))
            self._install_task_hooks()
            self._install_validator_hooks()
        except BaseException:
            self.uninstall()
            raise

    def _install_task_hooks(self) -> None:
        classes = {
            getattr(obj, "name", None): obj
            for obj in vars(teon.tasks).values()
            if isinstance(obj, type)
        }
        for task in teon.tasks.TASK_NAMES:
            cls = classes.get(task)
            if cls is None or "loss_and_grads" not in vars(cls):
                raise HookError(f"trace hook teon.tasks <{task} task>.loss_and_grads no longer exists")
            self._patch(cls, "loss_and_grads", self._loss_wrapper(vars(cls)["loss_and_grads"]))

    def _install_validator_hooks(self) -> None:
        # Every teon module that imported a validator holds its own reference.
        for attr in VALIDATORS:
            original = getattr(teon.linalg, attr, None)
            if original is None:
                raise HookError(f"trace hook teon.linalg.{attr} no longer exists")
            wrapper = self._count_wrapper(original, "linalg.validate")
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("teon.") and vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass. `.ms` is self time, `.calls` a count."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(idx)
    self_ns = [
        (s.end - s.start) - sum(spans[c].end - spans[c].start for c in children.get(i, ()))
        for i, s in enumerate(spans)
    ]
    ms: Counter = Counter()
    calls: Counter = Counter()
    amount: Counter = Counter()
    for i, s in enumerate(spans):
        ms[s.name] += _ms(self_ns[i])
        calls[s.name] += 1
        amount[s.name] += s.amount

    out: dict[str, float] = {}
    for name in (
        "optim.tensor_group",
        "optim.matrix_single",
        "optim.vector_adamw",
        "ortho.newton_schulz",
        "ortho.exact_svd",
        "diagnostics.alignment",
        "runner.gradient_metrics",
        "norms.norm",
        "tasks.loss_and_grads",
        "linalg.svd",
    ):
        out[f"{name}.ms"] = ms[name]
        out[f"{name}.calls"] = calls[name]
    out["linalg.validate.calls"] = tracer.counts["linalg.validate"]
    gflop = amount["ortho.newton_schulz"] / 1e9
    out["ortho.newton_schulz.gflop"] = gflop
    ns_s = ms["ortho.newton_schulz"] / 1e3
    out["ortho.newton_schulz.gflops"] = gflop / ns_s if ns_s > 0 else 0.0
    out["diagnostics.alignment.svd_calls"] = sum(
        1
        for s in spans
        if s.name == "linalg.svd" and s.parent is not None
        and spans[s.parent].name == "diagnostics.alignment"
    )
    out["tasks.construct.ms"] = ms["tasks.construct"]
    out["tasks.construct.loss_evals"] = tracer.counts["tasks.construct.loss_evals"]
    out["config.parse.ms"] = ms["config.parse"]
    out["runner.write_csv.ms"] = ms["runner.write_csv"]
    out["runner.write_csv.bytes"] = amount["runner.write_csv"]
    out["runner.self.ms"] = ms["runner.run"]

    steps = _step_ns(spans, children)
    if len(steps) >= 2:
        deciles = statistics.quantiles(steps, n=10)
        out["runner.step.ms_p50"] = _ms(statistics.median(steps))
        out["runner.step.ms_p90"] = _ms(deciles[8])
    else:
        out["runner.step.ms_p50"] = out["runner.step.ms_p90"] = _ms(sum(steps))
    return out


def _step_ns(spans: list[Span], children: dict[int, list[int]]) -> list[int]:
    """Durations of training steps, taken from outside the loop: a step runs
    from one training loss evaluation to the next, and the last one to the
    end of the last call the run makes before it writes its CSVs."""
    steps = []
    for idx, s in enumerate(spans):
        if s.name != "runner.run":
            continue
        kids = [spans[c] for c in children.get(idx, ())]
        starts = [k.start for k in kids if k.name == "tasks.loss_and_grads"]
        if not starts:
            continue
        ends = [k.end for k in kids if k.name != "runner.write_csv"]
        bounds = starts + [max(ends)]
        steps.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return steps


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write every span, one JSON object a line, tagged with its pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_no, tracer in enumerate(tracers):
            for idx, s in enumerate(tracer.spans):
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_no,
                            "id": idx,
                            "name": s.name,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "parent": s.parent,
                            "run": s.run,
                        }
                    )
                    + "\n"
                )
