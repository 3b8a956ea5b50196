"""The three benchmark workloads, one pass of each, and the output check.

Every workload is a closed loop in one process: a pass runs the workload's
runs once through the `teon` command line (`teon.cli.main`), and the next
pass starts when the previous one returns.

* shipped_sweep  the four `configs/*.ini` through `teon sweep`, as the README
                 runs them. Four update paths (TEON + exact SVD, Muon + NS,
                 AdamW, TEON + NS with lone-Muon matrices) on 8-16-wide
                 matrices, where per-call Python overhead dominates.
* attn64_diag    per-matrix Muon (NS jordan-5) on micro_attention at dim 64
                 with metrics and alignment sampled every step, so the
                 diagnostics dominate.
* attn128_train  TEON mode 1, K=2 over every block role, NS jordan-5, at
                 dim 128; metrics at the first and last step only and no
                 alignment, so NS on the stacked unfoldings and the
                 forward/backward pass dominate.

Both attention workloads use 4 blocks: at 6 blocks the finite-difference
gate rejects micro_attention for every dim >= 32 (a known false positive;
the traced run keeps it visible as `tasks.fd_gate_rejects`).

The benchmark seed picks one of `VARIANTS` input variants: the attention
workloads use it as the task seed, the sweep adds it to each shipped
config's seed (variant 0 is the shipped configs byte for byte).
`reference.json` holds each variant's final losses and CSV digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import teon.cli
import teon.config

from checkout import ROOT

WORKLOADS = ("shipped_sweep", "attn64_diag", "attn128_train")
VARIANTS = 16
FINAL_LOSS_RTOL = 1e-6
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
CSV_NAMES = ("metrics.csv", "alignment.csv")

_ATTENTION = {
    "attn64_diag": """\
[run]
task = micro_attention
steps = {steps}
seed = {seed}
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
""",
    # log_every = steps logs the first and last step only; align_every above
    # the step count never samples alignment.
    "attn128_train": """\
[run]
task = micro_attention
steps = {steps}
seed = {seed}
out_path = {out}
log_every = {steps}
align_every = 1000

[task]
dim = 128
seq = 16
batch = 8
blocks = 4

[optimizer]
optimizer = teon
eta = 0.02
mode = 1
scheme = newton_schulz
ns_steps = 5
ns_preset = jordan
adam_eta = 0.005

[grouping]
K = 2
stack_set = QKV,O,MLP1,MLP2
""",
}
ATTENTION_STEPS = 20


class UnknownWorkload(ValueError):
    """The benchmark has no workload of that name."""


@dataclass
class Workload:
    """One workload's inputs, written to disk, and the command of one pass."""

    name: str
    config_paths: list[Path]
    argv: list[str]
    out_dir: Path
    run_keys: list[str]  # one per run, in the order a pass runs them
    run_steps: list[int]


def _replace_key(text: str, key: str, fn, source: str) -> str:
    pattern = re.compile(rf"^({key}\s*=\s*)(\d+)\s*$", re.M)
    new, n = pattern.subn(lambda m: f"{m[1]}{fn(int(m[2]))}", text)
    if n != 1:
        raise ValueError(f"{source}: expected one '{key} = <int>' line, found {n}")
    return new


def prepare(name: str, variant: int, work_dir: Path, steps: int | None = None) -> Workload:
    """Write the workload's configs under `work_dir` (emptied first).

    `steps` caps every run's step count; it exists for the smoke test and
    voids the recorded reference."""
    if name not in WORKLOADS:
        raise UnknownWorkload(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
    if not 0 <= variant < VARIANTS:
        raise ValueError(f"variant must lie in [0, {VARIANTS}), got {variant}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cfg_dir = work_dir / "configs"
    cfg_dir.mkdir(parents=True)
    out_dir = work_dir / "out"
    if name == "shipped_sweep":
        texts = {}
        for path in sorted((ROOT / "configs").glob("*.ini")):
            text = path.read_text(encoding="utf-8")
            if variant:
                text = _replace_key(text, "seed", lambda s: s + variant, str(path))
            if steps is not None:
                text = _replace_key(text, "steps", lambda s: min(s, steps), str(path))
            texts[path.name] = text
        if not texts:
            raise FileNotFoundError(f"no shipped configs under {ROOT / 'configs'}")
        argv = ["sweep", "--config-dir", str(cfg_dir), "--out", str(out_dir)]
    else:
        text = _ATTENTION[name].format(
            steps=steps or ATTENTION_STEPS, seed=variant, out=out_dir
        )
        texts = {f"{name}.ini": text}
        argv = ["run", "--config", str(cfg_dir / f"{name}.ini")]
    paths = []
    for fname, text in texts.items():
        path = cfg_dir / fname
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    cfgs = [teon.config.parse_config(p) for p in paths]
    return Workload(
        name=name,
        config_paths=paths,
        argv=argv,
        out_dir=out_dir,
        run_keys=[p.stem for p in paths],
        run_steps=[c.steps for c in cfgs],
    )


@dataclass
class RunOutcome:
    key: str
    final_loss: float | None = None
    error: str | None = None
    digests: dict = field(default_factory=dict)


@dataclass
class PassOutcome:
    start: float  # time.perf_counter() when the pass began
    wall_s: float
    runs: list[RunOutcome]
    sweep_failed: int | None = None  # what `teon sweep` reported


def _digests(run_dir: Path, key: str) -> dict:
    return {
        f"{key}/{name}": hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in CSV_NAMES
    }


def _summary_final_loss(metrics_csv: Path) -> float:
    for line in metrics_csv.read_text(encoding="utf-8").splitlines():
        if line.startswith("# summary.final_loss="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{metrics_csv}: no summary.final_loss line")


def _sweep_runs(wl: Workload, stdout: str) -> tuple[list[RunOutcome], int | None]:
    reported = re.search(r"^sweep\.failed=(\d+)$", stdout, re.M)
    lines = (wl.out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    rows = lines[2:]
    if len(rows) != len(wl.run_keys):
        raise ValueError(f"summary.csv has {len(rows)} rows for {len(wl.run_keys)} configs")
    runs = []
    for key, row in zip(wl.run_keys, rows):
        cols = row.split(",", 10)
        rid, status, final_loss, error = cols[0], cols[6], cols[7], cols[10]
        if status != "ok":
            runs.append(RunOutcome(key, error=error or status))
            continue
        runs.append(
            RunOutcome(key, float(final_loss), digests=_digests(wl.out_dir / "runs" / rid, key))
        )
    return runs, int(reported[1]) if reported else None


def run_pass(wl: Workload) -> PassOutcome:
    """Run the workload's runs once through `teon.cli.main`; time the call."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    tic = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = teon.cli.main(wl.argv)
    except Exception as exc:  # a crash fails every run of the pass, it is not fatal
        status, crash = None, f"{type(exc).__name__}: {exc}"
    else:
        crash = None
    wall = time.perf_counter() - tic
    if status != 0:
        reason = crash or err.getvalue().strip() or f"exit status {status}"
        return PassOutcome(tic, wall, [RunOutcome(k, error=reason) for k in wl.run_keys])
    try:
        if wl.name == "shipped_sweep":
            runs, reported = _sweep_runs(wl, out.getvalue())
            return PassOutcome(tic, wall, runs, reported)
        (key,) = wl.run_keys
        loss = _summary_final_loss(wl.out_dir / "metrics.csv")
        return PassOutcome(tic, wall, [RunOutcome(key, loss, digests=_digests(wl.out_dir, key))])
    except (OSError, ValueError, IndexError) as exc:
        reason = f"unreadable output: {exc}"
        return PassOutcome(tic, wall, [RunOutcome(k, error=reason) for k in wl.run_keys])


def load_reference(name: str, variant: int) -> dict:
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data["workloads"][name][str(variant)]


class OutputCheck:
    """Checks every run of every pass of one invocation.

    Gated: the run finished with a finite loss; `teon sweep` reported
    failed=0; the final loss is within FINAL_LOSS_RTOL of the recorded
    reference; the CSV bytes equal those of the invocation's first pass.
    Reported only: whether the CSV bytes equal the recorded digests.
    """

    def __init__(self, reference: dict | None, sweep: bool):
        self.reference = reference
        self.sweep = sweep
        self.first_digests: dict = {}
        self.reference_digests_match: bool | None = None if reference is None else True
        self.attempted = 0
        self.failures: list[str] = []

    def _problem(self, run: RunOutcome, sweep_failed: int | None) -> str | None:
        if run.error is not None:
            return run.error
        if not math.isfinite(run.final_loss):
            return f"non-finite final loss {run.final_loss!r}"
        if self.sweep and sweep_failed != 0:
            return f"teon sweep reported failed={sweep_failed}"
        if self.reference is not None:
            ref = self.reference["final_loss"][run.key]
            if abs(run.final_loss - ref) > FINAL_LOSS_RTOL * abs(ref):
                return f"final loss {run.final_loss!r} differs from reference {ref!r}"
        for path, digest in run.digests.items():
            first = self.first_digests.setdefault(path, digest)
            if digest != first:
                return f"{path} bytes differ from the first pass"
        return None

    def check(self, outcome: PassOutcome) -> None:
        """Record one pass's runs as attempted, and the failed ones."""
        for run in outcome.runs:
            self.attempted += 1
            problem = self._problem(run, outcome.sweep_failed)
            if problem is not None:
                self.failures.append(f"{run.key}: {problem}")
            if self.reference is not None:
                ref = self.reference["digests"]
                if any(ref.get(p) != d for p, d in run.digests.items()):
                    self.reference_digests_match = False

    @property
    def failed(self) -> int:
        return len(self.failures)
