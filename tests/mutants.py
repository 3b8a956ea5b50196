"""Mutation gate: small wrong edits of `src/teon` that tier-1 must catch.

    python tests/mutants.py [ID ...]

For each entry (only the named ones when IDs are given; an unknown ID exits
1), the script copies `src/teon` into a temporary directory, replaces the
entry's old text (which must occur exactly once in its file) with the new
text, and runs the tier-1 suite (`pytest -x -q` over the files of `tests`
in name order, but `tests/test_acceptance.py` last: its slow criteria are
rarely the first to fail) with that copy first on the import path; before
the tests run it checks that `teon` was imported from the copy. A mutant is
killed when the suite fails. The script prints one line per entry and exits
1 if any mutant survives or a run does not start. Every entry changes what
the program computes, so a survivor is a gap in the tests, not noise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (id, file under src/teon, old text, new text, why it is wrong)
MUTANTS = [
    (
        "mode_2",
        "optim.py",
        "mode = policy.mode or 1",
        "mode = 1",
        "every TEON mode-2 group silently steps its mode-1 unfolding",
    ),
    (
        "ns_long_side",
        "ortho.py",
        "transposed = m.shape[0] > m.shape[1]",
        "transposed = False",
        "Newton-Schulz on the long side of a tall matrix: equal in exact "
        "arithmetic, other bytes and more flops",
    ),
    (
        "shape_factor",
        "optim.py",
        "np.sqrt(m / n)",
        "np.sqrt(n / m)",
        "the per-slice scale sqrt(m / n) inverted",
    ),
    (
        "decay_after_step",
        "optim.py",
        "new = np.subtract(_shrink(w, pol.weight_decay, eta), step, out=step)",
        "new = _shrink(np.subtract(w, step, out=step), pol.weight_decay, eta)",
        "weight decay applied to the stepped weights instead of before the step",
    ),
    (
        "adamw_bias_correction",
        "optim.py",
        "num = m / (1.0 - b1**t)",
        "num = m / (1.0 - b1 ** (t + 1))",
        "the first-moment bias correction one step ahead",
    ),
    (
        "sigma_gap_max",
        "diagnostics.py",
        "min(gap_a, gap_b)",
        "max(gap_a, gap_b)",
        "an alignment record reports the larger of its two sigma gaps",
    ),
    (
        "group_step_errstate",
        "optim.py",
        'with np.errstate(over="raise", invalid="raise", divide="raise"):\n'
        "            if pol.optimizer == ADAMW:",
        "with np.errstate():\n            if pol.optimizer == ADAMW:",
        "a group step follows the caller's floating-point policy: with no caller "
        "errstate an overflow only warns and commits inf, or fails unnamed",
    ),
    (
        "ema_weight",
        "optim.py",
        "(1.0 - policy.mu) * gs",
        "policy.mu * gs",
        "EMA momentum weights the new gradient by mu instead of 1 - mu",
    ),
    (
        "warmup_ramp",
        "runner.py",
        "(step + 1) / (warm + 1)",
        "step / (warm + 1)",
        "the warmup ramp starts at a rate of 0",
    ),
    (
        "align_every_off_by_one",
        "runner.py",
        "(t + 1) % cfg.align_every",
        "t % cfg.align_every",
        "alignment sampled one step early, before the align_every-th update",
    ),
    (
        "metrics_max",
        "norms.py",
        "else s.max(axis=1)",
        "else s.min(axis=1)",
        "every primal norm, grad_muon_norm among them, takes the smallest singular "
        "value, not the largest",
    ),
    (
        "depth1_teon1_from_primal",
        "runner.py",
        "teon1 = dual if stack.shape[1] == 1",
        "teon1 = primal if stack.shape[1] == 1",
        "a depth-1 stack logs its largest singular value as its teon-1 dual, not "
        "the nuclear norm of its slice",
    ),
    (
        "deep_teon1_from_muon_dual",
        "runner.py",
        "stack.shape[1] == 1 else",
        "stack.shape[1] >= 1 else",
        "a deeper stack logs the sum of its slices' nuclear norms as its teon-1 dual, "
        "not the nuclear norm of its mode-1 unfolding",
    ),
    (
        "ns_spectral_prenorm",
        "ortho.py",
        "np.linalg.norm(x)",
        "np.linalg.norm(x, 2)",
        "Newton-Schulz pre-normalized by the spectral norm instead of the Frobenius norm",
    ),
    (
        "momentum_unused",
        "optim.py",
        "matricize(buf[i], mode)",
        "matricize(gs[i], mode)",
        "the orthogonalized update ignores the momentum buffer",
    ),
    (
        "right_vector_is_left",
        "diagnostics.py",
        "np.dot(va, vb)",
        "np.dot(ua, ub)",
        "right_align reports the left singular vectors' alignment",
    ),
    (
        "remainder_dropped",
        "optim.py",
        "range(0, len(blocked), K)",
        "range(0, len(blocked) - len(blocked) % K, K)",
        "the N mod K remainder matrices are not stacked: each becomes a lone Muon group",
    ),
    (
        "fold_mode_swap",
        "linalg.py",
        "x.reshape(n, k, m).transpose(1, 2, 0)",
        "x.reshape(k, n, m).transpose(0, 2, 1)",
        "fold mode 2 rebuilds the slices from the mode-1 block order",
    ),
    (
        "sandwich_sqrt_k_plus_1",
        "runner.py",
        "np.sqrt(max_depth)",
        "np.sqrt(max_depth + 1)",
        "the logged dual-norm sandwich allows sqrt(K + 1) instead of sqrt(K)",
    ),
    (
        "alignment_error_after_next_step",
        "runner.py",
        "        if aligning is not None:\n"
        "            aligning.result()\n"
        "        raise\n",
        "        raise\n",
        "a step that fails while the previous sampled step's alignment is pending "
        "raises its own error, not the alignment error the serial loop raises first",
    ),
    (
        "overlap_below_lane_work",
        "runner.py",
        "and align >= lane_work",
        "and align > 0",
        "every run that samples alignment hands its calls to a worker, so the "
        "8-16-wide shipped configs pay for a pool and a handoff that hide nothing",
    ),
    (
        "contiguous_u1",
        "diagnostics.py",
        "u[:, :, :2].copy()",
        "u[:, :, :1].copy()",
        "u_1 copied to a contiguous vector: ddot takes its SIMD kernel and "
        "left_align moves in the last bits",
    ),
    (
        "class_key_drops_policy",
        "runner.py",
        "key = (g.policy, g.shapes[0], g.depth) if",
        "key = (g.shapes[0], g.depth) if",
        "groups of one slice shape share a class whatever their policy: TEON stacks "
        "and lone Muon matrices would be stepped under one rule",
    ),
    (
        "class_key_drops_depth",
        "runner.py",
        "key = (g.policy, g.shapes[0], g.depth) if",
        "key = (g.policy, g.shapes[0]) if",
        "a depth-K stack and its depth-r remainder are planned into one class, whose "
        "arena is no (G, K, m, n) stack",
    ),
    (
        "big_groups_merge",
        "runner.py",
        "key = (g.policy, g.shapes[0], g.depth) if work[g.id] < lane_work else i",
        "key = (g.policy, g.shapes[0], g.depth)",
        "a big group joins the class of its policy and shape, so it leaves its own "
        "lane and the big groups of one shape run serially",
    ),
    (
        "spare_lanes_fixed_at_one",
        "runner.py",
        "_plan(groups, pairs, cfg, _spare_lanes())",
        "_plan(groups, pairs, cfg, 1)",
        "a run ignores the BLAS thread pin and the cores it finds when it starts, "
        "so every run stays serial",
    ),
    (
        "lane_stops_at_first_failing_class",
        "runner.py",
        "failed.append(exc)",
        "return [exc]",
        "a lane stops at its first failing class, so a lower-index failing group "
        "in a later class is never met and the run names the wrong group",
    ),
    (
        "momentum_in_place",
        "optim.py",
        "buf = policy.mu * buf\n",
        "buf *= policy.mu\n",
        "a class writes its new momentum into the committed buffer: the state moves "
        "before the last group's Newton-Schulz run returns, so a failing class "
        "commits half a step, and a buffer handed to alignment changes under it",
    ),
    (
        "class_error_unblamed",
        "optim.py",
        "for i, group in enumerate(cls.groups):\n        part",
        "for i, group in enumerate(cls.groups[:0]):\n        part",
        "a failing class raises its own first error under its first group's name, "
        "not the error of the group that stepping one by one meets first",
    ),
    (
        "arena_groups_transposed",
        "optim.py",
        "slices.reshape(len(self.groups), -1, *slices.shape[1:])",
        "slices.reshape(-1, len(self.groups), *slices.shape[1:])",
        "a class arena is laid out (K, G) instead of (G, K): with G != K every "
        "group's stack mixes the slices of other groups",
    ),
    (
        "weights_dtype_unchecked",
        "optim.py",
        "if w.dtype != np.float64:",
        "if w.dtype == object:",
        "an integer weight arena takes every step truncated to integers",
    ),
    (
        "alignment_empty_shape_divides_by_zero",
        "diagnostics.py",
        "STACK_BYTES // max(1, 8 * m * n)",
        "STACK_BYTES // (8 * m * n)",
        "alignment of an empty buffer raises ZeroDivisionError, not svd's ValueError",
    ),
    (
        "class_mixes_policies",
        "optim.py",
        "if g.policy != head.policy or g.shapes[0]",
        "if g.shapes[0]",
        "an update class accepts groups of another policy and steps them all under "
        "its first group's rule",
    ),
    (
        "class_check_drops_depth",
        "optim.py",
        "g.shapes[0] != head.shapes[0] or g.depth != head.depth:",
        "g.shapes[0] != head.shapes[0]:",
        "an update class accepts a group of another depth, so its arena is no "
        "(G, K, m, n) stack and its groups' slices are misplaced",
    ),
    (
        "metrics_in_class_order",
        "runner.py",
        "    for g in groups:\n        if g.id in values:",
        "    for g in (g for c in classes for g in c.groups):\n        if g.id in values:",
        "gradient_metrics adds the per-group teon-1 and muon duals class by class, "
        "not in build order, so a config whose classes interleave its groups logs "
        "other last bits",
    ),
    (
        "alignment_factors_misassigned",
        "diagnostics.py",
        "for i, name in enumerate(names)}",
        "for i, name in enumerate(names[::-1])}",
        "a batched alignment call hands each buffer the factors of another slice "
        "of its stack",
    ),
    (
        "batched_mode1_axes_of_mode2",
        "linalg.py",
        "t.transpose(*axes, -2, -3, -1).reshape(*lead, m, k * n)",
        "t.transpose(*axes, -1, -3, -2).reshape(*lead, m, k * n)",
        "the mode-1 unfolding of a (G, K, m, n) batch (and of a lone tensor) "
        "reads the slices in mode 2's axis order",
    ),
    (
        "ns_steps_unbounded",
        "ortho.py",
        "if not 1 <= steps <= _NS_STEPS_MAX:",
        "if not 1 <= steps:",
        "a config may ask for any number of NS steps: 10**20 ends in an OverflowError "
        "traceback, 100000 silently builds a 100000-row schedule",
    ),
    (
        "task_dim_unbounded",
        "config.py",
        "not 1 <= val <= _TASK_DIM_MAX",
        "not 1 <= val",
        "a config may ask for any task dimension: a huge one fails only in the task's "
        "allocation, with an error that names no key",
    ),
    (
        "adam_beta_key_unnamed",
        "config.py",
        'for key in ("adam_beta1", "adam_beta2"):',
        "for key in ():",
        "an out-of-range adam_beta1 or adam_beta2 is reported as the policy's "
        "adam_betas pair, not as the INI key to mend",
    ),
    (
        "task_keys_keep_seed",
        "config.py",
        'if p != "seed"',
        "if True",
        "the [task] schema takes the constructor's seed as a required key, so "
        "every config fails for want of one",
    ),
    (
        "task_keys_drop_defaults",
        "config.py",
        "(params[p].annotation, params[p].default)",
        "(params[p].annotation, _MISSING)",
        "no parameter's default reaches the config: every key is required, "
        "aligned_quadratic's c and [run] log_every among them",
    ),
    (
        "member_shape_unnamed",
        "optim.py",
        "if np.shape(arrays[nm]) != shape:",
        "if False:",
        "one member gradient of another shape fails in np.stack, naming no group "
        "and member and setting no group attribute",
    ),
    (
        "empty_arena_accepted",
        "optim.py",
        "if len(gs) == 0:",
        "if False:",
        "ortho_step on an arena of no groups returns None as its step",
    ),
    (
        "ns_preset_key_unnamed",
        "ortho.py",
        'f"ns_preset must be one of',
        'f"preset must be one of',
        "an unknown ns_preset is reported under the scheme's parameter name, "
        "not the key to mend",
    ),
    (
        "schedule_kind_key_unnamed",
        "config.py",
        'f"[schedule] kind: unknown schedule',
        'f"unknown schedule',
        "an unknown schedule kind names neither its section nor its key",
    ),
    (
        "adam_eta_key_unnamed",
        "config.py",
        'if opt["adam_eta"] is not None and not 0.0 < opt["adam_eta"] < float("inf"):',
        "if False:",
        "a bad adam_eta is reported as the adamw policy's eta, naming another key",
    ),
    (
        "align_every_unchecked",
        "config.py",
        "if self.align_every < 1:",
        "if False:",
        "align_every = 0 parses and the run fails with ZeroDivisionError; only the "
        "config fuzz test tries it",
    ),
    (
        "format_16_digits",
        "runner.py",
        'f"{x:.17g}"',
        'f"{x:.16g}"',
        "every written float loses its 17th significant digit and no longer reads "
        "back to the same double",
    ),
    (
        "task_rules_skipped_at_parse",
        "config.py",
        "TASKS[cfg.task].check_params(**cfg.task_params)",
        "pass",
        "c = nan or K > m under [task] parses, and the run fails in the task "
        "constructor, naming neither the file nor [task]",
    ),
    (
        "check_discards_its_defect",
        "checks.py",
        "worst = np.maximum(worst, abs(obj + eta * norm(g, mode, dual=True)))",
        "worst = np.maximum(worst, 0.0)",
        "ntr_oracle reads 0 whatever the steps: teon check and criterion 4 no "
        "longer measure obj = -eta * dual norm",
    ),
    (
        "norm_sandwich_ignores_violation",
        "checks.py",
        '            if rep.violation:\n                return float("inf")\n',
        "",
        "norm_sandwich passes a tensor whose comparability inequalities fail, as "
        "long as its norms stay within the Frobenius bound",
    ),
    (
        "nan_loss_unchecked",
        "runner.py",
        "if not np.isfinite(loss):",
        "if False:",
        "a task's NaN loss with finite gradients is written to the CSV silently",
    ),
    (
        "task_gradients_consumed",
        "runner.py",
        "members, grads = dict(grads), {}",
        "members, grads = grads, {}",
        "a step empties the gradient dict the task returned, which the task may "
        "still hold",
    ),
    (
        "stack_set_section_unnamed",
        "config.py",
        'raise ValueError(f"[grouping] {exc}") from None',
        "raise",
        "a bad stack_set token is reported without its [grouping] section",
    ),
]

# Runs in the child: pytest must see the mutated copy, not an installed teon.
# It exits with OFFSET + pytest's status, so a child that crashes before the
# tests run (exit 1) cannot pass for a failing suite.
OFFSET = 10
BOOT = f"""
import sys
from pathlib import Path
import pytest
import teon
if not teon.__file__.startswith(sys.argv[1]):
    sys.exit(f"the tests would import {{teon.__file__}}, not the mutated copy")
files = sorted(Path("tests").glob("test_*.py"), key=lambda p: (p.name == "test_acceptance.py", p))
sys.exit({OFFSET} + pytest.main(["-x", "-q", "-p", "no:cacheprovider", *map(str, files)]))
"""


def run_mutant(old: str, new: str, file: str) -> int:
    """pytest's exit status on a copy of src/teon with `old` replaced by `new`,
    or -1 if the child did not run the tests."""
    with tempfile.TemporaryDirectory(prefix="teon-mutant-") as tmp:
        copy = Path(tmp) / "teon"
        shutil.copytree(ROOT / "src" / "teon", copy)
        path = copy / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": tmp}
        proc = subprocess.run(
            [sys.executable, "-c", BOOT, str(copy)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        status = proc.returncode - OFFSET
        if status not in (0, 1):
            print(proc.stderr, file=sys.stderr)
        return status if status >= 0 else -1


def main(ids) -> int:
    unknown = sorted(set(ids) - {entry[0] for entry in MUTANTS})
    if unknown:
        raise SystemExit(f"unknown mutant ids: {', '.join(unknown)}")
    chosen = [entry for entry in MUTANTS if not ids or entry[0] in ids]
    survivors = broken = 0
    for ident, file, old, new, why in chosen:
        tic = time.perf_counter()
        status = run_mutant(old, new, file)
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
        survivors += status == 0
        broken += status not in (0, 1)
        print(f"{ident}: {verdict} in {time.perf_counter() - tic:.1f} s  ({file}: {why})")
    print(f"mutants.killed={len(chosen) - survivors - broken}/{len(chosen)}")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
