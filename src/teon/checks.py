"""Self-check battery behind `teon check`.

Each check is a fast, self-contained exercise of one library invariant at
small dimensions; together they give a < 10 s smoke audit of an install.
The full evidence lives in the test suite — this is the runtime subset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .linalg import fold, matricize
from .norms import (
    build_max_gain_tensor,
    check_comparability,
    eval_ntr_bound,
    BoundInputs,
    norm,
    ntr_step_muon,
    ntr_step_teon,
)
from .optim import OptimizerState, ParamGroup, UpdatePolicy, apply_group_step
from .ortho import OrthoScheme, apply_ortho, ortho_exact
from .runner import csv_row, run
from .tasks import finite_difference_check, make_task

__all__ = ["CheckResult", "run_all_checks", "format_check_lines"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"check.{self.name}={status} ({self.detail})"


def _matricize_roundtrip(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        m, n, k = rng.integers(1, 9, size=3)
        t = rng.standard_normal((k, m, n))
        for mode in (1, 2, 3):
            mat = matricize(t, mode)
            if not np.array_equal(fold(mat, mode, t.shape), t):
                return CheckResult("matricize_roundtrip", False, "fold mismatch")
            worst = max(
                worst,
                abs(np.linalg.norm(mat) - np.linalg.norm(t)) / np.linalg.norm(t),
            )
    return CheckResult("matricize_roundtrip", worst <= 1e-12, f"frob drift {worst:.3g}")


def _ortho_exact_invariants(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        m, n = rng.integers(2, 13, size=2)
        o = ortho_exact(rng.standard_normal((m, n)))
        side = o.T @ o if m >= n else o @ o.T
        worst = max(worst, np.abs(side - np.eye(side.shape[0])).max())
        worst = max(worst, np.abs(ortho_exact(o) - o).max())
    return CheckResult("ortho_exact", worst <= 1e-9, f"max defect {worst:.3g}")


def _ns_matches_exact(rng) -> CheckResult:
    scheme = OrthoScheme.newton_schulz(30, preset="cubic")
    worst = 0.0
    for _ in range(10):
        m, n = rng.integers(2, 9, size=2)
        u = np.linalg.qr(rng.standard_normal((m, m)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        r = min(m, n)
        sig = rng.uniform(0.1, 1.0, size=r)
        a = (u[:, :r] * sig) @ v[:, :r].T
        a /= np.linalg.norm(a)  # spectrum stays in the preset's contraction basin
        worst = max(worst, np.abs(apply_ortho(a, scheme) - ortho_exact(a)).max())
    return CheckResult("ns_matches_exact", worst <= 1e-6, f"max err {worst:.3g}")


def _norm_sandwich(rng) -> CheckResult:
    for _ in range(40):
        m, n, k = rng.integers(1, 7, size=3)
        t = rng.standard_normal((k, m, n))
        for mode in (1, 2):
            rep = check_comparability(t, mode)
            if rep.violation:
                return CheckResult("norm_sandwich", False, f"violation at mode {mode}")
    return CheckResult("norm_sandwich", True, "80 tensors, modes 1-2")


def _max_gain_ratio(rng) -> CheckResult:
    worst = 0.0
    for mode in (1, 2):
        t = build_max_gain_tensor(6, 6, 4, mode, seed=int(rng.integers(1 << 30)))
        ratio = norm(t, mode) / norm(t)
        worst = max(worst, abs(ratio - 2.0))
    return CheckResult("max_gain_ratio", worst <= 1e-9, f"ratio defect {worst:.3g}")


def _ntr_oracle(rng) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        m, n, k = rng.integers(1, 5, size=3)
        g = rng.standard_normal((k, m, n))
        eta = 0.3
        for mode, step_fn in (
            (1, lambda g: ntr_step_teon(g, 1, eta)),
            (None, lambda g: ntr_step_muon(g, eta)),
        ):
            obj = float(np.sum(g * step_fn(g)))
            worst = max(worst, abs(obj + eta * norm(g, mode, dual=True)))
    return CheckResult("ntr_oracle", worst <= 1e-8, f"max obj defect {worst:.3g}")


def _bound_identity() -> CheckResult:
    worst = 0.0
    for d0 in (0.5, 1.0, 4.0):
        for lips in (0.5, 2.0):
            for t_steps in (10, 400):
                eta = np.sqrt(2.0 * d0 / (t_steps * lips))
                val = eval_ntr_bound(
                    BoundInputs(delta0=d0, L=lips, eta=eta, mu=0.0, sigma=0.0, rho=1.0, T=t_steps)
                )
                worst = max(worst, abs(val - np.sqrt(2.0 * lips * d0 / t_steps)))
    return CheckResult("bound_identity", worst <= 1e-12, f"max defect {worst:.3g}")


def _k1_collapse(rng) -> CheckResult:
    w = rng.standard_normal((1, 3, 2))
    params_m, params_t = {"w": w}, {"w": w.copy()}
    g_seq = [rng.standard_normal((1, 3, 2)) for _ in range(8)]
    group_m = ParamGroup("w", ("w",), ((3, 2),), UpdatePolicy.muon(0.1, weight_decay=0.01))
    group_t = ParamGroup("w", ("w",), ((3, 2),), UpdatePolicy.teon(1, 0.1, weight_decay=0.01))
    st_m, st_t = {"w": OptimizerState()}, {"w": OptimizerState()}
    for g in g_seq:
        apply_group_step(params_m, {"w": g}, group_m, st_m)
        apply_group_step(params_t, {"w": g}, group_t, st_t)
        pairs = ((params_t["w"], params_m["w"]), (st_t["w"].momentum, st_m["w"].momentum))
        if any(a.tobytes() != b.tobytes() for a, b in pairs):
            return CheckResult("k1_collapse", False, "trajectories diverged")
    return CheckResult("k1_collapse", True, "8 steps bitwise equal (weights and momentum)")


def _gradient_fd(seed: int) -> CheckResult:
    worst = 0.0
    specs = [
        ("quadratic", {"m": 4, "n": 3, "K": 3}),
        ("aligned_quadratic", {"m": 5, "n": 4, "K": 3}),
        ("deep_linear", {"depth": 2, "width": 5, "batch": 4}),
        ("micro_attention", {"dim": 4, "seq": 3, "batch": 2, "blocks": 2}),
    ]
    for name, params in specs:
        task = make_task(name, seed, **params)
        weights = task.init_weights(np.random.default_rng([seed, 1]))
        worst = max(worst, finite_difference_check(task, weights, directions=5, seed=seed))
    return CheckResult("gradient_fd", worst <= 1e-5, f"max rel err {worst:.3g}")


def _run_determinism(seed: int) -> CheckResult:
    cfg = RunConfig(
        task="quadratic",
        steps=6,
        seed=seed,
        out_path="unused",
        policy=UpdatePolicy.teon(1, 0.2),
        adamw_policy=UpdatePolicy.adamw(0.2),
        task_params={"m": 4, "n": 3, "K": 4},
        group_k=2,
        stack_set=("W",),
        log_every=2,
        align_every=3,
    )
    a, b = run(cfg, write=False), run(replace(cfg), write=False)
    rows = [[csv_row(r) for r in res.metrics + res.alignment] for res in (a, b)]
    same = rows[0] == rows[1]
    return CheckResult("run_determinism", same, "two seeded runs compared")


def run_all_checks(seed: int = 0) -> list:
    rng = np.random.default_rng([seed, 99])
    return [
        _matricize_roundtrip(rng),
        _ortho_exact_invariants(rng),
        _ns_matches_exact(rng),
        _norm_sandwich(rng),
        _max_gain_ratio(rng),
        _ntr_oracle(rng),
        _bound_identity(),
        _k1_collapse(rng),
        _gradient_fd(seed),
        _run_determinism(seed),
    ]


def format_check_lines(results) -> list:
    lines = [r.line() for r in results]
    n_bad = sum(not r.ok for r in results)
    lines.append(f"check.summary={'pass' if n_bad == 0 else 'FAIL'} ({len(results) - n_bad}/{len(results)} ok)")
    return lines
