"""Self-check battery behind `teon check`, and the one owner of the library
invariants that acceptance criteria 1-5 and 7 assert.

Each check is a function of its draw (the rng, the count and the size
ranges) that returns its worst defect, and inf on a structural mismatch.
A NaN defect propagates (`np.maximum`), so it fails every bound.
`run_all_checks` runs all ten at small sizes against the battery's bounds,
in about 20 ms at one BLAS thread (`python -m teon check`, interpreter start
included: 0.16 s, on a 2-vCPU x86-64 host with NumPy 2.4.6 and OpenBLAS
0.3.31). The criteria call the same functions at their own sizes and seeds,
against their own bounds.
"""

from __future__ import annotations

from dataclasses import replace

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
from .optim import OptimizerState, ParamGroup, UpdateClass, UpdatePolicy, apply_group_step
from .ortho import OrthoScheme, apply_ortho, ortho_exact
from .runner import csv_row, run
from .tasks import finite_difference_check, make_task

__all__ = [
    "matricize_roundtrip",
    "ortho_exact_defects",
    "ns_matches_exact",
    "norm_sandwich",
    "max_gain_ratio",
    "ntr_oracle",
    "bound_identity",
    "k1_collapse",
    "gradient_fd",
    "run_determinism",
    "run_all_checks",
]


def _tensor(rng, dims, depths):
    """A Gaussian (k, m, n) tensor, m and n drawn from the half-open range
    `dims` and k from `depths`."""
    m, n, k = rng.integers((dims[0], dims[0], depths[0]), (dims[1], dims[1], depths[1]))
    return rng.standard_normal((k, m, n))


def matricize_roundtrip(rng, count, dims, depths) -> float:
    """Worst relative Frobenius drift of the three unfoldings of `count`
    tensors; inf if `fold` does not invert one bit for bit."""
    worst = 0.0
    for _ in range(count):
        t = _tensor(rng, dims, depths)
        frob = np.linalg.norm(t)
        for mode in (1, 2, 3):
            mat = matricize(t, mode)
            if not np.array_equal(fold(mat, mode, t.shape), t):
                return float("inf")
            worst = np.maximum(worst, abs(np.linalg.norm(mat) - frob) / frob)
    return worst


def ortho_exact_defects(rng, count, dims) -> tuple:
    """(worst Gram defect, worst idempotence defect) of `ortho_exact` over
    `count` Gaussian m x n matrices, m and n drawn from `dims`."""
    gram = idem = 0.0
    for _ in range(count):
        m, n = rng.integers(*dims, size=2)
        o = ortho_exact(rng.standard_normal((m, n)))
        side = o.T @ o if m >= n else o @ o.T
        gram = np.maximum(gram, np.abs(side - np.eye(side.shape[0])).max())
        idem = np.maximum(idem, np.abs(ortho_exact(o) - o).max())
    return gram, idem


def ns_matches_exact(rng, count, dims) -> float:
    """Worst entrywise gap between cubic Newton-Schulz-30 and the exact polar
    factor over `count` matrices with singular values in [0.1, 1]."""
    scheme = OrthoScheme.newton_schulz(30, preset="cubic")
    worst = 0.0
    for _ in range(count):
        m, n = rng.integers(*dims, size=2)
        r = min(m, n)
        u = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :r]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
        a = (u * rng.uniform(0.1, 1.0, size=r)) @ v.T
        worst = np.maximum(worst, np.abs(apply_ortho(a, scheme) - ortho_exact(a)).max())
    return worst


def norm_sandwich(rng, count, dims, depths) -> float:
    """Worst relative excess of the teon-1, teon-2 and muon norms over the
    Frobenius norm (rho = 1) on `count` tensors; inf if one of the four
    comparability inequalities fails (`check_comparability`)."""
    worst = 0.0
    for _ in range(count):
        t = _tensor(rng, dims, depths)
        frob = np.linalg.norm(t)
        for mode in (1, 2):
            rep = check_comparability(t, mode)
            if rep.violation:
                return float("inf")
            worst = np.max((worst, rep.teon_primal / frob - 1.0, rep.muon_primal / frob - 1.0))
    return worst


def max_gain_ratio(m, n, k, seed) -> float:
    """Worst gap between sqrt(k) and the teon-to-muon norm ratio of the
    rank-1 aligned construction, over modes 1 and 2."""
    worst = 0.0
    for mode in (1, 2):
        t = build_max_gain_tensor(m, n, k, mode, seed=seed)
        worst = np.maximum(worst, abs(norm(t, mode) / norm(t) - np.sqrt(k)))
    return worst


def ntr_oracle(rng, count, dims, depths, eta) -> float:
    """Worst |<g, step> + eta * dual norm of g| of the teon-1 and muon
    steepest-descent steps over `count` Gaussian tensors."""
    worst = 0.0
    for _ in range(count):
        g = _tensor(rng, dims, depths)
        for mode, step in ((1, ntr_step_teon(g, 1, eta)), (None, ntr_step_muon(g, eta))):
            obj = float(np.sum(g * step))
            worst = np.maximum(worst, abs(obj + eta * norm(g, mode, dual=True)))
    return worst


def bound_identity(deltas, lipschitz, horizons) -> float:
    """Worst gap between the NTR bound at eta* = sqrt(2 delta0 / (T L)), with
    no momentum or noise, and its closed form sqrt(2 L delta0 / T), over the
    grid."""
    worst = 0.0
    for d0 in deltas:
        for lips in lipschitz:
            for t_steps in horizons:
                eta = np.sqrt(2.0 * d0 / (t_steps * lips))
                val = eval_ntr_bound(
                    BoundInputs(delta0=d0, L=lips, eta=eta, mu=0.0, sigma=0.0, rho=1.0, T=t_steps)
                )
                worst = np.maximum(worst, abs(val - np.sqrt(2.0 * lips * d0 / t_steps)))
    return worst


def k1_collapse(rng, steps, **policy) -> float:
    """0 if TEON at K = 1 and Muon, both built from the `UpdatePolicy`
    keywords `policy`, keep bitwise-equal weights and momentum over `steps`
    group steps of one 3 x 2 matrix, else inf."""
    w = rng.standard_normal((1, 1, 3, 2))
    params_m, params_t = {"w": w}, {"w": w.copy()}
    g_seq = [rng.standard_normal((1, 1, 3, 2)) for _ in range(steps)]
    group_m, group_t = (
        UpdateClass((ParamGroup("w", ("w",), ((3, 2),), p),))
        for p in (UpdatePolicy.muon(**policy), UpdatePolicy.teon(1, **policy))
    )
    st_m, st_t = {"w": OptimizerState()}, {"w": OptimizerState()}
    for g in g_seq:
        apply_group_step(params_m, {"w": g}, group_m, st_m)
        apply_group_step(params_t, {"w": g}, group_t, st_t)
        pairs = ((params_t["w"], params_m["w"]), (st_t["w"].momentum, st_m["w"].momentum))
        if any(a.tobytes() != b.tobytes() for a, b in pairs):
            return float("inf")
    return 0.0


def gradient_fd(specs, seed, fd_seed, directions) -> float:
    """Worst relative finite-difference error (`finite_difference_check`) over
    `specs`, a list of (task name, task parameters); each task is built with
    `seed` and checked at its weights from `default_rng([seed, 1])`."""
    worst = 0.0
    for name, params in specs:
        task = make_task(name, seed, **params)
        weights = task.init_weights(np.random.default_rng([seed, 1]))
        err = finite_difference_check(task, weights, directions=directions, seed=fd_seed)
        worst = np.maximum(worst, err)
    return worst


def run_determinism(cfg: RunConfig) -> float:
    """0 if two in-memory runs of `cfg` give the same metrics and alignment
    rows, else inf."""
    a, b = run(cfg, write=False), run(replace(cfg), write=False)
    rows = [[csv_row(r) for r in res.metrics + res.alignment] for res in (a, b)]
    return 0.0 if rows[0] == rows[1] else float("inf")


def run_all_checks(seed: int = 0) -> list:
    """The battery's output: one `check.<name>=pass|FAIL (...)` line per
    check, then `check.summary=...`."""
    rng = np.random.default_rng([seed, 99])
    small_tasks = [
        ("quadratic", {"m": 4, "n": 3, "K": 3}),
        ("aligned_quadratic", {"m": 5, "n": 4, "K": 3}),
        ("deep_linear", {"depth": 2, "width": 5, "batch": 4}),
        ("micro_attention", {"dim": 4, "seq": 3, "batch": 2, "blocks": 2}),
    ]
    determinism = RunConfig(
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
    # (name, worst defect, bound, detail when it passes); evaluated in this order
    checks = [
        ("matricize_roundtrip", matricize_roundtrip(rng, 20, (1, 9), (1, 9)), 1e-12,
         "frob drift {:.3g}"),
        ("ortho_exact", np.max(ortho_exact_defects(rng, 20, (2, 13))), 1e-9, "max defect {:.3g}"),
        ("ns_matches_exact", ns_matches_exact(rng, 10, (2, 9)), 1e-6, "max err {:.3g}"),
        ("norm_sandwich", norm_sandwich(rng, 40, (1, 7), (1, 7)), 1e-9, "80 tensors, modes 1-2"),
        ("max_gain_ratio", max_gain_ratio(6, 6, 4, int(rng.integers(1 << 30))), 1e-9,
         "ratio defect {:.3g}"),
        ("ntr_oracle", ntr_oracle(rng, 10, (1, 5), (1, 5), 0.3), 1e-8, "max obj defect {:.3g}"),
        ("bound_identity", bound_identity((0.5, 1.0, 4.0), (0.5, 2.0), (10, 400)), 1e-12,
         "max defect {:.3g}"),
        ("k1_collapse", k1_collapse(rng, 8, eta=0.1, weight_decay=0.01), 0.0,
         "8 steps bitwise equal (weights and momentum)"),
        ("gradient_fd", gradient_fd(small_tasks, seed, seed, 5), 1e-5, "max rel err {:.3g}"),
        ("run_determinism", run_determinism(determinism), 0.0, "two seeded runs compared"),
    ]
    lines, n_ok = [], 0
    for name, defect, bound, detail in checks:
        ok = bool(defect <= bound)
        n_ok += ok
        text = detail.format(defect) if ok else f"defect {defect:.3g} > {bound:g}"
        lines.append(f"check.{name}={'pass' if ok else 'FAIL'} ({text})")
    status = "pass" if n_ok == len(checks) else "FAIL"
    lines.append(f"check.summary={status} ({n_ok}/{len(checks)} ok)")
    return lines
