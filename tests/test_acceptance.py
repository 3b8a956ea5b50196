"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime (run with `pytest -s` to see them live).

Every tolerance and time budget below is part of the release contract;
do not loosen them to make a failure go away.
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oracles import convergence_bound_pair, per_parameter_fd_errors, primal_norm_batch
from teon.config import parse_config_text
from teon.diagnostics import top_singular_alignment
from teon.linalg import fold, matricize
from teon.norms import (
    BoundInputs,
    build_max_gain_tensor,
    check_comparability,
    eval_ntr_bound,
    norm,
    ntr_step_muon,
    ntr_step_teon,
)
from teon.optim import (
    OptimizerState,
    UpdateClass,
    UpdatePolicy,
    apply_group_step,
    build_groups,
    member_views,
)
from teon.ortho import OrthoScheme, apply_ortho, ortho_exact
from teon.runner import run
from teon.config import RunConfig
from teon.tasks import finite_difference_check, make_task


@contextmanager
def criterion(n, desc, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [FAIL] {desc}", file=sys.stdout)
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {n:2d} [PASS] {desc} ({elapsed:.2f}s)", file=sys.stdout)
    assert elapsed < budget_s, f"criterion {n} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_01_matricization_round_trip():
    with criterion(1, "matricization round-trip + norm invariance, 1000 tensors", 5):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            m, n = rng.integers(1, 17, size=2)
            k = rng.integers(1, 9)
            t = rng.standard_normal((k, m, n))
            ft = np.linalg.norm(t)
            for mode in (1, 2, 3):
                mat = matricize(t, mode)
                assert np.array_equal(fold(mat, mode, t.shape), t)
                assert abs(np.linalg.norm(mat) - ft) <= 1e-12 * ft


def test_criterion_02_polar_correctness():
    with criterion(2, "ortho_exact invariants + cubic NS-30 agreement, 500+500", 30):
        rng = np.random.default_rng(1002)
        for _ in range(500):
            m, n = rng.integers(1, 33, size=2)
            o = ortho_exact(rng.standard_normal((m, n)))
            gram = o.T @ o if m >= n else o @ o.T
            assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10
            assert np.abs(ortho_exact(o) - o).max() <= 1e-9
        scheme = OrthoScheme.newton_schulz(30, preset="cubic")
        for _ in range(500):
            m, n = rng.integers(2, 33, size=2)
            r = min(m, n)
            u = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :r]
            v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
            a = (u * rng.uniform(0.1, 1.0, size=r)) @ v.T
            assert np.abs(apply_ortho(a, scheme) - ortho_exact(a)).max() <= 1e-6


def test_criterion_03_norm_lemma_suite():
    with criterion(3, "comparability + dual + rho=1, 1000 tensors; max-gain ratio", 60):
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            m, n = rng.integers(1, 17, size=2)
            k = rng.integers(1, 9)
            t = rng.standard_normal((k, m, n))
            frob = np.linalg.norm(t)
            for mode in (1, 2):
                rep = check_comparability(t, mode)
                assert not rep.violation
                assert rep.teon_primal <= frob + 1e-9 * frob  # rho = 1
            assert norm(t) <= frob + 1e-9 * frob
        g = build_max_gain_tensor(8, 8, 4, 1, seed=0)
        ratio = norm(g, 1) / norm(g)
        assert abs(ratio - 2.0) <= 1e-9


def test_criterion_04_steepest_descent_oracle():
    with criterion(4, "NTR oracle: obj = -eta*dual; beats 1e4 sampled directions x200", 120):
        rng = np.random.default_rng(1004)
        eta = 0.7
        for _ in range(200):
            m, n, k = rng.integers(1, 4, size=3)
            g = rng.standard_normal((k, m, n))
            for mode, step in (
                (1, ntr_step_teon(g, 1, eta)),
                (None, ntr_step_muon(g, eta)),
            ):
                obj = float(np.sum(g * step))
                dual = norm(g, mode, dual=True)
                assert abs(obj + eta * dual) <= 1e-8
                cand = rng.standard_normal((10_000, k, m, n))
                norms = primal_norm_batch(cand, mode)
                cand *= (eta / norms)[:, None, None, None]
                sampled = np.einsum("ijk,sijk->s", g, cand)
                assert np.all(sampled >= obj - 1e-9 * max(1.0, abs(obj)))


def test_criterion_05_bound_formulas():
    with criterion(5, "eta* identity on 100-point grid; bound-pair ratio endpoints", 1):
        pts = 0
        for d0 in (0.1, 0.5, 1.0, 2.0, 5.0):
            for lips in (0.25, 0.5, 1.0, 2.0, 4.0):
                for t_steps in (10, 100, 1000, 10_000):
                    eta_star = np.sqrt(2.0 * d0 / (t_steps * lips))
                    val = eval_ntr_bound(
                        BoundInputs(
                            delta0=d0, L=lips, eta=eta_star,
                            mu=0.0, sigma=0.0, rho=1.0, T=t_steps,
                        )
                    )
                    assert abs(val - np.sqrt(2.0 * lips * d0 / t_steps)) <= 1e-12
                    pts += 1
        assert pts == 100
        k = 4
        lo_t, lo_m = convergence_bound_pair(1.3, 250, 0.7, 0.7)
        assert lo_m / lo_t == 1.0  # L_teon == L_muon endpoint
        hi_t, hi_m = convergence_bound_pair(1.3, 250, 0.7, k * 0.7)
        assert hi_m / hi_t == np.sqrt(k)  # L_muon == K * L_teon endpoint
        mid_t, mid_m = convergence_bound_pair(1.3, 250, 0.7, 2 * 0.7)
        assert 1.0 < mid_m / mid_t < np.sqrt(k)


def _k1_csvs(tmp_path, tag, optimizer, style, scheme):
    if optimizer == "teon":
        pol = UpdatePolicy.teon(
            1, 0.05, mu=0.95, momentum_style=style, scheme=scheme, weight_decay=0.01
        )
    else:
        pol = UpdatePolicy.muon(
            0.05, mu=0.95, momentum_style=style, scheme=scheme, weight_decay=0.01
        )
    cfg = RunConfig(
        task="deep_linear",
        steps=200,
        seed=7,
        out_path=str(tmp_path / tag),
        policy=pol,
        adamw_policy=UpdatePolicy.adamw(0.05),
        task_params={"depth": 3, "width": 8, "batch": 8},
        group_k=1,
        stack_set=("W",),
        log_every=10,
        align_every=50,
    )
    res = run(cfg)
    return res.metrics_path.read_bytes(), res.alignment_path.read_bytes()


def test_criterion_06_k1_collapse(tmp_path):
    with criterion(6, "TEON(K=1) == Muon, 200 steps, both styles x both schemes", 60):
        for style in ("accumulate", "ema"):
            for scheme in (OrthoScheme.exact(), OrthoScheme.newton_schulz(5, preset="jordan")):
                tag = f"{style}-{scheme.kind}"
                mt, at = _k1_csvs(tmp_path, f"teon-{tag}", "teon", style, scheme)
                mm, am = _k1_csvs(tmp_path, f"muon-{tag}", "muon", style, scheme)
                assert mt == mm and at == am


def test_criterion_07_gradient_fidelity():
    with criterion(7, "central finite differences <= 1e-5 on all four tasks", 120):
        specs = [
            ("quadratic", {"m": 16, "n": 12, "K": 6}),
            ("aligned_quadratic", {"m": 16, "n": 16, "K": 4}),
            ("deep_linear", {"depth": 3, "width": 12, "batch": 8}),
            ("micro_attention", {"dim": 8, "seq": 6, "batch": 4, "blocks": 2}),
        ]
        for name, params in specs:
            task = make_task(name, 42, **params)
            weights = task.init_weights(np.random.default_rng([42, 1]))
            assert finite_difference_check(task, weights, directions=20, seed=5) <= 1e-5
        attn = make_task("micro_attention", 42, dim=8, seq=6, batch=4, blocks=2)
        weights = attn.init_weights(np.random.default_rng([42, 1]))
        per_param = per_parameter_fd_errors(attn, weights, seed=5)
        assert max(per_param.values()) <= 1e-5


def _first_reach(optimizer, eta, seed, cap=400):
    task = make_task("aligned_quadratic", seed, m=16, n=16, K=4)
    w = task.init_weights(np.random.default_rng([seed, 1]))
    if optimizer == "teon":
        pol = UpdatePolicy.teon(1, eta, mu=0.0)
    else:
        pol = UpdatePolicy.muon(eta, mu=0.0)
    # one TEON group, or four lone Muon matrices: one update class either way
    cls = UpdateClass(tuple(build_groups(task.layout, 4, ("W",), policy=pol)))
    params = {cls.id: cls.stack(w)}
    w = member_views(params, [cls])
    states = {cls.id: OptimizerState()}
    for t in range(cap):
        loss, grads = task.loss_and_grads(w)
        if loss <= 1e-3:
            return t
        apply_group_step(params, {cls.id: cls.stack(grads)}, cls, states)
    return None


def test_criterion_08_best_case_ordering():
    with criterion(8, "aligned_quadratic: TEON iterations <= Muon, eta grids, 5 seeds", 300):
        grid = [2.0**-j for j in range(7)]
        for seed in range(5):
            best = {}
            for opt in ("teon", "muon"):
                counts = [c for eta in grid if (c := _first_reach(opt, eta, seed)) is not None]
                best[opt] = min(counts) if counts else None
            assert best["teon"] is not None, f"seed {seed}: TEON never reached 1e-3"
            assert best["muon"] is None or best["teon"] <= best["muon"], (
                f"seed {seed}: TEON {best['teon']} > Muon {best['muon']}"
            )


def test_criterion_09_diagnostics_correctness():
    with criterion(9, "aligned-stack alignment values; symmetry + rotation invariance", 30):
        for seed in (0, 1, 2):
            g = build_max_gain_tensor(8, 8, 4, 2, seed=seed)
            pairs = [(f"{i}-{j}", i, j) for i in range(4) for j in range(i + 1, 4)]
            records = top_singular_alignment(dict(enumerate(g)), pairs, step=0)
            assert len(records) == 6
            for rec in records:
                assert abs(rec.right_align - 1.0) <= 1e-8
                assert rec.left_align <= 1e-8
        rng = np.random.default_rng(1009)
        both_ways = [("fwd", "a", "b"), ("rev", "b", "a")]
        checked = 0
        while checked < 200:
            m, n = rng.integers(2, 9, size=2)
            a, b = rng.standard_normal((2, m, n))
            fwd, rev = top_singular_alignment({"a": a, "b": b}, both_ways, step=0)
            if fwd.degenerate:
                continue
            assert abs(fwd.left_align - rev.left_align) <= 1e-12
            assert abs(fwd.right_align - rev.right_align) <= 1e-12
            q1 = np.linalg.qr(rng.standard_normal((m, m)))[0]
            q2 = np.linalg.qr(rng.standard_normal((m, m)))[0]
            r1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
            r2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rot, rot2 = top_singular_alignment(
                {"qa": q1 @ a, "qb": q2 @ b, "ar": a @ r1, "br": b @ r2},
                [("left", "qa", "qb"), ("right", "ar", "br")],
                step=0,
            )
            assert abs(rot.right_align - fwd.right_align) <= 1e-10
            assert abs(rot2.left_align - fwd.left_align) <= 1e-10
            checked += 1


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two runs of a fixed config produce byte-identical CSVs", 60):
        configs_dir = Path(__file__).resolve().parents[1] / "configs"
        for ini in ("micro_attention_teon.ini", "deep_linear_muon.ini"):
            text = (configs_dir / ini).read_text(encoding="utf-8")
            out_line = next(ln for ln in text.splitlines() if ln.startswith("out_path"))
            results = []
            for rep in ("a", "b"):
                cfg = parse_config_text(
                    text.replace(out_line, f"out_path = {tmp_path / ini / rep}")
                )
                results.append(run(cfg))
            assert results[0].metrics_path.read_bytes() == results[1].metrics_path.read_bytes()
            assert (
                results[0].alignment_path.read_bytes()
                == results[1].alignment_path.read_bytes()
            )
