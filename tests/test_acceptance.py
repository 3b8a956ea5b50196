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
from teon.checks import (
    bound_identity,
    gradient_fd,
    matricize_roundtrip,
    max_gain_ratio,
    norm_sandwich,
    ns_matches_exact,
    ntr_oracle,
    ortho_exact_defects,
)
from teon.config import RunConfig, parse_config_text
from teon.diagnostics import top_singular_alignment
from teon.norms import build_max_gain_tensor, ntr_step_muon, ntr_step_teon
from teon.optim import (
    OptimizerState,
    UpdateClass,
    UpdatePolicy,
    apply_group_step,
    build_groups,
    member_views,
)
from teon.ortho import OrthoScheme
from teon.runner import run
from teon.tasks import make_task


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
        assert matricize_roundtrip(rng, 1000, (1, 17), (1, 9)) <= 1e-12


def test_criterion_02_polar_correctness():
    with criterion(2, "ortho_exact invariants + cubic NS-30 agreement, 500+500", 30):
        rng = np.random.default_rng(1002)
        gram, idempotence = ortho_exact_defects(rng, 500, (1, 33))
        assert gram <= 1e-10 and idempotence <= 1e-9
        assert ns_matches_exact(rng, 500, (2, 33)) <= 1e-6


def test_criterion_03_norm_lemma_suite():
    with criterion(3, "comparability + dual + rho=1, 1000 tensors; max-gain ratio", 60):
        assert norm_sandwich(np.random.default_rng(1003), 1000, (1, 17), (1, 9)) <= 1e-9
        assert max_gain_ratio(8, 8, 4, seed=0) <= 1e-9


def test_criterion_04_steepest_descent_oracle():
    with criterion(4, "NTR oracle: obj = -eta*dual; beats 1e4 sampled directions x200", 120):
        eta = 0.7
        assert ntr_oracle(np.random.default_rng(1004), 200, (1, 4), (1, 4), eta) <= 1e-8
        rng = np.random.default_rng(1004)
        for _ in range(200):
            m, n, k = rng.integers(1, 4, size=3)
            g = rng.standard_normal((k, m, n))
            for mode, step in ((1, ntr_step_teon(g, 1, eta)), (None, ntr_step_muon(g, eta))):
                obj = float(np.sum(g * step))
                cand = rng.standard_normal((10_000, k, m, n))
                norms = primal_norm_batch(cand, mode)
                cand *= (eta / norms)[:, None, None, None]
                sampled = np.einsum("ijk,sijk->s", g, cand)
                assert np.all(sampled >= obj - 1e-9 * max(1.0, abs(obj)))


def test_criterion_05_bound_formulas():
    with criterion(5, "eta* identity on 100-point grid; bound-pair ratio endpoints", 1):
        grid = ((0.1, 0.5, 1.0, 2.0, 5.0), (0.25, 0.5, 1.0, 2.0, 4.0), (10, 100, 1000, 10_000))
        assert bound_identity(*grid) <= 1e-12
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
        assert gradient_fd(specs, seed=42, fd_seed=5, directions=20) <= 1e-5
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
