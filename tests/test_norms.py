import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    convergence_bound_pair,
    dual_ascent_direction,
    estimate_smoothness_ratio,
    primal_norm_batch,
    sample_dual_lower_bound,
)
from teon.linalg import matricize
from teon.ortho import ortho_exact
from teon.norms import (
    BoundInputs,
    build_max_gain_tensor,
    check_comparability,
    eval_ntr_bound,
    norm,
    ntr_step_muon,
    ntr_step_teon,
)

ALL_MODES = [None, 1, 2, 3]  # None is the muon norm


class _Quad:
    """f(W) = 0.5 ||W||_F^2, gradient W."""

    def __init__(self, shape):
        self.shape = shape

    def gradient(self, t):
        return np.asarray(t, dtype=np.float64)


class _Const:
    def __init__(self, shape):
        self.shape = shape

    def gradient(self, t):
        return np.zeros(self.shape)


# -------------------------------------------------------------------- norms


def test_norm_rejects_a_mode_outside_1_to_3():
    for mode in (0, 4):
        with pytest.raises(ValueError, match=f"got {mode}"):
            norm(np.ones((2, 3, 4)), mode)


def test_norm_zero_tensor():
    z = np.zeros((2, 3, 4))
    for mode in ALL_MODES:
        assert norm(z, mode) == 0.0
        assert norm(z, mode, dual=True) == 0.0


def test_norm_k1_collapse():
    a = np.random.default_rng(0).standard_normal((5, 4))
    t = a[None]
    s1 = np.linalg.svd(a, compute_uv=False)[0]
    for mode in (None, 1, 2):
        assert norm(t, mode) == pytest.approx(s1, rel=1e-14)


def test_norm_rank_one_stack_both_orientations():
    # shared LEFT vector, orthonormal right vectors: the mode-1 unfolding is
    # rank one with singular value sqrt(K); per-slice spectral norms are 1.
    K = 4
    t1 = build_max_gain_tensor(8, 8, K, mode=1, seed=7)
    assert norm(t1) == pytest.approx(1.0, abs=1e-12)
    assert norm(t1, 1) == pytest.approx(2.0, abs=1e-12)
    # the mirror (shared right vector) is exactly semi-orthogonal in mode 1,
    # so it gains nothing there and everything in mode 2
    t2 = build_max_gain_tensor(8, 8, K, mode=2, seed=7)
    assert norm(t2) == pytest.approx(1.0, abs=1e-12)
    assert norm(t2, 2) == pytest.approx(2.0, abs=1e-12)
    assert norm(t2, 1) == pytest.approx(1.0, abs=1e-12)
    # duals: rank-1 unfolding has nuclear sqrt(K); slices sum to K
    assert norm(t1, 1, dual=True) == pytest.approx(2.0, abs=1e-12)
    assert norm(t1, dual=True) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_norm_matches_matricization_spectra(m, n, k, seed):
    t = np.random.default_rng(seed).standard_normal((k, m, n))
    for mode in (1, 2, 3):
        s = np.linalg.svd(matricize(t, mode), compute_uv=False)
        assert norm(t, mode) == pytest.approx(s.max(), rel=1e-12)
        assert norm(t, mode, dual=True) == pytest.approx(s.sum(), rel=1e-12)
    slice_tops = [np.linalg.svd(s, compute_uv=False) for s in t]
    assert norm(t) == pytest.approx(max(s[0] for s in slice_tops), rel=1e-12)
    assert norm(t, dual=True) == pytest.approx(
        sum(s.sum() for s in slice_tops), rel=1e-12
    )
    batched = np.linalg.svd(t, compute_uv=False)  # the muon norms, bitwise
    assert norm(t) == float(batched.max()) and norm(t, dual=True) == float(batched.sum())


@pytest.mark.parametrize("dual", [False, True, (False, True)])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_stack_of_tensors_gives_each_tensors_norm_bitwise(mode, dual):
    # a tuple of flags gives each flag's norm from one SVD, bitwise the
    # value that flag gives alone, for a stack and for a lone tensor
    stack = np.random.default_rng(15).standard_normal((4, 3, 5, 7))
    flags = dual if isinstance(dual, tuple) else (dual,)
    got, lone = norm(stack, mode, dual=dual), norm(stack[0], mode, dual=dual)
    if not isinstance(dual, tuple):
        got, lone = (got,), (lone,)
    for d, values, value in zip(flags, got, lone, strict=True):
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        assert [float(v) for v in values] == [norm(t, mode, dual=d) for t in stack]
        assert isinstance(value, float) and value == norm(stack[0], mode, dual=d)


def test_a_stack_of_tensors_is_validated_as_a_whole():
    stack = np.ones((2, 3, 4, 4))
    stack[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        norm(stack, 1)
    with pytest.raises(ValueError, match="ndim=5"):
        norm(np.ones((1, 2, 3, 4, 4)))


def test_primal_norm_batch_matches_norm():
    rng = np.random.default_rng(1)
    ts = rng.standard_normal((32, 3, 3, 2))
    for mode in ALL_MODES:
        batch = primal_norm_batch(ts, mode)
        ref = np.array([norm(ts[i], mode) for i in range(len(ts))])
        np.testing.assert_allclose(batch, ref, rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------ comparability


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    k=st.integers(1, 6),
    mode=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**31 - 1),
)
def test_comparability_holds_on_random_tensors(m, n, k, mode, seed):
    t = np.random.default_rng(seed).standard_normal((k, m, n))
    rep = check_comparability(t, mode)
    assert not rep.violation
    scale = max(1.0, rep.muon_primal)
    for s in (
        rep.primal_lower_slack,
        rep.primal_upper_slack,
        rep.dual_lower_slack,
        rep.dual_upper_slack,
    ):
        assert s >= -1e-9 * scale
    # rho = 1: both primal norms sit below the Frobenius norm
    f = np.linalg.norm(t)
    assert rep.muon_primal <= f + 1e-9 * scale
    assert rep.teon_primal <= f + 1e-9 * scale


def test_comparability_tight_on_max_gain_construction():
    t = build_max_gain_tensor(8, 8, 4, mode=1, seed=3)
    rep = check_comparability(t, 1)
    assert rep.teon_primal == pytest.approx(2.0 * rep.muon_primal, abs=1e-9)
    assert rep.primal_upper_slack == pytest.approx(0.0, abs=1e-9)
    assert not rep.violation


def test_comparability_zero_tensor_and_report_lines():
    rep = check_comparability(np.zeros((4, 2, 3)), 2)
    assert not rep.violation
    assert rep.primal_lower_slack == rep.dual_upper_slack == 0.0
    assert (rep.mode, rep.k, rep.muon_primal, rep.teon_dual) == (2, 4, 0.0, 0.0)
    with pytest.raises(ValueError):
        check_comparability(np.zeros((2, 2, 2)), 3)


# ------------------------------------------------------------- NTR oracles


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_ntr_objective_equals_minus_eta_dual(m, n, k, seed):
    g = np.random.default_rng(seed).standard_normal((k, m, n))
    eta = 0.7
    for mode in (1, 2, 3):
        step = ntr_step_teon(g, mode, eta)
        dual = norm(g, mode, dual=True)
        assert np.vdot(g, step) == pytest.approx(-eta * dual, abs=1e-8 * max(1.0, dual))
        assert norm(step, mode) <= eta * (1 + 1e-9)
    step = ntr_step_muon(g, eta)
    dual = norm(g, dual=True)
    assert np.vdot(g, step) == pytest.approx(-eta * dual, abs=1e-8 * max(1.0, dual))
    assert norm(step) <= eta * (1 + 1e-9)


def test_ntr_step_k1_teon_equals_muon():
    g = np.random.default_rng(2).standard_normal((1, 4, 3))
    np.testing.assert_array_equal(ntr_step_teon(g, 1, 0.5), ntr_step_muon(g, 0.5))


def test_ntr_step_muon_is_the_per_slice_polar_step_bitwise():
    g = np.random.default_rng(5).standard_normal((3, 4, 3))
    g[1] = 0.0
    step = ntr_step_muon(g, 0.7)
    for k in range(3):
        assert step[k].tobytes() == (-0.7 * ortho_exact(g[k])).tobytes()


def test_ntr_muon_identical_slices_symmetric():
    a = np.random.default_rng(3).standard_normal((3, 3))
    g = np.stack([a, a, a])
    step = ntr_step_muon(g, 1.0)
    np.testing.assert_array_equal(step[0], step[1])
    np.testing.assert_array_equal(step[0], step[2])


def test_ntr_beats_sampled_directions_small():
    rng = np.random.default_rng(4)
    eta = 0.9
    for _ in range(10):
        g = rng.standard_normal((3, 3, 2))
        samples = rng.standard_normal((2000, 3, 3, 2))
        for mode in ALL_MODES:
            if mode is None:
                step = ntr_step_muon(g, eta)
            else:
                step = ntr_step_teon(g, mode, eta)
            achieved = np.vdot(g, step)
            norms = primal_norm_batch(samples, mode)
            vals = eta * np.einsum("ijk,sijk->s", g, samples) / norms
            # Hoelder: no feasible direction does better than the polar step
            assert vals.min() >= achieved - 1e-9 * max(1.0, abs(achieved))


def test_ntr_rejects_bad_eta():
    g = np.ones((1, 2, 2))
    for eta in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            ntr_step_teon(g, 1, eta)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            ntr_step_muon(g, eta)


# -------------------------------------------------------------- dual checks


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_dual_norm_sampling_bounds(m, n, k, seed):
    g = np.random.default_rng(seed).standard_normal((k, m, n))
    for mode in ALL_MODES:
        sampled, dual = sample_dual_lower_bound(g, mode, samples=1500, seed=seed + 1)
        assert sampled <= dual + 1e-9 * max(1.0, dual)
        assert sampled >= 0.8 * dual


def test_dual_ascent_direction_is_feasible_certificate():
    g = np.random.default_rng(9).standard_normal((2, 3, 3))
    for mode in ALL_MODES:
        y = dual_ascent_direction(g, mode)
        assert norm(y, mode) <= 1 + 1e-9
        assert np.vdot(g, y) == pytest.approx(norm(g, mode, dual=True), rel=1e-10)


# ------------------------------------------------------------------- bounds


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(1.0, 1.0, 0.1, 1.0, 0.0, 1.0, 10)  # mu = 1
    with pytest.raises(ValueError):
        BoundInputs(1.0, 0.0, 0.1, 0.0, 0.0, 1.0, 10)  # L = 0
    with pytest.raises(ValueError):
        BoundInputs(-1.0, 1.0, 0.1, 0.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        BoundInputs(1.0, 1.0, 0.1, 0.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        BoundInputs(np.inf, 1.0, 0.1, 0.0, 0.0, 1.0, 10)


def test_eval_ntr_bound_plugin_values():
    # mu = sigma = 0 keeps only delta0/(eta T) + L eta / 2
    assert eval_ntr_bound(BoundInputs(2.0, 1.0, 0.2, 0.0, 0.0, 1.0, 100)) == pytest.approx(
        0.2, abs=1e-15
    )
    b = BoundInputs(1.0, 2.0, 0.1, 0.5, 0.3, 1.5, 50)
    expected = (
        1.0 / (0.1 * 50)
        + 3.0 * np.sqrt(2.0 * 1.0 / 50) * (0.5 / 0.5)
        + 2.0 * 0.1 / 2
        + 2.0 * 0.1 * (0.5 / 0.5)
        + 2.0 * 0.5 * 1.5 * 0.3 / 50
        + 1.5 * 0.3 * np.sqrt(0.5 / 1.5)
    )
    assert eval_ntr_bound(b) == pytest.approx(expected, rel=1e-15)


def test_eval_ntr_bound_optimal_eta_identity():
    for delta0, L, T in [(1.0, 1.0, 10), (2.5, 0.3, 1000), (0.07, 12.0, 7)]:
        eta_star = np.sqrt(2.0 * delta0 / (T * L))
        val = eval_ntr_bound(BoundInputs(delta0, L, eta_star, 0.0, 0.0, 1.0, T))
        target = np.sqrt(2.0 * L * delta0 / T)
        assert abs(val - target) <= 1e-12 * max(1.0, target)


def test_convergence_bound_pair():
    assert convergence_bound_pair(1.0, 1, 2.0, 8.0) == pytest.approx((2.0, 4.0))
    lo, hi = convergence_bound_pair(3.0, 17, 0.9, 0.9)
    assert lo == hi
    K = 6
    lo, hi = convergence_bound_pair(1.0, 10, 1.3, K * 1.3)
    assert hi / lo == pytest.approx(np.sqrt(K), rel=1e-12)


# -------------------------------------------------------- smoothness ratios


def test_smoothness_quadratic_sandwich():
    f = _Quad((3, 3, 4))
    rep = estimate_smoothness_ratio(f, 60, 1, seed=5)
    assert rep.sandwich_ok
    assert rep.max_teon > 0
    assert 1.0 - 1e-9 <= rep.max_muon / rep.max_teon <= 3.0 + 1e-9


def test_smoothness_constant_objective_degenerate():
    rep = estimate_smoothness_ratio(_Const((2, 2, 2)), 20, 2, seed=6)
    assert rep.max_teon == rep.max_muon == 0.0


def test_smoothness_cone_restricted_gain_is_sqrt_k():
    # pairs drawn inside the shared-right-vector cone: the muon ratio is K,
    # the teon-2 ratio is 1, so the bound-level gain is exactly sqrt(K)
    K = 4
    g_star = build_max_gain_tensor(6, 5, K, mode=2, seed=11)
    f = _Quad(g_star.shape)

    def cone_sampler(rng):
        c1, c2 = rng.standard_normal(2)
        return c1 * g_star, c2 * g_star

    rep = estimate_smoothness_ratio(f, 40, 2, seed=12, pair_sampler=cone_sampler)
    assert rep.sandwich_ok
    assert rep.max_teon == pytest.approx(1.0, rel=1e-9)
    assert rep.max_muon == pytest.approx(K, rel=1e-9)
    assert np.sqrt(rep.max_muon / rep.max_teon) == pytest.approx(np.sqrt(K), rel=1e-9)


# ----------------------------------------------------------- max-gain build


def test_max_gain_k1_ratio_one():
    t = build_max_gain_tensor(5, 4, 1, mode=1, seed=0)
    assert norm(t, 1) == pytest.approx(norm(t), rel=1e-12)


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("m,n,K", [(8, 8, 4), (6, 9, 5), (9, 6, 5), (4, 4, 2)])
def test_max_gain_ratio_sqrt_k(mode, m, n, K):
    t = build_max_gain_tensor(m, n, K, mode=mode, seed=13)
    ratio = norm(t, mode) / norm(t)
    assert ratio == pytest.approx(np.sqrt(K), abs=1e-9)
    # slices are exactly rank one
    for k in range(K):
        s = np.linalg.svd(t[k], compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert s[1:].max(initial=0.0) <= 1e-12


def test_max_gain_dimension_errors():
    with pytest.raises(ValueError):
        build_max_gain_tensor(8, 3, 4, mode=1, seed=0)  # needs K <= n
    with pytest.raises(ValueError):
        build_max_gain_tensor(3, 8, 4, mode=2, seed=0)  # needs K <= m
    with pytest.raises(ValueError):
        build_max_gain_tensor(4, 4, 2, mode=3, seed=0)


def test_max_gain_deterministic_in_seed():
    a = build_max_gain_tensor(5, 5, 3, mode=1, seed=42)
    b = build_max_gain_tensor(5, 5, 3, mode=1, seed=42)
    np.testing.assert_array_equal(a, b)
    c = build_max_gain_tensor(5, 5, 3, mode=1, seed=43)
    assert not np.array_equal(a, c)
