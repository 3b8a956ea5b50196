import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import newton_schulz_reference
from teon.linalg import matricize, svd
from teon.ortho import (
    PRESETS,
    OrthoScheme,
    apply_ortho,
    ortho_exact,
    ortho_ns,
)


def ortho_error(m, scheme):
    return float(np.linalg.norm(apply_ortho(m, scheme) - ortho_exact(m)))


def with_spectrum(rng, m, n, lo, hi):
    """Random matrix with singular values drawn uniformly from [lo, hi]."""
    r = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    s = rng.uniform(lo, hi, r)
    return (u * s) @ v.T


def cubic(steps):
    return OrthoScheme.newton_schulz(steps, preset="cubic")


# ---------------------------------------------------------------- ortho_exact


def test_exact_identity_and_positive_diagonal():
    np.testing.assert_allclose(ortho_exact(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ortho_exact(np.diag([2.0, 0.5])), np.eye(2), atol=1e-12)


def test_exact_zero_policy():
    np.testing.assert_array_equal(ortho_exact(np.zeros((3, 2))), np.zeros((3, 2)))


def test_exact_matches_svd_factors_and_semi_orthogonality():
    a = np.random.default_rng(3).standard_normal((4, 2))
    o = ortho_exact(a)
    u, _, vh = svd(a)
    np.testing.assert_allclose(o, u @ vh, atol=1e-12)
    assert np.abs(o.T @ o - np.eye(2)).max() <= 1e-10
    wide = a.T
    ow = ortho_exact(wide)
    assert np.abs(ow @ ow.T - np.eye(2)).max() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 10), n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_exact_idempotent_and_scale_invariant(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    o = ortho_exact(a)
    assert np.linalg.norm(ortho_exact(o) - o) <= 1e-9
    for c in (0.01, 7.3):
        assert np.abs(ortho_exact(c * a) - o).max() <= 1e-10


# ------------------------------------------------------------------- ortho_ns


def test_ns_rejects_exact_scheme():
    with pytest.raises(ValueError):
        ortho_ns(np.eye(2), OrthoScheme.exact())


def test_ns_zero_policy():
    np.testing.assert_array_equal(ortho_ns(np.zeros((2, 3)), cubic(5)), np.zeros((2, 3)))


def test_ns_semi_orthogonal_input_is_near_fixed_point():
    # singular values start at 1/||m||_F < 1 and climb monotonically back to 1
    rng = np.random.default_rng(5)
    m = np.linalg.qr(rng.standard_normal((6, 4)))[0].T  # 4x6, rows orthonormal
    assert np.linalg.norm(ortho_ns(m, cubic(30)) - ortho_exact(m)) <= 1e-6
    assert np.linalg.norm(ortho_ns(m, cubic(30)) - m) <= 1e-6


def test_ns_rank_one_converges_to_partial_isometry():
    # the iteration is odd, so the null space stays at zero and the limit is
    # u v^T itself; the exact polar factor instead carries an arbitrary
    # orthonormal completion of the null space (norm sqrt(r-1) away)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    m = np.outer(u, v)
    assert np.linalg.norm(ortho_ns(m, cubic(10)) - m) <= 1e-4
    assert np.linalg.norm(ortho_exact(m) - m) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_ns_tall_matrix_uses_transpose_path():
    rng = np.random.default_rng(7)
    a = with_spectrum(rng, 9, 3, 0.3, 1.0)
    assert np.linalg.norm(ortho_ns(a, cubic(30)) - ortho_exact(a)) <= 1e-8


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("shape", [(24, 24), (16, 40), (40, 16), (1, 9), (9, 1)])
def test_ns_is_bitwise_the_literal_short_side_loop(preset, shape):
    # pins the bytes of the in-place iteration, and that it runs on the short
    # side: the long-side loop agrees only to rounding on tall inputs
    m = np.random.default_rng(sum(shape)).standard_normal(shape)
    scheme = OrthoScheme.newton_schulz(5, preset=preset)
    assert np.array_equal(ortho_ns(m, scheme), newton_schulz_reference(m, scheme.schedule))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("slice_shape", [(12, 20), (30, 4)])
def test_ns_is_bitwise_the_literal_loop_on_tensor_unfoldings(k, mode, slice_shape):
    rng = np.random.default_rng([k, mode, *slice_shape])
    unfolded = matricize(rng.standard_normal((k, *slice_shape)), mode)
    scheme = OrthoScheme.newton_schulz(5, preset="jordan")
    expected = newton_schulz_reference(unfolded, scheme.schedule)
    assert np.array_equal(ortho_ns(unfolded, scheme), expected)


def test_ns_nonfinite_raises_with_step_index():
    # p(1)=0.5 passes the sanity guard but the row explodes small singular values
    scheme = OrthoScheme(OrthoScheme.NEWTON_SCHULZ, schedule=((3.0, 400.0, -402.5),) * 12, steps=12)
    a = with_spectrum(np.random.default_rng(8), 6, 6, 0.1, 1.0)
    with pytest.raises(FloatingPointError, match=r"Newton-Schulz diverged at step \d+: "):
        ortho_ns(a, scheme)


@pytest.mark.parametrize("c", [1e-200, 1e-150, 1.0, 1e150, 1e200])
def test_ns_is_scale_invariant_or_raises_but_never_returns_zeros(c):
    # Ortho(cA) = Ortho(A); at 1e+-200 the Frobenius norm overflows or
    # underflows to 0, and the normalization must raise rather than return x/inf = 0
    a = np.random.default_rng(15).standard_normal((4, 6))
    scheme = OrthoScheme.newton_schulz(5, preset="jordan")
    if abs(np.log10(c)) > 160:
        with pytest.raises(FloatingPointError, match="Newton-Schulz"):
            ortho_ns(c * a, scheme)
    else:
        np.testing.assert_allclose(ortho_ns(c * a, scheme), ortho_ns(a, scheme), rtol=0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kernels_fail_closed_on_non_finite_input(bad):
    # the kernels scan nothing: NS fails through its Frobenius norm, the exact
    # path through svd's check
    ns = OrthoScheme.newton_schulz(5, preset="jordan")
    dense = np.random.default_rng(16).standard_normal((5, 3))
    for a in (dense, dense.T, np.zeros((3, 4))):
        a = a.copy()
        a[1, 2] = bad
        for call in (
            lambda: ortho_ns(a, ns),
            lambda: apply_ortho(a, ns),
            lambda: apply_ortho(a, OrthoScheme.exact()),
            lambda: ortho_exact(a),
        ):
            with pytest.raises((ValueError, FloatingPointError)):
                call()
        with pytest.raises(ValueError, match="finite"):
            svd(a)


def test_ns_jordan_five_step_error_band():
    # Calibrated envelope on a fixed corpus: the tuned 5-step regime leaves
    # singular values in an oscillation band around 1 instead of converging,
    # so the polar-factor error stays a few tenths in Frobenius norm.
    scheme = OrthoScheme.newton_schulz(5, preset="jordan")
    errs = []
    for seed in range(100):
        m = with_spectrum(np.random.default_rng(seed), 8, 8, 0.1, 1.0)
        errs.append(ortho_error(m, scheme))
    assert max(errs) <= 0.85
    assert min(errs) >= 0.0


def test_ns_output_singular_value_overshoot_bounded():
    # tuned presets overshoot 1 but stay within (0, 1.3] at their design depth
    for preset, steps in (("jordan", 5), ("you", 5), ("polar-express", 5), ("cubic", 30)):
        scheme = OrthoScheme.newton_schulz(steps, preset=preset)
        for seed in (0, 1, 2, 3):
            m = with_spectrum(np.random.default_rng(100 + seed), 8, 8, 0.1, 1.0)
            s = np.linalg.svd(ortho_ns(m, scheme), compute_uv=False)
            assert s.max() <= 1.3
            assert s.min() > 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_ns_cubic_error_monotone_in_steps(seed):
    m = with_spectrum(np.random.default_rng(seed), 8, 8, 0.2, 1.0)
    errs = [ortho_error(m, cubic(steps)) for steps in (2, 5, 10, 20, 30)]
    floor = 1e-12
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + floor


# ---------------------------------------------------------------- ortho_error


def test_error_exact_scheme_is_zero():
    a = np.random.default_rng(9).standard_normal((4, 4))
    assert ortho_error(a, OrthoScheme.exact()) == 0.0


def test_error_ordering_across_aspect_ratios():
    # Paired measurement at the stacked-gradient shapes, ordering only, no
    # values. In 64-bit the five-step error is governed by the smallest
    # normalized singular value, and iid matrices get better conditioned as
    # they widen, so the error DECREASES with the column count (the reverse
    # ordering shows up only under low-precision arithmetic, which is out of
    # scope here).
    rng = np.random.default_rng(10)
    scheme = OrthoScheme.newton_schulz(5, preset="jordan")
    square = ortho_error(rng.standard_normal((768, 768)), scheme)
    narrow = ortho_error(rng.standard_normal((768, 1536)), scheme)
    wide = ortho_error(rng.standard_normal((768, 6144)), scheme)
    assert square > narrow > wide


# -------------------------------------------------------------------- presets


def test_known_presets_load_with_expected_heads():
    assert sorted(PRESETS) == ["cubic", "jordan", "polar-express", "you"]
    assert PRESETS["cubic"] == ((1.5, -0.5, 0.0),)
    assert PRESETS["jordan"] == ((3.4445, -4.7750, 2.0315),)
    assert len(PRESETS["you"]) == 5
    assert PRESETS["you"][0] == (4.0848, -6.8946, 2.9270)
    assert PRESETS["you"][-1] == (2.8366, -3.0525, 1.2012)
    assert len(PRESETS["polar-express"]) == 8
    assert PRESETS["polar-express"][0][0] == pytest.approx(8.28721201814563)
    assert PRESETS["polar-express"][-1] == (1.875, -1.25, 0.375)


def test_preset_schedules_match_the_transcribed_tables():
    # sha256 of every named schedule resolved at 1..12 steps: pins each
    # transcribed coefficient, middle rows included; a changed digit changes it.
    text = "\n".join(
        repr(OrthoScheme.newton_schulz(s, preset=p))
        for p in ("cubic", "jordan", "you", "polar-express")
        for s in range(1, 13)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4681568349100e0283cf0787a7a6386724ad08910f3045ffc8f85c49ccc83fa1"
    )


def test_unknown_preset_raises_and_lists_valid_names():
    with pytest.raises(ValueError) as exc:
        OrthoScheme.newton_schulz(5, preset="bogus")
    msg = str(exc.value)
    assert msg.startswith("ns_preset must be one of ") and msg.endswith(", got 'bogus'")
    for name in PRESETS:
        assert repr(name) in msg


def test_schedule_resolution_semantics():
    one = OrthoScheme.newton_schulz(4, preset="cubic")
    assert one.schedule == PRESETS["cubic"] * 4
    trunc = OrthoScheme.newton_schulz(2, preset="you")
    assert len(trunc.schedule) == 2
    assert trunc.schedule[0] == (4.0848, -6.8946, 2.9270)
    ext = OrthoScheme.newton_schulz(7, preset="you")
    assert len(ext.schedule) == 7
    assert ext.schedule[-1] == ext.schedule[-2] == (2.8366, -3.0525, 1.2012)


def test_scheme_validation():
    with pytest.raises(ValueError, match="p\\(1\\)"):
        OrthoScheme(OrthoScheme.NEWTON_SCHULZ, schedule=((3.0, 3.0, 3.0),) * 2, steps=2)
    with pytest.raises(ValueError):
        OrthoScheme.newton_schulz(0, preset="cubic")
    with pytest.raises(ValueError):
        OrthoScheme(kind="exact_svd", steps=3)
    with pytest.raises(ValueError):
        OrthoScheme(kind="banana")
    # every named preset passes the constructor guard at its design depth
    for name in PRESETS:
        OrthoScheme.newton_schulz(5, preset=name)


def test_apply_ortho_dispatch():
    a = np.random.default_rng(11).standard_normal((3, 3))
    np.testing.assert_array_equal(apply_ortho(a, OrthoScheme.exact()), ortho_exact(a))
    np.testing.assert_array_equal(apply_ortho(a, cubic(5)), ortho_ns(a, cubic(5)))
