import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teon.linalg import (
    as_matrix,
    as_tensor3,
    fold,
    matricize,
    svd,
)


def random_tensor(rng, m, n, k):
    return rng.standard_normal((k, m, n))


# ---------------------------------------------------------------- validation


def test_as_matrix_rejects_nan_and_bad_ndim():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.ones((0, 2)))


def test_as_tensor3_rejects_inf():
    t = np.ones((2, 2, 2))
    t[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        as_tensor3(t)


# ------------------------------------------------------------- matricization


def test_mode1_worked_example():
    # hand-enumerated 2x2x2 case
    t = np.stack([np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])])
    expected = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    np.testing.assert_array_equal(matricize(t, 1), expected)
    np.testing.assert_array_equal(fold(expected, 1, (2, 2, 2)), t)


def test_mode2_is_transposed_blocks():
    rng = np.random.default_rng(0)
    t = random_tensor(rng, 3, 4, 2)
    m2 = matricize(t, 2)
    assert m2.shape == (4, 6)
    np.testing.assert_array_equal(m2[:, :3], t[0].T)
    np.testing.assert_array_equal(m2[:, 3:], t[1].T)


def test_mode3_rows_are_rowmajor_vecs():
    t = np.stack([np.array([[2.0]]), np.array([[3.0]])])
    np.testing.assert_array_equal(matricize(t, 3), np.array([[2.0], [3.0]]))
    rng = np.random.default_rng(1)
    t = random_tensor(rng, 2, 3, 4)
    m3 = matricize(t, 3)
    assert m3.shape == (4, 6)
    np.testing.assert_array_equal(m3[1], t[1].reshape(-1))


def test_k1_mode1_is_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 3))
    t = a[None]
    np.testing.assert_array_equal(matricize(t, 1), a)


def test_fold_shape_errors():
    with pytest.raises(ValueError):
        fold(np.ones((3, 4)), 2, (2, 2, 2))
    with pytest.raises(ValueError):
        fold(np.ones((2, 4)), 4, (2, 2, 2))
    np.testing.assert_array_equal(fold(np.zeros((2, 4)), 1, (2, 2, 2)), np.zeros((2, 2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    k=st.integers(1, 5),
    mode=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_bit_exact(m, n, k, mode, seed):
    t = random_tensor(np.random.default_rng(seed), m, n, k)
    mat = matricize(t, mode)
    # the paper's block definitions, slice by slice
    blocks = {
        1: lambda: np.concatenate(list(t), axis=1),
        2: lambda: np.concatenate([s.T for s in t], axis=1),
        3: lambda: np.stack([s.ravel() for s in t]),
    }[mode]()
    assert mat.shape == blocks.shape and mat.tobytes() == blocks.tobytes()
    if mode == 3:
        assert np.shares_memory(mat, t)  # a view of the C-contiguous tensor
    back = fold(mat, mode, (k, m, n))
    assert back.shape == t.shape
    assert np.array_equal(back, t)  # bit-exact, no tolerance


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_a_batch_of_tensors_unfolds_tensor_by_tensor(mode):
    # (G, K, m, n): each tensor's unfolding, bitwise, for non-square slices,
    # where mode 1 and mode 2 differ in shape as well as in order
    t = np.random.default_rng(12).standard_normal((3, 2, 4, 5))
    batch = matricize(t, mode)
    assert batch.shape == (3,) + matricize(t[0], mode).shape
    for g in range(3):
        assert batch[g].tobytes() == matricize(t[g], mode).tobytes()
    square = np.random.default_rng(13).standard_normal((2, 3, 4, 4))
    for g in range(2):
        assert np.array_equal(matricize(square, mode)[g], matricize(square[g], mode))
    with pytest.raises(ValueError, match="ndim=2"):
        matricize(t[0, 0], mode)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_frobenius_invariance_and_inner_consistency(m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, m, n, k)
    b = random_tensor(rng, m, n, k)
    f = np.linalg.norm(a)
    ab = np.vdot(a, b)
    for mode in (1, 2, 3):
        assert matricize(a, mode).shape == {1: (m, n * k), 2: (n, m * k), 3: (k, m * n)}[mode]
        assert abs(np.linalg.norm(matricize(a, mode)) - f) <= 1e-12 * max(1.0, f)
        assert abs(np.vdot(matricize(a, mode), matricize(b, mode)) - ab) <= 1e-10 * max(
            1.0, abs(ab)
        )


# ----------------------------------------------------------------------- svd


def test_svd_identity_and_diagonal():
    _, s, _ = svd(np.eye(3))
    np.testing.assert_allclose(s, np.ones(3), atol=1e-14)
    u, s, vh = svd(np.diag([3.0, 0.0]))
    np.testing.assert_allclose(s, [3.0, 0.0], atol=1e-14)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-14
    assert abs(abs(vh[0, 0]) - 1.0) <= 1e-14


def svd_residuals(a: np.ndarray, u, s, vh):
    ortho_u = np.abs(u.T @ u - np.eye(u.shape[1])).max()
    ortho_v = np.abs(vh @ vh.T - np.eye(vh.shape[0])).max()
    recon = np.linalg.norm(u * s @ vh - a)
    return ortho_u, ortho_v, recon


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_svd_invariants(m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    u, s, vh = svd(a)
    assert s.shape == (min(m, n),)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    ou, ov, recon = svd_residuals(a, u, s, vh)
    assert ou <= 1e-10 and ov <= 1e-10
    assert recon <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_svd_reconstruction_rectangular():
    # NumPy's thin (u, s, vh), unchanged
    a = np.random.default_rng(7).standard_normal((5, 3))
    u, s, vh = svd(a)
    assert u.shape == (5, 3) and s.shape == (3,) and vh.shape == (3, 3)
    for got, want in zip((u, s, vh), np.linalg.svd(a, full_matrices=False)):
        assert np.array_equal(got, want)
    assert np.linalg.norm(u * s @ vh - a) <= 1e-8


def test_svd_determinism():
    a = np.random.default_rng(11).standard_normal((8, 8))
    for x, y in zip(svd(a), svd(a.copy())):
        assert np.array_equal(x, y)


# every batched diagnostic (gradient_metrics, norm, top_singular_alignment)
# writes the bytes of its per-matrix form only because of this
STACK_SHAPES = [(7, 5), (5, 7), (1, 9), (9, 1), (8, 8), (16, 32), (64, 64), (128, 48), (24, 128)]


@pytest.mark.parametrize("shape", STACK_SHAPES)
def test_a_stacked_svd_equals_each_slice_alone_bitwise(shape):
    stack = np.random.default_rng(sum(shape)).standard_normal((5,) + shape)
    values = np.linalg.svd(stack, compute_uv=False)
    factors = np.linalg.svd(stack, full_matrices=False)
    for b, a in enumerate(stack):
        assert values[b].tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
        for got, alone in zip(factors, np.linalg.svd(a, full_matrices=False)):
            assert got[b].tobytes() == alone.tobytes()


def test_svd_of_a_stack_is_numpys_and_rejects_a_non_finite_slice():
    stack = np.random.default_rng(14).standard_normal((3, 6, 4))
    got = svd(stack)
    assert [x.shape for x in got] == [(3, 6, 4), (3, 4), (3, 4, 4)]
    for x, want in zip(got, np.linalg.svd(stack, full_matrices=False)):
        assert np.array_equal(x, want)
    stack[2, 5, 3] = -np.inf
    with pytest.raises(ValueError, match="finite"):
        svd(stack)
    with pytest.raises(ValueError, match="ndim=4"):
        svd(stack[None])
