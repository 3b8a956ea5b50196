"""Dense matrix / order-3 tensor primitives.

Conventions used throughout the package:

* a "matrix" is a 2-D float ndarray of shape (m, n);
* a "tensor" is the paper's m x n x K tensor stored slice-major, as NumPy
  stacks matrices: a 3-D float ndarray of shape (K, m, n), slice k ``t[k]``;
* matricization uses contiguous block concatenation:

      mode 1:  [X1 X2 ... XK]          shape (m, n*K)
      mode 2:  [X1.T X2.T ... XK.T]    shape (n, m*K)
      mode 3:  row k = vec(Xk)         shape (K, m*n)   (row-major vec)

Mode 3 is a plain reshape (a view). Folding is the exact inverse; round-trips
are bit-exact because only reshape/transpose are involved, never arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_tensor3",
    "matricize",
    "fold",
    "svd",
]


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    return _validated(a, 2, "a 2-D matrix")


def as_tensor3(t) -> np.ndarray:
    """Validate and return `t` as a (K, m, n) float64 array with finite entries."""
    return _validated(t, 3, "a (K, m, n) tensor")


def _validated(a, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"expected {what}, got ndim={a.ndim}")
    if min(a.shape) < 1:
        raise ValueError(f"{what} needs positive dimensions, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} needs finite entries (no NaN/Inf)")
    return a


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold a (K, m, n) tensor along `mode` in {1, 2, 3} (block layout);
    leading batch axes, as in a (G, K, m, n) stack, unfold tensor by tensor."""
    t = np.asarray(t)
    if t.ndim < 3:
        raise ValueError(f"matricize expects a (K, m, n) tensor, got ndim={t.ndim}")
    *lead, k, m, n = t.shape
    axes = tuple(range(len(lead)))
    if mode == 1:
        # [X1 X2 ... XK]: (m, K, n) laid out row-major gives exactly the block row.
        return t.transpose(*axes, -2, -3, -1).reshape(*lead, m, k * n)
    if mode == 2:
        return t.transpose(*axes, -1, -3, -2).reshape(*lead, n, k * m)
    if mode == 3:
        return t.reshape(*lead, k, m * n)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def fold(x: np.ndarray, mode: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`matricize`: rebuild the (K, m, n) tensor from an unfolding."""
    x = np.asarray(x)
    k, m, n = shape
    expected = {1: (m, k * n), 2: (n, k * m), 3: (k, m * n)}.get(mode)
    if expected is None:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if x.shape != expected:
        raise ValueError(
            f"fold mode {mode} with shape {shape} needs a {expected} matrix, got {x.shape}"
        )
    if mode == 1:
        return x.reshape(m, k, n).transpose(1, 0, 2)
    if mode == 2:
        return x.reshape(n, k, m).transpose(1, 2, 0)
    return x.reshape(k, m, n)


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = (u * s) @ vh, NumPy's (u, s, vh) with r = min(m, n):
    u (m, r) has orthonormal columns, s (r,) is non-increasing and >= 0,
    vh (r, n) has orthonormal rows. The ground-truth oracle everywhere else.

    A (B, m, n) stack is decomposed slice by slice in one LAPACK call, with
    (B, m, r), (B, r) and (B, r, n) factors; slice b's factors equal, bit for
    bit, those of the slice alone, so a caller may batch whatever matrices
    share a shape.

    Deterministic for a fixed input on a fixed NumPy/BLAS build and BLAS
    thread count; LAPACK's blocked SVD runs on the threaded BLAS, so the
    last bits can change with the thread count. Non-convergence is surfaced
    as a numerical error rather than returning garbage.
    """
    # checked even after callers: on one -inf entry LAPACK returns non-finite
    # factors or, for some 39x24 Gaussian matrices, not within 15 s
    a = as_tensor3(a) if np.ndim(a) == 3 else as_matrix(a)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover - hardware dependent
        raise np.linalg.LinAlgError(
            f"SVD did not converge for shape {a.shape}: {e}"
        ) from e
