"""Cross-layer alignment and rank diagnostics.

`top_singular_alignment` measures |<u1_a, u1_b>| and |<v1_a, v1_b>| between
the top singular vectors of two same-shaped matrices. Singular vectors carry
an arbitrary sign, so absolute values are the only well-defined choice. When
sigma_1 - sigma_2 is tiny the top vectors are basis-ambiguous inside the
leading singular subspace; such records are flagged via `degenerate` (gap
below 1e-8) and should be filtered, never asserted on.

`track_run` samples momentum buffers every `every` steps and emits one
AlignmentRecord per configured pair, matching the CSV row layout
`step,pair_id,left_align,right_align,sigma_gap`.

Cost model: a matrix usually sits in several pairs (`b1.q` in Q0-Q1, Q1-Q2,
Q1-K1 and Q1-V1), so callers that align many pairs over one snapshot pass a
per-step `memo` dict to `top_singular_alignment`. Each distinct buffer is
then decomposed by one SVD per sampled step, however many pairs it is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .linalg import as_matrix, frobenius, svd

__all__ = [
    "AlignmentRecord",
    "DEGENERATE_SIGMA_GAP",
    "top_singular_alignment",
    "stable_rank",
    "track_run",
    "default_alignment_pairs",
]

DEGENERATE_SIGMA_GAP = 1e-8


@dataclass(frozen=True)
class AlignmentRecord:
    step: int
    pair_id: str
    left_align: float
    right_align: float
    sigma_gap: float
    degenerate: bool

    def __post_init__(self):
        if not -1e-12 <= self.left_align <= 1 + 1e-12:
            raise ValueError(f"left_align out of [0,1]: {self.left_align}")
        if not -1e-12 <= self.right_align <= 1 + 1e-12:
            raise ValueError(f"right_align out of [0,1]: {self.right_align}")
        if self.sigma_gap < 0:
            raise ValueError(f"sigma_gap must be nonnegative: {self.sigma_gap}")

    def csv_row(self) -> str:
        return (
            f"{self.step},{self.pair_id},{self.left_align:.17g},"
            f"{self.right_align:.17g},{self.sigma_gap:.17g}"
        )


def top_singular_alignment(
    a: np.ndarray,
    b: np.ndarray,
    step: int = 0,
    pair_id: str = "",
    *,
    memo: dict | None = None,
) -> AlignmentRecord:
    """Alignment of the top singular directions of two same-shaped matrices.

    `memo` is a dict owned by the caller that caches each input's top
    singular pair under `id()` of the input, as `copy.deepcopy` does. It
    holds a reference to every input it has seen, so an id is never reused
    while the dict lives; the inputs must not be mutated in that time. Keep
    one memo per sampled step. Records are the same with or without it.
    """
    ua, va, gap_a = _top_pair(a, memo)
    ub, vb, gap_b = _top_pair(b, memo)
    shape_a, shape_b = (len(ua), len(va)), (len(ub), len(vb))
    if shape_a != shape_b:
        raise ValueError(f"alignment needs equal shapes, got {shape_a} vs {shape_b}")
    left = float(abs(np.dot(ua, ub)))
    right = float(abs(np.dot(va, vb)))
    sigma_gap = min(gap_a, gap_b)
    return AlignmentRecord(
        step=step,
        pair_id=pair_id,
        left_align=left,
        right_align=right,
        sigma_gap=sigma_gap,
        degenerate=sigma_gap < DEGENERATE_SIGMA_GAP,
    )


def _top_pair(x, memo: dict | None):
    """(u_1, v_1, sigma_1 - sigma_2) of matrix `x`, through `memo` if given."""
    if memo is not None:
        hit = memo.get(id(x))
        if hit is not None and hit[0] is x:
            return hit[1]
    u, s, v = svd(x)
    top = (u[:, 0], v[:, 0], float(s[0] - s[1]) if len(s) > 1 else float(s[0]))
    if memo is not None:
        memo[id(x)] = (x, top)
    return top


def stable_rank(m: np.ndarray) -> float:
    """||M||_F^2 / sigma_1^2; lies in [1, rank(M)]."""
    m = as_matrix(m)
    top = float(np.linalg.svd(m, compute_uv=False)[0])
    if top == 0.0:
        raise ValueError("stable_rank is undefined for the zero matrix")
    return frobenius(m) ** 2 / top**2


def default_alignment_pairs(layout) -> list[tuple[str, str, str]]:
    """(pair_id, name_a, name_b) for consecutive-block same-role pairs plus
    within-block QK/KV/QV pairs, given a layout of LayoutEntry-like objects
    (fields name/role/block, 2-D shapes only are considered)."""
    mats = [e for e in layout if len(e.shape) == 2 and e.block is not None]
    by_role: dict[str, list] = {}
    for e in mats:
        by_role.setdefault(e.role, []).append(e)
    pairs: list[tuple[str, str, str]] = []
    for role in sorted(by_role):
        entries = sorted(by_role[role], key=lambda e: e.block)
        for prev, cur in zip(entries, entries[1:]):
            if prev.shape == cur.shape:
                pairs.append(
                    (f"{role}{prev.block}-{role}{cur.block}", prev.name, cur.name)
                )
    by_block: dict[int, dict[str, object]] = {}
    for e in mats:
        by_block.setdefault(e.block, {})[e.role] = e
    for blk in sorted(by_block):
        roles = by_block[blk]
        for ra, rb in (("Q", "K"), ("K", "V"), ("Q", "V")):
            if ra in roles and rb in roles and roles[ra].shape == roles[rb].shape:
                pairs.append((f"{ra}{blk}-{rb}{blk}", roles[ra].name, roles[rb].name))
    return pairs


def track_run(
    snapshots: Iterable[tuple[int, dict]],
    pairs: list[tuple[str, str, str]],
    every: int,
) -> Iterator[AlignmentRecord]:
    """Emit alignment records for each configured pair on sampled steps.

    `snapshots` yields (step, buffers) where buffers maps parameter name to
    the momentum matrix at that step; steps divisible by `every` are sampled.
    """
    if every < 1:
        raise ValueError(f"sampling interval must be >= 1, got {every}")
    for step, buffers in snapshots:
        if step % every != 0:
            continue
        memo: dict = {}
        for pair_id, name_a, name_b in pairs:
            a, b = buffers[name_a], buffers[name_b]
            yield top_singular_alignment(a, b, step=step, pair_id=pair_id, memo=memo)
