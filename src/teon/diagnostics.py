"""Cross-layer alignment and rank diagnostics.

`top_singular_alignment` measures |<u1_a, u1_b>| and |<v1_a, v1_b>| between
the top singular vectors of each pair of same-shaped matrices in one sampled
step's buffers. Singular vectors carry an arbitrary sign, so absolute values
are the only well-defined choice. When sigma_1 - sigma_2 is tiny the top
vectors are basis-ambiguous inside the leading singular subspace; the
derived `degenerate` (gap below 1e-8) flags such records, which should be
filtered, never asserted on.

The training loop (`teon.runner.run`) samples the momentum buffers every
`align_every` steps and emits one AlignmentRecord per pair from
`default_alignment_pairs`; each record's fields, in order, are one row of
`alignment.csv`.

Cost model: a matrix usually sits in several pairs (`b1.q` in Q0-Q1, Q1-Q2,
Q1-K1 and Q1-V1), so one call takes a whole sampled step and decomposes each
paired buffer exactly once, however many pairs it is in. The paired buffers
of one shape go to `svd` as one stack, one LAPACK call that decomposes it
slice by slice, each slice's factors bitwise those of the matrix alone; a
shape whose buffers exceed STACK_BYTES is split into stacks of at most that
size. Fewer calls is the gain: while the loop overlaps the call with its
next step (`teon.runner`), many small LAPACK calls on the worker barely run
alongside the training thread's, and a few stacked ones do. Of each call
the function keeps only u_1, v_1 and the gap of each slice and drops the
stack, U and Vh at once, so the next step's forward and backward pass
never meets more than one stack and its factors: at most three times
STACK_BYTES, whose two 64x64 matrices per stack are what the memory budget
of the dim-64 attention runs allows.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .linalg import svd

__all__ = [
    "AlignmentRecord",
    "DEGENERATE_SIGMA_GAP",
    "top_singular_alignment",
    "default_alignment_pairs",
]

DEGENERATE_SIGMA_GAP = 1e-8
# One svd call stacks at most this many bytes of buffers (two 64x64
# matrices), so it holds at most three times as much: the stack, U and Vh.
STACK_BYTES = 2 * 64 * 64 * 8


@dataclass(frozen=True)
class AlignmentRecord:
    step: int
    pair_id: str
    left_align: float
    right_align: float
    sigma_gap: float

    def __post_init__(self):
        if not -1e-12 <= self.left_align <= 1 + 1e-12:
            raise ValueError(f"left_align out of [0,1]: {self.left_align}")
        if not -1e-12 <= self.right_align <= 1 + 1e-12:
            raise ValueError(f"right_align out of [0,1]: {self.right_align}")
        if self.sigma_gap < 0:
            raise ValueError(f"sigma_gap must be nonnegative: {self.sigma_gap}")

    @property
    def degenerate(self) -> bool:
        """The top singular pair is basis-ambiguous: gap below DEGENERATE_SIGMA_GAP."""
        return self.sigma_gap < DEGENERATE_SIGMA_GAP


def top_singular_alignment(buffers: dict, pairs, step: int) -> list[AlignmentRecord]:
    """One sampled step's records, in the order of `pairs`.

    `buffers` maps names to matrices; `pairs` holds (pair_id, name_a, name_b)
    triples over same-shaped matrices. A pair naming a matrix that is not in
    `buffers` is skipped.
    """
    live = [(pair_id, a, b) for pair_id, a, b in pairs if a in buffers and b in buffers]
    by_shape: dict = {}  # shape -> {name: None}, the paired buffers in first-use order
    for _, a, b in live:
        shape_a, shape_b = np.shape(buffers[a]), np.shape(buffers[b])
        if shape_a != shape_b:
            raise ValueError(f"alignment needs equal shapes, got {shape_a} vs {shape_b}")
        by_shape.setdefault(shape_a, {}).update({a: None, b: None})
    tops = {}  # name -> (u_1, v_1, sigma_1 - sigma_2)
    for (m, n), names in by_shape.items():
        per_call = max(1, STACK_BYTES // (8 * m * n))
        names = list(names)
        for lo in range(0, len(names), per_call):
            tops.update(_tops(buffers, names[lo : lo + per_call]))
    records = []
    for pair_id, a, b in live:
        (ua, va, gap_a), (ub, vb, gap_b) = tops[a], tops[b]
        left = float(abs(np.dot(ua, ub)))
        right = float(abs(np.dot(va, vb)))
        records.append(AlignmentRecord(step, pair_id, left, right, min(gap_a, gap_b)))
    return records


def _tops(buffers: dict, names: list) -> dict:
    """name -> (u_1, v_1, sigma_1 - sigma_2) of each named same-shaped buffer,
    from one `svd` call on their stack."""
    u, s, vh = svd(np.stack([buffers[name] for name in names]))
    # u_1 is read out of a copy of U's first two columns, so it keeps the
    # non-unit stride of the view u[b, :, 0] (unit only when U has one
    # column): OpenBLAS's ddot takes its SIMD kernel only when both strides
    # are 1 and one scalar loop for any other, and a contiguous u_1 would
    # move left_align's last bits
    u1, v1 = u[:, :, :2].copy(), vh[:, 0].copy()
    gaps = s[:, 0] - s[:, 1] if s.shape[1] > 1 else s[:, 0]
    return {name: (u1[i, :, 0], v1[i], float(gaps[i])) for i, name in enumerate(names)}


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

