import numpy as np
import pytest

from teon.diagnostics import (
    AlignmentRecord,
    default_alignment_pairs,
    stable_rank,
    top_singular_alignment,
    track_run,
)
from teon.norms import build_max_gain_tensor
from teon.optim import LayoutEntry
from teon.ortho import ortho_exact


def _rotation(n, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return q


def test_identical_matrices_align_fully():
    a = np.diag([3.0, 1.0])
    rec = top_singular_alignment(a, a, step=7, pair_id="self")
    assert rec.left_align == pytest.approx(1.0, abs=1e-12)
    assert rec.right_align == pytest.approx(1.0, abs=1e-12)
    assert rec.sigma_gap == pytest.approx(2.0, abs=1e-12)
    assert not rec.degenerate
    assert rec.csv_row().startswith("7,self,")


def test_shared_left_orthogonal_right():
    u = np.array([1.0, 0.0, 0.0])
    v1 = np.array([0.0, 1.0, 0.0, 0.0])
    v2 = np.array([0.0, 0.0, 1.0, 0.0])
    rec = top_singular_alignment(np.outer(u, v1), np.outer(u, v2))
    assert rec.left_align == pytest.approx(1.0, abs=1e-12)
    assert rec.right_align == pytest.approx(0.0, abs=1e-12)
    assert not rec.degenerate  # rank-1: sigma gap equals sigma_1


@pytest.mark.parametrize("mode,shared", [(2, "right"), (1, "left")])
def test_max_gain_slices_align_on_shared_side_only(mode, shared):
    t = build_max_gain_tensor(6, 6, 4, mode=mode, seed=0)
    for i in range(4):
        for j in range(i + 1, 4):
            rec = top_singular_alignment(t[:, :, i], t[:, :, j])
            hot, cold = (
                (rec.right_align, rec.left_align)
                if shared == "right"
                else (rec.left_align, rec.right_align)
            )
            assert hot == pytest.approx(1.0, abs=1e-10)
            assert cold <= 1e-8


def test_alignment_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        r1 = top_singular_alignment(a, b)
        r2 = top_singular_alignment(b, a)
        assert abs(r1.left_align - r2.left_align) <= 1e-12
        assert abs(r1.right_align - r2.right_align) <= 1e-12
        assert abs(r1.sigma_gap - r2.sigma_gap) <= 1e-12


def test_alignment_rotation_invariance():
    rng = np.random.default_rng(2)
    for trial in range(50):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        base = top_singular_alignment(a, b)
        if base.degenerate:
            continue
        q1 = _rotation(4, 100 + trial)
        q2 = _rotation(4, 200 + trial)
        left_rotated = top_singular_alignment(q1 @ a, q2 @ b)
        assert abs(left_rotated.right_align - base.right_align) <= 1e-10
        right_rotated = top_singular_alignment(a @ q1, b @ q2)
        assert abs(right_rotated.left_align - base.left_align) <= 1e-10


def test_alignment_shape_error_and_record_validation():
    with pytest.raises(ValueError):
        top_singular_alignment(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        AlignmentRecord(0, "p", 1.5, 0.0, 0.0, False)
    with pytest.raises(ValueError):
        AlignmentRecord(0, "p", 0.0, 0.0, -1.0, False)


def test_degenerate_gap_flagged():
    rec = top_singular_alignment(np.eye(3), np.eye(3))
    assert rec.degenerate
    assert rec.sigma_gap <= 1e-12


def test_stable_rank():
    assert stable_rank(np.outer([1.0, 2.0], [3.0, 4.0, 5.0])) == pytest.approx(1.0, abs=1e-12)
    assert stable_rank(np.eye(7)) == pytest.approx(7.0, abs=1e-12)
    with pytest.raises(ValueError):
        stable_rank(np.zeros((3, 3)))
    a = np.random.default_rng(3).standard_normal((6, 6))
    assert stable_rank(ortho_exact(a)) == pytest.approx(6.0, abs=1e-8)


def test_default_alignment_pairs_counts():
    layout = []
    for b in range(3):
        for role in ("Q", "K", "V", "O"):
            layout.append(LayoutEntry(f"b{b}.{role.lower()}", role, (8, 8), b))
        layout.append(LayoutEntry(f"b{b}.mlp1", "MLP1", (16, 8), b))
        layout.append(LayoutEntry(f"b{b}.mlp2", "MLP2", (8, 16), b))
    layout.append(LayoutEntry("bias", "bias", (8,), None))
    pairs = default_alignment_pairs(layout)
    # 6 roles x 2 consecutive pairs + 3 blocks x {QK, KV, QV}
    assert len(pairs) == 12 + 9
    assert ("Q0-Q1", "b0.q", "b1.q") in pairs
    assert ("Q1-K1", "b1.q", "b1.k") in pairs
    ids = [p[0] for p in pairs]
    assert len(ids) == len(set(ids))


def test_track_run_sampling_and_alignment():
    t = build_max_gain_tensor(5, 5, 2, mode=2, seed=4)
    buffers = {"w0": t[:, :, 0], "w1": t[:, :, 1]}
    snapshots = [(s, buffers) for s in range(1, 11)]
    pairs = [("W0-W1", "w0", "w1")]
    records = list(track_run(snapshots, pairs, every=3))
    assert [r.step for r in records] == [3, 6, 9]
    assert all(r.pair_id == "W0-W1" for r in records)
    assert all(r.right_align == pytest.approx(1.0, abs=1e-10) for r in records)
    assert all(r.left_align <= 1e-8 for r in records)


def test_track_run_edge_cases():
    snapshots = [(s, {"a": np.eye(2), "b": np.eye(2)}) for s in range(1, 5)]
    assert list(track_run(snapshots, [], every=1)) == []
    assert list(track_run(snapshots, [("ab", "a", "b")], every=100)) == []
    with pytest.raises(ValueError):
        list(track_run(snapshots, [], every=0))
    bad = [(1, {"a": np.eye(2), "b": np.eye(3)})]
    with pytest.raises(ValueError):
        list(track_run(bad, [("ab", "a", "b")], every=1))


# ------------------------------------------------------------ per-step memo


def test_memo_gives_bit_identical_records():
    rng = np.random.default_rng(21)
    a, b, c = (rng.standard_normal((7, 5)) for _ in range(3))
    memo = {}
    for x, y in ((a, b), (b, c), (a, c), (c, c)):
        plain = top_singular_alignment(x, y, step=3, pair_id="p")
        assert top_singular_alignment(x, y, step=3, pair_id="p", memo=memo) == plain
    assert len(memo) == 3


def test_memo_misses_on_a_new_object_under_a_known_id():
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    fresh = rng.standard_normal((4, 4))
    # an entry left under fresh's id by some other (dead) object must be ignored
    memo = {id(fresh): (a, (np.ones(4) / 2, np.ones(4) / 2, 1.0))}
    got = top_singular_alignment(fresh, b, memo=memo)
    assert got == top_singular_alignment(fresh, b)


def test_track_run_decomposes_each_buffer_once_per_sampled_step(monkeypatch):
    import teon.diagnostics as diag

    calls = []
    original = diag.svd
    monkeypatch.setattr(diag, "svd", lambda x: calls.append(1) or original(x))
    rng = np.random.default_rng(24)
    names = ("w0", "w1", "w2")
    snapshots = [
        (s, {nm: rng.standard_normal((5, 4)) for nm in names}) for s in range(1, 5)
    ]
    pairs = [("a", "w0", "w1"), ("b", "w1", "w2"), ("c", "w0", "w2")]
    records = list(track_run(snapshots, pairs, every=2))
    assert len(calls) == 2 * len(names)
    expected = [
        top_singular_alignment(bufs[x], bufs[y], step=s, pair_id=pid)
        for s, bufs in snapshots
        if s % 2 == 0
        for pid, x, y in pairs
    ]
    assert records == expected
    assert records[0] != records[3]  # step 2 and step 4 see different buffers
