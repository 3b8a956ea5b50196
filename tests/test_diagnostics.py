import numpy as np
import pytest

from oracles import alignment_reference, track_run
from teon.diagnostics import (
    DEGENERATE_SIGMA_GAP,
    AlignmentRecord,
    default_alignment_pairs,
    top_singular_alignment,
)
from teon.norms import build_max_gain_tensor
from teon.optim import LayoutEntry
from teon.runner import csv_row


def _rotation(n, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return q


def _align(a, b, step=0, pair_id=""):
    """The record of the one pair (a, b), from a per-step call."""
    (rec,) = top_singular_alignment({"a": a, "b": b}, [(pair_id, "a", "b")], step)
    return rec


def test_identical_matrices_align_fully():
    a = np.diag([3.0, 1.0])
    rec = _align(a, a, step=7, pair_id="self")
    assert rec.left_align == pytest.approx(1.0, abs=1e-12)
    assert rec.right_align == pytest.approx(1.0, abs=1e-12)
    assert rec.sigma_gap == pytest.approx(2.0, abs=1e-12)
    assert not rec.degenerate
    assert csv_row(rec).startswith("7,self,")


def test_shared_left_orthogonal_right():
    u = np.array([1.0, 0.0, 0.0])
    v1 = np.array([0.0, 1.0, 0.0, 0.0])
    v2 = np.array([0.0, 0.0, 1.0, 0.0])
    rec = _align(np.outer(u, v1), np.outer(u, v2))
    assert rec.left_align == pytest.approx(1.0, abs=1e-12)
    assert rec.right_align == pytest.approx(0.0, abs=1e-12)
    assert not rec.degenerate  # rank-1: sigma gap equals sigma_1


@pytest.mark.parametrize("mode,shared", [(2, "right"), (1, "left")])
def test_max_gain_slices_align_on_shared_side_only(mode, shared):
    t = build_max_gain_tensor(6, 6, 4, mode=mode, seed=0)
    for i in range(4):
        for j in range(i + 1, 4):
            rec = _align(t[i], t[j])
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
        r1 = _align(a, b)
        r2 = _align(b, a)
        assert abs(r1.left_align - r2.left_align) <= 1e-12
        assert abs(r1.right_align - r2.right_align) <= 1e-12
        assert abs(r1.sigma_gap - r2.sigma_gap) <= 1e-12


def test_alignment_rotation_invariance():
    rng = np.random.default_rng(2)
    for trial in range(50):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        base = _align(a, b)
        if base.degenerate:
            continue
        q1 = _rotation(4, 100 + trial)
        q2 = _rotation(4, 200 + trial)
        left_rotated = _align(q1 @ a, q2 @ b)
        assert abs(left_rotated.right_align - base.right_align) <= 1e-10
        right_rotated = _align(a @ q1, b @ q2)
        assert abs(right_rotated.left_align - base.left_align) <= 1e-10


def test_alignment_shape_error_and_record_validation():
    with pytest.raises(ValueError, match="equal shapes"):
        _align(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        AlignmentRecord(0, "p", 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        AlignmentRecord(0, "p", 0.0, 0.0, -1.0)


@pytest.mark.parametrize(
    "gap,degenerate",
    [(0.0, True), (DEGENERATE_SIGMA_GAP / 2, True), (DEGENERATE_SIGMA_GAP, False), (1.0, False)],
)
def test_degenerate_follows_sigma_gap(gap, degenerate):
    assert AlignmentRecord(3, "p", 0.5, 0.5, gap).degenerate is degenerate


def test_degenerate_gap_flagged():
    rec = _align(np.eye(3), np.eye(3))
    assert rec.degenerate
    assert rec.sigma_gap <= 1e-12


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
    buffers = {"w0": t[0], "w1": t[1]}
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
    bad = [(1, {"a": np.eye(2), "b": np.eye(3)})]
    with pytest.raises(ValueError):
        list(track_run(bad, [("ab", "a", "b")], every=1))


# ---------------------------------------------------------- per-step call


def test_records_match_the_reference_bitwise_in_pair_order():
    rng = np.random.default_rng(21)
    buffers = {nm: rng.standard_normal((7, 5)) for nm in ("a", "b", "c")}
    buffers["d"] = rng.standard_normal((1, 5))  # a single singular value
    # a and c sit in several pairs; "gone" is not among the buffers
    pairs = [
        ("ab", "a", "b"), ("bc", "b", "c"), ("x", "a", "gone"), ("ac", "a", "c"),
        ("cc", "c", "c"), ("dd", "d", "d"), ("y", "gone", "c"),
    ]
    records = top_singular_alignment(buffers, pairs, step=3)
    assert [r.pair_id for r in records] == ["ab", "bc", "ac", "cc", "dd"]
    for rec, (pid, x, y) in zip(records, (p for p in pairs if "gone" not in p)):
        assert rec == AlignmentRecord(3, pid, *alignment_reference(buffers[x], buffers[y]))


def test_batched_records_match_the_reference_bitwise_over_mixed_shapes():
    rng = np.random.default_rng(22)
    shapes = {"t": (9, 4), "w": (3, 8), "r": (1, 6), "c": (6, 1), "s": (16, 16)}
    buffers = {
        f"{p}{i}": rng.standard_normal(shape) for p, shape in shapes.items() for i in range(3)
    }
    buffers["s3"] = buffers["s0"] * 2.0  # equal directions: alignment exactly 1
    pairs = [
        (f"{p}{i}-{p}{j}", f"{p}{i}", f"{p}{j}")
        for p in shapes
        for i, j in ((0, 1), (1, 2), (2, 0), (1, 1))
    ]
    pairs.append(("s0-s3", "s0", "s3"))
    rng.shuffle(pairs)  # first use interleaves the shapes
    records = top_singular_alignment(buffers, pairs, step=5)
    assert records == [
        AlignmentRecord(5, pid, *alignment_reference(buffers[a], buffers[b]))
        for pid, a, b in pairs
    ]


def _counting_svd(monkeypatch):
    """The arguments of every `svd` call the diagnostics make."""
    import teon.diagnostics as diag

    seen = []
    original = diag.svd
    monkeypatch.setattr(diag, "svd", lambda x: seen.append(x) or original(x))
    return seen


def _decomposed(seen):
    """Every matrix the recorded calls decomposed, one per stacked slice."""
    assert all(np.ndim(x) == 3 for x in seen)
    return [a for x in seen for a in x]


def test_one_call_decomposes_each_paired_buffer_once(monkeypatch):
    # exactly once per sampled step, in one call per shape
    seen = _counting_svd(monkeypatch)
    rng = np.random.default_rng(24)
    buffers = {nm: rng.standard_normal((5, 4)) for nm in ("w0", "w1", "w2", "unpaired")}
    buffers.update({nm: rng.standard_normal((3, 6)) for nm in ("x0", "x1")})
    pairs = [
        ("a", "w0", "w1"), ("x", "x0", "x1"), ("b", "w1", "w2"), ("c", "w0", "w2"),
        ("d", "w0", "gone"), ("e", "x1", "x0"),
    ]
    assert len(top_singular_alignment(buffers, pairs, step=2)) == 5
    assert [x.shape for x in seen] == [(3, 5, 4), (2, 3, 6)]
    paired = ("w0", "w1", "w2", "x0", "x1")
    assert [a.tobytes() for a in _decomposed(seen)] == [buffers[nm].tobytes() for nm in paired]


def test_track_run_decomposes_each_buffer_once_per_sampled_step(monkeypatch):
    # exactly once per sampled step, in one call per shape
    seen = _counting_svd(monkeypatch)
    rng = np.random.default_rng(24)
    names = ("w0", "w1", "w2")
    snapshots = [
        (s, {nm: rng.standard_normal((5, 4)) for nm in names}) for s in range(1, 5)
    ]
    pairs = [("a", "w0", "w1"), ("b", "w1", "w2"), ("c", "w0", "w2")]
    records = list(track_run(snapshots, pairs, every=2))
    assert [x.shape for x in seen] == [(len(names), 5, 4)] * 2
    assert [a.tobytes() for a in _decomposed(seen)] == [
        bufs[nm].tobytes() for s, bufs in snapshots if s % 2 == 0 for nm in names
    ]
    expected = [
        AlignmentRecord(s, pid, *alignment_reference(bufs[x], bufs[y]))
        for s, bufs in snapshots
        if s % 2 == 0
        for pid, x, y in pairs
    ]
    assert records == expected
    assert records[0] != records[3]  # step 2 and step 4 see different buffers
