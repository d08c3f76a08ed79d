"""Q-Digest core parity + property tests.

Re-derives the reference's test strategy as *asserted* properties
(SURVEY.md §5): the unit micro-fixtures of
serial-implementation/src/test_qcore.c, the distribution-level accuracy runs
of serial-implementation/src/test.c (Poisson-like / geometric / uniform,
seed=377), and the north-rule properties (shuffle-, partition- and
merge-order-invariance within the eps*n rank bound, eps = log2(sigma)/k).
"""

import random

import numpy as np
import pytest

from q_digest_ray.sketches.qdigest import QDigest, log2_ceil


def rank_error(sorted_vals: np.ndarray, estimate: int, p: float) -> float:
    """|rank(estimate) - p*n| in the exact data."""
    n = len(sorted_vals)
    lo = np.searchsorted(sorted_vals, estimate, side="left")
    hi = np.searchsorted(sorted_vals, estimate, side="right")
    target = p * n
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target))


P_GRID = [0.01, 0.02, 0.03, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95]


def assert_within_bound(q: QDigest, vals: np.ndarray, slack: float = 1.0):
    sv = np.sort(vals)
    n = len(sv)
    eps = log2_ceil(q.upper_bound + 1) / q.k
    for p in P_GRID:
        est = q.quantile(p)
        err = rank_error(sv, est, p)
        assert err <= slack * eps * n + 1, (p, est, err, eps * n)


# ---------------------------------------------------------------------------
# micro-fixtures (test_qcore.c semantics)
# ---------------------------------------------------------------------------


def test_log2_ceil_matches_reference():
    # src/qcore.c:17-29 / test_qcore.c:22-31
    assert log2_ceil(0) == 0
    assert log2_ceil(1) == 0
    assert log2_ceil(2) == 1
    assert log2_ceil(3) == 2
    assert log2_ceil(4) == 2
    assert log2_ceil(5) == 3
    assert log2_ceil(1024) == 10
    assert log2_ceil(1025) == 11


def test_insert_and_percentile_smoke():
    # test_qcore.c:58-68: {5,7,3} in [0,15], K=5 → p50 = 3
    q = QDigest(k=5, universe_bits=4)
    for v in (5, 7, 3):
        q.update(v)
    assert q.n == 3
    assert q.quantile(0.5) == 3


def test_merge_micro():
    # test_qcore.c:106-119: {1,3} ∪ {2,4}, K=5, universe [0,7] → N=4
    a = QDigest(k=5, universe_bits=3)
    a.update_batch(np.array([1, 3]))
    b = QDigest(k=5, universe_bits=3)
    b.update_batch(np.array([2, 4]))
    a.merge(b)
    assert a.n == 4
    assert a.num_buckets == 4  # all four leaves survive (gate = 30)
    assert a.quantile(0.25) == 1
    assert a.quantile(1.0) == 4


def test_compress_bounds_size():
    # test_qcore.c:97-103: K=1, inserting 0..9 triggers compression
    q = QDigest(k=1, universe_bits=4)
    for v in range(10):
        q.update(v)
    assert q.n == 10
    # paper bound: <= 3k buckets after compression settles (with slack for
    # the 6k amortization gate)
    assert q.num_buckets <= 6


def test_universe_expansion():
    # test_qcore.c:85-94 (plus the fixed pow-2 case of src/qcore.c:203-207)
    q = QDigest(k=20, universe_bits=2)
    q.update_batch(np.array([1, 3]))
    assert q.universe_bits == 2
    q.update(7)
    assert q.universe_bits == 3
    q.update(8)  # the C code would mis-place 8 at leaf 7; we expand to [0,15]
    assert q.universe_bits == 4
    assert q.quantile(1.0) == 8


def test_weighted_insert():
    q = QDigest(k=50, universe_bits=8)
    q.update_batch(np.array([10, 20]), weights=np.array([100, 300]))
    assert q.n == 400
    assert q.quantile(0.2) == 10
    assert q.quantile(0.9) == 20


def test_serde_roundtrip_binary_and_text():
    rng = np.random.default_rng(7)
    q = QDigest(k=20, universe_bits=12)
    q.update_batch(rng.integers(0, 4096, 10_000))
    for codec in (lambda s: QDigest.from_bytes(s.to_bytes()),
                  lambda s: QDigest.from_text(s.to_text())):
        q2 = codec(q)
        assert q2.n == q.n
        assert q2.k == q.k
        assert q2.num_buckets == q.num_buckets
        assert [q2.quantile(p) for p in P_GRID] == [q.quantile(p) for p in P_GRID]


def test_text_codec_reference_format():
    # header "N K root_lb root_ub", node lines "lb ub count"
    # (src/qcore.c:450-463)
    q = QDigest(k=5, universe_bits=2)
    q.update_batch(np.array([2, 2, 3]))
    lines = q.to_text().strip().split("\n")
    assert lines[0] == "3 5 0 3"
    assert set(lines[1:]) == {"2 2 2", "3 3 1"}


def test_empty_sketch():
    q = QDigest(k=10, universe_bits=8)
    assert q.n == 0
    assert q.quantile(0.5) == 0
    q2 = QDigest.from_bytes(q.to_bytes())
    assert q2.n == 0
    q.merge(q2)
    assert q.n == 0


def test_rejects_negative():
    q = QDigest(k=10, universe_bits=8)
    with pytest.raises(ValueError):
        q.update_batch(np.array([-1, 3]))


# ---------------------------------------------------------------------------
# distribution-level accuracy (test.c:45-206, asserted instead of printed)
# ---------------------------------------------------------------------------


def _poissonish(n: int) -> np.ndarray:
    # ramp-up/ramp-down repeat counts (test.c:45-68): value v appears
    # min(v, width - v) + 1 times over a symmetric triangle.
    out = []
    v = 0
    while sum(len(o) for o in out) < n if out else True:
        width = 200
        reps = min(v % width, width - (v % width)) + 1
        out.append(np.full(reps, v))
        v += 1
        if sum(map(len, out)) >= n:
            break
    return np.concatenate(out)[:n]


def _geometric(n: int) -> np.ndarray:
    # value v repeated 2**(v-1) times until n values (test.c:108-113)
    out = []
    v = 1
    total = 0
    while total < n:
        reps = min(1 << (v - 1), n - total)
        out.append(np.full(reps, v))
        total += reps
        v += 1
    return np.concatenate(out)


@pytest.mark.parametrize(
    "name,gen",
    [
        ("poissonish", _poissonish),
        ("geometric", _geometric),
        ("uniform", lambda n: np.random.default_rng(377).integers(0, n, n)),
    ],
)
def test_reference_scale_accuracy(name, gen):
    """The reference's largest exercised workload: n = 2,000,000 inserts,
    K = 20, seed = 377 (serial-implementation/src/test.c:211-213), with the
    printed comparisons turned into asserted eps*n bounds."""
    n = 2_000_000
    vals = gen(n)
    rng = np.random.default_rng(377)
    shuffled = rng.permutation(vals)
    q = QDigest(k=20, universe_bits=max(1, int(vals.max()).bit_length()))
    for chunk in np.array_split(shuffled, 31):
        q.update_batch(chunk)
    assert q.n == n
    assert_within_bound(q, vals)
    assert q.num_buckets <= 6 * q.k + 64
    assert q.compression_ratio < 0.001


@pytest.mark.parametrize(
    "name,gen",
    [
        ("poissonish", _poissonish),
        ("geometric", _geometric),
        ("uniform", lambda n: np.random.default_rng(377).integers(0, n, n)),
    ],
)
def test_distribution_accuracy(name, gen):
    n = 100_000
    vals = gen(n)
    rng = np.random.default_rng(377)
    shuffled = rng.permutation(vals)  # insertion order immaterial (test.c:79)
    q = QDigest(k=20, universe_bits=max(1, int(vals.max()).bit_length()))
    for chunk in np.array_split(shuffled, 7):
        q.update_batch(chunk)
    assert q.n == n
    assert_within_bound(q, vals)
    # size bound: O(k) buckets regardless of n
    assert q.num_buckets <= 6 * q.k + 64


# ---------------------------------------------------------------------------
# north-rule merge properties
# ---------------------------------------------------------------------------


def _partition_sketches(vals, num_parts, k=50):
    bits = max(1, int(vals.max()).bit_length())
    out = []
    for part in np.array_split(vals, num_parts):
        s = QDigest(k=k, universe_bits=bits)
        s.update_batch(part)
        out.append(s)
    return out


def test_partition_invariance():
    rng = np.random.default_rng(42)
    vals = rng.integers(0, 1 << 16, 80_000)
    sv = np.sort(vals)
    eps = 16 / 50
    for parts in (1, 4, 16):
        sketches = _partition_sketches(vals, parts)
        acc = sketches[0]
        for s in sketches[1:]:
            acc.merge(s)
        assert acc.n == len(vals)
        for p in (0.5, 0.9, 0.99):
            assert rank_error(sv, acc.quantile(p), p) <= eps * len(vals)


def test_merge_order_invariance_within_bound():
    # north rule: permute partition merge order over >= 16 partition sketches
    rng = np.random.default_rng(42)
    vals = rng.integers(0, 1 << 16, 80_000)
    sv = np.sort(vals)
    eps = 16 / 50
    blobs = [s.to_bytes() for s in _partition_sketches(vals, 16)]
    random.seed(99)
    for _ in range(5):
        order = list(range(16))
        random.shuffle(order)
        acc = QDigest.from_bytes(blobs[order[0]])
        for i in order[1:]:
            acc.merge(QDigest.from_bytes(blobs[i]))
        assert acc.n == len(vals)
        for p in (0.5, 0.9, 0.99):
            assert rank_error(sv, acc.quantile(p), p) <= eps * len(vals)


def test_tree_fold_equals_sequential_within_bound():
    rng = np.random.default_rng(13)
    vals = rng.integers(0, 1 << 14, 60_000)
    sv = np.sort(vals)
    eps = 14 / 50
    blobs = [s.to_bytes() for s in _partition_sketches(vals, 16)]
    # pairwise tree fold (the shape the distributed global merge uses)
    layer = [QDigest.from_bytes(b) for b in blobs]
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i].merge(layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    acc = layer[0]
    assert acc.n == len(vals)
    for p in (0.5, 0.9, 0.99):
        assert rank_error(sv, acc.quantile(p), p) <= eps * len(vals)


def test_merge_mixed_universes():
    a = QDigest(k=20, universe_bits=4)
    a.update_batch(np.array([1, 5, 9]))
    b = QDigest(k=20, universe_bits=10)
    b.update_batch(np.array([100, 900]))
    a.merge(b)
    assert a.universe_bits == 10
    assert a.n == 5
    assert a.quantile(1.0) >= 900
    assert a.quantile(0.2) == 1


def test_rejects_negative_weights():
    q = QDigest(k=10, universe_bits=8)
    with pytest.raises(ValueError, match="non-negative"):
        q.update_batch(np.array([1, 2]), weights=np.array([3, -1]))


# ---------------------------------------------------------------------------
# one-pass merge_many
# ---------------------------------------------------------------------------


def _pairwise(sketches) -> QDigest:
    acc = QDigest.from_bytes(sketches[0].to_bytes())
    for s in sketches[1:]:
        acc.merge(s)
    return acc


def test_merge_many_exact_n_and_rank_bound():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 1 << 16, 80_000)
    sketches = _partition_sketches(vals, 16)
    merged = QDigest.merge_many(sketches)
    assert merged.n == len(vals)
    assert merged.num_buckets < 6 * merged.k  # the gated compress ran
    assert_within_bound(merged, vals)


def test_merge_many_mutates_no_input():
    rng = np.random.default_rng(8)
    sketches = _partition_sketches(rng.integers(0, 1 << 12, 20_000), 8)
    before = [s.to_bytes() for s in sketches]
    QDigest.merge_many(sketches)
    assert [s.to_bytes() for s in sketches] == before


def test_merge_many_mixed_k_and_universe():
    rng = np.random.default_rng(9)
    parts, vals = [], []
    for k, bits in ((20, 4), (40, 10), (30, 16), (40, 10)):
        v = rng.integers(0, 1 << bits, 3_000)
        s = QDigest(k=k, universe_bits=bits)
        s.update_batch(v)
        parts.append(s)
        vals.append(v)
    merged = QDigest.merge_many(parts)
    assert (merged.k, merged.universe_bits) == (40, 16)
    assert merged.n == 12_000
    assert_within_bound(merged, np.concatenate(vals))


def test_merge_many_equals_pairwise_without_compress():
    rng = np.random.default_rng(10)
    parts = []
    for bits in (6, 12, 9, 12):
        s = QDigest(k=200, universe_bits=bits)
        s.update_batch(rng.integers(0, 1 << bits, 40))
        parts.append(s)
    merged = QDigest.merge_many(parts)
    assert merged.num_buckets < 6 * merged.k  # below the compress gate
    for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
        assert merged.to_bytes() == _pairwise([parts[i] for i in order]).to_bytes()


def test_merge_many_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        QDigest.merge_many([])
