"""Hypothesis property tests over the sketch protocol, plus the fold merge
against a driver-side combine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q_digest_ray.sketches import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    KLL,
    QDigest,
    TDigest,
)
from q_digest_ray.sketches.qdigest import log2_ceil

values_lists = st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=400)


@settings(max_examples=50, deadline=None)
@given(values_lists, st.integers(min_value=1, max_value=64))
def test_qdigest_invariants(vals, k):
    arr = np.array(vals, dtype=np.int64)
    q = QDigest(k=k, universe_bits=16)
    q.update_batch(arr)
    assert q.n == len(vals)
    # size bound: O(k) after compression settles (slack for the 6k gate and
    # the one-pass semantics)
    assert q.num_buckets <= max(6 * k + 64, len(np.unique(arr)) + 1)
    # serde fixpoint
    q2 = QDigest.from_bytes(q.to_bytes())
    assert q2.to_bytes() == q.to_bytes()
    # rank bound at p=0.5
    sv = np.sort(arr)
    est = q.quantile(0.5)
    lo = np.searchsorted(sv, est, "left")
    hi = np.searchsorted(sv, est, "right")
    eps = log2_ceil(q.upper_bound + 1) / q.k
    target = 0.5 * len(sv)
    err = 0 if lo <= target <= hi else min(abs(lo - target), abs(hi - target))
    assert err <= eps * len(sv) + 1


@settings(max_examples=30, deadline=None)
@given(values_lists, values_lists)
def test_qdigest_merge_commutes_on_n(a, b):
    arr_a, arr_b = np.array(a), np.array(b)
    qa1, qb1 = QDigest(k=16, universe_bits=16), QDigest(k=16, universe_bits=16)
    qa1.update_batch(arr_a)
    qb1.update_batch(arr_b)
    qa2, qb2 = QDigest.from_bytes(qa1.to_bytes()), QDigest.from_bytes(qb1.to_bytes())
    ab = qa1.merge(qb1)
    ba = qb2.merge(qa2)
    assert ab.n == ba.n == len(a) + len(b)
    # both within bound of exact median of the union
    sv = np.sort(np.concatenate([arr_a, arr_b]))
    eps = 16 / 16
    for m in (ab, ba):
        est = m.quantile(0.5)
        lo = np.searchsorted(sv, est, "left")
        hi = np.searchsorted(sv, est, "right")
        t = 0.5 * len(sv)
        err = 0 if lo <= t <= hi else min(abs(lo - t), abs(hi - t))
        assert err <= eps * len(sv) + 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
def test_hll_bloom_cms_protocol(vals):
    arr = np.array(vals, dtype=np.int64)
    h = HyperLogLog(p=10)
    h.update_batch(arr)
    assert HyperLogLog.from_bytes(h.to_bytes()).estimate() == h.estimate()
    b = BloomFilter(num_bits=1 << 14, num_hashes=5)
    b.update_batch(arr)
    assert b.contains(arr).all()  # no false negatives, ever
    c = CountMinSketch(depth=4, width=512)
    c.update_batch(arr)
    uniq, cnt = np.unique(arr, return_counts=True)
    assert (c.query(uniq) >= cnt).all()  # never undercounts, ever


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=400))
def test_tdigest_kll_monotone(vals):
    arr = np.array(vals)
    for s in (TDigest(delta=100), KLL(k=64)):
        s.update_batch(arr)
        qs = [s.quantile(p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert qs == sorted(qs)  # quantile function is monotone
        assert min(arr) <= qs[0] and qs[-1] <= max(arr)


def test_fold_merge_equals_driver_combine(ray_session):
    """merge_grouped's fold and one driver-side combine_sketch_rows over the
    concatenated build rows agree on groups and n; HLL estimates match
    exactly (register max is order-free), q-digest quantiles both meet the
    eps*n rank bound (its compress depends on merge order)."""
    import pyarrow as pa
    import ray.data

    from q_digest_ray.sketches.base import sketch_from_bytes
    from q_digest_ray.stages.build import SketchSpec, build_sketches
    from q_digest_ray.stages.merge import collect_sketches, combine_sketch_rows, merge_grouped

    rng = np.random.default_rng(5)
    hosts = np.array([f"h{i % 37}" for i in range(20_000)])
    vals = rng.integers(0, 1 << 10, 20_000)
    t = pa.table({"host": pa.array(hosts), "v": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(8)
    specs = [
        SketchSpec("q", "v", "qdigest", {"k": 64, "universe_bits": 10}, group_by="host"),
        SketchSpec("h", "v", "hll", {"p": 10}, group_by="host"),
    ]
    rows = build_sketches(ds, specs, batch_size=1024).materialize()
    fold = collect_sketches(merge_grouped(rows))
    combined = combine_sketch_rows(pa.concat_tables(ray.get(rows.to_arrow_refs())))
    direct = {
        (m, g): sketch_from_bytes(k, p)
        for m, k, g, p in zip(*(combined[c].to_pylist() for c in ("metric", "sketch", "group_key", "payload")))
    }
    assert set(fold) == set(direct) and len(fold) == 2 * 37
    eps = 10 / 64
    for (metric, host), sk in fold.items():
        assert sk.n == direct[(metric, host)].n == int((hosts == host).sum())
        if metric == "h":
            assert sk.estimate() == direct[(metric, host)].estimate()
            continue
        sv = np.sort(vals[hosts == host])
        for p in (0.1, 0.5, 0.9, 0.99):
            for est in (sk.quantile(p), direct[(metric, host)].quantile(p)):
                rank = np.searchsorted(sv, est, side="right")
                assert abs(rank - p * len(sv)) <= eps * len(sv) + 1
