"""Count-Sketch / AMS tug-of-war (r5): F2 + point + inner-product bounds,
exact linear merges, turnstile deletions, serde, builder integration."""

import numpy as np
import pyarrow as pa
import pytest

from q_digest_ray.sketches.countsketch import CountSketch


def _zipf(n=100_000, a=1.3, seed=377):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.zipf(a, n).astype(np.int64)


def _exact_f2(vals: np.ndarray) -> int:
    _u, c = np.unique(vals, return_counts=True)
    return int(sum(int(x) * int(x) for x in c))


def test_f2_estimate_within_bound():
    vals = _zipf()
    sk = CountSketch(depth=5, width=1024)
    sk.update_batch(vals)
    exact = _exact_f2(vals)
    rel = abs(sk.f2_estimate() - exact) / exact
    # per-row rel std-error ~= sqrt(2/width) = 4.4%; median of 5 rows,
    # generous 4x margin on a fixed seed
    assert rel <= 4 * np.sqrt(2.0 / sk.width), rel


def test_point_query_two_sided_bound():
    vals = _zipf(seed=11)
    sk = CountSketch(depth=5, width=1024)
    sk.update_batch(vals)
    u, c = np.unique(vals, return_counts=True)
    top = np.argsort(c)[-20:]
    est = sk.query(u[top])
    err = est - c[top]
    f2 = _exact_f2(vals)
    assert np.abs(err).max() <= 4 * np.sqrt(f2 / sk.width)
    # two-sided: unlike CMS, under-estimates happen across the key set
    all_est = sk.query(u)
    assert (all_est < c).any() and (all_est > c).any()


def test_merge_is_exact_linear():
    vals = _zipf(seed=5)
    whole = CountSketch(depth=5, width=512)
    whole.update_batch(vals)
    acc = CountSketch(depth=5, width=512)
    for part in np.array_split(vals, 7)[::-1]:
        p = CountSketch(depth=5, width=512)
        p.update_batch(part)
        acc.merge(p)
    assert np.array_equal(acc.table, whole.table)
    assert acc.n == whole.n


def test_turnstile_deletion_cancels_exactly():
    vals = np.array([7, 7, 9, 123456, 9, 9], dtype=np.int64)
    sk = CountSketch(depth=3, width=64)
    sk.update_batch(vals)
    sk.update_batch(vals, weights=np.full(len(vals), -1, dtype=np.int64))
    assert not sk.table.any()  # linear sketch: inserts minus deletes == empty
    assert sk.f2_estimate() == 0


def test_inner_product_join_size():
    rng = np.random.Generator(np.random.PCG64(3))
    a_vals = rng.zipf(1.5, 50_000).astype(np.int64)
    b_vals = rng.zipf(1.5, 50_000).astype(np.int64)
    a = CountSketch(depth=5, width=1024)
    b = CountSketch(depth=5, width=1024)
    a.update_batch(a_vals)
    b.update_batch(b_vals)
    ua, ca = np.unique(a_vals, return_counts=True)
    ub, cb = np.unique(b_vals, return_counts=True)
    common, ia, ib = np.intersect1d(ua, ub, return_indices=True)
    exact = int(sum(int(x) * int(y) for x, y in zip(ca[ia], cb[ib])))
    bound = 4 * np.sqrt(_exact_f2(a_vals) * _exact_f2(b_vals) / a.width)
    assert abs(a.inner_product(b) - exact) <= bound


def test_serde_round_trip_and_shape_guard():
    sk = CountSketch(depth=4, width=256)
    sk.update_batch(_zipf(n=5000, seed=9))
    back = CountSketch.from_bytes(sk.to_bytes())
    assert np.array_equal(back.table, sk.table)
    assert back.n == sk.n and back.depth == 4 and back.width == 256
    with pytest.raises(ValueError):
        sk.merge(CountSketch(depth=4, width=512))
    with pytest.raises(ValueError):
        sk.inner_product(CountSketch(depth=5, width=256))


def test_builder_integration_grouped():
    from q_digest_ray.sketches.base import sketch_from_bytes
    from q_digest_ray.stages.build import SketchBuilder, SketchSpec

    t = pa.table(
        {
            "user": pa.array([1, 1, 2, 3, 1, 2], pa.int64()),
            "lang": pa.array(["en", "en", "en", "de", "de", "de"]),
        }
    )
    rows = SketchBuilder(
        [SketchSpec("u_csk", "user", "csk", {"depth": 3, "width": 64}, group_by="lang")]
    )(t)
    assert rows.num_rows == 2
    merged = None
    for payload in rows["payload"].to_pylist():
        sk = sketch_from_bytes("csk", payload)
        merged = sk if merged is None else merged.merge(sk)
    whole = CountSketch(depth=3, width=64)
    whole.update_batch(np.array([1, 1, 2, 3, 1, 2], dtype=np.int64))
    assert np.array_equal(merged.table, whole.table)


def test_even_depth_median_rounds():
    """depth=4 averages the middle two rows: an x.5 median rounds to the
    nearest integer instead of truncating toward zero."""
    from q_digest_ray.functions.hashing import hash64

    sk = CountSketch(depth=4, width=64)
    key = np.array([7], dtype=np.int64)
    buckets, signs = sk._bucket_sign(hash64(key))
    for rows, want in (((1, 3, 4, 9), 4), ((-1, -3, -4, -9), -4)):  # median ±3.5
        for d, est in enumerate(rows):
            sk.table[d, buckets[d, 0]] = signs[d, 0] * est
        assert sk.query(key)[0] == want
