"""The sketch-row merge stage: one fused Ray Data task per input split, the
last fold on the driver (stages/merge.py), and the protocol's default
``merge_many``."""

import numpy as np
import pyarrow as pa
import pytest


def test_read_build_combine_fuse_into_one_operator(ray_session, sf_dir):
    """merge_grouped's combiner must not block read fusion: the read, the
    build and the per-block combine run as one operator, with no exchange
    after it (a ``batch_size`` row count on the combiner, or a trailing
    ``repartition(1)`` fold, each show up as separate operators)."""
    from q_digest_ray.sources.tables import read_table
    from q_digest_ray.stages.build import SketchSpec, build_sketches
    from q_digest_ray.stages.merge import merge_grouped

    ds = read_table(sf_dir, "documents", columns=["n_chars", "lang"])
    specs = [SketchSpec("q", "n_chars", "qdigest", {"k": 64}, group_by="lang")]
    stats = merge_grouped(build_sketches(ds, specs)).materialize().stats()
    ops = [line for line in stats.splitlines() if line.startswith("Operator ")]
    assert len(ops) == 1, ops
    assert "ReadParquet->MapBatches(SketchBuilder)->MapBatches(combine_sketch_rows)" in ops[0]


def test_collect_sketches_empty_input(ray_session):
    import ray.data

    from q_digest_ray.stages.build import SketchSpec, build_sketches
    from q_digest_ray.stages.merge import collect_sketches, merge_grouped

    no_rows = pa.table(
        {
            "metric": pa.array([], pa.string()),
            "sketch": pa.array([], pa.string()),
            "group_key": pa.array([], pa.string()),
            "payload": pa.array([], pa.binary()),
            "n": pa.array([], pa.int64()),
        }
    )
    assert collect_sketches(merge_grouped(ray.data.from_arrow(no_rows))) == {}
    ds = ray.data.from_arrow(pa.table({"g": ["a", "b"], "v": [1, 2]}))
    ds = ds.filter(lambda r: r["v"] > 2)
    spec = SketchSpec("q", "v", "qdigest", {"k": 16}, group_by="g")
    assert collect_sketches(merge_grouped(build_sketches(ds, [spec]))) == {}


def test_default_merge_many_folds_pairwise():
    from q_digest_ray.sketches.hll import HyperLogLog

    rng = np.random.default_rng(3)
    parts = []
    for _ in range(3):
        h = HyperLogLog(p=10)
        h.update_batch(rng.integers(0, 5_000, 500).astype(np.uint64))
        parts.append(h)
    pairwise = HyperLogLog.from_bytes(parts[0].to_bytes())
    for h in parts[1:]:
        pairwise.merge(h)
    assert HyperLogLog.merge_many(parts).to_bytes() == pairwise.to_bytes()
    with pytest.raises(ValueError, match="at least one"):
        HyperLogLog.merge_many([])
