"""Native Ray Data AggregateFn surface (stages/udaf.py, r5): sketches as
stock ds.aggregate / groupby().aggregate UDAFs, matching the two-phase
build/merge pipeline exactly for exact-merge sketch kinds."""

import numpy as np
import pyarrow.parquet as pq
import pytest

import ray

from q_digest_ray.sketches.base import sketch_from_bytes
from q_digest_ray.sketches.ddsketch import DDSketch
from q_digest_ray.sketches.hll import HyperLogLog
from q_digest_ray.stages.build import SketchSpec
from q_digest_ray.stages.udaf import distinct_aggregate, quantile_aggregate, sketch_aggregate

SF = "/root/testdata/sf0.001"


def test_global_aggregate_matches_pipeline(ray_session):
    """ds.aggregate over documents == the build/merge pipeline, exactly —
    dds bucket-adds and hll register-max merges are order-invariant."""
    from q_digest_ray.pipelines.queries import _sketch_stats
    from q_digest_ray.sources.tables import read_table

    ds = read_table(SF, "documents", columns=["n_chars", "text"])
    spec_dds = SketchSpec("nc_dds", "n_chars", "dds", {"alpha": 0.01})
    spec_hll = SketchSpec("text_hll", "text", "hll", {"p": 12})
    out = ds.aggregate(
        quantile_aggregate(spec_dds, 0.5),
        quantile_aggregate(spec_dds, 0.99),
        distinct_aggregate(spec_hll),
    )
    pipe = _sketch_stats(SF, "documents", ["n_chars", "text"], [spec_dds, spec_hll])
    stats = {
        (m, s): v for m, _g, s, v in pipe[["metric", "group_key", "stat", "value"]].itertuples(index=False)
    }
    assert out["nc_dds_p50"] == stats[("nc_dds", "p50")]
    assert out["nc_dds_p99"] == stats[("nc_dds", "p99")]
    assert out["text_hll_distinct"] == stats[("text_hll", "distinct_estimate")]


def test_grouped_aggregate_matches_direct(ray_session):
    rng = np.random.default_rng(42)
    langs = np.array(["en", "de", "fr"])[rng.integers(0, 3, 2000)]
    vals = rng.lognormal(5, 1, 2000)
    ds = ray.data.from_items(
        [{"lang": l, "v": float(v)} for l, v in zip(langs, vals)]
    )
    spec = SketchSpec("v_dds", "v", "dds", {"alpha": 0.02})
    rows = ds.groupby("lang").aggregate(quantile_aggregate(spec, 0.9)).take_all()
    got = {r["lang"]: r["v_dds_p90"] for r in rows}
    for lang in ("en", "de", "fr"):
        direct = DDSketch(alpha=0.02)
        direct.update_batch(vals[langs == lang])
        assert got[lang] == direct.quantile(0.9), lang


def test_default_finalize_returns_decodable_bytes(ray_session):
    from q_digest_ray.sources.tables import read_table

    ds = read_table(SF, "documents", columns=["n_chars"])
    spec = SketchSpec("nc_dds", "n_chars", "dds", {"alpha": 0.01})
    out = ds.aggregate(sketch_aggregate(spec))
    sk = sketch_from_bytes("dds", out["nc_dds"])
    n_exact = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert sk.n == n_exact


def test_weighted_spec_through_aggregate(ray_session):
    ds = ray.data.from_items([{"v": 10.0, "w": 3}, {"v": 100.0, "w": 1}])
    spec = SketchSpec("v_dds", "v", "dds", {"alpha": 0.01}, weight_column="w")
    out = ds.aggregate(sketch_aggregate(spec))
    sk = sketch_from_bytes("dds", out["v_dds"])
    assert sk.n == 4
    assert abs(sk.quantile(0.5) - 10.0) <= 0.1 + 0.01 * 10.0


def test_hashing_kind_grouped(ray_session):
    ds = ray.data.from_items(
        [{"k": "a", "u": i % 50} for i in range(500)]
        + [{"k": "b", "u": i} for i in range(500)]
    )
    spec = SketchSpec("u_hll", "u", "hll", {"p": 12})
    rows = ds.groupby("k").aggregate(distinct_aggregate(spec)).take_all()
    got = {r["k"]: r["u_hll_distinct"] for r in rows}
    # HLL at p=12 on tiny cardinalities is near-exact
    assert abs(got["a"] - 50) <= 2
    assert abs(got["b"] - 500) <= 15


def test_weighted_distinctness_spec_rejected(ray_session):
    """The UDAF shares the build stage's insert rule, weight guard included:
    a weight column on a distinctness sketch is a ValueError, not an opaque
    TypeError from update_hashed."""
    ds = ray.data.from_items([{"u": i, "w": 2} for i in range(20)])
    spec = SketchSpec("u_hll", "u", "hll", {"p": 10}, weight_column="w")
    with pytest.raises(ValueError, match="distinctness"):
        ds.aggregate(sketch_aggregate(spec))
