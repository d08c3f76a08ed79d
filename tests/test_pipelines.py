"""End-to-end Ray Data pipeline tests: flagship accuracy vs exact,
parallelism invariance, cc_pages flagship, sketch-row merge stages."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from q_digest_ray.pipelines.flagship import (
    run_cc_pages_flagship,
    run_documents_flagship,
)


@pytest.fixture(scope="module")
def flagship_df(ray_session, sf_dir):
    return run_documents_flagship(sf_dir)


def _exact_nchars(sf_dir):
    return np.sort(
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])[
            "n_chars"
        ].to_numpy()
    )


def test_flagship_counts(flagship_df, sf_dir):
    sv = _exact_nchars(sf_dir)
    n_row = flagship_df.query("metric == 'n_chars_qdigest' and stat == 'n'")
    assert int(n_row["value"].iloc[0]) == len(sv)
    # grouped ns sum to total
    by_lang = flagship_df.query("metric == 'n_chars_qdigest_by_lang' and stat == 'n'")
    assert int(by_lang["value"].sum()) == len(sv)


def test_flagship_quantiles_within_bound(flagship_df, sf_dir):
    sv = _exact_nchars(sf_dir)
    n = len(sv)
    eps = 20 / 256  # universe_bits / k
    for stat, p in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        est = flagship_df.query(f"metric == 'n_chars_qdigest' and stat == '{stat}'")[
            "value"
        ].iloc[0]
        rank = np.searchsorted(sv, est, side="right")
        assert abs(rank - p * n) <= eps * n + 1, (stat, est)


def test_flagship_hll_close(flagship_df, sf_dir):
    true = len(
        set(pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])["text"].to_pylist())
    )
    est = flagship_df.query("metric == 'distinct_text_hll' and stat == 'distinct_estimate'")[
        "value"
    ].iloc[0]
    assert abs(est - true) / true <= 3 * 1.04 / np.sqrt(4096)


def test_parallelism_invariance(ray_session, sf_dir):
    """Same totals regardless of block count (north rule: estimates invariant
    across num_blocks)."""
    import ray.data

    from q_digest_ray.stages.build import SketchSpec, build_sketches
    from q_digest_ray.stages.merge import collect_sketches, merge_grouped

    results = {}
    for blocks in (1, 8):
        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["n_chars"],
            override_num_blocks=blocks,
        )
        rows = build_sketches(
            ds,
            [SketchSpec("q", "n_chars", "qdigest", {"k": 256, "universe_bits": 16})],
            batch_size=64,
        )
        sk = collect_sketches(merge_grouped(rows))[("q", "")]
        results[blocks] = (sk.n, sk.quantile(0.5))
    assert results[1][0] == results[8][0]
    # estimates must agree within the bound (16/256 = 6.25% rank slack)
    sv = _exact_nchars(sf_dir)
    for blocks, (_n, p50) in results.items():
        rank = np.searchsorted(sv, p50, side="right")
        assert abs(rank - 0.5 * len(sv)) <= 0.0625 * len(sv) + 1


def test_cc_pages_flagship(ray_session, tmp_path):
    from q_digest_ray.sources.cc_pages import generate_shard, synthesize

    d = str(tmp_path / "cc")
    synthesize(d, total_rows=2000, shards=4, seed=42)
    df = run_cc_pages_flagship(d)
    # n accounted for every row in every global sketch
    for metric in ("text_len_qdigest", "html_size_qdigest", "distinct_url_hll"):
        n = df.query(f"metric == '{metric}' and stat == 'n'")["value"].iloc[0]
        assert int(n) == 2000, metric
    # text_len p50 within bound of exact
    t = generate_shard(0, 500, seed=42)  # spot distribution sanity only
    p50 = df.query("metric == 'text_len_qdigest' and stat == 'p50'")["value"].iloc[0]
    assert 10 <= p50 <= 100_000
    # distinct urls < total rows (dups exist), HLL close to truth
    import pyarrow.parquet as pq2

    urls = set()
    for i in range(4):
        urls.update(
            pq2.read_table(f"{d}/part-{i:05d}.parquet", columns=["url"])["url"].to_pylist()
        )
    est = df.query("metric == 'distinct_url_hll' and stat == 'distinct_estimate'")[
        "value"
    ].iloc[0]
    assert abs(est - len(urls)) / len(urls) <= 0.05
