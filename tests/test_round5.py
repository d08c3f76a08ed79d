"""Round-5 additions: sharded-directory table reads (VERDICT r4 item 1)."""

import os

import pandas as pd
import pyarrow as pa
import pytest

from q_digest_ray.sources.tables import (
    derive_num_blocks,
    read_table,
    read_table_arrow,
    resolve_table_paths,
)


@pytest.fixture(scope="module")
def sharded_dir(sf_dir, tmp_path_factory):
    """sf0.001 re-sharded: every table becomes <name>.parquet/part-*.parquet."""
    from tools.reshard import reshard

    out = str(tmp_path_factory.mktemp("sharded_sf"))
    return reshard(sf_dir, out, shards=3)


def test_resolve_single_file(sf_dir):
    paths = resolve_table_paths(sf_dir, "nation")
    assert len(paths) == 1 and paths[0].endswith("nation.parquet")


def test_resolve_shard_dir(sharded_dir):
    paths = resolve_table_paths(sharded_dir, "documents")
    assert len(paths) >= 2
    assert all(os.sep + "documents.parquet" + os.sep in p for p in paths)
    assert paths == sorted(paths)


def test_resolve_bare_dir_layout(sharded_dir, tmp_path):
    # <name>/ without the .parquet suffix is also a valid shard-dir layout
    import shutil

    src = os.path.join(sharded_dir, "nation.parquet")
    dst = os.path.join(str(tmp_path), "nation")
    shutil.copytree(src, dst)
    paths = resolve_table_paths(str(tmp_path), "nation")
    assert len(paths) >= 1 and all(p.startswith(dst) for p in paths)


def test_resolve_missing_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        resolve_table_paths(str(tmp_path), "nope")


def test_derive_num_blocks_sums_shards(tmp_path):
    # 3 shards of 5 MB each -> 15 MB total -> size rule says 1 (15//8=1)
    # but the per-shard floor lifts it to 3 (one block per file, no
    # SplitBlocks re-serialization)
    paths = []
    for i in range(3):
        p = tmp_path / f"part-{i}.parquet"
        p.write_bytes(b"\0" * (5 << 20))
        paths.append(str(p))
    assert derive_num_blocks(paths) == 3
    # one 100 MB file -> 12 blocks (100//8), clamped inside [1, 64]
    big = tmp_path / "big.parquet"
    big.write_bytes(b"\0" * (100 << 20))
    assert derive_num_blocks([str(big)]) == 12
    # tiny single file -> 1
    small = tmp_path / "small.parquet"
    small.write_bytes(b"\0" * 1024)
    assert derive_num_blocks([str(small)]) == 1


def test_read_table_sharded_equals_single(ray_session, sf_dir, sharded_dir):
    a = read_table(sf_dir, "documents", columns=["doc_id", "lang"]).to_pandas()
    b = read_table(sharded_dir, "documents", columns=["doc_id", "lang"]).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("doc_id").reset_index(drop=True),
        b.sort_values("doc_id").reset_index(drop=True),
    )


def test_read_table_arrow_sharded(sf_dir, sharded_dir):
    a = read_table_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    b = read_table_arrow(sharded_dir, "nation", columns=["n_nationkey", "n_name"])
    assert a.sort_by("n_nationkey").equals(b.sort_by("n_nationkey"))


def test_catalog_queries_on_sharded_input(ray_session, sf_dir, sharded_dir):
    """A representative catalog slice must produce identical results on the
    sharded layout (the full catalog is covered by tools/check_oracles.py
    against tools/reshard.py output at sf0.01)."""
    import __ray_entry__ as e

    qs = e.queries()
    for name in ["pricing_summary", "lang_counts", "dedup_exact", "top_users"]:
        a = qs[name](sf_dir)
        b = qs[name](sharded_dir)
        a = a.to_pandas() if hasattr(a, "to_pandas") else pd.DataFrame(a)
        b = b.to_pandas() if hasattr(b, "to_pandas") else pd.DataFrame(b)
        a = a.sort_values(list(a.columns)).reset_index(drop=True)
        b = b.sort_values(list(b.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_cms_inner_product_no_int64_overflow():
    """ADVICE r4: per-cell products can exceed 2^63; the estimate must not
    wrap.  Two sketches whose cells hold ~2^33 counts produce per-cell
    products ~2^66 — a wrapped int64 sum would go negative/garbage."""
    from q_digest_ray.sketches.cms import CountMinSketch

    a = CountMinSketch(depth=2, width=4)
    b = CountMinSketch(depth=2, width=4)
    big = 1 << 33
    a.table[:] = big
    b.table[:] = big
    est = a.inner_product(b)
    assert est == 4 * big * big  # > 2^68, exact in unbounded ints
    assert est > 0


def test_merge_fold_arrow_native_equivalence(ray_session):
    """The default fold and one driver-side combine over the same rows
    produce identical merged sketches (Arrow-native, no pandas leg)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from q_digest_ray.sketches.base import sketch_from_bytes
    from q_digest_ray.sketches.hll import HyperLogLog
    from q_digest_ray.stages.merge import combine_sketch_rows, merge_grouped

    rows = []
    rng = np.random.default_rng(5)
    for i in range(64):
        h = HyperLogLog(p=10)
        vals = rng.integers(0, 10000, 200)
        h.update_batch(vals.astype(np.uint64))
        rows.append(
            {
                "metric": "m",
                "sketch": "hll",
                "group_key": f"g{i % 3}",
                "payload": h.to_bytes(),
                "n": 200,
            }
        )
    ds = ray.data.from_items(rows).repartition(8).materialize()
    folded = {
        (r["metric"], r["group_key"]): (r["n"], sketch_from_bytes(r["sketch"], r["payload"]))
        for r in merge_grouped(ds).take_all()
    }
    combined = combine_sketch_rows(pa.concat_tables(ray.get(ds.to_arrow_refs())))
    direct = {
        (r["metric"], r["group_key"]): (r["n"], sketch_from_bytes(r["sketch"], r["payload"]))
        for r in combined.to_pylist()
    }
    assert set(folded) == set(direct) and len(folded) == 3
    for k in folded:
        assert folded[k][0] == direct[k][0] > 0
        assert abs(folded[k][1].estimate() - direct[k][1].estimate()) < 1e-9


# ---------------------------------------------------------------------------
# span-removal dedup (VERDICT r4 item 3 — the rewrite half of Lee et al.)
# ---------------------------------------------------------------------------


def _write_docs(tmpdir, texts):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(tmpdir, "documents.parquet"))
    return str(tmpdir)


def test_span_removal_planted(ray_session, tmp_path):
    """A 5-gram shared by two docs is excised from BOTH (remove-all
    ExactSubstr-cut semantics); unique text survives byte-exact."""
    from q_digest_ray.pipelines.queries import span_removal_dedup

    span = "alpha beta gamma delta epsilon"
    texts = [
        f"{span} zeta eta",
        f"one two {span} nine ten",
        "solo unique words nothing shared here at all",
        None,
    ]
    d = _write_docs(tmp_path, texts)
    out = span_removal_dedup(d).set_index("doc_id")
    assert out.loc[0, "text"] == "zeta eta"
    assert out.loc[0, "n_tokens_in"] == 7 and out.loc[0, "n_tokens_kept"] == 2
    assert out.loc[1, "text"] == "one two nine ten"
    assert out.loc[2, "text"] == texts[2]
    assert 3 not in out.index  # NULL text excluded


def test_span_removal_fully_duplicated_doc_drops(ray_session, tmp_path):
    from q_digest_ray.pipelines.queries import span_removal_dedup

    same = "exactly the same five words"
    d = _write_docs(tmp_path, [same, same, "an unrelated document body here"])
    out = span_removal_dedup(d)
    # docs 0 and 1 are 100% covered -> dropped; doc 2 intact
    assert list(out["doc_id"]) == [2]


def test_span_removal_matches_duckdb_on_planted(ray_session, tmp_path):
    """Byte-exact vs the SQL oracle on a planted multi-span corpus
    (the driver-gate comparison, locally)."""
    import duckdb

    from q_digest_ray.pipelines.queries import SPAN_REMOVAL_SQL, span_removal_dedup

    texts = [
        "the quick brown fox jumps over the lazy dog today",
        "yesterday the quick brown fox jumps over a fence",
        "a b c d e f g h i j k",
        "z y x a b c d e f w v",
        "short doc",
        "  padded   whitespace doc  with   runs ",
    ]
    d = _write_docs(tmp_path, texts)
    out = span_removal_dedup(d)
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    o = con.sql(SPAN_REMOVAL_SQL).df()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = o.sort_values("doc_id").reset_index(drop=True)
    assert a.shape == b.shape
    for c in a.columns:
        assert (a[c].astype(str).values == b[c].astype(str).values).all(), c


def test_span_removal_bucket_invariance(ray_session, sf_dir):
    from q_digest_ray.pipelines.queries import span_removal_dedup

    a = span_removal_dedup(sf_dir, num_buckets=2)
    b = span_removal_dedup(sf_dir, num_buckets=16)
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# training-ingest leg (VERDICT r4 item 4)
# ---------------------------------------------------------------------------


def _epoch_doc_sequence(sf_dir, epoch, batch_size=64, skip=0):
    from q_digest_ray.pipelines.ingest import iter_epoch_batches

    out = []
    for b in iter_epoch_batches(sf_dir, epoch, batch_size=batch_size, skip_docs=skip):
        out.extend(b["doc_id"].to_pylist())
    return out


def test_epoch_order_deterministic_and_epoch_varying(ray_session, sf_dir):
    s0a = _epoch_doc_sequence(sf_dir, 0)
    s0b = _epoch_doc_sequence(sf_dir, 0, batch_size=17)  # batch size irrelevant
    s1 = _epoch_doc_sequence(sf_dir, 1)
    assert s0a == s0b
    assert sorted(s0a) == sorted(s1)  # same split content
    assert s0a != s1  # different permutation per epoch

    from q_digest_ray.pipelines.ingest import split_bucket
    import numpy as np

    assert (split_bucket(np.array(s0a)) < 80).all()


def test_resume_mid_epoch_exact(ray_session, sf_dir):
    """skip_docs=N continuation is byte-identical to the tail of a full
    pass — the mid-epoch resume contract."""
    full = _epoch_doc_sequence(sf_dir, 3)
    n = len(full) // 3
    resumed = _epoch_doc_sequence(sf_dir, 3, batch_size=29, skip=n)
    assert resumed == full[n:]


def test_epoch_shards_disjoint_cover_and_deterministic(ray_session, sf_dir):
    from q_digest_ray.pipelines.ingest import epoch_shard

    full = _epoch_doc_sequence(sf_dir, 2)
    parts = []
    for i in range(3):
        a = epoch_shard(sf_dir, 2, i, 3).to_pandas()["doc_id"].tolist()
        b = epoch_shard(sf_dir, 2, i, 3).to_pandas()["doc_id"].tolist()
        assert a == b  # per-consumer reproducibility
        parts.append(a)
    flat = [d for p in parts for d in p]
    assert sorted(flat) == sorted(full)  # disjoint exact cover
    assert len(set(flat)) == len(flat)


def test_epoch_splits_cover_once(ray_session, sf_dir):
    from q_digest_ray.pipelines.ingest import epoch_splits

    import threading

    its = epoch_splits(sf_dir, 0, 2)
    seen = [[], []]

    def drain(i):
        for b in its[i].iter_batches(batch_size=128, batch_format="pyarrow"):
            seen[i].extend(b["doc_id"].to_pylist())

    # streaming_split consumers must read CONCURRENTLY (coordinated splits)
    ts = [threading.Thread(target=drain, args=(i,)) for i in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    full = _epoch_doc_sequence(sf_dir, 0)
    union = seen[0] + seen[1]
    assert sorted(union) == sorted(full)


# ---------------------------------------------------------------------------
# IVF-PQ composite index (VERDICT r4 item 5)
# ---------------------------------------------------------------------------


def _clustered_vectors(n_clusters=8, per_cluster=50, dim=16, seed=4):
    import numpy as np

    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * 5
    return np.concatenate(
        [centers[c] + rng.normal(size=(per_cluster, dim)) * 0.3 for c in range(n_clusters)]
    )


def test_ivfpq_index_recall_and_pruning(ray_session, tmp_path):
    """Recall >= the IVF index bar (0.9 on clustered vectors) AND the ADC
    scan provably prunes partitions."""
    import os

    import numpy as np
    import ray.data

    from q_digest_ray.stages.ann import (
        brute_force_topk,
        build_ivfpq_index,
        ivfpq_index_topk,
        ivfpq_probe_paths,
    )

    vecs = _clustered_vectors(seed=6)
    df = pd.DataFrame(
        {"vid": np.arange(len(vecs), dtype="int64"), "v": [list(x) for x in vecs]}
    )
    idx_dir = str(tmp_path / "ivfpq")
    build_ivfpq_index(
        ray.data.from_pandas(df), "vid", "v", idx_dir, num_centroids=8, m=4, seed=9
    )
    parts = [
        d
        for d in os.listdir(os.path.join(idx_dir, "vectors"))
        if d.startswith("centroid=")
    ]
    assert len(parts) >= 2, "index must be partitioned by centroid"
    # stored codes are m-byte fixed-size binary
    import glob

    import pyarrow.parquet as pq

    one = pq.read_table(
        glob.glob(os.path.join(idx_dir, "vectors", parts[0], "*.parquet"))[0]
    )
    assert one.schema.field("pq_code").type == pa.binary(4)

    query = vecs[123] + 0.05
    got = ivfpq_index_topk(idx_dir, "vid", "v", query, k=10, nprobe=3, rerank=8)
    brute = brute_force_topk(ray.data.from_pandas(df), "vid", "v", query, k=10)
    recall = len(set(got["vid"]) & set(brute["vid"])) / 10
    assert recall >= 0.9, recall
    # partition pruning: nprobe=3 of 8 centroids -> strictly fewer files
    _, probed = ivfpq_probe_paths(idx_dir, query, nprobe=3)
    total = glob.glob(os.path.join(idx_dir, "vectors", "centroid=*", "*.parquet"))
    assert 0 < len(probed) < len(total)
    # cos_sim values are EXACT (rerank reads true vectors): cross-check one
    merged = got.merge(brute, on="vid", suffixes=("_pq", "_bf"))
    assert (merged["cos_sim_pq"] == merged["cos_sim_bf"]).all()


def test_ivfpq_catalog_query(ray_session, sf_dir):
    import __ray_entry__ as e

    out = e.queries()["ann_ivfpq_topk"](sf_dir)
    assert len(out) == 10
    assert list(out.columns) == ["vec_id", "cos_sim"]
    assert 0 not in set(out["vec_id"])  # query vector excluded


def test_ivfpq_non_power_of_two_m(ray_session, tmp_path):
    """m=2 with dim 16 (sub=8) and m-byte codes not aligned to Arrow's
    64-byte buffer padding: the ADC decode must slice by count, not rely
    on padding divisibility."""
    import numpy as np
    import ray.data

    from q_digest_ray.stages.ann import (
        brute_force_topk,
        build_ivfpq_index,
        ivfpq_index_topk,
    )

    vecs = _clustered_vectors(n_clusters=4, per_cluster=25, dim=12, seed=11)
    df = pd.DataFrame(
        {"vid": np.arange(len(vecs), dtype="int64"), "v": [list(x) for x in vecs]}
    )
    idx = str(tmp_path / "pq6")
    build_ivfpq_index(
        ray.data.from_pandas(df), "vid", "v", idx, num_centroids=4, m=6, num_codes=32, seed=3
    )
    q = vecs[40] + 0.02
    got = ivfpq_index_topk(idx, "vid", "v", q, k=5, nprobe=2, rerank=8)
    brute = brute_force_topk(ray.data.from_pandas(df), "vid", "v", q, k=5)
    assert len(set(got["vid"]) & set(brute["vid"])) >= 4


def test_span_removal_randomized_differential(ray_session, tmp_path):
    """Randomized corpora with a tiny vocabulary (forces genuine cross-doc
    shingle sharing) vs a pure-Python reference implementation."""
    import re

    import numpy as np

    from q_digest_ray.pipelines.queries import span_removal_dedup

    rng = np.random.default_rng(77)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = []
    for i in range(40):
        n = int(rng.integers(3, 18))
        texts.append(" ".join(vocab[j] for j in rng.integers(0, len(vocab), n)))

    K = 5

    def ref(texts):
        toks = [re.split(r"\s+", t.strip().lower()) for t in texts]
        counts = {}
        for d, ts in enumerate(toks):
            for i in range(len(ts) - K + 1):
                counts.setdefault(" ".join(ts[i : i + K]), set()).add(d)
        dup = {s for s, docs in counts.items() if len(docs) >= 2}
        out = []
        for d, ts in enumerate(toks):
            cov = [False] * len(ts)
            for i in range(len(ts) - K + 1):
                if " ".join(ts[i : i + K]) in dup:
                    for j in range(i, i + K):
                        cov[j] = True
            kept = [t for t, c in zip(ts, cov) if not c]
            if kept:
                out.append((d, len(ts), len(kept), " ".join(kept)))
        return out

    d = _write_docs(tmp_path, texts)
    got = span_removal_dedup(d)
    exp = ref(texts)
    assert len(got) == len(exp)
    for row, (doc, n_in, n_kept, text) in zip(got.itertuples(index=False), exp):
        assert (row.doc_id, row.n_tokens_in, row.n_tokens_kept, row.text) == (
            doc,
            n_in,
            n_kept,
            text,
        )


def test_epoch_over_curated_export(ray_session, sf_dir, tmp_path):
    """The literal export->trainer handoff: curate once, then epoch-ordered
    deterministic iteration over the committed shards; content equals the
    exported train-split docs."""
    from q_digest_ray.pipelines.export import curate_corpus
    from q_digest_ray.pipelines.ingest import epoch_dataset_from_export, split_bucket
    from q_digest_ray.sources.tables import read_table

    import numpy as np

    out = str(tmp_path / "curated")
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    curate_corpus(ds, out)

    a = epoch_dataset_from_export(out, epoch=1).to_pandas()
    b = epoch_dataset_from_export(out, epoch=1).to_pandas()
    assert list(a["doc_id"]) == list(b["doc_id"])  # deterministic
    assert (split_bucket(a["doc_id"].to_numpy()) < 80).all()  # train split

    # content = exported docs in the train split, each exactly once
    import glob
    import os

    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(out, "lang=*", "*.parquet"))
    exported = pq.read_table(files, columns=["doc_id"])["doc_id"].to_pylist()
    want = sorted(d for d in exported if split_bucket(np.array([d]))[0] < 80)
    assert sorted(a["doc_id"]) == want
    # epoch order differs from epoch 0's
    c = epoch_dataset_from_export(out, epoch=0).to_pandas()
    assert list(c["doc_id"]) != list(a["doc_id"])


def test_ivfpq_residual_encoding_recall(ray_session, tmp_path):
    """by_residual=True (Faiss-default IVFADC): codes quantize v - centroid;
    recall on clustered vectors >= the non-residual bar with the SAME
    budget, and the cross-list q.centroid term keeps ranks comparable."""
    import numpy as np
    import ray.data

    from q_digest_ray.stages.ann import (
        brute_force_topk,
        build_ivfpq_index,
        ivfpq_index_topk,
    )

    vecs = _clustered_vectors(seed=6)
    df = pd.DataFrame(
        {"vid": np.arange(len(vecs), dtype="int64"), "v": [list(x) for x in vecs]}
    )
    idx = str(tmp_path / "ivfpq_res")
    build_ivfpq_index(
        ray.data.from_pandas(df), "vid", "v", idx,
        num_centroids=8, m=4, seed=9, by_residual=True,
    )
    for qi in (23, 123, 333):
        query = vecs[qi] + 0.05
        got = ivfpq_index_topk(idx, "vid", "v", query, k=10, nprobe=3, rerank=8)
        brute = brute_force_topk(ray.data.from_pandas(df), "vid", "v", query, k=10)
        recall = len(set(got["vid"]) & set(brute["vid"])) / 10
        assert recall >= 0.9, (qi, recall)


def test_epoch_shard_from_export(ray_session, sf_dir, tmp_path):
    from q_digest_ray.pipelines.export import curate_corpus
    from q_digest_ray.pipelines.ingest import (
        epoch_dataset_from_export,
        epoch_shard_from_export,
    )
    from q_digest_ray.sources.tables import read_table

    out = str(tmp_path / "curated")
    curate_corpus(read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"]), out)
    full = epoch_dataset_from_export(out, epoch=2).to_pandas()["doc_id"].tolist()
    parts = []
    for i in range(2):
        a = epoch_shard_from_export(out, 2, i, 2).to_pandas()["doc_id"].tolist()
        b = epoch_shard_from_export(out, 2, i, 2).to_pandas()["doc_id"].tolist()
        assert a == b
        parts.append(a)
    flat = [d for p in parts for d in p]
    assert sorted(flat) == sorted(full)
    assert len(set(flat)) == len(flat)


def test_shipping_priority_fallback_branch_equivalence(ray_session, sf_dir):
    """The >5M-key bucketed-semi fallback must produce the identical
    result as the broadcast-semi path (forced via a patched Dataset.limit
    so the gate sees an over-threshold dimension)."""
    import unittest.mock as um

    import ray.data

    from q_digest_ray.pipelines.queries import shipping_priority

    fast = shipping_priority(sf_dir)

    real_limit = ray.data.Dataset.limit

    class FakeBig:
        """limit(N+1) result that looks bigger than the threshold."""

        def __init__(self, inner):
            self._inner = inner

        def to_pandas(self):
            df = self._inner.to_pandas()
            # pad with dummy rows so len(head) > lim triggers the fallback;
            # the fallback path re-reads cust_f itself, so the padding
            # never reaches the join
            import pandas as pd

            pad = pd.DataFrame({"c_custkey": [-1] * (5_000_001 - len(df) + 1)})
            return pd.concat([df, pad], ignore_index=True)

    def fake_limit(self, n):
        if n == 5_000_001:
            return FakeBig(real_limit(self, n))
        return real_limit(self, n)

    with um.patch.object(ray.data.Dataset, "limit", fake_limit):
        slow = shipping_priority(sf_dir)

    pd.testing.assert_frame_equal(fast, slow)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard dedup (round-5 continuation: the brief's 4th family)
# ---------------------------------------------------------------------------


def _njp(texts, **kw):
    import ray.data

    from q_digest_ray.stages.dedup import ngram_jaccard_pairs_ds

    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = ngram_jaccard_pairs_ds(
        ray.data.from_pandas(df), "doc_id", "text", **kw
    ).to_pandas()
    if "doc_a" not in out.columns:  # Ray 2.49 drops empty-block schemas
        assert out.empty
        return pd.DataFrame(columns=["doc_a", "doc_b", "n_common", "n_union", "jaccard"])
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def test_ngram_jaccard_planted_pair(ray_session):
    # d0/d1 share 5 of 7 distinct trigrams -> j = 5/7; d2 short (<3 tokens)
    # contributes no shingles; d3 disjoint
    texts = [
        "a b c d e f g h",
        "a b c d e f g x",
        "q r",
        "m n o p q r s t",
    ]
    out = _njp(texts, w=3, threshold=0.5, num_buckets=8)
    assert len(out) == 1
    row = out.iloc[0]
    assert (row.doc_a, row.doc_b) == (0, 1)
    assert (row.n_common, row.n_union) == (5, 7)
    assert abs(row.jaccard - 5 / 7) < 1e-12
    # threshold filter: same corpus, bar above 5/7
    assert len(_njp(texts, w=3, threshold=0.9, num_buckets=8)) == 0


def test_ngram_jaccard_df_cap_drops_boilerplate_symmetrically(ray_session):
    # trigram 'a b c' appears in 3 docs; with df_cap=2 it leaves BOTH the
    # intersection and the union, and the 1-shingle doc drops out entirely
    texts = ["a b c d e f g h", "a b c d e f g x", "a b c"]
    out = _njp(texts, w=3, threshold=0.5, df_cap=2, num_buckets=8)
    assert len(out) == 1
    row = out.iloc[0]
    assert (row.doc_a, row.doc_b, row.n_common, row.n_union) == (0, 1, 4, 6)
    # without the cap the dropped shingle returns to both sides
    out2 = _njp(texts, w=3, threshold=0.5, df_cap=100, num_buckets=8)
    pair01 = out2[(out2.doc_a == 0) & (out2.doc_b == 1)].iloc[0]
    assert (pair01.n_common, pair01.n_union) == (5, 7)


def test_ngram_jaccard_b_invariant(ray_session, sf_dir):
    from q_digest_ray.pipelines.queries import ngram_jaccard_dups

    a = ngram_jaccard_dups(sf_dir, num_buckets=8)
    b = ngram_jaccard_dups(sf_dir, num_buckets=64)
    pd.testing.assert_frame_equal(a, b)


def test_ngram_jaccard_fallback_path_matches_broadcast(ray_session, sf_dir):
    """size_broadcast_limit=0 forces the at-scale two-join path; results
    must be identical to the gated broadcast path."""
    import ray.data

    from q_digest_ray.sources.tables import read_table
    from q_digest_ray.stages.dedup import ngram_jaccard_pairs_ds

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    fast = (
        ngram_jaccard_pairs_ds(ds, "doc_id", "text", num_buckets=8)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    slow = (
        ngram_jaccard_pairs_ds(
            ds, "doc_id", "text", num_buckets=8, size_broadcast_limit=0
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, slow[fast.columns])


def test_ngram_jaccard_randomized_differential(ray_session):
    """Randomized differential vs a pure-Python set reference: small vocab
    forces heavy shingle sharing (df filter + pair paths all exercised)."""
    import numpy as np
    import ray.data

    from q_digest_ray.stages.dedup import ngram_jaccard_pairs_ds

    rng = np.random.default_rng(377)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 30)))
        for _ in range(120)
    ]
    w, t, cap = 3, 0.3, 40

    # pure-Python reference
    sets = []
    for txt in texts:
        toks = txt.split()
        sets.append(
            {tuple(toks[i : i + w]) for i in range(len(toks) - w + 1)}
        )
    from collections import Counter

    df = Counter(sh for s in sets for sh in s)
    sets = [{sh for sh in s if df[sh] <= cap} for s in sets]
    want = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = len(sets[i] & sets[j])
            union = len(sets[i] | sets[j])
            if union and inter / union >= t:
                want.append((i, j, inter, union))
    assert want, "fixture must plant qualifying pairs"

    got = (
        ngram_jaccard_pairs_ds(
            ray.data.from_pandas(
                pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
            ),
            "doc_id",
            "text",
            w=w,
            threshold=t,
            df_cap=cap,
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert [
        (r.doc_a, r.doc_b, r.n_common, r.n_union) for r in got.itertuples()
    ] == want


# ---------------------------------------------------------------------------
# exact embedding-cosine near-dup (r5c — verification-grade twin of the LSH)
# ---------------------------------------------------------------------------


def _cdp(ids, vecs, **kw):
    import numpy as np
    import ray.data

    from q_digest_ray.stages.dedup import cosine_dup_pairs_ds

    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [None if v is None else list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = cosine_dup_pairs_ds(
        ray.data.from_arrow(t), "vec_id", "embedding", **kw
    ).to_pandas()
    if "id_a" not in out.columns:
        assert out.empty
        return pd.DataFrame(columns=["id_a", "id_b", "cos_sim"])
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def test_cosine_dup_pairs_planted(ray_session):
    vecs = [
        [1.0, 0.0, 0.0],   # 0
        [2.0, 0.0, 0.0],   # 1: scaled copy of 0 -> cos 1
        [0.0, 1.0, 0.0],   # 2: orthogonal
        [1.0, 1.0, 0.0],   # 3: cos(0,3)=cos(2,3)=0.7071
        None,              # 4: null excluded
        [0.0, 0.0, 0.0],   # 5: zero vector scores 0 -> excluded
    ]
    out = _cdp(range(6), vecs, threshold=0.6)
    got = {(r.id_a, r.id_b): r.cos_sim for r in out.itertuples()}
    assert set(got) == {(0, 1), (0, 3), (1, 3), (2, 3)}
    assert abs(got[(0, 1)] - 1.0) < 1e-12
    assert abs(got[(0, 3)] - 2 ** -0.5) < 1e-12
    # raising the bar drops the 0.707 pairs, keeps the exact copies
    out2 = _cdp(range(6), vecs, threshold=0.9)
    assert {(r.id_a, r.id_b) for r in out2.itertuples()} == {(0, 1)}


def test_cosine_dup_pairs_fallback_matches_broadcast(ray_session, sf_dir):
    import numpy as np

    from q_digest_ray.sources.tables import read_table
    from q_digest_ray.stages.dedup import cosine_dup_pairs_ds

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    fast = (
        cosine_dup_pairs_ds(ds, "vec_id", "embedding", threshold=0.4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    for B in (2, 8):
        slow = (
            cosine_dup_pairs_ds(
                ds,
                "vec_id",
                "embedding",
                threshold=0.4,
                num_buckets=B,
                broadcast_limit=0,
            )
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        assert fast[["id_a", "id_b"]].equals(slow[["id_a", "id_b"]])
        assert np.allclose(fast["cos_sim"], slow["cos_sim"], atol=1e-12)


# ---------------------------------------------------------------------------
# n-gram train->eval contamination (r5: GPT-3 appendix-C decontamination shape)
# ---------------------------------------------------------------------------


def test_ngram_contamination_planted(ray_session, tmp_path):
    """doc 0 (train) shares a 5-gram with doc 2 (val) and doc 14 (test);
    doc 9 (val) and doc 21 (test) are clean; docs 16/28/35 pad the eval
    splits.  Split routing is the deterministic doc_id hash (ids 0..35:
    train={0,1,3..8,...}, val={2,9,16}, test={14,21,28,35})."""
    from q_digest_ray.pipelines.queries import ngram_contamination

    span = "alpha beta gamma delta epsilon"
    texts = ["the quick brown fox jumps over"] * 36
    texts[0] = f"lead in {span} trailing words here"
    texts[2] = f"completely different prefix {span}"
    texts[14] = f"{span} suffix tokens"
    texts[9] = "val doc with its own private words number nine"
    texts[21] = "test doc unrelated tokens twenty one entirely"
    texts[16] = "sixteen val unique and uncontaminated string data"
    texts[28] = "twenty eight test clean words nothing shared at"
    texts[35] = "thirty five test clean words nothing shared at"
    # NOTE: docs 28 and 35 share a 5-gram with EACH OTHER (both eval) but
    # not with any train doc -> not contaminated.  The filler "the quick
    # brown fox jumps over" is also in train docs -> filler eval docs ARE
    # contaminated; keep eval docs non-filler except the planted ones.
    sf = _write_docs(tmp_path, texts)
    out = ngram_contamination(sf)
    row = {r["split"]: r for _, r in out.iterrows()}
    assert row["val"]["n_docs"] == 3 and row["test"]["n_docs"] == 4
    assert row["val"]["n_contaminated"] == 1  # doc 2
    assert row["test"]["n_contaminated"] == 1  # doc 14
    assert abs(row["val"]["contamination_pct"] - 33.3333) < 1e-4
    assert abs(row["test"]["contamination_pct"] - 25.0) < 1e-4


def test_ngram_contamination_bucket_invariance(ray_session, tmp_path):
    import pandas as pd

    from q_digest_ray.pipelines.queries import ngram_contamination

    span = "one two three four five"
    texts = [f"doc {i} filler words distinct token{i} stream" for i in range(30)]
    texts[0] = f"train carrier {span} end"
    texts[2] = f"val hit {span} tail"
    a = ngram_contamination(_write_docs(tmp_path, texts), num_buckets=2)
    b = ngram_contamination(str(tmp_path), num_buckets=7)
    pd.testing.assert_frame_equal(a, b)
    assert a[a["split"] == "val"]["n_contaminated"].iloc[0] == 1


def test_ngram_contamination_oracle_parity(ray_session, tmp_path):
    """Planted corpus through BOTH the Ray pipeline and the DuckDB oracle
    (same comparison the driver runs, but on a corpus with known hits)."""
    import duckdb
    import pandas as pd

    from q_digest_ray.pipelines.queries import (
        NGRAM_CONTAMINATION_SQL,
        ngram_contamination,
    )

    rng_words = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng_words[i % 6 : i % 6 + 7]) for i in range(36)]
    sf = _write_docs(tmp_path, texts)
    ours = ngram_contamination(sf).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf, 'documents.parquet')}'"
    )
    theirs = con.sql(NGRAM_CONTAMINATION_SQL).df()
    pd.testing.assert_frame_equal(
        ours.astype({"n_docs": "int64", "n_contaminated": "int64"}),
        theirs.astype({"n_docs": "int64", "n_contaminated": "int64"}),
    )


# ---------------------------------------------------------------------------
# SemDeDup within-cluster pruning (r5)
# ---------------------------------------------------------------------------


def _write_embeddings(tmpdir, vecs):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
            "label": pa.array(np.zeros(len(vecs), np.int32)),
        }
    )
    pq.write_table(t, os.path.join(tmpdir, "embeddings.parquet"))
    return str(tmpdir)


def _unit(v):
    import numpy as np

    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_semdedup_planted_groups(ray_session, tmp_path):
    """Group A: 5 near-identical vectors -> keep 1, prune 4.  Group B: 4
    vectors ~20 degrees apart (cos≈0.94 < 0.95) -> prune 0.  Group C: two
    identical pairs -> prune 2.  Groups are orthogonal so cross-group
    cosine ~0 regardless of which k-means cluster they land in."""
    import numpy as np

    from q_digest_ray.pipelines.queries import semdedup_prune

    rng = np.random.Generator(np.random.PCG64(7))
    d = 8
    e = np.eye(d)
    vecs = []
    for _ in range(5):  # A: cos > 0.99 pairwise
        vecs.append(_unit(e[0] + 0.02 * rng.normal(size=d)))
    for k in range(4):  # B: fan around e[1] in the (e1, e3) plane, ~21 deg apart
        ang = 0.36 * k
        vecs.append(_unit(np.cos(ang) * e[1] + np.sin(ang) * e[3]))
    for _ in range(2):  # C: two exact dup pairs on e[2] and e[4+]
        vecs.append(_unit(e[2]))
    for _ in range(2):
        vecs.append(_unit(e[5]))
    sf = _write_embeddings(tmp_path, vecs)
    out = semdedup_prune(sf, num_centroids=4, threshold=0.95)
    assert int(out["n"].sum()) == len(vecs)
    assert int(out["n_pruned"].sum()) == 4 + 0 + 1 + 1
    # determinism (seeded centroids, hash-free keep rule)
    out2 = semdedup_prune(sf, num_centroids=4, threshold=0.95)
    import pandas as pd

    pd.testing.assert_frame_equal(out, out2)


def test_semdedup_chunk_cap(ray_session, tmp_path):
    """max_cluster chunking bounds the pairwise block: 5 identical vectors
    with cap 3 dedup within chunks only -> 2 kept (documented recall
    trade, never an n^2 blowup)."""
    import numpy as np

    from q_digest_ray.pipelines.queries import semdedup_prune

    d = 8
    vecs = [_unit(np.eye(d)[0])] * 5 + [_unit(np.eye(d)[1])]
    sf = _write_embeddings(tmp_path, vecs)
    out = semdedup_prune(sf, num_centroids=2, threshold=0.95, max_cluster=3)
    assert int(out["n_pruned"].sum()) == 3  # chunks of 3+2 keep one each


# ---------------------------------------------------------------------------
# incremental dedup against a persisted key index (r5)
# ---------------------------------------------------------------------------


def _write_docs_lang(tmpdir, texts, langs=None):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "lang": pa.array(langs or ["en"] * len(texts)),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(tmpdir, "documents.parquet"))
    return str(tmpdir)


def test_incremental_dedup_planted(ray_session, tmp_path):
    """Even doc_ids = old corpus, odd = new batch.  doc 1 repeats doc 0
    (cross-batch dup -> dropped); docs 3 and 5 repeat EACH OTHER but no
    old doc (within-new dup -> both kept: against-index semantics only)."""
    from q_digest_ray.pipelines.queries import incremental_dedup

    texts = [
        "shared old and new text zero",   # 0 old
        "shared old and new text zero",   # 1 new -> dup of old
        "old only text two",              # 2 old
        "new twin text",                  # 3 new -> kept (twin is new-only)
        "old only text four",             # 4 old
        "new twin text",                  # 5 new -> kept
        "old only text six",              # 6 old
        "fresh new text seven",           # 7 new -> kept
    ]
    sf = _write_docs_lang(tmp_path, texts)
    out = incremental_dedup(sf)
    assert out.loc[0, "lang"] == "en"
    assert int(out.loc[0, "n_new"]) == 4
    assert int(out.loc[0, "n_dup_of_old"]) == 1
    assert int(out.loc[0, "n_kept"]) == 3


def test_incremental_dedup_bucket_invariance_and_oracle(ray_session, tmp_path):
    import duckdb
    import pandas as pd

    from q_digest_ray.pipelines.queries import (
        INCREMENTAL_DEDUP_SQL,
        incremental_dedup,
    )

    texts = [f"text number {i % 7} body" for i in range(24)]
    langs = ["en" if i % 3 else "de" for i in range(24)]
    sf = _write_docs_lang(tmp_path, texts, langs)
    a = incremental_dedup(sf, num_buckets=2)
    b = incremental_dedup(sf, num_buckets=5)
    pd.testing.assert_frame_equal(a, b)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf, 'documents.parquet')}'"
    )
    theirs = con.sql(INCREMENTAL_DEDUP_SQL).df()
    pd.testing.assert_frame_equal(a, theirs.astype(
        {"n_new": "int64", "n_dup_of_old": "int64", "n_kept": "int64"}
    ))


def test_key_index_build_and_pruned_lookup(ray_session, tmp_path):
    """build_key_index writes one key file per non-empty bucket + meta;
    dedup_against_index keeps rows in buckets with NO index file and
    filters exact key matches in populated ones."""
    import json

    import pyarrow as pa
    import ray as _ray

    from q_digest_ray.pipelines.export import build_key_index, dedup_against_index

    old = _ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 2, 4], pa.int64()),
                "text": pa.array(["aa", "bb", "cc"]),
            }
        )
    )
    idx = str(tmp_path / "keyidx")
    meta = build_key_index(old, idx, num_buckets=4)
    assert meta["n_keys"] == 3 and meta["num_buckets"] == 4
    with open(os.path.join(idx, "_index.json")) as f:
        assert json.load(f)["n_keys"] == 3
    parts = [p for p in os.listdir(idx) if p.startswith("part-")]
    assert 1 <= len(parts) <= 4
    new = _ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 3, 5, 7], pa.int64()),
                "text": pa.array(["aa", "zz", "cc", "qq"]),
            }
        )
    )
    kept = dedup_against_index(new, idx).to_pandas()
    assert sorted(kept["text"]) == ["qq", "zz"]


# ---------------------------------------------------------------------------
# token-balanced output-shard planning (r5)
# ---------------------------------------------------------------------------


def test_token_balanced_shards_hand_computed(ray_session, tmp_path):
    """8 docs of 10 tokens, target 4 shards -> budget 20 -> 2 docs/shard,
    exercised across unit boundaries (unit_size=3)."""
    from q_digest_ray.pipelines.queries import token_balanced_shards

    texts = [" ".join([f"w{i}{j}" for j in range(10)]) for i in range(8)]
    sf = _write_docs(tmp_path, texts)
    out = token_balanced_shards(sf, target_shards=4, unit_size=3)
    assert out["shard"].tolist() == [0, 1, 2, 3]
    assert out["n_docs"].tolist() == [2, 2, 2, 2]
    assert out["n_tokens"].tolist() == [20, 20, 20, 20]
    assert out["min_doc"].tolist() == [0, 2, 4, 6]
    assert out["max_doc"].tolist() == [1, 3, 5, 7]
    assert all(abs(f - 1.0) < 1e-9 for f in out["fill"])


def test_token_balanced_shards_invariance(ray_session, tmp_path):
    """Same cuts under any bucket count and any unit size (the prefix is a
    pure function of the doc order, not of the partitioning)."""
    import numpy as np
    import pandas as pd

    from q_digest_ray.pipelines.queries import token_balanced_shards

    rng = np.random.Generator(np.random.PCG64(11))
    texts = [" ".join(["tok"] * int(rng.integers(1, 40))) for _ in range(100)]
    sf = _write_docs(tmp_path, texts)
    a = token_balanced_shards(sf, target_shards=7, unit_size=8, num_buckets=2)
    b = token_balanced_shards(sf, target_shards=7, unit_size=33, num_buckets=9)
    pd.testing.assert_frame_equal(a, b)
    # conservation: every doc and token lands in exactly one shard
    assert int(a["n_docs"].sum()) == 100
    assert int(a["n_tokens"].sum()) == sum(len(t.split()) for t in texts)


# ---------------------------------------------------------------------------
# distributed BM25 retrieval (r5)
# ---------------------------------------------------------------------------


def test_bm25_ranking_properties(ray_session, tmp_path):
    """tf monotonicity, length normalization and idf weighting on a
    crafted corpus: more query-term hits rank higher; at equal tf the
    shorter doc wins; a doc matching the RARE term outranks one matching
    the common term at equal tf and length."""
    from q_digest_ray.pipelines.queries import bm25_topk

    filler = "xx yy zz aa bb cc dd ee"
    texts = [
        f"hash hash hash {filler}",          # 0: tf=3
        f"hash hash {filler}",               # 1: tf=2
        f"hash {filler}",                    # 2: tf=1 short
        f"hash {filler} {filler} {filler}",  # 3: tf=1 long
        f"join {filler}",                    # 4: rare term (df=1), same len as 2
        filler,                              # 5: no terms
    ] + [f"pad doc {i} {filler}" for i in range(6, 20)]
    sf = _write_docs(tmp_path, texts)
    out = bm25_topk(sf, terms=("hash", "join"), top=6)
    rank = {int(d): r for r, d in zip(out["rn"], out["doc_id"])}
    assert 5 not in rank  # zero-score docs never surface
    assert rank[0] < rank[1] < rank[2]          # tf monotone
    assert rank[2] < rank[3]                    # shorter doc wins at tf=1
    assert rank[4] < rank[2]                    # rare term beats common (df 1 vs 4)


def test_bm25_oracle_parity_planted(ray_session, tmp_path):
    import duckdb
    import numpy as np
    import pandas as pd

    from q_digest_ray.pipelines.queries import BM25_TOPK_SQL, bm25_topk

    rng = np.random.Generator(np.random.PCG64(5))
    vocab = ["hash", "join", "scan", "a", "b", "c", "d", "e", "f"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 30))))
        for _ in range(60)
    ]
    sf = _write_docs(tmp_path, texts)
    ours = bm25_topk(sf)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf, 'documents.parquet')}'"
    )
    theirs = con.sql(BM25_TOPK_SQL).df()
    pd.testing.assert_frame_equal(
        ours, theirs.astype({"rn": "int64", "doc_id": "int64"})
    )


# ---------------------------------------------------------------------------
# PMI collocations (r5)
# ---------------------------------------------------------------------------


def test_pmi_collocations_ranks_exclusive_pair_highest(ray_session, tmp_path):
    """'alpha beta' only ever co-occur with each other (PMI = ln(Nt^2/(Nb*ca*cb)))
    while 'the of' pairs are frequent but independent -> lower PMI despite
    higher count.  Exact PMI values checked against the closed form."""
    import numpy as np

    from q_digest_ray.pipelines.queries import pmi_collocations

    texts = (
        ["alpha beta"] * 5
        + ["the of the of the of"] * 10
        + ["the x of y the z of w"] * 10
    )
    sf = _write_docs(tmp_path, texts)
    out = pmi_collocations(sf, k=10)
    r = {b: (int(c), float(p)) for b, c, p in zip(out["bigram"], out["cnt"], out["pmi"])}
    assert "alpha beta" in r
    nt = 10 + 60 + 80  # total tokens
    nb = 5 + 50 + 70   # total adjacent pairs
    exp = np.log((5 / nb) / ((5 / nt) * (5 / nt)))
    assert abs(r["alpha beta"][1] - round(exp, 4)) < 1e-9
    # exclusive pair outranks every frequent-but-independent pair
    top_bigram = out.loc[0, "bigram"]
    assert top_bigram == "alpha beta"


def test_pmi_bucket_invariance(ray_session, tmp_path):
    import numpy as np
    import pandas as pd

    from q_digest_ray.pipelines.queries import pmi_collocations

    rng = np.random.Generator(np.random.PCG64(3))
    vocab = ["a", "b", "c", "d", "e", "f", "g"]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(40)]
    sf = _write_docs(tmp_path, texts)
    a = pmi_collocations(sf, k=8, num_buckets=2)
    b = pmi_collocations(sf, k=8, num_buckets=7)
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# chi-square composition audit + maximal dup-span length profile (r5)
# ---------------------------------------------------------------------------


def test_chi2_independent_composition_near_zero(ray_session, tmp_path):
    """A perfectly independent lang x source table has chi2 = 0 exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import chi2_lang_source

    rows = []
    i = 0
    for s in ("s0", "s1"):
        for lang, mult in (("en", 6), ("de", 3)):
            for _ in range(mult * (2 if s == "s1" else 1)):
                rows.append((i, lang, s))
                i += 1
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows]),
            "source": pa.array([r[2] for r in rows]),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    out = chi2_lang_source(str(tmp_path))
    assert float(out["chi2"][0]) == 0.0
    assert int(out["dof"][0]) == 1
    assert float(out["cramers_v"][0]) == 0.0


def test_chi2_skewed_composition_positive(ray_session, tmp_path):
    """Sources with disjoint languages -> maximal association:
    Cramer's V = 1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import chi2_lang_source

    n = 40
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(["en"] * 20 + ["de"] * 20),
            "source": pa.array(["s0"] * 20 + ["s1"] * 20),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    out = chi2_lang_source(str(tmp_path))
    assert abs(float(out["cramers_v"][0]) - 1.0) < 1e-9
    assert float(out["chi2"][0]) == float(n)


def test_dup_span_length_hist_merges_adjacent_shingles(ray_session, tmp_path):
    """A 7-token span shared by two docs produces 3 overlapping dup
    5-shingles that must merge into ONE maximal 7-token run per doc (2
    spans of length 7), not 6 runs of length 5."""
    import pandas as pd

    from q_digest_ray.pipelines.queries import dup_span_length_hist

    span = "a1 a2 a3 a4 a5 a6 a7"
    texts = [
        f"left filler {span} right filler",
        f"other prefix {span} tail bits",
        "unrelated words entirely here now",
    ]
    sf = _write_docs(tmp_path, texts)
    out = dup_span_length_hist(sf)
    assert out["span_len"].tolist() == [7]
    assert out["n_spans"].tolist() == [2]
    # bucket invariance
    out2 = dup_span_length_hist(sf, num_buckets=5)
    pd.testing.assert_frame_equal(out, out2)


def test_trimmed_mean_vs_numpy_reference(ray_session, tmp_path):
    """Histogram-window arithmetic equals the sort-and-slice definition on
    a corpus with heavy outliers and ties across blocks."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import trimmed_mean_nchars_by_lang

    rng = np.random.Generator(np.random.PCG64(17))
    vals = np.concatenate(
        [rng.integers(100, 200, 90), [1, 2, 100000, 200000]]  # 94 rows, outliers
    )
    t = pa.table(
        {
            "doc_id": pa.array(range(len(vals)), pa.int64()),
            "lang": pa.array(["en"] * len(vals)),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    out = trimmed_mean_nchars_by_lang(str(tmp_path))
    n = len(vals)
    k = int(0.05 * n)  # floor, matching both engine and oracle
    ref = np.sort(vals)[k : n - k].mean()
    assert int(out["n_trimmed_each_side"][0]) == k == 4
    assert abs(float(out["trimmed_mean"][0]) - round(ref, 4)) < 1e-9
    # outliers excised: trimmed mean sits in the bulk range
    assert 100 <= float(out["trimmed_mean"][0]) <= 200


def test_round_vec_matches_scalar():
    import numpy as np

    from q_digest_ray.functions.fixedpoint import (
        duckdb_round_double,
        duckdb_round_double_vec,
    )

    rng = np.random.Generator(np.random.PCG64(2))
    xs = np.concatenate([rng.normal(0, 100, 1000), [2.675, -2.675, 0.00005, -0.00005, 0.0]])
    v = duckdb_round_double_vec(xs, 4)
    for x, got in zip(xs, v):
        assert got == duckdb_round_double(float(x), 4)


def test_ngram_contamination_fallback_parity(ray_session, tmp_path):
    """pair_gate=0 forces the bucketed distinct-census fallback; output must
    equal the driver-side gate path exactly."""
    import pandas as pd

    from q_digest_ray.pipelines.queries import ngram_contamination

    span = "one two three four five"
    texts = [f"doc {i} filler words distinct token{i} stream" for i in range(30)]
    texts[0] = f"train carrier {span} end"
    texts[2] = f"val hit {span} tail"
    texts[14] = f"test hit {span} also"
    sf = _write_docs(tmp_path, texts)
    a = ngram_contamination(sf)
    b = ngram_contamination(sf, pair_gate=0)
    pd.testing.assert_frame_equal(a, b)
    assert int(a[a["split"] == "val"]["n_contaminated"].iloc[0]) == 1
    assert int(a[a["split"] == "test"]["n_contaminated"].iloc[0]) == 1


def test_sk_dedup_preview_band(ray_session, tmp_path):
    """KMV dup-rate preflight lands within its 3-sigma band on a corpus
    with a planted 60% dup rate (1000 docs, 400 distinct texts)."""
    import numpy as np

    from q_digest_ray.pipelines.queries import sk_dedup_preview

    texts = [f"distinct body text number {i % 400} with padding" for i in range(1000)]
    sf = _write_docs(tmp_path, texts)
    out = sk_dedup_preview(sf, k=1024)
    assert int(out["n_docs"][0]) == 1000
    est = int(out["distinct_est"][0])
    band = 3 * 400 / np.sqrt(1024 - 2)
    assert abs(est - 400) <= band
    assert abs(float(out["est_dup_rate"][0]) - 0.6) <= band / 1000 + 1e-9


def test_bm25_null_text_oracle_parity(ray_session, tmp_path):
    """NULL-text rows must be excluded from N and avgdl on BOTH sides
    (regression: Ray counted them as length-0 docs while the oracle's
    avg(dl) skipped them — scores diverged on any corpus with NULLs)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import BM25_TOPK_SQL, bm25_topk

    rng = np.random.Generator(np.random.PCG64(5))
    vocab = ["hash", "join", "scan", "a", "b", "c"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 20)))) for _ in range(40)
    ]
    texts[3] = None
    texts[17] = None
    t = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    ours = bm25_topk(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(str(tmp_path), 'documents.parquet')}'"
    )
    theirs = con.sql(BM25_TOPK_SQL).df()
    pd.testing.assert_frame_equal(
        ours, theirs.astype({"rn": "int64", "doc_id": "int64"})
    )


def test_dup_group_size_hist_planted(ray_session, tmp_path):
    """12 docs: one text x5, one x3, four singletons -> hist {1:4, 3:1, 5:1};
    bucket-invariant and total-conserving."""
    import duckdb
    import pandas as pd

    from q_digest_ray.pipelines.queries import (
        DUP_GROUP_SIZE_HIST_SQL,
        dup_group_size_hist,
    )

    texts = ["five times text"] * 5 + ["three times text"] * 3 + [
        f"single {i}" for i in range(4)
    ]
    sf = _write_docs(tmp_path, texts)
    out = dup_group_size_hist(sf)
    assert out.set_index("group_size")["n_groups"].to_dict() == {1: 4, 3: 1, 5: 1}
    assert int((out["group_size"] * out["n_groups"]).sum()) == len(texts)
    out2 = dup_group_size_hist(sf, num_buckets=7)
    pd.testing.assert_frame_equal(out, out2)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf, 'documents.parquet')}'"
    )
    theirs = con.sql(DUP_GROUP_SIZE_HIST_SQL).df()
    pd.testing.assert_frame_equal(
        out, theirs.astype({"group_size": "int64", "n_groups": "int64"})
    )


def test_mixture_resample_exact_integer_thresholds(ray_session, tmp_path):
    """Scarcest lang keeps EVERY doc (rate 1.0); downsampled langs match
    the oracle's HUGEINT product comparison exactly; kept counts land
    within 4 sigma of n_min under the hash's uniformity."""
    import duckdb
    import numpy as np
    import pandas as pd

    from q_digest_ray.pipelines.queries import (
        MIXTURE_RESAMPLE_SQL,
        mixture_resample,
    )

    langs = ["en"] * 300 + ["de"] * 50 + ["fr"] * 120
    texts = [f"doc {i}" for i in range(len(langs))]
    sf = _write_docs_lang(tmp_path, texts, langs)
    out = mixture_resample(sf)
    r = out.set_index("lang")
    assert int(r.loc["de", "n_kept"]) == 50  # scarcest keeps all
    for lang in ("en", "fr"):
        n, kept = int(r.loc[lang, "n_docs"]), int(r.loc[lang, "n_kept"])
        p = 50 / n
        assert abs(kept - 50) <= 4 * np.sqrt(n * p * (1 - p)) + 1
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf, 'documents.parquet')}'"
    )
    theirs = con.sql(MIXTURE_RESAMPLE_SQL).df()
    pd.testing.assert_frame_equal(
        out, theirs.astype({"n_docs": "int64", "n_kept": "int64"})
    )


def test_cohort_retention_crafted(ray_session, tmp_path):
    """Hand-built event log: user 1 active days 0,1,7; user 2 days 0,1;
    user 3 day 1 only -> cohort day0 has {0:2, 1:2, 7:1}, cohort day1 has
    {0:1}.  Multiple same-day events collapse (distinct user-day)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import cohort_retention

    DAY = 86_400_000_000
    rows = [  # (user, day, n_events_that_day)
        (1, 0, 3), (1, 1, 1), (1, 7, 2),
        (2, 0, 1), (2, 1, 1),
        (3, 1, 4),
    ]
    uid, ts = [], []
    for u, d, k in rows:
        for j in range(k):
            uid.append(u)
            ts.append(d * DAY + j * 1000 + u)
    t = pa.table(
        {
            "event_id": pa.array(range(len(uid)), pa.int64()),
            "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            "user_id": pa.array(uid, pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    out = cohort_retention(str(tmp_path))
    got = {
        (r["cohort_day"], int(r["day_offset"])): int(r["n_users"])
        for _, r in out.iterrows()
    }
    assert got == {
        ("1970-01-01", 0): 2,
        ("1970-01-01", 1): 2,
        ("1970-01-01", 7): 1,
        ("1970-01-02", 0): 1,
    }
    out2 = cohort_retention(str(tmp_path), num_buckets=5)
    pd.testing.assert_frame_equal(out, out2)


def test_active_users_daily_crafted(ray_session, tmp_path):
    """Hand-built log: u1 active days 0,3; u2 day 0 only; u3 day 8.
    DAU(0)=2, DAU(3)=1, DAU(8)=1; WAU7(3) counts u1 ONCE + u2 = 2
    (window 0..3 spans both of u1's days); WAU7(8) = 2 — window [2, 8]
    still reaches u1's day-3 activity, u2's day 0 aged out."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import active_users_daily

    DAY = 86_400_000_000
    rows = [(1, 0), (1, 0), (1, 3), (2, 0), (3, 8)]
    t = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "ts": pa.array(
                np.array([d * DAY + u for u, d in rows], np.int64),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([u for u, _ in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    out = active_users_daily(str(tmp_path))
    got = {r["day"]: (int(r["dau"]), int(r["wau7"])) for _, r in out.iterrows()}
    assert got == {
        "1970-01-01": (2, 2),
        "1970-01-04": (1, 2),
        "1970-01-09": (1, 2),
    }
    assert abs(float(out[out["day"] == "1970-01-04"]["stickiness"].iloc[0]) - 0.5) < 1e-9
    out2 = active_users_daily(str(tmp_path), num_buckets=5)
    pd.testing.assert_frame_equal(out, out2)


def test_gini_closed_forms(ray_session, tmp_path):
    """Uniform counts -> Gini 0; one dominant user -> near the
    (n-1)/n * dominant-share upper shape; exact vs a numpy sort-based
    reference on a random histogram."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from q_digest_ray.pipelines.queries import gini_user_activity

    def write_events(tmpdir, per_user_counts):
        uid, i = [], 0
        for u, k in enumerate(per_user_counts):
            uid += [u] * int(k)
        t = pa.table(
            {
                "event_id": pa.array(range(len(uid)), pa.int64()),
                "ts": pa.array(
                    np.arange(len(uid), dtype=np.int64), pa.timestamp("us")
                ),
                "user_id": pa.array(uid, pa.int64()),
            }
        )
        pq.write_table(t, os.path.join(tmpdir, "events.parquet"))
        return tmpdir

    d1 = str(tmp_path / "uniform"); os.makedirs(d1)
    out = gini_user_activity(write_events(d1, [5] * 20))
    assert float(out["gini"][0]) == 0.0

    rng = np.random.Generator(np.random.PCG64(9))
    counts = rng.integers(1, 50, size=40)
    d2 = str(tmp_path / "rand"); os.makedirs(d2)
    out = gini_user_activity(write_events(d2, counts))
    x = np.sort(counts).astype(np.float64)
    n = len(x)
    ref = 2 * (np.arange(1, n + 1) * x).sum() / (n * x.sum()) - (n + 1) / n
    assert abs(float(out["gini"][0]) - round(ref, 6)) < 1e-9
