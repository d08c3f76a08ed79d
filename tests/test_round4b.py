"""Round-4 second-slate tests: moment-merge statistics, outer-join
histogram, Q3-style multiway join, pivot/entropy, lag gaps, set
intersection — partitioning invariance (results must not depend on the
bucket count B) and shape checks beyond the oracle-slice parity."""

import math
import pandas as pd
import pytest

from q_digest_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"


def _eq(a: pd.DataFrame, b: pd.DataFrame):
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True), check_dtype=False
    )


def test_cust_order_count_dist_bucket_invariance(ray_session):
    a = Q.cust_order_count_dist(SF, num_buckets=2)
    b = Q.cust_order_count_dist(SF, num_buckets=16)
    _eq(a, b)
    # every customer is accounted for exactly once
    import pyarrow.parquet as pq

    n_cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).num_rows
    assert int(a["n_customers"].sum()) == n_cust


def test_inter_event_gaps_bucket_invariance(ray_session):
    a = Q.inter_event_gaps(SF, num_buckets=2)
    b = Q.inter_event_gaps(SF, num_buckets=32)
    _eq(a, b)
    assert (a["avg_gap_s"] > 0).all()
    assert (a["max_gap_s"] >= a["avg_gap_s"]).all()


def test_shipping_priority_bucket_invariance(ray_session):
    a = Q.shipping_priority(SF, num_buckets=2)
    b = Q.shipping_priority(SF, num_buckets=16)
    _eq(a, b)
    assert len(a) <= 10
    # revenue sorted descending, rounded to cents
    assert (a["revenue"].to_numpy()[:-1] >= a["revenue"].to_numpy()[1:]).all()


def test_users_all_types_bucket_invariance(ray_session):
    a = Q.users_all_types(SF, num_buckets=2)
    b = Q.users_all_types(SF, num_buckets=16)
    assert int(a["n_users"][0]) == int(b["n_users"][0])


def test_corr_moments_match_pandas(ray_session):
    """The exact-integer moment merge reproduces textbook corr/stddev."""
    import pyarrow.parquet as pq

    got = Q.corr_quantity_price(SF)
    df = pq.read_table(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).to_pandas()
    for _, row in got.iterrows():
        g = df[df["l_returnflag"] == row["l_returnflag"]]
        assert row["n"] == len(g)
        assert row["corr_qp"] == pytest.approx(
            g["l_quantity"].corr(g["l_extendedprice"]), abs=2e-6
        )
        assert row["sd_qty"] == pytest.approx(g["l_quantity"].std(), abs=2e-6)


def test_entropy_bounds(ray_session):
    """0 <= H <= log2(n_langs) for every source."""
    import numpy as np

    got = Q.source_lang_entropy(SF)
    assert (got["lang_entropy"] >= 0).all()
    assert (got["lang_entropy"] <= np.log2(got["n_langs"].clip(lower=2))).all()


def test_event_pair_counts_bucket_invariance(ray_session):
    a = Q.event_pair_counts(SF, num_buckets=2)
    b = Q.event_pair_counts(SF, num_buckets=32)
    _eq(a, b)
    assert (a["n_pairs"] > 0).any()


def test_event_pair_counts_window_monotone(ray_session):
    """A wider window can only add pairs."""
    narrow = Q.event_pair_counts(SF, window_s=600)["n_pairs"].sum()
    wide = Q.event_pair_counts(SF, window_s=7200)["n_pairs"].sum()
    assert wide >= narrow


def test_user_first_last_bucket_invariance(ray_session):
    a = Q.user_first_last(SF, num_buckets=2)
    b = Q.user_first_last(SF, num_buckets=16)
    _eq(a, b)
    assert (a["n_events"] >= 1).all()


def test_funnel_bucket_invariance_and_ordering(ray_session):
    a = Q.funnel_conversion(SF, num_buckets=2)
    b = Q.funnel_conversion(SF, num_buckets=16)
    _eq(a, b)
    # converted is a subset of both funnel stages
    assert int(a["n_converted"][0]) <= min(int(a["n_signup"][0]), int(a["n_purchase"][0]))


def test_weighted_quantile_cont_matches_numpy():
    """The interpolating weighted quantile equals numpy's quantile on the
    expanded sample (DuckDB quantile_cont semantics)."""
    import numpy as np

    rng = np.random.default_rng(7)
    vals = np.sort(rng.integers(0, 50, size=12)).astype(np.float64)
    v, w = np.unique(vals, return_counts=True)
    for q in (0.0, 0.25, 0.5, 0.77, 1.0):
        got = Q._weighted_quantile_cont(v, w.astype(np.int64), q)
        assert got == pytest.approx(np.quantile(vals, q), abs=1e-12)


def test_profile_table_generalizes_to_any_table(ray_session):
    """The library operator profiles an arbitrary Dataset (orders), with
    float and timestamp columns, matching pandas ground truth."""
    import pyarrow.parquet as pq

    from q_digest_ray.sources.tables import read_table
    from q_digest_ray.stages.profile import profile_table

    cols = ["o_orderkey", "o_totalprice", "o_orderpriority"]
    ds = read_table(SF, "orders", columns=cols)
    prof = profile_table(ds, cols).set_index("col_name")
    df = pq.read_table(f"{SF}/orders.parquet", columns=cols).to_pandas()
    for c in cols:
        assert prof.loc[c, "n_distinct"] == df[c].nunique()
        assert prof.loc[c, "n_rows"] == len(df)
        assert prof.loc[c, "n_nulls"] == int(df[c].isna().sum())
    # float column: numeric min/max + mean
    assert float(prof.loc["o_totalprice", "min_s"]) == pytest.approx(df["o_totalprice"].min())
    assert prof.loc["o_totalprice", "mean"] == pytest.approx(df["o_totalprice"].mean(), abs=1e-3)
    # string column: lexicographic min/max, no mean
    assert prof.loc["o_orderpriority", "min_s"] == df["o_orderpriority"].min()
    assert prof.loc["o_orderpriority", "mean"] is None or pd.isna(prof.loc["o_orderpriority", "mean"])


def test_table_profile_distinct_matches_pandas(ray_session):
    import pyarrow.parquet as pq

    prof = Q.table_profile(SF).set_index("col_name")
    df = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    for col in ["doc_id", "lang", "source", "n_chars", "text"]:
        assert prof.loc[col, "n_distinct"] == df[col].nunique()
        assert prof.loc[col, "n_rows"] == len(df)


def test_conversion_latency_bucket_invariance(ray_session):
    a = Q.conversion_latency(SF, num_buckets=2)
    b = Q.conversion_latency(SF, num_buckets=16)
    _eq(a, b)
    if int(a["n_converted"][0]) > 0:
        assert a["min_delay_s"][0] <= a["avg_delay_s"][0] <= a["max_delay_s"][0]
        # converted count consistent with the funnel query
        f = Q.funnel_conversion(SF)
        assert int(a["n_converted"][0]) == int(f["n_converted"][0])


def test_sk_hll_users_by_type_within_bound(ray_session):
    """Grouped HLL distinct estimates land within 3σ of the exact grouped
    distinct counts (σ ≈ 1.04/√m, m = 2^12)."""
    est = Q.sk_hll_users_by_type(SF)
    est = est[est["stat"] == "distinct_estimate"].set_index("group_key")["value"]
    exact = Q.distinct_users_by_type(SF).set_index("event_type")["n_users"]
    rel = 3 * 1.04 / (2**12) ** 0.5
    for et, n in exact.items():
        assert abs(est[et] - n) <= max(rel * n, 3.0)


def test_sk_profile_matches_exact_profile(ray_session):
    """The one-pass sketch profile tracks table_profile's exact distinct
    counts within the HLL bound — the scale-path equivalence claim."""
    prof = Q.table_profile(SF).set_index("col_name")["n_distinct"]
    sk = Q.sk_profile(SF)
    hll = sk[sk["stat"] == "distinct_estimate"].set_index("metric")["value"]
    rel = 3 * 1.04 / (2**12) ** 0.5
    for col in ["doc_id", "text", "lang", "source", "n_chars"]:
        n = int(prof[col])
        assert abs(hll[f"{col}_hll"] - n) <= max(rel * n, 3.0)


def test_pivot_totals_match_lang_counts(ray_session):
    """Pivot column sums must equal the global per-lang counts."""
    mat = Q.lang_source_matrix(SF)
    counts = Q.lang_counts(SF).set_index("lang")["cnt"]
    for lang in ["de", "en", "es", "fr", "zh"]:
        assert int(mat[f"n_{lang}"].sum()) == int(counts.get(lang, 0))
    assert (mat[[f"n_{l}" for l in ["de", "en", "es", "fr", "zh"]]].sum(axis=1) == mat["total"]).all()


def test_catalog_registry_consistency():
    """Every oracle key has a query, no name appears in both registries,
    and every query the benchmark's sketch_queries workload runs exists."""
    from perfbench.workloads import SketchQueries
    from q_digest_ray.pipelines.queries import EXACT_QUERIES, SKETCH_QUERIES

    overlap = set(EXACT_QUERIES) & set(SKETCH_QUERIES)
    assert not overlap, overlap
    for name, (fn, sql) in EXACT_QUERIES.items():
        assert callable(fn) and isinstance(sql, str) and sql.strip(), name
    for name in SketchQueries.MIX:
        assert name in SKETCH_QUERIES, name


def test_event_pair_counts_matches_bruteforce(ray_session, tmp_path):
    """Randomized differential: the composite-key searchsorted pair
    emission equals the O(n²) brute force on a random corpus with ts
    ties and singleton users."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(42)
    n = 400
    uid = rng.integers(0, 40, size=n)
    base = np.datetime64("2024-01-01", "us").astype("int64")
    ts = base + rng.integers(0, 3 * 3600 * 1_000_000, size=n)
    ts[10] = ts[11]  # force a tie within a user
    uid[10] = uid[11]
    types = np.array(["a", "b", "c"])[rng.integers(0, 3, size=n)]
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n)),
            "user_id": pa.array(uid),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "event_type": pa.array(types),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))

    W = 1800
    got = Q.event_pair_counts(str(tmp_path), num_buckets=4, window_s=W)

    from collections import Counter

    brute = Counter()
    for i in range(n):
        for j in range(n):
            if (
                uid[i] == uid[j]
                and ts[j] > ts[i]
                and ts[j] <= ts[i] + W * 1_000_000
            ):
                brute[(types[i], types[j])] += 1
    got_map = {(r.t1, r.t2): r.n_pairs for r in got.itertuples()}
    assert got_map == dict(brute)


def test_cms_inner_product_bound():
    """CMS inner-product join-size estimate: never underestimates, and
    overcount stays within eps * n1 * n2."""
    import numpy as np

    from q_digest_ray.sketches.cms import CountMinSketch

    rng = np.random.default_rng(3)
    a_keys = rng.integers(0, 500, size=20_000)
    b_keys = rng.integers(0, 500, size=30_000)
    ca = CountMinSketch(depth=5, width=1 << 14)
    cb = CountMinSketch(depth=5, width=1 << 14)
    ca.update_batch(a_keys)
    cb.update_batch(b_keys)
    # exact inner product of frequency vectors
    fa = np.bincount(a_keys, minlength=500)
    fb = np.bincount(b_keys, minlength=500)
    exact = int((fa.astype(np.int64) * fb.astype(np.int64)).sum())
    est = ca.inner_product(cb)
    assert est >= exact
    assert est - exact <= ca.eps * len(a_keys) * len(b_keys)

    # mismatched shapes refused
    import pytest as _pytest

    with _pytest.raises(ValueError):
        ca.inner_product(CountMinSketch(depth=4, width=1 << 14))


def test_sk_join_size_estimate_quality(ray_session):
    """Distributed CMS join-size estimate vs the exact semi-join count."""
    out = Q.sk_join_size_estimate(SF)
    est, exact = int(out["join_size_est"][0]), int(out["join_size_exact"][0])
    assert est >= exact  # one-sided overcount
    n1, n2 = int(out["n_orders"][0]), int(out["n_lineitems"][0])
    assert est - exact <= math.e / (1 << 15) * n1 * n2


def test_sk_skew_f2(ray_session):
    """F2 self-inner-product skew probe: one-sided overcount within bound,
    skew ratio >= ~1 (uniform baseline)."""
    out = Q.sk_skew_f2(SF)
    est, exact = int(out["f2_est"][0]), int(out["f2_exact"][0])
    n = int(out["n_events"][0])
    assert est >= exact
    assert est - exact <= math.e / (1 << 15) * n * n
    assert float(out["skew_ratio_exact"][0]) >= 0.99


def test_weighted_sample_partition_invariance_and_bias(ray_session, tmp_path):
    """Efraimidis-Spirakis weighted sample: identical under any layout,
    and heavier docs are sampled far more often than light ones."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    a = Q.weighted_sample_docs(SF, k=20)
    b = Q.weighted_sample_docs(SF, k=20)
    _eq(a, b)  # deterministic
    assert len(a) == 20 and a["doc_id"].is_unique

    # controlled corpus: 1000 docs, 100 with weight 100x the rest;
    # heavy docs must dominate a k=100 sample
    n = 1000
    heavy = np.zeros(n, bool)
    heavy[:100] = True
    nc = np.where(heavy, 5000, 50).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n)),
            "text": pa.array(["x"] * n),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["s"] * n),
            "n_chars": pa.array(nc),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    s = Q.weighted_sample_docs(str(tmp_path), k=100)
    frac_heavy = (s["doc_id"] < 100).mean()
    # heavy docs are 10% of corpus but ~100x weight: expect >> 10%
    assert frac_heavy > 0.5


def test_dup_spans_planted_and_bucket_invariance(ray_session, tmp_path):
    """Planted duplicated 5-word span must surface with exact counts;
    result independent of bucket count; non-duplicated spans excluded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    span = "the quick brown fox jumps"
    docs = [
        f"alpha {span} beta gamma",        # doc 0: 1 occurrence
        f"{span} and {span} again",        # doc 1: 2 occurrences
        "completely unrelated text here",  # doc 2: none
        f"tail words then {span}",         # doc 3: 1 occurrence
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["s"] * 4),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.dup_spans(str(tmp_path), num_buckets=2)
    row = out[out["shingle"] == span]
    assert len(row) == 1
    assert int(row["n_docs"].iloc[0]) == 3
    assert int(row["occurrences"].iloc[0]) == 4
    # spans occurring in only one doc never appear
    assert (out["n_docs"] >= 2).all()

    a = Q.dup_spans(SF, num_buckets=3)
    b = Q.dup_spans(SF, num_buckets=17)
    _eq(a, b)


def test_sequence_pack_stats_planted_and_layout_invariance(ray_session, tmp_path):
    """Hand-computed packing over 2 streams at L=4, and the result must be
    identical whether the corpus is one parquet file or split in two."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = ["a b c", "a b c d e", "a b", "a"]  # 3,5,2,1 tokens
    rows = {
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }
    one = tmp_path / "one"
    two = tmp_path / "two"
    for d in (one, two):
        d.mkdir()
    t = pa.table(rows)
    pq.write_table(t, str(one / "documents.parquet"))
    (two / "documents.parquet").mkdir()
    pq.write_table(t.slice(0, 2), str(two / "documents.parquet" / "p0.parquet"))
    pq.write_table(t.slice(2, 2), str(two / "documents.parquet" / "p1.parquet"))

    a = Q.sequence_pack_stats(str(one), context_len=4, num_buckets=2)
    # bucket0 (even ids): t=[3,2] -> tot 5, 2 seqs, doc2 crosses; bucket1
    # (odd): t=[5,1] -> tot 6, 2 seqs, doc1 crosses
    assert a.iloc[0].to_dict() == {
        "context_len": 4, "n_docs": 4, "total_tokens": 11, "n_sequences": 4,
        "crossing_docs": 2, "tail_waste": 5, "avg_fill": 0.6875,
    }
    b = Q.sequence_pack_stats(str(two), context_len=4, num_buckets=2)
    _eq(a, b)


def test_gopher_quality_flags_planted(ray_session, tmp_path):
    """Each rule must fail exactly the doc engineered to fail it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = ("the a data " + "word " * 37).strip()     # 40 toks, passes all
    docs = [
        base,
        "the a short",                                  # fails wc (3 toks)
        ("the a " + "x " * 38).strip(),                 # mean len < 3
        ("the a " + "99999 " * 38).strip(),             # alpha frac 2/40 < .8
        ("word " * 40).strip(),                         # only 0 stopwords
        "",                                             # empty: fails all
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * len(docs)),
            "source": pa.array(["s"] * len(docs)),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.gopher_quality_flags(str(tmp_path))
    r = out.iloc[0]
    assert r["n_docs"] == 6
    assert r["wc_pass"] == 4       # docs 0,2,3,4
    assert r["mwl_pass"] == 4      # docs 0,1,3,4 (doc2 mean 2.05, doc3 4.8)
    assert r["alpha_pass"] == 4    # docs 0,1,2,4
    assert r["stop_pass"] == 4     # docs 0,1,2,3
    assert r["all_pass"] == 1      # only doc 0


def test_sk_drift_monitor_bounds(ray_session):
    """Per-half counts and MG shares are exact vs DuckDB (type cardinality
    << k); HLL within 3-sigma; KLL quantiles within rank-error band."""
    import duckdb

    out = Q.sk_drift_monitor(SF).set_index("metric")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    halves = con.execute("""
WITH mm AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts)))//2 AS mid FROM events)
SELECT CASE WHEN epoch_us(ts) <= (SELECT mid FROM mm) THEN 'A' ELSE 'B' END AS half,
       count(*) AS n, count(DISTINCT user_id) AS du
FROM events GROUP BY 1 ORDER BY 1""").df().set_index("half")
    assert out.loc["n_events", "half_a"] == halves.loc["A", "n"]
    assert out.loc["n_events", "half_b"] == halves.loc["B", "n"]
    for col, h in (("half_a", "A"), ("half_b", "B")):
        est, exact = out.loc["distinct_users", col], halves.loc[h, "du"]
        assert abs(est - exact) <= 3 * 1.04 / (2 ** 6) * exact + 1  # p=12
    # MG with cardinality << k is exact; share rows match to rounding
    exact = con.execute("""
WITH mm AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts)))//2 AS mid FROM events),
h AS (SELECT event_type, CASE WHEN epoch_us(ts) <= (SELECT mid FROM mm)
      THEN 'A' ELSE 'B' END AS half FROM events)
SELECT event_type, half, count(*) AS c FROM h GROUP BY 1, 2""").df()
    tot = exact.groupby("half")["c"].sum().to_dict()
    for _, r in exact.iterrows():
        got = out.loc[f"share_{r['event_type']}",
                      "half_a" if r["half"] == "A" else "half_b"]
        assert abs(got - r["c"] / tot[r["half"]]) < 1e-5
    # KLL quantile rank check: reported pXX sits within +-3% true rank
    for q, name in ((0.5, "value_p50_cents"), (0.9, "value_p90_cents")):
        for col, h in (("half_a", "A"), ("half_b", "B")):
            est = out.loc[name, col]
            rank = con.execute(f"""
WITH mm AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts)))//2 AS mid FROM events),
h AS (SELECT round(value*100) AS v FROM events
      WHERE (CASE WHEN epoch_us(ts) <= (SELECT mid FROM mm)
             THEN 'A' ELSE 'B' END) = '{h}')
SELECT avg(CASE WHEN v <= {est} THEN 1.0 ELSE 0.0 END) FROM h""").fetchone()[0]
            assert abs(rank - q) <= 0.03, (name, h, rank)


def test_dup_spans_empty_and_weighted_sample_small_corpus(ray_session, tmp_path):
    """No duplicated span -> empty frame with stable schema; weighted
    sample with k > corpus returns every doc exactly once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = ["one two three four five six", "alpha beta gamma delta epsilon zeta"]
    t = pa.table(
        {
            "doc_id": pa.array(range(2), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * 2),
            "source": pa.array(["s"] * 2),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.dup_spans(str(tmp_path), num_buckets=2)
    assert len(out) == 0
    assert list(out.columns) == ["rn", "shingle", "n_docs", "occurrences"]

    s = Q.weighted_sample_docs(str(tmp_path), k=50)
    assert len(s) == 2 and s["doc_id"].is_unique


def test_mixture_weights_uniformizes(ray_session):
    """Scarcest lang samples at rate 1.0; expected post-sampling counts are
    (near-)equal across langs — the uniform-mixture contract."""
    out = Q.mixture_weights(SF)
    assert out["sample_rate"].max() == 1.0
    assert (out["sample_rate"] > 0).all()
    exp = out["expected_docs"].to_numpy()
    assert exp.max() - exp.min() <= 1  # floor(+0.5) rounding only
    # the lang with the fewest docs is the one sampling at 1.0
    assert (
        out.loc[out["sample_rate"].idxmax(), "n_docs"] == out["n_docs"].min()
    )


def test_compression_ratio_discriminates(ray_session, tmp_path):
    """Repetitive text must compress far below natural-looking text, and
    the stats must be deterministic across runs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(42)
    natural = " ".join(
        "".join(chr(97 + c) for c in rng.integers(0, 26, size=8))
        for _ in range(60)
    )
    docs = [("spam spam " * 40).strip(), natural]
    t = pa.table(
        {
            "doc_id": pa.array(range(2), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["rep", "nat"]),
            "source": pa.array(["s"] * 2),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.compression_ratio_stats(str(tmp_path)).set_index("lang")
    assert out.loc["rep", "mean_ratio"] < 0.2 < out.loc["nat", "mean_ratio"]
    a = Q.compression_ratio_stats(SF)
    b = Q.compression_ratio_stats(SF)
    _eq(a, b)
    assert (a["min_ratio"] <= a["mean_ratio"]).all()
    assert (a["mean_ratio"] <= a["max_ratio"]).all()


def test_padding_waste_bucketing_helps(ray_session):
    """Both strategies see the same tokens; length-bucketing strictly cuts
    padding waste on this corpus; fractions well-formed."""
    out = Q.padding_waste_stats(SF).set_index("strategy")
    assert out.loc["naive", "total_tokens"] == out.loc["bucketed", "total_tokens"]
    assert 0 <= out.loc["bucketed", "waste_frac"] < out.loc["naive", "waste_frac"] < 1
    _eq(Q.padding_waste_stats(SF), Q.padding_waste_stats(SF))


def test_dup_spans_scalable_parity(ray_session, tmp_path):
    """The hash-form two-pass variant is byte-identical to the string-form
    single-pass query, on the planted corpus and under any bucket count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    span = "the quick brown fox jumps"
    docs = [
        f"alpha {span} beta gamma",
        f"{span} and {span} again",
        "completely unrelated text here",
        f"tail words then {span}",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["s"] * 4),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    _eq(Q.dup_spans(str(tmp_path), num_buckets=2),
        Q.dup_spans_scalable(str(tmp_path), num_buckets=2))
    _eq(Q.dup_spans(SF, num_buckets=5),
        Q.dup_spans_scalable(SF, num_buckets=3))


def test_sk_sliding_quantiles_conservation_and_rank(ray_session):
    """Window n equals the exact 3-hour event count (merge preserves
    counts); sliding p50 sits within the Q-Digest rank band of the exact
    window median."""
    import duckdb

    out = Q.sk_sliding_quantiles(SF)
    assert len(out) > 0
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    hourly = con.execute("""
SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00') AS w,
       count(*) AS n, list(round(value*100)) AS vals
FROM events GROUP BY 1 ORDER BY 1""").df().set_index("w")
    keys = list(hourly.index)
    import numpy as np

    for _, r in out.iterrows():
        i = keys.index(r["window_end"])
        members = keys[i - 2 : i + 1]
        assert r["n"] == int(hourly.loc[members, "n"].sum())
        vals = np.sort(np.concatenate(hourly.loc[members, "vals"].to_list()))
        est = r["p50_cents"]
        rank = (vals <= est).mean()
        assert abs(rank - 0.5) <= 16 / 64 / 2 + 0.05  # eps = log2(U)/k


def test_curation_v2_planted_dups_and_lang_attribution(ray_session, tmp_path):
    """Duplicates collapse to the min-doc survivor; lang and gates follow
    the survivor; member counts absorb the dups; bucket-invariant."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    good = ("the a data " + "word " * 37).strip()   # passes all gates
    bad = "too short"
    docs = [
        (0, good, "en"), (1, good, "de"), (2, good, "de"),  # survivor doc0/en
        (3, bad, "fr"), (4, bad, "fr"),                      # survivor doc3/fr
        (5, "the a unique " + "tok " * 37, "zh"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
            "lang": pa.array([d[2] for d in docs]),
            "source": pa.array(["s"] * len(docs)),
            "n_chars": pa.array([len(d[1]) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.curation_v2_stats(str(tmp_path), num_buckets=2).set_index("lang")
    assert "de" not in out.index            # both de docs were dups of doc0
    assert out.loc["en", "n_unique"] == 1
    assert out.loc["en", "n_members"] == 3  # absorbed the two de dups
    assert out.loc["en", "n_pass"] == 1
    assert out.loc["fr", "n_unique"] == 1
    assert out.loc["fr", "n_members"] == 2
    assert out.loc["fr", "n_pass"] == 0     # 'too short' fails gates
    assert out.loc["zh", "n_pass"] == 1
    _eq(
        Q.curation_v2_stats(str(tmp_path), num_buckets=2).reset_index(drop=True),
        Q.curation_v2_stats(str(tmp_path), num_buckets=7).reset_index(drop=True),
    )


def test_ann_pq_recall_and_determinism(ray_session):
    """PQ-ADC with exact rerank: high recall vs brute force; cosines of
    overlapping ids are exactly the brute-force cosines (rerank is exact);
    deterministic across runs."""
    pq_out = Q.ann_pq_topk(SF)
    bf = Q.ann_topk(SF).set_index("vec_id")["cos_sim"]
    hit = [v for v in pq_out["vec_id"] if v in bf.index]
    assert len(hit) >= 7  # recall@10 >= 0.7 on the tiny corpus
    got = pq_out.set_index("vec_id")["cos_sim"]
    for v in hit:
        assert got[v] == bf[v]
    _eq(pq_out, Q.ann_pq_topk(SF))


def test_curation_v2_string_ids(ray_session, tmp_path):
    """The library operator works over string ids (cc_pages shape): the
    survivor is the lexicographic-min id."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as _ray

    good = ("the a data " + "word " * 37).strip()
    t = pa.table(
        {
            "url": pa.array(["http://b.com/1", "http://a.com/2", "http://c.com/3"]),
            "lang": pa.array(["en", "de", "fr"]),
            "text": pa.array([good, good, "unique text here"]),
        }
    )
    p = tmp_path / "cc.parquet"
    pq.write_table(t, str(p))
    from q_digest_ray.pipelines.export import curation_v2

    out = curation_v2(
        _ray.data.read_parquet(str(p)), "url", "lang", "text", num_buckets=2
    ).set_index("lang")
    # survivor of the dup pair is http://a.com/2 -> lang de
    assert "en" not in out.index
    assert out.loc["de", "n_members"] == 2 and out.loc["de", "n_pass"] == 1
    assert out.loc["fr", "n_unique"] == 1


def test_train_val_test_split_shares(ray_session):
    out = Q.train_val_test_split(SF)
    tot = out["n_docs"].sum()
    tr = out[out["split"] == "train"]["n_docs"].sum()
    assert 0.7 < tr / tot < 0.9
    # every doc assigned exactly once
    import pyarrow.parquet as pq

    assert tot == pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"]).num_rows


def test_byte_pair_stats_differential(ray_session, tmp_path):
    """Randomized differential vs a pure-Python byte-pair counter,
    including non-ASCII text (UTF-8 multibyte pairs count per byte)."""
    import collections

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(77)
    vocab = ["data", "slow", "héllo", "日本", "a", "scan99", "x"]
    texts = []
    for _ in range(60):
        n = int(rng.integers(0, 12))
        texts.append(" ".join(vocab[i] for i in rng.integers(0, len(vocab), n)))
    texts += ["", "   "]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = Q.byte_pair_stats(str(tmp_path), top=1000)

    ref = collections.Counter()
    for text in texts:
        for tok in text.strip().lower().split():
            b = tok.encode()
            for i in range(len(b) - 1):
                ref[(b[i] << 8) | b[i + 1]] += 1
    exp = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(got["pair"]) == [p for p, _ in exp]
    assert list(got["cnt"]) == [c for _, c in exp]


def test_sk_quality_blend_monotone_and_deterministic(ray_session, tmp_path):
    """A long information-dense doc must outscore a short repetitive one;
    deterministic across runs; scores in [0,1]."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    dense = " ".join(
        "".join(chr(97 + c) for c in rng.integers(0, 26, size=7))
        for _ in range(120)
    )
    mid = " ".join(
        "".join(chr(97 + c) for c in rng.integers(0, 26, size=5))
        for _ in range(40)
    )
    docs = [("spam " * 10).strip(), mid, dense]
    t = pa.table(
        {
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["rep", "mid", "dense"]),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = Q.sk_quality_blend(str(tmp_path)).set_index("lang")
    assert out.loc["dense", "mean_score"] > out.loc["rep", "mean_score"]
    assert out.loc["dense", "n_hi"] == 1

    a = Q.sk_quality_blend(SF)
    b = Q.sk_quality_blend(SF)
    _eq(a, b)
    assert ((a["mean_score"] >= 0) & (a["mean_score"] <= 1)).all()
    assert (a["n_hi"] <= a["n_docs"]).all()


def test_sk_robust_outliers_vs_exact(ray_session):
    """Sketch median/MAD within KLL rank error of exact; flagged count
    within the band implied by the cut uncertainty; deterministic."""
    import numpy as np
    import pyarrow.parquet as pq

    out = Q.sk_robust_outliers(SF)
    vals = np.round(
        pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"]
        .to_numpy(zero_copy_only=False) * 100
    )
    med, mad = np.median(vals), np.median(np.abs(vals - np.median(vals)))
    n = len(vals)
    # KLL k=200 rank error ~1%: estimates within the 2%-rank neighborhood
    lo, hi = np.quantile(vals, 0.48), np.quantile(vals, 0.52)
    assert lo <= out["median_cents"].iloc[0] <= hi
    exact_out = int(np.sum(np.abs(vals - med) > 3 * mad))
    got = int(out["n_outliers"].iloc[0])
    assert out["n"].iloc[0] == n
    # flagged counts agree within the tail mass a 2%-rank shift can move
    assert abs(got - exact_out) <= max(10, int(0.05 * n))
    _eq(out, Q.sk_robust_outliers(SF))


def test_rate_limit_audit_planted(ray_session, tmp_path):
    """A user with 7 same-day events is flagged with peak 7; spread-out
    users stay clean; bucket-invariant."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    ts, uid = [], []
    base = np.datetime64("2024-03-01T00:00:00")
    for i in range(7):  # user 1: burst, one day
        uid.append(1); ts.append(base + np.timedelta64(i, "h"))
    for i in range(7):  # user 2: one event per day
        uid.append(2); ts.append(base + np.timedelta64(i, "D"))
    t = pa.table(
        {
            "event_id": pa.array(range(len(uid)), pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(["view"] * len(uid)),
            "ts": pa.array(ts),
            "value": pa.array([1.0] * len(uid)),
            "props": pa.array(["{}"] * len(uid)),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = Q.rate_limit_audit(str(tmp_path), num_buckets=2)
    assert list(out["user_id"]) == [1]
    assert int(out["peak_per_window"].iloc[0]) == 7
    _eq(out, Q.rate_limit_audit(str(tmp_path), num_buckets=7))


def test_media_phash_planted_families(ray_session):
    """pHash recovers every planted 4-member near-dup family through the
    per-image noise with NO cross-family merges: exactly n/4 groups of 4,
    C(4,2)*n/4 verified pairs, every id grouped."""
    out = Q.media_phash_dups(SF, n_media=200)
    r = out.iloc[0]
    assert r["n_groups"] == 50
    assert r["max_group"] == 4
    assert r["n_dup_pairs"] == 6 * 50
    assert r["docs_in_groups"] == 200
    _eq(out, Q.media_phash_dups(SF, n_media=200))


def test_audio_fingerprint_families(ray_session):
    """The real WAV DSP path recovers all 20 planted frequency families
    with every fingerprint pure (one family per fingerprint)."""
    out = Q.audio_fingerprint_dups(SF, n_media=600)
    r = out.iloc[0]
    assert r["n_fingerprints"] == 20
    assert r["all_pure"] == 1
    assert r["n_audio"] > 100  # ~25% of 600 media are audio
    _eq(out, Q.audio_fingerprint_dups(SF, n_media=600))


def test_video_shot_stats_exact_recovery(ray_session):
    """Every planted video yields exactly its 2 cuts at frames 20/40
    (through intra-scene noise) and shot length 20."""
    out = Q.video_shot_stats(SF, n_videos=100)
    r = out.iloc[0]
    assert r["n_videos"] == 100
    assert r["n_cuts"] == 200
    assert r["exact_recoveries"] == 100
    assert r["mean_shot_len"] == 20.0
    _eq(out, Q.video_shot_stats(SF, n_videos=100))
