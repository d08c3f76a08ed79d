"""Driver-facing query catalog (__ray_entry__.queries / oracle_sql).

Two families:

- **Exact queries** — each returns the same rows/columns as its ANSI-SQL
  oracle (run by the driver in DuckDB at sf0.01).  All use the same physical
  recipe: prune columns at the read, vectorized per-batch partial
  aggregation fused into the read task (the combiner), then one final over
  the tiny partials on the driver (``stages/agg.two_phase``) — never a
  row-level shuffle.
  Floating aggregates are rounded identically on both sides so value-hash
  comparison is stable.

- **Sketch queries** (``sk_*``) — approximate results; registered without
  SQL oracles (rows-only driver check); their accuracy bounds are asserted
  in tests/ instead (SURVEY.md §7.3.10).

Contract note: every entry here COLLECTS its result to pandas because the
driver compares result frames; result sizes are aggregate/top-k/sample
shaped (bounded), except the dedup/anti-join listings whose size tracks
distinct counts — at true scale a user calls the underlying library
operators (stages/, pipelines/export), which return streaming Datasets and
write sinks instead of collecting.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.sketches.qdigest import QDigest
from q_digest_ray.sources.tables import read_table, read_table_arrow
from q_digest_ray.stages.agg import fold_on_driver, two_phase
from q_digest_ray.stages.build import SketchSpec, build_sketches
from q_digest_ray.stages.merge import collect_sketches, merge_grouped
from q_digest_ray.stages.partitioning import derive_buckets


def _strftime(temporal, fmt: str) -> pa.Array:
    """``pc.strftime(temporal, fmt)`` formatted once per distinct value:
    dictionary-encode, format the dictionary, ``take`` the labels.  Calendar
    columns repeat heavily (100k event timestamps floored to hours hold 720
    values), and a row-level strftime costs far more than a take."""
    if isinstance(temporal, pa.ChunkedArray):
        temporal = temporal.combine_chunks()
    enc = temporal.dictionary_encode()
    return pc.take(pc.strftime(enc.dictionary, fmt), enc.indices)


# ---------------------------------------------------------------------------
# exact queries
# ---------------------------------------------------------------------------


def pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary over lineitem (partial-agg + groupby).

    Money arithmetic is EXACT fixed-point (functions/fixedpoint.py): floats
    are order-dependent, and at sf0.001 sum_disc_price lands exactly on a
    rounding tie (30158055.965) where float summation order decides the
    cent.  Each batch scales the 2-decimal columns to int64 (cents), the
    final combine sums Python ints, and rounding reproduces DuckDB's
    half-away-from-zero / double-round semantics bit for bit; the oracle
    casts to DECIMAL so both sides round the same exact value."""
    from q_digest_ray.functions.fixedpoint import (
        duckdb_round_double,
        exact_sum,
        round_scaled_half_up,
        scaled_int64,
    )

    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        if batch.num_rows == 0:
            return pd.DataFrame(
                columns=["l_returnflag", "l_linestatus", "q100", "p100", "disc4", "charge6", "d100", "cnt"]
            )
        q100 = scaled_int64(batch["l_quantity"].to_numpy(zero_copy_only=False), 2)
        p100 = scaled_int64(batch["l_extendedprice"].to_numpy(zero_copy_only=False), 2)
        d100 = scaled_int64(batch["l_discount"].to_numpy(zero_copy_only=False), 2)
        t100 = scaled_int64(batch["l_tax"].to_numpy(zero_copy_only=False), 2)
        disc4 = p100 * (100 - d100)  # price*(1-disc), scale 10^4
        charge6 = disc4 * (100 + t100)  # ... *(1+tax), scale 10^6
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "l_linestatus": batch["l_linestatus"].to_pandas(),
                "q100": q100,
                "p100": p100,
                "disc4": disc4,
                "charge6": charge6,
                "d100": d100,
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False, as_index=False).agg(
            q100=("q100", "sum"),
            p100=("p100", "sum"),
            disc4=("disc4", "sum"),
            charge6=("charge6", "sum"),
            d100=("d100", "sum"),
            cnt=("q100", "size"),
        )
        return g

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (rf, ls), g in df.groupby(["l_returnflag", "l_linestatus"]):
            # Python-int sums: int64 partials re-summed over many blocks
            # can overflow int64 at 10^12-row scale
            S_q, S_p = exact_sum(g["q100"]), exact_sum(g["p100"])
            S_d4, S_c6 = exact_sum(g["disc4"]), exact_sum(g["charge6"])
            S_disc, cnt = exact_sum(g["d100"]), exact_sum(g["cnt"])
            rows.append(
                {
                    "l_returnflag": rf,
                    "l_linestatus": ls,
                    "sum_qty": round_scaled_half_up(S_q, 100, 2),
                    "sum_base_price": round_scaled_half_up(S_p, 100, 2),
                    "sum_disc_price": round_scaled_half_up(S_d4, 10**4, 2),
                    "sum_charge": round_scaled_half_up(S_c6, 10**6, 2),
                    # oracle divides double(exact decimal sum) by count —
                    # S/100 as int-over-int division is that same double
                    "avg_qty": duckdb_round_double((S_q / 100) / cnt, 4),
                    "avg_price": duckdb_round_double((S_p / 100) / cnt, 4),
                    "avg_disc": duckdb_round_double((S_disc / 100) / cnt, 4),
                    "count_order": cnt,
                }
            )
        return pd.DataFrame(rows)

    df = two_phase(ds, partial, final)
    return df.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


# money terms CAST to DECIMAL: sums are exact, so round() decides ties on
# the exact value (half away from zero) — matching the engine's scaled-int
# arithmetic bit for bit instead of racing float summation order
PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(round(sum(CAST(l_quantity AS DECIMAL(18,2))), 2) AS DOUBLE)  AS sum_qty,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))), 2) AS DOUBLE) AS sum_base_price,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                 * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE) AS sum_disc_price,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                 * (1 - CAST(l_discount AS DECIMAL(18,2)))
                 * (1 + CAST(l_tax AS DECIMAL(18,2)))), 2) AS DOUBLE)    AS sum_charge,
       round(sum(CAST(l_quantity AS DECIMAL(18,2))) / count(*), 4)       AS avg_qty,
       round(sum(CAST(l_extendedprice AS DECIMAL(18,2))) / count(*), 4)  AS avg_price,
       round(sum(CAST(l_discount AS DECIMAL(18,2))) / count(*), 4)       AS avg_disc,
       count(*)                                                          AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def lang_counts(sf_dir: str):
    """Exact heavy-hitter langs (the CMS oracle)."""
    ds = read_table(sf_dir, "documents", columns=["lang"])

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch["lang"].value_counts()
        return pa.table(
            {
                "lang": counts.field("values"),
                "cnt": counts.field("counts").cast(pa.int64()),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(cnt=("cnt", "sum"))

    df = two_phase(ds, partial, final)
    df["cnt"] = df["cnt"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


LANG_COUNTS_SQL = "SELECT lang, count(*) AS cnt FROM documents GROUP BY lang ORDER BY lang"


def dup_group_size_hist(sf_dir: str, num_buckets: int | None = None):
    """EXACT duplicate-cluster SIZE DISTRIBUTION (the first table of every
    dedup report: how many texts are singletons, pairs, big clusters): per
    distinct text its occurrence count, histogrammed by count.

    Same 24 B/doc content-key exchange as dedup_exact — per batch a
    (key, count) partial, key-hash buckets co-locate equal keys, each
    bucket sums per-key counts and emits its (size, n_groups) histogram
    rows; the final combine sums ≤ B × distinct-sizes tiny rows.  Texts
    never ship; 128-bit collision stance as distinct_text_count."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        from q_digest_ray.functions.hashing import content_key128

        batch = batch.filter(pc.is_valid(batch["text"]))
        h1, h2, bucket = content_key128(batch["text"], B)
        df = pd.DataFrame({"h": h1, "h2": h2, "bucket": bucket})
        g = df.groupby(["h", "h2", "bucket"], sort=False, as_index=False).size()
        return pa.table(
            {
                "h": pa.array(g["h"].to_numpy(np.int64)),
                "h2": pa.array(g["h2"].to_numpy(np.int64)),
                "bucket": pa.array(g["bucket"].to_numpy(np.int32)),
                "c": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby(["h", "h2"], sort=False)["c"].sum()
        vc = sizes.value_counts()
        return pd.DataFrame(
            {
                "group_size": vc.index.to_numpy(np.int64),
                "n_groups": vc.to_numpy(np.int64),
            }
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("group_size", as_index=False).agg(n_groups=("n_groups", "sum"))
    out["group_size"] = out["group_size"].astype("int64")
    out["n_groups"] = out["n_groups"].astype("int64")
    return out.sort_values("group_size").reset_index(drop=True)


DUP_GROUP_SIZE_HIST_SQL = """
SELECT CAST(cnt AS BIGINT) AS group_size,
       CAST(count(*) AS BIGINT) AS n_groups
FROM (SELECT count(*) AS cnt FROM documents WHERE text IS NOT NULL
      GROUP BY text)
GROUP BY cnt ORDER BY group_size
"""


def distinct_text_count(sf_dir: str, num_buckets: int | None = None):
    """Distinct count via 128-bit content key (the HLL oracle).

    Hash-bucketed: B coarse buckets co-locate equal keys, each bucket counts
    its distincts independently, counts sum exactly.  B is derived from input
    bytes (SCALE.md rule, ~1 GiB/bucket) so each bucket fits one task at any
    scale; results are B-invariant.

    Texts are keyed by TWO independent 64-bit hashes (128 bits): a silent
    merge needs a full 128-bit collision — for 10^12 distinct docs the
    expected number of colliding pairs is (10^12)^2 / 2^129 ~= 1.5e-15, i.e.
    never in practice.  Shipping the texts themselves for literal comparison
    would make this shuffle input-sized (~1 TB/PB moved vs 24 B/doc here);
    the 128-bit key is the deliberate web-scale trade."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    B = num_buckets or derive_buckets(ds)

    def to_hashes(batch: pa.Table) -> pa.Table:
        from q_digest_ray.functions.hashing import content_key128

        h1, h2, bucket = content_key128(batch["text"], B)
        order = np.argsort(h1, kind="stable")
        h1, h2, bucket = h1[order], h2[order], bucket[order]
        keep = np.ones(len(h1), dtype=bool)
        keep[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        return pa.table(
            {"h": pa.array(h1[keep]), "h2": pa.array(h2[keep]), "bucket": pa.array(bucket[keep])}
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"d": [int(g.drop_duplicates(["h", "h2"]).shape[0])]})

    parts = (
        ds.map_batches(to_hashes, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame({"n_distinct": [int(parts["d"].sum())]})


DISTINCT_TEXT_SQL = "SELECT count(DISTINCT text) AS n_distinct FROM documents"


def dedup_exact(sf_dir: str, num_buckets: int | None = None):
    """Dedup: keep min doc_id per distinct text.

    Hash-partitioned into B coarse buckets (equal texts share a bucket, B
    derived from input bytes per SCALE.md's ~1 GiB/bucket rule — results are
    B-invariant), each bucket deduped independently with a vectorized pandas
    groupby; per-batch pre-aggregation bounds shuffle rows at distincts per
    batch.  Texts are keyed by a 128-bit (two independent 64-bit) hash: a
    silent merge of two distinct texts needs a full 128-bit collision
    (expected ~1.5e-15 colliding pairs at 10^12 docs) — shipping texts for
    literal comparison would make the shuffle input-sized, so the 128-bit
    key is the deliberate web-scale trade."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)

    def add_hash(batch: pa.Table) -> pa.Table:
        from q_digest_ray.functions.hashing import content_key128

        h1, h2, bucket = content_key128(batch["text"], B)
        t = pa.table(
            {
                "h": pa.array(h1),
                "h2": pa.array(h2),
                "bucket": pa.array(bucket),
                "doc_id": batch["doc_id"],
            }
        )
        # combiner: one row per distinct text per batch
        g = t.group_by(["h", "h2", "bucket"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        # select by the aggregate's GENERATED names — column order of
        # group_by output is not a stable pyarrow contract, so a positional
        # rename could silently swap hash and count columns across versions
        return g.select(["h", "h2", "bucket", "doc_id_min", "doc_id_count"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["h", "h2"], as_index=False, sort=False).agg(
            doc_id=("doc_id_min", "min"), dup_count=("doc_id_count", "sum")
        )
        return out[["doc_id", "dup_count"]]

    df = (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["dup_count"] = df["dup_count"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id, count(*) AS dup_count
FROM documents GROUP BY text ORDER BY doc_id
"""


def exact_quantiles_nchars(sf_dir: str):
    """Exact p50/p90/p99 of n_chars via distributed value-counts histogram
    (domain-bounded: the shuffle moves one row per distinct value)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch["n_chars"].value_counts()
        return pa.table(
            {
                "v": counts.field("values"),
                "cnt": counts.field("counts").cast(pa.int64()),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("v", as_index=False).agg(cnt=("cnt", "sum"))

    hist = two_phase(ds, partial, final).sort_values("v")
    csum = hist["cnt"].cumsum().to_numpy()
    vals = hist["v"].to_numpy()
    n = int(csum[-1])
    out = {}
    for p, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
        # DuckDB quantile_disc: element at rank ceil(p*n) (1-based)
        rank = int(np.ceil(p * n))
        out[name] = [int(vals[np.searchsorted(csum, rank, side="left")])]
    return pd.DataFrame(out)


EXACT_QUANTILES_SQL = """
SELECT quantile_disc(n_chars, 0.5) AS p50,
       quantile_disc(n_chars, 0.9) AS p90,
       quantile_disc(n_chars, 0.99) AS p99
FROM documents
"""


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type (windowed aggregate)."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    from q_digest_ray.functions.fixedpoint import scaled_int64

    def partial(batch: pa.Table) -> pd.DataFrame:
        win = pc.floor_temporal(batch["ts"], unit="hour")
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "window_start": win.to_pandas(),
                # exact cents (fixedpoint.py)
                "v100": scaled_int64(batch["value"].to_numpy(zero_copy_only=False), 2),
            }
        )
        return df.groupby(["event_type", "window_start"], sort=False, as_index=False).agg(
            n_events=("v100", "size"), s_value=("v100", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(s_value=df["s_value"].astype(object))  # overflow-proof
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("n_events", "sum"), s_value=("s_value", "sum")
        )
        # exact int cents → double INSIDE final: the result still crosses
        # one Arrow block conversion, where an object int above 2^63 would
        # raise OverflowError (pricing_summary rule)
        g["sum_value"] = (g["s_value"] / 100.0).astype("float64")
        return g.drop(columns=["s_value"])

    df = two_phase(ds, partial, final)
    df["n_events"] = df["n_events"].astype("int64")
    # emit the window as a string so value comparison is unit-independent
    df["window_start"] = pd.to_datetime(df["window_start"]).dt.strftime("%Y-%m-%d %H:%M:%S")
    return (
        df[["event_type", "window_start", "n_events", "sum_value"]]
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


EVENTS_HOURLY_SQL = """
SELECT event_type, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
       count(*) AS n_events, CAST(round(sum(CAST(value AS DECIMAL(18,2))), 2) AS DOUBLE) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY event_type, window_start
"""


def top_users(sf_dir: str):
    """Top-10 users by total event value (groupby → sort → limit)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    from q_digest_ray.functions.fixedpoint import scaled_int64

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_pandas(),
                # exact cents: float sums are order-dependent and can flip
                # a rounding tie vs the DECIMAL oracle (fixedpoint.py)
                "v100": scaled_int64(batch["value"].to_numpy(zero_copy_only=False), 2),
            }
        )
        return df.groupby("user_id", sort=False, as_index=False).agg(
            s=("v100", "sum"), c=("v100", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        # object-dtype cents: re-summing int64 partials over ~10^6 blocks
        # can overflow int64 (fixedpoint.py) — Python ints cannot
        df = df.assign(s=df["s"].astype(object))
        g = df.groupby("user_id", as_index=False).agg(s=("s", "sum"), c=("c", "sum"))
        g = g.sort_values(["s", "user_id"], ascending=[False, True]).head(10)
        return pd.DataFrame(
            {
                "user_id": g["user_id"],
                "total_value": (g["s"] / 100.0).astype("float64"),  # exact 2-dec
                "n_events": g["c"].astype("int64"),
            }
        )

    return two_phase(ds, partial, final).reset_index(drop=True)


TOP_USERS_SQL = """
SELECT user_id, CAST(round(sum(CAST(value AS DECIMAL(18,2))), 2) AS DOUBLE) AS total_value,
       count(*) AS n_events
FROM events GROUP BY user_id
ORDER BY sum(CAST(value AS DECIMAL(18,2))) DESC, user_id LIMIT 10
"""


def order_revenue_by_nation(sf_dir: str):
    """orders ⋈ customer ⋈ nation via broadcast lookup (no shuffle join):
    the small dimension tables ride ray.put once; each batch does a
    vectorized np.searchsorted lookup."""
    cust = read_table_arrow(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    custkeys = np.asarray(cust["c_custkey"])
    order_c = np.argsort(custkeys)
    nation_keys = np.asarray(nat["n_nationkey"])
    order_n = np.argsort(nation_keys)
    lookup = {
        "custkeys": custkeys[order_c],
        "nationkey_by_cust": np.asarray(cust["c_nationkey"])[order_c],
        # pre-sorted on the driver so the per-task fn is lookup-only
        "nkeys": nation_keys[order_n],
        "nnames": np.array(nat["n_name"].to_pylist(), dtype=object)[order_n],
    }
    ref = ray.put(lookup)

    # plain-function broadcast lookup: ray.get on a local ref is zero-copy
    # per task, and skipping the actor pool saves its ~1 s spin-up
    def join_agg(batch: pa.Table) -> pd.DataFrame:
        lk = ray.get(ref)
        ck = batch["o_custkey"].to_numpy()
        pos = np.searchsorted(lk["custkeys"], ck)
        # inner-join semantics: drop custkeys absent from customer
        # (a bare lookup would mis-attribute revenue or index OOB)
        pos_safe = np.minimum(pos, len(lk["custkeys"]) - 1)
        present = lk["custkeys"][pos_safe] == ck
        pos = pos_safe[present]
        nk = lk["nationkey_by_cust"][pos]
        npos = np.searchsorted(lk["nkeys"], nk)
        # same guard as the custkey lookup: an absent nationkey would
        # index OOB or silently attribute revenue to the next nation
        npos_safe = np.minimum(npos, len(lk["nkeys"]) - 1)
        nation_ok = lk["nkeys"][npos_safe] == nk
        names = lk["nnames"][npos_safe[nation_ok]]
        from q_digest_ray.functions.fixedpoint import scaled_int64

        prices = batch["o_totalprice"].to_numpy()[present][nation_ok]
        df = pd.DataFrame(
            {
                "n_name": names,
                "p100": scaled_int64(prices, 2),  # exact cents (fixedpoint.py)
            }
        )
        return df.groupby("n_name", sort=False, as_index=False).agg(
            s=("p100", "sum"), c=("p100", "size")
        )

    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(s=df["s"].astype(object))  # overflow-proof cents
        g = df.groupby("n_name", as_index=False).agg(s=("s", "sum"), c=("c", "sum"))
        return pd.DataFrame(
            {
                "n_name": g["n_name"],
                "total_revenue": (g["s"] / 100.0).astype("float64"),  # exact 2-dec
                "n_orders": g["c"].astype("int64"),
            }
        )

    out = two_phase(ds, join_agg, final)
    return out.sort_values("n_name").reset_index(drop=True)


ORDER_REVENUE_SQL = """
SELECT n_name, CAST(round(sum(CAST(o_totalprice AS DECIMAL(18,2))), 2) AS DOUBLE) AS total_revenue, count(*) AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


def high_value_orders(sf_dir: str):
    """Filter + projection, PUSHED DOWN to the read: the pyarrow expression
    filters at row-group level so non-matching rows never leave storage."""
    import ray.data

    from q_digest_ray.sources.tables import resolve_table_paths

    expr = (pc.field("o_totalprice") > 400000.0) & (pc.field("o_orderstatus") == "F")
    ds = ray.data.read_parquet(
        resolve_table_paths(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice"],
        filter=expr,
    )
    df = ds.to_pandas()
    return df.sort_values("o_orderkey").reset_index(drop=True)


HIGH_VALUE_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_totalprice > 400000 AND o_orderstatus = 'F' ORDER BY o_orderkey
"""


def token_totals(sf_dir: str):
    """Whitespace token counts per lang (vectorized regex count)."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        toks = pc.count_substring_regex(batch["text"], r"\S+").cast(pa.int64())
        df = pd.DataFrame(
            {"lang": batch["lang"].to_pandas(), "toks": toks.to_pandas()}
        )
        return df.groupby("lang", sort=False, as_index=False).agg(
            total_tokens=("toks", "sum"), n_docs=("toks", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(
            total_tokens=("total_tokens", "sum"), n_docs=("n_docs", "sum")
        )

    df = two_phase(ds, partial, final)
    df["total_tokens"] = df["total_tokens"].astype("int64")
    df["n_docs"] = df["n_docs"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


TOKEN_TOTALS_SQL = """
SELECT lang,
       CAST(sum(CASE WHEN trim(text) = '' THEN 0
            ELSE array_length(regexp_split_to_array(trim(text), '\\s+')) END) AS BIGINT) AS total_tokens,
       count(*) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
"""


def _ann_query(sf_dir: str):
    """(query vector, corpus Dataset) for the ANN catalog queries: the
    query is vec_id 0's embedding, the corpus every other embeddings row.
    The query comes from a row-filtered driver read, so only its row group
    leaves storage."""
    emb = read_table_arrow(
        sf_dir, "embeddings", columns=["vec_id", "embedding"], filters=[("vec_id", "==", 0)]
    )
    qvec = np.array(emb["embedding"].to_pylist()[0], dtype=np.float64)
    corpus = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], pa.scalar(0))), batch_format="pyarrow"
    )
    return qvec, corpus


def ann_topk(sf_dir: str):
    """Brute-force cosine top-k over the embedding column (the baseline ANN
    path, stages/ann.brute_force_topk): its vec_id tie-break matches the
    oracle's ORDER BY cos DESC, vec_id ASC."""
    from q_digest_ray.stages.ann import brute_force_topk

    qvec, corpus = _ann_query(sf_dir)
    return brute_force_topk(corpus, "vec_id", "embedding", qvec, k=10)


ANN_TOPK_SQL = """
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv), 6) AS cos_sim
FROM embeddings e, q
WHERE e.vec_id <> 0
ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) DESC, e.vec_id
LIMIT 10
"""


def punct_stats(sf_dir: str):
    """Text-quality signal: sentence-punctuation density per lang."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        punct = pc.count_substring_regex(batch["text"], r"[.!?]").cast(pa.int64())
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "punct": punct.to_pandas(),
                "chars": batch["n_chars"].to_pandas(),
            }
        )
        return df.groupby("lang", sort=False, as_index=False).agg(
            p=("punct", "sum"), c=("chars", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(p=("p", "sum"), c=("c", "sum"))
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "punct_per_kchar": (1000.0 * g["p"] / g["c"]).round(4),
            }
        )

    df = two_phase(ds, partial, final)
    return df.sort_values("lang").reset_index(drop=True)


PUNCT_STATS_SQL = """
SELECT lang,
       round(1000.0 * sum(length(regexp_replace(text, '[^.!?]', '', 'g')))
             / sum(n_chars), 4) AS punct_per_kchar
FROM documents GROUP BY lang ORDER BY lang
"""


def sessionize(sf_dir: str, num_buckets: int | None = None):
    """Gap-based session windows (30-min inactivity) per user — the
    streaming-shaped operator: partition by key, order by ts within the
    group, stateful windowing inside ``groupby().map_groups`` (ordering
    assumption: per-group sort on (ts, event_id), documented tie-break)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    B = num_buckets or derive_buckets(ds)  # power of two → mask assignment

    from q_digest_ray.functions.fixedpoint import scaled_int64

    def add_bucket(batch: pa.Table) -> pa.Table:
        # co-locate each user's events while keeping the shuffle coarse:
        # B size-derived hash buckets instead of one ray-level group per user
        b = pc.bit_wise_and(batch["user_id"], pa.scalar(B - 1, pa.int64()))
        batch = batch.append_column("bucket", pc.cast(b, pa.int32()))
        # exact cents (fixedpoint.py): per-session float sums can tie-flip
        v100 = scaled_int64(batch["value"].to_numpy(zero_copy_only=False), 2)
        return batch.append_column("v100", pa.array(v100))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        gap = (g["ts"].diff() > pd.Timedelta(minutes=30)) | (
            g["user_id"] != g["user_id"].shift()
        )
        sess_global = gap.cumsum().astype("int64")
        out = g.groupby(sess_global).agg(
            user_id=("user_id", "first"),
            n_events=("event_id", "size"),
            session_start=("ts", "min"),
            s100=("v100", "sum"),
        )
        out["sum_value"] = out["s100"] / 100.0  # exact 2-dec
        # per-user session index (1-based)
        out["sess_id"] = out.groupby("user_id").cumcount() + 1
        return out.reset_index(drop=True)

    df = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["session_start"] = pd.to_datetime(df["session_start"]).dt.strftime(
        "%Y-%m-%d %H:%M:%S"
    )
    df["n_events"] = df["n_events"].astype("int64")
    return (
        df[["user_id", "sess_id", "n_events", "session_start", "sum_value"]]
        .sort_values(["user_id", "sess_id"])
        .reset_index(drop=True)
    )


SESSIONIZE_SQL = """
WITH ordered AS (
  SELECT user_id, event_id, ts, value,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT user_id, ts, value,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM ordered
)
SELECT user_id, CAST(sess_id AS BIGINT) AS sess_id, count(*) AS n_events,
       strftime(min(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
       CAST(round(sum(CAST(value AS DECIMAL(18,2))), 2) AS DOUBLE) AS sum_value
FROM sess GROUP BY user_id, sess_id ORDER BY user_id, sess_id
"""


def asof_join_orders(sf_dir: str, num_buckets: int | None = None):
    """As-of join: each event matched to the user's latest order with
    o_orderdate <= ts (ties on equal o_orderdate broken by max o_orderkey).

    Co-partitioned, not broadcast: BOTH sides are hash-bucketed on the user
    key (``hash(user) % B``, B size-derived) into one unioned dataset, and
    each bucket group runs a single vectorized ``pd.merge_asof`` over its
    events+orders slice.  Neither side is materialized on the driver —
    ``orders`` is fact-sized, so the r1 broadcast design was a driver/object
    -store OOM at 100x (VERDICT item 1); here every row moves exactly once
    through the bucket shuffle."""
    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )
    B = num_buckets or derive_buckets(
        size_bytes=(ev.size_bytes() or 0) + (orders.size_bytes() or 0)
    )

    def tag_events(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        b = (hash64(batch["user_id"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "bucket": pa.array(b),
                "side": pa.array(np.zeros(n, np.int8)),
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts": batch["ts"].cast(pa.timestamp("us")),
                "o_orderkey": pa.nulls(n, pa.int64()),
                "o_totalprice": pa.nulls(n, pa.float64()),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        b = (hash64(batch["o_custkey"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "bucket": pa.array(b),
                "side": pa.array(np.ones(n, np.int8)),
                "event_id": pa.nulls(n, pa.int64()),
                "user_id": batch["o_custkey"],
                "ts": batch["o_orderdate"].cast(pa.timestamp("us")),
                "o_orderkey": batch["o_orderkey"],
                "o_totalprice": batch["o_totalprice"],
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        evg = g[g["side"] == 0].sort_values("ts", kind="mergesort")
        og = g[g["side"] == 1].sort_values(["ts", "o_orderkey"], kind="mergesort")
        if not len(evg) or not len(og):
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "o_orderkey": pd.Series(dtype="float64"),
                    "o_totalprice": pd.Series(dtype="float64"),
                }
            )
        joined = pd.merge_asof(
            evg[["event_id", "user_id", "ts"]],
            og[["user_id", "ts", "o_orderkey", "o_totalprice"]],
            on="ts",
            by="user_id",
            direction="backward",
        )
        joined = joined.dropna(subset=["o_orderkey"])
        return joined[["event_id", "user_id", "o_orderkey", "o_totalprice"]]

    df = (
        ev.map_batches(tag_events, batch_format="pyarrow")
        .union(orders.map_batches(tag_orders, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["o_orderkey"] = df["o_orderkey"].astype("int64")
    df["event_id"] = df["event_id"].astype("int64")
    df["user_id"] = df["user_id"].astype("int64")
    return df.sort_values("event_id").reset_index(drop=True)


ASOF_JOIN_SQL = """
SELECT event_id, user_id, o_orderkey, o_totalprice
FROM (
  SELECT e.event_id, e.user_id, o.o_orderkey, o.o_totalprice,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
WHERE rn = 1
ORDER BY event_id
"""


def events_sliding(sf_dir: str):
    """Sliding window: 1-hour windows advancing every 15 minutes, per
    event_type.  Expansion pattern: each event lands in 4 windows, emitted
    inside the batch partial (a flat-map fused with the combiner), then the
    usual two-phase combine — no shuffle."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    STEP = np.timedelta64(15, "m")
    WIN_STEPS = 4  # window length = 4 steps = 1 hour

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        base = ts.astype("datetime64[m]")
        floor15 = base - (base.astype("int64") % 15).astype("timedelta64[m]")
        from q_digest_ray.functions.fixedpoint import scaled_int64

        et = batch["event_type"].to_pandas().to_numpy()
        val = scaled_int64(batch["value"].to_numpy(zero_copy_only=False), 2)
        frames = []
        for j in range(WIN_STEPS):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": et,
                        "window_start": floor15 - j * STEP,
                        "n_events": 1,
                        "s_value": val,
                    }
                )
            )
        df = pd.concat(frames, ignore_index=True)
        return df.groupby(["event_type", "window_start"], sort=False, as_index=False).agg(
            n_events=("n_events", "sum"), s_value=("s_value", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(s_value=df["s_value"].astype(object))  # overflow-proof
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("n_events", "sum"), s_value=("s_value", "sum")
        )
        # exact int cents → double inside final (see events_hourly): an
        # object int above 2^63 would overflow the Arrow conversion after
        g["sum_value"] = (g["s_value"] / 100.0).astype("float64")
        return g.drop(columns=["s_value"])

    df = two_phase(ds, partial, final)
    df["n_events"] = df["n_events"].astype("int64")
    df["window_start"] = pd.to_datetime(df["window_start"]).dt.strftime("%Y-%m-%d %H:%M:%S")
    return (
        df[["event_type", "window_start", "n_events", "sum_value"]]
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


EVENTS_SLIDING_SQL = """
SELECT event_type, strftime(ws, '%Y-%m-%d %H:%M:%S') AS window_start,
       count(*) AS n_events, CAST(round(sum(CAST(value AS DECIMAL(18,2))), 2) AS DOUBLE) AS sum_value
FROM (
  SELECT event_type, value,
         time_bucket(INTERVAL 15 MINUTE, ts) - j * INTERVAL 15 MINUTE AS ws
  FROM events, unnest([0, 1, 2, 3]) AS t(j)
)
GROUP BY event_type, ws
ORDER BY event_type, window_start
"""


def corpus_sample_stats(sf_dir: str):
    """Seeded corpus sampling (ray random_sample) + stats over the sample —
    rows-only (sample membership depends on block layout)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])
    sample = ds.random_sample(0.5, seed=42)

    def partial(batch: pa.Table) -> pd.DataFrame:
        nc = batch["n_chars"].to_numpy()
        return pd.DataFrame({"n": [len(nc)], "s": [int(nc.sum())]})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        n = int(df["n"].sum())
        return pd.DataFrame(
            {"sampled_rows": [n], "avg_n_chars": [round(df["s"].sum() / max(n, 1), 2)]}
        )

    return two_phase(sample, partial, final)


def revenue_by_priority(sf_dir: str):
    """Large-large join (lineitem ⋈ orders on orderkey) via the explicit
    bucketed hash join, then two-phase revenue aggregate per priority."""
    from q_digest_ray.stages.join import bucketed_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = bucketed_join(li, orders, on="l_orderkey", right_on="o_orderkey", num_buckets=16)

    from q_digest_ray.functions.fixedpoint import (
        exact_sum,
        round_scaled_half_up,
        scaled_int64,
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        # exact fixed-point: price*(1-disc) at scale 10^4 (fixedpoint.py)
        p100 = scaled_int64(batch["l_extendedprice"].to_numpy(zero_copy_only=False), 2)
        d100 = scaled_int64(batch["l_discount"].to_numpy(zero_copy_only=False), 2)
        df = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_pandas(),
                "rev4": p100 * (100 - d100),
            }
        )
        return df.groupby("o_orderpriority", sort=False, as_index=False).agg(
            s=("rev4", "sum"), c=("rev4", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pri, g in df.groupby("o_orderpriority"):
            rows.append(
                {
                    "o_orderpriority": pri,
                    "revenue": round_scaled_half_up(exact_sum(g["s"]), 10**4, 2),
                    "n_items": exact_sum(g["c"]),
                }
            )
        return pd.DataFrame(rows)

    df = two_phase(joined, partial, final)
    return df.sort_values("o_orderpriority").reset_index(drop=True)


REVENUE_BY_PRIORITY_SQL = """
SELECT o_orderpriority,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                 * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def brand_revenue(sf_dir: str):
    """lineitem ⋈ part via broadcast lookup — the DIMENSION-join shape
    (part is ~0.2% of lineitem at any TPC-H SF: ``ray.put`` the sorted
    (partkey → brand) arrays once, vectorized searchsorted per batch; the
    fact-fact shape is revenue_by_priority's bucketed_join).  Exact
    fixed-point revenue per brand."""
    part = read_table_arrow(sf_dir, "part", columns=["p_partkey", "p_brand"])
    pk = np.asarray(part["p_partkey"])
    order = np.argsort(pk)
    lookup = {
        "keys": pk[order],
        "brand": np.array(part["p_brand"].to_pylist(), dtype=object)[order],
    }
    ref = ray.put(lookup)

    # plain-function stage, NOT an actor pool: the only state is the
    # broadcast ref, and ray.get on a local object is zero-copy shared
    # memory — an actor pool would add ~1 s spin-up for nothing (measured;
    # pools are for EXPENSIVE per-actor setup like models/indexes)
    def join_agg(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.fixedpoint import scaled_int64

        lk = ray.get(ref)
        keys, brand = lk["keys"], lk["brand"]
        k = batch["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, k)
        # inner-join guard: drop partkeys absent from part (OOB/mis-
        # attribution hazard, same as order_revenue_by_nation)
        pos_safe = np.minimum(pos, len(keys) - 1)
        present = keys[pos_safe] == k
        brands = brand[pos_safe[present]]
        p100 = scaled_int64(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[present], 2
        )
        d100 = scaled_int64(
            batch["l_discount"].to_numpy(zero_copy_only=False)[present], 2
        )
        df = pd.DataFrame({"p_brand": brands, "rev4": p100 * (100 - d100)})
        return df.groupby("p_brand", sort=False, as_index=False).agg(
            s=("rev4", "sum"), c=("rev4", "size")
        )

    from q_digest_ray.functions.fixedpoint import exact_sum, round_scaled_half_up

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for b, g in df.groupby("p_brand"):
            rows.append(
                {
                    "p_brand": b,
                    "revenue": round_scaled_half_up(exact_sum(g["s"]), 10**4, 2),
                    "n_items": exact_sum(g["c"]),
                }
            )
        return pd.DataFrame(rows)

    ds = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"]
    )
    out = two_phase(ds, join_agg, final)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("p_brand").reset_index(drop=True)


BRAND_REVENUE_SQL = """
SELECT p_brand,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                 * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand ORDER BY p_brand
"""


def supplier_region_acctbal(sf_dir: str):
    """supplier ⋈ nation ⋈ region — the full TPC-H dimension chain,
    resolved as ONE composed broadcast: nation→region collapses
    driver-side (25 x 5 rows), suppliers stream through a vectorized
    nationkey → region-name lookup.  Exact cents via fixed-point."""
    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    reg = read_table_arrow(sf_dir, "region", columns=["r_regionkey", "r_name"])
    nk = np.asarray(nat["n_nationkey"])
    nrk = np.asarray(nat["n_regionkey"])
    rk = np.asarray(reg["r_regionkey"])
    rn = np.array(reg["r_name"].to_pylist(), dtype=object)
    order_r = np.argsort(rk)
    rpos = np.searchsorted(rk[order_r], nrk)
    region_by_nation = dict(zip(nk.tolist(), rn[order_r][rpos].tolist()))
    lk_keys = np.array(sorted(region_by_nation), dtype=np.int64)
    lk_names = np.array(
        [region_by_nation[k] for k in lk_keys.tolist()], dtype=object
    )
    ref = ray.put({"keys": lk_keys, "names": lk_names})

    # plain-function stage (broadcast-lookup state only — see brand_revenue)
    def tag(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.fixedpoint import scaled_int64

        lk = ray.get(ref)
        keys, names_arr = lk["keys"], lk["names"]
        snk = batch["s_nationkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, snk)
        pos_safe = np.minimum(pos, len(keys) - 1)
        ok = keys[pos_safe] == snk
        names = names_arr[pos_safe[ok]]
        bal100 = scaled_int64(
            batch["s_acctbal"].to_numpy(zero_copy_only=False)[ok], 2
        )
        df = pd.DataFrame({"r_name": names, "b": bal100})
        return df.groupby("r_name", sort=False, as_index=False).agg(
            s=("b", "sum"), c=("b", "size")
        )

    from q_digest_ray.functions.fixedpoint import exact_sum, round_scaled_half_up

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r, g in df.groupby("r_name"):
            rows.append(
                {
                    "r_name": r,
                    "total_acctbal": round_scaled_half_up(exact_sum(g["s"]), 100, 2),
                    "n_suppliers": exact_sum(g["c"]),
                }
            )
        return pd.DataFrame(rows)

    ds = read_table(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    out = two_phase(ds, tag, final)
    out["n_suppliers"] = out["n_suppliers"].astype("int64")
    return out.sort_values("r_name").reset_index(drop=True)


SUPPLIER_REGION_ACCTBAL_SQL = """
SELECT r_name,
       CAST(round(sum(CAST(s_acctbal AS DECIMAL(18,2))), 2) AS DOUBLE) AS total_acctbal,
       count(*) AS n_suppliers
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name ORDER BY r_name
"""


def promo_revenue_by_month(sf_dir: str):
    """Conditional aggregate over a broadcast dimension attribute (the
    TPC-H q14 'promotion effect' shape, grouped by ship month): the part
    table collapses to a sorted (partkey -> is-promo) bitmask broadcast
    once via ``ray.put``; lineitem streams through one vectorized
    searchsorted lookup per batch and contributes BOTH the conditional
    (promo) and unconditional revenue sums in the same partial.  Exact
    cents via fixedpoint; the pct is derived from the two already-rounded
    doubles identically on both sides, so it is bit-exact vs the oracle."""
    part = read_table_arrow(sf_dir, "part", columns=["p_partkey", "p_type"])
    pk = np.asarray(part["p_partkey"])
    order = np.argsort(pk)
    is_promo = (
        np.array(part["p_type"].to_pylist(), dtype=object)[order] == "PROMO"
    )
    ref = ray.put({"keys": pk[order], "is_promo": is_promo})

    def join_agg(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.fixedpoint import scaled_int64

        lk = ray.get(ref)  # zero-copy local get; plain task, no actor pool
        keys = lk["keys"]
        k = batch["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, k)
        pos_safe = np.minimum(pos, len(keys) - 1)
        present = keys[pos_safe] == k  # inner-join guard
        promo = lk["is_promo"][pos_safe[present]]
        month = np.asarray(
            _strftime(batch["l_shipdate"], "%Y-%m").to_numpy(
                zero_copy_only=False
            )
        )[present]
        p100 = scaled_int64(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[present], 2
        )
        d100 = scaled_int64(
            batch["l_discount"].to_numpy(zero_copy_only=False)[present], 2
        )
        rev4 = p100 * (100 - d100)
        df = pd.DataFrame(
            {"ship_month": month, "t": rev4, "p": np.where(promo, rev4, 0)}
        )
        return df.groupby("ship_month", sort=False, as_index=False).agg(
            t=("t", "sum"), p=("p", "sum")
        )

    from q_digest_ray.functions.fixedpoint import (
        duckdb_round_double,
        exact_sum,
        round_scaled_half_up,
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for m, g in df.groupby("ship_month"):
            total = round_scaled_half_up(exact_sum(g["t"]), 10**4, 2)
            promo = round_scaled_half_up(exact_sum(g["p"]), 10**4, 2)
            rows.append(
                {
                    "ship_month": m,
                    "promo_revenue": promo,
                    "total_revenue": total,
                    "promo_pct": duckdb_round_double(100.0 * promo / total, 4),
                }
            )
        return pd.DataFrame(rows)

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )
    out = two_phase(ds, join_agg, final)
    return out.sort_values("ship_month").reset_index(drop=True)


PROMO_REVENUE_SQL = """
WITH rev AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS ship_month,
         CAST(round(sum(CASE WHEN p_type = 'PROMO'
                        THEN CAST(l_extendedprice AS DECIMAL(18,2))
                             * (1 - CAST(l_discount AS DECIMAL(18,2)))
                        ELSE 0 END), 2) AS DOUBLE) AS promo_revenue,
         CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                        * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE)
           AS total_revenue
  FROM lineitem JOIN part ON l_partkey = p_partkey
  GROUP BY ship_month
)
SELECT ship_month, promo_revenue, total_revenue,
       round(100.0 * promo_revenue / total_revenue, 4) AS promo_pct
FROM rev ORDER BY ship_month
"""


def repetition_stats(sf_dir: str):
    """Within-document repetition signal (the Gopher/MassiveText
    duplicate-token fraction quality gate), aggregated per lang: per doc,
    distinct tokens vs total tokens; per lang, 1 - sum(distinct)/sum(total)
    over exact integer sums (no float accumulation anywhere, so the ratio
    is order-independent and bit-exact vs the oracle).

    Fully vectorized per batch: one RE2 split (the SAME '\\s+' pattern the
    DuckDB oracle uses), two Arrow group_bys — (doc, token) counts, then
    per-doc distinct/total — then a per-lang partial.  Nothing larger than
    langs x 4 rows per block leaves the batch."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        d = np.repeat(np.arange(batch.num_rows, dtype=np.int64), n_tok)
        t = pa.table({"d": pa.array(d), "token": toks.flatten()})
        t = t.filter(pc.not_equal(t["token"], pa.scalar("")))
        # (doc, token) multiplicity -> per-doc total + distinct in one more
        # group_by; docs whose every token was filtered drop out, exactly
        # like SQL's per-doc GROUP BY over zero unnested rows
        g = t.group_by(["d", "token"]).aggregate([("token", "count")])
        per_doc = g.group_by("d").aggregate(
            [("token_count", "sum"), ("token", "count")]
        )
        di = per_doc["d"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_numpy(zero_copy_only=False)[di],
                "total": per_doc["token_count_sum"].to_numpy(zero_copy_only=False),
                "dist": per_doc["token_count"].to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby("lang", sort=False, as_index=False).agg(
            total=("total", "sum"), dist=("dist", "sum"), n_docs=("dist", "size")
        )
        return out

    from q_digest_ray.functions.fixedpoint import duckdb_round_double, exact_sum

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            total, dist = exact_sum(g["total"]), exact_sum(g["dist"])
            rows.append(
                {
                    "lang": lang,
                    "total_tokens": total,
                    "distinct_tokens": dist,
                    "dup_token_frac": duckdb_round_double(1.0 - dist / total, 6),
                    "n_docs": exact_sum(g["n_docs"]),
                }
            )
        return pd.DataFrame(rows)

    out = two_phase(ds, partial, final)
    for c in ("total_tokens", "distinct_tokens", "n_docs"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


REPETITION_STATS_SQL = r"""
WITH toks AS (
  SELECT doc_id, lang, t.token AS token
  FROM (SELECT doc_id, lang, string_split_regex(lower(text), '\s+') AS ts
        FROM documents WHERE text IS NOT NULL AND lang IS NOT NULL),
       unnest(ts) AS t(token)
  WHERE t.token <> ''
), per_doc AS (
  SELECT doc_id, any_value(lang) AS lang, count(*) AS total,
         count(DISTINCT token) AS dist
  FROM toks GROUP BY doc_id
)
SELECT lang,
       CAST(sum(total) AS BIGINT) AS total_tokens,
       CAST(sum(dist) AS BIGINT) AS distinct_tokens,
       round(1.0 - CAST(sum(dist) AS DOUBLE) / CAST(sum(total) AS DOUBLE), 6)
         AS dup_token_frac,
       count(*) AS n_docs
FROM per_doc GROUP BY lang ORDER BY lang
"""


def cumulative_spend(sf_dir: str, num_buckets: int | None = None):
    """Ordered window function (running total): per customer, orders
    sorted by (o_orderdate, o_orderkey) with row_number and cumulative
    spend — the PARTITION BY ... ORDER BY ... ROWS UNBOUNDED PRECEDING
    shape.  Customers are co-located via coarse hash buckets (the
    sessionize pattern: B size-derived ray-level groups, not one per
    customer); within a bucket the whole window computation is one
    vectorized sort + segmented cumsum.  Exact cents via fixedpoint."""
    ds = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )
    B = num_buckets or derive_buckets(ds)

    from q_digest_ray.functions.fixedpoint import scaled_int64

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = pc.bit_wise_and(batch["o_custkey"], pa.scalar(B - 1, pa.int64()))
        batch = batch.append_column("bucket", pc.cast(b, pa.int32()))
        v100 = scaled_int64(batch["o_totalprice"].to_numpy(zero_copy_only=False), 2)
        return batch.append_column("v100", pa.array(v100))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cum = g.groupby("o_custkey", sort=False)["v100"].cumsum()
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"],
                "o_orderkey": g["o_orderkey"],
                "o_orderdate": pd.to_datetime(g["o_orderdate"]).dt.strftime(
                    "%Y-%m-%d"
                ),
                "order_rank": g.groupby("o_custkey", sort=False).cumcount() + 1,
                "cum_spend": cum / 100.0,  # exact 2-dec cents
            }
        )

    df = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["order_rank"] = df["order_rank"].astype("int64")
    return df.sort_values(["o_custkey", "order_rank"]).reset_index(drop=True)


CUMULATIVE_SPEND_SQL = """
SELECT o_custkey, o_orderkey, strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       CAST(row_number() OVER w AS BIGINT) AS order_rank,
       CAST(round(sum(CAST(o_totalprice AS DECIMAL(18,2))) OVER w, 2) AS DOUBLE)
         AS cum_spend
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
             ROWS UNBOUNDED PRECEDING)
ORDER BY o_custkey, order_rank
"""


def props_value_by_type(sf_dir: str):
    """Semi-structured (JSON) field extraction — the log-enrichment shape:
    pull ``k`` out of the events ``props`` JSON column and aggregate it per
    event_type, all without a JSON parser in the hot path.

    Extraction is one vectorized RE2 ``extract_regex`` per batch (the SAME
    pattern + engine as the oracle's ``regexp_extract``, so missing/NULL
    props agree on both sides); sums are exact Python ints; avg derives
    from the two exact sums so it is order-independent."""
    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        m = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        kn = k.to_numpy(zero_copy_only=False)  # float64 w/ NaN where null
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "k": np.nan_to_num(kn).astype(np.int64),
                "has_k": ~np.isnan(kn),
            }
        )
        return df.groupby("event_type", sort=False, as_index=False).agg(
            n_events=("k", "size"), n_with_k=("has_k", "sum"), sum_k=("k", "sum")
        )

    from q_digest_ray.functions.fixedpoint import duckdb_round_double, exact_sum

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type"):
            n, nk = exact_sum(g["n_events"]), exact_sum(g["n_with_k"])
            s = exact_sum(g["sum_k"])
            rows.append(
                {
                    "event_type": et,
                    "n_events": n,
                    "n_with_k": nk,
                    "sum_k": s,
                    "avg_k": duckdb_round_double(s / nk, 6) if nk else None,
                }
            )
        return pd.DataFrame(rows)

    out = two_phase(ds, partial, final)
    for c in ("n_events", "n_with_k", "sum_k"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


PROPS_VALUE_BY_TYPE_SQL = r"""
SELECT event_type,
       count(*) AS n_events,
       count(k) AS n_with_k,
       CAST(coalesce(sum(k), 0) AS BIGINT) AS sum_k,
       CASE WHEN count(k) = 0 THEN NULL
            ELSE round(CAST(sum(k) AS DOUBLE) / count(k), 6) END AS avg_k
FROM (SELECT event_type,
             CAST(NULLIF(regexp_extract(props, '"k":\s*(\d+)', 1), '') AS BIGINT) AS k
      FROM events)
GROUP BY event_type ORDER BY event_type
"""


def normalized_dedup_by_source(sf_dir: str, num_buckets: int | None = None):
    """Normalization-aware dedup rate (the near-exact-dup census run before
    any fuzzy pass): per source, docs vs distinct texts AFTER lowercasing
    and collapsing whitespace runs — the canonical text-normalization key.

    Per batch: one RE2 normalize (same pattern + engine as the oracle) →
    128-bit content keys → distinct (source, key) rows with their in-batch
    multiplicity, hash-bucketed BY KEY so equal texts co-locate.  Each
    bucket counts docs and distinct keys per source; exact sums are safe
    because each key lives in exactly one bucket.  Shuffle volume is ~28 B
    per distinct (source, text) per batch — normalized texts never ship."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        from q_digest_ray.functions.hashing import content_key128

        batch = batch.filter(pc.is_valid(batch["text"]))
        norm = pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), r"\s+", " "
        )
        h1, h2, bucket = content_key128(norm, B)
        t = pa.table(
            {
                "source": batch["source"],
                "h": pa.array(h1),
                "h2": pa.array(h2),
                "bucket": pa.array(bucket),
            }
        )
        return t.group_by(["source", "h", "h2", "bucket"]).aggregate(
            [("h", "count")]
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["source", "h", "h2"], as_index=False, sort=False).agg(
            n=("h_count", "sum")
        )
        return s.groupby("source", as_index=False).agg(
            n_docs=("n", "sum"), n_distinct_norm=("n", "size")
        )

    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = df.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_distinct_norm=("n_distinct_norm", "sum")
    )
    out["dup_frac"] = [
        duckdb_round_double(1.0 - d / n, 6)
        for d, n in zip(out["n_distinct_norm"], out["n_docs"])
    ]
    for c in ("n_docs", "n_distinct_norm"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


NORMALIZED_DEDUP_SQL = r"""
SELECT source, count(*) AS n_docs,
       count(DISTINCT regexp_replace(lower(text), '\s+', ' ', 'g'))
         AS n_distinct_norm,
       round(1.0 - CAST(count(DISTINCT regexp_replace(lower(text), '\s+', ' ', 'g'))
                        AS DOUBLE) / count(*), 6) AS dup_frac
FROM documents WHERE text IS NOT NULL
GROUP BY source ORDER BY source
"""


def top_bigrams(sf_dir: str, k: int = 20, num_buckets: int | None = None):
    """N-gram counting (the LM-corpus bigram census): global top-k
    adjacent-token pairs by exact count.

    Per batch: one RE2 edge-trim + split (same patterns as the oracle),
    bigrams formed on the FLAT token array with a doc-boundary mask (no
    per-doc loop), Arrow group_by for in-batch counts → hash-bucket BY
    BIGRAM so each pair's global total lands in one bucket → per-bucket
    exact sums + bucket-local top-k → final re-rank of B x k candidate
    rows.  A global top-k bigram's full count lives in exactly one bucket,
    so candidate pruning is lossless; the pair vocabulary never aggregates
    in one task."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["text"]))
        trimmed = pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), r"^\s+|\s+$", ""
        )
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        n = len(flat)
        if n < 2:
            return pa.table(
                {
                    "bigram": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        # pair (i, i+1) is valid unless i+1 starts a new doc's token list
        valid = np.ones(n - 1, dtype=bool)
        starts = np.asarray(toks.offsets)[1:-1]  # where lists 1.. begin
        starts = starts[(starts >= 1) & (starts <= n - 1)]
        valid[starts - 1] = False
        left, right = flat.slice(0, n - 1), flat.slice(1, n - 1)
        # empty tokens can only come from empty docs ('' -> ['']) after the
        # edge trim; still excluded explicitly to match the oracle's filter
        valid &= np.asarray(pc.not_equal(left, pa.scalar("")).to_numpy(
            zero_copy_only=False
        ))
        valid &= np.asarray(pc.not_equal(right, pa.scalar("")).to_numpy(
            zero_copy_only=False
        ))
        mask = pa.array(valid)
        bigram = pc.binary_join_element_wise(
            left.filter(mask), right.filter(mask), " "
        )
        g = pa.table({"bigram": bigram}).group_by("bigram").aggregate(
            [("bigram", "count")]
        )
        bucket = (hash64(g["bigram"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "bigram": g["bigram"],
                "cnt": g["bigram_count"].cast(pa.int64()),
                "bucket": pa.array(bucket),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("bigram", as_index=False, sort=False).agg(cnt=("cnt", "sum"))
        return s.sort_values(["cnt", "bigram"], ascending=[False, True]).head(k)

    cand = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()  # <= B x k tiny candidate rows
    )
    out = cand.sort_values(["cnt", "bigram"], ascending=[False, True]).head(k)
    out = out.reset_index(drop=True)
    out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
    out["cnt"] = out["cnt"].astype("int64")
    return out[["rn", "bigram", "cnt"]]


TOP_BIGRAMS_SQL = r"""
WITH d AS (
  SELECT string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), pairs AS (
  SELECT s[i] || ' ' || s[i+1] AS bigram
  FROM d, unnest(generate_series(1, len(s)-1)) AS t(i)
  WHERE s[i] <> '' AND s[i+1] <> ''
)
SELECT rn, bigram, cnt FROM (
  SELECT bigram, CAST(count(*) AS BIGINT) AS cnt,
         row_number() OVER (ORDER BY count(*) DESC, bigram) AS rn
  FROM pairs GROUP BY bigram
) WHERE rn <= 20 ORDER BY rn
"""


def trimmed_mean_nchars_by_lang(sf_dir: str, trim: float = 0.05):
    """EXACT per-lang TRIMMED MEAN of n_chars (drop the lowest and highest
    ⌊trim·n⌋ observations, average the rest) — the robust location
    statistic quality dashboards prefer when outliers corrupt the mean
    (the moment-based cousin of `mad_nchars_by_lang`).

    One distributed (lang, value)-counts histogram (the same partial shape
    as every exact-quantile query); the trimmed window is then pure
    integer arithmetic over each lang's sorted histogram: per value-bucket
    contribution = clip(cum, k, n−k) − clip(cum_prev, k, n−k), summed as
    exact ints, ONE float division at the end — order-independent and
    byte-stable vs the oracle's row_number window form."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "v": batch["n_chars"].to_numpy(zero_copy_only=False),
            }
        )
        return df.groupby(["lang", "v"], sort=False, as_index=False).size().rename(
            columns={"size": "c"}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "v"], as_index=False).agg(c=("c", "sum"))
        rows = []
        for lang, grp in g.groupby("lang"):
            grp = grp.sort_values("v")
            c = grp["c"].to_numpy(np.int64)
            v = grp["v"].to_numpy(np.int64)
            n = int(c.sum())
            k = int(trim * n)
            cum = np.cumsum(c)
            hi = np.clip(cum, k, n - k)
            lo = np.clip(cum - c, k, n - k)
            w = hi - lo
            total = int((v.astype(object) * w.astype(object)).sum())
            kept = n - 2 * k
            rows.append(
                {
                    "lang": lang,
                    "n": n,
                    "n_trimmed_each_side": k,
                    # float(total) FIRST (exact sum -> double), then divide — the
                    # same op order as the oracle's sum*1.0/kept
                    "trimmed_mean": duckdb_round_double(float(total) / kept, 4),
                }
            )
        out = pd.DataFrame(rows)
        out["n"] = out["n"].astype("int64")
        out["n_trimmed_each_side"] = out["n_trimmed_each_side"].astype("int64")
        return out

    return two_phase(ds, partial, final).sort_values("lang").reset_index(drop=True)


TRIMMED_MEAN_SQL = """
WITH r AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
)
SELECT lang,
       CAST(any_value(n) AS BIGINT) AS n,
       CAST(floor(0.05 * any_value(n)) AS BIGINT) AS n_trimmed_each_side,
       round(sum(n_chars) FILTER (WHERE rn > floor(0.05 * n)
                                    AND rn <= n - floor(0.05 * n))
             * 1.0 /
             (any_value(n) - 2 * floor(0.05 * any_value(n))), 4)
         AS trimmed_mean
FROM r GROUP BY lang ORDER BY lang
"""


def chi2_lang_source(sf_dir: str):
    """CHI-SQUARE INDEPENDENCE audit of corpus composition (lang ×
    source): the classic contingency test a mixture monitor runs to ask
    "did the language mix drift between sources?" — χ² = Σ(O−E)²/E with
    E = row·col/N, degrees of freedom, and Cramér's V effect size.

    Everything derives from the tiny (source, lang) count table (one thin
    two-phase; the SAME partial shape as lang_source_matrix) — zero new
    exchange; the test statistic is driver-side arithmetic over
    |sources|×|langs| cells, summed in (source, lang) order and rounded
    to 4 decimals so the SQL oracle's unordered SUM cannot diverge."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["source", "lang"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "source": batch["source"].to_pandas(),
                "lang": batch["lang"].to_pandas(),
            }
        )
        return df.groupby(["source", "lang"], sort=False, as_index=False).size().rename(
            columns={"size": "n"}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["source", "lang"], as_index=False).agg(n=("n", "sum"))

    cells = two_phase(ds, partial, final).sort_values(["source", "lang"])
    N = int(cells["n"].sum())
    row = cells.groupby("source")["n"].sum()
    col = cells.groupby("lang")["n"].sum()
    # every (source, lang) combination, including zero cells, contributes
    full = (
        pd.MultiIndex.from_product([row.index, col.index], names=["source", "lang"])
        .to_frame(index=False)
        .merge(cells, on=["source", "lang"], how="left")
        .fillna({"n": 0})
        .sort_values(["source", "lang"])
    )
    obs = full["n"].to_numpy(np.float64)
    exp = (
        row.loc[full["source"]].to_numpy(np.float64)
        * col.loc[full["lang"]].to_numpy(np.float64)
        / N
    )
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    r, c = len(row), len(col)
    dof = (r - 1) * (c - 1)
    cramers_v = float(np.sqrt(chi2 / (N * min(r - 1, c - 1))))
    return pd.DataFrame(
        {
            "n": [N],
            "n_sources": [np.int64(r)],
            "n_langs": [np.int64(c)],
            "dof": [np.int64(dof)],
            "chi2": [duckdb_round_double(chi2, 4)],
            "cramers_v": [duckdb_round_double(cramers_v, 4)],
        }
    )


CHI2_LANG_SOURCE_SQL = """
WITH cells AS (
  SELECT source, lang, CAST(count(*) AS DOUBLE) AS n
  FROM documents GROUP BY source, lang
), rt AS (SELECT source, sum(n) AS rn FROM cells GROUP BY source),
ct AS (SELECT lang, sum(n) AS cn FROM cells GROUP BY lang),
tot AS (SELECT sum(n) AS n FROM cells),
grid AS (
  SELECT rt.source, ct.lang, coalesce(cells.n, 0) AS o,
         rt.rn * ct.cn / tot.n AS e
  FROM rt CROSS JOIN ct CROSS JOIN tot
  LEFT JOIN cells USING (source, lang)
), stat AS (
  SELECT sum((o - e) * (o - e) / e) AS chi2 FROM grid
)
SELECT CAST(tot.n AS BIGINT) AS n,
       (SELECT CAST(count(*) AS BIGINT) FROM rt) AS n_sources,
       (SELECT CAST(count(*) AS BIGINT) FROM ct) AS n_langs,
       (SELECT CAST((count(*) - 1) AS BIGINT) FROM rt)
         * (SELECT CAST((count(*) - 1) AS BIGINT) FROM ct) AS dof,
       round(stat.chi2, 4) AS chi2,
       round(sqrt(stat.chi2 / (tot.n * least(
         (SELECT count(*) - 1 FROM rt), (SELECT count(*) - 1 FROM ct)))), 4)
         AS cramers_v
FROM stat, tot
"""


def pmi_collocations(sf_dir: str, k: int = 20, num_buckets: int | None = None):
    """COLLOCATION STRENGTH (pointwise mutual information) of the corpus's
    top-k most frequent bigrams: PMI = ln(P(ab) / (P(a)·P(b))) under the
    unigram/bigram maximum-likelihood estimates — the classic collocation
    statistic (Church & Hanks 1990) a vocabulary-construction pass ranks
    merge candidates by.

    Two scans: the exact bigram census (``top_bigrams`` machinery —
    bucket-local lossless top-k) fixes the candidate set, then ONE pass
    counts the candidates' constituent tokens (np.isin against the ≤2k
    closure-shipped candidate tokens — no vocabulary-sized exchange) plus
    the exact token/bigram totals as two sentinel rows (tokens cannot
    contain whitespace, so ``' NT '``/``' NB '`` cannot collide).  PMI is
    computed driver-side over k rows in the SAME float op order as the
    oracle and rounded to 4 decimals; ties break by bigram."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    cand = top_bigrams(sf_dir, k=k, num_buckets=num_buckets)
    if cand.empty:
        return pd.DataFrame(
            {
                "rn": pd.Series([], dtype="int64"),
                "bigram": pd.Series([], dtype="object"),
                "cnt": pd.Series([], dtype="int64"),
                "pmi": pd.Series([], dtype="float64"),
            }
        )
    cand_tokens = np.unique(
        np.concatenate([s.split(" ") for s in cand["bigram"]])
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(pc.is_valid(batch["text"]))
        trimmed = pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), r"^\s+|\s+$", ""
        )
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten())
        lens = np.diff(np.asarray(toks.offsets))
        nonempty = ~np.asarray(pc.equal(trimmed, "").fill_null(True))
        nt = int(lens[nonempty].sum())
        nb = int(np.maximum(lens[nonempty] - 1, 0).sum())
        idx = np.searchsorted(cand_tokens, flat)
        idx[idx >= len(cand_tokens)] = 0
        hit = cand_tokens[idx] == flat
        counts = np.bincount(idx[hit], minlength=len(cand_tokens))
        return pd.DataFrame(
            {
                "token": np.concatenate([cand_tokens, [" NT ", " NB "]]),
                "cnt": np.concatenate([counts, [nt, nb]]).astype(np.int64),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("token", as_index=False).agg(cnt=("cnt", "sum"))

    ds = read_table(sf_dir, "documents", columns=["text"])
    tk = two_phase(ds, partial, final)
    counts = dict(zip(tk["token"], tk["cnt"].astype(int)))
    nt, nb = counts[" NT "], counts[" NB "]
    rows = []
    for _, r in cand.iterrows():
        a, b = r["bigram"].split(" ")
        pmi = np.log(
            (int(r["cnt"]) / nb) / ((counts[a] / nt) * (counts[b] / nt))
        )
        rows.append((r["bigram"], int(r["cnt"]), duckdb_round_double(pmi, 4)))
    out = pd.DataFrame(rows, columns=["bigram", "cnt", "pmi"]).sort_values(
        ["pmi", "bigram"], ascending=[False, True]
    )
    out = out.reset_index(drop=True)
    out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
    out["cnt"] = out["cnt"].astype("int64")
    return out


PMI_COLLOCATIONS_SQL = r"""
WITH d AS (
  SELECT string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), tk AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS c
  FROM (SELECT unnest(s) AS tok FROM d) WHERE tok <> '' GROUP BY tok
), nt AS (
  SELECT CAST(sum(c) AS BIGINT) AS nt FROM tk
), bi AS (
  SELECT s[i] || ' ' || s[i+1] AS bigram, CAST(count(*) AS BIGINT) AS cnt
  FROM d, unnest(generate_series(1, len(s)-1)) AS t(i)
  WHERE s[i] <> '' AND s[i+1] <> ''
  GROUP BY 1
), nb AS (
  SELECT CAST(sum(cnt) AS BIGINT) AS nb FROM bi
), top AS (
  SELECT bigram, cnt FROM bi ORDER BY cnt DESC, bigram LIMIT 20
), sc AS (
  SELECT t.bigram, t.cnt,
         round(ln((t.cnt * 1.0 / nb) /
                  ((a.c * 1.0 / nt) * (b.c * 1.0 / nt))), 4) AS pmi
  FROM top t
  JOIN tk a ON a.tok = string_split(t.bigram, ' ')[1]
  JOIN tk b ON b.tok = string_split(t.bigram, ' ')[2], nt, nb
)
SELECT CAST(row_number() OVER (ORDER BY pmi DESC, bigram) AS BIGINT) AS rn,
       bigram, cnt, pmi
FROM sc ORDER BY rn
"""


def _span_token_view(batch: pa.Table, K: int):
    """Tokenized batch view shared by the span census (dup_spans*) and the
    span-removal rewrite — ONE tokenization so every span pass agrees
    byte-for-byte.  Returns None for an all-null batch, else
    ``(filtered_batch, flat_tokens, per_doc_offsets, shingles, starts)``
    where ``shingles``/``starts`` are the K-word shingle strings at valid
    (non-doc-crossing) flat start indices, or (None, None) when the batch
    yields no shingles."""
    batch = batch.filter(pc.is_valid(batch["text"]))
    if len(batch) == 0:
        return None
    trimmed = pc.replace_substring_regex(
        pc.utf8_lower(batch["text"]), r"^\s+|\s+$", ""
    )
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    offs = np.asarray(toks.offsets)
    n = len(flat)
    if n < K:
        return batch, flat, offs, None, None
    m = n - K + 1
    valid = np.ones(m, dtype=bool)
    starts = offs[1:-1]
    for j in range(1, K):
        s = starts - j
        s = s[(s >= 0) & (s < m)]
        valid[s] = False
    shingle = pc.binary_join_element_wise(
        *[flat.slice(j, m) for j in range(K)], " "
    )
    sh = shingle.filter(pa.array(valid))
    if len(sh) == 0:
        return batch, flat, offs, None, None
    return batch, flat, offs, sh, np.flatnonzero(valid)


def _span_shingles(batch: pa.Table, K: int):
    """(shingle strings, doc_id per shingle) for all K-word shingles of a
    batch (see _span_token_view).  Returns (None, None) when the batch
    yields no shingles."""
    view = _span_token_view(batch, K)
    if view is None:
        return None, None
    batch, flat, offs, sh, starts = view
    if sh is None:
        return None, None
    tokdoc = np.repeat(
        batch["doc_id"].to_numpy(zero_copy_only=False), np.diff(offs)
    )
    return sh, tokdoc[starts]


def dup_spans(
    sf_dir: str, k_words: int = 5, top: int = 20, num_buckets: int | None = None
):
    """EXACT duplicated-span census (the word-level exact-substring-dedup
    shape of Lee et al. 2021, also the exact n-gram decontamination
    primitive): every k-word shingle that occurs in >= 2 distinct docs,
    ranked by (#docs sharing it, total occurrences), global top-k.

    Per batch: one RE2 edge-trim + lowercase + split, shingles formed on
    the FLAT token array by joining K shifted slices with a doc-boundary
    mask (no per-doc loop), Arrow group_by (shingle, doc_id) for in-batch
    partials.  A doc lives wholly inside one batch, so each (shingle,
    doc_id) pair leaves exactly one block -> hash-bucket BY SHINGLE so a
    shingle's global doc-set lands in one bucket -> per-bucket exact
    n_docs/occurrences + bucket-local top-k under the SAME total order ->
    final re-rank of B x top candidate rows (lossless pruning).

    100-TB note: the exchanged rows are (shingle-string, doc_id) partials
    — at true corpus scale ship hash64(shingle) (16 bytes) instead and
    recover the winning shingles' text with one candidate-filtered second
    pass; the string form is kept here because the oracle compares text."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    K = k_words

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "shingle": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "occ": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int32()),
            }
        )
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return empty
        t = pa.table({"shingle": sh, "doc_id": pa.array(doc)})
        t = t.append_column("occ", pa.array(np.ones(len(t), np.int64)))
        g = t.group_by(["shingle", "doc_id"]).aggregate([("occ", "sum")])
        bucket = (hash64(g["shingle"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "shingle": g["shingle"],
                "doc_id": g["doc_id"].cast(pa.int64()),
                "occ": g["occ_sum"].cast(pa.int64()),
                "bucket": pa.array(bucket),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("shingle", as_index=False, sort=False).agg(
            n_docs=("doc_id", "nunique"), occurrences=("occ", "sum")
        )
        s = s[s["n_docs"] >= 2]
        return s.sort_values(
            ["n_docs", "occurrences", "shingle"], ascending=[False, False, True]
        ).head(top)

    cand = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    if cand.empty:
        return pd.DataFrame(
            {
                "rn": pd.Series([], dtype="int64"),
                "shingle": pd.Series([], dtype="object"),
                "n_docs": pd.Series([], dtype="int64"),
                "occurrences": pd.Series([], dtype="int64"),
            }
        )
    out = cand.sort_values(
        ["n_docs", "occurrences", "shingle"], ascending=[False, False, True]
    ).head(top)
    out = out.reset_index(drop=True)
    out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["occurrences"] = out["occurrences"].astype("int64")
    return out[["rn", "shingle", "n_docs", "occurrences"]]


DUP_SPANS_SQL = r"""
WITH d AS (
  SELECT doc_id, string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), sh AS (
  SELECT doc_id, array_to_string(s[i:i+4], ' ') AS shingle
  FROM d, unnest(generate_series(1, len(s)-4)) AS t(i)
  WHERE len(s) >= 5
)
SELECT rn, shingle, n_docs, occurrences FROM (
  SELECT shingle, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
         CAST(count(*) AS BIGINT) AS occurrences,
         row_number() OVER (
           ORDER BY count(DISTINCT doc_id) DESC, count(*) DESC, shingle
         ) AS rn
  FROM sh GROUP BY shingle HAVING count(DISTINCT doc_id) >= 2
) WHERE rn <= 20 ORDER BY rn
"""


def dup_spans_scalable(
    sf_dir: str, k_words: int = 5, top: int = 20, num_buckets: int | None = None
):
    """The 100-TB form of ``dup_spans``, producing BYTE-IDENTICAL output:
    pass 1 ships only (hash64(shingle), doc_id, count) — 16-byte keys
    instead of shingle text — aggregates per hash in buckets, and keeps
    each bucket's top candidates WITH boundary ties on (n_docs,
    occurrences) so no true winner can be cut; pass 2 re-scans the corpus,
    keeps only shingles whose hash is in the broadcast candidate set
    (searchsorted membership), and re-ranks EXACTLY on the recovered
    strings.  A hash collision can only add a spurious candidate (counts
    are recomputed per string in pass 2); a colliding hash's aggregate
    counts dominate each of its strings', so a winner's own hash always
    survives selection — the residual risk is a collision INFLATING a
    different same-bucket hash past a boundary-tie cut, displacing a true
    winner, so byte-identity holds except under a 64-bit shingle-hash
    collision among same-bucket candidates (~2^-64 per pair; the boundary
    tie-keep margin absorbs the common cases).

    Same oracle as dup_spans; parity asserted in tests."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    K = k_words

    def p1(batch: pa.Table) -> pd.DataFrame:
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return pd.DataFrame(
                {
                    "h": pd.Series([], dtype="int64"),
                    "doc_id": pd.Series([], dtype="int64"),
                    "occ": pd.Series([], dtype="int64"),
                    "bucket": pd.Series([], dtype="int32"),
                }
            )
        h = hash64(sh)
        df = pd.DataFrame({"h": h.view(np.int64), "doc_id": doc})
        g = df.groupby(["h", "doc_id"], sort=False, as_index=False).agg(
            occ=("h", "size")
        )
        g["bucket"] = (
            g["h"].to_numpy().view(np.uint64) % np.uint64(B)
        ).astype(np.int32)
        return g

    def cand_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("h", as_index=False, sort=False).agg(
            n_docs=("doc_id", "nunique"), occurrences=("occ", "sum")
        )
        s = s[s["n_docs"] >= 2]
        if len(s) == 0:
            return pd.DataFrame({"h": pd.Series([], dtype="int64")})
        s = s.sort_values(
            ["n_docs", "occurrences"], ascending=[False, False]
        ).reset_index(drop=True)
        if len(s) > top:
            nd, oc = s.loc[top - 1, "n_docs"], s.loc[top - 1, "occurrences"]
            # keep boundary ties: everything >= the k-th (n_docs, occ) pair
            s = s[
                (s["n_docs"] > nd)
                | ((s["n_docs"] == nd) & (s["occurrences"] >= oc))
            ]
        return s[["h"]]

    cand = (
        ds.map_batches(p1, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(cand_bucket, batch_format="pandas")
        .to_pandas()
    )
    empty = pd.DataFrame(
        {
            "rn": pd.Series([], dtype="int64"),
            "shingle": pd.Series([], dtype="object"),
            "n_docs": pd.Series([], dtype="int64"),
            "occurrences": pd.Series([], dtype="int64"),
        }
    )
    if cand.empty:
        return empty
    cand_sorted = np.sort(cand["h"].to_numpy(dtype=np.int64))

    def p2(batch: pa.Table) -> pd.DataFrame:
        cols = {
            "shingle": pd.Series([], dtype="object"),
            "doc_id": pd.Series([], dtype="int64"),
            "occ": pd.Series([], dtype="int64"),
        }
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return pd.DataFrame(cols)
        h = hash64(sh).view(np.int64)
        pos = np.searchsorted(cand_sorted, h)
        pos = np.minimum(pos, len(cand_sorted) - 1)
        hit = cand_sorted[pos] == h
        if not hit.any():
            return pd.DataFrame(cols)
        df = pd.DataFrame(
            {
                "shingle": np.asarray(sh.to_numpy(zero_copy_only=False))[hit],
                "doc_id": doc[hit],
            }
        )
        return df.groupby(["shingle", "doc_id"], sort=False, as_index=False).agg(
            occ=("doc_id", "size")
        )

    # final grouping stays distributed: candidate rows re-bucket by
    # shingle hash (a candidate's rows land in one bucket, so per-bucket
    # aggregates are global) and only <= B x top rows reach the driver
    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            df["bucket"] = pd.Series([], dtype="int32")
            return df
        h = hash64(pa.array(df["shingle"].to_numpy(dtype=object)))
        df["bucket"] = (h % np.uint64(B)).astype(np.int32)
        return df

    def p2_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("shingle", as_index=False, sort=False).agg(
            n_docs=("doc_id", "nunique"), occurrences=("occ", "sum")
        )
        s = s[s["n_docs"] >= 2]
        return s.sort_values(
            ["n_docs", "occurrences", "shingle"], ascending=[False, False, True]
        ).head(top)

    cand_rows = (
        ds.map_batches(p2, batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(p2_bucket, batch_format="pandas")
        .to_pandas()
    )
    if cand_rows.empty:
        return empty
    out = cand_rows.sort_values(
        ["n_docs", "occurrences", "shingle"], ascending=[False, False, True]
    ).head(top)
    out = out.reset_index(drop=True)
    out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["occurrences"] = out["occurrences"].astype("int64")
    return out[["rn", "shingle", "n_docs", "occurrences"]]


def span_removal_dedup(
    sf_dir: str, k_words: int = 5, min_docs: int = 2, num_buckets: int | None = None
):
    """SPAN-REMOVAL dedup — the rewrite half of Lee et al. 2021 exact-
    substring dedup that dup_spans* only censuses: every K-word span
    occurring in >= ``min_docs`` distinct docs is EXCISED from all docs
    (ExactSubstr-cut semantics — remove-all is the partition-invariant
    form; keep-one would need a global occurrence order), docs are rebuilt
    from surviving tokens, fully-duplicated docs drop out.

    Matching and output both operate on the lowercased whitespace-
    normalized token stream (the dup_spans tokenization), so the rebuilt
    text is byte-exact vs the SQL oracle computing the identical rebuild.

    Physical plan: pass 1 ships (hash64(shingle), doc_id) 16-byte pairs
    bucketed by hash, per-bucket distinct-doc counts yield the duplicated-
    hash set (no shingle text on the wire); the sorted hash set broadcasts
    via ray.put and pass 2 is ONE doc-local map — searchsorted membership
    marks covered token positions, a cumsum re-offsets survivors, and
    pc.binary_join rebuilds every doc's text vectorized (no per-doc Python
    loop).  At 100 TB a too-large dup set shards by hash range into G
    groups and pass 2 runs per group excising cumulatively (same output:
    coverage is a union over matches).  Collision caveat: a 64-bit hash
    collision could excise an innocent span (~2^-64/pair; counts are per
    hash, not per string)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    K = k_words

    def p1(batch: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "h": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "bucket": pd.Series([], dtype="int32"),
            }
        )
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return empty
        h = hash64(sh).view(np.int64)
        df = pd.DataFrame({"h": h, "doc_id": doc}).drop_duplicates()
        df["bucket"] = (
            df["h"].to_numpy().view(np.uint64) % np.uint64(B)
        ).astype(np.int32)
        return df

    def dup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("h", as_index=False, sort=False).agg(
            n_docs=("doc_id", "nunique")
        )
        return s.loc[s["n_docs"] >= min_docs, ["h"]]

    dup = (
        ds.map_batches(p1, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(dup_bucket, batch_format="pandas")
        .to_pandas()
    )
    dup_sorted = (
        np.sort(dup["h"].to_numpy(dtype=np.int64))
        if len(dup)
        else np.zeros(0, dtype=np.int64)
    )
    dref = ray.put(dup_sorted)

    def p2(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_tokens_in": pa.array([], pa.int64()),
                "n_tokens_kept": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
            }
        )
        view = _span_token_view(batch, K)
        if view is None:
            return empty
        fbatch, flat, offs, sh, starts = view
        dup_h = ray.get(dref)
        cov = np.zeros(len(flat), dtype=bool)
        if sh is not None and len(dup_h):
            h = hash64(sh).view(np.int64)
            pos = np.searchsorted(dup_h, h)
            pos = np.minimum(pos, len(dup_h) - 1)
            hit = dup_h[pos] == h
            ms = starts[hit]
            for j in range(K):  # K marks, each vectorized over all matches
                cov[ms + j] = True
        kept = ~cov
        csum = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(kept, out=csum[1:])
        kept_per_doc = csum[offs[1:]] - csum[offs[:-1]]
        n_in = np.diff(offs).astype(np.int64)
        kept_tokens = flat.filter(pa.array(kept))
        new_offs = np.zeros(len(kept_per_doc) + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=new_offs[1:])
        text = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(new_offs, type=pa.int32()), kept_tokens
            ),
            " ",
        )
        t = pa.table(
            {
                "doc_id": fbatch["doc_id"].cast(pa.int64()),
                "n_tokens_in": pa.array(n_in),
                "n_tokens_kept": pa.array(kept_per_doc.astype(np.int64)),
                "text": text,
            }
        )
        return t.filter(pa.array(kept_per_doc > 0))

    out = ds.map_batches(p2, batch_format="pyarrow", batch_size=None).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_tokens_in": pd.Series([], dtype="int64"),
                "n_tokens_kept": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype="object"),
            }
        )
    for c in ("doc_id", "n_tokens_in", "n_tokens_kept"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def dup_span_length_hist(
    sf_dir: str, k_words: int = 5, min_docs: int = 2, num_buckets: int | None = None
):
    """MAXIMAL duplicated-region length distribution (the profile Lee et
    al. 2021 report for ExactSubstr dedup): overlapping/adjacent
    duplicated K-word shingle hits merge doc-locally into maximal covered
    runs, histogrammed by run length in tokens.  Answers "when we excise,
    how LONG are the regions?" — fixed-K shingle chaining recovers
    arbitrary-length duplicated substrings without a suffix array.

    Pass 1 is span_removal_dedup's exact dup-hash-set exchange (16-byte
    rows); pass 2 is one doc-local map: searchsorted membership marks
    covered positions, runs found by a single np.diff over the covered
    indices with doc-boundary breaks, per-batch (span_len, n_spans)
    partials combine exactly.  SQL oracle: the same cov CTE + the
    gaps-and-islands window trick."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    K = k_words

    def p1(batch: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "h": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "bucket": pd.Series([], dtype="int32"),
            }
        )
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return empty
        h = hash64(sh).view(np.int64)
        df = pd.DataFrame({"h": h, "doc_id": doc}).drop_duplicates()
        df["bucket"] = (
            df["h"].to_numpy().view(np.uint64) % np.uint64(B)
        ).astype(np.int32)
        return df

    def dup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("h", as_index=False, sort=False).agg(
            n_docs=("doc_id", "nunique")
        )
        return s.loc[s["n_docs"] >= min_docs, ["h"]]

    dup = (
        ds.map_batches(p1, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(dup_bucket, batch_format="pandas")
        .to_pandas()
    )
    dup_sorted = (
        np.sort(dup["h"].to_numpy(dtype=np.int64))
        if len(dup)
        else np.zeros(0, dtype=np.int64)
    )
    dref = ray.put(dup_sorted)

    def p2(batch: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "span_len": pd.Series([], dtype="int64"),
                "n_spans": pd.Series([], dtype="int64"),
            }
        )
        view = _span_token_view(batch, K)
        if view is None:
            return empty
        _fbatch, flat, offs, sh, starts = view
        dup_h = ray.get(dref)
        if sh is None or not len(dup_h):
            return empty
        h = hash64(sh).view(np.int64)
        pos = np.searchsorted(dup_h, h)
        pos = np.minimum(pos, len(dup_h) - 1)
        ms = starts[np.asarray(dup_h[pos] == h)]
        if ms.size == 0:
            return empty
        cov = np.zeros(len(flat), dtype=bool)
        for j in range(K):
            cov[ms + j] = True
        covi = np.flatnonzero(cov)
        docidx = np.searchsorted(offs, covi, side="right") - 1
        newrun = np.ones(covi.size, dtype=bool)
        newrun[1:] = (np.diff(covi) != 1) | (docidx[1:] != docidx[:-1])
        lengths = np.diff(np.append(np.flatnonzero(newrun), covi.size))
        u, c = np.unique(lengths, return_counts=True)
        return pd.DataFrame(
            {"span_len": u.astype(np.int64), "n_spans": c.astype(np.int64)}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("span_len", as_index=False).agg(n_spans=("n_spans", "sum"))

    out = two_phase(ds, p2, final)
    if out.empty or "span_len" not in out.columns:
        return pd.DataFrame(
            {
                "span_len": pd.Series([], dtype="int64"),
                "n_spans": pd.Series([], dtype="int64"),
            }
        )
    out["span_len"] = out["span_len"].astype("int64")
    out["n_spans"] = out["n_spans"].astype("int64")
    return out.sort_values("span_len").reset_index(drop=True)


DUP_SPAN_LENGTH_HIST_SQL = r"""
WITH d AS (
  SELECT doc_id, string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), sh AS (
  SELECT doc_id, i, array_to_string(s[i:i+4], ' ') AS shingle
  FROM d, unnest(generate_series(1, len(s)-4)) AS t(i)
  WHERE len(s) >= 5
), dup AS (
  SELECT shingle FROM sh GROUP BY shingle HAVING count(DISTINCT doc_id) >= 2
), cov AS (
  SELECT DISTINCT m.doc_id, u.p
  FROM (SELECT sh.doc_id, sh.i FROM sh JOIN dup USING (shingle)) m,
       unnest(generate_series(m.i, m.i+4)) AS u(p)
), runs AS (
  SELECT doc_id,
         p - row_number() OVER (PARTITION BY doc_id ORDER BY p) AS grp
  FROM cov
), spans AS (
  SELECT CAST(count(*) AS BIGINT) AS span_len FROM runs GROUP BY doc_id, grp
)
SELECT span_len, CAST(count(*) AS BIGINT) AS n_spans
FROM spans GROUP BY span_len ORDER BY span_len
"""


SPAN_REMOVAL_SQL = r"""
WITH d AS (
  SELECT doc_id, string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), sh AS (
  SELECT doc_id, i, array_to_string(s[i:i+4], ' ') AS shingle
  FROM d, unnest(generate_series(1, len(s)-4)) AS t(i)
  WHERE len(s) >= 5
), dup AS (
  SELECT shingle FROM sh GROUP BY shingle HAVING count(DISTINCT doc_id) >= 2
), cov AS (
  SELECT DISTINCT m.doc_id, u.p
  FROM (SELECT sh.doc_id, sh.i FROM sh JOIN dup USING (shingle)) m,
       unnest(generate_series(m.i, m.i+4)) AS u(p)
), toks AS (
  SELECT doc_id, unnest(range(1, len(s)+1)) AS pos, unnest(s) AS tok FROM d
)
SELECT t.doc_id AS doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens_in,
       CAST(count(*) FILTER (WHERE c.p IS NULL) AS BIGINT) AS n_tokens_kept,
       string_agg(t.tok, ' ' ORDER BY t.pos) FILTER (WHERE c.p IS NULL) AS text
FROM toks t LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.pos = c.p
GROUP BY t.doc_id
HAVING count(*) FILTER (WHERE c.p IS NULL) > 0
ORDER BY t.doc_id
"""


def ngram_contamination(
    sf_dir: str,
    k_words: int = 5,
    num_buckets: int | None = None,
    pair_gate: int = 5_000_000,
):
    """TRAIN→EVAL N-GRAM CONTAMINATION audit (the GPT-3 appendix-C /
    PaLM decontamination shape): an eval-split (val/test) doc is
    contaminated when ANY of its K-word shingles also occurs in any
    train-split doc, under the same deterministic 80/10/10 hash routing as
    ``train_val_test_split`` and the same tokenization as every span pass
    (``_span_token_view``).

    Distributed as two thin-row exchanges: distinct in-batch
    (hash64(shingle), doc_id, split) rows bucket BY SHINGLE HASH so each
    shingle's train/eval doc-sets co-locate (per-bucket vectorized
    membership via np.isin against the bucket's train-hash set), then the
    surviving eval (doc_id, split) hit pairs bucket BY DOC so the
    distinct-contaminated census is exact; the driver folds a ≤3-row table
    per bucket.  Shingle identity travels as hash64 (16-byte rows, texts
    never leave the tokenize stage) — a collision could only ADD a false
    flag, odds ~n_shingles²/2⁶⁴ per bucket (same stance as
    dup_spans_scalable).  Totals are per-split doc counts over ALL docs
    (one column-pruned doc_id pass); nothing text-sized ever shuffles."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    K = k_words

    def split_codes(did: np.ndarray) -> np.ndarray:
        b = ((did % 1000003) * 2654435761) % 1000000007 % 100
        return np.where(b < 80, 0, np.where(b < 90, 1, 2)).astype(np.int8)

    _EMPTY = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "split": pa.array([], pa.int8()),
            "bucket": pa.array([], pa.int32()),
        }
    )

    def partial(batch: pa.Table) -> pa.Table:
        sh, doc = _span_shingles(batch, K)
        if sh is None:
            return _EMPTY
        # uint64 hashes carried as int64 BIT PATTERNS (fixed cross-block
        # dtype — see the concomp._signature regression note)
        h = hash64(sh).view(np.int64)
        g = (
            pa.table({"h": pa.array(h), "doc_id": pa.array(doc)})
            .group_by(["h", "doc_id"])
            .aggregate([])
        )
        hh = g["h"].to_numpy(zero_copy_only=False)
        dd = g["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "h": g["h"],
                "doc_id": g["doc_id"].cast(pa.int64()),
                "split": pa.array(split_codes(dd)),
                "bucket": pa.array(
                    (hh.view(np.uint64) % np.uint64(B)).astype(np.int32)
                ),
            }
        )

    def per_shingle_bucket(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy()
        split = g["split"].to_numpy()
        train_h = np.unique(h[split == 0])
        hit = (split != 0) & np.isin(h, train_h)
        out = g.loc[hit, ["doc_id", "split"]].drop_duplicates()
        out["doc_bucket"] = (
            hash64(out["doc_id"].to_numpy()) % np.uint64(B)
        ).astype(np.int32)
        return out

    def per_doc_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["doc_id", "split"])
        c = u.groupby("split", as_index=False, sort=False).agg(n=("doc_id", "size"))
        c["n"] = c["n"].astype(np.int64)
        return c[["split", "n"]]

    hit_pairs = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_shingle_bucket, batch_format="pandas")
        .materialize()
    )
    # the hit-pair table is usually tiny (≤ contaminated eval docs × buckets
    # touched); below the gate dedup driver-side and skip the second
    # exchange's ~1 s fixed sort cost — the same limit(N+1) gate pattern as
    # shipping_priority's broadcast semi, with the bucketed path as the
    # at-scale fallback
    probe = hit_pairs.limit(pair_gate + 1).to_pandas()
    contam = {1: 0, 2: 0}
    if len(probe) <= pair_gate:
        if len(probe):
            u = probe.drop_duplicates(["doc_id", "split"])
            for s, n in u.groupby("split")["doc_id"].size().items():
                contam[int(s)] = int(n)
    else:
        hits = (
            hit_pairs.groupby("doc_bucket")
            .map_groups(per_doc_bucket, batch_format="pandas")
            .to_pandas()
        )
        if len(hits):
            for s, n in hits.groupby("split")["n"].sum().items():
                contam[int(s)] = int(n)

    # totals: per-split doc counts, doc_id column only
    dids = read_table(sf_dir, "documents", columns=["doc_id"])

    def tpartial(batch: pa.Table) -> pd.DataFrame:
        codes = split_codes(batch["doc_id"].to_numpy(zero_copy_only=False))
        return pd.DataFrame(
            {
                "split": np.arange(3, dtype=np.int8),
                "n": np.bincount(codes, minlength=3).astype(np.int64),
            }
        )

    def tfinal(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("split", as_index=False).agg(n=("n", "sum"))

    totals = two_phase(dids, tpartial, tfinal)
    tot = {int(r["split"]): int(r["n"]) for _, r in totals.iterrows()}

    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    names = {1: "val", 2: "test"}
    rows = [
        {
            "split": names[s],
            "n_docs": tot[s],
            "n_contaminated": contam[s],
            "contamination_pct": duckdb_round_double(
                contam[s] * 100.0 / tot[s], 4
            ),
        }
        # only splits PRESENT in the data — the oracle's totals CTE derives
        # rows from the rows themselves, so an empty split yields no row
        for s in (2, 1)  # 'test' < 'val' lexicographically
        if tot.get(s)
    ]
    return pd.DataFrame(rows)


NGRAM_CONTAMINATION_SQL = r"""
WITH d AS (
  SELECT doc_id,
         string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s,
         ((doc_id % 1000003) * 2654435761) % 1000000007 % 100 AS b
  FROM documents WHERE text IS NOT NULL
), ds AS (
  SELECT doc_id, s,
         CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END
           AS split
  FROM d
), sh AS (
  SELECT doc_id, split, array_to_string(s[i:i+4], ' ') AS shingle
  FROM ds, unnest(generate_series(1, len(s)-4)) AS t(i)
  WHERE len(s) >= 5
), train_sh AS (
  SELECT DISTINCT shingle FROM sh WHERE split = 'train'
), contam AS (
  SELECT DISTINCT sh.doc_id, sh.split
  FROM sh JOIN train_sh USING (shingle) WHERE sh.split <> 'train'
), totals AS (
  SELECT CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END
           AS split,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM (SELECT ((doc_id % 1000003) * 2654435761) % 1000000007 % 100 AS b
        FROM documents)
  GROUP BY 1
)
SELECT t.split, t.n_docs,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_contaminated,
       round(coalesce(c.n, 0) * 100.0 / t.n_docs, 4) AS contamination_pct
FROM totals t
LEFT JOIN (SELECT split, CAST(count(*) AS BIGINT) AS n FROM contam GROUP BY 1) c
  USING (split)
WHERE t.split <> 'train'
ORDER BY t.split
"""


def incremental_dedup(sf_dir: str, num_buckets: int | None = None):
    """INCREMENTAL corpus dedup against a PERSISTED key index (the daily-
    batch production shape): the even-doc_id half of documents plays the
    existing corpus — its distinct 128-bit content keys are written once
    as a bucketed parquet index (pipelines/export.build_key_index,
    ~16 bytes/doc) — and the odd half plays the new batch, anti-joined
    against the index with each bucket task reading ONLY its own key file
    (pipelines/export.dedup_against_index, partition-pruned by
    construction).  The old corpus TEXTS are never re-read — the property
    that makes daily dedup of a growing 100-TB corpus affordable.
    Reports the per-lang ingest funnel; exact-dedup key-collision stance
    as dedup_exact (equal text ⇒ equal key; silent merge needs a 128-bit
    collision)."""
    import shutil
    import tempfile

    from q_digest_ray.pipelines.export import build_key_index, dedup_against_index

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def half(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.equal(pc.bit_wise_and(batch["doc_id"], 1), parity)
            )

        return f

    def lang_counts_of(ds, col_name: str) -> pd.DataFrame:
        # all-dup buckets yield EMPTY blocks and Ray drops empty-block
        # schemas — both phases must tolerate schema-less empties
        empty = pd.DataFrame(
            {
                "lang": pd.Series([], dtype=object),
                col_name: pd.Series([], dtype="int64"),
            }
        )

        def partial(batch: pa.Table) -> pd.DataFrame:
            if batch.num_rows == 0 or "lang" not in batch.schema.names:
                return empty
            df = pd.DataFrame({"lang": batch["lang"].to_pandas()})
            return df.groupby("lang", sort=False, as_index=False).size().rename(
                columns={"size": col_name}
            )

        def final(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("lang", as_index=False).agg(**{col_name: (col_name, "sum")})

        out = two_phase(ds, partial, final)
        # no partial rows (every new doc a dup): two_phase returns a
        # column-less frame without calling final
        return out if "lang" in out.columns else empty

    old = docs.map_batches(half(0), batch_format="pyarrow", batch_size=None)
    new = docs.map_batches(half(1), batch_format="pyarrow", batch_size=None)
    idx_dir = tempfile.mkdtemp(prefix="qdr_keyidx_", dir="/tmp")
    try:
        build_key_index(old, idx_dir, num_buckets=num_buckets)
        kept = dedup_against_index(new, idx_dir)
        kc = lang_counts_of(kept, "n_kept")
        nc = lang_counts_of(new, "n_new")
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    out = nc.merge(kc, on="lang", how="left").fillna({"n_kept": 0})
    out["n_kept"] = out["n_kept"].astype("int64")
    out["n_new"] = out["n_new"].astype("int64")
    out["n_dup_of_old"] = (out["n_new"] - out["n_kept"]).astype("int64")
    return (
        out[["lang", "n_new", "n_dup_of_old", "n_kept"]]
        .sort_values("lang")
        .reset_index(drop=True)
    )


INCREMENTAL_DEDUP_SQL = """
WITH old AS (SELECT text FROM documents WHERE doc_id % 2 = 0),
     nw AS (SELECT lang, text FROM documents WHERE doc_id % 2 = 1)
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_new,
       CAST(sum(CASE WHEN text IN (SELECT text FROM old) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_dup_of_old,
       CAST(sum(CASE WHEN text IN (SELECT text FROM old) THEN 0 ELSE 1 END)
            AS BIGINT) AS n_kept
FROM nw GROUP BY lang ORDER BY lang
"""


def token_balanced_shards(
    sf_dir: str,
    target_shards: int = 16,
    unit_size: int = 4096,
    num_buckets: int | None = None,
):
    """TOKEN-BALANCED OUTPUT-SHARD PLANNING (the write-side packing step of
    a training-data export): docs in doc_id order are cut into
    ``target_shards`` contiguous shards of ~equal TOKEN mass — shard =
    exclusive-prefix-token-sum // budget, budget = ceil(total/target) — so
    every output file feeds a trainer the same work.  Reports each shard's
    doc count, token mass, id range and the fill ratio vs the ideal.

    Same exclusive-scan shape as running_total_events, keyed by contiguous
    doc_id UNITS (doc_id // unit_size): pass 1 computes per-unit token
    sums (thin two-phase), the driver prefix-sums the tiny ordered unit
    table and broadcasts unit→offset via ray.put; pass 2 re-tokenizes,
    ships only (unit, doc_id, n_tokens) rows into ~coarse hash buckets of
    units, sorts each unit locally, adds its offset and aggregates
    per-shard partials.  Two corpus scans, thin-row exchanges only; at
    100× scale ``unit_size`` grows with the corpus exactly like
    derive_buckets (the unit table must stay driver-small)."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double
    from q_digest_ray.pipelines.ingest import count_tokens_batch

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)

    def unit_partials(batch: pa.Table) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        toks = count_tokens_batch(batch)
        df = pd.DataFrame({"unit": did // unit_size, "t": toks})
        return df.groupby("unit", sort=False, as_index=False).agg(t=("t", "sum"))

    def unit_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("unit", as_index=False).agg(t=("t", "sum"))

    units = two_phase(ds, unit_partials, unit_final)
    units = units.sort_values("unit").reset_index(drop=True)
    total = int(units["t"].sum())
    budget = max(1, -(-total // target_shards))  # ceil
    # sorted unit ids + each unit's exclusive token offset, looked up with
    # searchsorted (every pass-2 unit is one of pass 1's)
    unit_ids = units["unit"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(units["t"].to_numpy())[:-1]]).astype(
        np.int64
    )
    oref = ray.put((unit_ids, offsets))

    def assign(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = count_tokens_batch(batch).astype(np.int64)
        unit = did // unit_size
        return pa.table(
            {
                "unit": pa.array(unit),
                "doc_id": pa.array(did),
                "t": pa.array(toks),
                "bucket": pa.array(
                    (unit.view(np.uint64) % np.uint64(B)).astype(np.int32)
                ),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # zero-copy local get, per-task (no actor pool)
        unit_ids, offs = ray.get(oref)
        g = g.sort_values(["unit", "doc_id"])
        t = g["t"].to_numpy(np.int64)
        cum = np.cumsum(t)
        # within-unit EXCLUSIVE prefix: subtract each unit's first cum - t
        unit = g["unit"].to_numpy(np.int64)
        first = np.ones(len(g), dtype=bool)
        first[1:] = unit[1:] != unit[:-1]
        base = np.repeat(cum[first] - t[first], np.diff(
            np.append(np.flatnonzero(first), len(g))
        ))
        ex = cum - t - base + offs[np.searchsorted(unit_ids, unit)]
        shard = ex // budget
        df = pd.DataFrame(
            {"shard": shard, "t": t, "doc_id": g["doc_id"].to_numpy(np.int64)}
        )
        return df.groupby("shard", as_index=False).agg(
            n_docs=("t", "size"),
            n_tokens=("t", "sum"),
            min_doc=("doc_id", "min"),
            max_doc=("doc_id", "max"),
        )

    parts = (
        ds.map_batches(assign, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("shard", as_index=False).agg(
        n_docs=("n_docs", "sum"),
        n_tokens=("n_tokens", "sum"),
        min_doc=("min_doc", "min"),
        max_doc=("max_doc", "max"),
    )
    for c in ("shard", "n_docs", "n_tokens", "min_doc", "max_doc"):
        out[c] = out[c].astype("int64")
    out["fill"] = [
        duckdb_round_double(v / budget, 4) for v in out["n_tokens"].to_numpy()
    ]
    return out.sort_values("shard").reset_index(drop=True)


TOKEN_BALANCED_SHARDS_SQL = r"""
WITH d AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END
           AS t
  FROM documents
), tot AS (
  SELECT CAST(ceil(sum(t) * 1.0 / 16) AS BIGINT) AS budget FROM d
), c AS (
  SELECT doc_id, t,
         coalesce(sum(t) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS ex
  FROM d
)
SELECT CAST(ex // budget AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(t) AS BIGINT) AS n_tokens,
       min(doc_id) AS min_doc,
       max(doc_id) AS max_doc,
       round(sum(t) * 1.0 / budget, 4) AS fill
FROM c, tot
GROUP BY 1, budget ORDER BY shard
"""


def bm25_topk(
    sf_dir: str,
    terms: tuple[str, ...] = ("hash", "join", "scan"),
    top: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
):
    """DISTRIBUTED BM25 RETRIEVAL (Robertson-Spärck Jones, the standard
    +1-idf variant): top-k docs for a fixed term query over the corpus.

    Two map-only passes + one tiny exchange: pass 1 is a thin two-phase
    emitting (n_docs, Σlen, per-term df) partials — fixed columns, so the
    shuffle is a handful of ints regardless of corpus size; the driver
    derives (N, avgdl, idf vector) and pass 2 scores every doc vectorized
    (one flat-token np.isin + bincount per term — no per-doc loop), keeps
    a per-batch top-k and re-ranks B×k candidates once (lossless prune —
    the same shape as every top-k in this catalog).  Scores round to 4
    decimals on BOTH sides so float summation order can't flip the
    SQL-oracle rank; ties break by doc_id."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    T = list(terms)

    def _tokens(batch: pa.Table):
        batch = batch.filter(pc.is_valid(batch["text"]))
        trimmed = pc.replace_substring_regex(batch["text"], r"^\s+|\s+$", "")
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten())
        offs = np.asarray(toks.offsets)
        lens = np.diff(offs)
        # "" splits to [''] — count empty docs as 0 tokens like the oracle
        empty = np.asarray(pc.equal(trimmed, "").fill_null(True))
        lens = np.where(empty, 0, lens)
        return batch, flat, offs, lens

    def stat_partial(batch: pa.Table) -> pd.DataFrame:
        batch, flat, offs, lens = _tokens(batch)
        nd = batch.num_rows
        tokdoc = np.repeat(np.arange(nd), np.diff(offs))
        row = {"n": np.int64(nd), "sumlen": lens.sum().astype(np.int64)}
        for i, t in enumerate(T):
            hit = np.unique(tokdoc[flat == t])
            row[f"df{i}"] = np.int64(len(hit))
        return pd.DataFrame([row])

    def stat_final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([df.sum().astype(np.int64)])

    st = two_phase(ds, stat_partial, stat_final)
    N = int(st["n"][0])
    avgdl = float(st["sumlen"][0]) / N
    idf = np.array(
        [
            np.log((N - int(st[f"df{i}"][0]) + 0.5) / (int(st[f"df{i}"][0]) + 0.5) + 1.0)
            for i in range(len(T))
        ]
    )

    def score_partial(batch: pa.Table) -> pd.DataFrame:
        batch, flat, offs, lens = _tokens(batch)
        nd = batch.num_rows
        tokdoc = np.repeat(np.arange(nd), np.diff(offs))
        dl = lens.astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        score = np.zeros(nd)
        for i, t in enumerate(T):
            tf = np.bincount(tokdoc[flat == t], minlength=nd).astype(np.float64)
            score += idf[i] * tf * (k1 + 1.0) / (tf + norm)
        from q_digest_ray.functions.fixedpoint import duckdb_round_double_vec

        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "score": duckdb_round_double_vec(score, 4),
            }
        )
        df = df[df["score"] > 0]
        return df.sort_values(["score", "doc_id"], ascending=[False, True]).head(top)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values(["score", "doc_id"], ascending=[False, True]).head(top)
        out = out.reset_index(drop=True)
        out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
        out["doc_id"] = out["doc_id"].astype("int64")
        return out

    return two_phase(ds, score_partial, final)


BM25_TOPK_SQL = r"""
WITH d AS (
  SELECT doc_id, string_split_regex(
           regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), dl AS (
  SELECT doc_id, CASE WHEN len(s) = 1 AND s[1] = '' THEN 0 ELSE len(s) END AS dl
  FROM d
), stats AS (
  SELECT CAST(count(*) AS BIGINT) AS n, avg(dl) AS avgdl FROM dl
), q(term) AS (VALUES ('hash'), ('join'), ('scan')),
tf AS (
  SELECT doc_id, tok AS term, CAST(count(*) AS DOUBLE) AS tf
  FROM (SELECT doc_id, unnest(s) AS tok FROM d)
  JOIN q ON tok = term GROUP BY doc_id, tok
), df AS (
  SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term
), sc AS (
  SELECT tf.doc_id,
         sum(ln((n - df + 0.5) / (df + 0.5) + 1.0)
             * tf * (1.2 + 1.0)
             / (tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / avgdl))) AS score
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY round(score, 4) DESC, doc_id) AS BIGINT)
         AS rn,
       doc_id, round(score, 4) AS score
FROM sc WHERE round(score, 4) > 0
ORDER BY rn LIMIT 10
"""


def byte_pair_stats(sf_dir: str, top: int = 20):
    """BYTE-PAIR statistics (the first merge-table step of byte-level BPE
    tokenizer training, GPT-2 style): global counts of adjacent byte pairs
    WITHIN tokens (pairs never cross token or doc boundaries), top-k.

    Fully vectorized and O(1)-bounded per block: the flat token array's
    raw UTF-8 buffer gives pair codes as ``(b[i] << 8) | b[i+1]`` with a
    token-boundary mask; per-block exact counts come from ONE
    ``np.bincount`` into 65,536 bins, so each block emits at most its
    nonzero pairs and the final combine is a bounded-key sum — no shuffle
    grows with corpus size.  Rows-only (DuckDB lacks byte slicing);
    differential-tested against a pure-Python reference on randomized
    unicode corpora."""
    from q_digest_ray.functions.hashing import _string_buffers

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(pc.is_valid(batch["text"]))
        empty = pd.DataFrame(
            {
                "pair": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64"),
            }
        )
        if len(batch) == 0:
            return empty
        trimmed = pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), r"^\s+|\s+$", ""
        )
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        data, offs = _string_buffers(flat)
        base, total = int(offs[0]), int(offs[-1] - offs[0])
        if total < 2:
            return empty
        d = data[base : base + total]
        code = (d[:-1].astype(np.uint16) << np.uint16(8)) | d[1:]
        valid = np.ones(total - 1, dtype=bool)
        starts = (offs[1:-1] - base).astype(np.int64)
        starts = starts[(starts >= 1) & (starts <= total - 1)]
        valid[starts - 1] = False  # pair would cross a token boundary
        counts = np.bincount(code[valid], minlength=65536).astype(np.int64)
        nz = np.nonzero(counts)[0]
        return pd.DataFrame({"pair": nz.astype(np.int64), "cnt": counts[nz]})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("pair", as_index=False).agg(cnt=("cnt", "sum"))

    out = two_phase(ds, partial, final)
    out = out.sort_values(["cnt", "pair"], ascending=[False, True]).head(top)
    out = out.reset_index(drop=True)

    def render(p: int) -> str:
        bs = bytes([p >> 8, p & 0xFF])
        return bs.decode("ascii") if all(32 <= b < 127 for b in bs) else bs.hex()

    out.insert(0, "rn", np.arange(1, len(out) + 1, dtype=np.int64))
    out["pair_str"] = [render(int(p)) for p in out["pair"]]
    out["pair"] = out["pair"].astype("int64")
    out["cnt"] = out["cnt"].astype("int64")
    return out[["rn", "pair", "pair_str", "cnt"]]


def sequence_pack_stats(
    sf_dir: str, context_len: int = 512, num_buckets: int = 8
):
    """SEQUENCE PACKING audit (the GPT-style concat-and-chunk step every
    training pipeline runs): docs are concatenated token-stream-wise in
    doc_id order within ``doc_id % B`` packing streams and cut every
    ``context_len`` tokens; reports sequences produced, docs crossing a
    sequence boundary, tail waste, and fill ratio.

    B is part of the CONTRACT (each bucket is one independent packing
    stream = one output shard at scale), so it is pinned — not derived
    from input size — and the oracle replicates it.  The exchange ships
    (bucket, doc_id, token_count) triples (~20 B/doc); per-stream packing
    is one vectorized cumsum over the doc_id-sorted counts.  Token count
    definition shares token_totals' tokenizer (`\\S+` runs)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    L, B = context_len, num_buckets

    def partial(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(
            pc.count_substring_regex(batch["text"], r"\S+").cast(pa.int64()), 0
        )
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((did % B).astype(np.int32)),
                "doc_id": pa.array(did.astype(np.int64)),
                "t": t,
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        t = g["t"].to_numpy(dtype=np.int64)
        end = np.cumsum(t)
        start = end - t
        tot = int(end[-1]) if len(end) else 0
        seqs = (tot + L - 1) // L
        crossing = int(np.sum((t > 0) & (start // L != (end - 1) // L)))
        return pd.DataFrame(
            {
                "nd": [np.int64(len(g))],
                "tot": [np.int64(tot)],
                "seqs": [np.int64(seqs)],
                "crossing": [np.int64(crossing)],
            }
        )

    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    b = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    tot, seqs = int(b["tot"].sum()), int(b["seqs"].sum())
    return pd.DataFrame(
        {
            "context_len": pd.Series([L], dtype="int64"),
            "n_docs": pd.Series([int(b["nd"].sum())], dtype="int64"),
            "total_tokens": pd.Series([tot], dtype="int64"),
            "n_sequences": pd.Series([seqs], dtype="int64"),
            "crossing_docs": pd.Series([int(b["crossing"].sum())], dtype="int64"),
            "tail_waste": pd.Series([seqs * L - tot], dtype="int64"),
            "avg_fill": [
                duckdb_round_double(tot / (seqs * L), 6) if seqs else 0.0
            ],
        }
    )


SEQUENCE_PACK_SQL = r"""
WITH toks AS (
  SELECT doc_id, doc_id % 8 AS bucket,
         CASE WHEN text IS NULL OR trim(text) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
         END AS t
  FROM documents
), pos AS (
  SELECT bucket, t,
         sum(t) OVER (PARTITION BY bucket ORDER BY doc_id
                      ROWS UNBOUNDED PRECEDING) AS endpos
  FROM toks
), b AS (
  SELECT bucket, count(*) AS nd, sum(t) AS tot,
         (sum(t) + 511) // 512 AS seqs,
         sum(CASE WHEN t > 0 AND (endpos - t) // 512 <> (endpos - 1) // 512
                  THEN 1 ELSE 0 END) AS crossing
  FROM pos GROUP BY bucket
)
SELECT CAST(512 AS BIGINT) AS context_len,
       CAST(sum(nd) AS BIGINT) AS n_docs,
       CAST(sum(tot) AS BIGINT) AS total_tokens,
       CAST(sum(seqs) AS BIGINT) AS n_sequences,
       CAST(sum(crossing) AS BIGINT) AS crossing_docs,
       CAST(sum(seqs) * 512 - sum(tot) AS BIGINT) AS tail_waste,
       round(CAST(sum(tot) AS DOUBLE) / (sum(seqs) * 512), 6) AS avg_fill
FROM b
"""


def stratified_sample(sf_dir: str, n_per_group: int = 10):
    """Deterministic stratified sampling (the eval-set / inspection-set
    draw): n docs per lang under a seedable pseudo-random order that is
    reproducible on ANY partitioning — the sample key is a pure function
    of doc_id, so Ray and SQL rank identically with no RNG state.

    The key mixes two coprime residues (CRT-injective to ~1e12 ids —
    a single %1000003 base has only ~1e6 distinct values, which at
    10^12 docs would bias the per-key doc_id tie-break toward small
    ids); every intermediate stays below 2^53, so int64 arithmetic is
    exact on both sides at any doc_id scale.
    Per-batch per-lang top-n candidates (vectorized sort) → final re-rank
    of #blocks x langs x n rows; row shuffle volume is candidates only."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        key = ((did % 1000003) * 2654435761 + (did % 999983) * 40499) % 1000000007
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "doc_id": did,
                "skey": key,
            }
        )
        df = df.sort_values(["lang", "skey", "doc_id"])
        return df.groupby("lang", sort=False).head(n_per_group)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "skey", "doc_id"])
        out = df.groupby("lang", sort=False).head(n_per_group).copy()
        out["rn"] = out.groupby("lang", sort=False).cumcount() + 1
        return out[["lang", "rn", "doc_id"]]

    out = two_phase(ds, partial, final)
    for c in ("rn", "doc_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["lang", "rn"]).reset_index(drop=True)


STRATIFIED_SAMPLE_SQL = """
SELECT lang, CAST(rn AS BIGINT) AS rn, doc_id FROM (
  SELECT lang, doc_id,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY ((doc_id % 1000003) * 2654435761
                     + (doc_id % 999983) * 40499) % 1000000007, doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 10 ORDER BY lang, rn
"""


def value_band_join(sf_dir: str, band_cents: int = 100, coarse: int = 64):
    """RANGE (band) join through the catalog: for each purchase event, how
    many view events have a value within ±1.00 of it — the
    ``|l.value - r.value| <= delta`` non-equi join (stages/join.py
    ``band_count_join``: contiguous value-range buckets + boundary
    replication; per bucket one sort + two searchsorteds, pairs never
    materialize).

    Both sides compare in exact integer CENTS (scaled_int64 vs the
    oracle's round(value*100)): a float band predicate computed as
    ``abs(a-b) <= d`` vs ``a >= b-d`` can disagree by one ulp at the
    boundary, integers cannot."""
    from q_digest_ray.functions.fixedpoint import scaled_int64
    from q_digest_ray.stages.join import band_count_join

    def prep(event_type: str, keep_id: bool):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.filter(
                pc.equal(batch["event_type"], pa.scalar(event_type))
            )
            c = scaled_int64(batch["value"].to_numpy(zero_copy_only=False), 2)
            cols = {"c": pa.array(c)}
            if keep_id:
                cols = {"event_id": batch["event_id"], **cols}
            return pa.table(cols)

        return fn

    base_cols = ["event_id", "event_type", "value"]
    left = read_table(sf_dir, "events", columns=base_cols).map_batches(
        prep("purchase", True), batch_format="pyarrow"
    )
    right = read_table(sf_dir, "events", columns=["event_type", "value"]).map_batches(
        prep("view", False), batch_format="pyarrow"
    )
    out = band_count_join(
        left,
        right,
        on="c",
        band=band_cents,
        id_col="event_id",
        coarse=coarse,
        count_col="n_close_views",
    ).to_pandas()
    for c in ("event_id", "n_close_views"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


VALUE_BAND_JOIN_SQL = """
WITH l AS (SELECT event_id, CAST(round(value * 100, 0) AS BIGINT) AS c
           FROM events WHERE event_type = 'purchase'),
     r AS (SELECT CAST(round(value * 100, 0) AS BIGINT) AS c
           FROM events WHERE event_type = 'view')
SELECT l.event_id, count(r.c) AS n_close_views
FROM l LEFT JOIN r ON abs(l.c - r.c) <= 100
GROUP BY l.event_id ORDER BY l.event_id
"""


def tfidf_top_terms(sf_dir: str, k: int = 3, num_buckets: int | None = None):
    """Distributed TF-IDF (the IR / corpus-relevance operator): top-k
    terms per document by tf * ln(N/df), where df is the token's distinct
    document count and N is the documents row count (a metadata-cheap
    count; docs with no tokens simply score none).

    The canonical two-exchange shape: per-batch (doc, token, tf) triples
    (one RE2 split + Arrow group_by) → hash-bucket BY TOKEN so each
    token's global df computes exactly in one bucket, scoring every triple
    there → re-bucket BY DOC so each document's candidates reunite for the
    top-k (a doc's best terms can come from any token bucket, so no
    earlier prune is lossless).  Shuffle volume is the distinct doc-token
    pair set, twice — the irreducible cost of exact tf-idf; texts and the
    vocabulary never pass through one task."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    B = num_buckets or derive_buckets(ds)
    n_docs = read_table(sf_dir, "documents", columns=["doc_id"]).count()

    def to_triples(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["text"]))
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), n_tok)
        t = pa.table({"doc_id": pa.array(did), "token": toks.flatten()})
        t = t.filter(pc.not_equal(t["token"], pa.scalar("")))
        g = t.group_by(["doc_id", "token"]).aggregate([("token", "count")])
        bucket = (hash64(g["token"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "token": g["token"],
                "tf": g["token_count"].cast(pa.int64()),
                "bucket": pa.array(bucket),
            }
        )

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # each token lives wholly in this bucket: df = its row count here
        df_per_token = g.groupby("token", sort=False)["doc_id"].transform("size")
        score = g["tf"].to_numpy() * np.log(n_docs / df_per_token.to_numpy())
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "token": g["token"],
                "score": score,
                # re-bucket BY DOC for the per-doc top-k
                "bucket2": (
                    hash64(g["doc_id"].to_numpy()) % np.uint64(B)
                ).astype(np.int32),
            }
        )
        # bucket-local prune: keep each doc's k best here (lossless — the
        # final per-doc top-k only needs each bucket's best k per doc)
        out = out.sort_values(["doc_id", "score", "token"], ascending=[True, False, True])
        return out.groupby("doc_id", sort=False).head(k)

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score", "token"], ascending=[True, False, True])
        out = g.groupby("doc_id", sort=False).head(k).copy()
        out["rn"] = out.groupby("doc_id", sort=False).cumcount() + 1
        return out[["doc_id", "rn", "token", "score"]]

    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    res = (
        ds.map_batches(to_triples, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(score_bucket, batch_format="pandas")
        .groupby("bucket2")
        .map_groups(topk_bucket, batch_format="pandas")
        .to_pandas()
    )
    res["score"] = [duckdb_round_double(s, 6) for s in res["score"]]
    for c in ("doc_id", "rn"):
        res[c] = res[c].astype("int64")
    return res.sort_values(["doc_id", "rn"]).reset_index(drop=True)


TFIDF_TOP_TERMS_SQL = r"""
WITH triples AS (
  SELECT doc_id, t.token AS token, count(*) AS tf
  FROM (SELECT doc_id, string_split_regex(lower(text), '\s+') AS ts
        FROM documents WHERE text IS NOT NULL),
       unnest(ts) AS t(token)
  WHERE t.token <> ''
  GROUP BY doc_id, t.token
), n AS (SELECT count(*) AS n_docs FROM documents),
df AS (SELECT token, count(*) AS df FROM triples GROUP BY token),
scored AS (
  SELECT triples.doc_id, triples.token,
         triples.tf * ln(CAST(n.n_docs AS DOUBLE) / df.df) AS score
  FROM triples, n JOIN df ON triples.token = df.token
)
SELECT doc_id, CAST(rn AS BIGINT) AS rn, token, round(score, 6) AS score
FROM (
  SELECT doc_id, token, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, token) AS rn
  FROM scored
) WHERE rn <= 3 ORDER BY doc_id, rn
"""


# Standalone function-word tokens: the scrub pattern is benign in this
# synthetic corpus, but the operator IS the PII-redaction shape (emails,
# phone numbers, SSNs at scale swap in here verbatim — RE2 on both sides)
_SCRUB_PATTERN = r"\b(?:a|the)\b"


def scrub_stats(sf_dir: str):
    """Corpus scrubbing (the PII-redaction operator shape): replace every
    standalone match of a pattern with a marker, vectorized, and report the
    per-lang redaction funnel — docs touched, matches removed, exact
    char-volume before/after, and the shrink fraction.

    One streaming pass, no shuffle: per batch, ONE RE2 ``count_substring_regex``
    + ONE ``replace_substring_regex`` (the SAME pattern + regex engine the
    DuckDB oracle uses, so match boundaries agree byte-for-byte), reduced to
    langs×5 partial rows; final combine sums exact Python ints.  At 100 TB
    the scrubbed text would flow straight to a partitioned sink — the stats
    here are the same partials that pass would emit for free."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        n_match = pc.count_substring_regex(batch["text"], _SCRUB_PATTERN)
        before = pc.utf8_length(batch["text"])
        after = pc.utf8_length(
            pc.replace_substring_regex(batch["text"], _SCRUB_PATTERN, "<SCRUB>")
        )
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "matches": n_match.to_numpy(zero_copy_only=False),
                "before": before.to_numpy(zero_copy_only=False),
                "after": after.to_numpy(zero_copy_only=False),
            }
        )
        df["touched"] = (df["matches"] > 0).astype(np.int64)
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("matches", "size"),
            n_docs_scrubbed=("touched", "sum"),
            n_redactions=("matches", "sum"),
            chars_before=("before", "sum"),
            chars_after=("after", "sum"),
        )

    from q_digest_ray.functions.fixedpoint import duckdb_round_double, exact_sum

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            before, after = exact_sum(g["chars_before"]), exact_sum(g["chars_after"])
            rows.append(
                {
                    "lang": lang,
                    "n_docs": exact_sum(g["n_docs"]),
                    "n_docs_scrubbed": exact_sum(g["n_docs_scrubbed"]),
                    "n_redactions": exact_sum(g["n_redactions"]),
                    "chars_before": before,
                    "chars_after": after,
                    "shrink_frac": duckdb_round_double(1.0 - after / before, 6),
                }
            )
        return pd.DataFrame(rows)

    out = two_phase(ds, partial, final)
    for c in ("n_docs", "n_docs_scrubbed", "n_redactions", "chars_before", "chars_after"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


SCRUB_STATS_SQL = r"""
WITH d AS (
  SELECT lang,
         length(regexp_extract_all(text, '\b(?:a|the)\b')) AS matches,
         length(text) AS before_len,
         length(regexp_replace(text, '\b(?:a|the)\b', '<SCRUB>', 'g')) AS after_len
  FROM documents WHERE text IS NOT NULL AND lang IS NOT NULL
)
SELECT lang,
       count(*) AS n_docs,
       CAST(count(*) FILTER (matches > 0) AS BIGINT) AS n_docs_scrubbed,
       CAST(sum(matches) AS BIGINT) AS n_redactions,
       CAST(sum(before_len) AS BIGINT) AS chars_before,
       CAST(sum(after_len) AS BIGINT) AS chars_after,
       round(1.0 - CAST(sum(after_len) AS DOUBLE) / CAST(sum(before_len) AS DOUBLE), 6)
         AS shrink_frac
FROM d GROUP BY lang ORDER BY lang
"""


def rollup_revenue(sf_dir: str):
    """Multi-level aggregation (GROUP BY ROLLUP): order count + exact
    revenue at (priority, year), (priority) and grand-total levels, with a
    ``grouping_id`` bitmask disambiguating rolled-up NULLs from data NULLs
    — the OLAP cube/report shape.

    The scale insight: ONE two-phase pass computes only the FINEST cells
    (priorities × years — bounded, tiny); every coarser level is derived by
    re-aggregating those cells in the final combine, so the rollup costs no
    second scan and no extra shuffle at any input size.  Sums stay exact
    end-to-end (int64 cents per batch → arbitrary-precision Python ints →
    half-away-from-zero rounding), matching DuckDB's DECIMAL arithmetic."""
    ds = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_orderdate", "o_totalprice"])

    from q_digest_ray.functions.fixedpoint import (
        exact_sum,
        round_scaled_half_up,
        scaled_int64,
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        cents = scaled_int64(batch["o_totalprice"].to_numpy(zero_copy_only=False), 2)
        df = pd.DataFrame(
            {
                "priority": batch["o_orderpriority"].to_pandas(),
                "o_year": _strftime(batch["o_orderdate"], "%Y").to_pandas(),
                "cents": cents,
            }
        )
        return df.groupby(["priority", "o_year"], sort=False, as_index=False).agg(
            n_orders=("cents", "size"), cents=("cents", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        def level(keys: list[str], gid: int) -> pd.DataFrame:
            rows = []
            groups = df.groupby(keys) if keys else [((), df)]
            for key, g in groups:
                row = dict(zip(keys, key if isinstance(key, tuple) else (key,)))
                row.setdefault("priority", None)
                row.setdefault("o_year", None)
                row["grouping_id"] = gid
                row["n_orders"] = exact_sum(g["n_orders"])
                row["revenue"] = round_scaled_half_up(exact_sum(g["cents"]), 100, 2)
                rows.append(row)
            return pd.DataFrame(rows)

        # grouping_id bits per SQL GROUPING(priority, o_year):
        # 0 = finest, 1 = o_year rolled up, 3 = both rolled up
        all_levels = pd.concat(
            [level(["priority", "o_year"], 0), level(["priority"], 1), level([], 3)],
            ignore_index=True,
        )
        return all_levels[
            ["priority", "o_year", "grouping_id", "n_orders", "revenue"]
        ]

    out = two_phase(ds, partial, final)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["grouping_id"] = out["grouping_id"].astype("int64")
    return out.sort_values(
        ["grouping_id", "priority", "o_year"], na_position="last"
    ).reset_index(drop=True)


ROLLUP_REVENUE_SQL = """
WITH o AS (
  SELECT o_orderpriority AS priority, strftime(o_orderdate, '%Y') AS o_year,
         CAST(o_totalprice AS DECIMAL(18,2)) AS price
  FROM orders
)
SELECT priority, o_year,
       CAST(grouping(priority, o_year) AS BIGINT) AS grouping_id,
       count(*) AS n_orders,
       CAST(round(sum(price), 2) AS DOUBLE) AS revenue
FROM o GROUP BY ROLLUP (priority, o_year)
ORDER BY grouping_id, priority NULLS LAST, o_year NULLS LAST
"""


def global_sort_ranks(sf_dir: str, num_partitions: int = 16):
    """Distributed GLOBAL sort with exact dense ranks — the sketch-driven
    range-partition sort (the TeraSort shape), not Ray's built-in
    ``Dataset.sort``:

      1. one streaming pass builds a merged KLL over the sort key and
         derives ~equal-mass range cut points (approximate cuts only skew
         partition SIZES, never correctness);
      2. a cheap counting pass yields each partition's exact row count →
         global rank offsets (P tiny ints, broadcast via ray.put);
      3. each range partition sorts independently and emits rows with
         their exact global rank = offset + local position.

    No single task ever holds more than one partition; ranks are exact
    because partitions cover disjoint key ranges and ties break on the
    unique doc_id.  The keyed scan runs twice (count + sort) — both
    streaming and projection-pruned; a 100-TB run would reuse cuts from
    the previous day's run or persist the keyed pass to make it one scan.
    The query collects (contract); at scale step 3 writes straight to a
    rank-partitioned sink."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    rows = build_sketches(ds, [SketchSpec("sort_kll", "n_chars", "kll", {"k": 200})])
    sk = collect_sketches(merge_grouped(rows))[("sort_kll", "")]
    cuts = np.unique(
        np.asarray(
            sk.quantiles([i / num_partitions for i in range(1, num_partitions)]),
            dtype=np.float64,
        )
    )
    P = len(cuts) + 1
    cuts_ref = ray.put(cuts)

    def add_part(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        part = np.searchsorted(ray.get(cuts_ref), nc, side="right").astype(np.int32)
        return batch.append_column("__part", pa.array(part))

    keyed = ds.map_batches(add_part, batch_format="pyarrow")

    def count_partial(batch: pa.Table) -> pd.DataFrame:
        cnt = np.bincount(
            batch["__part"].to_numpy(zero_copy_only=False), minlength=P
        )
        return pd.DataFrame(
            {"part": np.arange(P, dtype=np.int64), "cnt": cnt.astype(np.int64)}
        )

    def count_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("part", as_index=False).agg(cnt=("cnt", "sum"))

    counts = two_phase(keyed, count_partial, count_final)
    counts = counts.set_index("part")["cnt"].reindex(range(P), fill_value=0)
    offsets = np.zeros(P, dtype=np.int64)
    offsets[1:] = np.cumsum(counts.to_numpy())[:-1]
    off_ref = ray.put(offsets)

    def sort_partition(g: pd.DataFrame) -> pd.DataFrame:
        part = int(g["__part"].iloc[0])
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        off = int(ray.get(off_ref)[part])
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_chars": g["n_chars"].to_numpy(),
                "global_rank": off + np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    out = (
        keyed.groupby("__part")
        .map_groups(sort_partition, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("global_rank").reset_index(drop=True)


GLOBAL_SORT_RANKS_SQL = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS global_rank
FROM documents ORDER BY global_rank
"""


def bloom_prune_join(sf_dir: str, min_total: float = 400000.0):
    """Bloom-ACCELERATED exact semi join (the sketch-as-join-filter
    optimization every distributed engine ships as 'runtime filters'):
    revenue of line items belonging to high-value orders.

    The build side (qualifying o_orderkeys) is distilled into a Bloom
    filter DISTRIBUTED (per-block partials, merged — the build side is
    never collected), broadcast once via ray.put; every lineitem batch
    probes it locally and drops definite non-matches BEFORE the join
    shuffle — at 10^12 rows that turns an input-sized exchange into a
    match-sized-plus-ε one.  Bloom false positives are then removed by an
    exact bucketed semi join against the real key set, so the result is
    EXACT (oracle-checked); the filter only saves work, never changes it.
    Money sums are exact fixed-point at scale 10^4 (price × discount)."""
    from q_digest_ray.functions.fixedpoint import (
        exact_sum,
        round_scaled_half_up,
        scaled_int64,
    )

    hv = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def only_hv(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["o_totalprice"], pa.scalar(min_total))
        ).select(["o_orderkey"])

    hv_keys = hv.map_batches(only_hv, batch_format="pyarrow")
    rows = build_sketches(
        hv_keys,
        [SketchSpec("hv_bloom", "o_orderkey", "bloom", {"num_bits": 1 << 18, "num_hashes": 7})],
    )
    bloom = collect_sketches(merge_grouped(rows))[("hv_bloom", "")]
    bloom_ref = ray.put(bloom)

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def prune_and_project(batch: pa.Table) -> pa.Table:
        keep = ray.get(bloom_ref).contains(
            batch["l_orderkey"].to_numpy(zero_copy_only=False)
        )
        batch = batch.filter(pa.array(keep))
        p100 = scaled_int64(batch["l_extendedprice"].to_numpy(zero_copy_only=False), 2)
        d100 = scaled_int64(batch["l_discount"].to_numpy(zero_copy_only=False), 2)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_returnflag": batch["l_returnflag"],
                "disc4": pa.array(p100 * (100 - d100)),
            }
        )

    pruned = li.map_batches(prune_and_project, batch_format="pyarrow")

    from q_digest_ray.stages.join import bucketed_join

    matched = bucketed_join(
        pruned, hv_keys, on="l_orderkey", right_on="o_orderkey", how="semi"
    )

    def agg_partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "disc4": batch["disc4"].to_numpy(zero_copy_only=False),
            }
        )
        return df.groupby("l_returnflag", sort=False, as_index=False).agg(
            n_items=("disc4", "size"), disc4=("disc4", "sum")
        )

    def agg_final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for rf, g in df.groupby("l_returnflag"):
            rows.append(
                {
                    "l_returnflag": rf,
                    "n_items": exact_sum(g["n_items"]),
                    "revenue": round_scaled_half_up(exact_sum(g["disc4"]), 10**4, 2),
                }
            )
        return pd.DataFrame(rows)

    out = two_phase(matched, agg_partial, agg_final)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


BLOOM_PRUNE_JOIN_SQL = """
WITH hv AS (SELECT o_orderkey FROM orders WHERE o_totalprice >= 400000.0)
SELECT l_returnflag,
       count(*) AS n_items,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                      * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE)
         AS revenue
FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey FROM hv)
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def bpe_token_totals(sf_dir: str):
    """BPE-ish (GPT-2 pretokenizer family) token totals per lang."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.text import bpe_ish_token_count

        toks = bpe_ish_token_count(batch["text"])
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(), "toks": toks})
        return df.groupby("lang", sort=False, as_index=False).agg(
            bpe_tokens=("toks", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(bpe_tokens=("bpe_tokens", "sum"))

    df = two_phase(ds, partial, final)
    df["bpe_tokens"] = df["bpe_tokens"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


BPE_TOKEN_SQL = r"""
SELECT lang,
       CAST(sum(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]|\s+'))) AS BIGINT) AS bpe_tokens
FROM documents GROUP BY lang ORDER BY lang
"""


def quality_filter(sf_dir: str):
    """Quality-gate filter: docs passing length + token thresholds, per lang."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.text import token_count

        toks = token_count(batch["text"])
        chars = batch["n_chars"].to_numpy()
        ok = (chars >= 100) & (chars <= 520) & (toks >= 20)
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(), "ok": ok})
        return df.groupby("lang", sort=False, as_index=False).agg(n_pass=("ok", "sum"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(n_pass=("n_pass", "sum"))
        return g[g["n_pass"] > 0]

    df = two_phase(ds, partial, final)
    df["n_pass"] = df["n_pass"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


QUALITY_FILTER_SQL = r"""
SELECT lang, count(*) AS n_pass FROM documents
WHERE n_chars BETWEEN 100 AND 520
  AND (CASE WHEN trim(text) = '' THEN 0
       ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END) >= 20
GROUP BY lang ORDER BY lang
"""

def padding_waste_stats(
    sf_dir: str, batch_rows: int = 32, bucket_width: int = 64
):
    """DYNAMIC-BATCHING audit (the padding-efficiency op every batched
    inference/training loader runs): compare token padding waste of
    NAIVE batches (doc_id order, fixed ``batch_rows`` rows — each batch
    padded to its max token length) against LENGTH-BUCKETED batches
    (docs grouped into ``t // bucket_width`` length classes first, then
    batched within class).

    Distribution: naive batch key is ``doc_id // batch_rows`` — dense ids
    make it a pure row function, so per-block partials (sum/max/cnt per
    key) merge exactly in key-hash buckets; the bucketed strategy groups
    by the ~max_len/width length classes (coarse by construction) and
    ranks within class by doc_id — one vectorized argsort per class.
    Only per-batch summary triples move; never token data."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    R, W = batch_rows, bucket_width

    def add_t(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(
            pc.count_substring_regex(batch["text"], r"\S+").cast(pa.int64()), 0
        )
        return pa.table({"doc_id": batch["doc_id"], "t": t})

    base = ds.map_batches(add_t, batch_format="pyarrow")

    # --- naive: key = doc_id // R; per-block partials merge exactly ---
    NB = 32

    def p_naive(batch: pa.Table) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = batch["t"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"key": did // R, "t": t})
        g = df.groupby("key", sort=False, as_index=False).agg(
            s=("t", "sum"), m=("t", "max"), c=("t", "size")
        )
        g["bucket"] = (g["key"] % NB).astype(np.int32)
        return g

    def per_bucket_naive(g: pd.DataFrame) -> pd.DataFrame:
        k = g.groupby("key", as_index=False).agg(
            s=("s", "sum"), m=("m", "max"), c=("c", "sum")
        )
        return pd.DataFrame(
            {
                "n_batches": [np.int64(len(k))],
                "total": [np.int64(k["s"].sum())],
                "padded": [np.int64((k["c"] * k["m"]).sum())],
            }
        )

    nai = (
        base.map_batches(p_naive, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket_naive, batch_format="pandas")
        .to_pandas()
    )

    # --- bucketed: length class first, rank-in-class batches ---
    def p_class(batch: pa.Table) -> pa.Table:
        t = batch["t"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lb": pa.array((t // W).astype(np.int64)),
                "doc_id": batch["doc_id"],
                "t": batch["t"],
            }
        )

    def per_class(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        t = g["t"].to_numpy()
        b = np.arange(len(g)) // R
        df = pd.DataFrame({"b": b, "t": t})
        k = df.groupby("b", as_index=False).agg(
            s=("t", "sum"), m=("t", "max"), c=("t", "size")
        )
        return pd.DataFrame(
            {
                "n_batches": [np.int64(len(k))],
                "total": [np.int64(k["s"].sum())],
                "padded": [np.int64((k["c"] * k["m"]).sum())],
            }
        )

    buc = (
        base.map_batches(p_class, batch_format="pyarrow")
        .groupby("lb")
        .map_groups(per_class, batch_format="pandas")
        .to_pandas()
    )

    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    def summarize(name: str, df: pd.DataFrame) -> dict:
        total, padded = int(df["total"].sum()), int(df["padded"].sum())
        return {
            "strategy": name,
            "n_batches": int(df["n_batches"].sum()),
            "total_tokens": total,
            "padded_tokens": padded,
            "waste_frac": duckdb_round_double(
                (padded - total) / padded, 6
            )
            if padded
            else 0.0,
        }

    out = pd.DataFrame([summarize("bucketed", buc), summarize("naive", nai)])
    for c in ("n_batches", "total_tokens", "padded_tokens"):
        out[c] = out[c].astype("int64")
    return out.sort_values("strategy").reset_index(drop=True)


PADDING_WASTE_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN text IS NULL OR trim(text) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
         END AS t
  FROM documents
), naive AS (
  SELECT doc_id // 32 AS key, sum(t) AS s, max(t) AS m, count(*) AS c
  FROM toks GROUP BY 1
), buck AS (
  SELECT (row_number() OVER (PARTITION BY t // 64 ORDER BY doc_id) - 1) // 32
           AS key, t // 64 AS lb, t
  FROM toks
), buckagg AS (
  SELECT lb, key, sum(t) AS s, max(t) AS m, count(*) AS c
  FROM buck GROUP BY 1, 2
), u AS (
  SELECT 'naive' AS strategy, count(*) AS n_batches,
         sum(s) AS total, sum(c * m) AS padded FROM naive
  UNION ALL
  SELECT 'bucketed', count(*), sum(s), sum(c * m) FROM buckagg
)
SELECT strategy, CAST(n_batches AS BIGINT) AS n_batches,
       CAST(total AS BIGINT) AS total_tokens,
       CAST(padded AS BIGINT) AS padded_tokens,
       round(CAST(padded - total AS DOUBLE) / padded, 6) AS waste_frac
FROM u ORDER BY strategy
"""


def compression_ratio_stats(sf_dir: str):
    """COMPRESSIBILITY quality signal (the CCNet/RefinedWeb-style entropy
    filter: highly repetitive or templated text compresses far below
    natural prose): per-lang stats of zlib_len/raw_len per doc.

    Rows-only — no SQL equivalent (DuckDB has no zlib); the contract is
    pinned by planted tests (repetitive text ratio << natural-text ratio).
    The per-doc zlib call is a C-extension loop over the batch — the
    Python iteration overhead is noise next to the compression kernel
    (same trade as the multimodal codecs); everything after is
    vectorized two-phase partials, so only langs x 5 rows leave a block.
    Deterministic: fixed zlib level, no RNG."""
    import zlib

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        raw = [t.encode() for t in batch["text"].to_pylist()]
        nlen = np.array([len(b) for b in raw], dtype=np.int64)
        clen = np.array(
            [len(zlib.compress(b, 6)) for b in raw], dtype=np.int64
        )
        keep = nlen > 0
        # exact integer parts-per-million: partial sums merge order-free
        ppm = (clen[keep] * 1_000_000 + nlen[keep] // 2) // nlen[keep]
        df = pd.DataFrame(
            {
                "lang": np.asarray(batch["lang"].to_numpy(zero_copy_only=False))[
                    keep
                ],
                "sum_ppm": ppm,
                "min_ppm": ppm,
                "max_ppm": ppm,
            }
        )
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("sum_ppm", "size"),
            sum_ppm=("sum_ppm", "sum"),
            min_ppm=("min_ppm", "min"),
            max_ppm=("max_ppm", "max"),
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(
            n_docs=("n_docs", "sum"),
            sum_ppm=("sum_ppm", "sum"),
            min_ppm=("min_ppm", "min"),
            max_ppm=("max_ppm", "max"),
        )

    out = two_phase(ds, partial, final)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["mean_ratio"] = (out["sum_ppm"] / (out["n_docs"] * 1e6)).round(6)
    out["min_ratio"] = (out["min_ppm"] / 1e6).round(6)
    out["max_ratio"] = (out["max_ppm"] / 1e6).round(6)
    return (
        out.sort_values("lang")
        .reset_index(drop=True)[
            ["lang", "n_docs", "mean_ratio", "min_ratio", "max_ratio"]
        ]
    )


def rate_limit_audit(sf_dir: str, limit: int = 5, num_buckets: int = 32):
    """RATE-LIMIT / abuse audit (the ops-side shape of a streaming
    pipeline): per user, the PEAK events-in-one-tumbling-window; report
    every offender above ``limit``, peak-descending.  Window = day on the
    sparse synthetic events (the same code shape holds at any granularity
    — swap the floor_temporal unit).

    Per batch: one strftime floor + Arrow group_by on (user, window) —
    partial counts; a (user, window) pair can span blocks, so partials
    hash-bucket BY USER (peaks need all of a user's windows together) and
    per-bucket sums are exact.  The exchange carries (user, window,
    count) triples bounded by distinct active windows, never raw events."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    B = num_buckets

    def partial(batch: pa.Table) -> pa.Table:
        win = _strftime(pc.floor_temporal(batch["ts"], unit="day"), "%Y-%m-%d")
        t = pa.table({"user_id": batch["user_id"], "window": win})
        t = t.append_column("c", pa.array(np.ones(len(t), np.int64)))
        g = t.group_by(["user_id", "window"]).aggregate([("c", "sum")])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": g["user_id"].cast(pa.int64()),
                "window": g["window"],
                "c": g["c_sum"].cast(pa.int64()),
                "bucket": pa.array((uid % B).astype(np.int32)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "window"], as_index=False, sort=False).agg(
            c=("c", "sum")
        )
        peak = m.groupby("user_id", as_index=False).agg(peak=("c", "max"))
        return peak[peak["peak"] > limit]

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "peak_per_window": pd.Series([], dtype="int64"),
            }
        )
    out = out.rename(columns={"peak": "peak_per_window"}).sort_values(
        ["peak_per_window", "user_id"], ascending=[False, True]
    )
    out["user_id"] = out["user_id"].astype("int64")
    out["peak_per_window"] = out["peak_per_window"].astype("int64")
    return out.reset_index(drop=True)[["user_id", "peak_per_window"]]


RATE_LIMIT_SQL = """
SELECT user_id, CAST(max(c) AS BIGINT) AS peak_per_window FROM (
  SELECT user_id, date_trunc('day', ts) AS m, count(*) AS c
  FROM events GROUP BY 1, 2
) GROUP BY user_id HAVING max(c) > 5
ORDER BY peak_per_window DESC, user_id
"""


def train_val_test_split(sf_dir: str):
    """Deterministic TRAIN/VAL/TEST assignment (the split step of every
    training-data pipeline): each doc routes by a pure function of doc_id
    (the same SQL-replicable Knuth multiplicative hash stratified_sample
    uses), 80/10/10, reported per (lang, split).  No RNG state, no
    coordination — identical assignment on ANY partitioning and on the
    oracle side, which is precisely what makes a split reproducible
    across reruns of a 100-TB job."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        key = ((did % 1000003) * 2654435761) % 1000000007
        b = key % 100
        split = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(), "split": split})
        return df.groupby(["lang", "split"], sort=False, as_index=False).agg(
            n_docs=("split", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["lang", "split"], as_index=False).agg(
            n_docs=("n_docs", "sum")
        )

    out = two_phase(ds, partial, final)
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values(["lang", "split"]).reset_index(drop=True)


TRAIN_VAL_TEST_SQL = """
SELECT lang,
       CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END
         AS split,
       count(*) AS n_docs
FROM (SELECT lang,
             ((doc_id % 1000003) * 2654435761) % 1000000007 % 100 AS b
      FROM documents)
GROUP BY 1, 2 ORDER BY lang, split
"""


def epoch_ingest_order(sf_dir: str, top: int = 20):
    """TRAINING-INGEST order proof (pipelines/ingest.py): the first ``top``
    docs of epochs 0 and 1 of the train split in the deterministic epoch
    order, with per-doc whitespace token counts.  The oracle replicates the
    pure order-key arithmetic in SQL, so a driver hash-match proves the
    consumption order itself — not just the row set — is reproducible
    (the property that makes mid-epoch resume exact)."""
    from q_digest_ray.pipelines.ingest import count_tokens_batch, epoch_dataset

    frames = []
    for epoch in (0, 1):
        head = epoch_dataset(sf_dir, epoch, split="train").limit(top)
        t = pa.Table.from_pandas(head.to_pandas())  # tiny: top rows
        toks = count_tokens_batch(t)
        frames.append(
            pd.DataFrame(
                {
                    "epoch": np.full(t.num_rows, epoch, dtype=np.int64),
                    "rank": np.arange(1, t.num_rows + 1, dtype=np.int64),
                    "doc_id": t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                    "n_tokens": toks,
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


EPOCH_INGEST_ORDER_SQL = r"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END
           AS n_tokens,
         ((doc_id % 1000003) * 2654435761) % 1000000007 % 100 AS b
  FROM documents
), e AS (
  SELECT ep.epoch, doc_id, n_tokens,
         ((doc_id % 1000003) * 2654435761 + (doc_id % 999983) * 40499)
           % 1000000007 * (ep.epoch * 40503 + 17) % 1000000007 AS okey
  FROM base, (SELECT unnest([0, 1]) AS epoch) ep
  WHERE b < 80
)
SELECT epoch, rank, doc_id, CAST(n_tokens AS BIGINT) AS n_tokens FROM (
  SELECT epoch, doc_id, n_tokens,
         row_number() OVER (PARTITION BY epoch ORDER BY okey, doc_id) AS rank
  FROM e
) WHERE rank <= 20 ORDER BY epoch, rank
"""


def epoch_export_order(sf_dir: str, top: int = 10):
    """The literal curate->train handoff as one operator: curate documents
    to a partitioned export (exact keep-first dedup x quality gates,
    resumable sink), then read the committed shards back in deterministic
    epoch order (pipelines/ingest.epoch_dataset_from_export) and report
    the first ``top`` train-split docs of epochs 0 and 1 with token
    counts.  Rows-only: the funnel half is SQL-checked by
    curation_v2_stats and the order arithmetic by epoch_ingest_order;
    this entry proves the two legs COMPOSE over the real export layout."""
    import shutil
    import tempfile

    from q_digest_ray.pipelines.export import curate_corpus
    from q_digest_ray.pipelines.ingest import (
        count_tokens_batch,
        epoch_dataset_from_export,
    )

    out_dir = tempfile.mkdtemp(prefix="qdr_epoch_export_")
    try:
        ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
        curate_corpus(ds, out_dir)
        frames = []
        for epoch in (0, 1):
            head = epoch_dataset_from_export(
                out_dir, epoch, columns=["doc_id", "text"]
            ).limit(top)
            t = pa.Table.from_pandas(head.to_pandas())
            frames.append(
                pd.DataFrame(
                    {
                        "epoch": np.full(t.num_rows, epoch, dtype=np.int64),
                        "rank": np.arange(1, t.num_rows + 1, dtype=np.int64),
                        "doc_id": t["doc_id"]
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64),
                        "n_tokens": count_tokens_batch(t),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def epoch_token_counts(sf_dir: str):
    """EXACT per-split doc/token totals — the consumption-volume invariant
    a trainer checks per epoch (one map-only pass + bounded combine; the
    same split hash as train_val_test_split)."""
    from q_digest_ray.pipelines.ingest import count_tokens_batch, split_bucket

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        b = split_bucket(batch["doc_id"].to_numpy(zero_copy_only=False))
        split = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        toks = count_tokens_batch(batch)
        df = pd.DataFrame({"split": split, "toks": toks})
        return df.groupby("split", sort=False, as_index=False).agg(
            total_tokens=("toks", "sum"), n_docs=("toks", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("split", as_index=False).agg(
            total_tokens=("total_tokens", "sum"), n_docs=("n_docs", "sum")
        )
        out["total_tokens"] = out["total_tokens"].astype("int64")
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    out = two_phase(ds, partial, final)
    return out.sort_values("split").reset_index(drop=True)[
        ["split", "n_docs", "total_tokens"]
    ]


EPOCH_TOKEN_COUNTS_SQL = r"""
SELECT CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END
         AS split,
       count(*) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS total_tokens
FROM (SELECT ((doc_id % 1000003) * 2654435761) % 1000000007 % 100 AS b,
             CASE WHEN trim(text) = '' THEN 0
                  ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END
               AS n_tokens
      FROM documents)
GROUP BY 1 ORDER BY split
"""


def curation_v2_stats(sf_dir: str, num_buckets: int | None = None):
    """COMPOSED curation funnel v2 — exact keep-first dedup x Gopher rule
    battery in ONE exchange: per surviving (min doc_id) text, how many
    duplicates it absorbed and whether it clears every Gopher gate,
    rolled up per survivor lang.

    One pass computes BOTH the 128-bit content key (content_key128 — the
    shared exact-dedup scheme) and the per-doc gate conjunction
    (functions/text.gopher_rule_flags); the single content-hash-bucketed
    exchange then resolves global keep-first and carries the min-doc
    member's (lang, all_ok) with it — gates are text-pure so the
    survivor's flags equal any member's, and lang follows the min-doc
    member exactly as the oracle's join-on-min-doc does.  Only langs x 3
    count rows leave each bucket."""
    from q_digest_ray.pipelines.export import curation_v2

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return curation_v2(ds, "doc_id", "lang", "text", num_buckets=num_buckets)


CURATION_V2_SQL = r"""
WITH f AS (
  SELECT doc_id, lang,
         CASE WHEN text IS NULL OR trim(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS s,
         CASE WHEN text IS NULL THEN 0
              ELSE len(regexp_replace(lower(text), '\s+', '', 'g')) END AS nonspace
  FROM documents
), r AS (
  SELECT doc_id, lang, len(s) AS w, nonspace,
         len(list_filter(s, x -> regexp_matches(x, '[a-z]'))) AS alpha,
         (CASE WHEN list_contains(s, 'the')  THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'a')    THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'and')  THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'of')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'to')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'in')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'is')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'with') THEN 1 ELSE 0 END) AS sw
  FROM f
), flags AS (
  SELECT doc_id, lang,
         (w BETWEEN 30 AND 100000 AND w > 0
          AND nonspace >= 3*w AND nonspace <= 10*w
          AND alpha*5 >= w*4 AND sw >= 2) AS all_ok
  FROM r
), surv AS (
  SELECT min(doc_id) AS doc_id, count(*) AS members
  FROM documents GROUP BY text
)
SELECT fl.lang, count(*) AS n_unique,
       CAST(sum(s.members) AS BIGINT) AS n_members,
       CAST(sum(CASE WHEN fl.all_ok THEN 1 ELSE 0 END) AS BIGINT) AS n_pass
FROM surv s JOIN flags fl ON fl.doc_id = s.doc_id
GROUP BY fl.lang ORDER BY fl.lang
"""


def mixture_weights(sf_dir: str):
    """TRAINING-MIXTURE REWEIGHTING (the domain-balance step before
    sampling a corpus into a training mix): per-lang sampling rates that
    move the corpus toward a UNIFORM target mixture without upsampling —
    rate_i = (target/actual_i) normalized so the scarcest domain samples
    at 1.0, plus the expected post-sampling doc count.

    The only distributed work is the tiny per-lang count (two-phase
    partials); the weight algebra runs on k rows.  Feeds
    weighted_sample_docs / stratified_sample, which consume rates at
    corpus scale.  Float ops mirror the oracle's order exactly (IEEE
    division + half-away-from-zero rounding)."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["lang"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({"lang": batch["lang"].to_pandas()})
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("lang", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(n_docs=("n_docs", "sum"))

    out = two_phase(ds, partial, final).sort_values("lang")
    n = out["n_docs"].to_numpy(dtype=np.float64)
    tot = float(n.sum())
    k = len(out)
    actual = n / tot
    raw = (1.0 / k) / actual
    rate = raw / raw.max()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["actual_share"] = [duckdb_round_double(v, 6) for v in actual]
    out["sample_rate"] = [duckdb_round_double(v, 6) for v in rate]
    out["expected_docs"] = np.floor(n * rate + 0.5).astype(np.int64)
    return out.reset_index(drop=True)


def cohort_retention(sf_dir: str, num_buckets: int | None = None):
    """COHORT RETENTION matrix (the classic product-analytics table, and a
    data-pipeline freshness audit): users grouped by FIRST-active day,
    counted at each day-offset they return — (cohort_day, day_offset,
    n_users), exact.

    One exchange: per-batch distinct (user, day) pairs (16 B rows) bucket
    by user hash so each user's full day-set co-locates; per bucket the
    cohort day is a segmented min over the user-sorted day array and every
    (cohort, offset) pair counts exactly once per user (pairs dedup
    in-bucket).  The final combine sums ≤ B × days² tiny rows.  Dates
    emitted as strings (timestamp-parity rule)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    B = num_buckets or derive_buckets(ds)
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // DAY_US
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        t = (
            pa.table({"user_id": pa.array(uid), "day": pa.array(day)})
            .group_by(["user_id", "day"])
            .aggregate([])
        )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": t["day"],
                "bucket": pa.array(
                    (hash64(u) % np.uint64(B)).astype(np.int32)
                ),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]).sort_values(["user_id", "day"])
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy(np.int64)
        first = np.ones(len(g), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        cohort = np.repeat(
            d[first], np.diff(np.append(np.flatnonzero(first), len(g)))
        )
        out = pd.DataFrame({"cohort": cohort, "off": d - cohort})
        return out.groupby(["cohort", "off"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby(["cohort", "off"], as_index=False).agg(n=("n", "sum"))
    out["cohort_day"] = (
        (out["cohort"].to_numpy(np.int64) * DAY_US)
        .astype("datetime64[us]")
        .astype("datetime64[D]")
        .astype(str)
    )
    out["day_offset"] = out["off"].astype("int64")
    out["n_users"] = out["n"].astype("int64")
    return (
        out[["cohort_day", "day_offset", "n_users"]]
        .sort_values(["cohort_day", "day_offset"])
        .reset_index(drop=True)
    )


def active_users_daily(sf_dir: str, num_buckets: int | None = None):
    """DAU + rolling 7-day WAU + stickiness (DAU/WAU) per day — the
    freshness dashboard of any event pipeline, exact.

    Same one-exchange shape as cohort_retention: distinct (user, day)
    16 B pairs bucket by user hash; each bucket emits, per user, the
    (day, window_day) coverage pairs for the 7-day windows the user's
    active days fall into (≤7 rows per active day, arithmetic expansion —
    a user counts once per window even with daily activity because the
    in-bucket pairs dedup); per-(window) distinct-user counts are then
    exact sums.  DAU comes from the same pairs at offset 0."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    B = num_buckets or derive_buckets(ds)
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // DAY_US
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        t = (
            pa.table({"user_id": pa.array(uid), "day": pa.array(day)})
            .group_by(["user_id", "day"])
            .aggregate([])
        )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": t["day"],
                "bucket": pa.array((hash64(u) % np.uint64(B)).astype(np.int32)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy(np.int64)
        # DAU: one row per (user, day) already distinct
        dau = pd.DataFrame({"day": d}).groupby("day").size()
        # WAU: user counts toward window-ending-day w for w in [d, d+6];
        # expand arithmetically then dedup (user, w) so a daily-active
        # user still counts once per window
        w = (d[:, None] + np.arange(7)[None, :]).ravel()
        uu = np.repeat(u, 7)
        wau_pairs = pd.DataFrame({"u": uu, "w": w}).drop_duplicates()
        wau = wau_pairs.groupby("w").size()
        out = pd.DataFrame(
            {
                "day": np.concatenate([dau.index.to_numpy(), wau.index.to_numpy()]),
                "kind": np.concatenate(
                    [np.zeros(len(dau), np.int8), np.ones(len(wau), np.int8)]
                ),
                "n": np.concatenate([dau.to_numpy(), wau.to_numpy()]).astype(np.int64),
            }
        )
        return out

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby(["day", "kind"], as_index=False).agg(n=("n", "sum"))
    dau = agg[agg["kind"] == 0].set_index("day")["n"]
    wau = agg[agg["kind"] == 1].set_index("day")["n"]
    # report only REAL days (the window expansion creates phantom trailing
    # window-end days past the data's max day; the oracle's day list comes
    # from the data)
    days = np.sort(dau.index.to_numpy(np.int64))
    rows = []
    for day in days:
        dn = int(dau.get(day, 0))
        wn = int(wau.get(day, 0))
        rows.append(
            {
                "day": str(
                    np.int64(day * DAY_US).astype("datetime64[us]").astype("datetime64[D]")
                ),
                "dau": dn,
                "wau7": wn,
                "stickiness": duckdb_round_double(dn / wn, 4),
            }
        )
    return pd.DataFrame(rows)


def gini_user_activity(sf_dir: str, num_buckets: int | None = None):
    """GINI COEFFICIENT of per-user event counts — the concentration audit
    a curation pipeline runs to ask "is this corpus dominated by a few
    heavy actors?" (0 = perfectly even, →1 = one user generated
    everything).

    Exact from grouped arithmetic: per-user totals co-locate in user-hash
    buckets (one thin exchange), each bucket emits its
    (events_per_user, n_users) histogram rows, and the driver evaluates
    the tie-grouped closed form Σᵢ i·x₍ᵢ₎ = Σₖ vₖ·mₖ·(first+last)/2 over
    the sorted value histogram in Python ints — no global sort, exact at
    any scale; ONE float expression at the end mirrors the oracle's."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "events", columns=["user_id"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        vc = batch["user_id"].value_counts()
        u = vc.field("values")
        return pa.table(
            {
                "user_id": u,
                "c": vc.field("counts").cast(pa.int64()),
                "bucket": pa.array(
                    (
                        hash64(u.to_numpy(zero_copy_only=False))
                        % np.uint64(B)
                    ).astype(np.int32)
                ),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("user_id")["c"].sum()
        vc = tot.value_counts()
        return pd.DataFrame(
            {
                "events_per_user": vc.index.to_numpy(np.int64),
                "m": vc.to_numpy(np.int64),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    h = (
        hist.groupby("events_per_user", as_index=False)
        .agg(m=("m", "sum"))
        .sort_values("events_per_user")
    )
    n = int(h["m"].sum())
    s = int((h["events_per_user"].astype(object) * h["m"].astype(object)).sum())
    six = 0  # Σ i·x over the ascending order, exact
    cum = 0
    for v, m in zip(h["events_per_user"], h["m"]):
        first, last = cum + 1, cum + int(m)
        six += int(v) * (int(m) * (first + last)) // 2
        cum = last
    gini = 2.0 * six / (n * s) - (n + 1.0) / n
    return pd.DataFrame(
        {
            "n_users": [np.int64(n)],
            "total_events": [np.int64(s)],
            "gini": [duckdb_round_double(gini, 6)],
        }
    )


GINI_USER_ACTIVITY_SQL = """
WITH pc AS (SELECT user_id, CAST(count(*) AS BIGINT) AS c
            FROM events GROUP BY user_id),
r AS (SELECT c, row_number() OVER (ORDER BY c, user_id) AS i,
             count(*) OVER () AS n, sum(c) OVER () AS s
      FROM pc)
SELECT CAST(any_value(n) AS BIGINT) AS n_users,
       CAST(any_value(s) AS BIGINT) AS total_events,
       round(2.0 * sum(i * c) / (any_value(n) * any_value(s))
             - (any_value(n) + 1.0) / any_value(n), 6) AS gini
FROM r
"""


ACTIVE_USERS_DAILY_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day
  FROM events
), days AS (SELECT DISTINCT day FROM ud),
dau AS (SELECT day, CAST(count(*) AS BIGINT) AS dau FROM ud GROUP BY day),
wau AS (
  SELECT days.day, CAST(count(DISTINCT ud.user_id) AS BIGINT) AS wau7
  FROM days JOIN ud
    ON ud.day <= days.day AND ud.day >= days.day - INTERVAL 6 DAY
  GROUP BY days.day
)
SELECT CAST(d.day AS VARCHAR) AS day, d.dau, w.wau7,
       round(d.dau * 1.0 / w.wau7, 4) AS stickiness
FROM dau d JOIN wau w USING (day) ORDER BY d.day
"""


COHORT_RETENTION_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day
  FROM events
), c AS (
  SELECT user_id, min(day) AS cohort_day FROM ud GROUP BY user_id
)
SELECT CAST(cohort_day AS VARCHAR) AS cohort_day,
       CAST(date_diff('day', cohort_day, day) AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def mixture_resample(sf_dir: str):
    """EXECUTE the mixture_weights plan: deterministic per-lang downsample
    toward the uniform target (scarcest lang keeps everything) — doc keeps
    iff hash-key(doc_id)·n_lang < n_min·P, the EXACT integer form of
    Bernoulli(rate = n_min/n_lang) under the same SQL-replicable
    multiplicative hash the split/stratified ops use.  No floats anywhere
    in the keep decision (the threshold ⌊(n_min·P−1)/n_lang⌋+1 is computed
    in Python ints, the oracle compares the HUGEINT product), so the kept
    SET is reproducible on any partitioning and identical on both sides.

    Two thin passes: the per-lang count (tiny two-phase) fixes the
    thresholds, then one map pass counts survivors per lang — the executed
    complement of mixture_weights' plan (rates there = n_min/n_lang too)."""
    ds = read_table(sf_dir, "documents", columns=["lang"])

    def cpartial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({"lang": batch["lang"].to_pandas()})
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("lang", "size")
        )

    def cfinal(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(n_docs=("n_docs", "sum"))

    counts = two_phase(ds, cpartial, cfinal)
    P = 1000000007
    mn = int(counts["n_docs"].min())
    thr = {
        lang: (mn * P - 1) // int(n) + 1  # key < thr  ⟺  key·n < mn·P
        for lang, n in zip(counts["lang"], counts["n_docs"])
    }

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def kpartial(batch: pa.Table) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        key = ((did % 1000003) * 2654435761) % P
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(), "key": key})
        # NULL-lang rows: the oracle's JOIN ... USING (lang) drops them
        # (NULL never equi-joins); match that instead of NaN-crashing map
        df = df[df["lang"].notna()]
        df["kept"] = (
            df["key"].to_numpy() < df["lang"].map(thr).to_numpy(np.int64)
        ).astype(np.int64)
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_kept=("kept", "sum")
        )

    def kfinal(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(n_kept=("n_kept", "sum"))

    kept = two_phase(docs, kpartial, kfinal)
    out = counts.merge(kept, on="lang", how="left").fillna({"n_kept": 0})
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


MIXTURE_RESAMPLE_SQL = """
WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
           FROM documents GROUP BY lang),
m AS (SELECT min(n_docs) AS mn FROM c),
k AS (SELECT d.lang, c.n_docs, m.mn,
             ((doc_id % 1000003) * 2654435761) % 1000000007 AS key
      FROM documents d JOIN c USING (lang), m)
SELECT lang, CAST(any_value(n_docs) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (WHERE key * n_docs < mn * 1000000007) AS BIGINT)
         AS n_kept
FROM k GROUP BY lang ORDER BY lang
"""


MIXTURE_WEIGHTS_SQL = """
WITH s AS (SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang),
t AS (SELECT lang, n_docs,
        CAST(n_docs AS DOUBLE) / sum(n_docs) OVER () AS actual_share,
        (1.0 / count(*) OVER ()) / (CAST(n_docs AS DOUBLE) / sum(n_docs) OVER ())
          AS raw_rate
      FROM s)
SELECT lang, CAST(n_docs AS BIGINT) AS n_docs,
       round(actual_share, 6) AS actual_share,
       round(raw_rate / max(raw_rate) OVER (), 6) AS sample_rate,
       CAST(floor(n_docs * (raw_rate / max(raw_rate) OVER ()) + 0.5) AS BIGINT)
         AS expected_docs
FROM t ORDER BY lang
"""


def gopher_quality_flags(sf_dir: str):
    """The Gopher/MassiveText RULE BATTERY (Rae et al. 2021 quality
    gates), per-lang pass counts for each rule and for the conjunction:
    word-count window, mean-word-length window [3,10], >=80% tokens
    containing a letter, >=2 distinct stopwords present.

    Every gate is EXACT INTEGER arithmetic on both sides (nonspace >= 3*w,
    alpha*5 >= w*4, ...) so no float rounding can diverge from the oracle.
    One tokenization per batch; per-doc token reductions are
    np.add.reduceat over the flat token array (empty-doc segments masked);
    only langs x 6 count rows leave each block."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.text import gopher_rule_flags

        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        flags = gopher_rule_flags(batch["text"])
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "n_docs": np.ones(len(flags), dtype=np.int64),
                "wc_pass": flags["wc_ok"].to_numpy().astype(np.int64),
                "mwl_pass": flags["mwl_ok"].to_numpy().astype(np.int64),
                "alpha_pass": flags["alpha_ok"].to_numpy().astype(np.int64),
                "stop_pass": flags["stop_ok"].to_numpy().astype(np.int64),
                "all_pass": flags["all_ok"].to_numpy().astype(np.int64),
            }
        )
        return df.groupby("lang", sort=False, as_index=False).sum()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).sum()

    out = two_phase(ds, partial, final)
    cols = ["n_docs", "wc_pass", "mwl_pass", "alpha_pass", "stop_pass", "all_pass"]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)[["lang"] + cols]


GOPHER_FLAGS_SQL = r"""
WITH d AS (
  SELECT lang,
         CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS s,
         len(regexp_replace(lower(text), '\s+', '', 'g')) AS nonspace
  FROM documents WHERE text IS NOT NULL AND lang IS NOT NULL
), r AS (
  SELECT lang, len(s) AS w, nonspace,
         len(list_filter(s, x -> regexp_matches(x, '[a-z]'))) AS alpha,
         (CASE WHEN list_contains(s, 'the')  THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'a')    THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'and')  THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'of')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'to')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'in')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'is')   THEN 1 ELSE 0 END
        + CASE WHEN list_contains(s, 'with') THEN 1 ELSE 0 END) AS sw
  FROM d
)
SELECT lang, count(*) AS n_docs,
  CAST(sum(CASE WHEN w BETWEEN 30 AND 100000 THEN 1 ELSE 0 END) AS BIGINT) AS wc_pass,
  CAST(sum(CASE WHEN w > 0 AND nonspace >= 3*w AND nonspace <= 10*w
           THEN 1 ELSE 0 END) AS BIGINT) AS mwl_pass,
  CAST(sum(CASE WHEN w > 0 AND alpha*5 >= w*4 THEN 1 ELSE 0 END) AS BIGINT) AS alpha_pass,
  CAST(sum(CASE WHEN sw >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS stop_pass,
  CAST(sum(CASE WHEN w BETWEEN 30 AND 100000
                 AND nonspace >= 3*w AND nonspace <= 10*w
                 AND alpha*5 >= w*4 AND sw >= 2
           THEN 1 ELSE 0 END) AS BIGINT) AS all_pass
FROM r GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# dedup / ANN / text-analysis queries (rows-only: non-SQL-expressible or
# approximate; correctness asserted in tests/ on controlled corpora)
# ---------------------------------------------------------------------------


def minhash_dedup(sf_dir: str):
    from q_digest_ray.stages.dedup import minhash_dup_groups

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_dup_groups(ds, "doc_id", "text", threshold=0.8)


def minhash_dedup_distributed(sf_dir: str):
    """Same pipeline with the DISTRIBUTED group assembly forced
    (stages/concomp.py label propagation instead of driver union-find) —
    must produce byte-identical rows to ``minhash_dedup``, so the driver's
    rows-only gate exercises the scale path too."""
    from q_digest_ray.stages.dedup import minhash_dup_groups

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_dup_groups(
        ds, "doc_id", "text", threshold=0.8, assembly="distributed"
    )


def paragraph_dedup_docs(sf_dir: str):
    """Corpus-level paragraph dedup keep-first (stages/dedup.py
    ``paragraph_dedup`` — the RefinedWeb/Gopher curation op): paragraphs
    keep only their first global (doc_id, pos) occurrence, docs are
    reassembled from survivors, fully-deduped docs drop out.  On the
    synthetic corpus every doc is a single paragraph (no \\n\\n), so the
    oracle degenerates to exact keep-first text dedup — still a full
    end-to-end differential over both bucketed exchanges; the multi-
    paragraph path is DuckDB-differential-tested on planted corpora in
    tests/test_round4.py."""
    from q_digest_ray.stages.dedup import paragraph_dedup

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = paragraph_dedup(ds, "doc_id", "text").to_pandas()
    for c in ("doc_id", "n_paras_in", "n_paras_kept"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


PARAGRAPH_DEDUP_SQL = r"""
WITH paras AS (
  SELECT doc_id, unnest(range(1, len(ps)+1)) AS pos, unnest(ps) AS para
  FROM (SELECT doc_id, string_split(text, e'\n\n') AS ps
        FROM documents WHERE text IS NOT NULL)
),
ranked AS (
  SELECT doc_id, pos, para,
         row_number() OVER (PARTITION BY para ORDER BY doc_id, pos) AS rn,
         count(*) OVER (PARTITION BY doc_id) AS n_in
  FROM paras
)
SELECT doc_id, CAST(any_value(n_in) AS BIGINT) AS n_paras_in,
       count(*) AS n_paras_kept,
       string_agg(para, e'\n\n' ORDER BY pos) AS text
FROM ranked WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
"""


def minhash_dedup_streaming(sf_dir: str):
    """The STREAMING group API (``minhash_dup_groups_ds`` — library output
    is a Dataset, no driver-side assembly or scoring at all, r3 VERDICT
    item 5); collected + sorted only here at the catalog boundary, and
    must produce byte-identical rows to ``minhash_dedup``."""
    from q_digest_ray.stages.dedup import minhash_dup_groups_ds

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = minhash_dup_groups_ds(ds, "doc_id", "text", threshold=0.8).to_pandas()
    if out.empty:  # Ray drops empty-block schemas; match minhash_dedup's shape
        return pd.DataFrame(columns=["doc_id", "group_id", "jaccard_to_root"])
    out["doc_id"] = out["doc_id"].astype("int64")
    out["group_id"] = out["group_id"].astype("int64")
    return out.sort_values(["group_id", "doc_id"]).reset_index(drop=True)


def simhash_pairs(sf_dir: str):
    from q_digest_ray.stages.dedup import simhash_dup_pairs

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_dup_pairs(ds, "doc_id", "text", max_hamming=3)


def embedding_near_dups(sf_dir: str):
    from q_digest_ray.stages.dedup import embedding_dup_pairs

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_dup_pairs(ds, "vec_id", "embedding", threshold=0.95)


def ann_lsh_topk(sf_dir: str):
    from q_digest_ray.stages.ann import lsh_topk

    qvec, corpus = _ann_query(sf_dir)
    return lsh_topk(corpus, "vec_id", "embedding", qvec, k=10, num_planes=8, probe_hamming=3)


def ann_pq_topk(sf_dir: str):
    """Product-quantization ANN (stages/ann.pq_topk — the memory-compressed
    scale path: m bytes/vector instead of 4*D floats, ADC lookup scoring,
    exact in-batch rerank of candidates); recall vs brute force asserted
    in tests."""
    from q_digest_ray.stages.ann import pq_topk

    qvec, corpus = _ann_query(sf_dir)
    # rerank=8: 80 exact-rerank candidates per batch — negligible per-block
    # cost, and it is what recovers recall on unclustered (random) vectors
    # where ADC distortion is worst (recall sweep in tests/test_round4b.py)
    return pq_topk(corpus, "vec_id", "embedding", qvec, k=10, rerank=8)


def ann_ivf_topk(sf_dir: str):
    """IVF approximate top-k: coarse k-means centroids trained on a bounded
    sample, then only the nprobe nearest inverted lists are scanned — the
    partition-pruned ANN scale path (its materialized, partition-pruned
    form is the IVF-PQ index: ann_ivfpq_topk)."""
    from q_digest_ray.stages.ann import ivf_topk

    qvec, corpus = _ann_query(sf_dir)
    return ivf_topk(corpus, "vec_id", "embedding", qvec, k=10, num_centroids=32, nprobe=8)


def ann_ivfpq_topk(sf_dir: str):
    """IVF-PQ composite index (stages/ann.build_ivfpq_index): PQ codes
    stored per IVF list, query = partition-pruned ADC scan over m-byte
    codes + exact cosine rerank of the top candidates.  Builds the
    materialized index under a per-process /tmp dir, queries it, and
    verifies partition pruning (probed paths < total partitions).
    Rows-only; recall-vs-brute asserted in tests."""
    import shutil
    import tempfile

    from q_digest_ray.stages.ann import (
        build_ivfpq_index,
        ivfpq_index_topk,
        ivfpq_probe_paths,
    )

    qvec, corpus = _ann_query(sf_dir)
    idx_dir = tempfile.mkdtemp(prefix="qdr_ivfpq_")
    try:
        build_ivfpq_index(corpus, "vec_id", "embedding", idx_dir, num_centroids=32, m=8)
        out = ivfpq_index_topk(
            idx_dir, "vec_id", "embedding", qvec, k=10, nprobe=8, rerank=8
        )
        # partition pruning is part of the operator's contract
        import glob
        import os

        _, probed = ivfpq_probe_paths(idx_dir, qvec, nprobe=8)
        total = glob.glob(os.path.join(idx_dir, "vectors", "centroid=*", "*.parquet"))
        assert len(probed) < len(total), "IVF-PQ scan must prune partitions"
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


def curation_funnel(sf_dir: str):
    """End-to-end corpus curation (the canonical training-data pipeline):
    documents -> exact dedup (keep min doc_id per distinct text) -> quality
    score/filter -> lang-partitioned Parquet export under /tmp, then the
    written partitions are read back and counted per lang (validating the
    sink roundtrip).  Rows: one funnel row per stage + one per exported
    lang partition."""
    from q_digest_ray.pipelines.export import curate_corpus

    # per-process unique dir: a fixed shared path would race concurrent
    # runs (rmtree under a concurrent reader) and collide same-basename
    # corpora
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="qdr_curated_")
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    # single pass: dedup + score + filter + partitioned sink execute once;
    # all funnel counts come from the same pass's per-bucket result rows
    # (the r2 version ran the dedup graph twice — r2 VERDICT item 5)
    funnel = curate_corpus(ds, out_dir, min_quality=0.3)

    # sink-roundtrip validation: read the written partitions back (output-
    # sized, cheap) and check the per-lang counts against the pipeline's
    # own manifest-derived counts
    import glob
    import os

    written = sorted(glob.glob(os.path.join(out_dir, "lang=*", "*.parquet")))
    if written:
        back = ray.data.read_parquet(written)

        def partial(batch: pa.Table) -> pd.DataFrame:
            return pd.DataFrame({"cnt": [batch.num_rows]})

        def final(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"cnt": [int(df["cnt"].sum())]})

        n_back = int(two_phase(back, partial, final)["cnt"].iloc[0])
    else:
        # nothing passed the quality filter: read_parquet([]) raises, and
        # an empty funnel (exported = 0) is a legitimate outcome
        n_back = 0
    if n_back != funnel["n_exported"]:
        raise ValueError(
            f"sink roundtrip mismatch: wrote {funnel['n_exported']} rows, "
            f"read back {n_back}"
        )
    per_lang = sorted(funnel["per_partition"].items())
    rows = [
        {"stage": "input", "count": funnel["n_in"]},
        {"stage": "after_dedup", "count": funnel["n_after_dedup"]},
        {"stage": "exported", "count": funnel["n_exported"]},
    ] + [{"stage": f"exported:lang={l}", "count": int(c)} for l, c in per_lang]
    return pd.DataFrame(rows)


def embedding_cluster_sizes(sf_dir: str, num_centroids: int = 16):
    """Cluster-then-summarize over the embedding column (the
    SemDeDup/cluster-curation shape): coarse k-means centroids trained
    from a bounded strided sample (stages/ann.train_centroids — the IVF
    quantizer), broadcast once via ray.put, every vector assigned per
    batch with one matmul, two-phase per-cluster counts + mean cosine to
    centroid.  Rows-only (data-dependent centroids, but deterministic:
    fixed seed + strided sample)."""
    from q_digest_ray.stages.ann import (
        _matrix,
        _normalize,
        assign_centroids,
        sample_vectors,
        train_centroids,
    )

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])
    cents = train_centroids(sample_vectors(ds, "embedding"), num_centroids)
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pd.DataFrame:
        c = ray.get(cref)  # zero-copy local get; no actor pool needed
        a, best = assign_centroids(_normalize(_matrix(batch["embedding"])), c)
        df = pd.DataFrame({"cluster": a.astype(np.int64), "s": best})
        return df.groupby("cluster", as_index=False).agg(
            n=("s", "size"), s=("s", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cluster", as_index=False).agg(n=("n", "sum"), s=("s", "sum"))
        g["mean_cos_to_centroid"] = (g["s"] / g["n"]).round(4)
        g["n"] = g["n"].astype("int64")
        return g[["cluster", "n", "mean_cos_to_centroid"]]

    out = two_phase(ds, assign, final)
    return out.sort_values("cluster").reset_index(drop=True)


def semdedup_prune(
    sf_dir: str,
    num_centroids: int = 16,
    threshold: float = 0.95,
    max_cluster: int = 4096,
):
    """SemDeDup pruning (Abbas et al. 2023, arXiv:2303.09540): k-means
    cluster the embedding corpus, then WITHIN each cluster mark semantic
    duplicate groups (pairwise cosine ≥ threshold, transitively closed)
    and keep ONE representative per group — the member farthest from the
    centroid (the paper's low-similarity keep rule; ties → min vec_id).
    Reports the per-cluster pruning funnel.

    Distributed shape: centroids (trained from a bounded strided sample,
    deterministic) broadcast once via ray.put; one map pass assigns and
    hash-routes (vec_id, cluster, vector) rows; vectors co-locate ONCE,
    partitioned by cluster — the whole point of SemDeDup is that pairwise
    work is bounded by the cluster, never the corpus.  Per cluster one
    n×n block matmul + vectorized hook-and-shortcut labeling (no
    Python-loop union-find); clusters beyond ``max_cluster`` dedup within sorted-id
    chunks (the same chain-cap stance as the LSH degenerate buckets —
    documented recall loss instead of an n² blowup).  Rows-only oracle:
    centroids are data-dependent (but seeded, so the result is
    deterministic and the driver's rows gate is stable)."""
    from q_digest_ray.stages.ann import (
        _matrix,
        _normalize,
        assign_centroids,
        sample_vectors,
        train_centroids,
    )
    from q_digest_ray.stages.concomp import dense_component_labels

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents = train_centroids(sample_vectors(ds, "embedding"), num_centroids)
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)  # zero-copy local get
        m = _normalize(_matrix(batch["embedding"]))
        a, best = assign_centroids(m, c)
        a = a.astype(np.int64)
        # zero-copy list<float> column from the flattened matrix (no
        # per-row Python list build)
        d = m.shape[1]
        vec = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(a) + 1) * d, d, dtype=np.int32)),
            pa.array(np.ascontiguousarray(m, dtype=np.float32).ravel()),
        )
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cluster": pa.array(a),
                "cos_c": pa.array(best),
                "vec": vec,
            }
        )

    def _prune_chunk(ids, cos_c, m):
        """(kept_mask) for one ≤max_cluster chunk: components of the cos≥τ
        graph (stages/concomp.dense_component_labels), then keep argmin
        cos-to-centroid per component (tie: min id)."""
        n = len(ids)
        labels = dense_component_labels((m @ m.T) >= threshold)
        # keep rule: per component, lowest cos_c, tie min id — first row of
        # each label run under a (label, cos_c, id) lexsort
        order = np.lexsort((ids, cos_c, labels))
        lab_sorted = labels[order]
        first = np.ones(n, dtype=bool)
        first[1:] = lab_sorted[1:] != lab_sorted[:-1]
        keep = np.zeros(n, dtype=bool)
        keep[order[first]] = True
        return keep

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        cos_c = g["cos_c"].to_numpy()
        m = np.stack(g["vec"].to_numpy())
        n = len(g)
        pruned = 0
        for s in range(0, n, max_cluster):
            sl = slice(s, min(s + max_cluster, n))
            keep = _prune_chunk(ids[sl], cos_c[sl], m[sl])
            pruned += int((~keep).sum())
        return pd.DataFrame(
            {
                "cluster": [int(g["cluster"].iloc[0])],
                "n": np.array([n], dtype=np.int64),
                "n_pruned": np.array([pruned], dtype=np.int64),
                "keep_frac": [round(1.0 - pruned / n, 4)],
            }
        )

    out = (
        ds.map_batches(assign, batch_format="pyarrow", batch_size=None)
        .groupby("cluster")
        .map_groups(per_cluster, batch_format="pandas")
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out["n_pruned"] = out["n_pruned"].astype("int64")
    return out.sort_values("cluster").reset_index(drop=True)


def langid_counts(sf_dir: str):
    """Predicted language distribution (heuristic language-ID stage)."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.text import detect_language

        langs = detect_language(batch["text"])
        return pd.DataFrame({"pred_lang": langs}).groupby(
            "pred_lang", sort=False, as_index=False
        ).size().rename(columns={"size": "cnt"})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("pred_lang", as_index=False).agg(cnt=("cnt", "sum"))

    df = two_phase(ds, partial, final)
    df["cnt"] = df["cnt"].astype("int64")
    return df.sort_values("pred_lang").reset_index(drop=True)


def fingerprint_stats(sf_dir: str):
    """Winnowing fingerprint density per lang (doc-fingerprinting stage)."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from q_digest_ray.functions.text import winnow_fingerprints

        fps = winnow_fingerprints(batch["text"])
        df = pd.DataFrame(
            {"lang": batch["lang"].to_pandas(), "n_fp": [len(f) for f in fps]}
        )
        return df.groupby("lang", sort=False, as_index=False).agg(
            total_fp=("n_fp", "sum"), n_docs=("n_fp", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            total_fp=("total_fp", "sum"), n_docs=("n_docs", "sum")
        )
        g["avg_fp_per_doc"] = (g["total_fp"] / g["n_docs"]).round(4)
        return g[["lang", "total_fp", "avg_fp_per_doc"]]

    df = two_phase(ds, partial, final)
    df["total_fp"] = df["total_fp"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


# ---------------------------------------------------------------------------
# sketch queries (approximate — rows-only driver check; bounds in pytest)
# ---------------------------------------------------------------------------


def _sketch_stats(sf_dir: str, table: str, columns: list[str], specs):
    """Build + merge + finalize (the exact flagship flattening, reused)."""
    from q_digest_ray.pipelines.flagship import finalize

    ds = read_table(sf_dir, table, columns=columns)
    return finalize(collect_sketches(merge_grouped(build_sketches(ds, specs))))


def sk_qdigest_nchars(sf_dir: str):
    return _sketch_stats(
        sf_dir,
        "documents",
        ["n_chars"],
        [SketchSpec("n_chars_qdigest", "n_chars", "qdigest", {"k": 256, "universe_bits": 16})],
    )


def sk_qdigest_nchars_by_lang(sf_dir: str):
    return _sketch_stats(
        sf_dir,
        "documents",
        ["n_chars", "lang"],
        [SketchSpec("n_chars_by_lang", "n_chars", "qdigest", {"k": 256, "universe_bits": 16}, group_by="lang")],
    )


def sk_tdigest_event_values(sf_dir: str):
    return _sketch_stats(
        sf_dir,
        "events",
        ["value"],
        [SketchSpec("value_tdigest", "value", "tdigest", {"delta": 200})],
    )


def sk_kll_nchars(sf_dir: str):
    return _sketch_stats(
        sf_dir,
        "documents",
        ["n_chars"],
        [SketchSpec("n_chars_kll", "n_chars", "kll", {"k": 200})],
    )


def sk_ddsketch_nchars(sf_dir: str):
    """DDSketch (tenth family, r5): alpha=1% RELATIVE-value-error quantiles
    of documents.n_chars — the complement of the rank-error sketches; the
    distributed alpha bound vs exact is asserted in tests/test_ddsketch.py."""
    return _sketch_stats(
        sf_dir,
        "documents",
        ["n_chars"],
        [SketchSpec("n_chars_dds", "n_chars", "dds", {"alpha": 0.01})],
    )


def sk_native_udaf(sf_dir: str):
    """Sketches through the STOCK Ray Data aggregation API (stages/udaf.py,
    r5): one ds.aggregate call fusing three sketch UDAFs — DDSketch p50/p99
    of n_chars and an HLL distinct-text estimate.  Same estimates as the
    two-phase pipeline (exact-merge kinds); equality is asserted in
    tests/test_udaf.py."""
    from q_digest_ray.stages.udaf import distinct_aggregate, quantile_aggregate

    ds = read_table(sf_dir, "documents", columns=["n_chars", "text"])
    spec_dds = SketchSpec("n_chars_dds", "n_chars", "dds", {"alpha": 0.01})
    spec_hll = SketchSpec("text_hll", "text", "hll", {"p": 12})
    out = ds.aggregate(
        quantile_aggregate(spec_dds, 0.5),
        quantile_aggregate(spec_dds, 0.99),
        distinct_aggregate(spec_hll),
    )
    return pd.DataFrame(
        {"stat": sorted(out), "value": [float(out[k]) for k in sorted(out)]}
    )


def sk_fd_spectrum(sf_dir: str):
    """Frequent Directions matrix sketch (r5, eleventh family): the top
    spectrum of the embedding corpus covariance WITHOUT materializing the
    n x d matrix anywhere — per-block ell x d partials merge through the
    same sketch-row exchange as every scalar sketch.  Emits the top-8
    approximate singular values plus the sketch's carried exact spectral-
    error certificate (tests/test_freq_directions.py asserts the bound
    against exact numpy SVD at sf0.001)."""
    ds = read_table(sf_dir, "embeddings", columns=["embedding"])
    rows = build_sketches(
        ds, [SketchSpec("emb_fd", "embedding", "fd", {"ell": 64})]
    )
    sk = collect_sketches(merge_grouped(rows))[("emb_fd", "")]
    sv = sk.singular_values()[:8]
    stats = [(f"sv{i}", float(v)) for i, v in enumerate(sv)]
    stats.append(("error_bound", float(sk.error_bound())))
    stats.append(("n", float(sk.n)))
    return pd.DataFrame({"stat": [k for k, _ in stats], "value": [v for _, v in stats]})


def sk_hll_distinct_users(sf_dir: str):
    return _sketch_stats(
        sf_dir,
        "events",
        ["user_id"],
        [SketchSpec("distinct_users_hll", "user_id", "hll", {"p": 12})],
    )


def sk_cms_event_types(sf_dir: str):
    """CMS point estimates for each distinct event_type (candidate set from
    an exact tiny groupby — the standard CMS + candidate-set pattern)."""
    ds = read_table(sf_dir, "events", columns=["event_type"])
    rows = build_sketches(
        ds, [SketchSpec("event_type_cms", "event_type", "cms", {"depth": 5, "width": 2048})]
    )
    sk = collect_sketches(merge_grouped(rows))[("event_type_cms", "")]
    cands = sorted(read_table(sf_dir, "events", columns=["event_type"]).unique("event_type"))
    est = sk.query(pa.array(cands))
    return pd.DataFrame({"event_type": cands, "est_count": est.astype("int64")})


def mg_heavy_langs(sf_dir: str):
    """Misra-Gries heavy-hitter langs via the distributed sketch pipeline.

    With distinct langs << k=64 the summary never shrinks, so the counters
    are EXACT and merge-order-independent — which is why this sketch query
    can carry a SQL oracle (the general-case deterministic bound is
    n/(k+1) undercount; tested in tests/test_misra_gries.py)."""
    ds = read_table(sf_dir, "documents", columns=["lang"])
    rows = build_sketches(ds, [SketchSpec("langs_mg", "lang", "mg", {"k": 64})])
    sk = collect_sketches(merge_grouped(rows))[("langs_mg", "")]
    hh = sk.heavy_hitters()
    return pd.DataFrame({"key": [k for k, _ in hh], "est_count": [c for _, c in hh]})


MG_HEAVY_LANGS_SQL = """
SELECT lang AS key, count(*) AS est_count
FROM documents GROUP BY lang ORDER BY est_count DESC, key
"""


def sk_kmv_user_overlap(sf_dir: str):
    """Set operations on distinct users per event_type via bottom-k (KMV)
    sketches: distinct estimate per type plus estimated user overlap and
    Jaccard between 'click' and 'purchase' — the capability HLL lacks."""
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    rows = build_sketches(
        ds,
        [SketchSpec("users_kmv", "user_id", "kmv", {"k": 1024}, group_by="event_type")],
    )
    sketches = collect_sketches(merge_grouped(rows))
    out = []
    for (metric, et), sk in sorted(sketches.items()):
        out.append((f"distinct:{et}", float(round(sk.estimate()))))
    click = sketches.get(("users_kmv", "click"))
    purchase = sketches.get(("users_kmv", "purchase"))
    if click is not None and purchase is not None:
        out.append(("overlap:click&purchase", float(round(click.intersection_estimate(purchase)))))
        out.append(("jaccard:click&purchase", round(click.jaccard_estimate(purchase), 4)))
    return pd.DataFrame(out, columns=["stat", "value"])


def _cents(value: pa.ChunkedArray) -> pa.Array:
    """Event ``value`` in integer cents: the integer universe the Q-Digest
    (and every cents-denominated sketch query) works in."""
    return pc.cast(pc.round(pc.multiply(value, pa.scalar(100.0))), pa.int64())


_HOURLY_QDIGEST = {"k": 64, "universe_bits": 16}


def _hourly_value_qdigests(sf_dir: str) -> dict:
    """{"YYYY-MM-DD HH:00": Q-Digest of that hour's event values in cents}
    from one pass over ``events`` — the tumbling-window build every hourly
    sketch query shares."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    def add_cols(batch: pa.Table) -> pa.Table:
        win = _strftime(pc.floor_temporal(batch["ts"], unit="hour"), "%Y-%m-%d %H:00")
        return pa.table({"window": win, "value_cents": _cents(batch["value"])})

    rows = build_sketches(
        ds.map_batches(add_cols, batch_format="pyarrow"),
        [SketchSpec("value_cents_by_hour", "value_cents", "qdigest", _HOURLY_QDIGEST, group_by="window")],
    )
    return {win: sk for (_, win), sk in collect_sketches(merge_grouped(rows)).items()}


def _merged_qdigest(members) -> QDigest:
    """``members`` merged in one pass into a FRESH sketch (merge_many
    mutates no input, so the members stay queryable for their own rows)."""
    return QDigest.merge_many([QDigest(**_HOURLY_QDIGEST), *members])


def sk_qdigest_value_by_hour(sf_dir: str):
    """Windowed sketch: per-hour Q-Digest of event values (sketches keyed by
    an event-time window — the streaming-shaped sketch pattern; values
    sketched in cents so the integer-universe Q-Digest applies)."""
    out = [
        (win, sk.quantile(0.5), sk.quantile(0.9), sk.n)
        for win, sk in sorted(_hourly_value_qdigests(sf_dir).items())
    ]
    return pd.DataFrame(out, columns=["window", "p50_cents", "p90_cents", "n"])


def sk_window_rollup(sf_dir: str):
    """Hierarchical sketch rollup (hour → day → total) WITHOUT re-scanning:
    the one pass that builds per-hour Q-Digests is the only time input rows
    move; every coarser window is a pure sketch merge (associative, O(K)
    state per merge) of the finer level's sketches.

    This is the mergeability property that makes sketches the right
    summary at 100 TB: a year of hourly sketches re-aggregates to any
    coarser calendar in milliseconds on the driver (here: 720 hour
    sketches, ~KB each), where exact re-aggregation would re-shuffle the
    corpus per rollup level.  Counts are exact through every merge
    (sum-preserving), so ``n`` reconciles level-to-level by construction —
    asserted in tests along with the rank-error bound at each level."""
    hours = _hourly_value_qdigests(sf_dir)
    days: dict[str, list] = {}
    for win in sorted(hours):  # sorted: deterministic merge order
        days.setdefault(win[:10], []).append(hours[win])
    out = [
        ("hour", win, sk.quantile(0.5), sk.quantile(0.9), sk.n)
        for win, sk in sorted(hours.items())
    ]
    day_sketches = {day: _merged_qdigest(members) for day, members in sorted(days.items())}
    out += [
        ("day", day, sk.quantile(0.5), sk.quantile(0.9), sk.n)
        for day, sk in sorted(day_sketches.items())
    ]
    total = _merged_qdigest(day_sketches[d] for d in sorted(day_sketches))
    out.append(("all", "", total.quantile(0.5), total.quantile(0.9), total.n))
    return pd.DataFrame(
        out, columns=["level", "window", "p50_cents", "p90_cents", "n"]
    )


def sk_sliding_quantiles(sf_dir: str, window_hours: int = 3):
    """SLIDING-window quantiles from TUMBLING sketches (the streaming
    sketch-algebra trick): one pass builds per-hour Q-Digests; every
    3-hour sliding p50/p90 then comes from merging the 3 adjacent hourly
    sketches — no re-scan, no per-window pass, O(windows x K) driver work
    on KB-sized state.  At 100 TB the alternative is one shuffle PER
    window offset; here every offset is a fold over the same hour row set
    the tumbling build already produced (same property sk_window_rollup
    uses vertically for hour->day->total).  Windows are labeled by their
    LAST hour and only complete windows are emitted; windows slide over
    the OBSERVED hour sequence (an hour with zero events contributes no
    row — sparse-hour semantics)."""
    hours = _hourly_value_qdigests(sf_dir)
    keys = sorted(hours)
    out = []
    for i in range(window_hours - 1, len(keys)):
        acc = _merged_qdigest(hours[k] for k in keys[i - window_hours + 1 : i + 1])
        out.append((keys[i], acc.quantile(0.5), acc.quantile(0.9), acc.n))
    return pd.DataFrame(
        out, columns=["window_end", "p50_cents", "p90_cents", "n"]
    )


def sk_incremental_build(sf_dir: str):
    """Incremental sketch MAINTENANCE (the daily-ingest ops pattern): build
    sketch state over the base partition, serialize it (``to_bytes`` — the
    checkpoint artifact a real deployment persists), then fold in ONLY the
    delta partition and merge into the restored state — never re-scanning
    the base.  A full rebuild runs alongside for comparison.

    At 100 TB this is the difference between scanning yesterday's corpus
    every day and scanning only the new shard: sketch counts stay exact
    under merge (``n`` identical on both paths, asserted in tests) and
    quantile/cardinality estimates agree within their bounds.  Events
    split by day-of-month (base ≤ 15 < delta) — a deterministic stand-in
    for the date-partitioned ingest directory."""
    from q_digest_ray.sketches.hll import HyperLogLog

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "value"])
    specs = [
        SketchSpec("inc_q", "value_cents", "qdigest", {"k": 64, "universe_bits": 16}),
        SketchSpec("inc_hll", "user_id", "hll", {"p": 12}),
    ]

    def prep(which: str):
        def fn(batch: pa.Table) -> pa.Table:
            day = pc.day(batch["ts"])
            mask = (
                pc.less_equal(day, pa.scalar(15))
                if which == "base"
                else pc.greater(day, pa.scalar(15))
            )
            if which != "full":
                batch = batch.filter(mask)
            return pa.table(
                {"value_cents": _cents(batch["value"]), "user_id": batch["user_id"]}
            )

        return fn

    def built(which: str) -> dict:
        rows = build_sketches(
            ds.map_batches(prep(which), batch_format="pyarrow"), specs
        )
        sks = collect_sketches(merge_grouped(rows))
        return {"q": sks[("inc_q", "")], "hll": sks[("inc_hll", "")]}

    base, delta, full = built("base"), built("delta"), built("full")
    # checkpoint round-trip: the base state crosses a process/day boundary
    # as bytes, exactly like a persisted nightly artifact
    restored_q = QDigest.from_bytes(base["q"].to_bytes())
    restored_hll = HyperLogLog.from_bytes(base["hll"].to_bytes())
    inc_q = restored_q.merge(delta["q"])
    restored_hll.merge(delta["hll"])

    def row(method: str, q, hll) -> dict:
        return {
            "method": method,
            "n": q.n,
            "p50_cents": q.quantile(0.5),
            "p90_cents": q.quantile(0.9),
            "distinct_users_est": round(hll.estimate(), 2),
        }

    return pd.DataFrame(
        [row("incremental", inc_q, restored_hll), row("full", full["q"], full["hll"])]
    )


def sk_drift_monitor(sf_dir: str):
    """DISTRIBUTION-DRIFT MONITOR (the corpus-snapshot comparison every
    continuously-ingesting pipeline runs): events split at the midpoint
    of the time range; ONE pass builds per-half mergeable sketches — KLL
    over value-cents, HLL over user_id, Misra-Gries over event_type —
    and the report is pure sketch math: p50/p90/p99 shift, distinct-user
    change, per-type frequency-share drift.

    The boundary comes from parquet FOOTER STATISTICS when present
    (sources/tables.column_min_max — zero scan; the actual 100-TB path),
    falling back to a ts-only column min/max pre-pass.  Sketch-native
    monitoring is the 100-TB shape: per-half state is O(KB) regardless of
    corpus size, halves merge associatively from any partitioning, and
    yesterday's serialized half can be compared against today's without
    re-scanning either corpus (see sk_incremental_build for the restore
    path)."""
    from q_digest_ray.sources.tables import column_min_max

    stats = column_min_max(sf_dir, "events", "ts")
    if stats is not None:
        lo_us = int(pa.scalar(stats[0], pa.timestamp("us")).value)
        hi_us = int(pa.scalar(stats[1], pa.timestamp("us")).value)
        mid = (lo_us + hi_us) // 2
    else:  # statistics absent: one ts-only column scan
        mm_ds = read_table(sf_dir, "events", columns=["ts"])

        def p_minmax(batch: pa.Table) -> pd.DataFrame:
            v = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            return pd.DataFrame(
                {
                    "lo": np.array([v.min()], np.int64),
                    "hi": np.array([v.max()], np.int64),
                }
            )

        def f_minmax(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"lo": [df["lo"].min()], "hi": [df["hi"].max()]})

        mm = two_phase(mm_ds, p_minmax, f_minmax)
        mid = (int(mm["lo"].iloc[0]) + int(mm["hi"].iloc[0])) // 2

    ds = read_table(
        sf_dir, "events", columns=["ts", "value", "user_id", "event_type"]
    )

    def add_cols(batch: pa.Table) -> pa.Table:
        tsv = batch["ts"].cast(pa.int64())
        half = pc.if_else(
            pc.less_equal(tsv, pa.scalar(mid, pa.int64())),
            pa.scalar("A"),
            pa.scalar("B"),
        )
        return pa.table(
            {
                "half": half,
                "value_cents": _cents(batch["value"]),
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
            }
        )

    rows = build_sketches(
        ds.map_batches(add_cols, batch_format="pyarrow"),
        [
            SketchSpec("value_kll", "value_cents", "kll", {"k": 200}, group_by="half"),
            SketchSpec("users_hll", "user_id", "hll", {"p": 12}, group_by="half"),
            SketchSpec("types_mg", "event_type", "mg", {"k": 64}, group_by="half"),
        ],
    )
    sk = collect_sketches(merge_grouped(rows))
    out = []
    ka, kb = sk[("value_kll", "A")], sk[("value_kll", "B")]
    out.append(("n_events", float(ka.n), float(kb.n), float(abs(kb.n - ka.n))))
    for q in (0.5, 0.9, 0.99):
        a, b = float(ka.quantile(q)), float(kb.quantile(q))
        out.append((f"value_p{int(q * 100)}_cents", a, b, abs(b - a)))
    ha, hb = sk[("users_hll", "A")], sk[("users_hll", "B")]
    ea, eb = ha.estimate(), hb.estimate()
    out.append(("distinct_users", round(ea, 1), round(eb, 1), round(abs(eb - ea), 1)))
    ma, mb = sk[("types_mg", "A")], sk[("types_mg", "B")]
    keys = sorted(
        {k for k, _ in ma.heavy_hitters()} | {k for k, _ in mb.heavy_hitters()}
    )
    for key in keys:
        sa = ma.estimate(key) / max(ma.n, 1)
        sb = mb.estimate(key) / max(mb.n, 1)
        out.append((f"share_{key}", round(sa, 6), round(sb, 6), round(abs(sb - sa), 6)))
    return pd.DataFrame(out, columns=["metric", "half_a", "half_b", "drift"])


def sk_bloom_membership(sf_dir: str):
    """Bloom over doc_ids of source='src1'; probe all doc_ids."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def only_src(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["source"], pa.scalar("src1"))).select(["doc_id"])

    rows = build_sketches(
        ds.map_batches(only_src, batch_format="pyarrow"),
        [SketchSpec("src1_bloom", "doc_id", "bloom", {"num_bits": 1 << 16, "num_hashes": 7})],
    )
    bloom = collect_sketches(merge_grouped(rows))[("src1_bloom", "")]
    # probe DISTRIBUTED: the merged Bloom (O(num_bits) bytes) broadcasts
    # once via ray.put and every batch probes locally — state moves, data
    # doesn't (the reference ships serialized sketches the same way,
    # mpi-implementation/src/main.c:51-58).  Reading the doc_id column onto
    # the driver would materialize ~8 TB at 10^12 rows (r2 VERDICT item 1).
    bloom_ref = ray.put(bloom)

    # plain-function probe (zero-copy local ray.get; no pool spin-up)
    def prober(batch: pa.Table) -> pd.DataFrame:
        bloom_f = ray.get(bloom_ref)
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        hits = bloom_f.contains(ids)
        return pd.DataFrame({"n": [len(hits)], "h": [int(hits.sum())]})

    n_inserted = bloom.n  # capture the scalar, not the whole filter

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_probed": [int(df["n"].sum())],
                "n_hits": [int(df["h"].sum())],
                "n_inserted": [n_inserted],
            }
        )

    probe_ds = read_table(sf_dir, "documents", columns=["doc_id"])
    return two_phase(probe_ds, prober, final)


def customer_nation_revenue(sf_dir: str, num_buckets: int | None = None):
    """Large-large join through ``stages/join.bucketed_join``: customer x
    orders co-partitioned on the customer key (neither side broadcast or
    driver-materialized — the shuffle moves each row once into hash
    buckets, B size-derived), then a two-phase per-nation aggregate over
    the joined rows."""
    from q_digest_ray.stages.join import bucketed_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    B = num_buckets or derive_buckets(
        size_bytes=(cust.size_bytes() or 0) + (orders.size_bytes() or 0)
    )
    joined = bucketed_join(
        cust, orders, on="c_custkey", right_on="o_custkey", num_buckets=B
    )

    from q_digest_ray.functions.fixedpoint import scaled_int64

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df = df.assign(p100=scaled_int64(df["o_totalprice"].to_numpy(), 2))
        return df.groupby("c_nationkey", as_index=False).agg(
            p100=("p100", "sum"), n_orders=("p100", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(p100=df["p100"].astype(object))  # overflow-proof cents
        g = df.groupby("c_nationkey", as_index=False).agg(
            p100=("p100", "sum"), n_orders=("n_orders", "sum")
        )
        g["revenue"] = (g["p100"] / 100.0).astype("float64")  # exact cents
        g["n_orders"] = g["n_orders"].astype("int64")
        # join-side null padding upcasts the key to float64 — restore int
        g["c_nationkey"] = g["c_nationkey"].astype("int64")
        return g[["c_nationkey", "revenue", "n_orders"]]

    df = two_phase(joined, partial, final)
    return df.sort_values("c_nationkey").reset_index(drop=True)


CUSTOMER_NATION_REVENUE_SQL = """
SELECT c_nationkey, CAST(round(sum(CAST(o_totalprice AS DECIMAL(18,2))), 2) AS DOUBLE) AS revenue,
       count(*) AS n_orders
FROM customer JOIN orders ON c_custkey = o_custkey
GROUP BY c_nationkey ORDER BY c_nationkey
"""


def sk_kll_weighted_nchars(sf_dir: str):
    """Weighted KLL quantiles of n_chars fed as per-batch (value, count)
    histograms — the reference's weighted insert(key, count) semantics
    (src/qcore.c:201) end to end: each batch pre-aggregates with Arrow
    value_counts, the builder does ONE weighted update per block via
    ``SketchSpec(weight_column=...)``, and the distributed merge is
    unchanged.  Estimates carry the same KLL rank guarantee as the
    unweighted stream (asserted in tests/test_round2.py)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def to_hist(batch: pa.Table) -> pa.Table:
        vc = batch["n_chars"].value_counts()
        return pa.table(
            {
                "v": vc.field("values").cast(pa.int64()),
                "w": vc.field("counts").cast(pa.int64()),
            }
        )

    hist = ds.map_batches(to_hist, batch_format="pyarrow")
    rows = build_sketches(
        hist, [SketchSpec("nchars_kll_w", "v", "kll", {"k": 256}, weight_column="w")]
    )
    sk = collect_sketches(merge_grouped(rows))[("nchars_kll_w", "")]
    ps = [0.5, 0.9, 0.99]
    return pd.DataFrame(
        {"p": ps, "value": [round(float(sk.quantile(p)), 1) for p in ps], "n": int(sk.n)}
    )


def orders_without_lineitems(sf_dir: str, num_buckets: int | None = None):
    """Anti-join: orders with no lineitem rows, via the bucketed hash
    join's existence path (``how="anti"`` → pyarrow left-anti inside each
    co-partitioned bucket; the probe side ships only its distinct keys
    per bucket, so the fact-sized right side contributes key bytes, not
    rows)."""
    from q_digest_ray.stages.join import bucketed_join

    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"])
    B = num_buckets or derive_buckets(
        size_bytes=(orders.size_bytes() or 0) + (li.size_bytes() or 0)
    )
    out = bucketed_join(
        orders, li, on="o_orderkey", right_on="l_orderkey", num_buckets=B, how="anti"
    ).to_pandas()
    if out.empty:  # an all-empty Dataset drops its schema through to_pandas
        out = pd.DataFrame({"o_orderkey": pd.Series(dtype="int64")})
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


ORDERS_WITHOUT_LINEITEMS_SQL = """
SELECT o_orderkey FROM orders
WHERE NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)
ORDER BY o_orderkey
"""


def distinct_users_by_type(sf_dir: str, num_buckets: int | None = None):
    """EXACT grouped distinct count (the oracle for sk_hll_distinct_users'
    approximate cousin): per-batch distinct (event_type, user_id) pairs,
    hash-bucketed BY USER so equal users co-locate, per-bucket distinct →
    per-type counts, exact sum across buckets (each user counts in exactly
    one bucket).  Shuffle volume is bounded by distinct pairs per batch,
    not rows."""
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["event_type", "user_id"]).aggregate([])  # distinct
        bucket = (hash64(t["user_id"]) % np.uint64(B)).astype(np.int32)
        return t.append_column("bucket", pa.array(bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).agg(n_users=("user_id", "size"))
        return out

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = df.groupby("event_type", as_index=False).agg(n_users=("n_users", "sum"))
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


DISTINCT_USERS_BY_TYPE_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def nchars_quantiles_by_lang(sf_dir: str):
    """EXACT grouped quantiles via a distributed (lang, value)-counts
    histogram (the grouped twin of exact_quantiles_nchars): partial
    volume is distinct (lang, n_chars) pairs per batch — bounded by value
    cardinality, not rows — and the final per-lang cumsum+rank runs over
    the tiny combined histogram."""
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return g.select(["lang", "n_chars", "n_chars_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            g = g.groupby("n_chars", as_index=False).agg(
                cnt=("n_chars_count", "sum")
            ).sort_values("n_chars")
            vals = g["n_chars"].to_numpy()
            csum = g["cnt"].to_numpy().cumsum()
            n = int(csum[-1])
            row = {"lang": lang}
            for p, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                rank = int(np.ceil(p * n))  # DuckDB quantile_disc, 1-based
                row[name] = int(vals[np.searchsorted(csum, rank, side="left")])
            rows.append(row)
        return pd.DataFrame(rows, columns=["lang", "p50", "p90", "p99"])

    df = two_phase(ds, partial, final)
    return df.sort_values("lang").reset_index(drop=True)


NCHARS_QUANTILES_BY_LANG_SQL = """
SELECT lang, quantile_disc(n_chars, 0.5) AS p50,
       quantile_disc(n_chars, 0.9) AS p90,
       quantile_disc(n_chars, 0.99) AS p99
FROM documents GROUP BY lang ORDER BY lang
"""


def top_docs_per_lang(sf_dir: str, k: int = 3):
    """Groupwise top-k (the window-function shape): the k longest docs per
    lang, ties broken by doc_id asc.  Per-batch per-lang top-k prune keeps
    the partial volume at langs x k x blocks rows; the final combine
    re-ranks the tiny union — no shuffle, same two-phase skeleton as
    every aggregate."""
    ds = read_table(sf_dir, "documents", columns=["lang", "doc_id", "n_chars"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        return df.groupby("lang", sort=False).head(k)

    def partial(batch: pa.Table) -> pd.DataFrame:
        return topk(
            pd.DataFrame(
                {
                    "lang": batch["lang"].to_pandas(),
                    "doc_id": batch["doc_id"].to_pandas(),
                    "n_chars": batch["n_chars"].to_pandas(),
                }
            )
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = topk(df)
        out["rn"] = out.groupby("lang", sort=False).cumcount() + 1
        return out[["lang", "rn", "doc_id", "n_chars"]]

    df = two_phase(ds, partial, final)
    for c in ("rn", "doc_id", "n_chars"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["lang", "rn"]).reset_index(drop=True)


TOP_DOCS_PER_LANG_SQL = """
SELECT lang, rn, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= 3 ORDER BY lang, rn
"""


def top_terms_per_lang(sf_dir: str, k: int = 5, num_buckets: int | None = None):
    """Vocabulary / token-frequency operator (the tokenizer-training
    shape): top-k whitespace tokens per lang by exact global count.

    Scale shape: per-batch vectorized (lang, token) counts (Arrow
    group_by) → hash-bucket BY TOKEN so each token's total lands in one
    bucket → per-bucket exact sums + bucket-local per-lang top-k → final
    merge of B x langs x k candidate rows.  Correct because a global
    top-k token's full count lives in exactly one bucket, so it appears
    in that bucket's local top-k; the final stage only re-ranks
    candidates.  Vocabulary never aggregates in one task."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])
    B = num_buckets or derive_buckets(ds)

    def partial(batch: pa.Table) -> pa.Table:
        # null text yields no tokens (same as SQL unnest of NULL); null
        # lang rows are excluded too (a real pipeline labels lang first —
        # pandas groupby in per_bucket would drop the NULL key silently,
        # so make the exclusion explicit here)
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        # RE2 '\s+' (ASCII whitespace), the SAME regex engine + pattern the
        # DuckDB oracle's string_split_regex uses — Arrow's
        # utf8_split_whitespace splits on UNICODE whitespace (U+00A0 etc.)
        # and would silently diverge on non-ASCII-spaced text (r3 ADVICE)
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()  # ChunkedArray.flatten returns a list
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        lang = np.repeat(
            batch["lang"].to_numpy(zero_copy_only=False), n_tok
        )
        flat = toks.flatten()
        t = pa.table({"lang": pa.array(lang), "token": flat})
        t = t.filter(pc.not_equal(t["token"], pa.scalar("")))
        g = t.group_by(["lang", "token"]).aggregate([("token", "count")])
        bucket = (hash64(g["token"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "lang": g["lang"],
                "token": g["token"],
                "cnt": g["token_count"].cast(pa.int64()),
                "bucket": pa.array(bucket),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["lang", "token"], as_index=False, sort=False).agg(
            cnt=("cnt", "sum")
        )
        s = s.sort_values(["lang", "cnt", "token"], ascending=[True, False, True])
        return s.groupby("lang", sort=False).head(k)

    cand = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()  # <= B x langs x k tiny candidate rows
    )
    out = cand.sort_values(["lang", "cnt", "token"], ascending=[True, False, True])
    out = out.groupby("lang", sort=False).head(k)
    out["rn"] = out.groupby("lang", sort=False).cumcount() + 1
    out["cnt"] = out["cnt"].astype("int64")
    out["rn"] = out["rn"].astype("int64")
    return (
        out[["lang", "rn", "token", "cnt"]]
        .sort_values(["lang", "rn"])
        .reset_index(drop=True)
    )


TOP_TERMS_PER_LANG_SQL = r"""
SELECT lang, rn, token, cnt FROM (
  SELECT lang, token, cnt,
         row_number() OVER (PARTITION BY lang ORDER BY cnt DESC, token) AS rn
  FROM (
    SELECT lang, t.token AS token, count(*) AS cnt
    FROM (SELECT lang, string_split_regex(lower(text), '\s+') AS toks FROM documents),
         unnest(toks) AS t(token)
    WHERE t.token <> ''
    GROUP BY lang, t.token
  )
) WHERE rn <= 5 ORDER BY lang, rn
"""


def cross_source_contamination(sf_dir: str, num_buckets: int | None = None):
    """Train/test decontamination shape: how many distinct texts sources
    share pairwise (exact set intersection by 128-bit content key).

    Per-batch distinct (key, source) pairs → key-hash buckets co-locate
    equal texts → each bucket intersects its per-source key sets
    (vectorized lexsort walk) → per-(source pair) counts sum exactly.
    Shuffle volume is ~24 B per distinct (text, source), never the texts."""
    ds = read_table(sf_dir, "documents", columns=["text", "source"])
    B = num_buckets or derive_buckets(ds)

    def to_keys(batch: pa.Table) -> pa.Table:
        from q_digest_ray.functions.hashing import content_key128

        h1, h2, bucket = content_key128(batch["text"], B)
        t = pa.table(
            {
                "h": pa.array(h1),
                "h2": pa.array(h2),
                "bucket": pa.array(bucket),
                "source": batch["source"],
            }
        )
        return t.group_by(["h", "h2", "bucket", "source"]).aggregate([])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # keys appearing under >1 source: emit one row per source PAIR.
        # Fully vectorized (lexsort + repeat/combinatorial indexing): a
        # bucket holds one row per distinct (text, source) — a per-key
        # Python loop here would be O(distinct texts) group bodies, the
        # exact anti-pattern the perf rules prohibit (r3 ADVICE item 1).
        # The empty result is a typed Arrow table: pandas has only object
        # dtype for these strings, and an object-dtype 0-row block makes
        # Ray's block size estimate log a `vectorize` error per block.
        empty = pa.table(
            {
                "source_a": pa.array([], pa.string()),
                "source_b": pa.array([], pa.string()),
                "n_shared": pa.array([], pa.int64()),
            }
        )
        d = g.drop_duplicates(["h", "h2", "source"])
        if len(d) < 2:
            return empty
        h = d["h"].to_numpy()
        h2 = d["h2"].to_numpy()
        codes, uniques = pd.factorize(d["source"], sort=True)
        # equal keys adjacent; sources ascend within a key → a < b by position
        order = np.lexsort((codes, h2, h))
        h, h2, codes = h[order], h2[order], codes[order]
        n = len(h)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = (h[1:] != h[:-1]) | (h2[1:] != h2[:-1])
        starts = np.flatnonzero(new_key)
        sizes = np.diff(np.append(starts, n))
        # local = 0-based position within the key's run; row i at local q
        # pairs as "b" with the q earlier rows i-q..i-1 of its key
        local = np.arange(n) - np.repeat(starts, sizes)
        total = int(local.sum())
        if total == 0:
            return empty
        b_idx = np.repeat(np.arange(n), local)
        cum = np.concatenate(([0], np.cumsum(local)[:-1]))
        offs = np.arange(total) - np.repeat(cum, local)
        a_idx = np.repeat(np.arange(n) - local, local) + offs
        pair_code = codes[a_idx].astype(np.int64) * len(uniques) + codes[b_idx]
        pc_vals, pc_counts = np.unique(pair_code, return_counts=True)
        return pd.DataFrame(
            {
                "source_a": uniques[pc_vals // len(uniques)],
                "source_b": uniques[pc_vals % len(uniques)],
                "n_shared": pc_counts.astype(np.int64),
            }
        )

    df = (
        ds.map_batches(to_keys, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    if df.empty:
        # typed empty frame: a bare columns=[...] frame is all-object and
        # dtype-mismatches the oracle's int64 count on zero-row corpora
        return pd.DataFrame(
            {
                "source_a": pd.Series(dtype="object"),
                "source_b": pd.Series(dtype="object"),
                "n_shared": pd.Series(dtype="int64"),
            }
        )
    out = df.groupby(["source_a", "source_b"], as_index=False).agg(
        n_shared=("n_shared", "sum")
    )
    out["n_shared"] = out["n_shared"].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


CROSS_SOURCE_CONTAMINATION_SQL = """
SELECT a.source AS source_a, b.source AS source_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM (SELECT DISTINCT source, text FROM documents) a
JOIN (SELECT DISTINCT source, text FROM documents) b
  ON a.text = b.text AND a.source < b.source
GROUP BY a.source, b.source ORDER BY source_a, source_b
"""


def docs_vs_lang_median(sf_dir: str):
    """Aggregate → broadcast → enrich (the "tag rows against their group's
    statistic" pattern): compute each lang's EXACT median n_chars via the
    distributed value-counts histogram, ray.put the tiny per-lang medians
    once, then a second streaming pass counts each lang's docs above its
    median — no shuffle in either pass; the group statistic rides the
    object store, not a join."""
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])
    # the grouped histogram quantile is exactly nchars_quantiles_by_lang's
    # machinery — reuse it and keep the median column
    medians = nchars_quantiles_by_lang(sf_dir)[["lang", "p50"]]
    med_ref = ray.put(dict(zip(medians["lang"], medians["p50"])))

    # plain-function tag (zero-copy local ray.get; no pool spin-up)
    def tagger(batch: pa.Table) -> pd.DataFrame:
        med = ray.get(med_ref)
        lang = pd.Series(batch["lang"].to_numpy(zero_copy_only=False))
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        thresh = lang.map(med).to_numpy(dtype=np.int64)
        df = pd.DataFrame({"lang": lang, "above": (nc > thresh).astype(np.int64)})
        return df.groupby("lang", as_index=False).agg(
            n_above=("above", "sum"), n_docs=("above", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_above=("n_above", "sum"), n_docs=("n_docs", "sum")
        )
        g["n_above"] = g["n_above"].astype("int64")
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    out = two_phase(ds, tagger, final)
    out = out.merge(medians, on="lang")
    out["p50"] = out["p50"].astype("int64")
    return (
        out[["lang", "p50", "n_above", "n_docs"]]
        .sort_values("lang")
        .reset_index(drop=True)
    )


DOCS_VS_LANG_MEDIAN_SQL = """
SELECT d.lang, CAST(m.p50 AS BIGINT) AS p50,
       CAST(sum(CASE WHEN d.n_chars > m.p50 THEN 1 ELSE 0 END) AS BIGINT) AS n_above,
       count(*) AS n_docs
FROM documents d
JOIN (SELECT lang, quantile_disc(n_chars, 0.5) AS p50
      FROM documents GROUP BY lang) m USING (lang)
GROUP BY d.lang, m.p50 ORDER BY lang
"""


def sk_decile_binning(sf_dir: str):
    """Sketch-DRIVEN binning (the approximate cousin of
    docs_vs_lang_median): one pass builds a merged KLL over n_chars, its
    decile cut points broadcast via ray.put, a second streaming pass bins
    every doc — how a 100-TB pipeline assigns quantile buckets without an
    exact sort.  Rows-only (cuts are approximate); the per-bin mass is
    bound-tested in tests (each decile holds ~10% of docs within the KLL
    rank error)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])
    rows = build_sketches(
        ds, [SketchSpec("nchars_kll", "n_chars", "kll", {"k": 200})]
    )
    sk = collect_sketches(merge_grouped(rows))[("nchars_kll", "")]
    cuts = np.array(sk.quantiles([i / 10 for i in range(1, 10)]), dtype=np.float64)
    cuts_ref = ray.put(cuts)

    # plain-function binner (zero-copy local ray.get; no pool spin-up)
    def binner(batch: pa.Table) -> pd.DataFrame:
        c = ray.get(cuts_ref)
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        bins = np.searchsorted(c, nc, side="right")
        counts = np.bincount(bins, minlength=10)
        return pd.DataFrame(
            {"decile": np.arange(10, dtype=np.int64), "cnt": counts.astype(np.int64)}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("decile", as_index=False).agg(cnt=("cnt", "sum"))
        g["cnt"] = g["cnt"].astype("int64")
        return g

    out = (
        two_phase(ds, binner, final)
        .sort_values("decile")
        .reset_index(drop=True)
    )
    out["upper_cut"] = np.append(cuts, np.inf)
    return out[["decile", "upper_cut", "cnt"]]


def sk_quality_blend(sf_dir: str):
    """SIGNAL FUSION for curation (the multi-signal quality score every
    production filter ends with): two raw per-doc signals — zlib
    compressibility (ppm) and length (n_chars) — are RANK-NORMALIZED via
    percentile cuts from one merged KLL per signal (built in a single
    pass, broadcast once), then blended 50/50 into a comparable [0,1]
    score: blended = 0.5*(1 - comp_rank) + 0.5*(len_rank) — prefer
    less-compressible (information-dense) and longer docs.

    Rank normalization via sketches is THE way to fuse incommensurable
    signals at 100 TB: no global sort per signal, one KB-sized cut array
    each, and the second pass is searchsorted + arithmetic.  Output:
    per-lang n_docs, mean blended score, and docs with score >= 0.5.
    Rows-only (cuts are approximate); monotonicity and determinism
    pinned by planted tests."""
    import zlib

    ds = read_table(sf_dir, "documents", columns=["lang", "text", "n_chars"])

    def add_signals(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["text"]), pc.is_valid(batch["lang"]))
        )
        raw = [t.encode() for t in batch["text"].to_pylist()]
        nlen = np.array([max(len(b), 1) for b in raw], dtype=np.int64)
        clen = np.array([len(zlib.compress(b, 6)) for b in raw], dtype=np.int64)
        ppm = (clen * 1_000_000 + nlen // 2) // nlen
        return pa.table(
            {
                "lang": batch["lang"],
                "comp_ppm": pa.array(ppm),
                "n_chars": batch["n_chars"].cast(pa.int64()),
            }
        )

    sig = ds.map_batches(add_signals, batch_format="pyarrow", batch_size=None)
    rows = build_sketches(
        sig,
        [
            SketchSpec("comp_kll", "comp_ppm", "kll", {"k": 200}),
            SketchSpec("len_kll", "n_chars", "kll", {"k": 200}),
        ],
    )
    sk = collect_sketches(merge_grouped(rows))
    qs = [i / 100 for i in range(1, 100)]
    comp_cuts = np.array(sk[("comp_kll", "")].quantiles(qs), dtype=np.float64)
    len_cuts = np.array(sk[("len_kll", "")].quantiles(qs), dtype=np.float64)
    cuts_ref = ray.put((comp_cuts, len_cuts))

    def score(batch: pa.Table) -> pd.DataFrame:
        cc, lc = ray.get(cuts_ref)
        comp_rank = np.searchsorted(
            cc,
            batch["comp_ppm"].to_numpy(zero_copy_only=False).astype(np.float64),
            side="right",
        ).astype(np.int64)
        len_rank = np.searchsorted(
            lc,
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64),
            side="right",
        ).astype(np.int64)
        # exact-integer blend in units of 1/200: ranks are ints 0..100, so
        # partial sums merge order-free (no float accumulation anywhere)
        blended = (100 - comp_rank) + len_rank  # 0..200
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "s": blended,
                "hi": (blended >= 100).astype(np.int64),
            }
        )
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("s", "size"), sum_s=("s", "sum"), n_hi=("hi", "sum")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_s=("sum_s", "sum"), n_hi=("n_hi", "sum")
        )

    out = two_phase(sig, score, final)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_hi"] = out["n_hi"].astype("int64")
    out["mean_score"] = (out["sum_s"] / (out["n_docs"] * 200.0)).round(6)
    return (
        out.sort_values("lang")
        .reset_index(drop=True)[["lang", "n_docs", "mean_score", "n_hi"]]
    )


def sk_robust_outliers(sf_dir: str, k_mad: float = 3.0):
    """ROBUST outlier census via sketches (the median/MAD cousin of the
    exact-moment ``zscore_outliers`` — means and stddevs are themselves
    corrupted by the outliers they hunt): three cheap column passes, no
    sort — (1) KLL over event values -> median, (2) KLL over |x - median|
    (median broadcast) -> MAD, (3) count |x - median| > k*MAD.

    At 100 TB each pass is a map-only scan with O(KB) state; the exact
    equivalent needs two full sorts.  Rows-only (median/MAD approximate
    within KLL rank error); the flagged count is sanity-bounded against
    the exact median/MAD computation in tests."""
    ds = read_table(sf_dir, "events", columns=["value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({"cents": _cents(batch["value"])})

    cents_ds = ds.map_batches(to_cents, batch_format="pyarrow", batch_size=None)
    rows = build_sketches(
        cents_ds, [SketchSpec("val_kll", "cents", "kll", {"k": 200})]
    )
    med = float(collect_sketches(merge_grouped(rows))[("val_kll", "")].quantile(0.5))
    med_ref = ray.put(med)

    def absdev(batch: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        c = batch["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"adev": pa.array(np.abs(c - m))})

    rows2 = build_sketches(
        cents_ds.map_batches(absdev, batch_format="pyarrow", batch_size=None),
        [SketchSpec("adev_kll", "adev", "kll", {"k": 200})],
    )
    mad = float(
        collect_sketches(merge_grouped(rows2))[("adev_kll", "")].quantile(0.5)
    )
    thresh_ref = ray.put((med, k_mad * mad))

    def flag(batch: pa.Table) -> pd.DataFrame:
        m, t = ray.get(thresh_ref)
        c = batch["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pd.DataFrame(
            {
                "n": np.array([len(c)], dtype=np.int64),
                "n_out": np.array([int(np.sum(np.abs(c - m) > t))], np.int64),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": [df["n"].sum()], "n_out": [df["n_out"].sum()]}
        )

    out = two_phase(cents_ds, flag, final)
    return pd.DataFrame(
        {
            "median_cents": [round(med, 1)],
            "mad_cents": [round(mad, 1)],
            "k": [k_mad],
            "n": pd.Series([int(out["n"].iloc[0])], dtype="int64"),
            "n_outliers": pd.Series([int(out["n_out"].iloc[0])], dtype="int64"),
        }
    )


def sk_unigram_logprob_quality(sf_dir: str):
    """Sketch-as-MODEL scoring (the batched-inference shape): pass 1
    builds a Count-Min unigram frequency model over all tokens, pass 2
    broadcasts it once and scores every doc by its mean token surprisal
    -log2(freq/total) — the cheap perplexity-ish quality signal a curation
    pipeline uses, with the 'model' being an O(KB) mergeable sketch
    instead of a fitted LM.  Rows-only (CMS overcount shifts scores
    within its ε·n bound); output = per-lang mean surprisal."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def to_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch["text"]))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        return pa.table({"token": toks.flatten()})

    rows = build_sketches(
        ds.map_batches(to_tokens, batch_format="pyarrow"),
        [SketchSpec("tok_cms", "token", "cms", {"depth": 5, "width": 1 << 16})],
    )
    cms = collect_sketches(merge_grouped(rows))[("tok_cms", "")]
    total = max(cms.n, 1)
    cms_ref = ray.put(cms)

    # plain-function scorer (zero-copy local ray.get; no pool spin-up)
    def scorer(batch: pa.Table) -> pd.DataFrame:
        cms_model = ray.get(cms_ref)
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch["text"]))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        est = np.maximum(cms_model.query(flat), 1)
        surprisal = -np.log2(est / total)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        n_tok = offs[1:] - offs[:-1]
        # per-doc mean surprisal (empty docs excluded from the mean)
        ext = np.append(surprisal, 0.0)
        doc_sum = np.add.reduceat(ext, np.minimum(offs[:-1], len(surprisal)))
        doc_sum[n_tok == 0] = 0.0
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        keep = n_tok > 0
        df = pd.DataFrame(
            {
                "lang": lang[keep],
                "s": doc_sum[keep] / n_tok[keep],
            }
        )
        return df.groupby("lang", as_index=False).agg(s=("s", "sum"), c=("s", "size"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(s=("s", "sum"), c=("c", "sum"))
        g["mean_surprisal_bits"] = (g["s"] / g["c"]).round(4)
        g["n_docs"] = g["c"].astype("int64")
        return g[["lang", "mean_surprisal_bits", "n_docs"]]

    out = two_phase(ds, scorer, final)
    return out.sort_values("lang").reset_index(drop=True)


def sk_rank_error_by_lang(sf_dir: str):
    """The reference's exact-vs-estimate harness (SURVEY §2.1 item 29 —
    qcore's test main only printf'd the comparison) as a first-class
    DISTRIBUTED catalog query: one streaming pass builds the exact
    (lang, n_chars) value-counts histogram, one builds grouped Q-Digests;
    the driver folds both tiny results into per-(lang, p) empirical rank
    errors.  Partial volume is distinct (lang, value) pairs — bounded by
    value cardinality, never rows.  Rows-only by nature; the ε =
    log2(σ)/k bound on rank_err is asserted in tests/test_round4.py."""
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return g.select(["lang", "n_chars", "n_chars_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["lang", "n_chars"], as_index=False).agg(
            cnt=("n_chars_count", "sum")
        )

    hist = two_phase(ds, partial, final)
    rows_sk = build_sketches(
        ds,
        [
            SketchSpec(
                "q", "n_chars", "qdigest", {"k": 256, "universe_bits": 16},
                group_by="lang",
            )
        ],
    )
    sks = collect_sketches(merge_grouped(rows_sk))
    out = []
    for (_, lang), sk in sorted(sks.items()):
        g = hist[hist["lang"] == lang].sort_values("n_chars")
        vals = g["n_chars"].to_numpy()
        csum = g["cnt"].to_numpy().cumsum()
        n = int(csum[-1])
        for p in (0.5, 0.9, 0.99):
            est = float(sk.quantile(p))
            # ceil rank = quantile_disc convention, so `exact` agrees with
            # the oracle-backed nchars_quantiles_by_lang (the sketch itself
            # uses the C truncated rank — the ≤1/n convention gap is well
            # inside the ε bound and included in rank_err honestly)
            target = int(np.ceil(p * n))
            exact = int(vals[np.searchsorted(csum, max(target, 1), side="left")])
            # empirical rank interval of the estimate: [#values < est,
            # #values <= est]; error = distance from the target to it
            i_le = np.searchsorted(vals, est, side="right")
            i_lt = np.searchsorted(vals, est, side="left")
            cnt_le = int(csum[i_le - 1]) if i_le > 0 else 0
            cnt_lt = int(csum[i_lt - 1]) if i_lt > 0 else 0
            if cnt_lt <= target <= cnt_le:
                err = 0.0
            else:
                err = min(abs(target - cnt_lt), abs(target - cnt_le)) / n
            out.append(
                {
                    "lang": lang,
                    "p": p,
                    "exact": exact,
                    "estimate": est,
                    "rank_err": round(err, 5),
                }
            )
    df = pd.DataFrame(out)
    df["exact"] = df["exact"].astype("int64")
    return df.sort_values(["lang", "p"]).reset_index(drop=True)


def sk_source_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary (distinct-token set) Jaccard between sources
    via GROUPED KMV sketches + mergeable set ops: tokens flatten per
    batch, one KMV per source builds distributed, the driver intersects
    the tiny sketches pairwise (kmv.jaccard_estimate — Beyer et al.
    set-op estimators).  The 'how much do my crawl snapshots overlap'
    primitive, with O(sources · k) driver state however large the
    corpus.  Rows-only (estimates; bound-tested vs exact in tests)."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def to_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        src = np.repeat(batch["source"].to_numpy(zero_copy_only=False), n_tok)
        t = pa.table({"source": pa.array(src), "token": toks.flatten()})
        return t.filter(pc.not_equal(t["token"], pa.scalar("")))

    rows = build_sketches(
        ds.map_batches(to_tokens, batch_format="pyarrow"),
        [SketchSpec("vocab", "token", "kmv", {"k": 512}, group_by="source")],
    )
    sks = collect_sketches(merge_grouped(rows))
    sources = sorted(key for _, key in sks.keys())
    out = []
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            sa, sb = sks[("vocab", a)], sks[("vocab", b)]
            out.append(
                {
                    "source_a": a,
                    "source_b": b,
                    "jaccard_est": round(sa.jaccard_estimate(sb), 4),
                    "distinct_a_est": round(sa.estimate(), 1),
                    "distinct_b_est": round(sb.estimate(), 1),
                }
            )
    return pd.DataFrame(out).sort_values(["source_a", "source_b"]).reset_index(
        drop=True
    )


def sk_sample_users(sf_dir: str):
    """Deterministic mergeable uniform sample of 64 distinct user ids
    (sketches/sample.py — bottom-k by value hash, so the sample is
    layout/partition/merge-order invariant, unlike reservoir sampling).
    Rows-only but fully deterministic: the same corpus always yields the
    same 64 ids in the same priority order."""
    ds = read_table(sf_dir, "events", columns=["user_id"])
    rows = build_sketches(
        ds, [SketchSpec("users_sample", "user_id", "sample", {"k": 64})]
    )
    sk = collect_sketches(merge_grouped(rows))[("users_sample", "")]
    vals = sk.sample()
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(vals) + 1, dtype="int64"),
            "user_id": vals.astype("int64"),
        }
    )


def video_shot_stats(
    sf_dir: str, n_videos: int = 200, n_frames: int = 60, thresh: float = 40.0
):
    """VIDEO shot-boundary detection (the frame-level structure pass a
    video-corpus pipeline runs after frame sampling): per video, inter-
    frame RMS pixel deltas thresholded into cut points — a REAL numpy
    kernel over pixel sequences (the stage downstream of
    FrameSampleStage).  Videos are synthesized in-pipeline (per-id
    seeded): three 20-frame scenes with intra-scene noise sigma=3, so every
    video plants cuts at frames 20 and 40 that the detector must recover
    through the noise (measured margin ~25x: intra-scene delta ~4 vs cut
    delta ~105).

    One map-only pass; each block emits a single summary row (videos,
    cuts, expected-cut hits, mean shot length) — nothing per-frame ever
    leaves a task.  Rows-only; exact planted recovery asserted in tests."""
    import ray.data

    S, F = 16, n_frames

    def analyze(batch: pa.Table) -> pd.DataFrame:
        ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_vid = len(ids)
        total_cuts = 0
        exact_hits = 0
        sum_shot_len = 0.0
        for mid in ids:  # per-VIDEO loop; the per-frame math is vectorized
            frames = np.empty((F, S, S))
            for seg in range(3):
                rng = np.random.default_rng(int(mid) * 10 + seg)
                base = rng.integers(0, 256, (S, S)).astype(np.float64)
                lo, hi = seg * (F // 3), (seg + 1) * (F // 3)
                nr = np.random.default_rng(99_000 + int(mid) * 100 + seg)
                noise = nr.normal(0, 3.0, (hi - lo, S, S))
                frames[lo:hi] = np.clip(base[None, :, :] + noise, 0, 255)
            deltas = np.sqrt(((frames[1:] - frames[:-1]) ** 2).mean(axis=(1, 2)))
            cuts = np.nonzero(deltas > thresh)[0] + 1
            total_cuts += len(cuts)
            if list(cuts) == [F // 3, 2 * (F // 3)]:
                exact_hits += 1
            sum_shot_len += F / (len(cuts) + 1)
        return pd.DataFrame(
            {
                "n_videos": np.array([n_vid], np.int64),
                "n_cuts": np.array([total_cuts], np.int64),
                "exact_recoveries": np.array([exact_hits], np.int64),
                "sum_shot_len": np.array([sum_shot_len], np.float64),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_videos": [df["n_videos"].sum()],
                "n_cuts": [df["n_cuts"].sum()],
                "exact_recoveries": [df["exact_recoveries"].sum()],
                "sum_shot_len": [df["sum_shot_len"].sum()],
            }
        )

    ds = ray.data.range(n_videos, override_num_blocks=8)
    out = two_phase(ds, analyze, final)
    r = out.iloc[0]
    return pd.DataFrame(
        {
            "n_videos": pd.Series([int(r["n_videos"])], dtype="int64"),
            "n_cuts": pd.Series([int(r["n_cuts"])], dtype="int64"),
            "exact_recoveries": pd.Series(
                [int(r["exact_recoveries"])], dtype="int64"
            ),
            "mean_shot_len": [
                round(float(r["sum_shot_len"]) / max(int(r["n_videos"]), 1), 4)
            ],
        }
    )


def audio_fingerprint_dups(sf_dir: str, n_media: int = 1000):
    """AUDIO near-dup detection through the REAL stdlib-WAV DSP kernel
    (the acoustic-fingerprint shape): per-id WAV sines synthesized
    in-pipeline (freq = 100 + (id % 20)*50 — 20 planted frequency
    families), featurized by AudioFeatureStage tasks, and
    fingerprinted by the SPECTRAL CENTROID quantized to the 50 Hz grid.

    The family-purity check is itself distributed and exact: each partial
    carries an OR-reduced bitmask of (id % 20) per fingerprint, so the
    driver can assert every fingerprint contains exactly one planted
    family (popcount 1) from fingerprint x 1 int rows — no member lists
    ever collect.  Rows-only; exact family recovery asserted in tests."""
    import ray.data

    from q_digest_ray.stages.multimodal import AudioFeatureStage, synth_media_batch

    ds = ray.data.range(n_media, override_num_blocks=8).map_batches(
        lambda b: synth_media_batch(b, seed=7), batch_format="pyarrow"
    )
    feats = ds.map_batches(AudioFeatureStage(), batch_format="pyarrow", batch_size=256)

    def partial(batch: pa.Table) -> pd.DataFrame:
        lst = batch["features"].combine_chunks()
        n = len(lst)
        if n == 0:
            return pd.DataFrame(
                {
                    "fp": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                    "fam_mask": pd.Series([], dtype="int64"),
                }
            )
        vals = lst.flatten().to_numpy(zero_copy_only=False).reshape(n, -1)
        centroid = vals[:, 2]
        fp = (np.round(centroid / 50.0) * 50).astype(np.int64)
        ids = batch["media_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.int64(1) << (ids % 20)
        df = pd.DataFrame({"fp": fp, "cnt": np.ones(n, np.int64), "fam_mask": mask})
        return df.groupby("fp", as_index=False).agg(
            cnt=("cnt", "sum"), fam_mask=("fam_mask", lambda s: int(np.bitwise_or.reduce(s)))
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("fp", as_index=False).agg(
            cnt=("cnt", "sum"),
            fam_mask=("fam_mask", lambda s: int(np.bitwise_or.reduce(s))),
        )

    g = two_phase(feats, partial, final)
    popcounts = np.array([bin(int(m)).count("1") for m in g["fam_mask"]])
    return pd.DataFrame(
        {
            "n_audio": pd.Series([int(g["cnt"].sum())], dtype="int64"),
            "n_fingerprints": pd.Series([len(g)], dtype="int64"),
            "max_family": pd.Series([int(g["cnt"].max()) if len(g) else 0], dtype="int64"),
            "all_pure": pd.Series(
                [int(bool(len(g)) and bool((popcounts == 1).all()))], dtype="int64"
            ),
        }
    )


def media_phash_dups(
    sf_dir: str, n_media: int = 2000, max_hamming: int = 7, size: int = 32
):
    """MULTIMODAL NEAR-DUP detection via a REAL perceptual-hash kernel
    (pHash: resize -> 2D DCT-II -> top-left 8x8 AC coefficients -> median
    threshold -> 64-bit hash; numpy-only, no codec needed because it runs
    on PIXELS — the stage downstream of ImageDecodeStage).  Synthetic
    grayscale frames are generated INSIDE map_batches (per-media_id
    seeded): ids sharing ``id // 4`` share a base pattern with per-id
    noise, so every 4-id family is a planted near-dup group the hash must
    recover THROUGH the noise.

    Distribution is the simhash pigeonhole scheme: 8 chunks of 8 bits —
    hamming <= 7 guarantees >= 1 equal chunk — so candidate pairs emit
    inside (chunk, value)-keyed groups with vectorized popcount verify;
    the driver sees only verified pairs.  Output: corpus/pair/group
    census.  Rows-only; the planted family structure is asserted in
    tests (exact recovery: 4-member groups, no cross-family merges)."""
    import ray.data

    from q_digest_ray.stages.dedup import _union_groups, hamming64

    S = size
    # orthonormal DCT-II matrix, broadcast once
    j = np.arange(S)
    D = np.sqrt(2.0 / S) * np.cos(np.pi * (2 * j[None, :] + 1) * j[:, None] / (2 * S))
    D[0] /= np.sqrt(2.0)
    d_ref = ray.put(D)

    def synth_and_hash(batch: pa.Table) -> pa.Table:
        Dm = ray.get(d_ref)
        ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {"media_id": pa.array([], pa.int64()), "phash": pa.array([], pa.int64())}
            )
        frames = np.empty((len(ids), S, S), dtype=np.float64)
        for i, mid in enumerate(ids):  # per-row rng: synthesis, not the kernel
            base_rng = np.random.default_rng(int(mid) // 4)
            base = base_rng.integers(0, 256, (S, S)).astype(np.float64)
            noise_rng = np.random.default_rng(10_000 + int(mid))
            frames[i] = np.clip(base + noise_rng.normal(0, 4.0, (S, S)), 0, 255)
        # batched 2D DCT-II: D @ F @ D.T for every frame in two tensordots
        coef = np.einsum("ij,njk,lk->nil", Dm, frames, Dm, optimize=True)
        block = coef[:, :8, :8].reshape(len(ids), 64)
        ac = np.delete(block, 0, axis=1)  # drop DC term
        med = np.median(ac, axis=1, keepdims=True)
        bits = (ac > med).astype(np.uint64)  # 63 bits
        weights = np.uint64(1) << np.arange(63, dtype=np.uint64)
        ph = (bits * weights[None, :]).sum(axis=1, dtype=np.uint64)
        return pa.table(
            {
                "media_id": pa.array(ids),
                "phash": pa.array(ph.view(np.int64)),
            }
        )

    hashed = ray.data.range(n_media, override_num_blocks=8).map_batches(
        synth_and_hash, batch_format="pyarrow", batch_size=None
    )

    def emit_chunks(batch: pa.Table) -> pa.Table:
        ph = batch["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        n = len(ids)
        chunk_idx = np.repeat(np.arange(8, dtype=np.int64), n)
        ph_t = np.tile(ph, 8)
        ids_t = np.tile(ids, 8)
        vals = (ph_t >> (chunk_idx.astype(np.uint64) * np.uint64(8))) & np.uint64(0xFF)
        key = chunk_idx * 256 + vals.astype(np.int64)
        return pa.table(
            {
                "key": pa.array(key),
                "media_id": pa.array(ids_t),
                "phash": pa.array(ph_t.view(np.int64)),
            }
        )

    def pairs_in_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("media_id").sort_values("media_id")
        ids = g["media_id"].to_numpy(dtype=np.int64)
        ph = g["phash"].to_numpy(dtype=np.int64).view(np.uint64)
        m = len(ids)
        if m < 2:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
            )
        ai, bi = np.triu_indices(m, k=1)
        ham = hamming64(ph[ai], ph[bi])
        ok = ham <= max_hamming
        return pd.DataFrame({"a": ids[ai[ok]], "b": ids[bi[ok]]})

    pairs = (
        hashed.map_batches(emit_chunks, batch_format="pyarrow")
        .groupby("key")
        .map_groups(pairs_in_group, batch_format="pandas")
        .to_pandas()
        .drop_duplicates()  # a pair can match in several chunks
    )
    roots = _union_groups(list(zip(pairs["a"], pairs["b"])))
    from collections import Counter

    sizes = Counter(roots.values())
    return pd.DataFrame(
        {
            "n_media": pd.Series([n_media], dtype="int64"),
            "n_dup_pairs": pd.Series([len(pairs)], dtype="int64"),
            "n_groups": pd.Series([len(sizes)], dtype="int64"),
            "max_group": pd.Series(
                [max(sizes.values()) if sizes else 0], dtype="int64"
            ),
            "docs_in_groups": pd.Series([len(roots)], dtype="int64"),
        }
    )


def media_features(sf_dir: str, n_media: int = 1000):
    """Multimodal pipeline through the driver gate (rows-only), fully
    IN-pipeline end to end (r3 VERDICT item 2 replaced a driver WAV loop
    + full-feature ``to_pandas``): synthesis runs inside ``map_batches``
    over ``ray.data.range`` (per-media_id seeded, block-layout invariant;
    audio rows are REAL WAV sines so the stdlib-DSP kernel runs
    distributed) → image + audio feature stages (tasks) → per-batch
    PARTIAL (n, sum_norm) rows → driver folds ~2 x num_batches scalars.
    The driver never holds a feature matrix, so the shape survives any
    corpus size.  Input-independent (the driver tables carry no media
    column); ``sf_dir`` is accepted for catalog-signature uniformity."""
    import ray.data

    from q_digest_ray.stages.multimodal import (
        AudioFeatureStage,
        ImageDecodeStage,
        synth_media_batch,
    )

    ds = ray.data.range(n_media, override_num_blocks=8).map_batches(
        lambda b: synth_media_batch(b, seed=7), batch_format="pyarrow"
    )

    def norm_partial(tag: str, dim: int):
        def p(batch: pa.Table) -> pd.DataFrame:
            lst = batch["features"].combine_chunks()
            nrows = len(lst)
            if nrows == 0:
                return pd.DataFrame(
                    {
                        "media_type": [tag],
                        "n": np.array([0], dtype=np.int64),
                        "feature_dim": np.array([dim], dtype=np.int64),
                        "sum_norm": np.array([0.0], dtype=np.float64),
                    }
                )
            vals = lst.flatten().to_numpy(zero_copy_only=False)
            offs = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            offs = offs - offs[0]
            sq = np.append(vals * vals, 0.0)
            row_ss = np.add.reduceat(sq, np.minimum(offs[:-1], len(vals)))
            row_ss[offs[1:] == offs[:-1]] = 0.0
            return pd.DataFrame(
                {
                    "media_type": [tag],
                    "n": np.array([nrows], dtype=np.int64),
                    "feature_dim": np.array([dim], dtype=np.int64),
                    "sum_norm": np.array(
                        [float(np.sqrt(row_ss).sum())], dtype=np.float64
                    ),
                }
            )

        return p

    stages = [
        ("image", ImageDecodeStage),
        ("audio", AudioFeatureStage),
    ]
    parts = None
    for tag, stage in stages:
        branch = ds.map_batches(
            stage(), batch_format="pyarrow", batch_size=256
        ).map_batches(
            norm_partial(tag, stage.FEATURE_DIM),
            batch_format="pyarrow",
            batch_size=None,
        )
        parts = branch if parts is None else parts.union(branch)
    df = parts.to_pandas()  # tiny: one partial row per feature batch
    g = df.groupby(["media_type", "feature_dim"], as_index=False).agg(
        n=("n", "sum"), sum_norm=("sum_norm", "sum")
    )
    g["mean_norm"] = (g["sum_norm"] / g["n"].clip(lower=1)).round(4)
    g["n"] = g["n"].astype("int64")
    g["feature_dim"] = g["feature_dim"].astype("int64")
    order = {"image": 0, "audio": 1}
    g = g.sort_values("media_type", key=lambda s: s.map(order))
    return g[["media_type", "n", "feature_dim", "mean_norm"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# round-4 second slate: statistical moments, outer-join histogram, Q3-style
# multiway join, pivot, entropy, lead/lag gaps, set intersection, mode
# ---------------------------------------------------------------------------


def corr_quantity_price(sf_dir: str):
    """Distributed second-moment statistics (corr / stddev_samp /
    covar_samp) per l_returnflag — the classic mergeable-moments UDAF: each
    batch contributes EXACT integer sums (n, Σx, Σy, Σx², Σy², Σxy) over
    cent-scaled values, partials merge by addition (commutative/associative
    like every sketch in this repo), and the closed-form moments are
    evaluated once on the combined exact sums.  Exactness beats the usual
    Welford/Chan merge here: the inputs are 2-decimal money, so integer
    sums are lossless at any block count, and the only float ops are the
    final formula — bit-stable under any partitioning.

    Overflow audit: Σy² per batch ≤ 65536 rows × (1.05e7 cents)² ≈ 7.2e18
    < 2^63; the cross-block re-sum uses Python ints (exact_sum)."""

    import math

    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"]
    )
    from q_digest_ray.functions.fixedpoint import (
        duckdb_round_double,
        exact_sum,
        scaled_int64,
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        x = scaled_int64(batch["l_quantity"].to_numpy(zero_copy_only=False), 2)
        y = scaled_int64(batch["l_extendedprice"].to_numpy(zero_copy_only=False), 2)
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "n": np.ones(len(x), np.int64),
                "sx": x,
                "sy": y,
                "sxx": x * x,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        return df.groupby("l_returnflag", as_index=False).sum()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for rf, g in df.groupby("l_returnflag"):
            n = exact_sum(g["n"])
            sx, sy = exact_sum(g["sx"]), exact_sum(g["sy"])
            sxx, syy, sxy = exact_sum(g["sxx"]), exact_sum(g["syy"]), exact_sum(g["sxy"])
            vx = n * sxx - sx * sx  # exact ints: no cancellation anywhere
            vy = n * syy - sy * sy
            cxy = n * sxy - sx * sy
            corr = float(cxy) / math.sqrt(float(vx) * float(vy))
            # de-scale cents: stddev/100, covar/10^4
            sd_qty = math.sqrt(float(vx) / (n * (n - 1))) / 100.0
            cov_qp = float(cxy) / (n * (n - 1)) / 1e4
            rows.append(
                {
                    "l_returnflag": rf,
                    "n": n,
                    "corr_qp": duckdb_round_double(corr, 6),
                    "sd_qty": duckdb_round_double(sd_qty, 6),
                    "covar_qp": duckdb_round_double(cov_qp, 4),
                }
            )
        return pd.DataFrame(rows)

    df = two_phase(ds, partial, final)
    df["n"] = df["n"].astype("int64")
    return df.sort_values("l_returnflag").reset_index(drop=True)


CORR_QUANTITY_PRICE_SQL = """
SELECT l_returnflag, count(*) AS n,
       round(corr(l_quantity, l_extendedprice), 6) AS corr_qp,
       round(stddev_samp(l_quantity), 6) AS sd_qty,
       round(covar_samp(l_quantity, l_extendedprice), 4) AS covar_qp
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def cust_order_count_dist(sf_dir: str, num_buckets: int | None = None):
    """LEFT OUTER join as a distribution: orders-per-customer histogram
    INCLUDING zero-order customers.  Neither side is broadcast: orders
    pre-count per custkey inside each batch (the combiner — shuffle volume
    is distinct custkeys per batch, not order rows), both sides hash-bucket
    on the customer key, and each bucket resolves its own customers against
    its own counts (a custkey lives in exactly one bucket).  The per-bucket
    output is already a histogram, so the final combine sums tiny
    (n_orders → n_customers) rows."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])
    B = num_buckets or derive_buckets(
        size_bytes=(cust.size_bytes() or 0) + (orders.size_bytes() or 0)
    )

    def tag_cust(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        b = (hash64(batch["c_custkey"]) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "bucket": pa.array(b),
                "custkey": batch["c_custkey"],
                "cnt": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["o_custkey"]).aggregate([("o_custkey", "count")])
        keys = t["o_custkey"]
        b = (hash64(keys) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "bucket": pa.array(b),
                "custkey": keys,
                "cnt": t["o_custkey_count"].cast(pa.int64()),
                "side": pa.array(np.full(t.num_rows, 1, np.int8)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        oc = g[g["side"] == 1].groupby("custkey")["cnt"].sum()
        per_cust = (
            g.loc[g["side"] == 0, "custkey"].map(oc).fillna(0).astype("int64")
        )
        vc = per_cust.value_counts()
        return pd.DataFrame(
            {
                "n_orders": vc.index.astype("int64"),
                "n_customers": vc.to_numpy().astype("int64"),
            }
        )

    both = cust.map_batches(tag_cust, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )
    df = both.groupby("bucket").map_groups(per_bucket, batch_format="pandas").to_pandas()
    out = df.groupby("n_orders", as_index=False).agg(n_customers=("n_customers", "sum"))
    out["n_orders"] = out["n_orders"].astype("int64")
    out["n_customers"] = out["n_customers"].astype("int64")
    return out.sort_values("n_orders").reset_index(drop=True)


CUST_ORDER_COUNT_DIST_SQL = """
WITH per_cust AS (
  SELECT c_custkey, count(o_custkey) AS n_orders
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey
)
SELECT n_orders, count(*) AS n_customers
FROM per_cust GROUP BY n_orders ORDER BY n_orders
"""


def shipping_priority(sf_dir: str, num_buckets: int | None = None):
    """TPC-H Q3-style three-table pipeline: segment-filtered customers
    semi-prune orders (bucketed existence join — only distinct custkeys
    ship per bucket), the surviving orders join date-filtered lineitems
    co-partitioned on the order key, and revenue aggregates per order with
    top-10 pruning per bucket before a tiny global top-10.

    Per-bucket pruning is safe because ``bucketed_join`` emits each order
    key's rows in exactly one bucket group (one output block), and the
    partial stage consumes whole blocks (``batch_size=None``) — an order's
    revenue is complete within its batch.  Money is exact cents·10^4
    (price×(1-disc)), rounded half-up once at the end, and the sort uses
    the ROUNDED revenue so engine and oracle order identically."""
    from q_digest_ray.functions.fixedpoint import round_scaled_half_up, scaled_int64
    from q_digest_ray.stages.join import bucketed_join

    cutoff = pa.scalar(np.datetime64("1998-01-01", "us"))

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    cust_f = cust.map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], pa.scalar("BUILDING"))).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )
    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def li_project(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        p100 = scaled_int64(batch["l_extendedprice"].to_numpy(zero_copy_only=False), 2)
        d100 = scaled_int64(batch["l_discount"].to_numpy(zero_copy_only=False), 2)
        return pa.table(
            {"l_orderkey": batch["l_orderkey"], "rev4": pa.array(p100 * (100 - d100))}
        )

    li_f = li.map_batches(li_project, batch_format="pyarrow")
    B = num_buckets or derive_buckets(
        size_bytes=(orders.size_bytes() or 0) + (li.size_bytes() or 0)
    )
    # Semi-prune orders by BUILDING custkeys WITHOUT a dedicated exchange
    # (r4 VERDICT item 7: the old plan paid TWO sequential bucketed-join
    # fixed costs).  The segment-filtered key set is dimension-sized:
    # broadcast it sorted via ray.put and filter inside the same map that
    # date-filters orders — searchsorted membership, zero added shuffle.
    # Threshold-gated: past ~5M keys (40 MB) fall back to the bucketed
    # existence join (the repo's standard broadcast-vs-exchange gate).
    # The gate and the collect are ONE streaming pass: limit(N+1) stops
    # early when the dimension is huge, so no separate count() scan.
    lim = 5_000_000
    head = cust_f.limit(lim + 1).to_pandas()
    if len(head) <= lim:
        keys = np.sort(head["c_custkey"].to_numpy(np.int64))
        kref = ray.put(keys)

        def orders_filter(batch: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            batch = batch.filter(pc.less(batch["o_orderdate"], cutoff))
            if len(ks) == 0:
                return batch.slice(0, 0)
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(ks, ck), len(ks) - 1)
            return batch.filter(pa.array(ks[pos] == ck))

        orders_bld = orders.map_batches(orders_filter, batch_format="pyarrow")
    else:
        orders_f = orders.map_batches(
            lambda b: b.filter(pc.less(b["o_orderdate"], cutoff)),
            batch_format="pyarrow",
        )
        orders_bld = bucketed_join(
            orders_f, cust_f, on="o_custkey", right_on="c_custkey",
            num_buckets=B, how="semi",
        )
    joined = bucketed_join(
        orders_bld, li_f, on="o_orderkey", right_on="l_orderkey", num_buckets=B
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        if df.empty:
            return pd.DataFrame(
                columns=["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]
            )
        g = df.groupby("o_orderkey", as_index=False).agg(
            rev4=("rev4", "sum"),
            o_orderdate=("o_orderdate", "first"),
            o_orderpriority=("o_orderpriority", "first"),
        )
        g["revenue"] = [round_scaled_half_up(v, 10**4, 2) for v in g["rev4"]]
        g = g.sort_values(
            ["revenue", "o_orderdate", "o_orderkey"], ascending=[False, True, True]
        ).head(10)
        return g.rename(columns={"o_orderkey": "l_orderkey"})[
            ["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]
        ]

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue", "o_orderdate", "l_orderkey"], ascending=[False, True, True]
        ).head(10)

    out = two_phase(joined, partial, final)
    if out.empty:
        return pd.DataFrame(
            {
                "l_orderkey": pd.Series(dtype="int64"),
                "revenue": pd.Series(dtype="float64"),
                "o_orderdate": pd.Series(dtype="object"),
                "o_orderpriority": pd.Series(dtype="object"),
            }
        )
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]).dt.strftime("%Y-%m-%d")
    return out.reset_index(drop=True)


SHIPPING_PRIORITY_SQL = """
SELECT l_orderkey,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                 * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2) AS DOUBLE) AS revenue,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
"""


_PIVOT_LANGS = ["de", "en", "es", "fr", "zh"]


def lang_source_matrix(sf_dir: str):
    """PIVOT: per-source doc counts spread across one column per language
    (the fixed column set is inherent to pivoting — SQL needs it too).
    Per-batch Arrow group_by((source, lang)) bounds partial volume at
    sources × langs rows per block; the pivot itself runs once over the
    tiny combined counts."""
    ds = read_table(sf_dir, "documents", columns=["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "lang"]).aggregate([("lang", "count")])
        return g.select(["source", "lang", "lang_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "lang"], as_index=False).agg(n=("lang_count", "sum"))
        # total from the PRE-reindex counts (= count(*) like the SQL
        # oracle) so a lang outside the pinned pivot set still counts
        # toward total even though it gets no n_* column
        totals = g.groupby("source")["n"].sum().astype("int64")
        mat = g.pivot_table(index="source", columns="lang", values="n", aggfunc="sum")
        mat = mat.reindex(columns=_PIVOT_LANGS).fillna(0).astype("int64")
        mat.columns = [f"n_{c}" for c in mat.columns]
        mat["total"] = totals.reindex(mat.index)
        return mat.reset_index()

    df = two_phase(ds, partial, final)
    return df.sort_values("source").reset_index(drop=True)


LANG_SOURCE_MATRIX_SQL = """
SELECT source,
       {cols},
       count(*) AS total
FROM documents GROUP BY source ORDER BY source
""".format(
    cols=",\n       ".join(
        # CAST: DuckDB integer sum() is HUGEINT, which pandas floats
        f"CAST(sum(CASE WHEN lang = '{l}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{l}"
        for l in _PIVOT_LANGS
    )
)


def source_lang_entropy(sf_dir: str):
    """Shannon entropy (log2) of each source's language distribution —
    the diversity metric a corpus-curation report wants per shard/source.
    Distributed part is plain (source, lang) counting; the entropy formula
    runs once over the tiny count table, mirroring DuckDB's entropy()."""
    ds = read_table(sf_dir, "documents", columns=["source", "lang"])
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "lang"]).aggregate([("lang", "count")])
        return g.select(["source", "lang", "lang_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "lang"], as_index=False).agg(n=("lang_count", "sum"))
        rows = []
        for src, grp in g.groupby("source"):
            n = grp["n"].to_numpy(dtype=np.float64)
            p = n / n.sum()
            h = float(-(p * np.log2(p)).sum())
            rows.append(
                {
                    "source": src,
                    "lang_entropy": duckdb_round_double(h, 6),
                    "n_langs": int(len(grp)),
                }
            )
        return pd.DataFrame(rows)

    df = two_phase(ds, partial, final)
    df["n_langs"] = df["n_langs"].astype("int64")
    return df.sort_values("source").reset_index(drop=True)


SOURCE_LANG_ENTROPY_SQL = """
SELECT source, round(entropy(lang), 6) AS lang_entropy,
       count(DISTINCT lang) AS n_langs
FROM documents GROUP BY source ORDER BY source
"""


def inter_event_gaps(sf_dir: str, num_buckets: int | None = None):
    """LAG window + aggregation: per event type, statistics of the time gap
    to the same user's previous event (any type).  Users hash-bucket so
    each user's timeline is complete in one group; per-bucket sort +
    np.diff with user-boundary masking computes all gaps vectorized; gap
    partials (n, Σµs, max µs) merge exactly.  The avg divides in the same
    float op order as the oracle (double(Σ)/n/10^6) for bit-equality."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    B = num_buckets or derive_buckets(ds)
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (hash64(batch["user_id"]) % np.uint64(B)).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        ts = g["ts"].astype("int64").to_numpy()  # µs since epoch
        gap = np.empty(len(ts), np.int64)
        gap[0] = -1
        gap[1:] = ts[1:] - ts[:-1]
        same = np.zeros(len(ts), bool)
        uid = g["user_id"].to_numpy()
        same[1:] = uid[1:] == uid[:-1]
        d = pd.DataFrame({"event_type": g["event_type"].to_numpy()[same], "gap": gap[same]})
        return d.groupby("event_type", as_index=False).agg(
            n_gaps=("gap", "size"), sum_us=("gap", "sum"), max_us=("gap", "max")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        from q_digest_ray.functions.fixedpoint import exact_sum

        rows = []
        for et, g in df.groupby("event_type"):
            n = exact_sum(g["n_gaps"])
            s = exact_sum(g["sum_us"])
            mx = int(g["max_us"].max())
            rows.append(
                {
                    "event_type": et,
                    "n_gaps": n,
                    "avg_gap_s": duckdb_round_double(float(s) / n / 1_000_000.0, 3),
                    "max_gap_s": duckdb_round_double(float(mx) / 1_000_000.0, 3),
                }
            )
        return pd.DataFrame(rows)

    parts = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    df = fold_on_driver(parts, final)
    df["n_gaps"] = df["n_gaps"].astype("int64")
    return df.sort_values("event_type").reset_index(drop=True)


INTER_EVENT_GAPS_SQL = """
WITH g AS (
  SELECT event_type,
         date_diff('microsecond',
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                   ts) AS gap_us
  FROM events
)
SELECT event_type, count(gap_us) AS n_gaps,
       round(CAST(sum(gap_us) AS DOUBLE) / count(gap_us) / 1000000, 3) AS avg_gap_s,
       round(CAST(max(gap_us) AS DOUBLE) / 1000000, 3) AS max_gap_s
FROM g WHERE gap_us IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def users_all_types(sf_dir: str, num_buckets: int | None = None):
    """Set INTERSECTION across groups: how many users appear in EVERY
    event type.  The global type universe is a tiny first pass; the main
    pass ships distinct (user, type) pairs into user-hash buckets and each
    bucket counts its own qualifying users (a user lives in one bucket, so
    counts sum exactly)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    B = num_buckets or derive_buckets(ds)

    types = (
        read_table(sf_dir, "events", columns=["event_type"])
        .map_batches(
            lambda b: b.group_by(["event_type"]).aggregate([]), batch_format="pyarrow"
        )
        .to_pandas()["event_type"]
        .nunique()
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["event_type", "user_id"]).aggregate([])
        bucket = (hash64(t["user_id"]) % np.uint64(B)).astype(np.int32)
        return t.append_column("bucket", pa.array(bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        per_user = d.groupby("user_id")["event_type"].nunique()
        return pd.DataFrame({"n": [int((per_user == types).sum())]})

    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame({"n_users": [int(parts["n"].sum())]})


USERS_ALL_TYPES_SQL = """
SELECT count(*) AS n_users FROM (
  SELECT user_id FROM events GROUP BY user_id
  HAVING count(DISTINCT event_type) = (SELECT count(DISTINCT event_type) FROM events)
)
"""


def mode_priority_by_status(sf_dir: str):
    """Deterministic MODE per group (most frequent o_orderpriority per
    order status; ties broken lexicographically — SQL mode() leaves ties
    unspecified, so both sides spell the tie-break explicitly).  Counting
    is the usual bounded two-phase; argmax runs on the tiny final table."""
    ds = read_table(sf_dir, "orders", columns=["o_orderstatus", "o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
            [("o_orderpriority", "count")]
        )
        return g.select(["o_orderstatus", "o_orderpriority", "o_orderpriority_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_orderstatus", "o_orderpriority"], as_index=False).agg(
            n_orders=("o_orderpriority_count", "sum")
        )
        g = g.sort_values(
            ["o_orderstatus", "n_orders", "o_orderpriority"],
            ascending=[True, False, True],
        )
        top = g.groupby("o_orderstatus", as_index=False).first()
        return top.rename(columns={"o_orderpriority": "top_priority"})

    df = two_phase(ds, partial, final)
    df["n_orders"] = df["n_orders"].astype("int64")
    return (
        df[["o_orderstatus", "top_priority", "n_orders"]]
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )


MODE_PRIORITY_BY_STATUS_SQL = """
SELECT o_orderstatus, o_orderpriority AS top_priority, n_orders FROM (
  SELECT o_orderstatus, o_orderpriority, count(*) AS n_orders,
         row_number() OVER (PARTITION BY o_orderstatus
                            ORDER BY count(*) DESC, o_orderpriority) AS rn
  FROM orders GROUP BY o_orderstatus, o_orderpriority
)
WHERE rn = 1 ORDER BY o_orderstatus
"""


def conversion_latency(sf_dir: str, num_buckets: int | None = None):
    """Funnel latency: among converted users (first signup strictly before
    first purchase), exact stats of the signup→purchase delay.  Same
    bucketed min-ts partials as funnel_conversion; per-bucket deltas
    reduce to (n, Σµs, min, max) so the final combine is exact integer
    arithmetic, divided in the oracle's float op order."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double, exact_sum

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    B = num_buckets or derive_buckets(ds)
    steps = pa.array(["signup", "purchase"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["event_type"], value_set=steps))
        g = batch.group_by(["user_id", "event_type"]).aggregate([("ts", "min")])
        bucket = (hash64(g["user_id"]) % np.uint64(B)).astype(np.int32)
        return g.append_column("bucket", pa.array(bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["user_id", "event_type"], as_index=False)["ts_min"]
            .min()
            .pivot(index="user_id", columns="event_type", values="ts_min")
        )
        if "signup" not in m or "purchase" not in m:
            return pd.DataFrame(
                {"n": pd.Series(dtype="int64"), "s": pd.Series(dtype="int64"),
                 "mn": pd.Series(dtype="int64"), "mx": pd.Series(dtype="int64")}
            )
        conv = m[m["signup"].notna() & m["purchase"].notna() & (m["signup"] < m["purchase"])]
        if conv.empty:
            return pd.DataFrame(
                {"n": pd.Series(dtype="int64"), "s": pd.Series(dtype="int64"),
                 "mn": pd.Series(dtype="int64"), "mx": pd.Series(dtype="int64")}
            )
        d = (conv["purchase"].astype("int64") - conv["signup"].astype("int64")).to_numpy()
        return pd.DataFrame(
            {"n": [len(d)], "s": [int(d.sum())], "mn": [int(d.min())], "mx": [int(d.max())]}
        )

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    n = int(df["n"].sum())
    if n == 0:
        return pd.DataFrame(
            {"n_converted": [0], "avg_delay_s": [None], "min_delay_s": [None], "max_delay_s": [None]}
        )
    s = exact_sum(df["s"])
    return pd.DataFrame(
        {
            "n_converted": [n],
            "avg_delay_s": [duckdb_round_double(float(s) / n / 1_000_000.0, 3)],
            "min_delay_s": [duckdb_round_double(int(df["mn"].min()) / 1_000_000.0, 3)],
            "max_delay_s": [duckdb_round_double(int(df["mx"].max()) / 1_000_000.0, 3)],
        }
    )


CONVERSION_LATENCY_SQL = """
WITH f AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'signup' THEN ts END) AS s,
         min(CASE WHEN event_type = 'purchase' THEN ts END) AS p
  FROM events GROUP BY user_id
), c AS (
  SELECT date_diff('microsecond', s, p) AS d_us FROM f
  WHERE s IS NOT NULL AND p IS NOT NULL AND s < p
)
SELECT count(*) AS n_converted,
       round(CAST(sum(d_us) AS DOUBLE) / count(*) / 1000000, 3) AS avg_delay_s,
       round(CAST(min(d_us) AS DOUBLE) / 1000000, 3) AS min_delay_s,
       round(CAST(max(d_us) AS DOUBLE) / 1000000, 3) AS max_delay_s
FROM c
"""


_DECAY_T0 = np.datetime64("2024-02-01", "us")
_DECAY_TAU_US = 7 * 86400 * 1_000_000  # 7-day e-folding


def decayed_counts(sf_dir: str):
    """Exponentially time-decayed event counts (the streaming-analytics
    freshness weighting): each event contributes exp(−age/τ) as of a fixed
    reference instant.  Per-batch vectorized exp + partial sums; the decayed
    mass merges by addition like every other partial here."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        age = (
            _DECAY_T0.astype("int64")
            - batch["ts"].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False).astype("int64")
        ).astype(np.float64)
        w = np.exp(-age / _DECAY_TAU_US)
        df = pd.DataFrame({"event_type": batch["event_type"].to_pandas(), "w": w})
        g = df.groupby("event_type", as_index=False).agg(w=("w", "sum"), n=("w", "size"))
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False).agg(w=("w", "sum"), n=("n", "sum"))
        g["decayed_count"] = [duckdb_round_double(x, 4) for x in g["w"]]
        g["n_events"] = g["n"].astype("int64")
        return g[["event_type", "decayed_count", "n_events"]]

    df = two_phase(ds, partial, final)
    return df.sort_values("event_type").reset_index(drop=True)


DECAYED_COUNTS_SQL = """
SELECT event_type,
       round(sum(exp(-(CAST(date_diff('microsecond', ts, TIMESTAMP '2024-02-01') AS DOUBLE))
                     / 604800000000)), 4) AS decayed_count,
       count(*) AS n_events
FROM events GROUP BY event_type ORDER BY event_type
"""


def clickers_never_purchased(sf_dir: str, num_buckets: int | None = None):
    """Set DIFFERENCE across groups (SQL EXCEPT): users with at least one
    click and no purchase ever.  Same distinct-pair bucketing as
    users_all_types; each bucket subtracts its own purchase set."""
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    B = num_buckets or derive_buckets(ds)
    wanted = pa.array(["click", "purchase"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["event_type"], value_set=wanted))
        t = batch.group_by(["event_type", "user_id"]).aggregate([])
        bucket = (hash64(t["user_id"]) % np.uint64(B)).astype(np.int32)
        return t.append_column("bucket", pa.array(bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        clickers = set(d.loc[d["event_type"] == "click", "user_id"])
        purchasers = set(d.loc[d["event_type"] == "purchase", "user_id"])
        return pd.DataFrame({"n": [len(clickers - purchasers)]})

    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame({"n_users": [int(parts["n"].sum())]})


CLICKERS_NEVER_PURCHASED_SQL = """
SELECT count(*) AS n_users FROM (
  SELECT user_id FROM events WHERE event_type = 'click'
  EXCEPT
  SELECT user_id FROM events WHERE event_type = 'purchase'
)
"""


_HIST_WIDTH = 50_000.0


def price_histogram(sf_dir: str):
    """Equi-width histogram of order totals: per-batch vectorized binning
    (the same IEEE floor(x/width) on both sides so bin edges agree bit for
    bit), additive count partials."""
    ds = read_table(sf_dir, "orders", columns=["o_totalprice"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        x = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        bins = (np.floor(x / _HIST_WIDTH) * _HIST_WIDTH).astype(np.int64)
        df = pd.DataFrame({"bin_lo": bins})
        return df.groupby("bin_lo", as_index=False).size().rename(columns={"size": "n"})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin_lo", as_index=False).agg(n_orders=("n", "sum"))
        g["bin_lo"] = g["bin_lo"].astype("int64")
        g["n_orders"] = g["n_orders"].astype("int64")
        return g

    df = two_phase(ds, partial, final)
    return df.sort_values("bin_lo").reset_index(drop=True)


PRICE_HISTOGRAM_SQL = """
SELECT CAST(floor(o_totalprice / 50000) * 50000 AS BIGINT) AS bin_lo,
       count(*) AS n_orders
FROM orders GROUP BY bin_lo ORDER BY bin_lo
"""


def sk_join_size_estimate(sf_dir: str):
    """JOIN-SIZE ESTIMATION by CMS inner product (Cormode & Muthukrishnan
    §4.2): build one distributed CMS over orders.o_orderkey and one over
    lineitem.l_orderkey — two streaming passes, no shuffle beyond the
    tiny sketch-row merge — then estimate |orders ⋈ lineitem| as the
    min-over-rows inner product.  The planner's question ("how big would
    this join be?") answered WITHOUT running the join: at 100 TB the
    exact answer costs an input-sized exchange, the estimate costs two
    map-only passes.  Output includes the exact count (computed via the
    usual per-batch count partials, no join either) so the driver's
    rows-only check sees the estimate's quality; the ε·N₁·N₂ overcount
    bound is asserted in tests."""
    params = {"depth": 5, "width": 1 << 15}

    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"])
    cms_o = collect_sketches(
        merge_grouped(
            build_sketches(orders, [SketchSpec("o_keys", "o_orderkey", "cms", params)])
        )
    )[("o_keys", "")]
    cms_l = collect_sketches(
        merge_grouped(
            build_sketches(li, [SketchSpec("l_keys", "l_orderkey", "cms", params)])
        )
    )[("l_keys", "")]
    est = cms_o.inner_product(cms_l)

    # exact |orders ⋈ lineitem| without a join: every l_orderkey has at
    # most one matching order (PK), so the join size is the number of
    # lineitem rows whose key exists in orders = count of lineitems
    # (referential integrity) — compute it honestly as a semi-join count
    # via the bucketed existence path
    from q_digest_ray.stages.join import bucketed_join

    B = derive_buckets(size_bytes=(orders.size_bytes() or 0) + (li.size_bytes() or 0))
    exact = bucketed_join(
        li, orders, on="l_orderkey", right_on="o_orderkey", num_buckets=B, how="semi"
    ).count()

    return pd.DataFrame(
        {
            "join_size_est": [int(est)],
            "join_size_exact": [int(exact)],
            "rel_err": [round(abs(est - exact) / max(exact, 1), 6)],
            "n_orders": [int(cms_o.n)],
            "n_lineitems": [int(cms_l.n)],
        }
    )


def weighted_sample_docs(sf_dir: str, k: int = 50):
    """Deterministic WEIGHTED sampling without replacement
    (Efraimidis-Spirakis 2006, public algorithm): each doc gets priority
    u^(1/w) with u a hash-uniform in (0,1) derived from doc_id and w the
    doc's quality weight; the global top-k by priority IS a weighted
    sample — and because priorities are pure functions of the row, the
    sample is identical under ANY partitioning (no RNG state, no
    coordination).  Per-batch top-k prune means only k candidates per
    block reach the final combine — the training-mixture construction
    primitive ("sample docs proportional to quality") at any scale.
    Rows-only: the sampling distribution is the contract, asserted by a
    statistical test in tests/test_round4b.py."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"]
        nc = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        # weight: longer docs favored (stand-in for a quality score)
        w = np.maximum(nc, 1.0)
        h = hash64(ids, seed=0x5EED)
        u = (h.astype(np.float64) + 0.5) / 2.0**64  # uniform in (0,1)
        pri = np.power(u, 1.0 / w)
        df = pd.DataFrame(
            {
                "doc_id": ids.to_numpy(zero_copy_only=False),
                "lang": batch["lang"].to_pandas(),
                "weight": w,
                "priority": pri,
            }
        )
        return df.nlargest(k, "priority")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.nlargest(k, "priority").sort_values(
            ["priority", "doc_id"], ascending=[False, True]
        )
        out["doc_id"] = out["doc_id"].astype("int64")
        out["weight"] = out["weight"].round(1)
        out["priority"] = out["priority"].round(10)
        return out.reset_index(drop=True)

    return two_phase(ds, partial, final)


def sk_skew_f2(sf_dir: str):
    """SKEW DETECTION by second frequency moment: F₂ = Σf² of the
    events.user_id distribution estimated as the CMS self-inner-product
    (one map-only sketch pass), beside the exact F₂ from the usual
    per-batch count partials.  The normalized ratio n·F₂/(Σf)² = n·F₂/n²
    is 1.0 for a perfectly uniform key distribution and grows with skew —
    the cheap pre-flight a pipeline runs to decide whether a hot join key
    needs salting or more buckets (stages/join.bucketed_join) BEFORE
    paying for a skewed shuffle."""
    params = {"depth": 5, "width": 1 << 15}
    ev = read_table(sf_dir, "events", columns=["user_id"])
    cms = collect_sketches(
        merge_grouped(build_sketches(ev, [SketchSpec("u", "user_id", "cms", params)]))
    )[("u", "")]
    f2_est = cms.inner_product(cms)

    def partial(batch: pa.Table) -> pa.Table:
        vc = batch["user_id"].value_counts()
        return pa.table(
            {"user_id": vc.field("values"), "c": vc.field("counts").cast(pa.int64())}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(c=("c", "sum"))
        f = g["c"].to_numpy()
        return pd.DataFrame(
            {
                "f2_exact": [int((f.astype(object) * f.astype(object)).sum())],
                "n_keys": [len(g)],
            }
        )

    ex = two_phase(ev, partial, final)
    f2_exact, d = int(ex["f2_exact"][0]), int(ex["n_keys"][0])
    n = int(cms.n)
    # D·F₂/n² = 1 for a perfectly uniform distribution, > 1 with skew
    return pd.DataFrame(
        {
            "f2_est": [int(f2_est)],
            "f2_exact": [f2_exact],
            "skew_ratio_est": [round(d * f2_est / (n * n), 4)],
            "skew_ratio_exact": [round(d * f2_exact / (n * n), 4)],
            "n_events": [n],
            "n_keys": [d],
        }
    )


def sk_csk_join_size(sf_dir: str):
    """JOIN-SIZE ESTIMATION by Count-Sketch inner product (AMS tug-of-war,
    Alon-Matias-Szegedy 1996): |view ⋈ purchase on user_id| = Σ_u f_v(u)·f_p(u)
    estimated from two linear sketches built in ONE grouped map-only pass
    (SketchSpec group_by=event_type → one CountSketch per type), beside the
    exact join size from per-batch count partials.  This is the cardinality
    estimate a planner consults BEFORE choosing broadcast-vs-shuffle join —
    unbiased and two-sided, unlike CMS's overcount-only inner product.
    Sketch estimates are not SQL-expressible → rows-only oracle; the
    estimator's error bound (4·√(F2_a·F2_b/width)) is asserted in
    tests/test_countsketch.py::test_inner_product_join_size."""
    params = {"depth": 7, "width": 1 << 14}
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    sks = collect_sketches(
        merge_grouped(
            build_sketches(
                ev,
                [SketchSpec("u", "user_id", "csk", params, group_by="event_type")],
            )
        )
    )
    est = sks[("u", "view")].inner_product(sks[("u", "purchase")])

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["event_type"], value_set=pa.array(["view", "purchase"]))
        t = batch.filter(mask)
        vc = pa.table(
            {"user_id": t["user_id"], "event_type": t["event_type"]}
        ).group_by(["user_id", "event_type"]).aggregate([("user_id", "count")])
        return pa.table(
            {
                "user_id": vc["user_id"],
                "event_type": vc["event_type"],
                "c": vc["user_id_count"].cast(pa.int64()),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(c=("c", "sum"))
        # unstack keeps int64 exactly — pivot_table's default aggfunc='mean'
        # would coerce to float64 BEFORE the object-int guard below
        piv = g.set_index(["user_id", "event_type"])["c"].unstack(fill_value=0)
        fv = piv.get("view", pd.Series(dtype=np.int64)).to_numpy()
        fp = piv.get("purchase", pd.Series(dtype=np.int64)).to_numpy()
        exact = int((fv.astype(object) * fp.astype(object)).sum())
        return pd.DataFrame({"join_size_exact": [exact]})

    exact = int(two_phase(ev, partial, final)["join_size_exact"][0])
    return pd.DataFrame(
        {
            "join_size_est": [int(est)],
            "join_size_exact": [exact],
            "rel_err": [round(abs(est - exact) / max(exact, 1), 4)],
            "n_view": [int(sks[("u", "view")].n)],
            "n_purchase": [int(sks[("u", "purchase")].n)],
        }
    )


def sk_dedup_preview(sf_dir: str, k: int = 4096):
    """DEDUP-RATE PREFLIGHT: estimate the exact-dedup payoff WITHOUT the
    input-sized key exchange — one map-only KMV pass over documents.text
    gives distinct_est, and est_dup_rate = 1 − distinct/n is what a
    planner consults before deciding whether a 100-TB corpus is worth the
    dedup shuffle at all (the third planner preflight beside sk_skew_f2's
    salt-or-not and sk_join_size_estimate's broadcast-or-shuffle).
    Rows-only: the estimate's 3σ band (KMV rel std error 1/√(k−2)) is
    asserted against exact distinct counts in tests."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["text"])
    sk = collect_sketches(
        merge_grouped(build_sketches(ds, [SketchSpec("t", "text", "kmv", {"k": k})]))
    )[("t", "")]
    n = int(sk.n)
    est = float(sk.estimate())
    return pd.DataFrame(
        {
            "n_docs": [n],
            "distinct_est": [int(round(est))],
            "est_dup_rate": [duckdb_round_double(max(0.0, 1.0 - est / n), 4)],
            "rel_std_error": [duckdb_round_double(1.0 / np.sqrt(k - 2), 4)],
        }
    )


def sk_hll_users_by_type(sf_dir: str):
    """GROUPED HLL: one distinct-users sketch per event type, merged
    through the same grouped sketch-row shuffle as every grouped build
    (exact twin: distinct_users_by_type)."""
    return _sketch_stats(
        sf_dir,
        "events",
        ["user_id", "event_type"],
        [SketchSpec("users_by_type_hll", "user_id", "hll", {"p": 12}, group_by="event_type")],
    )


def sk_profile(sf_dir: str):
    """Approximate table profile — the 100-TB scale path of table_profile:
    ONE streaming build pass carries an HLL per column (exact-distinct's
    shuffle disappears entirely) plus a KLL per numeric column; the
    output is the flagship's flat stats table.  Thin wrapper over
    ``stages/profile.sketch_profile``; distinct estimates land within
    HLL's ~1.04/√m error of table_profile's exact counts (asserted in
    tests/test_round4b.py)."""
    from q_digest_ray.stages.profile import sketch_profile

    ds = read_table(sf_dir, "documents", columns=list(_PROFILE_COLS))
    return sketch_profile(ds, list(_PROFILE_COLS))


# ---------------------------------------------------------------------------
# round-4 third slate: windowed self-join, z-score outliers, grouped MAD,
# first/last per key, funnel, vector centroids, table profile
# ---------------------------------------------------------------------------


def event_pair_counts(sf_dir: str, num_buckets: int | None = None, window_s: int = 3600):
    """Windowed SELF-join: count (earlier type → later type) event pairs of
    the same user within ``window_s`` seconds — the co-occurrence matrix a
    behavioral pipeline mines.  Users hash-bucket; inside a bucket the
    timeline sorts once by (user, ts, id) and every row's in-window
    successor range comes from TWO vectorized searchsorted calls over a
    user-offset-composited key (each user's block is shifted by
    rank·(span+W+1) so ranges can never cross users); pairs flatten via
    arithmetic range expansion — no Python loop, and only the 25-row
    type-pair matrix leaves each bucket.

    Scale bound: in-window pair multiplicity is data-bounded (events per
    user per window); the composite-key offset needs users-per-bucket ×
    ts-span < 2^63 — at web scale raise B rather than widening buckets."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    B = num_buckets or derive_buckets(ds)
    W = int(window_s) * 1_000_000  # µs

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (hash64(batch["user_id"]) % np.uint64(B)).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        ts = g["ts"].astype("int64").to_numpy()
        uid, _ = pd.factorize(g["user_id"], sort=False)
        span = int(ts.max() - ts.min()) if len(ts) else 0
        key = (ts - (ts.min() if len(ts) else 0)) + uid.astype(np.int64) * (span + W + 1)
        lo = np.searchsorted(key, key, side="right")  # skips ts ties (strict >)
        hi = np.searchsorted(key, key + W, side="right")
        m = hi - lo
        total = int(m.sum())
        if total == 0:
            return pd.DataFrame(
                {"t1": pd.Series(dtype=object), "t2": pd.Series(dtype=object),
                 "n_pairs": pd.Series(dtype="int64")}
            )
        # flatten [lo_i, hi_i) ranges: start offsets + local arange
        starts = np.repeat(lo, m)
        local = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        types = g["event_type"].to_numpy()
        d = pd.DataFrame({"t1": np.repeat(types, m), "t2": types[starts + local]})
        out = d.groupby(["t1", "t2"], as_index=False).size()
        return out.rename(columns={"size": "n_pairs"})

    df = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = df.groupby(["t1", "t2"], as_index=False).agg(n_pairs=("n_pairs", "sum"))
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values(["t1", "t2"]).reset_index(drop=True)


EVENT_PAIR_COUNTS_SQL = """
SELECT a.event_type AS t1, b.event_type AS t2, count(*) AS n_pairs
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 1 HOUR
GROUP BY t1, t2 ORDER BY t1, t2
"""


def zscore_outliers(sf_dir: str):
    """Group-statistic broadcast, z-score form: pass 1 merges EXACT integer
    moments (n, Σx, Σx²) per lang — the same commutative partials as
    corr_quantity_price — pass 2 streams every doc against its lang's
    (mean, stddev) from the object store and counts |z| > 2 outliers.  No
    shuffle in either pass."""
    import math

    from q_digest_ray.functions.fixedpoint import exact_sum

    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def moments(batch: pa.Table) -> pd.DataFrame:
        x = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "n": np.ones(len(x), np.int64),
                "s": x,
                "ss": x * x,
            }
        )
        return df.groupby("lang", as_index=False).sum()

    def stats_final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            n = exact_sum(g["n"])
            s, ss = exact_sum(g["s"]), exact_sum(g["ss"])
            m = s / n
            sd = math.sqrt(float(n * ss - s * s) / (n * (n - 1)))
            rows.append({"lang": lang, "m": m, "sd": sd})
        return pd.DataFrame(rows)

    stats = two_phase(ds, moments, stats_final)
    stats_ref = ray.put(
        dict(zip(stats["lang"], zip(stats["m"], stats["sd"])))
    )

    # plain-function broadcast lookup (no actor pool: ray.get on a local
    # ref is zero-copy and a pool adds ~1 s spin-up — BASELINE.md §4 rule)
    def tag(batch: pa.Table) -> pd.DataFrame:
        stats = ray.get(stats_ref)
        lang = pd.Series(batch["lang"].to_numpy(zero_copy_only=False))
        x = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = lang.map({k: v[0] for k, v in stats.items()}).to_numpy()
        sd = lang.map({k: v[1] for k, v in stats.items()}).to_numpy()
        out = pd.DataFrame(
            {"lang": lang, "is_out": (np.abs(x - m) / sd > 2.0).astype(np.int64)}
        )
        return out.groupby("lang", as_index=False).agg(
            n_outliers=("is_out", "sum"), n_docs=("is_out", "size")
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_outliers=("n_outliers", "sum"), n_docs=("n_docs", "sum")
        )
        return g

    out = two_phase(ds, tag, final)
    out["n_outliers"] = out["n_outliers"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


ZSCORE_OUTLIERS_SQL = """
WITH s AS (
  SELECT lang, avg(n_chars) AS m, stddev_samp(n_chars) AS sd
  FROM documents GROUP BY lang
)
SELECT d.lang,
       CAST(sum(CASE WHEN abs(d.n_chars - s.m) / s.sd > 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
       count(*) AS n_docs
FROM documents d JOIN s USING (lang)
GROUP BY d.lang ORDER BY d.lang
"""


def _weighted_quantile_cont(v: np.ndarray, w: np.ndarray, q: float) -> float:
    """quantile_cont over a weighted (value, count) histogram — DuckDB's
    median()/quantile_cont semantics: rank position (n-1)·q with linear
    interpolation.  v must be sorted ascending."""
    n = int(w.sum())
    pos = (n - 1) * q
    r0 = int(np.floor(pos))
    frac = pos - r0
    cum = np.cumsum(w)
    i0 = int(np.searchsorted(cum, r0 + 1))
    x0 = float(v[i0])
    if frac == 0.0:
        return x0
    i1 = int(np.searchsorted(cum, r0 + 2))
    return x0 + frac * (float(v[i1]) - x0)


def mad_nchars_by_lang(sf_dir: str):
    """Exact grouped MAD (median absolute deviation) — BOTH medians from
    one distributed value-counts histogram: the partial volume is distinct
    (lang, n_chars) pairs per batch, and the final per-lang step reuses the
    same histogram twice (median, then weighted median of |x − median|)
    with DuckDB's interpolating quantile_cont semantics — no second pass
    over the data, no sort of the raw rows."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return g.select(["lang", "n_chars", "n_chars_count"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            h = g.groupby("n_chars", as_index=False).agg(w=("n_chars_count", "sum"))
            h = h.sort_values("n_chars")
            v = h["n_chars"].to_numpy(dtype=np.float64)
            w = h["w"].to_numpy(dtype=np.int64)
            med = _weighted_quantile_cont(v, w, 0.5)
            d = np.abs(v - med)
            order = np.argsort(d, kind="stable")
            mad = _weighted_quantile_cont(d[order], w[order], 0.5)
            rows.append(
                {
                    "lang": lang,
                    "p50_cont": duckdb_round_double(med, 2),
                    "mad_nchars": duckdb_round_double(mad, 2),
                }
            )
        return pd.DataFrame(rows)

    df = two_phase(ds, partial, final)
    return df.sort_values("lang").reset_index(drop=True)


MAD_NCHARS_BY_LANG_SQL = """
WITH med AS (SELECT lang, median(n_chars) AS m FROM documents GROUP BY lang)
SELECT d.lang, round(max(med.m), 2) AS p50_cont,
       round(median(abs(d.n_chars - med.m)), 2) AS mad_nchars
FROM documents d JOIN med USING (lang)
GROUP BY d.lang ORDER BY d.lang
"""


def user_first_last(sf_dir: str, num_buckets: int | None = None):
    """First/last aggregation (arg_min/arg_max by timestamp) per user:
    which event type opened and closed each user's history.  User-hash
    buckets co-locate timelines; one per-bucket sort serves both ends.
    Listing-shaped output (one row per user) — the queries-collect /
    library-streams contract applies."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    B = num_buckets or derive_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (hash64(batch["user_id"]) % np.uint64(B)).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        out = g.groupby("user_id", as_index=False).agg(
            first_type=("event_type", "first"),
            last_type=("event_type", "last"),
            n_events=("event_type", "size"),
        )
        return out

    df = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["user_id"] = df["user_id"].astype("int64")
    df["n_events"] = df["n_events"].astype("int64")
    return df.sort_values("user_id").reset_index(drop=True)


USER_FIRST_LAST_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events
)
SELECT user_id, max(CASE WHEN rn = 1 THEN event_type END) AS first_type,
       max(CASE WHEN rn = n THEN event_type END) AS last_type,
       CAST(max(n) AS BIGINT) AS n_events
FROM w GROUP BY user_id ORDER BY user_id
"""


def funnel_conversion(sf_dir: str, num_buckets: int | None = None):
    """Sequence funnel: users who signed up, users who purchased, and users
    whose FIRST signup strictly precedes their FIRST purchase.  Per-batch
    Arrow min-ts partials per (user, step) bound shuffle volume at distinct
    users per batch; user-hash buckets make per-user mins exact."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    B = num_buckets or derive_buckets(ds)
    steps = pa.array(["signup", "purchase"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["event_type"], value_set=steps))
        g = batch.group_by(["user_id", "event_type"]).aggregate([("ts", "min")])
        bucket = (hash64(g["user_id"]) % np.uint64(B)).astype(np.int32)
        return g.append_column("bucket", pa.array(bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["user_id", "event_type"], as_index=False)["ts_min"]
            .min()
            .pivot(index="user_id", columns="event_type", values="ts_min")
        )
        s = m["signup"] if "signup" in m else pd.Series(pd.NaT, index=m.index)
        p = m["purchase"] if "purchase" in m else pd.Series(pd.NaT, index=m.index)
        return pd.DataFrame(
            {
                "n_signup": [int(s.notna().sum())],
                "n_purchase": [int(p.notna().sum())],
                "n_converted": [int((s.notna() & p.notna() & (s < p)).sum())],
            }
        )

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "n_signup": [int(df["n_signup"].sum())],
            "n_purchase": [int(df["n_purchase"].sum())],
            "n_converted": [int(df["n_converted"].sum())],
        }
    )


FUNNEL_CONVERSION_SQL = """
SELECT CAST(count(*) FILTER (WHERE s IS NOT NULL) AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE p IS NOT NULL) AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE s IS NOT NULL AND p IS NOT NULL AND s < p) AS BIGINT) AS n_converted
FROM (
  SELECT user_id,
         min(CASE WHEN event_type = 'signup' THEN ts END) AS s,
         min(CASE WHEN event_type = 'purchase' THEN ts END) AS p
  FROM events GROUP BY user_id
)
"""


_EMB_DIM = 64


def embedding_centroid_norms(sf_dir: str):
    """Per-label vector centroids as mergeable partials: each batch
    accumulates one partial SUM VECTOR per label (np.add.at over the
    factorized labels — a 64-wide float64 row per label per block, not per
    vector), the final combine averages and takes the L2 norm.  For
    unit-normalized embeddings the centroid norm is the cluster's
    coherence (1 = all identical, →0 = isotropic)."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double

    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        lab = batch["label"].to_numpy(zero_copy_only=False)
        X = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        uniq, inv = np.unique(lab, return_inverse=True)
        M = np.zeros((len(uniq), X.shape[1]), np.float64)
        np.add.at(M, inv, X)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        df = pd.DataFrame(M, columns=[f"s{i}" for i in range(X.shape[1])])
        df.insert(0, "label", uniq.astype(np.int64))
        df["n"] = cnt
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        scols = [c for c in df.columns if c.startswith("s")]
        g = df.groupby("label", as_index=False).sum()
        M = g[scols].to_numpy() / g["n"].to_numpy()[:, None]
        return pd.DataFrame(
            {
                "label": g["label"].astype("int64"),
                "n_vecs": g["n"].astype("int64"),
                "centroid_norm": [
                    duckdb_round_double(x, 6) for x in np.sqrt((M * M).sum(axis=1))
                ],
            }
        )

    df = two_phase(ds, partial, final)
    return df.sort_values("label").reset_index(drop=True)


EMBEDDING_CENTROID_NORMS_SQL = """
WITH u AS (
  SELECT label, generate_subscripts(embedding, 1) AS dim, unnest(embedding) AS x
  FROM embeddings
),
c AS (SELECT label, dim, avg(x) AS m FROM u GROUP BY label, dim),
n AS (SELECT label, count(*) AS n_vecs FROM embeddings GROUP BY label)
SELECT c.label, n.n_vecs, round(sqrt(sum(c.m * c.m)), 6) AS centroid_norm
FROM c JOIN n USING (label)
GROUP BY c.label, n.n_vecs ORDER BY c.label
"""


_PROFILE_COLS = ["doc_id", "text", "lang", "source", "n_chars"]
_PROFILE_NUMERIC = {"doc_id", "n_chars"}


def table_profile(sf_dir: str, num_buckets: int | None = None):
    """SUMMARIZE-style whole-table profile of documents: per column —
    rows, nulls, EXACT distinct count, min/max (as strings), mean for
    numerics.  Thin wrapper over the general operator
    ``stages/profile.profile_table`` (works on any Dataset + column
    list): one bucketed distinct pass carries 128-bit value keys for ALL
    columns through a single shuffle (volume = distinct values per batch,
    never row payloads), plus one two-phase min/max/null/sum pass.
    128-bit keys make 'exact' hold to ~10^18 distinct values (same
    argument as distinct_text_count)."""
    from q_digest_ray.stages.profile import profile_table

    ds = read_table(sf_dir, "documents", columns=_PROFILE_COLS)
    return profile_table(ds, list(_PROFILE_COLS), num_buckets=num_buckets)


TABLE_PROFILE_SQL = "\nUNION ALL\n".join(
    f"""SELECT '{c}' AS col_name, count(*) AS n_rows,
       count(*) - count({c}) AS n_nulls,
       count(DISTINCT {c}) AS n_distinct,
       CAST(min({c}) AS VARCHAR) AS min_s, CAST(max({c}) AS VARCHAR) AS max_s,
       {f'round(avg({c}), 4)' if c in _PROFILE_NUMERIC else 'CAST(NULL AS DOUBLE)'} AS mean
FROM documents"""
    for c in _PROFILE_COLS
) + "\nORDER BY col_name"


def ngram_jaccard_dups(
    sf_dir: str,
    w: int = 3,
    threshold: float = 0.5,
    df_cap: int = 100,
    num_buckets: int | None = None,
):
    """EXACT n-gram Jaccard near-dup pairs (the brief's fourth dedup
    family, distinct from its MinHash ESTIMATE): every doc pair whose
    distinct word-trigram Jaccard >= threshold, with exact intersection /
    union sizes — computed by a distributed inverted index
    (``stages/dedup.ngram_jaccard_pairs_ds``), never all-pairs.

    Shingles in more than ``df_cap`` docs are dropped from both sides of
    the ratio; the oracle applies the same HAVING filter, so values match
    at any cap (at sf0.01 max df is 7 — the cap never binds).  Shingle
    identity is a 64-bit rolling token-hash: two shingles collide with
    p ~ 2^-64, the same content-key argument as dedup_exact.  Output is
    threshold-filtered (small by construction) before collecting."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double
    from q_digest_ray.stages.dedup import ngram_jaccard_pairs_ds

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_jaccard_pairs_ds(
        ds,
        "doc_id",
        "text",
        w=w,
        threshold=threshold,
        df_cap=df_cap,
        num_buckets=num_buckets,
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
                "n_common": pd.Series(dtype="int64"),
                "n_union": pd.Series(dtype="int64"),
                "jaccard": pd.Series(dtype="float64"),
            }
        )
    out["jaccard"] = [duckdb_round_double(x, 6) for x in out["jaccard"]]
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


NGRAM_JACCARD_SQL = r"""
WITH w AS (
  SELECT doc_id, string_split_regex(
           regexp_replace(lower(text), '^\s+|\s+$', '', 'g'), '\s+') AS s
  FROM documents WHERE text IS NOT NULL
), sh AS (
  SELECT DISTINCT doc_id, s[i] || ' ' || s[i+1] || ' ' || s[i+2] AS shingle
  FROM w, unnest(generate_series(1, len(s)-2)) AS t(i)
  WHERE s[i] <> '' AND s[i+1] <> '' AND s[i+2] <> ''
), df AS (
  SELECT shingle FROM sh GROUP BY shingle HAVING count(*) <= 100
), shf AS (
  SELECT sh.doc_id, sh.shingle FROM sh JOIN df USING (shingle)
), sizes AS (
  SELECT doc_id, count(*) AS nsh FROM shf GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS n_common
  FROM shf a JOIN shf b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b, CAST(n_common AS BIGINT) AS n_common,
       CAST(sa.nsh + sb.nsh - n_common AS BIGINT) AS n_union,
       round(CAST(n_common AS DOUBLE) / (sa.nsh + sb.nsh - n_common), 6)
         AS jaccard
FROM inter
JOIN sizes sa ON doc_a = sa.doc_id
JOIN sizes sb ON doc_b = sb.doc_id
WHERE CAST(n_common AS DOUBLE) / (sa.nsh + sb.nsh - n_common) >= 0.5
ORDER BY doc_a, doc_b
"""


def embedding_cosine_dups(
    sf_dir: str, threshold: float = 0.4, num_buckets: int | None = None
):
    """EXACT embedding-cosine near-dup pairs — the verification-grade twin
    of the hyperplane-LSH `embedding_near_dups` (which trades recall for
    volume): every (id_a < id_b) pair at cosine >= threshold, zero recall
    loss, SQL-oracle-exact.  Distributed brute force
    (``stages/dedup.cosine_dup_pairs_ds``): gated broadcast of the
    normalized matrix + per-block matmul below 1M vectors, bucket-pair
    cross-join past the gate (quadratic COMPUTE is inherent to an exact
    answer; memory and exchange stay bounded).  0.4 is this synthetic
    corpus's qualifying band (max pairwise cosine ~0.51; nearest value
    sits 1.3e-4 from the bar, so float-order differences vs the oracle
    cannot flip membership)."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double
    from q_digest_ray.stages.dedup import cosine_dup_pairs_ds

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = cosine_dup_pairs_ds(
        ds, "vec_id", "embedding", threshold=threshold, num_buckets=num_buckets
    ).to_pandas()
    if "id_a" not in out.columns:  # Ray 2.49 drops empty-block schemas
        return pd.DataFrame(
            {
                "id_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "cos_sim": pd.Series(dtype="float64"),
            }
        )
    out["cos_sim"] = [duckdb_round_double(x, 6) for x in out["cos_sim"]]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


EMBEDDING_COSINE_DUPS_SQL = r"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6)
         AS cos_sim
FROM embeddings a
JOIN embeddings b ON a.vec_id < b.vec_id
WHERE a.embedding IS NOT NULL AND b.embedding IS NOT NULL
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
ORDER BY id_a, id_b
"""


def running_total_events(sf_dir: str, num_buckets: int | None = None):
    """Distributed ordered PREFIX SCAN (stages/scan.py, r5): the exact
    running sum of events.value over the total order (ts, event_id) —
    SUM() OVER (ORDER BY ...) at cluster scale.  Two-phase: per-epoch-hour
    partial sums, driver-side exclusive prefix over the tiny hour table
    (broadcast), then one coarse bucketed exchange co-locating each hour for
    the seeded within-hour cumsum.  Exact int-cents arithmetic both phases
    (functions/fixedpoint.py)."""
    from q_digest_ray.stages.scan import running_total

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "value"])
    out = running_total(ds, num_buckets=num_buckets).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


RUNNING_TOTAL_SQL = """
SELECT event_id,
       CAST(sum(CAST(value AS DECIMAL(18,2)))
              OVER (ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
            AS DOUBLE) AS running_sum
FROM events ORDER BY event_id
"""


def late_events(sf_dir: str):
    """Event-time WATERMARK with allowed lateness, replayed exactly over the
    batch table (stages/scan.py, r5): arrival order := event_id; watermark
    at a row = max event-time over strictly preceding arrivals minus 300 s;
    the census counts late rows per event_type.  Same two-phase exclusive
    prefix-scan shape as running_total_events, with a prefix MAX over
    fixed arrival-id ranges."""
    from q_digest_ray.stages.scan import late_event_census

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "event_type"])
    return late_event_census(ds, lateness_seconds=300)


LATE_EVENTS_SQL = """
WITH w AS (
  SELECT event_type, ts,
         max(ts) OVER (ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
)
SELECT event_type,
       count(*) AS n_events,
       CAST(coalesce(sum(CASE WHEN ts < wm - INTERVAL 300 SECOND
                              THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_late
FROM w GROUP BY event_type ORDER BY event_type
"""


EXACT_QUERIES = {
    "running_total_events": (running_total_events, RUNNING_TOTAL_SQL),
    "late_events": (late_events, LATE_EVENTS_SQL),
    "pricing_summary": (pricing_summary, PRICING_SUMMARY_SQL),
    "lang_counts": (lang_counts, LANG_COUNTS_SQL),
    "distinct_text_count": (distinct_text_count, DISTINCT_TEXT_SQL),
    "dedup_exact": (dedup_exact, DEDUP_EXACT_SQL),
    "dup_group_size_hist": (dup_group_size_hist, DUP_GROUP_SIZE_HIST_SQL),
    "exact_quantiles_nchars": (exact_quantiles_nchars, EXACT_QUANTILES_SQL),
    "events_hourly": (events_hourly, EVENTS_HOURLY_SQL),
    "top_users": (top_users, TOP_USERS_SQL),
    "order_revenue_by_nation": (order_revenue_by_nation, ORDER_REVENUE_SQL),
    "high_value_orders": (high_value_orders, HIGH_VALUE_SQL),
    "token_totals": (token_totals, TOKEN_TOTALS_SQL),
    "ann_topk": (ann_topk, ANN_TOPK_SQL),
    "punct_stats": (punct_stats, PUNCT_STATS_SQL),
    "bpe_token_totals": (bpe_token_totals, BPE_TOKEN_SQL),
    "quality_filter": (quality_filter, QUALITY_FILTER_SQL),
    "sessionize": (sessionize, SESSIONIZE_SQL),
    "asof_join_orders": (asof_join_orders, ASOF_JOIN_SQL),
    "events_sliding": (events_sliding, EVENTS_SLIDING_SQL),
    "revenue_by_priority": (revenue_by_priority, REVENUE_BY_PRIORITY_SQL),
    "brand_revenue": (brand_revenue, BRAND_REVENUE_SQL),
    "paragraph_dedup_docs": (paragraph_dedup_docs, PARAGRAPH_DEDUP_SQL),
    "supplier_region_acctbal": (supplier_region_acctbal, SUPPLIER_REGION_ACCTBAL_SQL),
    "promo_revenue_by_month": (promo_revenue_by_month, PROMO_REVENUE_SQL),
    "repetition_stats": (repetition_stats, REPETITION_STATS_SQL),
    "cumulative_spend": (cumulative_spend, CUMULATIVE_SPEND_SQL),
    "props_value_by_type": (props_value_by_type, PROPS_VALUE_BY_TYPE_SQL),
    "normalized_dedup_by_source": (normalized_dedup_by_source, NORMALIZED_DEDUP_SQL),
    "ngram_jaccard_dups": (ngram_jaccard_dups, NGRAM_JACCARD_SQL),
    "embedding_cosine_dups": (embedding_cosine_dups, EMBEDDING_COSINE_DUPS_SQL),
    "top_bigrams": (top_bigrams, TOP_BIGRAMS_SQL),
    "dup_spans": (dup_spans, DUP_SPANS_SQL),
    "sequence_pack_stats": (sequence_pack_stats, SEQUENCE_PACK_SQL),
    "gopher_quality_flags": (gopher_quality_flags, GOPHER_FLAGS_SQL),
    "mixture_weights": (mixture_weights, MIXTURE_WEIGHTS_SQL),
    "mixture_resample": (mixture_resample, MIXTURE_RESAMPLE_SQL),
    "cohort_retention": (cohort_retention, COHORT_RETENTION_SQL),
    "active_users_daily": (active_users_daily, ACTIVE_USERS_DAILY_SQL),
    "gini_user_activity": (gini_user_activity, GINI_USER_ACTIVITY_SQL),
    "padding_waste_stats": (padding_waste_stats, PADDING_WASTE_SQL),
    "dup_spans_scalable": (dup_spans_scalable, DUP_SPANS_SQL),
    "span_removal_dedup": (span_removal_dedup, SPAN_REMOVAL_SQL),
    "ngram_contamination": (ngram_contamination, NGRAM_CONTAMINATION_SQL),
    "incremental_dedup": (incremental_dedup, INCREMENTAL_DEDUP_SQL),
    "token_balanced_shards": (token_balanced_shards, TOKEN_BALANCED_SHARDS_SQL),
    "bm25_topk": (bm25_topk, BM25_TOPK_SQL),
    "pmi_collocations": (pmi_collocations, PMI_COLLOCATIONS_SQL),
    "chi2_lang_source": (chi2_lang_source, CHI2_LANG_SOURCE_SQL),
    "dup_span_length_hist": (dup_span_length_hist, DUP_SPAN_LENGTH_HIST_SQL),
    "trimmed_mean_nchars_by_lang": (trimmed_mean_nchars_by_lang, TRIMMED_MEAN_SQL),
    "curation_v2_stats": (curation_v2_stats, CURATION_V2_SQL),
    "train_val_test_split": (train_val_test_split, TRAIN_VAL_TEST_SQL),
    "epoch_ingest_order": (epoch_ingest_order, EPOCH_INGEST_ORDER_SQL),
    "epoch_token_counts": (epoch_token_counts, EPOCH_TOKEN_COUNTS_SQL),
    "rate_limit_audit": (rate_limit_audit, RATE_LIMIT_SQL),
    "stratified_sample": (stratified_sample, STRATIFIED_SAMPLE_SQL),
    "value_band_join": (value_band_join, VALUE_BAND_JOIN_SQL),
    "tfidf_top_terms": (tfidf_top_terms, TFIDF_TOP_TERMS_SQL),
    "scrub_stats": (scrub_stats, SCRUB_STATS_SQL),
    "rollup_revenue": (rollup_revenue, ROLLUP_REVENUE_SQL),
    "global_sort_ranks": (global_sort_ranks, GLOBAL_SORT_RANKS_SQL),
    "bloom_prune_join": (bloom_prune_join, BLOOM_PRUNE_JOIN_SQL),
    "mg_heavy_langs": (mg_heavy_langs, MG_HEAVY_LANGS_SQL),
    "customer_nation_revenue": (customer_nation_revenue, CUSTOMER_NATION_REVENUE_SQL),
    "orders_without_lineitems": (orders_without_lineitems, ORDERS_WITHOUT_LINEITEMS_SQL),
    "distinct_users_by_type": (distinct_users_by_type, DISTINCT_USERS_BY_TYPE_SQL),
    "nchars_quantiles_by_lang": (nchars_quantiles_by_lang, NCHARS_QUANTILES_BY_LANG_SQL),
    "top_docs_per_lang": (top_docs_per_lang, TOP_DOCS_PER_LANG_SQL),
    "top_terms_per_lang": (top_terms_per_lang, TOP_TERMS_PER_LANG_SQL),
    "docs_vs_lang_median": (docs_vs_lang_median, DOCS_VS_LANG_MEDIAN_SQL),
    "cross_source_contamination": (cross_source_contamination, CROSS_SOURCE_CONTAMINATION_SQL),
    "corr_quantity_price": (corr_quantity_price, CORR_QUANTITY_PRICE_SQL),
    "cust_order_count_dist": (cust_order_count_dist, CUST_ORDER_COUNT_DIST_SQL),
    "shipping_priority": (shipping_priority, SHIPPING_PRIORITY_SQL),
    "lang_source_matrix": (lang_source_matrix, LANG_SOURCE_MATRIX_SQL),
    "source_lang_entropy": (source_lang_entropy, SOURCE_LANG_ENTROPY_SQL),
    "inter_event_gaps": (inter_event_gaps, INTER_EVENT_GAPS_SQL),
    "users_all_types": (users_all_types, USERS_ALL_TYPES_SQL),
    "mode_priority_by_status": (mode_priority_by_status, MODE_PRIORITY_BY_STATUS_SQL),
    "event_pair_counts": (event_pair_counts, EVENT_PAIR_COUNTS_SQL),
    "zscore_outliers": (zscore_outliers, ZSCORE_OUTLIERS_SQL),
    "mad_nchars_by_lang": (mad_nchars_by_lang, MAD_NCHARS_BY_LANG_SQL),
    "user_first_last": (user_first_last, USER_FIRST_LAST_SQL),
    "funnel_conversion": (funnel_conversion, FUNNEL_CONVERSION_SQL),
    "embedding_centroid_norms": (embedding_centroid_norms, EMBEDDING_CENTROID_NORMS_SQL),
    "table_profile": (table_profile, TABLE_PROFILE_SQL),
    "conversion_latency": (conversion_latency, CONVERSION_LATENCY_SQL),
    "decayed_counts": (decayed_counts, DECAYED_COUNTS_SQL),
    "clickers_never_purchased": (clickers_never_purchased, CLICKERS_NEVER_PURCHASED_SQL),
    "price_histogram": (price_histogram, PRICE_HISTOGRAM_SQL),
}

SKETCH_QUERIES = {
    "corpus_sample_stats": corpus_sample_stats,
    "minhash_dedup": minhash_dedup,
    "minhash_dedup_distributed": minhash_dedup_distributed,
    "minhash_dedup_streaming": minhash_dedup_streaming,
    "simhash_pairs": simhash_pairs,
    "embedding_near_dups": embedding_near_dups,
    "ann_lsh_topk": ann_lsh_topk,
    "ann_ivf_topk": ann_ivf_topk,
    "ann_ivfpq_topk": ann_ivfpq_topk,
    "epoch_export_order": epoch_export_order,
    "embedding_cluster_sizes": embedding_cluster_sizes,
    "semdedup_prune": semdedup_prune,
    "langid_counts": langid_counts,
    "fingerprint_stats": fingerprint_stats,
    "curation_funnel": curation_funnel,
    "sk_qdigest_nchars": sk_qdigest_nchars,
    "sk_qdigest_nchars_by_lang": sk_qdigest_nchars_by_lang,
    "sk_tdigest_event_values": sk_tdigest_event_values,
    "sk_kll_nchars": sk_kll_nchars,
    "sk_ddsketch_nchars": sk_ddsketch_nchars,
    "sk_native_udaf": sk_native_udaf,
    "sk_fd_spectrum": sk_fd_spectrum,
    "sk_kll_weighted_nchars": sk_kll_weighted_nchars,
    "sk_hll_distinct_users": sk_hll_distinct_users,
    "sk_cms_event_types": sk_cms_event_types,
    "sk_qdigest_value_by_hour": sk_qdigest_value_by_hour,
    "sk_window_rollup": sk_window_rollup,
    "sk_incremental_build": sk_incremental_build,
    "sk_kmv_user_overlap": sk_kmv_user_overlap,
    "sk_bloom_membership": sk_bloom_membership,
    "sk_sample_users": sk_sample_users,
    "sk_decile_binning": sk_decile_binning,
    "sk_unigram_logprob_quality": sk_unigram_logprob_quality,
    "sk_rank_error_by_lang": sk_rank_error_by_lang,
    "sk_source_vocab_overlap": sk_source_vocab_overlap,
    "sk_hll_users_by_type": sk_hll_users_by_type,
    "sk_profile": sk_profile,
    "sk_join_size_estimate": sk_join_size_estimate,
    "sk_skew_f2": sk_skew_f2,
    "sk_csk_join_size": sk_csk_join_size,
    "sk_dedup_preview": sk_dedup_preview,
    "weighted_sample_docs": weighted_sample_docs,
    "sk_drift_monitor": sk_drift_monitor,
    "compression_ratio_stats": compression_ratio_stats,
    "sk_sliding_quantiles": sk_sliding_quantiles,
    "ann_pq_topk": ann_pq_topk,
    "byte_pair_stats": byte_pair_stats,
    "sk_quality_blend": sk_quality_blend,
    "sk_robust_outliers": sk_robust_outliers,
    "media_phash_dups": media_phash_dups,
    "audio_fingerprint_dups": audio_fingerprint_dups,
    "video_shot_stats": video_shot_stats,
    "media_features": media_features,
}
