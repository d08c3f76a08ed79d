"""Whole-table profiling operators (SUMMARIZE-style), over ANY Dataset.

Two flavors with the same row-per-column output shape:

- ``profile_table`` — EXACT: rows, nulls, exact distinct count (128-bit
  hash keys, same collision argument as distinct_text_count), min/max,
  mean for numeric columns.  Costs one bucketed distinct shuffle (volume
  = distinct values per batch across all profiled columns — never row
  payloads) plus one two-phase stats pass.
- ``sketch_profile`` — APPROXIMATE, the 100-TB path: ONE streaming build
  pass carrying an HLL per column (distinct estimate, no shuffle at all)
  and a KLL per numeric column (quantiles).  Estimates carry HLL's
  ~1.04/√m and KLL's rank guarantees.

The catalog queries ``table_profile`` / ``sk_profile`` are thin wrappers
over these on the documents table; the operators themselves take any
Dataset + column list (numeric-ness is auto-detected from the Arrow
schema).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.stages.partitioning import derive_buckets


def _numeric_columns(ds, columns: list[str]) -> set[str]:
    s = ds.schema()
    types = dict(zip(s.names, s.types))
    out = set()
    for c in columns:
        t = types[c]
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            out.add(c)
    return out


def profile_table(ds, columns: list[str], num_buckets: int | None = None) -> pd.DataFrame:
    """Exact per-column profile of ``ds``: one bucketed distinct pass for
    ALL columns + one two-phase min/max/null/sum pass.  Returns a
    DataFrame (col_name, n_rows, n_nulls, n_distinct, min_s, max_s, mean)
    sorted by col_name; min/max are stringified (numeric columns compare
    numerically before stringification), mean is None for non-numerics.

    Integer means are exact (Python-int sums); float means use float
    partial sums (order-dependent at ~1e-15 relative — fine for a
    profile)."""
    from q_digest_ray.functions.fixedpoint import duckdb_round_double, exact_sum
    from q_digest_ray.stages.agg import two_phase

    numeric = _numeric_columns(ds, columns)
    B = num_buckets or derive_buckets(ds)
    cols = list(columns)

    def distinct_partial(batch: pa.Table) -> pa.Table:
        cids, h1s, h2s, buckets = [], [], [], []
        for ci, name in enumerate(cols):
            arr = batch[name]
            if arr.null_count:
                arr = arr.filter(pc.is_valid(arr))
            h1 = hash64(arr, seed=0x9E37)
            h2 = hash64(arr, seed=0xC2B2)
            order = np.argsort(h1, kind="stable")
            h1, h2 = h1[order], h2[order]
            keep = np.ones(len(h1), dtype=bool)
            keep[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
            h1, h2 = h1[keep], h2[keep]
            cids.append(np.full(len(h1), ci, np.int16))
            h1s.append(h1.view(np.int64))
            h2s.append(h2.view(np.int64))
            buckets.append((h1 % np.uint64(B)).astype(np.int32))
        return pa.table(
            {
                "col": pa.array(np.concatenate(cids)),
                "h1": pa.array(np.concatenate(h1s)),
                "h2": pa.array(np.concatenate(h2s)),
                "bucket": pa.array(np.concatenate(buckets)),
            }
        )

    def distinct_per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["col", "h1", "h2"])
        return d.groupby("col", as_index=False).agg(n_distinct=("h1", "size"))

    distinct = (
        ds.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_per_bucket, batch_format="pandas")
        .to_pandas()
        .groupby("col", as_index=False)
        .agg(n_distinct=("n_distinct", "sum"))
    )
    n_distinct = dict(zip(distinct["col"], distinct["n_distinct"]))

    def stats_partial(batch: pa.Table) -> pd.DataFrame:
        rows = []
        for name in cols:
            arr = batch[name]
            mm = pc.min_max(arr)
            s = None
            if name in numeric:
                sv = pc.sum(arr).as_py()
                s = sv if sv is not None else 0
            rows.append(
                {
                    "col_name": name,
                    "n_rows": batch.num_rows,
                    "n_nulls": arr.null_count,
                    "min_v": str(mm["min"].as_py()) if mm["min"].is_valid else None,
                    "max_v": str(mm["max"].as_py()) if mm["max"].is_valid else None,
                    "sum_v": float(s) if s is not None else None,
                }
            )
        return pd.DataFrame(rows)

    def stats_final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for name, g in df.groupby("col_name"):
            n_rows = int(g["n_rows"].sum())
            n_nulls = int(g["n_nulls"].sum())
            mins, maxs = g["min_v"].dropna(), g["max_v"].dropna()
            if name in numeric:
                # integer columns stringify without a decimal point
                # (matching SQL VARCHAR casts) and sum exactly; floats
                # keep their repr and a float sum
                is_int = all("." not in v and "e" not in v for v in mins)
                if is_int:
                    min_s = str(min(int(v) for v in mins)) if len(mins) else None
                    max_s = str(max(int(v) for v in maxs)) if len(maxs) else None
                    total = exact_sum(g["sum_v"].dropna().astype("int64"))
                else:
                    min_s = str(min(float(v) for v in mins)) if len(mins) else None
                    max_s = str(max(float(v) for v in maxs)) if len(maxs) else None
                    total = float(g["sum_v"].dropna().sum())
                nn = n_rows - n_nulls
                mean = duckdb_round_double(total / nn, 4) if nn else None
            else:
                min_s = mins.min() if len(mins) else None
                max_s = maxs.max() if len(maxs) else None
                mean = None
            rows.append(
                {
                    "col_name": name,
                    "n_rows": n_rows,
                    "n_nulls": n_nulls,
                    "min_s": min_s,
                    "max_s": max_s,
                    "mean": mean,
                }
            )
        return pd.DataFrame(rows)

    stats = two_phase(ds, stats_partial, stats_final)
    stats["n_distinct"] = stats["col_name"].map(
        {name: int(n_distinct.get(ci, 0)) for ci, name in enumerate(cols)}
    )
    for c in ("n_rows", "n_nulls", "n_distinct"):
        stats[c] = stats[c].astype("int64")
    return (
        stats[["col_name", "n_rows", "n_nulls", "n_distinct", "min_s", "max_s", "mean"]]
        .sort_values("col_name")
        .reset_index(drop=True)
    )


def sketch_profile(ds, columns: list[str], hll_p: int = 12, kll_k: int = 200) -> pd.DataFrame:
    """One-pass approximate profile: HLL distinct estimate per column and
    KLL quantiles per NUMERIC column, built in a single fused sketch stage
    and returned as the flagship's flat (metric, group_key, stat, value)
    table."""
    from q_digest_ray.pipelines.flagship import finalize
    from q_digest_ray.stages.build import SketchSpec, build_sketches
    from q_digest_ray.stages.merge import collect_sketches, merge_grouped

    numeric = _numeric_columns(ds, columns)
    specs = [SketchSpec(f"{c}_hll", c, "hll", {"p": hll_p}) for c in columns]
    specs += [SketchSpec(f"{c}_kll", c, "kll", {"k": kll_k}) for c in columns if c in numeric]
    rows = build_sketches(ds, specs)
    return finalize(collect_sketches(merge_grouped(rows)))
