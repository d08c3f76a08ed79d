"""Sketch-row merge stages (the UDAF *merge* leg).

One fold, mirroring the reference's intended TreeAllreduce
(/root/reference/mpi-implementation/src/treeReduce.c:31-90 — unfinished
there; the authoritative semantics are serial merge(), src/qcore.c:390-417):

1. ``combine_sketch_rows`` — a map_batches combiner that merges rows sharing
   (metric, sketch, group_key) *within each block*.  It collapses
   num_blocks × groups rows down to ~groups per block, so every later step
   only moves tiny pre-merged payloads.
2. ``merge_grouped`` — coalesces the combined blocks (in 8x rounds when
   there are many) and runs the same combiner over the result.  Handles both
   grouped sketches and the global (group_key="") fold in one uniform step.

Payloads are O(k) bytes, so the fold is metadata-cheap by design; skewed
group keys are irrelevant here because pre-combining bounds every group's
row count at the number of blocks, not the number of input rows (salting
is unnecessary for sketch rows — mergeability already collapsed the data).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from q_digest_ray.sketches.base import sketch_from_bytes


def _merge_payload_group(kind: str, payloads) -> bytes:
    it = iter(payloads)
    acc = sketch_from_bytes(kind, next(it))
    for p in it:
        acc.merge(sketch_from_bytes(kind, p))
    return acc.to_bytes()


def combine_sketch_rows(batch: pa.Table) -> pa.Table:
    """Partial (combiner) merge of sketch rows within one block.

    Arrow-native grouping: dictionary-encode the key triple into one int
    code, argsort, walk group boundaries — binary payloads are only pulled
    out of Arrow for the groups that actually merge (>1 row), instead of
    the r1 ``to_pandas`` which copied every payload into object dtype."""
    if batch.num_rows <= 1:
        return batch
    comp = np.zeros(batch.num_rows, dtype=np.int64)
    for name in ("metric", "sketch", "group_key"):
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = col.dictionary_encode()
        comp = comp * np.int64(len(d.dictionary) + 1) + d.indices.to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
    order = np.argsort(comp, kind="stable")
    sc = comp[order]
    new_grp = np.ones(len(order), dtype=bool)
    new_grp[1:] = sc[1:] != sc[:-1]
    starts = np.flatnonzero(new_grp)
    if len(starts) == batch.num_rows:
        return batch  # every row its own group — nothing to merge
    ends = np.append(starts[1:], len(order))
    n_sorted = batch["n"].to_numpy(zero_copy_only=False)[order]
    n_sums = np.add.reduceat(n_sorted, starts)
    reps = order[starts]
    merged: list[bytes | None] = []
    for s, e in zip(starts, ends):
        if e - s == 1:
            merged.append(None)  # singleton: keep the rep row's payload
        else:
            idxs = pa.array(order[s:e], type=pa.int64())
            kind = batch["sketch"].take(idxs)[0].as_py()
            merged.append(
                _merge_payload_group(kind, batch["payload"].take(idxs).to_pylist())
            )
    rep_tbl = batch.take(pa.array(reps, type=pa.int64()))
    base = rep_tbl["payload"].to_pylist()
    payload = pa.array(
        [b if m is None else m for b, m in zip(base, merged)],
        type=batch.schema.field("payload").type,
    )
    rep_tbl = rep_tbl.set_column(
        rep_tbl.schema.get_field_index("payload"), "payload", payload
    )
    return rep_tbl.set_column(
        rep_tbl.schema.get_field_index("n"),
        "n",
        pa.array(n_sums, type=batch.schema.field("n").type),
    )


# the final combine task sees at most this many combined blocks; above it,
# merge_grouped adds one 8x coalesce round per factor of 8
FINAL_FOLD_MAX_BLOCKS = 512


def merge_grouped(sketch_rows_ds):
    """Dataset of sketch rows → Dataset with one row per (metric, group).

    Combine rows per block, then coalesce and run one final combine task —
    the log-depth fold the reference's TreeAllreduce intended, expressed as
    data movement.  Valid because the combiner bounds the final input at
    num_blocks x groups tiny rows.  Intermediate rounds are derived from a
    public-API block-count estimate (partitioning.estimate_num_blocks; file
    count ~= block count at production scale): 0 rounds up to
    ``FINAL_FOLD_MAX_BLOCKS`` blocks, then one 8x coalesce round per factor
    of 8 above it (a 1M-block input gets 4 rounds).
    """
    from q_digest_ray.stages.partitioning import estimate_num_blocks

    nb = estimate_num_blocks(sketch_rows_ds)
    ds = sketch_rows_ds.map_batches(
        combine_sketch_rows, batch_format="pyarrow", batch_size=4096
    )
    target = nb
    while target > FINAL_FOLD_MAX_BLOCKS:
        target //= 8
        ds = ds.repartition(max(8, target)).map_batches(
            combine_sketch_rows, batch_format="pyarrow", batch_size=None
        )
    return ds.repartition(1).map_batches(
        combine_sketch_rows, batch_format="pyarrow", batch_size=None
    )


def desalt(merged_ds):
    """Second-level merge for salted group keys ("en#3" → "en").

    Exact because sketch merge is associative: merging the per-salt partial
    sketches yields the identical result to an unsalted single-level merge
    (property-tested in tests/test_skew_and_stateful.py).
    """

    def strip(batch: pa.Table) -> pa.Table:
        key = pc.replace_substring_regex(batch["group_key"], r"#\d+$", "")
        return batch.set_column(
            batch.schema.get_field_index("group_key"), "group_key", key
        )

    return merge_grouped(merged_ds.map_batches(strip, batch_format="pyarrow"))


def collect_sketches(merged_ds) -> dict[tuple[str, str], object]:
    """Small final table → {(metric, group_key): sketch object} on the driver."""
    out = {}
    for row in merged_ds.take_all():
        out[(row["metric"], row["group_key"])] = sketch_from_bytes(
            row["sketch"], row["payload"]
        )
    return out
