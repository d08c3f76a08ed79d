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

from q_digest_ray.sketches.base import sketch_class, sketch_from_bytes


def _merge_payload_group(kind: str, payloads) -> bytes:
    from_bytes = sketch_class(kind).from_bytes  # one registry lookup per group
    it = iter(payloads)
    acc = from_bytes(next(it))
    for p in it:
        acc.merge(from_bytes(p))
    return acc.to_bytes()


def combine_sketch_rows(batch: pa.Table) -> pa.Table:
    """Partial (combiner) merge of sketch rows within one block.

    Arrow-native grouping: dictionary-encode the key triple into one int
    code, argsort, walk group boundaries.  Chunks are combined and the
    ``sketch``/``payload`` columns pulled into Python once per call: a
    per-group ``take`` on the chunked columns made the call ~6x slower on
    2.7k partials in 12 chunks."""
    if batch.num_rows <= 1:
        return batch
    batch = batch.combine_chunks()
    comp = np.zeros(batch.num_rows, dtype=np.int64)
    for name in ("metric", "sketch", "group_key"):
        d = batch[name].chunk(0).dictionary_encode()
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
    n_sums = np.add.reduceat(batch["n"].to_numpy()[order], starts)
    reps = order[starts]
    kinds = batch["sketch"].to_pylist()
    payloads = batch["payload"].to_pylist()
    merged = [
        payloads[r]
        if e - s == 1
        else _merge_payload_group(kinds[r], [payloads[i] for i in order[s:e]])
        for s, e, r in zip(starts, ends, reps)
    ]
    rep_tbl = batch.take(pa.array(reps, type=pa.int64()))
    rep_tbl = rep_tbl.set_column(
        rep_tbl.schema.get_field_index("payload"),
        "payload",
        pa.array(merged, type=batch.schema.field("payload").type),
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
