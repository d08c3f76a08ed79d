"""Sketch-row merge stages (the UDAF *merge* leg).

One fold, mirroring the reference's intended TreeAllreduce
(/root/reference/mpi-implementation/src/treeReduce.c:31-90 — unfinished
there; the authoritative semantics are serial merge(), src/qcore.c:390-417):

1. ``combine_sketch_rows`` — a map_batches combiner that merges rows sharing
   (metric, sketch, group_key) *within each block*.  It collapses
   num_blocks × groups rows down to ~groups per block, so every later step
   only moves tiny pre-merged payloads.
2. ``merge_grouped`` — runs the combiner once per block, fused into the
   read/build task (one Ray Data task per input split, no exchange), and
   adds 8x coalesce rounds only when there are very many blocks.
3. ``collect_sketches`` — the last fold, on the driver: concatenates the
   combined blocks and runs the same combiner once before decoding, like
   the reference's reduce to the root rank.  Handles both grouped sketches
   and the global (group_key="") fold in one uniform step.

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
    cls = sketch_class(kind)  # one registry lookup per group
    return cls.merge_many([cls.from_bytes(p) for p in payloads]).to_bytes()


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


# above this many blocks, merge_grouped adds one 8x coalesce round per factor
# of 8, so the driver's final fold sees at most this many combined blocks
FINAL_FOLD_MAX_BLOCKS = 512


def merge_grouped(sketch_rows_ds):
    """Dataset of sketch rows → Dataset of combined sketch rows: at most one
    row per (metric, group) *per block*.  ``collect_sketches`` does the last
    fold on the driver.

    The combiner runs with ``batch_size=None``, so Ray Data fuses it — and
    the build and read before it — into one task per input split; a row
    count there (Ray's ``min_rows_per_bundled_input``) would keep the read a
    separate operator.  Rounds are derived from a public-API block-count
    estimate (partitioning.estimate_num_blocks; file count ~= block count at
    production scale): 0 rounds up to ``FINAL_FOLD_MAX_BLOCKS`` blocks, then
    one 8x coalesce round per factor of 8 above it (a 1M-block input gets 4
    rounds) — the log-depth fold the reference's TreeAllreduce intended,
    expressed as data movement.
    """
    from q_digest_ray.stages.partitioning import estimate_num_blocks

    nb = estimate_num_blocks(sketch_rows_ds)
    ds = sketch_rows_ds.map_batches(
        combine_sketch_rows, batch_format="pyarrow", batch_size=None
    )
    target = nb
    while target > FINAL_FOLD_MAX_BLOCKS:
        target //= 8
        ds = ds.repartition(max(8, target)).map_batches(
            combine_sketch_rows, batch_format="pyarrow", batch_size=None
        )
    return ds


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
    """Combined sketch rows → {(metric, group_key): sketch object}: one
    combine over every block's rows on the driver (the final fold), then one
    decode per (metric, group)."""
    blocks = [
        b
        for b in merged_ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    if not blocks:
        return {}
    t = combine_sketch_rows(pa.concat_tables(blocks))
    cols = (t[c].to_pylist() for c in ("metric", "group_key", "sketch", "payload"))
    return {
        (metric, key): sketch_from_bytes(kind, payload)
        for metric, key, kind, payload in zip(*cols)
    }
