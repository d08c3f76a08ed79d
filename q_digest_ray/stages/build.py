"""Per-block sketch build stage (the UDAF *update* leg, SURVEY.md §3.4).

``update_sketch`` is the one insert rule every build path shares.  It knows
no sketch family by name: each family's class (``sketches/``) is its only
definition, and the rule reads the class's ``input_form`` (which form of the
column the family takes) and ``weighted`` (whether it takes weights) via the
registry (``sketches.base.sketch_class``).  ``SketchBuilder`` is a plain
``map_batches`` callable — an instance, so Ray Data runs it as tasks — that
turns each batch into one tiny "sketch row" per (spec × group), the
mergeable-summary IR:

    metric: string, sketch: string, group_key: string, payload: binary, n: int64

State is shipped onward as data (sketches ARE mergeable state), so the build
stage is embarrassingly parallel and the only wide operation in the whole
pipeline is the tiny grouped merge of these rows (stages/merge.py) — the
reference's "ship the sketch, not the data" strategy
(/root/reference/mpi-implementation/README.md:29-35) in Ray Data form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.sketches.base import sketch_class

GLOBAL_KEY = ""


@dataclass(frozen=True)
class SketchSpec:
    """One sketch to maintain over one column, optionally grouped."""

    metric: str  # output name, unique per spec
    column: str  # input column
    kind: str  # a registered sketch kind (sketches.base.sketch_class)
    params: dict = field(default_factory=dict)
    group_by: str | None = None  # group column (small cardinality) or None
    # weighted inserts (reference insert(key, count), src/qcore.c:201): each
    # row's value counts weight_column times — the pre-aggregated-histogram
    # path (the class's ``weighted`` says which kinds take weights)
    weight_column: str | None = None

    def make(self):
        return sketch_class(self.kind)(**self.params)


def _column_input(col: pa.ChunkedArray, form: str):
    """``col`` in input form ``form`` (a sketch class's ``input_form``)."""
    if form == "hashed":
        return hash64(col)
    if form == "arrow":
        return col.combine_chunks()
    if form == "matrix":
        arr = col.combine_chunks()
        # flatten() honors slice offsets
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(arr), -1) if len(arr) else np.zeros((0, 0))
    return col.to_numpy(zero_copy_only=False)


def update_sketch(sk, spec: SketchSpec, batch: pa.Table, sel=None, values=None):
    """Insert rows ``sel`` (all rows when None) of ``batch`` into ``sk``.

    The one insert rule for every build path (SketchBuilder, the
    ``sketch_aggregate`` UDAF).  ``values`` is the column in ``sk``'s
    ``input_form`` when the caller already has it — SketchBuilder converts
    (and hashes) each column once per batch, for every spec and group.
    Returns ``sk``."""
    form = sk.input_form
    v = _column_input(batch[spec.column], form) if values is None else values
    if sel is not None:
        v = v.take(pa.array(sel)) if form == "arrow" else v[sel]
    update = sk.update_hashed if form == "hashed" else sk.update_batch
    if spec.weight_column is None:
        update(v)
    else:
        w = batch[spec.weight_column].to_numpy(zero_copy_only=False)
        sk.check_weights(w)
        update(v, weights=w if sel is None else w[sel])
    return sk


def _groups(batch: pa.Table, spec: SketchSpec):
    """(group label, row positions) per non-null group of ``spec.group_by``."""
    gcol = batch[spec.group_by].combine_chunks()
    # rows with a null group key are excluded from grouped sketches
    # (dictionary_encode yields NaN codes otherwise)
    valid_idx = None
    if gcol.null_count:
        valid_idx = np.flatnonzero(gcol.is_valid().to_numpy(zero_copy_only=False))
        gcol = gcol.take(pa.array(valid_idx))
    enc = gcol.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    labels = enc.dictionary.to_pylist()
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    bounds = np.r_[starts, len(sorted_codes)]
    for gi in range(len(starts)):
        sel = order[bounds[gi] : bounds[gi + 1]]
        if valid_idx is not None:
            sel = valid_idx[sel]  # back to full-column positions
        yield str(labels[sorted_codes[starts[gi]]]), sel


class SketchBuilder:
    """map_batches callable: Arrow batch in → sketch rows out."""

    def __init__(self, specs: list[SketchSpec]):
        self.specs = list(specs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        metrics: list[str] = []
        kinds: list[str] = []
        keys: list[str] = []
        payloads: list[bytes] = []
        ns: list[int] = []
        # each column converted (hashing kinds: hashed) ONCE per batch,
        # shared by every spec and group that reads it
        inputs: dict[tuple[str, str], object] = {}
        for spec in self.specs:
            cache_key = (spec.column, sketch_class(spec.kind).input_form)
            if cache_key not in inputs:
                inputs[cache_key] = _column_input(batch[spec.column], cache_key[1])
            groups = [(GLOBAL_KEY, None)] if spec.group_by is None else _groups(batch, spec)
            for key, sel in groups:
                sk = update_sketch(spec.make(), spec, batch, sel, inputs[cache_key])
                metrics.append(spec.metric)
                kinds.append(spec.kind)
                keys.append(key)
                payloads.append(sk.to_bytes())
                ns.append(sk.n)
        return pa.table(
            {
                "metric": pa.array(metrics, pa.string()),
                "sketch": pa.array(kinds, pa.string()),
                "group_key": pa.array(keys, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
                "n": pa.array(ns, pa.int64()),
            }
        )


def build_sketches(ds, specs: list[SketchSpec], batch_size: int | None = None):
    """Dataset of input rows → Dataset of sketch rows (one per spec×group×block)."""
    return ds.map_batches(
        SketchBuilder(specs),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
