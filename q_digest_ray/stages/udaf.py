"""Native Ray Data UDAF surface for the sketch family.

``sketch_aggregate(spec)`` wraps any SketchSpec as a
``ray.data.aggregate.AggregateFn`` so sketches compose with the stock
Dataset aggregation API:

    ds.aggregate(sketch_aggregate(spec))                     # global
    ds.groupby("lang").aggregate(sketch_aggregate(spec))     # grouped

This is the literal "commutative/associative per-partition UDAF" shape the
north rule names (init = create_tmp_q, accumulate = insert, merge = merge,
finalize = percentile — /root/reference/src/qcore.c:64,201,390,379): Ray
calls ``init`` once per (group) accumulator, ``accumulate_block`` once per
block, tree-``merge``s partials across the exchange, then ``finalize``.

Performance note: ``Dataset.groupby().aggregate`` pays Ray's fixed
sort-based exchange (~seconds at small scale, an all-to-all at cluster
scale) even though sketch partials are tiny.  The repo's two-phase
build/merge path (stages/build.py + stages/merge.py) produces the same
estimates while moving only pre-combined sketch rows, and stays the
recommended path for hot pipelines (BASELINE.md §4); this wrapper is the
API-compatibility surface for code written against stock Ray Data.
"""

from __future__ import annotations

from typing import Any, Callable

import pyarrow as pa

from ray.data.aggregate import AggregateFn

from q_digest_ray.sketches.base import sketch_class
from q_digest_ray.stages.build import SketchSpec, update_sketch


def _accumulate(spec: SketchSpec, sk, block):
    """One Ray block (Arrow or pandas) into a sketch, through the build
    stage's insert rule."""
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return sk if block.num_rows == 0 else update_sketch(sk, spec, block)


def sketch_aggregate(
    spec: SketchSpec,
    finalize: Callable[[Any], Any] | None = None,
    name: str | None = None,
) -> AggregateFn:
    """SketchSpec → ray.data.aggregate.AggregateFn.

    ``finalize`` maps the merged sketch to the result cell (e.g.
    ``lambda sk: sk.quantile(0.99)``); default is the serialized sketch
    bytes, decodable with ``sketches.base.sketch_from_bytes(spec.kind, b)``.
    ``spec.group_by`` is ignored here — grouping belongs to
    ``ds.groupby(...)`` on this surface.
    """
    cls = sketch_class(spec.kind)
    decode = cls.from_bytes
    # the accumulator is the sketch's bytes: Ray stores accumulators in Arrow
    # blocks, which cannot hold live sketch objects
    return AggregateFn(
        init=lambda _k: spec.make().to_bytes(),
        accumulate_block=lambda acc, block: _accumulate(spec, decode(acc), block).to_bytes(),
        merge=lambda a, b: cls.merge_many([decode(a), decode(b)]).to_bytes(),
        finalize=(lambda acc: acc) if finalize is None else (lambda acc: finalize(decode(acc))),
        name=name or spec.metric,
    )


def quantile_aggregate(spec: SketchSpec, p: float, name: str | None = None) -> AggregateFn:
    """Convenience: a quantile sketch spec finalized straight to q(p)."""
    return sketch_aggregate(
        spec,
        finalize=lambda sk: float(sk.quantile(p)),
        name=name or f"{spec.metric}_p{int(round(p * 100))}",
    )


def distinct_aggregate(spec: SketchSpec, name: str | None = None) -> AggregateFn:
    """Convenience: a distinctness sketch spec finalized to its estimate."""
    return sketch_aggregate(
        spec,
        finalize=lambda sk: float(sk.estimate()),
        name=name or f"{spec.metric}_distinct",
    )
