"""Size-derived hash-bucket counts for the coarse-bucket groupby pattern.

Every bucketed exchange in the engine (exact dedup, distinct count,
sessionize, MinHash/SimHash band buckets, bucketed joins) partitions rows
into B coarse hash buckets and processes each bucket in one task.  B must
grow with data volume so a single bucket always fits a task's memory:
SCALE.md's rule is B ~= input_bytes / 1 GiB (clamped, rounded to a power of
two so bucket assignment is a mask).

At sf0.01 test scale every table derives the minimum (8); at 100 TB the
same code derives ~100k buckets.  Results are B-invariant by construction
(each bucket is an independent exact sub-problem) — asserted by the
parametrized oracle tests in tests/test_bucketing.py.
"""

from __future__ import annotations

DEFAULT_PER_BUCKET_BYTES = 1 << 30  # 1 GiB of input per bucket-task
MIN_BUCKETS = 8
MAX_BUCKETS = 1 << 17


def derive_buckets(
    ds=None,
    *,
    size_bytes: int | None = None,
    per_bucket_bytes: int = DEFAULT_PER_BUCKET_BYTES,
    min_buckets: int = MIN_BUCKETS,
    max_buckets: int = MAX_BUCKETS,
) -> int:
    """Bucket count for a dataset (or explicit byte size), power of two.

    ``ds.size_bytes()`` on a fresh ``read_parquet`` dataset comes from file
    metadata (no execution); if it is unavailable (already-transformed
    dataset, estimation failure) the minimum is used — callers that know
    better pass ``size_bytes`` explicitly.
    """
    if size_bytes is None and ds is not None:
        try:
            size_bytes = ds.size_bytes()
        except Exception:
            size_bytes = None
    if not size_bytes or size_bytes <= 0:
        return _pow2(min_buckets)
    b = -(-int(size_bytes) // per_bucket_bytes)  # ceil
    return _pow2(max(min_buckets, min(max_buckets, b)))


def _pow2(b: int) -> int:
    return 1 << max(0, int(b) - 1).bit_length()


def estimate_num_blocks(ds) -> int:
    """Pre-execution block-count estimate, public Dataset APIs first.

    Drives the auto-derived tree-fold depth in stages/merge.merge_grouped
    (how many 8x coalesce rounds before the driver's final fold).  The r2
    code relied solely on
    ``ds._plan.initial_num_blocks()`` — a private attribute a Ray upgrade
    could silently remove, disabling the auto-fold (r2 VERDICT item 8).
    Signals, in order:

    - ``ds.num_blocks()`` — exact, but only for MaterializedDataset;
    - ``len(ds.input_files())`` — metadata-only for parquet-backed lineage;
      with production-sized files (the 100-TB case, where fold depth
      actually matters) file count ~= block count.  NOT ``size_bytes()``,
      which EXECUTES transformed datasets;
    - the private plan counter as a guarded LAST resort, for lazy
      in-memory lineage only (no files to count).

    The estimate only needs the right order of magnitude: fold rounds are
    log8 of it, and +-1 round is harmless (each round is a cheap coalesce
    of tiny pre-combined rows).
    """
    try:
        return int(ds.num_blocks())
    except Exception:
        pass
    try:
        nf = len(ds.input_files() or [])
        if nf:
            return nf
    except Exception:
        pass
    # last resort for lazy IN-MEMORY lineage (from_pandas/from_items/union
    # — no input files): the private plan counter, guarded so a Ray
    # upgrade removing it degrades to 0 (auto-fold off) instead of
    # crashing.  Without this, many-block in-memory sketch-row datasets
    # would silently lose the fold protection the estimate exists for.
    try:
        return int(ds._plan.initial_num_blocks())
    except Exception:
        return 0
