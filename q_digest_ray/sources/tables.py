"""Testdata table readers — always column-pruned at the read."""

from __future__ import annotations

import glob
import os

import ray.data


def resolve_table_paths(sf_dir: str, name: str) -> list[str]:
    """Paths for table ``name``: either a single ``<name>.parquet`` file or a
    *directory of shards* (``<name>.parquet/`` or ``<name>/`` holding
    ``*.parquet``) — the layout every 100x-scale input actually has.
    Returns the sorted shard list (one element for the single-file case)."""
    base = os.path.join(sf_dir, f"{name}.parquet")
    for cand in (base, os.path.join(sf_dir, name)):
        if os.path.isfile(cand):
            return [cand]
        if os.path.isdir(cand):
            shards = sorted(glob.glob(os.path.join(cand, "*.parquet")))
            if shards:
                return shards
    raise FileNotFoundError(f"table {name!r} not found under {sf_dir} (file or shard dir)")


# bytes per read block for columnar (Parquet) inputs; row formats, which
# decompress 3-5x bigger, use sources.textio.ROW_BYTES_PER_BLOCK
PARQUET_BYTES_PER_BLOCK = 8 << 20


def cluster_cpus() -> int | None:
    """CPU count of the running Ray session, or None when none is up.  Never
    starts one: library code does not own the session."""
    if not ray.is_initialized():
        return None
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def derive_num_blocks(
    paths: list[str], cpus: int | None, bytes_per_block: int = PARQUET_BYTES_PER_BLOCK
) -> int:
    """Read-task count for whole files ``paths`` on a cluster of ``cpus``.

    ``by_bytes`` = summed size // ``bytes_per_block``, clamped to [1, 64],
    splits big files.  Small files are packed whole into
    ``min(len(paths), cpus)`` tasks: the cluster runs no more at once, and
    each extra task is a fixed scheduling cost (on 1 vCPU, a sketch job over
    12 ~350 KB shards took 0.52 s as 12 read tasks, 0.30 s as one) --
    Spark's ``maxPartitionBytes`` rule.  No file is split below the byte rule, so
    Ray's dynamic SplitBlocks path, which re-serializes blocks and explodes
    tiny tables into micro-blocks (BASELINE.md §4), never runs.
    ``cpus=None`` (no Ray session) keeps one task per file."""
    size = sum(os.path.getsize(p) for p in paths)
    by_bytes = max(1, min(64, size // bytes_per_block))
    per_file = len(paths) if cpus is None else min(len(paths), cpus)
    return max(by_bytes, per_file)


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """read_parquet with column pruning (only requested columns leave
    storage), accepting single-file AND sharded-directory table layouts
    (see resolve_table_paths / derive_num_blocks)."""
    paths = resolve_table_paths(sf_dir, name)
    if override_num_blocks is None:
        override_num_blocks = derive_num_blocks(paths, cluster_cpus())
    return ray.data.read_parquet(
        paths, columns=columns, override_num_blocks=override_num_blocks
    )


def read_jsonl(
    path: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """JSON-lines source (file or directory of shards).  Ray's JSON reader
    has no projection pushdown (a text format can't prune I/O), so column
    pruning happens immediately after parse via ``select_columns`` — rows
    leave the read stage already narrowed."""
    ds = ray.data.read_json(path, override_num_blocks=override_num_blocks)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def read_csv(
    path: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """CSV source with TRUE projection pushdown: Arrow's CSV convert
    option parses only the requested columns, so unwanted columns are
    dropped during parsing, not after."""
    from pyarrow import csv as pa_csv

    kwargs = {}
    if columns:
        kwargs["convert_options"] = pa_csv.ConvertOptions(include_columns=columns)
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    return ray.data.read_csv(path, **kwargs)


def read_table_arrow(
    sf_dir: str, name: str, columns: list[str] | None = None, filters=None
):
    """Small-side table as a pyarrow Table (for broadcast joins).

    ``filters`` (DNF, e.g. ``[("vec_id", "==", 0)]``) push row-group /
    dictionary pruning into the parquet read — REQUIRED when fetching a few
    rows from a fact-sized table (a filterless driver read of a big table
    is a scale bug)."""
    import pyarrow.parquet as pq

    paths = resolve_table_paths(sf_dir, name)
    return pq.read_table(
        paths[0] if len(paths) == 1 else paths, columns=columns, filters=filters
    )


def column_min_max(sf_dir: str, name: str, column: str):
    """(min, max) of a column from parquet FOOTER STATISTICS — zero data
    scan; the way a 100-TB pipeline gets a time-range boundary (every
    row-group footer carries min/max).  Returns None when any row group
    lacks statistics for the column (caller falls back to a column scan).
    Timestamps come back as their raw physical values (pyarrow converts
    to datetime; callers normalize)."""
    import pyarrow.parquet as pq

    paths = resolve_table_paths(sf_dir, name)
    lo = hi = None
    for p in paths:
        md = pq.ParquetFile(p).metadata
        try:
            idx = md.schema.names.index(column)
        except ValueError:
            return None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                return None
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        return None
    return lo, hi
