"""Row-format ingest interop: JSONL / CSV readers + JSONL sink.

Raw web-crawl and annotation dumps arrive as JSONL (one object per line,
often gzipped) or CSV long before anyone converts them to parquet; the
standard first step of a 100-TB pipeline is exactly
``jsonl → (schema check) → partitioned parquet``.  These wrappers give
that leg the same ergonomics as ``sources/tables.read_table``:

- shard-dir OR single-file inputs (``resolve_shards``), sorted for
  deterministic block order;
- the read-task count from the one read-plan rule,
  ``sources.tables.derive_num_blocks``: split by SUMMED shard bytes, pack
  small whole shards into at most one task per cluster CPU — row formats
  decompress ~3-5x bigger than parquet, so the per-block byte target is
  smaller;
- ``columns=`` pruning applied right after parse.  Unlike parquet this
  CANNOT skip bytes at the read (row formats have no column chunks) —
  the reader documents that honestly; convert to parquet once
  (``to_parquet_table``) and every later pass gets real read pruning.

Gzip shards (``*.jsonl.gz``/``*.csv.gz``) decompress transparently via
Arrow's extension-based codec detection inside the datasource.
"""

from __future__ import annotations

import glob
import os

import ray.data

from q_digest_ray.sources.tables import cluster_cpus, derive_num_blocks

ROW_BYTES_PER_BLOCK = 2 << 20


def resolve_shards(path: str, exts: tuple[str, ...]) -> list[str]:
    """``path`` is one shard file or a directory of them; sorted list."""
    if os.path.isfile(path):
        return [path]
    if os.path.isdir(path):
        shards: list[str] = []
        for e in exts:
            shards.extend(glob.glob(os.path.join(path, f"*{e}")))
        if shards:
            return sorted(shards)
    raise FileNotFoundError(f"no {'/'.join(exts)} shards at {path!r}")


def read_jsonl(
    path: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
):
    """JSONL (newline-delimited objects, optionally ``.gz``) → Dataset.

    Only ``.jsonl``/``.jsonl.gz`` shards resolve: a conventional ``.json``
    file usually holds one top-level ARRAY, which the line-delimited
    reader would reject with an opaque mid-read Arrow error — better to
    refuse the extension up front."""
    paths = resolve_shards(path, (".jsonl", ".jsonl.gz"))
    ds = ray.data.read_json(
        paths,
        override_num_blocks=override_num_blocks
        or derive_num_blocks(paths, cluster_cpus(), ROW_BYTES_PER_BLOCK),
    )
    return ds.select_columns(columns) if columns else ds


def read_csv_table(
    path: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
):
    """CSV (header row, optionally ``.gz``) → Dataset."""
    paths = resolve_shards(path, (".csv", ".csv.gz"))
    ds = ray.data.read_csv(
        paths,
        override_num_blocks=override_num_blocks
        or derive_num_blocks(paths, cluster_cpus(), ROW_BYTES_PER_BLOCK),
    )
    return ds.select_columns(columns) if columns else ds


def write_jsonl(ds, out_dir: str) -> None:
    """Dataset → JSONL shard directory (one file per block; the export
    shape downstream labelling / inspection tools expect)."""
    ds.write_json(out_dir)


def to_parquet_table(ds, out_dir: str) -> None:
    """The conversion step every row-format dump should pass through
    exactly once: Dataset → parquet shard dir readable by
    ``sources/tables.read_table`` (put it at ``<sf_dir>/<name>/``), after
    which all downstream passes get real column/row-group pruning."""
    ds.write_parquet(out_dir)
