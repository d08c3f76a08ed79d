"""Per-partition checkpoint/resume with lineage + metrics (north rule).

Layout (the "resumable output" pattern):

    out_dir/
      part-00007.parquet            # one output per input shard, atomic
      _manifest/part-00007.json     # lineage: input path+fingerprint, rows
                                    # in/out, wall time, output sha256, ts

A shard is DONE iff its manifest entry exists and its recorded input
fingerprint (size, mtime_ns) still matches the input file.  Resume =
process only the shards that are not done — a crashed/killed run loses at
most the in-flight shards.  The reference has no checkpointing at all
(SURVEY.md §4: PBS jobs rerun by hand); this is the Ray-native design the
north rule mandates.

Shard processing runs as a Ray Data pipeline over shard descriptors; the
heavy rows stay inside each task (read→transform→write locally), so the
object store only carries tiny manifest rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq


def _fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


def _manifest_path(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, "_manifest", f"part-{idx:05d}.json")


def _output_path(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, f"part-{idx:05d}.parquet")


def shard_done(out_dir: str, idx: int, input_path: str) -> bool:
    mp = _manifest_path(out_dir, idx)
    if not os.path.exists(mp) or not os.path.exists(_output_path(out_dir, idx)):
        return False
    try:
        with open(mp) as f:
            entry = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    return (
        entry.get("input") == input_path
        and entry.get("input_fingerprint") == _fingerprint(input_path)
    )


class _ShardWorker:
    """Processes one shard per input row: read → fn → atomic write + manifest."""

    def __init__(self, out_dir: str, shard_fn: Callable[[pa.Table], pa.Table], columns):
        self.out_dir = out_dir
        self.shard_fn = shard_fn
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        entries = []
        for row in batch.to_pylist():
            idx, path = int(row["idx"]), row["path"]
            t0 = time.perf_counter()
            # fingerprint BEFORE reading: if the input is replaced while we
            # process, the manifest must NOT pair the new fingerprint with
            # output from the old bytes (resume would skip recomputation)
            fingerprint = _fingerprint(path)
            table = pq.read_table(path, columns=self.columns)
            out = self.shard_fn(table)
            out_path = _output_path(self.out_dir, idx)
            tmp = out_path + f".tmp.{os.getpid()}"
            pq.write_table(out, tmp, compression="zstd")
            with open(tmp, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            os.replace(tmp, out_path)  # atomic publish
            entry = {
                "idx": idx,
                "input": path,
                "input_fingerprint": fingerprint,
                "rows_in": table.num_rows,
                "rows_out": out.num_rows,
                "output_sha256": digest,
                "wall_sec": round(time.perf_counter() - t0, 4),
                "completed_at": time.time(),
            }
            mp = _manifest_path(self.out_dir, idx)
            with open(mp + f".tmp.{os.getpid()}", "w") as f:
                json.dump(entry, f)
            os.replace(mp + f".tmp.{os.getpid()}", mp)
            entries.append(
                {"idx": idx, "rows_in": entry["rows_in"], "rows_out": entry["rows_out"]}
            )
        return pa.Table.from_pylist(
            entries,
            schema=pa.schema(
                [("idx", pa.int64()), ("rows_in", pa.int64()), ("rows_out", pa.int64())]
            ),
        )


def process_shards(
    shard_paths: list[str],
    out_dir: str,
    shard_fn: Callable[[pa.Table], pa.Table],
    columns: list[str] | None = None,
    resume: bool = True,
) -> dict:
    """Run shard_fn over every input shard, skipping finished ones.

    Returns {"processed": n, "skipped": n, "total": n}.
    """
    import ray.data

    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    pending = []
    skipped = 0
    for i, p in enumerate(shard_paths):
        if resume and shard_done(out_dir, i, p):
            skipped += 1
        else:
            pending.append({"idx": i, "path": p})
    if pending:
        ds = ray.data.from_items(pending).repartition(len(pending))
        worker = _ShardWorker(out_dir, shard_fn, columns)
        ds.map_batches(worker, batch_format="pyarrow", batch_size=1).materialize()
    return {"processed": len(pending), "skipped": skipped, "total": len(shard_paths)}


def read_manifest(out_dir: str) -> list[dict]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return []
    out = []
    for f in sorted(os.listdir(mdir)):
        if f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                out.append(json.load(fh))
    return out


# ---------------------------------------------------------------------------
# resumable flagship: per-shard sketch rows → fold merge
# ---------------------------------------------------------------------------


def resumable_sketch_build(
    cc_dir: str, out_dir: str, specs=None, resume: bool = True
):
    """Checkpointed variant of the cc_pages flagship: stage 1 writes one
    sketch-row parquet per input shard (resumable); stage 2 folds the tiny
    sketch rows into final stats.  A killed run re-does only unfinished
    shards."""
    import ray.data

    from q_digest_ray.pipelines.flagship import cc_pages_specs, finalize
    from q_digest_ray.sources.tables import cluster_cpus, derive_num_blocks
    from q_digest_ray.stages.build import SketchBuilder
    from q_digest_ray.stages.extract import extract_and_project
    from q_digest_ray.stages.merge import collect_sketches, merge_grouped

    specs = specs or cc_pages_specs()
    builder = SketchBuilder(specs)

    def shard_fn(table: pa.Table) -> pa.Table:
        return builder(extract_and_project(table))

    shard_paths = sorted(
        os.path.join(cc_dir, f) for f in os.listdir(cc_dir) if f.endswith(".parquet")
    )
    stats = process_shards(
        shard_paths,
        out_dir,
        shard_fn,
        columns=["url", "html", "lang"],
        resume=resume,
    )
    # merge ONLY the outputs of the current shard list — never glob the
    # directory, or stale part files from a previously larger input would be
    # silently double-counted
    outputs = [_output_path(out_dir, i) for i in range(len(shard_paths))]
    rows = ray.data.read_parquet(
        outputs, override_num_blocks=derive_num_blocks(outputs, cluster_cpus())
    )
    result = finalize(collect_sketches(merge_grouped(rows)))
    return result, stats
