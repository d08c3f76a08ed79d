"""Cluster job entrypoint — the `ray job submit` deployment path.

On a real fixed-size cluster (north rule):

    ray job submit --working-dir /path/to/repo -- \
        python tools/submit_job.py --pipeline flagship \
        --input  /mnt/shared/cc_pages \
        --output /mnt/shared/out/run-001

The job connects to the cluster it was submitted to (``address="auto"``),
streams the input through the chosen pipeline, writes the result and a
one-line JSON metrics record under --output, and exits non-zero on
failure so the job API reports status faithfully.  Input and output must
be on storage every node can reach (object store / NFS — the same
requirement pipelines/export.py documents).

Locally (this sandbox, no cluster) the same script smoke-runs with
RAY_ADDRESS=local:

    RAY_ADDRESS=local python tools/submit_job.py --pipeline flagship \
        --input /tmp/qdr_cc_pages_bench --output /tmp/qdr_job_out

Pipelines:
  flagship  — the 12-spec / 9-family sketch build over a cc_pages table
              (url, warc_ts, html, text, lang); writes the per-metric
              sketch stats table.
  curation  — keep-first exact dedup x Gopher gates (pipelines/export.
              curation_v2) over (url, lang, text); writes per-lang funnel
              counts.
  ingest    — deterministic epoch-ordered consumption pass (pipelines/
              ingest) over a directory holding documents.parquet; writes
              per-split token/doc totals for the epoch (--epoch).  The
              trainer-side smoke of the training-ingest leg.
  convert   — JSONL dump (file or shard dir, .gz ok) → parquet shard dir
              (sources/textio.to_parquet_table): the one-time conversion
              every row-format crawl dump pays so downstream passes get
              real column pruning; writes the shards under --output and a
              row-count summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

import ray


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--pipeline",
        choices=["flagship", "curation", "ingest", "convert"],
        required=True,
    )
    ap.add_argument("--epoch", type=int, default=0, help="ingest pipeline: epoch number")
    ap.add_argument("--input", required=True, help="cc_pages parquet directory")
    ap.add_argument("--output", required=True, help="result directory (shared fs)")
    args = ap.parse_args()

    if not ray.is_initialized():
        # under `ray job submit` the address env is set by the job runtime;
        # "auto" attaches to that cluster, RAY_ADDRESS=local smoke-runs
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    os.makedirs(args.output, exist_ok=True)
    t0 = time.perf_counter()
    if args.pipeline == "flagship":
        from q_digest_ray.pipelines.flagship import run_cc_pages_flagship

        result = run_cc_pages_flagship(args.input)
    elif args.pipeline == "ingest":
        import pandas as pd

        from q_digest_ray.pipelines.ingest import (
            count_tokens_batch,
            iter_epoch_batches,
            split_bucket,
        )

        totals: dict[str, list[int]] = {}
        for split in ("train", "val", "test"):
            docs = toks = 0
            for b in iter_epoch_batches(
                args.input, epoch=args.epoch, batch_size=4096, split=split
            ):
                docs += b.num_rows
                toks += int(count_tokens_batch(b).sum())
            totals[split] = [docs, toks]
        result = pd.DataFrame(
            {
                "split": list(totals),
                "epoch": args.epoch,
                "n_docs": [v[0] for v in totals.values()],
                "total_tokens": [v[1] for v in totals.values()],
            }
        )
    elif args.pipeline == "convert":
        import pandas as pd

        from q_digest_ray.sources.textio import read_jsonl, to_parquet_table

        shard_dir = os.path.join(args.output, "converted")
        # materialize once: count()/schema() on the lazy Dataset would
        # re-execute the whole gzip JSONL parse per call
        ds = read_jsonl(args.input).materialize()
        to_parquet_table(ds, shard_dir)
        result = pd.DataFrame(
            {
                "n_rows": [ds.count()],
                "n_cols": [len(ds.schema().names)],
                "shards": [len(os.listdir(shard_dir))],
            }
        )
    else:
        from q_digest_ray.pipelines.export import curation_v2
        from q_digest_ray.sources.cc_pages import read_cc_pages

        result = curation_v2(
            read_cc_pages(args.input, columns=["url", "lang", "text"]),
            "url",
            "lang",
            "text",
        )
    wall = round(time.perf_counter() - t0, 3)

    out_path = os.path.join(args.output, f"{args.pipeline}_result.parquet")
    result.to_parquet(out_path, index=False)
    metrics = {
        "pipeline": args.pipeline,
        "input": args.input,
        "result_rows": int(len(result)),
        "wall_sec": wall,
        "result_path": out_path,
    }
    with open(os.path.join(args.output, "metrics.json"), "w") as f:
        json.dump(metrics, f)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(rc)
