"""Benchmark inputs.

The cc_pages tables are a pure function of ``(seed, rows, shards)``: they come
from the repo's own ``sources.cc_pages.synthesize`` and are cached under
``perfbench/.cache`` (it keeps its own manifest).

The sketch-query mix reads ``perfbench/sf0.1``: byte-identical copies of the
sf0.1 ``documents`` (5k docs) and ``events`` (100k events) tables of the
repo's test data (see TESTDATA.md), kept here so the benchmark reads nothing
outside its checkout.  ``sf01()`` checks them against their SHA-256.
"""

from __future__ import annotations

import hashlib
import os
import shutil

from q_digest_ray.sources.cc_pages import synthesize

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")
SF01 = os.path.join(HERE, "sf0.1")
SF01_SHA256 = {
    "documents.parquet": "d10b0da67e5aceb465e89365781dab5c69d3c62b64a8308398c6fd3fb09bcf82",
    "events.parquet": "1d18f4489b6c943be2ec8514f0e368199076bbd68d3daf19feef863960f2afe2",
}
KEEP_INPUTS = 12  # seeded cc_pages sets kept on disk, most recently used first


def shard_paths(cc_dir: str) -> list[str]:
    return sorted(os.path.join(cc_dir, f) for f in os.listdir(cc_dir) if f.endswith(".parquet"))


def cc_pages(seed: int, rows: int, shards: int) -> str:
    """Directory of ``shards`` one-block parquet shards (cached; the least
    recently used sets beyond ``KEEP_INPUTS`` are removed)."""
    out = synthesize(os.path.join(CACHE, f"cc_{seed}_{rows}_{shards}"), rows, shards=shards, seed=seed)
    os.utime(out)
    sets = sorted(
        (e for e in os.scandir(CACHE) if e.is_dir() and e.name.startswith("cc_")),
        key=lambda e: e.stat().st_mtime,
        reverse=True,
    )
    for e in sets[KEEP_INPUTS:]:
        shutil.rmtree(e.path, ignore_errors=True)
    return out


def sf01() -> str:
    """The sf0.1 directory of the query mix, after checking its contents."""
    for name, digest in SF01_SHA256.items():
        with open(os.path.join(SF01, name), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != digest:
                raise RuntimeError(f"{SF01}/{name} differs from the sf0.1 table it copies")
    return SF01
