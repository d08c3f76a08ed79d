"""Deterministic Common-Crawl-style page table (FIXTURES.md F1).

Schema per the BASELINE.json input_hint:
    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

Invariant: ``extract_text(html) == text`` byte-identical per url — guaranteed
by construction (html embeds text through a fixed template) and asserted by
tests.  ~2% of rows repeat an earlier row (same url AND same html/text, newer
warc_ts) so distinct-count / Bloom / dedup paths have real duplicates.

Generation is seeded and content-hashed; output is sharded Parquet so reads
parallelize and a resumable run can skip finished shards.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LANGS = ["en", "de", "fr", "es", "it", "pt", "nl", "ru", "ja", "zh"]
# Zipf-ish weights, en-heavy (~45%) per FIXTURES.md
_LANG_WEIGHTS = np.array([45, 12, 9, 8, 6, 5, 4, 4, 4, 3], dtype=np.float64)
_LANG_PROBS = _LANG_WEIGHTS / _LANG_WEIGHTS.sum()

_HTML_PREFIX = b"<html><head><title>"
_HTML_MID = b"</title></head><body><p>"
_HTML_SUFFIX = b"</p></body></html>"

N_HOSTS = 1000


def _token_pool(rng: np.random.Generator, pool_chars: int = 4_000_000) -> str:
    """One long deterministic 'token soup' string of [a-z ] characters;
    row texts are slices of it (vectorized generation at any scale)."""
    # ~15% spaces, rest lowercase letters
    chars = rng.integers(0, 100, pool_chars)
    out = np.where(chars < 15, 32, 97 + (chars % 26)).astype(np.uint8)
    # avoid leading/trailing pathological runs: force non-space boundaries
    out[0] = 97
    out[-1] = 122
    return out.tobytes().decode("ascii")


def generate_shard(
    shard: int, rows: int, seed: int = 42, pool: str | None = None
) -> pa.Table:
    """Deterministic shard: same (shard, rows, seed) → identical bytes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard]))
    if pool is None:
        pool = _token_pool(np.random.default_rng(np.random.SeedSequence([seed, 7777])))
    pool_len = len(pool)

    # hosts: Zipf(s=1.2) over N_HOSTS (hot url_host partitions per north rule)
    ranks = np.arange(1, N_HOSTS + 1, dtype=np.float64)
    host_probs = ranks**-1.2
    host_probs /= host_probs.sum()
    hosts = rng.choice(N_HOSTS, size=rows, p=host_probs)
    langs = rng.choice(len(LANGS), size=rows, p=_LANG_PROBS)

    # heavy-tailed text length (chars), lognormal(6.2, 1.1) clipped
    lens = np.clip(rng.lognormal(6.2, 1.1, rows), 10, 100_000).astype(np.int64)
    offsets = rng.integers(0, pool_len, rows)

    base = shard * 10_000_000
    idx = base + np.arange(rows)
    urls = [f"https://host{h}.example.com/p/{i}" for h, i in zip(hosts, idx)]
    texts = []
    for o, l in zip(offsets, lens):
        o = int(o)
        l = int(l)
        if o + l <= pool_len:
            t = pool[o : o + l]
        else:
            t = (pool[o:] + pool * (1 + (o + l - pool_len) // pool_len))[:l]
        texts.append(t)

    # ~2% duplicates: row j copies an earlier row's url/text (newer timestamp)
    dup_mask = rng.random(rows) < 0.02
    dup_src = rng.integers(0, rows, rows)
    for j in np.flatnonzero(dup_mask):
        s = int(dup_src[j])
        if s == j:
            continue
        urls[j] = urls[s]
        texts[j] = texts[s]
        langs[j] = langs[s]

    text_arr = pa.array(texts, type=pa.string())
    url_arr = pa.array(urls, type=pa.string())
    html_arr = pc.binary_join_element_wise(
        pa.scalar(_HTML_PREFIX, type=pa.binary()),
        url_arr.cast(pa.binary()),
        pa.scalar(_HTML_MID, type=pa.binary()),
        text_arr.cast(pa.binary()),
        pa.scalar(_HTML_SUFFIX, type=pa.binary()),
        pa.scalar(b"", type=pa.binary()),
    )
    ts = pa.array(
        1735689600_000_000 + (base + np.arange(rows)) * 137_000_000,
        type=pa.timestamp("us"),
    )
    lang_arr = pa.array([LANGS[i] for i in langs], type=pa.string())
    return pa.table(
        {
            "url": url_arr,
            "warc_ts": ts,
            "html": html_arr,
            "text": text_arr,
            "lang": lang_arr,
        }
    )


def synthesize(
    out_dir: str, total_rows: int, shards: int = 16, seed: int = 42, force: bool = False
) -> str:
    """Write the sharded cc_pages table; cached by a manifest of parameters."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    params = {"total_rows": total_rows, "shards": shards, "seed": seed, "v": 3}
    if not force and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            if json.load(f).get("params") == params:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    # remove stale shards from a previous layout (read_cc_pages globs the
    # directory; leftovers would silently inflate the table)
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            os.remove(os.path.join(out_dir, f))
    pool = _token_pool(np.random.default_rng(np.random.SeedSequence([seed, 7777])))
    per = total_rows // shards
    digests = []
    for s in range(shards):
        rows = per + (total_rows - per * shards if s == shards - 1 else 0)
        t = generate_shard(s, rows, seed=seed, pool=pool)
        path = os.path.join(out_dir, f"part-{s:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(t, tmp, compression="zstd")
        os.replace(tmp, path)  # atomic per shard
        digests.append(hashlib.sha256(t["url"].combine_chunks().to_string().encode()).hexdigest()[:16])
    with open(manifest_path + ".tmp", "w") as f:
        json.dump({"params": params, "shard_digests": digests}, f)
    os.replace(manifest_path + ".tmp", manifest_path)
    return out_dir


def read_cc_pages(dir_path: str, columns: list[str] | None = None):
    import ray.data

    from q_digest_ray.sources.tables import cluster_cpus, derive_num_blocks

    paths = sorted(
        os.path.join(dir_path, f)
        for f in os.listdir(dir_path)
        if f.endswith(".parquet")
    )
    # whole shards packed by the one read-plan rule: never split below 8 MB
    # (Ray's dynamic SplitBlocks re-serializes the heavy binary column,
    # measured 7-10x slower on this table), never more tasks than files or
    # cluster CPUs
    return ray.data.read_parquet(
        paths,
        columns=columns,
        override_num_blocks=derive_num_blocks(paths, cluster_cpus()),
    )
