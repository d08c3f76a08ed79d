"""Flagship pipeline: web-page table → per-metric sketch estimates.

read_parquet → [extract html→text + project metrics] → per-block sketch
build (Ray tasks) → combiner → one fold of the sketch rows →
finalize to a small result table:

    metric | group_key | stat | value

Runs against either the synthesized cc_pages table (bench; FIXTURES.md F1)
or the driver's ``documents`` table (playing cc_pages per FIXTURES.md F4:
n_chars ≈ text_len, lang groups).
"""

from __future__ import annotations

import pandas as pd

from q_digest_ray.sources.tables import read_table
from q_digest_ray.stages.build import SketchSpec, build_sketches
from q_digest_ray.stages.extract import extract_and_project
from q_digest_ray.stages.merge import collect_sketches, merge_grouped

QUANTILE_PS = (0.5, 0.9, 0.99)


def documents_specs() -> list[SketchSpec]:
    return [
        SketchSpec("n_chars_qdigest", "n_chars", "qdigest", {"k": 256, "universe_bits": 20}),
        SketchSpec("n_chars_qdigest_by_lang", "n_chars", "qdigest", {"k": 256, "universe_bits": 20}, group_by="lang"),
        SketchSpec("n_chars_tdigest", "n_chars", "tdigest", {"delta": 200}),
        SketchSpec("n_chars_kll", "n_chars", "kll", {"k": 200}),
        SketchSpec("n_chars_dds", "n_chars", "dds", {"alpha": 0.01}),
        SketchSpec("distinct_text_hll", "text", "hll", {"p": 12}),
        SketchSpec("lang_cms", "lang", "cms", {"depth": 5, "width": 2048}),
        # eleventh family (r5): Count-Sketch — unbiased two-sided frequency
        # + F2/join-size estimates, turnstile-capable (CMS's complement)
        SketchSpec("lang_csk", "lang", "csk", {"depth": 5, "width": 2048}),
        SketchSpec("doc_bloom", "doc_id", "bloom", {"num_bits": 1 << 18, "num_hashes": 7}),
        SketchSpec("distinct_text_kmv", "text", "kmv", {"k": 1024}),
        SketchSpec("lang_mg", "lang", "mg", {"k": 8}),
        SketchSpec("doc_sample", "doc_id", "sample", {"k": 64}),
    ]


def cc_pages_specs() -> list[SketchSpec]:
    return [
        SketchSpec("text_len_qdigest", "text_len", "qdigest", {"k": 256, "universe_bits": 20}),
        SketchSpec("html_size_qdigest", "html_size", "qdigest", {"k": 256, "universe_bits": 20}),
        SketchSpec("text_len_by_lang", "text_len", "qdigest", {"k": 256, "universe_bits": 20}, group_by="lang"),
        SketchSpec("text_len_tdigest", "text_len", "tdigest", {"delta": 200}),
        SketchSpec("text_len_kll", "text_len", "kll", {"k": 200}),
        # tenth family (r5): DDSketch — alpha-relative VALUE error, the
        # complement of the rank-error quantile sketches above
        SketchSpec("text_len_dds", "text_len", "dds", {"alpha": 0.01}),
        SketchSpec("distinct_url_hll", "url", "hll", {"p": 12}),
        SketchSpec("host_cms", "url_host", "cms", {"depth": 5, "width": 4096}),
        SketchSpec("host_csk", "url_host", "csk", {"depth": 5, "width": 4096}),
        SketchSpec("lang_cms", "lang", "cms", {"depth": 5, "width": 2048}),
        SketchSpec("url_bloom", "url", "bloom", {"num_bits": 1 << 22, "num_hashes": 7}),
        # the three beyond-spec families, through the same build/merge path
        # (r3 VERDICT item 3 in "What's missing"): KMV distinct urls with
        # set-op support, Misra-Gries heavy-hitter hosts, and a
        # deterministic bottom-k sample of urls (string domain)
        SketchSpec("distinct_url_kmv", "url", "kmv", {"k": 1024}),
        SketchSpec("host_mg", "url_host", "mg", {"k": 32}),
        SketchSpec("url_sample", "url", "sample", {"k": 64}),
    ]


def finalize(sketches: dict[tuple[str, str], object]) -> pd.DataFrame:
    """Sketch objects → flat stats table (small, driver-side)."""
    rows = []
    for (metric, key), sk in sorted(sketches.items()):
        kind = type(sk).kind
        if kind in ("qdigest", "tdigest", "kll", "dds"):
            for p in QUANTILE_PS:
                rows.append((metric, key, f"p{int(p * 100)}", float(sk.quantile(p))))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "hll":
            rows.append((metric, key, "distinct_estimate", float(sk.estimate())))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "cms":
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "csk":
            rows.append((metric, key, "f2_estimate", float(sk.f2_estimate())))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "bloom":
            rows.append((metric, key, "fill_ratio", float(sk.fill_ratio())))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "kmv":
            rows.append((metric, key, "distinct_estimate", float(sk.estimate())))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "mg":
            # values are strings, the stats table holds floats: surface the
            # tracked-counter count + the top hitter's estimated frequency
            hh = sk.heavy_hitters()
            rows.append((metric, key, "n_tracked", float(len(hh))))
            rows.append((metric, key, "top_count", float(hh[0][1]) if hh else 0.0))
            rows.append((metric, key, "n", float(sk.n)))
        elif kind == "sample":
            rows.append((metric, key, "distinct_estimate", float(sk.estimate())))
            rows.append((metric, key, "sample_held", float(len(sk.sample()))))
            rows.append((metric, key, "n", float(sk.n)))
    return pd.DataFrame(rows, columns=["metric", "group_key", "stat", "value"])


def run_documents_flagship(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"])
    rows = build_sketches(ds, documents_specs())
    merged = merge_grouped(rows)
    return finalize(collect_sketches(merged))


def run_cc_pages_flagship(cc_dir: str) -> pd.DataFrame:
    """The bench headline: extraction + projection + 14 sketches (all
    eleven families, incl. the beyond-spec KMV / Misra-Gries / SampleSketch
    / DDSketch / Count-Sketch) over the synthetic Common-Crawl table."""
    from q_digest_ray.sources.cc_pages import read_cc_pages

    ds = read_cc_pages(cc_dir, columns=["url", "html", "lang"])
    ds = ds.map_batches(
        extract_and_project,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    rows = build_sketches(ds, cc_pages_specs())
    merged = merge_grouped(rows)
    return finalize(collect_sketches(merged))
