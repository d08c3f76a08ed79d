"""Traced run: per-layer numbers from an in-process, block-by-block replay.

The replay makes the same public calls the Ray jobs make, one block at a
time -- pyarrow read of each shard, ``extract_and_project``,
``SketchBuilder(specs)``, ``combine_sketch_rows`` per block, the final fold,
then ``finalize`` -- so with one CPU (where Ray runs tasks one at a time
anyway) its layer self times split the job's work.  Spans are recorded from
the benchmark's side of each call, kept in memory and written once at the
end.  Per-family update / merge / serde times come from extra, separately
labelled spans over the replay's real blocks and partial rows.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.data import shard_paths
from q_digest_ray.functions.hashing import hash64
from q_digest_ray.pipelines.flagship import finalize
from q_digest_ray.sketches.base import sketch_from_bytes
from q_digest_ray.stages.build import SketchBuilder
from q_digest_ray.stages.extract import extract_and_project
from q_digest_ray.stages.merge import combine_sketch_rows

HASHING_KINDS = ("hll", "cms", "csk", "bloom", "kmv")


class Tracer:
    """Spans (trace id, span id, parent, name, start, end) plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.trace_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append({"trace": self.trace_id, "span": sid, "name": name,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid].update(start=start, end=end)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self, trace_id: str) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        spans = [s for s in self.spans if s["trace"] == trace_id]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["span"]]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


class NullTracer(Tracer):
    """Same calls, no recording: the untraced replay."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def replay(tr: Tracer, cc_dir: str, columns: list[str], specs, with_finalize: bool):
    """One job, block by block.  Returns (projected blocks, build rows)."""
    blocks, built, combined = [], [], []
    builder = SketchBuilder(specs)
    with tr.span("replay"):
        for path in shard_paths(cc_dir):
            with tr.span("sources.read"):
                table = pq.read_table(path, columns=columns)
            with tr.span("extract"):
                block = extract_and_project(table)
            with tr.span("build"):
                rows = builder(block)
            with tr.span("merge.combine"):
                combined.append(combine_sketch_rows(rows))
            tr.count("sources.blocks", 1)
            tr.count("sources.bytes_read", os.path.getsize(path))
            if "html" in table.column_names:
                tr.count("extract.html_bytes", pc.sum(pc.binary_length(table["html"])).as_py())
            tr.count("build.partials_out", rows.num_rows)
            tr.count("build.payload_bytes", pc.sum(pc.binary_length(rows["payload"])).as_py())
            blocks.append(block)
            built.append(rows)
        with tr.span("merge.final"):
            merged = combine_sketch_rows(pa.concat_tables(combined))
            sketches = {
                (m, g): sketch_from_bytes(k, p)
                for m, k, g, p in zip(*(merged[c].to_pylist() for c in ("metric", "sketch", "group_key", "payload")))
            }
        tr.count("merge.partials_in", sum(r.num_rows for r in built))
        tr.count("merge.rows_out", merged.num_rows)
        if with_finalize:
            with tr.span("flagship.finalize"):
                finalize(sketches)
    return blocks, built


def family_spans(tr: Tracer, specs, blocks, built) -> None:
    """Separately labelled per-family update, merge and serde spans."""
    for block in blocks:
        for spec in specs:
            with tr.span(f"sketches.{spec.kind}.update"):
                SketchBuilder([spec])(block)
        for col in sorted({s.column for s in specs if s.kind in HASHING_KINDS}):
            values = block[col].combine_chunks()
            with tr.span("hashing.hash64"):
                hash64(values)
            tr.count("hashing.values_hashed", len(values))
    groups: dict[tuple[str, str], list[bytes]] = defaultdict(list)
    kinds: dict[tuple[str, str], str] = {}
    for rows in built:
        for m, k, g, p in zip(*(rows[c].to_pylist() for c in ("metric", "sketch", "group_key", "payload"))):
            groups[(m, g)].append(p)
            kinds[(m, g)] = k
    for key, payloads in groups.items():
        kind = kinds[key]
        tr.count(f"sketches.{kind}.payload_bytes", sum(len(p) for p in payloads))
        with tr.span(f"sketches.{kind}.serde"):
            parts = [sketch_from_bytes(kind, p) for p in payloads]
        with tr.span(f"sketches.{kind}.merge"):
            acc = parts[0]
            for s in parts[1:]:
                acc.merge(s)
        with tr.span(f"sketches.{kind}.serde"):
            acc.to_bytes()


def traced_replay(tr: Tracer, name: str, cc_dir: str, columns, specs, with_finalize: bool) -> dict[str, float]:
    """Untraced then traced replay of one workload; per-layer metrics.  A
    first untimed replay warms the page cache for both."""
    replay(NullTracer(), cc_dir, columns, specs, with_finalize)
    t0 = time.perf_counter()
    replay(NullTracer(), cc_dir, columns, specs, with_finalize)
    untraced = time.perf_counter() - t0
    tr.trace_id = name
    before = dict(tr.counts)
    t0 = time.perf_counter()
    blocks, built = replay(tr, cc_dir, columns, specs, with_finalize)
    traced = time.perf_counter() - t0
    st = tr.self_times(name)
    c = {k: v - before.get(k, 0.0) for k, v in tr.counts.items()}
    merge_s = st["merge.combine"] + st["merge.final"]
    out = {
        "replay_s": untraced,
        "trace_overhead_s": traced - untraced,
        "sources.read_s": st["sources.read"],
        "sources.blocks": c["sources.blocks"],
        "sources.bytes_read": c["sources.bytes_read"],
        "extract.self_s": st["extract"],
        "build.self_s": st["build"],
        "build.partials_out": c["build.partials_out"],
        "build.payload_bytes": c["build.payload_bytes"],
        "merge.combine_s": st["merge.combine"],
        "merge.final_s": st["merge.final"],
        "merge.partials_in": c["merge.partials_in"],
        "merge.rows_out": c["merge.rows_out"],
        "merge.partials_per_row": c["merge.partials_in"] / max(c["merge.rows_out"], 1),
        "share.read_extract_build": (st["sources.read"] + st["extract"] + st["build"]) / traced,
        "share.merge": merge_s / traced,
    }
    if with_finalize:  # the flagship replay: html in, finalize out
        out["flagship.finalize_s"] = st["flagship.finalize"]
        out["extract.html_bytes"] = c["extract.html_bytes"]
    tr.trace_id = name + ".families"
    before = dict(tr.counts)
    family_spans(tr, specs, blocks, built)
    st = tr.self_times(tr.trace_id)
    out["hashing.hash64_s"] = st["hashing.hash64"]
    out["hashing.values_hashed"] = tr.counts["hashing.values_hashed"] - before.get("hashing.values_hashed", 0.0)
    return {f"{name}.{k}": v for k, v in out.items()}


def family_metrics(tr: Tracer, kinds) -> dict[str, float]:
    """sketches.<kind>.* summed over every families trace."""
    total: dict[str, float] = defaultdict(float)
    for trace_id in {s["trace"] for s in tr.spans if s["trace"].endswith(".families")}:
        for name, v in tr.self_times(trace_id).items():
            total[name] += v
    out = {}
    for kind in kinds:
        out[f"sketches.{kind}.update_s"] = total[f"sketches.{kind}.update"]
        out[f"sketches.{kind}.merge_s"] = total[f"sketches.{kind}.merge"]
        out[f"sketches.{kind}.serde_s"] = total[f"sketches.{kind}.serde"]
        out[f"sketches.{kind}.payload_bytes"] = tr.counts[f"sketches.{kind}.payload_bytes"]
    return out


def timed(fn, repeats: int) -> float:
    """Median wall time of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
