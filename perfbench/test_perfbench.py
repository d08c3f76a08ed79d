"""Tests of the benchmark itself, at its real input sizes with short runs
(about three minutes):

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import data, run
from perfbench.checks import CheckFailed, Errors
from perfbench.workloads import WORKLOADS, CcBuild, MergeFanin, SketchQueries
from q_digest_ray.pipelines.flagship import finalize
from q_digest_ray.sketches.base import sketch_from_bytes
from q_digest_ray.sketches.bloom import BloomFilter
from q_digest_ray.sketches.cms import CountMinSketch
from q_digest_ray.sketches.qdigest import QDigest
from q_digest_ray.stages.build import SketchBuilder
from q_digest_ray.stages.extract import extract_and_project
from q_digest_ray.stages.merge import combine_sketch_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, p.stdout  # the result is the only stdout output
    return json.loads(lines[0])


def _units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


# -- end to end, both modes ------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_end_to_end(workload):
    r = _result(_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0"))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= run.MIN_JOBS
    assert {k: v["unit"] for k, v in r["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    r = _result(_bench("--workload", "cc_build", "--seed", str(SEED), "--seconds", "1", "--trace", "1"))
    assert r["correct"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == _units(SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".ray", "__pycache__"))
    p = _bench("--workload", "cc_build", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert p.returncode != 0 and p.stdout == ""


def test_cc_job_matches_the_flagship(monkeypatch):
    """cc_build composes the flagship's public stages; same table out."""
    from q_digest_ray.pipelines.flagship import run_cc_pages_flagship

    wl = CcBuild(SEED)
    wl.inputs()
    monkeypatch.setenv("PYTHONPATH", ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    ray = run.start_ray()
    try:
        ours = wl.job(0)[1]
        theirs = run_cc_pages_flagship(wl.dir)
    finally:
        run.stop_ray(ray)
    assert ours.equals(theirs)


# -- the checks catch corrupted results -------------------------------------------


def _in_process(wl, columns, drop_partial=False):
    """The workload's sketches without Ray (same build + merge calls)."""
    parts = [
        combine_sketch_rows(SketchBuilder(wl.specs)(extract_and_project(pq.read_table(p, columns=columns))))
        for p in data.shard_paths(wl.dir)
    ]
    if drop_partial:
        parts[0] = parts[0].slice(1)
    merged = combine_sketch_rows(pa.concat_tables(parts))
    cols = (merged[c].to_pylist() for c in ("metric", "sketch", "group_key", "payload"))
    return {(m, g): sketch_from_bytes(k, p) for m, k, g, p in zip(*cols)}


@pytest.fixture(scope="module")
def cc():
    wl = CcBuild(SEED)
    wl.inputs()
    wl.prepare()
    sketches = _in_process(wl, ["url", "html", "lang"])
    wl.check((sketches, finalize(sketches)), Errors())  # the honest result passes
    return wl, sketches


def _corrupt(cc, key, sketch):
    wl, sketches = cc
    bad = dict(sketches)
    bad[key] = sketch
    with pytest.raises(CheckFailed):
        wl.check((bad, finalize(bad)), Errors())


def test_shifted_qdigest_quantile_is_caught(cc):
    wl, _ = cc
    shifted = QDigest(k=256, universe_bits=20)
    shifted.update_batch(wl.sorted["text_len"] + 300)
    _corrupt(cc, ("text_len_qdigest", ""), shifted)


def test_cms_underestimate_is_caught(cc):
    wl, _ = cc
    wrong = CountMinSketch(depth=5, width=4096)
    wrong.update_hashed(np.zeros(wl.n, dtype=np.uint64))  # right n, wrong keys
    _corrupt(cc, ("host_cms", ""), wrong)


def test_bloom_false_negative_is_caught(cc):
    wl, _ = cc
    empty = BloomFilter(num_bits=1 << 22, num_hashes=7)
    empty.update_batch(pa.array([f"other{i}" for i in range(wl.n)]))
    _corrupt(cc, ("url_bloom", ""), empty)


def test_dropped_merged_partial_is_caught():
    wl = MergeFanin(SEED)
    wl.inputs()
    wl.prepare()
    wl.check(_in_process(wl, ["url", "text", "lang"]), Errors())
    with pytest.raises(CheckFailed):
        wl.check(_in_process(wl, ["url", "text", "lang"], drop_partial=True), Errors())


def test_shifted_query_answer_is_caught():
    wl = SketchQueries(SEED)
    wl.inputs()
    wl.prepare()
    for shift, ok in ((0, True), (150, False)):
        sk = QDigest(k=256, universe_bits=16)
        sk.update_batch(wl.nchars + shift)
        out = ("sk_qdigest_nchars", finalize({("n_chars_qdigest", ""): sk}))
        if ok:
            wl.check(out, Errors())
        else:
            with pytest.raises(CheckFailed):
                wl.check(out, Errors())
