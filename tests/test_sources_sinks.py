"""Source/sink breadth: partitioned parquet export, JSON/CSV roundtrips."""

import os

import pyarrow.parquet as pq
import pytest


def test_partitioned_export(ray_session, sf_dir, tmp_path):
    import ray.data

    from q_digest_ray.pipelines.export import export_curated

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    out = str(tmp_path / "curated")
    export_curated(ds, out, min_quality=0.0)
    # one directory per lang (hive partitioning)
    parts = [d for d in os.listdir(out) if d.startswith("lang=")]
    assert len(parts) >= 3
    back = ray.data.read_parquet(out)
    assert back.count() == ds.count()
    schema_names = back.schema().names
    assert "quality_score" in schema_names and "n_tokens" in schema_names
    # single-partition read works (resume-by-partition story)
    one = ray.data.read_parquet(os.path.join(out, parts[0]))
    assert 0 < one.count() < back.count()


def test_json_csv_roundtrip(ray_session, sf_dir, tmp_path):
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    n = ds.count()
    jdir = str(tmp_path / "j")
    cdir = str(tmp_path / "c")
    ds.write_json(jdir)
    ds.write_csv(cdir)
    jds = ray.data.read_json(jdir)
    cds = ray.data.read_csv(cdir)
    assert jds.count() == n
    assert cds.count() == n
    assert sorted(jds.schema().names) == ["event_id", "user_id", "value"]
    # values survive the roundtrip
    a = jds.to_pandas().sort_values("event_id").reset_index(drop=True)
    b = ds.to_pandas().sort_values("event_id").reset_index(drop=True)
    assert a["user_id"].equals(b["user_id"])


def test_pruned_jsonl_csv_readers(ray_session, sf_dir, tmp_path):
    """textio.read_jsonl / read_csv_table: column pruning at (CSV: during
    the parse) or right after the read, values identical to the parquet
    source."""
    import glob

    import ray.data

    from q_digest_ray.sources.textio import read_csv_table, read_jsonl

    src = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    jdir, cdir = str(tmp_path / "j"), str(tmp_path / "c")
    src.write_json(jdir)
    src.write_csv(cdir)
    # the textio readers take .jsonl shards (Ray writes .json)
    for p in glob.glob(os.path.join(jdir, "*.json")):
        os.rename(p, p + "l")

    jds = read_jsonl(jdir, columns=["event_id", "value"])
    cds = read_csv_table(cdir, columns=["event_id", "value"])
    assert sorted(jds.schema().names) == ["event_id", "value"]
    assert sorted(cds.schema().names) == ["event_id", "value"]
    ref = src.to_pandas().sort_values("event_id").reset_index(drop=True)
    for got in (jds, cds):
        df = got.to_pandas().sort_values("event_id").reset_index(drop=True)
        assert len(df) == len(ref)
        assert (df["value"].round(6) == ref["value"].round(6)).all()


# ---------------------------------------------------------------------------
# row-format ingest interop (r5): JSONL / CSV readers, JSONL sink,
# jsonl -> parquet conversion feeding read_table
# ---------------------------------------------------------------------------


def _jsonl_shards(tmp_path, n_shards=3, rows_per=4, gz=False):
    import gzip
    import json
    import os

    d = os.path.join(str(tmp_path), "dump")
    os.makedirs(d, exist_ok=True)
    i = 0
    for s in range(n_shards):
        name = os.path.join(d, f"shard-{s}.jsonl" + (".gz" if gz else ""))
        op = gzip.open if gz else open
        with op(name, "wt") as f:
            for _ in range(rows_per):
                f.write(json.dumps({"doc_id": i, "text": f"t{i}", "extra": i * 2}) + "\n")
                i += 1
    return d


def test_read_jsonl_shard_dir(ray_session, tmp_path):
    from q_digest_ray.sources.textio import read_jsonl

    d = _jsonl_shards(tmp_path)
    df = read_jsonl(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 12 and list(df.columns) == ["doc_id", "text", "extra"]
    assert df["text"].iloc[5] == "t5"
    pruned = read_jsonl(d, columns=["doc_id", "text"]).to_pandas()
    assert list(pruned.columns) == ["doc_id", "text"]


def test_read_jsonl_gz(ray_session, tmp_path):
    from q_digest_ray.sources.textio import read_jsonl

    d = _jsonl_shards(tmp_path, gz=True)
    df = read_jsonl(d).to_pandas()
    assert len(df) == 12 and set(df["doc_id"]) == set(range(12))


def test_jsonl_to_parquet_feeds_read_table(ray_session, tmp_path):
    """The ingest leg: jsonl dump -> parquet shard dir -> the SAME
    read_table every catalog query uses (sharded-dir layout)."""
    import os

    from q_digest_ray.sources.tables import read_table
    from q_digest_ray.sources.textio import read_jsonl, to_parquet_table

    d = _jsonl_shards(tmp_path)
    sf = os.path.join(str(tmp_path), "sf")
    os.makedirs(os.path.join(sf, "documents"), exist_ok=True)
    to_parquet_table(read_jsonl(d), os.path.join(sf, "documents"))
    back = read_table(sf, "documents", columns=["doc_id", "text"]).to_pandas()
    assert len(back) == 12 and set(back.columns) == {"doc_id", "text"}


def test_csv_roundtrip_and_jsonl_sink(ray_session, tmp_path):
    import json
    import os

    import ray as _ray

    from q_digest_ray.sources.textio import read_csv_table, write_jsonl

    c = os.path.join(str(tmp_path), "t.csv")
    with open(c, "w") as f:
        f.write("a,b\n1,x\n2,y\n3,z\n")
    df = read_csv_table(c).to_pandas()
    assert df["a"].tolist() == [1, 2, 3] and df["b"].tolist() == ["x", "y", "z"]

    out = os.path.join(str(tmp_path), "out_jsonl")
    write_jsonl(_ray.data.from_items([{"k": 1}, {"k": 2}]), out)
    rows = []
    for p in sorted(os.listdir(out)):
        with open(os.path.join(out, p)) as f:
            rows += [json.loads(line) for line in f if line.strip()]
    assert sorted(r["k"] for r in rows) == [1, 2]


def test_read_jsonl_missing_raises(ray_session, tmp_path):
    import pytest

    from q_digest_ray.sources.textio import read_jsonl

    with pytest.raises(FileNotFoundError):
        read_jsonl(str(tmp_path / "nope"))
