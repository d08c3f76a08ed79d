"""Every sketch family, end to end through the build stage.

- Payload bytes of all 12 kinds, built by ``SketchBuilder`` from fixed seeded
  input, are pinned by SHA-256: a refactor of the sketch classes or of the
  build stage's insert rule must not change the wire bytes.
- Every kind is registered whenever any sketch module is imported: a fold
  process that imports only ``stages.merge`` can merge payloads of all 12.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from q_digest_ray.sketches.base import sketch_from_bytes
from q_digest_ray.stages.build import SketchBuilder, SketchSpec

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPECS = [
    SketchSpec("x_qd", "x", "qdigest", {"k": 32, "universe_bits": 16}, group_by="g"),
    SketchSpec("f_dds", "f", "dds", {"alpha": 0.02}),
    SketchSpec("s_hll", "s", "hll", {"p": 8}),
    SketchSpec("s_cms", "s", "cms", {"depth": 3, "width": 64}, weight_column="w"),
    SketchSpec("x_csk", "x", "csk", {"depth": 4, "width": 32}),
    SketchSpec("s_bloom", "s", "bloom", {"num_bits": 1024, "num_hashes": 3}),
    SketchSpec("f_td", "f", "tdigest", {"delta": 50}),
    SketchSpec("f_kll", "f", "kll", {"k": 16}, weight_column="w"),
    SketchSpec("s_kmv", "s", "kmv", {"k": 32}),
    SketchSpec("x_mg", "x", "mg", {"k": 8}),
    SketchSpec("s_sample", "s", "sample", {"k": 16}),
    # ell above the row count: no SVD shrink, so the payload is the raw rows
    # and does not depend on the LAPACK build
    SketchSpec("e_fd", "e", "fd", {"ell": 512}),
]

# SHA-256 over each metric's (group_key, payload) rows in emitted order
EXPECTED = {
    "x_qd": "421dfc8317fbb251bd21da548c6e6deaf4c85ebea4cce3493efc0063bc701f60",
    "f_dds": "939bc882ef60b80b852230f158fc65aa6d91d9831800bb56d5bab33ce2c99c94",
    "s_hll": "320d04c07e6b0edbfb5574ad094a5e4f2effecfa199ac5d41814671df10463c4",
    "s_cms": "9c9f329292f0ee3ac79ea04e1d6f03c4b88bc8fb5e9c14486f31e57d419be2c0",
    "x_csk": "e9b77745b9b7880db35844db458384b9ce8a0d312d60801a44f23975c2c925bb",
    "s_bloom": "4189b89e20baae3ea2943addc7151144e72b2cd0645076feddc515ac9cfd3ca4",
    "f_td": "db5ee2e78f9ce18fdb8e171c55f7320d740d278d6d68b6e97b5ca9257bc44bb2",
    "f_kll": "9eeea5e2a8209616f19f98e2adb2b93051444e221a10ff161ef8b0013e5634c3",
    "s_kmv": "935a2713eef10b2f9aae55812860622fcf283b1ef10ef43550b6560ea1505122",
    "x_mg": "86389ef8bf3b463ca161de28be62450f1338d7bf37cfab7591025d0574d494e0",
    "s_sample": "64a2f8f8c7db60f332c73b21bcaf5ab77326fbd23fac2e4a15e87731c8000be5",
    "e_fd": "9e584a3d030909d49987078adccbd14ceae6a0db4ceef185b77fa49d7d32ca6d",
}


def _batch(seed: int, n: int = 400) -> pa.Table:
    rng = np.random.default_rng(seed)
    x = rng.zipf(1.5, n).clip(max=60_000).astype(np.int64)
    emb = rng.normal(size=(n, 4)).astype(np.float32)
    return pa.table(
        {
            "x": x,
            "f": rng.lognormal(3.0, 1.0, n),
            "s": pa.array([f"u{v}" for v in rng.integers(0, 150, n)]),
            "g": pa.array([("en", "de", "fr")[v] for v in rng.integers(0, 3, n)]),
            "w": rng.integers(1, 5, n).astype(np.int64),
            "e": pa.array(list(emb), pa.list_(pa.float32())),
        }
    )


def _digests(rows: pa.Table) -> dict[str, str]:
    out: dict[str, hashlib._Hash] = {}
    for m, key, payload in zip(
        rows["metric"].to_pylist(), rows["group_key"].to_pylist(), rows["payload"].to_pylist()
    ):
        h = out.setdefault(m, hashlib.sha256())
        h.update(key.encode() + b"\0" + payload)
    return {m: h.hexdigest() for m, h in out.items()}


def test_payload_bytes_pinned():
    rows = SketchBuilder(SPECS)(_batch(seed=11))
    assert sorted(set(rows["sketch"].to_pylist())) == sorted({s.kind for s in SPECS})
    assert rows.num_rows == len(SPECS) + 2  # the grouped q-digest emits 3 rows
    assert _digests(rows) == EXPECTED


def test_direct_update_matches_builder():
    """A hashing family's own ``update_batch`` (raw numpy / list input) and
    the build stage's shared-hash path give the same bytes."""
    batch = _batch(seed=11)
    rows = SketchBuilder(SPECS)(batch)
    built = dict(zip(rows["metric"].to_pylist(), rows["payload"].to_pylist()))
    for spec in SPECS:
        if spec.kind not in ("hll", "cms", "csk", "bloom", "kmv"):
            continue
        col = batch[spec.column]
        for values in (col.to_numpy(zero_copy_only=False), col.to_pylist()):
            sk = spec.make()
            if spec.weight_column is None:
                sk.update_batch(values)
            else:
                sk.update_batch(values, batch[spec.weight_column].to_numpy())
            assert sk.to_bytes() == built[spec.metric], spec.metric


def test_every_kind_merges_in_a_merge_only_process(tmp_path):
    """The fold stage imports only ``stages.merge``; every kind must already
    be registered there, or ``combine_sketch_rows`` cannot decode them."""
    global_specs = [
        SketchSpec(s.metric, s.column, s.kind, s.params, weight_column=s.weight_column)
        for s in SPECS
    ]
    build = SketchBuilder(global_specs)
    rows = pa.concat_tables([build(_batch(seed=1)), build(_batch(seed=2))])
    path = tmp_path / "rows.arrow"
    with pa.OSFile(str(path), "wb") as f, pa.ipc.new_file(f, rows.schema) as w:
        w.write_table(rows)
    script = (
        "import sys, pyarrow as pa\n"
        "from q_digest_ray.stages.merge import combine_sketch_rows\n"
        "t = combine_sketch_rows(pa.ipc.open_file(sys.argv[1]).read_all())\n"
        "with pa.OSFile(sys.argv[2], 'wb') as f, pa.ipc.new_file(f, t.schema) as w:\n"
        "    w.write_table(t)\n"
    )
    out_path = tmp_path / "merged.arrow"
    env = dict(os.environ, PYTHONPATH=_REPO)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(out_path)],
        cwd=_REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    merged = pa.ipc.open_file(str(out_path)).read_all()
    assert merged.num_rows == len(SPECS)
    by_metric = {r["metric"]: r for r in merged.to_pylist()}
    for spec in global_specs:
        r = by_metric[spec.metric]
        assert r["n"] == sum(
            sketch_from_bytes(spec.kind, p).n
            for m, p in zip(rows["metric"].to_pylist(), rows["payload"].to_pylist())
            if m == spec.metric
        )
        assert sketch_from_bytes(spec.kind, r["payload"]).n == r["n"]


def test_unknown_kind_named():
    with pytest.raises(ValueError, match="nosuch"):
        SketchSpec("m", "x", "nosuch").make()
