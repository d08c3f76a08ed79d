"""Skew salting: the two-level merge (salted build, then desalt) matches
the unsalted build."""

import numpy as np
import pyarrow as pa

from q_digest_ray.stages.build import SketchSpec, build_sketches
from q_digest_ray.stages.merge import collect_sketches, desalt, merge_grouped


def _skewed_table(n=20_000, seed=3):
    rng = np.random.default_rng(seed)
    # 90% of rows in one hot key (the north-rule lang skew)
    langs = np.where(rng.random(n) < 0.9, "en", rng.choice(["de", "fr", "es"], n))
    vals = rng.integers(0, 1 << 12, n)
    return pa.table({"lang": pa.array(langs.tolist()), "v": pa.array(vals)})


def test_salted_equals_unsalted(ray_session):
    import ray.data

    t = _skewed_table()
    ds = ray.data.from_arrow(t).repartition(8)

    plain_spec = [SketchSpec("q", "v", "qdigest", {"k": 128, "universe_bits": 12}, group_by="lang")]
    salted_spec = [
        SketchSpec("q", "v", "qdigest", {"k": 128, "universe_bits": 12}, group_by="lang", salt=4)
    ]

    plain = collect_sketches(merge_grouped(build_sketches(ds, plain_spec, batch_size=2048)))
    salted_rows = merge_grouped(build_sketches(ds, salted_spec, batch_size=2048))
    # before desalt: more groups (salted sub-keys)
    pre = salted_rows.to_pandas()
    assert len(pre) > len(plain)
    assert any("#" in k for k in pre["group_key"])
    salted = collect_sketches(desalt(salted_rows))

    assert set(salted) == set(plain)
    for key in plain:
        assert salted[key].n == plain[key].n
        # identical data per group → estimates within the shared bound
        # (merge ORDER differs so bit-identity is not required; the bound is)
        eps = 12 / 128
        for p in (0.5, 0.9, 0.99):
            a, b = salted[key].quantile(p), plain[key].quantile(p)
            assert abs(a - b) <= eps * (1 << 12) * 2 + 1
