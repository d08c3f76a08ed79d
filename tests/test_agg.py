"""stages/agg.two_phase: fused partials folded once on the driver, and the
read batch size the fused partial sees."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_two_phase_returns_dataframe(ray_session):
    import ray.data

    from q_digest_ray.stages.agg import two_phase

    ds = ray.data.range(1000, override_num_blocks=4)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch["id"].to_numpy()
        return pd.DataFrame({"k": ids % 3, "s": ids}).groupby("k", as_index=False).sum()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(s=("s", "sum"))

    out = two_phase(ds, partial, final)
    assert isinstance(out, pd.DataFrame)
    exp = pd.DataFrame({"k": np.arange(1000) % 3, "s": np.arange(1000)})
    exp = exp.groupby("k", as_index=False).agg(s=("s", "sum"))
    pd.testing.assert_frame_equal(out.sort_values("k").reset_index(drop=True), exp)


def test_two_phase_all_empty_partials_skip_final(ray_session):
    import ray.data

    from q_digest_ray.stages.agg import two_phase

    called = []

    def partial(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({"k": pd.Series([], dtype="int64")})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        called.append(len(df))  # runs on the driver, so this list sees it
        return df

    out = two_phase(ray.data.range(100, override_num_blocks=4), partial, final)
    assert isinstance(out, pd.DataFrame)
    assert out.empty and list(out.columns) == []
    assert called == []


def test_read_table_fused_batches_use_read_batch_rows(ray_session, tmp_path):
    """A fused ``batch_size=None`` UDF runs once per table the Parquet
    reader yields: 65536-row tables, not Ray's default 10,000-row ones."""
    from q_digest_ray.sources.tables import READ_BATCH_ROWS, read_table

    n = 150_000
    pq.write_table(
        pa.table({"x": np.arange(n, dtype=np.int64)}),
        tmp_path / "t.parquet",
        row_group_size=n,
    )

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table({"rows": [batch.num_rows]})

    ds = read_table(str(tmp_path), "t", columns=["x"])
    sizes = ds.map_batches(rows, batch_format="pyarrow", batch_size=None).to_pandas()
    assert READ_BATCH_ROWS == 65536
    assert sizes["rows"].tolist() == [65536, 65536, 18928]
