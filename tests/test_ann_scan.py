"""The shared top-k scan in stages/ann.py: with a probe that keeps every
row, brute force, LSH, IVF and PQ must all return the exact cosine top-k
(cos desc, id asc) and count every row as scanned."""

import numpy as np
import pandas as pd
import pytest

N, DIM, K, BATCH = 200, 8, 10, 40


def _dyadic_vectors(seed: int):
    """(ids, vectors, query): integer 8-d vectors with components in
    [-2, 2] and squared norm 4 or 16, so every normalized component and
    every cosine is a short dyadic fraction — exact in float64 whatever the
    summation order, which makes the many cosine ties real ties.  The
    vector ranked just inside the k boundary is copied onto 15 rows of the
    first 40-row batch, so a tie straddles the boundary and, inside that
    batch, more than k rows tie: only the id tie-break of the per-batch
    prune and of the fold picks the right ones (ids are shuffled against
    row order)."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(-2, 3)] * DIM), -1).reshape(-1, DIM)
    pool = grid[np.isin((grid * grid).sum(axis=1), [4, 16])].astype(np.float64)
    m = pool[rng.choice(len(pool), N + 1, replace=False)]
    q, m = m[0], m[1:]
    ids = rng.permutation(N).astype(np.int64) * 3
    _, cos = _reference(ids, m, q)
    boundary = np.lexsort((ids, -cos))[K - 2]
    m[rng.choice(BATCH, 15, replace=False)] = m[boundary]
    return ids, m, q


def _reference(ids, m, q):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = mn @ (q / np.linalg.norm(q))
    order = np.lexsort((ids, -cos))[:K]
    return pd.DataFrame({"vid": ids[order], "cos_sim": np.round(cos[order], 6)}), cos


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_scan_equals_numpy_topk(ray_session, seed):
    import ray.data

    from q_digest_ray.stages.ann import brute_force_topk, ivf_topk, lsh_topk, pq_topk

    ids, m, q = _dyadic_vectors(seed)
    want, cos = _reference(ids, m, q)
    ranked = np.sort(cos)[::-1]
    assert ranked[K - 1] == ranked[K], "a cosine tie must straddle the k boundary"

    df = pd.DataFrame({"vid": ids, "v": [list(v) for v in m]})
    ds = ray.data.from_pandas(
        [df.iloc[i : i + BATCH].reset_index(drop=True) for i in range(0, N, BATCH)]
    )

    results = {
        "brute": brute_force_topk(ds, "vid", "v", q, k=K),
        "lsh": lsh_topk(ds, "vid", "v", q, k=K, num_planes=6, probe_hamming=6),
        "ivf": ivf_topk(ds, "vid", "v", q, k=K, num_centroids=4, nprobe=4),
        # rerank*k candidates >= rows per batch: every row is exact-scored
        "pq": pq_topk(ds, "vid", "v", q, k=K, m=4, num_codes=16, rerank=N),
    }
    for name, got in results.items():
        pd.testing.assert_frame_equal(
            got.astype({"vid": "int64"}), want, check_exact=True, obj=name
        )
        assert got.attrs["scanned"] == N, name
