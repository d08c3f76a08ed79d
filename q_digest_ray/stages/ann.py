"""Approximate nearest neighbor over an embedding column (list<float>).

Every top-k here is one exact-cosine scan (``_topk_scan``): the query and
the method's probe state are broadcast once via ray.put, each batch keeps
the rows its probe mask selects and scores them with one numpy matmul,
keeps its own top-k (cos desc, id asc), and the driver folds the
per-batch candidates — the sketch path's partial → driver-fold shape.
The methods differ only in the probe mask:

- brute force: no mask — every row is scored (exact; the oracle for the
  others and for ``pipelines/queries.ann_topk``);
- LSH (random hyperplane): each vector lands in a 2**planes bucket; a
  query probes only buckets within ``probe_hamming`` signature bits,
  cutting the scanned fraction to ~sum_{d<=p} C(planes,d) / 2**planes;
- IVF: coarse k-means centroids from a bounded sample; only vectors
  assigned to the ``nprobe`` centroids nearest the query are scored;
- PQ (ADC): only each batch's top ``rerank*k`` asymmetric-distance
  candidates are exact-cosine scored.

The IVF-PQ composite index (``build_ivfpq_index`` / ``ivfpq_index_topk``)
is the materialized path: centroid-partitioned parquet read
partition-pruned, ADC over m-byte codes, exact rerank of the candidates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from q_digest_ray.stages.agg import two_phase

KMEANS_ITERS = 10  # Lloyd rounds for the IVF coarse quantizer
PQ_ITERS = 8  # Lloyd rounds per PQ subspace codebook
PQ_SAMPLE = 2000  # PQ codebook training rows
LSH_SEED = 17  # hyperplane draw for lsh_topk
PQ_SEED = 31  # codebook init for pq_topk


def _matrix(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1) if n else np.zeros((0, 0))


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms == 0, 1.0, norms)


def _unit(query: np.ndarray) -> np.ndarray:
    q = query.astype(np.float64)
    return q / np.linalg.norm(q)


def _no_hits(id_col: str) -> pd.DataFrame:
    out = pd.DataFrame(columns=[id_col, "cos_sim"])
    out.attrs["scanned"] = 0
    return out


def _nearest(cents: np.ndarray, q: np.ndarray, nprobe: int) -> np.ndarray:
    """Indices of the ``nprobe`` centroids nearest unit query ``q``."""
    return np.argsort(-(cents @ q))[:nprobe]


def sample_vectors(ds, vec_col: str, size: int = 10000) -> np.ndarray:
    """Normalized ``(<=size, d)`` sample of ``vec_col`` (``(0, 0)`` for an
    empty corpus).

    Takes evenly strided rows from EVERY block and stops at ``size`` via a
    streaming ``limit`` — no corpus-sized ``count()`` pass.  The per-block
    cap comes from the plan's block count so per_block x num_blocks ~=
    size: the limit then consumes (nearly) every block, and every block
    contributes ~equally — a fixed cap would let limit() stop after the
    head-of-corpus blocks and bias the sample to early clusters."""
    from q_digest_ray.stages.partitioning import estimate_num_blocks

    nb = estimate_num_blocks(ds) or 64  # 0 = unknown → spread as if 64 blocks
    per_block = max(8, size // nb)

    def strided(batch: pa.Table) -> pa.Table:
        # strided, not the head — ordered data (e.g. cluster-sorted) would
        # otherwise bias the sample within a block
        n = batch.num_rows
        if n <= per_block:
            return batch
        idx = np.linspace(0, n - 1, per_block).astype(np.int64)
        return batch.take(pa.array(idx))

    parts = [
        _matrix(b[vec_col])
        for b in ds.map_batches(strided, batch_format="pyarrow", batch_size=None)
        .limit(size)
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    return _normalize(np.vstack(parts)) if parts else np.zeros((0, 0))


def assign_centroids(m: np.ndarray, cents: np.ndarray):
    """(nearest-centroid index, its cosine) for each normalized row of
    ``m`` against L2-normalized centroids ``cents``."""
    if len(m) == 0:
        return np.zeros(0, np.int64), np.zeros(0)
    sims = m @ cents.T
    a = np.argmax(sims, axis=1)
    return a, sims[np.arange(len(a)), a]


def train_centroids(
    sample: np.ndarray, num_centroids: int = 64, seed: int = 23
) -> np.ndarray:
    """Coarse k-means centroids over a normalized ``sample_vectors`` sample.

    Driver memory is bounded by the sample; Lloyd iterations run on the
    driver — standard IVF training.  Centroids are L2-normalized so the
    assignment argmax is cosine."""
    if len(sample) == 0:
        return np.zeros((0, 0))
    rng = np.random.default_rng(seed)
    k = min(num_centroids, len(sample))
    cents = sample[rng.choice(len(sample), k, replace=False)]
    for _ in range(KMEANS_ITERS):
        assign = assign_centroids(sample, cents)[0]
        for c in range(k):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def _topk_scan(ds, id_col: str, vec_col: str, q, k: int, keep=None, state=None) -> pd.DataFrame:
    """Exact-cosine top-k of unit query ``q`` over the rows each batch's
    ``keep(m, state)`` mask selects (every row when ``keep`` is None), as
    ``[id_col, cos_sim]`` sorted cos desc, id asc, cos_sim rounded to 6;
    ``attrs["scanned"]`` counts the rows scored.

    ``(q, state)`` is broadcast once; the score is a plain function, NOT
    an actor pool: its only per-task state is that ObjectRef and ray.get of
    a local object is zero-copy, so a pool's ~1 s spin-up would buy
    nothing (BASELINE.md §4 rule).  Each batch keeps its own top-k with the
    id-ascending tie-break of the final sort (and of the SQL oracle's
    ORDER BY cos DESC, id ASC) — a bare cosine prune could drop the row
    the final sort would keep on a tie at the k boundary."""
    ref = ray.put((q, state))

    def score(batch: pa.Table) -> pa.Table:
        qv, st = ray.get(ref)
        m = _normalize(_matrix(batch[vec_col]))
        rows = np.arange(len(m))
        if len(m) and keep is not None:
            rows = np.flatnonzero(keep(m, st))
            m = m[rows]
        cos = m @ qv if len(rows) else np.zeros(0)
        ids = batch[id_col].to_numpy(zero_copy_only=False)[rows]
        order = np.lexsort((ids, -cos))[:k]
        # scanned rides on the batch's first row only, so the fold's sum is
        # the true scored count, not k x it
        scanned = np.zeros(len(order), dtype=np.int64)
        scanned[:1] = len(rows)
        return pa.table(
            {
                id_col: batch[id_col].take(pa.array(rows[order])),
                "cos_sim": pa.array(cos[order]),
                "scanned": pa.array(scanned),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.sort_values(["cos_sim", id_col], ascending=[False, True])
            .head(k)[[id_col, "cos_sim"]]
            .reset_index(drop=True)
        )
        out["cos_sim"] = out["cos_sim"].round(6)
        out.attrs["scanned"] = int(df["scanned"].sum())
        return out

    out = two_phase(ds, score, fold)
    return _no_hits(id_col) if out.columns.empty else out


def brute_force_topk(ds, id_col: str, vec_col: str, query: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k (the oracle for the approximate variants)."""
    return _topk_scan(ds, id_col, vec_col, _unit(query), k)


def _signatures(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (m @ planes) > 0
    return (signs.astype(np.uint64) << np.arange(planes.shape[1], dtype=np.uint64)[None, :]).sum(axis=1)


def _lsh_keep(m: np.ndarray, state) -> np.ndarray:
    planes, qsig, pop, probe_hamming = state
    return pop[(_signatures(m, planes) ^ np.uint64(qsig)).astype(np.int64)] <= probe_hamming


def lsh_topk(
    ds,
    id_col: str,
    vec_col: str,
    query: np.ndarray,
    k: int = 10,
    num_planes: int = 8,
    probe_hamming: int = 2,
) -> pd.DataFrame:
    """LSH-bucketed approximate top-k: score only vectors whose signature is
    within ``probe_hamming`` bits of the query's (multi-probe).  Bucket
    filtering happens inside each batch, so no shuffle is added."""
    planes = np.random.default_rng(LSH_SEED).normal(size=(len(query), num_planes))
    q = _unit(query)
    qsig = int(_signatures(q[None, :], planes)[0])
    # popcount table for signature distance
    pop = np.array([bin(i).count("1") for i in range(1 << num_planes)], dtype=np.int64)
    return _topk_scan(
        ds, id_col, vec_col, q, k, keep=_lsh_keep, state=(planes, qsig, pop, probe_hamming)
    )


def _ivf_keep(m: np.ndarray, state) -> np.ndarray:
    cents, probe_mask = state
    return probe_mask[assign_centroids(m, cents)[0]]


def ivf_topk(
    ds,
    id_col: str,
    vec_col: str,
    query: np.ndarray,
    k: int = 10,
    num_centroids: int = 64,
    nprobe: int = 8,
    seed: int = 23,
) -> pd.DataFrame:
    """IVF approximate top-k: score only vectors assigned to the ``nprobe``
    centroids nearest the query.  Assignment and filtering happen inside
    each batch (no added shuffle); expected scanned fraction ~= nprobe /
    num_centroids."""
    cents = train_centroids(sample_vectors(ds, vec_col), num_centroids, seed)
    if cents.size == 0:  # empty corpus: nothing to probe
        return _no_hits(id_col)
    q = _unit(query)
    probe_mask = np.zeros(len(cents), dtype=bool)
    probe_mask[_nearest(cents, q, nprobe)] = True
    return _topk_scan(ds, id_col, vec_col, q, k, keep=_ivf_keep, state=(cents, probe_mask))


# ---------------------------------------------------------------------------
# Product quantization (ADC)
# ---------------------------------------------------------------------------


def _train_pq_books(sample: np.ndarray, m: int, num_codes: int, seed: int) -> list[np.ndarray]:
    """Per-subspace k-means codebooks (shared by pq_topk and the IVF-PQ
    composite index).  L2 assignment via the dot-minus-half-norm identity."""
    D = sample.shape[1]
    assert D % m == 0, f"dim {D} not divisible by m={m}"
    sub = D // m
    rng = np.random.default_rng(seed)
    books: list[np.ndarray] = []
    for j in range(m):
        X = sample[:, j * sub : (j + 1) * sub]
        ks = min(num_codes, len(X))
        C = X[rng.choice(len(X), ks, replace=False)].copy()
        for _ in range(PQ_ITERS):
            a = (X @ C.T - 0.5 * (C * C).sum(axis=1)).argmax(axis=1)
            for c in range(ks):
                mem = X[a == c]
                if len(mem):
                    C[c] = mem.mean(axis=0)
        books.append(C)
    return books


def _pq_encode(M: np.ndarray, books: list[np.ndarray]) -> np.ndarray:
    """(n, m) uint8 codes for normalized vectors M."""
    m = len(books)
    sub = M.shape[1] // m
    codes = np.empty((M.shape[0], m), dtype=np.uint8)
    for j in range(m):
        X = M[:, j * sub : (j + 1) * sub]
        C = books[j]
        codes[:, j] = (X @ C.T - 0.5 * (C * C).sum(axis=1)).argmax(axis=1)
    return codes


def _pq_keep(M: np.ndarray, state) -> np.ndarray:
    """Mask of the batch's top ``cand`` ADC scores."""
    books, luts, half_norms, cand = state
    sub = books[0].shape[1]
    s = np.zeros(M.shape[0], dtype=np.float64)
    for j in range(len(books)):
        a = (M[:, j * sub : (j + 1) * sub] @ books[j].T - half_norms[j]).argmax(axis=1)
        s += luts[j][a]
    take = min(cand, len(s))
    mask = np.zeros(len(s), dtype=bool)
    mask[np.argpartition(-s, take - 1)[:take]] = True
    return mask


def pq_topk(
    ds,
    id_col: str,
    vec_col: str,
    query: np.ndarray,
    k: int = 10,
    m: int = 8,
    num_codes: int = 64,
    rerank: int = 4,
) -> pd.DataFrame:
    """Product-quantization ANN (Jegou et al. 2011, ADC form): per-subspace
    k-means codebooks trained on a bounded strided sample (driver work is
    sample-sized); scoring is ONE streaming pass where each subspace
    assignment is a small matmul and the ADC score is a lookup-table
    gather; the top ``rerank*k`` ADC candidates per batch are exact-cosine
    scored in-batch, so the final fold sorts true cosines.

    At 100 TB the m-byte codes (vs 4*D-byte floats) would live in a
    materialized compressed index (``build_ivfpq_index``); here encoding
    fuses into the scan since the corpus is read once anyway — the memory
    story (LUT + codebooks broadcast once, ~m*codes*sub floats) is the
    same either way."""
    sample = sample_vectors(ds, vec_col, PQ_SAMPLE)
    if len(sample) == 0:
        return _no_hits(id_col)
    q = _unit(query)
    books = _train_pq_books(sample, m, num_codes, PQ_SEED)
    sub = sample.shape[1] // m
    luts = [q[j * sub : (j + 1) * sub] @ books[j].T for j in range(m)]
    half_norms = [0.5 * (C * C).sum(axis=1) for C in books]
    return _topk_scan(
        ds, id_col, vec_col, q, k, keep=_pq_keep, state=(books, luts, half_norms, rerank * k)
    )


# ---------------------------------------------------------------------------
# IVF-PQ composite index: PQ codes stored per IVF list (VERDICT r4 item 5)
# ---------------------------------------------------------------------------


def build_ivfpq_index(
    ds,
    id_col: str,
    vec_col: str,
    out_dir: str,
    num_centroids: int = 64,
    m: int = 8,
    num_codes: int = 64,
    seed: int = 23,
    by_residual: bool = False,
) -> np.ndarray:
    """Materialize the standard IVF-PQ composite (Jegou et al. 2011 IVFADC,
    by_residual=False variant): vectors parquet-partitioned by their coarse
    centroid, each row carrying its m-byte PQ code (fixed-size binary) next
    to the full vector.  A query then (1) PRUNES PARTITIONS to nprobe
    centroid directories, (2) column-prunes the ADC scan to (id, code) —
    m bytes/vector instead of 4*D — and (3) exact-reranks only the top ADC
    candidates by re-reading their full vectors.  Layout is resumable: each
    partition directory is an independent unit.  The coarse centroids and
    the PQ codebooks train on ONE bounded sample (driver work is
    sample-sized).

    ``by_residual=True`` is the Faiss-default IVFADC refinement: codebooks
    are trained on and codes encode the RESIDUAL v - centroid(v), which
    quantizes much finer than raw vectors once the coarse assignment has
    removed the cluster mean; the query side adds the exact q.centroid
    term per probed list, so ADC scores stay comparable across lists with
    the same single set of LUTs."""
    import json
    import os
    import shutil

    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    sample = sample_vectors(ds, vec_col, PQ_SAMPLE)
    cents = train_centroids(sample, num_centroids, seed)
    if cents.size == 0:
        os.makedirs(out_dir, exist_ok=True)
        np.save(os.path.join(out_dir, "centroids.npy"), cents)
        np.save(os.path.join(out_dir, "books.npy"), np.zeros((0, 0, 0)))
        with open(os.path.join(out_dir, "meta.json"), "w") as f:
            json.dump({"m": m, "num_codes": num_codes, "empty": True,
                       "by_residual": by_residual}, f)
        return cents

    if by_residual:
        sample = sample - cents[assign_centroids(sample, cents)[0]]
    books = _train_pq_books(sample, m, num_codes, seed)

    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "centroids.npy"), cents)
    np.save(os.path.join(out_dir, "books.npy"), np.stack(books))
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"m": m, "num_codes": num_codes, "dim": int(sample.shape[1]),
                   "by_residual": by_residual}, f)

    cref = ray.put((cents, books))

    # plain broadcast-lookup function (no actor pool — BASELINE.md §4 rule)
    def assign_and_encode(batch: pa.Table) -> pa.Table:
        cents_, books_ = ray.get(cref)
        M = _normalize(_matrix(batch[vec_col]))
        assign = assign_centroids(M, cents_)[0].astype(np.int32)
        if len(M) == 0:
            codes = np.zeros((0, m), np.uint8)
        else:
            codes = _pq_encode(M - cents_[assign] if by_residual else M, books_)
        batch = batch.append_column(
            "pq_code", pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(m), len(codes), [None, pa.py_buffer(codes.tobytes())]
            )
        )
        return batch.append_column("centroid", pa.array(assign))

    ds.map_batches(assign_and_encode, batch_format="pyarrow").write_parquet(
        os.path.join(out_dir, "vectors"), partition_cols=["centroid"]
    )
    return cents


def _probe_groups(index_dir: str, query: np.ndarray, nprobe: int):
    """(normalized query, centroids, [(centroid_id, [shard paths])]) for
    the nprobe probed lists."""
    import glob
    import os

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    if cents.size == 0:
        return None, cents, []
    q = _unit(query)
    groups = []
    for c in _nearest(cents, q, nprobe):
        d = os.path.join(index_dir, "vectors", f"centroid={c}")
        if os.path.isdir(d):
            ps = sorted(glob.glob(os.path.join(d, "*.parquet")))
            if ps:
                groups.append((int(c), ps))
    return q, cents, groups


def ivfpq_probe_paths(index_dir: str, query: np.ndarray, nprobe: int):
    """(normalized query, probed-partition parquet paths) — exposed so
    callers/tests can assert the partition pruning."""
    q, _cents, groups = _probe_groups(index_dir, query, nprobe)
    return q, [p for _c, ps in groups for p in ps]


def ivfpq_index_topk(
    index_dir: str,
    id_col: str,
    vec_col: str,
    query: np.ndarray,
    k: int = 10,
    nprobe: int = 8,
    rerank: int = 4,
) -> pd.DataFrame:
    """Query the IVF-PQ index: pruned ADC scan over (id, code) columns of
    the nprobe probed partitions only, then exact cosine rerank of the top
    ``rerank*k`` ADC candidates (their full vectors re-read with an id
    filter pushed into the parquet scan).  Residual indexes add the exact
    q.centroid term per probed list (constant per partition, attached at
    its read), keeping ADC scores comparable across lists."""
    import json
    import os

    import pyarrow.parquet as pq_mod
    import ray.data

    q, cents, groups = _probe_groups(index_dir, query, nprobe)
    paths = [p for _c, ps in groups for p in ps]
    if not paths:
        return _no_hits(id_col)
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    m = meta["m"]
    by_residual = bool(meta.get("by_residual", False))
    books = [b for b in np.load(os.path.join(index_dir, "books.npy"))]
    sub = books[0].shape[1]
    luts = np.stack([q[j * sub : (j + 1) * sub] @ books[j].T for j in range(m)])
    lref = ray.put(luts)
    cand = rerank * k

    # ADC scan: column-pruned to (id, m-byte code); plain broadcast-lookup fn
    def adc(batch: pa.Table) -> pd.DataFrame:
        luts_ = ray.get(lref)
        col = batch["pq_code"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        if n == 0:
            return pd.DataFrame({id_col: [], "adc": []})
        # count= caps the view at exactly (offset+n)*m bytes: Arrow pads
        # buffers to 64-byte multiples, and the padding is only divisible
        # by m when m is a power of two — a bare reshape(-1, m) would
        # raise for other m
        codes = np.frombuffer(
            col.buffers()[1], dtype=np.uint8, count=(col.offset + n) * m
        ).reshape(-1, m)[col.offset :]
        s = np.zeros(n, dtype=np.float64)
        for j in range(m):
            s += luts_[j][codes[:, j]]
        if "cdot" in batch.schema.names:
            s += batch["cdot"].to_numpy(zero_copy_only=False)
        take = min(cand, n)
        top = np.argpartition(-s, take - 1)[:take]
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(zero_copy_only=False)[top],
                "adc": s[top],
            }
        )

    # one pruned read per probed list; residual indexes attach the list's
    # exact q.centroid dot as a constant column so cross-list ADC ranks hold
    def _list_ds(c: int, ps: list) -> "ray.data.Dataset":
        d = ray.data.read_parquet(ps, columns=[id_col, "pq_code"])
        if not by_residual:
            return d
        base = float(cents[c] @ q)

        def add_cdot(batch: pa.Table, base=base) -> pa.Table:
            return batch.append_column(
                "cdot", pa.array(np.full(batch.num_rows, base))
            )

        return d.map_batches(add_cdot, batch_format="pyarrow")

    dsets = [_list_ds(c, ps) for c, ps in groups]
    scan = dsets[0] if len(dsets) == 1 else dsets[0].union(*dsets[1:])
    adc_df = (
        scan.map_batches(adc, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["adc", id_col], ascending=[False, True])
        .head(cand)
    )
    if adc_df.empty:
        return _no_hits(id_col)
    cand_ids = adc_df[id_col].tolist()
    # exact rerank: re-read ONLY the candidates' full vectors (id filter
    # pushed to the probed partitions' row groups) — tiny driver-side table
    tbl = pq_mod.read_table(
        paths, columns=[id_col, vec_col], filters=[(id_col, "in", cand_ids)]
    )
    M = _normalize(_matrix(tbl[vec_col]))
    cos = M @ q
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -cos))[:k]
    out = pd.DataFrame({id_col: ids[order], "cos_sim": np.round(cos[order], 6)})
    return out.reset_index(drop=True)
