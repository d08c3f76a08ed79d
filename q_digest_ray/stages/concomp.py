"""Distributed connected components over a Dataset of (a, b) edges.

Assembles duplicate GROUPS from verified duplicate pairs without a
driver-side union-find: min-label propagation expressed as alternating
large-star / small-star rounds of bucketed groupbys (the public MapReduce
connected-components algorithm of Kiveris et al. 2014, "Connected
Components in MapReduce and Beyond").  The reference has no grouping
operator at all (SURVEY.md §2.2); the r2 driver union-find was fine at
~2% dup rate but a boilerplate-heavy crawl makes the pair set
corpus-sized (r2 VERDICT missing-item 1) — this is the scale path.

Per round, every operation is a coarse-bucket groupby whose group body is
a vectorized numpy segment reduction (lexsort + reduceat-style mins) — no
per-edge Python, and the driver only ever sees a per-round
(count, checksum) scalar pair for convergence detection.  Edge datasets
are materialized once per round: iterative lineage would otherwise
re-execute every prior round from scratch on each consumption.

Semantics: converges to a star graph (every node linked directly to its
component minimum); ``connected_components`` returns one (node, label)
row per node that appears in any edge, label = component min — exactly
the {x: find(x)} mapping of the driver union-find it replaces
(property-tested against it in tests/test_round3.py).

Hot-center bound: in late rounds a component's min node accumulates
degree ~ component size, so ONE bucket task holds that center's edge
segment — O(members x 16 B) memory (a 10^8-member dup class is ~1.6 GB
in one task) and O(degree) emission per center (the star formulation's
point: never O(degree^2)).  For components beyond single-task memory,
raise ``num_buckets`` (other centers spread out) or pre-collapse exact
duplicates (dedup_exact) before near-dup grouping — the standard
pipeline order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from q_digest_ray.functions.hashing import splitmix64

_PRIME = np.uint64(0x100000001B3)


def _bucket_of(x: np.ndarray, B: int) -> np.ndarray:
    return (splitmix64(x.astype(np.int64).view(np.uint64)) % np.uint64(B)).astype(
        np.int32
    )


def _star_round(edges_ds, large: bool, B: int):
    """One large-star (or small-star) round: edges (a>b) → new edges (a>b).

    large-star: center every node x; for each neighbor y > x, link y to
    m = min(neighbors(x) ∪ {x}).  small-star: center the larger endpoint
    x; link x and every (smaller) neighbor to m = min(neighbors(x)).
    Both strictly decrease the potential of the paper; alternating them
    reaches the star-graph fixpoint.
    """

    def to_center_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if large:
            x = np.concatenate([a, b])
            y = np.concatenate([b, a])
        else:
            x, y = a, b  # edges are normalized a > b
        return pa.table(
            {"x": pa.array(x), "y": pa.array(y), "bucket": pa.array(_bucket_of(x, B))}
        )

    def per_center(g: pd.DataFrame) -> pd.DataFrame:
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        order = np.lexsort((y, x))
        x, y = x[order], y[order]
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        counts = np.diff(np.append(starts, len(x)))
        m = np.minimum(y[starts], x[starts])  # min(Γ(x) ∪ {x}); y sorted asc
        seg = np.repeat(np.arange(len(starts)), counts)
        mm = m[seg]
        if large:
            mask = y > x
            out_a, out_b = y[mask], mm[mask]
        else:
            out_a = np.concatenate([x[starts], y])
            out_b = np.concatenate([m, mm])
        keep = out_a != out_b  # drop self-loops (m == the node itself)
        # emitted edges always satisfy a > b: m <= x < y (large),
        # m <= y <= x (small, self-loops dropped)
        return pd.DataFrame({"a": out_a[keep], "b": out_b[keep]}).drop_duplicates()

    return (
        edges_ds.map_batches(to_center_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_center, batch_format="pandas")
    )


def _dedup_edges(edges_ds, B: int):
    """Global edge dedup (the same edge can be emitted from many centers)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = splitmix64(a.view(np.uint64) * _PRIME + b.view(np.uint64))
        return pa.table(
            {
                "a": pa.array(a),
                "b": pa.array(b),
                "bucket": pa.array((key % np.uint64(B)).astype(np.int32)),
            }
        )

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g[["a", "b"]].drop_duplicates()

    return (
        edges_ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct, batch_format="pandas")
    )


def _signature(edges_ds) -> tuple[int, int, int]:
    """(edge count, two order-independent checksums) — the convergence key.

    Computed as tiny per-batch partials.  A signature repeat across
    consecutive rounds is taken as the fixpoint; since both rounds are
    deterministic, equal SETS really are fixed forever, and unequal sets
    are only mistaken for equal on a simultaneous collision of both
    independent 64-bit mixed sums (~2^-128 per round) — in that
    astronomically unlikely event the labels would be derived from a
    non-fixpoint edge set, i.e. wrong, so two salts rather than one.

    Dtype discipline: the uint64 wrap-around sums are carried as int64
    BIT PATTERNS in fixed-schema numpy columns.  The first version built
    the partial row from a Python int, which pandas typed int64 or uint64
    depending on magnitude — mixed per-block dtypes that Ray promoted to
    float64, quantizing low bits, so the SAME edge set produced different
    checksums under different block partitionings and convergence was
    never detected (found by the round-3 review; confirmed by repro)."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = a.view(np.uint64) * _PRIME + b.view(np.uint64)
        s1 = np.array([splitmix64(key).sum(dtype=np.uint64)], np.uint64)
        s2 = np.array(
            [splitmix64(key ^ np.uint64(0x9E3779B97F4A7C15)).sum(dtype=np.uint64)],
            np.uint64,
        )
        return pd.DataFrame(
            {
                "n": np.array([len(a)], np.int64),
                "s1": s1.view(np.int64),
                "s2": s2.view(np.int64),
            }
        )

    parts = edges_ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    return (
        int(parts["n"].sum()),
        int(parts["s1"].to_numpy(np.int64).view(np.uint64).sum(dtype=np.uint64)),
        int(parts["s2"].to_numpy(np.int64).view(np.uint64).sum(dtype=np.uint64)),
    )


def connected_components(pairs_ds, num_buckets: int = 32, max_rounds: int = 64):
    """Dataset of (a, b) pairs → Dataset of (node, label) component labels.

    Alternates large-star / small-star rounds until the edge set is a
    fixpoint (the star graph), then derives labels in one more bucketed
    pass.  ``max_rounds`` is a safety valve far above the O(log^2 n)
    bound; hitting it raises rather than returning wrong groups.
    """
    B = num_buckets

    def normalize(batch: pa.Table) -> pd.DataFrame:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        keep = hi != lo
        return pd.DataFrame({"a": hi[keep], "b": lo[keep]}).drop_duplicates()

    import ray.data

    def _pin(ds):
        """Materialize AND sever lineage/stats ancestry.

        A bare ``materialize()`` keeps the full stats parent chain of the
        round's sub-plan, whose input is the previous round's materialized
        dataset — after tens of rounds the chain is deep enough that Ray's
        recursive stats summarization hits Python's recursion limit.
        Rebuilding from the materialized Arrow block refs is zero-copy
        (blocks stay in the object store; only refs pass through the
        driver) and gives each round a fresh, ancestry-free dataset.
        """
        return ray.data.from_arrow_refs(ds.materialize().to_arrow_refs())

    edges = _pin(_dedup_edges(pairs_ds.map_batches(normalize, batch_format="pyarrow"), B))
    prev_sig = _signature(edges)
    for _ in range(max_rounds):
        edges = _dedup_edges(_star_round(edges, large=True, B=B), B)
        edges = _pin(_dedup_edges(_star_round(edges, large=False, B=B), B))
        sig = _signature(edges)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    # star graph → labels: non-roots appear as `a` with their root as `b`
    # (take min defensively); roots appear only as `b` — emit (b, b) rows
    # and fold with a min so every node gets exactly one label row
    def to_label_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        label = np.concatenate([b, b])
        return pa.table(
            {
                "node": pa.array(node),
                "label": pa.array(label),
                "bucket": pa.array(_bucket_of(node, B)),
            }
        )

    def per_node(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False, sort=False).agg(label=("label", "min"))
        return out[["node", "label"]]

    return (
        edges.map_batches(to_label_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_node, batch_format="pandas")
    )


def dense_component_labels(adj: np.ndarray) -> np.ndarray:
    """Component label of each node of the graph with symmetric boolean
    n×n adjacency ``adj``: the smallest node index in its component.

    The in-task counterpart of ``connected_components`` for one dense block
    (SemDeDup's per-cluster similarity matrix).  Each round hooks every
    tree root to the smallest label any of its members sees among their
    neighbours, then shortcuts pointers (``labels[labels]``) until every
    node points at a root.  Labels only decrease and always name a node of
    the same component, so the fixpoint is the component minimum.  Plain
    min-label spreading needs one round per hop (O(n) on a chain), and
    pointer jumping without the hook still needs ~n/3 rounds on a chain
    whose ids are in random order; hook-and-shortcut took 2-7 rounds on
    512-node chains in every id order tried."""
    n = len(adj)
    labels = np.arange(n)
    while True:
        m = np.minimum(np.where(adj, labels[None, :], n).min(axis=1), labels)
        new = labels.copy()
        np.minimum.at(new, labels, m)  # hook: each root takes its tree's min
        new = np.minimum(new, m)
        while True:  # shortcut
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        if np.array_equal(new, labels):
            return labels
        labels = new
