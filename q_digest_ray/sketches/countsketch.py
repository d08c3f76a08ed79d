"""Count-Sketch / AMS tug-of-war (Charikar, Chen & Farach-Colton 2002;
Alon, Matias & Szegedy 1996 — public algorithms).

int64[depth x width] counters; each row hashes a key to one bucket and a
±1 sign, update adds sign·weight.  The sketch is LINEAR — merge is
elementwise add (exactly associative/commutative), and negative weights
(deletions / turnstile streams) are valid, the capability Count-Min lacks.

Estimates (median over the depth rows):
- ``f2_estimate``   Σ_b c² per row — unbiased for F2 = Σ_x f_x², the
  self-join size; rel. std-error ≈ sqrt(2/width) per row.
- ``point query``   sign·counter — unbiased for f_x, |err| ≤
  sqrt(F2/width) per row w.h.p. (two-sided, vs CMS's one-sided overcount).
- ``inner_product`` Σ_b a·b per row — unbiased for the join size a·b
  (complement of cms.inner_product's overestimate).

Accumulation for the quadratic forms is in unbounded Python ints (per-cell
squares/products overflow int64 silently at large-stream scale — the same
guard cms.inner_product applies).
"""

from __future__ import annotations

import numpy as np

from q_digest_ray.functions.hashing import hash64, splitmix64
from q_digest_ray.sketches.base import CounterTable, register

_ROW_SALT = np.uint64(0x9E3779B97F4A7C15)


class CountSketch(CounterTable):
    kind = "csk"

    __slots__ = ()

    def __init__(self, depth: int = 5, width: int = 1024):
        if depth < 1 or width < 8:
            raise ValueError("depth >= 1 and width >= 8 required")
        # n is the total |weight| mass (update count for weightless use)
        super().__init__(depth, width)

    def _bucket_sign(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(depth, n) bucket indices and ±1 signs from base hashes."""
        j = (np.arange(self.depth, dtype=np.uint64) + np.uint64(1))[:, None]
        g = splitmix64(h[None, :] ^ (j * _ROW_SALT))
        buckets = (g % np.uint64(self.width)).astype(np.int64)
        signs = ((g >> np.uint64(63)).astype(np.int64) << 1) - 1
        return buckets, signs

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        if h.size == 0:
            return
        w = (
            np.ones(h.size, dtype=np.int64)
            if weights is None
            else np.asarray(weights, dtype=np.int64)
        )
        buckets, signs = self._bucket_sign(h)
        for d in range(self.depth):
            np.add.at(self.table[d], buckets[d], signs[d] * w)
        self._n += int(np.abs(w).sum())

    def query(self, values) -> np.ndarray:
        """Unbiased point-frequency estimates (median over rows)."""
        h = hash64(values)
        if h.size == 0:
            return np.zeros(0, dtype=np.int64)
        buckets, signs = self._bucket_sign(h)
        ests = np.stack(
            [signs[d] * self.table[d][buckets[d]] for d in range(self.depth)]
        )
        # an even depth averages the middle two rows: round the x.5 median
        # (half to even) instead of truncating it toward zero
        return np.round(np.median(ests, axis=0)).astype(np.int64)

    def f2_estimate(self) -> int:
        """Self-join size Σ f² (median-of-rows tug-of-war estimate)."""
        rows = sorted(int((r * r).sum()) for r in self.table.astype(object))
        return rows[len(rows) // 2]

    def inner_product(self, other: "CountSketch") -> int:
        """Unbiased join-size estimate a·b; sketches must share shape (the
        hash family is seed-fixed, so shapes equal ⇒ hashes equal)."""
        self._check_shape(other, "inner-product")
        a = self.table.astype(object)
        b = other.table.astype(object)
        rows = sorted(int(x) for x in (a * b).sum(axis=1))
        return rows[len(rows) // 2]


register(CountSketch)
