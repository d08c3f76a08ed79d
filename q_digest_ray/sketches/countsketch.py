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

import struct

import numpy as np
import pyarrow as pa

from q_digest_ray.functions.hashing import hash64, splitmix64
from q_digest_ray.sketches.base import Sketch, register

_ROW_SALT = np.uint64(0x9E3779B97F4A7C15)


class CountSketch(Sketch):
    kind = "csk"

    __slots__ = ("depth", "width", "table", "_n")

    def __init__(self, depth: int = 5, width: int = 1024):
        if depth < 1 or width < 8:
            raise ValueError("depth >= 1 and width >= 8 required")
        self.depth = int(depth)
        self.width = int(width)
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._n = 0  # total |weight| mass (update count for weightless use)

    @property
    def n(self) -> int:
        return self._n

    def _bucket_sign(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(depth, n) bucket indices and ±1 signs from base hashes."""
        j = (np.arange(self.depth, dtype=np.uint64) + np.uint64(1))[:, None]
        g = splitmix64(h[None, :] ^ (j * _ROW_SALT))
        buckets = (g % np.uint64(self.width)).astype(np.int64)
        signs = ((g >> np.uint64(63)).astype(np.int64) << 1) - 1
        return buckets, signs

    def update_batch(self, values, weights=None) -> None:
        h = hash64(
            values if isinstance(values, (pa.Array, pa.ChunkedArray)) else np.asarray(values)
        )
        self.update_hashed(h, weights)

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
        h = hash64(
            values if isinstance(values, (pa.Array, pa.ChunkedArray)) else np.asarray(values)
        )
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
        if (other.depth, other.width) != (self.depth, self.width):
            raise ValueError("cannot inner-product CountSketch with different shapes")
        a = self.table.astype(object)
        b = other.table.astype(object)
        rows = sorted(int(x) for x in (a * b).sum(axis=1))
        return rows[len(rows) // 2]

    def merge(self, other: "CountSketch") -> "CountSketch":
        if (other.depth, other.width) != (self.depth, self.width):
            raise ValueError("cannot merge CountSketch with different shapes")
        self.table += other.table
        self._n += other._n
        return self

    def to_bytes(self) -> bytes:
        return (
            struct.pack("<BIIQ", 1, self.depth, self.width, self._n)
            + self.table.tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CountSketch":
        ver, depth, width, n = struct.unpack_from("<BIIQ", buf, 0)
        c = cls(depth=depth, width=width)
        c._n = n
        c.table = np.frombuffer(
            buf, dtype=np.int64, count=depth * width, offset=17
        ).reshape(depth, width).copy()
        return c

    def __repr__(self) -> str:
        return f"CountSketch(d={self.depth}, w={self.width}, n={self._n})"


register(CountSketch)
