"""Bottom-k (KMV / theta-style) distinct sketch (Bar-Yossef et al. 2002;
the basis of Apache DataSketches' theta family — public algorithms).

Keeps the k smallest 64-bit hashes of the stream.  Supports:
- distinct estimate: (k-1) / theta where theta = kth-smallest / 2**64
- union: merge hash sets, keep k smallest (exact-associative)
- intersection estimate between two sketches: |A∩B over the shared theta|
  scaled back — the set-operation capability HLL lacks.
"""

from __future__ import annotations

import struct

import numpy as np

from q_digest_ray.sketches.base import HashedSketch, register

_MAX = np.float64(2**64)


def bottomk_theta(hashes: np.ndarray, k: int) -> float:
    """Sampling threshold of a sorted bottom-k hash set (1.0 while < k)."""
    if len(hashes) < k:
        return 1.0
    return float(hashes[k - 1]) / float(_MAX)


def bottomk_estimate(hashes: np.ndarray, k: int) -> float:
    """(k-1)/theta distinct estimate — shared by KMV and SampleSketch so
    the estimator lives in exactly one place."""
    if len(hashes) < k:
        return float(len(hashes))
    return (k - 1) / bottomk_theta(hashes, k)


class KMV(HashedSketch):
    kind = "kmv"
    weighted = False

    __slots__ = ("k", "_hashes", "_n")

    def __init__(self, k: int = 1024):
        if k < 16:
            raise ValueError("k must be >= 16")
        self.k = int(k)
        self._hashes = np.empty(0, dtype=np.uint64)  # sorted ascending, unique
        self._n = 0

    @property
    def n(self) -> int:
        return self._n

    def _trim(self, h: np.ndarray) -> None:
        u = np.unique(np.concatenate([self._hashes, h]))
        self._hashes = u[: self.k]

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        if h.size == 0:
            return
        self._trim(h)
        self._n += int(h.size)

    def merge(self, other: "KMV") -> "KMV":
        # union keeps the SMALLER k (the coarser sampling threshold governs)
        self.k = min(self.k, other.k)
        self._trim(other._hashes)
        self._hashes = self._hashes[: self.k]
        self._n += other._n
        return self

    @property
    def theta(self) -> float:
        """Sampling threshold in [0, 1]; 1.0 while fewer than k distincts."""
        return bottomk_theta(self._hashes, self.k)

    def estimate(self) -> float:
        return bottomk_estimate(self._hashes, self.k)

    def _shared_window(self, other: "KMV") -> tuple[float, np.ndarray, np.ndarray]:
        """(theta, a, b): the coarser threshold of the two sketches and each
        one's hashes below it."""
        theta = min(self.theta, other.theta)
        lim = np.uint64(int(theta * float(_MAX)) - 1) if theta < 1.0 else np.uint64(2**64 - 1)
        return theta, self._hashes[self._hashes <= lim], other._hashes[other._hashes <= lim]

    def intersection_estimate(self, other: "KMV") -> float:
        """Estimated distinct count of the intersection (inclusion over the
        shared theta window)."""
        theta, a, b = self._shared_window(other)
        return len(np.intersect1d(a, b, assume_unique=True)) / theta

    def jaccard_estimate(self, other: "KMV") -> float:
        _theta, a, b = self._shared_window(other)
        union = len(np.union1d(a, b))
        if union == 0:
            return 1.0
        return len(np.intersect1d(a, b, assume_unique=True)) / union

    def to_bytes(self) -> bytes:
        h = np.ascontiguousarray(self._hashes)
        return struct.pack("<BIQQ", 1, self.k, self._n, len(h)) + h.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "KMV":
        ver, k, n, m = struct.unpack_from("<BIQQ", buf, 0)
        s = cls(k=k)
        s._n = n
        s._hashes = np.frombuffer(buf, dtype=np.uint64, count=m, offset=21).copy()
        return s

    def __repr__(self) -> str:
        return f"KMV(k={self.k}, n={self._n}, est={self.estimate():.1f})"


register(KMV)
