"""Bloom filter (Bloom 1970, public algorithm).  Bit array as uint8[m/8];
k probes via double hashing (Kirsch-Mitzenmacher); merge = bitwise OR.
Zero false negatives by construction; FP rate ~= (1 - e**(-kn/m))**k.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.sketches.base import HashedSketch, probe_positions, register


class BloomFilter(HashedSketch):
    kind = "bloom"
    weighted = False

    __slots__ = ("num_bits", "num_hashes", "bits", "_n")

    def __init__(self, num_bits: int = 1 << 20, num_hashes: int = 7):
        # round bits up to a byte multiple
        self.num_bits = int(num_bits + 7) // 8 * 8
        self.num_hashes = int(num_hashes)
        self.bits = np.zeros(self.num_bits // 8, dtype=np.uint8)
        self._n = 0

    @classmethod
    def from_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        m = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
        k = max(1, round(m / capacity * math.log(2)))
        return cls(num_bits=m, num_hashes=k)

    @property
    def n(self) -> int:
        return self._n

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        if h.size == 0:
            return
        pos = probe_positions(h, self.num_hashes, self.num_bits).ravel()
        np.bitwise_or.at(self.bits, pos >> 3, np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)))
        self._n += int(h.size)

    def contains(self, values) -> np.ndarray:
        """Vectorized membership probe → bool array."""
        h = hash64(values)
        if h.size == 0:
            return np.zeros(0, dtype=bool)
        pos = probe_positions(h, self.num_hashes, self.num_bits)  # (k, n)
        byte = self.bits[pos >> 3]
        mask = np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))
        return ((byte & mask) != 0).all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.num_bits, other.num_hashes) != (self.num_bits, self.num_hashes):
            raise ValueError("cannot merge Bloom filters with different shapes")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        self._n += other._n
        return self

    def fill_ratio(self) -> float:
        return float(np.unpackbits(self.bits).mean())

    def to_bytes(self) -> bytes:
        return (
            struct.pack("<BQIQ", 1, self.num_bits, self.num_hashes, self._n)
            + self.bits.tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BloomFilter":
        ver, num_bits, k, n = struct.unpack_from("<BQIQ", buf, 0)
        b = cls(num_bits=num_bits, num_hashes=k)
        b._n = n
        b.bits = np.frombuffer(buf, dtype=np.uint8, count=num_bits // 8, offset=21).copy()
        return b

    def __repr__(self) -> str:
        return f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, n={self._n})"


register(BloomFilter)
