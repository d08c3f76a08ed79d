"""HyperLogLog distinct-count sketch (Flajolet et al. 2007, public algorithm).

Dense register layout: uint8[2**p].  Merge = elementwise max (commutative,
associative, idempotent) — the same mergeable-UDAF lifecycle as the reference
Q-Digest (SURVEY.md §2.3).  Bias-corrected estimator with linear counting for
the small range, per the original paper.
"""

from __future__ import annotations

import struct

import numpy as np

from q_digest_ray.sketches.base import HashedSketch, register


class HyperLogLog(HashedSketch):
    kind = "hll"
    weighted = False

    __slots__ = ("p", "m", "registers", "_n")

    def __init__(self, p: int = 12):
        if not (4 <= p <= 18):
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)
        self._n = 0  # total rows observed (not distinct)

    @property
    def n(self) -> int:
        return self._n

    @property
    def relative_error(self) -> float:
        return 1.04 / (self.m**0.5)

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        if h.size == 0:
            return
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of the remaining 64-p bits, +1; max 64-p+1
        nbits = 64 - self.p
        rank = np.full(h.shape, nbits + 1, dtype=np.uint8)
        nz = rest != 0
        if nz.any():
            # floor(log2(rest)) exact via frexp on the top 53 bits is unsafe
            # for full 64-bit values; split into high/low 32-bit halves.
            r = rest[nz]
            hi = (r >> np.uint64(32)).astype(np.uint32)
            lo = (r & np.uint64(0xFFFFFFFF)).astype(np.uint32)
            msb = np.where(
                hi != 0,
                np.frexp(hi.astype(np.float64))[1] + 31,
                np.frexp(lo.astype(np.float64))[1] - 1,
            )
            rank[nz] = (64 - msb).astype(np.uint8)  # leading zeros + 1
        np.maximum.at(self.registers, idx, rank)
        self._n += int(h.size)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("cannot merge HLLs with different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        self._n += other._n
        return self

    def estimate(self) -> float:
        m = float(self.m)
        am = {16: 0.673, 32: 0.697, 64: 0.709}.get(self.m, 0.7213 / (1 + 1.079 / m))
        regs = self.registers.astype(np.float64)
        e = am * m * m / np.sum(np.exp2(-regs))
        if e <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                e = m * np.log(m / zeros)  # linear counting
        elif e > (1 << 64) / 30.0:  # pragma: no cover - astronomically large
            e = -(1 << 64) * np.log(1 - e / (1 << 64))
        return float(e)

    def to_bytes(self) -> bytes:
        return struct.pack("<BBQ", 1, self.p, self._n) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "HyperLogLog":
        ver, p, n = struct.unpack_from("<BBQ", buf, 0)
        h = cls(p=p)
        h._n = n
        h.registers = np.frombuffer(buf, dtype=np.uint8, count=h.m, offset=10).copy()
        return h

    def __repr__(self) -> str:
        return f"HyperLogLog(p={self.p}, n={self._n}, est={self.estimate():.1f})"


register(HyperLogLog)
