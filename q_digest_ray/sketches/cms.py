"""Count-Min sketch (Cormode & Muthukrishnan 2005, public algorithm).

int64[depth x width] counter matrix (``base.CounterTable``, shared with
Count-Sketch); update adds weights at d hashed cells (double hashing
h1 + j*h2, ``base.probe_positions``); point query = min over rows (overcount <= eps*n
with eps = e/width, prob 1 - delta, delta = e**-depth).  Merge = elementwise
add — commutative/associative exactly.

Heavy hitters at scale: pair the CMS with a small exact candidate set (the
per-batch top keys), since the CMS answers point queries, not enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.sketches.base import CounterTable, probe_positions, register


class CountMinSketch(CounterTable):
    kind = "cms"

    __slots__ = ()

    def __init__(self, depth: int = 5, width: int = 4096):
        super().__init__(depth, width)

    @classmethod
    def from_error(cls, eps: float, delta: float) -> "CountMinSketch":
        return cls(
            depth=max(1, math.ceil(math.log(1.0 / delta))),
            width=max(8, math.ceil(math.e / eps)),
        )

    @property
    def eps(self) -> float:
        return math.e / self.width

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        if h.size == 0:
            return
        w = (
            np.ones(h.size, dtype=np.int64)
            if weights is None
            else np.asarray(weights, dtype=np.int64)
        )
        if weights is not None and w.size and w.min() < 0:
            # negative counters would break the one-sided overcount bound
            raise ValueError("weights must be non-negative")
        cells = probe_positions(h, self.depth, self.width)
        for d in range(self.depth):
            np.add.at(self.table[d], cells[d], w)
        self._n += int(w.sum())

    def query(self, values) -> np.ndarray:
        """Estimated counts for each value (vectorized point queries)."""
        h = hash64(values)
        if h.size == 0:
            return np.zeros(0, dtype=np.int64)
        cells = probe_positions(h, self.depth, self.width)
        ests = np.stack([self.table[d][cells[d]] for d in range(self.depth)])
        return ests.min(axis=0)

    def inner_product(self, other: "CountMinSketch") -> int:
        """Join-size / inner-product estimate (Cormode & Muthukrishnan §4.2,
        public algorithm): for frequency vectors a, b the estimate is
        min_d Σ_w table_a[d,w]·table_b[d,w] — an OVERestimate of a·b with
        error ≤ ε·‖a‖₁·‖b‖₁ w.p. 1−δ.  Both sketches must share (depth,
        width) and, because the row hash family here is fixed by the seed,
        they automatically share hash functions as required."""
        self._check_shape(other, "inner-product")
        # accumulate in unbounded Python ints: per-cell products can reach
        # ~n_a*n_b/width, which overflows int64 (and numpy wraps SILENTLY)
        # for the large-stream scale this docstring targets — same guard
        # sk_skew_f2 applies for exact F2
        a = self.table.astype(object)
        b = other.table.astype(object)
        return int(min((a * b).sum(axis=1)))


register(CountMinSketch)
