"""q_digest_ray — a Ray-Data-native mergeable-sketch data-processing engine.

A from-scratch re-expression of the capabilities of the reference Q-Digest
repo (C/MPI quantile sketch; see /root/reference) as an idiomatic Ray Data
library: sketches are commutative/associative per-partition UDAFs updated via
``Dataset.map_batches`` over zero-copy Arrow batches and merged by a
``map_batches`` combiner plus a coalescing log-depth fold
(``stages/merge.merge_grouped``).

Nothing in this package calls ``ray.init()`` — sessions are owned by the
driver / bench / test harness (see ``__ray_entry__.py`` contract).
"""

from q_digest_ray.sketches import (
    KLL,
    KMV,
    BloomFilter,
    CountMinSketch,
    CountSketch,
    DDSketch,
    FrequentDirections,
    HyperLogLog,
    MisraGries,
    QDigest,
    SampleSketch,
    TDigest,
)

__all__ = [
    "QDigest",
    "HyperLogLog",
    "CountMinSketch",
    "CountSketch",
    "BloomFilter",
    "TDigest",
    "KLL",
    "DDSketch",
    "KMV",
    "MisraGries",
    "SampleSketch",
    "FrequentDirections",
]
