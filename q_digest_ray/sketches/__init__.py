"""Every sketch family.  Importing any ``q_digest_ray.sketches`` module runs
this file, so all families are registered (``base.sketch_class``) before the
build or merge stage looks a kind up."""

from q_digest_ray.sketches.base import Sketch, sketch_from_bytes
from q_digest_ray.sketches.qdigest import QDigest
from q_digest_ray.sketches.hll import HyperLogLog
from q_digest_ray.sketches.cms import CountMinSketch
from q_digest_ray.sketches.countsketch import CountSketch
from q_digest_ray.sketches.bloom import BloomFilter
from q_digest_ray.sketches.tdigest import TDigest
from q_digest_ray.sketches.kll import KLL
from q_digest_ray.sketches.ddsketch import DDSketch
from q_digest_ray.sketches.kmv import KMV
from q_digest_ray.sketches.misra_gries import MisraGries
from q_digest_ray.sketches.sample import SampleSketch
from q_digest_ray.sketches.freq_directions import FrequentDirections

__all__ = [
    "Sketch",
    "sketch_from_bytes",
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
