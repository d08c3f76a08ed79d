"""The one sketch protocol shared by every sketch family.

Lifecycle mirrors the reference UDAF decomposition (SURVEY.md §2.1:
init = qcore.c:64-72 create_tmp_q, update = qcore.c:201-248 insert,
merge = qcore.c:390-417 merge, serialize = qcore.c:434-501) but batch-first:
``update_batch`` takes a whole column slice (numpy / Arrow), never one value.

A family's class is its only definition: ``kind`` (wire tag), ``input_form``
(what the build stage hands ``update_batch``) and ``weighted`` (whether
inserts take weights) are class attributes, and ``register`` files the class
under its kind.  The build stage and the merge stage read nothing else.

Every sketch is a pure-Python + numpy object — no Ray imports here.  Sketch
instances are carried through Ray Data pipelines as serialized ``bytes`` in an
Arrow binary column (the "sketch row" IR: metric, group_key, sketch, payload,
n), which is what makes the merge stage a plain groupby over tiny payloads.
"""

from __future__ import annotations

import struct
from typing import Any, ClassVar

import numpy as np

from q_digest_ray.functions.hashing import hash64, splitmix64


class Sketch:
    """Protocol base.  Subclasses implement the five lifecycle methods."""

    #: short wire tag, unique per sketch family
    kind: ClassVar[str] = "?"
    #: the column form ``update_batch`` takes from the build stage:
    #: "numpy" (the column as numpy), "hashed" (its hash64, fed to
    #: ``update_hashed``), "arrow" (the raw Arrow column) or "matrix" (a
    #: list<float> column as an (n, d) row block)
    input_form: ClassVar[str] = "numpy"
    #: whether inserts take per-row weights; distinctness and membership
    #: sketches are weight-free by definition
    weighted: ClassVar[bool] = True

    @classmethod
    def check_weights(cls, weights) -> None:
        """The weight rule: a weight-free family rejects any weights."""
        if weights is not None and not cls.weighted:
            raise ValueError(
                f"{cls.kind} is a weight-free distinctness sketch — weights undefined"
            )

    @property
    def n(self) -> int:
        """Total inserted weight (the reference's ``QDigest.N``)."""
        raise NotImplementedError

    def update_batch(self, values, weights=None) -> None:
        raise NotImplementedError

    def merge(self, other: "Sketch") -> "Sketch":
        """In-place merge of ``other`` into ``self`` (other unchanged).

        Must be commutative and associative up to estimate bounds
        (property-tested in tests/test_merge_properties.py).
        """
        raise NotImplementedError

    @classmethod
    def merge_many(cls, sketches) -> "Sketch":
        """The merge of ``sketches`` (one or more) in one call.

        This default folds them pairwise into the first sketch, which it
        mutates and returns; a family overrides it with a one-pass merge
        where that is cheaper (``QDigest``)."""
        it = iter(sketches)
        acc = next(it, None)
        if acc is None:
            raise ValueError("merge_many needs at least one sketch")
        for sk in it:
            acc.merge(sk)
        return acc

    def to_bytes(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Sketch":
        raise NotImplementedError


class HashedSketch(Sketch):
    """A family that sees values only through their 64-bit ``hash64``.

    Subclasses implement ``update_hashed(h, weights=None)``; the build stage
    calls it with a column's hashes computed once for every hashing spec of
    a batch.  Weight-free families ignore ``weights`` there: callers apply
    ``check_weights`` first, as ``update_batch`` and the build stage do."""

    input_form: ClassVar[str] = "hashed"

    def update_batch(self, values, weights=None) -> None:
        self.check_weights(weights)
        self.update_hashed(hash64(values), weights)

    def update_hashed(self, h: np.ndarray, weights=None) -> None:
        raise NotImplementedError


def probe_positions(h: np.ndarray, k: int, m: int) -> np.ndarray:
    """(k, n) positions in [0, m) from base hashes by double hashing
    (Kirsch-Mitzenmacher): probe j of hash h is ``(h + j * h2) mod m`` with
    ``h2 = splitmix64(h) | 1``.  Bloom bits and Count-Min cells."""
    h2 = splitmix64(h) | np.uint64(1)
    j = np.arange(k, dtype=np.uint64)[:, None]
    return ((h[None, :] + j * h2[None, :]) % np.uint64(m)).astype(np.int64)


class CounterTable(HashedSketch):
    """int64[depth x width] counter matrix shared by Count-Min and
    Count-Sketch: both are linear, so merge is elementwise add (exactly
    associative/commutative), and both serialize as a ``<BIIQ`` header
    (version, depth, width, n) followed by the table.  Subclasses differ only
    in how a hash maps to cells and how cells answer queries."""

    __slots__ = ("depth", "width", "table", "_n")

    def __init__(self, depth: int, width: int):
        self.depth = int(depth)
        self.width = int(width)
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._n = 0

    @property
    def n(self) -> int:
        return self._n

    def _check_shape(self, other: "CounterTable", op: str) -> None:
        if (other.depth, other.width) != (self.depth, self.width):
            raise ValueError(f"cannot {op} {type(self).__name__} with different shapes")

    def merge(self, other: "CounterTable") -> "CounterTable":
        self._check_shape(other, "merge")
        self.table += other.table
        self._n += other._n
        return self

    def to_bytes(self) -> bytes:
        return (
            struct.pack("<BIIQ", 1, self.depth, self.width, self._n)
            + self.table.tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CounterTable":
        ver, depth, width, n = struct.unpack_from("<BIIQ", buf, 0)
        c = cls(depth=depth, width=width)
        c._n = n
        c.table = np.frombuffer(
            buf, dtype=np.int64, count=depth * width, offset=17
        ).reshape(depth, width).copy()
        return c

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.depth}, w={self.width}, n={self._n})"


# ---------------------------------------------------------------------------
# serde helpers: length-prefixed numpy arrays (the reference's fixed 128-byte
# buffers are exactly what we must NOT do — SURVEY.md §2.4.4)
# ---------------------------------------------------------------------------

def pack_arrays(header: bytes, *arrays: np.ndarray) -> bytes:
    parts = [struct.pack("<I", len(header)), header, struct.pack("<B", len(arrays))]
    for a in arrays:
        a = np.ascontiguousarray(a)
        dt = a.dtype.str.encode()
        parts.append(struct.pack("<B", len(dt)))
        parts.append(dt)
        parts.append(struct.pack("<Q", a.nbytes))
        parts.append(a.tobytes())
    return b"".join(parts)


def unpack_arrays(buf: bytes) -> tuple[bytes, list[np.ndarray]]:
    (hlen,) = struct.unpack_from("<I", buf, 0)
    off = 4
    header = buf[off : off + hlen]
    off += hlen
    (n_arr,) = struct.unpack_from("<B", buf, off)
    off += 1
    arrays = []
    for _ in range(n_arr):
        (dlen,) = struct.unpack_from("<B", buf, off)
        off += 1
        dt = np.dtype(buf[off : off + dlen].decode())
        off += dlen
        (nbytes,) = struct.unpack_from("<Q", buf, off)
        off += 8
        arrays.append(np.frombuffer(buf, dtype=dt, count=nbytes // dt.itemsize, offset=off).copy())
        off += nbytes
    return header, arrays


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    _REGISTRY[cls.kind] = cls
    return cls


def sketch_class(kind: str) -> type:
    """The registered class of ``kind`` (every family module is imported by
    ``q_digest_ray.sketches``, so all kinds are registered here)."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown sketch kind {kind!r} (known: {', '.join(sorted(_REGISTRY))})"
        ) from None


def sketch_from_bytes(kind: str, buf: bytes) -> Any:
    return sketch_class(kind).from_bytes(buf)
