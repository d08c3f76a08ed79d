"""Deterministic mergeable uniform sample of DISTINCT values.

KMV's bottom-k-by-hash idea (Bar-Yossef et al. 2002), but carrying the
VALUES alongside their hash priorities: the k distinct values whose
64-bit hashes are smallest form a uniform sample of the distinct-value
set (each distinct value's hash is a fixed pseudo-random priority, so
membership is layout/partition/merge-order INVARIANT and the merge is
exactly associative — unlike classic reservoir sampling, whose per-row
randomness is not reproducible across block layouts).

Two value domains (picked by the first inserted column's type, enforced
on merge): INT64 for integer/temporal columns, STR for string/binary —
so sampling "hosts" or "urls" works as the docstring always advertised
(r3 ADVICE: the int64-only version raised on strings while the builder
exposed 'sample' for arbitrary columns).  Floats are sampled by their
int64 truncation, matching the int64 distinct domain.

Dual use: the hash set doubles as a KMV estimator, so ``estimate()``
gives the distinct count while ``sample()`` yields the sampled values —
the "show me representative values + how many there are" primitive a
curation pipeline wants (sample distinct user ids, hosts, doc lengths).

Reference analog: none (the reference has a single quantile sketch);
mergeability contract mirrors qcore.c:390-417 merge semantics.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from q_digest_ray.functions.hashing import hash64
from q_digest_ray.sketches.kmv import bottomk_estimate, bottomk_theta
from q_digest_ray.sketches.base import Sketch, pack_arrays, register, unpack_arrays

_MODE_INT = 0
_MODE_STR = 1


@register
class SampleSketch(Sketch):
    kind = "sample"
    input_form = "arrow"  # hashes internally and keeps the raw values
    weighted = False

    __slots__ = ("k", "_hashes", "_values", "_n", "_mode")

    def __init__(self, k: int = 256):
        if k < 4:
            raise ValueError("k must be >= 4")
        self.k = int(k)
        self._hashes = np.empty(0, dtype=np.uint64)  # sorted asc, unique
        self._values = np.empty(0, dtype=np.int64)  # aligned with _hashes
        self._n = 0
        self._mode: int | None = None  # set by first insert / merge

    @property
    def n(self) -> int:
        return self._n

    def _set_mode(self, mode: int) -> None:
        if self._mode is None:
            self._mode = mode
            if mode == _MODE_STR:
                self._values = np.empty(0, dtype=object)
        elif self._mode != mode:
            raise TypeError(
                "SampleSketch value domain mismatch: "
                f"{'str' if self._mode else 'int64'} sketch fed "
                f"{'str' if mode else 'int64'} values"
            )

    def _trim(self, h: np.ndarray, v: np.ndarray) -> None:
        ch = np.concatenate([self._hashes, h])
        cv = np.concatenate([self._values, v])
        order = np.argsort(ch, kind="stable")
        ch, cv = ch[order], cv[order]
        keep = np.ones(len(ch), dtype=bool)
        keep[1:] = ch[1:] != ch[:-1]
        self._hashes = ch[keep][: self.k]
        self._values = cv[keep][: self.k]

    def _threshold(self) -> np.uint64:
        """Hashes >= this can never enter the sample (prefilter bound)."""
        if len(self._hashes) < self.k:
            return np.uint64(0xFFFFFFFFFFFFFFFF)
        return self._hashes[-1]

    def update_batch(self, values, weights=None) -> None:
        """Hash priorities come from the RAW column values via hash64 (so
        string and integer columns both sample correctly); only hashes
        below the current k-th smallest are materialized as candidate
        values, keeping per-batch work O(n hash + candidates) rather than
        O(n) value conversions.  Nulls/NaNs carry no value and are
        dropped.  Float columns sample their int64 truncation (the int64
        distinct domain — two floats truncating equal are one value)."""
        self.check_weights(weights)
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, pa.Array):
            import pyarrow.compute as pc

            if values.null_count:
                values = pc.drop_null(values)
            t = values.type
            if (
                pa.types.is_string(t)
                or pa.types.is_large_string(t)
                or pa.types.is_binary(t)
                or pa.types.is_large_binary(t)
            ):
                self._set_mode(_MODE_STR)
                if len(values) == 0:
                    return
                h = hash64(values)
                cand = np.flatnonzero(h < self._threshold())
                if cand.size:
                    vals = np.array(
                        values.take(pa.array(cand)).to_pylist(), dtype=object
                    )
                    self._trim(h[cand], vals)
                self._n += int(len(values))
                return
            v = values.to_numpy(zero_copy_only=False)
        else:
            v = np.asarray(values)
            if v.dtype.kind in "SU" or v.dtype == object:
                self._set_mode(_MODE_STR)
                arr = pa.array(v.astype(str))
                h = hash64(arr)
                cand = np.flatnonzero(h < self._threshold())
                if cand.size:
                    self._trim(
                        h[cand],
                        np.array(arr.take(pa.array(cand)).to_pylist(), dtype=object),
                    )
                self._n += int(len(arr))
                return
        if v.dtype.kind == "f":
            v = v[~np.isnan(v)]
        v = v.astype(np.int64)
        self._set_mode(_MODE_INT)
        if v.size == 0:
            return
        h = hash64(v)
        cand = np.flatnonzero(h < self._threshold())
        if cand.size:
            self._trim(h[cand], v[cand])
        self._n += int(h.size)

    def merge(self, other: "SampleSketch") -> "SampleSketch":
        if other._mode is not None:
            if self._mode is None:
                self._set_mode(other._mode)
            elif self._mode != other._mode:
                raise TypeError("cannot merge int64 and str SampleSketches")
        # the SMALLER k (coarser threshold) governs, as in KMV union;
        # _trim already slices to the updated k
        self.k = min(self.k, other.k)
        self._trim(other._hashes, other._values)
        self._n += other._n
        return self

    def sample(self) -> np.ndarray:
        """The sampled distinct values, in hash-priority order (int64
        array, or object array of str for string-domain sketches)."""
        return self._values.copy()

    @property
    def theta(self) -> float:
        return bottomk_theta(self._hashes, self.k)

    def estimate(self) -> float:
        """KMV distinct estimate (free by-product of the hash set;
        estimator shared with sketches/kmv.py)."""
        return bottomk_estimate(self._hashes, self.k)

    def to_bytes(self) -> bytes:
        mode = _MODE_INT if self._mode is None else self._mode
        header = struct.pack("<BBIQ", 2, mode, self.k, self._n)
        if mode == _MODE_STR:
            # strings as one utf-8 buffer + int64 offsets (Arrow layout)
            encoded = [
                s if isinstance(s, bytes) else str(s).encode() for s in self._values
            ]
            offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
            if encoded:
                offsets[1:] = np.cumsum([len(b) for b in encoded])
            data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
            return pack_arrays(header, self._hashes, data, offsets)
        return pack_arrays(header, self._hashes, self._values)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SampleSketch":
        header, arrays = unpack_arrays(buf)
        ver = header[0]
        if ver == 1:  # pre-r4 int64-only wire format
            _, k, n = struct.unpack("<BIQ", header)
            mode = _MODE_INT
        elif ver == 2:
            _, mode, k, n = struct.unpack("<BBIQ", header)
        else:
            raise ValueError(f"unsupported SampleSketch version {ver}")
        sk = cls(k=k)
        sk._hashes = arrays[0].astype(np.uint64)
        if mode == _MODE_STR:
            sk._mode = _MODE_STR
            data = arrays[1].tobytes()
            offsets = arrays[2].astype(np.int64)
            sk._values = np.array(
                [
                    data[offsets[i] : offsets[i + 1]].decode(errors="replace")
                    for i in range(len(offsets) - 1)
                ],
                dtype=object,
            )
        else:
            sk._mode = _MODE_INT if n else None
            sk._values = arrays[1].astype(np.int64)
        sk._n = int(n)
        return sk

    def __repr__(self) -> str:  # pragma: no cover
        return f"SampleSketch(k={self.k}, held={len(self._hashes)}, n={self._n})"
