"""Frequent Directions matrix sketch (Liberty 2013; Ghashami, Liberty,
Phillips & Woodruff 2016 — deterministic, mergeable).

Maintains an ell × d matrix B such that for the row-stream matrix A

    0 <= x^T (A^T A - B^T B) x <= ||A||_F^2 * 2/ell      for all unit x,

i.e. ``spectral_error = ||A^T A - B^T B||_2 <= 2 ||A||_F^2 / ell``.  The
sketch additionally carries ``shed`` — the exact cumulative squared mass
subtracted by shrink steps — which certifies the tighter per-instance bound
``spectral_error <= shed`` (each shrink removes at most delta = sigma_ell^2
from every direction, and the deltas sum).

Mergeable: stack both B buffers and shrink (the "merge = sketch the sketch"
property proved in GLPW16 §3) — commutative/associative within the bound,
same UDAF lifecycle as every other family here.  Updates are buffered:
rows fill the spare half of a 2*ell-row buffer and one SVD per ell rows
amortizes the shrink, so a batch update is one ``np.linalg.svd`` per
ell rows — no per-row work.

Use on the embeddings table: covariance spectrum / low-rank subspace of a
document-embedding corpus without materializing the n × d matrix anywhere.
"""

from __future__ import annotations

import struct

import numpy as np

from q_digest_ray.sketches.base import Sketch, pack_arrays, register, unpack_arrays


class FrequentDirections(Sketch):
    kind = "fd"
    input_form = "matrix"

    __slots__ = ("ell", "d", "_buf", "_rows", "_n", "_shed")

    def __init__(self, ell: int = 64, d: int | None = None):
        if ell < 2:
            raise ValueError("ell must be >= 2")
        self.ell = int(ell)
        self.d = int(d) if d is not None else None
        self._buf = None  # (2*ell, d) float64, rows [0:_rows) occupied
        self._rows = 0
        self._n = 0  # total input rows consumed
        self._shed = 0.0  # cumulative shrink mass: certified spectral error

    @property
    def n(self) -> int:
        return self._n

    @property
    def shed(self) -> float:
        return self._shed

    def _ensure(self, d: int) -> None:
        if self.d is None:
            self.d = int(d)
        elif self.d != d:
            raise ValueError(f"dimension mismatch: sketch d={self.d}, input d={d}")
        if self._buf is None:
            self._buf = np.zeros((2 * self.ell, self.d), dtype=np.float64)

    def _shrink(self) -> None:
        """SVD the occupied buffer down to at most ell non-trivial rows."""
        if self._rows <= self.ell:
            return
        _u, s, vt = np.linalg.svd(self._buf[: self._rows], full_matrices=False)
        k = min(self.ell, len(s))
        delta = float(s[k - 1] ** 2) if len(s) >= k else 0.0
        s2 = np.maximum(s[:k] ** 2 - delta, 0.0)
        self._buf[:k] = np.sqrt(s2)[:, None] * vt[:k]
        self._buf[k:] = 0.0
        # rows with zero weight are free slots; keep count of non-zero rows
        self._rows = int(np.count_nonzero(s2 > 0.0))
        self._shed += delta

    def update_batch(self, values, weights=None) -> None:
        """``values``: (n, d) row block.  ``weights`` w scales each row's
        contribution to A^T A by w (row scaled by sqrt(w)) — the weighted-
        insert analogue for a covariance sketch."""
        m = np.asarray(values, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("FrequentDirections consumes 2-D row blocks")
        if m.shape[0] == 0:
            return
        self._ensure(m.shape[1])
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (m.shape[0],):
                raise ValueError("weights must align with rows")
            if w.size and w.min() < 0:
                raise ValueError("weights must be non-negative")
            m = m * np.sqrt(w)[:, None]
        pos = 0
        cap = 2 * self.ell
        while pos < m.shape[0]:
            take = min(cap - self._rows, m.shape[0] - pos)
            self._buf[self._rows : self._rows + take] = m[pos : pos + take]
            self._rows += take
            pos += take
            if self._rows >= cap:
                self._shrink()
        self._n += int(m.shape[0])

    def merge(self, other: "FrequentDirections") -> "FrequentDirections":
        if other.ell != self.ell:
            raise ValueError("cannot merge FD sketches with different ell")
        if other._buf is not None:
            if other.d is not None and self.d is not None and other.d != self.d:
                raise ValueError("dimension mismatch in merge")
            self.update_batch(other._buf[: other._rows])
            self._n -= other._rows  # update_batch counted buffer rows, not inputs
        self._n += other._n
        self._shed += other._shed
        self._shrink()
        return self

    # ---- finalize surface ----

    def matrix(self) -> np.ndarray:
        """The ell × d sketch matrix B (occupied rows only)."""
        if self._buf is None:
            return np.zeros((0, self.d or 0))
        self._shrink()
        return self._buf[: max(self._rows, 1)].copy() if self._rows else np.zeros(
            (0, self.d)
        )

    def cov_estimate(self) -> np.ndarray:
        """B^T B ≈ A^T A (within the spectral bound)."""
        b = self.matrix()
        if b.size == 0:
            return np.zeros((self.d or 0, self.d or 0))
        return b.T @ b

    def singular_values(self) -> np.ndarray:
        """Singular values of B — approximate top spectrum of A."""
        b = self.matrix()
        if b.size == 0:
            return np.zeros(0)
        return np.linalg.svd(b, compute_uv=False)

    def error_bound(self) -> float:
        """Certified ||A^T A - B^T B||_2 upper bound (exact shed mass)."""
        return self._shed

    def to_bytes(self) -> bytes:
        self._shrink()
        rows = self._buf[: self._rows] if self._buf is not None else np.zeros((0, 0))
        header = struct.pack(
            "<BIIQdI", 1, self.ell, self.d or 0, self._n, self._shed, self._rows
        )
        return pack_arrays(header, np.ascontiguousarray(rows))

    @classmethod
    def from_bytes(cls, buf: bytes) -> "FrequentDirections":
        header, arrays = unpack_arrays(buf)
        ver, ell, d, n, shed, rows = struct.unpack("<BIIQdI", header)
        s = cls(ell=ell, d=d if d else None)
        s._n = int(n)
        s._shed = float(shed)
        if d and rows:
            s._ensure(d)
            s._buf[:rows] = arrays[0].reshape(rows, d)
            s._rows = int(rows)
        return s

    def __repr__(self) -> str:
        return (
            f"FrequentDirections(ell={self.ell}, d={self.d}, n={self._n}, "
            f"rows={self._rows}, shed={self._shed:.4g})"
        )


register(FrequentDirections)
