"""Q-Digest quantile sketch (Shrivastava et al. 2004), vectorized.

Semantics re-derived from the reference C implementation (all citations into
/root/reference):

- canonical binary interval tree over universe [0, 2**L) with counts allowed
  at internal nodes (include/qcore.h:30-49);
- insert adds weight at the leaf bucket and N += count (src/qcore.c:201-248);
- compress: one bottom-up pass folding every family with
  count(parent)+count(left)+count(right) < floor(N/K) into the parent
  (src/qcore.c:130-154, docs/serial_pseudocode.md:16-27), gated at
  num_nodes >= 6*K with nDivk = N // K (src/qcore.c:183-189);
- merge: union into universe max(ub), K = max(K1, K2), then gated compress
  (src/qcore.c:390-417);
- quantile: walk buckets in ascending upper_bound (deeper-first on ties —
  the post-order of src/qcore.c:356-370) accumulating counts until the
  truncated rank floor(p*N) is reached (src/qcore.c:379-384).

Representation is NOT the reference's pointer tree: buckets are canonical
heap ids (id = 2**level + offset over the implicit tree), stored as two
sorted numpy arrays — O(1) bucket union on merge, single-allocation serde,
and fully vectorized batch updates / compress passes.  Known deliberate
deviations from the C code (SURVEY.md §2.4): num_nodes counts only
positive-count buckets (the C code also counts zero-count internal path
nodes); compress folds level-by-level (paper order) rather than the C
post-order; the power-of-two universe-expansion bug at src/qcore.c:203-207
(key == 2**m expands to [0, 2**m - 1], dropping the key onto the wrong leaf)
is fixed, not replicated.  All are within the epsilon*n rank-error bound,
which the tests assert directly.
"""

from __future__ import annotations

import struct

import numpy as np

from q_digest_ray.sketches.base import Sketch, register

_GATE_FACTOR = 6  # compress trigger: num buckets >= 6*K (src/qcore.c:184)


def log2_ceil(n: int) -> int:
    """ceil(log2(n)) with log2_ceil(0) == log2_ceil(1) == 0 (src/qcore.c:17-29)."""
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


def _sum_by_id(ids, cnt):
    """Sort (id, count) pairs by id and sum the counts of equal ids."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    cnt = cnt[order]
    new_start = np.empty(len(ids), dtype=bool)
    new_start[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new_start[1:])
    starts = np.flatnonzero(new_start)
    return ids[starts], np.add.reduceat(cnt, starts)


def _combine_sorted(ids_a, cnt_a, ids_b, cnt_b):
    """Union two (sorted id, count) pairs, summing counts of equal ids."""
    if len(ids_a) == 0:
        return ids_b, cnt_b
    if len(ids_b) == 0:
        return ids_a, cnt_a
    return _sum_by_id(np.concatenate([ids_a, ids_b]), np.concatenate([cnt_a, cnt_b]))


def _embed(ids: np.ndarray, d: int) -> np.ndarray:
    """Heap ids of a universe 2**d times wider: a bucket (level, offset)
    becomes (level + d, offset) under the left-anchored embedding.  The map
    is monotone, so sorted ids stay sorted."""
    if d == 0 or len(ids) == 0:
        return ids
    msb = np.left_shift(np.int64(1), np.frexp(ids.astype(np.float64))[1] - 1)
    return np.left_shift(msb, d) + (ids - msb)


class QDigest(Sketch):
    kind = "qdigest"

    __slots__ = ("k", "universe_bits", "_n", "_ids", "_counts")

    def __init__(self, k: int = 200, universe_bits: int = 32):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not (1 <= universe_bits <= 48):
            raise ValueError("universe_bits must be in [1, 48]")
        self.k = int(k)
        self.universe_bits = int(universe_bits)
        self._n = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)

    # -- properties ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_buckets(self) -> int:
        return len(self._ids)

    @property
    def compression_ratio(self) -> float:
        """Retained buckets / inserted weight — the reference test-side
        metric (serial-implementation/src/test.c:146-148)."""
        return len(self._ids) / self._n if self._n else 0.0

    @property
    def upper_bound(self) -> int:
        """Inclusive max of the universe (the reference root's upper_bound)."""
        return (1 << self.universe_bits) - 1

    # -- geometry helpers (vectorized over heap ids) ------------------------

    def _levels(self, ids: np.ndarray) -> np.ndarray:
        # exact for ids < 2**49 (universe_bits <= 48)
        return np.frexp(ids.astype(np.float64))[1] - 1

    def _bounds(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, level) of each bucket id."""
        lv = self._levels(ids)
        msb = np.left_shift(np.int64(1), lv)
        shift = self.universe_bits - lv
        lb = np.left_shift(ids - msb, shift)
        ub = lb + np.left_shift(np.int64(1), shift) - 1
        return lb, ub, lv

    # -- update -------------------------------------------------------------

    def _expand(self, new_bits: int) -> None:
        """Grow the universe (src/qcore.c:300-349): left-embed every bucket.

        In heap-id space a bucket (level, offset) at depth L becomes
        (level + d, offset) at depth L + d — offsets are unchanged under the
        left-anchored embedding, so re-keying is one vectorized shift.
        """
        if new_bits > 48:
            raise ValueError(
                f"universe would grow to 2**{new_bits}; QDigest supports values "
                "< 2**48 (heap-id level math is float64-exact only below that)"
            )
        d = new_bits - self.universe_bits
        if d <= 0:
            return
        self._ids = _embed(self._ids, d)
        self.universe_bits = new_bits

    def update_batch(self, values, weights=None) -> None:
        """Bulk weighted insert (the reference's insert loop, batch form).

        Pre-aggregates the batch by distinct value — identical semantics to
        value-at-a-time insert (weighted insert, src/qcore.c:201-248) with
        one tree touch per distinct value instead of per row.
        """
        vals = np.asarray(values)
        if vals.size == 0:
            return
        if vals.dtype.kind == "f":
            if np.isnan(vals).any():
                keep = ~np.isnan(vals)
                vals = vals[keep]
                if weights is not None:
                    weights = np.asarray(weights)[keep]
                if vals.size == 0:
                    return
            vals = vals.astype(np.int64)
        else:
            vals = vals.astype(np.int64, copy=False)
        if vals.min() < 0:
            raise ValueError("QDigest accepts non-negative integer values")
        vmax = int(vals.max())
        if vmax > self.upper_bound:
            self._expand(max(vmax.bit_length(), self.universe_bits + 1))
        if weights is None:
            uniq, cnts = np.unique(vals, return_counts=True)
            cnts = cnts.astype(np.int64)
        else:
            w = np.asarray(weights, dtype=np.int64)
            if w.size and w.min() < 0:
                raise ValueError("weights must be non-negative (C insert takes unsigned count)")
            uniq, inv = np.unique(vals, return_inverse=True)
            cnts = np.bincount(inv, weights=w).astype(np.int64)
        leaf_base = np.int64(1) << np.int64(self.universe_bits)
        leaf_ids = leaf_base + uniq
        self._ids, self._counts = _combine_sorted(self._ids, self._counts, leaf_ids, cnts)
        self._n += int(cnts.sum())
        self._compress_if_needed()

    def update(self, key: int, count: int = 1) -> None:
        """Single weighted insert — test/parity convenience."""
        self.update_batch(np.array([key]), np.array([count]))

    # -- compress -----------------------------------------------------------

    def _compress_if_needed(self) -> None:
        # the C gate runs one pass per insert while >= 6K (src/qcore.c:183-189);
        # in batch mode we loop passes until below the gate or a fixpoint.
        while len(self._ids) >= _GATE_FACTOR * self.k:
            before = len(self._ids)
            self.compress()
            if len(self._ids) >= before:
                break

    def compress(self) -> None:
        """One bottom-up pass of the q-digest property (paper lines 16-27).

        For each family (parent p with children c1, c2 at the current level):
        if count(p) + count(c1) + count(c2) < floor(N/K), fold the children
        into the parent.  Root (id 1) is never folded further.
        """
        n_div_k = self._n // self.k
        if n_div_k == 0 or len(self._ids) == 0:
            return
        ids, cnt = self._ids, self._counts
        lv = self._levels(ids)
        max_lv = int(lv.max())
        if max_lv == 0:
            return
        # per-level slices; ids sorted asc → levels are contiguous ranges
        bounds = np.searchsorted(ids, np.left_shift(np.int64(1), np.arange(max_lv + 2, dtype=np.int64)))
        level_ids: dict[int, np.ndarray] = {}
        level_cnt: dict[int, np.ndarray] = {}
        for l in range(max_lv + 1):
            lo, hi = bounds[l], bounds[l + 1]
            if hi > lo:
                level_ids[l] = ids[lo:hi]
                level_cnt[l] = cnt[lo:hi]
        for l in range(max_lv, 0, -1):
            if l not in level_ids:
                continue
            cids = level_ids[l]
            ccnt = level_cnt[l]
            par = cids >> 1
            fam_start = np.empty(len(par), dtype=bool)
            fam_start[0] = True
            np.not_equal(par[1:], par[:-1], out=fam_start[1:])
            starts = np.flatnonzero(fam_start)
            upar = par[starts]
            fam_sum = np.add.reduceat(ccnt, starts)
            pids = level_ids.get(l - 1)
            if pids is None:
                pc = np.zeros(len(upar), dtype=np.int64)
                pcnt = None
            else:
                pcnt = level_cnt[l - 1]
                pos = np.searchsorted(pids, upar)
                in_range = pos < len(pids)
                safe = np.where(in_range, pos, 0)
                pc = np.where(in_range & (pids[safe] == upar), pcnt[safe], 0)
            fold = (pc + fam_sum) < n_div_k
            if fold.any():
                fam_idx = np.cumsum(fam_start) - 1
                keep_child = ~fold[fam_idx]
                level_ids[l] = cids[keep_child]
                level_cnt[l] = ccnt[keep_child]
                if len(level_ids[l]) == 0:
                    del level_ids[l], level_cnt[l]
                carry_ids = upar[fold]
                carry_cnt = fam_sum[fold]
                if pids is None:
                    level_ids[l - 1], level_cnt[l - 1] = carry_ids, carry_cnt
                else:
                    level_ids[l - 1], level_cnt[l - 1] = _combine_sorted(
                        pids, pcnt, carry_ids, carry_cnt
                    )
        if level_ids:
            out_ids = np.concatenate([level_ids[l] for l in sorted(level_ids)])
            out_cnt = np.concatenate([level_cnt[l] for l in sorted(level_ids)])
        else:  # pragma: no cover - cannot fold everything past the root
            out_ids = np.empty(0, dtype=np.int64)
            out_cnt = np.empty(0, dtype=np.int64)
        # ids are already sorted: level l ids all < level l+1 ids... not true
        # (level l ids in [2**l, 2**(l+1)) so ascending level order IS id order)
        self._ids = out_ids
        self._counts = out_cnt

    # -- merge --------------------------------------------------------------

    def merge(self, other: "QDigest") -> "QDigest":
        """Union (src/qcore.c:390-417): K=max, universe=max, add all buckets,
        then gated compress.  Commutative/associative within the rank bound."""
        m = self.merge_many([self, other])
        self.k, self.universe_bits, self._n = m.k, m.universe_bits, m._n
        self._ids, self._counts = m._ids, m._counts
        return self

    @classmethod
    def merge_many(cls, sketches) -> "QDigest":
        """The union of ``sketches`` in one pass, as a new digest (no input
        is mutated): every input's buckets re-keyed to the widest universe,
        one stable sort and ``reduceat`` over all of them, K = max K, then
        one gated compress.

        Without a compress the buckets equal those of any pairwise merge
        order.  The rank bound holds as for a pairwise merge: at equal K an
        input's non-leaf bucket holds at most n_i/K, so a merged one holds at
        most sum(n_i)/K = n/K, and compress keeps that true."""
        sks = list(sketches)
        if not sks:
            raise ValueError("merge_many needs at least one sketch")
        bits = max(s.universe_bits for s in sks)
        out = cls(k=max(s.k for s in sks), universe_bits=bits)
        out._n = sum(s._n for s in sks)
        ids = np.concatenate([_embed(s._ids, bits - s.universe_bits) for s in sks])
        if len(ids):
            cnt = np.concatenate([s._counts for s in sks])
            out._ids, out._counts = _sum_by_id(ids, cnt)
            out._compress_if_needed()
        return out

    # -- query --------------------------------------------------------------

    def quantile(self, p: float) -> int:
        """Approximate 100p'th percentile (src/qcore.c:356-384 semantics):
        truncated rank floor(p*N); buckets walked in ascending upper_bound,
        deeper-first on ties; answer is the upper_bound of the bucket at
        which the cumulative count first reaches the rank."""
        if self._n == 0 or len(self._ids) == 0:
            return 0
        req_rank = int(p * self._n)  # C truncation (src/qcore.c:382)
        if req_rank <= 0:
            return 0
        _, ub, lv = self._bounds(self._ids)
        order = np.lexsort((-lv, ub))
        csum = np.cumsum(self._counts[order])
        idx = int(np.searchsorted(csum, req_rank, side="left"))
        if idx >= len(csum):
            idx = len(csum) - 1
        return int(ub[order][idx])

    def quantiles(self, ps) -> list[int]:
        return [self.quantile(p) for p in ps]

    # -- serde --------------------------------------------------------------

    _WIRE = struct.Struct("<BQQBQ")  # version, n, k, universe_bits, num_buckets

    def to_bytes(self) -> bytes:
        ids = np.ascontiguousarray(self._ids)
        cnt = np.ascontiguousarray(self._counts)
        return (
            self._WIRE.pack(1, self._n, self.k, self.universe_bits, len(ids))
            + ids.tobytes()
            + cnt.tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "QDigest":
        ver, n, k, bits, m = cls._WIRE.unpack_from(buf, 0)
        if ver != 1:
            raise ValueError(f"unknown QDigest wire version {ver}")
        off = cls._WIRE.size
        q = cls(k=k, universe_bits=bits)
        q._n = n
        q._ids = np.frombuffer(buf, dtype=np.int64, count=m, offset=off).copy()
        q._counts = np.frombuffer(buf, dtype=np.int64, count=m, offset=off + 8 * m).copy()
        return q

    # -- C-compatible text codec (debug / golden parity) --------------------

    def to_text(self) -> str:
        """The reference's to_string format (src/qcore.c:450-463): header
        "N K root_lb root_ub\\n" then one "lb ub count\\n" line per positive
        bucket in preorder (= sort by lower_bound asc, shallower first)."""
        lb, ub, lv = self._bounds(self._ids)
        order = np.lexsort((lv, lb))
        lines = [f"{self._n} {self.k} 0 {self.upper_bound}\n"]
        for i in order:
            lines.append(f"{lb[i]} {ub[i]} {self._counts[i]}\n")
        return "".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "QDigest":
        lines = text.strip().split("\n")
        n, k, _root_lb, root_ub = (int(x) for x in lines[0].split())
        bits = log2_ceil(root_ub + 1)
        q = cls(k=k, universe_bits=max(bits, 1))
        ids = []
        cnts = []
        for line in lines[1:]:
            lb, ub, c = (int(x) for x in line.split())
            width = ub - lb + 1
            lvl = q.universe_bits - log2_ceil(width)
            ids.append((1 << lvl) + (lb >> log2_ceil(width)))
            cnts.append(c)
        if ids:
            q._ids, q._counts = _sum_by_id(
                np.array(ids, dtype=np.int64), np.array(cnts, dtype=np.int64)
            )
        q._n = int(q._counts.sum()) if len(q._counts) else 0
        if q._n != n and n != 0:
            raise ValueError(
                f"corrupt QDigest text: serialized N={n} inconsistent with "
                f"summed bucket counts {q._n}"
            )
        return q

    def __repr__(self) -> str:
        return (
            f"QDigest(k={self.k}, bits={self.universe_bits}, n={self._n}, "
            f"buckets={len(self._ids)})"
        )


register(QDigest)
