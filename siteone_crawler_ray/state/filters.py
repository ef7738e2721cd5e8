"""Approximate + exact membership state for the URL-seen set.

The north rule mandates a cuckoo-filter URL-seen set with a bloom
fallback for cold shards.  Each frontier owner (stages/frontier.py) holds:

- a :class:`CuckooFilter` (hot shards — supports deletion-free batched
  lookups; 16-bit fingerprints, 4-slot buckets),
- or a :class:`BloomFilter` (cold shards — smaller, fully vectorized),
- plus an :class:`ExactSeenSet` as the *authority*: the filters are
  advisory prefilters only, because (a) they have false positives which
  would wrongly drop never-seen URLs, and (b) cuckoo inserts are not
  idempotent under Ray task re-execution (SURVEY.md §7.5).  The exact
  set is what gets checkpointed (a sorted uint64 key array per shard in
  parquet) and rebuilt on resume; filters are rebuilt from it, also at
  twice the size when an add would take them past their ``capacity``.

All batch operations take/return numpy uint64 arrays — no per-row
Python on the lookup path.  Only cuckoo *insertion* walks items in
Python (eviction chains are inherently sequential); inserts happen once
per epoch on the deduplicated winner set, so this is off the hot path.
"""

from __future__ import annotations

import numpy as np

_FP_MULT = np.uint64(0x5BD1E995)


def _remix(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: every output bit depends on every key bit."""
    z = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class CuckooFilter:
    """Deletion-capable approximate set over uint64 keys.

    Standard 2-choice cuckoo filter (Fan et al., CoNEXT'14 — public
    algorithm): ``buckets × 4`` slots of 16-bit fingerprints; alternate
    bucket = ``i ^ H(fp)``.  ~98% load capacity in theory; sized at 0.7
    target load.  False-positive rate ≈ 2·4/2^16 ≈ 1.2e-4.

    Key bits: fingerprint and primary bucket come from a splitmix64
    remix of the key.  A frontier owner's keys share their high bits
    (one contiguous url_key range); raw fingerprint bits 48-63 with the
    top 3 bits fixed gave 7× the false positives of uniform keys.
    ``capacity`` is the key count the table holds at 0.7 load.
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int, rng_seed: int = 0):
        need = int(np.ceil(capacity / (self.SLOTS * 0.7)))  # buckets at 0.7 load
        self.nbuckets = min(_next_pow2(max(8, need)), 1 << 32)
        self.capacity = int(self.nbuckets * self.SLOTS * 0.7)
        self._mask = np.uint64(self.nbuckets - 1)
        self.table = np.zeros((self.nbuckets, self.SLOTS), dtype=np.uint16)
        self._rng = np.random.default_rng(rng_seed)
        self.count = 0
        # eviction-failure victims as (bucket, fp) pairs: an aborted kick
        # chain leaves the final *evicted* fingerprint homeless — that pair,
        # not the inserted key, is what must stay findable
        self.spill: set[tuple[int, int]] = set()

    def _fp_i1(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fingerprint, primary bucket) per key: bits 48-63 and the low
        bits of the remixed key."""
        h = _remix(keys)
        fp = (h >> np.uint64(48)).astype(np.uint16)
        fp[fp == 0] = 1
        return fp, (h & self._mask).astype(np.int64)

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        h = (fp.astype(np.uint64) * _FP_MULT) & self._mask
        return (i.astype(np.uint64) ^ h).astype(np.int64)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized 'maybe present' test → bool array."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1 = self._fp_i1(keys)
        i2 = self._alt(i1, fp)
        hit = (self.table[i1] == fp[:, None]).any(axis=1)
        hit |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self.spill:
            miss = np.nonzero(~hit)[0]
            for j in miss:
                f, a, b = int(fp[j]), int(i1[j]), int(i2[j])
                if (a, f) in self.spill or (b, f) in self.spill:
                    hit[j] = True
        return hit

    def add_batch(self, keys: np.ndarray) -> None:
        """Vectorized fast path: slot-parallel bulk placement into empty
        slots (resolving within-batch bucket collisions via unique-first),
        Python only for the rare eviction chains."""
        if len(keys) == 0:
            return
        fp_all, i1_all = self._fp_i1(keys)
        i2_all = self._alt(i1_all, fp_all)
        table = self.table
        pending = np.arange(len(keys))
        for choice in (i1_all, i2_all):
            for s in range(self.SLOTS):
                if not len(pending):
                    break
                idx = choice[pending]
                empty = table[idx, s] == 0
                cand = pending[empty]
                if not len(cand):
                    continue
                cand_idx = idx[empty]
                uniq, first = np.unique(cand_idx, return_index=True)
                winners = cand[first]
                table[uniq, s] = fp_all[winners]
                keep = np.ones(len(pending), dtype=bool)
                keep[np.searchsorted(pending, winners)] = False
                pending = pending[keep]
        self.count += len(keys) - len(pending)
        if not len(pending):
            return
        self._add_slow(keys[pending])

    def _add_slow(self, keys: np.ndarray) -> None:
        fp_arr, i1_arr = self._fp_i1(keys)
        table = self.table
        for j in range(len(keys)):
            fp = fp_arr[j]
            i = int(i1_arr[j])
            placed = False
            for idx in (i, int(self._alt(np.array([i]), np.array([fp]))[0])):
                row = table[idx]
                empty = np.nonzero(row == 0)[0]
                if len(empty):
                    row[empty[0]] = fp
                    placed = True
                    break
            if placed:
                self.count += 1
                continue
            # eviction chain
            cur_fp, cur_i = fp, i
            for _ in range(self.MAX_KICKS):
                slot = int(self._rng.integers(self.SLOTS))
                cur_fp, table[cur_i, slot] = table[cur_i, slot], cur_fp
                cur_i = int(self._alt(np.array([cur_i]), np.array([cur_fp]))[0])
                row = table[cur_i]
                empty = np.nonzero(row == 0)[0]
                if len(empty):
                    row[empty[0]] = cur_fp
                    placed = True
                    break
            self.count += 1
            if not placed:
                self.spill.add((cur_i, int(cur_fp)))

    @property
    def load_factor(self) -> float:
        return self.count / (self.nbuckets * self.SLOTS)


class BloomFilter:
    """Vectorized bloom filter over uint64 keys (double hashing, k probes).

    The cold-shard fallback: no deletions, smaller memory, every op a
    handful of numpy passes."""

    def __init__(self, capacity: int, fp_rate: float = 1e-4):
        self.capacity = capacity
        self.count = 0
        nbits = _next_pow2(max(64, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2))))
        self.nbits = nbits
        self._mask = np.uint64(nbits - 1)
        self.k = max(1, int(round((nbits / max(1, capacity)) * np.log(2))))
        self.bits = np.zeros(nbits // 64, dtype=np.uint64)

    def _probes(self, keys: np.ndarray, i: int) -> np.ndarray:
        h = keys + np.uint64(i) * ((keys >> np.uint64(17)) | np.uint64(1))
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        return h & self._mask

    def add_batch(self, keys: np.ndarray) -> None:
        self.count += len(keys)
        with np.errstate(over="ignore"):
            for i in range(self.k):
                pos = self._probes(keys, i)
                np.bitwise_or.at(self.bits, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        with np.errstate(over="ignore"):
            hit = np.ones(len(keys), dtype=bool)
            for i in range(self.k):
                pos = self._probes(keys, i)
                word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
                hit &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
            return hit


class ExactSeenSet:
    """Exact uint64 key set: sorted base array + small pending buffer.

    ``contains_batch`` = vectorized searchsorted on the compacted base +
    a set lookup only for the (few) keys not decided by it.  The base
    array is what a shard checkpoints to parquet."""

    COMPACT_THRESHOLD = 200_000

    def __init__(self, initial: np.ndarray | None = None):
        self.base = np.sort(initial.astype(np.uint64)) if initial is not None and len(initial) else np.empty(0, np.uint64)
        self.pending: set[int] = set()

    def __len__(self) -> int:
        return len(self.base) + len(self.pending)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = keys.astype(np.uint64, copy=False)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        hit = np.zeros(len(keys), dtype=bool)
        if len(self.base):
            idx = np.searchsorted(self.base, keys)
            inb = idx < len(self.base)
            hit[inb] = self.base[idx[inb]] == keys[inb]
        if self.pending:
            miss = np.nonzero(~hit)[0]
            pend = self.pending
            for j in miss:
                if int(keys[j]) in pend:
                    hit[j] = True
        return hit

    def add_batch(self, keys: np.ndarray) -> None:
        self.pending.update(int(k) for k in keys)
        if len(self.pending) > self.COMPACT_THRESHOLD:
            self.compact()

    def compact(self) -> None:
        if self.pending:
            extra = np.fromiter(self.pending, dtype=np.uint64, count=len(self.pending))
            self.base = np.unique(np.concatenate([self.base, extra]))
            self.pending.clear()

    def snapshot(self) -> np.ndarray:
        self.compact()
        return self.base
