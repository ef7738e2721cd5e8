"""Approximate + exact membership state.

Each frontier owner (stages/frontier.py) holds two views of its
URL-seen set:

- a :class:`CuckooFilter`, the advisory prefilter (batched lookups,
  16-bit fingerprints, 4-slot buckets), rebuilt from the exact set at
  twice the size when an add would take it past its ``capacity``;
- an :class:`ExactSeenSet`, the *authority*: one sorted, unique uint64
  array.  The filter only decides which keys skip the exact probe,
  because (a) it has false positives, which would wrongly drop
  never-seen URLs, and (b) cuckoo inserts are not idempotent under Ray
  task re-execution (SURVEY.md §7.5).  The exact set is what a
  checkpoint's key deltas rebuild on resume.

BASELINE names a bloom fallback for cold shards; no owner has one (no
owner is ever cold: the whole seen set stays in RAM).  The
:class:`BloomFilter` here is the hash join's runtime filter
(stages/join.py).

All batch operations take/return numpy uint64 arrays — no per-row
Python on the lookup path.  Only cuckoo *insertion* walks items in
Python (eviction chains are inherently sequential); inserts happen once
per epoch on the deduplicated winner set, so this is off the hot path.
"""

from __future__ import annotations

import copy

import numpy as np

from ..functions.hashing import _SM_GAMMA, in_sorted, splitmix64

_FP_MULT = np.uint64(0x5BD1E995)


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

    Key bits: fingerprint and primary bucket come from
    ``splitmix64(key)``.  A frontier owner's keys share their high bits
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
        bits of the mixed key."""
        h = splitmix64(keys)
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
    """Vectorized bloom filter over uint64 keys: ``k`` probe bits per
    key, probe j at ``splitmix64(key + (j + 1)·gamma)`` (the splitmix64
    stream step).  No deletions; every op a handful of numpy passes.
    Filters of the same size and ``k`` OR together (:meth:`union`), so
    per-block partials merge into the filter of all their keys."""

    def __init__(self, capacity: int, fp_rate: float = 1e-4):
        self.nbits = _next_pow2(max(64, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2))))
        self._mask = np.uint64(self.nbits - 1)
        self.k = max(1, int(round((self.nbits / max(1, capacity)) * np.log(2))))
        self.bits = np.zeros(self.nbits // 64, dtype=np.uint64)

    def _probes(self, keys: np.ndarray):
        keys = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64, copy=False)
        for j in range(self.k):
            seed = np.uint64((_SM_GAMMA * (j + 1)) & 0xFFFFFFFFFFFFFFFF)
            pos = splitmix64(keys + seed) & self._mask
            yield (pos >> np.uint64(6)).astype(np.int64), np.uint64(1) << (pos & np.uint64(63))

    def add_batch(self, keys: np.ndarray) -> None:
        for word, bit in self._probes(keys):
            np.bitwise_or.at(self.bits, word, bit)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        hit = np.ones(len(keys), dtype=bool)
        for word, bit in self._probes(keys):
            hit &= (self.bits[word] & bit) != 0
        return hit

    def union(self, *others: BloomFilter) -> BloomFilter:
        """A new filter holding every operand's keys (all of one size
        and ``k``).  New, not in place: a filter fetched from the object
        store is read-only."""
        out = copy.copy(self)
        out.bits = self.bits.copy()
        for o in others:
            np.bitwise_or(out.bits, o.bits, out=out.bits)
        return out

    @property
    def fill(self) -> float:
        """Share of the bits set."""
        return float(np.unpackbits(self.bits.view(np.uint8)).sum()) / self.nbits


class ExactSeenSet:
    """Exact uint64 key set: one sorted, unique array.

    ``contains_batch`` is one ``searchsorted``; ``add_batch`` dedups the
    new keys, drops those already held and merges the rest in.  The
    array itself is the snapshot."""

    def __init__(self, initial: np.ndarray | None = None):
        self.keys = (np.unique(np.asarray(initial, dtype=np.uint64)) if initial is not None
                     else np.empty(0, np.uint64))

    def __len__(self) -> int:
        return len(self.keys)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        return in_sorted(self.keys, np.asarray(keys, dtype=np.uint64))

    def add_batch(self, keys: np.ndarray) -> None:
        new = np.unique(np.asarray(keys, dtype=np.uint64))
        new = new[~in_sorted(self.keys, new)]
        if len(new):
            self.keys = np.insert(self.keys, np.searchsorted(self.keys, new), new)

    def snapshot(self) -> np.ndarray:
        return self.keys
