"""Hash-partitioned shuffle join — the big×big equi-join primitive.

Every other join in the engine broadcasts its small side
(`pipelines/relational.py` §2.4 shapes); this is the coded scale path
for the case where NEITHER side fits a broadcast.  It runs on
`stages/dedup._scatter_exchange`, the one keyed scatter→gather of the
engine: both inputs scatter by ``key % P`` (each row crosses the wire
exactly once), and partition ``p`` joins its two co-located slices
with the Arrow join kernel.  Identical key ⇒ identical partition on
both sides, so the partition-local join is exact for any ``P``.

Used by ``pipelines/relational.segment_join`` above
``_BROADCAST_JOIN_ROWS`` (pytest-forced parity:
``test_hash_join_matches_broadcast_path``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _auto_partitions, _key_mod, _scatter_exchange
from .sketch import splitmix64

# Runtime bloom filter (Spark's "runtime filter" / Bloom-join shape,
# public: Mackert & Lohman 1986 "R* optimizer validation"): before the
# exchange, hash-summarize one side's keys into a bitmap and drop the
# other side's rows whose key provably cannot match.  False positives
# only let a useless row through (the partition join drops it), so any
# fill level is CORRECT — above _BLOOM_MAX_FILL the filter prunes too
# little to pay for itself and is skipped.
_BLOOM_BITS = 1 << 23          # 1 MiB bitmap: ~2% fp at 1M build keys
_BLOOM_K = 6                   # ≈ 0.69 · bits/key at 10 bits/key
_BLOOM_MAX_FILL = 0.5
_BLOOM_STEP = 0x9E3779B97F4A7C15  # splitmix64 stream step (python int:
#                                   seed products wrap mod 2^64 silently)


def _bloom_seed(j: int) -> np.uint64:
    return np.uint64((_BLOOM_STEP * (j + 1)) & 0xFFFFFFFFFFFFFFFF)


def _bloom_build(keys: np.ndarray, bits: int, k: int = _BLOOM_K) -> np.ndarray:
    """uint64-word bitmap over ``keys`` (k splitmix64 probe streams)."""
    words = np.zeros(bits >> 6, dtype=np.uint64)
    mask = np.uint64(bits - 1)
    for j in range(k):
        idx = splitmix64(keys + _bloom_seed(j)) & mask
        np.bitwise_or.at(words, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return words


def _bloom_contains(words: np.ndarray, keys: np.ndarray,
                    k: int = _BLOOM_K) -> np.ndarray:
    """Vectorized membership: True where all k probe bits are set."""
    mask = np.uint64((len(words) << 6) - 1)
    keep = np.ones(len(keys), dtype=bool)
    for j in range(k):
        idx = splitmix64(keys + _bloom_seed(j)) & mask
        bit = (words[(idx >> np.uint64(6)).astype(np.int64)]
               >> (idx & np.uint64(63))) & np.uint64(1)
        keep &= bit.astype(bool)
    return keep


def _bloom_fill(words: np.ndarray) -> float:
    return float(np.unpackbits(words.view(np.uint8)).sum()) / (len(words) << 6)


def _build_bloom_ref(refs, key_col: str, bits: int):
    """One vectorized pass over ``refs`` → merged-bitmap object ref, or
    ``None`` when the filter saturated (fill > _BLOOM_MAX_FILL).  Partial
    bitmaps OR together through a fan-in-8 task tree, so no step ever
    holds more than 8 bitmaps — block count can grow with the corpus."""
    import ray

    if not refs:  # a side with zero blocks: nothing to prune with
        return None

    @ray.remote
    def partial(block: pa.Table):
        if block is None or block.num_rows == 0:
            return None
        return _bloom_build(_key_mod(block, key_col, None), bits)

    @ray.remote
    def merge(*ws):
        ws = [w for w in ws if w is not None]
        if not ws:
            return None
        out = ws[0].copy()
        for w in ws[1:]:
            np.bitwise_or(out, w, out=out)
        return out

    level = [partial.remote(r) for r in refs]
    while len(level) > 1:
        level = [merge.remote(*level[i:i + 8]) for i in range(0, len(level), 8)]
    words = ray.get(level[0])
    if words is None or _bloom_fill(words) > _BLOOM_MAX_FILL:
        return None
    return ray.put(words)


_JOIN_TYPES = {
    "inner": "inner",
    "left": "left outer",
    "semi": "left semi",
    "anti": "left anti",
    "full": "full outer",
}


def hash_join(left_ds, right_ds, key: str, how: str = "inner",
              num_partitions: int | None = None,
              right_suffix: str = "_r", post=None,
              runtime_filter: bool = True,
              bloom_bits: int = _BLOOM_BITS) -> list[pa.Table]:
    """Join two Datasets on an integer ``key`` column; returns the
    per-partition result tables (order within/among partitions is not
    deterministic — callers sort, as every slot does).

    Both sides stream out of the object store via
    ``iter_internal_ref_bundles`` (no driver materialization); stage 1
    splits each block into ``P`` keyed sub-tables, stage 2 task ``p``
    concatenates its slices from both sides and runs
    ``pa.Table.join`` single-threaded (K worker tasks × Arrow's
    default 32-thread pool is this box's measured thrash trap).

    ``post`` (optional) runs on each partition's joined table INSIDE
    the stage-2 task — pass a partial-aggregation kernel so a
    reduction over a big×big join never materializes the O(rows) join
    output anywhere (the driver then combines P tiny partials).

    ``runtime_filter`` (default on) prunes shuffle volume with bloom
    bitmaps built BEFORE the exchange: right rows whose key is absent
    from a left-keys bloom cannot affect any join type here (inner
    drops them; left/semi/anti outputs are left-row-driven), and for
    inner/semi the left side is symmetrically pruned by a right-keys
    bloom.  False positives merely travel and get dropped by the
    partition join, so results are bit-identical either way
    (``test_hash_join_bloom_filter_parity``); a saturated bitmap
    (fill > 50%) disables that direction.
    """
    from ..functions.agg import block_refs

    how_arrow = _JOIN_TYPES[how]
    lrefs = block_refs(left_ds)
    rrefs = block_refs(right_ds)
    if num_partitions is None:
        num_partitions = _auto_partitions()

    lbloom = rbloom = None  # bloom pruning LEFT / RIGHT rows respectively
    if runtime_filter and how != "full":  # full outer outputs every row
        rbloom = _build_bloom_ref(lrefs, key, bloom_bits)
        if how in ("inner", "semi"):
            lbloom = _build_bloom_ref(rrefs, key, bloom_bits)

    def prune(block: pa.Table, bloom) -> pa.Table:
        if bloom is None:
            return block
        keep = _bloom_contains(bloom, _key_mod(block, key, None))
        return block if keep.all() else block.filter(pa.array(keep))

    # zero-row stand-in for a side with no rows in a partition, so an
    # outer join null-fills that side's columns exactly as Arrow does
    # (None when the side's schema is unknown: it has no blocks at all)
    def empty(ds):
        schema = ds.schema()
        return None if schema is None else schema.base_schema.empty_table()

    lempty = empty(left_ds) if how == "full" else None
    rempty = empty(right_ds) if how in ("left", "full") else None

    def join_partition(lt, rt) -> pa.Table:
        if lt is None and how != "full" or rt is None and how in ("inner", "semi"):
            return None
        lt = lempty if lt is None else lt
        rt = rempty if rt is None else rt
        if lt is None or rt is None:  # left anti / unknown schema: one side passes
            joined = rt if lt is None else lt
        else:
            joined = lt.join(rt, keys=key, join_type=how_arrow,
                             right_suffix=right_suffix, use_threads=False)
        return post(joined) if post is not None else joined

    return _scatter_exchange([(lrefs, key, prune, lbloom), (rrefs, key, prune, rbloom)],
                             join_partition, num_partitions)


def hash_join_table(left_ds, right_ds, key: str, how: str = "inner",
                    num_partitions: int | None = None,
                    right_suffix: str = "_r",
                    runtime_filter: bool = True) -> pa.Table:
    """Driver-side concatenation of :func:`hash_join` — for results
    known to be reduction-sized (tests, report tables).  Large results
    should consume the partition list directly."""
    parts = hash_join(left_ds, right_ds, key, how, num_partitions, right_suffix,
                      runtime_filter=runtime_filter)
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="permissive")
