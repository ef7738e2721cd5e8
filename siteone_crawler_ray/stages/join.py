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

import pyarrow as pa

from ..state.filters import BloomFilter
from .dedup import _auto_partitions, _key_mod, _scatter_exchange

# Runtime bloom filter (Spark's "runtime filter" / Bloom-join shape,
# public: Mackert & Lohman 1986 "R* optimizer validation"): before the
# exchange, hash-summarize one side's keys into a bitmap and drop the
# other side's rows whose key provably cannot match.  False positives
# only let a useless row through (the partition join drops it), so any
# fill level is CORRECT — above _BLOOM_MAX_FILL the filter prunes too
# little to pay for itself and is skipped.
# BloomFilter(2^20, 0.025): a 1 MiB (2^23-bit) bitmap, k = 6 — about
# 2 % false positives at 1M build keys.
_BLOOM_KEYS = 1 << 20
_BLOOM_FP = 0.025
_BLOOM_MAX_FILL = 0.5


def _build_bloom_ref(refs, key_col: str):
    """One vectorized pass over ``refs`` → merged-filter object ref, or
    ``None`` when the filter saturated (fill > _BLOOM_MAX_FILL).  Partial
    filters OR together through a fan-in-8 task tree, so no step ever
    holds more than 8 bitmaps — block count can grow with the corpus."""
    import ray

    if not refs:  # a side with zero blocks: nothing to prune with
        return None
    size = (_BLOOM_KEYS, _BLOOM_FP)  # read here: the tasks get the values

    @ray.remote
    def partial(block: pa.Table):
        if block is None or block.num_rows == 0:
            return None
        bf = BloomFilter(*size)
        bf.add_batch(_key_mod(block, key_col, None))
        return bf

    @ray.remote
    def merge(*fs):
        fs = [f for f in fs if f is not None]
        return fs[0].union(*fs[1:]) if fs else None

    level = [partial.remote(r) for r in refs]
    while len(level) > 1:
        level = [merge.remote(*level[i:i + 8]) for i in range(0, len(level), 8)]
    bf = ray.get(level[0])
    if bf is None or bf.fill > _BLOOM_MAX_FILL:
        return None
    return ray.put(bf)


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
              runtime_filter: bool = True) -> list[pa.Table]:
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
    bloom (``state/filters.BloomFilter``).  False positives merely
    travel and get dropped by the partition join, so results are
    bit-identical either way (``test_hash_join_bloom_filter_parity``);
    a saturated bitmap (fill > 50%) disables that direction.
    """
    from ..functions.agg import block_refs

    how_arrow = _JOIN_TYPES[how]
    lrefs = block_refs(left_ds)
    rrefs = block_refs(right_ds)
    if num_partitions is None:
        num_partitions = _auto_partitions()

    lbloom = rbloom = None  # bloom pruning LEFT / RIGHT rows respectively
    if runtime_filter and how != "full":  # full outer outputs every row
        rbloom = _build_bloom_ref(lrefs, key)
        if how in ("inner", "semi"):
            lbloom = _build_bloom_ref(rrefs, key)

    def prune(block: pa.Table, bloom) -> pa.Table:
        if bloom is None:
            return block
        keep = bloom.contains_batch(_key_mod(block, key, None))
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
