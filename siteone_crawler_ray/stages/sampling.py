"""Corpus-curation operators a large-scale training-data pipeline needs:
deterministic hash sampling, per-group document quotas, exact n-gram
top-k, and context-window chunking.

All four are expressed the engine's standard way — a vectorized Arrow
kernel inside ``map_batches`` producing small per-block partials, then
``dedup._combine``: on the driver for report-sized partials, the
row-moves-once scatter exchange above the engine's one byte budget.
Every operator is SQL-expressible so the correctness gate gets a DuckDB
oracle (see __ray_entry__.oracle_sql).

Reference scope note: the reference engine (janreges/siteone-crawler)
has no corpus-curation surface; these operators extend the engine per
SURVEY.md §2.11 (LLM-data additions) and reuse its combiner/exchange
idioms.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import in_sorted, splitmix64, xxh64_strings
from .dedup import _combine, _refs_and_bytes, _scatter_exchange

# Knuth's multiplicative hash constant (TAOCP vol. 3 §6.4) — chosen over
# md5 because it vectorizes to two numpy ops per block and the identical
# integer arithmetic is expressible in ANSI SQL (HUGEINT product mod
# 2^32), so the sample is bit-reproducible across engines.
_KNUTH = np.uint64(2654435761)
_MOD32 = np.uint64(1 << 32)


def hash_sample_mask(keys: np.ndarray, rate_pct: int) -> np.ndarray:
    """Deterministic Bernoulli mask: keep iff
    ``(key * 2654435761) mod 2^32 mod 100 < rate_pct``.

    uint64 wrap-around equals the true product mod 2^32 because
    2^32 | 2^64, so a HUGEINT SQL oracle computes the identical bit
    pattern.
    """
    k = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (k * _KNUTH) % _MOD32
    return (h % np.uint64(100)) < np.uint64(rate_pct)


def hash_sample(ds, key_col: str = "doc_id", rate_pct: int = 20):
    """Stateless deterministic sample — a pure streaming filter, no
    shuffle, no RNG state; any worker keeps the same rows for the same
    keys (resumable / cluster-size-independent)."""

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(hash_sample_mask(keys, rate_pct)))

    return ds.map_batches(keep, batch_format="pyarrow")


def mixture_sample(ds, rates: dict[str, int], *, key_col: str = "doc_id",
                   group_col: str = "source", default_pct: int = 0,
                   salt: int = 0):
    """Domain-mixture sampler: per-GROUP Bernoulli keep-rates (the
    Pile/DoReMi-style mixture-reweighting step — upsample wiki, damp
    common-crawl — applied as deterministic subsampling; rates are
    integer percents).  Keep iff
    ``((key + salt) * 2654435761) mod 2^32 mod 100 < rates[group]``.

    Like ``hash_sample`` this is a pure streaming filter: no shuffle, no
    RNG state, any worker keeps the same rows for the same keys, so the
    sample is resumable and cluster-size-independent.  ``salt``
    decorrelates composed samplers (a mixture pass after a global
    ``hash_sample`` would otherwise select nested subsets).  Groups
    absent from ``rates`` fall back to ``default_pct``.

    The rates dict is ``ray.put`` once and read from the object store by
    every task (a production mixture spec can carry thousands of domain
    entries); the per-batch lookup is vectorized over the batch's unique
    groups, not its rows."""
    import ray

    rates_ref = ray.put(dict(rates))

    def keep(batch: pa.Table) -> pa.Table:
        r = ray.get(rates_ref)
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        groups = batch[group_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(groups, return_inverse=True)
        rate_vec = np.array([r.get(g, default_pct) for g in uniq],
                            dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = ((keys + np.uint64(salt)) * _KNUTH) % _MOD32
        return batch.filter(pa.array((h % np.uint64(100)) < rate_vec[inv]))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(ds, n: int, weight_col: str, key_col: str = "doc_id",
                    salt: int = 0) -> pa.Table:
    """Weighted sampling WITHOUT replacement (Efraimidis & Spirakis
    2006, algorithm A-ES), fully deterministic: each row draws
    ``u = uniform(splitmix64(key + salt))`` and the ``n`` smallest
    ``-ln(u) / weight`` win — inclusion probability proportional to
    weight, no RNG state, identical sample for any partitioning.

    Scale shape: per-block partial top-n (every block keeps only its n
    best sort keys) → tiny driver merge, the ``partial_topk`` idiom —
    no shuffle.  The DuckDB oracle replicates the double arithmetic
    term for term (u from the top 53 hash bits, natural log); a rank
    flip would need two sort keys within ~1 ulp, which the continuous
    key distribution makes measure-zero."""
    def skeys(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if not (w > 0).all():
            # a negative weight's sort key -ln(u)/w < 0 would ALWAYS win
            # (the inverse of weight-proportional); zero gives inf — fail
            raise ValueError(f"weighted_sample needs {weight_col} > 0 "
                             f"(got min {w.min()!r})")
        h = splitmix64(k.astype(np.uint64) + np.uint64(salt))
        u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) / 9007199254740993.0
        return k, -np.log(u) / w

    def partial(batch: pa.Table) -> pa.Table:
        k, s = skeys(batch)
        keep = np.lexsort((k, s))[:n]
        return batch.take(pa.array(np.sort(keep))).append_column(
            "_skey", pa.array(s[np.sort(keep)]))

    from ..functions.agg import collect_blocks

    parts = collect_blocks(ds.map_batches(partial, batch_format="pyarrow"))
    if not parts:
        raise ValueError("weighted_sample over an empty dataset")
    t = pa.concat_tables(parts)
    k = t[key_col].to_numpy(zero_copy_only=False)
    s = t["_skey"].to_numpy(zero_copy_only=False)
    keep = np.lexsort((k, s))[:n]
    return t.take(pa.array(np.sort(keep))).drop_columns(["_skey"])


# ---------------------------------------------------------------- quotas


def _cap_kernel(t: pa.Table, group_col: str, order_col: str, k: int) -> pa.Table:
    """First-k-per-group inside one table: sort by (group, order), rank
    within group via run boundaries (numpy, no Python rows), filter."""
    if t.num_rows == 0:
        return t
    idx = pc.sort_indices(t, [(group_col, "ascending"), (order_col, "ascending")])
    t = t.take(idx)
    g = t[group_col].to_numpy(zero_copy_only=False)
    change = np.empty(len(g), dtype=bool)
    change[0] = True
    np.not_equal(g[1:], g[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    run_id = np.cumsum(change) - 1
    rank = np.arange(len(g)) - starts[run_id]
    return t.filter(pa.array(rank < k))


def cap_per_group(ds, group_col: str, order_col: str, k: int,
                  num_partitions: int = 16) -> pa.Table:
    """Keep the first ``k`` rows per group (deterministic order by
    ``order_col``) — the "≤N documents per domain" quota of web-corpus
    curation.

    Scale plan: each block reduces itself to ≤ k rows per group present
    in it (the only rows that can survive globally), so partials are
    ≤ blocks × groups-per-block × k; the final combine re-runs the same
    kernel through ``dedup._combine`` keyed on the group.
    """
    def partial(b: pa.Table) -> pa.Table:
        t = _cap_kernel(b, group_col, order_col, k)
        return t.append_column(
            "__gkey", pa.array(xxh64_strings(
                t[group_col].to_numpy(zero_copy_only=False).astype(str))))

    # the partials stay in the object store; only a combine that fits
    # the budget ever ray.gets them
    refs, nbytes = _refs_and_bytes(ds.map_batches(partial, batch_format="pyarrow"))
    out = _combine(
        refs, nbytes, "__gkey",
        lambda t: _cap_kernel(t.drop_columns(["__gkey"]), group_col, order_col, k),
        num_partitions=num_partitions)
    if not out:
        return ds.schema().base_schema.empty_table()
    merged = pa.concat_tables(out, promote_options="permissive")
    return merged.take(pc.sort_indices(
        merged, [(group_col, "ascending"), (order_col, "ascending")]))


# ------------------------------------------------------------- n-grams


def _ngram_counts(batch: pa.Table, text_col: str, n: int) -> pa.Table:
    """Per-block n-gram partial counts, fully vectorized: split once,
    join n shifted views of the flat token array element-wise, mask the
    positions that would cross a document boundary, value_counts."""
    la = pc.split_pattern(batch[text_col], " ").combine_chunks()
    flat = la.values
    offs = la.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    total = len(flat)
    if total < n:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    views = [flat.slice(i, total - n + 1) for i in range(n)]
    joined = pc.binary_join_element_wise(*views, " ")
    # start position j is valid iff j .. j+n-1 all fall inside one doc:
    # invalidate the n-1 positions before each doc end
    mask = np.ones(total - n + 1, dtype=bool)
    ends = offs[1:]
    for d in range(1, n):
        bad = ends - d
        bad = bad[(bad >= 0) & (bad < len(mask))]
        mask[bad] = False
    vc = pc.value_counts(joined.filter(pa.array(mask)))
    return pa.table({"ngram": vc.field("values"), "n": vc.field("counts")})


def ngram_partial_table(b: pa.Table, n: int, text_col: str = "text") -> pa.Table:
    """One block's keyed n-gram partial: ``(ngram, n, __gkey)``.
    Exposed so composites that already scan the text column for another
    partial (e.g. pipelines/curation.ngram_and_bm25's BM25 stats pass)
    can fuse this in and save a whole corpus read."""
    t = _ngram_counts(b, text_col, n)
    return t.append_column("__gkey", pa.array(
        xxh64_strings(t["ngram"].to_numpy(zero_copy_only=False))))


def ngram_sum_topk(t: pa.Table, k: int) -> pa.Table:
    """Sum ``(ngram, n)`` partial rows per ngram → the top-k (count
    desc, ngram asc).  Exact on any ngram-complete subset, and
    idempotent, so it is both the per-partition kernel and the final
    merge."""
    g = t.select(["ngram", "n"]).group_by(["ngram"], use_threads=False) \
        .aggregate([("n", "sum")]).rename_columns(["ngram", "n"])
    idx = pc.sort_indices(g, [("n", "descending"), ("ngram", "ascending")])
    return g.take(idx.slice(0, k))


def ngram_topk(ds, n: int = 2, k: int = 50, text_col: str = "text",
               num_partitions: int = 16) -> pa.Table:
    """Exact global top-k n-grams with deterministic tie-break
    (count desc, ngram asc).

    Per-block value_counts shrinks each block to its distinct n-grams
    (:func:`ngram_partial_table`); the cross-block sum is the one step
    that genuinely needs every partial together (counts can't be pruned
    per block without losing exactness).  ``dedup._combine`` sums them
    on the driver when they fit the budget, else through the scatter
    exchange keyed on xxh64(ngram) — identical ngram ⇒ identical
    partition, so per-partition sums are final and a partition's local
    top-k is globally sufficient; the k×P-row merge runs on the driver.
    """
    refs, nbytes = _refs_and_bytes(
        ds.map_batches(lambda b: ngram_partial_table(b, n, text_col),
                       batch_format="pyarrow"))
    out = _combine(refs, nbytes, "__gkey", lambda t: ngram_sum_topk(t, k),
                   num_partitions=num_partitions)
    if not out:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return ngram_sum_topk(pa.concat_tables(out), k)


# ------------------------------------------------------------- chunking


def chunk_kernel(batch: pa.Table, chunk_size: int = 64, overlap: int = 16,
                 text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Explode documents into overlapping context windows of
    ``chunk_size`` whitespace tokens with ``overlap`` tokens carried
    over (stride = chunk_size - overlap) — the standard pre-tokenization
    packing step for LLM training corpora.

    Fully vectorized: one split per block, chunk token indices built
    with numpy repeat/arange arithmetic, chunk text re-assembled with
    one list-join kernel.  Output: (doc_id, chunk_start [1-based token
    index], chunk).
    """
    stride = chunk_size - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_size")
    la = pc.split_pattern(batch[text_col], " ").combine_chunks()
    flat = la.values
    offs = la.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    lens = np.diff(offs)
    # range(0, max(n - overlap, 1), stride) chunk starts per doc
    m = np.maximum(lens - overlap, 1)
    n_chunks = (m + stride - 1) // stride
    total_chunks = int(n_chunks.sum())
    if total_chunks == 0:
        return pa.table({id_col: batch[id_col].slice(0, 0),
                         "chunk_start": pa.array([], pa.int64()),
                         "chunk": pa.array([], pa.string())})
    doc_of_chunk = np.repeat(np.arange(len(lens)), n_chunks)
    chunk_idx = np.arange(total_chunks) - np.repeat(
        np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks)
    start = chunk_idx * stride                      # token offset within doc
    clen = np.minimum(chunk_size, lens[doc_of_chunk] - start)
    # global flat-token indices for every chunk token
    g_start = offs[doc_of_chunk] + start
    tok_of = np.repeat(np.arange(total_chunks), clen)
    within = np.arange(int(clen.sum())) - np.repeat(
        np.concatenate([[0], np.cumsum(clen)[:-1]]), clen)
    indices = np.repeat(g_start, clen) + within
    chunk_offsets = np.concatenate([[0], np.cumsum(clen)])
    chunk_list = pa.ListArray.from_arrays(
        pa.array(chunk_offsets, pa.int32()), flat.take(pa.array(indices)))
    return pa.table({
        id_col: batch[id_col].take(pa.array(doc_of_chunk)),
        "chunk_start": pa.array(start + 1, pa.int64()),
        "chunk": pc.binary_join(chunk_list, " "),
    })


def chunk_documents(ds, chunk_size: int = 64, overlap: int = 16,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Streaming Dataset→Dataset chunk explosion (no materialization —
    feeds write_parquet / downstream tokenization directly)."""
    return ds.map_batches(
        lambda b: chunk_kernel(b, chunk_size, overlap, text_col, id_col),
        batch_format="pyarrow")


# ------------------------------------------------------- decontamination


def _doc_shingle_pairs(batch: pa.Table, text_col: str, n: int,
                       id_col: str = "doc_id"):
    """(doc_id, shingle-hash) DISTINCT pairs per block, vectorized via
    the same boundary-masked shifted-view join as _ngram_counts."""
    la = pc.split_pattern(batch[text_col], " ").combine_chunks()
    flat = la.values
    offs = la.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    total = len(flat)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    if total < n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    views = [flat.slice(i, total - n + 1) for i in range(n)]
    joined = pc.binary_join_element_wise(*views, " ")
    mask = np.ones(total - n + 1, dtype=bool)
    ends = offs[1:]
    for d in range(1, n):
        bad = ends - d
        bad = bad[(bad >= 0) & (bad < len(mask))]
        mask[bad] = False
    pos = np.flatnonzero(mask)
    doc_idx = np.searchsorted(offs, pos, side="right") - 1
    h = xxh64_strings(joined.take(pa.array(pos)).to_numpy(zero_copy_only=False))
    # distinct (doc, hash) pairs without Python loops: lexsort + boundary diff
    order = np.lexsort((h, doc_idx))
    di, hi = doc_idx[order], h[order]
    keep = np.ones(len(di), dtype=bool)
    keep[1:] = (di[1:] != di[:-1]) | (hi[1:] != hi[:-1])
    return ids[di[keep]], hi[keep]


def benchmark_shingles(ds, n: int = 3, text_col: str = "text") -> np.ndarray:
    """Sorted distinct word-n-gram hashes of the benchmark/eval split.

    Eval sets are small by construction (thousands of documents), so
    the distinct-hash array is driver-collected once and broadcast via
    ``ray.put`` — the canonical small-side pattern; the TRAIN side
    never leaves its blocks."""
    from ..functions.agg import block_refs

    import ray

    def per_block(b: pa.Table) -> pa.Table:
        _, h = _doc_shingle_pairs(b, text_col, n)
        return pa.table({"h": pa.array(np.unique(h))})

    refs = block_refs(ds.map_batches(per_block, batch_format="pyarrow"))
    parts = [b["h"].to_numpy(zero_copy_only=False) for b in ray.get(refs) if b.num_rows]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


# decontaminate: benchmark-hash count above which the single broadcast
# array gives way to hash-sharded shingles + a per-partition semi-join
# (a benchmark suite is MBs in practice; this guards the pathological
# huge-benchmark case so no single object must fit one worker's heap).
_BENCH_BROADCAST_MAX_HASHES = 16_000_000


def _hits(bh: np.ndarray, ids: np.ndarray, h: np.ndarray) -> pa.Table:
    """(doc_id, n_hits) for the docs whose distinct (doc, hash) pairs
    hit the sorted benchmark hashes ``bh``."""
    docs, counts = np.unique(ids[in_sorted(bh, h)], return_counts=True)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64)),
                     "n_hits": pa.array(counts.astype(np.int64))})


def bench_hits(batch: pa.Table, bh: np.ndarray, n: int = 3, text_col: str = "text",
               id_col: str = "doc_id") -> pa.Table:
    """One train batch's contaminated docs against the sorted benchmark
    hashes ``bh``: (doc_id, n_hits), n_hits = DISTINCT shared
    word-``n``-gram count — the per-batch kernel of the broadcast
    decontamination."""
    return _hits(bh, *_doc_shingle_pairs(batch, text_col, n, id_col))


def sharded_bench_hits(train_ds, bh_sorted: np.ndarray, n: int = 3,
                       text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """:func:`bench_hits` over a whole Dataset without broadcasting the
    benchmark set: it is hash-sharded (``h % S``) and the train
    (doc, hash) pairs take one key exchange on the same hash, so every
    partition semi-joins against ONE shard — no task ever holds the
    whole benchmark index.  Returns the (doc_id, n_hits) table."""
    import ray

    from .dedup import _auto_partitions, _partitioned_exchange

    S = _auto_partitions(len(bh_sorted),
                         rows_per_partition=max(1, _BENCH_BROADCAST_MAX_HASHES // 8))
    # per-shard arrays stay sorted: a sorted array filtered by a mask
    # keeps its order
    shard_refs = [ray.put(bh_sorted[bh_sorted % np.uint64(S) == np.uint64(s)])
                  for s in range(S)]

    def pairs_fn(batch: pa.Table) -> pa.Table:
        ids, h = _doc_shingle_pairs(batch, text_col, n, id_col)
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "h": pa.array(h, pa.uint64())})

    def shard_check(tbl: pa.Table) -> pa.Table:
        h = tbl["h"].to_numpy(zero_copy_only=False)
        s = int(h[0] % np.uint64(S))  # partition ⇒ single shard by construction
        return _hits(ray.get(shard_refs[s]), tbl["doc_id"].to_numpy(zero_copy_only=False), h)

    pairs_ds = train_ds.map_batches(pairs_fn, batch_format="pyarrow")
    parts = _partitioned_exchange(pairs_ds, "h", shard_check, num_partitions=S)
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_hits": pa.array([], pa.int64())})
    return pa.concat_tables(parts).group_by("doc_id", use_threads=False).aggregate(
        [("n_hits", "sum")]).rename_columns(["doc_id", "n_hits"])


def decontaminate(train_ds, bench_hashes: np.ndarray, n: int = 3,
                  text_col: str = "text") -> "object":
    """Mark training documents sharing any word-``n``-gram with the
    benchmark set — the eval-decontamination pass every training corpus
    needs.  Returns a streaming Dataset of (doc_id, n_hits) for
    contaminated docs, n_hits = DISTINCT shared n-gram count.

    Scale shape: benchmark hashes ride the object store once
    (``ray.put``); each train block runs :func:`bench_hits` (its own
    distinct (doc, hash) pairs and a vectorized ``searchsorted``
    membership) — no shuffle, no driver funnel.  Above
    ``_BENCH_BROADCAST_MAX_HASHES`` it takes
    :func:`sharded_bench_hits` instead."""
    import ray

    bh_sorted = np.sort(np.asarray(bench_hashes, dtype=np.uint64))
    if len(bh_sorted) > _BENCH_BROADCAST_MAX_HASHES:
        import ray.data as rd

        return rd.from_arrow(sharded_bench_hits(train_ds, bh_sorted, n, text_col))
    ref = ray.put(bh_sorted)
    return train_ds.map_batches(
        lambda batch: bench_hits(batch, ray.get(ref), n, text_col),
        batch_format="pyarrow")


# ------------------------------------------------------------ seq packing


def _pack_kernel(t: pa.Table, group_col: str, order_col: str, text_col: str,
                 budget: int) -> pa.Table:
    """Pack a partition's documents into fixed token-budget bins.

    Precondition: ``t`` holds ALL rows of every group present (exchange /
    driver-combine guarantee).  Bin rule (deterministic and
    SQL-expressible as a window sum): a doc's bin is
    floor(exclusive-prefix-token-sum within its group, ordered by
    ``order_col``, / budget) — fixed boundaries, so a doc may straddle a
    boundary into its own bin but assignment never depends on packing
    history (unlike greedy best-fit, which is order-sequential and
    unparallelizable)."""
    if t.num_rows == 0:
        return pa.table({group_col: pa.array([], pa.string()),
                         "bin": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_tokens": pa.array([], pa.int64()),
                         "packed": pa.array([], pa.string())})
    idx = pc.sort_indices(t, [(group_col, "ascending"), (order_col, "ascending")])
    t = t.take(idx)
    texts = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    ntok = pc.add(pc.count_substring(texts, " "), 1).to_numpy().astype(np.int64)
    g = t[group_col].to_numpy(zero_copy_only=False)
    change = np.empty(len(g), dtype=bool)
    change[0] = True
    np.not_equal(g[1:], g[:-1], out=change[1:])
    run_id = np.cumsum(change) - 1
    excl = np.cumsum(ntok) - ntok
    base = excl[np.flatnonzero(change)]
    prefix = excl - base[run_id]
    bins = prefix // budget
    seg = change.copy()
    seg[1:] |= bins[1:] != bins[:-1]
    starts = np.flatnonzero(seg)
    ends = np.append(starts[1:], len(g))
    offsets = np.concatenate([starts, [len(g)]]).astype(np.int32)
    packed = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets), texts), " ")
    tok_cum = np.concatenate([[0], np.cumsum(ntok)])
    return pa.table({
        group_col: pa.array(g[starts]),
        "bin": pa.array(bins[starts]),
        "n_docs": pa.array((ends - starts).astype(np.int64)),
        "n_tokens": pa.array(tok_cum[ends] - tok_cum[starts]),
        "packed": packed,
    })


def pack_sequences(ds, group_col: str = "source", order_col: str = "doc_id",
                   text_col: str = "text", budget: int = 256,
                   num_partitions: int = 16) -> pa.Table:
    """Sequence packing (pre-tokenization document concatenation): per
    group, concatenate docs in deterministic order into bins of
    ``budget`` whitespace tokens; returns
    (group, bin, n_docs, n_tokens, packed).

    Ordered packing inherently needs every group co-located, so this is
    the engine's one-exchange shape: each input block is keyed by
    xxh64(group) and scattered ONCE (rows move once, like a hash
    shuffle); each partition packs its groups independently and only
    bin-level rows return.  No driver-side fast path is needed — the
    per-partition kernel IS the small case when partitions are few."""
    from ..functions.agg import block_refs

    import ray

    cols = [group_col, order_col, text_col]

    def keyed(b: pa.Table) -> pa.Table:
        b = b.select(cols)
        return b.append_column("__gkey", pa.array(
            xxh64_strings(b[group_col].to_numpy(zero_copy_only=False).astype(str))))

    refs = block_refs(ds.map_batches(keyed, batch_format="pyarrow"))
    out = _scatter_exchange(
        [(refs, "__gkey")],
        lambda t: _pack_kernel(t.drop_columns(["__gkey"]), group_col, order_col,
                               text_col, budget),
        num_partitions,
    )
    parts = [p for p in out if p.num_rows]
    if not parts:
        return _pack_kernel(pa.table({group_col: pa.array([], pa.string()),
                                      order_col: pa.array([], pa.int64()),
                                      text_col: pa.array([], pa.string())}),
                            group_col, order_col, text_col, budget)
    merged = pa.concat_tables(parts, promote_options="permissive")
    return merged.take(pc.sort_indices(
        merged, [(group_col, "ascending"), ("bin", "ascending")]))


def epoch_shuffle_write(ds, out_dir: str, num_shards: int, seed: int = 0,
                        key_col: str = "doc_id", hasher=xxh64_strings) -> pa.Table:
    """Seeded deterministic shuffle into ``num_shards`` shards: a row's
    shard is ``hasher(key:seed) % num_shards`` and each shard is ordered
    by (hash, key).  FULL rows land in
    ``out_dir/shard=NNNNN/part.parquet`` in shuffled order, written by
    the partition task itself — nothing row-sized ever reaches the
    driver; only a (shard, rows, path, skipped) manifest does.

    Resumable: a shard file that already exists is left untouched and
    reported ``skipped`` — a restarted 100-TB shuffle run redoes only
    the shards that never landed (the same contract as the crawl's
    per-epoch visited parquet)."""
    import os

    from .dedup import _partitioned_exchange

    S = int(num_shards)
    os.makedirs(out_dir, exist_ok=True)

    def key_batch(batch: pa.Table) -> pa.Table:
        ks = pc.cast(batch[key_col], pa.string())
        salted = pc.binary_join_element_wise(ks, f":{seed}", "")
        return batch.append_column("hkey", pa.array(hasher(salted), pa.uint64()))

    def write_shard(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        h = t["hkey"].to_numpy(zero_copy_only=False)
        shard = int(h[0] % np.uint64(S))  # partition == shard for any row
        k = t[key_col].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, h))
        body = t.take(pa.array(o)).drop_columns(["hkey"])
        d = os.path.join(out_dir, f"shard={shard:05d}")
        path = os.path.join(d, "part.parquet")
        skipped = os.path.exists(path)
        if not skipped:
            os.makedirs(d, exist_ok=True)
            tmp = path + f".tmp-{os.getpid()}"  # pid: a retried task never
            pq.write_table(body, tmp)           # shares a dead writer's file
            os.replace(tmp, path)  # atomic: a crashed write never half-lands
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "rows": pa.array([body.num_rows], pa.int64()),
                         "path": pa.array([path], pa.string()),
                         "skipped": pa.array([skipped])})

    keyed = ds.map_batches(key_batch, batch_format="pyarrow")
    parts = _partitioned_exchange(keyed, "hkey", write_shard, num_partitions=S)
    if not parts:
        return pa.table({"shard": pa.array([], pa.int64()),
                         "rows": pa.array([], pa.int64()),
                         "path": pa.array([], pa.string()),
                         "skipped": pa.array([], pa.bool_())})
    return pa.concat_tables(parts).sort_by("shard")
