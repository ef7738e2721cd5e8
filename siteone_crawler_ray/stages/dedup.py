"""Deduplication operators for large-scale training-data pipelines.

Not present in the reference (SURVEY.md §2.7 — it only has exact URL
dedup); these are the corpus-dedup family a 100 TB pipeline needs, each
expressed Ray-Data-first:

- exact:   vectorized content hash per batch (partial min-combiner) →
           one small ``groupby(hash).min(doc_id)`` shuffle
- minhash: shingle→minhash signatures fully vectorized per batch
           (``np.minimum.reduceat`` over hashed shingles) → banded LSH
           rows → ``groupby(band)`` shuffle → verified Jaccard pairs
- simhash: 64-bit token-weight simhash per batch
- embedding cosine: normalized matmul per batch against a broadcast
  matrix (small side via ``ray.put``) → near-dup pairs

All per-batch kernels are numpy; Python never loops over rows except
inside ``np.*.reduceat``-prepared offsets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import xxh64_strings

_M61 = np.uint64((1 << 61) - 1)


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


def _shingle_hashes(texts, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Character k-shingle hashes for a batch → (per-doc sorted-unique
    hashes concatenated, doc_offsets).

    Fully vectorized: all texts concatenate into one byte buffer and a
    degree-k polynomial hash evaluates over every window at once
    (Python substring construction was the MinHash pipeline's hottest
    loop).  Docs shorter than k get one shingle = the whole string: a
    doc has ``max(1, len-k+1)`` windows."""
    P = np.uint64(0x100000001B3)
    enc = [(t if isinstance(t, str) else str(t)).encode("utf-8", "replace") for t in texts]
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=len(enc))
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.uint64)
    starts = np.concatenate([[0], np.cumsum(lens)])
    N = len(buf)
    with np.errstate(over="ignore"):
        if N >= k:
            H = np.zeros(N - k + 1, dtype=np.uint64)
            for j in range(k):
                H = H * P + buf[j : N - k + 1 + j]
            # avalanche the polynomial value (xorshift-multiply)
            H ^= H >> np.uint64(33)
            H *= np.uint64(0xFF51AFD7ED558CCD)
            H ^= H >> np.uint64(29)
        else:
            H = np.empty(0, dtype=np.uint64)
    hashes = []
    counts = np.empty(len(enc), dtype=np.int64)
    for i in range(len(enc)):
        s, ln = starts[i], lens[i]
        if ln >= k:
            h = np.unique(H[s : s + ln - k + 1])
        else:  # whole-string shingle for short docs
            h = xxh64_strings([enc[i].decode("utf-8", "replace")])
        hashes.append(h)
        counts[i] = len(h)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return (np.concatenate(hashes) if hashes else np.empty(0, np.uint64)), offsets


# The one size rule for every gather-or-scatter choice: partials (or an
# exchanged table) of at most this many Arrow bytes gather into one
# process — the driver combine, the broadcast-filter exchange, the local
# star rounds; anything larger or of unknown size takes the keyed scatter
# exchange, where each row moves once and no process holds more than its
# partition.  Sizes come from block metadata or from tiny remote size
# tasks.  Tests monkeypatch it to 0 to force every scale path.
_DRIVER_COMBINE_BYTES = 64 << 20


def _fits(nbytes: int | None) -> bool:
    """True when ``nbytes`` (None = unknown, counted as large) may
    gather into one process."""
    return nbytes is not None and nbytes <= _DRIVER_COMBINE_BYTES


def _auto_partitions(num_rows: int | None = None, *, rows_per_partition: int = 250_000,
                     floor: int = 8) -> int:
    """Partition count for key-hash exchanges: at least the cluster CPU
    count (every core gets a partition) and grows with the data so one
    partition stays ~``rows_per_partition`` rows — a 100-TB candidate
    set fans out with the cluster instead of pinning 32 tasks.
    Exchange outputs are partition-independent (identical key ⇒ one
    partition for any P), so P only affects parallelism."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", floor)) if ray.is_initialized() else floor
    except Exception:
        cpus = floor
    p = max(cpus, floor)
    if num_rows:
        p = max(p, -(-num_rows // rows_per_partition))
    return p


def _key_mod(block: pa.Table, key_col: str, P: int | None) -> np.ndarray:
    """key % P as uint64, bit-stable for int64 OR uint64 key columns;
    ``P=None`` returns the uint64 keys themselves (a hash input)."""
    keys = block[key_col].to_numpy(zero_copy_only=False)
    keys = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64)
    return keys if P is None else keys % np.uint64(P)


def _scatter_exchange(inputs, fn, num_partitions: int, return_refs: bool = False) -> list:
    """Row-moves-once hash shuffle on raw Ray tasks — the one keyed
    scatter→gather every coded scale path runs on.

    ``inputs`` is a list of ``(refs, key_col)`` or ``(refs, key_col,
    pre, arg)``.  Stage 1 runs one task per block: ``pre(block, arg)``
    first if given (a bloom prune, a candidate join; ``arg`` rides as a
    task argument, so a ``ray.put`` ref arrives as its value), then the
    block splits into ``P`` partitions on ``key_col % P``, each sub-table
    its own object.  Stage 2 task ``p`` concatenates partition ``p`` of
    each input and calls ``fn(*tables)``, with ``None`` for an input
    that has no rows there; a partition where every input is empty
    yields ``None`` without calling ``fn``.  Identical key ⇒ identical
    partition across all inputs, so a per-partition group or join is
    exact for any ``P``, and each row crosses the wire once.
    ``return_refs=True`` keeps the per-partition outputs in the object
    store (refs, possibly to ``None``) so a caller can chain a second
    exchange without the tables ever landing on the driver."""
    import ray

    P = num_partitions
    keys = [inp[1] for inp in inputs]
    pres = [inp[2] if len(inp) > 2 else None for inp in inputs]
    counts = [len(inp[0]) for inp in inputs]

    @ray.remote
    def scatter(block: pa.Table, i: int, arg):
        # block may be None: a ref from an upstream exchange
        if block is not None and block.num_rows and pres[i] is not None:
            block = pres[i](block, arg)
        if block is None or block.num_rows == 0:
            parts = (None,) * P
        else:
            part = _key_mod(block, keys[i], P)
            parts = tuple(block.filter(pa.array(part == p)) for p in range(P))
        return parts if P > 1 else parts[0]  # num_returns=1 returns the bare value

    @ray.remote
    def gather(*parts):
        tables, start = [], 0
        for n in counts:
            got = [x for x in parts[start:start + n] if x is not None and x.num_rows]
            tables.append(pa.concat_tables(got) if got else None)
            start += n
        if all(t is None for t in tables):
            return None
        return fn(*tables)

    cols = []
    for i, inp in enumerate(inputs):
        arg = inp[3] if len(inp) > 3 else None
        for r in inp[0]:
            c = scatter.options(num_returns=P).remote(r, i, arg)
            cols.append([c] if P == 1 else c)  # num_returns=1 yields a bare ref
    out_refs = [gather.remote(*[c[p] for c in cols]) for p in range(P)]
    if return_refs:
        return out_refs
    out = ray.get(out_refs)
    return [t for t in out if t is not None and t.num_rows]


def _refs_and_bytes(ds) -> tuple[list, int | None]:
    """Execute ``ds`` once → (its block refs, their summed Arrow bytes
    from block metadata; None when any block's size is unknown)."""
    refs, nbytes = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        refs += bundle.block_refs
        sizes = [m.size_bytes for m in bundle.metadata]
        nbytes = None if nbytes is None or None in sizes else nbytes + sum(sizes)
    return refs, nbytes


def _ref_bytes(refs) -> int:
    """Summed Arrow bytes of tables (or ``None``s) behind object refs
    that carry no block metadata, e.g. an exchange's ``return_refs``
    outputs: one zero-CPU size task per ref, only ints return."""
    import ray

    size = ray.remote(num_cpus=0)(lambda t: 0 if t is None else t.nbytes)
    return sum(ray.get([size.remote(r) for r in refs]))


def _scatter_partitions(nbytes: int | None) -> int:
    """Default fan-out: every CPU gets a partition, and no partition
    gathers more than the budget."""
    p = _auto_partitions()
    if nbytes and _DRIVER_COMBINE_BYTES:
        p = max(p, -(-nbytes // _DRIVER_COMBINE_BYTES))
    return p


def _combine(refs, nbytes: int | None, key_col: str, kernel, pre=None,
             num_partitions: int | None = None) -> list[pa.Table]:
    """Combine partial tables behind ``refs`` with ``kernel`` → its
    non-empty outputs.  Partials that fit the budget (``nbytes``, see
    :func:`_fits`) concatenate on the driver and ``kernel`` runs once;
    larger ones go through :func:`_scatter_exchange` keyed on
    ``key_col``, so ``kernel`` must be exact on any key-complete subset
    and the caller merges the per-partition outputs.  ``pre(block)``
    runs on the scatter path only, before keying (it derives
    ``key_col`` when the kernel needs no key)."""
    import ray

    if _fits(nbytes):
        parts = [t for t in ray.get(list(refs)) if t is not None and t.num_rows]
        out = kernel(pa.concat_tables(parts, promote_options="permissive")) if parts else None
        return [out] if out is not None and out.num_rows else []
    inp = (refs, key_col) if pre is None else (refs, key_col, lambda b, _: pre(b), None)
    if num_partitions is None:
        num_partitions = _scatter_partitions(nbytes)
    return _scatter_exchange([inp], kernel, num_partitions)


def _partitioned_exchange(ds, key_col: str, fn, num_partitions: int | None = None,
                          return_refs: bool = False) -> list:
    """Hash-partitioned all-to-all without driver materialization.

    Exchanged tables that fit the budget (:func:`_fits`): the Dataset's
    blocks stay in the object store; ``num_partitions`` tasks each pull
    every block (shared-memory reads node-locally), filter to
    ``key % P == p`` and apply ``fn`` to their partition.  Larger
    tables switch to :func:`_scatter_exchange`, where each row moves
    exactly once: on a multi-node cluster the broadcast reads are up to
    P× network amplification of the exchanged table.  Rows with an identical key always land in the same
    partition, so a per-bucket ``fn`` (pairing, grouping) is exact.
    Equivalent to ``ds.groupby(key % P).map_groups(fn)`` without the
    sort-based shuffle.  ``return_refs=True`` leaves the per-partition
    outputs as object refs for chaining a second exchange."""
    import ray

    refs, nbytes = _refs_and_bytes(ds)
    if num_partitions is None:
        num_partitions = _scatter_partitions(nbytes)
    if not _fits(nbytes):
        return _scatter_exchange([(refs, key_col)], fn, num_partitions, return_refs=return_refs)

    @ray.remote
    def one_partition(p: int, P: int, *blocks) -> pa.Table:
        # zero-row blocks can bypass an upstream map UDF and keep the
        # INPUT schema (no key column) — skip them before keying
        parts = [b.filter(pa.array(_key_mod(b, key_col, P) == p))
                 for b in blocks if b.num_rows]
        parts = [x for x in parts if x.num_rows]
        if not parts:
            return None
        return fn(pa.concat_tables(parts))

    out_refs = [one_partition.remote(p, num_partitions, *refs) for p in range(num_partitions)]
    if return_refs:
        return out_refs
    out = ray.get(out_refs)
    return [t for t in out if t is not None and t.num_rows]


def _dedup_pairs(parts: list[pa.Table]) -> pa.Table:
    """Merge (id_a, id_b) pair tables and drop duplicates (vectorized
    np.unique over the packed pair key)."""
    if not parts:
        return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    t = pa.concat_tables(parts)
    a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = np.stack([a, b], axis=1)
    uniq = np.unique(key, axis=0)
    return pa.table({"id_a": pa.array(uniq[:, 0]), "id_b": pa.array(uniq[:, 1])})


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """→ Dataset of surviving ids (min id per identical text).

    Pattern: per-batch partial min (combiner) → tiny groupby shuffle."""
    def partial(batch: pa.Table) -> pa.Table:
        # int64 view of the xxh64 key: Ray's groupby falls back to pickled
        # extension objects for uint64 key columns (observed), int64 stays
        # native through the shuffle
        h = xxh64_strings(batch[text_col]).view(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        hs, first = np.unique(h[order], return_index=True)
        return pa.table({"content_hash": pa.array(hs, pa.int64()),
                         id_col: pa.array(ids[order][first])})

    import ray.data as rd

    # partial per-block dedup leaves ≤ one row per distinct text per
    # block.  A residue that fits the budget combines with one tiny
    # driver-side hash agg; above it (at 10⁹ distinct hashes the residue
    # IS the dataset) the combine runs as a key-partitioned exchange —
    # min-per-hash is exact because identical hashes land in one
    # partition — and the result stays distributed.
    def combine(tbl: pa.Table) -> pa.Table:
        merged = tbl.group_by("content_hash", use_threads=False).aggregate([(id_col, "min")])
        return merged.select([f"{id_col}_min"]).rename_columns([id_col])

    refs, nbytes = _refs_and_bytes(ds.map_batches(partial, batch_format="pyarrow"))
    out = _combine(refs, nbytes, "content_hash", combine)
    if not out:
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64())}))
    return rd.from_arrow(out)


# docs per block of the MinHash permutation loop: a block's shingle
# hashes (a few hundred per doc) stay cache-resident across all
# num_perm passes instead of streaming the whole batch from DRAM each time
_MINHASH_BLOCK_DOCS = 256


def minhash_signatures(batch: pa.Table, *, id_col="doc_id", text_col="text",
                       num_perm=64, shingle_k=5, seed=7) -> pa.Table:
    """Per-batch MinHash: (doc, num_perm) uint64 signature matrix,
    ``mh{j}`` = min over the doc's shingle hashes x of
    ``(a[j]·x + b[j]) & (2^61 - 1)``; a doc without shingles gets
    ``2^61 - 1``.  The permutation loop runs per block of
    ``_MINHASH_BLOCK_DOCS`` docs through one in-place buffer."""
    texts = batch[text_col].to_numpy(zero_copy_only=False)
    base, offsets = _shingle_hashes(texts, shingle_k)
    a, b = _perm_params(num_perm, seed)
    n = len(texts)
    sig = np.empty((num_perm, n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for d0 in range(0, n, _MINHASH_BLOCK_DOCS):
            d1 = min(d0 + _MINHASH_BLOCK_DOCS, n)
            blk = base[offsets[d0]:offsets[d1]]
            starts = offsets[d0:d1] - offsets[d0]
            # empty docs at the block's end start past its last shingle:
            # leave them out (reduceat would index past the buffer)
            starts = starts[:np.searchsorted(starts, len(blk))]
            if not len(starts):
                continue
            out = sig[:, d0:d0 + len(starts)]
            buf = np.empty_like(blk)
            for j in range(num_perm):
                np.multiply(blk, a[j], out=buf)
                np.add(buf, b[j], out=buf)
                np.bitwise_and(buf, _M61, out=buf)
                np.minimum.reduceat(buf, starts, out=out[j])
    sig[:, offsets[:-1] == offsets[1:]] = _M61
    cols = {id_col: batch[id_col]}
    for j in range(num_perm):
        cols[f"mh{j}"] = pa.array(sig[j], pa.uint64())
    return pa.table(cols)


def lsh_band_rows(sig_batch: pa.Table, *, id_col="doc_id", num_perm=64, bands=16) -> pa.Table:
    """Signatures → (band_id, band_hash, id) rows for the LSH groupby."""
    rows_per_band = num_perm // bands
    n = sig_batch.num_rows
    sig = np.column_stack(
        [sig_batch[f"mh{j}"].to_numpy(zero_copy_only=False) for j in range(num_perm)]
    )
    ids = sig_batch[id_col].to_numpy(zero_copy_only=False)
    band_id = np.repeat(np.arange(bands, dtype=np.int32), n)
    out_ids = np.tile(ids, bands)
    band_hash = np.empty(bands * n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for bnd in range(bands):
            chunk = sig[:, bnd * rows_per_band : (bnd + 1) * rows_per_band]
            h = np.full(n, np.uint64(1469598103934665603))
            for c in range(rows_per_band):
                h = (h ^ chunk[:, c]) * np.uint64(1099511628211)
            band_hash[bnd * n : (bnd + 1) * n] = h
    return pa.table({"band_id": pa.array(band_id), "band_hash": pa.array(band_hash, pa.uint64()),
                     id_col: pa.array(out_ids)})


def minhash_dedup_pairs(ds, *, id_col="doc_id", text_col="text", num_perm=64,
                        bands=16, shingle_k=5, threshold=0.7, seed=7) -> pa.Table:
    """Full MinHash-LSH near-dup pipeline → verified pair table
    (id_a < id_b, jaccard ≥ threshold).

    Stages: signatures (map_batches) → band rows (map_batches) → groupby
    band buckets (the one shuffle) → candidate pairs → exact-Jaccard
    verification (second pass over the text of candidate ids only)."""
    import ray

    sigs = ds.map_batches(
        lambda b: minhash_signatures(b, id_col=id_col, text_col=text_col,
                                     num_perm=num_perm, shingle_k=shingle_k, seed=seed),
        batch_format="pyarrow",
    )
    bands_ds = sigs.map_batches(
        lambda b: lsh_band_rows(b, id_col=id_col, num_perm=num_perm, bands=bands),
        batch_format="pyarrow",
    )
    # bucket → candidate pairs; buckets are tiny, pair emission vectorized
    def bucket_pairs(batch: pa.Table) -> pa.Table:
        bid = batch["band_id"].to_numpy(zero_copy_only=False)
        bh = batch["band_hash"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bh, bid))
        bid, bh, ids = bid[order], bh[order], ids[order]
        key_change = np.ones(len(bid), dtype=bool)
        key_change[1:] = (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])
        starts = np.nonzero(key_change)[0]
        ends = np.append(starts[1:], len(bid))
        pa_, pb_ = [], []
        for s, e in zip(starts, ends):
            if e - s > 1:
                grp = ids[s:e]
                iu, ju = np.triu_indices(len(grp), k=1)
                pa_.append(grp[iu])
                pb_.append(grp[ju])
        if not pa_:
            return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
        return pa.table({"id_a": pa.array(np.concatenate(pa_)), "id_b": pa.array(np.concatenate(pb_))})

    # band rows never concat on the driver: a hash-partitioned exchange
    # (band_hash % P) sends each partition's rows to one task, which
    # pairs its buckets locally (identical band_hash ⇒ identical
    # partition, so no cross-partition bucket is ever split).  Only the
    # tiny candidate-pair tables return.
    cand_parts = _partitioned_exchange(bands_ds, "band_hash", bucket_pairs)
    cand = _dedup_pairs(cand_parts)
    if cand.num_rows == 0:
        return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    # verification is PARTITION-LOCAL: each pair is owned by partition
    # hash(id_a) % P; a doc's shingle set is routed (replicated) only to
    # the partitions that verify one of its pairs, so no task — and not
    # the driver — ever holds the full candidate shingle index.  The
    # driver handles only the id-level routing table (one row per
    # candidate id, no text/shingles).
    import pyarrow.compute as pc

    ia_all = cand["id_a"].to_numpy(zero_copy_only=False)
    ib_all = cand["id_b"].to_numpy(zero_copy_only=False)
    # verify fanout scales with cluster size and candidate volume
    # (output is P-independent: pair ownership is hash(id_a) % P)
    P = _auto_partitions(len(ia_all), rows_per_partition=50_000)
    pair_part = ia_all.view(np.uint64) % np.uint64(P)
    # routing table: (doc id → partitions that need its shingles)
    route = np.unique(
        np.stack([np.concatenate([ia_all, ib_all]),
                  np.concatenate([pair_part, pair_part]).view(np.int64)], axis=1),
        axis=0,
    )
    route_ref = ray.put((route[:, 0], route[:, 1]))
    pairs_ref = ray.put((ia_all, ib_all, pair_part))

    def prune_hash_route(batch: pa.Table) -> pa.Table:
        """Filter to candidate docs, shingle-hash them, and emit one
        (part, id, sh) row per partition that needs the doc — all in
        the same distributed pass."""
        route_ids, route_parts = ray.get(route_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sel = np.nonzero(np.isin(ids, route_ids))[0]
        empty = pa.table({"part": pa.array([], pa.int64()),
                          id_col: pa.array([], batch[id_col].type),
                          "sh": pa.array([], pa.list_(pa.uint64()))})
        if not len(sel):
            return empty
        b = batch.take(pa.array(sel))
        h, o = _shingle_hashes(b[text_col].to_numpy(zero_copy_only=False), shingle_k)
        sh = pa.ListArray.from_arrays(pa.array(o, pa.int32()), pa.array(h, pa.uint64()))
        t = pa.table({id_col: b[id_col], "sh": sh})
        # replicate each doc row once per target partition (route_ids is
        # sorted by (id, part): searchsorted gives each doc's run)
        doc_ids = ids[sel]
        lo = np.searchsorted(route_ids, doc_ids, side="left")
        hi = np.searchsorted(route_ids, doc_ids, side="right")
        take = np.repeat(np.arange(len(doc_ids)), hi - lo)
        parts = np.concatenate([route_parts[l:h] for l, h in zip(lo, hi)]) if len(doc_ids) else np.array([], np.int64)
        rep = t.take(pa.array(take))
        return pa.table({"part": pa.array(parts, pa.int64()),
                         id_col: rep[id_col], "sh": rep["sh"]})

    def verify_partition(sub: pa.Table) -> pa.Table:
        """One partition's docs → exact Jaccard for the pairs this
        partition owns (hash(id_a) % P == part).  Exact Jaccard on
        hashed shingle sets — identical semantics to string-set
        Jaccard."""
        part = int(sub["part"][0].as_py())
        ia_full, ib_full, pp = ray.get(pairs_ref)
        mine = pp == np.uint64(part)
        ia, ib = ia_full[mine], ib_full[mine]
        if not len(ia):
            return None
        sh_col = sub["sh"].combine_chunks() if isinstance(sub["sh"], pa.ChunkedArray) else sub["sh"]
        hs = pc.list_flatten(sh_col).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(sh_col).to_numpy(zero_copy_only=False).astype(np.int64)
        of = np.concatenate([[0], np.cumsum(lens)])
        local_ids = sub[id_col].to_numpy(zero_copy_only=False)
        idx_pos = np.argsort(local_ids, kind="stable")
        idx_ids = local_ids[idx_pos]
        ra = idx_pos[np.searchsorted(idx_ids, ia)]
        rb = idx_pos[np.searchsorted(idx_ids, ib)]
        # Per-pair searchsorted loop, kept DELIBERATELY: a fully
        # batched alternative (gather both shingle sets per pair into
        # one (pair, hash)-lexsorted array and bincount adjacent
        # matches) was measured 36× SLOWER on the memory-bandwidth-
        # bound bench box (20k pairs × ~200 shingles: 0.23 s loop vs
        # 8.3 s lexsort) — the loop touches each pair's ~400 values
        # while they are cache-hot, the lexsort streams the whole 8M-
        # element gather through DRAM twice.  Python overhead is
        # ~10 µs/pair and the pair count is bounded by the LSH
        # candidate set, which is partition-local here.
        ja = np.empty(len(ia))
        for i in range(len(ia)):
            A = hs[of[ra[i]] : of[ra[i] + 1]]
            B = hs[of[rb[i]] : of[rb[i] + 1]]
            if len(A) > len(B):
                A, B = B, A
            pos = np.searchsorted(B, A)
            pos[pos == len(B)] = len(B) - 1
            inter = int(np.count_nonzero(B[pos] == A))
            union = len(A) + len(B) - inter
            ja[i] = 1.0 if union == 0 else inter / union
        return pa.table({"id_a": pa.array(ia), "id_b": pa.array(ib),
                         "jaccard": pa.array(np.round(ja, 6))})

    routed = ds.select_columns([id_col, text_col]).map_batches(
        prune_hash_route, batch_format="pyarrow"
    )
    verified_parts = _partitioned_exchange(routed, "part", verify_partition, num_partitions=P)
    if not verified_parts:
        return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    verified = pa.concat_tables(verified_parts)
    out = verified.filter(pc.greater_equal(verified["jaccard"], threshold))
    return out.take(pc.sort_indices(out, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")]))


def simhash_batch(batch: pa.Table, *, id_col="doc_id", text_col="text",
                  hasher=None) -> pa.Table:
    """64-bit SimHash over whitespace tokens, vectorized with bit-count
    accumulation via reduceat.

    ``hasher`` (strings → uint64 ndarray) defaults to the vectorized
    xxh64 — the scale path.  Passing
    :func:`..functions.hashing.md5_u64_strings` yields the
    SQL-expressible variant the `content_signatures` DuckDB oracle
    recomputes bit-for-bit."""
    hasher = hasher or xxh64_strings
    texts = batch[text_col].to_numpy(zero_copy_only=False)
    tok_hashes, counts = [], np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = (t if isinstance(t, str) else str(t)).split()
        counts[i] = max(1, len(toks))
        tok_hashes.append(hasher(toks) if toks else np.array([0], np.uint64))
    flat = np.concatenate(tok_hashes)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    bits = ((flat[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    bits = bits * 2 - 1  # ±1 weights
    sums = np.add.reduceat(bits, offsets, axis=0)
    sim = (sums > 0).astype(np.uint64)
    out = np.zeros(len(texts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(64):
            out |= sim[:, b] << np.uint64(b)
    return pa.table({id_col: batch[id_col], "simhash": pa.array(out, pa.uint64())})


# byte-popcount lookup (numpy<2 has no bitwise_count)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


def _hamming64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = (x ^ y).view(np.uint8).reshape(len(x), 8)
    return _POP8[v].sum(axis=1)


def embedding_dup_pairs(ds, *, id_col="vec_id", vec_col="embedding", threshold=0.95) -> pa.Table:
    """Embedding near-dup: EXACT cosine ≥ threshold pairs via a
    block-cross-join — each (block_i, block_j) tile is one Ray task
    doing a dense matmul over two normalized blocks.

    No full-matrix broadcast and no driver materialization: blocks stay
    in the object store (normalized once by a map_batches pass), the
    O(B²) tile tasks each move exactly two blocks, and only the tiny
    pair tables return.  Exact all-pairs is inherently O(N²) compute —
    at 10⁸+ vectors prefilter candidates with the LSH/IVF buckets in
    stages/similarity.py and verify only within buckets (approximate
    recall); this operator keeps the exact semantics the oracle
    checks."""
    import ray
    import pyarrow.compute as pc

    def normalize(batch: pa.Table) -> pa.Table:
        m = np.vstack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        return pa.table({
            id_col: batch[id_col],
            "nvec": pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), m.shape[1]),
        })

    from ..functions.agg import block_refs as _block_refs2

    refs = _block_refs2(
        ds.select_columns([id_col, vec_col]).map_batches(normalize, batch_format="pyarrow")
    )

    @ray.remote
    def tile(bi: pa.Table, bj: pa.Table) -> pa.Table:
        ids_i = bi[id_col].to_numpy(zero_copy_only=False)
        ids_j = bj[id_col].to_numpy(zero_copy_only=False)
        mi = np.vstack(bi["nvec"].to_numpy(zero_copy_only=False))
        mj = np.vstack(bj["nvec"].to_numpy(zero_copy_only=False))
        cos = mi @ mj.T
        ii, jj = np.nonzero(cos >= threshold)
        lo = np.minimum(ids_i[ii], ids_j[jj])
        hi = np.maximum(ids_i[ii], ids_j[jj])
        keep = lo < hi  # drops self-pairs; diagonal tiles emit each pair twice → dedup below
        return pa.table({
            "id_a": pa.array(lo[keep]),
            "id_b": pa.array(hi[keep]),
            "cosine": pa.array(np.round(cos[ii, jj][keep], 6)),
        })

    tasks = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            tasks.append(tile.remote(refs[i], refs[j]))
    parts = [t for t in ray.get(tasks) if t.num_rows]
    if not parts:
        return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    t = pa.concat_tables(parts)
    key = np.stack([t["id_a"].to_numpy(zero_copy_only=False),
                    t["id_b"].to_numpy(zero_copy_only=False)], axis=1)
    _, idx = np.unique(key, axis=0, return_index=True)
    out = t.take(pa.array(np.sort(idx)))
    return out.take(pc.sort_indices(out, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")]))


def semantic_dedup(ds, *, id_col="vec_id", vec_col="embedding",
                   centroid_mod: int = 37, threshold: float = 0.45,
                   num_partitions: int | None = None,
                   centroids: np.ndarray | None = None) -> pa.Table:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, arXiv
    2303.09540 — public literature): cluster embeddings, then mark as
    duplicates the docs that are near-identical in embedding space to
    an earlier doc of the same cluster.  Returns one row per vector:
    ``(vec_id, cluster, n_sim_earlier)`` where ``cluster`` is the id
    of the assigned centroid doc and ``n_sim_earlier`` counts
    same-cluster docs with smaller id at cosine ≥ ``threshold``
    (``> 0`` ⇒ semantic duplicate under first-id-wins).

    Two deliberate deviations from the paper, for determinism:

    - by default centroids are the docs with ``id % centroid_mod == 0``
      and assignment is ONE cosine-argmax pass (the k-means E-step with
      fixed seeds; ties broken toward the smallest centroid id).  Pass
      ``centroids`` (a (k, dim) matrix — e.g.
      ``similarity.kmeans_centroids``' Lloyd output) to
      run the paper's learned-centroid form instead: cluster ids become
      centroid indices 0..k-1, every other stage is unchanged
      (``test_semantic_dedup_with_kmeans_centroids``);
    - within a cluster the paper keeps the doc farthest from the
      centroid; here first-id-wins (matching ``exact_dedup``) so the
      result is partition- and order-independent.

    Scale shape: the centroid matrix is the SMALL side — normalized
    once, ``ray.put`` once, read by every assignment task (no
    per-batch reshipping); assignment is a per-batch float64 matmul;
    then ONE hash exchange on the cluster id co-locates each cluster
    and the within-cluster all-pairs matmul is O(c²) per cluster,
    which SemDeDup bounds by construction (clusters ≈ N/K docs)."""
    import ray
    import pyarrow.compute as pc

    from ..functions.agg import block_refs as _brefs

    def _norm_rows(batch: pa.Table) -> np.ndarray:
        m = np.vstack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        return m

    src = ds.select_columns([id_col, vec_col])

    if centroids is not None:
        cm = np.asarray(centroids, dtype=np.float64)
        cm = cm / np.maximum(np.linalg.norm(cm, axis=1, keepdims=True), 1e-12)
        cent_ids = np.arange(len(cm), dtype=np.int64)
        cent_ref = ray.put(cm)
    else:
        # centroid set: tiny by construction (every centroid_mod-th id)
        # — collected once, normalized, broadcast
        def centroid_rows(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % centroid_mod == 0))

        cent = pa.concat_tables(
            [t for t in ray.get(_brefs(src.map_batches(centroid_rows, batch_format="pyarrow")))
             if t.num_rows]
        )
        cent = cent.take(pc.sort_indices(cent, sort_keys=[(id_col, "ascending")]))
        cent_ids = cent[id_col].to_numpy(zero_copy_only=False).copy()
        cent_ref = ray.put(_norm_rows(cent))

    def assign(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        m = _norm_rows(batch)
        # argmax returns the FIRST max → smallest centroid id on ties
        # (cent is id-sorted), matching the oracle's (sim DESC, cid) rank
        cl = cent_ids[np.argmax(m @ cm.T, axis=1)]
        return pa.table({
            id_col: batch[id_col],
            "cluster": pa.array(cl, pa.int64()),
            "nvec": pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), m.shape[1]),
        })

    def per_cluster(sub: pa.Table) -> pa.Table:
        ids = sub[id_col].to_numpy(zero_copy_only=False)
        cls = sub["cluster"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cls))
        ids, cls = ids[order], cls[order]
        m = np.vstack(sub["nvec"].to_numpy(zero_copy_only=False))[order]
        starts = np.nonzero(np.concatenate([[True], cls[1:] != cls[:-1]]))[0]
        bounds = np.append(starts, len(cls))
        n_sim = np.zeros(len(ids), np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            cos = m[s:e] @ m[s:e].T
            hit = np.tril(cos >= threshold, k=-1)  # earlier id = lower row
            n_sim[s:e] = hit.sum(axis=1)
        return pa.table({id_col: pa.array(ids), "cluster": pa.array(cls, pa.int64()),
                         "n_sim_earlier": pa.array(n_sim)})

    parts = _partitioned_exchange(
        src.map_batches(assign, batch_format="pyarrow"), "cluster", per_cluster,
        num_partitions=num_partitions,
    )
    if not parts:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64()),
                         "n_sim_earlier": pa.array([], pa.int64())})
    out = pa.concat_tables(parts)
    return out.take(pc.sort_indices(out, sort_keys=[(id_col, "ascending")]))


# ---- near-dup clustering: connected components over the pair graph --------
#
# A 100-TB training-data pipeline doesn't stop at duplicate PAIRS — it
# needs duplicate FAMILIES (transitive closure) and one canonical
# survivor per family.  Components are computed with the alternating
# large-star / small-star edge-contraction algorithm (Kiveris et al.,
# "Connected Components in MapReduce and Beyond", SoCC'14 — public
# literature): every round is one hash-partitioned exchange over the
# edge list keyed on the grouping node, converging in O(log² n) rounds
# with NO per-node label table and no driver-side graph.  The same
# numpy kernel drives both the driver-local fast path (a pair table that
# fits _DRIVER_COMBINE_BYTES) and the distributed path (edge refs stay in
# the object store; the driver sees only a per-round set fingerprint
# scalar).

def _star_round(u: np.ndarray, v: np.ndarray, small: bool) -> tuple[np.ndarray, np.ndarray]:
    """One large-star (small=False) or small-star (small=True) round on
    int64 edge arrays grouped by ``u``.  Inputs must already be
    symmetrized (large) or oriented max→min (small).  Returns deduped
    (u', v') edges with no self-loops."""
    if not len(u):
        return u, v
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    starts = np.nonzero(np.concatenate([[True], u[1:] != u[:-1]]))[0]
    m = np.minimum(np.minimum.reduceat(v, starts), u[starts])  # min of Γ⁺(u)
    gidx = np.cumsum(np.concatenate([[True], u[1:] != u[:-1]])) - 1
    mg = m[gidx]
    if small:
        # connect every neighbor (and the center) to the group min
        eu = np.concatenate([v, u[starts]])
        ev = np.concatenate([mg, m])
    else:
        # connect strictly-greater neighbors to the group min
        sel = v > u
        eu, ev = v[sel], mg[sel]
    keep = eu != ev
    eu, ev = eu[keep], ev[keep]
    if not len(eu):
        return eu, ev
    key = np.stack([eu, ev], axis=1)
    uniq = np.unique(key, axis=0)
    return uniq[:, 0], uniq[:, 1]


def _edge_fingerprint(u: np.ndarray, v: np.ndarray) -> int:
    """Order-independent set fingerprint (sum of per-edge splitmix64
    mixes mod 2⁶⁴) — partition-independent, so distributed partials
    just add up."""
    if not len(u):
        return 0
    with np.errstate(over="ignore"):
        x = (u.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + v.view(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return int(np.sum(x, dtype=np.uint64))


def connected_components(pairs: pa.Table, *, id_a="id_a", id_b="id_b",
                         num_partitions: int = 32, max_rounds: int = 64) -> pa.Table:
    """(id_a, id_b) pair table → (doc_id, component) for every node in
    any pair, component = min doc_id of its connected component."""
    u0 = pairs[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
    v0 = pairs[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
    if not _fits(pairs.nbytes):
        star = _distributed_star_rounds(u0, v0, num_partitions, max_rounds)
    else:
        star = _local_star_rounds(u0, v0, max_rounds)
    su, sv = star
    # fixpoint edges are (member → root); roots map to themselves
    nodes = np.unique(np.concatenate([u0, v0]))
    comp = nodes.copy()
    pos = np.searchsorted(nodes, su)
    comp[pos] = sv
    return pa.table({"doc_id": pa.array(nodes), "component": pa.array(comp)})


def _local_star_rounds(u, v, max_rounds):
    prev_fp = None
    for _ in range(max_rounds):
        # large-star over symmetrized edges
        u, v = _star_round(np.concatenate([u, v]), np.concatenate([v, u]), small=False)
        # small-star over max→min oriented edges
        u, v = _star_round(np.maximum(u, v), np.minimum(u, v), small=True)
        fp = (_edge_fingerprint(u, v), len(u))
        if fp == prev_fp:
            break
        prev_fp = fp
    return u, v


def _distributed_star_rounds(u, v, P, max_rounds):
    """The same rounds with edges living as object-store refs: each
    round scatters oriented edges by group-node hash, every partition
    task runs the numpy kernel on its node-complete slice, and only a
    (fingerprint, count) scalar pair returns to the driver."""
    import ray

    _cc_stats = ray.remote(_cc_stats_fn)

    @ray.remote
    def seed_scatter(ut, vt, P, small):
        return _orient_and_split(ut, vt, P, small)

    @ray.remote
    def round_task(small: bool, P: int, *parts):
        """Gather one partition, run the kernel, pre-split the output
        for the NEXT round's orientation."""
        us = [p[0] for p in parts if p is not None and len(p[0])]
        vs = [p[1] for p in parts if p is not None and len(p[1])]
        if not us:
            return None
        eu, ev = _star_round(np.concatenate(us), np.concatenate(vs), small)
        return eu, ev, _edge_fingerprint(eu, ev), len(eu)

    @ray.remote
    def resplit(part, P, small):
        if part is None:
            return [None] * P if P > 1 else None
        return _orient_and_split(part[0], part[1], P, small)

    # chunk the seed edges so no single object is huge
    n = max(1, len(u))
    step = max(1, -(-n // P))
    chunks = [(u[i:i + step], v[i:i + step]) for i in range(0, n, step)]

    def run_round(split_refs, small):
        """split_refs: list over sources, each num_returns=P."""
        outs = [round_task.remote(small, P, *[split_refs[s][p] for s in range(len(split_refs))])
                for p in range(P)]
        return outs

    prev_fp = None
    cur = None  # list of per-partition (u, v) refs
    for rnd in range(max_rounds):
        if cur is None:
            splits = [seed_scatter.options(num_returns=P).remote(cu, cv, P, False)
                      for cu, cv in chunks]
        else:
            splits = [resplit.options(num_returns=P).remote(c, P, False) for c in cur]
        if P == 1:
            splits = [[s] for s in splits]
        large = run_round(splits, False)
        splits = [resplit.options(num_returns=P).remote(c, P, True) for c in large]
        if P == 1:
            splits = [[s] for s in splits]
        cur = run_round(splits, True)
        stats = ray.get([_cc_stats.remote(c) for c in cur])
        fp = (sum(s[0] for s in stats) & 0xFFFFFFFFFFFFFFFF, sum(s[1] for s in stats))
        if fp == prev_fp:
            break
        prev_fp = fp
    parts = ray.get(cur)
    us = [p[0] for p in parts if p is not None and len(p[0])]
    vs = [p[1] for p in parts if p is not None and len(p[1])]
    if not us:
        return np.array([], np.int64), np.array([], np.int64)
    # at the fingerprint fixpoint the edges form stars (member → root);
    # a member edge emitted by two partitions carries the SAME root, so
    # duplicate rows are harmless to the component assignment
    return np.concatenate(us), np.concatenate(vs)


def _orient_and_split(eu, ev, P, small):
    """Orient edges for the round (symmetrize for large-star, max→min
    for small-star) and split by group-node hash."""
    if small:
        gu, gv = np.maximum(eu, ev), np.minimum(eu, ev)
    else:
        gu, gv = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    part = gu.view(np.uint64) % np.uint64(P)
    out = tuple((gu[part == p], gv[part == p]) for p in range(P))
    return out if P > 1 else out[0]


def _cc_stats_fn(part):
    """round_task already computed (fingerprint, count) as elements 2,3."""
    return (0, 0) if part is None else (part[2], part[3])


def near_dup_clusters(ds, *, id_col="doc_id", text_col="text", threshold=0.5,
                      **minhash_kw) -> pa.Table:
    """MinHash pairs → transitive duplicate families → canonical pick.

    Returns (doc_id, component, keep) for every document that belongs
    to a near-dup cluster: ``component`` is the min doc_id of the
    family, ``keep`` marks the one canonical survivor per family — the
    row set a dedup pipeline would subtract from the corpus."""
    import pyarrow.compute as pc

    pairs = minhash_dedup_pairs(ds, id_col=id_col, text_col=text_col,
                                threshold=threshold, **minhash_kw)
    comp = connected_components(pairs)
    keep = pc.equal(comp["doc_id"], comp["component"])
    out = comp.append_column("keep", keep)
    return out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))


def duplicated_window_counts(ds, *, id_col="doc_id", text_col="text",
                             k: int = 64, stride: int = 16,
                             verify_exact: bool = True) -> pa.Table:
    """Exact-substring duplicate detection, windowed (the scalable
    approximation of Lee et al. 2022 "Deduplicating Training Data…"
    suffix-array substring dedup): every document emits its stride-``s``
    ``k``-char windows; a window whose exact content appears in ≥ 2
    distinct documents is a cross-document duplicate.  → per-doc table
    (doc_id, n_win, n_dup_win) over documents with ≥ 1 window
    (len(text) ≥ k).

    Scale shape: window rows hash-partition on xxh64(window) — identical
    content lands in one partition, so duplicate detection and the
    per-doc partial counts are partition-local; each partition emits
    one (doc, n_win, n_dup) row per doc it saw.  :func:`_combine` sums
    partials that fit the budget on the driver; larger ones chain
    through a SECOND key exchange on doc_id (``_scatter_exchange`` over
    the partition refs — the per-doc rows never land on the driver),
    the same rule ``exact_dedup`` follows.  ``verify_exact=True`` groups by the window STRING
    inside each partition (hash only routes); False trusts the 64-bit
    hash and never ships window bytes — the documented trade-off for
    the 100-TB path.  Alignment caveat: substrings shared at offsets
    that differ mod ``stride`` produce different windows; stride 1
    recovers full sensitivity at k× the rows, exactly as in the paper's
    suffix-array formulation."""
    import pyarrow.compute as pc

    def emit_windows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        wins: list[str] = []
        who: list = []
        for i, t in enumerate(texts):
            if t is None or len(t) < k:
                continue
            for p in range(0, len(t) - k + 1, stride):
                wins.append(t[p : p + k])
                who.append(ids[i])
        if not wins:
            return pa.table({"win_key": pa.array([], pa.int64()),
                             "win": pa.array([], pa.string()),
                             id_col: pa.array([], batch[id_col].type)})
        keys = xxh64_strings(wins).view(np.int64)
        cols = {"win_key": pa.array(keys, pa.int64()),
                id_col: pa.array(who, batch[id_col].type)}
        if verify_exact:
            cols["win"] = pa.array(wins, pa.string())
        return pa.table(cols)

    group_col = "win" if verify_exact else "win_key"

    def dup_partial(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(group_col, use_threads=False).aggregate(
            [(id_col, "count_distinct")]
        )
        dup_keys = g.filter(
            pc.greater_equal(g[f"{id_col}_count_distinct"], 2))[group_col]
        marked = pc.is_in(tbl[group_col], value_set=dup_keys.combine_chunks())
        t2 = tbl.append_column("dup", pc.cast(marked, pa.int64()))
        out = t2.group_by(id_col, use_threads=False).aggregate(
            [([], "count_all"), ("dup", "sum")]
        )
        return out.rename_columns([id_col, "n_win", "n_dup_win"])

    def doc_combine(tbl: pa.Table) -> pa.Table:
        out = tbl.group_by(id_col, use_threads=False).aggregate(
            [("n_win", "sum"), ("n_dup_win", "sum")]
        )
        return out.rename_columns([id_col, "n_win", "n_dup_win"])

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "n_win": pa.array([], pa.int64()),
                      "n_dup_win": pa.array([], pa.int64())})
    rows = ds.map_batches(emit_windows, batch_format="pyarrow")
    part_refs = _partitioned_exchange(rows, "win_key", dup_partial, return_refs=True)
    # per-doc partials move once more, keyed on doc_id, when they do not
    # fit the budget — every doc's rows land in one partition, so the
    # per-partition group_by IS the exact global sum
    out = _combine(part_refs, _ref_bytes(part_refs), id_col, doc_combine)
    if not out:
        return empty
    merged = pa.concat_tables(out)
    return merged.take(pc.sort_indices(merged, sort_keys=[(id_col, "ascending")]))


def _poly_avalanche(h: np.ndarray) -> np.ndarray:
    """xorshift-multiply finalizer shared by the vectorized and scalar
    window-hash paths (same mix as _shingle_hashes)."""
    with np.errstate(over="ignore"):
        h = h.copy()
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
    return h


def _poly64_bytes(bs: bytes) -> int:
    """Scalar FNV-style degree-|bs| polynomial + avalanche over raw
    bytes — the non-ASCII fallback twin of the vectorized window hash
    (equal byte strings always hash equal across both paths)."""
    h = 0
    for c in bs:
        h = (h * 0x100000001B3 + c) & 0xFFFFFFFFFFFFFFFF
    return int(_poly_avalanche(np.array([h], dtype=np.uint64))[0])


def dedup_cut(ds, *, id_col="doc_id", text_col="text", k: int = 64) -> pa.Table:
    """Exact duplicate-substring REMOVAL (the cut step of Lee et al.
    2022 "Deduplicating Training Data Makes Language Models Better",
    ExactSubstr): every stride-1 ``k``-char window whose exact content
    occurs ≥ 2 times corpus-wide is removed at every occurrence except
    the global first (lexicographic min ``(doc_id, pos)``); overlapping
    removal intervals merge before the cut.  → (doc_id, n_cut, cleaned)
    for EVERY input document (untouched docs carry n_cut=0).

    Scale shape — four hash exchanges, none of which ships the O(k·N)
    window-string blow-up (64 B/char at k=64; a 100-TB corpus would
    emit 6.4 PB of window strings under the naive plan):

    A. per-batch VECTORIZED window hashing (one polynomial sweep over
       the byte buffer for ASCII docs — no Python string slicing; a
       scalar per-window fallback for non-ASCII docs, same byte-level
       hash so equal windows always collide) → exchange int rows
       (win_key, doc_id, pos) ≈ 24 B/char; partition-local hash counts
       keep only positions whose hash occurs ≥ 2× (candidates —
       measured 9 % of windows on the test corpus; collisions are
       false positives filtered in C).
    B. candidates scatter on doc_id alongside the document texts
       (tagged union rows, pos = -1 marks text) and materialize ONLY
       the candidate window strings.
    C. candidate strings exchange on win_key; partition-local EXACT
       grouping on the window string (three Arrow group-bys: global
       count, min doc, min pos at min doc — no (doc,pos) packing, so
       63-bit ids stay legal) emits removal rows for non-first true
       duplicates.
    D. removals scatter on doc_id with the texts again; per-doc
       interval union + string surgery.

    Corpus bytes move twice (B, D); window traffic is ints plus the
    duplicated minority as strings.  Unlike
    :func:`duplicated_window_counts` (stride-16 counting
    approximation) this is the paper's exact stride-1 semantics,
    applied as a rewrite."""
    import pyarrow.compute as pc
    import ray

    P_MUL = np.uint64(0x100000001B3)
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "n_cut": pa.array([], pa.int64()),
                      "cleaned": pa.array([], pa.string())})

    def emit_keys(batch: pa.Table) -> pa.Table:
        """Phase A map: (win_key, doc_id, pos) int rows, no strings."""
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        is_ascii = pc.string_is_ascii(batch[text_col]).to_numpy(zero_copy_only=False)
        keys_out: list[np.ndarray] = []
        doc_out: list[np.ndarray] = []
        pos_out: list[np.ndarray] = []
        # vectorized path: concat ASCII texts (byte == code point) and
        # evaluate the degree-k polynomial over every window at once
        a_idx = [i for i in range(len(texts))
                 if is_ascii[i] and texts[i] is not None and len(texts[i]) >= k]
        if a_idx:
            enc = [texts[i].encode("ascii") for i in a_idx]
            lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=len(enc))
            buf = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.uint64)
            starts = np.concatenate([[0], np.cumsum(lens)])
            with np.errstate(over="ignore"):
                H = np.zeros(len(buf) - k + 1, dtype=np.uint64)
                for j in range(k):
                    H = H * P_MUL + buf[j : len(buf) - k + 1 + j]
            H = _poly_avalanche(H)
            for row, i in enumerate(a_idx):
                n_w = lens[row] - k + 1
                keys_out.append(H[starts[row] : starts[row] + n_w])
                doc_out.append(np.full(n_w, ids[i], dtype=np.int64))
                pos_out.append(np.arange(n_w, dtype=np.int64))
        for i in range(len(texts)):
            t = texts[i]
            if is_ascii[i] or t is None or len(t) < k:
                continue
            n_w = len(t) - k + 1
            keys_out.append(np.fromiter(
                (_poly64_bytes(t[p : p + k].encode("utf-8")) for p in range(n_w)),
                dtype=np.uint64, count=n_w))
            doc_out.append(np.full(n_w, ids[i], dtype=np.int64))
            pos_out.append(np.arange(n_w, dtype=np.int64))
        if not keys_out:
            return pa.table({"win_key": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "payload": pa.array([], pa.string())})
        keys = np.concatenate(keys_out).view(np.int64)
        n = len(keys)
        return pa.table({
            "win_key": pa.array(keys, pa.int64()),
            id_col: pa.array(np.concatenate(doc_out), pa.int64()),
            "pos": pa.array(np.concatenate(pos_out), pa.int64()),
            "payload": pa.nulls(n, pa.string()).fill_null(""),
        })

    def to_text_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "win_key": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            id_col: batch[id_col],
            "pos": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
            "payload": batch[text_col],
        })

    def hash_candidates(tbl: pa.Table) -> pa.Table:
        """Phase A reduce (keyed win_key): keep positions whose hash
        occurs ≥ 2× anywhere (superset of true duplicates)."""
        import pyarrow.compute as pc

        g = tbl.group_by("win_key", use_threads=False).aggregate([([], "count_all")])
        cnt = pc.take(g["count_all"],
                      pc.index_in(tbl["win_key"], value_set=g["win_key"].combine_chunks()))
        return tbl.filter(pc.greater_equal(cnt, 2))

    def build_strings(tbl: pa.Table) -> pa.Table:
        """Phase B (keyed doc_id): materialize candidate window strings
        from the co-partitioned texts."""
        import pyarrow.compute as pc

        is_text = pc.equal(tbl["pos"], -1)
        texts = tbl.filter(is_text)
        cands = tbl.filter(pc.invert(is_text))
        if not cands.num_rows:
            return None
        tid = texts[id_col].to_numpy(zero_copy_only=False)
        tbody = texts["payload"].to_numpy(zero_copy_only=False)
        order = np.argsort(tid, kind="stable")
        tid, tbody = tid[order], tbody[order]
        cid = cands[id_col].to_numpy(zero_copy_only=False)
        cpos = cands["pos"].to_numpy(zero_copy_only=False)
        row = np.searchsorted(tid, cid)
        wins = [tbody[r][p : p + k] for r, p in zip(row, cpos)]
        return pa.table({
            "win_key": cands["win_key"],
            id_col: cands[id_col],
            "pos": cands["pos"],
            "payload": pa.array(wins, pa.string()),
        })

    def mark(tbl: pa.Table) -> pa.Table:
        """Phase C (keyed win_key): EXACT grouping on the window string
        → removal rows for non-first true duplicates."""
        import pyarrow.compute as pc

        w = tbl
        g = w.group_by("payload", use_threads=False).aggregate([([], "count_all")])
        row_g = pc.index_in(w["payload"], value_set=g["payload"].combine_chunks())
        cnt = pc.take(g["count_all"], row_g)
        gd = w.group_by("payload", use_threads=False).aggregate([(id_col, "min")])
        dmin = pc.take(gd[f"{id_col}_min"],
                       pc.index_in(w["payload"], value_set=gd["payload"].combine_chunks()))
        at_dmin = w.filter(pc.equal(w[id_col], dmin))
        gp = at_dmin.group_by("payload", use_threads=False).aggregate([("pos", "min")])
        pmin = pc.take(gp["pos_min"],
                       pc.index_in(w["payload"], value_set=gp["payload"].combine_chunks()))
        first = pc.and_(pc.equal(w[id_col], dmin), pc.equal(w["pos"], pmin))
        rem = w.filter(pc.and_(pc.greater_equal(cnt, 2), pc.invert(first)))
        return pa.table({
            "win_key": rem["win_key"],
            id_col: rem[id_col],
            "pos": rem["pos"],
            "payload": pa.nulls(rem.num_rows, pa.string()).fill_null(""),
        })

    def cut(tbl: pa.Table) -> pa.Table:
        """Phase D (keyed doc_id): merge each doc's removal intervals
        and rewrite its text."""
        import pyarrow.compute as pc

        is_text = pc.equal(tbl["pos"], -1)
        texts = tbl.filter(is_text)
        rems = tbl.filter(pc.invert(is_text))
        ids = texts[id_col].to_numpy(zero_copy_only=False)
        bodies = texts["payload"].to_numpy(zero_copy_only=False)
        rid = rems[id_col].to_numpy(zero_copy_only=False)
        rpos = rems["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rpos, rid))
        rid, rpos = rid[order], rpos[order]
        starts = np.searchsorted(rid, ids, side="left")
        ends = np.searchsorted(rid, ids, side="right")
        out_clean = np.empty(len(ids), dtype=object)
        out_cut = np.zeros(len(ids), dtype=np.int64)
        for i in range(len(ids)):
            s, e = starts[i], ends[i]
            t = bodies[i]
            if s == e:
                out_clean[i] = t
                continue
            kept, cur = [], 0
            for p in rpos[s:e]:
                p = int(p)
                if p > cur:
                    kept.append(t[cur:p])
                    cur = p + k
                else:
                    cur = max(cur, p + k)
            kept.append(t[cur:])
            cleaned = "".join(kept)
            out_clean[i] = cleaned
            out_cut[i] = len(t) - len(cleaned)
        return pa.table({
            id_col: texts[id_col],
            "n_cut": pa.array(out_cut, pa.int64()),
            "cleaned": pa.array(out_clean, pa.string()),
        })

    key_rows = ds.map_batches(emit_keys, batch_format="pyarrow")
    cand_refs = _partitioned_exchange(key_rows, "win_key", hash_candidates,
                                      return_refs=True)
    if not cand_refs:
        return empty
    cand_bytes = _ref_bytes(cand_refs)
    if _fits(cand_bytes):
        # broadcast path (the same size rule as _partitioned_exchange):
        # the candidate and removal sets are INT rows — 9 % of windows
        # × 24 B on the test corpus — so within the budget they ride a
        # ray.put broadcast and the texts never move; each map_batches
        # task slices only its own docs' windows
        parts = [t for t in ray.get(list(cand_refs)) if t is not None and t.num_rows]
        if not parts:
            return _passthrough(ds, id_col, text_col)
        cands = pa.concat_tables(parts)
        cands = cands.take(pc.sort_indices(cands, sort_keys=[(id_col, "ascending")]))
        cand_ref = ray.put(cands)

        def bcast_strings(batch: pa.Table) -> pa.Table:
            joined = _tag_union(ray.get(cand_ref), batch, id_col, text_col)
            out = build_strings(joined)
            return out if out is not None else pa.table(
                {"win_key": pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64()),
                 "pos": pa.array([], pa.int64()),
                 "payload": pa.array([], pa.string())})

        str_ds = ds.map_batches(bcast_strings, batch_format="pyarrow")
        rem_parts = _partitioned_exchange(str_ds, "win_key", mark)
        rems = (pa.concat_tables(rem_parts) if rem_parts else None)
        if rems is None or not rems.num_rows:
            return _passthrough(ds, id_col, text_col)
        rems = rems.take(pc.sort_indices(rems, sort_keys=[(id_col, "ascending")]))
        rem_ref = ray.put(rems)

        def bcast_cut(batch: pa.Table) -> pa.Table:
            return cut(_tag_union(ray.get(rem_ref), batch, id_col, text_col))

        out_parts = [
            t for b in ds.map_batches(bcast_cut, batch_format="pyarrow")
                        .iter_internal_ref_bundles()
            for t in ray.get(list(b.block_refs))
        ]
        merged = pa.concat_tables([t for t in out_parts if t is not None and t.num_rows])
    else:
        # 100-TB path: candidates / removals scatter on doc_id together
        # with the texts (tagged union rows) — every row moves once,
        # nothing lands on the driver
        text_refs, _ = _refs_and_bytes(ds.map_batches(to_text_rows, batch_format="pyarrow"))
        if not text_refs:
            return empty
        P = _scatter_partitions(cand_bytes)
        str_refs = _scatter_exchange([(list(cand_refs) + text_refs, id_col)],
                                     build_strings, P, return_refs=True)
        rem_refs = _scatter_exchange([(str_refs, "win_key")], mark, P, return_refs=True)
        out = _scatter_exchange([(list(rem_refs) + text_refs, id_col)], cut, P)
        merged = pa.concat_tables([t for t in out if t is not None and t.num_rows])
    if not merged.num_rows:
        return empty
    return merged.take(pc.sort_indices(merged, sort_keys=[(id_col, "ascending")]))


def _tag_union(int_rows: pa.Table, batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Union a broadcast (win_key, id, pos, payload) int-row table
    (filtered to this batch's doc ids) with the batch's text rows
    (pos = -1) — the broadcast-path equivalent of the scatter join.
    ``int_rows`` arrives SORTED by id (dedup_cut sorts before ray.put)
    so the per-batch selection is searchsorted range slicing, not a
    full-table membership scan per batch."""
    rows_id = int_rows[id_col].to_numpy(zero_copy_only=False)
    bids = batch[id_col].to_numpy(zero_copy_only=False)
    lo = np.searchsorted(rows_id, bids, side="left")
    hi = np.searchsorted(rows_id, bids, side="right")
    take = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]) if len(bids) \
        else np.empty(0, np.int64)
    sub = int_rows.take(pa.array(take, pa.int64()))
    texts = pa.table({
        "win_key": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
        id_col: batch[id_col],
        "pos": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
        "payload": batch[text_col],
    })
    return pa.concat_tables([texts, sub])


def _passthrough(ds, id_col: str, text_col: str) -> pa.Table:
    """No duplicated windows anywhere: every doc passes through."""
    import pyarrow.compute as pc
    import ray

    def ident(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch[id_col],
            "n_cut": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            "cleaned": batch[text_col],
        })

    parts = [
        t for b in ds.map_batches(ident, batch_format="pyarrow")
                    .iter_internal_ref_bundles()
        for t in ray.get(list(b.block_refs))
    ]
    merged = pa.concat_tables([t for t in parts if t is not None and t.num_rows])
    return merged.take(pc.sort_indices(merged, sort_keys=[(id_col, "ascending")]))
