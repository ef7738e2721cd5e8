"""Corpus curation run — the full make-training-data composition over
any (id, group, text) document Dataset (a crawl's assembled pages, the
``documents`` table, an ingest increment), built entirely from this
engine's operators, one Ray Data execution per pass over the rows:

    annotate+filter   (langid / quality ratios / zlib compression and
                       the content hash — one fused map_batches,
                       thresholds are knobs)
      → exact dedup   (ONE content-hash exchange over the gate's blocks;
                       min-id survivor per identical text, rows move
                       once and STAY distributed as object-store refs)
      → near dedup    (MinHash-LSH banded exchange → verified pairs →
                       drop the larger id; churn-sized drop set)
      → decontaminate (benchmark n-gram hashes collected once, in a
                       second thread beside the passes above; the
                       per-batch semi-join runs inside the shard-write
                       pass below the broadcast threshold, as a sharded
                       exchange before it above)
      → shard write   (one pass drops the near-dup and contaminated
                       docs and keys the rows for the seeded
                       deterministic shuffle; resumable per-shard
                       parquet, skip-existing)

The driver only ever sees stage COUNTS and the shard manifest; full
rows move through object-store exchanges and land in the shard files
written by the partition tasks themselves.  Gates drop by broadcast
sorted key arrays (8 B per dropped doc — churn-sized), never Python
sets.

Reference scope: the reference crawler ends at exports
(`/root/reference/src/export/`); this composition is the SURVEY §2.11
training-data extension family end to end.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import in_sorted, xxh64_strings


def curation_run(docs_ds, bench_ds, out_dir: str, *,
                 id_col: str = "doc_id", group_col: str = "source",
                 text_col: str = "text",
                 min_tokens: int = 8, max_zlib_ratio: float = 0.95,
                 min_zlib_ratio: float = 0.05, min_zlib_len: int = 256,
                 dup_threshold: float = 0.8, decontam_n: int = 3,
                 num_shards: int = 8, seed: int = 0,
                 num_partitions: int | None = None) -> dict:
    """One curation run; returns the stage-count manifest.

    ``docs_ds`` needs (id_col int, group_col str, text_col str);
    ``bench_ds`` is the eval/benchmark document set to decontaminate
    against (same text_col).  Shards land under
    ``out_dir/shard=NNNNN/`` (resumable, skip-existing)."""
    import ray
    import ray.data as rd

    from ..stages import sampling
    from ..stages.dedup import (
        _auto_partitions,
        _partitioned_exchange,
        minhash_dedup_pairs,
    )
    from ..stages.textstats import compression_ratio, quality_scores, token_counts

    # -- pass 1: annotate + filter + content hash ------------------------
    def gate(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("__chash", pa.array([], pa.uint64()))
        shim = pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "text": batch[text_col]})
        toks = token_counts(shim)["n_tokens"].to_numpy(zero_copy_only=False)
        q = quality_scores(shim)
        zr = compression_ratio(shim)["zlib_ratio"].to_numpy(zero_copy_only=False)
        # the compression gate only judges docs long enough for the
        # ratio to mean anything — zlib header overhead pushes tiny
        # docs past any threshold (ratios > 1.0 observed at <100 B)
        nbytes = pc.binary_length(shim["text"]).to_numpy(zero_copy_only=False)
        zr_ok = ((zr <= max_zlib_ratio) & (zr >= min_zlib_ratio)) | (nbytes < min_zlib_len)
        keep = ((toks >= min_tokens) & zr_ok
                # degenerate-token guard (binary blobs / minified blobs
                # masquerading as text read as very long avg tokens)
                & (q["avg_tok_len"].to_numpy(zero_copy_only=False) <= 40.0))
        kept = batch.filter(pa.array(keep))
        return kept.append_column(
            "__chash", pa.array(xxh64_strings(kept[text_col]), pa.uint64()))

    # the benchmark hashes take an execution of their own over bench_ds:
    # it runs in a second thread beside passes 1-3 (whose executions
    # mostly wait on their tasks), and the last pass waits for it
    pool = ThreadPoolExecutor(1)
    bench_hashes = pool.submit(sampling.benchmark_shingles, bench_ds, n=decontam_n,
                               text_col=text_col)
    pool.shutdown(wait=False)

    filtered = docs_ds.map_batches(gate, batch_format="pyarrow").materialize()
    n_filtered = filtered.count()
    if n_filtered == 0:
        return {"input": int(docs_ds.count()), "after_quality_filter": 0,
                "after_exact_dedup": 0, "near_dups_dropped": 0,
                "contaminated_dropped": 0, "final": 0, "shards": []}

    # -- exact dedup: one exchange, rows move once and stay distributed --
    def keep_min_per_hash(t: pa.Table) -> pa.Table:
        h = t["__chash"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        _, first = np.unique(h[order], return_index=True)
        return t.take(pa.array(order[first])).drop_columns(["__chash"])

    P = num_partitions if num_partitions is not None else _auto_partitions(n_filtered)
    exact_refs = _partitioned_exchange(
        filtered, "__chash", keep_min_per_hash, num_partitions=P, return_refs=True)

    # an empty exchange partition resolves to None — swap in an empty
    # table of the right schema so from_arrow_refs streams cleanly
    schema = filtered.schema().base_schema
    empty_schema = schema.remove(schema.get_field_index("__chash"))

    @ray.remote
    def _or_empty(t):
        return t if t is not None else empty_schema.empty_table()

    deduped = rd.from_arrow_refs(
        [_or_empty.remote(r) for r in exact_refs]).materialize()
    n_exact = deduped.count()

    # -- passes 2-3: MinHash-LSH near-dup pairs → drop the larger id ----
    pairs = minhash_dedup_pairs(deduped, id_col=id_col, text_col=text_col,
                                threshold=dup_threshold)
    # a pair's id_a < id_b in the id column's own order, by construction
    near_drop = np.unique(pairs["id_b"].to_numpy(zero_copy_only=False).astype(np.int64))

    # -- benchmark n-gram hashes (the small side) ------------------------
    bh = bench_hashes.result()
    drop = near_drop
    if len(bh) > sampling._BENCH_BROADCAST_MAX_HASHES:
        # too many to broadcast: the sharded semi-join finds the
        # contaminated ids first, and the last pass drops them by id
        nearless = deduped.map_batches(
            _cleaner(near_drop, bh[:0], decontam_n, text_col, id_col),
            batch_format="pyarrow")
        contam = sampling.sharded_bench_hits(nearless, bh, decontam_n, text_col, id_col)
        drop = np.union1d(near_drop, contam["doc_id"].to_numpy(zero_copy_only=False))
        bh = bh[:0]

    # -- last pass: drop near-dups + contaminated docs, shuffle, write ---
    # lazy: it fuses with epoch_shuffle_write's keying map into one pass
    clean = deduped.map_batches(_cleaner(drop, bh, decontam_n, text_col, id_col),
                                batch_format="pyarrow")
    shards = sampling.epoch_shuffle_write(
        clean, out_dir, num_shards=num_shards, seed=seed, key_col=id_col)
    n_clean = int(pc.sum(shards["rows"]).as_py() or 0)
    return {
        "input": int(docs_ds.count()),
        "after_quality_filter": int(n_filtered),
        "after_exact_dedup": int(n_exact),
        "near_dups_dropped": int(len(near_drop)),
        "contaminated_dropped": int(n_exact - len(near_drop) - n_clean),
        "final": n_clean,
        "shards": shards.to_pylist(),
    }


def _cleaner(drop_ids: np.ndarray, bench_hashes: np.ndarray, n: int,
             text_col: str, id_col: str):
    """The last pass's per-batch filter: drop the rows whose id is in
    the sorted int64 ``drop_ids`` and the docs sharing a word-``n``-gram
    with the sorted ``bench_hashes`` (the broadcast decontamination
    kernel).  Both arrays are broadcast once through the object store."""
    import ray

    from ..stages.sampling import bench_hits

    drop_ref, bh_ref = ray.put(drop_ids), ray.put(bench_hashes)

    def clean(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        gone = in_sorted(ray.get(drop_ref), ids)
        bh = ray.get(bh_ref)
        if len(bh):
            gone |= np.isin(ids, bench_hits(batch, bh, n, text_col, id_col)["doc_id"])
        return batch.filter(pa.array(~gone))

    return clean
