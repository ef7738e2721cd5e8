"""Corpus curation run — the full make-training-data composition over
any (id, group, text) document Dataset (a crawl's assembled pages, the
``documents`` table, an ingest increment), built entirely from this
engine's operators:

    annotate+filter   (langid / quality ratios / zlib compression —
                       one fused map_batches, thresholds are knobs)
      → exact dedup   (ONE content-hash exchange; min-id survivor per
                       identical text, rows move once and STAY
                       distributed as object-store refs)
      → near dedup    (MinHash-LSH banded exchange → verified pairs →
                       drop the larger id; churn-sized drop set)
      → decontaminate (benchmark n-gram semi-join — broadcast below
                       the shard threshold, sharded exchange above)
      → shard write   (seeded deterministic shuffle, resumable
                       per-shard parquet, skip-existing)

The driver only ever sees stage COUNTS and the shard manifest; full
rows move through object-store exchanges and land in the shard files
written by the partition tasks themselves.  Gates drop by broadcast
sorted uint64 key arrays (8 B per dropped doc — churn-sized), never
Python sets.

Reference scope: the reference crawler ends at exports
(`/root/reference/src/export/`); this composition is the SURVEY §2.11
training-data extension family end to end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import xxh64_strings


def _drop_by_keys(ds, drop_keys: np.ndarray, key_col: str):
    """Filter out rows whose uint64 key is in the sorted drop array —
    broadcast once, searchsorted per batch."""
    import ray

    if not len(drop_keys):
        return ds
    ref = ray.put(np.sort(drop_keys.astype(np.uint64)))

    def fn(batch: pa.Table) -> pa.Table:
        dk = ray.get(ref)
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.minimum(np.searchsorted(dk, k), len(dk) - 1)
        return batch.filter(pa.array(dk[pos] != k))

    return ds.map_batches(fn, batch_format="pyarrow")


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

    from ..stages.dedup import (
        _auto_partitions,
        _partitioned_exchange,
        minhash_dedup_pairs,
    )
    from ..stages.sampling import benchmark_shingles, decontaminate, epoch_shuffle_write
    from ..stages.textstats import compression_ratio, quality_scores, token_counts

    # -- stage 1: annotate + filter (one fused pass) ---------------------
    def gate(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
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
        return batch.filter(pa.array(keep))

    filtered = docs_ds.map_batches(gate, batch_format="pyarrow").materialize()
    n_filtered = filtered.count()
    if n_filtered == 0:
        return {"input": int(docs_ds.count()), "after_quality_filter": 0,
                "after_exact_dedup": 0, "near_dups_dropped": 0,
                "contaminated_dropped": 0, "final": 0, "shards": []}

    # -- stage 2: exact dedup, rows move once and stay distributed -------
    def add_chash(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__chash", pa.array(xxh64_strings(batch[text_col]), pa.uint64()))

    def keep_min_per_hash(t: pa.Table) -> pa.Table:
        h = t["__chash"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        _, first = np.unique(h[order], return_index=True)
        return t.take(pa.array(order[first])).drop_columns(["__chash"])

    P = num_partitions if num_partitions is not None else _auto_partitions(n_filtered)
    exact_refs = _partitioned_exchange(
        filtered.map_batches(add_chash, batch_format="pyarrow"),
        "__chash", keep_min_per_hash, num_partitions=P, return_refs=True)

    # an empty exchange partition resolves to None — swap in an empty
    # table of the right schema so from_arrow_refs streams cleanly
    empty_schema = filtered.schema().base_schema

    @ray.remote
    def _or_empty(t):
        return t if t is not None else empty_schema.empty_table()

    deduped = rd.from_arrow_refs(
        [_or_empty.remote(r) for r in exact_refs]).materialize()
    n_exact = deduped.count()

    # -- stage 3: near-dup pairs → drop the larger id ---------------------
    pairs = minhash_dedup_pairs(deduped, id_col=id_col, text_col=text_col,
                                threshold=dup_threshold)
    ia = pairs["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ib = pairs["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    near_drop = np.unique(np.maximum(ia, ib))
    nearless = _drop_by_keys(deduped, near_drop, id_col)

    # -- stage 4: decontamination ----------------------------------------
    bench_renamed = (bench_ds if text_col == "text" else bench_ds.map_batches(
        lambda b: b.rename_columns(
            ["text" if c == text_col else c for c in b.column_names]),
        batch_format="pyarrow"))
    bh = benchmark_shingles(bench_renamed, n=decontam_n)
    contam = decontaminate(nearless.map_batches(
        lambda b: pa.table({"doc_id": b[id_col].cast(pa.int64()),
                            "text": b[text_col]}),
        batch_format="pyarrow"), bh, n=decontam_n)
    contam_blocks = [b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                     for b in contam.iter_batches(batch_format="pyarrow")
                     if b.num_rows]
    contam_ids = (np.concatenate(contam_blocks) if contam_blocks
                  else np.array([], np.uint64))
    clean = _drop_by_keys(nearless, contam_ids, id_col).materialize()
    n_clean = clean.count()

    # -- stage 5: deterministic shuffle + resumable shard sink -----------
    shards = epoch_shuffle_write(
        clean, out_dir, num_shards=num_shards, seed=seed, key_col=id_col)
    return {
        "input": int(docs_ds.count()),
        "after_quality_filter": int(n_filtered),
        "after_exact_dedup": int(n_exact),
        "near_dups_dropped": int(len(near_drop)),
        "contaminated_dropped": int(len(contam_ids)),
        "final": int(n_clean),
        "shards": shards.to_pylist(),
    }
