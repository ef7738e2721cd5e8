"""Corpus-curation query surfaces over the ``documents`` table.

Thin oracle-parity wrappers around ``stages/sampling.py`` — the
deterministic hash sampler, per-group quota, exact n-gram top-k and
context-window chunker a training-data pipeline runs before
tokenization.  Each wrapper fixes the parameters the DuckDB oracle in
``__ray_entry__.oracle_sql`` mirrors and returns a deterministically
ordered Arrow table.

Reference scope note: the reference engine (janreges/siteone-crawler)
has no corpus-curation surface; these extend the engine per SURVEY.md
§2.11 (LLM-data additions).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.sampling import cap_per_group, chunk_documents, hash_sample, ngram_topk
from .relational import _collect, _read


def corpus_sample(sf_dir: str, rate_pct: int = 37, k: int = 7) -> pa.Table:
    """The three row-selection curation operators in one pipeline, with
    a ``method`` discriminator column:

    * ``quota``   — global hash-sample (keep iff ``(doc_id * 2654435761)
      mod 2^32 mod 100 < rate_pct``) → at most ``k`` surviving docs per
      source (ordered by doc_id);
    * ``mixture`` — domain-mixture sampling (stages/sampling.py::
      mixture_sample): per-source keep-rate ``(7*i + 10) mod 90`` for
      ``src{i}``, salt 1009 to decorrelate from the global sample.

    All stages are streaming filters over blocks; only the ≤k-per-group
    quota partials leave their block (see cap_per_group's scale plan)."""
    from ..stages.sampling import mixture_sample

    docs = lambda: _read(sf_dir, "documents", ["source", "doc_id"])  # noqa: E731
    ds = hash_sample(docs(), key_col="doc_id", rate_pct=rate_pct)
    quota = cap_per_group(ds, "source", "doc_id", k).select(["source", "doc_id"])
    # deterministic per-source rates keyed on the source index so the
    # dict needs no corpus scan at any scale factor
    rates = {f"src{i}": (7 * i + 10) % 90 for i in range(1024)}
    mix = _collect(mixture_sample(docs(), rates, salt=1009)).select(
        ["source", "doc_id"])
    # weighted sampling without replacement: 50 docs with inclusion
    # probability ∝ n_chars (Efraimidis–Spirakis keys, salt 77)
    from ..stages.sampling import weighted_sample

    wdocs = _read(sf_dir, "documents", ["source", "doc_id", "n_chars"])
    wtd = weighted_sample(wdocs, 50, "n_chars", salt=77).select(
        ["source", "doc_id"])
    quota = quota.append_column("method", pa.array(["quota"] * quota.num_rows))
    mix = mix.append_column("method", pa.array(["mixture"] * mix.num_rows))
    wtd = wtd.append_column("method", pa.array(["weighted"] * wtd.num_rows))
    dsir = dsir_select(sf_dir)
    dsir = dsir.append_column("method", pa.array(["dsir"] * dsir.num_rows))
    return pa.concat_tables([quota, mix, wtd, dsir])


def dsir_select(sf_dir: str, n_select: int = 50, target_mod: int = 5) -> pa.Table:
    """DSIR-shape importance resampling (Xie et al. 2023): train two
    bounded unigram models — target = the ``doc_id % target_mod == 0``
    split (stand-in for a curated target domain), raw = the whole
    corpus — then select the ``n_select`` docs with the highest
    bag-of-words log-ratio weight ``Σ_tok (log p_t − log p_r)``.

    Scale shape: both models come from the exact n-gram machinery
    (bounded top-V broadcast at any corpus size); the weight pass is
    one vectorized ``map_batches`` with per-block top-k partials
    (functions/agg.partial_topk) — no shuffle, no driver
    materialization.  Ordering: (iw_micro desc, doc_id asc)."""
    import numpy as np

    from ..functions.agg import partial_topk
    from ..stages.textstats import importance_weights, unigram_model

    def target_split(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy(zero_copy_only=False) % target_mod == 0
        return batch.filter(pa.array(keep))

    docs = lambda: _read(sf_dir, "documents", ["doc_id", "text", "source"])  # noqa: E731
    t_model = unigram_model(docs().map_batches(target_split, batch_format="pyarrow"))
    r_model = unigram_model(docs())

    def weigh(batch: pa.Table) -> pa.Table:
        w = importance_weights(batch, t_model, r_model)
        micro = np.rint(w["iw"].to_numpy(zero_copy_only=False) * 1e6).astype(np.int64)
        return pa.table({"source": batch["source"], "doc_id": batch["doc_id"],
                         "iw_micro": pa.array(micro)})

    top = partial_topk(docs().map_batches(weigh, batch_format="pyarrow"),
                       n_select, ["iw_micro", "doc_id"], [True, False])
    return top.select(["source", "doc_id"])


def ngram_top50(sf_dir: str) -> pa.Table:
    """Exact global top-50 bigrams (count desc, ngram asc tie-break)."""
    return ngram_topk(_read(sf_dir, "documents", ["text"]), n=2, k=50)


# query set for the BM25 retrieval rows of the ngram_topk slot — drawn
# from the synthetic corpus vocabulary, locked to the oracle SQL
BM25_QUERIES = ["spark merge sort", "hash table scan", "window batch"]


def ngram_and_bm25(sf_dir: str, k: int = 20) -> pa.Table:
    """The ngram_topk slot, widened with BM25 retrieval rows.

    Schema ``(method, key, doc_id, n)``:

    * ``method='top50'`` — the exact global top-50 bigrams (key=bigram,
      doc_id=-1, n=count), unchanged semantics;
    * ``method='bm25'``  — exact BM25 top-``k`` docs per query in
      :data:`BM25_QUERIES` (key=query, n=score_micro), via
      stages/retrieval.bm25_topk's broadcast-stats shape.

    Fused scan: the bigram partial and the BM25 corpus-stats partial
    are both stateless per-block reductions over the same ``text``
    column, so they ride ONE ``map_batches`` pass (tagged rows), and
    the BM25 scoring pass is the only other read: 2 corpus scans total
    instead of the naive 3.  At 100-TB corpus size that is a third of
    this composite's I/O.  The tagged partials combine through
    ``dedup._combine`` keyed on xxh64(ngram): the stats rows all carry
    key 0, so on the scatter path they ride whole to one partition,
    which passes them through.
    """
    import numpy as np

    from ..stages.dedup import _combine, _refs_and_bytes
    from ..stages.retrieval import bm25_topk, stats_from_rows, stats_partial_rows
    from ..stages.sampling import ngram_partial_table, ngram_sum_topk

    terms = sorted({t for q in BM25_QUERIES for t in q.split(" ")})

    def fused_partial(b: pa.Table) -> pa.Table:
        ng = ngram_partial_table(b, 2)          # (ngram, n, __gkey)
        st = stats_partial_rows(b, terms)       # (name, n)
        return pa.table({
            "ngram": pa.concat_arrays([ng["ngram"].combine_chunks(),
                                       st["name"].combine_chunks()]),
            "n": pa.concat_arrays([ng["n"].combine_chunks(),
                                   st["n"].combine_chunks()]),
            "__gkey": pa.concat_arrays([
                ng["__gkey"].combine_chunks(),
                pa.array(np.zeros(st.num_rows, np.uint64))]),
            "w": pa.array([0] * ng.num_rows + [1] * st.num_rows, pa.int8()),
        })

    def top_and_stats(t: pa.Table) -> pa.Table:
        # (ngram, n, w): the top-50 of the bigram rows, stats rows as-is
        is_ng = pc.equal(t["w"], 0)
        top = ngram_sum_topk(t.filter(is_ng), 50)
        return pa.concat_tables([
            top.append_column("w", pa.array(np.zeros(top.num_rows, np.int8))),
            t.filter(pc.invert(is_ng)).select(["ngram", "n", "w"])])

    refs, nbytes = _refs_and_bytes(
        _read(sf_dir, "documents", ["text"]).map_batches(fused_partial, batch_format="pyarrow"))
    empty = pa.table({"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int8())})
    merged = top_and_stats(pa.concat_tables(
        [empty, *_combine(refs, nbytes, "__gkey", top_and_stats)]))
    is_ng = pc.equal(merged["w"], 0)
    top = merged.filter(is_ng)
    stats = stats_from_rows([merged.filter(pc.invert(is_ng)).rename_columns(["name", "n", "w"])],
                            terms)
    nt = top.num_rows
    a = pa.table({
        "method": pa.array(["top50"] * nt, pa.string()),
        "key": top["ngram"],
        "doc_id": pa.array([-1] * nt, pa.int64()),
        "n": top["n"],
    })
    bm = bm25_topk(lambda: _read(sf_dir, "documents", ["doc_id", "text"]),
                   BM25_QUERIES, k=k, stats=stats)
    b = pa.table({
        "method": pa.array(["bm25"] * bm.num_rows, pa.string()),
        "key": bm["query"],
        "doc_id": bm["doc_id"],
        "n": bm["score_micro"],
    })
    return pa.concat_tables([a, b])


def doc_chunk_table(sf_dir: str, chunk_size: int = 32, overlap: int = 8) -> pa.Table:
    """Context-window chunk explosion on a deterministic doc subset
    (doc_id % 7 == 0 keeps the oracle result small while exercising
    multi-chunk docs and the overlap carry-over at sf0.01's 10-99-token
    documents)."""

    def subset(batch: pa.Table) -> pa.Table:
        import numpy as np

        keep = batch["doc_id"].to_numpy(zero_copy_only=False) % 7 == 0
        return batch.filter(pa.array(keep))

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        subset, batch_format="pyarrow")
    t = _collect(chunk_documents(ds, chunk_size=chunk_size, overlap=overlap))
    return t.take(pc.sort_indices(
        t, [("doc_id", "ascending"), ("chunk_start", "ascending")]))


def decontaminate_table(sf_dir: str, n: int = 3) -> pa.Table:
    """Corpus-cleaning slot, two operators tagged into one
    (section, doc_id, n, s) table:

    - ``contam`` rows — eval-set decontamination: the benchmark split
      is the deterministic doc_id % 97 == 3 slice (stand-in for a
      held-out eval set); one row per TRAIN doc sharing ≥1 word-trigram
      with it, n = DISTINCT shared-trigram count, s = ''.
    - ``cut`` rows — exact duplicate-substring REMOVAL
      (stages/dedup.dedup_cut, the rewrite step of Lee et al. 2022
      ExactSubstr, stride-1 k=64): one row per document, n = chars
      removed, s = md5 hex of the cleaned text (the oracle recomputes
      the full cut in SQL and hashes the same way)."""
    import hashlib

    from ..stages.dedup import dedup_cut
    from ..stages.sampling import benchmark_shingles, decontaminate

    def split(keep_bench):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np

            m = batch["doc_id"].to_numpy(zero_copy_only=False) % 97 == 3
            return batch.filter(pa.array(m if keep_bench else ~m))
        return f

    docs = lambda: _read(sf_dir, "documents", ["doc_id", "text"])  # noqa: E731
    bench = docs().map_batches(split(True), batch_format="pyarrow")
    train = docs().map_batches(split(False), batch_format="pyarrow")
    hashes = benchmark_shingles(bench, n=n)
    t = _collect(decontaminate(train, hashes, n=n))
    t = t.take(pc.sort_indices(t, [("doc_id", "ascending")]))

    dc = dedup_cut(docs())
    md5s = [hashlib.md5(c.encode("utf-8")).hexdigest()
            for c in dc["cleaned"].to_pylist()]
    return pa.table({
        "section": pa.array(["contam"] * t.num_rows + ["cut"] * dc.num_rows,
                            pa.string()),
        "doc_id": pa.concat_arrays([t["doc_id"].combine_chunks(),
                                    dc["doc_id"].combine_chunks()]),
        "n": pa.concat_arrays([t["n_hits"].cast(pa.int64()).combine_chunks(),
                               dc["n_cut"].combine_chunks()]),
        "s": pa.concat_arrays([pa.array([""] * t.num_rows, pa.string()),
                               pa.array(md5s, pa.string())]),
    })


def packed_sequences(sf_dir: str, budget: int = 256) -> pa.Table:
    """Sequence packing over documents: per-source token-budget bins
    with ordered concatenation (see stages/sampling.py::pack_sequences
    for the deterministic fixed-boundary bin rule)."""
    from ..stages.sampling import pack_sequences

    return pack_sequences(
        _read(sf_dir, "documents", ["source", "doc_id", "text"]), budget=budget)
