"""Text-analysis operators: language-ID, quality scoring, token counts,
document fingerprints.

All are vectorized ``map_batches`` kernels over the ``documents`` table
(doc_id, text, …).  Definitions are chosen to be SQL-expressible where
the correctness gate needs a DuckDB oracle (token counts, ratios) and
documented here where they are not (fingerprint, langid).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import xxh64_strings

STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "auf"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es", "por", "con"},
    "fr": {"le", "la", "de", "et", "un", "est", "pour", "que", "dans"},
}


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count: n_tokens = count(' ')+1 (SQL-matchable:
    len(string_split(text, ' ')))."""
    n = pc.add(pc.count_substring(batch[text_col], " "), 1)
    return pa.table({"doc_id": batch["doc_id"], "n_tokens": n.cast(pa.int64())})


def unigram_model(ds, text_col: str = "text",
                  vocab_cap: int = 65536) -> tuple[dict, float]:
    """Top-V unigram language model trained distributed — the CCNet-
    style quality-filter scorer, with the corpus itself as the LM
    training set.  Token counts come from the exact n-gram machinery
    (``ngram_topk`` with n=1: per-block value_counts partials, scatter-
    exchange fallback, (count desc, token asc) tie-break), so the
    broadcast model is BOUNDED at ``vocab_cap`` entries at any corpus
    size; tokens beyond the cap score at an OOV floor of ``0.5/total``.
    Returns ``(logp dict, oov_logp)`` with natural-log probabilities."""
    from .sampling import ngram_topk

    top = ngram_topk(ds, n=1, k=vocab_cap, text_col=text_col)
    counts = top["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    if top.num_rows >= vocab_cap:
        # truncated vocabulary: the denominator needs the UNTRUNCATED
        # total, one tiny count pass
        from ..functions.agg import collect_blocks

        def cnt(batch: pa.Table) -> pa.Table:
            n = pc.sum(pc.add(pc.count_substring(batch[text_col], " "), 1))
            return pa.table({"n": pa.array([int(n.as_py() or 0)], pa.int64())})

        parts = collect_blocks(ds.map_batches(cnt, batch_format="pyarrow"))
        total = float(sum(int(v) for t in parts for v in t["n"].to_pylist()))
    else:
        total = float(counts.sum())
    # the broadcast model is HASH-keyed (xxh64 of the token) so batch
    # scoring is two numpy ops instead of a unicode np.unique — numpy
    # unicode arrays pad every element to the longest string, the
    # measured 5× kernel trap of this box
    toks = pa.array(top["ngram"].to_pylist(), pa.string())
    h = xxh64_strings(toks)
    order = np.argsort(h, kind="stable")
    logps = np.log(counts / total)
    return (h[order], logps[order], float(np.log(0.5 / total)))


def _lookup_logps(h: np.ndarray, tok_hashes: np.ndarray,
                  tok_logps: np.ndarray, oov_logp: float) -> np.ndarray:
    """Per-token log-prob under a hashed unigram model (searchsorted on
    the sorted hash index; misses score the OOV floor)."""
    if not len(tok_hashes):
        return np.full(len(h), oov_logp)
    pos = np.searchsorted(tok_hashes, h)
    pos[pos == len(tok_hashes)] = len(tok_hashes) - 1
    found = tok_hashes[pos] == h
    return np.where(found, tok_logps[pos], oov_logp)


def log_perplexity(batch: pa.Table, tok_hashes: np.ndarray,
                   tok_logps: np.ndarray, oov_logp: float,
                   text_col: str = "text") -> pa.Table:
    """Per-doc mean negative log-likelihood (nats/token) under the
    unigram model — the standard LM-quality score (log of perplexity;
    exposed in log space so the cross-engine float agreement stays at
    the 1e-13 level instead of being exp-amplified).  Vectorized: one
    split per batch, hashed searchsorted model lookup, segment sums via
    ``np.add.reduceat``."""
    col = pc.split_pattern(batch[text_col], " ").combine_chunks()
    flat = col.values
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat):
        tok = _lookup_logps(xxh64_strings(flat), tok_hashes, tok_logps, oov_logp)
        off = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=off[1:])
        sums = np.add.reduceat(tok, np.minimum(off, len(tok) - 1))
        sums[lens == 0] = 0.0
    else:
        sums = np.zeros(len(lens))
    nll = -(sums / np.maximum(lens, 1))
    return pa.table({"doc_id": batch["doc_id"],
                     "log_ppl": pa.array(np.round(nll, 6))})


def importance_weights(batch: pa.Table, target_model, raw_model,
                       text_col: str = "text") -> pa.Table:
    """DSIR-shape importance weight per doc: ``w(d) = Σ_tok (log
    p_target(tok) − log p_raw(tok))`` under two bounded unigram models
    (Xie et al. 2023, "Data Selection for Language Models via
    Importance Resampling" — the n-gram bag importance estimator, here
    over the top-V vocabulary instead of hashed buckets so a DuckDB
    oracle can recompute it exactly).  Each model is the
    :func:`unigram_model` triple ``(hashes, logps, oov_logp)``; OOV
    tokens score the model's own floor.  One tokenize pass feeds both
    lookups; ``round(·,6)`` pins cross-engine agreement."""
    col = pc.split_pattern(batch[text_col], " ").combine_chunks()
    flat = col.values
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat):
        h = xxh64_strings(flat)
        diff = (_lookup_logps(h, *target_model) - _lookup_logps(h, *raw_model))
        off = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=off[1:])
        sums = np.add.reduceat(diff, np.minimum(off, len(diff) - 1))
        sums[lens == 0] = 0.0
    else:
        sums = np.zeros(len(lens))
    return pa.table({"doc_id": batch["doc_id"],
                     "iw": pa.array(np.round(sums, 6))})


def quality_scores(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality heuristics (length / punctuation / stopword ratios),
    all Arrow/numpy kernels.  round(·,6) so a DuckDB oracle can match
    bit-for-bit on the hashed values."""
    from ..functions.numeric import round_away

    t = batch[text_col]
    # utf8_length = characters, matching DuckDB length()
    nchars = pc.utf8_length(t).cast(pa.float64())
    ntok = pc.add(pc.count_substring(t, " "), 1).cast(pa.float64())
    npunct = pc.add(
        pc.add(pc.count_substring(t, "."), pc.count_substring(t, ",")),
        pc.add(pc.count_substring(t, "!"), pc.count_substring(t, "?")),
    ).cast(pa.float64())
    avg_tok_len = pa.array(round_away(pc.divide(nchars, ntok).to_numpy(), 6))
    punct_ratio = pa.array(
        round_away(pc.divide(npunct, pc.max_element_wise(nchars, 1.0)).to_numpy(), 6)
    )
    texts = t.to_numpy(zero_copy_only=False)
    stop_all = set().union(*STOPWORDS.values())
    stop_ratio = np.empty(len(texts))
    for i, s in enumerate(texts):
        toks = s.split(" ")
        stop_ratio[i] = sum(1 for w in toks if w in stop_all) / max(1, len(toks))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars_m": nchars.cast(pa.int64()),
            "n_tokens": ntok.cast(pa.int64()),
            "avg_tok_len": avg_tok_len,
            "punct_ratio": punct_ratio,
            "stop_ratio": pa.array(np.round(stop_ratio, 6)),
        }
    )


def repetition_metrics(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style within-document repetition: the duplicate-trigram
    fraction ``1 - distinct/total`` over whitespace-token trigrams
    (Rae et al. 2021 §A1.1 repetition filters — public heuristic).
    EXACT distinct counting (compact token ids + integer re-coding, no
    hash collisions, no padded unicode sorts), so a DuckDB
    ``count(DISTINCT trigram)`` oracle matches bit-for-bit."""
    from ..functions.numeric import round_away

    texts = batch[text_col].to_numpy(zero_copy_only=False)
    n_tri = np.zeros(len(texts), dtype=np.int64)
    dup = np.zeros(len(texts), dtype=np.float64)
    for i, s in enumerate(texts):
        toks = np.array(s.split(" "), dtype=object)
        m = len(toks) - 2
        if m <= 0:
            continue
        # tokens → compact int codes; trigram key via two re-codings so
        # every intermediate fits int64 (pair ids ≤ n², n ≤ doc tokens)
        _, codes = np.unique(toks, return_inverse=True)
        codes = codes.astype(np.int64)
        n = len(codes)
        pair = codes[:-1] * n + codes[1:]
        _, pcodes = np.unique(pair, return_inverse=True)
        tri = pcodes[:-1].astype(np.int64) * n + codes[2:]
        n_tri[i] = m
        dup[i] = 1.0 - len(np.unique(tri)) / m
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tri": pa.array(n_tri),
            "dup_tri_ratio": pa.array(round_away(dup, 6)),
        }
    )


def langid(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n-gram/stopword language-ID heuristic: argmax of per-language
    stopword hit counts (deterministic; 'und' = undetermined)."""
    texts = batch[text_col].to_numpy(zero_copy_only=False)
    langs = sorted(STOPWORDS)
    out = np.empty(len(texts), dtype=object)
    for i, s in enumerate(texts):
        toks = set(s.lower().split(" "))
        scores = [(len(toks & STOPWORDS[lg]), lg) for lg in langs]
        best = max(scores)
        out[i] = best[1] if best[0] > 0 else "und"
    return pa.table({"doc_id": batch["doc_id"], "lang_pred": pa.array(out, pa.string())})


def fingerprints(batch: pa.Table, text_col: str = "text", window: int = 8,
                 hasher=None) -> pa.Table:
    """Document fingerprint: hash of the full text plus a winnowed
    rolling-hash sketch (min of window-shingle hashes — robust to small
    edits).  ``hasher`` defaults to vectorized xxh64 (scale path);
    md5_u64_strings makes the output SQL-expressible so the
    `content_signatures` slot gets a DuckDB oracle."""
    hasher = hasher or xxh64_strings
    texts = batch[text_col].to_numpy(zero_copy_only=False)
    full = hasher(batch[text_col])
    mins = np.empty(len(texts), dtype=np.uint64)
    for i, s in enumerate(texts):
        n = max(1, len(s) - window + 1)
        sh = hasher([s[j : j + window] for j in range(0, n, 1)])
        mins[i] = sh.min() if len(sh) else 0
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(full, pa.uint64()),
            "winnow_min": pa.array(mins, pa.uint64()),
        }
    )


def compression_ratio(batch: pa.Table, text_col: str = "text",
                      level: int = 6) -> pa.Table:
    """(doc_id, zlib_ratio) — compressed/raw byte ratio per document,
    the classic redundancy-based quality signal (near-duplicate
    boilerplate and template spam compress far below prose; used as a
    filter feature in public corpus recipes, e.g. Dolma / RedPajama-v2
    ship it as a quality annotation).  zlib level is pinned so the
    value is deterministic across runs and partitionings; empty docs
    report ratio 0.  Not SQL-expressible (DuckDB has no zlib) — the
    pytest oracle recomputes per document with the stdlib directly."""
    import zlib

    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # per-doc C call; the only loop is over documents, not tokens
    ratios = np.zeros(batch.num_rows, np.float64)
    for i, s in enumerate(col.to_pylist()):
        if s:
            raw = s.encode("utf-8")
            ratios[i] = len(zlib.compress(raw, level)) / len(raw)
    return pa.table({"doc_id": batch["doc_id"],
                     "zlib_ratio": pa.array(np.round(ratios, 6))})
