"""Corpus-curation operator tests: deterministic hash sampling,
per-group quotas, exact n-gram top-k, context-window chunking
(stages/sampling.py) — including the above-threshold scatter-exchange
combine branches."""

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    }))


ROWS = [(i, f"s{i % 3}", " ".join(f"w{(i * 7 + j) % 11}" for j in range(5 + i % 9)))
        for i in range(60)]


# ---------------------------------------------------------------- sampling


def test_hash_sample_mask_matches_arithmetic():
    from siteone_crawler_ray.stages.sampling import hash_sample_mask

    keys = np.arange(1000, dtype=np.int64)
    mask = hash_sample_mask(keys, 37)
    expected = np.array([(k * 2654435761) % (1 << 32) % 100 < 37 for k in range(1000)])
    assert (mask == expected).all()
    # deterministic & rate roughly honoured
    assert abs(mask.mean() - 0.37) < 0.05
    assert (mask == hash_sample_mask(keys.copy(), 37)).all()


def test_hash_sample_is_partitioning_independent():
    """Same keys → same kept set regardless of block layout (the property
    that makes the sample resumable and cluster-size-independent)."""
    from siteone_crawler_ray.stages.sampling import hash_sample

    one = hash_sample(_docs_ds(ROWS), rate_pct=50).to_pandas()
    many = hash_sample(_docs_ds(ROWS).repartition(7), rate_pct=50).to_pandas()
    assert sorted(one["doc_id"]) == sorted(many["doc_id"])


def test_mixture_sample_per_group_rates():
    """Domain-mixture sampler: each group honours ITS rate; groups
    missing from the dict fall back to default_pct; salt decorrelates
    from the unsalted global sampler."""
    from siteone_crawler_ray.stages.sampling import (
        hash_sample_mask,
        mixture_sample,
    )

    rates = {"s0": 100, "s1": 0}  # s2 absent → default_pct=50
    got = mixture_sample(_docs_ds(ROWS), rates, default_pct=50,
                         salt=1009).to_pandas()
    by_src = {s: sorted(g["doc_id"]) for s, g in got.groupby("source")}
    # exact per-row expectation from the scalar arithmetic
    keys = np.array([r[0] for r in ROWS], dtype=np.uint64)
    salted = hash_sample_mask((keys + np.uint64(1009)).astype(np.int64), 50)
    for i, (doc_id, src, _) in enumerate(ROWS):
        rate = rates.get(src, 50)
        kept = doc_id in by_src.get(src, [])
        if rate == 100:
            assert kept
        elif rate == 0:
            assert not kept
        else:
            assert kept == bool(salted[i])
    # partition-independence (resumable / cluster-size-independent)
    re = mixture_sample(_docs_ds(ROWS).repartition(7), rates,
                        default_pct=50, salt=1009).to_pandas()
    assert sorted(re["doc_id"]) == sorted(got["doc_id"])


def test_weighted_sample_without_replacement():
    """Efraimidis–Spirakis A-ES: deterministic, partition-independent,
    no replacement, and inclusion probability rises with weight."""
    import ray.data as rd

    from siteone_crawler_ray.stages.sampling import weighted_sample

    n_rows = 400
    t = pa.table({
        "doc_id": pa.array(np.arange(n_rows), pa.int64()),
        # second half gets 20x the weight of the first half
        "w": pa.array(np.where(np.arange(n_rows) < 200, 1.0, 20.0)),
    })

    def ds(blocks):
        step = max(1, -(-n_rows // blocks))
        return rd.from_arrow([t.slice(i, step) for i in range(0, n_rows, step)])

    got = weighted_sample(ds(4), 100, "w", salt=5)
    ids = got["doc_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 100  # without replacement
    # partition independence
    again = weighted_sample(ds(13), 100, "w", salt=5)
    assert again["doc_id"].to_pylist() == ids
    # heavy rows dominate: >=80 of 100 picks from the 20x half
    assert sum(1 for i in ids if i >= 200) >= 80
    # different salt -> different sample (decorrelation)
    other = weighted_sample(ds(4), 100, "w", salt=6)
    assert other["doc_id"].to_pylist() != ids
    # n larger than the data returns everything
    assert len(weighted_sample(ds(4), 1000, "w", salt=5)) == n_rows


# ------------------------------------------------------------------ quotas


def _expected_cap(rows, k):
    import collections

    byg = collections.defaultdict(list)
    for i, g, _ in rows:
        byg[g].append(i)
    out = []
    for g in sorted(byg):
        out += [(g, i) for i in sorted(byg[g])[:k]]
    return out


def test_cap_per_group_first_k():
    from siteone_crawler_ray.stages.sampling import cap_per_group

    t = cap_per_group(_docs_ds(ROWS).repartition(5), "source", "doc_id", 4)
    got = list(zip(t["source"].to_pylist(), t["doc_id"].to_pylist()))
    assert got == _expected_cap(ROWS, 4)


def test_cap_per_group_exchange_branch(monkeypatch):
    from siteone_crawler_ray.stages import dedup, sampling

    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    t = sampling.cap_per_group(_docs_ds(ROWS).repartition(5), "source", "doc_id", 4)
    got = list(zip(t["source"].to_pylist(), t["doc_id"].to_pylist()))
    assert got == _expected_cap(ROWS, 4)


# ----------------------------------------------------------------- n-grams


def _expected_ngrams(rows, n):
    import collections

    c = collections.Counter()
    for _, _, text in rows:
        w = text.split(" ")
        for i in range(len(w) - n + 1):
            c[" ".join(w[i:i + n])] += 1
    return c


def test_ngram_counts_do_not_cross_documents():
    from siteone_crawler_ray.stages.sampling import _ngram_counts

    t = pa.table({"text": pa.array(["a b", "c d"], pa.string())})
    out = _ngram_counts(t, "text", 2)
    got = dict(zip(out["ngram"].to_pylist(), out["n"].to_pylist()))
    assert got == {"a b": 1, "c d": 1}  # no "b c" boundary-crossing bigram
    tri = _ngram_counts(pa.table({"text": pa.array(["a b c d", "x y"], pa.string())}), "text", 3)
    got3 = dict(zip(tri["ngram"].to_pylist(), tri["n"].to_pylist()))
    assert got3 == {"a b c": 1, "b c d": 1}


def test_ngram_topk_exact():
    from siteone_crawler_ray.stages.sampling import ngram_topk

    t = ngram_topk(_docs_ds(ROWS).repartition(6), n=2, k=10, text_col="text")
    exp = sorted(_expected_ngrams(ROWS, 2).items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(t["ngram"].to_pylist(), t["n"].to_pylist())) == exp


def test_ngram_topk_exchange_branch(monkeypatch):
    from siteone_crawler_ray.stages import dedup, sampling

    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    t = sampling.ngram_topk(_docs_ds(ROWS).repartition(6), n=2, k=10, text_col="text")
    exp = sorted(_expected_ngrams(ROWS, 2).items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(t["ngram"].to_pylist(), t["n"].to_pylist())) == exp


# ---------------------------------------------------------------- chunking


def _expected_chunks(tokens, size, overlap):
    stride = size - overlap
    out = []
    for s in range(0, max(len(tokens) - overlap, 1), stride):
        out.append((s + 1, " ".join(tokens[s:s + size])))
    return out


@pytest.mark.parametrize("size,overlap", [(8, 2), (5, 0), (4, 3)])
def test_chunk_kernel_windows(size, overlap):
    from siteone_crawler_ray.stages.sampling import chunk_kernel

    texts = [
        " ".join(f"t{j}" for j in range(17)),   # multi-chunk
        " ".join(f"u{j}" for j in range(size)),  # exactly one window
        "solo",                                  # shorter than window
    ]
    t = pa.table({"doc_id": pa.array([10, 20, 30], pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = chunk_kernel(t, size, overlap)
    got = {}
    for d, s, c in zip(out["doc_id"].to_pylist(), out["chunk_start"].to_pylist(),
                       out["chunk"].to_pylist()):
        got.setdefault(d, []).append((s, c))
    for doc_id, text in zip([10, 20, 30], texts):
        assert got[doc_id] == _expected_chunks(text.split(" "), size, overlap)


def test_chunk_kernel_rejects_bad_overlap():
    from siteone_crawler_ray.stages.sampling import chunk_kernel

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["a b c"], pa.string())})
    with pytest.raises(ValueError):
        chunk_kernel(t, 4, 4)


def test_chunk_documents_streams():
    from siteone_crawler_ray.stages.sampling import chunk_documents

    out = chunk_documents(_docs_ds(ROWS).repartition(4), chunk_size=6,
                          overlap=2).to_pandas()
    # every chunk's tokens re-join to a substring of its source doc
    texts = {i: t for i, _, t in ROWS}
    assert len(out) > len(ROWS) / 2
    for _, row in out.head(50).iterrows():
        assert row["chunk"] in texts[row["doc_id"]]


# ---------------------------------------------------------------- scrubbing


def test_scrub_kernel_pii_presets():
    from siteone_crawler_ray.stages.scrub import (
        PII_EMAIL, PII_PHONE, lexicon_pattern, scrub_kernel)

    texts = [
        "contact bob.smith+x@mail.example.org now",
        "call +1 (415) 555-0134 ok",
        "the customer met a supplier",
        "plain text",
        "a@b.io then 12345678901 end",
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = scrub_kernel(t, [PII_EMAIL, PII_PHONE,
                           lexicon_pattern(["customer", "supplier"])])
    assert out["scrubbed"].to_pylist() == [
        "contact [EMAIL] now",
        "call [PHONE] ok",
        "the [TERM] met a [TERM]",
        "plain text",
        "[EMAIL] then [PHONE] end",
    ]
    assert out["n_matches"].to_pylist() == [1, 1, 2, 0, 2]


# ---------------------------------------------------------- decontamination


def test_decontaminate_marks_shared_ngrams():
    from siteone_crawler_ray.stages.sampling import benchmark_shingles, decontaminate

    bench = _docs_ds([(100, "s", "alpha beta gamma delta")])
    train = _docs_ds([
        (1, "s", "x alpha beta gamma y"),          # shares 'alpha beta gamma'
        (2, "s", "beta gamma delta twice beta gamma delta"),  # 1 DISTINCT hit
        (3, "s", "nothing shared here at all"),
        (4, "s", "alpha beta gamma delta"),        # shares both trigrams
    ])
    h = benchmark_shingles(bench, n=3)
    t = decontaminate(train, h, n=3).to_pandas().sort_values("doc_id")
    assert list(t["doc_id"]) == [1, 2, 4]
    assert list(t["n_hits"]) == [1, 1, 2]


def test_decontaminate_sharded_semijoin_fallback(monkeypatch):
    """Above the broadcast threshold the benchmark shingle set shards
    (h % S) and the train pairs semi-join per partition — identical
    output to the broadcast path."""
    import siteone_crawler_ray.stages.sampling as sp

    bench = _docs_ds([(100, "s", "alpha beta gamma delta"),
                      (101, "s", "one two three four five")])
    rows = [
        (1, "s", "x alpha beta gamma y"),
        (2, "s", "beta gamma delta twice beta gamma delta"),
        (3, "s", "nothing shared here at all"),
        (4, "s", "alpha beta gamma delta"),
        (5, "s", "zero one two three four six"),
    ]
    h = sp.benchmark_shingles(bench, n=3)
    want = sp.decontaminate(_docs_ds(rows).repartition(3), h, n=3) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(sp, "_BENCH_BROADCAST_MAX_HASHES", 0)
    got = sp.decontaminate(_docs_ds(rows).repartition(3), h, n=3) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert want.equals(got)
    assert list(want["doc_id"]) == [1, 2, 4, 5]


def test_benchmark_shingles_distinct_and_partition_independent():
    from siteone_crawler_ray.stages.sampling import benchmark_shingles

    one = benchmark_shingles(_docs_ds(ROWS), n=3)
    many = benchmark_shingles(_docs_ds(ROWS).repartition(7), n=3)
    assert (one == many).all()
    assert len(np.unique(one)) == len(one)


# ------------------------------------------------------------ seq packing


def _expected_pack(rows, budget):
    import collections

    byg = collections.defaultdict(list)
    for i, g, t in rows:
        byg[g].append((i, t))
    out = []
    for g in sorted(byg):
        prefix = 0
        bins = collections.defaultdict(lambda: [0, 0, []])
        for i, t in sorted(byg[g]):
            b = prefix // budget
            n = len(t.split(" "))
            bins[b][0] += 1
            bins[b][1] += n
            bins[b][2].append(t)
            prefix += n
        for b in sorted(bins):
            nd, nt, texts = bins[b]
            out.append((g, b, nd, nt, " ".join(texts)))
    return out


def test_pack_sequences_bins_and_order():
    from siteone_crawler_ray.stages.sampling import pack_sequences

    t = pack_sequences(_docs_ds(ROWS).repartition(5), budget=40)
    got = list(zip(t["source"].to_pylist(), t["bin"].to_pylist(),
                   t["n_docs"].to_pylist(), t["n_tokens"].to_pylist(),
                   t["packed"].to_pylist()))
    assert got == _expected_pack(ROWS, 40)


def test_pack_sequences_partition_independent():
    from siteone_crawler_ray.stages.sampling import pack_sequences

    a = pack_sequences(_docs_ds(ROWS), budget=64, num_partitions=2)
    b = pack_sequences(_docs_ds(ROWS).repartition(9), budget=64, num_partitions=7)
    assert a.to_pylist() == b.to_pylist()


def test_stratified_sample_rates_per_group():
    from siteone_crawler_ray.stages.sampling import hash_sample_mask, mixture_sample

    out = mixture_sample(
        _docs_ds(ROWS).repartition(5), {"s0": 0, "s1": 50}, default_pct=100, salt=0
    ).to_pandas().sort_values("doc_id")
    ids = np.array([r[0] for r in ROWS]); grp = np.array([r[1] for r in ROWS])
    m50 = hash_sample_mask(ids.astype(np.int64), 50)
    expected = sorted(ids[((grp == "s1") & m50) | (grp == "s2")])
    assert list(out["doc_id"]) == expected


def test_ngram_and_bm25_fused_scan_branch_parity(monkeypatch):
    """The fused single-scan composite (ngram partial + BM25 stats in
    one map) must be byte-identical across its driver-combine and
    remote-split/scatter regimes, and match the unfused components."""
    from siteone_crawler_ray.pipelines.curation import (BM25_QUERIES,
                                                        ngram_and_bm25,
                                                        ngram_top50)
    from siteone_crawler_ray.pipelines.relational import _read
    from siteone_crawler_ray.stages import dedup
    from siteone_crawler_ray.stages.retrieval import bm25_topk

    sf = "/root/testdata/sf0.001"
    fused = ngram_and_bm25(sf)
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    forced = ngram_and_bm25(sf)
    assert fused.to_pylist() == forced.to_pylist()
    monkeypatch.undo()

    # unfused reference: separate ngram scan + two-pass BM25
    top = ngram_top50(sf)
    bm = bm25_topk(lambda: _read(sf, "documents", ["doc_id", "text"]),
                   BM25_QUERIES, k=20)
    got_top = fused.filter(pa.compute.equal(fused["method"], "top50"))
    assert got_top["key"].to_pylist() == top["ngram"].to_pylist()
    assert got_top["n"].to_pylist() == top["n"].to_pylist()
    got_bm = fused.filter(pa.compute.equal(fused["method"], "bm25"))
    assert got_bm["key"].to_pylist() == bm["query"].to_pylist()
    assert got_bm["doc_id"].to_pylist() == bm["doc_id"].to_pylist()
    assert got_bm["n"].to_pylist() == bm["score_micro"].to_pylist()
