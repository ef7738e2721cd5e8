"""Dedup / similarity / text-analysis / multimodal stage tests."""

import struct

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                                   "text": pa.array([r[1] for r in rows], pa.string())}))


def test_exact_dedup():
    from siteone_crawler_ray.stages.dedup import exact_dedup

    ds = _docs_ds([(1, "aaa bbb"), (2, "ccc"), (5, "aaa bbb"), (3, "ccc"), (9, "unique")])
    out = exact_dedup(ds).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 9]


def test_minhash_near_dup_pairs():
    from siteone_crawler_ray.stages.dedup import minhash_dedup_pairs

    base = "the quick brown fox jumps over the lazy dog and runs far away into the woods tonight"
    near = base.replace("lazy", "sleepy")
    other = "completely different content about ray data pipelines and arrow batches for scale"
    ds = _docs_ds([(1, base), (2, near), (3, other), (4, base)])
    t = minhash_dedup_pairs(ds, threshold=0.5)
    pairs = set(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()))
    assert (1, 4) in pairs  # identical
    assert (1, 2) in pairs or (2, 4) in pairs  # near-dup
    assert all(3 not in p for p in pairs)


def test_embedding_dup_and_knn(tmp_path):
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup import embedding_dup_pairs
    from siteone_crawler_ray.stages.similarity import (
        ivf_build_index,
        ivf_query_index,
        knn_bruteforce,
    )

    rng = np.random.default_rng(0)
    vecs = rng.normal(size=(50, 16))
    vecs[7] = vecs[3] + rng.normal(scale=1e-3, size=16)  # near-dup pair
    t = pa.table({"vec_id": pa.array(np.arange(50), pa.int64()),
                  "embedding": pa.array(list(vecs), pa.list_(pa.float64()))})
    ds = rd.from_arrow(t)

    dups = embedding_dup_pairs(ds, threshold=0.999)
    assert (3, 7) in set(zip(dups["id_a"].to_pylist(), dups["id_b"].to_pylist()))

    out = knn_bruteforce(ds, vecs[3], k=5)
    assert out["vec_id"].to_pylist()[0] in (3, 7)
    assert out.num_rows == 5
    # exact brute force vs numpy reference
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    q = m[3]
    want = np.lexsort((np.arange(50), -(m @ q)))[:5]
    assert out["vec_id"].to_pylist() == list(want)

    # IVF with full probe == exact
    ivf_build_index(ds, str(tmp_path / "ivf"), nlist=4)
    ivf = ivf_query_index(str(tmp_path / "ivf"), vecs[3], k=5, nprobe=4)
    assert ivf["vec_id"].to_pylist() == out["vec_id"].to_pylist()


def test_textstats():
    import ray.data as rd

    from siteone_crawler_ray.stages.textstats import (
        fingerprints,
        langid,
        quality_scores,
        token_counts,
    )

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["the cat and the dog", "der hund ist nicht da"], pa.string())})
    tc = token_counts(t)
    assert tc["n_tokens"].to_pylist() == [5, 5]
    q = quality_scores(t)
    assert q["n_tokens"].to_pylist() == [5, 5]
    assert abs(q["avg_tok_len"][0].as_py() - 19 / 5) < 1e-9
    lg = langid(t)
    assert lg["lang_pred"].to_pylist() == ["en", "de"]
    fp = fingerprints(t)
    assert len(set(fp["fingerprint"].to_pylist())) == 2
    # deterministic across calls
    assert fp.equals(fingerprints(t))
    # and usable as a Dataset stage
    out = rd.from_arrow(t).map_batches(token_counts, batch_format="pyarrow").to_pandas()
    assert sorted(out["n_tokens"]) == [5, 5]


def test_unigram_lm_log_perplexity():
    """Unigram-LM quality scoring: scalar-math parity, OOV floor, and
    the vocab-cap truncation branch (exact total from its own pass)."""
    import math

    from siteone_crawler_ray.stages.textstats import (
        log_perplexity,
        unigram_model,
    )

    rows = [(0, "a a a b"), (1, "a b c"), (2, "c c d")]
    ds = _docs_ds(rows)
    th, tl, oov = unigram_model(ds, vocab_cap=100)
    total = 10  # tokens overall
    counts = {"a": 4, "b": 2, "c": 3, "d": 1}
    assert oov == pytest.approx(math.log(0.5 / total))
    batch = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                      "text": pa.array(["a a a b", "a b c", "c c d", "zz a"])})
    got = dict(zip(log_perplexity(batch, th, tl, oov)["doc_id"].to_pylist(),
                   log_perplexity(batch, th, tl, oov)["log_ppl"].to_pylist()))

    def nll(toks):
        lps = [math.log(counts[t] / total) if t in counts else oov for t in toks]
        return round(-sum(lps) / len(lps), 6)

    assert got[0] == pytest.approx(nll("a a a b".split()), abs=1e-9)
    assert got[1] == pytest.approx(nll("a b c".split()), abs=1e-9)
    assert got[3] == pytest.approx(nll(["zz", "a"]), abs=1e-9)  # OOV token
    # a repetitive doc scores BETTER (lower nll) than a rare-token doc
    assert got[0] < got[2] < got[3]
    # vocab-cap truncation: cap=2 keeps only a (4) and c (3); b/d go OOV,
    # and the total still counts ALL 10 tokens via the dedicated pass
    th2, tl2, oov2 = unigram_model(ds, vocab_cap=2)
    assert len(th2) == 2 and oov2 == pytest.approx(math.log(0.5 / total))
    got2 = log_perplexity(batch.slice(0, 1), th2, tl2, oov2)["log_ppl"][0].as_py()
    want2 = round(-(3 * math.log(4 / total) + oov2) / 4, 6)
    assert got2 == pytest.approx(want2, abs=1e-9)


def test_repetition_metrics():
    from siteone_crawler_ray.stages.textstats import repetition_metrics

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "a b c a b c a b c",   # 7 trigrams: abc,bca,cab ×? → distinct 3
            "x y z w",              # 2 trigrams, both distinct
            "q q q q q",            # 3 trigrams, all "q q q" → distinct 1
            "one two",              # <3 tokens → no trigrams
        ], pa.string()),
    })
    r = repetition_metrics(t)
    assert r["n_tri"].to_pylist() == [7, 2, 3, 0]
    # doc1: distinct = {abc, bca, cab} = 3 → 1 - 3/7
    assert abs(r["dup_tri_ratio"][0].as_py() - (1 - 3 / 7)) < 1e-6
    assert r["dup_tri_ratio"][1].as_py() == 0.0
    assert abs(r["dup_tri_ratio"][2].as_py() - (1 - 1 / 3)) < 1e-6
    assert r["dup_tri_ratio"][3].as_py() == 0.0


def test_multimodal_plumbing():
    import ray.data as rd

    from siteone_crawler_ray.stages.multimodal import (
        AudioFrameSampleStage,
        ImageDecodeStage,
        decode_pipeline,
        synthesize_media_table,
    )

    media = synthesize_media_table(32)
    ds = rd.from_arrow(media)
    imgs = decode_pipeline(ds, "image", ImageDecodeStage, concurrency=1).to_pandas()
    assert (imgs["width"] >= 16).all() and (imgs["n_bytes"] > 0).all()
    assert all(len(f) == 8 for f in imgs["features"])
    auds = decode_pipeline(ds, "audio", AudioFrameSampleStage, concurrency=1).to_pandas()
    assert (auds["duration_sec"] > 0).all()
    # real decoder is an explicit stub
    with pytest.raises(NotImplementedError):
        ImageDecodeStage(decoder="real")(media.slice(0, 1))
    # deterministic fake decode
    a = ImageDecodeStage()(media.slice(0, 4))
    b = ImageDecodeStage()(media.slice(0, 4))
    assert a.equals(b)


def test_real_codecs_roundtrip():
    """Pure-numpy BMP/WAV codecs: encode→decode is exact, and the real
    decode stages recover the analytic corpus values closed-form."""
    import numpy as np

    from siteone_crawler_ray.stages.multimodal import (
        AudioFrameSampleStage,
        ImageDecodeStage,
        decode_bmp,
        decode_wav,
        encode_bmp,
        encode_wav,
        synthesize_real_media_table,
    )

    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)  # odd width → row padding
    assert np.array_equal(decode_bmp(encode_bmp(px)), px)
    samples = rng.integers(-30000, 30000, size=1001, dtype=np.int16)
    rate, ch, back = decode_wav(encode_wav(samples, 8000))
    assert rate == 8000 and ch == 1 and np.array_equal(back, samples)

    media = synthesize_real_media_table(24)
    img = media.filter(pa.compute.equal(media["kind"], "image"))
    out = ImageDecodeStage(decoder="real")(img)
    for mid, w, h, f in zip(out["media_id"].to_pylist(), out["width"].to_pylist(),
                            out["height"].to_pylist(), out["features"].to_pylist()):
        i = int(mid[1:])
        assert w == 16 + (i % 8) * 4 and h == 12 + (i % 5) * 4
        assert round(f[0] * 255) == (i * 7) % 256
    aud = media.filter(pa.compute.equal(media["kind"], "audio"))
    aout = AudioFrameSampleStage(decoder="real")(aud)
    for mid, d, fe in zip(aout["media_id"].to_pylist(), aout["duration_sec"].to_pylist(),
                          aout["frame_energy"].to_pylist()):
        i = int(mid[1:])
        assert abs(d - (400 + (i % 7) * 100) / 8000.0) < 1e-9
        assert round(fe[0]) == 1000 + 10 * i  # constant-amplitude square wave


def test_video_frames_pipeline(ray_session):
    import ray.data as rd

    from siteone_crawler_ray.stages.multimodal import (
        VideoFrameSampleStage,
        decode_pipeline,
        synthesize_media_table,
    )

    t = synthesize_media_table(48)
    vf = decode_pipeline(rd.from_arrow(t), "video", VideoFrameSampleStage, concurrency=2).take_all()
    assert vf and all(len(r["frame"]) <= 256 for r in vf)
    assert {r["frame_index"] for r in vf} <= {0, 1, 2}


def test_knn_lsh_bucketed_matches_broadcast(ray_session):
    """The co-located exchange path (emit bucket rows → hash-partition →
    sort-merge pairing → candidate-only rerank) must return EXACTLY the
    broadcast-scan path's table: same buckets → same candidates → same
    exact cosines → same tie-broken top-k."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import knn_lsh, knn_lsh_bucketed

    sf = "/root/testdata/sf0.001"
    emb = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    vecs = np.array(emb["embedding"].to_pylist()[:5])  # multi-query
    ds = rd.from_arrow([emb.slice(i, 64) for i in range(0, emb.num_rows, 64)])
    a = knn_lsh(ds, vecs, k=10)
    b = knn_lsh_bucketed(ds, vecs, k=10)
    assert a.equals(b), f"\n{a.to_pandas()}\nvs\n{b.to_pandas()}"
    # single-query too (degenerate shapes)
    a1 = knn_lsh(ds, vecs[0], k=7)
    b1 = knn_lsh_bucketed(ds, vecs[0], k=7, num_partitions=4)
    assert a1.equals(b1)


def test_knn_lsh_recall_vs_bruteforce(ray_session):
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import knn_bruteforce, knn_lsh

    sf = "/root/testdata/sf0.001"
    emb = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = np.array(emb["embedding"].to_pylist()[0])
    ds = rd.from_arrow([emb.slice(i, 64) for i in range(0, emb.num_rows, 64)])
    exact = set(knn_bruteforce(ds, q, k=10)["vec_id"].to_pylist())
    approx = knn_lsh(ds, q, k=10)
    got = set(approx["vec_id"].to_pylist())
    # LSH is approximate: require majority recall of the exact top-10
    assert len(exact & got) >= 8
    # ranks are 1..k and cosines descend
    cos = approx["cosine"].to_pylist()
    assert cos == sorted(cos, reverse=True)


def test_ivf_sample_unbiased_on_sorted_input(ray_session, tmp_path):
    """IVF centroid training must use a uniform distributed sample, not
    the first blocks: on topic-sorted input, ``limit(n)`` sees only the
    first cluster, the centroids collapse, and nprobe recall craters.
    ``sample_vectors`` (bottom-k priority sampling) covers every
    cluster and restores recall.  All seeded → deterministic."""
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import (
        _normalize,
        ivf_build_index,
        ivf_query_index,
        kmeans_centroids,
        knn_bruteforce,
        sample_vectors,
    )

    rng = np.random.default_rng(23)
    nclu, per, dim = 5, 1000, 16
    centers = _normalize(rng.standard_normal((nclu, dim)))
    # sorted by cluster: rows 0..999 are cluster 0, 1000..1999 cluster 1, …
    mat = np.concatenate(
        [centers[c] * 4 + rng.standard_normal((per, dim)) * 0.6 for c in range(nclu)]
    )
    ids = np.arange(nclu * per)
    m = _normalize(mat)
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel()), dim),
    })
    ds = rd.from_arrow([t.slice(i, 250) for i in range(0, len(ids), 250)])
    queries = [mat[c * per + j] for c in range(nclu) for j in (3, 17, 41)]

    def mean_recall(cent, nprobe, k=10):
        assign = np.argmax(m @ cent.T, axis=1)
        hits = 0
        for q in queries:
            qn = q / np.linalg.norm(q)
            probes = np.argsort(-(qn @ cent.T))[:nprobe]
            cand = np.nonzero(np.isin(assign, probes))[0]
            got = set(ids[cand][np.argsort(-(m[cand] @ qn))[:k]])
            want = set(ids[np.argsort(-(m @ qn))[:k]])
            hits += len(got & want)
        return hits / (len(queries) * k)

    # the old first-blocks "sample": rows 0..255, all from cluster 0
    cent_first = kmeans_centroids(_normalize(mat[:256]), nlist=8)
    assert mean_recall(cent_first, nprobe=1) < 0.6
    assert mean_recall(cent_first, nprobe=2) < 0.8

    # distributed priority sample: every cluster represented ~uniformly
    smat = _normalize(sample_vectors(ds, "embedding", n=256, seed=3))
    assert smat.shape == (256, dim)
    cov = np.bincount(np.argmax(smat @ _normalize(centers).T, axis=1), minlength=nclu)
    assert (cov >= 256 // nclu * 0.5).all(), f"cluster coverage skewed: {cov}"
    cent_samp = kmeans_centroids(smat, nlist=8)
    assert mean_recall(cent_samp, nprobe=1) >= 0.8
    assert mean_recall(cent_samp, nprobe=2) >= 0.9

    # the partitioned IVF index (which trains on sample_vectors) matches
    q = queries[9]  # a cluster-3 query — worst case for the old sample
    exact = set(knn_bruteforce(ds, q, k=10)["vec_id"].to_pylist())
    ivf_build_index(ds, str(tmp_path / "ivf"), nlist=8)
    approx = set(ivf_query_index(str(tmp_path / "ivf"), q, k=10, nprobe=2)["vec_id"].to_pylist())
    assert len(exact & approx) >= 9

    # determinism across calls (content-hash priorities, no RNG state)
    assert np.array_equal(smat, _normalize(sample_vectors(ds, "embedding", n=256, seed=3)))


def test_exchange_scatter_path_identical(ray_session, monkeypatch):
    """Forcing the row-moves-once scatter exchange (the multi-node
    scale path) must give byte-identical minhash results to the
    broadcast-filter path used for small tables."""
    import ray.data as rd

    import siteone_crawler_ray.stages.dedup as dd

    texts = []
    base = " ".join("tok%03d" % i for i in range(80))
    for i in range(40):
        texts.append((i, base if i % 4 == 0 else base.replace("tok000", "tok%03d" % (100 + i))))
    t = pa.table({"doc_id": pa.array([i for i, _ in texts], pa.int64()),
                  "text": pa.array([s for _, s in texts], pa.string())})
    ds = rd.from_arrow([t.slice(i, 8) for i in range(0, 40, 8)])

    broad_mh = dd.minhash_dedup_pairs(ds, threshold=0.5)
    monkeypatch.setattr(dd, "_DRIVER_COMBINE_BYTES", 0)
    scat_mh = dd.minhash_dedup_pairs(ds, threshold=0.5)
    assert broad_mh.equals(scat_mh)
    assert broad_mh.num_rows > 0  # the comparison is non-trivial


def test_exact_dedup_scale_fallback(ray_session, monkeypatch):
    """Above the residue threshold exact_dedup must combine via the
    key-partitioned exchange, not the driver, with identical output."""
    import ray.data as rd

    import siteone_crawler_ray.stages.dedup as dd

    t = pa.table({"doc_id": pa.array(np.arange(200), pa.int64()),
                  "text": pa.array(["txt%d" % (i % 60) for i in range(200)], pa.string())})
    ds = rd.from_arrow([t.slice(i, 50) for i in range(0, 200, 50)])
    want = sorted(dd.exact_dedup(ds).to_pandas()["doc_id"])
    monkeypatch.setattr(dd, "_DRIVER_COMBINE_BYTES", 0)
    got = sorted(dd.exact_dedup(ds).to_pandas()["doc_id"])
    assert got == want == list(range(60))


def test_ivf_partitioned_index(ray_session, tmp_path):
    """Cell-partitioned IVF index: build writes cell=NN parquet dirs,
    query reads only the probed cells and matches brute force within
    the probed subset."""
    import os

    import numpy as np
    import ray.data as rd

    from siteone_crawler_ray.stages.similarity import (
        ivf_build_index,
        ivf_query_index,
        knn_bruteforce,
    )

    rng = np.random.default_rng(11)
    n, dim = 600, 16
    mat = rng.standard_normal((n, dim))
    import pyarrow as pa

    t = pa.table({
        "vec_id": pa.array(np.arange(n)),
        "embedding": pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel()), dim),
    })
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, n, 100)])
    idx = str(tmp_path / "ivf")
    cent = ivf_build_index(ds, idx, nlist=8)
    assert cent.shape[0] == 8
    cells = [d for d in os.listdir(idx) if d.startswith("cell=")]
    assert len(cells) >= 2  # really partitioned

    q = mat[5]
    got = ivf_query_index(idx, q, k=10, nprobe=8)  # all cells probed → exact
    want = knn_bruteforce(ds, q, k=10)
    assert got["vec_id"].to_pylist() == want["vec_id"].to_pylist()
    # nprobe=2 reads a subset of cells; the query vector's own cell is
    # probed first, so it must find itself at rank 1
    approx = ivf_query_index(idx, q, k=10, nprobe=2)
    assert approx["vec_id"].to_pylist()[0] == 5


def test_connected_components_both_paths(ray_session, monkeypatch):
    """Local and distributed star-contraction agree with a union-find
    reference on a random graph + a 1000-node chain (worst-case
    diameter for naive propagation)."""
    from siteone_crawler_ray.stages import dedup
    from siteone_crawler_ray.stages.dedup import connected_components

    budget = dedup._DRIVER_COMBINE_BYTES

    rng = np.random.default_rng(11)
    ids = rng.choice(50_000, size=800, replace=False).astype(np.int64)
    ia, ib = rng.choice(ids, 600), rng.choice(ids, 600)
    sel = ia != ib
    pairs = pa.table({"id_a": pa.array(np.minimum(ia, ib)[sel]),
                      "id_b": pa.array(np.maximum(ia, ib)[sel])})

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for n in parent:
        groups.setdefault(find(n), []).append(n)
    want = {x: min(members) for members in groups.values() for x in members}

    # budget 0 forces the distributed rounds
    for b, kw in ((budget, {}), (0, {"num_partitions": 8})):
        monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", b)
        t = connected_components(pairs, **kw)
        got = dict(zip(t["doc_id"].to_pylist(), t["component"].to_pylist()))
        assert got == want, kw

    # chain: single component rooted at the minimum
    n = 1000
    chain = pa.table({"id_a": pa.array(np.arange(n - 1, dtype=np.int64)),
                      "id_b": pa.array(np.arange(1, n, dtype=np.int64))})
    for b, kw in ((budget, {}), (0, {"num_partitions": 4})):
        monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", b)
        t = connected_components(chain, **kw)
        assert t.num_rows == n and set(t["component"].to_pylist()) == {0}

    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", budget)
    empty = pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    assert connected_components(empty).num_rows == 0


def test_near_dup_clusters(ray_session):
    """Pairs → transitive families → one canonical survivor each."""
    from siteone_crawler_ray.stages.dedup import near_dup_clusters

    base = "the quick brown fox jumps over the lazy dog and runs far away into the woods tonight"
    ds = _docs_ds([
        (1, base), (4, base), (2, base.replace("lazy", "sleepy")),
        (3, "completely different content about ray data pipelines and arrow batches"),
        (7, "another unrelated document body entirely about parquet file readers"),
    ])
    t = near_dup_clusters(ds, threshold=0.5)
    rows = {r["doc_id"]: r for r in t.to_pylist()}
    # 1-2-4 form one family rooted at 1; 3 and 7 are singletons (absent)
    assert set(rows) == {1, 2, 4}
    assert all(r["component"] == 1 for r in rows.values())
    assert [d for d, r in rows.items() if r["keep"]] == [1]


def test_auto_partitions_scales_with_rows_and_cpus():
    """The exchange/verify fanout must grow with candidate volume
    instead of pinning at a constant (VERDICT r3 #4)."""
    from siteone_crawler_ray.stages.dedup import _auto_partitions

    base = _auto_partitions(None)
    assert base >= 8  # at least the floor / cluster CPU count
    assert _auto_partitions(10_000_000, rows_per_partition=250_000) >= 40
    assert _auto_partitions(100_000_000, rows_per_partition=50_000) >= 2000
    assert _auto_partitions(10**9) > _auto_partitions(10**6)


def test_reference_kernels_match_vectorized_signatures():
    """The scalar reference kernels (independent code path) must agree
    with the production kernels — this is what makes the
    content_signatures slot self-checking (VERDICT r3 #7)."""
    import pyarrow as pa

    from siteone_crawler_ray.functions import reference_kernels as RK
    from siteone_crawler_ray.stages.dedup import simhash_batch
    from siteone_crawler_ray.stages.textstats import fingerprints, langid

    texts = [
        "the quick brown fox and the lazy dog",
        "der hund und die katze ist nicht da",
        "",
        "one-token",
        "el que y en un es por con la de",
        "data span crawl page link " * 20,
        "x y " * 3 + "\t tab\nnewline mix",
    ]
    b = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    sim = simhash_batch(b)["simhash"].to_pylist()
    fp = fingerprints(b)
    full = fp["fingerprint"].to_pylist()
    win = fp["winnow_min"].to_pylist()
    lang = langid(b)["lang_pred"].to_pylist()
    for i, t in enumerate(texts):
        assert sim[i] == RK.simhash_ref(t), t
        assert full[i] == RK.fingerprint_ref(t), t
        assert win[i] == RK.winnow_min_ref(t), t
        assert lang[i] == RK.langid_ref(t), t


def test_signature_md5_backend_matches_duckdb_oracle():
    """The md5_u64 hash backend is the SQL-expressible twin of xxh64:
    the content_signatures slot runs with it so the driver gets a real
    DuckDB oracle.  Pin (a) vectorized-vs-scalar parity for the md5
    backend and (b) the full oracle SQL bit-for-bit on sf0.001."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from siteone_crawler_ray.functions import reference_kernels as RK
    from siteone_crawler_ray.functions.hashing import md5_u64, md5_u64_strings
    from siteone_crawler_ray.stages.dedup import simhash_batch
    from siteone_crawler_ray.stages.textstats import fingerprints

    texts = ["the quick brown fox", "", "wörds with ünïcode", "x y\tz\nmix  gap"]
    b = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    sim = simhash_batch(b, hasher=md5_u64_strings)["simhash"].to_pylist()
    fp = fingerprints(b, hasher=md5_u64_strings)
    for i, t in enumerate(texts):
        assert sim[i] == RK.simhash_ref(t, hasher=md5_u64), t
        assert fp["fingerprint"][i].as_py() == RK.fingerprint_ref(t, hasher=md5_u64), t
        assert fp["winnow_min"][i].as_py() == RK.winnow_min_ref(t, hasher=md5_u64), t

    sf = "/root/testdata/sf0.001"
    mine = (entry.queries()["content_signatures"](sf)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    oracle = (con.execute(entry.oracle_sql()["content_signatures"]).df()
              .sort_values("doc_id").reset_index(drop=True))
    assert len(mine) == len(oracle) > 0
    for c in ("doc_id", "simhash", "fingerprint", "winnow_min", "lang_pred"):
        assert (mine[c].to_numpy() == oracle[c].to_numpy()).all(), c


def test_dedup_cut_semantics():
    """Exact duplicate-substring REMOVAL (Lee et al. 2022 ExactSubstr
    cut step): the global first occurrence survives, every other
    occurrence is cut, overlapping removal windows merge, short and
    unique docs pass through untouched — including self-duplication
    inside one document."""
    import pyarrow as pa
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup import dedup_cut

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "xxABCDEFGHIJyy",        # global first (min doc_id)
            "ppABCDEFGHIJqq",        # duplicate → shared run cut
            "totally unique text.",  # untouched
            "short",                 # < k, untouched
            "zzzzzzzzzzzzzzzzaa",    # 16 z's → windows 0..8 identical
        ]),
    })
    out = {r["doc_id"]: r for r in
           dedup_cut(rd.from_arrow(docs).repartition(3), k=8).to_pylist()}
    assert set(out) == {0, 1, 2, 3, 4}
    assert out[0]["cleaned"] == "xxABCDEFGHIJyy" and out[0]["n_cut"] == 0
    # doc 1: windows at pos 2,3,4 (k=8 over the 10-char shared run) all
    # duplicate doc 0 → merged interval [2, 12) removed
    assert out[1]["cleaned"] == "ppqq" and out[1]["n_cut"] == 10
    assert out[2]["n_cut"] == 0 and out[3]["n_cut"] == 0
    # doc 4 self-dup: first window (pos 0) kept, pos 1..8 cut → [1, 16)
    assert out[4]["cleaned"] == "zaa" and out[4]["n_cut"] == 15
    # n_cut always equals the length delta
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for i, r in out.items():
        assert r["n_cut"] == len(texts[i]) - len(r["cleaned"])

    # non-ASCII docs take the scalar hash fallback; equal windows from
    # ASCII and non-ASCII docs must still collide (byte-level hash)
    uni = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["münchen ABCDEFGHIJ straße", "xxABCDEFGHIJyy"]),
    })
    out_u = {r["doc_id"]: r for r in
             dedup_cut(rd.from_arrow(uni), k=8).to_pylist()}
    assert out_u[0]["n_cut"] == 0  # doc 0 is the global first
    assert out_u[1]["cleaned"] == "xxyy" and out_u[1]["n_cut"] == 10


def test_dedup_cut_scatter_path_matches_broadcast(monkeypatch):
    """Forcing the 100-TB row-moves-once scatter path (threshold 0)
    must give byte-identical output to the broadcast path."""
    import pyarrow as pa
    import ray.data as rd

    from siteone_crawler_ray.stages import dedup

    docs = pa.table({
        "doc_id": pa.array(range(8), pa.int64()),
        "text": pa.array([
            "xxABCDEFGHIJyy", "ppABCDEFGHIJqq", "totally unique text.",
            "short", "zzzzzzzzzzzzzzzzaa", "another ABCDEFGHIJ hit",
            "no dups here at all!", "yet more filler words",
        ]),
    })
    want = dedup.dedup_cut(rd.from_arrow(docs).repartition(3), k=8).to_pylist()
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    got = dedup.dedup_cut(rd.from_arrow(docs).repartition(3), k=8).to_pylist()
    assert got == want
    assert any(r["n_cut"] > 0 for r in got)


def test_duplicated_window_counts_semantics():
    """Windowed exact-substring dup detection (Lee et al. 2022 shape):
    identical docs share every window; unique docs share none; short
    docs (< k) are excluded; hash-only mode matches exact mode here."""
    import pyarrow as pa
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup import duplicated_window_counts

    shared = "the quick brown fox jumps over the lazy dog " * 4  # 180 chars
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([shared, shared, "x" * 200, "tiny"]),
    })
    ds = rd.from_arrow(docs).repartition(2)
    t = duplicated_window_counts(ds, k=64, stride=16)
    rows = {r["doc_id"]: r for r in t.to_pylist()}
    assert set(rows) == {0, 1, 2}  # doc 3 has no window
    assert rows[0]["n_win"] == rows[1]["n_win"] > 0
    assert rows[0]["n_dup_win"] == rows[0]["n_win"]  # every window shared
    assert rows[1]["n_dup_win"] == rows[1]["n_win"]
    assert rows[2]["n_dup_win"] == 0  # unique content

    t2 = duplicated_window_counts(rd.from_arrow(docs).repartition(2),
                                  k=64, stride=16, verify_exact=False)
    assert t.to_pylist() == t2.to_pylist()

    # alignment caveat: same substring at offsets differing mod stride
    # is NOT detected (documented trade-off of stride sampling)
    off = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([shared, "abc" + shared]),
    })
    t3 = duplicated_window_counts(rd.from_arrow(off), k=64, stride=16)
    assert all(r["n_dup_win"] == 0 for r in t3.to_pylist())


def test_duplicated_window_counts_exchange_fallback(ray_session, monkeypatch):
    """Above the partial-row threshold the per-doc combine must chain a
    second key exchange on doc_id (the 100-TB path) — byte-identical
    to the driver combine."""
    import ray.data as rd

    import siteone_crawler_ray.stages.dedup as dd

    shared = "the quick brown fox jumps over the lazy dog " * 4
    texts = [shared if i % 3 == 0 else ("doc%04d " % i) * 30 for i in range(24)]
    docs = pa.table({"doc_id": pa.array(np.arange(24), pa.int64()),
                     "text": pa.array(texts, pa.string())})
    ds = rd.from_arrow([docs.slice(i, 6) for i in range(0, 24, 6)])
    want = dd.duplicated_window_counts(ds, k=64, stride=16)
    monkeypatch.setattr(dd, "_DRIVER_COMBINE_BYTES", 0)
    got = dd.duplicated_window_counts(
        rd.from_arrow([docs.slice(i, 6) for i in range(0, 24, 6)]), k=64, stride=16)
    assert want.equals(got)
    assert want.num_rows == 24 and sum(want["n_dup_win"].to_pylist()) > 0


def test_png_codec_roundtrip_and_filters():
    """Pure-Python PNG codec: round-trip for gray/RGB/RGBA, correct
    unfiltering of all five PNG row filters, magic-byte dispatch, and
    honest NotImplementedError for unsupported variants."""
    import struct
    import zlib

    import numpy as np
    import pytest as _pytest

    from siteone_crawler_ray.stages.multimodal import (
        _PNG_SIG,
        decode_image,
        decode_png,
        encode_png,
    )

    rng = np.random.default_rng(3)
    for shape in ((5, 7), (6, 4, 3), (3, 5, 4)):
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        got = decode_png(encode_png(px))
        want = px[:, :, None] if px.ndim == 2 else px
        assert (got == want).all(), shape

    # hand-filtered PNG exercising Sub/Up/Average/Paeth (our encoder
    # only emits None, so build the stream manually)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    h, w, c = img.shape
    flat = img.reshape(h, w * c).astype(np.int32)
    rows = []
    for y, f in enumerate([1, 2, 3, 4]):
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(w * c, np.int32)
        filt = np.zeros(w * c, np.int32)
        for x in range(w * c):
            a = cur[x - c] if x >= c else 0
            b = prev[x]
            cc = prev[x - c] if x >= c else 0
            if f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - cc
                pa_, pb, pcd = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb and pa_ <= pcd) else (b if pb <= pcd else cc)
            filt[x] = (cur[x] - pred) & 0xFF
        rows.append(bytes([f]) + bytes(filt.astype(np.uint8)))

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    payload = (_PNG_SIG
               + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
               + chunk(b"IDAT", zlib.compress(b"".join(rows)))
               + chunk(b"IEND", b""))
    assert (decode_png(payload) == img).all()
    assert (decode_image(payload) == img).all()  # magic dispatch

    with _pytest.raises(NotImplementedError):
        decode_png(b"JFIF not a png")
    bad = (_PNG_SIG + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(b"\x00" * 26)) + chunk(b"IEND", b""))
    with _pytest.raises(NotImplementedError):
        decode_png(bad)  # 16-bit depth unsupported


def test_image_decode_stage_handles_png(ray_session):
    """The real decoder stage accepts PNG payloads alongside BMP."""
    import numpy as np
    import pyarrow as pa

    from siteone_crawler_ray.stages.multimodal import ImageDecodeStage, encode_png

    px = np.full((10, 8, 3), 60, dtype=np.uint8)
    b = pa.table({"media_id": ["p1"], "payload": [encode_png(px)]})
    out = ImageDecodeStage(decoder="real")(b)
    r = out.to_pylist()[0]
    assert (r["width"], r["height"]) == (8, 10)
    assert abs(r["features"][0] - round(60 / 255.0, 6)) < 1e-9


def test_jpeg_codec_roundtrips_and_gates():
    """Pure-Python baseline JPEG codec (ITU-T T.81, Annex K tables):
    exact round-trip for constant-color at quality 100 (DC-only),
    bounded error on gradients, 4:2:0 + grayscale + restart intervals,
    honest NotImplementedError for progressive/arithmetic variants."""
    from siteone_crawler_ray.stages.multimodal import (
        decode_image, decode_jpeg, encode_jpeg)

    # constant color at q=100: all-ones quant tables, DC-only → EXACT
    for v in (0, 77, 128, 255):
        px = np.full((20, 28, 3), v, dtype=np.uint8)
        for sub in ("444", "420"):
            out = decode_jpeg(encode_jpeg(px, quality=100, subsampling=sub))
            assert out.shape == (20, 28, 3) and (out == px).all(), (v, sub)
    g = np.full((13, 17), 201, dtype=np.uint8)
    og = decode_jpeg(encode_jpeg(g, quality=100))
    assert og.shape == (13, 17, 1) and (og[:, :, 0] == g).all()

    # gradient content: lossy but tight at high quality
    grad = (np.add.outer(np.arange(40) * 3, np.arange(48) * 2) % 256).astype(np.uint8)
    img = np.stack([grad, grad[::-1], 255 - grad], axis=2)
    dec = decode_jpeg(encode_jpeg(img, quality=95, subsampling="444"))
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 8
    dec420 = decode_jpeg(encode_jpeg(img, quality=90, subsampling="420"))
    assert np.abs(dec420.astype(int) - img.astype(int)).max() <= 24  # chroma subsampled

    # restart intervals: DRI/RSTn stream decodes IDENTICALLY to plain
    a = decode_jpeg(encode_jpeg(img, quality=90))
    b = decode_jpeg(encode_jpeg(img, quality=90, restart_interval=3))
    assert (a == b).all()

    # magic-byte dispatch reaches the JPEG path
    assert (decode_image(encode_jpeg(img, quality=90)) == a).all()

    # honest gates: lossless (SOF3) and arithmetic (SOF9) rejected
    # (progressive SOF2 is now SUPPORTED — see
    # test_progressive_jpeg_matches_sequential)
    enc = bytearray(encode_jpeg(img))
    i = enc.find(b"\xff\xc0")
    for bad in (0xC3, 0xC9):
        enc[i + 1] = bad
        with pytest.raises(NotImplementedError):
            decode_jpeg(bytes(enc))
    with pytest.raises(NotImplementedError):
        decode_jpeg(b"\x89PNG\r\n\x1a\n")  # not a JPEG


def test_jpeg_dc_quantization_matches_closed_form():
    """At quality 25 the Annex-K luminance DC step is 32; a constant
    gray image must reconstruct to clamp(round(round(8c/32)*32/8)+128)
    — the closed-form DC path, proving quantization plumbing end to
    end (not just the q=100 identity).  Values are chosen with
    (v-128) % 4 ∈ {1, 3} so 8c/32 never lands on a .5 tie (tie
    direction would depend on float DCT noise)."""
    from siteone_crawler_ray.stages.multimodal import decode_jpeg, encode_jpeg

    for v in (5, 77, 131, 199, 251):
        assert (v - 128) % 4 in (1, 3)
        px = np.full((8, 8), v, dtype=np.uint8)
        out = decode_jpeg(encode_jpeg(px, quality=25))
        c = v - 128
        expect = int(np.clip(np.rint(np.rint(8 * c / 32) * 32 / 8.0) + 128, 0, 255))
        assert int(out[0, 0, 0]) == expect, (v, int(out[0, 0, 0]), expect)
        assert (out == out[0, 0, 0]).all()
        assert expect != v  # quantization actually quantized


def test_gif_codec_roundtrips_and_gates():
    """Pure-Python GIF89a codec: lossless round-trip for palette
    images (sequential AND interlaced), LZW dictionary overflow with
    mid-stream clear, magic-byte dispatch, honest gates for >256
    colors and non-GIF payloads."""
    from siteone_crawler_ray.stages.multimodal import (
        decode_gif, decode_image, encode_gif)

    rng = np.random.default_rng(11)
    pal = rng.integers(0, 256, size=(13, 3), dtype=np.uint8)
    px = pal[rng.integers(0, 13, size=(21, 33))]
    for il in (False, True):
        out = decode_gif(encode_gif(px, interlace=il))
        assert out.shape == px.shape and (out == px).all(), il

    # grayscale input → replicated channels
    g = rng.integers(0, 200, size=(9, 14), dtype=np.uint8)
    og = decode_gif(encode_gif(g))
    assert og.shape == (9, 14, 3) and (og == np.stack([g] * 3, axis=2)).all()

    # 256-color random noise forces >4096 LZW entries → clear/restart path
    noise = rng.integers(0, 256, size=(120, 160), dtype=np.uint8)
    big = np.stack([noise] * 3, axis=2)
    assert (decode_gif(encode_gif(big)) == big).all()
    assert (decode_gif(encode_gif(big, interlace=True)) == big).all()

    # extension blocks (e.g. GCE) are skipped: splice one in by hand
    enc = bytearray(encode_gif(px))
    desc = enc.find(b"\x2c", 13)  # image descriptor after header+GCT
    gce = b"\x21\xf9\x04\x00\x00\x00\x00\x00"
    spliced = bytes(enc[:desc]) + gce + bytes(enc[desc:])
    assert (decode_gif(spliced) == px).all()

    # magic-byte dispatch reaches the GIF path
    assert (decode_image(encode_gif(px)) == px).all()

    # honest gates
    many = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    with pytest.raises(NotImplementedError):
        encode_gif(many)  # ~1k distinct colors
    with pytest.raises(NotImplementedError):
        decode_gif(b"\x89PNG\r\n\x1a\n")


def test_semantic_dedup_matches_bruteforce_and_partitioning():
    """SemDeDup-shape semantic dedup (stages/dedup.semantic_dedup):
    centroid argmax assignment + within-cluster earlier-id similar
    counts match a scalar brute force, are partition-count-invariant,
    and flag a planted near-identical pair."""
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup import semantic_dedup

    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(90, 12))
    vecs[41] = vecs[14] * 1.7 + rng.normal(scale=1e-4, size=12)  # same direction
    ids = np.arange(90, dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(list(vecs), pa.list_(pa.float64()))})
    ds = rd.from_arrow([t.slice(i, 16) for i in range(0, 90, 16)])

    out = semantic_dedup(ds, centroid_mod=11, threshold=0.9)
    assert out["vec_id"].to_pylist() == list(range(90))

    # scalar reference
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cids = ids[ids % 11 == 0]
    cl = cids[np.argmax(m @ m[cids].T, axis=1)]
    nsim = np.array([int((((m[(cl == cl[j]) & (ids < j)]) @ m[j]) >= 0.9).sum())
                     for j in range(90)])
    assert out["cluster"].to_pylist() == cl.tolist()
    assert out["n_sim_earlier"].to_pylist() == nsim.tolist()

    # the planted pair lands in one cluster and is flagged exactly once
    assert cl[41] == cl[14] and nsim[41] >= 1

    # partition independence of the cluster exchange
    for P in (1, 3, 7):
        alt = semantic_dedup(ds, centroid_mod=11, threshold=0.9, num_partitions=P)
        assert alt.equals(out), P


def test_webp_codec_roundtrips_and_gates():
    """Pure-Python VP8L (lossless WebP) codec: lossless round-trip
    through every decoder path — all 14 predictor modes, the color
    transform, subtract-green, color-indexing with pixel bundling at
    every width, color cache, LZ77 backward references (plane-mapped
    and plain distances), meta prefix groups — plus honest gates for
    lossy VP8 and non-WebP payloads."""
    from siteone_crawler_ray.stages.codec_webp import decode_webp, encode_webp
    from siteone_crawler_ray.stages.multimodal import decode_image

    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, size=(21, 29, 3), dtype=np.uint8)

    for mode in range(14):
        enc = encode_webp(img, transform="predictor", predictor_mode=mode,
                          predictor_bits=3)
        assert (decode_webp(enc) == img).all(), f"predictor {mode}"

    for elem in ((0, 0, 0), (16, 240, 37), (255, 128, 1)):
        enc = encode_webp(img, transform="color", color_element=elem)
        assert (decode_webp(enc) == img).all(), elem

    assert (decode_webp(encode_webp(img, transform="subtract_green")) == img).all()

    for ncol in (2, 5, 14, 100):  # bundling: 8/4/2/1 pixels per unit
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        pimg = pal[rng.integers(0, ncol, size=(13, 22))]
        assert (decode_webp(encode_webp(pimg, transform="palette")) == pimg).all(), ncol

    rep = np.tile(rng.integers(0, 256, size=(4, 8, 3), dtype=np.uint8), (5, 4, 1))
    enc = encode_webp(rep, transform="none", cache_bits=5, use_lz77=True, meta_bits=2)
    assert (decode_webp(enc) == rep).all()

    rgba = rng.integers(0, 256, size=(9, 7, 4), dtype=np.uint8)
    out = decode_webp(encode_webp(rgba, transform="none"))
    assert out.shape == (9, 7, 4) and (out == rgba).all()

    # magic-byte dispatch reaches the WebP path
    const = np.full((10, 10, 3), 42, np.uint8)
    assert (decode_image(encode_webp(const)) == const).all()

    # honest gates: lossy VP8 chunk, non-WebP RIFF, non-RIFF
    lossy = b"RIFF" + (20).to_bytes(4, "little") + b"WEBPVP8 " + (8).to_bytes(4, "little") + b"\0" * 8
    with pytest.raises(NotImplementedError):
        decode_webp(lossy)
    with pytest.raises(NotImplementedError):
        decode_webp(b"RIFF\x04\x00\x00\x00WAVE")
    with pytest.raises(NotImplementedError):
        decode_webp(b"\x89PNG\r\n\x1a\n")


def test_flac_codec_roundtrips_and_gates():
    """Pure-Python FLAC codec (RFC 9639): lossless round-trip through
    every decoder path — fixed orders 0-4, LPC, verbatim, constant,
    Rice partitions, all four stereo assignments, multi-byte UTF-8
    frame numbers — with CRC-8/CRC-16 verified on decode; honest gate
    for non-FLAC payloads."""
    from siteone_crawler_ray.stages.codec_flac import decode_flac, encode_flac
    from siteone_crawler_ray.stages.multimodal import decode_audio

    rng = np.random.default_rng(6)
    s = rng.integers(-30000, 30000, size=2501, dtype=np.int16).astype(np.int64)

    for order in range(5):
        rate, ch, back = decode_flac(encode_flac(s, 8000, fixed_order=order,
                                                 block_size=512))
        assert rate == 8000 and ch == 1 and np.array_equal(back, s), order

    rate, _, back = decode_flac(encode_flac(s, 44100, subframe="verbatim",
                                            block_size=777))
    assert rate == 44100 and np.array_equal(back, s)

    const = np.full(1024, -77, np.int64)
    assert np.array_equal(decode_flac(encode_flac(const, 8000, block_size=256))[2], const)

    for coefs, shift in (((3, -2), 1), ((5, -9, 5, -1), 2)):
        _, _, back = decode_flac(encode_flac(s, 8000, subframe="lpc",
                                             lpc_coefs=coefs, lpc_shift=shift,
                                             block_size=640))
        assert np.array_equal(back, s), coefs

    _, _, back = decode_flac(encode_flac(s[:2048], 8000, fixed_order=2,
                                         block_size=1024, partition_order=3))
    assert np.array_equal(back, s[:2048])

    st = rng.integers(-30000, 30000, size=(901, 2), dtype=np.int16).astype(np.int64)
    for mode in ("indep", "left_side", "right_side", "mid_side"):
        _, ch, back = decode_flac(encode_flac(st, 8000, stereo_mode=mode,
                                              block_size=300))
        assert ch == 2 and np.array_equal(back, st), mode

    # magic dispatch + duration semantics via the shared audio entry
    rate, ch, flat = decode_audio(encode_flac(s, 8000))
    assert rate == 8000 and np.array_equal(flat, s)

    with pytest.raises(NotImplementedError):
        decode_flac(b"OggS\x00\x00")
    with pytest.raises(NotImplementedError):
        decode_audio(b"ID3\x04\x00\x00")  # MP3 with ID3 tag


def test_ico_codec_roundtrips_and_gates():
    """ICO favicon container: PNG entries and 32-bit DIB entries with
    the doubled-height header + AND mask round-trip; 24-bit DIB
    decodes; unsupported depths and non-ICO payloads raise."""
    from siteone_crawler_ray.stages.multimodal import (
        decode_ico, decode_image, encode_ico)

    rng = np.random.default_rng(21)
    px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)

    assert (decode_ico(encode_ico(px)) == px).all()              # 32-bit DIB
    assert (decode_ico(encode_ico(px, as_png=True)) == px).all()  # PNG entry
    assert (decode_image(encode_ico(px)) == px).all()             # dispatch

    # RGBA with a transparent region survives via the alpha channel
    rgba = np.concatenate([px, np.full((16, 16, 1), 255, np.uint8)], axis=2)
    rgba[:4, :4, 3] = 0
    out = decode_ico(encode_ico(rgba))
    assert out.shape == (16, 16, 4) and (out == rgba).all()

    # odd width exercises AND-mask row alignment
    wide = rng.integers(0, 256, size=(5, 33, 3), dtype=np.uint8)
    assert (decode_ico(encode_ico(wide)) == wide).all()

    with pytest.raises(NotImplementedError):
        decode_ico(b"\x00\x00\x02\x00" + b"\x00" * 30)  # cursor, not icon
    with pytest.raises(NotImplementedError):
        decode_ico(b"GIF89a")


def test_mp4_codec_roundtrips_and_gates():
    """MP4/ISO-BMFF container: the decoder reconstructs frame byte
    ranges by expanding stsc runs against stco/co64 + stsz, and
    timestamps from stts; the encoder drives multi-chunk, variable-
    size, fixed-size and 64-bit-offset layouts.  Frame payloads stay
    opaque; fragmented / non-BMFF payloads raise."""
    from siteone_crawler_ray.stages.codec_mp4 import decode_mp4, encode_mp4

    # variable sizes, odd frame count → two-run stsc (tail chunk short)
    frames = [bytes([k] * s) for k, s in enumerate([10, 20, 30, 40, 50])]
    d = decode_mp4(encode_mp4(frames, fps=10, timescale=1000))
    assert d["frames"] == frames
    assert d["timestamps"] == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert d["duration_sec"] == 0.5
    assert d["sync"] == [True, False, True, False, True]
    assert d["codec"] == "mp4v" and (d["width"], d["height"]) == (16, 16)

    # fixed-size stsz, even count, 4-per-chunk, 64-bit co64 offsets
    frames2 = [bytes([7] * 64)] * 6
    d2 = decode_mp4(encode_mp4(frames2, fps=25, timescale=100,
                               use_co64=True, frames_per_chunk=4))
    assert d2["frames"] == frames2 and abs(d2["duration_sec"] - 0.24) < 1e-9

    # single frame
    d3 = decode_mp4(encode_mp4([b"x" * 5], fps=1, timescale=10))
    assert d3["frames"] == [b"x" * 5] and d3["duration_sec"] == 1.0

    with pytest.raises(NotImplementedError):
        decode_mp4(b"\x00" * 20)  # not BMFF
    with pytest.raises(NotImplementedError):  # fragmented
        moof = struct.pack(">I", 8) + b"moof"
        decode_mp4(struct.pack(">I", 16) + b"ftypisom" + b"\x00" * 4 + moof)


def test_video_frame_sample_real_matches_analytic():
    """The real MP4 path of VideoFrameSampleStage returns the exact
    opaque frame bytes, container timestamps and mdhd duration the
    analytic corpus encodes (synthesize_real_media_table: 10 fps,
    3+(i%5) frames of 256 bytes, byte j of frame f = (i+256f+j)%256)."""
    import pyarrow.compute as pc

    from siteone_crawler_ray.stages.multimodal import (
        VideoFrameSampleStage, synthesize_real_media_table)

    t = synthesize_real_media_table(30)
    vid = t.filter(pc.equal(pc.field("kind"), "video"))
    out = VideoFrameSampleStage(decoder="real", frames=8)(vid)
    assert out.num_rows == sum(3 + (int(m[1:]) % 5)
                               for m in vid["media_id"].to_pylist())
    for mid, k, f, ts, du in zip(out["media_id"].to_pylist(),
                                 out["frame_index"].to_pylist(),
                                 out["frame"].to_pylist(),
                                 out["timestamp_sec"].to_pylist(),
                                 out["duration_sec"].to_pylist()):
        i = int(mid[1:])
        assert f == bytes((i + 256 * k + j) % 256 for j in range(256))
        assert abs(ts - k * 0.1) < 1e-9
        assert abs(du - (3 + i % 5) * 0.1) < 1e-9


def test_progressive_jpeg_matches_sequential():
    """Progressive (SOF2) encoding carries the identical quantized
    coefficients as sequential, so decode output must match the
    sequential file bit-for-bit — across gray/color, 4:4:4/4:2:0,
    odd sizes and qualities.  Every successive-approximation decoder
    path (DC first/refine, AC first, two AC refinement sweeps, EOB
    runs, ZRL-with-correction-bits) is exercised by random content."""
    from siteone_crawler_ray.stages.multimodal import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(7)
    cases = [
        ((16, 16), {}),
        ((24, 17), {}),
        ((21, 13, 3), {"subsampling": "444"}),
        ((19, 27, 3), {"subsampling": "420"}),
        ((48, 40, 3), {"subsampling": "420"}),
    ]
    for shape, kw in cases:
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for q in (50, 90, 100):
            seq = decode_jpeg(encode_jpeg(px, quality=q, **kw))
            prog = decode_jpeg(encode_jpeg(px, quality=q, progressive=True, **kw))
            assert (seq == prog).all(), (shape, kw, q)

    # constant color at q100 is DC-only and round-trips EXACTLY
    px = np.full((20, 28, 3), 143, np.uint8)
    assert (decode_jpeg(encode_jpeg(px, quality=100, progressive=True)) == px).all()

    with pytest.raises(ValueError):
        encode_jpeg(px, progressive=True, restart_interval=4)


def test_tiff_codec_roundtrips_and_gates():
    """Baseline TIFF 6.0: lossless round-trip through every decoder
    path — gray/RGB/RGBA, uncompressed and PackBits, single- and
    multi-strip, both byte orders (big-endian via a byte-swapped
    re-emit), WhiteIsZero inversion — plus honest gates for LZW,
    16-bit samples and non-TIFF payloads."""
    import struct

    from siteone_crawler_ray.stages.codec_tiff import decode_tiff, encode_tiff
    from siteone_crawler_ray.stages.multimodal import decode_image

    rng = np.random.default_rng(17)
    for shape in ((12, 16), (13, 17, 3), (8, 9, 4)):
        for comp in (1, 32773):
            for rps in (4, 1000):
                px = rng.integers(0, 256, size=shape, dtype=np.uint8)
                dec = decode_tiff(encode_tiff(px, compression=comp,
                                              rows_per_strip=rps))
                want = px if px.ndim == 3 else px[:, :, None]
                assert dec.shape == want.shape and (dec == want).all(), \
                    (shape, comp, rps)

    # PackBits must survive run-heavy rows (the constant media-cycle
    # case) and stay smaller than raw there
    const = np.full((32, 48, 3), 99, np.uint8)
    rle = encode_tiff(const, compression=32773)
    assert (decode_tiff(rle) == const).all()
    assert len(rle) < len(encode_tiff(const, compression=1))

    # big-endian decode: swap the header/IFD scalars of a LE file
    px = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    le = bytearray(encode_tiff(px, compression=1, rows_per_strip=1000))
    (ifd,) = struct.unpack_from("<I", le, 4)
    (n,) = struct.unpack_from("<H", le, ifd)
    be = bytearray(le)
    be[0:4] = b"MM\x00*"
    struct.pack_into(">I", be, 4, ifd)
    struct.pack_into(">H", be, ifd, n)
    for k in range(n):
        off = ifd + 2 + 12 * k
        tag, typ, cnt = struct.unpack_from("<HHI", le, off)
        struct.pack_into(">HHI", be, off, tag, typ, cnt)
        if typ == 3 and cnt == 1:
            (v,) = struct.unpack_from("<H", le, off + 8)
            struct.pack_into(">H", be, off + 8, v)
        elif typ == 3 and cnt == 2:
            v = struct.unpack_from("<HH", le, off + 8)
            struct.pack_into(">HH", be, off + 8, *v)
        elif typ == 3 and cnt > 2:
            (v,) = struct.unpack_from("<I", le, off + 8)
            struct.pack_into(">I", be, off + 8, v)
            for e in range(cnt):
                (x,) = struct.unpack_from("<H", le, v + 2 * e)
                struct.pack_into(">H", be, v + 2 * e, x)
        else:  # LONG scalar (single-strip offsets/counts fit inline)
            (v,) = struct.unpack_from("<I", le, off + 8)
            struct.pack_into(">I", be, off + 8, v)
    struct.pack_into(">I", be, ifd + 2 + 12 * n, 0)
    assert (decode_tiff(bytes(be)) == px) .all()

    # WhiteIsZero (photometric 0) inverts on return
    gray = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
    buf = bytearray(encode_tiff(gray))
    (ifd,) = struct.unpack_from("<I", buf, 4)
    (n,) = struct.unpack_from("<H", buf, ifd)
    for k in range(n):
        off = ifd + 2 + 12 * k
        if struct.unpack_from("<H", buf, off)[0] == 262:
            struct.pack_into("<H", buf, off + 8, 0)
    assert (decode_tiff(bytes(buf)) == (255 - gray)[:, :, None]).all()

    # magic-byte dispatch reaches the TIFF path
    assert (decode_image(encode_tiff(const)) == const).all()

    # honest gates: LZW compression, 16-bit samples, non-TIFF
    lzw = bytearray(encode_tiff(const))
    (ifd,) = struct.unpack_from("<I", lzw, 4)
    (n,) = struct.unpack_from("<H", lzw, ifd)
    for k in range(n):
        off = ifd + 2 + 12 * k
        if struct.unpack_from("<H", lzw, off)[0] == 259:
            struct.pack_into("<H", lzw, off + 8, 5)  # LZW
    with pytest.raises(NotImplementedError):
        decode_tiff(bytes(lzw))
    with pytest.raises(NotImplementedError):
        encode_tiff(const.astype(np.uint16))
    with pytest.raises(NotImplementedError):
        decode_tiff(b"\x89PNG\r\n\x1a\n")
    with pytest.raises(NotImplementedError):
        decode_image(b"II*\x01junk")  # near-miss magic falls to the gate


def test_aiff_codec_roundtrips_and_gates():
    """FORM/AIFF 16-bit PCM: round-trip including the 80-bit extended
    sample-rate field across magnitudes, chunk-walk with padding,
    AIFC NONE acceptance; compression and bit-depth gates."""
    import struct

    from siteone_crawler_ray.stages.multimodal import (
        _f80_decode, _f80_encode, decode_aiff, decode_audio, encode_aiff)

    for rate in (1, 8000, 11025, 44100, 48000, 192000):
        assert _f80_decode(_f80_encode(rate)) == rate, rate

    rng = np.random.default_rng(23)
    s = rng.integers(-30000, 30000, size=1001, dtype=np.int16)
    rate, ch, back = decode_aiff(encode_aiff(s, 11025))
    assert rate == 11025 and ch == 1 and np.array_equal(back, s)

    # odd-sized chunk before SSND exercises the word-alignment walk
    enc = encode_aiff(s, 8000)
    with_anno = (enc[:12] + b"ANNO" + struct.pack(">I", 3) + b"hi!\x00"
                 + enc[12:])
    with_anno = (b"FORM"
                 + struct.pack(">I", len(with_anno) - 8) + with_anno[8:])
    rate, ch, back = decode_aiff(with_anno)
    assert rate == 8000 and np.array_equal(back, s)

    # shared dispatch entry
    rate, ch, flat = decode_audio(encode_aiff(s, 8000))
    assert rate == 8000 and np.array_equal(flat, s)

    # gates: AIFC with real compression, 8-bit samples, non-AIFF FORM
    aifc = bytearray(encode_aiff(s, 8000))
    aifc[8:12] = b"AIFC"
    comm_at = bytes(aifc).find(b"COMM")
    grown = (bytes(aifc[:comm_at + 4])
             + struct.pack(">I", 22)
             + bytes(aifc[comm_at + 8 : comm_at + 8 + 18]) + b"ima4"
             + bytes(aifc[comm_at + 8 + 18 :]))
    with pytest.raises(NotImplementedError):
        decode_aiff(grown)
    bad_bits = bytearray(encode_aiff(s, 8000))
    struct.pack_into(">H", bad_bits, bad_bits.find(b"COMM") + 8 + 6, 8)
    with pytest.raises(NotImplementedError):
        decode_aiff(bytes(bad_bits))
    with pytest.raises(NotImplementedError):
        decode_aiff(b"FORM\x00\x00\x00\x04AIFX")
    with pytest.raises(NotImplementedError):
        decode_audio(b"OggS\x00\x00")


def test_avi_codec_roundtrips_and_gates():
    """AVI 1.0 container: RIFF hdrl/movi/idx1 walk with word-aligned
    odd-length frames, with/without the idx1 index, audio-stream
    skipping; OpenDML, index disagreement and non-AVI payloads raise."""
    import struct

    from siteone_crawler_ray.stages.codec_avi import decode_avi, encode_avi
    from siteone_crawler_ray.stages.multimodal import decode_video

    frames = [bytes((i * 7 + j) % 256 for j in range(100 + i))
              for i in range(7)]  # mixed parity → alignment exercised
    for widx in (True, False):
        d = decode_avi(encode_avi(frames, fps=10, width=32, height=24,
                                  write_index=widx))
        assert d["frames"] == frames and d["n_frames"] == 7
        assert abs(d["duration_sec"] - 0.7) < 1e-9
        assert d["timestamps"][:2] == [0.0, 0.1]
        assert (d["width"], d["height"]) == (32, 24) and d["codec"] == "mjpg"

    # shared dispatch reaches both containers
    from siteone_crawler_ray.stages.codec_mp4 import encode_mp4
    assert decode_video(encode_avi(frames, fps=10))["frames"] == frames
    assert decode_video(encode_mp4(frames, fps=10,
                                   timescale=1000))["frames"] == frames

    # a second (audio) stream header must not steal the vids stream
    avi = encode_avi(frames, fps=10)
    strl_at = avi.find(b"strl")
    auds_strh = (b"strh" + struct.pack("<I", 56) + b"auds" + b"\x00" * 52)
    auds_strl = (b"LIST" + struct.pack("<I", 4 + len(auds_strh))
                 + b"strl" + auds_strh)
    hdrl_at = avi.find(b"hdrl")
    # splice the audio strl after the video strl inside hdrl
    strl_size = struct.unpack("<I", avi[strl_at - 4 : strl_at])[0]
    insert_at = strl_at + strl_size
    grown = bytearray(avi[:insert_at] + auds_strl + avi[insert_at:])
    for at, delta in ((4, len(auds_strl)), (hdrl_at - 4, len(auds_strl))):
        (sz,) = struct.unpack("<I", grown[at : at + 4])
        struct.pack_into("<I", grown, at, sz + delta)
    d = decode_avi(bytes(grown))
    assert d["frames"] == frames and d["codec"] == "mjpg"

    # gates: OpenDML AVIX, idx1 mismatch, non-AVI RIFF, non-RIFF
    avix = bytearray(encode_avi(frames, fps=10))
    movi_kind = avix.find(b"movi")
    avix[movi_kind : movi_kind + 4] = b"AVIX"
    with pytest.raises(NotImplementedError):
        decode_avi(bytes(avix))
    short_idx = bytearray(encode_avi(frames, fps=10, write_index=True))
    idx_at = short_idx.find(b"idx1")
    (isz,) = struct.unpack("<I", short_idx[idx_at + 4 : idx_at + 8])
    struct.pack_into("<I", short_idx, idx_at + 4, isz - 16)  # drop an entry
    del short_idx[idx_at + 8 + isz - 16 : idx_at + 8 + isz]
    (tot,) = struct.unpack("<I", short_idx[4:8])
    struct.pack_into("<I", short_idx, 4, tot - 16)
    with pytest.raises(NotImplementedError):
        decode_avi(bytes(short_idx))
    with pytest.raises(NotImplementedError):
        decode_avi(b"RIFF\x04\x00\x00\x00WAVE")
    with pytest.raises(NotImplementedError):
        decode_video(b"\x1aE\xdf\xa3webm")  # EBML/MKV stays gated


def test_mkv_probe_walks_ebml_and_gates():
    """Matroska/WebM EBML walk: varint IDs/sizes incl. unknown-size
    Segment, DocType, TimecodeScale + float Duration (with last-block
    fallback), track metadata for video and audio, cluster/SimpleBlock
    accounting, frame extraction through decode_video; lacing and
    non-EBML payloads raise."""
    from siteone_crawler_ray.stages.codec_mkv import (
        decode_mkv, probe_mkv, synthesize_mkv)
    from siteone_crawler_ray.stages.multimodal import decode_video

    p = probe_mkv(synthesize_mkv(6, 4))
    assert p["doctype"] == "webm" and p["n_clusters"] == 6
    assert p["n_blocks"] == 24 and abs(p["duration_sec"] - 3.0) < 1e-9
    assert p["tracks"][0] == {"type": "video", "codec": "V_VP8",
                              "width": 64, "height": 48}

    p = probe_mkv(synthesize_mkv(4, 2, with_audio=True,
                                 duration_element=False,
                                 unknown_segment_size=True))
    assert len(p["tracks"]) == 2 and p["tracks"][1]["codec"] == "A_OPUS"
    assert p["tracks"][1]["sample_rate"] == 48000.0
    assert abs(p["duration_sec"] - 1.75) < 1e-9  # last-block fallback

    # frame extraction contract, through the shared dispatch
    frames = [bytes((k + j) % 256 for j in range(80)) for k in range(5)]
    enc = synthesize_mkv(1, 5, cluster_ms=500, frames=frames)
    d = decode_video(enc)
    assert d["frames"] == frames and abs(d["duration_sec"] - 0.5) < 1e-9
    assert d["timestamps"][:2] == [0.0, 0.1]

    # a laced SimpleBlock gates frame extraction but not the probe
    laced = bytearray(synthesize_mkv(1, 1, cluster_ms=100))
    cluster_at = laced.find(bytes.fromhex("1F43B675"))
    at = laced.find(b"\xa3", cluster_at)  # SimpleBlock id inside Cluster
    # flags byte sits after id(1) + size-vint(4) + track-vint(1) + s16(2)
    laced[at + 1 + 4 + 1 + 2] |= 0x02  # Xiph lacing
    laced[at + 1 + 4 + 1 + 3] = 0  # frame count - 1
    assert probe_mkv(bytes(laced))["has_lacing"]
    with pytest.raises(NotImplementedError):
        decode_mkv(bytes(laced))

    for b in (b"", b"\x00\x00\x00\x00", b"RIFF\x00\x00\x00\x00AVI "):
        with pytest.raises(NotImplementedError):
            probe_mkv(b)


def test_bm25_topk_matches_scalar_reference():
    """bm25_topk vs an independent per-doc scalar BM25 (Lucene idf)."""
    import math

    from siteone_crawler_ray.stages.retrieval import B, K1, bm25_topk

    rows = [
        (1, "spark sort merge join hash"),
        (2, "sort sort sort table scan"),
        (3, "completely unrelated words here"),
        (4, "spark spark merge"),
        (5, "hash table table table scan scan"),
        (6, "merge"),
    ]
    queries = ["spark merge", "table scan"]
    out = bm25_topk(lambda: _docs_ds(rows), queries, k=3)

    # scalar reference: plain dict/loop implementation, no shared code
    docs = {i: t.split(" ") for i, t in rows}
    n = len(docs)
    avgdl = sum(len(v) for v in docs.values()) / n
    expect = {}
    for q in queries:
        scores = []
        for d, toks in docs.items():
            s = 0.0
            for t in q.split(" "):
                tf = toks.count(t)
                df = sum(1 for v in docs.values() if t in v)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                s += idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * len(toks) / avgdl))
            micro = int(math.floor(abs(s) * 1e6 + 0.5))
            if micro > 0:
                scores.append((-micro, d))
        expect[q] = [(d, -m) for m, d in sorted(scores)[:3]]
    got = {q: [] for q in queries}
    for q, d, m in zip(out["query"].to_pylist(), out["doc_id"].to_pylist(),
                       out["score_micro"].to_pylist()):
        got[q].append((d, m))
    assert got == expect


def test_bm25_topk_empty_and_absent_terms():
    from siteone_crawler_ray.stages.retrieval import bm25_topk

    out = bm25_topk(lambda: _docs_ds([(1, "a b c"), (2, "d e")]),
                    ["zz yy"], k=5)
    assert out.num_rows == 0
    assert out.column_names == ["query", "doc_id", "score_micro"]


def test_importance_weights_scalar_reference():
    """importance_weights vs a plain dict/loop DSIR estimator."""
    import math

    from siteone_crawler_ray.stages.textstats import importance_weights, unigram_model

    rows = [(0, "aa bb aa"), (1, "cc dd"), (2, "aa aa"), (5, "bb cc"),
            (10, "aa bb cc dd ee")]
    target_rows = [r for r in rows if r[0] % 5 == 0]
    t_model = unigram_model(_docs_ds(target_rows))
    r_model = unigram_model(_docs_ds(rows))

    # scalar reference built independently
    def model(rs):
        toks = [t for _, s in rs for t in s.split(" ")]
        n = len(toks)
        cnt = {}
        for t in toks:
            cnt[t] = cnt.get(t, 0) + 1
        return ({t: math.log(c / n) for t, c in cnt.items()}, math.log(0.5 / n))

    (lp_t, oov_t), (lp_r, oov_r) = model(target_rows), model(rows)
    tab = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string())})
    got = dict(zip(importance_weights(tab, t_model, r_model)["doc_id"].to_pylist(),
                   importance_weights(tab, t_model, r_model)["iw"].to_pylist()))
    for d, s in rows:
        w = sum(lp_t.get(t, oov_t) - lp_r.get(t, oov_r) for t in s.split(" "))
        assert abs(got[d] - round(w, 6)) < 2e-6, (d, got[d], w)


def test_dsir_select_prefers_target_like_docs(tmp_path):
    """Docs made of target-split vocabulary outrank off-distribution docs."""
    import pyarrow.parquet as pq

    from siteone_crawler_ray.pipelines.curation import dsir_select

    # target split = doc_id % 5 == 0 speaks only 'aa bb'; others 'zz yy'
    rows = []
    for i in range(40):
        txt = "aa bb aa bb" if i % 5 == 0 else "zz yy zz yy"
        rows.append((i, txt, "src0", len(txt)))
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string()),
                  "lang": pa.array(["en"] * len(rows), pa.string()),
                  "source": pa.array([r[2] for r in rows], pa.string()),
                  "n_chars": pa.array([r[3] for r in rows], pa.int64())})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = dsir_select(str(tmp_path), n_select=8)
    # all 8 selected docs are the target-vocabulary ones
    assert all(d % 5 == 0 for d in out["doc_id"].to_pylist())
    assert out.num_rows == 8


def test_bm25_block_partials_match_single_block():
    """Per-block top-k partial merge == single-block answer."""
    import ray.data as rd

    from siteone_crawler_ray.stages.retrieval import bm25_topk

    rows = [(i, ("spark " * (i % 4) + "merge " * (i % 3) + "filler word") .strip())
            for i in range(60)]
    tab = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string())})
    one = bm25_topk(lambda: rd.from_arrow(tab), ["spark merge"], k=10)
    many = bm25_topk(
        lambda: rd.from_arrow([tab.slice(i * 12, 12) for i in range(5)]),
        ["spark merge"], k=10)
    assert one.to_pydict() == many.to_pydict()


def test_semantic_dedup_with_kmeans_centroids(ray_session):
    """The paper's learned-centroid form: k-means centroids trained on
    a distributed sample plug into semantic_dedup; output matches an
    all-local numpy reference (argmax assign -> per-cluster
    lower-triangular count)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup import semantic_dedup
    from siteone_crawler_ray.stages.similarity import (
        _normalize,
        kmeans_centroids,
        sample_vectors,
    )

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    nb = 5
    step = -(-t.num_rows // nb)
    blocks = [t.slice(i * step, step) for i in range(nb)]
    ds = rd.from_arrow(blocks)

    cent = kmeans_centroids(_normalize(sample_vectors(ds, n=256)), nlist=6, iters=4)
    out = semantic_dedup(rd.from_arrow(blocks), threshold=0.8,
                         centroids=cent, num_partitions=3)

    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    m = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    order = np.argsort(ids)
    ids, m = ids[order], m[order]
    cl = np.argmax(m @ cent.T, axis=1)
    n_sim = np.zeros(len(ids), np.int64)
    for c in np.unique(cl):
        sel = np.nonzero(cl == c)[0]  # ids sorted -> earlier id = lower row
        cos = m[sel] @ m[sel].T
        n_sim[sel] = np.tril(cos >= 0.8, k=-1).sum(axis=1)

    assert out["vec_id"].to_pylist() == ids.tolist()
    assert out["cluster"].to_pylist() == cl.tolist()
    assert out["n_sim_earlier"].to_pylist() == n_sim.tolist()
    assert set(out["cluster"].to_pylist()) <= set(range(6))


def test_compression_ratio_matches_stdlib(ray_session):
    import zlib

    import ray.data as rd

    from siteone_crawler_ray.stages.textstats import compression_ratio

    texts = ["the quick brown fox jumps over the lazy dog",
             "spam spam spam spam spam spam spam spam spam spam",
             "", "a", "x y z " * 200]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = rd.from_arrow(t).map_batches(
        compression_ratio, batch_format="pyarrow").take_all()
    by_id = {r["doc_id"]: r["zlib_ratio"] for r in got}
    for i, s in enumerate(texts):
        want = (round(len(zlib.compress(s.encode(), 6)) / len(s.encode()), 6)
                if s else 0.0)
        assert by_id[i] == want, (i, by_id[i], want)
    # the redundant doc compresses much better than prose
    assert by_id[1] < by_id[0]
    assert by_id[4] < by_id[0]
