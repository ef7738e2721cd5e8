"""curation_run's pass structure: one Ray Data execution per pass over
the rows, the same output through the sharded decontamination branch,
the near-dup drop rule for signed ids, and the blocked MinHash kernel
against its per-permutation formula."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siteone_crawler_ray.stages import dedup


def _words(rng, k, vocab):
    return " ".join(vocab[i] for i in rng.integers(0, len(vocab), k))


def _corpus(seed=5, n=120):
    """Random-word docs plus exact copies, near copies and docs quoting
    the benchmark set; returns (docs, bench) tables."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
    vocab = [letters[rng.integers(0, 26, int(rng.integers(4, 9)))].tobytes().decode()
             for _ in range(3000)]
    texts = [_words(rng, int(rng.integers(40, 70)), vocab) for _ in range(n)]
    texts += texts[:10]                                    # exact copies
    texts += [t + " " + _words(rng, 2, vocab) for t in texts[10:20]]  # near copies
    bench = [_words(rng, 30, vocab) for _ in range(5)]
    bench += [" ".join(t.split(" ")[5:11]) for t in texts[30:40]]     # quotes
    ids = rng.permutation(len(texts)).astype(np.int64) * 3 - 50  # some negative
    docs = pa.table({"doc_id": pa.array(ids), "source": pa.array(["s"] * len(texts)),
                     "text": pa.array(texts)})
    return docs, pa.table({"doc_id": pa.array(np.arange(len(bench), dtype=np.int64)),
                           "text": pa.array(bench)})


def _run(docs, bench, out, blocks=4, **kw):
    import ray.data as rd

    from siteone_crawler_ray.pipelines.curation_run import curation_run

    step = -(-docs.num_rows // blocks)
    ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
    return curation_run(ds, rd.from_arrow(bench), out, num_shards=4, seed=3, **kw)


def _shard_tables(manifest):
    return {r["shard"]: pq.read_table(r["path"]) for r in manifest["shards"]}


def _without_paths(manifest):
    return {**manifest, "shards": [{k: v for k, v in r.items() if k != "path"}
                                   for r in manifest["shards"]]}


def test_curation_run_takes_one_execution_per_pass(ray_session, tmp_path, monkeypatch):
    """gate+hash, MinHash signatures+bands, candidate shingle routing,
    benchmark hashes, and clean+shuffle-keying: five executions."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    docs, bench = _corpus()
    executions = []
    execute = StreamingExecutor.execute

    def spy(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    m = _run(docs, bench, str(tmp_path / "out"))
    assert m["contaminated_dropped"] >= 1 and m["near_dups_dropped"] >= 1
    assert len(executions) <= 5, len(executions)


def test_sharded_decontamination_gives_the_broadcast_output(ray_session, tmp_path,
                                                            monkeypatch):
    from siteone_crawler_ray.stages import sampling

    docs, bench = _corpus()
    want = _run(docs, bench, str(tmp_path / "broadcast"))
    monkeypatch.setattr(sampling, "_BENCH_BROADCAST_MAX_HASHES", 0)
    got = _run(docs, bench, str(tmp_path / "sharded"))
    assert want["contaminated_dropped"] >= 1
    assert _without_paths(got) == _without_paths(want)
    w, g = _shard_tables(want), _shard_tables(got)
    assert w.keys() == g.keys()
    for s in w:
        assert g[s].equals(w[s]), s


def test_near_dup_pair_drops_the_larger_signed_id(ray_session, tmp_path):
    """Ids -5 and 3 hold near copies: 3 is the larger id and goes, as
    exact dedup's min-id rule would keep -5."""
    rng = np.random.default_rng(2)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
    vocab = [letters[rng.integers(0, 26, 6)].tobytes().decode() for _ in range(500)]
    base = _words(rng, 60, vocab)
    docs = pa.table({"doc_id": pa.array([-5, 3, 10], pa.int64()),
                     "source": pa.array(["s"] * 3),
                     "text": pa.array([base, base + " tail", _words(rng, 60, vocab)])})
    bench = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array(["q w e r t y u i o p"])})
    m = _run(docs, bench, str(tmp_path / "out"), blocks=3)
    assert m["near_dups_dropped"] == 1
    kept = sorted(i for t in _shard_tables(m).values() for i in t["doc_id"].to_pylist())
    assert kept == [-5, 10]


def _minhash_reference(texts, num_perm=64, k=5, seed=7):
    base, off = dedup._shingle_hashes(texts, k)
    a, b = dedup._perm_params(num_perm, seed)
    ref = np.full((len(texts), num_perm), dedup._M61, np.uint64)
    with np.errstate(over="ignore"):
        for d in range(len(texts)):
            h = base[off[d]:off[d + 1]]
            if len(h):
                ref[d] = ((a[:, None] * h[None, :] + b[:, None]) & dedup._M61).min(axis=1)
    return ref


def _signature_matrix(t, num_perm=64):
    return np.column_stack([t[f"mh{j}"].to_numpy() for j in range(num_perm)])


def _kernel_texts(n=600):
    rng = np.random.default_rng(9)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", np.uint8)
    texts = [letters[rng.integers(0, 27, int(rng.integers(0, 400)))].tobytes().decode()
             for _ in range(n)]
    B = dedup._MINHASH_BLOCK_DOCS
    texts[3] = "ab"          # shorter than k: one whole-string shingle
    texts[B - 1] = ""        # empty text, last doc of the first block
    texts[B] = "abc"         # short doc opening the second block
    texts[2 * B] = "x" * 300  # one distinct shingle
    return texts


def test_minhash_signatures_match_the_permutation_formula():
    texts = _kernel_texts()
    assert len(texts) > 2 * dedup._MINHASH_BLOCK_DOCS
    t = pa.table({"doc_id": pa.array(np.arange(len(texts))), "text": pa.array(texts)})
    got = dedup.minhash_signatures(t)
    assert got["doc_id"].to_pylist() == list(range(len(texts)))
    np.testing.assert_array_equal(_signature_matrix(got), _minhash_reference(texts))


@pytest.mark.parametrize("empty", [[0, 5], [255, 256], [254, 255], [599], [598, 599]])
def test_minhash_signatures_fill_docs_without_shingles(monkeypatch, empty):
    """Docs left without shingles (at a block start, a block end, the
    batch end) get 2^61 - 1 in every permutation; their neighbours'
    minima stay exact."""
    shingle_hashes = dedup._shingle_hashes

    def dropping(texts, k=5):
        base, off = shingle_hashes(texts, k)
        counts = np.diff(off)
        keep = np.ones(len(base), bool)
        for d in empty:
            keep[off[d]:off[d + 1]] = False
            counts[d] = 0
        return base[keep], np.concatenate([[0], np.cumsum(counts)])

    monkeypatch.setattr(dedup, "_shingle_hashes", dropping)
    texts = _kernel_texts()
    t = pa.table({"doc_id": pa.array(np.arange(len(texts))), "text": pa.array(texts)})
    got = _signature_matrix(dedup.minhash_signatures(t))
    want = _minhash_reference(texts)
    assert (want[empty] == dedup._M61).all()
    np.testing.assert_array_equal(got, want)
