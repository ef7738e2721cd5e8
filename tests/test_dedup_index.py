"""Incremental MinHash-LSH index (stages/dedup_index.py) vs a
brute-force reference: same signatures, all-pairs banding + estimator
computed directly in numpy on the driver."""

import numpy as np
import pyarrow as pa


def _docs(ids, texts):
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _mk_corpora():
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(60)]

    def sent(n):
        return " ".join(rng.choice(words, n))

    base = [sent(40) for _ in range(30)]
    a_ids = list(range(100, 130))
    # increment: 10 exact-ish near-dups of A docs (one word changed),
    # 10 fresh docs, plus 2 near-dups of each other (not of A)
    b_texts, b_ids = [], []
    for i in range(10):
        t = base[i].split()
        t[5] = "CHANGED"
        b_texts.append(" ".join(t)); b_ids.append(500 + i)
    for i in range(10):
        b_texts.append(sent(40)); b_ids.append(520 + i)
    twin = sent(40)
    b_texts += [twin, twin + " tail"]; b_ids += [540, 541]
    return (a_ids, base), (b_ids, b_texts)


def _reference_pairs(a_ids, a_texts, b_ids, b_texts, *, num_perm, bands,
                     shingle_k, seed, threshold):
    """Independent path: signatures via the library kernel (shared —
    the estimator and banding are recomputed HERE in plain numpy)."""
    from siteone_crawler_ray.stages.dedup import minhash_signatures

    def sig(ids, texts):
        t = minhash_signatures(_docs(ids, texts), num_perm=num_perm,
                               shingle_k=shingle_k, seed=seed)
        return np.stack([t[f"mh{j}"].to_numpy(zero_copy_only=False)
                         for j in range(num_perm)], axis=1)

    sa, sb = sig(a_ids, a_texts), sig(b_ids, b_texts)
    rpb = num_perm // bands
    out = []
    for i, nid in enumerate(b_ids):
        for j, oid in enumerate(a_ids):
            shared_band = any(
                (sb[i, b * rpb:(b + 1) * rpb] == sa[j, b * rpb:(b + 1) * rpb]).all()
                for b in range(bands))
            if not shared_band:
                continue
            est = (sb[i] == sa[j]).mean()
            if est >= threshold:
                out.append((nid, oid, round(float(est), 6)))
    return sorted(out)


def test_index_query_matches_bruteforce(ray_session, tmp_path):
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    (a_ids, a_texts), (b_ids, b_texts) = _mk_corpora()
    want = _reference_pairs(a_ids, a_texts, b_ids, b_texts, num_perm=32,
                            bands=8, shingle_k=5, seed=7, threshold=0.5)
    # 1 partition per family runs the single-partition exchanges
    for parts in (4, 1):
        ix = MinHashIndex(str(tmp_path / f"ix{parts}"), num_perm=32, bands=8,
                          band_parts=parts, sig_parts=parts)
        m = ix.add(rd.from_arrow(_docs(a_ids, a_texts)), epoch=0)
        assert m["sig_rows"] == 30 and m["band_rows"] == 30 * 8 and not m["skipped"]

        got = ix.query(rd.from_arrow(_docs(b_ids, b_texts)), threshold=0.5)
        got_pairs = sorted(zip(got["new_id"].to_pylist(), got["old_id"].to_pylist(),
                               got["est_jaccard"].to_pylist()))
        assert got_pairs == want, parts
    assert len(want) >= 10          # the 10 planted near-dups are found
    planted = {(500 + i, 100 + i) for i in range(10)}
    assert planted <= {(n, o) for n, o, _ in got_pairs}
    # fresh docs match nothing in A
    assert all(n < 540 for n, _, _ in got_pairs)


def test_index_is_incremental_and_idempotent(ray_session, tmp_path):
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    (a_ids, a_texts), (b_ids, b_texts) = _mk_corpora()
    ix = MinHashIndex(str(tmp_path / "ix"), num_perm=32, bands=8,
                      band_parts=4, sig_parts=4)
    ix.add(rd.from_arrow(_docs(a_ids, a_texts)), epoch=0)
    # re-running the same epoch is a no-op (resume semantics)
    m2 = ix.add(rd.from_arrow(_docs(a_ids, a_texts)), epoch=0)
    assert m2["skipped"]

    # extend with B (epoch 1); querying B's twin pair now hits B itself
    ix.add(rd.from_arrow(_docs(b_ids, b_texts)), epoch=1)
    q = ix.query(rd.from_arrow(_docs([900], [b_texts[-2]])), threshold=0.5)
    hits = set(q["old_id"].to_pylist())
    assert 540 in hits and 541 in hits  # both twins, via the extended index
    # and the A-near-dup query still resolves against epoch 0
    q2 = ix.query(rd.from_arrow(_docs([901], [a_texts[0]])), threshold=0.5)
    assert 100 in set(q2["old_id"].to_pylist())


def test_index_add_survives_worker_death(ray_session, tmp_path):
    """A writer task hard-killed mid-add is retried; atomic rename +
    pid-suffixed tmp files mean the healed index answers exactly like
    a cleanly-built one."""
    import os

    import ray.data as rd

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    (a_ids, a_texts), (b_ids, b_texts) = _mk_corpora()
    clean = MinHashIndex(str(tmp_path / "clean"), num_perm=32, bands=8,
                         band_parts=4, sig_parts=4)
    clean.add(rd.from_arrow(_docs(a_ids, a_texts)), epoch=0)
    want = clean.query(rd.from_arrow(_docs(b_ids, b_texts)), threshold=0.5)

    marker = str(tmp_path / "writer-died-once")

    def die_once(batch):
        if not os.path.exists(marker) and batch.num_rows:
            with open(marker, "w") as f:
                f.write("x")
            os._exit(1)  # hard-kill mid-signature computation
        return batch

    drilled = MinHashIndex(str(tmp_path / "drill"), num_perm=32, bands=8,
                           band_parts=4, sig_parts=4)
    ds = rd.from_arrow(_docs(a_ids, a_texts)).map_batches(
        die_once, batch_format="pyarrow")
    drilled.add(ds, epoch=0)
    assert os.path.exists(marker), "the kill branch never ran"
    got = drilled.query(rd.from_arrow(_docs(b_ids, b_texts)), threshold=0.5)
    assert got.equals(want)


def test_reingested_doc_verifies_against_current_signature(ray_session, tmp_path):
    """A doc_id re-ingested with NEW text has two sig rows; a query
    near-dup of the CURRENT text must verify against the best row,
    not an arbitrary (possibly stale) one."""
    import ray.data as rd

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(80)]
    old_text = " ".join(rng.choice(words, 60))
    new_text = " ".join(rng.choice(words, 60))
    ix = MinHashIndex(str(tmp_path / "ix"), num_perm=32, bands=8,
                      band_parts=4, sig_parts=4)
    ix.add(rd.from_arrow(_docs([7], [old_text])), epoch=0)
    ix.add(rd.from_arrow(_docs([7], [new_text])), epoch=1)  # page changed
    probe = new_text.split()
    probe[3] = "X"
    q = ix.query(rd.from_arrow(_docs([900], [" ".join(probe)])), threshold=0.5)
    assert 7 in set(q["old_id"].to_pylist())  # matched the CURRENT text


def test_index_params_are_pinned(ray_session, tmp_path):
    """Reopening an index with different hash parameters errors instead
    of silently returning zero matches."""
    import pytest

    from siteone_crawler_ray.stages.dedup_index import MinHashIndex

    MinHashIndex(str(tmp_path / "ix"), num_perm=32, bands=8)
    MinHashIndex(str(tmp_path / "ix"), num_perm=32, bands=8)  # same: fine
    with pytest.raises(ValueError, match="was built with"):
        MinHashIndex(str(tmp_path / "ix"), num_perm=32, bands=8, seed=13)
