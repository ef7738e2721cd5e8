"""Bucket-format seam of the corpus store (VERDICT r3 #6).

The logical bucketed layout must be independent of the physical file
format so the BASELINE.json Lance input drops in where `lance` is
installed; here a fake format stands in for it.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siteone_crawler_ray.functions.hashing import key_bounds, key_span, xxh64_strings
from siteone_crawler_ray.sources import corpus as C


def _docs(n: int = 40) -> pa.Table:
    tabs = C.make_graph_corpus(seed=5, hosts=2, total_pages=n)
    return tabs["documents"]


def test_parquet_roundtrip_records_format(tmp_path):
    docs = _docs()
    path = str(tmp_path / "corpus")
    C.write_corpus(docs, path, num_buckets=4)
    meta = json.load(open(os.path.join(path, "_meta.json")))
    assert meta["format"] == "parquet"
    # bucket j holds the sorted url_keys of range j of key_bounds(4)
    b = key_bounds(4)
    for j in range(4):
        keys = pq.read_table(os.path.join(path, f"bucket={j:02d}"))["url_key"].to_numpy()
        assert np.all(keys[1:] >= keys[:-1]) and key_span(keys, b[j], b[j + 1]) == (0, len(keys))
    r = C.CorpusReader(path)
    assert r.bucket_span(b[1], b[3]) == range(1, 3)
    assert r.bucket_span(b[1] - 1, b[1] + 1) == range(0, 2)
    assert r.bucket_span(0, 0) == range(0)
    urls = docs["doc_id"].to_pylist()[:7]
    found, rows = r.lookup(np.array(urls, dtype=object))
    assert found.all()
    assert rows["doc_id"].to_pylist() == urls


def test_fake_format_drops_in_through_the_seam(tmp_path, monkeypatch):
    """A foreign format (parquet under a different name, standing in for
    Lance) plugs in via BUCKET_FORMATS with zero reader changes."""

    class FakeLance(C.BucketFormat):
        name = "fakelance"

        def write_bucket(self, table, bucket_dir):
            pq.write_table(table, os.path.join(bucket_dir, "data.fake"))

        def read_bucket(self, bucket_dir):
            return pq.read_table(os.path.join(bucket_dir, "data.fake"))

    monkeypatch.setitem(C.BUCKET_FORMATS, "fakelance", FakeLance)
    docs = _docs()
    path = str(tmp_path / "corpus")
    C.write_corpus(docs, path, num_buckets=3, bucket_format="fakelance")
    assert json.load(open(os.path.join(path, "_meta.json")))["format"] == "fakelance"
    assert not any(
        f.endswith(".parquet") for _, _, fs in os.walk(path) for f in fs
    ), "fake format must own the physical files"
    r = C.CorpusReader(path)
    urls = docs["doc_id"].to_pylist()
    found, rows = r.lookup(np.array(urls, dtype=object), keys=xxh64_strings(urls))
    assert found.all()
    assert rows["doc_id"].to_pylist() == urls


def test_legacy_meta_defaults_to_parquet(tmp_path):
    docs = _docs(20)
    path = str(tmp_path / "corpus")
    C.write_corpus(docs, path, num_buckets=2)
    meta = json.load(open(os.path.join(path, "_meta.json")))
    del meta["format"]  # pre-seam corpora
    json.dump(meta, open(os.path.join(path, "_meta.json"), "w"))
    r = C.CorpusReader(path)
    assert r.format.name == "parquet"
    found, _ = r.lookup(np.array(docs["doc_id"].to_pylist()[:3], dtype=object))
    assert found.all()


def test_modulo_layout_corpus_is_refused(tmp_path):
    """A corpus written before buckets became url_key ranges (no
    ``"layout": "key_range"`` in _meta.json) put key k in bucket
    k % B; reading it by range would miss nearly every page, so the
    reader refuses it."""
    path = str(tmp_path / "corpus")
    C.write_corpus(_docs(20), path, num_buckets=2)
    meta = json.load(open(os.path.join(path, "_meta.json")))
    assert meta["layout"] == "key_range"
    del meta["layout"]
    json.dump(meta, open(os.path.join(path, "_meta.json"), "w"))
    with pytest.raises(ValueError, match="key_range"):
        C.CorpusReader(path)


_HAS_LANCE = __import__("importlib.util", fromlist=["util"]).find_spec("lance") is not None


def test_unknown_and_unavailable_formats_error_clearly():
    with pytest.raises(ValueError, match="unknown corpus bucket format"):
        C.get_bucket_format("orc")
    if not _HAS_LANCE:
        with pytest.raises(ImportError, match="lance"):
            C.get_bucket_format("lance")  # wheel absent in this sandbox


@pytest.mark.skipif(not _HAS_LANCE, reason="lance wheel not installed in this sandbox")
def test_lance_roundtrip_end_to_end(tmp_path):
    """Real LanceBucketFormat round-trip — proves the seam the day the
    dependency appears: write buckets as Lance datasets, read them back
    through CorpusReader.lookup with identical rows, no parquet files on
    disk."""
    docs = _docs()
    path = str(tmp_path / "corpus")
    C.write_corpus(docs, path, num_buckets=3, bucket_format="lance")
    assert json.load(open(os.path.join(path, "_meta.json")))["format"] == "lance"
    assert not any(
        f.endswith(".parquet") for _, _, fs in os.walk(path) for f in fs
    ), "lance format must own the physical files"
    r = C.CorpusReader(path)
    assert r.format.name == "lance"
    urls = docs["doc_id"].to_pylist()
    found, rows = r.lookup(np.array(urls, dtype=object), keys=xxh64_strings(urls))
    assert found.all()
    assert rows["doc_id"].to_pylist() == urls
