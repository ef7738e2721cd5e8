"""Unicode normalization (stages/normalize.py) and the deterministic
epoch shuffle (stages/sampling.epoch_shuffle_write).

The driver slot exercises normalization only on deterministically
dirtied ASCII; the fixtures here hit the unicode corners — NFD accents,
compatibility ligatures, NBSP, control bytes — against TWO independent
references (CPython's unicodedata and DuckDB's utf8proc).
"""

import unicodedata

import duckdb
import pyarrow as pa

SF = "/root/testdata/sf0.001"

DIRTY = [
    "café time",             # NFD accent → NFC composes
    "ﬁne print",              # ﬁ ligature (NFKC folds, NFC keeps)
    "a\x00b\x07c\x7fd",            # C0 controls + DEL stripped
    "  lots\t\tof\n\nspace  ",     # whitespace collapse + trim
    "nbsp stays",             # NBSP is not RE2 \s — must survive
    "",                            # empty
    "already clean",
]


def test_normalize_matches_unicodedata_and_duckdb():
    from siteone_crawler_ray.stages.normalize import CONTROL_CLASS, normalize_array

    got = normalize_array(pa.array(DIRTY)).to_pylist()

    # independent reference #1: CPython unicodedata + re
    import re

    # re.ASCII: RE2's \s is ASCII-only ([\t\n\f\r ]); Python's default
    # unicode \s would eat the NBSP fixture and diverge from the engine
    ctrl = re.compile(CONTROL_CLASS)
    ws = re.compile(r"\s+", re.ASCII)
    want = [
        ws.sub(" ", ctrl.sub("", unicodedata.normalize("NFC", s))).strip(" ")
        for s in DIRTY
    ]
    assert got == want

    # independent reference #2: DuckDB (utf8proc + RE2)
    con = duckdb.connect()
    con.register("t", pa.table({"s": pa.array(DIRTY)}))
    o = con.sql(f"""
        SELECT trim(regexp_replace(regexp_replace(nfc_normalize(s),
                 '{CONTROL_CLASS}', '', 'g'), '\\s+', ' ', 'g'), ' ')
        FROM t""").fetchall()
    assert got == [r[0] for r in o]

    assert got[4] == "nbsp stays"  # NBSP untouched end-to-end


def test_normalize_nfkc_and_lowercase():
    from siteone_crawler_ray.stages.normalize import normalize_array

    got = normalize_array(pa.array(DIRTY), form="NFKC", lowercase=True).to_pylist()
    import re

    want = [
        re.sub(r"(?a)\s+", " ",
               re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]", "",
                      unicodedata.normalize("NFKC", s))).strip(" ").lower()
        for s in DIRTY
    ]
    assert got == want
    assert got[1].startswith("fine")  # ligature folded


def test_epoch_shuffle_matches_duckdb(ray_session, tmp_path):
    """The shard files' assignment AND within-shard order match the SQL
    restatement of the same md5-derived permutation, for two shard
    counts and two seeds."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.functions.hashing import md5_u64_strings
    from siteone_crawler_ray.stages.sampling import epoch_shuffle_write

    ds = lambda: rd.read_parquet(f"{SF}/documents.parquet",  # noqa: E731
                                 columns=["doc_id"], override_num_blocks=4)
    for S, seed in ((4, 7), (3, 11)):
        out = str(tmp_path / f"s{S}-{seed}")
        epoch_shuffle_write(ds(), out, num_shards=S, seed=seed,
                            hasher=md5_u64_strings)
        got = [(s, d) for s in range(S)
               for d in pq.read_table(os.path.join(out, f"shard={s:05d}", "part.parquet"))
               ["doc_id"].to_pylist()]
        want = duckdb.sql(f"""
            SELECT CAST(hkey % {S} AS BIGINT) AS shard, doc_id
            FROM (SELECT doc_id,
                    CAST(CONCAT('0x', SUBSTR(md5(CONCAT(
                        CAST(doc_id AS VARCHAR), ':', '{seed}')), 1, 16))
                      AS UBIGINT) AS hkey
                  FROM read_parquet('{SF}/documents.parquet'))
            ORDER BY shard, hkey, doc_id""").fetchall()
        assert got == want, f"S={S} seed={seed}"


def test_epoch_shuffle_is_a_permutation_and_seed_sensitive(ray_session, tmp_path):
    """Every doc lands in exactly one shard file; a different seed
    yields a different permutation (xxh64 fast path)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.sampling import epoch_shuffle_write

    ds = lambda: rd.read_parquet(f"{SF}/documents.parquet",  # noqa: E731
                                 columns=["doc_id"], override_num_blocks=4)

    def shards(seed):
        out = str(tmp_path / f"seed{seed}")
        epoch_shuffle_write(ds(), out, num_shards=4, seed=seed)
        return [pq.read_table(os.path.join(out, f"shard={s:05d}", "part.parquet"))
                ["doc_id"].to_pylist() for s in range(4)]

    a, b = shards(0), shards(1)
    n = ds().count()
    for t in (a, b):
        ids = [d for shard in t for d in shard]
        assert len(ids) == n and len(set(ids)) == n
    assert a != b


def test_epoch_shuffle_write_is_resumable(ray_session, tmp_path):
    """Full rows land per-shard in shuffled order; a re-run skips every
    existing shard; deleting one shard re-writes exactly that shard."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from siteone_crawler_ray.stages.sampling import epoch_shuffle_write

    ds = lambda: rd.read_parquet(f"{SF}/documents.parquet",  # noqa: E731
                                 columns=["doc_id", "text"],
                                 override_num_blocks=4)
    out = str(tmp_path / "shuffled")
    m1 = epoch_shuffle_write(ds(), out, num_shards=4, seed=3)
    assert m1.num_rows == 4 and not any(m1["skipped"].to_pylist())
    assert sum(m1["rows"].to_pylist()) == ds().count()

    # full rows: every column lands (order is test_epoch_shuffle_matches_duckdb's)
    for s in range(4):
        got = pq.read_table(os.path.join(out, f"shard={s:05d}", "part.parquet"))
        assert got.column_names == ["doc_id", "text"]

    m2 = epoch_shuffle_write(ds(), out, num_shards=4, seed=3)
    assert all(m2["skipped"].to_pylist())       # fully resumed
    os.remove(os.path.join(out, "shard=00002", "part.parquet"))
    m3 = epoch_shuffle_write(ds(), out, num_shards=4, seed=3)
    skip = dict(zip(m3["shard"].to_pylist(), m3["skipped"].to_pylist()))
    assert skip == {0: True, 1: True, 2: False, 3: True}
