"""Relational operator parity beyond the driver harness.

The driver oracles these slots at sf0.01; the tests here pin the
semantics that the driver SQL states but cannot prove — e.g. that the
`range_join_count` as-of column equals DuckDB's NATIVE ASOF JOIN, not
merely the max-date reformulation used in the oracle.
"""

import duckdb
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    for name in ("events", "orders"):
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM "
                f"read_parquet('{SF}/{name}.parquet')")
    return con


def test_asof_join_matches_duckdb_native_asof(ray_session):
    """The composite-rank merge in pipelines/relational.py answers the
    as-of join exactly as DuckDB's ASOF LEFT JOIN does (ties on
    (key, time) share the date, so the comparison is deterministic)."""
    from siteone_crawler_ray.pipelines.relational import range_join_count

    t = range_join_count(SF)
    mine = t.select(["event_id", "asof_date_us"]).sort_by("event_id")
    con = _con()  # keep alive: .sql() returns a lazy relation
    native = con.sql("""
        SELECT e.event_id,
               coalesce(CAST(epoch_us(o.o_orderdate) AS BIGINT), -1)
                 AS asof_date_us
        FROM events e ASOF LEFT JOIN orders o
          ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        ORDER BY e.event_id
    """).arrow()
    assert mine.num_rows == native.num_rows > 0
    assert mine.equals(native.cast(mine.schema))


def test_range_count_matches_plain_join(ray_session):
    """The same kernel's range count equals the LEFT JOIN + GROUP BY
    count — including zero rows for users with no orders."""
    from siteone_crawler_ray.pipelines.relational import range_join_count

    t = range_join_count(SF)
    mine = t.select(["event_id", "n_before"]).sort_by("event_id")
    con = _con()  # keep alive: .sql() returns a lazy relation
    oracle = con.sql("""
        SELECT e.event_id, count(o.o_orderkey) AS n_before
        FROM events e LEFT JOIN orders o
          ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        GROUP BY e.event_id ORDER BY e.event_id
    """).arrow()
    assert mine.equals(oracle.cast(mine.schema))
    n = t["n_before"].to_numpy(zero_copy_only=False)
    a = t["asof_date_us"].to_numpy(zero_copy_only=False)
    assert ((n == 0) == (a == -1)).all()  # no-match sentinel consistency


def test_hash_join_semantics(ray_session):
    """stages/join.hash_join == pa.Table.join for every supported kind,
    across a multi-block scatter."""
    import ray.data as rd

    from siteone_crawler_ray.stages.join import hash_join_table

    left = pa.table({"k": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
                     "lv": pa.array(list("abcdefgh"))})
    right = pa.table({"k": pa.array([2, 4, 4, 6, 9], pa.int64()),
                      "rv": pa.array(["X", "Y", "Z", "W", "Q"])})

    def ds(t, nblocks):
        import numpy as np

        step = -(-t.num_rows // nblocks)
        return rd.from_arrow([t.slice(i * step, step) for i in range(nblocks)])

    kinds = [("inner", "inner"), ("left", "left outer"), ("semi", "left semi"),
             ("anti", "left anti"), ("full", "full outer")]
    # an empty right side must still null-fill its columns (left/full)
    cases = [(right, how, kind) for how, kind in kinds] + [
        (right.slice(0, 0), how, kind) for how, kind in kinds
        if how in ("left", "anti", "full")]
    for p in (1, 4):  # P=1: the single-partition exchange
        for r, how, arrow_kind in cases:
            got = hash_join_table(ds(left, 3), ds(r, 2), "k", how=how,
                                  num_partitions=p)
            want = left.join(r, keys="k", join_type=arrow_kind,
                             right_suffix="_r", use_threads=False)
            gs = got.to_pandas().sort_values(sorted(got.column_names)).reset_index(drop=True)
            ws = want.to_pandas().sort_values(sorted(want.column_names)).reset_index(drop=True)
            assert gs[sorted(gs.columns)].equals(ws[sorted(ws.columns)]), (how, r.num_rows, p)


def test_hash_join_matches_broadcast_path(ray_session, monkeypatch):
    """segment_join's shuffle scale path is value-identical to the
    broadcast path the oracle verifies."""
    import siteone_crawler_ray.pipelines.relational as rel

    base = rel.segment_join(SF)
    monkeypatch.setattr(rel, "_BROADCAST_JOIN_ROWS", 0)
    forced = rel.segment_join(SF)
    b = base.to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    f = forced.to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    assert b.equals(f)


def test_bloom_runtime_filter_kernel():
    """No false negatives ever; false positives rare at the join's
    sizing (a 2^23-bit bitmap, k = 6); a saturated bitmap is detected
    by the fill guard."""
    import numpy as np

    from siteone_crawler_ray.stages import join
    from siteone_crawler_ray.state.filters import BloomFilter

    rng = np.random.default_rng(7)
    present = rng.choice(1 << 40, size=50_000, replace=False).astype(np.uint64)
    absent = (rng.choice(1 << 40, size=50_000, replace=False).astype(np.uint64)
              + np.uint64(1 << 41))
    bf = BloomFilter(join._BLOOM_KEYS, join._BLOOM_FP)
    assert (bf.nbits, bf.k) == (1 << 23, 6)
    bf.add_batch(present)
    assert bf.contains_batch(present).all()               # zero false negatives
    fp = bf.contains_batch(absent).mean()
    assert fp < 0.05, fp                                  # ~2% expected
    assert bf.fill < join._BLOOM_MAX_FILL
    # a 1024-bit bitmap over 50k keys saturates -> guard must fire
    tiny = BloomFilter(128, join._BLOOM_FP)
    assert tiny.nbits == 1 << 10
    tiny.add_batch(present)
    assert tiny.fill > join._BLOOM_MAX_FILL


def test_hash_join_bloom_filter_parity(ray_session, monkeypatch):
    """runtime_filter on/off is bit-identical for every join type, on
    key sets engineered so the bloom actually prunes (mostly-disjoint)
    AND on a saturated bitmap (guard path: filter disabled, still
    exact)."""
    import numpy as np
    import ray.data as rd

    from siteone_crawler_ray.stages.join import hash_join_table

    rng = np.random.default_rng(11)
    lk = rng.integers(0, 4_000, size=6_000, dtype=np.int64)
    rk = rng.integers(3_000, 9_000, size=6_000, dtype=np.int64)  # ~1/6 overlap
    left = pa.table({"k": pa.array(lk), "lv": pa.array(np.arange(len(lk)))})
    right = pa.table({"k": pa.array(rk), "rv": pa.array(np.arange(len(rk)))})

    def ds(t, nblocks):
        step = -(-t.num_rows // nblocks)
        return rd.from_arrow([t.slice(i * step, step) for i in range(nblocks)])

    def canon(t):
        df = t.to_pandas()
        return df[sorted(df.columns)].sort_values(sorted(df.columns)).reset_index(drop=True)

    for how in ("inner", "left", "semi", "anti"):
        plain = hash_join_table(ds(left, 5), ds(right, 4), "k", how=how,
                                num_partitions=6, runtime_filter=False)
        bloom = hash_join_table(ds(left, 5), ds(right, 4), "k", how=how,
                                num_partitions=6, runtime_filter=True)
        assert canon(bloom).equals(canon(plain)), how
        # saturated bitmap (64 bits for 6k keys) -> guard disables the
        # filter; output must still be exact
        from siteone_crawler_ray.stages import join as j
        tiny = hash_join_table(ds(left, 5), ds(right, 4), "k", how=how,
                               num_partitions=6, runtime_filter=True)
        with monkeypatch.context() as m:
            m.setattr(j, "_BLOOM_KEYS", 8)
            got = j.hash_join(ds(left, 5), ds(right, 4), "k", how=how,
                              num_partitions=6, runtime_filter=True)
        got = pa.concat_tables([t for t in got], promote_options="permissive")
        assert canon(got).equals(canon(plain)), f"saturated {how}"
        assert canon(tiny).equals(canon(plain))


def test_range_join_scatter_path_matches(ray_session):
    """The big-by-big scatter path (_range_join_scatter) returns the
    exact broadcast-path answer for several partition counts — a key
    lives in exactly one partition, so the composite-rank kernel sees
    its full order history partition-locally."""
    from siteone_crawler_ray.pipelines.relational import (
        _range_join_scatter,
        range_join_count,
    )

    want = range_join_count(SF).sort_by("event_id")
    for p in (1, 3, 7):
        got = _range_join_scatter(SF, num_partitions=p).sort_by("event_id")
        assert got.equals(want.cast(got.schema)), f"P={p} mismatch"


def test_session_windows_scatter_path_matches(ray_session, monkeypatch):
    """Sessionization's coded scale path (the events scattered on
    user_id) equals the driver-side kernel for several partition counts
    — a user's whole event history lands in one partition, so
    gap-splitting is local."""
    from siteone_crawler_ray.pipelines.relational import session_windows
    from siteone_crawler_ray.stages import dedup

    want = session_windows(SF).sort_by([("user_id", "ascending"),
                                        ("session_no", "ascending")])
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    for p in (1, 4):
        monkeypatch.setattr(dedup, "_auto_partitions", lambda *a, p=p, **kw: p)
        got = session_windows(SF) \
            .sort_by([("user_id", "ascending"), ("session_no", "ascending")])
        assert got.equals(want.cast(got.schema)), f"P={p} mismatch"


def test_p90_by_type_scatter_path_matches(ray_session, monkeypatch):
    """Exact grouped p90's coded scale path equals the driver kernel —
    a group's rows all share one xxh64(type) partition."""
    from siteone_crawler_ray.pipelines.relational import p90_by_type
    from siteone_crawler_ray.stages import dedup

    want = p90_by_type(SF).select(["event_type", "p90"]).sort_by("event_type")
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    for p in (1, 4):
        monkeypatch.setattr(dedup, "_auto_partitions", lambda *a, p=p, **kw: p)
        got = p90_by_type(SF).select(["event_type", "p90"]).sort_by("event_type")
        assert got.equals(want.cast(got.schema)), f"P={p} mismatch"


def test_anti_join_scatter_path_matches(ray_session):
    """The big-by-big anti-join scatter path equals the broadcast
    anti-join — both sides of a key share one partition."""
    from siteone_crawler_ray.pipelines.relational import (
        _anti_join_scatter,
        customers_without_events,
    )

    want = customers_without_events(SF).sort_by("o_custkey")
    for p in (1, 4):
        got = _anti_join_scatter(SF, num_partitions=p).sort_by("o_custkey")
        assert got.equals(want.cast(got.schema)), f"P={p} mismatch"


def test_asof_index_survives_huge_keys():
    """Snowflake-scale 1e18 keys: the densified fused axis stays inside
    int64 (the raw key·(n+1) product would wrap silently)."""
    import numpy as np

    from siteone_crawler_ray.pipelines.relational import _asof_answer, _asof_index

    ck = np.array([10**18 + 5, 10**18 + 5, 10**18 + 9], dtype=np.int64)
    od = np.array([100, 200, 150], dtype=np.int64)
    idx = _asof_index(ck, od)
    n, asof = _asof_answer(
        idx,
        np.array([10**18 + 5, 10**18 + 9, 42], dtype=np.int64),
        np.array([250, 120, 999], dtype=np.int64))
    assert list(n) == [2, 0, 0]
    assert list(asof) == [200, -1, -1]


def test_user_type_stats_scatter_path_matches(ray_session, monkeypatch):
    """The merged (n, n_users) surface's coded scale path equals the
    driver combine for several partition counts."""
    from siteone_crawler_ray.pipelines.relational import user_type_stats
    from siteone_crawler_ray.stages import dedup

    want = user_type_stats(SF)
    monkeypatch.setattr(dedup, "_DRIVER_COMBINE_BYTES", 0)
    for p in (1, 4):
        monkeypatch.setattr(dedup, "_auto_partitions", lambda *a, p=p, **kw: p)
        got = user_type_stats(SF)
        assert got.equals(want.cast(got.schema)), f"P={p} mismatch"
