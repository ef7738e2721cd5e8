"""Relational / analytical pipelines over the driver testdata tables.

These express the reference's aggregation-operator *shapes* (SURVEY.md
§2.5-2.6: groupby-agg report tables, top-k sort/limit, nearest-rank
percentiles, source joins, distinct counts, skip-class groupings) over
the TPC-H-ish tables, plus the streaming-shaped (windowed, as-of/range)
operators, so every shape has a DuckDB-checkable oracle in
``__ray_entry__.oracle_sql``.

Conventions for oracle parity:
- every computed column is named identically to the SQL alias,
- every rounded float goes through functions.numeric.round_away
  (DuckDB round semantics),
- top-k queries carry an explicit deterministic tie-break,
- aggregates pre-combine per batch where the reduction allows it
  (partial → small shuffle), per the scale rules.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import in_sorted
from ..functions.numeric import round_away


def _read(sf_dir: str, table: str, columns=None, blocks: int = 32):
    """Column-pruned read.  The testdata tables are single small parquet
    files → Ray's size-based splitting yields ONE block, serializing every
    downstream map_batches onto one core; override_num_blocks restores
    fan-out.  (At production scale the many-file layout provides natural
    blocks and the override is a no-op safety net.)"""
    import ray.data as rd

    return rd.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns, override_num_blocks=blocks
    )


def _collect(ds) -> pa.Table:
    from ..functions.agg import collect_blocks

    blocks = collect_blocks(ds)
    return pa.concat_tables(blocks).combine_chunks() if blocks else None


# -- groupby-agg report-table shapes ----------------------------------------


def pricing_summary(sf_dir: str) -> pa.Table:
    """content-type-table shape: groupby flag → count/sum/avg.
    Low-cardinality key → combiner partial agg, no all-to-all shuffle."""
    from ..functions.agg import grouped_agg

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    t = grouped_agg(
        ds,
        ["l_returnflag"],
        [("n", None, "count"), ("sum_qty", "l_quantity", "sum"), ("avg_price", "l_extendedprice", "mean")],
    )
    return pa.table(
        {
            "l_returnflag": t["l_returnflag"],
            "n": t["n"],
            "sum_qty": pa.array(round_away(t["sum_qty"].to_numpy(), 2)),
            "avg_price": pa.array(round_away(t["avg_price"].to_numpy(), 6)),
        }
    )


def global_stats(sf_dir: str) -> pa.Table:
    """BasicStats shape: single-row totals/min/max/avg, plus the
    HyperLogLog distinct-orderkey estimate (stages/sketch.py — register
    algebra reproduced float-exactly by the DuckDB oracle)."""
    from ..functions.agg import global_agg
    from ..stages.sketch import approx_distinct

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    agg = global_agg(
        ds,
        [
            ("n", None, "count"),
            ("sum_qty", "l_quantity", "sum"),
            ("min_price", "l_extendedprice", "min"),
            ("max_price", "l_extendedprice", "max"),
            ("avg_price", "l_extendedprice", "mean"),
        ],
    )
    approx = approx_distinct(_read(sf_dir, "lineitem", ["l_orderkey"]),
                             "l_orderkey", p=12)
    return pa.table(
        {
            "n": pa.array([int(agg["n"])], pa.int64()),
            "sum_qty": pa.array(round_away([agg["sum_qty"]], 2)),
            "min_price": pa.array(round_away([agg["min_price"]], 3)),
            "max_price": pa.array(round_away([agg["max_price"]], 3)),
            "avg_price": pa.array(round_away([agg["avg_price"]], 6)),
            "approx_orders": pa.array([round(approx, 4)], pa.float64()),
        }
    )


def returned_by_supplier(sf_dir: str) -> pa.Table:
    """404-table shape: filter + groupby (combiner; ~10k supplier groups
    still partial-aggregates well below block size), paired with the
    Count-Min point estimate per supplier (stages/sketch.py) so the
    sketch is oracled against the exact counts it approximates."""
    from ..functions.agg import grouped_agg
    from ..stages.sketch import approx_group_counts

    def keep_r(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["l_returnflag"], "R")).select(["l_suppkey"])

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_suppkey"])
    t = grouped_agg(ds.map_batches(keep_r, batch_format="pyarrow"),
                    ["l_suppkey"], [("n", None, "count")])
    keys = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ds2 = _read(sf_dir, "lineitem", ["l_returnflag", "l_suppkey"])
    approx = approx_group_counts(ds2.map_batches(keep_r, batch_format="pyarrow"),
                                 "l_suppkey", keys)
    return t.append_column("approx_n", pa.array(approx, pa.int64()))


def label_counts(sf_dir: str) -> pa.Table:
    from ..functions.agg import grouped_agg

    return grouped_agg(_read(sf_dir, "embeddings", ["label"]), ["label"], [("n", None, "count")])


# -- top-k / percentile shapes ----------------------------------------------


def fastest_topk(sf_dir: str, k: int = 20) -> pa.Table:
    """fastest-URLs shape: top-k via per-block partial top-k + tiny
    driver merge (no global sort shuffle for a k-row answer)."""
    from ..functions.agg import partial_topk

    ds = _read(sf_dir, "events", ["event_id", "value"])
    return partial_topk(ds, k, ["value", "event_id"]).select(["event_id", "value"])


def slowest_topk(sf_dir: str, k: int = 20) -> pa.Table:
    from ..functions.agg import partial_topk

    ds = _read(sf_dir, "events", ["event_id", "value"])
    return partial_topk(ds, k, ["value", "event_id"], [True, False]).select(["event_id", "value"])


def _top_k_per_group(t: pa.Table, k: int) -> pa.Table:
    """``t`` sorted by (segment, price descending, orderkey), keeping
    each segment's first k rows: rank in group = row − group start."""
    t = t.take(pc.sort_indices(t, sort_keys=[("c_mktsegment", "ascending"),
                                             ("o_totalprice", "descending"),
                                             ("o_orderkey", "ascending")]))
    segs = t["c_mktsegment"].to_numpy(zero_copy_only=False)
    row = np.arange(len(segs))
    new = np.ones(len(segs), dtype=bool)
    new[1:] = segs[1:] != segs[:-1]
    start = np.maximum.accumulate(np.where(new, row, 0))
    return t.filter(pa.array(row - start < k))


def top_order_per_segment(sf_dir: str, k: int = 3) -> pa.Table:
    """top-N-per-group (window row_number) shape: per-batch partial
    per-group top-k → driver final per-group top-k.  Segments attach
    through the broadcast sorted arrays of :func:`_sorted_segments`, as
    in segment_join."""
    import ray
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"])
    lut_ref = ray.put(_sorted_segments(cust))

    def attach_and_topk(batch: pa.Table) -> pa.Table:
        seg = _segments_of(ray.get(lut_ref), batch["o_custkey"])
        return _top_k_per_group(pa.table({"c_mktsegment": seg, "o_orderkey": batch["o_orderkey"],
                                          "o_totalprice": batch["o_totalprice"]}), k)

    out = _top_k_per_group(_collect(_read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
                                    .map_batches(attach_and_topk, batch_format="pyarrow")), k)
    return pa.table({"c_mktsegment": out["c_mktsegment"], "o_orderkey": out["o_orderkey"],
                     "total": pa.array(round_away(out["o_totalprice"].to_numpy(), 2))})


_ANTI_BROADCAST_KEYS = 50_000_000  # distinct probe keys above this scatter


def customers_without_events(sf_dir: str) -> pa.Table:
    """anti-join shape: ordering customers with NO events (broadcast the
    sorted event user set via ray.put, vectorized searchsorted per
    batch, per-block dedup partial → driver unique).  Above
    ``_ANTI_BROADCAST_KEYS`` distinct probe keys the broadcast no
    longer fits and :func:`_anti_join_scatter` runs instead: both
    sides hash-partition on the key, each partition anti-joins and
    dedups locally, nothing driver-sized anywhere
    (``test_anti_join_scatter_path_matches``)."""
    import ray
    import pyarrow.parquet as pq

    epath = os.path.join(sf_dir, "events.parquet")
    # gate on TOTAL rows from parquet metadata (≥ distinct keys) so the
    # driver never loads a column it cannot hold just to count it
    if pq.read_metadata(epath).num_rows > _ANTI_BROADCAST_KEYS:
        return _anti_join_scatter(sf_dir)
    ev = pq.read_table(epath, columns=["user_id"])
    ev_sorted = np.unique(ev["user_id"].to_numpy(zero_copy_only=False))
    ref = ray.put(ev_sorted)

    def anti(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({"o_custkey": pa.array(np.unique(ck[~in_sorted(ray.get(ref), ck)]))})

    t = _collect(_read(sf_dir, "orders", ["o_custkey"]).map_batches(anti, batch_format="pyarrow"))
    if t is None:
        return pa.table({"o_custkey": pa.array([], pa.int64())})
    cks = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False))
    return pa.table({"o_custkey": pa.array(cks)})


def _anti_join_scatter(sf_dir: str, num_partitions: int | None = None) -> pa.Table:
    """Coded big×big anti-join: orders custkeys and event user_ids each
    scatter once on key%P; partition p emits its distinct custkeys that
    miss its event-key set.  Exact for any P (a key lives in one
    partition on both sides); output rows are result-sized."""
    from ..functions.agg import block_refs
    from ..stages.dedup import _auto_partitions, _scatter_exchange

    P = num_partitions if num_partitions is not None else _auto_partitions()
    orefs = block_refs(_read(sf_dir, "orders", ["o_custkey"]))
    erefs = block_refs(_read(sf_dir, "events", ["user_id"]))

    def distinct(block: pa.Table, key_col: str) -> pa.Table:
        # pre-dedup inside the block: only distinct keys cross the wire
        return pa.table({key_col: pa.array(np.unique(
            block[key_col].to_numpy(zero_copy_only=False)))})

    def anti(ot: pa.Table, et: pa.Table) -> pa.Table:
        if ot is None:
            return None
        ck = np.unique(ot["o_custkey"].to_numpy(zero_copy_only=False))
        if et is not None:
            ev = np.unique(et["user_id"].to_numpy(zero_copy_only=False))
            ck = ck[np.isin(ck, ev, invert=True, assume_unique=True)]
        return pa.table({"o_custkey": pa.array(ck)})

    out = _scatter_exchange([(orefs, "o_custkey", distinct, "o_custkey"),
                             (erefs, "user_id", distinct, "user_id")], anti, P)
    if not out:
        return pa.table({"o_custkey": pa.array([], pa.int64())})
    return pa.concat_tables(out).sort_by("o_custkey")


def _sorted_lookup(keys_sorted: np.ndarray, probe: np.ndarray):
    """(position, hit) of each probe key in the ascending key array of
    a broadcast key→value lookup; the position is only valid where hit."""
    pos = np.searchsorted(keys_sorted, probe)
    pos_c = np.minimum(pos, max(0, len(keys_sorted) - 1))
    hit = keys_sorted[pos_c] == probe if len(keys_sorted) else np.zeros(len(probe), bool)
    return pos_c, hit


def _sorted_segments(cust: pa.Table) -> tuple:
    """customer (c_custkey, c_mktsegment) as the broadcast side of a
    segment lookup: the ascending key array and its aligned segments."""
    ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(ck)
    return ck[order], cust["c_mktsegment"].take(pa.array(order)).combine_chunks()


def _segments_of(lut: tuple, custkeys) -> pa.Array:
    """Each order's customer segment through :func:`_sorted_segments`'
    arrays, "" for a customer it does not hold."""
    keys, segs = lut
    pos, hit = _sorted_lookup(keys, custkeys.to_numpy(zero_copy_only=False))
    return pc.if_else(pa.array(hit), segs.take(pa.array(pos, mask=~hit)), "")


def supplier_part_stats(sf_dir: str) -> pa.Table:
    """two-broadcast join shape: lineitem ⋈ supplier ⋈ part (both sides
    broadcast) → per-(nation of supplier, part brand) counts."""
    import ray
    import pyarrow.parquet as pq

    from ..functions.agg import grouped_agg

    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"])
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"])
    # broadcast SORTED key→value arrays, not dicts: the per-batch lookup
    # is one vectorized searchsorted + take instead of a Python row loop
    sk_arr = supp["s_suppkey"].to_numpy(zero_copy_only=False)
    s_ord = np.argsort(sk_arr)
    pk_arr = part["p_partkey"].to_numpy(zero_copy_only=False)
    p_ord = np.argsort(pk_arr)
    s_ref = ray.put((sk_arr[s_ord],
                     supp["s_nationkey"].to_numpy(zero_copy_only=False)[s_ord]))
    p_ref = ray.put((pk_arr[p_ord], part["p_brand"].take(pa.array(p_ord)).combine_chunks()))

    def attach(batch: pa.Table) -> pa.Table:
        (s_keys, s_nat), (p_keys, p_brand) = ray.get(s_ref), ray.get(p_ref)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        s_pos, s_hit = _sorted_lookup(s_keys, sk)
        nat = np.where(s_hit, s_nat[s_pos], -1).astype(np.int64)
        p_pos, p_hit = _sorted_lookup(p_keys, pk)
        brand = pc.if_else(pa.array(p_hit), p_brand.take(pa.array(p_pos)), "")
        return pa.table({"s_nationkey": pa.array(nat), "p_brand": brand,
                         "l_quantity": batch["l_quantity"]})

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey", "l_quantity"]).map_batches(
        attach, batch_format="pyarrow")
    t = grouped_agg(ds, ["s_nationkey", "p_brand"],
                    [("n", None, "count"), ("sum_qty", "l_quantity", "sum")])
    return pa.table({"s_nationkey": t["s_nationkey"], "p_brand": t["p_brand"], "n": t["n"],
                     "sum_qty": pa.array(round_away(t["sum_qty"].to_numpy(), 2))})


def _grouped_p90(t: pa.Table) -> pa.Table:
    """Exact nearest-rank p90 per event_type over one table — the
    kernel shared by the driver path and every exchange partition."""
    from .reports import reference_percentile

    et = t["event_type"].to_numpy(zero_copy_only=False).astype(str)
    val = t["value"].to_numpy(zero_copy_only=False)
    order = np.lexsort((val, et))
    et, val = et[order], val[order]
    starts = np.nonzero(np.concatenate([[True], et[1:] != et[:-1]]))[0]
    ends = np.append(starts[1:], len(et))
    return pa.table(
        {
            "event_type": pa.array(et[starts], pa.string()),
            "p90": pa.array([reference_percentile(val[s:e], 90) for s, e in zip(starts, ends)]),
        }
    )


def p90_by_type(sf_dir: str) -> pa.Table:
    """reference nearest-rank p90 per group (basic_stats.rs:14-21).

    Exact percentiles need every value of a group together; with a
    handful of groups the cheapest exchange is collecting the two
    pruned columns and a numpy grouped sort on the driver.  Beyond the
    byte budget ``dedup._combine`` hash-partitions the rows on
    xxh64(event_type) instead — a group lives whole in one partition,
    so the identical kernel is exact per partition
    (``test_p90_by_type_scatter_path_matches``).  Skew note: a hot
    group bounds one partition's size.

    The slot also carries ``approx_users`` — the grouped-HLL distinct
    user_id estimate per type (stages/sketch.approx_distinct_by): the
    register-merge answer to COUNT(DISTINCT) GROUP BY, where no user_id
    ever crosses the wire (the DuckDB oracle re-derives the registers
    float-exactly via hll_grouped_oracle_sql)."""
    from ..functions.hashing import xxh64_strings
    from ..stages.dedup import _combine, _refs_and_bytes
    from ..stages.sketch import approx_distinct_by

    def add_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "type_key", pa.array(xxh64_strings(batch["event_type"]), pa.uint64()))

    refs, nbytes = _refs_and_bytes(_read(sf_dir, "events", ["event_type", "value"]))
    p90t = pa.concat_tables([
        pa.table({"event_type": pa.array([], pa.string()), "p90": pa.array([], pa.float64())}),
        *_combine(refs, nbytes, "type_key", _grouped_p90, pre=add_key)])
    hll = approx_distinct_by(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id", p=12)
    joined = p90t.join(hll, keys="event_type", join_type="left outer")
    out = pa.table({
        "event_type": joined["event_type"],
        "p90": joined["p90"],
        "approx_users": pa.array(
            np.round(joined["approx_distinct"].to_numpy(zero_copy_only=False), 3)),
    })
    return out.take(pc.sort_indices(out, [("event_type", "ascending")]))


# -- join / lookup shapes ----------------------------------------------------


# customer-side row count above which segment_join abandons the
# broadcast lookup for the two-sided hash-partitioned shuffle join
# (stages/join.hash_join) — at 100 TB neither side fits a broadcast.
# Tests monkeypatch this to force the shuffle path
# (test_hash_join_matches_broadcast_path).
_BROADCAST_JOIN_ROWS = 4_000_000


def _segment_join_shuffled(sf_dir: str) -> pa.Table:
    """segment_join's big×big scale path: orders ⋈ customer co-scattered
    on custkey, the per-segment (n, total) partials computed INSIDE each
    join partition task, P tiny partials combined on the driver."""
    from ..functions.agg import combine_partials, make_partial_fn
    from ..stages.join import hash_join

    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.rename_columns(["o_custkey", "c_mktsegment"]),
        batch_format="pyarrow")
    orders_ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    specs = [("n", None, "count"), ("total", "o_totalprice", "sum")]
    pfn = make_partial_fn(["c_mktsegment"], specs)

    def post(joined: pa.Table) -> pa.Table:
        return pfn(pa.table({"c_mktsegment": pc.fill_null(joined["c_mktsegment"], ""),
                             "o_totalprice": joined["o_totalprice"]}))

    parts = hash_join(orders_ds, cust_ds, "o_custkey", how="left", post=post)
    merged = pa.concat_tables(parts, promote_options="permissive")
    t = combine_partials(merged, ["c_mktsegment"], specs)
    return pa.table(
        {"c_mktsegment": t["c_mktsegment"], "n": t["n"],
         "total": pa.array(round_away(t["total"].to_numpy(), 2))}
    )


def segment_join(sf_dir: str) -> pa.Table:
    """source-join shape: broadcast small side (customer) into map_batches,
    then groupby — no shuffle join (SURVEY.md §2.4).  Above
    ``_BROADCAST_JOIN_ROWS`` customers the broadcast is no longer small
    and the coded scale path is the two-sided shuffle join."""
    import ray

    import pyarrow.parquet as pq

    from ..functions.agg import grouped_agg

    cpath = os.path.join(sf_dir, "customer.parquet")
    # the gate reads parquet METADATA only — above the threshold the
    # broadcast-sized driver read must never happen
    if pq.read_metadata(cpath).num_rows > _BROADCAST_JOIN_ROWS:
        return _segment_join_shuffled(sf_dir)
    cust = pq.read_table(cpath, columns=["c_custkey", "c_mktsegment"])
    lut_ref = ray.put(_sorted_segments(cust))

    def attach(batch: pa.Table) -> pa.Table:
        return pa.table({"c_mktsegment": _segments_of(ray.get(lut_ref), batch["o_custkey"]),
                         "o_totalprice": batch["o_totalprice"]})

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(attach, batch_format="pyarrow")
    t = grouped_agg(
        ds, ["c_mktsegment"], [("n", None, "count"), ("total", "o_totalprice", "sum")]
    )
    return pa.table(
        {"c_mktsegment": t["c_mktsegment"], "n": t["n"], "total": pa.array(round_away(t["total"].to_numpy(), 2))}
    )


_ASOF_BROADCAST_ROWS = 5_000_000  # orders above this hash-partition on key


def _asof_index(ck: np.ndarray, od: np.ndarray):
    """(custkey, orderdate_us) → the composite-rank merge index:
    (unique keys, fused sorted axis, key-sorted times, sorted time
    domain, base).  Keys are DENSIFIED (rank within the unique key set)
    before fusing, so the fused value is bounded by
    n_unique·(n+1) ≤ (n+1)² — int64-safe for any key magnitude (raw
    snowflake-style 1e18 ids would overflow ck·(n+1) silently)."""
    order = np.lexsort((od, ck))
    ck, od = ck[order], od[order]
    n = len(od)
    uniq = np.unique(ck)
    dense = np.searchsorted(uniq, ck).astype(np.int64)
    sorted_times = np.sort(od)  # rank domain (duplicates keep rank stable)
    rank = np.searchsorted(sorted_times, od, side="right").astype(np.int64)
    fused = dense * (n + 1) + rank
    return uniq, fused, od, sorted_times, np.int64(n + 1)


def _asof_answer(index, uid: np.ndarray, ts: np.ndarray):
    """Answer (uid, ts) queries against an ``_asof_index``: returns
    (range count, as-of time or -1) — three searchsorted calls total.
    A uid absent from the index densifies to a non-matching slot and
    reports zero matches."""
    uniq, fkey, times, st_all, base = index
    du = np.searchsorted(uniq, uid).astype(np.int64)
    du_c = np.minimum(du, max(0, len(uniq) - 1))
    known = uniq[du_c] == uid if len(uniq) else np.zeros(len(uid), bool)
    r_t = np.searchsorted(st_all, ts, side="right").astype(np.int64)
    pos = np.searchsorted(fkey, du_c * base + r_t, side="right")
    seg = np.searchsorted(fkey, du_c * base, side="left")
    n = np.where(known, pos - seg, 0).astype(np.int64)
    asof = np.full(len(uid), -1, dtype=np.int64)
    hit = n > 0
    asof[hit] = times[pos[hit] - 1]
    return n, asof


def range_join_count(sf_dir: str) -> pa.Table:
    """Range join + AS-OF join in one pass: per event, the count of
    this user's orders with orderdate ≤ ts (range) AND the most recent
    such orderdate (as-of match; -1 when none).

    Fully vectorized composite-rank merge — no per-row Python: sort the
    right side by (key, time), rank every time against the global
    sorted time array (monotone, duplicate-stable), fuse
    ``key·(N+1)+rank`` into one sorted int64 axis, and answer every
    event with two ``np.searchsorted`` calls.  ``pos_right − seg_start``
    is the range count; ``times[pos_right − 1]`` is the as-of value.
    The small side broadcasts once via ``ray.put``; above
    ``_ASOF_BROADCAST_ROWS`` orders, :func:`_range_join_scatter` runs
    instead — both sides hash-partition on the key (the
    ``stages/join.hash_join`` scatter shape, rows move once) and the
    IDENTICAL kernel runs per partition with partition-local N, which
    also keeps the fused key inside int64
    (``test_range_join_scatter_path_matches``)."""
    import ray
    import pyarrow.parquet as pq

    opath = os.path.join(sf_dir, "orders.parquet")
    if pq.read_metadata(opath).num_rows > _ASOF_BROADCAST_ROWS:
        return _range_join_scatter(sf_dir)  # metadata-only gate
    orders = pq.read_table(opath, columns=["o_custkey", "o_orderdate"])
    ck = orders["o_custkey"].to_numpy(zero_copy_only=False)
    od = orders["o_orderdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
    ref = ray.put(_asof_index(ck, od))

    def asof_and_count(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        n, asof = _asof_answer(ray.get(ref), uid, ts)
        return pa.table({
            "event_id": batch["event_id"],
            "n_before": pa.array(n),
            "asof_date_us": pa.array(asof),
        })

    return _collect(
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
            asof_and_count, batch_format="pyarrow")
    )


def _range_join_scatter(sf_dir: str, num_partitions: int | None = None) -> pa.Table:
    """The coded big×big scale path: orders scatter on custkey%P,
    events on user_id%P (each row crosses the wire once), partition
    ``p`` builds its local composite-rank index and answers its local
    events — identical results for any P because a key lives in
    exactly one partition."""
    from ..functions.agg import block_refs
    from ..stages.dedup import _auto_partitions, _scatter_exchange

    P = num_partitions if num_partitions is not None else _auto_partitions()
    orefs = block_refs(_read(sf_dir, "orders", ["o_custkey", "o_orderdate"]))
    erefs = block_refs(_read(sf_dir, "events", ["event_id", "user_id", "ts"]))

    def answer(orders: pa.Table, ev: pa.Table) -> pa.Table:
        if ev is None:
            return None
        uid = ev["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = ev["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        if orders is None:
            n = np.zeros(len(uid), dtype=np.int64)
            asof = np.full(len(uid), -1, dtype=np.int64)
        else:
            ck = orders["o_custkey"].to_numpy(zero_copy_only=False)
            od = orders["o_orderdate"].to_numpy(zero_copy_only=False) \
                .astype("datetime64[us]").astype(np.int64)
            n, asof = _asof_answer(_asof_index(ck, od), uid, ts)
        return pa.table({
            "event_id": ev["event_id"],
            "n_before": pa.array(n),
            "asof_date_us": pa.array(asof),
        })

    out = _scatter_exchange([(orefs, "o_custkey"), (erefs, "user_id")], answer, P)
    if not out:
        return pa.table({"event_id": pa.array([], pa.int64()),
                         "n_before": pa.array([], pa.int64()),
                         "asof_date_us": pa.array([], pa.int64())})
    return pa.concat_tables(out)


# -- windowed / parsing shapes -----------------------------------------------


def hourly_window(sf_dir: str) -> pa.Table:
    """tumbling-window shape: (user, hour-bucket) aggregate.

    Combiner partials per block (pyarrow hash agg), final combine over
    the partial residue.  Event streams are roughly time-ordered so a
    block covers few hours and partials shrink well; at 100 TB the
    final combine becomes a hash-partition exchange on user_id instead
    of a driver merge."""
    from ..functions.agg import grouped_agg

    def add_hour(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        hour = ts // 3_600_000_000
        return pa.table({"user_id": batch["user_id"], "hour": pa.array(hour), "value": batch["value"]})

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(add_hour, batch_format="pyarrow")
    t = grouped_agg(
        ds, ["user_id", "hour"], [("total", "value", "sum"), ("n", None, "count")]
    )
    return pa.table(
        {
            "user_id": t["user_id"],
            "hour": t["hour"],
            "total": pa.array(round_away(t["total"].to_numpy(), 2)),
            "n": t["n"],
        }
    )


def _session_kernel(uid: np.ndarray, ts: np.ndarray, gap_us: int) -> pa.Table:
    """Gap sessionization over raw (user_id, ts_us) arrays — fully
    vectorized (the per-user session_no is a maximum.accumulate reset
    trick, no Python loop).  Correct on any row subset that contains
    ALL of each included user's events, so the identical kernel runs
    driver-side at small sf and per-partition after a user_id hash
    exchange at scale."""
    order = np.lexsort((ts, uid))
    uid, ts = uid[order], ts[order]
    new_user = np.ones(len(uid), dtype=bool)
    new_user[1:] = uid[1:] != uid[:-1]
    gap_break = np.ones(len(uid), dtype=bool)
    gap_break[1:] = (ts[1:] - ts[:-1]) > gap_us
    session_start = new_user | gap_break
    starts = np.nonzero(session_start)[0]
    ends = np.append(starts[1:], len(uid))
    n_events = (ends - starts).astype(np.int64)
    dur = (ts[ends - 1] - ts[starts]) / 1_000_000.0
    # session index within user (1-based, like row_number): subtract
    # each session's position from its user's first-session position
    user_of_session = uid[starts]
    idx = np.arange(len(starts), dtype=np.int64)
    first_of_user = np.ones(len(starts), dtype=bool)
    first_of_user[1:] = user_of_session[1:] != user_of_session[:-1]
    sess_in_user = idx - np.maximum.accumulate(np.where(first_of_user, idx, 0)) + 1
    return pa.table(
        {
            "user_id": pa.array(user_of_session),
            "session_no": pa.array(sess_in_user),
            "n_events": pa.array(n_events),
            "duration_sec": pa.array(round_away(dur, 3)),
        }
    )


def session_windows(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Session-window shape (gap-based sessionization): per-user event
    sessions split at >gap inactivity; returns per-session event count
    and duration.  At sf scale a driver-side pass over the pruned 2
    columns is cheapest; beyond the byte budget ``dedup._combine``
    hash-partitions the events on user_id (rows cross the wire once, a
    user lives in exactly one partition) and :func:`_session_kernel`
    runs unchanged per partition (``test_session_windows_scatter_path_matches``)."""
    from ..stages.dedup import _combine, _refs_and_bytes

    gap_us = gap_minutes * 60 * 1_000_000

    def sessionize(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        return _session_kernel(uid, ts, gap_us)

    refs, nbytes = _refs_and_bytes(_read(sf_dir, "events", ["user_id", "ts"]))
    out = _combine(refs, nbytes, "user_id", sessionize)
    if not out:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "session_no": pa.array([], pa.int64()),
                         "n_events": pa.array([], pa.int64()),
                         "duration_sec": pa.array([], pa.float64())})
    return pa.concat_tables(out)


def props_bucket(sf_dir: str) -> pa.Table:
    """extras/JSON-parse shape: extract int from the props JSON string,
    bucket, count (vectorized Arrow regex)."""
    from ray.data.aggregate import Count

    def extract(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], pattern=r"(?P<k>[0-9]+)")
        kk = pc.struct_field(ex, "k").cast(pa.int32())
        # regex misses / null props yield nulls: drop them (an unguarded
        # float-NaN → int cast would mint a garbage bucket)
        kk = kk.drop_null()
        k = kk.to_numpy(zero_copy_only=False)
        return pa.table({"k_mod": pa.array((k % 10).astype(np.int32))})

    return _collect(
        _read(sf_dir, "events", ["props"]).map_batches(extract, batch_format="pyarrow")
        .groupby("k_mod")
        .aggregate(Count(alias_name="n"))
    )


# -- documents / embeddings -------------------------------------------------


def exact_dedup_table(sf_dir: str) -> pa.Table:
    from ..stages.dedup import exact_dedup

    return _collect(exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"])))


def knn_top10(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as pq

    from ..stages.similarity import knn_bruteforce

    q = (
        pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
        .filter(pc.equal(pc.field("vec_id"), 0))["embedding"]
        .to_pylist()[0]
    )
    t = knn_bruteforce(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), np.array(q), k=10)
    return pa.table({"vec_id": t["vec_id"], "rank": t["rank"].cast(pa.int64())})


def embedding_norms(sf_dir: str) -> pa.Table:
    def norm(batch: pa.Table) -> pa.Table:
        m = np.vstack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        return pa.table(
            {"vec_id": batch["vec_id"], "l2": pa.array(round_away(np.linalg.norm(m, axis=1), 4))}
        )

    return _collect(_read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(norm, batch_format="pyarrow"))


def embedding_dup_pairs_table(sf_dir: str, threshold: float = 0.45) -> pa.Table:
    from ..stages.dedup import embedding_dup_pairs

    # few blocks here: the tile cross-join launches O(blocks²) matmul
    # tasks — block size should keep each matmul well above task
    # overhead (at production scale: target ~10⁴-10⁵ rows per block)
    t = embedding_dup_pairs(_read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=4),
                            threshold=threshold)
    return t.select(["id_a", "id_b"])


# -- merged query surfaces (one queries() slot, several operators) ----------


def user_type_stats(sf_dir: str) -> pa.Table:
    """Rows + distinct users per event type in one table
    (event_type, n, n_users) — the two per-type aggregates share a key
    AND a single pass: each block reduces to its distinct
    (event_type, user_id) pairs with their row counts (Arrow hash-agg,
    no unicode sorts), and ``dedup._combine`` re-aggregates the residue
    — on the driver, or beyond the byte budget per partition of one
    user_id exchange (pairs are the dataset's distinct-pair cardinality,
    not its row count).  A (type, user) pair lands whole in one
    partition, so the per-partition (n, n_users) are exact and the
    driver sums #types×P tiny rows
    (``test_user_type_stats_scatter_path_matches``)."""
    from ..stages.dedup import _combine, _refs_and_bytes

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"], use_threads=False).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "user_id", "rows"])

    def per_type(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type", "user_id"], use_threads=False).aggregate(
            [("rows", "sum")])
        out = g.group_by(["event_type"], use_threads=False).aggregate(
            [("rows_sum", "sum"), ([], "count_all")])
        return out.rename_columns(["event_type", "n", "n_users"])

    refs, nbytes = _refs_and_bytes(_read(sf_dir, "events", ["event_type", "user_id"])
                                   .map_batches(pair_partial, batch_format="pyarrow"))
    merged = pa.concat_tables([
        pa.table({"event_type": pa.array([], pa.string()), "n": pa.array([], pa.int64()),
                  "n_users": pa.array([], pa.int64())}),
        *_combine(refs, nbytes, "user_id", per_type)])
    out = merged.group_by(["event_type"], use_threads=False).aggregate(
        [("n", "sum"), ("n_users", "sum")])
    out = out.rename_columns(["event_type", "n", "n_users"])
    idx = pc.sort_indices(out, [("event_type", "ascending")])
    return pa.table(
        {
            "event_type": out["event_type"].take(idx),
            "n": out["n"].take(idx).cast(pa.int64()),
            "n_users": out["n_users"].take(idx).cast(pa.int64()),
        }
    )


def docs_stats(sf_dir: str) -> pa.Table:
    """Per-(source, lang) doc counts and mean length in one two-key groupby
    (source, lang, n, avg_chars)."""
    from ..functions.agg import grouped_agg

    t = grouped_agg(
        _read(sf_dir, "documents", ["source", "lang", "n_chars"]),
        ["source", "lang"],
        [("n", None, "count"), ("avg_chars", "n_chars", "mean")],
    )
    return pa.table(
        {
            "source": t["source"],
            "lang": t["lang"],
            "n": t["n"],
            "avg_chars": pa.array(round_away(t["avg_chars"].to_numpy(), 6)),
        }
    )


def events_topk(sf_dir: str, k: int = 20) -> pa.Table:
    """fastest_topk + slowest_topk tagged in one table
    (which ∈ {fastest, slowest}, event_id, value)."""
    f = fastest_topk(sf_dir, k)
    s = slowest_topk(sf_dir, k)
    return pa.table(
        {
            "which": pa.array(["fastest"] * f.num_rows + ["slowest"] * s.num_rows, pa.string()),
            "event_id": pa.concat_arrays(
                [f["event_id"].combine_chunks(), s["event_id"].combine_chunks()]
            ),
            "value": pa.concat_arrays([f["value"].combine_chunks(), s["value"].combine_chunks()]),
        }
    )


def window_aggregates(sf_dir: str) -> pa.Table:
    """hourly_window (tumbling) + session_windows (gap sessionization)
    tagged into one common-schema table
    (section ∈ {hourly, session}, user_id, k, n, val):
    hourly → k=hour-bucket, n=count, val=sum(value);
    session → k=session_no, n=event count, val=duration_sec."""
    h = hourly_window(sf_dir)
    s = session_windows(sf_dir)
    return pa.table(
        {
            "section": pa.array(["hourly"] * h.num_rows + ["session"] * s.num_rows, pa.string()),
            "user_id": pa.concat_arrays(
                [h["user_id"].combine_chunks(), s["user_id"].combine_chunks()]
            ),
            "k": pa.concat_arrays(
                [h["hour"].cast(pa.int64()).combine_chunks(),
                 s["session_no"].cast(pa.int64()).combine_chunks()]
            ),
            "n": pa.concat_arrays(
                [h["n"].cast(pa.int64()).combine_chunks(),
                 s["n_events"].cast(pa.int64()).combine_chunks()]
            ),
            "val": pa.concat_arrays(
                [h["total"].cast(pa.float64()).combine_chunks(),
                 s["duration_sec"].cast(pa.float64()).combine_chunks()]
            ),
        }
    )


def bucket_counts(sf_dir: str) -> pa.Table:
    """label_counts (embeddings groupby) + props_bucket (JSON-extract
    bucket groupby) tagged into one (section, k, n) table; k is the
    label / bucket rendered as string."""
    lc = label_counts(sf_dir)
    pb = props_bucket(sf_dir)
    return pa.table(
        {
            "section": pa.array(
                ["label"] * lc.num_rows + ["props"] * pb.num_rows, pa.string()),
            "k": pa.concat_arrays(
                [lc["label"].cast(pa.string()).combine_chunks(),
                 pb["k_mod"].cast(pa.string()).combine_chunks()]
            ),
            "n": pa.concat_arrays(
                [lc["n"].cast(pa.int64()).combine_chunks(),
                 pb["n"].cast(pa.int64()).combine_chunks()]
            ),
        }
    )


_LM_CACHE: dict = {}


def text_metrics(sf_dir: str) -> pa.Table:
    """token_counts + quality_scores + repetition metrics + pattern
    scrubbing (PII-redaction shape) in ONE pass over documents (doc_id,
    n_tokens, avg_tok_len, punct_ratio, n_tri, dup_tri_ratio,
    n_matches, scrubbed) — the per-doc text scalars and the rewrite
    share a read and a batch, so they ride in one slot.  The scrub
    preset = emails + phones + the demo lexicon (customer/supplier —
    the corpus-exercised family); repetition = Gopher-style
    duplicate-trigram fraction."""
    import ray

    from ..stages.scrub import PII_EMAIL, PII_PHONE, lexicon_pattern, scrub_kernel
    from ..stages.textstats import (
        log_perplexity,
        quality_scores,
        repetition_metrics,
        token_counts,
        unigram_model,
    )

    patterns = [PII_EMAIL, PII_PHONE, lexicon_pattern(["customer", "supplier"])]
    # unigram LM over the corpus itself (CCNet-style quality scoring):
    # bounded top-V broadcast, OOV floor — stages/textstats.unigram_model;
    # trained once per (process, sf_dir): the model is corpus-derived
    # state, so repeated queries reuse it like _TABS_CACHE
    if sf_dir not in _LM_CACHE:
        th, tl, oov = unigram_model(_read(sf_dir, "documents", ["text"]))
        _LM_CACHE[sf_dir] = (ray.put(th), ray.put(tl), oov)
    th_ref, tl_ref, oov_logp = _LM_CACHE[sf_dir]

    from ..functions.hashing import md5_u64_strings
    from ..stages.normalize import normalize_array

    def both(batch: pa.Table) -> pa.Table:
        tc = token_counts(batch)
        q = quality_scores(batch)
        rep = repetition_metrics(batch)
        sc = scrub_kernel(batch.select(["doc_id", "text"]), patterns)
        lp = log_perplexity(batch, ray.get(th_ref), ray.get(tl_ref), oov_logp)
        # unicode-normalization columns (stages/normalize.py): the slot
        # dirties sentence boundaries deterministically so the NFC +
        # strip + collapse kernels are load-bearing, then proves the
        # whole normalized string via its md5_u64 (int64 view, the
        # content_signatures convention)
        dirty = pc.replace_substring(batch["text"], pattern=". ",
                                     replacement=".\n\t ")
        norm = normalize_array(dirty)
        return pa.table(
            {
                "doc_id": tc["doc_id"],
                "n_tokens": tc["n_tokens"],
                "avg_tok_len": q["avg_tok_len"],
                "punct_ratio": q["punct_ratio"],
                "n_tri": rep["n_tri"],
                "dup_tri_ratio": rep["dup_tri_ratio"],
                "n_matches": sc["n_matches"],
                "scrubbed": sc["scrubbed"],
                "log_ppl": lp["log_ppl"],
                "norm_changed": pc.invert(pc.equal(norm, dirty)),
                "norm_chars": pc.utf8_length(norm).cast(pa.int64()),
                "norm_h": pa.array(md5_u64_strings(norm).view(np.int64)),
            }
        )

    base = _collect(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(both, batch_format="pyarrow")
    )
    # windowed exact-substring duplicate counts (stages/dedup.
    # duplicated_window_counts — Lee et al. 2022 shape) join per doc;
    # docs shorter than one window carry zeros
    from ..stages.dedup import duplicated_window_counts

    dw = duplicated_window_counts(_read(sf_dir, "documents", ["doc_id", "text"]))
    m = {
        i: (w, d)
        for i, w, d in zip(dw["doc_id"].to_pylist(), dw["n_win"].to_pylist(),
                           dw["n_dup_win"].to_pylist())
    }
    ids = base["doc_id"].to_pylist()
    return base.append_column(
        "n_win", pa.array([m.get(i, (0, 0))[0] for i in ids], pa.int64())
    ).append_column(
        "n_dup_win", pa.array([m.get(i, (0, 0))[1] for i in ids], pa.int64())
    )


def embedding_checks(sf_dir: str) -> pa.Table:
    """embedding_norms (full-table L2 map) + embedding_dup_pairs
    (cosine near-dup join) + semantic_dedup (SemDeDup-style cluster
    assignment and first-id-wins near-identical counts,
    stages/dedup.semantic_dedup) tagged into one (section, id_a, x)
    table: norm rows → ('norm', vec_id, l2); pair rows → ('pair',
    id_a, id_b) with id_b carried in the double column (exact for
    testdata ids); cluster rows → ('cluster', vec_id, centroid id);
    semdup rows → ('semdup', vec_id, n_sim_earlier) for flagged docs."""
    from ..stages.dedup import semantic_dedup
    from ..stages.similarity import knn_join

    nm = embedding_norms(sf_dir)
    dp = embedding_dup_pairs_table(sf_dir)
    sd = semantic_dedup(_read(sf_dir, "embeddings", ["vec_id", "embedding"]))
    flagged = sd.filter(pa.compute.greater(sd["n_sim_earlier"], 0))
    # kNN JOIN section (stages/similarity.knn_join): a deterministic
    # "new batch" subset (vec_id % 41 == 1) joined against the whole
    # table at nprobe == nlist — every cell probed, exact by
    # construction, so the DuckDB window-over-cross-join recomputes it
    # row-for-row.  x packs (b_id, rank) as b_id·8 + rank (exact in a
    # double at any testdata id scale).
    full = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _mod41(b: pa.Table) -> pa.Table:
        vid = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(vid % 41 == 1))

    subset = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        _mod41, batch_format="pyarrow")
    kj = knn_join(subset, full, k=3, nlist=8, nprobe=8, seed=3)
    return pa.table(
        {
            "section": pa.array(
                ["norm"] * nm.num_rows + ["pair"] * dp.num_rows
                + ["cluster"] * sd.num_rows + ["semdup"] * flagged.num_rows
                + ["knnjoin"] * kj.num_rows,
                pa.string()),
            "id_a": pa.concat_arrays(
                [nm["vec_id"].cast(pa.int64()).combine_chunks(),
                 dp["id_a"].cast(pa.int64()).combine_chunks(),
                 sd["vec_id"].cast(pa.int64()).combine_chunks(),
                 flagged["vec_id"].cast(pa.int64()).combine_chunks(),
                 kj["a_id"].cast(pa.int64()).combine_chunks()]
            ),
            "x": pa.concat_arrays(
                [nm["l2"].cast(pa.float64()).combine_chunks(),
                 dp["id_b"].cast(pa.float64()).combine_chunks(),
                 sd["cluster"].cast(pa.float64()).combine_chunks(),
                 flagged["n_sim_earlier"].cast(pa.float64()).combine_chunks(),
                 pa.compute.add(
                     pa.compute.multiply(kj["b_id"], pa.scalar(8)),
                     kj["rank"].cast(pa.int64())).cast(pa.float64())
                 .combine_chunks()]
            ),
        }
    )
